import math

import numpy as np
import pytest

from priorityrank.generate import (
    gen_barabasi_albert,
    gen_dorogovtsev_goltsev_mendes,
    gen_erdos_renyi,
)
from priorityrank.graph import Graph, symmetrize
from priorityrank.metrics import (
    assortativity,
    avg_path_length,
    betweenness_centrality,
    closeness_centrality,
    degree_centrality,
    density,
    diameter,
    freeman_centralization,
    network_profile,
    pagerank_centrality,
    reciprocity,
    shortest_path_summary,
    transitivity,
)

from _oracles import (
    betweenness_count_oracle,
    betweenness_fractional_oracle,
    random_digraph,
)


def path3():
    return Graph(3, [(0, 1), (1, 2)])


def complete(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(n) if i != j])


def star_sym(n):
    return Graph(n, [(0, i) for i in range(1, n)] + [(i, 0) for i in range(1, n)])


def test_degree_centrality_examples():
    assert degree_centrality(path3(), "total").tolist() == [1, 2, 1]
    assert degree_centrality(Graph(2, []), "total").tolist() == [0, 0]
    star = Graph(5, [(0, i) for i in range(1, 5)])
    assert degree_centrality(star, "out")[0] == 4


def test_betweenness_examples():
    assert betweenness_centrality(path3(), "count").tolist() == [0, 1, 0]
    assert betweenness_centrality(complete(4), "count").tolist() == [0, 0, 0, 0]
    with pytest.raises(ValueError):
        betweenness_centrality(path3(), "weird")


def test_betweenness_matches_enumeration_small():
    gen = np.random.default_rng(17)
    for _ in range(50):
        g = random_digraph(gen, int(gen.integers(2, 8)), float(gen.uniform(0.1, 0.9)))
        counts = betweenness_centrality(g, "count")
        assert counts.tolist() == betweenness_count_oracle(g).tolist()
        frac = betweenness_centrality(g, "fractional")
        oracle = betweenness_fractional_oracle(g)
        for v in range(g.n):
            assert abs(frac[v] - float(oracle[v])) < 1e-12


def test_closeness_examples():
    farness = closeness_centrality(path3(), "farness")
    assert farness[0] == pytest.approx((1 + 2) / 3)
    assert np.allclose(closeness_centrality(complete(4), "reciprocal"), 1.0)
    isolated = Graph(2, [])
    assert closeness_centrality(isolated, "reciprocal").tolist() == [0.0, 0.0]
    assert closeness_centrality(isolated, "farness").tolist() == [0.0, 0.0]


def test_closeness_conventions_are_order_inverse_when_strongly_connected():
    gen = np.random.default_rng(23)
    for _ in range(10):
        n = int(gen.integers(4, 10))
        ring = [(i, (i + 1) % n) for i in range(n)]
        g = random_digraph(gen, n, 0.3)
        g = Graph(n, set(g.arcs) | set(ring))  # ring guarantees strong connectivity
        recip = closeness_centrality(g, "reciprocal")
        far = closeness_centrality(g, "farness")
        assert np.array_equal(np.argsort(recip), np.argsort(-far))


def test_pagerank_examples():
    assert pagerank_centrality(Graph(2, [(0, 1), (1, 0)])).tolist() == pytest.approx([0.5, 0.5])
    assert pagerank_centrality(Graph(4, [])).tolist() == pytest.approx([0.25] * 4)
    cycle = Graph(3, [(0, 1), (1, 2), (2, 0)])
    assert pagerank_centrality(cycle).tolist() == pytest.approx([1 / 3] * 3)


def test_pagerank_sums_to_one_nonnegative():
    gen = np.random.default_rng(31)
    for _ in range(20):
        g = random_digraph(gen, int(gen.integers(2, 20)), float(gen.uniform(0, 0.5)))
        x = pagerank_centrality(g, tol=1e-12)
        assert (x >= 0).all()
        assert abs(float(x.sum()) - 1.0) < 1e-11


def test_pagerank_validates_and_reports_nonconvergence():
    from priorityrank.metrics import ConvergenceError

    with pytest.raises(ValueError):
        pagerank_centrality(Graph(2, []), damping=1.0)
    with pytest.raises(ConvergenceError, match="residual"):
        pagerank_centrality(path3(), tol=1e-15, max_iter=1)


def test_diameter_and_path_length():
    for n in (2, 5, 10):
        path = Graph(n, [(i, i + 1) for i in range(n - 1)])
        assert diameter(path) == n - 1
    assert diameter(complete(4)) == 1
    assert avg_path_length(complete(4)) == 1.0
    two_cycles = Graph(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
    assert diameter(two_cycles) == 1
    assert avg_path_length(two_cycles) == 1.0
    assert diameter(Graph(3, [])) == 0


def test_scalar_descriptors():
    c5 = complete(5)
    assert density(c5) == 1.0
    assert reciprocity(c5) == 1.0
    assert freeman_centralization(star_sym(5)) == pytest.approx(1.0)
    assert transitivity(star_sym(5)) == 0.0
    triangle = symmetrize(Graph(3, [(0, 1), (1, 2), (2, 0)]))
    assert transitivity(triangle) == pytest.approx(1.0)


def test_assortativity_undefined_is_nan():
    assert math.isnan(assortativity(Graph(2, [(0, 1), (1, 0)])))
    assert math.isnan(assortativity(Graph(3, [])))


def test_density_monotone_under_arc_addition():
    gen = np.random.default_rng(41)
    for _ in range(20):
        g = random_digraph(gen, 8, 0.3)
        non_arcs = [
            (i, j) for i in range(8) for j in range(8) if i != j and (i, j) not in g.arcs
        ]
        if not non_arcs:
            continue
        extra = non_arcs[int(gen.integers(len(non_arcs)))]
        g2 = Graph(8, set(g.arcs) | {extra})
        assert density(g2) >= density(g)


def test_symmetrized_reciprocity_is_one():
    gen = np.random.default_rng(43)
    for _ in range(10):
        g = symmetrize(random_digraph(gen, 10, 0.2))
        if g.arcs:
            assert reciprocity(g) == 1.0


def test_shortest_path_summary_invariants():
    g = path3()
    dist, sigma = shortest_path_summary(g)
    assert dist[0, 0] == 0 and sigma[0, 0] == 1
    assert dist[2, 0] == np.inf and sigma[2, 0] == 0
    assert dist[0, 2] == 2 and sigma[0, 2] == 1


def test_network_profile_er_scale():
    g = gen_erdos_renyi(50, 0.4, seed=11)
    prof = network_profile(g)
    assert abs(prof.density - 0.40) < 0.05
    assert prof.diameter in (2, 3)
    assert abs(prof.avg_path_length - 1.6) < 0.1
    for vec in (prof.degree, prof.betweenness, prof.closeness, prof.pagerank):
        assert len(vec) == 50
        assert np.isfinite(vec).all()
        assert (vec >= 0).all()


def test_network_profile_path_and_dgm():
    path10 = Graph(10, [(i, i + 1) for i in range(9)])
    assert network_profile(path10).diameter == 9
    g = gen_dorogovtsev_goltsev_mendes(5)
    prof = network_profile(g)
    assert prof.density == pytest.approx(g.arc_count / (123 * 122))


def test_network_profile_sweeps_each_source_once(bfs_calls):
    g = gen_dorogovtsev_goltsev_mendes(3)
    network_profile(g)
    assert sorted(bfs_calls) == list(range(g.n))


@pytest.mark.parametrize(
    "g",
    [
        gen_erdos_renyi(40, 0.08, seed=3),
        gen_barabasi_albert(40, 2, seed=4),
        gen_dorogovtsev_goltsev_mendes(4),
        # a cycle, a lone arc, and an isolated vertex: many unreachable pairs
        Graph(7, [(0, 1), (1, 2), (2, 0), (2, 3), (4, 5)]),
    ],
    ids=["er", "ba", "dgm", "unreachable"],
)
def test_path_metrics_match_networkx(g):
    nx = pytest.importorskip("networkx")
    G = nx.DiGraph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.arc_list)
    bet = nx.betweenness_centrality(G, normalized=False)
    assert betweenness_centrality(g, "fractional") == pytest.approx([bet[v] for v in range(g.n)])
    clo = nx.closeness_centrality(G.reverse(), wf_improved=False)
    assert closeness_centrality(g, "reciprocal") == pytest.approx([clo[v] for v in range(g.n)])
    pr = nx.pagerank(G, alpha=0.85, tol=1e-12)
    assert pagerank_centrality(g, tol=1e-12) == pytest.approx([pr[v] for v in range(g.n)], rel=1e-6)
    lengths = [
        d for _, row in nx.all_pairs_shortest_path_length(G) for d in row.values() if d > 0
    ]
    assert diameter(g) == max(lengths)
    assert avg_path_length(g) == pytest.approx(sum(lengths) / len(lengths))
    prof = network_profile(g)
    assert prof.diameter == max(lengths)
    assert prof.avg_path_length == pytest.approx(sum(lengths) / len(lengths))
