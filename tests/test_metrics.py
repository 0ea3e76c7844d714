import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from priorityrank import cli, metrics
from priorityrank.generate import (
    gen_barabasi_albert,
    gen_dorogovtsev_goltsev_mendes,
    gen_erdos_renyi,
)
from priorityrank.graph import Graph, save_edge_list, symmetrize
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
    transitivity,
)

from _oracles import (
    adjacency,
    betweenness_count_brandes,
    betweenness_count_oracle,
    betweenness_fractional_oracle,
    bfs_distances,
    random_digraph,
)

DATA = Path(__file__).parent / "data"


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
    # both limits are checked up front, with comparisons that NaN fails
    with pytest.raises(ValueError, match="max_iter must be >= 1, got 0"):
        pagerank_centrality(path3(), max_iter=0)
    for tol in (float("nan"), 0.0, -1.0):
        with pytest.raises(ValueError, match="tol must be positive"):
            pagerank_centrality(path3(), tol=tol)
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


@pytest.mark.parametrize(
    "g",
    [
        gen_erdos_renyi(60, 0.1, seed=5),
        gen_barabasi_albert(60, 3, seed=6),
        gen_dorogovtsev_goltsev_mendes(5),
        # one-way and mutual arcs mixed, with a directed and a mutual triangle
        Graph(7, [(0, 1), (1, 0), (1, 2), (2, 0), (3, 4), (4, 3), (4, 5), (5, 4), (5, 3), (6, 0)]),
        Graph(6, [(0, 1), (2, 3), (4, 5), (5, 4)]),  # no wedges
        Graph(0),
        Graph(1),
        Graph(2, [(0, 1)]),
        Graph(2, [(0, 1), (1, 0)]),
    ],
    ids=["er", "ba", "dgm", "mixed", "no-wedges", "n0", "n1", "n2-one-way", "n2-mutual"],
)
def test_transitivity_and_reciprocity_match_networkx(g):
    nx = pytest.importorskip("networkx")
    G = nx.DiGraph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.arcs)
    assert transitivity(g) == pytest.approx(nx.transitivity(G.to_undirected()))
    expected = nx.overall_reciprocity(G) if g.arc_count else 0.0
    assert reciprocity(g) == pytest.approx(expected)


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
    prof = network_profile(g)
    prof.degree
    assert bfs_calls == []
    prof.to_json_dict()
    prof.to_json_dict()
    assert sorted(bfs_calls) == list(range(g.n))


@pytest.mark.parametrize("damping", [0.0, 1.0, -0.5, 1.5, math.nan])
def test_network_profile_rejects_bad_damping_at_call_time(damping, profile_calls):
    with pytest.raises(ValueError, match=r"damping must be in \(0, 1\)"):
        network_profile(path3(), damping=damping)
    assert profile_calls["pagerank_centrality"] == []


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
    G.add_edges_from(g.arcs)
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


def diamond_chain(diamonds: int) -> Graph:
    """Joins 0, 3, 6, ... each fork to two middle vertices that meet again at
    the next join: 2**diamonds shortest paths end to end."""
    arcs = []
    for i in range(diamonds):
        join, nxt = 3 * i, 3 * i + 3
        for middle in (join + 1, join + 2):
            arcs += [(join, middle), (middle, nxt)]
    return Graph(3 * diamonds + 1, arcs)


def expected_path_metrics(g: Graph) -> dict:
    """Closeness, farness, diameter and path length from oracle BFS rows."""
    out_adj, _ = adjacency(g)
    rows = [[d for d in bfs_distances(out_adj, s, g.n) if d > 0] for s in range(g.n)]
    lengths = [d for row in rows for d in row]
    return {
        "closeness": [len(row) / sum(row) if row else 0.0 for row in rows],
        "closeness_farness": [sum(row) / g.n for row in rows],
        "diameter": max(lengths, default=0),
        "avg_path_length": sum(lengths) / len(lengths) if lengths else 0.0,
    }


# one source per chunk, the default chunking, and the whole graph in one chunk
CHUNK_BYTES = pytest.mark.parametrize(
    "budget", [1, metrics._CHUNK_BYTES, 10**12], ids=["one_source", "default", "one_chunk"]
)


@CHUNK_BYTES
def test_count_betweenness_exact_above_2_53(monkeypatch, budget):
    monkeypatch.setattr(metrics, "_CHUNK_BYTES", budget)
    g = diamond_chain(60)
    oracle = betweenness_count_brandes(g)
    assert max(oracle) > 2**53
    assert betweenness_centrality(g, "count").tolist() == [float(x) for x in oracle]
    prof = network_profile(g)
    assert prof.betweenness.tolist() == [float(x) for x in oracle]
    expected = expected_path_metrics(g)
    assert prof.closeness.tolist() == expected["closeness"]
    assert closeness_centrality(g, "reciprocal").tolist() == expected["closeness"]
    assert diameter(g) == prof.diameter == expected["diameter"] == 120
    assert avg_path_length(g) == prof.avg_path_length == expected["avg_path_length"]


def test_brandes_oracle_matches_enumeration():
    gen = np.random.default_rng(19)
    for _ in range(20):
        g = random_digraph(gen, int(gen.integers(2, 8)), float(gen.uniform(0.1, 0.9)))
        assert betweenness_count_brandes(g) == betweenness_count_oracle(g).tolist()


EDGE_CASES = {
    "empty": Graph(0),
    "single": Graph(1),
    "no_arcs": Graph(4),
    "isolated": Graph(6, [(0, 1), (1, 0), (1, 2), (2, 1)]),
    # vertex 3 only receives arcs; vertex 4 only sends them
    "sink_only": Graph(5, [(0, 1), (1, 2), (2, 0), (0, 3), (2, 3), (4, 0)]),
}


@CHUNK_BYTES
@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_path_metrics_edge_cases(monkeypatch, budget, name):
    monkeypatch.setattr(metrics, "_CHUNK_BYTES", budget)
    g = EDGE_CASES[name]
    prof = network_profile(g)
    expected = expected_path_metrics(g)
    assert prof.betweenness.tolist() == betweenness_count_oracle(g).tolist()
    assert prof.closeness.tolist() == expected["closeness"]
    assert prof.closeness_farness.tolist() == expected["closeness_farness"]
    assert prof.diameter == expected["diameter"]
    assert prof.avg_path_length == expected["avg_path_length"]
    frac = betweenness_centrality(g, "fractional")
    assert frac.tolist() == pytest.approx([float(x) for x in betweenness_fractional_oracle(g)])


@pytest.mark.parametrize(
    "g",
    [
        gen_erdos_renyi(90, 0.05, seed=5),
        gen_barabasi_albert(90, 3, seed=6),
        gen_dorogovtsev_goltsev_mendes(4),
        Graph(7, [(0, 1), (1, 2), (2, 0), (2, 3), (4, 5)]),
    ],
    ids=["er", "ba", "dgm", "unreachable"],
)
def test_profile_independent_of_chunk_size(monkeypatch, g):
    default = network_profile(g).to_json_dict()
    for budget in (1, 10**12):
        monkeypatch.setattr(metrics, "_CHUNK_BYTES", budget)
        assert network_profile(g).to_json_dict() == default


# one source per chunk runs n levels per source, so its cycle is shorter
@pytest.mark.parametrize(
    "budget, n", [(1, 200), (metrics._CHUNK_BYTES, 600)], ids=["one_source", "default"]
)
def test_directed_cycle_matches_closed_forms(monkeypatch, sweep_chunks, budget, n):
    monkeypatch.setattr(metrics, "_CHUNK_BYTES", budget)
    g = Graph(n, [(v, (v + 1) % n) for v in range(n)])
    prof = network_profile(g)
    # every source reaches the others once each, at hops 1..n-1
    assert prof.closeness.tolist() == [2 / n] * n
    assert prof.closeness_farness.tolist() == [(n - 1) / 2] * n
    assert prof.diameter == n - 1
    assert prof.avg_path_length == n / 2
    # v is interior to the one path s -> t exactly when it lies strictly
    # between them going round: (n - 1)(n - 2) / 2 ordered pairs
    through = [(n - 1) * (n - 2) / 2] * n
    assert prof.betweenness.tolist() == through
    assert betweenness_centrality(g, "fractional").tolist() == through
    # the default budget holds 109 sources of the 600-cycle, in 6 chunks a sweep
    sizes = [1] * n if budget == 1 else [109] * 5 + [55]
    assert sweep_chunks == sizes + sizes


@pytest.mark.parametrize("measure", [betweenness_centrality, closeness_centrality, diameter])
def test_sweep_memory_stays_near_the_chunk_budget(sweep_chunks, measure):
    g = gen_erdos_renyi(800, 0.01, seed=3)
    g.csr  # built once per graph, outside the sweep
    tracemalloc.start()
    try:
        measure(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 45 chunks of up to 18 sources; the traced peak measured 0.99-1.01 of
    # the budget on seeds 1-5, so 15% slack
    assert sweep_chunks == [18] * 44 + [8]
    assert peak < 1.15 * metrics._CHUNK_BYTES


def test_sweep_chunks_hold_one_source_past_the_budget_and_none_when_empty(
    monkeypatch, sweep_chunks
):
    g = gen_barabasi_albert(40, 2, seed=4)
    default = network_profile(g).to_json_dict()
    sweep_chunks.clear()
    # one source needs 32 * (n + m) bytes, one more than this budget
    monkeypatch.setattr(metrics, "_CHUNK_BYTES", 32 * (g.n + g.arc_count) - 1)
    assert network_profile(g).to_json_dict() == default
    assert sweep_chunks == [1] * g.n
    sweep_chunks.clear()
    diameter(Graph(0))  # its values: test_path_metrics_edge_cases
    assert sweep_chunks == []


@pytest.mark.parametrize(
    "name, g",
    [
        ("profile_dgm5.json", gen_dorogovtsev_goltsev_mendes(5)),
        ("profile_er120.json", gen_erdos_renyi(120, 0.05, seed=7)),
        ("profile_ba120.json", gen_barabasi_albert(120, 3, seed=8)),
    ],
)
def test_profile_matches_golden_file(tmp_path, name, g):
    edges = tmp_path / "g.tsv"
    edges.write_text(save_edge_list(g), encoding="utf-8")
    out = tmp_path / name
    assert cli.main(["profile", "--in", str(edges), "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / name).read_bytes()
