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
from priorityrank.metrics import NetworkProfile, betweenness_centrality, pagerank_centrality

from _oracles import (
    adjacency,
    arcs,
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
    assert path3().total_degrees.tolist() == [1, 2, 1]
    assert Graph(2, []).total_degrees.tolist() == [0, 0]
    star = Graph(5, [(0, i) for i in range(1, 5)])
    assert star.out_degrees.tolist() == [4, 0, 0, 0, 0]
    assert star.in_degrees.tolist() == [0, 1, 1, 1, 1]
    # the profile's degree is the total degree as floats
    degree = NetworkProfile(star).degree
    assert degree.dtype == np.float64 and degree.tolist() == [4.0, 1.0, 1.0, 1.0, 1.0]


def test_betweenness_examples():
    assert betweenness_centrality(path3(), "count").tolist() == [0, 1, 0]
    assert betweenness_centrality(complete(4), "count").tolist() == [0, 0, 0, 0]
    with pytest.raises(ValueError):
        betweenness_centrality(path3(), "weird")


def test_path_sweep_rejects_an_unknown_mode():
    for sweep in (metrics.path_sweep, betweenness_centrality):
        with pytest.raises(ValueError, match="unknown betweenness mode 'bogus'"):
            sweep(path3(), "bogus")


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
    farness = NetworkProfile(path3()).closeness_farness
    assert farness[0] == pytest.approx((1 + 2) / 3)
    assert np.allclose(NetworkProfile(complete(4)).closeness, 1.0)
    isolated = NetworkProfile(Graph(2, []))
    assert isolated.closeness.tolist() == [0.0, 0.0]
    assert isolated.closeness_farness.tolist() == [0.0, 0.0]


def test_closeness_conventions_are_order_inverse_when_strongly_connected():
    gen = np.random.default_rng(23)
    for _ in range(10):
        n = int(gen.integers(4, 10))
        ring = [(i, (i + 1) % n) for i in range(n)]
        g = random_digraph(gen, n, 0.3)
        g = Graph(n, set(arcs(g)) | set(ring))  # ring guarantees strong connectivity
        prof = NetworkProfile(g)
        assert np.array_equal(np.argsort(prof.closeness), np.argsort(-prof.closeness_farness))


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

    for damping in (0.0, 1.0, -0.5, 1.5, math.nan):
        with pytest.raises(ValueError, match=r"damping must be in \(0, 1\)"):
            pagerank_centrality(Graph(2, []), damping=damping)
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
        assert NetworkProfile(path).diameter == n - 1
    assert NetworkProfile(complete(4)).diameter == 1
    assert NetworkProfile(complete(4)).avg_path_length == 1.0
    two_cycles = NetworkProfile(Graph(4, [(0, 1), (1, 0), (2, 3), (3, 2)]))
    assert two_cycles.diameter == 1
    assert two_cycles.avg_path_length == 1.0
    assert NetworkProfile(Graph(3, [])).diameter == 0


def test_scalar_descriptors():
    c5 = complete(5)
    assert NetworkProfile(c5).density == 1.0
    assert NetworkProfile(c5).reciprocity == 1.0
    assert NetworkProfile(star_sym(5)).centralization == pytest.approx(1.0)
    assert NetworkProfile(star_sym(5)).transitivity == 0.0
    triangle = symmetrize(Graph(3, [(0, 1), (1, 2), (2, 0)]))
    assert NetworkProfile(triangle).transitivity == pytest.approx(1.0)
    # graphs too small to have them
    assert pagerank_centrality(Graph(0)).shape == (0,)
    assert NetworkProfile(Graph(1)).density == 0.0
    assert NetworkProfile(Graph(2, [(0, 1), (1, 0)])).centralization == 0.0


def test_assortativity_undefined_is_nan():
    assert math.isnan(NetworkProfile(Graph(2, [(0, 1), (1, 0)])).assortativity)
    assert math.isnan(NetworkProfile(Graph(3, [])).assortativity)


def test_density_monotone_under_arc_addition():
    gen = np.random.default_rng(41)
    for _ in range(20):
        g = random_digraph(gen, 8, 0.3)
        non_arcs = [
            (i, j) for i in range(8) for j in range(8) if i != j and (i, j) not in arcs(g)
        ]
        if not non_arcs:
            continue
        extra = non_arcs[int(gen.integers(len(non_arcs)))]
        g2 = Graph(8, set(arcs(g)) | {extra})
        assert NetworkProfile(g2).density >= NetworkProfile(g).density


def test_symmetrized_reciprocity_is_one():
    gen = np.random.default_rng(43)
    for _ in range(10):
        g = symmetrize(random_digraph(gen, 10, 0.2))
        if arcs(g):
            assert NetworkProfile(g).reciprocity == 1.0


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
    G.add_edges_from(arcs(g))
    assert NetworkProfile(g).transitivity == pytest.approx(nx.transitivity(G.to_undirected()))
    expected = nx.overall_reciprocity(G) if g.arc_count else 0.0
    assert NetworkProfile(g).reciprocity == pytest.approx(expected)


def test_network_profile_er_scale():
    g = gen_erdos_renyi(50, 0.4, seed=11)
    prof = NetworkProfile(g)
    assert abs(prof.density - 0.40) < 0.05
    assert prof.diameter in (2, 3)
    assert abs(prof.avg_path_length - 1.6) < 0.1
    for vec in (prof.degree, prof.betweenness, prof.closeness, prof.pagerank):
        assert len(vec) == 50
        assert np.isfinite(vec).all()
        assert (vec >= 0).all()


def test_network_profile_path_and_dgm():
    path10 = Graph(10, [(i, i + 1) for i in range(9)])
    assert NetworkProfile(path10).diameter == 9
    g = gen_dorogovtsev_goltsev_mendes(5)
    prof = NetworkProfile(g)
    assert prof.density == pytest.approx(g.arc_count / (123 * 122))


def test_network_profile_sweeps_each_source_once(bfs_calls):
    g = gen_dorogovtsev_goltsev_mendes(3)
    prof = NetworkProfile(g)
    prof.degree
    assert bfs_calls == []
    prof.to_json_dict()
    prof.to_json_dict()
    assert sorted(bfs_calls) == list(range(g.n))


def test_network_profile_is_a_mapping_of_the_centrality_kinds(bfs_calls):
    # a key test and the length read the kinds alone, so they run no sweep
    g = gen_dorogovtsev_goltsev_mendes(3)
    prof = NetworkProfile(g)
    assert all(kind in prof for kind in metrics.CENTRALITY_KINDS)
    assert "diameter" not in prof and 0 not in prof and prof.get("eigen") is None
    assert len(prof) == 4 and list(prof) == list(metrics.CENTRALITY_KINDS)
    assert bfs_calls == []
    vectors = dict(prof)
    assert list(vectors) == list(metrics.CENTRALITY_KINDS)
    for kind, vector in vectors.items():
        assert vector is getattr(prof, kind)
    assert sorted(bfs_calls) == list(range(g.n))
    with pytest.raises(KeyError):
        prof["diameter"]
    # equality and hashing stay the dataclass's, by graph
    again = NetworkProfile(gen_dorogovtsev_goltsev_mendes(3))
    assert prof == again and hash(prof) == hash(again)
    assert prof != NetworkProfile(gen_dorogovtsev_goltsev_mendes(2))


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
    G.add_edges_from(arcs(g))
    bet = nx.betweenness_centrality(G, normalized=False)
    assert betweenness_centrality(g, "fractional") == pytest.approx([bet[v] for v in range(g.n)])
    clo = nx.closeness_centrality(G.reverse(), wf_improved=False)
    prof = NetworkProfile(g)
    assert prof.closeness == pytest.approx([clo[v] for v in range(g.n)])
    pr = nx.pagerank(G, alpha=0.85, tol=1e-12)
    assert pagerank_centrality(g, tol=1e-12) == pytest.approx([pr[v] for v in range(g.n)], rel=1e-6)
    lengths = [
        d for _, row in nx.all_pairs_shortest_path_length(G) for d in row.values() if d > 0
    ]
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
    prof = NetworkProfile(g)
    assert prof.betweenness.tolist() == [float(x) for x in oracle]
    expected = expected_path_metrics(g)
    assert prof.closeness.tolist() == expected["closeness"]
    assert prof.diameter == expected["diameter"] == 120
    assert prof.avg_path_length == expected["avg_path_length"]


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
    prof = NetworkProfile(g)
    expected = expected_path_metrics(g)
    assert prof.betweenness.tolist() == betweenness_count_oracle(g).tolist()
    assert prof.closeness.tolist() == expected["closeness"]
    assert prof.closeness_farness.tolist() == expected["closeness_farness"]
    assert prof.diameter == expected["diameter"]
    assert prof.avg_path_length == expected["avg_path_length"]
    frac = betweenness_centrality(g, "fractional")
    assert frac.tolist() == pytest.approx([float(x) for x in betweenness_fractional_oracle(g)])


def differential_family() -> dict[str, Graph]:
    """Small digraphs of every shape the sweep must handle, from one seed."""
    gen = np.random.default_rng(29)
    family = {f"er_p{p}": random_digraph(gen, 11, p) for p in (0, 0.05, 0.3, 1)}
    family["in_star"] = Graph(7, [(i, 0) for i in range(1, 7)])
    family["out_star"] = Graph(7, [(0, i) for i in range(1, 7)])
    # an acyclic part with shortcuts beside a cyclic one
    left = random_digraph(gen, 5, 0.5)
    family["two_components"] = Graph(
        9, [(0, 1), (1, 2), (0, 2), (2, 3), (1, 3)] + [(i + 4, j + 4) for i, j in arcs(left)]
    )
    # vertex 7 has no out-arcs; every other vertex reaches it
    ring = [(v, (v + 1) % 7) for v in range(7)]
    family["sink"] = Graph(8, ring + [(2, 7), (5, 7)] + list(arcs(random_digraph(gen, 7, 0.2))))
    family["n1"] = Graph(1)
    family["n2"] = Graph(2, [(0, 1)])
    return family


DIFFERENTIAL = differential_family()


@CHUNK_BYTES
@pytest.mark.parametrize("name", list(DIFFERENTIAL))
def test_path_sweep_matches_oracles(monkeypatch, budget, name):
    nx = pytest.importorskip("networkx")
    monkeypatch.setattr(metrics, "_CHUNK_BYTES", budget)
    g = DIFFERENTIAL[name]
    count = metrics.path_sweep(g, "count")
    assert count.betweenness.tolist() == betweenness_count_brandes(g)
    G = nx.DiGraph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(arcs(g))
    rows = dict(nx.all_pairs_shortest_path_length(G))
    rows = [[d for d in rows[s].values() if d > 0] for s in range(g.n)]
    lengths = [d for row in rows for d in row]
    assert count.closeness.tolist() == [len(row) / sum(row) if row else 0.0 for row in rows]
    assert count.farness.tolist() == [sum(row) / g.n for row in rows]
    assert count.diameter == max(lengths, default=0)
    assert count.avg_path_length == (sum(lengths) / len(lengths) if lengths else 0.0)
    fractional = metrics.path_sweep(g, "fractional").betweenness
    oracle = betweenness_fractional_oracle(g)
    assert all(abs(x - float(y)) < 1e-12 for x, y in zip(fractional, oracle, strict=True))


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
    default = NetworkProfile(g).to_json_dict()
    for budget in (1, 10**12):
        monkeypatch.setattr(metrics, "_CHUNK_BYTES", budget)
        assert NetworkProfile(g).to_json_dict() == default


# one source per chunk runs n levels per source, so its cycle is shorter
@pytest.mark.parametrize(
    "budget, n", [(1, 200), (metrics._CHUNK_BYTES, 600)], ids=["one_source", "default"]
)
def test_directed_cycle_matches_closed_forms(monkeypatch, sweep_chunks, budget, n):
    monkeypatch.setattr(metrics, "_CHUNK_BYTES", budget)
    g = Graph(n, [(v, (v + 1) % n) for v in range(n)])
    prof = NetworkProfile(g)
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
    # the default budget holds 174 sources of the 600-cycle, in 4 chunks a sweep
    sizes = [1] * n if budget == 1 else [174] * 3 + [78]
    assert sweep_chunks == sizes + sizes


# one source per chunk runs n - 1 - s levels from source s, so its path is shorter
@pytest.mark.parametrize(
    "budget, n", [(1, 200), (metrics._CHUNK_BYTES, 1000)], ids=["one_source", "default"]
)
def test_directed_path_matches_closed_forms(monkeypatch, budget, n):
    monkeypatch.setattr(metrics, "_CHUNK_BYTES", budget)
    g = Graph(n, [(v, v + 1) for v in range(n - 1)])
    prof = NetworkProfile(g)
    # vertex i is interior to the one path s -> t exactly when s < i < t
    assert prof.betweenness.tolist() == [i * (n - 1 - i) for i in range(n)]
    assert prof.diameter == n - 1
    # sum over d of d * (n - d) ordered pairs at distance d, over n(n - 1)/2 pairs
    assert prof.avg_path_length == (n + 1) / 3
    # vertex i reaches the k = n - 1 - i vertices after it, at hops 1..k
    ahead = [n - 1 - i for i in range(n)]
    assert prof.closeness.tolist() == [2 / (k + 1) if k else 0.0 for k in ahead]
    assert prof.closeness_farness.tolist() == [k * (k + 1) / 2 / n for k in ahead]


# each measure with the name of its test case
MEASURES = {
    "betweenness_centrality": betweenness_centrality,
    "closeness_centrality": lambda g: NetworkProfile(g).closeness,
    "diameter": lambda g: NetworkProfile(g).diameter,
}
# each graph with the sizes of its chunks under the default budget
BUDGET_GRAPHS = {
    "er": (gen_erdos_renyi(800, 0.01, seed=3), [55] * 14 + [30]),
    "cycle": (Graph(600, [(v, (v + 1) % 600) for v in range(600)]), [174] * 3 + [78]),
}


@pytest.mark.parametrize(
    "name, measure",
    [("er", measure) for measure in MEASURES.values()]
    + [("cycle", measure) for measure in MEASURES.values()],
    ids=list(MEASURES) + [f"cycle-{name}" for name in MEASURES],
)
def test_sweep_memory_stays_near_the_chunk_budget(sweep_chunks, name, measure):
    g, sizes = BUDGET_GRAPHS[name]
    g.csr  # built once per graph, outside the sweep
    tracemalloc.start()
    try:
        measure(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the traced peak measured 0.80-0.82 of the budget on ER seeds 1-5 and
    # 0.86 on the 600-cycle, whose levels hold one arc a source each; so 15%
    # slack
    assert sweep_chunks == sizes
    assert peak < 1.15 * metrics._CHUNK_BYTES


def test_sweep_chunks_hold_one_source_past_the_budget_and_none_when_empty(
    monkeypatch, sweep_chunks
):
    g = gen_barabasi_albert(40, 2, seed=4)
    default = NetworkProfile(g).to_json_dict()
    sweep_chunks.clear()
    # one source needs 32 * n + 8 * m bytes, one more than this budget
    monkeypatch.setattr(metrics, "_CHUNK_BYTES", 32 * g.n + 8 * g.arc_count - 1)
    assert NetworkProfile(g).to_json_dict() == default
    assert sweep_chunks == [1] * g.n
    sweep_chunks.clear()
    NetworkProfile(Graph(0)).diameter  # its values: test_path_metrics_edge_cases
    assert sweep_chunks == []


def log_pair_blocks(monkeypatch) -> list[int]:
    """Log of the number of oriented-neighbour pairs in each block that
    ``transitivity`` lists, in order."""
    blocks = []
    count_members = metrics._count_members

    def logging(codes, queries):
        blocks.append(len(queries))
        return count_members(codes, queries)

    monkeypatch.setattr(metrics, "_count_members", logging)
    return blocks


def test_transitivity_memory_stays_near_the_budget(monkeypatch):
    # the complete graph on 200 vertices has 1.3M oriented-neighbour pairs,
    # a 76 MB traced peak when listed at once; in blocks the peak measured
    # 1.50 budgets, the blocks plus the arrays over its 39,800 arcs
    g = complete(200)
    tracemalloc.start()
    try:
        value = NetworkProfile(g).transitivity
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == 1.0
    assert peak < 1.75 * metrics._CHUNK_BYTES
    # a graph of the profile workload's size runs in one block
    blocks = log_pair_blocks(monkeypatch)
    NetworkProfile(BUDGET_GRAPHS["er"][0]).transitivity
    assert len(blocks) == 1 and blocks[0] > 20_000


@pytest.mark.parametrize(
    "g",
    [
        gen_erdos_renyi(60, 0.1, seed=5),
        gen_barabasi_albert(60, 3, seed=6),
        gen_dorogovtsev_goltsev_mendes(5),
        complete(12),
    ],
    ids=["er", "ba", "dgm", "complete"],
)
def test_transitivity_blocks_split_mid_graph(monkeypatch, g):
    # budgets of a few pairs cut the sources into many blocks; every pair is
    # still listed once, and the result is that of one block, and
    # networkx's
    nx = pytest.importorskip("networkx")
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(arcs(g))
    blocks = log_pair_blocks(monkeypatch)
    results = {}
    for pairs in (10**12, 1, 2, 5, 50):
        monkeypatch.setattr(metrics, "_CHUNK_BYTES", pairs * metrics._PAIR_BYTES)
        blocks.clear()
        results[pairs] = NetworkProfile(g).transitivity, sum(blocks), len(blocks)
    value, listed, count = results.pop(10**12)
    assert count == 1
    assert value == pytest.approx(nx.transitivity(G))
    for pairs, (split, split_listed, split_count) in results.items():
        assert (split, split_listed) == (value, listed), pairs
        assert split_count > 1, pairs


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
