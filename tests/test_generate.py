import hashlib
import json
import math
import re
import warnings
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2

from priorityrank import generate
from priorityrank.distance import (
    AggregateDistance,
    CentralityDistance,
    CosineDistance,
    DistanceContext,
    Euclidean1D,
    Euclidean2D,
    RandomDistance,
    build_training_set,
    fit_linear_regression_distance,
    fit_naive_bayes_distance,
)
from priorityrank.generate import (
    DegreeSpec,
    gen_barabasi_albert,
    gen_disassortative,
    gen_dorogovtsev_goltsev_mendes,
    gen_erdos_renyi,
    gen_forest_fire,
    gen_watts_strogatz,
    priority_rank_generate,
)
from priorityrank.graph import AttributeColumn, AttributeTable, Graph, save_edge_list, symmetrize
from priorityrank.metrics import CENTRALITY_KINDS, NetworkProfile
from priorityrank.ranking import sample_shared
from priorityrank.stats import RngStream, ks_two_sample

from _oracles import (
    adjacency,
    arcs,
    lexsort_ranking,
    priority_rank_oracle,
    rank_space_oracle,
    sequential_draw_law,
    shared_vector_law,
)


def attr_table(values):
    return AttributeTable([AttributeColumn("x", "continuous", tuple(float(v) for v in values))])


def uniform_attr(n, seed):
    return attr_table(RngStream(seed).generator.uniform(0, 1, n))


def mixed_attr(n, seed):
    gen = RngStream(seed).generator
    return AttributeTable(
        [
            AttributeColumn("x", "continuous", tuple(gen.lognormal(size=n))),
            AttributeColumn("y", "continuous", tuple(gen.exponential(size=n))),
            AttributeColumn("lab", "categorical", tuple(f"c{v}" for v in gen.integers(0, 5, n))),
        ]
    )


def fitted(kind, n):
    """A learned distance of ``kind`` fitted on an ER graph, its attributes
    and the graph."""
    attrs = mixed_attr(n, 4)
    g = gen_erdos_renyi(n, 5 / n, seed=9)
    ts = build_training_set(g, attrs, 1.0, RngStream(6))
    fit = {"linear_regression": fit_linear_regression_distance, "naive_bayes": fit_naive_bayes_distance}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the one-hot columns make the design rank-deficient
        return fit[kind](ts), attrs, g


def learned_case(n):
    """A naive-Bayes distance fitted on an ER graph, with its out-degrees."""
    spec, attrs, g = fitted("naive_bayes", n)
    return attrs, spec, DegreeSpec.resample(g.out_degrees), None


def test_priority_rank_two_vertices():
    g = priority_rank_generate(DistanceContext(2), RandomDistance(), DegreeSpec.constant(1), seed=0)
    assert arcs(g) == {(0, 1), (1, 0)}


def test_priority_rank_exhaustive_k():
    n = 7
    g = priority_rank_generate(DistanceContext(n), RandomDistance(), DegreeSpec.constant(n - 1), seed=1)
    assert g.arc_count == n * (n - 1)


def test_priority_rank_exact_out_degrees_no_self_loops():
    for k in (1, 3, 6):
        g = priority_rank_generate(
            DistanceContext(attrs=uniform_attr(20, 3)), Euclidean1D(attr="x"), DegreeSpec.constant(k), seed=5
        )
        assert g.out_degrees.tolist() == [k] * 20
        assert all(i != j for i, j in arcs(g))


def test_priority_rank_deterministic():
    attrs = uniform_attr(30, 7)
    runs = [
        priority_rank_generate(DistanceContext(attrs=attrs), Euclidean1D(attr="x"), DegreeSpec.constant(4), seed=11)
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


def test_priority_rank_centrality_kind_reference_and_bootstrap():
    src = gen_erdos_renyi(25, 0.3, seed=2)
    profile = NetworkProfile(src)
    cents = {kind: profile[kind] for kind in CENTRALITY_KINDS}
    spec = CentralityDistance(centrality="degree")
    a = priority_rank_generate(DistanceContext(25, centralities=cents), spec, DegreeSpec.constant(3), seed=4)
    b = priority_rank_generate(DistanceContext(25, centralities=profile), spec, DegreeSpec.constant(3), seed=4)
    assert a == b  # precomputed centralities change nothing
    scratch = priority_rank_generate(DistanceContext(25), spec, DegreeSpec.constant(3), seed=4)
    assert scratch.out_degrees.tolist() == [3] * 25


def test_degree_kind_reads_its_reference_without_a_sweep_or_pagerank(bfs_calls, profile_calls):
    # the context's reference profile is lazy: the degree kind reads the
    # degrees alone, never the path sweep or pagerank of the reference
    src = gen_barabasi_albert(200, 3, seed=2)
    spec = CentralityDistance(centrality="degree")
    profile = NetworkProfile(src)
    g = priority_rank_generate(DistanceContext(200, centralities=profile), spec, DegreeSpec.constant(4), seed=3)
    assert bfs_calls == []
    assert profile_calls["pagerank_centrality"] == []
    cents = {"degree": src.total_degrees.astype(np.float64)}
    assert g == priority_rank_generate(DistanceContext(200, centralities=cents), spec, DegreeSpec.constant(4), seed=3)


@pytest.mark.parametrize("length", [5, 20])
@pytest.mark.parametrize("k", [3, 8])
def test_pass_rejects_a_centrality_vector_of_another_shape(length, k):
    spec = CentralityDistance(centrality="degree")
    ctx = DistanceContext(10, centralities={"degree": np.ones(length)})
    with pytest.raises(ValueError, match=rf"^degree centrality has shape \({length},\), context n=10$"):
        priority_rank_generate(ctx, spec, DegreeSpec.constant(k), 1)
    with pytest.raises(ValueError, match=r"^pagerank centrality has shape \(10, 1\), context n=10$"):
        DistanceContext(n=10, centralities={"pagerank": np.ones((10, 1))}).centrality("pagerank")


def test_degree_spec_resample_clamps_with_warning():
    spec = DegreeSpec.resample([9, 9, 9, 9])
    with pytest.warns(UserWarning, match="clamped"):
        ks = spec.draws(4, RngStream(0))
    assert (ks <= 3).all()
    with pytest.raises(ValueError):
        DegreeSpec.constant(0)
    with pytest.raises(ValueError):
        DegreeSpec.resample([])
    # a whole float is a count; any other float is refused, never truncated
    assert DegreeSpec.constant(4.0) == DegreeSpec.constant(4)
    assert DegreeSpec.resample([1.0, 2]) == DegreeSpec.resample([1, 2])
    with pytest.raises(ValueError, match=r"^constant out-degree must be a whole number, got 2.7$"):
        DegreeSpec.constant(2.7)
    with pytest.raises(ValueError, match=r"^out-degree must be a whole number, got 1.5$"):
        DegreeSpec.resample([1.5, 2])
    with pytest.raises(ValueError, match=r"^constant out-degree 5 exceeds n-1 = 3$"):
        DegreeSpec.constant(5).draws(4, RngStream(0))


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"k": 0}, "constant out-degree must be >= 1, got 0"),
        ({"k": -3}, "constant out-degree must be >= 1, got -3"),
        ({"k": 2.5}, "constant out-degree must be a whole number, got 2.5"),
        ({"histogram": (-2, 3)}, "out-degree sequence must be non-negative"),
        ({"k": None}, "degree spec needs exactly one of k and histogram"),
        ({"histogram": None}, "degree spec needs exactly one of k and histogram"),
        ({"k": 3, "histogram": (1, 2)}, "degree spec needs exactly one of k and histogram"),
        ({"k": 5, "histogram": np.array([1, 2])}, "degree spec needs exactly one of k and histogram"),
    ],
    ids=[
        "k-zero", "k-negative", "k-fractional", "negative-histogram",
        "constant-without-k", "resample-without-histogram", "constant-with-histogram", "resample-with-k",
    ],
)
def test_degree_spec_constructor_makes_the_factory_checks(fields, message):
    # the constructor is the one check path: a bad spec never reaches a pass
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        DegreeSpec(**fields)


def test_degree_spec_is_its_one_field():
    assert DegreeSpec(k=3) == DegreeSpec.constant(3)
    assert DegreeSpec(histogram=(1, 2)) == DegreeSpec.resample([1, 2])


def test_degree_spec_resample_reads_an_integer_array_as_its_ints():
    ints = [0, 3, 1, 3, 2]
    for dtype in (np.int64, np.int32, np.uint8):
        spec = DegreeSpec.resample(np.array(ints, dtype=dtype))
        assert spec == DegreeSpec.resample(ints)
        assert all(type(d) is int for d in spec.histogram)
    for bad, message in (
        (1.5, "out-degree must be a whole number, got 1.5"),
        (-1, "out-degree sequence must be non-negative"),
        (math.nan, "out-degree must be a whole number, got nan"),
    ):
        for degrees in ([2, bad], np.array([2, bad])):
            with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
                DegreeSpec.resample(degrees)


def test_priority_rank_resampled_degrees_follow_source():
    src = gen_erdos_renyi(40, 0.2, seed=9)
    degrees = DegreeSpec.resample(src.out_degrees)
    ctx = DistanceContext(40, centralities=NetworkProfile(src))
    g = priority_rank_generate(ctx, RandomDistance(), degrees, seed=10)
    assert 0 < g.arc_count < 40 * 39
    # generated out-degrees stay inside the source support
    assert set(g.out_degrees.tolist()) <= set(src.out_degrees.tolist())


def test_all_zero_out_degrees_give_an_empty_graph():
    # no source draws: a per-source kind evaluates no row and a shared kind
    # draws from no source
    degrees = DegreeSpec.resample([0, 0])
    for ctx, spec in (
        (DistanceContext(attrs=uniform_attr(12, 1)), Euclidean1D(attr="x")),
        (DistanceContext(12), RandomDistance()),
    ):
        g = priority_rank_generate(ctx, spec, degrees, seed=3)
        assert (g.n, g.arc_count) == (12, 0)


def test_erdos_renyi_extremes_and_count():
    assert gen_erdos_renyi(10, 0.0, seed=1).arc_count == 0
    assert gen_erdos_renyi(10, 1.0, seed=1).arc_count == 90
    counts = [gen_erdos_renyi(50, 0.4, seed=s).arc_count for s in range(30)]
    expected = 50 * 49 * 0.4
    spread = 3 * math.sqrt(expected * 0.6)
    assert abs(float(np.mean(counts)) - expected) < spread


def test_erdos_renyi_past_the_cell_budget_fails_before_allocating():
    with pytest.raises(ValueError, match=r"draws need 1,000,000,000,000 cells, over the budget of 134,217,728"):
        gen_erdos_renyi(10**6, 0.1, seed=1)


def test_erdos_renyi_names_a_negative_vertex_count():
    with pytest.raises(ValueError, match=r"^vertex count must be non-negative, got -3$"):
        gen_erdos_renyi(-3, 0.5, seed=1)


@pytest.mark.parametrize(
    "make, args, message",
    [
        (gen_erdos_renyi, (10, 1.5, 1), "edge probability must be in [0, 1], got 1.5"),
        (gen_watts_strogatz, (10, 0, 0.1, 1), "k_neighbors must be >= 1, got 0"),
        (gen_watts_strogatz, (6, 3, 0.1, 1), "need n > 2 * k_neighbors, got n=6, k=3"),
        (gen_watts_strogatz, (10, 2, -0.1, 1), "rewiring probability must be in [0, 1], got -0.1"),
        (gen_barabasi_albert, (3, 3, 3, 1), "need n > n0, got n=3, n0=3"),
        (gen_forest_fire, (10, 1.0, 1, 1), "burn probability must be in [0, 1), got 1.0"),
        (gen_forest_fire, (10, 0.3, 0, 1), "need at least one ambassador, got 0"),
        (gen_dorogovtsev_goltsev_mendes, (-1,), "steps must be >= 0, got -1"),
        (gen_disassortative, (100, 0.1, 5, 1), "stop threshold must be negative, got 0.1"),
        (gen_disassortative, (9, -0.4, 5, 1), "need n >= 10, got 9"),
        (gen_disassortative, (100, math.nan, 5, 1), "stop threshold must be negative, got nan"),
        (gen_disassortative, (100, -0.4, 0, 1), "max_rounds must be >= 1, got 0"),
        (gen_disassortative, (100, -0.4, -3, 1), "max_rounds must be >= 1, got -3"),
        (gen_disassortative, (100, -0.4, 2.5, 1), "max_rounds must be a whole number, got 2.5"),
    ],
    ids=[
        "er_p", "ws_k", "ws_n", "ws_p", "ba_n", "ff_p", "ff_ambassadors", "dgm_steps", "dis_threshold", "dis_n",
        "dis_nan_threshold", "dis_zero_rounds", "dis_negative_rounds", "dis_fractional_rounds",
    ],
)
def test_baseline_generators_reject_bad_parameters(make, args, message):
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        make(*args)


def test_watts_strogatz_lattice():
    g = gen_watts_strogatz(50, 3, 0.0, seed=1)
    assert g.arc_count == 150
    assert set(g.out_degrees.tolist()) == {3}
    # circulant diameter: ceil(floor(n/2) / k) hops around the ring
    assert NetworkProfile(symmetrize(g)).diameter == 9


def test_watts_strogatz_rewiring_breaks_regularity():
    variances = []
    for s in range(20):
        g = gen_watts_strogatz(50, 3, 1.0, seed=s)
        assert g.arc_count == 150  # rewiring moves heads, never the count
        variances.append(float(np.var(g.total_degrees)))
    assert min(variances) > 0.0


def test_barabasi_albert_counts_and_minimal_growth():
    g = gen_barabasi_albert(50, 3, 3, seed=2)
    assert g.arc_count == 6 + 2 * 3 * 47
    g2 = gen_barabasi_albert(4, 3, 3, seed=3)
    assert {(3, t) for t in range(3)} <= arcs(g2)
    with pytest.raises(ValueError):
        gen_barabasi_albert(5, 3, 2, seed=0)


def centrality_graph(kind, via, seed):
    """A priority-rank graph of a centrality kind, or of the random kind,
    that reads a BA reference or bootstraps; at n = 120 the resampled
    degrees 40 and 80 lie over the rejection limit and draw keyed rows."""
    n = 120
    spec = RandomDistance() if kind == "random" else CentralityDistance(centrality=kind)
    degrees = DegreeSpec.resample([1, 2, 4, 6, 10, 40, 80])
    centralities = NetworkProfile(gen_barabasi_albert(n, 3, seed=5)) if via == "reference" else None
    return priority_rank_generate(DistanceContext(n, centralities=centralities), spec, degrees, seed)


def exhausted_disassortative(n, seed):
    with pytest.warns(UserWarning, match="did not fall below -0.9 within 3 rounds"):
        return gen_disassortative(n, -0.9, 3, seed)


GOLDEN_BASELINES = Path(__file__).parent / "data" / "baseline_generate_sha256.json"
BASELINE_CASES = {
    # n = 2k + 1 is the tightest lattice the model accepts
    **{f"ws-{n}-{k}-{p}-{s}": (gen_watts_strogatz, (n, k, p, s))
       for n, k in ((60, 3), (7, 3), (200, 5)) for p in (0.3, 1.0) for s in (1, 2)},
    **{f"ba-{n}-{k}-{n0}-{s}": (gen_barabasi_albert, (n, k, n0, s))
       for n, k, n0 in ((80, 3, None), (50, 2, 5), (4, 3, 3), (120, 1, 1)) for s in (1, 2)},
    **{f"cent-{kind}-{via}-{s}": (centrality_graph, (kind, via, s))
       for kind in ("degree", "betweenness", "closeness", "pagerank", "random")
       for via in ("reference", "bootstrap") for s in (1, 2)},
    # 2 to 19 rounds before the threshold is met
    **{f"dis-{n}--0.4-200-{s}": (gen_disassortative, (n, -0.4, 200, s)) for n in (10, 60, 300) for s in (1, 2)},
    **{f"dis-100--0.9-3-{s}": (exhausted_disassortative, (100, s)) for s in (1, 2)},
}


@pytest.mark.parametrize("case", sorted(BASELINE_CASES))
def test_baseline_generators_match_golden_hashes(case):
    # sha256 of seeded Watts-Strogatz, Barabasi-Albert, disassortative and
    # centrality-kind priority-rank graphs
    make, args = BASELINE_CASES[case]
    digest = hashlib.sha256(save_edge_list(make(*args)).encode()).hexdigest()
    assert digest == json.loads(GOLDEN_BASELINES.read_text())[case]


def test_barabasi_albert_degree_self_consistency():
    pvals = []
    for s in range(20):
        a = gen_barabasi_albert(50, 3, None, seed=2 * s)
        b = gen_barabasi_albert(50, 3, None, seed=2 * s + 1)
        pvals.append(ks_two_sample(a.total_degrees, b.total_degrees).p_value)
    assert float(np.median(pvals)) > 0.05


def test_forest_fire_no_burning_is_tree():
    g = gen_forest_fire(50, 0.0, 1, seed=3)
    assert g.arc_count == 49


def test_forest_fire_burn_range():
    counts = [gen_forest_fire(50, 0.3, 1, seed=s).arc_count for s in range(100)]
    assert min(counts) >= 49
    assert max(counts) <= 300
    assert abs(float(np.mean(counts)) - 93) <= 93 * 0.5


def test_forest_fire_simple_graph():
    for s in range(10):
        g = gen_forest_fire(40, 0.45, 2, seed=s)
        assert all(i != j for i, j in arcs(g))  # set semantics + loop guard


def test_dgm_counts():
    expected_v = [2, 3, 6, 15, 42, 123]
    expected_e = [1, 3, 9, 27, 81, 243]
    for steps in range(6):
        g = gen_dorogovtsev_goltsev_mendes(steps)
        assert g.n == expected_v[steps]
        assert g.arc_count == 2 * expected_e[steps]
    # checked before the graph is built
    with pytest.raises(ValueError, match=r"^14 steps would create 2391486 vertices, over the 2000000 budget$"):
        gen_dorogovtsev_goltsev_mendes(14)


def test_disassortative_reaches_threshold():
    g = gen_disassortative(100, -0.4, 200, seed=0)
    assert NetworkProfile(symmetrize(g)).assortativity < -0.4
    assert g.arc_count >= 300  # 10 hubs x >=30 draws, minus collisions, plus the rest
    assert NetworkProfile(g).assortativity < 0  # directed view stays disassortative
    assert abs(g.arc_count / (100 * 99) - 0.05) <= 0.025  # density band


def test_disassortative_warns_when_unreachable():
    with pytest.warns(UserWarning, match="did not fall"):
        gen_disassortative(100, -0.99, 3, seed=1)


def test_pass_matches_the_oracle_in_mean_transitivity():
    # whole graphs on criterion 4's inputs (n = 100, k = 4, Euclidean-1D on
    # uniform attributes from seeds 4000 + s): the pass and the one vertex at
    # a time oracle of the 1/rank law agree in mean transitivity within 3
    # combined standard errors.  The pass read about 0.3 of them apart; a
    # sampler that draws by 1/rank^1.1 reads about 13 apart
    n, seeds = 100, 150
    spec = Euclidean1D(attr="x")
    fast, oracle = [], []
    for s in range(seeds):
        ctx = DistanceContext(attrs=uniform_attr(n, 4000 + s))
        g = priority_rank_generate(ctx, spec, DegreeSpec.constant(4), seed=4100 + s)
        fast.append(NetworkProfile(g).transitivity)
        u = RngStream(4100 + s).child(9).generator.random((n, n))
        drawn = sorted(priority_rank_oracle(spec, ctx, np.full(n, 4), u))
        oracle.append(NetworkProfile(Graph(n, drawn)).transitivity)
    gap = abs(float(np.mean(fast)) - float(np.mean(oracle)))
    se = math.sqrt((np.var(fast, ddof=1) + np.var(oracle, ddof=1)) / seeds)
    assert gap <= 3 * se, (np.mean(fast), np.mean(oracle), se)


def test_locality_raises_path_length():
    ls_local, ls_random = [], []
    for s in range(20):
        attrs = uniform_attr(100, 500 + s)
        local = priority_rank_generate(
            DistanceContext(attrs=attrs), Euclidean1D(attr="x"), DegreeSpec.constant(4), seed=600 + s
        )
        rand = priority_rank_generate(DistanceContext(100), RandomDistance(), DegreeSpec.constant(4), seed=700 + s)
        ls_local.append(NetworkProfile(local).avg_path_length)
        ls_random.append(NetworkProfile(rand).avg_path_length)
    assert float(np.median(ls_local)) > float(np.median(ls_random))


def test_generated_target_sets_follow_sequential_law():
    # chi-square, over seeds, of each source's drawn target set against the
    # exact law of drawing one target at a time without replacement; the
    # distances have ties
    x = [0, 1, 1, 2, 3, 3, 5]
    n, k, trials = len(x), 3, 4000
    attrs = attr_table(x)
    spec = Euclidean1D(attr="x")
    ctx = DistanceContext(attrs=attrs)
    laws, counts = [], []
    for i in range(n):
        ranking = lexsort_ranking(spec.rows(ctx, np.array([i]))[0], i)
        law: dict[frozenset, float] = {}
        for seq, p in sequential_draw_law(ranking.ranks, k).items():
            key = frozenset(int(ranking.targets[pos]) for pos in seq)
            law[key] = law.get(key, 0.0) + float(p)
        laws.append(law)
        counts.append(dict.fromkeys(law, 0))
    for seed in range(trials):
        g = priority_rank_generate(ctx, spec, DegreeSpec.constant(k), seed=seed)
        out_adj, _ = adjacency(g)
        for i in range(n):
            counts[i][frozenset(out_adj[i])] += 1
    stat = dof = 0.0
    for law, got in zip(laws, counts):
        expected = np.array([trials * law[s] for s in law])
        observed = np.array([got[s] for s in law])
        assert expected.min() >= 5
        stat += float(((observed - expected) ** 2 / expected).sum())
        dof += len(law) - 1
    assert chi2.sf(stat, dof) > 1e-3


CASES = {
    "random": lambda n: (None, RandomDistance(), DegreeSpec.constant(5), None),
    "euclidean": lambda n: (
        uniform_attr(n, 3),
        Euclidean1D(attr="x"),
        DegreeSpec.resample([1, 3, 7, 16]),
        None,
    ),
    "tied_euclidean": lambda n: (
        attr_table(RngStream(3).generator.integers(0, 4, n)),
        Euclidean1D(attr="x"),
        DegreeSpec.constant(7),
        None,
    ),
    "degree_resampled": lambda n: (
        None,
        CentralityDistance(centrality="degree"),
        DegreeSpec.resample([0, 0, 1, 2, 7, n + 5]),
        NetworkProfile(gen_erdos_renyi(n, 0.1, seed=8)),
    ),
    "naive_bayes": learned_case,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_priority_rank_independent_of_block_size(monkeypatch, case):
    n = 40
    attrs, spec, degrees, centralities = CASES[case](n)
    graphs = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # resampled degrees get clamped
        for cells in (1, generate._BLOCK_CELLS, 10**12):
            monkeypatch.setattr(generate, "_BLOCK_CELLS", cells)
            graphs.append(
                priority_rank_generate(DistanceContext(n, attrs, centralities), spec, degrees, seed=13)
            )
    assert graphs[0].arc_count > 0
    assert graphs[0] == graphs[1] == graphs[2]


@pytest.mark.parametrize("case", ["euclidean", "naive_bayes", "tied_euclidean"])
def test_priority_rank_matches_per_vertex_oracle(case):
    # tie-free rows under the rejection limit take their slots from
    # child(2)'s shared-kernel positions; the others draw keys from child(3).
    # Euclidean and naive Bayes rows are tie-free (sorted by packed keys),
    # and their resampled out-degrees cross the limit; every tied Euclidean
    # row draws keys.  The random and degree kinds draw through the
    # shared-vector kernel, and the law tests below check them.
    n, seed = 60, 21
    attrs, spec, degrees, centralities = CASES[case](n)
    ctx = DistanceContext(n=n, attrs=attrs, centralities=centralities)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g = priority_rank_generate(ctx, spec, degrees, seed)
        stream = RngStream(seed).child(0)
        ks = degrees.draws(n, stream.child(0))
    fast = (ks > 0) & (4 * ks <= n - 1)
    gen = stream.child(2).generator
    positions = sample_shared(np.arange(n), np.full(fast.sum(), n - 1), ks[fast], gen)
    assert arcs(g) == rank_space_oracle(spec, ctx, ks, positions, stream.child(3).generator)


@pytest.mark.parametrize("kind", ["linear_regression", "naive_bayes"])
def test_proof_never_changes_draws(monkeypatch, kind):
    # a proven source maps its slots through the order, an unproven one
    # sorts its row: proving every source, none or every other one gives
    # the same graph.  At n = 60 the rejection limit is k = 14
    n = 60
    spec, attrs, _ = fitted(kind, n)
    degrees = DegreeSpec.resample([1, 2, 5, 14, 15, 30])
    assert spec.shared_order(DistanceContext(attrs=attrs))[1].all()
    shared_order = type(spec).shared_order
    graphs = []
    for keep in (np.ones(n, dtype=bool), np.zeros(n, dtype=bool), np.arange(n) % 2 == 0):
        def partial(self, ctx, keep=keep):
            order, proven = shared_order(self, ctx)
            return order, proven & keep

        monkeypatch.setattr(type(spec), "shared_order", partial)
        graphs.append(priority_rank_generate(DistanceContext(attrs=attrs), spec, degrees, seed=17))
    assert graphs[0].arc_count > 0
    assert graphs[0] == graphs[1] == graphs[2]


GOLDEN_LEARNED = Path(__file__).parent / "data" / "learned_generate_sha256.json"


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("kind", ["linear_regression", "naive_bayes"])
def test_learned_generation_matches_golden_hashes(kind, seed):
    # sha256 of seeded learned-kind graphs; at n = 300 the rejection limit
    # is k = 74, so the resampled degrees 80 and 150 draw keyed rows
    n = 300
    spec, attrs, _ = fitted(kind, n)
    degrees = DegreeSpec.resample([1, 2, 4, 6, 10, 80, 150])
    g = priority_rank_generate(DistanceContext(attrs=attrs), spec, degrees, seed=seed)
    assert (g.out_degrees > (n - 1) // 4).any()
    digest = hashlib.sha256(save_edge_list(g).encode()).hexdigest()
    assert digest == json.loads(GOLDEN_LEARNED.read_text())[f"{kind}-{seed}"]


GOLDEN_ROWS = Path(__file__).parent / "data" / "row_generate_sha256.json"
ROW_SPECS = {
    # a categorical first term, and weights other than 1.0
    "aggregate": AggregateDistance(weights=(("lab", 2.5), ("x", 1.0), ("y", 1e-3))),
    "euclidean2d": Euclidean2D(attr1="x", attr2="y"),
    "cosine": CosineDistance(),
}


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("kind", sorted(ROW_SPECS))
def test_row_generation_matches_golden_hashes(kind, seed):
    # sha256 of seeded graphs of kinds whose rows are evaluated and sorted
    # by packed keys; the resampled degrees 80 and 150 lie over the
    # rejection limit of n = 300 and draw keyed rows
    n = 300
    degrees = DegreeSpec.resample([1, 2, 4, 6, 10, 80, 150])
    g = priority_rank_generate(DistanceContext(attrs=mixed_attr(n, 4)), ROW_SPECS[kind], degrees, seed=seed)
    assert (g.out_degrees > (n - 1) // 4).any()
    digest = hashlib.sha256(save_edge_list(g).encode()).hexdigest()
    assert digest == json.loads(GOLDEN_ROWS.read_text())[f"{kind}-{seed}"]


def test_pass_builds_constant_rng_streams(rng_streams):
    # one stream of uniforms per pass, not one generator per vertex; the
    # random kind evaluates no rows
    for spec, attrs in ((Euclidean1D(attr="x"), uniform_attr), (RandomDistance(), lambda n, s: None)):
        built = []
        for n in (20, 200):
            table = attrs(n, 1)
            rng_streams.clear()
            priority_rank_generate(DistanceContext(n, table), spec, DegreeSpec.constant(3), seed=2)
            built.append(len(rng_streams))
        assert built == [1, 1], spec.kind


def test_proven_and_shared_kinds_sort_no_rows(monkeypatch, ranked_rows):
    # at n=2000, the naive-Bayes order's proof covers every source, so a
    # pass evaluates and sorts no row; an aggregate pass sorts every row by
    # packed keys, which prove every row tie-free, so it gathers and
    # argsorts none; neither draws a row by keys; the degree and random
    # kinds draw from their shared distances and sort no rows
    n = 2000
    attrs = mixed_attr(n, 7)
    reference = gen_erdos_renyi(n, 5 / n, seed=3)
    learned = fit_naive_bayes_distance(build_training_set(reference, attrs, 1.0, RngStream(8)))
    aggregate = AggregateDistance(weights=(("x", 1.0), ("y", 1.0), ("lab", 1.0)))
    evaluated = []
    rows = type(learned).rows

    def counted(self, ctx, sources):
        evaluated.append(len(sources))
        return rows(self, ctx, sources)

    monkeypatch.setattr(type(learned), "rows", counted)
    for spec, ref, path in (
        (CentralityDistance(centrality="degree"), NetworkProfile(reference), None),
        (learned, None, None),
        (RandomDistance(), None, None),
        (aggregate, None, "packed"),
    ):
        ranked_rows.update(packed=0, gathered=0, sorted=0, keyed=0)
        g = priority_rank_generate(DistanceContext(n, attrs, ref), spec, DegreeSpec.constant(10), seed=5)
        assert g.out_degrees.tolist() == [10] * n
        expected = {"packed": 0, "gathered": 0, "sorted": 0, "keyed": 0}
        if path:
            expected[path] = n
        assert ranked_rows == expected, spec.kind
    assert evaluated == []


def tally_target_sets(ctx, spec, degrees, trials):
    """{(source, k): [frozenset of targets, one per seed]} over ``trials``
    single passes that read ``ctx``."""
    drawn: dict[tuple[int, int], list[frozenset]] = {}
    for seed in range(trials):
        out_adj, _ = adjacency(priority_rank_generate(ctx, spec, degrees, seed=seed))
        for i, targets in enumerate(out_adj):
            drawn.setdefault((i, len(targets)), []).append(frozenset(targets))
    return drawn


def combined_pvalue(laws, drawn):
    """Chi-square p-value of every (source, k) tally against its set law,
    summed over the tallies.  In each tally the sets expected fewer than 5
    times are pooled into one cell, with the next least likely sets while
    that cell expects fewer than 5 draws."""
    stat = dof = 0.0
    for key, draws in drawn.items():
        law = laws(*key)
        expected = len(draws) * np.array([float(p) for p in law.values()])
        observed = np.array([sum(d == s for d in draws) for s in law])
        order = np.argsort(expected, kind="stable")
        expected, observed = expected[order], observed[order]
        pooled = max(int(np.searchsorted(np.cumsum(expected), 5.0)) + 1, int((expected < 5).sum()))
        expected = np.r_[expected[:pooled].sum(), expected[pooled:]]
        observed = np.r_[observed[:pooled].sum(), observed[pooled:]]
        assert len(expected) > 1 and expected.min() >= 5, key
        stat += float(((observed - expected) ** 2 / expected).sum())
        dof += len(expected) - 1
    return chi2.sf(stat, dof)


def test_shared_kind_pass_follows_exact_law():
    # centrality scores with ties; out-degree 1 lies under the rejection
    # limit of n = 7 and n - 2 = 5 above it, so both kernels of a pass run
    n = 7
    scores = np.array([3.0, 1.0, 1.0, 0.0, 1.0, 5.0, 2.0])
    spec = CentralityDistance(centrality="degree")
    ctx = DistanceContext(n=n, centralities={"degree": scores})
    distances = spec.shared_distances(ctx)
    drawn = tally_target_sets(ctx, spec, DegreeSpec.resample([1, n - 2]), 1000)
    assert {k for _, k in drawn} == {1, n - 2}

    def laws(source, k):
        law: dict[frozenset, float] = {}
        for seq, p in shared_vector_law(distances, source, k).items():
            law[frozenset(seq)] = law.get(frozenset(seq), 0.0) + float(p)
        return law

    assert combined_pvalue(laws, drawn) > 1e-3


def test_random_kind_draws_uniform_k_subsets():
    # every k-subset of the other n - 1 vertices is equally likely, for k
    # under the rejection limit of n = 7 (1) and above it (2, 4)
    n = 7
    drawn = tally_target_sets(DistanceContext(n), RandomDistance(), DegreeSpec.resample([1, 2, 4]), 1000)
    assert {k for _, k in drawn} == {1, 2, 4}

    def laws(source, k):
        subsets = list(combinations(sorted(set(range(n)) - {source}), k))
        return {frozenset(s): 1 / len(subsets) for s in subsets}

    assert combined_pvalue(laws, drawn) > 1e-3


def set_law(distances, source, k):
    """{frozenset of targets: probability} of ``source``'s k-draw."""
    law: dict[frozenset, float] = {}
    for seq, p in shared_vector_law(distances, source, k).items():
        law[frozenset(seq)] = law.get(frozenset(seq), 0.0) + float(p)
    return law


def test_per_source_pass_follows_exact_law():
    # Euclidean distances on these values tie only in vertex 3's row
    # (|5 - 2| = |5 - 8|); out-degree 2 lies under the rejection limit of
    # n = 9 and 7 above it, so the rank-space, tied and over-limit paths all
    # run in one pass
    x = [1, 2, 4, 5, 8, 16, 32, 64, 128]
    n = len(x)
    attrs = attr_table(x)
    spec = Euclidean1D(attr="x")
    ctx = DistanceContext(attrs=attrs)
    tied = [
        i for i in range(n) if len(set(np.delete(spec.rows(ctx, np.array([i]))[0], i).tolist())) < n - 1
    ]
    assert tied == [3]
    drawn = tally_target_sets(ctx, spec, DegreeSpec.resample([2, 7]), 1500)
    assert {k for _, k in drawn} == {2, 7}

    def laws(i, k):
        return set_law(spec.rows(ctx, np.array([i]))[0], i, k)

    assert combined_pvalue(laws, drawn) > 1e-3
    # on its own too, or one row's shift hides among the 18 tallies
    assert combined_pvalue(laws, {key: d for key, d in drawn.items() if key[0] in tied}) > 1e-3


@pytest.mark.parametrize("bad, message", [(-1.0, "non-negative"), (np.nan, "finite"), (np.inf, "finite")])
@pytest.mark.parametrize("case", ["euclidean", "naive_bayes"])
def test_bad_distance_raises_on_every_path(monkeypatch, case, bad, message):
    # a bad entry in vertex 2's row fails the one distance check whether
    # the row is Euclidean or naive Bayes, and whether its k lies under the
    # rejection limit (rank space) or above it (keys); a bad entry in a
    # source's own slot is a placeholder, ignored.
    # Naive Bayes evaluates the rows of unproven sources only, so its
    # order proves none here
    n = 40
    attrs, spec, _, _ = CASES[case](n)
    rows = type(spec).rows
    if case == "naive_bayes":
        shared_order = type(spec).shared_order
        monkeypatch.setattr(
            type(spec), "shared_order", lambda self, ctx: (shared_order(self, ctx)[0], np.zeros(ctx.n, dtype=bool))
        )
    corrupt = {"own": False, "target": False}

    def bad_rows(self, ctx, sources):
        out = rows(self, ctx, sources).copy()
        if corrupt["own"]:
            out[np.arange(len(sources)), sources] = bad
        if corrupt["target"]:
            out[sources == 2, 5] = bad
        return out

    monkeypatch.setattr(type(spec), "rows", bad_rows)
    ctx = DistanceContext(n, attrs)
    for k in (2, 20):
        degrees = DegreeSpec.constant(k)
        clean = priority_rank_generate(ctx, spec, degrees, seed=3)
        corrupt["own"] = True
        assert priority_rank_generate(ctx, spec, degrees, seed=3) == clean
        corrupt["target"] = True
        with pytest.raises(ValueError, match=f"^distances must be {message}$"):
            priority_rank_generate(ctx, spec, degrees, seed=3)
        corrupt.update(own=False, target=False)
