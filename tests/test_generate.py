import math
import warnings

import numpy as np
import pytest
from scipy.stats import chi2

from priorityrank import generate
from priorityrank.distance import (
    AggregateDistance,
    CentralityDistance,
    DistanceContext,
    Euclidean1D,
    RandomDistance,
    build_training_set,
    fit_naive_bayes_distance,
    reference_centralities,
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
from priorityrank.graph import AttributeColumn, AttributeTable, out_degree_sequence, symmetrize
from priorityrank.metrics import assortativity, avg_path_length, degree_centrality, diameter
from priorityrank.ranking import build_local_ranking
from priorityrank.stats import RngStream, ks_two_sample

from _oracles import adjacency, priority_rank_oracle, sequential_draw_law


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


def learned_case(n):
    """A naive-Bayes distance fitted on an ER graph, with its out-degrees."""
    attrs = mixed_attr(n, 4)
    g = gen_erdos_renyi(n, 5 / n, seed=9)
    spec = fit_naive_bayes_distance(build_training_set(g, attrs, 1.0, RngStream(6)))
    return attrs, spec, DegreeSpec.resample(out_degree_sequence(g)), None


def test_priority_rank_two_vertices():
    g = priority_rank_generate(2, None, RandomDistance(), DegreeSpec.constant(1), seed=0)
    assert g.arcs == {(0, 1), (1, 0)}


def test_priority_rank_exhaustive_k():
    n = 7
    g = priority_rank_generate(n, None, RandomDistance(), DegreeSpec.constant(n - 1), seed=1)
    assert g.arc_count == n * (n - 1)


def test_priority_rank_exact_out_degrees_no_self_loops():
    for k in (1, 3, 6):
        g = priority_rank_generate(
            20, uniform_attr(20, 3), Euclidean1D(attr="x"), DegreeSpec.constant(k), seed=5
        )
        assert g.out_degrees.tolist() == [k] * 20
        assert all(i != j for i, j in g.arcs)


def test_priority_rank_deterministic():
    attrs = uniform_attr(30, 7)
    runs = [
        priority_rank_generate(30, attrs, Euclidean1D(attr="x"), DegreeSpec.constant(4), seed=11)
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


def test_priority_rank_centrality_kind_reference_and_bootstrap():
    src = gen_erdos_renyi(25, 0.3, seed=2)
    cents = reference_centralities(src)
    spec = CentralityDistance(centrality="degree")
    a = priority_rank_generate(
        25, None, spec, DegreeSpec.constant(3), seed=4, reference=src, centralities=cents
    )
    b = priority_rank_generate(
        25, None, spec, DegreeSpec.constant(3), seed=4, reference=src
    )
    assert a == b  # precomputed centralities change nothing
    scratch = priority_rank_generate(25, None, spec, DegreeSpec.constant(3), seed=4)
    assert scratch.out_degrees.tolist() == [3] * 25


def test_degree_spec_resample_clamps_with_warning():
    spec = DegreeSpec.resample([9, 9, 9, 9])
    with pytest.warns(UserWarning, match="clamped"):
        ks = spec.draws(4, RngStream(0))
    assert (ks <= 3).all()
    with pytest.raises(ValueError):
        DegreeSpec.constant(0)
    with pytest.raises(ValueError):
        DegreeSpec.resample([])


def test_priority_rank_resampled_degrees_follow_source():
    src = gen_erdos_renyi(40, 0.2, seed=9)
    degrees = DegreeSpec.resample(out_degree_sequence(src))
    g = priority_rank_generate(40, None, RandomDistance(), degrees, seed=10, reference=src)
    assert 0 < g.arc_count < 40 * 39
    # generated out-degrees stay inside the source support
    assert set(g.out_degrees.tolist()) <= set(out_degree_sequence(src).tolist())


def test_erdos_renyi_extremes_and_count():
    assert gen_erdos_renyi(10, 0.0, seed=1).arc_count == 0
    assert gen_erdos_renyi(10, 1.0, seed=1).arc_count == 90
    counts = [gen_erdos_renyi(50, 0.4, seed=s).arc_count for s in range(30)]
    expected = 50 * 49 * 0.4
    spread = 3 * math.sqrt(expected * 0.6)
    assert abs(float(np.mean(counts)) - expected) < spread


def test_watts_strogatz_lattice():
    g = gen_watts_strogatz(50, 3, 0.0, seed=1)
    assert g.arc_count == 150
    assert set(g.out_degrees.tolist()) == {3}
    # circulant diameter: ceil(floor(n/2) / k) hops around the ring
    assert diameter(symmetrize(g)) == 9


def test_watts_strogatz_rewiring_breaks_regularity():
    variances = []
    for s in range(20):
        g = gen_watts_strogatz(50, 3, 1.0, seed=s)
        assert g.arc_count == 150  # rewiring moves heads, never the count
        variances.append(float(np.var(degree_centrality(g, "total"))))
    assert min(variances) > 0.0


def test_barabasi_albert_counts_and_minimal_growth():
    g = gen_barabasi_albert(50, 3, 3, seed=2)
    assert g.arc_count == 6 + 2 * 3 * 47
    g2 = gen_barabasi_albert(4, 3, 3, seed=3)
    assert {(3, t) for t in range(3)} <= g2.arcs
    with pytest.raises(ValueError):
        gen_barabasi_albert(5, 3, 2, seed=0)


def test_barabasi_albert_degree_self_consistency():
    pvals = []
    for s in range(20):
        a = gen_barabasi_albert(50, 3, None, seed=2 * s)
        b = gen_barabasi_albert(50, 3, None, seed=2 * s + 1)
        pvals.append(
            ks_two_sample(
                degree_centrality(a, "total"), degree_centrality(b, "total")
            ).p_value
        )
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
        assert all(i != j for i, j in g.arcs)  # set semantics + loop guard


def test_dgm_counts():
    expected_v = [2, 3, 6, 15, 42, 123]
    expected_e = [1, 3, 9, 27, 81, 243]
    for steps in range(6):
        g = gen_dorogovtsev_goltsev_mendes(steps)
        assert g.n == expected_v[steps]
        assert g.arc_count == 2 * expected_e[steps]
    with pytest.raises(ValueError, match="budget"):
        gen_dorogovtsev_goltsev_mendes(20, max_vertices=10_000)


def test_disassortative_reaches_threshold():
    g = gen_disassortative(100, -0.4, 200, seed=0)
    assert assortativity(symmetrize(g)) < -0.4
    assert g.arc_count >= 300  # 10 hubs x >=30 draws, minus collisions, plus the rest
    assert assortativity(g) < 0  # directed view stays disassortative
    assert abs(g.arc_count / (100 * 99) - 0.05) <= 0.025  # density band


def test_disassortative_warns_when_unreachable():
    with pytest.warns(UserWarning, match="did not fall"):
        gen_disassortative(100, -0.99, 3, seed=1)


def test_locality_raises_path_length():
    ls_local, ls_random = [], []
    for s in range(20):
        attrs = uniform_attr(100, 500 + s)
        local = priority_rank_generate(
            100, attrs, Euclidean1D(attr="x"), DegreeSpec.constant(4), seed=600 + s
        )
        rand = priority_rank_generate(
            100, None, RandomDistance(), DegreeSpec.constant(4), seed=700 + s
        )
        ls_local.append(avg_path_length(local))
        ls_random.append(avg_path_length(rand))
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
        row = spec.row(ctx, i)
        ranking = build_local_ranking(i, (np.delete(np.arange(n), i), np.delete(row, i)))
        law: dict[frozenset, float] = {}
        for seq, p in sequential_draw_law(ranking.ranks, k).items():
            key = frozenset(int(ranking.targets[pos]) for pos in seq)
            law[key] = law.get(key, 0.0) + float(p)
        laws.append(law)
        counts.append(dict.fromkeys(law, 0))
    for seed in range(trials):
        g = priority_rank_generate(n, attrs, spec, DegreeSpec.constant(k), seed=seed)
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
        gen_erdos_renyi(n, 0.1, seed=8),
    ),
    "naive_bayes": learned_case,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_priority_rank_independent_of_block_size(monkeypatch, case):
    n = 40
    attrs, spec, degrees, reference = CASES[case](n)
    graphs = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # resampled degrees get clamped
        for cells in (1, generate._BLOCK_CELLS, 10**12):
            monkeypatch.setattr(generate, "_BLOCK_CELLS", cells)
            graphs.append(
                priority_rank_generate(n, attrs, spec, degrees, seed=13, reference=reference)
            )
    assert graphs[0].arc_count > 0
    assert graphs[0] == graphs[1] == graphs[2]


@pytest.mark.parametrize("case", sorted(CASES))
def test_priority_rank_matches_per_vertex_oracle(case):
    # the per-vertex oracle ranks ties with a stable lexsort; the pass sorts
    # with numpy's default sort, so tied entries may land in another order
    n, seed = 60, 21
    attrs, spec, degrees, reference = CASES[case](n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g = priority_rank_generate(n, attrs, spec, degrees, seed, reference=reference)
        stream = RngStream(seed).child(0)
        ks = degrees.draws(n, stream.child(0))
    ctx = DistanceContext(n=n, attrs=attrs, reference=reference, rng=stream.child(1))
    u = stream.child(2).generator.random((n, n))
    assert g.arcs == priority_rank_oracle(spec, ctx, ks, u)


def test_non_random_pass_builds_constant_rng_streams(rng_streams):
    # one stream of uniforms per pass, not one generator per vertex
    built = []
    for n in (20, 200):
        attrs = uniform_attr(n, 1)
        rng_streams.clear()
        priority_rank_generate(n, attrs, Euclidean1D(attr="x"), DegreeSpec.constant(3), seed=2)
        built.append(len(rng_streams))
    assert built == [1, 1]


def test_order_hint_ranks_exactly_the_shared_order_kinds(ranked_rows):
    # at n=2000, passes of the degree and naive-Bayes kinds rank every row
    # through their order hint, with no fallback; the random and aggregate
    # kinds offer no hint, so every row is argsorted
    n = 2000
    attrs = mixed_attr(n, 7)
    reference = gen_erdos_renyi(n, 5 / n, seed=3)
    learned = fit_naive_bayes_distance(build_training_set(reference, attrs, 1.0, RngStream(8)))
    aggregate = AggregateDistance(weights=(("x", 1.0), ("y", 1.0), ("lab", 1.0)))
    for spec, ref, path in (
        (CentralityDistance(centrality="degree"), reference, "hinted"),
        (learned, None, "hinted"),
        (RandomDistance(), None, "sorted"),
        (aggregate, None, "sorted"),
    ):
        ranked_rows.update(hinted=0, sorted=0)
        priority_rank_generate(n, attrs, spec, DegreeSpec.constant(10), seed=5, reference=ref)
        assert ranked_rows[path] == n and sum(ranked_rows.values()) == n, spec.kind
