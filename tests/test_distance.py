import json
import math
import re
import warnings

import numpy as np
import pytest

from priorityrank.distance import (
    AggregateDistance,
    CentralityDistance,
    CosineDistance,
    DistanceContext,
    Euclidean1D,
    Euclidean2D,
    FeatureEncoder,
    HierarchicalMixDistance,
    NaiveBayesDistance,
    RandomDistance,
    TrainingSet,
    build_training_set,
    fit_linear_regression_distance,
    fit_naive_bayes_distance,
    make_age_sex_distance,
    make_hierarchical_mix_distance,
    spec_from_json_dict,
)
from priorityrank.generate import gen_barabasi_albert
from priorityrank.graph import AttributeColumn, AttributeTable, Graph
from priorityrank.metrics import CENTRALITY_KINDS, network_profile
from priorityrank.recreate import generate_synthetic_attributes
from priorityrank.stats import RngStream

from _oracles import random_digraph


def people_table():
    return AttributeTable(
        [
            AttributeColumn("age", "continuous", (30, 40, 25, 20, 35)),
            AttributeColumn("sex", "categorical", ("female", "male", "male", "female", "female")),
        ]
    )


ALICE, BOB, CECIL, DIANE, EVE = range(5)


def test_age_sex_distance_reproduces_social_example():
    spec = make_age_sex_distance()
    ctx = DistanceContext(attrs=people_table())
    assert spec.evaluate(ctx, ALICE, EVE) == 5.0
    assert spec.evaluate(ctx, ALICE, BOB) == 20.0
    for other in (ALICE, BOB, DIANE):
        assert spec.evaluate(ctx, CECIL, other) == 15.0
    assert spec.evaluate(ctx, BOB, EVE) == 15.0


def test_age_sex_distance_identical_rows():
    table = AttributeTable(
        [
            AttributeColumn("age", "continuous", (30, 30)),
            AttributeColumn("sex", "categorical", ("x", "x")),
        ]
    )
    spec = make_age_sex_distance()
    assert spec.evaluate(DistanceContext(attrs=table), 0, 1) == 0.0


def test_missing_column_raises():
    table = AttributeTable([AttributeColumn("height", "continuous", (1.0, 2.0))])
    with pytest.raises(ValueError, match="no attribute named"):
        make_age_sex_distance().evaluate(DistanceContext(attrs=table), 0, 1)


def test_degree_distance_value():
    ctx = DistanceContext(n=3, centralities={"degree": np.array([0.0, 4.0, 1.0])})
    spec = CentralityDistance(centrality="degree")
    assert spec.evaluate(ctx, 0, 1) == pytest.approx(1.0 / (4.0 + 1e-6))


def test_centrality_distance_source_independent():
    gen = np.random.default_rng(2)
    g = random_digraph(gen, 12, 0.3)
    for kind in ("degree", "betweenness", "closeness", "pagerank"):
        ctx = DistanceContext(reference=g)
        spec = CentralityDistance(centrality=kind)
        for j in range(1, 12):
            vals = {spec.evaluate(ctx, i, j) for i in range(12) if i != j}
            assert len(vals) == 1


def test_context_sweeps_its_reference_once(bfs_calls):
    g = gen_barabasi_albert(60, 2, seed=5)
    ctx = DistanceContext(reference=g)
    ctx.centrality("betweenness")
    ctx.centrality("closeness")
    assert sorted(bfs_calls) == list(range(g.n))
    expected = network_profile(g).centralities()
    for kind in CENTRALITY_KINDS:
        assert np.array_equal(ctx.centrality(kind), expected[kind])


def test_context_rejects_unknown_kind_and_missing_reference(bfs_calls):
    with pytest.raises(ValueError, match="unknown centrality kind 'eigen'"):
        DistanceContext(reference=gen_barabasi_albert(10, 2, seed=1)).centrality("eigen")
    with pytest.raises(ValueError, match="needs a reference graph or precomputed centralities"):
        DistanceContext(n=10).centrality("degree")
    assert bfs_calls == []


def test_degree_distance_orders_by_descending_degree():
    gen = np.random.default_rng(8)
    g = random_digraph(gen, 15, 0.3)
    ctx = DistanceContext(reference=g)
    row = CentralityDistance(centrality="degree").row(ctx, 0)
    deg = g.total_degrees
    order = np.argsort(row, kind="stable")
    deg_sorted = deg[order]
    assert all(deg_sorted[k] >= deg_sorted[k + 1] for k in range(len(deg_sorted) - 1))


def test_random_distance_memoized_and_deterministic():
    # every pair reads the all-tied distance 0.0, in any context
    ctx = DistanceContext(n=6)
    spec = RandomDistance()
    first = spec.evaluate(ctx, 0, 3)
    assert spec.evaluate(ctx, 0, 3) == first
    assert spec.evaluate(DistanceContext(n=6), 0, 3) == first == 0.0
    assert not spec.rows(ctx, np.arange(6)).any()


def test_euclidean_kinds():
    table = AttributeTable(
        [
            AttributeColumn("x", "continuous", (0.0, 3.0, 1.0)),
            AttributeColumn("y", "continuous", (0.0, 4.0, 1.0)),
            AttributeColumn("lab", "categorical", ("a", "b", "a")),
        ]
    )
    ctx = DistanceContext(attrs=table)
    assert Euclidean1D(attr="x").evaluate(ctx, 0, 1) == 3.0
    assert Euclidean2D(attr1="x", attr2="y").evaluate(ctx, 0, 1) == 5.0
    with pytest.raises(ValueError, match="categorical"):
        Euclidean1D(attr="lab").evaluate(ctx, 0, 1)


def test_cosine_distance_of_opposite_vectors():
    table = AttributeTable(
        [
            AttributeColumn("x", "continuous", (1.0, 0.5, -1.0)),
            AttributeColumn("y", "continuous", (0.0, 0.5, 0.0)),
        ]
    )
    spec = CosineDistance(attrs=("x", "y"))
    assert spec.evaluate(DistanceContext(attrs=table), 0, 2) == pytest.approx(2.0)


def test_cosine_distance_and_zero_norm():
    # a zero-norm vertex fails every pair, as it fails rows and a generation pass
    table = AttributeTable(
        [
            AttributeColumn("x", "continuous", (1.0, 0.0, -1.0)),
            AttributeColumn("y", "continuous", (0.0, 0.0, 0.0)),
        ]
    )
    ctx = DistanceContext(attrs=table)
    spec = CosineDistance(attrs=("x", "y"))
    for i, j in ((0, 2), (0, 1), (2, 0)):
        with pytest.raises(ValueError, match="vertex 1 has a zero-norm"):
            spec.evaluate(ctx, i, j)


def test_aggregate_mixed_kinds():
    spec = AggregateDistance(weights=(("age", 2.0), ("sex", 5.0)))
    ctx = DistanceContext(attrs=people_table())
    # 2*|30-40| + 5*mismatch
    assert spec.evaluate(ctx, ALICE, BOB) == 25.0
    with pytest.raises(ValueError, match="non-negative"):
        AggregateDistance(weights=(("age", -1.0),))


@pytest.mark.parametrize("weight", [np.nan, np.inf, -np.inf, -1.0])
def test_aggregate_weights_must_be_finite_and_non_negative(recwarn, weight):
    with pytest.raises(ValueError, match="weight of 'age' must be finite and non-negative"):
        AggregateDistance(weights=(("sex", 1.0), ("age", weight)))
    assert not recwarn.list


def test_hierarchical_mix():
    table = AttributeTable([AttributeColumn("x", "continuous", (0.0, 4.0, 8.0))])
    ctx = DistanceContext(attrs=table)
    pure_euclid = make_hierarchical_mix_distance(1.0, [0, 1, 2], ("x",))
    assert pure_euclid.evaluate(ctx, 0, 1) == 4.0
    same_class = make_hierarchical_mix_distance(0.0, [1, 1, 2], ())
    assert same_class.evaluate(ctx, 0, 1) == 0.0
    blend = make_hierarchical_mix_distance(0.5, [0, 1, 2], ("x",))
    assert blend.evaluate(ctx, 0, 2) == pytest.approx(0.5 * 8.0 + 0.5 * 2.0)
    with pytest.raises(ValueError, match="unmapped"):
        make_hierarchical_mix_distance(0.5, {0: 0, 2: 1}, ("x",))
    short = HierarchicalMixDistance(alpha=0.0, class_ranks=(0, 1), euclid_attrs=())
    with pytest.raises(ValueError, match="unmapped"):
        short.evaluate(ctx, 0, 1)


def numeric_table(values):
    return AttributeTable([AttributeColumn("x", "continuous", tuple(values))])


def test_training_set_counts():
    g = Graph(3, [(0, 1)])
    ts = build_training_set(g, numeric_table([1.0, 2.0, 3.0]), 1.0, RngStream(1))
    assert int(ts.labels.sum()) == 1
    assert int((ts.labels == 0).sum()) == 1
    assert ts.features.shape == (2, 2)


def test_training_set_ratio_and_full_enumeration():
    gen = np.random.default_rng(5)
    g = random_digraph(gen, 10, 0.3)
    attrs = numeric_table(gen.normal(size=10))
    pos = g.arc_count
    available = 10 * 9 - pos
    ts = build_training_set(g, attrs, 2.0, RngStream(2))
    assert int((ts.labels == 0).sum()) == min(2 * pos, available)
    ts_all = build_training_set(g, attrs, math.inf, RngStream(3))
    assert int((ts_all.labels == 0).sum()) == available


def test_training_set_positive_rows_match_arcs():
    gen = np.random.default_rng(9)
    g = random_digraph(gen, 6, 0.4)
    vals = gen.normal(size=6)
    ts = build_training_set(g, numeric_table(vals), 1.0, RngStream(4))
    by_value = {round(float(v), 9): i for i, v in enumerate(vals)}
    for row, label in zip(ts.features, ts.labels):
        i = by_value[round(float(row[0]), 9)]
        j = by_value[round(float(row[1]), 9)]
        assert ((i, j) in g.arcs) == bool(label)


def list_training_set(g, attrs, negative_ratio, rng):
    """Training set built from an explicit list of every non-arc."""
    positives = sorted(g.arcs)
    non_arcs = [(i, j) for i in range(g.n) for j in range(g.n) if i != j and (i, j) not in g.arcs]
    wanted = len(non_arcs)
    if math.isfinite(negative_ratio):
        wanted = min(math.ceil(negative_ratio * len(positives)), wanted)
    negatives = non_arcs
    if wanted < len(non_arcs):
        picked = rng.generator.choice(len(non_arcs), size=wanted, replace=False)
        negatives = [non_arcs[k] for k in sorted(picked)]
    phi = FeatureEncoder.from_table(attrs).encode(attrs)
    pairs = positives + negatives
    feats = np.hstack([phi[[i for i, _ in pairs]], phi[[j for _, j in pairs]]])
    labels = np.array([1.0] * len(positives) + [0.0] * len(negatives))
    return feats, labels


@pytest.mark.parametrize("negative_ratio", [1.0, 2.5, math.inf])
def test_training_set_matches_list_construction(negative_ratio):
    gen = np.random.default_rng(17)
    for n, p in ((4, 0.5), (7, 0.2), (12, 0.3), (15, 0.1)):
        g = random_digraph(gen, n, p)
        if not g.arcs:
            continue
        attrs = AttributeTable(
            [
                AttributeColumn("x", "continuous", tuple(gen.normal(size=n))),
                AttributeColumn("c", "categorical", tuple(f"c{k}" for k in gen.integers(0, 3, size=n))),
            ]
        )
        for seed in range(3):
            ts = build_training_set(g, attrs, negative_ratio, RngStream(seed))
            feats, labels = list_training_set(g, attrs, negative_ratio, RngStream(seed))
            assert np.array_equal(ts.features, feats)
            assert np.array_equal(ts.labels, labels)


def test_training_set_errors():
    for ratio in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="negative_ratio must be > 0"):
            build_training_set(Graph(3, [(0, 1)]), numeric_table([1, 2, 3]), ratio, RngStream(0))
    with pytest.raises(ValueError, match="no arcs"):
        build_training_set(Graph(3, []), numeric_table([1, 2, 3]), 1.0, RngStream(0))
    complete = Graph(3, [(i, j) for i in range(3) for j in range(3) if i != j])
    with pytest.raises(ValueError, match="complete"):
        build_training_set(complete, numeric_table([1, 2, 3]), 1.0, RngStream(0))


def test_ols_satisfies_normal_equations_and_pinv_oracle():
    gen = np.random.default_rng(12)
    for _ in range(20):
        n = int(gen.integers(6, 12))
        g = random_digraph(gen, n, 0.4)
        if not g.arcs or g.arc_count == n * (n - 1):
            continue
        attrs = numeric_table(gen.normal(size=n))
        ts = build_training_set(g, attrs, 1.0, RngStream(int(gen.integers(1 << 30))))
        spec = fit_linear_regression_distance(ts)
        X = np.hstack([ts.features, np.ones((ts.features.shape[0], 1))])
        y = 1.0 - ts.labels
        beta = np.array(spec.beta)
        residual = X.T @ (X @ beta - y)
        assert np.max(np.abs(residual)) < 1e-8
        if np.linalg.matrix_rank(X) == X.shape[1]:
            oracle = np.linalg.pinv(X) @ y
            assert np.max(np.abs(beta - oracle)) < 1e-8


def ols_design(ts):
    X = np.hstack([ts.features, np.ones((ts.features.shape[0], 1))])
    return X, 1.0 - ts.labels


def random_training_set(gen, m, p, scale=1.0):
    labels = np.zeros(m)
    labels[: m // 3] = 1.0
    encoder = FeatureEncoder.from_table(numeric_table([0.0, 1.0]))
    return TrainingSet(features=gen.normal(size=(m, p)) * scale, labels=labels, encoder=encoder)


@pytest.mark.parametrize("m, p", [(5, 3), (40, 6), (400, 16), (2000, 30)])
def test_ols_full_rank_matches_lstsq(m, p):
    gen = np.random.default_rng(m * 31 + p)
    for _ in range(3):
        ts = random_training_set(gen, m, p)
        X, y = ols_design(ts)
        oracle, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
        assert rank == X.shape[1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # full rank: no rank-deficient warning
            beta = np.array(fit_linear_regression_distance(ts).beta)
        assert np.max(np.abs(beta - oracle)) < 1e-9


def test_ols_one_hot_design_is_rank_15_of_17_like_lstsq():
    # the re-creation pipeline's design: each pair side's 5-label one-hot
    # sums to the intercept column, so two directions are null
    n = 150
    g = gen_barabasi_albert(n, 3, seed=4)
    attrs = generate_synthetic_attributes(n, 8)
    ts = build_training_set(g, attrs, 1.0, RngStream(2))
    X, y = ols_design(ts)
    assert X.shape[1] == 17
    _, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    assert rank == 15
    with pytest.warns(UserWarning, match=r"rank 15 of 17\)"):
        spec = fit_linear_regression_distance(ts)
    assert np.max(np.abs(np.array(spec.beta) - np.linalg.pinv(X) @ y)) < 1e-9


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_ols_extreme_feature_scales_match_scaled_lstsq(scale):
    # at 1e200 the Gram matrix of the unscaled design would overflow; at
    # 1e-200 the features fall below the rank cutoff, as they do for lstsq
    gen = np.random.default_rng(41)
    ts = random_training_set(gen, 300, 4, scale)
    X, y = ols_design(ts)
    oracle, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        beta = np.array(fit_linear_regression_distance(ts).beta)
    assert np.isfinite(beta).all()
    expected = [] if rank == 5 else [
        f"design matrix is rank-deficient (rank {rank} of 5); using the minimum-norm solution"
    ]
    assert [str(w.message) for w in caught] == expected
    # compare in units of the unscaled features
    units = np.append(np.full(4, scale), 1.0)
    assert np.max(np.abs(beta * units - oracle * units)) < 1e-9


def test_ols_gives_linalg_no_operand_with_more_than_k_rows(monkeypatch):
    # m-row operands are what wake BLAS worker threads; only k x k ones may pass
    gen = np.random.default_rng(3)
    ts = random_training_set(gen, 500, 8)
    k = ts.features.shape[1] + 1
    calls = []

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            rows = [np.shape(a)[0] for a in (*args, *kwargs.values()) if np.ndim(a) >= 1]
            calls.append(name)
            assert all(r <= k for r in rows), f"np.linalg.{name} got an operand with {max(rows)} rows"
            return fn(*args, **kwargs)

        return wrapped

    for name in dir(np.linalg):
        fn = getattr(np.linalg, name)
        if callable(fn) and not name.startswith("_") and not isinstance(fn, type):
            monkeypatch.setattr(np.linalg, name, spy(name, fn))
    fit_linear_regression_distance(ts)
    assert calls  # the spy did see the solve


def test_ols_constant_features_give_constant_distance():
    g = Graph(3, [(0, 1), (1, 2)])
    attrs = numeric_table([2.0, 2.0, 2.0])
    with pytest.warns(UserWarning, match="rank-deficient"):
        spec = fit_linear_regression_distance(
            build_training_set(g, attrs, math.inf, RngStream(5))
        )
    ctx = DistanceContext(attrs=attrs)
    ts = build_training_set(g, attrs, math.inf, RngStream(5))
    mean_y = float((1.0 - ts.labels).mean())
    values = {spec.evaluate(ctx, i, j) for i in range(3) for j in range(3) if i != j}
    assert all(abs(v - mean_y) < 1e-9 for v in values)


def test_ols_orders_cluster_before_outliers():
    # tight cluster pairwise within 1 (all arcs) plus spread-out singletons:
    # per source, every in-threshold target must rank ahead of the rest
    values = [0.0, 0.2, 0.4, 0.6, 3.0, 5.0, 7.0]
    n = len(values)
    arcs = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j and abs(values[i] - values[j]) < 1.0
    ]
    g = Graph(n, arcs)
    attrs = numeric_table(values)
    ts = build_training_set(g, attrs, math.inf, RngStream(6))
    spec = fit_linear_regression_distance(ts)
    ctx = DistanceContext(attrs=attrs)
    for i in range(n):
        inside = [j for j in range(n) if j != i and (i, j) in g.arcs]
        outside = [j for j in range(n) if j != i and (i, j) not in g.arcs]
        for a in inside:
            for b in outside:
                assert spec.evaluate(ctx, i, a) < spec.evaluate(ctx, i, b)


def test_naive_bayes_gaussian_likelihood_oracle():
    encoder = FeatureEncoder(columns=(("x", "continuous", ()),))
    spec = NaiveBayesDistance(
        prior_edge=0.5,
        prior_no_edge=0.5,
        means=((10.0, 10.0), (0.0, 0.0)),
        variances=((1.0, 1.0), (1.0, 1.0)),
        bernoulli=((0.5, 0.5), (0.5, 0.5)),
        binary_mask=(False, False),
        encoder=encoder,
    )
    table = numeric_table([0.0, 0.0, 10.0, 10.0])
    ctx = DistanceContext(attrs=table)

    def oracle(wi, wj):
        def loglik(mu):
            return sum(
                -0.5 * (math.log(2 * math.pi) + (w - mu) ** 2) for w in (wi, wj)
            )

        se, sn = loglik(10.0), loglik(0.0)
        top = max(se, sn)
        pe = math.exp(se - top)
        pn = math.exp(sn - top)
        pe, pn = pe / (pe + pn), pn / (pe + pn)
        return pn / (pe + 1e-6)

    at_zero = spec.evaluate(ctx, 0, 1)
    at_ten = spec.evaluate(ctx, 2, 3)
    assert at_zero == pytest.approx(oracle(0.0, 0.0), rel=1e-9)
    assert at_ten == pytest.approx(oracle(10.0, 10.0), rel=1e-9)
    assert at_zero > 1e5  # vertices that look like non-edges
    assert at_ten < 1e-6  # vertices that look like edges


def test_naive_bayes_fit_separates_cluster_from_background():
    # one tight cluster carrying all the arcs, background vertices scattered:
    # fitted distances into/out of the cluster beat every background pair
    values = [0.0, 0.1, 0.2, 0.3, 6.0, 9.0, 12.0]
    n = len(values)
    cluster = range(4)
    arcs = [(i, j) for i in cluster for j in cluster if i != j]
    g = Graph(n, arcs)
    attrs = numeric_table(values)
    ts = build_training_set(g, attrs, math.inf, RngStream(7))
    spec = fit_naive_bayes_distance(ts)
    ctx = DistanceContext(attrs=attrs)
    intra = [spec.evaluate(ctx, i, j) for i in cluster for j in cluster if i != j]
    cross = [spec.evaluate(ctx, i, j) for i in cluster for j in range(4, n)]
    assert max(intra) < min(cross)


def test_naive_bayes_uninformative_features_give_prior_ratio():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    attrs = numeric_table([5.0, 5.0, 5.0, 5.0])
    ts = build_training_set(g, attrs, math.inf, RngStream(8))
    spec = fit_naive_bayes_distance(ts)
    ctx = DistanceContext(attrs=attrs)
    p_edge = float(ts.labels.mean())
    expected = (1 - p_edge) / (p_edge + spec.eps)
    for i, j in ((0, 1), (0, 3), (2, 0)):
        assert spec.evaluate(ctx, i, j) == pytest.approx(expected, rel=1e-6)


def test_every_kind_stays_finite_nonnegative():
    gen = np.random.default_rng(99)
    n = 120
    g = random_digraph(gen, n, 0.2)
    table = AttributeTable(
        [
            AttributeColumn("x", "continuous", tuple(gen.normal(size=n))),
            AttributeColumn("y", "continuous", tuple(gen.exponential(size=n) + 0.1)),
            AttributeColumn("lab", "categorical", tuple("ab"[int(v)] for v in gen.integers(0, 2, n))),
        ]
    )
    ts = build_training_set(g, table, 1.0, RngStream(10))
    specs = [
        RandomDistance(),
        CentralityDistance(centrality="degree"),
        CentralityDistance(centrality="betweenness"),
        CentralityDistance(centrality="closeness"),
        CentralityDistance(centrality="pagerank"),
        Euclidean1D(attr="x"),
        Euclidean2D(attr1="x", attr2="y"),
        CosineDistance(attrs=("x", "y")),
        AggregateDistance(weights=(("x", 1.0), ("lab", 2.0))),
        make_hierarchical_mix_distance(0.5, list(range(n)), ("x",)),
        fit_linear_regression_distance(ts),
        fit_naive_bayes_distance(ts),
    ]
    ctx = DistanceContext(n=n, attrs=table, reference=g)
    for spec in specs:
        rows = np.vstack([spec.row(ctx, i) for i in range(n)])
        off_diag = rows[~np.eye(n, dtype=bool)]
        assert np.isfinite(off_diag).all(), spec.kind
        assert (off_diag >= 0).all(), spec.kind


def test_row_matches_pairwise_evaluate():
    gen = np.random.default_rng(55)
    n = 10
    g = random_digraph(gen, n, 0.4)
    table = numeric_table(gen.normal(size=n))
    ts = build_training_set(g, table, 1.0, RngStream(12))
    ctx = DistanceContext(n=n, attrs=table, reference=g)
    for spec in (
        CentralityDistance(centrality="pagerank"),
        Euclidean1D(attr="x"),
        fit_linear_regression_distance(ts),
        fit_naive_bayes_distance(ts),
        RandomDistance(),
    ):
        for i in (0, 3):
            row = spec.row(ctx, i)
            for j in range(n):
                if j != i:
                    assert spec.evaluate(ctx, i, j) == pytest.approx(float(row[j]))


def catalog(n, gen):
    """One context and every catalog kind, over mixed attributes."""
    g = random_digraph(gen, n, 0.2)
    table = AttributeTable(
        [
            AttributeColumn("x", "continuous", tuple(gen.normal(size=n))),
            AttributeColumn("y", "continuous", tuple(gen.exponential(size=n) + 0.1)),
            AttributeColumn("lab", "categorical", tuple("abc"[int(v)] for v in gen.integers(0, 3, n))),
        ]
    )
    ts = build_training_set(g, table, 1.0, RngStream(16))
    classes = gen.integers(0, 4, n).tolist()
    specs = [
        RandomDistance(),
        *(CentralityDistance(centrality=c) for c in ("degree", "betweenness", "closeness", "pagerank")),
        Euclidean1D(attr="x"),
        Euclidean2D(attr1="x", attr2="y"),
        CosineDistance(attrs=("x", "y")),
        AggregateDistance(weights=(("x", 1.0), ("lab", 2.0), ("y", 0.5))),
        make_hierarchical_mix_distance(0.0, classes),
        make_hierarchical_mix_distance(0.5, classes, ("x", "y")),
        fit_linear_regression_distance(ts),
        fit_naive_bayes_distance(ts),
    ]
    return DistanceContext(n=n, attrs=table, reference=g), specs


@pytest.mark.filterwarnings("ignore:design matrix is rank-deficient")
def test_rows_match_row_bitwise():
    # a block of sources, unsorted and repeated, gives each source's row
    # bit for bit, whatever else is in the block
    n = 50
    ctx, specs = catalog(n, np.random.default_rng(31))
    sources = np.array([7, 3, 49, 3, 0, 7, 21])
    for spec in specs:
        block = spec.rows(ctx, sources)
        assert block.shape == (len(sources), n), spec.kind
        expected = np.stack([spec.row(ctx, int(i)) for i in sources])
        assert block.tobytes() == expected.tobytes(), spec.kind
        assert spec.rows(ctx, np.array([], dtype=np.int64)).shape == (0, n), spec.kind


def test_evaluate_rejects_diagonal():
    with pytest.raises(ValueError, match="i != j"):
        RandomDistance().evaluate(DistanceContext(n=3), 1, 1)
    # every kind checks the vertex range, cosine included
    n = 3
    ctx = DistanceContext(attrs=numeric_table([1.0, 2.0, 3.0]))
    for i, j in ((-1, 0), (0, n + 4)):
        with pytest.raises(ValueError, match=rf"vertex pair \({i}, {j}\) outside context n=3"):
            CosineDistance().evaluate(ctx, i, j)


def test_spec_json_round_trip():
    gen = np.random.default_rng(21)
    n = 8
    g = random_digraph(gen, n, 0.5)
    table = AttributeTable(
        [
            AttributeColumn("x", "continuous", tuple(gen.normal(size=n))),
            AttributeColumn("lab", "categorical", tuple("xy"[int(v)] for v in gen.integers(0, 2, n))),
        ]
    )
    ts = build_training_set(g, table, 1.0, RngStream(14))
    specs = [
        RandomDistance(),
        *(CentralityDistance(centrality=c, eps=1e-5) for c in ("degree", "betweenness", "closeness", "pagerank")),
        Euclidean1D(attr="x"),
        Euclidean2D(attr1="x", attr2="x"),
        CosineDistance(attrs=("x",)),
        CosineDistance(),
        AggregateDistance(weights=(("x", 1.5), ("lab", 2.0))),
        make_hierarchical_mix_distance(0.25, list(range(n)), ("x",)),
        make_hierarchical_mix_distance(0.0, list(range(n))),
        fit_linear_regression_distance(ts),
        fit_naive_bayes_distance(ts),
    ]
    ctx = DistanceContext(n=n, attrs=table, reference=g)
    assert RandomDistance().to_json_dict() == {"kind": "random"}
    for spec in specs:
        doc = json.loads(json.dumps(spec.to_json_dict()))
        clone = spec_from_json_dict(doc)
        assert clone == spec and hash(clone) == hash(spec), spec.kind
        for i in (0, 2):
            for j in (1, n - 1):
                if i != j:
                    assert clone.evaluate(ctx, i, j) == pytest.approx(
                        spec.evaluate(ctx, i, j), rel=1e-12
                    )
    # an empty attribute list stays empty; it does not read as every column
    empty = CosineDistance(attrs=())
    clone = spec_from_json_dict(json.loads(json.dumps(empty.to_json_dict())))
    assert clone == empty
    with pytest.raises(ValueError, match="at least one numeric attribute"):
        clone.evaluate(ctx, 0, 1)
    # the learned kinds keep their key order, so `learn` output is unchanged
    assert list(specs[-1].to_json_dict()) == [
        "kind", "prior_edge", "prior_no_edge", "means", "variances", "bernoulli",
        "binary_mask", "eps", "encoder",
    ]
    assert list(specs[-2].to_json_dict()) == ["kind", "beta", "encoder"]


def test_spec_null_or_missing_fields_take_defaults():
    assert spec_from_json_dict({"kind": "cosine", "attrs": None}) == CosineDistance()
    assert spec_from_json_dict({"kind": "degree", "eps": None}) == CentralityDistance(centrality="degree")
    assert spec_from_json_dict({"kind": "random"}) == RandomDistance()
    assert spec_from_json_dict({"kind": "pagerank"}) == CentralityDistance(centrality="pagerank")
    doc = {"kind": "hierarchical_mix", "alpha": 0.0, "class_ranks": [0, 1], "euclid_attrs": None}
    assert spec_from_json_dict(doc) == HierarchicalMixDistance(alpha=0.0, class_ranks=(0, 1))


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"kind": "euclidean2d", "attr1": "x"}, "euclidean2d spec needs field 'attr2'"),
        ({"kind": "hierarchical_mix", "alpha": 0.5, "class_ranks": None}, "needs field 'class_ranks'"),
        ([1, 2], "must be a JSON object, got list"),
        ("degree", "must be a JSON object, got str"),
        ({"kind": "nope"}, "unknown distance kind 'nope'"),
        ({"kind": ["degree"]}, "unknown distance kind"),
        ({}, "unknown distance kind None"),
        ({"kind": "degree", "eps": "x"}, "degree spec field 'eps' must be a number"),
        ({"kind": "degree", "eps": True}, "degree spec field 'eps' must be a number"),
        ({"kind": "euclidean1d", "attr": 3}, "euclidean1d spec field 'attr' must be a string"),
        ({"kind": "cosine", "attrs": "xy"}, "cosine spec field 'attrs' must be a list"),
        ({"kind": "linear_regression", "beta": [1.0], "encoder": 5}, "field 'encoder' must be a list"),
        ({"kind": "linear_regression", "beta": [1.0], "encoder": [5]}, "bad linear_regression spec"),
        ({"kind": "aggregate", "weights": [["x", "1"]]}, "bad aggregate spec"),
        ({"kind": "degree", "eps": 0}, "eps must be positive"),
        ({"kind": "degree", "esp": 0.5}, "degree spec has no field 'esp'"),
        ({"kind": "random", "mu": 0.0, "sigma": 1.0}, "random spec has no field 'mu'"),
        ({"kind": "pagerank", "centrality": "degree"}, "pagerank spec has no field 'centrality'"),
    ],
    ids=[
        "missing_field", "null_required_field", "array", "string", "unknown_kind", "list_kind",
        "no_kind", "string_number", "bool_number", "number_string", "string_list", "number_encoder",
        "bad_encoder_column", "string_weight", "post_init_check", "unknown_field",
        "random_mu_sigma", "implied_centrality",
    ],
)
def test_malformed_spec_raises_value_error(doc, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        spec_from_json_dict(doc)
