import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from priorityrank import graph
from priorityrank.distance import (
    AggregateDistance,
    CentralityDistance,
    CosineDistance,
    DistanceContext,
    Euclidean1D,
    Euclidean2D,
    FeatureEncoder,
    HierarchicalMixDistance,
    LinearRegressionDistance,
    NaiveBayesDistance,
    RandomDistance,
    TrainingSet,
    build_training_set,
    fit_linear_regression_distance,
    fit_naive_bayes_distance,
    spec_from_json_dict,
)
from priorityrank.generate import DegreeSpec, gen_barabasi_albert, priority_rank_generate
from priorityrank.graph import AttributeColumn, AttributeTable, Graph
from priorityrank.metrics import CENTRALITY_KINDS, NetworkProfile
from priorityrank.recreate import generate_synthetic_attributes
from priorityrank.stats import RngStream

from _oracles import (
    aggregate_rows,
    arcs,
    cosine_rows_by_floats,
    euclidean_rows_by_floats,
    evaluate,
    linear_regression_terms_by_floats,
    naive_bayes_full_tables,
    naive_bayes_scores_by_two_likelihoods,
    one_hot_by_rows,
    random_digraph,
)


def people_table():
    return AttributeTable(
        [
            AttributeColumn("age", "continuous", (30, 40, 25, 20, 35)),
            AttributeColumn("sex", "categorical", ("female", "male", "male", "female", "female")),
        ]
    )


ALICE, BOB, CECIL, DIANE, EVE = range(5)

# |age_i - age_j| plus a 10-year penalty when the sex labels differ
AGE_SEX = AggregateDistance(weights=(("age", 1.0), ("sex", 10.0)))


def test_age_sex_distance_reproduces_social_example():
    spec = AGE_SEX
    ctx = DistanceContext(attrs=people_table())
    assert evaluate(spec, ctx, ALICE, EVE) == 5.0
    assert evaluate(spec, ctx, ALICE, BOB) == 20.0
    for other in (ALICE, BOB, DIANE):
        assert evaluate(spec, ctx, CECIL, other) == 15.0
    assert evaluate(spec, ctx, BOB, EVE) == 15.0


def test_age_sex_distance_identical_rows():
    table = AttributeTable(
        [
            AttributeColumn("age", "continuous", (30, 30)),
            AttributeColumn("sex", "categorical", ("x", "x")),
        ]
    )
    spec = AGE_SEX
    assert evaluate(spec, DistanceContext(attrs=table), 0, 1) == 0.0


def test_missing_column_raises():
    table = AttributeTable([AttributeColumn("height", "continuous", (1.0, 2.0))])
    with pytest.raises(ValueError, match="no attribute named"):
        evaluate(AGE_SEX, DistanceContext(attrs=table), 0, 1)


def test_degree_distance_value():
    ctx = DistanceContext(n=3, centralities={"degree": np.array([0.0, 4.0, 1.0])})
    spec = CentralityDistance(centrality="degree")
    assert evaluate(spec, ctx, 0, 1) == pytest.approx(1.0 / (4.0 + 1e-6))


def test_centrality_distance_source_independent():
    gen = np.random.default_rng(2)
    g = random_digraph(gen, 12, 0.3)
    for kind in ("degree", "betweenness", "closeness", "pagerank"):
        ctx = DistanceContext(n=g.n, centralities=NetworkProfile(g))
        spec = CentralityDistance(centrality=kind)
        for j in range(1, 12):
            vals = {evaluate(spec, ctx, i, j) for i in range(12) if i != j}
            assert len(vals) == 1


def test_context_sweeps_its_reference_once(bfs_calls):
    g = gen_barabasi_albert(60, 2, seed=5)
    ctx = DistanceContext(n=g.n, centralities=NetworkProfile(g))
    ctx.centrality("betweenness")
    ctx.centrality("closeness")
    assert sorted(bfs_calls) == list(range(g.n))
    expected = NetworkProfile(g)
    for kind in CENTRALITY_KINDS:
        assert np.array_equal(ctx.centrality(kind), expected[kind])


def test_context_rejects_unknown_kind_and_missing_reference(bfs_calls):
    with pytest.raises(ValueError, match="unknown centrality kind 'eigen'"):
        DistanceContext(n=10, centralities=NetworkProfile(gen_barabasi_albert(10, 2, seed=1))).centrality("eigen")
    with pytest.raises(ValueError, match="needs a reference graph or precomputed centralities"):
        DistanceContext(n=10).centrality("degree")
    assert bfs_calls == []


def test_degree_distance_orders_by_descending_degree():
    gen = np.random.default_rng(8)
    g = random_digraph(gen, 15, 0.3)
    ctx = DistanceContext(n=g.n, centralities=NetworkProfile(g))
    row = CentralityDistance(centrality="degree").rows(ctx, np.array([0]))[0]
    deg = g.total_degrees
    order = np.argsort(row, kind="stable")
    deg_sorted = deg[order]
    assert all(deg_sorted[k] >= deg_sorted[k + 1] for k in range(len(deg_sorted) - 1))


def test_random_distance_memoized_and_deterministic():
    # every pair reads the all-tied distance 0.0, in any context
    ctx = DistanceContext(n=6)
    spec = RandomDistance()
    first = evaluate(spec, ctx, 0, 3)
    assert evaluate(spec, ctx, 0, 3) == first
    assert evaluate(spec, DistanceContext(n=6), 0, 3) == first == 0.0
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
    assert evaluate(Euclidean1D(attr="x"), ctx, 0, 1) == 3.0
    assert evaluate(Euclidean2D(attr1="x", attr2="y"), ctx, 0, 1) == 5.0
    with pytest.raises(ValueError, match="categorical"):
        evaluate(Euclidean1D(attr="lab"), ctx, 0, 1)


def test_cosine_distance_of_opposite_vectors():
    table = AttributeTable(
        [
            AttributeColumn("x", "continuous", (1.0, 0.5, -1.0)),
            AttributeColumn("y", "continuous", (0.0, 0.5, 0.0)),
        ]
    )
    spec = CosineDistance(attrs=("x", "y"))
    assert evaluate(spec, DistanceContext(attrs=table), 0, 2) == pytest.approx(2.0)


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
            evaluate(spec, ctx, i, j)


def test_aggregate_mixed_kinds():
    spec = AggregateDistance(weights=(("age", 2.0), ("sex", 5.0)))
    ctx = DistanceContext(attrs=people_table())
    # 2*|30-40| + 5*mismatch
    assert evaluate(spec, ctx, ALICE, BOB) == 25.0
    with pytest.raises(ValueError, match="non-negative"):
        AggregateDistance(weights=(("age", -1.0),))


@pytest.mark.parametrize(
    "weights",
    [
        (("x", 1.0), ("lab", 1.0), ("y", 1.0), ("z", 1.0)),
        (("lab", 2.5), ("x", 0.0), ("y", 1e-3), ("z", 1.0)),
        (("x", 0.0), ("lab", 0.0)),
        (("y", 1e-3),),
        (("lab", 2.5),),
        (("x", 1.0),),
    ],
)
def test_aggregate_rows_match_the_weighted_sum(weights):
    # the first term written into the sum and the skipped * 1.0 give the
    # bits of zeros plus every weighted term, -0.0 differences included
    gen = np.random.default_rng(5)
    n = 40
    table = AttributeTable(
        [
            AttributeColumn("x", "continuous", tuple(gen.lognormal(size=n))),
            AttributeColumn("y", "continuous", tuple(gen.normal(size=n) * 1e300)),
            AttributeColumn("z", "ordinal", tuple(np.r_[[0.0, -0.0] * 5, gen.integers(0, 3, n - 10)])),
            AttributeColumn("lab", "categorical", tuple(f"c{v}" for v in gen.integers(0, 3, n))),
        ]
    )
    ctx = DistanceContext(attrs=table)
    spec = AggregateDistance(weights=weights)
    sources = np.array([0, 1, 7, 39])
    got = spec.rows(ctx, sources)
    assert got.view(np.uint64).tolist() == aggregate_rows(spec, ctx, sources).view(np.uint64).tolist()


@pytest.mark.parametrize("weight", [np.nan, np.inf, -np.inf, -1.0])
def test_aggregate_weights_must_be_finite_and_non_negative(recwarn, weight):
    # a weight that is not finite fails its type, at its place in the list
    finite = np.isfinite(weight)
    rule = "'weights' must hold non-negative weights" if finite else "'weights[1][1]' must be a finite number"
    message = f"aggregate spec field {rule}, got {weight}"
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        AggregateDistance(weights=(("sex", 1.0), ("age", weight)))
    assert not recwarn.list


def test_hierarchical_mix():
    table = AttributeTable([AttributeColumn("x", "continuous", (0.0, 4.0, 8.0))])
    ctx = DistanceContext(attrs=table)
    pure_euclid = HierarchicalMixDistance(1.0, (0, 1, 2), ("x",))
    assert evaluate(pure_euclid, ctx, 0, 1) == 4.0
    same_class = HierarchicalMixDistance(0.0, (1, 1, 2), ())
    assert evaluate(same_class, ctx, 0, 1) == 0.0
    blend = HierarchicalMixDistance(0.5, (0, 1, 2), ("x",))
    assert evaluate(blend, ctx, 0, 2) == pytest.approx(0.5 * 8.0 + 0.5 * 2.0)
    short = HierarchicalMixDistance(alpha=0.0, class_ranks=(0, 1), euclid_attrs=())
    with pytest.raises(ValueError, match="unmapped"):
        evaluate(short, ctx, 0, 1)
    long = HierarchicalMixDistance(alpha=0.0, class_ranks=(0, 1, 2, 3, 4), euclid_attrs=())
    with pytest.raises(ValueError, match=r"^class map has 5 ranks for 3 vertices$"):
        evaluate(long, ctx, 0, 1)
    # an empty euclid_attrs fails when alpha > 0 as the spec is built
    message = "hierarchical_mix spec field 'euclid_attrs' must be non-empty if alpha > 0, got ()"
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        HierarchicalMixDistance(0.5, (0, 1, 2))


@pytest.mark.parametrize(
    "make, message",
    [
        (
            lambda: CentralityDistance(centrality="eigen"),
            "eigen spec field 'centrality' must be a known centrality, got 'eigen'",
        ),
        (lambda: AggregateDistance(weights=()), "aggregate spec field 'weights' must hold at least one weight, got ()"),
        (lambda: HierarchicalMixDistance(1.5, (0, 1)), "hierarchical_mix spec field 'alpha' must be in [0, 1], got 1.5"),
        (
            lambda: HierarchicalMixDistance(0.0, (0, 10**400)),
            f"hierarchical_mix spec field 'class_ranks[1]' must be a finite number, got {10**400}",
        ),
    ],
    ids=["centrality", "aggregate", "hierarchical_alpha", "hierarchical_huge_rank"],
)
def test_specs_reject_bad_parameters(make, message):
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        make()


def numeric_table(values):
    return AttributeTable([AttributeColumn("x", "continuous", tuple(values))])


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"n": 10.7}, "vertex count must be a whole number, got 10.7"),
        ({"n": 1}, "need at least 2 vertices, got 1"),
        ({"n": 0}, "need at least 2 vertices, got 0"),
        ({"attrs": numeric_table([1.0])}, "need at least 2 vertices, got 1"),
        ({}, "context needs n or attrs"),
        ({"n": 3, "attrs": numeric_table([1.0, 2.0])}, "attribute table has 2 rows, context n=3"),
    ],
    ids=["float", "one", "zero", "one_row_table", "nothing", "other_table"],
)
def test_context_checks_its_vertex_count_once(kwargs, message):
    # a float is never truncated: DistanceContext(10.7) would generate n=10
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        DistanceContext(**kwargs)
    assert DistanceContext(4.0).n == 4 and type(DistanceContext(4.0).n) is int


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
        assert ((i, j) in arcs(g)) == bool(label)


def list_training_set(g, attrs, negative_ratio, rng):
    """Training set built from an explicit list of every non-arc."""
    arc_set = arcs(g)
    positives = sorted(arc_set)
    non_arcs = [(i, j) for i in range(g.n) for j in range(g.n) if i != j and (i, j) not in arc_set]
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


def numpy_choice_branch(free, wanted):
    """Which algorithm ``Generator.choice(free, wanted, replace=False)`` runs."""
    if wanted >= free:
        return "no draw"
    return "floyd" if free > 10_000 and wanted < free // 50 else "tail shuffle"


@pytest.mark.parametrize("negative_ratio", [1.0, 2.5, math.inf, 40.0])
def test_training_set_matches_list_construction(negative_ratio):
    gen = np.random.default_rng(17)
    # one non-arc: every ratio keeps it
    near_complete = Graph(6, [(i, j) for i in range(6) for j in range(6) if i != j and (i, j) != (4, 1)])
    branches = set()
    for n, p in ((4, 0.5), (7, 0.2), (12, 0.3), (15, 0.1), (150, 0.005), (150, 0.1), (6, None)):
        g = near_complete if p is None else random_digraph(gen, n, p)
        if not arcs(g):
            continue
        attrs = AttributeTable(
            [
                AttributeColumn("x", "continuous", tuple(gen.normal(size=n))),
                AttributeColumn("c", "categorical", tuple(f"c{k}" for k in gen.integers(0, 3, size=n))),
            ]
        )
        free = n * (n - 1) - g.arc_count
        wanted = negative_ratio * g.arc_count
        branches.add(numpy_choice_branch(free, free if wanted >= free else math.ceil(wanted)))
        for seed in range(3):
            ts = build_training_set(g, attrs, negative_ratio, RngStream(seed))
            feats, labels = list_training_set(g, attrs, negative_ratio, RngStream(seed))
            assert np.array_equal(ts.features, feats)
            assert np.array_equal(ts.labels, labels)
    if negative_ratio < 40:
        # the n=150 graphs reach both of numpy's sampling algorithms
        assert {"floyd", "tail shuffle"} <= branches
    else:
        # every non-arc of the small graphs, without a draw
        assert "no draw" in branches


def test_training_set_memory_stays_linear_in_arcs():
    # an n x n boolean mask alone would take 16 MB here
    n = 4000
    gen = np.random.default_rng(23)
    codes = np.unique(gen.integers(0, n * n, size=4 * n))
    g = Graph(n, np.stack(np.divmod(codes, n), axis=1)[codes % (n + 1) != 0])
    attrs = AttributeTable(
        [
            AttributeColumn("x", "continuous", tuple(gen.normal(size=n))),
            AttributeColumn("c", "categorical", tuple(f"c{k}" for k in gen.integers(0, 4, size=n))),
        ]
    )
    tracemalloc.start()
    try:
        ts = build_training_set(g, attrs, 1.0, RngStream(3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ts.features.shape == (2 * g.arc_count, 10)
    assert peak < 3 * ts.features.nbytes


@pytest.mark.parametrize("negative_ratio", [math.inf, 1e308])
def test_training_set_of_every_non_arc_past_the_cell_budget_fails_before_allocating(negative_ratio):
    n = 10**6
    g = Graph(n, [(0, 1)])
    with pytest.raises(ValueError, match=r"training set features need 1,999,998,000,000 cells, over the budget"):
        build_training_set(g, numeric_table(np.zeros(n)), negative_ratio, RngStream(0))


def test_training_set_checks_numpys_tail_shuffle_against_the_cell_budget(monkeypatch):
    # past free // 50 negatives numpy's choice shuffles an arange of every
    # free code; under that, Floyd's draw holds only the negatives
    n = 200
    g = Graph(n, [(i, (i + 1) % n) for i in range(n)])
    attrs = numeric_table(np.arange(n, dtype=float))
    free = n * n - 2 * n
    floyd = build_training_set(g, attrs, (free // 50) / n, RngStream(4))
    assert len(floyd.labels) == n + free // 50
    monkeypatch.setattr(graph, "_CELL_BUDGET", free - 1)
    assert build_training_set(g, attrs, (free // 50) / n, RngStream(4)).features.tobytes() == floyd.features.tobytes()
    with pytest.raises(ValueError, match=rf"negative draws need {free:,} cells, over the budget of {free - 1:,}"):
        build_training_set(g, attrs, (free // 50 + 1) / n, RngStream(4))
    monkeypatch.setattr(graph, "_CELL_BUDGET", free)
    assert len(build_training_set(g, attrs, (free // 50 + 1) / n, RngStream(4)).labels) == n + free // 50 + 1


def test_training_set_errors():
    for ratio in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="negative_ratio must be > 0"):
            build_training_set(Graph(3, [(0, 1)]), numeric_table([1, 2, 3]), ratio, RngStream(0))
    with pytest.raises(ValueError, match="no arcs"):
        build_training_set(Graph(3, []), numeric_table([1, 2, 3]), 1.0, RngStream(0))
    complete = Graph(3, [(i, j) for i in range(3) for j in range(3) if i != j])
    with pytest.raises(ValueError, match="complete"):
        build_training_set(complete, numeric_table([1, 2, 3]), 1.0, RngStream(0))
    with pytest.raises(ValueError, match=r"^attribute table has 2 rows for a graph of n=3$"):
        build_training_set(Graph(3, [(0, 1)]), numeric_table([1, 2]), 1.0, RngStream(0))
    with pytest.raises(ValueError, match=r"^negative subsampling needs an rng stream$"):
        build_training_set(Graph(4, [(0, 1)]), numeric_table([1, 2, 3, 4]), 1.0)


@pytest.mark.parametrize("fit", [fit_linear_regression_distance, fit_naive_bayes_distance])
@pytest.mark.parametrize(
    "labels, message",
    [
        ([1.0], "training set needs at least 2 rows"),
        ([0.0, 0.0], "training set needs at least one example of each label"),
    ],
    ids=["one_row", "one_label"],
)
def test_fits_need_two_rows_and_both_labels(fit, labels, message):
    encoder = FeatureEncoder.from_table(numeric_table([1.0]))
    ts = TrainingSet(features=np.ones((len(labels), 2)), labels=np.array(labels), encoder=encoder)
    with pytest.raises(ValueError, match=rf"^{message}$"):
        fit(ts)


def test_ols_satisfies_normal_equations_and_pinv_oracle():
    gen = np.random.default_rng(12)
    for _ in range(20):
        n = int(gen.integers(6, 12))
        g = random_digraph(gen, n, 0.4)
        if not arcs(g) or g.arc_count == n * (n - 1):
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
    """m rows of p random pair features, an odd p rounded up, since a pair
    has two halves, and the encoder of p / 2 numeric columns that fits them."""
    labels = np.zeros(m)
    labels[: m // 3] = 1.0
    half = (p + 1) // 2
    encoder = FeatureEncoder(columns=tuple((f"x{c}", "continuous", ()) for c in range(half)))
    return TrainingSet(features=gen.normal(size=(m, 2 * half)) * scale, labels=labels, encoder=encoder)


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
    values = {evaluate(spec, ctx, i, j) for i in range(3) for j in range(3) if i != j}
    assert all(abs(v - mean_y) < 1e-9 for v in values)


def test_ols_orders_cluster_before_outliers():
    # tight cluster pairwise within 1 (all arcs) plus spread-out singletons:
    # per source, every in-threshold target must rank ahead of the rest
    values = [0.0, 0.2, 0.4, 0.6, 3.0, 5.0, 7.0]
    n = len(values)
    pairs = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j and abs(values[i] - values[j]) < 1.0
    ]
    g = Graph(n, pairs)
    attrs = numeric_table(values)
    ts = build_training_set(g, attrs, math.inf, RngStream(6))
    spec = fit_linear_regression_distance(ts)
    ctx = DistanceContext(attrs=attrs)
    for i in range(n):
        inside = [j for j in range(n) if j != i and (i, j) in arcs(g)]
        outside = [j for j in range(n) if j != i and (i, j) not in arcs(g)]
        for a in inside:
            for b in outside:
                assert evaluate(spec, ctx, i, a) < evaluate(spec, ctx, i, b)


def test_naive_bayes_gaussian_likelihood_oracle():
    encoder = FeatureEncoder(columns=(("x", "continuous", ()),))
    spec = NaiveBayesDistance(
        prior_edge=0.5,
        prior_no_edge=0.5,
        means=((10.0, 10.0), (0.0, 0.0)),
        variances=((1.0, 1.0), (1.0, 1.0)),
        bernoulli=((), ()),
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

    at_zero = evaluate(spec, ctx, 0, 1)
    at_ten = evaluate(spec, ctx, 2, 3)
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
    intra = [evaluate(spec, ctx, i, j) for i in cluster for j in cluster if i != j]
    cross = [evaluate(spec, ctx, i, j) for i in cluster for j in range(4, n)]
    assert max(intra) < min(cross)


def test_naive_bayes_fit_matches_numpy_mean_var_and_sum():
    # the Gaussian tables keep the numeric slots, the rates the one-hot ones
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    table = AttributeTable([
        AttributeColumn("x", "continuous", (0.0, 1.0, 2.0, 3.0)),
        AttributeColumn("lab", "categorical", ("a", "b", "a", "b")),
    ])
    base = build_training_set(g, table, math.inf, RngStream(8))
    width = base.features.shape[1]
    one_hot = np.tile(base.encoder.binary_mask, 2)
    assert one_hot.tolist() == [False, True, True] * 2
    gen = np.random.default_rng(41)
    for trial in range(60):
        size = int(gen.integers(2, 40))
        # the first trials give one class a single row
        labels = np.zeros(size)
        labels[gen.choice(size, 1 if trial < 10 else int(gen.integers(1, size)), replace=False)] = 1.0
        if trial % 2:
            labels = 1.0 - labels
        scale = 10.0 ** gen.integers(-3, 6, size=width)
        features = gen.normal(gen.normal(0, 1e3, size=width), scale, size=(size, width))
        features[:, one_hot] = gen.integers(0, 2, size=(size, int(one_hot.sum())))
        spec = fit_naive_bayes_distance(TrainingSet(features, labels, base.encoder))
        for c, label in enumerate((1.0, 0.0)):
            rows = features[labels == label]
            assert spec.means[c] == tuple(rows.mean(axis=0)[~one_hot].tolist())
            assert spec.variances[c] == tuple(np.maximum(rows.var(axis=0), 1e-9)[~one_hot].tolist())
            assert spec.bernoulli[c] == tuple(((rows.sum(axis=0) + 1.0) / (len(rows) + 2.0))[one_hot].tolist())


def test_naive_bayes_uninformative_features_give_prior_ratio():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    attrs = numeric_table([5.0, 5.0, 5.0, 5.0])
    ts = build_training_set(g, attrs, math.inf, RngStream(8))
    spec = fit_naive_bayes_distance(ts)
    ctx = DistanceContext(attrs=attrs)
    p_edge = float(ts.labels.mean())
    expected = (1 - p_edge) / (p_edge + spec.eps)
    for i, j in ((0, 1), (0, 3), (2, 0)):
        assert evaluate(spec, ctx, i, j) == pytest.approx(expected, rel=1e-6)


@pytest.mark.parametrize("columns", ["mixed", "numeric", "categorical"])
def test_naive_bayes_scores_match_the_two_likelihood_formula(columns):
    # each slot's one likelihood, summed in encoder order, gives the class
    # scores of full-width tables that compute both and keep one; a table
    # of one kind of column leaves the other model no slot
    n = 2000
    table = generate_synthetic_attributes(n, 7)
    if columns != "mixed":
        table = AttributeTable([c for c in table.columns if c.is_numeric == (columns == "numeric")])
    spec = fit_naive_bayes_distance(build_training_set(gen_barabasi_albert(n, 3, seed=5), table, 1.0, RngStream(2)))
    widths = {"mixed": (6, 10), "numeric": (6, 0), "categorical": (0, 10)}[columns]
    assert (len(spec.means[0]), len(spec.bernoulli[0])) == widths
    ctx = DistanceContext(attrs=table)
    for got, expected in zip(spec._scores(ctx), naive_bayes_scores_by_two_likelihoods(spec, ctx), strict=True):
        assert np.array_equal(got, expected)


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
    with pytest.warns(UserWarning, match="rank-deficient"):
        linear = fit_linear_regression_distance(ts)
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
        HierarchicalMixDistance(0.5, tuple(range(n)), ("x",)),
        linear,
        fit_naive_bayes_distance(ts),
    ]
    ctx = DistanceContext(n=n, attrs=table, centralities=NetworkProfile(g))
    for spec in specs:
        rows = np.vstack([spec.rows(ctx, np.array([i]))[0] for i in range(n)])
        off_diag = rows[~np.eye(n, dtype=bool)]
        assert np.isfinite(off_diag).all(), spec.kind
        assert (off_diag >= 0).all(), spec.kind


def test_row_matches_pairwise_evaluate():
    gen = np.random.default_rng(55)
    n = 10
    g = random_digraph(gen, n, 0.4)
    table = numeric_table(gen.normal(size=n))
    ts = build_training_set(g, table, 1.0, RngStream(12))
    ctx = DistanceContext(n=n, attrs=table, centralities=NetworkProfile(g))
    for spec in (
        CentralityDistance(centrality="pagerank"),
        Euclidean1D(attr="x"),
        fit_linear_regression_distance(ts),
        fit_naive_bayes_distance(ts),
        RandomDistance(),
    ):
        for i in (0, 3):
            row = spec.rows(ctx, np.array([i]))[0]
            for j in range(n):
                if j != i:
                    assert evaluate(spec, ctx, i, j) == pytest.approx(float(row[j]))


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
        HierarchicalMixDistance(0.0, tuple(classes)),
        HierarchicalMixDistance(0.5, tuple(classes), ("x", "y")),
        fit_linear_regression_distance(ts),
        fit_naive_bayes_distance(ts),
    ]
    return DistanceContext(n=n, attrs=table, centralities=NetworkProfile(g)), specs


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
        expected = np.stack([spec.rows(ctx, np.array([int(i)]))[0] for i in sources])
        assert block.tobytes() == expected.tobytes(), spec.kind
        assert spec.rows(ctx, np.array([], dtype=np.int64)).shape == (0, n), spec.kind


@pytest.mark.filterwarnings("ignore:design matrix is rank-deficient")
def test_column_sums_match_python_floats():
    # every product over attribute or feature columns is added column by
    # column in column order, so each entry is the Python float sum to the bit
    n = 50
    ctx, specs = catalog(n, np.random.default_rng(31))
    sources = np.arange(n)
    checked = set()
    for spec in specs:
        if isinstance(spec, CosineDistance):
            pairs = [(spec.rows(ctx, sources), cosine_rows_by_floats(spec, ctx, sources))]
        elif isinstance(spec, Euclidean2D):
            pairs = [(spec.rows(ctx, sources), euclidean_rows_by_floats(ctx, (spec.attr1, spec.attr2), sources))]
        elif isinstance(spec, HierarchicalMixDistance) and spec.alpha > 0:
            euclid = euclidean_rows_by_floats(ctx, spec.euclid_attrs, sources)
            ranks = np.array(spec.class_ranks, dtype=np.float64)
            hier = np.abs(ranks - ranks[:, None])
            pairs = [(spec.rows(ctx, sources), euclid * spec.alpha + hier * (1.0 - spec.alpha))]
        elif isinstance(spec, LinearRegressionDistance):
            pairs = list(zip(spec._terms(ctx), linear_regression_terms_by_floats(spec, ctx)))
        else:
            continue
        checked.add(spec.kind)
        for got, expected in pairs:
            assert got.view(np.uint64).tolist() == expected.view(np.uint64).tolist(), spec.kind
    assert checked == {"cosine", "euclidean2d", "hierarchical_mix", "linear_regression"}


# a hand-written linear-regression spec over the features of
# ``generate_synthetic_attributes``: ordinal, five categories, lognormal and
# exponential, in both halves, then the intercept
KERNEL_BETA = (
    0.31, -1.7, 0.043, 2.9, -0.55, 1.13, -0.0071, 0.86,
    -0.27, 0.61, -1.4, 0.095, 0.77, -2.3, 0.018, 1.9,
    0.5,
)

# a hand-written naive-Bayes spec over the same features: per class, the
# numeric slots (ordinal, lognormal, exponential) in both halves, and the
# rates of the five one-hot slots in both halves
KERNEL_NAIVE_BAYES = dict(
    prior_edge=0.3,
    prior_no_edge=0.7,
    means=((4.1, 1.9, 0.8, 5.2, 2.4, 1.3), (4.6, 1.6, 1.1, 4.4, 1.5, 0.9)),
    variances=((7.9, 3.1, 0.7, 8.6, 4.8, 1.6), (8.3, 4.4, 1.2, 8.1, 3.9, 0.95)),
    bernoulli=(
        (0.13, 0.27, 0.21, 0.19, 0.2, 0.31, 0.12, 0.18, 0.22, 0.17),
        (0.2, 0.2, 0.19, 0.22, 0.19, 0.21, 0.18, 0.2, 0.2, 0.21),
    ),
)


def kernel_hashes() -> dict[str, str]:
    """sha256 of the cosine rows of every source, the linear-regression
    terms of ``KERNEL_BETA``, the naive-Bayes class scores of
    ``KERNEL_NAIVE_BAYES``, and one seeded graph of each kind, at n=2,000
    over synthetic attributes.  The naive-Bayes rows are left out: their
    ``np.exp`` follows numpy's SIMD dispatch."""
    n = 2000
    table = generate_synthetic_attributes(n, 3)
    encoder = FeatureEncoder.from_table(table)
    specs = {
        "cosine": CosineDistance(),
        "linear_regression": LinearRegressionDistance(beta=KERNEL_BETA, encoder=encoder),
        "naive_bayes": NaiveBayesDistance(**KERNEL_NAIVE_BAYES, encoder=encoder),
    }
    ctx = DistanceContext(attrs=table)
    rows = hashlib.sha256()
    for start in range(0, n, 250):
        rows.update(specs["cosine"].rows(ctx, np.arange(start, start + 250)).tobytes())
    hashes = {"cosine rows": rows.hexdigest()}
    for name, term in zip(("scores", "constants"), specs["linear_regression"]._terms(ctx)):
        hashes[f"linear_regression {name}"] = hashlib.sha256(term.tobytes()).hexdigest()
    for name, score in zip(("source edge", "source no-edge", "target edge", "target no-edge"),
                           specs["naive_bayes"]._scores(ctx)):
        hashes[f"naive_bayes {name}"] = hashlib.sha256(score.tobytes()).hexdigest()
    for kind, spec in specs.items():
        g = priority_rank_generate(DistanceContext(attrs=table), spec, DegreeSpec.constant(10), 5)
        hashes[f"{kind} graph"] = hashlib.sha256(g.codes.tobytes()).hexdigest()
    return hashes


def test_rows_do_not_depend_on_the_blas_kernel():
    """A subprocess whose OpenBLAS runs its Sandybridge kernels computes the
    rows, terms and graphs of ``kernel_hashes`` to this process's bits.  On
    a BLAS that does not read ``OPENBLAS_CORETYPE`` (an OpenBLAS built
    without ``DYNAMIC_ARCH``, or another BLAS) both processes run one
    kernel, and the test passes trivially."""
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH", "")])
    script = "import json, test_distance; print(json.dumps(test_distance.kernel_hashes()))"
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "OPENBLAS_CORETYPE": "Sandybridge", "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == kernel_hashes()


def strict_rows_along_order(spec, ctx):
    """The proof of ``spec.shared_order``, and which sources' rows, as
    ``rows`` computes them, rise strictly along the order (their own entry
    included).  Fails if a proven row does not."""
    order, proven = spec.shared_order(ctx)
    assert sorted(order.tolist()) == list(range(ctx.n))
    assert spec.shared_order(ctx)[1] is proven  # once per context
    strict = (np.diff(spec.rows(ctx, np.arange(ctx.n))[:, order], axis=1) > 0).all(axis=1)
    assert not (proven & ~strict).any(), np.flatnonzero(proven & ~strict)
    return proven, strict


def naive_bayes_terms(a, b, e, f, eps=1e-6):
    """A naive-Bayes distance and a context in which source i's class terms
    are a[i], b[i] and target j's are e[j], f[j]: priors of 1 add log 1 = 0."""
    spec = NaiveBayesDistance(1.0, 1.0, ((), ()), ((), ()), ((), ()), eps=eps, encoder=FeatureEncoder(columns=()))
    n = max(np.size(v) for v in (a, b, e, f))
    ctx = DistanceContext(n=n)
    ctx._scores[spec] = tuple(np.broadcast_to(np.asarray(v, dtype=np.float64), (n,)) for v in (a, b, e, f))
    return spec, ctx


def linear_regression_terms(c, s):
    """A linear-regression distance and a context in which source i's
    constant is c[i] and target j's score is s[j] (both exact)."""
    encoder = FeatureEncoder(columns=(("x", "continuous", ()), ("y", "continuous", ())))
    spec = LinearRegressionDistance(beta=(1.0, 0.0, 0.0, 1.0, 0.0), encoder=encoder)
    ctx = DistanceContext(attrs=AttributeTable([AttributeColumn("x", "continuous", tuple(c)),
                                                AttributeColumn("y", "continuous", tuple(s))]))
    return spec, ctx


def test_naive_bayes_proof_holds_where_rounding_ties_rows():
    n = 64
    # target gaps of 2^-40 under source terms up to 2^30: the larger terms
    # round D = fl(A + e) - fl(B + f) onto the same float for neighbours
    big = 2.0 ** np.arange(-2, 31)
    spec, ctx = naive_bayes_terms(np.resize(np.r_[big, -big], n), np.resize(np.r_[big, -big], n), 0.0,
                                  np.arange(n) * 2.0**-40)
    proven, strict = strict_rows_along_order(spec, ctx)
    assert proven.any() and not strict.all()
    # saturation: with eps = 1e-6 a distance near 1 / eps changes by
    # rho(D) ~ e^D / eps per unit of D, under rounding from about D = -45;
    # both ends of the order hold sources
    c = np.linspace(0.0, -50.0, n)
    spec, ctx = naive_bayes_terms(c, 0.0, 0.0, np.arange(n) * 1e-3)
    proven, strict = strict_rows_along_order(spec, ctx)
    assert proven[c > -35].all() and not proven[c < -42].any() and not strict.all()
    # rows span D in [c - 6.3, c]: exp leaves the normal range past
    # |D| = 708, and past D = 745 every distance reads 0; at D near -690
    # the rows saturate at 1 / eps
    c = np.resize([-800.0, -720.0, -705.0, -690.0, 0.0, 690.0, 705.0, 720.0, 800.0], n)
    spec, ctx = naive_bayes_terms(c, 0.0, 0.0, np.arange(n) * 0.1)
    proven, strict = strict_rows_along_order(spec, ctx)
    assert proven.tolist() == np.isin(c, [0.0, 690.0]).tolist() and not strict[c == 800.0].any()


def test_naive_bayes_proof_refuses_target_gaps_at_one_ulp():
    n = 40
    ulp_steps = 1.0 + np.arange(n) * 2.0**-52
    for f in (ulp_steps, np.r_[ulp_steps[:-1], ulp_steps[-2]], np.full(n, 0.5)):
        spec, ctx = naive_bayes_terms(np.linspace(-3, 3, n), 0.0, 0.0, f)
        proven, _ = strict_rows_along_order(spec, ctx)
        assert not proven.any()


def test_naive_bayes_proof_covers_fitted_rows():
    n = 300
    g = gen_barabasi_albert(n, 3, seed=5)
    attrs = generate_synthetic_attributes(n, 7)
    spec = fit_naive_bayes_distance(build_training_set(g, attrs, 1.0, RngStream(2)))
    proven, strict = strict_rows_along_order(spec, DistanceContext(attrs=attrs))
    assert proven.all()
    # an eps past 1 may round distances below the normal range: no proof
    wide = NaiveBayesDistance(**{**{f.name: getattr(spec, f.name) for f in fields(spec)}, "eps": 2.0})
    assert not strict_rows_along_order(wide, DistanceContext(attrs=attrs))[0].any()


def test_linear_regression_proof_holds_where_rounding_ties_rows():
    n = 50
    # score gaps of 3 ulp of 1: a constant of 3 or more puts the sums where
    # one ulp is 4 ulp of 1, and neighbours round together
    s = 1.0 + np.arange(n) * 3 * 2.0**-52
    c = np.resize([0.0, 0.25, 0.5, 1.0, 2.0, 3.0, 4.0, 100.0, -3.0, -100.0], n)
    spec, ctx = linear_regression_terms(c, s)
    proven, strict = strict_rows_along_order(spec, ctx)
    assert proven[np.abs(c) <= 2].all() and not proven[np.abs(c) >= 3].any() and not strict.all()
    # one-ulp gaps and a repeated score prove nothing
    for scores in (1.0 + np.arange(n) * 2.0**-52, np.r_[np.arange(n - 1.0), n - 2.0]):
        assert not strict_rows_along_order(*linear_regression_terms(c, scores))[0].any()


def test_linear_regression_proof_counts_the_clamp_group():
    # scores 0..n-1 (source 0 first in the order, source n-1 last): a
    # constant of -1 makes s_0 + c and s_1 + c both clamp to 0, a tie; -1
    # plus one ulp leaves the second sum over 0, a clamp group of one
    n = 30
    minus_one = np.nextafter(-1.0, 0.0)
    c = np.resize([-0.5, -1.0, minus_one, -1.5, -2.0, 0.0, 5.0], n)
    c[[0, -1]] = -1.0, minus_one
    spec, ctx = linear_regression_terms(c, np.arange(float(n)))
    proven, strict = strict_rows_along_order(spec, ctx)
    assert proven.tolist() == (c > -1.0).tolist()
    assert strict.tolist() == proven.tolist()


def test_evaluate_rejects_diagonal():
    with pytest.raises(ValueError, match="i != j"):
        evaluate(RandomDistance(), DistanceContext(n=3), 1, 1)
    # every kind checks the vertex range, cosine included
    n = 3
    ctx = DistanceContext(attrs=numeric_table([1.0, 2.0, 3.0]))
    for i, j in ((-1, 0), (0, n + 4)):
        with pytest.raises(ValueError, match=rf"vertex pair \({i}, {j}\) outside context n=3"):
            evaluate(CosineDistance(), ctx, i, j)


# a comma, a quote and a newline; a trailing NUL, which numpy's unicode
# arrays would strip; and "z", never seen at fit time
ENCODE_LABELS = ("a", "b", 'c,"d\ne', "e\x00", "e", "z")


@pytest.mark.parametrize("seed", range(4))
def test_encode_matches_the_row_loop(seed):
    gen = np.random.default_rng(seed)

    def table(n, pool):
        return AttributeTable(
            [
                AttributeColumn("x", "continuous", tuple(gen.normal(size=n))),
                AttributeColumn("lab", "categorical", tuple(pool[k] for k in gen.integers(len(pool), size=n))),
                AttributeColumn("lvl", "ordinal", tuple(gen.integers(0, 9, size=n))),
            ]
        )

    encoder = FeatureEncoder.from_table(table(40, ENCODE_LABELS[:5]))
    assert encoder.columns[1][2] == tuple(sorted(ENCODE_LABELS[:5]))
    # "a" and "b" are fitted but missing here, "z" is new
    other = table(40, ENCODE_LABELS[2:])
    assert {"a", "b"}.isdisjoint(other.column("lab").values) and "z" in other.column("lab").values
    for t in (table(40, ENCODE_LABELS[:5]), other, table(0, ENCODE_LABELS)):
        phi = encoder.encode(t)
        assert phi.shape == (t.n, 7)
        assert np.array_equal(phi, one_hot_by_rows(encoder, t))
    new = np.array([v == "z" for v in other.column("lab").values])
    assert not encoder.encode(other)[new, 1:6].any()


def test_encoder_refuses_a_column_that_changed_kind():
    encoder = FeatureEncoder.from_table(AttributeTable([AttributeColumn("c", "categorical", ("a", "b"))]))
    with pytest.raises(ValueError, match=r"^attribute 'c' changed kind since fitting$"):
        encoder.encode(AttributeTable([AttributeColumn("c", "continuous", (1.0, 2.0))]))


def test_zero_row_categorical_column_encodes_to_no_features():
    # fitted on no rows, a categorical column has no labels, so no one-hot
    # slot, and it is still read as categorical
    table = AttributeTable([AttributeColumn("c", "categorical", ())])
    encoder = FeatureEncoder.from_table(table)
    assert encoder.binary_mask.tolist() == []
    phi = encoder.encode(table)
    assert phi.shape == (0, 0)
    assert np.array_equal(phi, one_hot_by_rows(encoder, table))


GATED_SPECS = [
    Euclidean1D(attr="x"),
    Euclidean2D(attr1="x", attr2="y"),
    CosineDistance(),
    CosineDistance(attrs=("x",)),
    AggregateDistance(weights=(("x", 1.0),)),
    HierarchicalMixDistance(alpha=0.5, class_ranks=(0, 1, 2, 3), euclid_attrs=("x",)),
    LinearRegressionDistance(beta=(1.0, 1.0, 0.0), encoder=FeatureEncoder(columns=(("x", "continuous", ()),))),
    NaiveBayesDistance(0.5, 0.5, ((0.0, 0.0), (1.0, 1.0)), ((1.0, 1.0), (1.0, 1.0)), ((), ()),
                       encoder=FeatureEncoder(columns=(("x", "continuous", ()),))),
]


@pytest.mark.parametrize("spec", GATED_SPECS, ids=lambda spec: spec.kind)
def test_attribute_kinds_need_a_table(spec):
    # one gate, DistanceContext.table, checks for the table; the learned
    # kinds' orders read it too
    ctx = DistanceContext(n=4)
    calls = [lambda: spec.rows(ctx, np.arange(4))]
    if isinstance(spec, (LinearRegressionDistance, NaiveBayesDistance)):
        calls.append(lambda: spec.shared_order(ctx))
    for call in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == "attribute-based distance needs an attribute table"


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
    with pytest.warns(UserWarning, match="rank-deficient"):
        linear = fit_linear_regression_distance(ts)
    specs = [
        RandomDistance(),
        *(CentralityDistance(centrality=c, eps=1e-5) for c in ("degree", "betweenness", "closeness", "pagerank")),
        Euclidean1D(attr="x"),
        Euclidean2D(attr1="x", attr2="x"),
        CosineDistance(attrs=("x",)),
        CosineDistance(),
        AggregateDistance(weights=(("x", 1.5), ("lab", 2.0))),
        HierarchicalMixDistance(0.25, tuple(range(n)), ("x",)),
        HierarchicalMixDistance(0.0, tuple(range(n))),
        linear,
        fit_naive_bayes_distance(ts),
    ]
    ctx = DistanceContext(n=n, attrs=table, centralities=NetworkProfile(g))
    assert RandomDistance().to_json_dict() == {"kind": "random"}
    for spec in specs:
        doc = json.loads(json.dumps(spec.to_json_dict()))
        clone = spec_from_json_dict(doc)
        assert clone == spec and hash(clone) == hash(spec), spec.kind
        for i in (0, 2):
            for j in (1, n - 1):
                if i != j:
                    assert evaluate(clone, ctx, i, j) == pytest.approx(
                        evaluate(spec, ctx, i, j), rel=1e-12
                    )
    # an empty attribute list stays empty; it does not read as every column
    empty = CosineDistance(attrs=())
    clone = spec_from_json_dict(json.loads(json.dumps(empty.to_json_dict())))
    assert clone == empty
    with pytest.raises(ValueError, match="at least one numeric attribute"):
        evaluate(clone, ctx, 0, 1)
    # the learned kinds keep their key order, so `learn` output is unchanged
    assert list(specs[-1].to_json_dict()) == [
        "kind", "prior_edge", "prior_no_edge", "means", "variances", "bernoulli", "eps", "encoder",
    ]
    assert list(specs[-2].to_json_dict()) == ["kind", "beta", "encoder"]


def cycle_naive_bayes():
    """A naive-Bayes spec fitted to a 12-cycle over a numeric column and a
    three-label one, so 2 Gaussian slots and 6 rates per class, and its
    attribute table."""
    n = 12
    table = AttributeTable([
        AttributeColumn("x", "continuous", tuple(float(v) for v in range(n))),
        AttributeColumn("lab", "categorical", tuple("xyz"[v % 3] for v in range(n))),
    ])
    g = Graph(n, [(v, (v + 1) % n) for v in range(n)])
    return fit_naive_bayes_distance(build_training_set(g, table, 1.0, RngStream(3))), table


def test_naive_bayes_reads_its_bernoulli_slots_from_its_encoder():
    # the encoder's numeric slots hold the Gaussian tables and its one-hot
    # slots the rates, once per half of the pair, so the document holds no
    # mask that could disagree
    spec, _ = cycle_naive_bayes()
    assert [len(row) for row in spec.means + spec.variances + spec.bernoulli] == [2, 2, 2, 2, 6, 6]
    doc = json.loads(json.dumps(spec.to_json_dict()))
    assert "binary_mask" not in doc
    assert spec_from_json_dict(doc) == spec
    doc["binary_mask"] = [False, True, True, True] * 2
    with pytest.raises(ValueError, match=r"^naive_bayes spec has no field 'binary_mask'$"):
        spec_from_json_dict(doc)


def test_full_width_naive_bayes_spec_is_refused():
    # the earlier format held a mean, a variance and a rate for every slot;
    # the constructor and the JSON route refuse it by the same width check
    spec, _ = cycle_naive_bayes()
    full = [tuple(map(tuple, t.tolist())) for t in naive_bayes_full_tables(spec)]
    message = re.escape("naive_bayes spec field 'means[0]' must hold 2 numbers for its encoder, got 8")
    with pytest.raises(ValueError, match=f"^{message}$"):
        NaiveBayesDistance(spec.prior_edge, spec.prior_no_edge, *full, encoder=spec.encoder)
    doc = json.loads(json.dumps(spec.to_json_dict()))
    doc.update(zip(("means", "variances", "bernoulli"), full))
    with pytest.raises(ValueError, match=f"^{message}$"):
        spec_from_json_dict(doc)


@pytest.mark.parametrize(
    "name, index, value, message",
    [
        ("prior_edge", None, math.inf, "'prior_edge' must be a finite number, got inf"),
        ("prior_no_edge", None, math.nan, "'prior_no_edge' must be a finite number, got nan"),
        ("variances", (0, 0), math.nan, "'variances[0][0]' must be a finite number, got nan"),
        ("variances", (1, 1), 0.0, "'variances' must hold positive numbers, got 0.0"),
        ("means", (0, 1), -math.inf, "'means[0][1]' must be a finite number, got -inf"),
        ("bernoulli", (1, 5), 1.0, "'bernoulli' must hold numbers in (0, 1), got 1.0"),
    ],
    ids=["prior-edge-inf", "prior-no-edge-nan", "variance-nan", "variance-zero", "mean-inf", "rate-one"],
)
def test_naive_bayes_value_out_of_range_names_its_field(recwarn, name, index, value, message):
    # every value fails when the spec is read, before any row is evaluated
    spec, table = cycle_naive_bayes()
    doc = spec.to_json_dict()
    if index is None:
        doc[name] = value
    else:
        values = np.array(doc[name])
        values[index] = value
        doc[name] = values.tolist()
    pattern = re.escape(f"naive_bayes spec field {message}") + "$"
    with pytest.raises(ValueError, match=pattern):
        spec_from_json_dict(doc).rows(DistanceContext(attrs=table), np.arange(table.n))
    with pytest.raises(ValueError, match=pattern):
        spec_from_json_dict(doc).shared_order(DistanceContext(attrs=table))
    assert not recwarn.list


def encoder_doc(column):
    """A linear-regression document whose encoder is the one ``column``."""
    return {"kind": "linear_regression", "beta": [0.0, 0.0, 0.0], "encoder": [column]}


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
        ({"kind": "degree", "eps": "x"}, "degree spec field 'eps' must be a finite number, got 'x'"),
        ({"kind": "degree", "eps": True}, "degree spec field 'eps' must be a finite number, got True"),
        ({"kind": "euclidean1d", "attr": 3}, "euclidean1d spec field 'attr' must be a string"),
        ({"kind": "cosine", "attrs": "xy"}, "cosine spec field 'attrs' must be a list"),
        ({"kind": "linear_regression", "beta": [1.0], "encoder": 5}, "field 'encoder' must be a list"),
        ({"kind": "linear_regression", "beta": [1.0], "encoder": [5]}, "field 'encoder[0]' must be a list, got 5"),
        ({"kind": "aggregate", "weights": [["x", "1"]]}, "field 'weights[0][1]' must be a finite number, got '1'"),
        ({"kind": "degree", "eps": 0}, "degree spec field 'eps' must be positive, got 0"),
        ({"kind": "degree", "esp": 0.5}, "degree spec has no field 'esp'"),
        ({"kind": "random", "mu": 0.0, "sigma": 1.0}, "random spec has no field 'mu'"),
        ({"kind": "pagerank", "centrality": "degree"}, "pagerank spec has no field 'centrality'"),
        ({"kind": "aggregate", "weights": [["a", True]]}, "field 'weights[0][1]' must be a finite number, got True"),
        ({"kind": "cosine", "attrs": ["a", 1]}, "cosine spec field 'attrs[1]' must be a string, got 1"),
        (encoder_doc(["a", "categorical", "xy"]), "field 'encoder[0][2]' must be a list, got 'xy'"),
        (
            encoder_doc(["a", "bogus", []]),
            "field 'encoder[0][1]' must be one of ordinal, categorical, continuous, got 'bogus'",
        ),
        (encoder_doc(["a", "numeric"]), "field 'encoder[0]' must be a list of 3 items, got ('a', 'numeric')"),
        (encoder_doc(["a", "continuous", ["x"]]), "field 'encoder[0][2]' must have no labels on a numeric column"),
        (
            encoder_doc(["c", "categorical", ["a", "a"]]),
            "field 'encoder[0][2]' must hold distinct labels in sorted order, got ('a', 'a')",
        ),
        (
            encoder_doc(["c", "categorical", ["b", "a"]]),
            "field 'encoder[0][2]' must hold distinct labels in sorted order, got ('b', 'a')",
        ),
    ],
    ids=[
        "missing_field", "null_required_field", "array", "string", "unknown_kind", "list_kind",
        "no_kind", "string_number", "bool_number", "number_string", "string_list", "number_encoder",
        "bad_encoder_column", "string_weight", "post_init_check", "unknown_field",
        "random_mu_sigma", "implied_centrality", "bool_weight", "number_attr", "string_labels",
        "unknown_column_kind", "short_column", "numeric_labels", "repeated_labels", "unsorted_labels",
    ],
)
def test_malformed_spec_raises_value_error(doc, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        spec_from_json_dict(doc)


BOGUS_KIND = "must be one of ordinal, categorical, continuous, got 'bogus'"


@pytest.mark.parametrize(
    "make, doc, message",
    [
        (
            lambda: CentralityDistance(centrality="degree", eps=True),
            {"kind": "degree", "eps": True},
            "degree spec field 'eps' must be a finite number, got True",
        ),
        (
            lambda: Euclidean1D(attr=5),
            {"kind": "euclidean1d", "attr": 5},
            "euclidean1d spec field 'attr' must be a string, got 5",
        ),
        (
            lambda: CosineDistance(attrs=("a", 1)),
            {"kind": "cosine", "attrs": ["a", 1]},
            "cosine spec field 'attrs[1]' must be a string, got 1",
        ),
        (
            lambda: AggregateDistance(weights=(("a", True),)),
            {"kind": "aggregate", "weights": [["a", True]]},
            "aggregate spec field 'weights[0][1]' must be a finite number, got True",
        ),
        (
            lambda: HierarchicalMixDistance(alpha=0.0, class_ranks=(True,)),
            {"kind": "hierarchical_mix", "alpha": 0.0, "class_ranks": [True]},
            "hierarchical_mix spec field 'class_ranks[0]' must be a finite number, got True",
        ),
        (
            lambda: LinearRegressionDistance(beta=(0.0, 0.0, 0.0), encoder=FeatureEncoder(columns=(("a", "bogus", ()),))),
            encoder_doc(["a", "bogus", []]),
            f"linear_regression spec field 'encoder[0][1]' {BOGUS_KIND}",
        ),
    ],
    ids=["bool_eps", "number_attr", "number_in_attrs", "bool_weight", "bool_class_rank", "unknown_column_kind"],
)
def test_constructor_and_json_document_reject_alike(make, doc, message):
    # one check runs for both routes, so each raises the same message
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        make()
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        spec_from_json_dict(doc)
