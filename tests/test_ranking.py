import numpy as np
import pytest
from scipy.stats import chisquare

from priorityrank import ranking
from priorityrank.ranking import (
    build_local_ranking,
    competition_ranks,
    sample_rows,
    sample_targets,
    selection_probabilities,
)
from priorityrank.stats import RngStream, harmonic

from _oracles import sequential_draw_law


def alice_ranking():
    return build_local_ranking(0, {1: 5.0, 2: 10.0, 3: 15.0, 4: 20.0})


def test_distinct_distances_rank_1234():
    r = alice_ranking()
    assert r.ranks.tolist() == [1, 2, 3, 4]
    assert r.probabilities.tolist() == pytest.approx([0.48, 0.24, 0.16, 0.12])


def test_tied_pair_shares_rank_one():
    # two nearest tie, ranking skips to 3
    r = build_local_ranking(0, {1: 15.0, 2: 15.0, 3: 20.0, 4: 30.0})
    assert r.ranks.tolist() == [1, 1, 3, 4]
    assert r.probabilities.tolist() == pytest.approx(
        [12 / 31, 12 / 31, 4 / 31, 3 / 31]
    )


def test_all_tied_is_uniform():
    r = build_local_ranking(2, {0: 1.0, 1: 1.0, 3: 1.0, 4: 1.0})
    assert r.ranks.tolist() == [1, 1, 1, 1]
    assert np.allclose(r.probabilities, 0.25)


def test_selection_probability_patterns():
    assert selection_probabilities([1, 2, 3, 4]).tolist() == pytest.approx(
        [0.48, 0.24, 0.16, 0.12]
    )
    assert selection_probabilities([1, 1, 3, 4]).tolist() == pytest.approx(
        [0.3871, 0.3871, 0.1290, 0.0968], abs=1e-4
    )
    assert selection_probabilities([1, 2, 2, 4]).tolist() == pytest.approx(
        [4 / 9, 2 / 9, 2 / 9, 1 / 9]
    )


def test_competition_ranks_gap_structure():
    assert competition_ranks(np.array([1.0, 1.0, 1.0, 2.0])).tolist() == [1, 1, 1, 4]
    assert competition_ranks(np.array([1.0, 2.0, 2.0, 3.0])).tolist() == [1, 2, 2, 4]
    assert competition_ranks(np.array([])).tolist() == []
    rows = np.array([[1.0, 1.0, 1.0, 2.0], [1.0, 2.0, 2.0, 3.0]])
    assert competition_ranks(rows).tolist() == [[1, 1, 1, 4], [1, 2, 2, 4]]


def test_probabilities_sum_to_one_large():
    for n in (2, 10, 100, 10_000):
        probs = selection_probabilities(np.arange(1, n + 1))
        assert abs(float(probs.sum()) - 1.0) < 1e-12


def test_no_ties_matches_harmonic_formula():
    for n in (5, 50, 500):
        probs = selection_probabilities(np.arange(1, n))
        h = harmonic(n - 1)
        expected = 1.0 / (h * np.arange(1, n))
        assert np.max(np.abs(probs - expected)) < 1e-12


def test_monotone_transform_leaves_ranking_unchanged():
    gen = np.random.default_rng(3)
    for _ in range(20):
        n = int(gen.integers(3, 40))
        dists = {j: float(v) for j, v in enumerate(gen.uniform(0, 10, n - 1), start=1)}
        if gen.random() < 0.5:  # inject ties
            keys = list(dists)
            dists[keys[0]] = dists[keys[-1]]
        r1 = build_local_ranking(0, dists, n=n)
        r2 = build_local_ranking(0, {k: np.expm1(v) + 2 * v for k, v in dists.items()}, n=n)
        assert r1.targets.tolist() == r2.targets.tolist()
        assert r1.ranks.tolist() == r2.ranks.tolist()
        assert np.allclose(r1.probabilities, r2.probabilities)


def test_build_validation():
    with pytest.raises(ValueError, match="rank itself"):
        build_local_ranking(0, {0: 1.0, 1: 2.0})
    with pytest.raises(ValueError, match="finite"):
        build_local_ranking(0, {1: float("nan")})
    with pytest.raises(ValueError, match="non-negative"):
        build_local_ranking(0, {1: -1.0})
    with pytest.raises(ValueError, match="misses"):
        build_local_ranking(0, {1: 1.0}, n=4)


def test_build_rejects_bad_target_ids():
    with pytest.raises(ValueError, match="negative target id -2"):
        build_local_ranking(0, {-2: 0.0, 1: 1.0}, n=3)
    with pytest.raises(ValueError, match="negative target id -1"):
        build_local_ranking(0, ([3, -1], [1.0, 2.0]))
    with pytest.raises(ValueError, match=r"target id 7 is outside \[0, 3\)"):
        build_local_ranking(0, {1: 0.0, 7: 1.0}, n=3)
    with pytest.raises(ValueError, match="target id 3 is outside"):
        build_local_ranking(0, ([1, 3], [1.0, 2.0]), n=3)
    with pytest.raises(ValueError, match="duplicate target id 2"):
        build_local_ranking(0, ([1, 2, 3, 2, 3, 3], [1.0] * 6))
    with pytest.raises(ValueError, match="duplicate target id 10000"):
        build_local_ranking(0, ([10**9, 10000, 10000], [1.0, 2.0, 3.0]))
    assert build_local_ranking(0, ([10**9, 10000], [1.0, 2.0])).targets.tolist() == [10**9, 10000]


def test_sampling_exhaustion_and_minimal():
    r = alice_ranking()
    full = sample_targets(r, 4, RngStream(0))
    assert sorted(full.tolist()) == [1, 2, 3, 4]
    single = build_local_ranking(0, {1: 2.0})
    assert sample_targets(single, 1, RngStream(1)).tolist() == [1]
    with pytest.raises(ValueError):
        sample_targets(r, 5, RngStream(2))
    with pytest.raises(ValueError):
        sample_targets(r, 0, RngStream(2))


def test_sampling_never_repeats():
    r = build_local_ranking(0, {j: float(j) for j in range(1, 12)})
    rng = RngStream(9)
    for _ in range(200):
        got = sample_targets(r, 6, rng)
        assert len(set(got.tolist())) == 6


def test_sampling_deterministic_for_fixed_stream():
    r = alice_ranking()
    a = [sample_targets(r, 2, RngStream(5, (k,))).tolist() for k in range(50)]
    b = [sample_targets(r, 2, RngStream(5, (k,))).tolist() for k in range(50)]
    assert a == b


def test_single_draw_frequencies():
    r = alice_ranking()
    rng = RngStream(77)
    counts = np.zeros(5)
    trials = 10**5
    for _ in range(trials):
        counts[sample_targets(r, 1, rng)[0]] += 1
    freq = counts[1:] / trials
    assert np.max(np.abs(freq - np.array([0.48, 0.24, 0.16, 0.12]))) < 0.01


def test_pairs_include_near_over_far():
    # drawing k=2: the top-ranked target must be included more often than the last
    r = alice_ranking()
    rng = RngStream(123)
    eve = bob = 0
    trials = 10**5
    for _ in range(trials):
        got = set(sample_targets(r, 2, rng).tolist())
        eve += 1 in got
        bob += 4 in got
    assert eve > bob


def test_single_draw_is_first_step_of_full_draw():
    r = build_local_ranking(0, {1: 3.0, 2: 1.0, 3: 3.0, 4: 7.0, 5: 2.0, 6: 7.0})
    for seed in range(30):
        single = sample_targets(r, 1, RngStream(seed))
        full = sample_targets(r, len(r), RngStream(seed))
        assert single.tolist() == full[:1].tolist()


@pytest.mark.parametrize(
    "distances, k",
    [
        ({1: 5.0, 2: 10.0, 3: 15.0, 4: 20.0}, 2),
        ({1: 15.0, 2: 15.0, 3: 20.0, 4: 30.0}, 2),
        ({1: 3.0, 2: 1.0, 3: 3.0, 4: 7.0, 5: 2.0, 6: 7.0}, 3),
        ({1: 3.0, 2: 1.0, 3: 3.0, 4: 7.0, 5: 2.0, 6: 7.0}, 1),
        ({1: 2.0, 2: 2.0, 3: 2.0, 4: 2.0, 5: 2.0}, 3),
    ],
)
def test_ordered_draws_follow_sequential_law(distances, k):
    # chi-square of the ordered k-draws against the exact law of drawing one
    # entry at a time without replacement
    r = build_local_ranking(0, distances)
    law = sequential_draw_law(r.ranks, k)
    position = {int(t): p for p, t in enumerate(r.targets)}
    index = {seq: c for c, seq in enumerate(law)}
    rng = RngStream(2006)
    trials = 20_000
    counts = np.zeros(len(law))
    for _ in range(trials):
        counts[index[tuple(position[int(t)] for t in sample_targets(r, k, rng))]] += 1
    expected = trials * np.array([float(p) for p in law.values()])
    assert expected.min() >= 5
    assert chisquare(counts, expected).pvalue > 1e-3


def test_sample_rows_skips_the_source_entry():
    # the source's own entry is ignored, even when it is not a valid distance
    rows = np.array([[np.nan, 1.0, 2.0, 2.0], [3.0, -1.0, 1.0, 0.0]])
    u = RngStream(3).generator.random((2, 4))
    got = sample_rows(rows, [0, 1], [3, 3], u)
    assert sorted(got[:3].tolist()) == [1, 2, 3]
    assert sorted(got[3:].tolist()) == [0, 2, 3]
    assert sample_rows(rows[:0], [], [], u[:0]).tolist() == []


def test_sample_rows_matches_sample_targets():
    # one row through the block kernel draws what sample_targets draws from
    # the same ranking and the same uniforms, id-ordered
    distances = {1: 3.0, 2: 1.0, 3: 3.0, 4: 7.0, 5: 2.0, 6: 7.0}
    r = build_local_ranking(0, distances)
    row = np.array([0.0] + [distances[j] for j in range(1, 7)])
    for seed in range(20):
        u = np.zeros((1, 7))
        u[0, r.targets] = RngStream(seed).generator.random(6)
        full = sample_targets(r, 6, RngStream(seed))
        assert sample_rows(row[None, :], [0], [6], u).tolist() == full.tolist()


def test_sample_rows_validation():
    u = np.full((1, 3), 0.5)
    with pytest.raises(ValueError, match="finite"):
        sample_rows([[0.0, np.inf, 1.0]], [0], [1], u)
    with pytest.raises(ValueError, match="non-negative"):
        sample_rows([[0.0, 1.0, -2.0]], [0], [1], u)
    with pytest.raises(ValueError, match="cannot draw 3 targets from 2"):
        sample_rows([[0.0, 1.0, 2.0]], [0], [3], u)
    with pytest.raises(ValueError, match="cannot draw 0 targets"):
        sample_rows([[0.0, 1.0, 2.0]], [0], [0], u)
    with pytest.raises(ValueError, match="uniforms"):
        sample_rows([[0.0, 1.0, 2.0]], [0], [1], u[:, :2])


def test_sample_rows_rejects_out_of_range_sources():
    u = np.full((1, 5), 0.5)
    for source in (-1, 7):
        with pytest.raises(ValueError, match=f"source id {source} is outside"):
            sample_rows(np.ones((1, 5)), [source], [1], u)


def test_top_keys_argmax_path_matches_argpartition_path():
    # single draws take the argmax; the first of two draws, on the same
    # keys, comes from the argpartition path
    gen = np.random.default_rng(4)
    for b, m in ((1, 2), (7, 5), (40, 300)):
        keys = gen.integers(1, m, (b, m)) * np.log1p(-gen.random((b, m)))
        keys[np.arange(b), gen.integers(0, m, b)] = -np.inf
        single = ranking._top_keys(keys, np.ones(b, dtype=np.int64))
        pairs = ranking._top_keys(keys, np.full(b, 2, dtype=np.int64)).reshape(b, 2)
        assert single.tolist() == pairs[:, 0].tolist()


def shared_order_block():
    """Rows with tied groups that all sort the targets one way, and that
    way as a hint.  The sources sit at hint positions 0 (first), 1 and 2
    (start and middle of a tie group), 6 (end of a tie group) and 9 (last);
    their own entries are NaN, which the sampler ignores."""
    gen = np.random.default_rng(8)
    base = gen.permutation([0.5, 1.0, 1.0, 1.0, 2.0, 3.0, 3.0, 4.0, 4.5, 6.0])
    order = np.argsort(base, kind="stable")
    sources = order[[0, 1, 2, 6, 9, 2]]
    rows = np.vstack([base, 2.0 * base, base + 1.0, base, base, base])
    rows[np.arange(len(sources)), sources] = np.nan
    return rows, sources, order


def test_order_hint_ranks_like_the_argsort():
    rows, sources, order = shared_order_block()
    targets = np.ones(rows.shape, dtype=bool)
    targets[np.arange(len(sources)), sources] = False
    by_hint = ranking._ranks_by_hint(rows, sources, order)
    assert by_hint is not None
    assert by_hint[targets].tolist() == ranking._ranks_by_sort(rows, sources)[targets].tolist()


def test_order_hint_never_changes_draws(ranked_rows):
    # a reversed or shuffled hint fails the per-row check, so the block is
    # argsorted; every hint gives the draws of no hint
    rows, sources, order = shared_order_block()
    b, n = rows.shape
    ks = np.array([1, 3, 9, 2, 5, 1])
    wrong = (order[::-1], np.random.default_rng(2).permutation(order))
    for seed in range(20):
        u = RngStream(seed).generator.random((b, n))
        plain = sample_rows(rows, sources, ks, u).tolist()
        assert sample_rows(rows, sources, ks, u, order).tolist() == plain
        for hint in wrong:
            assert sample_rows(rows, sources, ks, u, hint).tolist() == plain
    assert ranked_rows == {"hinted": 20 * b, "sorted": 20 * b * 3}


def test_sample_rows_rejects_a_hint_that_is_not_a_permutation():
    u = np.full((1, 3), 0.5)
    for hint in ([0, 0, 1], [0, 1], [0, 1, 3], [-1, 0, 1]):
        with pytest.raises(ValueError, match="not a permutation"):
            sample_rows([[0.0, 1.0, 2.0]], [0], [1], u, hint)
