import numpy as np
import pytest

from priorityrank.ranking import (
    build_local_ranking,
    competition_ranks,
    sample_targets,
    selection_probabilities,
)
from priorityrank.stats import RngStream, harmonic


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
