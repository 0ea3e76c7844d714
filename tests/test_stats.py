import math
import re

import numpy as np
import pytest

from priorityrank.stats import (
    RngStream,
    kolmogorov_q,
    ks_two_sample,
)

from _oracles import harmonic, ks_statistic_oracle


def test_ks_identical_samples():
    r = ks_two_sample([1, 2, 3], [1, 2, 3])
    assert r.statistic == 0.0
    assert r.p_value == 1.0


def test_ks_disjoint_supports():
    assert ks_two_sample([0, 0, 0], [1, 1, 1]).statistic == 1.0


def test_ks_hand_swept_example():
    # pooled sweep: gap is 0.25 at every step of the offset staircase
    assert ks_two_sample([1, 2, 3, 4], [2, 3, 4, 5]).statistic == pytest.approx(0.25)


def test_ks_matches_brute_force_oracle():
    gen = np.random.default_rng(11)
    for _ in range(300):
        n, m = int(gen.integers(1, 25)), int(gen.integers(1, 25))
        a = gen.normal(size=n)
        b = gen.normal(loc=gen.uniform(-1, 1), size=m)
        if gen.random() < 0.3:  # force ties across samples
            a = np.round(a)
            b = np.round(b)
        r = ks_two_sample(a, b)
        assert abs(r.statistic - ks_statistic_oracle(a, b)) < 1e-12


def test_ks_symmetry_and_transform_invariance():
    gen = np.random.default_rng(5)
    for _ in range(50):
        a = gen.exponential(size=int(gen.integers(2, 30)))
        b = gen.exponential(size=int(gen.integers(2, 30)))
        assert ks_two_sample(a, b).statistic == ks_two_sample(b, a).statistic
        t = lambda x: np.log1p(x) * 3.0 + 1.0
        d1 = ks_two_sample(a, b).statistic
        d2 = ks_two_sample(t(a), t(b)).statistic
        assert abs(d1 - d2) < 1e-12


def test_ks_p_value_monotone_in_statistic():
    # same sample sizes, increasing statistic -> non-increasing p
    ps = []
    for shift in (0.0, 0.5, 1.0, 2.0, 4.0):
        base = np.linspace(0, 1, 20)
        r = ks_two_sample(base, base + shift)
        ps.append((r.statistic, r.p_value))
    stats = [s for s, _ in ps]
    assert stats == sorted(stats)
    pvals = [p for _, p in ps]
    assert all(p1 >= p2 - 1e-15 for p1, p2 in zip(pvals, pvals[1:]))


def test_ks_rejects_bad_input():
    with pytest.raises(ValueError, match="non-empty"):
        ks_two_sample([], [1.0])
    with pytest.raises(ValueError, match="finite"):
        ks_two_sample([float("inf")], [1.0])


def test_harmonic_values():
    assert harmonic(1) == 1.0
    assert harmonic(4) == pytest.approx(1 + 0.5 + 1 / 3 + 0.25, abs=1e-15)


def test_kolmogorov_q_is_one_where_lambda_is_not_positive():
    assert kolmogorov_q(0.0) == kolmogorov_q(-1.0) == 1.0


def test_rng_stream_determinism():
    a = RngStream(42, (1, 2)).generator.random(100)
    b = RngStream(42, (1, 2)).generator.random(100)
    assert np.array_equal(a, b)
    c = RngStream(42, (1, 3)).generator.random(100)
    assert not np.array_equal(a, c)
    assert RngStream(42).child(1, 2).path == (1, 2)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: RngStream(2.9), "seed must be a whole number, got 2.9"),
        (lambda: RngStream(3).child(1.5), "stream path id must be a whole number, got 1.5"),
        (lambda: RngStream(3, (math.nan,)), "stream path id must be a whole number, got nan"),
        (lambda: RngStream(-1), "seed must be non-negative"),
        (lambda: RngStream(3).child(-1), "stream path ids must be non-negative"),
    ],
    ids=["float_seed", "float_child", "nan_path", "negative_seed", "negative_path"],
)
def test_rng_stream_rejects_bad_seeds_and_path_ids(make, message):
    # a float is never truncated: child(1.5) would be child(1)'s stream
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        make()


def test_rng_stream_takes_whole_numbers_as_ints():
    stream = RngStream(3.0).child(2.0, np.int64(1))
    assert stream == RngStream(3, (2, 1))
    assert type(stream.seed) is int and all(type(p) is int for p in stream.path)
    assert np.array_equal(stream.generator.random(5), RngStream(3, (2, 1)).generator.random(5))
