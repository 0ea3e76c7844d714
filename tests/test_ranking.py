from fractions import Fraction

import numpy as np
import pytest

from priorityrank import ranking
from priorityrank.generate import _row_draws
from priorityrank.ranking import (
    by_rejection,
    competition_ranks,
    sample_shared,
    selection_probabilities,
)
from priorityrank.stats import RngStream

from _oracles import (
    chisquare_pvalue,
    harmonic,
    lexsort_ranking,
    packed_keys,
    sample_rows,
    shared_vector_law,
    sort_rows,
)


# source 0's row: its own entry first, then vertices 1-4 at distinct distances
ALICE = np.array([0.0, 5.0, 10.0, 15.0, 20.0])


def ranked(row, source):
    """``(targets, ranks, probabilities)`` of one row sorted by ``sort_block``."""
    perm, ordered = sort_rows(np.asarray(row, dtype=np.float64)[None, :], [source])
    ranks = competition_ranks(ordered[0])
    return perm[0].tolist(), ranks.tolist(), selection_probabilities(ranks)


def test_distinct_distances_rank_1234():
    targets, ranks, probabilities = ranked(ALICE, 0)
    assert targets == [1, 2, 3, 4]
    assert ranks == [1, 2, 3, 4]
    assert probabilities.tolist() == pytest.approx([0.48, 0.24, 0.16, 0.12])


def test_tied_pair_shares_rank_one():
    # two nearest tie, ranking skips to 3
    targets, ranks, probabilities = ranked([0.0, 15.0, 15.0, 20.0, 30.0], 0)
    assert targets == [1, 2, 3, 4]
    assert ranks == [1, 1, 3, 4]
    assert probabilities.tolist() == pytest.approx(
        [12 / 31, 12 / 31, 4 / 31, 3 / 31]
    )


def test_all_tied_is_uniform():
    targets, ranks, probabilities = ranked([1.0, 1.0, 0.0, 1.0, 1.0], 2)
    assert targets == [0, 1, 3, 4]
    assert ranks == [1, 1, 1, 1]
    assert np.allclose(probabilities, 0.25)


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
    rows = np.array([[1.0, 1.0, 1.0, 2.0], [1.0, 2.0, 2.0, 3.0]])
    assert competition_ranks(rows).tolist() == [[1, 1, 1, 4], [1, 2, 2, 4]]
    for shape in ((0,), (3, 0), (0, 4), (0, 0)):
        empty = competition_ranks(np.zeros(shape))
        assert empty.shape == shape and empty.dtype == np.int64


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
        row = np.r_[0.0, gen.uniform(0, 10, n - 1)]
        if gen.random() < 0.5:  # inject ties
            row[1] = row[-1]
        targets, ranks, probabilities = ranked(row, 0)
        again = ranked(np.expm1(row) + 2 * row, 0)
        assert targets == again[0]
        assert ranks == again[1]
        assert np.allclose(probabilities, again[2])


def broadcast_draws(row, k, trials, gen):
    """``trials`` draws of k targets of source 0 from ``row``, through
    ``sort_block`` and ``sample_sorted`` on the row broadcast, one draw a
    row of the result."""
    rows = np.broadcast_to(np.asarray(row, dtype=np.float64), (trials, len(row)))
    u = gen.random(rows.shape)
    return sample_rows(rows, np.zeros(trials, dtype=np.int64), np.full(trials, k), u).reshape(trials, k)


def test_sampling_exhaustion_and_minimal():
    full = broadcast_draws(ALICE, 4, 50, RngStream(0).generator)
    assert {tuple(sorted(draw)) for draw in full.tolist()} == {(1, 2, 3, 4)}
    assert broadcast_draws([0.0, 2.0], 1, 20, RngStream(1).generator).tolist() == [[1]] * 20
    for k in (5, 0):
        with pytest.raises(ValueError, match=f"cannot draw {k} targets from 4"):
            broadcast_draws(ALICE, k, 1, RngStream(2).generator)


def test_sampling_never_repeats():
    got = broadcast_draws(np.arange(12.0), 6, 200, RngStream(9).generator)
    assert all(len(set(draw)) == 6 for draw in got.tolist())


def test_sampling_deterministic_for_fixed_stream():
    def draws():
        return [broadcast_draws(ALICE, 2, 1, RngStream(5, (k,)).generator).tolist() for k in range(50)]

    assert draws() == draws()


def test_single_draw_frequencies():
    # k = 1 sits at the rejection limit of n = 5, so both kernels serve it
    trials = 10**5
    gen = RngStream(77).generator
    assert by_rejection(len(ALICE), [1]).tolist() == [True]
    shared = sample_shared(ALICE, np.zeros(trials), np.ones(trials), gen)
    keyed = broadcast_draws(ALICE, 1, trials, gen)[:, 0]
    for got in (shared, keyed):
        freq = np.bincount(got, minlength=5)[1:] / trials
        assert np.max(np.abs(freq - np.array([0.48, 0.24, 0.16, 0.12]))) < 0.01


def test_pairs_include_near_over_far():
    # drawing k=2: the top-ranked target must be included more often than the last
    got = broadcast_draws(ALICE, 2, 10**5, RngStream(123).generator)
    eve = int((got == 1).any(axis=1).sum())
    bob = int((got == 4).any(axis=1).sum())
    assert eve > bob


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
    # chi-square of source 0's ordered k-draws against the exact law of
    # drawing one entry at a time without replacement, through the block
    # kernel and, where the rejection limit admits k, the shared kernel
    row = np.array([0.0] + [distances[j] for j in range(1, len(distances) + 1)])
    n, trials = len(row), 20_000
    law = shared_vector_law(row, 0, k)
    assert trials * min(law.values()) >= 5
    gen = RngStream(2006).generator
    drawn = [broadcast_draws(row, k, trials, gen)]
    # of the five cases, only k = 1 of n = 7 lies under the rejection limit
    if by_rejection(n, [k])[0]:
        drawn.append(sample_shared(row, np.zeros(trials), np.full(trials, k), gen).reshape(trials, k))
    assert len(drawn) == 1 + (k == 1)
    for got in drawn:
        assert chisquare_pvalue(law, [tuple(draw) for draw in got.tolist()]) > 1e-3


def test_sample_rows_skips_the_source_entry():
    # the source's own entry is ignored, even when it is not a valid distance
    rows = np.array([[np.nan, 1.0, 2.0, 2.0], [3.0, -1.0, 1.0, 0.0]])
    u = RngStream(3).generator.random((2, 4))
    got = sample_rows(rows, [0, 1], [3, 3], u)
    assert sorted(got[:3].tolist()) == [1, 2, 3]
    assert sorted(got[3:].tolist()) == [0, 2, 3]
    assert sample_rows(rows[:0], [], [], u[:0]).tolist() == []


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


def tied_block():
    """Rows with tied groups that all sort the targets one way.  The sources
    sit at sorted positions 0 (first), 1 and 2 (start and middle of a tie
    group), 6 (end of a tie group) and 9 (last); their own entries are NaN,
    which the sampler ignores."""
    gen = np.random.default_rng(8)
    base = gen.permutation([0.5, 1.0, 1.0, 1.0, 2.0, 3.0, 3.0, 4.0, 4.5, 6.0])
    sources = np.argsort(base, kind="stable")[[0, 1, 2, 6, 9, 2]]
    rows = np.vstack([base, 2.0 * base, base + 1.0, base, base, base])
    rows[np.arange(len(sources)), sources] = np.nan
    return rows, sources


def test_packed_keys_rank_like_the_argsort():
    # both sorts of sort_block list every row's n - 1 targets in the order
    # of the per-vertex ranking, up to ties; the source's key sorts last
    # and is dropped
    rows, sources = tied_block()
    b, n = rows.shape
    packed = sort_rows(rows, sources)
    for perm, ordered in (ranking._rows_by_sort(rows, sources), packed):
        assert perm.shape == ordered.shape == (b, n - 1)
        for r, source in enumerate(sources.tolist()):
            assert sorted(perm[r].tolist()) == sorted(set(range(n)) - {source})
            expected = lexsort_ranking(rows[r], source).distances
            assert ordered[r].tolist() == expected.tolist()
            assert rows[r, perm[r]].tolist() == expected.tolist()
    # packed keys break ties by id
    for r in range(b):
        groups = np.split(packed[0][r], np.flatnonzero(np.diff(packed[1][r])) + 1)
        assert all((np.diff(group) > 0).all() for group in groups)


def test_argsorted_rows_list_ties_by_id(ranked_rows):
    # exact ties beside a pair that differs only in the id bits, the larger
    # distance at the smaller id: the packed order puts the pair the wrong
    # way round, so every row is argsorted, and must still list tied
    # targets by id, as a stable argsort does
    gen = np.random.default_rng(8)
    n, b = 100, 60
    sources = gen.integers(0, n, b)
    rows = gen.choice([0.25, 0.5, 0.75], (b, n))
    for r, source in enumerate(sources):
        low, high = np.sort(gen.choice(np.delete(np.arange(n), source), 2, replace=False))
        rows[r, low] = np.nextafter(rows[r, high], np.inf)
    ranked = ranking.sort_block(rows, sources)
    assert ranked_rows["sorted"] == b
    for r, source in enumerate(sources.tolist()):
        expected = lexsort_ranking(rows[r], source)
        assert ranked.perm[r].tolist() == expected.targets.tolist()
        assert ranked.ordered[r].tolist() == expected.distances.tolist()


def packed_cases(n, b, seed):
    """``b`` sources of n vertices and, by name, a (b, n) block of their
    distance rows for each kind of row that the packed keys must sort like
    an argsort.  A source's own entry is NaN, which the sampler ignores."""
    gen = np.random.default_rng(seed)
    sources = np.sort(gen.choice(n, size=min(b, n), replace=False))
    rows = np.arange(len(sources))
    shape = (len(sources), n)
    bits = (n - 1).bit_length()
    # one pair per row that differs only in the id bits, as a nextafter
    # step or a flipped low bit, at random ids: the packed order puts about
    # half of them the wrong way round
    near = gen.random(shape)
    i, j = gen.integers(0, n, (2, len(sources)))
    step = np.nextafter(near[rows, i], np.inf)
    low_bit = np.uint64(1) << gen.integers(0, bits, len(sources)).astype(np.uint64)
    flipped = (near[rows, i].view(np.uint64) ^ low_bit).view(np.float64)
    near[rows, j] = np.where(rows % 2 == 0, step, flipped)
    # a +0.0 and a -0.0 tie; a lone -0.0 leaves a row tie-free
    zeros = gen.random(shape)
    zeros[rows, i] = -0.0
    zeros[rows[::2], j[::2]] = 0.0
    # subnormals, with ties, beside values near the largest double
    extreme = np.where(
        gen.random(shape) < 0.5,
        gen.integers(0, 40, shape) * 5e-324,
        1e308 * (1.0 - 1e-13 * gen.random(shape)),
    )
    cases = {
        "continuous": gen.random(shape),
        "integers": gen.integers(0, 4, shape).astype(np.float64),
        "low_bits": near,
        "signed_zeros": zeros,
        "extreme": extreme,
    }
    for block in cases.values():
        block[rows, sources] = np.nan
    return sources, cases


def argsorted_keys(distances, sources):
    """A stand-in for the packed sort: the argsort's order in place of the
    keys, and the tie check on the argsort's sorted values."""
    perm, ordered = ranking._rows_by_sort(distances, sources)
    return perm.astype(np.uint64), ~(ordered[:, 1:] == ordered[:, :-1]).any(axis=1)


def draws_of_rows(sources, block, seed):
    """The targets that ``sample_rows`` and the generator's row draws take
    from ``block``, the rows of ``sources``, and which rows are tie-free."""
    n = block.shape[1]
    gen = np.random.default_rng(seed)
    small = gen.integers(1, max(2, (n - 1) // 4 + 1), n)
    ks = np.where(gen.random(n) < 0.7, small, gen.integers(1, n, n))
    direct = by_rejection(n, ks[sources])
    slots = sample_shared(np.arange(n), np.full(direct.sum(), n - 1), ks[sources][direct], gen)
    u = RngStream(seed).generator.random(block.shape)
    keyed = sample_rows(block, sources, ks[sources], u)
    heads, tails = _row_draws(sources, ks, slots, lambda s: block[np.searchsorted(sources, s)], RngStream(seed))
    tie_free = ranking.sort_block(block, sources).tie_free
    return keyed.tolist(), np.concatenate(heads).tolist(), np.concatenate(tails).tolist(), tie_free.tolist()


@pytest.mark.parametrize("n, b", [(2, 2), (9, 9), (64, 64), (1024, 24), (1025, 24)])
def test_packed_keys_draw_like_the_argsort(monkeypatch, ranked_rows, n, b):
    # the packed sort, with its tie check, gather and argsort fallback,
    # gives the draws of an argsort of every row on rows that test its
    # exactness argument, at the edges of the id bit width
    tie_free, argsorted = {}, {}
    for seed in range(20):
        sources, cases = packed_cases(n, b, seed)
        for name, block in cases.items():
            ranked_rows["sorted"] = 0
            packed = draws_of_rows(sources, block, seed)
            argsorted[name] = argsorted.get(name, 0) + ranked_rows["sorted"]
            tie_free.setdefault(name, set()).update(packed[3])
            with monkeypatch.context() as patched:
                patched.setattr(ranking, "_rows_by_keys", argsorted_keys)
                assert draws_of_rows(sources, block, seed) == packed, (name, seed)
    if n > 2:
        # tie-free and tied rows where the case makes them; pairs that differ
        # only in the id bits need the argsort, as do the near-1e308 values,
        # which lie within a few thousand steps of each other
        assert False in tie_free.pop("extreme")
        assert tie_free == {"continuous": {True}, "integers": {False}, "low_bits": {True},
                            "signed_zeros": {True, False}}
        assert argsorted.pop("low_bits") > 0 and argsorted.pop("extreme") > 0
    # a -0.0 leaves its row unproven, and an unproven row is argsorted
    assert argsorted.pop("signed_zeros") > 0
    assert set(argsorted.values()) == {0}


def odd_rows(block, sources):
    """Rows with a negative, -0.0, infinite or NaN entry besides the
    source's own."""
    odd = np.signbit(block) | ~np.isfinite(block)
    odd[np.arange(len(sources)), sources] = False
    return odd.any(axis=1)


@pytest.mark.parametrize("n, b", [(2, 2), (9, 9), (64, 64), (1024, 24), (1025, 24)])
def test_packed_keys_match_the_first_build(n, b):
    # the bit-view build, sorted in float order and proved on the integer
    # bits, gives the keys and tie flags of the + 0.0 copy sorted as uint64
    # on every row with no odd entry, and leaves every odd row unproven
    odd_seen = 0
    for seed in range(3):
        sources, cases = packed_cases(n, b, seed)
        for name, block in cases.items():
            keys, tie_free = ranking._rows_by_keys(block, sources)
            old_keys, old_tie_free = packed_keys(block, sources)
            odd = odd_rows(block, sources)
            odd_seen += odd.sum()
            assert keys[~odd].tolist() == old_keys[~odd].tolist(), (name, seed)
            assert tie_free[~odd].tolist() == old_tie_free[~odd].tolist(), (name, seed)
            assert not tie_free[odd].any(), (name, seed)
    assert odd_seen > 0


def first_build_outcome(block, sources):
    """The first build's error, or every row's targets and tie flags as
    ``sort_block`` lists them from it: a row that the first build's keys
    prove tie-free in key order, and any other row as a stable argsort lists
    it, tied targets by id, with a flag that says whether it holds a tie."""
    try:
        keys, proven = packed_keys(block, sources)
    except ValueError as exc:
        return str(exc)
    targets = (keys & np.uint64(ranking._id_mask(block.shape[1]))).tolist()
    tie_free = proven.tolist()
    for r, source in enumerate(sources.tolist()):
        if not proven[r]:
            expected = lexsort_ranking(block[r], source)
            targets[r] = expected.targets.tolist()
            tie_free[r] = bool((np.diff(expected.distances) != 0).all())
    return targets, tie_free


def block_outcome(block, sources, need=None):
    """``sort_block``'s error, or every row's targets in sorted order and
    its tie flags."""
    try:
        ranked = ranking.sort_block(block, sources, need)
    except ValueError as exc:
        return str(exc)
    return (ranked.ids & ranked.mask).tolist(), ranked.tie_free.tolist()


ODD_ENTRIES = [-0.0, np.inf, np.nan, -np.inf, -5e-324, -2.0, 5e-324]


@pytest.mark.parametrize("source, target", [(3, 0), (3, 1), (3, 5), (0, 1), (0, 5)])
@pytest.mark.parametrize("odd", ODD_ENTRIES)
def test_odd_entries_keep_the_first_build_outcome(source, target, odd):
    # a row whose one odd entry sorts first, last or beside the source's
    # +inf key raises the first build's error, or reads -0.0 as +0.0, with
    # every row held in full or only the rows it cannot prove
    n = 6
    row = np.array([[3.0, 1.0, 0.0, 2.0, 4.0, 0.5]])
    row[0, target] = odd
    # the same entry twice, so that the source's +inf is not the last key kept
    twice = row.copy()
    twice[0, 4] = odd
    block = np.vstack([row, [[9.0, 8.0, 7.0, 6.0, 5.0, 4.0]], twice])
    sources = np.array([source, 2, source])
    expected = first_build_outcome(block, sources)
    assert block_outcome(block, sources) == expected
    assert block_outcome(block, sources, np.zeros(3, dtype=bool)) == expected
    if not np.isfinite(odd):
        assert expected == "distances must be finite"
    elif odd < 0.0:
        assert expected == "distances must be non-negative"
    else:
        assert [len(targets) for targets in expected[0]] == [n - 1] * 3


def test_finite_is_checked_before_non_negative():
    # the first build checks the whole block for non-finite entries first
    sources = np.array([0, 0, 0])
    for order in ([-1.0, np.inf, 2.0], [np.inf, -1.0, 2.0], [np.nan, -0.0, -5e-324]):
        block = np.array([[0.0, 1.0, x] for x in order])
        for need in (None, np.zeros(3, dtype=bool)):
            assert block_outcome(block, sources, need) == "distances must be finite"
        assert first_build_outcome(block, sources) == "distances must be finite"


# Sorted, the vector reads 0.5 | 1.0 1.0 1.0 | 2.0 | 3.0 | 4.0: vertices
# 1, 2 and 4 start, sit inside and end a tie group; 5, 0 and 6 are
# singletons, first, inside and last.
SHARED = np.array([2.0, 1.0, 1.0, 3.0, 1.0, 0.5, 4.0])


@pytest.mark.parametrize("kernel", ["shared", "rows"])
@pytest.mark.parametrize("k", [1, 2, len(SHARED) - 2])
@pytest.mark.parametrize("source", [1, 2, 4, 5, 0, 6])
def test_shared_vector_draws_follow_exact_law(kernel, k, source):
    # chi-square of ordered k-draws against exact enumeration; k = 1 lies
    # under the rejection limit of n = 7, k = 2 and n - 2 above it, and
    # both kernels must draw the same law on the broadcast rows
    n, trials = len(SHARED), 10_000
    assert by_rejection(n, [1, 2]).tolist() == [True, False]
    sources, ks = np.full(trials, source), np.full(trials, k)
    gen = RngStream(31, (source, k)).generator
    if kernel == "shared":
        got = sample_shared(SHARED, sources, ks, gen)
    else:
        rows = np.broadcast_to(SHARED, (trials, n))
        got = sample_rows(rows, sources, ks, gen.random((trials, n)))
    draws = [tuple(row) for row in got.reshape(trials, k).tolist()]
    assert chisquare_pvalue(shared_vector_law(SHARED, source, k), draws) > 1e-3


def test_shared_kernel_uniform_on_an_all_tied_vector():
    # every ordered pair of distinct targets is equally likely
    n, k, trials = 6, 2, 12_000
    got = sample_shared(np.zeros(n), np.full(trials, 3), np.full(trials, k), RngStream(5).generator)
    law = shared_vector_law(np.zeros(n), 3, k)
    assert set(law.values()) == {Fraction(1, 20)}
    assert chisquare_pvalue(law, [tuple(r) for r in got.reshape(trials, k).tolist()]) > 1e-3


def test_shared_kernel_draws_distinct_targets_in_row_order():
    gen = np.random.default_rng(1)
    d = gen.integers(0, 5, 300).astype(float)
    sources = np.arange(300)
    ks = gen.integers(1, 75, 300)
    got = sample_shared(d, sources, ks, RngStream(2).generator)
    assert len(got) == ks.sum()
    for source, targets in zip(sources, np.split(got, np.cumsum(ks)[:-1])):
        assert len(set(targets.tolist())) == len(targets)
        assert source not in targets
    again = sample_shared(d, sources, ks, RngStream(2).generator)
    assert again.tolist() == got.tolist()


def test_shared_kernel_exhausts_and_validates():
    d = np.array([1.0, 1.0, 2.0, 0.0])
    got = sample_shared(d, [0, 3], [3, 3], RngStream(3).generator)
    assert sorted(got[:3].tolist()) == [1, 2, 3]
    assert sorted(got[3:].tolist()) == [0, 1, 2]
    assert sample_shared(d, [], [], RngStream(3).generator).tolist() == []
    gen = RngStream(4).generator
    with pytest.raises(ValueError, match="finite"):
        sample_shared([0.0, np.inf, 1.0], [0], [1], gen)
    with pytest.raises(ValueError, match="non-negative"):
        sample_shared([0.0, 1.0, -2.0], [0], [1], gen)
    with pytest.raises(ValueError, match="cannot draw 3 targets from 2"):
        sample_shared([0.0, 1.0, 2.0], [0], [3], gen)
    with pytest.raises(ValueError, match="source id 3 is outside"):
        sample_shared([0.0, 1.0, 2.0], [3], [1], gen)
    with pytest.raises(ValueError, match="one shared distance vector"):
        sample_shared([[0.0, 1.0, 2.0]], [0], [1], gen)
    with pytest.raises(ValueError, match="one draw count per row"):
        sample_shared([0.0, 1.0, 2.0], [0, 1], [1], gen)
    with pytest.raises(ValueError, match=r"^need one source per row, got \(1, 2\) for 1 rows$"):
        sample_shared([0.0, 1.0, 2.0], [[0, 1]], [1], gen)


def test_rejection_limit_reads_only_n_and_k():
    assert by_rejection(9, [1, 2, 3]).tolist() == [True, True, False]
    assert by_rejection(2, [1]).tolist() == [False]
    assert by_rejection(2001, [500, 501]).tolist() == [True, False]
