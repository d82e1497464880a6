import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ordstat as o
from ordstat import (
    BudgetError,
    EvalStats,
    RankError,
    RealSequence,
    SequenceError,
)

finite = st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False)
short_seqs = st.lists(finite, min_size=1, max_size=7)


def sort_oracle(rank, values):
    return sorted(float(v) for v in values)[rank - 1]


def signed(value):
    """A float with its sign, so that -0.0 and 0.0 compare unequal."""
    return value, math.copysign(1, value)


class TestRealSequence:
    def test_values_coerced_to_float(self):
        seq = RealSequence((5, 1, 9))
        assert seq.values == (5.0, 1.0, 9.0)
        assert all(isinstance(v, float) for v in seq.values)

    def test_len_iter_value_at(self):
        seq = RealSequence([10, 20, 30])
        assert len(seq) == 3
        assert list(seq) == [10.0, 20.0, 30.0]

    def test_empty_rejected(self):
        with pytest.raises(SequenceError):
            RealSequence(())

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(SequenceError, match=f"must be finite, got {bad!r}"):
            RealSequence([1.0, bad, float("nan")])

    def test_duplicates_permitted(self):
        assert RealSequence([2, 2, 2]).values == (2.0, 2.0, 2.0)

    # The finiteness check sums the values and scans only when the sum is
    # not finite; these hold whether or not sum() compensates (3.12 on).
    def test_overflowing_sum_accepted(self):
        assert RealSequence([1e308, 1e308, -1e308]).values == (1e308, 1e308, -1e308)

    @pytest.mark.parametrize("values,bad", [
        ([math.inf, -math.inf], "inf"),
        ([1.0, math.nan, math.inf], "nan"),
        ([1e308, 1e308, -math.inf], "-inf"),
        ([-1e308, -1e308, math.nan], "nan"),
    ])
    def test_first_non_finite_named(self, values, bad):
        with pytest.raises(SequenceError, match=f"^sequence values must be finite, got {bad}$"):
            RealSequence(values)

    def test_conversions_unchanged(self):
        seq = RealSequence([True, "1", 2])
        assert seq.values == (1.0, 1.0, 2.0)
        assert all(type(v) is float for v in seq.values)
        with pytest.raises(ValueError):
            RealSequence(["x"])


# An int past the float range is refused with each entry's documented
# error, as the float 1e400 (inf) is, not with float()'s OverflowError.
@pytest.mark.parametrize("call,error", [
    (lambda: RealSequence([10 ** 400]), SequenceError),
    (lambda: RealSequence([1.0, -10 ** 400]), SequenceError),
    (lambda: o.select_memo(1, [1.0, 10 ** 400]), SequenceError),
    (lambda: o.median([10 ** 400]), SequenceError),
    (lambda: o.VerifyPlan(alphabet=(10 ** 400,)), ValueError),
    (lambda: o.VerifyPlan(alphabet=(0.0, -10 ** 400)), ValueError),
    (lambda: o.const(10 ** 400), o.ExprError),
    (lambda: o.const(-10 ** 400), o.ExprError),
    (lambda: o.pairwise_max_arith(1, 10 ** 400), SequenceError),
    (lambda: o.pairwise_min_arith(-10 ** 400, 1), SequenceError),
], ids=["sequence", "sequence-negative", "select_memo", "median", "alphabet",
        "alphabet-negative", "const", "const-negative", "pairwise_max_arith",
        "pairwise_min_arith"])
def test_int_past_float_range_refused(call, error):
    with pytest.raises(error, match="finite"):
        call()


class TestPairwiseArith:
    def test_known_pairs(self):
        assert o.pairwise_min_arith(1, 2) == 1
        assert o.pairwise_max_arith(1, 2) == 2
        assert o.pairwise_min_arith(-3, 7) == -3
        assert o.pairwise_max_arith(-3, 7) == 7

    @given(finite)
    def test_equal_arguments(self, a):
        assert o.pairwise_min_arith(a, a) == a
        assert o.pairwise_max_arith(a, a) == a

    def test_non_finite_rejected(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(SequenceError):
                o.pairwise_min_arith(bad, 1.0)
            with pytest.raises(SequenceError):
                o.pairwise_max_arith(1.0, bad)

    @given(st.integers(min_value=-2 ** 50, max_value=2 ** 50),
           st.integers(min_value=-2 ** 50, max_value=2 ** 50))
    def test_exact_on_wide_integers(self, a, b):
        assert o.pairwise_min_arith(a, b) == min(a, b)
        assert o.pairwise_max_arith(a, b) == max(a, b)

    @given(finite, finite)
    def test_float_pairs_within_tolerance(self, a, b):
        scale = max(1.0, abs(a), abs(b))
        assert abs(o.pairwise_min_arith(a, b) - min(a, b)) <= 1e-12 * scale
        assert abs(o.pairwise_max_arith(a, b) - max(a, b)) <= 1e-12 * scale

    def test_overflow_range_rejected(self):
        for a, b in ((1e308, 1e308), (-1.7e308, 1.7e308), (1.0, -1e308)):
            with pytest.raises(SequenceError):
                o.pairwise_min_arith(a, b)
            with pytest.raises(SequenceError):
                o.pairwise_max_arith(a, b)

    def test_exact_at_range_edge(self):
        top = 2.0 ** 1022
        for a, b in ((top, top), (-top, top), (top, -top), (-top, -top)):
            assert o.pairwise_min_arith(a, b) == min(a, b)
            assert o.pairwise_max_arith(a, b) == max(a, b)


class TestSelectGolden:
    def test_naive_examples(self, backend):
        assert o.select_naive(1, [7]) == 7
        assert o.select_naive(2, [5, 1, 9]) == 5
        assert o.select_naive(3, [4, 1, 3, 2]) == 3

    def test_memo_examples(self, backend):
        assert o.select_memo(3, [4, 1, 3, 2]) == 3
        assert o.select_memo(1, [7]) == 7
        assert o.select_memo(4, [9, 9, 1, 5]) == 9

    def test_fullrange_examples(self, backend):
        assert o.select_fullrange(2, [5, 1, 9]) == 5
        assert o.select_fullrange(1, [3, 3]) == 3
        assert o.select_fullrange(3, [2, 1, 3]) == 3

    @pytest.mark.parametrize("rank", [0, 4, -1])
    def test_rank_out_of_range(self, rank):
        for fn in (o.select_naive, o.select_memo, o.select_fullrange):
            with pytest.raises(RankError):
                fn(rank, [5, 1, 9])

    def test_empty_sequence(self):
        for fn in (o.select_naive, o.select_memo, o.select_fullrange):
            with pytest.raises(SequenceError):
                fn(1, [])


class TestStats:
    def test_naive_counts(self, backend):
        stats = EvalStats()
        o.select_naive(3, [4.0, 1.0, 3.0, 2.0], stats)
        # (N - n + 2)^(n - 1) = 3^2 base cases; 1 + 3 + 9 total entries
        assert stats.base_case_calls == 9
        assert stats.recursive_calls == 13
        assert stats.memo_hits == 0

    def test_rank_one_single_base_case(self, backend):
        stats = EvalStats()
        o.select_naive(1, list(range(6)), stats)
        assert stats.base_case_calls == 1
        assert stats.recursive_calls == 1

    def test_memo_never_exceeds_naive(self, backend):
        for length in range(1, 7):
            values = [((k * 7) % 5) - 2.0 for k in range(length)]
            for rank in range(1, length + 1):
                sn, sm = EvalStats(), EvalStats()
                o.select_naive(rank, values, sn)
                o.select_memo(rank, values, sm)
                assert sm.base_case_calls <= sn.base_case_calls
                assert sm.recursive_calls <= sn.recursive_calls
                assert sn.base_case_calls <= sn.recursive_calls
                assert sm.base_case_calls <= sm.recursive_calls

    def test_stats_accumulate_across_calls(self, backend):
        stats = EvalStats()
        o.select_naive(1, [1.0, 2.0], stats)
        o.select_naive(1, [1.0, 2.0], stats)
        assert stats.recursive_calls == 2

    def test_count_independent_of_values(self, backend):
        a, b = EvalStats(), EvalStats()
        o.select_naive(3, [9.0, -2.0, 4.5, 0.0, 1.0], a)
        o.select_naive(3, [0.0, 0.0, 0.0, 0.0, 0.0], b)
        assert a.base_case_calls == b.base_case_calls
        assert a.recursive_calls == b.recursive_calls


class TestSelectProperties:
    @given(short_seqs, st.data())
    @settings(max_examples=150)
    def test_matches_sort_oracle(self, values, data):
        rank = data.draw(st.integers(min_value=1, max_value=len(values)))
        expected = sort_oracle(rank, values)
        assert o.select_naive(rank, values) == expected
        assert o.select_memo(rank, values) == expected
        assert o.select_fullrange(rank, values) == expected

    @given(short_seqs, st.data())
    @settings(max_examples=100)
    def test_permutation_invariance(self, values, data):
        rank = data.draw(st.integers(min_value=1, max_value=len(values)))
        perm = data.draw(st.permutations(values))
        assert o.select_naive(rank, perm) == o.select_naive(rank, values)

    @given(short_seqs)
    @settings(max_examples=100)
    def test_rank_monotone(self, values):
        picks = [o.select_naive(r, values) for r in range(1, len(values) + 1)]
        assert all(a <= b for a, b in zip(picks, picks[1:]))

    @given(st.lists(st.integers(min_value=-50, max_value=50),
                    min_size=1, max_size=6),
           st.integers(min_value=-9, max_value=9).filter(lambda a: a != 0),
           st.integers(min_value=-50, max_value=50),
           st.data())
    @settings(max_examples=100)
    def test_affine_equivariance_integer_exact(self, values, a, b, data):
        rank = data.draw(st.integers(min_value=1, max_value=len(values)))
        mapped = [a * v + b for v in values]
        if a > 0:
            assert o.select_naive(rank, mapped) == a * o.select_naive(rank, values) + b
        else:
            flipped = len(values) + 1 - rank
            assert o.select_naive(rank, mapped) == a * o.select_naive(flipped, values) + b

    @given(short_seqs, finite.filter(lambda a: abs(a) > 1e-6), finite, st.data())
    @settings(max_examples=100)
    def test_affine_equivariance_float_tolerance(self, values, a, b, data):
        rank = data.draw(st.integers(min_value=1, max_value=len(values)))
        mapped = [a * v + b for v in values]
        if any(not math.isfinite(m) for m in mapped):
            return
        src_rank = rank if a > 0 else len(values) + 1 - rank
        expected = a * o.select_naive(src_rank, values) + b
        got = o.select_naive(rank, mapped)
        scale = max(1.0, max(abs(m) for m in mapped), abs(expected))
        assert abs(got - expected) <= 1e-12 * scale


class TestBudget:
    def test_naive_budget_refused(self):
        # (30 - 15 + 2)^14 base cases is far past the default budget
        with pytest.raises(BudgetError):
            o.select_naive(15, list(range(30)))

    def test_naive_budget_flag_allows_small(self):
        assert o.select_naive(2, [3.0, 1.0, 2.0], budget=100) == 2

    def test_naive_budget_flag_refuses(self):
        with pytest.raises(BudgetError):
            o.select_naive(3, list(range(8)), budget=10)

    def test_env_var_budget(self, monkeypatch):
        monkeypatch.setenv(o.BUDGET_ENV_VAR, "10")
        with pytest.raises(BudgetError):
            o.select_naive(3, list(range(8)))

    def test_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv(o.BUDGET_ENV_VAR, "10")
        assert o.select_naive(3, list(range(8)), budget=10 ** 6) == 2

    def test_bad_env_value(self, monkeypatch):
        monkeypatch.setenv(o.BUDGET_ENV_VAR, "not-a-number")
        with pytest.raises(BudgetError):
            o.resolve_budget(None)

    def test_memo_budget_refused(self):
        with pytest.raises(BudgetError):
            o.select_memo(40, list(range(80)))

    def test_naive_count_formula(self):
        assert o.naive_call_count(4, 3) == 9
        assert o.naive_call_count(3, 3) == 4
        assert o.naive_call_count(10, 1) == 1


class TestWideMemo:
    def test_memo_beyond_bitmask_width(self, backend):
        # Rank 1 over 70 values: memo state space is tiny but the index
        # set no longer fits a 64-bit mask; must still answer correctly.
        values = [float((k * 13) % 71) for k in range(70)]
        assert o.select_memo(1, values) == min(values)
        assert o.select_memo(70, values) == max(values)

    def test_memo_deep_rank(self, backend):
        # Maximum rank keeps the branch factor at 2, so the state space
        # stays quadratic even when the recursion is very deep.
        values = [float((k * 29) % 397) for k in range(400)]
        assert o.select_memo(400, values) == max(values)

    @pytest.mark.parametrize("length", [65, 96])
    def test_long_memo_matches_reference(self, backend, length):
        from ordstat import _pykernels
        values = [float((k * 37) % 101) for k in range(length)]
        for rank in (2, 3, length):
            stats = EvalStats()
            value = o.select_memo(rank, values, stats)
            counters = (stats.recursive_calls, stats.base_case_calls, stats.memo_hits)
            assert (value, *counters) == _pykernels.select_memo(values, rank)

    def test_oversized_level_refused(self, backend):
        # C(201, 99) states: the default budget refuses them. With the
        # budget lifted, every backend answers, and the counters are the
        # closed form's Python ints, so none wraps past 64 bits.
        from ordstat import _pykernels
        with pytest.raises(BudgetError):
            o.select_memo(100, range(200))
        stats = EvalStats()
        assert o.select_memo(100, range(200), stats, budget=10**70) == 99.0
        counters = (stats.recursive_calls, stats.base_case_calls, stats.memo_hits)
        assert counters == _pykernels._memo_counts(200, 100)
        assert min(counters) > 2**64
        assert o.select_fullrange(100, range(200), budget=10**70) == 99.0

    def test_counters_past_64_bits_need_no_stats(self, backend):
        # C(64, 33) base cases overflow 64 bits; without stats nothing counts.
        assert o.select_memo(32, range(64), budget=10**70) == 31.0

    def test_memo_state_count_quadratic_at_max_rank(self):
        from ordstat.selection import memo_state_count
        assert memo_state_count(70, 70) == sum(t + 1 for t in range(70))
        assert memo_state_count(5, 1) == 1


def memoized_recursion_counts(length, rank):
    """(recursive_calls, base_case_calls, memo_hits) of the memoized
    recursion itself, run on the positions 0..length-1 and keyed on the
    surviving ones."""
    solved, counts = set(), [0, 0, 0]

    def solve(survivors, m):
        counts[0] += 1
        if survivors in solved:
            counts[2] += 1
            return
        solved.add(survivors)
        if m == 1:
            counts[1] += 1
            return
        for j in range(len(survivors) - m + 2):
            solve(survivors[:j] + survivors[j + 1:], m - 1)

    solve(tuple(range(length)), rank)
    return tuple(counts)


class TestMemoCountersOnRequest:
    def test_one_kernel_call_and_no_counters_without_stats(self, backend, monkeypatch):
        from ordstat import _backend, _pykernels, selection
        kern = _backend.kernels()
        calls = []

        class Recording:
            """The active kernels, recording every entry the selectors call."""

            def __getattr__(self, name):
                calls.append(name)
                return getattr(kern, name)

        monkeypatch.setattr(_backend, "kernels", Recording)

        def refuse(n, rank):
            raise AssertionError("_memo_counts called without stats")

        monkeypatch.setattr(selection, "_memo_counts", refuse)
        monkeypatch.setattr(_pykernels, "_memo_counts", refuse)
        for length, rank in ((1, 1), (7, 4), (16, 8), (65, 3)):
            calls.clear()
            assert o.select_memo(rank, range(length)) == rank - 1
            # The sequence is validated by the kernels' real_values, and
            # then one kernel call selects.
            assert calls == ["real_values", "select_fullrange"]

    def test_counters_equal_the_memoized_recursion(self, backend):
        for length in range(1, 10):
            values = [float((k * 5) % 7) for k in range(length)]
            for rank in range(1, length + 1):
                stats = EvalStats()
                o.select_memo(rank, values, stats)
                assert (stats.recursive_calls, stats.base_case_calls, stats.memo_hits) \
                    == memoized_recursion_counts(length, rank), (length, rank)


def long_shapes(length):
    half = length // 2
    return {
        "ascending": [float(k) for k in range(length)],
        "descending": [float(length - k) for k in range(length)],
        "equal": [1.5] * length,
        "v": [float(abs(k - half)) for k in range(length)],
        "signed-zeros": [(-0.0, 0.0)[k % 2] for k in range(length)],
    }


class TestLongKernels:
    @pytest.mark.parametrize("length", [65, 96, 200])
    def test_shapes_match_sort_and_reference(self, backend, length):
        from ordstat import _pykernels
        for shape, values in long_shapes(length).items():
            for rank in (1, 2, 3, length - 1, length):
                where = (shape, length, rank)
                stats = EvalStats()
                memo = o.select_memo(rank, values, stats, budget=10**70)
                full = o.select_fullrange(rank, values, budget=10**70)
                assert memo == full == sort_oracle(rank, values), where
                want, *counters = _pykernels.select_memo(values, rank)
                assert signed(memo) == signed(want), where
                assert (stats.recursive_calls, stats.base_case_calls,
                        stats.memo_hits) == tuple(counters), where
                assert signed(full) == signed(_pykernels.select_fullrange(values, rank)), where

    def test_middle_rank_of_sixty(self, backend):
        # C(60, 31) leaves, too many to build; one pass over the values
        # takes 60 * 30 steps.
        from ordstat import _pykernels
        values = [float((k * 37) % 61) - 30.0 for k in range(60)]
        stats = EvalStats()
        assert o.select_memo(30, values, stats, budget=10**70) == sort_oracle(30, values)
        assert o.select_fullrange(30, values, budget=10**70) == sort_oracle(30, values)
        assert (stats.recursive_calls, stats.base_case_calls, stats.memo_hits) == \
            _pykernels.select_memo(values, 30)[1:]


class TestMemoFill:
    def test_counters_pinned(self, backend):
        from ordstat.selection import memo_state_count
        for length in range(1, 10):
            values = [float((k * 5) % 7) for k in range(length)]
            for rank in range(1, length + 1):
                stats = EvalStats()
                o.select_memo(rank, values, stats)
                states = math.comb(length + 1, rank - 1)
                assert stats.base_case_calls == math.comb(length, rank - 1)
                assert stats.recursive_calls - stats.memo_hits == states
                assert memo_state_count(length, rank) == states
                if rank >= 2:
                    assert stats.recursive_calls == \
                        1 + (length - rank + 2) * math.comb(length, rank - 2)

    def test_signed_zero_ties_match_naive(self, backend):
        # select_fullrange shares the normal form with select_memo; the
        # plain recursion shares no code with either.
        for length in range(1, 7):
            for values in itertools.product((-0.0, 0.0, 1.0), repeat=length):
                for rank in range(1, length + 1):
                    naive = o.select_naive(rank, values)
                    for select in (o.select_memo, o.select_fullrange):
                        got = select(rank, values)
                        assert got == naive
                        assert math.copysign(1, got) == math.copysign(1, naive), \
                            (select.__name__, values, rank)

    @pytest.mark.parametrize("length", range(7, 12))
    def test_seeded_signed_zero_ties_match_naive(self, backend, length):
        # Past the exhaustive lengths above, where the colex steps of the
        # leaf passes and of the fold change high positions.
        rng = random.Random(length)
        for _ in range(4):
            values = [rng.choice((-0.0, 0.0, 1.0, -1.0)) for _ in range(length)]
            for rank in range(1, length + 1):
                naive = signed(o.select_naive(rank, values))
                assert signed(o.select_memo(rank, values)) == naive, (values, rank)
                assert signed(o.select_fullrange(rank, values)) == naive, \
                    (values, rank)

    @pytest.mark.parametrize("length, rank", [(65, 2), (65, 3), (96, 2), (96, 3)])
    def test_long_signed_zero_ties_match_naive(self, backend, length, rank):
        rng = random.Random(length * rank)
        values = [rng.choice((-0.0, 0.0, 1.0)) for _ in range(length)]
        assert signed(o.select_memo(rank, values)) == \
            signed(o.select_naive(rank, values))

    def test_edge_shapes_match_naive(self, backend):
        # Rank 1 runs every leaf pass and no fold level; rank N runs no
        # leaf pass and every fold level; N = 1 is both.
        rng = random.Random(1)
        for length in range(1, 17):
            values = [rng.choice((-0.0, 0.0, 1.0)) for _ in range(length)]
            for rank in {1, length}:
                assert signed(o.select_memo(rank, values)) == \
                    signed(o.select_naive(rank, values)), (values, rank)

    def test_fullrange_signed_zero_ties_match_reference(self, backend):
        from ordstat import _pykernels
        for length in range(1, 7):
            for values in itertools.product((-0.0, 0.0, 1.0), repeat=length):
                for rank in range(1, length + 1):
                    got = o.select_fullrange(rank, values)
                    want = _pykernels.select_fullrange(values, rank)
                    assert got == want
                    assert math.copysign(1, got) == math.copysign(1, want), \
                        (values, rank)

    def test_deep_rank_leaves_recursion_limit_alone(self, backend):
        values = [float((k * 29) % 397) for k in range(400)]
        saved = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            assert o.select_memo(400, values) == max(values)
            assert sys.getrecursionlimit() == 1000
        finally:
            sys.setrecursionlimit(saved)


def test_memo_normal_form_matches_recursion_fill():
    # select_memo takes the first maximum of the leaf minima; pin it to the
    # memoized recursion filled level by level, each state folded with a
    # first max. Every state above the leaves enters its keep + 1 children
    # once, and the root is entered once more.
    from ordstat import _backend
    from ordstat.expr import _fill_levels
    kernels = [_backend.get_kernels(name) for name in _backend.available_backends()]
    length = 7
    for values in itertools.product((-0.0, 0.0, 1.0), repeat=length):
        for rank in range(1, length + 1):
            folds = []
            value = _fill_levels(length, rank, values.__getitem__,
                                 lambda acc, x: x if x < acc else acc,
                                 lambda kids: folds.append(1) or max(kids))
            keep = length - rank + 1
            leaves = math.comb(length, keep)
            recursive = 1 + (keep + 1) * len(folds)
            want = (signed(value), recursive, leaves,
                    recursive - leaves - len(folds))
            for kernels_module in kernels:
                got, *counters = kernels_module.select_memo(values, rank)
                assert (signed(got), *counters) == want, \
                    (kernels_module.__name__, values, rank)


SINGLE = {
    "naive": o.select_naive,
    "memo": o.select_memo,
    "fullrange": lambda rank, seq, stats: o.select_fullrange(rank, seq),
}


def signed_zero_tuples(length):
    """Every tuple over {-0.0, 0.0, 1.0} up to length 5, a seeded sample of
    60 above that."""
    tuples = list(itertools.product((-0.0, 0.0, 1.0), repeat=length))
    if length <= 5:
        return tuples
    return random.Random(length).sample(tuples, 60)


class TestSelectRanks:
    @pytest.mark.parametrize("mode", ["naive", "memo", "fullrange"])
    def test_equals_single_calls_bit_for_bit(self, backend, mode):
        for length in range(1, 8):
            # every rank twice, in both directions
            ranks = [*range(length, 0, -1), *range(1, length + 1)]
            for values in signed_zero_tuples(length):
                batch_stats, single_stats = EvalStats(), EvalStats()
                got = o.select_ranks(values, ranks, mode=mode, stats=batch_stats)
                want = [SINGLE[mode](rank, values, single_stats) for rank in ranks]
                assert type(got) is tuple
                assert [(v, math.copysign(1, v)) for v in got] == \
                    [(v, math.copysign(1, v)) for v in want], (values, mode)
                assert batch_stats == single_stats, (values, mode)

    def test_empty_ranks(self, backend):
        for mode in SINGLE:
            assert o.select_ranks([2.0, 1.0], (), mode=mode) == ()

    @pytest.mark.parametrize("mode", ["naive", "memo", "fullrange"])
    @pytest.mark.parametrize("ranks,error", [
        ((1, 2, 13), RankError),
        ((0, 1, 2), RankError),
        ((1, 2, 7), BudgetError),
        ((7, 13), RankError),  # every rank is checked before any budget
    ])
    def test_refused_before_any_kernel_runs(self, backend, monkeypatch, mode, ranks, error):
        # With a budget of 100, ranks 1 and 2 of 12 values fit every mode
        # and rank 7 fits none.
        values = [float(k % 5) for k in range(12)]
        stats = EvalStats(recursive_calls=1)
        kernels = o.selection._backend.kernels()
        calls = []

        class ValidateOnly:
            """The kernels' real_values, which validates the sequence;
            every selection entry fails the test."""

            def __getattr__(self, name):
                calls.append(name)
                if name != "real_values":
                    raise AssertionError(f"kernel {name} ran")
                return kernels.real_values

        monkeypatch.setattr(o.selection._backend, "kernels", ValidateOnly)
        with pytest.raises(error):
            o.select_ranks(values, ranks, mode=mode, stats=stats, budget=100)
        assert stats == EvalStats(recursive_calls=1)
        assert calls == ["real_values"]

    @pytest.mark.parametrize("mode", ["naive", "memo", "fullrange"])
    def test_one_kernel_call_per_call(self, backend, monkeypatch, mode):
        kernels = o.selection._backend.kernels()
        calls = []

        class Counting:
            def __getattr__(self, name):
                entry = getattr(kernels, name)

                def counted(*args):
                    calls.append(name)
                    return entry(*args)
                return counted

        monkeypatch.setattr(o.selection._backend, "kernels", Counting)
        values = [float(k % 5) for k in range(8)]
        for ranks in ((3,), (4, 5), range(1, 9)):
            calls.clear()
            stats = EvalStats()
            got = o.select_ranks(values, ranks, mode=mode, stats=stats)
            assert got == tuple(sort_oracle(rank, values) for rank in ranks)
            # One validation of the sequence, then one selection call.
            assert len(calls) == 2 and calls[0] == "real_values", calls
        calls.clear()
        with pytest.raises(BudgetError):
            o.select_ranks(values, (1, 5), mode=mode, budget=10)
        assert calls == ["real_values"]

    def test_memo_counters_past_64_bits(self, backend):
        # The counters come from Python ints on every backend; the single
        # compiled select_memo refuses them (see TestWideMemo).
        from ordstat import _pykernels
        stats = EvalStats()
        got = o.select_ranks(range(200), (100,), mode="memo", stats=stats, budget=10**70)
        assert got == (99.0,)
        counters = (stats.recursive_calls, stats.base_case_calls, stats.memo_hits)
        assert (99.0, *counters) == _pykernels.select_memo(range(200), 100)
        assert stats.recursive_calls > 2**64

    @pytest.mark.parametrize("mode", ["naive", "memo", "fullrange"])
    def test_budget_resolved_once(self, monkeypatch, mode):
        calls = []

        def counting(budget=None):
            calls.append(budget)
            return resolve(budget)

        resolve = o.selection.resolve_budget
        monkeypatch.setattr(o.selection, "resolve_budget", counting)
        monkeypatch.setenv(o.BUDGET_ENV_VAR, "100")
        assert o.select_ranks([4, 1, 3, 2], (1, 2, 3, 4), mode=mode) == (1, 2, 3, 4)
        assert calls == [None]
        assert o.select_ranks([4, 1, 3, 2], (2, 3), mode=mode, budget=50) == (2, 3)
        assert calls == [None, 50]

    def test_bad_mode(self):
        with pytest.raises(ValueError, match="mode must be one of"):
            o.select_ranks([1.0], (1,), mode="sorted")

    def test_sequence_validated(self):
        with pytest.raises(SequenceError):
            o.select_ranks([], (1,))
        with pytest.raises(SequenceError):
            o.select_ranks([1.0, float("nan")], (1,))


def outcome(call):
    """(value, sign) pairs of what `call` returns, or its error's type and
    message."""
    try:
        return [(v, math.copysign(1, v)) for v in call()]
    except Exception as exc:
        return type(exc), str(exc)


SPLIT_BUDGETS = (None, 1, 2, 3, 5, 10, 30, 100, 1000, 0, 2.5)


class TestSplitSelectRanks:
    # select_ranks is _checked_ranks and then _select_checked; exhaustive_verify
    # runs the first once per length, so it must depend on nothing else.
    @pytest.mark.parametrize("mode", ["naive", "memo", "fullrange", "sorted"])
    def test_halves_equal_the_whole(self, backend, monkeypatch, mode):
        monkeypatch.setenv(o.BUDGET_ENV_VAR, "200")
        rng = random.Random(8)
        for length in range(1, 9):
            values = tuple(rng.choice((-0.0, 0.0, 1.0, 2.5)) for _ in range(length))
            up = list(range(1, length + 1))
            for ranks in (up, up[::-1], [length, 1, length, 1], (), (0, 1),
                          (1, length + 1), (1, 2.5), (True, 1.0)):
                for budget in SPLIT_BUDGETS:
                    whole, split = EvalStats(), EvalStats()
                    want = outcome(lambda: o.select_ranks(
                        values, ranks, mode=mode, stats=whole, budget=budget))
                    try:
                        checked = o.selection._checked_ranks(length, ranks, mode, budget)
                    except Exception as exc:
                        assert want == (type(exc), str(exc)), (values, ranks, budget)
                        assert whole == EvalStats()
                        continue
                    assert all(type(rank) is int for rank in checked)
                    got = outcome(lambda: o.selection._select_checked(
                        RealSequence(values).values, checked, mode, split))
                    assert got == want, (values, ranks, budget)
                    assert split == whole, (values, ranks, budget)

    @pytest.mark.parametrize("mode", ["naive", "memo", "fullrange"])
    def test_checked_ranks_keep_order_and_duplicates(self, mode):
        assert o.selection._checked_ranks(4, (4, 1, 1), mode, 100) == [4, 1, 1]
        assert o.selection._checked_ranks(4, range(1, 5), mode, None) == [1, 2, 3, 4]


class TestMedian:
    def test_known_values(self, backend):
        assert o.median([3, 1, 2]) == 2
        assert o.median([4, 1, 3, 2]) == 2.5
        assert o.median([7]) == 7

    def test_modes_agree(self, backend):
        values = [9.0, -1.0, 4.0, 4.0, 2.0, 8.0]
        assert o.median(values, mode="naive") == o.median(values, mode="memo")

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            o.median([1.0], mode="sorted")

    @pytest.mark.parametrize("mode", ["naive", "memo"])
    def test_budget_resolved_once(self, monkeypatch, mode):
        calls = []

        def counting(budget=None):
            calls.append(budget)
            return resolve(budget)

        resolve = o.selection.resolve_budget
        monkeypatch.setattr(o.selection, "resolve_budget", counting)
        monkeypatch.setenv(o.BUDGET_ENV_VAR, "100")
        assert o.median([4, 1, 3, 2], mode=mode) == 2.5
        assert calls == [None]
        monkeypatch.setenv(o.BUDGET_ENV_VAR, "1")
        with pytest.raises(BudgetError):
            o.median([4, 1, 3, 2], mode=mode)

    @given(st.lists(st.integers(min_value=-100, max_value=100),
                    min_size=1, max_size=9))
    @settings(max_examples=150)
    def test_matches_sorted_median(self, values):
        ordered = sorted(values)
        half = len(values) // 2
        if len(values) % 2:
            expected = float(ordered[half])
        else:
            expected = (ordered[half - 1] + ordered[half]) / 2
        assert o.median(values) == expected


def exact_mean(a, b):
    return float((Fraction(a) + Fraction(b)) / 2)


class TestMedianNearOverflow:
    BIG = sys.float_info.max

    @pytest.mark.parametrize("mode", ["naive", "memo"])
    @pytest.mark.parametrize("values,expected", [
        ([1e308, 1.5e308], 1.25e308),
        ([-1e308, -1.5e308], -1.25e308),
        ([BIG, BIG], BIG),
        ([-BIG, -BIG], -BIG),
        ([1.7e308, 3.0, 1.6e308, -BIG], exact_mean(3.0, 1.6e308)),
        ([1.7e308, 1.5e308, 1.6e308, 1.4e308], exact_mean(1.5e308, 1.6e308)),
    ])
    def test_finite(self, backend, mode, values, expected):
        assert o.median(values, mode=mode) == expected

    @given(st.floats(min_value=-sys.float_info.max, max_value=sys.float_info.max),
           st.floats(min_value=-sys.float_info.max, max_value=sys.float_info.max))
    @settings(max_examples=300)
    def test_correctly_rounded_mean(self, a, b):
        got = o.median([a, b])
        assert got == exact_mean(a, b)
        # Only a mean whose float sum overflows changed.
        if math.isfinite(a + b):
            want = (a + b) / 2
            assert (got, math.copysign(1.0, got)) == (want, math.copysign(1.0, want))
