import itertools
import math
import random
import sys

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
        assert seq.value_at(1) == 10.0
        assert seq.value_at(3) == 30.0

    def test_value_at_out_of_range(self):
        seq = RealSequence([1.0])
        with pytest.raises(SequenceError):
            seq.value_at(0)
        with pytest.raises(SequenceError):
            seq.value_at(2)

    def test_empty_rejected(self):
        with pytest.raises(SequenceError):
            RealSequence(())

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(SequenceError, match=f"must be finite, got {bad!r}"):
            RealSequence([1.0, bad, float("nan")])

    def test_duplicates_permitted(self):
        assert RealSequence([2, 2, 2]).values == (2.0, 2.0, 2.0)


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


class TestChains:
    def test_known_values(self):
        assert o.min_chain([5]) == 5
        assert o.min_chain([5, 1, 9]) == 1
        assert o.min_chain([2, 2, 2]) == 2
        assert o.max_chain([5]) == 5
        assert o.max_chain([5, 1, 9]) == 9
        assert o.max_chain([-1, -1]) == -1

    def test_overflow_range_rejected(self):
        for values in ([1e308, 1.5e308], [1.0, -1e308]):
            with pytest.raises(SequenceError):
                o.min_chain(values)
            with pytest.raises(SequenceError):
                o.max_chain(values)

    def test_exact_at_range_edge(self):
        top = 2.0 ** 1022
        values = [top, -top, top, top, -top]
        assert o.min_chain(values) == -top
        assert o.max_chain(values) == top

    def test_empty_rejected(self):
        with pytest.raises(SequenceError):
            o.min_chain([])
        with pytest.raises(SequenceError):
            o.max_chain([])

    @given(st.lists(st.integers(min_value=-1000, max_value=1000),
                    min_size=1, max_size=10))
    def test_integer_chains_exact(self, values):
        assert o.min_chain(values) == min(values)
        assert o.max_chain(values) == max(values)


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
        # C(201, 99) states: the default budget refuses them; with the
        # budget lifted, the compiled fill must refuse a level it cannot
        # address instead of wrapping its size.
        with pytest.raises(BudgetError):
            o.select_memo(100, range(200))
        if backend != "python":
            with pytest.raises((MemoryError, OverflowError)):
                o.select_memo(100, range(200), budget=10**70)

    def test_memo_state_count_quadratic_at_max_rank(self):
        from ordstat.selection import memo_state_count
        assert memo_state_count(70, 70) == sum(t + 1 for t in range(70))
        assert memo_state_count(5, 1) == 1


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
        for length in range(1, 7):
            for values in itertools.product((-0.0, 0.0, 1.0), repeat=length):
                for rank in range(1, length + 1):
                    naive = o.select_naive(rank, values)
                    memo = o.select_memo(rank, values)
                    assert memo == naive
                    assert math.copysign(1, memo) == math.copysign(1, naive), \
                        (values, rank)

    @pytest.mark.parametrize("length", range(7, 12))
    def test_seeded_signed_zero_ties_match_naive(self, backend, length):
        # Past the exhaustive lengths above, where the colex steps of the
        # leaf passes and of the fold change high positions.
        rng = random.Random(length)
        for _ in range(4):
            values = [rng.choice((-0.0, 0.0, 1.0, -1.0)) for _ in range(length)]
            for rank in range(1, length + 1):
                assert signed(o.select_memo(rank, values)) == \
                    signed(o.select_naive(rank, values)), (values, rank)

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

        def no_kernel():
            raise AssertionError("a kernel ran")

        monkeypatch.setattr(o.selection._backend, "kernels", no_kernel)
        with pytest.raises(error):
            o.select_ranks(values, ranks, mode=mode, stats=stats, budget=100)
        assert stats == EvalStats(recursive_calls=1)

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
