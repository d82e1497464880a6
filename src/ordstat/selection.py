"""Order statistics by recursive elimination, plus branchless min/max.

The selector finds the n-th smallest value of a finite sequence without
sorting: the rank-n value equals the maximum, over the first N - n + 2
single-element eliminations, of the rank-(n-1) value of each shortened
sequence, and rank 1 is the plain minimum. Ranks, sequence positions and
elimination indices are all 1-based.

Two evaluation strategies share that recursion: select_naive re-solves
every subproblem, select_memo caches results keyed on the set of surviving
original positions. Both compare elements directly, so results are exact
copies of input values. select_ranks selects several ranks of one sequence
in one call: it validates the sequence and resolves the budget once, then
runs the same kernel per rank; median and the verify suites use it. The
two-argument identities

    min(a, b) = (a + b - |a - b|) / 2
    max(a, b) = (a + b + |a - b|) / 2

are exposed separately (pairwise_min_arith, pairwise_max_arith, min_chain,
max_chain) and drive the expression backend in ordstat.expr; they are not
used inside the selectors, which keeps selector output bit-exact.

Naive evaluation performs (N - n + 2)**(n - 1) base-case calls, so a
budget guard refuses work above a limit (default 2**24 base calls,
override with the ORDSTAT_BUDGET environment variable or the ``budget``
argument). Memoized evaluation is guarded by its number of distinct
subproblems instead, which is C(N + 1, n - 1) (see memo_state_count).
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterable

from . import _backend
from ._record import FrozenRecord, Record, slot_setters
from .errors import BudgetError, RankError, SequenceError

DEFAULT_BUDGET = 1 << 24
BUDGET_ENV_VAR = "ORDSTAT_BUDGET"


class RealSequence(FrozenRecord):
    """A non-empty, finite sequence of finite real values (as floats).

    Positions are 1-based in every operation that takes an index; the raw
    ``values`` tuple is ordinary 0-based Python storage.
    """

    __slots__ = ("values",)

    def __init__(self, values: Iterable[float]):
        vals = tuple(map(float, values))
        if not vals:
            raise SequenceError("sequence must contain at least one value")
        if not all(map(math.isfinite, vals)):
            bad = next(v for v in vals if not math.isfinite(v))
            raise SequenceError(f"sequence values must be finite, got {bad!r}")
        _set_values(self, vals)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def value_at(self, k: int) -> float:
        """Value at 1-based position k."""
        if not 1 <= k <= len(self.values):
            raise SequenceError(f"position {k} out of range 1..{len(self.values)}")
        return self.values[k - 1]


(_set_values,) = slot_setters(RealSequence)

SequenceLike = RealSequence | Iterable[float]


def as_real_sequence(seq: SequenceLike) -> RealSequence:
    if isinstance(seq, RealSequence):
        return seq
    return RealSequence(tuple(seq))


class EvalStats(Record):
    """Caller-owned counters accumulated across selector calls."""

    __slots__ = ("recursive_calls", "base_case_calls", "memo_hits")

    def __init__(self, recursive_calls: int = 0, base_case_calls: int = 0,
                 memo_hits: int = 0):
        self.recursive_calls = recursive_calls
        self.base_case_calls = base_case_calls
        self.memo_hits = memo_hits


# Largest magnitude the branchless helpers accept: with |a|, |b| <= 2**1022
# neither a + b nor a - b (nor their sum) can overflow.
_ARITH_LIMIT = 2.0 ** 1022


def _arith_operand(x) -> float:
    x = float(x)
    if not abs(x) <= _ARITH_LIMIT:
        raise SequenceError(
            f"value must be finite with magnitude at most 2**1022, got {x!r}")
    return x


def pairwise_min_arith(a: float, b: float) -> float:
    """min(a, b) computed as (a + b - |a - b|) / 2, with no comparison.

    Inputs must lie in [-2**1022, 2**1022], where no intermediate can
    overflow; larger magnitudes and non-finite values raise SequenceError.
    Exact whenever a and b are integers of magnitude at most 2**50; for
    other floats in range the error stays within a few ulp of the larger
    input.
    """
    a, b = _arith_operand(a), _arith_operand(b)
    return (a + b - abs(a - b)) / 2


def pairwise_max_arith(a: float, b: float) -> float:
    """max(a, b) computed as (a + b + |a - b|) / 2. Same input range and
    accuracy as pairwise_min_arith."""
    a, b = _arith_operand(a), _arith_operand(b)
    return (a + b + abs(a - b)) / 2


def min_chain(seq: SequenceLike) -> float:
    """Left fold of pairwise_min_arith; the arithmetic form of min. Every
    value must lie in [-2**1022, 2**1022]."""
    values = [_arith_operand(v) for v in as_real_sequence(seq)]
    acc = values[0]
    for v in values[1:]:
        acc = (acc + v - abs(acc - v)) / 2
    return acc


def max_chain(seq: SequenceLike) -> float:
    """Left fold of pairwise_max_arith; the arithmetic form of max. Every
    value must lie in [-2**1022, 2**1022]."""
    values = [_arith_operand(v) for v in as_real_sequence(seq)]
    acc = values[0]
    for v in values[1:]:
        acc = (acc + v + abs(acc - v)) / 2
    return acc


def resolve_budget(budget: int | None = None) -> int:
    """Effective recursion budget: explicit argument, else ORDSTAT_BUDGET,
    else DEFAULT_BUDGET."""
    if budget is None:
        raw = os.environ.get(BUDGET_ENV_VAR)
        if raw is None or not raw.strip():
            return DEFAULT_BUDGET
        try:
            budget = int(raw)
        except ValueError:
            raise BudgetError(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}") from None
    budget = int(budget)
    if budget < 1:
        raise BudgetError(f"budget must be positive, got {budget}")
    return budget


def naive_call_count(n_len: int, rank: int) -> int:
    """Base-case calls of a naive selection: (N - n + 2)**(n - 1).

    The closed form is verified against instrumented counts by the test
    suite and the growth benchmark before anything relies on it.
    """
    return (n_len - rank + 2) ** (rank - 1)


def _check_rank(rank: int, n_len: int) -> int:
    rank = int(rank)
    if not 1 <= rank <= n_len:
        raise RankError(f"rank {rank} out of range 1..{n_len}")
    return rank


# The budget checks take the limit resolve_budget returned, so one
# resolution can serve several selections (see select_ranks).
def _check_naive_budget(n_len: int, rank: int, limit: int) -> None:
    count = naive_call_count(n_len, rank)
    if count > limit:
        raise BudgetError(
            f"naive selection of rank {rank} from {n_len} elements needs "
            f"{count} base-case calls, over the budget of {limit}; "
            f"use memo mode or raise {BUDGET_ENV_VAR}"
        )


def memo_state_count(n_len: int, rank: int) -> int:
    """Distinct subproblems a memoized select touches: C(N + 1, n - 1).

    Elimination always targets one of the first R = N - rank + 2 surviving
    positions, so a survivor set reachable after t removals is a choice of
    which t of the first R + t - 1 positions are gone: C(R + t - 1, t) sets.
    Summed over t = 0..n - 1 (hockey stick) that is C(N + 1, n - 1).
    """
    return math.comb(n_len + 1, rank - 1)


def _check_memo_budget(n_len: int, rank: int, limit: int) -> None:
    if memo_state_count(n_len, rank) > limit:
        raise BudgetError(
            f"memoized selection of rank {rank} from {n_len} elements may "
            f"touch more than {limit} distinct subproblems; "
            f"raise {BUDGET_ENV_VAR} if this is intended"
        )


def _check_fullrange_budget(n_len: int, rank: int, limit: int) -> None:
    # Full-range elimination reaches every t-subset of the positions.
    states = 0
    for t in range(rank):
        states += math.comb(n_len, t)
        if states > limit:
            raise BudgetError(
                f"full-range selection of rank {rank} from {n_len} elements "
                f"may touch more than {limit} distinct subproblems; "
                f"raise {BUDGET_ENV_VAR} if this is intended"
            )


def select_naive(rank: int, seq: SequenceLike, stats: EvalStats | None = None,
                 *, budget: int | None = None) -> float:
    """The rank-th smallest value via the plain elimination recursion.

    Every recursive entry and every base case is counted into ``stats``
    when one is passed. Work above the budget raises BudgetError before
    any recursion starts.
    """
    seq = as_real_sequence(seq)
    rank = _check_rank(rank, len(seq))
    _check_naive_budget(len(seq), rank, resolve_budget(budget))
    return _naive(rank, seq, stats)


# The kernel calls behind the public selectors. Callers have checked the
# rank and the budget already.
def _naive(rank: int, seq: RealSequence, stats: EvalStats | None) -> float:
    value, recursive, base = _backend.kernels().select_naive(seq.values, rank)
    if stats is not None:
        stats.recursive_calls += recursive
        stats.base_case_calls += base
    return value


def select_memo(rank: int, seq: SequenceLike, stats: EvalStats | None = None,
                *, budget: int | None = None) -> float:
    """Same value as select_naive, bit for bit, with subproblems cached.

    Subproblems are keyed on the set of surviving original positions, since
    any elimination order that leaves the same survivors denotes the same
    subsequence; there are memo_state_count(N, rank) of them, and the
    budget bounds that number. Both backends fill them level by level, for
    any N, in tables that live and die within this call.
    """
    seq = as_real_sequence(seq)
    rank = _check_rank(rank, len(seq))
    _check_memo_budget(len(seq), rank, resolve_budget(budget))
    return _memo(rank, seq, stats)


def _memo(rank: int, seq: RealSequence, stats: EvalStats | None) -> float:
    value, recursive, base, hits = _backend.kernels().select_memo(seq.values, rank)
    if stats is not None:
        stats.recursive_calls += recursive
        stats.base_case_calls += base
        stats.memo_hits += hits
    return value


def select_fullrange(rank: int, seq: SequenceLike, *, budget: int | None = None) -> float:
    """Diagnostic selector that scans every elimination index at each level
    instead of stopping at N - n + 2. Always agrees with select_naive;
    the verification suites assert exactly that."""
    seq = as_real_sequence(seq)
    rank = _check_rank(rank, len(seq))
    _check_fullrange_budget(len(seq), rank, resolve_budget(budget))
    return _fullrange(rank, seq, None)


def _fullrange(rank: int, seq: RealSequence, stats: EvalStats | None) -> float:
    # stats goes unused: the full-range kernel keeps no counters.
    return _backend.kernels().select_fullrange(seq.values, rank)


def select_ranks(seq: SequenceLike, ranks: Iterable[int], *, mode: str = "memo",
                 stats: EvalStats | None = None, budget: int | None = None) -> tuple:
    """The values at several ranks of one sequence, in the order given.

    Each value, and what it adds to ``stats``, equals bit for bit the
    single call select_naive, select_memo or select_fullrange (``mode``)
    at that rank; fullrange adds no counters. The sequence is validated
    once and the budget resolved once. Every rank, and then every rank's
    budget, is checked before the first kernel runs, so a RankError or
    BudgetError leaves ``stats`` untouched.
    """
    seq = as_real_sequence(seq)
    if mode == "naive":
        check, pick = _check_naive_budget, _naive
    elif mode == "memo":
        check, pick = _check_memo_budget, _memo
    elif mode == "fullrange":
        check, pick = _check_fullrange_budget, _fullrange
    else:
        raise ValueError(
            f"mode must be one of ['fullrange', 'memo', 'naive'], got {mode!r}")
    n_len = len(seq)
    ranks = [_check_rank(rank, n_len) for rank in ranks]
    limit = resolve_budget(budget)
    for rank in ranks:
        check(n_len, rank, limit)
    return tuple([pick(rank, seq, stats) for rank in ranks])


def median(seq: SequenceLike, *, mode: str = "memo",
           stats: EvalStats | None = None, budget: int | None = None) -> float:
    """Median via selection: the middle rank for odd length, the average of
    the two middle ranks for even length, both from one select_ranks call.
    ``mode`` is naive or memo."""
    seq = as_real_sequence(seq)
    if mode not in ("memo", "naive"):
        raise ValueError(f"mode must be one of ['memo', 'naive'], got {mode!r}")
    half = len(seq) // 2
    if len(seq) % 2 == 1:
        return select_ranks(seq, (half + 1,), mode=mode, stats=stats, budget=budget)[0]
    lo, hi = select_ranks(seq, (half, half + 1), mode=mode, stats=stats, budget=budget)
    return (lo + hi) / 2
