"""Order statistics by recursive elimination, plus branchless min/max.

The selector finds the n-th smallest value of a finite sequence without
sorting: the rank-n value equals the maximum, over the first N - n + 2
single-element eliminations, of the rank-(n-1) value of each shortened
sequence, and rank 1 is the plain minimum. Ranks, sequence positions and
elimination indices are all 1-based.

Two evaluation strategies share that recursion: select_naive re-solves
every subproblem, select_memo caches results keyed on the set of surviving
original positions. Both compare elements directly, so results are exact
copies of input values. The two-argument identities

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
from dataclasses import dataclass
from typing import Iterable, Union

from . import _backend
from .errors import BudgetError, RankError, SequenceError

DEFAULT_BUDGET = 1 << 24
BUDGET_ENV_VAR = "ORDSTAT_BUDGET"


@dataclass(frozen=True)
class RealSequence:
    """A non-empty, finite sequence of finite real values (as floats).

    Positions are 1-based in every operation that takes an index; the raw
    ``values`` tuple is ordinary 0-based Python storage.
    """

    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise SequenceError("sequence must contain at least one value")
        for v in vals:
            if not math.isfinite(v):
                raise SequenceError(f"sequence values must be finite, got {v!r}")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def value_at(self, k: int) -> float:
        """Value at 1-based position k."""
        if not 1 <= k <= len(self.values):
            raise SequenceError(f"position {k} out of range 1..{len(self.values)}")
        return self.values[k - 1]


SequenceLike = Union[RealSequence, Iterable[float]]


def as_real_sequence(seq: SequenceLike) -> RealSequence:
    if isinstance(seq, RealSequence):
        return seq
    return RealSequence(tuple(seq))


@dataclass
class EvalStats:
    """Caller-owned counters accumulated across selector calls."""

    recursive_calls: int = 0
    base_case_calls: int = 0
    memo_hits: int = 0


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


def _check_naive_budget(n_len: int, rank: int, budget: int | None) -> None:
    limit = resolve_budget(budget)
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


def _check_memo_budget(n_len: int, rank: int, budget: int | None) -> None:
    limit = resolve_budget(budget)
    if memo_state_count(n_len, rank) > limit:
        raise BudgetError(
            f"memoized selection of rank {rank} from {n_len} elements may "
            f"touch more than {limit} distinct subproblems; "
            f"raise {BUDGET_ENV_VAR} if this is intended"
        )


def _check_fullrange_budget(n_len: int, rank: int, budget: int | None) -> None:
    # Full-range elimination reaches every t-subset of the positions.
    limit = resolve_budget(budget)
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
    _check_naive_budget(len(seq), rank, budget)
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
    _check_memo_budget(len(seq), rank, budget)
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
    _check_fullrange_budget(len(seq), rank, budget)
    return _backend.kernels().select_fullrange(seq.values, rank)


_SELECTORS = {"naive": select_naive, "memo": select_memo}


def median(seq: SequenceLike, *, mode: str = "memo",
           stats: EvalStats | None = None, budget: int | None = None) -> float:
    """Median via selection: the middle rank for odd length, the average of
    the two middle ranks for even length."""
    seq = as_real_sequence(seq)
    try:
        pick = _SELECTORS[mode]
    except KeyError:
        raise ValueError(f"mode must be one of {sorted(_SELECTORS)}, got {mode!r}") from None
    n_len = len(seq)
    if n_len % 2 == 1:
        return pick((n_len + 1) // 2, seq, stats, budget=budget)
    lo = pick(n_len // 2, seq, stats, budget=budget)
    hi = pick(n_len // 2 + 1, seq, stats, budget=budget)
    return (lo + hi) / 2
