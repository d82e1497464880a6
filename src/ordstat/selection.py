"""Order statistics by recursive elimination, plus branchless min/max.

The selector finds the n-th smallest value of a finite sequence without
sorting: the rank-n value equals the maximum, over the first N - n + 2
single-element eliminations, of the rank-(n-1) value of each shortened
sequence, and rank 1 is the plain minimum. Ranks, sequence positions and
elimination indices are all 1-based.

Two evaluation strategies share that recursion: select_naive re-solves
every subproblem, select_memo returns what the recursion memoized on the
set of surviving original positions returns, as the first maximum of its
leaf minima, from the kernel's normal_forms: that max-min normal form is
the full-range recursion's too. Both compare elements directly, so
results are exact copies of input values. The memo counters are a closed
form of (N, n), _pykernels._memo_counts, the one copy on both backends:
_add_memo_counts adds them, in Python ints, only when ``stats`` is
passed, so they cost nothing otherwise and never overflow.

The selectors reach four kernel entries: real_values, which validates
every sequence, the many-rank naive_ranks and normal_forms, and, through
ordstat.expr, compile_slp. select_ranks selects several ranks of one
sequence in one call: it validates the sequence and resolves the budget
once, then _select_checked makes one kernel call for every rank, whose
normal-form modes read all the ranks off one fold pass, and adds the
counters. select_naive and select_fullrange are _select_checked at one
rank; select_memo, the hot path, calls normal_forms at its one rank
itself. median runs select_ranks' two halves on the sequence it
validated, and exhaustive_verify runs _checked_ranks once per length and
_select_checked once per sequence. The two-argument identities

    min(a, b) = (a + b - |a - b|) / 2
    max(a, b) = (a + b + |a - b|) / 2

are exposed separately (pairwise_min_arith, pairwise_max_arith) as the
scalar form of lower_minmax_to_arith's rewrite. Neither the selectors nor
ordstat.expr call them, so selector output is bit-exact.

All five budget rules live here and take the limit resolve_budget picks
(``budget`` argument, else ORDSTAT_BUDGET, else 2**24) once per public
call: naive selection counts (N - n + 2)**(n - 1) base-case calls,
memoized selection its C(N + 1, n - 1) subproblems (memo_state_count),
full-range selection the subsets it reaches, a formula its naive count
and a bound on its graph, and formula text its tree nodes.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterable

from . import _backend
from ._pykernels import _memo_counts, _to_float
from ._record import FrozenRecord, Record
from .errors import BudgetError, RankError, SequenceError

DEFAULT_BUDGET = 1 << 24
BUDGET_ENV_VAR = "ORDSTAT_BUDGET"


class RealSequence(FrozenRecord):
    """A non-empty, finite sequence of finite real values (as floats).

    Positions are 1-based throughout ordstat: position k is
    ``values[k - 1]``. The active kernel backend's real_values checks the
    values and converts them with float(), so ``RealSequence(t).values``
    may be ``t`` itself when ``t`` is a tuple of floats.
    """

    __slots__ = ("values",)

    def __init__(self, values: Iterable[float]):
        self._store(_backend.kernels().real_values(values))

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)


SequenceLike = RealSequence | Iterable[float]


def as_real_sequence(seq: SequenceLike) -> RealSequence:
    """``seq`` itself when it is a RealSequence, else RealSequence(seq),
    whose ``values`` may be ``seq`` itself when it is a tuple of floats."""
    if isinstance(seq, RealSequence):
        return seq
    return RealSequence(seq)


class EvalStats(Record):
    """Caller-owned counters accumulated across selector calls."""

    __slots__ = ("recursive_calls", "base_case_calls", "memo_hits")

    def __init__(self, recursive_calls: int = 0, base_case_calls: int = 0,
                 memo_hits: int = 0):
        self._store(recursive_calls, base_case_calls, memo_hits)


# Largest magnitude the branchless helpers accept: with |a|, |b| <= 2**1022
# neither a + b nor a - b (nor their sum) can overflow.
_ARITH_LIMIT = 2.0 ** 1022


def _arith_operand(x) -> float:
    x = _to_float(x)
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


def _integral(x, error, what: str) -> int:
    # 3, 3.0 and True equal an integer and come back as one; 2.7 and "2" raise.
    if type(x) is int:
        return x
    try:
        if int(x) == x:
            return int(x)
    except (TypeError, ValueError, OverflowError):
        pass
    raise error(f"{what} must be an integer, got {x!r}")


def resolve_budget(budget: int | None = None) -> int:
    """Effective recursion budget: explicit argument, else ORDSTAT_BUDGET,
    else DEFAULT_BUDGET. This is the only read of ORDSTAT_BUDGET."""
    if budget is None:
        raw = os.environ.get(BUDGET_ENV_VAR)
        if raw is None or not raw.strip():
            return DEFAULT_BUDGET
        try:
            budget = int(raw)
        except ValueError:
            raise BudgetError(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}") from None
    budget = _integral(budget, BudgetError, "budget")
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
    if type(rank) is not int:
        rank = _integral(rank, RankError, "rank")
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


def _check_formula_budget(n_vars: int, rank: int, limit: int) -> None:
    count = naive_call_count(n_vars, rank)
    if count > limit:
        raise BudgetError(
            f"selection formula for rank {rank} of {n_vars} variables implies "
            f"{count} base cases, over the budget of {limit}"
        )
    # The shared graph holds at most one subproblem per distinct survivor
    # set, each contributing O(n_vars) nodes; refuse graphs past the budget.
    states, paths, branch = 0, 1, n_vars - rank + 2
    for t in range(rank):
        states += min(math.comb(n_vars, t), paths)
        if states * (n_vars + 1) > limit:
            raise BudgetError(
                f"selection formula for rank {rank} of {n_vars} variables "
                f"would exceed the node budget of {limit}"
            )
        paths = min(paths * branch, limit + 1)


def _check_text_budget(nodes: int, limit: int) -> None:
    if nodes > limit:
        raise BudgetError(f"formula text of {nodes} tree nodes is over the budget of {limit}")


def select_naive(rank: int, seq: SequenceLike, stats: EvalStats | None = None,
                 *, budget: int | None = None) -> float:
    """The rank-th smallest value via the plain elimination recursion.

    Every recursive entry and every base case is counted into ``stats``
    when one is passed. Work above the budget raises BudgetError before
    any recursion starts.
    """
    seq = as_real_sequence(seq)
    rank = _check_rank(rank, len(seq.values))
    _check_naive_budget(len(seq.values), rank, resolve_budget(budget))
    return _select_checked(seq.values, [rank], "naive", stats)[0]


def _add_memo_counts(stats: EvalStats, n_len: int, ranks) -> None:
    """Adds to ``stats`` the counters the memoized recursion would count at
    each rank of n_len values: _memo_counts, the one closed form of them,
    in Python ints, which no kernel computes."""
    for rank in ranks:
        recursive, base, hits = _memo_counts(n_len, rank)
        stats.recursive_calls += recursive
        stats.base_case_calls += base
        stats.memo_hits += hits


def select_memo(rank: int, seq: SequenceLike, stats: EvalStats | None = None,
                *, budget: int | None = None) -> float:
    """Same value as select_naive, bit for bit: the memoized recursion's.

    The memoized recursion keys subproblems on the set of surviving
    original positions, since any elimination order that leaves the same
    survivors denotes the same subsequence; there are
    memo_state_count(N, rank) of them, and the budget bounds that number.
    Every level above its minima takes a max, so both backends evaluate
    its max-min normal form, the first maximum of the leaf minima, with
    the kernel's normal_forms at this one rank; min distributes over that
    max, so it is one pass over the values, N * min(K, rank) comparisons
    with K = N - rank + 1, for any N. Only when ``stats`` is passed are the
    counters the memoized recursion would count added to it, from the
    closed form _memo_counts in Python ints, the same on both backends
    and for any N.
    """
    seq = as_real_sequence(seq)
    rank = _check_rank(rank, len(seq.values))
    _check_memo_budget(len(seq.values), rank, resolve_budget(budget))
    value = _backend.kernels().normal_forms(seq.values, (rank,))[0]
    if stats is not None:
        _add_memo_counts(stats, len(seq.values), (rank,))
    return value


def select_fullrange(rank: int, seq: SequenceLike, *, budget: int | None = None) -> float:
    """Diagnostic selector that scans every elimination index at each level
    instead of stopping at N - n + 2. Its recursion reaches the same
    leaves as select_memo's in the same order, so it has the same max-min
    normal form, and both take their value from the kernel's normal_forms
    at this one rank; both agree with select_naive bit for bit. The
    verification suites check it against the sort, and the tests against
    select_naive. Its budget bounds the states the full-range recursion
    would touch."""
    seq = as_real_sequence(seq)
    rank = _check_rank(rank, len(seq.values))
    _check_fullrange_budget(len(seq.values), rank, resolve_budget(budget))
    return _select_checked(seq.values, [rank], "fullrange")[0]


def _checked_ranks(n_len: int, ranks: Iterable[int], mode: str, budget: int | None) -> list:
    """The ranks, as a list of ints, that select_ranks may hand to
    _select_checked for a sequence of n_len values: the mode is checked,
    then every rank, then the budget is resolved once, then every rank's
    budget is checked, each raising select_ranks' error. The result depends
    only on the arguments, so one call serves every sequence of a length."""
    if mode == "naive":
        check = _check_naive_budget
    elif mode == "memo":
        check = _check_memo_budget
    elif mode == "fullrange":
        check = _check_fullrange_budget
    else:
        raise ValueError(
            f"mode must be one of ['fullrange', 'memo', 'naive'], got {mode!r}")
    # A plain loop: a comprehension would make a frame on every call.
    checked = []
    for rank in ranks:
        checked.append(_check_rank(rank, n_len))
    limit = resolve_budget(budget)
    for rank in checked:
        check(n_len, rank, limit)
    return checked


def _select_checked(values: tuple, ranks: list, mode: str,
                    stats: EvalStats | None = None) -> tuple:
    """select_ranks' values for validated floats and ranks already
    checked for their length, mode and budget, by _checked_ranks or a
    single selector: one kernel call, then the counters added to
    ``stats``. It is the one place that adds kernel counters."""
    if mode == "naive":
        found, recursive, base = _backend.kernels().naive_ranks(values, ranks)
        if stats is not None:
            stats.recursive_calls += recursive
            stats.base_case_calls += base
        return found
    found = _backend.kernels().normal_forms(values, ranks)
    if stats is not None and mode == "memo":
        _add_memo_counts(stats, len(values), ranks)
    return found


def select_ranks(seq: SequenceLike, ranks: Iterable[int], *, mode: str = "memo",
                 stats: EvalStats | None = None, budget: int | None = None) -> tuple:
    """The values at several ranks of one sequence, in the order given.

    Each value, and what it adds to ``stats``, equals bit for bit the
    single call select_naive, select_memo or select_fullrange (``mode``)
    at that rank; fullrange adds no counters. The sequence is validated
    once. Then _checked_ranks checks the mode, every rank, resolves the
    budget once and checks every rank's budget, all before the kernel
    runs, so a RankError or BudgetError leaves ``stats`` untouched.

    Then _select_checked makes one kernel call for every rank. Naive mode
    runs the plain recursion once per rank in it. Memo and fullrange modes
    read every rank off one pass of the normal-form fold, over the window
    of their subset sizes: N(N + 1)/2 steps for all N ranks. The memo
    counters are added as select_memo adds them, only when ``stats`` is
    passed, from the one closed form in Python ints, so they never
    overflow, on either backend. The checks depend only on the length, the
    ranks, the mode and the budget, so exhaustive_verify runs them once
    per length and the kernel call once per sequence.
    """
    seq = as_real_sequence(seq)
    ranks = _checked_ranks(len(seq.values), ranks, mode, budget)
    return _select_checked(seq.values, ranks, mode, stats)


def median(seq: SequenceLike, *, mode: str = "memo",
           stats: EvalStats | None = None, budget: int | None = None) -> float:
    """Median via selection: the middle rank for odd length, the average of
    the two middle ranks for even length, from select_ranks' two halves,
    _checked_ranks and _select_checked, on the sequence validated once. In
    memo mode both middle ranks come from one pass of the normal-form
    fold, which costs about as much as one. ``mode`` is naive or memo.
    The average of two finite values is finite: where their sum
    overflows, it is taken as the sum of their halves, which are exact
    there, so it is still the correctly rounded mean."""
    seq = as_real_sequence(seq)
    if mode not in ("memo", "naive"):
        raise ValueError(f"mode must be one of ['memo', 'naive'], got {mode!r}")
    n_len = len(seq.values)
    half = n_len // 2
    ranks = _checked_ranks(n_len, (half, half + 1) if n_len % 2 == 0 else (half + 1,),
                           mode, budget)
    found = _select_checked(seq.values, ranks, mode, stats)
    if n_len % 2 == 1:
        return found[0]
    lo, hi = found
    mid = (lo + hi) / 2
    return mid if math.isfinite(mid) else lo / 2 + hi / 2
