"""Sort-based ground truth and the property suites built on it.

oracle_select sorts a copy and indexes it; everything else in the package
is judged against that. exhaustive_verify enumerates every value tuple over
a small alphabet up to a length cap and cross-checks each selection mode,
the compiled minmax expression, and the median. random_verify does the same
on seeded random sequences, including adversarial patterns (sorted,
reverse-sorted, all-equal, values one ulp apart), and additionally holds the
branchless arithmetic form to a tolerance.

Comparison-based modes must equal the oracle under float == (they return
one of the input values); == takes -0.0 and 0.0 as equal, so the sign of
a zero result is not checked. Arithmetic-form checks use an input-scale
tolerance: |actual - expected| <= tolerance * max(1, max_k |x_k|).
Failures record (input, rank, expected, actual, mode); median checks use
rank 0. The expected median of two middle values whose float sum
overflows is their exact rational mean, rounded once, so a median that
overflows to an infinity on finite input is a failure.

Each suite call resolves the selection budget (ORDSTAT_BUDGET) once, for
its selections and formula builds alike, and validates each sequence
once: random_verify as a RealSequence that every selector of that
sequence reuses, exhaustive_verify with one call of the kernels'
real_values, which is what RealSequence stores, without the record.
Compiled formulas are kept for the process, keyed by the kernel module,
length, rank and form, and evicted least recently used first once they
hold more than _CACHE_INSTRUCTIONS SLP instructions in all, so repeated
suite calls build no formula. Each suite call still checks the formula
budget of each (length, rank, form) at its first use, before the
lookup, so a warm cache raises what a cold one would. A missing minmax
formula is built and only its packed program kept; the arithmetic form
is that program lowered (expr._lower_program) and compiled, so no
arithmetic graph is built.
exhaustive_verify runs select_ranks and median each in their two
halves: the rank and budget checks of each mode (selection._checked_ranks)
and of the median's middle ranks (selection._median_ranks) once per
length, before the length's first tuple, since they depend on nothing
else, and then the kernel calls, one per mode and tuple
(selection._select_checked) and one per tuple for the median
(selection._median_checked). The memo and fullrange ranks each come from
one pass of the normal-form fold, as do the median's. Under a budget too
small for the plan, the first length whose checks fail raises the error
select_ranks would raise on its first tuple: the naive ranks are all
checked before any memo rank, and every mode before any formula of that
length, whose formulas are fetched in rank order before its first tuple.
The middle ranks are memo ranks already checked, so their check, after
the three modes, never fails first.

exhaustive_verify checks each length column by column, in chunks of
_CHUNK tuples: each tuple is validated by one real_values call and sorted
once, one map per mode, per rank's formula and for the median makes a
column over the chunk, and each column is compared whole with the sorted
rows by list equality, which is == on floats as a per-tuple != would be.
Only a chunk with a mismatch is walked again tuple by tuple, so its
failures come in the order of a per-tuple loop: tuple, rank, then naive,
memo, fullrange and expr-minmax, then the median. At most one chunk is
held at a time, so memory does not grow with the plan.

merge_reports combines reports into one whose failure order does not
depend on the order of the reports; ``ordstat verify`` merges its two
suites' reports with it.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
from _thread import allocate_lock

from . import _backend
from ._pykernels import _TEXT, _to_float
from ._record import FrozenRecord
from .errors import BudgetError
from .expr import _compile_program, _lower_program, _program_of, build_selection_expr
from .selection import (
    RealSequence,
    _check_formula_budget,
    _check_rank,
    _checked_ranks,
    _integral,
    _median_checked,
    _median_ranks,
    _select_checked,
    as_real_sequence,
    median,
    naive_call_count,
    resolve_budget,
    select_fullrange,
    select_memo,
    select_naive,
)

DEFAULT_CASE_BUDGET = 5_000_000

# Naive mode joins a random trial only when its call count stays this small.
_NAIVE_TRIAL_CAP = 4096


class VerifyPlan(FrozenRecord):
    """Suite parameters; exhaustive runs use max_n and alphabet, random runs
    use max_n, random_trials, seed and tolerance."""

    __slots__ = ("max_n", "alphabet", "random_trials", "seed", "tolerance")

    def __init__(self, max_n: int = 7, alphabet: tuple = (0.0, 1.0, 2.0, 3.0),
                 random_trials: int = 1000, seed: int = 0, tolerance: float = 1e-9):
        max_n = _integral(max_n, ValueError, "max_n")
        if max_n < 1:
            raise ValueError(f"max_n must be at least 1, got {max_n}")
        if isinstance(alphabet, _TEXT):
            raise ValueError(f"alphabet must be a collection of numbers, "
                             f"not {type(alphabet).__name__!r}")
        alphabet = tuple(map(_to_float, alphabet))
        if not alphabet:
            raise ValueError("alphabet must be non-empty")
        if not all(math.isfinite(a) for a in alphabet):
            raise ValueError("alphabet values must be finite")
        random_trials = _integral(random_trials, ValueError, "random_trials")
        if random_trials < 0:
            raise ValueError(f"random_trials must be nonnegative, got {random_trials}")
        seed = _integral(seed, ValueError, "seed")
        if not (isinstance(tolerance, (int, float)) and tolerance >= 0):
            raise ValueError(f"tolerance must be nonnegative, got {tolerance!r}")
        # An infinite tolerance would pass any arithmetic-form result.
        if not math.isfinite(_to_float(tolerance)):
            raise ValueError(f"tolerance must be finite, got {tolerance!r}")
        self._store(max_n, alphabet, random_trials, seed, tolerance)


class VerifyFailure(FrozenRecord):
    """One mismatch; ``rank`` is 0 for median checks."""

    __slots__ = ("input", "rank", "expected", "actual", "mode")

    def __init__(self, input: tuple, rank: int, expected: float, actual: float,
                 mode: str):
        self._store(input, rank, expected, actual, mode)

    def as_tuple(self):
        return (list(self.input), self.rank, self.expected, self.actual, self.mode)


class VerifyReport(FrozenRecord):
    """Outcome of a suite run: cases checked and the failures found."""

    __slots__ = ("cases_run", "failures")

    def __init__(self, cases_run: int, failures: tuple):
        self._store(cases_run, failures)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> str:
        payload = {
            "cases_run": self.cases_run,
            "failures": [f.as_tuple() for f in self.failures],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def merge_reports(reports) -> VerifyReport:
    """Sum the cases of several reports and put their failures in one
    canonical order, whatever the order of the reports: by mode, input
    length, input values with -0.0 before an equal 0.0, then rank."""
    cases = 0
    failures = []
    for rep in reports:
        cases += rep.cases_run
        failures.extend(rep.failures)
    failures.sort(key=lambda f: (f.mode, len(f.input), _signed(f.input), f.rank))
    return VerifyReport(cases, tuple(failures))


def _signed(values):
    # -0.0 == 0.0 would leave two such inputs in report order; the sign
    # tells them apart and orders nothing else differently.
    return tuple((v, math.copysign(1.0, v)) for v in values)


def oracle_select(rank: int, seq) -> float:
    """Ground truth: sort a copy, take the rank-th smallest (1-based).
    The sequence is validated as the selectors validate it, so an empty
    or non-finite one raises SequenceError."""
    values = sorted(as_real_sequence(seq).values)
    return values[_check_rank(rank, len(values)) - 1]


def _oracle_median(seq) -> float:
    return _middle_mean(sorted(float(v) for v in seq))


def _middle_mean(values) -> float:
    """The median of sorted values: the middle one, or the mean of the two
    middle ones."""
    half = len(values) // 2
    if len(values) % 2:
        return values[half]
    mid = (values[half - 1] + values[half]) / 2
    if math.isfinite(mid):
        return mid
    # The float sum overflowed; the exact mean is finite, and computing it
    # apart from median's own fallback keeps the check independent. The
    # import is here so that importing ordstat does not load fractions.
    from fractions import Fraction

    return float((Fraction(values[half - 1]) + Fraction(values[half])) / 2)


# Compiled formulas kept for the process: (kernel module, length, rank,
# form) -> (callable, SLP instructions), least recently used first. They
# hold at most _CACHE_INSTRUCTIONS instructions in all, so a large plan's
# formulas do not outlive its call; every formula of N <= 9 in both forms
# is 29,400. _lock makes each lookup and each insertion atomic.
_CACHE_INSTRUCTIONS = 2**18
_cache = {}
_held = 0
_lock = allocate_lock()


def _formulas(limit):
    """Compiled minmax/arithmetic evaluators, one per (length, rank, form),
    for one suite call. The first use of each checks its formula budget
    under the suite's limit and then looks it up in _cache. A miss builds
    the minmax formula of (length, rank), at most once per call, and keeps
    only its program; the arithmetic form is that program lowered, so no
    arithmetic node is built."""
    program = functools.cache(lambda length, rank: _program_of(
        build_selection_expr(length, rank, "minmax", budget=limit)))

    @functools.cache
    def formula(length, rank, form):
        _check_formula_budget(length, rank, limit)
        key = (_backend.kernels(), length, rank, form)
        with _lock:
            entry = _cache.pop(key, None)
            if entry is not None:
                _cache[key] = entry
                return entry[0]
        slp = program(length, rank)
        if form != "minmax":
            slp = _lower_program(slp)
        compiled = _compile_program(slp)
        _keep(key, compiled, len(slp.code) // 3)
        return compiled

    return formula


def _keep(key, compiled, size):
    """Add a formula of ``size`` instructions to _cache, evicting the least
    recently used first; one past the bound alone is not kept."""
    global _held
    with _lock:
        if size > _CACHE_INSTRUCTIONS or key in _cache:
            return
        _cache[key] = (compiled, size)
        _held += size
        while _held > _CACHE_INSTRUCTIONS:
            _held -= _cache.pop(next(iter(_cache)))[1]


# Tuples that exhaustive_verify checks at once: enough to spread the cost
# of each column's map and compare, few enough that no long length is held.
_CHUNK = 1024
# The modes of exhaustive_verify's columns, in the order their failures come.
_COLUMNS = ("naive", "memo", "fullrange", "expr-minmax")


def exhaustive_verify(plan: VerifyPlan | None = None, *, inject_fault: bool = False,
                      case_budget: int | None = None) -> VerifyReport:
    """Check every mode against the oracle on all alphabet tuples of length
    1..plan.max_n at every rank, plus the median of every tuple.

    cases_run counts (sequence, rank) pairs and median checks. A plan
    whose count passes the case budget is refused before any check, at
    the first length that takes the count past it. With inject_fault the
    naive mode is driven at an off-by-one rank, a negative control proving
    the harness detects broken selectors.

    Each length's tuples are checked in chunks of _CHUNK, column by
    column: each tuple is validated by the kernels' real_values and
    sorted once, each mode's rows come from one map of _select_checked,
    each rank's formula results from one map each, the medians from one
    map of _median_checked, and every column is compared whole with the
    sorted rows. A chunk with a mismatch is walked tuple by tuple, so
    failures come in the order of a per-tuple loop.
    """
    if plan is None:
        plan = VerifyPlan()
    case_limit = (DEFAULT_CASE_BUDGET if case_budget is None
                  else _integral(case_budget, BudgetError, "case budget"))
    base = len(plan.alphabet)
    total = 0
    for length in range(1, plan.max_n + 1):
        total += base ** length * (length + 1)
        if total > case_limit:
            raise BudgetError(
                f"plan implies at least {total} cases, over the case budget of {case_limit}"
            )
    limit = resolve_budget()

    exprs = _formulas(limit)
    real_values = _backend.kernels().real_values
    failures = []
    cases = 0
    for length in range(1, plan.max_n + 1):
        ranks = range(1, length + 1)
        naive_ranks = _checked_ranks(
            length, [rank % length + 1 for rank in ranks] if inject_fault else ranks,
            "naive", limit)
        memo_ranks = _checked_ranks(length, ranks, "memo", limit)
        full_ranks = _checked_ranks(length, ranks, "fullrange", limit)
        middle_ranks = _median_ranks(length, "memo", limit)
        formulas = [exprs(length, rank, "minmax") for rank in ranks]
        tuples = itertools.product(plan.alphabet, repeat=length)
        while chunk := list(itertools.islice(tuples, _CHUNK)):
            values = list(map(real_values, chunk))
            rows = list(map(tuple, map(sorted, chunk)))
            columns = [list(map(_select_checked, values, itertools.repeat(checked),
                                itertools.repeat(mode)))
                       for mode, checked in zip(_COLUMNS, (naive_ranks, memo_ranks, full_ranks))]
            # Each rank's formula results, made rows. A tuple(map(...)) would
            # be built by resizing, and each one freed would stay on the free
            # list of its final size, up to 2000 of each size for good.
            columns.append(list(zip(*[list(map(formula, chunk)) for formula in formulas])))
            medians = list(map(_median_checked, values, itertools.repeat(middle_ranks)))
            middles = list(map(_middle_mean, rows))
            if not (all(rows == column for column in columns) and medians == middles):
                failures += _chunk_failures(chunk, rows, columns, medians, middles)
            cases += len(chunk) * (length + 1)
    return VerifyReport(cases, tuple(failures))


def _chunk_failures(chunk, rows, columns, medians, middles):
    """The failures of one exhaustive_verify chunk, tuple by tuple: each
    rank's naive, memo, fullrange and expr-minmax checks, then the
    median."""
    failures = []
    for i, combo in enumerate(chunk):
        for r, expected in enumerate(rows[i]):
            for mode, column in zip(_COLUMNS, columns):
                actual = column[i][r]
                if actual != expected:
                    failures.append(VerifyFailure(combo, r + 1, expected, actual, mode))
        if medians[i] != middles[i]:
            failures.append(VerifyFailure(combo, 0, middles[i], medians[i], "median"))
    return failures


def _random_sequence(rng, length, pattern):
    if pattern == "equal":
        return [rng.uniform(-1e6, 1e6)] * length
    if pattern == "near-equal":
        cur = rng.uniform(-1e6, 1e6)
        values = []
        for _ in range(length):
            values.append(cur)
            roll = rng.random()
            if roll < 0.4:
                pass  # duplicate
            elif roll < 0.8:
                cur = math.nextafter(cur, math.inf)
            else:
                cur = rng.uniform(-1e6, 1e6)
        rng.shuffle(values)
        return values
    values = [rng.uniform(-1e6, 1e6) for _ in range(length)]
    if pattern == "sorted":
        values.sort()
    elif pattern == "reverse":
        values.sort(reverse=True)
    return values


_PATTERNS = ("uniform", "sorted", "reverse", "equal", "near-equal")


def random_verify(plan: VerifyPlan | None = None, *, inject_fault: bool = False) -> VerifyReport:
    """Seeded random cross-checks; deterministic for a fixed plan.

    Each trial draws a length, a value pattern, and a rank, then checks the
    memoized and full-range modes, the compiled minmax form, the median, and
    (when its call count is small) the naive mode, all for equality with
    the oracle under ==, which does not tell -0.0 from 0.0. The compiled
    arithmetic form is held to plan.tolerance at input scale.
    """
    if plan is None:
        plan = VerifyPlan()
    if plan.random_trials < 1:
        raise ValueError("random_verify needs random_trials >= 1")
    rng = random.Random(plan.seed)
    limit = resolve_budget()
    exprs = _formulas(limit)
    failures = []
    cases = 0

    def record(combo, rank, expected, actual, mode):
        failures.append(VerifyFailure(combo, rank, expected, actual, mode))

    for trial in range(plan.random_trials):
        length = rng.randint(1, plan.max_n)
        pattern = _PATTERNS[trial % len(_PATTERNS)]
        values = _random_sequence(rng, length, pattern)
        combo = tuple(values)
        seq = RealSequence(combo)
        rank = rng.randint(1, length)
        expected = oracle_select(rank, seq)
        scale = max(1.0, max(abs(v) for v in combo))

        memo_rank = rank % length + 1 if inject_fault else rank
        actual = select_memo(memo_rank, seq, budget=limit)
        if actual != expected:
            record(combo, rank, expected, actual, "memo")
        actual = select_fullrange(rank, seq, budget=limit)
        if actual != expected:
            record(combo, rank, expected, actual, "fullrange")
        if naive_call_count(length, rank) <= _NAIVE_TRIAL_CAP:
            actual = select_naive(rank, seq, budget=limit)
            if actual != expected:
                record(combo, rank, expected, actual, "naive")
        actual = exprs(length, rank, "minmax")(combo)
        if actual != expected:
            record(combo, rank, expected, actual, "expr-minmax")
        actual = exprs(length, rank, "arithmetic")(combo)
        if abs(actual - expected) > plan.tolerance * scale:
            record(combo, rank, expected, actual, "expr-arith")
        actual_md = median(seq, budget=limit)
        expected_md = _oracle_median(combo)
        if actual_md != expected_md:
            record(combo, 0, expected_md, actual_md, "median")
        cases += 2
    return VerifyReport(cases, tuple(failures))
