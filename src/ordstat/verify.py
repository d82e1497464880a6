"""Sort-based ground truth and the property suites built on it.

oracle_select sorts a copy and indexes it; everything else in the package
is judged against that. exhaustive_verify enumerates every value tuple over
a small alphabet up to a length cap and cross-checks each selection mode,
the compiled minmax expression, and the median. random_verify does the same
on seeded random sequences, including adversarial patterns (sorted,
reverse-sorted, all-equal, values one ulp apart), and additionally holds the
branchless arithmetic form to a tolerance.

Comparison-based modes must match the oracle bit for bit (they return one
of the input values). Arithmetic-form checks use an input-scale tolerance:
|actual - expected| <= tolerance * max(1, max_k |x_k|). Failures record
(input, rank, expected, actual, mode); median checks use rank 0.

Each suite call resolves the selection budget (ORDSTAT_BUDGET) once and
validates each sequence once, as a RealSequence that every selector of
that sequence reuses. exhaustive_verify selects all ranks of one mode in
one select_ranks call, so under a budget too small for the plan the
naive ranks of a sequence are all checked before any memo rank.

Case enumeration can be partitioned with ``shard=(index, count)``; shards
are disjoint by sequence and merge_reports recombines them into a canonical
report independent of the partitioning.
"""

from __future__ import annotations

import itertools
import json
import math
import random

from ._record import FrozenRecord, slot_setters
from .errors import BudgetError, RankError
from .expr import build_selection_expr, compile_to_pyfunc
from .selection import (
    RealSequence,
    median,
    naive_call_count,
    resolve_budget,
    select_fullrange,
    select_memo,
    select_naive,
    select_ranks,
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
        if max_n < 1:
            raise ValueError(f"max_n must be at least 1, got {max_n}")
        alphabet = tuple(float(a) for a in alphabet)
        if not alphabet:
            raise ValueError("alphabet must be non-empty")
        if not all(math.isfinite(a) for a in alphabet):
            raise ValueError("alphabet values must be finite")
        if random_trials < 0:
            raise ValueError(f"random_trials must be nonnegative, got {random_trials}")
        if not (isinstance(tolerance, (int, float)) and tolerance >= 0):
            raise ValueError(f"tolerance must be nonnegative, got {tolerance!r}")
        _set_max_n(self, max_n)
        _set_alphabet(self, alphabet)
        _set_random_trials(self, random_trials)
        _set_seed(self, seed)
        _set_tolerance(self, tolerance)


(_set_max_n, _set_alphabet, _set_random_trials, _set_seed,
 _set_tolerance) = slot_setters(VerifyPlan)


class VerifyFailure(FrozenRecord):
    """One mismatch; ``rank`` is 0 for median checks."""

    __slots__ = ("input", "rank", "expected", "actual", "mode")

    def __init__(self, input: tuple, rank: int, expected: float, actual: float,
                 mode: str):
        _set_input(self, input)
        _set_rank(self, rank)
        _set_expected(self, expected)
        _set_actual(self, actual)
        _set_mode(self, mode)

    def as_tuple(self):
        return (list(self.input), self.rank, self.expected, self.actual, self.mode)


_set_input, _set_rank, _set_expected, _set_actual, _set_mode = slot_setters(VerifyFailure)


class VerifyReport(FrozenRecord):
    """Outcome of a suite run: cases checked and the failures found."""

    __slots__ = ("cases_run", "failures")

    def __init__(self, cases_run: int, failures: tuple):
        _set_cases_run(self, cases_run)
        _set_failures(self, failures)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> str:
        payload = {
            "cases_run": self.cases_run,
            "failures": [f.as_tuple() for f in self.failures],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


_set_cases_run, _set_failures = slot_setters(VerifyReport)


def merge_reports(reports) -> VerifyReport:
    """Combine shard reports; failure order is canonicalized so the result
    does not depend on how the work was split. Inputs are ordered by value
    and, between equal zeros, -0.0 before 0.0."""
    cases = 0
    failures = []
    for rep in reports:
        cases += rep.cases_run
        failures.extend(rep.failures)
    failures.sort(key=lambda f: (f.mode, len(f.input), _signed(f.input), f.rank))
    return VerifyReport(cases, tuple(failures))


def _signed(values):
    # -0.0 == 0.0 would leave two such inputs in shard order; the sign
    # tells them apart and orders nothing else differently.
    return tuple((v, math.copysign(1.0, v)) for v in values)


def oracle_select(rank: int, seq) -> float:
    """Ground truth: sort a copy, take the rank-th smallest (1-based)."""
    values = [float(v) for v in seq]
    if not 1 <= rank <= len(values):
        raise RankError(f"rank {rank} out of range 1..{len(values)}")
    values.sort()
    return values[rank - 1]


def _oracle_median(seq) -> float:
    values = sorted(float(v) for v in seq)
    half = len(values) // 2
    if len(values) % 2:
        return values[half]
    return (values[half - 1] + values[half]) / 2


def _check_shard(shard):
    if shard is None:
        return 0, 1
    index, count = shard
    if count < 1 or not 0 <= index < count:
        raise ValueError(f"shard must be (index, count) with 0 <= index < count, got {shard!r}")
    return index, count


class _ExprCache:
    """Compiled minmax/arithmetic evaluators per (length, rank)."""

    def __init__(self):
        self._funcs = {}

    def get(self, length, rank, form):
        key = (length, rank, form)
        fn = self._funcs.get(key)
        if fn is None:
            fn = compile_to_pyfunc(build_selection_expr(length, rank, form))
            self._funcs[key] = fn
        return fn


def exhaustive_verify(plan: VerifyPlan | None = None, *, inject_fault: bool = False,
                      case_budget: int | None = None, shard=None) -> VerifyReport:
    """Check every mode against the oracle on all alphabet tuples of length
    1..plan.max_n at every rank, plus the median of every tuple.

    cases_run counts (sequence, rank) pairs and median checks. With
    inject_fault the naive mode is driven at an off-by-one rank, a negative
    control proving the harness detects broken selectors.
    """
    if plan is None:
        plan = VerifyPlan()
    case_limit = DEFAULT_CASE_BUDGET if case_budget is None else case_budget
    base = len(plan.alphabet)
    total = sum(base ** length * (length + 1) for length in range(1, plan.max_n + 1))
    if total > case_limit:
        raise BudgetError(
            f"plan implies {total} cases, over the case budget of {case_limit}"
        )
    index, count = _check_shard(shard)
    limit = resolve_budget()

    exprs = _ExprCache()
    failures = []
    cases = 0
    seq_no = 0
    for length in range(1, plan.max_n + 1):
        for combo in itertools.product(plan.alphabet, repeat=length):
            seq_no += 1
            if (seq_no - 1) % count != index:
                continue
            seq = RealSequence(combo)
            ordered = sorted(combo)
            ranks = range(1, length + 1)
            naive_ranks = [rank % length + 1 for rank in ranks] if inject_fault else ranks
            naive = select_ranks(seq, naive_ranks, mode="naive", budget=limit)
            memo = select_ranks(seq, ranks, mode="memo", budget=limit)
            full = select_ranks(seq, ranks, mode="fullrange", budget=limit)
            for rank in ranks:
                expected = ordered[rank - 1]
                checks = (
                    ("naive", naive[rank - 1]),
                    ("memo", memo[rank - 1]),
                    ("fullrange", full[rank - 1]),
                    ("expr-minmax", exprs.get(length, rank, "minmax")(combo)),
                )
                for mode, actual in checks:
                    if actual != expected:
                        failures.append(VerifyFailure(combo, rank, expected, actual, mode))
                cases += 1
            actual_md = median(seq, budget=limit)
            expected_md = _oracle_median(combo)
            if actual_md != expected_md:
                failures.append(VerifyFailure(combo, 0, expected_md, actual_md, "median"))
            cases += 1
    return VerifyReport(cases, tuple(failures))


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
    (when its call count is small) the naive mode, all bit-exactly. The
    compiled arithmetic form is held to plan.tolerance at input scale.
    """
    if plan is None:
        plan = VerifyPlan()
    if plan.random_trials < 1:
        raise ValueError("random_verify needs random_trials >= 1")
    rng = random.Random(plan.seed)
    limit = resolve_budget()
    exprs = _ExprCache()
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
        expected = oracle_select(rank, combo)
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
        actual = exprs.get(length, rank, "minmax")(combo)
        if actual != expected:
            record(combo, rank, expected, actual, "expr-minmax")
        actual = exprs.get(length, rank, "arithmetic")(combo)
        if abs(actual - expected) > plan.tolerance * scale:
            record(combo, rank, expected, actual, "expr-arith")
        actual_md = median(seq, budget=limit)
        expected_md = _oracle_median(combo)
        if actual_md != expected_md:
            record(combo, 0, expected_md, actual_md, "median")
        cases += 2
    return VerifyReport(cases, tuple(failures))
