"""Call-count growth, expression-size growth, and wall-clock comparisons.

The naive counts are measured: growth_table runs the instrumented naive
recursion and raises if its base_case_calls ever deviates from the closed
form (length - rank + 2)**(rank - 1). The memo counters are not measured;
select_memo reports them from their own closed form of (length, rank),
_pykernels._memo_counts. Timings
are medians over a configurable repetition count; repeats=0 skips timing
and reports 0.0, which keeps the serialized tables byte-stable, and a
negative count raises ValueError.

Correctness is re-checked inside every benchmark: all timed modes must
agree on the benchmarked inputs (inputs are integer-valued, so agreement
is exact, including for the branchless arithmetic form).
"""

from __future__ import annotations

import json
import random
import time

from ._backend import available_backends, get_kernels
from ._record import FrozenRecord
from .errors import OrdstatError
from .expr import build_selection_expr, compile_to_pyfunc, cse
from .selection import (
    EvalStats,
    _check_naive_budget,
    _check_rank,
    _integral,
    naive_call_count,
    resolve_budget,
    select_memo,
    select_naive,
)
from .verify import _oracle_median, oracle_select

CSV_HEADER = "N,n,mode,base_case_calls,memo_hits,tree_nodes,dag_nodes,wall_time_s"


class BenchRecord(FrozenRecord):
    """One row of a benchmark table; the fields are the CSV_HEADER columns."""

    __slots__ = ("N", "n", "mode", "base_case_calls", "memo_hits", "tree_nodes",
                 "dag_nodes", "wall_time_s")

    def __init__(self, N: int, n: int, mode: str, base_case_calls: int, memo_hits: int,
                 tree_nodes: int, dag_nodes: int, wall_time_s: float):
        self._store(N, n, mode, base_case_calls, memo_hits, tree_nodes, dag_nodes,
                    wall_time_s)


def _format_seconds(t: float) -> str:
    return repr(float(t)) if t else "0.0"


def records_to_csv(records) -> str:
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            f"{r.N},{r.n},{r.mode},{r.base_case_calls},{r.memo_hits},"
            f"{r.tree_nodes},{r.dag_nodes},{_format_seconds(r.wall_time_s)}"
        )
    return "\n".join(lines) + "\n"


def records_to_json(records) -> str:
    rows = [{name: getattr(r, name) for name in BenchRecord.__slots__} for r in records]
    return json.dumps(rows, sort_keys=True, separators=(",", ":"))


def _median_time(fn, repeats: int) -> float:
    if repeats <= 0:
        return 0.0
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return _oracle_median(times)


def _fixed_sequence(length: int):
    rng = random.Random(length)
    return tuple(float(rng.randint(-10 ** 6, 10 ** 6)) for _ in range(length))


def count_calls(length: int, rank: int, *, budget: int | None = None) -> int:
    """Measured base-case calls of a naive select at this size.

    The count is input-independent, so any sequence of the right length
    serves; this runs the instrumented recursion rather than trusting the
    closed form.
    """
    length = _integral(length, ValueError, "length")
    stats = EvalStats()
    select_naive(rank, _fixed_sequence(length), stats, budget=budget)
    return stats.base_case_calls


def growth_table(max_N: int, *, repeats: int = 3, budget: int | None = None):
    """One record per (N, n) with 1 <= n <= N <= max_N, mode "growth".

    Each record carries the measured naive base-case count, the memo hit
    count (select_memo's closed form), the minmax formula's tree/DAG node
    counts, and the median wall time of a memoized select. The naive count
    is checked against (N - n + 2)**(n - 1), the memo base-case count must
    not exceed it, and the two selectors must agree; any deviation raises
    OrdstatError.
    """
    max_N = _integral(max_N, ValueError, "max_N")
    repeats = _integral(repeats, ValueError, "repeats")
    if repeats < 0:
        raise ValueError(f"repeats must be nonnegative, got {repeats}")
    if max_N < 1:
        raise ValueError(f"max_N must be at least 1, got {max_N}")
    limit = resolve_budget(budget)
    records = []
    for length in range(1, max_N + 1):
        values = _fixed_sequence(length)
        for rank in range(1, length + 1):
            naive_stats = EvalStats()
            naive_val = select_naive(rank, values, naive_stats, budget=limit)
            memo_stats = EvalStats()
            memo_val = select_memo(rank, values, memo_stats, budget=limit)
            closed = naive_call_count(length, rank)
            if naive_stats.base_case_calls != closed:
                raise OrdstatError(
                    f"count law deviation at N={length} n={rank}: measured "
                    f"{naive_stats.base_case_calls}, closed form {closed}"
                )
            if memo_stats.base_case_calls > naive_stats.base_case_calls:
                raise OrdstatError(
                    f"memoized count exceeds naive count at N={length} n={rank}"
                )
            if memo_val != naive_val:
                raise OrdstatError(
                    f"mode disagreement at N={length} n={rank}: "
                    f"naive {naive_val!r}, memo {memo_val!r}"
                )
            _, m = cse(build_selection_expr(length, rank, "minmax", budget=limit))
            wall = _median_time(lambda: select_memo(rank, values, budget=limit),
                                repeats)
            records.append(BenchRecord(length, rank, "growth",
                                       naive_stats.base_case_calls,
                                       memo_stats.memo_hits,
                                       m.node_count_tree, m.node_count_dag, wall))
    return records


def compare_wallclock(length: int, trials: int, seed: int = 0, *,
                      budget: int | None = None):
    """Median per-call wall time of the memoized selector, the compiled
    branchless formula, and the sort oracle on identical random inputs.

    The rank is the middle one, (length + 1) // 2. Inputs are integer
    valued, so all three modes must agree exactly; a mismatch raises
    OrdstatError. Returns records with modes "memo", "expr", "oracle".
    """
    length = _integral(length, ValueError, "length")
    trials = _integral(trials, ValueError, "trials")
    if length < 1:
        raise ValueError(f"length must be at least 1, got {length}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    limit = resolve_budget(budget)
    rank = (length + 1) // 2
    expr = build_selection_expr(length, rank, "arithmetic", budget=limit)
    _, metrics = cse(expr)
    fn = compile_to_pyfunc(expr)

    rng = random.Random(seed)
    inputs = [tuple(float(rng.randint(-10 ** 6, 10 ** 6)) for _ in range(length))
              for _ in range(trials)]

    memo_stats = EvalStats()
    select_memo(rank, inputs[0], memo_stats, budget=limit)

    times = {"memo": [], "expr": [], "oracle": []}
    for xs in inputs:
        start = time.perf_counter()
        v_memo = select_memo(rank, xs, budget=limit)
        times["memo"].append(time.perf_counter() - start)
        start = time.perf_counter()
        v_expr = fn(xs)
        times["expr"].append(time.perf_counter() - start)
        start = time.perf_counter()
        v_oracle = oracle_select(rank, xs)
        times["oracle"].append(time.perf_counter() - start)
        if not v_memo == v_expr == v_oracle:
            raise OrdstatError(
                f"mode disagreement on {xs!r} at rank {rank}: memo {v_memo!r}, "
                f"expr {v_expr!r}, oracle {v_oracle!r}"
            )
    med = {mode: _oracle_median(ts) for mode, ts in times.items()}
    return [
        BenchRecord(length, rank, "memo", memo_stats.base_case_calls,
                    memo_stats.memo_hits, 0, 0, med["memo"]),
        BenchRecord(length, rank, "expr", 0, 0, metrics.node_count_tree,
                    metrics.node_count_dag, med["expr"]),
        BenchRecord(length, rank, "oracle", 0, 0, 0, 0, med["oracle"]),
    ]


def backend_table(length: int, rank: int, *, repeats: int = 5, budget: int | None = None):
    """Time the naive and memoized kernels of every available backend
    (pure Python, and the compiled extension when built) on one input.

    Modes are labeled like "memo[python]" or "naive[cython]". Each row
    times the entry the selectors call at this one rank: a naive row the
    kernel's naive_ranks, a memo row its normal_forms, which is what
    select_memo runs. All backends must agree exactly with the oracle.
    """
    length = _integral(length, ValueError, "length")
    rank = _check_rank(rank, length)
    repeats = _integral(repeats, ValueError, "repeats")
    if repeats < 0:
        raise ValueError(f"repeats must be nonnegative, got {repeats}")
    _check_naive_budget(length, rank, resolve_budget(budget))
    values = _fixed_sequence(length)
    expected = oracle_select(rank, values)
    records = []
    for name in available_backends():
        kern = get_kernels(name)
        for mode, run in (("naive", lambda: kern.naive_ranks(values, (rank,))[0][0]),
                          ("memo", lambda: kern.normal_forms(values, (rank,))[0])):
            got = run()
            if got != expected:
                raise OrdstatError(
                    f"{mode}[{name}] disagrees with the oracle on {values!r}"
                )
            wall = _median_time(run, repeats)
            records.append(BenchRecord(length, rank, f"{mode}[{name}]",
                                       0, 0, 0, 0, wall))
    return records
