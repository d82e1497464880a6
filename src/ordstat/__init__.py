"""Order-statistic selection via a recursive max-of-mins formulation.

The rank-th smallest of x1..xN can be written as a max over the results of
recursing on each of the first N - rank + 2 single-element eliminations,
bottoming out in a minimum. This package implements that recursion (plain,
memoized, and a full-range diagnostic variant), compiles it into explicit
min/max or branchless add/sub/abs/halve formulas, verifies everything
against a sort-based oracle, and benchmarks the growth.

Ranks are 1-based everywhere: rank 1 is the minimum, rank N the maximum.

Hot kernels run on a compiled C extension when it is built (building it
needs only a C compiler); otherwise the pure-Python kernels, which give
the same values and counters, are selected at import (override with the
ORDSTAT_BACKEND environment variable or set_backend).
"""

from ._backend import active_backend, available_backends, set_backend
from .bench import (
    CSV_HEADER,
    BenchRecord,
    backend_table,
    compare_wallclock,
    count_calls,
    growth_table,
    records_to_csv,
    records_to_json,
)
from .errors import (
    BudgetError,
    ExprError,
    OrdstatError,
    RankError,
    SequenceError,
    TextParseError,
)
from .expr import (
    CompiledProgram,
    Expr,
    ExprMetrics,
    SlpInstruction,
    abs_of,
    add,
    build_selection_expr,
    compile_to_pyfunc,
    const,
    contains_minmax,
    cse,
    emit_slp,
    emit_text,
    eval_expr,
    format_real,
    halve,
    interpret_slp,
    lower_minmax_to_arith,
    max_of,
    metrics_of,
    min_of,
    parse_text,
    sub,
    var,
)
from .selection import (
    BUDGET_ENV_VAR,
    DEFAULT_BUDGET,
    EvalStats,
    RealSequence,
    as_real_sequence,
    median,
    naive_call_count,
    pairwise_max_arith,
    pairwise_min_arith,
    resolve_budget,
    select_fullrange,
    select_memo,
    select_naive,
    select_ranks,
)
from .verify import (
    VerifyFailure,
    VerifyPlan,
    VerifyReport,
    exhaustive_verify,
    merge_reports,
    oracle_select,
    random_verify,
)

__version__ = "0.1.0"

__all__ = [
    "BUDGET_ENV_VAR",
    "BenchRecord",
    "BudgetError",
    "CSV_HEADER",
    "CompiledProgram",
    "DEFAULT_BUDGET",
    "EvalStats",
    "Expr",
    "ExprError",
    "ExprMetrics",
    "OrdstatError",
    "RankError",
    "RealSequence",
    "SequenceError",
    "SlpInstruction",
    "TextParseError",
    "VerifyFailure",
    "VerifyPlan",
    "VerifyReport",
    "__version__",
    "abs_of",
    "active_backend",
    "add",
    "as_real_sequence",
    "available_backends",
    "backend_table",
    "build_selection_expr",
    "compare_wallclock",
    "compile_to_pyfunc",
    "const",
    "contains_minmax",
    "count_calls",
    "cse",
    "emit_slp",
    "emit_text",
    "eval_expr",
    "exhaustive_verify",
    "format_real",
    "growth_table",
    "halve",
    "interpret_slp",
    "lower_minmax_to_arith",
    "max_of",
    "median",
    "merge_reports",
    "metrics_of",
    "min_of",
    "naive_call_count",
    "oracle_select",
    "pairwise_max_arith",
    "pairwise_min_arith",
    "parse_text",
    "random_verify",
    "records_to_csv",
    "records_to_json",
    "resolve_budget",
    "select_fullrange",
    "select_memo",
    "select_naive",
    "select_ranks",
    "set_backend",
    "sub",
    "var",
]
