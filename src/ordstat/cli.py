"""Command-line front end: selection, median, formula emission,
verification, and benchmarking.

Ranks are 1-based throughout: rank 1 is the minimum, rank N the maximum.

Input for select/median comes from a file path argument, or stdin when the
path is "-" (the default). The accepted grammar is whitespace- or
comma-separated decimal literals (optional sign, fraction, exponent); input
starting with "[" is parsed as a JSON array instead. NaN and infinity are
rejected in both grammars.

Exit status: 0 on success, 1 when a verify run reports failures, 2 on
input/parse errors, 3 on rank, budget, or formula errors. The recursion
budget can be overridden per command with --budget or globally with the
ORDSTAT_BUDGET environment variable (flag wins). emit refuses, before
rendering, formula text of more tree nodes than the budget (not --slp).
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .bench import (
    backend_table,
    compare_wallclock,
    growth_table,
    records_to_csv,
    records_to_json,
)
from .errors import BudgetError, OrdstatError, SequenceError, TextParseError
from .expr import (
    build_selection_expr,
    compile_to_pyfunc,
    emit_slp,
    emit_text,
    format_real,
    metrics_of,
)
from .selection import (
    EvalStats,
    as_real_sequence,
    median,
    resolve_budget,
    select_fullrange,
    select_memo,
    select_naive,
)
from .verify import (
    VerifyPlan,
    exhaustive_verify,
    merge_reports,
    random_verify,
)

_NUMBER_TOKEN = re.compile(r"^[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?$")


def _reject_json_constant(name):
    raise TextParseError(f"non-finite JSON token {name!r} rejected")


def parse_sequence_text(text: str) -> list:
    """Parse the CLI input grammar into a list of floats."""
    stripped = text.strip()
    if stripped.startswith("["):
        try:
            data = json.loads(stripped, parse_constant=_reject_json_constant)
        except TextParseError:
            raise
        except ValueError as exc:
            raise TextParseError(f"invalid JSON input: {exc}") from None
        if not isinstance(data, list):
            raise TextParseError("JSON input must be an array of numbers")
        values = []
        for item in data:
            if isinstance(item, bool) or not isinstance(item, (int, float)):
                raise TextParseError(f"JSON array items must be numbers, got {item!r}")
            try:
                values.append(float(item))
            except OverflowError:  # an integer past the float range
                digits = str(item)
                raise TextParseError(f"JSON number {digits[:12]}... of {len(digits)} "
                                     f"characters is out of float range") from None
        return values
    tokens = [t for t in re.split(r"[\s,]+", stripped) if t]
    if not tokens:
        raise TextParseError("empty input")
    values = []
    for tok in tokens:
        if not _NUMBER_TOKEN.match(tok):
            raise TextParseError(f"not a decimal literal: {tok!r}")
        values.append(float(tok))
    return values


def _read_values(args) -> list:
    name = "stdin" if args.input == "-" else args.input
    try:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise TextParseError(f"cannot read {name}: {exc}") from None
    return parse_sequence_text(text)


def _print_json(payload) -> None:
    print(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def cmd_select(args) -> int:
    values = _read_values(args)
    stats = EvalStats()
    if args.mode == "naive":
        value = select_naive(args.rank, values, stats, budget=args.budget)
    elif args.mode == "memo":
        value = select_memo(args.rank, values, stats, budget=args.budget)
    elif args.mode == "fullrange":
        value = select_fullrange(args.rank, values, budget=args.budget)
    else:  # expr: compile the minmax formula for this size and run it
        seq = as_real_sequence(values)
        fn = compile_to_pyfunc(
            build_selection_expr(len(seq), args.rank, "minmax", budget=args.budget))
        value = fn(seq.values)
    if args.format == "json":
        _print_json({
            "n": args.rank,
            "value": value,
            "stats": {
                "recursive_calls": stats.recursive_calls,
                "base_case_calls": stats.base_case_calls,
                "memo_hits": stats.memo_hits,
            },
        })
    else:
        print(format_real(value))
    return 0


def cmd_median(args) -> int:
    values = _read_values(args)
    value = median(values, mode=args.mode, budget=args.budget)
    if args.format == "json":
        _print_json({"value": value})
    else:
        print(format_real(value))
    return 0


def cmd_emit(args) -> int:
    if args.slp:
        expr = build_selection_expr(args.n, args.rank, "arithmetic",
                                    budget=args.budget)
        print(emit_slp(expr).to_text())
        return 0
    expr = build_selection_expr(args.n, args.rank, args.form, budget=args.budget)
    nodes, limit = metrics_of(expr).node_count_tree, resolve_budget(args.budget)
    if nodes > limit:
        raise BudgetError(f"formula text of {nodes} tree nodes is over the budget of {limit}")
    print(emit_text(expr, args.syntax))
    return 0


def cmd_verify(args) -> int:
    run_all = not (args.exhaustive or args.random)
    alphabet = tuple(parse_sequence_text(args.alphabet))
    plan = VerifyPlan(max_n=args.max_n, alphabet=alphabet,
                      random_trials=args.trials, seed=args.seed,
                      tolerance=args.tolerance)
    reports = []
    if args.exhaustive or run_all:
        reports.append(exhaustive_verify(plan, inject_fault=args.inject_fault,
                                         case_budget=args.case_budget))
    if args.random or run_all:
        reports.append(random_verify(plan, inject_fault=args.inject_fault))
    report = reports[0] if len(reports) == 1 else merge_reports(reports)
    print(report.to_json())
    return 0 if report.ok else 1


def cmd_bench(args) -> int:
    records = []
    chosen = args.growth or args.compare or args.backends
    if args.growth or not chosen:
        records.extend(growth_table(args.max_n, repeats=args.repeats,
                                    budget=args.budget))
    if args.compare:
        records.extend(compare_wallclock(args.n, args.trials, args.seed,
                                         budget=args.budget))
    if args.backends:
        rank = args.rank if args.rank is not None else (args.n + 1) // 2
        records.extend(backend_table(args.n, rank, repeats=args.repeats,
                                     budget=args.budget))
    if args.format == "json":
        print(records_to_json(records))
    else:
        sys.stdout.write(records_to_csv(records))
    return 0


def _add_input_arg(sub) -> None:
    sub.add_argument("input", nargs="?", default="-",
                     help="input file path, or - for stdin (default)")


def _add_budget_arg(sub) -> None:
    sub.add_argument("--budget", type=int, default=None,
                     help="recursion budget override (default: ORDSTAT_BUDGET "
                          "env var, then 2**24)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordstat",
        description="Order-statistic selection via the recursive max-of-mins "
                    "formulation, with branchless formula emission, "
                    "verification, and benchmarking. Ranks are 1-based.")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("select", help="print the rank-th smallest value")
    _add_input_arg(p)
    p.add_argument("--rank", type=int, required=True,
                   help="1-based rank; 1 is the minimum")
    p.add_argument("--mode", choices=("naive", "memo", "fullrange", "expr"),
                   default="memo")
    p.add_argument("--format", choices=("text", "json"), default="text")
    _add_budget_arg(p)
    p.set_defaults(func=cmd_select)

    p = commands.add_parser("median", help="print the median")
    _add_input_arg(p)
    p.add_argument("--mode", choices=("naive", "memo"), default="memo")
    p.add_argument("--format", choices=("text", "json"), default="text")
    _add_budget_arg(p)
    p.set_defaults(func=cmd_median)

    p = commands.add_parser("emit", help="print the selection formula")
    p.add_argument("--n", type=int, required=True, help="number of variables")
    p.add_argument("--rank", type=int, required=True, help="1-based rank")
    p.add_argument("--form", choices=("minmax", "arithmetic"), default="minmax")
    p.add_argument("--syntax", choices=("infix", "sexpr"), default="infix")
    p.add_argument("--slp", action="store_true",
                   help="emit the straight-line program of the arithmetic form")
    _add_budget_arg(p)
    p.set_defaults(func=cmd_emit)

    p = commands.add_parser("verify", help="run the property suites")
    p.add_argument("--exhaustive", action="store_true",
                   help="run the exhaustive alphabet suite")
    p.add_argument("--random", action="store_true",
                   help="run the seeded random suite")
    p.add_argument("--max-n", type=int, default=7, dest="max_n")
    p.add_argument("--alphabet", default="0,1,2,3",
                   help="comma-separated alphabet for the exhaustive suite")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.add_argument("--case-budget", type=int, default=None, dest="case_budget")
    p.add_argument("--inject-fault", action="store_true", dest="inject_fault",
                   help="negative control: drive one mode at a wrong rank")
    p.set_defaults(func=cmd_verify)

    p = commands.add_parser("bench", help="emit benchmark tables")
    p.add_argument("--growth", action="store_true",
                   help="call-count and formula-size growth table (default)")
    p.add_argument("--compare", action="store_true",
                   help="wall-clock comparison of memo, compiled formula, "
                        "and sort")
    p.add_argument("--backends", action="store_true",
                   help="wall-clock comparison of the available kernel "
                        "backends")
    p.add_argument("--max-n", type=int, default=8, dest="max_n")
    p.add_argument("--n", type=int, default=10, help="sequence length for "
                   "--compare/--backends")
    p.add_argument("--rank", type=int, default=None,
                   help="rank for --backends (default: middle)")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repeats", type=int, default=3,
                   help="timing repetitions; 0 skips timing for byte-stable "
                        "output")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_budget_arg(p)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TextParseError, SequenceError) as exc:
        print(f"ordstat: {exc}", file=sys.stderr)
        return 2
    except (OrdstatError, ValueError) as exc:
        print(f"ordstat: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
