"""Spans and counts around the package's layers, recorded from outside it.

install() wraps public functions of ordstat where their callers look them
up: every binding, in any loaded ordstat module, that is the very function
object being wrapped is replaced by the wrapper. Nothing under src/ is
edited. A target that no longer exists is listed in Tracer.missing, and the
metrics that need it are left out of the result instead of failing the run.

Spans (name, start, end, parent, op) sit in flat arrays while the run
lasts; layer_metrics() derives self times from them afterwards.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import statistics
import sys
import time
from array import array
from collections import Counter

from workloads import memo_states, naive_base_calls

SELECT_ENTRIES = ("select_naive", "select_memo", "select_fullrange", "median")
BUDGET_CHECKS = ("_check_naive_budget", "_check_memo_budget", "_check_fullrange_budget")
EXPR_STAGES = {"build_selection_expr": "expr.build", "lower_minmax_to_arith": "expr.lower",
               "cse": "expr.cse", "emit_slp": "expr.slp", "compile_to_pyfunc": "expr.compile"}
KERNEL_ENTRIES = ("select_naive", "select_memo", "select_fullrange")


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self._stack = []
        self.current_op = -1
        self.counts = Counter()
        self.violations = 0
        self.missing = []
        self.compiled_backend = False

    def intern(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name, fn, after=None, target=None):
        """`fn` recording a span per call; `after(args, result)` then takes
        counts. A hook that fails marks `target` missing, never the op."""
        nid = self.intern(name)
        start, end, names, parent, op = self.start, self.end, self.name, self.parent, self.op
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(start)
            names.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.current_op)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if after is not None:
                try:
                    after(args, result)
                except Exception:
                    if target not in self.missing:
                        self.missing.append(target)
            return result

        functools.update_wrapper(traced, fn)
        return traced

    # --- count hooks -----------------------------------------------------

    def _kernel_after(self, backend, entry):
        c = self.counts
        fallback = backend == "python" and self.compiled_backend and entry != "select_naive"

        def after(args, result):
            values, rank = args[0], args[1]
            c["kernels.calls"] += 1
            if fallback:
                c["kernels.fallback_calls"] += 1
            if entry == "select_fullrange":
                return
            n_len = len(values)
            recursive, base = result[1], result[2]
            hits = result[3] if entry == "select_memo" else 0
            c["kernels.recursive_calls"] += recursive
            c["kernels.base_case_calls"] += base
            if base > naive_base_calls(n_len, rank):
                self.violations += 1
            if entry == "select_memo":
                c["kernels.memo_calls"] += recursive
                c["kernels.memo_hits"] += hits
                c["kernels.states_computed"] += recursive - hits
                if recursive - hits > _states_bound(n_len, rank):
                    self.violations += 1
        return after

    def _cse_after(self, args, result):
        metrics = result[1]
        self.counts["expr.tree_nodes"] += metrics.node_count_tree
        self.counts["expr.dag_nodes"] += metrics.node_count_dag

    def _slp_after(self, args, result):
        self.counts["expr.slp_instructions"] += len(result.instructions)

    def _verify_after(self, args, result):
        self.counts["verify.cases"] += result.cases_run

    def dump(self, path, ops):
        """Write the spans of the given op ids as tab-separated lines."""
        keep = set(ops)
        with gzip.open(path, "wt") as fh:
            fh.write("id\tparent\top\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                if self.op[i] in keep:
                    fh.write(f"{i}\t{self.parent[i]}\t{self.op[i]}\t{self.names[self.name[i]]}"
                             f"\t{self.start[i]!r}\t{self.end[i]!r}\n")


_STATES = {}


def _states_bound(n_len, rank):
    key = (n_len, rank)
    hit = _STATES.get(key)
    if hit is None:
        hit = _STATES[key] = memo_states(n_len, rank)
    return hit


def _rebind(original, wrapper):
    """Point every ordstat-module binding of `original` at `wrapper`."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "ordstat" or name.startswith("ordstat.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def install(tracer):
    """Wrap the layer entry points; returns the tracer for chaining."""
    import ordstat
    import ordstat.cli  # noqa: F401  (so its bindings are rebound too)

    tracer.compiled_backend = ordstat.active_backend() != "python"
    targets = []  # (module name, attribute, span name, after hook)
    for entry in SELECT_ENTRIES:
        targets.append(("ordstat.selection", entry, "selection." + entry, None))
    targets.append(("ordstat.selection", "as_real_sequence", "selection.validate", None))
    targets.append(("ordstat.selection", "resolve_budget", "selection.resolve_budget", None))
    for check in BUDGET_CHECKS:
        targets.append(("ordstat.selection", check, "selection.budget", None))
    for attr, span in EXPR_STAGES.items():
        hook = {"cse": tracer._cse_after, "emit_slp": tracer._slp_after}.get(attr)
        targets.append(("ordstat.expr", attr, span, hook))
    targets.append(("ordstat.verify", "exhaustive_verify", "verify.exhaustive", tracer._verify_after))
    targets.append(("ordstat.verify", "random_verify", "verify.random", tracer._verify_after))
    targets.append(("ordstat.cli", "main", "cli.main", None))
    targets.append(("ordstat.cli", "build_parser", "cli.parse", None))
    targets.append(("ordstat.cli", "parse_sequence_text", "cli.parse", None))
    for backend, modname in (("python", "ordstat._pykernels"), ("cython", "ordstat._ckernels")):
        try:
            importlib.import_module(modname)
        except ImportError:
            continue
        for entry in KERNEL_ENTRIES:
            targets.append((modname, entry, f"kernels.{backend}.{entry}",
                            tracer._kernel_after(backend, entry)))

    for modname, attr, span, hook in targets:
        mod = sys.modules.get(modname)
        original = getattr(mod, attr, None)
        if original is None:
            tracer.missing.append(f"{modname}.{attr}")
            continue
        wrapper = tracer.wrap(span, original, hook, f"{modname}.{attr}")
        if attr == "compile_to_pyfunc":
            wrapper = _returning_traced(tracer, wrapper)
        elif attr == "build_parser":
            wrapper = _parser_traced(tracer, wrapper)
        _rebind(original, wrapper)
    return tracer


def _returning_traced(tracer, compile_fn):
    def compile_traced(*args, **kwargs):
        return tracer.wrap("expr.eval", compile_fn(*args, **kwargs))
    return functools.update_wrapper(compile_traced, compile_fn)


def _parser_traced(tracer, build_fn):
    def build_traced(*args, **kwargs):
        parser = build_fn(*args, **kwargs)
        parser.parse_args = tracer.wrap("cli.parse", parser.parse_args)
        return parser
    return functools.update_wrapper(build_traced, build_fn)


# --- per-layer metrics ---------------------------------------------------

def layer_metrics(tracer, counts, blocks, scales):
    """Per-layer metrics from the spans and the block-0 counts.

    Times named `_s` are seconds per block, `_us`/`_ms` are per call of
    the layer named; counts are totals over block 0. A span's duration is
    scaled like the latency of its op (scales[op], see reference.py).
    """
    names = tracer.names
    nspans = len(tracer.start)
    op = tracer.op
    dur = array("d", ((tracer.end[i] - tracer.start[i]) * scales[op[i]] for i in range(nspans)))
    kind = [names[tracer.name[i]] for i in range(nspans)]
    parent = tracer.parent
    child_time = array("d", bytes(8 * nspans))
    for i in range(nspans):
        p = parent[i]
        if p >= 0:
            child_time[p] += dur[i]

    sel_names = {"selection." + e for e in SELECT_ENTRIES}
    sums = Counter()
    sel_calls = 0
    sel_time = 0.0
    kern_in_sel = 0.0
    budget_in_sel = 0.0
    verify_self = 0.0
    evals = []
    for i in range(nspans):
        k = kind[i]
        sums[k] += dur[i]
        if k in sel_names:
            p = parent[i]
            if p < 0 or kind[p] not in sel_names:
                sel_calls += 1
                sel_time += dur[i]
        elif k.startswith("kernels."):
            sums["kernels"] += dur[i]
            if _ancestor(i, parent, kind, sel_names) >= 0:
                kern_in_sel += dur[i]
        elif k in ("selection.budget", "selection.resolve_budget"):
            p = parent[i]
            top = k == "selection.budget" or p < 0 or kind[p] != "selection.budget"
            if top and _ancestor(i, parent, kind, sel_names) >= 0:
                budget_in_sel += dur[i]
        elif k.startswith("verify."):
            verify_self += dur[i] - child_time[i]
        elif k == "expr.eval":
            evals.append(dur[i])

    per_call = sel_calls or 1
    hits, memo_calls = counts["kernels.memo_hits"], counts["kernels.memo_calls"]
    tree, dag = counts["expr.tree_nodes"], counts["expr.dag_nodes"]
    cli_calls = sum(1 for k in kind if k == "cli.main") or 1
    out = {
        "kernels.busy_s": sums["kernels"] / blocks,
        "kernels.calls": counts["kernels.calls"],
        "kernels.recursive_calls": counts["kernels.recursive_calls"],
        "kernels.base_case_calls": counts["kernels.base_case_calls"],
        "kernels.memo_hits": hits,
        "kernels.states_computed": counts["kernels.states_computed"],
        "kernels.hit_ratio": hits / memo_calls if memo_calls else 0.0,
        "kernels.fallback_calls": counts["kernels.fallback_calls"],
        "selection.calls": counts["selection.calls"],
        "selection.validate_us": 1e6 * sums["selection.validate"] / per_call,
        "selection.budget_us": 1e6 * budget_in_sel / per_call,
        "selection.budget_resolves": counts["selection.budget_resolves"],
        "selection.boundary_us": 1e6 * (sel_time - kern_in_sel) / per_call,
        "expr.build_s": sums["expr.build"] / blocks,
        "expr.lower_s": sums["expr.lower"] / blocks,
        "expr.cse_s": sums["expr.cse"] / blocks,
        "expr.slp_s": sums["expr.slp"] / blocks,
        "expr.compile_s": sums["expr.compile"] / blocks,
        "expr.eval_s": sums["expr.eval"] / blocks,
        "expr.compiled_eval_us": 1e6 * statistics.median(evals) if evals else 0.0,
        "expr.tree_nodes": tree,
        "expr.dag_nodes": dag,
        "expr.sharing_ratio": tree / dag if dag else 0.0,
        "expr.formulas": counts["expr.formulas"],
        "expr.slp_instructions": counts["expr.slp_instructions"],
        "cli.main_ms": 1e3 * sums["cli.main"] / cli_calls,
        "cli.parse_us": 1e6 * sums["cli.parse"] / cli_calls,
        "verify.cases": counts["verify.cases"],
        "verify.self_s": verify_self / blocks,
    }
    return out


def _ancestor(i, parent, kind, wanted):
    p = parent[i]
    while p >= 0:
        if kind[p] in wanted:
            return p
        p = parent[p]
    return -1


def span_counts(tracer, ops):
    """Counts that follow from the spans of the given ops alone."""
    keep = set(ops)
    sel_names = {tracer._ids.get("selection." + e) for e in SELECT_ENTRIES} - {None}
    resolve = tracer._ids.get("selection.resolve_budget")
    build = tracer._ids.get("expr.build")
    c = Counter()
    for i in range(len(tracer.start)):
        if tracer.op[i] not in keep:
            continue
        nid = tracer.name[i]
        if nid in sel_names:
            p = tracer.parent[i]
            if p < 0 or tracer.name[p] not in sel_names:
                c["selection.calls"] += 1
        elif nid == resolve:
            c["selection.budget_resolves"] += 1
        elif nid == build:
            c["expr.formulas"] += 1
    return c


# Metric -> wrapped targets it needs; a missing target drops the metric.
NEEDS = {
    "kernels.": tuple(f"ordstat.{m}.{e}" for m in ("_pykernels", "_ckernels")
                      for e in KERNEL_ENTRIES),
    "selection.validate_us": ("ordstat.selection.as_real_sequence",),
    "selection.budget_resolves": ("ordstat.selection.resolve_budget",),
    "selection.": ("ordstat.selection.select_memo", "ordstat.selection.median"),
    "expr.build_s": ("ordstat.expr.build_selection_expr",),
    "expr.formulas": ("ordstat.expr.build_selection_expr",),
    "expr.lower_s": ("ordstat.expr.lower_minmax_to_arith",),
    "expr.cse_s": ("ordstat.expr.cse",),
    "expr.tree_nodes": ("ordstat.expr.cse",),
    "expr.dag_nodes": ("ordstat.expr.cse",),
    "expr.sharing_ratio": ("ordstat.expr.cse",),
    "expr.slp": ("ordstat.expr.emit_slp",),
    "expr.compile": ("ordstat.expr.compile_to_pyfunc",),
    "expr.eval_s": ("ordstat.expr.compile_to_pyfunc",),
    "expr.compiled_eval_us": ("ordstat.expr.compile_to_pyfunc",),
    "cli.": ("ordstat.cli.main",),
    "cli.parse_us": ("ordstat.cli.parse_sequence_text",),
    "verify.": ("ordstat.verify.exhaustive_verify", "ordstat.verify.random_verify"),
}


def drop_missing(metrics, missing):
    gone = set(missing)
    out = {}
    for name, value in metrics.items():
        needs = [t for prefix, ts in NEEDS.items() if name.startswith(prefix) for t in ts]
        if not gone.intersection(needs):
            out[name] = value
    return out
