"""One workload in one fresh process: set up, run a closed loop, report.

run.py starts this script with the built package on PYTHONPATH. It prints
`{"ready": <CLOCK_MONOTONIC seconds>}` once the first op is ready, so the
parent can time set-up from the moment it spawned the process, and then,
unless --setup-only, one JSON line with the run's result.

One caller sends the next op only after the previous one returned. Ops run
in whole blocks (see workloads.py); the loop stops after the first block
that ends past --seconds with at least MIN_OPS ops done. Latency is the
wall time of one op, its result check excluded, scaled to the reference
speed (see reference.py).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

from reference import REFERENCE_S, reference_time

MIN_OPS = 100
HARD_STOP_S = 120.0  # a run ends within this even when ops are very slow


def nearest_rank(sorted_values, p):
    return sorted_values[max(1, math.ceil(p * len(sorted_values))) - 1]


class Loop:
    """Runs blocks of ops and tallies time, attempts and failures."""

    def __init__(self, work, seed, first_block, runner, tracer=None):
        self.work = work
        self.seed = seed
        self.first = first_block
        self.runner = runner
        self.tracer = tracer
        self.latencies = []  # scaled to the reference speed, see reference.py
        self.raw = []
        self.scales = []
        self.failed = 0
        self.errors = []
        self.block0_counts = None

    def block(self, b):
        return self.first if b == 0 else self.work.block(self.seed, b)

    def account(self, op, out):
        """Judge one result; a raise, a wrong value or a violated work bound
        is one failed op."""
        ok = not isinstance(out, BaseException)
        if ok:
            try:
                ok = bool(self.work.check(op, out))
            except Exception as exc:  # a malformed result is a wrong result
                out, ok = exc, False
        if not ok and len(self.errors) < 5:
            self.errors.append(repr(out)[:300])
        self.failed += not ok

    def run(self, seconds=None, blocks=None, min_ops=0):
        start = time.perf_counter()
        tr = self.tracer
        b = 0
        before = reference_time()
        while True:
            for op in self.block(b):
                violations = 0
                if tr is not None:
                    tr.current_op = len(self.latencies)
                    violations = tr.violations
                t0 = time.perf_counter()
                try:
                    out = self.runner(op)
                except Exception as exc:
                    out = exc
                raw = time.perf_counter() - t0
                after = reference_time()
                self.scales.append(2 * REFERENCE_S / (before + after))
                before = after
                self.raw.append(raw)
                self.latencies.append(raw * self.scales[-1])
                if tr is not None and tr.violations != violations:
                    out = AssertionError("work count above its closed-form bound")
                self.account(op, out)
            if b == 0 and tr is not None:
                self.block0_counts = dict(tr.counts)
            b += 1
            elapsed = time.perf_counter() - start
            if blocks is not None:
                if b >= blocks:
                    break
            elif (elapsed >= seconds and len(self.latencies) >= min_ops) or elapsed >= HARD_STOP_S:
                break
        return b


def negative_control(work, op):
    """Feed the checker a wrong result through the same accounting; it must
    come out as one failed op out of one, an error rate of 1."""
    probe = Loop(work, 0, [], None)
    probe.account(op, work.wrong(op))
    return probe.failed == 1


def peak_rss_mb(include_children):
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        rss = max(rss, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return rss / 1024.0  # ru_maxrss is in KiB on Linux


def median_wall_ms(argv, runs):
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run(argv, capture_output=True, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def median_import_ms(runs):
    """Cumulative -X importtime of the top-level ordstat imports."""
    samples = []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ordstat.cli"],
                              capture_output=True, text=True, check=True, timeout=60)
        total_us = 0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            name = parts[2]
            if not name.startswith("  ") and name.strip().split(".")[0] == "ordstat":
                total_us += int(parts[1])
        samples.append(total_us / 1e3)
    return statistics.median(samples)


def environment(ordstat):
    try:
        import ordstat._ckernels  # noqa: F401
        compiled_error = None
    except ImportError as exc:
        compiled_error = str(exc)
    return {
        "backend": ordstat.active_backend(),
        "compiled_import_error": compiled_error,
        "interpreter": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": len(os.sched_getaffinity(0)),
        "ordstat_file": ordstat.__file__,
    }


def timing(latencies):
    lat = sorted(latencies)
    return {
        "throughput_ops_s": len(lat) / sum(lat),
        "latency_p50_ms": 1e3 * nearest_rank(lat, 0.5),
        "latency_p90_ms": 1e3 * nearest_rank(lat, 0.9),
    }


def untraced(work, seed, first, seconds):
    loop = Loop(work, seed, first, work.run)
    blocks = loop.run(seconds=seconds, min_ops=MIN_OPS)
    metrics = timing(loop.latencies)
    metrics["peak_rss_mb"] = peak_rss_mb(work.name == "cli-oneshot")
    raw = timing(loop.raw)
    info = {"blocks": blocks, "latency_samples": len(loop.latencies), "errors": loop.errors,
            "error_rate": loop.failed / len(loop.latencies),
            "raw": raw, "reference_s_median": REFERENCE_S / statistics.median(loop.scales)}
    return loop, metrics, info


def traced(work, seed, first, seconds, spans_path):
    import tracing

    # The CLI's own layers are traced in this process, through cli.main.
    runner = work.run_in_process if work.name == "cli-oneshot" else work.run
    plain = Loop(work, seed, first, runner)
    blocks = plain.run(seconds=seconds / 3)
    tracer = tracing.install(tracing.Tracer())
    loop = Loop(work, seed, first, runner, tracer)
    loop.run(blocks=blocks)
    overhead = sum(loop.latencies) / sum(plain.latencies)
    loop.failed += plain.failed
    loop.errors += plain.errors
    loop.latencies += plain.latencies

    block0 = range(len(first))
    counts = Counter(loop.block0_counts)
    counts.update(tracing.span_counts(tracer, block0))
    metrics = tracing.layer_metrics(tracer, counts, blocks, loop.scales)
    metrics["trace.overhead_ratio"] = overhead
    metrics["cli.interpreter_ms"] = median_wall_ms([sys.executable, "-c", "pass"], 7)
    metrics["cli.import_ms"] = median_import_ms(5)
    metrics = tracing.drop_missing(metrics, tracer.missing)
    if spans_path:
        tracer.dump(spans_path, block0)
    exact = {k: metrics[k] for k in EXACT_COUNTS if k in metrics}
    info = {"blocks": blocks, "missing_targets": tracer.missing, "exact_counts": exact,
            "errors": loop.errors, "spans": len(tracer.start)}
    return loop, metrics, info


# Counts that must repeat bit for bit for one seed.
EXACT_COUNTS = ("kernels.calls", "kernels.recursive_calls", "kernels.base_case_calls",
                "kernels.fallback_calls", "kernels.memo_hits", "kernels.states_computed",
                "expr.dag_nodes", "expr.slp_instructions", "verify.cases",
                "selection.calls", "selection.budget_resolves", "expr.formulas")


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", default=None, help="gzip file for the spans of block 0")
    args = p.parse_args()

    from workloads import WORKLOADS

    import ordstat
    lib = os.environ["PERFBENCH_LIB"]
    if not os.path.abspath(ordstat.__file__).startswith(os.path.abspath(lib) + os.sep):
        sys.exit(f"ordstat imported from {ordstat.__file__}, not from the build in {lib}")
    work = WORKLOADS[args.workload](ordstat)
    first = work.block(args.seed, 0)
    print(json.dumps({"ready": time.monotonic()}), flush=True)
    if args.setup_only:
        return

    if args.trace:
        loop, metrics, info = traced(work, args.seed, first, args.seconds, args.spans)
    else:
        loop, metrics, info = untraced(work, args.seed, first, args.seconds)
    info["negative_control_detected"] = negative_control(work, first[0])
    info.update(environment(ordstat))
    print(json.dumps({"attempted": len(loop.latencies), "failed": loop.failed,
                      "metrics": metrics, "info": info}), flush=True)


if __name__ == "__main__":
    main()
