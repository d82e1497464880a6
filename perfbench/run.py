"""ordstat benchmark: build the package, time set-up, run one workload.

    python3 perfbench/run.py --workload select-deep --seed 20130718 --seconds 25 --trace 0
    python3 perfbench/run.py --self-check

Run it from the root of a source tree. It builds a copy of that tree with
the tree's own `setup.py build` (cached under .bench_build/ by a hash of
the sources), then starts each workload in a fresh process that imports
ordstat from that build, with ORDSTAT_BACKEND and ORDSTAT_BUDGET unset.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end ones, with
--trace 1 the per-layer ones. The line before it says what ran (backend,
compiled import error, interpreter, nproc, commit), and the same record is
written to perfbench/out/. See perfbench/README.md for the workloads.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import REFERENCE_S, reference_time

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 20130718
HELD_OUT_SEED = 4931
WORKLOADS = ("select-deep", "verify-suite", "formula-compile", "cli-oneshot")
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 170

class BenchError(Exception):
    pass


def source_files(root):
    files = [root / "setup.py", root / "pyproject.toml"]
    for path in sorted((root / "src").rglob("*")):
        rel = path.relative_to(root).parts
        if path.is_file() and not any(p == "__pycache__" or p.endswith(".egg-info") for p in rel):
            files.append(path)
    return [f for f in files if f.is_file()]


def build(root):
    """Build a copy of the tree with its own setup.py; return the lib dir.

    Builds run in a copy because `setup.py build` writes egg-info next to
    the sources. The result is kept under .bench_build/, keyed by a hash of
    every source file, and published with an atomic rename.
    """
    files = source_files(root)
    digest = hashlib.sha256()
    for f in files:
        digest.update(str(f.relative_to(root)).encode() + b"\0" + f.read_bytes() + b"\0")
    key = digest.hexdigest()[:16]
    cache = root / ".bench_build"
    final = cache / f"ordstat-{key}"
    if (final / "lib").is_dir():
        return final / "lib", key
    work = cache / f"tmp-{key}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        for f in files:
            dest = work / "tree" / f.relative_to(root)
            dest.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(f, dest)
        proc = subprocess.run([sys.executable, "setup.py", "-q", "build", "--build-base",
                               str(work / "build")], cwd=work / "tree", env=clean_env(None),
                              capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            raise BenchError(f"setup.py build failed:\n{proc.stdout}\n{proc.stderr}")
        libs = [p.parent.parent for p in (work / "build").glob("lib*/ordstat/__init__.py")]
        if len(libs) != 1:
            raise BenchError(f"expected one built ordstat package, found {libs}")
        (work / "out").mkdir()
        shutil.move(str(libs[0]), work / "out" / "lib")
        compileall.compile_dir(str(work / "out" / "lib"), quiet=1)
        try:
            os.rename(work / "out", final)
        except OSError:  # another run published the same build first
            if not (final / "lib").is_dir():
                raise
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return final / "lib", key


def clean_env(lib):
    env = {k: v for k, v in os.environ.items()
           if k not in ("ORDSTAT_BACKEND", "ORDSTAT_BUDGET", "PYTHONPATH")}
    if lib is not None:
        env["PYTHONPATH"] = str(lib)
        env["PERFBENCH_LIB"] = str(lib)
    return env


def spawn(lib, args):
    """Start child.py; return (seconds from spawn to ready, result or None)."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), *args], env=clean_env(lib),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    if proc.returncode != 0 or not lines or "ready" not in lines[0]:
        raise BenchError(f"workload process failed (exit {proc.returncode}):\n{proc.stderr}")
    return lines[0]["ready"] - t0, (lines[1] if len(lines) > 1 else None)


def setup_sample(lib, args):
    """Set-up seconds of one set-up-only process, scaled like op times."""
    before = reference_time()
    seconds, _ = spawn(lib, args + ["--seconds", "0", "--setup-only"])
    return seconds, seconds * 2 * REFERENCE_S / (before + reference_time())


def commit_of(root):
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def metric_units(root, trace):
    """Name -> unit of the metrics BENCHMARK.json lists for this kind of run."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_once(root, workload, seed, seconds, trace, spans=True):
    units = metric_units(root, trace)
    lib, key = build(root)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)
    base = ["--workload", workload, "--seed", str(seed)]
    setups = [] if trace else [setup_sample(lib, base) for _ in range(SETUP_SAMPLES)]
    args = base + ["--seconds", str(seconds), "--trace", str(trace)]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    if trace and spans:
        args += ["--spans", str(out_dir / f"{stem}.spans.tsv.gz")]
    _, result = spawn(lib, args)
    metrics = dict(result["metrics"])
    info = dict(result["info"], workload=workload, seed=seed, seconds=seconds, trace=trace,
                commit=commit_of(root), source_sha256=key,
                unlisted_metrics=sorted(set(metrics) - set(units)))
    if not trace:
        metrics["setup_s"] = statistics.median(s for _, s in setups)
        info["raw"]["setup_s"] = statistics.median(s for s, _ in setups)
    final = {
        "correct": result["failed"] == 0 and info["negative_control_detected"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items() if k in units},
    }
    (out_dir / f"{stem}.json").write_text(json.dumps({"info": info, "result": final}, indent=1))
    return info, final


def self_check(root, seconds):
    """Same-seed runs in two processes must give the same exact counts, and
    every workload's negative control must be caught. The metrics reported
    must be exactly those BENCHMARK.json lists."""
    ok = True
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        print("BENCHMARK.json workloads differ from the harness")
        ok = False
    for trace in (0, 1):
        info, final = run_once(root, WORKLOADS[0], DEFAULT_SEED, seconds, trace, spans=False)
        if info["unlisted_metrics"] or set(final["metrics"]) != set(metric_units(root, trace)):
            print(f"--trace {trace} reports other metrics than BENCHMARK.json lists")
            ok = False
    for workload in WORKLOADS:
        first, _ = run_once(root, workload, DEFAULT_SEED, seconds, 1, spans=False)
        second, _ = run_once(root, workload, DEFAULT_SEED, seconds, 1, spans=False)
        same = first["exact_counts"] == second["exact_counts"]
        caught = first["negative_control_detected"] and second["negative_control_detected"]
        print(f"{workload}: exact counts repeat: {same}; negative control caught: {caught}; "
              f"{first['exact_counts']}")
        ok = ok and same and caught
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"input seed (default {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED})")
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true")
    args = p.parse_args()

    root = Path.cwd()
    if not (root / "setup.py").is_file() or not (root / "src" / "ordstat").is_dir():
        sys.exit(f"perfbench: {root} is not an ordstat source tree (no setup.py or src/ordstat)")
    try:
        if args.self_check:
            sys.exit(0 if self_check(root, min(args.seconds, 3)) else 1)
        if args.workload is None:
            p.error("--workload is required")
        info, final = run_once(root, args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        sys.exit(f"perfbench: {exc}")
    print(json.dumps({"info": info}))
    print(json.dumps(final))


if __name__ == "__main__":
    main()
