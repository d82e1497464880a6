"""The four benchmark workloads: seeded inputs, one op, and the result check.

Each workload yields its ops in blocks. A block holds every shape of the
workload's fixed shape list once, with values drawn from the seed, so the
cost mix of a block does not depend on the seed and the exact work counts
of a block depend on nothing but the seed. Block sizes are 5, 15 or 25:
nearest-rank p50 and p90 then fall in the middle of one position of the
sorted block, not on the boundary between two positions.

Every result is judged here against sorted(); nothing from the program
under test decides whether an op was correct, except parse_text, which
reads back the formulas that `ordstat emit` prints.
"""

from __future__ import annotations

import importlib
import io
import math
import operator
import random
import subprocess
import sys
import types

def block_rng(workload, seed, block):
    # String seeds hash through SHA-512, independent of PYTHONHASHSEED.
    return random.Random(f"{workload}:{seed}:{block}")


def shuffled(shapes, workload, block):
    """The block's shapes in an order that depends on the block index alone:
    every seed then allocates, and collects garbage, on the same schedule."""
    shapes = list(shapes)
    random.Random(f"{workload}:order:{block}").shuffle(shapes)
    return shapes


def oracle(values, rank):
    return sorted(values)[rank - 1]


def oracle_median(values):
    s = sorted(values)
    half = len(s) // 2
    return s[half] if len(s) % 2 else (s[half - 1] + s[half]) / 2


def wrong_near(values, rank):
    """A plausible wrong answer for the negative control: the nearest other
    order statistic that differs from the right one."""
    s = sorted(values)
    right = s[rank - 1]
    for step in range(1, len(s)):
        for k in (rank - 1 + step, rank - 1 - step):
            if 0 <= k < len(s) and s[k] != right:
                return s[k]
    return right + 1.0


def int_values(rng, n):
    # A narrow value range now and then gives ties; cost does not depend on it.
    spread = rng.choice((8, 1000, 10**6))
    return [float(rng.randint(-spread, spread)) for _ in range(n)]


def memo_states(n_len, rank):
    """Distinct survivor sets a memoized select can reach (a ballot count),
    recomputed here so the harness need not trust the program's own."""
    branch = n_len - rank + 2
    return sum(math.comb(branch + t, t) * branch // (branch + t) for t in range(rank))


def naive_base_calls(n_len, rank):
    return (n_len - rank + 2) ** (rank - 1)


# --- select-deep ---------------------------------------------------------

# (N, rank) near the middle: 1.3k-19k memo states per call.
_DEEP_MEMO = [(12, 6), (12, 7), (12, 8), (13, 6), (13, 7), (13, 8), (14, 6),
              (14, 7), (14, 8), (14, 9), (15, 7), (15, 8), (15, 9), (16, 7),
              (16, 8)]
_DEEP_MEDIAN = [12, 13, 14, 15]
# Lengths past 64, which the compiled memo kernel hands back to Python.
_DEEP_LONG = [(65, 2), (65, 3), (65, 65), (96, 2), (96, 3), (96, 96)]


class SelectDeep:
    name = "select-deep"

    def __init__(self, ordstat):
        self.o = ordstat

    def block(self, seed, b):
        rng = block_rng(self.name, seed, b)
        shapes = shuffled([("memo", n, r) for n, r in _DEEP_MEMO + _DEEP_LONG]
                          + [("median", n, 0) for n in _DEEP_MEDIAN], self.name, b)
        ops = []
        for kind, n, rank in shapes:
            values = int_values(rng, n)
            want = oracle(values, rank) if kind == "memo" else oracle_median(values)
            ops.append((kind, rank, values, want))
        return ops

    def run(self, op):
        kind, rank, values, _ = op
        if kind == "memo":
            return self.o.select_memo(rank, values)
        return self.o.median(values)

    @staticmethod
    def check(op, out):
        return out == op[3]

    @staticmethod
    def wrong(op):
        kind, rank, values, _ = op
        return wrong_near(values, rank if kind == "memo" else (len(values) + 1) // 2)


# --- verify-suite --------------------------------------------------------

# (max_n, alphabet size) of the exhaustive suites, and (max_n, trials) of
# the random ones, the way `ordstat verify` sets up a VerifyPlan. The cost
# of a random suite varies with its seed, that of an exhaustive one does
# not. Sorted by cost, ranks 7-9 of a block are the (4, 4) suites and ranks
# 13-15 the (5, 3) ones, so p50 and p90 fall inside their samples.
_EXHAUSTIVE = [(4, 3), (5, 2), (4, 4), (4, 4), (4, 4), (6, 2), (5, 3), (5, 3), (5, 3)]
_RANDOM = [(6, 20), (7, 20), (7, 20), (7, 20), (8, 20), (9, 10)]


class VerifySuite:
    name = "verify-suite"

    def __init__(self, ordstat):
        self.o = ordstat

    def block(self, seed, b):
        rng = block_rng(self.name, seed, b)
        shapes = shuffled([("exhaustive",) + s for s in _EXHAUSTIVE]
                          + [("random",) + s for s in _RANDOM], self.name, b)
        ops = []
        for kind, max_n, k in shapes:
            if kind == "exhaustive":
                alphabet = tuple(float(a) for a in sorted(rng.sample(range(-50, 50), k)))
                cases = sum(k ** n * (n + 1) for n in range(1, max_n + 1))
                ops.append((kind, dict(max_n=max_n, alphabet=alphabet), cases))
            else:
                plan = dict(max_n=max_n, random_trials=k, seed=rng.getrandbits(32))
                ops.append((kind, plan, 2 * k))
        return ops

    def run(self, op):
        kind, plan, _ = op
        suite = self.o.exhaustive_verify if kind == "exhaustive" else self.o.random_verify
        return suite(self.o.VerifyPlan(**plan))

    @staticmethod
    def check(op, out):
        return out.ok and out.cases_run == op[2]

    @staticmethod
    def wrong(op):
        return types.SimpleNamespace(ok=True, cases_run=op[2] + 1)


# --- formula-compile -----------------------------------------------------

# Sorted by cost, ranks 7-9 and 13-15 of the block are one shape each, so
# the nearest-rank p50 and p90 sit well inside that shape's samples.
_FORMULAS = [(6, 3), (6, 4), (7, 3), (7, 4), (11, 2), (8, 3), (9, 3), (9, 3),
             (9, 3), (8, 4), (8, 6), (9, 7), (10, 8), (10, 8), (10, 8)]
EVAL_BATCH = 24


class FormulaCompile:
    name = "formula-compile"

    def __init__(self, ordstat):
        self.o = ordstat

    def block(self, seed, b):
        rng = block_rng(self.name, seed, b)
        ops = []
        for n, rank in shuffled(_FORMULAS, self.name, b):
            # The first vector has distinct values, for the negative control.
            batch = [[float(v) for v in rng.sample(range(-10**6, 10**6), n)]]
            batch += [int_values(rng, n) for _ in range(EVAL_BATCH - 1)]
            ops.append((n, rank, batch, [oracle(x, rank) for x in batch]))
        return ops

    def run(self, op):
        n, rank, batch, _ = op
        o = self.o
        tree = o.build_selection_expr(n, rank, "minmax")
        arith = o.lower_minmax_to_arith(tree)
        root, _ = o.cse(arith)
        o.emit_slp(root)
        fn = o.compile_to_pyfunc(root)
        return [fn(x) for x in batch]

    @staticmethod
    def check(op, out):
        return out == op[3]

    @staticmethod
    def wrong(op):
        n, rank, batch, want = op
        return [wrong_near(batch[0], rank)] + want[1:]


# --- cli-oneshot ---------------------------------------------------------

# The median of 14 values costs the child process about 40 ms more than
# the rest, so p90 falls inside its samples.
_CLI_SHAPES = [("select", 9), ("median", 14), ("emit-minmax", 4),
               ("emit-arith", 4), ("emit-slp", 4)]


_OPS = {"add": operator.add, "sub": operator.sub, "min": min, "max": max,
        "abs": abs, "halve": lambda a: a / 2}


def eval_expr_tree(node, xs):
    """Evaluate a parsed formula bottom-up (shared nodes once)."""
    seen = {}

    def go(e):
        if id(e) not in seen:
            if e.kind == "var":
                seen[id(e)] = xs[e.payload - 1]
            elif e.kind == "const":
                seen[id(e)] = e.payload
            else:
                seen[id(e)] = _OPS[e.kind](*(go(c) for c in e.children))
        return seen[id(e)]

    return go(node)


def eval_slp_text(text, xs):
    """Run the `tK = op a b` / `result r` listing of `ordstat emit --slp`."""
    temps = {}

    def load(tok):
        if tok[0] == "x":
            return xs[int(tok[1:]) - 1]
        return temps[tok] if tok[0] == "t" else float(tok)

    for line in text.strip().splitlines():
        parts = line.split()
        if parts[0] == "result":
            return load(parts[1])
        dest, _, op, *args = parts
        temps[dest] = _OPS[op](*(load(t) for t in args))
    raise ValueError("listing has no result line")


class CliOneshot:
    name = "cli-oneshot"

    def __init__(self, ordstat):
        self.o = ordstat
        self.cli = importlib.import_module("ordstat.cli")

    def block(self, seed, b):
        rng = block_rng(self.name, seed, b)
        ops = []
        for kind, n in shuffled(_CLI_SHAPES, self.name, b):
            if kind in ("select", "median"):
                values = int_values(rng, n)
                rank = rng.randint(1, n) if kind == "select" else 0
                argv = [kind] + (["--rank", str(rank)] if rank else [])
                text = " ".join(str(int(v)) for v in values) + "\n"
                want = oracle(values, rank) if rank else oracle_median(values)
                ops.append((kind, argv, text, want, values, rank))
            else:
                rank = rng.randint(1, n)
                argv = ["emit", "--n", str(n), "--rank", str(rank)]
                argv += {"emit-minmax": [], "emit-arith": ["--form", "arithmetic"],
                         "emit-slp": ["--slp"]}[kind]
                probes = [int_values(rng, n) for _ in range(4)]
                ops.append((kind, argv, "", [oracle(x, rank) for x in probes],
                            probes, rank))
        return ops

    def run(self, op):
        # The child inherits this process's environment: PYTHONPATH names
        # the build, and ORDSTAT_BACKEND/ORDSTAT_BUDGET are unset.
        proc = subprocess.run([sys.executable, "-m", "ordstat.cli", *op[1]], input=op[2],
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()}")
        return proc.stdout

    def run_in_process(self, op):
        """cli.main(argv) in this process, stdin and stdout redirected."""
        saved = sys.stdin, sys.stdout
        sys.stdin, sys.stdout = io.StringIO(op[2]), io.StringIO()
        try:
            code = self.cli.main(op[1])
            out = sys.stdout.getvalue()
        finally:
            sys.stdin, sys.stdout = saved
        if code != 0:
            raise RuntimeError(f"exit {code}")
        return out

    def check(self, op, out):
        kind, _, _, want, probes, _ = op
        if kind in ("select", "median"):
            return float(out.strip()) == want
        if kind == "emit-slp":
            got = [eval_slp_text(out, x) for x in probes]
        else:
            tree = self.o.parse_text(out.strip())
            got = [eval_expr_tree(tree, x) for x in probes]
        return got == want

    @staticmethod
    def wrong(op):
        kind, _, _, _, probes, rank = op
        if kind in ("select", "median"):
            return f"{wrong_near(probes, rank or (len(probes) + 1) // 2):.0f}\n"
        text = f"{wrong_near(probes[0], rank):.0f}"
        return f"result {text}\n" if kind == "emit-slp" else text + "\n"


WORKLOADS = {w.name: w for w in (SelectDeep, VerifySuite, FormulaCompile, CliOneshot)}
