"""Pure-Python selection kernels and formula compiler.

Reference implementation of the elimination recursion and of compiled
formulas; ordstat._ckernels, a C extension, is the compiled twin and must
match these counters, return values and errors exactly, for every
sequence length and every program.
The three select_* entry points take an already-validated sequence of
finite floats and a 1-based rank. Counter semantics, shared by both
backends, are what the memoized recursion would count:

  * recursive_calls  counts every entry into the recursion,
  * base_case_calls  counts rank-1 entries that compute a minimum,
  * memo_hits        counts entries answered from the cache.

select_memo runs no recursion: it fills the survivor sets level by level
(see _fill_levels) and reads the three counters off the level sizes.
expr.build_selection_expr runs the same fill on expressions. Its caller
names the leaf of a survivor set by `atom`, the value of one position
(a float here, a variable there), and `step`, one step of the left fold
over the set's atoms (the first minimum here, min_of there); `fold`
combines a state's children (max, or a left fold of max_of).

compile_slp turns a packed straight-line program into a callable. Both
twins check the program once and then run it on a register file, one
loop over its (op, a, b) triples that checks every value; here that loop
is _run_slp, which expr.eval_expr runs too.
"""

import math
import operator
from itertools import combinations, count, repeat

from .errors import ExprError


def _fill_levels(n, rank, atom, step, fold):
    """Evaluate the rank-`rank` elimination recursion over positions
    0..n-1 bottom-up, deepest level first. Returns (root, sizes), where
    sizes lists the number of survivor sets per level, deepest first.

    With R = n - rank + 2, elimination always takes one of the first R
    survivors, so after t removals the survivors are the positions from
    p = R + t - 1 on plus R - 1 positions kept in range(p). A state is the
    bitmask S of those kept positions, and every (R - 1)-subset of range(p)
    is reachable. Its children, in elimination order, are S - {s} + {p}
    for each s in S ascending, then S itself. Every level above the
    deepest maps S to fold(children in elimination order). Only two levels
    are alive at any time.

    The deepest level (p = n) maps S = {c_0 < ... < c_{K-1}}, K = R - 1,
    to the left fold step(...step(atom(c_0), atom(c_1))..., atom(c_{K-1})).
    It is built from prefixes, one member more per pass: in colex order the
    k-subsets with largest member t follow those of range(t), and they are
    the first C(t, k - 1) states of the pass below, the (k - 1)-subsets of
    range(t), each with t added. So each state is one `step` (its value)
    and one OR (its bitmask) away from a state of the pass below. Pass k
    holds the k-subsets of range(rank - 1 + k), the k-member prefixes of
    the deepest states, and all passes take about C(n + 1, K) steps where
    one fold per state would take C(n, K) * K.
    """
    keep = n - rank + 1
    bit = [1 << i for i in range(n)]
    values = [atom(i) for i in range(rank)]
    masks = bit[:rank]
    for k in range(2, keep + 1):
        below, below_masks = values, masks
        values, masks = [], []
        for t in range(k - 1, rank + k - 1):
            width = math.comb(t, k - 1)
            values += map(step, below[:width], repeat(atom(t), width))
            high = bit[t]
            masks += [mask | high for mask in below_masks[:width]]
    level = dict(zip(masks, values))
    sizes = [len(level)]
    for p in range(n - 1, keep - 1, -1):
        top = bit[p]
        above = {}
        for S in combinations(range(p), keep):
            mask = sum([bit[i] for i in S])
            kids = [level[mask ^ bit[s] | top] for s in S]
            kids.append(level[mask])
            above[mask] = fold(kids)
        level = above
        sizes.append(len(level))
    (root,) = level.values()
    return root, sizes


def select_naive(values, rank):
    """Plain recursion. Returns (value, recursive_calls, base_case_calls)."""
    counters = [0, 0]

    def go(xs, m):
        counters[0] += 1
        if m == 1:
            counters[1] += 1
            return min(xs)
        hi = len(xs) - m + 2
        return max(go(xs[:j] + xs[j + 1:], m - 1) for j in range(hi))

    value = go(tuple(values), rank)
    return value, counters[0], counters[1]


def select_memo(values, rank):
    """The recursion memoized on the set of surviving original positions,
    filled level by level. Each survivor set is solved once; distinct
    elimination orders that leave the same survivors share it, and every
    further entry the recursion would make into it counts as a memo hit.
    Returns (value, recursive_calls, base_case_calls, memo_hits).
    """
    xs = tuple(values)
    n = len(xs)
    if not 1 <= rank <= n:
        raise ValueError(f"rank {rank} out of range 1..{n}")
    value, sizes = _fill_levels(n, rank, xs.__getitem__,
                                lambda acc, x: x if x < acc else acc, max)
    states = sum(sizes)
    recursive = 1 + (n - rank + 2) * (states - sizes[0])
    return value, recursive, sizes[0], recursive - states


def select_fullrange(values, rank):
    """Variant that scans every elimination index, not just the first
    N - n + 2. Memoized internally; returns the value only."""
    xs = tuple(values)
    cache = {}

    def go(idx, mask, m):
        hit = cache.get(mask)
        if hit is not None:
            return hit
        if m == 1:
            best = min(xs[i] for i in idx)
        else:
            best = max(
                go(idx[:j] + idx[j + 1:], mask & ~(1 << idx[j]), m - 1)
                for j in range(len(idx))
            )
        cache[mask] = best
        return best

    n = len(xs)
    return go(tuple(range(n)), (1 << n) - 1, rank)


# Opcodes of a packed straight-line program, numbered by position here and
# in _ckernels.c, and the value each computes from its operands (a, b).
# Unary ops ignore b; min and max compare as the C twin does.
SLP_OPS = ("add", "sub", "abs", "halve", "min", "max")
_SLP_FNS = (operator.add, operator.sub, lambda a, b: abs(a), lambda a, b: a / 2,
            lambda a, b: a if a <= b else b, lambda a, b: a if a >= b else b)


def compile_slp(n_vars, consts, code, result):
    """Callable f(values) running a packed straight-line program.

    Registers are [x1..x{n_vars}, consts, temps]: instruction k of `code`,
    an array('i') of (op, a, b) triples with op indexing SLP_OPS, writes
    register n_vars + len(consts) + k from registers a and b, which must
    lie below it; f returns register `result`. f converts values[0..n_vars)
    with float() and raises ExprError when one is missing or not finite,
    or when an instruction's value is not finite. A malformed program
    raises ValueError here, before anything runs.
    """
    n_vars = int(n_vars)
    consts = [float(v) for v in consts]
    view = memoryview(code)
    if view.format != "i" or view.ndim != 1:
        raise ValueError("code must be an array('i')")
    code = view.tolist()
    if len(code) % 3:
        raise ValueError("code must hold (op, a, b) triples")
    if n_vars < 0:
        raise ValueError(f"n_vars must not be negative, got {n_vars}")
    for k, v in enumerate(consts):
        if not math.isfinite(v):
            raise ValueError(f"constant {k} is not finite")
    base = n_vars + len(consts)
    n_regs = base + len(code) // 3
    if not 0 <= result < n_regs:
        raise ValueError(f"result register {result} out of range 0..{n_regs - 1}")
    it = iter(code)
    for k, (op, a, b) in enumerate(zip(it, it, it)):
        if not 0 <= op < len(SLP_OPS):
            raise ValueError(f"instruction {k}: unknown op {op}")
        if not (0 <= a < base + k and 0 <= b < base + k):
            raise ValueError(f"instruction {k}: operands ({a}, {b}) "
                             f"must lie below its register {base + k}")
    tail = consts + [None] * (n_regs - base)

    def formula(xs):
        return _run_slp(_inputs(xs, n_vars) + tail, base, code, result)

    return formula


def _inputs(xs, n):
    xs = tuple(xs)
    if len(xs) < n:
        raise ExprError(f"formula needs {n} values, got {len(xs)}")
    vals = [float(x) for x in xs[:n]]
    for i, v in enumerate(vals):
        if not math.isfinite(v):
            raise ExprError(f"input x{i + 1} is not finite: {v!r}")
    return vals


def _run_slp(regs, base, code, result):
    """Run checked (op, a, b) triples on `regs`, where instruction k writes
    register base + k, and return register `result`. A non-finite value
    raises ExprError. `regs` may load an input at its first read (see
    expr.eval_expr): operands are read left to right, in program order."""
    fns = _SLP_FNS
    it = iter(code)
    for dest, op, a, b in zip(count(base), it, it, it):
        v = fns[op](regs[a], regs[b])
        # v - v is 0.0 for a finite v and nan otherwise, and nan is true.
        if v - v:
            raise ExprError(f"non-finite intermediate {v!r} at t{dest - base}")
        regs[dest] = v
    return regs[result]
