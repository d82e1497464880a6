"""Pure-Python selection kernels and formula compiler.

Reference implementation of the elimination recursion and of compiled
formulas; ordstat._ckernels, a C extension, is the compiled twin and must
match these counters and return values exactly, for every sequence length
and every program. This module alone defines what every kernel entry of
either backend accepts and raises for its input: the C twin answers a
call itself only when its input is exact, and forwards every other call,
as given, to the entry of the same name here. Only a compiled formula
must run in C, so compile_slp and its formulas read back what _packed
and _inputs return: the program or the inputs in exact form.

The package calls four entries: the two selection kernels, naive_ranks
and normal_forms, then real_values and compile_slp. Both selection
kernels take an already-validated sequence of finite floats and an
iterable of 1-based ranks, each an int or any object with __index__,
keep their order and duplicates, and raise ValueError for a rank out of
range, however large. Each value is read as _real reads it, so any
number gives a float and a str is refused. Counter semantics, shared
by both backends, are what the memoized recursion would count:

  * recursive_calls  counts every entry into the recursion,
  * base_case_calls  counts rank-1 entries that compute a minimum,
  * memo_hits        counts entries answered from the cache.

Each algorithm has one body here, as in the C twin. naive_ranks runs the
plain recursion once per rank and sums its counters. normal_forms runs
neither the memoized nor the full-range recursion: every fold level
takes a maximum, so both have the same max-min normal form, the first
maximum of the leaf minima. min distributes over that maximum, so
_leaf_max folds it in one pass over the reversed values without building
a leaf: N * min(K, rank) steps for one rank, K = N - rank + 1. The pass
fills every subset size at once, so normal_forms reads all its ranks off
one pass over the window of their sizes: N(N + 1)/2 steps for every
rank; a test pins it to a plain full-range recursion over
{-0.0, 0.0, 1.0}^N, N <= 6.

The memo counters are a closed form of (N, rank), and _memo_counts is its
one copy on both backends, in Python ints, so no counter overflows.
ordstat.selection adds them only when stats are asked for.

The single-rank entries take one rank and raise the many-rank entries'
errors: select_naive is naive_ranks at one rank, select_fullrange is
normal_forms at one rank, and select_memo is select_fullrange's value
with the memo counters. Nothing in ordstat calls them. They stay for
perfbench's tracer, which wraps them by name, and for the twin tests, and
the C twin forwards every call of each to the entry here.

compile_slp turns a packed straight-line program into a callable. The
program is checked once, by _check_slp, which also checks every
expr.CompiledProgram; both twins then run it on a register file, one
loop over its (op, a, b) triples that checks every value. Here that loop
is _run_slp, the one Python loop that runs programs: expr.interpret_slp
and expr.eval_expr run in it too, so it is the reference the C twin is
tested against, as naive_ranks and normal_forms here are for its
kernels.

real_values validates a sequence for ordstat.selection.RealSequence and
is the one copy of that check. A str, bytes or bytearray is text, not a
sequence of numbers, so real_values and a formula refuse it as a whole;
a numeric string as one of the values still converts.
"""

import math
import operator
import sys
from array import array
from itertools import count

from .errors import ExprError, SequenceError

# Iterable, but never a sequence of numbers.
_TEXT = (str, bytes, bytearray)


def real_values(values):
    """`values` as a tuple of floats, each as float() reads it, or
    SequenceError when `values` is text (_TEXT), when there are none, when
    one is not finite or when an int lies past the float range; the other
    errors of float() pass through."""
    if isinstance(values, _TEXT):
        raise SequenceError(f"sequence must be a collection of numbers, "
                            f"not {type(values).__name__!r}")
    # Not _to_float: map(float) keeps this path in C, and `values` may be
    # an iterator that cannot be read again after an overflow.
    try:
        vals = tuple(map(float, values))
    except OverflowError:
        raise SequenceError("sequence values must be finite, got a number "
                            "past the float range") from None
    if not vals:
        raise SequenceError("sequence must contain at least one value")
    # A float sum is finite only if every term is, so one C-level sum
    # clears almost every input. When it is not finite, a scan names the
    # first bad value; finding none, the sum only overflowed.
    if not math.isfinite(sum(vals)):
        bad = next((v for v in vals if not math.isfinite(v)), None)
        if bad is not None:
            raise SequenceError(f"sequence values must be finite, got {bad!r}")
    return vals


def _checked(values, ranks):
    """(values as a tuple of floats, ranks as a list of ints), once every
    rank lies in 1..N; otherwise the TypeError or ValueError of the first
    fault, in this order: every rank through __index__, then values, then
    each rank's range, then each value as _real reads it. Every select
    entry here reads its input so, and the C twin forwards every call
    whose input it does not read itself, so both raise alike."""
    ranks = [operator.index(rank) for rank in tuple(ranks)]
    xs = tuple(values)
    for rank in ranks:
        if not 1 <= rank <= len(xs):
            raise ValueError(f"rank {rank} out of range 1..{len(xs)}")
    return tuple(map(_real, xs)), ranks


def _leaf_max(xs, kmin, kmax):
    """g with g[K] the max-min normal form of the K-subsets, for every K in
    kmin..kmax: the value select_memo and select_fullrange return at rank
    N - K + 1. Its deepest level maps each K-subset of positions to
    its first minimum, and every level above takes a first maximum, so the
    value is the first maximum of those leaf minima in the order the
    recursion first visits them: descending lexicographic in the kept
    positions, which is ascending lexicographic in the removed ones. That
    is colex order over the reversed values, with each minimum keeping the
    later of two equal ones (the earlier position).

    min distributes over that first maximum, so no leaf is built. After
    ys[0..c] of the reversed values, g[j] is the colex-first maximum of the
    first minima of the j-subsets of range(c + 1). The j-subsets holding c
    follow those of range(c) in colex order, and each adds c to a
    (j - 1)-subset, so their first maximum is min(ys[c], g[j - 1]) with the
    same tie rule, and the new g[j] is the first maximum of the two runs.
    No g[j] depends on K, so j runs down from min(c + 1, kmax) over the
    sizes that can still reach kmin, and one pass serves the whole window:
    N * min(K, rank) steps for one K, N(N + 1)/2 for every rank, signed
    zeros included."""
    n = len(xs)
    g = [None] * (kmax + 1)
    for c, y in enumerate(reversed(xs)):
        for j in range(min(c + 1, kmax), max(0, kmin - n + c), -1):
            h = y if j == 1 or g[j - 1] >= y else g[j - 1]
            if j == c + 1 or not g[j] >= h:
                g[j] = h
    return g


def _naive(xs, m, counters):
    counters[0] += 1
    if m == 1:
        counters[1] += 1
        return min(xs)
    # The first maximum, as the C twin keeps it.
    for j in range(len(xs) - m + 2):
        v = _naive(xs[:j] + xs[j + 1:], m - 1, counters)
        if j == 0 or v > best:
            best = v
    return best


def naive_ranks(values, ranks):
    """The plain recursion at each rank, in the order given. Returns
    (values, recursive_calls, base_case_calls), the counters summed over
    the ranks."""
    xs, ranks = _checked(values, ranks)
    counters = [0, 0]
    found = tuple([_naive(xs, rank, counters) for rank in ranks])
    return found, counters[0], counters[1]


def select_naive(values, rank):
    """naive_ranks at one rank: the plain recursion. Returns (value,
    recursive_calls, base_case_calls)."""
    (value,), recursive, base = naive_ranks(values, (rank,))
    return value, recursive, base


def _memo_counts(n, rank):
    """(recursive_calls, base_case_calls, memo_hits) of the memoized
    recursion at rank `rank` of n values, read off its level sizes C(p, K)
    for p from n down to K = n - rank + 1: every survivor set is solved
    once, and every further entry into it is a memo hit."""
    keep = n - rank + 1
    leaves = math.comb(n, keep)
    states = math.comb(n + 1, keep + 1)
    recursive = 1 + (keep + 1) * (states - leaves)
    return recursive, leaves, recursive - states


def normal_forms(values, ranks):
    """The max-min normal form at each rank, in the order given, from one
    _leaf_max pass over the window of their subset sizes."""
    xs, ranks = _checked(values, ranks)
    keeps = [len(xs) - rank + 1 for rank in ranks]
    g = _leaf_max(xs, min(keeps, default=0), max(keeps, default=0))
    return tuple([g[keep] for keep in keeps])


def select_fullrange(values, rank):
    """normal_forms at one rank: it runs the memo normal form, not a
    full-range recursion. That recursion deletes at every position, not
    just the first N - n + 2, but its leaves are the memoized recursion's,
    first reached in the same order, so it has the same normal form (see
    _leaf_max); a test pins the two together on every tuple over
    {-0.0, 0.0, 1.0} up to N = 6, zero signs included. Returns the value
    only."""
    return normal_forms(values, (rank,))[0]


def select_memo(values, rank):
    """select_fullrange's value, which is the memoized recursion's, and the
    counters that recursion would count (see _memo_counts). Returns (value,
    recursive_calls, base_case_calls, memo_hits)."""
    rank = operator.index(rank)
    xs = tuple(values)
    return (select_fullrange(xs, rank), *_memo_counts(len(xs), rank))


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
    with float(), a number past the float range to the infinity of its
    sign (_to_float), and raises ExprError when one is missing or not
    finite, or when an instruction's value is not finite. A malformed program
    raises ValueError here, before anything runs, as does one with more
    than 2**31 - 1 registers, which C ints cannot number; code that is no
    buffer, an n_vars or result that is no integer, or a constant that is
    no number, raises TypeError, and an n_vars past sys.maxsize raises
    OverflowError. A program with several faults gets the error of the
    first check that fails, in _packed's order.
    """
    n_vars, consts, code, result = _packed(n_vars, consts, code, result)
    base = n_vars + len(consts)
    tail = list(consts) + [None] * (len(code) // 3)

    def formula(xs):
        return _run_slp(_inputs(xs, n_vars) + tail, base, code, result)

    return formula


def _packed(n_vars, consts, code, result):
    """(n_vars, consts, code, result) as (int, tuple of floats,
    array('i'), int), or compile_slp's error for the first fault: the code
    buffer and its format, then _check_slp's checks."""
    view = memoryview(code)
    if view.format != "i" or view.ndim != 1:
        raise ValueError("code must be an array('i')")
    n_vars, consts, code, result = _check_slp(n_vars, consts, view, result, _MAX_REGS)
    return n_vars, consts, array("i", code), result


# The most registers the C twin numbers: its code holds C ints.
_MAX_REGS = 2**31 - 1


def _check_slp(n_vars, consts, code, result, max_regs=math.inf):
    """(n_vars, consts, code, result) as (int, floats, ints, int), `code` any
    iterable; raises compile_slp's errors for a malformed program, the
    first fault in the order of the checks below."""
    n_vars = operator.index(n_vars)
    if n_vars > sys.maxsize:  # no index-sized integer, on either backend
        raise OverflowError("cannot fit 'int' into an index-sized integer")
    result = operator.index(result)
    # All read before any is converted: an error while reading wins.
    consts = tuple([_real(v) for v in tuple(consts)])
    code = tuple(map(operator.index, code))
    if len(code) % 3:
        raise ValueError("code must hold (op, a, b) triples")
    if n_vars < 0:
        raise ValueError(f"n_vars must not be negative, got {n_vars}")
    for k, v in enumerate(consts):
        if not math.isfinite(v):
            raise ValueError(f"constant {k} is not finite")
    base = n_vars + len(consts)
    n_regs = base + len(code) // 3
    if n_regs > max_regs:
        raise ValueError("too many registers")
    if not 0 <= result < n_regs:
        raise ValueError(f"result register {result} out of range 0..{n_regs - 1}")
    it = iter(code)
    for k, (op, a, b) in enumerate(zip(it, it, it)):
        if not 0 <= op < len(SLP_OPS):
            raise ValueError(f"instruction {k}: unknown op {op}")
        if not (0 <= a < base + k and 0 <= b < base + k):
            raise ValueError(f"instruction {k}: operands ({a}, {b}) "
                             f"must lie below its register {base + k}")
    return n_vars, consts, code, result


def _real(v):
    # A value as the select entries read it, as PyFloat_AsDouble does: a
    # float, of a subclass too, is its own double, whatever __float__ the
    # subclass defines; any other number goes through __float__ or
    # __index__. float() would also parse str and bytes.
    if isinstance(v, float):
        return float.__float__(v)
    if not (hasattr(type(v), "__float__") or hasattr(type(v), "__index__")):
        raise TypeError(f"must be real number, not {type(v).__name__}")
    return float(v)


def _to_float(x) -> float:
    # float(x), but a number past the float range (an int such as 10**400)
    # becomes the infinity of its sign instead of raising OverflowError, so
    # the caller's finiteness check refuses it as it refuses 1e400.
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _inputs(xs, n):
    # The first n values as finite floats, for a formula on either backend.
    # Each is converted and checked before the next, so the first bad one
    # raises. Text is refused as a whole, as real_values refuses it.
    if isinstance(xs, _TEXT):
        raise ExprError(f"formula inputs must be a collection of numbers, "
                        f"not {type(xs).__name__!r}")
    xs = tuple(xs)
    if len(xs) < n:
        raise ExprError(f"formula needs {n} values, got {len(xs)}")
    vals = []
    for i, x in enumerate(xs[:n]):
        v = _to_float(x)
        if not math.isfinite(v):
            raise ExprError(f"input x{i + 1} is not finite: {v!r}")
        vals.append(v)
    return vals


def _run_slp(regs, base, code, result):
    """Run checked (op, a, b) triples on `regs`, which holds every input
    and constant or loads it when it is first read, where instruction k
    writes register base + k, and return register `result`. Every
    instruction reads both operands, a unary one too. A non-finite value
    raises ExprError."""
    fns = _SLP_FNS
    it = iter(code)
    for dest, op, a, b in zip(count(base), it, it, it):
        v = fns[op](regs[a], regs[b])
        # v - v is 0.0 for a finite v and nan otherwise, and nan is true.
        if v - v:
            raise ExprError(f"non-finite intermediate {v!r} at t{dest - base}")
        regs[dest] = v
    return regs[result]
