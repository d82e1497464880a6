"""Expression IR for selection formulas.

Nodes are immutable and interned: building a node whose kind, payload and
children match a live node returns that node. Structurally equal subtrees
are therefore one object, equality is identity, and every graph is shared
as it is built. The intern table holds nodes weakly, so a graph nobody
references leaves it. Constants are keyed with their sign, so -0.0 and 0.0
stay distinct nodes.

Two forms exist:

  * minmax form uses explicit min/max operators and mirrors the selection
    recursion directly;
  * arithmetic form is branchless, obtained by rewriting
    min(a,b) -> ((a + b) - |a - b|)/2 and max(a,b) -> ((a + b) + |a - b|)/2.

Canonical text rendering (emit_text) is deterministic: chains associate
left, binary + and - are always parenthesized, absolute value uses bars,
halving renders as a /2 suffix, and min/max render as min{a, b}/max{a, b}.
parse_text inverts both renderings with one reader, _Parser: a tokenizer
loop driven by a token pattern per syntax, and a recursive-descent cursor.

A graph's straight-line program (SLP) is one packed register program per
root. One walk numbers every distinct operation node as a temp, children
first. The program is built the first time anything asks for it and kept
on the root; it holds numbers only, so it keeps no other node alive.
That walk is the only one: every reader of a graph reads that record.
cse and metrics_of measure the tree size, node count and depth in one
pass over its code, contains_minmax reads its opcodes; emit_text renders
its registers in order; lower_minmax_to_arith lowers the program itself
(_lower_program), builds the lowered graph from the lowered registers
and keeps that program on the new root, which is therefore never walked;
emit_slp returns it, a CompiledProgram, which lists itself as
single-assignment instructions ("t3 = sub t0 t2" lines, min and max
included) only when asked; compile_to_pyfunc hands it as it is to the
active kernel backend, which checks it once and returns a callable for
fast repeated evaluation; and eval_expr runs it with interpret_slp, in
the Python backend's loop.
"""

from __future__ import annotations

import math
import re
import weakref
from _weakref import _remove_dead_weakref
from array import array
from collections.abc import Mapping
from functools import partial, reduce
from itertools import combinations, count

from . import _backend
from ._pykernels import SLP_OPS, _check_slp, _run_slp, _to_float
from ._record import FrozenRecord
from .errors import ExprError, SequenceError, TextParseError
from .selection import (
    _check_formula_budget,
    _check_rank,
    _check_text_budget,
    _integral,
    resolve_budget,
)

_ARITY = {
    "var": 0,
    "const": 0,
    "add": 2,
    "sub": 2,
    "abs": 1,
    "halve": 1,
    "min": 2,
    "max": 2,
}

# Weak references to live nodes by (kind, payload, children...); a const
# key also carries the sign, since -0.0 == 0.0 would otherwise merge the
# two constants. A node's death removes its entry (see _forget).
_INTERNED = {}


class _Ref(weakref.ref):
    """Weak reference to an interned node, carrying its table key. Unlike
    weakref.KeyedRef it runs no Python code when it is made."""

    __slots__ = ("key",)


def _forget(dead, table=_INTERNED):
    # In one step, so another thread cannot store a live node in between:
    # the entry goes only if it is still a dead reference, this one or
    # another, and a missing entry is no error.
    _remove_dead_weakref(table, dead.key)


class Expr:
    """One expression node: kind, optional payload (variable index or
    constant value) and child nodes. Nodes are interned, so structurally
    equal nodes are the same object and compare by identity."""

    __slots__ = ("kind", "payload", "children", "_program", "__weakref__")

    def __new__(cls, kind, payload=None, children=()):
        arity = _ARITY.get(kind)
        if arity is None:
            raise ExprError(f"unknown node kind {kind!r}")
        children = tuple(children)
        if len(children) != arity:
            raise ExprError(f"{kind} takes {arity} children, got {len(children)}")
        if kind == "var":
            payload = _integral(payload, ExprError, "variable index")
            if payload < 1:
                raise ExprError(f"variable index must be a positive integer, got {payload}")
        elif kind == "const":
            payload = _to_float(payload)
            if not math.isfinite(payload):
                raise ExprError(f"constants must be finite, got {payload!r}")
        elif payload is not None:
            raise ExprError(f"{kind} nodes carry no payload")
        for c in children:
            if not isinstance(c, Expr):
                raise ExprError(f"children must be Expr nodes, got {type(c).__name__}")
        if kind == "const":
            key = (kind, payload, math.copysign(1.0, payload))
        else:
            key = (kind, payload) + children
        return _intern(key, kind, payload, children)

    def __repr__(self):
        return f"Expr<{_describe(self)}>"


def _intern(key, kind, payload, children):
    """The live node under `key`, or a new one; callers have checked the
    parts. A new node's program (see _program_of) is computed on demand."""
    entry = _INTERNED.get(key)
    node = entry() if entry is not None else None
    if node is not None:
        return node
    node = object.__new__(Expr)
    node.kind = kind
    node.payload = payload
    node.children = children
    node._program = None
    ref = _Ref(node, _forget)
    ref.key = key
    # setdefault stores the new node in one step unless another thread
    # stored one first, whose node wins if it is alive. A dead entry whose
    # _forget has not run yet is removed here, and the store retried.
    while (entry := _INTERNED.setdefault(key, ref)) is not ref:
        other = entry()
        if other is not None:
            return other
        _remove_dead_weakref(_INTERNED, key)
    return node


def _op(kind, *children):
    """Operation node over nodes that already exist, for code in this
    module whose kinds and arities are right by construction."""
    return _intern((kind, None) + children, kind, None, children)


def var(index: int) -> Expr:
    return Expr("var", index)


def const(value: float) -> Expr:
    return Expr("const", value)


def add(lhs: Expr, rhs: Expr) -> Expr:
    return Expr("add", None, (lhs, rhs))


def sub(lhs: Expr, rhs: Expr) -> Expr:
    return Expr("sub", None, (lhs, rhs))


def abs_of(child: Expr) -> Expr:
    return Expr("abs", None, (child,))


def halve(child: Expr) -> Expr:
    return Expr("halve", None, (child,))


def min_of(lhs: Expr, rhs: Expr) -> Expr:
    return Expr("min", None, (lhs, rhs))


def max_of(lhs: Expr, rhs: Expr) -> Expr:
    return Expr("max", None, (lhs, rhs))


def _describe(node: Expr) -> str:
    if not node.children:
        return f"({node.kind} {node.payload})"
    kids = " ".join(c.kind for c in node.children)
    return f"({node.kind} {kids})"


def contains_minmax(expr: Expr) -> bool:
    return not _MINMAX_OPS.isdisjoint(_program_of(expr).code[::3])


class ExprMetrics(FrozenRecord):
    """Size of an expression as a tree (every occurrence counted) versus as
    a shared graph (distinct nodes), plus the node depth."""

    __slots__ = ("node_count_tree", "node_count_dag", "depth")

    def __init__(self, node_count_tree: int, node_count_dag: int, depth: int):
        self._store(node_count_tree, node_count_dag, depth)


def cse(expr: Expr) -> tuple[Expr, ExprMetrics]:
    """Return the shared graph of an expression with its tree/graph sizes.

    Nodes are interned at construction, so the graph is already shared and
    comes back unchanged; operand order is kept as built (no commutative
    reordering), so renderings stay stable.
    """
    return expr, metrics_of(expr)


def metrics_of(expr: Expr) -> ExprMetrics:
    """Tree size, graph size and depth, read off the root's program in
    one pass over its code: a temp's tree size and depth follow from its
    operands', and the graph's nodes are its temps, its constants and
    the variables it reads."""
    program = _program_of(expr)
    code = program.code
    n_vars = program.n_vars
    base = n_vars + len(program.consts)
    tree = []  # temp k -> (tree size, depth), by offset from base
    it = iter(code)
    for op, a, b in zip(it, it, it):
        ta, da = tree[a - base] if a >= base else (1, 1)
        if op in _UNARY_OPS:
            tree.append((1 + ta, 1 + da))
        else:
            tb, db = tree[b - base] if b >= base else (1, 1)
            tree.append((1 + ta + tb, 1 + (da if da > db else db)))
    r = program.result
    size, depth = tree[r - base] if r >= base else (1, 1)
    # A unary op names its operand twice, so b adds no variable.
    n_read = len({x for x in (*code[1::3], *code[2::3], r) if x < n_vars})
    return ExprMetrics(size, n_read + len(program.consts) + len(tree), depth)


def _fill_levels(n, rank, atom, step, fold):
    """Evaluate the rank-`rank` elimination recursion over positions
    0..n-1 bottom-up, deepest level first, and return its root.

    With K = n - rank + 1, a state at level p is the sorted K-tuple S of
    survivors kept in range(p); positions p.. all survive. The deepest
    level (p = n) maps S to the left fold reduce(step, map(atom, S)).
    Level p maps S to fold of its children in elimination order,
    S[:i] + S[i + 1:] + (p,) for each i, then S. Only two levels are
    alive at any time.
    """
    keep = n - rank + 1
    level = {S: reduce(step, map(atom, S)) for S in combinations(range(n), keep)}
    for p in range(n - 1, keep - 1, -1):
        level = {S: fold([level[S[:i] + S[i + 1:] + (p,)] for i in range(keep)] + [level[S]])
                 for S in combinations(range(p), keep)}
    (root,) = level.values()
    return root


def build_selection_expr(n_vars: int, rank: int, form: str = "minmax",
                         *, budget: int | None = None) -> Expr:
    """Formula computing the rank-th smallest of variables x1..x{n_vars}.

    The minmax form mirrors the selection recursion: rank 1 is a left
    min-chain over the surviving variables, higher ranks fold max over the
    subformulas of the first (length - rank + 2) eliminations, in
    elimination order. The arithmetic form is the same formula lowered to
    add/sub/abs/halve. Equal subformulas are one node (see Expr). The
    graph is filled level by level (see _fill_levels), so no recursion
    runs and no reference cycle outlives the call.
    """
    n_vars = _integral(n_vars, SequenceError, "n_vars")
    if n_vars < 1:
        raise SequenceError(f"need at least one variable, got {n_vars}")
    rank = _check_rank(rank, n_vars)
    if form not in ("minmax", "arithmetic"):
        raise ExprError(f"form must be 'minmax' or 'arithmetic', got {form!r}")
    _check_formula_budget(n_vars, rank, resolve_budget(budget))

    variables = [var(i + 1) for i in range(n_vars)]
    root = _fill_levels(n_vars, rank, variables.__getitem__, partial(_op, "min"),
                        partial(reduce, partial(_op, "max")))
    if form == "arithmetic":
        root = lower_minmax_to_arith(root)
    return root


def lower_minmax_to_arith(expr: Expr) -> Expr:
    """Rewrite min/max into halved add/sub/abs combinations.

    min(a,b) becomes ((a + b) - |a - b|)/2 and max(a,b) becomes
    ((a + b) + |a - b|)/2. Expressions without min/max come back as the
    same object.

    The root's program is lowered first (see _lower_program), and the new
    graph is built from the lowered program, one node per register in
    register order: interning makes every unchanged subgraph its old node.
    The lowered program is kept on the new root, so it is never walked.
    """
    program = _program_of(expr)
    lowered = _lower_program(program)
    if lowered is program:
        return expr
    code = lowered.code
    n_vars = lowered.n_vars
    # Only the variables the program reads get a register entry.
    reg = {r: var(r + 1) for r in {*code[1::3], *code[2::3]} if r < n_vars}
    reg.update(enumerate(map(const, lowered.consts), n_vars))
    it = iter(code)
    for dest, op, a, b in zip(count(n_vars + len(lowered.consts)), it, it, it):
        if op in _UNARY_OPS:
            reg[dest] = _op(SLP_OPS[op], reg[a])
        else:
            reg[dest] = _op(SLP_OPS[op], reg[a], reg[b])
    root = reg[lowered.result]
    if root._program is None:
        root._program = lowered
    return root


def _lower_program(program: CompiledProgram) -> CompiledProgram:
    """The program of the lowered graph, rewritten from a graph's program
    without building a node; a program without min/max comes back as is.

    Each min/max register becomes the triples add(a, b), sub(a, b), abs,
    then sub (min) or add (max) of the two, then halve: the lowered
    graph's left-first postorder. Equal triples share one register, as
    interning shares equal nodes, so the result is, register for
    register, the program _build_program gives the lowered graph.
    """
    code = program.code
    if _MINMAX_OPS.isdisjoint(code[::3]):
        return program
    base = program.n_vars + len(program.consts)
    temps = []  # old temp k -> its register in the lowered program
    regs = {}  # (op, a, b) -> register, for every lowered triple
    out = []

    def emit(*triple):
        r = regs.get(triple)
        if r is None:
            r = regs[triple] = base + len(regs)
            out.extend(triple)
        return r

    it = iter(code)
    for op, a, b in zip(it, it, it):
        if a >= base:
            a = temps[a - base]
        if b >= base:
            b = temps[b - base]
        if op in _MINMAX_OPS:
            total = emit(_ADD, a, b)
            diff = emit(_SUB, a, b)
            spread = emit(_ABS, diff, diff)
            mid = emit(_SUB if op == _MIN else _ADD, total, spread)
            temps.append(emit(_HALVE, mid, mid))
        else:
            temps.append(emit(op, a, b))
    r = program.result
    return CompiledProgram._make(program.n_vars, program.consts, tuple(out),
                                 r if r < base else temps[r - base])


def eval_expr(expr: Expr, assignment) -> float:
    """Bottom-up evaluation under a {1-based index: value} mapping.

    interpret_slp on the root's program: min/max evaluate by comparison,
    halve divides by exactly 2, and missing variables and non-finite
    inputs or intermediates raise ExprError in program order, the latter
    naming the instruction.
    """
    return interpret_slp(_program_of(expr), assignment)


def format_real(x: float) -> str:
    """Shortest decimal that parses back to the same float; integral values
    print without a trailing .0, and -0.0 prints as -0."""
    x = float(x)
    if x == 0 and math.copysign(1.0, x) < 0:
        return "-0"
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


# Per syntax: the text of variable x{i}, of a constant's decimal, and of
# each opcode over its operand texts (a unary op's template ignores the
# second, which names the same register).
_SYNTAX = {
    "infix": ("x{}", "{}", ("({} + {})", "({} - {})", "|{}|", "{}/2",
                            "min{{{}, {}}}", "max{{{}, {}}}")),
    "sexpr": ("(var {})", "(const {})", ("(add {} {})", "(sub {} {})", "(abs {})",
                                         "(halve {})", "(min {} {})", "(max {} {})")),
}


def emit_text(expr: Expr, syntax: str = "infix", *, budget: int | None = None) -> str:
    """Deterministic rendering; parse_text inverts it for both syntaxes.
    Each register of the root's program gets its text once, children
    first, as the program lists them.

    The text writes out the tree, every shared node once per use, so it
    can be exponentially larger than the graph. Before rendering anything,
    a tree of more nodes than the budget (``budget``, else ORDSTAT_BUDGET,
    else 2**24; see resolve_budget) raises BudgetError: under the default
    budget, the (16, 8) formula's 179,999,999 tree nodes are refused."""
    if syntax not in _SYNTAX:
        raise ExprError(f"syntax must be 'infix' or 'sexpr', got {syntax!r}")
    _check_text_budget(metrics_of(expr).node_count_tree, resolve_budget(budget))
    var_text, const_text, templates = _SYNTAX[syntax]
    var_text = var_text.format
    program = _program_of(expr)
    n_vars = program.n_vars
    code = program.code
    base = n_vars + len(program.consts)
    txt = [const_text.format(format_real(v)) for v in program.consts]  # register n_vars + i
    it = iter(code)
    for op, a, b in zip(it, it, it):
        ta = var_text(a + 1) if a < n_vars else txt[a - n_vars]
        tb = var_text(b + 1) if b < n_vars else txt[b - n_vars]
        # |a - b| drops the parentheses of its chain operand: bars delimit it.
        if op == _ABS and syntax == "infix" and a >= base and code[3 * (a - base)] in _CHAIN_OPS:
            ta = ta[1:-1]
        txt.append(templates[op].format(ta, tb))
    r = program.result
    return var_text(r + 1) if r < n_vars else txt[r - n_vars]


# Per syntax, the pattern of one token after optional whitespace; re
# compiles each the first time a parse uses it, and caches it.
_TOKEN = {
    "infix": r"\s*(\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|x\d+|min|max|[(){}|,+\-/])",
    "sexpr": r"\s*([()]|[^\s()]+)",
}


class _Parser:
    """A cursor over the tokens of one formula text, for either syntax:
    chain reads infix and sexpr reads an s-expression, one Python frame
    per s-expression level and three per infix level. A None token ends
    the list, so peek never runs past it and take refuses it."""

    def __init__(self, text, syntax):
        token = re.compile(_TOKEN[syntax])
        self.tokens = []
        self.pos = pos = 0
        while m := token.match(text, pos):
            self.tokens.append(m.group(1))
            pos = m.end()
        if text[pos:].strip():
            raise TextParseError(f"unexpected character at {text[pos:pos + 10]!r}")
        self.tokens.append(None)

    def peek(self):
        return self.tokens[self.pos]

    def take(self, expected=None):
        tok = self.tokens[self.pos]
        if tok is None:
            raise TextParseError("unexpected end of formula")
        if expected is not None and tok != expected:
            raise TextParseError(f"expected {expected!r}, found {tok!r}")
        self.pos += 1
        return tok

    def chain(self):
        node = self.operand()
        while self.peek() in ("+", "-"):
            node = _op("add" if self.take() == "+" else "sub", node, self.operand())
        return node

    def operand(self):
        node = self.primary()
        while self.peek() == "/":
            self.take()
            if self.take() != "2":
                raise TextParseError("only /2 is supported")
            node = _op("halve", node)
        return node

    def primary(self):
        # A token that starts with a digit is a number: no other does.
        tok = self.take()
        if tok in ("(", "|"):
            node = self.chain()
            self.take(")" if tok == "(" else "|")
            return node if tok == "(" else _op("abs", node)
        if tok in ("min", "max"):
            self.take("{")
            a = self.chain()
            self.take(",")
            b = self.chain()
            self.take("}")
            return _op(tok, a, b)
        if tok == "-":
            num = self.take()
            if not num[0].isdigit():
                raise TextParseError(f"expected a number after '-', found {num!r}")
            return _leaf("const", "-" + num)
        if tok[0] == "x":
            return _leaf("var", tok[1:])
        if tok[0].isdigit():
            return _leaf("const", tok)
        raise TextParseError(f"unexpected token {tok!r}")

    def sexpr(self):
        # Children are read in a plain loop: a comprehension would add a
        # frame per level.
        self.take("(")
        head = self.take()
        if head in ("var", "const"):
            tok = self.take()
            if head == "var" and not tok.isdigit():
                raise TextParseError(f"bad variable index {tok!r}")
            node = _leaf(head, tok)
        elif _ARITY.get(head):
            kids = []
            for _ in range(_ARITY[head]):
                kids.append(self.sexpr())
            node = _op(head, *kids)
        else:
            raise TextParseError(f"unknown operator {head!r}")
        self.take(")")
        return node


def _leaf(kind, text):
    """The var or const node whose payload is written `text`. A payload
    that does not convert, or that the node refuses (x0, 1e999), makes
    the formula malformed text."""
    try:
        return var(int(text)) if kind == "var" else const(float(text))
    except ValueError as exc:  # ExprError is a ValueError too
        name = "variable index" if kind == "var" else "constant"
        raise TextParseError(f"bad {name} {text!r}: {exc}") from None


def parse_text(text: str, syntax: str = "infix") -> Expr:
    """Parse a rendering produced by emit_text back into an expression.

    A rendering parses back to the expression it renders, unless it nests
    too deeply (below). The syntax is looser than emit_text's output; for
    example, a variable index may have leading zeros (x01 and (var 01)
    are x1), and + and - chain to the left without parentheses
    (x1 + x2 + x3 is (x1 + x2) + x3). Text outside the syntax, and x0 or
    a constant that overflows to infinity, raises TextParseError; an
    unknown `syntax` raises ExprError. Text nested past the recursion
    limit is refused too: under the default limit of 1000, past about 330
    infix or 990 sexpr groups, fewer when parse_text is called from
    deeper in the stack."""
    if syntax not in ("infix", "sexpr"):
        raise ExprError(f"syntax must be 'infix' or 'sexpr', got {syntax!r}")
    try:
        parser = _Parser(text, syntax)
        node = parser.chain() if syntax == "infix" else parser.sexpr()
    except RecursionError:
        raise TextParseError("formula nests too deeply to parse") from None
    if parser.peek() is not None:
        raise TextParseError(f"trailing input from {parser.peek()!r}")
    return node


class SlpInstruction(FrozenRecord):
    """Single assignment: dest temp, op in {add, sub, abs, halve, min, max},
    operand refs of the shape ("x", index) | ("t", temp) | ("c", value)."""

    __slots__ = ("dest", "op", "args")

    def __init__(self, dest: int, op: str, args: tuple):
        self._store(dest, op, args)


class CompiledProgram(FrozenRecord):
    """A straight-line program, packed as _pykernels.compile_slp takes it
    and checked as it checks one. Registers are [x1..x{n_vars}, consts,
    temps]; temp k is written by the k-th (op, a, b) triple of `code`, op
    indexing SLP_OPS, from registers below it (a unary op ignores b), and
    `result` is the register returned. `code` holds Python ints, so any
    variable index fits; only compile_to_pyfunc packs it into 32 bits."""

    __slots__ = ("n_vars", "consts", "code", "result")

    def __init__(self, n_vars: int, consts: tuple, code: tuple, result: int):
        self._store(*_check_slp(n_vars, consts, code, result))

    # Equal programs return equal bits: constants compare by sign too, so
    # the programs of x1 + 0.0 and x1 + -0.0, which differ at x1 = -0.0,
    # are unequal and hash apart.
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._signed() == other._signed()
        return NotImplemented

    def __hash__(self):
        return hash(self._signed())

    def _signed(self):
        consts = tuple([(v, math.copysign(1.0, v)) for v in self.consts])
        return self.n_vars, consts, self.code, self.result

    @property
    def instructions(self) -> tuple:
        """The program as SlpInstruction lines, built anew on each read."""
        lines, _ = self._listing()
        return tuple([SlpInstruction(*line) for line in lines])

    def to_text(self) -> str:
        lines, result = self._listing()
        text = [f"t{dest} = {op} " + " ".join(map(_ref_text, args)) for dest, op, args in lines]
        text.append("result " + _ref_text(result))
        return "\n".join(text)

    def _listing(self):
        # Each instruction as (dest, op, operand refs), and the result's ref.
        n_vars = self.n_vars
        refs = [("c", v) for v in self.consts]  # register n_vars + i
        lines = []
        it = iter(self.code)
        for dest, (op, a, b) in enumerate(zip(it, it, it)):
            args = (a,) if op in _UNARY_OPS else (a, b)
            lines.append((dest, SLP_OPS[op],
                          tuple([("x", r + 1) if r < n_vars else refs[r - n_vars] for r in args])))
            refs.append(("t", dest))
        r = self.result
        return lines, ("x", r + 1) if r < n_vars else refs[r - n_vars]


def _ref_text(ref) -> str:
    tag, v = ref
    if tag == "x":
        return f"x{v}"
    if tag == "t":
        return f"t{v}"
    return format_real(v)


_OPCODE = {op: code for code, op in enumerate(SLP_OPS)}
_UNARY_OPS = {_OPCODE["abs"], _OPCODE["halve"]}
_MINMAX_OPS = {_OPCODE["min"], _OPCODE["max"]}
_CHAIN_OPS = {_OPCODE["add"], _OPCODE["sub"]}
_ADD, _SUB, _ABS, _HALVE, _MIN = map(_OPCODE.get, ("add", "sub", "abs", "halve", "min"))


def _program_of(expr: Expr) -> CompiledProgram:
    """The root's program, built by one walk the first time it is asked
    for and kept on the root: interned nodes never change."""
    program = expr._program
    if program is None:
        program = expr._program = _build_program(expr)
    return program


def _build_program(root: Expr) -> CompiledProgram:
    # One register per distinct node, so -0.0 and 0.0 stay apart; temps in
    # postorder, left subtree first. Only numbers, so it keeps no graph alive.
    # A node is finished once its children are, left child first.
    # Operand registers wait until the walk has counted variables and
    # constants, which come first in the register file.
    done = set()
    reg = {}  # node -> register of every variable and operation node
    const_nodes = []
    ops = []
    n_vars = 0
    stack = [root]
    push = stack.append
    pop = stack.pop
    while stack:
        node = stack[-1]
        if node in done:
            pop()
            continue
        kids = node.children
        if kids:
            a = kids[0]
            b = kids[-1]
            if a not in done or b not in done:
                if b not in done:
                    push(b)
                if a not in done:
                    push(a)
                continue
            ops.append(node)
        elif node.kind == "var":
            reg[node] = node.payload - 1
            if node.payload > n_vars:
                n_vars = node.payload
        else:
            const_nodes.append(node)
        done.add(node)
        pop()
    for i, node in enumerate(const_nodes, n_vars):
        reg[node] = i
    code = []
    for dest, node in enumerate(ops, n_vars + len(const_nodes)):
        kids = node.children
        code += (_OPCODE[node.kind], reg[kids[0]], reg[kids[-1]])
        reg[node] = dest
    # Well formed by construction, so the constructor's check is skipped.
    return CompiledProgram._make(n_vars, tuple([node.payload for node in const_nodes]),
                                 tuple(code), reg[root])


def emit_slp(expr: Expr) -> CompiledProgram:
    """The root's program: one instruction per distinct operation node,
    children first; leaves are registers."""
    return _program_of(expr)


def interpret_slp(program: CompiledProgram, assignment) -> float:
    """Run a CompiledProgram in the Python backend's loop under a
    {1-based index: value} mapping. Each variable is converted and checked
    at its first read, so ExprError for a missing or non-finite input or
    intermediate comes in program order."""
    if not isinstance(program, CompiledProgram):
        raise TypeError(f"program must be a CompiledProgram, not {type(program).__name__}")
    if not isinstance(assignment, Mapping):
        raise TypeError(f"assignment must be a mapping, not {type(assignment).__name__}")
    n_vars = program.n_vars
    regs = _Loads(enumerate(program.consts, n_vars))
    regs.assignment = assignment
    return _run_slp(regs, n_vars + len(program.consts), program.code, program.result)


class _Loads(dict):
    """interpret_slp's registers. Constants are set up front and temps before
    they are read, so a missing one is a variable's, loaded at its first read."""

    __slots__ = ("assignment",)

    def __missing__(self, r):
        try:
            v = _to_float(self.assignment[r + 1])
        except KeyError:
            raise ExprError(f"assignment is missing variable x{r + 1}") from None
        if not math.isfinite(v):
            raise ExprError(f"assignment for x{r + 1} is not finite: {v!r}")
        self[r] = v
        return v


def compile_to_pyfunc(expr: Expr):
    """Compile to a function f(values) over a 0-based sequence.

    A speed utility for drivers that evaluate one formula many times. The
    active kernel backend checks the root's program once, and f then runs
    its instructions in order, so results match eval_expr bit for bit. f
    converts x1..xN (N the largest variable index) with float() and
    returns a float; a missing or non-finite input, an int past the float
    range included, or a non-finite intermediate, raises ExprError, as
    eval_expr does.
    """
    return _compile_program(_program_of(expr))


def _compile_program(program: CompiledProgram):
    """The active backend's callable for a checked program."""
    return _backend.kernels().compile_slp(program.n_vars, program.consts,
                                          array("i", program.code), program.result)
