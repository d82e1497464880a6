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
parse_text inverts both the infix and the sexpr renderings.

emit_slp flattens a graph of either form into single-assignment
instructions ("t3 = sub t0 t2" lines, min and max included), which
interpret_slp (and eval_expr, which runs it) interprets. compile_to_pyfunc
packs the same instructions, in the same order, into registers and hands
them to the active kernel backend, which returns a callable for fast
repeated evaluation: the C extension runs the program directly, the
pure-Python backend generates Python source from it.
"""

from __future__ import annotations

import math
import operator
import re
from array import array
from dataclasses import dataclass
from functools import reduce
from weakref import KeyedRef

from . import _backend
from ._pykernels import SLP_OPS, _fill_levels
from .errors import BudgetError, ExprError, RankError, SequenceError, TextParseError
from .selection import naive_call_count, resolve_budget

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


def _forget(ref, table=_INTERNED):
    # A dead reference may already have been replaced by a live node.
    if table.get(ref.key) is ref:
        del table[ref.key]


class Expr:
    """One expression node: kind, optional payload (variable index or
    constant value) and child nodes. Nodes are interned, so structurally
    equal nodes are the same object and compare by identity."""

    __slots__ = ("kind", "payload", "children", "__weakref__")

    def __new__(cls, kind, payload=None, children=()):
        arity = _ARITY.get(kind)
        if arity is None:
            raise ExprError(f"unknown node kind {kind!r}")
        children = tuple(children)
        if len(children) != arity:
            raise ExprError(f"{kind} takes {arity} children, got {len(children)}")
        if kind == "var":
            if not isinstance(payload, int) or payload < 1:
                raise ExprError(f"variable index must be a positive integer, got {payload!r}")
        elif kind == "const":
            payload = float(payload)
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
        ref = _INTERNED.get(key)
        node = ref() if ref is not None else None
        if node is None:
            node = object.__new__(cls)
            node.kind = kind
            node.payload = payload
            node.children = children
            _INTERNED[key] = KeyedRef(node, _forget, key)
        return node

    def __repr__(self):
        return f"Expr<{_describe(self)}>"


def var(index: int) -> Expr:
    return Expr("var", int(index))


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


def _postorder(root: Expr) -> list[Expr]:
    """Distinct nodes (by object identity), children before parents,
    left subtrees before right ones."""
    out = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, ready = stack.pop()
        if ready:
            out.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for c in reversed(node.children):
            stack.append((c, False))
    return out


def contains_minmax(expr: Expr) -> bool:
    return any(node.kind in ("min", "max") for node in _postorder(expr))


def form_of(expr: Expr) -> str:
    """"minmax" when any min/max node is present, else "arithmetic"."""
    return "minmax" if contains_minmax(expr) else "arithmetic"


@dataclass(frozen=True)
class ExprMetrics:
    """Size of an expression as a tree (every occurrence counted) versus as
    a shared graph (distinct nodes), plus the node depth."""

    node_count_tree: int
    node_count_dag: int
    depth: int


def cse(expr: Expr) -> tuple[Expr, ExprMetrics]:
    """Return the shared graph of an expression with its tree/graph sizes.

    Nodes are interned at construction, so the graph is already shared and
    comes back unchanged; operand order is kept as built (no commutative
    reordering), so renderings stay stable.
    """
    return expr, metrics_of(expr)


def metrics_of(expr: Expr) -> ExprMetrics:
    tree = {}
    depth = {}
    for node in _postorder(expr):
        tree[id(node)] = 1 + sum(tree[id(c)] for c in node.children)
        depth[id(node)] = 1 + max((depth[id(c)] for c in node.children), default=0)
    return ExprMetrics(tree[id(expr)], len(tree), depth[id(expr)])


def _check_build_budget(n_vars: int, rank: int, budget: int | None) -> None:
    limit = resolve_budget(budget)
    count = naive_call_count(n_vars, rank)
    if count > limit:
        raise BudgetError(
            f"selection formula for rank {rank} of {n_vars} variables implies "
            f"{count} base cases, over the budget of {limit}"
        )
    # The shared graph holds at most one subproblem per distinct survivor
    # set, each contributing O(n_vars) nodes; refuse graphs past the budget.
    states = 0
    paths = 1
    branch = n_vars - rank + 2
    for t in range(rank):
        states += min(math.comb(n_vars, t), paths)
        if states * (n_vars + 1) > limit:
            raise BudgetError(
                f"selection formula for rank {rank} of {n_vars} variables "
                f"would exceed the node budget of {limit}"
            )
        paths = min(paths * branch, limit + 1)


def build_selection_expr(n_vars: int, rank: int, form: str = "minmax",
                         *, budget: int | None = None) -> Expr:
    """Formula computing the rank-th smallest of variables x1..x{n_vars}.

    The minmax form mirrors the selection recursion: rank 1 is a left
    min-chain over the surviving variables, higher ranks fold max over the
    subformulas of the first (length - rank + 2) eliminations, in
    elimination order. The arithmetic form is the same formula lowered to
    add/sub/abs/halve. Equal subformulas are one node (see Expr). The
    graph is filled level by level, as the Python select_memo is, so no
    recursion runs and no reference cycle outlives the call.
    """
    n_vars = int(n_vars)
    if n_vars < 1:
        raise SequenceError(f"need at least one variable, got {n_vars}")
    rank = int(rank)
    if not 1 <= rank <= n_vars:
        raise RankError(f"rank {rank} out of range 1..{n_vars}")
    if form not in ("minmax", "arithmetic"):
        raise ExprError(f"form must be 'minmax' or 'arithmetic', got {form!r}")
    _check_build_budget(n_vars, rank, budget)

    root, _ = _fill_levels(n_vars, rank,
                           lambda S: reduce(min_of, [var(i + 1) for i in S]),
                           lambda kids: reduce(max_of, kids))
    if form == "arithmetic":
        root = lower_minmax_to_arith(root)
    return root


def lower_minmax_to_arith(expr: Expr) -> Expr:
    """Rewrite min/max into halved add/sub/abs combinations.

    min(a,b) becomes ((a + b) - |a - b|)/2 and max(a,b) becomes
    ((a + b) + |a - b|)/2. Expressions without min/max come back as the
    same object.
    """
    out = {}
    for node in _postorder(expr):
        kids = tuple(out[id(c)] for c in node.children)
        if node.kind == "min":
            a, b = kids
            new = halve(sub(add(a, b), abs_of(sub(a, b))))
        elif node.kind == "max":
            a, b = kids
            new = halve(add(add(a, b), abs_of(sub(a, b))))
        else:
            new = Expr(node.kind, node.payload, kids)
        out[id(node)] = new
    return out[id(expr)]


def eval_expr(expr: Expr, assignment) -> float:
    """Bottom-up evaluation under a {1-based index: value} assignment.

    Runs interpret_slp on the flattened expression: min/max evaluate by
    comparison, halve divides by exactly 2. Missing variables and
    non-finite inputs or intermediates raise ExprError, the latter naming
    the offending instruction.
    """
    return interpret_slp(_flatten(expr), assignment)


def format_real(x: float) -> str:
    """Shortest decimal that parses back to the same float; integral values
    print without a trailing .0, and -0.0 prints as -0."""
    x = float(x)
    if x == 0 and math.copysign(1.0, x) < 0:
        return "-0"
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


_INFIX_OP = {"add": " + ", "sub": " - "}


def emit_text(expr: Expr, syntax: str = "infix") -> str:
    """Deterministic rendering; parse_text inverts it for both syntaxes."""
    if syntax == "sexpr":
        return _emit_sexpr(expr, _postorder(expr))
    if syntax == "infix":
        return _emit_infix(expr, _postorder(expr))
    raise ExprError(f"syntax must be 'infix' or 'sexpr', got {syntax!r}")


def _emit_infix(root, order):
    txt = {}
    for node in order:
        kind = node.kind
        if kind == "var":
            s = f"x{node.payload}"
        elif kind == "const":
            s = format_real(node.payload)
        elif kind in ("add", "sub"):
            s = ("(" + txt[id(node.children[0])] + _INFIX_OP[kind]
                 + txt[id(node.children[1])] + ")")
        elif kind in ("min", "max"):
            s = (kind + "{" + txt[id(node.children[0])] + ", "
                 + txt[id(node.children[1])] + "}")
        elif kind == "abs":
            body = txt[id(node.children[0])]
            if node.children[0].kind in ("add", "sub"):
                body = body[1:-1]
            s = "|" + body + "|"
        else:  # halve
            s = txt[id(node.children[0])] + "/2"
        txt[id(node)] = s
    return txt[id(root)]


def _emit_sexpr(root, order):
    txt = {}
    for node in order:
        if node.kind == "var":
            s = f"(var {node.payload})"
        elif node.kind == "const":
            s = f"(const {format_real(node.payload)})"
        else:
            s = "(" + " ".join([node.kind] + [txt[id(c)] for c in node.children]) + ")"
        txt[id(node)] = s
    return txt[id(root)]


_INFIX_TOKEN = re.compile(
    r"\s*(\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|x\d+|min|max|[(){}|,+\-/])"
)
_NUMBER = re.compile(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?\Z")


def _tokenize_infix(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _INFIX_TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise TextParseError(f"unexpected character at {text[pos:pos + 10]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


class _InfixParser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None:
            raise TextParseError("unexpected end of formula")
        if expected is not None and tok != expected:
            raise TextParseError(f"expected {expected!r}, found {tok!r}")
        self.pos += 1
        return tok

    def parse_chain(self):
        node = self.parse_operand()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.parse_operand()
            node = add(node, rhs) if op == "+" else sub(node, rhs)
        return node

    def parse_operand(self):
        node = self.parse_primary()
        while self.peek() == "/":
            self.take("/")
            if self.take() != "2":
                raise TextParseError("only /2 is supported")
            node = halve(node)
        return node

    def parse_primary(self):
        tok = self.peek()
        if tok is None:
            raise TextParseError("unexpected end of formula")
        if tok == "(":
            self.take()
            node = self.parse_chain()
            self.take(")")
            return node
        if tok == "|":
            self.take()
            node = self.parse_chain()
            self.take("|")
            return abs_of(node)
        if tok in ("min", "max"):
            self.take()
            self.take("{")
            a = self.parse_chain()
            self.take(",")
            b = self.parse_chain()
            self.take("}")
            return min_of(a, b) if tok == "min" else max_of(a, b)
        if tok == "-":
            self.take()
            num = self.take()
            if not _NUMBER.match(num):
                raise TextParseError(f"expected a number after '-', found {num!r}")
            return const(-float(num))
        self.take()
        if tok.startswith("x") and tok[1:].isdigit():
            return var(int(tok[1:]))
        if _NUMBER.match(tok):
            return const(float(tok))
        raise TextParseError(f"unexpected token {tok!r}")


def parse_text(text: str, syntax: str = "infix") -> Expr:
    """Parse a rendering produced by emit_text back into an expression."""
    if syntax == "infix":
        parser = _InfixParser(_tokenize_infix(text))
        node = parser.parse_chain()
        if parser.peek() is not None:
            raise TextParseError(f"trailing input from {parser.peek()!r}")
        return node
    if syntax == "sexpr":
        tokens = re.findall(r"[()]|[^\s()]+", text)
        node, rest = _parse_sexpr(tokens, 0)
        if rest != len(tokens):
            raise TextParseError(f"trailing input from {tokens[rest]!r}")
        return node
    raise ExprError(f"syntax must be 'infix' or 'sexpr', got {syntax!r}")


def _parse_sexpr(tokens, pos):
    if pos >= len(tokens):
        raise TextParseError("unexpected end of expression")
    if tokens[pos] != "(":
        raise TextParseError(f"expected '(', found {tokens[pos]!r}")
    pos += 1
    if pos >= len(tokens):
        raise TextParseError("unexpected end of expression")
    head = tokens[pos]
    pos += 1
    if head == "var":
        tok = tokens[pos]
        if not tok.isdigit():
            raise TextParseError(f"bad variable index {tok!r}")
        node = var(int(tok))
        pos += 1
    elif head == "const":
        try:
            node = const(float(tokens[pos]))
        except ValueError:
            raise TextParseError(f"bad constant {tokens[pos]!r}") from None
        pos += 1
    else:
        arity = _ARITY.get(head)
        if arity is None or arity == 0:
            raise TextParseError(f"unknown operator {head!r}")
        kids = []
        for _ in range(arity):
            child, pos = _parse_sexpr(tokens, pos)
            kids.append(child)
        node = Expr(head, None, tuple(kids))
    if pos >= len(tokens) or tokens[pos] != ")":
        raise TextParseError("expected ')'")
    return node, pos + 1


@dataclass(frozen=True)
class SlpInstruction:
    """Single assignment: dest temp, op in {add, sub, abs, halve, min, max},
    operand refs of the shape ("x", index) | ("t", temp) | ("c", value)."""

    dest: int
    op: str
    args: tuple


@dataclass(frozen=True)
class CompiledProgram:
    """Straight-line program; instructions are in dependency order and every
    temp is assigned exactly once."""

    instructions: tuple
    result: tuple

    def to_text(self) -> str:
        lines = [
            f"t{ins.dest} = {ins.op} " + " ".join(_ref_text(a) for a in ins.args)
            for ins in self.instructions
        ]
        lines.append("result " + _ref_text(self.result))
        return "\n".join(lines)


def _ref_text(ref) -> str:
    tag, v = ref
    if tag == "x":
        return f"x{v}"
    if tag == "t":
        return f"t{v}"
    return format_real(v)


def _flatten(expr: Expr) -> CompiledProgram:
    """One instruction per distinct operation node, children first; leaves
    become operand refs. The evaluators call this rather than emit_slp, so
    a wrapper around emit_slp sees only programs that callers asked for."""
    refs = {}
    instructions = []
    for node in _postorder(expr):
        if node.kind == "var":
            refs[id(node)] = ("x", node.payload)
        elif node.kind == "const":
            refs[id(node)] = ("c", node.payload)
        else:
            args = tuple(refs[id(c)] for c in node.children)
            dest = len(instructions)
            instructions.append(SlpInstruction(dest, node.kind, args))
            refs[id(node)] = ("t", dest)
    return CompiledProgram(tuple(instructions), refs[id(expr)])


def emit_slp(expr: Expr) -> CompiledProgram:
    """Flatten an expression of either form into one instruction per
    distinct operation node."""
    return _flatten(expr)


# The SLP ops as Python functions; compiled programs (see
# _pykernels.compile_slp) compare min/max the same way.
_SLP_OPS = {
    "add": operator.add,
    "sub": operator.sub,
    "abs": abs,
    "halve": lambda a: a / 2,
    "min": lambda a, b: a if a <= b else b,
    "max": lambda a, b: a if a >= b else b,
}
_OPCODE = {op: code for code, op in enumerate(SLP_OPS)}


def interpret_slp(program: CompiledProgram, assignment) -> float:
    """Run a straight-line program under a {1-based index: value}
    assignment; non-finite inputs or intermediates raise ExprError. Each
    variable is converted and checked at its first reference, so errors
    surface in program order."""
    temps = []
    xs = {}
    # Operand loads are inlined: a call per operand cost more than the ops.
    for ins in program.instructions:
        fn = _SLP_OPS.get(ins.op)
        if fn is None:
            raise ExprError(f"unknown op {ins.op!r}")
        args = []
        for tag, v in ins.args:
            if tag == "t":
                args.append(temps[v])
            elif tag == "c":
                args.append(v)
            else:
                args.append(xs[v] if v in xs else _variable(assignment, v, xs))
        r = fn(*args)
        if not math.isfinite(r):
            raise ExprError(f"non-finite intermediate {r!r} at t{ins.dest}")
        temps.append(r)
    tag, v = program.result
    if tag == "t":
        return temps[v]
    if tag == "c":
        return v
    return xs[v] if v in xs else _variable(assignment, v, xs)


def _variable(assignment, v: int, xs: dict) -> float:
    """x{v} from the assignment as a finite float, remembered in xs."""
    try:
        val = float(assignment[v])
    except (KeyError, IndexError):
        raise ExprError(f"assignment is missing variable x{v}") from None
    if not math.isfinite(val):
        raise ExprError(f"assignment for x{v} is not finite: {val!r}")
    xs[v] = val
    return val


def _pack(expr: Expr):
    """The (n_vars, consts, code, result) program that compile_slp takes.

    Registers are [x1..xN, constants, temps], N the largest variable index.
    Each distinct constant node gets one pool entry, so -0.0 and 0.0 stay
    apart, and the temps are _flatten's instructions in _flatten's order;
    a unary op names its operand twice.
    """
    order = _postorder(expr)
    n_vars = max((node.payload for node in order if node.kind == "var"), default=0)
    consts = [node.payload for node in order if node.kind == "const"]
    reg = {}
    next_const = n_vars
    dest = n_vars + len(consts)
    code = []
    for node in order:
        kind = node.kind
        if kind == "var":
            reg[id(node)] = node.payload - 1
        elif kind == "const":
            reg[id(node)] = next_const
            next_const += 1
        else:
            kids = node.children
            code += (_OPCODE[kind], reg[id(kids[0])], reg[id(kids[-1])])
            reg[id(node)] = dest
            dest += 1
    return n_vars, consts, array("i", code), reg[id(expr)]


def compile_to_pyfunc(expr: Expr):
    """Compile to a function f(values) over a 0-based sequence.

    A speed utility for drivers that evaluate one formula many times. The
    active kernel backend builds f from the instructions interpret_slp
    runs, in the same order, so results match eval_expr bit for bit. f
    converts x1..xN (N the largest variable index) with float() and
    returns a float; a missing or non-finite input, or a non-finite
    intermediate, raises ExprError, as eval_expr does.
    """
    return _backend.kernels().compile_slp(*_pack(expr))
