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

A graph's straight-line program (SLP) is one packed register program per
root. One walk numbers every distinct operation node as a temp, children
first, and measures the graph's tree size, node count and depth on the
way. The program is built the first time anything asks for it and kept
on the root; it holds numbers only, so it keeps no other node alive.
Every SLP consumer reads that one record: cse, metrics_of and form_of
take its sizes and opcodes, emit_slp lists it as single-assignment
instructions ("t3 = sub t0 t2" lines, min and max included) that
interpret_slp runs, eval_expr runs it with the pure-Python backend's
register loop, and compile_to_pyfunc hands it as it is to the active
kernel backend, which checks it once and returns a callable for fast
repeated evaluation. interpret_slp walks the listing on its own and is
the reference both backends are tested against.
"""

from __future__ import annotations

import math
import re
import weakref
from array import array
from functools import reduce

from . import _backend
from ._pykernels import _SLP_FNS, SLP_OPS, _fill_levels, _run_slp
from ._record import FrozenRecord, slot_setters
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


class _Ref(weakref.ref):
    """Weak reference to an interned node, carrying its table key. Unlike
    weakref.KeyedRef it runs no Python code when it is made."""

    __slots__ = ("key",)


def _forget(dead, table=_INTERNED):
    # A dead reference may already have been replaced by a live node.
    if table.get(dead.key) is dead:
        del table[dead.key]


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
        return _intern(key, kind, payload, children)

    def __repr__(self):
        return f"Expr<{_describe(self)}>"


def _intern(key, kind, payload, children):
    """The live node under `key`, or a new one; callers have checked the
    parts. A new node's program (see _program_of) is computed on demand."""
    entry = _INTERNED.get(key)
    node = entry() if entry is not None else None
    if node is None:
        node = object.__new__(Expr)
        node.kind = kind
        node.payload = payload
        node.children = children
        node._program = None
        entry = _INTERNED[key] = _Ref(node, _forget)
        entry.key = key
    return node


def _op(kind, *children):
    """Operation node over nodes that already exist, for code in this
    module whose kinds and arities are right by construction."""
    return _intern((kind, None) + children, kind, None, children)


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
    return not _MINMAX_OPS.isdisjoint(_program_of(expr).code[::3])


def form_of(expr: Expr) -> str:
    """"minmax" when any min/max node is present, else "arithmetic"."""
    return "minmax" if contains_minmax(expr) else "arithmetic"


class ExprMetrics(FrozenRecord):
    """Size of an expression as a tree (every occurrence counted) versus as
    a shared graph (distinct nodes), plus the node depth."""

    __slots__ = ("node_count_tree", "node_count_dag", "depth")

    def __init__(self, node_count_tree: int, node_count_dag: int, depth: int):
        _set_tree(self, node_count_tree)
        _set_dag(self, node_count_dag)
        _set_depth(self, depth)


_set_tree, _set_dag, _set_depth = slot_setters(ExprMetrics)


def cse(expr: Expr) -> tuple[Expr, ExprMetrics]:
    """Return the shared graph of an expression with its tree/graph sizes.

    Nodes are interned at construction, so the graph is already shared and
    comes back unchanged; operand order is kept as built (no commutative
    reordering), so renderings stay stable.
    """
    return expr, metrics_of(expr)


def metrics_of(expr: Expr) -> ExprMetrics:
    return _program_of(expr).metrics


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

    variables = [var(i + 1) for i in range(n_vars)]
    root, _ = _fill_levels(n_vars, rank, variables.__getitem__, min_of,
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
        kind = node.kind
        kids = node.children
        if kind == "min" or kind == "max":
            a = out[id(kids[0])]
            b = out[id(kids[1])]
            spread = _op("abs", _op("sub", a, b))
            new = _op("halve", _op("sub" if kind == "min" else "add", _op("add", a, b), spread))
        elif not kids:
            new = node
        else:
            lowered = tuple([out[id(c)] for c in kids])
            new = node if lowered == kids else _op(kind, *lowered)
        out[id(node)] = new
    return out[id(expr)]


def eval_expr(expr: Expr, assignment) -> float:
    """Bottom-up evaluation under a {1-based index: value} assignment.

    Runs the program emit_slp lists in the pure-Python backend's register
    loop: min/max evaluate by comparison, halve divides by exactly 2.
    Missing variables and non-finite inputs or intermediates raise
    ExprError in interpret_slp's order, the latter naming the instruction.
    """
    program = _program_of(expr)
    regs = _Registers(enumerate(program.consts, program.n_vars))
    regs.assignment = assignment
    return _run_slp(regs, program.n_vars + len(program.consts), program.code,
                    program.result)


class _Registers(dict):
    """eval_expr's registers: variable register r loads x{r + 1} from the
    assignment at its first read, and unread variables take no room."""

    __slots__ = ("assignment",)

    def __missing__(self, r):
        value = self[r] = _variable(self.assignment, r + 1)
        return value


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
            return _leaf("const", "-" + num)
        self.take()
        if tok.startswith("x") and tok[1:].isdigit():
            return _leaf("var", tok[1:])
        if _NUMBER.match(tok):
            return _leaf("const", tok)
        raise TextParseError(f"unexpected token {tok!r}")


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

    Any text that is no such rendering, including x0 and constants that
    overflow to infinity, raises TextParseError; an unknown `syntax`
    raises ExprError. Text nested past the recursion limit is refused too."""
    try:
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
    except RecursionError:
        raise TextParseError("formula nests too deeply to parse") from None
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
    if head in ("var", "const"):
        if pos >= len(tokens):
            raise TextParseError("unexpected end of expression")
        tok = tokens[pos]
        if head == "var" and not tok.isdigit():
            raise TextParseError(f"bad variable index {tok!r}")
        node = _leaf(head, tok)
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


class SlpInstruction(FrozenRecord):
    """Single assignment: dest temp, op in {add, sub, abs, halve, min, max},
    operand refs of the shape ("x", index) | ("t", temp) | ("c", value)."""

    __slots__ = ("dest", "op", "args")

    def __init__(self, dest: int, op: str, args: tuple):
        _set_dest(self, dest)
        _set_op(self, op)
        _set_args(self, args)


_set_dest, _set_op, _set_args = slot_setters(SlpInstruction)


class CompiledProgram(FrozenRecord):
    """Straight-line program; instructions are in dependency order and every
    temp is assigned exactly once."""

    __slots__ = ("instructions", "result")

    def __init__(self, instructions: tuple, result: tuple):
        _set_instructions(self, instructions)
        _set_result(self, result)

    def to_text(self) -> str:
        lines = [
            f"t{ins.dest} = {ins.op} " + " ".join(_ref_text(a) for a in ins.args)
            for ins in self.instructions
        ]
        lines.append("result " + _ref_text(self.result))
        return "\n".join(lines)


_set_instructions, _set_result = slot_setters(CompiledProgram)


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


class _Program:
    """A root's straight-line program, packed as compile_slp takes it, and
    the root's metrics. Registers are [x1..xN, constants, temps], N the
    largest variable index; each distinct constant node has one pool
    entry, so -0.0 and 0.0 stay apart. Temp k is the k-th distinct
    operation node in _postorder's order and is written by the k-th
    (op, a, b) triple of `code`; a unary op names its operand twice.
    `code` is a list, so any variable index can be listed, measured and
    evaluated; only compile_to_pyfunc packs it into 32-bit registers. The
    record holds numbers only, no node, so keeping it on its root keeps no
    graph alive."""

    __slots__ = ("n_vars", "consts", "code", "result", "metrics")

    def __init__(self, n_vars, consts, code, result, metrics):
        self.n_vars = n_vars
        self.consts = consts
        self.code = code
        self.result = result
        self.metrics = metrics

    def slp(self) -> CompiledProgram:
        """The program as SlpInstruction lines, read off `code`."""
        n_vars = self.n_vars
        refs = [("c", v) for v in self.consts]  # register n_vars + i
        instructions = []
        it = iter(self.code)
        for dest, (op, a, b) in enumerate(zip(it, it, it)):
            ra = ("x", a + 1) if a < n_vars else refs[a - n_vars]
            if op in _UNARY_OPS:
                args = (ra,)
            else:
                args = (ra, ("x", b + 1) if b < n_vars else refs[b - n_vars])
            instructions.append(SlpInstruction(dest, SLP_OPS[op], args))
            refs.append(("t", dest))
        r = self.result
        return CompiledProgram(tuple(instructions),
                               ("x", r + 1) if r < n_vars else refs[r - n_vars])


def _program_of(expr: Expr) -> _Program:
    """The root's _Program, built by one walk the first time it is asked
    for and then kept on the root: interned nodes never change."""
    program = expr._program
    if program is None:
        program = expr._program = _build_program(expr)
    return program


def _build_program(root: Expr) -> _Program:
    # A node is finished once its children are: nodes finish in
    # _postorder's order, and tree size and depth are known at that point.
    # Operand registers wait until the walk has counted variables and
    # constants, which come first in the register file.
    size = {}  # id -> (tree nodes, depth) of every finished node
    reg = {}  # id -> register of every variable and operation node
    const_nodes = []
    ops = []
    n_vars = 0
    stack = [root]
    push = stack.append
    pop = stack.pop
    while stack:
        node = stack[-1]
        if id(node) in size:
            pop()
            continue
        kids = node.children
        if len(kids) == 2:
            a, b = kids
            sa = size.get(id(a))
            sb = size.get(id(b))
            if sa is None or sb is None:
                if sb is None:
                    push(b)
                if sa is None:
                    push(a)
                continue
            size[id(node)] = (1 + sa[0] + sb[0], 1 + (sa[1] if sa[1] > sb[1] else sb[1]))
            ops.append(node)
        elif kids:
            sa = size.get(id(kids[0]))
            if sa is None:
                push(kids[0])
                continue
            size[id(node)] = (1 + sa[0], 1 + sa[1])
            ops.append(node)
        else:
            size[id(node)] = (1, 1)
            if node.kind == "var":
                reg[id(node)] = node.payload - 1
                if node.payload > n_vars:
                    n_vars = node.payload
            else:
                const_nodes.append(node)
        pop()
    for i, node in enumerate(const_nodes, n_vars):
        reg[id(node)] = i
    code = []
    for dest, node in enumerate(ops, n_vars + len(const_nodes)):
        kids = node.children
        code += (_OPCODE[node.kind], reg[id(kids[0])], reg[id(kids[-1])])
        reg[id(node)] = dest
    tree, depth = size[id(root)]
    return _Program(n_vars, tuple([node.payload for node in const_nodes]), code,
                    reg[id(root)], ExprMetrics(tree, len(size), depth))


def emit_slp(expr: Expr) -> CompiledProgram:
    """Flatten an expression of either form into one instruction per
    distinct operation node, children first; leaves become operand refs."""
    return _program_of(expr).slp()


def interpret_slp(program: CompiledProgram, assignment) -> float:
    """Run a straight-line program under a {1-based index: value}
    assignment; non-finite inputs or intermediates raise ExprError. Each
    variable is converted and checked at its first reference, so errors
    surface in program order."""
    temps = []
    xs = {}
    # Operand loads are inlined: a call per operand cost more than the ops.
    for ins in program.instructions:
        code = _OPCODE.get(ins.op)
        if code is None:
            raise ExprError(f"unknown op {ins.op!r}")
        args = []
        for tag, v in ins.args:
            if tag == "t":
                args.append(temps[v])
            elif tag == "c":
                args.append(v)
            else:
                args.append(xs[v] if v in xs else xs.setdefault(v, _variable(assignment, v)))
        r = _SLP_FNS[code](args[0], args[-1])
        if not math.isfinite(r):
            raise ExprError(f"non-finite intermediate {r!r} at t{ins.dest}")
        temps.append(r)
    tag, v = program.result
    if tag == "t":
        return temps[v]
    if tag == "c":
        return v
    return xs[v] if v in xs else _variable(assignment, v)


def _variable(assignment, v: int) -> float:
    """x{v} from the assignment as a finite float."""
    try:
        val = float(assignment[v])
    except (KeyError, IndexError):
        raise ExprError(f"assignment is missing variable x{v}") from None
    if not math.isfinite(val):
        raise ExprError(f"assignment for x{v} is not finite: {val!r}")
    return val


def compile_to_pyfunc(expr: Expr):
    """Compile to a function f(values) over a 0-based sequence.

    A speed utility for drivers that evaluate one formula many times. The
    active kernel backend checks the packed program that eval_expr runs
    once, and f then runs its instructions in the same order, so results
    match eval_expr bit for bit. f converts x1..xN (N the largest variable
    index) with float() and returns a float; a missing or non-finite
    input, or a non-finite intermediate, raises ExprError, as eval_expr
    does.
    """
    program = _program_of(expr)
    return _backend.kernels().compile_slp(program.n_vars, program.consts,
                                          array("i", program.code), program.result)
