import importlib
import inspect
import itertools
import math
import random
import sys
import tracemalloc
from array import array
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ordstat
from ordstat import BudgetError, RankError, RealSequence, SequenceError, _backend
from ordstat._backend import available_backends, get_kernels
from ordstat.expr import CompiledProgram


def test_compiled_kernels_built(compiled_build_error):
    if compiled_build_error is not None:
        pytest.skip(f"compiled kernels unavailable: {compiled_build_error}")
    assert "cython" in available_backends()


def test_import_error_is_kept(monkeypatch):
    saved = dict(vars(_backend))
    monkeypatch.setitem(sys.modules, "ordstat._ckernels", None)
    monkeypatch.delattr(ordstat, "_ckernels", raising=False)
    try:
        monkeypatch.setenv("ORDSTAT_BACKEND", "cython")
        with pytest.raises(ImportError, match="ORDSTAT_BACKEND=cython .*halted"):
            importlib.reload(_backend)
        monkeypatch.delenv("ORDSTAT_BACKEND")
        importlib.reload(_backend)
        assert _backend.available_backends() == ("python",)
        assert _backend.active_backend() == "python"
        with pytest.raises(ImportError, match="halted"):
            _backend.get_kernels("cython")
    finally:
        vars(_backend).update(saved)


def test_kernels_refuse_rank_out_of_range(backend):
    kern = get_kernels(backend)
    message = r"rank -?\d+ out of range 1\.\.\d+"
    for entry in (kern.select_naive, kern.select_memo, kern.select_fullrange):
        for values, rank in (((), 1), ((1.0, 2.0), 3), ((1.0, 2.0), 0)):
            with pytest.raises(ValueError, match=message):
                entry(values, rank)


HUGE = (10**30, -10**30, 2**63)


@pytest.mark.parametrize("value", HUGE, ids=["1e30", "-1e30", "2**63"])
def test_twins_refuse_integers_past_c(backend, value):
    # An integer no C type holds gets the error its value calls for, the
    # same on both backends, not a conversion error from the C twin.
    kern = get_kernels(backend)
    for entry in (kern.select_naive, kern.select_memo, kern.select_fullrange):
        with pytest.raises(ValueError, match=f"^rank {value} out of range 1..2$"):
            entry((1.0, 2.0), value)
    code = array("i", [0, 0, 0])
    if value > 0:
        with pytest.raises(OverflowError, match="^cannot fit 'int' into an index-sized integer$"):
            kern.compile_slp(value, [], code, 1)
    else:
        with pytest.raises(ValueError, match=f"^n_vars must not be negative, got {value}$"):
            kern.compile_slp(value, [], code, 1)
    with pytest.raises(ValueError, match=f"^result register {value} out of range 0..1$"):
        kern.compile_slp(1, [], code, value)


@pytest.mark.parametrize("value", HUGE, ids=["1e30", "-1e30", "2**63"])
def test_program_refuses_integers_past_c(value):
    # CompiledProgram checks as compile_slp does.
    error = OverflowError if value > 0 else ValueError
    with pytest.raises(error):
        CompiledProgram(value, (), (0, 0, 0), 1)
    with pytest.raises(ValueError, match="result register"):
        CompiledProgram(1, (), (0, 0, 0), value)


class I:
    """An integer only through __index__, as a NumPy integer is."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_kernels_read_rank_through_index(backend):
    kern = get_kernels(backend)
    values = (3.0, 1.0, 2.0)
    for entry, want, want_min in (
            (kern.select_naive, (2.0, 4, 3), (1.0, 1, 1)),
            (kern.select_memo, (2.0, 4, 3, 0), (1.0, 1, 1, 0)),
            (kern.select_fullrange, 2.0, 1.0)):
        assert entry(values, I(2)) == want
        assert entry(values, True) == want_min
        with pytest.raises(TypeError):
            entry(values, 2.0)


def public_entries(module):
    """Public callables a module defines itself (imports excluded)."""
    return {name for name, value in vars(module).items()
            if not name.startswith("_") and callable(value)
            and not inspect.isclass(value)
            and getattr(value, "__module__", None) == module.__name__}


def test_twins_expose_the_same_entry_points(compiled_build_error):
    if compiled_build_error is not None:
        pytest.skip(f"compiled kernels unavailable: {compiled_build_error}")
    python, compiled = get_kernels("python"), get_kernels("cython")
    assert public_entries(python) == public_entries(compiled)
    assert {"select_naive", "select_memo", "select_fullrange", "normal_forms",
            "naive_ranks", "compile_slp"} <= public_entries(python)


# The FASTCALL entries and how many positional arguments each takes.
ARITY = {"select_naive": 2, "select_memo": 2, "select_fullrange": 2,
         "normal_forms": 2, "naive_ranks": 2, "real_values": 1, "compile_slp": 4}


@pytest.mark.parametrize("shift", ["none", "one-short", "one-over"])
@pytest.mark.parametrize("name", ARITY)
def test_twins_refuse_a_wrong_arity_alike(compiled_build_error, name, shift):
    # The compiled entry forwards a call with the wrong number of arguments
    # to its Python twin, so both raise the same TypeError.
    if compiled_build_error is not None:
        pytest.skip(f"compiled kernels unavailable: {compiled_build_error}")
    nargs = {"none": 0, "one-short": ARITY[name] - 1, "one-over": ARITY[name] + 1}[shift]
    args = (None,) * nargs
    want = outcome(getattr(get_kernels("python"), name), args)
    assert want is not None and want[0] is TypeError
    assert outcome(getattr(get_kernels("cython"), name), args) == want


def signed(values):
    """Floats with their signs, so that -0.0 and 0.0 compare unequal."""
    return [(v, math.copysign(1, v)) for v in values]


def full_range(xs, rank):
    """The plain full-range recursion: rank 1 is the first minimum, and
    rank n the first maximum, over deleting each position in turn, of the
    rank n - 1 values of what is left."""
    if rank == 1:
        return min(xs)
    for j in range(len(xs)):
        v = full_range(xs[:j] + xs[j + 1:], rank - 1)
        if j == 0 or v > best:
            best = v
    return best


@pytest.fixture(scope="module")
def full_range_cases():
    """(values, rank, the full-range recursion's value) for every tuple over
    {-0.0, 0.0, 1.0} up to N = 6 and every rank: 6,015 cases."""
    return [(values, rank, full_range(values, rank))
            for length in range(1, 7)
            for values in itertools.product((-0.0, 0.0, 1.0), repeat=length)
            for rank in range(1, length + 1)]


def test_fullrange_is_the_full_range_recursion(backend, full_range_cases):
    # select_fullrange runs the memo normal form, not the recursion its name
    # says; both give the same value and the same zero sign.
    select_fullrange = get_kernels(backend).select_fullrange
    assert len(full_range_cases) == 6015
    for values, rank, want in full_range_cases:
        assert signed([select_fullrange(values, rank)]) == signed([want]), (values, rank)


def assert_rank_entries_match(kern, values, orders):
    # normal_forms is select_fullrange's value, and select_memo's, at each
    # rank; naive_ranks is select_naive's, with the counters summed. Each
    # single entry runs once per distinct rank.
    full, memo, naive = {}, {}, {}
    for rank in {r for ranks in orders for r in ranks}:
        full[rank] = kern.select_fullrange(values, rank)
        memo[rank] = kern.select_memo(values, rank)[0]
        naive[rank] = kern.select_naive(values, rank)
    for ranks in orders:
        got = kern.normal_forms(values, ranks)
        assert type(got) is tuple
        assert signed(got) == signed([full[r] for r in ranks]) == signed([memo[r] for r in ranks])
        found, recursive, base = kern.naive_ranks(values, ranks)
        assert type(found) is tuple
        assert signed(found) == signed([naive[r][0] for r in ranks])
        assert recursive == sum(naive[r][1] for r in ranks)
        assert base == sum(naive[r][2] for r in ranks)


def test_rank_entries_equal_single_entries(backend):
    kern = get_kernels(backend)
    for length in range(1, 8):
        ranks = list(range(1, length + 1))
        # every rank; reversed, with the first and last twice; none
        orders = (ranks, ranks[::-1] + [1, length], ())
        for values in itertools.product((-0.0, 0.0, 1.0), repeat=length):
            assert_rank_entries_match(kern, values, orders)


def test_rank_entries_over_seeded_windows(backend):
    # Random rank subsets of long inputs with ties and signed zeros, so the
    # fold's window kmin..kmax takes every shape; naive ranks stay shallow.
    kern = get_kernels(backend)
    rng = random.Random(20130718)
    for _ in range(300):
        length = rng.randint(1, 120)
        pool = (-0.0, 0.0, 1.0, 2.0, rng.uniform(-1e6, 1e6))
        values = [rng.choice(pool) for _ in range(length)]
        ranks = [rng.randint(1, length) for _ in range(rng.randint(0, 6))]
        got = kern.normal_forms(values, ranks)
        assert signed(got) == signed([kern.select_fullrange(values, r) for r in ranks])
        shallow = [r for r in ranks if r <= 2] if length > 12 else ranks
        assert_rank_entries_match(kern, values, (shallow,))


RANK_FAULTS = {
    "above": ((1.0, 2.0), 3),
    "zero": ((1.0, 2.0), 0),
    "empty": ((), 1),
    "1e30": ((1.0, 2.0), 10**30),
    "-1e30": ((1.0, 2.0), -10**30),
    "2**63": ((1.0, 2.0), 2**63),
    "index-above": ((1.0, 2.0), I(3)),
    "index-1e30": ((1.0, 2.0), I(10**30)),
    "float": ((1.0, 2.0), 2.0),
    "values-int": (5, 1),
    "float-before-values": (5, 2.0),
}


@pytest.mark.parametrize("values,rank", RANK_FAULTS.values(), ids=RANK_FAULTS.keys())
def test_rank_entries_raise_the_single_entries_errors(backend, values, rank):
    # The fault may sit anywhere among the ranks; every rank is read before
    # values, and values before any rank's range is checked.
    kern = get_kernels(backend)
    want = outcome(kern.select_fullrange, (values, rank))
    assert want is not None
    assert want == outcome(get_kernels("python").select_fullrange, (values, rank))
    assert outcome(kern.select_naive, (values, rank)) == want
    for ranks in ((rank,), (1, rank), [rank, 1, rank], (rank,).__iter__):
        for entry in (kern.normal_forms, kern.naive_ranks):
            args = (values, ranks() if callable(ranks) else ranks)
            assert outcome(entry, args) == want, (entry, ranks)


def test_rank_entries_read_ranks_through_index(backend):
    kern = get_kernels(backend)
    values = (3.0, 1.0, 2.0)
    assert kern.normal_forms(values, (I(2), True, I(3))) == (2.0, 1.0, 3.0)
    assert kern.naive_ranks(values, [I(2), True]) == ((2.0, 1.0), 5, 4)
    for entry in (kern.normal_forms, kern.naive_ranks):
        with pytest.raises(TypeError, match="^'int' object is not iterable$"):
            entry(values, 2)
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            entry(values, (1, 2.0))


class Lying(float):
    """A float subclass with its own __float__, which a reader of the float
    itself, as PyFloat_AsDouble is, never calls."""

    def __float__(self):
        return 99.0


def typed(result):
    """A kernel's result with the type of every value in it."""
    if isinstance(result, tuple):
        return tuple(typed(v) for v in result)
    return type(result), repr(result)


# values -> what every kernel entry returns at its ranks 1 and len(values):
# the values as floats, or the error. The C twin reads values with
# PyFloat_AsDouble, and the pure-Python one must read them alike.
VALUE_READS = {
    "bool": ([True, 2], (1.0, 2.0)),
    "str": (("x",), (TypeError, "must be real number, not str")),
    "int": ((1, 2.5), (1.0, 2.5)),
    "float-subclass": ((Lying(3.0), 1.5), (1.5, 3.0)),
}


@pytest.mark.parametrize("values,want", VALUE_READS.values(), ids=VALUE_READS.keys())
def test_twins_read_values_alike(backend, values, want):
    kern = get_kernels(backend)
    top = len(values)
    if isinstance(want[0], type):
        for entry, rank in ((kern.select_naive, 1), (kern.select_memo, top),
                            (kern.select_fullrange, 1), (kern.normal_forms, (1, top)),
                            (kern.naive_ranks, (top,))):
            assert outcome(entry, (values, rank)) == want, entry
        return
    lo, hi = typed(want[0]), typed(want[-1])
    assert typed(kern.select_naive(values, 1))[0] == lo
    assert typed(kern.select_memo(values, top))[0] == hi
    assert typed(kern.select_fullrange(values, 1)) == lo
    assert typed(kern.normal_forms(values, (top, 1))) == (hi, lo)
    assert typed(kern.naive_ranks(values, (1, top))[0]) == (lo, hi)


def real_outcome(validate, make):
    """What validate(make()) returns, each value typed, or its error."""
    try:
        return typed(tuple(validate(make())))
    except Exception as exc:
        return type(exc), str(exc)


class ListOf(list):
    """A list subclass, which the compiled fast path leaves to Python."""


EDGE_FLOATS = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1.7e308, -1.7e308]
PAST_RANGE = (SequenceError, "sequence values must be finite, got a number past the float range")
EMPTY = (SequenceError, "sequence must contain at least one value")

# name -> (a function making the input, what real_values returns for it:
# typed values or the error). The inputs are made afresh for every call,
# since a generator or iterator is read only once.
REAL_INPUTS = {
    "floats-list": (lambda: list(EDGE_FLOATS), typed(tuple(EDGE_FLOATS))),
    "floats-tuple": (lambda: tuple(EDGE_FLOATS), typed(tuple(EDGE_FLOATS))),
    "list-subclass": (lambda: ListOf([2.0, -0.0]), typed((2.0, -0.0))),
    "sum-overflows": (lambda: [1.7e308, 1.7e308], typed((1.7e308, 1.7e308))),
    "bool-and-ints": (lambda: [True, 2, -3], typed((1.0, 2.0, -3.0))),
    "int-tuple": (lambda: (0, 1), typed((0.0, 1.0))),
    "int-past-float": (lambda: [1.0, 10**400], PAST_RANGE),
    "negative-int-past-float": (lambda: (-10**400,), PAST_RANGE),
    "fraction": (lambda: [Fraction(1, 3), 1.0], typed((1 / 3, 1.0))),
    # float() calls a subclass's own __float__, as RealSequence always did.
    "float-subclass": (lambda: [Lying(3.0), 1.5], typed((99.0, 1.5))),
    "numeric-string": (lambda: [" 2.5", 1.0], typed((2.5, 1.0))),
    "whole-string": (lambda: "4213", (SequenceError, "sequence must be a collection of "
                                                     "numbers, not 'str'")),
    "string": (lambda: ["x"], (ValueError, "could not convert string to float: 'x'")),
    "none": (lambda: (1.0, None), (TypeError, "float() argument must be a string or a real "
                                              "number, not 'NoneType'")),
    "not-iterable": (lambda: 5, (TypeError, "'int' object is not iterable")),
    "empty-list": (lambda: [], EMPTY),
    "empty-tuple": (lambda: (), EMPTY),
    "empty-generator": (lambda: (v for v in ()), EMPTY),
    "generator": (lambda: (float(k) for k in range(3)), typed((0.0, 1.0, 2.0))),
    "iterator": (lambda: iter([2.0, -0.0]), typed((2.0, -0.0))),
    "range": (lambda: range(3), typed((0.0, 1.0, 2.0))),
}
for _bad in (math.nan, math.inf, -math.inf):
    for _where in range(3):
        for _kind in (list, tuple):
            _values = [1.0, 2.0, 3.0]
            _values[_where] = _bad
            REAL_INPUTS[f"{_bad}-at-{_where}-{_kind.__name__}"] = (
                lambda v=_values, k=_kind: k(v),
                (SequenceError, f"sequence values must be finite, got {_bad!r}"))
    # Past the first non-finite value the message names the first one.
    REAL_INPUTS[f"{_bad}-then-nan"] = (lambda b=_bad: [1.0, b, math.nan],
                                       (SequenceError, f"sequence values must be finite, "
                                                       f"got {_bad!r}"))


@pytest.mark.parametrize("make,want", REAL_INPUTS.values(), ids=REAL_INPUTS.keys())
def test_twins_validate_sequences_alike(backend, make, want):
    # The C twin answers a list or tuple of finite floats itself and hands
    # everything else to the Python one, so both give the same values, bit
    # for bit, or the same error; RealSequence uses the active backend's.
    assert real_outcome(get_kernels(backend).real_values, make) == want
    assert real_outcome(lambda v: RealSequence(v).values, make) == want


@given(st.lists(st.floats()), st.booleans())
@settings(max_examples=300, deadline=None)
def test_twins_validate_float_lists_alike(values, as_tuple):
    # Floats of every kind, nan and both infinities included, in a list or
    # a tuple: every backend returns them bit for bit, or names the first
    # value that is not finite.
    bad = next((v for v in values if not math.isfinite(v)), None)
    if not values:
        want = EMPTY
    elif bad is not None:
        want = (SequenceError, f"sequence values must be finite, got {bad!r}")
    else:
        want = typed(tuple(values))
    seq = tuple(values) if as_tuple else values
    for name in available_backends():
        assert real_outcome(get_kernels(name).real_values, lambda: seq) == want, name


@pytest.mark.parametrize("text", ["4213", b"\x04\x02\x01\x03", bytearray(b"4213")],
                         ids=["str", "bytes", "bytearray"])
def test_text_is_no_sequence_of_numbers(backend, text):
    # Iterating text gives characters or small ints, never the numbers it
    # spells, so every public entry refuses it as a whole.
    kind = repr(type(text).__name__)
    for call in (lambda: ordstat.median(text), lambda: ordstat.select_memo(1, text),
                 lambda: ordstat.oracle_select(2, text)):
        with pytest.raises(SequenceError, match=f"^sequence must be a collection of numbers, "
                                                f"not {kind}$"):
            call()
    formula = ordstat.compile_to_pyfunc(ordstat.build_selection_expr(2, 1))
    with pytest.raises(ordstat.ExprError, match=f"^formula inputs must be a collection of "
                                                f"numbers, not {kind}$"):
        formula(text)
    with pytest.raises(ValueError, match=f"^alphabet must be a collection of numbers, "
                                         f"not {kind}$"):
        ordstat.VerifyPlan(alphabet=text)


def test_compiled_real_values_keeps_a_float_tuple(compiled_build_error):
    if compiled_build_error is not None:
        pytest.skip(f"compiled kernels unavailable: {compiled_build_error}")
    compiled = get_kernels("cython")
    values = (3.0, -0.0, 1.5)
    assert compiled.real_values(values) is values
    listed = list(values)
    copied = compiled.real_values(listed)
    assert type(copied) is tuple and copied == values
    listed.append(2.0)
    assert copied == values
    # The pure-Python twin builds a new tuple of the same floats.
    assert get_kernels("python").real_values(values) == values


ORDER_INPUTS = {"list": list, "tuple": tuple, "generator": lambda v: (x for x in v)}
ORDER_CALLS = {
    "select_naive": lambda v, r: ordstat.select_naive(r, v, budget=1),
    "select_memo": lambda v, r: ordstat.select_memo(r, v, budget=1),
    "select_fullrange": lambda v, r: ordstat.select_fullrange(r, v, budget=1),
    "select_ranks": lambda v, r: ordstat.select_ranks(v, (1, r), budget=1),
    "median": lambda v, r: ordstat.median(v, budget=1),  # its ranks are in range
}


@pytest.mark.parametrize("kind", ORDER_INPUTS)
def test_errors_keep_their_order(backend, kind):
    # A bad sequence is refused before a bad rank, and a bad rank before
    # the budget, whatever the sequence is given as.
    wrap = ORDER_INPUTS[kind]
    good, bad = [3.0, 1.0, 2.0, 5.0], [3.0, 1.0, math.nan, 5.0]
    for name, call in ORDER_CALLS.items():
        with pytest.raises(SequenceError, match="got nan"):
            call(wrap(bad), 9)
        if name != "median":
            with pytest.raises(RankError):
                call(wrap(good), 9)
        with pytest.raises(BudgetError):
            call(wrap(good), 3)


# A well-formed program, x1 + x2 - 1.0, and single faults to put in it:
# (name, the part it changes, the change). Two faults combine unless one
# part names the other or holds it ("consts" holds "consts[0]"); checks of
# one instruction's op and operands are put in different instructions.
BASE = {"n_vars": 2, "consts": [1.0], "code": [0, 0, 1, 1, 3, 2], "result": 4, "wrap": "i"}
FAULTS = [
    ("buffer", "wrap", lambda p: p.update(wrap="list")),
    ("format", "wrap", lambda p: p.update(wrap="q")),
    ("n_vars-type", "n_vars", lambda p: p.update(n_vars="2")),
    ("n_vars-overflow", "n_vars", lambda p: p.update(n_vars=10**30)),
    ("result-type", "result", lambda p: p.update(result=4.0)),
    ("consts-type", "consts", lambda p: p.update(consts=5)),
    ("const-type", "consts[0]", lambda p: p["consts"].__setitem__(0, "x")),
    ("triples", "code+", lambda p: p["code"].append(0)),
    ("n_vars-negative", "n_vars", lambda p: p.update(n_vars=-1)),
    ("const-inf", "consts[1]", lambda p: p["consts"].append(float("inf"))),
    ("too-many", "n_vars", lambda p: p.update(n_vars=2**31)),
    ("result-range", "result", lambda p: p.update(result=99)),
    ("op", "code[3]", lambda p: p["code"].__setitem__(3, 9)),
    ("operand", "code[2]", lambda p: p["code"].__setitem__(2, -1)),
]


def program(*faults):
    p = {**BASE, "consts": list(BASE["consts"]), "code": list(BASE["code"])}
    for fault in faults:
        fault(p)
    code = p["code"] if p["wrap"] == "list" else array(p["wrap"], p["code"])
    return p["n_vars"], p["consts"], code, p["result"]


class BrokenConsts:
    """Constants whose iteration fails after one that is no number."""

    def __iter__(self):
        yield "x"
        raise RuntimeError("broken constants")


TWO_FAULTS = {
    f"{a}+{b}": program(fa, fb)
    for i, (a, pa, fa) in enumerate(FAULTS) for b, pb, fb in FAULTS[i + 1:]
    if not (pa.startswith(pb) or pb.startswith(pa))}
MALFORMED = {
    **TWO_FAULTS,
    **{name: program(fault) for name, _, fault in FAULTS},
    "registers-past-int": (2**31, [], array("i"), 0),
    "format-before-overflow": (10**30, [], array("q", [0, 0, 0]), 1),
    "const-before-result": (1, ["x"], array("i", [0, 0, 0]), 5),
    "op-before-operands": (1, [], array("i", [9, 7, 7]), 1),
    "strided-code": (1, [], memoryview(array("i", [0, 5, 0, 5, 0, 5]))[::2], 9),
    "consts-read-before-converted": (2, BrokenConsts(), array("i"), 0),
}


def outcome(call, args):
    try:
        call(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("args", MALFORMED.values(), ids=MALFORMED.keys())
def test_twins_refuse_a_malformed_program_alike(args):
    # Both compile_slp twins check in one order, so each program gets one
    # error, type and message, whichever backend compiles it.
    got = {name: outcome(get_kernels(name).compile_slp, args) for name in available_backends()}
    assert got["python"] is not None
    assert len(set(got.values())) == 1, got
    # CompiledProgram checks as compile_slp does, past C's register limit.
    n_vars, consts, code, result = args
    if isinstance(code, array) and code.typecode == "i" and n_vars != 2**31:
        assert outcome(CompiledProgram, (n_vars, consts, tuple(code), result)) == got["python"]


def test_registers_past_c_ints():
    # Only compile_slp stops at C's register limit, on both backends;
    # CompiledProgram numbers any variable.
    for name in available_backends():
        compile_slp = get_kernels(name).compile_slp
        assert compile_slp(2**31 - 1, [], array("i"), 0) is not None
        with pytest.raises(ValueError, match="^too many registers$"):
            compile_slp(2**31 - 1, [1.0], array("i"), 0)
    assert CompiledProgram(2**40, (), (), 2**40 - 1).n_vars == 2**40


def test_twins_read_a_strided_code_view(backend):
    code = memoryview(array("i", [0, 5, 0, 5, 0, 5]))[::2]
    assert get_kernels(backend).compile_slp(1, [], code, 1)([2.5]) == 5.0


def test_twins_read_code_after_the_constants(backend):
    # A constant's __float__ runs before the code is read, on both backends.
    code = array("i", [0, 0, 0])

    class Rewrites:
        def __float__(self):
            code[0] = 9
            return 1.0

    with pytest.raises(ValueError, match="^instruction 0: unknown op 9$"):
        get_kernels(backend).compile_slp(1, [Rewrites()], code, 2)


def test_kernel_select_memo_twins_agree(compiled_build_error):
    # Both twins' select_memo is select_fullrange's value and the one
    # closed form's counters, past 64 bits too, and reads values once.
    if compiled_build_error is not None:
        pytest.skip(f"compiled kernels unavailable: {compiled_build_error}")
    from ordstat._pykernels import _memo_counts
    python, compiled = get_kernels("python"), get_kernels("cython")
    values = [float((k * 37) % 101) for k in range(200)]
    want = (compiled.select_fullrange(values, 100), *_memo_counts(200, 100))
    assert typed(python.select_memo(values, 100)) == typed(want)
    assert typed(compiled.select_memo(values, 100)) == typed(want)
    for kern in (python, compiled):
        assert kern.select_memo(iter(values), 100) == want
        assert kern.select_memo(iter(values[:9]), I(4)) == kern.select_memo(values[:9], 4)


READERS = ("_checked", "_packed", "_inputs")


def count_reader_calls(monkeypatch):
    """name -> calls, from now on, of each pure-Python reader that the
    compiled kernels hand input to when they do not read it themselves;
    they look each one up at call time."""
    python = get_kernels("python")
    calls = dict.fromkeys(READERS, 0)
    for name in READERS:
        def counting(*args, _read=getattr(python, name), _name=name):
            calls[_name] += 1
            return _read(*args)
        monkeypatch.setattr(python, name, counting)
    return calls


def test_package_input_stays_on_the_fast_path(compiled_build_error, monkeypatch):
    # Everything the package hands the compiled kernels is exact: floats
    # in a tuple or list, int ranks in range, a program as _compile_program
    # packs it. So no public call reaches the readers.
    if compiled_build_error is not None:
        pytest.skip(f"compiled kernels unavailable: {compiled_build_error}")
    monkeypatch.setattr(_backend, "_active", get_kernels("cython"))
    calls = count_reader_calls(monkeypatch)
    values = [3.0, 1.0, 2.0, 5.0, 4.0]
    stats = ordstat.EvalStats()
    assert ordstat.select_naive(2, values, stats) == ordstat.select_memo(2, values, stats) == 2.0
    assert ordstat.select_fullrange(2, tuple(values)) == 2.0
    for mode in ("naive", "memo", "fullrange"):
        assert ordstat.select_ranks(values, [1, 3, 5], mode=mode) == (1.0, 3.0, 5.0)
    assert ordstat.median(values) == 3.0 and ordstat.median(values[:4]) == 2.5
    assert ordstat.exhaustive_verify(ordstat.VerifyPlan(max_n=3, alphabet=(-0.0, 0.0, 1))).ok
    assert ordstat.random_verify(ordstat.VerifyPlan(max_n=6, random_trials=30, seed=3)).ok
    for form in ("minmax", "arithmetic"):
        formula = ordstat.compile_to_pyfunc(ordstat.build_selection_expr(5, 3, form))
        assert formula(values) == formula(tuple(values)) == 3.0
    assert calls == dict.fromkeys(READERS, 0)


def test_package_reaches_only_four_kernel_entries(backend, monkeypatch):
    # The single-rank entries stay for perfbench's tracer and the twin
    # tests: every public selector, both verify suites and a compiled
    # formula reach the kernels through these four.
    kern = get_kernels(backend)
    calls = set()

    class Recording:
        """The active kernels, recording every entry the package looks up."""

        def __getattr__(self, name):
            calls.add(name)
            return getattr(kern, name)

    monkeypatch.setattr(_backend, "_active", Recording())
    values = [3.0, 1.0, 2.0, 5.0, 4.0]
    for stats in (None, ordstat.EvalStats()):
        assert ordstat.select_naive(2, values, stats) == ordstat.select_memo(2, values, stats) == 2.0
        for mode in ("naive", "memo", "fullrange"):
            assert ordstat.select_ranks(values, [1, 3, 5], mode=mode, stats=stats) == (1.0, 3.0, 5.0)
        for mode in ("naive", "memo"):
            assert ordstat.median(values, mode=mode, stats=stats) == 3.0
    assert ordstat.select_fullrange(2, values) == 2.0
    assert ordstat.exhaustive_verify(ordstat.VerifyPlan(max_n=3, alphabet=(-0.0, 0.0, 1))).ok
    assert ordstat.random_verify(ordstat.VerifyPlan(max_n=6, random_trials=30, seed=3)).ok
    formula = ordstat.compile_to_pyfunc(ordstat.build_selection_expr(5, 3))
    assert formula(values) == 3.0
    assert calls == {"real_values", "normal_forms", "naive_ranks", "compile_slp"}


def reader_cases(kern):
    """name -> (the reader it goes to, a call with input the compiled fast
    path does not take, the same call on that input normalized)."""
    ints, floats = [3, 1, 2, 5], (3.0, 1.0, 2.0, 5.0)
    code = array("i", [0, 0, 1, 1, 3, 2])
    strided = memoryview(array("i", [0, -1, 0, -1, 1, -1, 1, -1, 3, -1, 2, -1]))[::2]
    formula = kern.compile_slp(2, (1.0,), code, 4)
    cases = {}
    for name, rank in (("select_naive", 2), ("select_memo", 2), ("select_fullrange", 2),
                       ("normal_forms", [2, 4]), ("naive_ranks", [2, 4])):
        entry = getattr(kern, name)
        cases[f"{name}-int-values"] = (
            "_checked", lambda e=entry, r=rank: e(ints, r), lambda e=entry, r=rank: e(floats, r))
        index = I(2) if isinstance(rank, int) else [I(2), 4]
        cases[f"{name}-index-rank"] = (
            "_checked", lambda e=entry, i=index: e(floats, i), lambda e=entry, r=rank: e(floats, r))
    cases["compile_slp-list-consts"] = (
        "_packed", lambda: kern.compile_slp(2, [1.0], code, 4)([2.5, -4.0]),
        lambda: formula([2.5, -4.0]))
    cases["compile_slp-strided-code"] = (
        "_packed", lambda: kern.compile_slp(2, (1.0,), strided, 4)([2.5, -4.0]),
        lambda: formula([2.5, -4.0]))
    cases["formula-int-values"] = ("_inputs", lambda: formula([2, -4]),
                                   lambda: formula([2.0, -4.0]))
    cases["formula-iterator"] = ("_inputs", lambda: formula(iter((2.5, -4.0))),
                                 lambda: formula((2.5, -4.0)))
    return cases


@pytest.mark.parametrize("case", sorted(reader_cases(get_kernels("python"))))
def test_other_input_is_read_once_by_the_reader(compiled_build_error, monkeypatch, case):
    # The compiled kernels hand input they do not read themselves to one
    # reader, once, and then return what the fast path returns for it.
    if compiled_build_error is not None:
        pytest.skip(f"compiled kernels unavailable: {compiled_build_error}")
    reader, other, normalized = reader_cases(get_kernels("cython"))[case]
    calls = count_reader_calls(monkeypatch)
    want = typed(normalized())
    # The compiled single-rank entries forward every call, exact ones too.
    forwarded = int(case.startswith("select_"))
    assert calls == {**dict.fromkeys(READERS, 0), reader: forwarded}
    assert typed(other()) == want
    assert calls == {**dict.fromkeys(READERS, 0), reader: forwarded + 1}


@pytest.mark.parametrize("reader", ["_packed", "_inputs"])
def test_compiled_kernels_check_what_a_reader_returns(compiled_build_error, monkeypatch, reader):
    # compile_slp and a compiled formula read a reader's result back only
    # if it has the exact form the fast path takes, so a reader that
    # returns something else raises, and reads no memory it should not.
    if compiled_build_error is not None:
        pytest.skip(f"compiled kernels unavailable: {compiled_build_error}")
    compiled = get_kernels("cython")
    code = array("i", [0, 0, 1, 1, 3, 2])
    formula = compiled.compile_slp(2, (1.0,), code, 4)
    wrong = {"_packed": (2, (1.0,), code, 5), "_inputs": [1.0]}
    call = {"_packed": lambda: compiled.compile_slp(2, [1.0], code, 4),
            "_inputs": lambda: formula([1, 2])}
    monkeypatch.setattr(get_kernels("python"), reader, lambda *args: wrong[reader])
    with pytest.raises(SystemError, match="bad argument to internal function"):
        call[reader]()


def leak_cases(kern):
    """name -> (callable, args): every entry of a kernel module, and the
    formula compile_slp returns, on a success path and its error paths.
    Values and ranks are lists, so an entry that keeps the tuple it copies
    them into grows the traced memory."""
    values = [3.0, 1.0, 2.0, 5.0]
    code = array("i", [0, 0, 1, 1, 3, 2])
    code_view = memoryview(array("i", [0, -1, 0, -1, 1, -1, 1, -1, 3, -1, 2, -1]))[::2]
    formula = kern.compile_slp(2, [1.0], code, 4)
    cases = {"compile_slp": (kern.compile_slp, (2, [1.0], code, 4)),
             "compile_slp-malformed": (kern.compile_slp, (2, [1.0], array("i", [9, 0, 1]), 3)),
             "compile_slp-const-str": (kern.compile_slp, (2, ["x"], code, 4)),
             "compile_slp-tuple-consts": (kern.compile_slp, (2, (1.0,), code, 4)),
             "compile_slp-strided-code": (kern.compile_slp, (2, (1.0,), code_view, 4)),
             "formula": (formula, ([1, 2.5],)),
             "formula-floats": (formula, ([1.5, 2.5],)),
             "formula-inf": (formula, ([math.inf, 2.5],)),
             "formula-str": (formula, ([1.5, "x"],)),
             "real_values": (kern.real_values, (values,)),
             "real_values-tuple": (kern.real_values, (tuple(values),)),
             "real_values-ints": (kern.real_values, ([3, 1, 2],)),
             "real_values-nan": (kern.real_values, ([1.0, math.nan],)),
             "real_values-empty": (kern.real_values, ([],)),
             "real_values-str": (kern.real_values, ([1.0, "x"],))}
    for name in ("select_naive", "select_memo", "select_fullrange"):
        entry = getattr(kern, name)
        cases.update({name: (entry, (values, 3)), f"{name}-rank": (entry, (values, 5)),
                      f"{name}-str": (entry, (["x", 1.0], 1)),
                      f"{name}-ints": (entry, ([3, 1, 2, 5], 3)),
                      f"{name}-index": (entry, (values, I(3)))})
    for name in ("normal_forms", "naive_ranks"):
        entry = getattr(kern, name)
        cases.update({name: (entry, (values, [3, 1, 4])),
                      f"{name}-rank": (entry, (values, [1, 5])),
                      f"{name}-str": (entry, (["x", 1.0], [1, 2])),
                      f"{name}-ints": (entry, ([3, 1, 2, 5], [3, 1, 4])),
                      f"{name}-index": (entry, (values, [I(3), 1]))})
    return cases


LEAK_CALLS = 20_000


@pytest.mark.parametrize("case", sorted(leak_cases(get_kernels("python"))))
def test_compiled_entries_keep_no_memory(compiled_build_error, case):
    # A reference lost on any path, success or error, leaks at least one
    # object per call, LEAK_CALLS of them in all, or adds LEAK_CALLS to
    # the count of an argument, of an item of one or of the error's class;
    # a sound entry's traced memory comes back to where it started.
    if compiled_build_error is not None:
        pytest.skip(f"compiled kernels unavailable: {compiled_build_error}")
    call, args = leak_cases(get_kernels("cython"))[case]
    raised = set()

    def run(times):
        for _ in range(times):
            try:
                call(*args)
            except (TypeError, ValueError) as exc:
                raised.add(type(exc))

    tracemalloc.start()
    try:
        # The interpreter's free lists and caches fill up, traced, first.
        run(LEAK_CALLS // 4)
        held = [*args, *raised,
                *(item for arg in args if isinstance(arg, list) for item in arg)]
        refs = [sys.getrefcount(obj) for obj in held]
        before = tracemalloc.get_traced_memory()[0]
        run(LEAK_CALLS)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < LEAK_CALLS, f"{case}: {grown} bytes more after {LEAK_CALLS} calls"
    # Other code may hold a small int for a while, but not LEAK_CALLS times.
    assert max(sys.getrefcount(obj) - ref for obj, ref in zip(held, refs)) < 1000
