import builtins
import functools
import gc
import hashlib
import itertools
import math
import random
import struct
import sys
import threading
from array import array
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ordstat as o
from ordstat import BudgetError, ExprError, RankError, TextParseError
from ordstat import expr as expr_module
from ordstat._backend import active_backend, available_backends, get_kernels, set_backend
from ordstat._pykernels import SLP_OPS
from ordstat.expr import Expr

x1, x2, x3 = o.var(1), o.var(2), o.var(3)

finite = st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False)


_BINARY = st.sampled_from(["add", "sub", "min", "max"])
_UNARY = st.sampled_from(["abs", "halve"])
formulas = st.recursive(
    st.one_of(st.integers(1, 12).map(o.var),
              st.floats(allow_nan=False, allow_infinity=False).map(o.const)),
    lambda kids: st.one_of(
        st.builds(lambda kind, a, b: Expr(kind, None, (a, b)), _BINARY, kids, kids),
        st.builds(lambda kind, a: Expr(kind, None, (a,)), _UNARY, kids)),
    max_leaves=10)


def min2_arith():
    return o.halve(o.sub(o.add(x1, x2), o.abs_of(o.sub(x1, x2))))


class TestConstruction:
    def test_unknown_kind(self):
        with pytest.raises(ExprError):
            Expr("mul", None, (x1, x2))

    def test_wrong_arity(self):
        with pytest.raises(ExprError):
            Expr("add", None, (x1,))
        with pytest.raises(ExprError):
            Expr("abs", None, (x1, x2))

    def test_var_payload_validation(self):
        with pytest.raises(ExprError):
            o.var(0)
        with pytest.raises(ExprError):
            Expr("var", "x")

    def test_var_payload_is_an_int(self):
        # The payload is stored as an int: True and 1.0 name the node x1.
        for index in (True, 1.0):
            node = Expr("var", index)
            assert type(node.payload) is int and node.payload == 1
            assert node is o.var(1)
        with pytest.raises(ExprError, match="must be an integer"):
            Expr("var", 1.5)

    def test_const_must_be_finite(self):
        with pytest.raises(ExprError):
            o.const(float("inf"))
        with pytest.raises(ExprError):
            o.const(float("nan"))

    def test_children_must_be_exprs(self):
        with pytest.raises(ExprError):
            o.add(x1, 3)

    def test_structural_equality_and_hash(self):
        a = o.add(o.var(1), o.var(2))
        b = o.add(o.var(1), o.var(2))
        assert a == b and hash(a) == hash(b)
        assert a != o.add(x2, x1)
        assert a != o.sub(x1, x2)
        assert o.const(2) == o.const(2.0)
        assert o.var(1) != o.const(1.0)


class TestInterning:
    def test_equal_nodes_are_one_object(self):
        assert o.add(x1, x2) is o.add(x1, x2)
        assert o.const(2) is o.const(2.0)

    def test_lowering_shares_the_difference(self):
        low = o.lower_minmax_to_arith(o.min_of(x1, x2))
        assert low.children[0].children[1].children[0] is o.sub(x1, x2)
        # x1, x2, add, sub(x1, x2), abs, the outer sub, halve
        assert o.metrics_of(low).node_count_dag == 7

    def test_dropped_graph_leaves_the_table(self):
        gc.collect()
        before = len(expr_module._INTERNED)
        e = o.build_selection_expr(9, 5, "arithmetic")
        assert len(expr_module._INTERNED) > before
        del e
        gc.collect()
        assert len(expr_module._INTERNED) == before

    def test_dropped_graph_leaves_the_table_without_collector(self):
        # Every stage, the program kept on each root and the compiled
        # callables included, must let the graph go by reference counts.
        gc.collect()
        gc.disable()
        try:
            before = len(expr_module._INTERNED)
            e = o.build_selection_expr(9, 5, "arithmetic")
            assert len(expr_module._INTERNED) > before
            del e
            assert len(expr_module._INTERNED) == before

            tree = o.build_selection_expr(9, 5, "minmax")
            root, _ = o.cse(o.lower_minmax_to_arith(tree))
            o.emit_slp(root)
            o.emit_slp(tree)
            fns = []
            previous = active_backend()
            try:
                for name in available_backends():
                    set_backend(name)
                    fns += [o.compile_to_pyfunc(root), o.compile_to_pyfunc(tree)]
            finally:
                set_backend(previous)
            xs = [float(v) for v in range(9, 0, -1)]
            assert o.eval_expr(root, dict(enumerate(xs, 1))) == 5.0
            assert [fn(xs) for fn in fns] == [5.0] * len(fns)
            assert len(expr_module._INTERNED) > before
            del tree, root, fns
            assert len(expr_module._INTERNED) == before
        finally:
            gc.enable()

    def test_one_walk_per_root(self, monkeypatch):
        # Every reader of a graph reads the root's program, so each root is
        # walked once, by the first reader, however many readers follow.
        # The lowered root gets its program from the lowering: no walk.
        walks = []
        real = expr_module._build_program
        monkeypatch.setattr(expr_module, "_build_program", lambda r: walks.append(r) or real(r))
        tree = o.build_selection_expr(7, 4, "minmax")
        arith = o.lower_minmax_to_arith(tree)
        xs = [4.0, 7.0, 1.0, 3.0, 6.0, 2.0, 5.0]
        for root, form in ((tree, "minmax"), (arith, "arithmetic")):
            first = o.emit_slp(root).to_text()
            texts = [o.emit_text(root, syntax) for syntax in ("infix", "sexpr")]
            _, metrics = o.cse(root)
            fn = o.compile_to_pyfunc(root)
            assert o.lower_minmax_to_arith(root) is arith
            assert o.metrics_of(root) == metrics
            assert o.contains_minmax(root) is (form == "minmax")
            assert [o.emit_text(root, syntax) for syntax in ("infix", "sexpr")] == texts
            assert o.emit_slp(root).to_text() == first
            assert o.eval_expr(root, dict(enumerate(xs, 1))) == fn(xs) == 4.0
        assert [id(r) for r in walks] == [id(tree)]

    def test_threads_share_one_node_per_structure(self):
        # Six threads build, drop and rebuild the same formulas, with a
        # thread switch after almost every bytecode, so nodes die and are
        # interned again concurrently. No weakref callback may fail, and a
        # root built while another thread holds an equal one must be it.
        shapes = [(n, r) for n in range(1, 7) for r in range(1, n + 1)]
        roots = [None] * 6
        unraisable = []

        def work(k):
            for _ in range(60):
                for shape in shapes:
                    o.build_selection_expr(*shape)
            roots[k] = {shape: o.build_selection_expr(*shape) for shape in shapes}

        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        hook, interval = sys.unraisablehook, sys.getswitchinterval()
        sys.unraisablehook = unraisable.append
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
            sys.unraisablehook = hook
        assert not any(t.is_alive() for t in threads)
        assert [repr(u.exc_value) for u in unraisable] == []
        for shape in shapes:
            assert all(r[shape] is roots[0][shape] for r in roots), shape

    def test_negative_zero_constant_keeps_its_sign(self):
        zero = o.const(0.0)
        neg = o.const(-0.0)
        assert math.copysign(1.0, neg.payload) < 0
        assert math.copysign(1.0, zero.payload) > 0

    def test_cse_keeps_signed_zeros_apart(self):
        root, _ = o.cse(o.add(o.const(0.0), o.const(-0.0)))
        lhs, rhs = root.children
        assert math.copysign(1.0, lhs.payload) > 0
        assert math.copysign(1.0, rhs.payload) < 0


class TestBuildSelection:
    def test_single_variable_either_form(self):
        assert o.build_selection_expr(1, 1, "minmax") == x1
        assert o.build_selection_expr(1, 1, "arithmetic") == x1

    def test_min_of_two_arithmetic_structure(self):
        assert o.build_selection_expr(2, 1, "arithmetic") == min2_arith()

    def test_second_of_three_minmax_structure(self):
        expected = o.max_of(o.max_of(o.min_of(x2, x3), o.min_of(x1, x3)),
                            o.min_of(x1, x2))
        assert o.build_selection_expr(3, 2, "minmax") == expected

    def test_form_kind_discipline(self):
        mm = o.build_selection_expr(4, 2, "minmax")
        assert o.contains_minmax(mm)
        ar = o.build_selection_expr(4, 2, "arithmetic")
        assert not o.contains_minmax(ar)

    def test_rank_and_form_validation(self):
        with pytest.raises(RankError):
            o.build_selection_expr(3, 4)
        with pytest.raises(RankError):
            o.build_selection_expr(3, 0)
        with pytest.raises(ExprError):
            o.build_selection_expr(3, 2, "polynomial")

    @pytest.mark.parametrize("make,error", [
        (lambda: o.build_selection_expr(3.7, 2), o.SequenceError),
        (lambda: o.build_selection_expr("3", 2), o.SequenceError),
        (lambda: o.var(2.7), ExprError),
        (lambda: o.var("3"), ExprError),
    ], ids=["n_vars-3.7", "n_vars-str", "var-2.7", "var-str"])
    def test_counts_must_be_integers(self, make, error):
        with pytest.raises(error, match="must be an integer"):
            make()
        assert o.build_selection_expr(3.0, 2) is o.build_selection_expr(3, 2)
        assert o.var(2.0) is x2

    def test_budget_refusals(self):
        with pytest.raises(BudgetError):
            o.build_selection_expr(30, 15)
        # call count is fine for rank 2 of many variables, but the graph
        # itself would be quadratic in the variable count
        with pytest.raises(BudgetError):
            o.build_selection_expr(100_000, 2)

    def test_is_the_recursion_node_for_node(self):
        # The paper's recursion, built the plain way over survivor tuples:
        # rank 1 is a left min chain, rank m a max over the first
        # len(S) - m + 2 single deletions. Interning makes "the same
        # formula" mean "the same node".
        @functools.lru_cache(maxsize=None)
        def recursion(survivors, m):
            if m == 1:
                return functools.reduce(o.min_of, map(o.var, survivors))
            return functools.reduce(o.max_of, [
                recursion(survivors[:i] + survivors[i + 1:], m - 1)
                for i in range(len(survivors) - m + 2)])

        for n_vars in range(1, 10):
            for rank in range(1, n_vars + 1):
                assert o.build_selection_expr(n_vars, rank) is \
                    recursion(tuple(range(1, n_vars + 1)), rank), (n_vars, rank)

    @pytest.mark.parametrize("n_vars,rank", [(n, r) for n in range(1, 7)
                                             for r in range(1, n + 1)])
    def test_evaluates_to_selection(self, n_vars, rank):
        rng = random.Random(1000 * n_vars + rank)
        fn = o.compile_to_pyfunc(o.build_selection_expr(n_vars, rank, "minmax"))
        for _ in range(25):
            xs = [rng.uniform(-100, 100) for _ in range(n_vars)]
            assert fn(xs) == o.select_naive(rank, xs)


def fields(program):
    """A program's fields, constants with their signs."""
    return (program.n_vars, [(v, math.copysign(1.0, v)) for v in program.consts],
            program.code, program.result)


def reference_lowering(root):
    """The lowered graph, node by node from the root down, without any
    program: min(a, b) -> ((a + b) - |a - b|)/2, max alike with +."""
    @functools.cache
    def low(node):
        kids = [low(kid) for kid in node.children]
        if node.kind in ("min", "max"):
            a, b = kids
            join = o.sub if node.kind == "min" else o.add
            return o.halve(join(o.add(a, b), o.abs_of(o.sub(a, b))))
        return Expr(node.kind, node.payload, kids)
    return low(root)


def reference_metrics(root):
    """Tree size, distinct nodes and depth, counted on the nodes."""
    @functools.cache
    def size(node):
        return 1 + sum(size(kid) for kid in node.children)

    @functools.cache
    def depth(node):
        return 1 + max(map(depth, node.children), default=0)

    seen = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            stack.extend(node.children)
    return o.ExprMetrics(size(root), len(seen), depth(root))


def mixed_graph(rng, pre_lower):
    """A random graph over min/max and the arithmetic ops, with signed
    zeros, a variable index past 32 bits and shared subgraphs. With
    `pre_lower`, lowered forms of some of its min/max nodes, and their
    parts, are built into it before anything is lowered."""
    pool = [o.var(i) for i in rng.sample([1, 2, 3, 2**40], 2)]
    pool += [o.const(v) for v in rng.sample([0.0, -0.0, 1.5, -2.0], 2)]
    for _ in range(rng.randint(1, 10)):
        kind = rng.choice(SLP_OPS)
        kids = [rng.choice(pool) for _ in range(1 if kind in ("abs", "halve") else 2)]
        node = Expr(kind, None, kids)
        pool.append(node)
        if pre_lower and kind in ("min", "max") and rng.random() < 0.5:
            pool.append(rng.choice([reference_lowering(node), o.sub(*kids), o.add(*kids)]))
    return pool[-1]


class TestLowering:
    def test_lowered_program_is_the_lowered_graphs(self):
        # _lower_program gives, register for register, the program a walk
        # of the lowered graph gives, and the root it keeps is measured
        # as a count on its nodes is.
        shapes = [o.build_selection_expr(n, r) for n in range(1, 10) for r in range(1, n + 1)]
        rng = random.Random(53)
        shapes += [mixed_graph(rng, pre_lower=i % 2) for i in range(3000)]
        for e in shapes:
            lowered = expr_module._lower_program(expr_module._program_of(e))
            low = o.lower_minmax_to_arith(e)
            assert low is reference_lowering(e)
            built = expr_module._build_program(low)
            assert fields(lowered) == fields(built), o.emit_text(e)
            assert o.metrics_of(low) == reference_metrics(low), o.emit_text(e)
            assert o.metrics_of(e) == reference_metrics(e), o.emit_text(e)
            assert o.emit_slp(low) == built

    def test_lowering_after_its_parts_were_built(self):
        # The lowered graph of min(x1, x2) exists before the lowering, so
        # the two min/max nodes below lower to one register each.
        pre = min2_arith()
        e = o.max_of(o.min_of(x1, x2), o.add(pre, o.sub(x1, x2)))
        lowered = expr_module._lower_program(expr_module._program_of(e))
        assert lowered.to_text() == (
            "t0 = add x1 x2\n"
            "t1 = sub x1 x2\n"
            "t2 = abs t1\n"
            "t3 = sub t0 t2\n"
            "t4 = halve t3\n"
            "t5 = add t4 t1\n"
            "t6 = add t4 t5\n"
            "t7 = sub t4 t5\n"
            "t8 = abs t7\n"
            "t9 = add t6 t8\n"
            "t10 = halve t9\n"
            "result t10")
        assert fields(lowered) == fields(expr_module._build_program(o.lower_minmax_to_arith(e)))

    def test_min_pair_shape(self):
        assert o.lower_minmax_to_arith(o.min_of(x1, x2)) == min2_arith()

    def test_max_pair_shape(self):
        expected = o.halve(o.add(o.add(x1, x2), o.abs_of(o.sub(x1, x2))))
        assert o.lower_minmax_to_arith(o.max_of(x1, x2)) == expected

    def test_identity_without_minmax(self):
        assert o.lower_minmax_to_arith(x1) == x1
        e = o.halve(o.abs_of(o.sub(x1, o.const(3))))
        assert o.lower_minmax_to_arith(e) == e

    def test_exact_on_moderate_integers(self):
        rng = random.Random(7)
        mm = o.build_selection_expr(5, 3, "minmax")
        ar = o.lower_minmax_to_arith(mm)
        f_mm, f_ar = o.compile_to_pyfunc(mm), o.compile_to_pyfunc(ar)
        for _ in range(300):
            xs = [float(rng.randint(-2 ** 40, 2 ** 40)) for _ in range(5)]
            assert f_ar(xs) == f_mm(xs)

    @given(st.lists(finite, min_size=4, max_size=4))
    @settings(max_examples=150)
    def test_agrees_within_tolerance_on_floats(self, xs):
        mm = o.build_selection_expr(4, 2, "minmax")
        ar = o.lower_minmax_to_arith(mm)
        scale = max(1.0, max(abs(v) for v in xs))
        diff = abs(o.compile_to_pyfunc(ar)(xs) - o.compile_to_pyfunc(mm)(xs))
        assert diff <= 1e-9 * scale


class TestCse:
    def test_min3_shares_repeated_abs(self):
        root, m = o.cse(o.build_selection_expr(3, 1, "arithmetic"))
        assert m.node_count_dag < m.node_count_tree
        assert (m.node_count_tree, m.node_count_dag) == (25, 13)

    def test_var_unchanged(self):
        root, m = o.cse(x1)
        assert root == x1
        assert m == o.ExprMetrics(1, 1, 1)

    def test_shared_nodes_are_one_object(self):
        # two structurally equal subtrees collapse to one object
        e = o.add(o.sub(x1, x2), o.sub(x1, x2))
        root, m = o.cse(e)
        assert root.children[0] is root.children[1]
        assert m.node_count_tree == 7 and m.node_count_dag == 4

    def test_evaluation_invariant(self):
        rng = random.Random(11)
        e = o.build_selection_expr(5, 2, "arithmetic")
        shared, _ = o.cse(e)
        for _ in range(200):
            assignment = {k: rng.uniform(-50, 50) for k in range(1, 6)}
            assert o.eval_expr(shared, assignment) == o.eval_expr(e, assignment)

    def test_metrics_depth(self):
        assert o.metrics_of(o.add(x1, o.add(x2, x3))).depth == 3
        assert o.metrics_of(x1).depth == 1


class TestEval:
    def test_known_values(self):
        assert o.eval_expr(min2_arith(), {1: 1, 2: 2}) == 1
        assert o.eval_expr(x1, {1: 42}) == 42
        mm = o.build_selection_expr(3, 2, "minmax")
        assert o.eval_expr(mm, {1: 5, 2: 1, 3: 9}) == 5

    def test_const_and_halve(self):
        assert o.eval_expr(o.halve(o.const(3)), {}) == 1.5

    def test_missing_variable(self):
        with pytest.raises(ExprError):
            o.eval_expr(o.add(x1, x2), {1: 1.0})

    def test_non_finite_assignment(self):
        with pytest.raises(ExprError):
            o.eval_expr(x1, {1: float("nan")})

    def test_non_finite_intermediate_reported(self):
        big = o.const(1e308)
        with pytest.raises(ExprError, match="non-finite intermediate"):
            o.eval_expr(o.add(big, big), {})

    def test_sequence_assignment_accepted(self):
        # 1-based lookups also work against 1-based mappings only; a dict
        # is the documented interface, but index-like access must not
        # silently misalign
        assert o.eval_expr(o.add(x1, x2), {1: 3, 2: 4}) == 7


class TestEmitText:
    def test_golden_infix(self):
        assert o.emit_text(o.build_selection_expr(2, 1, "arithmetic")) == \
            "((x1 + x2) - |x1 - x2|)/2"

    def test_golden_sexpr_var(self):
        assert o.emit_text(o.var(3), "sexpr") == "(var 3)"

    def test_minmax_braces(self):
        assert o.emit_text(o.min_of(x1, x2)) == "min{x1, x2}"
        assert o.emit_text(o.max_of(o.min_of(x1, x2), x3)) == "max{min{x1, x2}, x3}"

    def test_abs_keeps_parens_for_non_chain_child(self):
        assert o.emit_text(o.abs_of(x1)) == "|x1|"
        assert o.emit_text(o.abs_of(o.halve(x1))) == "|x1/2|"
        assert o.emit_text(o.abs_of(o.abs_of(o.sub(x1, x2)))) == "||x1 - x2||"

    def test_halve_chains(self):
        assert o.emit_text(o.halve(o.halve(x1))) == "x1/2/2"
        assert o.emit_text(o.halve(o.min_of(x1, x2))) == "min{x1, x2}/2"

    def test_const_rendering(self):
        assert o.emit_text(o.const(5)) == "5"
        assert o.emit_text(o.const(2.5)) == "2.5"
        assert o.emit_text(o.const(-3)) == "-3"

    def test_negative_zero_rendering(self):
        assert o.format_real(-0.0) == "-0"
        assert o.format_real(0.0) == "0"

    @pytest.mark.parametrize("syntax", ["infix", "sexpr"])
    def test_negative_zero_round_trip(self, syntax):
        neg = o.const(-0.0)
        assert o.parse_text(o.emit_text(neg, syntax), syntax) is neg

    def test_bad_syntax(self):
        with pytest.raises(ExprError):
            o.emit_text(x1, "latex")

    def test_deterministic(self):
        e = o.build_selection_expr(4, 2, "arithmetic")
        assert o.emit_text(e) == o.emit_text(e)

    def test_oversized_text_refused_before_rendering(self, monkeypatch):
        # The (16, 8) formula is 96,389 graph nodes but 179,999,999 tree
        # nodes of text: the default budget refuses it before any is made.
        monkeypatch.delenv(o.BUDGET_ENV_VAR, raising=False)
        e = o.build_selection_expr(16, 8, budget=10**9)

        class NoRendering(dict):
            def __getitem__(self, syntax):
                raise AssertionError("emit_text began rendering")

        monkeypatch.setattr(expr_module, "_SYNTAX", NoRendering(expr_module._SYNTAX))
        for syntax in ("infix", "sexpr"):
            with pytest.raises(BudgetError, match="^formula text of 179999999 tree nodes "
                                                  "is over the budget of 16777216$"):
                o.emit_text(e, syntax)
        monkeypatch.setenv(o.BUDGET_ENV_VAR, "10")
        with pytest.raises(BudgetError, match="over the budget of 10$"):
            o.emit_text(o.build_selection_expr(4, 2, budget=100))
        with pytest.raises(ExprError):
            o.emit_text(e, "latex")


class TestParseText:
    @pytest.mark.parametrize("n_vars,rank", [(1, 1), (2, 2), (3, 2), (4, 3), (5, 2)])
    @pytest.mark.parametrize("form", ["minmax", "arithmetic"])
    @pytest.mark.parametrize("syntax", ["infix", "sexpr"])
    def test_round_trip_selection_formulas(self, n_vars, rank, form, syntax):
        e = o.build_selection_expr(n_vars, rank, form)
        assert o.parse_text(o.emit_text(e, syntax), syntax) == e

    @pytest.mark.parametrize("syntax", ["infix", "sexpr"])
    def test_round_trip_handcrafted(self, syntax):
        exprs = [
            x1,
            o.const(-2.5),
            o.halve(o.halve(o.abs_of(o.sub(x1, o.const(3))))),
            o.add(o.sub(x1, x2), o.abs_of(o.add(x1, o.min_of(x2, x3)))),
            o.max_of(o.halve(x1), o.abs_of(o.abs_of(o.sub(x1, x2)))),
        ]
        for e in exprs:
            assert o.parse_text(o.emit_text(e, syntax), syntax) == e

    def test_nested_bars_disambiguated(self):
        e = o.abs_of(o.sub(x1, o.abs_of(o.sub(x2, x3))))
        text = o.emit_text(e)
        assert text == "|x1 - |x2 - x3||"
        assert o.parse_text(text) == e

    def test_whitespace_tolerated(self):
        assert o.parse_text("( x1+x2 )") == o.add(x1, x2)

    @pytest.mark.parametrize("bad", [
        "", "x1 +", "min{x1 x2}", "(x1", "x1)", "|x1", "x1/3", "x1//2",
        "min{x1, x2", "1.2.3", "x1 x2", "foo", "(var x)", "x0",
        "1e999", "-1e999", "x1 + 1e400",
        pytest.param("(" * 400 + "x1" + ")" * 400, id="400-nested-parens"),
    ])
    def test_infix_rejects(self, bad):
        with pytest.raises(TextParseError):
            o.parse_text(bad)

    @pytest.mark.parametrize("bad", [
        "", "(var)", "(var 1.5)", "(mul (var 1) (var 2))", "(add (var 1))",
        "(var 1) extra", "((var 1))", "(var", "(const", "(var 0)", "(var 00)",
        "(const 1e999)", "(const nan)", "(const -inf)", "(const x)", "(var \u00b2)",
        pytest.param("(abs " * 2000 + "(var 1)" + ")" * 2000, id="2000-nested-abs"),
    ])
    def test_sexpr_rejects(self, bad):
        with pytest.raises(TextParseError):
            o.parse_text(bad, "sexpr")

    @settings(max_examples=60, deadline=None)
    @given(formulas, st.sampled_from(["infix", "sexpr"]))
    def test_every_prefix_parses_or_raises_text_parse_error(self, e, syntax):
        text = o.emit_text(e, syntax)
        assert o.parse_text(text, syntax) is e
        for end in range(len(text)):
            try:
                o.parse_text(text[:end], syntax)
            except TextParseError:
                pass

    @pytest.mark.parametrize("syntax", ["Infix", "json", None, ["infix"]],
                             ids=["Infix", "json", "None", "unhashable"])
    def test_unknown_syntax_raises_expr_error(self, syntax):
        with pytest.raises(ExprError, match="^syntax must be 'infix' or 'sexpr'"):
            o.parse_text("x1", syntax)

    def test_deep_nesting_parses(self):
        # One frame per s-expression level and three per infix level reach
        # these depths under the default recursion limit; a parser that
        # spent more frames per level would refuse them.
        assert o.parse_text("(" * 250 + "x1" + ")" * 250) is x1
        nested = functools.reduce(lambda e, _: o.abs_of(e), range(800), x1)
        assert o.parse_text("(abs " * 800 + "(var 1)" + ")" * 800, "sexpr") is nested

    def test_scientific_notation(self):
        assert o.parse_text("1e-05") == o.const(1e-05)
        assert o.parse_text(o.emit_text(o.const(1.5e300))) == o.const(1.5e300)


class TestSlp:
    def test_min2_instruction_sequence(self):
        prog = o.emit_slp(o.build_selection_expr(2, 1, "arithmetic"))
        assert [ins.op for ins in prog.instructions] == \
            ["add", "sub", "abs", "sub", "halve"]
        assert prog.result == 2 + 4  # t4, after the registers of x1 and x2

    def test_leaf_program(self):
        prog = o.emit_slp(x1)
        assert prog.instructions == ()
        assert prog.to_text() == "result x1"

    def test_text_format(self):
        prog = o.emit_slp(o.build_selection_expr(2, 1, "arithmetic"))
        assert prog.to_text() == (
            "t0 = add x1 x2\n"
            "t1 = sub x1 x2\n"
            "t2 = abs t1\n"
            "t3 = sub t0 t2\n"
            "t4 = halve t3\n"
            "result t4"
        )

    def test_index_past_32_bits_is_listed_and_measured(self):
        e = o.add(o.var(2**40), o.const(1.0))
        assert o.emit_slp(e).to_text() == "t0 = add x1099511627776 1\nresult t0"
        assert o.metrics_of(e) == o.ExprMetrics(3, 3, 2)
        assert not o.contains_minmax(e)
        assert o.eval_expr(e, {2**40: 1.5}) == 2.5
        assert o.emit_text(e) == "(x1099511627776 + 1)"
        assert o.emit_text(e, "sexpr") == "(add (var 1099511627776) (const 1))"
        assert o.lower_minmax_to_arith(e) is e
        low = o.lower_minmax_to_arith(o.max_of(o.var(2**40), o.const(1.0)))
        assert o.emit_text(low) == \
            "((x1099511627776 + 1) + |x1099511627776 - 1|)/2"

    def test_negative_zero_operand_text(self):
        prog = o.emit_slp(o.add(x1, o.const(-0.0)))
        assert prog.to_text() == "t0 = add x1 -0\nresult t0"

    def test_single_assignment_in_dependency_order(self):
        prog = o.emit_slp(o.build_selection_expr(5, 3, "arithmetic"))
        seen = set()
        for ins in prog.instructions:
            assert ins.dest not in seen
            for tag, ref in ins.args:
                if tag == "t":
                    assert ref in seen
            seen.add(ins.dest)

    def test_minmax_program_matches_compiled(self):
        rng = random.Random(29)
        e = o.build_selection_expr(5, 3, "minmax")
        prog = o.emit_slp(e)
        assert {"min", "max"} <= {ins.op for ins in prog.instructions}
        fn = o.compile_to_pyfunc(e)
        for _ in range(200):
            xs = [rng.uniform(-1000, 1000) for _ in range(5)]
            named = {k + 1: v for k, v in enumerate(xs)}
            assert o.interpret_slp(prog, named) == fn(xs)

    def test_interpret_matches_eval(self):
        rng = random.Random(23)
        e = o.build_selection_expr(5, 2, "arithmetic")
        prog = o.emit_slp(e)
        for _ in range(200):
            xs = {k: rng.uniform(-1000, 1000) for k in range(1, 6)}
            assert o.interpret_slp(prog, xs) == o.eval_expr(e, xs)

    def test_interpret_missing_variable(self):
        prog = o.emit_slp(o.add(x1, x2))
        with pytest.raises(ExprError):
            o.interpret_slp(prog, {1: 1.0})

    @pytest.mark.parametrize("code,result,assignment,message", [
        # t0 overflows before t1 reads the missing x2
        ([("add", "x1", "x1"), ("add", "t0", "x2")], ("t", 1), {1: 1e308},
         "non-finite intermediate inf at t0"),
        # t0 reads the missing x2 before t1 overflows
        ([("add", "x2", "x2"), ("add", "x1", "x1")], ("t", 1), {1: 1e308},
         "missing variable x2"),
        # operands load left to right
        ([("add", "x1", "x2")], ("t", 0), {1: math.nan}, "x1 is not finite: nan"),
        ([("add", "x1", "x2")], ("t", 0), {2: math.nan}, "missing variable x1"),
        # the result is loaded after every instruction ran
        ([("add", "x1", "x1")], ("x", 3), {1: 1e308}, "non-finite intermediate inf at t0"),
        ([("add", "x1", "x1")], ("x", 3), {1: 1.0}, "missing variable x3"),
    ])
    def test_interpret_first_error_in_program_order(self, code, result, assignment, message):
        # Three variable registers, then the temps.
        reg = {"x1": 0, "x2": 1, "x3": 2, "t0": 3, "t1": 4}
        packed = [r for op, a, b in code for r in (SLP_OPS.index(op), reg[a], reg[b])]
        tag, index = result
        with pytest.raises(ExprError, match=message):
            o.interpret_slp(o.CompiledProgram(3, (), packed, reg[f"{tag}{index}"]), assignment)

    def test_interpret_refuses_other_programs(self):
        prog = o.emit_slp(o.add(x1, x2))
        for other in (prog.instructions, (prog.n_vars, prog.consts, prog.code, prog.result)):
            with pytest.raises(TypeError, match="program must be a CompiledProgram"):
                o.interpret_slp(other, {1: 1.0, 2: 2.0})

    def test_assignment_must_be_a_mapping(self):
        # A sequence would be read from index 1 on, one place off.
        e = o.sub(x1, x2)
        for assignment in ([5.0, 6.0, 7.0], (5.0, 6.0, 7.0), "567"):
            for run in (o.eval_expr, lambda e, a: o.interpret_slp(o.emit_slp(e), a)):
                with pytest.raises(TypeError, match="assignment must be a mapping, not"):
                    run(e, assignment)
        assert o.eval_expr(e, {1: 5.0, 2: 6.0, 3: 7.0}) == -1.0

    def test_no_listing_is_built(self, backend, monkeypatch):
        # The SlpInstruction listing is a view: only reading `instructions`
        # builds it, and it is the listing emit_slp used to return.
        built = []
        init = o.SlpInstruction.__init__
        monkeypatch.setattr(o.SlpInstruction, "__init__",
                            lambda self, *args: built.append(args) or init(self, *args))
        e = o.build_selection_expr(5, 3, "arithmetic")
        xs = [4.0, -2.5, 7.0, 0.0, 1e3]
        prog = o.emit_slp(e)
        assert o.emit_slp(e) is prog
        assert o.eval_expr(e, dict(enumerate(xs, 1))) == 4.0
        assert o.interpret_slp(prog, dict(enumerate(xs, 1))) == 4.0
        assert o.compile_to_pyfunc(e)(xs) == 4.0
        assert hashlib.sha256(prog.to_text().encode()).hexdigest() == \
            "ece77092eb5d7c3d56b6fa6a266a14c1ff544ee39ff13d46187e076e740d7445"
        assert built == []
        listing = prog.instructions
        assert len(built) == len(listing) == 155
        assert listing[:3] == (o.SlpInstruction(0, "add", (("x", 3), ("x", 4))),
                               o.SlpInstruction(1, "sub", (("x", 3), ("x", 4))),
                               o.SlpInstruction(2, "abs", (("t", 1),)))
        assert hashlib.sha256(repr(listing).encode()).hexdigest() == \
            "323546bdba5a519e9c8378ae26f46647aa3107591ff0b089bd522c2f84818d26"

    def test_interpret_reads_each_variable_once(self):
        class Counting(dict):
            def __getitem__(self, key):
                reads.append(key)
                return super().__getitem__(key)

        reads = []
        e = o.build_selection_expr(4, 2, "arithmetic")
        assert o.interpret_slp(o.emit_slp(e), Counting({1: 3.0, 2: 1.0, 3: 4.0, 4: 2.0})) == 2.0
        assert sorted(reads) == [1, 2, 3, 4]
        reads.clear()
        assert o.eval_expr(e, Counting({1: 3.0, 2: 1.0, 3: 4.0, 4: 2.0})) == 2.0
        assert sorted(reads) == [1, 2, 3, 4]

    @pytest.mark.parametrize("e,assignment,message", [
        # t0 overflows before t1 reads the missing x2
        (o.add(o.add(x1, x1), x2), {1: 1e308}, "non-finite intermediate inf at t0"),
        # t0 reads the missing x2 before t1 overflows
        (o.add(o.add(x2, x2), o.add(x1, x1)), {1: 1e308}, "missing variable x2"),
        # operands load left to right
        (o.add(x1, x2), {1: math.nan}, "x1 is not finite: nan"),
        (o.add(x1, x2), {2: math.nan}, "missing variable x1"),
    ])
    def test_eval_expr_first_error_in_program_order(self, e, assignment, message):
        for run in (o.eval_expr, lambda e, a: o.interpret_slp(o.emit_slp(e), a)):
            with pytest.raises(ExprError, match=message):
                run(e, assignment)

    def test_eval_expr_matches_interpret_slp_on_random_graphs(self):
        # Graphs over overflowing sums, signed zeros and constants, evaluated
        # under assignments that may lack a variable: eval_expr returns
        # interpret_slp's bits or raises its ExprError message.
        rng = random.Random(43)
        for _ in range(400):
            pool = [o.var(i) for i in range(1, 4)]
            pool += [o.const(v) for v in rng.sample([0.0, -0.0, 1.5, -1e308], 2)]
            for _ in range(rng.randint(1, 8)):
                kind = rng.choice(SLP_OPS)
                kids = [rng.choice(pool) for _ in range(1 if kind in ("abs", "halve") else 2)]
                pool.append(Expr(kind, None, kids))
            e = pool[-1]
            program = o.emit_slp(e)
            for _ in range(4):
                assignment = {i: rng.choice([1e308, -1e308, 1.5, 0.0, -0.0])
                              for i in range(1, 4) if rng.random() < 0.9}
                outcomes = []
                for run in (lambda: o.eval_expr(e, assignment),
                            lambda: o.interpret_slp(program, assignment)):
                    try:
                        outcomes.append(bits(run()))
                    except ExprError as exc:
                        outcomes.append(str(exc))
                assert outcomes[0] == outcomes[1], (program.to_text(), assignment)


class TestCompileToPyfunc:
    def test_matches_eval_expr(self):
        rng = random.Random(31)
        for form in ("minmax", "arithmetic"):
            e = o.build_selection_expr(4, 2, form)
            fn = o.compile_to_pyfunc(e)
            for _ in range(100):
                xs = [rng.uniform(-100, 100) for _ in range(4)]
                assignment = {k + 1: v for k, v in enumerate(xs)}
                assert fn(xs) == o.eval_expr(e, assignment)

    def test_constants_embedded(self):
        fn = o.compile_to_pyfunc(o.add(x1, o.const(2.5)))
        assert fn([1.0]) == 3.5


def bits(x):
    return struct.pack("<d", x)


class Index:
    """An integer only through __index__, as a NumPy integer is."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


SIGNED_ZERO_ALPHABET = (-0.0, 0.0, 1.0)


@functools.cache
def interpreted(n_vars, rank, form):
    """interpret_slp's bit patterns on every tuple over the signed-zero
    alphabet and on 20 seeded random float vectors, with those inputs."""
    program = o.emit_slp(o.build_selection_expr(n_vars, rank, form))
    rng = random.Random(97 * n_vars + rank)
    inputs = list(itertools.product(SIGNED_ZERO_ALPHABET, repeat=n_vars))
    inputs += [tuple(rng.uniform(-1e6, 1e6) for _ in range(n_vars)) for _ in range(20)]
    want = [bits(o.interpret_slp(program, dict(enumerate(xs, 1)))) for xs in inputs]
    return inputs, want


class TestCompiledFormulas:
    @pytest.mark.parametrize("n_vars", range(1, 8))
    def test_bit_for_bit_with_interpret_slp(self, backend, n_vars):
        for rank in range(1, n_vars + 1):
            for form in ("minmax", "arithmetic"):
                fn = o.compile_to_pyfunc(o.build_selection_expr(n_vars, rank, form))
                inputs, want = interpreted(n_vars, rank, form)
                assert [bits(fn(xs)) for xs in inputs] == want, (rank, form)

    def test_verify_compiles_the_arithmetic_programs(self, backend, monkeypatch):
        # random_verify lowers its minmax programs without building a
        # graph; what it hands the backend is, key for key, emit_slp of
        # the formulas build_selection_expr builds.
        kernels = get_kernels(backend)
        compile_slp = kernels.compile_slp
        calls = []

        def record(n_vars, consts, code, result):
            calls.append(o.CompiledProgram(n_vars, tuple(consts), tuple(code), result))
            return compile_slp(n_vars, consts, code, result)

        monkeypatch.setattr(kernels, "compile_slp", record)
        assert o.random_verify(o.VerifyPlan(max_n=8, random_trials=1000, seed=5)).ok
        want = {o.emit_slp(o.build_selection_expr(length, rank, form))
                for length in range(1, 9) for rank in range(1, length + 1)
                for form in ("minmax", "arithmetic")}
        # Every (length, rank) once per form; x1 is both forms of length 1.
        assert len(calls) == 2 * 36 and set(calls) == want and len(want) == 71

    def test_negative_zero_constant_keeps_its_sign(self, backend):
        fn = o.compile_to_pyfunc(o.add(x1, o.const(-0.0)))
        assert bits(fn([-0.0])) == bits(-0.0)
        assert bits(fn([0.0])) == bits(0.0)
        both = o.compile_to_pyfunc(o.add(o.add(x1, o.const(0.0)), o.const(-0.0)))
        assert bits(both([-0.0])) == bits(0.0)

    def test_constants_keep_their_registers(self, backend):
        # Non-commutative uses of several constants, signed zeros among them.
        e = o.sub(o.sub(o.const(5.0), x1), o.halve(o.add(o.const(-0.0), o.const(2.0))))
        e = o.max_of(e, o.add(o.const(0.0), o.sub(x2, o.const(-3.5))))
        fn = o.compile_to_pyfunc(e)
        program = o.emit_slp(e)
        for xs in ([0.0, -9.0], [-0.0, -0.0], [1.5, 4.0], [-7.0, -20.0]):
            assert bits(fn(xs)) == bits(o.interpret_slp(program, dict(enumerate(xs, 1))))
        assert fn([0.0, -9.0]) == 4.0

    def test_integer_inputs_give_floats(self, backend):
        for form in ("minmax", "arithmetic"):
            fn = o.compile_to_pyfunc(o.build_selection_expr(3, 2, form))
            value = fn([5, 1, 9])
            assert type(value) is float and value == 5.0
        assert type(o.compile_to_pyfunc(x1)([7])) is float

    def test_non_finite_result_raises(self, backend):
        fn = o.compile_to_pyfunc(o.build_selection_expr(3, 2, "arithmetic"))
        with pytest.raises(ExprError, match="non-finite intermediate inf at t0"):
            fn([1e308, 1.5e308, 1.6e308])
        with pytest.raises(ExprError, match="non-finite intermediate"):
            o.eval_expr(o.build_selection_expr(3, 2, "arithmetic"),
                        {1: 1e308, 2: 1.5e308, 3: 1.6e308})

    def test_non_finite_dropped_by_min_still_raises(self, backend):
        # min(inf - inf, x2) would silently pick x2 without the check
        big = o.add(x1, x1)
        fn = o.compile_to_pyfunc(o.min_of(o.sub(big, big), x2))
        with pytest.raises(ExprError, match="non-finite intermediate inf at t0"):
            fn([1e308, 1.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_input_raises(self, backend, bad):
        fn = o.compile_to_pyfunc(o.build_selection_expr(3, 2, "minmax"))
        with pytest.raises(ExprError, match=f"input x2 is not finite: {bad!r}"):
            fn([1.0, bad, 2.0])

    @pytest.mark.parametrize("big,text", [
        (10**400, "inf"), (-10**400, "-inf"), (Fraction(10**400), "inf"),
    ], ids=["int", "negative-int", "fraction"])
    def test_number_past_float_range_is_not_finite(self, backend, big, text):
        # Both twins and interpret_slp read it as the infinity of its sign.
        e = o.build_selection_expr(2, 1)
        with pytest.raises(ExprError) as info:
            o.compile_to_pyfunc(e)([1, big])
        assert str(info.value) == f"input x2 is not finite: {text}"
        for run in (lambda: o.eval_expr(e, {1: 1, 2: big}),
                    lambda: o.interpret_slp(o.emit_slp(e), {1: 1, 2: big})):
            with pytest.raises(ExprError) as info:
                run()
            assert str(info.value) == f"assignment for x2 is not finite: {text}"

    @pytest.mark.parametrize("xs,want", [
        ((float("inf"), "x"), (ExprError, "input x1 is not finite: inf")),
        ((float("nan"), "x"), (ExprError, "input x1 is not finite: nan")),
        (("x", float("inf")), (ValueError, "could not convert string to float: 'x'")),
        (("1.5", "inf"), (ExprError, "input x2 is not finite: inf")),
    ], ids=["inf-then-str", "nan-then-str", "str-then-inf", "texts"])
    def test_inputs_checked_in_order(self, backend, xs, want):
        # Both twins convert and check each input before they read the next.
        fn = get_kernels(backend).compile_slp(2, [], array("i", [0, 0, 1]), 2)
        with pytest.raises(want[0]) as info:
            fn(xs)
        assert (type(info.value), str(info.value)) == want

    def test_missing_input_raises(self, backend):
        fn = o.compile_to_pyfunc(o.add(x1, x3))
        with pytest.raises(ExprError, match="needs 3 values, got 2"):
            fn([1.0, 2.0])
        assert fn([1.0, 5.0, 2.0, float("nan")]) == 3.0

    def test_random_programs_raise_as_interpret_slp_does(self, backend):
        # Packed programs with dead code, min/max over overflowing sums and
        # constants, run on near-overflow inputs: the compiled function
        # returns interpret_slp's bits or raises its ExprError message.
        rng = random.Random(41)
        compile_slp = get_kernels(backend).compile_slp
        for _ in range(400):
            n_vars = rng.randint(1, 3)
            consts = rng.sample([0.0, -0.0, 1.5, -1e308], rng.randint(0, 2))
            base = n_vars + len(consts)
            code = []
            for k in range(rng.randint(1, 8)):
                code += (rng.randrange(6), rng.randrange(base + k), rng.randrange(base + k))
            result = rng.randrange(base + len(code) // 3)
            program = o.CompiledProgram(n_vars, consts, code, result)
            fn = compile_slp(n_vars, consts, array("i", code), result)
            for _ in range(4):
                xs = [rng.choice([1e308, -1e308, 1.5, 0.0, -0.0]) for _ in range(n_vars)]
                outcomes = []
                for run in (lambda: fn(xs), lambda: o.interpret_slp(program, dict(enumerate(xs, 1)))):
                    try:
                        outcomes.append(bits(run()))
                    except ExprError as exc:
                        outcomes.append(str(exc))
                assert outcomes[0] == outcomes[1], (n_vars, consts, code, result, xs)

    @pytest.mark.parametrize("args,match", [
        ((1, [], array("i", [6, 0, 0]), 1), "unknown op 6"),
        ((1, [], array("i", [-1, 0, 0]), 1), "unknown op -1"),
        ((1, [], array("i", [0, 0, 1]), 1), "must lie below its register 1"),
        ((1, [], array("i", [0, -1, 0]), 1), "must lie below"),
        ((1, [2.0], array("i", [0, 0, 1, 2, 3, 0]), 3), "instruction 1: .* register 3"),
        ((1, [], array("i", [0, 0, 0]), 2), "result register 2 out of range"),
        ((1, [], array("i", [0, 0, 0]), -1), "result register -1"),
        ((0, [], array("i"), 0), "result register 0 out of range"),
        ((1, [], array("i", [0, 0]), 1), "triples"),
        ((1, [], array("q", [0, 0, 0]), 1), r"array\('i'\)"),
        ((-1, [], array("i"), 0), "must not be negative"),
        ((1, [float("inf")], array("i"), 0), "constant 0 is not finite"),
    ])
    def test_malformed_program_refused(self, backend, args, match):
        with pytest.raises(ValueError, match=match):
            get_kernels(backend).compile_slp(*args)
        n_vars, consts, code, result = args
        if code.typecode == "i":
            with pytest.raises(ValueError, match=match):
                o.CompiledProgram(n_vars, tuple(consts), tuple(code), result)

    @pytest.mark.parametrize("args", [
        (2.7, [], array("i", [0, 0, 1]), 2),
        ("2", [], array("i", [0, 0, 1]), 2),
        (2, [], array("i", [0, 0, 1]), 2.0),
        (2, ["1.5"], array("i", [0, 0, 2]), 3),
        (2, [b"1"], array("i", [0, 0, 2]), 3),
    ], ids=["n_vars-float", "n_vars-str", "result-float", "const-str", "const-bytes"])
    def test_argument_types_refused(self, backend, args):
        # Neither twin truncates a float or parses text: both refuse these,
        # and take any integer, an object with __index__ alone included.
        with pytest.raises(TypeError):
            get_kernels(backend).compile_slp(*args)
        fn = get_kernels(backend).compile_slp(True, [2], array("i", [0, 0, 1]), 2)
        assert fn([1.5]) == 3.5
        fn = get_kernels(backend).compile_slp(Index(1), [2], array("i", [0, 0, 1]), Index(2))
        assert fn([1.5]) == 3.5

    def test_python_backend_runs_no_generated_code(self, monkeypatch):
        e = o.build_selection_expr(6, 3, "arithmetic")
        program = expr_module._program_of(e)
        xs = [4.0, -2.5, 7.0, 0.0, 1e3, 3.25]
        want = o.interpret_slp(o.emit_slp(e), dict(enumerate(xs, 1)))

        def refuse(*args, **kwargs):
            raise AssertionError("exec, eval or compile called")

        for name in ("exec", "eval", "compile"):
            monkeypatch.setattr(builtins, name, refuse)
        fn = get_kernels("python").compile_slp(program.n_vars, program.consts,
                                               array("i", program.code), program.result)
        assert bits(fn(xs)) == bits(want) == bits(3.25)


class TestFormatReal:
    @pytest.mark.parametrize("value,text", [
        (5.0, "5"), (-3.0, "-3"), (0.0, "0"), (2.5, "2.5"),
        (1e-05, "1e-05"), (1.5e300, "1.5e+300"), (1 / 3, repr(1 / 3)),
    ])
    def test_formatting(self, value, text):
        assert o.format_real(value) == text

    @given(finite)
    def test_round_trips(self, value):
        assert float(o.format_real(value)) == value
