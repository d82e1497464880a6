"""The work budget: where it is read and where each of its rules refuses.

Every rule lives in ordstat.selection, and every public call reads
ORDSTAT_BUDGET at most once, then hands the number to whatever it calls.
The smallest budget each rule accepts is pinned per shape; the values
were taken from the implementation before the rules moved into
ordstat.selection, as the golden report hashes were.
"""

import io
import sys
from collections import Counter
from fractions import Fraction

import pytest

import ordstat as o
from ordstat import BudgetError, RankError, VerifyPlan
from ordstat.cli import main

SELECTORS = {"naive": o.select_naive, "memo": o.select_memo, "fullrange": o.select_fullrange}


@pytest.fixture
def reads(monkeypatch):
    """Rebinds resolve_budget in every ordstat module that holds it, as the
    benchmark's tracer does, and sets ORDSTAT_BUDGET. Returns the list of
    `budget` arguments the calls received; None is a read of the variable."""
    calls = []
    original = o.selection.resolve_budget

    def counting(budget=None):
        calls.append(budget)
        return original(budget)

    bound = set()
    for name, module in list(sys.modules.items()):
        if name == "ordstat" or name.startswith("ordstat."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
                    bound.add(name)
    assert {"ordstat.selection", "ordstat.expr", "ordstat.verify", "ordstat.bench",
            "ordstat.cli"} <= bound
    monkeypatch.setenv(o.BUDGET_ENV_VAR, "1000000")
    return calls


VALUES = [4.0, 1.0, 3.0, 2.0, 5.0, 0.5]

# name -> call with the given `budget` argument
ENTRY_POINTS = {
    "select_naive": lambda b: o.select_naive(3, VALUES, budget=b),
    "select_memo": lambda b: o.select_memo(3, VALUES, budget=b),
    "select_fullrange": lambda b: o.select_fullrange(3, VALUES, budget=b),
    "select_ranks": lambda b: o.select_ranks(VALUES, (1, 3, 6), budget=b),
    "median": lambda b: o.median(VALUES, budget=b),
    "build_selection_expr": lambda b: o.build_selection_expr(6, 3, budget=b),
    "growth_table": lambda b: o.growth_table(4, repeats=1, budget=b),
    "compare_wallclock": lambda b: o.compare_wallclock(5, 3, budget=b),
    "backend_table": lambda b: o.backend_table(5, 3, repeats=1, budget=b),
    "count_calls": lambda b: o.count_calls(5, 3, budget=b),
    "emit_text": lambda b: o.emit_text(o.build_selection_expr(4, 2, budget=1000), budget=b),
}

SUITES = {
    "exhaustive_verify": lambda: o.exhaustive_verify(VerifyPlan(max_n=4)),
    "random_verify": lambda: o.random_verify(VerifyPlan(max_n=7, random_trials=40, seed=5)),
}


class TestOneReadPerCall:
    @pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
    def test_entry_point(self, reads, name):
        ENTRY_POINTS[name](None)
        assert reads.count(None) == 1
        del reads[:]
        ENTRY_POINTS[name](1000000)
        assert None not in reads

    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_verify_suite(self, reads, name):
        assert SUITES[name]().ok
        assert reads.count(None) == 1

    @pytest.mark.parametrize("argv,stdin,expected", [
        (["select", "--rank", "3"], "4 1 3 2 5", 1),
        (["select", "--rank", "3", "--mode", "naive"], "4 1 3 2 5", 1),
        (["select", "--rank", "3", "--mode", "fullrange"], "4 1 3 2 5", 1),
        (["select", "--rank", "3", "--mode", "expr"], "4 1 3 2 5", 1),
        (["median"], "4 1 3 2", 1),
        (["median", "--mode", "naive"], "4 1 3 2 5", 1),
        (["emit", "--n", "5", "--rank", "3"], "", 1),
        (["emit", "--n", "5", "--rank", "3", "--slp"], "", 1),
        (["verify", "--exhaustive", "--max-n", "3"], "", 1),
        (["verify", "--random", "--max-n", "5", "--trials", "10"], "", 1),
        (["verify", "--max-n", "3", "--trials", "10"], "", 2),
        (["bench", "--max-n", "3", "--repeats", "0"], "", 1),
        (["bench", "--growth", "--compare", "--backends", "--max-n", "3",
          "--n", "5", "--trials", "2", "--repeats", "0"], "", 3),
    ])
    def test_command(self, reads, monkeypatch, capsys, argv, stdin, expected):
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        assert main(argv) == 0
        assert reads.count(None) == expected
        if argv[0] != "verify":
            del reads[:]
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
            assert main(argv + ["--budget", "1000000"]) == 0
            assert None not in reads
        capsys.readouterr()


# What the benchmark's tracer wraps in ordstat.selection.
LAYER_NAMES = ("as_real_sequence", "resolve_budget", "_check_naive_budget",
               "_check_memo_budget", "_check_fullrange_budget")


@pytest.fixture
def layer_calls(monkeypatch):
    """Rebinds each of LAYER_NAMES in every ordstat module that holds it, as
    the benchmark's tracer does; returns a Counter of the calls by name."""
    calls = Counter()
    for name in LAYER_NAMES:
        original = getattr(o.selection, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for modname, module in list(sys.modules.items()):
            if modname == "ordstat" or modname.startswith("ordstat."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counting)
    return calls


# public call -> the budget checks it makes, by name, besides exactly one
# as_real_sequence and one resolve_budget.
LAYER_CONTRACT = {
    "select_naive": (lambda: o.select_naive(3, VALUES), {"_check_naive_budget": 1}),
    "select_memo": (lambda: o.select_memo(3, VALUES), {"_check_memo_budget": 1}),
    "select_fullrange": (lambda: o.select_fullrange(3, VALUES),
                         {"_check_fullrange_budget": 1}),
    "median-even": (lambda: o.median(VALUES), {"_check_memo_budget": 2}),
    "median-odd": (lambda: o.median(VALUES[:5]), {"_check_memo_budget": 1}),
    "median-naive": (lambda: o.median(VALUES, mode="naive"), {"_check_naive_budget": 2}),
    "select_ranks-memo": (lambda: o.select_ranks(VALUES, (1, 3, 6)), {"_check_memo_budget": 3}),
    "select_ranks-naive": (lambda: o.select_ranks(VALUES, [2, 2], mode="naive"),
                           {"_check_naive_budget": 2}),
    "select_ranks-fullrange": (lambda: o.select_ranks(VALUES, iter([4]), mode="fullrange"),
                               {"_check_fullrange_budget": 1}),
}


@pytest.mark.parametrize("name", LAYER_CONTRACT)
def test_layer_contract(backend, layer_calls, name):
    # Each public call validates its sequence once, resolves the budget once
    # and checks each rank's budget by the rule's name, so the benchmark's
    # traced validation and budget counts mean what they say.
    call, checks = LAYER_CONTRACT[name]
    call()
    assert layer_calls == Counter({"as_real_sequence": 1, "resolve_budget": 1, **checks})


# (N, rank) -> the smallest budget the rule accepts.
SELECTOR_THRESHOLDS = {
    "naive": {(1, 1): 1, (5, 3): 16, (8, 4): 216, (10, 5): 2401, (12, 2): 12,
              (20, 3): 361, (40, 2): 40},
    "memo": {(1, 1): 1, (5, 3): 15, (8, 4): 84, (10, 5): 330, (12, 2): 13,
             (20, 3): 210, (40, 2): 41},
    "fullrange": {(1, 1): 1, (5, 3): 16, (8, 4): 93, (10, 5): 386, (12, 2): 13,
                  (20, 3): 211, (40, 2): 41},
}

# (N, rank) -> (smallest accepted budget, the check that refuses one less):
# the formula's naive count ("base cases") or its graph ("node budget").
FORMULA_THRESHOLDS = {
    (1, 1): (2, "node budget"),
    (5, 3): (90, "node budget"),
    (8, 4): (819, "node budget"),
    (10, 5): (4213, "node budget"),
    (12, 2): (169, "node budget"),
    (200, 2): (40401, "node budget"),
    (60, 3): (111630, "node budget"),
    (12, 6): (32768, "base cases"),
    (13, 7): (262144, "base cases"),
}

# (N, rank, form) -> (smallest budget `ordstat emit` accepts, the rule that
# refuses one less: the formula build or the text's tree nodes).
EMIT_THRESHOLDS = {
    (1, 1, "minmax"): (2, "node budget"),
    (4, 2, "minmax"): (25, "node budget"),
    (5, 3, "minmax"): (95, "tree nodes"),
    (5, 3, "arithmetic"): (12905, "tree nodes"),
    (6, 3, "minmax"): (199, "tree nodes"),
    (6, 3, "arithmetic"): (124137, "tree nodes"),
    (8, 2, "arithmetic"): (193545, "tree nodes"),
}


class TestThresholds:
    @pytest.mark.parametrize("mode,shape,smallest", [
        (mode, shape, smallest) for mode, table in SELECTOR_THRESHOLDS.items()
        for shape, smallest in table.items()])
    def test_selector(self, backend, mode, shape, smallest):
        n_len, rank = shape
        values = [float(k * 7 % n_len) for k in range(n_len)]
        select = SELECTORS[mode]
        assert select(rank, values, budget=smallest) == sorted(values)[rank - 1]
        with pytest.raises(BudgetError):
            select(rank, values, budget=smallest - 1)

    @pytest.mark.parametrize("shape", sorted(FORMULA_THRESHOLDS))
    def test_formula(self, backend, shape):
        smallest, refusal = FORMULA_THRESHOLDS[shape]
        o.build_selection_expr(*shape, budget=smallest)
        with pytest.raises(BudgetError, match=refusal):
            o.build_selection_expr(*shape, budget=smallest - 1)

    @pytest.mark.parametrize("shape", sorted(EMIT_THRESHOLDS))
    def test_emit(self, backend, capsys, shape):
        smallest, refusal = EMIT_THRESHOLDS[shape]
        n_vars, rank, form = shape
        argv = ["emit", "--n", str(n_vars), "--rank", str(rank), "--form", form]
        assert main(argv + ["--budget", str(smallest)]) == 0
        capsys.readouterr()
        assert main(argv + ["--budget", str(smallest - 1)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and refusal in err

    @pytest.mark.parametrize("shape", sorted(EMIT_THRESHOLDS))
    def test_emit_text(self, shape):
        # emit_text refuses the text itself, before rendering, at the limit
        # the command refuses it.
        smallest, refusal = EMIT_THRESHOLDS[shape]
        expr = o.build_selection_expr(*shape, budget=10**6)
        assert o.emit_text(expr, budget=smallest) == o.emit_text(expr, budget=10**6)
        if refusal == "tree nodes":
            with pytest.raises(BudgetError, match=f"^formula text of {smallest} tree nodes"):
                o.emit_text(expr, "sexpr", budget=smallest - 1)


NOT_INTEGERS = [2.7, "2", Fraction(5, 2), float("nan"), float("inf")]


class TestIntegerArguments:
    @pytest.mark.parametrize("rank", NOT_INTEGERS + [None])
    def test_rank_refused(self, backend, rank):
        for mode, select in SELECTORS.items():
            with pytest.raises(RankError, match="rank must be an integer"):
                select(rank, [5, 1, 9])
            with pytest.raises(RankError, match="rank must be an integer"):
                o.select_ranks([5, 1, 9], (1, rank), mode=mode)
        with pytest.raises(RankError, match="rank must be an integer"):
            o.build_selection_expr(3, rank)

    @pytest.mark.parametrize("budget", NOT_INTEGERS)
    def test_budget_refused(self, backend, budget):
        with pytest.raises(BudgetError, match="budget must be an integer"):
            o.resolve_budget(budget)
        for mode, select in SELECTORS.items():
            with pytest.raises(BudgetError, match="budget must be an integer"):
                select(2, [5, 1, 9], budget=budget)
            with pytest.raises(BudgetError, match="budget must be an integer"):
                o.select_ranks([5, 1, 9], (1, 2), mode=mode, budget=budget)
        with pytest.raises(BudgetError, match="budget must be an integer"):
            o.build_selection_expr(3, 2, budget=budget)

    @pytest.mark.parametrize("rank,value", [(2, 5.0), (2.0, 5.0), (True, 1.0),
                                            (Fraction(6, 2), 9.0)])
    def test_integral_rank_accepted(self, backend, rank, value):
        for mode, select in SELECTORS.items():
            assert select(rank, [5, 1, 9]) == value
            assert o.select_ranks([5, 1, 9], (rank,), mode=mode) == (value,)
        fn = o.compile_to_pyfunc(o.build_selection_expr(3, rank))
        assert fn([5, 1, 9]) == value

    @pytest.mark.parametrize("budget,limit", [(10, 10), (10.0, 10), (True, 1),
                                              (Fraction(20, 2), 10)])
    def test_integral_budget_accepted(self, backend, budget, limit):
        assert o.resolve_budget(budget) == limit
        for mode, select in SELECTORS.items():
            assert select(1, [5, 1, 9], budget=budget) == 1.0
            assert o.select_ranks([5, 1, 9], (1,), mode=mode, budget=budget) == (1.0,)
        if limit >= 2:  # the one-variable formula's smallest budget
            assert o.build_selection_expr(1, 1, budget=budget) == o.var(1)
