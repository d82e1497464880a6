"""The public surface: the names ordstat exports, and the public record
classes' construction, repr, equality, hashing, frozenness, pickling and
copying.

The expectations are written out by hand, field names included, so they
pin the behaviour itself and not the machinery that provides it.
"""

import copy
import math
import pickle
import types

import pytest

import ordstat
from ordstat import (
    BenchRecord,
    CompiledProgram,
    EvalStats,
    ExprMetrics,
    RealSequence,
    SequenceError,
    SlpInstruction,
    VerifyFailure,
    VerifyPlan,
    VerifyReport,
)


def test_public_names():
    # A name joins or leaves the public surface only by editing this list.
    assert sorted(ordstat.__all__) == [
        "BUDGET_ENV_VAR", "BenchRecord", "BudgetError", "CSV_HEADER",
        "CompiledProgram", "DEFAULT_BUDGET", "EvalStats", "Expr", "ExprError",
        "ExprMetrics", "OrdstatError", "RankError", "RealSequence",
        "SequenceError", "SlpInstruction", "TextParseError", "VerifyFailure",
        "VerifyPlan", "VerifyReport", "__version__", "abs_of", "active_backend",
        "add", "as_real_sequence", "available_backends", "backend_table",
        "build_selection_expr", "compare_wallclock", "compile_to_pyfunc",
        "const", "contains_minmax", "count_calls", "cse", "emit_slp",
        "emit_text", "eval_expr", "exhaustive_verify", "format_real",
        "growth_table", "halve", "interpret_slp", "lower_minmax_to_arith",
        "max_of", "median", "merge_reports", "metrics_of", "min_of",
        "naive_call_count", "oracle_select", "pairwise_max_arith",
        "pairwise_min_arith", "parse_text", "random_verify", "records_to_csv",
        "records_to_json", "resolve_budget", "select_fullrange", "select_memo",
        "select_naive", "select_ranks", "set_backend", "sub", "var",
    ]
    assert all(hasattr(ordstat, name) for name in ordstat.__all__)


# (class, field names, positional arguments, exact repr of that instance)
RECORDS = [
    (RealSequence, ("values",), ((3.0, 1.5, -0.0),),
     "RealSequence(values=(3.0, 1.5, -0.0))"),
    (EvalStats, ("recursive_calls", "base_case_calls", "memo_hits"), (1, 2, 3),
     "EvalStats(recursive_calls=1, base_case_calls=2, memo_hits=3)"),
    (ExprMetrics, ("node_count_tree", "node_count_dag", "depth"), (5, 4, 3),
     "ExprMetrics(node_count_tree=5, node_count_dag=4, depth=3)"),
    (SlpInstruction, ("dest", "op", "args"), (2, "add", (("x", 1), ("t", 0))),
     "SlpInstruction(dest=2, op='add', args=(('x', 1), ('t', 0)))"),
    (CompiledProgram, ("n_vars", "consts", "code", "result"), (1, (2.5,), (2, 0, 0, 0, 2, 1), 2),
     "CompiledProgram(n_vars=1, consts=(2.5,), code=(2, 0, 0, 0, 2, 1), result=2)"),
    (VerifyPlan, ("max_n", "alphabet", "random_trials", "seed", "tolerance"),
     (3, (1.0, 2.0), 10, 4, 0.5),
     "VerifyPlan(max_n=3, alphabet=(1.0, 2.0), random_trials=10, seed=4, "
     "tolerance=0.5)"),
    (VerifyFailure, ("input", "rank", "expected", "actual", "mode"),
     ((1.0, 2.0), 0, 1.5, 2.0, "median"),
     "VerifyFailure(input=(1.0, 2.0), rank=0, expected=1.5, actual=2.0, "
     "mode='median')"),
    (VerifyReport, ("cases_run", "failures"), (3, ()),
     "VerifyReport(cases_run=3, failures=())"),
    (BenchRecord, ("N", "n", "mode", "base_case_calls", "memo_hits", "tree_nodes",
                   "dag_nodes", "wall_time_s"), (1, 1, "growth", 1, 0, 1, 1, 0.0),
     "BenchRecord(N=1, n=1, mode='growth', base_case_calls=1, memo_hits=0, "
     "tree_nodes=1, dag_nodes=1, wall_time_s=0.0)"),
]

FROZEN = [r for r in RECORDS if r[0] is not EvalStats]


def _ids(records):
    return [r[0].__name__ for r in records]


def _other_args(args):
    """`args` with the last field changed: every record's last field
    takes a tuple, a string or a number."""
    last = args[-1]
    if isinstance(last, tuple):
        return args[:-1] + (last + (1.0,),)
    return args[:-1] + (last * 2 if isinstance(last, str) else last + 1,)


@pytest.mark.parametrize("cls,fields,args,text", RECORDS, ids=_ids(RECORDS))
class TestRecordBehaviour:
    def test_repr(self, cls, fields, args, text):
        assert repr(cls(*args)) == text

    def test_keyword_construction(self, cls, fields, args, text):
        rec = cls(**dict(zip(fields, args)))
        assert rec == cls(*args)
        assert tuple(getattr(rec, f) for f in fields) == args

    def test_equality(self, cls, fields, args, text):
        a, b = cls(*args), cls(*args)
        assert a == b and not a != b
        other = cls(*_other_args(args))
        assert a != other and not a == other

    def test_other_class_with_same_fields_is_unequal(self, cls, fields, args, text):
        a = cls(*args)
        assert a != types.SimpleNamespace(**dict(zip(fields, args)))
        twin = type("Twin", (cls,), {})(*args)
        assert a != twin and twin != a

    def test_pickle_round_trip(self, cls, fields, args, text):
        rec = cls(*args)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(rec, protocol))
            assert type(back) is cls and back == rec and repr(back) == text

    def test_copy_round_trip(self, cls, fields, args, text):
        rec = cls(*args)
        for clone in (copy.copy(rec), copy.deepcopy(rec)):
            assert type(clone) is cls and clone == rec and repr(clone) == text


@pytest.mark.parametrize("cls,fields,args,text", FROZEN, ids=_ids(FROZEN))
def test_frozen_records_hash_by_value(cls, fields, args, text):
    assert hash(cls(*args)) == hash(cls(*args))
    assert len({cls(*args), cls(*args), cls(*_other_args(args))}) == 2


def test_record_is_frozen():
    for cls, fields, args, _ in FROZEN:
        rec = cls(*args)
        for field in fields:
            with pytest.raises(AttributeError):
                setattr(rec, field, None)
            with pytest.raises(AttributeError):
                delattr(rec, field)
        assert rec == cls(*args)


class TestEvalStats:
    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(EvalStats())

    def test_defaults_and_mutation(self):
        stats = EvalStats()
        assert stats == EvalStats(0, 0, 0)
        stats.memo_hits += 2
        stats.recursive_calls = 5
        assert stats == EvalStats(recursive_calls=5, memo_hits=2)


class TestDefaultsAndValidation:
    def test_required_fields(self):
        for cls, *_ in RECORDS:
            if cls not in (EvalStats, VerifyPlan):
                with pytest.raises(TypeError):
                    cls()

    def test_verify_plan_defaults(self):
        assert repr(VerifyPlan()) == (
            "VerifyPlan(max_n=7, alphabet=(0.0, 1.0, 2.0, 3.0), "
            "random_trials=1000, seed=0, tolerance=1e-09)")
        assert VerifyPlan(3, [1, 2]) == VerifyPlan(3, (1.0, 2.0), 1000, 0, 1e-9)

    def test_real_sequence_converts_to_floats(self):
        seq = RealSequence([1, 2.5, True])
        assert seq.values == (1.0, 2.5, 1.0)
        assert all(type(v) is float for v in seq.values)

    @pytest.mark.parametrize("values,message", [
        ((), "sequence must contain at least one value"),
        ((1.0, math.inf), "sequence values must be finite, got inf"),
        ((math.nan, -math.inf), "sequence values must be finite, got nan"),
    ])
    def test_real_sequence_messages(self, values, message):
        with pytest.raises(SequenceError) as info:
            RealSequence(values)
        assert str(info.value) == message

    @pytest.mark.parametrize("kwargs,message", [
        ({"max_n": 0}, "max_n must be at least 1, got 0"),
        ({"alphabet": ()}, "alphabet must be non-empty"),
        ({"alphabet": (1.0, math.nan)}, "alphabet values must be finite"),
        ({"random_trials": -1}, "random_trials must be nonnegative, got -1"),
        ({"tolerance": -1}, "tolerance must be nonnegative, got -1"),
        ({"tolerance": "x"}, "tolerance must be nonnegative, got 'x'"),
    ])
    def test_verify_plan_messages(self, kwargs, message):
        with pytest.raises(ValueError) as info:
            VerifyPlan(**kwargs)
        assert str(info.value) == message


def test_compiled_program_constants_compare_by_sign():
    # x1 + 0.0 and x1 + -0.0 return different zeros at x1 = -0.0, so their
    # programs are different values; repr and pickling keep each sign.
    from ordstat import add, const, emit_slp, interpret_slp, var
    plus, minus = emit_slp(add(var(1), const(0.0))), emit_slp(add(var(1), const(-0.0)))
    assert math.copysign(1, interpret_slp(plus, {1: -0.0})) == 1
    assert math.copysign(1, interpret_slp(minus, {1: -0.0})) == -1
    assert plus != minus and not plus == minus
    assert len({plus, minus}) == 2
    twin = emit_slp(add(var(1), const(0.0)))
    assert plus == twin and hash(plus) == hash(twin)
    assert repr(minus) == "CompiledProgram(n_vars=1, consts=(-0.0,), code=(0, 0, 1), result=2)"
    assert pickle.loads(pickle.dumps(minus)) == minus != pickle.loads(pickle.dumps(plus))
