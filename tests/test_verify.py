import hashlib
import json
import math
import sys
import threading
import tracemalloc

import pytest

import ordstat as o
from ordstat import BudgetError, RankError, SequenceError, VerifyPlan


class TestOracleSelect:
    def test_known_values(self):
        assert o.oracle_select(2, [5, 1, 9]) == 5
        assert o.oracle_select(1, [7]) == 7
        assert o.oracle_select(3, [2, 2, 1]) == 2

    def test_rank_out_of_range(self):
        with pytest.raises(RankError):
            o.oracle_select(0, [1.0])
        with pytest.raises(RankError):
            o.oracle_select(4, [1.0, 2.0, 3.0])

    def test_does_not_mutate_input(self):
        values = [3.0, 1.0, 2.0]
        o.oracle_select(1, values)
        assert values == [3.0, 1.0, 2.0]

    @pytest.mark.parametrize("seq", [
        [math.nan, 1.0], [math.inf, 1.0], [1.0, -math.inf], [10**400], [-10**400, 1], [],
    ], ids=["nan", "inf", "-inf", "huge-int", "-huge-int", "empty"])
    def test_refuses_what_the_selectors_refuse(self, seq):
        # The ground truth validates as select_memo does, with the same error.
        with pytest.raises(SequenceError) as oracle:
            o.oracle_select(1, seq)
        with pytest.raises(SequenceError) as selector:
            o.select_memo(1, seq)
        assert str(oracle.value) == str(selector.value)


class TestVerifyPlan:
    def test_defaults(self):
        plan = VerifyPlan()
        assert plan.max_n == 7
        assert plan.alphabet == (0.0, 1.0, 2.0, 3.0)

    def test_alphabet_coerced(self):
        assert VerifyPlan(alphabet=[0, 1]).alphabet == (0.0, 1.0)

    @pytest.mark.parametrize("kwargs", [
        {"max_n": 0},
        {"alphabet": ()},
        {"alphabet": (float("nan"),)},
        {"alphabet": "0123"},
        {"tolerance": -1.0},
        {"random_trials": -1},
    ])
    def test_invalid_plans(self, kwargs):
        with pytest.raises(ValueError):
            VerifyPlan(**kwargs)

    @pytest.mark.parametrize("seed", [[1], None, 2.5, "3"])
    def test_seed_must_be_an_integer(self, seed):
        # A frozen plan hashes by value, so an unhashable seed cannot get in.
        with pytest.raises(ValueError, match="^seed must be an integer"):
            VerifyPlan(seed=seed)

    def test_integral_seed_taken_as_int(self):
        plan = VerifyPlan(seed=4.0)
        assert type(plan.seed) is int and hash(plan) == hash(VerifyPlan(seed=4))


@pytest.mark.parametrize("make,error", [
    (lambda: o.oracle_select(2.7, [5, 1, 9]), RankError),
    (lambda: o.oracle_select("2", [5, 1, 9]), RankError),
    (lambda: VerifyPlan(max_n=2.5), ValueError),
    (lambda: VerifyPlan(max_n="3"), ValueError),
    (lambda: VerifyPlan(random_trials=2.5), ValueError),
], ids=["rank-2.7", "rank-str", "max_n-2.5", "max_n-str", "random_trials-2.5"])
def test_counts_must_be_integers(make, error):
    with pytest.raises(error, match="must be an integer"):
        make()
    assert o.oracle_select(2.0, [5, 1, 9]) == 5
    plan = VerifyPlan(max_n=3.0, random_trials=2.0)
    assert (plan.max_n, plan.random_trials) == (3, 2)


class TestExhaustive:
    def test_small_plan_clean(self):
        report = o.exhaustive_verify(VerifyPlan(max_n=3))
        assert report.ok
        # sequences: 4 + 16 + 64; cases: one per rank plus one median each
        assert report.cases_run == 4 * 2 + 16 * 3 + 64 * 4

    def test_constant_alphabet(self):
        report = o.exhaustive_verify(VerifyPlan(max_n=3, alphabet=(0.0,)))
        assert report.ok
        assert report.cases_run == 2 + 3 + 4

    def test_fault_injection_detected(self):
        report = o.exhaustive_verify(VerifyPlan(max_n=3), inject_fault=True)
        assert not report.ok
        assert all(f.mode == "naive" for f in report.failures)
        first = report.failures[0]
        assert first.expected != first.actual
        assert 1 <= first.rank <= len(first.input)

    def test_case_budget(self):
        with pytest.raises(BudgetError):
            o.exhaustive_verify(VerifyPlan(max_n=12))
        with pytest.raises(BudgetError):
            o.exhaustive_verify(VerifyPlan(max_n=3), case_budget=10)
        # nan compares False with any case count, so it is refused, not compared.
        for bad in (float("nan"), 2.5, "5"):
            with pytest.raises(BudgetError, match="case budget must be an integer"):
                o.exhaustive_verify(VerifyPlan(max_n=2), case_budget=bad)
        assert o.exhaustive_verify(VerifyPlan(max_n=2), case_budget=56.0).cases_run == 56

    def test_huge_plan_refused_at_once(self):
        # The count is summed length by length and refused at length 10,
        # the first whose running total passes the budget; the total of
        # 10**6 lengths, too long to format, is never computed.
        with pytest.raises(BudgetError, match=r"^plan implies at least 14913080 cases, "
                                              r"over the case budget of 5000000$"):
            o.exhaustive_verify(VerifyPlan(max_n=10**6))


# ORDSTAT_BUDGET -> what exhaustive_verify gives on BUDGET_GRID_PLAN, with
# and without inject_fault: the error, taken from the code that called
# select_ranks once per tuple and mode, or the clean run's (cases,
# failures without and with the fault).
BUDGET_GRID_PLAN = VerifyPlan(max_n=7, alphabet=(0.0, 1.0))
NODE_BUDGET = "selection formula for rank {} of {} variables would exceed the node budget of {}"
BUDGET_GRID = {
    1: NODE_BUDGET.format(1, 1, 1),
    2: "memoized selection of rank 2 from 2 elements may touch more than 2 "
       "distinct subproblems; raise ORDSTAT_BUDGET if this is intended",
    3: NODE_BUDGET.format(2, 2, 3),
    5: NODE_BUDGET.format(2, 2, 5),
    10: NODE_BUDGET.format(2, 3, 10),
    20: NODE_BUDGET.format(3, 3, 20),
    40: NODE_BUDGET.format(3, 4, 40),
    100: NODE_BUDGET.format(4, 5, 100),
    300: NODE_BUDGET.format(5, 6, 300),
    1000: (1792, 0, 480),
}


class TestExhaustiveBudgetGrid:
    # Selection checks run once per length, before the length's first
    # tuple and its formulas; the first error must not move.
    @pytest.mark.parametrize("fault", [False, True])
    @pytest.mark.parametrize("budget", sorted(BUDGET_GRID))
    def test_same_error_at_every_budget(self, backend, monkeypatch, budget, fault):
        monkeypatch.setenv(o.BUDGET_ENV_VAR, str(budget))
        want = BUDGET_GRID[budget]
        if isinstance(want, str):
            with pytest.raises(BudgetError) as info:
                o.exhaustive_verify(BUDGET_GRID_PLAN, inject_fault=fault)
            assert str(info.value) == want
            return
        report = o.exhaustive_verify(BUDGET_GRID_PLAN, inject_fault=fault)
        assert (report.cases_run, len(report.failures)) == (want[0], want[1 + fault])


# A plan of several chunks once _CHUNK is patched small: its 81 tuples of
# length 4 fill 12 chunks of 7, and TARGET is the 3rd tuple of the 9th.
CHUNK_PLAN = VerifyPlan(max_n=4, alphabet=(0.0, 1.0, 2.0))
TARGET = (2.0, 0.0, 1.0, 1.0)
WRONG = 99.0


def corrupt_selection(monkeypatch, mode, rank):
    real = o.verify._select_checked

    def corrupting(values, ranks, which, *rest):
        found = real(values, ranks, which, *rest)
        if which == mode and tuple(values) == TARGET:
            found = found[:rank - 1] + (WRONG,) + found[rank:]
        return found

    monkeypatch.setattr(o.verify, "_select_checked", corrupting)


def corrupt_formula(monkeypatch, rank):
    real = o.verify._formulas

    def corrupting(limit):
        exprs = real(limit)

        def formula(length, at, form):
            compiled = exprs(length, at, form)
            if (length, at, form) != (len(TARGET), rank, "minmax"):
                return compiled
            return lambda values: WRONG if tuple(values) == TARGET else compiled(values)

        return formula

    monkeypatch.setattr(o.verify, "_formulas", corrupting)


def corrupt_median(monkeypatch):
    real = o.verify.median

    def corrupting(seq, **kwargs):
        if tuple(o.as_real_sequence(seq).values) == TARGET:
            return WRONG
        return real(seq, **kwargs)

    monkeypatch.setattr(o.verify, "median", corrupting)


class TestChunks:
    # One wrong result of one tuple in one column comes back as exactly
    # its failure, whichever column: no column's compare is dropped.
    @pytest.mark.parametrize("mode,rank", [
        ("naive", 2), ("memo", 3), ("fullrange", 1), ("expr-minmax", 4), ("median", 0)])
    def test_one_wrong_result_in_any_column(self, backend, monkeypatch, mode, rank):
        monkeypatch.setattr(o.verify, "_CHUNK", 7)
        if mode == "expr-minmax":
            corrupt_formula(monkeypatch, rank)
        elif mode == "median":
            corrupt_median(monkeypatch)
        else:
            corrupt_selection(monkeypatch, mode, rank)
        report = o.exhaustive_verify(CHUNK_PLAN)
        expected = 1.0 if mode == "median" else sorted(TARGET)[rank - 1]
        assert report.failures == (o.VerifyFailure(TARGET, rank, expected, WRONG, mode),)
        assert report.cases_run == 3 * 2 + 9 * 3 + 27 * 4 + 81 * 5

    @pytest.mark.parametrize("chunk", [1, 5, None])
    @pytest.mark.parametrize("fault", [False, True])
    def test_golden_at_any_chunk_size(self, backend, monkeypatch, chunk, fault):
        if chunk is not None:
            monkeypatch.setattr(o.verify, "_CHUNK", chunk)
        digest, = [param.values[2] for param in GOLDEN
                   if param.values[:2] == ("exhaustive", fault)]
        report = o.exhaustive_verify(GOLDEN_PLANS["exhaustive"][1], inject_fault=fault)
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest

    def test_clean_chunks_are_not_walked(self, backend, monkeypatch):
        # Whole-column compares settle a clean chunk; the tuple-by-tuple
        # walk runs only where a column differs.
        walked = []
        real = o.verify._chunk_failures

        def recording(chunk, *rest):
            walked.append(chunk)
            return real(chunk, *rest)

        monkeypatch.setattr(o.verify, "_chunk_failures", recording)
        monkeypatch.setattr(o.verify, "_CHUNK", 7)
        assert o.exhaustive_verify(CHUNK_PLAN).ok
        assert walked == []
        corrupt_median(monkeypatch)
        assert not o.exhaustive_verify(CHUNK_PLAN).ok
        assert [TARGET in chunk for chunk in walked] == [True]

    def test_memory_does_not_grow_with_the_plan(self, backend, monkeypatch):
        # The last length of max_n=9 has 9 times the tuples of max_n=7's;
        # with one chunk held at a time the peak stays about the same.
        if backend == "python":
            pytest.skip("the length-9 naive selections take minutes in pure Python")
        peaks = []
        for max_n in (7, 9):
            monkeypatch.setattr(o.verify, "_cache", {})
            monkeypatch.setattr(o.verify, "_held", 0)
            tracemalloc.start()
            try:
                assert o.exhaustive_verify(VerifyPlan(max_n=max_n, alphabet=(0.0, 1.0, 2.0))).ok
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 2 * peaks[0]


class TestRandom:
    def test_clean_run(self):
        report = o.random_verify(VerifyPlan(max_n=9, random_trials=300, seed=1))
        assert report.ok
        assert report.cases_run == 600

    def test_deterministic(self):
        plan = VerifyPlan(max_n=6, random_trials=100, seed=42)
        assert o.random_verify(plan).to_json() == o.random_verify(plan).to_json()

    def test_seed_changes_report(self):
        a = o.random_verify(VerifyPlan(max_n=6, random_trials=50, seed=1))
        b = o.random_verify(VerifyPlan(max_n=6, random_trials=50, seed=2))
        # both clean, but the trials differ; only cases_run must agree
        assert a.cases_run == b.cases_run

    def test_single_trial(self):
        report = o.random_verify(VerifyPlan(max_n=1, random_trials=1, seed=0))
        assert report.ok and report.cases_run == 2

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            o.random_verify(VerifyPlan(random_trials=0))

    def test_fault_injection_detected(self):
        report = o.random_verify(
            VerifyPlan(max_n=7, random_trials=50, seed=3), inject_fault=True)
        assert not report.ok
        assert any(f.mode == "memo" for f in report.failures)


class TestReports:
    def test_json_shape(self):
        report = o.exhaustive_verify(VerifyPlan(max_n=2), inject_fault=True)
        payload = json.loads(report.to_json())
        assert set(payload) == {"cases_run", "failures"}
        assert payload["cases_run"] == report.cases_run
        for item in payload["failures"]:
            values, rank, expected, actual, mode = item
            assert isinstance(values, list) and isinstance(mode, str)
            assert expected != actual

    def test_ok_property(self):
        clean = o.exhaustive_verify(VerifyPlan(max_n=1))
        assert clean.ok and json.loads(clean.to_json())["failures"] == []

    def test_merge_sums_cases(self):
        a = o.exhaustive_verify(VerifyPlan(max_n=1))
        b = o.exhaustive_verify(VerifyPlan(max_n=2))
        merged = o.merge_reports([a, b])
        assert merged.cases_run == a.cases_run + b.cases_run

    def test_merge_order_does_not_matter(self):
        plan = VerifyPlan(max_n=3, random_trials=50, seed=3)
        reports = [o.exhaustive_verify(plan, inject_fault=True),
                   o.random_verify(plan, inject_fault=True)]
        merged = o.merge_reports(reports)
        assert merged.failures
        assert merged.to_json() == o.merge_reports(reports[::-1]).to_json()

    def test_merge_keeps_signed_zeros_apart(self):
        # -0.0 == 0.0: without the sign in the merge key, failures on
        # (-0.0, 1.0) and (0.0, 1.0) kept the order of the alphabet.
        merged = [o.merge_reports([o.exhaustive_verify(
            VerifyPlan(max_n=3, alphabet=alphabet), inject_fault=True)]).to_json()
            for alphabet in ((0.0, -0.0, 1.0), (-0.0, 0.0, 1.0))]
        assert merged[0] == merged[1]


# SHA-256 of to_json() for fixed plans, taken from the selectors called one
# rank at a time, before select_ranks: the batched path must give the same
# cases, failures and failure order.
GOLDEN = [
    pytest.param("exhaustive", False,
                 "ed9a6a28ee19e859e0dabf89caf54067cd7cb44996db197e127a600ed53bc8d7",
                 id="exhaustive"),
    pytest.param("exhaustive", True,
                 "66455719e12d7216d05c5f14bcde75ff6a696db360ae5a4f404aae20694ffe02",
                 id="exhaustive-fault"),
    pytest.param("random", False,
                 "8a8496e6e8d72c7808df7250aed60c5d636f843fa4d714137dc56212a936f7ee",
                 id="random"),
    pytest.param("random", True,
                 "d21c9db2a0122fd6a952671b8eedbbea5a6f1d2071bc35ab202035c4ce0ffb8a",
                 id="random-fault"),
]
GOLDEN_PLANS = {
    "exhaustive": (o.exhaustive_verify, VerifyPlan(max_n=4, alphabet=(-0.0, 0.0, 1.0, 2.5))),
    "random": (o.random_verify, VerifyPlan(max_n=7, random_trials=60, seed=5)),
}


class TestGoldenReports:
    @pytest.mark.parametrize("suite,fault,digest", GOLDEN)
    def test_report_hash(self, backend, suite, fault, digest):
        run, plan = GOLDEN_PLANS[suite]
        report = run(plan, inject_fault=fault)
        assert report.ok is not fault
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest

    @pytest.mark.parametrize("suite", sorted(GOLDEN_PLANS))
    def test_budget_resolved_once(self, monkeypatch, suite):
        calls = []

        def counting(budget=None):
            calls.append(budget)
            return resolve(budget)

        resolve = o.selection.resolve_budget
        monkeypatch.setattr(o.selection, "resolve_budget", counting)
        monkeypatch.setattr(o.verify, "resolve_budget", counting)
        monkeypatch.setenv(o.BUDGET_ENV_VAR, "5000")
        run, plan = GOLDEN_PLANS[suite]
        assert run(plan).ok
        assert calls.count(None) == 1
        assert set(calls) == {None, 5000}


def counting_builds(monkeypatch):
    builds = []
    real = o.verify.build_selection_expr

    def counting(*args, **kwargs):
        builds.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(o.verify, "build_selection_expr", counting)
    return builds


# Each test starts with an empty formula cache (conftest's cold_formula_cache).
class TestFormulaCache:
    @pytest.mark.parametrize("suite", sorted(GOLDEN_PLANS))
    def test_repeated_call_builds_nothing(self, backend, monkeypatch, suite):
        run, plan = GOLDEN_PLANS[suite]
        builds = counting_builds(monkeypatch)
        first = run(plan).to_json()
        assert builds
        builds.clear()
        assert run(plan).to_json() == first
        assert builds == []

    # Budgets at which a formula budget check fails first.
    @pytest.mark.parametrize("run,plan,budget", [
        (o.exhaustive_verify, BUDGET_GRID_PLAN, 1),
        (o.exhaustive_verify, BUDGET_GRID_PLAN, 10),
        (o.exhaustive_verify, BUDGET_GRID_PLAN, 300),
        (o.random_verify, GOLDEN_PLANS["random"][1], 60),
        (o.random_verify, GOLDEN_PLANS["random"][1], 100),
        (o.random_verify, GOLDEN_PLANS["random"][1], 500),
    ])
    def test_warm_cache_raises_the_cold_error(self, backend, monkeypatch, run, plan, budget):
        monkeypatch.setenv(o.BUDGET_ENV_VAR, str(budget))
        with pytest.raises(BudgetError) as cold:
            run(plan)
        monkeypatch.delenv(o.BUDGET_ENV_VAR)
        assert run(plan).ok
        monkeypatch.setenv(o.BUDGET_ENV_VAR, str(budget))
        with pytest.raises(BudgetError) as warm:
            run(plan)
        assert str(warm.value) == str(cold.value)
        assert "selection formula" in str(cold.value)

    def test_other_backend_compiles_its_own(self, backend, monkeypatch):
        others = [name for name in o.available_backends() if name != backend]
        if not others:
            pytest.skip("only one kernel backend is available")
        run, plan = GOLDEN_PLANS["random"]
        want = run(plan).to_json()
        other = o._backend.get_kernels(others[0])
        compiled = []
        real = other.compile_slp

        def recording(*args):
            compiled.append(args)
            return real(*args)

        monkeypatch.setattr(other, "compile_slp", recording)
        o._backend.set_backend(others[0])
        assert run(plan).to_json() == want
        assert compiled

    @pytest.mark.parametrize("bound", [0, 40, 300])
    def test_bounded_by_instructions(self, backend, monkeypatch, bound):
        monkeypatch.setattr(o.verify, "_CACHE_INSTRUCTIONS", bound)
        check = o.verify._check_formula_budget
        sizes = []

        def held_within_bound(length, rank, limit):
            # Runs before each suite call's first lookup of a formula.
            assert o.verify._held == sum(size for _, size in o.verify._cache.values())
            assert o.verify._held <= bound
            return check(length, rank, limit)

        def recording(program):
            sizes.append(len(program.code) // 3)
            return compile_program(program)

        compile_program = o.verify._compile_program
        monkeypatch.setattr(o.verify, "_check_formula_budget", held_within_bound)
        monkeypatch.setattr(o.verify, "_compile_program", recording)
        for suite, fault, digest in (param.values for param in GOLDEN):
            run, plan = GOLDEN_PLANS[suite]
            report = run(plan, inject_fault=fault)
            assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest
        assert o.verify._held == sum(size for _, size in o.verify._cache.values())
        assert o.verify._held <= bound
        assert max(sizes) > bound
        assert all(size <= bound for _, size in o.verify._cache.values())

    def test_least_recently_used_goes_first(self, backend, monkeypatch):
        # Room for the three formulas of length 4 below rank 4, exactly.
        sizes = [len(o.emit_slp(o.build_selection_expr(4, rank)).code) // 3 for rank in (1, 2, 3)]
        monkeypatch.setattr(o.verify, "_CACHE_INSTRUCTIONS", sum(sizes))
        exprs = o.verify._formulas(o.resolve_budget())
        for rank in (1, 2, 3):
            exprs(4, rank, "minmax")
        assert o.verify._held == sum(sizes)
        # A later suite call's hit makes (4, 1) the most recently used, so
        # the next formula evicts (4, 2).
        exprs = o.verify._formulas(o.resolve_budget())
        exprs(4, 1, "minmax")
        exprs(2, 1, "minmax")
        assert [key[1:] for key in o.verify._cache] == [
            (4, 3, "minmax"), (4, 1, "minmax"), (2, 1, "minmax")]
        assert o.verify._held == sizes[0] + sizes[2] + 1

    def test_threads_share_the_cache(self, backend, monkeypatch):
        # More threads than cores, switching often, all building, interning,
        # inserting and evicting: every report is right and the count of
        # held instructions stays exact.
        monkeypatch.setattr(o.verify, "_CACHE_INSTRUCTIONS", 200)
        plan = VerifyPlan(max_n=6, random_trials=40, seed=7)
        want = o.random_verify(plan).to_json()
        got = []

        def work():
            for _ in range(3):
                got.append(o.random_verify(plan).to_json())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [want] * 18
        assert o.verify._held == sum(size for _, size in o.verify._cache.values()) <= 200


class TestMedianNearOverflow:
    ALPHABET = (-1.7e308, -1e308, 1e308, 1.7e308)

    def test_oracle_mean_is_exact(self):
        assert o.verify._oracle_median([1e308, 1.5e308]) == 1.25e308
        assert o.verify._oracle_median([-1.5e308, -1e308]) == -1.25e308
        assert o.verify._oracle_median([4.0, 1.0]) == 2.5

    def test_clean(self, backend):
        assert o.exhaustive_verify(VerifyPlan(max_n=3, alphabet=self.ALPHABET)).ok

    def test_overflowing_median_caught(self, backend, monkeypatch):
        # The median of the code before the fix: (lo + hi) / 2, which is
        # an infinity when both middle values are large and of one sign.
        def overflowing(seq, *, budget=None):
            values = sorted(o.as_real_sequence(seq).values)
            half = len(values) // 2
            if len(values) % 2:
                return values[half]
            return (values[half - 1] + values[half]) / 2

        monkeypatch.setattr(o.verify, "median", overflowing)
        report = o.exhaustive_verify(VerifyPlan(max_n=2, alphabet=self.ALPHABET))
        assert not report.ok
        assert {f.mode for f in report.failures} == {"median"}
        assert {f.actual for f in report.failures} == {math.inf, -math.inf}
        assert all(math.isfinite(f.expected) for f in report.failures)


@pytest.mark.parametrize("tolerance", [math.inf, 10**400], ids=["inf", "10**400"])
def test_tolerance_must_be_finite(tolerance):
    # An infinite tolerance passes every arithmetic-form result.
    with pytest.raises(ValueError, match="^tolerance must be finite, got "):
        VerifyPlan(tolerance=tolerance)
