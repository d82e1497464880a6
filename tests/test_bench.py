import csv
import io
import json

import pytest

import ordstat as o
from ordstat import CSV_HEADER, BudgetError, OrdstatError, RankError


class TestCountCalls:
    def test_min_is_one_call(self):
        assert o.count_calls(5, 1) == 1

    def test_known_counts(self):
        # base-case calls follow (N - n + 2) ** (n - 1)
        assert o.count_calls(4, 3) == 9
        assert o.count_calls(3, 3) == 4
        assert o.count_calls(6, 4) == 4 ** 3

    def test_budget(self):
        with pytest.raises(BudgetError):
            o.count_calls(30, 15)


class TestGrowthTable:
    def test_row_count(self):
        assert len(o.growth_table(1, repeats=0)) == 1
        assert len(o.growth_table(8, repeats=0)) == 8 * 9 // 2

    def test_counts_match_closed_form(self):
        for rec in o.growth_table(6, repeats=0):
            assert rec.mode == "growth"
            assert rec.base_case_calls == (rec.N - rec.n + 2) ** (rec.n - 1)
            assert 0 <= rec.memo_hits < rec.base_case_calls or rec.n == 1

    def test_zero_repeats_is_byte_stable(self):
        a = o.records_to_csv(o.growth_table(5, repeats=0))
        b = o.records_to_csv(o.growth_table(5, repeats=0))
        assert a == b
        assert all(row.endswith(",0.0") for row in a.splitlines()[1:])

    def test_budget(self):
        with pytest.raises(BudgetError):
            o.growth_table(8, repeats=0, budget=100)


class TestCompareWallclock:
    def test_modes_and_shape(self):
        records = o.compare_wallclock(8, trials=2, seed=5)
        assert [r.mode for r in records] == ["memo", "expr", "oracle"]
        for rec in records:
            assert rec.N == 8 and rec.n == (8 + 1) // 2
            assert rec.wall_time_s >= 0.0

    def test_trivial_length(self):
        records = o.compare_wallclock(1, trials=1)
        assert [r.N for r in records] == [1, 1, 1]

    def test_memo_stats_recorded(self):
        memo = o.compare_wallclock(6, trials=1, seed=0)[0]
        assert memo.base_case_calls > 0

    def test_budget(self):
        with pytest.raises(BudgetError):
            o.compare_wallclock(40, trials=1, budget=10)


class TestBackendTable:
    def test_mode_labels(self):
        records = o.backend_table(6, 3, repeats=1)
        backends = o.available_backends()
        expected = {f"{mode}[{b}]" for b in backends for mode in ("naive", "memo")}
        assert {r.mode for r in records} == expected

    def test_budget(self):
        with pytest.raises(BudgetError):
            o.backend_table(30, 15, repeats=1)


class TestIntegralSizes:
    # Sizes that equal an integer are taken as that int, as
    # build_selection_expr and VerifyPlan take them; other values raise.
    def test_integral_values_taken_as_ints(self):
        assert o.growth_table(2.0, repeats=0.0) == o.growth_table(2, repeats=0)
        assert o.count_calls(5.0, 3) == o.count_calls(5, 3) == 16
        assert o.backend_table(5.0, 3.0, repeats=0) == o.backend_table(5, 3, repeats=0)
        for rec in o.compare_wallclock(True, 1.0) + o.compare_wallclock(5, 2.0):
            assert type(rec.N) is int and type(rec.n) is int

    @pytest.mark.parametrize("call,name", [
        (lambda: o.growth_table(2.5, repeats=0), "max_N"),
        (lambda: o.growth_table("2", repeats=0), "max_N"),
        (lambda: o.growth_table(2, repeats=0.5), "repeats"),
        (lambda: o.count_calls(5.5, 3), "length"),
        (lambda: o.backend_table(5.5, 3, repeats=0), "length"),
        (lambda: o.backend_table(5, 3, repeats=1.5), "repeats"),
        (lambda: o.compare_wallclock(5.5, 1), "length"),
        (lambda: o.compare_wallclock(5, 1.5), "trials"),
    ])
    def test_non_integral_sizes_refused(self, call, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            call()

    @pytest.mark.parametrize("call", [
        lambda: o.growth_table(2, repeats=-5),
        lambda: o.backend_table(4, 2, repeats=-1),
    ], ids=["growth_table", "backend_table"])
    def test_negative_repeats_refused(self, call):
        with pytest.raises(ValueError, match="^repeats must be nonnegative, got -"):
            call()

    def test_non_integral_rank_refused(self):
        with pytest.raises(RankError, match="^rank must be an integer"):
            o.backend_table(5, 2.5, repeats=0)


class TestSerialization:
    def test_csv_header(self):
        assert CSV_HEADER == ("N,n,mode,base_case_calls,memo_hits,"
                              "tree_nodes,dag_nodes,wall_time_s")

    def test_csv_round_trip(self):
        records = o.growth_table(4, repeats=0)
        text = o.records_to_csv(records)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == len(records)
        assert int(rows[0]["N"]) == records[0].N
        assert rows[0]["mode"] == "growth"
        assert float(rows[-1]["wall_time_s"]) == 0.0

    def test_json_round_trip(self):
        records = o.compare_wallclock(4, trials=1, seed=9)
        payload = json.loads(o.records_to_json(records))
        assert [item["mode"] for item in payload] == ["memo", "expr", "oracle"]
        assert set(payload[0]) == set(CSV_HEADER.split(","))

    def test_empty(self):
        assert o.records_to_csv([]) == CSV_HEADER + "\n"
        assert json.loads(o.records_to_json([])) == []


class TestCrossChecks:
    def test_growth_values_cross_checked(self):
        # growth_table itself compares naive and memo values and raises on
        # disagreement; a clean pass is the assertion here
        o.growth_table(7, repeats=0)

    def test_ordstat_error_is_catchable(self):
        assert issubclass(BudgetError, OrdstatError)
