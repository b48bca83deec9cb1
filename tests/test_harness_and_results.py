"""Utility modules: bench harness statistics and result presentation."""


import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bench import (
    ResultTable,
    fit_log2_slope,
    inject_typo,
    make_name,
    make_title,
    mean,
    median,
    percentile,
    zipf_values,
)
from repro.core.results import QueryResult
from repro.net.trace import Trace
from repro.strings import edit_distance


class TestResultTable:
    def test_render_alignment(self):
        table = ResultTable("demo", ["name", "value"])
        table.add_row("a", 1)
        table.add_row("longer", 2.5)
        text = table.render()
        assert "== demo ==" in text
        lines = text.splitlines()
        assert len({len(line) for line in lines[1:]}) == 1  # equal widths

    def test_wrong_arity_rejected(self):
        table = ResultTable("t", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_markdown(self):
        table = ResultTable("t", ["x"])
        table.add_row(3.14159)
        md = table.markdown()
        assert md.startswith("| x |")
        assert "| 3.142 |" in md

    def test_float_formatting(self):
        table = ResultTable("t", ["v"])
        table.add_row(1234.5678)
        assert "1234.6" in table.render()


class TestStatisticsHelpers:
    def test_mean_median(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        assert mean([]) == 0.0
        assert median([1.0, 3.0, 2.0]) == 2.0

    def test_percentile_interpolates(self):
        values = [0.0, 10.0]
        assert percentile(values, 50) == 5.0
        assert percentile(values, 0) == 0.0
        assert percentile(values, 100) == 10.0
        assert percentile([], 50) == 0.0
        assert percentile([7.0], 99) == 7.0

    @given(st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=30))
    def test_percentile_bounds(self, values):
        p50 = percentile(values, 50)
        assert min(values) <= p50 <= max(values)

    def test_fit_log2_slope_exact(self):
        sizes = [16, 32, 64, 128]
        values = [4.0, 5.0, 6.0, 7.0]  # exactly log2
        assert fit_log2_slope(sizes, values) == pytest.approx(1.0)

    def test_fit_log2_slope_flat(self):
        assert fit_log2_slope([16, 64], [3.0, 3.0]) == pytest.approx(0.0)

    def test_fit_requires_two_points(self):
        with pytest.raises(ValueError):
            fit_log2_slope([16], [1.0])


class TestWorkloadHelpers:
    def test_zipf_uniform_degenerates(self):
        import random

        rng = random.Random(1)
        samples = zipf_values(rng, 10, 5000, s=0.0)
        counts = [samples.count(i) for i in range(10)]
        assert max(counts) < 2 * min(counts)  # roughly uniform

    def test_zipf_skew_concentrates(self):
        import random

        rng = random.Random(1)
        samples = zipf_values(rng, 10, 5000, s=1.5)
        assert samples.count(0) > len(samples) * 0.3

    def test_zipf_validates(self):
        import random

        with pytest.raises(ValueError):
            zipf_values(random.Random(0), 0, 10, 1.0)

    def test_inject_typo_one_edit(self):
        import random

        rng = random.Random(5)
        for _ in range(50):
            original = "conference"
            typo = inject_typo(rng, original)
            assert edit_distance(original, typo) <= 2  # transposition = 2 edits

    def test_name_and_title_generators(self):
        import random

        rng = random.Random(2)
        assert make_name(rng)[0].isupper()
        assert len(make_title(rng).split()) >= 3


class TestQueryResult:
    def _result(self):
        return QueryResult(
            rows=[{"a": 1, "b": "x"}, {"a": 2, "b": None}],
            variables=("a", "b"),
            trace=Trace(5, 3, 0.25),
        )

    def test_len_iter(self):
        result = self._result()
        assert len(result) == 2
        assert [r["a"] for r in result] == [1, 2]

    def test_metrics(self):
        result = self._result()
        assert result.answer_time == 0.25
        assert result.messages == 5

    def test_column(self):
        assert self._result().column("a") == [1, 2]

    def test_as_table_handles_none(self):
        text = self._result().as_table()
        assert "?a" in text and "?b" in text
        assert text.count("\n") == 3

    def test_as_table_truncates(self):
        result = QueryResult(rows=[{"v": i} for i in range(30)], variables=("v",))
        text = result.as_table(max_rows=5)
        assert "25 more rows" in text

    def test_as_table_empty(self):
        assert QueryResult(rows=[], variables=()).as_table() == "(no columns)"

    def test_sorted_rows_deterministic(self):
        first = QueryResult(rows=[{"a": 2}, {"a": 1}], variables=("a",))
        second = QueryResult(rows=[{"a": 1}, {"a": 2}], variables=("a",))
        assert first.sorted_rows() == second.sorted_rows()
