"""Tests for repro.metrics.report."""

from repro.metrics.report import format_table


class TestFormatTable:
    def test_basic_structure(self):
        table = format_table(["name", "value"], [["a", 1], ["b", 2]])
        lines = table.splitlines()
        assert len(lines) == 4  # header, separator, two rows
        assert "name" in lines[0]
        assert set(lines[1]) <= {"|", "-"}

    def test_title_prepended(self):
        table = format_table(["x"], [[1]], title="My Table")
        assert table.splitlines()[0] == "My Table"

    def test_float_formatting(self):
        table = format_table(["v"], [[3.14159]])
        assert "3.142" in table

    def test_large_float_thousands_separator(self):
        table = format_table(["v"], [[1234567.8]])
        assert "1,234,567.8" in table

    def test_int_thousands_separator(self):
        table = format_table(["v"], [[1000000]])
        assert "1,000,000" in table

    def test_nan_rendered(self):
        table = format_table(["v"], [[float("nan")]])
        assert "nan" in table

    def test_column_alignment(self):
        table = format_table(["col"], [["short"], ["a-much-longer-cell"]])
        lines = table.splitlines()
        widths = {len(line) for line in lines}
        assert len(widths) == 1  # all lines equal width
