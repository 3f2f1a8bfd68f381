"""Unit tests for shared helpers."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util import (
    block_count,
    ceil_div,
    check_multiple,
    check_positive_int,
    format_columns,
    format_si,
    format_table,
    is_power_of_two,
    isqrt_exact,
    next_power_of_two,
    pairwise_ratios,
    require,
    round_up,
)


class TestValidation:
    def test_require(self):
        require(True, "never")
        with pytest.raises(ValueError, match="boom"):
            require(False, "boom")

    def test_check_positive_int(self):
        assert check_positive_int(3, "x") == 3
        with pytest.raises(ValueError):
            check_positive_int(0, "x")
        with pytest.raises(TypeError):
            check_positive_int(1.5, "x")
        with pytest.raises(TypeError):
            check_positive_int(True, "x")  # bools are not sizes

    def test_check_multiple(self):
        check_multiple(12, 4)
        with pytest.raises(ValueError):
            check_multiple(12, 5)
        with pytest.raises(ValueError):
            check_multiple(0, 4)


class TestIntegerGeometry:
    def test_ceil_div(self):
        assert ceil_div(7, 2) == 4
        assert ceil_div(8, 2) == 4
        assert ceil_div(0, 3) == 0
        with pytest.raises(ValueError):
            ceil_div(1, 0)

    def test_round_up(self):
        assert round_up(7, 4) == 8
        assert round_up(8, 4) == 8

    def test_powers_of_two(self):
        assert is_power_of_two(1)
        assert is_power_of_two(64)
        assert not is_power_of_two(0)
        assert not is_power_of_two(12)
        assert next_power_of_two(5) == 8
        assert next_power_of_two(8) == 8

    def test_block_count(self):
        assert block_count(100, 32) == 4

    def test_isqrt_exact(self):
        assert isqrt_exact(49) == 7
        with pytest.raises(ValueError):
            isqrt_exact(50)


class TestFormatting:
    def test_format_si(self):
        assert format_si(0) == "0"
        assert format_si(2_000_000) == "2M"
        assert format_si(3400) == "3.4K"
        assert format_si(12) == "12"
        assert format_si(0.25) == "0.25"
        assert format_si(2.5e9) == "2.5G"

    def test_format_si_picks_suffix_after_rounding(self):
        # 3-significant-figure rounding that reaches 1000 moves up a
        # suffix instead of printing exponent notation.
        assert format_si(999_950.0) == "1M"
        assert format_si(-999_950.0) == "-1M"
        assert format_si(9.9995e8) == "1G"
        assert format_si(999_949.0) == "1M"
        assert format_si(999_499.0) == "999K"
        assert format_si(999.95) == "1000"  # unscaled: 4 figures, no suffix
        assert format_si(1.5e13) == "1.5e+04G"  # nothing above G

    def test_format_si_non_finite(self):
        assert format_si(float("inf")) == "inf"
        assert format_si(float("-inf")) == "-inf"
        assert format_si(float("nan")) == "nan"

    @given(st.lists(st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([0.0, -0.0, 1.0, 999.5, 999.95, 1e3, 999_500.0,
                         999_949.99, 999_950.0, 9.995e8, 9.9995e8, 1e9,
                         1e12, -999_950.0]).flatmap(
            lambda x: st.sampled_from([x, math.nextafter(x, 0.0),
                                       math.nextafter(x, math.inf)]))),
        max_size=40))
    def test_float_columns_format_like_format_si(self, xs):
        lines = format_columns(["x"], [xs]).splitlines()[2:]
        assert [line.rstrip() for line in lines] == [format_si(x)
                                                     for x in xs]

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError, match=r"row 1 has 1 cells for 2"):
            format_table(["a", "b"], [[1, 2], [4]])
        with pytest.raises(ValueError, match=r"row 0 has 3 cells for 2"):
            format_table(["a", "b"], [[1, 2, 3]])

    def test_format_table_matches_columns(self):
        rows = [[1, 2.5, "x", True, None], [333, 1_500_000.0, "yy", False,
                                            float("nan")]]
        headers = ["a", "b", "c", "d", "e"]
        assert format_table(headers, rows, title="T") == format_columns(
            headers, list(zip(*rows)), title="T")
        assert format_table(headers, rows).splitlines() == [
            "a    b     c   d      e   ",
            "---  ----  --  -----  ----",
            "1    2.5   x   True   None",
            "333  1.5M  yy  False  nan ",
        ]
        assert format_table(["a"], []) == "a\n-"

    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [[1, 2], [333, 4]], title="T")
        lines = out.split("\n")
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        # Separator width matches widest cell.
        assert lines[2].startswith("---")

    def test_format_table_float_cells(self):
        out = format_table(["x"], [[1_500_000.0]])
        assert "1.5M" in out

    def test_pairwise_ratios(self):
        assert pairwise_ratios([1, 2, 8]) == [2.0, 4.0]
        with pytest.raises(ValueError):
            pairwise_ratios([0, 1])


@given(st.integers(min_value=0, max_value=10**9),
       st.integers(min_value=1, max_value=10**6))
def test_property_ceil_div_round_up(a, b):
    assert ceil_div(a, b) * b >= a
    assert ceil_div(a, b) * b - a < b
    assert round_up(a, b) % b == 0


@given(st.integers(min_value=1, max_value=10**9))
def test_property_next_power_of_two(n):
    p = next_power_of_two(n)
    assert is_power_of_two(p)
    assert p >= n
    assert p < 2 * n or n == 1
