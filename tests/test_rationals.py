"""Rational parsing, formatting, and the exact square-root ceiling."""

from fractions import Fraction

import pytest

from selfaffine.rationals import (
    format_rational,
    parse_rational,
    sqrt_upper_bound,
)


class TestParseRational:
    def test_plain_fraction(self):
        assert parse_rational("3/4") == Fraction(3, 4)

    def test_negative_numerator(self):
        assert parse_rational("-7/5") == Fraction(-7, 5)

    def test_integer(self):
        assert parse_rational("12") == Fraction(12)
        assert parse_rational("-3") == Fraction(-3)

    def test_whitespace(self):
        assert parse_rational("  1 / 2 ") == Fraction(1, 2)

    def test_reduces(self):
        assert parse_rational("6/4") == Fraction(3, 2)

    @pytest.mark.parametrize("bad", ["0.5", "1e3", "", "3/0", "3/-4", "a/b", "1/2/3", True, False])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)


class TestFormatRational:
    def test_integer_without_slash(self):
        assert format_rational(Fraction(5)) == "5"

    def test_fraction(self):
        assert format_rational(Fraction(-3, 7)) == "-3/7"

    def test_round_trip(self):
        for value in [Fraction(0), Fraction(22, 7), Fraction(-9, 4), Fraction(10**9, 7)]:
            assert parse_rational(format_rational(value)) == value


class TestSqrtUpperBound:
    def test_sqrt_two_frozen(self):
        # oracle: 1414213^2 = 1999998409369 < 2*10^12 < 1414214^2 = 2000001237796
        assert sqrt_upper_bound(2) == Fraction(1414214, 10**6)

    def test_perfect_square_is_strict(self):
        # the bound is strictly above sqrt(4) = 2
        assert sqrt_upper_bound(4) == Fraction(2000001, 10**6)

    @pytest.mark.parametrize("x", [Fraction(2), Fraction(3), Fraction(5), Fraction(1, 2), Fraction(99, 7)])
    def test_tightness(self, x):
        bound = sqrt_upper_bound(x)
        step = Fraction(1, 10**6)
        assert bound * bound > x
        assert (bound - step) * (bound - step) <= x

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            sqrt_upper_bound(Fraction(-1))
