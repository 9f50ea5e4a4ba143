"""Truncated power series: products, composition, reversion.

The reversion oracle here is independent of the library: Lagrange
inversion computes r_m = (1/m)·[u^(m-1)] (u/s(u))^m with local
list-based arithmetic only.
"""

import random
from fractions import Fraction

import pytest

from selfaffine.series import (
    TruncatedSeries,
    _mul,
    _reverse_powers,
    series_compose,
    series_reverse,
)


def _mul_lists(a, b, order):
    """Local Cauchy product, independent of the library implementation."""
    out = [Fraction(0)] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        if x == 0:
            continue
        for j, y in enumerate(b[: order + 1 - i]):
            out[i + j] += x * y
    return out


def horner_compose(outer, inner, order):
    """Local Horner composition outer∘inner, independent of the library implementation."""
    result = [Fraction(0)] * (order + 1)
    for coefficient in reversed(list(outer[: order + 1])):
        result = _mul_lists(result, inner, order)
        result[0] += coefficient
    return result


def _reciprocal_list(c, order):
    """1 / (c0 + c1 u + ...) with c0 != 0, by back-substitution."""
    assert c[0] != 0
    inv = [Fraction(0)] * (order + 1)
    inv[0] = 1 / Fraction(c[0])
    for m in range(1, order + 1):
        acc = Fraction(0)
        for k in range(1, m + 1):
            if k < len(c):
                acc += c[k] * inv[m - k]
        inv[m] = -acc / c[0]
    return inv


def lagrange_reversion(coeffs, order):
    """Independent oracle: r_m = (1/m)[u^(m-1)] (u/s(u))^m."""
    assert coeffs[0] == 0 and coeffs[1] != 0
    # u/s(u) = 1 / (s1 + s2 u + ...)
    shifted = list(coeffs[1:]) + [Fraction(0)]
    q = _reciprocal_list(shifted, order)
    result = [Fraction(0)] * (order + 1)
    power = [Fraction(1)] + [Fraction(0)] * order  # q^0
    for m in range(1, order + 1):
        power = _mul_lists(power, q, order)
        result[m] = power[m - 1] / m
    return result


def reference_reverse(coeffs, order):
    """Plain reversion: the composition residual at every order, O(N⁴)."""
    result = [Fraction(0)] * (order + 1)
    result[1] = 1 / coeffs[1]
    for m in range(2, order + 1):
        result[m] = -horner_compose(coeffs, result, m)[m] / coeffs[1]
    return result


def seeded_series(rng, order, sparse):
    """A series with zero constant term and a non-unit or negative linear term."""
    coeffs = [Fraction(0), Fraction(rng.choice([1, -1, 2, -3, 5]), rng.choice([1, 2, 7]))]
    for _ in range(order - 1):
        if sparse and rng.random() < 0.7:
            coeffs.append(Fraction(0))
        else:
            coeffs.append(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    return coeffs


class TestConstruction:
    def test_from_coefficients_pads(self):
        s = TruncatedSeries.from_coefficients([0, 1], 4)
        assert s.coefficients() == (Fraction(0), Fraction(1), Fraction(0),
                                    Fraction(0), Fraction(0))

    def test_from_coefficients_rejects_overflow(self):
        with pytest.raises(ValueError):
            TruncatedSeries.from_coefficients([1, 2, 3], 1)

    def test_from_rows(self):
        s = TruncatedSeries.from_rows([[0, 1], [0, 0, 1]], 3)
        assert s.dim == 2
        assert s.coordinate(1).coefficients() == (Fraction(0), Fraction(0),
                                                  Fraction(1), Fraction(0))

    def test_truncate(self):
        s = TruncatedSeries.from_coefficients([1, 2, 3, 4], 3)
        assert s.truncate(1).coefficients() == (Fraction(1), Fraction(2))
        with pytest.raises(ValueError):
            s.truncate(9)

    def test_identity(self):
        assert TruncatedSeries.identity(3).coefficients() == (
            Fraction(0), Fraction(1), Fraction(0), Fraction(0)
        )


class TestMultiply:
    """The Cauchy product kernel that _powers builds its table with."""

    def test_difference_of_squares(self):
        product = _mul([Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)], 4)
        assert product == [Fraction(1), Fraction(0), Fraction(-1), Fraction(0), Fraction(0)]

    def test_truncation_drops_high_order(self):
        t = [Fraction(0), Fraction(1)]
        assert _mul(t, t, 1) == [Fraction(0), Fraction(0)]

    def test_matches_local_oracle(self):
        rng = random.Random(2)
        for _ in range(20):
            order = rng.randint(1, 8)
            a = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(order + 1)]
            b = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(order + 1)]
            assert _mul(a, b, order) == _mul_lists(a, b, order)


class TestCompose:
    def test_hand_example(self):
        s = TruncatedSeries.from_coefficients([0, 1, 1], 4)   # t + t^2
        inner = TruncatedSeries.from_coefficients([0, 0, 1], 4)  # t^2
        composed = series_compose(s, inner)
        assert composed.coefficients() == (Fraction(0), Fraction(0), Fraction(1),
                                           Fraction(0), Fraction(1))

    def test_rejects_nonzero_inner_constant(self):
        s = TruncatedSeries.from_coefficients([0, 1], 3)
        inner = TruncatedSeries.from_coefficients([1, 1], 3)
        with pytest.raises(ValueError):
            series_compose(s, inner)

    def test_vector_germ_composes_per_coordinate(self):
        # compose is one-dimensional by contract; vector germs go
        # coordinate by coordinate (how the classifier reparametrizes).
        curve = TruncatedSeries.from_rows([[0, 1], [0, 0, 1]], 4)
        inner = TruncatedSeries.from_coefficients([0, 2], 4)
        with pytest.raises(ValueError):
            series_compose(curve, inner)
        first = series_compose(curve.coordinate(0), inner)
        second = series_compose(curve.coordinate(1), inner)
        assert first.coefficients() == (
            Fraction(0), Fraction(2), Fraction(0), Fraction(0), Fraction(0)
        )
        assert second.coefficients() == (
            Fraction(0), Fraction(0), Fraction(4), Fraction(0), Fraction(0)
        )

    def test_compose_associative(self):
        rng = random.Random(4)
        order = 6
        def germ():
            coeffs = [Fraction(0)] + [Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                                      for _ in range(order)]
            return TruncatedSeries.from_coefficients(coeffs, order)
        for _ in range(5):
            a, b, c = germ(), germ(), germ()
            left = series_compose(series_compose(a, b), c)
            right = series_compose(a, series_compose(b, c))
            assert left.coefficients() == right.coefficients()

    @pytest.mark.parametrize("kind", ["dense", "sparse", "negative"])
    def test_equals_horner_reference(self, kind):
        rng = random.Random(f"compose:{kind}")

        def coefficient():
            if kind == "sparse" and rng.random() < 0.7:
                return Fraction(0)
            if kind == "negative":
                return -Fraction(rng.randint(1, 9), rng.randint(1, 5))
            return Fraction(rng.randint(-9, 9), rng.randint(1, 5))

        for order in range(1, 17):
            outer = [coefficient() for _ in range(order + 1)]
            inner = [Fraction(0)] + [coefficient() for _ in range(order)]
            composed = series_compose(TruncatedSeries.from_coefficients(outer, order),
                                      TruncatedSeries.from_coefficients(inner, order))
            assert list(composed.coefficients()) == horner_compose(outer, inner, order)


class TestReverse:
    def test_catalan_oracle_frozen(self):
        # reverse(t + t^2) = t - t^2 + 2t^3 - 5t^4 + 14t^5 - 42t^6 + ...
        s = TruncatedSeries.from_coefficients([0, 1, 1], 8)
        r = series_reverse(s)
        assert r.coefficients() == (
            Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(-5),
            Fraction(14), Fraction(-42), Fraction(132), Fraction(-429),
        )

    def test_matches_lagrange_oracle(self):
        rng = random.Random(31)
        for _ in range(10):
            order = rng.randint(2, 10)
            coeffs = [Fraction(0), Fraction(rng.randint(1, 4), rng.randint(1, 3))]
            coeffs += [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                       for _ in range(order - 1)]
            s = TruncatedSeries.from_coefficients(coeffs, order)
            mine = series_reverse(s)
            oracle = lagrange_reversion(coeffs, order)
            assert list(mine.coefficients()) == oracle

    def test_round_trip_composition(self):
        rng = random.Random(13)
        for _ in range(10):
            order = rng.randint(2, 12)
            coeffs = [Fraction(0), Fraction(rng.choice([1, -1, 2, 3]))]
            coeffs += [Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                       for _ in range(order - 1)]
            s = TruncatedSeries.from_coefficients(coeffs, order)
            r = series_reverse(s)
            expected = tuple([Fraction(0), Fraction(1)] + [Fraction(0)] * (order - 1))
            assert series_compose(s, r).coefficients() == expected
            assert series_compose(r, s).coefficients() == expected

    def test_scaled_identity(self):
        s = TruncatedSeries.from_coefficients([0, 2], 5)
        assert series_reverse(s).coefficients() == (
            Fraction(0), Fraction(1, 2), Fraction(0), Fraction(0), Fraction(0),
            Fraction(0),
        )

    @pytest.mark.parametrize("sparse", [False, True])
    def test_equals_plain_reference(self, sparse):
        rng = random.Random(97 + sparse)
        for order in range(1, 25):
            coeffs = seeded_series(rng, order, sparse)
            mine = series_reverse(TruncatedSeries.from_coefficients(coeffs, order))
            assert list(mine.coefficients()) == reference_reverse(coeffs, order)

    def test_power_table_holds_the_powers(self):
        rng = random.Random(5)
        for order in (1, 2, 7, 12):
            coeffs = seeded_series(rng, order, False)
            powers = _reverse_powers(coeffs, order)
            r = reference_reverse(coeffs, order)
            expected = [Fraction(1)] + [Fraction(0)] * order
            for k in range(order + 1):
                assert powers[k] == expected
                expected = _mul_lists(expected, r, order)

    def test_rejects_bad_germs(self):
        with pytest.raises(ValueError):
            series_reverse(TruncatedSeries.from_coefficients([1, 1], 3))
        with pytest.raises(ValueError):
            series_reverse(TruncatedSeries.from_coefficients([0, 0, 1], 3))
