"""Truncated power series: products, composition, reversion.

The reversion oracle here is independent of the library: Lagrange
inversion computes r_m = (1/m)·[u^(m-1)] (u/s(u))^m with local
list-based arithmetic only.  The library's kernel runs on integers over
one denominator per column; the `Fraction` kernel it replaced is kept
here as the plain reference that it must equal entry for entry.
"""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from selfaffine import classifier
from selfaffine.classifier import (
    check_conjugation, graph_form, normalize_at_fixed_point, solve_recenter
)
from selfaffine.series import (
    TruncatedSeries,
    _combine,
    _powers,
    _reverse_powers,
    _table,
    series_compose,
    series_reverse,
)


# The Fraction series kernel, as the library ran it before the integer kernel: the reference.
def fraction_mul(a, b, order):
    out = [Fraction(0)] * (order + 1)
    for i, ai in enumerate(a[: order + 1]):
        if ai == 0:
            continue
        top = order - i
        for j, bj in enumerate(b[: top + 1]):
            if bj != 0:
                out[i + j] += ai * bj
    return out


def fraction_combine(weights, rows, order):
    """Σⱼ weights[j]·rows[j] on coefficients 0..order, skipping zero weights and entries."""
    out = [Fraction(0)] * (order + 1)
    for weight, row in zip(weights, rows):
        if weight:
            for m, x in enumerate(row[: order + 1]):
                if x:
                    out[m] += weight * x
    return out


def fraction_powers(inner, order):
    """The table innerʲ, j = 0..order, each truncated at order."""
    table = [[Fraction(1)] + [Fraction(0)] * order]
    for _ in range(order):
        table.append(fraction_mul(table[-1], inner, order))
    return table


def fraction_reverse_powers(coeffs, order):
    """Table P[k][m] = [tᵐ] rᵏ (k, m ≤ order) of the reversion r = P[1] of coeffs."""
    powers = [[Fraction(0)] * (order + 1) for _ in range(order + 1)]
    powers[0][0], powers[1][1] = Fraction(1), 1 / coeffs[1]
    r = powers[1]
    for m in range(2, order + 1):
        for k in range(2, m + 1):
            terms = (r[i] * powers[k - 1][m - i] for i in range(1, m - k + 2))
            powers[k][m] = sum(terms, Fraction(0))
        residual = sum((coeffs[k] * powers[k][m] for k in range(2, m + 1)), Fraction(0))
        r[m] = -residual / coeffs[1]
    return powers


def table_rows(table):
    """A kernel table, integer columns over their denominators, as rows of Fractions."""
    return [[Fraction(column[k], den) for column, den in table] for k in range(len(table[0][0]))]


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
    """The Cauchy product of the reference kernel that the integer kernel is checked against."""

    def test_difference_of_squares(self):
        product = fraction_mul([Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)], 4)
        assert product == [Fraction(1), Fraction(0), Fraction(-1), Fraction(0), Fraction(0)]

    def test_truncation_drops_high_order(self):
        t = [Fraction(0), Fraction(1)]
        assert fraction_mul(t, t, 1) == [Fraction(0), Fraction(0)]

    def test_matches_local_oracle(self):
        rng = random.Random(2)
        for _ in range(20):
            order = rng.randint(1, 8)
            a = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(order + 1)]
            b = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(order + 1)]
            assert fraction_mul(a, b, order) == _mul_lists(a, b, order)


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
            powers = table_rows(_reverse_powers(coeffs, order))
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


LEADING = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-3), Fraction(7, 5),
           Fraction(-(10**12) - 39), Fraction(10**15 + 37, 7)]
KINDS = ["dense", "sparse", "negative", "large"]


def kernel_series(rng, kind, order, leading):
    """Zero constant term, the given linear coefficient, then order − 1 coefficients of a kind."""
    def coefficient():
        if kind == "sparse" and rng.random() < 0.7:
            return Fraction(0)
        if kind == "negative":
            return -Fraction(rng.randint(1, 9), rng.randint(1, 5))
        if kind == "large":
            return Fraction(rng.randint(-(10**12), 10**12), rng.randint(1, 10**6))
        return Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return [Fraction(0), leading] + [coefficient() for _ in range(order - 1)]


def kernel_orders(kind):
    """Orders 1..24 for every kind, and the order cap 64 for the small-coefficient kinds."""
    return list(range(1, 25)) + ([] if kind == "large" else [64])


class TestIntegerKernel:
    """The integer kernel against the Fraction reference, entry for entry."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_reverse_powers_equal_reference(self, kind):
        rng = random.Random(f"reverse:{kind}")
        for order in kernel_orders(kind):
            for leading in LEADING if order <= 12 else LEADING[order % len(LEADING):][:1]:
                coeffs = kernel_series(rng, kind, order, leading)
                expected = fraction_reverse_powers(coeffs, order)
                assert table_rows(_reverse_powers(coeffs, order)) == expected

    @pytest.mark.parametrize("kind", KINDS)
    def test_powers_equal_reference(self, kind):
        rng = random.Random(f"powers:{kind}")
        for order in kernel_orders(kind):
            inner = kernel_series(rng, kind, order, rng.choice(LEADING + [Fraction(0)]))
            assert table_rows(_powers(inner, order)) == fraction_powers(inner, order)

    @pytest.mark.parametrize("kind", KINDS)
    def test_combine_over_powers_equals_reference(self, kind):
        # the composition: zero weights included, and the whole weight row zero once
        rng = random.Random(f"compose:{kind}")
        for order in kernel_orders(kind):
            inner = kernel_series(rng, kind, order, rng.choice(LEADING))
            outer = kernel_series(rng, kind, order, rng.choice(LEADING))
            outer[0] = Fraction(rng.randint(-3, 3))
            for weights in (outer, [Fraction(0)] * (order + 1)):
                expected = fraction_combine(weights, fraction_powers(inner, order), order)
                assert _combine(weights, _powers(inner, order)) == expected

    @pytest.mark.parametrize("coordinates", [1, 2, 5])
    def test_combine_over_table_equals_reference(self, coordinates):
        # one or many coordinate rows, as normalize_at_fixed_point and _check_matrix combine them
        rng = random.Random(f"table:{coordinates}")
        for order in list(range(1, 25)) + [64]:
            kind = KINDS[order % len(KINDS)]
            rows = [kernel_series(rng, kind, order, rng.choice(LEADING))
                    for _ in range(coordinates)]
            weights = [rng.choice([Fraction(0), Fraction(rng.randint(-9, 9), rng.randint(1, 9))])
                       for _ in range(coordinates)]
            assert _combine(weights, _table(rows)) == fraction_combine(weights, rows, order)

    def test_table_clears_each_column(self):
        rows = [[Fraction(1, 2), Fraction(0), Fraction(-3)], [Fraction(1, 3), Fraction(5, 4), 2]]
        assert _table(rows) == [([3, 2], 6), ([0, 5], 4), ([-3, 2], 1)]

    def test_thirty_digit_coefficients(self):
        # unrelated 30-digit denominators against Lagrange inversion, and a round trip at the
        # order cap on 30-digit integers after a 30-digit linear coefficient
        rng = random.Random("thirty digits")
        def digits():
            return rng.randint(10**29, 10**30)
        coeffs = [Fraction(0), Fraction(-digits(), digits())]
        coeffs += [Fraction(rng.choice([-1, 1]) * digits(), digits()) for _ in range(19)]
        reverse = series_reverse(TruncatedSeries.from_coefficients(coeffs, 20))
        assert list(reverse.coefficients()) == lagrange_reversion(coeffs, 20)
        coeffs = [0, Fraction(-digits(), digits())]
        coeffs += [rng.choice([-1, 1]) * digits() for _ in range(63)]
        s = TruncatedSeries.from_coefficients(coeffs, 64)
        assert series_compose(s, series_reverse(s)) == TruncatedSeries.identity(64)


def as_reference_table(rows):
    """Rows of Fractions as a kernel table whose columns are over 1."""
    return [(column, 1) for column in zip(*rows)]


@pytest.fixture
def reference_kernels(monkeypatch):
    """Patch the classifier onto the Fraction reference kernel, in the table layout it reads."""
    def use():
        monkeypatch.setattr(classifier, "_table", lambda rows: as_reference_table(list(rows)))
        monkeypatch.setattr(classifier, "_combine", lambda weights, table: fraction_combine(
            weights, table_rows(table), len(table) - 1))
        monkeypatch.setattr(classifier, "_powers",
                            lambda inner, order: as_reference_table(fraction_powers(inner, order)))
        monkeypatch.setattr(classifier, "_reverse_powers", lambda coeffs, order: as_reference_table(
            fraction_reverse_powers(coeffs, order)))
    return use


def classifier_cases():
    """Germs A·η_p(φ(t)) + b with J = A and a dense φ; every other one has a coefficient moved."""
    rng = random.Random("classifier-cases")
    order = 16
    cases = []
    for profile in [(1, 2), (1, 3), (1, 2, 3), (1, 2, 4), (1, 3, 4, 6), (1, 2, 3, 4, 5)]:
        n = len(profile)
        phi = [Fraction(0), Fraction(1)] + [Fraction(rng.randint(-7, 7), rng.randint(1, 7))
                                            for _ in range(order - 1)]
        powers = fraction_powers(phi, order)
        # diagonally dominant, so invertible
        a = [[Fraction(rng.randint(2, 5)) if i == j else Fraction(rng.randint(-1, 1), rng.randint(1, 5))
              for j in range(n)] for i in range(n)]
        b = [Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(n)]
        coords = [[sum(a[i][j] * powers[p][m] for j, p in enumerate(profile)) for m in range(order + 1)]
                  for i in range(n)]
        for i in range(n):
            coords[i][0] += b[i]
        if len(cases) % 2:
            coords[-1][order - 3] += Fraction(1, 3)
        cases.append((TruncatedSeries(order, coords), a, profile))
    return cases


def conjugation_candidates(gf):
    """The diagonal model λ, λ^{p_k} for λ = −2/5, the same as a matrix, and a non-diagonal matrix."""
    ratio = Fraction(-2, 5)
    diagonal = [ratio] + [ratio**p for p in gf.exponents]
    n = len(diagonal)
    shear = [[Fraction(1, 2) if i == j else Fraction(i == 0 and j == 1) for j in range(n)]
             for i in range(n)]
    return diagonal, [[[x if i == j else Fraction(0) for j in range(n)] for i, x in enumerate(diagonal)],
                      shear]


class TestClassifierOnReferenceKernels:
    """The classifier's stages on the integer kernel equal the same stages on the reference."""

    def test_stages_equal_reference(self, reference_kernels):
        def stages(germ, a):
            normalized = normalize_at_fixed_point(germ, a)
            gf = graph_form(normalized)
            diagonal, matrices = conjugation_candidates(gf)
            return normalized, gf, check_conjugation(gf, diagonal), [check_conjugation(gf, m)
                                                                      for m in matrices]

        profiles = [(1,) + rest for size in range(9) for rest in combinations(range(2, 10), size)]
        assert len(profiles) == 256
        results = [stages(germ, a) for germ, a, _ in classifier_cases()]
        recentered = [solve_recenter(profile, Fraction(-5, 7)) for profile in profiles]
        reference_kernels()
        assert [stages(germ, a) for germ, a, _ in classifier_cases()] == results
        assert [solve_recenter(profile, Fraction(-5, 7)) for profile in profiles] == recentered
        # the cases reach the profiles built in, and both outcomes of both modes
        assert [gf.exponents for _, gf, _, _ in results] == [p[1:] for _, _, p in classifier_cases()]
        assert {diagonal.passed for _, _, diagonal, _ in results} == {True, False}
        assert {m.passed for *_, matrix in results for m in matrix} == {True, False}
