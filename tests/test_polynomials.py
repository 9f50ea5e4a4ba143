"""Sparse multivariate polynomials, scaling factors, fixed-point sweeps."""

import random
import tracemalloc
from fractions import Fraction

import pytest

from selfaffine import polynomials
from selfaffine.affine import AffineMap, compose, invert
from selfaffine.polynomials import (
    MultiPoly,
    compose_affine,
    evaluate,
    format_polynomial,
    is_self_affine_pair,
    parse_polynomial,
    scaling_certificate,
    scaling_constant,
    verify_fixed_points_on_surface,
)


def half_map():
    return AffineMap(
        [[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(1, 2)]],
        [Fraction(0), Fraction(0)],
    )


def shifted_half_map():
    return AffineMap(
        [[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(1, 2)]],
        [Fraction(1, 2), Fraction(1, 2)],
    )


def antidiagonal_line():
    # P(x1, x2) = x2 - x1
    return MultiPoly(2, {(0, 1): Fraction(1), (1, 0): Fraction(-1)})


class TestMultiPolyAlgebra:
    def test_binomial_square(self):
        x = MultiPoly(2, {(1, 0): 1})
        y = MultiPoly(2, {(0, 1): 1})
        left = (x + y) * (x + y)
        right = x * x + 2 * (x * y) + y * y
        assert left == right

    def test_zero_and_degree(self):
        zero = MultiPoly.zero(3)
        assert zero.is_zero
        assert zero.degree == -1
        assert MultiPoly(3, {(0, 0, 0): Fraction(5)}).degree == 0

    def test_evaluate_exact(self):
        p = parse_polynomial("x1^2 * x2 - 3/2 * x2 + 1")
        value = evaluate(p, (Fraction(2), Fraction(1, 3)))
        assert value == Fraction(4) * Fraction(1, 3) - Fraction(3, 2) * Fraction(1, 3) + 1

    def test_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            MultiPoly(2, {(1,): Fraction(1)})
        with pytest.raises(ValueError):
            MultiPoly(2, {(-1, 0): Fraction(1)})


class TestParseFormat:
    def test_circle_round_trip(self):
        p = parse_polynomial("x1^2 + x2^2 - 1")
        assert p == MultiPoly(2, {(2, 0): Fraction(1), (0, 2): Fraction(1),
                                  (0, 0): Fraction(-1)})
        assert parse_polynomial(format_polynomial(p)) == p

    def test_coefficients_and_products(self):
        p = parse_polynomial("3/2 * x1 * x2^3 - x2")
        assert p.terms[(1, 3)] == Fraction(3, 2)
        assert p.terms[(0, 1)] == Fraction(-1)

    def test_dim_is_the_largest_variable_index(self):
        assert parse_polynomial("x3").dim == 3
        assert parse_polynomial("x2 + x1").dim == 2
        assert parse_polynomial("5").dim == 1

    @pytest.mark.parametrize("bad", ["x1^-2", "x0", "1 +", "* x1", "x1^", "y1", "x1^x2"])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_polynomial(bad)

    def test_format_zero(self):
        assert format_polynomial(MultiPoly.zero(2)) == "0"

    @pytest.mark.parametrize("text, cap", [
        ("x1000000000", "variable x1000000000 is above the cap x64"),
        ("x65 + 1", "variable x65 is above the cap x64"),
        ("x1^1000000 + x2^2 - 1", "exponent 1000000 of x1 is above the cap 64"),
        ("x2^40 * x1 * x2^40", "exponent 80 of x2 is above the cap 64"),
    ])
    def test_caps_reject_before_allocating(self, text, cap):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=cap):
                parse_polynomial(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_caps_admit_their_limits(self):
        p = parse_polynomial("x64^64 + x1")
        assert p.dim == 64
        assert p.degree == 64


class TestComposeAffine:
    def test_matches_pointwise_evaluation(self):
        rng = random.Random(21)
        for _ in range(20):
            dim = rng.choice([1, 2, 3])
            terms = {}
            for _ in range(rng.randint(1, 5)):
                expo = tuple(rng.randint(0, 2) for _ in range(dim))
                terms[expo] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            p = MultiPoly(dim, terms)
            f = AffineMap(
                [[Fraction(rng.randint(-3, 3), 4) for _ in range(dim)] for _ in range(dim)],
                [Fraction(rng.randint(-2, 2)) for _ in range(dim)],
            )
            composed = compose_affine(p, f)
            for _ in range(5):
                x = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                          for _ in range(dim))
                assert evaluate(composed, x) == evaluate(p, f(x))

    def test_work_guard_rejects_before_expanding(self):
        # dense 3×3 map: degree 64 allows C(67, 3) = 47,905 monomials
        p = parse_polynomial("x1^64 + x2^64 + x3^64 - 1")
        f = AffineMap(
            [[Fraction(1, 3), Fraction(1, 5), Fraction(-1, 7)],
             [Fraction(1, 7), Fraction(-1, 4), Fraction(1, 6)],
             [Fraction(-1, 5), Fraction(1, 8), Fraction(1, 3)]],
            [Fraction(1, 2), Fraction(-1, 3), Fraction(1, 5)],
        )
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="47905 monomials.*above the guard 10000000"):
                compose_affine(p, f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_work_guard_admits_its_limit(self):
        # two variables: C(80, 2)² = 3,160² is below 10⁷, C(81, 2)² = 3,240² above it
        assert compose_affine(MultiPoly(2, {(78, 0): 1}), half_map()) == MultiPoly(
            2, {(78, 0): Fraction(1, 2**78)})
        with pytest.raises(ValueError, match="3240 monomials"):
            compose_affine(MultiPoly(2, {(79, 0): 1}), half_map())

    def test_work_guard_admits_eight_variables_at_degree_four(self):
        p = parse_polynomial(" + ".join(f"x{i}^4" for i in range(1, 9)) + " - 1")
        f = AffineMap([[Fraction(1, 2) if i == j else Fraction(0) for j in range(8)]
                       for i in range(8)], [Fraction(0)] * 8)
        assert compose_affine(p, f) == MultiPoly(
            8, {**{key: Fraction(1, 16) for key in p.terms if sum(key)}, (0,) * 8: -1})


def _fraction_compose_affine(poly, f):
    """P∘f expanded over Fraction coefficients: compose_affine before it ran on integers."""
    n = poly.dim
    units = [tuple(int(k == j) for k in range(n)) for j in range(n)]
    forms = [MultiPoly(n, {**dict(zip(units, f.matrix[i])), (0,) * n: f.translation[i]})
             for i in range(n)]
    needed = [max((exponent[i] for exponent in poly.terms), default=0) for i in range(n)]
    powers = []
    for i in range(n):
        ladder = [MultiPoly(n, {(0,) * n: 1})]
        for _ in range(needed[i]):
            ladder.append(ladder[-1] * forms[i])
        powers.append(ladder)
    result = MultiPoly.zero(n)
    for exponent, coefficient in poly.terms.items():
        term = MultiPoly(n, {(0,) * n: coefficient})
        for i, e in enumerate(exponent):
            if e:
                term = term * powers[i][e]
        result = result + term
    return result


def _random_rational(rng, top=7):
    return Fraction(rng.randint(-top, top), rng.randint(1, top))


def _random_poly(rng, n):
    kind = rng.choice(["zero", "constant", "general", "general", "general"])
    if kind == "zero":
        return MultiPoly.zero(n)
    if kind == "constant":
        return MultiPoly(n, {(0,) * n: _random_rational(rng) or 1})
    degree = rng.randint(1, 4)
    terms = {}
    for _ in range(rng.randint(1, 8)):
        exponent = [0] * n
        for _ in range(rng.randint(0, degree)):
            exponent[rng.randrange(n)] += 1
        terms[tuple(exponent)] = _random_rational(rng)
    return MultiPoly(n, terms)


def _random_affine(rng, n):
    kind = rng.choice(["dense", "dense", "sparse", "translation", "singular", "zero"])
    if kind == "translation":  # x ↦ x + a
        matrix = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    elif kind == "zero":  # the constant map x ↦ a
        matrix = [[Fraction(0)] * n for _ in range(n)]
    else:
        matrix = [[_random_rational(rng) if kind == "dense" or rng.random() < 0.3 else Fraction(0)
                   for _ in range(n)] for _ in range(n)]
        if kind == "singular":  # the last row repeats the first, times a rational
            matrix[-1] = [_random_rational(rng) * x for x in matrix[0]]
    translation = [_random_rational(rng) if rng.random() < 0.8 else Fraction(0) for _ in range(n)]
    return AffineMap(matrix, translation)


class TestIntegerExpansion:
    def test_equals_the_fraction_expansion_term_for_term(self):
        rng = random.Random(29)
        for _ in range(300):
            n = rng.randint(1, 4)
            p, f = _random_poly(rng, n), _random_affine(rng, n)
            composed, reference = compose_affine(p, f), _fraction_compose_affine(p, f)
            assert composed == reference
            # the same monomials in the same order, which float sums over the terms follow
            assert list(composed.terms.items()) == list(reference.terms.items())
            for _ in range(3):
                x = tuple(_random_rational(rng, 9) for _ in range(n))
                assert evaluate(composed, x) == evaluate(p, f(x))

    def test_pullbacks_equal_the_fraction_expansion(self):
        p, f = parse_polynomial("x1^2 + x2^2 - 1"), AffineMap(
            [[Fraction(3, 10), Fraction(-2, 5)], [Fraction(2, 5), Fraction(3, 10)]],
            [Fraction(1, 7), Fraction(-1, 9)])
        inverse = invert(f)
        ours = theirs = p
        for _ in range(6):
            ours, theirs = compose_affine(ours, inverse), _fraction_compose_affine(theirs, inverse)
            assert list(ours.terms.items()) == list(theirs.terms.items())

    def test_a_cancelled_monomial_comes_back_last(self):
        # x1 − x2 + x1·x2 under x ↦ (x1 + x2 + 1, x2): the second term cancels the x2 of the
        # first, and the third brings it back, after the monomials the first two leave
        p = MultiPoly(2, {(1, 0): 1, (0, 1): -1, (1, 1): 1})
        f = AffineMap([[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]], [1, 0])
        composed = compose_affine(p, f)
        assert list(composed.terms) == [(1, 0), (0, 0), (1, 1), (0, 2), (0, 1)]
        assert list(composed.terms.items()) == list(_fraction_compose_affine(p, f).terms.items())


class TestScalingConstant:
    def test_printed_pair_constants_are_half(self):
        p = antidiagonal_line()
        assert scaling_constant(p, half_map()) == Fraction(1, 2)
        assert scaling_constant(p, shifted_half_map()) == Fraction(1, 2)

    def test_circle_has_none_under_half(self):
        circle = parse_polynomial("x1^2 + x2^2 - 1")
        assert scaling_constant(circle, half_map()) is None

    def test_homogeneous_quadratic(self):
        p = parse_polynomial("x1^2 + x2^2")
        assert scaling_constant(p, half_map()) == Fraction(1, 4)

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            scaling_constant(MultiPoly.zero(2), half_map())

    def test_dimension_mismatch_rejected(self):
        p = parse_polynomial("x1 + x2 + x3")
        with pytest.raises(ValueError):
            scaling_constant(p, half_map())


class TestScalingCertificate:
    def test_certificate_on_printed_maps(self):
        p = antidiagonal_line()
        cert = scaling_certificate(p, half_map())
        assert cert is not None
        assert cert.constant == Fraction(1, 2)
        assert cert.fixed_point_value == 0

    def test_none_when_not_scaling(self):
        circle = parse_polynomial("x1^2 + x2^2 - 1")
        assert scaling_certificate(circle, half_map()) is None

    def test_requires_contractive(self):
        p = antidiagonal_line()
        double = AffineMap(
            [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(2)]],
            [Fraction(0), Fraction(0)],
        )
        with pytest.raises(ValueError):
            scaling_certificate(p, double)

    def test_requires_invertible(self):
        # f(x) = (x1/2, x1/2) is a singular scaling factor of x2 − x1, with C = 0
        p = antidiagonal_line()
        flat = AffineMap(
            [[Fraction(1, 2), Fraction(0)], [Fraction(1, 2), Fraction(0)]],
            [Fraction(0), Fraction(0)],
        )
        assert scaling_constant(p, flat) == 0
        with pytest.raises(ValueError, match="map is not invertible"):
            scaling_certificate(p, flat)

    def test_only_a_factor_is_certified(self, monkeypatch):
        # 2·I is no contraction, but the circle has no scaling factor 2·I to certify
        def refused(f, where="map"):
            raise AssertionError("the map was certified")

        monkeypatch.setattr(polynomials, "certify_admissible", refused)
        circle = parse_polynomial("x1^2 + x2^2 - 1")
        double = AffineMap(
            [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(2)]],
            [Fraction(0), Fraction(0)],
        )
        assert scaling_certificate(circle, double) is None


class TestSelfAffinePair:
    def test_printed_pair_is_self_affine(self):
        assert is_self_affine_pair(antidiagonal_line(), half_map(), shifted_half_map())

    def test_same_fixed_point_fails(self):
        p = antidiagonal_line()
        f = half_map()
        assert not is_self_affine_pair(p, f, compose(f, f))

    def test_non_scaling_member_fails(self):
        circle = parse_polynomial("x1^2 + x2^2 - 1")
        assert not is_self_affine_pair(circle, half_map(), shifted_half_map())


class TestFixedPointSweep:
    def test_depth_three_words_all_on_surface(self):
        p = antidiagonal_line()
        maps = [half_map(), shifted_half_map()]
        report = verify_fixed_points_on_surface(p, maps, 3)
        assert report.ok
        assert report.words_checked == 2 + 4 + 8
        assert not report.violations
        for check in report.checks:
            assert check.fixed_point_value == 0
            assert check.constant == Fraction(1, 2) ** len(check.word)

    def test_rejects_non_scaling_map(self):
        circle = parse_polynomial("x1^2 + x2^2 - 1")
        with pytest.raises(ValueError):
            verify_fixed_points_on_surface(circle, [half_map()], 2)

    def test_word_budget_guard(self):
        p = antidiagonal_line()
        maps = [half_map(), shifted_half_map()]
        with pytest.raises(ValueError):
            verify_fixed_points_on_surface(p, maps, 64)

    # each violation can fire only where the code it guards is wrong: every word's composite
    # is a scaling factor (P∘(f∘g) = C_f·C_g·P) with |C| < 1, and P vanishes at its fixed point
    def test_non_scaling_composite_is_reported(self, monkeypatch):
        # P(x/2, x2/4) = x2/4 − x1/2 is no multiple of x2 − x1
        skew = AffineMap([[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(1, 4)]], [0, 0])
        monkeypatch.setattr(polynomials, "compose", lambda f, g: skew)
        report = verify_fixed_points_on_surface(antidiagonal_line(),
                                                [half_map(), shifted_half_map()], 2)
        assert report.words_checked == 2
        assert report.violations == tuple(f"word {word}: composite is not a scaling factor"
                                          for word in [(0, 0), (0, 1), (1, 0), (1, 1)])

    def test_expanding_composite_is_reported(self, monkeypatch):
        # P∘(2·I) = 2·P, and 2·I fixes 0, which lies on the line: only |C| is wrong
        double = AffineMap([[Fraction(2), Fraction(0)], [Fraction(0), Fraction(2)]], [0, 0])
        monkeypatch.setattr(polynomials, "compose", lambda f, g: double)
        report = verify_fixed_points_on_surface(antidiagonal_line(), [half_map()], 2)
        assert report.words_checked == 2
        assert report.violations == ("word (0, 0): |C| = 2 is not below 1",)

    def test_fixed_point_off_the_zero_set_is_reported(self, monkeypatch):
        monkeypatch.setattr(polynomials, "fixed_point", lambda f: (Fraction(1), Fraction(0)))
        report = verify_fixed_points_on_surface(antidiagonal_line(), [half_map()], 2)
        assert [check.fixed_point_value for check in report.checks] == [-1, -1]
        assert report.violations == tuple(f"word {word}: fixed point is off the zero set, P = -1"
                                          for word in [(0,), (0, 0)])

    @pytest.mark.parametrize("index, matrix, message", [
        # f(x) = (1/3, 1/3) lies on the line, so P∘f = 0·P: a scaling factor, but singular
        (0, [[0, 0], [0, 0]], "map 0 is not invertible"),
        (1, [[2, 0], [0, 2]], "map 1 is not strictly contractive"),
    ])
    def test_given_maps_are_certified_admissible(self, index, matrix, message):
        maps = [half_map()]
        maps.insert(index, AffineMap(matrix, [Fraction(1, 3), Fraction(1, 3)]))
        with pytest.raises(ValueError) as caught:
            verify_fixed_points_on_surface(antidiagonal_line(), maps, 2)
        assert str(caught.value) == message
