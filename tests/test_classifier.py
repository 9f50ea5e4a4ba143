"""Curve-germ classifier: graph form, conjugation checks, recentering."""

import itertools
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from selfaffine import classifier
from selfaffine.classifier import (
    VERDICT_CONJUGATION,
    VERDICT_GAP,
    VERDICT_HYPERPLANE,
    VERDICT_MOMENT,
    GraphForm,
    HyperplaneDegeneracyError,
    InsufficientOrderError,
    RecenterResult,
    check_conjugation,
    classify_curve,
    germ_from_jsonable,
    graph_form,
    normalize_at_fixed_point,
    solve_recenter,
    tangent_eigenvalue,
)
from selfaffine.exactlinalg import express_in_span, identity, mat_inverse
from selfaffine.series import TruncatedSeries, series_reverse

ORDER = 16


def moment_germ(n=3, order=ORDER):
    rows = [[0] * (k + 1) + [1] for k in range(n)]
    return TruncatedSeries.from_rows(rows, order)


def gap_germ(order=ORDER):
    return TruncatedSeries.from_rows([[0, 1], [0, 0, 0, 1]], order)


def _mat_mul(a, b):
    """The exact matrix product a·b of two row tuples."""
    return tuple(tuple(sum(x * b[k][j] for k, x in enumerate(row)) for j in range(len(b[0])))
                 for row in a)


def diag(*entries):
    n = len(entries)
    return [[Fraction(entries[i]) if i == j else Fraction(0) for j in range(n)]
            for i in range(n)]


def horner_compose(outer, inner, order):
    """Local Horner composition outer∘inner, independent of the library implementation."""
    result = [Fraction(0)] * (order + 1)
    for coefficient in reversed(list(outer[: order + 1])):
        shifted = [Fraction(0)] * (order + 1)
        for i, x in enumerate(result):
            for j, y in enumerate(inner[: order + 1 - i]):
                shifted[i + j] += x * y
        result = shifted
        result[0] += coefficient
    return result


def reference_graph_form(normalized):
    """Plain graph form: one series_reverse, then one Horner composition per coordinate."""
    n, order = normalized.dim, normalized.order
    inner = series_reverse(normalized.coordinate(0)).coefficients()
    extracted = []
    for k in range(1, n):
        row = tuple(horner_compose(normalized.coords[k], inner, order))
        exponent = next((i for i in range(1, order + 1) if row[i] != 0), None)
        if exponent is None:
            raise HyperplaneDegeneracyError(
                f"coordinate {k + 1} vanishes to order {order}; "
                "the curve lies in a hyperplane to this order"
            )
        extracted.append((exponent, row[exponent], row, k))
    extracted.sort(key=lambda item: item[0])
    exponents = tuple(item[0] for item in extracted)
    if len(set(exponents)) != len(exponents):
        raise ValueError(
            "two coordinates share a leading exponent; "
            "the germ is outside the simple graph-normalizable class"
        )
    if exponents[-1] > order - 2:
        raise InsufficientOrderError(
            f"leading exponent {exponents[-1]} requires order at least "
            f"{exponents[-1] + 2}; have {order}"
        )
    return GraphForm(
        order,
        exponents,
        tuple(item[1] for item in extracted),
        tuple(item[2] for item in extracted),
        tuple(item[3] for item in extracted),
    )


def reference_solve_recenter(profile, t1):
    """Plain recentering: express_in_span on every row (valid input only)."""
    top = profile[-1]
    span = []
    for p in profile:
        vector = [Fraction(0)] * (top + 1)
        vector[p] = Fraction(1)
        vector[0] = -(t1**p)
        span.append(vector)
    degrees = set(profile)
    rows = []
    for index, p in enumerate(profile, start=1):
        target = [Fraction(0)] * (top + 1)
        for m in range(p + 1):
            target[m] = math.comb(p, m) * (-t1) ** (p - m)
        coefficients = express_in_span(span, target)
        if coefficients is None:
            missing = next(m for m in range(1, p + 1) if m not in degrees)
            return RecenterResult(False, profile, None, index, missing)
        rows.append(tuple(coefficients))
    return RecenterResult(True, profile, tuple(rows))


def reference_tangent_eigenvalue(m, v):
    """Plain eigenvector test in Fractions: M·v row by row, λ from the first nonzero entry."""
    image = [sum(x * y for x, y in zip(row, v)) for row in m]
    pivot = next(i for i, x in enumerate(v) if x != 0)
    candidate = image[pivot] / v[pivot]
    return candidate if all(image[i] == candidate * v[i] for i in range(len(v))) else None


def outcome(function, *args):
    """The result of a call, or the type and message of what it raised."""
    try:
        return function(*args)
    except ValueError as exc:
        return type(exc), str(exc)


class TestNormalize:
    def test_subtracts_value_and_applies_inverse_basis(self):
        curve = TruncatedSeries.from_rows([[1, 2], [3, 0, 4]], 3)
        j = [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(1)]]
        out = normalize_at_fixed_point(curve, j)
        assert out.coordinate(0).coefficients() == (
            Fraction(0), Fraction(1), Fraction(0), Fraction(0)
        )
        assert out.coordinate(1).coefficients() == (
            Fraction(0), Fraction(0), Fraction(4), Fraction(0)
        )

    def test_singular_basis_rejected(self):
        curve = TruncatedSeries.from_rows([[0, 1], [0, 1]], 2)
        j = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]]
        with pytest.raises(ValueError):
            normalize_at_fixed_point(curve, j)


class TestTangentEigenvalue:
    def test_eigenvector(self):
        m = diag(Fraction(1, 2), Fraction(1, 4))
        assert tangent_eigenvalue(m, (Fraction(1), Fraction(0))) == Fraction(1, 2)

    def test_non_eigenvector(self):
        m = [[Fraction(1, 2), Fraction(1)], [Fraction(0), Fraction(1, 4)]]
        assert tangent_eigenvalue(m, (Fraction(0), Fraction(1))) is None

    def test_lower_triangular_second_axis(self):
        m = [[Fraction(1, 2), Fraction(0)], [Fraction(1, 3), Fraction(1, 4)]]
        assert tangent_eigenvalue(m, (Fraction(0), Fraction(1))) == Fraction(1, 4)

    def test_zero_tangent_rejected(self):
        with pytest.raises(ValueError):
            tangent_eigenvalue(diag(1, 1), (Fraction(0), Fraction(0)))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimensions differ"):
            tangent_eigenvalue(diag(1, 2, 3), (Fraction(1), Fraction(0)))

    def test_equals_plain_reference(self):
        # eigenvectors of conjugated diagonals, their perturbations and random vectors,
        # with zero, negative and large-denominator entries
        rng = random.Random(41)
        checked = eigen = 0
        for n in range(1, 7):
            for _ in range(12):
                a = _random_invertible(rng, n)
                d = diag(*(Fraction(rng.randint(-9, 9), rng.randint(1, 99)) for _ in range(n)))
                m = _mat_mul(_mat_mul(a, d), mat_inverse(a))
                for column in zip(*a):
                    nudged = list(column)
                    nudged[rng.randrange(n)] += Fraction(1, rng.randint(1, 10**6))
                    noise = [Fraction(rng.randint(-5, 5), rng.randint(1, 7)) for _ in range(n)]
                    for v in (column, [-3 * x for x in column], nudged, noise):
                        if any(v):
                            expected = reference_tangent_eigenvalue(m, v)
                            assert tangent_eigenvalue(m, v) == expected
                            checked += 1
                            eigen += expected is not None
        assert eigen >= 2 * 6 * 12 and checked - eigen >= 6 * 12


class TestGraphForm:
    def test_moment_profile(self):
        gf = graph_form(moment_germ(3))
        assert gf.exponents == (2, 3)
        assert gf.leading == (Fraction(1), Fraction(1))

    def test_gap_profile(self):
        gf = graph_form(gap_germ())
        assert gf.exponents == (3,)

    def test_reparametrizes_non_unit_speed(self):
        # x1 = t + t^2, x2 = t^2: substituting the inverse parameter must
        # produce x2*(u) = u^2 - 2u^3 + ... with leading exponent 2
        curve = TruncatedSeries.from_rows([[0, 1, 1], [0, 0, 1]], 10)
        gf = graph_form(curve)
        assert gf.exponents == (2,)
        assert gf.leading == (Fraction(1),)

    def test_hyperplane_degeneracy(self):
        flat = TruncatedSeries.from_rows([[0, 1], [0] * 9], 8)
        with pytest.raises(HyperplaneDegeneracyError):
            graph_form(flat)

    def test_duplicate_exponents_rejected(self):
        twin = TruncatedSeries.from_rows([[0, 1], [0, 0, 1], [0, 0, 1]], 8)
        with pytest.raises(ValueError, match="graph-normalizable"):
            graph_form(twin)

    def test_insufficient_order(self):
        # leading exponent 15 cannot be confirmed stable at order 16
        steep = TruncatedSeries.from_rows([[0, 1], [0] * 15 + [1]], ORDER)
        with pytest.raises(InsufficientOrderError):
            graph_form(steep)

    def test_equals_plain_reference(self):
        # rows start at degree 2 or later with zeros inside; some germs
        # repeat an exponent, vanish, or need a higher order, and must
        # fail the same way
        rng = random.Random(61)
        for _ in range(60):
            order = rng.randint(3, 16)
            n = rng.randint(2, 4)
            first = [0, 1] + [Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                              for _ in range(order - 1)]
            rows = [first]
            for _ in range(n - 1):
                start = rng.randint(2, order + 1)
                rows.append([0] * start + [
                    Fraction(rng.randint(-2, 2), rng.randint(1, 3)) if rng.random() < 0.6 else 0
                    for _ in range(order + 1 - start)
                ])
            germ = TruncatedSeries.from_rows(rows, order)
            assert outcome(graph_form, germ) == outcome(reference_graph_form, germ)

    def test_conjugated_germs_equal_plain_reference(self):
        rng = random.Random(62)
        for germ in (moment_germ(3), moment_germ(4, 12), gap_germ()):
            a = _random_invertible(rng, germ.dim)
            curve = _push_curve(germ, a, [Fraction(0)] * germ.dim)
            normalized = normalize_at_fixed_point(curve, a)
            assert graph_form(normalized) == reference_graph_form(normalized)

    def test_requires_unit_tangent_in_first_coordinate(self):
        sideways = TruncatedSeries.from_rows([[0, 0, 1], [0, 1]], 8)
        with pytest.raises(ValueError):
            graph_form(sideways)


class TestCheckConjugation:
    def test_diagonal_passes_on_moment(self):
        gf = graph_form(moment_germ(3))
        lam = Fraction(1, 2)
        report = check_conjugation(gf, [lam, lam**2, lam**3])
        assert report.passed
        assert report.mode == "diagonal"
        assert report.eigenvalue_relation
        assert report.monomial

    def test_diagonal_fails_on_wrong_powers(self):
        gf = graph_form(moment_germ(3))
        lam = Fraction(1, 2)
        report = check_conjugation(gf, [lam, lam**2, lam**2])
        assert not report.passed
        assert report.mismatches

    def test_diagonal_fails_on_non_monomial_curve(self):
        curve = TruncatedSeries.from_rows([[0, 1], [0, 0, 1, 1]], 10)
        gf = graph_form(curve)
        lam = Fraction(1, 2)
        report = check_conjugation(gf, [lam, lam**2])
        assert not report.passed

    def test_diagonal_names_an_extra_term_at_the_top_degree(self):
        curve = TruncatedSeries.from_rows([[0, 1], [0, 0, 1] + [0] * 13 + [Fraction(-3, 5)]], ORDER)
        report = check_conjugation(graph_form(curve), [Fraction(1, 2), Fraction(1, 4)])
        assert report.mismatches == (
            "coordinate 2: identity fails first at degree 16 (-3/327680 vs -3/20)",
            "coordinate 2: not monomial, extra term at degree 16",
        )
        assert (report.eigenvalue_relation, report.monomial) == (True, False)

    def test_diagonal_checks_the_leading_coefficient_given(self):
        # a graph form built by hand whose leading coefficient is not its row's
        row = (Fraction(0), Fraction(0), Fraction(1)) + (Fraction(0),) * 4
        gf = GraphForm(6, (2,), (Fraction(3),), (row,), (1,))
        report = check_conjugation(gf, [Fraction(1, 2), Fraction(1, 4)])
        assert report.mismatches == ("coordinate 2: not monomial, extra term at degree 2",)

    def test_matrix_mode_passes_on_diagonal_matrix(self):
        gf = graph_form(moment_germ(2))
        lam = Fraction(1, 3)
        report = check_conjugation(gf, diag(lam, lam**2))
        assert report.passed
        assert report.mode == "matrix"

    def test_jordan_block_fails(self):
        # A = [[l, 1], [0, l]] forces the quadratic coordinate to inherit
        # eigenvalue l from the first row while the substitution gives l^2
        gf = graph_form(moment_germ(2))
        lam = Fraction(1, 2)
        jordan = [[lam, Fraction(1)], [Fraction(0), lam]]
        report = check_conjugation(gf, jordan)
        assert not report.passed
        assert report.mode == "matrix"
        assert report.mismatches

    def test_rotation_block_fails(self):
        # rational rotation-scaling (3-4-5 triangle), contractive by 1/2:
        # the first row mixes t and t^2 so no reparametrization matches
        gf = graph_form(moment_germ(2))
        rot = [[Fraction(3, 10), Fraction(-4, 10)], [Fraction(4, 10), Fraction(3, 10)]]
        report = check_conjugation(gf, rot)
        assert not report.passed
        assert report.mismatches


    HALF = Fraction(1, 2)

    @pytest.mark.parametrize("germ, scaling, mismatches", [
        (moment_germ(2), [[HALF, Fraction(1)], [Fraction(0), HALF]],
         ("coordinate 2: identity fails first at degree 2 (1/2 vs 1/4)",)),
        (moment_germ(2), [[Fraction(3, 10), Fraction(-4, 10)], [Fraction(4, 10), Fraction(3, 10)]],
         ("coordinate 2: identity fails first at degree 1 (2/5 vs 0)",)),
        (moment_germ(3), [HALF, HALF**2, HALF**2],
         ("coordinate 3: identity fails first at degree 3 (1/8 vs 1/4)",
          "coordinate 3: λ_k = 1/4 differs from λ₁^3 = 1/8")),
        (TruncatedSeries.from_rows([[0, 1], [0, 0, 1, 1]], 10), [HALF, HALF**2],
         ("coordinate 2: identity fails first at degree 3 (1/8 vs 1/4)",
          "coordinate 2: not monomial, extra term at degree 3")),
        # the matrix mode prints A·ξ first and ξ∘Y second, the diagonal mode x_k*(λ₁·u) first
        (TruncatedSeries.from_rows([[0, 1], [0, 0, 1, 1]], 10), diag(HALF, HALF**2),
         ("coordinate 2: identity fails first at degree 3 (1/4 vs 1/8)",)),
    ], ids=["jordan", "rotation", "wrong-powers", "non-monomial-diagonal",
            "non-monomial-matrix"])
    def test_mismatch_lines_are_pinned(self, germ, scaling, mismatches):
        report = check_conjugation(graph_form(germ), scaling)
        assert not report.passed
        assert report.mismatches == mismatches

    def test_matrix_mode_rejects_a_non_square_matrix(self):
        gf = graph_form(moment_germ(2))
        with pytest.raises(ValueError, match="expected a 2×2 matrix"):
            check_conjugation(gf, [[self.HALF, 0, 0], [0, self.HALF**2, 0]])


class TestSolveRecenter:
    def test_moment_profile_feasible(self):
        result = solve_recenter((1, 2, 3), Fraction(1))
        assert result.feasible
        assert result.witness_index is None
        # (t-1)^2 = (t^2 - 1) - 2(t - 1): frozen matrix row
        assert result.matrix[1] == (Fraction(-2), Fraction(1), Fraction(0))

    def test_matrix_rebuilds_binomials(self):
        t1 = Fraction(-1, 2)
        result = solve_recenter((1, 2, 3, 4), t1)
        assert result.feasible
        # row k expresses (t - t1)^{p_k} in the span of {t^{p_j} - t1^{p_j}}
        profile = (1, 2, 3, 4)
        for k, row in enumerate(result.matrix):
            power = profile[k]
            # evaluate both sides at a few rational points
            for t in (Fraction(2), Fraction(1, 3), Fraction(-3, 5)):
                lhs = (t - t1) ** power
                rhs = sum(c * (t**p - t1**p) for c, p in zip(row, profile))
                assert lhs == rhs

    def test_gap_profile_infeasible_with_witness(self):
        result = solve_recenter((1, 3), Fraction(1))
        assert not result.feasible
        assert result.witness_index == 2
        assert result.witness_degree == 2
        assert result.witness == "missing monomial t^2"

    def test_higher_gap_witness(self):
        result = solve_recenter((1, 2, 4), Fraction(1, 2))
        assert not result.feasible
        assert result.witness_degree == 3

    def test_feasible_iff_initial_segment(self):
        for profile in [(1, 2), (1, 2, 3, 4, 5)]:
            assert solve_recenter(profile, Fraction(2)).feasible
        for profile in [(1, 3), (1, 2, 5), (1, 4, 6)]:
            assert not solve_recenter(profile, Fraction(2)).feasible

    def test_equals_plain_reference_on_criterion_10(self):
        t1_values = [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2), Fraction(2)]
        for n in range(2, 7):
            for tail in itertools.combinations(range(2, 13), n - 1):
                profile = (1,) + tail
                for t1 in t1_values:
                    mine = solve_recenter(profile, t1)
                    plain = reference_solve_recenter(profile, t1)
                    assert mine.feasible == plain.feasible
                    assert mine.matrix == plain.matrix
                    assert mine.witness_index == plain.witness_index
                    assert mine.witness_degree == plain.witness_degree
                    assert mine == plain

    @pytest.mark.parametrize("entry", [(0, 0), (1, 0), (2, 1), (2, 2), (1, 2)])
    def test_tampered_row_fails_its_certificate(self, entry):
        t1 = Fraction(-1, 2)
        rows = [list(row) for row in solve_recenter((1, 2, 3), t1).matrix]
        classifier._check_recenter((1, 2, 3), t1, rows, None, None)
        rows[entry[0]][entry[1]] += Fraction(1, 3)
        with pytest.raises(ArithmeticError, match="does not re-expand"):
            classifier._check_recenter((1, 2, 3), t1, rows, None, None)

    def test_tampered_closed_form_raises_in_solve_recenter(self, monkeypatch):
        # every binomial C(p, 1) off by one: the rows solve_recenter builds are wrong
        monkeypatch.setattr(classifier, "math",
                            SimpleNamespace(comb=lambda p, q: math.comb(p, q) + (q == 1)))
        with pytest.raises(ArithmeticError, match="does not re-expand"):
            solve_recenter((1, 2, 3), Fraction(2))

    @pytest.mark.parametrize("profile, index, degree", [
        ((1, 3, 4), 2, 3),   # in the profile: nonzero in a span vector
        ((1, 3, 4), 2, 4),   # above p = 3: zero in the target
        ((1, 2, 4), 3, 5),   # beyond every span vector
        ((1, 2, 4), 3, 0),   # the constant slot
    ])
    def test_tampered_witness_fails_its_certificate(self, profile, index, degree):
        result = solve_recenter(profile, Fraction(3))
        classifier._check_recenter(profile, Fraction(3), (), result.witness_index,
                                   result.witness_degree)
        with pytest.raises(ArithmeticError, match="does not witness"):
            classifier._check_recenter(profile, Fraction(3), (), index, degree)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            solve_recenter((2, 3), Fraction(1))
        with pytest.raises(ValueError):
            solve_recenter((1, 3, 2), Fraction(1))
        with pytest.raises(ValueError):
            solve_recenter((1, 2), Fraction(0))


class TestClassifyCurve:
    def test_moment_verdict(self):
        result = classify_curve(moment_germ(3), diag(Fraction(1, 2), Fraction(1, 4),
                                                     Fraction(1, 8)),
                                identity(3), Fraction(1))
        assert result.verdict == VERDICT_MOMENT
        assert result.exponents == (1, 2, 3)
        assert result.eigenvalue == Fraction(1, 2)
        assert len(result.stages) == 5

    def test_gap_verdict(self):
        result = classify_curve(gap_germ(), diag(Fraction(1, 2), Fraction(1, 8)),
                                identity(2), Fraction(1))
        assert result.verdict == VERDICT_GAP
        assert result.exponents == (1, 3)
        assert result.recenter is not None
        assert result.recenter.witness == "missing monomial t^2"

    def test_hyperplane_verdict(self):
        flat = TruncatedSeries.from_rows([[0, 1], [0] * 17], ORDER)
        result = classify_curve(flat, diag(Fraction(1, 2), Fraction(1, 4)),
                                identity(2), Fraction(1))
        assert result.verdict == VERDICT_HYPERPLANE

    def test_conjugation_verdict(self):
        # x2 = t^2 + t^3 is not monomial: no diagonal model can satisfy
        # x2*(l*t) = l^2 * x2*(t) at the t^3 coefficient
        bumpy = TruncatedSeries.from_rows([[0, 1], [0, 0, 1, 1]], ORDER)
        result = classify_curve(bumpy, diag(Fraction(1, 2), Fraction(1, 4)),
                                identity(2), Fraction(1))
        assert result.verdict == VERDICT_CONJUGATION
        assert result.conjugation is not None
        assert not result.conjugation.passed

    def test_other_eigenvalues_are_read(self):
        # M maps (t, t^2) to (t/2, t^2/8), off the curve: λ_2 = 1/8 is not λ^2
        result = classify_curve(moment_germ(2), diag(Fraction(1, 2), Fraction(1, 8)),
                                identity(2), Fraction(1))
        assert result.verdict == VERDICT_CONJUGATION
        assert result.exponents == (1, 2)
        assert result.conjugation.eigenvalue_relation is False
        assert "coordinate 2: λ_k = 1/8 differs from λ₁^2 = 1/4" in result.conjugation.mismatches
        a = ((Fraction(1), Fraction(2)), (Fraction(-1), Fraction(3)))
        curve = _push_curve(moment_germ(2), a, [Fraction(1), Fraction(-2)])
        m_conj = _mat_mul(_mat_mul(a, diag(Fraction(1, 2), Fraction(1, 8))), mat_inverse(a))
        assert classify_curve(curve, m_conj, a, Fraction(1)).verdict == VERDICT_CONJUGATION

    def test_off_diagonal_model_fails(self):
        m = [[Fraction(1, 2), Fraction(1)], [Fraction(0), Fraction(1, 4)]]
        result = classify_curve(moment_germ(2), m, identity(2), Fraction(1))
        assert result.verdict == VERDICT_CONJUGATION
        assert result.conjugation.mismatches == (
            "column 2 of J is not an eigenvector of M, so D = J⁻¹·M·J is not diagonal",
        )

    def test_eigenvalues_follow_the_graph_coordinate_order(self):
        # (t, t^3, t^2): the second graph coordinate (p = 2) is the third axis
        swapped = TruncatedSeries.from_rows([[0, 1], [0, 0, 0, 1], [0, 0, 1]], ORDER)
        result = classify_curve(swapped, diag(Fraction(1, 2), Fraction(1, 8), Fraction(1, 4)),
                                identity(3), Fraction(1))
        assert result.verdict == VERDICT_MOMENT
        result = classify_curve(swapped, diag(Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)),
                                identity(3), Fraction(1))
        assert result.verdict == VERDICT_CONJUGATION

    def test_verdicts_invariant_under_conjugation(self):
        rng = random.Random(99)
        for germ, m_diag, expected in [
            (moment_germ(3), diag(Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)),
             VERDICT_MOMENT),
            (gap_germ(), diag(Fraction(1, 2), Fraction(1, 8)), VERDICT_GAP),
        ]:
            n = germ.dim
            for _ in range(5):
                a = _random_invertible(rng, n)
                b = [Fraction(rng.randint(-3, 3), 2) for _ in range(n)]
                curve = _push_curve(germ, a, b)
                m_conj = _mat_mul(_mat_mul(a, m_diag), mat_inverse(a))
                j_conj = a
                result = classify_curve(curve, m_conj, j_conj, Fraction(1))
                assert result.verdict == expected

    def test_rejects_zero_t1(self):
        with pytest.raises(ValueError):
            classify_curve(moment_germ(2), diag(Fraction(1, 2), Fraction(1, 4)),
                           identity(2), Fraction(0))

    def test_rejects_non_eigen_tangent(self):
        m = [[Fraction(1, 2), Fraction(0)], [Fraction(1), Fraction(1, 4)]]
        with pytest.raises(ValueError):
            classify_curve(moment_germ(2), m, identity(2), Fraction(1))

    def test_rejects_expanding_eigenvalue(self):
        with pytest.raises(ValueError):
            classify_curve(moment_germ(2), diag(Fraction(2), Fraction(4)),
                           identity(2), Fraction(1))


def _random_invertible(rng, n):
    from selfaffine.exactlinalg import determinant
    while True:
        m = tuple(
            tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n))
            for _ in range(n)
        )
        if determinant(m) != 0:
            return m


def _push_curve(germ, a, b):
    """The conjugated curve A·γ(t) + b as a truncated series."""
    rows = []
    for i in range(len(a)):
        row = [Fraction(0)] * (germ.order + 1)
        for j in range(len(a)):
            coeffs = germ.coordinate(j).coefficients()
            for k, c in enumerate(coeffs):
                row[k] += a[i][j] * c
        row[0] += b[i]
        rows.append(row)
    return TruncatedSeries.from_rows(rows, germ.order)


def _germ_document(germ, t0):
    return {"t0": t0, "order": germ.order,
            "coords": [[str(c) for c in row] for row in germ.coords]}


class TestGermJson:
    def test_round_trip(self):
        germ = moment_germ(3, 8)
        data = _germ_document(germ, "2/3")
        back, t0 = germ_from_jsonable(data)
        assert back.coords == germ.coords
        assert t0 == Fraction(2, 3)

    def test_order_cap(self):
        # the cap is read before any coefficient: coords here are never parsed
        with pytest.raises(ValueError, match="above the cap 64"):
            germ_from_jsonable({"t0": "0", "order": 65, "coords": "unparsed"})
        germ, _ = germ_from_jsonable(_germ_document(moment_germ(2, 64), "0"))
        assert germ.order == classifier._MAX_ORDER == 64

    @pytest.mark.parametrize("mutate", [
        lambda d: d.__setitem__("order", 0),
        lambda d: d.__setitem__("coords", []),
        lambda d: d["coords"][0].__setitem__(0, 0.5),
        lambda d: d["coords"][0].pop(),
        lambda d: d.pop("t0"),
    ])
    def test_malformed_rejected(self, mutate):
        data = _germ_document(moment_germ(2, 4), "0")
        mutate(data)
        with pytest.raises((ValueError, KeyError)):
            germ_from_jsonable(data)
