"""Classify curve germs against the moment curve via affine self-maps.

Input: an analytic curve germ as a truncated rational series, a matrix
M mapping the curve into itself near a fixed point, and a basis J whose
first column is the tangent there.  The pipeline normalizes the germ,
rewrites it as a graph over its first coordinate, extracts the leading
exponent of every graph coordinate, checks the diagonal conjugation
identity x_k*(λ·x₁*) = λ_k·x_k*(x₁*), and finally decides whether the
exponent profile admits the recentering onto the full moment curve.
Four verdicts are possible; everything is exact up to the truncation
order, which is the single visible approximation boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .exactlinalg import Matrix, as_matrix, as_vector, mat_inverse
from .rationals import _clear_denominators, parse_rational
from .series import TruncatedSeries, _combine, _powers, _reverse_powers, _table

__all__ = [
    "VERDICT_MOMENT",
    "VERDICT_GAP",
    "VERDICT_CONJUGATION",
    "VERDICT_HYPERPLANE",
    "HyperplaneDegeneracyError",
    "InsufficientOrderError",
    "GraphForm",
    "ConjugationReport",
    "RecenterResult",
    "ClassificationResult",
    "normalize_at_fixed_point",
    "tangent_eigenvalue",
    "graph_form",
    "check_conjugation",
    "solve_recenter",
    "classify_curve",
    "germ_from_jsonable",
]

VERDICT_MOMENT = "affine image of moment curve, p_k = k"
VERDICT_GAP = "p-curve with exponent gap (not moment)"
VERDICT_CONJUGATION = "conjugation fails (no diagonal model to order N)"
VERDICT_HYPERPLANE = "hyperplane degenerate"

# Largest germ order a document may give; graph_form's power table is (order + 1)².
_MAX_ORDER = 64


class HyperplaneDegeneracyError(ValueError):
    """A graph coordinate vanishes identically to the truncation order."""


class InsufficientOrderError(ValueError):
    """The truncation order is too small to trust the extracted exponents."""


def normalize_at_fixed_point(curve: TruncatedSeries, j_matrix: Sequence[Sequence]) -> TruncatedSeries:
    """Apply γ̃ = J⁻¹(γ − γ(t₀)) coefficient-wise, γ(t₀) being the constant coefficients.

    The result has zero constant term; when J's first column is the
    tangent γ′(t₀), its first-order coefficient vector is (1, 0, …, 0).
    """
    matrix = as_matrix(j_matrix)
    inverse = mat_inverse(matrix)
    if len(matrix) != curve.dim:
        raise ValueError("matrix and value dimensions must match the curve")
    shifted = _table((0,) + row[1:] for row in curve.coords)
    return TruncatedSeries(curve.order, [_combine(weights, shifted) for weights in inverse])


def tangent_eigenvalue(matrix: Sequence[Sequence], tangent: Sequence) -> Optional[Fraction]:
    """The λ with M·tangent = λ·tangent, or None when not an eigenvector."""
    m = as_matrix(matrix)
    v = as_vector(tangent)
    if all(x == 0 for x in v):
        raise ValueError("tangent vector must be nonzero")
    if len(m) != len(v) or len(m[0]) != len(v):
        raise ValueError("matrix and tangent dimensions differ")
    return _eigenvalue([_clear_denominators(row) for row in m], v)


def _eigenvalue(rows: Sequence[tuple[Sequence[int], int]], v: Sequence) -> Optional[Fraction]:
    """tangent_eigenvalue on M's rows cleared once: row i = p_i/s_i, v = q/t, (M·v)_i = (p_i·q)/(s_i·t)."""
    q, _ = _clear_denominators(v)
    image = [(sum(a * b for a, b in zip(p, q)), s) for p, s in rows]
    pivot = next(i for i, x in enumerate(q) if x)
    top, scale = image[pivot]
    # λ = top/(scale·q_pivot), and (M·v)_i = λ·v_i for every i
    if all(x * scale * q[pivot] == top * y * s for (x, s), y in zip(image, q)):
        return Fraction(top, scale * q[pivot])
    return None


@dataclass(frozen=True)
class GraphForm:
    """Graph coordinates x_k*(x₁*) with leading exponents and coefficients.

    Coordinates are sorted by leading exponent; coordinate_order records
    the original 0-based index of each sorted coordinate.
    """

    order: int
    exponents: tuple[int, ...]
    leading: tuple[Fraction, ...]
    series: tuple[tuple[Fraction, ...], ...]
    coordinate_order: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(p < 2 for p in self.exponents):
            raise ValueError("graph exponents must be at least 2")
        if any(a >= b for a, b in zip(self.exponents, self.exponents[1:])):
            raise ValueError("graph exponents must be strictly increasing")
        if any(c == 0 for c in self.leading):
            raise ValueError("leading coefficients must be nonzero")
        for row in self.series:
            if len(row) != self.order + 1:
                raise ValueError("series rows must carry order + 1 coefficients")
            if row[0] != 0 or row[1] != 0:
                raise ValueError("graph coordinates must vanish to second order at 0")


def graph_form(normalized: TruncatedSeries) -> GraphForm:
    """Reparametrize a normalized germ as a graph over its first coordinate.

    Requires zero constant term and first-order vector (1, 0, …, 0).
    Raises HyperplaneDegeneracyError when a coordinate is identically
    zero to the truncation order, and InsufficientOrderError when a
    leading exponent p exceeds order − 2.
    """
    n = normalized.dim
    if n < 2:
        raise ValueError("graph form needs at least two coordinates")
    order = normalized.order
    if any(row[0] != 0 for row in normalized.coords):
        raise ValueError("normalized germ must vanish at the base point")
    first_order = tuple(row[1] for row in normalized.coords)
    if first_order != (Fraction(1),) + (Fraction(0),) * (n - 1):
        raise ValueError("normalized germ must have first-order vector (1, 0, …, 0)")
    # powers[j] = rʲ for the reversion r of the first coordinate: x_k∘r = Σⱼ cⱼ·rʲ
    powers = _reverse_powers(normalized.coords[0], order)
    extracted = []
    for k in range(1, n):
        row = tuple(_combine(normalized.coords[k], powers))
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


@dataclass(frozen=True)
class ConjugationReport:
    """Outcome of the conjugation identity check.

    mode "diagonal" verifies x_k*(λ₁·x₁*) = λ_k·x_k*(x₁*) together with
    λ_k = λ₁^{p_k} and exact monomiality of the graph; mode "matrix"
    verifies the general identity A·ξ(u) = ξ(Y(u)) with Y the first
    coordinate of A·ξ(u).
    """

    passed: bool
    mode: str
    mismatches: tuple[str, ...]
    eigenvalue_relation: Optional[bool] = None
    monomial: Optional[bool] = None


def _check_diagonal(gf: GraphForm, diagonal: Sequence[Fraction]) -> ConjugationReport:
    values = [Fraction(x) for x in diagonal]
    n = len(gf.exponents) + 1
    if len(values) != n:
        raise ValueError(f"expected {n} diagonal entries, got {len(values)}")
    lam = values[0]
    if lam == 0:
        raise ValueError("λ₁ must be nonzero")
    mismatches: list[str] = []
    eigen_ok = True
    monomial_ok = True
    lam_powers = [lam**k for k in range(gf.order + 1)]
    for position, (p, c, row) in enumerate(zip(gf.exponents, gf.leading, gf.series)):
        k = position + 2
        scale = values[position + 1]
        # x_k*(λ₁·u) = λ_k·x_k*(u) at a degree d exactly when the coefficient is 0 or λ₁^d = λ_k
        degree = next((d for d, x in enumerate(row) if x and lam_powers[d] != scale), None)
        if degree is not None:
            x = row[degree]
            mismatches.append(f"coordinate {k}: identity fails first at degree {degree} "
                              f"({x * lam_powers[degree]} vs {scale * x})")
        if scale != lam_powers[p]:
            eigen_ok = False
            mismatches.append(
                f"coordinate {k}: λ_k = {scale} differs from λ₁^{p} = {lam_powers[p]}"
            )
        extra = next((d for d, x in enumerate(row) if x != (c if d == p else 0)), None)
        if extra is not None:
            monomial_ok = False
            mismatches.append(f"coordinate {k}: not monomial, extra term at degree {extra}")
    # every failed identity, eigenvalue or monomial check leaves a mismatch
    return ConjugationReport(not mismatches, "diagonal", tuple(mismatches), eigen_ok, monomial_ok)


def _check_matrix(gf: GraphForm, matrix: Matrix) -> ConjugationReport:
    n = len(gf.exponents) + 1
    if len(matrix) != n or len(matrix[0]) != n:
        raise ValueError(f"expected a {n}×{n} matrix")
    xi = [TruncatedSeries.identity(gf.order).coefficients(), *gf.series]
    table = _table(xi)
    images = [_combine(weights, table) for weights in matrix]
    if images[0][0] != 0:
        raise ValueError("transformed first coordinate must vanish at 0")
    # ξ_k∘Y = Σⱼ ξ_k[j]·Yʲ, every coordinate over one table of powers of Y = images[0]
    powers = _powers(images[0], gf.order)
    mismatches = []
    for position in range(1, n):
        image, composed = images[position], _combine(xi[position], powers)
        degree = next((d for d, (x, y) in enumerate(zip(image, composed)) if x != y), None)
        if degree is not None:
            mismatches.append(f"coordinate {position + 1}: identity fails first at degree {degree} "
                              f"({image[degree]} vs {composed[degree]})")
    return ConjugationReport(not mismatches, "matrix", tuple(mismatches))


def check_conjugation(
    gf: GraphForm, scaling: Union[Sequence[Fraction], Sequence[Sequence]]
) -> ConjugationReport:
    """Verify the conjugation identity to the truncation order.

    Pass a flat sequence of rationals for the diagonal model λ₁, …, λ_n,
    or a full square matrix to test a non-diagonal candidate; the
    diagonal route additionally asserts λ_k = λ₁^{p_k} and that each
    graph coordinate is exactly the monomial c_k·(x₁*)^{p_k}.
    """
    entries = list(scaling)
    if entries and isinstance(entries[0], (list, tuple)):
        return _check_matrix(gf, as_matrix(entries))
    return _check_diagonal(gf, entries)


@dataclass(frozen=True)
class RecenterResult:
    """Feasibility of expressing (t−t1)^{p_k} over span{t^{p_j} − t1^{p_j}}.

    Feasible runs carry the exact coefficient matrix (row k gives
    (t−t1)^{p_k} = Σ_j matrix[k][j]·(t^{p_j} − t1^{p_j})); infeasible
    runs carry the first failing exponent index and the smallest
    monomial degree missing from the profile.
    """

    feasible: bool
    exponents: tuple[int, ...]
    matrix: Optional[tuple[tuple[Fraction, ...], ...]]
    witness_index: Optional[int] = None
    witness_degree: Optional[int] = None

    @property
    def witness(self) -> Optional[str]:
        if self.feasible:
            return None
        return f"missing monomial t^{self.witness_degree}"


def _check_recenter(profile, t1, rows, index, missing) -> None:
    """Raise ArithmeticError unless the rows, or the witness, certify the verdict.

    A witness degree 0 < m ≤ p absent from the profile is 0 in every span vector t^q − t1^q;
    its coefficient C(p, m)·b^m·(−a)^{p−m} in (b·t − a)^p, t1 = a/b, must be nonzero.  Each
    row must re-expand over the span to b^{−p}·(b·t − a)^p by repeated integer multiplication.
    """
    a, b = t1.numerator, t1.denominator
    if index is not None:  # an infeasible verdict carries a witness and no rows
        p = profile[index - 1]
        if (not 0 < missing <= p or missing in profile
                or not math.comb(p, missing) * b**missing * (-a) ** (p - missing)):
            raise ArithmeticError(f"t^{missing} does not witness infeasibility at index {index}")
        return
    top = profile[-1]
    # the span vectors t^q − t1^q as a table: the constants over b^top, then the unit entries
    span = [([-(a**q) * b ** (top - q) for q in profile], b**top)]
    span += [([int(m == q) for q in profile], 1) for m in range(1, top + 1)]
    scaled = [[1]]
    for _ in range(top):
        scaled.append([b * x - a * y for x, y in zip([0] + scaled[-1], scaled[-1] + [0])])
    for p, row in zip(profile, rows):
        if _combine(row, span) != [Fraction(x, b**p) for x in scaled[p]] + [0] * (top - p):
            raise ArithmeticError(f"row {p} does not re-expand to (t - t1)^{p}")


def solve_recenter(exponents: Sequence[int], t1: Fraction) -> RecenterResult:
    """Decide the recentering system for an exponent profile.

    The profile must start at 1 and increase strictly.  Feasibility of
    every row is equivalent to the profile being (1, 2, …, n).  Span
    vector j, t^{p_j} − t1^{p_j}, is a unit vector apart from its constant
    slot, so row p can only be C(p, p_j)·(−t1)^{p−p_j}, and the first index
    k with p_k ≠ k fails, t^k being the smallest degree missed; `_check_recenter`
    certifies either answer before it is returned.
    """
    profile = tuple(int(p) for p in exponents)
    if not profile or profile[0] != 1:
        raise ValueError("exponent profile must start at 1")
    if any(a >= b for a, b in zip(profile, profile[1:])):
        raise ValueError("exponent profile must be strictly increasing")
    t1 = Fraction(t1)
    if t1 == 0:
        raise ValueError("t1 must be nonzero")
    index = next((k for k, p in enumerate(profile, start=1) if p != k), None)
    if index is not None:
        _check_recenter(profile, t1, (), index, index)
        return RecenterResult(False, profile, None, index, index)
    rows = [tuple(math.comb(p, q) * (-t1) ** (p - q) for q in profile) for p in profile]
    _check_recenter(profile, t1, rows, None, None)
    return RecenterResult(True, profile, tuple(rows))


@dataclass(frozen=True)
class ClassificationResult:
    verdict: str
    eigenvalue: Optional[Fraction]
    exponents: Optional[tuple[int, ...]]
    conjugation: Optional[ConjugationReport]
    recenter: Optional[RecenterResult]
    stages: tuple[str, ...]


def classify_curve(
    curve: TruncatedSeries,
    m_matrix: Sequence[Sequence],
    j_matrix: Sequence[Sequence],
    t1: Fraction,
) -> ClassificationResult:
    """Full pipeline: normalize, graph, conjugation check, recentering.

    M and J must be n×n for the germ's dimension n, the first column of J
    a nonzero eigenvector of M with rational eigenvalue λ, 0 < |λ| < 1,
    and t1 must be nonzero.  The diagonal
    model is D = J⁻¹·M·J: a column of J that is not an eigenvector of M
    leaves an off-diagonal entry and fails the conjugation stage, and
    otherwise λ_k is D's diagonal entry for graph coordinate k.
    """
    t1 = Fraction(t1)
    if t1 == 0:
        raise ValueError("t1 must be nonzero")
    m = as_matrix(m_matrix)
    j = as_matrix(j_matrix)
    n = curve.dim
    for name, matrix in (("M", m), ("J", j)):
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise ValueError(f"{name} must be {n}×{n} for a {n}-dimensional germ")
    tangent, *columns = zip(*j)
    if not any(tangent):
        raise ValueError("the first column of J must be nonzero")
    rows = [_clear_denominators(row) for row in m]  # M cleared once for every column of J
    lam = _eigenvalue(rows, tangent)
    if lam is None:
        raise ValueError("the first column of J must be an eigenvector of M")
    if not 0 < abs(lam) < 1:
        raise ValueError(f"tangent eigenvalue must satisfy 0 < |λ| < 1, got {lam}")
    stages = [f"[tangent-eigenvalue] M fixes the tangent direction with λ = {lam}"]
    normalized = normalize_at_fixed_point(curve, j)
    stages.append("[normalize] germ recentered, tangent aligned with the first axis")
    try:
        gf = graph_form(normalized)
    except HyperplaneDegeneracyError as exc:
        stages.append(f"[graph-form] {exc}")
        return ClassificationResult(VERDICT_HYPERPLANE, lam, None, None, None, tuple(stages))
    profile = (1,) + gf.exponents
    stages.append(f"[graph-form] exponent profile p = {profile}")
    # D = J⁻¹·M·J, M in the normalized coordinates, is diagonal exactly when every
    # column of J is an eigenvector of M, and then its diagonal holds their eigenvalues
    eigenvalues = [lam] + [_eigenvalue(rows, column) for column in columns]
    off_diagonal = tuple(
        f"column {c + 1} of J is not an eigenvector of M, so D = J⁻¹·M·J is not diagonal"
        for c, eigenvalue in enumerate(eigenvalues)
        if eigenvalue is None
    )
    if off_diagonal:
        report = ConjugationReport(False, "diagonal", off_diagonal)
    else:
        report = check_conjugation(gf, [lam] + [eigenvalues[i] for i in gf.coordinate_order])
    if not report.passed:
        stages.append("[diagonal-conjugation] identity fails: " + "; ".join(report.mismatches))
        return ClassificationResult(
            VERDICT_CONJUGATION, lam, profile, report, None, tuple(stages)
        )
    stages.append(
        "[diagonal-conjugation] identity holds to the truncation order; "
        "λ_k = λ^{p_k}; graph coordinates are exact monomials"
    )
    recenter = solve_recenter(profile, t1)
    if recenter.feasible:
        stages.append("[recenter-span] every binomial power lies in the span; p_k = k")
        verdict = VERDICT_MOMENT
    else:
        stages.append(
            f"[recenter-span] infeasible at exponent index {recenter.witness_index}: "
            f"{recenter.witness}"
        )
        verdict = VERDICT_GAP
    return ClassificationResult(verdict, lam, profile, report, recenter, tuple(stages))


def germ_from_jsonable(data) -> tuple[TruncatedSeries, Fraction]:
    """Parse {"t0": "p/q", "order": N, "coords": [[…], …]}."""
    if not isinstance(data, dict):
        raise ValueError("germ document must be a JSON object")
    try:
        t0 = parse_rational(data["t0"])
    except KeyError:
        raise ValueError('germ document needs a "t0" field') from None
    order = data.get("order")
    if not isinstance(order, int) or isinstance(order, bool) or order < 1:
        raise ValueError('"order" must be a positive integer')
    if order > _MAX_ORDER:
        raise ValueError(f'"order" {order} is above the cap {_MAX_ORDER}')
    coords = data.get("coords")
    if not isinstance(coords, list) or not coords:
        raise ValueError('"coords" must be a nonempty array')
    rows = []
    for index, row in enumerate(coords):
        if not isinstance(row, list) or len(row) != order + 1:
            raise ValueError(f"coordinate {index + 1} needs exactly order + 1 coefficients")
        try:
            rows.append(tuple(parse_rational(entry) for entry in row))
        except ValueError as exc:
            raise ValueError(f"coordinate {index + 1}: {exc}") from None
    return TruncatedSeries(order, tuple(rows)), t0
