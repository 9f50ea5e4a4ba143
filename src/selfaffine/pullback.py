"""Pullback polynomials and the compactness obstruction, made executable.

For a contractive invertible f and a surface polynomial P, the pullbacks
P_j = P∘f^(−j) all live in the finite-dimensional space of polynomials
of degree ≤ deg(P), so their coefficient vectors have bounded rank and
late members are exact linear combinations of early ones; meanwhile the
zero sets S(P_j) = f^j(S(P)) shrink geometrically.  This module computes
both halves of that tension on concrete inputs.  The conclusion drawn
from the tension is cited, not computed; the report says so explicitly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .affine import AffineMap, _float_array, _float_map, certify_admissible, invert, operator_norm
from .attractor import _EXACT_DIAMETER_LIMIT, diameter
from .cloud import PointCloud
from .exactlinalg import express_in_span, greedy_independent
from .polynomials import MultiPoly, compose_affine
from .paraboloid import surface_residual

__all__ = [
    "PullbackSequence",
    "DecayRow",
    "DecayReport",
    "CITED_CONCLUSION",
    "pullback_sequence",
    "coefficient_span_dimension",
    "dependency_witness",
    "diameter_decay_report",
    "rational_circle_points",
    "circle_polynomial",
]

CITED_CONCLUSION = (
    "cited, not computed: bounded coefficient rank forces some S(P_j) with "
    "arbitrarily small diameter to contain the whole self-affine set, so a "
    "compact algebraic surface contains no non-trivial self-affine set"
)

_RESIDUAL_TOLERANCE = 1e-9
# Most pullbacks pullback_sequence computes, checked first; a dense map's demo takes 0.9 s at 100.
_MAX_PULLBACKS = 100


@dataclass(frozen=True)
class PullbackSequence:
    """P₀ = P and P_j = P∘f^(−j) for j up to the stored length."""

    base: MultiPoly
    map: AffineMap
    polys: tuple[MultiPoly, ...]

    def __post_init__(self) -> None:
        degree = self.base.degree
        for index, poly in enumerate(self.polys):
            if poly.degree != degree:
                raise ValueError(f"pullback {index} changed the degree; map must be invertible")

    def __len__(self) -> int:
        return len(self.polys)


def pullback_sequence(poly: MultiPoly, f: AffineMap, count: int) -> PullbackSequence:
    """Exact pullbacks P₀, …, P_count under the inverse iterates of f."""
    if poly.degree < 1:
        raise ValueError("polynomial must be non-constant")
    if count < 0:
        raise ValueError("count must be nonnegative")
    if count > _MAX_PULLBACKS:
        raise ValueError(f"{count} pullbacks are above the cap {_MAX_PULLBACKS}")
    certify_admissible(f)
    inverse = invert(f)
    polys = [poly]
    for _ in range(count):
        polys.append(compose_affine(polys[-1], inverse))
    return PullbackSequence(poly, f, tuple(polys))


def _monomial_basis(dim: int, degree: int) -> list[tuple[int, ...]]:
    # product yields the exponents in lexicographic order
    return [e for e in itertools.product(range(degree + 1), repeat=dim) if sum(e) <= degree]


def _coefficient_vectors(seq: PullbackSequence) -> list[list[Fraction]]:
    basis = _monomial_basis(seq.base.dim, seq.base.degree)
    return [
        [poly.terms.get(exponent, Fraction(0)) for exponent in basis]
        for poly in seq.polys
    ]


def coefficient_span_dimension(seq: PullbackSequence) -> tuple[int, tuple[int, ...]]:
    """Exact rank of the pullback coefficient vectors, with basis indices.

    The rank never exceeds binomial(dim + deg, dim), the dimension of
    the polynomial space the whole sequence lives in.
    """
    rank, kept = greedy_independent(_coefficient_vectors(seq))
    cap = math.comb(seq.base.dim + seq.base.degree, seq.base.dim)
    if rank > cap:
        raise ArithmeticError("rank exceeded the polynomial-space dimension")
    return rank, kept


def dependency_witness(
    seq: PullbackSequence, index: int, basis: Sequence[int]
) -> list[Fraction]:
    """Exact coefficients c with P_index = Σ c_i·P_{basis[i]}.

    The expansion is re-checked term-for-term before returning, so the
    witness certifies ⋂_i S(P_{basis[i]}) ⊂ S(P_index).
    """
    basis = tuple(basis)
    if index in basis:
        raise ValueError("index must lie outside the basis")
    if not 0 <= index < len(seq.polys):
        raise ValueError("index out of range")
    vectors = _coefficient_vectors(seq)
    coefficients = express_in_span([vectors[b] for b in basis], vectors[index])
    if coefficients is None:
        rank, kept = coefficient_span_dimension(seq)
        raise ValueError(
            f"P_{index} lies outside the span of the given basis "
            f"(full-sequence rank {rank}, basis indices {kept})"
        )
    combo = MultiPoly.zero(seq.base.dim)
    for c, b in zip(coefficients, basis):
        combo = combo + c * seq.polys[b]
    if combo != seq.polys[index]:
        raise ArithmeticError("witness re-expansion failed")
    return list(coefficients)


@dataclass(frozen=True)
class DecayRow:
    j: int
    rank_so_far: int
    sampled_diameter: float
    max_residual: float


@dataclass(frozen=True)
class DecayReport:
    rows: tuple[DecayRow, ...]
    violations: tuple[str, ...]
    basis: tuple[int, ...]  # coefficient_span_dimension's earliest independent indices
    conclusion: str = CITED_CONCLUSION

    @property
    def ok(self) -> bool:
        return not self.violations


def _poly_scale(poly: MultiPoly) -> float:
    return 1.0 + _float_array(sum(abs(c) for c in poly.terms.values()))


def diameter_decay_report(
    seq: PullbackSequence,
    zero_samples: PointCloud,
    tolerance: float = _RESIDUAL_TOLERANCE,
) -> DecayReport:
    """Push zero samples through f^j and track residuals and diameters.

    Each row records j, the coefficient rank of P₀..P_j, the diameter of
    the pushed sample cloud (a lower bound for diam S(P_j), hence the
    column name "sampled diameter"), and max |P_j| on the pushed cloud.
    Violations of the residual tolerance (relative, default 1e-9), the
    norm-power diameter bound, or eventual monotone decay are recorded,
    not raised.  The report carries the basis indices of
    `coefficient_span_dimension`, whose rank-cap check runs here.
    """
    if not tolerance > 0:
        raise ValueError("tolerance must be positive")
    base_scale = _poly_scale(seq.base)
    if surface_residual(seq.base, zero_samples) > tolerance * base_scale:
        raise ValueError(f"zero samples must lie on S(P) within {tolerance}")
    matrix, translation = _float_map(seq.map._rows)
    norm = operator_norm(seq.map.matrix)
    # the earliest independent set of P₀..P_m, cut to P₀..P_j, is that of P₀..P_j
    basis = coefficient_span_dimension(seq)[1]
    rank_so_far = 0
    rows: list[DecayRow] = []
    violations: list[str] = []
    pushed = zero_samples.points
    base_diameter = diameter(zero_samples)
    previous_diameter: Optional[float] = None
    for j, poly in enumerate(seq.polys):
        if j > 0:
            pushed = pushed @ matrix.T + translation
        cloud = PointCloud(zero_samples.dim, pushed)
        residual = surface_residual(poly, cloud)
        if j in basis:
            rank_so_far += 1
        sampled = diameter(cloud)
        rows.append(DecayRow(j, rank_so_far, sampled, residual))
        if residual > tolerance * _poly_scale(poly):
            violations.append(f"j={j}: residual {residual} above tolerance")
        bound = norm**j * base_diameter + tolerance
        if sampled > bound:
            violations.append(f"j={j}: diameter {sampled} above bound {bound}")
        if (
            previous_diameter is not None
            and previous_diameter < base_diameter
            and sampled > previous_diameter + tolerance
        ):
            violations.append(f"j={j}: diameter stopped decreasing")
        previous_diameter = sampled
    return DecayReport(tuple(rows), tuple(violations), basis)


def circle_polynomial() -> MultiPoly:
    """x₁² + x₂² − 1, the unit circle."""
    return MultiPoly(
        2, {(2, 0): Fraction(1), (0, 2): Fraction(1), (0, 0): Fraction(-1)}
    )


def rational_circle_points(count: int) -> list[tuple[Fraction, Fraction]]:
    """Exact rational points on the unit circle, spread over all quadrants.

    Uses the tangent half-angle parametrization ((1−s²)/(1+s²),
    2s/(1+s²)) on a uniform s-grid over [−1, 1] (right half plus both
    poles) and mirrors across the y-axis, yielding close to `count`
    distinct points.  The map is one-to-one on [−1, 1], so only the
    poles' mirror images repeat.  The antipodal pair (0, ±1) is always
    present, so the sample diameter is exactly 2.
    """
    if count < 4:
        raise ValueError("at least 4 points are required")
    if count > _EXACT_DIAMETER_LIMIT:
        raise ValueError(f"{count} circle points are above the cap {_EXACT_DIAMETER_LIMIT}")
    half = count // 2 + 1
    points: list[tuple[Fraction, Fraction]] = []
    for k in range(half):
        s = Fraction(-1) + Fraction(2 * k, half - 1)
        denominator = 1 + s * s
        x = (1 - s * s) / denominator
        y = 2 * s / denominator
        points += [(x, y), (-x, y)] if x else [(x, y)]
    return points
