"""Self-affine systems on the paraboloid x₁² + ⋯ + x_{n−1}² = x_n.

The embedding η(x) = (x₁, …, x_{n−1}, Σx_j²) carries a 1-D product
system c_i·x + d_i (equal translation in every coordinate) to affine
maps of ℝⁿ preserving the paraboloid; the conjugation identity
f_i∘η = η∘(c_i·x + d_i) is proven exactly on every build.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .affine import (
    AffineMap, IteratedFunctionSystem, _certify_rows, _cleared_rows, _float_array, _lift_failures,
    _line, _row_system,
)
from .cloud import PointCloud
from .polynomials import MultiPoly
from .rationals import _check_tiling, _clear_denominators

__all__ = [
    "ParaboloidSpec", "paraboloid_polynomial", "build_paraboloid_ifs",
    "verify_paraboloid_conjugation", "surface_residual",
]

# Largest spec dimension: a map holds n² Fractions and the conjugation check compares n rows
# of n entries at n + 1 points, so a build grows as n³, to about 2 s at 256 (CPython 3.11, 1 core).
_MAX_DIM = 256
# Most matrix entries of one build, at about 250 bytes each: 16 maps at the dimension cap.
_ENTRY_GUARD = 2**20


@dataclass(frozen=True)
class ParaboloidSpec:
    """Base interval [a, b] and 1-D maps c_i·x + d_i in dimension dim."""

    dim: int
    a: Fraction
    b: Fraction
    base_maps: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise ValueError("dimension must be at least 2")
        if self.dim > _MAX_DIM:
            raise ValueError(f"dimension {self.dim} is above the cap {_MAX_DIM}")
        if len(self.base_maps) * self.dim**2 > _ENTRY_GUARD:
            raise ValueError(f"{len(self.base_maps)} maps of dimension {self.dim} are above the "
                             f"guard of {_ENTRY_GUARD} matrix entries")
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        base = tuple((Fraction(c), Fraction(d)) for c, d in self.base_maps)
        object.__setattr__(self, "base_maps", base)
        if not self.a < self.b:
            raise ValueError("interval must satisfy a < b")
        if not base:
            raise ValueError("at least one base map is required")
        images = []
        for c, d in base:
            if not 0 < abs(c) < 1:
                raise ValueError("base contractions must satisfy 0 < |c| < 1")
            endpoints = (c * self.a + d, c * self.b + d)
            images.append((min(endpoints), max(endpoints)))
        _check_tiling(images, self.a, self.b, "base images", "[a, b]")


def paraboloid_polynomial(n: int) -> MultiPoly:
    """P = x₁² + ⋯ + x_{n−1}² − x_n, whose zero set is the paraboloid."""
    if n < 2:
        raise ValueError("dimension must be at least 2")
    terms = {tuple(2 if k == j else 0 for k in range(n)): Fraction(1) for j in range(n - 1)}
    terms[tuple(0 if k < n - 1 else 1 for k in range(n))] = Fraction(-1)
    return MultiPoly(n, terms)


def _build_map(n: int, c: Fraction, d: Fraction) -> AffineMap:
    rows = [tuple(c if j == i else Fraction(0) for j in range(n)) for i in range(n - 1)]
    rows.append(tuple([2 * c * d] * (n - 1) + [c * c]))
    translation = tuple([d] * (n - 1) + [(n - 1) * d * d])
    return AffineMap(tuple(rows), translation)


def _conjugates(spec: ParaboloidSpec, rows) -> bool:
    """f_i∘η = η∘(c_i·x + d_i) for every base map, f_i given as its cleared rows, at n + 1 points.

    η∘(c·x + d) is affine in η, as |c·x + d·1|² = c²|x|² + 2cd·Σx_j + (n−1)d², and the
    points a·1, a·1 + h·e_j and a·1 + 2h·e_1, h = (b − a)/2, have affinely independent images.
    """
    (a, h), common = _clear_denominators((spec.a, (spec.b - spec.a) / 2))
    corner = (a,) * (spec.dim - 1)
    points = [corner, *(corner[:j] + (a + h,) + corner[j + 1:] for j in range(spec.dim - 1))]
    points.append((a + 2 * h,) + corner[1:])
    lifts = [(map_rows, _line(c, d)) for (c, d), map_rows in zip(spec.base_maps, rows)]
    def form(point):  # η(P/Q) = (P/Q, ΣP_j²/Q²)
        return (*point, sum(p * p for p in point))
    degrees = (1,) * (spec.dim - 1) + (2,)
    return not _lift_failures(lifts, form, degrees, points, common, len(points))


def build_paraboloid_ifs(spec: ParaboloidSpec) -> IteratedFunctionSystem:
    """Lift the base system to paraboloid-preserving affine maps.

    Each map has c_i on the first n−1 diagonal entries, last row
    (2c_id_i, …, 2c_id_i, c_i²), and translation (d_i, …, d_i,
    (n−1)d_i²).  The conjugation identity f_i∘η = η∘(c_i·x + d_i) is
    proven exactly before the system is returned.
    """
    rows = [_cleared_rows(_build_map(spec.dim, c, d)) for c, d in spec.base_maps]
    # certified before the proof, so a base that is not contractive fails without proving anything
    certificates = [_certify_rows(map_rows, f"map {index}") for index, map_rows in enumerate(rows)]
    if not _conjugates(spec, rows):
        raise ArithmeticError("conjugation identity failed for a built map")
    return _row_system(rows, certificates)


def verify_paraboloid_conjugation(spec: ParaboloidSpec) -> bool:
    """Re-check f_i∘η = η∘(c_i·x + d_i) exactly for every base map."""
    return _conjugates(spec, [_cleared_rows(_build_map(spec.dim, c, d))
                              for c, d in spec.base_maps])


def surface_residual(poly: MultiPoly, cloud: PointCloud) -> float:
    """max |P(point)| over the cloud, in float arithmetic.

    A coefficient beyond the float range raises ValueError.
    """
    import numpy as np
    if poly.dim != cloud.dim:
        raise ValueError("polynomial and cloud dimensions differ")
    if len(cloud) == 0:
        return 0.0
    values = np.zeros(len(cloud))
    coefficients = _float_array(list(poly.terms.values()))
    for exponent, coefficient in zip(poly.terms, coefficients):
        term = np.full(len(cloud), coefficient)
        for k, power in enumerate(exponent):
            if power:
                term *= cloud.points[:, k] ** power
        values += term
    return float(np.max(np.abs(values)))
