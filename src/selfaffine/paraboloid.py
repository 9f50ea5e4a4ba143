"""Self-affine systems on the paraboloid x₁² + ⋯ + x_{n−1}² = x_n.

The embedding η(x) = (x₁, …, x_{n−1}, Σx_j²) carries a 1-D product
system c_i·x + d_i (equal translation in every coordinate) to affine
maps of ℝⁿ preserving the paraboloid; the conjugation identity
f_i∘η = η∘(c_i·x + d_i) is verified symbolically on every build.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .affine import AffineMap, IteratedFunctionSystem
from .cloud import PointCloud
from .polynomials import MultiPoly

__all__ = [
    "ParaboloidSpec",
    "paraboloid_polynomial",
    "build_paraboloid_ifs",
    "verify_paraboloid_conjugation",
    "surface_residual",
]


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
        images.sort()
        if images[0][0] != self.a or max(right for _, right in images) != self.b:
            raise ValueError("base images must reach both endpoints of [a, b]")
        reach = images[0][1]
        for left, right in images[1:]:
            if left > reach:
                raise ValueError("base images leave a gap inside [a, b]")
            reach = max(reach, right)


def paraboloid_polynomial(n: int) -> MultiPoly:
    """P = x₁² + ⋯ + x_{n−1}² − x_n, whose zero set is the paraboloid."""
    if n < 2:
        raise ValueError("dimension must be at least 2")
    terms: dict[tuple[int, ...], Fraction] = {}
    for j in range(n - 1):
        exponent = tuple(2 if k == j else 0 for k in range(n))
        terms[exponent] = Fraction(1)
    terms[tuple(0 if k < n - 1 else 1 for k in range(n))] = Fraction(-1)
    return MultiPoly(n, terms)


def _embedding_polynomials(n: int) -> list[MultiPoly]:
    """η expressed as polynomials in the n−1 base variables."""
    base_dim = n - 1
    coords = [MultiPoly.variable(base_dim, j) for j in range(base_dim)]
    last = MultiPoly.zero(base_dim)
    for var in coords:
        last = last + var * var
    return coords + [last]


def _conjugation_sides(
    n: int, c: Fraction, d: Fraction, f: AffineMap
) -> tuple[list[MultiPoly], list[MultiPoly]]:
    base_dim = n - 1
    eta = _embedding_polynomials(n)
    lhs = []
    for i in range(n):
        acc = MultiPoly.constant(base_dim, f.translation[i])
        for j in range(n):
            if f.matrix[i][j] != 0:
                acc = acc + f.matrix[i][j] * eta[j]
        lhs.append(acc)
    moved = [
        c * MultiPoly.variable(base_dim, j) + MultiPoly.constant(base_dim, d)
        for j in range(base_dim)
    ]
    last = MultiPoly.zero(base_dim)
    for poly in moved:
        last = last + poly * poly
    rhs = moved + [last]
    return lhs, rhs


def _build_map(n: int, c: Fraction, d: Fraction) -> AffineMap:
    rows = []
    for i in range(n - 1):
        rows.append(tuple(c if j == i else Fraction(0) for j in range(n)))
    rows.append(tuple([2 * c * d] * (n - 1) + [c * c]))
    translation = tuple([d] * (n - 1) + [(n - 1) * d * d])
    return AffineMap(tuple(rows), translation)


def build_paraboloid_ifs(spec: ParaboloidSpec) -> IteratedFunctionSystem:
    """Lift the base system to paraboloid-preserving affine maps.

    Each map has c_i on the first n−1 diagonal entries, last row
    (2c_id_i, …, 2c_id_i, c_i²), and translation (d_i, …, d_i,
    (n−1)d_i²).  The conjugation identity f_i∘η = η∘(c_i·x + d_i) is
    checked as an exact polynomial identity before the system is
    returned.
    """
    n = spec.dim
    maps = []
    for c, d in spec.base_maps:
        f = _build_map(n, c, d)
        lhs, rhs = _conjugation_sides(n, c, d, f)
        if lhs != rhs:
            raise ArithmeticError("conjugation identity failed for a built map")
        maps.append(f)
    return IteratedFunctionSystem(tuple(maps))


def verify_paraboloid_conjugation(spec: ParaboloidSpec) -> bool:
    """Re-check f_i∘η = η∘(c_i·x + d_i) symbolically for every base map."""
    n = spec.dim
    for c, d in spec.base_maps:
        lhs, rhs = _conjugation_sides(n, c, d, _build_map(n, c, d))
        if lhs != rhs:
            return False
    return True


def surface_residual(poly: MultiPoly, cloud: PointCloud) -> float:
    """max |P(point)| over the cloud, in float arithmetic."""
    if poly.dim != cloud.dim:
        raise ValueError("polynomial and cloud dimensions differ")
    if len(cloud) == 0:
        return 0.0
    values = np.zeros(len(cloud))
    for exponent, coefficient in poly.terms.items():
        term = np.full(len(cloud), float(coefficient))
        for k, power in enumerate(exponent):
            if power:
                term *= cloud.points[:, k] ** power
        values += term
    return float(np.max(np.abs(values)))
