"""Truncated power series with exact rational coefficients.

A series keeps coefficients of t⁰ through t^N for a fixed truncation
order N.  Composition and reversion are exact on the kept coefficients,
on integers over one denominator per column; beyond order N is dropped.
Multi-coordinate series represent curve germs, one coefficient row per
coordinate, all sharing the same variable and order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import lcm
from operator import mul
from typing import Sequence

from .rationals import _clear_denominators

__all__ = ["TruncatedSeries", "series_compose", "series_reverse"]


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficient rows (one per coordinate) of a series truncated at order."""

    order: int
    coords: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError("truncation order must be at least 1")
        coords = tuple(tuple(Fraction(c) for c in row) for row in self.coords)
        if not coords:
            raise ValueError("a series needs at least one coordinate")
        if any(len(row) != self.order + 1 for row in coords):
            raise ValueError("every coordinate needs order + 1 coefficients")
        object.__setattr__(self, "coords", coords)

    @property
    def dim(self) -> int:
        return len(self.coords)

    @classmethod
    def from_coefficients(cls, coefficients: Sequence, order: int | None = None) -> "TruncatedSeries":
        """One-dimensional series from a coefficient list (c₀, c₁, …)."""
        return cls.from_rows([coefficients], order)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], order: int | None = None) -> "TruncatedSeries":
        """Vector-valued series from per-coordinate coefficient lists."""
        if not rows:
            raise ValueError("need at least one coordinate row")
        if order is None:
            order = max(len(row) for row in rows) - 1
        padded = []
        for row in rows:
            entries = [Fraction(c) for c in row]
            if len(entries) > order + 1:
                raise ValueError("more coefficients than the order admits")
            entries.extend([Fraction(0)] * (order + 1 - len(entries)))
            padded.append(tuple(entries))
        return cls(order, tuple(padded))

    @classmethod
    def identity(cls, order: int) -> "TruncatedSeries":
        """The series t."""
        return cls.from_coefficients([0, 1], order)

    def coordinate(self, index: int) -> "TruncatedSeries":
        return TruncatedSeries(self.order, (self.coords[index],))

    def coefficients(self) -> tuple[Fraction, ...]:
        if self.dim != 1:
            raise ValueError("coefficients() expects a one-dimensional series")
        return self.coords[0]

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncatedSeries(order, tuple(row[: order + 1] for row in self.coords))


def _require_1d(series: TruncatedSeries, name: str) -> tuple[Fraction, ...]:
    if series.dim != 1:
        raise ValueError(f"{name} expects one-dimensional series")
    return series.coords[0]


def _grades(dens: Sequence[int], count: int) -> list[int]:
    """g₀ = 1, g_w = lcm dens[i]·g_{w−1−i}: g_w clears any product of weight w, dens[i] weighing i + 1.

    g_v divides g_w for v ≤ w, so of equal denominators only the lightest counts.
    """
    grades = [1]
    for w in range(1, count + 1):
        lightest = {den: i for i, den in reversed(list(enumerate(dens[:w])))}
        grades.append(lcm(*[den * grades[w - 1 - i] for den, i in lightest.items()]))
    return grades


def _table(rows: Sequence[Sequence]) -> list[tuple[Sequence[int], int]]:
    """rows as a table for `_combine`: each column cleared to integers over one denominator."""
    return [_clear_denominators(column) for column in zip(*rows)]


def _combine(weights: Sequence, table: Sequence[tuple[Sequence[int], int]]) -> list[Fraction]:
    """Σⱼ weights[j]·row j of a table: one integer dot product and one Fraction per column."""
    cleared, scale = _clear_denominators(weights)
    return [Fraction(sum(map(mul, cleared, column)), scale * den) for column, den in table]


def _powers(inner: Sequence[Fraction], order: int) -> list[tuple[Sequence[int], int]]:
    """The table of innerʲ, j = 0..order (inner₀ = 0): [tᵐ]innerʲ weighs m, so column m is over g_m."""
    terms = inner[1 : order + 1]
    grades = _grades([x.denominator for x in terms], order)
    gains = [[x.numerator * (grades[m] // (x.denominator * grades[m - i]))
              for i, x in enumerate(terms[:m], 1)] for m in range(1, order + 1)]
    rows = [[1] + [0] * order]
    for _ in range(order):
        rows.append([0] + [sum(map(mul, gain, rows[-1][m::-1])) for m, gain in enumerate(gains)])
    return list(zip(zip(*rows), grades))


def series_compose(outer: TruncatedSeries, inner: TruncatedSeries) -> TruncatedSeries:
    """outer∘inner truncated at the shared order; inner(0) must be 0."""
    out = _require_1d(outer, "series_compose")
    inn = _require_1d(inner, "series_compose")
    if outer.order != inner.order:
        raise ValueError("series orders differ")
    if inn[0] != 0:
        raise ValueError("inner series must have zero constant term")
    # outer∘inner = Σⱼ outer_j·innerʲ
    return TruncatedSeries(outer.order, (_combine(out, _powers(inn, outer.order)),))


def _reverse_powers(coeffs: Sequence[Fraction], order: int) -> list[tuple[Sequence[int], int]]:
    """The table of rᵏ, k = 0..order, for the reversion r of coeffs (c₀ = 0 ≠ c₁ = p/q).

    r(t) = ρ(t/c₁) for the reversion ρ of t + Σ bⱼ·tʲ, bⱼ = cⱼ/c₁ of weight j − 1; [tᵐ]ρᵏ has
    weight m − k and is kept over g_{m−k}.  For k ≥ 2 it is Σᵢ ρᵢ·[t^{m−i}]ρ^{k−1}, of ρ₁..ρ_{m−1},
    and then ρ_m = −Σ_{k≥2} bₖ·[tᵐ]ρᵏ; every division is exact.  Column m ≥ 1 is over p^m·g_{m−1}.
    """
    monic = [x / coeffs[1] for x in coeffs[2 : order + 1]]
    grades = _grades([x.denominator for x in monic], order - 1)
    # lifts[m][k] = g_{m−1}/g_{m−k} for 0 < k ≤ m (lifts[m][0] = 0), running products of g_j/g_{j−1}
    steps = [high // low for low, high in zip(grades, grades[1:])]
    lifts = [[0]] + [[0, *accumulate(reversed(steps[: m - 1]), mul, initial=1)]
                     for m in range(1, order + 1)]
    table = [[0] * (order + 1) for _ in range(order + 1)]
    table[0][0] = table[1][1] = 1
    rho, gains = table[1], []
    for m in range(2, order + 1):
        gains.append([rho[i] * (lifts[m - 1][i] // grades[i - 1]) for i in range(1, m)])
        for k in range(2, m + 1):
            table[k][m] = sum(map(mul, gains[m - k], table[k - 1][m - 1 : k - 2 : -1]))
        rho[m] = -sum(b.numerator * table[k][m] * (lifts[m][k] // b.denominator)
                      for k, b in enumerate(monic[: m - 1], 2))
    p, q = coeffs[1].numerator, coeffs[1].denominator
    return [([1] + [0] * order, 1)] + [
        ([q**m * row[m] * lift for row, lift in zip(table, lifts[m])] + [0] * (order - m),
         p**m * grades[m - 1]) for m in range(1, order + 1)]


def series_reverse(series: TruncatedSeries) -> TruncatedSeries:
    """Compositional inverse: compose(series, result) = t up to the order.

    The result is row 1 of `_reverse_powers`' table, O(N³) in all.
    """
    coeffs = _require_1d(series, "series_reverse")
    if coeffs[0] != 0:
        raise ValueError("series must vanish at 0 to be reversed")
    if coeffs[1] == 0:
        raise ValueError("series needs a nonzero linear coefficient to be reversed")
    return TruncatedSeries(series.order, (_combine((0, 1), _reverse_powers(coeffs, series.order)),))
