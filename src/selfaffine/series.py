"""Truncated power series with exact rational coefficients.

A series keeps coefficients of t⁰ through t^N for a fixed truncation
order N.  Multiplication, composition, and reversion are exact on the
kept coefficients; everything beyond order N is deliberately dropped.
Multi-coordinate series represent curve germs, one coefficient row per
coordinate, all sharing the same variable and order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

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


def _mul(a: Sequence[Fraction], b: Sequence[Fraction], order: int) -> list[Fraction]:
    out = [Fraction(0)] * (order + 1)
    for i, ai in enumerate(a[: order + 1]):
        if ai == 0:
            continue
        top = order - i
        for j, bj in enumerate(b[: top + 1]):
            if bj != 0:
                out[i + j] += ai * bj
    return out


def _combine(weights: Sequence[Fraction], rows: Sequence[Sequence], order: int) -> list[Fraction]:
    """Σⱼ weights[j]·rows[j] on coefficients 0..order, skipping zero weights and entries."""
    out = [Fraction(0)] * (order + 1)
    for weight, row in zip(weights, rows):
        if weight:
            for m, x in enumerate(row[: order + 1]):
                if x:
                    out[m] += weight * x
    return out


def _powers(inner: Sequence[Fraction], order: int) -> list[list[Fraction]]:
    """The table innerʲ, j = 0..order, each truncated at order."""
    table = [[Fraction(1)] + [Fraction(0)] * order]
    for _ in range(order):
        table.append(_mul(table[-1], inner, order))
    return table


def series_compose(outer: TruncatedSeries, inner: TruncatedSeries) -> TruncatedSeries:
    """outer∘inner truncated at the shared order; inner(0) must be 0."""
    out = _require_1d(outer, "series_compose")
    inn = _require_1d(inner, "series_compose")
    if outer.order != inner.order:
        raise ValueError("series orders differ")
    if inn[0] != 0:
        raise ValueError("inner series must have zero constant term")
    # outer∘inner = Σⱼ outer_j·innerʲ
    powers = _powers(inn, outer.order)
    return TruncatedSeries(outer.order, (tuple(_combine(out, powers, outer.order)),))


def _reverse_powers(coeffs: Sequence[Fraction], order: int) -> list[list[Fraction]]:
    """Table P[k][m] = [tᵐ] rᵏ (k, m ≤ order) of the reversion r = P[1] of coeffs.

    For k ≥ 2, P[k][m] = Σᵢ rᵢ·P[k−1][m−i] needs only r₁..r_{m−1}: column m
    is filled first, then [tᵐ] s(r) = a₁·r_m + Σ_{k≥2} a_k·P[k][m] = 0 fixes r_m.
    """
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


def series_reverse(series: TruncatedSeries) -> TruncatedSeries:
    """Compositional inverse: compose(series, result) = t up to the order.

    Coefficients come one order at a time from the power table of
    `_reverse_powers`, O(N³) in all: at order m the powers rᵏ, k ≥ 2, need
    only lower coefficients, and the composition's coefficient at tᵐ then
    fixes r_m through the (nonzero) linear coefficient of the input.
    """
    coeffs = _require_1d(series, "series_reverse")
    if coeffs[0] != 0:
        raise ValueError("series must vanish at 0 to be reversed")
    if coeffs[1] == 0:
        raise ValueError("series needs a nonzero linear coefficient to be reversed")
    return TruncatedSeries(series.order, (tuple(_reverse_powers(coeffs, series.order)[1]),))
