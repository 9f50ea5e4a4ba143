"""Reference arithmetic that the benchmark checks the program against.

Nothing here imports selfaffine.  Every expected value is recomputed with
plain fractions.Fraction (or floats, for sampled clouds), so a fault in
the program cannot hide in a helper that the check shares with it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence


def random_rational(rng: random.Random, denominator: int) -> Fraction:
    """±p/denominator with 0 < p < 2·denominator, for a prime denominator.

    The denominator never cancels, so every seed gives numbers of the
    same size and the exact arithmetic on them costs about the same.
    """
    p = rng.choice([k for k in range(1, 2 * denominator) if k % denominator])
    return Fraction(rng.choice((-p, p)), denominator)


def moment_point(n: int, t: Fraction) -> list[Fraction]:
    """η(t) = (t, t², …, tⁿ)."""
    return [t**k for k in range(1, n + 1)]


def paraboloid_point(x: Sequence[Fraction]) -> list[Fraction]:
    """η(x) = (x₁, …, x_{n−1}, Σx_j²)."""
    return list(x) + [sum(v * v for v in x)]


def paraboloid_conjugates(a, a_inverse):
    """A function (c, d) ↦ A·f·A⁻¹ for the map f of Rⁿ that takes η(x) to η(c·x + d).

    Σ(c·x_j + d)² = c²·Σx_j² + 2cd·Σx_j + (n−1)·d², so f is c·I but for
    its last row (2cd, …, 2cd, c²), with translation t = (d, …, d, (n−1)·d²).
    Its matrix is c·I + e_n·rᵀ with r = 2cd·h + (c² − c)·e_n, h = (1, …, 1, 0),
    so the conjugate's is c·I + (A·e_n)·(2cd·hᵀA⁻¹ + (c² − c)·e_nᵀA⁻¹), and its
    translation A·t = d·A·h + (n−1)·d²·A·e_n.  Each (c, d) then costs n² products.
    """
    n = len(a)
    column = [row[n - 1] for row in a]  # A·e_n
    sums = [sum(row[: n - 1]) for row in a]  # A·h
    head = [sum(a_inverse[k][j] for k in range(n - 1)) for j in range(n)]  # hᵀ·A⁻¹
    last = a_inverse[n - 1]  # e_nᵀ·A⁻¹

    def conjugate(c: Fraction, d: Fraction):
        v = [2 * c * d * x + (c * c - c) * y for x, y in zip(head, last)]
        matrix = [[u * x + (c if i == j else 0) for j, x in enumerate(v)] for i, u in enumerate(column)]
        translation = [d * s + (n - 1) * d * d * u for s, u in zip(sums, column)]
        return matrix, translation

    return conjugate


def apply_affine(matrix, translation, point) -> list[Fraction]:
    return [sum(m * x for m, x in zip(row, point)) + a for row, a in zip(matrix, translation)]


def mat_mul(a, b):
    return [[sum(x * b[k][j] for k, x in enumerate(row)) for j in range(len(b[0]))] for row in a]


def mat_inverse(matrix) -> list[list[Fraction]]:
    """Gauss–Jordan inverse of a square Fraction matrix; raises on a singular one."""
    n = len(matrix)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


# Truncated power series: coefficient lists c[0..order].

def series_mul(a: Sequence[Fraction], b: Sequence[Fraction], order: int) -> list[Fraction]:
    out = [Fraction(0)] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        if x:
            for j, y in enumerate(b[: order + 1 - i]):
                out[i + j] += x * y
    return out


def series_powers(a: Sequence[Fraction], top: int, order: int) -> list[list[Fraction]]:
    """[a¹, a², …, a^top], each truncated at order."""
    powers = [list(a)]
    for _ in range(top - 1):
        powers.append(series_mul(powers[-1], a, order))
    return powers


def series_compose(outer: Sequence[Fraction], inner: Sequence[Fraction], order: int) -> list[Fraction]:
    """outer∘inner by summing outer[k]·innerᵏ; inner must vanish at 0."""
    out = [Fraction(0)] * (order + 1)
    out[0] = outer[0]
    for k, power in enumerate(series_powers(inner, order, order), start=1):
        if outer[k]:
            for m, x in enumerate(power):
                out[m] += outer[k] * x
    return out


def lagrange_reverse(coeffs: Sequence[Fraction], order: int) -> list[Fraction]:
    """Compositional inverse by Lagrange inversion: r_m = (1/m)·[u^(m−1)] (u/s(u))^m."""
    shifted = list(coeffs[1:]) + [Fraction(0)]  # s(u)/u
    reciprocal = [Fraction(0)] * order  # u/s(u), to u^(order-1)
    reciprocal[0] = 1 / shifted[0]
    for m in range(1, order):
        acc = sum(shifted[k] * reciprocal[m - k] for k in range(1, m + 1))
        reciprocal[m] = -acc / shifted[0]
    result = [Fraction(0)] * (order + 1)
    power = [Fraction(1)] + [Fraction(0)] * (order - 1)
    for m in range(1, order + 1):
        power = series_mul(power, reciprocal, order - 1)
        result[m] = power[m - 1] / m
    return result


def eval_poly(terms: dict, point: Sequence[Fraction]) -> Fraction:
    """Σ coefficient·∏ x_i^e_i over {exponent tuple: coefficient}."""
    total = Fraction(0)
    for exponent, coefficient in terms.items():
        value = Fraction(coefficient)
        for x, e in zip(point, exponent):
            value *= x**e
        total += value
    return total
