"""Exact rational helpers shared across the package.

All externally visible quantities are `fractions.Fraction`; hot loops
that need more speed clear denominators to Python integers instead of
switching to another rational type: `_clear_denominators` clears Fractions,
and `_clear_ratios` the integer ratios `_ratio` reads from text, so that a
map read from a file reaches its cleared rows without a Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

__all__ = ["parse_rational", "format_rational", "sqrt_upper_bound"]

# sqrt_upper_bound's grid: its bound is a multiple of 1/_SQRT_SCALE
_SQRT_SCALE = 10**6


def parse_rational(text: str | int | Fraction) -> Fraction:
    """Parse a rational string "p/q" or "p" into a Fraction.

    Rejects decimal notation, zero denominators, booleans, and anything
    else that is not an exact integer ratio.
    """
    return text if isinstance(text, Fraction) else Fraction(*_ratio(text))


def _ratio(text) -> tuple[int, int]:
    """(p, q), q > 0, with p/q the value parse_rational reads in `text`, not reduced.

    The grammar is "p/q" with positive denominator, or a bare integer p, where p
    is an optionally signed run of decimal digits and q an unsigned one, with
    whitespace allowed around each: no decimals, no floats.  Whitespace is what
    str.isspace accepts and digits what str.isdecimal accepts, so the pattern
    \\s*([+-]?\\d+)\\s*(?:/\\s*(\\d+)\\s*)? of the re module matches exactly these strings.
    """
    if not isinstance(text, str):
        if isinstance(text, bool):
            raise ValueError(f"booleans are not rationals: {text!r}")
        if isinstance(text, int):
            return text, 1
        if isinstance(text, Fraction):
            return text.numerator, text.denominator
    head, slash, tail = str(text).partition("/")
    head, tail = head.strip(), tail.strip()
    digits = head[1:] if head[:1] in ("+", "-") else head
    if not digits.isdecimal() or (slash and not tail.isdecimal()):
        raise ValueError(f"not a rational 'p/q' or integer string: {text!r}")
    numerator = int(head)
    denominator = int(tail) if slash else 1
    if denominator == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return numerator, denominator


def format_rational(value: Fraction) -> str:
    """Render a Fraction as "p/q" (or "p" when the denominator is 1)."""
    return str(value)


def _clear_denominators(values) -> tuple[list[int], int]:
    """Integers p and the least common denominator s with values[i] == p[i] / s."""
    if all(type(x) is int for x in values):  # integer rows, as maps hold them, are already clear
        return list(values), 1
    ratios = [x.as_integer_ratio() for x in values]
    scale = lcm(*[q for _, q in ratios])
    return [p * (scale // q) for p, q in ratios], scale


def _clear_ratios(ratios) -> tuple[list[int], int]:
    """Integers p and the least common denominator s with p[i]/s == a/b for each (a, b) of ratios.

    Each b is positive, and a/b need not be in lowest terms: one gcd of the row reduces it.
    """
    scale = lcm(*[q for _, q in ratios])
    numerators = [p * (scale // q) for p, q in ratios]
    common = gcd(scale, *numerators)
    if common == 1:
        return numerators, scale
    return [p // common for p in numerators], scale // common


def _check_tiling(intervals, a: Fraction, b: Fraction, images: str, interval: str) -> None:
    """Raise ValueError unless the closed intervals cover [a, b] from end to end.

    The messages name the intervals by `images` and [a, b] by `interval`.
    """
    ordered = sorted(intervals)
    if ordered[0][0] != a or max(right for _, right in ordered) != b:
        raise ValueError(f"{images} must reach both endpoints of {interval}")
    reach = ordered[0][1]
    for left, right in ordered[1:]:
        if left > reach:
            raise ValueError(f"{images} leave a gap inside {interval}")
        reach = max(reach, right)


def sqrt_upper_bound(x: Fraction | int) -> Fraction:
    """Smallest k/_SQRT_SCALE with (k/_SQRT_SCALE)^2 > x, for x >= 0.

    A strict rational upper bound on sqrt(x), within 1/_SQRT_SCALE of the true
    root.  Strictness matters: substituting the bound into a reciprocal
    keeps derived quantities strictly below their irrational targets.
    """
    x = Fraction(x)
    if x < 0:
        raise ValueError("negative input")
    target = x * _SQRT_SCALE * _SQRT_SCALE
    k = isqrt(target.numerator // target.denominator)
    while Fraction(k * k) <= target:
        k += 1
    return Fraction(k, _SQRT_SCALE)
