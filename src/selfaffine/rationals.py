"""Exact rational helpers shared across the package.

All externally visible quantities are `fractions.Fraction`; hot loops
that need more speed clear denominators to Python integers instead of
switching to another rational type, and `_clear_denominators` is the one
place where they do.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import isqrt, lcm

__all__ = ["parse_rational", "format_rational", "sqrt_upper_bound"]

# "p/q" with positive denominator, or a bare integer; no decimals, no floats
_RATIONAL_RE = re.compile(r"^\s*([+-]?\d+)\s*(?:/\s*(\d+)\s*)?$")
# sqrt_upper_bound's grid: its bound is a multiple of 1/_SQRT_SCALE
_SQRT_SCALE = 10**6


def parse_rational(text: str | int | Fraction) -> Fraction:
    """Parse a rational string "p/q" or "p" into a Fraction.

    Rejects decimal notation, zero denominators, booleans, and anything
    else that is not an exact integer ratio.
    """
    if isinstance(text, bool):
        raise ValueError(f"booleans are not rationals: {text!r}")
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    match = _RATIONAL_RE.match(str(text))
    if match is None:
        raise ValueError(f"not a rational 'p/q' or integer string: {text!r}")
    numerator = int(match.group(1))
    denominator = int(match.group(2)) if match.group(2) else 1
    if denominator == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(numerator, denominator)


def format_rational(value: Fraction) -> str:
    """Render a Fraction as "p/q" (or "p" when the denominator is 1)."""
    return str(value)


def _clear_denominators(values) -> tuple[list[int], int]:
    """Integers p and the least common denominator s with values[i] == p[i] / s."""
    ratios = [x.as_integer_ratio() for x in values]
    scale = lcm(*[q for _, q in ratios])
    return [p * (scale // q) for p, q in ratios], scale


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
