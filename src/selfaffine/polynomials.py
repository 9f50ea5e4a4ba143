"""Sparse exact multivariate polynomials and affine scaling factors.

A polynomial is a map from exponent multi-indices to nonzero rational
coefficients.  The central notion is a scaling factor: an affine map f
with P∘f = C·P for a single rational constant C.  Detection demands
exact proportionality; there is no tolerance anywhere in this module.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .affine import _WORD_GUARD, AffineMap, certify_admissible, compose, fixed_point
from .rationals import format_rational, parse_rational

__all__ = [
    "MultiPoly", "ScalingCertificate", "FixedPointReport", "WordCheck", "evaluate",
    "compose_affine", "scaling_constant", "scaling_certificate", "is_self_affine_pair",
    "verify_fixed_points_on_surface", "parse_polynomial", "format_polynomial",
]


class MultiPoly:
    """Immutable sparse polynomial in dim variables over the rationals."""

    __slots__ = ("_dim", "_terms")

    def __init__(self, dim: int, terms: Mapping[tuple[int, ...], object]):
        if dim < 1:
            raise ValueError("polynomial dimension must be positive")
        cleaned: dict[tuple[int, ...], Fraction] = {}
        for exponent, coefficient in terms.items():
            key = tuple(exponent)
            if len(key) != dim:
                raise ValueError("exponent multi-index length must equal dim")
            if any(not isinstance(e, int) or e < 0 for e in key):
                raise ValueError("exponents must be non-negative integers")
            value = Fraction(coefficient)
            if value != 0:
                cleaned[key] = value
        self._dim = dim
        self._terms = cleaned

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def terms(self) -> Mapping[tuple[int, ...], Fraction]:
        return MappingProxyType(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        if not self._terms:
            return -1
        return max(sum(exponent) for exponent in self._terms)

    @classmethod
    def zero(cls, dim: int) -> "MultiPoly":
        return cls(dim, {})

    @classmethod
    def constant(cls, dim: int, value) -> "MultiPoly":
        return cls(dim, {(0,) * dim: Fraction(value)})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self._dim == other._dim and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self._dim, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        return f"MultiPoly({self._dim}, {format_polynomial(self)!r})"

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            return NotImplemented
        if self._dim != other._dim:
            raise ValueError("polynomial dimensions differ")
        merged = dict(self._terms)
        for exponent, coefficient in other._terms.items():
            merged[exponent] = merged.get(exponent, Fraction(0)) + coefficient
        return MultiPoly(self._dim, merged)

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            if self._dim != other._dim:
                raise ValueError("polynomial dimensions differ")
            product: dict[tuple[int, ...], Fraction] = {}
            for ea, ca in self._terms.items():
                for eb, cb in other._terms.items():
                    key = tuple(a + b for a, b in zip(ea, eb))
                    product[key] = product.get(key, Fraction(0)) + ca * cb
            return MultiPoly(self._dim, product)
        return MultiPoly(self._dim, {e: c * Fraction(other) for e, c in self._terms.items()})

    def __rmul__(self, other):
        return self.__mul__(other)


def evaluate(poly: MultiPoly, point: Sequence) -> Fraction:
    x = tuple(Fraction(v) for v in point)
    if len(x) != poly.dim:
        raise ValueError("point dimension does not match the polynomial")
    total = Fraction(0)
    for exponent, coefficient in poly.terms.items():
        value = coefficient
        for base, power in zip(x, exponent):
            if power:
                value *= base**power
        total += value
    return total


def compose_affine(poly: MultiPoly, f: AffineMap) -> MultiPoly:
    """The exact expansion of x ↦ poly(f(x)), on integers.

    Coordinate i of f is its cleared row (t + Σ m_j·x_j)/s.  Its powers, and their
    products with poly's coefficients, are dicts of integer coefficients over one
    denominator each, keyed by the exponent written in base deg P + 1: no exponent
    of a product exceeds deg P, so a product of monomials is a sum of keys.  One
    lcm of the terms' denominators gives one Fraction per output monomial.  The
    monomials come in the order a MultiPoly expansion of the same products and
    sums gives them, so float sums over the terms (surface_residual) do not change.

    Under a dense map the powers and P∘f have up to M = C(n + deg P, n)
    monomials, so a product of two takes up to M² term products; above
    _WORD_GUARD the expansion is refused before it starts.
    """
    if poly.dim != f.dim:
        raise ValueError("polynomial and map dimensions differ")
    n = poly.dim
    monomials = math.comb(n + max(poly.degree, 0), n)
    if monomials * monomials > _WORD_GUARD:
        raise ValueError(f"degree {poly.degree} in {n} variables allows {monomials} "
                         f"monomials, whose products are above the guard {_WORD_GUARD}")
    base = max(poly.degree, 0) + 1
    keys = [base**j for j in range(n)] + [0]  # x_j's key, then the constant's
    needed = [max((exponent[i] for exponent in poly.terms), default=0) for i in range(n)]
    powers = []
    for (row, scale), top in zip(f._rows, needed):
        form = {key: x for key, x in zip(keys, row[1:] + row[:1]) if x}
        ladder = [({0: 1}, 1)]
        for _ in range(top):
            power, denominator = ladder[-1]
            ladder.append((_times(power, form), denominator * scale))
        powers.append(ladder)
    terms = []
    for exponent, coefficient in poly.terms.items():
        term, denominator = {0: coefficient.numerator}, coefficient.denominator
        for ladder, e in zip(powers, exponent):
            if e:
                power, power_denominator = ladder[e]
                term, denominator = _times(term, power), denominator * power_denominator
        terms.append((term, denominator))
    common = math.lcm(*[denominator for _, denominator in terms])
    total: dict[int, int] = {}
    for term, denominator in terms:
        factor = common // denominator
        for key, x in term.items():
            value = total.get(key, 0) + x * factor
            if value:
                total[key] = value
            else:  # a cancelled monomial leaves, to come back last if a later term has it
                del total[key]
    return MultiPoly(n, {_exponent(key, base, n): Fraction(x, common) for key, x in total.items()})


def _times(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """The product of two integer polynomials keyed by packed exponents, without its zero terms."""
    product: dict[int, int] = {}
    for key_a, x in a.items():
        for key_b, y in b.items():
            key = key_a + key_b
            product[key] = product.get(key, 0) + x * y
    return {key: x for key, x in product.items() if x}


def _exponent(key: int, base: int, n: int) -> tuple[int, ...]:
    """The exponent multi-index whose digits in `base` make `key`, x1's digit the lowest."""
    exponent = []
    for _ in range(n):
        key, e = divmod(key, base)
        exponent.append(e)
    return tuple(exponent)


def scaling_constant(poly: MultiPoly, f: AffineMap) -> Optional[Fraction]:
    """The C with poly∘f = C·poly when one exists, else None.

    The candidate is read off one term and then the whole identity is
    re-checked, so a returned constant is an exact certificate.
    """
    if poly.is_zero:
        raise ValueError("the zero polynomial admits every constant")
    composed = compose_affine(poly, f)
    exponent, coefficient = next(iter(poly.terms.items()))
    candidate = composed.terms.get(exponent, Fraction(0)) / coefficient
    if composed == candidate * poly:
        return candidate
    return None


@dataclass(frozen=True)
class ScalingCertificate:
    """A contractive invertible map f with poly∘f = constant·poly.

    fixed_point_value records poly at the fixed point of f; with two
    such maps at distinct fixed points this value is forced to zero.
    """

    map: AffineMap
    constant: Fraction
    fixed_point_value: Fraction


def scaling_certificate(poly: MultiPoly, f: AffineMap) -> Optional[ScalingCertificate]:
    """Build the certificate for a contractive invertible scaling factor.

    Returns None, without certifying f, when f is not a scaling factor for
    poly; otherwise rejects constant polynomials and non-contractive or
    singular maps.
    """
    constant = scaling_constant(poly, f)
    if constant is None:
        return None
    if poly.degree < 1:
        raise ValueError("polynomial must be non-constant")
    certify_admissible(f)
    # |C| < 1 needs no check: the top-degree part gives P_d(Mx) = C·P_d(x), and ‖M‖ < 1 forces it
    value = evaluate(poly, fixed_point(f))
    return ScalingCertificate(f, constant, value)


def is_self_affine_pair(poly: MultiPoly, f: AffineMap, g: AffineMap) -> bool:
    """True when f and g are scaling factors for poly with distinct fixed points."""
    certify_admissible(f, "first map")
    certify_admissible(g, "second map")
    if scaling_constant(poly, f) is None or scaling_constant(poly, g) is None:
        return False
    return fixed_point(f) != fixed_point(g)


@dataclass(frozen=True)
class WordCheck:
    word: tuple[int, ...]
    constant: Fraction
    fixed_point_value: Fraction


@dataclass(frozen=True)
class FixedPointReport:
    words_checked: int
    checks: tuple[WordCheck, ...]
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_fixed_points_on_surface(
    poly: MultiPoly, maps: Sequence[AffineMap], depth: int
) -> FixedPointReport:
    """Check that fixed points of all composition words lie on the zero set.

    A singular or non-contractive map is refused by name, as certify_admissible
    refuses it.  Enumerates every word of length 1..depth over the given maps
    (breadth-first, no deduplication), verifies the composite is still a
    scaling factor with |C| < 1, and that the polynomial vanishes at its
    fixed point, all in exact arithmetic.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if not maps:
        raise ValueError("at least one map is required")
    for index, f in enumerate(maps):
        if scaling_constant(poly, f) is None:
            raise ValueError(f"map {index} is not a scaling factor for the polynomial")
        certify_admissible(f, f"map {index}")
    total = sum(len(maps) ** k for k in range(1, depth + 1))
    if total > _WORD_GUARD:
        raise ValueError(f"word tree has {total} nodes, above the cap {_WORD_GUARD}")
    checks: list[WordCheck] = []
    violations: list[str] = []
    frontier = [((i,), f) for i, f in enumerate(maps)]
    for level in range(1, depth + 1):
        for word, composite in frontier:
            constant = scaling_constant(poly, composite)
            if constant is None:
                violations.append(f"word {word}: composite is not a scaling factor")
                continue
            if not abs(constant) < 1:
                violations.append(f"word {word}: |C| = {abs(constant)} is not below 1")
            value = evaluate(poly, fixed_point(composite))
            checks.append(WordCheck(word, constant, value))
            if value != 0:
                violations.append(f"word {word}: fixed point is off the zero set, P = {value}")
        if level < depth:
            frontier = [
                (word + (i,), compose(composite, maps[i]))
                for word, composite in frontier
                for i in range(len(maps))
            ]
    return FixedPointReport(len(checks), tuple(checks), tuple(violations))


# Largest variable index and exponent parse_polynomial accepts, checked before any
# key is built: every exponent key has one slot per variable, and compose_affine
# keeps each power of a variable's image up to that variable's exponent.
_MAX_VARIABLES = 64
_MAX_EXPONENT = 64

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+\s*/\s*\d+|\d+)|(?P<variable>x\d+)|(?P<op>[-+*^]))\s*"
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == pos:
            raise ValueError(f"unexpected character {text[pos]!r} in polynomial")
        if match.lastgroup is not None:
            tokens.append((match.lastgroup, match.group(match.lastgroup)))
        pos = match.end()
    return tokens


def parse_polynomial(text: str) -> MultiPoly:
    """Parse "coef * x1^a1 * ... + ..." with rational coefficients.

    Whitespace is ignored, '*' between factors is optional, and terms
    may carry leading signs.  Negative exponents are rejected, and so are
    variable indices and exponents above 64 (_MAX_VARIABLES, _MAX_EXPONENT).
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ValueError("empty polynomial text")
    raw_terms: list[tuple[Fraction, dict[int, int]]] = []
    pos = 0
    sign = Fraction(1)
    if tokens[pos][0] == "op" and tokens[pos][1] in "+-":
        sign = Fraction(-1) if tokens[pos][1] == "-" else Fraction(1)
        pos += 1
    while True:
        coefficient = sign
        exponents: dict[int, int] = {}
        saw_factor = False
        while pos < len(tokens):
            kind, value = tokens[pos]
            if kind == "number":
                coefficient *= parse_rational(value)
                pos += 1
                saw_factor = True
            elif kind == "variable":
                index = int(value[1:]) - 1
                if index < 0:
                    raise ValueError("variable indices start at x1")
                if index >= _MAX_VARIABLES:
                    raise ValueError(f"variable x{index + 1} is above the cap x{_MAX_VARIABLES}")
                pos += 1
                power = 1
                if pos < len(tokens) and tokens[pos] == ("op", "^"):
                    pos += 1
                    if pos < len(tokens) and tokens[pos] == ("op", "-"):
                        raise ValueError("negative exponents are not allowed")
                    if pos >= len(tokens) or tokens[pos][0] != "number":
                        raise ValueError("expected an exponent after '^'")
                    if "/" in tokens[pos][1]:
                        raise ValueError("exponents must be integers")
                    power = int(tokens[pos][1])
                    pos += 1
                exponents[index] = exponents.get(index, 0) + power
                if exponents[index] > _MAX_EXPONENT:
                    raise ValueError(f"exponent {exponents[index]} of x{index + 1} "
                                     f"is above the cap {_MAX_EXPONENT}")
                saw_factor = True
            elif kind == "op" and value == "*":
                if not saw_factor:
                    raise ValueError("'*' without a preceding factor")
                pos += 1
                if pos >= len(tokens) or tokens[pos][0] not in ("number", "variable"):
                    raise ValueError("'*' without a following factor")
            else:
                break
        if not saw_factor:
            raise ValueError("empty term in polynomial text")
        raw_terms.append((coefficient, exponents))
        if pos >= len(tokens):
            break
        kind, value = tokens[pos]
        if kind != "op" or value not in "+-":
            raise ValueError(f"expected '+' or '-' between terms, found {value!r}")
        sign = Fraction(-1) if value == "-" else Fraction(1)
        pos += 1
        if pos >= len(tokens):
            raise ValueError("dangling sign at end of polynomial text")
    greatest = max((max(exps, default=-1) for _, exps in raw_terms), default=-1)
    dim = max(greatest + 1, 1)
    terms: dict[tuple[int, ...], Fraction] = {}
    for coefficient, exponents in raw_terms:
        key = tuple(exponents.get(i, 0) for i in range(dim))
        terms[key] = terms.get(key, Fraction(0)) + coefficient
    return MultiPoly(dim, terms)


def format_polynomial(poly: MultiPoly) -> str:
    """Canonical text form; parse_polynomial round-trips it."""
    if poly.is_zero:
        return "0"
    ordered = sorted(poly.terms.items(), key=lambda kv: (-sum(kv[0]), kv[0]))
    pieces: list[str] = []
    for exponent, coefficient in ordered:
        factors = [format_rational(abs(coefficient))]
        for i, e in enumerate(exponent):
            if e == 1:
                factors.append(f"x{i + 1}")
            elif e > 1:
                factors.append(f"x{i + 1}^{e}")
        body = " * ".join(factors)
        if not pieces:
            pieces.append(body if coefficient > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coefficient > 0 else f"- {body}")
    return " ".join(pieces)
