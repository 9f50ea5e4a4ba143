"""Self-affine systems whose attractor is an arc of the moment curve.

The curve is η(t) = (t, t², …, tⁿ).  For a small enough contraction
ratio λ and anchors t_i tiling [c, d], the lower-triangular maps built
here satisfy f_i(η(t)) = η(λ(t−c) + t_i) exactly, so the arc η([c, d])
is the attractor of the system.  Every identity in this module is
checked in exact rational arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import accumulate, groupby, repeat
from operator import mul
from typing import Sequence

from .affine import (
    IteratedFunctionSystem, _certify_rows, _ifs_header, _lift_failures, _line, _map_rows, _row_map,
    _row_system, _rows_to_jsonable, _texts,
)
from .exactlinalg import as_vector
from .rationals import (
    _check_tiling, _clear_denominators, format_rational, parse_rational, sqrt_upper_bound
)

__all__ = [
    "MomentCurveSpec", "MomentIfsRecipe", "InvarianceCounterexample", "InvarianceReport",
    "eval_moment", "lambda_bound", "choose_anchors", "build_moment_ifs", "verify_moment_invariance",
    "recipe_to_jsonable", "read_recipe",
]

# Most maps choose_anchors builds: the n = 5 system on [0, 1] has 4,580,
# n = 7 already 86,700, and n = 10 at the default ratio about 6.6 million.
_MAP_GUARD = 50_000
# The least n with 2ⁿ√n > _MAP_GUARD: from it on, ⌈1/λ⌉ ≥ 1/lambda_bound > 2ⁿ√n maps.
_DIM_GUARD = 14


@dataclass(frozen=True)
class MomentCurveSpec:
    """The arc η([c, d]) in dimension dim."""

    dim: int
    c: Fraction
    d: Fraction

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise ValueError("moment-curve dimension must be at least 2")
        object.__setattr__(self, "c", Fraction(self.c))
        object.__setattr__(self, "d", Fraction(self.d))
        if not self.c < self.d:
            raise ValueError("interval must satisfy c < d")


def eval_moment(n: int, t) -> tuple[Fraction, ...]:
    """η(t) = (t, t², …, tⁿ) exactly."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    value = Fraction(t)
    return tuple(value**k for k in range(1, n + 1))


def lambda_bound(spec: MomentCurveSpec) -> Fraction:
    """An exact admissible ceiling for the contraction ratio.

    The true ceiling is (2ⁿ√n·max{(2|c|+1)ⁿ, (|c|+|d|+1)ⁿ})⁻¹; the
    square root is replaced by a strictly larger rational, so every
    λ ≤ the returned value sits strictly below the true ceiling.  From
    n = _DIM_GUARD on, that ceiling needs more than _MAP_GUARD maps, so
    such n is rejected before any n-th power is taken.
    """
    n = spec.dim
    if n >= _DIM_GUARD:
        raise ValueError(f"the map count ceil(1/lambda) is above the guard {_MAP_GUARD}")
    root = sqrt_upper_bound(Fraction(n))
    scale = max((2 * abs(spec.c) + 1) ** n, (abs(spec.c) + abs(spec.d) + 1) ** n)
    return 1 / (Fraction(2) ** n * root * scale)


def choose_anchors(spec: MomentCurveSpec, ratio: Fraction) -> list[Fraction]:
    """A uniform anchor grid whose interval images tile [c, d] exactly.

    Uses ℓ = ⌈1/λ⌉ anchors; consecutive images of [c, d] under
    x ↦ λ(x−c) + t_i then overlap or abut, with no gaps.  More than
    _MAP_GUARD anchors are rejected before any is built; λ and ℓ are not printed.
    """
    ratio = Fraction(ratio)
    if not 0 < ratio <= lambda_bound(spec):
        raise ValueError("ratio must lie in (0, lambda_bound]")
    count = math.ceil(1 / ratio)
    if count > _MAP_GUARD:
        raise ValueError(f"the map count ceil(1/lambda) is above the guard {_MAP_GUARD}")
    step = (spec.d - spec.c) * (1 - ratio) / (count - 1)
    return [spec.c + i * step for i in range(count)]


@dataclass(frozen=True)
class MomentIfsRecipe:
    """A verified construction: spec, ratio λ, anchors, and the maps.

    Made by build_moment_ifs and read_recipe only.  Each map is kept as its rows,
    translation entry first, as integers over their least denominator (_cleared_rows;
    _moment_rows for a built map), so equal maps have equal rows; `ifs` is built when asked.
    """

    spec: MomentCurveSpec
    ratio: Fraction
    anchors: tuple[Fraction, ...]
    _rows: list = field(repr=False, hash=False)
    _lines: list = field(repr=False, compare=False)
    _certificates: tuple = field(repr=False, compare=False)

    @cached_property
    def ifs(self) -> IteratedFunctionSystem:
        return _row_system(self._rows, self._certificates)


def _lines(spec: MomentCurveSpec, ratio: Fraction, anchors) -> list[tuple[int, int, int]]:
    """Each map's parameter line λ(t − c) + t_i as integers (α, β, γ): (αt + β)/γ."""
    shift = ratio * spec.c
    return [_line(ratio, anchor - shift) for anchor in anchors]


def _check_recipe(spec: MomentCurveSpec, ratio: Fraction, anchors, dim, count) -> None:
    """Raise ValueError unless λ and the anchors tile [c, d], one anchor per map of dimension n.

    It runs before any map is built or read, so it also caps the map count at _MAP_GUARD.
    """
    if not 0 < ratio < 1:
        raise ValueError("contraction ratio must lie in (0, 1)")
    c, d = spec.c, spec.d
    distinct = [t for t, _ in groupby(sorted(anchors))]  # equal anchors have equal images
    if distinct and not (c <= distinct[0] and distinct[-1] <= d):  # sorted: its ends decide
        raise ValueError("every anchor must lie in [c, d]")
    if len(anchors) != count:
        raise ValueError("one anchor per map is required")
    if dim != spec.dim:
        raise ValueError("system dimension must match the curve dimension")
    if not anchors:
        raise ValueError("an iterated function system needs at least one map")
    width = ratio * (d - c)
    _check_tiling([(t, t + width) for t in distinct], c, d, "interval images", "[c, d]")
    if count > _MAP_GUARD:
        raise ValueError(f"the map count {count} is above the guard {_MAP_GUARD}")


def _moment_rows(n: int, line: tuple[int, int, int]):
    """Row k = 1..n of the construction's map at `line`, translation entry first, over γᵏ.

    Its n + 1 integers are the coefficients of (αt + β)ᵏ, constant term first:
    (λt + s)ᵏ, s = t_i − λc, is (αt + β)ᵏ/γᵏ.
    """
    alpha, beta, gamma = line
    coefficients, scale = [1] + [0] * n, 1
    for _ in range(n):
        coefficients = [beta * lower + alpha * upper
                        for lower, upper in zip(coefficients, [0] + coefficients)]
        scale *= gamma
        yield coefficients, scale


def _built_rows(entry, n: int, line: tuple[int, int, int]):
    """The construction's rows at `line`; given a stored `entry`, None unless it matches.

    A stored entry must hold exactly the canonical strings ("2/4" for 1/2, or
    an integer 0, differs).  Rows are built only while the stored ones match,
    so a differing entry costs no more than it stores.
    """
    rows = _moment_rows(n, line)
    if entry is None:
        return list(rows)
    if not isinstance(entry, dict) or not all(
        isinstance(entry.get(key), list) and len(entry[key]) == n for key in ("translation", "matrix")
    ):
        return None
    built = []
    for (row, scale), stored_offset, stored_row in zip(rows, entry["translation"], entry["matrix"]):
        offset, *texts = _texts(row, scale)
        if stored_offset != offset or stored_row != texts:
            return None
        built.append((row, scale))
    return built


def _recipe(spec: MomentCurveSpec, ratio: Fraction, anchors, entries) -> MomentIfsRecipe:
    """The recipe read_recipe describes, of numbers _check_recipe passed; entry None builds a map."""
    n = spec.dim
    lines = _lines(spec, ratio, anchors)
    rows = [_built_rows(entry, n, line) for entry, line in zip(entries, lines)]
    rows = [_map_rows(entry, n, f"map {index}") if built is None
            else built for index, (built, entry) in enumerate(zip(rows, entries))]
    certificates = tuple(_certify_rows(map_rows, f"map {index}")
                         for index, map_rows in enumerate(rows))
    return MomentIfsRecipe(spec, ratio, tuple(anchors), rows, lines, certificates)


def build_moment_ifs(
    spec: MomentCurveSpec, ratio: Fraction, anchors: Sequence[Fraction]
) -> MomentIfsRecipe:
    """Construct the lower-triangular system for the arc η([c, d]).

    Row k of T_i holds λᵏ·binom(k, j)·(t_i/λ − c)^(k−j) in column j;
    the translation is −T_i·η(c − t_i/λ).  Equivalently, row k and
    translation entry k are the coefficients of (λt + t_i − λc)ᵏ, so
    each map satisfies f_i(η(t)) = η(λ(t−c) + t_i) identically.  The
    recipe is checked before any map is built.
    """
    ratio = Fraction(ratio)
    if not 0 < ratio <= lambda_bound(spec):
        raise ValueError("ratio must lie in (0, lambda_bound]")
    anchors = as_vector(anchors)
    _check_recipe(spec, ratio, anchors, spec.dim, len(anchors))
    return _recipe(spec, ratio, anchors, [None] * len(anchors))


@dataclass(frozen=True)
class InvarianceCounterexample:
    map_index: int
    sample: Fraction
    image: tuple[Fraction, ...]
    expected: tuple[Fraction, ...]


@dataclass(frozen=True)
class InvarianceReport:
    checks: int
    counterexamples: tuple[InvarianceCounterexample, ...]

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def verify_moment_invariance(
    recipe: MomentIfsRecipe, samples: Sequence[Fraction]
) -> InvarianceReport:
    """Check f_i(η(t)) = η(λ(t−c) + t_i) for every map, exactly, entries above the diagonal too.

    One pass compares both sides on integers at the samples and, only when they hold n or
    fewer distinct values, at the n + 1 points c + k(d − c)/n; η of n + 1 distinct points are
    affinely independent, so a map is proven once the points up to the (n + 1)-th distinct one
    pass.  A failing map is reported at every sample it fails, else at its first failing grid
    point; `checks` counts len(samples) per map.  Violations are reported, not raised.
    """
    spec, n, ratio = recipe.spec, recipe.spec.dim, recipe.ratio
    points = [Fraction(t) for t in samples]
    if any(not spec.c <= t <= spec.d for t in points):
        raise ValueError("samples must lie in [c, d]")
    sampled = len(points)
    if len(set(points)) <= n:
        points += [spec.c + k * (spec.d - spec.c) / n for k in range(n + 1)]
    numerators, common = _clear_denominators(points)
    proven = numerators.index(list(dict.fromkeys(numerators))[n]) + 1
    lifts = list(zip(recipe._rows, recipe._lines))
    def form(point):  # component k of η(P/Q) is Pᵏ/Qᵏ
        return list(accumulate(repeat(point[0], n), mul))
    failures = _lift_failures(lifts, form, range(1, n + 1), [(p,) for p in numerators],
                              common, proven)
    first = dict(reversed(failures))  # each failing map's first failing point
    return InvarianceReport(sampled * len(lifts), tuple(
        InvarianceCounterexample(k, points[j], _row_map(recipe._rows[k])(eval_moment(n, points[j])),
                                 eval_moment(n, ratio * (points[j] - spec.c) + recipe.anchors[k]))
        for k, j in failures if j < sampled or j == first[k]  # else only the first grid failure
    ))


def _recipe_meta(recipe: MomentIfsRecipe) -> dict:
    """The construction-describing meta of a recipe document."""
    return {
        "n": recipe.spec.dim,
        "c": format_rational(recipe.spec.c),
        "d": format_rational(recipe.spec.d),
        "lambda": format_rational(recipe.ratio),
        "anchors": [format_rational(t) for t in recipe.anchors],
    }


def recipe_to_jsonable(recipe: MomentIfsRecipe) -> dict:
    """IFS interchange dict extended with a construction-describing meta, strings from the rows."""
    return {"dim": recipe.spec.dim, "maps": [_rows_to_jsonable(rows) for rows in recipe._rows],
            "meta": _recipe_meta(recipe)}


def read_recipe(data) -> MomentIfsRecipe:
    """A recipe document: the construction its meta records, and its maps.

    The meta is read first, and checked as build_moment_ifs checks it, before
    any map is read.  A stored map equal to the construction's is taken as
    built; any other is parsed as by ifs_from_jsonable and kept, in cleared rows,
    so that verify_moment_invariance can name it.  Every entry is read before
    any map is certified, each on its cleared rows as certify_admissible does.
    """
    meta = data.get("meta") if isinstance(data, dict) else None
    if not isinstance(meta, dict):
        raise ValueError('recipe document needs a "meta" object (n, c, d, lambda, anchors)')
    try:
        n = meta["n"]
        if not isinstance(n, int) or isinstance(n, bool):
            raise ValueError('meta "n" must be an integer')
        if not isinstance(meta["anchors"], list):
            raise ValueError('meta "anchors" must be an array')
        spec = MomentCurveSpec(n, parse_rational(meta["c"]), parse_rational(meta["d"]))
        ratio = parse_rational(meta["lambda"])
        anchors = [parse_rational(t) for t in meta["anchors"]]
    except KeyError as exc:
        raise ValueError(f"meta is missing {exc.args[0]!r}") from None

    dim, entries = _ifs_header(data)
    _check_recipe(spec, ratio, anchors, dim, len(entries))
    return _recipe(spec, ratio, anchors, entries)
