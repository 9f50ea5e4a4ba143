"""Exact affine maps, their algebra, contraction certificates, and the lift check f∘η = η∘φ.

An affine map is f(x) = Mx + a with rational M and a.  Composition,
inversion and fixed points are all exact.  Floating point enters only
through the spectral norm, which numpy's SVD computes when the exact
row-sum bound cannot certify contraction, and through _float_array and
_float_map, the exact-to-float conversions of the numeric samplers.
numpy is imported inside these alone, so exact work never loads it.  A
map leaves the exact core as its cleared rows, which _float_map turns
into floats and _rows_to_jsonable into strings, for every system alike.  A map
object read from JSON enters it the same way: _map_rows reads each entry into an
integer ratio and each row straight into its cleared integers, with no Fraction.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Optional, Sequence

from .exactlinalg import (
    Matrix, Vector, as_matrix, as_vector, determinant, mat_inverse, mat_mul, mat_vec, solve,
)
from .rationals import _clear_denominators, _clear_ratios, _ratio

__all__ = [
    "NORM_TOLERANCE", "AffineMap", "ContractionCertificate", "IteratedFunctionSystem", "compose",
    "invert", "fixed_point", "operator_norm", "max_row_sum", "is_contractive", "certify_admissible",
    "ifs_to_jsonable", "ifs_from_jsonable", "map_from_jsonable", "map_to_jsonable",
    "matrix_from_jsonable",
]

NORM_TOLERANCE = 1e-12
# Most steps, words or checks one call enumerates: chaos iterations,
# composition words, and verify's sampled checks.
_WORD_GUARD = 10_000_000


@dataclass(frozen=True)
class AffineMap:
    """f(x) = matrix·x + translation with exact rational entries."""

    matrix: Matrix
    translation: Vector

    def __post_init__(self) -> None:
        matrix = as_matrix(self.matrix)
        translation = as_vector(self.translation)
        n = len(matrix)
        if n == 0 or any(len(row) != n for row in matrix):
            raise ValueError("matrix must be square and nonempty")
        if len(translation) != n:
            raise ValueError("translation length must match the matrix side")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "translation", translation)

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def apply(self, point: Sequence) -> Vector:
        x = as_vector(point)
        if len(x) != self.dim:
            raise ValueError("point dimension does not match the map")
        image = mat_vec(self.matrix, x)
        return tuple(m + t for m, t in zip(image, self.translation))

    def __call__(self, point: Sequence) -> Vector:
        return self.apply(point)


def compose(f: AffineMap, g: AffineMap) -> AffineMap:
    """The map x ↦ f(g(x))."""
    if f.dim != g.dim:
        raise ValueError("cannot compose maps of different dimensions")
    matrix = mat_mul(f.matrix, g.matrix)
    translation = tuple(
        m + t for m, t in zip(mat_vec(f.matrix, g.translation), f.translation)
    )
    return AffineMap(matrix, translation)


def invert(f: AffineMap) -> AffineMap:
    inverse = mat_inverse(f.matrix)
    translation = tuple(-x for x in mat_vec(inverse, f.translation))
    return AffineMap(inverse, translation)


def fixed_point(f: AffineMap) -> Vector:
    """The unique x with f(x) = x, solved exactly from (I − M)x = a."""
    return _fixed_point(_cleared_rows(f))


def _fixed_point(rows) -> Vector:
    """fixed_point of the map of cleared rows, solved from the integer rows of s·(I − M)x = s·a."""
    system = [[scale * (i == j) - x for j, x in enumerate(row[1:])]
              for i, (row, scale) in enumerate(rows)]
    try:
        return solve(system, [row[0] for row, _ in rows])
    except ValueError:
        raise ValueError("map has 1 as an eigenvalue; fixed point is not unique") from None


def _largest_row_sum(rows) -> tuple[int, int]:
    """(S, d) with S/d the largest absolute row sum of cleared rows' matrix, by one integer scan."""
    top, scale = 0, 1
    for row, denominator in rows:
        total = sum(map(abs, row)) - abs(row[0])
        if total * scale > top * denominator:
            top, scale = total, denominator
    return top, scale


def max_row_sum(matrix: Matrix) -> Fraction:
    """Largest row sum of absolute entries, an exact rational, summed on cleared ints."""
    return Fraction(*_largest_row_sum(_clear_denominators((0, *row)) for row in matrix))


def _float_array(entries):
    """A float numpy array of an exact matrix or vector.

    Raises ValueError when an entry lies beyond the float range.
    """
    import numpy as np
    try:
        return np.array(entries, dtype=float)
    except OverflowError:
        raise ValueError("an entry lies beyond the float range") from None


def _float_map(rows):
    """The float matrix and translation of a map's cleared rows, x/scale correctly rounded.

    Raises ValueError when an entry lies beyond the float range.
    """
    import numpy as np
    try:
        floats = [[x / scale for x in row] for row, scale in rows]
    except OverflowError:
        raise ValueError("an entry lies beyond the float range") from None
    return np.array([row[1:] for row in floats]), np.array([row[0] for row in floats])


def operator_norm(matrix: Sequence[Sequence]) -> float:
    """Spectral norm (largest singular value) of an exact matrix, by numpy's SVD.

    An entry beyond the float range gives inf, since the norm is at least
    the largest entry.
    """
    import numpy as np
    mat = as_matrix(matrix)
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("matrix is not square")
    if n == 0:
        return 0.0
    try:
        rows = _float_array(mat)
    except ValueError:
        return math.inf
    return float(np.linalg.norm(rows, 2))


@dataclass(frozen=True)
class ContractionCertificate:
    """Outcome of a contraction test, recording which route decided it.

    route is "row-sum-bound" when the exact inequality
    n·(max row sum)² < 1 certified contraction, else "spectral-norm".
    """

    contractive: bool
    route: str
    norm_bound: float

    def __bool__(self) -> bool:
        return self.contractive


def _contraction(rows) -> ContractionCertificate:
    """is_contractive of the map of cleared rows: n·s² < 1 decided on integers, else the SVD."""
    top, scale = _largest_row_sum(rows)
    bound, square = len(rows) * top * top, scale * scale
    if bound < square:
        return ContractionCertificate(True, "row-sum-bound", math.sqrt(bound / square))
    norm = operator_norm(tuple(tuple(Fraction(x, scale) for x in row[1:]) for row, scale in rows))
    return ContractionCertificate(norm < 1.0 - NORM_TOLERANCE, "spectral-norm", norm)


def is_contractive(f: AffineMap) -> ContractionCertificate:
    """Certified contraction test: exact row-sum route first, then numeric."""
    return _contraction(_cleared_rows(f))


def _certify_rows(rows, where: str) -> ContractionCertificate:
    """The contraction certificate of the invertible, strictly contractive map of cleared rows.

    A lower-triangular map is invertible when no diagonal entry is 0; any other asks
    determinant.  Raises ValueError, naming `where`, for a singular or a non-contractive map.
    """
    if any(any(row[i + 2:]) for i, (row, _) in enumerate(rows)):
        invertible = determinant([row[1:] for row, _ in rows]) != 0
    else:
        invertible = all(row[i + 1] for i, (row, _) in enumerate(rows))
    if not invertible:
        raise ValueError(f"{where} is not invertible")
    certificate = _contraction(rows)
    if not certificate:
        raise ValueError(f"{where} is not strictly contractive")
    return certificate


def certify_admissible(f: AffineMap, where: str = "map") -> ContractionCertificate:
    """The contraction certificate of an invertible, strictly contractive map.

    Raises ValueError, naming `where`, for a singular or a non-contractive map.
    """
    return _certify_rows(_cleared_rows(f), where)


class IteratedFunctionSystem:
    """A nonempty family of invertible, strictly contractive affine maps.

    Each map is held as its rows, translation entry first, as integers over their
    least denominator (_cleared_rows), and certified once on them; certificates holds
    the contraction certificate of each map, in order.  A system read from a file
    (ifs_from_jsonable) builds `maps` from its rows when first asked, so sampling it
    makes no AffineMap.  Equal maps have equal rows, so systems compare by their rows.
    """

    def __init__(self, maps: Sequence[AffineMap]) -> None:
        maps = tuple(maps)
        if not maps:
            raise ValueError("an iterated function system needs at least one map")
        dim = maps[0].dim
        rows, certificates = [], []
        for index, current in enumerate(maps):
            if current.dim != dim:
                raise ValueError(f"map {index} has dimension {current.dim}, expected {dim}")
            rows.append(_cleared_rows(current))
            certificates.append(_certify_rows(rows[-1], f"map {index}"))
        vars(self).update(maps=maps, _rows=rows, certificates=tuple(certificates))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    @cached_property
    def maps(self) -> tuple[AffineMap, ...]:
        return tuple(map(_row_map, self._rows))

    @property
    def dim(self) -> int:
        return len(self._rows[0])

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[AffineMap]:
        return iter(self.maps)

    def __getitem__(self, index: int) -> AffineMap:
        return self.maps[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IteratedFunctionSystem):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        return hash(tuple((tuple(row), scale) for rows in self._rows for row, scale in rows))

    def __repr__(self) -> str:
        return f"IteratedFunctionSystem(maps={self.maps!r})"


def _row_system(rows, certificates) -> IteratedFunctionSystem:
    """The system of maps given as certified cleared rows, with one certificate per map."""
    ifs = object.__new__(IteratedFunctionSystem)
    vars(ifs).update(_rows=rows, certificates=tuple(certificates))
    return ifs


def _line(scale: Fraction, shift: Fraction) -> tuple[int, int, int]:
    """Integers (α, β, γ) with scale·x + shift = (α·x + β)/γ for every x, γ the least."""
    (alpha, beta), gamma = _clear_denominators((scale, shift))
    return alpha, beta, gamma


def _cleared_rows(f: AffineMap) -> list[tuple[list[int], int]]:
    """Each row of f, its translation entry first, as integers over their least denominator."""
    return [_clear_denominators((offset,) + row) for offset, row in zip(f.translation, f.matrix)]


def _row_map(rows) -> AffineMap:
    """The map whose rows, translation entry first, are (integers, denominator) pairs."""
    rows = [[Fraction(x, scale) for x in row] for row, scale in rows]
    return AffineMap([row[1:] for row in rows], [row[0] for row in rows])


def _texts(row: list[int], scale: int) -> list[str]:
    """format_rational(x/scale) for each x of an integer row, in one pass, a gcd per nonzero x."""
    texts = []
    for x in row:
        if not x:
            texts.append("0")
        elif (common := math.gcd(x, scale)) == scale:
            texts.append(str(x // scale))
        else:
            texts.append(f"{x // common}/{scale // common}")
    return texts


def _rows_to_jsonable(rows) -> dict:
    """{"matrix", "translation"} of a map given as its cleared rows, each entry a rational string."""
    texts = [_texts(row, scale) for row, scale in rows]
    return {"matrix": [row[1:] for row in texts], "translation": [row[0] for row in texts]}


def _lift_failures(lifts, form, degrees, points, common: int, proven: int):
    """The (map index, point index) pairs where f(η(x)) ≠ η(φ(x)), compared on integers.

    `lifts` holds pairs (rows, (α, β, γ)) with φ(x) = (α·x + β)/γ in every coordinate;
    rows[k] is row k of f, its translation entry first, as (integers, denominator).
    The points are x = P/Q for the integer tuples P in `points` and Q = `common`, and
    component k of η(P/Q) is form(P)[k]/Q^degrees[k].  A map stops once the first
    `proven` points pass, and one that fails is compared at every point.  Where
    η∘φ = g∘η for an affine g, and η of those points are affinely independent, f = g.
    """
    top = max(degrees)
    scale = common**top
    table = [(scale, *(v * common ** (top - d) for v, d in zip(form(point), degrees)))
             for point in points]
    found = []
    for index, (cleared, (alpha, beta, gamma)) in enumerate(lifts):
        # at x = P/Q, φ(x) = U/G with U = α·P + β·Q and G = γ·Q
        shift, gamma = beta * common, gamma * common
        rows = [(numerators, denominator * scale, gamma**d)
                for (numerators, denominator), d in zip(cleared, degrees)]
        caught = len(found)
        for position, (point, powers) in enumerate(zip(points, table)):
            if position == proven and len(found) == caught:
                break
            image = form([alpha * p + shift for p in point])
            for (numerators, denominator, gamma_power), value in zip(rows, image):
                if sum(map(operator.mul, numerators, powers)) * gamma_power != value * denominator:
                    found.append((index, position))
                    break
    return found


def ifs_to_jsonable(ifs: IteratedFunctionSystem) -> dict:
    """Plain-dict form of an IFS, with every entry a rational string."""
    return {"dim": ifs.dim, "maps": [_rows_to_jsonable(rows) for rows in ifs._rows]}


def _ratios(values, where: str) -> list[tuple[int, int]]:
    """_ratio of each entry of `values`; a malformed entry j raises ValueError naming where[j]."""
    ratios = []
    for j, value in enumerate(values):
        try:
            ratios.append(_ratio(value))
        except ValueError as exc:
            raise ValueError(f"{where}[{j}]: {exc}") from None
    return ratios


def _matrix_ratios(rows, where: str) -> list[list[tuple[int, int]]]:
    """The _ratio of each entry of a square array, each row's shape checked before its entries."""
    if not isinstance(rows, list) or not rows:
        raise ValueError(f"{where} must be a nonempty array of rows")
    n = len(rows)
    parsed = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise ValueError(f"{where} must be square; row {i} has the wrong length")
        parsed.append(_ratios(row, f"{where}[{i}]"))
    return parsed


def _map_rows(entry, dim: Optional[int] = None, where: str = "map") -> list[tuple[list[int], int]]:
    """The cleared rows (as _cleared_rows gives them) of a map object {"matrix", "translation"}.

    Every entry is read by parse_rational's grammar, and no Fraction is built.  The checks
    run in this order: the object, each matrix row's shape and then its entries, the row
    count against `dim`, the translation's length, and its entries; each error names `where`.
    """
    if not isinstance(entry, dict):
        raise ValueError(f"{where} must be an object")
    matrix = _matrix_ratios(entry.get("matrix"), f"{where} matrix")
    if dim is not None and len(matrix) != dim:
        raise ValueError(f"{where}: matrix must have {dim} rows")
    translation = entry.get("translation")
    if not isinstance(translation, list) or len(translation) != len(matrix):
        raise ValueError(f"{where}: translation must have {len(matrix)} entries")
    offsets = _ratios(translation, f"{where}, translation")
    return [_clear_ratios([offset, *row]) for offset, row in zip(offsets, matrix)]


def matrix_from_jsonable(rows, where: str = "matrix") -> Matrix:
    """Parse a square array of rational strings (or integers)."""
    return tuple(tuple(Fraction(p, q) for p, q in row) for row in _matrix_ratios(rows, where))


def map_from_jsonable(entry, dim: Optional[int] = None, where: str = "map") -> AffineMap:
    """Parse {"matrix": …, "translation": …} with rational-string entries."""
    return _row_map(_map_rows(entry, dim, where))


def map_to_jsonable(f: AffineMap) -> dict:
    return _rows_to_jsonable(_cleared_rows(f))


def _ifs_header(data) -> tuple[int, list]:
    """The "dim" and the "maps" entries of an IFS document, checked before any entry is read."""
    if not isinstance(data, dict):
        raise ValueError("IFS document must be a JSON object")
    dim = data.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ValueError('"dim" must be a positive integer')
    entries = data.get("maps")
    if not isinstance(entries, list) or not entries:
        raise ValueError('"maps" must be a nonempty array')
    return dim, entries


def ifs_from_jsonable(data) -> IteratedFunctionSystem:
    """Parse and validate the dict form produced by ifs_to_jsonable.

    Every map is read into its cleared rows before any is certified, once, on those rows.
    """
    dim, entries = _ifs_header(data)
    rows = [_map_rows(entry, dim, f"map {index}") for index, entry in enumerate(entries)]
    return _row_system(rows, [_certify_rows(map_rows, f"map {index}")
                              for index, map_rows in enumerate(rows)])
