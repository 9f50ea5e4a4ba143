"""Exact affine maps, their algebra, contraction certificates, and the lift check f∘η = η∘φ.

An affine map is f(x) = Mx + a with rational M and a, held as its cleared
integer rows.  Composition, inversion, application and fixed points are all
exact and work on those rows: compose combines f's rows with g's over one lcm,
and invert makes one fraction-free elimination, so neither makes a Fraction
matrix.  Floating point enters only
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
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Optional, Sequence

from .exactlinalg import (
    Matrix, Vector, _eliminate, as_matrix, as_vector, determinant,
)
from .rationals import _clear_denominators, _clear_ratios, _ratio

__all__ = [
    "NORM_TOLERANCE", "AffineMap", "ContractionCertificate", "IteratedFunctionSystem", "compose",
    "invert", "fixed_point", "operator_norm", "is_contractive", "certify_admissible",
    "ifs_from_jsonable", "map_from_jsonable", "matrix_from_jsonable",
]

NORM_TOLERANCE = 1e-12
# Most steps, words or checks one call enumerates: chaos iterations,
# composition words, and verify's sampled checks.
_WORD_GUARD = 10_000_000


@dataclass(frozen=True, init=False, repr=False)
class AffineMap:
    """f(x) = matrix·x + translation with exact rational entries.

    Held as its rows, translation entry first, each as integers over their least
    denominator (`_rows`), so equal maps have equal rows; matrix and translation
    are the Fraction tuples of those rows, made when first asked.
    """

    _rows: list

    def __init__(self, matrix: Matrix, translation: Vector) -> None:
        matrix = as_matrix(matrix)
        translation = as_vector(translation)
        n = len(matrix)
        if n == 0 or any(len(row) != n for row in matrix):
            raise ValueError("matrix must be square and nonempty")
        if len(translation) != n:
            raise ValueError("translation length must match the matrix side")
        rows = [_clear_denominators((offset, *row)) for offset, row in zip(translation, matrix)]
        vars(self).update(_rows=rows, matrix=matrix, translation=translation)

    @cached_property
    def matrix(self) -> Matrix:
        return tuple(tuple(Fraction(x, scale) for x in row[1:]) for row, scale in self._rows)

    @cached_property
    def translation(self) -> Vector:
        return tuple(Fraction(row[0], scale) for row, scale in self._rows)

    def __hash__(self) -> int:
        return hash(tuple((tuple(row), scale) for row, scale in self._rows))

    def __repr__(self) -> str:
        return f"AffineMap(matrix={self.matrix!r}, translation={self.translation!r})"

    @property
    def dim(self) -> int:
        return len(self._rows)

    def apply(self, point: Sequence) -> Vector:
        x = as_vector(point)
        if len(x) != self.dim:
            raise ValueError("point dimension does not match the map")
        # f(P/q) row by row: (row[0]·q + Σ row[j]·P_j) / (scale·q)
        numerators, common = _clear_denominators(x)
        return tuple(Fraction(row[0] * common + sum(map(operator.mul, row[1:], numerators)),
                              scale * common) for row, scale in self._rows)

    def __call__(self, point: Sequence) -> Vector:
        return self.apply(point)


def _row_map(rows) -> AffineMap:
    """The map whose rows, translation entry first, are least (integers, denominator) pairs."""
    f = object.__new__(AffineMap)
    vars(f)["_rows"] = rows
    return f


def _least(numerators, scale: int) -> tuple[list[int], int]:
    """The row numerators/scale over its least, positive denominator, by one gcd."""
    common = math.gcd(scale, *numerators)
    if scale < 0:
        common = -common
    return [x // common for x in numerators], scale // common


def compose(f: AffineMap, g: AffineMap) -> AffineMap:
    """The map x ↦ f(g(x)), on cleared rows: f's rows times g's over one lcm, one gcd a row."""
    if f.dim != g.dim:
        raise ValueError("cannot compose maps of different dimensions")
    common = math.lcm(*[scale for _, scale in g._rows])
    inner = [[x * (common // scale) for x in row] for row, scale in g._rows]
    rows = []
    for row, scale in f._rows:
        # row i of f∘g over scale·common: f's translation, then f's matrix row times g's rows
        combined = [row[0] * common] + [0] * f.dim
        for weight, other in zip(row[1:], inner):
            if weight:
                combined = [x + weight * y for x, y in zip(combined, other)]
        rows.append(_least(combined, scale * common))
    return _row_map(rows)


def invert(f: AffineMap) -> AffineMap:
    """The map f⁻¹, by one elimination of [A | D | o] made of f's integer rows.

    D holds f's row denominators, so f(x) = D⁻¹(A·x + o).  The eliminated rows are the
    last pivot times [I | A⁻¹D | A⁻¹o], and f⁻¹(y) = A⁻¹D·y − A⁻¹o.
    """
    n = f.dim
    augmented = [[*row[1:], *(scale * (i == j) for j in range(n)), row[0]]
                 for i, (row, scale) in enumerate(f._rows)]
    pivots, _, ints, last = _eliminate(augmented, n)
    if len(pivots) != n:
        raise ValueError("singular matrix")
    return _row_map([_least([-row[-1], *row[n:-1]], last) for row in ints])


def _lower_triangular(rows) -> bool:
    """Whether cleared rows, translation entry first, have no nonzero entry above the diagonal."""
    return not any(any(row[i + 2:]) for i, (row, _) in enumerate(rows))


def fixed_point(f: AffineMap) -> Vector:
    """The unique x with f(x) = x, exactly: a lower-triangular map by forward substitution on its
    rows, x_k = (a_k + Σ_{j<k} m_kj·x_j)/(1 − m_kk), any other from the rows of s·(I − M)x = s·a."""
    if _lower_triangular(f._rows):
        x = []
        for k, (row, scale) in enumerate(f._rows):
            if row[k + 1] == scale:
                raise ValueError("map has 1 as an eigenvalue; fixed point is not unique")
            x.append(Fraction(row[0] + sum(w * v for w, v in zip(row[1:k + 1], x) if w),
                              scale - row[k + 1]))
        return tuple(x)
    system = [[*(scale * (i == j) - x for j, x in enumerate(row[1:])), row[0]]
              for i, (row, scale) in enumerate(f._rows)]
    pivots, _, ints, last = _eliminate(system, f.dim)
    if len(pivots) != f.dim:
        raise ValueError("map has 1 as an eigenvalue; fixed point is not unique")
    return tuple(Fraction(row[-1], last) for row in ints)


def _largest_row_sum(rows) -> tuple[int, int]:
    """(S, d) with S/d the largest absolute row sum of cleared rows' matrix, by one integer scan."""
    top, scale = 0, 1
    for row, denominator in rows:
        total = sum(map(abs, row)) - abs(row[0])
        if total * scale > top * denominator:
            top, scale = total, denominator
    return top, scale


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


def is_contractive(f: AffineMap) -> ContractionCertificate:
    """Certified contraction test: n·s² < 1 decided on f's cleared rows, else the SVD."""
    top, scale = _largest_row_sum(f._rows)
    bound, square = f.dim * top * top, scale * scale
    if bound < square:
        return ContractionCertificate(True, "row-sum-bound", math.sqrt(bound / square))
    import numpy as np
    try:  # x/scale rounds as float(Fraction(x, scale)) does, and no Fraction is made
        matrix = np.array([[x / scale for x in row[1:]] for row, scale in f._rows])
        norm = float(np.linalg.norm(matrix, 2))
    except OverflowError:  # an entry beyond the float range: the norm is at least inf
        norm = math.inf
    return ContractionCertificate(norm < 1.0 - NORM_TOLERANCE, "spectral-norm", norm)


def certify_admissible(f: AffineMap, where: str = "map") -> ContractionCertificate:
    """The contraction certificate of an invertible, strictly contractive map.

    A lower-triangular map is invertible when no diagonal entry is 0; any other asks
    determinant.  Raises ValueError, naming `where`, for a singular or a non-contractive map.
    """
    rows = f._rows
    if _lower_triangular(rows):
        invertible = all(row[i + 1] for i, (row, _) in enumerate(rows))
    else:
        invertible = determinant([row[1:] for row, _ in rows]) != 0
    if not invertible:
        raise ValueError(f"{where} is not invertible")
    certificate = is_contractive(f)
    if not certificate:
        raise ValueError(f"{where} is not strictly contractive")
    return certificate


@dataclass(frozen=True)
class IteratedFunctionSystem:
    """A nonempty family of invertible, strictly contractive affine maps.

    Each map is certified once, on its cleared rows; certificates holds the contraction
    certificate of each map, in order.
    """

    maps: tuple[AffineMap, ...]
    certificates: tuple[ContractionCertificate, ...] = field(
        default=(), init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        maps = tuple(self.maps)
        if not maps:
            raise ValueError("an iterated function system needs at least one map")
        dim = maps[0].dim
        certificates = []
        for index, current in enumerate(maps):
            if current.dim != dim:
                raise ValueError(f"map {index} has dimension {current.dim}, expected {dim}")
            certificates.append(certify_admissible(current, f"map {index}"))
        object.__setattr__(self, "maps", maps)
        object.__setattr__(self, "certificates", tuple(certificates))

    @property
    def dim(self) -> int:
        return self.maps[0].dim

    def __len__(self) -> int:
        return len(self.maps)

    def __iter__(self) -> Iterator[AffineMap]:
        return iter(self.maps)

    def __getitem__(self, index: int) -> AffineMap:
        return self.maps[index]

    @property
    def _rows(self) -> list:
        """Each map's cleared rows, as the maps hold them."""
        return [f._rows for f in self.maps]


def _line(scale: Fraction, shift: Fraction) -> tuple[int, int, int]:
    """Integers (α, β, γ) with scale·x + shift = (α·x + β)/γ for every x, γ the least."""
    (alpha, beta), gamma = _clear_denominators((scale, shift))
    return alpha, beta, gamma


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
    """The cleared rows (as an AffineMap holds them) of a map object {"matrix", "translation"}.

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
    """Parse and validate {"dim": n, "maps": [{"matrix", "translation"}, ...]}.

    Every map is read into its cleared rows before any is certified, once, on those rows.
    """
    dim, entries = _ifs_header(data)
    return IteratedFunctionSystem(
        [_row_map(_map_rows(entry, dim, f"map {index}")) for index, entry in enumerate(entries)])
