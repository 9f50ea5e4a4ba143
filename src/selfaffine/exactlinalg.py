"""Dense exact linear algebra over Fraction.

Matrices are tuples of row tuples, vectors are flat tuples.  Everything
here targets the small dimensions of this package (n rarely above 8).
There is no matrix product: affine maps compose and invert on their
cleared integer rows in `affine`, whose `invert` calls `_eliminate` itself.
One elimination loop, `_eliminate`, serves every routine.  It clears
each row's denominators to Python ints and runs fraction-free
Gauss–Jordan elimination (Bareiss, Math. Comp. 22, 1968): at each pivot
p, every other row becomes (p·row − factor·pivot row) / previous pivot.
That division is exact, because after k pivots every entry is a k×k or
(k+1)×(k+1) minor of the cleared matrix (Sylvester's identity).  So no
rational is normalised inside the loop; the pivot rows end as the last
pivot times the reduced row echelon form, and the callers divide once.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .rationals import _clear_denominators

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]

__all__ = [
    "Matrix",
    "Vector",
    "as_vector",
    "as_matrix",
    "identity",
    "mat_inverse",
    "determinant",
    "solve",
    "express_in_span",
    "greedy_independent",
]


def as_vector(entries: Iterable) -> Vector:
    return tuple(e if isinstance(e, Fraction) else Fraction(e) for e in entries)


def as_matrix(rows: Iterable[Iterable]) -> Matrix:
    mat = tuple(as_vector(row) for row in rows)
    if mat and any(len(row) != len(mat[0]) for row in mat):
        raise ValueError("ragged matrix")
    return mat


def identity(n: int) -> Matrix:
    one, zero = Fraction(1), Fraction(0)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def _eliminate(rows: Sequence[Sequence[Fraction]], cols: int):
    """Fraction-free Gauss–Jordan elimination on the first `cols` columns.

    Returns (pivots, sign, ints, scales, last): the earliest pivot columns,
    in order; the sign of the row permutation; the integer rows, whose
    pivot rows are `last` times the reduced row echelon form; the scale
    each input row was cleared over, in input order; and the last pivot,
    the minor of the cleared rows on the pivot rows and columns (1 if none).
    """
    cleared = [_clear_denominators(row) for row in rows]
    ints = [numerators for numerators, _ in cleared]
    pivots: list[int] = []
    sign = last = 1
    for col in range(cols):
        row = len(pivots)
        if row == len(ints):
            break
        pivot_row = next((r for r in range(row, len(ints)) if ints[r][col]), None)
        if pivot_row is None:
            continue
        if pivot_row != row:
            ints[row], ints[pivot_row] = ints[pivot_row], ints[row]
            sign = -sign
        top = ints[row]
        pivot = top[col]
        for r, current in enumerate(ints):
            if r != row:
                factor = current[col]
                ints[r] = [(pivot * x - factor * y) // last for x, y in zip(current, top)]
        pivots.append(col)
        last = pivot
    return pivots, sign, ints, [scale for _, scale in cleared], last


def mat_inverse(matrix: Matrix) -> Matrix:
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(matrix)]
    pivots, _, ints, _, last = _eliminate(aug, n)
    if len(pivots) != n:
        raise ValueError("singular matrix")
    return tuple(tuple(Fraction(x, last) for x in row[n:]) for row in ints)


def determinant(matrix: Matrix) -> Fraction:
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    pivots, sign, _, scales, last = _eliminate(matrix, n)
    if len(pivots) != n:
        return Fraction(0)
    return Fraction(sign * last, math.prod(scales))


def solve(matrix: Matrix, rhs: Sequence[Fraction]) -> Vector:
    """Solve a square exact system; raises ValueError when singular."""
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("solve expects a square system")
    aug = [list(matrix[i]) + [Fraction(rhs[i])] for i in range(n)]
    pivots, _, ints, _, last = _eliminate(aug, n)
    if len(pivots) != n:
        raise ValueError("singular matrix")
    return tuple(Fraction(row[n], last) for row in ints)


def express_in_span(
    vectors: Sequence[Sequence[Fraction]], target: Sequence[Fraction]
) -> Optional[Vector]:
    """Exact coefficients c with sum(c_i * vectors[i]) == target, or None.

    The system may be overdetermined; free variables are set to zero.
    """
    if not vectors:
        return None if any(t != 0 for t in target) else ()
    m = len(target)
    if any(len(v) != m for v in vectors):
        raise ValueError("span vectors and target must share length")
    k = len(vectors)
    aug = [[Fraction(vectors[j][i]) for j in range(k)] + [Fraction(target[i])] for i in range(m)]
    pivots, _, ints, _, last = _eliminate(aug, k)
    if any(row[k] for row in ints[len(pivots):]):
        return None
    coeffs = [Fraction(0)] * k
    for row, col in zip(ints, pivots):
        coeffs[col] = Fraction(row[k], last)
    return tuple(coeffs)


def greedy_independent(vectors: Sequence[Sequence[Fraction]]) -> tuple[int, tuple[int, ...]]:
    """Rank and the earliest index set of linearly independent vectors.

    The pivot columns of the matrix whose columns are the vectors are the
    indices kept by scanning in order and keeping each vector that is
    independent of the ones already kept; returns (rank, kept indices).
    """
    if not vectors:
        return 0, ()
    columns = [[Fraction(v[i]) for v in vectors] for i in range(len(vectors[0]))]
    kept = _eliminate(columns, len(vectors))[0]
    return len(kept), tuple(kept)
