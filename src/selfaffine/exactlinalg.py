"""Dense exact linear algebra over Fraction.

Matrices are tuples of row tuples, vectors are flat tuples.  Everything
here targets the small dimensions of this package (n rarely above 8).
There is no matrix product: affine maps compose and invert on their
cleared integer rows in `affine`, whose `invert` calls `_eliminate` itself.
One elimination loop, `_eliminate`, serves every routine: fraction-free
Gauss–Jordan elimination (Bareiss, Math. Comp. 22, 1968) on integer rows,
which the public routines clear once at entry.  At each pivot p, every other
row becomes (p·row − factor·pivot row) / previous pivot, exactly, because
after k pivots every entry is a k×k or (k+1)×(k+1) minor of the cleared
matrix (Sylvester's identity).  No rational is normalised inside the loop;
the pivot rows end as the last pivot times the reduced row echelon form, and
the callers divide once.  determinant and greedy_independent read only the
pivots, the sign and the last pivot, so for them it reduces only below each pivot.
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


def _eliminate(ints: Sequence[Sequence[int]], cols: int, above: bool = True):
    """Fraction-free elimination of integer rows on the first `cols` columns.

    Returns (pivots, sign, ints, last): the earliest pivot columns, in order;
    the sign of the row permutation; the rows, whose pivot rows are `last` times
    the reduced row echelon form when `above`; and the last pivot, the minor of
    the rows on the pivot rows and columns (1 if none).  above=False reduces only
    the rows below each pivot (forward Bareiss), with the same pivots, sign and last.
    """
    ints = list(ints)
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
        for r in range(0 if above else row + 1, len(ints)):
            if r != row:
                current, factor = ints[r], ints[r][col]
                ints[r] = [(pivot * x - factor * y) // last for x, y in zip(current, top)]
        pivots.append(col)
        last = pivot
    return pivots, sign, ints, last


def _cleared(rows) -> list[list[int]]:
    """Each row's numerators over its own least common denominator."""
    return [_clear_denominators(row)[0] for row in rows]


def mat_inverse(matrix: Matrix) -> Matrix:
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    aug = _cleared([*row, *(int(i == j) for j in range(n))] for i, row in enumerate(matrix))
    pivots, _, ints, last = _eliminate(aug, n)
    if len(pivots) != n:
        raise ValueError("singular matrix")
    return tuple(tuple(Fraction(x, last) for x in row[n:]) for row in ints)


def determinant(matrix: Matrix) -> Fraction:
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    cleared = [_clear_denominators(row) for row in matrix]
    pivots, sign, _, last = _eliminate([ints for ints, _ in cleared], n, above=False)
    if len(pivots) != n:
        return Fraction(0)
    return Fraction(sign * last, math.prod(scale for _, scale in cleared))


def solve(matrix: Matrix, rhs: Sequence[Fraction]) -> Vector:
    """Solve a square exact system; raises ValueError when singular."""
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("solve expects a square system")
    pivots, _, ints, last = _eliminate(_cleared([*matrix[i], rhs[i]] for i in range(n)), n)
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
    aug = _cleared([*(vectors[j][i] for j in range(k)), target[i]] for i in range(m))
    pivots, _, ints, last = _eliminate(aug, k)
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
    columns = _cleared([v[i] for v in vectors] for i in range(len(vectors[0])))
    kept = _eliminate(columns, len(vectors), above=False)[0]
    return len(kept), tuple(kept)
