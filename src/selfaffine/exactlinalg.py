"""Dense exact linear algebra over Fraction.

Matrices are tuples of row tuples, vectors are flat tuples.  Everything
here targets the small dimensions of this package (n rarely above 8),
so plain Gaussian elimination is the right tool.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]

__all__ = [
    "Matrix",
    "Vector",
    "as_vector",
    "as_matrix",
    "identity",
    "mat_vec",
    "mat_mul",
    "mat_inverse",
    "determinant",
    "solve",
    "express_in_span",
    "greedy_independent",
]


def as_vector(entries: Iterable) -> Vector:
    return tuple(Fraction(e) for e in entries)


def as_matrix(rows: Iterable[Iterable]) -> Matrix:
    mat = tuple(as_vector(row) for row in rows)
    if mat and any(len(row) != len(mat[0]) for row in mat):
        raise ValueError("ragged matrix")
    return mat


def identity(n: int) -> Matrix:
    one, zero = Fraction(1), Fraction(0)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def mat_vec(matrix: Matrix, vector: Sequence[Fraction]) -> Vector:
    if matrix and len(matrix[0]) != len(vector):
        raise ValueError("dimension mismatch in mat_vec")
    return tuple(sum(row[j] * vector[j] for j in range(len(vector))) for row in matrix)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("dimension mismatch in mat_mul")
    cols = len(b[0]) if b else 0
    return tuple(
        tuple(sum(arow[k] * b[k][j] for k in range(len(b))) for j in range(cols))
        for arow in a
    )


def _eliminate(aug: list[list[Fraction]], cols: int) -> list[int]:
    """In-place row echelon on an augmented matrix; returns pivot columns."""
    pivots: list[int] = []
    row = 0
    for col in range(cols):
        pivot_row = next((r for r in range(row, len(aug)) if aug[r][col] != 0), None)
        if pivot_row is None:
            continue
        aug[row], aug[pivot_row] = aug[pivot_row], aug[row]
        inv = 1 / aug[row][col]
        aug[row] = [x * inv for x in aug[row]]
        for r in range(len(aug)):
            if r != row and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
        if row == len(aug):
            break
    return pivots


def mat_inverse(matrix: Matrix) -> Matrix:
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    aug = [list(matrix[i]) + list(identity(n)[i]) for i in range(n)]
    pivots = _eliminate(aug, n)
    if len(pivots) != n:
        raise ValueError("singular matrix")
    return tuple(tuple(aug[i][n:]) for i in range(n))


def determinant(matrix: Matrix) -> Fraction:
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    rows = [list(row) for row in matrix]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, n):
            if rows[r][col] != 0:
                factor = rows[r][col] * inv
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return det


def solve(matrix: Matrix, rhs: Sequence[Fraction]) -> Vector:
    """Solve a square exact system; raises ValueError when singular."""
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("solve expects a square system")
    aug = [list(matrix[i]) + [Fraction(rhs[i])] for i in range(n)]
    pivots = _eliminate(aug, n)
    if len(pivots) != n:
        raise ValueError("singular matrix")
    return tuple(aug[i][n] for i in range(n))


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
    pivots = _eliminate(aug, k)
    rank = len(pivots)
    for r in range(rank, m):
        if aug[r][k] != 0:
            return None
    coeffs = [Fraction(0)] * k
    for r, col in enumerate(pivots):
        coeffs[col] = aug[r][k]
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
    kept = _eliminate(columns, len(vectors))
    return len(kept), tuple(kept)
