"""Exact rational linear algebra against brute-force and numpy oracles."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from selfaffine.exactlinalg import (
    _eliminate,
    determinant,
    express_in_span,
    greedy_independent,
    identity,
    mat_inverse,
    mat_mul,
    mat_vec,
    solve,
)
from selfaffine.moment import MomentCurveSpec, build_moment_ifs, choose_anchors, lambda_bound


def _random_matrix(rng, n, bound=5):
    return tuple(
        tuple(Fraction(rng.randint(-bound, bound), rng.randint(1, 4)) for _ in range(n))
        for _ in range(n)
    )


def _leibniz_determinant(m):
    """Independent oracle: sum over permutations with explicit signs."""
    n = len(m)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        # count inversions for the sign
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if seen[i] > seen[j]
        )
        sign = -1 if inversions % 2 else 1
        product = Fraction(1)
        for row, col in enumerate(perm):
            product *= m[row][col]
        total += sign * product
    return total


class TestDeterminant:
    def test_hand_2x2(self):
        assert determinant(((Fraction(1), Fraction(2)), (Fraction(3), Fraction(4)))) == -2

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_leibniz(self, n):
        rng = random.Random(100 + n)
        for _ in range(10):
            m = _random_matrix(rng, n)
            assert determinant(m) == _leibniz_determinant(m)

    def test_singular(self):
        m = ((Fraction(1), Fraction(2)), (Fraction(2), Fraction(4)))
        assert determinant(m) == 0


class TestInverse:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_round_trip(self, n):
        rng = random.Random(7 * n)
        for _ in range(5):
            m = _random_matrix(rng, n)
            if determinant(m) == 0:
                continue
            inv = mat_inverse(m)
            assert mat_mul(m, inv) == identity(n)
            assert mat_mul(inv, m) == identity(n)

    def test_singular_raises(self):
        with pytest.raises(ValueError, match="singular"):
            mat_inverse(((Fraction(1), Fraction(1)), (Fraction(1), Fraction(1))))


class TestSolve:
    def test_exact_solution(self):
        rng = random.Random(42)
        for _ in range(10):
            m = _random_matrix(rng, 3)
            if determinant(m) == 0:
                continue
            x = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3))
            b = mat_vec(m, x)
            assert solve(m, b) == x

    def test_singular_raises(self):
        m = ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0)))
        with pytest.raises(ValueError):
            solve(m, (Fraction(1), Fraction(1)))


class TestExpressInSpan:
    def test_known_combination(self):
        v1 = (Fraction(1), Fraction(0), Fraction(2))
        v2 = (Fraction(0), Fraction(1), Fraction(-1))
        target = tuple(3 * a - 2 * b for a, b in zip(v1, v2))
        coeffs = express_in_span([v1, v2], target)
        assert coeffs == (Fraction(3), Fraction(-2))

    def test_outside_span(self):
        v1 = (Fraction(1), Fraction(0), Fraction(0))
        v2 = (Fraction(0), Fraction(1), Fraction(0))
        target = (Fraction(0), Fraction(0), Fraction(1))
        assert express_in_span([v1, v2], target) is None

    def test_reconstruction_random(self):
        rng = random.Random(11)
        vectors = [
            tuple(Fraction(rng.randint(-4, 4)) for _ in range(5)) for _ in range(3)
        ]
        weights = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(3)]
        target = tuple(
            sum(w * v[i] for w, v in zip(weights, vectors)) for i in range(5)
        )
        coeffs = express_in_span(vectors, target)
        assert coeffs is not None
        rebuilt = tuple(
            sum(c * v[i] for c, v in zip(coeffs, vectors)) for i in range(5)
        )
        assert rebuilt == target

    def test_empty_span(self):
        zero = (Fraction(0), Fraction(0))
        assert express_in_span([], zero) == ()
        assert express_in_span([], (Fraction(1), Fraction(0))) is None


class TestGreedyIndependent:
    def test_duplicates_dropped(self):
        v = (Fraction(1), Fraction(2))
        rank, kept = greedy_independent([v, v, (Fraction(2), Fraction(4))])
        assert rank == 1
        assert kept == (0,)

    def test_full_rank(self):
        vectors = [
            (Fraction(1), Fraction(0)),
            (Fraction(1), Fraction(1)),
        ]
        rank, kept = greedy_independent(vectors)
        assert rank == 2
        assert kept == (0, 1)

    def test_zero_vectors(self):
        zero = (Fraction(0), Fraction(0))
        rank, kept = greedy_independent([zero, zero])
        assert rank == 0
        assert kept == ()

    def test_kept_indices_are_those_that_raise_the_rank(self):
        rng = random.Random(5)
        for _ in range(20):
            vectors = [
                tuple(Fraction(rng.randint(-1, 1)) for _ in range(3)) for _ in range(6)
            ]
            _, kept = greedy_independent(vectors)
            ranks = [0] + [
                np.linalg.matrix_rank(np.array(vectors[: i + 1], dtype=float))
                for i in range(len(vectors))
            ]
            assert kept == tuple(i for i in range(len(vectors)) if ranks[i + 1] > ranks[i])

    def test_matches_numpy_rank(self):
        rng = random.Random(3)
        for _ in range(10):
            rows = [
                tuple(Fraction(rng.randint(-2, 2)) for _ in range(4)) for _ in range(6)
            ]
            rank, _ = greedy_independent(rows)
            numeric = np.linalg.matrix_rank(np.array(rows, dtype=float))
            assert rank == numeric


# Plain reference: Gauss–Jordan elimination on Fractions, normalising the
# pivot row at every pivot, and forward elimination for the determinant.
def _reference_eliminate(aug, cols):
    """In-place row echelon on an augmented matrix; returns pivot columns."""
    pivots = []
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


def _reference_determinant(matrix):
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


def _reference_inverse(matrix):
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    aug = [list(matrix[i]) + list(identity(n)[i]) for i in range(n)]
    if len(_reference_eliminate(aug, n)) != n:
        raise ValueError("singular matrix")
    return tuple(tuple(aug[i][n:]) for i in range(n))


def _reference_solve(matrix, rhs):
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("solve expects a square system")
    aug = [list(matrix[i]) + [Fraction(rhs[i])] for i in range(n)]
    if len(_reference_eliminate(aug, n)) != n:
        raise ValueError("singular matrix")
    return tuple(aug[i][n] for i in range(n))


def _reference_express(vectors, target):
    if not vectors:
        return None if any(t != 0 for t in target) else ()
    m = len(target)
    if any(len(v) != m for v in vectors):
        raise ValueError("span vectors and target must share length")
    k = len(vectors)
    aug = [[Fraction(vectors[j][i]) for j in range(k)] + [Fraction(target[i])] for i in range(m)]
    pivots = _reference_eliminate(aug, k)
    if any(aug[r][k] != 0 for r in range(len(pivots), m)):
        return None
    coeffs = [Fraction(0)] * k
    for r, col in enumerate(pivots):
        coeffs[col] = aug[r][k]
    return tuple(coeffs)


def _reference_greedy(vectors):
    if not vectors:
        return 0, ()
    columns = [[Fraction(v[i]) for v in vectors] for i in range(len(vectors[0]))]
    kept = _reference_eliminate(columns, len(vectors))
    return len(kept), tuple(kept)


def _outcome(function, *args):
    """The value returned, or the type and message of the exception raised."""
    try:
        return "value", function(*args)
    except Exception as exc:  # compared, not swallowed
        return "raised", type(exc), str(exc)


def _entry(rng, digits, zeros):
    if rng.random() < zeros:
        return Fraction(0)
    bound = 10**digits
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def _matrix(rng, rows, cols, digits=1, zeros=0.3):
    return tuple(tuple(_entry(rng, digits, zeros) for _ in range(cols)) for _ in range(rows))


def _degenerate(rng, m):
    """m made singular or rank-deficient: a zero row or column, or a combination."""
    n = len(m)
    rows = [list(row) for row in m]
    kind = rng.randrange(3)
    if kind == 0:
        rows[rng.randrange(n)] = [Fraction(0)] * n
    elif kind == 1:
        col = rng.randrange(n)
        for row in rows:
            row[col] = Fraction(0)
    else:
        a, b = Fraction(rng.randint(-3, 3), rng.randint(1, 3)), Fraction(rng.randint(-3, 3))
        rows[rng.randrange(n)] = [a * x + b * y for x, y in zip(rows[0], rows[-1])]
    return tuple(tuple(row) for row in rows)


def _square_cases():
    rng = random.Random(2024)
    cases = [(), ((Fraction(0),),), ((Fraction(-7, 3),),)]
    for _ in range(300):
        n = rng.randint(1, 6)
        m = _matrix(rng, n, n, digits=rng.choice((1, 12)), zeros=rng.choice((0.0, 0.3, 0.7)))
        cases.append(_degenerate(rng, m) if rng.random() < 0.4 else m)
    return cases


def _moment_matrices():
    """Every 23rd of the 4,580 lower-triangular maps of the n = 5 system on [0, 1]."""
    spec = MomentCurveSpec(5, Fraction(0), Fraction(1))
    ratio = lambda_bound(spec) / 2
    recipe = build_moment_ifs(spec, ratio, choose_anchors(spec, ratio))
    assert len(recipe.anchors) == 4580
    return [recipe.ifs.maps[i].matrix for i in range(0, 4580, 23)]


class TestAgainstReference:
    """The fraction-free routines equal the plain Fraction elimination."""

    def test_square_routines(self):
        rng = random.Random(7)
        for m in _square_cases():
            rhs = tuple(_entry(rng, 2, 0.2) for _ in range(len(m)))
            assert _outcome(determinant, m) == _outcome(_reference_determinant, m)
            assert _outcome(mat_inverse, m) == _outcome(_reference_inverse, m)
            assert _outcome(solve, m, rhs) == _outcome(_reference_solve, m, rhs)

    def test_pivot_sets(self):
        rng = random.Random(8)
        for _ in range(300):
            rows, cols = rng.randint(0, 6), rng.randint(0, 7)
            m = _matrix(rng, rows, cols, digits=rng.choice((1, 12)), zeros=rng.choice((0.3, 0.8)))
            cut = rng.randint(0, cols)
            reference = [list(row) for row in m]
            assert _eliminate(m, cut)[0] == _reference_eliminate(reference, cut)

    def test_express_in_span_and_greedy(self):
        rng = random.Random(9)
        for _ in range(400):
            count, length = rng.randint(1, 6), rng.randint(0, 7)
            vectors = [
                tuple(_entry(rng, rng.choice((1, 12)), 0.4) for _ in range(length))
                for _ in range(count)
            ]
            if count > 1 and rng.random() < 0.5:
                vectors[-1] = tuple(2 * a - b for a, b in zip(vectors[0], vectors[1]))
            weights = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in vectors]
            inside = tuple(sum(w * v[i] for w, v in zip(weights, vectors)) for i in range(length))
            outside = tuple(_entry(rng, 1, 0.3) for _ in range(length))
            for target in (inside, outside):
                assert _outcome(express_in_span, vectors, target) == _outcome(
                    _reference_express, vectors, target
                )
            assert greedy_independent(vectors) == _reference_greedy(vectors)
        ragged = [(Fraction(1),), (Fraction(1), Fraction(2))]
        assert _outcome(express_in_span, ragged, (Fraction(1),)) == _outcome(
            _reference_express, ragged, (Fraction(1),)
        )

    def test_shape_errors(self):
        ragged = ((Fraction(1), Fraction(2)), (Fraction(3),))
        wide = ((Fraction(1), Fraction(2)),)
        for m in (ragged, wide):
            assert _outcome(determinant, m) == _outcome(_reference_determinant, m)
            assert _outcome(mat_inverse, m) == _outcome(_reference_inverse, m)
            rhs = (Fraction(1),)
            assert _outcome(solve, m, rhs) == _outcome(_reference_solve, m, rhs)
        square = ((Fraction(1),),)
        assert _outcome(solve, square, ()) == _outcome(_reference_solve, square, ())

    def test_lower_triangular_moment_maps(self):
        for m in _moment_matrices():
            assert determinant(m) == _reference_determinant(m) != 0
            assert mat_inverse(m) == _reference_inverse(m)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_twelve_digit_denominators_match_leibniz(self, n):
        rng = random.Random(300 + n)
        for _ in range(10):
            m = _matrix(rng, n, n, digits=12, zeros=0.1)
            assert determinant(m) == _reference_determinant(m) == _leibniz_determinant(m)
