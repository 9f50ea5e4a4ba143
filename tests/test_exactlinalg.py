"""Exact rational linear algebra against brute-force and numpy oracles."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from selfaffine.exactlinalg import (
    determinant,
    express_in_span,
    greedy_independent,
    identity,
    mat_inverse,
    mat_mul,
    mat_vec,
    solve,
)


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
