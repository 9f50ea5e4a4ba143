"""Affine maps: algebra, contraction certificates, JSON interchange."""

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from selfaffine import affine
from selfaffine.affine import (
    NORM_TOLERANCE,
    AffineMap,
    ContractionCertificate,
    IteratedFunctionSystem,
    _cleared_rows,
    _float_array,
    _float_map,
    _row_map,
    _rows_to_jsonable,
    certify_admissible,
    compose,
    fixed_point,
    ifs_from_jsonable,
    ifs_to_jsonable,
    invert,
    is_contractive,
    map_from_jsonable,
    map_to_jsonable,
    max_row_sum,
    operator_norm,
)
from selfaffine.exactlinalg import determinant
from selfaffine.rationals import format_rational


def _random_map(rng, n, scale=Fraction(1, 3)):
    matrix = tuple(
        tuple(scale * Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n))
        for _ in range(n)
    )
    translation = tuple(Fraction(rng.randint(-3, 3), 2) for _ in range(n))
    return AffineMap(matrix, translation)


def _random_point(rng, n):
    return tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n))


class TestAffineMapBasics:
    def test_apply_hand(self):
        f = AffineMap([[Fraction(2), Fraction(0)], [Fraction(1), Fraction(1)]],
                      [Fraction(1), Fraction(-1)])
        assert f((Fraction(3), Fraction(4))) == (Fraction(7), Fraction(6))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            AffineMap([[Fraction(1), Fraction(0)]], [Fraction(0)])

    def test_rejects_wrong_translation_length(self):
        with pytest.raises(ValueError):
            AffineMap([[Fraction(1)]], [Fraction(0), Fraction(0)])


class TestComposeInvertFixedPoint:
    def test_compose_matches_pointwise(self):
        rng = random.Random(5)
        for n in (1, 2, 3):
            f = _random_map(rng, n)
            g = _random_map(rng, n)
            h = compose(f, g)
            for _ in range(5):
                x = _random_point(rng, n)
                assert h(x) == f(g(x))

    def test_invert_round_trip(self):
        rng = random.Random(6)
        f = AffineMap([[Fraction(1, 2), Fraction(1, 3)], [Fraction(0), Fraction(1, 4)]],
                      [Fraction(2), Fraction(-1)])
        g = invert(f)
        for _ in range(5):
            x = _random_point(rng, 2)
            assert g(f(x)) == x
            assert f(g(x)) == x

    def test_invert_singular_raises(self):
        f = AffineMap([[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]],
                      [Fraction(1), Fraction(1)])
        with pytest.raises(ValueError):
            invert(f)

    def test_fixed_point_is_fixed(self):
        f = AffineMap([[Fraction(1, 2), Fraction(0)], [Fraction(1, 4), Fraction(1, 3)]],
                      [Fraction(1), Fraction(2)])
        p = fixed_point(f)
        assert f(p) == p

    def test_fixed_point_eigenvalue_one_raises(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            fixed_point(AffineMap([[1, 0], [0, 1]], [0, 0]))


class TestNorms:
    def test_max_row_sum_hand(self):
        m = ((Fraction(1, 2), Fraction(-1, 3)), (Fraction(0), Fraction(1, 4)))
        assert max_row_sum(m) == Fraction(5, 6)

    def test_max_row_sum_matches_fraction_sum(self):
        # the plain reference: each row's absolute entries added as Fractions
        def reference(matrix):
            return max(sum(abs(x) for x in row) for row in matrix)

        rng = random.Random(23)
        for n in (1, 2, 3, 5, 8):
            for _ in range(10):
                dense = tuple(
                    tuple(Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**12))
                          for _ in range(n))
                    for _ in range(n)
                )
                # rank at most 1: every row a multiple of the first, some rows zero
                first = dense[0]
                singular = tuple(
                    tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 7)) * x for x in first)
                    for _ in range(n)
                )
                for matrix in (dense, singular):
                    assert max_row_sum(matrix) == reference(matrix)
                    assert type(max_row_sum(matrix)) is Fraction

    def test_operator_norm_matches_numpy(self):
        rng = random.Random(9)
        for n in (1, 2, 3, 4):
            for _ in range(8):
                m = tuple(
                    tuple(Fraction(rng.randint(-6, 6), 7) for _ in range(n))
                    for _ in range(n)
                )
                mine = operator_norm(m)
                ref = np.linalg.norm(np.array(m, dtype=float), 2)
                assert mine == pytest.approx(ref, rel=1e-9, abs=1e-12)

    def test_operator_norm_zero_matrix(self):
        m = ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0)))
        assert operator_norm(m) == 0.0

    def test_operator_norm_rotation_is_one(self):
        # rational rotation via the 3-4-5 triangle
        m = ((Fraction(3, 5), Fraction(-4, 5)), (Fraction(4, 5), Fraction(3, 5)))
        assert operator_norm(m) == pytest.approx(1.0, abs=1e-12)

    def test_operator_norm_separated_scales(self):
        m = ((Fraction(1, 10**8), Fraction(0)), (Fraction(0), Fraction(999, 1000)))
        assert operator_norm(m) == pytest.approx(0.999, rel=1e-12)


class TestContractionCertificates:
    def test_row_sum_route(self):
        f = AffineMap([[Fraction(1, 3), Fraction(0)], [Fraction(0), Fraction(1, 3)]],
                      [Fraction(0), Fraction(0)])
        cert = is_contractive(f)
        assert cert.contractive
        assert cert.route == "row-sum-bound"
        assert bool(cert)
        # the exact certificate: n * s^2 < 1
        assert 2 * Fraction(1, 3) ** 2 < 1
        assert cert.norm_bound == math.sqrt(2 / 9)

    def test_spectral_route_when_row_sum_fails(self):
        # row sums 6/5 and 1/10: 2*(6/5)^2 > 1, but the spectral norm < 1
        f = AffineMap([[Fraction(9, 10), Fraction(3, 10)], [Fraction(0), Fraction(1, 10)]],
                      [Fraction(0), Fraction(0)])
        assert 2 * max_row_sum(f.matrix) ** 2 >= 1
        cert = is_contractive(f)
        assert cert.contractive
        assert cert.route == "spectral-norm"
        assert cert.norm_bound < 1

    def test_expansion_detected(self):
        f = AffineMap([[Fraction(2), Fraction(0)], [Fraction(0), Fraction(2)]],
                      [Fraction(0), Fraction(0)])
        cert = is_contractive(f)
        assert not cert.contractive
        assert not bool(cert)


def _reference_admissibility(f):
    """The plain rule: determinant, then Fraction row sums, then numpy's SVD.

    Gives the certificate, or the reason certify_admissible gives for refusing f.
    """
    if determinant(f.matrix) == 0:
        return "is not invertible"
    squared = f.dim * max(sum(abs(x) for x in row) for row in f.matrix) ** 2
    if squared < 1:
        return ContractionCertificate(True, "row-sum-bound", math.sqrt(float(squared)))
    norm = float(np.linalg.norm(np.array(f.matrix, dtype=float), 2))
    if not norm < 1.0 - NORM_TOLERANCE:
        return "is not strictly contractive"
    return ContractionCertificate(True, "spectral-norm", norm)


def _admissibility_maps(rng):
    """Seeded maps of dimension 1..8: dense, lower-triangular, and lower-triangular with a 0 on
    the diagonal; entries of several sizes, so that every route and every refusal occurs."""
    for n in range(1, 9):
        for count in range(250):
            kind = count % 3
            scale = Fraction(1, rng.choice([1, 2, n, 2 * n, 4 * n]))
            matrix = [[scale * Fraction(rng.randint(-4, 4), rng.randint(1, 5))
                       if kind == 0 or j <= i else Fraction(0) for j in range(n)]
                      for i in range(n)]
            if kind == 2:
                zero = rng.randrange(n)
                matrix[zero][zero] = Fraction(0)
            translation = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n)]
            yield kind, AffineMap(matrix, translation)


class TestAdmissibility:
    """certify_admissible decides every map on its cleared rows, against the plain rule."""

    @pytest.fixture
    def determinant_calls(self, monkeypatch):
        calls = []

        def counted(matrix):
            calls.append(matrix)
            return determinant(matrix)

        monkeypatch.setattr(affine, "determinant", counted)
        return calls

    def test_matches_determinant_and_the_row_sums_on_random_maps(self, determinant_calls):
        outcomes = set()
        maps = list(_admissibility_maps(random.Random(27)))
        assert len(maps) == 2000
        for index, (kind, f) in enumerate(maps):
            expected = _reference_admissibility(f)
            determinant_calls.clear()
            try:
                outcome = certify_admissible(f, f"map {index}")
            except ValueError as exc:
                assert str(exc) == f"map {index} {expected}"
                outcome = expected
            assert outcome == expected
            outcomes.add((kind, outcome if isinstance(outcome, str) else outcome.route))
            upper = any(f.matrix[i][j] for i in range(f.dim) for j in range(i + 1, f.dim))
            # only a map with an entry above the diagonal asks determinant, on its cleared rows
            assert determinant_calls == ([[row[1:] for row, _ in _cleared_rows(f)]] if upper else [])
            if expected != "is not invertible":
                certificate = is_contractive(f)
                assert (certificate if certificate else "is not strictly contractive") == expected
        assert outcomes >= {
            (0, "is not invertible"), (0, "is not strictly contractive"),
            (0, "row-sum-bound"), (0, "spectral-norm"),
            (1, "is not strictly contractive"), (1, "row-sum-bound"), (1, "spectral-norm"),
            (2, "is not invertible"),
        }
        assert {outcome for kind, outcome in outcomes if kind == 2} == {"is not invertible"}

    def test_lower_triangular_zero_diagonal_is_refused_without_determinant(self, determinant_calls):
        half = {"matrix": [["1/2", "0"], ["0", "1/2"]], "translation": ["0", "0"]}
        singular = {"matrix": [["1/2", "0"], ["1/3", "0"]], "translation": ["1/2", "0"]}
        with pytest.raises(ValueError, match="^map 1 is not invertible$"):
            ifs_from_jsonable({"dim": 2, "maps": [half, singular]})
        assert determinant_calls == []

    def test_upper_entry_asks_determinant(self, determinant_calls):
        # [[1/2, 1/2], [1/4, 1/4]] has rank 1 and no 0 on its diagonal
        singular = AffineMap([[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 4), Fraction(1, 4)]],
                             [Fraction(1, 3), Fraction(0)])
        with pytest.raises(ValueError, match="^map 0 is not invertible$"):
            certify_admissible(singular, "map 0")
        assert determinant_calls == [[[3, 3], [1, 1]]]


class TestIteratedFunctionSystem:
    def _contractive_pair(self):
        f = AffineMap([[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(1, 2)]],
                      [Fraction(0), Fraction(0)])
        g = AffineMap([[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(1, 2)]],
                      [Fraction(1, 2), Fraction(1, 2)])
        return f, g

    def test_construction(self):
        f, g = self._contractive_pair()
        ifs = IteratedFunctionSystem((f, g))
        assert ifs.dim == 2
        assert len(ifs) == 2
        assert list(ifs) == [f, g]
        assert ifs[1] is g

    def test_rejects_expansive_member(self):
        f, _ = self._contractive_pair()
        bad = AffineMap([[Fraction(3), Fraction(0)], [Fraction(0), Fraction(3)]],
                        [Fraction(0), Fraction(0)])
        with pytest.raises(ValueError):
            IteratedFunctionSystem((f, bad))

    def test_rejects_singular_member(self):
        f, _ = self._contractive_pair()
        flat = AffineMap([[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(0)]],
                         [Fraction(0), Fraction(0)])
        with pytest.raises(ValueError):
            IteratedFunctionSystem((f, flat))

    def test_rejects_mixed_dimensions(self):
        f, _ = self._contractive_pair()
        one_d = AffineMap([[Fraction(1, 2)]], [Fraction(0)])
        with pytest.raises(ValueError):
            IteratedFunctionSystem((f, one_d))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            IteratedFunctionSystem(())


class TestJsonInterchange:
    def test_map_round_trip(self):
        f = AffineMap([[Fraction(1, 2), Fraction(-1, 3)], [Fraction(0), Fraction(1, 5)]],
                      [Fraction(7, 2), Fraction(0)])
        data = map_to_jsonable(f)
        assert map_from_jsonable(data) == f

    def test_ifs_round_trip(self):
        f = AffineMap([[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(1, 2)]],
                      [Fraction(0), Fraction(0)])
        g = AffineMap([[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(1, 2)]],
                      [Fraction(1, 2), Fraction(1, 2)])
        ifs = IteratedFunctionSystem((f, g))
        data = ifs_to_jsonable(ifs)
        assert data["dim"] == 2
        rebuilt = ifs_from_jsonable(data)
        assert rebuilt == ifs

    def test_extra_keys_ignored(self):
        f = AffineMap([[Fraction(1, 2)]], [Fraction(1)])
        data = ifs_to_jsonable(IteratedFunctionSystem((f,)))
        data["meta"] = {"anything": True}
        assert ifs_from_jsonable(data)[0] == f

    @pytest.mark.parametrize("mutate", [
        lambda d: d["maps"][0].pop("translation"),
        lambda d: d["maps"][0]["matrix"][0].__setitem__(0, 0.5),
        lambda d: d["maps"][0]["matrix"][0].__setitem__(0, True),
        lambda d: d["maps"][0]["matrix"].pop(),
        lambda d: d.__setitem__("dim", -1),
        lambda d: d.__setitem__("maps", []),
        lambda d: d["maps"][0]["matrix"][0].__setitem__(0, "1" + "0" * 400),
    ])
    def test_malformed_rejected(self, mutate):
        f = AffineMap([[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(1, 2)]],
                      [Fraction(0), Fraction(0)])
        data = ifs_to_jsonable(IteratedFunctionSystem((f,)))
        mutate(data)
        with pytest.raises(ValueError):
            ifs_from_jsonable(data)


def _wide_entry(rng):
    """A rational of 1- to 40-digit numerator and denominator, or zero, an integer, or one near
    the largest float (about 1.7e308) or the least subnormal (5e-324), of either sign."""
    sign = rng.choice([-1, 1])
    kind = rng.randrange(6)
    if kind == 0:
        return Fraction(0)
    if kind == 1:
        return Fraction(sign * rng.randint(1, 10**rng.randint(1, 40)))
    if kind == 2:
        return sign * Fraction(1.7e308) * Fraction(rng.randint(1, 10**6), 10**6 + 57)
    if kind == 3:
        return sign * Fraction(5e-324) * Fraction(rng.randint(0, 7), rng.randint(1, 4))
    return Fraction(sign * rng.randint(1, 10 ** rng.randint(1, 40)),
                    rng.randint(1, 10 ** rng.randint(1, 40)))


def _wide_map(rng, n):
    return AffineMap([[_wide_entry(rng) for _ in range(n)] for _ in range(n)],
                     [_wide_entry(rng) for _ in range(n)])


def _bits(array):
    """The array's dtype, shape and bytes: equal only when every float is, signed zeros included."""
    return array.dtype, array.shape, array.tobytes()


def _reference_map_to_jsonable(f):
    """The map writer before it went through the cleared rows: format_rational of each entry."""
    return {
        "matrix": [[format_rational(x) for x in row] for row in f.matrix],
        "translation": [format_rational(x) for x in f.translation],
    }


class TestRowConversions:
    """_float_map and _rows_to_jsonable of the cleared rows against the Fraction entries."""

    def test_float_map_equals_the_fraction_floats(self):
        rng = random.Random(22)
        for _ in range(400):
            f = _wide_map(rng, rng.randint(1, 8))
            matrix, translation = _float_map(_cleared_rows(f))
            assert _bits(matrix) == _bits(_float_array(f.matrix))
            assert _bits(translation) == _bits(_float_array(f.translation))

    def test_an_entry_beyond_float_range_raises_on_both_paths(self):
        rng = random.Random(23)
        message = "^an entry lies beyond the float range$"
        for _ in range(200):
            n = rng.randint(1, 8)
            entries = [[_wide_entry(rng) for _ in range(n)] for _ in range(n + 1)]
            far = rng.choice([Fraction(2**1024), Fraction(-(10**400), 3), Fraction(18 * 10**307)])
            entries[rng.randrange(n + 1)][rng.randrange(n)] = far
            f = AffineMap(entries[1:], entries[0])
            with pytest.raises(ValueError, match=message):
                _float_map(_cleared_rows(f))
            with pytest.raises(ValueError, match=message):
                _float_array(f.translation + tuple(x for row in f.matrix for x in row))

    def test_rows_to_jsonable_equals_the_format_rational_writer(self):
        rng = random.Random(24)
        for _ in range(400):
            f = _wide_map(rng, rng.randint(1, 8))
            rows = _cleared_rows(f)
            assert json.dumps(_rows_to_jsonable(rows)) == json.dumps(_reference_map_to_jsonable(f))
            assert _row_map(rows) == f

    def test_an_ifs_writes_its_rows(self):
        rng = random.Random(25)
        maps = tuple(AffineMap(  # diagonally dominant, so invertible, and row sums below 1/√3
            [[Fraction(rng.randint(-2, 2), 40) + Fraction(i == j, 3) for j in range(3)]
             for i in range(3)], _random_point(rng, 3)) for _ in range(4))
        ifs = IteratedFunctionSystem(maps)
        assert ifs._rows == [_cleared_rows(f) for f in maps]
        assert ifs._rows is ifs._rows  # cleared once, as the maps were certified, and held
        assert json.dumps(ifs_to_jsonable(ifs)) == json.dumps(
            {"dim": 3, "maps": [_reference_map_to_jsonable(f) for f in maps]})
