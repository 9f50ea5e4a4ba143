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
    _float_array,
    _float_map,
    _line,
    _map_rows,
    _row_map,
    _rows_to_jsonable,
    certify_admissible,
    compose,
    fixed_point,
    ifs_from_jsonable,
    invert,
    is_contractive,
    map_from_jsonable,
    operator_norm,
)
from selfaffine.exactlinalg import determinant, mat_inverse, solve
from selfaffine.moment import _built_rows, _moment_rows
from selfaffine.paraboloid import _build_map
from selfaffine.rationals import _clear_denominators, format_rational


def _reference_rows(f):
    """f's rows cleared from its Fraction entries, translation entry first: what f._rows holds."""
    return [_clear_denominators((t, *row)) for t, row in zip(f.translation, f.matrix)]


def _random_map(rng, n, scale=Fraction(1, 3)):
    matrix = tuple(
        tuple(scale * Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n))
        for _ in range(n)
    )
    translation = tuple(Fraction(rng.randint(-3, 3), 2) for _ in range(n))
    return AffineMap(matrix, translation)


def _ifs_document(ifs):
    """The {"dim", "maps"} document of a system, each map written from its cleared rows."""
    return {"dim": ifs.dim, "maps": [_rows_to_jsonable(rows) for rows in ifs._rows]}


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


def _triangular_maps(rng):
    """2,000 seeded lower-triangular maps: ten of each dimension 1..40, the rest of dimension
    1..10; entries p/q with |p| < 100 and q < 10, a third of them 0, and now and then a
    diagonal entry 1, where no fixed point is unique."""
    def entry():
        if rng.randrange(3) == 0:
            return Fraction(0)
        return Fraction(rng.randint(-99, 99), rng.randint(1, 9))

    for count in range(2000):
        n = count % 40 + 1 if count < 400 else count % 10 + 1
        matrix = [[entry() if j <= i else Fraction(0) for j in range(n)] for i in range(n)]
        if count % 25 == 0:
            one = rng.randrange(n)
            matrix[one][one] = Fraction(1)
        yield AffineMap(matrix, [entry() for _ in range(n)])


class TestTriangularFixedPoint:
    """fixed_point solves a lower-triangular map by forward substitution, equal to elimination."""

    def test_substitution_equals_the_elimination(self, monkeypatch):
        eliminations = []
        original = affine._eliminate

        def counted(*args, **kwargs):
            eliminations.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(affine, "_eliminate", counted)
        singular = 0
        for f in _triangular_maps(random.Random(17)):
            identity_minus_m = [[(i == j) - x for j, x in enumerate(row)]
                                for i, row in enumerate(f.matrix)]
            try:
                expected = solve(identity_minus_m, f.translation)
            except ValueError:
                singular += 1
                with pytest.raises(ValueError, match="^map has 1 as an eigenvalue"):
                    fixed_point(f)
                continue
            assert fixed_point(f) == expected
        assert singular >= 80
        assert eliminations == []  # no triangular map reaches the elimination

    def test_a_map_with_an_upper_entry_is_eliminated(self):
        f = AffineMap([[Fraction(1, 2), Fraction(1, 5)], [Fraction(1, 4), Fraction(1, 3)]],
                      [Fraction(1), Fraction(2)])
        p = fixed_point(f)
        assert f(p) == p
        with pytest.raises(ValueError, match="^map has 1 as an eigenvalue"):
            fixed_point(AffineMap([[1, 1], [0, 1]], [0, 0]))

def _mat_mul(a, b):
    return tuple(tuple(sum(x * b[k][j] for k, x in enumerate(row)) for j in range(len(b[0])))
                 for row in a)


def _mat_vec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def _fraction_compose(f, g):
    """compose as it was before it worked on cleared rows: Fraction matrix products."""
    if f.dim != g.dim:
        raise ValueError("cannot compose maps of different dimensions")
    matrix = _mat_mul(f.matrix, g.matrix)
    translation = tuple(m + t for m, t in zip(_mat_vec(f.matrix, g.translation), f.translation))
    return AffineMap(matrix, translation)


def _fraction_invert(f):
    """invert as it was before it worked on cleared rows: mat_inverse of the Fraction matrix."""
    inverse = mat_inverse(f.matrix)
    translation = tuple(-x for x in _mat_vec(inverse, f.translation))
    return AffineMap(inverse, translation)


def _algebra_entry(rng):
    """0 a quarter of the time, else a rational of 1- to 6-digit numerator and denominator."""
    if rng.randrange(4) == 0:
        return Fraction(0)
    return Fraction(rng.randint(-10 ** rng.randint(1, 6), 10 ** rng.randint(1, 6)),
                    rng.randint(1, 10 ** rng.randint(1, 6)))


def _algebra_map(rng, n, triangular):
    return AffineMap([[_algebra_entry(rng) if not triangular or j <= i else 0 for j in range(n)]
                      for i in range(n)], [_algebra_entry(rng) for _ in range(n)])


def _assert_same_map(mine, reference):
    assert mine._rows == reference._rows
    assert hash(mine) == hash(reference)
    assert repr(mine) == repr(reference)


class TestRowAlgebra:
    """compose and invert on cleared rows against their Fraction references."""

    def test_equal_to_the_fraction_references_on_random_pairs(self):
        rng = random.Random(32)
        seen = set()
        for index in range(2000):
            n, triangular = index % 8 + 1, index % 2 == 1
            f, g = _algebra_map(rng, n, triangular), _algebra_map(rng, n, triangular)
            _assert_same_map(compose(f, g), _fraction_compose(f, g))
            _assert_same_map(compose(g, f), _fraction_compose(g, f))
            try:
                expected = _fraction_invert(f)
            except ValueError:
                with pytest.raises(ValueError, match="^singular matrix$"):
                    invert(f)
                seen.add((triangular, "singular"))
                continue
            _assert_same_map(invert(f), expected)
            seen.add((triangular, "swap" if f.matrix[0][0] == 0 else "invertible"))
        assert seen == {(t, kind) for t in (False, True) for kind in ("singular", "invertible")} | {
            (False, "swap")}

    def test_a_row_swap_at_the_first_pivot(self):
        f = AffineMap([[0, Fraction(1, 3)], [Fraction(1, 4), 0]], [Fraction(1, 5), 0])
        _assert_same_map(invert(f), _fraction_invert(f))
        assert invert(f) == AffineMap([[0, 4], [3, 0]], [0, Fraction(-3, 5)])
        _assert_same_map(compose(invert(f), f), AffineMap([[1, 0], [0, 1]], [0, 0]))

    @pytest.mark.parametrize("matrix", [
        [[0, 0], [0, 0]],
        [[Fraction(1, 2), 0], [Fraction(1, 3), 0]],
        [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 4), Fraction(1, 4)]],
        [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
    ])
    def test_a_singular_map_raises_on_both(self, matrix):
        f = AffineMap(matrix, [Fraction(1, 7)] * len(matrix))
        for inverse in (invert, _fraction_invert):
            with pytest.raises(ValueError, match="^singular matrix$"):
                inverse(f)

    def test_mismatched_dimensions_raise_on_both(self):
        f, g = AffineMap([[Fraction(1, 2)]], [1]), AffineMap([[1, 0], [0, 1]], [0, 0])
        for composed in (compose, _fraction_compose):
            for pair in ((f, g), (g, f)):
                with pytest.raises(ValueError, match="^cannot compose maps of different dimensions$"):
                    composed(*pair)


class TestNorms:
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
        assert 2 * max(sum(map(abs, row)) for row in f.matrix) ** 2 >= 1
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

    def test_spectral_route_equals_the_fraction_path(self):
        # the spectral norm as it was taken: a Fraction of every entry, then operator_norm
        def fraction_path(f):
            return operator_norm(tuple(tuple(Fraction(x, scale) for x in row[1:])
                                       for row, scale in f._rows))

        rng = random.Random(32)
        maps = []
        for _ in range(300):
            n = rng.randint(1, 8)
            digits = 10 ** rng.choice((1, 10))
            maps.append(AffineMap(
                [[Fraction(rng.randint(-digits, digits), rng.randint(1, digits) * n)
                  for _ in range(n)] for _ in range(n)],
                [Fraction(rng.randint(-9, 9), 7) for _ in range(n)]))
        far = Fraction(10**400)
        maps.append(AffineMap([[Fraction(1, 2), far], [Fraction(0), Fraction(1, 2)]],
                              [Fraction(0), Fraction(0)]))
        # a translation beyond the float range does not enter the norm
        maps.append(AffineMap([[Fraction(9, 10), Fraction(3, 10)], [Fraction(0), Fraction(1, 10)]],
                              [far, Fraction(0)]))
        routes = set()
        for f in maps:
            cert = is_contractive(f)
            routes.add((cert.route, cert.contractive))
            if cert.route == "spectral-norm":
                expected = fraction_path(f)
                assert cert.norm_bound.hex() == expected.hex()
                assert cert.contractive == (expected < 1.0 - NORM_TOLERANCE)
        assert routes == {("row-sum-bound", True), ("spectral-norm", True),
                          ("spectral-norm", False)}
        assert is_contractive(maps[-2]).norm_bound == math.inf
        assert is_contractive(maps[-1]).contractive
        with pytest.raises(ValueError, match="map 0 is not strictly contractive"):
            certify_admissible(maps[-2], "map 0")


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
            assert determinant_calls == ([[row[1:] for row, _ in _reference_rows(f)]] if upper else [])
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
        data = _rows_to_jsonable(f._rows)
        assert map_from_jsonable(data) == f

    def test_ifs_round_trip(self):
        f = AffineMap([[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(1, 2)]],
                      [Fraction(0), Fraction(0)])
        g = AffineMap([[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(1, 2)]],
                      [Fraction(1, 2), Fraction(1, 2)])
        ifs = IteratedFunctionSystem((f, g))
        data = _ifs_document(ifs)
        assert data["dim"] == 2
        rebuilt = ifs_from_jsonable(data)
        assert rebuilt == ifs

    def test_extra_keys_ignored(self):
        f = AffineMap([[Fraction(1, 2)]], [Fraction(1)])
        data = _ifs_document(IteratedFunctionSystem((f,)))
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
        data = _ifs_document(IteratedFunctionSystem((f,)))
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
            matrix, translation = _float_map(f._rows)
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
                _float_map(f._rows)
            with pytest.raises(ValueError, match=message):
                _float_array(f.translation + tuple(x for row in f.matrix for x in row))

    def test_rows_to_jsonable_equals_the_format_rational_writer(self):
        rng = random.Random(24)
        for _ in range(400):
            f = _wide_map(rng, rng.randint(1, 8))
            rows = f._rows
            assert rows == _reference_rows(f)
            assert json.dumps(_rows_to_jsonable(rows)) == json.dumps(_reference_map_to_jsonable(f))
            assert _row_map(rows) == f

    def test_an_ifs_writes_its_rows(self):
        rng = random.Random(25)
        maps = tuple(AffineMap(  # diagonally dominant, so invertible, and row sums below 1/√3
            [[Fraction(rng.randint(-2, 2), 40) + Fraction(i == j, 3) for j in range(3)]
             for i in range(3)], _random_point(rng, 3)) for _ in range(4))
        ifs = IteratedFunctionSystem(maps)
        assert ifs._rows == [_reference_rows(f) for f in maps]
        # each map's rows, cleared once when it was made, and held by the map
        assert all(rows is f._rows for rows, f in zip(ifs._rows, maps))
        assert json.dumps(_ifs_document(ifs)) == json.dumps(
            {"dim": 3, "maps": [_reference_map_to_jsonable(f) for f in maps]})


def _assert_least(f):
    """f equals, and hashes as, the map its own Fractions make: its rows are the least ones."""
    again = AffineMap(f.matrix, f.translation)
    assert f == again and hash(f) == hash(again)
    assert f._rows == _reference_rows(again)


# entries in non-canonical forms and JSON ints, each a row's only or its largest denominator
LEAST_CORPUS = ["2/4", "-0", "007/3", " 1 / 2 ", 0, 3, -2, "-6/4", "+0/5", "10/15", "-8/12", "9"]


class TestLeastRows:
    """Every path that hands _row_map its rows hands it the least ones.

    An AffineMap compares and hashes its rows, and _row_map takes rows as given; a path
    that gave rows not over their least denominator would make equal maps compare unequal.
    """

    def test_read_maps(self):
        rng = random.Random(30)
        corpus = [[value] * 4 for value in LEAST_CORPUS]
        corpus += [[value if j == i else "0" for j in range(4)]
                   for value in LEAST_CORPUS for i in range(4)]
        corpus += [[rng.choice(LEAST_CORPUS) for _ in range(4)] for _ in range(300)]
        for values in corpus:
            _assert_least(_row_map(_map_rows(
                {"matrix": [values[:2], values[2:]], "translation": [values[1], values[0]]})))
        read = map_from_jsonable({"matrix": [["2/4", 0], ["-0", " 1 / 2 "]],
                                  "translation": ["007/3", -2]})
        assert read == AffineMap([[Fraction(1, 2), 0], [0, Fraction(1, 2)]], [Fraction(7, 3), -2])

    def test_built_moment_maps(self):
        for n in range(2, 7):
            for c in (Fraction(0), Fraction(-1), Fraction(-1, 2)):
                for ratio in (Fraction(1, 10), Fraction(2, 9), Fraction(1, 2)):
                    for anchor in (c + Fraction(k, 6) for k in range(4)):
                        line = _line(ratio, anchor - ratio * c)
                        rows = list(_moment_rows(n, line))
                        _assert_least(_row_map(rows))
                        stored = _built_rows(_rows_to_jsonable(rows), n, line)
                        assert stored == rows == _built_rows(None, n, line)
                        _assert_least(_row_map(stored))

    def test_paraboloid_maps(self):
        for n in range(2, 7):
            for c in (Fraction(1, 2), Fraction(-1, 3), Fraction(2, 7)):
                for d in (Fraction(0), Fraction(1, 2), Fraction(-5, 6), Fraction(3)):
                    _assert_least(_build_map(n, c, d))

    def test_composed_and_inverted_maps(self):
        rng = random.Random(31)
        for _ in range(300):
            n = rng.randint(1, 4)
            f, g = _random_map(rng, n), _random_map(rng, n)
            _assert_least(compose(f, g))
            if determinant(f.matrix):
                _assert_least(invert(f))

    def test_repr_is_the_dataclass_repr(self):
        f = AffineMap([[Fraction(1, 2), 0], [Fraction(-1, 4), Fraction(1, 3)]], [0, Fraction(-7, 6)])
        read = map_from_jsonable({"matrix": [["2/4", 0], ["-0", " 1 / 3 "]],
                                  "translation": ["007/3", -2]})
        assert repr(f) == ("AffineMap(matrix=((Fraction(1, 2), Fraction(0, 1)), "
                           "(Fraction(-1, 4), Fraction(1, 3))), "
                           "translation=(Fraction(0, 1), Fraction(-7, 6)))")
        assert repr(read) == ("AffineMap(matrix=((Fraction(1, 2), Fraction(0, 1)), "
                              "(Fraction(0, 1), Fraction(1, 3))), "
                              "translation=(Fraction(7, 3), Fraction(-2, 1)))")
        assert repr(AffineMap([[3]], [Fraction(5, 2)])) == (
            "AffineMap(matrix=((Fraction(3, 1),),), translation=(Fraction(5, 2),))")
        assert repr(IteratedFunctionSystem([f, read])) == (
            f"IteratedFunctionSystem(maps=({f!r}, {read!r}))")
