"""Paraboloid surface embedding and the exact conjugation identity."""

import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from selfaffine import affine, paraboloid
from selfaffine.affine import AffineMap, is_contractive
from selfaffine.cloud import PointCloud
from selfaffine.exactlinalg import determinant, solve
from selfaffine.paraboloid import (
    ParaboloidSpec,
    _conjugates,
    build_paraboloid_ifs,
    paraboloid_polynomial,
    surface_residual,
    verify_paraboloid_conjugation,
)
from selfaffine.polynomials import MultiPoly, parse_polynomial


def halves_spec(n=3):
    return ParaboloidSpec(
        n, Fraction(0), Fraction(1),
        ((Fraction(1, 2), Fraction(0)), (Fraction(1, 2), Fraction(1, 2))),
    )


def _rows(maps):
    """Each map's cleared rows, as _conjugates takes them."""
    return [f._rows for f in maps]


def _reference_conjugates(spec, maps):
    """f_i∘η = η∘(c_i·x + d_i) for every base map, as exact polynomial identities.

    Both sides are expanded in the n−1 base variables x, with η(x) = (x, Σx_j²).
    """
    base_dim = spec.dim - 1
    zero = MultiPoly.zero(base_dim)
    coords = [MultiPoly(base_dim, {tuple(int(k == j) for k in range(base_dim)): 1})
              for j in range(base_dim)]
    eta = coords + [sum((x * x for x in coords), zero)]
    for (c, d), f in zip(spec.base_maps, maps):
        lhs = [
            sum((a * e for a, e in zip(row, eta) if a != 0), MultiPoly.constant(base_dim, t))
            for row, t in zip(f.matrix, f.translation)
        ]
        moved = [c * x + MultiPoly.constant(base_dim, d) for x in coords]
        if lhs != moved + [sum((y * y for y in moved), zero)]:
            return False
    return True


def _seeded_specs(n, seed):
    """Five specs of two signed maps with weights (w, 1 − w) tiling [0, 1/8]."""
    rng = random.Random(seed)
    specs = []
    for _ in range(5):
        w = Fraction(rng.randint(2, 6), 8)
        signs = (rng.choice([1, -1]), rng.choice([1, -1]))
        a, b = Fraction(0), Fraction(1, 8)
        widths = (w * (b - a), (1 - w) * (b - a))
        c1 = signs[0] * w
        c2 = signs[1] * (1 - w)
        d1 = a - c1 * (a if c1 > 0 else b)
        d2 = (a + widths[0]) - c2 * (a if c2 > 0 else b)
        specs.append(ParaboloidSpec(n, a, b, ((c1, d1), (c2, d2))))
    return specs


def _probe_points(spec, monkeypatch):
    """The points the conjugation check compares at, and how many it needs to pass."""
    seen = []
    original = paraboloid._lift_failures

    def recorded(lifts, form, degrees, points, common, proven):
        seen.append(([tuple(Fraction(p, common) for p in point) for point in points], proven))
        return original(lifts, form, degrees, points, common, proven)

    monkeypatch.setattr(paraboloid, "_lift_failures", recorded)
    assert verify_paraboloid_conjugation(spec)
    monkeypatch.undo()
    return seen[0]


def _eta(point):
    return tuple(point) + (sum(x * x for x in point),)


class TestSpecValidation:
    def test_valid(self):
        spec = halves_spec()
        assert spec.dim == 3

    def test_rejects_zero_contraction(self):
        with pytest.raises(ValueError):
            ParaboloidSpec(3, Fraction(0), Fraction(1),
                           ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))))

    def test_rejects_non_contractive_base(self):
        with pytest.raises(ValueError):
            ParaboloidSpec(3, Fraction(0), Fraction(1),
                           ((Fraction(1), Fraction(0)),))

    def test_rejects_gap_in_tiling(self):
        with pytest.raises(ValueError):
            ParaboloidSpec(3, Fraction(0), Fraction(1),
                           ((Fraction(1, 2), Fraction(0)),
                            (Fraction(1, 4), Fraction(3, 4))))

    def test_negative_contraction_flips_interval(self):
        # c = -1/2 maps [0,1] onto [d-1/2, d]; with d = 1/2 that is [0, 1/2]
        spec = ParaboloidSpec(3, Fraction(0), Fraction(1),
                              ((Fraction(-1, 2), Fraction(1, 2)),
                               (Fraction(1, 2), Fraction(1, 2))))
        assert verify_paraboloid_conjugation(spec)


class TestPolynomialAndEmbedding:
    def test_polynomial_n3(self):
        assert paraboloid_polynomial(3) == parse_polynomial("x1^2 + x2^2 - x3")


class TestBuildAndConjugation:
    def test_frozen_map_entries_n3(self):
        ifs = build_paraboloid_ifs(halves_spec())
        first, second = ifs.maps
        h = Fraction(1, 2)
        assert first.matrix == (
            (h, Fraction(0), Fraction(0)),
            (Fraction(0), h, Fraction(0)),
            (Fraction(0), Fraction(0), h * h),
        )
        assert first.translation == (Fraction(0), Fraction(0), Fraction(0))
        assert second.matrix == (
            (h, Fraction(0), Fraction(0)),
            (Fraction(0), h, Fraction(0)),
            (h, h, h * h),
        )
        # translation (d, d, (n-1) d^2) = (1/2, 1/2, 1/2)
        assert second.translation == (h, h, h)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_conjugation_random_bases(self, n):
        for spec in _seeded_specs(n, n * 31):
            assert verify_paraboloid_conjugation(spec)
            ifs = build_paraboloid_ifs(spec)
            assert len(ifs) == 2
            assert ifs.dim == n

    def test_images_cover_endpoints_exactly(self):
        ifs = build_paraboloid_ifs(halves_spec())
        # embedded endpoints of the base square stay consistent:
        # f_2(η(1,1)) = η(1,1) because c=1/2, d=1/2 fixes t=1
        eta_11 = (Fraction(1), Fraction(1), Fraction(2))
        assert ifs.maps[1](eta_11) == eta_11


class TestConjugationCheck:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_every_shifted_entry_is_rejected(self, n, monkeypatch):
        rng = random.Random(n * 997)
        for spec in _seeded_specs(n, n * 53):
            maps = build_paraboloid_ifs(spec).maps
            assert _reference_conjugates(spec, maps) and _conjugates(spec, _rows(maps))
            index = rng.randrange(len(maps))
            f = maps[index]
            positions = [(row, column) for row in range(n) for column in [*range(n), None]]
            for row, column in positions:
                matrix, translation = [list(r) for r in f.matrix], list(f.translation)
                if column is None:
                    translation[row] += Fraction(1, 997)
                else:
                    matrix[row][column] += Fraction(1, 997)
                tampered = list(maps)
                tampered[index] = AffineMap(matrix, translation)
                assert not _reference_conjugates(spec, tampered)
                assert not _conjugates(spec, _rows(tampered))
            # the public check and the builder reject a wrong lift too
            original = paraboloid._build_map

            def build(dim, c, d):
                return tampered[index] if (c, d) == spec.base_maps[index] else original(dim, c, d)

            monkeypatch.setattr(paraboloid, "_build_map", build)
            assert not verify_paraboloid_conjugation(spec)
            with pytest.raises(ArithmeticError):
                build_paraboloid_ifs(spec)
            monkeypatch.undo()

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_points_have_affinely_independent_images(self, n, monkeypatch):
        a, b, h = Fraction(-1, 3), Fraction(2, 5), Fraction(1, 2)
        spec = ParaboloidSpec(n, a, b, ((h, a / 2), (-h, b + a / 2)))  # images meet at (a + b)/2
        points, proven = _probe_points(spec, monkeypatch)
        assert len(points) == proven == n + 1
        assert all(spec.a <= x <= spec.b for point in points for x in point)
        assert determinant([(1,) + _eta(point) for point in points]) != 0

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_agreeing_at_all_but_the_last_point_is_rejected(self, n, monkeypatch):
        # f + ε·e₁·ℓ, with ℓ affine, zero at η of the first n points and 1 at the last
        spec = _seeded_specs(n, n * 7)[0]
        points, _ = _probe_points(spec, monkeypatch)
        images = [_eta(point) for point in points]
        ell = solve([(1,) + image for image in images], [0] * n + [1])
        maps = build_paraboloid_ifs(spec).maps
        f = maps[0]
        epsilon = Fraction(1, 997)
        matrix = [list(r) for r in f.matrix]
        matrix[0] = [m + epsilon * w for m, w in zip(matrix[0], ell[1:])]
        translation = list(f.translation)
        translation[0] += epsilon * ell[0]
        g = AffineMap(matrix, translation)
        assert [g(y) == f(y) for y in images] == [True] * n + [False]
        assert _reference_conjugates(spec, maps)
        assert not _reference_conjugates(spec, [g, *maps[1:]])
        assert not _conjugates(spec, _rows([g, *maps[1:]]))


@pytest.fixture
def determinant_calls(monkeypatch):
    """The matrices the system certificate passes to determinant."""
    calls = []

    def counted(matrix):
        calls.append(matrix)
        return determinant(matrix)

    monkeypatch.setattr(affine, "determinant", counted)
    return calls


class TestBuilderCertificate:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_builder_skips_the_determinant(self, n, determinant_calls):
        for spec in _seeded_specs(n, n * 31):
            ifs = build_paraboloid_ifs(spec)
            assert ifs.certificates == tuple(map(is_contractive, ifs.maps))
            # the argument that replaces the determinant: lower-triangular, diagonal (c, …, c, c²)
            for (c, _), f in zip(spec.base_maps, ifs.maps):
                assert [f.matrix[k][k] for k in range(n)] == [c] * (n - 1) + [c * c]
                assert not any(f.matrix[i][j] for i in range(n) for j in range(i + 1, n))
                assert determinant(f.matrix) == c ** (n + 1) != 0
        assert determinant_calls == []

    def test_non_contractive_map_is_named(self, determinant_calls):
        # c = d = 1/2 lifts to a last row (1/2, …, 1/2, 1/4), of norm above 1 from n = 4 on
        with pytest.raises(ValueError, match="^map 1 is not strictly contractive$"):
            build_paraboloid_ifs(halves_spec(4))
        assert determinant_calls == []

    def test_certified_before_the_proof(self, monkeypatch):
        # with every proof failing, only a certificate taken first can give this error
        monkeypatch.setattr(paraboloid, "_lift_failures", lambda *args: ["failed"])
        with pytest.raises(ValueError, match="^map 1 is not strictly contractive$"):
            build_paraboloid_ifs(halves_spec(4))
        with pytest.raises(ArithmeticError, match="conjugation identity failed"):
            build_paraboloid_ifs(halves_spec(3))


class TestDimensionCap:
    @pytest.mark.parametrize("n", [257, 100_000, 10**9])
    def test_refused_before_any_map(self, n, monkeypatch):
        def refused(dim, c, d):
            raise AssertionError(f"a map of dimension {dim} was built")

        monkeypatch.setattr(paraboloid, "_build_map", refused)
        with pytest.raises(ValueError, match=f"^dimension {n} is above the cap 256$"):
            build_paraboloid_ifs(halves_spec(n))

    def test_the_cap_itself_is_taken(self):
        assert halves_spec(paraboloid._MAX_DIM).dim == 256

    @pytest.mark.parametrize("dim, count", [(256, 17), (64, 257), (2, 2**18 + 1)])
    def test_entries_above_guard_refused_before_any_map(self, dim, count, monkeypatch):
        def refused(dim, c, d):
            raise AssertionError(f"a map of dimension {dim} was built")

        monkeypatch.setattr(paraboloid, "_build_map", refused)
        base = [(Fraction(1, 2), Fraction(0))] * count  # the guard reads no pair
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"^{count} maps of dimension {dim} are above the "
                                                 f"guard of 1048576 matrix entries$"):
                ParaboloidSpec(dim, Fraction(0), Fraction(1), base)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_the_guard_itself_is_taken(self):
        base = tuple((Fraction(1, 16), Fraction(k, 16)) for k in range(16))
        spec = ParaboloidSpec(paraboloid._MAX_DIM, Fraction(0), Fraction(1), base)
        assert len(spec.base_maps) * spec.dim**2 == paraboloid._ENTRY_GUARD == 2**20


class TestSurfaceResidual:
    def test_zero_on_exact_points(self):
        poly = paraboloid_polynomial(3)
        pts = [(x, y, x * x + y * y)
               for x, y in ((Fraction(k, 7), Fraction(1 - k, 5)) for k in range(6))]
        cloud = PointCloud(3, [[float(x) for x in p] for p in pts])
        assert surface_residual(poly, cloud) <= 1e-15

    def test_exact_value_off_surface(self):
        poly = parse_polynomial("x1^2 + x2^2 - x3")
        cloud = PointCloud(3, [[1.0, 1.0, 1.0]])  # residual 1+1-1 = 1
        assert surface_residual(poly, cloud) == 1.0

    def test_empty_cloud(self):
        assert surface_residual(paraboloid_polynomial(3), PointCloud(3, [])) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            surface_residual(paraboloid_polynomial(3), PointCloud(2, [[0.0, 0.0]]))

    def test_matches_numpy_oracle(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(40, 3))
        poly = paraboloid_polynomial(3)
        mine = surface_residual(poly, PointCloud(3, pts))
        ref = np.abs(pts[:, 0] ** 2 + pts[:, 1] ** 2 - pts[:, 2]).max()
        assert mine == pytest.approx(ref, rel=0, abs=0)
