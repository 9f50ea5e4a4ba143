"""Paraboloid surface embedding and the exact conjugation identity."""

import random
from fractions import Fraction

import numpy as np
import pytest

from selfaffine.cloud import PointCloud
from selfaffine.paraboloid import (
    ParaboloidSpec,
    build_paraboloid_ifs,
    paraboloid_polynomial,
    surface_residual,
    verify_paraboloid_conjugation,
)
from selfaffine.polynomials import parse_polynomial


def halves_spec(n=3):
    return ParaboloidSpec(
        n, Fraction(0), Fraction(1),
        ((Fraction(1, 2), Fraction(0)), (Fraction(1, 2), Fraction(1, 2))),
    )


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
        rng = random.Random(n * 31)
        for _ in range(5):
            # two maps with weights (w, 1-w) tiling [0, 1/8]
            w = Fraction(rng.randint(2, 6), 8)
            signs = (rng.choice([1, -1]), rng.choice([1, -1]))
            a, b = Fraction(0), Fraction(1, 8)
            widths = (w * (b - a), (1 - w) * (b - a))
            c1 = signs[0] * w
            c2 = signs[1] * (1 - w)
            d1 = a - c1 * (a if c1 > 0 else b)
            d2 = (a + widths[0]) - c2 * (a if c2 > 0 else b)
            spec = ParaboloidSpec(n, a, b, ((c1, d1), (c2, d2)))
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
