"""Attractor sampling: chaos game, word enumeration, metric helpers."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from selfaffine.affine import AffineMap, IteratedFunctionSystem
from selfaffine.attractor import (
    _DIAMETER_BLOCK,
    chaos_game,
    diameter,
    hutchinson_iterate,
    one_sided_hausdorff,
)
from selfaffine.cloud import PointCloud
from selfaffine.moment import MomentCurveSpec, build_moment_ifs, choose_anchors


def cantor_like_ifs():
    """Two maps on the plane whose attractor is a Cantor set in [0,1]^2."""
    f = AffineMap([[Fraction(1, 3), Fraction(0)], [Fraction(0), Fraction(1, 3)]],
                  [Fraction(0), Fraction(0)])
    g = AffineMap([[Fraction(1, 3), Fraction(0)], [Fraction(0), Fraction(1, 3)]],
                  [Fraction(2, 3), Fraction(2, 3)])
    return IteratedFunctionSystem((f, g))


def reference_diameter(points):
    """The cdist scan diameter used before its numpy kernel: 512-row blocks, max entry."""
    worst = 0.0
    for start in range(0, len(points), 512):
        worst = max(worst, float(cdist(points[start : start + 512], points).max()))
    return worst


def moment_ifs(n=2):
    spec = MomentCurveSpec(n, Fraction(0), Fraction(1))
    from selfaffine.moment import lambda_bound
    ratio = Fraction(1, math.ceil(1 / lambda_bound(spec)))
    return build_moment_ifs(spec, ratio, choose_anchors(spec, ratio)).ifs


class TestChaosGame:
    def test_deterministic_per_seed(self):
        ifs = cantor_like_ifs()
        a = chaos_game(ifs, 500, 50, 123)
        b = chaos_game(ifs, 500, 50, 123)
        assert a == b

    def test_seeds_differ(self):
        ifs = cantor_like_ifs()
        assert chaos_game(ifs, 500, 50, 1) != chaos_game(ifs, 500, 50, 2)

    def test_burn_in_discarded(self):
        ifs = cantor_like_ifs()
        cloud = chaos_game(ifs, 500, 50, 7)
        assert len(cloud) == 450

    def test_points_stay_in_attractor_box(self):
        cloud = chaos_game(cantor_like_ifs(), 2000, 100, 9)
        assert cloud.points.min() >= 0.0
        assert cloud.points.max() <= 1.0

    def test_orbit_follows_recurrence(self):
        # replay the same PCG64 stream and recompute the orbit by hand
        ifs = cantor_like_ifs()
        cloud = chaos_game(ifs, 10, 0, 77)
        rng = np.random.Generator(np.random.PCG64(77))
        draws = rng.integers(0, 2, size=10)
        mats = [np.array([[float(v) for v in row] for row in f.matrix]) for f in ifs]
        trans = [np.array([float(v) for v in f.translation]) for f in ifs]
        x = np.zeros(2)  # fixed point of the first map
        expected = []
        for k in draws:
            x = mats[k] @ x + trans[k]
            expected.append(x.copy())
        assert np.allclose(cloud.points, np.array(expected), rtol=0, atol=0)

    def test_validation(self):
        ifs = cantor_like_ifs()
        with pytest.raises(ValueError):
            chaos_game(ifs, 10, 10, 0)
        with pytest.raises(ValueError):
            chaos_game(ifs, 10, -1, 0)

    def test_moment_graph_residual(self):
        cloud = chaos_game(moment_ifs(2), 5000, 100, 3)
        t = cloud.points[:, 0]
        assert np.abs(cloud.points[:, 1] - t**2).max() <= 1e-12


class TestHutchinson:
    def test_exact_level_sets(self):
        ifs = cantor_like_ifs()
        cloud = hutchinson_iterate(ifs, 3)
        # 2^3 words applied to the seed set
        xs = sorted(set(np.round(cloud.points[:, 0], 12)))
        # level-3 Cantor points: all sums of 2/3 * (e1/3^0 + e2/3 + e3/9) scaled
        assert len(cloud) == 8 * (len(cloud) // 8)
        assert cloud.points.min() >= 0.0 and cloud.points.max() <= 1.0
        assert len(xs) >= 8

    def test_word_budget_guard(self):
        with pytest.raises(ValueError):
            hutchinson_iterate(cantor_like_ifs(), 64)

    def test_on_curve_exactly(self):
        cloud = hutchinson_iterate(moment_ifs(2), 2)
        t = cloud.points[:, 0]
        assert np.abs(cloud.points[:, 1] - t**2).max() <= 1e-12

    def test_translation_beyond_float_range_raises(self):
        half = [[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(1, 2)]]
        ifs = IteratedFunctionSystem((AffineMap(half, [Fraction(10**400), Fraction(0)]),))
        with pytest.raises(ValueError, match="float range"):
            hutchinson_iterate(ifs, 2)


class TestDiameter:
    def test_two_points(self):
        cloud = PointCloud(2, [[0.0, 0.0], [3.0, 4.0]])
        assert diameter(cloud) == 5.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            diameter(PointCloud(2, []))

    def test_single_point(self):
        assert diameter(PointCloud(2, [[1.0, 1.0]])) == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(300, 3))
        cloud = PointCloud(3, pts)
        brute = max(
            float(np.linalg.norm(p - q)) for i, p in enumerate(pts) for q in pts[i + 1:]
        )
        assert diameter(cloud) == pytest.approx(brute, rel=0, abs=0)

    @pytest.mark.parametrize("dim", range(1, 9))
    def test_equals_cdist_scan(self, dim):
        rng = np.random.default_rng(100 + dim)
        sizes = (1, 2, _DIAMETER_BLOCK - 1, _DIAMETER_BLOCK, _DIAMETER_BLOCK + 1, 1_503)
        for size in sizes:
            for scale in (1e-3, 1.0, 1e3):
                pts = rng.normal(size=(size, dim)) * scale
                assert diameter(PointCloud(dim, pts)) == reference_diameter(pts)
                # coincident points: every row repeated, and one row everywhere
                doubled = np.vstack([pts, pts[::-1]])
                assert diameter(PointCloud(dim, doubled)) == reference_diameter(doubled)
                same = np.repeat(pts[:1], size, axis=0)
                assert diameter(PointCloud(dim, same)) == 0.0 == reference_diameter(same)

    def test_large_cloud_upper_bound(self):
        # beyond the exact-pairwise limit the result is the bounding-box
        # diagonal: an upper bound within sqrt(dim) of the true diameter
        rng = np.random.default_rng(12)
        pts = rng.uniform(size=(20_001, 2))
        value = diameter(PointCloud(2, pts))
        sub = diameter(PointCloud(2, pts[:5000]))
        assert value >= sub
        extents = pts.max(axis=0) - pts.min(axis=0)
        assert value == pytest.approx(float(np.hypot(*extents)), rel=1e-12)


class TestOneSidedHausdorff:
    def test_zero_for_identical(self):
        pts = np.random.default_rng(1).normal(size=(40, 2))
        cloud = PointCloud(2, pts)
        assert one_sided_hausdorff(cloud, cloud) == 0.0

    def test_hand_value(self):
        a = PointCloud(1, [[0.0], [10.0]])
        b = PointCloud(1, [[1.0], [10.0]])
        assert one_sided_hausdorff(a, b) == 1.0
        assert one_sided_hausdorff(b, a) == 1.0

    def test_asymmetry(self):
        a = PointCloud(1, [[0.0]])
        b = PointCloud(1, [[0.0], [100.0]])
        assert one_sided_hausdorff(a, b) == 0.0
        assert one_sided_hausdorff(b, a) == 100.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(30, 3))
        b = rng.normal(size=(25, 3))
        mine = one_sided_hausdorff(PointCloud(3, a), PointCloud(3, b))
        brute = max(min(float(np.linalg.norm(p - q)) for q in b) for p in a)
        assert mine == pytest.approx(brute, rel=0, abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            one_sided_hausdorff(PointCloud(1, [[0.0]]), PointCloud(2, [[0.0, 0.0]]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            one_sided_hausdorff(PointCloud(1, []), PointCloud(1, [[0.0]]))


class TestImports:
    def test_scipy_loaded_only_by_one_sided_hausdorff(self):
        source = str(Path(__file__).resolve().parent.parent / "src")
        script = (
            "import sys\n"
            "import selfaffine, selfaffine.cli\n"
            "print('scipy' in sys.modules)\n"
            "cloud = selfaffine.PointCloud(1, [[0.0], [1.0]])\n"
            "selfaffine.diameter(cloud)\n"
            "print('scipy' in sys.modules)\n"
            "selfaffine.one_sided_hausdorff(cloud, cloud)\n"
            "print('scipy' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=source)
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["False", "False", "True"]
