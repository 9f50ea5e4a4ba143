"""Attractor sampling: the chaos game and the cloud diameter."""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from selfaffine.affine import (
    AffineMap, IteratedFunctionSystem, _float_array, _float_map, fixed_point
)
from selfaffine.attractor import _DIAMETER_BLOCK, _check_steps, chaos_game, diameter
from selfaffine.cloud import PointCloud
from selfaffine.moment import MomentCurveSpec, build_moment_ifs, choose_anchors, lambda_bound
from selfaffine.paraboloid import ParaboloidSpec, build_paraboloid_ifs


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


def reference_chaos_game(ifs, iterations, burn_in, seed):
    """The chaos game's loop before it wrote each kept step into its row: one new vector a step."""
    rng = np.random.Generator(np.random.PCG64(seed))
    matrices, translations = zip(*map(_float_map, ifs._rows))
    x = _float_array(fixed_point(ifs.maps[0]))
    choices = rng.integers(0, len(matrices), size=iterations)
    kept = np.empty((iterations - burn_in, len(x)))
    for step, index in enumerate(choices):
        x = matrices[index] @ x + translations[index]
        if step >= burn_in:
            kept[step - burn_in] = x
    return kept


def dense_ifs(dim, seed):
    """Three dense contractive maps in dimension dim: every entry nonzero, row sums below 1/√dim."""
    rng = random.Random(f"dense:{dim}:{seed}")
    def entry():
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 3), 4 * dim * dim)
    return IteratedFunctionSystem(tuple(
        AffineMap([[entry() for _ in range(dim)] for _ in range(dim)],
                  [Fraction(rng.randint(-9, 9), 7) for _ in range(dim)])
        for _ in range(3)))


def moment_recipe(n=2, c=0, d=1):
    spec = MomentCurveSpec(n, Fraction(c), Fraction(d))
    ratio = Fraction(1, math.ceil(1 / lambda_bound(spec)))
    return build_moment_ifs(spec, ratio, choose_anchors(spec, ratio))


def moment_ifs(n=2):
    return moment_recipe(n).ifs


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

    # 600 burn-in steps of 1,000 are more than the 400 kept
    @pytest.mark.parametrize("burn_in", [0, 1, 100, 600])
    def test_equals_reference_loop(self, burn_in):
        recipes = [moment_recipe(n) for n in (2, 3, 4)]
        recipes.append(moment_recipe(3, Fraction(-1, 2), Fraction(1, 2)))
        systems = [recipe.ifs for recipe in recipes]
        third = Fraction(1, 3)
        base = ((third, 0), (third, Fraction(1, 12)), (third, Fraction(1, 6)))
        systems += [build_paraboloid_ifs(ParaboloidSpec(n, 0, Fraction(1, 4), base))
                    for n in range(2, 9)]
        systems += [dense_ifs(dim, seed) for dim in range(1, 9) for seed in (1, 2)]
        for system in systems:
            for seed in (0, 5):
                cloud = chaos_game(system, 1_000, burn_in, seed)
                expected = reference_chaos_game(system, 1_000, burn_in, seed)
                assert cloud.points.tobytes() == expected.tobytes()

    def test_float_guard_refuses_before_the_array(self):
        # two maps of dimension 100: 9·10⁶ steps would fill a 6.7 GiB array
        half = [[Fraction(int(i == j), 2) for j in range(100)] for i in range(100)]
        ifs = IteratedFunctionSystem((AffineMap(half, [0] * 100),
                                      AffineMap(half, [Fraction(1, 2)] * 100)))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="^9000000 iterations in dimension 100 are "
                               "900000000 floats, above the guard 130000000$"):
                chaos_game(ifs, 9_000_000, 100, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_cloud_holds_the_steps_once(self):
        # 200,100 steps of dimension 10 are 16 MB and their drawn map indices 1.6 MB;
        # a copy of the kept rows in the cloud would take the peak to about twice the cloud
        half = [[Fraction(int(i == j), 2) for j in range(10)] for i in range(10)]
        ifs = IteratedFunctionSystem((AffineMap(half, [0] * 10),
                                      AffineMap(half, [Fraction(1, 2)] * 10)))
        tracemalloc.start()
        try:
            cloud = chaos_game(ifs, 200_100, 100, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cloud.points.shape == (200_000, 10)
        assert not cloud.points.flags.writeable
        assert peak < 1.3 * cloud.points.nbytes

    def test_float_guard_keeps_the_step_ceiling_to_dimension_13(self):
        _check_steps(10_000_000, 0, 13)
        with pytest.raises(ValueError, match="above the guard 130000000"):
            _check_steps(10_000_000, 0, 14)
        with pytest.raises(ValueError, match="exceed the guard 10000000"):
            _check_steps(10_000_001, 0, 1)

    def test_moment_graph_residual(self):
        cloud = chaos_game(moment_ifs(2), 5000, 100, 3)
        t = cloud.points[:, 0]
        assert np.abs(cloud.points[:, 1] - t**2).max() <= 1e-12


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

    def test_above_the_exact_limit_raises(self):
        pts = np.random.default_rng(12).uniform(size=(10_001, 2))
        with pytest.raises(ValueError, match="^10001 points are above the cap 10000$"):
            diameter(PointCloud(2, pts))
        assert diameter(PointCloud(2, pts[:10_000])) == reference_diameter(pts[:10_000])
