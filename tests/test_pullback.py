"""Pullback polynomials, coefficient rank, witnesses, diameter decay."""

import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from selfaffine import pullback
from selfaffine.affine import AffineMap
from selfaffine.cloud import PointCloud
from selfaffine.exactlinalg import greedy_independent
from selfaffine.polynomials import MultiPoly, evaluate, parse_polynomial
from selfaffine.pullback import (
    CITED_CONCLUSION,
    _coefficient_vectors,
    circle_polynomial,
    coefficient_span_dimension,
    dependency_witness,
    diameter_decay_report,
    pullback_sequence,
    rational_circle_points,
)


def iterate(f, x, count):
    """f applied count times to x."""
    for _ in range(count):
        x = f(x)
    return x


def half_map():
    return AffineMap(
        [[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(1, 2)]],
        [Fraction(0), Fraction(0)],
    )


def circle_cloud(count=64):
    points = rational_circle_points(count)
    return PointCloud(2, [[float(x), float(y)] for x, y in points])


class TestPullbackSequence:
    def test_pullback_inverts_forward_iteration(self):
        rng = random.Random(3)
        poly = parse_polynomial("x1^2 - x2 + 3/2 * x1 * x2")
        f = AffineMap(
            [[Fraction(1, 3), Fraction(1, 5)], [Fraction(0), Fraction(1, 4)]],
            [Fraction(1), Fraction(-2)],
        )
        seq = pullback_sequence(poly, f, 4)
        assert len(seq) == 5
        for j, pj in enumerate(seq.polys):
            for _ in range(4):
                x = (Fraction(rng.randint(-4, 4), 3), Fraction(rng.randint(-4, 4), 3))
                # P_j (f^j x) = P(x), the defining property of the pullback
                assert evaluate(pj, iterate(f, x, j)) == evaluate(poly, x)

    def test_degree_preserved(self):
        seq = pullback_sequence(circle_polynomial(), half_map(), 6)
        assert all(p.degree == 2 for p in seq.polys)

    def test_requires_contractive(self):
        double = AffineMap(
            [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(2)]],
            [Fraction(0), Fraction(0)],
        )
        with pytest.raises(ValueError):
            pullback_sequence(circle_polynomial(), double, 2)

    def test_requires_invertible(self):
        flat = AffineMap(
            [[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(0)]],
            [Fraction(0), Fraction(0)],
        )
        with pytest.raises(ValueError):
            pullback_sequence(circle_polynomial(), flat, 2)

    def test_rejects_constant_polynomial(self):
        with pytest.raises(ValueError):
            pullback_sequence(MultiPoly.constant(2, Fraction(1)), half_map(), 2)

    def test_circle_pullbacks_frozen(self):
        # P_j(x) = |2^j x|^2 - 1 = 4^j (x1^2 + x2^2) - 1
        seq = pullback_sequence(circle_polynomial(), half_map(), 3)
        for j, pj in enumerate(seq.polys):
            scale = Fraction(4) ** j
            assert pj == MultiPoly(2, {(2, 0): scale, (0, 2): scale,
                                       (0, 0): Fraction(-1)})


class TestCoefficientRank:
    def test_circle_rank_two(self):
        seq = pullback_sequence(circle_polynomial(), half_map(), 10)
        rank, basis = coefficient_span_dimension(seq)
        assert rank == 2
        assert basis == (0, 1)

    def test_rank_bounded_by_space_dimension(self):
        # dim of quadratics in two variables is binomial(2+2, 2) = 6
        seq = pullback_sequence(circle_polynomial(), half_map(), 10)
        rank, _ = coefficient_span_dimension(seq)
        assert rank <= 6

    def test_generic_map_rank_three(self):
        # a shifted contraction pushes the circle around: constant, radius,
        # and centre directions give rank 3 immediately
        f = AffineMap(
            [[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(1, 2)]],
            [Fraction(1, 4), Fraction(0)],
        )
        seq = pullback_sequence(circle_polynomial(), f, 6)
        rank, _ = coefficient_span_dimension(seq)
        assert rank == 3


class TestDependencyWitness:
    def test_frozen_circle_witness(self):
        seq = pullback_sequence(circle_polynomial(), half_map(), 10)
        _, basis = coefficient_span_dimension(seq)
        witness = dependency_witness(seq, 2, basis)
        assert witness == [Fraction(-4), Fraction(5)]

    def test_witness_reconstructs_polynomial(self):
        seq = pullback_sequence(circle_polynomial(), half_map(), 10)
        _, basis = coefficient_span_dimension(seq)
        for index in range(2, 10):
            witness = dependency_witness(seq, index, basis)
            combo = MultiPoly.zero(2)
            for c, b in zip(witness, basis):
                combo = combo + c * seq.polys[b]
            assert combo == seq.polys[index]

    def test_rejects_basis_member(self):
        seq = pullback_sequence(circle_polynomial(), half_map(), 5)
        _, basis = coefficient_span_dimension(seq)
        with pytest.raises(ValueError):
            dependency_witness(seq, basis[0], basis)

    def test_rejects_out_of_range(self):
        seq = pullback_sequence(circle_polynomial(), half_map(), 3)
        _, basis = coefficient_span_dimension(seq)
        with pytest.raises(ValueError):
            dependency_witness(seq, 11, basis)

    def test_wrong_coefficients_fail_the_re_expansion(self, monkeypatch):
        seq = pullback_sequence(circle_polynomial(), half_map(), 5)
        _, basis = coefficient_span_dimension(seq)
        original = pullback.express_in_span
        monkeypatch.setattr(pullback, "express_in_span", lambda vectors, target: tuple(
            c + 1 for c in original(vectors, target)))
        with pytest.raises(ArithmeticError, match="witness re-expansion failed"):
            dependency_witness(seq, 2, basis)


def _change_pushed_cloud(monkeypatch, change):
    """Let diameter_decay_report see change(j, points) in place of its cloud pushed j times."""
    steps = itertools.count()
    monkeypatch.setattr(pullback, "PointCloud",
                        lambda dim, points: PointCloud(dim, change(next(steps), points)))


class TestDiameterDecay:
    # f = I/2 pushes the circle onto S(P_j), of diameter 2·2⁻ʲ = ‖M‖ʲ·diam S: each violation
    # below fires only on a cloud that the push did not give
    def test_cloud_off_the_zero_set_is_reported(self, monkeypatch):
        _change_pushed_cloud(monkeypatch, lambda j, points: points + 0.25 if j == 1 else points)
        report = diameter_decay_report(pullback_sequence(circle_polynomial(), half_map(), 3),
                                       circle_cloud())
        assert [v.split(":")[0] for v in report.violations] == ["j=1"]
        assert report.violations[0].startswith("j=1: residual ")
        assert report.violations[0].endswith(" above tolerance")

    def test_diameter_above_the_norm_bound_is_reported(self, monkeypatch):
        _change_pushed_cloud(monkeypatch, lambda j, points: points * 2 if j == 1 else points)
        report = diameter_decay_report(pullback_sequence(circle_polynomial(), half_map(), 3),
                                       circle_cloud())
        assert report.rows[1].sampled_diameter == pytest.approx(2.0)
        assert "j=1: diameter 2.0 above bound 1.000000001" in report.violations

    def test_diameter_that_grows_again_is_reported(self, monkeypatch):
        # diameters 2, 1, then 2 again: below the base at j = 1, above it at j = 2
        _change_pushed_cloud(monkeypatch, lambda j, points: points * 4 if j == 2 else points)
        report = diameter_decay_report(pullback_sequence(circle_polynomial(), half_map(), 3),
                                       circle_cloud())
        assert [row.sampled_diameter for row in report.rows] == pytest.approx([2, 1, 2, 0.25])
        assert "j=2: diameter stopped decreasing" in report.violations

    def test_circle_half_scaling_table(self):
        seq = pullback_sequence(circle_polynomial(), half_map(), 10)
        report = diameter_decay_report(seq, circle_cloud())
        assert report.ok
        assert not report.violations
        assert report.conclusion == CITED_CONCLUSION
        assert len(report.rows) == 11
        for row in report.rows:
            assert row.sampled_diameter == pytest.approx(2 * 0.5**row.j, abs=1e-9)
            assert row.max_residual <= 1e-9
            assert row.rank_so_far <= 2

    def test_rank_column_monotone(self):
        seq = pullback_sequence(circle_polynomial(), half_map(), 8)
        report = diameter_decay_report(seq, circle_cloud())
        ranks = [row.rank_so_far for row in report.rows]
        assert ranks == sorted(ranks)
        assert ranks[0] == 1

    @pytest.mark.parametrize("matrix, translation", [
        ([["1/2", "0"], ["0", "1/2"]], ["0", "0"]),
        ([["1/2", "0"], ["0", "1/2"]], ["1/4", "0"]),
        ([["3/5", "-4/7"], ["4/7", "3/5"]], ["0", "0"]),
        ([["1/2", "1/5"], ["0", "1/3"]], ["1/4", "-1/3"]),
        ([["1/3", "0"], ["0", "1/2"]], ["0", "0"]),
    ])
    def test_rank_column_equals_prefix_ranks(self, matrix, translation):
        f = AffineMap([[Fraction(x) for x in row] for row in matrix],
                      [Fraction(x) for x in translation])
        seq = pullback_sequence(circle_polynomial(), f, 12)
        report = diameter_decay_report(seq, circle_cloud())
        vectors = _coefficient_vectors(seq)
        ranks = [greedy_independent(vectors[: j + 1])[0] for j in range(len(seq))]
        assert [row.rank_so_far for row in report.rows] == ranks

    def test_report_carries_the_span_basis(self):
        f = AffineMap([[Fraction(3, 5), Fraction(-4, 7)], [Fraction(4, 7), Fraction(3, 5)]],
                      [Fraction(0), Fraction(0)])
        seq = pullback_sequence(circle_polynomial(), f, 12)
        report = diameter_decay_report(seq, circle_cloud())
        rank, basis = coefficient_span_dimension(seq)
        assert report.basis == basis
        assert report.rows[-1].rank_so_far == rank == len(basis)

    def test_report_runs_the_rank_cap_check(self, monkeypatch):
        seq = pullback_sequence(circle_polynomial(), half_map(), 12)
        monkeypatch.setattr(pullback, "greedy_independent",
                            lambda vectors: (7, tuple(range(7))))
        with pytest.raises(ArithmeticError, match="rank exceeded"):
            diameter_decay_report(seq, circle_cloud())

    def test_rejects_off_surface_samples(self):
        seq = pullback_sequence(circle_polynomial(), half_map(), 3)
        bad = PointCloud(2, [[1.0, 1.0]])
        with pytest.raises(ValueError):
            diameter_decay_report(seq, bad)

    def test_tolerance_parameter(self):
        seq = pullback_sequence(circle_polynomial(), half_map(), 3)
        near = PointCloud(2, [[1.0 + 1e-6, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        with pytest.raises(ValueError):
            diameter_decay_report(seq, near)
        report = diameter_decay_report(seq, near, tolerance=1e-3)
        assert len(report.rows) == 4
        with pytest.raises(ValueError):
            diameter_decay_report(seq, near, tolerance=0.0)


class TestCirclePoints:
    def test_exactly_on_circle(self):
        for x, y in rational_circle_points(100):
            assert x * x + y * y == 1

    def test_contains_axis_points(self):
        points = set(rational_circle_points(64))
        assert (Fraction(0), Fraction(1)) in points
        assert (Fraction(0), Fraction(-1)) in points
        assert (Fraction(1), Fraction(0)) in points
        assert (Fraction(-1), Fraction(0)) in points

    def test_no_duplicates(self):
        points = rational_circle_points(50)
        assert len(points) == len(set(points))

    def test_count_scale(self):
        points = rational_circle_points(64)
        assert 48 <= len(points) <= 80

    def test_minimum_count(self):
        with pytest.raises(ValueError):
            rational_circle_points(3)

    def test_circle_polynomial_text(self):
        assert circle_polynomial() == parse_polynomial("x1^2 + x2^2 - 1")

    def test_equals_the_set_filtered_reference(self):
        for count in [*range(4, 201), 10_000]:
            assert rational_circle_points(count) == _set_filtered_circle_points(count)


def _set_filtered_circle_points(count):
    """The half-angle points and their mirror images, duplicates dropped through a set."""
    half = count // 2 + 1
    points, seen = [], set()
    for k in range(half):
        s = Fraction(-1) + Fraction(2 * k, half - 1)
        denominator = 1 + s * s
        x = (1 - s * s) / denominator
        y = 2 * s / denominator
        for candidate in ((x, y), (-x, y)):
            if candidate not in seen:
                seen.add(candidate)
                points.append(candidate)
    return points


def test_circle_point_cap_rejects_before_building():
    tracemalloc.start()
    try:
        for count in (10_001, 10**9):
            with pytest.raises(ValueError, match="above the cap 10000"):
                rational_circle_points(count)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
