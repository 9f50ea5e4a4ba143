"""Acceptance gate: ten property-based criteria at pinned tolerances.

Every test prints exactly one line

    criterion N: PASS — detail
    criterion N: FAIL — detail

and then asserts.  Run `pytest tests/test_acceptance.py -v -s` to see
the report lines alongside the test results.  Randomness is seeded, so
the gate is deterministic.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from selfaffine.affine import AffineMap, is_contractive, operator_norm
from selfaffine.attractor import chaos_game
from selfaffine.classifier import (
    VERDICT_GAP,
    VERDICT_MOMENT,
    check_conjugation,
    classify_curve,
    graph_form,
    solve_recenter,
)
from selfaffine.cloud import PointCloud
from selfaffine.exactlinalg import determinant, identity, mat_inverse
from selfaffine.moment import (
    MomentCurveSpec,
    build_moment_ifs,
    choose_anchors,
    lambda_bound,
    verify_moment_invariance,
)
from selfaffine.paraboloid import (
    ParaboloidSpec,
    build_paraboloid_ifs,
    paraboloid_polynomial,
    surface_residual,
    verify_paraboloid_conjugation,
)
from selfaffine.polynomials import (
    MultiPoly,
    is_self_affine_pair,
    parse_polynomial,
    scaling_constant,
    verify_fixed_points_on_surface,
)
from selfaffine.pullback import (
    circle_polynomial,
    coefficient_span_dimension,
    dependency_witness,
    diameter_decay_report,
    pullback_sequence,
    rational_circle_points,
)
from selfaffine.series import TruncatedSeries, series_compose, series_reverse


def check(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number}: {status} — {detail}")
    assert ok, f"criterion {number} failed: {detail}"


# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def moment_suites():
    """Twelve built systems: n in 2..5 by three seeded random intervals.

    Intervals live inside [-1/2, 1/2] so the admissible contraction
    ceiling stays around 4^-n and the suites build in seconds; the
    ratio is the largest admissible unit fraction.
    """
    rng = random.Random(20260819)
    suites = {}
    for n in (2, 3, 4, 5):
        for idx in range(3):
            while True:
                c = Fraction(rng.randint(-4, 3), 8)
                d = Fraction(rng.randint(-3, 4), 8)
                if c < d:
                    break
            spec = MomentCurveSpec(n, c, d)
            ratio = Fraction(1, math.ceil(1 / lambda_bound(spec)))
            started = time.perf_counter()
            recipe = build_moment_ifs(spec, ratio, choose_anchors(spec, ratio))
            build_seconds = time.perf_counter() - started
            suites[(n, idx)] = (recipe, build_seconds)
    return suites


def _tiling_base_maps(rng, count, a, b):
    """Random signed base maps whose images tile [a, b] exactly."""
    raw = [Fraction(rng.randint(3, 5), 16) for _ in range(count)]
    total = sum(raw)
    weights = [w / total for w in raw]
    maps = []
    left = a
    for w in weights:
        width = w * (b - a)
        c = rng.choice([1, -1]) * w
        d = left - c * (a if c > 0 else b)
        maps.append((c, d))
        left += width
    return tuple(maps)


@pytest.fixture(scope="module")
def paraboloid_suites():
    """Random paraboloid systems for n in 2..4 on the interval [-1/32, 1/32]."""
    rng = random.Random(77001)
    h = Fraction(1, 32)
    suites = {}
    for n in (2, 3, 4):
        spec = ParaboloidSpec(n, -h, h, _tiling_base_maps(rng, 4, -h, h))
        suites[n] = (spec, build_paraboloid_ifs(spec))
    return suites


# ---------------------------------------------------------------- criteria


def test_criterion_1_moment_invariance(moment_suites):
    rng = random.Random(101)
    worst_seconds = 0.0
    total_checks = 0
    total_violations = 0
    for (n, idx), (recipe, build_seconds) in sorted(moment_suites.items()):
        spec = recipe.spec
        width = spec.d - spec.c
        samples = [spec.c + Fraction(rng.randrange(0, 65), 64) * width
                   for _ in range(100)]
        started = time.perf_counter()
        report = verify_moment_invariance(recipe, samples)
        elapsed = build_seconds + (time.perf_counter() - started)
        worst_seconds = max(worst_seconds, elapsed)
        total_checks += report.checks
        total_violations += len(report.counterexamples)
    ok = total_violations == 0 and worst_seconds < 10.0
    check(1, ok,
          f"exact invariance over n in 2..5 x 3 random intervals: "
          f"{total_checks} checks, {total_violations} violations, "
          f"worst per-instance time {worst_seconds:.2f}s (budget 10s)")


def test_criterion_2_contraction_certificates(moment_suites, paraboloid_suites):
    maps = []
    for recipe, _ in moment_suites.values():
        maps.extend(recipe.ifs.maps)
    for _, ifs in paraboloid_suites.values():
        maps.extend(ifs.maps)
    row_sum_failures = 0
    worst_norm = 0.0
    for f in maps:
        certificate = is_contractive(f)
        if not (certificate.contractive and certificate.route == "row-sum-bound"):
            row_sum_failures += 1
        worst_norm = max(worst_norm, operator_norm(f.matrix))
    ok = row_sum_failures == 0 and worst_norm < 1.0 - 1e-6
    check(2, ok,
          f"{len(maps)} generated maps: {row_sum_failures} row-sum certificate "
          f"failures, worst spectral norm {worst_norm:.3e} < 1 - 1e-6")


def test_criterion_3_attractor_on_curve():
    worst_seconds = 0.0
    worst_residual = 0.0
    for n in (2, 3):
        spec = MomentCurveSpec(n, Fraction(0), Fraction(1))
        ratio = Fraction(1, math.ceil(1 / lambda_bound(spec)))
        recipe = build_moment_ifs(spec, ratio, choose_anchors(spec, ratio))
        started = time.perf_counter()
        cloud = chaos_game(recipe.ifs, 100_000 + 100, 100, seed=2026)
        t = cloud.points[:, 0]
        residual = max(
            float(np.abs(cloud.points[:, k] - t ** (k + 1)).max())
            for k in range(1, n)
        )
        worst_seconds = max(worst_seconds, time.perf_counter() - started)
        worst_residual = max(worst_residual, residual)
        assert len(cloud) == 100_000
    ok = worst_residual <= 1e-9 and worst_seconds < 5.0
    check(3, ok,
          f"1e5-point chaos game, n=2 and n=3: max graph residual "
          f"{worst_residual:.2e} <= 1e-9, worst time {worst_seconds:.2f}s (budget 5s)")


def test_criterion_4_scaling_pair_reproduction():
    p = MultiPoly(2, {(0, 1): Fraction(1), (1, 0): Fraction(-1)})  # x2 - x1
    f = AffineMap([[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(1, 2)]],
                  [Fraction(0), Fraction(0)])
    g = AffineMap([[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(1, 2)]],
                  [Fraction(1, 2), Fraction(1, 2)])
    constants_half = (scaling_constant(p, f) == Fraction(1, 2)
                      and scaling_constant(p, g) == Fraction(1, 2))
    pair = is_self_affine_pair(p, f, g)
    report = verify_fixed_points_on_surface(p, [f, g], depth=6)
    words_ok = report.words_checked == 126
    surface_ok = report.ok and all(c.fixed_point_value == 0 for c in report.checks)
    constants_ok = all(c.constant == Fraction(1, 2) ** len(c.word)
                       for c in report.checks)
    ok = constants_half and pair and words_ok and surface_ok and constants_ok
    check(4, ok,
          f"both printed maps scale by exactly 1/2, pair is self-affine, "
          f"{report.words_checked} words to depth 6 all have P(fixed point) = 0 "
          f"and |C_w| = 2^-|w|")


def test_criterion_5_paraboloid_reproduction(paraboloid_suites):
    conjugation_ok = all(
        verify_paraboloid_conjugation(spec) for spec, _ in paraboloid_suites.values()
    )
    _, ifs3 = paraboloid_suites[3]
    cloud = chaos_game(ifs3, 100_000 + 100, 100, seed=5)
    residual = surface_residual(paraboloid_polynomial(3), cloud)
    ok = conjugation_ok and residual <= 1e-9
    check(5, ok,
          f"symbolic conjugation exact for n in 2..4 with random rational bases; "
          f"1e5-point chaos game on the n=3 system has paraboloid residual "
          f"{residual:.2e} <= 1e-9")


def test_criterion_6_circle_negative_control():
    circle = circle_polynomial()
    rng = random.Random(606)
    found = 0
    trials = 0
    for _ in range(1000):
        while True:
            matrix = tuple(
                tuple(Fraction(rng.randint(-3, 3), 10) for _ in range(2))
                for _ in range(2)
            )
            if determinant(matrix) != 0:
                break
        f = AffineMap(matrix, tuple(Fraction(rng.randint(-8, 8), 4) for _ in range(2)))
        assert is_contractive(f)
        trials += 1
        if scaling_constant(circle, f) is not None:
            found += 1
    # parametric rotation-scaling family: rho * R(s) + a on a 10 x 10 grid
    rhos = [Fraction(k, 10) for k in range(1, 10)] + [Fraction(19, 20)]
    slopes = [Fraction(k, 5) for k in range(-4, 5)] + [Fraction(1)]
    grid = 0
    for rho in rhos:
        for s in slopes:
            den = 1 + s * s
            rotation = ((1 - s * s) / den, -2 * s / den), (2 * s / den, (1 - s * s) / den)
            matrix = tuple(tuple(rho * x for x in row) for row in rotation)
            f = AffineMap(matrix, (Fraction(1, 3), Fraction(-1, 7)))
            grid += 1
            if scaling_constant(circle, f) is not None:
                found += 1
    ok = found == 0 and trials == 1000 and grid == 100
    check(6, ok,
          f"scaling constant absent for all {trials} random contractive maps "
          f"and the {grid}-point rotation-scaling grid")


def test_criterion_7_pullback_mechanism():
    started = time.perf_counter()
    seq = pullback_sequence(circle_polynomial(), AffineMap(
        [[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(1, 2)]],
        [Fraction(0), Fraction(0)],
    ), 10)
    rank, basis = coefficient_span_dimension(seq)
    witness = dependency_witness(seq, 2, basis)
    report = diameter_decay_report(seq, PointCloud(
        2, [[float(x), float(y)] for x, y in rational_circle_points(64)]
    ))
    elapsed = time.perf_counter() - started
    rank_ok = rank == 2 and all(row.rank_so_far <= math.comb(4, 2)
                                for row in report.rows)
    witness_ok = witness == [Fraction(-4), Fraction(5)] and basis == (0, 1)
    diameters_ok = all(
        abs(row.sampled_diameter - 2 * 0.5 ** row.j) <= 1e-9 for row in report.rows
    ) and len(report.rows) == 11
    ok = rank_ok and witness_ok and diameters_ok and report.ok and elapsed < 2.0
    check(7, ok,
          f"rank {rank} with witness P_2 = -4*P_0 + 5*P_1 (re-expanded exactly), "
          f"sampled diameters 2*2^-j within 1e-9 for j <= 10, rank <= 6, "
          f"time {elapsed:.2f}s (budget 2s)")


def _local_mul(a, b, order):
    out = [Fraction(0)] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        if x:
            for j, y in enumerate(b[: order + 1 - i]):
                out[i + j] += x * y
    return out


def _lagrange_reversion(coeffs, order):
    """Independent oracle: r_m = (1/m) [u^(m-1)] (u / s(u))^m."""
    shifted = list(coeffs[1:]) + [Fraction(0)]
    inverse = [Fraction(0)] * (order + 1)
    inverse[0] = 1 / shifted[0]
    for m in range(1, order + 1):
        acc = sum(shifted[k] * inverse[m - k] for k in range(1, m + 1)
                  if k < len(shifted))
        inverse[m] = -acc / shifted[0]
    result = [Fraction(0)] * (order + 1)
    power = [Fraction(1)] + [Fraction(0)] * order
    for m in range(1, order + 1):
        power = _local_mul(power, inverse, order)
        result[m] = power[m - 1] / m
    return result


def test_criterion_8_series_kernel():
    rng = random.Random(808)
    order = 16
    identity_coeffs = tuple([Fraction(0), Fraction(1)] + [Fraction(0)] * (order - 1))
    round_trips = 0
    for _ in range(100):
        coeffs = [Fraction(0), Fraction(rng.choice([1, -1, 2, -2, 3]))]
        coeffs += [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                   for _ in range(order - 1)]
        s = TruncatedSeries.from_coefficients(coeffs, order)
        r = series_reverse(s)
        if series_compose(s, r).coefficients() == identity_coeffs:
            round_trips += 1
    catalan = series_reverse(TruncatedSeries.from_coefficients([0, 1, 1], 8))
    oracle = _lagrange_reversion([Fraction(0), Fraction(1), Fraction(1)], 8)
    oracle_ok = list(catalan.coefficients()) == oracle
    ok = round_trips == 100 and oracle_ok
    check(8, ok,
          f"compose(s, reverse(s)) = t at order 16 for {round_trips}/100 random "
          f"germs; reverse(t + t^2) matches the Lagrange-inversion oracle "
          f"through order 8")


def _mat_mul(a, b):
    """The exact matrix product a·b of two row tuples."""
    return tuple(tuple(sum(x * b[k][j] for k, x in enumerate(row)) for j in range(len(b[0])))
                 for row in a)


def _conjugated_instance(rng, germ, m_diag):
    n = germ.dim
    while True:
        a = tuple(
            tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n))
            for _ in range(n)
        )
        if determinant(a) != 0:
            break
    b = [Fraction(rng.randint(-2, 2), 2) for _ in range(n)]
    rows = []
    for i in range(n):
        row = [Fraction(0)] * (germ.order + 1)
        for j in range(n):
            for k, c in enumerate(germ.coordinate(j).coefficients()):
                row[k] += a[i][j] * c
        row[0] += b[i]
        rows.append(row)
    curve = TruncatedSeries.from_rows(rows, germ.order)
    m_conj = _mat_mul(_mat_mul(a, m_diag), mat_inverse(a))
    return curve, m_conj, a


def test_criterion_9_classifier_instances():
    order = 16
    moment3 = TruncatedSeries.from_rows([[0, 1], [0, 0, 1], [0, 0, 0, 1]], order)
    gap = TruncatedSeries.from_rows([[0, 1], [0, 0, 0, 1]], order)
    diag3 = [[Fraction(1, 2), 0, 0], [0, Fraction(1, 4), 0], [0, 0, Fraction(1, 8)]]
    diag_gap = [[Fraction(1, 2), 0], [0, Fraction(1, 8)]]

    base_moment = classify_curve(moment3, diag3, identity(3), Fraction(1, 4))
    base_gap = classify_curve(gap, diag_gap, identity(2), Fraction(1, 4))
    canonical_ok = (
        base_moment.verdict == VERDICT_MOMENT
        and base_moment.exponents == (1, 2, 3)
        and base_gap.verdict == VERDICT_GAP
        and base_gap.recenter.witness == "missing monomial t^2"
    )

    rng = random.Random(909)
    invariant = 0
    for germ, model, expected in ((moment3, diag3, VERDICT_MOMENT),
                                  (gap, diag_gap, VERDICT_GAP)):
        for _ in range(20):
            curve, m_conj, a = _conjugated_instance(rng, germ, model)
            result = classify_curve(curve, m_conj, a, Fraction(1, 4))
            if result.verdict == expected:
                invariant += 1

    gf = graph_form(TruncatedSeries.from_rows([[0, 1], [0, 0, 1]], order))
    lam = Fraction(1, 2)
    jordan = check_conjugation(gf, [[lam, Fraction(1)], [Fraction(0), lam]])
    rotation = check_conjugation(gf, [
        [Fraction(3, 10), Fraction(-4, 10)],
        [Fraction(4, 10), Fraction(3, 10)],
    ])
    blocks_fail = (not jordan.passed) and (not rotation.passed)

    ok = canonical_ok and invariant == 40 and blocks_fail
    check(9, ok,
          f"canonical verdicts reproduced (moment p=(1,2,3); gap witness "
          f"'missing monomial t^2'); {invariant}/40 conjugated instances "
          f"agree; Jordan and rotation blocks fail check_conjugation")


def test_criterion_10_recenter_exhaustive():
    started = time.perf_counter()
    t1_values = [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2),
                 Fraction(2)]
    import itertools
    profiles = []
    for n in range(2, 7):
        for tail in itertools.combinations(range(2, 13), n - 1):
            profiles.append((1,) + tail)
    mistakes = 0
    for profile in profiles:
        should_be_feasible = profile == tuple(range(1, len(profile) + 1))
        for t1 in t1_values:
            result = solve_recenter(profile, t1)
            if result.feasible != should_be_feasible:
                mistakes += 1
    elapsed = time.perf_counter() - started
    ok = mistakes == 0 and elapsed < 60.0
    check(10, ok,
          f"{len(profiles)} strictly increasing profiles (n <= 6, p_n <= 12) "
          f"x {len(t1_values)} recentering points: feasible exactly on "
          f"p = (1..n), {mistakes} disagreements, time {elapsed:.1f}s (budget 60s)")
