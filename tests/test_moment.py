"""Moment-curve IFS construction and the exact invariance identity."""

import copy
import math
import operator
import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from selfaffine import affine, moment
from selfaffine.affine import (
    AffineMap, IteratedFunctionSystem, _float_array, _float_map, _line, _row_map,
    _rows_to_jsonable, certify_admissible, fixed_point, ifs_from_jsonable, is_contractive,
)
from selfaffine.attractor import chaos_game
from selfaffine.exactlinalg import determinant
from selfaffine.moment import (
    MomentCurveSpec,
    build_moment_ifs,
    choose_anchors,
    eval_moment,
    lambda_bound,
    read_recipe,
    recipe_to_jsonable,
    verify_moment_invariance,
)
from selfaffine.moment import InvarianceCounterexample, InvarianceReport
from selfaffine.rationals import _clear_denominators, format_rational


def _reference_rows(f):
    """f's rows cleared from its Fraction entries, translation entry first: what f._rows holds."""
    return [_clear_denominators((t, *row)) for t, row in zip(f.translation, f.matrix)]


def _plain_map(n, line):
    """The construction's map at φ(t) = (αt + β)/γ in plain Fractions.

    Translation entry k and matrix row k are the coefficients of φ(t)ᵏ, constant term first.
    """
    alpha, beta, gamma = line
    power, matrix, translation = [Fraction(1)], [], []
    for k in range(1, n + 1):
        power = [Fraction(beta, gamma) * lower + Fraction(alpha, gamma) * upper
                 for lower, upper in zip(power + [0], [0] + power)]
        translation.append(power[0])
        matrix.append(power[1:] + [Fraction(0)] * (n - k))
    return AffineMap(matrix, translation)


def _recipe_of(spec, ratio, anchors, maps):
    """The recipe read_recipe reads from a document of these maps under the construction's meta."""
    return read_recipe({
        "dim": spec.dim,
        "maps": [_rows_to_jsonable(f._rows) for f in maps],
        "meta": {"n": spec.dim, "c": format_rational(spec.c), "d": format_rational(spec.d),
                 "lambda": format_rational(ratio), "anchors": [format_rational(t) for t in anchors]},
    })


def _coefficient_mismatches(recipe):
    """Indices of the maps whose entries are not the coefficients of (λt + s)ᵏ."""
    n = recipe.spec.dim
    return [
        index
        for index, (anchor, f) in enumerate(zip(recipe.anchors, recipe.ifs.maps))
        if f != _plain_map(n, _line(recipe.ratio, anchor - recipe.ratio * recipe.spec.c))
    ]


def _grid(spec):
    """The n + 1 points c + k(d − c)/n: no nonzero polynomial of degree ≤ n vanishes on all."""
    step = (spec.d - spec.c) / spec.dim
    return [spec.c + k * step for k in range(spec.dim + 1)]


def _plain_counterexamples(recipe, samples, index):
    """Both sides of the identity for map `index` at each sample, in plain Fractions."""
    f, anchor = recipe.ifs.maps[index], recipe.anchors[index]
    n, ratio, c = recipe.spec.dim, recipe.ratio, recipe.spec.c
    found = []
    for t in samples:
        image, expected = f(eval_moment(n, t)), eval_moment(n, ratio * (t - c) + anchor)
        if image != expected:
            found.append(InvarianceCounterexample(index, t, image, expected))
    return found


def _reference_verify(recipe, samples):
    """The verifier with two comparisons: every sample, then the coefficient identity.

    A map whose coefficients differ but that no sample caught is reported
    at the first of the n + 1 points c + k(d − c)/n where the sides differ.
    """
    samples = [Fraction(t) for t in samples]
    every_map = range(len(recipe.ifs.maps))
    found = [bad for index in every_map for bad in _plain_counterexamples(recipe, samples, index)]
    caught = {bad.map_index for bad in found}
    for index in _coefficient_mismatches(recipe):
        if index not in caught:
            found.append(_plain_counterexamples(recipe, _grid(recipe.spec), index)[0])
    found.sort(key=lambda bad: bad.map_index)
    return InvarianceReport(len(samples) * len(every_map), tuple(found))


def unit_spec(n=2):
    return MomentCurveSpec(n, Fraction(0), Fraction(1))


class TestSpecAndEval:
    def test_eval_moment(self):
        assert eval_moment(3, Fraction(1, 2)) == (
            Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)
        )

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            MomentCurveSpec(1, Fraction(0), Fraction(1))
        with pytest.raises(ValueError):
            MomentCurveSpec(2, Fraction(1), Fraction(1))
        with pytest.raises(ValueError):
            MomentCurveSpec(2, Fraction(2), Fraction(1))


class TestLambdaBound:
    def test_frozen_unit_interval_n2(self):
        # 1 / (2^2 * 1.414214 * max(1, 2)^2) = 10^6 / (4 * 1414214 * 4)
        assert lambda_bound(unit_spec(2)) == Fraction(31250, 707107)

    def test_frozen_unit_interval_n3(self):
        # 1 / (2^3 * 1.732051 * 2^3)
        assert lambda_bound(unit_spec(3)) == Fraction(15625, 1732051)

    def test_symmetric_interval_uses_endpoint_term(self):
        # c = -1/2, d = 1/2: max((2*1/2+1)^2, (1/2+1/2+1)^2) = 4
        assert lambda_bound(MomentCurveSpec(2, Fraction(-1, 2), Fraction(1, 2))) == \
            Fraction(10**6, 4 * 1414214 * 4)

    def test_positive(self):
        for n in (2, 3, 4, 5):
            assert lambda_bound(MomentCurveSpec(n, Fraction(-2), Fraction(3))) > 0


class TestChooseAnchors:
    def test_uniform_grid_lambda_one_twentyfifth(self):
        anchors = choose_anchors(unit_spec(2), Fraction(1, 25))
        assert len(anchors) == 25
        assert anchors[0] == 0
        assert anchors[-1] == Fraction(24, 25)
        steps = {b - a for a, b in zip(anchors, anchors[1:])}
        assert steps == {Fraction(1, 25)}

    def test_respects_admissible_ceiling(self):
        spec = unit_spec(2)
        too_big = lambda_bound(spec) * 2
        with pytest.raises(ValueError):
            choose_anchors(spec, too_big)
        with pytest.raises(ValueError):
            choose_anchors(spec, Fraction(0))


class TestDimensionGuard:
    def test_the_guard_is_the_least_dimension_above_the_map_guard(self):
        # ⌈1/λ⌉ ≥ 1/lambda_bound > 2ⁿ√n, and 2ⁿ√n > _MAP_GUARD exactly when 4ⁿ·n > _MAP_GUARD²
        n = moment._DIM_GUARD
        assert 4**n * n > moment._MAP_GUARD**2 >= 4 ** (n - 1) * (n - 1)
        # one dimension lower, a short arc still tiles with fewer maps than the guard
        spec = MomentCurveSpec(n - 1, Fraction(0), Fraction(1, 10**6))
        ratio = lambda_bound(spec)
        assert len(choose_anchors(spec, ratio)) <= moment._MAP_GUARD
        assert 1 / ratio > 2 ** (n - 1) * math.sqrt(n - 1)

    @pytest.mark.parametrize("n", [14, 15, 10**9])
    def test_refused_before_lambda_bound(self, n, monkeypatch):
        def refused(value):
            raise AssertionError("lambda_bound took a square root")

        monkeypatch.setattr(moment, "sqrt_upper_bound", refused)
        spec = unit_spec(n)
        message = "the map count ceil\\(1/lambda\\) is above the guard 50000"
        with pytest.raises(ValueError, match=message):
            choose_anchors(spec, Fraction(1, 10**9))
        with pytest.raises(ValueError, match=message):
            build_moment_ifs(spec, Fraction(1, 2), [Fraction(0), Fraction(1, 2)])


class TestBuildMomentIfs:
    def test_n2_map_structure(self):
        # for c = 0: T_i = [[l, 0], [2*l*t_i, l^2]], translation (t_i, t_i^2)
        spec = unit_spec(2)
        ratio = Fraction(1, 25)
        recipe = build_moment_ifs(spec, ratio, choose_anchors(spec, ratio))
        for anchor, f in zip(recipe.anchors, recipe.ifs.maps):
            assert f.matrix == (
                (ratio, Fraction(0)),
                (2 * ratio * anchor, ratio * ratio),
            )
            assert f.translation == (anchor, anchor * anchor)

    def test_tiling_enforced(self):
        spec = unit_spec(2)
        ratio = Fraction(1, 25)
        anchors = list(choose_anchors(spec, ratio))
        anchors[3] += Fraction(1, 1000)  # break the exact tiling
        with pytest.raises(ValueError):
            build_moment_ifs(spec, ratio, anchors)

    def test_matches_reference_formula(self):
        # row k, column j: λᵏ·binom(k, j)·(t_i/λ − c)^(k−j); translation −T·η(c − t_i/λ)
        cases = [
            (MomentCurveSpec(2, Fraction(0), Fraction(1)), Fraction(1, 25)),
            (MomentCurveSpec(3, Fraction(-1, 4), Fraction(1, 4)), Fraction(2, 95)),
            (MomentCurveSpec(4, Fraction(-3, 8), Fraction(1, 8)), None),
        ]
        for spec, ratio in cases:
            if ratio is None:
                ratio = lambda_bound(spec) / 2
            recipe = build_moment_ifs(spec, ratio, choose_anchors(spec, ratio))
            n = spec.dim
            for anchor, f in zip(recipe.anchors, recipe.ifs.maps):
                shift = anchor / ratio - spec.c
                matrix = tuple(
                    tuple(ratio**k * math.comb(k, j) * shift ** (k - j) if j <= k
                          else Fraction(0) for j in range(1, n + 1))
                    for k in range(1, n + 1)
                )
                base = eval_moment(n, spec.c - anchor / ratio)
                translation = tuple(-sum(m * x for m, x in zip(row, base)) for row in matrix)
                assert f == AffineMap(matrix, translation)

    @pytest.mark.parametrize("anchors, dim, count, message", [
        ([Fraction(-1, 4), Fraction(1, 2)], 3, 5, r"every anchor must lie in \[c, d\]"),
        ([Fraction(0), Fraction(5, 4)], 3, 5, r"every anchor must lie in \[c, d\]"),
        ([], 2, 1, "one anchor per map is required"),
        ([], 3, 0, "system dimension must match the curve dimension"),
        ([], 2, 0, "an iterated function system needs at least one map"),
    ], ids=["below-c", "above-d", "empty-short", "empty-wrong-dim", "empty"])
    def test_recipe_errors_keep_their_order(self, anchors, dim, count, message):
        # the anchors' range is read off the ends of the sorted anchors, before any other check
        with pytest.raises(ValueError, match=message):
            moment._check_recipe(unit_spec(2), Fraction(1, 2), anchors, dim, count)

    @pytest.mark.parametrize("case", ["non-tiling", "above-guard"])
    def test_recipe_is_checked_before_any_map_is_built(self, case, monkeypatch):
        # 60,000 anchors 0 miss the endpoint 1; _MAP_GUARD + 1 anchors i/count tile [0, 1]
        if case == "non-tiling":
            ratio, anchors = Fraction(1, 100000), [Fraction(0)] * 60000
            message = r"interval images must reach both endpoints of \[c, d\]"
        else:
            count = moment._MAP_GUARD + 1
            ratio, anchors = Fraction(1, count), [Fraction(i, count) for i in range(count)]
            message = f"the map count {count} is above the guard {moment._MAP_GUARD}"
        monkeypatch.setattr(moment, "_moment_rows", None)
        with pytest.raises(ValueError, match=message):
            build_moment_ifs(unit_spec(3), ratio, anchors)

    def test_anchor_count_matches_maps(self):
        spec = MomentCurveSpec(3, Fraction(-1, 2), Fraction(1, 2))
        ratio = Fraction(1, math.ceil(1 / lambda_bound(spec)))
        recipe = build_moment_ifs(spec, ratio, choose_anchors(spec, ratio))
        assert len(recipe.anchors) == len(recipe.ifs)
        assert len(recipe.ifs) == math.ceil(1 / ratio)


@pytest.fixture
def lift_calls(monkeypatch):
    """The points, as Fractions, of each call the moment verifier makes to _lift_failures."""
    calls = []
    original = moment._lift_failures

    def recorded(lifts, form, degrees, points, common, proven):
        calls.append([Fraction(p, common) for (p,) in points])
        return original(lifts, form, degrees, points, common, proven)

    monkeypatch.setattr(moment, "_lift_failures", recorded)
    return calls


class TestInvariance:
    def test_exact_for_built_systems(self):
        rng = random.Random(17)
        for n in (2, 3):
            spec = MomentCurveSpec(n, Fraction(-1, 4), Fraction(1, 2))
            ratio = Fraction(1, math.ceil(1 / lambda_bound(spec)))
            recipe = build_moment_ifs(spec, ratio, choose_anchors(spec, ratio))
            width = spec.d - spec.c
            samples = [spec.c + Fraction(rng.randrange(0, 33), 32) * width
                       for _ in range(10)]
            report = verify_moment_invariance(recipe, samples)
            assert report.ok
            assert report.checks == 10 * len(recipe.ifs)
            assert not report.counterexamples

    def test_detects_corruption(self):
        spec = unit_spec(2)
        ratio = Fraction(1, 25)
        recipe = build_moment_ifs(spec, ratio, choose_anchors(spec, ratio))
        maps = list(recipe.ifs.maps)
        broken = maps[4]
        maps[4] = AffineMap(broken.matrix,
                            (broken.translation[0], broken.translation[1] + 1))
        tampered = _recipe_of(spec, ratio, recipe.anchors, maps)
        report = verify_moment_invariance(tampered, [Fraction(0), Fraction(1, 2)])
        assert not report.ok
        assert {bad.map_index for bad in report.counterexamples} == {4}
        bad = report.counterexamples[0]
        assert bad.image != bad.expected

    def _small_recipe(self):
        spec = MomentCurveSpec(3, Fraction(-1, 8), Fraction(0))
        ratio = Fraction(1, math.ceil(1 / lambda_bound(spec)))
        return build_moment_ifs(spec, ratio, choose_anchors(spec, ratio))

    @staticmethod
    def _tampered(recipe, index, row, column, delta):
        """The recipe with one entry of map `index` shifted by delta.

        column None selects the translation entry of that row.
        """
        f = recipe.ifs.maps[index]
        matrix = [list(r) for r in f.matrix]
        translation = list(f.translation)
        if column is None:
            translation[row] += delta
        else:
            matrix[row][column] += delta
        maps = list(recipe.ifs.maps)
        maps[index] = AffineMap(matrix, translation)
        return _recipe_of(recipe.spec, recipe.ratio, recipe.anchors, maps)

    def test_every_tampered_position_caught_by_both_checks(self, lift_calls):
        recipe = self._small_recipe()
        spec, ratio = recipe.spec, recipe.ratio
        n = spec.dim
        count = len(recipe.ifs)
        assert _coefficient_mismatches(recipe) == []
        samples = [Fraction(-1, 8), Fraction(-3, 32), Fraction(-1, 20), Fraction(0)]
        assert verify_moment_invariance(recipe, samples).ok
        assert lift_calls == [samples]
        positions = [(row, column) for row in range(n) for column in [*range(n), None]]
        for number, (row, column) in enumerate(positions):
            index = (7 * number) % count
            tampered = self._tampered(recipe, index, row, column, Fraction(1, 997))
            assert _coefficient_mismatches(tampered) == [index]
            lift_calls.clear()
            report = verify_moment_invariance(tampered, samples)
            # four distinct samples prove a map of n = 3, so no grid point joins them
            assert lift_calls == [samples]
            found = list(report.counterexamples)
            assert found == _plain_counterexamples(tampered, samples, index)
            assert {bad.map_index for bad in found} == {index}
            # t = 0 only exposes a tampered translation
            assert len(found) == (len(samples) if column is None else len(samples) - 1)
            f = tampered.ifs.maps[index]
            anchor = recipe.anchors[index]
            for bad in found:
                # the integer evaluation agrees with plain Fraction arithmetic
                assert bad.image == f(eval_moment(n, bad.sample))
                assert bad.expected == eval_moment(n, ratio * (bad.sample - spec.c) + anchor)
                assert bad.image != bad.expected
            assert report.checks == len(samples) * count

    def test_mismatch_no_sample_exposes_is_reported(self):
        # t = 0 cannot see a tampered matrix entry, yet the map is wrong
        recipe = self._small_recipe()
        n = recipe.spec.dim
        tampered = self._tampered(recipe, 5, 1, 2, Fraction(1, 997))
        report = verify_moment_invariance(tampered, [Fraction(0)])
        assert report.checks == len(recipe.ifs)
        assert len(report.counterexamples) == 1
        bad = report.counterexamples[0]
        assert bad.map_index == 5
        step = (recipe.spec.d - recipe.spec.c) / n
        assert bad.sample in {recipe.spec.c + k * step for k in range(n + 1)}
        assert bad.image == tampered.ifs.maps[5](eval_moment(n, bad.sample))
        assert bad.image != bad.expected

    def test_rejects_sample_outside_interval(self):
        spec = unit_spec(2)
        ratio = Fraction(1, 25)
        recipe = build_moment_ifs(spec, ratio, choose_anchors(spec, ratio))
        with pytest.raises(ValueError):
            verify_moment_invariance(recipe, [Fraction(2)])


class TestRecipeJson:
    def _recipe(self):
        spec = unit_spec(2)
        ratio = Fraction(1, 25)
        return build_moment_ifs(spec, ratio, choose_anchors(spec, ratio))

    def test_round_trip(self):
        recipe = self._recipe()
        data = recipe_to_jsonable(recipe)
        rebuilt = read_recipe(data)
        assert verify_moment_invariance(rebuilt, ()).ok
        assert rebuilt.ifs == recipe.ifs
        assert rebuilt.spec == recipe.spec
        assert rebuilt.ratio == recipe.ratio
        assert rebuilt.anchors == recipe.anchors

    def test_meta_fields(self):
        data = recipe_to_jsonable(self._recipe())
        assert data["meta"]["n"] == 2
        assert data["meta"]["lambda"] == "1/25"
        assert len(data["meta"]["anchors"]) == 25

    def test_tampered_maps_rejected(self):
        data = recipe_to_jsonable(self._recipe())
        data["maps"][0]["translation"][1] = "9/7"
        report = verify_moment_invariance(read_recipe(data), ())
        assert {bad.map_index for bad in report.counterexamples} == {0}

    def test_recipe_is_checked_once_per_build_and_read(self, monkeypatch):
        calls = []
        original = moment._check_recipe

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(moment, "_check_recipe", counted)
        recipe = self._recipe()
        assert len(calls) == 1
        data = recipe_to_jsonable(recipe)
        calls.clear()
        assert read_recipe(data) == recipe
        assert len(calls) == 1


def _tiling_recipe(n, c, d, ratio):
    """The construction on [c, d] at ratio λ, on choose_anchors' uniform grid.

    λ need not lie below lambda_bound: read_recipe asks only for a
    tiling and for invertible, contractive maps, so that n = 5 with c < 0
    stays at a handful of maps.
    """
    spec = MomentCurveSpec(n, Fraction(c), Fraction(d))
    count = math.ceil(1 / ratio)
    step = (spec.d - spec.c) * (1 - ratio) / (count - 1)
    anchors = [spec.c + i * step for i in range(count)]
    maps = tuple(
        _plain_map(n, _line(ratio, t - ratio * spec.c)) for t in anchors
    )
    return _recipe_of(spec, ratio, anchors, maps)


def _seeded_recipes():
    rng = random.Random(71)
    for n in (2, 3, 4, 5):
        for c in (Fraction(0), Fraction(-1), Fraction(-1, 2)):
            ratio = Fraction(1, rng.randint(10, 14))
            width = Fraction(rng.randint(1, 4), 4)
            yield _tiling_recipe(n, c, c + width, ratio)


def _tamper(recipe, rng, kind):
    """The recipe with one entry of a random map shifted by a small positive amount.

    kind is "above" or "below" the diagonal (the diagonal included) or "translation".
    """
    n = recipe.spec.dim
    index = rng.randrange(len(recipe.ifs))
    f = recipe.ifs.maps[index]
    matrix, translation = [list(row) for row in f.matrix], list(f.translation)
    delta = Fraction(1, rng.choice([7, 997, 10**6]))
    if kind == "translation":
        translation[rng.randrange(n)] += delta
    else:
        row = rng.randrange(n - 1) if kind == "above" else rng.randrange(n)
        column = rng.randrange(row + 1, n) if kind == "above" else rng.randrange(row + 1)
        matrix[row][column] += delta
    maps = list(recipe.ifs.maps)
    maps[index] = AffineMap(matrix, translation)
    return _recipe_of(recipe.spec, recipe.ratio, recipe.anchors, maps)


class TestVerifierAgainstReference:
    def test_reports_equal_the_two_comparison_reference(self):
        rng = random.Random(29)
        compared = tampered_reports = gridded = 0
        for recipe in _seeded_recipes():
            spec, n = recipe.spec, recipe.spec.dim
            # sample values: the proof grid, so that samples can coincide with it, and others
            values = [*_grid(spec), spec.c + (spec.d - spec.c) / 7, spec.d]
            # no samples at all checks every map on the n + 1 point grid alone
            for size in range(n + 3):
                for tampers in range(4):
                    current = recipe
                    for kind in rng.choices(["above", "below", "translation"], k=tampers):
                        current = _tamper(current, rng, kind)
                    samples = [rng.choice(values) for _ in range(size)]
                    report = verify_moment_invariance(current, samples)
                    expected = _reference_verify(current, samples)
                    assert report.checks == expected.checks
                    assert len(report.counterexamples) == len(expected.counterexamples)
                    for mine, theirs in zip(report.counterexamples, expected.counterexamples):
                        assert mine.map_index == theirs.map_index
                        assert mine.sample == theirs.sample
                        assert mine.image == theirs.image
                        assert mine.expected == theirs.expected
                    compared += 1
                    tampered_reports += not expected.ok
                    gridded += len(set(samples)) <= n and not expected.ok
        # the cases above reach both branches: tampers caught, and grids needed
        assert compared == 3 * sum(4 * (n + 3) for n in (2, 3, 4, 5))
        assert tampered_reports > compared // 2
        assert gridded > 20

    def test_grid_only_for_few_distinct_samples(self, lift_calls):
        recipe = _tiling_recipe(3, 0, 1, Fraction(1, 10))
        grid = _grid(recipe.spec)
        # n = 3: no sample or three distinct ones need the grid, four do not
        for samples, gridded in [([], True), ([0, 1, 1, 1], True),
                                 ([0, Fraction(1, 3), 1, 1], True),
                                 ([0, Fraction(1, 3), Fraction(1, 2), 1], False)]:
            lift_calls.clear()
            assert verify_moment_invariance(recipe, samples).ok
            assert lift_calls == [samples + grid if gridded else samples]


@pytest.fixture
def determinant_calls(monkeypatch):
    """The matrices the IFS readers pass to determinant."""
    calls = []

    def counted(matrix):
        calls.append(matrix)
        return determinant(matrix)

    monkeypatch.setattr(affine, "determinant", counted)
    return calls


class TestRecipeReader:
    def test_matches_the_parsing_reader(self, determinant_calls):
        for recipe in _seeded_recipes():
            determinant_calls.clear()
            data = recipe_to_jsonable(recipe)
            read = read_recipe(copy.deepcopy(data))
            assert determinant_calls == []
            parsed = ifs_from_jsonable(data)
            # the parsed maps are lower-triangular with diagonal λᵏ ≠ 0: no determinant either
            assert determinant_calls == []
            assert (read.spec, read.ratio, read.anchors) == (
                recipe.spec, recipe.ratio, recipe.anchors)
            assert len(read.ifs) == len(parsed) == len(recipe.ifs)
            for mine, theirs, built in zip(read.ifs.maps, parsed.maps, recipe.ifs.maps):
                assert mine == theirs == built
            for mine, theirs, f in zip(read.ifs.certificates, parsed.certificates, parsed.maps):
                assert mine == theirs == is_contractive(f)

    def test_determinant_of_every_constructed_map(self):
        # the argument that replaces the determinant call on a map taken as built
        spec = MomentCurveSpec(3, Fraction(0), Fraction(1))
        ratio = lambda_bound(spec) / 2
        built = build_moment_ifs(spec, ratio, choose_anchors(spec, ratio))
        for recipe in [*_seeded_recipes(), built]:
            n = recipe.spec.dim
            for f in recipe.ifs.maps:
                assert determinant(f.matrix) == recipe.ratio ** (n * (n + 1) // 2)
                assert all(f.matrix[k][k] == recipe.ratio ** (k + 1) for k in range(n))
                assert not any(f.matrix[i][j] for i in range(n) for j in range(i + 1, n))

    def test_build_skips_the_determinant(self, determinant_calls):
        spec = MomentCurveSpec(2, Fraction(0), Fraction(1))
        recipe = build_moment_ifs(spec, Fraction(1, 25), choose_anchors(spec, Fraction(1, 25)))
        assert determinant_calls == []
        assert recipe.ifs.certificates == tuple(map(is_contractive, recipe.ifs.maps))

    @staticmethod
    def _half_recipe():
        # c = 0, λ = 1/10: map 5 has anchor 1/2, so its translation[0] is "1/2"
        return _tiling_recipe(3, 0, 1, Fraction(1, 10))

    @pytest.mark.parametrize("kind, changes_value", [
        ("above-diagonal", True),
        ("below-diagonal", True),
        ("translation", True),
        ("non-canonical", False),
        ("integer", False),
    ])
    def test_tampered_entry_is_parsed_and_named(self, kind, changes_value, determinant_calls):
        recipe = self._half_recipe()
        determinant_calls.clear()
        data = recipe_to_jsonable(recipe)
        entry = data["maps"][5]
        if kind == "above-diagonal":
            entry["matrix"][0][2] = "1/997"
        elif kind == "below-diagonal":
            entry["matrix"][2][0] = "1/997"
        elif kind == "translation":
            entry["translation"][1] = "1/997"
        elif kind == "non-canonical":
            assert entry["translation"][0] == "1/2"
            entry["translation"][0] = "2/4"
        else:
            assert entry["matrix"][0][1] == "0"
            entry["matrix"][0][1] = 0
        read = read_recipe(data)
        # only an entry above the diagonal leaves the map to determinant, on its cleared rows
        assert determinant_calls == ([[row[1:] for row, _ in _reference_rows(read.ifs.maps[5])]]
                                     if kind == "above-diagonal" else [])
        assert (read.ifs.maps[5] != recipe.ifs.maps[5]) == changes_value
        report = verify_moment_invariance(read, [Fraction(k, 4) for k in range(5)])
        named = {bad.map_index for bad in report.counterexamples}
        assert named == ({5} if changes_value else set())

    def test_short_row_is_parsed_and_named(self, determinant_calls):
        data = recipe_to_jsonable(self._half_recipe())
        determinant_calls.clear()
        del data["maps"][5]["matrix"][1][-1]
        with pytest.raises(ValueError, match="map 5 matrix must be square"):
            read_recipe(data)
        assert determinant_calls == []

    def test_zero_ratio_maps_are_parsed_and_certified(self, determinant_calls):
        # at λ = 0 the construction's maps are singular: the meta is rejected before any map
        spec, zero = MomentCurveSpec(2, Fraction(0), Fraction(1)), Fraction(0)
        anchors = [Fraction(0), Fraction(1)]
        maps = [_plain_map(2, _line(zero, t - zero * spec.c)) for t in anchors]
        data = {"dim": 2, "maps": [_rows_to_jsonable(f._rows) for f in maps],
                "meta": {"n": 2, "c": "0", "d": "1", "lambda": "0", "anchors": ["0", "1"]}}
        with pytest.raises(ValueError, match=r"contraction ratio must lie in \(0, 1\)"):
            read_recipe(data)
        assert determinant_calls == []

    def test_malformed_meta_is_reported_before_any_map_is_read(self, determinant_calls):
        data = recipe_to_jsonable(self._half_recipe())
        determinant_calls.clear()
        data["meta"]["lambda"] = "0.1"
        data["maps"][2]["translation"] = ["0"]
        with pytest.raises(ValueError, match="not a rational"):
            read_recipe(data)
        assert determinant_calls == []

    @pytest.mark.parametrize("meta, message", [
        ("ratio-one", r"contraction ratio must lie in \(0, 1\)"),
        ("anchor-outside", r"every anchor must lie in \[c, d\]"),
        ("one-anchor-short", "one anchor per map is required"),
        ("other-dimension", "system dimension must match the curve dimension"),
        ("broken-tiling", "interval images leave a gap"),
        ("above-guard", f"the map count {moment._MAP_GUARD + 1} is above the guard"),
    ])
    def test_rejected_meta_reads_no_map(self, meta, message, determinant_calls, monkeypatch):
        data = recipe_to_jsonable(self._half_recipe())
        anchors = data["meta"]["anchors"]
        count = moment._MAP_GUARD + 1
        if meta == "ratio-one":
            data["meta"]["lambda"] = "1"
        elif meta == "anchor-outside":
            anchors[4] = "2"
        elif meta == "one-anchor-short":
            del anchors[-1]
        elif meta == "other-dimension":
            data["meta"]["n"] = 4
        elif meta == "above-guard":
            # the anchors i/count tile [0, 1] at λ = 1/count
            data["meta"]["lambda"] = f"1/{count}"
            anchors[:] = [f"{i}/{count}" for i in range(count)]
            data["maps"] = [{}] * count
        else:
            anchors[4] = anchors[3]
        monkeypatch.setattr(moment, "_moment_rows", None)
        determinant_calls.clear()
        with pytest.raises(ValueError, match=message):
            read_recipe(data)
        assert determinant_calls == []

    def test_differing_entry_costs_no_more_than_it_stores(self, monkeypatch):
        # a matrix of n empty rows stops the construction at its first row
        data = recipe_to_jsonable(self._half_recipe())
        data["maps"][0]["matrix"] = [[] for _ in range(3)]
        rows = []
        original = moment._moment_rows

        def counted(n, line):
            for row in original(n, line):
                rows.append(row)
                yield row

        monkeypatch.setattr(moment, "_moment_rows", counted)
        with pytest.raises(ValueError, match="map 0 matrix must be square"):
            read_recipe(data)
        # one row for map 0, all n = 3 rows for each of the maps that match
        assert len(rows) == 1 + 3 * (len(data["maps"]) - 1)


def _all_samples_counterexamples(recipe, samples, indices):
    """The integer sampled check without its early stop: every map at every sample."""
    n = recipe.spec.dim
    numerators, common = _clear_denominators(samples)
    table = [
        (t, p, [p**j * common ** (n - j) for j in range(n + 1)])
        for t, p in zip(samples, numerators)
    ]
    found = []
    for index in indices:
        ratio, anchor = recipe.ratio, recipe.anchors[index]
        alpha, beta, gamma = _line(ratio, anchor - ratio * recipe.spec.c)
        gamma *= common
        rows = []
        f = recipe.ifs.maps[index]
        for k, (offset, row) in enumerate(zip(f.translation, f.matrix), start=1):
            numerators, scale = _clear_denominators((offset,) + row)
            rows.append((numerators, scale * common**n, gamma**k))
        for t, p, powers in table:
            u = alpha * p + beta * common
            u_power = 1
            for numerators, scale, gamma_power in rows:
                u_power *= u
                if sum(map(operator.mul, numerators, powers)) * gamma_power != u_power * scale:
                    image = tuple(
                        Fraction(sum(map(operator.mul, numerators, powers)), scale)
                        for numerators, scale, _ in rows
                    )
                    expected = tuple(Fraction(u**k, gamma**k) for k in range(1, n + 1))
                    found.append(InvarianceCounterexample(index, t, image, expected))
                    break
    return found


def _vanishing_tamper(recipe, rng, roots):
    """The recipe with one component of a random map shifted by ε·∏(t − r) over `roots`.

    The shift has degree len(roots) ≤ n and vanishes exactly at the roots,
    so the tampered map passes every sample among them and fails at every other.
    """
    n = recipe.spec.dim
    coefficients = [Fraction(1, 10**6)]  # t⁰ first
    for r in roots:
        coefficients = [upper - r * lower
                        for lower, upper in zip(coefficients + [0], [0] + coefficients)]
    index, row = rng.randrange(len(recipe.ifs)), rng.randrange(n)
    f = recipe.ifs.maps[index]
    matrix, translation = [list(entries) for entries in f.matrix], list(f.translation)
    translation[row] += coefficients[0]
    for j, coefficient in enumerate(coefficients[1:]):
        matrix[row][j] += coefficient
    maps = list(recipe.ifs.maps)
    maps[index] = AffineMap(matrix, translation)
    return _recipe_of(recipe.spec, recipe.ratio, recipe.anchors, maps), index


class TestEarlyStop:
    def test_reports_equal_the_all_samples_reference(self, lift_calls):
        rng = random.Random(43)
        late_failures = 0
        for recipe in _seeded_recipes():
            spec, n = recipe.spec, recipe.spec.dim
            grid = [spec.c + (spec.d - spec.c) * k / 99 for k in range(100)]
            rng.shuffle(grid)
            # the first n + 1 entries of the second list hold only n distinct values
            for samples in (grid, [grid[0], *grid[:99]]):
                assert len(samples) == 100
                cases = [(recipe, None)]
                cases += [(_tamper(recipe, rng, kind), None)
                          for kind in ("above", "below", "translation")]
                cases.append(_vanishing_tamper(recipe, rng, grid[:n]))
                for current, vanishing in cases:
                    every_map = range(len(current.ifs))
                    expected = _all_samples_counterexamples(current, samples, every_map)
                    lift_calls.clear()
                    report = verify_moment_invariance(current, samples)
                    # more than n distinct samples: one pass over them, and no grid
                    assert lift_calls == [samples]
                    assert report.checks == 100 * len(current.ifs)
                    assert report.counterexamples == tuple(expected)
                    assert report.ok == (current is recipe)
                    if vanishing is not None:
                        # it first fails at the (n + 1)-th distinct sample, and then at every one
                        first = samples.index(grid[n])
                        assert first == n + (samples is not grid)
                        assert [bad.sample for bad in expected] == samples[first:]
                        assert {bad.map_index for bad in expected} == {vanishing}
                        late_failures += 1
        assert late_failures == 2 * 12

    def test_stops_where_the_distinct_samples_prove_a_map(self, monkeypatch):
        # n = 3: samples[:6] hold the first four distinct values, so each intact map stops there
        recipe = _tiling_recipe(3, 0, 1, Fraction(1, 10))
        samples = [Fraction(k, 99) for k in (0, 0, 1, 1, 2, 3, *range(4, 99))]
        products = []
        monkeypatch.setattr(affine, "operator",
                            SimpleNamespace(mul=lambda a, b: products.append(1) or a * b))
        report = verify_moment_invariance(recipe, samples)
        assert report.ok and report.checks == len(samples) * len(recipe.ifs)
        # one evaluation multiplies the n + 1 entries of each of the n rows
        assert len(products) == 6 * len(recipe.ifs) * 3 * 4


@pytest.fixture
def certified_calls(monkeypatch):
    """The cleared rows of each map certified, by the IFS readers and by build_moment_ifs."""
    calls = []
    original = affine.certify_admissible

    def counted(f, where="map"):
        calls.append(f._rows)
        return original(f, where)

    monkeypatch.setattr(affine, "certify_admissible", counted)
    return calls


@pytest.fixture
def norm_calls(monkeypatch):
    """The float matrices, as lists, whose spectral norm the contraction test takes."""
    calls = []
    original = np.linalg.norm

    def counted(matrix, *args, **kwargs):
        calls.append(np.asarray(matrix).tolist())
        return original(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted)
    return calls


def _built_document(n, c, d, ratio, anchors):
    """A recipe document of the construction's maps, written without building an IFS."""
    lines = [_line(ratio, t - ratio * c) for t in anchors]
    return {
        "dim": n,
        "maps": [_rows_to_jsonable(_plain_map(n, line)._rows) for line in lines],
        "meta": {"n": n, "c": str(c), "d": str(d), "lambda": str(ratio),
                 "anchors": [str(t) for t in anchors]},
    }


class TestBuiltCertificate:
    def test_built_rows_certificate_equals_is_contractive(self):
        routes = set()
        for n in (2, 3, 4, 5):
            for c in (Fraction(0), Fraction(-1), Fraction(-1, 2)):
                spec = MomentCurveSpec(n, c, c + 1)
                for ratio in (Fraction(1, 2), Fraction(1, 5), Fraction(1, 13), lambda_bound(spec)):
                    for anchor in (c + Fraction(k, 8) for k in range(9)):
                        line = _line(ratio, anchor - ratio * c)
                        f = _plain_map(n, line)
                        certificate = is_contractive(f)
                        routes.add((certificate.route, certificate.contractive))
                        rows = list(moment._moment_rows(n, line))
                        if certificate:
                            assert certify_admissible(_row_map(rows), "map 3") == certificate
                        else:
                            with pytest.raises(ValueError, match="^map 3 is not strictly contractive$"):
                                certify_admissible(_row_map(rows), "map 3")
        assert routes == {("row-sum-bound", True), ("spectral-norm", True), ("spectral-norm", False)}

    def test_built_and_read_maps_are_certified_on_their_rows(self, certified_calls,
                                                            determinant_calls):
        built = []
        for n, c in [(2, 0), (2, -1), (2, Fraction(-1, 2)), (3, 0), (3, -1), (3, Fraction(-1, 2)),
                     (4, 0)]:
            spec = MomentCurveSpec(n, Fraction(c), Fraction(c) + 1)
            ratio = lambda_bound(spec)
            built.append(build_moment_ifs(spec, ratio, choose_anchors(spec, ratio)))
        # each map is certified once, on the rows it is kept as, and none asks determinant
        assert certified_calls == [rows for recipe in built for rows in recipe.ifs._rows]
        documents = [recipe_to_jsonable(recipe) for recipe in _seeded_recipes()]
        certified_calls.clear()
        read = [read_recipe(data) for data in documents]
        assert certified_calls == [rows for recipe in read for rows in recipe.ifs._rows]
        assert determinant_calls == []
        assert {recipe.spec.dim for recipe in read} == {2, 3, 4, 5}
        for recipe in built + read:
            assert recipe.ifs.certificates == tuple(map(is_contractive, recipe.ifs.maps))

    def test_above_lambda_bound_the_spectral_route_decides(self, norm_calls, determinant_calls):
        # n = 2, λ = 1/2, anchors 0 and 1/2: map 1 has row sums 1/2 and 3/4, so n·s² = 9/8
        recipe = _tiling_recipe(2, 0, 1, Fraction(1, 2))
        assert recipe.anchors == (0, Fraction(1, 2))
        assert 2 * max(sum(map(abs, row)) for row in recipe.ifs.maps[1].matrix) ** 2 == Fraction(9, 8)
        norm_calls.clear()
        determinant_calls.clear()
        read = read_recipe(recipe_to_jsonable(recipe))
        # only map 1 leaves the row sums for the spectral norm
        assert norm_calls == [[[float(x) for x in row] for row in recipe.ifs.maps[1].matrix]]
        assert determinant_calls == []
        assert read.ifs.certificates == recipe.ifs.certificates
        assert [c.route for c in read.ifs.certificates] == ["row-sum-bound", "spectral-norm"]
        assert read.ratio > lambda_bound(read.spec)
        assert verify_moment_invariance(read, ()).ok

    def test_not_contractive_built_map_keeps_its_error(self, certified_calls):
        # on [0, 4] at λ = 1/2, map 1 (anchor 2) has matrix [[1/2, 0], [2, 1/4]]
        data = _built_document(2, Fraction(0), Fraction(4), Fraction(1, 2),
                               [Fraction(0), Fraction(2)])
        with pytest.raises(ValueError) as parsed:
            ifs_from_jsonable(copy.deepcopy(data))
        certified_calls.clear()
        with pytest.raises(ValueError) as read:
            read_recipe(data)
        assert str(read.value) == str(parsed.value) == "map 1 is not strictly contractive"
        # map 0 passes, and map 1 is refused on its first certification
        assert len(certified_calls) == 2

    @pytest.mark.parametrize("fault, message", [
        ("malformed-map-2", "map 2 matrix must be square"),
        ("singular-map-0", "map 0 is not invertible"),
    ])
    def test_every_entry_is_read_before_any_map_is_certified(self, fault, message):
        # map 1 is built but not contractive (see above); the other fault is still named first
        data = _built_document(2, Fraction(0), Fraction(4), Fraction(1, 2),
                               [Fraction(0), Fraction(2), Fraction(2)])
        if fault == "malformed-map-2":
            data["maps"][2]["matrix"] = [[]]
        else:
            data["maps"][0]["matrix"] = [["0", "0"], ["0", "0"]]
        with pytest.raises(ValueError, match=message):
            read_recipe(data)

    @pytest.mark.parametrize("kind", ["above-diagonal", "below-diagonal", "translation",
                                      "non-canonical", "integer"])
    def test_differing_map_is_certified_once(self, kind, determinant_calls, certified_calls):
        recipe = TestRecipeReader._half_recipe()
        data = recipe_to_jsonable(recipe)
        entry = data["maps"][5]
        if kind == "above-diagonal":
            entry["matrix"][0][2] = "1/997"
        elif kind == "below-diagonal":
            entry["matrix"][2][0] = "1/997"
        elif kind == "translation":
            entry["translation"][1] = "1/997"
        elif kind == "non-canonical":
            entry["translation"][0] = "2/4"
        else:
            entry["matrix"][0][1] = 0
        determinant_calls.clear()
        certified_calls.clear()
        read = read_recipe(data)
        # a lower-triangular map, built or tampered below the diagonal, is kept from determinant
        assert determinant_calls == ([[row[1:] for row, _ in _reference_rows(read.ifs.maps[5])]]
                                     if kind == "above-diagonal" else [])
        assert certified_calls == read.ifs._rows
        assert certified_calls[5] == _reference_rows(read.ifs.maps[5])
        assert read.ifs.certificates == tuple(map(is_contractive, read.ifs.maps))


def _row_recipes():
    """Recipes on integer rows, with the plain Fraction maps of the same construction.

    n = 2..6 on intervals with c = 0 and c < 0: ten maps at λ = 1/10, read by
    read_recipe, and build_moment_ifs at half the admissible ratio for n = 2, 3.
    """
    for n in range(2, 7):
        for c, width in [(Fraction(0), Fraction(1, 2)), (Fraction(-1, 2), Fraction(1, 2)),
                         (Fraction(-1, 3), Fraction(1, 4))]:
            ratio = Fraction(1, 10)
            anchors = [c + i * width * (1 - ratio) / 9 for i in range(10)]
            yield read_recipe(_built_document(n, c, c + width, ratio, anchors)), [
                _plain_map(n, _line(ratio, t - ratio * c)) for t in anchors]
    for spec in [MomentCurveSpec(2, Fraction(-1, 2), Fraction(1, 2)),
                 MomentCurveSpec(3, Fraction(-1, 4), Fraction(1, 4))]:
        ratio = lambda_bound(spec) / 2
        recipe = build_moment_ifs(spec, ratio, choose_anchors(spec, ratio))
        yield recipe, [_plain_map(spec.dim, _line(ratio, t - ratio * spec.c)) for t in recipe.anchors]


def _float_rows(recipe):
    """chaos_game's float matrices, translations and start, the fixed point of map 0, from the rows."""
    floats = [_float_map(rows) for rows in recipe.ifs._rows]
    start = _float_array(fixed_point(recipe.ifs.maps[0]))
    return [m for m, _ in floats], [t for _, t in floats], start


def _bits(array):
    """The array's dtype, shape and bytes: equal only when every float is, signed zeros included."""
    return array.dtype, array.shape, array.tobytes()


class TestIntegerRows:
    """Each consumer of the integer rows against the plain Fraction maps."""

    def test_float_rows_equal_the_fraction_floats(self):
        dims = set()
        for recipe, maps in _row_recipes():
            matrices, translations, start = _float_rows(recipe)
            assert [_bits(m) for m in matrices] == [_bits(_float_array(f.matrix)) for f in maps]
            assert [_bits(t) for t in translations] == [
                _bits(_float_array(f.translation)) for f in maps]
            assert _bits(start) == _bits(_float_array(fixed_point(maps[0])))
            dims.add(recipe.spec.dim)
        assert dims == {2, 3, 4, 5, 6}

    def test_written_strings_are_format_rational(self):
        for recipe, maps in _row_recipes():
            assert recipe_to_jsonable(recipe)["maps"] == [_rows_to_jsonable(f._rows) for f in maps]
            assert recipe.ifs.maps == tuple(maps)

    def test_built_rows_are_the_cleared_rows(self):
        # recipes compare their rows, so a built map's rows must be the Fraction map's cleared rows
        for n in range(2, 7):
            for c in (Fraction(0), Fraction(-1, 2), Fraction(-1, 3)):
                for ratio in (Fraction(1, 10), Fraction(2, 9)):
                    for anchor in (c + Fraction(k, 6) for k in range(4)):
                        line = _line(ratio, anchor - ratio * c)
                        assert list(moment._moment_rows(n, line)) == _reference_rows(_plain_map(n, line))

    def test_recipes_are_equal_when_their_maps_are(self, determinant_calls, monkeypatch):
        spec, ratio = unit_spec(2), Fraction(1, 25)
        recipe = build_moment_ifs(spec, ratio, choose_anchors(spec, ratio))
        data = recipe_to_jsonable(recipe)
        entry = data["maps"][2]

        def doubled(text):  # the same value, not in lowest terms
            x = Fraction(text)
            return f"{2 * x.numerator}/{2 * x.denominator}"

        entry["translation"] = [*map(doubled, entry["translation"])]
        entry["matrix"] = [[*map(doubled, row)] for row in entry["matrix"]]
        assert entry["translation"][0] == "4/50"
        parsed = []
        original = moment._map_rows
        monkeypatch.setattr(moment, "_map_rows",
                            lambda entry, n, where: parsed.append(where) or original(entry, n, where))
        determinant_calls.clear()
        read = read_recipe(copy.deepcopy(data))
        assert parsed == ["map 2"]  # map 2 was parsed, not taken as built
        assert determinant_calls == []  # and, lower-triangular, certified without determinant
        assert read == recipe
        assert hash(read) == hash(recipe)
        assert len({recipe, read}) == 1
        entry["translation"][0] = "1/997"
        tampered = read_recipe(data)
        assert tampered != recipe
        assert len({recipe, tampered}) == 2

    def test_building_reading_and_sampling_make_no_fraction_of_a_map(self, monkeypatch):
        made = []
        original = AffineMap.__init__
        monkeypatch.setattr(AffineMap, "__init__",
                            lambda f, *args: made.append(f) or original(f, *args))
        spec, ratio = unit_spec(2), Fraction(1, 25)
        recipe = build_moment_ifs(spec, ratio, choose_anchors(spec, ratio))
        read = read_recipe(recipe_to_jsonable(recipe))
        assert verify_moment_invariance(read, [Fraction(1, 2)]).ok
        chaos_game(read.ifs, 10, 0, 0)
        # every map is made from its rows, and none has made its Fraction matrix or translation
        assert made == []
        assert not any({"matrix", "translation"} & vars(f).keys()
                       for f in recipe.ifs.maps + read.ifs.maps)
        assert read.ifs.maps == recipe.ifs.maps
        assert read.ifs.certificates == recipe.ifs.certificates

    def test_texts_of_single_entries(self):
        rng = random.Random(3)
        for _ in range(2000):
            x, scale = rng.randint(-10**6, 10**6) * rng.choice([0, 1, 7, 12]), rng.randint(1, 10**4)
            assert affine._texts([x], scale) == [format_rational(Fraction(x, scale))]

    def test_seeded_chaos_equals_the_fraction_path(self):
        for seed, (recipe, maps) in enumerate(_row_recipes()):
            cloud = chaos_game(recipe.ifs, 700, 100, seed)
            reference = chaos_game(IteratedFunctionSystem(tuple(maps)), 700, 100, seed)
            assert cloud.dim == reference.dim == recipe.spec.dim
            assert _bits(cloud.points) == _bits(reference.points)

    @pytest.mark.parametrize("kind", ["above-diagonal", "translation", "map-0"])
    def test_a_stored_map_is_sampled_as_stored(self, kind):
        recipe = TestRecipeReader._half_recipe()
        data = recipe_to_jsonable(recipe)
        index = 0 if kind == "map-0" else 5
        entry = data["maps"][index]
        if kind == "above-diagonal":
            entry["matrix"][0][2] = "1/997"
        elif kind == "translation":
            entry["translation"][1] = "1/997"
        else:
            entry["matrix"][1][0] = "1/50"
        read = read_recipe(copy.deepcopy(data))
        parsed = ifs_from_jsonable(data)
        assert read.ifs.maps[index] != recipe.ifs.maps[index]
        assert _bits(chaos_game(read.ifs, 500, 50, 9).points) == _bits(
            chaos_game(parsed, 500, 50, 9).points)
        # the start point of a stored map 0 is its own fixed point
        assert _bits(_float_rows(read)[2]) == _bits(_float_array(fixed_point(parsed.maps[0])))

    def test_subnormal_entries_round_as_the_fractions_do(self):
        # on [0, 10⁻³¹⁰] the anchors are subnormal floats and their squares round to zero
        d = Fraction(1, 10**310)
        data = _built_document(2, Fraction(0), d, Fraction(1, 2), [Fraction(0), d / 2])
        read, maps = read_recipe(data), [_plain_map(2, _line(Fraction(1, 2), t)) for t in (0, d / 2)]
        translations = _float_rows(read)[1]
        assert [_bits(t) for t in translations] == [_bits(_float_array(f.translation)) for f in maps]
        assert 0 < translations[1][0] < 2.3e-308 and translations[1][1] == 0

    def test_stored_entry_beyond_float_range_keeps_its_error(self):
        # a translation entry does not touch the certificate, so the file reads
        data = recipe_to_jsonable(TestRecipeReader._half_recipe())
        data["maps"][3]["translation"][0] = "1" + "0" * 400
        read = read_recipe(data)
        with pytest.raises(ValueError, match="an entry lies beyond the float range"):
            chaos_game(read.ifs, 10, 1, 0)
