"""Command-line interface: subcommand behaviors, exit codes, determinism."""

import argparse
import contextlib
import dataclasses
import gc
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from selfaffine import affine, classifier, cli, moment, paraboloid, polynomials, pullback, series
from selfaffine.cli import main
from selfaffine.moment import InvarianceReport

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_traced(capsys, *argv):
    """run(), with the peak of the memory Python allocated meanwhile."""
    tracemalloc.start()
    try:
        result = run(capsys, *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture
def certified_calls(monkeypatch):
    """The cleared rows of each map certify_admissible takes, wherever the package has it bound."""
    calls = []
    original = affine.certify_admissible

    def counted(f, where="map"):
        calls.append(f._rows)
        return original(f, where)

    for name, module in list(sys.modules.items()):
        if name.startswith("selfaffine") and getattr(module, "certify_admissible", None) is original:
            monkeypatch.setattr(module, "certify_admissible", counted)
    return calls


@pytest.fixture
def determinant_calls(monkeypatch):
    """The matrices passed to determinant, wherever the package has it bound."""
    calls = []
    original = affine.determinant

    def counted(matrix):
        calls.append(matrix)
        return original(matrix)

    for name, module in list(sys.modules.items()):
        if name.startswith("selfaffine") and getattr(module, "determinant", None) is original:
            monkeypatch.setattr(module, "determinant", counted)
    return calls


@pytest.fixture
def moment_file(tmp_path, capsys):
    path = tmp_path / "moment.json"
    code = main(["build-moment", "--dim", "2", "--c", "0", "--d", "1",
                 "--lambda", "1/25", "--output", str(path)])
    capsys.readouterr()
    assert code == 0
    return path


@pytest.fixture(scope="module")
def thousand_map_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("verify") / "moment.json"
    assert main(["build-moment", "--dim", "2", "--c", "0", "--d", "1",
                 "--lambda", "1/1000", "--output", str(path)]) == 0
    return path


@pytest.fixture
def far_map_file(tmp_path):
    """A contractive one-map IFS whose translation 10^400 is beyond the float range."""
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"dim": 2, "maps": [{
        "matrix": [["1/2", "0"], ["0", "1/2"]],
        "translation": ["1" + "0" * 400, "0"],
    }]}))
    return path


@pytest.fixture
def circle_file(tmp_path):
    path = tmp_path / "circle.txt"
    path.write_text("x1^2 + x2^2 - 1\n")
    return path


@pytest.fixture
def half_map_file(tmp_path):
    path = tmp_path / "half.json"
    path.write_text(json.dumps({
        "matrix": [["1/2", "0"], ["0", "1/2"]],
        "translation": ["0", "0"],
    }))
    return path


class TestBuildMoment:
    def test_writes_ifs_json_and_report(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        code, out, err = run(capsys, "build-moment", "--dim", "2", "--c", "0",
                             "--d", "1", "--lambda", "1/25", "--output", str(path))
        assert code == 0
        data = json.loads(path.read_text())
        assert data["dim"] == 2
        assert len(data["maps"]) == 25
        assert data["meta"]["lambda"] == "1/25"
        assert "[row-sum-bound]" in out
        assert "[interval-tiling]" in out

    def test_default_ratio_from_bound(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        code, out, err = run(capsys, "build-moment", "--dim", "2", "--c", "0",
                             "--d", "1", "--output", str(path))
        assert code == 0
        assert "[lambda-bound]" in out

    def test_json_to_stdout_report_to_stderr(self, capsys):
        code, out, err = run(capsys, "build-moment", "--dim", "2", "--c", "0",
                             "--d", "1", "--lambda", "1/25")
        assert code == 0
        assert json.loads(out)["dim"] == 2
        assert "[row-sum-bound]" in err

    def test_inadmissible_ratio_is_input_error(self, capsys):
        code, out, err = run(capsys, "build-moment", "--dim", "2", "--c", "0",
                             "--d", "1", "--lambda", "1/2")
        assert code == 2
        assert "error" in json.loads(err.strip().splitlines()[-1])

    @pytest.mark.parametrize("argv", [
        ("--dim", "10", "--c", "0", "--d", "1"),
        ("--dim", "2", "--c", "0", "--d", "1", "--lambda", "1/1000000000000"),
        # ceil(1/lambda) has thousands of digits, beyond int-to-str conversion at n = 8000
        ("--dim", "5000", "--c", "0", "--d", "1"),
        ("--dim", "8000", "--c", "0", "--d", "1"),
    ])
    def test_map_count_guard_before_building(self, argv, capsys):
        (code, out, err), peak = run_traced(capsys, "build-moment", *argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "above the guard 50000" in json.loads(err)["error"]
        assert len(err) < 100
        assert peak < 1_000_000

    @pytest.mark.parametrize("argv", [
        ("--dim", "14", "--c", "0", "--d", "1"),
        ("--dim", "1000000000", "--c", "0", "--d", "1"),
        ("--dim", "20", "--c", "0", "--d", "1/1000", "--lambda", "1/100000000"),
        ("--dim", "14", "--c", "0", "--d", "1", "--lambda", "1/2", "--anchors", "0,1/2"),
    ])
    def test_dimension_guard_before_lambda_bound(self, argv, capsys, monkeypatch):
        # every n ≥ 14 needs more than 50,000 maps, so lambda_bound's n-th powers never run
        def refused(value):
            raise AssertionError("lambda_bound took a square root")

        monkeypatch.setattr(moment, "sqrt_upper_bound", refused)
        start = time.perf_counter()
        code, out, err = run(capsys, "build-moment", *argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "the map count ceil(1/lambda) is above the guard 50000"
        }

    def test_empty_anchor_list_is_input_error(self, capsys):
        code, out, err = run(capsys, "build-moment", "--dim", "2", "--c", "0", "--d", "1",
                             "--anchors", ",")
        assert code == 2
        assert out == ""
        assert json.loads(err) == {"error": "an iterated function system needs at least one map"}

    def test_unparsable_anchor_is_input_error(self, capsys):
        code, out, err = run(capsys, "build-moment", "--dim", "2", "--c", "0", "--d", "1",
                             "--anchors", "0,1/x")
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "--anchors: not a rational 'p/q' or integer string: '1/x'"
        }

    def test_float_ratio_rejected(self, capsys):
        code, _, err = run(capsys, "build-moment", "--dim", "2", "--c", "0",
                           "--d", "1", "--lambda", "0.04")
        assert code == 2

    def test_byte_identical_reruns(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path in (a, b):
            assert main(["build-moment", "--dim", "3", "--c=-1/2", "--d", "1/2",
                         "--lambda", "1/600", "--output", str(path)]) == 0
            capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()


    def test_output_matches_stored_recipe(self, tmp_path, capsys):
        # written by the earlier Fraction-by-Fraction construction
        path = tmp_path / "out.json"
        assert main(["build-moment", "--dim", "3", "--c=-1/4", "--d", "1/4",
                     "--lambda", "2/95", "--output", str(path)]) == 0
        capsys.readouterr()
        assert path.read_bytes() == (DATA / "build_moment_dim3.json").read_bytes()

    def test_certifies_each_map_once(self, certified_calls, capsys, monkeypatch):
        # each built map is certified once on its integer rows, equal to is_contractive's
        recipes = []
        original = cli.build_moment_ifs
        monkeypatch.setattr(cli, "build_moment_ifs",
                            lambda *args: recipes.append(original(*args)) or recipes[-1])
        code, out, _ = run(capsys, "build-moment", "--dim", "2", "--c", "0",
                           "--d", "1", "--lambda", "1/25")
        assert code == 0
        assert len(json.loads(out)["maps"]) == 25
        [recipe] = recipes
        assert certified_calls == recipe.ifs._rows
        assert len(recipe.ifs.certificates) == 25
        for f, certificate in zip(recipe.ifs.maps, recipe.ifs.certificates):
            assert certificate == affine.is_contractive(f)


class TestParaboloid:
    def test_build_and_report(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        code, out, err = run(capsys, "paraboloid", "--dim", "3", "--c", "0",
                             "--d", "1", "--base", "1/2:0,1/2:1/2",
                             "--output", str(path))
        assert code == 0
        data = json.loads(path.read_text())
        assert data["dim"] == 3
        assert data["meta"]["surface"] == "paraboloid"
        assert "[paraboloid-conjugation]" in out
        # the lift of x/2 + 1/2 has the row (1/2, 1/2, 1/4), too large a sum for the exact route
        assert out.splitlines()[2] == ("[row-sum-bound] 1/2 maps certified by the exact row-sum "
                                       "route; all norms < 1 (worst bound 0.890388)")

    def test_certifies_each_map_once(self, certified_calls, capsys):
        code, _, _ = run(capsys, "paraboloid", "--dim", "3", "--c", "0",
                         "--d", "1", "--base", "1/2:0,1/2:1/2")
        assert code == 0
        assert len(certified_calls) == 2

    def test_dimension_above_cap_refused_before_any_map(self, monkeypatch, capsys):
        def refused(dim, c, d):
            raise AssertionError(f"a map of dimension {dim} was built")

        monkeypatch.setattr(paraboloid, "_build_map", refused)
        code, out, err = run(capsys, "paraboloid", "--dim", "100000", "--c", "0",
                             "--d", "1", "--base", "1/2:0,1/2:1/2")
        assert (code, out) == (2, "")
        assert err == '{"error": "dimension 100000 is above the cap 256"}\n'

    @pytest.mark.parametrize("base, message", [
        ("1/2", "--base expects comma-separated c:d pairs, e.g. 1/2:0,1/2:1/2"),
        (",,", "--base needs at least one c:d pair"),
    ], ids=["no-colon", "no-pair"])
    def test_malformed_base_is_input_error(self, base, message, capsys):
        code, out, err = run(capsys, "paraboloid", "--dim", "3", "--c", "0", "--d", "1",
                             f"--base={base}")
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": message}

    def test_empty_base_pieces_are_skipped(self, tmp_path, capsys):
        written = []
        for name, base in (("plain", "1/2:0,1/2:1/2"), ("gap", "1/2:0,,1/2:1/2")):
            path = tmp_path / f"{name}.json"
            code, out, err = run(capsys, "paraboloid", "--dim", "3", "--c", "0", "--d", "1",
                                 "--base", base, "--output", str(path))
            assert code == 0
            written.append((path.read_bytes(), out, err))
        assert written[0] == written[1]

    def test_bad_base_tiling_is_input_error(self, capsys):
        code, _, err = run(capsys, "paraboloid", "--dim", "3", "--c", "0",
                           "--d", "1", "--base", "1/2:0,1/4:3/4")
        assert code == 2

    @pytest.mark.parametrize("dim, count", [(256, 17), (64, 257)])
    def test_entries_above_guard_refused_before_any_map(self, dim, count, monkeypatch, capsys):
        def refused(dim, c, d):
            raise AssertionError(f"a map of dimension {dim} was built")

        monkeypatch.setattr(paraboloid, "_build_map", refused)
        base = ",".join(f"1/{count}:{k}/{count}" for k in range(count))
        (code, out, err), peak = run_traced(capsys, "paraboloid", "--dim", str(dim), "--c", "0",
                                            "--d", "1", "--base", base)
        assert (code, out) == (2, "")
        assert peak < 1_000_000
        assert json.loads(err) == {"error": f"{count} maps of dimension {dim} are above the "
                                            f"guard of {2**20} matrix entries"}


class TestBuiltWriter:
    """build-moment and paraboloid write json.dumps(document, indent=2) + "\n", in blocks of maps."""

    @staticmethod
    def written(capsys, tmp_path, target, *argv):
        path = tmp_path / "built.json"
        code, out, _ = run(capsys, *argv, *(["--output", str(path)] if target == "file" else []))
        assert code == 0
        return path.read_bytes().decode("utf-8") if target == "file" else out

    # one block of 1,024 maps less one, exactly one, one and a map, and two and a map
    @pytest.mark.parametrize("count", [1023, 1024, 1025, 2049])
    @pytest.mark.parametrize("target", ["file", "stdout"])
    def test_moment_equals_the_whole_document_dump(self, count, target, tmp_path, capsys):
        spec = moment.MomentCurveSpec(2, Fraction(0), Fraction(1))
        ratio = Fraction(1, count)
        recipe = moment.build_moment_ifs(spec, ratio, moment.choose_anchors(spec, ratio))
        assert len(recipe.anchors) == count
        text = self.written(capsys, tmp_path, target, "build-moment", "--dim", "2", "--c", "0",
                            "--d", "1", "--lambda", f"1/{count}")
        assert text == json.dumps(moment.recipe_to_jsonable(recipe), indent=2) + "\n"

    @pytest.mark.parametrize("dim, count", [(3, 2), (5, 4), (2, 1025)])
    @pytest.mark.parametrize("target", ["file", "stdout"])
    def test_paraboloid_equals_the_whole_document_dump(self, dim, count, target, tmp_path, capsys):
        base = [(Fraction(1, count), Fraction(k, count)) for k in range(count)]
        ifs = paraboloid.build_paraboloid_ifs(
            paraboloid.ParaboloidSpec(dim, Fraction(0), Fraction(1), tuple(base)))
        data = {"dim": dim, "maps": [affine._rows_to_jsonable(rows) for rows in ifs._rows]}
        data["meta"] = {"surface": "paraboloid", "a": "0", "b": "1",
                        "base": [[str(c), str(d)] for c, d in base]}
        text = self.written(capsys, tmp_path, target, "paraboloid", "--dim", str(dim), "--c", "0",
                            "--d", "1", "--base", ",".join(f"{c}:{d}" for c, d in base))
        assert text == json.dumps(data, indent=2) + "\n"

    def test_memory_beyond_the_text_is_bounded(self, monkeypatch):
        # the 1,025 maps of n = 4, built before tracing: the whole document's dict and its
        # json.dumps text peaked 5.8 MB above the 1.1 MB text; blocks of maps, 3.3 MB
        spec = moment.MomentCurveSpec(4, Fraction(0), Fraction(1))
        ratio = moment.lambda_bound(spec) / 2
        recipe = moment.build_moment_ifs(spec, ratio, moment.choose_anchors(spec, ratio))
        assert len(recipe.anchors) == 1025
        monkeypatch.setattr(cli, "build_moment_ifs", lambda *args: recipe)
        out = io.StringIO()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                assert main(["build-moment", "--dim", "4", "--c", "0", "--d", "1"]) == 0
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.getvalue() == json.dumps(moment.recipe_to_jsonable(recipe), indent=2) + "\n"
        assert peak - held < 4_500_000


class TestChaosAndRender:
    def test_chaos_csv_shape(self, moment_file, tmp_path, capsys):
        out_csv = tmp_path / "pts.csv"
        code, _, _ = run(capsys, "chaos", str(moment_file), "--points", "200",
                         "--seed", "9", "--output", str(out_csv))
        assert code == 0
        lines = out_csv.read_text().strip().splitlines()
        assert len(lines) == 200
        assert all(len(line.split(",")) == 2 for line in lines)

    def test_chaos_deterministic(self, moment_file, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            assert main(["chaos", str(moment_file), "--points", "150",
                         "--seed", "4", "--output", str(path)]) == 0
            capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_chaos_seed_changes_output(self, moment_file, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["chaos", str(moment_file), "--points", "150", "--seed", "1",
                     "--output", str(a)]) == 0
        assert main(["chaos", str(moment_file), "--points", "150", "--seed", "2",
                     "--output", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() != b.read_bytes()

    def test_render_svg(self, moment_file, tmp_path, capsys):
        out_svg = tmp_path / "pic.svg"
        code, _, _ = run(capsys, "render", str(moment_file), "--points", "100",
                         "--output", str(out_svg))
        assert code == 0
        text = out_svg.read_text()
        assert text.startswith("<svg")
        assert text.count("<circle") == 100

    def test_render_projection_out_of_range(self, moment_file, monkeypatch, capsys):
        def refused(*args):
            raise AssertionError("chaos_game ran")

        # the projection is checked against the system before the game runs
        monkeypatch.setattr(cli, "chaos_game", refused)
        for project, message in [(("0", "5"), "projection indices out of range"),
                                 (("1", "1"), "projection indices must differ")]:
            code, out, err = run(capsys, "render", str(moment_file), "--points", "2000000",
                                 "--project", *project)
            assert (code, out) == (2, "")
            assert json.loads(err) == {"error": message}

    @pytest.mark.parametrize("command", ["chaos", "render"])
    def test_points_above_cap_rejected_before_sampling(self, moment_file, command, capsys):
        code, out, err = run(capsys, command, str(moment_file), "--points", "1000000000000")
        assert code == 2
        assert out == ""
        assert "error" in json.loads(err.strip().splitlines()[-1])

    @pytest.mark.parametrize("command", ["chaos", "render", "compactness-demo"])
    def test_entry_beyond_float_range_is_input_error(
        self, far_map_file, circle_file, command, capsys
    ):
        inputs = [str(circle_file)] if command == "compactness-demo" else []
        code, out, err = run(capsys, command, *inputs, str(far_map_file))
        assert code == 2
        assert out == ""
        assert "float range" in json.loads(err.strip().splitlines()[-1])["error"]

    @pytest.mark.parametrize("command", ["chaos", "render"])
    @pytest.mark.parametrize("options, message", [
        (["--points", "0"], "--points must be positive"),
        (["--points", "-3", "--burn-in", "-1"], "--points must be positive"),
        (["--burn-in", "-1"], "--burn-in must be nonnegative"),
        (["--points", "20000000"], "20000100 iterations exceed the guard 10000000"),
        (["--points", "9999900", "--burn-in", "101"],
         "10000001 iterations exceed the guard 10000000"),
        (["--seed", "-1"], "--seed must be a nonnegative integer"),
    ])
    def test_sampling_options_checked_before_loading(
        self, command, options, message, monkeypatch, capsys
    ):
        def refused(path):
            raise AssertionError(f"{path} was loaded")

        monkeypatch.setattr(cli, "_load_json", refused)
        code, out, err = run(capsys, command, "never-read.json", *options)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": message}

    def test_matrix_side_is_checked_against_dim(self, tmp_path, capsys):
        path = tmp_path / "wrong-dim.json"
        path.write_text(json.dumps({"dim": 3, "maps": [{
            "matrix": [["1/2", "0"], ["0", "1/2"]], "translation": ["0", "0"]}]}))
        code, out, err = run(capsys, "chaos", str(path), "--points", "10")
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "map 0: matrix must have 3 rows"}

    @pytest.mark.parametrize("command", ["chaos", "render"])
    def test_floats_above_guard_is_input_error(self, tmp_path, command, capsys):
        # two maps of dimension 100: 9·10⁶ points would fill a 6.7 GiB array
        half = [["1/2" if i == j else "0" for j in range(100)] for i in range(100)]
        wide = tmp_path / "wide.json"
        wide.write_text(json.dumps({"dim": 100, "maps": [
            {"matrix": half, "translation": [shift] * 100} for shift in ("0", "1/2")]}))
        code, out, err = run(capsys, command, str(wide), "--points", "9000000")
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "9000100 iterations in dimension 100 are "
                                            "900010000 floats, above the guard 130000000"}

    def test_missing_file_is_input_error(self, capsys):
        code, _, err = run(capsys, "chaos", "no-such-file.json")
        assert code == 2
        assert "error" in json.loads(err.strip().splitlines()[-1])


class TestVerify:
    def test_intact_recipe_passes(self, moment_file, capsys):
        code, out, _ = run(capsys, "verify", str(moment_file), "--points", "12")
        assert code == 0
        assert "[moment-invariance]" in out
        assert "0 violations" in out

    def test_corrupted_entry_fails_with_counterexample(self, moment_file, capsys):
        data = json.loads(moment_file.read_text())
        data["maps"][3]["translation"][1] = "7/5"
        moment_file.write_text(json.dumps(data))
        code, out, _ = run(capsys, "verify", str(moment_file), "--points", "8")
        assert code == 1
        assert "violations" in out
        assert "map 3" in out

    def test_above_diagonal_entry_fails(self, moment_file, capsys):
        data = json.loads(moment_file.read_text())
        data["maps"][6]["matrix"][0][1] = "1/2"
        moment_file.write_text(json.dumps(data))
        code, out, _ = run(capsys, "verify", str(moment_file), "--points", "8")
        assert code == 1
        assert "0 violations" not in out
        assert "map 6" in out

    @pytest.mark.parametrize("points", ["-5", "0", "1"])
    def test_too_few_points_is_input_error(self, moment_file, points, capsys):
        code, out, err = run(capsys, "verify", str(moment_file), "--points", points)
        assert code == 2
        assert out == ""
        assert "error" in json.loads(err.strip().splitlines()[-1])

    @pytest.mark.parametrize("points, reaches_verifier", [("10000", True), ("10001", False)])
    def test_points_times_maps_capped_before_sampling(
        self, thousand_map_file, points, reaches_verifier, monkeypatch, capsys
    ):
        calls = []

        def verifier(recipe, samples):
            assert reaches_verifier, "a run above the cap reached the verifier"
            calls.append(len(samples))
            return InvarianceReport(len(samples) * len(recipe.ifs), ())

        monkeypatch.setattr(cli, "verify_moment_invariance", verifier)
        code, out, err = run(capsys, "verify", str(thousand_map_file), "--points", points)
        if reaches_verifier:
            assert (code, calls) == (0, [10_000])
            assert "10000000 exact checks" in out
        else:
            assert code == 2
            assert out == ""
            assert "guard" in json.loads(err.strip().splitlines()[-1])["error"]

    def test_non_array_anchors_is_input_error(self, moment_file, capsys):
        data = json.loads(moment_file.read_text())
        data["meta"]["anchors"] = 5
        moment_file.write_text(json.dumps(data))
        code, _, err = run(capsys, "verify", str(moment_file))
        assert code == 2
        assert "error" in json.loads(err.strip().splitlines()[-1])

    def test_missing_meta_is_input_error(self, moment_file, capsys):
        data = json.loads(moment_file.read_text())
        del data["meta"]
        moment_file.write_text(json.dumps(data))
        code, _, err = run(capsys, "verify", str(moment_file))
        assert code == 2

    @pytest.mark.parametrize("field, where", [
        ("c", 'meta "c"'), ("d", 'meta "d"'), ("lambda", 'meta "lambda"'),
        ("anchors", 'meta "anchors"[3]'),
    ])
    def test_malformed_meta_number_names_its_field(self, moment_file, field, where, capsys):
        data = json.loads(moment_file.read_text())
        if field == "anchors":
            data["meta"]["anchors"][3] = [1]
        else:
            data["meta"][field] = [1]
        moment_file.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify", str(moment_file), "--points", "20")
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": f"{where}: not a rational 'p/q' or integer string: [1]"}


def _tamper(entry, kind):
    """Change one stored entry of a 2×2 moment map in the way `kind` names."""
    if kind == "above-diagonal":
        entry["matrix"][0][1] = "1/997"
    elif kind == "below-diagonal":
        entry["matrix"][1][0] = "1/997"
    elif kind == "translation":
        entry["translation"][1] = "1/997"
    elif kind == "non-canonical":
        numerator, denominator = entry["translation"][0].split("/")
        entry["translation"][0] = f"{2 * int(numerator)}/{2 * int(denominator)}"
    elif kind == "integer":
        assert entry["matrix"][0][1] == "0"
        entry["matrix"][0][1] = 0
    else:
        del entry["matrix"][1][-1]


class TestRecipeReading:
    @pytest.mark.parametrize("kind, code", [
        ("above-diagonal", 1), ("below-diagonal", 1), ("translation", 1),
        ("non-canonical", 0), ("integer", 0), ("short-row", 2),
    ])
    def test_tampered_map_is_parsed_and_named(
        self, moment_file, determinant_calls, kind, code, capsys
    ):
        data = json.loads(moment_file.read_text())
        _tamper(data["maps"][6], kind)
        moment_file.write_text(json.dumps(data))
        out_code, out, err = run(capsys, "verify", str(moment_file), "--points", "8")
        assert out_code == code
        # only the tampered map goes through the parser, and only an entry above the
        # diagonal takes it to determinant: the others leave it lower-triangular
        assert len(determinant_calls) == (kind == "above-diagonal")
        if code == 2:
            assert json.loads(err)["error"].startswith("map 6 matrix")
        else:
            named = {line.split(",")[0] for line in out.splitlines() if line.startswith("  map")}
            assert named == ({"  map 6"} if code == 1 else set())

    @pytest.mark.parametrize("kind, named", [
        ("above-diagonal", {4}), ("translation", {4}), ("non-canonical", {4}), ("two-maps", {4, 9}),
    ])
    def test_tampered_file_is_named(self, tmp_path, kind, named, capsys):
        # c < 0; "non-canonical" writes 2/4 over the diagonal entry λ², whose value is not 1/2
        path = tmp_path / "moment3.json"
        assert main(["build-moment", "--dim", "3", "--c=-1/4", "--d", "1/4",
                     "--output", str(path)]) == 0
        data = json.loads(path.read_text())
        entry = data["maps"][4]
        if kind == "above-diagonal":
            entry["matrix"][0][2] = "1/1000"
        elif kind == "translation":
            entry["translation"][2] = "1/997"
        elif kind == "non-canonical":
            entry["matrix"][1][1] = "2/4"
        else:
            entry["matrix"][2][0] = "1/999"
            data["maps"][9]["translation"][0] = "0"
        path.write_text(json.dumps(data))
        capsys.readouterr()
        # verify prints the first five violations, so at most three points show both maps
        for points in ("2", "3", "100"):
            code, out, _ = run(capsys, "verify", str(path), "--points", points)
            shown = {int(line.split(",")[0].split()[1])
                     for line in out.splitlines() if line.startswith("  map ")}
            assert code == 1
            assert shown == (named if points != "100" else {min(named)})

    def test_committed_fixture_verifies(self, capsys):
        code, out, err = run(capsys, "verify", str(DATA / "build_moment_dim3.json"), "--points", "20")
        assert (code, err) == (0, "")
        assert "0 violations" in out

    def test_intact_file_skips_the_determinant(self, moment_file, determinant_calls, capsys):
        for argv in (["verify", str(moment_file)], ["chaos", str(moment_file), "--points", "20"],
                     ["render", str(moment_file), "--points", "20"]):
            assert run(capsys, *argv)[0] == 0
        assert determinant_calls == []

    # maps certified: a rejected meta, read or checked before any map, leaves every
    # map to ifs_from_jsonable alone; lower-triangular, none of them asks determinant
    @pytest.mark.parametrize("meta, certified", [
        ("missing", 25), ("decimal-lambda", 25), ("non-array-anchors", 25),
        ("broken-tiling", 25), ("other-dimension", 25), ("array-c", 25), ("array-anchor", 25),
    ])
    @pytest.mark.parametrize("command", ["chaos", "render"])
    def test_rejected_meta_keeps_the_output(
        self, moment_file, tmp_path, determinant_calls, certified_calls, meta, certified, command,
        capsys
    ):
        expected, actual = tmp_path / "expected", tmp_path / "actual"
        argv = ["--points", "300", "--seed", "5", "--output"]
        assert main([command, str(moment_file), *argv, str(expected)]) == 0
        data = json.loads(moment_file.read_text())
        if meta == "missing":
            del data["meta"]
        elif meta == "decimal-lambda":
            data["meta"]["lambda"] = "0.04"
        elif meta == "non-array-anchors":
            data["meta"]["anchors"] = 5
        elif meta == "broken-tiling":
            data["meta"]["anchors"][3] = "1/1000"
        elif meta == "array-c":
            data["meta"]["c"] = [1]
        elif meta == "array-anchor":
            data["meta"]["anchors"][3] = [1]
        else:
            data["meta"]["n"] = 3
        moment_file.write_text(json.dumps(data))
        certified_calls.clear()
        code, out, err = run(capsys, command, str(moment_file), *argv, str(actual))
        assert (code, out, err) == (0, "", "")
        assert actual.read_bytes() == expected.read_bytes()
        assert len(certified_calls) == certified
        assert determinant_calls == []


class TestScaling:
    def test_absent_constant_exits_one(self, circle_file, half_map_file, capsys):
        code, out, _ = run(capsys, "scaling", str(circle_file), str(half_map_file))
        assert code == 1
        assert "absent" in out

    def test_present_constant_exits_zero(self, tmp_path, half_map_file, capsys):
        poly = tmp_path / "line.txt"
        poly.write_text("x2 - x1")
        code, out, _ = run(capsys, "scaling", str(poly), str(half_map_file))
        assert code == 0
        assert "C = 1/2" in out
        assert "[fixed-point-on-surface]" in out

    def test_rejected_map_prints_nothing(self, tmp_path, capsys):
        # P∘f = 2·P holds for f = 2·I, but f is no contraction: an input error, and no result
        poly = tmp_path / "line.txt"
        poly.write_text("x1 - x2")
        double = tmp_path / "double.json"
        double.write_text(json.dumps({"matrix": [["2", "0"], ["0", "2"]], "translation": ["0", "0"]}))
        code, out, err = run(capsys, "scaling", str(poly), str(double))
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "map is not strictly contractive"}

    @pytest.mark.parametrize("text, code", [("x2 - x1", 0), ("x1^2 + x2^2 - 1", 1)])
    def test_one_expansion_per_run(self, tmp_path, half_map_file, text, code, monkeypatch,
                                   capsys):
        calls = []
        original = polynomials.scaling_constant

        def counted(poly, f):
            calls.append(f)
            return original(poly, f)

        monkeypatch.setattr(polynomials, "scaling_constant", counted)
        poly = tmp_path / "poly.txt"
        poly.write_text(text)
        assert run(capsys, "scaling", str(poly), str(half_map_file))[0] == code
        assert len(calls) == 1

    def test_absent_constant_certifies_nothing(self, tmp_path, circle_file, monkeypatch, capsys):
        # f = 2·I is no contraction, but P∘f is not proportional to P: exit 1, as before
        def refused(f, where="map"):
            raise AssertionError("the map was certified")

        monkeypatch.setattr(polynomials, "certify_admissible", refused)
        double = tmp_path / "double.json"
        double.write_text(json.dumps({"matrix": [["2", "0"], ["0", "2"]], "translation": ["0", "0"]}))
        code, out, _ = run(capsys, "scaling", str(circle_file), str(double))
        assert code == 1
        assert "absent" in out

    @pytest.mark.parametrize("text", ["x1000000000", "x1^1000000 + x2^2 - 1"])
    def test_polynomial_caps_are_input_errors(self, tmp_path, half_map_file, text, capsys):
        poly = tmp_path / "big.txt"
        poly.write_text(text)
        (code, out, err), peak = run_traced(capsys, "scaling", str(poly), str(half_map_file))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "above the cap" in json.loads(err)["error"]
        assert peak < 1_000_000

    def test_map_as_singleton_ifs(self, tmp_path, capsys):
        poly = tmp_path / "line.txt"
        poly.write_text("x2 - x1")
        ifs_style = tmp_path / "map.json"
        ifs_style.write_text(json.dumps({
            "dim": 2,
            "maps": [{"matrix": [["1/2", "0"], ["0", "1/2"]],
                      "translation": ["1/2", "1/2"]}],
        }))
        code, out, _ = run(capsys, "scaling", str(poly), str(ifs_style))
        assert code == 0
        assert "C = 1/2" in out


class TestOneMapFile:
    """scaling, compactness-demo and classify read a one-map IFS file's header as chaos does."""

    ENTRY = {"matrix": [["1/2", "0"], ["0", "1/2"]], "translation": ["0", "0"]}

    def _run(self, tmp_path, circle_file, command, document, capsys):
        map_file = tmp_path / "map.json"
        map_file.write_text(json.dumps(document))
        if command != "classify":
            return run(capsys, command, str(circle_file), str(map_file))
        germ = tmp_path / "germ.json"
        germ.write_text(json.dumps({"t0": "0", "order": 4, "coords": [
            ["0", "1", "0", "0", "0"], ["0", "0", "1", "0", "0"]]}))
        return run(capsys, command, str(germ), str(map_file), "--t1", "1")

    @pytest.mark.parametrize("header, message", [
        ({"dim": True}, '"dim" must be a positive integer'),
        ({"dim": 1.0}, '"dim" must be a positive integer'),
        ({}, '"dim" must be a positive integer'),
        ({"dim": 2, "maps": []}, '"maps" must be a nonempty array'),
        ({"dim": 2, "maps": "x"}, '"maps" must be a nonempty array'),
        ({"dim": 3}, "map: matrix must have 3 rows"),
        ({"dim": 2, "J": [["1", "0"], ["0", "1"]]},
         '{path}: "J" belongs in the map object, not beside "dim"'),
    ])
    @pytest.mark.parametrize("command", ["scaling", "compactness-demo", "classify"])
    def test_header_is_checked(self, tmp_path, circle_file, command, header, message, capsys):
        document = {"maps": [self.ENTRY], **header}
        code, out, err = self._run(tmp_path, circle_file, command, document, capsys)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": message.replace("{path}", str(tmp_path / "map.json"))}

    @pytest.mark.parametrize("command", ["scaling", "compactness-demo", "classify"])
    def test_exactly_one_map(self, tmp_path, circle_file, command, capsys):
        document = {"dim": 2, "maps": [self.ENTRY, self.ENTRY]}
        code, out, err = self._run(tmp_path, circle_file, command, document, capsys)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": f"{tmp_path / 'map.json'}: expected exactly one map"}

    @pytest.mark.parametrize("command", ["scaling", "compactness-demo", "classify"])
    def test_a_valid_header_is_read(self, tmp_path, circle_file, command, capsys):
        code, _, err = self._run(tmp_path, circle_file, command,
                                 {"dim": 2, "maps": [self.ENTRY]}, capsys)
        assert code in (0, 1) and err == ""


class TestClassify:
    def _germ_file(self, tmp_path, rows):
        path = tmp_path / "germ.json"
        order = 16
        coords = []
        for row in rows:
            padded = list(row) + ["0"] * (order + 1 - len(row))
            coords.append(padded)
        path.write_text(json.dumps({"t0": "0", "order": order, "coords": coords}))
        return path

    def test_moment_verdict_exit_zero(self, tmp_path, capsys):
        germ = self._germ_file(tmp_path, [["0", "1"], ["0", "0", "1"]])
        map_file = tmp_path / "m.json"
        map_file.write_text(json.dumps({"matrix": [["1/2", "0"], ["0", "1/4"]]}))
        code, out, _ = run(capsys, "classify", str(germ), str(map_file), "--t1", "1")
        assert code == 0
        assert "affine image of moment curve" in out

    def test_gap_verdict_exit_zero_json_format(self, tmp_path, capsys):
        germ = self._germ_file(tmp_path, [["0", "1"], ["0", "0", "0", "1"]])
        map_file = tmp_path / "m.json"
        map_file.write_text(json.dumps({"matrix": [["1/2", "0"], ["0", "1/8"]]}))
        code, out, _ = run(capsys, "classify", str(germ), str(map_file),
                           "--t1", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "p-curve with exponent gap (not moment)"
        assert payload["exponents"] == [1, 3]

    def test_other_eigenvalue_gives_conjugation_verdict(self, tmp_path, capsys):
        # M maps (t, t^2) to (t/2, t^2/8), which is off the curve
        germ = self._germ_file(tmp_path, [["0", "1"], ["0", "0", "1"]])
        map_file = tmp_path / "m.json"
        map_file.write_text(json.dumps({"matrix": [["1/2", "0"], ["0", "1/8"]]}))
        code, out, _ = run(capsys, "classify", str(germ), str(map_file),
                           "--t1", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "conjugation fails (no diagonal model to order N)"
        assert payload["exponents"] == [1, 2]
        assert "λ_k = 1/8 differs from λ₁^2 = 1/4" in payload["stages"][-1]

    def test_zero_column_of_j_is_refused_by_the_inverse(self, tmp_path, capsys):
        # the first column is a nonzero eigenvector; the zero second column makes J singular
        germ = self._germ_file(tmp_path, [["0", "1"], ["0", "0", "1"]])
        map_file = tmp_path / "m.json"
        map_file.write_text(json.dumps({"matrix": [["1/2", "0"], ["0", "1/4"]],
                                        "J": [["1", "0"], ["0", "0"]]}))
        for form in ("text", "json"):
            code, out, err = run(capsys, "classify", str(germ), str(map_file), "--t1", "1",
                                 "--format", form)
            assert (code, out) == (2, "")
            assert json.loads(err) == {"error": "singular matrix"}

    def test_insufficient_order_is_input_error(self, tmp_path, capsys):
        rows = [["0", "1"], ["0"] * 15 + ["1"]]
        germ = self._germ_file(tmp_path, rows)
        map_file = tmp_path / "m.json"
        map_file.write_text(json.dumps({"matrix": [["1/2", "0"], ["0", "1/4"]]}))
        code, _, err = run(capsys, "classify", str(germ), str(map_file), "--t1", "1")
        assert code == 2

    def test_non_object_map_entry_is_input_error(self, tmp_path, capsys):
        germ = self._germ_file(tmp_path, [["0", "1"], ["0", "0", "1"]])
        map_file = tmp_path / "m.json"
        map_file.write_text(json.dumps({"maps": [5]}))
        code, _, err = run(capsys, "classify", str(germ), str(map_file), "--t1", "1")
        assert code == 2
        assert "error" in json.loads(err.strip().splitlines()[-1])

    def test_order_above_cap_rejected_before_any_reversion(self, tmp_path, monkeypatch, capsys):
        germ = tmp_path / "germ.json"
        germ.write_text(json.dumps({"t0": "0", "order": 10**6, "coords": [["0", "1"]]}))
        map_file = tmp_path / "m.json"
        map_file.write_text(json.dumps({"matrix": [["1/2", "0"], ["0", "1/4"]]}))
        reversions = []
        for module, name in ((series, "series_reverse"), (series, "_reverse_powers"),
                             (classifier, "_reverse_powers")):
            monkeypatch.setattr(module, name, lambda *args: reversions.append(args))
        (code, out, err), peak = run_traced(capsys, "classify", str(germ), str(map_file),
                                            "--t1", "1")
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == '"order" 1000000 is above the cap 64'
        assert reversions == []
        assert peak < 1_000_000

    def test_wrapped_map_object_keeps_its_j(self, tmp_path, capsys):
        # (t, t + t²) has tangent (1, 1), the first column of J and an eigenvector of M
        germ = self._germ_file(tmp_path, [["0", "1"], ["0", "1", "1"]])
        entry = {"matrix": [["1/2", "0"], ["1/4", "1/4"]], "J": [["1", "0"], ["1", "1"]]}
        map_file = tmp_path / "m.json"
        results = []
        for document in (entry, {"dim": 2, "maps": [entry]}):
            map_file.write_text(json.dumps(document))
            results.append(run(capsys, "classify", str(germ), str(map_file), "--t1", "1"))
        assert results[1] == results[0]
        code, out, err = results[0]
        assert (code, err) == (0, "")
        assert out.endswith("verdict: affine image of moment curve, p_k = k\n")

    def test_order_truncates_the_germ(self, tmp_path, capsys):
        # the t⁵ term of (t, t² + t⁵) is past order 4, where the germ is the moment curve
        rows = [["0", "1", "0", "0", "0", "0", "0"], ["0", "0", "1", "0", "0", "1", "0"]]
        full, short = tmp_path / "full.json", tmp_path / "short.json"
        full.write_text(json.dumps({"t0": "0", "order": 6, "coords": rows}))
        short.write_text(json.dumps({"t0": "0", "order": 4, "coords": [r[:5] for r in rows]}))
        map_file = tmp_path / "m.json"
        map_file.write_text(json.dumps({"matrix": [["1/2", "0"], ["0", "1/4"]]}))
        truncated = run(capsys, "classify", str(full), str(map_file), "--t1", "1", "--order", "4")
        assert truncated == run(capsys, "classify", str(short), str(map_file), "--t1", "1")
        assert truncated[0] == 0 and "affine image of moment curve" in truncated[1]
        assert run(capsys, "classify", str(full), str(map_file), "--t1", "1") != truncated
        code, out, err = run(capsys, "classify", str(full), str(map_file), "--t1", "1",
                             "--order", "9")
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "cannot extend a truncated series"}

    @pytest.mark.parametrize("entry, message", [
        ({"matrix": [["1/2", "0"], ["0", "1/4"]],
          "J": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]},
         "J must be 2×2 for a 2-dimensional germ"),
        ({"matrix": [["1/2", "0", "0"], ["0", "1/4", "0"], ["0", "0", "1/8"]]},
         "M must be 2×2 for a 2-dimensional germ"),
        ({"matrix": [["1/2", "0"], ["0", "1/4"]], "J": [["0", "1"], ["0", "0"]]},
         "the first column of J must be nonzero"),
    ])
    def test_shape_refused_by_name(self, tmp_path, entry, message, capsys):
        germ = self._germ_file(tmp_path, [["0", "1"], ["0", "0", "1"]])
        map_file = tmp_path / "m.json"
        map_file.write_text(json.dumps(entry))
        code, out, err = run(capsys, "classify", str(germ), str(map_file), "--t1", "1")
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": message}

    def test_explicit_j_matrix(self, tmp_path, capsys):
        germ = self._germ_file(tmp_path, [["0", "1"], ["0", "0", "1"]])
        map_file = tmp_path / "m.json"
        map_file.write_text(json.dumps({
            "matrix": [["1/2", "0"], ["0", "1/4"]],
            "J": [["1", "0"], ["0", "1"]],
        }))
        code, out, _ = run(capsys, "classify", str(germ), str(map_file), "--t1", "1/4")
        assert code == 0
        assert "affine image of moment curve" in out


class TestCompactnessDemo:
    def test_text_table_and_witness(self, circle_file, half_map_file, capsys):
        code, out, _ = run(capsys, "compactness-demo", str(circle_file),
                           str(half_map_file), "--depth", "8")
        assert code == 0
        assert "[dependency-witness]" in out
        assert "P_2 = (-4)·P_0 + (5)·P_1" in out
        assert "[rank-bound] coefficient rank 2" in out
        assert "cited, not computed" in out

    def test_csv_format(self, circle_file, half_map_file, capsys):
        code, out, _ = run(capsys, "compactness-demo", str(circle_file),
                           str(half_map_file), "--depth", "4", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "j,rank_so_far,sampled_diameter,max_residual"
        assert len([l for l in lines if l and l[0].isdigit()]) == 5

    def test_pullback_coefficients_eliminated_once(self, circle_file, half_map_file,
                                                   monkeypatch, capsys):
        calls = []
        original = pullback.greedy_independent
        monkeypatch.setattr(pullback, "greedy_independent",
                            lambda vectors: calls.append(len(vectors)) or original(vectors))
        code, out, _ = run(capsys, "compactness-demo", str(circle_file),
                           str(half_map_file), "--depth", "12")
        assert code == 0
        assert calls == [13]
        assert "[rank-bound] coefficient rank 2 over 13 pullbacks" in out

    def test_pullback_beyond_float_range_is_input_error(self, tmp_path, circle_file, capsys):
        # the map's entries are floats, but P∘f⁻¹ has coefficients near 10⁴⁰⁰
        far = tmp_path / "far.json"
        far.write_text(json.dumps({
            "matrix": [["1/2", "0"], ["0", "1/2"]],
            "translation": ["1" + "0" * 200, "0"],
        }))
        code, out, err = run(capsys, "compactness-demo", str(circle_file), str(far))
        assert code == 2
        assert out == ""
        assert "float range" in json.loads(err.strip().splitlines()[-1])["error"]

    def test_scale_beyond_float_range_is_input_error(self, tmp_path, circle_file, capsys):
        # P∘f⁻¹ = 10³⁰⁸·(x1² + x2²) − 1: each coefficient is a float, their sum is not
        tiny = tmp_path / "tiny.json"
        tiny.write_text(json.dumps({"matrix": [["1/" + "1" + "0" * 154, "0"],
                                               ["0", "1/" + "1" + "0" * 154]],
                                    "translation": ["0", "0"]}))
        code, out, err = run(capsys, "compactness-demo", str(circle_file), str(tiny),
                             "--depth", "1")
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "an entry lies beyond the float range"}

    def test_points_above_cap_is_input_error(self, circle_file, half_map_file, capsys):
        (code, out, err), peak = run_traced(capsys, "compactness-demo", str(circle_file),
                                            str(half_map_file), "--points", "1000000000")
        assert code == 2
        assert out == ""
        assert "above the cap 10000" in json.loads(err)["error"]
        assert peak < 1_000_000

    def test_dense_map_above_work_guard_is_input_error(self, tmp_path, capsys):
        poly = tmp_path / "high.txt"
        poly.write_text("x1^64 + x2^64 + x3^64 - 1")
        dense = tmp_path / "dense.json"
        dense.write_text(json.dumps({
            "matrix": [["1/3", "1/5", "-1/7"], ["1/7", "-1/4", "1/6"], ["-1/5", "1/8", "1/3"]],
            "translation": ["1/2", "-1/3", "1/5"],
        }))
        start = time.perf_counter()
        (code, out, err), peak = run_traced(capsys, "scaling", str(poly), str(dense))
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert "above the guard" in json.loads(err)["error"]
        assert peak < 1_000_000

    @pytest.mark.parametrize("surface, depth, message", [
        ("x1^2 + x2^2 - 2", "10", "only for the unit circle"),
        ("x1^2 + x2^2 - 1", "101", "101 pullbacks are above the cap 100"),
        ("x1^2 + x2^2 - 1", "-1", "--depth must be nonnegative"),
    ])
    def test_rejected_before_any_pullback(
        self, tmp_path, half_map_file, monkeypatch, surface, depth, message, capsys
    ):
        poly = tmp_path / "surface.txt"
        poly.write_text(surface)
        composed = []
        monkeypatch.setattr(pullback, "compose_affine", lambda *args: composed.append(args))
        (code, out, err), peak = run_traced(capsys, "compactness-demo", str(poly),
                                            str(half_map_file), "--depth", depth)
        assert code == 2
        assert out == ""
        assert message in json.loads(err)["error"]
        assert composed == []
        assert peak < 1_000_000

    @pytest.mark.parametrize("option, value, message", [
        ("--points", "3", "--points must be at least 4"),
        ("--points", "10001", "--points 10001 is above the cap 10000"),
        ("--tolerance", "0", "--tolerance must be positive"),
        ("--tolerance", "-1e-9", "--tolerance must be positive"),
        ("--tolerance", "nan", "--tolerance must be positive"),
    ])
    def test_points_and_tolerance_checked_before_any_read(
        self, tmp_path, monkeypatch, option, value, message, capsys
    ):
        def pullbacks(*args):
            raise AssertionError("a pullback was computed")
        monkeypatch.setattr(cli, "pullback_sequence", pullbacks)
        # neither file exists, so reading either would end in another error
        code, out, err = run(capsys, "compactness-demo", str(tmp_path / "missing.txt"),
                             str(tmp_path / "missing.json"), f"{option}={value}")
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == message

    def test_violations_exit_one_after_the_table(self, circle_file, half_map_file, monkeypatch,
                                                  capsys):
        argv = ("compactness-demo", str(circle_file), str(half_map_file), "--depth", "4")
        code, clean, _ = run(capsys, *argv)
        assert code == 0
        original = cli.diameter_decay_report

        def violating(*args, **kwargs):
            report = original(*args, **kwargs)
            return dataclasses.replace(report, violations=("first broken", "second broken"))

        monkeypatch.setattr(cli, "diameter_decay_report", violating)
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == clean.replace("; 0 violations", "; 2 violations")
        assert err == "  first broken\n  second broken\n"

    def test_non_circle_polynomial_rejected(self, tmp_path, half_map_file, capsys):
        poly = tmp_path / "sphere.txt"
        poly.write_text("x1^2 + x2^2 - 2")
        code, _, err = run(capsys, "compactness-demo", str(poly),
                           str(half_map_file))
        assert code == 2


class TestArgumentErrors:
    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_format_value(self, moment_file, capsys):
        code, _, err = run(capsys, "chaos", str(moment_file), "--format", "svg")
        assert code == 2

    def test_verify_rejects_unsupported_format(self, moment_file, capsys):
        code, out, err = run(capsys, "verify", str(moment_file), "--format", "json")
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "verify supports --format {text}, got 'json'"

    def test_classify_rejects_unsupported_format_first(self, tmp_path, monkeypatch, capsys):
        germ = tmp_path / "germ.json"
        coords = [["0", "1", "0", "0", "0"], ["0", "0", "1", "0", "0"]]
        germ.write_text(json.dumps({"t0": "0", "order": 4, "coords": coords}))
        map_file = tmp_path / "m.json"
        map_file.write_text(json.dumps({"matrix": [["1/2", "0"], ["0", "1/4"]]}))
        calls = []
        monkeypatch.setattr(cli, "classify_curve", lambda *args: calls.append(args))
        code, out, err = run(capsys, "classify", str(germ), str(map_file), "--t1", "1",
                             "--format", "xml")
        assert (code, out, calls) == (2, "", [])
        assert json.loads(err)["error"] == "classify supports --format {text,json}, got 'xml'"

    def test_compactness_demo_rejects_unsupported_format_first(
        self, circle_file, half_map_file, monkeypatch, capsys
    ):
        calls = []
        monkeypatch.setattr(cli, "pullback_sequence", lambda *args: calls.append(args))
        code, out, err = run(capsys, "compactness-demo", str(circle_file), str(half_map_file),
                             "--format", "json")
        assert (code, out, calls) == (2, "", [])
        assert (json.loads(err)["error"]
                == "compactness-demo supports --format {text,csv}, got 'json'")

    @pytest.mark.parametrize("argv, message", [
        (["build-moment", "--dim", "5", "--c", "0", "--d", "1", "--format", "yaml"],
         "build-moment supports --format {json}, got 'yaml'"),
        (["paraboloid", "--dim", "3", "--c", "0", "--d", "1/4", "--base", "1/2:0,1/2:1/8",
          "--format", "yaml"],
         "paraboloid supports --format {json}, got 'yaml'"),
        (["chaos", "system.json", "--format", "svg"], "chaos supports --format {csv}, got 'svg'"),
        (["render", "system.json", "--format", "csv"], "render supports --format {svg}, got 'csv'"),
    ], ids=["build-moment", "paraboloid", "chaos", "render"])
    def test_format_rejected_before_any_work(self, argv, message, monkeypatch, capsys):
        calls = []
        for name in ("build_moment_ifs", "build_paraboloid_ifs", "_load_json"):
            monkeypatch.setattr(cli, name, lambda *args, name=name: calls.append(name))
        code, out, err = run(capsys, *argv)
        assert (code, out, calls) == (2, "", [])
        assert json.loads(err) == {"error": message}

    @pytest.mark.parametrize("argv", [
        ["chaos", "nested.json"],
        ["render", "nested.json"],
        ["verify", "nested.json"],
        ["classify", "nested.json", "map.json", "--t1", "1"],
        ["classify", "germ.json", "nested.json", "--t1", "1"],
        ["scaling", "circle.txt", "nested.json"],
        ["compactness-demo", "circle.txt", "nested.json"],
    ], ids=["chaos", "render", "verify", "classify-germ", "classify-map", "scaling",
            "compactness-demo"])
    def test_deeply_nested_json_is_input_error(self, argv, tmp_path, capsys):
        # json parses nested arrays by recursion, so this file exhausts the recursion limit
        (tmp_path / "nested.json").write_text("[" * 100_000 + "]" * 100_000)
        coords = [["0", "1", "0", "0", "0"], ["0", "0", "1", "0", "0"]]
        (tmp_path / "germ.json").write_text(json.dumps({"t0": "0", "order": 4, "coords": coords}))
        (tmp_path / "map.json").write_text(json.dumps({"matrix": [["1/2", "0"], ["0", "1/4"]]}))
        (tmp_path / "circle.txt").write_text("x1^2 + x2^2 - 1\n")
        paths = [str(tmp_path / a) if a.endswith((".json", ".txt")) else a for a in argv]
        code, out, err = run(capsys, *paths)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": f"{tmp_path / 'nested.json'}: JSON nesting is too deep"}

    @pytest.mark.parametrize("argv", [
        ["chaos", "bad.json"],
        ["verify", "bad.json"],
        ["scaling", "circle.txt", "bad.json"],
        ["classify", "bad.json", "map.json", "--t1", "1"],
        ["classify", "germ.json", "bad.json", "--t1", "1"],
    ], ids=["chaos", "verify", "scaling", "classify-germ", "classify-map"])
    @pytest.mark.parametrize("content, message", [
        (b"circle", "Expecting value: line 1 column 1 (char 0)"),
        (b'{"dim": 2,', "Expecting property name enclosed in double quotes: line 1 column 11 (char 10)"),
        (b'\xff{"dim": 2}', "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ], ids=["not-json", "cut-short", "not-utf-8"])
    def test_malformed_json_names_the_file(self, argv, content, message, tmp_path, capsys):
        (tmp_path / "bad.json").write_bytes(content)
        coords = [["0", "1", "0", "0", "0"], ["0", "0", "1", "0", "0"]]
        (tmp_path / "germ.json").write_text(json.dumps({"t0": "0", "order": 4, "coords": coords}))
        (tmp_path / "map.json").write_text(json.dumps({"matrix": [["1/2", "0"], ["0", "1/4"]]}))
        (tmp_path / "circle.txt").write_text("x1^2 + x2^2 - 1\n")
        paths = [str(tmp_path / a) if a.endswith((".json", ".txt")) else a for a in argv]
        code, out, err = run(capsys, *paths)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": f"{tmp_path / 'bad.json'}: {message}"}

    def test_every_subcommand_declares_its_formats(self):
        parser = cli.build_parser()
        subparsers = next(a for a in parser._actions if a.dest == "subcommand").choices
        for name, subparser in subparsers.items():
            formats = subparser.get_default("formats")
            assert formats and subparser.get_default("format") == formats[0], name

    def test_scaling_rejects_unsupported_format(self, circle_file, half_map_file, capsys):
        code, out, err = run(capsys, "scaling", str(circle_file), str(half_map_file),
                             "--format", "json")
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "scaling supports --format {text}, got 'json'"

    def test_broken_stdout_pipe_exits_quietly(self, moment_file, monkeypatch, capsys):
        # a reader that closes the pipe early, as `selfaffine chaos ... | head` does
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["chaos", str(moment_file), "--points", "10"]) == 0
        assert capsys.readouterr().err == ""


def fresh_run(cwd, *argv):
    """Exit code, stdout and stderr of `python -m selfaffine.cli argv` in a new process."""
    source = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=source, PYTHONIOENCODING="utf-8")
    result = subprocess.run([sys.executable, "-m", "selfaffine.cli", *argv], cwd=cwd, env=env,
                            capture_output=True, text=True, encoding="utf-8", timeout=120)
    return result.returncode, result.stdout, result.stderr


def exiting_run(capsys, *argv):
    """run(), also for argv that argparse answers by exiting (--help, usage errors)."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def moment3_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("reuse") / "moment3.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["build-moment", "--dim", "3", "--c", "0", "--d", "1",
                     "--output", str(path)]) == 0
    return path


@pytest.fixture
def germ_files(tmp_path):
    """(x, x³) under diag(1/2, 1/8) at order 6: a verdict at full order, an error at order 4."""
    coords = [["0", "1", "0", "0", "0", "0", "0"], ["0", "0", "0", "1", "0", "0", "0"]]
    (tmp_path / "gap.json").write_text(json.dumps({"t0": "0", "order": 6, "coords": coords}))
    (tmp_path / "gap-map.json").write_text(json.dumps({"matrix": [["1/2", "0"], ["0", "1/8"]]}))
    return str(tmp_path / "gap.json"), str(tmp_path / "gap-map.json")


class TestReusedParser:
    """main() builds its parser on the first call and reuses it for every later call."""

    def test_parser_is_built_on_the_first_call_only(self, moment_file, germ_files,
                                                    monkeypatch, capsys):
        built = []
        original = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        cli.build_parser.cache_clear()
        counts = []
        for argv in (["verify", str(moment_file), "--points", "5"],
                     ["chaos", str(moment_file), "--points", "10"],
                     ["classify", *germ_files, "--t1", "1"]):
            assert run(capsys, *argv)[0] == 0
            counts.append(len(built))
        assert counts == [9, 9, 9]  # the program's parser and one per subcommand

    @pytest.mark.parametrize("option, rest, default", [
        (["--seed", "5"], ["chaos", "{ifs}", "--points", "50"], ["--seed", "0"]),
        (["--project", "2", "1"], ["render", "{ifs}", "--points", "50"], ["--project", "0", "1"]),
        (["--order", "4"], ["classify", "{germ}", "{map}", "--t1", "1"], []),
    ], ids=["chaos-seed", "render-project", "classify-order"])
    def test_no_option_leaks_into_the_next_call(self, option, rest, default, tmp_path,
                                                moment3_file, germ_files, capsys):
        names = {"ifs": str(moment3_file), "germ": germ_files[0], "map": germ_files[1]}
        argv = [piece.format(**names) for piece in rest]
        with_option = run(capsys, *argv, *option)
        without = run(capsys, *argv)
        assert without == fresh_run(tmp_path, *argv, *default)
        assert without != with_option

    @pytest.mark.parametrize("argv", [
        ["--help"],
        ["chaos", "--help"],
        ["chaos", "x.json", "--points", "1e3"],
        ["verify"],
        ["frobnicate"],
    ], ids=["help", "chaos-help", "bad-int", "missing-file", "unknown-subcommand"])
    def test_help_and_usage_errors_are_the_same_on_every_call(self, argv, tmp_path,
                                                               monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "100")  # argparse wraps its text to the terminal width
        cli.build_parser.cache_clear()
        first = exiting_run(capsys, *argv)
        later = exiting_run(capsys, *argv)
        assert first == later == fresh_run(tmp_path, *argv)
        assert first[0] == (0 if "--help" in argv else 2)
        assert first[1 if "--help" in argv else 2].startswith("usage: selfaffine")


@pytest.fixture(scope="module")
def moment_files(tmp_path_factory):
    """Moment files built at n = 3 (222 maps) and n = 4 (1,025 maps)."""
    folder = tmp_path_factory.mktemp("collector")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for n in (3, 4):
            assert main(["build-moment", "--dim", str(n), "--c", "0", "--d", "1",
                         "--output", str(folder / f"moment{n}.json")]) == 0
    return folder


class TestPausedCollector:
    """main pauses the cyclic collector while a command runs and leaves its state as it was."""

    @pytest.mark.parametrize("caller_enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("case, status", [("valid", 0), ("absent", 1), ("missing", 2)])
    def test_state_is_restored_after_every_exit(self, case, status, caller_enabled, moment_file,
                                                circle_file, half_map_file, monkeypatch, capsys):
        argv = {"valid": ["verify", str(moment_file), "--points", "5"],
                "absent": ["scaling", str(circle_file), str(half_map_file)],
                "missing": ["verify", str(moment_file) + ".missing"]}[case]
        seen = []
        original = cli._load_json

        def recorded(path):
            seen.append(gc.isenabled())
            return original(path)

        monkeypatch.setattr(cli, "_load_json", recorded)
        try:
            if not caller_enabled:
                gc.disable()
            assert run(capsys, *argv)[0] == status
            assert gc.isenabled() is caller_enabled
        finally:
            gc.enable()
        assert seen == [False]  # paused while the command ran

    @pytest.mark.parametrize("command", ["build-moment", "verify", "chaos", "render", "paraboloid"])
    def test_cyclic_garbage_does_not_grow_with_the_input(self, command, moment_files, tmp_path,
                                                         capsys):
        def argv(size):
            path = str(moment_files / f"moment{size}.json")
            return {
                "build-moment": ["build-moment", "--dim", str(size), "--c", "0", "--d", "1",
                                 "--output", str(tmp_path / "built.json")],
                "verify": ["verify", path, "--points", "20"],
                "chaos": ["chaos", path, "--points", "500", "--output", str(tmp_path / "c.csv")],
                "render": ["render", path, "--points", "500", "--output", str(tmp_path / "r.svg")],
                "paraboloid": ["paraboloid", "--dim", str(2 * size - 3), "--c", "0", "--d", "1/64",
                               "--base", "1/2:0,1/2:1/128", "--output", str(tmp_path / "p.json")],
            }[command]

        def garbage(size):
            gc.collect()
            assert run(capsys, *argv(size))[0] == 0
            return gc.collect()

        garbage(3)  # first imports and caches
        assert garbage(3) == garbage(4)  # paraboloid: dimension 3, then 6
