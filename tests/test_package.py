"""The package namespace, every name each module lists in its __all__ and no other,
and the runtime dependencies: numpy alone."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import selfaffine
from selfaffine.cli import build_parser

# the modules whose names the package exports; cli is the command line, run as a script
MODULES = ("affine", "attractor", "classifier", "cloud", "exactlinalg", "moment", "paraboloid",
           "polynomials", "pullback", "rationals", "series")


def test_every_library_module_is_exported():
    found = {module.name for module in pkgutil.iter_modules(selfaffine.__path__)}
    assert found - {"cli"} == set(MODULES)


def test_all_is_the_union_of_the_module_lists():
    names = set()
    for module_name in MODULES:
        module = importlib.import_module(f"selfaffine.{module_name}")
        assert not names & set(module.__all__)
        names |= set(module.__all__)
        for name in module.__all__:
            assert getattr(selfaffine, name) is getattr(module, name)
    assert sorted(selfaffine.__all__) == sorted(names | {"__version__"})


def test_names_the_modules_declared_are_exported():
    assert {"read_recipe", "certify_admissible", "InvarianceCounterexample", "DecayRow",
            "NORM_TOLERANCE", "WordCheck", "identity"} <= set(selfaffine.__all__)


# Runs each argv list of sys.argv[2] (JSON) through the command line with the module
# sys.argv[1] blocked, so that any import of it raises, and prints the exit codes.
BLOCKED_RUN = """
import contextlib, io, json, sys
sys.modules[sys.argv[1]] = None
import selfaffine
from selfaffine.cli import main
codes = []
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(main(argv))
print(json.dumps(codes))
"""


def exit_codes_without(module, commands, cwd):
    """The exit code of each command, run in one subprocess with `module` blocked."""
    source = str(Path(selfaffine.__file__).resolve().parent.parent)
    result = subprocess.run([sys.executable, "-c", BLOCKED_RUN, module, json.dumps(commands)],
                            cwd=cwd, env=dict(os.environ, PYTHONPATH=source),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def write_inputs(tmp_path):
    (tmp_path / "line.txt").write_text("x2 - x1\n")
    (tmp_path / "circle.txt").write_text("x1^2 + x2^2 - 1\n")
    (tmp_path / "half.json").write_text(json.dumps(
        {"matrix": [["1/2", "0"], ["0", "1/2"]], "translation": ["0", "0"]}))
    (tmp_path / "germ.json").write_text(json.dumps(
        {"t0": "0", "order": 8, "coords": [["0", "1"] + ["0"] * 7, ["0", "0", "1"] + ["0"] * 6]}))
    (tmp_path / "m.json").write_text(json.dumps({"matrix": [["1/2", "0"], ["0", "1/4"]]}))


def test_every_subcommand_runs_without_scipy(tmp_path):
    write_inputs(tmp_path)
    commands = [
        ["build-moment", "--dim", "2", "--c", "0", "--d", "1", "--lambda", "1/25",
         "--output", "moment.json"],
        ["verify", "moment.json", "--points", "5"],
        ["chaos", "moment.json", "--points", "50", "--output", "chaos.csv"],
        ["render", "moment.json", "--points", "50", "--output", "render.svg"],
        ["paraboloid", "--dim", "3", "--c", "0", "--d", "1", "--base", "1/2:0,1/2:1/2"],
        ["scaling", "line.txt", "half.json"],
        ["classify", "germ.json", "m.json", "--t1", "1"],
        ["compactness-demo", "circle.txt", "half.json", "--depth", "4", "--points", "8"],
    ]
    assert exit_codes_without("scipy", commands, tmp_path) == [0] * len(commands)
    subcommands = next(a for a in build_parser()._actions if a.dest == "subcommand").choices
    assert sorted(command[0] for command in commands) == sorted(subcommands)


def test_exact_subcommands_run_without_numpy(tmp_path):
    # Only sampling, drawing and the spectral contraction route compute floats.  The
    # paraboloid maps here certify by row sums; `paraboloid --dim 3 --base 1/2:0,1/2:1/2`
    # (run with numpy in the test above) takes the spectral route and still needs numpy
    # until contraction has an exact certificate (ROADMAP, open item 9).
    write_inputs(tmp_path)
    commands = [
        ["build-moment", "--dim", "4", "--c", "0", "--d", "1", "--output", "moment.json"],
        ["verify", "moment.json", "--points", "5"],
        ["scaling", "line.txt", "half.json"],
        ["classify", "germ.json", "m.json", "--t1", "1", "--format", "text"],
        ["classify", "germ.json", "m.json", "--t1", "1", "--format", "json"],
        ["paraboloid", "--dim", "2", "--c", "0", "--d", "1",
         "--base", "1/4:0,1/4:1/4,1/4:1/2,1/4:3/4"],
    ]
    assert exit_codes_without("numpy", commands, tmp_path) == [0] * len(commands)
