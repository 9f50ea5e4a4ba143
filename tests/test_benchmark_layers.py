"""The benchmark's per-layer names still name code that exists.

The tracer wraps each "<module>.<function>" that BENCHMARK.json lists in
``per_layer``; a rename or deletion in the package would leave its metric
reading 0 without an error.  BENCHMARK.json is only read here.
"""

import importlib
import json
from pathlib import Path

import pytest

from selfaffine import cli

BENCHMARK = Path(__file__).parents[1] / "BENCHMARK.json"
PACKAGE = Path(cli.__file__).parent


def layer_targets():
    """(module, name) for each per-layer metric whose first part is a selfaffine module."""
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    targets = []
    for metric in spec["per_layer"]:
        module, name = metric["name"].split(".")[:2]
        if (PACKAGE / f"{module}.py").exists() and (module, name) not in targets:
            targets.append((module, name))
    return targets


TARGETS = layer_targets()


def test_benchmark_names_layers():
    assert len(TARGETS) > 20


@pytest.mark.parametrize("module, name", TARGETS, ids=[f"{m}.{n}" for m, n in TARGETS])
def test_layer_resolves(module, name):
    if module == "cli":
        # cli.<subcommand>.wall_s times one subcommand of the parser
        subcommands = next(a for a in cli.build_parser()._actions if a.dest == "subcommand")
        assert name in subcommands.choices
    else:
        assert callable(getattr(importlib.import_module(f"selfaffine.{module}"), name))
