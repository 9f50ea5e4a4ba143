"""Record benchmark pairs of two checkouts into one BENCH_*.json file.

    python3 tools/bench_record.py --parent DIR --change DIR \
        --workload moment-pipeline --seeds 1-10 --output BENCH_7.json

For each seed it runs ``perfbench/run.py --trace 0`` once in each
checkout, one after the other, and alternates which side goes first from
one pair to the next.  Each run is a fresh process started from the
checkout's root, so it measures that checkout's own ``src/`` with that
checkout's own benchmark.  The output file holds every run's metrics,
each side's median and quartiles per metric, the pairs the change won,
both commits with the line count of their ``src/``, and the environment:
Python version, whether gmpy2 is installed, the numpy and scipy versions
(null when absent), CPU count and platform.
Before each workload's runs it also records, per side, the median
cumulative ``python -X importtime -c "import selfaffine.cli"`` over ten
fresh processes, alternating the sides, so that a ``setup_s`` reading can
be set against what the package import costs.
Running the script again with the same output file adds or replaces the
named workload and keeps the others; the commits and the environment
must match.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
IMPORT_SAMPLES = 10


def parse_seeds(text: str) -> list[int]:
    """ "1-10" or "1,4,7" (or a mix) as a list of seeds."""
    seeds = []
    for piece in text.split(","):
        first, _, last = piece.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def git(checkout: Path, *args: str) -> str:
    result = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else ""


def describe(checkout: Path) -> dict:
    """The commit of a checkout, its src/ tree, the lines ``wc -l src/selfaffine/*.py`` counts,
    and whether it has uncommitted changes."""
    return {
        "commit": git(checkout, "rev-parse", "HEAD"),
        "src_tree": git(checkout, "rev-parse", "HEAD:src"),
        "src_lines": sum(path.read_bytes().count(b"\n")
                         for path in (checkout / "src" / "selfaffine").glob("*.py")),
        "dirty": bool(git(checkout, "status", "--porcelain", "--", "src", "perfbench")),
    }


def version(distribution: str):
    """The installed version of a distribution, or None when it is absent."""
    try:
        return importlib.metadata.version(distribution)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


def import_ms(checkout: Path) -> float:
    """The cumulative -X importtime of selfaffine.cli, in ms, in one fresh process on checkout's src/."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(checkout / "src"), os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-X", "importtime", "-c", "import selfaffine.cli"],
                            cwd=checkout, env=env, capture_output=True, text=True, check=True)
    for line in result.stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == "selfaffine.cli":
            return int(fields[1]) / 1000
    raise SystemExit(f"{checkout}: -X importtime printed no line for selfaffine.cli")


def import_costs(checkouts: dict) -> dict:
    """Each side's median import_ms over IMPORT_SAMPLES processes, the sides alternating."""
    samples = {side: [] for side in SIDES}
    for number in range(IMPORT_SAMPLES):
        for side in (SIDES if number % 2 == 0 else SIDES[::-1]):
            samples[side].append(import_ms(checkouts[side]))
    return {side: {"median": statistics.median(values), "runs": values}
            for side, values in samples.items()}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    result = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: {' '.join(command)} exited {result.returncode}:\n"
                         f"{result.stderr[-2000:]}")
    summary = json.loads(lines[-1])
    return {
        "seed": seed,
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: entry["value"] for name, entry in summary["metrics"].items()},
        "process_s": round(elapsed, 3),
    }


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(runs: dict, metrics: list[dict]) -> dict:
    """Per metric: each side's median and quartiles, and the pairs the change won."""
    summary = {}
    for metric in metrics:
        name, sign = metric["name"], (1 if metric["better"] == "lower" else -1)
        sides = {side: [run["metrics"][name] for run in runs[side]] for side in SIDES}
        wins = sum(sign * (change - parent) < 0
                   for parent, change in zip(sides["parent"], sides["change"]))
        parent, change = spread(sides["parent"]), spread(sides["change"])
        summary[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "parent": parent,
            "change": change,
            "change_vs_parent": change["median"] / parent["median"] - 1,
            "change_wins": f"{wins}/{len(sides['parent'])}",
            "median_gap_exceeds_parent_iqr":
                sign * (change["median"] - parent["median"]) < -parent["iqr"],
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True, help='e.g. "1-10"')
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--output", type=Path, required=True)
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    header = {"commits": {side: describe(path) for side, path in checkouts.items()},
              "environment": environment()}
    record = json.loads(args.output.read_text()) if args.output.exists() else {}
    for key, value in header.items():
        if record.get(key, value) != value:
            raise SystemExit(f"{args.output}: recorded {key} differ from this run's")
    record.update(header)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())

    imports = import_costs(checkouts)
    print("import selfaffine.cli: " + ", ".join(
        f"{side} {imports[side]['median']:.1f} ms" for side in SIDES), file=sys.stderr)
    runs = {side: [] for side in SIDES}
    for number, seed in enumerate(args.seeds):
        order = SIDES if number % 2 == 0 else SIDES[::-1]
        for side in order:
            run = run_once(checkouts[side], args.workload, seed, args.seconds)
            run["order"] = order.index(side)
            runs[side].append(run)
            print(f"{args.workload} seed {seed} {side}: "
                  f"wall_s {run['metrics'].get('wall_s')}", file=sys.stderr)
    record.setdefault("workloads", {})[args.workload] = {
        "command": f"python3 perfbench/run.py --workload {args.workload} --seed <seed> "
                   f"--seconds {args.seconds:g} --trace 0",
        "seeds": args.seeds,
        "import_cli_ms": imports,
        "runs": runs,
        "failed_jobs": {side: f"{sum(run['failed'] for run in runs[side])}/"
                              f"{sum(run['attempted'] for run in runs[side])}" for side in SIDES},
        "summary": summarize(runs, benchmark["end_to_end"]),
    }
    args.output.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
