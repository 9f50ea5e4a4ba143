"""Benchmark of the selfaffine program: one workload per run, closed loop.

    python3 perfbench/run.py --workload moment-pipeline --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The program is imported from ``src/``
of that checkout.  One single-threaded process runs the workload's jobs
one after another, in whole rounds, until the next round would end
after ``--seconds``; every job's output is checked outside its timed
interval.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  The per-layer figures come from spans recorded
around the program's functions (see tracer.py) and are given per round.
Scratch files go to ``.perfbench-work/`` and are removed at exit; a
traced run leaves its spans there as ``trace-<workload>-seed<n>.json``.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported, here and in the set-up processes.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse
import json
import pickle
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"
SETUP_SAMPLES = 5
SETUP_TIMEOUT = 60
# Times are reported in reference seconds: each job's time is scaled by
# REFERENCE_SECONDS over the median time of the reference loop, timed just
# before and after the job and every SAMPLE_SECONDS while it runs.
REFERENCE_TERMS = 1500
REFERENCE_SECONDS = 0.008
SAMPLE_SECONDS = 0.5


def reference_loop() -> float:
    """Time a fixed pure-Python Fraction sum: the machine's speed right now."""
    start = perf_counter()
    total = Fraction(0)
    for k in range(1, REFERENCE_TERMS):
        total += Fraction(1, k * k)
    return perf_counter() - start


class SpeedSampler:
    """Times the reference loop every SAMPLE_SECONDS while a job runs.

    The loop runs in a SIGALRM handler, between the job's bytecodes, so the
    machine's speed is known for each stretch of a long job.  The handler's
    time is kept in ``paused``, to be taken out of the job's time.
    """

    def __init__(self) -> None:
        self.loops: list[float] = []
        self.paused = 0.0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        self.loops.append(reference_loop())
        self.paused += perf_counter() - start

    def start(self) -> None:
        self.loops, self.paused = [], 0.0
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_SECONDS, SAMPLE_SECONDS)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR",
                        help="import the program, write the seeded inputs to DIR, exit")
    return parser.parse_args(argv)


def import_program():
    """Import the workloads, and through them selfaffine, from this checkout's src/."""
    source = ROOT / "src"
    if not (source / "selfaffine" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {source}")
    sys.path[:0] = [str(source), str(Path(__file__).resolve().parent)]
    import selfaffine
    import workloads

    if Path(selfaffine.__file__).resolve().parent != (source / "selfaffine").resolve():
        sys.exit(f"perfbench: imported selfaffine from {selfaffine.__file__}, not {source}")
    return workloads


def measure_setup(args) -> float:
    """Median time of fresh processes that import the program and write the inputs.

    Each process's time is scaled by the reference loop timed before and after it.
    """
    samples, scaled, loops = [], [], [reference_loop()]
    for _ in range(SETUP_SAMPLES):
        with tempfile.TemporaryDirectory(dir=WORK) as target:
            command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                       "--seed", str(args.seed), "--setup-only", target]
            start = perf_counter()
            subprocess.run(command, cwd=ROOT, check=True, timeout=SETUP_TIMEOUT)
            samples.append(perf_counter() - start)
        loops.append(reference_loop())
        scaled.append(samples[-1] * REFERENCE_SECONDS / statistics.median(loops[-2:]))
    print(f"perfbench: set-up {statistics.median(samples):.4f} s as measured, "
          f"reference loop median {statistics.median(loops) * 1000:.3f} ms", file=sys.stderr)
    return statistics.median(scaled)


def check_apart(job, output):
    """Run job.check(output) in a forked child and return what it returns.

    The check's memory (a parsed 8 MB system, a point cloud) stays out of
    this process, so ``peak_rss_mb`` is the program's alone.  Whatever the
    check raises is raised here again as a RuntimeError with its repr.
    """
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_end)
        try:
            message = pickle.dumps((True, job.check(output)))
        except BaseException as exc:
            message = pickle.dumps((False, repr(exc)))
        with os.fdopen(write_end, "wb") as pipe:
            pipe.write(message)
        os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        message = pipe.read()
    os.waitpid(pid, 0)
    if not message:
        raise RuntimeError("the check's process ended without a result")
    passed, value = pickle.loads(message)
    if not passed:
        raise RuntimeError(value)
    if job.keep:
        job.keep(value)
    return value


def run_round(jobs, tracer, counts, sampler: SpeedSampler, loops: list[float]):
    """Run one round of jobs; return (wall time, reference loop) for each call.

    The wall time leaves out the sampler's pauses, and the reference loop is
    the median of the one timed last before the job (``loops[-1]``), those
    timed during it and one timed after it.  Every loop is appended to loops.
    A job that raises, exits with another code than expected or fails its
    check counts as failed.
    """
    timed = []
    for job in jobs:
        if job.prepare:
            job.prepare()
        counts["attempted"] += 1
        span = tracer.open(job.span) if tracer else None
        before = loops[-1]
        sampler.start()
        start = perf_counter()
        try:
            output = job.run()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            counts["failed"] += 1
            continue
        finally:
            sampler.stop()
            elapsed = perf_counter() - start - sampler.paused
            if tracer:
                tracer.close(span)
            loops += sampler.loops
            loops.append(reference_loop())
            timed.append((elapsed, statistics.median([before] + sampler.loops + [loops[-1]])))
        if tracer and job.ifs_file and os.path.exists(job.ifs_file):
            tracer.add("io.ifs_json_bytes", os.path.getsize(job.ifs_file))
        try:
            check_apart(job, output)
        except Exception as exc:  # a malformed output fails its check the same way
            print(f"perfbench: {job.span}: {exc}", file=sys.stderr)
            counts["failed"] += 1
    return timed


def summary(counts, metrics) -> dict:
    """The result line: correct only when no job raised or failed its check."""
    return {"correct": counts["failed"] == 0, "attempted": counts["attempted"],
            "failed": counts["failed"], "metrics": metrics}


def layer_metrics(spec, tracer, rounds: int, wall_s: float, loop_s: float) -> dict:
    wall, own, calls = tracer.totals()
    metrics = {}
    for metric in spec["per_layer"]:
        name = metric["name"]
        function, _, quantity = name.rpartition(".")
        if name == "trace.wall_s":
            value = wall_s
        elif name == "trace.reference_loop_s":
            value = loop_s
        elif name == "trace.spans":
            value = len(tracer.names) / rounds
        elif function.startswith("cli.") and quantity == "wall_s":
            value = wall.get(function, 0.0) / rounds
        elif quantity == "self_s":
            value = own.get(function, 0.0) / rounds
        elif quantity == "calls":
            value = calls.get(function, 0) / rounds
        else:
            value = tracer.counts.get(name, 0) / rounds
        metrics[name] = {"value": value, "unit": metric["unit"]}
    return metrics


def traced_functions(spec) -> list[str]:
    names = []
    for metric in spec["per_layer"]:
        function = metric["name"].rpartition(".")[0]
        if function.split(".")[0] not in ("cli", "io", "trace") and function not in names:
            names.append(function)
    return names


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_program()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    workload_class = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        workload_class(args.seed, args.setup_only)
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    WORK.mkdir(exist_ok=True)
    directory = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        setup_s = None if args.trace else measure_setup(args)
        workload = workload_class(args.seed, directory)
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install(traced_functions(spec))
        counts = {"attempted": 0, "failed": 0}
        sampler, rounds, loops = SpeedSampler(), [], [reference_loop()]
        deadline = perf_counter() + args.seconds
        while True:
            started = perf_counter()
            rounds.append(run_round(workload.round(), tracer, counts, sampler, loops))
            if 2 * perf_counter() - started > deadline:
                break
        # The reference loop around and during each job takes out the
        # machine's speed while it ran; a spell of contention that covers
        # only some rounds stays out of the median of each job over the rounds.
        per_job = list(zip(*rounds))
        measured = sum(statistics.median(time for time, _ in job) for job in per_job)
        wall_s = sum(statistics.median(time * REFERENCE_SECONDS / loop for time, loop in job)
                     for job in per_job)
        loop_s = statistics.median(loops)
        print(f"perfbench: {args.workload}: {len(rounds)} rounds, round {measured:.4f} s as measured, "
              f"reference loop median {loop_s * 1000:.3f} ms", file=sys.stderr)
        if tracer:
            tracer.uninstall()
            tracer.dump(WORK / f"trace-{args.workload}-seed{args.seed}.json")
            metrics = layer_metrics(spec, tracer, len(rounds), wall_s, loop_s)
        else:
            jobs = (counts["attempted"] - counts["failed"]) / len(rounds)
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "wall_s": {"value": wall_s, "unit": "s"},
                "jobs_per_s": {"value": jobs / wall_s, "unit": "1/s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                "unit": "MB"},
            }
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    print(json.dumps(summary(counts, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
