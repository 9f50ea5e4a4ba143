"""Self-check of the benchmark's output checks.

    python3 perfbench/selfcheck.py

Runs one small round of each workload (fewer dimensions than the
benchmark uses), requires every check to pass on the program's real
output, then corrupts each kind of output and requires its check to
fail.  It also requires that a job which raises, or fails its check,
makes a run report ``correct: false``.  Exits 0 when every check behaves, 1 otherwise.  The file name
keeps it out of the repository's pytest collection.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import oracles
import run

workloads = run.import_program()


def perturb_last_coordinate(line_index: int):
    def change(text: str) -> str:
        lines = text.splitlines(keepends=True)
        rest, last = lines[line_index].rsplit(",", 1)
        lines[line_index] = f"{rest},{float(last) + 1e-6!r}\n"
        return "".join(lines)
    return change


class SelfCheck:
    def __init__(self) -> None:
        self.failures = 0

    def run_round(self, workload) -> dict:
        outputs = {}
        for job in workload.round():
            if job.prepare:
                job.prepare()
            output = job.run()
            try:
                run.check_apart(job, output)
            except Exception as exc:
                self.fail(f"{job.span} rejected the program's own output: {exc}")
            outputs.setdefault(job.span, []).append((job, output))
        return outputs

    def fail(self, message: str) -> None:
        print(f"selfcheck: {message}", file=sys.stderr)
        self.failures += 1

    def must_reject(self, label: str, job, output, path=None, change=None) -> None:
        """Require job.check to fail on a corrupted output, or on the file at
        path rewritten by change (and restored afterwards)."""
        original = Path(path).read_text(encoding="utf-8") if path else None
        if path:
            changed = change(original)
            assert changed != original, f"{label}: the corruption left {path} unchanged"
            Path(path).write_text(changed, encoding="utf-8")
        try:
            job.check(output)
            self.fail(f"{label}: the check accepted a corrupted output")
        except workloads.CheckFailed:
            print(f"selfcheck: {label}: rejected, as it should be")
        finally:
            if path:
                Path(path).write_text(original, encoding="utf-8")


def drop_first_circle(text: str) -> str:
    lines = text.splitlines(keepends=True)
    first = next(i for i, line in enumerate(lines) if line.startswith("<circle"))
    return "".join(lines[:first] + lines[first + 1:])


def json_edit(edit):
    """A change of a JSON file's text that applies edit to the parsed document."""
    def change(text: str) -> str:
        data = json.loads(text)
        edit(data)
        return json.dumps(data)
    return change


def bump_translation(data) -> None:
    data["maps"][0]["translation"][0] += "1"


def with_out(result, old: str, new: str):
    assert old in result.out, f"{old!r} not in {result.out!r}"
    return dataclasses.replace(result, out=result.out.replace(old, new))


def moment(check: SelfCheck, directory: str) -> None:
    small = type("SmallMoment", (workloads.MomentPipeline,), {"SYSTEMS": ((2, 1), (3, 1))})(7, directory)
    outputs = check.run_round(small)
    build, verify, chaos, render = (outputs[f"cli.{name}"] for name in
                                    ("build-moment", "verify", "chaos", "render"))
    system = small.path("moment3.json")
    check.must_reject("build-moment: translation entry changed", *build[1],
                      system, json_edit(bump_translation))
    check.must_reject("build-moment: one map missing", *build[1],
                      system, json_edit(lambda data: data["maps"].pop()))
    job, result = verify[1]
    check.must_reject("verify: a violation reported", job,
                      with_out(result, " 0 violations", " 1 violations"))
    check.must_reject("chaos: a point moved off the curve", *chaos[1],
                      small.path("chaos3.csv"), perturb_last_coordinate(5))
    check.must_reject("render: a point missing", *render[0],
                      small.path("render2.svg"), drop_first_circle)
    tampered_job, tampered = verify[-1]
    check.must_reject("tampered verify: passed", tampered_job,
                      dataclasses.replace(tampered, out="22200 exact checks, 0 violations\n"))
    check.must_reject("tampered verify: another map named", tampered_job,
                      with_out(tampered, f"map {small.tampered_map},", f"map {small.tampered_map + 1},"))


def germs(check: SelfCheck, directory: str) -> None:
    small = type("SmallGerms", (workloads.GermClassification,),
                 {"DIMS": range(3, 5), "ROUND_TRIPS": 2, "RECENTER_TOP": 5})(7, directory)
    outputs = check.run_round(small)
    job, result = outputs["cli.classify"][1]
    check.must_reject("classify: gap germ called moment", job,
                      with_out(result, "exponent gap (not moment)", "affine image of moment curve, p_k = k"))
    job, result = outputs["cli.classify"][0]
    payload = json.loads(result.out)
    payload["exponents"][-1] += 1
    check.must_reject("classify: exponent profile changed", job,
                      dataclasses.replace(result, out=json.dumps(payload)))
    job, results = outputs["lib.series_round_trips"][0]
    reverse, composed = results[0]
    changed = list(reverse)
    changed[-1] += 1
    check.must_reject("series: reverse changed in its last coefficient", job,
                      [(tuple(changed), composed)] + results[1:])
    check.must_reject("series: composition not t", job,
                      [(reverse, composed[:-1] + (Fraction(1),))] + results[1:])
    job, results = outputs["lib.recenter_sweep"][0]
    gap = next(i for i, r in enumerate(results) if not r.feasible)
    check.must_reject("recenter: gap profile called feasible", job,
                      results[:gap] + [dataclasses.replace(results[gap], feasible=True)] + results[gap + 1:])
    check.must_reject("recenter: witness degree changed", job,
                      results[:gap] + [dataclasses.replace(results[gap], witness_degree=99)] + results[gap + 1:])
    full = next(i for i, r in enumerate(results) if r.feasible and len(r.exponents) > 1)
    rows = [list(row) for row in results[full].matrix]
    rows[-1][0] += 1
    check.must_reject("recenter: coefficient matrix changed", job,
                      results[:full] + [dataclasses.replace(results[full], matrix=tuple(map(tuple, rows)))]
                      + results[full + 1:])


def surfaces(check: SelfCheck, directory: str) -> None:
    small = type("SmallSurfaces", (workloads.SurfaceObstruction,),
                 {"DIMS": range(2, 4), "PARABOLOID_SWEEP_DIMS": (3,),
                  "DENSE_DIMS": (4,), "DENSE_PIECES": 8})(7, directory)
    outputs = check.run_round(small)
    job, result = outputs["cli.paraboloid"][1]
    check.must_reject("paraboloid: translation entry changed", job, result,
                      small.path("paraboloid3.json"), json_edit(bump_translation))
    job, result = outputs["cli.chaos"][1]
    check.must_reject("chaos: a point moved off the paraboloid", job, result,
                      small.path("chaos3.csv"), perturb_last_coordinate(9))
    job, result = outputs["cli.chaos"][-1]
    check.must_reject("dense chaos: a point moved off the conjugate paraboloid", job, result,
                      small.path("dense4.csv"), perturb_last_coordinate(9))
    job, result = outputs["cli.scaling"][0]
    check.must_reject("scaling: circle constant reported", job,
                      dataclasses.replace(result, out="[scaling-identity] P∘f = C·P with C = 1/2\n"))
    job, result = outputs["cli.scaling"][-1]
    check.must_reject("scaling: line constant changed", job, with_out(result, "C = 1/2", "C = 1/3"))
    job, result = outputs["cli.compactness-demo"][0]
    check.must_reject("compactness-demo: witness changed", job, with_out(result, "·P_0 + (", "·P_0 + (2"))
    job, reports = outputs["lib.fixed_point_sweep"][0]
    n, report = reports[0]
    words = list(report.checks)
    words[3] = dataclasses.replace(words[3], fixed_point_value=Fraction(1, 10**9))
    check.must_reject("fixed points: one fixed point off the surface", job,
                      [(n, dataclasses.replace(report, checks=tuple(words)))] + reports[1:])
    job, results = outputs["lib.conjugation_sweep"][0]
    check.must_reject("conjugation: one dimension rejected", job, results[:-1] + [False])


def failures_counted(check: SelfCheck) -> None:
    """A job that raises, or whose check fails, must make the run incorrect."""
    def crash():
        raise ArithmeticError("a fault inside the program")

    def reject(output):
        raise workloads.CheckFailed("a wrong output")

    cases = (("a job that raises", workloads.Job("lib.crash", crash, lambda output: None)),
             ("a job that fails its check", workloads.Job("lib.wrong", lambda: 1, reject)))
    for label, job in cases:
        counts = {"attempted": 0, "failed": 0}
        run.run_round([job], None, counts, run.SpeedSampler(), [run.reference_loop()])
        correct = run.summary(counts, {})["correct"]
        if counts != {"attempted": 1, "failed": 1} or correct:
            check.fail(f"run_round: {label} gave {counts}, correct = {correct}")
        else:
            print(f"selfcheck: run_round: {label} makes the run incorrect, as it should")


def oracle_consistency(check: SelfCheck) -> None:
    s = [Fraction(0), Fraction(2), Fraction(-1, 3), Fraction(5, 7), Fraction(1, 2)]
    reverse = oracles.lagrange_reverse(s, 4)
    if oracles.series_compose(s, reverse, 4) != [0, 1, 0, 0, 0]:
        check.fail("oracles: Lagrange inversion does not invert")
    a = [[Fraction(2), Fraction(1)], [Fraction(-1, 3), Fraction(4)]]
    if oracles.mat_mul(a, oracles.mat_inverse(a)) != [[1, 0], [0, 1]]:
        check.fail("oracles: the inverse is wrong")
    a = [[Fraction(1), Fraction(1, 7), Fraction(-2, 7)], [Fraction(3, 7), Fraction(6, 5), Fraction(0)],
         [Fraction(-1, 5), Fraction(1, 3), Fraction(5, 6)]]
    c, d = Fraction(-1, 9), Fraction(2, 11)
    f = [[c, 0, 0], [0, c, 0], [2 * c * d, 2 * c * d, c * c]]
    a_inverse = oracles.mat_inverse(a)
    matrix, translation = oracles.paraboloid_conjugates(a, a_inverse)(c, d)
    if (matrix != oracles.mat_mul(oracles.mat_mul(a, f), a_inverse)
            or translation != oracles.apply_affine(a, [0, 0, 0], [d, d, 2 * d * d])):
        check.fail("oracles: the conjugate of a paraboloid map is wrong")


def main() -> int:
    check = SelfCheck()
    oracle_consistency(check)
    failures_counted(check)
    run.WORK.mkdir(exist_ok=True)
    for case in (moment, germs, surfaces):
        with tempfile.TemporaryDirectory(dir=run.WORK) as directory:
            case(check, directory)
    print(f"selfcheck: {'FAILED, ' + str(check.failures) + ' problems' if check.failures else 'all checks behave'}")
    return 1 if check.failures else 0


if __name__ == "__main__":
    sys.exit(main())
