"""The benchmark's three workloads: seeded inputs, timed jobs, output checks.

A workload object writes its seeded input files when it is constructed
(that is part of set-up) and hands out one round of jobs at a time.
Every round runs the same jobs on the same inputs.  A job is one call of
the program: ``selfaffine.cli.main(argv)`` in-process, or one library
sweep.  Its check runs after it, outside the timed interval and in a
child process, and recomputes what it can with the plain arithmetic in
``oracles``.

Only the CLI and public functions that the project keeps are called;
germ, map and polynomial files are written here, not by the program.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import xml.etree.ElementTree as ElementTree
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations
from typing import Callable, Optional

import oracles
from selfaffine import affine, classifier, cli, paraboloid, polynomials, series


class CheckFailed(Exception):
    """A job's output differs from what the benchmark computed for it."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Job:
    span: str  # "cli.<subcommand>" or "lib.<sweep>"
    run: Callable[[], object]
    check: Callable[[object], object]
    prepare: Optional[Callable[[], None]] = None  # untimed, before run
    ifs_file: Optional[str] = None  # IFS JSON the job reads or writes
    keep: Optional[Callable[[object], None]] = None  # takes what check returns


@dataclass
class CliResult:
    code: int
    out: str
    err: str


def cli_job(argv: list[str], check: Callable[[CliResult], object], code: int = 0,
            prepare=None, ifs_file=None, keep=None) -> Job:
    def run() -> CliResult:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                status = cli.main(argv)
            except SystemExit as exc:
                status = exc.code
        return CliResult(status, out.getvalue(), err.getvalue())

    def checked(result: CliResult) -> object:
        expect(result.code == code,
               f"{argv[0]} exited {result.code}, expected {code}: {result.err.strip()[:300]}")
        return check(result)

    return Job("cli." + argv[0], run, checked, prepare, ifs_file, keep)


def write_json(path: str, data) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)


def read_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def q(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def read_cloud(path: str, dim: int, count: int) -> list[list[float]]:
    with open(path, "r", encoding="utf-8") as handle:
        rows = [[float(x) for x in line.split(",")] for line in handle if line.strip()]
    expect(len(rows) == count, f"{path}: {len(rows)} points, expected {count}")
    expect(all(len(row) == dim for row in rows), f"{path}: rows are not {dim}-dimensional")
    return rows


def check_svg(path: str, count: int) -> None:
    root = ElementTree.parse(path).getroot()
    circles = root.findall("{http://www.w3.org/2000/svg}circle")
    expect(len(circles) == count, f"{path}: {len(circles)} points drawn, expected {count}")


class MomentPipeline:
    """build-moment → verify → chaos → render on η([0, d]) for n = 2..5.

    At n = 5 on [0, 1] the system has 4,580 maps and 8.4 MB of JSON, so
    construction, IFS JSON parsing with its per-map re-validation, exact
    verification and the sampler all run on many triangular maps.  One
    tampered copy per round must be rejected by verify.
    """

    SYSTEMS = ((2, Fraction(1)), (3, Fraction(1)), (4, Fraction(1)), (5, Fraction(1)))
    VERIFY_POINTS = 100
    CHAOS_POINTS = 20_000
    RENDER_POINTS = 5_000
    TAMPERED_DIM = 3

    def __init__(self, seed: int, workdir: str) -> None:
        rng = random.Random(f"moment-pipeline:{seed}")
        self.dir = workdir
        self.seed = seed
        self.chaos_seed = rng.randrange(2**32)
        self.render_seed = rng.randrange(2**32)
        self.tamper_denominator = rng.randint(1000, 9999)
        self.tamper_fraction = rng.random()
        self.map_counts: dict[int, int] = {}

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def round(self) -> list[Job]:
        jobs = []
        for n, d in self.SYSTEMS:
            system = self.path(f"moment{n}.json")
            jobs += [
                cli_job(["build-moment", "--dim", str(n), "--c", "0", "--d", q(d),
                         "--output", system], lambda r, n=n, d=d: self.check_system(n, d),
                        ifs_file=system, keep=partial(self.map_counts.__setitem__, n)),
                cli_job(["verify", system, "--points", str(self.VERIFY_POINTS)],
                        lambda r, n=n: self.check_verify(n, r), ifs_file=system),
                cli_job(["chaos", system, "--points", str(self.CHAOS_POINTS),
                         "--seed", str(self.chaos_seed), "--output", self.path(f"chaos{n}.csv")],
                        lambda r, n=n, d=d: self.check_chaos(n, d), ifs_file=system),
                cli_job(["render", system, "--points", str(self.RENDER_POINTS),
                         "--seed", str(self.render_seed), "--output", self.path(f"render{n}.svg")],
                        lambda r, n=n: check_svg(self.path(f"render{n}.svg"), self.RENDER_POINTS),
                        ifs_file=system),
            ]
        tampered = self.path("tampered.json")
        jobs.append(cli_job(["verify", tampered, "--points", str(self.VERIFY_POINTS)],
                            self.check_tampered, code=1, prepare=self.tamper, ifs_file=tampered))
        return jobs

    def check_system(self, n: int, d: Fraction) -> int:
        """Check the written system; return its map count, which verify reports."""
        data = read_json(self.path(f"moment{n}.json"))
        meta = data["meta"]
        expect(meta["n"] == n and data["dim"] == n, f"n={n}: wrong dimension in the JSON")
        expect(Fraction(meta["c"]) == 0 and Fraction(meta["d"]) == d, f"n={n}: wrong interval")
        ratio = Fraction(meta["lambda"])
        anchors = [Fraction(t) for t in meta["anchors"]]
        count = math.ceil(1 / ratio)
        expect(len(data["maps"]) == count == len(anchors),
               f"n={n}: {len(data['maps'])} maps and {len(anchors)} anchors, expected ceil(1/λ) = {count}")
        rng = random.Random(f"moment-check:{self.seed}:{n}")
        for index, (entry, anchor) in enumerate(zip(data["maps"], anchors)):
            t = d * Fraction(rng.randint(0, 1000), 1000)
            matrix = [[Fraction(x) for x in row] for row in entry["matrix"]]
            translation = [Fraction(x) for x in entry["translation"]]
            image = oracles.apply_affine(matrix, translation, oracles.moment_point(n, t))
            expected = oracles.moment_point(n, ratio * t + anchor)
            expect(image == expected, f"n={n}: f_{index}(η({t})) != η(λt + t_{index})")
        return count

    def check_verify(self, n: int, result: CliResult) -> None:
        expect(n in self.map_counts, f"verify n={n}: the system it reads failed its check")
        expected = f"{self.map_counts[n] * self.VERIFY_POINTS} exact checks, 0 violations"
        expect(expected in result.out, f"verify n={n}: expected '{expected}', got {result.out.strip()!r}")

    def check_chaos(self, n: int, d: Fraction) -> None:
        for row in read_cloud(self.path(f"chaos{n}.csv"), n, self.CHAOS_POINTS):
            x = row[0]
            expect(-1e-9 <= x <= d + 1e-9, f"chaos n={n}: x_1 = {x} outside [0, {d}]")
            expect(all(abs(row[k - 1] - x**k) <= 1e-9 for k in range(2, n + 1)),
                   f"chaos n={n}: point {row} is off the moment curve")

    def tamper(self) -> None:
        """Copy the n = 3 system with a positive entry above the diagonal of one map.

        Entry (0, 2) of a lower-triangular L turns det into
        det(L)·(1 + e·(L⁻¹)[2][0]); for these maps (L⁻¹)[2][0] ≥ 0, so a
        positive e keeps the map invertible, and e ≤ 1/1000 keeps it
        contractive.  verify must then name the map and exit 1.
        """
        data = read_json(self.path(f"moment{self.TAMPERED_DIM}.json"))
        self.tampered_map = int(self.tamper_fraction * len(data["maps"]))
        data["maps"][self.tampered_map]["matrix"][0][2] = f"1/{self.tamper_denominator}"
        write_json(self.path("tampered.json"), data)

    def check_tampered(self, result: CliResult) -> None:
        named = {line.split(",")[0].split()[1] for line in result.out.splitlines()
                 if line.startswith("  map ")}
        expect(" 0 violations" not in result.out and named == {str(self.tampered_map)},
               f"tampered map {self.tampered_map} not reported: {result.out.strip()[:300]!r}")


VERDICT_MOMENT = "affine image of moment curve, p_k = k"
VERDICT_GAP = "p-curve with exponent gap (not moment)"


class GermClassification:
    """classify on seeded order-16 germs for n = 2..6, plus series and recenter sweeps.

    Each germ is A·η_p(φ(t)) + b with a dense random φ, φ′(0) = 1, and
    exponent profile p either (1, …, n) or with one exponent left out,
    so its verdict is known by construction.  Exact linear algebra and
    the series kernel do nearly all the work: no IFS, no sampler.
    """

    DIMS = range(2, 7)
    ORDER = 16
    ROUND_TRIPS = 6
    RECENTER_TOP = 9  # every strictly increasing profile from 1 up to this exponent

    def __init__(self, seed: int, workdir: str) -> None:
        rng = random.Random(f"germ-classification:{seed}")
        self.dir = workdir
        self.germs = []
        for n in self.DIMS:
            for moment in (True, False):
                self.germs.append(self.write_germ(rng, n, moment))
        self.series = [self.dense_series(rng) for _ in range(self.ROUND_TRIPS)]
        self.t1 = oracles.random_rational(rng, 7)
        self.profiles = [(1,) + rest for size in range(self.RECENTER_TOP)
                         for rest in combinations(range(2, self.RECENTER_TOP + 1), size)]

    def dense_series(self, rng: random.Random) -> list[Fraction]:
        return [Fraction(0)] + [oracles.random_rational(rng, 7) for _ in range(self.ORDER)]

    def write_germ(self, rng: random.Random, n: int, moment: bool):
        if moment:
            profile = tuple(range(1, n + 1))
        else:
            dropped = rng.randint(2, n)
            profile = tuple(p for p in range(1, n + 2) if p != dropped)
        while True:
            a = [[oracles.random_rational(rng, 5) for _ in range(n)] for _ in range(n)]
            try:
                a_inverse = oracles.mat_inverse(a)
                break
            except ZeroDivisionError:
                continue
        b = [oracles.random_rational(rng, 5) for _ in range(n)]
        phi = self.dense_series(rng)
        phi[1] = Fraction(1)
        powers = oracles.series_powers(phi, profile[-1], self.ORDER)
        model = [powers[p - 1] for p in profile]  # η_p(φ(t)), one row per coordinate
        coords = [[sum(a[i][j] * model[j][m] for j in range(n)) + (b[i] if m == 0 else 0)
                   for m in range(self.ORDER + 1)] for i in range(n)]
        ratio = Fraction(1, rng.randint(2, 5))
        diagonal = [[ratio**p if i == j else Fraction(0) for j, p in enumerate(profile)]
                    for i in range(n)]
        m_matrix = oracles.mat_mul(oracles.mat_mul(a, diagonal), a_inverse)
        kind = "moment" if moment else "gap"
        germ_path = os.path.join(self.dir, f"germ{n}-{kind}.json")
        map_path = os.path.join(self.dir, f"map{n}-{kind}.json")
        write_json(germ_path, {"t0": "0", "order": self.ORDER,
                               "coords": [[q(c) for c in row] for row in coords]})
        write_json(map_path, {"matrix": [[q(x) for x in row] for row in m_matrix],
                              "J": [[q(x) for x in row] for row in a]})
        t1 = oracles.random_rational(rng, 7)
        return germ_path, map_path, t1, profile, ratio, moment

    def round(self) -> list[Job]:
        jobs = []
        for germ_path, map_path, t1, profile, ratio, moment in self.germs:
            def check(result, profile=profile, ratio=ratio, moment=moment):
                payload = json.loads(result.out)
                expected = VERDICT_MOMENT if moment else VERDICT_GAP
                expect(payload["verdict"] == expected and payload["exponents"] == list(profile)
                       and Fraction(payload["eigenvalue"]) == ratio,
                       f"germ with profile {profile}: got {payload['verdict']!r}, "
                       f"exponents {payload['exponents']}, eigenvalue {payload['eigenvalue']}")
            jobs.append(cli_job(["classify", germ_path, map_path, f"--t1={q(t1)}",
                                 "--format", "json"], check))
        jobs.append(Job("lib.series_round_trips", self.round_trips, self.check_round_trips))
        jobs.append(Job("lib.recenter_sweep", self.recenter_sweep, self.check_recenter))
        return jobs

    def round_trips(self):
        results = []
        for coefficients in self.series:
            s = series.TruncatedSeries.from_coefficients(coefficients)
            reverse = series.series_reverse(s)
            results.append((reverse.coefficients(), series.series_compose(s, reverse).coefficients()))
        return results

    def check_round_trips(self, results) -> None:
        identity = [Fraction(0), Fraction(1)] + [Fraction(0)] * (self.ORDER - 1)
        for _, composed in results:
            expect(list(composed) == identity, "compose(s, reverse(s)) is not t")
        oracle = oracles.lagrange_reverse(self.series[0], self.ORDER)
        expect(list(results[0][0]) == oracle, "series_reverse differs from Lagrange inversion")

    def recenter_sweep(self):
        return [classifier.solve_recenter(profile, self.t1) for profile in self.profiles]

    def check_recenter(self, results) -> None:
        for profile, result in zip(self.profiles, results):
            moment = profile == tuple(range(1, len(profile) + 1))
            expect(result.feasible == moment, f"recenter {profile}: feasible = {result.feasible}")
            if not moment:
                missing = min(set(range(1, profile[-1] + 1)) - set(profile))
                expect(result.witness_degree == missing,
                       f"recenter {profile}: witness t^{result.witness_degree}, expected t^{missing}")
                continue
            # (t − t1)^p_k = Σ_j matrix[k][j]·(t^p_j − t1^p_j), coefficient by coefficient
            for p, row in zip(profile, result.matrix):
                left = [math.comb(p, m) * (-self.t1) ** (p - m) for m in range(p + 1)]
                right = [Fraction(0)] * (profile[-1] + 1)
                for coefficient, pj in zip(row, profile):
                    right[pj] += coefficient
                    right[0] -= coefficient * self.t1**pj
                expect(left + [0] * (len(right) - len(left)) == right,
                       f"recenter {profile}: row for t^{p} is not an identity")


class SurfaceObstruction:
    """paraboloid → chaos for n = 2..8, chaos on dense conjugates, scaling,
    compactness-demo, library sweeps.

    Few maps and many sampler steps, general dense matrices next to the
    program's triangular paraboloid maps, plus polynomial pullback and
    scaling work: the opposite shape of MomentPipeline on the same
    sampler and IFS layers.
    """

    DIMS = range(2, 9)
    CHAOS_POINTS = 20_000
    RANDOM_MAPS = 6
    DEMO_DEPTH = 12
    DEMO_POINTS = 64
    LINE_DEPTH = 6
    PARABOLOID_DEPTH = 3
    PARABOLOID_SWEEP_DIMS = (3, 5)
    DENSE_DIMS = (5, 6, 7, 8)
    DENSE_PIECES = 128
    DENSE_POINTS = 2_000

    def __init__(self, seed: int, workdir: str) -> None:
        rng = random.Random(f"surface-obstruction:{seed}")
        self.dir = workdir
        self.seed = seed
        self.chaos_seed = rng.randrange(2**32)
        self.bases = {n: self.base_maps(rng) for n in self.DIMS}
        self.write_text("circle.txt", "x1^2 + x2^2 - 1")
        self.write_text("line.txt", "x2 - x1")
        for k in range(self.RANDOM_MAPS):
            matrix = [[oracles.random_rational(rng, 7) / 6 for _ in range(2)] for _ in range(2)]
            translation = [oracles.random_rational(rng, 7) for _ in range(2)]
            self.write_map(f"random{k}.json", matrix, translation)
        half = [[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(1, 2)]]
        self.line_maps = []
        for name in ("f", "g"):
            shift = oracles.random_rational(rng, 7)
            self.line_maps.append((half, [shift, shift]))
            self.write_map(f"line-{name}.json", half, [shift, shift])
        self.rho = Fraction(rng.randint(1, 4), 5)
        zero = Fraction(0)
        self.write_map("rho.json", [[self.rho, zero], [zero, self.rho]], [zero, zero])
        self.points = [[oracles.random_rational(rng, 7) for _ in range(2)] for _ in range(3)]
        self.dense_inverses = {n: self.write_dense(rng, n) for n in self.DENSE_DIMS}

    def write_dense(self, rng: random.Random, n: int) -> list[list[float]]:
        """Write A·f·A⁻¹ for DENSE_PIECES paraboloid maps f; return A⁻¹ in floats.

        The base maps c·x + d tile [0, 1/4] in pieces of about 1/(4k), and
        A = I + E with |E_ij| < 1/(2n), so every conjugate is a dense
        matrix with row sums below 1/4: contractive, and by far not
        triangular.  A⁻¹ takes its attractor back onto the paraboloid.
        """
        k = self.DENSE_PIECES
        cuts = [Fraction(0)] + [Fraction(4 * i + rng.randint(-1, 1), 16 * k) for i in range(1, k)] \
            + [Fraction(1, 4)]
        a = [[oracles.random_rational(rng, 7) / (4 * n) + (1 if i == j else 0) for j in range(n)]
             for i in range(n)]
        a_inverse = oracles.mat_inverse(a)
        conjugate = oracles.paraboloid_conjugates(a, a_inverse)
        maps = []
        for left, right in zip(cuts, cuts[1:]):
            c, d = ((right - left) * 4, left) if rng.random() < 0.5 else ((left - right) * 4, right)
            maps.append(conjugate(c, d))
        write_json(self.path(f"dense{n}.json"), {"dim": n, "maps": [
            {"matrix": [[q(x) for x in row] for row in matrix], "translation": [q(x) for x in translation]}
            for matrix, translation in maps]})
        return [[float(x) for x in row] for row in a_inverse]

    @staticmethod
    def base_maps(rng: random.Random) -> list[tuple[Fraction, Fraction]]:
        """Four maps c·x + d whose images tile [0, 1/4] exactly.

        Each piece is 1/8 to 3/8 of the interval and |d| ≤ 1/4, so up to
        n = 8 the lifted maps have spectral norm at most
        √(c² + 7(2cd)² + c⁴) ≤ 0.64.
        """
        cuts = [Fraction(0)] + [Fraction(4 * k + rng.randint(-1, 1), 64) for k in (1, 2, 3)] \
            + [Fraction(1, 4)]
        pieces = []
        for left, right in zip(cuts, cuts[1:]):
            c = (right - left) * 4
            pieces.append((c, left) if rng.random() < 0.5 else (-c, right))
        return pieces

    def write_text(self, name: str, text: str) -> None:
        with open(os.path.join(self.dir, name), "w", encoding="utf-8") as handle:
            handle.write(text + "\n")

    def write_map(self, name: str, matrix, translation) -> None:
        write_json(os.path.join(self.dir, name), {
            "matrix": [[q(x) for x in row] for row in matrix],
            "translation": [q(x) for x in translation],
        })

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def spec(self, n: int):
        return paraboloid.ParaboloidSpec(n, Fraction(0), Fraction(1, 4), tuple(self.bases[n]))

    def round(self) -> list[Job]:
        jobs = []
        for n in self.DIMS:
            system = self.path(f"paraboloid{n}.json")
            base = ",".join(f"{q(c)}:{q(d)}" for c, d in self.bases[n])
            jobs += [
                cli_job(["paraboloid", "--dim", str(n), "--c", "0", "--d", "1/4",
                         f"--base={base}", "--output", system],
                        lambda r, n=n: self.check_paraboloid(n), ifs_file=system),
                cli_job(["chaos", system, "--points", str(self.CHAOS_POINTS),
                         "--seed", str(self.chaos_seed), "--output", self.path(f"chaos{n}.csv")],
                        lambda r, n=n: self.check_chaos(n), ifs_file=system),
            ]
        for n in self.DENSE_DIMS:
            system = self.path(f"dense{n}.json")
            jobs.append(cli_job(["chaos", system, "--points", str(self.DENSE_POINTS),
                                 "--seed", str(self.chaos_seed), "--output", self.path(f"dense{n}.csv")],
                                lambda r, n=n: self.check_dense(n), ifs_file=system))
        for k in range(self.RANDOM_MAPS):
            jobs.append(cli_job(["scaling", self.path("circle.txt"), self.path(f"random{k}.json")],
                                self.check_absent, code=1))
        for name, f in zip(("f", "g"), self.line_maps):
            jobs.append(cli_job(["scaling", self.path("line.txt"), self.path(f"line-{name}.json")],
                                lambda r, f=f: self.check_line(f, r)))
        jobs.append(cli_job(["compactness-demo", self.path("circle.txt"), self.path("rho.json"),
                             "--depth", str(self.DEMO_DEPTH), "--points", str(self.DEMO_POINTS)],
                            self.check_demo))
        jobs.append(Job("lib.conjugation_sweep", self.conjugation_sweep,
                        lambda results: expect(all(results), "paraboloid conjugation rejected")))
        jobs.append(Job("lib.fixed_point_sweep", self.fixed_point_sweep, self.check_fixed_points))
        return jobs

    def check_paraboloid(self, n: int) -> None:
        data = read_json(self.path(f"paraboloid{n}.json"))
        expect(data["dim"] == n and len(data["maps"]) == len(self.bases[n]),
               f"paraboloid n={n}: wrong dimension or map count")
        rng = random.Random(f"paraboloid-check:{self.seed}:{n}")
        for entry, (c, d) in zip(data["maps"], self.bases[n]):
            x = [oracles.random_rational(rng, 7) for _ in range(n - 1)]
            matrix = [[Fraction(v) for v in row] for row in entry["matrix"]]
            translation = [Fraction(v) for v in entry["translation"]]
            image = oracles.apply_affine(matrix, translation, oracles.paraboloid_point(x))
            expect(image == oracles.paraboloid_point([c * v + d for v in x]),
                   f"paraboloid n={n}: f(η(x)) != η(cx + d)")

    def check_chaos(self, n: int) -> None:
        for row in read_cloud(self.path(f"chaos{n}.csv"), n, self.CHAOS_POINTS):
            expect(abs(row[-1] - sum(v * v for v in row[:-1])) <= 1e-9,
                   f"chaos n={n}: point {row} is off the paraboloid")

    def check_dense(self, n: int) -> None:
        a_inverse = self.dense_inverses[n]
        for row in read_cloud(self.path(f"dense{n}.csv"), n, self.DENSE_POINTS):
            y = [sum(m * x for m, x in zip(inverse_row, row)) for inverse_row in a_inverse]
            expect(abs(y[-1] - sum(v * v for v in y[:-1])) <= 1e-9,
                   f"dense chaos n={n}: A⁻¹ takes point {row} off the paraboloid")

    def check_absent(self, result: CliResult) -> None:
        expect("absent" in result.out, f"circle scaling not reported absent: {result.out!r}")

    def check_line(self, f, result: CliResult) -> None:
        expect("C = 1/2" in result.out and "[fixed-point-on-surface]" in result.out,
               f"line pair: expected C = 1/2, got {result.out!r}")
        line = {(0, 1): Fraction(1), (1, 0): Fraction(-1)}
        for point in self.points:
            image = oracles.apply_affine(f[0], f[1], point)
            expect(oracles.eval_poly(line, image) == oracles.eval_poly(line, point) / 2,
                   f"P∘f != P/2 at {point}")

    def check_demo(self, result: CliResult) -> None:
        # P_j = ρ^(−2j)(x1² + x2²) − 1, so P_2 = −ρ^(−2)·P_0 + (1 + ρ^(−2))·P_1 and rank 2
        s = self.rho**-2
        witness = f"P_2 = ({-s})·P_0 + ({1 + s})·P_1"
        rank = f"coefficient rank 2 over {self.DEMO_DEPTH + 1} pullbacks"
        expect(witness in result.out and rank in result.out,
               f"compactness-demo ρ = {self.rho}: expected {witness!r} and {rank!r}")

    def conjugation_sweep(self):
        return [paraboloid.verify_paraboloid_conjugation(self.spec(n)) for n in self.DIMS]

    def fixed_point_sweep(self):
        line = polynomials.parse_polynomial("x2 - x1")
        maps = [affine.AffineMap(matrix, translation) for matrix, translation in self.line_maps]
        reports = [(None, polynomials.verify_fixed_points_on_surface(line, maps, self.LINE_DEPTH))]
        for n in self.PARABOLOID_SWEEP_DIMS:
            ifs = paraboloid.build_paraboloid_ifs(self.spec(n))
            surface = paraboloid.paraboloid_polynomial(n)
            reports.append((n, polynomials.verify_fixed_points_on_surface(
                surface, list(ifs.maps), self.PARABOLOID_DEPTH)))
        return reports

    def check_fixed_points(self, reports) -> None:
        for n, report in reports:
            if n is None:
                scale, depth, words = [Fraction(1, 2)] * 2, self.LINE_DEPTH, 2
            else:
                scale, depth, words = [c * c for c, _ in self.bases[n]], self.PARABOLOID_DEPTH, 4
            expected = sum(words**k for k in range(1, depth + 1))
            expect(report.ok and report.words_checked == expected,
                   f"fixed points (n={n}): {report.words_checked} words, violations {report.violations[:2]}")
            for word in report.checks:
                expect(word.fixed_point_value == 0 and word.constant == math.prod(scale[i] for i in word.word),
                       f"fixed points (n={n}): word {word.word} has C = {word.constant}")


WORKLOADS = {
    "moment-pipeline": MomentPipeline,
    "germ-classification": GermClassification,
    "surface-obstruction": SurfaceObstruction,
}
