"""Command-line interface for building, sampling, and verifying systems.

Subcommands: build-moment, paraboloid, chaos, render, verify, scaling,
classify, compactness-demo.  Exact inputs are rational strings ("p/q");
decimal floats are rejected everywhere except the sampling parameters
of chaos/render.  Exit codes: 0 all checks passed, 1 a check failed,
2 malformed input (with a machine-readable JSON error on stderr).
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from fractions import Fraction
from functools import cache
from itertools import chain
from typing import Optional, Sequence

from .affine import (
    _WORD_GUARD, _float_array, _ifs_header, _rows_to_jsonable, ifs_from_jsonable, map_from_jsonable,
    matrix_from_jsonable,
)
from .attractor import _EXACT_DIAMETER_LIMIT, _check_steps, chaos_game
from .classifier import classify_curve, germ_from_jsonable
from .cloud import _BLOCK_ROWS, PointCloud, _check_projection, _open_for_write, write_csv, write_svg
from .exactlinalg import identity
from .moment import (
    MomentCurveSpec, _recipe_meta, build_moment_ifs, choose_anchors, lambda_bound, read_recipe,
    verify_moment_invariance,
)
from .paraboloid import ParaboloidSpec, build_paraboloid_ifs
from .polynomials import format_polynomial, parse_polynomial, scaling_certificate
from .pullback import (
    _RESIDUAL_TOLERANCE, circle_polynomial, dependency_witness,
    diameter_decay_report, pullback_sequence, rational_circle_points,
)
from .rationals import format_rational, parse_rational

__all__ = ["main"]


def _json_text(data) -> str:
    return json.dumps(data, indent=2) + "\n"


def _emit(text: str, output: Optional[str]) -> None:
    with _open_for_write(output or sys.stdout) as handle:
        handle.write(text)


def _load_json(path: str):
    """The JSON document at `path`; bad JSON, bad UTF-8 or deep nesting raise ValueError naming it."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except RecursionError:
            raise ValueError(f"{path}: JSON nesting is too deep") from None
        except ValueError as exc:  # json.JSONDecodeError and UnicodeDecodeError alike
            raise ValueError(f"{path}: {exc}") from None


def _parse_anchor_list(text: str) -> list[Fraction]:
    try:
        return [parse_rational(piece) for piece in text.split(",") if piece.strip()]
    except ValueError as exc:
        raise ValueError(f"--anchors: {exc}") from None


def _load_one_map(path: str):
    """A one-map file's map object, and its "dim" when it is {"dim", "maps": [map]}, else None."""
    entry, dim = _load_json(path), None
    if isinstance(entry, dict) and "maps" in entry:
        dim, entries = _ifs_header(entry)
        if "J" in entry:
            raise ValueError(f'{path}: "J" belongs in the map object, not beside "dim"')
        if len(entries) != 1:
            raise ValueError(f"{path}: expected exactly one map")
        entry = entries[0]
    if not isinstance(entry, dict):
        raise ValueError(f"{path}: the map must be a JSON object")
    return entry, dim


def _load_polynomial_and_map(args):
    with open(args.polynomial, "r", encoding="utf-8") as handle:
        poly = parse_polynomial(handle.read())
    return poly, map_from_jsonable(*_load_one_map(args.map))


def _check_format(value: str, allowed: Sequence[str], subcommand: str) -> None:
    if value not in allowed:
        raise ValueError(
            f"{subcommand} supports --format {{{','.join(allowed)}}}, got {value!r}"
        )


def _write_built(ifs, meta: dict, args, lines) -> int:
    """Write a built system's JSON, then report `lines` and how many maps each route certified.

    The text is json.dumps of {"dim", "maps", "meta"} with indent=2, byte for byte, but no
    dict or text of the whole system is made: json.dumps lays out the frame and one map of
    "%s" slots, and the maps' cleared rows fill that template _BLOCK_ROWS at a time.
    """
    dim, rows, certificates = ifs.dim, ifs._rows, ifs.certificates
    head, tail = _json_text({"dim": dim, "maps": [None], "meta": meta}).split("null", 1)
    slots = {"matrix": [["%s"] * dim] * dim, "translation": ["%s"] * dim}
    template = json.dumps(slots, indent=2).replace("\n", "\n    ")  # a map sits 4 spaces in
    separator = ",\n    "
    with _open_for_write(args.output or sys.stdout) as handle:
        handle.write(head)
        for start in range(0, len(rows), _BLOCK_ROWS):
            block = [_rows_to_jsonable(entry) for entry in rows[start:start + _BLOCK_ROWS]]
            texts = tuple(text for entry in block
                          for text in chain(*entry["matrix"], entry["translation"]))
            handle.write(separator * bool(start) + separator.join([template] * len(block)) % texts)
        handle.write(tail)
    worst = max(c.norm_bound for c in certificates)
    exact = sum(c.route == "row-sum-bound" for c in certificates)
    print(*lines, f"[row-sum-bound] {exact}/{len(certificates)} maps certified by the exact "
          f"row-sum route; all norms < 1 (worst bound {worst:.6g})",
          sep="\n", file=sys.stdout if args.output else sys.stderr)
    return 0


def _cmd_build_moment(args) -> int:
    spec = MomentCurveSpec(args.dim, parse_rational(args.c), parse_rational(args.d))
    ceiling = lambda_bound(spec)
    ratio = parse_rational(args.ratio) if args.ratio else ceiling / 2
    anchors = _parse_anchor_list(args.anchors) if args.anchors else choose_anchors(spec, ratio)
    recipe = build_moment_ifs(spec, ratio, anchors)
    return _write_built(recipe.ifs, _recipe_meta(recipe), args, [
        f"[lambda-bound] admissible ceiling {format_rational(ceiling)}, "
        f"using lambda = {format_rational(ratio)}",
        f"[interval-tiling] {len(anchors)} anchor images tile "
        f"[{format_rational(spec.c)}, {format_rational(spec.d)}] exactly"])


def _parse_base_pairs(text: str) -> list[tuple[Fraction, Fraction]]:
    pairs = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if ":" not in piece:
            raise ValueError("--base expects comma-separated c:d pairs, e.g. 1/2:0,1/2:1/2")
        left, right = piece.split(":", 1)
        pairs.append((parse_rational(left), parse_rational(right)))
    if not pairs:
        raise ValueError("--base needs at least one c:d pair")
    return pairs


def _cmd_paraboloid(args) -> int:
    spec = ParaboloidSpec(
        args.dim,
        parse_rational(args.c),
        parse_rational(args.d),
        tuple(_parse_base_pairs(args.base)),
    )
    ifs = build_paraboloid_ifs(spec)
    meta = {
        "surface": "paraboloid",
        "a": format_rational(spec.a),
        "b": format_rational(spec.b),
        "base": [[format_rational(c), format_rational(d)] for c, d in spec.base_maps],
    }
    return _write_built(ifs, meta, args, [
        f"[paraboloid-conjugation] f_i∘η = η∘(c_i·x + d_i) holds exactly for all {len(ifs)} maps",
        f"[interval-tiling] base images tile [{format_rational(spec.a)}, "
        f"{format_rational(spec.b)}] exactly"])


def _chaos_cloud(args, projection=None):
    """The chaos-game cloud that chaos and render write, `projection` checked before the game.

    The sampling options are checked before the file is loaded.  A file that
    read_recipe rejects, moment meta or not, is read by ifs_from_jsonable.
    """
    if args.points <= 0:
        raise ValueError("--points must be positive")
    if args.burn_in < 0:
        raise ValueError("--burn-in must be nonnegative")
    _check_steps(args.points + args.burn_in, args.burn_in)
    if args.seed < 0:
        raise ValueError("--seed must be a nonnegative integer")
    data = _load_json(args.ifs)
    try:
        system = read_recipe(data).ifs
    except ValueError:
        system = ifs_from_jsonable(data)
    if projection is not None:
        _check_projection(projection, data["dim"])  # both readers checked it
    del data  # the system holds all the game needs, and the parsed document can be freed
    return chaos_game(system, args.points + args.burn_in, args.burn_in, args.seed)


def _cmd_chaos(args) -> int:
    write_csv(_chaos_cloud(args), args.output if args.output else sys.stdout)
    return 0


def _cmd_render(args) -> int:
    projection = tuple(args.project)
    write_svg(_chaos_cloud(args, projection), args.output or sys.stdout, projection=projection)
    return 0


def _cmd_verify(args) -> int:
    if args.points < 2:
        raise ValueError("--points must be at least 2")
    recipe = read_recipe(_load_json(args.ifs))
    checks = args.points * len(recipe.anchors)
    if checks > _WORD_GUARD:
        raise ValueError(f"--points {args.points} on {len(recipe.anchors)} maps gives "
                         f"{checks} checks, above the guard {_WORD_GUARD}")
    spec = recipe.spec
    step = (spec.d - spec.c) / (args.points - 1)
    samples = [spec.c + k * step for k in range(args.points)]
    result = verify_moment_invariance(recipe, samples)
    print(f"[moment-invariance] f_i(η(t)) = η(λ(t−c)+t_i): {result.checks} exact checks, "
          f"{len(result.counterexamples)} violations")
    if result.counterexamples:
        for bad in result.counterexamples[:5]:
            print(f"  map {bad.map_index}, t = {format_rational(bad.sample)}: "
                  f"image {tuple(map(format_rational, bad.image))} != "
                  f"expected {tuple(map(format_rational, bad.expected))}")
        return 1
    return 0


def _cmd_scaling(args) -> int:
    poly, f = _load_polynomial_and_map(args)
    # certified before anything is printed, so a map it rejects leaves stdout empty
    certificate = scaling_certificate(poly, f)
    if certificate is None:
        print(f"[scaling-identity] absent: P∘f is not proportional to P "
              f"for P = {format_polynomial(poly)}")
        return 1
    print(f"[scaling-identity] P∘f = C·P with C = {format_rational(certificate.constant)}")
    print(f"[fixed-point-on-surface] P(fixed point of f) = "
          f"{format_rational(certificate.fixed_point_value)}; |C| < 1")
    return 0


def _cmd_classify(args) -> int:
    germ, _t0 = germ_from_jsonable(_load_json(args.germ))
    if args.order is not None:
        germ = germ.truncate(args.order)
    entry, dim = _load_one_map(args.map)
    m_matrix = matrix_from_jsonable(entry.get("matrix"), "matrix")
    if dim not in (None, len(m_matrix)):
        raise ValueError(f"map: matrix must have {dim} rows")  # as map_from_jsonable says it
    j_matrix = identity(germ.dim) if entry.get("J") is None else matrix_from_jsonable(entry["J"], "J")
    result = classify_curve(germ, m_matrix, j_matrix, parse_rational(args.t1))
    if args.format == "json":
        payload = {
            "verdict": result.verdict,
            "eigenvalue": format_rational(result.eigenvalue),
            "exponents": list(result.exponents) if result.exponents else None,
            "stages": list(result.stages),
        }
        _emit(_json_text(payload), args.output)
    else:
        lines = list(result.stages) + [f"verdict: {result.verdict}"]
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_compactness_demo(args) -> int:
    if args.depth < 0:
        raise ValueError("--depth must be nonnegative")
    if args.points < 4:
        raise ValueError("--points must be at least 4")
    if args.points > _EXACT_DIAMETER_LIMIT:
        raise ValueError(f"--points {args.points} is above the cap {_EXACT_DIAMETER_LIMIT}")
    if not args.tolerance > 0:  # NaN is refused too
        raise ValueError("--tolerance must be positive")
    poly, f = _load_polynomial_and_map(args)
    if poly != circle_polynomial():
        raise ValueError(
            "built-in zero samples exist only for the unit circle "
            "x1^2 + x2^2 - 1; other surfaces need library-level sampling"
        )
    seq = pullback_sequence(poly, f, args.depth)
    samples = rational_circle_points(args.points)
    cloud = PointCloud(2, _float_array(samples))
    report = diameter_decay_report(seq, cloud, tolerance=args.tolerance)
    basis = report.basis
    lines = []
    if args.format == "csv":
        lines.append("j,rank_so_far,sampled_diameter,max_residual")
        for row in report.rows:
            lines.append(f"{row.j},{row.rank_so_far},{row.sampled_diameter:.17g},"
                         f"{row.max_residual:.17g}")
    else:
        lines.append(f"{'j':>4} {'rank':>5} {'sampled diameter':>20} {'max residual':>14}")
        for row in report.rows:
            lines.append(f"{row.j:>4} {row.rank_so_far:>5} "
                         f"{row.sampled_diameter:>20.12g} {row.max_residual:>14.3g}")
    dependent = next((j for j in range(len(seq)) if j not in basis), None)
    if dependent is not None:
        witness = dependency_witness(seq, dependent, basis)
        combo = " + ".join(
            f"({format_rational(c)})·P_{k}" for c, k in zip(witness, basis)
        )
        lines.append(f"[dependency-witness] P_{dependent} = {combo} (exact re-expansion)")
    lines.append(f"[rank-bound] coefficient rank {len(basis)} over {len(seq)} pullbacks")
    lines.append(f"[diameter-decay] sampled diameters shrink like ‖M‖^j; "
                 f"{len(report.violations)} violations")
    lines.append(report.conclusion)
    _emit("\n".join(lines) + "\n", args.output)
    if report.violations:
        for violation in report.violations[:5]:
            print(f"  {violation}", file=sys.stderr)
        return 1
    return 0


@cache  # built on the first main() call, then reused by every later call in the process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selfaffine",
        description="Exact self-affine systems on curves and surfaces: "
        "build, sample, render, verify, classify.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("build-moment", help="build the moment-curve IFS for η([c,d])")
    p.add_argument("--dim", type=int, required=True, help="curve dimension n ≥ 2")
    p.add_argument("--c", required=True, help="left endpoint (rational string)")
    p.add_argument("--d", required=True, help="right endpoint (rational string)")
    p.add_argument("--lambda", dest="ratio", default=None,
                   help="contraction ratio (rational; default: half the admissible ceiling)")
    p.add_argument("--anchors", default=None,
                   help="comma-separated anchor list (default: uniform tiling grid)")
    p.add_argument("--output", default=None, help="write IFS JSON here (default stdout)")
    p.add_argument("--format", default="json")
    p.set_defaults(handler=_cmd_build_moment, formats=("json",))

    p = sub.add_parser("paraboloid", help="build the paraboloid-embedded IFS")
    p.add_argument("--dim", type=int, required=True, help="ambient dimension n ≥ 2")
    p.add_argument("--c", required=True, help="base interval left endpoint a")
    p.add_argument("--d", required=True, help="base interval right endpoint b")
    p.add_argument("--base", required=True,
                   help="comma-separated c:d pairs for the 1-D base maps, e.g. 1/2:0,1/2:1/2")
    p.add_argument("--output", default=None, help="write IFS JSON here (default stdout)")
    p.add_argument("--format", default="json")
    p.set_defaults(handler=_cmd_paraboloid, formats=("json",))

    p = sub.add_parser("chaos", help="sample an attractor to CSV via the chaos game")
    p.add_argument("ifs", help="IFS JSON file")
    p.add_argument("--points", type=int, default=100_000, help="points to keep")
    p.add_argument("--burn-in", dest="burn_in", type=int, default=100)
    p.add_argument("--seed", type=int, default=0, help="PCG64 seed")
    p.add_argument("--output", default=None, help="CSV path (default stdout)")
    p.add_argument("--format", default="csv")
    p.set_defaults(handler=_cmd_chaos, formats=("csv",))

    p = sub.add_parser("render", help="render an attractor scatter to SVG")
    p.add_argument("ifs", help="IFS JSON file")
    p.add_argument("--points", type=int, default=20_000)
    p.add_argument("--burn-in", dest="burn_in", type=int, default=100)
    p.add_argument("--seed", type=int, default=0, help="PCG64 seed")
    p.add_argument("--project", type=int, nargs=2, default=(0, 1), metavar=("I", "J"),
                   help="0-based coordinate pair to draw")
    p.add_argument("--output", default=None, help="SVG path (default stdout)")
    p.add_argument("--format", default="svg")
    p.set_defaults(handler=_cmd_render, formats=("svg",))

    p = sub.add_parser("verify", help="exact invariance check of a moment recipe")
    p.add_argument("ifs", help="IFS JSON file with recipe meta")
    p.add_argument("--points", type=int, default=100, help="rational sample count")
    p.add_argument("--format", default="text")
    p.set_defaults(handler=_cmd_verify, formats=("text",))

    p = sub.add_parser("scaling", help="detect P∘f = C·P for a polynomial and a map")
    p.add_argument("polynomial", help="polynomial text file")
    p.add_argument("map", help="single-map JSON file")
    p.add_argument("--format", default="text")
    p.set_defaults(handler=_cmd_scaling, formats=("text",))

    p = sub.add_parser("classify", help="classify a curve germ against the moment curve")
    p.add_argument("germ", help="germ JSON file")
    p.add_argument("map", help='JSON file with "matrix" M and optional basis "J"')
    p.add_argument("--t1", required=True, help="nonzero recentering parameter (rational)")
    p.add_argument("--order", type=int, default=None, help="truncate the germ to this order")
    p.add_argument("--output", default=None)
    p.add_argument("--format", default="text")
    p.set_defaults(handler=_cmd_classify, formats=("text", "json"))

    p = sub.add_parser("compactness-demo",
                       help="pullback rank and zero-set decay table for the circle")
    p.add_argument("polynomial", help="polynomial text file")
    p.add_argument("map", help="single-map JSON file")
    p.add_argument("--depth", type=int, default=10, help="number of pullbacks m (at most 100)")
    p.add_argument("--points", type=int, default=64, help="circle sample count (at most 10000)")
    p.add_argument("--tolerance", type=float, default=_RESIDUAL_TOLERANCE,
                   help="relative residual tolerance")
    p.add_argument("--output", default=None)
    p.add_argument("--format", default="text")
    p.set_defaults(handler=_cmd_compactness_demo, formats=("text", "csv"))

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()  # no command makes a reference cycle, so the collector would rescan for nothing
    try:
        _check_format(args.format, args.formats, args.subcommand)
        return args.handler(args)
    except BrokenPipeError:
        return 0
    except (ValueError, OSError, KeyError) as exc:
        sys.stderr.write(json.dumps({"error": str(exc)}) + "\n")
        return 2
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
