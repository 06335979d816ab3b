"""Command-line front-end and the stable JSON schema ("lexineq/1").

Commands::

    lexineq solve EXPR [--verify] [--json PATH] [--eps EPS] [--strict]
    lexineq check EXPR --at COMPLEX
    lexineq raster EXPR --window a,b,c,d --res nx,ny --out PATH [--format pgm|csv]
    lexineq laws [--seed N] [--samples N]

Exit status: 0 on success; 1 on parse/classification errors, on an
output file that cannot be written and when laws are not as expected;
2 when --verify finds a mismatch or asserts no probe at all (every
non-pole probe within eps of the boundary), and on a malformed command
line (argparse's usage error).
All outputs are deterministic for fixed inputs and seed: dictionaries
are emitted in fixed order and floats as their shortest round-trippable
decimals.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import oracle
from .errors import LexineqError, ParseError
from .normalize import classify_problem_ex, problem_kind
from .parser import parse_complex, parse_input, source_to_text
from .region import (
    Disc,
    Generic,
    HyperbolaDomain,
    Invert,
    ObliqueHalfPlane,
    Region,
    Rotate,
    Scale,
    Sqrt,
    Translate,
    VerticalHalfPlane,
    classify,
)
from .solver import solve

TYPE_CHECKING = False  # type checkers read it as True; saves importing typing
if TYPE_CHECKING:
    from collections.abc import Sequence

    from .laws import LawReport

SCHEMA = "lexineq/1"

_MISMATCH_CAP = 100  # mismatches listed in JSON; the count is always exact


def complex_to_json(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def region_to_json(region: Region) -> dict:
    transforms = []
    for t in region.transforms:
        if isinstance(t, Rotate):
            transforms.append({"kind": "rotate", "theta": t.theta})
        elif isinstance(t, Scale):
            transforms.append({"kind": "scale", "r": t.r})
        elif isinstance(t, Translate):
            transforms.append({"kind": "translate", "re": t.offset.real, "im": t.offset.imag})
        elif isinstance(t, Invert):
            transforms.append({"kind": "invert"})
        else:
            transforms.append({"kind": "sqrt"})
    return {"base": complex_to_json(region.base), "transforms": transforms}


def _complex_from_json(doc: dict, what: str) -> complex:
    try:
        return complex(doc["re"], doc["im"])
    except OverflowError:  # an int that no float holds
        raise ValueError(f"{what} lies outside the float range") from None


def region_from_json(doc: dict) -> Region:
    base = _complex_from_json(doc["base"], "base anchor")
    transforms: list = []
    for t in doc["transforms"]:
        kind = t["kind"]
        if kind == "rotate":
            transforms.append(Rotate(t["theta"]))
        elif kind == "scale":
            transforms.append(Scale(t["r"]))
        elif kind == "translate":
            transforms.append(Translate(_complex_from_json(t, "translation offset")))
        elif kind == "invert":
            transforms.append(Invert())
        elif kind == "sqrt":
            transforms.append(Sqrt())
        else:
            raise ValueError(f"unknown transform kind {kind!r}")
    return Region(base, tuple(transforms))


def problem_to_json(problem) -> dict:
    doc = {"kind": problem_kind(problem)}
    for name in problem._fields:
        doc[name] = complex_to_json(getattr(problem, name))
    return doc


def classification_to_json(c) -> dict:
    if isinstance(c, VerticalHalfPlane):
        return {"kind": "vertical-half-plane", "boundary_re": c.boundary_re,
                "boundary_note": c.boundary_note}
    if isinstance(c, ObliqueHalfPlane):
        return {"kind": "oblique-half-plane", "normal_angle": c.normal_angle,
                "offset": c.offset, "boundary_note": c.boundary_note}
    if isinstance(c, Disc):
        return {"kind": "disc", "center": complex_to_json(c.center), "radius": c.radius,
                "boundary_note": c.boundary_note}
    if isinstance(c, HyperbolaDomain):
        return {"kind": "hyperbola-domain", "a1": c.a1, "connected": c.connected,
                "contains_origin": c.contains_origin, "boundary_note": c.boundary_note}
    if isinstance(c, Generic):
        return {"kind": "generic", "boundary_note": c.boundary_note}
    raise TypeError(f"not a classification: {c!r}")


def solution_to_json(solution) -> dict:
    return {
        "kind": solution.kind.value,
        "regions": [region_to_json(r) for r in solution.regions],
        "excluded_points": [complex_to_json(p) for p in solution.excluded_points],
        "note": solution.note,
    }


def law_report_to_json(report: LawReport) -> dict:
    from .laws import is_law

    return {
        "law_id": report.law_id,
        "is_law": is_law(report.law_id),
        "samples": report.samples,
        "outcome": report.outcome,
        "witness": None if report.witness is None
        else [complex_to_json(w) for w in report.witness],
    }


def verification_to_json(report: oracle.VerificationReport) -> dict:
    return {
        "total": report.total,
        "skipped_boundary": report.skipped_boundary,
        "skipped_pole": report.skipped_pole,
        "asserted": report.asserted,
        "mismatch_count": len(report.mismatches),
        "mismatches": [
            {"point": complex_to_json(m.point), "expected": m.expected.name.lower(),
             "got": m.got.name.lower()}
            for m in report.mismatches[:_MISMATCH_CAP]
        ],
        "passed": report.passed,
    }


def _parse_window(text: str):
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("window takes four numbers: re_min,re_max,im_min,im_max")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_res(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("res takes two integers: nx,ny")
    try:
        nx, ny = (int(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return nx, ny


def _build_argparser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lexineq",
        description="Solve, check and plot complex inequalities under the dictionary order.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    solve_p = sub.add_parser("solve", help="solve an inequality and emit the solution as JSON")
    solve_p.add_argument("expr")
    solve_p.add_argument("--verify", action="store_true",
                         help="sweep the default grid and compare against direct evaluation")
    solve_p.add_argument("--json", metavar="PATH", default=None,
                         help="write the document to PATH instead of stdout")
    solve_p.add_argument("--eps", type=float, default=oracle.DEFAULT_EPS,
                         help="boundary margin for --verify (default 1e-6)")
    solve_p.add_argument("--strict", action="store_true",
                         help="reject degenerate fractional inequalities instead of "
                              "answering the constant inequality")

    check_p = sub.add_parser("check", help="evaluate an inequality at one point")
    check_p.add_argument("expr")
    check_p.add_argument("--at", required=True, metavar="COMPLEX",
                         help="probe point, e.g. 1+2i or -0.5i")

    raster_p = sub.add_parser("raster", help="rasterize an inequality over a window")
    raster_p.add_argument("expr")
    raster_p.add_argument("--window", type=_parse_window, default=(-5.0, 5.0, -5.0, 5.0),
                          metavar="a,b,c,d", help="re_min,re_max,im_min,im_max (default -5,5,-5,5)")
    raster_p.add_argument("--res", type=_parse_res, default=(201, 201), metavar="nx,ny",
                          help="samples per axis (default 201,201)")
    raster_p.add_argument("--out", required=True, metavar="PATH")
    raster_p.add_argument("--format", choices=("pgm", "csv"), default="pgm")

    laws_p = sub.add_parser("laws", help="run the order-law checker and emit reports as JSON")
    laws_p.add_argument("--seed", type=int, default=0)
    laws_p.add_argument("--samples", type=int, default=10_000)
    return ap


def _cmd_solve(args) -> int:
    exprs = parse_input(args.expr)
    problem, scale = classify_problem_ex(exprs)
    solution = solve(problem, strict=args.strict)
    doc = {
        "schema": SCHEMA,
        "input": args.expr,
        "normalized_input": " && ".join(source_to_text(e) for e in exprs),
        "problem": problem_to_json(problem),
        "denominator_scale": None if scale is None else complex_to_json(scale),
        "solution": solution_to_json(solution),
        "classification": [classification_to_json(classify(r)) for r in solution.regions],
    }
    status = 0
    if args.verify:
        report = oracle.verify(problem, solution, eps=args.eps)
        doc["verification"] = verification_to_json(report)
        if not report.passed:
            status = 2
            if not report.mismatches:
                sys.stderr.write(f"lexineq: verify asserted no probe: all "
                                 f"{report.skipped_boundary} non-pole probes lie within "
                                 f"eps={args.eps!r} of the boundary\n")
    payload = json.dumps(doc, indent=2) + "\n"
    if args.json:
        with open(args.json, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return status


def _cmd_check(args) -> int:
    exprs = parse_input(args.expr)
    problem, _ = classify_problem_ex(exprs)
    point = parse_complex(args.at)
    result = oracle.eval_direct(problem, point)
    sys.stdout.write(result.name.lower() + "\n")
    return 0


def _cmd_raster(args) -> int:
    exprs = parse_input(args.expr)
    problem, _ = classify_problem_ex(exprs)
    re_min, re_max, im_min, im_max = args.window
    nx, ny = args.res
    grid = oracle.GridSpec(re_min, re_max, im_min, im_max, nx, ny)
    bitmap = oracle.sample_raster(problem, grid)
    if args.format == "pgm":
        payload = bitmap._pgm_bytes()  # ASCII bytes, written with no str made from them
        with open(args.out, "wb") as fh:
            fh.write(payload)
    else:
        payload = bitmap.to_csv()
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload)
    return 0


def _cmd_laws(args) -> int:
    # laws samples with numpy; importing it here keeps solve and check free of numpy
    from .laws import as_expected, check_all

    reports = check_all(samples=args.samples, seed=args.seed)
    payload = json.dumps([law_report_to_json(r) for r in reports], indent=2) + "\n"
    sys.stdout.write(payload)
    unexpected = [r.law_id for r in reports if not as_expected(r)]
    if unexpected:
        sys.stderr.write(f"lexineq: laws not as expected at --seed {args.seed} --samples "
                         f"{args.samples}: {', '.join(unexpected)} (a law must pass; a "
                         f"non-law must yield a counterexample that rechecks)\n")
        return 1
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_argparser().parse_args(argv)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "raster":
            return _cmd_raster(args)
        return _cmd_laws(args)
    except (LexineqError, ParseError, ValueError, ZeroDivisionError, OSError) as exc:
        sys.stderr.write(f"lexineq: error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
