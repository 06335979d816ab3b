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
A system's problem document is ``linear-system`` with ``a, b, c, d``
for two linear constraints, else ``system`` with its ``constraints``.
"""

from __future__ import annotations

import argparse
import sys

# The JSON helpers reach the region and problem classes through the
# package's lazily bound names, so that loading cli imports neither and a
# helper runs no import statement per call.  Each command imports the
# modules it runs where it first needs them: a refused input loads no
# normalize, solver or oracle, and `laws` no parser.
import lexineq

TYPE_CHECKING = False  # type checkers read it as True; saves importing typing
if TYPE_CHECKING:
    from collections.abc import Sequence

    from .laws import LawReport
    from .oracle import VerificationReport
    from .region import Region

SCHEMA = "lexineq/1"

_MISMATCH_CAP = 100  # mismatches listed in JSON; the count is always exact


def complex_to_json(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def region_to_json(region: Region) -> dict:
    transforms = []
    for t in region.transforms:
        if isinstance(t, lexineq.Rotate):
            transforms.append({"kind": "rotate", "theta": t.theta})
        elif isinstance(t, lexineq.Scale):
            transforms.append({"kind": "scale", "r": t.r})
        elif isinstance(t, lexineq.Translate):
            transforms.append({"kind": "translate", "re": t.offset.real, "im": t.offset.imag})
        elif isinstance(t, lexineq.Invert):
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
            transforms.append(lexineq.Rotate(t["theta"]))
        elif kind == "scale":
            transforms.append(lexineq.Scale(t["r"]))
        elif kind == "translate":
            transforms.append(lexineq.Translate(_complex_from_json(t, "translation offset")))
        elif kind == "invert":
            transforms.append(lexineq.Invert())
        elif kind == "sqrt":
            transforms.append(lexineq.Sqrt())
        else:
            raise ValueError(f"unknown transform kind {kind!r}")
    return lexineq.Region(base, tuple(transforms))


def problem_to_json(problem) -> dict:
    kind = lexineq.normalize.problem_kind(problem)
    if kind == "system":
        return {"kind": kind, "constraints": [problem_to_json(c) for c in problem.constraints]}
    if kind == "linear-system":
        first, second = (problem_to_json(c) for c in problem.constraints)
        return {"kind": kind, "a": first["a"], "b": first["b"], "c": second["a"], "d": second["b"]}
    doc = {"kind": kind}
    for name in problem._fields:
        doc[name] = complex_to_json(getattr(problem, name))
    return doc


_CLASSIFICATION_KINDS = {  # by the name of the classification's class
    "VerticalHalfPlane": "vertical-half-plane", "ObliqueHalfPlane": "oblique-half-plane",
    "Disc": "disc", "HyperbolaDomain": "hyperbola-domain", "Generic": "generic"}


def classification_to_json(c) -> dict:
    name = type(c).__name__
    if name not in _CLASSIFICATION_KINDS or type(c) is not getattr(lexineq, name):
        raise TypeError(f"not a classification: {c!r}")
    doc = {"kind": _CLASSIFICATION_KINDS[name]}
    for field in c._fields:
        value = getattr(c, field)
        doc[field] = complex_to_json(value) if isinstance(value, complex) else value
    return doc


def solution_to_json(solution) -> dict:
    return {
        "kind": solution.kind.value,
        "regions": [region_to_json(r) for r in solution.regions],
        "excluded_points": [complex_to_json(p) for p in solution.excluded_points],
        "note": solution.note,
    }


def law_report_to_json(report: LawReport) -> dict:
    return {
        "law_id": report.law_id,
        "is_law": lexineq.laws.is_law(report.law_id),
        "samples": report.samples,
        "outcome": report.outcome,
        "witness": None if report.witness is None
        else [complex_to_json(w) for w in report.witness],
    }


def verification_to_json(report: VerificationReport) -> dict:
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
    # None stands for oracle.DEFAULT_EPS, read only when --verify runs
    solve_p.add_argument("--eps", type=float, default=None,
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


def _parse_problem(text: str):
    """(source expressions, problem, denominator scale) of an inequality text."""
    from .parser import parse_input

    exprs = parse_input(text)
    from .normalize import classify_problem_ex  # only once the text parses

    return (exprs, *classify_problem_ex(exprs))


def _cmd_solve(args) -> int:
    exprs, problem, scale = _parse_problem(args.expr)
    import json

    from .parser import source_to_text
    from .region import classify
    from .solver import solve

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
        from . import oracle

        eps = oracle.DEFAULT_EPS if args.eps is None else args.eps
        report = oracle.verify(problem, solution, eps=eps)
        doc["verification"] = verification_to_json(report)
        if not report.passed:
            status = 2
            if not report.mismatches:
                sys.stderr.write(f"lexineq: verify asserted no probe: all "
                                 f"{report.skipped_boundary} non-pole probes lie within "
                                 f"eps={eps!r} of the boundary\n")
    payload = json.dumps(doc, indent=2) + "\n"
    if args.json:
        with open(args.json, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return status


def _cmd_check(args) -> int:
    _, problem, _ = _parse_problem(args.expr)
    from . import oracle
    from .parser import parse_complex

    point = parse_complex(args.at)
    result = oracle.eval_direct(problem, point)
    sys.stdout.write(result.name.lower() + "\n")
    return 0


def _cmd_raster(args) -> int:
    _, problem, _ = _parse_problem(args.expr)
    from . import oracle

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
    import json

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
    except (lexineq.LexineqError, ValueError, ZeroDivisionError, OSError) as exc:
        sys.stderr.write(f"lexineq: error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
