#!/usr/bin/env python3
"""Check that two lexineq source trees give the same outputs, byte for byte.

    python3 tools/same_outputs.py OLD_TREE NEW_TREE

Each tree runs in a subprocess of its own, with ``PYTHONPATH=<tree>/src``.
The inputs are the benchmark's corpora, built by ``perfbench/workloads.py``
of this checkout (which is imported and never changed) for the seeds
in ``SEEDS``:

* ``lexineq solve`` and ``solve --verify`` over the ``frontend`` corpus;
* ``lexineq raster`` PGM and CSV file bytes at 1001 x 1001, the
  ``oracle.sample_raster`` cells at 1001 x 1001 and 257 x 193, and the
  codes and margin bytes of ``oracle.problem_grid`` and of
  ``solver.solution_grid_margin`` on the default verification grid (no
  CLI output shows a margin, except through the counts of ``verify``),
  the ``sample_raster`` cells of each solution region at 257 x 193, and
  the ``verify`` report on a grid of rows longer than a tile
  (``WIDE_SHAPE``), against the problem's solution and against the
  previous problem's, and against the previous problem's on the default
  grid, whose pieces hold many rows, over the ``raster-write`` corpus;
* every ``cli-cold`` call (``solve``, ``solve --verify``, ``check``,
  ``laws`` and refused inputs);
* ``MIXED_SYSTEMS`` seeded systems of 2-4 members of every class, built
  through the API (:func:`_mixed_systems`), since no corpus holds one
  with a fractional or quadratic member: the codes and margins of
  ``problem_grid`` and ``solution_grid_margin`` on the default grid, the
  ``sample_raster`` cells at 257 x 193 over its window, and the ``verify``
  report;
* the ``sample_raster`` cells of the all-tied inequalities in ``TIED``
  at both sample shapes;
* the ``sample_raster`` cells at both sample shapes of ``REGIONS`` seeded
  regions per seed whose chains never mix the coordinates: an empty one,
  a translation and a dilation, each over a dyadic anchor.

The commands run through ``cli.main`` in the subprocess, one call after
another; a RuntimeWarning is shown once per call, as a fresh process
shows it, with the tree's path replaced by ``<src>``.  One line is
printed per (command, input): a digest of its stdout, stderr and exit
status, or of the file or cells it wrote.  The exit status is 0 when
every digest is the same in both trees, and 1 otherwise, after naming
the first input that differs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEEDS = (0, 7)
SAMPLE_SHAPES = ((1001, 1001), (257, 193))
MIXED_SYSTEMS = 100  # per seed
WIDE_SHAPE = (16390, 3)  # rows longer than a tile of 16384 points
TIED = ("0*Z >= 1i", "Z/Z >= 1")  # a real part of 0 on every lane
REGIONS = 20  # per seed and chain


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        data = part if isinstance(part, bytes) else str(part).encode()
        h.update(len(data).to_bytes(8, "little") + data)
    return h.hexdigest()[:20]


def _call(cli, argv: list[str], src: str):
    """(stdout, stderr, exit status) of ``lexineq *argv``, run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("default")
        try:
            status = cli.main(argv)
        except SystemExit as exc:  # argparse's usage error
            status = exc.code
    return out.getvalue(), err.getvalue().replace(src, "<src>"), status


def _mixed_systems(lexineq, seed: int):
    """Systems of 2-4 linear, fractional and quadratic members with
    coefficients in multiples of 1/8.  Half the fractions have their pole
    at a multiple of 1.25 + 1.25i, which the default grid holds exactly."""
    import numpy as np

    rng = np.random.default_rng(seed)

    def dyadic():
        return complex(*(rng.integers(-24, 25, 2) / 8.0))

    for _ in range(MIXED_SYSTEMS):
        members = []
        for kind in rng.choice(["linear", "fractional", "quadratic"], int(rng.integers(2, 5))):
            if kind == "linear":
                members.append(lexineq.Linear(dyadic(), dyadic()))
            elif kind == "quadratic":
                while (a := dyadic()) == 0:
                    pass
                members.append(lexineq.Quadratic(a, dyadic(), dyadic()))
            else:
                a, b = dyadic(), dyadic()
                c = complex(*(1.25 * rng.integers(-2, 3, 2))) if rng.integers(2) else dyadic()
                members.append(lexineq.Fractional(a, b, c, dyadic()))
        yield lexineq.System(tuple(members))


def _regions(lexineq, seed: int):
    """``(name, region)``: regions of an empty, a translation and a dilation
    chain over anchors and offsets in multiples of 1/8."""
    import numpy as np

    rng = np.random.default_rng(seed)

    def dyadic():
        return complex(*(rng.integers(-24, 25, 2) / 8.0))

    for _ in range(REGIONS):
        yield "empty", lexineq.Region(dyadic())
        yield "translate", lexineq.Region(dyadic(), (lexineq.Translate(dyadic()),))
        yield "scale", lexineq.Region(dyadic(), (lexineq.Scale(float(rng.integers(1, 17)) / 8.0),))


def _report(report) -> tuple:
    return (report.total, report.skipped_boundary, report.skipped_pole, report.mismatch_count,
            report.passed, report.mismatches)


def _worker() -> None:
    """Print the digest lines of the tree on PYTHONPATH, one seed after another."""
    src = os.environ["PYTHONPATH"].split(os.pathsep)[0]
    sys.path.insert(0, str(PERFBENCH))
    import lexineq
    import workloads
    from lexineq import cli, normalize, oracle, parser, solver

    if not Path(lexineq.__file__).resolve().is_relative_to(Path(src).resolve()):
        sys.exit(f"same_outputs: imported lexineq from {lexineq.__file__}, not from {src}")
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        for seed in SEEDS:
            def emit(command, i, text, *parts, seed=seed):
                print(f"{command}\tseed {seed} #{i}\t{_digest(*parts)}\t{text}", flush=True)

            for i, prob in enumerate(workloads.Frontend(seed, tmp, src).corpus):
                for flags in ([], ["--verify"]):
                    emit(" ".join(["solve", *flags]), i, prob.text,
                         *_call(cli, ["solve", prob.text, *flags], src))
            raster = workloads.RasterWrite(seed, tmp, src)
            wide = oracle.GridSpec(*workloads.inputs.WINDOW, *WIDE_SHAPE)
            previous = solver.SolutionSet.empty()
            try:
                for i, prob in enumerate(raster.corpus):
                    for fmt in ("pgm", "csv"):
                        path = os.path.join(tmp, f"raster.{fmt}")
                        result = _call(cli, ["raster", prob.text, "--res", "1001,1001",
                                             "--format", fmt, "--out", path], src)
                        body = Path(path).read_bytes() if os.path.exists(path) else b""
                        with contextlib.suppress(FileNotFoundError):
                            os.remove(path)
                        emit(f"raster --format {fmt}", i, prob.text, *result, body)
                    problem, _ = normalize.classify_problem_ex(parser.parse_input(prob.text))
                    for nx, ny in SAMPLE_SHAPES:
                        grid = oracle.GridSpec(*workloads.inputs.WINDOW, nx, ny)
                        emit(f"sample_raster {nx}x{ny}", i, prob.text,
                             oracle.sample_raster(problem, grid).cells.tobytes())
                    points = oracle.default_grid().points()
                    codes, margins = oracle.problem_grid(problem, *points)
                    emit("problem_grid", i, prob.text, codes.tobytes(), margins.tobytes())
                    solution = solver.solve(problem)
                    codes, margins = solver.solution_grid_margin(solution, *points)
                    emit("solution_grid_margin", i, prob.text, codes.tobytes(), margins.tobytes())
                    grid = oracle.GridSpec(*workloads.inputs.WINDOW, *SAMPLE_SHAPES[1])
                    for k, region in enumerate(solution.regions):
                        emit(f"sample_raster region {k}", i, prob.text,
                             oracle.sample_raster(region, grid).cells.tobytes())
                    emit(f"verify {wide.nx}x{wide.ny}", i, prob.text,
                         *_report(oracle.verify(problem, solution, wide)))
                    for name, g in (("default grid", None), (f"{wide.nx}x{wide.ny}", wide)):
                        emit(f"verify {name} previous solution", i, prob.text,
                             *_report(oracle.verify(problem, previous, g)))
                    previous = solution
            finally:
                raster.close()
            for i, (slot, _, argv) in enumerate(workloads.CliCold(seed, tmp, src).calls):
                emit(f"cli-cold {slot}", i, " ".join(argv), *_call(cli, argv, src))
            grid = oracle.default_grid()
            points = grid.points()
            raster_grid = oracle.GridSpec(grid.re_min, grid.re_max, grid.im_min, grid.im_max,
                                          *SAMPLE_SHAPES[1])
            for i, problem in enumerate(_mixed_systems(lexineq, seed)):
                text = repr(problem)
                codes, margins = oracle.problem_grid(problem, *points)
                emit("mixed problem_grid", i, text, codes.tobytes(), margins.tobytes())
                emit("mixed sample_raster", i, text,
                     oracle.sample_raster(problem, raster_grid).cells.tobytes())
                try:
                    solution = solver.solve(problem)
                except lexineq.LexineqError as exc:
                    emit("mixed solve", i, text, repr(exc))
                    continue
                codes, margins = solver.solution_grid_margin(solution, *points)
                emit("mixed solution_grid_margin", i, text, codes.tobytes(), margins.tobytes())
                emit("mixed verify", i, text, *_report(oracle.verify(problem, solution, grid)))
            for i, text in enumerate(TIED):
                problem, _ = normalize.classify_problem_ex(parser.parse_input(text))
                for nx, ny in SAMPLE_SHAPES:
                    grid = oracle.GridSpec(*workloads.inputs.WINDOW, nx, ny)
                    emit(f"tied sample_raster {nx}x{ny}", i, text,
                         oracle.sample_raster(problem, grid).cells.tobytes())
            for i, (chain, region) in enumerate(_regions(lexineq, seed)):
                for nx, ny in SAMPLE_SHAPES:
                    grid = oracle.GridSpec(*workloads.inputs.WINDOW, nx, ny)
                    emit(f"region sample_raster {chain} {nx}x{ny}", i, repr(region),
                         oracle.sample_raster(region, grid).cells.tobytes())


def _spawn(tree: str, out) -> subprocess.Popen:
    """A worker writing the digest lines of ``tree`` to the file ``out``."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"))
    return subprocess.Popen([sys.executable, __file__, "--worker"], env=env, stdout=out)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("trees", nargs="*", metavar="TREE", help="OLD_TREE NEW_TREE")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.worker:
        _worker()
        return 0
    if len(args.trees) != 2:
        ap.error("give two trees: OLD_TREE NEW_TREE")
    # files, not pipes, so that neither worker waits for its output to be read
    outs = [tempfile.TemporaryFile("w+") for _ in args.trees]
    procs = [_spawn(tree, out) for tree, out in zip(args.trees, outs)]
    lines = []
    for tree, p, out in zip(args.trees, procs, outs):
        if p.wait():
            print(f"same_outputs: the worker for {tree} exited {p.returncode}", file=sys.stderr)
            return 1
        out.seek(0)
        lines.append([line.split("\t") for line in out.read().splitlines()])
    old, new = lines
    for a, b in zip(old, new):
        print("\t".join(b))
        if a != b:
            print(f"DIFFERS: {b[0]} at {b[1]} ({b[3]}): {a[2]} in {args.trees[0]}, "
                  f"{b[2]} in {args.trees[1]}", file=sys.stderr)
            return 1
    if len(old) != len(new):
        print(f"DIFFERS: {len(old)} outputs in {args.trees[0]}, {len(new)} in {args.trees[1]}",
              file=sys.stderr)
        return 1
    print(f"same_outputs: all {len(new)} outputs are the same", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
