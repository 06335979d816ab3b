"""The benchmark workloads: inputs, the timed op, and its output check.

Every op is one closed-loop request from a single client.  The op calls
only public functions of ``parser``, ``normalize``, ``solver``,
``region``, ``oracle``, ``laws`` and ``cli``, each inside a span named
``<module>.<call>``, so a traced run can split an op into layers and an
exception can be charged to the layer that raised it.

``check`` runs outside the timed region and returns ``None`` when the
output is right, else the module the wrong output is charged to.  No
check compares bytes against a stored golden: documents are parsed and
compared by meaning, so a change that reformats JSON on purpose does not
fail here.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import selectors
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from lexineq import cli, laws, normalize, oracle, parser, region, solver

import inputs

SCHEMA = "lexineq/1"
MIN_ASSERTED_SHARE = 0.995   # of non-pole probes; below this a verify passed vacuously
MEMBERSHIP_MARGIN = 1e-6     # check probes closer than this to a boundary are skipped


@dataclass
class Result:
    """What an op hands to its check; ``work`` counts the units it processed."""

    work: int
    data: dict = field(default_factory=dict)


def solve_doc(text: str, sp, grid: oracle.GridSpec | None = None):
    """The ``lexineq solve [--verify]`` pipeline from text to JSON document."""
    with sp.span("parser.parse_input"):
        exprs = parser.parse_input(text)
    with sp.span("normalize.classify_problem_ex"):
        problem, scale = normalize.classify_problem_ex(exprs)
    with sp.span("solver.solve"):
        solution = solver.solve(problem)
    with sp.span("region.classify"):
        classes = [region.classify(r) for r in solution.regions]
    report = None
    if grid is not None:
        with sp.span("oracle.verify"):
            report = oracle.verify(problem, solution, grid)
    with sp.span("cli.to_json"):
        doc = {
            "schema": cli.SCHEMA,
            "input": text,
            "normalized_input": " && ".join(parser.source_to_text(e) for e in exprs),
            "problem": cli.problem_to_json(problem),
            "denominator_scale": None if scale is None else cli.complex_to_json(scale),
            "solution": cli.solution_to_json(solution),
            "classification": [cli.classification_to_json(c) for c in classes],
        }
        if report is not None:
            doc["verification"] = cli.verification_to_json(report)
        payload = json.dumps(doc, indent=2) + "\n"
    return problem, solution, report, payload


def check_doc(prob: inputs.Problem, solution, payload: str) -> str | None:
    doc = json.loads(payload)
    if doc.get("schema") != SCHEMA or doc["problem"]["kind"] != prob.kind:
        return "normalize" if doc.get("schema") == SCHEMA else "cli"
    regions = doc["solution"]["regions"]
    if len(regions) != len(solution.regions):
        return "cli"
    for r, rdoc in zip(solution.regions, regions):
        if cli.region_from_json(rdoc) != r or cli.region_from_json(cli.region_to_json(r)) != r:
            return "cli"
    return None


def check_membership(prob: inputs.Problem, problem, solution, points: list[complex]) -> str | None:
    """Solver membership must equal direct evaluation away from the boundary.

    The direct side's margin scales with the coefficients, so its
    threshold carries the same 2^k; the solution side's regions are
    scale-free.
    """
    zr = np.array([z.real for z in points])
    zi = np.array([z.imag for z in points])
    _, direct_margin = oracle.problem_grid(problem, zr, zi)
    _, solution_margin = solver.solution_grid_margin(solution, zr, zi)
    threshold = MEMBERSHIP_MARGIN * 2.0 ** prob.scale_exp
    for z, dm, sm in zip(points, direct_margin.tolist(), solution_margin.tolist()):
        if dm < threshold or sm < MEMBERSHIP_MARGIN:
            continue
        if solver.solution_contains(solution, z) != oracle.eval_direct(problem, z):
            return "solver"
    return None


def asserted(report: oracle.VerificationReport) -> tuple[int, int]:
    """(asserted probes, non-pole probes) of a verification report."""
    non_pole = report.total - report.skipped_pole
    return non_pole - report.skipped_boundary, non_pole


def check_report(report: oracle.VerificationReport, grid: oracle.GridSpec) -> str | None:
    """A verification must pass, cover the grid, and not pass vacuously."""
    if not report.passed:
        return "solver"
    done, base = asserted(report)
    if report.total != grid.nx * grid.ny or done < MIN_ASSERTED_SHARE * base:
        return "oracle"
    return None


def child_env(src_dir: str) -> dict:
    """The environment for ``python -m lexineq`` children: this checkout's sources first."""
    rest = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src_dir] + rest))


class Workload:
    name = ""
    unit = ""              # what ``work`` counts
    defects_doc = ""       # what the known-defect set holds
    output_module = "cli"  # charged when the output cannot even be read
    ROUND = 1              # a pass ends only after a whole number of rounds of ops
    # The highest percentile that keeps at least ten samples beyond it at the
    # op count of a 30 s run, so the same percentile is reported every run.
    TAIL_PERCENTILE = 99.0

    def __init__(self, seed: int, out_dir: str, src_dir: str):
        self.rng = np.random.default_rng([seed, 0])
        self.defect_rng = np.random.default_rng([seed, 1])

    def describe(self, i: int) -> str:
        return self.corpus[i % len(self.corpus)].text

    def op(self, i: int, sp) -> Result:
        raise NotImplementedError

    def check(self, i: int, res: Result) -> str | None:
        raise NotImplementedError

    def replay(self, i: int, res: Result, sp) -> str | None:
        """Traced run only: time parts of the op that are not separate calls.

        Returns the module charged when a replayed output is wrong.
        """
        return None

    def known_defects(self, sp) -> list[tuple[str, str | None]]:
        """Traced run only: (label, failing module or None) per defect probe."""
        return []

    def record(self) -> dict:
        return {}

    # What ``peak_rss_kb`` measures, for the run record.
    peak_rss_doc = "ru_maxrss of the workload process"

    def peak_rss_kb(self) -> int:
        """Peak resident memory of the process that does the work, in KiB."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def close(self) -> None:
        pass


class Frontend(Workload):
    """Text to ``solve`` document: parser, normalizer, solver, region, JSON."""

    name = "frontend"
    unit = "expressions"
    defects_doc = "scale tail: 8 problems per class, coefficients times 2^k, |k| <= 600"
    # Each class once per round: there is no traffic to weight the classes by.
    ROTATION = inputs.CLASSES
    ROUND = len(ROTATION)
    CORPUS = 1000
    PROBES = 16

    def __init__(self, seed, out_dir, src_dir):
        super().__init__(seed, out_dir, src_dir)
        self.corpus = inputs.corpus(self.rng, self.CORPUS, self.ROTATION)
        self.points = [inputs.probes(self.rng, self.PROBES) for _ in range(self.CORPUS)]
        self.checked: dict[int, str] = {}

    def op(self, i, sp):
        problem, solution, _, payload = solve_doc(self.corpus[i % self.CORPUS].text, sp)
        return Result(1, {"problem": problem, "solution": solution, "payload": payload})

    def check(self, i, res):
        # The first op on each corpus entry gets the full check; later ops on
        # the same text must reproduce that checked document exactly.
        k = i % self.CORPUS
        if k in self.checked:
            return None if res.data["payload"] == self.checked[k] else "cli"
        prob = self.corpus[k]
        bad = (check_doc(prob, res.data["solution"], res.data["payload"])
               or check_membership(prob, res.data["problem"], res.data["solution"], self.points[k]))
        if bad is None:
            self.checked[k] = res.data["payload"]
        return bad

    def known_defects(self, sp):
        out = []
        for prob in inputs.scale_tail(self.defect_rng, 8):
            label = f"{prob.kind} k={prob.scale_exp}"
            try:
                problem, solution, _, payload = solve_doc(prob.text, sp)
            except Exception as exc:  # a defect probe may fail in any layer
                out.append((f"{label}: {type(exc).__name__}: {exc}", sp.layer_of_last()))
                continue
            points = inputs.probes(self.defect_rng, self.PROBES)
            bad = check_doc(prob, solution, payload) or check_membership(prob, problem, solution, points)
            out.append((label, bad))
        return out


class RasterWrite(Workload):
    """``lexineq raster``: sample a 1001 x 1001 grid, serialize, write a file."""

    name = "raster-write"
    unit = "cells"
    output_module = "oracle"
    defects_doc = ("scale tail: 4 problems per class, coefficients times 2^k, k = -600, -200, "
                   "200, 600, solved and verified at 1001 x 1001")
    CLASS_ROTATION = inputs.CLASSES
    # 4 PGM : 1 CSV.  PGM is the default ``--format`` of ``lexineq raster``.
    # A CSV op takes about five times a PGM op (1.1 s against 0.2 s at the
    # seed commit), so at 4:1 the two writers share the busy time about
    # evenly (CSV ~57%) and ``work_per_s`` weighs them alike.  The latency
    # metrics fall on PGM ops: with one op in five a CSV op, both the median
    # and the p60 tail are PGM ops, so a CSV writer change moves
    # ``work_per_s`` and the per-layer ``oracle.to_csv_ns_per_cell`` only.
    # The rotation length (5) is prime to the class rotation (4), so every
    # class is written in both formats within 20 ops.
    FORMATS = ("pgm", "pgm", "csv", "pgm", "pgm")
    ROUND = len(FORMATS)
    TAIL_PERCENTILE = 60.0   # 35-60 ops per run
    CORPUS = 100
    RES = 1001
    SAMPLED_CELLS = 32

    def __init__(self, seed, out_dir, src_dir):
        super().__init__(seed, out_dir, src_dir)
        self.corpus = inputs.corpus(self.rng, self.CORPUS, self.CLASS_ROTATION)
        self.cells = [self.rng.integers(0, self.RES * self.RES, self.SAMPLED_CELLS).tolist()
                      for _ in range(self.CORPUS)]
        self.grid = oracle.GridSpec(*inputs.WINDOW, self.RES, self.RES)
        self.re_axis = self.grid.re_axis().tolist()
        self.im_axis = self.grid.im_axis().tolist()
        self.tmp = tempfile.mkdtemp(prefix="raster-", dir=out_dir)
        self.bytes = 0
        self.asserted = [0, 0]

    def _raster(self, text, fmt, path, sp):
        with sp.span("parser.parse_input"):
            exprs = parser.parse_input(text)
        with sp.span("normalize.classify_problem_ex"):
            problem, _ = normalize.classify_problem_ex(exprs)
        with sp.span("oracle.sample_raster"):
            bitmap = oracle.sample_raster(problem, self.grid)
        with sp.span(f"oracle.to_{fmt}"):
            payload = bitmap.to_pgm() if fmt == "pgm" else bitmap.to_csv()
        with sp.span("oracle.write"):
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(payload)
        return problem

    def op(self, i, sp):
        fmt = self.FORMATS[i % len(self.FORMATS)]
        path = os.path.join(self.tmp, f"op.{fmt}")
        problem = self._raster(self.corpus[i % self.CORPUS].text, fmt, path, sp)
        return Result(self.RES * self.RES, {"problem": problem, "fmt": fmt, "path": path})

    def check(self, i, res):
        res.data["bytes"] = os.path.getsize(res.data["path"])
        self.bytes += res.data["bytes"]
        try:
            reader = self._check_pgm if res.data["fmt"] == "pgm" else self._check_csv
            return reader(res.data["path"], res.data["problem"], self.cells[i % self.CORPUS])
        finally:
            os.remove(res.data["path"])

    def _check_pgm(self, path, problem, cells):
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
        n = self.RES
        if lines[:3] != ["P2", f"{n} {n}", "2"] or len(lines) != n + 4 or lines[-1] != "":
            return "oracle"
        rows = lines[3:-1]
        if any(set(row) - set("012 ") for row in rows):
            return "oracle"
        for idx in cells:
            r, c = divmod(idx, n)  # r counts rows top-down: imaginary axis descending
            row = rows[r].split(" ")
            if len(row) != n or int(row[c]) != int(self._direct(problem, c, n - 1 - r)):
                return "oracle"
        return None

    def _check_csv(self, path, problem, cells):
        n = self.RES
        wanted = set(cells)
        names = {"in", "out", "pole"}
        count = 0
        with open(path, encoding="utf-8") as fh:
            if fh.readline() != "re,im,state\n":
                return "oracle"
            for idx, line in enumerate(fh):
                count += 1
                re_s, im_s, state = line.rstrip("\n").split(",")
                if state not in names:
                    return "oracle"
                if idx in wanted:
                    row, col = divmod(idx, n)  # bottom row first, real axis inner
                    if (float(re_s), float(im_s)) != (self.re_axis[col], self.im_axis[row]):
                        return "oracle"
                    if state != self._direct(problem, col, row).name.lower():
                        return "oracle"
        return None if count == n * n else "oracle"

    def _direct(self, problem, col, row):
        return oracle.eval_direct(problem, complex(self.re_axis[col], self.im_axis[row]))

    def replay(self, i, res, sp):
        """The grid inside ``sample_raster``, and ``verify`` of the same problem.

        ``verify`` at 1001 x 1001 is timed here, in the traced run, and not
        as a workload of its own: its numpy passes varied by 0.27-0.31 of
        their median between ten 20 s runs on the 2-vCPU host this benchmark
        was tuned on, above the largest regression bound the benchmark may
        set.  Its three parts are replayed on the same inputs, so the verify
        span minus them is verify's own work.  Whichever runs first pays for
        fresh pages, so the order alternates between ops.
        """
        problem = res.data["problem"]
        with sp.span("solver.solve"):
            solution = solver.solve(problem)
        if i % 2:
            report = self._verify(problem, solution, sp)
        with sp.span("oracle.points"):
            zr, zi = self.grid.points()
        with sp.span("oracle.problem_grid"):
            oracle.problem_grid(problem, zr, zi)
        with sp.span("solver.solution_grid_margin"):
            solver.solution_grid_margin(solution, zr, zi)
        del zr, zi
        if not i % 2:
            report = self._verify(problem, solution, sp)
        done, base = asserted(report)
        self.asserted[0] += done
        self.asserted[1] += base
        return check_report(report, self.grid)

    def _verify(self, problem, solution, sp):
        with sp.span("oracle.verify"):
            return oracle.verify(problem, solution, self.grid)

    def known_defects(self, sp):
        out = []
        for prob in inputs.scale_tail(self.defect_rng, 4):
            label = f"{prob.kind} k={prob.scale_exp}"
            try:
                problem, solution, report, payload = solve_doc(prob.text, sp, self.grid)
            except Exception as exc:  # a defect probe may fail in any layer
                out.append((f"{label}: {type(exc).__name__}: {exc}", sp.layer_of_last()))
                continue
            done, base = asserted(report)
            out.append((f"{label}: asserted {done}/{base}",
                        check_doc(prob, solution, payload) or check_report(report, self.grid)))
        return out

    def record(self):
        n = self.RES * self.RES
        return {
            "grid": f"{self.RES}x{self.RES}",
            "formats": "pgm:csv = 4:1",
            "float64_bytes_per_op": {
                "value": {"pgm": 2 * 8 * n, "csv": 4 * 8 * n, "traced verify": 5 * 8 * n},
                "how": "computed, not measured: sample_raster holds zr and zi (2 float64 "
                       "arrays of nx*ny); to_csv builds them once more; verify holds 5 at once "
                       "(zr, zi, direct margins, solution margins, their minimum); kernel "
                       "temporaries not counted",
            },
            "bytes_written": self.bytes,
            "asserted_probes": self.asserted[0],
            "non_pole_probes": self.asserted[1],
        }

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


class CliCold(Workload):
    """One ``lexineq`` process per call, spawned and awaited one at a time."""

    name = "cli-cold"
    unit = "calls"
    defects_doc = "ROADMAP item 5 inputs: huge exponents and 5000 nested parentheses"
    peak_rss_doc = "largest ru_maxrss of the lexineq child processes, each read with wait4"
    # Each kind of call once per cycle, as there is no traffic to weight them
    # by.  The cycle length (5) is prime to the class rotation (4), so a
    # round of 20 calls holds every kind of call on every class.
    SLOTS = ("solve", "verify", "check", "laws", "refused")
    ROUND = len(SLOTS) * len(inputs.CLASSES)
    TAIL_PERCENTILE = 90.0   # 180-200 calls per run
    CALLS = 12 * ROUND
    TIMEOUT_S = 60.0
    DEFECT_TIMEOUT_S = 2.0

    def __init__(self, seed, out_dir, src_dir):
        super().__init__(seed, out_dir, src_dir)
        self.env = child_env(src_dir)
        self.child_rss_kb = 0
        self.calls = []
        for i in range(self.CALLS):
            slot = self.SLOTS[i % len(self.SLOTS)]
            prob = inputs.generate(self.rng, inputs.CLASSES[i % len(inputs.CLASSES)])
            if slot == "solve":
                argv = ["solve", prob.text]
            elif slot == "verify":
                argv = ["solve", prob.text, "--verify"]
            elif slot == "check":
                z = inputs.probes(self.rng, 1)[0]
                argv = ["check", prob.text, f"--at={inputs.lit(z)}"]
            elif slot == "laws":
                argv = ["laws", "--seed", str(int(self.rng.integers(0, 2**31)))]
            else:
                argv = ["solve", inputs.refused(self.rng)]
            self.calls.append((slot, prob, argv))

    def describe(self, i):
        return " ".join(self.calls[i % len(self.calls)][2])

    def op(self, i, sp):
        slot, prob, argv = self.calls[i % len(self.calls)]
        with sp.span("cli.process"):
            proc, rss_kb = run_with_rusage([sys.executable, "-m", "lexineq", *argv],
                                           self.env, self.TIMEOUT_S)
        self.child_rss_kb = max(self.child_rss_kb, rss_kb)
        return Result(1, {"proc": proc})

    def peak_rss_kb(self):
        return self.child_rss_kb

    def check(self, i, res):
        slot, prob, argv = self.calls[i % len(self.calls)]
        proc = res.data["proc"]
        if slot == "refused":
            return None if refused_cleanly(proc) else "cli"
        if proc.returncode != 0 or proc.stderr:
            return "cli"
        if slot == "laws":
            reports = json.loads(proc.stdout)
            return None if len(reports) == len(laws.LAW_IDS) else "laws"
        if slot == "check":
            problem, _ = normalize.classify_problem_ex(parser.parse_input(prob.text))
            z = parser.parse_complex(argv[2].split("=", 1)[1])
            return None if proc.stdout == oracle.eval_direct(problem, z).name.lower() + "\n" else "cli"
        doc = json.loads(proc.stdout)
        if doc.get("schema") != SCHEMA or doc["problem"]["kind"] != prob.kind:
            return "cli"
        if slot == "verify" and doc["verification"]["passed"] is not True:
            return "solver"
        return None

    def replay(self, i, res, sp):
        slot, prob, argv = self.calls[i % len(self.calls)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            with sp.span("cli.main"):
                cli.main(argv)
        if slot == "laws":
            with sp.span("laws.check_all"):
                laws.check_all(samples=10_000, seed=int(argv[2]))

    def known_defects(self, sp):
        out = []
        for text in inputs.UNBOUNDED_INPUTS:
            label = text if len(text) < 40 else f"{text[:12]}... ({len(text)} chars)"
            try:
                proc, _ = run_with_rusage([sys.executable, "-m", "lexineq", "solve", text],
                                          self.env, self.DEFECT_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                out.append((f"{label}: no exit within {self.DEFECT_TIMEOUT_S} s", "cli"))
                continue
            out.append((f"{label}: exit {proc.returncode}", None if refused_cleanly(proc) else "cli"))
        return out


def run_with_rusage(cmd: list[str], env: dict, timeout: float):
    """Run ``cmd`` to its exit: (CompletedProcess, that child's ru_maxrss in KiB).

    ``subprocess.run`` reaps the child with ``waitpid``, which drops its
    resource usage; here both pipes are drained until EOF and the child is
    reaped with ``os.wait4``, which returns it.
    """
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    chunks: dict = {proc.stdout: [], proc.stderr: []}
    deadline = time.monotonic() + timeout
    try:
        with selectors.DefaultSelector() as sel:
            for pipe in chunks:
                sel.register(pipe, selectors.EVENT_READ)
            while sel.get_map():
                left = deadline - time.monotonic()
                if left <= 0:
                    raise subprocess.TimeoutExpired(cmd, timeout)
                for key, _ in sel.select(left):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if proc.returncode is None:  # timed out or interrupted: do not leave it running
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    out, err = (b"".join(chunks[p]).decode() for p in (proc.stdout, proc.stderr))
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err), usage.ru_maxrss


def refused_cleanly(proc: subprocess.CompletedProcess) -> bool:
    """Exit 1 with exactly one ``lexineq: error:`` line and no traceback."""
    lines = proc.stderr.splitlines()
    return (proc.returncode == 1 and len(lines) == 1 and lines[0].startswith("lexineq: error:")
            and "Traceback" not in proc.stderr)


WORKLOADS = {w.name: w for w in (Frontend, RasterWrite, CliCold)}
