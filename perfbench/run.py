#!/usr/bin/env python3
"""lexineq benchmark command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run from the root of a source checkout: the library is imported from
``src/`` and nowhere else.  Workloads are ``frontend``, ``raster-write``
and ``cli-cold`` (see ``workloads.py`` and README.md).

``--trace 0`` times the workload with tracing off for S seconds and
reports the end-to-end metrics.  ``--trace 1`` runs each op twice, once
untraced and once inside spans (alternating which goes first), replays
the parts of an op that are not separate calls, runs the known-defect
set, and reports the per-layer metrics and the tracing overhead.

Either way the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a full run record
(machine, sample counts, percentiles, failures) goes to
``.perfbench_out/``.  ``--all`` runs every workload both ways, one child
process at a time, and prints every metric with its unit and count.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import importlib.util
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

from spans import Spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOAD_NAMES = ("frontend", "raster-write", "cli-cold")
MODULES = ("parser", "normalize", "solver", "region", "oracle", "cli", "laws")
TAIL_LADDER = (99.0, 95.0, 90.0, 80.0, 75.0, 60.0)
SETUP_SAMPLES = 5     # set-up is repeated in this many child processes; the median is reported
STARTUP_SAMPLES = 5   # interpreter / import probes per traced run

# Metric names and units come from BENCHMARK.json, the one place they are defined.
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


def load_workloads():
    """Import the benchmark's workloads against ``src/lexineq`` of this checkout."""
    if not (SRC / "lexineq" / "__init__.py").is_file():
        sys.exit(f"perfbench: no lexineq sources at {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import lexineq
    import workloads

    if Path(lexineq.__file__).resolve().parent != SRC / "lexineq":
        sys.exit(f"perfbench: imported lexineq from {lexineq.__file__}, not from {SRC}")
    return workloads


def percentile(ordered: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def tail(ordered: list[float], start: float) -> tuple[float, float]:
    """(p, value) for the workload's tail percentile, or the next lower ladder
    step when fewer than ten samples lie beyond it; the median if none has ten.
    """
    for p in (q for q in TAIL_LADDER if q <= start):
        value = percentile(ordered, p)
        if len(ordered) - bisect.bisect_right(ordered, value) >= 10:
            return p, value
    return 50.0, statistics.median(ordered)


def run_one(wl, i: int, sp):
    """One op and its check: (op ns, result, failing module or None, error text)."""
    t0 = time.perf_counter_ns()
    try:
        res = wl.op(i, sp)
    except Exception as exc:  # an op that raises is a failed op, not a crashed benchmark
        return time.perf_counter_ns() - t0, None, sp.layer_of_last(), f"{type(exc).__name__}: {exc}"
    ns = time.perf_counter_ns() - t0
    try:
        bad = wl.check(i, res)
    except Exception as exc:  # malformed output
        return ns, res, wl.output_module, f"check: {type(exc).__name__}: {exc}"
    return ns, res, bad, None if bad is None else "wrong output"


class Tally:
    """Per-op outcomes of one pass."""

    def __init__(self):
        self.attempted = 0
        self.busy_ns = 0
        self.work = 0
        self.ok_ns = array("q")  # compact, so the harness's own memory hardly grows with op count
        self.failed_by: Counter = Counter()
        self.failures: list[dict] = []

    def add(self, wl, i, ns, res, bad, err):
        self.attempted += 1
        self.busy_ns += ns
        if bad is None:
            self.ok_ns.append(ns)
            self.work += res.work
        else:
            self.fail(wl, i, bad, err)

    def fail(self, wl, i, bad, err):
        self.failed_by[bad] += 1
        if len(self.failures) < 20:
            self.failures.append({"op": i, "module": bad, "error": err, "input": wl.describe(i)})

    @property
    def failed(self) -> int:
        return sum(self.failed_by.values())


def untraced_pass(wl, seconds: float) -> Tally:
    sp = Spans(record=False)
    tally = Tally()
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or i % wl.ROUND:
        tally.add(wl, i, *run_one(wl, i, sp))
        i += 1
    return tally


def traced_pass(wl, seconds: float):
    """Each op runs untraced and traced, alternating which goes first."""
    plain, sp = Spans(record=False), Spans(record=True)
    untraced, traced = Tally(), Tally()
    written = 0  # bytes of the traced ops' files
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or i % wl.ROUND:
        for record in ((False, True) if i % 2 == 0 else (True, False)):
            if not record:
                untraced.add(wl, i, *run_one(wl, i, plain))
                continue
            sp.op_id = i
            with sp.span("op"):
                ns, res, bad, err = run_one(wl, i, sp)
            traced.add(wl, i, ns, res, bad, err)
            if res is not None:
                written += res.data.get("bytes", 0)
                with sp.span("replay"):
                    bad = wl.replay(i, res, sp)
                if bad is not None:
                    traced.fail(wl, i, bad, "wrong replayed output")
        i += 1
    return untraced, traced, sp, written


def startup_ms(env) -> tuple[float, float]:
    """Median interpreter start, and the median extra for ``import lexineq.cli``."""
    bare, imported = [], []
    for _ in range(STARTUP_SAMPLES):
        for code, acc in (("pass", bare), ("import lexineq.cli", imported)):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True)
            acc.append(time.perf_counter() - t0)
    return statistics.median(bare) * 1e3, (statistics.median(imported) - statistics.median(bare)) * 1e3


def setup_seconds(name: str, seed: int) -> list[float]:
    """Spawn-to-ready time of fresh processes doing the workload's set-up."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                               "--workload", name, "--seed", str(seed)],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            samples.append(time.perf_counter() - t0)
            child.stdout.read()
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up probe exited {child.returncode} without becoming ready")
    return samples


def git_commit() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def cache_sizes() -> dict:
    out = {}
    for level in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            got = subprocess.run(["getconf", level], capture_output=True, text=True, timeout=30)
            out[level] = int(got.stdout.strip()) if got.returncode == 0 else None
        except (OSError, ValueError, subprocess.TimeoutExpired):
            out[level] = None
    return out


def machine() -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "lexineq").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "cache_bytes": cache_sizes(),
    }


def end_to_end(wl, tally: Tally, setup: list[float], peak_rss_kb: int) -> tuple[dict, dict]:
    ordered = sorted(ns / 1e6 for ns in tally.ok_ns) or [0.0]
    p, tail_ms = tail(ordered, wl.TAIL_PERCENTILE)
    metrics = {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "work_per_s": tally.work / (tally.busy_ns / 1e9) if tally.busy_ns else 0.0,
        "op_p50_ms": statistics.median(ordered),
        "op_tail_ms": tail_ms,
    }
    detail = {
        "setup_s": {"n": len(setup), "samples": setup, "stat": "median"},
        "peak_rss_mb": {"n": 1, "stat": wl.peak_rss_doc},
        "work_per_s": {"n": tally.attempted, "work": tally.work, "busy_s": tally.busy_ns / 1e9,
                       "unit_counts": wl.unit},
        "op_p50_ms": {"n": len(tally.ok_ns), "percentile": 50},
        "op_tail_ms": {"n": len(tally.ok_ns), "percentile": p},
        "op_percentiles_ms": {str(q): percentile(ordered, q) for q in (10, 25, 50, 75, 90, 95, 99, 99.9)},
    }
    return metrics, detail


def per_layer(wl, untraced: Tally, traced: Tally, sp, written, defects, startup) -> dict:
    self_ns = sp.self_times()
    ops = max(1, traced.attempted)

    def total(name):
        return self_ns.get(name, (0, 0))[1]

    def calls(name):
        return self_ns.get(name, (0, 0))[0]

    def per(name, count, scale):
        return total(name) / count / scale if count else 0.0

    cells = getattr(wl, "RES", 0) ** 2
    probes = calls("oracle.points") * cells
    verify_probes = calls("oracle.verify") * cells
    parts = total("oracle.points") + total("oracle.problem_grid") + total("solver.solution_grid_margin")
    failed_by = untraced.failed_by + traced.failed_by + Counter(m for _, m in defects if m)
    record = wl.record()
    asserted = record.get("asserted_probes", 0), record.get("non_pole_probes", 0)
    return {
        "parser.parse_input_us": per("parser.parse_input", ops, 1e3),
        "normalize.classify_problem_ex_us": per("normalize.classify_problem_ex", ops, 1e3),
        "solver.solve_us": per("solver.solve", ops, 1e3),
        "region.classify_us": per("region.classify", ops, 1e3),
        "cli.to_json_us": per("cli.to_json", ops, 1e3),
        "oracle.points_ns_per_probe": per("oracle.points", probes, 1),
        "oracle.problem_grid_ns_per_probe": per("oracle.problem_grid", probes, 1),
        "solver.solution_grid_margin_ns_per_probe": per("solver.solution_grid_margin", probes, 1),
        "oracle.verify_ns_per_probe": per("oracle.verify", verify_probes, 1),
        # verify's own work: its span minus its three parts, replayed on the same inputs.
        # Informational: a difference of two noisy spans, and it can come out negative.
        "oracle.verify_self_ns_per_probe":
            (total("oracle.verify") - parts) / verify_probes if verify_probes else 0.0,
        "oracle.asserted_share": asserted[0] / asserted[1] if asserted[1] else 0.0,
        "oracle.sample_raster_ns_per_cell": per("oracle.sample_raster", calls("oracle.sample_raster") * cells, 1),
        "oracle.to_pgm_ns_per_cell": per("oracle.to_pgm", calls("oracle.to_pgm") * cells, 1),
        "oracle.to_csv_ns_per_cell": per("oracle.to_csv", calls("oracle.to_csv") * cells, 1),
        "oracle.write_ns_per_byte": per("oracle.write", written, 1),
        "oracle.bytes_written": written,
        "cli.interpreter_ms": startup[0],
        "cli.import_ms": startup[1],
        "cli.main_ms": per("cli.main", calls("cli.main"), 1e6),
        "laws.check_all_ms": per("laws.check_all", calls("laws.check_all"), 1e6),
        **{f"{mod}.failed": failed_by[mod] for mod in MODULES},
        "fail_ratio": (untraced.failed + traced.failed) / max(1, untraced.attempted + traced.attempted),
        "known_defects.attempted": len(defects),
        "known_defects.fail_ratio": sum(1 for _, mod in defects if mod) / len(defects) if defects else 0.0,
        "trace.overhead_share": traced.busy_ns / untraced.busy_ns - 1.0 if untraced.busy_ns else 0.0,
        "trace.spans": len(sp.rows),
    }


def run_workload(args) -> int:
    workloads = load_workloads()
    OUT.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, str(OUT), str(SRC))
    try:
        run_one(wl, 0, Spans(record=False))  # caches fill and lazy set-up finishes before timing
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        record = {"machine": machine(), "workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace, "closed_loop_clients": 1}
        if args.trace == 0:
            setup = setup_seconds(args.workload, args.seed)
            tally = untraced_pass(wl, args.seconds)
            # read before the statistics below allocate their own lists
            peak_rss_kb = wl.peak_rss_kb()
            metrics, detail = end_to_end(wl, tally, setup, peak_rss_kb)
            units = END_TO_END
            passes = [tally]
        else:
            startup = startup_ms(workloads.child_env(str(SRC)))
            untraced, traced, sp, written = traced_pass(wl, args.seconds)
            # untraced, so the defect probes stay out of the per-layer times
            defects = wl.known_defects(Spans(record=False))
            metrics = per_layer(wl, untraced, traced, sp, written, defects, startup)
            units = PER_LAYER
            passes = [untraced, traced]
            # one spans file per workload, overwritten by its next traced run
            spans_path = OUT / f"{args.workload}-spans.jsonl"
            sp.write_jsonl(str(spans_path))
            detail = {"spans_file": spans_path.name, "traced_ops": traced.attempted,
                      "known_defects": {"set": wl.defects_doc,
                                        "probes": [{"probe": label, "failed_in": mod}
                                                   for label, mod in defects]}}
        attempted = sum(p.attempted for p in passes)
        failed = sum(p.failed for p in passes)
        record.update({"metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
                       "detail": detail, "workload_record": wl.record(),
                       "attempted": attempted, "failed": failed,
                       "failures": [f for p in passes for f in p.failures]})
        record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        record_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    finally:
        wl.close()
    for k in units:
        n = detail.get(k, {}).get("n", "") if args.trace == 0 else ""
        print(f"{args.workload:13s} {k:42s} {metrics[k]:14.6g} {units[k]:6s}"
              + (f" n={n}" if n != "" else ""))
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, one child process at a time."""
    load_workloads()  # fail fast outside a source checkout
    summary = {}
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                                   "--trace", str(trace)], cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            summary.setdefault(name, {})[f"trace{trace}"] = result
            print(f"{name:13s} correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} fail_ratio={result['failed'] / result['attempted']:.4g}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"all-seed{args.seed}.json"
    path.write_text(json.dumps({"machine": machine(), "seconds": args.seconds, "seed": args.seed,
                                "results": summary}, indent=2) + "\n", encoding="utf-8")
    print(f"summary: {path.relative_to(ROOT)}")
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="lexineq benchmark")
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=float(_SPEC["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        ap.error("--workload or --all is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
