"""Acceptance suite: one test per gate criterion.

Each test enforces its criterion at the stated tolerance, measures the
stated runtime budget, and prints one PASS/FAIL line (run with
``pytest tests/test_acceptance.py -s`` to see them).  Budgets assume a
warm process; the module fixture below runs every grid path once
outside any timed section.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

import lexineq as lx
from exprgen import gen_source, probe
from lexineq.laws import LAW_IDS, check_law, is_law, recheck
from lexineq.oracle import GridSpec, sample_raster, verify
from lexineq.parser import eval_expr, parse, source_to_text
from lexineq.region import (
    Disc,
    Invert,
    Membership,
    Region,
    Rotate,
    Scale,
    Sqrt,
    Translate,
    apply_transform,
    classify,
    contains,
    principal_angle,
)
from lexineq.solver import (
    Fractional,
    Linear,
    LinearSystem,
    Quadratic,
    SolutionSet,
    solution_grid,
    solve,
    solve_quadratic,
)

IN, OUT, POLE = Membership.IN, Membership.OUT, Membership.POLE


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    """Run every grid path once, outside the timed sections."""
    g = GridSpec(-1, 1, -1, 1, 3, 3)
    zr, zi = g.points()
    for p in (Linear(1 + 0j, 0j), LinearSystem(1 + 0j, 0j, 1j, 0j),
              Fractional(0j, 1 + 0j, 0j, 1 + 0j), Quadratic(1 + 0j, 0j, 0j)):
        verify(p, solve(p), g)
    region = Region(0j, (Rotate(1.0), Scale(2.0), Translate(1j), Invert(), Sqrt()))
    lx.membership_grid(region, zr, zi)
    contains(region, 1 + 1j)


def _report(n, name, failures, elapsed, budget):
    ok = not failures and elapsed < budget
    print(f"\nACCEPTANCE {n} {name}: {'PASS' if ok else 'FAIL'} "
          f"({elapsed:.2f}s, budget {budget:g}s)")
    assert not failures, failures[:5]
    assert elapsed < budget, f"runtime {elapsed:.2f}s exceeds {budget}s"


def test_criterion_1_order_laws():
    t0 = time.perf_counter()
    failures = []
    for law_id in LAW_IDS:
        report = check_law(law_id, samples=10_000, seed=42)
        if is_law(law_id):
            if report.outcome != "pass":
                failures.append((law_id, report.witness))
        else:
            if report.outcome != "counterexample":
                failures.append((law_id, "no counterexample found"))
            elif recheck(law_id, report.witness):
                failures.append((law_id, "witness does not violate the law"))
    _report(1, "order-law suite", failures, time.perf_counter() - t0, 1.0)


def _random_region(rng):
    transforms = []
    for _ in range(int(rng.integers(0, 4))):
        k = int(rng.integers(0, 5))
        if k == 0:
            transforms.append(Rotate(float(rng.uniform(-7, 7))))
        elif k == 1:
            transforms.append(Scale(float(rng.uniform(0.25, 4.0))))
        elif k == 2:
            transforms.append(Translate(complex(rng.uniform(-2, 2), rng.uniform(-2, 2))))
        elif k == 3:
            transforms.append(Invert())
        else:
            transforms.append(Sqrt())
    return Region(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)), tuple(transforms))


def test_criterion_2_pullback_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    failures = []
    for k in range(1000):
        base = _random_region(rng)
        w = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if k % 10 == 0:
            w = 0j  # exercise the pole of the inversion pullback
        theta = float(rng.uniform(-7, 7))
        r = float(rng.uniform(0.25, 4.0))
        off = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        cis = complex(math.cos(principal_angle(theta)), -math.sin(principal_angle(theta)))
        checks = [
            ("rotate", contains(apply_transform(base, Rotate(theta)), w),
             contains(base, w * cis)),
            ("scale", contains(apply_transform(base, Scale(r)), w),
             contains(base, w / r)),
            ("translate", contains(apply_transform(base, Translate(off)), w),
             contains(base, w - off)),
            ("sqrt", contains(apply_transform(base, Sqrt()), w),
             contains(base, w * w)),
            ("invert", contains(apply_transform(base, Invert()), w),
             POLE if w == 0 else contains(base, 1 / w)),
        ]
        for name, got, expected in checks:
            if got is not expected:
                failures.append((name, base, w, got, expected))
    _report(2, "pullback suite", failures, time.perf_counter() - t0, 1.0)


def test_criterion_3_rotated_halfplane_closed_form():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    grid = GridSpec(-5, 5, -5, 5, 101, 101)
    zr, zi = grid.points()
    failures = []
    for _ in range(100):
        theta = float(rng.uniform(-math.pi, math.pi))
        anchor = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        region = Region(anchor, (Rotate(theta),))
        codes = lx.membership_grid(region, zr, zi)
        c, s = math.cos(theta), math.sin(theta)
        u = zr * c + zi * s
        v = zi * c - zr * s
        du = u - anchor.real
        dv = v - anchor.imag
        formula_in = (du > 0.0) | ((du == 0.0) & (dv >= 0.0))
        margin = np.where(du != 0.0, np.abs(du), np.abs(dv))
        active = margin > 1e-6
        disagree = active & (formula_in != (codes == int(IN)))
        if np.any(disagree):
            idx = int(np.argmax(disagree))
            failures.append((theta, anchor, complex(zr[idx], zi[idx])))
    _report(3, "rotated half-plane closed form", failures, time.perf_counter() - t0, 5.0)


def test_criterion_4_inversion_disc():
    t0 = time.perf_counter()
    rng = np.random.default_rng(13)
    failures = []
    for _ in range(50):
        a1 = float(rng.uniform(0.1, 5.0))
        anchor = complex(a1, rng.uniform(-2.0, 2.0))
        region = Region(anchor, (Invert(),))
        c = classify(region)
        if not isinstance(c, Disc):
            failures.append((anchor, "not classified as a disc"))
            continue
        want = 1.0 / (2.0 * a1)
        if abs(c.center - complex(want, 0.0)) > 1e-9 or abs(c.radius - want) > 1e-9:
            failures.append((anchor, "center/radius", c.center, c.radius))
            continue
        rad = c.radius
        grid = GridSpec(want - 1.2 * rad, want + 1.2 * rad, -1.2 * rad, 1.2 * rad, 201, 201)
        bmp = sample_raster(region, grid)
        zr, zi = grid.points()
        dist = np.hypot(zr - c.center.real, zi - c.center.imag)
        in_cells = bmp.cells == int(IN)
        stray = in_cells & (dist >= rad + grid.cell_diagonal)
        missing = (dist < rad - 1e-6) & ~in_cells
        if np.any(stray):
            idx = int(np.argmax(stray))
            failures.append((anchor, "In cell outside the disc", complex(zr[idx], zi[idx])))
        if np.any(missing):
            idx = int(np.argmax(missing))
            failures.append((anchor, "interior cell not In", complex(zr[idx], zi[idx])))
    _report(4, "inversion disc geometry", failures, time.perf_counter() - t0, 10.0)


def test_criterion_5_sqrt_topology_probes():
    t0 = time.perf_counter()
    failures = []
    for a1 in (-2.0, -0.5):
        region = Region(complex(a1, 0.0), (Sqrt(),))
        if contains(region, 0j) is not IN:
            failures.append((a1, "origin should be In"))
    for a1 in (0.5, 3.0):
        region = Region(complex(a1, 0.0), (Sqrt(),))
        if contains(region, 0j) is not OUT:
            failures.append((a1, "origin should be Out"))
        t = math.sqrt(a1 + 1.0)
        for w, expected in ((complex(t, 0.0), IN), (complex(-t, 0.0), IN),
                            (complex(0.0, t), OUT), (complex(0.0, -t), OUT)):
            if contains(region, w) is not expected:
                failures.append((a1, w, expected))
    _report(5, "radication topology probes", failures, time.perf_counter() - t0, 1.0)


def _uniform_complex(rng, lo=-3.0, hi=3.0):
    return complex(rng.uniform(lo, hi), rng.uniform(lo, hi))


def test_criterion_6_solver_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(97)
    failures = []
    for cls in ("linear", "system", "fractional", "quadratic"):
        for _ in range(100):
            if cls == "linear":
                problem = Linear(_uniform_complex(rng), _uniform_complex(rng))
            elif cls == "system":
                problem = LinearSystem(_uniform_complex(rng), _uniform_complex(rng),
                                       _uniform_complex(rng), _uniform_complex(rng))
            elif cls == "fractional":
                while True:
                    a, b, c = (_uniform_complex(rng) for _ in range(3))
                    if b - a * c != 0:
                        break
                problem = Fractional(a, b, c, _uniform_complex(rng))
            else:
                problem = Quadratic(_uniform_complex(rng), _uniform_complex(rng),
                                    _uniform_complex(rng))
            report = verify(problem, solve(problem), eps=1e-6)
            if not report.passed:
                failures.append((problem, report.mismatches[:3]))
                continue
            active = report.total - report.skipped_pole
            if report.skipped_boundary / active >= 0.005:
                failures.append((problem, f"skipped {report.skipped_boundary}/{active}"))
    _report(6, "solver-oracle equivalence", failures, time.perf_counter() - t0, 60.0)


def _branch_shifted(solution: SolutionSet) -> SolutionSet:
    """The same quadratic solution with the square-root branch angle
    advanced by pi (centrally symmetric, hence the same set)."""
    region = solution.regions[0]
    phi = 0.0
    offset = None
    for t in region.transforms[1:]:
        if isinstance(t, Rotate):
            phi = t.theta
        elif isinstance(t, Translate):
            offset = t.offset
    alt = Region(region.base, (Sqrt(), Rotate(principal_angle(phi - math.pi))))
    if offset is not None:
        alt = apply_transform(alt, Translate(offset))
    return SolutionSet.single(alt)


def test_criterion_7_quadratic_branch_invariance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(31)
    failures = []
    for _ in range(100):
        while True:
            a = _uniform_complex(rng)
            if a != 0:
                break
        b, c = _uniform_complex(rng), _uniform_complex(rng)
        solution = solve_quadratic(a, b, c)
        shifted = _branch_shifted(solution)
        zr = rng.uniform(-5, 5, 10_000)
        zi = rng.uniform(-5, 5, 10_000)
        if not np.array_equal(solution_grid(solution, zr, zi),
                              solution_grid(shifted, zr, zi)):
            failures.append((a, b, c))
    _report(7, "quadratic branch invariance", failures, time.perf_counter() - t0, 5.0)


def test_criterion_8_parser_roundtrip_and_normalization():
    t0 = time.perf_counter()
    rng = np.random.default_rng(211)
    failures = []
    from lexineq.normalize import classify_problem
    from lexineq.oracle import _values

    for _ in range(1000):
        src = gen_source(rng)
        printed = source_to_text(src)
        back = parse(printed)
        if (back.lhs, back.rhs) != (src.lhs, src.rhs):
            failures.append(("roundtrip", printed))
            continue
        problem = classify_problem(src)
        for _ in range(10):
            z = probe(rng)
            try:
                ast_value = eval_expr(src.lhs, z) - eval_expr(src.rhs, z)
            except ZeroDivisionError:
                continue
            if isinstance(problem, Fractional) and z + problem.c == 0:
                continue
            (canonical,) = _values(problem, z)
            if canonical != ast_value:
                failures.append(("normalization", printed, z, canonical, ast_value))
                break
    _report(8, "parser round-trip and normalization", failures, time.perf_counter() - t0, 5.0)


def test_criterion_9_reproducibility(tmp_path):
    t0 = time.perf_counter()
    failures = []

    def run_laws():
        return subprocess.run(
            [sys.executable, "-m", "lexineq", "laws", "--seed", "42"],
            capture_output=True, check=False,
        )

    first, second = run_laws(), run_laws()
    if first.returncode != 0 or second.returncode != 0:
        failures.append(("laws exit", first.returncode, second.returncode, first.stderr[:200]))
    if first.stdout != second.stdout:
        failures.append(("laws output differs between runs",))

    outputs = []
    for name in ("a.pgm", "b.pgm"):
        out = tmp_path / name
        res = subprocess.run(
            [sys.executable, "-m", "lexineq", "raster", "Z^2 >= -1",
             "--window=-3,3,-3,3", "--res", "101,101", "--out", str(out),
             "--format", "pgm"],
            capture_output=True, check=False,
        )
        if res.returncode != 0:
            failures.append(("raster exit", res.returncode, res.stderr[:200]))
        outputs.append(out.read_bytes())
    if outputs[0] != outputs[1]:
        failures.append(("raster bytes differ between runs",))
    _report(9, "byte-identical reproducibility", failures, time.perf_counter() - t0, 60.0)
