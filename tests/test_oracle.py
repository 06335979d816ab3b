import math

import numpy as np
import pytest

from lexineq.errors import PoleError
from lexineq.oracle import (
    MAX_CELLS,
    Bitmap,
    GridSpec,
    boundary_margin,
    default_grid,
    eval_direct,
    problem_grid,
    sample_raster,
    verify,
)
from lexineq.region import Invert, Membership, Region, Sqrt
from lexineq.solver import Fractional, Linear, Quadratic, System, solve, solve_linear

IN, OUT, POLE = Membership.IN, Membership.OUT, Membership.POLE


class TestGridSpec:
    def test_axis_hits_zero_exactly(self):
        axis = GridSpec(-5, 5, -5, 5, 201, 201).re_axis()
        assert axis[100] == 0.0
        assert axis[0] == -5.0 and axis[200] == 5.0

    def test_points_row_major(self):
        g = GridSpec(0, 1, 10, 11, 2, 2)
        zr, zi = g.points()
        assert list(zr) == [0.0, 1.0, 0.0, 1.0]
        assert list(zi) == [10.0, 10.0, 11.0, 11.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(1, 0, 0, 1, 10, 10)
        with pytest.raises(ValueError):
            GridSpec(0, 1, 0, 1, 1, 10)

    @pytest.mark.parametrize("bounds", [(-math.inf, 1, 0, 1), (0, math.inf, 0, 1),
                                        (0, 1, -math.inf, math.inf)])
    def test_non_finite_bounds_refused(self, bounds):
        with pytest.raises(ValueError, match="finite"):
            GridSpec(*bounds, 10, 10)


class TestEvalDirect:
    def test_quadratic_out(self):
        assert eval_direct(Quadratic(1 + 0j, 0j, 0j), 1j) is OUT

    def test_fractional_pole(self):
        assert eval_direct(Fractional(0j, 1 + 0j, 0j, 1 + 0j), 0j) is POLE

    def test_linear_boundary_is_in(self):
        assert eval_direct(Linear(1 + 0j, 2 + 1j), 2 + 1j) is IN

    def test_system_conjunction(self):
        p = System((Linear(1 + 0j, 0j), Linear(1j, 0j)))
        assert eval_direct(p, 1 - 1j) is IN
        assert eval_direct(p, 1 + 1j) is OUT


class TestBoundaryMargin:
    def test_real_part_decides(self):
        assert boundary_margin(Linear(1 + 0j, 0j), 3 + 0j) == 3.0

    def test_falls_to_imaginary(self):
        assert boundary_margin(Linear(1 + 0j, 0j), 2j) == 2.0

    def test_real_residue_decides(self):
        # any nonzero real part decides the comparison, however small
        assert boundary_margin(Linear(1 + 0j, 0j), 1e-9 + 5j) == 1e-9

    def test_quadratic_example(self):
        assert boundary_margin(Quadratic(1 + 0j, 0j, 0j), 1 + 1j) == 2.0

    def test_pole_raises(self):
        with pytest.raises(PoleError):
            boundary_margin(Fractional(0j, 1 + 0j, 0j, 1 + 0j), 0j)

    def test_system_takes_min(self):
        p = System((Linear(1 + 0j, 0j), Linear(1 + 0j, -3 + 0j)))
        assert boundary_margin(p, 1 + 0j) == 1.0


class TestVerify:
    def test_linear_identity(self):
        p = Linear(1 + 0j, 0j)
        report = verify(p, solve(p))
        assert report.passed and not report.mismatches
        assert report.total == 201 * 201
        # the single skipped probe is Z = 0, squarely on the decision point
        assert report.skipped_boundary == 1

    def test_quadratic(self):
        p = Quadratic(1 + 0j, 0j, 1 + 0j)
        assert verify(p, solve(p)).passed

    def test_fractional_pole_is_counted(self):
        p = Fractional(0j, 1 + 0j, 0j, 1 + 0j)
        report = verify(p, solve(p))
        assert report.passed
        assert report.skipped_pole >= 1

    def test_wrong_solution_is_caught(self):
        p = Linear(1 + 0j, 1 + 0j)
        wrong = solve_linear(1 + 0j, 0j)
        report = verify(p, wrong)
        assert not report.passed
        assert len(report.mismatches) > 1000
        m = report.mismatches[0]
        assert m.expected is not m.got

    def test_eps_monotonicity(self):
        p = Linear(1 + 0j, 0.5 + 0j)
        wrong = solve_linear(1 + 0j, 0.25 + 0j)
        grid = GridSpec(-2, 2, -2, 2, 81, 81)
        counts = [len(verify(p, wrong, grid, eps).mismatches)
                  for eps in (1e-9, 1e-3, 0.1, 0.3, 1.0)]
        assert counts == sorted(counts, reverse=True)
        assert counts[0] > 0

    def test_mismatches_in_grid_order(self):
        p = Linear(1 + 0j, 1 + 0j)
        report = verify(p, solve_linear(1 + 0j, 0j), GridSpec(-2, 2, -2, 2, 41, 41))
        pts = [(m.point.imag, m.point.real) for m in report.mismatches]
        assert pts == sorted(pts)

    def test_determinism(self):
        p = Quadratic(1j, 2 + 0j, 1j)
        r1 = verify(p, solve(p))
        r2 = verify(p, solve(p))
        assert r1 == r2


class TestVerifySweepCoarseDyadic:
    """Stress test: coarse dyadic coefficients make boundary lines pass
    exactly through many rational grid points, the worst case for
    cross-path float agreement.  Zero mismatches are still required;
    only the skip count may grow."""

    def test_all_classes(self):
        rng = np.random.default_rng(7)

        def dy():
            return complex(rng.integers(-24, 25) / 8, rng.integers(-24, 25) / 8)

        for trial in range(40):
            cls = trial % 4
            if cls == 0:
                while True:
                    a = dy()
                    if a != 0:
                        break
                problem = Linear(a, dy())
            elif cls == 1:
                while True:
                    a, c = dy(), dy()
                    if a != 0 and c != 0:
                        break
                problem = System((Linear(a, dy()), Linear(c, dy())))
            elif cls == 2:
                while True:
                    a, b, c = dy(), dy(), dy()
                    if b - a * c != 0:
                        break
                problem = Fractional(a, b, c, dy())
            else:
                while True:
                    a = dy()
                    if a != 0:
                        break
                problem = Quadratic(a, dy(), dy())
            report = verify(problem, solve(problem))
            assert report.passed, (problem, report.mismatches[:3])
            assert report.skipped_boundary < 0.01 * report.total


class TestRaster:
    def test_halfplane_three_by_three(self):
        bmp = sample_raster(Region(0j), GridSpec(-1, 1, -1, 1, 3, 3))
        # In iff re > 0, or re = 0 and im >= 0: 5 of the 9 cells
        assert int(np.count_nonzero(bmp.cells == int(IN))) == 5
        cells = bmp.cells.reshape(3, 3)  # rows im ascending
        assert list(cells[0]) == [0, 0, 2]   # im = -1
        assert list(cells[1]) == [0, 2, 2]   # im = 0
        assert list(cells[2]) == [0, 2, 2]   # im = +1

    def test_disc_cell_count(self):
        region = Region(0.5 + 0j, (Invert(),))  # disc center 1, radius 1
        grid = GridSpec(-0.5, 2.5, -1.5, 1.5, 201, 201)
        bmp = sample_raster(region, grid)
        cell_area = (3 / 200) * (3 / 200)
        expected = math.pi / cell_area
        got = int(np.count_nonzero(bmp.cells == int(IN)))
        assert abs(got - expected) / expected < 0.05

    def test_sqrt_raster_contains_origin(self):
        bmp = sample_raster(Region(-1 + 0j, (Sqrt(),)), GridSpec(-2, 2, -2, 2, 41, 41))
        cells = bmp.cells.reshape(41, 41)
        assert cells[20, 20] == int(IN)

    def test_problem_raster_matches_eval(self):
        p = Quadratic(1 + 0j, 0j, 0j)
        grid = GridSpec(-2, 2, -2, 2, 21, 21)
        bmp = sample_raster(p, grid)
        zr, zi = grid.points()
        for k in range(0, zr.shape[0], 17):
            assert bmp.cells[k] == int(eval_direct(p, complex(zr[k], zi[k])))

    def test_raster_determinism(self):
        p = Fractional(1 + 1j, 3 + 0j, 1 + 0j, 0.5j)
        g = GridSpec(-3, 3, -3, 3, 101, 101)
        assert np.array_equal(sample_raster(p, g).cells, sample_raster(p, g).cells)

    def test_rejects_unknown_source(self):
        with pytest.raises(TypeError):
            sample_raster("blob", default_grid())


class TestExports:
    def test_pgm_golden(self):
        bmp = sample_raster(Region(0j), GridSpec(-1, 1, -1, 1, 3, 3))
        # rows written top-down: im = +1 first
        assert bmp.to_pgm() == "P2\n3 3\n2\n0 2 2\n0 2 2\n0 0 2\n"

    def test_pgm_pole_value(self):
        bmp = sample_raster(Fractional(0j, 1 + 0j, 0j, 1 + 0j), GridSpec(-1, 1, -1, 1, 3, 3))
        rows = bmp.to_pgm().splitlines()
        assert rows[0] == "P2" and rows[1] == "3 3" and rows[2] == "2"
        assert rows[4].split()[1] == "1"  # the pole at the origin

    def test_csv_golden(self):
        bmp = sample_raster(Region(0j), GridSpec(0, 1, 0, 1, 2, 2))
        assert bmp.to_csv() == (
            "re,im,state\n"
            "0.0,0.0,in\n"
            "1.0,0.0,in\n"
            "0.0,1.0,in\n"
            "1.0,1.0,in\n"
        )

    def test_bitmap_validates_length(self):
        with pytest.raises(ValueError):
            Bitmap(GridSpec(0, 1, 0, 1, 2, 2), np.zeros(5, dtype=np.uint8))


class TestProblemGrid:
    def test_matches_scalar_eval(self):
        rng = np.random.default_rng(6)
        problems = [
            Linear(1.5 - 2j, 0.25 + 1j),
            System((Linear(1 + 2j, 0.5j), Linear(-1 + 0.25j, 2 + 0j))),
            Fractional(1 + 1j, 3 + 0j, 1 + 0j, 0.5j),
            Quadratic(-2 + 1j, 1 + 0j, 0.125 - 3j),
        ]
        zr = np.concatenate([rng.uniform(-3, 3, 40), [-1.0, 0.0]])
        zi = np.concatenate([rng.uniform(-3, 3, 40), [0.0, 0.0]])
        for p in problems:
            codes, _ = problem_grid(p, zr, zi)
            for k in range(zr.shape[0]):
                assert codes[k] == int(eval_direct(p, complex(zr[k], zi[k])))


class TestGridCap:
    def test_cap_accepted(self):
        side = math.isqrt(MAX_CELLS)
        assert side * side == MAX_CELLS
        GridSpec(0, 1, 0, 1, side, side)
        GridSpec(0, 1, 0, 1, MAX_CELLS // 2, 2)

    @pytest.mark.parametrize("nx, ny", [(4097, 4096), (MAX_CELLS // 2 + 1, 2), (100_000, 100_000)])
    def test_past_cap_names_the_cap(self, nx, ny):
        with pytest.raises(ValueError, match=str(MAX_CELLS)):
            GridSpec(0, 1, 0, 1, nx, ny)


class TestAsserted:
    def test_no_skips_asserts_every_probe(self):
        report = verify(Linear(1 + 0j, complex(1 / 3)), solve_linear(1 + 0j, complex(1 / 3)),
                        GridSpec(-2, 2, -2, 2, 41, 41))
        assert report.skipped_boundary == 0 and report.skipped_pole == 0
        assert report.asserted == report.total == 41 * 41

    @pytest.mark.parametrize("eps", [1e300, math.inf])
    def test_asserting_nothing_fails(self, eps):
        p = Linear(1 + 0j, 0j)
        report = verify(p, solve(p), GridSpec(-2, 2, -2, 2, 41, 41), eps)
        assert report.asserted == 0 and not report.mismatches
        assert not report.passed

    def test_one_asserted_probe_can_pass(self):
        # every probe has margin 1 except Z = 0 (margin 0) and Z = 2i (margin 2)
        p = Linear(1 + 0j, 0j)
        report = verify(p, solve(p), GridSpec(-1, 1, 0, 2, 3, 2), eps=1.5)
        assert report.asserted == 1 and report.passed

    def test_skips_are_subtracted(self):
        p = Fractional(0j, 1 + 0j, 0j, 1 + 0j)
        report = verify(p, solve(p), GridSpec(-2, 2, -2, 2, 41, 41))
        assert report.skipped_pole == 1 and report.skipped_boundary > 0
        assert report.asserted == report.total - report.skipped_boundary - report.skipped_pole
