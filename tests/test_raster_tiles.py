"""Tiled grid evaluation and the array PGM/CSV writers.

The writers are checked byte for byte against the straightforward loop
writers kept below as the reference, and the tiled ``sample_raster`` and
``verify`` against whole-grid evaluation over ``GridSpec.points()``.
"""

import tracemalloc

import numpy as np
import pytest

from lexineq import _kernels, oracle
from lexineq.oracle import (
    Bitmap,
    GridSpec,
    Mismatch,
    VerificationReport,
    problem_grid,
    sample_raster,
    verify,
)
from lexineq.region import Invert, Membership, Region, Rotate, Scale, Sqrt, membership_grid
from lexineq.solver import (
    Fractional,
    Linear,
    Quadratic,
    System,
    solution_grid_margin,
    solve,
    solve_linear,
)

TILE = oracle._TILE_POINTS


def reference_pgm(bitmap: Bitmap) -> str:
    g = bitmap.grid
    rows = bitmap.cells.reshape(g.ny, g.nx)
    lines = ["P2", f"{g.nx} {g.ny}", "2"]
    for i in range(g.ny - 1, -1, -1):
        lines.append(" ".join(str(int(v)) for v in rows[i]))
    return "\n".join(lines) + "\n"


def reference_csv(bitmap: Bitmap) -> str:
    zr, zi = bitmap.grid.points()
    names = {_kernels.OUT: "out", _kernels.POLE: "pole", _kernels.IN: "in"}
    lines = ["re,im,state"]
    for x, y, c in zip(zr.tolist(), zi.tolist(), bitmap.cells.tolist()):
        lines.append(f"{x!r},{y!r},{names[c]}")
    return "\n".join(lines) + "\n"


def reference_raster(source, grid: GridSpec) -> np.ndarray:
    return reference_lanes(source, *grid.points())


def reference_lanes(source, zr, zi) -> np.ndarray:
    if isinstance(source, Region):
        return membership_grid(source, zr, zi)
    return problem_grid(source, zr, zi)[0]


def reference_verify(problem, solution, grid: GridSpec, eps=oracle.DEFAULT_EPS):
    zr, zi = grid.points()
    direct, margins_direct = problem_grid(problem, zr, zi)
    got, margins_solution = solution_grid_margin(solution, zr, zi)
    margins = np.minimum(margins_direct, margins_solution)
    pole = direct == _kernels.POLE
    boundary = ~pole & (margins < eps)
    bad = (~pole & ~boundary & (direct != got)) | (pole & (got != _kernels.POLE))
    mismatches = tuple(
        Mismatch(complex(zr[i], zi[i]), Membership(int(direct[i])), Membership(int(got[i])))
        for i in np.nonzero(bad)[0]
    )
    return VerificationReport(
        total=int(zr.shape[0]),
        skipped_boundary=int(np.count_nonzero(boundary)),
        skipped_pole=int(np.count_nonzero(pole)),
        mismatches=mismatches,
        passed=not mismatches,
    )


# 1/(Z + 0.5 - 0.25i) >= 1: the pole -0.5 + 0.25i lies on the [-2, 2]^2 grids
# below (steps of 0.25 and 0.125 through exact dyadic axis values).
FRACTIONAL_POLE = Fractional(0j, 1 + 0j, 0.5 - 0.25j, 1 + 0j)
# ((1+i)Z + 0.5)/(Z - 0.3 + 0.2i) >= 0.1
FRACTION = Fractional(1 + 1j, 0.5 + 0j, -0.3 + 0.2j, 0.1 + 0j)

PROBLEMS = [
    Linear(1 - 0.5j, 0.25 + 0j),
    System((Linear(1 + 0j, -0.5 + 0j), Linear(1j, 0.25 + 0j))),
    FRACTIONAL_POLE,
    Quadratic(1 + 0j, 0.5j, -1 + 0j),
]
PROBLEM_IDS = ["linear", "system", "fractional-pole", "quadratic"]


# Writer shapes: the PGM body's uint16 cells start at an even offset, after
# one unused byte when the header is odd, so both header parities are here.
WRITER_SHAPES = [(2, 2), (2, 7), (9, 2), (17, 33), (33, 17), (10, 3), (3, 10)]


def test_writer_shapes_cover_both_header_parities():
    assert {len(f"P2\n{nx} {ny}\n2\n") % 2 for nx, ny in WRITER_SHAPES} == {0, 1}


class TestWriters:
    @pytest.mark.parametrize("nx, ny", WRITER_SHAPES)
    @pytest.mark.parametrize("problem", PROBLEMS, ids=PROBLEM_IDS)
    def test_shapes_and_classes(self, problem, nx, ny):
        bitmap = sample_raster(problem, GridSpec(-2, 2, -2, 2, nx, ny))
        assert bitmap.to_pgm() == reference_pgm(bitmap)
        assert bitmap.to_csv() == reference_csv(bitmap)

    def test_all_three_states(self):
        bitmap = sample_raster(FRACTIONAL_POLE, GridSpec(-2, 2, -2, 2, 17, 33))
        assert set(bitmap.cells.tolist()) == {_kernels.OUT, _kernels.POLE, _kernels.IN}
        assert bitmap.to_pgm() == reference_pgm(bitmap)
        csv = bitmap.to_csv()
        assert csv == reference_csv(bitmap)
        assert ",pole\n" in csv

    def test_long_float_reprs(self):
        grid = GridSpec(-1 / 3, 2 / 3, -1 / 7, 1 / 3, 13, 11)
        bitmap = sample_raster(Quadratic(1 + 0j, 0j, -0.1 + 0j), grid)
        assert max(len(repr(x)) for x in grid.re_axis().tolist()) >= 18
        assert bitmap.to_csv() == reference_csv(bitmap)
        assert bitmap.to_pgm() == reference_pgm(bitmap)

    @pytest.mark.parametrize("window, zero", [
        ((-1.0, -0.0, -1.0, 1.0), "-0.0"),
        ((-1.0, 0.0, 0.0, 1.0), "0.0"),
        ((-1.0, 1.0, -1.0, -0.0), "-0.0"),
    ])
    def test_signed_zero_on_an_axis(self, window, zero):
        grid = GridSpec(*window, 5, 3)
        axes = grid.re_axis().tolist() + grid.im_axis().tolist()
        assert zero in [repr(x) for x in axes]
        bitmap = sample_raster(Linear(1 + 0j, 0j), grid)
        assert bitmap.to_csv() == reference_csv(bitmap)
        assert bitmap.to_pgm() == reference_pgm(bitmap)

    def test_cells_of_another_integer_dtype(self):
        bitmap = sample_raster(FRACTIONAL_POLE, GridSpec(-2, 2, -2, 2, 17, 33))
        wide = Bitmap(bitmap.grid, bitmap.cells.astype(np.int64))
        assert wide.to_pgm() == bitmap.to_pgm()
        assert wide.to_csv() == bitmap.to_csv()

    def test_csv_memory_is_bounded_by_the_output(self):
        # a wide raster of few rows: the writer holds one string per column
        # and the file text (its pieces, then the joined string), so its
        # peak stays a small multiple of the output, however wide the row
        bitmap = sample_raster(FRACTIONAL_POLE, GridSpec(-2, 2, -2, 2, 100000, 2))
        tracemalloc.start()
        try:
            csv = bitmap.to_csv()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * len(csv)
        assert csv == reference_csv(bitmap)

    def test_pgm_memory_is_the_buffer_and_the_string(self):
        # a 2-byte buffer per cell and the 2-character string decoded from
        # it make 4 bytes per cell; no temporary the size of the grid
        bitmap = sample_raster(FRACTIONAL_POLE, GridSpec(-2, 2, -2, 2, 1000, 1000))
        tracemalloc.start()
        try:
            pgm = bitmap.to_pgm()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * bitmap.cells.size
        assert pgm == reference_pgm(bitmap)

    def test_region_raster(self):
        bitmap = sample_raster(Region(-1 + 0j, (Sqrt(),)), GridSpec(-2, 2, -2, 2, 41, 23))
        assert bitmap.to_pgm() == reference_pgm(bitmap)
        assert bitmap.to_csv() == reference_csv(bitmap)


# Grid shapes against the tile size: ny not a multiple of the tile rows,
# rows longer than a tile (nx > _TILE_POINTS, split into a full and a
# one-point piece), and a grid that fits one tile.
GRIDS = [
    GridSpec(-2, 2, -2, 2, 1001, 2 * (TILE // 1001) + 3),
    GridSpec(-2, 2, -2, 2, TILE + 1, 3),
    GridSpec(-2, 2, -2, 2, 33, 17),
]
GRID_IDS = ["ragged-last-tile", "row-per-tile", "single-tile"]


def test_grid_shapes_cover_the_tile_cases():
    rows = [TILE // g.nx for g in GRIDS]  # whole rows per tile
    assert GRIDS[0].ny % rows[0] != 0 and GRIDS[0].ny > rows[0]
    assert rows[1] == 0 and GRIDS[1].nx % TILE != 0
    assert GRIDS[2].ny <= rows[2]


class TestTiling:
    @pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
    def test_tiles_concatenate_to_points(self, grid):
        zr, zi = grid.points()
        starts, tr, ti = [], [], []
        for start, a, b in grid.tiles():
            starts.append(start)
            tr.append(a)
            ti.append(b)
            assert a.shape == b.shape and 0 < a.shape[0] <= TILE
            assert not a.flags.writeable
        assert starts == [0] + np.cumsum([a.shape[0] for a in tr])[:-1].tolist()
        assert np.concatenate(tr).tobytes() == zr.tobytes()
        assert np.concatenate(ti).tobytes() == zi.tobytes()

    @pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
    @pytest.mark.parametrize("problem", PROBLEMS, ids=PROBLEM_IDS)
    def test_sample_raster_matches_whole_grid(self, problem, grid):
        bitmap = sample_raster(problem, grid)
        assert bitmap.cells.dtype == np.uint8
        assert np.array_equal(bitmap.cells, reference_raster(problem, grid))

    @pytest.mark.parametrize("problem", [
        Linear(1 + 0j, 0.3 + 0j),  # one column of blocks straddles Re z = 0.3
        Linear(1j, 0j),            # every block straddles Im z = 0: all lanes evaluated
        Linear(0j, 1j),            # real part 0 on every lane: all lanes take the tie path
        Region(-1 + 0j, (Sqrt(),)),  # a one-region solution on every row batch
        Region(0.3 + 0j, (Rotate(1.0),)),
    ], ids=["boundary", "every-block-open", "all-tied", "region", "region-rotated"])
    def test_memory_is_bounded_by_a_tile(self, problem):
        # 2^21 x 4 cells: the raster's own bytes (8 MiB) plus a few tiles
        # of temporaries, never an array per cell or a whole row's axis
        # (16 MiB of float64 here)
        grid = GridSpec(-2, 2, -2, 2, 1 << 21, 4)
        tracemalloc.start()
        try:
            bitmap = sample_raster(problem, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bitmap.cells.nbytes + 8 * (TILE * 8)
        # the first and the last tile of cells, against direct evaluation
        for row, c0 in ((0, 0), (grid.ny - 1, grid.nx - TILE)):
            zr = oracle._axis(grid.re_min, grid.re_max, grid.nx, c0, c0 + TILE)
            zi = np.full(TILE, grid.im_axis()[row])
            start = row * grid.nx + c0
            direct = (membership_grid(problem, zr, zi) if isinstance(problem, Region)
                      else problem_grid(problem, zr, zi)[0])
            assert bitmap.cells[start:start + TILE].tobytes() == direct.tobytes()

    @pytest.mark.parametrize("source", [
        Linear(1 + 0j, 0.3 + 0j),
        FRACTION,
        Fractional(1 + 0j, 0j, 0j, 1 + 0j),  # Z/Z >= 1: Re v = 0 on every lane
        Quadratic(1 + 2j, 0.5j, 0.3 + 0j),
        System((Linear(1 + 0j, 0.3 + 0j), FRACTION)),
        Region(0.3 + 0j, (Invert(),)),
        Region(0.5 + 0.25j, (Invert(), Scale(2.0))),
    ], ids=["linear", "fractional", "fractional-degenerate", "quadratic", "system-fractional",
            "region-inverted", "region-inverted-scaled"])
    def test_memory_of_every_raster_class_is_bounded_by_tiles(self, source):
        # 2^21 x 4 cells, as above: the raster's own bytes plus, for every
        # class, under 15 tiles of float64 temporaries (the degenerate
        # fraction peaks at 14.3, the largest), where one array over the
        # whole grid would be 512
        grid = GridSpec(-2, 2, -2, 2, 1 << 21, 4)
        tracemalloc.start()
        try:
            cells = sample_raster(source, grid).cells
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < cells.nbytes + 15 * (TILE * 8)
        for row, c0 in ((0, 0), (grid.ny - 1, grid.nx - TILE)):
            zr = oracle._axis(grid.re_min, grid.re_max, grid.nx, c0, c0 + TILE)
            zi = np.full(TILE, grid.im_axis()[row])
            start = row * grid.nx + c0
            assert cells[start:start + TILE].tobytes() == reference_lanes(source, zr, zi).tobytes()

    @pytest.mark.parametrize("problem", [
        PROBLEMS[0], FRACTIONAL_POLE, PROBLEMS[3],
        Linear(0j, 1j),  # real part 0 on every lane, and an empty solution
        System((Linear(1 + 0j, 0.3 + 0j), FRACTIONAL_POLE)),  # two regions, one excluded point
    ], ids=["linear", "fractional-pole", "quadratic", "all-tied", "system-fractional"])
    def test_verify_memory_is_bounded_by_tiles(self, problem):
        # 2^21 x 4 probes: both sides' temporaries for one tile at a time,
        # under 21 tiles of float64 (the system peaks at 20.3, the largest),
        # where one array over the whole grid would be 512
        grid = GridSpec(-2, 2, -2, 2, 1 << 21, 4)
        solution = solve(problem)
        tracemalloc.start()
        try:
            report = verify(problem, solution, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 21 * (TILE * 8)

    @pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
    def test_region_raster_matches_whole_grid(self, grid):
        region = Region(-1 + 0j, (Sqrt(),))
        assert np.array_equal(sample_raster(region, grid).cells, reference_raster(region, grid))

    @pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
    @pytest.mark.parametrize("problem", PROBLEMS, ids=PROBLEM_IDS)
    def test_verify_matches_whole_grid(self, problem, grid):
        solution = solve(problem)
        report = verify(problem, solution, grid)
        assert report == reference_verify(problem, solution, grid)
        assert report.passed

    def test_fractional_pole_is_counted_once(self):
        grid = GridSpec(-2, 2, -2, 2, 33, 17)
        report = verify(FRACTIONAL_POLE, solve(FRACTIONAL_POLE), grid)
        assert report.skipped_pole == 1

    @pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
    def test_wrong_solution_reports_every_mismatch_in_grid_order(self, grid):
        # No axis value of these grids lies within eps of 1/3 or 4/3, so no
        # probe is skipped and every probe with 1/3 < Re z < 4/3 is in
        # directly and out of the wrong set.
        problem = Linear(1 + 0j, complex(1 / 3))    # Z >= 1/3
        wrong = solve_linear(1 + 0j, complex(4 / 3))  # Z >= 4/3
        report = verify(problem, wrong, grid)
        assert report == reference_verify(problem, wrong, grid)
        assert not report.passed and report.skipped_boundary == 0
        zr, zi = grid.points()
        strip = (zr > 1 / 3) & (zr < 4 / 3)
        assert len(report.mismatches) == np.count_nonzero(strip)
        assert [m.point for m in report.mismatches] == [
            complex(x, y) for x, y in zip(zr[strip].tolist(), zi[strip].tolist())
        ]
        assert {(m.expected, m.got) for m in report.mismatches} == {
            (Membership.IN, Membership.OUT)
        }
