"""The numpy grid path and the scalar reference agree bit for bit.

``_grid`` runs the plain-float helpers of ``_kernels`` themselves on
arrays, adding only the lane-wise choice of Smith's branch, pole masks
and one decision, real parts first, to codes and margins.  So every grid result
(membership codes and margins) must equal the scalar path applied point
by point, for every problem class; these tests check that the array
parts (branch selection, pole masks, intersections and excluded points)
keep it so.
"""

import math

import numpy as np
import pytest

from lexineq import _grid, _kernels, oracle
from lexineq.errors import PoleError
from lexineq.oracle import (
    GridSpec,
    _constraint_values,
    _pole,
    boundary_margin,
    eval_direct,
    problem_grid,
    sample_raster,
    verify,
)
from lexineq.region import (
    Invert,
    Membership,
    Region,
    Rotate,
    Scale,
    Sqrt,
    Translate,
    _invert_point,
    _value_lanes,
    contains,
    membership_grid,
    pull_back,
)
from lexineq.solver import (
    Fractional,
    Linear,
    Quadratic,
    SolutionSet,
    System,
    solution_contains,
    solution_grid,
    solution_grid_margin,
    solve,
)

PROBLEMS = {
    "linear": Linear(1.5 - 2j, 0.25 + 1j),
    "linear-all": Linear(0j, -1 + 0j),
    "linear-empty": Linear(0j, 1 + 0j),
    "system": System((Linear(1 + 2j, 0.5j), Linear(-1 + 0.25j, 2 + 0j))),
    "fractional": Fractional(1 + 1j, 3 + 0j, -1 + 0j, 0.5j),  # pole at z = 1
    "fractional-pole-at-0": Fractional(0j, 1 + 0j, 0j, 1 + 0j),
    "fractional-degenerate": Fractional(1 + 0j, 1 + 0j, 1 + 0j, 0j),  # pole at z = -1
    "quadratic": Quadratic(-2 + 1j, 1 + 0j, 0.125 - 3j),
    "quadratic-sqrt": Quadratic(1j, 2 + 0j, 1j),
}


# Anchors and offsets at the ends of the float range, next to ordinary ones
EXTREMES = (0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308)


def _random_region(rng, extreme=False):
    """A random chain.  With ``extreme``, scale factors are 10^k, |k| <= 300,
    and half the anchors and offsets are ``EXTREMES``, so that pulled-back
    lanes reach ±inf, nan and 0."""
    def coord():
        if extreme and rng.integers(2):
            return float(rng.choice(EXTREMES))
        return float(rng.uniform(-2, 2))

    # the int-valued draws check that the walk uses each field as given,
    # int or float, without a conversion of its own
    transforms = []
    for _ in range(int(rng.integers(0, 5))):
        k = int(rng.integers(0, 8))
        if k == 0:
            transforms.append(Rotate(float(rng.uniform(-7, 7))))
        elif k == 1:
            r = 10.0 ** rng.uniform(-300, 300) if extreme else rng.uniform(0.25, 4.0)
            transforms.append(Scale(float(r)))
        elif k == 2:
            transforms.append(Translate(complex(coord(), coord())))
        elif k == 3:
            transforms.append(Invert())
        elif k == 4:
            transforms.append(Sqrt())
        elif k == 5:
            transforms.append(Rotate(int(rng.integers(-3, 4))))
        elif k == 6:
            transforms.append(Scale(int(rng.integers(1, 5))))
        else:
            transforms.append(Translate(int(rng.integers(-2, 3))))
    return Region(complex(coord(), coord()), tuple(transforms))


def _coords(rng, n=300):
    # the fixed probes hit the origin and the poles of the fractional problems
    zr = np.concatenate([rng.uniform(-3, 3, n), [0.0, 0.0, 1.0, -1.0]])
    zi = np.concatenate([rng.uniform(-3, 3, n), [0.0, 1.0, 0.0, 0.0]])
    return zr, zi


def _extreme_coords(rng, n):
    """Probes of both signs with moduli from 5e-324 to 1.8e308, and zeros."""
    moduli = np.ldexp(rng.uniform(1.0, 2.0, (2, n)), rng.integers(-1074, 1024, (2, n)))
    zr, zi = moduli * rng.choice([-1.0, 1.0], (2, n))
    return np.concatenate([zr, [0.0, -0.0, 1e308]]), np.concatenate([zi, [0.0, 5e-324, -1e308]])


def _points(zr, zi):
    return [complex(x, y) for x, y in zip(zr.tolist(), zi.tolist())]


def _assert_matches_scalar(problem, zr, zi):
    """``problem_grid`` against the scalar references, lane by lane: codes
    ``eval_direct``'s, margin bytes ``boundary_margin``'s (inf at a pole,
    and nan lanes counted too).  Returns its codes."""
    codes, margins = problem_grid(problem, zr, zi)
    points = _points(zr, zi)
    assert codes.tolist() == [int(eval_direct(problem, z)) for z in points]
    expected = []
    for z in points:
        try:
            expected.append(boundary_margin(problem, z))
        except PoleError:
            expected.append(math.inf)
    assert margins.tobytes() == np.array(expected).tobytes()
    return codes


def _full_values(problem, zr, zi):
    """Every lane's constraint values and the pole mask, with no lane decided first."""
    return _constraint_values(problem, zr, zi, _grid.cdiv), _pole(problem, zr, zi)


def _region_value(region, z):
    """Scalar reference for one region's value at z: its pulled-back probe
    minus its base anchor, or None at a pole."""
    try:
        wr, wi = pull_back(region, z.real, z.imag, _invert_point)
    except PoleError:
        return None
    return wr - region.base.real, wi - region.base.imag


def _region_margin(region, z):
    """Scalar reference for one region's margin at z: inf at a pole."""
    value = _region_value(region, z)
    return math.inf if value is None else _kernels.tie_margin(*value)


def _solution_margin(solution, z):
    """Scalar reference for solution_grid_margin's margin at z: inf at a
    pole, else the least region margin, nan if one is nan (as np.minimum)."""
    values = [_region_value(region, z) for region in solution.regions]
    if not values or None in values or z in solution.excluded_points:
        return math.inf
    margins = [_kernels.tie_margin(*v) for v in values]
    return math.nan if any(map(math.isnan, margins)) else min(margins)


class TestBitEquality:
    def test_region_grid_matches_scalar(self):
        rng = np.random.default_rng(43)
        zr, zi = _coords(rng, 60)
        for _ in range(40):
            region = _random_region(rng)
            codes = membership_grid(region, zr, zi)
            expected = [int(contains(region, z)) for z in _points(zr, zi)]
            assert codes.tolist() == expected

    @pytest.mark.parametrize("extreme", [False, True])
    def test_region_grids(self, extreme):
        """One region's codes and margins, through membership_grid and a
        one-region solution, against the scalar pullback and tie margin.

        The extreme draws pull lanes back to ±inf and nan.  The grid
        reduces a region's value, its pulled-back probe minus its anchor,
        and the scalar path compares the probe with the anchor; they agree
        bit for bit, as floats subtract to 0 only when equal, the
        difference keeps their order, and ±inf and nan carry through.
        """
        rng = np.random.default_rng(54 if extreme else 42)
        zr, zi = _extreme_coords(rng, 600) if extreme else _coords(rng, 60)
        points = _points(zr, zi)
        nan = inf = 0
        for _ in range(150 if extreme else 40):
            region = _random_region(rng, extreme)
            with np.errstate(all="ignore" if extreme else "warn"):
                codes, margins = solution_grid_margin(SolutionSet.single(region), zr, zi)
                assert membership_grid(region, zr, zi).tobytes() == codes.tobytes()
            assert codes.tolist() == [int(contains(region, z)) for z in points], region
            expected = np.array([_region_margin(region, z) for z in points])
            assert margins.tobytes() == expected.tobytes(), region
            nan += int(np.count_nonzero(np.isnan(margins)))
            inf += int(np.count_nonzero(np.isinf(margins) & (codes != Membership.POLE)))
        assert not extreme or (nan > 1000 and inf > 1000)

    @pytest.mark.parametrize("name", PROBLEMS)
    def test_problem_grids(self, name):
        problem = PROBLEMS[name]
        zr, zi = _coords(np.random.default_rng(44))
        codes, _ = problem_grid(problem, zr, zi)
        assert codes.tolist() == [int(eval_direct(problem, z)) for z in _points(zr, zi)]

    @pytest.mark.parametrize("name", PROBLEMS)
    def test_problem_grid_margins(self, name):
        problem = PROBLEMS[name]
        codes = _assert_matches_scalar(problem, *_coords(np.random.default_rng(45)))
        if isinstance(problem, Fractional):
            assert Membership.POLE in codes.tolist()

    @pytest.mark.parametrize("name", PROBLEMS)
    def test_margins_match(self, name):
        solution = solve(PROBLEMS[name])
        zr, zi = _coords(np.random.default_rng(46))
        codes, margins = solution_grid_margin(solution, zr, zi)
        points = _points(zr, zi)
        assert codes.tolist() == [int(solution_contains(solution, z)) for z in points]
        assert margins.tolist() == [_solution_margin(solution, z) for z in points]


# Axis values i/10 - 2 and i/4 - 2, all exact: the grid holds the origin,
# 1 and -1, so it hits the poles of the fractional problems above.
POLE_GRID = GridSpec(-2, 2, -2, 2, 41, 17)


class TestCodesOnlyPaths:
    """Rasters get codes only; the margin APIs also get margins from the
    same decision.  Both must give the same codes."""

    @pytest.mark.parametrize("name", PROBLEMS)
    def test_sample_raster_matches_problem_grid(self, name):
        problem = PROBLEMS[name]
        cells = sample_raster(problem, POLE_GRID).cells
        codes, _ = problem_grid(problem, *POLE_GRID.points())
        assert cells.dtype == codes.dtype == np.uint8
        assert cells.tobytes() == codes.tobytes()
        if isinstance(problem, Fractional):
            assert Membership.POLE in cells.tolist()

    def test_membership_grid_matches_margin_path(self):
        rng = np.random.default_rng(47)
        zr, zi = _coords(rng, 60)
        for _ in range(40):
            region = _random_region(rng)
            codes, _ = solution_grid_margin(SolutionSet.single(region), zr, zi)
            assert membership_grid(region, zr, zi).tobytes() == codes.tobytes()
            raster = sample_raster(region, POLE_GRID).cells
            expected, _ = solution_grid_margin(SolutionSet.single(region), *POLE_GRID.points())
            assert raster.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name", PROBLEMS)
    def test_solution_grid_matches_margin_path(self, name):
        solution = solve(PROBLEMS[name])
        zr, zi = _coords(np.random.default_rng(48))
        codes, _ = solution_grid_margin(solution, zr, zi)
        assert solution_grid(solution, zr, zi).tobytes() == codes.tobytes()

    @pytest.mark.parametrize("extreme", [False, True])
    def test_intersections_with_excluded_points(self, extreme):
        rng = np.random.default_rng(55 if extreme else 49)
        zr, zi = _extreme_coords(rng, 600) if extreme else _coords(rng, 60)
        points = _points(zr, zi)
        excluded = (0j, 1 + 0j)
        for _ in range(40):
            regions = (_random_region(rng, extreme), _random_region(rng, extreme))
            for solution in (SolutionSet.intersection(regions, excluded),
                             SolutionSet.single(regions[0], excluded),
                             SolutionSet.universe(excluded),
                             SolutionSet.empty(excluded)):
                with np.errstate(all="ignore" if extreme else "warn"):
                    codes = solution_grid(solution, zr, zi)
                    expected, margins = solution_grid_margin(solution, zr, zi)
                assert codes.tobytes() == expected.tobytes()
                assert codes.tolist() == [int(solution_contains(solution, z)) for z in points]
                expected = np.array([_solution_margin(solution, z) for z in points])
                assert margins.tobytes() == expected.tobytes(), solution


# Axis values i/4 - 2, all exact: the grid holds every quarter of [-2, 2]^2.
LATTICE = GridSpec(-2, 2, -2, 2, 17, 17)

# Integer-coefficient problems whose value has Re v == 0 exactly at many
# LATTICE points (on whole grid lines for the linear and the 1/z cases),
# with Im v of both signs there.
TIED = {
    "linear-column": Linear(2 + 0j, 1 + 1j),        # Re v = 2 Re z - 1
    "linear-diagonal": Linear(1 + 1j, 1j),          # Re v = Re z - Im z
    "quadratic-axes": Quadratic(1j, 0j, 0j),        # Re v = -2 Re z Im z
    "quadratic-cross": Quadratic(1j, 2 + 0j, 1j),   # Re v = 2 Re z (1 - Im z)
    "quadratic-hyperbola": Quadratic(1 + 0j, 0j, -1 + 0j),  # Re v = |Re z|^2 - |Im z|^2 - 1
    "fractional-pole-at-0": Fractional(0j, 1 + 0j, 0j, 0j),  # 1/z: Re v = 0 on Re z = 0
    "fractional-pole-on-lattice": Fractional(2 + 0j, -1 + 0j, -1 + 1j, 2 + 0j),  # pole at 1 - i
    # the first constraint ties on Re z = 1/2, where the second decides both ways
    "system": System((Linear(1 + 0j, 0.5 + 0.5j), Linear(1j, -1 + 0j))),
}


class TestUndecidedLanes:
    """Rasters, ``problem_grid`` and the solution side decide each lane on
    the real parts of the values, and compute the imaginary parts and the
    pole mask only where a real part is 0 or nan.  Those lanes must get
    the codes and margins of the scalar references."""

    @pytest.mark.parametrize("name", TIED)
    def test_ties_match_problem_grid(self, name):
        problem = TIED[name]
        zr, zi = LATTICE.points()
        cells = sample_raster(problem, LATTICE).cells
        codes = _assert_matches_scalar(problem, zr, zi)
        assert cells.tobytes() == codes.tobytes()
        values, pole = _full_values(problem, zr, zi)
        tied = [vr == 0.0 for vr, _ in values]
        # the imaginary part breaks ties both ways
        assert any(np.any(t & (vi > 0.0)) and np.any(t & (vi < 0.0))
                   for t, (_, vi) in zip(tied, values))
        if isinstance(problem, Fractional):
            assert np.count_nonzero(pole) == 1 and cells[pole] == Membership.POLE
        if isinstance(problem, System):
            (_, _), (vr2, _) = values
            assert np.any(tied[0] & (vr2 > 0.0)) and np.any(tied[0] & (vr2 < 0.0))

    @pytest.mark.parametrize("name", TIED)
    def test_ties_match_solution_contains(self, name):
        solution = solve(TIED[name])
        zr, zi = LATTICE.points()
        codes, margins = solution_grid_margin(solution, zr, zi)
        points = _points(zr, zi)
        assert codes.tolist() == [int(solution_contains(solution, z)) for z in points]
        expected = np.array([_solution_margin(solution, z) for z in points])
        assert margins.tobytes() == expected.tobytes()
        # a region's real part is exactly 0 on some lanes, as Re z - 0.5 is for
        # Region(0.5+0.5j), the solution of linear-column; only nan at the
        # pole leaves a lane of fractional-pole-on-lattice to the gather
        reals = [_value_lanes(region, zr, zi)[0][0] for region in solution.regions]
        assert any(np.any(vr == 0.0) for vr in reals) or np.count_nonzero(np.isnan(reals[0])) == 1

    @pytest.mark.parametrize("b", [1j, -1j])
    def test_real_part_zero_everywhere(self, b):
        # 0*Z >= b: Re v = 0 on every lane, so Im v = -Im b decides them all
        problem = Linear(0j, b)
        cells = sample_raster(problem, POLE_GRID).cells
        codes = _assert_matches_scalar(problem, *POLE_GRID.points())
        assert cells.tobytes() == codes.tobytes()
        assert set(cells.tolist()) == {Membership.IN if b == -1j else Membership.OUT}

    def test_nan_lanes_from_overflow(self):
        # coefficients near the float maximum overflow to inf - inf = nan;
        # the warnings are the open overflow defect, silenced here only
        problem = Linear(1.5e308 + 1.5e308j, 1e308 + 0j)
        with np.errstate(all="ignore"):
            cells = sample_raster(problem, POLE_GRID).cells
            codes = _assert_matches_scalar(problem, *POLE_GRID.points())
            values, _ = _full_values(problem, *POLE_GRID.points())
        assert np.any(np.isnan(values[0][0]))
        assert cells.tobytes() == codes.tobytes()

    def test_real_only_division_is_exact(self):
        rng = np.random.default_rng(50)
        special = [0.0, -0.0, 1.0, -1.0, 2.0, 5e-324, 1e-310, 1e-300, 1e308, -1e308,
                   np.inf, -np.inf, np.nan]
        parts = [np.concatenate([rng.standard_normal(400), rng.choice(special, 400)])
                 for _ in range(4)]
        for p in parts:
            rng.shuffle(p)
        # every lane of signed zeros and ones: |br| == |bi| on many, where the
        # branch that cdiv does not take may give a zero of the other sign
        units = np.meshgrid(*[[0.0, -0.0, 1.0, -1.0]] * 4)
        parts = [np.concatenate([p, u.ravel()]) for p, u in zip(parts, units)]
        with np.errstate(all="ignore"):
            expected, _ = _grid.cdiv(*parts)
            got = _grid.cdiv_real(*parts)
        # nan lanes make every comparison false, whatever their payload
        nan = np.isnan(expected)
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == expected[~nan].tobytes()


class TestBroadcastLanes:
    """A raster hands each batch of open blocks to ``_decide_lanes`` as the
    blocks' columns and rows, which broadcast to their lanes; codes and
    margins must be those of the same lanes passed flat."""

    @pytest.mark.parametrize("problem", [
        TIED["fractional-pole-on-lattice"],  # the pole and a few ties are gathered
        Linear(0j, 1j),                      # Re v = 0 on every lane: none is gathered
        System((TIED["linear-column"], TIED["fractional-pole-on-lattice"],
                TIED["quadratic-axes"])),
    ], ids=["fractional-pole", "all-tied", "mixed-system"])
    def test_block_lanes_match_flat_lanes(self, problem):
        # every block of LATTICE, cut as a raster cuts a piece: the last row
        # and column of blocks repeat the piece's last row and column
        b = oracle._BLOCK
        starts = np.arange(0, LATTICE.nx, b)
        r = np.minimum(np.repeat(starts, starts.shape[0])[:, None] + np.arange(b), LATTICE.ny - 1)
        c = np.minimum(np.tile(starts, starts.shape[0])[:, None] + np.arange(b), LATTICE.nx - 1)
        zr, zi = LATTICE.re_axis()[c][:, None, :], LATTICE.im_axis()[r][:, :, None]
        flat = [z.ravel() for z in np.broadcast_arrays(zr, zi)]
        for margins in (False, True):
            codes, margin = oracle._decide_lanes(problem, zr, zi, margins=margins)
            expected, expected_margin = oracle._decide_lanes(problem, *flat, margins=margins)
            assert codes.shape == (r.shape[0], b, b)
            assert codes.tobytes() == expected.tobytes()
            if margins:
                assert margin.tobytes() == expected_margin.tobytes()
        _, undecided = _grid.decide_real(oracle._constraint_reals(problem, *flat, _grid.cdiv_real))
        if isinstance(problem, Linear):
            assert undecided.all()
        else:
            assert 0 < np.count_nonzero(undecided) < undecided.size
            assert Membership.POLE in codes


def _block_ranges(grid):
    """``(lo, hi)`` ranges of the coordinates of a grid's blocks, x and y."""
    return oracle._block_range(grid.re_axis()), oracle._block_range(grid.im_axis()[:, None])


def _block_boxes(grid):
    return [_grid.Box(*r) for r in _block_ranges(grid)]


# The code of a block that the bounds leave open
_UNDECIDED = 255


def _block_codes(problem, grid):
    """The block codes of a grid that :func:`sample_raster` takes in one
    chunk: ``_grid.decide_real`` on the Box bounds of the real parts."""
    with np.errstate(all="ignore"):
        inside, undecided = _grid.decide_real(oracle._constraint_reals(
            problem, *_block_boxes(grid), _grid.box_cdiv_real))
    return np.where(undecided, _UNDECIDED, np.where(inside, _kernels.IN, _kernels.OUT))


def _wide_coefficient(rng):
    """Components m * 2^e with e in [-600, 600], near 1.5e308, or zero."""
    parts = []
    for _ in range(2):
        k = int(rng.integers(0, 8))
        if k == 0:
            parts.append(float(rng.choice([0.0, -0.0])))
        elif k == 1:
            parts.append(float(rng.choice([-1.0, 1.0]) * rng.uniform(1.4e308, 1.6e308)))
        else:
            parts.append(float(rng.integers(-24, 25)) / 8.0 * 2.0 ** int(rng.integers(-600, 601)))
    return complex(*parts)


def _wide_problem(rng, kind):
    c = [_wide_coefficient(rng) for _ in range(4)]
    if kind == "linear":
        return Linear(c[0], c[1])
    if kind == "system":
        return System((Linear(c[0], c[1]), Linear(c[2], c[3])))
    if kind == "fractional":
        return Fractional(*c)
    return Quadratic(c[0], c[1], c[2])


BLOCK_GRIDS = {
    # neither count a multiple of the block side
    "straddles-both-axes": GridSpec(-2, 2, -1.5, 1.5, 37, 53),
    "avoids-the-axes": GridSpec(0.25, 3, 0.5, 2, 45, 29),
    "avoids-the-axes-elsewhere": GridSpec(-7, -1, 1, 9, 33, 18),
    "1e160": GridSpec(-1e160, 1e160, -1e160, 1e160, 41, 41),
    "row-longer-than-a-tile": GridSpec(-2, 2, -2, 2, oracle._TILE_POINTS + 17, 3),
}


class TestBlockDecision:
    """Rasters of every class settle whole blocks from bounds of the
    computed real parts; every cell must keep the code that
    :func:`problem_grid` gives it, whatever the coefficients and window."""

    def test_grids_cover_the_block_cases(self):
        b = oracle._BLOCK
        for grid in BLOCK_GRIDS.values():
            assert grid.nx % b and grid.ny % b
        assert BLOCK_GRIDS["row-longer-than-a-tile"].nx > oracle._TILE_POINTS

    @pytest.mark.parametrize("kind", ["linear", "system", "quadratic", "fractional"])
    @pytest.mark.parametrize("grid_name", BLOCK_GRIDS)
    def test_random_wide_coefficients(self, kind, grid_name):
        grid = BLOCK_GRIDS[grid_name]
        rng = np.random.default_rng([51, len(kind), len(grid_name)])
        zr, zi = grid.points()
        draws = 4 if grid.nx > oracle._TILE_POINTS else 25
        for _ in range(draws):
            problem = _wide_problem(rng, kind)
            with np.errstate(all="ignore"):  # the overflow defect of the direct evaluators
                cells = sample_raster(problem, grid).cells
                codes, _ = problem_grid(problem, zr, zi)
            assert cells.tobytes() == codes.tobytes(), problem

    @pytest.mark.parametrize("kind", ["linear", "system", "quadratic", "fractional"])
    def test_finite_bounds_hold_every_lane(self, kind):
        # the bounds themselves, not only the sign that settles a block: in a
        # block with finite bounds every lane's real part is finite and inside
        b = oracle._BLOCK
        checked = 0
        for grid_name, grid in BLOCK_GRIDS.items():
            rng = np.random.default_rng([53, len(kind), len(grid_name)])
            zr, zi = grid.points()
            blocks = (-(-grid.ny // b), -(-grid.nx // b))
            for _ in range(4 if grid.nx > oracle._TILE_POINTS else 25):
                problem = _wide_problem(rng, kind)
                with np.errstate(all="ignore"):
                    bounds = oracle._constraint_reals(problem, *_block_boxes(grid),
                                                      _grid.box_cdiv_real)
                    reals = oracle._constraint_reals(problem, zr, zi, _grid.cdiv_real)
                for box, real in zip(bounds, reals):
                    # each block's bounds repeated over its cells
                    lo, hi = (np.broadcast_to(v, blocks).repeat(b, axis=0).repeat(b, axis=1)
                              [:grid.ny, :grid.nx].ravel() for v in (box.lo, box.hi))
                    finite = np.isfinite(lo) & np.isfinite(hi)
                    v = real[finite]
                    assert np.isfinite(v).all(), problem
                    assert ((lo[finite] <= v) & (v <= hi[finite])).all(), problem
                    checked += int(np.count_nonzero(np.isfinite(box.lo) & np.isfinite(box.hi)))
        assert checked > 0

    @pytest.mark.parametrize("grid_name", ["straddles-both-axes", "avoids-the-axes"])
    def test_small_coefficients_decide_most_blocks(self, grid_name):
        # the corpus-like case: both decided and undecided blocks occur
        grid = BLOCK_GRIDS[grid_name]
        rng = np.random.default_rng(52)
        seen = set()
        for _ in range(30):
            c = [complex(*(rng.integers(-24, 25, 2) / 8.0)) for _ in range(4)]
            for problem in (Linear(c[0], c[1]), System((Linear(c[0], c[1]), Linear(c[2], c[3]))),
                            Quadratic(c[0], c[1], c[2]), Fractional(*c)):
                seen.update(np.unique(_block_codes(problem, grid)).tolist())
                cells = sample_raster(problem, grid).cells
                assert cells.tobytes() == problem_grid(problem, *grid.points())[0].tobytes()
        assert seen == {Membership.OUT, Membership.IN, _UNDECIDED}

    @pytest.mark.parametrize("problem, code", [
        (Linear(1 + 0j, -10 + 0j), Membership.IN),                  # Re z + 10 > 0
        (Quadratic(1e-3 + 0j, 0j, 5 + 0j), Membership.IN),          # 1e-3 Re z^2 + 5 > 0
        (System((Linear(1 + 0j, 0j), Linear(0j, 1 + 0j))), Membership.OUT),  # 0*Z - 1 < 0
        (Fractional(0j, 1 + 0j, 10 + 0j, -1 + 0j), Membership.IN),  # 1/(z + 10) + 1 > 0
        (Fractional(1j, 0j, 5 + 0j, 2 + 0j), Membership.OUT),       # Re(i z/(z + 5)) - 2 < 0
        # x^2 - y^2 + 2.26 > 0 for |y| <= 1.5, but only with x*x >= 0 where x straddles 0
        (Quadratic(1 + 0j, 0j, 2.26 + 0j), Membership.IN),
    ])
    def test_every_block_decided(self, problem, code):
        grid = BLOCK_GRIDS["straddles-both-axes"]
        assert set(_block_codes(problem, grid).ravel().tolist()) == {code}
        cells = sample_raster(problem, grid).cells
        assert set(cells.tolist()) == {code}
        assert cells.tobytes() == problem_grid(problem, *grid.points())[0].tobytes()

    @pytest.mark.parametrize("problem, grid_name", [
        # 1.5e308 * Re z and 1.5e308 * Im z both overflow to inf: inf - inf
        (Linear(1.5e308 + 1.5e308j, 1e308 + 0j), "avoids-the-axes"),
        # Re z^2 overflows to inf - inf at every block's far corner
        (Quadratic(1 + 0j, 0j, -1 + 0j), "1e160"),
        # the numerator's real part is inf - inf, as in the linear case
        (Fractional(1.5e308 + 1.5e308j, 0j, 0j, 0j), "avoids-the-axes"),
    ])
    def test_no_block_decided(self, problem, grid_name):
        grid = BLOCK_GRIDS[grid_name]
        with np.errstate(all="ignore"):
            real, = oracle._constraint_reals(problem, *_block_boxes(grid), _grid.box_cdiv_real)
            assert np.isnan(real.lo).any() or np.isnan(real.hi).any()
            assert set(_block_codes(problem, grid).ravel().tolist()) == {_UNDECIDED}
            cells = sample_raster(problem, grid).cells
            codes, _ = problem_grid(problem, *grid.points())
        assert cells.tobytes() == codes.tobytes()


def _dyadic(rng):
    """A coefficient with both parts multiples of 1/8 in [-3, 3]."""
    return complex(*(rng.integers(-24, 25, 2) / 8.0))


def _mixed_constraint(rng, kind):
    """A constraint of ``kind`` with dyadic coefficients.  Half the
    fractions have their pole at a multiple of 1.25 + 1.25i, which the
    default 201 x 201 grid over [-5, 5]^2 holds exactly."""
    if kind == "linear":
        return Linear(_dyadic(rng), _dyadic(rng))
    if kind == "quadratic":
        while (a := _dyadic(rng)) == 0:
            pass
        return Quadratic(a, _dyadic(rng), _dyadic(rng))
    a, b = _dyadic(rng), _dyadic(rng)
    c = complex(*(1.25 * rng.integers(-2, 3, 2))) if rng.integers(2) else _dyadic(rng)
    return Fractional(a, b, c, _dyadic(rng))


def _mixed_system(rng):
    kinds = rng.choice(["linear", "fractional", "quadratic"], int(rng.integers(2, 5)))
    return System(tuple(_mixed_constraint(rng, str(k)) for k in kinds))


class TestMixedSystems:
    """Systems of 2-4 constraints of every class, whose fraction poles
    often lie on the grid: the solver agrees with direct evaluation, and
    the raster, block-settled or not, with ``problem_grid``, pole cells
    included.  A block that one constraint settles out may hold another
    constraint's pole cell; its nan bounds keep it open."""

    def test_verify_and_raster_match_direct(self):
        rng = np.random.default_rng(60)
        grid = oracle.default_grid()
        zr, zi = grid.points()
        kinds = set()
        poles = 0
        for _ in range(60):
            problem = _mixed_system(rng)
            kinds.update(type(c) for c in problem.constraints)
            report = verify(problem, solve(problem), grid)
            assert report.passed and not report.mismatches, (problem, report.mismatches[:3])
            codes, _ = problem_grid(problem, zr, zi)
            cells = sample_raster(problem, grid).cells
            assert cells.tobytes() == codes.tobytes(), problem
            pole = np.flatnonzero(codes == Membership.POLE)
            poles += pole.shape[0]
            lanes = np.concatenate([pole, rng.integers(0, codes.shape[0], 20)])
            assert [int(eval_direct(problem, complex(zr[k], zi[k]))) for k in lanes] == \
                codes[lanes].tolist(), problem
        assert kinds == {Linear, Fractional, Quadratic}
        assert poles > 20


class TestOneRule:
    """``_grid.decide_real`` decides blocks by the rule that decides lanes:
    on the Box ``[v, v]`` of each real part of a lane it decides as on the
    lane itself."""

    @staticmethod
    def _assert_boxes_decide_as_lanes(problem, zr, zi):
        reals = oracle._constraint_reals(problem, zr, zi, _grid.cdiv_real)
        # a Box bounds finite lanes; a pole's real part is nan, and so are its Box's bounds
        finite = ~np.isinf(reals).any(axis=0)
        reals = [v[finite] for v in reals]
        lanes = _grid.decide_real(reals)
        boxes = _grid.decide_real([_grid.Box(v, v) for v in reals])
        for on_lanes, on_boxes in zip(lanes, boxes):
            assert on_lanes.tobytes() == on_boxes.tobytes(), problem
        return reals, lanes

    @pytest.mark.parametrize("name", TIED)
    def test_tied_lanes(self, name):
        _, (inside, undecided) = self._assert_boxes_decide_as_lanes(TIED[name], *LATTICE.points())
        assert inside.any() and undecided.any() and not (inside | undecided).all()

    def test_mixed_systems(self):
        rng = np.random.default_rng(61)
        zr, zi = oracle.default_grid().points()
        pole_beside_negative = 0
        for _ in range(20):
            reals, _ = self._assert_boxes_decide_as_lanes(_mixed_system(rng), zr, zi)
            reals = np.array(reals)
            pole_beside_negative += int(np.count_nonzero(np.isnan(reals).any(axis=0)
                                                         & (reals < 0.0).any(axis=0)))
        assert pole_beside_negative > 0

    def test_a_negative_real_part_decides_beside_a_tie(self):
        # Re z is 0 on a column of LATTICE, where 0*Z - 1 has real part -1:
        # the code is OUT from the real parts alone, and only the tie
        # margins need the full values of that column
        problem = System((Linear(1 + 0j, 0j), Linear(0j, 1 + 0j)))
        zr, zi = LATTICE.points()
        handed = []

        def values(zr, zi):
            handed.append(zr.size)
            return _full_values(problem, zr, zi)

        for margins, lanes in ((False, []), (True, [LATTICE.ny])):
            reals = oracle._constraint_reals(problem, zr, zi, _grid.cdiv_real)
            codes, margin = _grid.decide(reals, values, zr, zi, margins=margins)
            assert handed == lanes
            handed.clear()
            assert not codes.any()  # OUT everywhere
        assert codes.tobytes() == _assert_matches_scalar(problem, zr, zi).tobytes()
        assert margin.tobytes() == problem_grid(problem, zr, zi)[1].tobytes()
