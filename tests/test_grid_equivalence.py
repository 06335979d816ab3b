"""The numpy grid path and the scalar reference agree bit for bit.

``_grid`` runs the plain-float helpers of ``_kernels`` themselves on
arrays, adding only the lane-wise choice of Smith's branch, pole masks
and the reduction to codes and margins.  So every grid result
(membership codes and margins) must equal the scalar path applied point
by point, for every problem class; these tests check that the array
parts (branch selection, pole masks, intersections and excluded points)
keep it so.
"""

import math

import numpy as np
import pytest

from lexineq import _kernels
from lexineq.errors import PoleError
from lexineq.oracle import _values, boundary_margin, eval_direct, problem_grid
from lexineq.region import (
    Invert,
    Membership,
    Region,
    Rotate,
    Scale,
    Sqrt,
    Translate,
    _encode,
    contains,
    membership_grid,
)
from lexineq.solver import (
    Fractional,
    Linear,
    LinearSystem,
    Quadratic,
    SolutionSet,
    solution_contains,
    solution_grid_margin,
    solve,
)

PROBLEMS = {
    "linear": Linear(1.5 - 2j, 0.25 + 1j),
    "linear-all": Linear(0j, -1 + 0j),
    "linear-empty": Linear(0j, 1 + 0j),
    "system": LinearSystem(1 + 2j, 0.5j, -1 + 0.25j, 2 + 0j),
    "fractional": Fractional(1 + 1j, 3 + 0j, -1 + 0j, 0.5j),  # pole at z = 1
    "fractional-pole-at-0": Fractional(0j, 1 + 0j, 0j, 1 + 0j),
    "fractional-degenerate": Fractional(1 + 0j, 1 + 0j, 1 + 0j, 0j),  # pole at z = -1
    "quadratic": Quadratic(-2 + 1j, 1 + 0j, 0.125 - 3j),
    "quadratic-sqrt": Quadratic(1j, 2 + 0j, 1j),
}


def _random_region(rng):
    transforms = []
    for _ in range(int(rng.integers(0, 5))):
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


def _coords(rng, n=300):
    # the fixed probes hit the origin and the poles of the fractional problems
    zr = np.concatenate([rng.uniform(-3, 3, n), [0.0, 0.0, 1.0, -1.0]])
    zi = np.concatenate([rng.uniform(-3, 3, n), [0.0, 1.0, 0.0, 0.0]])
    return zr, zi


def _points(zr, zi):
    return [complex(x, y) for x, y in zip(zr.tolist(), zi.tolist())]


def _region_margin(region, z):
    """Scalar reference for one region's margin at z: inf at a pole."""
    a1, a2, kinds, pa, pb = _encode(region)
    ok, wr, wi = _kernels.chain_pullback(kinds, pa, pb, z.real, z.imag)
    return _kernels.tie_margin(wr - a1, wi - a2) if ok else math.inf


def _solution_margin(solution, z):
    """Scalar reference for solution_grid_margin's margin at z."""
    if not solution.regions or z in solution.excluded_points:
        return math.inf
    margins = [_region_margin(region, z) for region in solution.regions]
    return math.inf if math.inf in margins else min(margins)


class TestBitEquality:
    def test_region_grid_matches_scalar(self):
        rng = np.random.default_rng(43)
        zr, zi = _coords(rng, 60)
        for _ in range(40):
            region = _random_region(rng)
            codes = membership_grid(region, zr, zi)
            expected = [int(contains(region, z)) for z in _points(zr, zi)]
            assert codes.tolist() == expected

    def test_region_grids(self):
        """region_grid, through a one-region solution, against the
        scalar pullback and tie margin."""
        rng = np.random.default_rng(42)
        zr, zi = _coords(rng, 60)
        for _ in range(40):
            region = _random_region(rng)
            codes, margins = solution_grid_margin(SolutionSet.single(region), zr, zi)
            points = _points(zr, zi)
            assert codes.tolist() == [int(contains(region, z)) for z in points]
            assert margins.tolist() == [_region_margin(region, z) for z in points]

    @pytest.mark.parametrize("name", PROBLEMS)
    def test_problem_grids(self, name):
        problem = PROBLEMS[name]
        zr, zi = _coords(np.random.default_rng(44))
        codes, _ = problem_grid(problem, zr, zi)
        assert codes.tolist() == [int(eval_direct(problem, z)) for z in _points(zr, zi)]

    @pytest.mark.parametrize("name", PROBLEMS)
    def test_problem_grid_margins(self, name):
        problem = PROBLEMS[name]
        zr, zi = _coords(np.random.default_rng(45))
        codes, margins = problem_grid(problem, zr, zi)
        expected = []
        for z in _points(zr, zi):
            try:
                values = _values(problem, z)
            except PoleError:
                expected.append(math.inf)
                continue
            expected.append(min(_kernels.tie_margin(v.real, v.imag) for v in values))
        assert margins.tolist() == expected
        public = []
        for z in _points(zr, zi):
            try:
                public.append(boundary_margin(problem, z))
            except PoleError:
                public.append(math.inf)
        assert margins.tolist() == public
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
