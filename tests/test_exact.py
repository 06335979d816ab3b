"""The float answers agree with an exact judge away from the boundary.

``exact`` decides membership on the floats' exact values.  The problems
are the first ones of the benchmark's ``frontend`` corpus, seeds 0 and 7,
of every class, and systems that join their constraints across classes;
the probes are uniform in the corpus window, so the float evaluation
rounds.  Wherever every constraint's exact real part exceeds ``AWAY``
times the sum of the moduli of its terms, ``eval_direct``,
``problem_grid``, ``solution_contains`` and the cells of
``sample_raster`` must all give the judge's answer.
"""

import functools
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import exact
from lexineq import normalize, parser
from lexineq.oracle import GridSpec, eval_direct, problem_grid, sample_raster
from lexineq.solver import Fractional, Linear, System, solution_contains, solve

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_inputs", Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py")
inputs = sys.modules[_SPEC.name] = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(inputs)

AWAY = 2.0 ** -20
PER_CLASS = 50
PROBES = 24
# Rasters judged per class and seed, cell by cell, on a window of the
# corpus window's size whose axis values are not dyadic, so that the
# evaluation rounds.  33 points a side make 16 x 16 blocks and a remainder:
# few enough cells to judge them all, and where the bounds settle most
# blocks (in some linear and system rasters) the blocks decide cells too.
RASTERS = 3
RASTER_GRID = GridSpec(-4.9, 5.1, -5.3, 4.7, 33, 33)


@functools.cache
def _corpus(seed):
    """The first ``PER_CLASS`` problems of each class, as ``frontend`` draws them."""
    texts = inputs.corpus(np.random.default_rng([seed, 0]), PER_CLASS * len(inputs.CLASSES),
                          inputs.CLASSES)
    return [(t.kind, normalize.classify_problem_ex(parser.parse_input(t.text))[0]) for t in texts]


def _mixed_systems(seed):
    """Systems of 2 to 4 corpus constraints, at least two of them of different classes."""
    members = {}
    for _, problem in _corpus(seed):
        for c in problem.constraints if isinstance(problem, System) else (problem,):
            members.setdefault(type(c), []).append(c)
    rng = np.random.default_rng([seed, 1])
    classes = list(members)
    systems = []
    for _ in range(PER_CLASS):
        kinds = [classes[k] for k in rng.permutation(len(classes))[:2]]
        kinds += [classes[k] for k in rng.integers(0, len(classes), int(rng.integers(0, 3)))]
        systems.append(System(tuple(members[k][int(rng.integers(len(members[k])))]
                                    for k in kinds)))
    return systems


def _problems(seed, kind):
    if kind == "mixed-system":
        return _mixed_systems(seed)
    return [p for k, p in _corpus(seed) if k == kind]


def _judged(problem, z):
    """The judge's membership at z, or None within ``AWAY`` of the boundary."""
    vs = exact.values(problem, z)
    if any(v is not None and abs(v[0]) <= AWAY * v[2] for v in vs):
        return None
    return exact.decide(vs)


KINDS = [*inputs.CLASSES, "mixed-system"]


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("kind", KINDS)
def test_away_from_the_boundary(seed, kind):
    problems = _problems(seed, kind)
    rng = np.random.default_rng([seed, 2])
    asserted = 0
    for problem in problems:
        solution = solve(problem)
        judged = [(z, m) for z in inputs.probes(rng, PROBES)
                  if (m := _judged(problem, z)) is not None]
        for z, expected in judged:
            assert eval_direct(problem, z) is expected, (problem, z)
            assert solution_contains(solution, z) is expected, (problem, z)
        # the same probes, as the lanes of one array
        codes, _ = problem_grid(problem, np.array([z.real for z, _ in judged]),
                                np.array([z.imag for z, _ in judged]))
        assert codes.tolist() == [int(m) for _, m in judged], problem
        asserted += len(judged)
    assert asserted > 0.9 * len(problems) * PROBES


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("kind", KINDS)
def test_raster_cells_away_from_the_boundary(seed, kind):
    zr, zi = RASTER_GRID.points()
    points = [complex(x, y) for x, y in zip(zr.tolist(), zi.tolist())]
    asserted = 0
    for problem in _problems(seed, kind)[:RASTERS]:
        cells = sample_raster(problem, RASTER_GRID).cells.tolist()
        for z, cell in zip(points, cells):
            expected = _judged(problem, z)
            if expected is not None:
                assert cell == expected, (problem, z)
                asserted += 1
    assert asserted > 0.9 * RASTERS * len(points)


def test_judge_on_hand_cases():
    # ties broken by the imaginary part, a pole, and a system that a pole empties
    assert exact.judge(Linear(1 + 0j, 2 + 1j), 2 + 1j) is exact.Membership.IN
    assert exact.judge(Linear(1 + 0j, 2 + 1j), 2 + 0.5j) is exact.Membership.OUT
    one_over_z = Fractional(0j, 1 + 0j, 0j, 0j)
    assert exact.judge(one_over_z, 0j) is exact.Membership.POLE
    assert exact.judge(one_over_z, 1j) is exact.Membership.OUT  # 1/i = -i
    assert exact.judge(one_over_z, -1j) is exact.Membership.IN
    assert exact.judge(System((Linear(1 + 0j, -5 + 0j), one_over_z)), 0j) is exact.Membership.POLE
