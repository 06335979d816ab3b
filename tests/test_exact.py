"""The float answers agree with an exact judge away from the boundary.

``exact`` decides membership on the floats' exact values.  The problems
are the first ones of the benchmark's ``frontend`` corpus, seeds 0 and 7,
of every class, and systems that join their constraints across classes;
the probes are uniform in the corpus window, so the float evaluation
rounds.  Wherever every constraint's exact real part exceeds ``AWAY``
times the sum of the moduli of its terms, ``eval_direct`` and
``solution_contains`` must both give the judge's answer.
"""

import functools
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import exact
from lexineq import normalize, parser
from lexineq.oracle import eval_direct
from lexineq.solver import Fractional, Linear, System, solution_contains, solve

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_inputs", Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py")
inputs = sys.modules[_SPEC.name] = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(inputs)

AWAY = 2.0 ** -20
PER_CLASS = 50
PROBES = 24


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


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("kind", [*inputs.CLASSES, "mixed-system"])
def test_away_from_the_boundary(seed, kind):
    if kind == "mixed-system":
        problems = _mixed_systems(seed)
    else:
        problems = [p for k, p in _corpus(seed) if k == kind]
    rng = np.random.default_rng([seed, 2])
    asserted = 0
    for problem in problems:
        solution = solve(problem)
        for z in inputs.probes(rng, PROBES):
            vs = exact.values(problem, z)
            if any(v is not None and abs(v[0]) <= AWAY * v[2] for v in vs):
                continue
            expected = exact.decide(vs)
            assert eval_direct(problem, z) is expected, (problem, z)
            assert solution_contains(solution, z) is expected, (problem, z)
            asserted += 1
    assert asserted > 0.9 * len(problems) * PROBES


def test_judge_on_hand_cases():
    # ties broken by the imaginary part, a pole, and a system that a pole empties
    assert exact.judge(Linear(1 + 0j, 2 + 1j), 2 + 1j) is exact.Membership.IN
    assert exact.judge(Linear(1 + 0j, 2 + 1j), 2 + 0.5j) is exact.Membership.OUT
    one_over_z = Fractional(0j, 1 + 0j, 0j, 0j)
    assert exact.judge(one_over_z, 0j) is exact.Membership.POLE
    assert exact.judge(one_over_z, 1j) is exact.Membership.OUT  # 1/i = -i
    assert exact.judge(one_over_z, -1j) is exact.Membership.IN
    assert exact.judge(System((Linear(1 + 0j, -5 + 0j), one_over_z)), 0j) is exact.Membership.POLE
