import math

import numpy as np
import pytest

from lexineq.errors import DegenerateFractionError, ZeroLeadingCoefficientError
from lexineq.oracle import GridSpec, eval_direct, verify
from lexineq.region import (
    Disc,
    HyperbolaDomain,
    Invert,
    Membership,
    Region,
    Rotate,
    Sqrt,
    Translate,
    classify,
)
from lexineq.solver import (
    Fractional,
    Linear,
    Quadratic,
    SolutionKind,
    SolutionSet,
    System,
    solution_contains,
    solution_grid,
    solution_grid_margin,
    solve,
    solve_fractional,
    solve_linear,
    solve_quadratic,
)

IN, OUT, POLE = Membership.IN, Membership.OUT, Membership.POLE


class TestSolveLinear:
    def test_positive_real_coefficient_collapses_chain(self):
        s = solve_linear(1 + 0j, 2 + 1j)
        assert s.kind is SolutionKind.SINGLE
        assert s.regions[0] == Region(2 + 1j)

    def test_rotated_halfplane(self):
        s = solve_linear(2j, 2 + 0j)
        region = s.regions[0]
        assert region.base == 1 + 0j
        assert region.transforms == (Rotate(-math.pi / 2),)
        # A*Z - B = 2j*(-2j) - 2 = 2 >= 0
        assert solution_contains(s, -2j) is IN
        assert eval_direct(Linear(2j, 2 + 0j), -2j) is IN

    def test_zero_coefficient_constant_true(self):
        s = solve_linear(0j, -1 + 0j)
        assert s.kind is SolutionKind.ALL
        assert solution_contains(s, 123 - 9j) is IN

    def test_zero_coefficient_constant_false(self):
        s = solve_linear(0j, 1e-9 + 0j)
        assert s.kind is SolutionKind.EMPTY

    def test_zero_coefficient_imaginary_threshold(self):
        # -B = -2j: 0 >= 2j is false, 0 >= -2j is true
        assert solve_linear(0j, 2j).kind is SolutionKind.EMPTY
        assert solve_linear(0j, -2j).kind is SolutionKind.ALL

    def test_numpy_scalar_coefficients(self):
        assert solve_linear(np.complex128(0), np.complex128(1)).kind is SolutionKind.EMPTY
        assert solve_linear(np.complex128(0), np.complex128(-1)).kind is SolutionKind.ALL

    def test_positive_power_of_two_scaling_gives_identical_region(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            a = complex(rng.integers(-16, 17) / 8, rng.integers(-16, 17) / 8)
            b = complex(rng.integers(-16, 17) / 8, rng.integers(-16, 17) / 8)
            if a == 0:
                continue
            for k in (2.0, 4.0, 0.5):
                assert solve_linear(k * a, k * b) == solve_linear(a, b)

    def test_rotated_halfplane_grid_equivalence(self):
        p = Linear(2j, 2 + 0j)
        assert verify(p, solve_linear(p.a, p.b)).passed

    def test_general_positive_scaling_membership(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            b = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if a == 0:
                continue
            s1 = solve_linear(a, b)
            s3 = solve_linear(3 * a, 3 * b)
            zr = rng.uniform(-4, 4, 200)
            zi = rng.uniform(-4, 4, 200)
            c1, m1 = solution_grid_margin(s1, zr, zi)
            c3, m3 = solution_grid_margin(s3, zr, zi)
            robust = np.minimum(m1, m3) > 1e-9
            assert np.array_equal(c1[robust], c3[robust])


class TestSolveLinearSystem:
    def test_nested_halfplanes(self):
        s = solve(System((Linear(1 + 0j, 1 + 0j), Linear(1 + 0j, 2 + 0j))))
        tight = solve_linear(1 + 0j, 2 + 0j)
        rng = np.random.default_rng(0)
        for _ in range(200):
            w = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            assert solution_contains(s, w) is solution_contains(tight, w)

    def test_wedge(self):
        s = solve(System((Linear(1 + 0j, 0j), Linear(1j, 0j))))
        assert s.kind is SolutionKind.INTERSECTION
        assert solution_contains(s, 1 + 1j) is OUT or True  # membership decided below
        # first constraint: Re >= 0 half-plane; second: 1j*Z >= 0
        assert eval_direct(Linear(1 + 0j, 0j), 1 + 1j) is IN
        assert eval_direct(Linear(1j, 0j), 1 + 1j) is OUT  # 1j*(1+1j) = -1+1j < 0
        assert solution_contains(s, 1 + 1j) is OUT
        assert solution_contains(s, 1 - 1j) is IN  # 1j*(1-1j) = 1+1j >= 0

    def test_conflicting_constraints_empty_interior(self):
        s = solve(System((Linear(1 + 0j, 1 + 0j), Linear(-1 + 0j, 1 + 0j))))
        grid = GridSpec(-5, 5, -5, 5, 41, 41)
        zr, zi = grid.points()
        codes = solution_grid(s, zr, zi)
        assert not np.any(codes == int(IN))

    def test_all_and_empty_propagation(self):
        assert solve(System((Linear(0j, 1 + 0j), Linear(1 + 0j, 0j)))).kind is SolutionKind.EMPTY
        s = solve(System((Linear(0j, -1 + 0j), Linear(1 + 0j, 0j))))
        assert s.kind is SolutionKind.SINGLE  # ALL ∩ single -> single

    def test_wedge_grid_equivalence(self):
        p = System((Linear(1 + 0j, 0j), Linear(1j, 0j)))
        assert verify(p, solve(p)).passed


class TestSolveSystem:
    def test_shared_pole_listed_once(self):
        p = System((Fractional(0j, 1 + 0j, 1j, 1 + 0j), Linear(1 + 0j, -5 + 0j),
                    Fractional(1 + 0j, 2 + 0j, 1j, 0j), Fractional(0j, 1j, 1 + 0j, 0j)))
        s = solve(p)
        assert s.kind is SolutionKind.INTERSECTION and len(s.regions) == 4
        assert s.excluded_points == (-1j, -1 + 0j)
        assert solution_contains(s, -1j) is POLE and eval_direct(p, -1j) is POLE
        assert verify(p, s).passed

    def test_constant_members(self):
        always = Fractional(1 + 0j, 1 + 0j, 1 + 0j, 0j)  # degenerate: 1 >= 0 away from -1
        never = Linear(0j, 1 + 0j)                       # -1 >= 0
        quadratic = Quadratic(1 + 0j, 0j, 0j)
        s = solve(System((always, quadratic)))
        assert s == SolutionSet.single(solve(quadratic).regions[0], (-1 + 0j,))
        s = solve(System((quadratic, never, always)))
        assert s.kind is SolutionKind.EMPTY and s.excluded_points == (-1 + 0j,)
        s = solve(System((Linear(0j, -1 + 0j), always)))
        assert s == solve(always)  # every member always holds: the last one's answer
        for p in (System((always, quadratic)), System((quadratic, never, always))):
            assert verify(p, solve(p)).passed

    def test_strict_refuses_degenerate_member(self):
        p = System((Linear(1 + 0j, 0j), Fractional(1 + 0j, 1 + 0j, 1 + 0j, 0j)))
        assert solve(p).kind is SolutionKind.SINGLE
        with pytest.raises(DegenerateFractionError):
            solve(p, strict=True)


class TestSolveFractional:
    def test_inversion_of_halfplane(self):
        s = solve_fractional(0j, 1 + 0j, 0j, 1 + 0j)  # 1/Z >= 1
        region = s.regions[0]
        assert region == Region(1 + 0j, (Invert(),))
        assert s.excluded_points == (0j,)
        c = classify(region)
        assert isinstance(c, Disc)
        assert c.center == pytest.approx(0.5 + 0j)
        assert c.radius == pytest.approx(0.5)

    def test_probe_inside(self):
        s = solve_fractional(0j, 1 + 0j, 0j, 1 + 0j)
        assert solution_contains(s, 0.5 + 0j) is IN  # 1/0.5 = 2 >= 1

    def test_pole_probe(self):
        s = solve_fractional(0j, 1 + 0j, 0j, 1 + 0j)
        assert solution_contains(s, 0j) is POLE
        assert eval_direct(Fractional(0j, 1 + 0j, 0j, 1 + 0j), 0j) is POLE

    def test_full_chain_structure(self):
        a, b, c, d = 1 + 1j, 3 + 0j, 1 + 0j, 0j
        s = solve_fractional(a, b, c, d)
        region = s.regions[0]
        w = b - a * c  # 2 - 1j
        pol_r = abs(w)
        assert isinstance(region.transforms[0], Invert)
        assert isinstance(region.transforms[1], Rotate)
        assert isinstance(region.transforms[2], Translate)
        assert region.transforms[2].offset == -c
        assert region.base == pytest.approx((d - a) / pol_r)
        assert region.transforms[1].theta == pytest.approx(math.atan2(w.imag, w.real))
        assert s.excluded_points == (-c,)
        assert solution_contains(s, -c) is POLE

    def test_grid_agreement(self):
        a, b, c, d = 1 + 1j, 3 + 0j, 1 + 0j, 0j
        report = verify(Fractional(a, b, c, d), solve_fractional(a, b, c, d))
        assert report.passed

    def test_degenerate_default(self):
        # B - A*C = 0 and the constant A = 1 >= D = 0: everything but the pole
        s = solve_fractional(1 + 0j, 2 + 0j, 2 + 0j, 0j)
        assert s.kind is SolutionKind.ALL
        assert s.note is not None
        assert s.excluded_points == (-2 + 0j,)
        assert solution_contains(s, -2 + 0j) is POLE
        assert solution_contains(s, 5 + 5j) is IN

    def test_degenerate_false(self):
        s = solve_fractional(1 + 0j, 2 + 0j, 2 + 0j, 3 + 0j)
        assert s.kind is SolutionKind.EMPTY

    def test_degenerate_strict(self):
        with pytest.raises(DegenerateFractionError):
            solve_fractional(1 + 0j, 2 + 0j, 2 + 0j, 0j, strict=True)


class TestSolveQuadratic:
    def test_simple_square(self):
        s = solve_quadratic(1 + 0j, 0j, 0j)  # Z^2 >= 0
        assert s.regions[0] == Region(0j, (Sqrt(),))
        assert solution_contains(s, 1 + 0j) is IN
        assert solution_contains(s, 1j) is OUT  # (1j)^2 = -1 < 0

    def test_hyperbola_classification(self):
        s = solve_quadratic(1 + 0j, 0j, 1 + 0j)  # Z^2 >= -1
        c = classify(s.regions[0])
        assert isinstance(c, HyperbolaDomain)
        assert c.a1 == -1.0 and c.connected and c.contains_origin

    def test_full_chain_structure(self):
        a, b, c = 1j, 2 + 0j, 1j
        s = solve_quadratic(a, b, c)
        region = s.regions[0]
        assert isinstance(region.transforms[0], Sqrt)
        assert isinstance(region.transforms[1], Rotate)
        assert region.transforms[1].theta == pytest.approx(-math.pi / 4)
        assert isinstance(region.transforms[2], Translate)
        assert region.transforms[2].offset == pytest.approx(-b / (2 * a))

    def test_zero_leading_coefficient(self):
        with pytest.raises(ZeroLeadingCoefficientError):
            solve_quadratic(0j, 1 + 0j, 0j)

    @pytest.mark.parametrize("a", [1e-170 + 0j, 1e-170j, 5e-324 + 0j])
    def test_threshold_denominator_underflow(self, a):
        # 4|A|A rounds to 0: a named refusal, not a ZeroDivisionError
        with pytest.raises(ValueError, match="underflows the float range"):
            solve_quadratic(a, a, a)

    def test_rotated_chain_grid_equivalence(self):
        p = Quadratic(1j, 2 + 0j, 1j)
        assert verify(p, solve_quadratic(p.a, p.b, p.c)).passed

    def test_real_quadratic_at_real_points(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            a, b, c = (float(rng.integers(-16, 17)) / 8 for _ in range(3))
            if a == 0:
                continue
            s = solve_quadratic(complex(a, 0), complex(b, 0), complex(c, 0))
            xs = rng.uniform(-4, 4, 100)
            codes, margins = solution_grid_margin(s, xs, np.zeros_like(xs))
            for x, code, margin in zip(xs, codes, margins):
                if margin < 1e-9:
                    continue
                real_truth = a * x * x + b * x + c >= 0
                assert (code == int(IN)) == real_truth

    def test_branch_rotation_invariance(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            b = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if a == 0:
                continue
            s = solve_quadratic(a, b, c)
            alt = _shift_branch(s)
            zr = rng.uniform(-4, 4, 500)
            zi = rng.uniform(-4, 4, 500)
            assert np.array_equal(solution_grid(s, zr, zi), solution_grid(alt, zr, zi))


def _shift_branch(s: SolutionSet) -> SolutionSet:
    """Rebuild a quadratic solution with the square-root branch angle
    advanced by pi; central symmetry makes it the same set."""
    region = s.regions[0]
    phi = 0.0
    offset = None
    for t in region.transforms[1:]:
        if isinstance(t, Rotate):
            phi = t.theta
        elif isinstance(t, Translate):
            offset = t.offset
    alt = Region(region.base, (Sqrt(),))
    from lexineq.region import apply_transform, principal_angle

    alt = apply_transform(alt, Rotate(principal_angle(phi - math.pi)))
    if offset is not None:
        alt = apply_transform(alt, Translate(offset))
    return SolutionSet.single(alt)


class TestSolutionSet:
    def test_excluded_points_only_for_fractional(self):
        assert solve_linear(1 + 0j, 1 + 0j).excluded_points == ()
        assert solve(System((Linear(1 + 0j, 0j), Linear(1j, 0j)))).excluded_points == ()
        assert solve_quadratic(1 + 0j, 0j, 0j).excluded_points == ()
        assert solve_fractional(0j, 1 + 0j, 1j, 0j).excluded_points == (-1j,)

    def test_solve_dispatch(self):
        assert solve(Linear(1 + 0j, 0j)).kind is SolutionKind.SINGLE
        assert solve(Quadratic(1 + 0j, 0j, 0j)).kind is SolutionKind.SINGLE
        with pytest.raises(TypeError):
            solve("nope")

    def test_constructor_invariants(self):
        with pytest.raises(ValueError):
            SolutionSet(SolutionKind.SINGLE, ())
        with pytest.raises(ValueError):
            SolutionSet(SolutionKind.ALL, (Region(0j),))

    def test_grid_matches_scalar(self):
        s = solve_fractional(1 + 1j, 3 + 0j, 1 + 0j, 0j)
        rng = np.random.default_rng(4)
        zr = np.concatenate([rng.uniform(-3, 3, 64), [-1.0]])
        zi = np.concatenate([rng.uniform(-3, 3, 64), [0.0]])
        codes = solution_grid(s, zr, zi)
        for k in range(zr.shape[0]):
            assert codes[k] == int(solution_contains(s, complex(zr[k], zi[k])))
