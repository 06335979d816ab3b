"""Closed-form solvers for the inequality classes.

Each solver returns a :class:`SolutionSet` whose region chain follows
the derivation step for step, so the emitted JSON can be read against
the construction line by line.  Steps that are exact identities
(rotation by 0, translation by 0) are collapsed, since they change
neither the set nor the arithmetic.

The linear solver divides out the modulus of the leading coefficient
and un-rotates its phase; the fractional solver reduces to an inversion
of a half-plane; the quadratic solver completes the square and takes
the two-valued square-root preimage.  No assumption is made about the
sign or realness of any intermediate quantity: membership is always the
pullback walk, which is correct for all parameter signs.  A
:class:`System`'s solution is the intersection of its members'.  On the
grid each region is a constraint, decided by ``_grid.decide`` as
``oracle`` decides a problem's: real parts first, and the full values and
the pole mask only on the lanes those leave open.

The problem classes (:class:`Linear`, :class:`System`,
:class:`Fractional`, :class:`Quadratic` and the union
``InequalityProblem``) are defined in ``lexineq.normalize``, which
builds them, and re-exported here.
"""

from __future__ import annotations

import math
from enum import Enum

from ._record import record
from .errors import DegenerateFractionError, ZeroLeadingCoefficientError
from .lexorder import Membership, complex_div, lex_le, polar_decompose, require_finite
from .normalize import Fractional, InequalityProblem, Linear, Quadratic, System
from .region import (
    Invert,
    Region,
    Rotate,
    Sqrt,
    Translate,
    _value_lanes,
    apply_transform,
    contains,
)

TYPE_CHECKING = False  # type checkers read it as True; saves importing typing
if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Linear",
    "System",
    "Fractional",
    "Quadratic",
    "InequalityProblem",
    "SolutionKind",
    "SolutionSet",
    "solve",
    "solve_linear",
    "solve_fractional",
    "solve_quadratic",
    "solution_contains",
    "solution_grid",
]


class SolutionKind(str, Enum):
    SINGLE = "single"
    INTERSECTION = "intersection"
    ALL = "all"
    EMPTY = "empty"


@record
class SolutionSet:
    """Solver output: one region, an intersection of regions, or a
    constant answer, plus pole points removed from the set."""

    kind: SolutionKind
    regions: tuple[Region, ...] = ()
    excluded_points: tuple[complex, ...] = ()
    note: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "regions", tuple(self.regions))
        object.__setattr__(self, "excluded_points", tuple(self.excluded_points))
        if self.kind is SolutionKind.SINGLE and len(self.regions) != 1:
            raise ValueError("single solutions carry exactly one region")
        if self.kind is SolutionKind.INTERSECTION and len(self.regions) < 2:
            raise ValueError("intersections carry at least two regions")
        if self.kind in (SolutionKind.ALL, SolutionKind.EMPTY) and self.regions:
            raise ValueError("constant solutions carry no regions")

    @classmethod
    def single(cls, region, excluded_points=(), note=None):
        return cls(SolutionKind.SINGLE, (region,), tuple(excluded_points), note)

    @classmethod
    def intersection(cls, regions, excluded_points=(), note=None):
        return cls(SolutionKind.INTERSECTION, tuple(regions), tuple(excluded_points), note)

    @classmethod
    def universe(cls, excluded_points=(), note=None):
        return cls(SolutionKind.ALL, (), tuple(excluded_points), note)

    @classmethod
    def empty(cls, excluded_points=(), note=None):
        return cls(SolutionKind.EMPTY, (), tuple(excluded_points), note)


def _in_float_range(z: complex, what: str = "threshold") -> complex:
    """Refuse a solution parameter whose computation from finite
    coefficients overflowed, e.g. B/r = 1e600 for ``(1e-300)*Z >= 1e300``,
    or the modulus r = |1.5e308+1.5e308i| that B is divided by."""
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"computing the solution {what} overflows the float range (about 1.8e308)")
    return z


def solve_linear(a: complex, b: complex) -> SolutionSet:
    """Solve A*Z - B >= 0.

    For A = r*e^{i theta} with r > 0 the solution is the base
    half-plane at B/r un-rotated by theta.  A = 0 degenerates to a
    constant inequality.
    """
    require_finite(a, "coefficient a")
    require_finite(b, "coefficient b")
    if a == 0:
        if lex_le(b, 0j):  # -B >= 0
            return SolutionSet.universe(note="zero leading coefficient; inequality is constant")
        return SolutionSet.empty(note="zero leading coefficient; inequality is constant")
    pol = polar_decompose(a)
    r = _in_float_range(pol.r, "scale |A|")
    anchor = _in_float_range(complex(b.real / r, b.imag / r))
    region = Region(anchor)
    if pol.theta != 0.0:
        region = apply_transform(region, Rotate(-pol.theta))
    return SolutionSet.single(region)


def solve_fractional(a: complex, b: complex, c: complex, d: complex,
                     strict: bool = False) -> SolutionSet:
    """Solve (A*Z + B) / (Z + C) >= D.

    With r*e^{i theta} := B - A*C the solution is the inversion of the
    half-plane at (D - A)/r, rotated by theta and translated by -C; the
    pole Z = -C is excluded.  When B - A*C = 0 the expression is the
    constant A wherever it is defined; by default that constant
    inequality is answered directly (with a note), or rejected when
    ``strict`` is set.
    """
    for name, v in (("a", a), ("b", b), ("c", c), ("d", d)):
        require_finite(v, f"coefficient {name}")
    w = _in_float_range(b - a * c, "B - A*C")
    pole = complex(-c.real + 0.0, -c.imag + 0.0)  # normalize -0.0 away
    if w == 0:
        if strict:
            raise DegenerateFractionError(
                "B - A*C = 0: the fraction is constant where defined"
            )
        note = "degenerate fraction (B - A*C = 0): value is the constant A away from the pole"
        if lex_le(d, a):  # constant A >= D
            return SolutionSet.universe(excluded_points=(pole,), note=note)
        return SolutionSet.empty(excluded_points=(pole,), note=note)
    pol = polar_decompose(w)
    r = _in_float_range(pol.r, "scale |B - A*C|")
    anchor = _in_float_range(complex((d - a).real / r, (d - a).imag / r))
    region = Region(anchor, (Invert(),))
    if pol.theta != 0.0:
        region = apply_transform(region, Rotate(pol.theta))
    if pole != 0:
        region = apply_transform(region, Translate(pole))
    return SolutionSet.single(region, excluded_points=(pole,))


def solve_quadratic(a: complex, b: complex, c: complex) -> SolutionSet:
    """Solve A*Z^2 + B*Z + C >= 0 with A != 0.

    Completing the square gives e^{i theta} (Z + B/2A)^2 >=
    (B^2 - 4AC)/(4rA) with A = r*e^{i theta}; the solution is the
    square-root preimage of that half-plane, un-rotated by theta/2 and
    translated by -B/2A.  The discriminant quotient is computed in full
    complex arithmetic.
    """
    for name, v in (("a", a), ("b", b), ("c", c)):
        require_finite(v, f"coefficient {name}")
    if a == 0:
        raise ZeroLeadingCoefficientError("leading coefficient is zero; use solve_linear")
    pol = polar_decompose(a)
    shift = _in_float_range(-complex_div(b, 2 * a), "offset")
    disc = b * b - 4 * a * c
    scale = complex(4 * pol.r * a.real, 4 * pol.r * a.imag)
    if scale == 0:
        # |A| below about 1e-162: 4|A|A rounds to 0, and dividing by it
        # would raise "complex division by zero"
        raise ValueError("computing the solution threshold underflows the float range: "
                         "4|A|A is below the smallest float (about 4.9e-324)")
    anchor = _in_float_range(complex_div(disc, scale))
    region = Region(anchor, (Sqrt(),))
    half = pol.theta / 2.0
    if half != 0.0:
        region = apply_transform(region, Rotate(-half))
    if shift != 0:
        region = apply_transform(region, Translate(shift))
    return SolutionSet.single(region)


def solve(problem: InequalityProblem, strict: bool = False) -> SolutionSet:
    """Dispatch a classified problem to its solver.

    A system intersects its members' solutions: a constantly false one
    empties it, one that always holds drops out (if all do, the last one
    is the answer), and every member's poles are excluded, each once.
    """
    if isinstance(problem, Linear):
        return solve_linear(problem.a, problem.b)
    if isinstance(problem, System):
        solutions = [solve(c, strict) for c in problem.constraints]
        poles = tuple(dict.fromkeys(p for s in solutions for p in s.excluded_points))
        if any(s.kind is SolutionKind.EMPTY for s in solutions):
            return SolutionSet.empty(poles, note="one constraint is constantly false")
        regions = [r for s in solutions for r in s.regions]
        if not regions:
            return SolutionSet.universe(poles, solutions[-1].note)
        if len(regions) == 1:
            return SolutionSet.single(regions[0], poles)
        return SolutionSet.intersection(regions, poles)
    if isinstance(problem, Fractional):
        return solve_fractional(problem.a, problem.b, problem.c, problem.d, strict=strict)
    if isinstance(problem, Quadratic):
        return solve_quadratic(problem.a, problem.b, problem.c)
    raise TypeError(f"not an inequality problem: {problem!r}")


def solution_contains(solution: SolutionSet, z: complex) -> Membership:
    """Pointwise membership of a solution set.

    Excluded points are poles; an intersection is In when every region
    is In, and Pole when any region is Pole (the underlying expression
    is undefined there).
    """
    require_finite(z, "probe point")
    for p in solution.excluded_points:
        if z == p:
            return Membership.POLE
    if solution.kind is SolutionKind.ALL:
        return Membership.IN
    if solution.kind is SolutionKind.EMPTY:
        return Membership.OUT
    result = Membership.IN
    for region in solution.regions:
        m = contains(region, z)
        if m is Membership.POLE:
            return Membership.POLE
        if m is Membership.OUT:
            result = Membership.OUT
    return result


def solution_grid(solution: SolutionSet, zr: np.ndarray, zi: np.ndarray) -> np.ndarray:
    """Vectorized :func:`solution_contains` at the lanes zr + zi*i, to which
    zr and zi broadcast (flat, or a row and a column), in their shape."""
    return _decide_lanes(solution, zr, zi)[0]


def solution_grid_margin(solution: SolutionSet, zr: np.ndarray,
                         zi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Membership codes plus the solution side's boundary margins.

    The margin is the tie margin of each region's value, its pulled-back
    probe minus its base anchor (smallest constituent for an
    intersection); constant solutions and pole points report an
    infinite margin.  Lanes and shapes are those of :func:`solution_grid`.
    """
    return _decide_lanes(solution, zr, zi, margins=True)


def _decide_lanes(solution: SolutionSet, zr, zi, out: np.ndarray | None = None,
                  margins: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """``_grid.decide`` on the lanes zr + zi*i, as ``oracle`` decides a
    problem's: the regions' real parts decide, and their full values and
    the pole mask are computed only on the lanes those leave open."""
    import numpy as np

    from . import _grid

    zr = np.ascontiguousarray(zr, dtype=np.float64)
    zi = np.ascontiguousarray(zi, dtype=np.float64)
    return _grid.decide([vr for vr, _ in _solution_lanes(solution, zr, zi)[0]],
                        lambda zr, zi: _solution_lanes(solution, zr, zi), zr, zi, out, margins)


def _solution_lanes(solution: SolutionSet, zr, zi):
    """The regions as constraints on float64 lanes, in their shape: ``(values, pole)``.

    ``values`` holds each region's value pair (``region._value_lanes``);
    a constant solution's one pair is (inf, inf) if ALL, else (-inf, -inf):
    it holds, or fails, everywhere with an infinite margin.  The first
    real part is nan at each excluded point, so that the real parts leave
    it open.  ``pole`` is the union of the regions' pole masks and the
    excluded points (None when no lane can be a pole).
    """
    import functools

    import numpy as np

    lanes = [_value_lanes(region, zr, zi) for region in solution.regions]
    values = [value for value, _ in lanes]
    masks = [mask for _, mask in lanes if mask is not None]
    if not values:
        constant = np.full(np.broadcast_shapes(zr.shape, zi.shape),
                           np.inf if solution.kind is SolutionKind.ALL else -np.inf)
        values = [(constant, constant)]
    for p in solution.excluded_points:
        masks.append((zr == p.real) & (zi == p.imag))
        values[0][0][masks[-1]] = np.nan
    return values, functools.reduce(np.logical_or, masks) if masks else None
