"""Dictionary (lexicographic) total order on the complex plane.

Complex values are compared by real part first; on a tie the imaginary
parts decide.  This extends the usual order on the reals to all of C and
is total, but it is *not* compatible with complex multiplication -- see
``lexineq.laws`` for the machinery that demonstrates both facts.

Coordinates are plain binary floats and every comparison is exact: the
order is discontinuous by nature, and any epsilon-based comparison would
break antisymmetry.

:class:`Membership`, the three-valued answer of a region or inequality
at a point, is defined here, next to :class:`Ordering`, so that the
oracle and the solver share it without importing each other;
``lexineq.region`` re-exports it.
"""

from __future__ import annotations

import math
from enum import IntEnum

from . import _kernels
from ._record import record

__all__ = [
    "Ordering",
    "Membership",
    "Polar",
    "lex_cmp",
    "lex_le",
    "lex_ge",
    "polar_decompose",
    "complex_div",
    "require_finite",
]


class Ordering(IntEnum):
    """Three-valued comparison result."""

    LESS = -1
    EQUAL = 0
    GREATER = 1


class Membership(IntEnum):
    """Pointwise truth of a region or inequality at a probe point.

    ``POLE`` marks points where evaluation hits a division by zero.
    The integer values double as raster cell codes.
    """

    OUT = _kernels.OUT
    POLE = _kernels.POLE
    IN = _kernels.IN


def require_finite(z: complex, what: str = "value") -> complex:
    """Reject NaN and infinite coordinates; the order is defined on finite points only."""
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"{what} must have finite coordinates, got {z!r}")
    return z


def lex_cmp(a: complex, b: complex) -> Ordering:
    """Compare two complex numbers in dictionary order.

    Real parts decide first; equal real parts fall through to the
    imaginary parts.  Comparisons are exact (no tolerance).
    """
    require_finite(a, "left operand")
    require_finite(b, "right operand")
    if a.real < b.real:
        return Ordering.LESS
    if a.real > b.real:
        return Ordering.GREATER
    if a.imag < b.imag:
        return Ordering.LESS
    if a.imag > b.imag:
        return Ordering.GREATER
    return Ordering.EQUAL


def lex_le(a: complex, b: complex) -> bool:
    return lex_cmp(a, b) is not Ordering.GREATER


def lex_ge(a: complex, b: complex) -> bool:
    return lex_cmp(a, b) is not Ordering.LESS


@record
class Polar:
    """Modulus/argument form; ``theta`` is the principal argument in (-pi, pi]."""

    r: float
    theta: float

    def to_complex(self) -> complex:
        return complex(self.r * math.cos(self.theta), self.r * math.sin(self.theta))


def polar_decompose(a: complex) -> Polar:
    """Split ``a`` into modulus and principal argument.

    ``polar_decompose(0)`` returns ``Polar(0.0, 0.0)``: the argument of
    zero is arbitrary, so it is pinned for determinism.
    """
    require_finite(a)
    r = math.hypot(a.real, a.imag)
    theta = math.atan2(a.imag, a.real)
    if theta <= -math.pi:
        # atan2 yields -pi only for a negative-zero imaginary part;
        # fold it onto the principal branch (-pi, pi].
        theta = math.pi
    if r == 0.0:
        theta = 0.0
    return Polar(r, theta)


def complex_div(a: complex, b: complex) -> complex:
    """Complex division via Smith's scaled algorithm.

    Implemented explicitly (rather than deferring to ``a / b``) so the
    scalar path and the numpy grid path share one bit-for-bit expression
    tree.  Raises ZeroDivisionError for b = 0; region evaluation maps
    that to a pole.
    """
    if b.real == 0.0 and b.imag == 0.0:
        raise ZeroDivisionError("complex division by zero")
    re, im = _kernels.cdiv(a.real, a.imag, b.real, b.imag)
    return complex(re, im)
