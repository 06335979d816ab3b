"""Normalization of parsed inequalities into the solvable classes.

Expression trees are lowered to rational functions of Z with dense
complex coefficient lists (index = degree).  No polynomial gcd
cancellation is attempted: an input whose normalized denominator has
degree >= 2 is rejected as unsupported rather than "simplified" with
fragile float arithmetic.  All coefficient arithmetic is plain complex
field arithmetic, so inputs with dyadic-rational literals normalize
exactly.

The problem classes are defined here, where they are built;
``lexineq.solver`` re-exports them.  So classifying an input loads
neither the solver nor the region algebra.  Inequalities joined by
``&&`` become a :class:`System`, which every consumer reads by recursion.
"""

from __future__ import annotations

import math

from ._record import record
from .errors import UnsupportedFormError
from .lexorder import complex_div, require_finite
from .parser import MAX_SYSTEM, Add, Div, Expr, Lit, Mul, Neg, Pow, SourceExpr, Sub, Var

TYPE_CHECKING = False  # type checkers read it as True; saves importing typing
if TYPE_CHECKING:
    from collections.abc import Sequence

__all__ = [
    "Linear",
    "System",
    "Fractional",
    "Quadratic",
    "InequalityProblem",
    "classify_problem",
    "classify_problem_ex",
    "problem_kind",
]


@record
class Linear:
    """A*Z - B >= 0."""

    a: complex
    b: complex

    def __post_init__(self):
        require_finite(self.a, "coefficient a")
        require_finite(self.b, "coefficient b")


@record
class Fractional:
    """(A*Z + B) / (Z + C) >= D.

    The solvable case needs B - A*C != 0; the degenerate case (the
    expression is constant where defined) is accepted here and handled
    by :func:`lexineq.solver.solve_fractional`.
    """

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            require_finite(getattr(self, name), f"coefficient {name}")


@record
class Quadratic:
    """A*Z^2 + B*Z + C >= 0 with A != 0."""

    a: complex
    b: complex
    c: complex

    def __post_init__(self):
        for name in ("a", "b", "c"):
            require_finite(getattr(self, name), f"coefficient {name}")


@record
class System:
    """Every one of ``constraints`` holds: 2 to ``MAX_SYSTEM`` linear,
    fractional and quadratic problems."""

    constraints: tuple

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if not 2 <= len(self.constraints) <= MAX_SYSTEM:
            raise UnsupportedFormError(f"a system joins 2 to {MAX_SYSTEM} inequalities, "
                                       f"got {len(self.constraints)}")


InequalityProblem = Linear | System | Fractional | Quadratic


_MAX_DEGREE = 64

Poly = list  # list[complex], dense, trimmed; never mutated once returned

_UNIT = 1 + 0j
_ONE = [_UNIT]  # the one shared denominator of every literal and of Z


def _trim(p: Poly) -> Poly:
    while p and p[-1] == 0:
        p.pop()
    return p


def _padd(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    out = [0j] * n
    for i, c in enumerate(p):
        out[i] = out[i] + c
    for i, c in enumerate(q):
        out[i] = out[i] + c
    return _trim(out)


def _pneg(p: Poly) -> Poly:
    return [-c for c in p]


def _psub(p: Poly, q: Poly) -> Poly:
    return _padd(p, _pneg(q))


def _pmul(p: Poly, q: Poly) -> Poly:
    if p is _ONE:
        p, q = q, p
    if q is _ONE:
        # the loop's own arithmetic, so signed zeros, inf and nan agree
        # (complex products commute bit for bit)
        return p if p is _ONE else [0j + a * _UNIT for a in p]
    if not p or not q:
        return []
    if len(p) + len(q) - 2 > _MAX_DEGREE:
        raise UnsupportedFormError(
            f"intermediate polynomial degree exceeds {_MAX_DEGREE}"
        )
    out = [0j] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return _trim(out)


def _deg(p: Poly) -> int:
    """Degree of a trimmed polynomial; the zero polynomial reports -1."""
    return len(p) - 1


Rational = tuple  # (num: Poly, den: Poly)


def _to_rational(node: Expr) -> Rational:
    if isinstance(node, Lit):
        num = [node.value] if node.value != 0 else []
        return num, _ONE
    if isinstance(node, Var):
        return [0j, _UNIT], _ONE
    if isinstance(node, Neg):
        n, d = _to_rational(node.operand)
        return _pneg(n), d
    if isinstance(node, Pow):
        n, d = _to_rational(node.base)
        # Refuse before the loop, which runs exponent - 1 times.  It stays a
        # left-to-right product: squaring would round the coefficients
        # differently.
        if max(_deg(n), _deg(d)) * node.exponent > _MAX_DEGREE:
            raise UnsupportedFormError(
                f"intermediate polynomial degree exceeds {_MAX_DEGREE}"
            )
        rn, rd = n, d
        for _ in range(node.exponent - 1):
            rn = _pmul(rn, n)
            rd = _pmul(rd, d)
        return rn, rd
    if not isinstance(node, (Add, Sub, Mul, Div)):
        raise TypeError(f"not an expression node: {node!r}")
    n1, d1 = _to_rational(node.lhs)
    n2, d2 = _to_rational(node.rhs)
    if isinstance(node, Mul):
        return _pmul(n1, n2), _pmul(d1, d2)
    if isinstance(node, Div):
        if not n2:
            raise UnsupportedFormError("division by an expression that is identically zero")
        return _pmul(n1, d2), _pmul(d1, n2)
    combine = _padd if isinstance(node, Add) else _psub
    return combine(_pmul(n1, d2), _pmul(n2, d1)), _pmul(d1, d2)


def _require_folded_finite(coeffs: Sequence[complex]) -> None:
    """Refuse coefficients that constant folding pushed out of the float
    range.  Literals are finite (the parser refuses overflowing ones), so
    a non-finite coefficient means an intermediate product or quotient
    overflowed, e.g. ``2^1024``."""
    for c in coeffs:
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise UnsupportedFormError(
                "a constant overflows the float range (about 1.8e308) while the "
                "coefficients are folded"
            )


def _coeff(p: Poly, k: int) -> complex:
    return p[k] if k < len(p) else 0j


def _as_constant(num: Poly, den: Poly) -> complex | None:
    """The value of a rational function that does not involve Z, else None."""
    if _deg(den) == 0 and _deg(num) <= 0:
        return complex_div(_coeff(num, 0), den[0])
    return None


def _shape(num: Poly, den: Poly) -> str:
    return f"(degree-{max(_deg(num), 0)} numerator) / (degree-{max(_deg(den), 0)} denominator)"


def _fractional_from(num: Poly, den: Poly, d_const: complex) -> tuple[Fractional, complex | None]:
    """Scale a degree-1 denominator to the monic form Z + C.

    Returns the problem and the scaling factor, or None when the
    denominator was already monic.
    """
    if _deg(num) > 1:
        raise UnsupportedFormError(
            f"numerator degree {_deg(num)} over a linear denominator is not solvable; "
            f"normalized shape: {_shape(num, den)}"
        )
    scale = den[1]
    a = complex_div(_coeff(num, 1), scale)
    b = complex_div(_coeff(num, 0), scale)
    c = complex_div(_coeff(den, 0), scale)
    _require_folded_finite((a, b, c, d_const))
    return Fractional(a, b, c, d_const), (scale if scale != 1 else None)


def _classify_single(src: SourceExpr) -> tuple[InequalityProblem, complex | None]:
    ln, ld = _to_rational(src.lhs)
    rn, rd = _to_rational(src.rhs)

    r_const = _as_constant(rn, rd)
    if r_const is not None and _deg(ld) == 1:
        # fraction >= constant: keep the right side as the threshold so the
        # classified problem reads like the input
        return _fractional_from(ln, ld, r_const)

    num = _psub(_pmul(ln, rd), _pmul(rn, ld))
    den = _pmul(ld, rd)
    if not den:
        raise UnsupportedFormError("the inequality is nowhere defined (zero denominator)")
    if _deg(den) == 0:
        if den is _ONE:
            # complex_div(c, 1+0j) takes Smith's wide branch with t = 0.0
            # and d = 1.0: the same bits, signed zeros, inf and nan included
            poly = [complex(c.real + c.imag * 0.0, c.imag - c.real * 0.0) for c in num]
        else:
            poly = [complex_div(c, den[0]) for c in num]
        degree = _deg(poly)
        if degree <= 2:
            _require_folded_finite(poly)
        if degree <= 0:
            return Linear(0j, -_coeff(poly, 0)), None
        if degree == 1:
            return Linear(poly[1], -poly[0]), None
        if degree == 2:
            return Quadratic(poly[2], poly[1], poly[0]), None
        raise UnsupportedFormError(
            f"polynomial degree {degree} is outside the solvable classes (max 2)"
        )
    if _deg(den) == 1:
        return _fractional_from(num, den, 0j)
    raise UnsupportedFormError(
        f"denominator degree {_deg(den)} is not solvable; normalized shape: {_shape(num, den)}"
    )


def classify_problem_ex(
    source: SourceExpr | Sequence[SourceExpr],
) -> tuple[InequalityProblem, complex | None]:
    """Classify and also report the denominator scaling factor, if any."""
    if isinstance(source, SourceExpr):
        return _classify_single(source)
    exprs = tuple(source)
    if len(exprs) == 1:
        return _classify_single(exprs[0])
    constraints = tuple(_classify_single(e)[0] for e in exprs)
    # perfbench/inputs.py REFUSED_TEMPLATES holds `Z >= a && Z^2 >= b`, which
    # every commit must refuse; so a system read from text has no quadratic
    # constraint, though System, solve and the oracle take one (see ROADMAP)
    if any(isinstance(c, Quadratic) for c in constraints):
        raise UnsupportedFormError("'&&' systems support linear and fractional constraints "
                                   "only; got a quadratic constraint")
    return System(constraints), None


def classify_problem(source: SourceExpr | Sequence[SourceExpr]) -> InequalityProblem:
    """Normalize a parsed inequality (or '&&' system) into a solvable class.

    Everything is moved to the left-hand side and normalized to a
    rational function of Z; degree-1 and degree-2 polynomials become
    linear and quadratic problems, a linear-over-linear fraction becomes
    a fractional problem with monic denominator, and inequalities joined
    by '&&' become a system of those (but for quadratic ones).  Anything
    else raises UnsupportedFormError naming the normalized shape.
    """
    problem, _ = classify_problem_ex(source)
    return problem


def problem_kind(problem: InequalityProblem) -> str:
    """``kind`` in JSON: two linear constraints are a ``linear-system``."""
    if isinstance(problem, Linear):
        return "linear"
    if isinstance(problem, System):
        kinds = [problem_kind(c) for c in problem.constraints]
        return "linear-system" if kinds == ["linear", "linear"] else "system"
    if isinstance(problem, Fractional):
        return "fractional"
    if isinstance(problem, Quadratic):
        return "quadratic"
    raise TypeError(f"not an inequality problem: {problem!r}")
