"""Exact membership judge for the tests.

Decides each class with ``fractions.Fraction`` on the floats' exact
values, so nothing is rounded: slow, and obviously right.  A complex
number is a pair ``(re, im)`` of Fractions; ``_n`` is its L1 modulus
|re| + |im|, an upper bound of |z| that needs no square root.
"""

from fractions import Fraction

from lexineq.lexorder import Membership
from lexineq.normalize import Fractional, Linear, Quadratic, System


def _q(z):
    return Fraction(z.real), Fraction(z.imag)


def _n(z):
    return abs(z[0]) + abs(z[1])


def _mul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _sum(*terms):
    return sum(t[0] for t in terms), sum(t[1] for t in terms)


def values(problem, z):
    """Per constraint, ``(re, im, scale)`` at the probe z, or None at a pole.

    ``re + im*i`` has the signs of the left-hand side's value, and
    ``scale`` bounds the sum of the moduli of its terms.  A fraction
    (A*z + B) / w - D, w = z + C, takes num * conj(w) - D * |w|^2, the
    value times |w|^2 > 0, so that no division is needed.
    """
    if isinstance(problem, System):
        return [v for c in problem.constraints for v in values(c, z)]
    z = _q(z)
    if isinstance(problem, Linear):
        a, b = _q(problem.a), _q(problem.b)
        return [(*_sum(_mul(a, z), (-b[0], -b[1])), _n(a) * _n(z) + _n(b))]
    if isinstance(problem, Quadratic):
        a, b, c = _q(problem.a), _q(problem.b), _q(problem.c)
        v = _sum(_mul(a, _mul(z, z)), _mul(b, z), c)
        return [(*v, _n(a) * _n(z) ** 2 + _n(b) * _n(z) + _n(c))]
    assert isinstance(problem, Fractional)
    a, b, c, d = _q(problem.a), _q(problem.b), _q(problem.c), _q(problem.d)
    w = _sum(z, c)
    if w == (0, 0):
        return [None]
    ww = w[0] ** 2 + w[1] ** 2
    v = _sum(_mul(_sum(_mul(a, z), b), (w[0], -w[1])), (-d[0] * ww, -d[1] * ww))
    return [(*v, (_n(a) * _n(z) + _n(b)) * _n(w) + _n(d) * _n(w) ** 2)]


def decide(vs) -> Membership:
    """The membership that :func:`values` ``vs`` give: member by member, a pole winning."""
    if None in vs:
        return Membership.POLE
    inside = all(re > 0 or (re == 0 and im >= 0) for re, im, _ in vs)
    return Membership.IN if inside else Membership.OUT


def judge(problem, z) -> Membership:
    """Exact membership of the probe z."""
    return decide(values(problem, z))
