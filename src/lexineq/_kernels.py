"""Scalar reference for every membership decision in the package.

All membership decisions bottom out in the helpers below.  Those that
do only ``+ - * /`` and ``| &`` (``unrotate``, the Smith branches
``cdiv_wide``/``cdiv_tall``, ``csq``, ``at_least``, ``linear_value``,
``quadratic_value``, ``fractional_value`` and ``pull_back``) run
unchanged on Python floats and on float64 arrays.  The scalar API calls
them on floats; ``_grid`` calls the same functions on arrays and
supplies only what arrays need: the Smith branch chosen with
``np.where`` and pole lanes kept in a mask.  One expression tree per
operation makes the two paths bit-identical, which
``tests/test_grid_equivalence.py`` asserts.

Encoded chains (``region._encode``) are tuples of Python ints (kind
codes) and Python floats (parameters), so this module and the scalar
API run without numpy.
"""

from __future__ import annotations

# Membership codes; they double as PGM pixel values.
OUT = 0
POLE = 1
IN = 2

# Transform kind codes for encoded chains.
KIND_ROTATE = 0
KIND_SCALE = 1
KIND_TRANSLATE = 2
KIND_INVERT = 3
KIND_SQRT = 4


def unrotate(wr, wi, c, s):
    """Multiply w by e^{-i theta}, with c = cos(theta), s = sin(theta)."""
    t1 = wr * c
    t2 = wi * s
    t3 = wi * c
    t4 = wr * s
    return t1 + t2, t3 - t4


def cdiv_wide(ar, ai, br, bi):
    """Smith's branch of a / b for |br| >= |bi|."""
    t = bi / br
    d = br + bi * t
    return (ar + ai * t) / d, (ai - ar * t) / d


def cdiv_tall(ar, ai, br, bi):
    """Smith's branch of a / b for |br| < |bi|."""
    t = br / bi
    d = br * t + bi
    return (ar * t + ai) / d, (ai * t - ar) / d


def cdiv(ar, ai, br, bi):
    """(ar + ai*i) / (br + bi*i) by Smith's method.  Pre: b != 0."""
    if abs(br) >= abs(bi):
        return cdiv_wide(ar, ai, br, bi)
    return cdiv_tall(ar, ai, br, bi)


def csq(wr, wi):
    """w * w."""
    return wr * wr - wi * wi, wr * wi + wi * wr


def at_least(wr, wi, a1, a2):
    """w >= a1 + a2*i in dictionary order.

    True on the open half-plane re > a1 plus the closed half-line
    {re = a1, im >= a2}: the base half-plane of every region.
    """
    return (wr > a1) | ((wr == a1) & (wi >= a2))


def pull_back(kinds, pa, pb, wr, wi, invert):
    """Walk a transform chain outermost-first, pulling the probe back.

    Each step replaces the probe by the preimage that the corresponding
    set transform demands: rotation divides out the phase, dilation
    divides the factor, translation subtracts the offset, inversion
    takes the reciprocal, radication squares.  ``invert(wr, wi)`` is the
    reciprocal; it also owns the pole at 0, which the scalar path raises
    and the grid path records in a mask.
    """
    for k in range(len(kinds) - 1, -1, -1):
        kind = kinds[k]
        if kind == KIND_ROTATE:
            wr, wi = unrotate(wr, wi, pa[k], pb[k])
        elif kind == KIND_SCALE:
            wr = wr / pa[k]
            wi = wi / pa[k]
        elif kind == KIND_TRANSLATE:
            wr = wr - pa[k]
            wi = wi - pb[k]
        elif kind == KIND_INVERT:
            wr, wi = invert(wr, wi)
        else:
            wr, wi = csq(wr, wi)
    return wr, wi


class _Pole(Exception):
    """A scalar pullback reached the pole of an inversion."""


def _invert(wr, wi):
    if wr == 0.0 and wi == 0.0:
        raise _Pole
    return cdiv(1.0, 0.0, wr, wi)


def chain_pullback(kinds, pa, pb, wr, wi):
    """:func:`pull_back` of one probe.  Returns (ok, wr, wi); ok = 0 marks a pole."""
    try:
        wr, wi = pull_back(kinds, pa, pb, wr, wi, _invert)
    except _Pole:
        return 0, 0.0, 0.0
    return 1, wr, wi


def chain_membership(a1, a2, kinds, pa, pb, wr, wi):
    """Pull the probe back through the chain; the base half-plane decides."""
    ok, wr, wi = chain_pullback(kinds, pa, pb, wr, wi)
    if ok == 0:
        return POLE
    return IN if at_least(wr, wi, a1, a2) else OUT


def tie_margin(dr, di):
    """Margin of the component that actually decides a half-plane test.

    The real part decides whenever it differs from the anchor at all
    (the comparison is exact), so only an exact tie falls through to
    the imaginary part.  A sub-ulp real residue therefore reports a
    tiny margin, flagging that the decision rests on rounding noise.
    """
    if dr != 0.0:
        return abs(dr)
    return abs(di)


def linear_value(ar, ai, br, bi, zr, zi):
    """A*z - B."""
    return ar * zr - ai * zi - br, ar * zi + ai * zr - bi


def quadratic_value(ar, ai, br, bi, cr, ci, zr, zi):
    """A*z^2 + B*z + C."""
    sr, si = csq(zr, zi)
    t1r = ar * sr - ai * si
    t1i = ar * si + ai * sr
    t2r = br * zr - bi * zi
    t2i = br * zi + bi * zr
    return (t1r + t2r) + cr, (t1i + t2i) + ci


def fractional_value(ar, ai, br, bi, cr, ci, dr, di, zr, zi, div):
    """(A*z + B) / (z + C) - D, with ``div`` the complex division.

    Pre: z != -C for the scalar :func:`cdiv`; the grid's division
    leaves pole lanes for the caller to mask.
    """
    wr = zr + cr
    wi = zi + ci
    nr = ar * zr - ai * zi + br
    ni = ar * zi + ai * zr + bi
    qr, qi = div(nr, ni, wr, wi)
    return qr - dr, qi - di
