"""Scalar reference for every membership decision in the package.

All membership decisions bottom out in the plain-float helpers below.
The scalar API calls them directly, and ``_grid`` mirrors them
expression-for-expression on numpy arrays.  Keeping one expression tree
per operation makes the two paths bit-identical, which
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


def recip(wr, wi):
    """1 / w by Smith's method.  Pre: w != 0."""
    if abs(wr) >= abs(wi):
        t = wi / wr
        d = wr + wi * t
        return 1.0 / d, -t / d
    t = wr / wi
    d = wr * t + wi
    return t / d, -1.0 / d


def cdiv(ar, ai, br, bi):
    """(ar + ai*i) / (br + bi*i) by Smith's method.  Pre: b != 0."""
    if abs(br) >= abs(bi):
        t = bi / br
        d = br + bi * t
        return (ar + ai * t) / d, (ai - ar * t) / d
    t = br / bi
    d = br * t + bi
    return (ar * t + ai) / d, (ai * t - ar) / d


def csq(wr, wi):
    """w * w."""
    return wr * wr - wi * wi, wr * wi + wi * wr


def halfplane_code(wr, wi, a1, a2):
    """Membership of w in the base half-plane anchored at a1 + a2*i.

    In means w >= anchor in dictionary order: open half-plane re > a1
    plus the closed half-line {re = a1, im >= a2}.
    """
    if wr > a1 or (wr == a1 and wi >= a2):
        return IN
    return OUT


def chain_pullback(kinds, pa, pb, wr, wi):
    """Walk a transform chain outermost-first, pulling the probe back.

    Each step replaces the probe by the preimage that the corresponding
    set transform demands: rotation divides out the phase, dilation
    divides the factor, translation subtracts the offset, inversion
    takes the reciprocal (pole at 0), radication squares.  Returns
    (ok, wr, wi); ok = 0 marks a pole.
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
            if wr == 0.0 and wi == 0.0:
                return 0, wr, wi
            wr, wi = recip(wr, wi)
        else:
            wr, wi = csq(wr, wi)
    return 1, wr, wi


def chain_membership(a1, a2, kinds, pa, pb, wr, wi):
    """Pull the probe back through the chain; the base half-plane decides."""
    ok, wr, wi = chain_pullback(kinds, pa, pb, wr, wi)
    if ok == 0:
        return POLE
    return halfplane_code(wr, wi, a1, a2)


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


def value_margin(vr, vi, eps):
    """Magnitude of the component that decides the comparison with 0.

    When |Re v| exceeds eps the real part decides; otherwise the
    imaginary part is the deciding component.  A small margin flags a
    probe too close to the order's decision boundary for two different
    float computations to agree reliably.
    """
    avr = abs(vr)
    if avr > eps:
        return avr
    return abs(vi)


def quadratic_value(ar, ai, br, bi, cr, ci, zr, zi):
    """A*z^2 + B*z + C."""
    sr, si = csq(zr, zi)
    t1r = ar * sr - ai * si
    t1i = ar * si + ai * sr
    t2r = br * zr - bi * zi
    t2i = br * zi + bi * zr
    return (t1r + t2r) + cr, (t1i + t2i) + ci


def fractional_value(ar, ai, br, bi, cr, ci, dr, di, zr, zi):
    """(A*z + B) / (z + C) - D.  Pre: z != -C."""
    wr = zr + cr
    wi = zi + ci
    nr = ar * zr - ai * zi + br
    ni = ar * zi + ai * zr + bi
    qr, qi = cdiv(nr, ni, wr, wi)
    return qr - dr, qi - di
