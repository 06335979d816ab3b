"""Scalar reference for every membership decision in the package.

All membership decisions bottom out in the helpers below.  Those that
do only ``+ - * /`` and ``| &`` (``unrotate``, the Smith branches
``cdiv_wide``/``cdiv_tall``, ``csq``, ``at_least`` and the ``*_value``
functions) run unchanged on Python floats and on float64 arrays, and so
does ``region.pull_back``, the walk through a region's transforms that
calls them.  A raster decides most lanes on the real part alone:
``linear_value`` and ``quadratic_value`` are built from ``linear_real``
and ``quadratic_real``, and ``fractional_real`` shares
``fraction_terms`` with ``fractional_value`` and divides with the real
part of one Smith branch only (``cdiv_wide_real``).  The scalar API calls
them on floats; ``_grid`` calls the same functions on arrays and
supplies only what arrays need: the Smith branch chosen with
``np.where`` and pole lanes kept in a mask.  One expression tree per
operation makes the two paths bit-identical, which
``tests/test_grid_equivalence.py`` asserts.  The real parts' trees also
run on ``_grid.Box`` ranges, to bound a raster's blocks, so a change to
a tree changes its bounds with it.  This module and the scalar
API run without numpy.
"""

from __future__ import annotations

# Membership codes; they double as PGM pixel values.
OUT = 0
POLE = 1
IN = 2


def unrotate(wr, wi, c, s):
    """Multiply w by e^{-i theta}, with c = cos(theta), s = sin(theta)."""
    return wr * c + wi * s, wi * c - wr * s


def cdiv_wide(ar, ai, br, bi):
    """Smith's branch of a / b for |br| >= |bi|."""
    t = bi / br
    d = br + bi * t
    return (ar + ai * t) / d, (ai - ar * t) / d


def cdiv_wide_real(ar, ai, br, bi):
    """Re of :func:`cdiv_wide`, bit for bit, with 2 divisions instead of 3."""
    t = bi / br
    return (ar + ai * t) / (br + bi * t)


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
    """w * w; 2*wr*wi as p + p, p = wr*wi, the same float as wr*wi + wi*wr."""
    p = wr * wi
    return wr * wr - wi * wi, p + p


def at_least(wr, wi, a1, a2):
    """w >= a1 + a2*i in dictionary order.

    True on the open half-plane re > a1 plus the closed half-line
    {re = a1, im >= a2}: the base half-plane of every region.
    """
    return (wr > a1) | ((wr == a1) & (wi >= a2))


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


def linear_real(ar, ai, br, zr, zi):
    """Re(A*z - B)."""
    return ar * zr - ai * zi - br


def linear_value(ar, ai, br, bi, zr, zi):
    """A*z - B."""
    return linear_real(ar, ai, br, zr, zi), ar * zi + ai * zr - bi


def quadratic_real(ar, ai, br, bi, cr, zr, zi, sr, si):
    """Re(A*z^2 + B*z + C), given s = z*z = ``csq(zr, zi)``."""
    return ((ar * sr - ai * si) + (br * zr - bi * zi)) + cr


def quadratic_value(ar, ai, br, bi, cr, ci, zr, zi):
    """A*z^2 + B*z + C."""
    sr, si = csq(zr, zi)
    return (quadratic_real(ar, ai, br, bi, cr, zr, zi, sr, si),
            ((ar * si + ai * sr) + (br * zi + bi * zr)) + ci)


def fraction_terms(ar, ai, br, bi, cr, ci, zr, zi):
    """Numerator A*z + B and denominator z + C: ``(nr, ni, wr, wi)``."""
    return ar * zr - ai * zi + br, ar * zi + ai * zr + bi, zr + cr, zi + ci


def fractional_value(ar, ai, br, bi, cr, ci, dr, di, zr, zi, div):
    """(A*z + B) / (z + C) - D, with ``div`` the complex division.

    Pre: z != -C for the scalar :func:`cdiv`; the grid's division
    leaves pole lanes for the caller to mask.
    """
    qr, qi = div(*fraction_terms(ar, ai, br, bi, cr, ci, zr, zi))
    return qr - dr, qi - di


def fractional_real(ar, ai, br, bi, cr, ci, dr, zr, zi, div_real):
    """Re((A*z + B) / (z + C) - D), with ``div_real`` the real part of
    the complex division."""
    return div_real(*fraction_terms(ar, ai, br, bi, cr, ci, zr, zi)) - dr
