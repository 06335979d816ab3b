"""Grid evaluation: the vectorized numpy path over flat coordinate arrays.

Every arithmetic expression here mirrors its scalar reference in
``_kernels`` operation for operation (same multiplies, same adds, same
division branches selected with ``np.where``), so results are
bit-identical to the scalar path.  Complex dtype is deliberately
avoided: numpy's own complex division rounds differently from the
shared Smith helper.
"""

from __future__ import annotations

import numpy as np

from ._kernels import IN, OUT, POLE, KIND_ROTATE, KIND_SCALE, KIND_TRANSLATE, KIND_INVERT


def _recip_arrays(wr, wi):
    """Elementwise 1/w by Smith's method.  Pre: no (0, 0) lanes."""
    with np.errstate(divide="ignore", invalid="ignore"):
        big = np.abs(wr) >= np.abs(wi)
        t1 = wi / wr
        d1 = wr + wi * t1
        re1 = 1.0 / d1
        im1 = -t1 / d1
        t2 = wr / wi
        d2 = wr * t2 + wi
        re2 = t2 / d2
        im2 = -1.0 / d2
    return np.where(big, re1, re2), np.where(big, im1, im2)


def _cdiv_arrays(ar, ai, br, bi):
    """Elementwise a/b by Smith's method.  Pre: no zero-b lanes."""
    with np.errstate(divide="ignore", invalid="ignore"):
        big = np.abs(br) >= np.abs(bi)
        t1 = bi / br
        d1 = br + bi * t1
        re1 = (ar + ai * t1) / d1
        im1 = (ai - ar * t1) / d1
        t2 = br / bi
        d2 = br * t2 + bi
        re2 = (ar * t2 + ai) / d2
        im2 = (ai * t2 - ar) / d2
    return np.where(big, re1, re2), np.where(big, im1, im2)


def _csq_arrays(wr, wi):
    return wr * wr - wi * wi, wr * wi + wi * wr


def _value_code(vr, vi):
    return np.where((vr > 0.0) | ((vr == 0.0) & (vi >= 0.0)), IN, OUT).astype(np.uint8)


def _tie_margin(vr, vi):
    return np.where(vr != 0.0, np.abs(vr), np.abs(vi))


def _chain_pullback(kinds, pa, pb, zr, zi):
    wr = zr.astype(np.float64, copy=True)
    wi = zi.astype(np.float64, copy=True)
    pole = np.zeros(wr.shape, dtype=bool)
    for k in range(len(kinds) - 1, -1, -1):
        kind = kinds[k]
        if kind == KIND_ROTATE:
            c = pa[k]
            s = pb[k]
            t1 = wr * c
            t2 = wi * s
            t3 = wi * c
            t4 = wr * s
            wr = t1 + t2
            wi = t3 - t4
        elif kind == KIND_SCALE:
            wr = wr / pa[k]
            wi = wi / pa[k]
        elif kind == KIND_TRANSLATE:
            wr = wr - pa[k]
            wi = wi - pb[k]
        elif kind == KIND_INVERT:
            zero = (wr == 0.0) & (wi == 0.0) & ~pole
            pole |= zero
            # park pole lanes on a harmless value; they are masked at the end
            wr = np.where(zero, 1.0, wr)
            wi = np.where(zero, 0.0, wi)
            wr, wi = _recip_arrays(wr, wi)
        else:
            wr, wi = _csq_arrays(wr, wi)
    return wr, wi, pole


def region_grid(a1, a2, kinds, pa, pb, zr, zi):
    wr, wi, pole = _chain_pullback(kinds, pa, pb, zr, zi)
    inside = (wr > a1) | ((wr == a1) & (wi >= a2))
    codes = np.where(inside, IN, OUT).astype(np.uint8)
    codes[pole] = POLE
    return codes


def region_grid_margin(a1, a2, kinds, pa, pb, zr, zi):
    wr, wi, pole = _chain_pullback(kinds, pa, pb, zr, zi)
    inside = (wr > a1) | ((wr == a1) & (wi >= a2))
    codes = np.where(inside, IN, OUT).astype(np.uint8)
    codes[pole] = POLE
    margins = _tie_margin(wr - a1, wi - a2)
    margins[pole] = np.inf
    return codes, margins


def linear_grid(ar, ai, br, bi, zr, zi):
    vr = ar * zr - ai * zi - br
    vi = ar * zi + ai * zr - bi
    return _value_code(vr, vi), _tie_margin(vr, vi)


def system_grid(ar, ai, br, bi, cr, ci, dr, di, zr, zi):
    v1r = ar * zr - ai * zi - br
    v1i = ar * zi + ai * zr - bi
    v2r = cr * zr - ci * zi - dr
    v2i = cr * zi + ci * zr - di
    c1 = _value_code(v1r, v1i)
    c2 = _value_code(v2r, v2i)
    codes = np.where((c1 == IN) & (c2 == IN), IN, OUT).astype(np.uint8)
    margins = np.minimum(_tie_margin(v1r, v1i), _tie_margin(v2r, v2i))
    return codes, margins


def fractional_grid(ar, ai, br, bi, cr, ci, dr, di, zr, zi):
    wr = zr + cr
    wi = zi + ci
    pole = (wr == 0.0) & (wi == 0.0)
    wr = np.where(pole, 1.0, wr)
    wi = np.where(pole, 0.0, wi)
    nr = ar * zr - ai * zi + br
    ni = ar * zi + ai * zr + bi
    qr, qi = _cdiv_arrays(nr, ni, wr, wi)
    vr = qr - dr
    vi = qi - di
    codes = _value_code(vr, vi)
    margins = _tie_margin(vr, vi)
    codes[pole] = POLE
    margins[pole] = np.inf
    return codes, margins


def quadratic_grid(ar, ai, br, bi, cr, ci, zr, zi):
    sr, si = _csq_arrays(zr, zi)
    t1r = ar * sr - ai * si
    t1i = ar * si + ai * sr
    t2r = br * zr - bi * zi
    t2i = br * zi + bi * zr
    vr = (t1r + t2r) + cr
    vi = (t1i + t2i) + ci
    return _value_code(vr, vi), _tie_margin(vr, vi)
