"""Grid evaluation: ``_kernels``' own arithmetic run on flat float64 arrays.

The helpers in ``_kernels`` that do only ``+ - * /`` run unchanged on
arrays, so this module adds only what arrays need: Smith's branch chosen
lane by lane with ``np.where``, pole lanes kept in a mask, and the two
reductions of the computed values.  :func:`codes` turns the decision
into membership codes, which is all a raster needs; :func:`margins`
computes the tie margins that only verification reads, and only the
callers that read them run it.  A raster first decides each lane on the
real parts alone (:func:`cdiv_real`, :func:`decide_real`), since the
imaginary part only breaks exact ties.  Results are bit-identical to the
scalar path.  Complex dtype is deliberately avoided: numpy's own complex
division rounds differently from the shared Smith helper.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from ._kernels import IN, POLE


def cdiv(ar, ai, br, bi):
    """Elementwise a / b: both Smith branches, one selected per lane.

    Zero-b lanes come out as nan for the caller to mask.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        wide = np.abs(br) >= np.abs(bi)
        wr, wi = _kernels.cdiv_wide(ar, ai, br, bi)
        tr, ti = _kernels.cdiv_tall(ar, ai, br, bi)
    return np.where(wide, wr, tr), np.where(wide, wi, ti)


def cdiv_real(ar, ai, br, bi):
    """Elementwise Re(a / b): one Smith branch per lane, 2 divisions.

    A lane that takes the tall branch in :func:`cdiv` (not |br| >= |bi|)
    swaps each operand's components and takes the wide branch's real
    part.  That is exact, not just close: the tall branch computes
    t = br/bi and (ar*t + ai) / (br*t + bi), and the wide branch on
    swapped operands computes t = br/bi and (ai + ar*t) / (bi + br*t).
    IEEE addition is commutative, bit for bit, signed zeros and
    infinities included, so both round to the same float: the result is
    the real part of :func:`cdiv` on every lane where that is not nan,
    and nan where it is.  Zero-b lanes come out as nan.
    """
    wide = np.abs(br) >= np.abs(bi)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _kernels.cdiv_wide_real(np.where(wide, ar, ai), np.where(wide, ai, ar),
                                       np.where(wide, br, bi), np.where(wide, bi, br))


def tie_margin(dr, di):
    """Elementwise :func:`_kernels.tie_margin`."""
    return np.where(dr != 0.0, np.abs(dr), np.abs(di))


def at_least_zero(values):
    """Lanes where every ``(re, im)`` pair of ``values`` is >= 0."""
    (vr, vi), *rest = values
    inside = _kernels.at_least(vr, vi, 0.0, 0.0)
    for vr, vi in rest:
        inside &= _kernels.at_least(vr, vi, 0.0, 0.0)
    return inside


def decide_real(reals):
    """The decision of :func:`at_least_zero` where the real parts settle it.

    Returns ``(inside, undecided)``: ``inside`` marks the lanes where
    every real part is > 0, and ``undecided`` those where some real part
    is 0 or nan, so that only the imaginary parts or a pole mask can
    decide.  Every other lane has a real part < 0 and is out.
    """
    inside = undecided = None
    for vr in reals:
        positive = vr > 0.0
        tied = ~(positive | (vr < 0.0))
        inside = positive if inside is None else np.logical_and(inside, positive, out=inside)
        undecided = tied if undecided is None else np.logical_or(undecided, tied, out=undecided)
    return inside, undecided


def codes(inside, pole, out=None):
    """uint8 membership codes: IN where ``inside``, OUT elsewhere.

    Lanes set in ``pole`` (None when no lane can be a pole) become POLE.
    Like a numpy ufunc, writes into ``out`` when given, else into a new
    array, and returns it.
    """
    # OUT is 0, so a True lane times IN is IN and a False lane OUT
    out = np.multiply(inside.view(np.uint8), IN, out=out)
    if pole is not None:
        out[pole] = POLE
    return out


def margins(values, pole):
    """Smallest tie margin over the ``(re, im)`` pairs of ``values``.

    Infinite where ``pole`` is set (None when no lane can be a pole).
    The pairs are taken one at a time, so an iterator of them need hold
    only one pair's arrays at once.
    """
    result = None
    for vr, vi in values:
        margin = tie_margin(vr, vi)
        result = margin if result is None else np.minimum(result, margin, out=result)
    if pole is not None:
        result[pole] = np.inf
    return result
