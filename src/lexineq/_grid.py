"""Grid evaluation: ``_kernels``' own arithmetic run on flat float64 arrays.

The helpers in ``_kernels`` that do only ``+ - * /`` run unchanged on
arrays, so this module adds only what arrays need: Smith's branch chosen
lane by lane with ``np.where``, pole lanes kept in a mask, and values
turned into membership codes and margins.  Results are bit-identical to
the scalar path.  Complex dtype is deliberately avoided: numpy's own
complex division rounds differently from the shared Smith helper.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from ._kernels import IN, OUT, POLE


def cdiv(ar, ai, br, bi):
    """Elementwise a / b: both Smith branches, one selected per lane.

    Zero-b lanes come out as nan for the caller to mask.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        wide = np.abs(br) >= np.abs(bi)
        wr, wi = _kernels.cdiv_wide(ar, ai, br, bi)
        tr, ti = _kernels.cdiv_tall(ar, ai, br, bi)
    return np.where(wide, wr, tr), np.where(wide, wi, ti)


def tie_margin(dr, di):
    """Elementwise :func:`_kernels.tie_margin`."""
    return np.where(dr != 0.0, np.abs(dr), np.abs(di))


def _finish(inside, margins, pole):
    codes = np.where(inside, IN, OUT).astype(np.uint8)
    codes[pole] = POLE
    margins[pole] = np.inf
    return codes, margins


def codes_margins(values, pole):
    """Codes and margins of the conjunction "every value >= 0".

    ``values`` holds one ``(re, im)`` pair of arrays per constraint; the
    margin is the smallest tie margin over them.  Lanes set in ``pole``
    become POLE with an infinite margin.
    """
    (vr, vi), *rest = values
    inside = _kernels.at_least(vr, vi, 0.0, 0.0)
    margins = tie_margin(vr, vi)
    for vr, vi in rest:
        inside &= _kernels.at_least(vr, vi, 0.0, 0.0)
        margins = np.minimum(margins, tie_margin(vr, vi))
    return _finish(inside, margins, pole)


def region_grid(a1, a2, kinds, pa, pb, zr, zi):
    """Codes and margins of an encoded region at every lane.

    The margin is the tie margin of the pulled-back probe against the
    base anchor; lanes that hit an inversion's pole are POLE.
    """
    pole = np.zeros(zr.shape, dtype=bool)

    def invert(wr, wi):
        pole[(wr == 0.0) & (wi == 0.0)] = True
        return cdiv(1.0, 0.0, wr, wi)

    wr, wi = _kernels.pull_back(kinds, pa, pb, zr, zi, invert)
    return _finish(_kernels.at_least(wr, wi, a1, a2), tie_margin(wr - a1, wi - a2), pole)
