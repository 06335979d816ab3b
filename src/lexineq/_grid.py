"""Grid evaluation: ``_kernels``' own arithmetic run on float64 arrays.

The helpers in ``_kernels`` that do only ``+ - * /`` run unchanged on
arrays, so this module adds only what arrays need: Smith's branch chosen
lane by lane with ``np.where`` (:func:`cdiv`, and :func:`cdiv_real` for
the real part alone), pole lanes kept in a mask, and one decision of the
dictionary order on computed values, :func:`decide`, on lanes given flat
or as rows and columns that broadcast to them.  Problems (``oracle``),
regions and solutions (``solver``) all reach it alike: one value per
constraint, a problem's left-hand sides or regions' pulled-back probes
minus their anchors, is >= 0 on a lane that is in.  The real parts
decide first, by one rule, :func:`decide_real`, that runs unchanged on
lanes and on :class:`Box` bounds of a raster's blocks; only on the lanes
it leaves open are the full values and the pole mask computed.  Codes
come for every lane, tie margins only for the callers that read them.
Results are bit-identical to the scalar path.  Complex dtype is
deliberately avoided: numpy's own complex division rounds differently
from the shared Smith helper.
"""

from __future__ import annotations

import functools

import numpy as np

from . import _kernels
from ._kernels import IN, POLE
from ._record import record


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
    """Elementwise Re(a / b): both Smith branches' real parts
    (:func:`_kernels.cdiv_wide_real`), one selected per lane as in
    :func:`cdiv`, whose real part it is wherever that is not nan.
    Zero-b lanes come out as nan."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.abs(br) >= np.abs(bi), _kernels.cdiv_wide_real(ar, ai, br, bi),
                        _kernels.cdiv_wide_real(ai, ar, bi, br))


@record(eq=False)
class Box:
    """Bounds ``[lo, hi]`` of a computed float64 value: arrays, one range per block.

    ``_kernels``' own trees run on Boxes and floats and bound every lane
    of a block: each rounded ``+ - * /`` is monotone in each operand, so
    its result lies between its values at the ends of its operands'
    ranges.  A quotient by a range that holds 0 is nan, and ``w * w`` of
    one Box is a square, bounded from the range of ``|w|``.  A nan lane
    (inf - inf, 0 * inf, inf / inf) has an operand at an infinity, so
    its bounds come out infinite or nan: only finite bounds bound it.

    So a Box compares with a float as "surely", its bounds finite:
    ``box > 0.0`` where ``lo > 0``, ``box < 0.0`` where ``hi < 0``.  On a
    block that holds a fraction's pole, whose lane's real part is nan,
    the divisor's range holds 0 and the bounds are nan.
    """

    lo: np.ndarray
    hi: np.ndarray

    def __gt__(self, other):
        return (self.lo > other) & (self.hi < np.inf)

    def __lt__(self, other):
        return (self.hi < other) & (self.lo > -np.inf)

    def __add__(self, other):
        lo, hi = _ends(other)
        return Box(self.lo + lo, self.hi + hi)

    def __sub__(self, other):
        lo, hi = _ends(other)
        return Box(self.lo - hi, self.hi - lo)

    def __mul__(self, other):
        if other is self:
            m = abs(self)  # fl(v*v) grows with |v|
            return Box(m.lo * m.lo, m.hi * m.hi)
        if isinstance(other, Box):
            return _corners(np.multiply, self, other)
        lo, hi = self.lo * other, self.hi * other
        return Box(lo, hi) if other >= 0.0 else Box(hi, lo)  # ends in the sign's order

    __rmul__ = __mul__  # IEEE multiplication is commutative, bit for bit

    def __truediv__(self, other):
        q = _corners(np.divide, self, other)
        valid = (other.lo > 0.0) | (other.hi < 0.0)
        return Box(np.where(valid, q.lo, np.nan), np.where(valid, q.hi, np.nan))

    def __abs__(self):
        lo, hi = abs(self.lo), abs(self.hi)
        holds_0 = (self.lo <= 0.0) & (self.hi >= 0.0)
        return Box(np.where(holds_0, 0.0, np.minimum(lo, hi)), np.maximum(lo, hi))


def _ends(v):  # (lo, hi) of a Box, (v, v) of a float
    return (v.lo, v.hi) if isinstance(v, Box) else (v, v)


def _corners(op, a, b):
    """The Box of ``op(x, y)`` for x in ``a`` and y in ``b``: the least and
    greatest of its four corner values (nan if one is)."""
    v = [op(x, y) for x in (a.lo, a.hi) for y in (b.lo, b.hi)]
    return Box(np.minimum(np.minimum(v[0], v[1]), np.minimum(v[2], v[3])),
               np.maximum(np.maximum(v[0], v[1]), np.maximum(v[2], v[3])))


def box_cdiv_real(ar, ai, br, bi):
    """The Box of :func:`cdiv_real` over Boxes of its operands: the union
    of its branches' (:func:`_kernels.cdiv_wide_real`), each where some
    lane of the block may take it."""
    mr, mi = abs(br), abs(bi)
    wide = _kernels.cdiv_wide_real(ar, ai, br, bi)
    tall = _kernels.cdiv_wide_real(ai, ar, bi, br)
    may_wide, may_tall = mr.hi >= mi.lo, ~(mr.lo >= mi.hi)  # nan bounds take the tall one
    lo = np.minimum(np.where(may_wide, wide.lo, np.inf), np.where(may_tall, tall.lo, np.inf))
    hi = np.maximum(np.where(may_wide, wide.hi, -np.inf), np.where(may_tall, tall.hi, -np.inf))
    return Box(lo, hi)


def decide_real(reals):
    """The decision of the dictionary order where the real parts settle
    it, on float64 lanes and on :class:`Box` bounds of blocks alike.

    Returns ``(inside, undecided)``: ``inside`` where every real part is
    > 0, else out where some is < 0 and none is nan (a pole's is, as is
    the ``lo`` of a Box over one), else ``undecided``: only the imaginary
    parts or a pole mask can decide.  A Box compares as "surely", so a
    block is decided only where each of its lanes is, the same way.
    """
    inside, outside = reals[0] > 0.0, reals[0] < 0.0
    for vr in reals[1:]:
        inside &= vr > 0.0
        outside |= vr < 0.0
    undecided = np.equal(inside, outside, out=outside)  # they never both hold
    if len(reals) > 1:  # a lone nan is neither > 0 nor < 0 already
        for vr in reals:
            undecided |= np.isnan(_ends(vr)[0])
    return inside, undecided


def decide(reals, values, zr, zi, out=None, margins=False):
    """Membership codes of the float64 lanes zr + zi*i, and with ``margins``
    their tie margins (:func:`_kernels.tie_margin`, the least over the
    constraints): ``(out, margins or None)``.

    ``reals`` holds each constraint's real part on every lane, nan at a
    pole; passed straight into the call, they are freed before the open
    lanes are evaluated.  They decide the lanes :func:`decide_real` settles,
    with ``margins`` only those where none is 0: there each is finite and
    nonzero, so the margin is the least |Re|.  ``zr`` and ``zi`` broadcast
    to the lanes; ``values(zr, zi)`` gives each constraint's ``(re, im)``
    value and the pole mask (None when no lane can be a pole) on the open
    lanes only, gathered flat, or on all lanes when all are open; a pole
    lane's code is POLE and its margin inf.  The codes go to ``out`` (as
    many cells, of any shape, row-major) when given, else to a new array.
    """
    inside, undecided = decide_real(reals)
    if out is None:
        out = np.empty(inside.shape, dtype=np.uint8)
    # OUT is 0, so a True lane times IN is IN and a False lane OUT
    np.multiply(inside.reshape(out.shape).view(np.uint8), IN, out=out)
    margin = functools.reduce(np.minimum, map(np.abs, reals)) if margins else None
    if margins:  # a real part of 0 beside one < 0 settles the code, not the margin
        undecided |= margin == 0.0
    del reals, inside
    idx = np.flatnonzero(undecided)
    if idx.size:
        if idx.size == undecided.size:  # as in `0*Z >= 1i`: every lane, with no gather
            idx = slice(None)
        else:  # gathered from a view of flat lanes, from a copy of broadcast ones
            zr, zi = (np.broadcast_to(z, undecided.shape).reshape(-1)[idx] for z in (zr, zi))
        lanes, pole = values(zr, zi)
        inside = functools.reduce(np.logical_and, (_kernels.at_least(vr, vi, 0.0, 0.0)
                                                   for vr, vi in lanes))
        codes = np.multiply(inside.view(np.uint8), IN)
        if pole is not None:
            codes[pole] = POLE
        out.flat[idx] = codes
        if margins:
            tie = functools.reduce(np.minimum, (np.where(vr != 0.0, np.abs(vr), np.abs(vi))
                                                for vr, vi in lanes))
            if pole is not None:
                tie[pole] = np.inf
            margin.flat[idx] = tie
    return out, margin
