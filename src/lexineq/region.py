"""Regions as transform chains over a base half-plane.

A :class:`Region` is the set obtained by applying a finite chain of set
transforms (rotate, scale, translate, invert, sqrt) to the base
half-plane ``{Z : Z >= anchor}`` of the dictionary order.  Membership is
decided by *pullback*: the chain is peeled outermost-first and the probe
point is replaced by the preimage each transform demands, until the base
half-plane decides.  This is uniform in all parameter signs, unlike the
closed-form case analyses, which are kept only for classification and
as independent cross-checks in the tests.
"""

from __future__ import annotations

import functools
import math
from enum import IntEnum
from typing import TYPE_CHECKING, Union

from . import _kernels
from ._record import record
from .errors import NonPositiveScaleError
from .lexorder import require_finite

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Membership",
    "Rotate",
    "Scale",
    "Translate",
    "Invert",
    "Sqrt",
    "Transform",
    "Region",
    "contains",
    "membership_grid",
    "apply_transform",
    "classify",
    "principal_angle",
    "VerticalHalfPlane",
    "ObliqueHalfPlane",
    "Disc",
    "HyperbolaDomain",
    "Generic",
    "RegionClassification",
]


class Membership(IntEnum):
    """Pointwise truth of a region or inequality at a probe point.

    ``POLE`` marks points where evaluation hits a division by zero.
    The integer values double as raster cell codes.
    """

    OUT = _kernels.OUT
    POLE = _kernels.POLE
    IN = _kernels.IN


def principal_angle(theta: float) -> float:
    """Reduce an angle to the principal branch (-pi, pi]."""
    if not math.isfinite(theta):
        raise ValueError(f"angle must be finite, got {theta!r}")
    if -math.pi < theta <= math.pi:
        return theta
    r = math.remainder(theta, math.tau)
    if r <= -math.pi:
        r += math.tau
    return r


@record
class Rotate:
    """Rotation about the origin; stored angle is reduced to (-pi, pi]."""

    theta: float

    def __post_init__(self):
        object.__setattr__(self, "theta", principal_angle(self.theta))


@record
class Scale:
    """Dilation about the origin by a strictly positive factor."""

    r: float

    def __post_init__(self):
        if not (math.isfinite(self.r) and self.r > 0.0):
            raise NonPositiveScaleError(f"scale factor must be finite and > 0, got {self.r!r}")


@record
class Translate:
    offset: complex

    def __post_init__(self):
        require_finite(self.offset, "translation offset")


@record
class Invert:
    pass


@record
class Sqrt:
    pass


Transform = Union[Rotate, Scale, Translate, Invert, Sqrt]

_KIND_CODE = {Rotate: _kernels.KIND_ROTATE, Scale: _kernels.KIND_SCALE,
              Translate: _kernels.KIND_TRANSLATE, Invert: _kernels.KIND_INVERT,
              Sqrt: _kernels.KIND_SQRT}


@record
class Region:
    """Transform chain over a base half-plane.

    ``transforms`` is ordered outermost-last: the region value is
    ``t_n(... t_1(base half-plane) ...)``.  An empty chain is the base
    half-plane itself.  Regions are immutable.
    """

    base: complex
    transforms: tuple[Transform, ...] = ()

    def __post_init__(self):
        require_finite(self.base, "base anchor")
        object.__setattr__(self, "transforms", tuple(self.transforms))
        for t in self.transforms:
            if not isinstance(t, (Rotate, Scale, Translate, Invert, Sqrt)):
                raise TypeError(f"not a transform: {t!r}")


@functools.lru_cache(maxsize=512)
def _encode(region: Region):
    """Pack a region into the flat tuples the kernels consume.

    Returns ``(a1, a2, kinds, pa, pb)``: the base anchor's coordinates,
    then one transform kind code (a Python int) and two parameters
    (Python floats) per step.  Plain tuples keep the scalar path free
    of numpy; the grid path broadcasts the same floats over its arrays.
    Rotation angles are expanded to (cos, sin) once here, so every
    evaluation path sees the same trigonometric values.
    """
    kinds = []
    pa = []
    pb = []
    for t in region.transforms:
        a = b = 0.0
        if isinstance(t, Rotate):
            a, b = math.cos(t.theta), math.sin(t.theta)
        elif isinstance(t, Scale):
            a = float(t.r)
        elif isinstance(t, Translate):
            a, b = float(t.offset.real), float(t.offset.imag)
        kinds.append(_KIND_CODE[type(t)])
        pa.append(a)
        pb.append(b)
    return region.base.real, region.base.imag, tuple(kinds), tuple(pa), tuple(pb)


def contains(region: Region, w: complex) -> Membership:
    """Decide membership of a single probe point by pullback."""
    require_finite(w, "probe point")
    a1, a2, kinds, pa, pb = _encode(region)
    return Membership(_kernels.chain_membership(a1, a2, kinds, pa, pb, w.real, w.imag))


def membership_grid(region: Region, zr: np.ndarray, zi: np.ndarray) -> np.ndarray:
    """Vectorized :func:`contains` over flat coordinate arrays.

    Returns uint8 codes (see :class:`Membership`), bit-identical to the
    scalar path.
    """
    import numpy as np

    from . import _grid

    a1, a2, kinds, pa, pb = _encode(region)
    zr = np.ascontiguousarray(zr, dtype=np.float64)
    zi = np.ascontiguousarray(zi, dtype=np.float64)
    wr, wi, pole = _grid.pull_back(kinds, pa, pb, zr, zi)
    return _grid.codes(_kernels.at_least(wr, wi, a1, a2), pole)


def apply_transform(region: Region, transform: Transform) -> Region:
    """Append ``transform`` as the new outermost step of the chain."""
    return Region(region.base, region.transforms + (transform,))


@record
class VerticalHalfPlane:
    boundary_re: float
    boundary_note: str


@record
class ObliqueHalfPlane:
    """Half-plane with boundary normal at ``normal_angle`` and offset
    ``offset`` along it (boundary line: z . (cos, sin) = offset)."""

    normal_angle: float
    offset: float
    boundary_note: str


@record
class Disc:
    center: complex
    radius: float
    boundary_note: str


@record
class HyperbolaDomain:
    a1: float
    connected: bool
    contains_origin: bool
    boundary_note: str


@record
class Generic:
    boundary_note: str


RegionClassification = Union[VerticalHalfPlane, ObliqueHalfPlane, Disc, HyperbolaDomain, Generic]


def classify(region: Region) -> RegionClassification:
    """Describe the region's shape when the chain matches a known pattern.

    Classification is a description layer only; it never changes
    membership.  Patterns:

    * bare base -> vertical half-plane;
    * single rotation over the base -> oblique half-plane;
    * inversion over a base with positive real anchor, optionally
      followed by rotate/scale/translate steps -> disc (the image
      circle is pushed through the outer steps);
    * sqrt over the base, optionally followed by rotate/translate ->
      hyperbola-bounded domain;
    * anything else -> generic.
    """
    chain = region.transforms
    a1 = region.base.real
    a2 = region.base.imag
    if not chain:
        return VerticalHalfPlane(
            boundary_re=a1,
            boundary_note=(
                f"open half-plane re > {a1!r}; on the boundary line only the "
                f"closed half-line with im >= {a2!r} is included"
            ),
        )
    if len(chain) == 1 and isinstance(chain[0], Rotate):
        theta = chain[0].theta
        return ObliqueHalfPlane(
            normal_angle=theta,
            offset=a1,
            boundary_note=(
                "open half-plane u > offset in the rotated frame (u the coordinate "
                f"along the normal); on the boundary line only the half-line with "
                f"tangential coordinate >= {a2!r} is included"
            ),
        )
    if isinstance(chain[0], Invert) and a1 > 0.0 and all(
        isinstance(t, (Rotate, Scale, Translate)) for t in chain[1:]
    ):
        center = complex(1.0 / (2.0 * a1), 0.0)
        radius = 1.0 / (2.0 * a1)
        for t in chain[1:]:
            if isinstance(t, Rotate):
                center = center * complex(math.cos(t.theta), math.sin(t.theta))
            elif isinstance(t, Scale):
                center = center * t.r
                radius = radius * t.r
            else:
                center = center + t.offset
        return Disc(
            center=center,
            radius=radius,
            boundary_note=(
                "open disc; of the boundary circle only a closed arc belongs to the "
                "set, and the image of the inversion pole never does"
            ),
        )
    if isinstance(chain[0], Sqrt) and all(isinstance(t, (Rotate, Translate)) for t in chain[1:]):
        origin_in = contains(region, 0j) is Membership.IN
        return HyperbolaDomain(
            a1=a1,
            connected=a1 <= 0.0,
            contains_origin=origin_in,
            boundary_note=(
                f"open region where x^2 - y^2 > {a1!r} in pre-transform coordinates; "
                f"on the hyperbola itself only points with 2xy >= {a2!r} are included"
            ),
        )
    return Generic(boundary_note="membership is defined by the transform chain; no closed-form shape")
