"""Regions as transform chains over a base half-plane.

A :class:`Region` is the set obtained by applying a finite chain of set
transforms (rotate, scale, translate, invert, sqrt) to the base
half-plane ``{Z : Z >= anchor}`` of the dictionary order.  Membership is
decided by *pullback*: the chain is peeled outermost-first and the probe
point is replaced by the preimage each transform demands, until the base
half-plane decides.  This is uniform in all parameter signs, unlike the
closed-form case analyses, which are kept only for classification and
as independent cross-checks in the tests.

On the grid a region is a constraint: its value, the pulled-back probe
minus the base anchor, is >= 0 in the region (TermMoving, bit for bit).
``solver`` decides it as ``oracle`` decides a problem's, real part first.

Membership answers are :class:`lexineq.lexorder.Membership`, re-exported
here.
"""

from __future__ import annotations

import math

from . import _kernels
from ._record import record
from .errors import NonPositiveScaleError, PoleError
from .lexorder import Membership, require_finite

TYPE_CHECKING = False  # type checkers read it as True; saves importing typing
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
    "pull_back",
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


def _finite(x: float, what: str) -> bool:
    """``math.isfinite(x)``, with a ValueError for an int beyond the float range."""
    try:
        return math.isfinite(x)
    except OverflowError:
        raise ValueError(f"{what} lies outside the float range") from None


def principal_angle(theta: float) -> float:
    """Reduce an angle to the principal branch (-pi, pi]."""
    if not _finite(theta, "angle"):
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
        if not (_finite(self.r, "scale factor") and self.r > 0.0):
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


Transform = Rotate | Scale | Translate | Invert | Sqrt


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


def pull_back(region: Region, wr, wi, invert):
    """Walk the region's chain outermost-first, pulling the probe back.

    Each step replaces the probe by the preimage that the corresponding
    set transform demands: rotation divides out the phase, dilation
    divides the factor, translation subtracts the offset, inversion
    takes the reciprocal, radication squares.  Only ``+ - * /`` touch
    the probe, so the walk runs unchanged on Python floats and on
    float64 arrays.  ``invert(wr, wi)`` is the reciprocal; it also owns
    the pole at 0, which the scalar path raises and the grid path
    records in a mask.
    """
    for t in reversed(region.transforms):
        if isinstance(t, Rotate):
            wr, wi = _kernels.unrotate(wr, wi, math.cos(t.theta), math.sin(t.theta))
        elif isinstance(t, Scale):
            wr = wr / t.r
            wi = wi / t.r
        elif isinstance(t, Translate):
            wr = wr - t.offset.real
            wi = wi - t.offset.imag
        elif isinstance(t, Invert):
            wr, wi = invert(wr, wi)
        else:
            wr, wi = _kernels.csq(wr, wi)
    return wr, wi


def _invert_point(wr, wi):
    if wr == 0.0 and wi == 0.0:
        raise PoleError("pullback reached the pole of an inversion")
    return _kernels.cdiv(1.0, 0.0, wr, wi)


def contains(region: Region, w: complex) -> Membership:
    """Decide membership of a single probe point by pullback."""
    require_finite(w, "probe point")
    try:
        wr, wi = pull_back(region, w.real, w.imag, _invert_point)
    except PoleError:
        return Membership.POLE
    if _kernels.at_least(wr, wi, region.base.real, region.base.imag):
        return Membership.IN
    return Membership.OUT


def _value_lanes(region: Region, zr: np.ndarray, zi: np.ndarray):
    """The region as a constraint on float64 lanes: ``((wr - a1, wi - a2), pole)``.

    ``(wr, wi)`` is :func:`pull_back` of each lane, ``a1 + a2*i`` the base
    anchor: floats subtract to 0 only when equal, and to a signed inf on
    overflow, so the value is >= 0 exactly where ``contains`` says IN.
    ``pole`` marks the lanes at an inversion's pole; None if none inverts.
    All three are new arrays in the shape of the lanes that zr and zi
    broadcast to, also where the chain never mixes the coordinates.
    """
    import numpy as np

    from . import _grid

    shape = np.broadcast_shapes(zr.shape, zi.shape)
    pole = None
    if any(isinstance(t, Invert) for t in region.transforms):
        pole = np.zeros(shape, dtype=bool)

    def invert(wr, wi):
        pole[(wr == 0.0) & (wi == 0.0)] = True
        return _grid.cdiv(1.0, 0.0, wr, wi)

    def minus(w, a):  # into the chain's own array where it made one of every lane
        own = region.transforms and w.shape == shape
        return np.subtract(w, a, out=w if own else np.empty(shape))

    wr, wi = pull_back(region, zr, zi, invert)
    with np.errstate(over="ignore"):
        return (minus(wr, region.base.real), minus(wi, region.base.imag)), pole


def membership_grid(region: Region, zr: np.ndarray, zi: np.ndarray) -> np.ndarray:
    """Vectorized :func:`contains` at the lanes zr + zi*i, shaped as in
    ``solver.solution_grid``: uint8 codes (see :class:`Membership`),
    bit-identical to the scalar path, those of the one-region solution.
    """
    from .solver import SolutionSet, solution_grid

    return solution_grid(SolutionSet.single(region), zr, zi)


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


RegionClassification = VerticalHalfPlane | ObliqueHalfPlane | Disc | HyperbolaDomain | Generic


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
