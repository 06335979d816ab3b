"""Brute-force ground truth for the solvers.

``eval_direct`` evaluates an inequality's left-hand expression at a
point with the plain-float complex arithmetic of ``_kernels`` and
compares against zero in dictionary order; :func:`problem_grid` runs the
same evaluation on arrays.  It knows nothing about regions or solution chains,
so any solver bug shows up as a disagreement when :func:`verify` sweeps
a grid and compares both answers pointwise.

Probes too close to the order's decision boundary are excluded by a
margin test rather than asserted: two different but mathematically
equivalent float computations may legitimately round to different sides
there.

numpy is imported by the array functions only (grid axes, points and
tiles, :class:`Bitmap` writers, :func:`problem_grid`, :func:`verify`,
:func:`sample_raster`), so :func:`eval_direct`, :func:`boundary_margin`
and the scalar commands built on them start without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, NamedTuple, Union

from . import _kernels
from .errors import PoleError
from .lexorder import require_finite
from .region import Membership, Region, membership_grid
from .solver import (
    Fractional,
    InequalityProblem,
    Linear,
    LinearSystem,
    Quadratic,
    SolutionSet,
    solution_grid_margin,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "DEFAULT_EPS",
    "MAX_CELLS",
    "GridSpec",
    "Bitmap",
    "Mismatch",
    "VerificationReport",
    "default_grid",
    "eval_direct",
    "boundary_margin",
    "problem_grid",
    "verify",
    "sample_raster",
]

DEFAULT_EPS = 1e-6

# Largest grid accepted, in cells.  Evaluation needs one tile of float64
# temporaries plus one byte per cell, but the PGM and CSV writers build
# the whole file text as one string (2 and about 20-50 bytes per cell),
# so the cap keeps a CSV under a gigabyte.
MAX_CELLS = 1 << 24

# Grid points evaluated at once.  Each tile's float64 temporaries (a dozen
# or so arrays of this length) then stay in the L2 cache; 16384 points is
# about 128 KiB per array.
_TILE_POINTS = 16384


@dataclass(frozen=True)
class GridSpec:
    """Rectangular probe window with per-axis sample counts."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float
    nx: int
    ny: int

    def __post_init__(self):
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise ValueError("window bounds must satisfy re_min < re_max and im_min < im_max")
        if self.nx < 2 or self.ny < 2:
            raise ValueError("sample counts must be >= 2")
        if self.nx * self.ny > MAX_CELLS:
            raise ValueError(f"grid of {self.nx} x {self.ny} points exceeds the cap of "
                             f"{MAX_CELLS} cells")

    def re_axis(self) -> np.ndarray:
        return _axis(self.re_min, self.re_max, self.nx)

    def im_axis(self) -> np.ndarray:
        return _axis(self.im_min, self.im_max, self.ny)

    def points(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat coordinate arrays, row-major: imaginary axis outer, real inner."""
        import numpy as np

        re = self.re_axis()
        im = self.im_axis()
        zr = np.tile(re, self.ny)
        zi = np.repeat(im, self.nx)
        return zr, zi

    def tiles(self) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """The points of :meth:`points` in blocks of whole rows.

        Yields ``(start, zr, zi)``, where ``start`` is the flat index of
        the block's first point; concatenated in order, the blocks equal
        :meth:`points` bit for bit.
        """
        import numpy as np

        re = self.re_axis()
        im = self.im_axis()
        rows = max(1, _TILE_POINTS // self.nx)
        for r0 in range(0, self.ny, rows):
            block = im[r0:r0 + rows]
            yield r0 * self.nx, np.tile(re, block.shape[0]), np.repeat(block, self.nx)

    @property
    def cell_diagonal(self) -> float:
        dx = (self.re_max - self.re_min) / (self.nx - 1)
        dy = (self.im_max - self.im_min) / (self.ny - 1)
        return math.hypot(dx, dy)


def _axis(lo: float, hi: float, n: int) -> np.ndarray:
    """Endpoint-inclusive axis by exact interpolation.

    ``lo*(1-t) + hi*t`` with t = i/(n-1) makes the endpoints exact and,
    for a symmetric window with an odd count, puts 0.0 exactly on the
    grid (t = 0.5 is an exact binary value).  ``linspace`` does not
    guarantee that.
    """
    import numpy as np

    t = np.arange(n, dtype=np.float64) / (n - 1)
    return lo * (1.0 - t) + hi * t


def default_grid() -> GridSpec:
    """The default verification window: [-5, 5]^2 at 201 x 201."""
    return GridSpec(-5.0, 5.0, -5.0, 5.0, 201, 201)


@dataclass(frozen=True, eq=False)
class Bitmap:
    """Membership raster; ``cells`` is row-major uint8 of length nx*ny.

    Row i holds the points with the i-th imaginary coordinate
    (ascending), columns run along the real axis.
    """

    grid: GridSpec
    cells: np.ndarray

    def __post_init__(self):
        if self.cells.shape != (self.grid.nx * self.grid.ny,):
            raise ValueError("cells length must equal nx*ny")

    def to_pgm(self) -> str:
        """Plain portable graymap: header P2, values 0=Out, 1=Pole, 2=In.

        Rows are written top-down (largest imaginary coordinate first)
        so viewers show the plane with the usual orientation.
        """
        import numpy as np

        g = self.grid
        # one byte per digit and one per separator: a space, or a newline
        # after the last digit of a row
        buf = np.full((g.ny, 2 * g.nx), ord(" "), dtype=np.uint8)
        buf[:, 0::2] = self.cells.reshape(g.ny, g.nx)[::-1] + ord("0")
        buf[:, -1] = ord("\n")
        return f"P2\n{g.nx} {g.ny}\n2\n" + buf.tobytes().decode("ascii")

    def to_csv(self) -> str:
        """CSV with columns re,im,state; states are in/out/pole."""
        import numpy as np

        g = self.grid
        re_text = [repr(x) for x in g.re_axis().tolist()]
        states = ("out\n", "pole\n", "in\n")  # indexed by code: OUT, POLE, IN = 0, 1, 2
        # A row is re_0 + mid + (state_0 + re_1) + mid + ... + mid + state_last,
        # with mid = ",im,": the middle pieces take 3 * (nx - 1) values.
        joints = np.array([[s + r for r in re_text[1:]] for s in states], dtype=object)
        cols = np.arange(g.nx - 1)
        head = re_text[0]
        rows = self.cells.reshape(g.ny, g.nx)
        lines = ["re,im,state\n"]
        for y, codes in zip(g.im_axis().tolist(), rows):
            pieces = [head, *joints[codes[:-1], cols].tolist(), states[codes[-1]]]
            lines.append(f",{y!r},".join(pieces))
        return "".join(lines)


class Mismatch(NamedTuple):
    point: complex
    expected: Membership  # direct evaluation
    got: Membership       # region/solution membership


@dataclass(frozen=True)
class VerificationReport:
    total: int
    skipped_boundary: int
    skipped_pole: int
    mismatches: tuple[Mismatch, ...]
    passed: bool

    @property
    def asserted(self) -> int:
        """Probes whose membership was compared: neither boundary nor pole."""
        return self.total - self.skipped_boundary - self.skipped_pole


def _parts(*coefficients: complex) -> list[float]:
    return [x for c in coefficients for x in (c.real, c.imag)]


def _constraint_values(problem: InequalityProblem, zr, zi, div) -> tuple:
    """Left-hand value(s) ``(re, im)`` of the inequality at z = zr + zi*i.

    Runs unchanged on floats and on float64 arrays, with ``div`` the
    matching complex division (``_kernels.cdiv`` or ``_grid.cdiv``); the
    caller handles the fraction's pole.  Consults only complex
    arithmetic, never the region or solver machinery.
    """
    if isinstance(problem, Linear):
        return (_kernels.linear_value(*_parts(problem.a, problem.b), zr, zi),)
    if isinstance(problem, LinearSystem):
        return (_kernels.linear_value(*_parts(problem.a, problem.b), zr, zi),
                _kernels.linear_value(*_parts(problem.c, problem.d), zr, zi))
    if isinstance(problem, Fractional):
        parts = _parts(problem.a, problem.b, problem.c, problem.d)
        return (_kernels.fractional_value(*parts, zr, zi, div),)
    if isinstance(problem, Quadratic):
        return (_kernels.quadratic_value(*_parts(problem.a, problem.b, problem.c), zr, zi),)
    raise TypeError(f"not an inequality problem: {problem!r}")


def _values(problem: InequalityProblem, z: complex) -> tuple[complex, ...]:
    """Left-hand value(s) of the inequality at z; PoleError at a pole."""
    if isinstance(problem, Fractional) and z + problem.c == 0:
        raise PoleError(f"pole of the fraction at z = {z!r}")
    values = _constraint_values(problem, z.real, z.imag, _kernels.cdiv)
    return tuple(complex(vr, vi) for vr, vi in values)


def eval_direct(problem: InequalityProblem, z: complex) -> Membership:
    """Definitional membership: evaluate the expression, compare with 0.

    Consults only complex arithmetic and the dictionary order; never the
    region or solver machinery.
    """
    require_finite(z, "probe point")
    try:
        values = _values(problem, z)
    except PoleError:
        return Membership.POLE
    for v in values:
        if not _kernels.at_least(v.real, v.imag, 0.0, 0.0):
            return Membership.OUT
    return Membership.IN


def boundary_margin(problem: InequalityProblem, z: complex) -> float:
    """Margin of the component that decides the comparison with 0.

    |Re v| unless Re v is exactly 0, else |Im v| (the tie margin); for a
    system, the smallest margin over both constraints.  This is the
    margin :func:`problem_grid` reports and :func:`verify` skips on.
    Raises PoleError at a pole.
    """
    require_finite(z, "probe point")
    return min(_kernels.tie_margin(v.real, v.imag) for v in _values(problem, z))


def problem_grid(problem: InequalityProblem, zr: np.ndarray,
                 zi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized direct evaluation: (membership codes, margins).

    Evaluates the same constraint values as :func:`eval_direct` on
    arrays, bit for bit.  The margins are :func:`boundary_margin` at
    each probe, and infinite at a pole.  A sub-ulp real residue thus
    reports a tiny margin, marking the decision as resting on rounding
    noise; :func:`verify` skips such probes.
    """
    import numpy as np

    from . import _grid

    zr = np.ascontiguousarray(zr, dtype=np.float64)
    zi = np.ascontiguousarray(zi, dtype=np.float64)
    values = _constraint_values(problem, zr, zi, _grid.cdiv)
    if isinstance(problem, Fractional):
        pole = (zr + problem.c.real == 0.0) & (zi + problem.c.imag == 0.0)
    else:
        pole = np.zeros(zr.shape, dtype=bool)
    return _grid.codes_margins(values, pole)


def verify(problem: InequalityProblem, solution: SolutionSet,
           grid: GridSpec | None = None, eps: float = DEFAULT_EPS) -> VerificationReport:
    """Sweep a grid and compare direct evaluation against the solution.

    Pole probes are counted separately and must agree on being poles.
    A probe is skipped as boundary when *either* side's deciding
    component sits within eps of its decision boundary: the two sides
    compute the same mathematical quantity along different float paths,
    and on an exact tie of one path the other may legitimately carry a
    last-ulp residue of either sign.  Every other probe must match
    exactly; mismatches are reported in grid order.  The grid is swept
    one tile of :meth:`GridSpec.tiles` at a time.
    """
    import numpy as np

    if grid is None:
        grid = default_grid()
    if not (eps > 0.0):
        raise ValueError("eps must be positive")
    skipped_boundary = skipped_pole = 0
    mismatches = []
    for _, zr, zi in grid.tiles():
        direct, margins_direct = problem_grid(problem, zr, zi)
        got, margins_solution = solution_grid_margin(solution, zr, zi)
        margins = np.minimum(margins_direct, margins_solution)

        pole = direct == _kernels.POLE
        boundary = ~pole & (margins < eps)
        active = ~pole & ~boundary
        bad = (active & (direct != got)) | (pole & (got != _kernels.POLE))

        skipped_boundary += int(np.count_nonzero(boundary))
        skipped_pole += int(np.count_nonzero(pole))
        mismatches.extend(
            Mismatch(complex(zr[i], zi[i]), Membership(int(direct[i])), Membership(int(got[i])))
            for i in np.nonzero(bad)[0]
        )
    return VerificationReport(
        total=grid.nx * grid.ny,
        skipped_boundary=skipped_boundary,
        skipped_pole=skipped_pole,
        mismatches=tuple(mismatches),
        passed=not mismatches,
    )


def sample_raster(source: Union[Region, InequalityProblem], grid: GridSpec) -> Bitmap:
    """Evaluate membership of a region or inequality at every grid point."""
    import numpy as np

    if isinstance(source, Region):
        def codes(zr, zi):
            return membership_grid(source, zr, zi)
    elif isinstance(source, (Linear, LinearSystem, Fractional, Quadratic)):
        def codes(zr, zi):
            return problem_grid(source, zr, zi)[0]
    else:
        raise TypeError(f"cannot rasterize {source!r}")
    cells = np.empty(grid.nx * grid.ny, dtype=np.uint8)
    for start, zr, zi in grid.tiles():
        cells[start:start + zr.shape[0]] = codes(zr, zi)
    return Bitmap(grid=grid, cells=cells)
