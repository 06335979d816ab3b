"""Brute-force ground truth for the solvers.

``eval_direct`` evaluates an inequality's left-hand expression at a
point with the plain-float complex arithmetic of ``_kernels`` and
compares against zero in dictionary order; :func:`problem_grid` runs the
same evaluation on arrays.  It knows nothing about regions or solution chains,
so any solver bug shows up as a disagreement when :func:`verify` sweeps
a grid and compares both answers pointwise.

:func:`verify` and :func:`sample_raster` walk a grid the same way, in
pieces of at most ``_TILE_POINTS`` columns (:func:`_pieces`), whole
rows of a piece at a time (:func:`_row_batches`), so that they hold no
array longer than a tile, whatever the grid.

Every array evaluation, of an inequality (a raster's, :func:`problem_grid`'s)
and of a region or solution (through ``solver``) alike, and so both sides
of :func:`verify`, decides on the same levels:

1. A raster of an inequality first settles whole blocks of cells from
   bounds of the computed real parts (:func:`_block_codes`): their own
   trees, run by :func:`_constraint_reals` on ``_grid.Box`` ranges of
   the block's coordinates, give the codes its cells would get lane by
   lane, bit for bit.  A nan or inf bound keeps a block open.
2. ``_grid.decide`` decides the other lanes, an open block's broadcast
   from its columns and rows, on the real parts (:func:`_decide_lanes`).
3. It computes the imaginary parts and the pole mask only on the few
   lanes where a real part is 0 or nan (every pole is one).

The bounds are those of the computed real part, not of the exact one.
Once ties are decided exactly (ROADMAP item 2), a block may be settled
only where ``lo`` exceeds the error bound of that computation, not 0.
``_grid.decide`` computes tie margins only for :func:`verify` and the
APIs that return them, :func:`problem_grid` and ``solver.solution_grid_margin``.
Probes too close to the order's decision boundary are excluded by that
margin rather than asserted: two different but mathematically equivalent
float computations may legitimately round to different sides there.

numpy is imported by the array functions only (grid axes, points and
tiles, :class:`Bitmap` writers, :func:`problem_grid`, :func:`verify`,
:func:`sample_raster`), so :func:`eval_direct`, :func:`boundary_margin`
and the scalar commands built on them start without it.  So are the
region algebra and the solver, which only :func:`verify` and a raster
of a ``Region`` use: ``lexineq check`` loads neither.
"""

from __future__ import annotations

import math

from . import _kernels
from ._record import record
from .errors import PoleError
from .lexorder import Membership, require_finite
from .normalize import Fractional, InequalityProblem, Linear, Quadratic, System

TYPE_CHECKING = False  # type checkers read it as True; saves importing typing
if TYPE_CHECKING:
    from collections.abc import Iterator

    import numpy as np

    from .region import Region
    from .solver import SolutionSet

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

# Largest grid accepted, in cells.  A raster needs one tile of float64
# temporaries plus one byte per cell (its code), whatever the row width;
# ``lexineq raster`` adds a PGM buffer of 2 bytes per cell, or one string
# per column while it writes a CSV piece by piece.  Only ``to_pgm`` and
# ``to_csv`` hold a whole file's text, a CSV's at about 20-50 bytes per
# cell, in its pieces and again joined: the cap keeps that under a gigabyte.
MAX_CELLS = 1 << 24

# Most grid points evaluated at once, whatever the row width: a row longer
# than this is split across tiles.  The size is measured, not derived.
# Each tile's float64 temporaries (a dozen or so arrays of this length)
# are 128 KiB each, where glibc malloc's default mmap and trim thresholds
# act, so a raster's tiles take a few hundred minor page faults in all;
# 8192 points take almost none but pay twice the per-tile numpy call
# overhead, and were no faster for rasters and slower for verify, and
# 32768 points fault on every tile and were slower for both.
_TILE_POINTS = 16384

# Side, in grid points, of the square blocks that a raster of an
# inequality settles whole from bounds (:func:`_block_codes`)
# before it evaluates any lane; the code of a block they leave open.
# Measured on the 1001 x 1001 rasters of the benchmark corpus: 12 was no
# faster, 8 was slower (four times the blocks to bound), and so was 32
# (twice the lanes gathered around the boundary).
_BLOCK = 16
_UNDECIDED = 255


@record
class GridSpec:
    """Rectangular probe window with per-axis sample counts."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float
    nx: int
    ny: int

    def __post_init__(self):
        bounds = (self.re_min, self.re_max, self.im_min, self.im_max)
        if not all(math.isfinite(b) for b in bounds):
            raise ValueError(f"window bounds must be finite, got {bounds}")
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise ValueError("window bounds must satisfy re_min < re_max and im_min < im_max")
        if self.nx < 2 or self.ny < 2:
            raise ValueError("sample counts must be >= 2")
        if self.nx * self.ny > MAX_CELLS:
            raise ValueError(f"grid of {self.nx} x {self.ny} points exceeds the cap of "
                             f"{MAX_CELLS} cells")

    def re_axis(self) -> np.ndarray:
        return _axis(self.re_min, self.re_max, self.nx, 0, self.nx)

    def im_axis(self) -> np.ndarray:
        return _axis(self.im_min, self.im_max, self.ny, 0, self.ny)

    def points(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat coordinate arrays, row-major: imaginary axis outer, real inner."""
        import numpy as np

        re = self.re_axis()
        im = self.im_axis()
        zr = np.tile(re, self.ny)
        zi = np.repeat(im, self.nx)
        return zr, zi

    def tiles(self) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """The points of :meth:`points` in blocks of at most ``_TILE_POINTS``.

        A block holds whole rows when a row fits in a tile, and part of
        one row otherwise.  Yields ``(start, zr, zi)``, where ``start``
        is the flat index of the block's first point; concatenated in
        order, the blocks equal :meth:`points` bit for bit.  The ``zr``
        arrays are read-only.
        """
        # a split row is a piece of its own, so the blocks come in grid order
        rows = 1 if self.nx > _TILE_POINTS else self.ny
        for r0, c0, xs, ys in _pieces(self, rows):
            for i, zr, zi in _row_batches(xs, ys):
                yield (r0 + i) * self.nx + c0, zr, zi

    @property
    def cell_diagonal(self) -> float:
        dx = (self.re_max - self.re_min) / (self.nx - 1)
        dy = (self.im_max - self.im_min) / (self.ny - 1)
        return math.hypot(dx, dy)


def _axis(lo: float, hi: float, n: int, start: int, stop: int) -> np.ndarray:
    """Points ``start:stop`` of an endpoint-inclusive axis of ``n`` points.

    Exact interpolation ``lo*(1-t) + hi*t`` with t = i/(n-1) makes the
    endpoints exact and, for a symmetric window with an odd count, puts
    0.0 exactly on the grid (t = 0.5 is an exact binary value).
    ``linspace`` does not guarantee that.  Each point depends on its own
    index only, so any slice of the axis can be computed alone.
    """
    import numpy as np

    t = np.arange(start, stop, dtype=np.float64) / (n - 1)
    return lo * (1.0 - t) + hi * t


def _pieces(grid: GridSpec, rows: int) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """Cut ``grid`` into pieces of ``rows`` rows and at most ``_TILE_POINTS``
    columns: ``(r0, c0, xs, ys)``, the first row and column and the axis
    values of each piece, row by row and, within a row, column by column."""
    cols = min(grid.nx, _TILE_POINTS)
    for r0 in range(0, grid.ny, rows):
        ys = _axis(grid.im_min, grid.im_max, grid.ny, r0, min(r0 + rows, grid.ny))
        for c0 in range(0, grid.nx, cols):
            yield r0, c0, _axis(grid.re_min, grid.re_max, grid.nx, c0, min(c0 + cols, grid.nx)), ys


def _row_batches(xs: np.ndarray, ys: np.ndarray) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """The lanes of a piece, whole rows at a time, at most ``_TILE_POINTS`` at
    once: ``(i, zr, zi)``, the first row in the piece and the row-major
    coordinates of each batch, ``zr`` a read-only view of one tiling of xs."""
    import numpy as np

    w = xs.shape[0]
    k = _TILE_POINTS // w
    tiled = np.tile(xs, min(k, ys.shape[0]))
    tiled.flags.writeable = False
    for i in range(0, ys.shape[0], k):
        y = ys[i:i + k]
        yield i, tiled[:y.shape[0] * w], np.repeat(y, w)


def default_grid() -> GridSpec:
    """The default verification window: [-5, 5]^2 at 201 x 201."""
    return GridSpec(-5.0, 5.0, -5.0, 5.0, 201, 201)


@record(eq=False)
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
        so viewers show the plane with the usual orientation.  The text
        is decoded from the ASCII buffer that ``_pgm_bytes`` fills.
        """
        return str(self._pgm_bytes(), "ascii")

    def _pgm_bytes(self):
        """The PGM file as a uint8 array of ASCII bytes, 2 per cell.

        The body is filled in one uint16 pass: a cell's code plus
        ``ord("0") | ord(" ") << 8``, stored little-endian (``"<u2"``),
        is its digit followed by a space.  Then the last space of each
        row becomes a newline.  ``lexineq raster`` writes this array as
        it is.
        """
        import numpy as np

        g = self.grid
        header = f"P2\n{g.nx} {g.ny}\n2\n".encode("ascii")
        # one unused leading byte when the header is odd, so the body's
        # uint16 cells start at an even offset
        skip = len(header) % 2
        start = skip + len(header)
        buf = np.empty(start + 2 * g.nx * g.ny, dtype=np.uint8)
        buf[skip:start] = np.frombuffer(header, dtype=np.uint8)
        np.add(self.cells.reshape(g.ny, g.nx)[::-1], np.uint16(ord("0") | ord(" ") << 8),
               out=buf[start:].view("<u2").reshape(g.ny, g.nx), casting="unsafe")
        buf[start:].reshape(g.ny, 2 * g.nx)[:, -1] = ord("\n")
        return buf[skip:]

    def to_csv(self) -> str:
        """CSV with columns re,im,state; states are in/out/pole."""
        return "".join(self._csv_pieces())

    def _csv_pieces(self) -> Iterator[str]:
        """The text of :meth:`to_csv` as it is made, for ``lexineq raster`` to
        write: the header, then the lines of each run of equal codes, bottom row first."""
        import numpy as np

        g = self.grid
        re_text = [repr(x) for x in g.re_axis().tolist()]
        states = ("out\n", "pole\n", "in\n")  # indexed by code: OUT, POLE, IN = 0, 1, 2
        yield "re,im,state\n"
        for y, codes in zip(g.im_axis().tolist(), self.cells.reshape(g.ny, g.nx)):
            # a run of equal codes shares its tail ",im,state": the run's
            # lines are its re texts, each followed by the tail
            tails = [f",{y!r},{s}" for s in states]
            cuts = (np.flatnonzero(codes[1:] != codes[:-1]) + 1).tolist()
            starts = [0, *cuts]
            for c0, c1, code in zip(starts, [*cuts, g.nx], codes[starts].tolist()):
                yield tails[code].join(re_text[c0:c1])
                yield tails[code]


@record
class Mismatch:
    point: complex
    expected: Membership  # direct evaluation
    got: Membership       # region/solution membership


@record
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
    """The left-hand value ``(re, im)`` of each constraint at z = zr + zi*i, in order.

    Runs unchanged on floats and on float64 arrays, with ``div`` the
    matching complex division (``_kernels.cdiv`` or ``_grid.cdiv``); the
    caller handles the fractions' poles (:func:`_pole`).  Consults only
    complex arithmetic, never the region or solver machinery.
    """
    if isinstance(problem, Linear):
        return (_kernels.linear_value(*_parts(problem.a, problem.b), zr, zi),)
    if isinstance(problem, System):
        return tuple(v for c in problem.constraints for v in _constraint_values(c, zr, zi, div))
    if isinstance(problem, Fractional):
        parts = _parts(problem.a, problem.b, problem.c, problem.d)
        return (_kernels.fractional_value(*parts, zr, zi, div),)
    if isinstance(problem, Quadratic):
        return (_kernels.quadratic_value(*_parts(problem.a, problem.b, problem.c), zr, zi),)
    raise TypeError(f"not an inequality problem: {problem!r}")


def _constraint_reals(problem: InequalityProblem, zr, zi, div_real) -> tuple:
    """Real parts of :func:`_constraint_values`, bit for bit (nan at a pole)
    on float64 lanes with ``div_real`` ``_grid.cdiv_real``, and their
    bounds on ``_grid.Box`` ranges with ``_grid.box_cdiv_real``."""
    if isinstance(problem, Linear):
        return (_kernels.linear_real(*_parts(problem.a), problem.b.real, zr, zi),)
    if isinstance(problem, System):
        return tuple(v for c in problem.constraints for v in _constraint_reals(c, zr, zi, div_real))
    if isinstance(problem, Fractional):
        parts = _parts(problem.a, problem.b, problem.c)
        return (_kernels.fractional_real(*parts, problem.d.real, zr, zi, div_real),)
    if isinstance(problem, Quadratic):
        parts = _parts(problem.a, problem.b)
        return (_kernels.quadratic_real(*parts, problem.c.real, zr, zi, *_kernels.csq(zr, zi)),)
    raise TypeError(f"not an inequality problem: {problem!r}")


def _pole(problem: InequalityProblem, zr, zi):
    """Where a fraction's divisor z + C is 0, any of a system's: a bool at
    floats, a lane mask on arrays; None when the problem holds no fraction."""
    if isinstance(problem, Fractional):
        return (zr + problem.c.real == 0.0) & (zi + problem.c.imag == 0.0)
    pole = None
    if isinstance(problem, System):
        for c in problem.constraints:
            p = _pole(c, zr, zi)
            if p is not None:
                pole = p if pole is None else pole | p
    return pole


def _values(problem: InequalityProblem, z: complex) -> tuple[complex, ...]:
    """Left-hand value(s) of the inequality at z; PoleError at a pole."""
    if _pole(problem, z.real, z.imag):
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
    system, the smallest margin over its constraints.  This is the
    margin :func:`problem_grid` reports and :func:`verify` skips on.
    Raises PoleError at a pole.
    """
    require_finite(z, "probe point")
    return min(_kernels.tie_margin(v.real, v.imag) for v in _values(problem, z))


def problem_grid(problem: InequalityProblem, zr: np.ndarray,
                 zi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized direct evaluation at flat lanes zr + zi*i: (membership codes, margins).

    Decides the lanes as a raster does (:func:`_decide_lanes`), with the
    codes of :func:`eval_direct`, bit for bit.  The margins are
    :func:`boundary_margin` at each probe, and infinite at a pole.  A
    sub-ulp real residue thus reports a tiny margin, marking the decision
    as resting on rounding noise; :func:`verify` skips such probes.
    """
    return _decide_lanes(problem, zr, zi, margins=True)


def _decide_lanes(problem: InequalityProblem, zr, zi, out: np.ndarray | None = None,
                  margins: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """``_grid.decide`` on the lanes zr + zi*i: the real parts of the
    constraint values decide, and the full values and the pole mask are
    computed only on the lanes those leave open."""
    import numpy as np

    from . import _grid

    zr = np.ascontiguousarray(zr, dtype=np.float64)
    zi = np.ascontiguousarray(zi, dtype=np.float64)
    return _grid.decide(_constraint_reals(problem, zr, zi, _grid.cdiv_real),
                        lambda zr, zi: (_constraint_values(problem, zr, zi, _grid.cdiv),
                                        _pole(problem, zr, zi)),
                        zr, zi, out, margins)


def verify(problem: InequalityProblem, solution: SolutionSet,
           grid: GridSpec | None = None, eps: float = DEFAULT_EPS) -> VerificationReport:
    """Sweep a grid and compare direct evaluation against the solution.

    Pole probes are counted separately and must agree on being poles.
    A probe is skipped as boundary when *either* side's deciding
    component sits within eps of its decision boundary: the two sides
    compute the same mathematical quantity along different float paths,
    and on an exact tie of one path the other may legitimately carry a
    last-ulp residue of either sign.  Every other probe must match
    exactly; mismatches are reported in grid order.  A sweep that asserted
    no probe fails too: it would pass whatever the solution.  The grid is
    swept one tile of :meth:`GridSpec.tiles` at a time.
    """
    import numpy as np

    from .solver import solution_grid_margin

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
    total = grid.nx * grid.ny
    return VerificationReport(
        total=total,
        skipped_boundary=skipped_boundary,
        skipped_pole=skipped_pole,
        mismatches=tuple(mismatches),
        # some probe asserted
        passed=not mismatches and skipped_boundary + skipped_pole < total,
    )


def sample_raster(source: Region | InequalityProblem, grid: GridSpec) -> Bitmap:
    """Evaluate membership of a region or inequality at every grid point.

    Only membership codes are computed, straight into the raster; the
    margins :func:`problem_grid` also reports are not.  The grid is
    walked piece by piece (:func:`_pieces`).  A raster of an inequality
    first settles whole blocks of a piece from exact bounds of the real
    parts (:func:`_fill_blocks`); every other piece is filled whole rows
    at a time.  Its lanes are decided as :func:`problem_grid` decides
    them (:func:`_decide_lanes`), and a region's as a one-region
    solution's (``solver._decide_lanes``).
    """
    import numpy as np

    bounded = isinstance(source, InequalityProblem)
    if bounded:
        decide = _decide_lanes
    else:
        from .region import Region  # a raster of a problem needs neither module
        from .solver import SolutionSet
        from .solver import _decide_lanes as decide

        if not isinstance(source, Region):
            raise TypeError(f"cannot rasterize {source!r}")
        source = SolutionSet.single(source)
    nx, ny = grid.nx, grid.ny
    # a piece has at most _TILE_POINTS rows, and at most _TILE_POINTS blocks
    blocks_across = -(-min(nx, _TILE_POINTS) // _BLOCK)
    rows = min(ny, _TILE_POINTS, _TILE_POINTS // blocks_across * _BLOCK)
    cells = np.empty(nx * ny, dtype=np.uint8)
    view = cells.reshape(ny, nx)
    for r0, c0, xs, ys in _pieces(grid, rows):
        if bounded and _fill_blocks(source, view, r0, c0, xs, ys):
            continue
        w = xs.shape[0]
        for i, zr, zi in _row_batches(xs, ys):
            # the codes of a batch's lanes go straight to its rows of the raster
            decide(source, zr, zi, view[r0 + i:r0 + i + zr.shape[0] // w, c0:c0 + w])
    return Bitmap(grid=grid, cells=cells)


def _fill_blocks(problem: InequalityProblem, view: np.ndarray, r0: int, c0: int,
                 xs: np.ndarray, ys: np.ndarray) -> bool:
    """Fill the piece of the raster ``view`` (ny x nx) from row ``r0`` and
    column ``c0``, at axis values ``xs`` and ``ys``, block by block; False,
    with nothing written, when most of its blocks stay open.

    The piece is cut into blocks of ``_BLOCK`` x ``_BLOCK`` points, and
    :func:`_block_codes` settles most of them whole.  The others go to
    :func:`_decide_lanes` at most ``_TILE_POINTS`` lanes at a time, as
    their columns and rows of axis values, which broadcast to their lanes.
    """
    import numpy as np

    b = _BLOCK
    h, w = ys.shape[0], xs.shape[0]
    codes = _block_codes(problem, _block_range(xs), _block_range(ys[:, None]))
    undecided = np.flatnonzero(codes == _UNDECIDED)
    if 2 * undecided.shape[0] > codes.size:
        # the caller evaluates every lane in place; on the 7 of 300 benchmark
        # rasters that come here, that took 1.36 ms at 201^2 (1.14 ms block by block),
        # 0.38 (0.61) at 101^2, 0.06 (0.29) at 33^2 and 1/7 as long at 2000 x 4
        return False
    _paint_blocks(view[r0:r0 + h, c0:c0 + w], codes)
    cells = view.reshape(-1)
    offsets = np.arange(b)
    blocks_per_batch = _TILE_POINTS // (b * b)
    for k in range(0, undecided.shape[0], blocks_per_batch):
        bi, bj = np.divmod(undecided[k:k + blocks_per_batch], codes.shape[1])
        # each block's rows and columns; those past the edge of the piece
        # repeat its last one, so their lanes are evaluated and written
        # twice, with the same code
        r = np.minimum((bi * b)[:, None] + offsets, h - 1)
        c = np.minimum((bj * b)[:, None] + offsets, w - 1)
        out = _decide_lanes(problem, xs[c][:, None, :], ys[r][:, :, None])[0]
        cells[((r + r0) * view.shape[1])[:, :, None] + (c + c0)[:, None, :]] = out
    return True


def _block_range(axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smallest and largest value of each ``_BLOCK`` points of an axis piece.

    The computed axis need not be monotone, so every point is looked at.
    """
    import numpy as np

    starts = np.arange(0, axis.shape[0], _BLOCK)
    return np.minimum.reduceat(axis, starts), np.maximum.reduceat(axis, starts)


def _paint_blocks(target: np.ndarray, codes: np.ndarray) -> None:
    """Write each block's code to every cell of that block of ``target``.

    ``target`` is a (rows, columns) view of the raster, and ``codes``
    holds one code per block of it, the last row and column of blocks
    possibly cut short.
    """
    import numpy as np

    expanded = np.repeat(codes, _BLOCK, axis=1)[:, :target.shape[1]]  # a row per row of blocks
    for i in range(min(_BLOCK, target.shape[0])):
        # row i of every row of blocks
        rows = target[i::_BLOCK]
        rows[...] = expanded[:rows.shape[0]]


def _block_codes(problem: InequalityProblem, x, y) -> np.ndarray:
    """IN or OUT for the blocks whose bounds settle every lane, else ``_UNDECIDED``.

    The blocks are the boxes ``x`` times ``y``, ``(lo, hi)`` ranges of
    arrays that broadcast together.  A block is IN when every constraint's
    real part has finite bounds ``lo > 0``, and OUT when some constraint's has
    finite bounds ``hi < 0`` and none's are nan: then every real part is
    > 0 at every lane, or some constraint's is < 0 at every lane and no
    lane is a pole (a pole's divisor range holds 0, so its bounds are
    nan), which is what :func:`_grid.decide_real` and the pole mask find
    lane by lane.  Any other block, a nan or inf bound included, is undecided.
    """
    import numpy as np

    from . import _grid

    inside = outside = held = None
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for real in _constraint_reals(problem, _grid.Box(*x), _grid.Box(*y),
                                      _grid.box_cdiv_real):
            positive = (real.lo > 0.0) & (real.hi < np.inf)
            negative = (real.hi < 0.0) & (real.lo > -np.inf)
            nan = np.isnan(real.lo)
            inside = positive if inside is None else inside & positive
            outside = negative if outside is None else outside | negative
            held = nan if held is None else held | nan
    codes = np.full(inside.shape, _UNDECIDED, dtype=np.uint8)
    codes[inside] = _kernels.IN
    codes[outside & ~held] = _kernels.OUT
    return codes
