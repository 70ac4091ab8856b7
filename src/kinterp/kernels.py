"""Kernel families, pointwise evaluation, and Gram matrix assembly.

Three families are supported:

* half-integer Matern kernels (nu in {1/2, 3/2, 5/2}) in any ambient
  dimension, with the convention k(x, y) = profile(gamma * ||x - y||) and
  normalization constant 1, so the radial profiles are

      nu = 1/2:  exp(-r)
      nu = 3/2:  (1 + r) exp(-r)
      nu = 5/2:  (3 + 3 r + r^2) exp(-r)        (k(x, x) = 3)

* the Gaussian kernel exp(-(gamma ||x - y||)^2),

* the reproducing kernel of the first-order Sobolev space on an interval
  [a, b], a two-branch cosh/sinh formula that is not translation invariant
  (gamma is ignored for this family).

All evaluation goes through one vectorized routine, so scalar and batch
calls produce bit-identical values. Blocks larger than one row tile are
filled, and Grams of more than one tile mirrored, on a process-wide thread
pool that only this module holds, whose one drain loop (`_run_tasks`) also
runs the grid scan's blocks; every entry keeps the bits of a one-pass
evaluation. Everything here is pure and safe to call from threads.

Minimum pairwise distances (the duplicate-node check) and nearest-node
distances come from one exact numpy sweep over the points sorted on one
axis (`_sweep`), in every dimension.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from functools import partial

import numpy as np

MATERN = "matern"
GAUSSIAN = "gaussian"
INTERVAL_W21 = "w21"

_MATERN_NUS = (0.5, 1.5, 2.5)

# Pairwise distance below this fraction of the domain diameter counts as a
# duplicate node: beyond double-precision resolution of the Gram entries.
DISTINCTNESS_REL_TOL = 1e-12

# Gram assembly evaluates the upper triangle this many rows at a time, and
# mirrors it in square tiles of this side.
GRAM_ROW_BLOCK = 256

# Kernel blocks are filled, and the grid scan's fitted values summed, in row
# tiles of about this many bytes, so each tile's temporaries stay in cache.
TILE_BYTES = 512 * 1024


class KernelError(ValueError):
    pass


class DimensionMismatchError(KernelError):
    pass


class DomainError(KernelError):
    """Point outside the interval support of the w21 kernel."""


class DuplicateNodesError(KernelError):
    pass


@dataclass(frozen=True)
class Kernel:
    """A symmetric positive definite kernel with family and shape parameters.

    family    one of "matern", "gaussian", "w21"
    nu        half-integer smoothness, Matern only
    gamma     positive shape parameter scaling distances (ignored by w21)
    dim       ambient dimension N
    interval  (a, b) support, w21 only
    """

    family: str
    gamma: float = 1.0
    dim: int = 1
    nu: float | None = None
    interval: tuple[float, float] | None = None

    def __post_init__(self):
        if self.family not in (MATERN, GAUSSIAN, INTERVAL_W21):
            raise KernelError(f"unknown kernel family {self.family!r}")
        if self.family == MATERN and self.nu not in _MATERN_NUS:
            raise KernelError(
                f"Matern smoothness nu must be one of {_MATERN_NUS}, got {self.nu}"
            )
        if self.family != MATERN and self.nu is not None:
            raise KernelError("nu is a Matern-only parameter")
        if not 0 < self.gamma < np.inf:  # nan too: it would give nan Grams, flagged nowhere
            raise KernelError(
                f"shape parameter gamma must be positive and finite, got {self.gamma}")
        if self.dim < 1:
            raise KernelError(f"dimension must be a positive integer, got {self.dim}")
        if self.family == INTERVAL_W21:
            if self.dim != 1:
                raise KernelError("w21 kernel is defined on an interval, dim must be 1")
            if self.interval is None:
                raise KernelError("w21 kernel requires an interval (a, b)")
            a, b = self.interval
            if not a < b:
                raise KernelError(f"w21 interval must satisfy a < b, got ({a}, {b})")
        elif self.interval is not None:
            raise KernelError("interval is a w21-only parameter")

    @property
    def sobolev_order_tau(self) -> float:
        """Sobolev order of the native space: nu + N/2 for Matern, 1 for w21,
        +inf for the Gaussian."""
        if self.family == MATERN:
            return self.nu + self.dim / 2.0
        if self.family == INTERVAL_W21:
            return 1.0
        return np.inf

    def diagonal_value(self) -> float:
        """Upper bound max_x k(x, x); exact for the translation invariant
        families (1, 1, 3, 1), and the sup over the interval for w21."""
        if self.family == MATERN:
            return 3.0 if self.nu == 2.5 else 1.0
        if self.family == GAUSSIAN:
            return 1.0
        a, b = self.interval
        # cosh(b - x) cosh(x - a) / sinh(b - a) is maximal at the endpoints
        return float(np.cosh(b - a) / np.sinh(b - a))


def matern(nu: float, gamma: float = 1.0, dim: int = 1) -> Kernel:
    return Kernel(family=MATERN, nu=nu, gamma=gamma, dim=dim)


def gaussian(gamma: float = 1.0, dim: int = 1) -> Kernel:
    return Kernel(family=GAUSSIAN, gamma=gamma, dim=dim)


def interval_sobolev(a: float, b: float) -> Kernel:
    return Kernel(family=INTERVAL_W21, interval=(float(a), float(b)))


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric kernel matrix on a node set, assembled by mirroring the
    upper triangle so K equals its transpose to the last bit."""

    entries: np.ndarray

    @property
    def order(self) -> int:
        return self.entries.shape[0]


class ScratchGram(GramMatrix):
    """A GramMatrix whose holder hands its buffer over to `factorize`,
    which factors it in place instead of in a copy (see
    `interpolation.factorize`); the holder must not read `entries` again."""


@dataclass(frozen=True)
class GridLines:
    """Rows `rows` (start and stop given) of the lexicographic tensor grid of
    `axes`, N >= 2, as `kernel_matrix` points, with `table`, the
    `line_table` of the last axis and the nodes Y, formed once per scan pass."""

    axes: tuple[np.ndarray, ...]
    rows: slice
    table: np.ndarray

    def __len__(self) -> int:
        return self.rows.stop - self.rows.start


def line_table(axis: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """The squared last-axis differences (axis[i] - Y[j, -1])**2."""
    return np.square(np.subtract.outer(axis, Y[:, -1]))


def _as_points(x, dim: int) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    if pts.shape[1] != dim:
        raise DimensionMismatchError(
            f"points have dimension {pts.shape[1]}, kernel expects {dim}"
        )
    return pts


def kernel_matrix(kernel: Kernel, X, Y, out: np.ndarray | None = None) -> np.ndarray:
    """Cross kernel matrix (k(x_i, y_j))_{ i,j }.

    This is the single evaluation path for the package; eval() delegates to
    it on 1x1 inputs, which keeps scalar and batch results bit-identical.

    Each entry depends only on its own pair of points, so a column slice of
    a wider block is bit-identical to the block of the sliced nodes, and the
    row tiles the output is filled in (see `_run_tasks`) cannot change any
    bit. Squared distances are summed one axis at a time, in axis order, and
    the profile is applied in place, so no (len(X), len(Y), dim) tensor is
    formed. X is an (m, N) array or a `GridLines` block, whose points on one
    line of the last axis get their leading-axis sum, a len(Y) vector, plus
    their rows of the table: the same sums, so the same bits.

    `out`, a float64 array of shape (len(X), len(Y)), receives the entries
    and is returned, with the same bits as a fresh result.
    """
    return _fill(kernel, X, Y, out, pooled=True)


def _fill(kernel: Kernel, X, Y, out: np.ndarray | None, pooled: bool,
          scratch: np.ndarray | None = None) -> np.ndarray:
    """`kernel_matrix`, with its checks, its tiles run on the tile pool when
    `pooled`, else in the caller: a grid scan's tile worker fills its block
    buffer this way, through no public function. An unpooled fill may take
    each tile's temporaries from a flat float64 `scratch` of at least
    `_scratch_entries` entries instead of fresh arrays."""
    Y = _as_points(Y, kernel.dim)
    if not isinstance(X, GridLines):
        X = _as_points(X, kernel.dim)
    elif not 2 <= len(X.axes) == kernel.dim or X.table.shape != (len(X.axes[-1]), len(Y)):
        raise DimensionMismatchError("grid lines need 2+ axes, one per kernel dimension, "
                                     "and a table row per point of the last one")
    if kernel.family == INTERVAL_W21:
        a, b = kernel.interval
        xv, yv = X[:, 0], Y[:, 0]
        if np.any(xv < a) or np.any(xv > b) or np.any(yv < a) or np.any(yv > b):
            raise DomainError(f"w21 kernel arguments must lie in [{a}, {b}]")
    shape = (len(X), Y.shape[0])
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != np.float64:
        raise ValueError(f"out has shape {out.shape} and dtype {out.dtype}, "
                         f"need {shape} float64")
    if scratch is not None and (pooled or scratch.size < _scratch_entries(
            kernel, shape, isinstance(X, GridLines))):
        raise ValueError("a scratch serves one unpooled fill, with one tile's temporaries")
    work, tiles = partial(_fill_rows, kernel, X, Y, out, scratch), _tiles(shape[0], out[:1].nbytes)
    if pooled:
        _run_tasks(work, tiles)
    else:
        for rows in tiles:
            work(rows)
    return out


def _scratch_entries(kernel: Kernel, shape: tuple[int, int], lines: bool) -> int:
    """Entries of the scratch that an unpooled fill of a block of `shape`
    takes its temporaries from: the most that `_fill_rows` holds at once in
    one row tile, those of the profile (w21's min term, Matern's exp(-r)
    and, at nu = 5/2, r^2) or the per-axis term of an (m, N) array, N >= 2,
    which `lines` (a `GridLines` block) does not form."""
    profile = {None: 0, 0.5: 0, 1.5: 1, 2.5: 2}[kernel.nu] + (kernel.family == INTERVAL_W21)
    count = max(profile, int(kernel.dim > 1 and not lines))
    return count * min(shape[0], _tile_rows(8 * shape[1])) * shape[1]


def _fill_rows(kernel: Kernel, X: np.ndarray, Y: np.ndarray, out: np.ndarray,
               scratch: np.ndarray | None, rows: slice) -> None:
    """Write k(X[rows], Y) into out[rows], with the out-of-place formula's
    ufuncs applied in the same order to every entry. Temporary k of the tile
    is entries k * size, ... of `scratch`, size being the tile's, or a fresh
    array without one."""
    r = out[rows]

    def temporary(k: int) -> np.ndarray:
        if scratch is None:
            return np.empty(r.shape)
        return scratch[k * r.size:(k + 1) * r.size].reshape(r.shape)

    if kernel.family == INTERVAL_W21:
        a, b = kernel.interval
        x = X[rows, 0]
        # cosh(b - max(x, y)) * cosh(min(x, y) - a) / sinh(b - a)
        np.maximum.outer(x, Y[:, 0], out=r)
        np.subtract(b, r, out=r)
        np.cosh(r, out=r)
        lo = np.minimum.outer(x, Y[:, 0], out=temporary(0))
        lo -= a
        np.cosh(lo, out=lo)
        r *= lo
        r /= np.sinh(b - a)
        return
    if isinstance(X, GridLines):
        _line_distances(X, Y, r, X.rows.start + rows.start)
    else:
        np.subtract.outer(X[rows, 0], Y[:, 0], out=r)
        r *= r
        d = temporary(0) if kernel.dim > 1 else None
        for k in range(1, kernel.dim):
            np.subtract.outer(X[rows, k], Y[:, k], out=d)
            d *= d
            r += d
    np.sqrt(r, out=r)
    r *= kernel.gamma
    if kernel.family == GAUSSIAN:
        r *= r
    elif kernel.nu != 0.5:
        e = np.negative(r, out=temporary(0))
        np.exp(e, out=e)
        if kernel.nu == 1.5:
            r += 1.0
        else:
            # (3 + 3 r + r^2) exp(-r), summed left to right
            r2 = np.multiply(r, r, out=temporary(1))
            r *= 3.0
            r += 3.0
            r += r2
        r *= e
        return
    np.negative(r, out=r)
    np.exp(r, out=r)


def _line_distances(X: GridLines, Y: np.ndarray, r: np.ndarray, first: int) -> None:
    """Squared distances of the grid rows first, first + 1, ... of X to Y
    into r, line by line: a line's leading-axis sum, in axis order, plus its
    rows of the table. 0 + d^2 is d^2, so the sums are the array path's."""
    shape, width = [len(ax) for ax in X.axes[:-1]], len(X.axes[-1])
    for i in range(-(first % width), len(r), width):  # the lines' first rows
        lead = 0.0
        for k, at in enumerate(np.unravel_index((first + i) // width, shape)):
            lead = lead + np.square(X.axes[k][at] - Y[:, k])
        line, skip = r[max(i, 0):i + width], max(-i, 0)
        np.add(lead, X.table[skip:skip + len(line)], out=line)


def _usable_cpus() -> int:
    """Number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# One process-wide pool runs the tiles, created on first use with one worker
# per usable CPU. A forked child starts without it and creates its own.
_pool = None
_pool_lock = threading.Lock()


def _tile_pool():
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(_usable_cpus(), thread_name_prefix="kinterp-tile")
        return _pool


def _forget_pool() -> None:
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _tile_rows(row_bytes: int) -> int:
    """Rows of a tile of about TILE_BYTES, at least one."""
    return max(1, TILE_BYTES // max(row_bytes, 1))


def _tiles(n_rows: int, row_bytes: int) -> list[slice]:
    """Row slices of about TILE_BYTES that cover range(n_rows)."""
    step = _tile_rows(row_bytes)
    return [slice(i, i + step) for i in range(0, n_rows, step)]


def _run_tasks(work, tasks: list, state=None) -> list:
    """Call `work(task)` on every task of `tasks`, or, given a `state`
    factory, `work(task, s)`, s = state() being made once by each drainer
    before its first task; returns the states made.

    The caller drains the list itself while up to one helper per other
    usable CPU drains the same list on the tile pool, so a short call does
    not wait for pool threads to wake. Each task must write only its own
    output and touch no shared state but its drainer's, so a result that
    merges the states order-free does not depend on the split or on the
    worker count. A list of one task, or a process with one usable CPU,
    runs in the caller alone.
    """
    helpers = min(_usable_cpus(), len(tasks)) - 1
    queue, lock, states = iter(tasks), threading.Lock(), []

    def take():
        with lock:
            return next(queue, None)

    def drain():
        own = None
        for task in iter(take, None):
            if state is None:
                work(task)
                continue
            if own is None:
                own = state()
                states.append(own)
            work(task, own)

    if helpers <= 0:
        drain()
        return states
    pool = _tile_pool()
    futures = [pool.submit(drain) for _ in range(helpers)]
    try:
        drain()
    finally:
        # a helper that has not started finds no tasks left: drop it
        for f in futures:
            if not f.cancel():
                f.result()
    return states


def eval(kernel: Kernel, x, y) -> float:  # noqa: A001 - spec-level operation name
    """Evaluate k(x, y) for a single pair of points."""
    return float(kernel_matrix(kernel, [np.atleast_1d(x)], [np.atleast_1d(y)])[0, 0])


def min_pairwise_distance(points: np.ndarray) -> float:
    """Exact minimum pairwise Euclidean distance, by a sweep over the sorted
    points (`_sweep`) in every dimension. In 1-d it is the smallest gap of
    the sorted coordinates: sqrt(fl(d^2)) = |d| in binary64 unless d^2
    underflows, that is for gaps below about 1.5e-154."""
    pts = np.atleast_2d(points)
    if pts.shape[0] < 2:
        raise ValueError("need at least two points")
    nodes, key = _sweep_axes(pts)
    best = np.array(np.inf)
    # each point walks only to the points after it in the sort order
    _sweep(nodes, key, [a[1:-1] for a in nodes], np.arange(2, len(pts) + 2), 1, best)
    return float(np.sqrt(best))


def _nearest_distance_to(points: np.ndarray):
    """The function that maps an (m, N) array of queries to each query's
    distance to the nearest of `points`, by `_sweep`; the points are
    sorted once, when this is called."""
    nodes, key = _sweep_axes(np.atleast_2d(points))

    def nearest(queries: np.ndarray) -> np.ndarray:
        q = [np.ascontiguousarray(queries[:, k]) for k in range(len(nodes))]
        # first node at or after each query on the sort axis
        pos = np.searchsorted(nodes[key], q[key])
        best = np.full(len(queries), np.inf)
        _sweep(nodes, key, q, pos, 1, best)
        _sweep(nodes, key, q, pos - 1, -1, best)
        return np.sqrt(best, out=best)

    return nearest


def _sweep_axes(points: np.ndarray) -> tuple[list[np.ndarray], int]:
    """The coordinates of `points`, one array per axis, sorted on the axis
    of widest spread, and that axis. Each array has one sentinel at either
    end: -inf and +inf on the sort axis, 0 on the others, so a walk that
    reaches one is at an infinite distance and stops."""
    span = points.max(axis=0) - points.min(axis=0)
    key = int(np.argmax(span))
    order = np.argsort(points[:, key], kind="stable")
    return [np.concatenate(([-np.inf if k == key else 0.0], points[order, k],
                            [np.inf if k == key else 0.0]))
            for k in range(points.shape[1])], key


def _sweep(nodes: list, key: int, queries: list, start: np.ndarray, step: int,
           best: np.ndarray) -> None:
    """Lower best[i], a squared distance, to the least squared distance
    from query i to the nodes start[i], start[i] + step, ... of `nodes`
    (from `_sweep_axes`), walked one index shift at a time, vectorised
    across the queries. Queries are given as one coordinate array per
    axis. A 0-d `best` is one bound shared by all queries, lowered to the
    least squared distance of any of them.

    Squared distances are summed one axis at a time, in axis order, and
    the caller takes the square root only after the minimum; in 1-d, 2-d
    and 3-d that is the arithmetic of scipy's kd-tree for p = 2, and the
    tests check the results against it bit for bit. A walk stops once the
    squared gap on the sort axis `key` to the node just reached is at least
    its query's best: every later node lies at least as far along that
    axis, rounding is monotone, and a sum of nonnegative axis terms is no
    less than any one of them, so no later node can come closer.
    """
    # the walks not yet dropped: query index, node position, coordinates,
    # best, and whether each is still running. A stopped walk is carried on
    # until a quarter of them have stopped: its later nodes cannot come
    # closer, and `take` clips its position to the sentinel.
    idx = np.arange(len(start))
    pos = np.array(start)
    low = best.copy() if best.ndim else best
    running = np.ones(len(idx), dtype=bool)
    while idx.size:
        d2 = gap2 = None
        for k, (q, p) in enumerate(zip(queries, nodes)):
            t = q - p.take(pos, mode="clip")
            t *= t
            d2 = t if d2 is None else d2 + t
            if k == key:
                gap2 = t
        if best.ndim:
            np.minimum(low, d2, out=low)
        else:
            best[()] = min(best, d2.min())
        pos += step
        running &= gap2 < low
        count = np.count_nonzero(running)
        if count < 0.75 * idx.size:
            if best.ndim:
                best[idx] = low
                low = low[running]
            idx, pos = idx[running], pos[running]
            queries = [q[running] for q in queries]
            running = np.ones(count, dtype=bool)


def assemble_gram(kernel: Kernel, nodes) -> GramMatrix:
    """Gram matrix on a node set; rejects near-duplicate nodes.

    Only the upper triangle is evaluated, as strips of GRAM_ROW_BLOCK rows
    from the diagonal onwards, each written straight into one preallocated
    n x n array; the strict upper triangle is then mirrored into the lower
    one (`mirror_upper`), so the result is symmetric to the last bit and the
    only temporaries are row tiles. A PointSet has already passed the same
    duplicate-node rule on construction, so only plain arrays are checked.
    """
    from .geometry import PointSet

    checked = isinstance(nodes, PointSet)
    pts = _as_points(nodes.points if checked else nodes, kernel.dim)
    n = pts.shape[0]
    if n > 1 and not checked:
        span = pts.max(axis=0) - pts.min(axis=0)
        diam = float(np.sqrt(np.sum(span * span)))  # of the bounding box
        if min_pairwise_distance(pts) < DISTINCTNESS_REL_TOL * (diam if diam > 0 else 1.0):
            raise DuplicateNodesError(
                "node set contains points closer than the distinctness tolerance"
            )
    K = np.empty((n, n))
    for i0 in range(0, n, GRAM_ROW_BLOCK):
        rows = slice(i0, i0 + GRAM_ROW_BLOCK)
        kernel_matrix(kernel, pts[rows], pts[i0:], out=K[rows, i0:])
    mirror_upper(K)
    return GramMatrix(entries=K)


def mirror_upper(A: np.ndarray) -> None:
    """Copy the strict upper triangle of a square array into its strict
    lower triangle, in square tiles of GRAM_ROW_BLOCK: a diagonal tile is
    mirrored within itself, any other tile below the diagonal is the
    transpose of its partner above it. The diagonal is left as it is.

    The tiles, not whole strips, keep each transposed copy in cache, and
    mirroring once after the strips are filled, not strip by strip, avoids
    numpy's copy of a strip whose transpose overlaps it on the diagonal
    tile; a diagonal tile is mirrored in panels of 32 columns, as only a
    panel's top square overlaps its source. Each tile pair is one task of
    `_run_tasks`: a task writes only its lower tile and reads only its upper
    one, which no task writes, so the bits do not depend on the order or the
    worker count.
    """
    n = A.shape[0]
    starts = range(0, n, GRAM_ROW_BLOCK)
    pairs = [(i0, j0) for j0 in starts for i0 in starts if i0 >= j0]

    def mirror(pair):
        i0, j0 = pair
        rows = slice(i0, i0 + GRAM_ROW_BLOCK)
        cols = slice(j0, j0 + GRAM_ROW_BLOCK)
        if i0 != j0:
            A[rows, cols] = A[cols, rows].T
            return
        tile = A[cols, cols]
        for k in range(0, len(tile), 32):
            top = tile[k:k + 32, k:k + 32]
            np.copyto(top, top.T, where=np.tri(len(top), k=-1, dtype=bool))
            tile[k + 32:, k:k + 32] = tile[k:k + 32, k + 32:].T

    _run_tasks(mirror, pairs)
