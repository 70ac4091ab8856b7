"""Point sets, fill/separation distances, and nested quasi-uniform designs.

A PointSet carries its axis-aligned domain box. Designs are prefix-nested:
one master ordered point list plus a list of prefix lengths, so the nesting
X_1 subset X_2 subset ... holds exactly. The geometric greedy selector
(iteratively add the candidate farthest from the current selection) produces
such designs from a candidate pool. `EvalGrid` is the one tensor grid, the
diagnostics' evaluation grid and the fill-distance probe; it stores only its
axes and forms its points a slice of rows at a time.

Fill distances are exact on intervals (closed form over the sorted gaps) and
probe-grid lower bounds in higher dimension, with error at most half the
probe spacing times sqrt(N). On a tensor probe (an `EvalGrid`) the maximum
is found by a bounded search over cells of the probe that queries only the
points that can still reach it. Nearest-node distances come from the exact
sweep in `kernels`, in every dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import (DISTINCTNESS_REL_TOL, DuplicateNodesError, _nearest_distance_to,
                      min_pairwise_distance)

SAMPLING_NONE = "none"
SAMPLING_WEAK_100 = "weak-100"
SAMPLING_STRONG_1200 = "strong-1200"

# Default probe density per axis for fill distances in dimension >= 2.
DEFAULT_FILL_PROBE = 1001
# Probe index steps per axis of one cell of the bounded fill-distance search.
FILL_CELL = 8
# Most probe points handed to one nearest-node sweep, by that search and by
# a query of a probe array. Each sweep step makes some twenty numpy passes
# over the live queries, which stay in cache at this size; much smaller
# batches leave the Python loop dominant.
_FILL_BATCH = 1 << 15


class GeometryError(ValueError):
    pass


@dataclass(frozen=True)
class Box:
    """Axis-aligned box [lower_1, upper_1] x ... x [lower_N, upper_N]."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        lo, up = np.asarray(self.lower, float), np.asarray(self.upper, float)
        if lo.shape != up.shape or lo.ndim != 1:
            raise GeometryError("box lower/upper must be equal-length vectors")
        if not np.all((lo < up) & np.isfinite(lo) & np.isfinite(up)):
            raise GeometryError("box must have finite lower < upper on every axis")

    @classmethod
    def interval(cls, a: float, b: float) -> "Box":
        return cls(lower=(float(a),), upper=(float(b),))

    @classmethod
    def unit_cube(cls, dim: int) -> "Box":
        return cls(lower=(0.0,) * dim, upper=(1.0,) * dim)

    @property
    def dim(self) -> int:
        return len(self.lower)

    @property
    def diameter(self) -> float:
        span = np.asarray(self.upper) - np.asarray(self.lower)
        return float(np.sqrt(np.sum(span * span)))

    @property
    def volume(self) -> float:
        return float(np.prod(np.asarray(self.upper) - np.asarray(self.lower)))

    def contains(self, pts: np.ndarray) -> bool:
        lo, up = np.asarray(self.lower), np.asarray(self.upper)
        return bool(np.all(pts >= lo) and np.all(pts <= up))


@dataclass(frozen=True)
class PointSet:
    """Ordered, pairwise-distinct points inside a domain box.

    Membership is checked against the closed box: generators emit strictly
    interior points, but boundary points (grid corners, interval endpoints)
    are legal inputs for the distance computations.
    """

    points: np.ndarray
    domain: Box

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        object.__setattr__(self, "points", pts)
        if pts.shape[1] != self.domain.dim:
            raise GeometryError(
                f"points of dimension {pts.shape[1]} in a {self.domain.dim}-d box"
            )
        if not self.domain.contains(pts):
            raise GeometryError("every point must lie inside the domain box")
        if (len(pts) > 1 and
                min_pairwise_distance(pts) < DISTINCTNESS_REL_TOL * self.domain.diameter):
            raise DuplicateNodesError("point set contains duplicate points")

    def __len__(self) -> int:
        return len(self.points)

    def prefix(self, n: int) -> "PointSet":
        if not 1 <= n <= len(self):
            raise GeometryError(f"prefix length {n} outside 1..{len(self)}")
        return self._subset(self.points[:n])

    def _subset(self, points: np.ndarray) -> "PointSet":
        """A PointSet of some of this set's rows, each at most once. They are
        still distinct and inside the box, so the constructor's checks,
        including the duplicate-node search, are not run again."""
        X = object.__new__(PointSet)
        object.__setattr__(X, "points", points)
        object.__setattr__(X, "domain", self.domain)
        return X


@dataclass(frozen=True)
class EvalGrid:
    """The lexicographic tensor grid of the per-axis coordinates `axes`,
    with composite-trapezoid quadrature weights that sum to the box volume.

    Only the axes are stored. `len()` is the point count, and a slice of
    rows, `grid[a:b]`, forms just those points as an (m, N) array, so a
    grid scan forms one block at a time; `grid[:]` forms them all.
    """

    axes: tuple[np.ndarray, ...]

    def __post_init__(self):
        axes = tuple(np.asarray(ax, dtype=float) for ax in self.axes)
        if not axes or any(ax.ndim != 1 or len(ax) == 0 for ax in axes):
            raise GeometryError("a tensor grid needs one nonempty coordinate vector per axis")
        object.__setattr__(self, "axes", axes)

    @classmethod
    def tensor(cls, domain: Box, points_per_axis: int) -> "EvalGrid":
        if points_per_axis < 2:
            raise GeometryError("need at least 2 grid points per axis")
        return cls(tuple(np.linspace(a, b, points_per_axis)
                         for a, b in zip(domain.lower, domain.upper)))

    def __len__(self) -> int:
        return math.prod(len(ax) for ax in self.axes)

    def __getitem__(self, rows: slice) -> np.ndarray:
        if not isinstance(rows, slice):
            raise TypeError(f"grid rows are selected by a slice, grid[a:b], not {rows!r}")
        r = range(len(self))[rows]
        index = np.unravel_index(np.arange(r.start, r.stop, r.step),
                                 tuple(len(ax) for ax in self.axes))
        return np.stack([ax[i] for ax, i in zip(self.axes, index)], axis=-1)

    @property
    def quad_weights(self) -> np.ndarray:
        """The trapezoid weight of each point: the product, in axis order,
        of its per-axis weights. Needs at least 2 points per axis, strictly
        ascending with spacings equal to h = (last - first) / (count - 1)
        within a relative 1e-6: the weights are those of a uniform axis."""
        if any(len(ax) < 2 for ax in self.axes):
            raise GeometryError("trapezoid weights need at least 2 points per axis")
        qw = np.float64(1.0)
        for ax in self.axes:
            h = (ax[-1] - ax[0]) / (len(ax) - 1)
            if not h > 0 or np.any(np.abs(np.diff(ax) - h) > 1e-6 * h):
                raise GeometryError("trapezoid weights need strictly ascending, "
                                    "equispaced axes")
            w = np.full(len(ax), h)
            w[0] = w[-1] = 0.5 * h
            qw = np.multiply.outer(qw, w)
        return qw.reshape(-1)


def separation_distance(X: PointSet) -> float:
    """Half the minimum pairwise distance."""
    if len(X) < 2:
        raise GeometryError("separation distance undefined for fewer than 2 points")
    return 0.5 * min_pairwise_distance(X.points)


def fill_distance_interval(X: PointSet, a: float, b: float) -> float:
    """Exact fill distance on an interval:
    max of the left boundary gap, half the interior gaps, and the right
    boundary gap. Unsorted input is sorted internally.
    """
    if X.domain.dim != 1:
        raise GeometryError("interval fill distance needs 1-d points")
    x = np.sort(X.points[:, 0])
    if len(x) == 0:
        raise GeometryError("empty point set")
    gaps = [x[0] - a, b - x[-1]]
    if len(x) > 1:
        gaps.append(0.5 * float(np.max(np.diff(x))))
    return float(max(gaps))


def fill_distance_grid(X: PointSet, probe) -> float:
    """Max over probe points of the distance to the nearest node.

    A lower bound of the true fill distance, converging as the probe is
    refined; the error is at most half the probe spacing times sqrt(N).
    `probe` is an (m, N) array of points, N the nodes' dimension, or an
    `EvalGrid`. An array is queried point by point; a grid is searched by
    `_bounded_fill_distance`, which returns the same float.
    """
    if isinstance(probe, EvalGrid):
        if len(probe.axes) != X.domain.dim:
            raise GeometryError(
                f"a {len(probe.axes)}-d probe for {X.domain.dim}-d points")
        if len(X) == 0:  # a grid is never empty
            raise GeometryError("fill distance needs nonempty nodes")
        return _bounded_fill_distance(_nearest_distance_to(X.points), probe.axes)
    probe_pts = np.atleast_2d(np.asarray(probe, float))
    if probe_pts.shape[1] != X.domain.dim:
        raise GeometryError(
            f"a {probe_pts.shape[1]}-d probe for {X.domain.dim}-d points")
    if len(X) == 0 or probe_pts.shape[0] == 0:
        raise GeometryError("fill distance needs nonempty nodes and probe")
    return float(_nearest_in_batches(_nearest_distance_to(X.points), probe_pts).max())


def _bounded_fill_distance(nearest, axes) -> float:
    """Max over the tensor probe `axes` of the nearest-node distance that
    `nearest` maps query points to, by branch and bound over cells of the
    probe.

    The cells are blocks of FILL_CELL index steps per axis, the last one
    ending at the last index. The cell corners are queried first; their
    maximum is a lower bound of the result, since corners are probe points.
    Every point of a cell lies within the cell's diagonal of each of its
    corners, so (nearest corner distance + diagonal) * (1 + 1e-12) bounds
    every distance in the cell, the factor covering float rounding. Only the
    points of cells whose bound reaches the best distance found so far are
    queried. A cell that holds the maximizing probe point has a bound at or
    above every distance found, so it is never dropped, and each of its
    points is queried on its own: the result is the float the full query
    gives.
    """
    d = len(axes)
    cuts = [np.append(np.arange(0, max(len(ax) - 1, 1), FILL_CELL), len(ax) - 1)
            for ax in axes]
    low = _nearest_in_batches(nearest, EvalGrid(tuple(ax[c] for ax, c in zip(axes, cuts))))
    low = low.reshape(tuple(len(c) for c in cuts))
    best = float(low.max())
    diag2 = 0.0
    for j, (ax, c) in enumerate(zip(axes, cuts)):
        # nearest of the cell's 2^d corners, taken one axis at a time
        a = np.moveaxis(low, j, 0)
        low = np.moveaxis(np.minimum(a[:-1], a[1:]), 0, j)
        del a  # the previous axis's minimum, which it views
        span = ax[c[1:]] - ax[c[:-1]]
        diag2 = diag2 + (span * span).reshape((-1,) + (1,) * (d - 1 - j))
    bound = np.add(low, np.sqrt(diag2, out=diag2), out=low)  # in place: fresh arrays
    bound *= 1.0 + 1e-12
    del diag2
    live = np.argwhere(bound >= best)
    # a cell holds its lower faces; the last cell on an axis also its upper
    starts = [c[:-1] for c in cuts]
    stops = [np.append(c[1:-1], c[-1] + 1) for c in cuts]
    # highest bounds first, so that a cell the best distance has overtaken
    # by the time its batch comes is dropped
    live = live[np.argsort(-bound[tuple(live.T)], kind="stable")]
    width = FILL_CELL + 1
    offsets = np.arange(width)
    step = max(1, _FILL_BATCH // width ** d)
    for first in range(0, len(live), step):
        cells = live[first:first + step]
        cells = cells[bound[tuple(cells.T)] >= best]
        if len(cells) == 0:
            break
        shape = (len(cells),) + (width,) * d
        keep = np.ones(shape, dtype=bool)
        coords = []
        for j, ax in enumerate(axes):
            view = (len(cells),) + tuple(width if i == j else 1 for i in range(d))
            idx = starts[j][cells[:, j], None] + offsets
            keep &= (idx < stops[j][cells[:, j], None]).reshape(view)
            coords.append(ax[np.minimum(idx, len(ax) - 1)].reshape(view))
        pts = np.stack([np.broadcast_to(c, shape)[keep] for c in coords], axis=-1)
        best = max(best, float(nearest(pts).max()))
    return best


def _nearest_in_batches(nearest, points) -> np.ndarray:
    """The `nearest` distance of every row of `points`, an array or an
    `EvalGrid`, queried _FILL_BATCH rows at a time."""
    out = np.empty(len(points))
    for i in range(0, len(points), _FILL_BATCH):
        out[i:i + _FILL_BATCH] = nearest(points[i:i + _FILL_BATCH])
    return out


def mesh_ratio(X: PointSet, h: float) -> float:
    """h over the separation distance. With a probe-grid h this can slightly
    undershoot the true ratio; it is reported as-is."""
    return h / separation_distance(X)


def sampling_condition(h: float, tau: float, a: float, b: float) -> str:
    """Which interval sampling threshold h satisfies.

    "strong-1200" when h <= (b-a)/(1200 tau^2), else "weak-100" when
    h <= (b-a)/(100 tau^2), else "none". Boundaries are inclusive.
    """
    if h <= 0 or tau <= 0 or not a < b:
        raise GeometryError("sampling_condition needs h>0, tau>0, a<b")
    if h <= (b - a) / (1200.0 * tau * tau):
        return SAMPLING_STRONG_1200
    if h <= (b - a) / (100.0 * tau * tau):
        return SAMPLING_WEAK_100
    return SAMPLING_NONE


@dataclass(frozen=True)
class NestedDesign:
    """Prefix-nested refinement levels into one master ordered point list.

    levels  strictly increasing prefix lengths
    master  the full ordered point set

    A design records no geometry: `diagnostics.measure_levels` measures each
    level's fill distance, separation distance and mesh ratio.
    """

    master: PointSet
    levels: tuple[int, ...]

    def __post_init__(self):
        lv = tuple(int(n) for n in self.levels)
        object.__setattr__(self, "levels", lv)
        if any(b <= a for a, b in zip(lv, lv[1:])):
            raise GeometryError("level counts must be strictly increasing")
        if lv and lv[-1] > len(self.master):
            raise GeometryError("largest level exceeds the master point count")

    def level_points(self, i: int) -> PointSet:
        return self.master.prefix(self.levels[i])

    def __len__(self) -> int:
        return len(self.levels)


def geometric_greedy(candidates: PointSet, m: int, seed_index: int = 0,
                     level_counts=None) -> NestedDesign:
    """Farthest-point selection of m points from a candidate pool.

    Starts at the seed candidate, then repeatedly adds the candidate with
    the largest distance to the already-selected set; ties break to the
    lowest candidate index, so the output is deterministic. Every prefix of
    the selection is a valid level; `level_counts` picks which prefixes are
    recorded as levels (default: just m).
    """
    pts = candidates.points
    if not 1 <= m <= len(pts):
        raise GeometryError(f"cannot select {m} points from {len(pts)} candidates")
    if not 0 <= seed_index < len(pts):
        raise GeometryError(f"seed index {seed_index} out of range")

    # squared distances are summed one axis at a time, in axis order, into
    # one buffer: the bits of the row sums of (pts - p)^2
    axes = [np.ascontiguousarray(pts[:, k]) for k in range(pts.shape[1])]
    dist = np.empty(len(pts))
    term = np.empty(len(pts))

    def distances_to(i: int) -> np.ndarray:
        np.subtract(axes[0], axes[0][i], out=dist)
        np.multiply(dist, dist, out=dist)
        for a in axes[1:]:
            np.subtract(a, a[i], out=term)
            np.multiply(term, term, out=term)
            np.add(dist, term, out=dist)
        return np.sqrt(dist, out=dist)

    order = np.empty(m, dtype=int)
    order[0] = seed_index
    dmin = distances_to(seed_index).copy()
    for k in range(1, m):
        nxt = int(np.argmax(dmin))  # argmax takes the lowest index on ties
        order[k] = nxt
        np.minimum(dmin, distances_to(nxt), out=dmin)

    levels = tuple(level_counts) if level_counts is not None else (m,)
    return NestedDesign(master=candidates._subset(pts[order]), levels=levels)


def _kronecker_sequence(count: int, dim: int) -> np.ndarray:
    """Additive-recurrence low discrepancy sequence on the open unit cube,
    driven by the generalized golden ratio."""
    x = 2.0
    for _ in range(10):
        x = (1.0 + x) ** (1.0 / (dim + 1))
    alpha = np.array([(1.0 / x) ** (j + 1) % 1.0 for j in range(dim)])
    blocks: list[np.ndarray] = []
    have, start = 0, 1
    while have < count:
        idx = np.arange(start, start + count)
        block = (0.5 + idx[:, None] * alpha[None, :]) % 1.0
        # drop the measure-zero indices that land exactly on the boundary
        good = block[np.all((block > 0.0) & (block < 1.0), axis=1)]
        blocks.append(good)
        have += len(good)
        start += count
    return np.concatenate(blocks)[:count]


def generate_candidates(domain: Box, count: int, scheme: str, seed: int = 0) -> PointSet:
    """Candidate pool generation: "low_discrepancy" (deterministic Kronecker
    sequence), "uniform_random" (seeded), or "tensor_grid" (interior offsets,
    per-axis count must tensorize to the requested total)."""
    if count < 1:
        raise GeometryError("candidate count must be >= 1")
    lo = np.asarray(domain.lower)
    up = np.asarray(domain.upper)
    if scheme == "low_discrepancy":
        u = _kronecker_sequence(count, domain.dim)
    elif scheme == "uniform_random":
        rng = np.random.default_rng(seed)
        u = rng.uniform(size=(count, domain.dim))
        while True:
            bad = ~np.all((u > 0.0) & (u < 1.0), axis=1)
            if not bad.any():
                break
            u[bad] = rng.uniform(size=(int(bad.sum()), domain.dim))
    elif scheme == "tensor_grid":
        per_axis = round(count ** (1.0 / domain.dim))
        if per_axis ** domain.dim != count:
            raise GeometryError(
                f"tensor_grid count {count} is not a {domain.dim}-th power"
            )
        u = EvalGrid((np.arange(1, per_axis + 1) / (per_axis + 1),) * domain.dim)[:]
    else:
        raise GeometryError(f"unknown candidate scheme {scheme!r}")
    return PointSet(points=lo + (up - lo) * u, domain=domain)


def nested_equispaced_design(a: float, b: float, n0: int, num_levels: int) -> NestedDesign:
    """Nested equispaced interval designs with level sizes n0, 2*n0+1, ...

    Level k has the points i*(b-a)/(n_k+1), whose spacing halves from level
    to level; every level's points contain the previous level's exactly, and
    the master list orders each level's new points ascending. (Exact size
    doubling cannot be prefix-nested, so sizes follow n -> 2n+1.)
    """
    if n0 < 1 or num_levels < 1:
        raise GeometryError("need n0 >= 1 and num_levels >= 1")
    sizes = [n0]
    for _ in range(num_levels - 1):
        sizes.append(2 * sizes[-1] + 1)
    denom = sizes[-1] + 1
    seen = np.zeros(denom + 1, dtype=bool)
    order = []
    for n in sizes:
        step = denom // (n + 1)
        for i in range(step, denom, step):
            if not seen[i]:
                seen[i] = True
                order.append(i / denom)
    pts = a + (b - a) * np.asarray(order)[:, None]
    return NestedDesign(master=PointSet(points=pts, domain=Box.interval(a, b)),
                        levels=tuple(sizes))


def equispaced_interval(a: float, b: float, n: int) -> PointSet:
    """n interior equispaced points i*(b-a)/(n+1)."""
    x = a + (b - a) * np.arange(1, n + 1) / (n + 1)
    return PointSet(points=x[:, None], domain=Box.interval(a, b))
