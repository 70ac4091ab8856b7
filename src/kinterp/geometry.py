"""Point sets, fill/separation distances, and nested quasi-uniform designs.

A PointSet carries its axis-aligned domain box. Designs are prefix-nested:
one master ordered point list plus a list of prefix lengths, so the nesting
X_1 subset X_2 subset ... holds exactly. The geometric greedy selector
(iteratively add the candidate farthest from the current selection) produces
such designs from a candidate pool.

Fill distances are exact on intervals (closed form over the sorted gaps) and
probe-grid lower bounds in higher dimension, with error at most half the
probe spacing times sqrt(N).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .kernels import DISTINCTNESS_REL_TOL, DuplicateNodesError, _usable_cpus

SAMPLING_NONE = "none"
SAMPLING_WEAK_100 = "weak-100"
SAMPLING_STRONG_1200 = "strong-1200"


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
        if not np.all(lo < up):
            raise GeometryError("box must have lower < upper on every axis")

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
        if len(pts) > 1:
            from .kernels import min_pairwise_distance

            if min_pairwise_distance(pts) < DISTINCTNESS_REL_TOL * self.domain.diameter:
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


def separation_distance(X: PointSet) -> float:
    """Half the minimum pairwise distance."""
    from .kernels import min_pairwise_distance

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
    `probe` is an array of points or anything with a `.points` attribute.
    """
    probe_pts = np.atleast_2d(np.asarray(getattr(probe, "points", probe), float))
    if len(X) == 0 or probe_pts.shape[0] == 0:
        raise GeometryError("fill distance needs nonempty nodes and probe")
    if X.domain.dim == 1:
        # sorted scan, much faster than a tree for 10^6-point probes
        nodes = np.sort(X.points[:, 0])
        p = probe_pts[:, 0]
        idx = np.searchsorted(nodes, p)
        left = np.where(idx > 0, np.abs(p - nodes[np.maximum(idx - 1, 0)]), np.inf)
        right = np.where(idx < len(nodes), np.abs(nodes[np.minimum(idx, len(nodes) - 1)] - p), np.inf)
        return float(np.minimum(left, right).max())
    from scipy.spatial import cKDTree

    # each probe point is queried on its own, so the split across workers
    # cannot change the distances
    d, _ = cKDTree(X.points).query(probe_pts, workers=_usable_cpus())
    return float(np.max(d))


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

    levels       strictly increasing prefix lengths
    master       the full ordered point set
    fill_dists   per-level fill distance, as recorded at construction
    mesh_ratios  per-level h/q
    fill_source  how the recorded fill distances were measured
                 ("interval-exact" or "candidate-pool")
    """

    master: PointSet
    levels: tuple[int, ...]
    fill_dists: tuple[float, ...] = ()
    mesh_ratios: tuple[float, ...] = ()
    fill_source: str = "interval-exact"

    def __post_init__(self):
        lv = tuple(int(n) for n in self.levels)
        object.__setattr__(self, "levels", lv)
        if any(b <= a for a, b in zip(lv, lv[1:])):
            raise GeometryError("level counts must be strictly increasing")
        if lv and lv[-1] > len(self.master):
            raise GeometryError("largest level exceeds the master point count")

    @property
    def mesh_ratio_bound(self) -> float:
        return max(self.mesh_ratios) if self.mesh_ratios else float("nan")

    def level_points(self, i: int) -> PointSet:
        return self.master.prefix(self.levels[i])

    def __len__(self) -> int:
        return len(self.levels)


def _record_interval_ratios(master: PointSet, levels) -> tuple[tuple, tuple]:
    a, b = master.domain.lower[0], master.domain.upper[0]
    hs, rhos = [], []
    for n in levels:
        X = master.prefix(n)
        h = fill_distance_interval(X, a, b)
        hs.append(h)
        rhos.append(mesh_ratio(X, h) if n >= 2 else float("nan"))
    return tuple(hs), tuple(rhos)


def geometric_greedy(candidates: PointSet, m: int, seed_index: int = 0,
                     level_counts=None) -> NestedDesign:
    """Farthest-point selection of m points from a candidate pool.

    Starts at the seed candidate, then repeatedly adds the candidate with
    the largest distance to the already-selected set; ties break to the
    lowest candidate index, so the output is deterministic. Every prefix of
    the selection is a valid level; `level_counts` picks which prefixes are
    recorded as levels (default: just m).

    The recorded per-level fill distance is measured against the candidate
    pool (the selection distance of the next chosen point), a lower bound of
    the true fill distance that is tight for dense pools.
    """
    pts = candidates.points
    if not 1 <= m <= len(pts):
        raise GeometryError(f"cannot select {m} points from {len(pts)} candidates")
    if not 0 <= seed_index < len(pts):
        raise GeometryError(f"seed index {seed_index} out of range")

    order = np.empty(m, dtype=int)
    order[0] = seed_index
    diff = pts - pts[seed_index]
    dmin = np.sqrt(np.sum(diff * diff, axis=1))
    pool_h = np.empty(m)  # pool_h[k] = fill distance of the (k+1)-prefix w.r.t. the pool
    for k in range(1, m):
        pool_h[k - 1] = dmin.max()
        nxt = int(np.argmax(dmin))  # argmax takes the lowest index on ties
        order[k] = nxt
        diff = pts - pts[nxt]
        np.minimum(dmin, np.sqrt(np.sum(diff * diff, axis=1)), out=dmin)
    pool_h[m - 1] = dmin.max()

    master = candidates._subset(pts[order])
    levels = tuple(level_counts) if level_counts is not None else (m,)
    hs, rhos = [], []
    for n in levels:
        h = float(pool_h[n - 1])
        hs.append(h)
        rhos.append(mesh_ratio(master.prefix(n), h) if n >= 2 else float("nan"))
    return NestedDesign(master=master, levels=levels, fill_dists=tuple(hs),
                        mesh_ratios=tuple(rhos), fill_source="candidate-pool")


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
        axes = [(np.arange(1, per_axis + 1)) / (per_axis + 1)] * domain.dim
        mesh = np.meshgrid(*axes, indexing="ij")
        u = np.stack([m.reshape(-1) for m in mesh], axis=-1)
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
    master = PointSet(points=pts, domain=Box.interval(a, b))
    hs, rhos = _record_interval_ratios(master, sizes)
    return NestedDesign(master=master, levels=tuple(sizes), fill_dists=hs,
                        mesh_ratios=rhos, fill_source="interval-exact")


def equispaced_interval(a: float, b: float, n: int) -> PointSet:
    """n interior equispaced points i*(b-a)/(n+1)."""
    x = a + (b - a) * np.arange(1, n + 1) / (n + 1)
    return PointSet(points=x[:, None], domain=Box.interval(a, b))


def design_to_csv(design: NestedDesign, path) -> None:
    """Design file: one row per master point with the level at which the
    point enters (index into the levels list)."""
    dim = design.master.domain.dim
    marker = np.zeros(len(design.master), dtype=int)
    bounds = (0,) + design.levels
    for lev, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        marker[lo:hi] = lev
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["index"] + [f"x{j + 1}" for j in range(dim)] + ["level_marker"])
        for i, p in enumerate(design.master.points):
            w.writerow([i] + [repr(float(v)) for v in p] + [int(marker[i])])


def design_from_csv(path, domain: Box) -> NestedDesign:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    dim = len(header) - 2
    pts = np.array([[float(v) for v in r[1:1 + dim]] for r in body])
    markers = np.array([int(r[-1]) for r in body])
    levels = tuple(int(np.sum(markers <= lev)) for lev in range(markers.max() + 1))
    master = PointSet(points=pts, domain=domain)
    if domain.dim == 1:
        hs, rhos = _record_interval_ratios(master, levels)
        return NestedDesign(master=master, levels=levels, fill_dists=hs,
                            mesh_ratios=rhos, fill_source="interval-exact")
    return NestedDesign(master=master, levels=levels, fill_source="candidate-pool")
