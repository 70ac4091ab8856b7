import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kinterp import geometry as geo
from kinterp.geometry import (
    Box,
    EvalGrid,
    GeometryError,
    NestedDesign,
    PointSet,
    fill_distance_grid,
    fill_distance_interval,
    generate_candidates,
    geometric_greedy,
    mesh_ratio,
    nested_equispaced_design,
    sampling_condition,
    separation_distance,
)
from kinterp.kernels import DuplicateNodesError

from conftest import traced_peak

UNIT = Box.interval(0.0, 1.0)


def pset(values, domain=UNIT):
    return PointSet(points=np.asarray(values, float)[:, None], domain=domain)


def brute_force_fill(nodes, a, b, m=100001):
    probe = np.linspace(a, b, m)
    return float(np.min(np.abs(probe[:, None] - nodes[None, :]), axis=1).max())


def test_separation_single_pair():
    assert separation_distance(pset([0.0, 1.0])) == 0.5


def test_separation_three_points():
    # brute force over all pairs
    vals = [0.2, 0.5, 0.9]
    brute = 0.5 * min(abs(a - b) for i, a in enumerate(vals) for b in vals[i + 1:])
    assert separation_distance(pset(vals)) == pytest.approx(brute)
    assert separation_distance(pset(vals)) == pytest.approx(0.15)


def test_separation_needs_two_points():
    with pytest.raises(GeometryError):
        separation_distance(pset([0.5]))


def test_duplicate_points_rejected_upstream():
    with pytest.raises(DuplicateNodesError):
        pset([0.2, 0.2, 0.9])


def test_fill_interval_single_node():
    assert fill_distance_interval(pset([0.5]), 0.0, 1.0) == 0.5


def test_fill_interval_three_nodes_matches_brute_force():
    h = fill_distance_interval(pset([0.2, 0.5, 0.9]), 0.0, 1.0)
    brute = brute_force_fill(np.array([0.2, 0.5, 0.9]), 0.0, 1.0, m=1000001)
    assert h == pytest.approx(0.2, abs=1e-12)
    assert h == pytest.approx(brute, abs=2e-6)


def test_fill_interval_equispaced():
    for n in (4, 9, 31):
        x = np.arange(1, n + 1) / (n + 1)
        assert fill_distance_interval(pset(x), 0.0, 1.0) == pytest.approx(1.0 / (n + 1))


def test_fill_interval_unsorted_input_is_sorted():
    assert fill_distance_interval(pset([0.9, 0.2, 0.5]), 0, 1) == pytest.approx(0.2)


def test_fill_grid_identical_sets_is_zero():
    X = pset([0.1, 0.4, 0.8])
    assert fill_distance_grid(X, X.points) == 0.0


def test_fill_grid_matches_interval_formula():
    X = pset([0.2, 0.5, 0.9])
    probe = np.linspace(0, 1, 10 ** 6 + 1)[:, None]
    assert fill_distance_grid(X, probe) == pytest.approx(0.2, abs=2e-6)


def test_fill_grid_square_corners():
    # the center of the square is the farthest point from the corners
    corners = PointSet(points=[[0, 0], [0, 1], [1, 0], [1, 1]], domain=Box.unit_cube(2))
    ax = np.linspace(0, 1, 1001)
    mesh = np.meshgrid(ax, ax, indexing="ij")
    probe = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    h = fill_distance_grid(corners, probe)
    assert h == pytest.approx(np.sqrt(2) / 2, abs=2e-3)


def test_fill_grid_empty_rejected():
    X = pset([0.5])
    with pytest.raises(GeometryError):
        fill_distance_grid(X, np.empty((0, 1)))


def test_fill_grid_rejects_a_probe_of_another_width():
    # a flat probe would be read as one 11-coordinate point, and a 3-column
    # probe against 2-d nodes would lose its last column
    X = geo.equispaced_interval(0, 1, 4)
    probe = np.linspace(0.5, 1, 11)
    with pytest.raises(GeometryError, match="a 11-d probe for 1-d points"):
        fill_distance_grid(X, probe)
    assert fill_distance_grid(X, probe[:, None]) == pytest.approx(0.2)
    Y = PointSet(points=[[0.5, 0.5]], domain=Box.unit_cube(2))
    wide = np.random.default_rng(2).uniform(size=(50, 3))
    with pytest.raises(GeometryError, match="a 3-d probe for 2-d points"):
        fill_distance_grid(Y, wide)
    assert fill_distance_grid(Y, wide[:, :2]) > 0


def fill_search_cases(box, probe_points, rng):
    """Node sets for the bounded search, each against its full-query oracle."""
    lo, up = np.asarray(box.lower), np.asarray(box.upper)
    dim = box.dim
    on_probe = rng.choice(len(probe_points), size=min(5, len(probe_points)), replace=False)
    return {
        "random": lo + (up - lo) * rng.uniform(size=(17, dim)),
        "single node": lo + (up - lo) * rng.uniform(size=(1, dim)),
        "on probe points": probe_points[on_probe],
        # the corner distances are all close to the maximum, so nearly
        # every cell passes the first bound
        "corner cluster": lo + (up - lo) * 0.05 * rng.uniform(size=(6, dim)),
        # the maximum is tied at the center and the 2^dim box corners
        "symmetric": lo + (up - lo) * np.array(
            list(itertools.product((0.25, 0.75), repeat=dim))),
    }


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("per_axis", [2, 3, 8, 9, 19, 101])
def test_bounded_fill_search_equals_full_query(dim, per_axis):
    rng = np.random.default_rng(100 * dim + per_axis)
    boxes = [Box.unit_cube(dim),
             Box(lower=(-1.0,) + (0.0,) * (dim - 1), upper=(3.0,) + (0.25,) * (dim - 1))]
    for box in boxes:
        probe = EvalGrid.tensor(box, per_axis)
        assert len(probe) == per_axis ** dim
        probe_points = probe[:]
        for name, nodes in fill_search_cases(box, probe_points, rng).items():
            X = PointSet(points=nodes, domain=box)
            assert fill_distance_grid(X, probe) == fill_distance_grid(X, probe_points), name


def test_tensor_probe_rejects_mismatched_or_empty_input():
    X = PointSet(points=[[0.5, 0.5]], domain=Box.unit_cube(2))
    with pytest.raises(GeometryError):
        fill_distance_grid(X, EvalGrid.tensor(Box.unit_cube(3), 5))
    with pytest.raises(GeometryError):
        fill_distance_grid(X, EvalGrid((np.linspace(0, 1, 5), np.empty(0))))
    with pytest.raises(GeometryError):
        EvalGrid((np.zeros((2, 2)),))
    # a 1-d tensor probe is the sorted scan of its one axis
    Y = pset([0.2, 0.5, 0.9])
    ax = np.linspace(0, 1, 1001)
    assert fill_distance_grid(Y, EvalGrid((ax,))) == fill_distance_grid(Y, ax[:, None])


def square_greedy_design(pool):
    """The design of `configs/lebesgue_*_square.cfg` from a pool of `pool`
    low-discrepancy candidates."""
    domain = Box.unit_cube(2)
    cands = generate_candidates(domain, pool, "low_discrepancy")
    seed = int(np.argmin(np.sum((cands.points - 0.5) ** 2, axis=1)))
    return geometric_greedy(cands, 400, seed_index=seed, level_counts=[25, 50, 100, 200, 400])


@pytest.mark.parametrize("pool", [10000, 9300])
def test_bounded_fill_search_on_square_design(pool, monkeypatch):
    from scipy.spatial import cKDTree

    queried = [0]
    sweep = geo._nearest_distance_to

    def counting_sweep(points):
        nearest = sweep(points)

        def counted(queries):
            queried[0] += len(queries)
            return nearest(queries)

        return counted

    monkeypatch.setattr(geo, "_nearest_distance_to", counting_sweep)
    design = square_greedy_design(pool)
    probe = EvalGrid.tensor(Box.unit_cube(2), geo.DEFAULT_FILL_PROBE)
    probe_points = probe[:]
    for i in range(len(design)):
        X = design.level_points(i)
        queried[0] = 0
        h = fill_distance_grid(X, probe)
        searched = queried[0]
        assert h == fill_distance_grid(X, probe_points)
        assert queried[0] - searched == len(probe)  # the counter sees every query
        assert h == float(cKDTree(X.points).query(probe_points)[0].max())
    # at n = 400 the bounded search queries a small part of the probe, so a
    # silent fallback to the full query fails here
    assert searched < 0.05 * len(probe)


def test_3d_fill_search_holds_about_two_corner_grids():
    # one level of the cube configs: the 1001^3 probe has 126^3 cell
    # corners, 16 MB as one float64 array. The search holds the corner
    # distances and, at the last axis, the cells' squared diagonals, and
    # forms the bound in place of the first; the corner query fills one
    # array. Its temporaries took 4 corner-grid arrays before.
    box = Box.unit_cube(3)
    X = geometric_greedy(generate_candidates(box, 2000, "low_discrepancy"), 8, 0).master
    probe = EvalGrid.tensor(box, geo.DEFAULT_FILL_PROBE)
    corners = -(-(geo.DEFAULT_FILL_PROBE - 1) // geo.FILL_CELL) + 1
    h, peak = traced_peak(fill_distance_grid, X, probe)
    assert corners == 126 and 0.0 < h < box.diameter
    assert peak <= 2.2 * 8 * corners ** 3, f"peak {peak / 2**20:.1f} MiB"


@given(st.lists(st.floats(min_value=0.01, max_value=0.99), min_size=2, max_size=12,
                unique=True))
@settings(max_examples=60, deadline=None)
def test_q_le_h_with_exact_interval_fill(xs):
    assume(min(np.diff(sorted(xs))) > 1e-6)
    X = pset(sorted(xs))
    h = fill_distance_interval(X, 0.0, 1.0)
    assert separation_distance(X) <= h + 1e-15


@given(st.lists(st.floats(min_value=0.01, max_value=0.99), min_size=1, max_size=10,
                unique=True))
@settings(max_examples=40, deadline=None)
def test_fill_interval_agrees_with_probe_scan(xs):
    assume(len(xs) < 2 or min(np.diff(sorted(xs))) > 1e-6)
    X = pset(sorted(xs))
    exact = fill_distance_interval(X, 0.0, 1.0)
    probe = np.linspace(0, 1, 20001)[:, None]
    scanned = fill_distance_grid(X, probe)
    assert scanned <= exact + 1e-12
    assert exact - scanned <= 1e-4


def test_mesh_ratio_equispaced_is_two():
    n = 15
    X = pset(np.arange(1, n + 1) / (n + 1))
    h = fill_distance_interval(X, 0, 1)
    assert mesh_ratio(X, h) == pytest.approx(2.0)


def test_mesh_ratio_example():
    X = pset([0.2, 0.5, 0.9])
    h = fill_distance_interval(X, 0, 1)
    assert mesh_ratio(X, h) == pytest.approx(0.2 / 0.15)


def test_mesh_ratio_antipodal():
    X = pset([0.0, 1.0])
    h = fill_distance_interval(X, 0, 1)
    assert h == pytest.approx(0.5)
    assert mesh_ratio(X, h) == pytest.approx(1.0)


def test_sampling_condition_thresholds():
    tau, a, b = 2.0, 0.0, 1.0
    assert sampling_condition((b - a) / (100 * tau * tau), tau, a, b) == "weak-100"
    assert sampling_condition((b - a) / (1200 * tau * tau), tau, a, b) == "strong-1200"
    assert sampling_condition((b - a) / (50 * tau * tau), tau, a, b) == "none"


def test_monotone_under_prefix_nesting():
    rng = np.random.default_rng(8)
    cands = generate_candidates(Box.unit_cube(2), 2000, "uniform_random", seed=3)
    design = geometric_greedy(cands, 64, seed_index=0, level_counts=[4, 8, 16, 32, 64])
    probe = generate_candidates(Box.unit_cube(2), 4096, "low_discrepancy")
    hs, qs = [], []
    for i in range(len(design)):
        X = design.level_points(i)
        hs.append(fill_distance_grid(X, probe.points))
        qs.append(separation_distance(X))
    assert all(b <= a + 1e-12 for a, b in zip(hs, hs[1:]))
    assert all(b <= a + 1e-12 for a, b in zip(qs, qs[1:]))


def test_greedy_center_then_corner():
    pts = np.array([[0.5, 0.5], [0, 0], [0, 1], [1, 0], [1, 1]])
    cands = PointSet(points=pts, domain=Box.unit_cube(2))
    design = geometric_greedy(cands, 2, seed_index=0)
    # all corners tie; lowest candidate index wins
    assert np.array_equal(design.master.points[1], pts[1])


def test_greedy_single_point():
    cands = generate_candidates(UNIT, 100, "low_discrepancy")
    design = geometric_greedy(cands, 1, seed_index=7)
    assert len(design.master) == 1
    assert np.array_equal(design.master.points[0], cands.points[7])


def test_greedy_quasi_uniformity_on_interval():
    cands = generate_candidates(UNIT, 10 ** 4, "low_discrepancy")
    seed = int(np.argmin(np.abs(cands.points[:, 0] - 0.5)))
    levels = [8, 16, 32, 64]
    design = geometric_greedy(cands, 64, seed_index=seed, level_counts=levels)
    for i, n in enumerate(levels):
        X = design.level_points(i)
        h = fill_distance_interval(X, 0.0, 1.0)
        assert mesh_ratio(X, h) <= 2.5, f"level {n} not quasi-uniform"


def test_greedy_permutation_stable():
    rng = np.random.default_rng(17)
    pts = rng.uniform(size=(500, 2))
    cands = PointSet(points=pts, domain=Box.unit_cube(2))
    perm = rng.permutation(500)
    cands_perm = PointSet(points=pts[perm], domain=Box.unit_cube(2))
    seed, seed_perm = 3, int(np.where(perm == 3)[0][0])
    d1 = geometric_greedy(cands, 40, seed_index=seed)
    d2 = geometric_greedy(cands_perm, 40, seed_index=seed_perm)
    assert np.allclose(d1.master.points, d2.master.points)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_greedy_order_equals_row_sum_distance_selection(dim):
    # the per-axis distance update keeps the bits of the row sums of
    # (pts - p)^2, so it selects the same points in the same order
    pts = generate_candidates(Box.unit_cube(dim), 3000, "uniform_random", seed=dim).points
    m, seed_index = 200, 11
    order = [seed_index]
    diff = pts - pts[seed_index]
    dmin = np.sqrt(np.sum(diff * diff, axis=1))
    for _ in range(1, m):
        order.append(int(np.argmax(dmin)))
        diff = pts - pts[order[-1]]
        np.minimum(dmin, np.sqrt(np.sum(diff * diff, axis=1)), out=dmin)
    design = geometric_greedy(PointSet(points=pts, domain=Box.unit_cube(dim)), m, seed_index)
    assert np.array_equal(design.master.points, pts[order])


def test_subsets_of_a_checked_set_skip_the_duplicate_search(monkeypatch):
    # a prefix and the greedy master are rows of an already checked pool, and
    # a design records no geometry, so nothing searches for distances
    from kinterp import kernels

    cands = generate_candidates(Box.unit_cube(2), 500, "low_discrepancy")
    calls = []
    search = kernels.min_pairwise_distance

    def counted(points):
        calls.append(len(points))
        return search(points)

    monkeypatch.setattr(kernels, "min_pairwise_distance", counted)
    X = cands.prefix(40)
    assert calls == []
    assert np.array_equal(X.points, cands.points[:40]) and X.domain == cands.domain
    geometric_greedy(cands, 32, seed_index=0, level_counts=[8, 16, 32])
    assert calls == []
    for n in (0, 501):
        with pytest.raises(GeometryError, match="prefix length"):
            cands.prefix(n)


def test_greedy_m_out_of_range():
    cands = generate_candidates(UNIT, 10, "low_discrepancy")
    with pytest.raises(GeometryError):
        geometric_greedy(cands, 11, seed_index=0)


def test_tensor_grid_interior_offsets():
    X = generate_candidates(UNIT, 3, "tensor_grid")
    assert np.allclose(np.sort(X.points[:, 0]), [0.25, 0.5, 0.75])


def test_tensor_grid_needs_power_count():
    with pytest.raises(GeometryError):
        generate_candidates(Box.unit_cube(2), 10, "tensor_grid")


def test_uniform_random_deterministic_per_seed():
    a = generate_candidates(Box.unit_cube(2), 50, "uniform_random", seed=42)
    b = generate_candidates(Box.unit_cube(2), 50, "uniform_random", seed=42)
    assert np.array_equal(a.points, b.points)


def test_low_discrepancy_deterministic_and_interior():
    a = generate_candidates(Box.unit_cube(2), 1000, "low_discrepancy")
    b = generate_candidates(Box.unit_cube(2), 1000, "low_discrepancy")
    assert np.array_equal(a.points, b.points)
    assert np.all((a.points > 0) & (a.points < 1))


def test_greedy_subset_beats_random_subset_on_fill():
    # greedy 50-point subsets cover better than random 50-point subsets
    cands = generate_candidates(Box.unit_cube(2), 100, "low_discrepancy")
    probe = generate_candidates(Box.unit_cube(2), 4096, "low_discrepancy")
    greedy_h = fill_distance_grid(
        geometric_greedy(cands, 50, seed_index=0).master, probe.points)
    rng_hs = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        idx = rng.choice(100, size=50, replace=False)
        X = PointSet(points=cands.points[idx], domain=Box.unit_cube(2))
        rng_hs.append(fill_distance_grid(X, probe.points))
    assert greedy_h < np.mean(rng_hs)


def test_nested_equispaced_prefix_nesting():
    design = nested_equispaced_design(0.0, 1.0, 4, 3)
    assert design.levels == (4, 9, 19)
    # every level is exactly the equispaced set of its size
    for i, n in enumerate(design.levels):
        X = design.level_points(i)
        expect = np.arange(1, n + 1) / (n + 1)
        assert np.allclose(np.sort(X.points[:, 0]), expect, atol=1e-15)


def _nested_equispaced_reference(a, b, n0, num_levels):
    """The master points listed by a walk over every grid index of every
    level that keeps the indices not seen before: the reference for the
    direct listing."""
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
    return a + (b - a) * np.asarray(order)[:, None]


@pytest.mark.parametrize("a, b", [(0.0, 1.0), (-1.0, 2.5), (0.1, 0.3)])
def test_nested_equispaced_master_equals_the_seen_walk(a, b):
    for n0 in range(1, 40):
        for num_levels in range(1, 8):
            design = nested_equispaced_design(a, b, n0, num_levels)
            expect = _nested_equispaced_reference(a, b, n0, num_levels)
            assert design.master.points.tobytes() == expect.tobytes(), (n0, num_levels)
            assert design.master.points.shape == expect.shape


def test_nested_equispaced_recorded_geometry():
    design = nested_equispaced_design(0.0, 1.0, 8, 4)
    for i, n in enumerate(design.levels):
        X = design.level_points(i)
        h = fill_distance_interval(X, 0.0, 1.0)
        assert h == pytest.approx(1.0 / (n + 1))
        assert mesh_ratio(X, h) == pytest.approx(2.0)


def test_levels_must_increase():
    X = pset(np.arange(1, 10) / 10.0)
    with pytest.raises(GeometryError):
        NestedDesign(master=X, levels=(4, 4))


def test_design_holds_only_points_and_levels():
    # a level's geometry is measured by diagnostics.measure_levels, not recorded
    assert [f.name for f in dataclasses.fields(NestedDesign)] == ["master", "levels"]


@pytest.mark.parametrize("lower, upper", [
    ((float("nan"),), (1.0,)), ((0.0,), (float("inf"),)),
    ((0.0, float("-inf")), (1.0, 1.0)), ((0.0, 0.0), (1.0, float("inf"))),
    ((0.0, 0.0), (1.0, float("nan"))),
])
def test_box_rejects_non_finite_bounds(lower, upper):
    # an infinite upper bound once gave a 2-d Lebesgue trace with h = nan,
    # q = inf and Lambda = 0.0 under jitter flag none, and exit 0
    with pytest.raises(GeometryError, match="finite"):
        Box(lower=lower, upper=upper)


def test_point_outside_box_rejected():
    with pytest.raises(GeometryError):
        PointSet(points=[[1.5]], domain=UNIT)
