import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinterp import kernels
from kinterp.geometry import Box, EvalGrid, PointSet
from kinterp.interpolation import EVAL_CHUNK
from kinterp.kernels import (
    DomainError,
    DimensionMismatchError,
    DuplicateNodesError,
    GridLines,
    assemble_gram,
    gaussian,
    interval_sobolev,
    kernel_matrix,
    line_table,
    matern,
    mirror_upper,
)

finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


def test_matern12_at_zero_distance():
    assert kernels.eval(matern(0.5), 0.0, 0.0) == 1.0


def test_matern32_at_unit_distance_matches_closed_form():
    # (1 + r) e^{-r} at r = 1
    val = kernels.eval(matern(1.5), 0.0, 1.0)
    assert val == pytest.approx(2.0 * math.exp(-1.0), abs=1e-12)
    assert val == pytest.approx(0.7357589, abs=5e-8)


def test_matern_values_at_origin():
    # profiles at r=0 under unit normalization: 1, 1, 3
    assert kernels.eval(matern(0.5), 0.3, 0.3) == 1.0
    assert kernels.eval(matern(1.5), 0.3, 0.3) == 1.0
    assert kernels.eval(matern(2.5), 0.3, 0.3) == 3.0


def test_gamma_scales_distance():
    # k(x, y) = profile(gamma * |x - y|)
    assert kernels.eval(matern(0.5), 0.0, 0.2) == pytest.approx(math.exp(-0.2))
    assert kernels.eval(matern(0.5, gamma=10.0), 0.0, 0.2) == pytest.approx(math.exp(-2.0))


def test_gaussian_value():
    assert kernels.eval(gaussian(10.0), 0.0, 0.1) == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_w21_diagonal_at_left_endpoint():
    k = interval_sobolev(0.0, 1.0)
    assert kernels.eval(k, 0.0, 0.0) == pytest.approx(math.cosh(1.0) / math.sinh(1.0), abs=1e-12)


def test_w21_outside_interval_rejected():
    k = interval_sobolev(0.0, 1.0)
    with pytest.raises(DomainError):
        kernels.eval(k, -0.1, 0.5)


def test_w21_reproducing_property_against_quadrature():
    # <k(x,.), k(y,.)>_{W21} = int k(x,t) k(y,t) dt + int dk(x,t) dk(y,t) dt
    # must reproduce k(x, y); inner products integrated numerically with the
    # closed-form derivative, independent of the library evaluation path.
    a, b = 0.0, 1.0
    k = interval_sobolev(a, b)

    def kfun(x, t):
        lo, hi = min(x, t), max(x, t)
        return math.cosh(b - hi) * math.cosh(lo - a) / math.sinh(b - a)

    def kderiv(x, t):
        # d/dt of the two-branch formula
        if t < x:
            return math.cosh(b - x) * math.sinh(t - a) / math.sinh(b - a)
        return -math.sinh(b - t) * math.cosh(x - a) / math.sinh(b - a)

    def trapz_piecewise(f, breaks):
        # k(x,.) has a derivative jump at x; integrate between breakpoints,
        # nudging segment endpoints inward so one-sided limits are used
        total = 0.0
        for lo, hi in zip(breaks, breaks[1:]):
            if hi <= lo:
                continue
            ts = np.linspace(lo, hi, 4001)
            eval_ts = np.clip(ts, lo + 1e-9, hi - 1e-9)
            vals = np.array([f(t) for t in eval_ts])
            total += float(np.trapezoid(vals, ts))
        return total

    for x, y in [(0.3, 0.7), (0.0, 0.5), (0.25, 0.25)]:
        breaks = sorted({a, x, y, b})
        inner = trapz_piecewise(
            lambda t: kfun(x, t) * kfun(y, t) + kderiv(x, t) * kderiv(y, t), breaks)
        assert inner == pytest.approx(kernels.eval(k, x, y), abs=5e-7)


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionMismatchError):
        kernels.eval(matern(1.5, dim=2), [0.0, 0.0], [1.0])
    with pytest.raises(DimensionMismatchError):
        kernel_matrix(matern(1.5, dim=1), [[0.0, 1.0]], [[0.5, 0.5]])


def test_eval_is_pure():
    k = matern(1.5, gamma=3.7, dim=2)
    a = kernels.eval(k, [0.11, 0.62], [0.48, 0.91])
    b = kernels.eval(k, [0.11, 0.62], [0.48, 0.91])
    assert a == b


def test_batch_matrix_bit_equal_to_scalar_eval():
    k = matern(2.5, gamma=2.0, dim=2)
    rng = np.random.default_rng(3)
    X = rng.uniform(size=(7, 2))
    Y = rng.uniform(size=(5, 2))
    M = kernel_matrix(k, X, Y)
    for i in range(7):
        for j in range(5):
            assert M[i, j] == kernels.eval(k, X[i], Y[j])


def _tensor_kernel_matrix(k, X, Y):
    """Reference: the (len(X), len(Y), dim) difference tensor summed over
    its last axis, then the profile applied out of place."""
    diff = X[:, None, :] - Y[None, :, :]
    r = k.gamma * np.sqrt(np.sum(diff * diff, axis=2))
    if k.family == "gaussian":
        return np.exp(-(r * r))
    if k.nu == 0.5:
        return np.exp(-r)
    if k.nu == 1.5:
        return (1.0 + r) * np.exp(-r)
    return (3.0 + 3.0 * r + r * r) * np.exp(-r)


@pytest.mark.parametrize("dim", [1, 2, 3, 7])
@pytest.mark.parametrize("make", [lambda g, d: matern(0.5, gamma=g, dim=d),
                                  lambda g, d: matern(1.5, gamma=g, dim=d),
                                  lambda g, d: matern(2.5, gamma=g, dim=d),
                                  lambda g, d: gaussian(gamma=g, dim=d)],
                         ids=["matern12", "matern32", "matern52", "gaussian"])
def test_kernel_matrix_bit_equal_to_tensor_formula(make, dim):
    # per-axis accumulation adds the squared differences in axis order, as
    # numpy's sum does over fewer than 8 terms
    rng = np.random.default_rng(dim)
    X = rng.uniform(-1.0, 2.0, size=(37, dim))
    Y = rng.uniform(-1.0, 2.0, size=(23, dim))
    for gamma in (1.0, 0.37, 10.0):
        k = make(gamma, dim)
        M = kernel_matrix(k, X, Y)
        assert M.shape == (37, 23)
        assert np.array_equal(M, _tensor_kernel_matrix(k, X, Y))
        # a column slice of a wider block equals the block of the sliced nodes
        assert np.array_equal(M[:, 5:17], kernel_matrix(k, X, Y[5:17]))


@given(x=finite, y=finite)
@settings(max_examples=50, deadline=None)
def test_symmetry_matern(x, y):
    k = matern(1.5, gamma=2.0)
    assert kernels.eval(k, x, y) == kernels.eval(k, y, x)


@given(x=st.floats(min_value=0.0, max_value=1.0), y=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=50, deadline=None)
def test_symmetry_w21(x, y):
    k = interval_sobolev(0.0, 1.0)
    assert kernels.eval(k, x, y) == kernels.eval(k, y, x)


@pytest.mark.parametrize("kernel", [matern(0.5), matern(1.5), matern(2.5),
                                    gaussian(2.0), interval_sobolev(0.0, 1.0)])
def test_diagonal_positive(kernel):
    assert kernels.eval(kernel, 0.4, 0.4) > 0


def _random_pointset(rng, n, dim):
    return PointSet(points=rng.uniform(0.05, 0.95, size=(n, dim)),
                    domain=Box.unit_cube(dim))


@pytest.mark.parametrize("make", [lambda: matern(0.5, gamma=2.0, dim=2),
                                  lambda: matern(1.5, gamma=2.0, dim=2),
                                  lambda: matern(2.5, gamma=2.0, dim=2),
                                  lambda: gaussian(2.0, dim=2),
                                  lambda: interval_sobolev(0.0, 1.0)])
def test_small_gram_strictly_positive_definite(make):
    kernel = make()
    rng = np.random.default_rng(11)
    X = _random_pointset(rng, 6, kernel.dim)
    K = assemble_gram(kernel, X).entries
    assert np.linalg.eigvalsh(K).min() > 0


def test_gram_symmetric_to_the_last_bit():
    rng = np.random.default_rng(5)
    X = _random_pointset(rng, 6, 2)
    K = assemble_gram(matern(1.5, dim=2), X).entries
    assert np.array_equal(K, K.T)


def test_gram_diagonal_matches_eval():
    X = PointSet(points=[[0.2], [0.6], [0.9]], domain=Box.interval(0, 1))
    k = interval_sobolev(0.0, 1.0)
    K = assemble_gram(k, X).entries
    for i, x in enumerate(X.points[:, 0]):
        assert K[i, i] == kernels.eval(k, x, x)


def test_gram_entries_match_eval_exactly():
    rng = np.random.default_rng(9)
    X = _random_pointset(rng, 5, 2)
    k = matern(2.5, gamma=3.0, dim=2)
    K = assemble_gram(k, X).entries
    for i in range(5):
        for j in range(5):
            assert K[i, j] == kernels.eval(k, X.points[i], X.points[j])


def test_single_node_gram():
    X = PointSet(points=[[0.5]], domain=Box.interval(0, 1))
    K = assemble_gram(matern(2.5), X).entries
    assert K.shape == (1, 1) and K[0, 0] == 3.0


def test_two_node_gram_closed_form():
    X = PointSet(points=[[0.0], [1.0]], domain=Box.interval(-0.5, 1.5))
    K = assemble_gram(matern(0.5), X).entries
    e1 = math.exp(-1.0)
    assert np.allclose(K, [[1.0, e1], [e1, 1.0]], rtol=0, atol=1e-15)


def test_duplicate_nodes_rejected():
    pts = np.array([[0.3], [0.3 + 1e-15], [0.9]])
    with pytest.raises(DuplicateNodesError):
        assemble_gram(matern(1.5), pts)


def test_factorization_without_jitter_at_moderate_separation():
    # Matern Grams stay positive definite in float64 whenever the nodes are
    # separated by more than 1e-3
    from kinterp.interpolation import factorize

    rng = np.random.default_rng(21)
    for nu in (0.5, 1.5, 2.5):
        for _ in range(5):
            pts = np.sort(rng.uniform(0.0, 1.0, size=8))
            while np.diff(pts).min() < 2e-3:
                pts = np.sort(rng.uniform(0.0, 1.0, size=8))
            X = PointSet(points=pts[:, None], domain=Box.interval(0, 1))
            fact = factorize(assemble_gram(matern(nu), X))
            assert fact.jitter == 0.0


def test_invalid_parameters_rejected():
    with pytest.raises(kernels.KernelError):
        matern(1.0)  # not a supported half-integer
    for gamma in (0.0, float("nan"), float("inf")):
        with pytest.raises(kernels.KernelError, match="gamma"):
            matern(1.5, gamma=gamma)
    with pytest.raises(kernels.KernelError):
        interval_sobolev(1.0, 0.0)
    with pytest.raises(kernels.KernelError):
        kernels.Kernel(family="w21", dim=2, interval=(0.0, 1.0))


def test_sobolev_order():
    assert matern(1.5, dim=1).sobolev_order_tau == 2.0
    assert matern(2.5, dim=2).sobolev_order_tau == 3.5
    assert interval_sobolev(0, 1).sobolev_order_tau == 1.0
    assert math.isinf(gaussian(1.0).sobolev_order_tau)


def _full_triangle_gram(k, pts):
    """Reference: the full n x n kernel matrix, its upper triangle mirrored."""
    K = kernel_matrix(k, pts, pts)
    return np.triu(K) + np.triu(K, 1).T


_GRAM_CASES = [(name, make, dim)
               for name, make in [("matern12", lambda d: matern(0.5, gamma=2.0, dim=d)),
                                  ("matern32", lambda d: matern(1.5, gamma=2.0, dim=d)),
                                  ("matern52", lambda d: matern(2.5, gamma=2.0, dim=d)),
                                  ("gaussian", lambda d: gaussian(3.0, dim=d))]
               for dim in (1, 2, 3)]
_GRAM_CASES.append(("w21", lambda d: interval_sobolev(0.0, 1.0), 1))


@pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 600])
@pytest.mark.parametrize("name, make, dim", _GRAM_CASES,
                         ids=[f"{name}-d{dim}" for name, _, dim in _GRAM_CASES])
def test_blocked_gram_bit_equal_to_full_triangle_formula(name, make, dim, n):
    # the row blocks of the upper triangle cross GRAM_ROW_BLOCK edges at 256
    k = make(dim)
    rng = np.random.default_rng(100 * dim + n)
    X = _random_pointset(rng, n, dim)
    K = assemble_gram(k, X).entries
    assert np.array_equal(K, _full_triangle_gram(k, X.points))
    assert np.array_equal(K, K.T)
    # a plain array takes the same path after its duplicate-node check
    assert np.array_equal(assemble_gram(k, X.points).entries, K)


@pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 600])
def test_mirror_upper_copies_the_strict_upper_triangle(n):
    # the square tiles cross GRAM_ROW_BLOCK edges at 256; a transposed view
    # (a handed-over buffer) is mirrored the same way
    A = np.random.default_rng(n).normal(size=(n, n))
    want = np.triu(A) + np.triu(A, 1).T
    for view in (A.copy(), A.T.copy().T):
        mirror_upper(view)
        assert np.array_equal(view, want)


def _serial_mirror(A):
    # the tile order of a one-thread mirror: each column of tiles in turn,
    # its diagonal tile first
    B, n = kernels.GRAM_ROW_BLOCK, A.shape[0]
    for j0 in range(0, n, B):
        cols = slice(j0, j0 + B)
        tile = A[cols, cols]
        np.copyto(tile, tile.T, where=np.tri(tile.shape[0], k=-1, dtype=bool))
        for i0 in range(j0 + B, n, B):
            A[i0:i0 + B, cols] = A[cols, i0:i0 + B].T


@pytest.mark.parametrize("n", [1, 255, 256, 257, 1087])
def test_threaded_mirror_bit_equal_to_serial_tile_order(n, tile_workers):
    # also with more workers than cores and frequent thread switches: a
    # tile pair lost, taken twice or raced leaves a wrong or unset entry
    import sys

    A = np.random.default_rng(n).normal(size=(n, n))
    A[0, -1] = -0.0  # compared bit for bit, so the sign of zero counts
    ref = A.copy()
    _serial_mirror(ref)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for count in (1, 3, (os.cpu_count() or 1) + 1):
            tile_workers(count)
            for view in (A.copy(), A.T.copy().T):  # a handed-over buffer is F-order
                mirror_upper(view)
                assert np.array_equal(view.view(np.uint64), ref.view(np.uint64))
            # one tile pair runs in the caller; more go on the pool
            assert (kernels._pool is not None) == (count > 1 and n > kernels.GRAM_ROW_BLOCK)
    finally:
        sys.setswitchinterval(interval)


def test_mirror_allocates_no_tile_temporary(tile_workers):
    # a diagonal tile mirrored through its whole overlapping transpose
    # would copy 512 KiB per worker; its panels leave small squares only,
    # so at n = 1087 the traced peak stays under 64 KiB on 1 and 3 workers
    from conftest import traced_peak

    A = np.random.default_rng(4).normal(size=(1087, 1087))
    for count in (1, 3):
        tile_workers(count)
        for view in (A.copy(), A.T.copy().T):  # a handed-over buffer is F-order
            _, peak = traced_peak(mirror_upper, view)
            assert peak <= 64 * 1024, f"{count} workers: mirror peak {peak} B > 64 KiB"


def test_point_set_gram_skips_second_duplicate_check(monkeypatch):
    # PointSet construction already applied the duplicate-node rule
    X = _random_pointset(np.random.default_rng(8), 30, 2)

    def fail(points):
        raise AssertionError("duplicate check repeated")

    monkeypatch.setattr(kernels, "min_pairwise_distance", fail)
    assemble_gram(matern(1.5, dim=2), X)
    with pytest.raises(AssertionError, match="repeated"):
        assemble_gram(matern(1.5, dim=2), X.points)


def _kd_tree_min_distance(pts):
    from scipy.spatial import cKDTree

    d, _ = cKDTree(pts).query(pts, k=2)
    return float(d[:, 1].min())


def test_min_pairwise_distance_1d_equals_kd_tree():
    from kinterp.geometry import nested_equispaced_design

    rng = np.random.default_rng(17)
    master = nested_equispaced_design(0.0, 1.0, 16, 9).master.points[:, 0]
    sets = [master[:n] for n in (2, 3, 16, 33, 100, 1087, 4351)]
    sets += [rng.uniform(-1.0, 1.0, size=n) for n in (2, 3, 10, 500)]
    for spacing in 10.0 ** np.arange(-6, 7):
        sets.append(0.3 + spacing * rng.permutation(np.arange(50.0)))
        sets.append(-7.0 + spacing * np.cumsum(rng.uniform(0.5, 1.5, size=50)))
    sets.append(np.array([0.2, 0.9, 0.2]))  # exact duplicate: distance 0
    for x in sets:
        assert kernels.min_pairwise_distance(x[:, None]) == _kd_tree_min_distance(x[:, None])


# Candidate counts of the 16 variants of the `square_lebesgue` benchmark
# workload (perfbench/workloads.py), each a low-discrepancy pool in the unit
# square: the largest duplicate checks a 2-d run makes.
SQUARE_VARIANT_POOLS = (10000, 9800, 10200, 9800, 9300, 9300, 9700, 9400,
                        9200, 10800, 10100, 9400, 10200, 10000, 10300, 10200)


def _sweep_cases(dim, rng):
    """Point sets for the sweep against the kd-tree oracle."""
    from kinterp.geometry import generate_candidates

    unit = Box.unit_cube(dim)
    per_axis = {1: 900, 2: 30, 3: 9}[dim]
    cases = {f"random {n}": rng.uniform(-1.0, 2.0, size=(n, dim)) for n in (2, 3, 17, 400)}
    # many points tie on every axis, the sweep axis included
    cases["tensor grid"] = generate_candidates(unit, per_axis ** dim, "tensor_grid").points
    cases["snapped"] = np.round(rng.uniform(size=(300, dim)) * 16) / 16
    cases["low discrepancy"] = generate_candidates(unit, 1000, "low_discrepancy").points
    for axis in range(dim):
        shared = rng.uniform(size=(200, dim))
        shared[:, axis] = 0.3  # all points share one coordinate
        cases[f"shared axis {axis}"] = shared
    # a dense cluster far out along one axis widens the spread of that axis
    cases["far cluster"] = np.vstack([rng.uniform(size=(50, dim)),
                                      [1e6] + [0.0] * (dim - 1) + 1e-3 * rng.uniform(size=(20, dim))])
    return cases


@pytest.mark.parametrize("count", sorted(set(SQUARE_VARIANT_POOLS)))
def test_min_pairwise_distance_on_square_pools_equals_kd_tree(count):
    from kinterp.geometry import generate_candidates

    pts = generate_candidates(Box.unit_cube(2), count, "low_discrepancy").points
    assert kernels.min_pairwise_distance(pts) == _kd_tree_min_distance(pts)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_min_pairwise_distance_equals_kd_tree(dim):
    rng = np.random.default_rng(40 + dim)
    for name, pts in _sweep_cases(dim, rng).items():
        assert kernels.min_pairwise_distance(pts) == _kd_tree_min_distance(pts), name
        # a second copy of one point gives 0
        dup = np.vstack([pts, pts[len(pts) // 2]])
        assert kernels.min_pairwise_distance(dup) == 0.0 == _kd_tree_min_distance(dup), name


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_nearest_distances_equal_kd_tree(dim):
    from scipy.spatial import cKDTree

    rng = np.random.default_rng(50 + dim)
    for name, nodes in _sweep_cases(dim, rng).items():
        lo, up = nodes.min(axis=0), nodes.max(axis=0)
        queries = np.vstack([
            lo + (up - lo) * rng.uniform(-0.2, 1.2, size=(2000, dim)),
            nodes[rng.choice(len(nodes), size=min(len(nodes), 50), replace=False)],
            np.round(rng.uniform(size=(300, dim)) * 16) / 16,
        ])
        expected, _ = cKDTree(nodes).query(queries)
        got = kernels._nearest_distance_to(nodes)(queries)
        assert np.array_equal(got, expected), name
        # queries that sit on nodes are at distance 0
        assert not got[2000:2000 + min(len(nodes), 50)].any(), name


# ---------------------------------------------------------------- row tiles


def _one_pass_kernel_matrix(k, X, Y):
    """Reference: the whole block in one pass, each ufunc applied to the
    full (len(X), len(Y)) array in the order kernel_matrix uses per tile."""
    X = np.atleast_2d(np.asarray(X, float))
    Y = np.atleast_2d(np.asarray(Y, float))
    if k.family == "w21":
        a, b = k.interval
        lo = np.minimum(X[:, :1], Y[:, 0])
        hi = np.maximum(X[:, :1], Y[:, 0])
        return np.cosh(b - hi) * np.cosh(lo - a) / np.sinh(b - a)
    r = np.subtract.outer(X[:, 0], Y[:, 0])
    r *= r
    for j in range(1, k.dim):
        d = np.subtract.outer(X[:, j], Y[:, j])
        r += d * d
    np.sqrt(r, out=r)
    r *= k.gamma
    if k.family == "gaussian":
        return np.exp(-(r * r))
    e = np.exp(-r)
    if k.nu == 0.5:
        return e
    if k.nu == 1.5:
        return (r + 1.0) * e
    return (r * 3.0 + 3.0 + r * r) * e


_TILE_KERNELS = [(name, make, dim)
                 for name, make in [("matern12", lambda d: matern(0.5, gamma=3.0, dim=d)),
                                    ("matern32", lambda d: matern(1.5, gamma=3.0, dim=d)),
                                    ("matern52", lambda d: matern(2.5, gamma=3.0, dim=d)),
                                    ("gaussian", lambda d: gaussian(3.0, dim=d))]
                 for dim in (1, 2, 3)]
_TILE_KERNELS.append(("w21", lambda d: interval_sobolev(0.0, 1.0), 1))


def _tile_rows(cols):
    return kernels.TILE_BYTES // (8 * cols)


@pytest.mark.parametrize("name, make, dim", _TILE_KERNELS,
                         ids=[f"{name}-d{dim}" for name, _, dim in _TILE_KERNELS])
def test_tiled_kernel_matrix_bit_equal_to_one_pass(name, make, dim):
    k = make(dim)
    rng = np.random.default_rng(dim)
    Y = rng.uniform(0.0, 1.0, size=(300, dim))
    shapes = [(0, 300), (1, 300), (_tile_rows(300), 300),  # exactly one tile
              (3 * _tile_rows(300) + 17, 300),  # a ragged last tile
              (_tile_rows(1) + 5, 1)]  # a single column over two tiles
    for m, n in shapes:
        X = rng.uniform(0.0, 1.0, size=(m, dim))
        X[: min(m, 4)] = Y[:min(m, 4)]  # exact node hits: distance 0
        M = kernel_matrix(k, X, Y[:n])
        assert M.shape == (m, n)
        assert np.array_equal(M, _one_pass_kernel_matrix(k, X, Y[:n]))
        if m:
            assert M[0, 0] == kernels.eval(k, X[0], Y[0])
        # filled into the leading rows of a reused buffer: the same bits
        view = np.full((m + 3, n), np.nan)[:m]
        assert kernel_matrix(k, X, Y[:n], out=view) is view
        assert np.array_equal(view, M)


def test_kernel_matrix_rejects_a_mismatched_out():
    k, X, Y = matern(1.5), np.zeros((4, 1)), np.ones((3, 1))
    for out in (np.empty((4, 4)), np.empty((3, 3)), np.empty((4, 3), np.float32)):
        with pytest.raises(ValueError, match="need \\(4, 3\\) float64"):
            kernel_matrix(k, X, Y, out=out)


# ---------------------------------------------------------- grid lines


_LINE_KERNELS = {"matern12": lambda d: matern(0.5, gamma=3.0, dim=d),
                 "matern32": lambda d: matern(1.5, gamma=3.0, dim=d),
                 "matern52": lambda d: matern(2.5, gamma=3.0, dim=d),
                 "gaussian": lambda d: gaussian(3.0, dim=d)}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("per_axis", [(7, 11), (5, 6, 9)])
@pytest.mark.parametrize("name", list(_LINE_KERNELS))
def test_grid_lines_fill_bit_equal_to_the_fill_of_their_points(
        name, per_axis, workers, tile_workers, monkeypatch):
    tile_workers(workers)
    dim = len(per_axis)
    k = _LINE_KERNELS[name](dim)
    # unequal axes on a box with negative coordinates
    axes = tuple(np.linspace(-1.5 - j, 0.25 + 0.5 * j, m) for j, m in enumerate(per_axis))
    grid, line = EvalGrid(axes), per_axis[-1]
    rng = np.random.default_rng(dim)
    # 5 nodes on grid points (distance 0), the others off the grid
    Y = np.vstack([grid[:][rng.choice(len(grid), 5, replace=False)],
                   rng.uniform(-2.5, 1.0, size=(35, dim))])
    # 4-row tiles, which end inside lines
    monkeypatch.setattr(kernels, "TILE_BYTES", 4 * 8 * len(Y))
    for nodes in (Y, Y[:1], Y[5:6]):  # one node on the grid, one off it
        table = line_table(axes[-1], nodes)
        buffer = np.empty((len(grid), len(nodes)))
        # blocks of 1 and 3 whole lines, as a scan cuts them, the last one
        # partial, and one block that starts and stops inside lines
        blocks = [(a, min(a + step, len(grid))) for step in (line, 3 * line)
                  for a in range(0, len(grid), step)] + [(3, 5 * line - 2)]
        for a, b in blocks:
            got = kernel_matrix(k, GridLines(axes, slice(a, b), table), nodes,
                                out=buffer[:b - a])
            assert np.array_equal(got, kernel_matrix(k, grid[a:b], nodes)), (a, b)
    assert (kernels._pool is not None) == (workers == 2)


def test_grid_lines_fill_of_lines_longer_than_a_scan_chunk():
    # a 2-d grid whose lines are longer than EVAL_CHUNK, each line cut as a
    # scan cuts it, into the fewest equal pieces of at most EVAL_CHUNK rows:
    # two of 545 and 544, the second starting inside the line
    k = matern(1.5, gamma=3.0, dim=2)
    line = 2 * EVAL_CHUNK - 63
    axes = (np.array([-0.5, 0.25, 1.0]), np.linspace(-1.0, 2.0, line))
    grid = EvalGrid(axes)
    Y = np.random.default_rng(5).uniform(-1.0, 2.0, size=(12, 2))
    table = line_table(axes[-1], Y)
    pieces = [p for rows in np.split(np.arange(len(grid)), len(axes[0]))
              for p in np.array_split(rows, 2)]
    assert [len(p) for p in pieces] == [545, 544] * 3
    for p in pieces:
        rows = slice(p[0], p[-1] + 1)
        assert np.array_equal(kernel_matrix(k, GridLines(axes, rows, table), Y),
                              kernel_matrix(k, grid[rows], Y))


def test_grid_lines_need_two_axes_and_a_table_of_their_nodes():
    axes = (np.linspace(0.0, 1.0, 4), np.linspace(0.0, 1.0, 5))
    Y = np.full((3, 2), 0.5)
    lines = GridLines(axes, slice(0, 20), line_table(axes[-1], Y))
    assert kernel_matrix(matern(1.5, dim=2), lines, Y).shape == (20, 3)
    with pytest.raises(DimensionMismatchError):
        kernel_matrix(matern(1.5, dim=2), lines, Y[:2])
    with pytest.raises(DimensionMismatchError):
        kernel_matrix(matern(1.5, dim=3), lines, np.full((3, 3), 0.5))
    line = GridLines(axes[1:], slice(0, 5), line_table(axes[-1], Y))
    with pytest.raises(DimensionMismatchError):
        kernel_matrix(matern(1.5), line, Y[:, :1])


def test_concurrent_callers_get_their_own_blocks(monkeypatch):
    # more callers and pool workers than cores, with frequent thread
    # switches: a tile lost or taken twice leaves a wrong or unset row
    import sys
    import threading

    monkeypatch.setattr(kernels, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(kernels, "_pool", None)
    k = matern(2.5, gamma=3.0, dim=2)
    rng = np.random.default_rng(4)
    Y = rng.uniform(size=(400, 2))
    inputs = [rng.uniform(size=(5000, 2)) for _ in range(4)]
    expected = [_one_pass_kernel_matrix(k, X, Y) for X in inputs]
    results = [[] for _ in inputs]

    def call(i):
        for _ in range(3):
            results[i].append(kernel_matrix(k, inputs[i], Y))

    threads = [threading.Thread(target=call, args=(i,)) for i in range(len(inputs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
        if kernels._pool is not None:
            kernels._pool.shutdown(wait=False)
    assert not any(t.is_alive() for t in threads)
    for i in range(len(inputs)):
        assert len(results[i]) == 3
        assert all(np.array_equal(M, expected[i]) for M in results[i])


def test_one_tile_calls_run_inline(monkeypatch):
    def no_pool():
        raise AssertionError("tile pool used")

    monkeypatch.setattr(kernels, "_tile_pool", no_pool)
    monkeypatch.setattr(kernels, "_usable_cpus", lambda: 2)
    k = matern(1.5, gamma=2.0, dim=2)
    rng = np.random.default_rng(9)
    assert kernels.eval(k, [0.1, 0.2], [0.3, 0.4]) > 0
    assemble_gram(k, _random_pointset(rng, 200, 2))  # one 200 x 200 strip
    kernel_matrix(k, rng.uniform(size=(_tile_rows(50), 2)), rng.uniform(size=(50, 2)))
    with pytest.raises(AssertionError, match="tile pool used"):
        kernel_matrix(k, rng.uniform(size=(_tile_rows(50) + 1, 2)), rng.uniform(size=(50, 2)))


def test_tile_workers_fixture_shuts_down_only_the_pools_it_made(monkeypatch):
    # a test that takes the fixture but sets no worker count leaves the
    # process-wide pool running (here a pool of this test's own stands in
    # for it); one that sets a count gets a fresh pool, shut down after
    from conftest import tile_worker_rule

    monkeypatch.setattr(kernels, "_pool", None)
    shared = kernels._tile_pool()
    try:
        rule = tile_worker_rule(monkeypatch)
        next(rule)
        next(rule, None)
        assert kernels._pool is shared and shared.submit(int).result() == 0
        rule = tile_worker_rule(monkeypatch)
        next(rule)(2)
        own = kernels._tile_pool()
        next(rule, None)
        assert own is not shared and shared.submit(int).result() == 0
        with pytest.raises(RuntimeError, match="after shutdown"):
            own.submit(int)
    finally:
        shared.shutdown()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_forked_child_evaluates_blocks_on_its_own_pool():
    import time

    k = matern(1.5, gamma=3.0, dim=2)
    rng = np.random.default_rng(12)
    X, Y = rng.uniform(size=(4 * _tile_rows(100), 2)), rng.uniform(size=(100, 2))
    expected = kernel_matrix(k, X, Y)  # on more than one CPU this starts the pool
    pid = os.fork()
    if pid == 0:  # the child: report through the exit status only
        code = 1
        try:
            fresh = kernels._pool is None
            code = 0 if fresh and np.array_equal(kernel_matrix(k, X, Y), expected) else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60.0
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("forked child hung evaluating a block")
        time.sleep(0.05)
    assert os.waitstatus_to_exitcode(status) == 0
