import operator
import warnings

import numpy as np
import pytest

from kinterp import interpolation, kernels
from kinterp.diagnostics import (
    BOUNDED_LIKE,
    DIVERGING_LIKE,
    DecayFitError,
    DiagnosticsReport,
    EvalGrid,
    classify_norm_growth,
    decay_profile,
    error_slopes,
    l2_error,
    lebesgue_constant,
    lebesgue_function,
    lebesgue_max_from_coefficients,
    measure_levels,
    read_report_csv,
    sup_error,
)
from kinterp.geometry import (
    Box,
    GeometryError,
    PointSet,
    equispaced_interval,
    generate_candidates,
    geometric_greedy,
    nested_equispaced_design,
)
from kinterp.interpolation import (
    EVAL_CHUNK,
    SCAN_BYTES,
    evaluate,
    fit,
    lagrange_coefficients,
)
from kinterp.kernels import (
    DimensionMismatchError,
    DomainError,
    assemble_gram,
    gaussian,
    interval_sobolev,
    kernel_matrix,
    matern,
)
from kinterp.targets import make_target

from conftest import traced_peak

UNIT = Box.interval(0.0, 1.0)
M32 = matern(1.5)


def grid1d(m=1001):
    return EvalGrid.tensor(UNIT, m)


def design_levels(design):
    return [design.level_points(i) for i in range(len(design))]


def norm_growth(target, kernel, design):
    """(levels, native norms, (label, slope)) of the norm-growth kind:
    measure_levels with a target, then classify_norm_growth; every level
    must succeed."""
    rows = measure_levels(kernel, design_levels(design), None, target)
    assert all(row["jitter_flag"] != "failed" for row in rows)
    levels, norms = [row["n"] for row in rows], [row["native_norm"] for row in rows]
    return levels, norms, classify_norm_growth(rows)


# ---------------------------------------------------------------- EvalGrid

def test_grid_weights_sum_to_volume_1d():
    g = grid1d(513)
    assert np.sum(g.quad_weights) == pytest.approx(1.0, rel=1e-10)


def test_grid_weights_sum_to_volume_2d():
    box = Box(lower=(0.0, -1.0), upper=(2.0, 3.0))
    g = EvalGrid.tensor(box, 65)
    assert np.sum(g.quad_weights) == pytest.approx(box.volume, rel=1e-10)


def test_grid_lexicographic_order():
    g = EvalGrid.tensor(Box.unit_cube(2), 33)
    order = np.lexsort((g[:][:, 1], g[:][:, 0]))
    assert np.array_equal(order, np.arange(len(g)))


def test_grid_rows_are_selected_by_a_slice():
    # grid[4] raised "AttributeError: 'int' object has no attribute 'start'"
    grid = EvalGrid.tensor(Box.unit_cube(2), 5)
    for rows in (4, np.int64(4), [4, 5]):
        with pytest.raises(TypeError, match="slice"):
            grid[rows]
    assert np.array_equal(grid[4:5], grid[:][4:5])


def test_degenerate_grid_axes_raise_instead_of_wrong_numbers():
    # an empty axis made every Lebesgue constant 0.0 and a one-point axis
    # every L2 error nan; the scan's block rule also divides by the length
    # of the last axis
    design = nested_equispaced_design(0, 1, 4, 2)
    target = make_target("constant", {"value": 1.0}, M32, UNIT)
    for axes in [(np.array([]),), (np.linspace(0, 1, 5), np.empty(0))]:
        with pytest.raises(GeometryError, match="nonempty"):
            EvalGrid(axes)
    point = EvalGrid((np.array([0.5]),))
    with pytest.raises(GeometryError, match="at least 2 points"):
        point.quad_weights
    with pytest.raises(GeometryError, match="at least 2 points"):
        measure_levels(M32, design_levels(design), point, target, errors=True)
    # a one-point grid still scans, and a one-point tensor pool still forms
    assert lebesgue_constant(M32, design.master, point) >= 1.0
    assert generate_candidates(UNIT, 1, "tensor_grid").points.tolist() == [[0.5]]


def test_quad_weights_reject_a_non_uniform_axis():
    # the uniform rule gave [0.25, 0.5, 0.25] on [0, 0.1, 1], whose
    # trapezoid weights are [0.05, 0.5, 0.45]: a wrong L2 error, unflagged
    for axes in [(np.array([0.0, 0.1, 1.0]),),
                 (np.linspace(-1.0, 2.0, 5), np.array([0.0, 0.1, 1.0]))]:
        with pytest.raises(GeometryError, match="equispaced"):
            EvalGrid(axes).quad_weights


def test_quad_weights_reject_a_descending_axis():
    # [1, 0.5, 0] gave the weights [-0.25, -0.5, -0.25], and l2_error nan
    grid = EvalGrid((np.array([1.0, 0.5, 0.0]),))
    with pytest.raises(GeometryError, match="ascending"):
        grid.quad_weights
    s = fit(M32, equispaced_interval(0, 1, 4), np.arange(4.0))
    target = make_target("constant", {"value": 1.0}, M32, UNIT)
    with pytest.raises(GeometryError, match="ascending"):
        l2_error(target, s, grid)


def test_quad_weights_of_a_linspace_axis_far_from_the_origin():
    # spacings of about 1.5e-5 at 1e6, where one ulp is 1.2e-10: inside the
    # relative 1e-6, with the uniform rule's bits
    ax = np.linspace(1e6, 1e6 + 1.0, 65537)
    h = (ax[-1] - ax[0]) / (len(ax) - 1)
    expected = np.full(len(ax), h)
    expected[0] = expected[-1] = 0.5 * h
    assert EvalGrid((ax,)).quad_weights.tobytes() == expected.tobytes()


@pytest.mark.parametrize("has_grid, has_target, quantities", [
    # the Lebesgue path once factored every level and then failed on len(None)
    (False, False, {"lebesgue": True}),
    (False, True, {"errors": True}),
    # errors without a target once left sup_error and l2_error at nan
    (True, False, {"errors": True}),
], ids=["lebesgue-without-grid", "errors-without-grid", "errors-without-target"])
def test_measure_levels_rejects_a_missing_input_before_fitting(monkeypatch, has_grid,
                                                               has_target, quantities):
    from kinterp.diagnostics import DiagnosticsError

    def no_fit(*args, **kwargs):
        raise AssertionError("a level was fitted")

    monkeypatch.setattr(interpolation, "factorize", no_fit)
    level_sets = design_levels(nested_equispaced_design(0, 1, 4, 2))
    grid = grid1d(65) if has_grid else None
    target = make_target("constant", {"value": 1.0}, M32, UNIT) if has_target else None
    with pytest.raises(DiagnosticsError, match="need a grid"):
        measure_levels(M32, level_sets, grid, target, **quantities)


@pytest.mark.parametrize("quantities", [{}, {"lebesgue": True}, {"errors": True}])
def test_measure_levels_of_no_level_is_no_row(quantities):
    # the scan plan once took the max of the empty level list
    target = make_target("constant", {"value": 1.0}, M32, UNIT)
    assert measure_levels(M32, [], grid1d(65), target, **quantities) == []


def materialized_tensor_grid(domain, points_per_axis):
    """(points, quad_weights) of the tensor grid as they were once built and
    stored for the whole run: the reference for the lazy grid's bits."""
    axes, weights = [], []
    for a, b in zip(domain.lower, domain.upper):
        h = (b - a) / (points_per_axis - 1)
        w = np.full(points_per_axis, h)
        w[0] = w[-1] = 0.5 * h
        axes.append(np.linspace(a, b, points_per_axis))
        weights.append(w)
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    wmesh = np.meshgrid(*weights, indexing="ij")
    qw = np.ones(pts.shape[0])
    for wm in wmesh:
        qw = qw * wm.reshape(-1)
    return pts, qw


@pytest.mark.parametrize("dim,per_axis", [(1, 2), (1, 17), (1, 4097), (2, 2), (2, 33),
                                          (2, 65), (3, 2), (3, 9), (3, 17)])
def test_lazy_grid_rows_and_weights_equal_the_materialized_grid(dim, per_axis):
    rng = np.random.default_rng(10 * dim + per_axis)
    lower = rng.uniform(-3.0, 3.0, size=dim)
    boxes = [Box.unit_cube(dim),
             Box(lower=(-1.3, 0.1, 2.0)[:dim], upper=(2.7, 0.35, 9.5)[:dim]),
             Box(lower=tuple(lower), upper=tuple(lower + rng.uniform(1e-3, 5.0, size=dim)))]
    for box in boxes:
        grid = EvalGrid.tensor(box, per_axis)
        pts, qw = materialized_tensor_grid(box, per_axis)
        assert len(grid) == len(pts) and not hasattr(grid, "points")
        assert grid.quad_weights.tobytes() == qw.tobytes()
        G, m = len(pts), per_axis
        # whole grid, rows that cross the last axis's and the first axis's
        # boundaries, strided, negative and empty slices
        cuts = [slice(None), slice(m - 1, m + 3), slice(m * m - 2, m * m + m + 1),
                slice(1, None, 7), slice(-5, None), slice(3, 3),
                slice(*sorted(rng.integers(0, G + 1, size=2)))]
        for rows in cuts:
            block = grid[rows]
            assert block.shape == pts[rows].shape and block.flags.c_contiguous
            assert block.tobytes() == pts[rows].tobytes(), rows


# ------------------------------------------------------- Lebesgue function

def test_lebesgue_at_nodes_is_one():
    n = 16
    X = equispaced_interval(0, 1, n)
    # grid chosen so the nodes are exactly grid points
    g = grid1d(n + 2)
    vals = lebesgue_function(M32, X, g)
    node_idx = [int(round(x * (n + 1))) for x in X.points[:, 0]]
    assert np.max(np.abs(vals[node_idx] - 1.0)) <= 1e-6


def test_lebesgue_single_node_is_normalized_kernel():
    X = PointSet(points=[[0.4]], domain=UNIT)
    g = grid1d(101)
    vals = lebesgue_function(matern(2.5), X, g)
    expect = np.abs(kernel_matrix(matern(2.5), g[:], X.points)[:, 0]) / 3.0
    assert np.allclose(vals, expect, rtol=1e-12)


def test_lebesgue_three_nodes_matches_brute_force_oracle():
    # oracle: fit each cardinal function independently (its own solve) and
    # scan the grid; frozen value from that oracle
    X = equispaced_interval(0, 1, 3)
    g = grid1d(1001)
    K = assemble_gram(M32, X).entries
    lv = np.zeros((len(g), 3))
    for i in range(3):
        e = np.zeros(3)
        e[i] = 1.0
        a = np.linalg.solve(K, e)
        lv[:, i] = kernel_matrix(M32, g[:], X.points) @ a
    oracle = np.abs(lv).sum(axis=1)
    vals = lebesgue_function(M32, X, g)
    assert np.max(np.abs(vals - oracle)) <= 1e-9
    assert lebesgue_constant(M32, X, g) == pytest.approx(3.0361796126, abs=1e-8)


def test_lebesgue_constant_at_least_one():
    for n in (2, 7, 23):
        X = equispaced_interval(0, 1, n)
        g = grid1d(4 * (n + 1) + 1)
        assert lebesgue_constant(M32, X, g) >= 1.0 - 1e-9


def test_lebesgue_monotone_under_grid_refinement():
    X = equispaced_interval(0, 1, 9)
    coarse = grid1d(101)
    fine = grid1d(201)  # refinement keeps the coarse points
    assert lebesgue_constant(M32, X, fine) >= lebesgue_constant(M32, X, coarse)


def test_operator_norm_attained_by_sign_data():
    # fitting the signs of l_i(x*) at the Lebesgue argmax grid point must
    # evaluate to the Lebesgue constant there
    X = equispaced_interval(0, 1, 33)
    g = grid1d(2049)
    vals = lebesgue_function(M32, X, g)
    star = int(np.argmax(vals))
    K = assemble_gram(M32, X).entries
    C = np.linalg.solve(K, np.eye(33))
    lstar = kernel_matrix(M32, g[:][star:star + 1], X.points) @ C
    signs = np.sign(lstar[0])
    s = fit(M32, X, signs)
    assert evaluate(s, g[:][star:star + 1])[0] == pytest.approx(vals[star], abs=1e-6)


# ------------------------------------------------------------- error norms

def test_sup_error_of_itself_is_zero():
    X = equispaced_interval(0, 1, 9)
    s = fit(M32, X, np.sin(X.points[:, 0]))
    target = lambda pts: evaluate(s, pts)
    assert sup_error(target, s, grid1d(257)) == 0.0


def test_sup_error_single_node_constant_structure():
    X = PointSet(points=[[0.5]], domain=UNIT)
    s = fit(M32, X, [1.0])
    g = grid1d(513)
    target = make_target("constant", {"value": 1.0}, M32, UNIT)
    expect = np.max(np.abs(1.0 - kernel_matrix(M32, g[:], X.points)[:, 0]))
    assert sup_error(target, s, g) == pytest.approx(expect, rel=1e-12)


def test_sup_error_translate_with_center_in_nodes_is_roundoff():
    # when the translate center is a node the fit reproduces the target
    target = make_target("kernel_translate", {"center": 0.3}, M32, UNIT)
    X = equispaced_interval(0, 1, 9)  # contains 0.3
    s = fit(M32, X, target(X.points))
    assert sup_error(target, s, grid1d(2049)) <= 1e-12


def test_sup_error_decreases_for_kernel_translate():
    target = make_target("kernel_translate", {"center": 0.314159}, M32, UNIT)
    g = grid1d(2049)
    errs = []
    for n in (9, 19, 39, 79):
        X = equispaced_interval(0, 1, n)
        s = fit(M32, X, target(X.points))
        errs.append(sup_error(target, s, g))
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_l2_error_of_itself_is_zero():
    X = equispaced_interval(0, 1, 9)
    s = fit(M32, X, np.cos(X.points[:, 0]))
    assert l2_error(lambda pts: evaluate(s, pts), s, grid1d(257)) == 0.0


def test_l2_error_constant_vs_zero():
    X = PointSet(points=[[0.5]], domain=UNIT)
    s = fit(M32, X, [0.0])
    target = make_target("constant", {"value": 1.0}, M32, UNIT)
    assert l2_error(target, s, grid1d(1001)) == pytest.approx(1.0, abs=1e-10)


def test_l2_bounded_by_sup_times_sqrt_volume():
    target = make_target("abs_power", {"center": 0.5, "power": 1.0 / 3.0}, M32, UNIT)
    g = grid1d(513)
    for n in (5, 17, 41):
        X = equispaced_interval(0, 1, n)
        s = fit(M32, X, target(X.points))
        assert l2_error(target, s, g) <= np.sqrt(UNIT.volume) * sup_error(target, s, g) + 1e-12


# ------------------------------------------------------------- norm growth

def test_norm_growth_translate_is_bounded_like():
    design = nested_equispaced_design(0, 1, 16, 5)
    x_star = design.master.points[0, 0]  # lives in every level
    target = make_target("kernel_translate", {"center": x_star}, M32, UNIT)
    _, norms, (label, _) = norm_growth(target, M32, design)
    assert label == BOUNDED_LIKE
    bound = np.sqrt(kernel_matrix(M32, [[x_star]], [[x_star]])[0, 0])
    assert all(v <= bound + 1e-6 for v in norms)
    assert all(b >= a * (1 - 1e-8) for a, b in zip(norms, norms[1:]))


@pytest.mark.filterwarnings("ignore::UserWarning")  # residual warning expected
def test_norm_growth_kink_diverges():
    design = nested_equispaced_design(0, 1, 16, 5)
    target = make_target("abs_power", {"center": 0.5, "power": 1.0}, matern(2.5), UNIT)
    _, norms, (label, _) = norm_growth(target, matern(2.5), design)
    assert label == DIVERGING_LIKE
    assert norms[-1] / norms[0] > 5.0


def test_norm_growth_oracle_direct_solve():
    # production norms match a direct r^T K^{-1} r per level
    design = nested_equispaced_design(0, 1, 16, 3)
    target = make_target("abs_power", {"center": 0.5, "power": 1.0}, M32, UNIT)
    levels, norms, _ = norm_growth(target, M32, design)
    assert tuple(levels) == design.levels
    for i, n in enumerate(design.levels):
        X = design.level_points(i)
        r = target(X.points)
        K = assemble_gram(M32, X).entries
        oracle = float(np.sqrt(r @ np.linalg.solve(K, r)))
        assert norms[i] == pytest.approx(oracle, rel=1e-9)


def test_norm_growth_combo_converges_to_exact_norm():
    # translate combination with centers inside the design: the norm
    # converges to the exact combination norm sqrt(w^T K_c w)
    design = nested_equispaced_design(0, 1, 16, 5)  # levels up to 271
    centers = design.master.points[:5].copy()
    w = np.array([1.0, -0.5, 0.25, 2.0, -1.0])
    target = make_target("translate_combo",
                         {"centers": [tuple(c) for c in centers], "weights": list(w)},
                         M32, UNIT)
    Kc = kernel_matrix(M32, centers, centers)
    exact = float(np.sqrt(w @ Kc @ w))
    _, norms, _ = norm_growth(target, M32, design)
    assert norms[-1] == pytest.approx(exact, rel=1e-2)
    assert all(v <= exact * (1 + 1e-8) for v in norms)


def test_measure_levels_fits_the_level_after_a_failed_one(monkeypatch):
    from kinterp import interpolation
    from kinterp.interpolation import FactorizationError

    factorize = interpolation.factorize

    def fail_at_39(K):
        if K.order == 39:
            raise FactorizationError("forced by test")
        return factorize(K)

    monkeypatch.setattr(interpolation, "factorize", fail_at_39)
    design = nested_equispaced_design(0, 1, 4, 5)  # levels 4, 9, 19, 39, 79
    target = make_target("abs_power", {"center": 0.5, "power": 1.0}, M32, UNIT)
    rows = measure_levels(M32, design_levels(design), None, target)
    assert [row["n"] for row in rows] == [4, 9, 19, 39, 79]
    failed = rows[3]
    assert failed["jitter_flag"] == "failed"
    assert failed["error"] == "forced by test"
    assert np.isnan(failed["native_norm"])
    ok = [row for row in rows if row is not failed]
    assert all("error" not in row and row["jitter_flag"] != "failed" for row in ok)
    assert all(np.isfinite(row["native_norm"]) for row in ok)
    # the norm-growth label skips the failed level and keeps n = 79
    _, slope = classify_norm_growth(rows)
    assert slope == pytest.approx(0.4715, abs=1e-4)


def test_lebesgue_function_names_the_level_when_the_ladder_is_exhausted(monkeypatch):
    factorize = interpolation.factorize
    # every rung fails on -I, so the real factorize exhausts its ladder
    monkeypatch.setattr(interpolation, "factorize", lambda K: factorize(-np.eye(K.order)))
    X = equispaced_interval(0, 1, 9)
    for measure in (lebesgue_function, lebesgue_constant):
        with pytest.raises(interpolation.FactorizationError,
                           match=r"^Lebesgue function at n=9: matrix of order 9 is not "
                                 r"positive definite after the jitter ladder") as info:
            measure(M32, X, grid1d(65))
        assert isinstance(info.value.__cause__, interpolation.FactorizationError)


def test_classify_empty_and_zero():
    assert classify_norm_growth([])[0] == "inconclusive"
    zero = [{"n": n, "native_norm": 0.0, "jitter_flag": "none"} for n in (2, 4, 8)]
    assert classify_norm_growth(zero)[0] == BOUNDED_LIKE
    # failed rows are dropped, so a sequence of only failed rows is empty
    failed = [{"n": 2, "native_norm": float("nan"), "jitter_flag": "failed"}]
    assert classify_norm_growth(failed)[0] == "inconclusive"


# ------------------------------------------------------------- decay fits

def test_decay_single_node_exact_slope():
    # one node: l(x) = k(x1,x)/k(x1,x1); for nu=1/2 the log profile is
    # exactly linear with slope -gamma*h in the scaled variable
    X = PointSet(points=[[0.5]], domain=UNIT)
    g = grid1d(2001)
    h = 0.1
    fitres = decay_profile(matern(0.5), X, 0, g, h)
    assert fitres.nu_hat == pytest.approx(1.0 * h, rel=1e-6)
    assert fitres.r_squared == pytest.approx(1.0, abs=1e-9)


def test_decay_central_node_positive_rate():
    X = equispaced_interval(0, 1, 65)
    g = grid1d(4097)
    h = 1.0 / 66.0
    fitres = decay_profile(M32, X, 32, g, h)
    assert fitres.nu_hat > 0
    assert fitres.r_squared >= 0.8
    assert np.isfinite(fitres.c_env) and fitres.c_env > 0


def test_decay_rate_stable_across_levels():
    g = grid1d(4097)
    rates = []
    for n in (33, 65, 129):
        X = equispaced_interval(0, 1, n)
        fitres = decay_profile(matern(1.5, gamma=10.0), X, (n - 1) // 2, g, 1.0 / (n + 1))
        rates.append(fitres.nu_hat)
    assert max(rates) / min(rates) < 2.0


def test_decay_too_few_points_raises():
    X = PointSet(points=[[0.5]], domain=UNIT)
    g = grid1d(101)
    with pytest.raises(DecayFitError):
        decay_profile(matern(0.5), X, 0, g, h=10.0)  # own-cell cut excludes all


def test_decay_needs_1d_matern():
    from kinterp.diagnostics import DiagnosticsError
    from kinterp.kernels import gaussian

    X = equispaced_interval(0, 1, 9)
    with pytest.raises(DiagnosticsError):
        decay_profile(gaussian(1.0), X, 4, grid1d(101), 0.1)


# ------------------------------------------------------- convergence rows

def test_convergence_rows_columns_and_slope():
    design = nested_equispaced_design(0, 1, 8, 4)
    target = make_target("translate_combo",
                         {"centers": [(0.21,), (0.48,), (0.83,)],
                          "weights": [1.0, -1.0, 0.5]}, M32, UNIT)
    rows = measure_levels(M32, design_levels(design), grid1d(1025), target,
                          lebesgue=True, errors=True)
    slopes = error_slopes(rows)
    assert len(rows) == 4
    ns = [row["n"] for row in rows]
    assert ns == sorted(ns) and len(set(ns)) == 4
    for row in rows:
        assert row["jitter_flag"] == "none"
        assert row["rho"] >= 1.0 - 1e-6
        assert row["q"] <= row["h"] + 1e-15
        assert row["lebesgue_constant"] >= 1.0 - 1e-9
    # kernel translates superconverge: the fitted sup slope sits near twice
    # the generic native-space rate, and well above it
    assert slopes["sup_slope"] > 1.5
    errs = [row["sup_error"] for row in rows]
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_convergence_zero_target():
    design = nested_equispaced_design(0, 1, 8, 2)
    target = make_target("constant", {"value": 0.0}, M32, UNIT)
    rows = measure_levels(M32, design_levels(design), grid1d(257), target,
                          lebesgue=True, errors=True)
    for row in rows:
        assert row["sup_error"] == 0.0 and row["l2_error"] == 0.0
    slopes = error_slopes(rows)
    assert np.isnan(slopes["sup_slope"]) and np.isnan(slopes["l2_slope"])


def test_convergence_rough_target_l2_decreases():
    design = nested_equispaced_design(0, 1, 16, 4)
    target = make_target("abs_power", {"center": 0.5, "power": 1.0 / 3.0}, M32, UNIT)
    rows = measure_levels(M32, design_levels(design), grid1d(2049), target, errors=True)
    l2s = [row["l2_error"] for row in rows]
    assert l2s[-1] < l2s[1]


def _square_levels():
    box = Box(lower=(0.0, 0.0), upper=(1.0, 1.0))
    design = geometric_greedy(generate_candidates(box, 800, "low_discrepancy"),
                              60, 0, (15, 30, 60))
    return matern(1.5, gamma=5.0, dim=2), box, 129, design_levels(design)


def _interval_levels():
    return M32, UNIT, 9000, design_levels(nested_equispaced_design(0, 1, 8, 4))


def _unnested_interval_levels():
    return M32, UNIT, 9000, [equispaced_interval(0, 1, n) for n in (5, 11, 23)]


def _unnested_square_levels():
    # two greedy designs from other first candidates: the 20-node level is a
    # prefix of the 60-node one, the 30-node level of the other design is not
    box = Box(lower=(0.0, 0.0), upper=(1.0, 1.0))
    candidates = generate_candidates(box, 800, "low_discrepancy")
    small, large = design_levels(geometric_greedy(candidates, 60, 0, (20, 60)))
    (other,) = design_levels(geometric_greedy(candidates, 30, 7, (30,)))
    return matern(1.5, gamma=5.0, dim=2), box, 129, [small, other, large]


# Levels whose widest C is wider than a scan block, which the scan takes one
# level at a time: 2049 points scan in pieces of 1025 and 1024 rows, and a
# block of the 33^2 grid holds 13 lines, 429 rows, of 600 node columns.


def _wide_interval_levels():
    return M32, UNIT, 2049, design_levels(nested_equispaced_design(0, 1, 16, 7))


def _wide_unnested_interval_levels():
    return M32, UNIT, 2049, [equispaced_interval(0, 1, n) for n in (300, 1100)]


def _wide_square_levels():
    box = Box(lower=(0.0, 0.0), upper=(1.0, 1.0))
    design = geometric_greedy(generate_candidates(box, 2000, "low_discrepancy"),
                              600, 0, (150, 300, 600))
    return matern(1.5, gamma=5.0, dim=2), box, 33, design_levels(design)


def _scan_rows(grid, level_sets):
    """The row slices of the scan blocks of `grid` for `level_sets` under
    the block rule: as many whole lines of its last axis as keep the block,
    rows by the largest level's node columns by 8 B, within SCAN_BYTES, and
    at least one; a line longer than EVAL_CHUNK, or on a grid of 2+ axes one
    whose rows alone take more than SCAN_BYTES, is cut into the fewest
    equal pieces within both, as np.array_split cuts it."""
    width = max(map(len, level_sets))
    line = len(grid.axes[-1])
    budget = max(1, SCAN_BYTES // (8 * width))  # rows
    cap = EVAL_CHUNK if len(grid.axes) == 1 else min(EVAL_CHUNK, budget)
    if line > cap:
        pieces = np.array_split(np.arange(line), -(-line // cap))
        heights = [len(p) for p in pieces] * (len(grid) // line)
    else:
        step = line * max(1, budget // line)
        heights = [min(step, len(grid) - a) for a in range(0, len(grid), step)]
    stops = np.cumsum(heights)
    return [slice(int(b) - h, int(b)) for b, h in zip(stops, heights)]


@pytest.mark.parametrize("levels", [_square_levels, _interval_levels,
                                    _unnested_interval_levels, _unnested_square_levels,
                                    _wide_square_levels, _wide_interval_levels,
                                    _wide_unnested_interval_levels])
@pytest.mark.filterwarnings("ignore::UserWarning")  # the larger levels' residuals
def test_shared_scan_equals_per_level_functions(monkeypatch, levels):
    # grids of more than one scan block, scanned in the shared order or, the
    # _wide levels, level by level; a level that is not a prefix of the
    # largest gets a pass of its own in either order
    kernel, box, m, level_sets = levels()
    grid = EvalGrid.tensor(box, m)
    target = make_target("abs_power", {"power": 1.0 / 3.0}, kernel, box)
    fill, fills, widths = interpolation._fill, [], set()

    def counting_fill(kernel, points, nodes, out, pooled, scratch=None):
        fills.append(len(nodes))
        # the worker's one block buffer of the pass the fill lands in
        widths.add((len(nodes), out.base.shape[1]))
        return fill(kernel, points, nodes, out, pooled, scratch)

    monkeypatch.setattr(interpolation, "_fill", counting_fill)
    rows = list(measure_levels(kernel, level_sets, grid, target,
                               lebesgue=True, errors=True))
    monkeypatch.undo()
    blocks = _scan_rows(grid, level_sets)
    base = max(level_sets, key=len).points
    by_level = len(base) > 2 * max(b.stop - b.start for b in blocks)
    assert by_level == levels.__name__.startswith("_wide")
    # the shared pass of the largest level's columns first, then one pass per
    # level that does not share it, largest first; each worker's buffer is
    # as wide as its pass's nodes
    alone = [len(X) for X in level_sets
             if by_level or not np.array_equal(X.points, base[:len(X)])]
    assert fills == [len(base)] * len(blocks) * (not by_level) + [
        n for n in sorted(alone, reverse=True) for _ in blocks]
    assert widths == {(n, n) for n in fills}
    assert [row["n"] for row in rows] == [len(X) for X in level_sets]
    for row, X in zip(rows, level_sets):
        C, _ = lagrange_coefficients(kernel, X)
        s = fit(kernel, X, target(X.points))
        assert row["lebesgue_constant"] == lebesgue_max_from_coefficients(kernel, X, C, grid)
        # the independent oracle: each scan block's own cross block and product
        assert row["lebesgue_constant"] == max(
            np.abs(kernel_matrix(kernel, grid[rows], X.points) @ C).sum(axis=1).max()
            for rows in _scan_rows(grid, level_sets))
        assert row["sup_error"] == sup_error(target, s, grid)
        assert row["l2_error"] == l2_error(target, s, grid)


def test_fill_probe_is_the_tensor_grid_of_the_box():
    # the levels' h are measured on the points EvalGrid.tensor would give
    box = Box(lower=(0.0, -1.0), upper=(2.0, 3.0))
    probe = EvalGrid.tensor(box, 33)
    # no point array to read: len() counts the points without forming them
    assert not hasattr(probe, "points")
    assert len(probe) == 33 * 33
    assert np.array_equal(probe[:], materialized_tensor_grid(box, 33)[0])


@pytest.mark.parametrize("levels", [_square_levels, _unnested_interval_levels])
def test_scan_of_a_grid_equals_the_scan_of_its_points(levels):
    kernel, box, m, level_sets = levels()
    grid = EvalGrid.tensor(box, m)
    target = make_target("trig", {"freq": 1.5}, kernel, box)
    fits = [(X, fit(kernel, X, target(X.points)).coefficients,
             lagrange_coefficients(kernel, X)[0]) for X in level_sets]
    results = []
    for points in (grid, grid[:]):
        functions = [np.empty(len(grid)) for _ in fits]
        scanned = [None] * len(fits)
        # one scan per pass: unnested levels are not one pass
        passes, blocks = interpolation._scan_plan([X for X, *_ in fits], points, True)
        for ks in passes:
            for k, result in zip(ks, interpolation._scan_levels(
                    kernel, [fits[k] for k in ks], points, [functions[k] for k in ks], blocks)):
                scanned[k] = result
        results.append((scanned, functions))
    (lazy, lazy_functions), (dense, dense_functions) = results
    for (lmax, values), (lmax_ref, values_ref) in zip(lazy, dense):
        assert lmax == lmax_ref
        assert values.tobytes() == values_ref.tobytes()
    for f, f_ref in zip(lazy_functions, dense_functions):
        assert f.tobytes() == f_ref.tobytes()


def test_3d_lebesgue_scan_holds_less_than_one_grid_vector():
    # the 129^3 grid of a 3-d config: G = 2,146,689 points, so its points
    # alone would take 3 G-vectors; the scan forms them a block at a time
    box = Box.unit_cube(3)
    kernel = matern(1.5, gamma=5.0, dim=3)
    X = geometric_greedy(generate_candidates(box, 1000, "low_discrepancy"), 27, 0, (27,)).master
    C, _ = lagrange_coefficients(kernel, X)

    def scan():
        grid = EvalGrid.tensor(box, 129)
        return len(grid), lebesgue_max_from_coefficients(kernel, X, C, grid)

    (G, lmax), peak = traced_peak(scan)
    assert G == 129 ** 3 and np.isfinite(lmax) and lmax >= 1.0
    assert peak < 8 * G


def test_measure_levels_in_3d_never_forms_the_fill_probe():
    box = Box.unit_cube(3)
    cands = generate_candidates(box, 2000, "low_discrepancy")
    design = geometric_greedy(cands, 64, seed_index=0, level_counts=[8, 27, 64])
    rows, peak = traced_peak(measure_levels, matern(1.5, gamma=3.0, dim=3),
                             design_levels(design), EvalGrid.tensor(box, 9), lebesgue=True)
    for row in rows:
        assert all(np.isfinite(row[key]) for key in ("h", "q", "rho", "lebesgue_constant"))
    # the DEFAULT_FILL_PROBE^3 probe alone would take 8 * 1001^3 B = 8 GB
    assert peak < 2 ** 28
    assert rows[0]["h"] > rows[1]["h"] > rows[2]["h"]


def test_report_csv_roundtrip(tmp_path):
    design = nested_equispaced_design(0, 1, 4, 2)
    target = make_target("constant", {"value": 1.0}, M32, UNIT)
    rows = measure_levels(M32, design_levels(design), grid1d(65), target,
                          lebesgue=True, errors=True)
    report = DiagnosticsReport(rows=tuple(rows), metadata={"experiment.kind": "convergence"})
    path = tmp_path / "report.csv"
    report.to_csv(path)
    rows, meta = read_report_csv(path)
    assert meta["experiment.kind"] == "convergence"
    assert len(rows) == 2
    assert rows[0]["n"] == 4.0
    assert rows[0]["jitter_flag"] == "none"
    for col in ("h", "q", "rho", "lebesgue_constant"):
        assert rows[1][col] == pytest.approx(report.rows[1][col], rel=1e-15)


# ---------------------------------------------------------------- tile pool


def _rows_key(rows):
    return [[repr(row[c]) for c in row] for row in rows]


@pytest.mark.parametrize("levels", [_square_levels, _interval_levels])
def test_measure_levels_independent_of_worker_count(levels, tile_workers):
    kernel, box, m, level_sets = levels()
    grid = EvalGrid.tensor(box, m)
    target = make_target("abs_power", {"power": 1.0 / 3.0}, kernel, box)
    runs = []
    for count in (1, 3):
        tile_workers(count)
        runs.append(list(measure_levels(kernel, level_sets, grid, target,
                                        lebesgue=True, errors=True)))
    assert kernels._pool is not None  # the 3-worker run used the pool
    assert _rows_key(runs[0]) == _rows_key(runs[1])


def _worker_case_1d(monkeypatch):
    # nested levels up to n = 57 on 2049 points: four pieces of the one line
    return M32, design_levels(nested_equispaced_design(0, 1, 8, 4)), grid1d(2049)


def _greedy_square_levels():
    # nested greedy levels up to n = 60 on the unit square
    design = geometric_greedy(generate_candidates(Box.unit_cube(2), 800, "low_discrepancy"),
                              60, 0, (15, 30, 60))
    return design_levels(design)


def _worker_case_2d(monkeypatch):
    # the greedy levels on 65^2 points, with a scan budget of 40 rows of 60
    # columns: each 65-point line is cut into 33 and 32 rows
    monkeypatch.setattr(interpolation, "SCAN_BYTES", 40 * 60 * 8)
    grid = EvalGrid.tensor(Box.unit_cube(2), 65)
    return matern(1.5, gamma=5.0, dim=2), _greedy_square_levels(), grid


def _worker_case_matern52(monkeypatch):
    # the 1-d levels with two temporaries per tile, exp(-r) and r^2: one
    # 513-row tile of each outweighs a block's product, so the product
    # buffer is sized to hold both
    return matern(2.5, gamma=10.0), *_worker_case_1d(monkeypatch)[1:]


def _worker_case_w21(monkeypatch):
    # the 1-d levels with w21's min term, in tiles of 100 rows: several per
    # block, the last one shorter
    monkeypatch.setattr(kernels, "TILE_BYTES", 100 * 57 * 8)
    return interval_sobolev(0.0, 1.0), *_worker_case_1d(monkeypatch)[1:]


def _worker_case_gaussian_2d(monkeypatch):
    # the 2-d levels and blocks with the Gaussian, whose fill of grid lines
    # forms no temporary
    return gaussian(gamma=8.0, dim=2), *_worker_case_2d(monkeypatch)[1:]


def _worker_case_2d_array(monkeypatch):
    # the greedy levels on the 65^2 points as one (m, 2) array, whose fill
    # forms a per-axis term before exp(-r), in tiles of 100 rows
    monkeypatch.setattr(kernels, "TILE_BYTES", 100 * 60 * 8)
    grid = EvalGrid.tensor(Box.unit_cube(2), 65)
    return matern(1.5, gamma=5.0, dim=2), _greedy_square_levels(), grid[:]


@pytest.mark.parametrize("case", [_worker_case_1d, _worker_case_2d, _worker_case_matern52,
                                  _worker_case_w21, _worker_case_gaussian_2d,
                                  _worker_case_2d_array])
def test_scan_bits_do_not_depend_on_the_worker_count(monkeypatch, tile_workers, case):
    # also with more workers than cores and frequent thread switches: a
    # block lost or scanned twice, or a maximum not merged, changes a bit or
    # raises; the workers share only the block queue and leave the list as
    # it was. Each kernel's fill forms its temporaries in the product buffer.
    import os
    import sys

    kernel, level_sets, grid = case(monkeypatch)
    fits = [(X, fit(kernel, X, np.sin(3 * X.points[:, 0])).coefficients,
             lagrange_coefficients(kernel, X)[0]) for X in level_sets]
    blocks = interpolation._scan_plan(level_sets, grid, True)[1]
    heights = [b.stop - b.start for b in blocks]
    assert len(blocks) > 1
    if isinstance(grid, EvalGrid) and len(grid.axes) > 1:
        assert heights[:2] == [33, 32] and len(blocks) == 2 * 65
    fill, runs = interpolation._fill, []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for workers in (1, 2, (os.cpu_count() or 1) + 2):
            tile_workers(workers)
            buffers, scratches = set(), set()

            def recording_fill(kernel, points, nodes, out, pooled, scratch=None):
                buffers.add(id(out.base))  # the worker's block buffer
                scratches.add(id(scratch))  # and its product buffer
                return fill(kernel, points, nodes, out, pooled, scratch)

            monkeypatch.setattr(interpolation, "_fill", recording_fill)
            functions = [np.empty(len(grid)) for _ in fits]
            levels = list(fits)
            scanned = interpolation._scan_levels(kernel, levels, grid, functions, blocks)
            assert 1 <= len(buffers) <= workers and len(scratches) == len(buffers)
            assert len(levels) == len(fits) and all(map(operator.is_, levels, fits))
            runs.append((scanned, functions))
            assert (kernels._pool is not None) == (workers > 1)
    finally:
        sys.setswitchinterval(interval)
    (one, one_functions), *others = runs
    for k, (X, alpha, C) in enumerate(fits):
        for other, other_functions in others:
            assert one[k][0] == other[k][0]
            assert one[k][1].tobytes() == other[k][1].tobytes()
            assert one_functions[k].tobytes() == other_functions[k].tobytes()
        # the oracle: each block's own cross block, product and weighted sums
        crosses = [kernel_matrix(kernel, grid[rows], X.points) for rows in blocks]
        function = np.concatenate([np.abs(K @ C).sum(axis=1) for K in crosses])
        values = np.concatenate([np.sum(K * alpha, axis=1) for K in crosses])
        assert one_functions[k].tobytes() == function.tobytes()
        assert one[k][0] == function.max()
        assert one[k][1].tobytes() == values.tobytes()


def test_scan_keeps_the_kernel_checks():
    # a scan block is filled on a tile worker, through no public function,
    # but with every check of kernel_matrix
    w21 = interval_sobolev(0.0, 1.0)
    X = equispaced_interval(0.0, 1.0, 9)
    s = fit(w21, X, np.cos(X.points[:, 0]))
    wide = EvalGrid.tensor(Box.interval(-0.5, 1.0), 2049)  # four pieces
    with pytest.raises(DomainError):
        evaluate(s, wide[:])
    with pytest.raises(DomainError):
        evaluate(s, [[1.25]])
    with pytest.raises(DomainError):
        lebesgue_function(w21, X, wide)
    Y = equispaced_interval(0.0, 1.0, 12)
    m32 = fit(M32, Y, np.sin(Y.points[:, 0]))
    with pytest.raises(DimensionMismatchError):
        evaluate(m32, np.full((2000, 2), 0.5))
    with pytest.raises(DimensionMismatchError):
        lebesgue_function(M32, Y, EvalGrid.tensor(Box.unit_cube(2), 65))


def test_lebesgue_function_bit_equal_to_one_pass_scan():
    # more than one scan piece (sixteen of 563 and 562 rows), and many row
    # tiles per piece
    X = nested_equispaced_design(0, 1, 8, 4).master
    grid = grid1d(9000)
    C, _ = lagrange_coefficients(M32, X)
    pieces = _scan_rows(grid, [X])
    assert [s.stop - s.start for s in pieces] == [563] * 8 + [562] * 8
    ref = np.concatenate([np.abs(kernel_matrix(M32, grid[s], X.points) @ C).sum(axis=1)
                          for s in pieces])
    assert np.array_equal(lebesgue_function(M32, X, grid), ref)
    assert lebesgue_max_from_coefficients(M32, X, C, grid) == ref.max()


def test_grid_scan_fills_one_workspace(monkeypatch, tile_workers):
    # 120^2 = 14400 points as one array, one line: 25 equal pieces of 576,
    # on one worker (test_scan_bits_do_not_depend_on_the_worker_count checks
    # one workspace on each of two)
    tile_workers(1)
    box = Box.unit_cube(2)
    kernel = matern(1.5, gamma=5.0, dim=2)
    X = geometric_greedy(generate_candidates(box, 400, "low_discrepancy"), 30, 0, (30,)).master
    grid = EvalGrid.tensor(box, 120)
    C, _ = lagrange_coefficients(kernel, X)
    fill, abs_sums = interpolation._fill, interpolation._cardinal_abs_sums
    outs, blocks, products, scratches = [], [], [], []

    def recording_fill(kernel, points, nodes, out, pooled, scratch=None):
        result = fill(kernel, points, nodes, out, pooled, scratch)
        outs.append(out)
        scratches.append(scratch)
        blocks.append(result.copy())  # the buffer is reused: keep this block's bits
        return result

    def recording_sums(cross, C, out, product):
        products.append(product)
        return abs_sums(cross, C, out, product)

    monkeypatch.setattr(interpolation, "_fill", recording_fill)
    monkeypatch.setattr(interpolation, "_cardinal_abs_sums", recording_sums)
    function = np.empty(len(grid))
    interpolation._scan_levels(kernel, [(X, None, C)], grid[:], [function])
    assert [len(b) for b in blocks] == [576] * 25
    assert all(np.shares_memory(out, outs[0]) for out in outs)
    assert len(products) == 25 and all(p is products[0] for p in products)
    assert all(s is products[0] for s in scratches)  # the fill's temporaries
    assert products[0].shape == (576 * len(X),)
    # the last product landed in the shared buffer, C being n x n
    landed = products[0][:blocks[-1].size].reshape(blocks[-1].shape)
    assert np.array_equal(landed, np.abs(blocks[-1] @ C))
    for start, block in zip(range(0, len(grid), 576), blocks):
        fresh = kernel_matrix(kernel, grid[start:start + 576], X.points)
        assert np.array_equal(block, fresh)
        assert np.array_equal(function[start:start + 576], np.abs(fresh @ C).sum(1))


# ------------------------------------------------------- scan block rule


def _scan_blocks(monkeypatch, points, nodes=8):
    """The point blocks that `_scan_levels` fills while it evaluates one fit
    of `nodes` nodes at `points`, an (m, N) array or an EvalGrid, each block
    as its (m, N) points, in plan order (one worker). A block of a grid of
    2 or more axes is a `GridLines`, and every one holds the same table."""
    dim = len(points.axes) if isinstance(points, EvalGrid) else points.shape[1]
    X = generate_candidates(Box.unit_cube(dim), nodes, "low_discrepancy")
    fill, blocks, tables = interpolation._fill, [], []

    def recording_fill(kernel, points, nodes, out, pooled, scratch=None):
        if isinstance(points, kernels.GridLines):
            tables.append(points.table)
            blocks.append(EvalGrid(points.axes)[points.rows])
        else:
            blocks.append(points)
        return fill(kernel, points, nodes, out, pooled, scratch)

    monkeypatch.setattr(kernels, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(interpolation, "_fill", recording_fill)
    interpolation._scan_levels(matern(1.5, dim=dim), [(X, np.ones(len(X)), None)], points)
    tabled = isinstance(points, EvalGrid) and dim > 1
    assert len(tables) == (len(blocks) if tabled else 0)
    assert all(t is tables[0] for t in tables)
    return blocks


@pytest.mark.parametrize("points, heights", [
    # a 1-d grid is one line, and one longer than EVAL_CHUNK is cut into the
    # fewest equal pieces of at most EVAL_CHUNK rows, the longer ones first,
    # with no sliver at its end: the escape workload's 4097 points in eight
    (grid1d(4097), [513] + [512] * 7),
    (grid1d(EVAL_CHUNK + 1), [289, 288]),
    (grid1d(9000), [563] * 8 + [562] * 8),
    # a line of at most EVAL_CHUNK rows stays one block
    (grid1d(EVAL_CHUNK), [EVAL_CHUNK]),
    # an (m, N) array counts as one line
    (EvalGrid.tensor(Box.unit_cube(2), 129)[:], [574] * 24 + [573] * 5),
    # SCAN_BYTES holds 16384 rows of 8 node columns: 31 lines of 513, and
    # the last 17 lines make the last block
    (EvalGrid.tensor(Box.unit_cube(2), 513), [31 * 513] * 16 + [17 * 513]),
    # a 2-d grid whose lines are longer than EVAL_CHUNK: each line in its
    # own equal pieces, filled from the table
    (EvalGrid((np.linspace(-1.0, 0.5, 3), np.linspace(0.0, 2.0, 4097))),
     ([513] + [512] * 7) * 3),
])
def test_scan_block_heights(monkeypatch, points, heights):
    blocks = _scan_blocks(monkeypatch, points)
    assert [len(b) for b in blocks] == heights
    assert np.array_equal(np.concatenate(blocks), points[:])


def test_square_workload_scans_each_line_in_two_pieces(monkeypatch):
    # the square workload's top level: SCAN_BYTES holds 327 rows of 400
    # node columns, less than a line of 513, so each line is cut into the
    # fewest equal pieces within the budget, 257 and 256 rows
    grid = EvalGrid.tensor(Box.unit_cube(2), 513)
    blocks = _scan_blocks(monkeypatch, grid, 400)
    assert [len(b) for b in blocks] == [257, 256] * 513
    assert np.array_equal(np.concatenate(blocks), grid[:])


@pytest.mark.parametrize("per_axis", [(9, 11, 250), (3, 2, 550)])
def test_scan_blocks_of_a_3d_grid_are_whole_lines(monkeypatch, per_axis):
    # SCAN_BYTES holds 1024 rows of 128 node columns: 4 lines of 250 per
    # block, the 99 lines ending in a 3-line block; and lines longer than
    # half that, but not than EVAL_CHUNK, one per block
    assert SCAN_BYTES // (8 * 128) == 1024
    axes = tuple(np.linspace(0.0, 1.0, m) for m in per_axis)
    grid = EvalGrid(axes)
    blocks = _scan_blocks(monkeypatch, grid, 128)
    line = per_axis[-1]
    starts = np.cumsum([0] + [len(b) for b in blocks])
    assert len(blocks) > 2 and starts[-1] == len(grid)
    for start, block in zip(starts, blocks):
        assert start % line == 0 and len(block) % line == 0 and len(block) >= line
        # each block begins and ends a line: its last coordinate runs the whole axis
        assert block[0, -1] == axes[-1][0] and block[-1, -1] == axes[-1][-1]
        assert np.array_equal(block, grid[start:start + len(block)])


def test_square_lebesgue_scan_holds_one_line_across_its_workers(tile_workers):
    # one Lebesgue level at n = 400 on the 513^2 grid of the square configs.
    # SCAN_BYTES holds 327 rows of 400 columns, so each line is cut into
    # pieces of 257 and 256 rows, and each of the two workers holds one
    # piece's cross block and product: with the table of squared last-axis
    # differences, (2 * 2 * 257 + 513) * 400 * 8 B = 4.93 MB, and 2 * 257
    # sums. A fill's exp(-r) tile, 163 x 400, is a view of its worker's
    # product buffer, so the bound counts no tile temporary. Beside the
    # workspaces it counts, on each worker, two line vectors (a line's
    # leading-axis sum and one axis term) and the iterator buffer numpy
    # allocates for a broadcast add of a line's sum to its table rows
    # (np.getbufsize() doubles, 64 KiB), and the scan's 1026 block slices
    # with their bounds, 99 KB: 5.21 MB, against a 5.19 MB peak. A fresh
    # exp(-r) tile on each worker took 1.04 MB more (a 6.08 MB peak), 3-line
    # blocks of points 2 * 1539 * 400 * 8 B = 9.85 MB for the cross block
    # and product alone, and 8192-row blocks 52.4 MB.
    tile_workers(2)
    box = Box.unit_cube(2)
    kernel = matern(1.5, gamma=5.0, dim=2)
    X = generate_candidates(box, 400, "low_discrepancy")
    C, _ = lagrange_coefficients(kernel, X)
    grid = EvalGrid.tensor(box, 513)
    height, piece, n, workers = 513, 257, len(X), 2
    bound = (8 * ((2 * workers * piece + height) * n  # cross blocks, products, the table
                  + workers * piece)  # the sums
             + workers * 8 * (2 * n + np.getbufsize())  # line vectors, a ufunc buffer
             + 2 * height * 128)  # a slice and its bounds per block
    lmax, peak = traced_peak(lebesgue_max_from_coefficients, kernel, X, C, grid)
    assert np.isfinite(lmax) and lmax >= 1.0
    assert peak <= bound, f"peak {peak / 2**20:.2f} MiB > bound {bound / 2**20:.2f} MiB"


# ------------------------------------------- cardinal matrix hand-over


def _recording_cardinal_sums(monkeypatch):
    """Patch the scan's cardinal sums to record, at each call, a weak
    reference to the C it is given and which of the earlier calls' Cs are
    still alive; the recording itself holds no C."""
    import weakref

    sums = interpolation._cardinal_abs_sums
    refs, alive = [], []

    def recording(cross, C, out, product):
        alive.append([ref() is not None for ref in refs])
        refs.append(weakref.ref(C))
        return sums(cross, C, out, product)

    monkeypatch.setattr(interpolation, "_cardinal_abs_sums", recording)
    return refs, alive


def test_one_level_calls_keep_the_callers_arrays():
    # two scan blocks; each public call hands the scan a list of its own
    X = nested_equispaced_design(0, 1, 8, 4).master
    grid = grid1d(9000)
    C, _ = lagrange_coefficients(M32, X)
    kept = C.copy()
    ref = max(np.abs(kernel_matrix(M32, grid[rows], X.points) @ C).sum(axis=1).max()
              for rows in _scan_rows(grid, [X]))
    assert lebesgue_max_from_coefficients(M32, X, C, grid) == ref
    assert lebesgue_max_from_coefficients(M32, X, C, grid) == ref
    assert np.array_equal(C, kept)
    assert lebesgue_function(M32, X, grid).max() == ref
    s = fit(M32, X, np.sin(4 * X.points[:, 0]))
    coefficients = s.coefficients.copy()
    values = evaluate(s, grid[:])
    assert np.array_equal(evaluate(s, grid[:]), values)
    assert np.array_equal(s.coefficients, coefficients)
    # the scan itself leaves the list it is given unchanged
    entry = (X, s.coefficients, C)
    levels = [entry]
    ((lmax, scanned),) = interpolation._scan_levels(M32, levels, grid[:])
    assert len(levels) == 1 and levels[0] is entry
    assert lmax == ref and np.array_equal(scanned, values)
    assert np.array_equal(C, kept)


def test_shared_pass_peaks_at_its_cardinal_matrices_and_one_block_workspace(tile_workers):
    # nested Matern 3/2 levels up to n = 1087 on a 576-point grid: one scan
    # block, so one shared pass, scanned in the caller. The whole run holds
    # at most every level's C, one cross block and one product, plus row
    # tiles and grid vectors: the top level's fit (its factor, its C and the
    # smaller Cs) stays below that, and the scan copies no C and no block.
    tile_workers(2)
    design = nested_equispaced_design(0, 1, 16, 7)
    level_sets, G = design_levels(design), EVAL_CHUNK
    n = len(design.master)
    assert interpolation._scan_plan(level_sets, grid1d(G), True)[0] == [list(range(7))]
    target = make_target("abs_power", {"power": 1.0 / 3.0}, M32, UNIT)
    bound = (8 * (sum(len(X) ** 2 for X in level_sets) + 2 * G * n)  # every C, cross, product
             + 2 * 2 * kernels.TILE_BYTES  # two tile temporaries on each worker
             + 16 * 8 * G)  # grid vectors: values, target, differences, sums
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the larger levels' fit residual warnings
        rows, peak = traced_peak(measure_levels, M32, level_sets, grid1d(G),
                                 target, lebesgue=True, errors=True)
    assert rows[-1]["n"] == n
    assert all(np.isfinite(row["lebesgue_constant"]) for row in rows)
    assert peak <= bound, f"peak {peak / 2**20:.2f} MiB > bound {bound / 2**20:.2f} MiB"


def test_level_order_scan_frees_each_cardinal_matrix_before_the_next_level(monkeypatch):
    # nested levels up to n = 1087 on 2049 points, which scan in four pieces
    # of 513, 512, 512 and 512 rows: the widest C outweighs a piece's cross
    # block and product, so the scan goes level by level, every piece of a
    # level, on whichever worker, before the next level's
    level_sets = design_levels(nested_equispaced_design(0, 1, 16, 7))
    refs, alive = _recording_cardinal_sums(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the larger levels' fit residual warnings
        rows = measure_levels(M32, level_sets, grid1d(2049), lebesgue=True)
    count, pieces = len(level_sets), 4
    assert len(refs) == count * pieces and len(level_sets[-1]) == 1087
    # at each call only the current level's C is alive: by the widest
    # level's first product every other level's C is dead
    assert alive == [[j // pieces == call // pieces for j in range(call)]
                     for call in range(count * pieces)]
    assert alive[(count - 1) * pieces] == [False] * ((count - 1) * pieces)
    assert all(ref() is None for ref in refs)
    assert all(np.isfinite(row["lebesgue_constant"]) for row in rows)


def test_level_order_scan_forms_the_widest_product_beside_no_other_cardinal_matrix(
        monkeypatch, tile_workers):
    # the levels above, n = 16 .. 1087, on 2049 points: from the widest
    # level's first product on, the run holds its C and, on each of the two
    # workers, a cross block and a product (at most 513 rows by 1087 columns
    # each; the bound still counts one 1025-row piece, as before the pieces
    # were halved, and the 2 rows more fit in the tile allowance), plus row
    # tiles and grid vectors. In the shared order the six smaller Cs,
    # 3.1 MB, were still alive there, and this bound failed.
    import tracemalloc

    tile_workers(2)
    design = nested_equispaced_design(0, 1, 16, 7)
    n, G, height = len(design.master), 2049, 513
    bound = (8 * (n * n + 2 * 1025 * n)  # C_top, the workers' cross blocks and products
             + 2 * 2 * kernels.TILE_BYTES  # two tile temporaries on each worker
             + 16 * 8 * G)  # grid vectors
    sums = interpolation._cardinal_abs_sums
    tops = []

    def top_resets_the_peak(cross, C, out, product):
        if len(C) == n and not tops:
            tops.append(len(cross))
            tracemalloc.reset_peak()
        return sums(cross, C, out, product)

    monkeypatch.setattr(interpolation, "_cardinal_abs_sums", top_resets_the_peak)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the larger levels' fit residual warnings
        rows, peak = traced_peak(measure_levels, M32, design_levels(design), grid1d(G),
                                 lebesgue=True)
    assert len(tops) == 1 and tops[0] <= height and rows[-1]["n"] == n
    assert all(np.isfinite(row["lebesgue_constant"]) for row in rows)
    assert peak <= bound, f"peak {peak / 2**20:.2f} MiB > bound {bound / 2**20:.2f} MiB"


@pytest.mark.parametrize("box, m, sizes, fills", [
    # interval_escape: the widest C, 2175 columns, outweighs a 513-row piece
    # of the 4097-point line with its product, so each level, the largest
    # first, fills the eight pieces with its own node columns
    (UNIT, 4097, (16, 33, 67, 135, 271, 543, 1087, 2175),
     [(h, n) for n in (2175, 1087, 543, 271, 135, 67, 33, 16) for h in (513,) + (512,) * 7]),
    # square_lebesgue: 400 columns, narrower than two pieces of 257 and 256
    # rows of a 513-point line, so each piece is filled once with every
    # level's columns
    (Box.unit_cube(2), 513, (25, 50, 100, 200, 400), [(257, 400), (256, 400)] * 513),
], ids=["interval_escape", "square_lebesgue"])
def test_workload_scan_order(monkeypatch, tile_workers, box, m, sizes, fills):
    tile_workers(1)  # the fills in plan order
    X = generate_candidates(box, sizes[-1], "low_discrepancy")
    grid = EvalGrid.tensor(box, m)
    passes, blocks = interpolation._scan_plan([X.prefix(n) for n in sizes], grid, True)
    fill, seen = interpolation._fill, []

    def recording_fill(kernel, points, nodes, out, pooled, scratch=None):
        seen.append((len(points), len(nodes)))
        return fill(kernel, points, nodes, out, pooled, scratch)

    def no_sums(cross, C, out, product):
        out.fill(1.0)
        return out

    monkeypatch.setattr(interpolation, "_fill", recording_fill)
    monkeypatch.setattr(interpolation, "_cardinal_abs_sums", no_sums)
    for ks in passes:
        # stand-in Cs of the levels' shapes: only the fills are checked
        levels = [(X.prefix(sizes[k]), None, np.broadcast_to(0.0, (sizes[k],) * 2)) for k in ks]
        interpolation._scan_levels(matern(1.5, dim=box.dim), levels, grid, blocks=blocks)
    assert seen == fills


def test_escape_scan_holds_one_piece_of_its_grid_line(tile_workers):
    # the escape config's levels, n = 16 .. 1087, on its 4097-point grid:
    # the one line scans in pieces of 513 and 512 rows, so beyond the Cs it
    # is handed each of the two workers holds one piece's cross block and
    # product, together 2 * 2 * 513 * 1087 * 8 B = 17.8 MB (the bound counts
    # one 1025-row piece, as before the pieces were halved; the 2 rows more
    # fit in the tile allowance), and the row vectors (the sums, each
    # level's fitted values, the pieces' points), plus two tile temporaries
    # on each worker. One 4097-row block took 2 * 4097 * 1087 * 8 B =
    # 71.3 MB, and 1366-row pieces 23.8 MB.
    tile_workers(2)
    level_sets = design_levels(nested_equispaced_design(0, 1, 16, 7))
    target = make_target("abs_power", {"power": 1.0 / 3.0}, M32, UNIT)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the larger levels' residual warnings
        levels = [(X, fit(M32, X, target(X.points)).coefficients,
                   lagrange_coefficients(M32, X)[0]) for X in level_sets]
    G, n = 4097, len(level_sets[-1])
    bound = (8 * (2 * 1025 * n  # the workers' cross blocks and products
                  + (len(levels) + 4) * G)  # row vectors
             + 2 * 2 * kernels.TILE_BYTES)  # two tile temporaries on each worker
    scanned, peak = traced_peak(interpolation._scan_levels, M32, levels, grid1d(G))
    assert n == 1087 and all(lmax >= 1.0 for lmax, _ in scanned)
    assert peak <= bound, f"peak {peak / 2**20:.2f} MiB > bound {bound / 2**20:.2f} MiB"


def test_level_order_fits_the_largest_level_beside_no_other_cardinal_matrix(monkeypatch,
                                                                            tile_workers):
    # the escape config's levels, n = 16 .. 1087, on its 4097-point grid, in
    # pieces of 513 and 512 rows: the widest C outweighs a piece's cross block
    # and product, so each level is fitted and scanned on its own, the
    # largest first. Up to its scan the run holds the top level's factor and
    # C, 2 * n^2 * 8 B, plus strips, tiles and row vectors, and from its scan
    # on that C and each of the two workers' cross block and product (the
    # bound counts one 1025-row piece, as before the pieces were halved; the
    # 2 rows more fit in the tile allowance). Fitting every level before the scan held the six smaller
    # Cs, 3.1 MB, beside the top level's factor and C, and this bound failed.
    import tracemalloc

    from kinterp import diagnostics

    tile_workers(2)
    level_sets = design_levels(nested_equispaced_design(0, 1, 16, 7))
    target = make_target("abs_power", {"power": 1.0 / 3.0}, M32, UNIT)
    n, G, height = len(level_sets[-1]), 4097, 1025  # two workers' pieces: 2 * 513 rows
    extra = 2 * 2 * kernels.TILE_BYTES + 16 * 8 * G  # tile temporaries, row vectors
    scan, passes = diagnostics._scan_levels, []

    def recording_scan(kernel, levels, points, functions=None, blocks=None):
        # the peak of the pass's fit, then a fresh peak for its scan
        passes.append(([len(X) for X, _, _ in levels], tracemalloc.get_traced_memory()[1]))
        tracemalloc.reset_peak()
        return scan(kernel, levels, points, functions, blocks)

    monkeypatch.setattr(diagnostics, "_scan_levels", recording_scan)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the larger levels' fit residual warnings
        rows, last = traced_peak(measure_levels, M32, level_sets, grid1d(G), target,
                                 lebesgue=True, errors=True)
    assert [sizes for sizes, _ in passes] == [[len(X)] for X in reversed(level_sets)]
    fit_bound = 8 * 2 * n * n + extra
    scan_bound = 8 * (n * n + 2 * height * n) + extra
    fit_peak = passes[0][1]
    assert fit_peak <= fit_bound, f"fit {fit_peak / 2**20:.2f} > {fit_bound / 2**20:.2f} MiB"
    peak = max(last, *(p for _, p in passes))
    assert peak <= scan_bound, f"peak {peak / 2**20:.2f} > {scan_bound / 2**20:.2f} MiB"
    assert all(np.isfinite(row["lebesgue_constant"]) for row in rows)


def _fail_largest(level_sets):
    """Levels whose largest Gram fails to factor: a `factorize` patch."""
    order, factorize = max(map(len, level_sets)), interpolation.factorize

    def failing(K):
        if K.order == order:
            raise interpolation.FactorizationError("forced by test")
        return factorize(K)

    return failing


@pytest.mark.parametrize("levels, fail", [
    (_interval_levels, False), (_wide_interval_levels, False),
    (_unnested_interval_levels, False), (_wide_unnested_interval_levels, False),
    (_square_levels, False), (_wide_square_levels, False),
    (_square_levels, True), (_wide_interval_levels, True),
], ids=["interval", "wide_interval", "equispaced_levels", "wide_equispaced_levels",
        "square", "wide_square", "square_largest_fails", "wide_interval_largest_fails"])
@pytest.mark.filterwarnings("ignore::UserWarning")  # the larger levels' residuals
def test_rows_equal_one_level_calls(monkeypatch, levels, fail):
    # whatever the passes and their order, each row is the row the level
    # gives on its own, to the last bit, and the rows come in level order
    kernel, box, m, level_sets = levels()
    grid = EvalGrid.tensor(box, m)
    target = make_target("abs_power", {"power": 1.0 / 3.0}, kernel, box)
    if fail:
        monkeypatch.setattr(interpolation, "factorize", _fail_largest(level_sets))
    rows = measure_levels(kernel, level_sets, grid, target, lebesgue=True, errors=True)
    alone = [measure_levels(kernel, [X], grid, target, lebesgue=True, errors=True)[0]
             for X in level_sets]
    assert [row["jitter_flag"] == "failed" for row in rows] == [
        fail and len(X) == len(level_sets[-1]) for X in level_sets]
    assert _rows_key(rows) == _rows_key(alone)


def test_one_scan_pass_takes_only_prefixes_of_its_largest_level():
    # a pass fills the largest level's nodes, so a level that is not a prefix
    # of them would read another design's columns: the scan refuses it
    kernel, box, m, level_sets = _unnested_interval_levels()
    fits = [(X, None, lagrange_coefficients(kernel, X)[0]) for X in level_sets]
    with pytest.raises(ValueError, match="prefixes of its largest"):
        interpolation._scan_levels(kernel, fits, grid1d(65))
    passes, _ = interpolation._scan_plan(level_sets, grid1d(65), True)
    assert passes == [[2], [1], [0]]  # one pass each, the largest first
