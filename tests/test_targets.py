import numpy as np
import pytest

from kinterp.geometry import Box
from kinterp.kernels import kernel_matrix, matern
from kinterp.targets import TargetError, make_target

UNIT = Box.interval(0.0, 1.0)
M32 = matern(1.5)


def test_constant():
    t = make_target("constant", {"value": 2.0}, M32, UNIT)
    assert np.array_equal(t([[0.1], [0.9]]), [2.0, 2.0])


def test_abs_power_kink():
    t = make_target("abs_power", {"center": 0.5, "power": 1.0}, M32, UNIT)
    assert t([[0.5]])[0] == 0.0
    assert t([[0.75]])[0] == pytest.approx(0.25)


def test_abs_power_cube_root():
    t = make_target("abs_power", {"center": 0.5, "power": 1.0 / 3.0}, M32, UNIT)
    assert t([[0.625]])[0] == pytest.approx(0.125 ** (1.0 / 3.0))


def test_kernel_translate_matches_kernel():
    t = make_target("kernel_translate", {"center": 0.3}, M32, UNIT)
    pts = np.linspace(0, 1, 11)[:, None]
    assert np.array_equal(t(pts), kernel_matrix(M32, pts, [[0.3]])[:, 0])


@pytest.mark.parametrize("name", ["abs_power", "kernel_translate"])
def test_center_needs_one_coordinate_per_axis(name):
    kernel, box = matern(1.5, dim=2), Box.unit_cube(2)
    for center in (0.3, (0.3,), (0.3, 0.6, 0.9), [(0.3, 0.6), (0.1, 0.2)]):
        with pytest.raises(TargetError, match="^center must be one point of dimension 2$"):
            make_target(name, {"center": center}, kernel, box)
    with pytest.raises(TargetError, match="^center must be one point of dimension 1$"):
        make_target(name, {"center": (0.3, 0.6)}, M32, UNIT)
    # the default is 0.5 on each axis, and a 1-tuple is a 1-d center
    at_center = 0.0 if name == "abs_power" else 1.0
    assert make_target(name, {}, kernel, box)([[0.5, 0.5]])[0] == at_center
    assert make_target(name, {"center": (0.3,)}, M32, UNIT)([[0.3]])[0] == at_center


def test_translate_combo():
    centers = [(0.2,), (0.8,)]
    w = [2.0, -1.0]
    t = make_target("translate_combo", {"centers": centers, "weights": w}, M32, UNIT)
    pts = np.array([[0.5]])
    expect = 2.0 * kernel_matrix(M32, pts, [[0.2]])[0, 0] \
        - kernel_matrix(M32, pts, [[0.8]])[0, 0]
    assert t(pts)[0] == pytest.approx(expect, rel=1e-15)


def test_translate_combo_weight_mismatch():
    with pytest.raises(TargetError):
        make_target("translate_combo", {"centers": [(0.2,)], "weights": [1.0, 2.0]},
                    M32, UNIT)


def test_smooth_step_limits():
    t = make_target("smooth_step", {"center": 0.5, "width": 0.02}, M32, UNIT)
    vals = t([[0.0], [0.5], [1.0]])
    assert vals[0] == pytest.approx(0.0, abs=1e-10)
    assert vals[1] == pytest.approx(0.5)
    assert vals[2] == pytest.approx(1.0, abs=1e-10)


def test_trig_2d_sums_axes():
    box = Box.unit_cube(2)
    t = make_target("trig", {"freq": 1.0}, matern(1.5, dim=2), box)
    assert t([[0.25, 0.25]])[0] == pytest.approx(2.0)


def test_unknown_name():
    with pytest.raises(TargetError):
        make_target("nope", {}, M32, UNIT)


def test_parameter_the_target_does_not_read():
    with pytest.raises(TargetError, match="trig reads no parameter center, power"):
        make_target("trig", {"power": 2.0, "center": 0.3}, M32, UNIT)
    make_target("trig", {"freq": 2.0, "amplitude": 0.5}, M32, UNIT)


@pytest.mark.parametrize("name, params, key", [
    ("constant", {"value": float("nan")}, "value"),
    ("trig", {"freq": float("inf")}, "freq"),
    ("translate_combo", {"centers": ((0.2,), (0.7,)), "weights": (1.0, float("nan"))},
     "weights"),
])
def test_non_finite_parameter_is_rejected(name, params, key):
    with pytest.raises(TargetError, match=f"^{name} {key} must be finite$"):
        make_target(name, params, M32, UNIT)


def test_negative_abs_power_is_rejected():
    # unbounded at its center, so not a continuous target; power 0 is the constant 1
    with pytest.raises(TargetError, match="^abs_power power must be nonnegative$"):
        make_target("abs_power", {"power": -0.5}, M32, UNIT)
    t = make_target("abs_power", {"power": 0.0}, M32, UNIT)
    assert np.array_equal(t([[0.5], [0.9]]), [1.0, 1.0])


@pytest.mark.parametrize("name", ["constant", "abs_power", "trig"])
def test_flat_array_is_not_read_as_one_point(name):
    # five 1-d points given flat would be one 5-d point
    t = make_target(name, {}, M32, UNIT)
    with pytest.raises(TargetError, match="^a 5-d point array for a 1-d target$"):
        t(np.linspace(0, 1, 5))
    assert t(np.linspace(0, 1, 5)[:, None]).shape == (5,)


def test_points_of_the_wrong_width_are_rejected():
    t = make_target("trig", {}, matern(1.5, dim=2), Box.unit_cube(2))
    pts = np.random.default_rng(0).uniform(size=(4, 3))
    with pytest.raises(TargetError, match="^a 3-d point array for a 2-d target$"):
        t(pts)
    assert np.array_equal(t(pts[:, :2]), np.sin(2.0 * np.pi * pts[:, :2]).sum(axis=1))
