"""Named built-in target functions for the experiments.

Targets are supplied by name plus parameters instead of user code, which
keeps experiment configs declarative and reruns deterministic. A target is
a function mapping an (m, N) array of points to an (m,) array of values;
points of another width than its domain's dimension N are rejected. The
CSV metadata names a target from the config, not from the function.
"""

from __future__ import annotations

import numpy as np

from .geometry import Box
from .kernels import Kernel, kernel_matrix


class TargetError(ValueError):
    pass


def _centers_array(params, dim: int, key: str = "centers") -> np.ndarray:
    """params[key] as (m, dim) points; `center` is one point, 0.5 on each axis by default."""
    c = np.atleast_2d(np.asarray(params.get(key, [0.5] * dim), dtype=float))
    one = key == "center"
    if c.shape[1] != dim or (one and len(c) != 1):
        raise TargetError(f"{key} must be {'one point' if one else 'points'} of dimension {dim}")
    return c


# The parameter names each target reads; it takes no others.
_PARAMETERS = {"constant": ("value",), "abs_power": ("center", "power"),
               "kernel_translate": ("center",), "translate_combo": ("centers", "weights"),
               "smooth_step": ("center", "width"), "trig": ("freq", "amplitude")}


def make_target(name: str, params: dict | None, kernel: Kernel, domain: Box):
    """Build a named target, a function of an (m, N) point array. An unknown
    name, a parameter the target does not read, a non-finite parameter, or a
    negative abs_power power raises with the offending field."""
    p = dict(params or {})
    dim = domain.dim
    if name not in _PARAMETERS:
        raise TargetError(f"unknown target name {name!r}")
    if stray := sorted(p.keys() - set(_PARAMETERS[name])):
        raise TargetError(f"{name} reads no parameter {', '.join(stray)}")
    for key, value in p.items():
        if not np.isfinite(np.asarray(value, dtype=float)).all():
            raise TargetError(f"{name} {key} must be finite")

    if name == "constant":
        v = float(p.get("value", 1.0))
        fn = lambda x: np.full(x.shape[0], v)
    elif name == "abs_power":
        center = _centers_array(p, dim, "center")
        power = float(p.get("power", 1.0))
        if power < 0:  # unbounded at the center, so not a continuous function
            raise TargetError("abs_power power must be nonnegative")
        def fn(x, c=center, q=power):
            d = np.sqrt(np.sum((x - c) ** 2, axis=1))
            return d ** q
    elif name == "kernel_translate":
        center = _centers_array(p, dim, "center")
        fn = lambda x, c=center: kernel_matrix(kernel, x, c)[:, 0]
    elif name == "translate_combo":
        if "centers" not in p:
            raise TargetError("translate_combo needs centers")
        centers = _centers_array(p, dim)
        weights = np.asarray(p.get("weights", np.ones(len(centers))), dtype=float)
        if weights.shape != (len(centers),):
            raise TargetError("weights must match the number of centers")
        fn = lambda x, c=centers, w=weights: kernel_matrix(kernel, x, c) @ w
    elif name == "smooth_step":
        center = np.asarray(p.get("center", 0.5), dtype=float)
        if center.size != 1:
            raise TargetError("smooth_step center must be one number")
        center = center.item()
        width = float(p.get("width", 0.1))
        if width <= 0:
            raise TargetError("smooth_step width must be positive")
        fn = lambda x, c=center, w=width: 0.5 * (1.0 + np.tanh((x[:, 0] - c) / w))
    else:  # trig
        freq = float(p.get("freq", 1.0))
        amp = float(p.get("amplitude", 1.0))
        fn = lambda x, f=freq, a=amp: a * np.sin(2.0 * np.pi * f * x).sum(axis=1)

    def target(points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != dim:
            raise TargetError(f"a {pts.shape[1]}-d point array for a {dim}-d target")
        return fn(pts)
    return target

