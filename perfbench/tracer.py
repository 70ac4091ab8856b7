"""Span tracer for kinterp's public functions, installed from outside the
package by wrapping.

Every public function and public method defined in a traced module is
wrapped. A function imported by name into other modules (kernel_matrix is
bound in kernels, interpolation, diagnostics, targets and the package) is
replaced in every namespace that bound it, and everything is restored when
the tracer is removed. Each call records a span (name, start, end, parent);
a name's self time is its span durations minus the durations of the spans
nested directly inside them. Counter callbacks derive work counts from the
arguments and results of a call.

Run as a script it is the benchmark's traced run of one config:

    python perfbench/tracer.py <config> <out.json>

which pins the BLAS threads before numpy loads, runs `kinterp run <config>`
in this process with the tracer installed, and writes self times, counts,
spans and runtime information to <out.json>.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = {}
        self._open: list[list] = []  # [span index, time covered by children]
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, counter=None):
        """`fn` with a span around each call; `counter(counts, args, kwargs,
        result, error)` may add work counts to `self.counts`."""
        clock, spans, open_ = self.clock, self.spans, self._open

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = open_[-1][0] if open_ else -1
            frame = [index, 0.0]
            open_.append(frame)
            result = error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = clock()
                open_.pop()
                spans[index] = (name, start, end, parent)
                duration = end - start
                self.self_s[name] += duration - frame[1]
                self.calls[name] += 1
                if open_:
                    open_[-1][1] += duration
                if counter is not None:
                    counter(self.counts, args, kwargs, result, error)

        return traced

    def install(self, modules, counters=None) -> None:
        """Wrap the public functions and methods defined in `modules`.

        Names are `<module>.<qualname>`, e.g. `kernels.kernel_matrix` or
        `interpolation.Factorization.solve`. Every module of the same
        top-level package that bound a wrapped function is patched.
        """
        counters = counters or {}
        packages = {m.__name__.partition(".")[0] for m in modules}
        namespaces = [m for key, m in list(sys.modules.items())
                      if m is not None and key.partition(".")[0] in packages]
        for module in modules:
            short = module.__name__.rpartition(".")[2]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{short}.{attr}"
                    wrapper = self.wrap(name, obj, counters.get(name))
                    for ns in namespaces:
                        for bound, value in list(vars(ns).items()):
                            if value is obj:
                                self._patch(ns, bound, wrapper)
                elif inspect.isclass(obj):
                    self._install_methods(obj, f"{short}.{attr}", counters)

    def _install_methods(self, cls, prefix: str, counters) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self.wrap(name, raw.__func__, counters.get(name)))
            elif inspect.isfunction(raw):
                new = self.wrap(name, raw, counters.get(name))
            else:
                continue
            self._patch(cls, attr, new)

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def remove(self) -> None:
        """Restore every patched binding, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, modules, counters=None):
        try:
            self.install(modules, counters)
            yield self
        finally:
            self.remove()


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _add(counts: dict, key: str, value) -> None:
    counts[key] = counts.get(key, 0) + value


def _note_order(counts: dict, n: int) -> None:
    counts["process.n_max"] = max(counts.get("process.n_max", 0), n)


def _count_kernel_matrix(counts, args, kwargs, result, error):
    if result is not None:
        _add(counts, "kernels.kernel_matrix.entries", result.size)


def _count_assemble_gram(counts, args, kwargs, result, error):
    if result is not None:
        _note_order(counts, result.order)


def _count_fill_distance_grid(counts, args, kwargs, result, error):
    probe = _arg(args, kwargs, 1, "probe")
    points = getattr(probe, "points", probe)
    _add(counts, "geometry.fill_distance_grid.probe_points", len(points))


def _count_factorize(counts, args, kwargs, result, error):
    from kinterp.interpolation import JITTER_LADDER

    K = _arg(args, kwargs, 0, "K")
    n = getattr(K, "entries", K).shape[0]
    if result is not None:
        step = result.jitter_step
        attempts = 1 if step == 0.0 else 2 + JITTER_LADDER.index(step)
    else:
        attempts = 1 + len(JITTER_LADDER)
    _add(counts, "interpolation.factorize.attempts", attempts)
    _add(counts, "interpolation.factorize.flops", attempts * n ** 3 / 3.0)
    _note_order(counts, n)


def _count_solve(counts, args, kwargs, result, error):
    rhs = _arg(args, kwargs, 1, "rhs")
    _add(counts, "interpolation.Factorization.solve.rhs_columns",
         rhs.shape[1] if rhs.ndim == 2 else 1)


def _count_evaluate(counts, args, kwargs, result, error):
    if result is not None:
        _add(counts, "interpolation.evaluate.points", len(result))


def _count_lebesgue(counts, args, kwargs, result, error):
    C = _arg(args, kwargs, 2, "C")
    grid = _arg(args, kwargs, 3, "grid")
    _add(counts, "diagnostics.lebesgue_max_from_coefficients.gemm_flops",
         2.0 * len(grid) * C.shape[0] * C.shape[1])


KINTERP_COUNTERS = {
    "kernels.kernel_matrix": _count_kernel_matrix,
    "kernels.assemble_gram": _count_assemble_gram,
    "geometry.fill_distance_grid": _count_fill_distance_grid,
    "interpolation.factorize": _count_factorize,
    "interpolation.Factorization.solve": _count_solve,
    "interpolation.evaluate": _count_evaluate,
    "diagnostics.lebesgue_max_from_coefficients": _count_lebesgue,
}

# `targets` is left untraced: its callables take no measurable time.
TRACED_MODULES = ("kernels", "geometry", "interpolation", "diagnostics", "svg", "cli")

RESIDUAL_WARNING = "interpolation residual"


def traced_run(config: str) -> dict:
    """`kinterp run <config>` in this process with the tracer installed.

    Must run before numpy is imported so the pinned thread counts apply.
    """
    import importlib
    import os
    import resource
    import warnings

    import workloads

    os.environ.update({var: str(workloads.thread_count()) for var in workloads.THREAD_VARS})
    start = workloads.now()
    import kinterp
    import_s = workloads.now() - start
    modules = [importlib.import_module(f"kinterp.{name}") for name in TRACED_MODULES]

    tracer = Tracer()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with tracer.installed(modules, KINTERP_COUNTERS):
            code = modules[-1].main(["run", config])
    usage = resource.getrusage(resource.RUSAGE_SELF)
    counts = dict(tracer.counts)
    counts["interpolation.fit.residual_warnings"] = sum(
        1 for w in caught if issubclass(w.category, UserWarning)
        and str(w.message).startswith(RESIDUAL_WARNING))
    return {
        "exit_code": code,
        "kinterp_version": kinterp.__version__,
        "import_s": import_s,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "self_s": dict(tracer.self_s),
        "calls": dict(tracer.calls),
        "counts": counts,
        "spans": tracer.spans,
        "runtime": workloads.runtime_info(),
    }


if __name__ == "__main__":
    import json

    config_path, out_path = sys.argv[1:3]
    record = traced_run(config_path)
    with open(out_path, "w") as fh:
        json.dump(record, fh)
    sys.exit(record["exit_code"])
