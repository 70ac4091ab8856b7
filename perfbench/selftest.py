"""Self-test of the benchmark's tracer.

    python3 perfbench/selftest.py

Checks that self time subtracts nested spans, that wrappers are installed in
every namespace that bound a function and removed afterwards, and that a
traced run writes the same CSV bytes as an untraced one.
"""

import importlib
import shutil
import subprocess
import sys
import unittest

import workloads

sys.path.insert(0, str(workloads.ROOT / "src"))

import kinterp  # noqa: E402
from tracer import KINTERP_COUNTERS, TRACED_MODULES, Tracer  # noqa: E402

MODULES = [importlib.import_module(f"kinterp.{name}") for name in TRACED_MODULES]


def kinterp_namespaces():
    return [m for key, m in sys.modules.items() if key.partition(".")[0] == "kinterp"]


class StepClock:
    """A clock that advances by one on every reading."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


class SelfTimeTest(unittest.TestCase):
    def test_arithmetic_with_a_step_clock(self):
        tracer = Tracer(clock=StepClock())
        inner = tracer.wrap("inner", lambda: None)
        outer = tracer.wrap("outer", lambda: (inner(), inner()))
        outer()
        # outer reads the clock at 1 and 6; the inner calls span 2-3 and 4-5.
        self.assertEqual(tracer.self_s["inner"], 2.0)
        self.assertEqual(tracer.self_s["outer"], 3.0)
        self.assertEqual(tracer.calls, {"inner": 2, "outer": 1})

    def assert_self_times_consistent(self, tracer):
        spans = tracer.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        expected = {}
        for (name, start, end, _), covered in zip(spans, child_time):
            expected[name] = expected.get(name, 0.0) + (end - start) - covered
        for name, value in expected.items():
            self.assertAlmostEqual(tracer.self_s[name], value, delta=1e-9)

    def parents(self, tracer, name):
        return {tracer.spans[p][0] if p >= 0 else None
                for n, _, _, p in tracer.spans if n == name}

    def test_lebesgue_scan_and_fit_chains(self):
        kernel = kinterp.matern(1.5, gamma=1.0)
        X = kinterp.equispaced_interval(0.0, 1.0, 30)
        grid = kinterp.EvalGrid.tensor(X.domain, 9000)  # two scan chunks
        C, _ = kinterp.lagrange_coefficients(kernel, X)
        tracer = Tracer()
        with tracer.installed(MODULES, KINTERP_COUNTERS):
            kinterp.diagnostics.lebesgue_max_from_coefficients(kernel, X, C, grid)
            kinterp.fit(kernel, X, X.points[:, 0] ** 2)
        self.assertEqual(self.parents(tracer, "kernels.kernel_matrix"),
                         {"diagnostics.lebesgue_max_from_coefficients", "kernels.assemble_gram"})
        self.assertEqual(self.parents(tracer, "kernels.assemble_gram"), {"interpolation.fit"})
        self.assertEqual(tracer.calls["kernels.kernel_matrix"], 3)
        self.assert_self_times_consistent(tracer)
        scan = [s for s in tracer.spans if s[0] == "diagnostics.lebesgue_max_from_coefficients"][0]
        self.assertLess(tracer.self_s["diagnostics.lebesgue_max_from_coefficients"],
                        scan[2] - scan[1])
        self.assertEqual(tracer.counts["diagnostics.lebesgue_max_from_coefficients.gemm_flops"],
                         2.0 * 9000 * 30 * 30)
        self.assertEqual(tracer.counts["interpolation.factorize.attempts"], 1)


class InstallTest(unittest.TestCase):
    def test_installed_everywhere_and_removed(self):
        original = kinterp.kernels.kernel_matrix
        solve = vars(kinterp.Factorization)["solve"]
        tensor = vars(kinterp.EvalGrid)["tensor"]
        bound = [(m, k) for m in kinterp_namespaces() for k, v in vars(m).items() if v is original]
        self.assertTrue({m.__name__ for m, _ in bound} >= {
            "kinterp", "kinterp.kernels", "kinterp.interpolation", "kinterp.diagnostics",
            "kinterp.targets"})
        tracer = Tracer()
        with tracer.installed(MODULES):
            wrapper = kinterp.kernels.kernel_matrix
            self.assertIsNot(wrapper, original)
            for module, key in bound:
                self.assertIs(getattr(module, key), wrapper, module.__name__)
            self.assertIsNot(vars(kinterp.Factorization)["solve"], solve)
            self.assertIsInstance(vars(kinterp.EvalGrid)["tensor"], classmethod)
            wrapped = {id(orig) for _, _, orig in tracer._patches}
            for module in kinterp_namespaces():
                for key, value in vars(module).items():
                    self.assertNotIn(id(value), wrapped, f"{module.__name__}.{key} left unwrapped")
        for module, key in bound:
            self.assertIs(getattr(module, key), original)
        self.assertIs(vars(kinterp.Factorization)["solve"], solve)
        self.assertIs(vars(kinterp.EvalGrid)["tensor"], tensor)
        self.assertEqual(tracer._patches, [])


SMALL = {
    "square": dict(workloads.WORKLOADS["square_lebesgue"], candidates=2000,
                   levels=(10, 20, 40), points_per_axis=65),
    "escape": dict(workloads.WORKLOADS["interval_escape"], levels=(8, 17, 35)),
    "kink": dict(workloads.WORKLOADS["interval_norm_kink"], levels=(8, 17, 35)),
}


class TracedOutputTest(unittest.TestCase):
    def test_traced_run_writes_the_same_csv_bytes(self):
        work = workloads.ROOT / ".perfbench" / "selftest"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        env = workloads.pinned_env()
        try:
            for name, params in SMALL.items():
                (work / "small.cfg").write_text(workloads.config_text(params, name))
                runs = {
                    "untraced": [sys.executable, "-m", "kinterp.cli", "run", "small.cfg"],
                    "traced": [sys.executable, str(workloads.BENCH_DIR / "tracer.py"),
                               "small.cfg", "trace.json"],
                }
                outputs = {}
                for label, argv in runs.items():
                    subprocess.run(argv, cwd=work, env=env, check=True, capture_output=True)
                    outputs[label] = (work / f"{name}.csv").read_bytes()
                    (work / f"{name}.csv").unlink()
                self.assertEqual(outputs["traced"], outputs["untraced"], name)
        finally:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
