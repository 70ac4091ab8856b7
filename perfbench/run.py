"""kinterp benchmark: time to a correct result, set-up time and memory of
`kinterp run` on three workloads, plus a traced per-module breakdown.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see workloads.py):

  square_lebesgue     2-d Lebesgue trace, Matern 3/2, greedy design, 513^2
                      grid: the grid-scan path (kernel_matrix blocks, the
                      Lebesgue GEMM, fill_distance_grid).
  interval_escape     1-d convergence run to n=2175 on a 4097 grid: Lebesgue,
                      norm and sup/L2 errors, so time spreads over kernel
                      blocks, the GEMM, the n-column solve and factorize.
  interval_norm_kink  1-d norm growth to n=4351: fits only, no grid scan;
                      factorize (jitter ladder) and Gram assembly dominate,
                      and memory peaks with the n^2 copies.

All load comes from this one process; workloads run one at a time, each
`kinterp run` in a fresh child process with every BLAS/OpenMP thread
variable set to the core count.

--trace 0 prints the end-to-end metrics:
  wall_s       median wall time of `python -m kinterp.cli run <config>`, from
               process start until it exits with its CSV and SVG written;
               MIN_SAMPLES runs, then more until --seconds have passed.
  setup_s      median over SETUP_PROBES fresh processes of the time from
               interpreter start until `import kinterp` has finished and the
               design and EvalGrid are built (setup_probe.py).
  peak_rss_mb  median ru_maxrss of the run processes.
--trace 1 prints the per-layer metrics of one traced in-process run
(tracer.py), after untraced samples for --seconds / 2 that give the tracing
overhead.

Every run's CSV is compared with the reference recorded for the seed's
variant (references/, written by record_references.py). `attempted` and
`failed` in the result count levels; a level fails when its jitter_flag is
"failed", it is missing, or a column falls outside RTOL of the reference.
The last line of output is the JSON result; everything measured, with the
spans of a traced run, is also written to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path

import workloads
from workloads import BENCH_DIR, REFERENCE_DIR, ROOT, now

SETUP_PROBES = 3
# Untraced runs per end-to-end measurement, at least; more are taken until
# --seconds have passed.
MIN_SAMPLES = 3
# Relative tolerance of a CSV value (column or metadata key) against its
# reference. Values from ill-conditioned solves move with the order of
# floating-point sums: between 1 and 2 BLAS threads the Lebesgue constants
# moved by up to 2.2e-4, the errors by 8.3e-6 and the jittered native norms
# by 1.8e-2, so those get about five times that; everything else is exact
# up to roundoff.
RTOL = {"lebesgue_constant": 1e-3, "sup_error": 1e-3, "l2_error": 1e-3,
        "convergence.sup_slope": 1e-3, "convergence.l2_slope": 1e-3,
        "native_norm": 1e-1, "norm_growth.slope": 1e-1}
DEFAULT_RTOL = 1e-9
FLAG_COLUMNS = ("jitter_flag", "sampling_condition")
# A child still running after this many seconds is killed and counted failed.
CHILD_TIMEOUT_S = 150.0

# Per-layer self times reported for functions that every workload calls.
TIMED_FUNCTIONS = (
    "kernels.kernel_matrix", "kernels.assemble_gram", "kernels.min_pairwise_distance",
    "interpolation.factorize", "interpolation.Factorization.solve",
    "diagnostics.EvalGrid.tensor", "diagnostics.DiagnosticsReport.to_csv",
    "svg.emit_svg", "cli.parse_config", "cli.run",
)
# Functions that only some workloads call, reported as the sum over the
# group so that the time is measured on every workload.
TIMED_GROUPS = {
    "geometry.fill_distance": ("geometry.fill_distance_grid", "geometry.fill_distance_interval"),
    "geometry.design": ("geometry.generate_candidates", "geometry.geometric_greedy",
                        "geometry.nested_equispaced_design"),
}
TIMED_MODULES = ("kernels", "geometry", "interpolation", "diagnostics")
COUNTED = {
    "kernels.kernel_matrix.entries": "count",
    "geometry.fill_distance_grid.probe_points": "count",
    "interpolation.factorize.attempts": "count",
    "interpolation.factorize.flops": "flop",
    "interpolation.Factorization.solve.rhs_columns": "count",
    "interpolation.fit.residual_warnings": "count",
    "interpolation.evaluate.points": "count",
    "diagnostics.lebesgue_max_from_coefficients.gemm_flops": "flop",
}
CALL_COUNTED = ("kernels.kernel_matrix", "kernels.min_pairwise_distance",
                "interpolation.factorize", "interpolation.fit")


class Child:
    """One finished child process: exit code, wall seconds, peak RSS."""

    def __init__(self, argv, cwd: Path, log: Path):
        with open(log, "wb") as err:
            start = now()
            proc = subprocess.Popen(argv, cwd=cwd, env=workloads.pinned_env(),
                                    stdout=subprocess.PIPE, stderr=err)
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                self.stdout = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
                self.wall_s = now() - start
            finally:
                killer.cancel()
                proc.stdout.close()
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.start = start
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.stderr = log.read_text(errors="replace")


def read_csv(data: bytes) -> tuple[dict, list[dict]]:
    meta, body = {}, []
    for line in data.decode().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip()
        else:
            body.append(line)
    return meta, list(csv.DictReader(body))


def value_matches(got: str | None, want: str, rtol: float) -> bool:
    if got is None:
        return False
    try:
        a, b = float(got), float(want)
    except ValueError:
        return got == want
    if math.isnan(b):
        return math.isnan(a)
    return math.isclose(a, b, rel_tol=rtol, abs_tol=0.0)


def check_csv(data: bytes | None, reference: bytes) -> dict:
    """Levels attempted and failed against the reference, whether the
    result metadata matches, and whether the bytes are identical."""
    ref_meta, ref_rows = read_csv(reference)
    if data is None:
        return {"attempted": len(ref_rows), "failed": len(ref_rows),
                "metadata_ok": False, "identical": False}
    meta, rows = read_csv(data)
    by_n = {row.get("n"): row for row in rows}
    failed = 0
    for ref in ref_rows:
        row = by_n.get(ref["n"])
        ok = (row is not None and row.get("jitter_flag") != "failed"
              and all(row.get(col) == want if col in FLAG_COLUMNS
                      else value_matches(row.get(col), want, RTOL.get(col, DEFAULT_RTOL))
                      for col, want in ref.items()))
        failed += not ok
    metadata_ok = all(value_matches(meta.get(key), want, RTOL.get(key, DEFAULT_RTOL))
                      for key, want in ref_meta.items())
    return {"attempted": len(ref_rows), "failed": failed,
            "metadata_ok": metadata_ok, "identical": data == reference}


class Bench:
    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.variant = workloads.variant_of(seed)
        self.work = work
        self.prefix = workload
        self.config = work / "bench.cfg"
        self.config.write_text(workloads.config_text(
            workloads.params_for(workload, self.variant), self.prefix))
        self.reference = (REFERENCE_DIR / workload / f"v{self.variant:02d}.csv").read_bytes()
        self.checks: list[dict] = []
        self.errors: list[str] = []

    def _outputs(self) -> tuple[Path, Path]:
        return self.work / f"{self.prefix}.csv", self.work / f"{self.prefix}.svg"

    def _finish(self, child: Child, label: str) -> bytes | None:
        """Check a finished `kinterp run` child; returns its CSV bytes."""
        csv_path, svg_path = self._outputs()
        data = csv_path.read_bytes() if csv_path.exists() else None
        if child.code != 0 or data is None or not svg_path.exists():
            self.errors.append(f"{label}: exit {child.code}, csv {data is not None}, "
                               f"svg {svg_path.exists()}: {child.stderr[-400:]}")
        check = check_csv(data, self.reference)
        if not check["metadata_ok"]:
            self.errors.append(f"{label}: CSV metadata differs from the reference")
        self.checks.append(check)
        return data

    def _clear(self) -> None:
        for path in self._outputs():
            path.unlink(missing_ok=True)

    def run_sample(self) -> tuple[Child, bytes | None]:
        self._clear()
        child = Child([sys.executable, "-m", "kinterp.cli", "run", self.config.name],
                      self.work, self.work / "run.log")
        return child, self._finish(child, "kinterp run")

    def run_samples(self, budget_s: float, min_samples: int) -> tuple[list[Child], bytes | None]:
        samples, data, start = [], None, now()
        while len(samples) < min_samples or now() - start < budget_s:
            child, data = self.run_sample()
            samples.append(child)
        return samples, data

    def setup_sample(self) -> tuple[float, dict]:
        child = Child([sys.executable, str(BENCH_DIR / "setup_probe.py"),
                       self.workload, str(self.variant)], self.work, self.work / "setup.log")
        if child.code != 0:
            self.errors.append(f"setup probe: exit {child.code}: {child.stderr[-400:]}")
            return math.nan, {}
        record = json.loads(child.stdout.decode().strip().splitlines()[-1])
        return record["end"] - child.start, record["runtime"]

    def traced_sample(self) -> tuple[Child, dict, bytes | None]:
        self._clear()
        out = self.work / "trace.json"
        child = Child([sys.executable, str(BENCH_DIR / "tracer.py"), self.config.name, out.name],
                      self.work, self.work / "trace.log")
        data = self._finish(child, "traced run")
        record = json.loads(out.read_text()) if out.exists() else {}
        return child, record, data

    def outcome(self) -> dict:
        attempted = sum(c["attempted"] for c in self.checks)
        failed = sum(c["failed"] for c in self.checks)
        return {"correct": failed == 0 and not self.errors,
                "attempted": attempted, "failed": failed}


def distribution(values: list[float]) -> dict:
    """Median plus the highest percentile with at least ten samples beyond
    it (None with fewer than eleven samples)."""
    ordered = sorted(values)
    n = len(ordered)
    tail = None
    if n >= 11:
        rank = n - 10
        tail = {"percentile": 100.0 * rank / n, "value": ordered[rank - 1]}
    return {"median": statistics.median(ordered), "tail": tail, "samples": n, "values": values}


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "kinterp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def end_to_end(bench: Bench, seconds: int) -> tuple[dict, list[str], dict]:
    """Median end-to-end metrics, the lines that show them, and the raw
    distributions and runtime information for the results file."""
    setups = [bench.setup_sample() for _ in range(SETUP_PROBES)]
    samples, _ = bench.run_samples(seconds, MIN_SAMPLES)
    dists = {
        "wall_s": (distribution([c.wall_s for c in samples]), "s"),
        "setup_s": (distribution([s for s, _ in setups]), "s"),
        "peak_rss_mb": (distribution([c.rss_mb for c in samples]), "MB"),
    }
    lines = []
    for name, (d, unit) in dists.items():
        tail = (f"p{d['tail']['percentile']:.0f} {d['tail']['value']:.4f} {unit}"
                if d["tail"] else "tail percentile n/a (fewer than 11 samples)")
        lines.append(f"  {name:12s} median {d['median']:.4f} {unit}, {tail}, "
                     f"{d['samples']} samples")
    metrics = {name: (d["median"], unit) for name, (d, unit) in dists.items()}
    runtime = next((info for _, info in setups if info), {})
    return metrics, lines, {"runtime": runtime, "distributions": dists}


def per_layer(bench: Bench, seconds: int) -> tuple[dict, list[str], dict]:
    """Per-layer metrics of one traced run, the lines that show them with
    every traced function's self time, and the record for the results file."""
    samples, untraced = bench.run_samples(seconds / 2.0, 1)
    child, record, traced = bench.traced_sample()
    if not record:
        raise SystemExit(f"traced run wrote no record: {child.stderr[-400:]}")
    if traced is None or traced != untraced:
        bench.errors.append("traced run CSV differs from the untraced run's bytes")
    self_s, counts, calls = record["self_s"], record["counts"], record["calls"]
    record["untraced_wall_s"] = [c.wall_s for c in samples]
    untraced_wall = statistics.median(record["untraced_wall_s"])
    metrics = {}
    for module in TIMED_MODULES:
        metrics[f"{module}.self_s"] = (
            sum(v for k, v in self_s.items() if k.startswith(module + ".")), "s")
    for name in TIMED_FUNCTIONS:
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for group, names in TIMED_GROUPS.items():
        metrics[f"{group}.self_s"] = (sum(self_s.get(n, 0.0) for n in names), "s")
    for name in CALL_COUNTED:
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
    for name, unit in COUNTED.items():
        metrics[name] = (counts.get(name, 0), unit)
    metrics.update({
        "process.import_s": (record["import_s"], "s"),
        "process.cpu_s": (record["cpu_s"], "s"),
        "process.traced_wall_s": (child.wall_s, "s"),
        "process.trace_overhead_s": (child.wall_s - untraced_wall, "s"),
        "process.dense_bytes_max": (8 * counts.get("process.n_max", 0) ** 2, "B"),
        "process.blas_threads": (record["runtime"]["blas_threads"], "count"),
        "cli.csv_bytes_identical": (sum(c["identical"] for c in bench.checks), "count"),
    })
    lines = [f"  self {name:48s} {self_s[name]:10.4f} s  {calls[name]:6d} calls"
             for name in sorted(self_s, key=self_s.get, reverse=True)]
    lines += [f"  {name:56s} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    return metrics, lines, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kinterp" / "cli.py").is_file():
        print(f"error: no kinterp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(args.workload, args.seed, work)
        measure = per_layer if args.trace else end_to_end
        metrics, lines, record = measure(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    outcome = bench.outcome()
    info = {"workload": args.workload, "seed": args.seed, "variant": bench.variant,
            "git_sha": git_sha(), "source_sha256": source_sha256(), **record["runtime"]}
    print("run " + json.dumps(info))
    print("\n".join(lines))
    ratio = outcome["failed"] / outcome["attempted"]
    identical = sum(c["identical"] for c in bench.checks)
    print(f"  level_fail_ratio {outcome['failed']}/{outcome['attempted']} = {ratio:.4g}; "
          f"cli.csv_bytes_identical {identical}/{len(bench.checks)} runs")
    for error in bench.errors:
        print(f"  error: {error}")

    result = {**outcome, "metrics": {name: {"value": value, "unit": unit}
                                     for name, (value, unit) in metrics.items()}}
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    with open(results / f"{stem}.json", "w") as fh:
        json.dump({"info": info, "result": result, "errors": bench.errors,
                   "checks": bench.checks, "record": record}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
