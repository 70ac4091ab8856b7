"""Record the reference CSV of every workload variant from the current code.

    python3 perfbench/record_references.py [workload ...]

Runs `kinterp run` once per variant, the same way run.py does, and stores
the CSV as references/<workload>/vNN.csv. References define correct output
for the benchmark: re-record them only in a change whose purpose is to
change the results, and say so in that change.
"""

import shutil
import sys

import workloads
from run import Child, ROOT, REFERENCE_DIR


def record(workload: str) -> None:
    work = ROOT / ".perfbench" / f"record-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out_dir = REFERENCE_DIR / workload
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        for variant in range(workloads.N_VARIANTS):
            config = work / "bench.cfg"
            config.write_text(workloads.config_text(workloads.params_for(workload, variant),
                                                    workload))
            child = Child([sys.executable, "-m", "kinterp.cli", "run", config.name],
                          work, work / "run.log")
            if child.code != 0:
                raise SystemExit(f"{workload} v{variant}: exit {child.code}\n{child.stderr}")
            shutil.copyfile(work / f"{workload}.csv", out_dir / f"v{variant:02d}.csv")
            print(f"{workload} v{variant:02d}: {child.wall_s:.2f} s", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    for name in sys.argv[1:] or sorted(workloads.WORKLOADS):
        record(name)
