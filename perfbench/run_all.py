"""Run every benchmark workload once, one after another.

    python3 perfbench/run_all.py [--seed N] [--seconds S] [--trace 0|1]

Each workload runs as its own `perfbench/run.py` process, whose output
(starting with a `run {...}` line that names the workload) is passed through.
--seconds defaults to run_seconds from BENCHMARK.json.
"""

import argparse
import json
import subprocess
import sys

from workloads import BENCH_DIR, ROOT, WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)])
        code = code or proc.returncode
    return code


if __name__ == "__main__":
    sys.exit(main())
