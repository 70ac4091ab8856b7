"""Set-up probe: import kinterp and build one workload's design and EvalGrid,
fitting nothing.

    python perfbench/setup_probe.py <workload> <variant>

Prints one JSON line: `end`, the monotonic clock reading once the inputs
are built, and `runtime`, the versions and BLAS thread counts of this
process (collected after `end` is read). The parent subtracts its clock
reading from just before it started this process, so the set-up time runs
from interpreter start-up to built inputs.
"""

import json
import sys

import workloads


def main(workload: str, variant: int) -> None:
    import kinterp

    workloads.build_inputs(kinterp, workloads.params_for(workload, variant))
    end = workloads.now()
    print(json.dumps({"end": end, "runtime": workloads.runtime_info()}))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
