"""Record the reference outputs that every benchmark run is checked against.

    python3 perfbench/record_reference.py

Run it only at a commit whose outputs are trusted: the references were
recorded at the commit that added the benchmark, in the benchmark's own
child environment (BLAS pinned to one thread).  Re-recording at a later
commit would let a changed result pass as correct.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads


def record(workload, env, tmp):
    seeds = range(workloads.CLT_SEED_POOL) if workload == "clt-d3n5" else [None]
    outputs = {}
    for seed in seeds:
        child = run.run_child(["-m", "qps.cli", *workloads.cli_args(workload, seed)],
                              env, tmp, timeout=600)
        if child.returncode != 0:
            sys.exit(f"{workload} seed {seed}: exit {child.returncode}\n{child.stderr}")
        outputs[seed] = child.stdout
    if workload == "clt-d3n5":
        header = outputs[0].splitlines()[0]
        runs = {str(seed): [[float(v) for v in line.split(",")]
                            for line in text.splitlines()[1:]]
                for seed, text in outputs.items()}
        return {"header": header, "runs": runs}
    report = json.loads(outputs[None])
    if report["pass"] is not True:
        sys.exit(f"{workload}: verify report does not pass")
    return {"checks": [c["name"] for c in report["checks"]]}


def main() -> int:
    env = run.child_env()
    tmp = os.path.join(run.ROOT, f".perfbench_tmp.{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    try:
        for workload in workloads.WORKLOADS:
            ref = record(workload, env, tmp)
            with open(workloads.reference_path(workload), "w") as fh:
                json.dump(ref, fh, indent=1)
                fh.write("\n")
            print(f"recorded {workloads.reference_path(workload)}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
