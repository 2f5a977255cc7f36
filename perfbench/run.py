"""Benchmark of the `qps` CLI, run one child process at a time.

    python3 perfbench/run.py --workload clt-d3n5 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  Set-up runs `import qps.cli`
in fresh interpreters; then the workload's CLI command runs again and
again, closed loop, until the next run would pass `--seconds`.  Every
run's output is checked against `reference/`.  The last line of stdout
is one JSON object: with `--trace 0` it holds the end-to-end metrics,
with `--trace 1` the per-layer metrics of runs traced by `tracing.py`,
each paired with an untraced run.  The line before it records the
environment, the clt seeds used and every run's wall time.  Children
see BLAS and OpenMP pinned to one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import threading
import time
from typing import NamedTuple

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 7
# Every invocation must end within 180 s; no child may run past this.
DEADLINE_S = 165.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

PROBE = """\
import json, platform, numpy, qps.cli
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "blas": f"{blas['name']} {blas['version']}", "qps": qps.cli.__file__}))
"""


class Child(NamedTuple):
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(args, env, tmp, timeout) -> Child:
    """Run `python3 ARGS` to completion; time it and take its rusage from wait4."""
    out_path, err_path = os.path.join(tmp, "stdout"), os.path.join(tmp, "stderr")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=actions)
    watchdog = threading.Timer(max(timeout, 0.0), os.kill, (pid, signal.SIGKILL))
    watchdog.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    with open(out_path) as out, open(err_path) as err:
        stdout, stderr = out.read(), err.read()
    return Child(os.waitstatus_to_exitcode(status), stdout, stderr, wall,
                 usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


class SetupError(Exception):
    pass


def setup(env, tmp, deadline):
    """Check the checkout and environment; return (environment, import times)."""
    if not os.path.isfile(os.path.join(SRC, "qps", "cli.py")):
        raise SetupError(f"no qps sources under {SRC}")
    probe = run_child(["-c", PROBE], env, tmp, deadline - time.perf_counter())
    if probe.returncode != 0:
        raise SetupError(f"environment probe failed: {probe.stderr.strip()}")
    record = json.loads(probe.stdout)
    if not os.path.abspath(record.pop("qps")).startswith(SRC + os.sep):
        raise SetupError("qps was not imported from this checkout")
    record["nproc"] = len(os.sched_getaffinity(0))
    record["threads"] = {var: env[var] for var in THREAD_VARS}
    times = []
    for _ in range(SETUP_REPEATS):
        child = run_child(["-c", "import qps.cli"], env, tmp, deadline - time.perf_counter())
        if child.returncode != 0:
            raise SetupError(f"import qps.cli failed: {child.stderr.strip()}")
        times.append(child.wall_s)
    return record, times


class Loop:
    """Closed loop over CLI runs of one workload, with every output checked."""

    def __init__(self, workload, seed, env, tmp, deadline):
        self.workload, self.seed, self.env = workload, seed, env
        self.tmp, self.deadline = tmp, deadline
        self.reference = workloads.load_reference(workload)
        self.attempted = self.failed = 0
        self.seeds_used, self.walls = [], []

    def run(self, index, spans_path=None) -> Child:
        cli_seed = workloads.cli_seed(self.workload, self.seed, index)
        args = workloads.cli_args(self.workload, cli_seed)
        if spans_path is None:
            argv = ["-m", "qps.cli", *args]
        else:
            argv = [os.path.join(HERE, "tracing.py"), spans_path, "--", *args]
        child = run_child(argv, self.env, self.tmp, self.deadline - time.perf_counter())
        problem = workloads.check_output(self.workload, self.reference, cli_seed,
                                         child.returncode, child.stdout)
        self.attempted += 1
        self.seeds_used.append(cli_seed)
        self.walls.append(child.wall_s)
        if problem is not None:
            self.failed += 1
            print(f"{self.workload} run {index}: {problem}\n{child.stderr[-2000:]}",
                  file=sys.stderr)
        return child


def repeat(step, seconds, deadline):
    """Call `step` until another call would likely end past `seconds` or `deadline`."""
    start = time.perf_counter()
    durations = []
    while True:
        began = time.perf_counter()
        step()
        now = time.perf_counter()
        durations.append(now - began)
        typical = statistics.median(durations)
        if now - start + typical > seconds or now + typical > deadline:
            return


def measure(loop, seconds):
    """End-to-end metrics of untraced runs."""
    runs = []
    repeat(lambda: runs.append(loop.run(len(runs))), seconds, loop.deadline)
    return {
        "wall_s": {"value": statistics.median(r.wall_s for r in runs), "unit": "s"},
        "cpu_s": {"value": statistics.median(r.cpu_s for r in runs), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r.peak_rss_mb for r in runs),
                        "unit": "MiB"},
        "ok_frac": {"value": 1.0 - loop.failed / loop.attempted, "unit": "ratio"},
    }


def measure_traced(loop, seconds):
    """Per-layer metrics of traced runs, each paired with an untraced run."""
    spans_path = os.path.join(loop.tmp, "spans.json")
    plain, traced, layers = [], [], []

    def pair():
        index = len(traced)
        # Alternate which of the pair goes first, so drift hits both alike.
        for path in (None, spans_path) if index % 2 == 0 else (spans_path, None):
            child = loop.run(index, path)
            if path is None:
                plain.append(child)
                continue
            traced.append(child)
            with open(path) as fh:
                layers.append(tracing.layer_metrics(json.load(fh)))
            os.remove(path)

    repeat(pair, seconds, loop.deadline)
    metrics = {name: {"value": statistics.median(run[name] for run in layers),
                      "unit": unit(name)}
               for name in tracing.metric_names()}
    overhead = (statistics.median(t.wall_s for t in traced)
                - statistics.median(p.wall_s for p in plain))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def unit(name: str) -> str:
    return "count" if name.endswith(".calls") else "s"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.perf_counter() + DEADLINE_S
    env = child_env()
    tmp = os.path.join(ROOT, f".perfbench_tmp.{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        try:
            environment, setup_times = setup(env, tmp, deadline)
        except SetupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        loop = Loop(args.workload, args.seed, env, tmp, deadline)
        if args.trace:
            metrics = measure_traced(loop, args.seconds)
        else:
            metrics = measure(loop, args.seconds)
            metrics["setup_s"] = {"value": statistics.median(setup_times), "unit": "s"}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({"environment": environment, "workload": args.workload, "seed": args.seed,
                      "cli_seeds": loop.seeds_used, "wall_s_samples": loop.walls,
                      "setup_s_samples": setup_times}))
    print(json.dumps({"correct": loop.failed == 0, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
