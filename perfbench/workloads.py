"""The benchmark's workloads and the checks applied to every run's output.

Each workload is one `qps` CLI command. Why each was chosen, and the
known defects it routes around, is written up in README.md next to
this file.
"""

from __future__ import annotations

import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

# The clt trajectory falls to about 1e-17 by step 7, and its low digits
# already change with the BLAS thread count, so values are compared with
# an absolute tolerance rather than byte for byte.
CLT_ATOL = 1e-9

# References exist for clt seeds 0 .. CLT_SEED_POOL - 1.  Run i of a
# benchmark invocation with seed s uses clt seed (s + i) % CLT_SEED_POOL.
CLT_SEED_POOL = 32

WORKLOADS = {
    "clt-d3n5": ["clt", "--d", "3", "--n", "5", "--N", "10", "--family", "hadamard"],
    "verify-d5n1": ["verify", "--suite", "all", "--d", "5", "--n", "1", "--seeds", "10",
                    "--jobs", "1"],
    "fisher-d3n4": ["verify", "--suite", "fisher", "--d", "3", "--n", "4", "--seeds", "4",
                    "--jobs", "1"],
}


def cli_seed(workload: str, seed: int, run_index: int) -> int | None:
    """The `--seed` passed to run `run_index` of an invocation, or None.

    `qps verify` never reads `--seed`, so the verify workloads take none.
    """
    if workload == "clt-d3n5":
        return (seed + run_index) % CLT_SEED_POOL
    return None


def cli_args(workload: str, seed: int | None) -> list[str]:
    args = list(WORKLOADS[workload])
    if seed is not None:
        args += ["--seed", str(seed)]
    return args


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def load_reference(workload: str) -> dict:
    with open(reference_path(workload)) as fh:
        return json.load(fh)


def compare_clt(text: str, header: str, rows: list[list[float]], atol: float = CLT_ATOL):
    """Compare a clt CSV with reference rows; return a problem, or None if it matches."""
    lines = text.splitlines()
    if not lines or lines[0] != header:
        return f"header {lines[:1]} differs from {header!r}"
    body = lines[1:]
    if len(body) != len(rows):
        return f"{len(body)} rows, reference has {len(rows)}"
    columns = header.split(",")
    for got_line, want in zip(body, rows):
        try:
            got = [float(v) for v in got_line.split(",")]
        except ValueError:
            return f"unparseable row {got_line!r}"
        if len(got) != len(want):
            return f"row {got_line!r} has {len(got)} columns, reference has {len(want)}"
        if got[0] != want[0]:
            return f"step {got[0]} where the reference has {want[0]}"
        for name, g, w in zip(columns[1:], got[1:], want[1:]):
            if not abs(g - w) <= atol:
                return f"step {want[0]:g} {name} = {g!r}, reference {w!r} (atol {atol})"
    return None


def compare_verify(text: str, names: list[str]):
    """Require a passing verify report with exactly the reference check names."""
    try:
        report = json.loads(text)
        got = sorted(c["name"] for c in report["checks"])
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed verify report: {exc}"
    if report.get("pass") is not True:
        failed = [c["name"] for c in report["checks"] if not c.get("passed")]
        return f"report does not pass; failed checks {failed[:5]}"
    want = sorted(names)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        return (f"{len(got)} checks, reference has {len(want)}; "
                f"missing {missing[:5]}, unexpected {extra[:5]}")
    return None


def check_output(workload: str, reference: dict, seed: int | None,
                 returncode: int, stdout: str):
    """Return why a run's output is wrong, or None if it is correct."""
    if returncode != 0:
        return f"exit code {returncode}"
    if workload == "clt-d3n5":
        return compare_clt(stdout, reference["header"], reference["runs"][str(seed)])
    return compare_verify(stdout, reference["checks"])
