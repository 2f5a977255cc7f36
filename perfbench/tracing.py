"""Per-layer tracing of one `qps` CLI run, from outside the package.

Run as a script, it wraps the layer functions listed below at every
place `qps` binds them, runs `qps.cli.main(argv)` in this process, keeps
one span (name, start, end, parent) per wrapped call in memory and
writes the spans as JSON when the command ends:

    PYTHONPATH=src python3 perfbench/tracing.py SPANS.json -- clt --d 3 --n 2

Imported, it turns a list of spans into the per-layer metrics.  This
half needs no `qps` import.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# Layer functions timed by calls and self time, as "<module>.<function>"
# under the `qps` package.
TIMED = (
    "convolution.convolve",
    "convolution.convolve_char",
    "states.make_state",
    "states.char_function",
    "states.from_char",
    "entropy.renyi_entropy",
    "entropy.renyi_relative",
    "mean_magic.mean_state",
    "mean_magic.magic_gap",
    "fisher.fisher_total",
    "fisher.fisher_single",
    "fisher.dephase",
    "channels.convolve_channels",
)

# `qps.verify` suites, timed by total (inclusive) time.
SUITES = ("weyl", "duality", "majorization", "entropy", "fisher", "hudson", "channels")

# Eigendecompositions, counted together under one span name.
EIG_SPAN = "numpy.linalg.eig"
EIG_FUNCTIONS = ("eigh", "eigvalsh")


def metric_names() -> list[str]:
    """Every per-layer metric `layer_metrics` reports, in a fixed order."""
    names = []
    for fn in TIMED:
        names += [f"{fn}.calls", f"{fn}.self_s"]
    names += [f"verify.suite_{s}.total_s" for s in SUITES]
    names += [f"{EIG_SPAN}.calls", f"{EIG_SPAN}.s"]
    return names


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover.

    `spans` holds (name, start, end, parent) with `parent` the index of
    the enclosing span, or -1 for a root.
    """
    children = [[] for _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for (_, start, end, _), kids in zip(spans, children):
        clipped = [(max(s, start), min(e, end)) for s, e in kids if min(e, end) > max(s, start)]
        out.append((end - start) - _covered(clipped))
    return out


def layer_metrics(spans) -> dict[str, float]:
    """The per-layer metrics of one traced run; a layer never called reads 0."""
    metrics = {name: 0 if name.endswith(".calls") else 0.0 for name in metric_names()}
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        if name in TIMED:
            metrics[f"{name}.calls"] += 1
            metrics[f"{name}.self_s"] += own
        elif name == EIG_SPAN:
            metrics[f"{EIG_SPAN}.calls"] += 1
            metrics[f"{EIG_SPAN}.s"] += end - start
        elif name.startswith("verify.suite_"):
            metrics[f"{name}.total_s"] += end - start
    return metrics


class Recorder:
    """Spans of one run, in call order, kept in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()

        return traced


def _rebind(namespaces, original, wrapper) -> int:
    """Replace `original` by `wrapper` in each namespace and in the dicts it holds."""
    count = 0
    for ns in namespaces:
        for table in [ns] + [v for v in ns.values() if isinstance(v, dict)]:
            for key, value in list(table.items()):
                if value is original:
                    table[key] = wrapper
                    count += 1
    return count


def install(recorder: Recorder) -> None:
    """Wrap every traced function wherever a loaded `qps` module binds it."""
    import numpy as np
    import qps.cli  # noqa: F401  (loads every module the CLI uses)
    import qps.verify

    if tuple(qps.verify.SUITES) != SUITES:
        raise RuntimeError(f"qps.verify.SUITES is {qps.verify.SUITES}, tracer expects {SUITES}")
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "qps" or name.startswith("qps."))]
    namespaces = [vars(m) for m in modules]
    targets = [(fn, getattr(sys.modules[f"qps.{fn.split('.')[0]}"], fn.split(".")[1]))
               for fn in TIMED]
    targets += [(f"verify.suite_{s}", getattr(qps.verify, f"suite_{s}")) for s in SUITES]
    for name, original in targets:
        if not _rebind(namespaces, original, recorder.wrap(name, original)):
            raise RuntimeError(f"{name} is bound nowhere in qps")
    for fn in EIG_FUNCTIONS:
        original = getattr(np.linalg, fn)
        _rebind(namespaces + [vars(np.linalg)], original, recorder.wrap(EIG_SPAN, original))


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracing.py SPANS.json -- QPS_ARGS...", file=sys.stderr)
        return 2
    out_path, cli_argv = argv[0], argv[2:]
    recorder = Recorder()
    install(recorder)
    import qps.cli

    try:
        return qps.cli.main(cli_argv)
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump(recorder.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
