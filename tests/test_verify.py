"""The `qps verify` Weyl suite and parity sampler against their loop forms."""

import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from qps import channels as chn
from qps import cli
from qps import convolution as cv
from qps import entropy as ent
from qps import states, verify, weyl
from qps.cli import main
from qps.config import CHECK_BOUNDS
from qps.errors import (
    ConfigError,
    IncompatibleError,
    NotPrimeError,
    NotTracePreservingError,
    SingularGError,
    TooLargeError,
    UnsupportedDimensionError,
    UnsupportedGError,
)
from qps.phase_space import make_point

from helpers import commutation_phase, weyl_literal


def _commutation_worst_loop(pairs, d):
    """Reference: the per-pair commutation check, one dense build per point."""
    worst = 0.0
    for x, y in pairs:
        n = len(x) // 2
        lhs = weyl.weyl_operator(x, d) @ weyl.weyl_operator(y, d)
        if d == 2:
            rhs = commutation_phase(x, y, d) * weyl_literal(x[:n] + y[:n], x[n:] + y[n:], d)
        else:
            rhs = commutation_phase(x, y, d) * weyl.weyl_operator((x + y) % d, d)
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


def _parity_gap_loop(d):
    """Reference: the parity sum accumulated point by point."""
    acc = sum(weyl.weyl_operator(make_point(p, q, d), d) for p in range(d) for q in range(d)) / d
    return float(np.abs(acc - weyl.parity_operator(d, 1)).max())


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_batched_weyl_checks_match_loops(d):
    stack = verify._weyl_stack(d, 1)
    points = np.indices((d, d)).reshape(2, -1).T
    ref = _commutation_worst_loop([(x, y) for x in points for y in points], d)
    assert abs(verify._commutation_worst(stack, points[:, None], points[None, :], d) - ref) <= 1e-15
    checks = verify.suite_weyl(d, 1, 10)
    names = ["weyl.commutation_exhaustive_n1", "weyl.orthonormality", "weyl.key_unitary_generators"]
    if d != 2:
        names += ["weyl.parity_sum", "weyl.phase_point_hermitian"]
    names.append("weyl.random_clifford_closes")
    assert [c.name for c in checks] == names
    assert all(c.passed for c in checks)
    check = {c.name: c for c in checks}
    refs = {"weyl.commutation_exhaustive_n1": ref}
    if d != 2:
        refs["weyl.parity_sum"] = _parity_gap_loop(d)
    for name, value in refs.items():
        assert abs(check[name].value - value) <= 1e-15
        assert check[name].bound == CHECK_BOUNDS[name][0]


@pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (3, 2), (5, 2)])
def test_sampled_commutation_matches_loop(d, n):
    checks = verify.suite_weyl(d, n, 2)
    assert all(c.passed for c in checks)
    x, y = np.random.default_rng(21_000 + d).integers(0, d, size=(2, 64, 2 * n))
    ref = _commutation_worst_loop(zip(x, y), d)
    check = {c.name: c for c in checks}["weyl.commutation_sampled"]
    assert abs(check.value - ref) <= 1e-15
    assert check.bound == CHECK_BOUNDS["weyl.commutation_sampled"][0]


@pytest.mark.parametrize("d", [2, 3])
def test_weyl_suite_sees_a_negated_multi_site_phase(d, monkeypatch):
    # -w(x) for every x != 0 at n >= 2 keeps orthonormality and every one-site check
    real = weyl.weyl_operator

    def negated(point, d):
        w = real(point, d)
        return -w if len(point) > 2 and (np.asarray(point) % d).any() else w

    monkeypatch.setattr(weyl, "weyl_operator", negated)
    failed = [c.name for c in verify.run_suite("weyl", d, 2, 2) if not c.passed]
    assert failed == ["weyl.commutation_sampled"]
    assert main(["verify", "--suite", "weyl", "--d", str(d), "--n", "2", "--seeds", "2"]) == 1


def test_qubit_commutation_sees_a_negation_through_pairs_without_a_zero_point(monkeypatch):
    # both sides come from the stack: with every w(x != 0) negated, a pair of non-zero
    # points with x != y leaves w(x) w(y) unchanged but negates the right side
    real = weyl.weyl_operator
    monkeypatch.setattr(weyl, "weyl_operator",
                        lambda point, d: -real(point, d) if np.any(point) else real(point, d))
    x, y = np.random.default_rng(21_000 + 2).integers(0, 2, size=(2, 64, 4))
    keep = x.any(axis=1) & y.any(axis=1)
    assert keep.sum() == 56  # the 8 pairs with a zero point are removed
    stack = verify._weyl_stack(2, 2)
    assert verify._commutation_worst(stack, x[keep], y[keep], 2) > 1.0
    monkeypatch.setattr(weyl, "weyl_operator", real)
    assert verify._commutation_worst(verify._weyl_stack(2, 2), x[keep], y[keep], 2) <= 1e-12


def test_hudson_and_the_scan_build_no_state_from_a_stabilizer_table(monkeypatch):
    # hudson reads the pure stabilizers as one msps_tables stack per Lagrangian, transforms
    # each stack in one wigner call, and builds no State from a stack
    stacks, transformed, built = [], [], []
    real_tables, real_wigner, real_build = states.msps_tables, states.wigner, states.state_from_char

    def tables(*args):
        stacks.append(real_tables(*args))
        return stacks[-1]

    def wigner(xi):
        transformed.extend(xi for t in stacks if xi is t)
        return real_wigner(xi)

    def build(xi, *args, **kwargs):
        built.extend(xi for t in stacks if np.shares_memory(xi, t))
        return real_build(xi, *args, **kwargs)

    monkeypatch.setattr(states, "msps_tables", tables)
    monkeypatch.setattr(states, "wigner", wigner)
    for module in (states, ent):
        monkeypatch.setattr(module, "state_from_char", build)
    assert all(c.passed for c in verify.run_suite("hudson", 5, 1, 10))
    assert built == [] and len(stacks) == len(transformed) == 6  # one per Lagrangian
    assert sum(len(t) for t in stacks) == 30  # the pure stabilizers only
    assert ent.check_min_output_entropy(cv.hadamard_params(3), 3, 1).ok
    assert built == [] and len(stacks) == 6  # the scan reads groups, not tables


def _sample_parity_matrix_loop(rng, d, klass):
    """Reference: classify every draw until one falls in the class."""
    while True:
        g = rng.integers(0, d, size=(2, 2))
        try:
            pm = cv.classify(g, d)
        except SingularGError:
            continue
        if klass == "trivial" and not pm.nontrivial:
            return pm
        if klass == "even_only" and pm.even_parity_positive and not pm.odd_parity_positive:
            return pm
        if klass == "odd_only" and pm.odd_parity_positive and not pm.even_parity_positive:
            return pm
        if klass == "positive" and pm.positive:
            return pm


class _BoundedRng:
    """A seeded generator that raises instead of drawing forever."""

    def __init__(self, seed=0, limit=10_000):
        self.rng, self.left = np.random.default_rng(seed), limit
        self.bit_generator = self.rng.bit_generator

    def integers(self, *args, **kwargs):
        self.left -= 1
        if self.left < 0:
            raise RuntimeError("sampler kept drawing")
        return self.rng.integers(*args, **kwargs)


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_sampler_matches_classifying_loop(d):
    classes = list(verify._drawable(d))
    for seed in range(20):
        old, new = np.random.default_rng(seed), _BoundedRng(seed)
        for klass in classes * 3:
            assert verify.sample_parity_matrix(new, d, klass) == _sample_parity_matrix_loop(
                old, d, klass
            )
        assert new.bit_generator.state == old.bit_generator.state


@pytest.mark.parametrize(
    "d,klass,error",
    [
        (1, "trivial", NotPrimeError),
        (4, "positive", NotPrimeError),
        (5, "bogus", UnsupportedGError),
        (2, "positive", UnsupportedGError),
    ],
)
def test_sampler_refuses_impossible_requests(d, klass, error):
    with pytest.raises(error):
        verify.sample_parity_matrix(_BoundedRng(), d, klass)


def test_hudson_at_d2_is_refused_before_any_enumeration(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the hudson suite started")

    monkeypatch.setattr(verify.st, "enumerate_lagrangian_subgroups", fail)
    monkeypatch.setattr(verify.st, "msps_tables", fail)
    monkeypatch.setattr(verify.st, "wigner", fail)
    with pytest.raises(UnsupportedDimensionError):
        verify.run_suite("hudson", 2, 1, 3)
    assert main(["verify", "--suite", "hudson", "--d", "2"]) == 2
    ran = []
    suites = {k: (lambda *args, k=k: ran.append(k) or []) for k in verify.SUITES}
    monkeypatch.setattr(verify, "_SUITE_FNS", suites)
    assert verify.run_suite("all", 2, 1, 3) == []
    assert ran == [k for k in verify.SUITES if k != "hudson"]


def test_hudson_passes_past_one_qudit_and_all_runs_it(monkeypatch):
    # the 360 pure stabilizers of (3, 2) are nonnegative; random pure states are not
    checks = verify.run_suite("hudson", 3, 2, 3)
    assert [c.name for c in checks] == ["hudson.stabilizers_nonnegative",
                                        "hudson.random_pure_negative"]
    assert all(c.passed for c in checks)
    ran = []
    suites = {k: (lambda *args, k=k: ran.append(k) or []) for k in verify.SUITES}
    monkeypatch.setattr(verify, "_SUITE_FNS", suites)
    verify.run_suite("all", 3, 2, 3)
    assert ran == list(verify.SUITES)


# A (d, n) each suite refuses, the QPS_MAX_DIM that makes it refuse (None: a fixed cap)
# and its message.  weyl stacks d^4n entries and entropy diagonalizes rho ⊗ sigma, as many.
_REFUSED = {
    "weyl": (3, 1, 80, "the weyl suite stacks d\\^4n = 3\\^4 entries, past the dense-table cap 80"),
    "duality": (3, 1, 8, "d\\^2n = 3\\^2 exceeds the dense-table cap 8"),
    "majorization": (3, 1, 8, "d\\^2n = 3\\^2 exceeds the dense-table cap 8"),
    "entropy": (3, 1, 80, "the entropy suite .* d\\^4n = 3\\^4 entries"),
    "fisher": (3, 1, 8, "d\\^2n = 3\\^2 exceeds the dense-table cap 8"),
    "hudson": (3, 4, None, "d\\^\\(n\\^2\\) = 3\\^16 candidate bases"),
    "channels": (5, 2, None, "the exact channel oracle needs D = 5\\^2 <= 16"),
}


@pytest.mark.parametrize("key", verify.SUITES)
def test_every_suite_is_refused_before_any_suite_runs(key, monkeypatch):
    # by name and within 'all'; one entry more than a QPS_MAX_DIM refusal admits the suite
    ran = []
    monkeypatch.setattr(verify, "_SUITE_FNS",
                        {k: (lambda *args, k=k: ran.append(k) or []) for k in verify.SUITES})
    d, n, cap, message = _REFUSED[key]
    if cap is not None:
        monkeypatch.setenv("QPS_MAX_DIM", str(cap))
    with pytest.raises(TooLargeError, match=message):
        verify.run_suite(key, d, n, 2)
    with pytest.raises(TooLargeError):
        verify.run_suite("all", d, n, 2)
    assert ran == []
    if cap is not None:
        monkeypatch.setenv("QPS_MAX_DIM", str(cap + 1))
        verify.run_suite(key, d, n, 2)
        assert ran == [key]


def test_run_suite_refuses_an_unknown_name_and_a_non_prime_d(monkeypatch):
    # "bogus" was a bare KeyError; d = 4 died inside the weyl suite
    monkeypatch.setattr(verify, "_SUITE_FNS", {})  # a suite that started would raise KeyError
    with pytest.raises(ConfigError, match="unknown suite 'bogus'"):
        verify.run_suite("bogus", 3, 1, 2)
    for name in ("all", "weyl", "duality"):
        with pytest.raises(NotPrimeError):
            verify.run_suite(name, 4, 1, 2)


def test_run_suite_refuses_a_negative_seed(monkeypatch):
    # default_rng(-1) once raised numpy's ValueError, after the whole weyl suite had run
    monkeypatch.setattr(verify, "_SUITE_FNS", {})
    with pytest.raises(IncompatibleError, match="seed must be >= 0, got -1"):
        verify.run_suite("all", 3, 1, 2, seed=-1)


@pytest.mark.parametrize("n,seeds,jobs", [(0, 2, 1), (1, 0, 1), (1, -2, 1), (1, 2, 0)])
def test_run_suite_refuses_counts_below_one(n, seeds, jobs, monkeypatch):
    monkeypatch.setattr(verify, "_SUITE_FNS", {})  # a suite that started would raise KeyError
    with pytest.raises(IncompatibleError):
        verify.run_suite("weyl", 3, n, seeds, jobs)


def test_benchmark_tracer_installs_on_this_tree():
    # perfbench/tracing.py wraps every TIMED function and every suite where qps binds
    # it, and raises when one is bound nowhere, so a deletion here would break it
    root = pathlib.Path(__file__).resolve().parents[1]
    path = os.pathsep.join([str(root / "src"), str(root / "perfbench")])
    r = subprocess.run([sys.executable, "-c", "import tracing; tracing.install(tracing.Recorder())"],
                       capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert r.returncode == 0, r.stderr


class _RecordedBounds(dict):
    """CHECK_BOUNDS that records each key read by subscript."""

    def __init__(self):
        super().__init__(CHECK_BOUNDS)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def test_every_check_is_a_value_against_its_familys_bound(monkeypatch, tmp_path):
    bounds = _RecordedBounds()
    for module in (verify, ent, chn, cli):
        monkeypatch.setattr(module, "CHECK_BOUNDS", bounds)
    checks = [c for d, n, seeds in ((5, 1, 2), (3, 2, 1), (2, 2, 1))
              for c in verify.run_suite("all", d, n, seeds)]
    assert all(c.passed for c in checks)

    def refuse(*args):
        raise NotTracePreservingError("refused")

    monkeypatch.setattr(chn, "_convolve_channels_exact", refuse)  # the one way to a routes check
    routes = [c for c in verify.suite_channels(3, 1, 1) if c.family == "channels.routes"]
    assert [(c.value, c.slack, c.passed) for c in routes] == [(1.0, -1.0, False)] * 3
    checks += routes
    for c in checks:
        assert c.name == c.family or c.name.startswith(c.family + ".")
        bound, sense = CHECK_BOUNDS[c.family]
        if c.family == "hudson.random_pure_negative":  # the share of max(seeds, 100) trials
            bound = float(math.ceil(bound * 100))
        assert c.bound == bound
        slack = c.bound - c.value if sense == "at most" else c.value - c.bound
        assert np.float64(c.slack).tobytes() == np.float64(slack).tobytes()
        assert c.passed == (c.slack >= 0)
    families = {c.family for c in checks}
    # the bounds that no check is named after are read where a verdict is taken from them
    suite_reads = bounds.read - families
    assert suite_reads == {"entropy.equality_case.equality_gap",
                           "entropy.equality_case.strict_increase"}
    h = cv.hadamard_params(3)
    claims = {
        ent.check_min_output_entropy: lambda: ent.check_min_output_entropy(h, 3, 1),
        chn.check_unitary_min_entropy: lambda: chn.check_unitary_min_entropy(h, 3, 1, pairs=1),
        chn.channel_clt: lambda: chn.channel_clt(chn.weyl_conjugation_channel([1, 2], 3), h, 2),
        cli.cmd_clt: lambda: main(["clt", "--N", "2", "--out", str(tmp_path / "clt.csv")]),
    }
    read = {}
    for fn, call in claims.items():
        bounds.read.clear()
        call()
        read[fn.__name__] = bounds.read.copy()
    assert read == {
        "check_min_output_entropy": {"entropy.min_output_entropy.matched",
                                     "entropy.min_output_entropy.unmatched"},
        "check_unitary_min_entropy": {"channels.unitary_min_entropy.matched",
                                      "channels.unitary_min_entropy.generic",
                                      "channels.unitary_min_entropy.absorb"},
        "channel_clt": {"clt.rate"},
        "cmd_clt": {"clt.rate"},
    }
    assert families | suite_reads | set().union(*read.values()) == set(CHECK_BOUNDS)


@pytest.mark.parametrize("family", ["duality", "majorization"])  # "at most", "at least"
def test_a_nan_value_fails(family):
    check = verify._result(family, math.nan, ".seed0")
    assert math.isnan(check.slack) and not check.passed
    assert check.to_json()["passed"] is False
