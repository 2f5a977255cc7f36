"""Acceptance gate: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one summary line
per criterion.  Every tolerance is pinned here; nothing is calibrated at
runtime.
"""

import math

import numpy as np
import pytest

from qps import channels as chn
from qps import convolution as cv
from qps import entropy as ent
from qps import fisher as fi
from qps import mean_magic as mm
from qps import states, weyl
from qps.phase_space import make_point
from qps.verify import sample_parity_matrix

from helpers import commutation_phase, random_mixed_unitary_channel, weyl_literal

PRIMES_TO_97 = (7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


def report(k, text):
    print(f"ACCEPTANCE {k:2d}: PASS — {text}")


def test_01_weyl_commutation():
    worst = 0.0
    for d in (2, 3, 5, 7):
        for pv in np.ndindex(d, d):
            for qv in np.ndindex(d, d):
                x = make_point(pv[0], qv[0], d)
                y = make_point(pv[1], qv[1], d)
                lhs = weyl.weyl_operator(x, d) @ weyl.weyl_operator(y, d)
                phase = commutation_phase(x, y, d)
                if d == 2:
                    rhs = phase * weyl_literal(
                        [x[0] + y[0]], [x[1] + y[1]], d
                    )
                else:
                    rhs = phase * weyl.weyl_operator(
                        make_point(x[0] + y[0], x[1] + y[1], d), d
                    )
                worst = max(worst, float(np.abs(lhs - rhs).max()))
    assert worst < 1e-12, f"exhaustive n=1 commutation error {worst}"
    d, n = 3, 2
    rng = np.random.default_rng(101)
    worst2 = 0.0
    for _ in range(1000):
        x = rng.integers(0, d, 2 * n)
        y = rng.integers(0, d, 2 * n)
        lhs = weyl.weyl_operator(x, d) @ weyl.weyl_operator(y, d)
        s = (x + y) % d
        rhs = commutation_phase(x, y, d) * weyl.weyl_operator(s, d)
        worst2 = max(worst2, float(np.abs(lhs - rhs).max()))
    assert worst2 < 1e-12, f"n=2 random-pair commutation error {worst2}"
    report(1, f"commutation exact to 1e-12 (worst {worst:.1e} exhaustive, {worst2:.1e} random n=2)")


def test_02_duality_oracle():
    worst = 0.0
    for d in (3, 5, 7):
        for n in (1, 2):
            rng = np.random.default_rng(200 + d * 10 + n)
            for seed in range(50):
                rho = states.random_state(n, d, seed=rng.integers(2**31))
                sig = states.random_state(n, d, seed=rng.integers(2**31))
                tr, ts = states.char_function(rho), states.char_function(sig)
                for klass in ("trivial", "even_only", "odd_only", "positive"):
                    pm = sample_parity_matrix(rng, d, klass)
                    slow = states.char_function(
                        states.make_state(cv._convolve_mats(rho.mat, sig.mat, pm, d, n), d, n)
                    )
                    fast = cv.convolve_char(tr, ts, pm)
                    worst = max(worst, float(np.abs(slow - fast).max()))
    assert worst < 1e-10, f"duality gap {worst}"
    report(2, f"operator vs characteristic routes agree to 1e-10 (worst {worst:.1e})")


def test_03_hudson():
    floor = 0.0
    stabs = states.enumerate_pure_stabilizers(1, 3)
    assert len(stabs) == 12
    for st, _ in stabs:
        floor = min(floor, float(states.wigner(st).min()))
    assert floor >= -1e-12
    negative = sum(
        1 for seed in range(100)
        if states.wigner(states.random_pure(1, 3, seed=seed)).min() < -1e-10
    )
    assert negative >= 95, f"only {negative}/100 random pure states had a negative entry"
    report(3, f"12 stabilizers nonnegative (floor {floor:.1e}); {negative}/100 random pure negative")


def test_04_msps_extremality():
    msps = states.enumerate_msps(1, 3)
    assert len(msps) == 13
    worst = 0.0
    for seed in range(25):
        rho = states.random_state(1, 3, seed=300 + seed)
        rep = mm.mean_state(rho)
        for alpha in (1, 2, math.inf):
            values = [ent.renyi_relative(rho, sig, alpha) for sig in msps]
            brute = min(v for v in values if np.isfinite(v))
            direct = ent.renyi_relative(rho, rep.mean, alpha)
            closed = ent.renyi_entropy(rep.mean, alpha) - ent.renyi_entropy(rho, alpha)
            worst = max(worst, abs(brute - direct), abs(direct - closed))
    assert worst < 1e-8, f"extremality mismatch {worst}"
    report(4, f"min over 13 MSPS = D_a(rho||M(rho)) = H_a(M)-H_a(rho) to 1e-8 (worst {worst:.1e})")


def test_05_convolution_majorization():
    worst = math.inf
    for d in (3, 7):
        rng = np.random.default_rng(500 + d)
        for seed in range(50):
            rho = states.random_state(1, d, seed=rng.integers(2**31))
            sig = states.random_state(1, d, seed=rng.integers(2**31))
            for klass in ("trivial", "even_only", "odd_only", "positive"):
                pm = sample_parity_matrix(rng, d, klass)
                out = ent.clean_spectrum(cv.convolve(rho, sig, pm))
                refs = []
                if pm.even_parity_positive or (not pm.nontrivial and pm.g00 != 0):
                    refs.append(ent.clean_spectrum(rho))
                if pm.odd_parity_positive or (not pm.nontrivial and pm.g00 == 0):
                    refs.append(ent.clean_spectrum(sig))
                for ref in refs:
                    slack = float(np.min(np.cumsum(ref) - np.cumsum(out)))
                    worst = min(worst, slack)
                    assert slack >= -1e-9, f"majorization violated by {slack} (d={d}, {klass})"
    report(5, f"partial-sum dominance holds to 1e-9 (worst slack {worst:.1e})")


def test_06_second_law():
    bs = cv.beam_splitter_params(2, 2, 7)
    alphas = (0.5, 1, 2, math.inf)
    worst = math.inf
    for seed in range(25):
        rho = states.random_state(1, 7, seed=600 + seed)
        rep = ent.check_second_law(rho, bs, 15, alphas)
        assert rep.ok, f"seed {seed}: {rep.violations}"
        worst = min(worst, float(np.diff(rep.table, axis=0).min()))
    ce = ent.second_law_counterexample(7)
    assert ce["h_out"] < ce["h_sigma"] - 1e-6
    assert ce["output_equals_rho"]
    report(6, f"H_a nondecreasing over N<=15 (worst step {worst:.1e}); g10=0 counterexample decreases")


def test_07_state_clt_rate():
    bs = cv.beam_splitter_params(2, 2, 7)
    worst_excess = -math.inf
    worst_ratio = -math.inf
    for seed in range(25):
        rho = states.random_state(1, 7, seed=700 + seed)
        _, rho = mm.zero_mean_shift(rho)
        assert mm.is_zero_mean(rho)
        rep = mm.mean_state(rho)
        mg = mm.magic_gap(rho).gap
        base = float(np.linalg.norm(rho.mat - rep.mean.mat))
        current = rho
        prev = base
        for step in range(1, 21):
            current = cv.convolve(current, rho, bs)
            dist = float(np.linalg.norm(current.mat - rep.mean.mat))
            bound = (1 - mg) ** step * base
            worst_excess = max(worst_excess, dist - bound)
            assert dist <= bound + 1e-9, f"seed {seed} step {step}: {dist} > {bound}"
            if prev > 1e-9:
                worst_ratio = max(worst_ratio, dist / prev - (1 - mg))
                assert dist / prev <= (1 - mg) + 1e-9
            prev = dist
    assert worst_excess <= 1e-9
    report(7, f"CLT bound holds to N=20 (worst excess {worst_excess:.1e}); stepwise ratio <= 1-MG")


def test_08_fisher_and_de_bruijn():
    bs = cv.beam_splitter_params(2, 2, 7)
    worst = math.inf
    for seed in range(25):
        rho = fi.smooth(states.random_state(1, 7, seed=800 + seed), 1e-3)
        sig = fi.smooth(states.random_state(1, 7, seed=880 + seed), 1e-3)
        rep = fi.check_fisher_convolution(rho, sig, bs)
        worst = min(worst, rep.slack)
        assert rep.slack >= -1e-7, f"seed {seed}: J out exceeds min by {-rep.slack}"
    worst_db = 0.0
    for seed in range(25):
        rho = fi.smooth(states.random_state(1, 3, seed=850 + seed), 1e-3)
        lhs, rhs = fi.de_bruijn_check(rho, h=1e-4)
        worst_db = max(worst_db, abs(lhs - rhs))
        assert abs(lhs - rhs) < 1e-4
    report(8, f"J(rho⊠sigma) <= min bound (worst slack {worst:.1e}); de Bruijn gap {worst_db:.1e} < 1e-4")


def test_09_parameter_counting():
    for d in PRIMES_TO_97:
        assert len(cv.solve_params(d, "circle")) == (d + 1) // 8, d
        assert len(cv.solve_params(d, "hyperbola")) == (d - 3) // 4, d
    report(9, f"class counts match floor((d+1)/8) and floor((d-3)/4) for primes 7..97")


def test_10_channel_convolution():
    worst_gap = 0.0
    worst_marg = 0.0
    rng = np.random.default_rng(1000)
    for seed in range(25):
        c1 = chn.random_channel(1, 3, seed=rng.integers(2**31))
        c2 = chn.random_channel(1, 3, seed=rng.integers(2**31))
        pm = sample_parity_matrix(rng, 3, ("even_only", "odd_only", "positive")[seed % 3])
        out = chn.convolve_channels(c1, c2, pm)
        exact = chn._convolve_channels_exact(c1, c2, pm)
        worst_gap = max(worst_gap, float(np.abs(out.choi.mat - exact.choi.mat).max()))
        marg = np.einsum("ajbj->ab", out.choi.mat.reshape(3, 3, 3, 3))
        worst_marg = max(worst_marg, float(np.abs(marg - np.eye(3) / 3).max()))
    assert worst_gap < 1e-9
    assert worst_marg < 1e-9
    absorbed = chn.convolve_channels(
        chn.random_channel(1, 3, seed=123), chn.depolarizing_channel(3, 1), [[0, 1], [1, 1]]
    )
    gap = float(np.abs(absorbed.choi.mat - np.eye(9) / 9).max())
    assert gap < 1e-10
    report(10, f"Choi vs exact routes {worst_gap:.1e} < 1e-9; marginal {worst_marg:.1e}; Λ⊠R=R {gap:.1e}")


def test_11_channel_clt():
    count_ok = 0
    for seed in range(10):
        lam = random_mixed_unitary_channel(1, 7, seed=1100 + seed, terms=3)
        rep = chn.channel_clt(lam, cv.beam_splitter_params(2, 2, 7), 12)
        assert all(r.distance <= r.bound + 1e-9 for r in rep.rows), f"seed {seed}"
        count_ok += rep.ok
    assert count_ok == 10
    report(11, "Choi 2-norm trajectories stay within (1-MG)^N bound for N<=12, 10 channels")


def test_12_min_output_entropy():
    rep = ent.check_min_output_entropy(cv.hadamard_params(3), 3, 1, seed=0)
    assert rep.n_pairs == 144
    assert rep.ok
    assert rep.max_entropy_on_matched <= 1e-8
    assert rep.min_entropy_on_unmatched > 1e-6
    report(12, f"144-pair scan: H=0 on {rep.n_matched} matched pairs, min {rep.min_entropy_on_unmatched:.3f} elsewhere")


def test_13_t_count_bound():
    worst = -math.inf
    rng = np.random.default_rng(1300)
    for seed in range(100):
        n = int(rng.integers(1, 3))
        length = int(rng.integers(1, 13))
        word = mm.random_clifford_t_word(n, length, seed=rng.integers(2**31))
        rho = states.random_state(n, 2, seed=rng.integers(2**31))
        lhs, rhs = mm.lmg_t_count_check(rho, word)
        worst = max(worst, lhs - rhs)
        assert lhs <= rhs + 1e-9
    report(13, f"LMG(V rho V^dag) <= LMG(rho) + T/2 over 100 words (worst excess {worst:.1e})")
