import math
import tracemalloc

import numpy as np
import pytest

from qps import convolution as cv
from qps import entropy as ent
from qps import mean_magic as mm
from qps import states
from qps.errors import NotComparableError, UnsupportedAlphaError, UnsupportedGError

from helpers import subentropy_lagrange


def test_renyi_special_values():
    u = states.maximally_mixed(3, 1)
    for a in (0, 0.5, 1, 2, math.inf):
        assert abs(ent.renyi_entropy(u, a) - math.log2(3)) < 1e-12
    # sign-corrected definition: negative orders flip the sign of the maximum
    for a in (-2, -math.inf):
        assert abs(ent.renyi_entropy(u, a) + math.log2(3)) < 1e-12
    assert abs(ent.renyi_entropy(states.basis_state(0, 2), 2)) < 1e-12
    s = states.make_state(np.diag([0.75, 0.25]), 2)
    assert abs(ent.renyi_entropy(s, 2) - math.log2(8 / 5)) < 1e-12
    assert abs(ent.renyi_entropy(s, math.inf) + math.log2(0.75)) < 1e-12
    assert abs(ent.renyi_entropy(s, -math.inf) - math.log2(0.25)) < 1e-12
    assert ent.renyi_entropy(states.basis_state(0, 2), -2) == -math.inf
    rank2 = states.random_state(1, 3, seed=0, rank=2)
    assert abs(ent.renyi_entropy(rank2, 0) - 1.0) < 1e-12


def test_one_eigendecomposition_per_state(eig_calls):
    mat = states.random_state(2, 3, seed=4).mat
    eig_calls.clear()
    s = states.make_state(mat, 3, 2)
    for a in (0.5, 1, 2, math.inf):
        ent.renyi_entropy(s, a)
    assert len(eig_calls) == 1
    assert not s.eigvals.flags.writeable


def test_renyi_additivity_and_schur():
    a = states.random_state(1, 3, seed=1)
    b = states.random_state(1, 3, seed=2)
    ab = states.tensor(a, b)
    for alpha in (-2, 0.5, 1, 2, math.inf):
        gap = ent.renyi_entropy(ab, alpha) - ent.renyi_entropy(a, alpha) - ent.renyi_entropy(b, alpha)
        assert abs(gap) < 1e-9
    # Schur concavity consistency on comparable spectra
    lo = np.array([0.4, 0.35, 0.25])
    hi = np.array([0.7, 0.2, 0.1])
    assert ent.majorizes(lo, hi)
    for alpha in (-2, 0.5, 1, 2, math.inf):
        assert ent.renyi_entropy_spectrum(lo, alpha) >= ent.renyi_entropy_spectrum(hi, alpha)
    assert ent.subentropy(states.make_state(np.diag(lo), 3)) >= ent.subentropy(
        states.make_state(np.diag(hi), 3)
    )


def test_renyi_relative():
    rho = states.random_state(1, 3, seed=3)
    for a in (0.5, 1, 2, math.inf):
        assert abs(ent.renyi_relative(rho, rho, a)) < 1e-9
        val = ent.renyi_relative(rho, states.maximally_mixed(3, 1), a)
        assert abs(val - (math.log2(3) - ent.renyi_entropy(rho, a))) < 1e-10
    assert ent.renyi_relative(states.basis_state(0, 2), states.basis_state(1, 2), 2) == math.inf
    assert ent.renyi_relative(states.basis_state(0, 2), states.basis_state(1, 2), 0.5) == math.inf
    with pytest.raises(UnsupportedAlphaError):
        ent.renyi_relative(rho, rho, 0.3)


def test_renyi_relative_one_eigh_per_sigma(eig_calls):
    sigma = states.random_state(2, 3, seed=5)
    rhos = [states.random_state(2, 3, seed=6 + k) for k in range(3)]
    eig_calls.clear()
    for rho, a in zip(rhos, (0.5, 2, math.inf)):
        ent.renyi_relative(rho, sigma, a)
    assert [call.__name__ for call in eig_calls].count("eigh") == 1


def test_relative_monotone_under_convolution():
    # D_a(rho1 ⊠ sigma || rho2 ⊠ sigma) <= D_a(rho1 || rho2)
    d = 3
    h = cv.hadamard_params(d)
    for seed in range(4):
        r1 = states.random_state(1, d, seed=seed)
        r2 = states.random_state(1, d, seed=40 + seed)
        sg = states.random_state(1, d, seed=80 + seed)
        o1 = cv.convolve(r1, sg, h)
        o2 = cv.convolve(r2, sg, h)
        l1 = float(np.abs(np.linalg.eigvalsh(o1.mat - o2.mat)).sum())
        ref = float(np.abs(np.linalg.eigvalsh(r1.mat - r2.mat)).sum())
        assert l1 <= ref + 1e-10
        for a in (0.5, 1, 2):
            assert ent.renyi_relative(o1, o2, a) <= ent.renyi_relative(r1, r2, a) + 1e-8


def test_subentropy(t_state):
    assert abs(ent.subentropy(states.basis_state(0, 3))) < 1e-4
    assert abs(ent.subentropy(t_state)) < 1e-4
    assert abs(ent.subentropy(states.maximally_mixed(2, 1)) - 0.2787) < 1e-3
    spec = states.make_state(np.diag([0.5, 1 / 3, 1 / 6]), 3)
    assert abs(ent.subentropy(spec) - subentropy_lagrange([0.5, 1 / 3, 1 / 6])) < 1e-12
    assert abs(ent.subentropy(spec) - 0.3521) < 1e-3
    # a tie needs no perturbation: I/3 is at its closed form
    assert abs(ent.subentropy(states.maximally_mixed(3, 1)) - _mixed_subentropy(3)) < 1e-12
    for seed in range(6):
        r = states.random_state(1, 3, seed=seed)
        q, h = ent.subentropy(r), ent.renyi_entropy(r, 1)
        assert -1e-9 <= q <= h + 1e-9
        assert ent.subentropy(mm.mean_state(r).mean) >= q - 1e-6


def _mixed_subentropy(D: int) -> float:
    """Q(I/D) = (ln D + 1 - H_D) / ln 2, with H_D the D-th harmonic number."""
    return (math.log(D) + 1 - sum(1 / k for k in range(1, D + 1))) / math.log(2)


@pytest.mark.parametrize("d, n", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2), (2, 4),
                                  (5, 2), (3, 3), (3, 4), (3, 5)])
def test_subentropy_at_maximally_mixed_is_the_closed_form(d, n):
    # a D-fold tie, the case the Lagrange sum cannot take, up to D = 243
    assert abs(ent.subentropy(states.maximally_mixed(d, n)) - _mixed_subentropy(d**n)) < 1e-12


@pytest.mark.parametrize("d, n", [(3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 3), (5, 2),
                                  (3, 3)])
def test_subentropy_matches_a_decimal_lagrange_sum(d, n):
    # random spectra at D <= 27 are distinct, so the Lagrange sum is defined there
    for seed in range(3):
        rho = states.random_state(n, d, seed=seed)
        want = subentropy_lagrange(ent.clean_spectrum(rho))
        assert abs(ent.subentropy(rho) - want) < 1e-12
        assert 0 <= want < (1 - 0.5772156649) / math.log(2)


def test_majorizes():
    assert ent.majorizes([1 / 3, 1 / 3, 1 / 3], [0.5, 0.3, 0.2])
    assert ent.majorizes([0.6, 0.4], [0.8, 0.2])
    assert not ent.majorizes([0.8, 0.2], [0.6, 0.4])
    assert ent.majorizes([0.5, 0.5, 0], [1.0, 0.0])  # zero padding
    with pytest.raises(NotComparableError):
        ent.majorizes([0.5, 0.2], [0.8, 0.2])
    # the slack is the least partial-sum margin; the full sums agree, so it is at most 0
    assert ent.majorization_slack([0.6, 0.4], [0.8, 0.2]) == pytest.approx(0.0, abs=1e-15)
    assert ent.majorization_slack([0.8, 0.2], [0.6, 0.4]) == pytest.approx(-0.2)
    for seed in range(10):
        a = ent.clean_spectrum(states.random_state(1, 5, seed=seed))
        b = ent.clean_spectrum(states.random_state(1, 5, seed=100 + seed, rank=2))
        margin = float(np.min(np.cumsum(np.sort(b)[::-1]) - np.cumsum(np.sort(a)[::-1])))
        assert ent.majorization_slack(a, b) == margin
        assert ent.majorizes(a, b) == (margin >= -1e-9)


def test_convolution_majorization():
    rng = np.random.default_rng(0)
    for d in (3, 7):
        for _ in range(4):
            rho = states.random_state(1, d, seed=rng.integers(2**31))
            sig = states.random_state(1, d, seed=rng.integers(2**31))
            out = cv.convolve(rho, sig, [[1, 1], [0, 1]])
            assert ent.majorizes(ent.clean_spectrum(out), ent.clean_spectrum(rho))
            out = cv.convolve(rho, sig, [[0, 1], [1, 1]])
            assert ent.majorizes(ent.clean_spectrum(out), ent.clean_spectrum(sig))
            out = cv.convolve(rho, sig, cv.hadamard_params(d))
            assert ent.majorizes(ent.clean_spectrum(out), ent.clean_spectrum(rho))
            assert ent.majorizes(ent.clean_spectrum(out), ent.clean_spectrum(sig))


def test_entropy_increase_all_alpha():
    rng = np.random.default_rng(5)
    d = 5
    rho = states.random_state(1, d, seed=6)
    sig = states.random_state(1, d, seed=7)
    h = cv.hadamard_params(d)
    out = cv.convolve(rho, sig, h)
    for a in (-2, -math.inf, 0, 0.5, 1, 2, math.inf):
        h_out = ent.renyi_entropy(out, a)
        assert h_out >= ent.renyi_entropy(rho, a) - 1e-8
        assert h_out >= ent.renyi_entropy(sig, a) - 1e-8


def test_second_law():
    bs = cv.beam_splitter_params(2, 2, 7)
    rho = states.random_state(1, 7, seed=4)
    rep = ent.check_second_law(rho, bs, 10, (0.5, 1, 2, math.inf))
    assert rep.ok and rep.table.shape == (11, 4)
    # MSPS input: constant entropies
    rep = ent.check_second_law(states.basis_state(0, 7), bs, 5, (1,))
    assert np.abs(rep.table - rep.table[0]).max() < 1e-9
    ce = ent.second_law_counterexample(3)
    assert ce["output_equals_rho"]
    assert ce["h_out"] < ce["h_sigma"] - 1e-6


def test_second_law_reports_each_drop_in_step_order(monkeypatch):
    # rows (1, 2), (0.5, 2), (0.5 - 1e-9, 1): the 1e-9 dip is inside the slack
    values = iter([1.0, 2.0, 0.5, 2.0, 0.5 - 1e-9, 1.0])
    monkeypatch.setattr(ent, "renyi_entropy", lambda state, alpha: next(values))
    rep = ent.check_second_law(states.basis_state(0, 3), cv.hadamard_params(3), 2, (1, 2))
    assert rep.violations == ((0, 1, -0.5), (1, 2, -1.0)) and not rep.ok
    assert all(type(step) is int for step, _, _ in rep.violations)


@pytest.mark.parametrize("d, n, G, N", [
    (3, 4, cv.hadamard_params(3), 6),
    (3, 2, [[1, 1], [0, 1]], 4),  # even-only G, not positive
    (2, 3, [[1, 0], [1, 1]], 4),
    (7, 1, cv.beam_splitter_params(2, 2, 7), 5),
])
def test_second_law_sweep_decides_positivity_by_its_spectra(d, n, G, N, monkeypatch,
                                                             eig_calls):
    # no Cholesky and one eigvalsh per power on a fresh state; the table is the
    # entropies of the powers chained with convolve, bit for bit
    alphas = (0.5, 1, 2, math.inf)
    tried = []
    real = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda mat: tried.append(1) or real(mat))
    rep = ent.check_second_law(states.random_state(n, d, seed=2), G, N, alphas)
    assert tried == [] and len(eig_calls) == N + 1
    rho = states.random_state(n, d, seed=2)
    power, ref = rho, []
    for k in range(N + 1):
        power = cv.convolve(power, rho, G) if k else rho
        ref.append([ent.renyi_entropy(power, a) for a in alphas])
    assert np.array_equal(rep.table, np.array(ref))


def test_equality_case():
    h = cv.hadamard_params(3)
    rep = ent.check_equality_case(states.basis_state(0, 3), h, 2, seed=5)
    assert rep["ok"]
    rep = ent.check_equality_case(states.maximally_mixed(3, 1), h, 2, seed=6)
    assert rep["equality_holds"]
    with pytest.raises(UnsupportedGError):
        ent.check_equality_case(states.basis_state(0, 3), [[1, 1], [0, 1]], 2)


def test_equality_case_mixes_in_one_table_not_the_groups_stack():
    # at (3, 4) the mixed group has rank 4: its msps_tables stack would be 81 tables, 8.5 MB
    sigma = states.basis_state(0, 3, 4)
    stack_bytes = 3**4 * 3**8 * 16
    tracemalloc.start()
    try:
        assert ent.check_equality_case(sigma, cv.hadamard_params(3), 2, seed=3)["ok"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < stack_bytes / 2


def test_holevo_bounds(t_state):
    h = cv.hadamard_params(3)
    lo, up = ent.holevo_bounds(states.maximally_mixed(3, 1), h)
    assert abs(lo) < 1e-9 and abs(up) < 1e-9
    lo, up = ent.holevo_bounds(states.basis_state(0, 3), h)
    assert abs(lo - math.log2(3)) < 1e-9 and abs(up - math.log2(3)) < 1e-9
    # random states: lower <= upper, MSPS saturates
    for seed in range(4):
        rho = states.random_state(1, 3, seed=seed)
        lo, up = ent.holevo_bounds(rho, h)
        assert lo <= up + 1e-9
    # coherence corollary at G = [[0,1],[1,1]] (d = 2): upper = C_{r,X}
    from qps import weyl
    from qps.fisher import dephase

    lo, up = ent.holevo_bounds(t_state, [[0, 1], [1, 1]])
    dx = dephase(t_state, "X")
    crx = ent.renyi_entropy(dx, 1) - ent.renyi_entropy(t_state, 1)
    assert up <= crx + 1e-9
    assert abs(up - crx) < 1e-9
    with pytest.raises(UnsupportedGError):
        ent.holevo_bounds(t_state, [[1, 1], [0, 1]])


def test_min_output_entropy_exhaustive():
    rep = ent.check_min_output_entropy(cv.hadamard_params(3), 3, 1, seed=0)
    assert rep.ok
    assert rep.n_pairs == 144 and rep.n_matched == 36
    assert rep.max_entropy_on_matched <= 1e-8
    assert rep.min_entropy_on_unmatched > 1e-6


def _min_output_entropy_per_pair(pm, d, n, seed):
    """Reference: the scan with the transformed group rebuilt for every (rho, sigma) pair."""
    stabs = states.enumerate_pure_stabilizers(n, d)
    matched_max, unmatched_min, n_matched, ok = 0.0, math.inf, 0, True
    for rho, g_rho in stabs:
        for sig, g_sig in stabs:
            h = ent.renyi_entropy(cv.convolve(rho, sig, pm), 1)
            if g_rho == cv.transformed_stabilizer_group(g_sig, pm):
                n_matched += 1
                matched_max = max(matched_max, h)
                ok = ok and h <= 1e-8
            else:
                unmatched_min = min(unmatched_min, h)
                ok = ok and h > 1e-6
    rng = np.random.default_rng(seed)
    for _ in range(5):
        a = states.random_state(n, d, seed=rng.integers(2**31), rank=1)
        b = states.random_state(n, d, seed=rng.integers(2**31), rank=1)
        h = ent.renyi_entropy(cv.convolve(a, b, pm), 1)
        unmatched_min = min(unmatched_min, h)
        ok = ok and h > 1e-6
    return ent.MinOutputEntropyReport(
        ok=ok, n_pairs=len(stabs) ** 2, n_matched=n_matched,
        max_entropy_on_matched=matched_max, min_entropy_on_unmatched=unmatched_min,
    )


@pytest.mark.parametrize("d,n_pairs,n_matched,unmatched_min", [
    (3, 144, 36, 1.0232679259454094),
    (5, 900, 150, 1.6269883905925158),
    (7, 3136, 392, 2.11485332353775),
])
def test_min_output_entropy_reports_are_fixed(d, n_pairs, n_matched, unmatched_min):
    # exactly 0 on matched pairs by the group counts; the other fields to the last bit
    # as the per-pair spectral scan reads them
    assert ent.check_min_output_entropy(cv.hadamard_params(d), d, 1) == ent.MinOutputEntropyReport(
        ok=True, n_pairs=n_pairs, n_matched=n_matched,
        max_entropy_on_matched=0.0, min_entropy_on_unmatched=unmatched_min,
    )


def _assert_matches_per_pair_scan(pm, d, seed):
    got = ent.check_min_output_entropy(pm, d, 1, seed)
    want = _min_output_entropy_per_pair(pm, d, 1, seed)
    assert (got.ok, got.n_pairs, got.n_matched, got.min_entropy_on_unmatched) == (
        want.ok, want.n_pairs, want.n_matched, want.min_entropy_on_unmatched)
    assert got.max_entropy_on_matched == 0.0
    assert want.max_entropy_on_matched <= 1e-15


@pytest.mark.parametrize("d,seed", [(3, 0), (5, 1)])
def test_min_output_entropy_matches_per_pair_scan(d, seed):
    _assert_matches_per_pair_scan(cv.hadamard_params(d), d, seed)


def test_min_output_entropy_matches_per_pair_scan_for_an_asymmetric_g():
    # g00 != g01 and g10 != g11: the scalings of rho and sigma cannot stand in for each other
    pm = cv.classify([[1, 2], [1, 1]], 5)
    assert pm.positive
    _assert_matches_per_pair_scan(pm, 5, 2)


def test_min_output_entropy_group_counts_match_spectra_on_a_sample():
    # H(rho ⊠ sigma) of two pure stabilizers is log2(d^n / C), C = |A^-1 S_rho ∩ B^-1 S_sigma|
    # with A, B the scalings convolve_char applies; half the draws are matched pairs
    d, n = 3, 2
    pm = cv.hadamard_params(d)
    groups = states.enumerate_lagrangian_subgroups(n, d)
    rng = np.random.default_rng(5)
    points = np.indices((d,) * (2 * n)).reshape(2 * n, -1).T
    a_x = [tuple(x) for x in (points * np.repeat([pm.n_inv * pm.g11, pm.g00], n) % d).tolist()]
    b_x = [tuple(x) for x in (points * np.repeat([-pm.n_inv * pm.g10, pm.g01], n) % d).tolist()]
    matched = 0
    for k in range(200):
        g_rho, g_sig = (groups[m] for m in rng.integers(len(groups), size=2))
        if k % 2:
            g_rho = cv.transformed_stabilizer_group(g_sig, pm)
        in_rho = {tuple(x) for x in g_rho.elements.tolist()}
        in_sig = {tuple(x) for x in g_sig.elements.tolist()}
        count = sum(a in in_rho and b in in_sig for a, b in zip(a_x, b_x))
        xr = states.msps_tables(g_rho)[np.ravel_multi_index(rng.integers(d, size=n), (d,) * n)]
        xs = states.msps_tables(g_sig)[np.ravel_multi_index(rng.integers(d, size=n), (d,) * n)]
        out = states.state_from_char(cv.convolve_char(xr, xs, pm), spectrum=True)
        assert abs(ent.renyi_entropy(out, 1) - math.log2(d**n / count)) <= 1e-12
        matched += count == d**n
    assert matched >= 100
