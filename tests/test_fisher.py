import numpy as np
import pytest

from qps import convolution as cv
from qps import entropy as ent
from qps import fisher as fi
from qps import states, verify, weyl
from qps.config import CHECK_BOUNDS
from qps.errors import IncompatibleError, NegativeTimeError, SingularStateError
from qps.phase_space import make_point

from helpers import dephase_mat, fisher_total_dephasing, liouvillean_dense, site_basis, site_shape


def _site_projector(axis, site, j, d, n):
    """|j><j| in the site basis of ``site_basis(axis)`` on one site, identity elsewhere."""
    col = site_basis(axis, d)[:, j]
    out = np.eye(1)
    for k in range(n):
        out = np.kron(out, np.outer(col, col.conj()) if k == site else np.eye(d))
    return out


def test_dephase():
    diag = states.make_state(np.diag([0.5, 0.3, 0.2]), 3)
    assert np.abs(fi.dephase(diag, "Z").mat - diag.mat).max() < 1e-12
    assert np.abs(fi.dephase(states.basis_state(0, 3), "X").mat - np.eye(3) / 3).max() < 1e-12
    r = states.random_state(1, 3, seed=0)
    once = fi.dephase(r, "X")
    assert np.abs(fi.dephase(once, "X").mat - once.mat).max() < 1e-12
    # projectors are complete and orthogonal
    for axis in ("X", "Z"):
        ps = [_site_projector(axis, 0, j, 3, 1) for j in range(3)]
        assert np.abs(sum(ps) - np.eye(3)).max() < 1e-12
        for i, a in enumerate(ps):
            for j, b in enumerate(ps):
                want = a if i == j else 0
                assert np.abs(a @ b - want).max() < 1e-12
    # at n = 2 each projector acts on its own site, and dephase is sum_j P_j rho P_j
    r2 = states.random_state(2, 3, seed=1)
    for axis in ("X", "Z"):
        for site in range(2):
            ps = [_site_projector(axis, site, j, 3, 2) for j in range(3)]
            want = sum(p @ r2.mat @ p for p in ps)
            assert np.abs(fi.dephase(r2, axis, site).mat - want).max() < 1e-12


def _dephase_by_conjugation(mat, d, n, axis, site):
    """Dephasing that conjugates into the site basis and back on both axes."""
    basis = site_basis(axis, d)
    t = weyl.conjugate_site_gate(mat, basis.conj().T, [site], d, n)
    t = t.reshape(site_shape(d, n, site) * 2) * np.eye(d)[None, :, None, None, :, None]
    return weyl.conjugate_site_gate(t.reshape(mat.shape), basis, [site], d, n)


def test_dephase_z_is_the_digit_mask_alone():
    mat = states.random_state(3, 3, seed=2).mat
    for site in range(3):
        for axis in ("X", "Z"):
            want = _dephase_by_conjugation(mat, 3, 3, axis, site)
            assert np.array_equal(dephase_mat(mat, 3, 3, axis, site), want)
    with pytest.raises(IncompatibleError):
        fi.dephase(states.random_state(3, 3, seed=2), "Y", 0)


@pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2)])
def test_dephase_mask_matches_dense_route(d, n):
    # keeping Xi where q_k = 0 (Z) or p_k = 0 (X) is sum_j P_j rho P_j
    for seed in range(2):
        rho = states.random_state(n, d, seed=seed)
        for site in range(n):
            for axis in ("X", "Z"):
                want = dephase_mat(rho.mat, d, n, axis, site)
                assert np.abs(fi.dephase(rho, axis, site).mat - want).max() < 1e-13


@pytest.mark.parametrize("axis,site", [("Z", 2), ("Z", -1), ("Z", 5), ("X", 2), ("Y", 0),
                                       ("z", 0), ("Z", 1.0)])
def test_dephase_refuses_a_site_or_axis_it_does_not_have(monkeypatch, axis, site):
    rho = states.random_state(2, 3, seed=3)

    def no_work(state):
        raise AssertionError("dephase read the table before checking its input")

    monkeypatch.setattr(fi, "char_function", no_work)
    with pytest.raises(IncompatibleError):
        fi.dephase(rho, axis, site)


def test_fisher_single():
    u = states.maximally_mixed(3, 1)
    with_h = fi.fisher_single(u, np.diag([1.0, 0, 0]).astype(complex))
    assert abs(with_h) < 1e-12
    diag = states.make_state(np.diag([0.5, 0.3, 0.2]), 3)
    assert abs(fi.fisher_single(diag, np.diag([1.0, 0, 0]).astype(complex))) < 1e-12
    with pytest.raises(SingularStateError):
        fi.fisher_single(states.basis_state(0, 3), np.diag([1.0, 0, 0]).astype(complex))


def test_fisher_single_finite_difference_oracle():
    rho = fi.smooth(states.random_state(1, 3, seed=3), 1e-3)
    H = _site_projector("X", 0, 1, 3, 1)
    vals, vecs = np.linalg.eigh(H)
    h = 1e-3

    def divergence(theta):
        U = (vecs * np.exp(1j * theta * vals)) @ vecs.conj().T
        rot = states.make_state(U @ rho.mat @ U.conj().T, 3)
        return ent.renyi_relative(rho, rot, 1)

    numeric = (divergence(h) + divergence(-h)) / h**2
    assert abs(numeric - fi.fisher_single(rho, H)) < 1e-4


def test_fisher_total_routes_and_monotone_smoothing():
    # the eigenbasis route agrees with the dephasing oracle to 1e-8 relative
    for d, n, seed in ((3, 1, 5), (2, 1, 6), (2, 2, 7), (3, 2, 8)):
        rho = states.random_state(n, d, seed=seed)
        prev = None
        for eta in (1e-3, 1e-2, 0.1, 0.5):
            smoothed = fi.smooth(rho, eta)
            j = fi.fisher_total(smoothed)
            assert np.isfinite(j) and j >= -1e-12
            assert abs(j - fisher_total_dephasing(smoothed)) <= 1e-8 * max(1.0, abs(j))
            if prev is not None:
                assert j < prev
            prev = j
    assert abs(fi.fisher_total(states.maximally_mixed(3, 2))) < 1e-9
    with pytest.raises(SingularStateError):
        fi.fisher_total(states.basis_state(0, 3))


def test_fisher_total_one_eigendecomposition(eig_calls):
    rho = fi.smooth(states.random_state(2, 3, seed=9), 1e-3)
    eig_calls.clear()
    fi.fisher_total(rho)
    assert len(eig_calls) == 1


def test_fisher_checks_share_one_eigh_per_state(eig_calls):
    rho = fi.smooth(states.random_state(2, 3, seed=10), 1e-3)
    sig = fi.smooth(states.random_state(2, 3, seed=11), 1e-3)
    eig_calls.clear()
    fi.check_fisher_convolution(rho, sig, cv.hadamard_params(3))
    names = [call.__name__ for call in eig_calls]
    assert names == ["eigh"] * 3  # rho, sigma and their convolution
    fi.de_bruijn_check(rho)
    names = [call.__name__ for call in eig_calls]
    assert names.count("eigh") == 3  # J(rho) reuses rho's eigh
    assert names.count("eigvalsh") == 2  # the entropies at t = +-h


def test_fisher_total_and_dephase_build_no_kron(monkeypatch):
    # both act on one site axis at a time; no register-sized embedding is built
    rho = fi.smooth(states.random_state(3, 3, seed=4), 1e-3)
    want_j = fi.fisher_total(rho)
    want_x = fi.dephase(rho, "X", 1).mat

    def kron(*args):
        raise AssertionError("a dense Kronecker embedding was built")

    monkeypatch.setattr(np, "kron", kron)
    assert fi.fisher_total(rho) == want_j
    assert (fi.dephase(rho, "X", 1).mat == want_x).all()


def test_heat_semigroup():
    rho = states.random_state(1, 3, seed=6)
    assert np.abs(fi.heat_semigroup(rho, 0.0).mat - rho.mat).max() < 1e-12
    assert np.abs(fi.heat_semigroup(rho, 60.0).mat - np.eye(3) / 3).max() < 1e-10
    a = fi.heat_semigroup(fi.heat_semigroup(rho, 0.3), 0.5)
    b = fi.heat_semigroup(rho, 0.8)
    assert np.abs(a.mat - b.mat).max() < 1e-10
    with pytest.raises(NegativeTimeError):
        fi.heat_semigroup(rho, -0.1)


def test_liouvillean():
    for p in range(3):
        for q in range(3):
            w = weyl.weyl_operator(make_point(p, q, 3), 3)
            weight = (1 if p else 0) + (1 if q else 0)
            assert np.abs(fi.liouvillean(w, 3, 1) + 0.5 * weight * w).max() < 1e-12
    rng = np.random.default_rng(0)
    a = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    b = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    a, b = a + a.conj().T, b + b.conj().T
    lhs = np.trace(fi.liouvillean(a, 3, 2) @ b)
    rhs = np.trace(a @ fi.liouvillean(b, 3, 2))
    assert abs(lhs - rhs) < 1e-9


SEMIGROUP_SYSTEMS = [(2, 2), (3, 2), (5, 1)]


@pytest.mark.parametrize("d,n", SEMIGROUP_SYSTEMS)
def test_heat_semigroup_is_generated_by_the_liouvillean(d, n):
    # (e^{hL} rho - e^{-hL} rho) / 2h at h = 1e-5 against L(rho)
    rho = states.random_state(n, d, seed=20)
    h = 1e-5
    table = states.char_function(rho)
    plus = states.from_char(fi._semigroup_values(table, h))
    minus = states.from_char(fi._semigroup_values(table, -h))
    assert np.array_equal(fi.heat_semigroup(rho, h).mat, states.make_state(plus, d, n).mat)
    assert np.abs((plus - minus) / (2 * h) - fi.liouvillean(rho.mat, d, n)).max() < 1e-9


@pytest.mark.parametrize("d,n", SEMIGROUP_SYSTEMS)
def test_liouvillean_mask_matches_sum_of_dense_dephasings(d, n):
    for seed in range(3):
        mat = states.random_state(n, d, seed=seed).mat
        assert np.abs(fi.liouvillean(mat, d, n) - liouvillean_dense(mat, d, n)).max() < 1e-12


@pytest.mark.parametrize("d,n", SEMIGROUP_SYSTEMS)
def test_fisher_total_is_the_liouvillean_against_the_log(d, n):
    # J(rho) = -4 Tr[L(rho) log2 rho], with L by dense dephasings and log2 by a fresh eigh
    for eta in (1e-3, 0.1, 0.9):
        rho = fi.smooth(states.random_state(n, d, seed=21), eta)
        vals, vecs = np.linalg.eigh(rho.mat)
        log = (vecs * np.log2(vals)) @ vecs.conj().T
        want = -4 * np.trace(liouvillean_dense(rho.mat, d, n) @ log).real
        assert abs(fi.fisher_total(rho) - want) <= 1e-12 * max(1.0, abs(want))


def test_de_bruijn():
    lhs, rhs = fi.de_bruijn_check(states.maximally_mixed(3, 1))
    assert abs(lhs) < 1e-8 and abs(rhs) < 1e-9
    for seed in range(4):
        rho = fi.smooth(states.random_state(1, 3, seed=seed), 1e-3)
        lhs, rhs = fi.de_bruijn_check(rho)
        assert abs(lhs - rhs) < 1e-4
    # smoothed pure state, looser tolerance
    rho = fi.smooth(states.random_state(1, 3, seed=11, rank=1), 1e-3)
    lhs, rhs = fi.de_bruijn_check(rho)
    assert abs(lhs - rhs) < 1e-3
    with pytest.raises(SingularStateError):
        fi.de_bruijn_check(states.basis_state(0, 3))


def test_de_bruijn_check_passes_at_five_qutrits():
    # the O(h^2) step error of the default h stays inside verify's 1e-3 at (3, 5)
    results = verify.run_suite("fisher", 3, 5, 1)
    de_bruijn = [r for r in results if r.name.startswith("fisher.de_bruijn")]
    assert len(de_bruijn) == 1 and de_bruijn[0].slack > 9e-4
    assert all(r.passed for r in results)


def test_fisher_convolution_inequality():
    least, _ = CHECK_BOUNDS["fisher.convolution"]
    rep = fi.check_fisher_convolution(
        states.maximally_mixed(3, 1), states.maximally_mixed(3, 1), cv.hadamard_params(3)
    )
    assert rep.bound - rep.j_out >= least
    bs = cv.beam_splitter_params(2, 2, 7)
    for seed in range(3):
        a = fi.smooth(states.random_state(1, 7, seed=seed), 1e-3)
        b = fi.smooth(states.random_state(1, 7, seed=60 + seed), 1e-3)
        rep = fi.check_fisher_convolution(a, b, bs)
        assert rep.bound - rep.j_out >= least
        assert abs(rep.bound - min(rep.j_rho, rep.j_sigma)) < 1e-12
    # even-parity-only CNOT case: bound is J(rho)
    a2 = fi.smooth(states.random_state(1, 2, seed=1), 1e-3)
    b2 = fi.smooth(states.random_state(1, 2, seed=2), 1e-3)
    rep = fi.check_fisher_convolution(a2, b2, cv.cnot_family(1))
    assert rep.bound - rep.j_out >= least and rep.bound == rep.j_rho


def test_dephasing_commutation_lemma():
    pm = cv.classify([[1, 1], [0, 1]], 5)  # even-parity positive
    rho = states.random_state(1, 5, seed=12)
    sig = states.random_state(1, 5, seed=13)
    for axis in ("X", "Z"):
        lhs = fi.dephase(cv.convolve(rho, sig, pm), axis)
        rhs = cv.convolve(fi.dephase(rho, axis), sig, pm)
        assert np.abs(lhs.mat - rhs.mat).max() < 1e-10
    pm = cv.classify([[0, 1], [1, 1]], 5)  # odd-parity positive: B-side dephase
    for axis in ("X", "Z"):
        lhs = fi.dephase(cv.convolve(rho, sig, pm), axis)
        rhs = cv.convolve(rho, fi.dephase(sig, axis), pm)
        assert np.abs(lhs.mat - rhs.mat).max() < 1e-10


def test_semigroup_intertwining():
    h = cv.hadamard_params(5)
    rho = states.random_state(1, 5, seed=14)
    sig = states.random_state(1, 5, seed=15)
    lhs = cv.convolve(fi.heat_semigroup(rho, 0.4), fi.heat_semigroup(sig, 0.9), h)
    rhs = fi.heat_semigroup(cv.convolve(rho, sig, h), 1.3)
    assert np.abs(lhs.mat - rhs.mat).max() < 1e-9


@pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3),
                                 (5, 1), (5, 2), (7, 1), (7, 2), (11, 1)])
def test_weyl_weight_grid_matches_indices_construction(d, n):
    ref = (np.indices((d,) * (2 * n)) != 0).sum(axis=0)  # the full 2n x d^{2n} array
    assert np.array_equal(fi.weyl_weight_grid(d, n), ref)
