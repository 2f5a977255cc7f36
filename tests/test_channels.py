import math

import numpy as np
import pytest

from qps import channels as ch
from qps import convolution as cv
from qps import mean_magic as mm
from qps import states, verify, weyl
from qps.errors import NotTracePreservingError, TooLargeError, UnsupportedGError

from helpers import (
    channel_apply,
    identity_channel,
    random_mixed_unitary_channel,
    weyl_image_char_values_dense,
)


def test_choi_constructions():
    ident = identity_channel(3, 1)
    phi = np.zeros(9, complex)
    for j in range(3):
        phi[j * 3 + j] = 1 / np.sqrt(3)
    assert np.abs(ident.choi.mat - np.outer(phi, phi.conj())).max() < 1e-12
    r = ch.depolarizing_channel(3, 1)
    assert np.abs(r.choi.mat - np.eye(9) / 9).max() < 1e-14
    with pytest.raises(NotTracePreservingError):
        ch.choi_from_kraus([0.5 * np.eye(3)], 3, 1)


def test_channel_apply():
    rho = states.random_state(1, 3, seed=2)
    U = weyl.random_clifford(1, 3, 5, seed=1)
    uc = ch.unitary_channel(U, 3, 1)
    assert np.abs(channel_apply(uc, rho).mat - U @ rho.mat @ U.conj().T).max() < 1e-12
    c = ch.random_channel(1, 3, seed=3)
    direct = sum(k @ rho.mat @ k.conj().T for k in c.kraus)
    assert np.abs(channel_apply(c, rho).mat - direct).max() < 1e-10
    r = ch.depolarizing_channel(3, 1)
    assert np.abs(channel_apply(r, rho).mat - np.eye(3) / 3).max() < 1e-12


def test_convolve_channels_routes_agree():
    # the Choi route agrees with the exact-formula oracle to 1e-9
    for seed in range(4):
        c1 = ch.random_channel(1, 3, seed=seed)
        c2 = ch.random_channel(1, 3, seed=50 + seed)
        for G in ([[1, 1], [1, 2]], [[0, 1], [1, 1]], [[1, 0], [1, 1]]):
            out = ch.convolve_channels(c1, c2, G)
            exact = ch._convolve_channels_exact(c1, c2, cv.as_param_matrix(G, 3))
            assert np.abs(out.choi.mat - exact.choi.mat).max() <= 1e-9
            D = 3
            marg = np.einsum("ajbj->ab", out.choi.mat.reshape(D, D, D, D))
            assert np.abs(marg - np.eye(D) / D).max() < 1e-9
    with pytest.raises(UnsupportedGError):
        ch.convolve_channels(c1, c2, [[1, 0], [0, 1]])


def test_convolve_channels_runs_no_oracle(monkeypatch):
    def oracle(*args):
        raise AssertionError("the exact-formula oracle ran in production")

    monkeypatch.setattr(ch, "_convolve_channels_exact", oracle)
    c1 = ch.random_channel(1, 3, seed=1)
    c2 = ch.random_channel(1, 3, seed=2)
    out = ch.convolve_channels(c1, c2, cv.hadamard_params(3))
    assert (out.d, out.n) == (3, 1)


def _convolve_channels_column_loop(ch1, ch2, pm):
    """Reference E ∘ (Λ1 ⊗ Λ2) ∘ E^{-1}, one unit matrix |i><j| at a time.

    E^{-1}(X) = U^dag (X ⊗ I/D) U and E(Y) = Tr_B[U Y U^dag], by their
    definitions with the dense key unitary U.
    """
    d, n = ch1.d, ch1.n
    D = d**n
    U = weyl.key_unitary(pm.as_array(), n, d)
    t1 = ch1.choi.mat.reshape(D, D, D, D)
    t2 = ch2.choi.mat.reshape(D, D, D, D)
    J = np.zeros((D * D, D * D), dtype=complex)
    for i in range(D):
        for j in range(D):
            unit = np.zeros((D, D), dtype=complex)
            unit[i, j] = 1.0
            joint = (U.conj().T @ np.kron(unit, np.eye(D) / D) @ U).reshape(D, D, D, D)
            mid = D * D * np.einsum("abAB,aoAO,bpBP->opOP", joint, t1, t2, optimize=True)
            out = (U @ mid.reshape(D * D, D * D) @ U.conj().T).reshape(D, D, D, D)
            J[i * D : (i + 1) * D, j * D : (j + 1) * D] = np.einsum("ajbj->ab", out) / D
    return J


@pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (7, 1)])
def test_exact_oracle_matches_column_loop(d, n):
    rng = np.random.default_rng(10 * d + n)
    c1 = ch.random_channel(n, d, seed=d + n)
    c2 = ch.random_channel(n, d, seed=100 + d + n)
    for klass in ("trivial", "even_only", "odd_only") + (() if d == 2 else ("positive",)):
        pm = verify.sample_parity_matrix(rng, d, klass)
        batched = ch._convolve_channels_exact(c1, c2, pm).choi.mat
        assert np.abs(batched - _convolve_channels_column_loop(c1, c2, pm)).max() <= 1e-12


def test_exact_oracle_size_cap():
    for d, n in ((5, 1), (7, 1), (3, 2), (2, 4)):
        ch._check_exact_dim(d, n)
    for d, n in ((5, 2), (2, 5), (17, 1)):
        with pytest.raises(TooLargeError):
            ch._check_exact_dim(d, n)
    big = ch.depolarizing_channel(5, 2)
    with pytest.raises(TooLargeError):
        ch._convolve_channels_exact(big, big, cv.hadamard_params(5))


def test_depolarizing_absorbs():
    c = ch.random_channel(1, 3, seed=7)
    r = ch.depolarizing_channel(3, 1)
    out = ch.convolve_channels(c, r, [[0, 1], [1, 1]])  # odd-parity positive
    assert np.abs(out.choi.mat - np.eye(9) / 9).max() < 1e-10
    out = ch.convolve_channels(r, c, [[1, 0], [1, 1]])  # even-parity positive
    assert np.abs(out.choi.mat - np.eye(9) / 9).max() < 1e-10


def test_weyl_channels_compose():
    G = [[1, 1], [1, 2]]
    pm = cv.classify(G, 3)
    x1, y1, x2, y2 = 1, 2, 2, 1
    out = ch.convolve_channels(
        ch.weyl_conjugation_channel((x1, y1), 3), ch.weyl_conjugation_channel((x2, y2), 3), G
    )
    xc = (pm.g00 * x1 + pm.g01 * x2) % 3
    yc = (pm.n_inv * pm.g11 * y1 - pm.n_inv * pm.g10 * y2) % 3
    pred = ch.weyl_conjugation_channel((xc, yc), 3)
    assert np.abs(out.choi.mat - pred.choi.mat).max() < 1e-10


def test_identity_convolution_reproduces_state_example():
    # id ⊠ id applied to |0><0| at d = 7, (s,t) = (2,2) gives back |0><0|
    ident = identity_channel(7, 1)
    out = ch.convolve_channels(ident, ident, cv.beam_splitter_params(2, 2, 7))
    s0 = states.basis_state(0, 7)
    assert np.abs(channel_apply(out, s0).mat - s0.mat).max() < 1e-10


def test_mean_channel():
    tch = ch.unitary_channel(weyl.t_gate(), 2, 1)
    mt = ch.mean_channel(tch)
    assert mm.is_msps(mt.choi)
    cl = ch.unitary_channel(weyl.random_clifford(1, 3, 6, seed=7), 3, 1)
    assert np.abs(ch.mean_channel(cl).choi.mat - cl.choi.mat).max() < 1e-9
    r = ch.depolarizing_channel(3, 1)
    assert np.abs(ch.mean_channel(r).choi.mat - r.choi.mat).max() < 1e-12


def test_channel_entropy():
    ident = identity_channel(3, 1)
    r = ch.depolarizing_channel(3, 1)
    for a in (0.5, 1, 2, math.inf):
        assert abs(ch.channel_entropy(ident, a) + math.log2(3)) < 1e-9
        assert abs(ch.channel_entropy(r, a) - math.log2(3)) < 1e-9
    # convolution increases channel entropy (proxy), positive G
    c1 = ch.random_channel(1, 3, seed=1)
    c2 = ch.random_channel(1, 3, seed=2)
    out = ch.convolve_channels(c1, c2, cv.hadamard_params(3))
    for a in (0.5, 1, 2, math.inf):
        assert ch.channel_entropy(out, a) >= max(
            ch.channel_entropy(c1, a), ch.channel_entropy(c2, a)
        ) - 1e-8


def test_channel_second_law_proxy():
    bs = cv.beam_splitter_params(2, 2, 7)
    lam = random_mixed_unitary_channel(1, 7, seed=21)
    cur = lam
    prev = None
    for _ in range(5):
        h = ch.channel_entropy(cur, 1)
        if prev is not None:
            assert h >= prev - 1e-8
        prev = h
        cur = ch.channel_from_choi(cv.convolve(cur.choi, lam.choi, bs))


def test_mean_channel_extremality_proxy():
    lam = random_mixed_unitary_channel(1, 7, seed=5)
    mean = ch.mean_channel(lam)
    for a in (0.5, 1, 2, math.inf):
        assert ch.channel_entropy(mean, a) >= ch.channel_entropy(lam, a) - 1e-9


def test_zero_mean_channel_and_corollary(t_state):
    ident = identity_channel(3, 1)
    assert ch.is_zero_mean_channel(ident)
    assert mm.magic_gap(ident.choi).gap == 0.0
    tch = ch.unitary_channel(weyl.t_gate(), 2, 1)
    assert abs(mm.magic_gap(tch.choi).gap - (1 - 2**-0.5)) < 1e-12
    wch = ch.weyl_conjugation_channel((1, 0), 3)
    assert not ch.is_zero_mean_channel(wch)
    # corollary: zero mean iff all Weyl-image char values in {0, 1}
    for channel, expect in ((ident, True), (wch, False)):
        vals = ch.weyl_image_char_values(channel)
        assert vals.shape == (3,) * 4
        in01 = ((np.abs(vals) < 1e-8) | (np.abs(vals - 1) < 1e-6)).all()
        assert in01 == expect
    _, shifted = ch.zero_mean_channel_shift(wch)
    assert ch.is_zero_mean_channel(shifted)


def test_channel_clt():
    # stabilizer channel: distance identically zero
    cl = ch.unitary_channel(weyl.random_clifford(1, 7, 6, seed=1), 7, 1)
    rep = ch.channel_clt(cl, cv.beam_splitter_params(2, 2, 7), 4)
    assert rep.ok and all(row.distance < 1e-9 for row in rep.rows)
    # random zero-mean channel: geometric decay within the bound
    lam = random_mixed_unitary_channel(1, 7, seed=11)
    rep = ch.channel_clt(lam, cv.beam_splitter_params(2, 2, 7), 6)
    assert rep.ok
    assert rep.rows[-1].distance <= rep.rows[-1].bound + 1e-9
    assert rep.rows[-1].diamond_bound == pytest.approx(49 * rep.rows[-1].bound)


def test_channel_clt_validates_every_later_power(monkeypatch):
    # each power's Choi state is rebuilt by state_from_char, whose make_state
    # is looked up in the states module, and the gap is the trajectory's
    lam = random_mixed_unitary_channel(1, 5, seed=3)
    made = []
    real = states.make_state
    monkeypatch.setattr(states, "make_state",
                        lambda *a, **k: made.append(a[1:]) or real(*a, **k))
    rep = ch.channel_clt(lam, cv.hadamard_params(5), 4)
    assert rep.ok and len(rep.rows) == 5
    assert made == [(5, 2)] * 4
    work = ch.zero_mean_channel_shift(lam)[1]
    assert rep.magic_gap == mm.magic_gap(work.choi).gap > 0


def test_channel_clt_refuses_a_power_that_is_no_choi_state(monkeypatch):
    # |00><00| is a state on 2 qudits, but Tr_out of it is |0><0|, not I/5
    lam = ch.random_channel(1, 5, seed=1)
    xi0 = states.char_function(ch.zero_mean_channel_shift(lam)[1].choi)
    bad = states.char_function(states.basis_state(0, 5, 2))
    monkeypatch.setattr(ch, "clt_trajectory", lambda rho, G, N, tol: (
        np.zeros(4, dtype=np.int64), 0.5, iter([(xi0, 0.0, 1.0), (bad, 0.0, 0.5)])))
    with pytest.raises(NotTracePreservingError):
        ch.channel_clt(lam, cv.hadamard_params(5), 1)


@pytest.mark.parametrize("d, n", [(3, 1), (5, 1), (3, 2), (2, 1), (2, 2), (7, 1)])
def test_weyl_images_are_one_gather_of_the_choi_table(d, n):
    # the gather matches the dense Choi action, the sign at d = 2 included
    for seed in range(3):
        channel = ch.random_channel(n, d, seed=seed)
        vals = ch.weyl_image_char_values(channel)
        assert vals.shape == (d,) * (4 * n)
        assert np.abs(vals - weyl_image_char_values_dense(channel)).max() < 1e-14


@pytest.mark.parametrize("d, zero_mean", [(3, True), (2, False)])
def test_zero_mean_reading_of_weyl_images_holds_at_odd_d_only(d, zero_mean):
    # every Weyl image value of the identity channel is 0 or 1 at every d, but at
    # d = 2 its Choi table is -1 where p.q is odd, so it has no zero mean
    channel = identity_channel(d, 1)
    vals = ch.weyl_image_char_values(channel)
    assert ((np.abs(vals) < 1e-8) | (np.abs(vals - 1) < 1e-6)).all()
    assert ch.is_zero_mean_channel(channel) == zero_mean


def test_unitary_min_entropy():
    rep = ch.check_unitary_min_entropy(cv.hadamard_params(3), 3, 1, seed=0, pairs=4)
    assert rep.ok
    assert abs(rep.matched_max + math.log2(3)) < 1e-8
    assert rep.generic_min > -math.log2(3) + 1e-4
    # d = 2 sufficiency direction through the CNOT family
    rep = ch.check_unitary_min_entropy(cv.cnot_family(1), 2, 1, seed=1, pairs=4)
    assert abs(rep.matched_max + 1.0) < 1e-8


def test_stabilizer_channel_closure():
    def stab_channel(seed):
        rng = np.random.default_rng(seed)
        weights = rng.dirichlet(np.ones(3))
        kraus = [
            np.sqrt(w) * weyl.random_clifford(1, 3, 6, seed=rng.integers(2**31))
            for w in weights
        ]
        return ch.choi_from_kraus(kraus, 3, 1)

    for seed in range(2):
        a, b = stab_channel(seed), stab_channel(100 + seed)
        out = ch.convolve_channels(a, b, cv.hadamard_params(3))
        for st, _ in states.enumerate_pure_stabilizers(1, 3):
            img = channel_apply(out, st)
            assert states.wigner(img).min() > -1e-10
