import json
import math
from functools import reduce

import numpy as np
import pytest

from qps import channels as chn
from qps import convolution as cv
from qps import entropy as ent
from qps import io as qio
from qps import mean_magic as mm
from qps import states, weyl
from qps.cli import main
from qps.config import PHASE_RESIDUAL
from qps.errors import IncompatibleError, UnsupportedAlphaError, UnsupportedDimensionError
from qps.phase_space import make_point, subgroup_generators

from helpers import is_isotropic, msps_group_by_matrix


def test_mean_state_examples(t_state):
    rep = mm.mean_state(t_state)
    assert np.abs(rep.mean.mat - np.eye(2) / 2).max() < 1e-12
    assert rep.group.size == 1

    s = states.make_state(np.diag([0.75, 0.25]), 2)
    assert np.abs(mm.mean_state(s).mean.mat - np.eye(2) / 2).max() < 1e-12

    stab = states.basis_state(0, 3)
    rep = mm.mean_state(stab)
    assert np.abs(rep.mean.mat - stab.mat).max() < 1e-12
    assert rep.group.size == 3


def test_mean_state_is_msps_and_idempotent():
    for seed in range(6):
        rho = states.random_state(1, 3, seed=seed)
        rep = mm.mean_state(rho)
        assert mm.is_msps(rep.mean)
        again = mm.mean_state(rep.mean).mean
        assert np.abs(again.mat - rep.mean.mat).max() < 1e-10
        assert is_isotropic(rep.group)


def test_clifford_covariance():
    for seed in range(5):
        rho = states.random_state(2, 3, seed=seed)
        U = weyl.random_clifford(2, 3, 7, seed=seed)
        lhs = mm.mean_state(states.make_state(U @ rho.mat @ U.conj().T, 3)).mean.mat
        rhs = U @ mm.mean_state(rho).mean.mat @ U.conj().T
        assert np.abs(lhs - rhs).max() < 1e-10


def test_range_inclusion_and_spectral_majorization():
    for seed in range(6):
        rho = states.random_state(1, 3, seed=seed, rank=2)
        rep = mm.mean_state(rho)
        rank = round(1.0 / np.linalg.eigvalsh(rep.mean.mat)[-1])
        gap = np.linalg.eigvalsh(rank * rep.mean.mat - rho.mat + 1e-8 * np.eye(3))
        assert gap[0] > -1e-12  # rho <= rank(M) * M
        assert ent.majorizes(ent.clean_spectrum(rep.mean), ent.clean_spectrum(rho))


def test_is_msps(t_state):
    assert mm.is_msps(states.maximally_mixed(3, 2))
    assert not mm.is_msps(t_state)
    for st in states.enumerate_msps(1, 2):
        assert mm.is_msps(st)


def test_mean_value_vector_and_zero_mean():
    assert list(mm.mean_value_vector(states.basis_state(0, 3))) == [0]
    assert list(mm.mean_value_vector(states.basis_state(1, 3))) == [2]
    assert mm.mean_value_vector(states.maximally_mixed(3, 1)).size == 0
    assert mm.is_zero_mean(states.basis_state(0, 3))
    assert not mm.is_zero_mean(states.basis_state(1, 3))
    assert mm.is_zero_mean(states.maximally_mixed(3, 1))


def test_is_zero_mean_builds_no_state(monkeypatch):
    zero, nonzero = states.basis_state(0, 3), states.basis_state(1, 3)

    def never(*args, **kwargs):
        raise AssertionError("is_zero_mean built a State")

    monkeypatch.setattr(mm, "make_state", never)
    assert mm.is_zero_mean(zero) and not mm.is_zero_mean(nonzero)


def test_group_readers_build_no_m_rho(monkeypatch):
    # is_msps reads M(sigma) off sigma's table, so nothing but mean_state builds it
    calls = []
    real = mm.state_from_char

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(mm, "state_from_char", spy)
    ent.check_equality_case(states.basis_state(0, 3), cv.hadamard_params(3), 2, seed=3)
    assert mm.magic_gap_upper_bound(states.random_state(2, 3, seed=1)) is not None
    assert len(calls) == 0


def test_is_msps_builds_no_state(monkeypatch):
    # every MSPS at (3, 2), tables computed first: deciding MSPS-ness builds no State
    msps = states.enumerate_msps(2, 3)
    for sigma in msps:
        states.char_function(sigma)
    made = []
    real = states.make_state
    monkeypatch.setattr(states, "make_state", lambda *a, **k: made.append(1) or real(*a, **k))
    assert len(msps) == 481 and all(mm.is_msps(sigma) for sigma in msps)
    assert made == []


def _msps_cases():
    """Every MSPS at six (d, n), then five random states at each: 710 states."""
    sizes = ((2, 1), (2, 2), (3, 1), (5, 1), (7, 1), (3, 2))
    for d, n in sizes:
        yield from states.enumerate_msps(n, d)
    for d, n in sizes:
        for seed in range(5):
            yield states.random_state(n, d, seed=seed)


def test_msps_group_matches_the_matrix_oracle():
    # the Parseval decision agrees with building M(rho) and comparing entries,
    # on every MSPS, on random states, and on MSPS mixed with I/D
    cases = list(_msps_cases())
    assert len(cases) == 710
    decided = []
    for rho in cases:
        want = msps_group_by_matrix(rho)
        assert mm.msps_group(rho) == want
        decided.append(want is not None)
        if want is not None:
            mixed = np.eye(rho.dim) / rho.dim
            for eps in (1e-12, 1e-6):
                near = states.make_state((1 - eps) * rho.mat + eps * mixed, rho.d, rho.n)
                want = msps_group_by_matrix(near)
                assert mm.msps_group(near) == want
                decided.append(want is not None)
    # 680 MSPS, each near at 1e-12 and far at 1e-6 but for I/D, its own mixture, at six sizes
    assert decided.count(True) == 2 * 680 + 6 and decided.count(False) == 30 + 680 - 6


def _is_zero_mean_loop(state):
    """is_zero_mean one group element at a time."""
    table = states.char_function(state)
    return all(
        abs(table[tuple(v)] - 1.0) < PHASE_RESIDUAL
        for v in mm.mean_state(state).group.elements
    )


def test_is_zero_mean_gather_matches_loop():
    decisions = []
    for seed in range(30):
        rho = states.random_state(2, 3, seed=seed)
        for state in (
            rho,
            mm.zero_mean_shift(rho)[1],
            states.basis_state(seed % 9, 3, 2),
            states.maximally_mixed(3, 2),
        ):
            want = _is_zero_mean_loop(state)
            assert mm.is_zero_mean(state) is want
            decisions.append(want)
    assert len(decisions) == 120 and decisions.count(False) > 0


def test_zero_mean_shift_matches_exhaustive_oracle():
    for d, k in [(3, 1), (3, 2), (5, 3)]:
        rho = states.basis_state(k, d)
        point, shifted = mm.zero_mean_shift(rho)
        assert mm.is_zero_mean(shifted)
        candidates = []
        for a in range(d):
            for b in range(d):
                w = weyl.weyl_operator(make_point(a, b, d), d)
                conj = states.make_state(w @ rho.mat @ w.conj().T, d)
                if mm.is_zero_mean(conj):
                    candidates.append((a, b))
        assert tuple(point.tolist()) == min(candidates)


def test_zero_mean_shift_trivial_and_product():
    rho = states.basis_state(0, 3)
    point, shifted = mm.zero_mean_shift(rho)
    assert point.tolist() == [0, 0]
    assert np.abs(shifted.mat - rho.mat).max() < 1e-12
    # n = 2 with a nontrivial one-site mean
    joint = states.tensor(states.basis_state(2, 3), states.random_state(1, 3, seed=5))
    assert not mm.is_zero_mean(joint)
    point, shifted = mm.zero_mean_shift(joint)
    assert mm.is_zero_mean(shifted)


def test_zero_mean_shift_matches_dense_conjugation():
    # the monomial gather gives w rho w^dag, and the phase on Xi_rho its table
    z = subgroup_generators([[1, 0, 0, 0]], 3, 2)  # Z on site 0
    cases = [
        states.basis_state(1, 3),
        states.basis_state(5, 3, 2),
        states.basis_state(1, 2, 2),
        states.state_from_char(states.msps_tables(z)[1], spectrum=True),
        chn.weyl_conjugation_channel([1, 2], 5).choi,
    ]
    for rho in cases:
        point, shifted = mm.zero_mean_shift(rho)
        assert point.any()
        w = weyl.weyl_operator(point, rho.d)
        dense = w @ rho.mat @ w.conj().T
        assert np.abs(shifted.mat - dense).max() <= 1e-15
        table = weyl.weyl_coefficient_table(dense, rho.d, rho.n)
        assert np.abs(states.char_function(shifted) - table).max() <= 1e-14
        assert mm.is_zero_mean(shifted)


def test_read_thresholds_gives_mean_states_group(monkeypatch):
    z = subgroup_generators([[1, 0, 0, 0]], 3, 2)  # Z on site 0
    cases = [states.basis_state(5, 3, 2), states.random_state(2, 3, seed=1),
             states.state_from_char(states.msps_tables(z)[2], spectrum=True)]
    reports = [mm.mean_state(rho) for rho in cases]

    def never(*args, **kwargs):
        raise AssertionError("read_thresholds built a State")

    monkeypatch.setattr(mm, "make_state", never)
    monkeypatch.setattr(mm, "state_from_char", never)
    for rho, rep in zip(cases, reports):
        reading = mm.read_thresholds(states.char_function(rho))
        assert (reading.group, reading.phases) == (rep.group, rep.phases)
        assert mm.mean_value_vector(rho).tolist() == list(rep.phases)


def test_each_reader_reads_the_table_once(monkeypatch, tmp_path, capsys):
    # read_thresholds is spied on in every module that binds it
    reads = []
    real = mm.read_thresholds

    def spy(*args, **kwargs):
        reads.append(1)
        return real(*args, **kwargs)

    for module in (mm, cv, qio):
        monkeypatch.setattr(module, "read_thresholds", spy)
    rho = states.random_state(2, 3, seed=4)
    path = tmp_path / "r.json"
    qio.write_state(rho, path)
    assert main(["gap", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["second_max"] < 1
    assert len(reads) == 1
    reads.clear()
    _, gap, rows = cv.clt_trajectory(rho, cv.hadamard_params(3), 3)
    assert len(list(rows)) == 4 and gap > 0
    assert len(reads) == 1
    reads.clear()
    assert main(["clt", "--d", "3", "--n", "2", "--N", "3", "--family", "hadamard"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 5
    assert len(reads) == 1
    reads.clear()
    rep = chn.channel_clt(chn.weyl_conjugation_channel([1, 2], 5), cv.default_params(5), 3)
    assert rep.shifted and len(rep.rows) == 4
    assert len(reads) == 1
    reads.clear()
    assert not mm.is_msps(rho) and mm.is_msps(states.basis_state(5, 3, 2))
    assert len(reads) == 2  # one per is_msps call
    reads.clear()
    ent.check_equality_case(states.basis_state(0, 3), cv.hadamard_params(3), 2, seed=3)
    assert len(reads) == 1


def test_each_table_is_checked_once(monkeypatch, capsys):
    # _check_char runs once per table: rho's (or J's), a shifted one, each later power;
    # it is spied on in every module that might bind it
    checks = []
    real = states._check_char

    def spy(vals):
        checks.append(1)
        return real(vals)

    monkeypatch.setattr(states, "_check_char", spy)
    monkeypatch.setattr(cv, "_check_char", spy, raising=False)
    assert main(["clt", "--d", "3", "--n", "2", "--N", "4", "--family", "hadamard"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 6
    assert len(checks) == 5
    checks.clear()
    ent.check_second_law(states.random_state(2, 3, seed=1), cv.hadamard_params(3), 4, (1,))
    assert len(checks) == 5
    checks.clear()
    rep = chn.channel_clt(chn.weyl_conjugation_channel([1, 2], 5), cv.default_params(5), 3)
    assert rep.shifted and len(checks) == 5


def test_magic_gap_examples(t_state):
    for st in states.enumerate_msps(1, 3):
        assert mm.magic_gap(st).gap == 0.0
    g = mm.magic_gap(t_state)
    assert abs(g.gap - (1 - 2**-0.5)) < 1e-12
    assert abs(g.log_gap - 0.5) < 1e-12
    assert g.support_size == 3


def test_magic_gap_product_rule():
    for seed in range(4):
        a = states.random_state(1, 3, seed=seed)
        b = states.random_state(1, 3, seed=100 + seed)
        gab = mm.magic_gap(states.tensor(a, b)).gap
        assert abs(gab - min(mm.magic_gap(a).gap, mm.magic_gap(b).gap)) < 1e-10


def test_magic_gap_upper_bound():
    for seed in range(8):
        rho = states.random_state(1, 5, seed=seed)
        ub = mm.magic_gap_upper_bound(rho)
        assert ub is not None
        assert mm.magic_gap(rho).gap <= ub + 1e-9
    # at k = n (an MSPS) the bound is undefined and skipped
    assert mm.magic_gap_upper_bound(states.basis_state(0, 3)) is None


def test_closest_msps_extremality(t_state):
    for seed in range(4):
        rho = states.random_state(1, 3, seed=seed)
        rep = mm.mean_state(rho)
        for alpha in (1, 2, math.inf):
            sigma, value = mm.closest_msps(rho, alpha)
            assert np.abs(sigma.mat - rep.mean.mat).max() < 1e-9
            want = ent.renyi_entropy(rep.mean, alpha) - ent.renyi_entropy(rho, alpha)
            assert abs(value - want) < 1e-8
    # MSPS input: value 0
    _, value = mm.closest_msps(states.basis_state(0, 3), 2)
    assert abs(value) < 1e-9
    # qubit T-state at alpha = 2: minimizer is I/2
    sigma, _ = mm.closest_msps(t_state, 2)
    assert np.abs(sigma.mat - np.eye(2) / 2).max() < 1e-9


def test_closest_msps_unique_minimizer():
    for seed in range(4):
        rho = states.random_state(1, 3, seed=10 + seed)
        rep = mm.mean_state(rho)
        best = ent.renyi_relative(rho, rep.mean, 2)
        for sigma in states.enumerate_msps(1, 3):
            if np.abs(sigma.mat - rep.mean.mat).max() < 1e-9:
                continue
            other = ent.renyi_relative(rho, sigma, 2)
            assert other > best + 1e-6


def test_lmg_t_count(t_state):
    q0 = states.basis_state(0, 2)
    lhs, rhs = mm.lmg_t_count_check(q0, [("H", 0), ("T", 0)])
    assert abs(lhs - 0.5) < 1e-12 and abs(rhs - 0.5) < 1e-12
    # all-Clifford words leave the LMG unchanged
    lhs, rhs = mm.lmg_t_count_check(t_state, [("H", 0), ("S", 0), ("X", 0), ("Z", 0)])
    assert abs(lhs - 0.5) < 1e-12
    for seed in range(10):
        word = mm.random_clifford_t_word(2, 10, seed=seed)
        rho = states.random_state(2, 2, seed=seed)
        lhs, rhs = mm.lmg_t_count_check(rho, word)
        assert lhs <= rhs + 1e-9
    with pytest.raises(UnsupportedDimensionError):
        mm.lmg_t_count_check(states.basis_state(0, 3), [])


def _qubit_word_dense(word, n):
    """Reference register unitary of a qubit word: each gate lifted with np.kron."""
    one = {"H": weyl.fourier_gate(2), "S": weyl.phase_gate(2), "T": weyl.t_gate(),
           "X": weyl.xmat(2), "Z": weyl.zmat(2)}
    P0, P1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    U = np.eye(2**n, dtype=complex)
    for name, *sites in word:
        if name == "CNOT":
            c, t = sites
            terms = [[np.eye(2)] * n, [np.eye(2)] * n]
            terms[0][c], terms[1][c], terms[1][t] = P0, P1, weyl.xmat(2)
            g = sum(reduce(np.kron, factors) for factors in terms)
        else:
            factors = [np.eye(2)] * n
            factors[sites[0]] = one[name]
            g = reduce(np.kron, factors)
        U = g @ U
    return U


def test_apply_qubit_word_gates():
    zero, one = states.basis_state(0, 2), states.basis_state(1, 2)
    out = mm.apply_qubit_word(zero, [("X", 0)])
    assert np.abs(out.mat - one.mat).max() < 1e-12
    out = mm.apply_qubit_word(zero, [("H", 0), ("Z", 0), ("H", 0)])
    assert np.abs(out.mat - one.mat).max() < 1e-12
    for seed in range(6):
        word = mm.random_clifford_t_word(2, 12, seed=seed)
        rho = states.random_state(2, 2, seed=seed)
        U = _qubit_word_dense(word, 2)
        out = mm.apply_qubit_word(rho, word)
        assert np.abs(out.mat - U @ rho.mat @ U.conj().T).max() < 1e-12
    # control on the first listed site, on a non-adjacent pair: |100> -> |101>
    out = mm.apply_qubit_word(states.basis_state(4, 2, n=3), [("CNOT", 0, 2)])
    assert np.abs(out.mat - states.basis_state(5, 2, n=3).mat).max() < 1e-12


def test_apply_qubit_word_refuses_an_unknown_gate():
    with pytest.raises(IncompatibleError, match="unknown gate Y"):
        mm.apply_qubit_word(states.basis_state(0, 2), [("Y", 0)])


def test_closest_msps_refuses_alpha_below_one():
    with pytest.raises(UnsupportedAlphaError, match="alpha >= 1"):
        mm.closest_msps(states.basis_state(0, 3), 0.5)
