import itertools

import numpy as np
import pytest

from qps import channels as chn
from qps import convolution as cv
from qps import entropy as ent
from qps import mean_magic as mm
from qps import states, weyl
from qps.errors import (
    IncompatibleError,
    NotStateError,
    SingularGError,
    TooLargeError,
    UnsupportedGError,
)
from qps.phase_space import make_point


def dense_convolve(rho, sigma, G, d, n):
    """Oracle: materialize U (rho ⊗ sigma) U^dag and trace out B."""
    U = weyl.key_unitary(G, n, d)
    big = U @ np.kron(rho.mat, sigma.mat) @ U.conj().T
    D = d**n
    return np.einsum("ajbj->ab", big.reshape(D, D, D, D))


def test_classify():
    pm = cv.classify([[1, 1], [1, -1]], 3)
    assert pm.positive and pm.nontrivial and pm.det == 1
    pm = cv.classify([[1, 0], [1, 1]], 2)
    assert pm.even_parity_positive and not pm.odd_parity_positive
    pm = cv.classify([[1, 0], [0, 1]], 3)
    assert not pm.nontrivial
    with pytest.raises(SingularGError):
        cv.classify([[1, 1], [1, 1]], 2)


def test_family_constructors():
    with pytest.raises(UnsupportedGError):
        cv.beam_splitter_params(2, 3, 7)
    bs = cv.beam_splitter_params(2, 2, 7)
    assert bs.positive
    am = cv.amplifier_params(3, 1, 7)
    assert am.positive
    with pytest.raises(UnsupportedGError):
        cv.amplifier_params(2, 2, 7)
    with pytest.raises(UnsupportedGError):
        cv.hadamard_params(2)


@pytest.mark.parametrize("d,n", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)])
def test_convolve_matches_dense_oracle(d, n):
    rng = np.random.default_rng(d * 10 + n)
    for trial in range(3):
        while True:
            G = rng.integers(0, d, (2, 2))
            if (G[0, 0] * G[1, 1] - G[0, 1] * G[1, 0]) % d:
                break
        rho = states.random_state(n, d, seed=trial)
        sig = states.random_state(n, d, seed=100 + trial)
        out = cv.convolve(rho, sig, G)
        assert np.abs(out.mat - dense_convolve(rho, sig, G, d, n)).max() < 1e-12


def test_convolve_char_duality():
    rng = np.random.default_rng(0)
    for d, n in [(2, 1), (2, 2), (3, 1), (5, 1), (3, 2)]:
        rho = states.random_state(n, d, seed=1)
        sig = states.random_state(n, d, seed=2)
        tr, ts = states.char_function(rho), states.char_function(sig)
        for _ in range(4):
            while True:
                G = rng.integers(0, d, (2, 2))
                if (G[0, 0] * G[1, 1] - G[0, 1] * G[1, 0]) % d:
                    break
            pm = cv.classify(G, d)
            fast = cv.convolve_char(tr, ts, pm)
            slow = states.char_function(
                states.make_state(cv._convolve_mats(rho.mat, sig.mat, pm, d, n), d, n)
            )
            assert np.abs(fast - slow).max() < 1e-10


def test_convolve_respects_table_cap(monkeypatch):
    rho = states.random_state(2, 3, seed=1)
    monkeypatch.setenv("QPS_MAX_DIM", str(3**4 - 1))
    with pytest.raises(TooLargeError):
        cv.convolve(rho, rho, cv.hadamard_params(3))
    monkeypatch.setenv("QPS_MAX_DIM", str(3**4))
    cv.convolve(rho, rho, cv.hadamard_params(3))


def test_identity_absorption_and_fixed_point():
    rho = states.random_state(1, 3, seed=5)
    out = cv.convolve(rho, states.maximally_mixed(3, 1), [[0, 1], [1, 1]])
    assert np.abs(out.mat - np.eye(3) / 3).max() < 1e-12
    out = cv.convolve(states.maximally_mixed(3, 1), rho, [[1, 0], [1, 1]])
    assert np.abs(out.mat - np.eye(3) / 3).max() < 1e-12
    bs = cv.beam_splitter_params(2, 2, 7)
    s0 = states.basis_state(0, 7)
    assert np.abs(cv.convolve(s0, s0, bs).mat - s0.mat).max() < 1e-12


def test_incompatible_inputs():
    with pytest.raises(IncompatibleError):
        cv.convolve(states.maximally_mixed(3, 1), states.maximally_mixed(3, 2), [[1, 1], [1, 2]])
    with pytest.raises(IncompatibleError):
        cv.convolve(states.maximally_mixed(3, 1), states.maximally_mixed(5, 1), [[1, 1], [1, 2]])
    for a, b in [((3, 1), (3, 2)), ((3, 1), (5, 1))]:
        ra, rb = states.maximally_mixed(*a), states.maximally_mixed(*b)
        with pytest.raises(IncompatibleError):
            cv.convolve_char(states.char_function(ra), states.char_function(rb), [[1, 1], [1, 2]])
        with pytest.raises(IncompatibleError):
            cv.convolve_wigner(states.wigner(ra), states.wigner(rb), [[1, 1], [1, 2]])


@pytest.mark.parametrize("d,n", [(2, 2), (3, 1), (3, 2), (5, 1)])
def test_tables_are_read_only_arrays(d, n):
    rho = states.random_state(n, d, seed=1)
    xr, xs = states.char_function(rho), states.char_function(states.random_state(n, d, seed=2))
    tables = [xr, cv.convolve_char(xr, xs, cv.default_params(d))]
    if d % 2:
        tables.append(states.wigner(rho))
    for table in tables:
        assert type(table) is np.ndarray and table.shape == (d,) * (2 * n)
        assert not table.flags.writeable


def test_stabilizer_closure():
    h = cv.hadamard_params(3)
    stabs = states.enumerate_pure_stabilizers(1, 3)
    for (a, _), (b, _) in itertools.islice(itertools.product(stabs, stabs), 20):
        out = cv.convolve(a, b, h)
        assert mm.is_msps(out)
        assert states.wigner(out).min() > -1e-12


def test_msps_closure_mixed():
    h = cv.hadamard_params(3)
    all_msps = states.enumerate_msps(1, 3)
    for a, b in itertools.islice(itertools.product(all_msps, all_msps), 30):
        assert mm.is_msps(cv.convolve(a, b, h))


def test_weyl_covariance_of_channel():
    # (w1 rho w1^dag) ⊠ (w2 sigma w2^dag) = w (rho ⊠ sigma) w^dag with the composite label
    d = 3
    pm = cv.classify([[1, 1], [1, 2]], d)
    rho = states.random_state(1, d, seed=8)
    sig = states.random_state(1, d, seed=9)
    base = cv.convolve(rho, sig, pm).mat
    for x1, y1, x2, y2 in itertools.product(range(d), repeat=4):
        w1 = weyl.weyl_operator(make_point(x1, y1, d), d)
        w2 = weyl.weyl_operator(make_point(x2, y2, d), d)
        lhs = cv.convolve(
            states.make_state(w1 @ rho.mat @ w1.conj().T, d),
            states.make_state(w2 @ sig.mat @ w2.conj().T, d),
            pm,
        )
        xc = (pm.g00 * x1 + pm.g01 * x2) % d
        yc = (pm.n_inv * pm.g11 * y1 - pm.n_inv * pm.g10 * y2) % d
        w = weyl.weyl_operator(make_point(xc, yc, d), d)
        assert np.abs(lhs.mat - w @ base @ w.conj().T).max() < 1e-11


def test_conv_channel_adjoint_identity():
    d = 3
    G = [[1, 1], [1, 2]]
    pm = cv.classify(G, d)
    U = weyl.key_unitary(G, 1, d)
    for p in range(d):
        for q in range(d):
            w = weyl.weyl_operator(make_point(p, q, d), d)
            lhs = U.conj().T @ np.kron(w, np.eye(d)) @ U
            wa = weyl.weyl_operator(make_point(pm.n_inv * pm.g11 * p, pm.g00 * q, d), d)
            wb = weyl.weyl_operator(make_point(-pm.n_inv * pm.g10 * p, pm.g01 * q, d), d)
            assert np.abs(lhs - np.kron(wa, wb)).max() < 1e-12


def test_transformed_stabilizer_group_needs_odd_parity_g():
    # the group of |0><0| at d = 3 has size 3; a trivial antidiagonal G would
    # scale every generator to 0 and return the group of size 1
    group = mm.mean_state(states.basis_state(0, 3)).group
    assert group.size == 3
    for G in ([[0, 1], [1, 0]], [[1, 0], [1, 1]], [[1, 0], [0, 1]]):
        with pytest.raises(UnsupportedGError):
            cv.transformed_stabilizer_group(group, G)
    for G in ([[0, 1], [1, 1]], cv.hadamard_params(3)):
        assert cv.transformed_stabilizer_group(group, G).size == 3


def test_wigner_convolution():
    for d, n in ((3, 1), (5, 2)):
        h = cv.hadamard_params(d)
        for seed in range(4):
            a = states.random_state(n, d, seed=seed)
            b = states.random_state(n, d, seed=50 + seed)
            fast = cv.convolve_wigner(states.wigner(a), states.wigner(b), h)
            slow = states.wigner(cv.convolve(a, b, h))
            assert np.abs(fast - slow).max() < 1e-10
    h = cv.hadamard_params(3)
    # s = t beam splitter outputs are pointwise nonnegative
    bs = cv.beam_splitter_params(2, 2, 7)
    a = states.random_state(1, 7, seed=9)
    b = states.random_state(1, 7, seed=10)
    fast = cv.convolve_wigner(states.wigner(a), states.wigner(b), bs)
    assert fast.min() > -1e-12
    assert np.abs(fast - states.wigner(cv.convolve(a, b, bs))).max() < 1e-10
    # uniform ⊠ uniform = uniform
    u = states.wigner(states.maximally_mixed(3, 1))
    out = cv.convolve_wigner(u, u, h)
    assert np.abs(out - 1 / 9).max() < 1e-12
    with pytest.raises(UnsupportedGError):
        cv.convolve_wigner(u, u, [[1, 0], [1, 1]])


def test_commutativity_condition():
    # abelian when g11 = -g10 and g00 = g01
    bs = cv.beam_splitter_params(2, 2, 7)
    a = states.random_state(1, 7, seed=11)
    b = states.random_state(1, 7, seed=12)
    assert np.abs(cv.convolve(a, b, bs).mat - cv.convolve(b, a, bs).mat).max() < 1e-10
    h = cv.hadamard_params(5)
    a = states.random_state(1, 5, seed=13)
    b = states.random_state(1, 5, seed=14)
    assert np.abs(cv.convolve(a, b, h).mat - cv.convolve(b, a, h).mat).max() < 1e-10


def test_mean_state_compatibility():
    # M(rho ⊠ sigma) = M(rho) ⊠ sigma when M(rho) = M(sigma)
    from qps.mean_magic import mean_state

    d = 7
    bs = cv.beam_splitter_params(2, 2, d)
    rng = np.random.default_rng(0)
    # rho, sigma: random states sharing the trivial mean I/d
    rho = states.random_state(1, d, seed=1)
    sig = states.random_state(1, d, seed=2)
    assert np.abs(mean_state(rho).mean.mat - mean_state(sig).mean.mat).max() < 1e-10
    lhs = mean_state(cv.convolve(rho, sig, bs)).mean
    rhs = cv.convolve(mean_state(rho).mean, sig, bs)
    assert np.abs(lhs.mat - rhs.mat).max() < 1e-9


def test_char_powers():
    # ⊠^3 |0><0| is |0><0| again for (s, t) = (2, 2) at d = 7
    bs = cv.beam_splitter_params(2, 2, 7)
    xr = states.char_function(states.basis_state(0, 7))
    tables = list(cv.char_powers(xr, bs, 3))
    assert len(tables) == 4 and tables[0] is xr
    assert np.abs(tables[-1] - xr).max() < 1e-12 and not tables[-1].flags.writeable
    assert len(list(cv.char_powers(xr, bs, 0))) == 1


def test_powers_check_arguments_at_the_call():
    bs = cv.beam_splitter_params(2, 2, 7)
    s0 = states.basis_state(0, 7)
    for params, N in (([bs], 3), (bs, -1)):
        with pytest.raises(IncompatibleError):
            cv.char_powers(states.char_function(s0), params, N)
        with pytest.raises(IncompatibleError):
            cv.clt_trajectory(s0, params, N)
        with pytest.raises(IncompatibleError):
            ent.check_second_law(s0, params, N, (1,))


def _clt_cases():
    """CLT inputs with G: random states (trivial mean group) at four (d, n), and
    two inputs with a non-zero mean, a product with a one-site mean and the
    Choi state of a Weyl channel."""
    for d, n in ((3, 1), (5, 1), (7, 1), (3, 2)):
        yield states.random_state(n, d, seed=4), cv.hadamard_params(d)
    yield states.tensor(states.basis_state(2, 3), states.random_state(1, 3, seed=5)), \
        cv.hadamard_params(3)
    yield chn.weyl_conjugation_channel([1, 2], 5).choi, cv.default_params(5)


def test_clt_trajectory_matches_the_convolve_chain():
    # the tables are those of the powers of the zero-mean conjugate chained with
    # convolve, and the Parseval distances match the dense route
    for rho, G in _clt_cases():
        point, work = mm.zero_mean_shift(rho)
        mean = mm.mean_state(work).mean
        mg = mm.magic_gap(rho).gap
        base = np.linalg.norm(work.mat - mean.mat)
        shift, gap, rows = cv.clt_trajectory(rho, G, 4)
        rows = list(rows)
        assert np.array_equal(shift, point) and gap == mg and len(rows) == 5
        ref = work
        for k, (xi, dist, bound) in enumerate(rows):
            ref = cv.convolve(ref, work, G) if k else work
            assert np.array_equal(xi, states.char_function(ref)) and not xi.flags.writeable
            assert abs(dist - np.linalg.norm(ref.mat - mean.mat)) <= 1e-15
            assert abs(bound - (1 - mg) ** k * base) <= 1e-15
            assert dist <= bound + 1e-9


def test_clt_trajectory_shifts_on_its_own_table():
    # on the inputs with a non-zero mean, one reading of rho's table gives the
    # rows of shifting rho first and running the trajectory on the result: the
    # same shift, tables and distances byte for byte.  The gap is read off rho's
    # own table, so it can differ from the shifted table's reading by rounding
    # in |Xi| alone, and the bounds with it
    shifted = 0
    for rho, G in _clt_cases():
        point, work = mm.zero_mean_shift(rho)
        if not point.any():
            continue
        shifted += 1
        shift, gap, rows = cv.clt_trajectory(rho, G, 5)
        zero, gap_work, rows_work = cv.clt_trajectory(work, G, 5)
        assert np.array_equal(shift, point) and not zero.any()
        assert gap == mm.magic_gap(rho).gap and abs(gap - gap_work) <= 1e-15
        for (xi, dist, bound), (xw, dw, bw) in zip(rows, rows_work, strict=True):
            assert xi.tobytes() == xw.tobytes() and dist == dw
            assert abs(bound - bw) <= 1e-14 * bw
    assert shifted == 2


def test_every_clt_power_is_a_state_by_cholesky(monkeypatch):
    # the trajectory builds no matrix; every power it yields passes make_state's
    # Cholesky route (with its eigvalsh fallback for the rank-deficient powers)
    cases = list(_clt_cases())
    tried = []
    real = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda mat: tried.append(1) or real(mat))
    powers = 0
    for rho, G in cases:
        for xi, _, _ in cv.clt_trajectory(rho, G, 6)[2]:
            states.state_from_char(xi)
            powers += 1
    assert len(tried) == powers == 6 * 7


def test_every_power_reader_refuses_a_broken_power(monkeypatch, capsys):
    # char_powers checks nothing; a power whose Xi(0) is not 1 is refused by the
    # one check of each caller, state_from_char, as it is reached
    from qps.cli import main

    real = cv.convolve_char

    def broken(xr, xs, G):
        out = np.array(real(xr, xs, G))
        out[(0,) * out.ndim] = 1.5
        return out

    monkeypatch.setattr(cv, "convolve_char", broken)
    assert main(["clt", "--d", "3", "--N", "2", "--family", "hadamard"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: NotStateError: Xi(0) = 1 violated by 5.00e-01\n"
    with pytest.raises(NotStateError, match="Xi\\(0\\)"):
        ent.check_second_law(states.random_state(1, 3, seed=2), cv.hadamard_params(3), 2, (1,))
    with pytest.raises(NotStateError, match="Xi\\(0\\)"):
        chn.channel_clt(chn.random_channel(1, 5, seed=1), cv.hadamard_params(5), 2)


def test_convolve_computes_each_char_table_once(monkeypatch):
    seen = []
    real = states.weyl_coefficient_table

    def counted(mat, d, n):
        seen.append(mat)
        return real(mat, d, n)

    monkeypatch.setattr(states, "weyl_coefficient_table", counted)
    h = cv.hadamard_params(3)
    rho = states.random_state(2, 3, seed=1)
    sigma = states.random_state(2, 3, seed=2)
    first = cv.convolve(rho, sigma, h)
    second = cv.convolve(first, sigma, h)
    assert sum(m is sigma.mat for m in seen) == 1
    assert sum(m is rho.mat for m in seen) == 1
    assert len(seen) == 2
    assert states.char_function(second) is states.char_function(second)


@pytest.mark.parametrize("d,n", [(2, 2), (3, 2), (5, 1), (7, 1)])
def test_convolve_hands_over_its_char_table(d, n):
    rho = states.random_state(n, d, seed=3)
    sigma = states.random_state(n, d, seed=4)
    out = cv.convolve(rho, sigma, cv.default_params(d))
    handed = out._char
    assert handed is not None and not handed.flags.writeable
    assert states.char_function(out) is handed
    recomputed = weyl.weyl_coefficient_table(out.mat, d, n)
    assert np.abs(handed - recomputed).max() < 1e-12


def test_handed_char_table_is_checked():
    rho = states.random_state(1, 3, seed=1)
    bad = states.char_function(rho).copy()
    bad[0, 0] = 0.99
    with pytest.raises(NotStateError):
        states.state_from_char(bad)
    big = states.char_function(rho).copy()
    big[1, 1] = 1.1
    with pytest.raises(NotStateError):
        states.state_from_char(big)


def _scale_axes_by_digit_axes(values, cp, cq):
    """Reference rescaling: one index vector per digit axis, 2n axes in all."""
    d, n = values.shape[0], values.ndim // 2
    idx = np.arange(d)
    return values[np.ix_(*([(cp * idx) % d] * n + [(cq * idx) % d] * n))]


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_scale_axes_matches_digit_axis_gather(d):
    rng = np.random.default_rng(d)
    for n in (1, 2, 3):
        shape = (d,) * (2 * n)
        values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for cp in range(-d, d):
            for cq in range(-d, d):
                got = cv._scale_axes(values, cp, cq)
                assert (got == _scale_axes_by_digit_axes(values, cp, cq)).all()


def test_solve_params_counts_and_reps():
    c7 = cv.solve_params(7, "circle")
    assert len(c7) == 1 and c7[0].representative == (2, 2)
    h7 = cv.solve_params(7, "hyperbola")
    assert len(h7) == 1 and h7[0].representative == (3, 1)
    assert cv.solve_params(5, "circle") == []
    assert len(cv.solve_params(17, "circle")) == 2
    for d in (7, 11, 13, 17, 19, 23, 29):
        assert len(cv.solve_params(d, "circle")) == (d + 1) // 8
        assert len(cv.solve_params(d, "hyperbola")) == (d - 3) // 4
        for klass in cv.solve_params(d, "circle"):
            s, t = klass.representative
            assert (s * s + t * t) % d == 1 and s not in (0, 1, d - 1)
        for klass in cv.solve_params(d, "hyperbola"):
            s, t = klass.representative
            assert (s * s - t * t) % d == 1 and s not in (0, 1, d - 1)


def test_cnot_family():
    cn1 = cv.cnot_family(1)
    U1 = weyl.key_unitary(cn1.as_array(), 1, 2)
    cnot21 = np.zeros((4, 4), complex)
    cnot12 = np.zeros((4, 4), complex)
    swap = np.zeros((4, 4), complex)
    for i in range(2):
        for j in range(2):
            cnot21[((i + j) % 2) * 2 + j, i * 2 + j] = 1
            cnot12[i * 2 + (i + j) % 2, i * 2 + j] = 1
            swap[j * 2 + i, i * 2 + j] = 1
    assert np.abs(U1 - cnot21).max() == 0
    assert cn1.even_parity_positive and not cn1.odd_parity_positive
    assert np.abs(weyl.key_unitary(cv.cnot_family(2).as_array(), 1, 2) - cnot12).max() == 0
    U3 = weyl.key_unitary(cv.cnot_family(3).as_array(), 1, 2)
    assert np.abs(U3 - swap @ cnot12).max() == 0
    assert cv.cnot_family(3).odd_parity_positive
    U4 = weyl.key_unitary(cv.cnot_family(4).as_array(), 1, 2)
    assert np.abs(U4 - swap @ cnot21).max() == 0


def _parity_class_old(g00, g01, g10, g11):
    """Reference: the zero-pattern rule the theorem-check sampler used."""
    if (g00 == 0) + (g01 == 0) + (g10 == 0) + (g11 == 0) >= 2:
        return "trivial"
    if g01 and g10:
        return "positive" if g00 and g11 else "odd_only"
    return "even_only"


def _flags_old(g00, g01, g10, g11):
    """Reference: classify's flags as it derived them from the zero count."""
    nontrivial = sum(v == 0 for v in (g00, g01, g10, g11)) <= 1
    odd = nontrivial and g01 != 0 and g10 != 0
    even = nontrivial and g00 != 0 and g11 != 0
    return nontrivial, odd, even, odd and even


def _majorization_sides_old(klass, pm):
    """Reference: the inputs the majorization checks compared rho ⊠ sigma with."""
    sides = []
    if klass in ("even_only", "positive") or (klass == "trivial" and pm.g00 != 0):
        sides.append("rho")
    if klass in ("odd_only", "positive") or (klass == "trivial" and pm.g00 == 0):
        sides.append("sigma")
    return tuple(sides)


def _entropy_sides_old(klass):
    """Reference: the inputs whose entropy bounded H(rho ⊠ sigma) (nontrivial G)."""
    bounds = []
    if klass in ("even_only", "positive"):
        bounds.append("rho")
    if klass in ("odd_only", "positive"):
        bounds.append("sigma")
    return tuple(bounds)


def _fisher_bound_old(pm, j_rho, j_sigma):
    """Reference: the Fisher bound of a nontrivial G."""
    if pm.positive:
        return min(j_rho, j_sigma)
    if pm.even_parity_positive:
        return j_rho
    return j_sigma


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_parity_class_and_bounding_inputs_match_old_rules(d):
    seen = set()
    for g in itertools.product(range(d), repeat=4):
        g00, g01, g10, g11 = g
        if (g00 * g11 - g01 * g10) % d == 0:
            continue
        klass = cv.parity_class(*g)
        assert klass == _parity_class_old(*g)
        seen.add(klass)
        pm = cv.classify([[g00, g01], [g10, g11]], d)
        flags = (pm.nontrivial, pm.odd_parity_positive, pm.even_parity_positive, pm.positive)
        assert flags == _flags_old(*g)
        sides = cv.bounding_inputs(pm)
        assert sides == _majorization_sides_old(klass, pm)
        if pm.nontrivial:
            assert sides == _entropy_sides_old(klass)
            j = {"rho": 2.0 + g00, "sigma": 3.0 + g11}
            assert min(j[tag] for tag in sides) == _fisher_bound_old(pm, j["rho"], j["sigma"])
    assert seen == set(cv.PARITY_CLASSES) - ({"positive"} if d == 2 else set())


def test_family_constructors_return_classified_matrices():
    assert cv.hadamard_params(5) == cv.classify([[1, 1], [1, -1]], 5)
    assert cv.beam_splitter_params(2, 2, 7) == cv.classify([[2, 2], [2, -2]], 7)
    assert cv.amplifier_params(3, 1, 7) == cv.classify([[3, -1], [-1, 3]], 7)
    for index, G in ((1, [[1, 0], [1, 1]]), (2, [[1, 1], [0, 1]]), (3, [[0, 1], [1, 1]]),
                     (4, [[1, 1], [1, 0]])):
        assert cv.cnot_family(index) == cv.classify(G, 2)
    s, t = cv.solve_params(13, "circle")[0].representative
    assert cv.default_params(13) == cv.beam_splitter_params(s, t, 13)
    assert cv.default_params(3) == cv.hadamard_params(3)
    assert cv.default_params(2) == cv.cnot_family(1)
    for pm in (cv.hadamard_params(3), cv.cnot_family(2)):
        assert isinstance(pm, cv.ParamMatrix) and cv.as_param_matrix(pm, pm.d) is pm
    with pytest.raises(IncompatibleError):
        cv.as_param_matrix([cv.hadamard_params(3)], 3)
    with pytest.raises(IncompatibleError):
        cv.as_param_matrix(cv.hadamard_params(3), 5)
