import itertools

import numpy as np
import pytest

from qps import weyl
from qps.errors import (
    IncompatibleError,
    NotUnitaryError,
    SingularGError,
    UnsupportedDimensionError,
)
from qps.phase_space import field_inv, make_point

from helpers import (
    commutation_phase,
    reference_coefficient_table,
    reference_matrix_from_table,
    reference_stripe_index,
    symplectic_inner,
    weyl_literal,
)


def test_weyl_operator_basics():
    assert np.abs(weyl.weyl_operator(make_point(0, 0, 3), 3) - np.eye(3)).max() == 0
    z = weyl.weyl_operator(make_point(1, 0, 3), 3)
    om = np.exp(2j * np.pi / 3)
    assert np.abs(z - np.diag([1, om, om**2])).max() < 1e-12
    # qubit Weyls are I, X, Y, Z up to labels
    y = weyl.weyl_operator(make_point(1, 1, 2), 2)
    assert np.abs(y - np.array([[0, -1j], [1j, 0]])).max() < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_qubit_weyl_operators_are_exact(n):
    # chi(1) = -1 exactly at d = 2, so w(p, q) = (-i)^{p.q} Z^p X^q carries no rounding:
    # real when p.q is even, imaginary when it is odd, every entry in {0, +-1, +-i}
    assert weyl.chi(1, 2) == -1
    assert np.array_equal(weyl.omega_table(2), [1, -1])
    for x in itertools.product(range(2), repeat=2 * n):
        w = weyl.weyl_operator(x, 2)
        assert set(np.unique(w).tolist()) <= {0, 1, -1, 1j, -1j}
        odd = np.dot(x[:n], x[n:]) % 2
        assert not (w.imag if not odd else w.real).any()


def _weyl_operator_kron(point, d):
    """Reference w(p, q): the chained Kronecker product of the one-site operators."""
    out = np.array([[1.0 + 0j]])
    n = len(point) // 2
    for pk, qk in zip(point[:n], point[n:]):
        out = np.kron(out, weyl.weyl_operator(make_point(pk, qk, d), d))
    return out


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_weyl_operator_matches_kron_chain(d):
    # the monomial scatter reproduces the Kronecker chain entry for entry
    rng = np.random.default_rng(d)
    for n in (1, 2, 3):
        if d ** (2 * n) <= 729:
            vecs = np.indices((d,) * (2 * n)).reshape(2 * n, -1).T
        else:
            vecs = rng.integers(0, d, size=(60, 2 * n))
        for point in vecs:
            assert (weyl.weyl_operator(point, d) == _weyl_operator_kron(point, d)).all()


@pytest.mark.parametrize("d,n", [(2, 1), (2, 3), (3, 2), (3, 3), (5, 2), (7, 1), (7, 2)])
def test_dft_kernel_matches_fft(d, n):
    rng = np.random.default_rng(d * 10 + n)
    shape = (d,) * (2 * n)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    # _dft_axes overwrites its input, so it gets a copy of a
    for axes in (range(n), range(n, 2 * n), range(2 * n)):
        forward = np.fft.fftn(a, axes=tuple(axes))
        assert np.abs(weyl._dft_axes(a.copy(), d, axes, -1) - forward).max() < 1e-12
        inverse = d ** len(axes) * np.fft.ifftn(a, axes=tuple(axes))
        assert np.abs(weyl._dft_axes(a.copy(), d, axes, 1) - inverse).max() < 1e-12
    mat = a.reshape(d**n, d**n)
    table = weyl.weyl_coefficient_table(mat, d, n)
    assert np.abs(weyl.matrix_from_weyl_table(table, d, n) - mat).max() < 1e-12


@pytest.mark.parametrize("d", [3, 5, 7])
def test_commutation_odd(d):
    rng = np.random.default_rng(d)
    for _ in range(25):
        x = rng.integers(0, d, 2)
        y = rng.integers(0, d, 2)
        lhs = weyl.weyl_operator(x, d) @ weyl.weyl_operator(y, d)
        s = (x + y) % d
        rhs = commutation_phase(x, y, d) * weyl.weyl_operator(s, d)
        assert np.abs(lhs - rhs).max() < 1e-12


def test_commutation_qubit_literal():
    # the qubit formula needs unreduced integer labels: w(1,2) = -Z, not Z
    assert np.abs(weyl_literal([1], [2], 2) + weyl.zmat(2)).max() < 1e-12
    for n in (1, 2):
        rng = np.random.default_rng(n)
        for _ in range(40):
            x = rng.integers(0, 2, 2 * n)
            y = rng.integers(0, 2, 2 * n)
            lhs = weyl.weyl_operator(x, 2) @ weyl.weyl_operator(y, 2)
            ps, qs = (x + y)[:n], (x + y)[n:]
            rhs = commutation_phase(x, y, 2) * weyl_literal(ps, qs, 2)
            assert np.abs(lhs - rhs).max() < 1e-12


@pytest.mark.parametrize("d,n", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (5, 2)])
def test_orthonormality(d, n):
    D = d**n
    vecs = np.indices((d,) * (2 * n)).reshape(2 * n, -1).T
    mats = np.stack([weyl.weyl_operator(v, d).reshape(-1) for v in vecs])
    gram = (mats.conj() @ mats.T) / D
    assert np.abs(gram - np.eye(len(vecs))).max() < 1e-12


def test_parity_and_phase_point():
    t0 = weyl.parity_operator(3, 1)
    want = np.zeros((3, 3), complex)
    for j in range(3):
        want[(-j) % 3, j] = 1
    assert np.abs(t0 - want).max() == 0
    # definitional symplectic sum agrees with the covariance construction
    for p in range(3):
        for q in range(3):
            x = make_point(p, q, 3)
            acc = np.zeros((3, 3), complex)
            for u in range(3):
                for v in range(3):
                    y = make_point(u, v, 3)
                    acc += complex(weyl.chi(symplectic_inner(x, y, 3), 3)) * weyl.weyl_operator(y, 3)
            T = weyl.phase_point_operator(x, 3)
            assert np.abs(acc / 3 - T).max() < 1e-12
            assert np.abs(T - T.conj().T).max() < 1e-12
    # orthonormality of the T basis
    Ts = [weyl.phase_point_operator(make_point(p, q, 3), 3) for p in range(3) for q in range(3)]
    for i, A in enumerate(Ts):
        for j, B in enumerate(Ts):
            val = np.trace(A.conj().T @ B).real / 3
            assert abs(val - (1.0 if i == j else 0.0)) < 1e-12
    with pytest.raises(UnsupportedDimensionError):
        weyl.phase_point_operator(make_point(0, 0, 2), 2)


def test_key_unitary_examples():
    assert np.abs(weyl.key_unitary(np.eye(2, dtype=int), 1, 3) - np.eye(9)).max() == 0
    U = weyl.key_unitary([[1, 0], [1, 1]], 1, 2)
    cnot21 = np.zeros((4, 4), complex)
    for i in range(2):
        for j in range(2):
            cnot21[((i + j) % 2) * 2 + j, i * 2 + j] = 1
    assert np.abs(U - cnot21).max() == 0
    with pytest.raises(SingularGError):
        weyl.key_unitary([[1, 1], [1, 1]], 1, 2)


def _key_unitary_loop(G, n, d):
    """Reference U: |i>|j> -> |N g11 i - N g10 j> |-N g01 i + N g00 j>, one input i at a time."""
    g = np.array(G, dtype=np.int64) % d
    N = field_inv(int(g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]) % d, d)
    D = d**n
    dig = weyl.digit_table(d, n)
    U = np.zeros((D * D, D * D), dtype=complex)
    for a in range(D):
        i = dig[a]
        ip = (N * (g[1, 1] * i[None, :] - g[1, 0] * dig)) % d  # rows: j
        jp = (N * (-g[0, 1] * i[None, :] + g[0, 0] * dig)) % d
        src = a * D + np.arange(D)
        dst = weyl.encode_digits(ip, d) * D + weyl.encode_digits(jp, d)
        U[dst, src] = 1.0
    return U


@pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)])
def test_key_unitary_matches_loop_reference(d, n):
    D = d**n
    count = 0
    for g in itertools.product(range(d), repeat=4):
        if (g[0] * g[3] - g[1] * g[2]) % d == 0:
            continue
        G = [[g[0], g[1]], [g[2], g[3]]]
        U = weyl.key_unitary(G, n, d)
        assert (U == _key_unitary_loop(G, n, d)).all()
        # U^dag |x>|j> = |A[x, j]>|B[x, j]>
        A, B = weyl.key_index_map(G, d, n)
        assert (U.argmax(axis=1) == (A * D + B).reshape(-1)).all()
        count += 1
    assert count == {2: 6, 3: 48, 5: 480, 7: 2016}[d]


@pytest.mark.parametrize("G", [[[1, 1], [1, 2]], [[2, 1], [1, 1]], [[0, 1], [1, 1]], [[1, 0], [1, 1]]])
def test_key_unitary_weyl_covariance(G):
    d = 3
    from qps.phase_space import field_inv

    g = np.array(G) % d
    det = int(g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]) % d
    N = field_inv(det, d)
    U = weyl.key_unitary(G, 1, d)
    for x1 in range(d):
        for y1 in range(d):
            for x2 in range(d):
                for y2 in range(d):
                    w1 = weyl.weyl_operator(make_point(x1, y1, d), d)
                    w2 = weyl.weyl_operator(make_point(x2, y2, d), d)
                    lhs = U @ np.kron(w1, w2) @ U.conj().T
                    a = make_point(g[0, 0] * x1 + g[0, 1] * x2, N * (g[1, 1] * y1 - g[1, 0] * y2), d)
                    b = make_point(g[1, 0] * x1 + g[1, 1] * x2, N * (-g[0, 1] * y1 + g[0, 0] * y2), d)
                    rhs = np.kron(weyl.weyl_operator(a, d), weyl.weyl_operator(b, d))
                    assert np.abs(lhs - rhs).max() < 1e-12


def test_is_weyl_up_to_phase():
    point, phase = weyl.is_weyl_up_to_phase(weyl.zmat(3), 3, 1)
    assert point.tolist() == [1, 0] and abs(phase - 1) < 1e-10
    assert weyl.is_weyl_up_to_phase(weyl.fourier_gate(2), 2, 1) is None
    point, phase = weyl.is_weyl_up_to_phase(np.exp(1j * np.pi / 7) * weyl.xmat(2), 2, 1)
    assert point.tolist() == [0, 1]
    assert abs(phase - np.exp(1j * np.pi / 7)) < 1e-10


def test_is_clifford():
    assert weyl.is_clifford(weyl.weyl_operator(make_point(1, 2, 3), 3), 3, 1)
    assert weyl.is_clifford(weyl.key_unitary([[1, 1], [1, 2]], 1, 3), 3, 2)
    assert not weyl.is_clifford(weyl.t_gate(), 2, 1)
    # H T H^dag fixes X, so only its image of Z shows that it is not Clifford
    h = weyl.fourier_gate(2)
    assert not weyl.is_clifford(h @ weyl.t_gate() @ h.conj().T, 2, 1)
    for d in (2, 3, 5):
        assert weyl.is_clifford(weyl.fourier_gate(d), d, 1)
        assert weyl.is_clifford(weyl.phase_gate(d), d, 1)
    assert weyl.is_clifford(weyl.multiplier_gate(3, 5), 5, 1)
    with pytest.raises(NotUnitaryError):
        weyl.is_clifford(np.diag([1.0, 2.0]).astype(complex), 2, 1)


def test_random_clifford():
    assert np.abs(weyl.random_clifford(1, 3, 0, seed=0) - np.eye(3)).max() == 0
    for seed in range(5):
        U = weyl.random_clifford(2, 3, 9, seed=seed)
        assert weyl.is_clifford(U, 3, 2)
    a = weyl.random_clifford(2, 2, 7, seed=3)
    b = weyl.random_clifford(2, 2, 7, seed=3)
    assert a.tobytes() == b.tobytes()


def test_embed_two_site_matches_kron():
    g = weyl.cnot_gate(2)
    full = weyl.apply_site_gate(np.eye(4, dtype=complex), g, [0, 1], 2, 2)
    assert np.abs(full - g).max() < 1e-12
    # swapping the sites conjugates by SWAP
    swapped = weyl.apply_site_gate(np.eye(4, dtype=complex), g, [1, 0], 2, 2)
    S = np.zeros((4, 4), complex)
    for i in range(2):
        for j in range(2):
            S[j * 2 + i, i * 2 + j] = 1
    assert np.abs(swapped - S @ g @ S).max() < 1e-12


def _embed_one_site(gate, site, n, d):
    """Reference lift of a one-site gate: I (x) gate (x) I."""
    left = np.eye(d**site, dtype=complex)
    right = np.eye(d ** (n - site - 1), dtype=complex)
    return np.kron(np.kron(left, gate), right)


def _embed_two_site(gate, site_a, site_b, n, d):
    """Reference lift of a two-site gate: gate (x) I conjugated by a site permutation."""
    D = d**n
    order = [site_a, site_b] + [k for k in range(n) if k not in (site_a, site_b)]
    newidx = weyl.encode_digits(weyl.digit_table(d, n)[:, order], d)
    P = np.zeros((D, D), dtype=complex)
    P[newidx, np.arange(D)] = 1.0
    full = np.kron(gate, np.eye(d ** (n - 2), dtype=complex))
    return P.conj().T @ full @ P


def _random_gate(rng, dim):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


@pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2)])
def test_apply_site_gate_matches_dense_embedding(d, n):
    rng = np.random.default_rng(10 * d + n)
    D = d**n
    for cols in (D, 3):
        mat = rng.normal(size=(D, cols)) + 1j * rng.normal(size=(D, cols))
        for site in range(n):
            g = _random_gate(rng, d)
            out = weyl.apply_site_gate(mat, g, [site], d, n)
            assert out.shape == mat.shape
            assert np.abs(out - _embed_one_site(g, site, n, d) @ mat).max() < 1e-12
        # every ordered pair: adjacent, reversed and non-adjacent
        for a in range(n):
            for b in range(n):
                if a == b:
                    continue
                g = _random_gate(rng, d * d)
                out = weyl.apply_site_gate(mat, g, [a, b], d, n)
                assert np.abs(out - _embed_two_site(g, a, b, n, d) @ mat).max() < 1e-12
    mat = rng.normal(size=(D, D)) + 0j
    g = _random_gate(rng, d)
    full = _embed_one_site(g, n - 1, n, d)
    out = weyl.conjugate_site_gate(mat, g, [n - 1], d, n)
    assert np.abs(out - full @ mat @ full.conj().T).max() < 1e-12


def test_apply_site_gate_refuses_repeated_or_missing_sites():
    with pytest.raises(IncompatibleError):
        weyl.apply_site_gate(np.eye(9, dtype=complex), np.eye(9), [1, 1], 3, 2)
    with pytest.raises(IncompatibleError):
        weyl.conjugate_site_gate(np.eye(8, dtype=complex), np.eye(4), [2, 2], 2, 3)
    for sites in ([-1], [2], [0, 3]):
        with pytest.raises(IncompatibleError):
            weyl.apply_site_gate(np.eye(9, dtype=complex), np.eye(3 ** len(sites)), sites, 3, 2)


def _random_clifford_dense(n, d, word_length, seed):
    """The dense-product reference: each generator lifted to the register, then multiplied."""
    rng = np.random.default_rng(seed)
    U = np.eye(d**n, dtype=complex)
    kinds = ["fourier", "phase", "weyl"] + (["mult"] if d > 2 else []) + (["cnot"] if n >= 2 else [])
    for _ in range(word_length):
        kind = kinds[rng.integers(len(kinds))]
        if kind == "fourier":
            g = _embed_one_site(weyl.fourier_gate(d), int(rng.integers(n)), n, d)
        elif kind == "phase":
            g = _embed_one_site(weyl.phase_gate(d), int(rng.integers(n)), n, d)
        elif kind == "mult":
            a = int(rng.integers(2, d))
            g = _embed_one_site(weyl.multiplier_gate(a, d), int(rng.integers(n)), n, d)
        elif kind == "weyl":
            g = weyl.weyl_operator(rng.integers(0, d, size=2 * n), d)
        else:
            a, b = rng.choice(n, size=2, replace=False)
            g = _embed_two_site(weyl.cnot_gate(d), int(a), int(b), n, d)
        U = g @ U
    return U


@pytest.mark.parametrize("n,d", [(1, 3), (2, 2), (2, 3), (3, 2), (2, 5), (3, 3)])
def test_random_clifford_matches_dense_product(n, d):
    for seed in range(4):
        U = weyl.random_clifford(n, d, 10, seed=seed)
        assert np.abs(U - _random_clifford_dense(n, d, 10, seed)).max() <= 1e-13


GRID_SIZES = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2),
              (7, 1), (7, 2), (11, 1)]


def _phase_grid_indices(d, n):
    """Reference: the phase grid from the full 2n x d^{2n} np.indices array."""
    grid = np.indices((d,) * (2 * n))
    pq_sum = sum(grid[k] * grid[n + k] for k in range(n))
    if d == 2:
        return np.asarray((-1j) ** pq_sum, dtype=complex)
    return np.asarray(weyl.chi(-field_inv(2, d) * pq_sum, d), dtype=complex)


@pytest.mark.parametrize("d,n", GRID_SIZES)
def test_weyl_phase_grid_matches_indices_construction(d, n):
    roots, e = weyl.weyl_phase_exponents(d, n)
    assert e.dtype == np.min_scalar_type(len(roots) - 1) and e.dtype.kind == "u"
    assert e.max() == len(roots) - 1
    assert np.array_equal(roots[e], _phase_grid_indices(d, n))


# (3, 5) is past numpy's 256 KiB threshold for reusing a temporary operand.
@pytest.mark.parametrize("d,n", [(3, 5), (2, 3), (5, 2), (7, 1)])
def test_weyl_transforms_match_their_reference_bit_for_bit(d, n):
    D = d**n
    for sign in (1, -1):
        index = weyl._stripe_index(d, n, sign)
        assert index.dtype == np.min_scalar_type(D - 1)
        assert np.array_equal(index, reference_stripe_index(d, n, sign))
    rng = np.random.default_rng(d * 10 + n)
    mat = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
    got = weyl.weyl_coefficient_table(mat, d, n)
    assert got.tobytes() == reference_coefficient_table(mat, d, n).tobytes()
    sparse = np.zeros((d,) * (2 * n), dtype=complex)
    sparse.reshape(-1)[::7] = 0.5
    for table in (got, sparse):
        out = weyl.matrix_from_weyl_table(table, d, n)
        assert out.flags.c_contiguous
        assert out.tobytes() == reference_matrix_from_table(table, d, n).tobytes()
