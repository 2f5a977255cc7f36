"""Weyl operators, phase-space point operators, the key unitary, Cliffords.

Single-site Weyl operators are chi(-2^{-1} p q) Z^p X^q for odd prime d
and i^{-pq} Z^p X^q for d = 2, with X|k> = |k+1> and Z|k> = chi(k)|k>;
multi-site operators are tensor products.  The qubit convention is taken
literally: phases of products are governed by integer exponents of i, so
w at an unreduced label t is (-i)^{sum t_p t_q - sum (t_p mod 2)(t_q mod 2)}
w(t mod 2), the form in which the commutation relation holds.

A point of V^n is the vector [p | q] of ``phase_space``, and every
function here takes it in that form.  Register operators are returned as
dense matrices.  The phase convention is encoded once, in
``weyl_phase_exponents``, which both the Weyl-coefficient transform and
``weyl_operator`` read.  A Weyl operator is monomial (one nonzero entry
per column), so ``weyl_operator`` builds its row indices and values site
by site from that phase and the clock factors and scatters them once: no
matrix exponentials, no Kronecker chains.  A one- or two-site gate is
never lifted to the register: ``apply_site_gate`` contracts it along its
site axes, and ``conjugate_site_gate`` applies g M g^dag the same way.

The Weyl-coefficient transform (matrix -> table of Tr[M w(-x)]) runs
through one d-point DFT per diagonal stripe and register digit, which is
exact up to float rounding.  Its kernel ``_dft_axes`` is the only d-point
DFT in ``qps``: Wigner tables and the Wigner convolution run on it too.
Each direction holds at most two D x D complex arrays besides its input:
the buffer it fills and the spare that its DFT passes alternate with
(``matmul(..., out=)``); gathering the phases adds a D x D intp copy of
their exponents.  Its cached tables are integers in the narrowest
unsigned dtype: phase exponents and stripe indices.  Products are
written ``np.multiply(a, b, out=...)`` in a fixed operand order: complex
a * b and b * a can differ in the last bit, and numpy swaps the operands
when it reuses a temporary as the output.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .config import ensure_table_size
from .errors import (
    IncompatibleError,
    NotUnitaryError,
    SingularGError,
    UnsupportedDimensionError,
)
from .phase_space import check_prime, field_inv

# Modulus slack of is_weyl_up_to_phase: one Weyl coefficient >= 1 - tol, all others <= tol.
WEYL_COEFF_TOL = 1e-8
# Largest entry of U^dag U - I that is_unitary accepts.
UNITARY_TOL = 1e-10


@lru_cache(maxsize=None)
def omega_table(d: int) -> np.ndarray:
    """The d-th roots of unity chi(k) = exp(2 pi i k / d), k = 0..d-1; exactly [1, -1] at d = 2."""
    table = np.exp(2j * np.pi * np.arange(d) / d) if d > 2 else np.array([1, -1], dtype=complex)
    table.setflags(write=False)
    return table


def chi(k, d: int):
    """chi(k) for an integer or integer array k (reduced mod d)."""
    return omega_table(d)[np.asarray(k) % d]


@lru_cache(maxsize=None)
def digit_table(d: int, n: int) -> np.ndarray:
    """(d^n, n) table of base-d digits, site 0 most significant."""
    idx = np.indices((d,) * n).reshape(n, -1).T
    idx = np.ascontiguousarray(idx.astype(np.int64))
    idx.setflags(write=False)
    return idx


@lru_cache(maxsize=None)
def _radix(d: int, n: int) -> np.ndarray:
    r = d ** np.arange(n - 1, -1, -1, dtype=np.int64)
    r.setflags(write=False)
    return r


def encode_digits(digs: np.ndarray, d: int) -> np.ndarray:
    """Flat indices of digit rows (inverse of digit_table lookup)."""
    n = digs.shape[-1]
    return digs @ _radix(d, n)


def zmat(d: int) -> np.ndarray:
    return np.diag(omega_table(d)).astype(complex)


def xmat(d: int) -> np.ndarray:
    X = np.zeros((d, d), dtype=complex)
    X[(np.arange(d) + 1) % d, np.arange(d)] = 1.0
    return X


def weyl_operator(point, d: int) -> np.ndarray:
    """The unitary w(p, q) on d^n dimensions for the point [p | q] of length 2n.

    Column c holds one entry, vals[c] at row rows[c].  Both are built site by
    site (site 0 most significant), the site values multiplying left to right
    as a Kronecker product of the site matrices would, and scattered once.
    Column k of site (p, q) holds roots[e[p, q]] chi(p (k + q)) at row
    k + q, with (roots, e) the one-site ``weyl_phase_exponents``.
    """
    point = np.asarray(point, dtype=np.int64) % d
    if point.ndim != 1 or point.size % 2:
        raise IncompatibleError(f"a point [p | q] has even length, got shape {point.shape}")
    n = point.size // 2
    roots, e = weyl_phase_exponents(d, 1)
    om, k = omega_table(d), np.arange(d)
    rows = np.zeros(1, dtype=np.int64)
    vals = np.ones(1, dtype=complex)
    for pk, qk in zip(point[:n], point[n:]):
        site_rows = (k + qk) % d
        site_vals = roots[e[pk, qk]] * om[(pk * site_rows) % d]
        rows = (rows[:, None] * d + site_rows).reshape(-1)
        vals = (vals[:, None] * site_vals).reshape(-1)
    out = np.zeros((rows.size, rows.size), dtype=complex)
    out[rows, np.arange(rows.size)] = vals
    return out


@lru_cache(maxsize=None)
def weyl_phase_exponents(d: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(roots, e): the phase of w(p, q) is roots[e[p, q]] over V^n, e of shape (d,)*2n.

    With s = sum_k p_k q_k: for d = 2, e = s unreduced and roots[k] = (-i)^k;
    for odd d, e = -2^{-1} s mod d and roots = chi.  e is held in the
    narrowest unsigned dtype that holds its largest value.
    """
    dig = digit_table(d, n)
    pq_sum = dig @ dig.T  # sum_k p_k q_k, not reduced mod d
    if d == 2:
        roots = (-1j) ** np.arange(n + 1)
    else:
        roots = omega_table(d)
        pq_sum = (-field_inv(2, d) * pq_sum) % d
    e = pq_sum.astype(np.min_scalar_type(len(roots) - 1)).reshape((d,) * (2 * n))
    roots.setflags(write=False)
    e.setflags(write=False)
    return roots, e


def _phase_grid(d: int, n: int) -> np.ndarray:
    """The phases of every w(p, q), gathered into a new (d,)*2n array."""
    roots, e = weyl_phase_exponents(d, n)
    return roots.take(e)


@lru_cache(maxsize=None)
def _stripe_index(d: int, n: int, sign: int) -> np.ndarray:
    """(d^n, d^n) flat indices of the digit rows x + sign * y (mod d).

    Built one digit at a time, so no (d^n, d^n, n) intermediate exists,
    and held in the narrowest unsigned dtype that holds d^n - 1.
    """
    D = d**n
    dig = digit_table(d, n)
    out = np.zeros((D, D), dtype=np.min_scalar_type(D - 1))
    for k, r in enumerate(_radix(d, n)):
        out += (((dig[:, None, k] + sign * dig[None, :, k]) % d) * r).astype(out.dtype)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _dft_matrix(d: int, sign: int) -> np.ndarray:
    """The unnormalized d-point DFT matrix [k, j] -> chi(sign * j k)."""
    j = np.arange(d)
    out = omega_table(d)[(sign * np.outer(j, j)) % d]
    out.setflags(write=False)
    return out


def _dft_axes(a: np.ndarray, d: int, axes, sign: int) -> np.ndarray:
    """sum_j a[.., j, ..] chi(sign * j . k) over a run of axes of a C-contiguous (d,)*m array
    or a stack of them on one leading axis; ``axes`` index a itself.

    The one d-point DFT of ``qps``: sign = -1 is ``np.fft.fftn`` over those
    axes and sign = +1 is d^len(axes) times ``np.fft.ifftn``.  Axis k is one
    ``matmul`` of the d x d DFT matrix into a (-1, d, d^(ndim-1-k)) view, which
    for axes this short costs less than ``np.fft`` does.  The passes, in axis
    order, write alternately into one spare array and into a itself, so a is
    overwritten; the result is whichever of the two the last pass wrote.
    """
    F = _dft_matrix(d, sign)
    src, dst = a, np.empty_like(a)
    for k in axes:
        tail = d ** (a.ndim - 1 - k)
        np.matmul(F, src.reshape(-1, d, tail), out=dst.reshape(-1, d, tail))
        src, dst = dst, src
    return src


def weyl_coefficient_table(mat: np.ndarray, d: int, n: int) -> np.ndarray:
    """Tr[mat * w(-x)] for every x in V^n, as an array of shape (d,)*2n.

    Dividing by d^n gives the coefficients of mat in the Weyl basis.  The
    stripes mat[k + q, k] are gathered for each shift q, transformed over
    the register digits k by the d x d DFT along each p axis, and
    multiplied by the phase grid of w.
    """
    ensure_table_size(d, n)
    D = d**n
    # stripes[k, q] = mat[(k + q) mod d, k], unnamed: the buffer not returned is freed at once
    out = _dft_axes(mat[_stripe_index(d, n, 1), np.arange(D)[:, None]].reshape((d,) * (2 * n)),
                    d, range(n), -1)
    return np.multiply(_phase_grid(d, n), out, out=out)


def matrix_from_weyl_table(table: np.ndarray, d: int, n: int) -> np.ndarray:
    """Inverse of weyl_coefficient_table: (1/d^n) sum_x table[x] w(x)."""
    D = d**n
    a = _phase_grid(d, n)
    b = _dft_axes(np.multiply(np.asarray(table, dtype=complex), a, out=a), d, range(n), 1)
    del a  # the spare of the DFT passes, unless it holds b
    out = b.reshape(D, D)[np.arange(D)[:, None], _stripe_index(d, n, -1)]
    out /= D
    return out


def parity_operator(d: int, n: int) -> np.ndarray:
    """T(0, 0) = sum_j |-j><j| in the computational basis."""
    D = d**n
    dig = digit_table(d, n)
    P = np.zeros((D, D), dtype=complex)
    P[encode_digits((-dig) % d, d), np.arange(D)] = 1.0
    return P


def phase_point_operator(point, d: int) -> np.ndarray:
    """T(x) = w(x) T(0,0) w(x)^dag at the point x = [p | q]; Hermitian, defined for odd prime d."""
    if d == 2:
        raise UnsupportedDimensionError("phase-space point operators need odd d")
    check_prime(d)
    w = weyl_operator(point, d)
    return w @ parity_operator(d, len(point) // 2) @ w.conj().T


def is_unitary(mat: np.ndarray) -> bool:
    D = mat.shape[0]
    return np.abs(mat.conj().T @ mat - np.eye(D)).max() < UNITARY_TOL


def is_weyl_up_to_phase(A: np.ndarray, d: int, n: int):
    """(point, phase) with A = phase * w(point) when A is a Weyl operator up to phase, else None.

    A is expanded in the Weyl basis; the point is accepted only when
    exactly one coefficient has modulus >= 1 - WEYL_COEFF_TOL and every
    other coefficient has modulus <= WEYL_COEFF_TOL.
    """
    coeffs = weyl_coefficient_table(A, d, n) / d**n
    mags = np.abs(coeffs)
    hits = np.argwhere(mags >= 1 - WEYL_COEFF_TOL)
    if len(hits) != 1:
        return None
    rest = mags.copy()
    rest[tuple(hits[0])] = 0.0
    if rest.max() > WEYL_COEFF_TOL:
        return None
    c = coeffs[tuple(hits[0])]
    return hits[0], c / abs(c)


def apply_site_gate(mat: np.ndarray, gate: np.ndarray, sites, d: int, n: int) -> np.ndarray:
    """gate @ mat with the k-site gate (on d^k dims) acting on the listed sites.

    The gate's tensor factors act on sites[0], sites[1], ... in that order,
    so the order of ``sites`` may differ from the register order.  The gate
    is contracted into the row index of mat (shape (D,) or (D, m)) along
    those site axes only; no D x D embedding is built.
    """
    sites = [int(s) for s in sites]
    k = len(sites)
    if len(set(sites)) != k or not all(0 <= s < n for s in sites):
        raise IncompatibleError(f"a site gate needs distinct sites in 0..{n - 1}, got {sites}")
    t = mat.reshape((d,) * n + (-1,))
    out = np.tensordot(gate.reshape((d,) * (2 * k)), t, axes=(range(k, 2 * k), sites))
    return np.moveaxis(out, range(k), sites).reshape(mat.shape)


def conjugate_site_gate(mat: np.ndarray, gate: np.ndarray, sites, d: int, n: int) -> np.ndarray:
    """g mat g^dag for the register gate g that ``apply_site_gate`` applies.

    The right factor is applied as (conj(g) (g mat)^T)^T = g mat g^dag.
    """
    left = apply_site_gate(mat, gate, sites, d, n)
    return apply_site_gate(left.T, gate.conj(), sites, d, n).T


def fourier_gate(d: int) -> np.ndarray:
    """F|j> = d^{-1/2} sum_k chi(jk) |k>."""
    return _dft_matrix(d, 1) / np.sqrt(d)


def phase_gate(d: int) -> np.ndarray:
    """diag(chi(2^{-1} j (j-1))) for odd d; diag(1, i) for d = 2."""
    if d == 2:
        return np.diag([1.0, 1j]).astype(complex)
    inv2 = field_inv(2, d)
    j = np.arange(d)
    return np.diag(chi(inv2 * j * (j - 1), d))


def multiplier_gate(a: int, d: int) -> np.ndarray:
    """M_a |j> = |a j mod d>, a invertible mod d."""
    a = int(a) % d
    field_inv(a, d)  # raises on a = 0; any nonzero a is invertible mod prime
    M = np.zeros((d, d), dtype=complex)
    M[(a * np.arange(d)) % d, np.arange(d)] = 1.0
    return M


def cnot_gate(d: int) -> np.ndarray:
    """Two-qudit entangler: the key unitary for G = [[1, 0], [1, 1]].

    For d = 2 this is CNOT with control on the second qubit.
    """
    return key_unitary([[1, 0], [1, 1]], 1, d)


def t_gate() -> np.ndarray:
    """The qubit T gate diag(1, e^{i pi/4}) (not Clifford)."""
    return np.diag([1.0, np.exp(1j * np.pi / 4)]).astype(complex)


def key_index_map(G, d: int, n: int):
    """The basis permutation of the key unitary: U^dag |x>|j> = |A[x, j]>|B[x, j]>.

    A[x, j] = enc(g00 x + g10 j) and B[x, j] = enc(g01 x + g11 j), taken
    digit by digit mod d, for register indices x, j < d^n.  G is a 2x2
    integer array; its invertibility is not checked here.
    """
    g = np.asarray(G, dtype=np.int64) % d
    dig = digit_table(d, n)
    a = encode_digits((g[0, 0] * dig[:, None, :] + g[1, 0] * dig[None, :, :]) % d, d)
    b = encode_digits((g[0, 1] * dig[:, None, :] + g[1, 1] * dig[None, :, :]) % d, d)
    return a, b


def key_unitary(G, n: int, d: int) -> np.ndarray:
    """The key unitary U for parameter matrix G, on 2n qudits.

    U maps |i>|j> to |N g11 i - N g10 j> |-N g01 i + N g00 j> per site,
    with N = (det G)^{-1}: a permutation of the d^{2n} basis states,
    scattered from ``key_index_map`` as U[x D + j, A[x, j] D + B[x, j]] = 1.
    """
    g = np.array(G, dtype=np.int64) % d
    if int(g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]) % d == 0:
        raise SingularGError(f"G = {g.tolist()} is singular mod {d}")
    D = d**n
    A, B = key_index_map(g, d, n)
    U = np.zeros((D * D, D * D), dtype=complex)
    U[np.arange(D * D), (A * D + B).reshape(-1)] = 1.0
    return U


def is_clifford(U: np.ndarray, d: int, n: int) -> bool:
    """True iff U maps every Weyl generator to a Weyl operator up to phase."""
    if not is_unitary(U):
        raise NotUnitaryError("is_clifford requires a unitary input")
    Udag = U.conj().T
    # row k < n is Z on site k, w(e_k, 0); row n + k is X on site k, w(0, e_k)
    for point in np.eye(2 * n, dtype=np.int64):
        if is_weyl_up_to_phase(U @ weyl_operator(point, d) @ Udag, d, n) is None:
            return False
    return True


def random_clifford(n: int, d: int, word_length: int, seed) -> np.ndarray:
    """Product of word_length random Clifford generators (seeded).

    Generators: Fourier, phase gate, multiplier, Weyl operators, and the
    two-qudit entangler when n >= 2.
    """
    check_prime(d)
    rng = np.random.default_rng(seed)
    D = d**n
    U = np.eye(D, dtype=complex)
    kinds = ["fourier", "phase", "weyl"]
    if d > 2:
        kinds.append("mult")
    if n >= 2:
        kinds.append("cnot")
    for _ in range(word_length):
        kind = kinds[rng.integers(len(kinds))]
        if kind == "fourier":
            U = apply_site_gate(U, fourier_gate(d), [rng.integers(n)], d, n)
        elif kind == "phase":
            U = apply_site_gate(U, phase_gate(d), [rng.integers(n)], d, n)
        elif kind == "mult":
            a = int(rng.integers(2, d))
            U = apply_site_gate(U, multiplier_gate(a, d), [rng.integers(n)], d, n)
        elif kind == "weyl":
            U = weyl_operator(rng.integers(0, d, size=2 * n), d) @ U
        else:
            U = apply_site_gate(U, cnot_gate(d), rng.choice(n, size=2, replace=False), d, n)
    return U
