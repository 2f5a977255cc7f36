"""Channel constructions, the Choi action and its Weyl images, subgroup predicates,
Weyl commutation phases, w at unreduced labels, the reference Weyl transforms, a
point-by-point threshold reading, MSPS-ness by matrices, a decimal subentropy,
Hermitization, the dense dephasing route of Fisher information, and the
row-by-row forms of the stabilizer layer (row reduction, group elements, MSPS
tables), kept for the tests only."""

import cmath
import decimal
import math

import numpy as np

from qps.channels import Channel, choi_from_kraus
from qps.config import DEFAULT, PHASE_RESIDUAL
from qps.entropy import renyi_relative
from qps.errors import InternalInconsistencyError
from qps.phase_space import PhaseSubgroup, field_inv, symplectic_inner
from qps.mean_magic import mean_state, read_thresholds
from qps.states import State, _pq, char_function, make_state
from qps.weyl import (
    _dft_matrix,
    chi,
    conjugate_site_gate,
    digit_table,
    fourier_gate,
    weyl_coefficient_table,
    weyl_operator,
    weyl_phase_exponents,
    xmat,
    zmat,
)


def identity_channel(d: int, n: int) -> Channel:
    return choi_from_kraus([np.eye(d**n)], d, n)


def channel_apply(channel: Channel, rho: State) -> State:
    """Λ(rho) = d^n Tr_A[J (rho^T ⊗ I)]."""
    D = channel.dim
    t = channel.choi.mat.reshape(D, D, D, D)
    out = D * np.einsum("iI,ioIO->oO", rho.mat, t)
    return make_state(out, channel.d, channel.n)


def weyl_image_char_values_dense(channel: Channel) -> np.ndarray:
    """Tr[Λ(w(x)) w(-y)] / d^n indexed [x, y], with each Λ(w(x)) formed from the
    Choi tensor and transformed: the oracle for ``channels.weyl_image_char_values``."""
    d, n = channel.d, channel.n
    D = d**n
    t = channel.choi.mat.reshape(D, D, D, D)
    out = np.empty((d,) * (4 * n), dtype=complex)
    for x in np.ndindex(*((d,) * (2 * n))):
        img = D * np.einsum("iI,ioIO->oO", weyl_operator(x, d), t)  # Λ(w) via the Choi formula
        out[x] = weyl_coefficient_table(img, d, n) / D
    return out


def random_mixed_unitary_channel(n: int, d: int, seed, terms: int = 3) -> Channel:
    """Seeded random mixture of unitary conjugations."""
    rng = np.random.default_rng(seed)
    D = d**n
    weights = rng.dirichlet(np.ones(terms))
    kraus = []
    for w in weights:
        u, _ = np.linalg.qr(rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D)))
        kraus.append(math.sqrt(w) * u)
    return choi_from_kraus(kraus, d, n)


def is_isotropic(group: PhaseSubgroup) -> bool:
    """True when the symplectic form vanishes on every pair of elements."""
    e = group.elements
    return not symplectic_inner(e[:, None], e[None], group.d).any()


def group_contains(group: PhaseSubgroup, point) -> bool:
    """True when the point [p | q] (reduced mod d) is an element of the group."""
    v = np.asarray(point, dtype=np.int64) % group.d
    return v.shape == (2 * group.n,) and bool((group.elements == v).all(axis=1).any())


def commutation_phase(x, y, d: int) -> complex:
    """The scalar c in w(x) w(y) = c * w(x + y) for points x, y.

    Odd d: chi(2^{-1} <x,y>_s); d = 2: i to the integer symplectic
    product, with w(x + y) read literally at the unreduced label.  That
    power of i depends on the product mod 4 only.
    """
    if d == 2:
        return 1j ** symplectic_inner(x, y, 4)
    return complex(chi(field_inv(2, d) * symplectic_inner(x, y, d), d))


def weyl_literal(p_ints, q_ints, d: int) -> np.ndarray:
    """w at unreduced integer labels, following the defining formula: the oracle
    for the unreduced-label form of w that ``verify._commutation_worst`` takes.

    For odd d this equals weyl_operator at the reduced label, and its phase
    is read from ``weyl_phase_exponents``.  For d = 2 the phase i^{-pq} uses
    the integer products, so e.g. the label (1, 2) gives -Z rather than Z;
    the commutation relation holds in this form.
    """
    out = np.array([[1.0 + 0j]])
    Z, X = zmat(d), xmat(d)
    roots, e = weyl_phase_exponents(d, 1)
    for pk, qk in zip(np.atleast_1d(p_ints), np.atleast_1d(q_ints)):
        pk, qk = int(pk), int(qk)
        if d == 2:
            phase = (-1j) ** (pk * qk)
        else:
            phase = roots[e[pk % d, qk % d]]
        site = phase * (
            np.linalg.matrix_power(Z, pk % d) @ np.linalg.matrix_power(X, qk % d)
        )
        out = np.kron(out, site)
    return out


# The Weyl transforms as plain numpy expressions over a complex phase grid
# and int64 index tables; ``weyl`` must match them bit for bit.  Every
# array is bound to a name before it enters a product, so numpy cannot
# reuse a temporary operand as the output and swap the operands.

def reference_phase_grid(d: int, n: int) -> np.ndarray:
    dig = digit_table(d, n)
    pq_sum = (dig @ dig.T).reshape((d,) * (2 * n))
    if d == 2:
        return np.asarray((-1j) ** pq_sum, dtype=complex)
    return np.asarray(chi(-field_inv(2, d) * pq_sum, d), dtype=complex)


def reference_stripe_index(d: int, n: int, sign: int) -> np.ndarray:
    dig = digit_table(d, n)
    radix = d ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return ((dig[:, None, :] + sign * dig[None, :, :]) % d) @ radix


def reference_dft_p_axes(a: np.ndarray, d: int, n: int, sign: int) -> np.ndarray:
    F = _dft_matrix(d, sign)
    out = a
    for k in range(n):
        out = np.matmul(F, out.reshape(d**k, d, -1))
    return out.reshape((d,) * (2 * n))


def reference_coefficient_table(mat: np.ndarray, d: int, n: int) -> np.ndarray:
    D = d**n
    stripes = mat[reference_stripe_index(d, n, 1), np.arange(D)[:, None]]
    grid = reference_phase_grid(d, n)
    transformed = reference_dft_p_axes(stripes, d, n, -1)
    return grid * transformed


def reference_matrix_from_table(table: np.ndarray, d: int, n: int) -> np.ndarray:
    D = d**n
    grid = reference_phase_grid(d, n)
    a = np.asarray(table, dtype=complex) * grid
    b = reference_dft_p_axes(a, d, n, 1).reshape(D, D)
    return b[np.arange(D)[:, None], reference_stripe_index(d, n, -1)] / D


def threshold_reading_by_points(xi: np.ndarray, tol):
    """What ``mean_magic.read_thresholds`` reads off xi, one point at a time: the oracle.

    Returns (S, phases, zero_mean, support, second_max): S and the support as
    sets of index tuples; phases maps each x in S to the k with
    |Xi(x) - chi(k)| <= PHASE_RESIDUAL, or to None when there is none.
    Raises InternalInconsistencyError when S is not closed under addition
    mod d or misses 0.  Each |Xi(x)| is numpy's, as in the array pass.
    """
    d = xi.shape[0]
    S, support, below = set(), set(), []
    for x in np.ndindex(xi.shape):
        mag = float(np.abs(xi[x]))
        if mag >= 1 - tol.tol_one:
            S.add(x)
        if mag > tol.tol_supp:
            support.add(x)
            if mag < 1 - tol.tol_one:
                below.append(mag)
    closed = all(tuple((a + b) % d for a, b in zip(x, y)) in S for x in S for y in S)
    if (0,) * xi.ndim not in S or not closed:
        raise InternalInconsistencyError("the unit-modulus set is not a group")
    phases = {}
    for x in S:
        value = complex(xi[x])
        k = round(d * cmath.phase(value) / (2 * math.pi)) % d
        near = abs(value - cmath.exp(2j * math.pi * k / d)) <= PHASE_RESIDUAL
        phases[x] = k if near else None
    zero_mean = all(abs(complex(xi[x]) - 1) < PHASE_RESIDUAL for x in S)
    return S, phases, zero_mean, support, max(below) if below else None


def msps_group_by_matrix(state: State, tol=DEFAULT):
    """The group S of rho when rho is an MSPS, else None, by building M(rho) as a
    State and comparing entries at 1e-9: the oracle for ``mean_magic.msps_group``."""
    reading = read_thresholds(char_function(state), tol)
    if reading.second_max is None and (
            np.abs(mean_state(state, tol).mean.mat - state.mat).max() <= 1e-9):
        return reading.group
    return None


def subentropy_lagrange(spec) -> float:
    """-sum_i l_i^D log2(l_i) / prod_{j != i}(l_i - l_j) over a spectrum of distinct
    positive values, in ``decimal`` at 40 + 12 D digits: the oracle for
    ``entropy.subentropy`` (the sum cancels to about D^2 of those digits)."""
    D = len(spec)
    with decimal.localcontext() as ctx:
        ctx.prec = 40 + 12 * D
        lam = [decimal.Decimal(float(x)) for x in spec]
        total = decimal.Decimal(0)
        for i, li in enumerate(lam):
            den = decimal.Decimal(1)
            for j, lj in enumerate(lam):
                if j != i:
                    den *= li - lj
            total += li**D * li.ln() / den
        return float(-total / decimal.Decimal(2).ln())


def hermitize(mat: np.ndarray) -> np.ndarray:
    """(mat + mat^dag) / 2, bit for bit as ``make_state`` Hermitizes."""
    return (mat + np.conj(mat.T)) / 2


# The dense dephasing route of Fisher information: the oracle for the
# characteristic-table masks of ``qps.fisher``.

def site_basis(axis: str, d: int) -> np.ndarray:
    """Columns = the rank-1 eigenbasis of the site operator (Z or X)."""
    if axis == "Z":
        return np.eye(d, dtype=complex)
    # |j>_X = d^{-1/2} sum_k chi(-jk) |k> = F^dag |j>
    return fourier_gate(d).conj().T


def site_shape(d: int, n: int, site: int) -> tuple:
    """The register index split as (sites before, this site, sites after)."""
    return (d**site, d, d ** (n - site - 1))


def dephase_mat(mat: np.ndarray, d: int, n: int, axis: str, site: int) -> np.ndarray:
    """sum_j P_j mat P_j for the site projectors P_j of ``site_basis(axis)``.

    In the site basis B the entries whose row and column digits differ at
    the site are zeroed.  On axis Z, B is the identity and this mask is the
    whole map; on axis X, mat is conjugated into B first (B^dag mat B by
    ``conjugate_site_gate``) and back by B after.
    """
    basis = site_basis(axis, d)
    if axis == "X":
        mat = conjugate_site_gate(mat, basis.conj().T, [site], d, n)
    t = mat.reshape(site_shape(d, n, site) * 2) * np.eye(d)[None, :, None, None, :, None]
    t = t.reshape(mat.shape)
    return conjugate_site_gate(t, basis, [site], d, n) if axis == "X" else t


def liouvillean_dense(mat: np.ndarray, d: int, n: int) -> np.ndarray:
    """-n mat + (1/2) sum_k (Delta_{X_k} mat + Delta_{Z_k} mat) by dense dephasings."""
    out = -n * np.asarray(mat, dtype=complex)
    for site in range(n):
        for axis in ("X", "Z"):
            out += 0.5 * dephase_mat(mat, d, n, axis, site)
    return out


def fisher_total_dephasing(state: State) -> float:
    """2 sum [D(rho || Delta rho) + D(Delta rho || rho)] over every site and both axes,
    Delta by ``dephase_mat``: the oracle for ``fisher.fisher_total``."""
    total = 0.0
    for site in range(state.n):
        for axis in ("X", "Z"):
            deph = make_state(dephase_mat(state.mat, state.d, state.n, axis, site),
                              state.d, state.n)
            total += 2.0 * (renyi_relative(state, deph, 1) + renyi_relative(deph, state, 1))
    return total


def rref_mod_by_rows(A, d: int):
    """``phase_space.rref_mod`` one row at a time: the pivot search and each
    elimination a Python loop over rows."""
    A = np.array(A, dtype=np.int64) % d
    rows, cols = A.shape
    pivots = []
    r = 0
    for c in range(cols):
        pr = None
        for i in range(r, rows):
            if A[i, c] % d:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            A[[r, pr]] = A[[pr, r]]
        A[r] = (A[r] * field_inv(int(A[r, c]), d)) % d
        for i in range(rows):
            if i != r and A[i, c]:
                A[i] = (A[i] - A[i, c] * A[r]) % d
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return A, pivots


def group_elements_by_loop(generators: np.ndarray, d: int) -> np.ndarray:
    """The span of the generators, one generator at a time, then lexsorted."""
    elements = np.zeros((1, generators.shape[1]), dtype=np.int64)
    for b in generators:
        elements = ((elements[:, None, :] + np.arange(d)[:, None] * b) % d).reshape(
            -1, generators.shape[1])
    return elements[np.lexsort(elements.T[::-1])]


def msps_char_by_loop(group: PhaseSubgroup, chars) -> np.ndarray:
    """One row of ``states.msps_tables``: the table of one character tuple (one
    entry per generator), built generator by generator."""
    d, n = group.d, group.n
    if len(chars) != group.rank:
        raise ValueError(f"{len(chars)} characters for a group of rank {group.rank}")
    m = np.arange(d)
    points = np.zeros((1, 2 * n), dtype=np.int64)
    vals = np.ones(1, dtype=complex)
    for gen, k in zip(group.generators, chars):
        s, x = points[:, None], m[:, None] * gen % d
        t = (s + x) % d
        phase = chi(-int(k) * m, d)
        if d == 2:
            e = _pq(t) - _pq(s) - _pq(x) + 2 * (s[..., n:] * x[..., :n]).sum(axis=-1)
            phase = phase * np.array([1, 1j, -1, -1j])[e % 4]
        vals = (vals[:, None] * phase).reshape(-1)
        points = t.reshape(-1, 2 * n)
    table = np.zeros((d,) * (2 * n), dtype=complex)
    table[tuple(points.T)] = vals
    return table
