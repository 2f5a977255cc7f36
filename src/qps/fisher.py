"""Divergence-based Fisher information, dephasing, heat semigroup, de Bruijn.

J(rho; H) = Tr[rho [H, [H, log rho]]] with base-2 logarithms, so the de
Bruijn identity dH/dt = J/4 holds with the package-wide entropy
convention.  ``fisher_total`` evaluates the trace form
J(rho; P) = 2 Tr[P rho L] - 2 Tr[P rho P L] (L = log2 rho) over the site
projectors P from rho's cached eigendecomposition; the dephasing route
``_fisher_total_dephasing`` is the oracle the tests compare it with.
Rank-deficient states are rejected rather than silently regularized
(use smooth()).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import TOL_SPEC
from .convolution import as_param_matrix, bounding_inputs, convolve
from .errors import (
    IncompatibleError,
    NegativeTimeError,
    SingularStateError,
)
from .states import State, char_function, make_state, maximally_mixed, state_from_char
from .weyl import conjugate_site_gate, digit_table, fourier_gate


def smooth(state: State, eta: float) -> State:
    """(1 - eta) rho + eta I/d^n; the caller owns reporting eta."""
    mixed = maximally_mixed(state.d, state.n)
    return make_state((1 - eta) * state.mat + eta * mixed.mat, state.d, state.n)


def _site_basis(axis: str, d: int) -> np.ndarray:
    """Columns = the rank-1 eigenbasis of the site operator (Z or X)."""
    if axis == "Z":
        return np.eye(d, dtype=complex)
    if axis == "X":
        # |j>_X = d^{-1/2} sum_k chi(-jk) |k> = F^dag |j>
        return fourier_gate(d).conj().T
    raise IncompatibleError(f"axis must be 'X' or 'Z', got {axis!r}")


def _site_shape(d: int, n: int, site: int) -> tuple:
    """The register index split as (sites before, this site, sites after)."""
    return (d**site, d, d ** (n - site - 1))


def _dephase_mat(mat: np.ndarray, d: int, n: int, axis: str, site: int) -> np.ndarray:
    """sum_j P_j mat P_j for the site projectors P_j of ``_site_basis(axis)``.

    In the site basis B the entries whose row and column digits differ at
    the site are zeroed.  On axis Z, B is the identity and this mask is the
    whole map; on axis X, mat is conjugated into B first (B^dag mat B by
    ``conjugate_site_gate``) and back by B after.  No D x D embedding is built.
    """
    basis = _site_basis(axis, d)
    if axis == "X":
        mat = conjugate_site_gate(mat, basis.conj().T, [site], d, n)
    t = mat.reshape(_site_shape(d, n, site) * 2) * np.eye(d)[None, :, None, None, :, None]
    t = t.reshape(mat.shape)
    return conjugate_site_gate(t, basis, [site], d, n) if axis == "X" else t


def dephase(state: State, axis: str, site: int = 0) -> State:
    """The completely dephasing channel Delta_R in the X or Z site basis."""
    out = _dephase_mat(state.mat, state.d, state.n, axis, site)
    return make_state(out, state.d, state.n)


def _spectrum(state: State):
    """(eigenvalues, eigenvectors) of rho, cached on the State; errors below the spectrum floor."""
    vals, vecs = state.eigh
    if vals.min() <= TOL_SPEC:
        raise SingularStateError(
            f"state has eigenvalue {vals.min():.2e} at/below the floor; smooth() it first"
        )
    return vals, vecs


def _log_state(state: State) -> np.ndarray:
    """log2(rho) from the cached eigendecomposition; errors below the spectrum floor."""
    vals, vecs = _spectrum(state)
    return (vecs * np.log2(vals)) @ vecs.conj().T


def fisher_single(state: State, H: np.ndarray) -> float:
    """J(rho; H) = Tr[rho [H, [H, log rho]]], clamped real."""
    L = _log_state(state)
    inner = H @ L - L @ H
    outer = H @ inner - inner @ H
    val = np.trace(state.mat @ outer)
    if abs(val.imag) > 1e-9:
        raise SingularStateError(f"Fisher trace has imaginary part {val.imag:.2e}")
    return float(val.real)


def _fisher_total_dephasing(state: State) -> float:
    # 2 sum_k [ D(rho || Delta rho) + D(Delta rho || rho) ] over both axes
    from .entropy import renyi_relative

    total = 0.0
    for site in range(state.n):
        for axis in ("X", "Z"):
            deph = dephase(state, axis, site)
            total += 2.0 * (renyi_relative(state, deph, 1) + renyi_relative(deph, state, 1))
    return total


def _site_digit_pairs(mat: np.ndarray, d: int, n: int, site: int) -> np.ndarray:
    """mat as a (d^2, D^2/d^2) array whose rows are its (row, column) digit pairs at the site."""
    t = mat.reshape(_site_shape(d, n, site) * 2)
    return t.transpose(1, 4, 0, 2, 3, 5).reshape(d * d, -1)


@lru_cache(maxsize=None)
def _site_pair_rotation(d: int) -> np.ndarray:
    """R[(axis, m, m'), (j, j')] = conj(b_m[j]) b_m'[j'] for the X, then the Z, site basis {b_m}."""
    blocks = []
    for axis in ("X", "Z"):
        basis = _site_basis(axis, d)
        blocks.append(np.einsum("jm,kn->mnjk", basis.conj(), basis).reshape(d * d, d * d))
    rot = np.concatenate(blocks)
    rot.setflags(write=False)
    return rot


def fisher_total(state: State) -> float:
    """Total Fisher information: J(rho; P) summed over the 2 n d site projectors.

    For a projector P, [rho, L] = 0 with L = log2(rho) gives
    J(rho; P) = 2 Tr[P rho L] - 2 Tr[P rho P L].  The d projectors of one
    site and axis sum to I, so their total is 2 (Tr[rho L] - Tr[Delta(rho) L])
    with Delta the dephasing of that site in that basis: twice the sum of
    rho'_ik conj(L'_ik) over the index pairs (i, k) whose site digits
    differ, where ' denotes rotation into the site basis along the site
    axis.  Per site, the sums over the other digits,
    K[(j, j'), (k, k')] = sum rho[.j., .j'.] conj(L[.k., .k'.]), are one
    (d^2, D^2/d^2) product, and the rotation into both bases acts on K's
    d^2 x d^2 indices (``_site_pair_rotation``).  L costs one D^3 product
    on the cached eigendecomposition, and each site O(d^2 D^2).  Since
    Tr[rho - Delta(rho)] = 0, L may be shifted by any multiple of I; it
    is shifted by the mean of log2(lam), which keeps the sums from
    cancelling when rho is close to maximally mixed.
    """
    vals, vecs = _spectrum(state)
    logs = np.log2(vals)
    L = (vecs * (logs - logs.mean())) @ vecs.conj().T
    d, n = state.d, state.n
    rot = _site_pair_rotation(d)
    off_site = np.tile((1.0 - np.eye(d)).ravel(), 2)
    total = 0.0
    for site in range(n):
        k = _site_digit_pairs(state.mat, d, n, site) @ _site_digit_pairs(L, d, n, site).conj().T
        rotated = ((rot @ k) * rot.conj()).sum(axis=1)
        total += 2.0 * float(rotated.real @ off_site)
    return total


@lru_cache(maxsize=None)
def weyl_weight_grid(d: int, n: int) -> np.ndarray:
    """Number of nonzero coordinates of (p, q), shape (d,)*2n."""
    count = (digit_table(d, n) != 0).sum(axis=1)
    w = (count[:, None] + count[None, :]).reshape((d,) * (2 * n))
    w.setflags(write=False)
    return w


def _semigroup_values(table: np.ndarray, t: float) -> np.ndarray:
    damp = np.exp(-0.5 * weyl_weight_grid(table.shape[0], table.ndim // 2) * t)
    return table * damp


def heat_semigroup(state: State, t: float) -> State:
    """e^{tL} rho: the characteristic value at x decays as exp(-|x| t / 2)."""
    if t < 0:
        raise NegativeTimeError("the heat semigroup is defined for t >= 0")
    return state_from_char(_semigroup_values(char_function(state), t))


def liouvillean(mat: np.ndarray, d: int, n: int) -> np.ndarray:
    """L(A) = -n A + (1/2) sum_k (Delta_{X_k} A + Delta_{Z_k} A)."""
    out = -n * mat.astype(complex)
    for site in range(n):
        for axis in ("X", "Z"):
            out += 0.5 * _dephase_mat(mat, d, n, axis, site)
    return out


def de_bruijn_check(state: State, h: float = 1e-5) -> tuple[float, float]:
    """(dH/dt at t = 0 by central difference, J(rho)/4); base-2 entropy.

    The difference uses the semigroup at +-h; a full-rank input keeps the
    t = -h point a valid state for small h.  Its step error is O(h^2) times
    the third derivative of H, which grows with n: on the two inputs of
    ``qps verify --suite fisher --d 3 --n 5 --seeds 2``, h = 1e-4 leaves
    |lhs - rhs| up to 1.6e-3, past the 1e-3 that the check allows, and
    h = 1e-5 leaves at most 1.6e-5.
    """
    from .entropy import renyi_entropy

    rhs = fisher_total(state) / 4.0  # SingularStateError unless rho has full rank
    table = char_function(state)

    def entropy_at(t):
        return renyi_entropy(state_from_char(_semigroup_values(table, t), spectrum=True), 1)

    lhs = (entropy_at(+h) - entropy_at(-h)) / (2 * h)
    return float(lhs), float(rhs)


@dataclass(frozen=True)
class FisherConvolutionReport:
    j_out: float
    j_rho: float
    j_sigma: float
    bound: float
    slack: float
    ok: bool


def check_fisher_convolution(rho: State, sigma: State, params) -> FisherConvolutionReport:
    """J(rho ⊠ sigma) against the parity-matched bound, slack flagged at 1e-7."""
    pm = as_param_matrix(params, rho.d)
    if not pm.nontrivial:
        raise IncompatibleError("the Fisher inequality needs a nontrivial parity class")
    j_in = {"rho": fisher_total(rho), "sigma": fisher_total(sigma)}
    j_out = fisher_total(convolve(rho, sigma, pm))
    bound = min(j_in[tag] for tag in bounding_inputs(pm))
    slack = bound - j_out
    return FisherConvolutionReport(
        j_out=j_out, j_rho=j_in["rho"], j_sigma=j_in["sigma"], bound=bound, slack=slack,
        ok=slack >= -1e-7,
    )
