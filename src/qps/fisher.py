"""Divergence-based Fisher information, dephasing, heat semigroup, de Bruijn.

J(rho; H) = Tr[rho [H, [H, log rho]]] with base-2 logarithms, so the de
Bruijn identity dH/dt = J/4 holds with the package-wide entropy
convention.  Every map here other than ``fisher_single`` is diagonal in
the Weyl basis and acts on the characteristic table Xi through one helper,
``_coordinate_weight``: the number of nonzero coordinates of x = [p | q].
Dephasing a site keeps Xi where one coordinate is 0; the Liouvillean
L = -n + (1/2) sum_k (Delta_{X_k} + Delta_{Z_k}) multiplies Xi(x) by
-|x|/2, with |x| the weight over all 2n coordinates; the heat semigroup
e^{tL} by exp(-|x| t / 2).  ``fisher_total`` is the weighted Parseval sum
J(rho) = -4 Tr[L(rho) log2 rho] = (2/D) sum_x |x| Re[Xi_rho(x) conj(Xi_log(x))].
The dense route, which conjugates by site gates and sums the relative
entropies to the dephased states, lives in ``tests/helpers.py`` as the
oracle these are compared with.  Rank-deficient states are rejected
rather than silently regularized (use smooth()).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral

import numpy as np

from .config import TOL_SPEC
from .convolution import as_param_matrix, bounding_inputs, convolve
from .errors import (
    IncompatibleError,
    NegativeTimeError,
    SingularStateError,
)
from .states import State, char_function, make_state, maximally_mixed, state_from_char
from .weyl import matrix_from_weyl_table, weyl_coefficient_table


def smooth(state: State, eta: float) -> State:
    """(1 - eta) rho + eta I/d^n; the caller owns reporting eta."""
    mixed = maximally_mixed(state.d, state.n)
    return make_state((1 - eta) * state.mat + eta * mixed.mat, state.d, state.n)


def _coordinate_weight(d: int, n: int, coords) -> np.ndarray:
    """How many of the coordinates ``coords`` of x = [p | q] are nonzero, for every x.

    The result broadcasts against a (d,)*2n table: it has length d along
    each axis in ``coords`` and length 1 along the others.  Over all 2n
    coordinates it is the weight |x| (``weyl_weight_grid``); over one
    coordinate c, the points where it is 0 are those that dephasing keeps.
    """
    out = np.zeros((1,) * (2 * n), dtype=np.int64)
    for c in coords:
        shape = [1] * (2 * n)
        shape[c] = d
        out = out + (np.arange(d) != 0).reshape(shape)
    return out


@lru_cache(maxsize=None)
def weyl_weight_grid(d: int, n: int) -> np.ndarray:
    """|x|, the number of nonzero coordinates of x = [p | q], shape (d,)*2n."""
    w = _coordinate_weight(d, n, range(2 * n))
    w.setflags(write=False)
    return w


def dephase(state: State, axis: str, site: int = 0) -> State:
    """The completely dephasing channel Delta_R in the X or Z basis of one site.

    Z-dephasing of site k keeps Xi(x) where q_k = 0 and X-dephasing keeps it
    where p_k = 0; every other characteristic value is set to 0.
    """
    if axis not in ("X", "Z"):
        raise IncompatibleError(f"axis must be 'X' or 'Z', got {axis!r}")
    if not isinstance(site, Integral) or not 0 <= site < state.n:
        raise IncompatibleError(f"site must be one of 0..{state.n - 1}, got {site!r}")
    coord = site if axis == "X" else state.n + site
    keep = _coordinate_weight(state.d, state.n, [coord]) == 0
    return state_from_char(char_function(state) * keep)


def _log_state(state: State) -> np.ndarray:
    """log2(rho) from the cached eigendecomposition; errors below the spectrum floor."""
    vals, vecs = state.eigh
    if vals.min() <= TOL_SPEC:
        raise SingularStateError(
            f"state has eigenvalue {vals.min():.2e} at/below the floor; smooth() it first"
        )
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


def fisher_total(state: State) -> float:
    """Total Fisher information J(rho) = -4 Tr[L(rho) log2 rho], L the Liouvillean.

    This is J(rho; P) summed over the 2 n d site projectors P.  L is
    diagonal in the Weyl basis with eigenvalue -|x|/2, so by Parseval
    J(rho) = (2/D) sum_x |x| Re[Xi_rho(x) conj(Xi_log(x))], with Xi_log
    the table of log2 rho built from the cached eigendecomposition (one
    D^3 product and one transform).  A multiple of I added to log2 rho
    moves only Xi_log(0), where the weight |0| is 0.
    """
    d, n = state.d, state.n
    xi_log = weyl_coefficient_table(_log_state(state), d, n)
    overlap = (char_function(state) * xi_log.conj()).real
    return 2.0 * float(np.vdot(weyl_weight_grid(d, n), overlap)) / d**n


def _semigroup_values(table: np.ndarray, t: float) -> np.ndarray:
    damp = np.exp(-0.5 * weyl_weight_grid(table.shape[0], table.ndim // 2) * t)
    return table * damp


def heat_semigroup(state: State, t: float) -> State:
    """e^{tL} rho: the characteristic value at x decays as exp(-|x| t / 2)."""
    if t < 0:
        raise NegativeTimeError("the heat semigroup is defined for t >= 0")
    return state_from_char(_semigroup_values(char_function(state), t))


def liouvillean(mat: np.ndarray, d: int, n: int) -> np.ndarray:
    """L(A) = -n A + (1/2) sum_k (Delta_{X_k} A + Delta_{Z_k} A).

    L multiplies the Weyl coefficient of A at x by -|x|/2.
    """
    table = weyl_coefficient_table(np.asarray(mat, dtype=complex), d, n)
    return matrix_from_weyl_table(-0.5 * weyl_weight_grid(d, n) * table, d, n)


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
