"""Choi-based channels: convolution, mean channel, entropy proxy, channel CLT.

Channels are stored Choi-first: J = (id ⊗ Λ)|Φ><Φ| on 2n qudits with
Tr_{A'}[J] = I/d^n.  Channel convolution is state convolution of Choi
states; the exact formula E ∘ (Λ1 ⊗ Λ2) ∘ E^{-1} is kept as
``_convolve_channels_exact``, the independent oracle that ``qps verify``
and the tests compare against.
It applies E and E^{-1} through the key unitary's basis permutation
(``weyl.key_index_map``) inside one gather; neither is a function here.
Channel Renyi entropy is evaluated on the Choi proxy H_alpha(J) - n log d.
The channel CLT is ``convolution.clt_trajectory`` of the Choi state, shifted
to zero mean by a point [p | q] of V^{2n}; each table after Ξ_J is rebuilt
by ``states.state_from_char`` and checked once, by ``channel_from_choi``.
The Weyl images Λ(w(x)) are one gather of Ξ_J.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT, Tolerances
from .convolution import as_param_matrix, clt_trajectory, convolve
from .errors import (
    IncompatibleError,
    NotTracePreservingError,
    TooLargeError,
    UnsupportedGError,
)
from .mean_magic import is_zero_mean, mean_state, zero_mean_shift
from .states import State, char_function, make_state, maximally_mixed, state_from_char
from .weyl import digit_table, encode_digits, key_index_map, weyl_operator

# Largest D = d^n at which ``_convolve_channels_exact`` runs.  Its cost grows as
# D^6: about 0.3 s and 100 MB per call at D = 16, but 7.9 s and 132 MB at D = 25.
EXACT_MAX_DIM = 16


@dataclass(frozen=True, eq=False)
class Channel:
    """An n-qudit channel represented by its Choi state."""

    d: int
    n: int
    choi: State
    kraus: tuple = ()

    @property
    def dim(self) -> int:
        return self.d**self.n


def choi_marginal_gap(choi: State) -> float:
    """max |Tr_out[J] - I/d^n| over the entries, for a Choi state J on 2n qudits."""
    D = choi.d ** (choi.n // 2)
    marg = np.einsum("ajbj->ab", choi.mat.reshape(D, D, D, D))
    return float(np.abs(marg - np.eye(D) / D).max())


def channel_from_choi(choi: State, kraus: tuple = ()) -> Channel:
    if choi.n % 2 != 0:
        raise IncompatibleError("a Choi state lives on 2n qudits")
    if choi_marginal_gap(choi) > 1e-9:
        raise NotTracePreservingError("Choi marginal Tr_out[J] is not I/d^n")
    return Channel(d=choi.d, n=choi.n // 2, choi=choi, kraus=tuple(kraus))


def choi_from_kraus(kraus, d: int, n: int) -> Channel:
    """J = sum_K (I ⊗ K) |Φ><Φ| (I ⊗ K)^dag; completeness checked."""
    D = d**n
    ks = [np.asarray(k, dtype=complex) for k in kraus]
    comp = sum(k.conj().T @ k for k in ks)
    if np.abs(comp - np.eye(D)).max() > 1e-9:
        raise NotTracePreservingError("Kraus operators do not sum to the identity")
    J = np.zeros((D * D, D * D), dtype=complex)
    for k in ks:
        # (I ⊗ K)|Φ> as a D x D matrix over (row, out) indices: K^T / sqrt(D)
        v = (k.T / math.sqrt(D)).reshape(-1)
        J += np.outer(v, v.conj())
    choi = make_state(J, d, 2 * n)
    return channel_from_choi(choi, kraus=tuple(ks))


def depolarizing_channel(d: int, n: int) -> Channel:
    """The completely depolarizing R(rho) = Tr[rho] I/d^n; Choi = I/d^2n."""
    choi = maximally_mixed(d, 2 * n)
    return channel_from_choi(choi)


def unitary_channel(U: np.ndarray, d: int, n: int) -> Channel:
    return choi_from_kraus([U], d, n)


def weyl_conjugation_channel(point, d: int) -> Channel:
    """rho -> w(x) rho w(x)^dag for the point x = [p | q] of V^n."""
    return unitary_channel(weyl_operator(point, d), d, len(point) // 2)


def convolve_channels(ch1: Channel, ch2: Channel, params) -> Channel:
    """Channel convolution Λ1 ⊠ Λ2 by the Choi route.

    The Choi state of Λ1 ⊠ Λ2 is J1 ⊠ J2 (state convolution on 2n
    qudits).  G must be nontrivial so the result is again a Choi state.
    """
    if (ch1.d, ch1.n) != (ch2.d, ch2.n):
        raise IncompatibleError("channels live on different systems")
    pm = as_param_matrix(params, ch1.d)
    if not pm.nontrivial:
        raise UnsupportedGError("channel convolution needs a nontrivial G")
    return channel_from_choi(convolve(ch1.choi, ch2.choi, pm))


def _check_exact_dim(d: int, n: int) -> None:
    """Raise TooLargeError when D = d^n is past the exact oracle's cap ``EXACT_MAX_DIM``."""
    if d**n > EXACT_MAX_DIM:
        raise TooLargeError(
            f"the exact channel oracle needs D = {d}^{n} <= {EXACT_MAX_DIM}; its cost grows as D^6"
        )


def _convolve_channels_exact(ch1: Channel, ch2: Channel, pm) -> Channel:
    """Choi state of E ∘ (Λ1 ⊗ Λ2) ∘ E^{-1}, from the key unitary's index map alone.

    U^dag sends |i>|m> to |A[i, m]>|B[i, m]> with A, B from
    ``weyl.key_index_map``, so E^{-1}(|i><j|) = (1/D) sum_m |A_im B_im><A_jm B_jm|
    and E is the partial trace over the same map.  With the Choi tensors
    t[a, o, a', o'], the Choi matrix of the convolution is

        J[i, x, j, y] = sum_{k, m} t1[A_im, A_xk, A_jm, A_yk] t2[B_im, B_xk, B_jm, B_yk],

    one gather-and-sum over D^5 entries per k.  The factors 1/D of E^{-1},
    D^2 of the two Choi actions and 1/D of the Choi normalization are
    applied in that order.  No characteristic table is used, so this stays
    independent of the duality route that ``convolve_channels`` takes.
    Raises TooLargeError when D exceeds ``EXACT_MAX_DIM``.
    """
    d, n = ch1.d, ch1.n
    D = d**n
    _check_exact_dim(d, n)
    A, B = key_index_map(pm.as_array(), d, n)
    t1 = ch1.choi.mat.reshape(-1)
    t2 = ch2.choi.mat.reshape(-1)
    # flat offset of t[a, o, a', o'] is a D^3 + o D^2 + a' D + o'
    in1 = (A[:, None, :] * D**3 + A[None, :, :] * D)[:, None, :, None, :]
    in2 = (B[:, None, :] * D**3 + B[None, :, :] * D)[:, None, :, None, :]
    J = np.zeros((D, D, D, D), dtype=complex)
    for k in range(D):
        out1 = (A[:, None, k] * D**2 + A[None, :, k])[None, :, None, :, None]
        out2 = (B[:, None, k] * D**2 + B[None, :, k])[None, :, None, :, None]
        g1 = t1[in1 + out1] / D
        g2 = t2[in2 + out2]
        J += D * D * (g1 * g2).sum(axis=-1)
    choi = make_state((J / D).reshape(D * D, D * D), d, 2 * n)
    return channel_from_choi(choi)


def mean_channel(channel: Channel, tol: Tolerances = DEFAULT) -> Channel:
    """The channel whose Choi state is M(J); always a stabilizer channel."""
    mean = mean_state(channel.choi, tol).mean
    return channel_from_choi(mean)


def channel_entropy(channel: Channel, alpha) -> float:
    """Choi-proxy Renyi entropy H_alpha(J) - n log d."""
    from .entropy import renyi_entropy

    return renyi_entropy(channel.choi, alpha) - channel.n * math.log2(channel.d)


def is_zero_mean_channel(channel: Channel, tol: Tolerances = DEFAULT) -> bool:
    """True iff the Choi state has zero mean.  At odd d that holds iff every value of
    ``weyl_image_char_values`` is 0 or 1; at d = 2 it need not (see there)."""
    return is_zero_mean(channel.choi, tol)


def zero_mean_channel_shift(channel: Channel, tol: Tolerances = DEFAULT):
    """The shift, a point of the Choi state's V^{2n}, and the shifted channel with zero mean."""
    shift, shifted = zero_mean_shift(channel.choi, tol)
    return shift, channel_from_choi(shifted)


def weyl_image_char_values(channel: Channel) -> np.ndarray:
    """Tr[Λ(w(x)) w(-y)] / d^n for all points x, y of V^n, a (d,)*4n array [x, y].

    Λ(w(x)) = d^n Tr_in[J (w(x)^T ⊗ I)] and w(p, -q)^T = w(p, q) at odd d, so
    the value at x = [p | q] is Ξ_J at input coordinates (-p, q) and output
    coordinates y; at d = 2, w(p, q)^T = (-1)^{p.q} w(p, q) adds that sign.
    At odd d the channel has zero mean iff every value is 0 or 1.  At d = 2
    the sign breaks that: every value of the identity channel is 0 or 1,
    yet Xi_J = -1 where p.q is odd, so it does not have zero mean.
    """
    d, n = channel.d, channel.n
    D = d**n
    digits = digit_table(d, n)
    xi = char_function(channel.choi).reshape(D, D, D, D)  # [p_in, p_out, q_in, q_out]
    vals = xi[encode_digits(-digits % d, d)].transpose(0, 2, 1, 3)
    if d == 2:
        vals = vals * (-1.0) ** (digits @ digits.T)[:, :, None, None]
    return vals.reshape((d,) * (4 * n))


@dataclass(frozen=True)
class ChannelCltRow:
    step: int
    distance: float
    bound: float
    diamond_bound: float


@dataclass(frozen=True, eq=False)
class ChannelCltReport:
    rows: tuple
    magic_gap: float
    shifted: bool
    shift: np.ndarray
    ok: bool


def channel_clt(channel: Channel, params, N: int, tol: Tolerances = DEFAULT) -> ChannelCltReport:
    """Choi 2-norm trajectory of ⊠^N Λ against the (1 - MG)^N bound.

    params is the G of the convolution.  The shift to zero mean (``shift``,
    a point of V^{2n}; ``shifted`` says whether it is non-zero), the rows and
    the magic gap come from ``convolution.clt_trajectory`` of the Choi state.
    Every table but Ξ_J, the shifted one and each later power, is checked once
    as a Choi state, by ``channel_from_choi(state_from_char(xi))``.
    Each step asserts distance <= bound + 1e-9; the diamond column is d^{2n} x bound.
    """
    shift, gap, powers = clt_trajectory(channel.choi, params, N, tol)
    shifted = bool(shift.any())
    rows = []
    for k, (xi, dist, bound) in enumerate(powers):
        if k or shifted:  # NotStateError or NotTracePreservingError unless a Choi state
            channel_from_choi(state_from_char(xi))
        rows.append(ChannelCltRow(step=k, distance=dist, bound=bound,
                                  diamond_bound=channel.d ** (2 * channel.n) * bound))
    return ChannelCltReport(
        rows=tuple(rows),
        magic_gap=gap,
        shifted=shifted,
        shift=shift,
        ok=all(row.distance <= row.bound + 1e-9 for row in rows),
    )


@dataclass(frozen=True)
class UnitaryMinEntropyReport:
    matched_max: float
    generic_min: float
    absorb_gap: float
    ok: bool


def check_unitary_min_entropy(params, d: int, n: int = 1, seed=0, pairs: int = 5):
    """Minimal channel entropy -n log d exactly for matched Clifford pairs.

    Weyl-conjugation pairs satisfy the matched-image condition for any
    nontrivial G, so their convolution is unitary with proxy entropy
    -n log d; Haar-generic unitary pairs must land strictly above.  Also
    checks the absorbing identity Λ ⊠ R = R (entropy n log d) on the
    parity side G supports.
    """
    pm = as_param_matrix(params, d)
    rng = np.random.default_rng(seed)
    target = -n * math.log2(d)
    matched_max = -math.inf
    generic_min = math.inf
    for _ in range(pairs):
        pt1 = rng.integers(0, d, 2 * n)
        pt2 = rng.integers(0, d, 2 * n)
        ch = convolve_channels(
            weyl_conjugation_channel(pt1, d), weyl_conjugation_channel(pt2, d), pm
        )
        matched_max = max(matched_max, channel_entropy(ch, 1))
        u1, _ = np.linalg.qr(rng.standard_normal((d**n, d**n)) + 1j * rng.standard_normal((d**n, d**n)))
        u2, _ = np.linalg.qr(rng.standard_normal((d**n, d**n)) + 1j * rng.standard_normal((d**n, d**n)))
        ch = convolve_channels(unitary_channel(u1, d, n), unitary_channel(u2, d, n), pm)
        generic_min = min(generic_min, channel_entropy(ch, 1))
    r = depolarizing_channel(d, n)
    some = weyl_conjugation_channel(rng.integers(0, d, 2 * n), d)
    if pm.odd_parity_positive:
        absorbed = convolve_channels(some, r, pm)
    else:
        absorbed = convolve_channels(r, some, pm)
    absorb_gap = abs(channel_entropy(absorbed, 1) - n * math.log2(d))
    ok = (
        abs(matched_max - target) <= 1e-8
        and generic_min > target + 1e-4
        and absorb_gap <= 1e-8
    )
    return UnitaryMinEntropyReport(
        matched_max=matched_max, generic_min=generic_min, absorb_gap=absorb_gap, ok=ok
    )


def random_channel(n: int, d: int, seed, n_kraus: int | None = None) -> Channel:
    """Seeded random channel from a Haar-ish isometry (Stinespring cut)."""
    D = d**n
    if n_kraus is None:
        n_kraus = D
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((D * n_kraus, D)) + 1j * rng.standard_normal((D * n_kraus, D))
    q, _ = np.linalg.qr(m)  # isometry D*n_kraus x D
    kraus = [q[k * D : (k + 1) * D, :] for k in range(n_kraus)]
    return choi_from_kraus(kraus, d, n)
