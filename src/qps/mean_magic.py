"""Mean states, zero-mean shifts, the magic gap, and MSPS extremality.

The mean state M(rho) keeps Xi_rho on the unit-modulus set S, where
|Xi| >= 1 - tol_one, snapped to the unit circle, and zeroes it elsewhere;
the magic gap is 1 minus the largest |Xi| below that on the support, where
|Xi| > tol_supp.  ``read_thresholds`` is the one reader of both thresholds:
one pass over |Xi| gives S as a ``PhaseSubgroup``, the phases on its
generators, the support and the second-largest |Xi|, and every reader of
these (here, ``clt_trajectory``, ``check_equality_case``, ``qps gap`` and
``io``'s char form) takes them from it; so do, with no State built, the
distances to M(rho), MSPS-ness and the table chi(<x, y>_s) Xi_rho(y) of the
zero-mean conjugate, whose |Xi| the reading still fits.  Logarithms are base 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT, PHASE_RESIDUAL, Tolerances
from .errors import (IncompatibleError, InternalInconsistencyError, PhaseNotRootOfUnityError,
                     UnsupportedAlphaError, UnsupportedDimensionError)
from .phase_space import PhaseSubgroup, lex_smallest_solution, subgroup_generators
from .states import State, char_function, enumerate_msps, make_state, state_from_char
from .weyl import (
    chi,
    conjugate_site_gate,
    digit_table,
    encode_digits,
    fourier_gate,
    phase_gate,
    t_gate,
    xmat,
    zmat,
)


@dataclass(frozen=True, eq=False)
class ThresholdReading:
    """What the two thresholds of a ``Tolerances`` say about one table Xi."""

    group: PhaseSubgroup  # S = {x : |Xi(x)| >= 1 - tol_one}
    phases: tuple  # the k_i with Xi(x_i) = chi(k_i) on S's generators x_i
    zero_mean: bool  # Xi = 1 on all of S, to PHASE_RESIDUAL
    support: np.ndarray  # the read-only mask |Xi| > tol_supp
    support_size: int
    second_max: float | None  # max |Xi| with tol_supp < |Xi| < 1 - tol_one, if any


@dataclass(frozen=True)
class MeanStateReport:
    """M(rho) together with its group S and the phase exponents on S's generators."""

    mean: State
    group: PhaseSubgroup
    phases: tuple


@dataclass(frozen=True)
class MagicGapReport:
    gap: float
    log_gap: float
    second_max: float
    support_size: int

    @classmethod
    def from_reading(cls, reading: ThresholdReading) -> MagicGapReport:
        """The gap 1 - second_max, or 0 with second_max 1 when no |Xi| lies below 1."""
        second = reading.second_max
        gap, log_gap = (0.0, 0.0) if second is None else (1.0 - second, float(-np.log2(second)))
        return cls(gap, log_gap, 1.0 if second is None else second, reading.support_size)


def read_thresholds(xi: np.ndarray, tol: Tolerances = DEFAULT) -> ThresholdReading:
    """One pass over |Xi| of a (d,)*2n table: the only place |Xi| meets tol_one or
    tol_supp.  Raises ``InternalInconsistencyError`` when S is not a group, and
    ``PhaseNotRootOfUnityError`` when Xi on a generator of S is off every chi(k)."""
    mags = np.abs(xi)
    on = mags >= 1 - tol.tol_one
    support = mags > tol.tol_supp
    below = support & (mags < 1 - tol.tol_one)
    vecs = np.argwhere(on)
    group = subgroup_generators(vecs, xi.shape[0], xi.ndim // 2)
    if group.size != len(vecs):
        raise InternalInconsistencyError(
            f"unit-modulus set of size {len(vecs)} is not a group (span {group.size})"
        )
    gens = xi[tuple(group.generators.T)]
    ks = np.round(group.d * np.angle(gens) / (2 * np.pi)).astype(np.int64) % group.d
    residual = np.abs(gens - chi(ks, group.d))
    far = residual > PHASE_RESIDUAL
    if far.any():
        i = int(far.argmax())
        raise PhaseNotRootOfUnityError(
            f"characteristic value {gens[i]} is {residual[i]:.2e} from any d-th root of unity"
        )
    support.setflags(write=False)
    return ThresholdReading(
        group=group,
        phases=tuple(ks.tolist()),
        zero_mean=bool((np.abs(xi[tuple(group.elements.T)] - 1) < PHASE_RESIDUAL).all()),
        support=support,
        support_size=int(np.count_nonzero(support)),
        second_max=float(mags[below].max()) if below.any() else None,
    )


def _mean_of(table: np.ndarray, group: PhaseSubgroup) -> State:
    """M(rho) from Xi_rho and S: Xi / |Xi| on S, 0 elsewhere."""
    on = tuple(group.elements.T)
    kept = np.zeros_like(table)
    kept[on] = table[on] / np.abs(table[on])
    return state_from_char(kept)


def mean_distance(table: np.ndarray, group: PhaseSubgroup):
    """xi -> ||A - M(rho)||_2 for a Hermitian A's table xi, M(rho) read off table = Xi_rho on S.

    By Parseval the squared distance is sum_x |Xi_A(x) - Xi_M(x)|^2 / d^n.
    Off S that is |Xi_A|^2, summed over the runs of the flat table between
    S's indices: no difference table is formed, and the values near 1 on S
    never cancel against the small ones off it.  On S, where the difference
    is rounding alone once A is near M, it is taken Hermitian,
    (f(x) + conj f(-x)) / 2, as ``make_state`` takes the matrices, so the
    anti-Hermitian rounding that ⊠ powers accumulate there is not counted.
    """
    d = table.shape[0]
    support = encode_digits(group.elements, d)  # S is sorted, so these ascend
    mirror = np.searchsorted(support, encode_digits(-group.elements % d, d))  # -x in S
    unit = table.reshape(-1)[support] / np.abs(table.reshape(-1)[support])
    ends = np.concatenate(([-1], support, [table.size]))

    def distance(xi: np.ndarray) -> float:
        flat = xi.reshape(-1)
        off = sum(np.vdot(run, run).real for run in
                  (flat[a + 1:b] for a, b in zip(ends[:-1], ends[1:])))
        f = flat[support] - unit
        on = (f + f[mirror].conj()) / 2
        return float(np.sqrt((off + np.vdot(on, on).real) / d ** (xi.ndim // 2)))

    return distance


def mean_state(state: State, tol: Tolerances = DEFAULT) -> MeanStateReport:
    """The mean state M(rho): Xi kept where |Xi| = 1, zeroed elsewhere."""
    table = char_function(state)
    reading = read_thresholds(table, tol)
    return MeanStateReport(mean=_mean_of(table, reading.group), group=reading.group,
                           phases=reading.phases)


def msps_group(state: State, tol: Tolerances = DEFAULT) -> PhaseSubgroup | None:
    """The group S of rho if rho is an MSPS (see ``is_msps``), else None, read off
    rho's table with no State built: ||rho - M(rho)||_F <= 1e-9 by Parseval."""
    table = char_function(state)
    reading = read_thresholds(table, tol)
    if reading.second_max is None and mean_distance(table, reading.group)(table) <= 1e-9:
        return reading.group
    return None


def is_msps(state: State, tol: Tolerances = DEFAULT) -> bool:
    """True iff every |Xi| is 0 or 1 (within tolerance) and rho = M(rho)."""
    return msps_group(state, tol) is not None


def mean_value_vector(state: State, tol: Tolerances = DEFAULT) -> np.ndarray:
    """(k_1, ..., k_r) with Xi(x_i) = chi(k_i) on the computed generators."""
    return np.array(read_thresholds(char_function(state), tol).phases, dtype=np.int64)


def is_zero_mean(state: State, tol: Tolerances = DEFAULT) -> bool:
    """True iff Xi takes the value 1 on the whole mean-state group (M(rho) is not built)."""
    return read_thresholds(char_function(state), tol).zero_mean


def zero_mean_table(xi: np.ndarray, reading: ThresholdReading):
    """A point x = [a | b] and the read-only table chi(<x, y>_s) Xi(y) of the
    zero-mean conjugate w(x) rho w(x)^dag, for Xi = Xi_rho and its ``reading``.

    Solves <(a,b), (p_i,q_i)>_s = -k_i over Z_d for the generators
    (p_i, q_i) of the mean-state group; the lexicographically smallest
    solution is returned (the zero point, with xi itself, when rho has zero
    mean already).  Existence is guaranteed, so an unsolvable system, or a
    shifted table off 1 on S, marks numerically broken input.
    """
    d, n = xi.shape[0], xi.ndim // 2
    if reading.zero_mean:
        return np.zeros(2 * n, dtype=np.int64), xi
    gens = reading.group.generators
    # unknown x = [a | b]: <(a,b),(p,q)>_s = a.q - b.p, one row [q | -p] per generator
    rows = np.concatenate([gens[:, n:], -gens[:, :n]], axis=1)
    point = lex_smallest_solution(rows, -np.array(reading.phases), d)
    if point is None:
        raise InternalInconsistencyError("zero-mean shift system is inconsistent")
    digits = digit_table(d, n)  # <x, y>_s = a.q - b.p: one phase per q and per p register
    phase = np.outer(chi(-(digits @ point[n:]), d), chi(digits @ point[:n], d))
    shifted = xi * phase.reshape((d,) * (2 * n))
    if not (np.abs(shifted[tuple(reading.group.elements.T)] - 1) < PHASE_RESIDUAL).all():
        raise InternalInconsistencyError("shifted table failed the zero-mean check")
    shifted.setflags(write=False)
    return point, shifted


def zero_mean_shift(state: State, tol: Tolerances = DEFAULT):
    """The point x of ``zero_mean_table`` and w(x) rho w(x)^dag (rho itself at x = 0)."""
    table = char_function(state)
    point, shifted = zero_mean_table(table, read_thresholds(table, tol))
    return point, state if shifted is table else state_from_char(shifted)


def magic_gap(state: State, tol: Tolerances = DEFAULT) -> MagicGapReport:
    """Gap between 1 and the second-largest |Xi| on the support."""
    return MagicGapReport.from_reading(read_thresholds(char_function(state), tol))


def pauli_rank(state: State, tol: Tolerances = DEFAULT) -> int:
    """Number of phase-space points where |Xi| exceeds the support threshold."""
    return read_thresholds(char_function(state), tol).support_size


def magic_gap_upper_bound(state: State, tol: Tolerances = DEFAULT):
    """The Pauli-rank bound 1 - sqrt((d^n Tr rho^2 - d^k)/(R_P - d^k)).

    Defined for k < n where d^k is the unit-modulus set size; returns
    None at k = n (the bound degenerates there; the gap is 0 anyway).
    """
    d, n = state.d, state.n
    reading = read_thresholds(char_function(state), tol)
    k = reading.group.rank
    if k >= n:
        return None
    num = d**n * state.purity() - d**k
    den = reading.support_size - d**k
    if den <= 0:
        return None
    return 1.0 - float(np.sqrt(max(num, 0.0) / den))


def closest_msps(state: State, alpha: float):
    """Brute-force minimizer of D_alpha(rho || sigma) over all MSPS.

    Returns (sigma_star, value); +inf divergences are skipped.  Oracle
    for the extremality theorem, so it never consults mean_state.
    """
    from .entropy import renyi_relative

    if alpha < 1:
        raise UnsupportedAlphaError("extremality is stated for alpha >= 1")
    best = None
    best_val = np.inf
    for sigma in enumerate_msps(state.n, state.d):
        val = renyi_relative(state, sigma, alpha)
        if val < best_val:
            best, best_val = sigma, val
    return best, float(best_val)


# --- qubit Clifford+T words (magic-gap synthesis bound) ---

_QUBIT_GATES = ("H", "S", "T", "X", "Z", "CNOT")


def apply_qubit_word(state: State, word) -> State:
    """Apply a Clifford+T gate word to a qubit register.

    Tokens: ("H", k), ("S", k), ("T", k), ("X", k), ("Z", k),
    ("CNOT", control, target).
    """
    if state.d != 2:
        raise UnsupportedDimensionError("gate words are defined for d = 2")
    gates = {
        "H": fourier_gate(2),
        "S": phase_gate(2),
        "T": t_gate(),
        "X": xmat(2),
        "Z": zmat(2),
        "CNOT": np.eye(4, dtype=complex)[[0, 1, 3, 2]],  # control on the first site
    }
    mat = state.mat
    for name, *sites in word:
        if name not in gates:
            raise IncompatibleError(f"unknown gate {name}")
        mat = conjugate_site_gate(mat, gates[name], sites, 2, state.n)
    return make_state(mat, 2, state.n)


def random_clifford_t_word(n: int, length: int, seed) -> list:
    """A seeded random word over {H, S, T, X, Z, CNOT} on n qubits."""
    rng = np.random.default_rng(seed)
    word = []
    for _ in range(length):
        name = _QUBIT_GATES[rng.integers(len(_QUBIT_GATES) - (0 if n >= 2 else 1))]
        if name == "CNOT":
            c, t = rng.choice(n, size=2, replace=False)
            word.append(("CNOT", int(c), int(t)))
        else:
            word.append((name, int(rng.integers(n))))
    return word


def lmg_t_count_check(state: State, word, tol: Tolerances = DEFAULT):
    """(LMG of the circuit output, LMG(rho) + T-count/2), base-2 logs."""
    if state.d != 2:
        raise UnsupportedDimensionError("the T-count bound is a qubit statement")
    out = apply_qubit_word(state, word)
    n_t = sum(1 for token in word if token[0] == "T")
    lhs = magic_gap(out, tol).log_gap
    rhs = magic_gap(state, tol).log_gap + n_t / 2.0
    return lhs, rhs
