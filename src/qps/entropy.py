"""Entropy functionals, majorization, and the convolution-inequality harnesses.

Base-2 logarithms everywhere.  The Renyi entropy follows the generalized
(sign-corrected) definition, so it is Schur concave for every order in
[-inf, +inf]; in particular H_alpha is negative for alpha < 0 and the
alpha -> -inf limit is log2(lambda_min).  The relative entropy is the
sandwiched divergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import DEFAULT, TOL_SPEC, TOL_STATE, Tolerances
from .convolution import as_param_matrix, char_powers, convolve, transformed_stabilizer_group
from .errors import NotComparableError, UnsupportedAlphaError, UnsupportedGError
from .mean_magic import mean_state, msps_group
from .phase_space import field_inv
from .states import (State, _msps_values, basis_state, char_function,
                     enumerate_lagrangian_subgroups, maximally_mixed, random_state,
                     state_from_char)
from .weyl import encode_digits


def clean_spectrum(state_or_values) -> np.ndarray:
    """Eigenvalues sorted descending, clipped at 0 and renormalized to 1."""
    if isinstance(state_or_values, State):
        vals = state_or_values.eigvals
    else:
        vals = np.asarray(state_or_values, dtype=float)
    if vals.min() < -TOL_STATE:
        raise NotComparableError(f"eigenvalue {vals.min()} below the state floor")
    vals = np.clip(vals, 0.0, None)
    vals = np.sort(vals)[::-1]
    return vals / vals.sum()


def renyi_entropy_spectrum(spec: np.ndarray, alpha) -> float:
    """Generalized Renyi entropy of a cleaned spectrum, base-2 logs."""
    spec = np.asarray(spec, dtype=float)
    pos = spec[spec > TOL_SPEC]
    if alpha == 1:
        return float(-(pos * np.log2(pos)).sum())
    if alpha == 0:
        return float(np.log2(len(pos)))
    if alpha == math.inf:
        return float(-np.log2(pos.max()))
    if alpha == -math.inf:
        if len(pos) < len(spec):
            return -math.inf
        return float(np.log2(pos.min()))
    if alpha < 0:
        if len(pos) < len(spec):
            return -math.inf
        return float(-np.log2((pos**alpha).sum()) / (1 - alpha))
    return float(np.log2((pos**alpha).sum()) / (1 - alpha))


def renyi_entropy(state: State, alpha) -> float:
    """H_alpha(rho) = sgn(alpha)/(1-alpha) log2 sum lambda^alpha."""
    return renyi_entropy_spectrum(clean_spectrum(state), alpha)


def renyi_relative(rho: State, sigma: State, alpha) -> float:
    """Sandwiched Renyi relative entropy D_alpha(rho || sigma), alpha >= 1/2.

    +inf when supp(rho) is not contained in supp(sigma) and alpha >= 1;
    for alpha in [1/2, 1) the divergence is finite whenever the sandwiched
    trace is positive.
    """
    if alpha < 0.5:
        raise UnsupportedAlphaError("sandwiched divergence needs alpha >= 1/2")
    svals, svecs = sigma.eigh
    vb, lb = svecs[:, svals > TOL_SPEC], svals[svals > TOL_SPEC]  # supp(sigma)
    # rho compressed onto supp(sigma); support violation = trace deficit
    r_in = vb.conj().T @ rho.mat @ vb
    deficit = 1.0 - np.trace(r_in).real
    if alpha >= 1 and deficit > TOL_SPEC * rho.dim:
        return math.inf
    if alpha == 1:
        rvals = rho.eigvals
        pos = rvals > TOL_SPEC
        tr_rlogr = float((rvals[pos] * np.log2(rvals[pos])).sum())
        logsig = (vb * np.log2(lb)) @ vb.conj().T
        return tr_rlogr - float(np.trace(rho.mat @ logsig).real)
    if alpha == math.inf:
        isq = (vb * (lb**-0.5)) @ vb.conj().T
        m = isq @ rho.mat @ isq
        return float(np.log2(np.linalg.eigvalsh(m)[-1]))
    e = (1 - alpha) / (2 * alpha)
    half = (vb * (lb**e)) @ vb.conj().T
    m = half @ rho.mat @ half
    mvals = np.clip(np.linalg.eigvalsh(m), 0.0, None)
    total = float((mvals[mvals > 0] ** alpha).sum())
    if total <= TOL_SPEC:
        return math.inf
    return float(np.log2(total) / (alpha - 1))


@lru_cache(maxsize=1)
def _subentropy_nodes(m: int) -> tuple[np.ndarray, np.ndarray]:
    """(s, c): ``subentropy``'s integral as sum_i c_i f(s_i), read-only, from m-point
    Gauss-Legendre on u by Newton's method on the recurrence for P_m.  An eigensolver
    (Golub-Welsch) would touch about 1 MiB of BLAS buffers in runs that touch none."""
    x = np.cos(np.pi * (np.arange(m) + 0.75) / (m + 0.5))
    for _ in range(5):  # converged after 4 steps at m = 100
        p0, p1 = np.ones_like(x), x
        for k in range(2, m + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = m * (x * p1 - p0) / (x * x - 1)  # P_m'(x)
        x = x - p1 / dp
    u, w = (1 - x) / 2, 1 / ((1 - x * x) * dp * dp)
    s, c = (1 - u) / u, w * u / (1 - u) ** 2 / math.log(2)
    s.setflags(write=False)
    c.setflags(write=False)
    return s, c


def subentropy(state: State) -> float:
    """Q(rho) = -sum_i l_i^D log2(l_i) / prod_{j != i}(l_i - l_j) over the spectrum l,
    taken as (1/ln 2) int_0^inf [t/(1+t) - prod_i t/(t + l_i)] dt, which needs no
    distinct eigenvalues.  With u = t/(1+t) and s = 1/t the integrand is
    -u expm1(log1p(s) - sum_i log1p(l_i s)) / (1-u)^2 du: non-negative, bounded,
    and free of the cancellation of the two terms near u = 1.  Ties and zero
    eigenvalues enter as they are; the integral is 100-point Gauss-Legendre.
    """
    s, c = _subentropy_nodes(100)
    gap = np.log1p(s) - np.log1p(s[:, None] * clean_spectrum(state)).sum(axis=1)
    return float(-(c * np.expm1(gap)).sum())


def majorization_slack(a, b) -> float:
    """min_k (sum_{i<=k} b_i - sum_{i<=k} a_i) over both spectra sorted descending.

    a is majorized by b iff this is >= 0.  Inputs are spectra (any order);
    the shorter is zero-padded.  Sums must agree within 1e-8, else
    NotComparableError.
    """
    av = np.sort(np.asarray(a, dtype=float))[::-1]
    bv = np.sort(np.asarray(b, dtype=float))[::-1]
    size = max(len(av), len(bv))
    av = np.pad(av, (0, size - len(av)))
    bv = np.pad(bv, (0, size - len(bv)))
    if abs(av.sum() - bv.sum()) > 1e-8:
        raise NotComparableError(f"sums differ: {av.sum()} vs {bv.sum()}")
    return float(np.min(np.cumsum(bv) - np.cumsum(av)))


def majorizes(a, b) -> bool:
    """True iff a is majorized by b, to within 1e-9 (see ``majorization_slack``)."""
    return majorization_slack(a, b) >= -1e-9


@dataclass(frozen=True, eq=False)
class SecondLawReport:
    alphas: tuple
    table: np.ndarray  # (N+1, len(alphas)) entropies along the trajectory
    violations: tuple  # (step, alpha, drop) triples beyond the slack
    ok: bool


def check_second_law(rho: State, params, N: int, alphas) -> SecondLawReport:
    """Entropies H_alpha of the powers ⊠^k rho, k <= N, from ``char_powers``; flags
    decreases.  Each power after rho is rebuilt by ``state_from_char(xi, spectrum=True)``,
    so the ``eigvalsh`` its entropies read decides its positivity (no Cholesky)."""
    alphas = tuple(alphas)
    powers = (state_from_char(xi, spectrum=True) if k else rho
              for k, xi in enumerate(char_powers(char_function(rho), params, N)))
    table = np.array([[renyi_entropy(s, a) for a in alphas] for s in powers])
    drops = np.diff(table, axis=0)
    violations = tuple((int(step), alphas[col], float(drops[step, col]))
                       for step, col in zip(*np.nonzero(drops < -1e-8)))
    return SecondLawReport(alphas=alphas, table=table, violations=violations, ok=not violations)


def second_law_counterexample(d: int, n: int = 1, alpha=1):
    """The g10 = 0 construction where H_alpha(rho ⊠ sigma) < H_alpha(sigma).

    G = [[1, 1], [0, 1]] is not odd-parity positive; rho = |0><0|^n (the
    Z-line stabilizer) and sigma = I/d^n give H(rho ⊠ sigma) = 0 while
    H(sigma) = n log d.
    """
    G = [[1, 1], [0, 1]]
    rho = basis_state(0, d, n)
    sigma = maximally_mixed(d, n)
    out = convolve(rho, sigma, G)
    return {
        "h_out": renyi_entropy(out, alpha),
        "h_sigma": renyi_entropy(sigma, alpha),
        "h_rho": renyi_entropy(rho, alpha),
        "output_equals_rho": bool(np.abs(out.mat - rho.mat).max() < 1e-10),
    }


def check_equality_case(sigma: State, params, alpha, seed=0, tol: Tolerances = DEFAULT) -> dict:
    """Equality H_alpha(rho ⊠ sigma) = H_alpha(rho) on the fixed algebra.

    sigma must be an MSPS; rho is drawn as a random convex mixture of the
    MSPS associated with the transformed group S, where equality must hold
    to 1e-8.  A generic random state must show a strict increase > 1e-6.
    """
    d, n = sigma.d, sigma.n
    pm = as_param_matrix(params, d)
    if not pm.positive:
        raise UnsupportedGError("the equality case is stated for positive G")
    group = msps_group(sigma, tol)
    if group is None:
        raise NotComparableError("sigma must be an MSPS")
    s_trans = transformed_stabilizer_group(group, pm)
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(d**s_trans.rank)) if s_trans.rank else np.array([1.0])
    mix = np.zeros((d,) * (2 * n), dtype=complex)  # one table, not the d^r of the stack
    mix[tuple(s_trans.elements.T)] = sum(w * v for w, v in zip(weights, _msps_values(s_trans)))
    rho = state_from_char(mix, spectrum=True)
    h_in = renyi_entropy(rho, alpha)
    h_out = renyi_entropy(convolve(rho, sigma, pm), alpha)
    outside = random_state(n, d, seed=rng.integers(2**31))
    h_in2 = renyi_entropy(outside, alpha)
    h_out2 = renyi_entropy(convolve(outside, sigma, pm), alpha)
    return {
        "equality_gap": abs(h_out - h_in),
        "equality_holds": abs(h_out - h_in) <= 1e-8,
        "strict_increase": h_out2 - h_in2,
        "strictly_increases": (h_out2 - h_in2) > 1e-6,
        "ok": abs(h_out - h_in) <= 1e-8 and (h_out2 - h_in2) > 1e-6,
    }


def holevo_bounds(sigma: State, params, tol: Tolerances = DEFAULT) -> tuple[float, float]:
    """Bounds on the Holevo capacity of the convolution channel E_sigma.

    Positive G: (n log d - H(M(sigma)), n log d - H(sigma)); the two
    coincide iff sigma is an MSPS.  Odd-parity-only G: the one-sided
    bound (0, H(I/d^n ⊠ sigma) - H(sigma)).
    """
    d, n = sigma.d, sigma.n
    pm = as_param_matrix(params, d)
    full = n * math.log2(d)
    if pm.positive:
        lower = full - renyi_entropy(mean_state(sigma, tol).mean, 1)
        upper = full - renyi_entropy(sigma, 1)
        return lower, upper
    if pm.odd_parity_positive:
        mixed_out = convolve(maximally_mixed(d, n), sigma, pm)
        return 0.0, renyi_entropy(mixed_out, 1) - renyi_entropy(sigma, 1)
    raise UnsupportedGError("Holevo bounds need an (at least) odd-parity positive G")


@dataclass(frozen=True)
class MinOutputEntropyReport:
    ok: bool
    n_pairs: int
    n_matched: int
    max_entropy_on_matched: float
    min_entropy_on_unmatched: float


def check_min_output_entropy(params, d: int, n: int = 1, seed=0) -> MinOutputEntropyReport:
    """Exhaustive pure-stabilizer scan of the minimal-output-entropy law, by group counts.

    H(rho ⊠ sigma) vanishes exactly on pairs whose stabilizer groups satisfy
    S_rho = transformed(S_sigma), read from one dict of the groups; every other pair
    (and 5 random magic pairs, run by ``convolve``) must come out strictly positive.
    The stabilizers are the m Lagrangians with d^n characters each.  By closure, ⊠ of
    two is an MSPS of the group A^-1 S_rho ∩ B^-1 S_sigma, A and B the scalings of
    ``convolve_char``: of C elements, so H = log2(d^n / C) exactly for every character
    pair.  C over all group pairs is one product of 0/1 indicator stacks; no table is built.
    """
    pm = as_param_matrix(params, d)
    if not pm.positive:
        raise UnsupportedGError("the minimal-output-entropy law needs positive G")
    groups = enumerate_lagrangian_subgroups(n, d)
    elements = np.stack([g.elements for g in groups])
    stacks = np.zeros((2, len(groups), d ** (2 * n)))  # 0/1 rows of each A^-1 S, then B^-1 S
    for stack, cp, cq in zip(stacks, (pm.n_inv * pm.g11, -pm.n_inv * pm.g10), (pm.g00, pm.g01)):
        scaled = elements * np.repeat([field_inv(cp, d), field_inv(cq, d)], n) % d
        np.put_along_axis(stack, encode_digits(scaled, d), 1.0, axis=1)
    counts = stacks[0] @ stacks[1].T
    entropies = np.log2(d**n / counts)
    index = {g: i for i, g in enumerate(groups)}
    rhos = [index[transformed_stabilizer_group(g_sig, pm)] for g_sig in groups]
    matched = np.arange(len(groups))[:, None] == rhos  # [rho, sigma]: S_rho = transformed(S_sigma)
    on, off = entropies[matched], entropies[~matched]
    ok = bool((on <= 1e-8).all() and (off > 1e-6).all())
    unmatched_min = float(off.min(initial=math.inf))
    rng = np.random.default_rng(seed)
    for _ in range(5):
        a = random_state(n, d, seed=rng.integers(2**31), rank=1)
        b = random_state(n, d, seed=rng.integers(2**31), rank=1)
        h = renyi_entropy(convolve(a, b, pm), 1)
        unmatched_min = min(unmatched_min, h)
        ok = ok and h > 1e-6
    return MinOutputEntropyReport(
        ok=ok,
        n_pairs=(len(groups) * d**n) ** 2,
        n_matched=int(matched.sum()) * d ** (2 * n),
        max_entropy_on_matched=float(on.max(initial=0.0)),
        min_entropy_on_unmatched=unmatched_min,
    )
