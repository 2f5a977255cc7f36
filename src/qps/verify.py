"""Theorem-check suites behind `qps verify`.

Every check returns a CheckResult with a signed slack: the margin left
before the stated tolerance is violated (negative = failure).  Suites
fan out over independent seeds; results merge by seed index so reports
are byte-stable for a fixed configuration.  A process pool starts, and
its modules load, only when more than one job is asked for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import channels as chn
from . import convolution as cv
from . import entropy as ent
from . import fisher as fi
from . import mean_magic as mm
from . import states as st
from . import weyl
from .config import DEFAULT, Tolerances, ensure_table_size, table_cap
from .errors import (
    IncompatibleError,
    QpsError,
    TooLargeError,
    UnsupportedDimensionError,
    UnsupportedGError,
)
from .phase_space import check_prime, field_inv, make_point

SUITES = ("weyl", "duality", "majorization", "entropy", "fisher", "hudson", "channels")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    slack: float
    detail: str = ""

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "slack": self.slack, "detail": self.detail}


def _result(name: str, slack: float, detail: str = "") -> CheckResult:
    return CheckResult(name=name, passed=bool(slack >= 0), slack=float(slack), detail=detail)


def _map_tasks(fn, d: int, n: int, seeds: int, jobs: int, seed: int, tol: Tolerances):
    """Run fn on (d, n, s, tol) for the task indices s = seed .. seed + seeds - 1.

    A process pool of min(jobs, tasks) workers starts, and `concurrent.futures`
    is imported, only when that number is above 1.
    """
    tasks = [(d, n, s, tol) for s in range(seed, seed + seeds)]
    workers = min(jobs, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(fn, tasks))
    else:
        chunks = [fn(t) for t in tasks]
    return [r for chunk in chunks for r in chunk]


def _drawable(d: int, classes=cv.PARITY_CLASSES) -> tuple:
    """classes in order, without "positive" at d = 2, where no invertible G is positive."""
    return tuple(k for k in classes if not (d == 2 and k == "positive"))


def sample_parity_matrix(rng, d: int, klass: str):
    """A seeded random invertible G in the requested parity class.

    G is drawn as 2 x 2 integers in [0, d) until one is invertible mod d
    and in `klass` (`cv.parity_class`); only the accepted draw is
    classified.  A non-prime d, an unknown class and "positive" at d = 2
    (no such G exists) raise.
    """
    check_prime(d)
    if klass not in cv.PARITY_CLASSES:
        raise UnsupportedGError(f"unknown parity class {klass!r}; choose from {cv.PARITY_CLASSES}")
    if klass not in _drawable(d):
        raise UnsupportedGError("no invertible G mod 2 is positive")
    while True:
        g = rng.integers(0, d, size=(2, 2))
        g00, g01, g10, g11 = g.ravel().tolist()
        if (g00 * g11 - g01 * g10) % d and cv.parity_class(g00, g01, g10, g11) == klass:
            return cv.classify(g, d)


# --- weyl ---

def _weyl_stack(d: int, n: int) -> np.ndarray:
    """Every w(x), x in V^n, stacked in np.ndindex order over (p, q): (d^2n, D, D)."""
    return np.stack([weyl.weyl_operator(x, d) for x in np.ndindex((d,) * (2 * n))])


def _commutation_worst(stack: np.ndarray, x: np.ndarray, y: np.ndarray, d: int) -> float:
    """max |w(x) w(y) - c(x, y) w(x + y)| over the pairs that the point arrays x and y
    (last axis [p | q]) broadcast to, c = chi(2^{-1} <x, y>_s).

    stack is `_weyl_stack(d, n)`, which gives both sides.  d = 2 takes c = i^{<x, y>_s},
    the form taken over the integers, with w(x + y) at the unreduced label t = x + y:
    stack[t mod 2] times (-i)^{sum t_p t_q - sum (t_p mod 2)(t_q mod 2)}.
    Over all pairs of V^1 the arrays hold d^6 entries.
    """
    n = x.shape[-1] // 2
    s_int = (x[..., :n] * y[..., n:] - x[..., n:] * y[..., :n]).sum(axis=-1)
    t = x + y
    if d == 2:
        phase = np.array([1, 1j, -1, -1j])[(s_int - st._pq(t) + st._pq(t % 2)) % 4]
    else:
        phase = weyl.chi(field_inv(2, d) * s_int, d)
    rhs = stack[weyl.encode_digits(t % d, d)]
    rhs *= phase[..., None, None]
    diff = np.matmul(stack[weyl.encode_digits(x, d)], stack[weyl.encode_digits(y, d)])
    diff -= rhs
    return float(np.abs(diff).max())


# What each suite with a d^{4n}-entry array does with it.
_D4N_ARRAYS = {
    "weyl": "stacks",  # every w(x) at (d, n), for orthonormality
    "entropy": "diagonalizes a tensor product of",  # rho ⊗ sigma, for additivity
}


def _check_d4n_size(suite: str, d: int, n: int) -> None:
    """Raise TooLargeError, naming the suite, when its d^{4n}-entry complex array
    at (d, n) is past the dense-table cap ``config.table_cap()``."""
    cap = table_cap()
    if d ** (4 * n) > cap:
        raise TooLargeError(
            f"the {suite} suite {_D4N_ARRAYS[suite]} d^4n = {d}^{4 * n} entries, "
            f"past the dense-table cap {cap}"
        )


def suite_weyl(d: int, n: int, seeds: int, jobs: int = 1, seed: int = 0,
               tol: Tolerances = DEFAULT):
    """Weyl-algebra checks at (d, n).

    The exhaustive ones are batched array operations on one stack of the
    Weyl operators of V^1 (and of V^n for orthonormality and, at n > 1, the
    commutation relation on 64 seeded pairs).
    """
    out = []
    w1 = _weyl_stack(d, 1)
    points = np.indices((d, d)).reshape(2, -1).T  # V^1 in stack order
    worst = _commutation_worst(w1, points[:, None], points[None, :], d)
    out.append(_result("weyl.commutation_exhaustive_n1", 1e-12 - worst, f"d={d}"))
    # orthonormality of the full basis at (d, n)
    D = d**n
    wn = w1 if n == 1 else _weyl_stack(d, n)
    mats = wn.reshape(d ** (2 * n), -1)
    gram = (mats.conj() @ mats.T) / D
    worst = float(np.abs(gram - np.eye(d ** (2 * n))).max())
    out.append(_result("weyl.orthonormality", 1e-10 - worst, f"d={d} n={n}"))
    if n > 1:  # the commutation relation on seeded pairs of V^n, where the phases are multi-site
        x, y = np.random.default_rng(21_000 + d).integers(0, d, size=(2, 64, 2 * n))
        worst = _commutation_worst(wn, x, y, d)
        out.append(_result("weyl.commutation_sampled", 1e-12 - worst, f"d={d} n={n}"))
    # key unitary conjugation identities for sampled G
    rng = np.random.default_rng(20_000 + d)
    worst = 0.0
    for _ in range(max(3, seeds // 8)):
        pm = sample_parity_matrix(rng, d, "even_only" if d == 2 else "positive")
        U = weyl.key_unitary(pm.as_array(), 1, d)
        Z, X, eye = weyl.zmat(d), weyl.xmat(d), np.eye(d)
        pairs = [
            (np.kron(X, eye), np.kron(_pow(X, pm.n_inv * pm.g11, d), _pow(X, -pm.n_inv * pm.g01, d))),
            (np.kron(eye, X), np.kron(_pow(X, -pm.n_inv * pm.g10, d), _pow(X, pm.n_inv * pm.g00, d))),
            (np.kron(Z, eye), np.kron(_pow(Z, pm.g00, d), _pow(Z, pm.g10, d))),
            (np.kron(eye, Z), np.kron(_pow(Z, pm.g01, d), _pow(Z, pm.g11, d))),
        ]
        for a, b in pairs:
            worst = max(worst, float(np.abs(U @ a @ U.conj().T - b).max()))
    out.append(_result("weyl.key_unitary_generators", 1e-12 - worst))
    if d != 2:
        gap = float(np.abs(w1.sum(axis=0) / d - weyl.parity_operator(d, 1)).max())
        out.append(_result("weyl.parity_sum", 1e-12 - gap))
        worst = 0.0
        for p in range(d):
            for q in range(d):
                T = weyl.phase_point_operator(make_point(p, q, d), d)
                worst = max(worst, float(np.abs(T - T.conj().T).max()))
        out.append(_result("weyl.phase_point_hermitian", 1e-12 - worst))
    U = weyl.random_clifford(n, d, 10, seed=7)
    out.append(_result("weyl.random_clifford_closes", 0.0 if weyl.is_clifford(U, d, n) else -1.0))
    return out


def _pow(mat, k, d):
    return np.linalg.matrix_power(mat, int(k) % d)


# --- duality ---

def _duality_task(args):
    d, n, seed, _ = args
    rng = np.random.default_rng(seed)
    rho = st.random_state(n, d, seed=rng.integers(2**31))
    sig = st.random_state(n, d, seed=rng.integers(2**31))
    tr, ts = st.char_function(rho), st.char_function(sig)
    out = []
    for klass in _drawable(d):
        pm = sample_parity_matrix(rng, d, klass)
        left = st.char_function(st.make_state(cv._convolve_mats(rho.mat, sig.mat, pm, d, n), d, n))
        right = cv.convolve_char(tr, ts, pm)
        gap = float(np.abs(left - right).max())
        out.append(_result(f"duality.{klass}.seed{seed}", 1e-10 - gap, f"d={d} n={n}"))
    return out


def suite_duality(d: int, n: int, seeds: int, jobs: int = 1, seed: int = 0,
                  tol: Tolerances = DEFAULT):
    return _map_tasks(_duality_task, d, n, seeds, jobs, seed, tol)


# --- majorization ---

def _majorization_task(args):
    d, n, seed, tol = args
    rng = np.random.default_rng(1000 + seed)
    rho = st.random_state(n, d, seed=rng.integers(2**31))
    sig = st.random_state(n, d, seed=rng.integers(2**31))
    out = []
    inputs = {"rho": rho, "sigma": sig}
    for klass in _drawable(d, ("even_only", "odd_only", "positive", "trivial")):
        pm = sample_parity_matrix(rng, d, klass)
        a = ent.clean_spectrum(cv.convolve(rho, sig, pm))
        for tag in cv.bounding_inputs(pm):
            b = ent.clean_spectrum(inputs[tag])
            slack = ent.majorization_slack(a, b)
            out.append(
                _result(f"majorization.{klass}.{tag}.seed{seed}", slack + 1e-9, f"d={d}")
            )
    # generalized extremality: spec(M(rho)) ≺ spec(rho)
    rep = mm.mean_state(rho, tol)
    a = ent.clean_spectrum(rep.mean)
    b = ent.clean_spectrum(rho)
    slack = ent.majorization_slack(a, b)
    out.append(_result(f"majorization.mean_state.seed{seed}", slack + 1e-9))
    return out


def suite_majorization(d: int, n: int, seeds: int, jobs: int = 1, seed: int = 0,
                       tol: Tolerances = DEFAULT):
    return _map_tasks(_majorization_task, d, n, seeds, jobs, seed, tol)


# --- entropy ---

def _entropy_task(args):
    d, n, seed, tol = args
    rng = np.random.default_rng(2000 + seed)
    rho = st.random_state(n, d, seed=rng.integers(2**31))
    sig = st.random_state(n, d, seed=rng.integers(2**31))
    alphas = (-2.0, 0.5, 1.0, 2.0, math.inf)
    out = []
    inputs = {"rho": rho, "sigma": sig}
    for klass in _drawable(d, ("even_only", "odd_only", "positive")):
        pm = sample_parity_matrix(rng, d, klass)
        conv = cv.convolve(rho, sig, pm)
        for a in alphas:
            h_out = ent.renyi_entropy(conv, a)
            slack = h_out - max(ent.renyi_entropy(inputs[tag], a) for tag in cv.bounding_inputs(pm))
            out.append(_result(f"entropy.increase.{klass}.a{a}.seed{seed}", slack + 1e-8))
    # extremality restatement H_a(M) = H_a + D_a(rho || M)
    rep = mm.mean_state(rho, tol)
    for a in (1.0, 2.0, math.inf):
        lhs = ent.renyi_entropy(rep.mean, a)
        rhs = ent.renyi_entropy(rho, a) + ent.renyi_relative(rho, rep.mean, a)
        out.append(_result(f"entropy.extremality.a{a}.seed{seed}", 1e-8 - abs(lhs - rhs)))
    # additivity, both alphas on the one spectrum of rho ⊗ sigma
    joint = st.tensor(rho, sig)
    for a in (0.5, 2.0):
        gap = abs(
            ent.renyi_entropy(joint, a)
            - ent.renyi_entropy(rho, a)
            - ent.renyi_entropy(sig, a)
        )
        out.append(_result(f"entropy.additivity.a{a}.seed{seed}", 1e-9 - gap))
    # subentropy Schur consistency
    q_rho = ent.subentropy(rho)
    q_mean = ent.subentropy(rep.mean)
    out.append(_result(f"entropy.subentropy_mean.seed{seed}", q_mean - q_rho + 1e-6))
    return out


def suite_entropy(d: int, n: int, seeds: int, jobs: int = 1, seed: int = 0,
                  tol: Tolerances = DEFAULT):
    """Entropy checks at (d, n).

    The additivity check takes ``eigvalsh`` of rho ⊗ sigma, d^{4n} entries, so
    `run_suite` refuses this suite past the dense-table cap, as it does weyl.
    """
    out = _map_tasks(_entropy_task, d, n, seeds, jobs, seed, tol)
    ce = ent.second_law_counterexample(d, n)
    out.append(
        _result(
            "entropy.counterexample_g10_zero",
            ce["h_sigma"] - ce["h_out"] - 1e-6,
            "H(rho ⊠ sigma) < H(sigma) when G is not odd-parity positive",
        )
    )
    params = cv.default_params(d)
    rep = ent.check_second_law(st.random_state(n, d, seed=99), params, 8, (0.5, 1, 2))
    out.append(_result("entropy.second_law", 0.0 if rep.ok else -1.0))
    if d ** (2 * n) <= 100 and params.positive:  # the equality case is stated for positive G
        eq = ent.check_equality_case(st.basis_state(0, d, n), params, 2, seed=3, tol=tol)
        out.append(_result("entropy.equality_case", 0.0 if eq["ok"] else -1.0))
    return out


# --- fisher ---

def _fisher_task(args):
    d, n, seed, _ = args
    rng = np.random.default_rng(3000 + seed)
    eta = 1e-3
    rho = fi.smooth(st.random_state(n, d, seed=rng.integers(2**31)), eta)
    sig = fi.smooth(st.random_state(n, d, seed=rng.integers(2**31)), eta)
    out = []
    params = cv.default_params(d)
    rep = fi.check_fisher_convolution(rho, sig, params)
    out.append(_result(f"fisher.convolution.seed{seed}", rep.slack + 1e-7, f"eta={eta}"))
    lhs, rhs = fi.de_bruijn_check(rho)
    out.append(_result(f"fisher.de_bruijn.seed{seed}", 1e-3 - abs(lhs - rhs)))
    # dephasing commutation for an even-parity G
    pm = sample_parity_matrix(rng, d, "even_only")
    worst = 0.0
    out_state = cv.convolve(rho, sig, pm)
    for axis in ("X", "Z"):
        left = fi.dephase(out_state, axis, 0)
        right = cv.convolve(fi.dephase(rho, axis, 0), sig, pm)
        worst = max(worst, float(np.abs(left.mat - right.mat).max()))
    out.append(_result(f"fisher.dephase_commutes.seed{seed}", 1e-10 - worst))
    if d != 2:
        ta, tb = 0.3, 0.7
        left = cv.convolve(fi.heat_semigroup(rho, ta), fi.heat_semigroup(sig, tb), params)
        right = fi.heat_semigroup(cv.convolve(rho, sig, params), ta + tb)
        gap = float(np.abs(left.mat - right.mat).max())
        out.append(_result(f"fisher.semigroup_intertwines.seed{seed}", 1e-9 - gap))
    return out


def suite_fisher(d: int, n: int, seeds: int, jobs: int = 1, seed: int = 0,
                 tol: Tolerances = DEFAULT):
    """Fisher checks, dense D x D eigendecompositions and ⊠ on d^{2n} tables: `run_suite`
    refuses d^{2n} past the cap ``convolve`` applies ((3, 6) fits; about 6 s a seed)."""
    out = _map_tasks(_fisher_task, d, n, seeds, jobs, seed, tol)
    rng = np.random.default_rng(77)
    D = d**n
    a = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
    b = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
    a, b = a + a.conj().T, b + b.conj().T
    gap = abs(
        np.trace(fi.liouvillean(a, d, n) @ b) - np.trace(a @ fi.liouvillean(b, d, n))
    )
    out.append(_result("fisher.liouvillean_hermitian", 1e-9 - float(gap)))
    return out


# --- hudson ---

def suite_hudson(d: int, n: int, seeds: int, jobs: int = 1, seed: int = 0,
                 tol: Tolerances = DEFAULT):
    """Hudson checks at (d, n), under the caps of ``st.enumerate_lagrangian_subgroups``.
    The pure stabilizers' Wigner minimum is one ``st.wigner`` of each Lagrangian's
    ``st.msps_tables`` stack; no State is built for them, and no other group's tables."""
    out = []
    worst = 0.0
    for group in st.enumerate_lagrangian_subgroups(n, d):
        worst = min(worst, float(st.wigner(st.msps_tables(group)).min()))
    out.append(_result("hudson.stabilizers_nonnegative", worst + 1e-12, f"d={d}"))
    trials = max(seeds, 100)
    negative = 0
    for s in range(seed, seed + trials):
        psi = st.random_pure(n, d, seed=s)
        if st.wigner(psi).min() < -1e-10:
            negative += 1
    out.append(
        _result(
            "hudson.random_pure_negative",
            negative - math.ceil(0.95 * trials),
            f"{negative}/{trials} with a negative entry",
        )
    )
    return out


# --- channels ---

def _channels_task(args):
    d, n, seed, tol = args
    rng = np.random.default_rng(4000 + seed)
    c1 = chn.random_channel(n, d, seed=rng.integers(2**31))
    c2 = chn.random_channel(n, d, seed=rng.integers(2**31))
    out = []
    for klass in _drawable(d, ("even_only", "odd_only", "positive")):
        pm = sample_parity_matrix(rng, d, klass)
        try:  # channel_from_choi rejects a result that is not a Choi state
            conv = chn.convolve_channels(c1, c2, pm)
            exact = chn._convolve_channels_exact(c1, c2, pm)
        except QpsError as exc:
            out.append(_result(f"channels.routes.{klass}.seed{seed}", -1.0, str(exc)))
            continue
        gap = max(chn.choi_marginal_gap(conv.choi),
                  float(np.abs(conv.choi.mat - exact.choi.mat).max()))
        out.append(_result(f"channels.routes_marginal.{klass}.seed{seed}", 1e-9 - gap))
    pm = sample_parity_matrix(rng, d, "odd_only")
    absorbed = chn.convolve_channels(c1, chn.depolarizing_channel(d, n), pm)
    gap = float(np.abs(absorbed.choi.mat - np.eye(d ** (2 * n)) / d ** (2 * n)).max())
    out.append(_result(f"channels.absorb.seed{seed}", 1e-10 - gap))
    mean = chn.mean_channel(c1, tol)
    for a in (0.5, 1.0, 2.0, math.inf):
        slack = chn.channel_entropy(mean, a) - chn.channel_entropy(c1, a)
        out.append(_result(f"channels.mean_extremality.a{a}.seed{seed}", slack + 1e-9))
    return out


def suite_channels(d: int, n: int, seeds: int, jobs: int = 1, seed: int = 0,
                   tol: Tolerances = DEFAULT):
    out = _map_tasks(_channels_task, d, n, seeds, jobs, seed, tol)
    # zero mean iff every Weyl image value is 0 or 1 holds at odd d; at d = 2 this
    # channel agrees with it only because it has neither property
    wch = chn.weyl_conjugation_channel((1,) * n + (0,) * n, d)
    vals = chn.weyl_image_char_values(wch)
    in_01 = bool(((np.abs(vals) < 1e-8) | (np.abs(vals - 1) < 1e-6)).all())
    agrees = in_01 == chn.is_zero_mean_channel(wch, tol)
    out.append(_result("channels.zero_mean_corollary", 0.0 if agrees else -1.0))
    return out


_SUITE_FNS = {
    "weyl": suite_weyl,
    "duality": suite_duality,
    "majorization": suite_majorization,
    "entropy": suite_entropy,
    "fisher": suite_fisher,
    "hudson": suite_hudson,
    "channels": suite_channels,
}


def run_suite(name: str, d: int, n: int, seeds: int, jobs: int = 1, seed: int = 0,
              tol: Tolerances = DEFAULT):
    """Run one suite (or 'all'); returns an ordered list of CheckResults.

    seed offsets the per-seed task indices: the tasks run at seed .. seed +
    seeds - 1 and name their checks after them.  Inputs drawn outside the
    per-seed tasks are fixed.  n, seeds and jobs below 1 are refused, a
    channels run (alone or within 'all') past the exact channel oracle's
    size cap, a weyl or entropy run (alone or within 'all') past the table
    cap or a fisher run with d^{2n} past it is refused before any suite
    runs, and so is hudson at d = 2 ('all' skips it there).  Hudson's first
    step refuses d^{2n} > ``config.MAX_ENUMERATION`` and d^{n^2} > ``config.MAX_GROUP``.
    """
    for key, value in (("n", n), ("seeds", seeds), ("jobs", jobs)):
        if value < 1:
            raise IncompatibleError(f"{key} must be >= 1, got {value}")
    if name in ("all", "channels"):
        chn._check_exact_dim(d, n)
    for key in _D4N_ARRAYS:
        if name in ("all", key):
            _check_d4n_size(key, d, n)
    if name == "fisher":  # within 'all', the d^{4n} check above is the stricter
        ensure_table_size(d, n)
    if name == "hudson" and d == 2:
        raise UnsupportedDimensionError("the hudson suite reads discrete Wigner functions, "
                                        "which need odd d")
    if name == "all":
        out = []
        for key in SUITES:
            if key == "hudson" and d == 2:
                continue
            out.extend(_SUITE_FNS[key](d, n, seeds, jobs, seed, tol))
        return out
    return _SUITE_FNS[name](d, n, seeds, jobs, seed, tol)
