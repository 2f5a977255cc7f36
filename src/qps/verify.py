"""Theorem-check suites behind `qps verify`.

Every check is a CheckResult: a value against the bound of its family (its name up to a
suffix such as ".seed3") in ``config.CHECK_BOUNDS``, with slack bound - value ("at most") or
value - bound ("at least"); it passes at slack >= 0, never at NaN.  0/1 checks fail at 1.0.
Suites fan out over independent seeds and merge by seed index, so reports are byte-stable;
a process pool starts, and its modules load, only when more than one job is asked for.

A suite is its runner in ``_SUITE_FNS`` and its precondition in ``_refuse``; ``run_suite``
raises each selected suite's refusal before any suite runs ('all' skips hudson at d = 2).
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
from .config import CHECK_BOUNDS, DEFAULT, Tolerances, ensure_table_size, table_cap
from .errors import (
    ConfigError,
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
    value: float
    bound: float
    detail: str = ""

    @property
    def family(self) -> str:
        """The longest CHECK_BOUNDS key that is the name or a dotted prefix of it."""
        family = self.name
        while family not in CHECK_BOUNDS:  # ValueError once no dot is left
            family = family[:family.rindex(".")]
        return family

    @property
    def slack(self) -> float:
        at_most = CHECK_BOUNDS[self.family][1] == "at most"
        return self.bound - self.value if at_most else self.value - self.bound

    @property
    def passed(self) -> bool:
        return bool(self.slack >= 0)

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "slack": self.slack, "detail": self.detail}


def _result(family: str, value, suffix: str = "", detail: str = "") -> CheckResult:
    """Check family + suffix: value (a 0/1 check's failure flag) against the family's bound."""
    return CheckResult(family + suffix, float(value), CHECK_BOUNDS[family][0], detail)


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
    out.append(_result("weyl.commutation_exhaustive_n1", worst, detail=f"d={d}"))
    # orthonormality of the full basis at (d, n)
    D = d**n
    wn = w1 if n == 1 else _weyl_stack(d, n)
    mats = wn.reshape(d ** (2 * n), -1)
    gram = (mats.conj() @ mats.T) / D
    worst = float(np.abs(gram - np.eye(d ** (2 * n))).max())
    out.append(_result("weyl.orthonormality", worst, detail=f"d={d} n={n}"))
    if n > 1:  # the commutation relation on seeded pairs of V^n, where the phases are multi-site
        x, y = np.random.default_rng(21_000 + d).integers(0, d, size=(2, 64, 2 * n))
        worst = _commutation_worst(wn, x, y, d)
        out.append(_result("weyl.commutation_sampled", worst, detail=f"d={d} n={n}"))
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
    out.append(_result("weyl.key_unitary_generators", worst))
    if d != 2:
        gap = float(np.abs(w1.sum(axis=0) / d - weyl.parity_operator(d, 1)).max())
        out.append(_result("weyl.parity_sum", gap))
        worst = 0.0
        for p in range(d):
            for q in range(d):
                T = weyl.phase_point_operator(make_point(p, q, d), d)
                worst = max(worst, float(np.abs(T - T.conj().T).max()))
        out.append(_result("weyl.phase_point_hermitian", worst))
    U = weyl.random_clifford(n, d, 10, seed=7)
    out.append(_result("weyl.random_clifford_closes", not weyl.is_clifford(U, d, n)))
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
        out.append(_result("duality", gap, f".{klass}.seed{seed}", f"d={d} n={n}"))
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
            out.append(_result("majorization", ent.majorization_slack(a, b),
                               f".{klass}.{tag}.seed{seed}", f"d={d}"))
    # generalized extremality: spec(M(rho)) ≺ spec(rho)
    a, b = ent.clean_spectrum(mm.mean_state(rho, tol).mean), ent.clean_spectrum(rho)
    out.append(_result("majorization", ent.majorization_slack(a, b), f".mean_state.seed{seed}"))
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
            step = h_out - max(ent.renyi_entropy(inputs[tag], a) for tag in cv.bounding_inputs(pm))
            out.append(_result("entropy.increase", step, f".{klass}.a{a}.seed{seed}"))
    # extremality restatement H_a(M) = H_a + D_a(rho || M)
    rep = mm.mean_state(rho, tol)
    for a in (1.0, 2.0, math.inf):
        lhs = ent.renyi_entropy(rep.mean, a)
        rhs = ent.renyi_entropy(rho, a) + ent.renyi_relative(rho, rep.mean, a)
        out.append(_result("entropy.extremality", abs(lhs - rhs), f".a{a}.seed{seed}"))
    # additivity, both alphas on the one spectrum of rho ⊗ sigma
    joint = st.tensor(rho, sig)
    for a in (0.5, 2.0):
        gap = ent.renyi_entropy(joint, a) - ent.renyi_entropy(rho, a) - ent.renyi_entropy(sig, a)
        out.append(_result("entropy.additivity", abs(gap), f".a{a}.seed{seed}"))
    # subentropy Schur consistency
    q_rho, q_mean = ent.subentropy(rho), ent.subentropy(rep.mean)
    out.append(_result("entropy.subentropy_mean", q_mean - q_rho, f".seed{seed}"))
    return out


def suite_entropy(d: int, n: int, seeds: int, jobs: int = 1, seed: int = 0,
                  tol: Tolerances = DEFAULT):
    """Entropy checks at (d, n).

    The additivity check takes ``eigvalsh`` of rho ⊗ sigma, d^{4n} entries, so
    `_refuse` refuses this suite past the dense-table cap, as it does weyl.
    """
    out = _map_tasks(_entropy_task, d, n, seeds, jobs, seed, tol)
    ce = ent.second_law_counterexample(d, n)
    out.append(_result("entropy.counterexample_g10_zero", ce["h_sigma"] - ce["h_out"],
                       detail="H(rho ⊠ sigma) < H(sigma) when G is not odd-parity positive"))
    params = cv.default_params(d)
    rep = ent.check_second_law(st.random_state(n, d, seed=99), params, 8, (0.5, 1, 2))
    step = np.diff(rep.table, axis=0).min()  # the smallest entropy step over powers and alphas
    out.append(_result("entropy.second_law", step))
    if d ** (2 * n) <= 100 and params.positive:  # the equality case is stated for positive G
        eq = ent.check_equality_case(st.basis_state(0, d, n), params, 2, seed=3, tol=tol)
        gap_at_most, rise_above = (CHECK_BOUNDS[f"entropy.equality_case.{key}"][0]
                                   for key in ("equality_gap", "strict_increase"))
        holds = eq["equality_gap"] <= gap_at_most and eq["strict_increase"] > rise_above
        out.append(_result("entropy.equality_case", not holds))
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
    out.append(_result("fisher.convolution", rep.bound - rep.j_out, f".seed{seed}", f"eta={eta}"))
    lhs, rhs = fi.de_bruijn_check(rho)
    out.append(_result("fisher.de_bruijn", abs(lhs - rhs), f".seed{seed}"))
    # dephasing commutation for an even-parity G
    pm = sample_parity_matrix(rng, d, "even_only")
    worst = 0.0
    out_state = cv.convolve(rho, sig, pm)
    for axis in ("X", "Z"):
        left = fi.dephase(out_state, axis, 0)
        right = cv.convolve(fi.dephase(rho, axis, 0), sig, pm)
        worst = max(worst, float(np.abs(left.mat - right.mat).max()))
    out.append(_result("fisher.dephase_commutes", worst, f".seed{seed}"))
    if d != 2:
        ta, tb = 0.3, 0.7
        left = cv.convolve(fi.heat_semigroup(rho, ta), fi.heat_semigroup(sig, tb), params)
        right = fi.heat_semigroup(cv.convolve(rho, sig, params), ta + tb)
        gap = float(np.abs(left.mat - right.mat).max())
        out.append(_result("fisher.semigroup_intertwines", gap, f".seed{seed}"))
    return out


def suite_fisher(d: int, n: int, seeds: int, jobs: int = 1, seed: int = 0,
                 tol: Tolerances = DEFAULT):
    """Fisher checks, dense D x D eigendecompositions and ⊠ on d^{2n} tables: `_refuse`
    refuses d^{2n} past the cap ``convolve`` applies ((3, 6) fits; about 6 s a seed)."""
    out = _map_tasks(_fisher_task, d, n, seeds, jobs, seed, tol)
    rng = np.random.default_rng(77)
    D = d**n
    a = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
    b = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
    a, b = a + a.conj().T, b + b.conj().T
    gap = abs(np.trace(fi.liouvillean(a, d, n) @ b) - np.trace(a @ fi.liouvillean(b, d, n)))
    out.append(_result("fisher.liouvillean_hermitian", gap))
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
    out.append(_result("hudson.stabilizers_nonnegative", worst, detail=f"d={d}"))
    trials = max(seeds, 100)
    negative = 0
    for s in range(seed, seed + trials):
        psi = st.random_state(n, d, seed=s, rank=1)
        if st.wigner(psi).min() < -1e-10:
            negative += 1
    least = math.ceil(CHECK_BOUNDS["hudson.random_pure_negative"][0] * trials)  # share -> count
    out.append(CheckResult("hudson.random_pure_negative", float(negative), float(least),
                           f"{negative}/{trials} with a negative entry"))
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
            out.append(_result("channels.routes", True, f".{klass}.seed{seed}", str(exc)))
            continue
        gap = max(chn.choi_marginal_gap(conv.choi),
                  float(np.abs(conv.choi.mat - exact.choi.mat).max()))
        out.append(_result("channels.routes_marginal", gap, f".{klass}.seed{seed}"))
    pm = sample_parity_matrix(rng, d, "odd_only")
    absorbed = chn.convolve_channels(c1, chn.depolarizing_channel(d, n), pm)
    gap = float(np.abs(absorbed.choi.mat - np.eye(d ** (2 * n)) / d ** (2 * n)).max())
    out.append(_result("channels.absorb", gap, f".seed{seed}"))
    mean = chn.mean_channel(c1, tol)
    for a in (0.5, 1.0, 2.0, math.inf):
        step = chn.channel_entropy(mean, a) - chn.channel_entropy(c1, a)
        out.append(_result("channels.mean_extremality", step, f".a{a}.seed{seed}"))
    return out


def suite_channels(d: int, n: int, seeds: int, jobs: int = 1, seed: int = 0,
                   tol: Tolerances = DEFAULT):
    out = _map_tasks(_channels_task, d, n, seeds, jobs, seed, tol)
    # zero mean iff every Weyl image value is 0 or 1 holds at odd d; at d = 2 this
    # channel agrees with it only because it has neither property
    wch = chn.weyl_conjugation_channel((1,) * n + (0,) * n, d)
    vals = chn.weyl_image_char_values(wch)
    in_01 = bool(((np.abs(vals) < 1e-8) | (np.abs(vals - 1) < 1e-6)).all())
    agrees = in_01 == mm.read_thresholds(st.char_function(wch.choi), tol).zero_mean
    out.append(_result("channels.zero_mean_corollary", not agrees))
    return out


_SUITE_FNS = {key: globals()[f"suite_{key}"] for key in SUITES}


def _refuse(key: str, d: int, n: int) -> None:
    """Raise the QpsError that refuses suite key at (d, n), if any: the one place a
    suite's precondition is written.  `run_suite` calls it before any suite runs."""
    if key == "channels":
        chn._check_exact_dim(d, n)
    elif key == "hudson":
        if d == 2:
            raise UnsupportedDimensionError("the hudson suite reads discrete Wigner functions, "
                                            "which need odd d")
        st._check_enumeration(n, d)
    elif key in ("weyl", "entropy"):  # a d^{4n}-entry complex array
        cap = table_cap()
        if d ** (4 * n) > cap:
            does = "stacks" if key == "weyl" else "diagonalizes a tensor product of"
            raise TooLargeError(f"the {key} suite {does} d^4n = {d}^{4 * n} entries, "
                                f"past the dense-table cap {cap}")
    else:  # duality, majorization and fisher: D x D matrices and d^{2n} tables
        ensure_table_size(d, n)


def run_suite(name: str, d: int, n: int, seeds: int, jobs: int = 1, seed: int = 0,
              tol: Tolerances = DEFAULT):
    """Run one suite (or 'all'); returns an ordered list of CheckResults.

    seed offsets the per-seed task indices: the tasks run at seed .. seed +
    seeds - 1 and name their checks after them.  Inputs drawn outside the
    per-seed tasks are fixed.  'all' is every suite in SUITES order but hudson
    at d = 2.  n, seeds and jobs below 1, a negative seed, a non-prime d, an
    unknown name and each selected suite's `_refuse` (the channel oracle's
    first) are refused before any suite runs.
    """
    for key, value, least in (("n", n, 1), ("seeds", seeds, 1), ("jobs", jobs, 1),
                              ("seed", seed, 0)):
        if value < least:
            raise IncompatibleError(f"{key} must be >= {least}, got {value}")
    check_prime(d)
    if name == "all":
        keys = [key for key in SUITES if not (key == "hudson" and d == 2)]
    elif name in SUITES:
        keys = [name]
    else:
        raise ConfigError(f"unknown suite {name!r}; choose from {('all',) + SUITES}")
    for key in sorted(keys, key=lambda key: key != "channels"):  # channels, then SUITES order
        _refuse(key, d, n)
    return [check for key in keys for check in _SUITE_FNS[key](d, n, seeds, jobs, seed, tol)]
