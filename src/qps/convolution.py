"""The parameterized convolution rho ⊠ sigma and its named families.

G is a 2x2 invertible matrix over Z_d.  The convolution is
Tr_B[U (rho ⊗ sigma) U^dag] with U the key unitary.  ``convolve``
computes it through the convolution-multiplication duality
Xi_out(p, q) = Xi_rho(N g11 p, g00 q) Xi_sigma(-N g10 p, g01 q): two
Weyl-coefficient transforms, a gather and a pointwise product, O(D^2 log D)
for D = d^n.  ``convolve_char`` and ``convolve_wigner`` take and return
the plain (d,)*2n table arrays of ``states``.  The operator route, which
evaluates the partial trace by index gathering because U permutes basis
states (O(D^3)), is kept as ``_convolve_mats``: the independent oracle
that ``qps verify`` and the tests compare the production route against.  It reads U's basis
permutation from ``weyl.key_index_map``, as ``weyl.key_unitary`` and the
exact channel oracle do.  G is a ParamMatrix everywhere; its parity
class (``parity_class``) and the inputs that bound ⊠
(``bounding_inputs``) are decided here only.  ``char_powers`` is the one
loop over the powers ⊠^k rho, as unchecked tables.  ``clt_trajectory``,
which the state and channel CLTs share, reads them from one reading of the
zero-mean Xi_rho: M(rho) is its unit values on the group S, and each distance
to it is taken by Parseval, ||A||_2^2 = sum_x |Xi_A(x)|^2 / d^n, so no matrix is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import (
    IncompatibleError,
    SingularGError,
    UnsupportedGError,
)
from .mean_magic import MagicGapReport, mean_distance, read_thresholds, zero_mean_table
from .phase_space import PhaseSubgroup, check_prime, field_inv, subgroup_generators
from .states import State, char_function, state_from_char
from .weyl import _dft_axes, digit_table, encode_digits, key_index_map


@dataclass(frozen=True)
class ParamMatrix:
    """An invertible G = [[g00, g01], [g10, g11]] over Z_d with its parity flags."""

    d: int
    g00: int
    g01: int
    g10: int
    g11: int
    det: int
    n_inv: int  # N = det^{-1} mod d
    nontrivial: bool
    odd_parity_positive: bool
    even_parity_positive: bool
    positive: bool

    def as_array(self) -> np.ndarray:
        return np.array([[self.g00, self.g01], [self.g10, self.g11]], dtype=np.int64)

    @property
    def scalings(self) -> tuple:
        """⊠'s phase-space scalings mod d, ((A_p, A_q), (B_p, B_q)) = ((N g11, g00),
        (-N g10, g01)): Xi_out(p, q) = Xi_rho(A_p p, A_q q) Xi_sigma(B_p p, B_q q)."""
        d, N = self.d, self.n_inv
        return ((N * self.g11 % d, self.g00), (-N * self.g10 % d, self.g01))


PARITY_CLASSES = ("trivial", "even_only", "odd_only", "positive")


def parity_class(g00: int, g01: int, g10: int, g11: int) -> str:
    """G's class in ``PARITY_CLASSES`` from its zero pattern: trivial with two or more
    zeros, else odd-parity positive if g01 g10 != 0, even if g00 g11 != 0, or both."""
    if (g00 == 0) + (g01 == 0) + (g10 == 0) + (g11 == 0) >= 2:
        return "trivial"
    if g01 and g10:
        return "positive" if g00 and g11 else "odd_only"
    return "even_only"


def classify(G, d: int) -> ParamMatrix:
    """Classify a 2x2 parameter matrix; raises SingularGError when det = 0."""
    check_prime(d)
    if np.shape(G) != (2, 2):
        raise IncompatibleError("G must be 2x2")
    g = np.array(G, dtype=np.int64) % d
    g00, g01, g10, g11 = int(g[0, 0]), int(g[0, 1]), int(g[1, 0]), int(g[1, 1])
    det = (g00 * g11 - g01 * g10) % d
    if det == 0:
        raise SingularGError(f"G = {g.tolist()} is singular mod {d}")
    klass = parity_class(g00, g01, g10, g11)
    return ParamMatrix(
        d=d,
        g00=g00,
        g01=g01,
        g10=g10,
        g11=g11,
        det=det,
        n_inv=field_inv(det, d),
        nontrivial=klass != "trivial",
        odd_parity_positive=klass in ("odd_only", "positive"),
        even_parity_positive=klass in ("even_only", "positive"),
        positive=klass == "positive",
    )


def bounding_inputs(pm: ParamMatrix) -> tuple:
    """The inputs that bound rho ⊠ sigma: rho for even-parity, sigma for odd-parity
    and both for positive G.  A trivial G passes one input through up to a
    unitary: rho when g00 != 0, else sigma."""
    if pm.positive:
        return ("rho", "sigma")
    if pm.even_parity_positive:
        return ("rho",)
    if pm.odd_parity_positive:
        return ("sigma",)
    return ("rho",) if pm.g00 != 0 else ("sigma",)


def hadamard_params(d: int) -> ParamMatrix:
    """G = [[1, 1], [1, -1]]; positive for every odd prime d."""
    if d == 2:
        raise UnsupportedGError("the Hadamard convolution needs odd d")
    return classify([[1, 1], [1, d - 1]], d)


def beam_splitter_params(s: int, t: int, d: int) -> ParamMatrix:
    """G = [[s, t], [t, -s]] with s^2 + t^2 = 1 mod d."""
    s, t = int(s) % d, int(t) % d
    if (s * s + t * t) % d != 1:
        raise UnsupportedGError(f"(s, t) = ({s}, {t}) violates s^2 + t^2 = 1 mod {d}")
    return classify([[s, t], [t, (-s) % d]], d)


def amplifier_params(l: int, m: int, d: int) -> ParamMatrix:
    """G = [[l, -m], [-m, l]] with l^2 - m^2 = 1 mod d."""
    l, m = int(l) % d, int(m) % d
    if (l * l - m * m) % d != 1:
        raise UnsupportedGError(f"(l, m) = ({l}, {m}) violates l^2 - m^2 = 1 mod {d}")
    return classify([[l, (-m) % d], [(-m) % d, l]], d)


_CNOT_MATRICES = {
    1: [[1, 0], [1, 1]],  # CNOT_{2->1}
    2: [[1, 1], [0, 1]],  # CNOT_{1->2}
    3: [[0, 1], [1, 1]],  # SWAP . CNOT_{1->2}
    4: [[1, 1], [1, 0]],  # SWAP . CNOT_{2->1}
}


def cnot_family(index: int) -> ParamMatrix:
    """The four nontrivial qubit convolutions (d = 2)."""
    if index not in _CNOT_MATRICES:
        raise IncompatibleError("cnot_family index must be 1..4")
    return classify(_CNOT_MATRICES[index], 2)


def as_param_matrix(G, d: int) -> ParamMatrix:
    """G as a ParamMatrix over Z_d: a ParamMatrix over Z_d as it is, a 2 x 2 integer
    array by ``classify``; anything else raises IncompatibleError."""
    if isinstance(G, ParamMatrix):
        if G.d != d:
            raise IncompatibleError(f"G is over Z_{G.d}, states over Z_{d}")
        return G
    return classify(G, d)


def _convolve_mats(rho: np.ndarray, sigma: np.ndarray, pm: ParamMatrix, d: int, n: int) -> np.ndarray:
    """Operator-route rho ⊠ sigma on raw matrices: the oracle for ``convolve``."""
    D = d**n
    A, B = key_index_map(pm.as_array(), d, n)
    out = np.zeros((D, D), dtype=complex)
    for j in range(D):
        ra, rb = A[:, j], B[:, j]
        out += rho[np.ix_(ra, ra)] * sigma[np.ix_(rb, rb)]
    return out


def convolve(rho: State, sigma: State, params) -> State:
    """rho ⊠ sigma = Tr_B[U (rho ⊗ sigma) U^dag], by the duality route.

    Both characteristic tables are dense d^{2n} arrays, so this raises
    TooLargeError when d^{2n} exceeds ``config.table_cap()`` (``MAX_TABLE``,
    lowered by QPS_MAX_DIM).  The result is ``state_from_char`` of the product
    table Xi_out and holds that table, so its readers (``qps conv --form
    char``, a further ⊠) transform nothing.
    """
    if (rho.d, rho.n) != (sigma.d, sigma.n):
        raise IncompatibleError(
            f"states live on (d, n) = ({rho.d}, {rho.n}) and ({sigma.d}, {sigma.n})"
        )
    pm = as_param_matrix(params, rho.d)
    return state_from_char(convolve_char(char_function(rho), char_function(sigma), pm))


@lru_cache(maxsize=None)
def _register_scaling(d: int, n: int, c: int) -> np.ndarray:
    """pi_c: the register index of the digits c * digits(k) mod d, for each k < d^n."""
    perm = encode_digits((c * digit_table(d, n)) % d, d)
    perm.setflags(write=False)
    return perm


def _scale_axes(values: np.ndarray, cp: int, cq: int) -> np.ndarray:
    """The table x -> values[cp x_p, cq x_q] on the (d,)*2n grid (p axes first).

    Scaling every p digit by cp maps the p register index k to
    pi_cp[k] (see ``_register_scaling``), so the table is one gather of
    the (d^n, d^n) view by two index vectors of length d^n.
    """
    d, n = values.shape[0], values.ndim // 2
    D = d**n
    rows = _register_scaling(d, n, cp % d)
    cols = _register_scaling(d, n, cq % d)
    return values.reshape(D, D)[np.ix_(rows, cols)].reshape(values.shape)


def convolve_char(xr: np.ndarray, xs: np.ndarray, params) -> np.ndarray:
    """Duality route: Xi_out(p, q) = Xi_rho(N g11 p, g00 q) Xi_sigma(-N g10 p, g01 q)."""
    if xr.shape != xs.shape:
        raise IncompatibleError(f"characteristic tables of shapes {xr.shape} and {xs.shape}")
    (ap, aq), (bp, bq) = as_param_matrix(params, xr.shape[0]).scalings
    vals = _scale_axes(xr, ap, aq)  # a fresh array, multiplied in place
    vals *= _scale_axes(xs, bp, bq)
    vals.setflags(write=False)
    return vals


def convolve_wigner(wr: np.ndarray, ws: np.ndarray, params) -> np.ndarray:
    """Wigner-function convolution; needs a positive G (all entries invertible).

    W_out(u, v) = sum_{u', v'} W_rho(g00^{-1} u', (N g11)^{-1} v')
    W_sigma(g01^{-1} (u - u'), -(N g10)^{-1} (v - v')): a cyclic
    convolution of the two rescaled tables on Z_d^{2n}, taken as the
    inverse ``weyl._dft_axes`` of the product of their forward ones.
    """
    if wr.shape != ws.shape:
        raise IncompatibleError(f"Wigner tables of shapes {wr.shape} and {ws.shape}")
    d = wr.shape[0]
    pm = as_param_matrix(params, d)
    if not pm.positive:
        raise UnsupportedGError("the Wigner convolution formula needs positive G")
    (ap, aq), (bp, bq) = pm.scalings
    a = _scale_axes(wr, field_inv(aq, d), field_inv(ap, d))
    b = _scale_axes(ws, field_inv(bq, d), field_inv(bp, d))
    axes = range(wr.ndim)
    fa = _dft_axes(a.astype(complex), d, axes, -1)
    np.multiply(fa, _dft_axes(b.astype(complex), d, axes, -1), out=fa)
    out = _dft_axes(fa, d, axes, 1).real / d**wr.ndim
    out.setflags(write=False)
    return out


def char_powers(xr: np.ndarray, params, N: int):
    """The one loop over ⊠ powers: an iterator over the read-only tables Xi_0 = xr,
    ..., Xi_N of ⊠^k rho for xr = Xi_rho, with Xi_{k+1} = ``convolve_char``(Xi_k, xr)
    for one G (see ``as_param_matrix``).  N and G are checked at the call; no power
    is: each caller checks each power k >= 1 once, by building its State with
    ``states.state_from_char``.  Only xr and the current power are held.
    """
    if N < 0:
        raise IncompatibleError("N must be >= 0")
    pm = as_param_matrix(params, xr.shape[0])

    def powers():
        xi = xr
        yield xi
        for _ in range(N):
            xi = convolve_char(xi, xr, pm)
            yield xi

    return powers()


def clt_trajectory(rho: State, params, N: int, tol: Tolerances = DEFAULT):
    """The quantum CLT on tables: (x, MG(rho), rows), with rows an iterator over
    (Xi_k, ||⊠^k r - M(r)||_2, (1 - MG(rho))^k ||r - M(r)||_2) for k = 0..N, where
    r = w(x) rho w(x)^dag has zero mean and Xi_k is the read-only table of ⊠^k r.

    One ``mean_magic.read_thresholds`` of Xi_rho gives S, MG(rho) and the phases
    that ``mean_magic.zero_mean_table`` shifts away; the shift leaves |Xi|, so the
    reading holds for r too.  The tables are ``char_powers``(Xi_r, G, N), which a
    caller checks by building a power as a State (``states.state_from_char``).
    Distances are taken by Parseval (``mean_magic.mean_distance``); rho is not held.
    """
    xr = char_function(rho)
    reading = read_thresholds(xr, tol)
    shift, xr = zero_mean_table(xr, reading)
    distance = mean_distance(xr, reading.group)
    mg = MagicGapReport.from_reading(reading).gap
    base = distance(xr)
    return shift, mg, ((xi, distance(xi), (1 - mg) ** k * base)
                       for k, xi in enumerate(char_powers(xr, params, N)))


@dataclass(frozen=True)
class SolutionClass:
    """An equivalence class of (s, t) parameter pairs."""

    representative: tuple
    members: tuple


def solve_params(d: int, family: str) -> list[SolutionClass]:
    """All (s, t) classes with s^2 +/- t^2 = 1 mod d and s not in {0, +-1}.

    circle: classes {(+-s, +-t), (+-t, +-s)}; hyperbola: {(+-s, +-t)}
    (swapping does not preserve s^2 - t^2 = 1).  Brute force; the class
    counts match floor((d+1)/8) and floor((d-3)/4) respectively.
    """
    check_prime(d)
    if family not in ("circle", "hyperbola"):
        raise IncompatibleError("family must be 'circle' or 'hyperbola'")
    sign = 1 if family == "circle" else -1
    banned = {0, 1, (d - 1) % d}
    raw = set()
    for s in range(d):
        if s in banned:
            continue
        for t in range(d):
            if (s * s + sign * t * t) % d == 1:
                raw.add((s, t))
    classes = []
    seen = set()
    for pair in sorted(raw):
        if pair in seen:
            continue
        s, t = pair
        members = {((es * s) % d, (et * t) % d) for es in (1, -1) for et in (1, -1)}
        if family == "circle":
            members |= {((es * t) % d, (et * s) % d) for es in (1, -1) for et in (1, -1)}
        members &= raw
        seen |= members
        members = tuple(sorted(members))
        classes.append(SolutionClass(representative=members[0], members=members))
    classes.sort(key=lambda c: c.representative)
    return classes


def family_params(family: str, d: int) -> ParamMatrix:
    """G of a named family: "hadamard", or the first (s, t) class of "beam-splitter"
    (the circle) or of "amplifier" (the hyperbola); a d with no class raises."""
    if family == "hadamard":
        return hadamard_params(d)
    if family not in ("beam-splitter", "amplifier"):
        raise IncompatibleError(f"unknown family {family!r}")
    conic, pair, build = {"beam-splitter": ("circle", "(s,t)", beam_splitter_params),
                          "amplifier": ("hyperbola", "(l,m)", amplifier_params)}[family]
    classes = solve_params(d, conic)
    if not classes:
        raise UnsupportedGError(f"no {pair} classes for d={d}")
    return build(*classes[0].representative, d)


def default_params(d: int) -> ParamMatrix:
    """The G used when none is chosen: the first beam-splitter class, else
    Hadamard for odd d (both positive), else the even-parity ``cnot_family(1)``.
    """
    try:
        return family_params("beam-splitter", d)
    except UnsupportedGError:  # no (s, t) class
        return cnot_family(1) if d == 2 else hadamard_params(d)


def transformed_stabilizer_group(group: PhaseSubgroup, params) -> PhaseSubgroup:
    """{(-g10^{-1} g11 p, g01^{-1} g00 q) : (p, q) in S}; needs odd-parity positive G."""
    d = group.d
    pm = as_param_matrix(params, d)
    if not pm.odd_parity_positive:
        raise UnsupportedGError(
            f"the group transform needs an odd-parity positive G; {pm.as_array().tolist()} is not"
        )
    (ap, aq), (bp, bq) = pm.scalings  # the map is A B^-1, linear: the scaled basis spans the image
    scale = np.repeat([ap * field_inv(bp, d), aq * field_inv(bq, d)], group.n)
    return subgroup_generators(group.generators * scale, d, group.n)
