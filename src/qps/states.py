"""Density operators, characteristic and Wigner tables, MSPS enumeration.

A State is an immutable (d, n, matrix) triple validated as a density
operator by ``make_state``: positivity by a Cholesky factorization, or,
for a caller that reads the spectrum anyway, by the one ``eigvalsh`` that
gives it.  ``state_from_char`` is the one route from a characteristic table
back to a State and the one check of a table no matrix gave; the State
holds that table.  An MSPS is its table: ``msps_tables`` stacks the d^r tables of
an isotropic group of rank r, which the hudson suite transforms in one ``wigner`` and
``enumerate_msps`` builds States from.  The groups are the reduced bases [B_p | B_q]
with B_p B_q^T symmetric mod d, kept from each batch of ``phase_space.rref_subspaces``
(up to d^{n^2} bases, ``config.MAX_GROUP``) as ``PhaseSubgroup``s.  Characteristic
tables are complex ndarrays holding Xi(x) = Tr[rho w(-x)] over all of V^n, shape
(d,)*2n with the p coordinates on the first n axes (a stack adds one leading axis);
Wigner tables are real arrays of that shape.  d and n are read off a table as
shape[0] and ndim // 2.  Stabilizer groups are ``phase_space.PhaseSubgroup``s, each
one a reduced basis of [p | q] vectors with its sorted elements.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import MAX_ENUMERATION, MAX_GROUP, TOL_STATE
from .errors import IncompatibleError, NotStateError, TooLargeError, UnsupportedDimensionError
from .phase_space import PhaseSubgroup, check_prime, rref_subspaces
from .weyl import _dft_axes, chi, matrix_from_weyl_table, weyl_coefficient_table

# Absolute slack of the checks Xi(0) = 1 and |Xi| <= 1 on every cached table.
XI_CHECK_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class State:
    """A validated n-qudit density operator.

    Spectra are computed only when read, and each at most once per State:
    ``eigh`` caches one read-only eigendecomposition, and ``eigvals``
    returns its eigenvalues when it exists, else runs ``eigvalsh`` once
    (``make_state`` fills ``eigvals`` when its positivity test ran
    ``eigvalsh``, as for the ⊠ powers that ``qps clt`` and ``check_second_law``
    rebuild with ``spectrum=True``; ``convolve`` tests its results by Cholesky).
    The characteristic table, a read-only (d,)*2n array, is
    likewise held once: a State built by ``state_from_char`` holds the
    table it was built from, and ``char_function`` computes the table of
    any other State on first use.  Either passes ``_check_char`` once.
    Equality and hashing are by identity.
    """

    d: int
    n: int
    mat: np.ndarray
    _eigvals: np.ndarray | None = field(default=None, repr=False)
    _eigh: tuple | None = field(default=None, repr=False)
    _char: np.ndarray | None = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.d**self.n

    @property
    def eigvals(self) -> np.ndarray:
        """Eigenvalues of mat in ascending order (read-only, cached)."""
        if self._eigvals is None:
            if self._eigh is not None:
                vals = self._eigh[0]
            else:
                vals = np.linalg.eigvalsh(self.mat)
                vals.setflags(write=False)
            object.__setattr__(self, "_eigvals", vals)
        return self._eigvals

    @property
    def eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """(eigenvalues ascending, eigenvectors as columns) of mat (read-only, cached)."""
        if self._eigh is None:
            vals, vecs = np.linalg.eigh(self.mat)
            vals.setflags(write=False)
            vecs.setflags(write=False)
            object.__setattr__(self, "_eigh", (vals, vecs))
        return self._eigh

    def purity(self) -> float:
        return float(np.trace(self.mat @ self.mat).real)


def _hermitize(mat: np.ndarray, adj: np.ndarray) -> np.ndarray:
    """(mat + adj) / 2, computed in adj, a C-order copy of mat^dag."""
    np.add(mat, adj, out=adj)
    return np.multiply(0.5, adj, out=adj)


def make_state(mat, d: int, n: int | None = None, validate: bool = True,
               spectrum: bool = False) -> State:
    """Wrap a matrix as a State, re-Hermitizing and checking the invariants.

    With t = ``config.TOL_STATE``: every entry finite, Hermitian to t,
    unit trace to t, and every eigenvalue >= -t.  By default positivity is
    tested by a Cholesky factorization of the Hermitized matrix, which
    succeeds only when its smallest eigenvalue is at least -O(D eps), far
    above -t; only when it fails does ``eigvalsh`` run and decide.  With
    ``spectrum=True``, for a caller that reads the spectrum anyway,
    ``eigvalsh`` alone decides.  Eigenvalues that ``eigvalsh`` computed are
    kept as the State's ``eigvals``.
    """
    check_prime(d)
    mat = np.asarray(mat, dtype=complex)
    if n is None:
        n = round(np.log(mat.shape[0]) / np.log(d))
    if mat.shape != (d**n, d**n):
        raise IncompatibleError(f"matrix shape {mat.shape} is not ({d**n}, {d**n})")
    tol = TOL_STATE
    vals = None
    adj = np.conj(mat.T, order="C")  # the one D x D copy, Hermitized in place below
    if validate:
        if not np.isfinite(mat).all():
            raise NotStateError("matrix has a non-finite entry")
        rows = max(1, 4096 // len(mat))  # blocks of rows: no D x D difference is formed
        if any(np.abs(mat[i:i + rows] - adj[i:i + rows]).max() > tol
               for i in range(0, len(mat), rows)):
            raise NotStateError("matrix is not Hermitian within tolerance")
    mat = _hermitize(mat, adj)
    if validate:
        tr = np.trace(mat).real
        if abs(tr - 1.0) > tol:
            raise NotStateError(f"trace {tr} is not 1 within tolerance")
        if not spectrum:
            try:
                np.linalg.cholesky(mat)
            except np.linalg.LinAlgError:
                spectrum = True
        if spectrum:
            vals = np.linalg.eigvalsh(mat)
            if vals[0] < -tol:
                raise NotStateError(f"negative eigenvalue {vals[0]}")
            vals.setflags(write=False)
    mat.setflags(write=False)
    return State(d=d, n=int(n), mat=mat, _eigvals=vals)


def maximally_mixed(d: int, n: int) -> State:
    D = d**n
    return make_state(np.eye(D) / D, d, n, validate=False)


def pure_state(vec, d: int, n: int | None = None) -> State:
    v = np.asarray(vec, dtype=complex).ravel()
    norm = np.linalg.norm(v)
    if not (np.isfinite(norm) and norm > 0):
        raise NotStateError(f"state vector has norm {norm}")
    v = v / norm
    return make_state(np.outer(v, v.conj()), d, n, validate=False)


def basis_state(k: int, d: int, n: int = 1) -> State:
    v = np.zeros(d**n, dtype=complex)
    v[k] = 1.0
    return pure_state(v, d, n)


def tensor(a: State, b: State) -> State:
    if a.d != b.d:
        raise IncompatibleError("tensor factors must share d")
    return make_state(np.kron(a.mat, b.mat), a.d, a.n + b.n, validate=False)


def char_function(state: State) -> np.ndarray:
    """Xi_rho(x) = Tr[rho w(-x)] over all of V^n (read-only, cached on the State)."""
    if state._char is None:
        table = _check_char(weyl_coefficient_table(state.mat, state.d, state.n))
        object.__setattr__(state, "_char", table)
    return state._char


def _check_char(vals: np.ndarray) -> np.ndarray:
    """vals, made read-only in place, once it passes the Xi checks.

    Xi(0) = 1 and |Xi| <= 1 must hold to within XI_CHECK_TOL.  Every table
    a State holds passes here once, as it gets it; a table no State holds,
    such as a ⊠ power, is checked only when a State is built from it.
    """
    origin = abs(vals[(0,) * vals.ndim] - 1.0)
    if origin > XI_CHECK_TOL:
        raise NotStateError(f"Xi(0) = 1 violated by {origin:.2e}")
    if np.abs(vals).max() > 1 + XI_CHECK_TOL:
        raise NotStateError("characteristic value exceeds unit modulus")
    vals.setflags(write=False)
    return vals


def from_char(xi: np.ndarray) -> np.ndarray:
    """(1/d^n) sum_x Xi(x) w(x) for a (d,)*2n table Xi; not validated as a state."""
    return matrix_from_weyl_table(xi, xi.shape[0], xi.ndim // 2)


def state_from_char(xi: np.ndarray, spectrum: bool = False) -> State:
    """The State whose characteristic table is xi, holding xi (made read-only) as
    that table: xi passes ``_check_char``, then ``from_char`` is validated by
    ``make_state`` at the d and n read off the table (``spectrum`` as there)."""
    _check_char(xi)
    state = make_state(from_char(xi), xi.shape[0], xi.ndim // 2, spectrum=spectrum)
    object.__setattr__(state, "_char", xi)
    return state


def wigner(state) -> np.ndarray:
    """W_rho(u, v) = (1/d^n) Tr[rho T(u, v)] (read-only) of a State, of its characteristic
    table, or of a stack of tables on one leading axis (an ``msps_tables`` stack gives the
    stack of their Wigner tables): the symplectic transform (1/d^2n) sum_{p,q} Xi(p, q)
    chi(p.v - q.u), taken by ``weyl._dft_axes`` over the p axes (sign +1, p -> v), then the
    q axes (sign -1, q -> u).  Each table must be real and sum to 1 within 1e-9."""
    xi = char_function(state) if isinstance(state, State) else state
    d, n, lead = xi.shape[-1], xi.ndim // 2, xi.ndim % 2
    if d == 2:
        raise UnsupportedDimensionError("discrete Wigner functions need odd d")
    paxes, qaxes = tuple(range(lead, lead + n)), tuple(range(lead + n, lead + 2 * n))
    r = _dft_axes(_dft_axes(xi.copy(), d, paxes, 1), d, qaxes, -1)
    vals = np.moveaxis(r, qaxes + paxes, paxes + qaxes) / d ** (2 * n)  # reorder to (u, v)
    if np.abs(vals.imag).max() > 1e-9:
        raise NotStateError("Wigner table has a non-real entry")
    out = vals.real
    if (np.abs(out.sum(axis=paxes + qaxes) - 1.0) > 1e-9).any():
        raise NotStateError("Wigner table does not sum to 1")
    out.setflags(write=False)
    return out


def random_state(n: int, d: int, seed, rank: int | None = None) -> State:
    """Seeded Haar-ish mixed state G G^dag / Tr with G complex Gaussian."""
    D = d**n
    if rank is None:
        rank = D
    if not 1 <= rank <= D:
        raise IncompatibleError(f"rank {rank} is not in 1..{D}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((D, rank)) + 1j * rng.standard_normal((D, rank))
    mat = g @ g.conj().T
    return make_state(mat / np.trace(mat).real, d, n, validate=False)


def random_pure(n: int, d: int, seed) -> State:
    return random_state(n, d, seed, rank=1)


def _isotropic_subgroups(n: int, d: int, ranks) -> list[PhaseSubgroup]:
    """The isotropic subgroups of V^n of the given ranks; see the two callers."""
    check_prime(d)
    if n < 1:
        raise IncompatibleError(f"n must be >= 1, got {n}")
    if d ** (2 * n) > MAX_ENUMERATION:
        raise TooLargeError(f"d^2n = {d ** (2 * n)} exceeds the enumeration cap")
    if d ** (n * n) > MAX_GROUP:  # the rows of the largest batch, rank n at pivots 0..n-1
        raise TooLargeError(f"d^(n^2) = {d}^{n * n} candidate bases exceed the cap {MAX_GROUP}")
    groups = []
    for basis in rref_subspaces(2 * n, d, ranks):
        form = basis[..., :n] @ basis[..., n:].swapaxes(-1, -2)
        keep = ((form - form.swapaxes(-1, -2)) % d == 0).all(axis=(-1, -2))
        groups += [PhaseSubgroup(d, n, b) for b in basis[keep]]
    return sorted(groups, key=lambda g: (g.size, g.elements.tobytes()))


def enumerate_lagrangian_subgroups(n: int, d: int) -> list[PhaseSubgroup]:
    """The Lagrangian (maximal isotropic) subgroups of V^n, ordered by size, then by their
    elements' bytes: the rank-n subspaces of Z_d^{2n} whose reduced basis [B_p | B_q] has
    B_p B_q^T symmetric mod d.  A non-prime d and n < 1 are refused, and so, before any
    basis is built, are d^{2n} > ``config.MAX_ENUMERATION`` and d^{n^2} (the largest batch
    of candidate bases) > ``config.MAX_GROUP``, which alone refuses (5, 2), (6, 2), (4, 3)."""
    return _isotropic_subgroups(n, d, [n])


def enumerate_isotropic_subgroups(n: int, d: int) -> list[PhaseSubgroup]:
    """All isotropic (abelian-Weyl) subgroups of V^n: the subspaces of Z_d^{2n} of rank
    r <= n whose reduced basis [B_p | B_q] has B_p B_q^T symmetric mod d, ordered, refused
    and capped as ``enumerate_lagrangian_subgroups`` says."""
    return _isotropic_subgroups(n, d, range(n + 1))


def msps_tables(group: PhaseSubgroup) -> np.ndarray:
    """Xi of every MSPS of an isotropic group S, as one read-only (d^r,) + (d,)*2n stack:
    the rows of ``_msps_values(group)`` placed at the group's elements, 0 off S."""
    vals = _msps_values(group)
    tables = np.zeros((len(vals),) + (group.d,) * (2 * group.n), dtype=complex)
    tables[(slice(None),) + tuple(group.elements.T)] = vals
    tables.setflags(write=False)
    return tables


def _msps_values(group: PhaseSubgroup) -> np.ndarray:
    """The (d^r, d^r) values Xi_k(s_j) of the MSPS of an isotropic group S on its elements
    s_j = m_j . generators (the order of ``group.elements``), one row per character tuple k
    in ``product(range(d), repeat=r)`` order.

    k_i selects the chi(k_i) eigenspace of w(x_i) for each generator x_i, so Xi_k is a
    character of S: Xi_k(s) = chi(-k.m) c(m) at s = sum_i m_i x_i, with w(m_1 x_1) ...
    w(m_r x_r) = c(m) w(s).  c = 1 at odd d, as <s, x>_s = 0; at d = 2, w(s) w(x) =
    i^{t_p.t_q - s_p.s_q - x_p.x_q} (-1)^{s_q.x_p} w(t) with t = s + x mod 2.  A group that
    is not isotropic gives tables that ``state_from_char`` refuses.
    """
    d, n = group.d, group.n
    m = np.arange(d)
    points = np.zeros((1, 2 * n), dtype=np.int64)
    vals = np.ones((1, 1), dtype=complex)  # [characters so far, points so far]
    for gen in group.generators:
        s, x = points[:, None], m[:, None] * gen % d  # the points so far; the d points m x
        t = (s + x) % d
        phase = chi(-np.outer(m, m), d)[:, None]  # [k, 1, m]
        if d == 2:
            e = _pq(t) - _pq(s) - _pq(x) + 2 * (s[..., n:] * x[..., :n]).sum(axis=-1)
            phase = phase * np.array([1, 1j, -1, -1j])[e % 4]
        vals = (vals[:, None, :, None] * phase).reshape(d * len(vals), -1)
        points = t.reshape(-1, 2 * n)
    return vals


def _pq(v: np.ndarray) -> np.ndarray:
    """p.q of each [p | q] point on the last axis."""
    n = v.shape[-1] // 2
    return (v[..., :n] * v[..., n:]).sum(axis=-1)


def enumerate_msps(n: int, d: int) -> list[State]:
    """All minimal stabilizer-projection states at (n, d): the rows of each isotropic
    group's ``msps_tables``, in group order, built with ``spectrum=True``: every MSPS but
    I/D is rank-deficient, so ``eigvalsh`` decides its positivity rather than a failing
    Cholesky."""
    return [state_from_char(xi, spectrum=True)
            for group in enumerate_isotropic_subgroups(n, d) for xi in msps_tables(group)]


def enumerate_pure_stabilizers(n: int, d: int) -> list[tuple[State, PhaseSubgroup]]:
    """The pure stabilizer states with their groups, from the Lagrangians' ``msps_tables``,
    built and ordered as ``enumerate_msps`` builds and orders them."""
    return [(state_from_char(xi, spectrum=True), group)
            for group in enumerate_lagrangian_subgroups(n, d) for xi in msps_tables(group)]
