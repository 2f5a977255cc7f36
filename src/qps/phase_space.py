"""Exact arithmetic over the prime field Z_d and the phase space V^n.

V^n = Z_d^n x Z_d^n indexes the Weyl basis.  A point is the int64 vector
[p | q] of length 2n with entries reduced into [0, d), and a stack of
points is an array with that last axis.  A subgroup is held as its reduced
row echelon basis, which fixes it uniquely; ``rref_subspaces`` lists the
subspaces of Z_d^k of given ranks by it, and B = [B_p | B_q] is isotropic iff
B_p B_q^T - B_q B_p^T = 0 mod d.  ``PhaseSubgroup`` takes such a basis and
builds its d^r elements as one product, sorted by construction;
``subgroup_generators`` reduces any other spanning set first, by ``rref_mod``.
Everything here is exact integer arithmetic.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .config import MAX_GROUP
from .errors import IncompatibleError, NotInvertibleError, NotPrimeError, TooLargeError

# Desk-scale cap on the prime modulus.
MAX_PRIME = 257


def check_prime(d: int) -> int:
    """Validate a qudit dimension: prime by trial division, d <= 257."""
    d = int(d)
    if d < 2:
        raise NotPrimeError(f"dimension must be a prime >= 2, got {d}")
    if d > MAX_PRIME:
        raise NotPrimeError(f"dimension {d} exceeds the desk-scale cap {MAX_PRIME}")
    for f in range(2, int(d**0.5) + 1):
        if d % f == 0:
            raise NotPrimeError(f"{d} is not prime (divisible by {f})")
    return d


def field_inv(a: int, d: int) -> int:
    """Multiplicative inverse of a mod d; for prime d this is a^(d-2)."""
    a = int(a) % d
    if a == 0:
        raise NotInvertibleError(f"0 has no inverse mod {d}")
    return pow(a, -1, d)


def make_point(p, q, d: int) -> np.ndarray:
    """The point (p, q) of V^n as the int64 vector [p | q] reduced into [0, d).

    p and q are scalars (n = 1) or sequences of one length n.
    """
    p, q = np.atleast_1d(p), np.atleast_1d(q)
    if p.ndim != 1 or p.shape != q.shape:
        raise IncompatibleError("p and q must be sequences of the same length")
    return np.concatenate([p, q]).astype(np.int64) % d


def rref_mod(A: np.ndarray, d: int):
    """Row-reduce A over Z_d.

    Deterministic pivoting: first nonzero entry in column order, rows
    swapped.  Returns (R, pivot_columns) with R in reduced row echelon form:
    every pivot is 1 and is the only nonzero entry of its column, so the
    nonzero rows of R depend only on the row space of A.  Each pivot is one
    swap, one scaling and one rank-one update of every other row.
    """
    A = np.array(A, dtype=np.int64) % d
    pivots = []
    for c in range(A.shape[1]):
        r = len(pivots)
        below = np.flatnonzero(A[r:, c])
        if not below.size:
            continue
        A[[r, r + below[0]]] = A[[r + below[0], r]]
        A[r] = A[r] * field_inv(int(A[r, c]), d) % d
        factors = A[:, c].copy()
        factors[r] = 0
        A = (A - factors[:, None] * A[r]) % d
        pivots.append(c)
        if len(pivots) == len(A):
            break
    return A, pivots


def rref_subspaces(k: int, d: int, ranks):
    """Yield the subspaces of Z_d^k of each rank r in ``ranks`` as reduced row echelon bases,
    one (d^f, r, k) batch per pivot set c_0 < ... < c_{r-1}: row i is 1 at c_i, 0 at the other
    pivots and before c_i, and any of d values at the f other entries; f <= r (k - r)."""
    for r in ranks:
        for piv in map(list, combinations(range(k), r)):
            free = np.arange(k) > np.array(piv, dtype=int)[:, None]
            free[:, piv] = False
            rows, cols = np.nonzero(free)
            batch = np.zeros((d ** len(rows), r, k), dtype=np.int64)
            batch[:, range(r), piv] = 1
            batch[:, rows, cols] = np.indices((d,) * len(rows)).reshape(len(rows), len(batch)).T
            yield batch


def solve_linear_mod(A, b, d: int):
    """Any solution x of A x = b over Z_d, or None when inconsistent.

    Free variables are set to 0.  The result satisfies A x = b exactly as
    an integer congruence.
    """
    A = np.atleast_2d(np.array(A, dtype=np.int64)) % d
    b = np.array(b, dtype=np.int64).ravel() % d
    if A.shape[0] != b.size:
        raise IncompatibleError("A and b have mismatched shapes")
    aug = np.hstack([A, b[:, None]])
    R, pivots = rref_mod(aug, d)
    ncols = A.shape[1]
    if ncols in pivots:
        return None
    x = np.zeros(ncols, dtype=np.int64)
    for r, c in enumerate(pivots):
        x[c] = R[r, -1]
    return x


def lex_smallest_solution(A, b, d: int):
    """Lexicographically smallest solution of A x = b over Z_d, or None.

    One ``solve_linear_mod`` with the columns of A reversed.  Its free
    columns are those in the span of the columns after them, that is the
    coordinates at which some null vector of A is first nonzero: exactly
    the ones the smallest solution sets to 0, which then fix the rest.
    """
    x = solve_linear_mod(np.atleast_2d(A)[:, ::-1], b, d)
    return None if x is None else x[::-1]


class PhaseSubgroup:
    """An additive subgroup of V^n, held as its reduced basis.

    ``generators`` is an (r, 2n) reduced row echelon basis over Z_d, as ``rref_subspaces``
    yields it and ``subgroup_generators`` computes it; it is unique for the subgroup, so
    ``==`` and ``hash`` read it alone.  ``elements`` holds the d^r points m . generators for
    m in lexicographic order, which sorts them too: coordinate c_i (pivot i) of a point is
    m_i, and the coordinates before it read only m_0..m_{i-1}.  Both arrays are read-only;
    d^r > ``config.MAX_GROUP`` is refused before any element is built.
    """

    def __init__(self, d: int, n: int, generators: np.ndarray):
        self.d = int(d)
        self.n = int(n)
        r = len(generators)
        if self.d**r > MAX_GROUP:
            raise TooLargeError(f"subgroup of size {self.d}^{r} exceeds the cap {MAX_GROUP}")
        self.generators = generators
        self.elements = np.indices((self.d,) * r).reshape(r, self.d**r).T @ generators % self.d
        self.generators.setflags(write=False)
        self.elements.setflags(write=False)

    @property
    def rank(self) -> int:
        return len(self.generators)

    @property
    def size(self) -> int:
        return len(self.elements)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PhaseSubgroup)
            and (self.d, self.n) == (other.d, other.n)
            and np.array_equal(self.generators, other.generators)
        )

    def __hash__(self) -> int:
        return hash((self.d, self.n, self.generators.tobytes()))

    def __repr__(self) -> str:
        return f"PhaseSubgroup(d={self.d}, n={self.n}, size={self.size}, rank={self.rank})"


def subgroup_generators(points, d: int, n: int) -> PhaseSubgroup:
    """Additive span of the given points [p | q] (an array-like of length-2n
    vectors, possibly empty): the ``PhaseSubgroup`` of the nonzero rows of
    their ``rref_mod`` over Z_d."""
    R, pivots = rref_mod(np.asarray(points, dtype=np.int64).reshape(-1, 2 * n), d)
    return PhaseSubgroup(d, n, R[: len(pivots)])
