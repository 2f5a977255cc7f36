"""Exact arithmetic over the prime field Z_d and the phase space V^n.

V^n = Z_d^n x Z_d^n indexes the Weyl basis.  A point is stored as the
pair (p, q) of length-n residue tuples; algorithms work on the flattened
length-2n integer vector [p | q].  Everything here is exact integer
arithmetic - no floats.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class PhasePoint:
    """A point (p, q) in V^n with all coordinates reduced mod d."""

    p: tuple
    q: tuple

    def __post_init__(self):
        object.__setattr__(self, "p", tuple(int(v) for v in self.p))
        object.__setattr__(self, "q", tuple(int(v) for v in self.q))
        if len(self.p) != len(self.q):
            raise IncompatibleError("p and q must have the same length")

    @property
    def n(self) -> int:
        return len(self.p)

    def vec(self) -> np.ndarray:
        """Flattened [p | q] integer vector of length 2n."""
        return np.array(self.p + self.q, dtype=np.int64)

    @classmethod
    def from_vec(cls, v) -> "PhasePoint":
        v = np.asarray(v, dtype=np.int64).ravel()
        n = v.size // 2
        return cls(tuple(v[:n]), tuple(v[n:]))

    def is_zero(self) -> bool:
        return not any(self.p) and not any(self.q)


def make_point(p, q, d: int) -> PhasePoint:
    """Build a PhasePoint with coordinates reduced into [0, d)."""
    if np.isscalar(p):
        p, q = (p,), (q,)
    return PhasePoint(tuple(int(v) % d for v in p), tuple(int(v) % d for v in q))


def symplectic_inner(x: PhasePoint, y: PhasePoint, d: int) -> int:
    """Symplectic inner product <x, y>_s = sum_k (p_k q'_k - q_k p'_k) mod d."""
    if x.n != y.n:
        raise IncompatibleError(f"points have n = {x.n} and n = {y.n}")
    total = sum(px * qy - qx * py for px, qx, py, qy in zip(x.p, x.q, y.p, y.q))
    return total % d


def rref_mod(A: np.ndarray, d: int):
    """Row-reduce A over Z_d.

    Deterministic pivoting: first nonzero entry in column order, rows
    swapped.  Returns (R, pivot_columns) with R in reduced row echelon form.
    """
    A = np.array(A, dtype=np.int64) % d
    rows, cols = A.shape
    pivots = []
    r = 0
    for c in range(cols):
        pr = None
        for i in range(r, rows):
            if A[i, c] % d:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            A[[r, pr]] = A[[pr, r]]
        A[r] = (A[r] * field_inv(int(A[r, c]), d)) % d
        for i in range(rows):
            if i != r and A[i, c]:
                A[i] = (A[i] - A[i, c] * A[r]) % d
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return A, pivots


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

    Greedy digit-by-digit: fix each coordinate to the smallest value that
    keeps the remaining system consistent.
    """
    A = np.atleast_2d(np.array(A, dtype=np.int64)) % d
    b = np.array(b, dtype=np.int64).ravel() % d
    if solve_linear_mod(A, b, d) is None:
        return None
    ncols = A.shape[1]
    x = np.zeros(ncols, dtype=np.int64)
    for j in range(ncols):
        for v in range(d):
            x[j] = v
            rhs = (b - A[:, : j + 1] @ x[: j + 1]) % d
            rest = A[:, j + 1 :]
            if rest.size == 0:
                if not rhs.any():
                    break
            elif solve_linear_mod(rest, rhs, d) is not None:
                break
        else:
            return None
    return x


class PhaseSubgroup:
    """An additive subgroup of V^n with an independent generator basis.

    Built by ``subgroup_generators``; elements are materialized (the size
    is d^r).  Equality and hashing go through the element set.
    """

    def __init__(self, d: int, n: int, generators, elements: np.ndarray):
        self.d = int(d)
        self.n = int(n)
        self.generators = tuple(generators)
        order = np.lexsort(elements.T[::-1]) if elements.size else np.array([], dtype=int)
        self.elements = elements[order]
        self._set = frozenset(map(tuple, self.elements.tolist()))

    @property
    def rank(self) -> int:
        return len(self.generators)

    @property
    def size(self) -> int:
        return len(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, point) -> bool:
        v = point.vec() if isinstance(point, PhasePoint) else np.asarray(point)
        return tuple(int(c) % self.d for c in v) in self._set

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PhaseSubgroup)
            and (self.d, self.n) == (other.d, other.n)
            and self._set == other._set
        )

    def __hash__(self) -> int:
        return hash((self.d, self.n, self._set))

    def __repr__(self) -> str:
        return f"PhaseSubgroup(d={self.d}, n={self.n}, size={self.size}, rank={self.rank})"

    def element_set(self) -> frozenset:
        return self._set

    def points(self):
        return [PhasePoint.from_vec(v) for v in self.elements]

    def is_isotropic(self) -> bool:
        """True when the symplectic form vanishes on the subgroup."""
        pts = [PhasePoint.from_vec(v) for v in self.elements]
        return all(
            symplectic_inner(x, y, self.d) == 0 for i, x in enumerate(pts) for y in pts[i:]
        )


def subgroup_generators(points, d: int, n: int | None = None) -> PhaseSubgroup:
    """Additive span of the given points with an independent basis.

    Gaussian elimination over Z_d on the 2n-coordinate vectors yields a
    reproducible generator basis; the span is materialized (size d^r).
    """
    pts = list(points)
    if n is None:
        if not pts:
            raise IncompatibleError("cannot infer n from an empty point set")
        n = pts[0].n if isinstance(pts[0], PhasePoint) else len(np.ravel(pts[0])) // 2
    vecs = [p.vec() if isinstance(p, PhasePoint) else np.asarray(p, dtype=np.int64) for p in pts]
    vecs = [v % d for v in vecs if (v % d).any()]
    if not vecs:
        zero = np.zeros((1, 2 * n), dtype=np.int64)
        return PhaseSubgroup(d, n, (), zero)
    R, pivots = rref_mod(np.array(vecs), d)
    basis = R[: len(pivots)]
    r = len(pivots)
    if d**r > MAX_GROUP:
        raise TooLargeError(f"subgroup of size {d}^{r} exceeds the cap {MAX_GROUP}")
    # span: elements indexed by coefficient tuples t in Z_d^r
    coeffs = np.indices((d,) * r).reshape(r, -1).T  # (d^r, r)
    elements = (coeffs @ basis) % d
    gens = tuple(PhasePoint.from_vec(v) for v in basis)
    return PhaseSubgroup(d, n, gens, elements.astype(np.int64))
