import math

import numpy as np
import pytest

from qps.errors import NotInvertibleError, NotPrimeError
from qps.phase_space import (
    check_prime,
    field_inv,
    lex_smallest_solution,
    make_point,
    rref_mod,
    rref_subspaces,
    solve_linear_mod,
    subgroup_generators,
    symplectic_inner,
)


def test_check_prime():
    for d in (2, 3, 5, 7, 97, 257):
        assert check_prime(d) == d
    with pytest.raises(NotPrimeError):
        check_prime(9)
    with pytest.raises(NotPrimeError):
        check_prime(1)
    with pytest.raises(NotPrimeError):
        check_prime(263)  # prime but above the cap


@pytest.mark.parametrize("a,d,expected", [(2, 5, 3), (1, 7, 1), (2, 7, 4)])
def test_field_inv_examples(a, d, expected):
    assert field_inv(a, d) == expected


def test_field_inv_involution_and_error():
    for d in (3, 5, 7, 11):
        for a in range(1, d):
            assert field_inv(field_inv(a, d), d) == a
            assert (a * field_inv(a, d)) % d == 1
    with pytest.raises(NotInvertibleError):
        field_inv(0, 5)
    with pytest.raises(NotInvertibleError):
        field_inv(10, 5)


def test_symplectic_examples():
    assert symplectic_inner(make_point(1, 0, 3), make_point(0, 1, 3), 3) == 1
    assert symplectic_inner(make_point(2, 1, 5), make_point(1, 2, 5), 5) == 3


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_symplectic_bilinear_antisymmetric(d):
    pts = [make_point(p, q, d) for p in range(d) for q in range(d)]
    for x in pts:
        assert symplectic_inner(x, x, d) == 0
        for y in pts:
            s = symplectic_inner(x, y, d)
            assert symplectic_inner(y, x, d) == (-s) % d
            for t in range(d):
                tx = make_point(t * x[0], t * x[1], d)
                assert symplectic_inner(tx, y, d) == (t * s) % d


def test_subgroup_examples():
    trivial = subgroup_generators([make_point((0,), (0,), 3)], 3, 1)
    assert trivial.size == 1 and trivial.rank == 0

    line = subgroup_generators([make_point(1, 0, 3)], 3, 1)
    assert line.size == 3
    assert set(map(tuple, line.elements.tolist())) == {(0, 0), (1, 0), (2, 0)}

    pt = make_point((1, 0), (0, 1), 3)
    g = subgroup_generators([pt], 3, 2)
    assert g.size == 3 and g.rank == 1
    # brute-force span oracle
    seen = {(0,) * 4}
    frontier = {tuple(pt.tolist())}
    while frontier:
        seen |= frontier
        frontier = {
            tuple((np.array(a) + pt) % 3) for a in frontier
        } - seen
    assert set(map(tuple, g.elements.tolist())) == seen


def test_subgroup_span_and_idempotence():
    rng = np.random.default_rng(0)
    for d in (2, 3, 5):
        pts = rng.integers(0, d, (3, 4))
        g = subgroup_generators(pts, d, 2)
        assert g.size == d**g.rank
        again = subgroup_generators(g.elements, d, 2)
        assert again == g
        assert len(again.generators) == g.rank


def test_subgroup_equality_reads_the_reduced_basis():
    rng = np.random.default_rng(2)
    for d in (2, 3, 5):
        for _ in range(10):
            pts = rng.integers(0, d, (3, 4))
            g = subgroup_generators(pts, d, 2)
            redundant = np.vstack([pts[::-1], (pts[0] + 2 * pts[1]) % d, np.zeros(4, int)])
            h = subgroup_generators(redundant, d, 2)
            assert h == g and hash(h) == hash(g)
            assert np.array_equal(h.elements, g.elements)
            assert len({g, h, subgroup_generators(g.elements, d, 2)}) == 1
            for arr in (g.generators, g.elements):
                assert not arr.flags.writeable
    assert subgroup_generators([[1, 0]], 3, 1) != subgroup_generators([[0, 1]], 3, 1)
    assert subgroup_generators([[1, 0]], 3, 1) != subgroup_generators([[1, 0]], 5, 1)


@pytest.mark.parametrize("d,n", [(2, 1), (3, 1), (2, 2), (5, 2), (3, 3)])
def test_symplectic_inner_broadcast_matches_scalar_loop(d, n):
    rng = np.random.default_rng(d * 10 + n)
    xs, ys = rng.integers(0, d, (7, 2 * n)), rng.integers(0, d, (5, 2 * n))
    table = symplectic_inner(xs[:, None], ys[None], d)
    assert table.shape == (7, 5)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            s = symplectic_inner(x, y, d)
            assert type(s) is int
            assert s == sum(x[k] * y[n + k] - x[n + k] * y[k] for k in range(n)) % d
            assert table[i, j] == s
    assert np.array_equal(symplectic_inner(xs, ys[0], d), table[:, 0])


def test_rref_deterministic():
    A = np.array([[2, 1], [4, 2]])
    r1, p1 = rref_mod(A, 5)
    r2, p2 = rref_mod(A, 5)
    assert np.array_equal(r1, r2) and p1 == p2 == [0]


@pytest.mark.parametrize("k,d", [(4, 2), (4, 3), (2, 5)])
def test_rref_subspaces_yields_each_subspace_of_the_ranks_asked_for(k, d):
    # the Gaussian binomial [k, r]_d distinct bases of rank r, each its own RREF
    for r in range(k + 1):
        batches = list(rref_subspaces(k, d, [r]))
        assert all(b.shape[1:] == (r, k) for b in batches)
        bases = np.concatenate(batches)
        count = math.prod(d ** (k - i) - 1 for i in range(r)) // math.prod(
            d ** (i + 1) - 1 for i in range(r))
        assert len(bases) == len({b.tobytes() for b in bases}) == count
        for b in bases:
            assert np.array_equal(rref_mod(b, d)[0], b)


def test_solve_linear_examples():
    assert list(solve_linear_mod([[2]], [1], 5)) == [3]
    assert solve_linear_mod([[0]], [1], 3) is None
    x = solve_linear_mod([[1, 1], [0, 1]], [2, 1], 3)
    assert list(x) == [1, 1]


def test_solve_linear_exact_and_lex():
    rng, more = np.random.default_rng(1), np.random.default_rng(2)
    systems = [(d, rng.integers(0, d, (2, 4)), rng.integers(0, d, 2))
               for d in (2, 3, 5) for _ in range(20)]
    systems += [(d, more.integers(0, d, (rows, cols)), more.integers(0, d, rows))
                for d in (2, 3, 5) for rows in (1, 2, 3) for cols in (1, 2, 3, 4) for _ in range(5)]
    for d, A, b in systems:
        cols = A.shape[1]
        x = solve_linear_mod(A, b, d)
        brute = [
            v
            for v in np.indices((d,) * cols).reshape(cols, -1).T
            if not ((A @ v - b) % d).any()
        ]
        if x is None:
            assert not brute
            assert lex_smallest_solution(A, b, d) is None
        else:
            assert not ((A @ x - b) % d).any()
            lex = lex_smallest_solution(A, b, d)
            assert list(lex) == list(min(map(tuple, brute)))
