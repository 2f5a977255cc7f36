import time
import tracemalloc
from itertools import product

import numpy as np
import pytest

from qps import phase_space, states, weyl
from qps.config import TOL_STATE
from qps.convolution import hadamard_params
from qps.entropy import check_min_output_entropy
from qps.errors import (IncompatibleError, NotPrimeError, NotStateError, TooLargeError,
                        UnsupportedDimensionError)
from qps.mean_magic import is_msps, pauli_rank
from qps.phase_space import make_point, subgroup_generators, symplectic_inner

from helpers import (group_contains, group_elements_by_loop, hermitize, is_isotropic,
                     msps_char_by_loop, rref_mod_by_rows)


def test_make_state_validation():
    with pytest.raises(NotStateError):
        states.make_state(np.array([[1.0, 0.5], [0.0, 0.0]]), 2)  # not hermitian
    with pytest.raises(NotStateError):
        states.make_state(np.diag([0.9, 0.3]), 2)  # trace != 1
    with pytest.raises(NotStateError):
        states.make_state(np.diag([1.5, -0.5]), 2)  # negative eigenvalue


@pytest.mark.parametrize("where", [(0, 0), (0, 1)])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_make_state_refuses_non_finite(where, bad):
    mat = np.eye(3, dtype=complex) / 3
    mat[where] = bad
    mat[where[::-1]] = bad
    with pytest.raises(NotStateError, match="non-finite"):
        states.make_state(mat, 3)


@pytest.mark.parametrize("vec", [np.zeros(3), [1, np.nan, 0], [np.inf, 0, 0]])
def test_pure_state_refuses_vectors_with_no_direction(vec):
    with pytest.raises(NotStateError):
        states.pure_state(vec, 3)


def test_random_state_refuses_rank_out_of_range():
    for rank in (0, -1, 4):
        with pytest.raises(IncompatibleError):
            states.random_state(1, 3, seed=0, rank=rank)


def _with_min_eigenvalue(lam: float) -> np.ndarray:
    """A dense 4 x 4 unit-trace Hermitian matrix with smallest eigenvalue lam."""
    vals = np.array([lam, 0.2, 0.3, 0.5 - lam])
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    return (q * vals) @ q.conj().T


@pytest.mark.parametrize(
    "factor, accepted, eigs",
    [(-2.0, False, 1), (-0.5, True, 1), (0.0, True, None), (1.0, True, 0)],
)
def test_make_state_positivity_table(factor, accepted, eigs, eig_calls):
    # the Cholesky test accepts outright; eigvalsh decides only when it fails
    # (at lam = 0 either may happen, decided by rounding)
    mat = _with_min_eigenvalue(factor * TOL_STATE)
    eig_calls.clear()
    if accepted:
        state = states.make_state(mat, 2, 2)
        assert eigs is None or len(eig_calls) == eigs
        assert abs(state.eigvals[0] - factor * TOL_STATE) < 1e-15
    else:
        lo = np.linalg.eigvalsh(hermitize(mat))[0]
        eig_calls.clear()
        with pytest.raises(NotStateError) as info:
            states.make_state(mat, 2, 2)
        assert str(info.value) == f"negative eigenvalue {lo}"
        assert len(eig_calls) == eigs


@pytest.mark.parametrize("factor, accepted", [(-2.0, False), (-0.5, True), (0.0, True), (1.0, True)])
def test_make_state_spectrum_decides_by_eigvalsh(factor, accepted, eig_calls, monkeypatch):
    # spectrum=True: no Cholesky; one eigvalsh decides, and its values are the eigvals
    def no_cholesky(mat):
        raise AssertionError("Cholesky ran")

    monkeypatch.setattr(np.linalg, "cholesky", no_cholesky)
    mat = _with_min_eigenvalue(factor * TOL_STATE)
    want = np.linalg.eigvalsh(hermitize(mat))
    eig_calls.clear()
    if accepted:
        state = states.make_state(mat, 2, 2, spectrum=True)
        assert np.array_equal(state.eigvals, want) and not state.eigvals.flags.writeable
    else:
        with pytest.raises(NotStateError) as info:
            states.make_state(mat, 2, 2, spectrum=True)
        assert str(info.value) == f"negative eigenvalue {want[0]}"
    assert len(eig_calls) == 1


def test_validation_eigendecompositions(eig_calls):
    full = states.random_state(2, 3, seed=1).mat
    pure = states.random_pure(2, 3, seed=1).mat
    eig_calls.clear()
    states.make_state(full, 3, 2)
    assert len(eig_calls) == 0
    state = states.make_state(pure, 3, 2)
    assert len(eig_calls) == 1  # the eigvalsh fallback, kept as the State's eigvals
    state.eigvals
    assert len(eig_calls) == 1


def test_one_eigh_per_state(eig_calls):
    state = states.random_state(2, 3, seed=2)
    eig_calls.clear()
    vals, vecs = state.eigh
    assert state.eigh[1] is vecs and state.eigvals is vals
    assert not vals.flags.writeable and not vecs.flags.writeable
    assert len(eig_calls) == 1
    assert np.abs((vecs * vals) @ vecs.conj().T - state.mat).max() < 1e-14


def test_char_examples():
    table = states.char_function(states.maximally_mixed(3, 2))
    want = np.zeros((3,) * 4)
    want[0, 0, 0, 0] = 1
    assert np.abs(table - want).max() < 1e-12

    t0 = states.char_function(states.basis_state(0, 3))
    for p in range(3):
        for q in range(3):
            assert abs(t0[p, q] - (1.0 if q == 0 else 0.0)) < 1e-12


def test_char_against_trace_oracle():
    # production path is FFT-based; compare against explicit Tr[rho w(-x)]
    for d, n in [(2, 1), (3, 1), (2, 2), (3, 2)]:
        rho = states.random_state(n, d, seed=d * 7 + n)
        table = states.char_function(rho)
        vecs = np.indices((d,) * (2 * n)).reshape(2 * n, -1).T
        for v in vecs:
            neg = make_point([-x for x in v[:n]], [-x for x in v[n:]], d)
            direct = np.trace(rho.mat @ weyl.weyl_operator(neg, d))
            assert abs(table[tuple(v)] - direct) < 1e-11


def test_round_trip_and_linearity():
    rho = states.random_state(2, 3, seed=5)
    table = states.char_function(rho)
    assert np.abs(states.from_char(table) - rho.mat).max() < 1e-12
    sig = states.random_state(2, 3, seed=6)
    ta, tb = states.char_function(rho), states.char_function(sig)
    mix = 0.25 * ta + 0.75 * tb
    assert np.abs(
        states.from_char(mix) - 0.25 * rho.mat - 0.75 * sig.mat
    ).max() < 1e-12


@pytest.mark.parametrize("d, n", [(3, 5), (2, 3), (5, 2), (7, 1)])
@pytest.mark.parametrize("spectrum", [False, True])
def test_state_from_char_is_from_char_then_make_state(d, n, spectrum):
    xi = states.char_function(states.random_state(n, d, seed=d + n))
    built = states.state_from_char(xi, spectrum=spectrum)
    ref = states.make_state(states.from_char(xi), d, n, spectrum=spectrum)
    assert (built.d, built.n) == (d, n)
    assert built.mat.tobytes() == ref.mat.tobytes()
    assert (built._eigvals is None) == (ref._eigvals is None) == (not spectrum)
    assert built.eigvals.tobytes() == ref.eigvals.tobytes()


def _peak_above_start(call, D: int) -> float:
    """Peak traced memory above the start of call(), in units of one D x D complex array."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - start) / (16 * D * D)


def test_transform_and_validation_work_sets():
    # At (3, 5), D = 243; the transform tables are cached by the first calls.
    d, n = 3, 5
    xi = states.char_function(states.random_state(n, d, seed=4))
    mat = states.from_char(xi)
    states.make_state(mat, d, n, spectrum=True)
    assert _peak_above_start(lambda: states.from_char(xi), d**n) <= 2.25
    assert _peak_above_start(lambda: states.make_state(mat, d, n, spectrum=True), d**n) <= 1.25


@pytest.mark.parametrize("row", [0, 100, 242])
def test_make_state_checks_hermiticity_in_every_row(row):
    mat = states.random_state(5, 3, seed=2).mat.copy()
    mat[row, 7] += 2 * TOL_STATE
    with pytest.raises(NotStateError, match="Hermitian"):
        states.make_state(mat, 3, 5)
    mat[row, 7] -= 1.5 * TOL_STATE
    assert np.array_equal(states.make_state(mat, 3, 5).mat, hermitize(mat))


def test_parseval():
    for seed in range(5):
        rho = states.random_state(1, 5, seed=seed)
        table = states.char_function(rho)
        lhs = (np.abs(table) ** 2).sum() / 5
        assert abs(lhs - rho.purity()) < 1e-10


def test_wigner_basics(qutrit_magic):
    w = states.wigner(states.maximally_mixed(3, 1))
    assert np.abs(w - 1 / 9).max() < 1e-12
    assert states.wigner(states.basis_state(0, 3)).min() > -1e-12
    assert states.wigner(qutrit_magic).min() < -1e-6
    with pytest.raises(UnsupportedDimensionError):
        states.wigner(states.maximally_mixed(2, 1))


def test_wigner_against_point_operator_oracle():
    for d, n in ((3, 1), (5, 1), (7, 1), (3, 2)):
        rho = states.random_state(n, d, seed=3)
        w = states.wigner(rho)
        assert abs(w.sum() - 1) < 1e-9
        for x in np.ndindex(w.shape):
            T = weyl.phase_point_operator(np.array(x), d)
            assert abs(w[x] - np.trace(rho.mat @ T).real / d**n) < 1e-12
        # and np.fft: (1/d^2n) sum_{p,q} Xi(p,q) chi(p.v - q.u), axes reordered to (u, v)
        paxes, qaxes = tuple(range(n)), tuple(range(n, 2 * n))
        r = np.fft.fftn(np.fft.ifftn(states.char_function(rho), axes=paxes), axes=qaxes) / d**n
        assert np.abs(w - np.moveaxis(r, qaxes + paxes, paxes + qaxes).real).max() < 1e-12


def test_pauli_rank(t_state):
    assert pauli_rank(states.maximally_mixed(3, 2)) == 1
    assert pauli_rank(states.basis_state(0, 3)) == 3
    assert pauli_rank(t_state) == 3  # support {I, X, Y}


def test_pauli_rank_clifford_invariant():
    for seed in range(5):
        rho = states.random_state(1, 3, seed=seed, rank=2)
        U = weyl.random_clifford(1, 3, 8, seed=seed)
        conj = states.make_state(U @ rho.mat @ U.conj().T, 3)
        assert pauli_rank(conj) == pauli_rank(rho)


def test_msps_enumeration_counts():
    assert len(states.enumerate_msps(1, 3)) == 13
    assert len(states.enumerate_msps(1, 2)) == 7
    assert len(states.enumerate_msps(2, 2)) == 91
    assert len(states.enumerate_pure_stabilizers(1, 3)) == 12
    assert len(states.enumerate_pure_stabilizers(1, 2)) == 6
    with pytest.raises(TooLargeError):
        states.enumerate_msps(2, 11)


def test_enumerated_msps_are_msps():
    for st in states.enumerate_msps(1, 3):
        assert is_msps(st)
    for st, grp in states.enumerate_pure_stabilizers(1, 3):
        assert abs(st.purity() - 1) < 1e-10
        assert grp.size == 3
        assert is_isotropic(grp)


def _isotropic_subgroups_loop(n, d):
    """Reference enumeration: per-point orthogonality tests, groups keyed by element set."""
    nonzero = [v for v in np.indices((d,) * (2 * n)).reshape(2 * n, -1).T if v.any()]
    trivial = subgroup_generators([], d, n)
    found = {frozenset(map(tuple, trivial.elements.tolist())): trivial}
    frontier = [trivial]
    while frontier:
        nxt = []
        for grp in frontier:
            for v in nonzero:
                if group_contains(grp, v) or any(symplectic_inner(v, g, d) for g in grp.generators):
                    continue
                bigger = subgroup_generators(list(grp.generators) + [v], d, n)
                key = frozenset(map(tuple, bigger.elements.tolist()))
                if key not in found:
                    found[key] = bigger
                    nxt.append(bigger)
        frontier = nxt
    return sorted(found.values(), key=lambda g: (g.size, g.elements.tobytes()))


@pytest.mark.parametrize("n,d", [(1, 3), (1, 5), (1, 7), (2, 2), (2, 3), (3, 2)])
def test_isotropic_enumeration_matches_loop(n, d):
    got = states.enumerate_isotropic_subgroups(n, d)
    want = _isotropic_subgroups_loop(n, d)
    assert len(got) == len(want) and got == want
    for a, b in zip(got, want):
        assert np.array_equal(a.generators, b.generators)
        assert np.array_equal(a.elements, b.elements)
        assert is_isotropic(a)


@pytest.mark.parametrize("n,d", [(1, 2), (2, 2), (3, 2), (4, 2), (1, 3), (2, 3), (3, 3),
                                 (1, 5), (2, 5), (2, 7)])
def test_lagrangian_count_and_isotropy(n, d):
    # prod_k (d^k + 1) groups, each isotropic and of size d^n, distinct and sorted
    got = states.enumerate_lagrangian_subgroups(n, d)
    assert len(got) == np.prod([d**k + 1 for k in range(1, n + 1)])
    assert len(set(got)) == len(got)
    assert [g.elements.tobytes() for g in got] == sorted(g.elements.tobytes() for g in got)
    for g in got:
        assert g.size == d**n and g.rank == n
        assert not symplectic_inner(g.generators[:, None], g.generators, d).any()


@pytest.mark.parametrize("n,d", [(1, 5), (2, 2), (2, 3)])
def test_lagrangians_are_the_maximal_isotropic_groups(n, d):
    maximal = [g for g in _isotropic_subgroups_loop(n, d) if g.size == d**n]
    assert states.enumerate_lagrangian_subgroups(n, d) == maximal


@pytest.mark.parametrize("n,d,groups", [(3, 2, 514), (2, 5, 313)])
def test_each_isotropic_group_is_built_once(monkeypatch, n, d, groups):
    # one PhaseSubgroup per group, from its reduced basis: no span is built twice and
    # dropped, and no basis is row-reduced again
    calls, reductions = [], []
    real, real_rref = states.PhaseSubgroup, phase_space.rref_mod
    monkeypatch.setattr(states, "PhaseSubgroup", lambda *a: calls.append(a) or real(*a))
    monkeypatch.setattr(phase_space, "rref_mod", lambda *a: reductions.append(a) or real_rref(*a))
    assert len(states.enumerate_isotropic_subgroups(n, d)) == len(calls) == groups
    calls.clear()
    assert len(states.enumerate_lagrangian_subgroups(n, d)) == len(calls)
    assert reductions == []


@pytest.mark.parametrize("n,d", [(5, 2), (6, 2), (4, 3)])
def test_enumerations_past_the_batch_cap_are_refused_before_any_batch(monkeypatch, n, d):
    # d^(n^2) candidate bases of rank n exceed MAX_GROUP, though d^2n is under MAX_ENUMERATION
    yielded = []
    real = states.rref_subspaces

    def spy(*args):
        for batch in real(*args):
            yielded.append(batch.shape)
            yield batch

    monkeypatch.setattr(states, "rref_subspaces", spy)
    start = time.perf_counter()
    for enumerate_groups in (states.enumerate_isotropic_subgroups,
                             states.enumerate_lagrangian_subgroups):
        with pytest.raises(TooLargeError, match=f"d\\^\\(n\\^2\\) = {d}\\^{n * n}"):
            enumerate_groups(n, d)
    if d == 3:
        with pytest.raises(TooLargeError):
            check_min_output_entropy(hadamard_params(3), 3, n)
    assert yielded == [] and time.perf_counter() - start < 1.0


_LAG, _ISO = states.enumerate_lagrangian_subgroups, states.enumerate_isotropic_subgroups


@pytest.mark.parametrize("call,args,error", [
    (_LAG, (0, 3), IncompatibleError),
    (_ISO, (0, 3), IncompatibleError),
    (states.enumerate_msps, (0, 3), IncompatibleError),
    (check_min_output_entropy, (hadamard_params(3), 3, 0), IncompatibleError),
    (_LAG, (-1, 3), IncompatibleError),
    (_ISO, (-1, 3), IncompatibleError),
    (_LAG, (1, 4), NotPrimeError),
    (_ISO, (2, 4), NotPrimeError),
    (_LAG, (1, 1), NotPrimeError),
    (_ISO, (1, 1), NotPrimeError),
], ids=["lagrangians-n0", "isotropic-n0", "msps-n0", "scan-n0", "lagrangians-n-1",
        "isotropic-n-1", "lagrangians-d4", "isotropic-d4", "lagrangians-d1", "isotropic-d1"])
def test_enumerations_refuse_malformed_sizes(call, args, error):
    # n < 1 crashed, or returned [], and d = 4 or d = 1 went unchecked
    with pytest.raises(error):
        call(*args)


def _msps_power_loop(group, chars, d):
    """Reference MSPS: eigenprojectors as averaged operator powers (chi(-k) w(x))^m."""
    D = d**group.n
    P = np.eye(D, dtype=complex)
    for gen, k in zip(group.generators, chars):
        a = complex(weyl.chi(-int(k), d)) * weyl.weyl_operator(gen, d)
        acc = np.eye(D, dtype=complex)
        cur = np.eye(D, dtype=complex)
        for _ in range(d - 1):
            cur = cur @ a
            acc = acc + cur
        P = P @ (acc / d)
    return P / np.trace(P).real


@pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)])
def test_msps_from_group_matches_power_loop(d, n):
    # the table, the sign at d = 2 included, and the matrix built from it
    labels = [(group, chars) for group in states.enumerate_isotropic_subgroups(n, d)
              for chars in product(range(d), repeat=group.rank)]
    for state, (group, chars) in zip(states.enumerate_msps(n, d), labels, strict=True):
        want = _msps_power_loop(group, chars, d)
        assert np.abs(state.mat - want).max() <= 1e-12
        table = weyl.weyl_coefficient_table(want, d, n)
        assert np.abs(states.char_function(state) - table).max() <= 1e-12


def test_msps_from_group_refuses_a_group_that_is_not_isotropic():
    # X and Z on the first qutrit do not commute: no state has this table
    group = subgroup_generators([[1, 0, 0, 0], [0, 0, 1, 0]], 3, 2)
    assert not is_isotropic(group)
    with pytest.raises(NotStateError):
        states.state_from_char(states.msps_tables(group)[0], spectrum=True)


@pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)])
def test_iter_msps_tables_are_the_enumerated_states_tables(d, n):
    # the groups' msps_tables stacks are read-only; enumerate_msps builds from their rows
    stacks = [states.msps_tables(g) for g in states.enumerate_isotropic_subgroups(n, d)]
    assert not any(stack.flags.writeable for stack in stacks)
    built = states.enumerate_msps(n, d)
    for xi, state in zip((xi for stack in stacks for xi in stack), built, strict=True):
        assert np.array_equal(xi, states.char_function(state))


@pytest.mark.parametrize("n,d", [(1, 2), (1, 3), (1, 5), (2, 2), (2, 3), (3, 2), (2, 5), (3, 3),
                                 (4, 2), (2, 7)])
def test_groups_and_stacks_match_their_loops_bit_for_bit(n, d):
    # generators, elements and order against the row-by-row forms; tables where d^2n <= 729,
    # all rows of up to 2000 groups (a seeded sample of the 5125 at (3, 3), 19 381 at (4, 2))
    groups = states.enumerate_isotropic_subgroups(n, d)
    for g in groups:
        assert np.array_equal(g.generators, rref_mod_by_rows(g.generators, d)[0])
        assert np.array_equal(g.elements, group_elements_by_loop(g.generators, d))
    keys = [(g.size, g.elements.tobytes()) for g in groups]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    if d ** (2 * n) <= 729:
        for i in sorted(np.random.default_rng(0).permutation(len(groups))[:2000]):
            g = groups[i]
            stack = states.msps_tables(g)
            assert stack.shape == (d**g.rank,) + (d,) * (2 * n)
            for xi, chars in zip(stack, product(range(d), repeat=g.rank), strict=True):
                assert np.array_equal(xi, msps_char_by_loop(g, chars))


@pytest.mark.parametrize("n,d", [(1, 3), (2, 2), (2, 3), (3, 2), (2, 5)])
def test_each_stack_has_one_distinct_row_per_character(n, d):
    # d^rank rows, all distinct, each nonzero on exactly the |S| points of its group
    for g in states.enumerate_isotropic_subgroups(n, d):
        stack = states.msps_tables(g)
        assert len(stack) == d**g.rank
        assert len({xi.tobytes() for xi in stack}) == len(stack)
        on_group = np.zeros((d,) * (2 * n), dtype=bool)
        on_group[tuple(g.elements.T)] = True
        assert ((stack != 0) == on_group).all()


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_rref_mod_matches_the_row_loop(d):
    # full-rank and rank-deficient integer matrices, negative entries and entries >= d
    rng = np.random.default_rng(d)
    for _ in range(300):
        rows, cols, rank = rng.integers(0, 7), rng.integers(1, 9), rng.integers(0, 5)
        A = rng.integers(-2 * d, 2 * d, size=(rows, cols))
        if rng.integers(2):
            A = rng.integers(-d, d, size=(rows, rank)) @ rng.integers(-d, d, size=(rank, cols))
        R, pivots = phase_space.rref_mod(A, d)
        want, want_pivots = rref_mod_by_rows(A, d)
        assert np.array_equal(R, want) and R.dtype == want.dtype and pivots == want_pivots


def test_wigner_reads_a_table_as_its_state():
    rho = states.random_state(1, 5, seed=3)
    assert np.array_equal(states.wigner(states.char_function(rho)), states.wigner(rho))


@pytest.mark.parametrize("d,n", [(3, 1), (5, 1), (3, 2), (5, 2), (3, 3)])
def test_wigner_of_a_stack_is_the_stack_of_its_tables_wigner(d, n):
    # bit for bit, for a stabilizer stack and for a stack of random states' tables
    group = states.enumerate_lagrangian_subgroups(n, d)[-1]
    randoms = np.stack([states.char_function(states.random_state(n, d, seed=s)) for s in range(4)])
    for stack in (states.msps_tables(group), randoms):
        w = states.wigner(stack)
        assert w.shape == stack.shape and not w.flags.writeable
        assert np.array_equal(w, np.stack([states.wigner(xi) for xi in stack]))
    bad = randoms.copy()
    bad[2, (0,) * (2 * n)] = 2.0  # one table of the stack does not sum to 1
    with pytest.raises(NotStateError, match="sum to 1"):
        states.wigner(bad)


def test_state_from_char_holds_its_table():
    xi = np.array(states.char_function(states.random_state(2, 3, seed=7)))
    state = states.state_from_char(xi)
    assert states.char_function(state) is xi and not xi.flags.writeable


def test_state_from_char_checks_the_table_before_building(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("from_char ran")

    monkeypatch.setattr(states, "from_char", never)
    xi = np.array(states.char_function(states.random_state(1, 3, seed=1)))
    xi[1, 1] = 1.1
    with pytest.raises(NotStateError, match="unit modulus"):
        states.state_from_char(xi)


def test_random_state_contracts():
    pure = states.random_state(1, 5, seed=0, rank=1)
    assert abs(pure.purity() - 1) < 1e-10
    mixed = states.random_state(1, 5, seed=0)
    assert abs(np.trace(mixed.mat).real - 1) < 1e-12
    again = states.random_state(1, 5, seed=0)
    assert mixed.mat.tobytes() == again.mat.tobytes()


def test_records_holding_arrays_compare_and_hash_by_identity():
    from qps import channels, convolution, entropy, mean_magic

    def pair(make):
        return make(), make()

    rho = states.random_state(1, 3, seed=1)
    channel = channels.random_channel(1, 3, seed=2)
    cases = [
        pair(lambda: states.random_state(1, 3, seed=1)),
        pair(lambda: channels.random_channel(1, 3, seed=2)),
        pair(lambda: mean_magic.read_thresholds(states.char_function(rho))),
        pair(lambda: mean_magic.mean_state(rho)),
        pair(lambda: entropy.check_second_law(rho, convolution.hadamard_params(3), 2, (1,))),
        pair(lambda: channels.channel_clt(channel, convolution.hadamard_params(3), 2)),
    ]
    for a, b in cases:
        assert (a == a) is True and (a == b) is False and (a != b) is True
        assert b in [a, b] and len({a, b, a}) == 2
