"""Property tests: production routes against their oracles at drawn (d, n, point, G, seed).

Each property keeps the tolerance of the matching fixed-case test.
"""

from functools import lru_cache

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as hs  # noqa: E402

from qps import channels as ch  # noqa: E402
from qps import convolution as cv  # noqa: E402
from qps import entropy as ent  # noqa: E402
from qps import fisher as fi  # noqa: E402
from qps import mean_magic as mm  # noqa: E402
from qps import states, verify, weyl  # noqa: E402
from qps.config import DEFAULT, Tolerances  # noqa: E402
from qps.errors import InternalInconsistencyError, PhaseNotRootOfUnityError  # noqa: E402
from qps.phase_space import make_point  # noqa: E402

from helpers import (  # noqa: E402
    commutation_phase,
    fisher_total_dephasing,
    site_basis,
    site_shape,
    threshold_reading_by_points,
    weyl_literal,
)

PROFILE = settings(max_examples=30, deadline=None, derandomize=True, database=None)

# (d, n) with D = d^n small enough for dense oracles on every draw
SYSTEMS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)]
seeds = hs.integers(0, 2**31 - 1)


@hs.composite
def point_pairs(draw):
    d, n = draw(hs.sampled_from(SYSTEMS))
    coords = hs.lists(hs.integers(0, d - 1), min_size=2 * n, max_size=2 * n)
    return d, np.array(draw(coords)), np.array(draw(coords))


@PROFILE
@given(point_pairs())
def test_commutation_relation(case):
    # w(x) w(y) = c w(x + y); for d = 2 the sum label is read unreduced
    d, x, y = case
    lhs = weyl.weyl_operator(x, d) @ weyl.weyl_operator(y, d)
    n = len(x) // 2
    ps, qs = (x + y)[:n], (x + y)[n:]
    if d == 2:
        total = weyl_literal(ps, qs, d)
    else:
        total = weyl.weyl_operator(make_point(ps, qs, d), d)
    assert np.abs(lhs - commutation_phase(x, y, d) * total).max() < 1e-12


@hs.composite
def duality_cases(draw):
    d, n = draw(hs.sampled_from(SYSTEMS))
    entries = hs.lists(hs.integers(0, d - 1), min_size=4, max_size=4).filter(
        lambda g: (g[0] * g[3] - g[1] * g[2]) % d != 0
    )
    g00, g01, g10, g11 = draw(entries)
    return d, n, [[g00, g01], [g10, g11]], draw(seeds), draw(seeds)


@PROFILE
@given(duality_cases())
def test_convolve_matches_operator_oracle(case):
    # duality route against the operator route, and the handed Xi against
    # a fresh transform of the result
    d, n, G, seed_rho, seed_sigma = case
    rho = states.random_state(n, d, seed=seed_rho)
    sigma = states.random_state(n, d, seed=seed_sigma)
    out = cv.convolve(rho, sigma, G)
    oracle = cv._convolve_mats(rho.mat, sigma.mat, cv.classify(G, d), d, n)
    assert np.abs(out.mat - oracle).max() < 1e-10
    fresh = weyl.weyl_coefficient_table(out.mat, d, n)
    assert np.abs(states.char_function(out) - fresh).max() < 1e-12


@PROFILE
@given(hs.sampled_from(SYSTEMS), seeds, hs.sampled_from([1e-3, 1e-2, 0.1, 0.5]))
def test_fisher_total_matches_dephasing_oracle(system, seed, eta):
    d, n = system
    rho = fi.smooth(states.random_state(n, d, seed=seed), eta)
    j = fi.fisher_total(rho)
    assert abs(j - fisher_total_dephasing(rho)) <= 1e-8 * max(1.0, abs(j))


def _fisher_total_eigenbasis(state):
    """Sum over the site projectors P of |(V^dag P V)_ij|^2 (l_i - l_j)(log2 l_i - log2 l_j)."""
    vals, vecs = np.linalg.eigh(state.mat)
    logs = np.log2(vals)
    weight = np.subtract.outer(vals, vals) * np.subtract.outer(logs, logs)
    d, n = state.d, state.n
    D = d**n
    total = 0.0
    for site in range(n):
        for axis in ("X", "Z"):
            w = weyl.apply_site_gate(vecs, site_basis(axis, d).conj().T, [site], d, n)
            w = w.reshape(site_shape(d, n, site) + (D,))
            for j in range(d):
                wj = w[:, j].reshape(-1, D)
                h = wj.conj().T @ wj
                total += float(np.sum((h.real**2 + h.imag**2) * weight))
    return total


@PROFILE
@given(
    hs.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2)]),
    seeds,
    hs.floats(1e-3, 0.9),
)
def test_fisher_total_matches_eigenbasis_sum(system, seed, eta):
    # the trace form against the closed form in rho's eigenbasis
    d, n = system
    rho = fi.smooth(states.random_state(n, d, seed=seed), eta)
    ref = _fisher_total_eigenbasis(rho)
    assert abs(fi.fisher_total(rho) - ref) <= 1e-12 * abs(ref)


@PROFILE
@given(
    hs.sampled_from([(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (7, 1)]),
    seeds,
    hs.sampled_from(["even_only", "odd_only", "positive"]),
)
def test_channel_routes_agree(system, seed, klass):
    d, n = system
    if d == 2 and klass == "positive":
        klass = "even_only"
    rng = np.random.default_rng(seed)
    pm = verify.sample_parity_matrix(rng, d, klass)
    c1 = ch.random_channel(n, d, seed=rng.integers(2**31))
    c2 = ch.random_channel(n, d, seed=rng.integers(2**31))
    out = ch.convolve_channels(c1, c2, pm)
    exact = ch._convolve_channels_exact(c1, c2, pm)
    assert np.abs(out.choi.mat - exact.choi.mat).max() <= 1e-9


@pytest.mark.parametrize("klass", cv.PARITY_CLASSES)
@PROFILE
@given(data=hs.data())
def test_char_powers_match_the_convolve_chain(klass, data):
    # every table is char_function of the power chained with convolve, bit for bit
    d, n = data.draw(hs.sampled_from([s for s in SYSTEMS if klass in verify._drawable(s[0])]))
    rng = np.random.default_rng(data.draw(seeds))
    pm = verify.sample_parity_matrix(rng, d, klass)
    rho = states.random_state(n, d, seed=rng.integers(2**31))
    tables = list(cv.char_powers(states.char_function(rho), pm, data.draw(hs.integers(0, 4))))
    power = rho
    for k, xi in enumerate(tables):
        power = cv.convolve(power, rho, pm) if k else rho
        assert np.array_equal(xi, states.char_function(power))


# the default thresholds and overrides of each, as --tol-one / --tol-supp set them
TOLERANCES = [DEFAULT, Tolerances(tol_one=1e-6), Tolerances(tol_one=1e-3, tol_supp=1e-6),
              Tolerances(tol_one=0.25, tol_supp=0.1), Tolerances(tol_supp=0.3)]
MSPS_SYSTEMS = [(2, 1), (2, 2), (3, 1), (5, 1)]


@lru_cache(maxsize=None)
def _msps(d, n):
    return states.enumerate_msps(n, d)


def _assert_reading_matches_points(xi, tol):
    """read_thresholds(xi, tol) against the point-by-point reading, errors included."""
    try:
        S, phases, zero_mean, support, second = threshold_reading_by_points(xi, tol)
    except InternalInconsistencyError:
        with pytest.raises(InternalInconsistencyError):
            mm.read_thresholds(xi, tol)
        return
    try:
        reading = mm.read_thresholds(xi, tol)
    except PhaseNotRootOfUnityError:
        assert None in phases.values()
        return
    assert reading.group.size == len(S) and {tuple(x) for x in reading.group.elements} == S
    assert reading.phases == tuple(phases[tuple(g)] for g in reading.group.generators)
    assert reading.zero_mean is zero_mean
    assert {tuple(x) for x in np.argwhere(reading.support)} == support
    assert reading.support_size == len(support)
    assert reading.second_max == second


@PROFILE
@given(hs.sampled_from(SYSTEMS), seeds, hs.booleans(), hs.sampled_from(TOLERANCES))
def test_threshold_reading_of_random_states(system, seed, pure, tol):
    d, n = system
    rho = states.random_state(n, d, seed=seed, rank=1 if pure else None)
    _assert_reading_matches_points(states.char_function(rho), tol)


def _msps_mixture(d, n, draw):
    """One MSPS, or a mixture of up to three whose S is where the parts agree."""
    pool = _msps(d, n)
    parts = draw(hs.lists(hs.integers(0, len(pool) - 1), min_size=1, max_size=3))
    weights = draw(hs.lists(hs.integers(1, 5), min_size=len(parts), max_size=len(parts)))
    mix = sum(w * pool[i].mat for w, i in zip(weights, parts)) / sum(weights)
    return states.make_state(mix, d, n)


@PROFILE
@given(hs.sampled_from(MSPS_SYSTEMS), hs.data(), hs.sampled_from(TOLERANCES))
def test_threshold_reading_of_msps_mixtures(system, data, tol):
    d, n = system
    _assert_reading_matches_points(states.char_function(_msps_mixture(d, n, data.draw)), tol)


@PROFILE
@given(hs.sampled_from(MSPS_SYSTEMS), hs.data(), hs.sampled_from(TOLERANCES))
def test_threshold_reading_at_the_thresholds(system, data, tol):
    # an MSPS table with values set within 1e-12 of 1 - tol_one and of tol_supp
    d, n = system
    pool = _msps(d, n)
    xi = np.array(states.char_function(pool[data.draw(hs.integers(0, len(pool) - 1))]))
    points = hs.tuples(*[hs.integers(0, d - 1)] * (2 * n))
    edits = data.draw(hs.lists(
        hs.tuples(points, hs.sampled_from([1 - tol.tol_one, tol.tol_supp]),
                  hs.floats(-1e-12, 1e-12), hs.integers(0, d - 1)),
        min_size=1, max_size=4))
    for x, edge, delta, k in edits:
        xi[x] = (edge + delta) * complex(weyl.chi(k, d))
    _assert_reading_matches_points(xi, tol)


# D = d^n <= 27 for the majorization and zero-mean properties
SMALL_SYSTEMS = SYSTEMS + [(3, 3)]


@hs.composite
def mean_state_inputs(draw):
    """A random mixed or pure state at D <= 27, or an MSPS mixture (whose M(rho) is not I / D)."""
    if draw(hs.booleans()):
        d, n = draw(hs.sampled_from(SMALL_SYSTEMS))
        return states.random_state(n, d, seed=draw(seeds), rank=draw(hs.sampled_from([1, None])))
    d, n = draw(hs.sampled_from(MSPS_SYSTEMS))
    return _msps_mixture(d, n, draw)


@PROFILE
@given(hs.sampled_from(SMALL_SYSTEMS), hs.sampled_from(cv.PARITY_CLASSES), seeds)
def test_convolution_is_majorized_by_its_bounding_inputs(system, klass, seed):
    # spec(rho ⊠ sigma) ≺ spec of each bounding input, at the majorization suite's 1e-9
    d, n = system
    if klass not in verify._drawable(d):
        klass = "even_only"
    rng = np.random.default_rng(seed)
    pm = verify.sample_parity_matrix(rng, d, klass)
    inputs = {tag: states.random_state(n, d, seed=rng.integers(2**31)) for tag in ("rho", "sigma")}
    out = ent.clean_spectrum(cv.convolve(inputs["rho"], inputs["sigma"], pm))
    for tag in cv.bounding_inputs(pm):
        assert ent.majorization_slack(out, ent.clean_spectrum(inputs[tag])) + 1e-9 >= 0


@PROFILE
@given(mean_state_inputs())
def test_mean_state_is_majorized_by_its_state(rho):
    # spec(M(rho)) ≺ spec(rho), at the majorization suite's 1e-9
    mean = mm.mean_state(rho).mean
    assert ent.majorization_slack(ent.clean_spectrum(mean), ent.clean_spectrum(rho)) + 1e-9 >= 0


@PROFILE
@given(mean_state_inputs())
def test_zero_mean_shift_keeps_every_modulus(rho):
    # the shift multiplies Xi by phases: zero mean after it, |Xi| unchanged pointwise
    _, shifted = mm.zero_mean_shift(rho)
    assert mm.read_thresholds(states.char_function(shifted)).zero_mean
    before, after = states.char_function(rho), states.char_function(shifted)
    assert np.abs(np.abs(after) - np.abs(before)).max() < 1e-12
