import dataclasses
import math

import pytest

from qps import config
from qps import fisher as fi
from qps import io as qio
from qps import mean_magic as mm
from qps import states
from qps.config import DEFAULT, Tolerances
from qps.errors import ConfigError


@pytest.fixture
def eta_state():
    """|0><0| on d = 3 smoothed by 1e-7: |Xi| = 1 - 1e-7 at the two nonzero Z-line points."""
    return fi.smooth(states.basis_state(0, 3), 1e-7)


def test_check_bounds_are_pinned_and_read_only():
    # moving, loosening or re-sensing any check's bound fails here
    assert dict(config.CHECK_BOUNDS) == {
        "weyl.commutation_exhaustive_n1": (1e-12, "at most"),
        "weyl.orthonormality": (1e-10, "at most"),
        "weyl.commutation_sampled": (1e-12, "at most"),
        "weyl.key_unitary_generators": (1e-12, "at most"),
        "weyl.parity_sum": (1e-12, "at most"),
        "weyl.phase_point_hermitian": (1e-12, "at most"),
        "weyl.random_clifford_closes": (0.0, "at most"),
        "duality": (1e-10, "at most"),
        "majorization": (-1e-9, "at least"),
        "entropy.increase": (-1e-8, "at least"),
        "entropy.extremality": (1e-8, "at most"),
        "entropy.additivity": (1e-9, "at most"),
        "entropy.subentropy_mean": (-1e-6, "at least"),
        "entropy.counterexample_g10_zero": (1e-6, "at least"),
        "entropy.second_law": (-1e-8, "at least"),
        "entropy.equality_case": (0.0, "at most"),
        "entropy.equality_case.equality_gap": (1e-8, "at most"),
        "entropy.equality_case.strict_increase": (1e-6, "at least"),
        "entropy.min_output_entropy.matched": (1e-8, "at most"),
        "entropy.min_output_entropy.unmatched": (1e-6, "at least"),
        "fisher.convolution": (-1e-7, "at least"),
        "fisher.de_bruijn": (1e-3, "at most"),
        "fisher.dephase_commutes": (1e-10, "at most"),
        "fisher.semigroup_intertwines": (1e-9, "at most"),
        "fisher.liouvillean_hermitian": (1e-9, "at most"),
        "hudson.stabilizers_nonnegative": (-1e-12, "at least"),
        "hudson.random_pure_negative": (0.95, "at least"),
        "channels.routes": (0.0, "at most"),
        "channels.routes_marginal": (1e-9, "at most"),
        "channels.absorb": (1e-10, "at most"),
        "channels.mean_extremality": (-1e-9, "at least"),
        "channels.zero_mean_corollary": (0.0, "at most"),
        "channels.unitary_min_entropy.matched": (1e-8, "at most"),
        "channels.unitary_min_entropy.generic": (1e-4, "at least"),
        "channels.unitary_min_entropy.absorb": (1e-8, "at most"),
        "clt.rate": (1e-9, "at most"),
    }
    with pytest.raises(TypeError):
        config.CHECK_BOUNDS["duality"] = (1.0, "at most")


def test_tolerances_are_frozen_and_not_a_module_global():
    with pytest.raises(dataclasses.FrozenInstanceError):
        DEFAULT.tol_one = 1e-6
    assert [f.name for f in dataclasses.fields(Tolerances)] == ["tol_one", "tol_supp"]
    assert not hasattr(config, "config")


@pytest.mark.parametrize("name", ["tol_one", "tol_supp"])
def test_tolerances_refuse_values_outside_the_unit_interval(name):
    for value in (math.nan, math.inf, -math.inf, -1e-12, 1.0, 1.5):
        with pytest.raises(ConfigError, match=f"--{name.replace('_', '-')}"):
            Tolerances(**{name: value})
    for value in (0.0, 0.25, 1 - 1e-8):
        assert getattr(Tolerances(**{name: value}), name) == value


def test_tol_one_decides_the_unit_modulus_set(eta_state):
    loose = Tolerances(tol_one=1e-6)
    assert mm.mean_state(eta_state).group.size == 1
    assert mm.mean_state(eta_state, loose).group.size == 3
    assert abs(mm.magic_gap(eta_state).gap - 1e-7) < 1e-12
    assert mm.magic_gap(eta_state, loose).gap == 0.0
    assert len(mm.read_thresholds(states.char_function(eta_state)).phases) == 0
    assert len(mm.read_thresholds(states.char_function(eta_state), loose).phases) == 1


def test_tol_supp_decides_the_support(eta_state):
    high = Tolerances(tol_supp=1 - 1e-8)
    assert mm.magic_gap(eta_state).support_size == 3
    assert mm.magic_gap(eta_state, high).support_size == 1
    assert len(qio.state_to_json(eta_state, form="char")["char"]) == 3
    assert len(qio.state_to_json(eta_state, form="char", tol=high)["char"]) == 1
