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
    assert mm.mean_value_vector(eta_state).size == 0
    assert mm.mean_value_vector(eta_state, loose).size == 1


def test_tol_supp_decides_the_support(eta_state):
    high = Tolerances(tol_supp=1 - 1e-8)
    assert mm.pauli_rank(eta_state) == 3
    assert mm.pauli_rank(eta_state, high) == 1
    assert mm.magic_gap(eta_state, high).support_size == 1
    assert len(qio.state_to_json(eta_state, form="char")["char"]) == 3
    assert len(qio.state_to_json(eta_state, form="char", tol=high)["char"]) == 1
