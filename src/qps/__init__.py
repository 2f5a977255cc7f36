"""qps: exact desk-scale toolkit for qudit phase space.

Weyl algebra over prime dimensions, characteristic and discrete Wigner
functions, the parameterized quantum convolution and its named families,
mean states and the magic gap, Renyi/Fisher functionals, Choi-based
channel convolution, and the theorem-check harnesses that verify the
convolution framework by exact linear algebra.

The public names below are resolved on first use (PEP 562), so
``import qps`` or ``import qps.cli`` loads only the modules a command
needs.  A submodule is reached by importing it (``from qps import
states``).
"""

from __future__ import annotations

import importlib

# Each public name, by the module under qps that defines it.
_MODULES = {
    "channels": (
        "Channel", "channel_clt", "channel_entropy", "channel_from_choi",
        "check_unitary_min_entropy", "choi_from_kraus", "convolve_channels",
        "depolarizing_channel", "is_zero_mean_channel", "mean_channel", "random_channel",
        "unitary_channel", "weyl_conjugation_channel", "zero_mean_channel_shift",
    ),
    "convolution": (
        "ParamMatrix", "amplifier_params", "beam_splitter_params", "bounding_inputs",
        "char_powers", "classify", "cnot_family", "convolve", "convolve_char",
        "convolve_wigner", "hadamard_params", "parity_class", "solve_params",
        "transformed_stabilizer_group",
    ),
    "entropy": (
        "check_equality_case", "check_min_output_entropy", "check_second_law",
        "clean_spectrum", "holevo_bounds", "majorizes", "renyi_entropy",
        "renyi_relative", "second_law_counterexample", "subentropy",
    ),
    "fisher": (
        "check_fisher_convolution", "de_bruijn_check", "dephase", "fisher_single",
        "fisher_total", "heat_semigroup", "liouvillean", "smooth",
    ),
    "io": (
        "read_channel", "read_state", "write_channel", "write_state",
    ),
    "mean_magic": (
        "MagicGapReport", "MeanStateReport", "closest_msps", "is_msps", "is_zero_mean",
        "lmg_t_count_check", "magic_gap", "mean_state", "mean_value_vector", "pauli_rank",
        "read_thresholds", "zero_mean_shift",
    ),
    "phase_space": (
        "PhaseSubgroup", "check_prime", "field_inv", "make_point",
        "solve_linear_mod", "subgroup_generators", "symplectic_inner",
    ),
    "states": (
        "State", "basis_state", "char_function", "enumerate_msps",
        "enumerate_pure_stabilizers", "make_state", "maximally_mixed", "pure_state",
        "random_pure", "random_state", "state_from_char", "tensor", "wigner",
    ),
    "weyl": (
        "is_clifford", "is_weyl_up_to_phase", "key_unitary",
        "phase_point_operator", "random_clifford", "weyl_operator",
    ),
}
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
