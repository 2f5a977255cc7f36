"""Shared numerical tolerances and desk-scale caps.

All magnitude predicates in the package (|Xi| = 1, support membership,
spectrum floors) read from the single mutable instance ``config`` so the
mean state, magic gap, Pauli rank and zero-mean tests stay mutually
consistent.  The CLI flags --tol-one / --tol-supp write here.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import ConfigError, TooLargeError


@dataclass
class Tolerances:
    # |Xi| = 1 predicate; values above 1 - tol_one snap to the unit circle.
    tol_one: float = 1e-8
    # support threshold for characteristic tables (Pauli rank, magic gap).
    tol_supp: float = 1e-10
    # eigenvalue floor: spectrum entries below this count as zero.
    tol_spec: float = 1e-12
    # density-operator validation (hermiticity, trace, eigenvalue dips).
    tol_state: float = 1e-10
    # residual allowed when rounding a phase to a d-th root of unity.
    phase_residual: float = 1e-6
    # dense characteristic/Wigner tables: d^{2n} cap (QPS_MAX_DIM lowers it).
    max_table: int = 4_000_000
    # materialized phase-space subgroups: d^{2n} cap.
    max_group: int = 10_000_000
    # MSPS enumeration: d^{2n} cap.
    max_enumeration: int = 10_000


config = Tolerances()


def table_cap() -> int:
    """The dense-table cap: config.max_table, lowered by QPS_MAX_DIM if set.

    The variable is read when a cap is needed, not at import, so a value
    that is not an integer surfaces as a ConfigError the CLI reports.
    """
    raw = os.environ.get("QPS_MAX_DIM")
    if not raw:
        return config.max_table
    try:
        return min(config.max_table, int(raw))
    except ValueError:
        raise ConfigError(f"QPS_MAX_DIM must be an integer, got {raw!r}") from None


def ensure_table_size(d: int, n: int) -> None:
    """Raise TooLargeError when a dense d^{2n} table would bust the cap."""
    cap = table_cap()
    if d ** (2 * n) > cap:
        raise TooLargeError(f"d^2n = {d}^{2 * n} exceeds the dense-table cap {cap}")


def snapshot() -> dict:
    """Tolerance configuration as a plain dict (embedded in CLI reports)."""
    return {
        "tol_one": config.tol_one,
        "tol_supp": config.tol_supp,
        "tol_spec": config.tol_spec,
        "tol_state": config.tol_state,
        "phase_residual": config.phase_residual,
        "max_table": table_cap(),
    }
