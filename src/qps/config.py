"""Numerical tolerances and desk-scale caps.

The two user-set thresholds (|Xi| = 1 and support membership) travel in one
frozen ``Tolerances``, passed explicitly to every function that reads them.
Only ``mean_magic.read_thresholds`` compares them with |Xi|, and every reader
of S, the support or the magic gap takes its answer from that one reading.
The CLI builds it from --tol-one / --tol-supp; all other values are constants.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import ConfigError, TooLargeError


@dataclass(frozen=True)
class Tolerances:
    # |Xi| = 1 predicate; values above 1 - tol_one snap to the unit circle.
    tol_one: float = 1e-8
    # support threshold for characteristic tables (Pauli rank, magic gap).
    tol_supp: float = 1e-10

    def __post_init__(self):  # here, so that every reader and worker sees valid thresholds
        for name, value in (("tol_one", self.tol_one), ("tol_supp", self.tol_supp)):
            if not 0 <= value < 1:  # false for NaN too
                flag = "--" + name.replace("_", "-")
                raise ConfigError(f"{name} ({flag}) must be in [0, 1), got {value}")


DEFAULT = Tolerances()

# eigenvalue floor: spectrum entries below this count as zero.
TOL_SPEC = 1e-12
# density-operator validation (hermiticity, trace, eigenvalue dips).
TOL_STATE = 1e-10
# residual allowed when rounding a phase to a d-th root of unity.
PHASE_RESIDUAL = 1e-6
# dense characteristic/Wigner tables: d^{2n} cap (QPS_MAX_DIM lowers it).
MAX_TABLE = 4_000_000
# materialized phase-space subgroups: d^{2n} cap.
MAX_GROUP = 10_000_000
# MSPS enumeration: d^{2n} cap.
MAX_ENUMERATION = 10_000


def table_cap() -> int:
    """The dense-table cap: MAX_TABLE, lowered by QPS_MAX_DIM if set.

    The variable is read when a cap is needed, not at import, so a value
    that is not an integer surfaces as a ConfigError the CLI reports.
    """
    raw = os.environ.get("QPS_MAX_DIM")
    if not raw:
        return MAX_TABLE
    try:
        return min(MAX_TABLE, int(raw))
    except ValueError:
        raise ConfigError(f"QPS_MAX_DIM must be an integer, got {raw!r}") from None


def ensure_table_size(d: int, n: int) -> None:
    """Raise TooLargeError when a dense d^{2n} table would bust the cap."""
    cap = table_cap()
    if d ** (2 * n) > cap:
        raise TooLargeError(f"d^2n = {d}^{2 * n} exceeds the dense-table cap {cap}")


def snapshot(tol: Tolerances) -> dict:
    """The tolerances of a run as a plain dict (embedded in CLI reports)."""
    return {
        "tol_one": tol.tol_one,
        "tol_supp": tol.tol_supp,
        "tol_spec": TOL_SPEC,
        "tol_state": TOL_STATE,
        "phase_residual": PHASE_RESIDUAL,
        "max_table": table_cap(),
    }
