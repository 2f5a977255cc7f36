"""Channel constructions, the Choi action and subgroup predicates, kept for the tests only."""

import math

import numpy as np

from qps.channels import Channel, choi_from_kraus
from qps.phase_space import PhaseSubgroup, symplectic_inner
from qps.states import State, make_state


def identity_channel(d: int, n: int) -> Channel:
    return choi_from_kraus([np.eye(d**n)], d, n)


def channel_apply(channel: Channel, rho: State) -> State:
    """Λ(rho) = d^n Tr_A[J (rho^T ⊗ I)]."""
    D = channel.dim
    t = channel.choi.mat.reshape(D, D, D, D)
    out = D * np.einsum("iI,ioIO->oO", rho.mat, t)
    return make_state(out, channel.d, channel.n)


def random_mixed_unitary_channel(n: int, d: int, seed, terms: int = 3) -> Channel:
    """Seeded random mixture of unitary conjugations."""
    rng = np.random.default_rng(seed)
    D = d**n
    weights = rng.dirichlet(np.ones(terms))
    kraus = []
    for w in weights:
        u, _ = np.linalg.qr(rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D)))
        kraus.append(math.sqrt(w) * u)
    return choi_from_kraus(kraus, d, n)


def is_isotropic(group: PhaseSubgroup) -> bool:
    """True when the symplectic form vanishes on every pair of elements."""
    e = group.elements
    return not symplectic_inner(e[:, None], e[None], group.d).any()
