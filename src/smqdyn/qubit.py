"""Pauli channels and the renewal-driven qubit dynamical map.

A Pauli channel mixes conjugations by 1, sigma_x, sigma_y, sigma_z with
probability weights lam.  Its eigenvalues on the Pauli basis are mu = A lam
with the involution-like matrix A (A^2 = 4*identity).  Randomizing repeated
channel applications over a renewal process produces the time-dependent map
whose Pauli eigenvalues are the jump-count generating function evaluated at
the channel eigenvalues; on Bloch vectors the map contracts each axis by
lam_i(t).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .poly_laplace import evaluate_all
from .renewal import CP_FLOOR, generating_function
from .waiting_time import HypoExpWTD

__all__ = [
    "PAULI_TRANSFORM",
    "SIGMA",
    "PauliChannel",
    "QubitState",
    "MapSnapshot",
    "ChoiVector",
    "PositivityError",
    "ChannelDynamics",
    "spectral_transform",
    "map_snapshot",
    "evolve_state",
    "choi_vector",
]

#: Hadamard-like transform between channel weights and Pauli eigenvalues.
PAULI_TRANSFORM = np.array(
    [
        [1.0, 1.0, 1.0, 1.0],
        [1.0, 1.0, -1.0, -1.0],
        [1.0, -1.0, 1.0, -1.0],
        [1.0, -1.0, -1.0, 1.0],
    ]
)

SIGMA = (
    np.eye(2, dtype=complex),
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


class PositivityError(ValueError):
    """A produced density matrix has an eigenvalue below tolerance."""


def spectral_transform(lam: Sequence[float]) -> np.ndarray:
    """mu = A lam; also usable on ratio vectors that are not probabilities."""
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (4,):
        raise ValueError("expected a 4-vector")
    return PAULI_TRANSFORM @ lam


@dataclass(frozen=True)
class PauliChannel:
    """Probability weights over conjugation by (1, sigma_x, sigma_y, sigma_z)."""

    lam: tuple[float, float, float, float]

    def __init__(self, lam: Sequence[float]):
        lam = tuple(float(x) for x in lam)
        if len(lam) != 4:
            raise ValueError("expected 4 weights")
        if min(lam) < -1e-12 or abs(sum(lam) - 1.0) > 1e-12:
            raise ValueError(f"weights must form a probability vector: {lam}")
        object.__setattr__(self, "lam", lam)

    @staticmethod
    def phase_flip() -> "PauliChannel":
        return PauliChannel((0.0, 0.0, 0.0, 1.0))

    @staticmethod
    def exchange() -> "PauliChannel":
        """Equal sigma_x/sigma_y mixture (sigma_+ rho sigma_- + h.c.)."""
        return PauliChannel((0.0, 0.5, 0.5, 0.0))

    @staticmethod
    def dephasing_mixture(nu: float) -> "PauliChannel":
        """Mixture (1-nu)*identity + nu*phase-flip."""
        if not 0.0 <= nu <= 1.0:
            raise ValueError("mixture weight must lie in [0, 1]")
        return PauliChannel((1.0 - nu, 0.0, 0.0, nu))

    @property
    def mu(self) -> tuple[float, float, float, float]:
        """Eigenvalues on the Pauli basis: mu_0 = 1, |mu_i| <= 1; a mu_i within
        the rounding of four weights (4 eps) is an exact 0, the mu = 0 route."""
        mu = spectral_transform(self.lam)
        mu[np.abs(mu) <= 4.0 * np.finfo(float).eps] = 0.0
        return tuple(mu)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return sum(
            w * s @ rho @ s for w, s in zip(self.lam, SIGMA) if w != 0.0
        )


@dataclass(frozen=True)
class QubitState:
    """2x2 density matrix with Hermiticity/trace/positivity validation."""

    rho: tuple[tuple[complex, ...], ...]

    def __init__(self, rho):
        mat = np.asarray(rho, dtype=complex)
        if mat.shape != (2, 2):
            raise ValueError("expected a 2x2 matrix")
        if not np.allclose(mat, mat.conj().T, atol=1e-10):
            raise ValueError("density matrix must be Hermitian")
        if abs(np.trace(mat).real - 1.0) > 1e-10:
            raise ValueError("density matrix must have unit trace")
        evals = np.linalg.eigvalsh(mat)
        if evals.min() < -1e-12:
            raise PositivityError(f"negative eigenvalue {evals.min():g}")
        object.__setattr__(self, "rho", tuple(tuple(row) for row in mat))

    @staticmethod
    def from_bloch(r: Sequence[float]) -> "QubitState":
        r = np.asarray(r, dtype=float)
        if np.linalg.norm(r) > 1.0 + 1e-12:
            raise ValueError("Bloch vector must lie in the unit ball")
        mat = 0.5 * (SIGMA[0] + r[0] * SIGMA[1] + r[1] * SIGMA[2] + r[2] * SIGMA[3])
        return QubitState(mat)

    @staticmethod
    def maximally_mixed() -> "QubitState":
        return QubitState(0.5 * np.eye(2))

    def matrix(self) -> np.ndarray:
        return np.asarray(self.rho, dtype=complex)

    @property
    def bloch(self) -> np.ndarray:
        m = self.matrix()
        return np.array(
            [np.trace(m @ SIGMA[i]).real for i in (1, 2, 3)]
        )


@dataclass(frozen=True)
class MapSnapshot:
    """Pauli eigenvalues (lam_x, lam_y, lam_z)(t) and their derivatives."""

    lambda_t: tuple[float, float, float]
    lambda_dot_t: tuple[float, float, float]
    t: float

    def is_physical(self) -> bool:
        return all(abs(v) <= 1.0 + 1e-9 for v in self.lambda_t)


@dataclass(frozen=True)
class ChoiVector:
    """Pauli-conjugation weights of a map, normalized to sum to the trace
    weight 1 for a trace-preserving map; nonnegativity certifies complete
    positivity."""

    mu_t: tuple[float, float, float, float]

    @property
    def min_component(self) -> float:
        return min(self.mu_t)

    def is_completely_positive(self) -> bool:
        return self.min_component >= -CP_FLOOR

    @property
    def negativity(self) -> float:
        """Sum of the magnitudes of the negative components."""
        return -sum(min(c, 0.0) for c in self.mu_t)


class ChannelDynamics:
    """Precomputed generating functions for one (channel, waiting time) pair."""

    def __init__(self, channel: PauliChannel, wtd: HypoExpWTD):
        self.channel = channel
        self.wtd = wtd
        self.generators = tuple(
            generating_function(wtd, mu_i) for mu_i in channel.mu[1:]
        )

    def lambdas(self, t):
        """Array of shape (3,) + shape(t) with lam_x, lam_y, lam_z."""
        return evaluate_all([g.value for g in self.generators], t)

    def lambda_dots(self, t):
        return evaluate_all([g.derivative for g in self.generators], t)

    def snapshot(self, t: float) -> MapSnapshot:
        return MapSnapshot(
            tuple(float(g.value(t)) for g in self.generators),
            tuple(float(g.derivative(t)) for g in self.generators),
            float(t),
        )


@lru_cache(maxsize=128)
def dynamics(channel: PauliChannel, wtd: HypoExpWTD) -> ChannelDynamics:
    return ChannelDynamics(channel, wtd)


def map_snapshot(ch: PauliChannel, w: HypoExpWTD, t: float) -> MapSnapshot:
    """Map eigenvalues at time t: lam_i(t) = E[mu_i^{N(t)}]."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    return dynamics(ch, w).snapshot(t)


def evolve_state(snap: MapSnapshot, rho0: QubitState) -> QubitState:
    """Apply the map: each Bloch component contracts by lam_i(t).

    Equivalently rho_11(t) = (1 + lam_z (rho_11(0) - rho_00(0)))/2 and the
    coherence picks up (lam_x + lam_y)/2 of itself plus (lam_x - lam_y)/2 of
    its conjugate.  Raises PositivityError when the snapshot is unphysical.
    """
    lx, ly, lz = snap.lambda_t
    r = rho0.bloch
    scaled = (lx * r[0], ly * r[1], lz * r[2])
    mat = 0.5 * (
        SIGMA[0] + scaled[0] * SIGMA[1] + scaled[1] * SIGMA[2] + scaled[2] * SIGMA[3]
    )
    return QubitState(mat)


def choi_vector(lambda_ratios: Sequence[float]) -> ChoiVector:
    """Complete-positivity certificate of a Pauli-diagonal map.

    Input is the eigenvalue 3-vector (ratios for an intermediate map); the
    output weights are A(1, r_x, r_y, r_z)/4 and are all nonnegative exactly
    when the map is completely positive.
    """
    r = np.asarray(lambda_ratios, dtype=float)
    if r.shape != (3,):
        raise ValueError("expected the 3 Pauli eigenvalues")
    mu = 0.25 * (PAULI_TRANSFORM @ np.concatenate(([1.0], r)))
    return ChoiVector(tuple(float(x) for x in mu))
