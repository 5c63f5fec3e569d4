"""Two-state classical semi-Markov dynamics and its non-Markovianity witnesses.

The embedded jump chain is the column-stochastic matrix [[pi, sigma],
[1-pi, 1-sigma]].  Two parameter choices admit closed-form propagators:

* pi = sigma = 1/2: T(t, s) has entries (1 +/- g(t)/g(s))/2 with g the
  survival probability, and is stochastic for every t >= s;
* pi = 0, sigma = 1 (deterministic alternation): the same form with g
  replaced by the even/odd jump-count difference q, which may change sign.

A product-trapezoidal Volterra solver for the memory-kernel master equation
serves as an independent oracle for both closed forms and covers arbitrary
(pi, sigma).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .poly_laplace import ExpPolyFunction
from .renewal import even_odd_difference, find_extrema
from .waiting_time import HypoExpWTD

__all__ = [
    "SemiMarkovSpec",
    "TransitionMatrix",
    "ProbabilityVector",
    "SingularPropagatorError",
    "UnstableSolverError",
    "VolterraSolution",
    "ContractivityReport",
    "DivisibilityReport",
    "propagator",
    "volterra_solve",
    "kolmogorov_distance",
    "witness_contractivity",
    "witness_divisibility",
]


class SingularPropagatorError(ValueError):
    """The closed-form propagator is undefined where g(s) or q(s) vanishes."""


class UnstableSolverError(RuntimeError):
    """Volterra iteration produced entries outside the divergence guard."""


@dataclass(frozen=True)
class SemiMarkovSpec:
    """Jump probabilities (pi: stay-at-1, sigma: 2->1) plus the waiting time."""

    pi: float
    sigma: float
    wtd: HypoExpWTD

    def __post_init__(self):
        if not (0.0 <= self.pi <= 1.0 and 0.0 <= self.sigma <= 1.0):
            raise ValueError("jump probabilities must lie in [0, 1]")

    @property
    def jump_matrix(self) -> np.ndarray:
        return np.array([[self.pi, self.sigma], [1.0 - self.pi, 1.0 - self.sigma]])

    @property
    def closed_form_kind(self) -> str | None:
        if self.pi == 0.5 and self.sigma == 0.5:
            return "survival"
        if self.pi == 0.0 and self.sigma == 1.0:
            return "parity"
        return None


@dataclass(frozen=True)
class ProbabilityVector:
    p: tuple[float, float]

    def __init__(self, p):
        p = (float(p[0]), float(p[1]))
        if min(p) < -1e-12 or abs(p[0] + p[1] - 1.0) > 1e-12:
            raise ValueError(f"not a probability vector: {p}")
        object.__setattr__(self, "p", p)

    def as_array(self) -> np.ndarray:
        return np.array(self.p)


@dataclass(frozen=True)
class TransitionMatrix:
    """Propagator sending probability vectors at t_from to vectors at t_to."""

    entries: np.ndarray
    t_from: float
    t_to: float

    def apply(self, p: ProbabilityVector) -> ProbabilityVector:
        return ProbabilityVector(self.entries @ p.as_array())

    def column_sums(self) -> np.ndarray:
        return self.entries.sum(axis=0)

    def is_stochastic(self, tol: float = 1e-10) -> bool:
        return bool(
            np.all(self.entries >= -tol)
            and np.all(self.entries <= 1.0 + tol)
            and np.allclose(self.column_sums(), 1.0, atol=tol)
        )


@lru_cache(maxsize=256)
def _mixing_function(spec: SemiMarkovSpec) -> ExpPolyFunction:
    kind = spec.closed_form_kind
    if kind == "survival":
        return spec.wtd.survival()
    if kind == "parity":
        return even_odd_difference(spec.wtd)
    raise ValueError(
        "closed-form propagator exists only for pi=sigma=1/2 or pi=0, sigma=1; "
        "use volterra_solve for other jump probabilities"
    )


def propagator(spec: SemiMarkovSpec, t: float, s: float = 0.0) -> TransitionMatrix:
    """Closed-form T(t, s) for the two special jump-probability choices."""
    if not 0.0 <= s <= t:
        raise ValueError("need t >= s >= 0")
    h = _mixing_function(spec)
    hs = h(s)
    if abs(hs) < 1e-14:
        raise SingularPropagatorError(f"mixing function vanishes at s={s}")
    ratio = h(t) / hs
    a, b = 0.5 * (1.0 + ratio), 0.5 * (1.0 - ratio)
    return TransitionMatrix(np.array([[a, b], [b, a]]), t_from=s, t_to=t)


@dataclass(frozen=True)
class VolterraSolution:
    times: np.ndarray
    matrices: np.ndarray  # shape (n, 2, 2), matrices[i] = T(times[i], 0)

    def at(self, t: float) -> np.ndarray:
        i = int(round(t / (self.times[1] - self.times[0])))
        if not np.isclose(self.times[i], t, atol=1e-9):
            raise ValueError(f"{t} is not a grid time")
        return self.matrices[i]


def volterra_solve(spec: SemiMarkovSpec, t_end: float, dt: float) -> VolterraSolution:
    """Product-trapezoidal solution of the memory-kernel master equation

        dT/dt = (Pi - 1) [w_delta T(t) + integral_0^t kappa(tau) T(t-tau) dtau]

    with the delta part of the kernel treated exactly as a local term.  The
    implicit trapezoidal corrector is solved in closed form (the system is
    linear), giving second-order accuracy.
    """
    if dt <= 0 or t_end <= 0:
        raise ValueError("need positive step and horizon")
    kern = spec.wtd.kernel()
    m_op = spec.jump_matrix - np.eye(2)
    n = int(round(t_end / dt))
    times = np.arange(n + 1) * dt
    kappa = (
        np.zeros(n + 1)
        if kern.regular_part.is_zero()
        else kern.regular_part(times)
    )
    w0 = kern.delta_weight
    T = np.empty((n + 1, 2, 2))
    T[0] = np.eye(2)
    flat = T.reshape(n + 1, 4)
    # Corrector matrix: T_{i+1} - (dt/2) M (w0 + dt*kappa_0/2) T_{i+1} = rhs.
    P = np.linalg.inv(np.eye(2) - 0.5 * dt * (w0 + 0.5 * dt * kappa[0]) * m_op)
    # History convolutions by trapezoid; interior weights are 1.  The interior
    # sum a step computes for its corrector is the next step's `inner`.
    inner = np.zeros((2, 2))
    for i in range(n):
        if i == 0:
            conv_i = np.zeros((2, 2))
        else:
            conv_i = dt * (0.5 * kappa[0] * T[i] + inner + 0.5 * kappa[i] * T[0])
        F_i = m_op @ (w0 * T[i] + conv_i)
        inner = (kappa[1 : i + 1] @ flat[i:0:-1]).reshape(2, 2)
        r_next = inner + 0.5 * kappa[i + 1] * T[0]
        rhs = T[i] + 0.5 * dt * F_i + 0.5 * dt * dt * (m_op @ r_next)
        T[i + 1] = P @ rhs
        if np.any(np.abs(T[i + 1]) > 10.0):
            raise UnstableSolverError(f"divergence at t={times[i + 1]:g}")
    return VolterraSolution(times, T)


def kolmogorov_distance(p1: ProbabilityVector, p2: ProbabilityVector) -> float:
    """Half the l1 distance between two probability vectors."""
    return 0.5 * float(np.sum(np.abs(p1.as_array() - p2.as_array())))


@dataclass(frozen=True)
class ContractivityReport:
    times: np.ndarray
    distances: np.ndarray  # shape (n_pairs, n_times)
    growth_intervals: tuple[tuple[tuple[float, float], ...], ...]  # per pair

    @property
    def any_growth(self) -> bool:
        return any(len(g) > 0 for g in self.growth_intervals)


def witness_contractivity(
    spec: SemiMarkovSpec,
    pairs: list[tuple[ProbabilityVector, ProbabilityVector]],
    times: np.ndarray,
    tol: float = 1e-12,
) -> ContractivityReport:
    """Intervals where the Kolmogorov distance between evolved pairs grows.

    For both closed-form specs the distance is |h(t)| |p1_1(0) - p2_1(0)| with
    h the mixing function, evaluated here through the propagator itself.
    """
    times = np.asarray(times, dtype=float)
    h = _mixing_function(spec)
    hv = np.abs(h(times))
    all_intervals = []
    dists = []
    for p1, p2 in pairs:
        d0 = kolmogorov_distance(p1, p2)
        dk = hv * d0
        dists.append(dk)
        rising = dk[1:] > dk[:-1] + tol
        intervals = []
        start = None
        for i, r in enumerate(rising):
            if r and start is None:
                start = times[i]
            if not r and start is not None:
                intervals.append((float(start), float(times[i])))
                start = None
        if start is not None:
            intervals.append((float(start), float(times[-1])))
        all_intervals.append(tuple(intervals))
    return ContractivityReport(times, np.array(dists), tuple(all_intervals))


@dataclass(frozen=True)
class DivisibilityReport:
    s_values: np.ndarray
    t_values: np.ndarray
    stochastic: np.ndarray  # boolean (n_s, n_t); True where T(t,s) stochastic
    singular_s: np.ndarray  # boolean mask over s_values
    violations: tuple[tuple[float, float, float], ...]  # (s, t, worst entry)


def witness_divisibility(
    spec: SemiMarkovSpec,
    times: np.ndarray,
    tol: float = 1e-10,
) -> DivisibilityReport:
    """Checks the intermediate matrices T(t, s) for stochasticity on a grid.

    Grid points s within 1e-6*T of a zero of the mixing function are flagged
    singular (the propagator inverse does not exist there) and skipped.
    """
    times = np.asarray(times, dtype=float)
    T_max = float(times[-1])
    h = _mixing_function(spec)
    zeros = [
        p.t
        for p in find_extrema(h, (0.0, T_max + 1e-9))
        if p.kind == "zero-crossing"
    ]
    eps = 1e-6 * T_max
    singular = np.array(
        [any(abs(s - z) <= eps for z in zeros) for s in times], dtype=bool
    )
    hv = h(times)
    n = len(times)
    stochastic = np.ones((n, n), dtype=bool)
    violations = []
    for i in range(n):
        if singular[i]:
            continue
        for j in range(i, n):
            ratio = hv[j] / hv[i]
            lo = 0.5 * (1.0 - abs(ratio))
            if lo < -tol:
                stochastic[i, j] = False
                violations.append((float(times[i]), float(times[j]), float(lo)))
    return DivisibilityReport(
        s_values=times,
        t_values=times,
        stochastic=stochastic,
        singular_s=singular,
        violations=tuple(violations),
    )
