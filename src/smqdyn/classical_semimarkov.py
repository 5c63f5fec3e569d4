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

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .poly_laplace import ExpPolyFunction
from .renewal import CP_FLOOR, even_odd_difference, find_zeros, is_root, near_zero_mask, runs
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


@lru_cache(maxsize=256)
def _mixing_slope(spec: SemiMarkovSpec) -> ExpPolyFunction:
    return _mixing_function(spec).differentiate()


def propagator(spec: SemiMarkovSpec, t: float, s: float = 0.0) -> TransitionMatrix:
    """Closed-form T(t, s) for the two special jump-probability choices."""
    if not 0.0 <= s <= t:
        raise ValueError("need t >= s >= 0")
    h = _mixing_function(spec)
    hs = h(s)
    if is_root(hs, _mixing_slope(spec)(s), s):
        raise SingularPropagatorError(f"mixing function vanishes at s={s}")
    ratio = h(t) / hs
    a, b = 0.5 * (1.0 + ratio), 0.5 * (1.0 - ratio)
    return TransitionMatrix(np.array([[a, b], [b, a]]), t_from=s, t_to=t)


@dataclass(frozen=True)
class VolterraSolution:
    times: np.ndarray
    matrices: np.ndarray  # shape (n, 2, 2), matrices[i] = T(times[i], 0)

    def at(self, t: float) -> np.ndarray:
        k = np.rint(t / (self.times[1] - self.times[0]))
        if not (0 <= k < len(self.times)) or not np.isclose(
            self.times[int(k)], t, atol=1e-9
        ):
            raise ValueError(f"{t} is not a grid time")
        return self.matrices[int(k)]


def volterra_solve(spec: SemiMarkovSpec, t_end: float, dt: float) -> VolterraSolution:
    """Product-trapezoidal solution of the memory-kernel master equation

        dT/dt = (Pi - 1) [w_delta T(t) + integral_0^t kappa(tau) T(t-tau) dtau]

    with the delta part of the kernel treated exactly as a local term.  The
    implicit trapezoidal corrector is solved in closed form (the system is
    linear), giving second-order accuracy.

    The regular kernel is a sum of terms c_l t^l e^{pt}, so the history sum
    needs no stored history: with r = e^{p dt}, the accumulators
    Z_{p,l}(i) = sum_{j=1..i} j^l r^j T_{i+1-j} obey Z_{p,l}(i) =
    r (T_i + sum_{l'<=l} C(l,l') Z_{p,l'}(i-1)), and the sum is
    Re sum c_l dt^l Z_{p,l}(i).  Accumulators V_{p,l}(i) = (i+1)^l r^{i+1}
    (same recurrence, no input) give the trapezoid end weights.  A step is
    then one constant real map G on (T, Z, V), and 64 steps are one product
    with stacked powers of G: O(n) work.  Every pole has Re p < 0, so |r| < 1.
    Results match the direct history sum to about 1e-12, not bit for bit.
    """
    if not (0.0 < dt < math.inf and 0.0 < t_end < math.inf):
        raise ValueError("need a finite positive step and horizon")
    n = round(t_end / dt)
    if n < 1:
        raise ValueError(f"horizon {t_end:g} is shorter than half a step {dt:g}")
    kern = spec.wtd.kernel()
    w0 = kern.delta_weight
    m_op = spec.jump_matrix - np.eye(2)
    terms = kern.regular_part.terms
    pole = np.array([p for p, cs in terms for _ in cs], dtype=complex)
    ell = np.array([l for _, cs in terms for l in range(len(cs))], dtype=int)
    w = np.array([c for _, cs in terms for c in cs], dtype=complex) * dt**ell
    r = np.exp(pole * dt)
    comb = np.array([[math.comb(a, b) for b in ell] for a in ell], dtype=float)
    U = r[:, None] * comb.reshape(len(ell), len(ell)) * (pole[:, None] == pole)
    # Evaluated on the whole grid for evaluate's check that the kernel is real.
    times = np.arange(n + 1) * dt
    kappa0, kappa1 = kern.regular_part(times)[:2]
    # Corrector matrix: T_{i+1} - (dt/2) M (w0 + dt*kappa_0/2) T_{i+1} = rhs.
    a = 0.5 * dt * (w0 + 0.5 * dt * kappa0)
    P = np.linalg.inv(np.eye(2) - a * m_op)
    PM, b, I2 = P @ m_op, 0.5 * dt * dt, np.eye(2)
    # Real and imaginary parts stacked; each column of T has its own copy.
    S = np.kron(np.block([[U.real, -U.imag], [U.imag, U.real]]), I2)
    z_in = np.kron(np.r_[r.real, r.imag][:, None], I2)
    h = PM @ np.kron(np.r_[w.real, -w.imag], I2)
    hs = h @ (np.eye(len(S)) + S)
    top = [P + a * PM + b * h @ z_in, b * hs, 0.5 * b * hs]
    G = np.block([top, [np.vstack([z_in, 0 * z_in]), np.kron(I2, S)]])
    # The first step has no history: its convolution term at t_0 is zero.
    T1 = P @ (I2 + 0.5 * dt * (w0 + 0.5 * dt * kappa1) * m_op)
    x = np.vstack([T1, 0 * z_in, z_in])
    # T rows of G^0..G^{B-1}, and g = G^B.  Powers stop growing at 1e100, so
    # a diverging block trips the guard before any product can overflow.
    rows, g = [], np.eye(len(G))
    while len(rows) < 64 and np.abs(g).max() < 1e100:
        rows.append(g[:2])
        g = G @ g
    B, rows = len(rows), np.concatenate(rows)
    T = np.empty((n + 1, 2, 2))
    T[0] = I2
    for i in range(1, n + 1, B):
        k = min(B, n + 1 - i)
        T[i : i + k] = (rows[: 2 * k] @ x).reshape(k, 2, 2)
        big = np.abs(T[i : i + k]).max(axis=(1, 2)) > 10.0
        if big.any():
            raise UnstableSolverError(f"divergence at t={times[i + big.argmax()]:g}")
        x = g @ x
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
) -> ContractivityReport:
    """Intervals where the Kolmogorov distance between evolved pairs grows
    by more than 1e-12 from one grid time to the next.

    For both closed-form specs the distance is |h(t)| |p1_1(0) - p2_1(0)| with
    h the mixing function, read here directly (the propagator applies the same h).
    """
    times = np.asarray(times, dtype=float)
    h = _mixing_function(spec)
    hv = np.abs(h(times))
    all_intervals = []
    dists = []
    for p1, p2 in pairs:
        dk = hv * kolmogorov_distance(p1, p2)
        dists.append(dk)
        starts, ends = runs(dk[1:] > dk[:-1] + 1e-12)
        all_intervals.append(tuple(zip(times[starts].tolist(), times[ends].tolist())))
    return ContractivityReport(times, np.array(dists), tuple(all_intervals))


@dataclass(frozen=True)
class DivisibilityReport:
    s_values: np.ndarray
    t_values: np.ndarray
    stochastic: np.ndarray  # boolean (n_s, n_t); True where T(t,s) stochastic
    singular_s: np.ndarray  # boolean mask over s_values
    violations: tuple[tuple[float, float, float], ...]  # (s, t, worst entry)


def witness_divisibility(spec: SemiMarkovSpec, times: np.ndarray) -> DivisibilityReport:
    """Checks the intermediate matrices T(t, s) for stochasticity on a grid;
    an entry below -CP_FLOOR is a violation.

    Grid points s within 1e-6*T of a zero of the mixing function are flagged
    singular (the propagator inverse does not exist there) and skipped.
    """
    times = np.asarray(times, dtype=float)
    T_max = float(times[-1])
    h = _mixing_function(spec)
    singular = near_zero_mask(times, find_zeros(h, (0.0, (T_max or 1.0) * (1 + 1e-6))), T_max)
    hv = h(times)
    n = len(times)
    rows = np.flatnonzero(~singular)
    upper = np.arange(n) >= rows[:, None]
    ratio = np.divide(hv, hv[rows, None], out=np.zeros(upper.shape), where=upper)
    lo = 0.5 * (1.0 - np.abs(ratio))
    bad = lo < -CP_FLOOR
    stochastic = np.ones((n, n), dtype=bool)
    stochastic[rows] = ~bad
    i, j = np.nonzero(bad)
    violations = zip(times[rows[i]].tolist(), times[j].tolist(), lo[i, j].tolist())
    return DivisibilityReport(
        s_values=times,
        t_values=times,
        stochastic=stochastic,
        singular_s=singular,
        violations=tuple(violations),
    )
