"""Reference values computed without smqdyn's closed-form inversion.

Each function here is an independent route to a quantity the benchmark checks:
a phase-type matrix exponential for jump-count probabilities, a sampled
positive variation that bounds trace-distance measures from below, and the
tail rule that fixes the measure window.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm


def phase_type_jump_probability(rates, n: int, t: float) -> float:
    """P(N(t) = n) from exp(tQ) of the stage chain (Neuts, 1981).

    States are (completed renewals k <= n, current stage j), plus one
    absorbing state for the (n+1)-th renewal; p_n(t) is the mass that sits in
    the k = n block at time t after starting in (0, 0).
    """
    m = len(rates)
    size = (n + 1) * m
    q = np.zeros((size + 1, size + 1))
    for k in range(n + 1):
        for j, rate in enumerate(rates):
            i = k * m + j
            q[i, i] = -rate
            q[i, i + 1] = rate
    row = expm(q * t)[0]
    return float(row[n * m : size].sum())


def sampled_positive_variation(values: np.ndarray) -> float:
    """Total rise of |f| over a sampled grid; never above the true rise."""
    steps = np.diff(np.abs(values))
    return float(steps[steps > 0].sum())


def decisive_sign_changes(values: np.ndarray, envelope: np.ndarray) -> int:
    """Sign changes between samples whose magnitude exceeds rounding noise."""
    sgn = np.sign(values) * (np.abs(values) > 1e-9 * envelope)
    sgn = sgn[sgn != 0]
    return int(np.count_nonzero(sgn[1:] != sgn[:-1]))


def measure_window(derivatives, tol: float = 1e-12) -> float:
    """Horizon beyond which the tail of every derivative integrates below tol.

    This is the rule the measures use to choose their window: start at ten
    slowest decay times and grow by 1.5 until the envelope bound is met.
    """
    slowest = 1.0
    for d in derivatives:
        for p in d.poles:
            if p.real < -1e-12:
                slowest = max(slowest, 1.0 / -p.real)
    horizon = 10.0 * slowest
    for _ in range(60):
        if sum(d.tail_envelope_integral(horizon) for d in derivatives) < tol:
            return horizon
        horizon *= 1.5
    raise ArithmeticError("tail bound did not converge")
