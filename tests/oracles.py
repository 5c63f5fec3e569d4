"""Independent numerical oracles used to freeze expected values.

Nothing here touches the partial-fraction inversion path it checks: Laplace
inversion goes through fixed-Talbot contour summation, convolutions and
integrals through trapezoid quadrature, and the two-stage closed forms are
evaluated directly from their hyperbolic expressions with complex-safe
arguments.
"""

from __future__ import annotations

import cmath
import math

import numpy as np


def talbot_inverse(transform, t: float, terms: int = 48) -> float:
    """Fixed-Talbot numerical inverse Laplace transform at one time t > 0.

    ``transform`` maps a complex u to F(u).  Accuracy is near machine
    precision for smooth strictly proper rationals at moderate t.
    """
    if t <= 0:
        raise ValueError("contour inversion needs t > 0")
    M = terms
    acc = 0.0
    for k in range(M):
        if k == 0:
            delta = 2.0 * M / 5.0
            gamma = 0.5 * cmath.exp(delta)
        else:
            c = 1.0 / math.tan(k * math.pi / M)
            delta = 2.0 * k * math.pi / 5.0 * (c + 1j)
            gamma = (1.0 + 1j * (k * math.pi / M) * (1.0 + c * c) - 1j * c) * cmath.exp(
                delta
            )
        acc += (gamma * transform(delta / t)).real
    return 2.0 / (5.0 * t) * acc


def numeric_convolution(f, g, ts: np.ndarray, n_quad: int = 4001) -> np.ndarray:
    """(f * g)(t) = integral_0^t f(t - tau) g(tau) dtau by trapezoid."""
    out = np.empty(len(ts))
    for i, t in enumerate(ts):
        if t == 0.0:
            out[i] = 0.0
            continue
        taus = np.linspace(0.0, t, n_quad)
        out[i] = np.trapezoid(f(t - taus) * g(taus), taus)
    return out


def central_difference(f, t: float, h: float = 1e-6) -> float:
    return (f(t + h) - f(t - h)) / (2.0 * h)


def two_stage_pdf(rate_sum: float, rate_prod: float, t) -> np.ndarray:
    """Density of the sum of two independent exponentials with distinct
    rates, via the hyperbolic closed form in the rate sum s and product p.
    Degenerate at equal rates (the sinh form becomes 0/0)."""
    t = np.asarray(t, dtype=float)
    disc = cmath.sqrt(1.0 - 4.0 * rate_prod / rate_sum**2)
    if disc == 0:
        raise ValueError("equal rates: closed form degenerates")
    vals = (
        2.0
        * (rate_prod / rate_sum)
        * np.exp(-0.5 * rate_sum * t)
        * np.array([(cmath.sinh(0.5 * rate_sum * tt * disc) / disc) for tt in t])
    )
    return vals.real


def two_stage_parity(r: float, lam: float, t) -> np.ndarray:
    """Even-minus-odd jump-count difference for stage rates (lam, r*lam).

    q(t) = exp(-(1+r) lam t / 2) [cosh(D lam t/2) + (1+r)/D sinh(D lam t/2)]
    with D = sqrt(r^2 - 6r + 1), complex for r in (3-2*sqrt(2), 3+2*sqrt(2))
    where q oscillates.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    disc = cmath.sqrt(r * r - 6.0 * r + 1.0)
    out = np.empty(len(t))
    for i, tt in enumerate(t):
        x = 0.5 * disc * lam * tt
        val = cmath.cosh(x) + (1.0 + r) / disc * cmath.sinh(x) if disc != 0 else (
            1.0 + (1.0 + r) * 0.5 * lam * tt
        )
        out[i] = (math.exp(-0.5 * (1.0 + r) * lam * tt) * val).real
    return out


def erlang_parity_series(m: int, lam: float, t: float, n_max: int = 2000) -> float:
    """Alternating window sum e^{-x} sum_n (-1)^n sum_{k<m} x^{mn+k}/(mn+k)!.

    Terms x^j/j! are built incrementally to avoid overflow at large x.
    """
    x = lam * t
    total = 0.0
    term = 1.0  # x^j / j!
    j = 0
    for n in range(n_max):
        block = 0.0
        for _ in range(m):
            block += term
            j += 1
            term *= x / j
        total += (-1.0) ** n * block
        if j > x and term < 1e-18:
            break
    return math.exp(-x) * total


def poisson_pmf(n: int, mean: float) -> float:
    return math.exp(-mean) * mean**n / math.factorial(n)


def erlang_phase_type_generating_function(m: int, lam: float, mu: float, ts):
    """E[mu^N(t)] for m stages of rate lam as e_1^T exp(t Q_mu) 1.

    Q_mu is the cyclic bidiagonal stage generator whose last-to-first
    transition, the completion of a waiting time, is weighted by mu.
    """
    from scipy.linalg import expm

    q = lam * (np.eye(m, k=1) - np.eye(m))
    q[m - 1, 0] += lam * mu
    return np.array([expm(t * q)[0].sum() for t in ts])


def phase_type_jump_probability(rates, n: int, t: float) -> float:
    """P(N(t) = n) as the mass in block n of e_1^T exp(t Q).

    The states are (jump count j <= n, stage i), in order; Q moves each state
    to the next at its stage rate, so the last stage of block j feeds the
    first stage of block j + 1 and block n leaks to the dropped rest.
    """
    from scipy.linalg import expm

    r = np.tile(np.asarray(rates, dtype=float), n + 1)
    q = np.diag(r[:-1], k=1) - np.diag(r)
    return float(expm(t * q)[0, n * len(rates):].sum())


def to_rational(f):
    """Laplace transform of an ExpPolyFunction: c t^k e^{pt} -> c k!/(u-p)^{k+1}."""
    from smqdyn.poly_laplace import Polynomial, RationalLaplace

    num = Polynomial([0.0])
    den = Polynomial([1.0])
    for pole, coeffs in f.terms:
        factor = Polynomial([-pole, 1.0])
        block_den = Polynomial([1.0])
        for _ in range(len(coeffs)):
            block_den = block_den * factor
        block_num = Polynomial([0.0])
        partial = Polynomial([1.0])  # (u-p)^(m-1-k) built downward
        for k in range(len(coeffs) - 1, -1, -1):
            block_num = block_num + (coeffs[k] * math.factorial(k)) * partial
            partial = partial * factor
        num = num * block_den + block_num * den
        den = den * block_den
    return RationalLaplace(
        num, den, den_roots=tuple((p, len(cs)) for p, cs in f.terms)
    )
