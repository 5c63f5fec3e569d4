"""Renewal-process quantities driven by a hypoexponential waiting time.

The probability of n jumps up to time t has transform ghat(u) fhat(u)^n; its
generating function evaluated at mu in [-1, 1],

    lam_mu(t) = sum_n p_n(t) mu^n,   lamhat_mu(u) = (1/u)(1 - fhat)/(1 - mu fhat),

drives both the classical even/odd-difference propagators (mu = -1) and the
qubit map eigenvalues.  Two independent backends are provided: exact rational
inversion, and a truncated series evaluated by uniformization of the stage
chain with a rigorous Poisson tail bound.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .poly_laplace import (
    ExpPolyFunction,
    Polynomial,
    RationalLaplace,
    invert_laplace,
)
from .waiting_time import HypoExpWTD

__all__ = [
    "CP_FLOOR",
    "GeneratingFunction",
    "ExtremumPoint",
    "SeriesTruncationError",
    "jump_probability",
    "even_odd_difference",
    "generating_function",
    "series_backend",
    "find_extrema",
    "find_zeros",
    "near_zero_mask",
    "pole_grid",
    "sign_brackets",
    "refine_brackets",
    "runs",
]

#: Truncation index for jump-count series (tail controlled by the Poisson
#: count of the fastest stage).
N_MAX_JUMPS = 512

#: A Choi weight or transition-matrix entry below -CP_FLOOR counts as negative.
CP_FLOOR = 1e-12


class SeriesTruncationError(RuntimeError):
    """Raised when the Poisson tail bound cannot be met within the jump cap."""


def jump_probability(w: HypoExpWTD, n: int) -> ExpPolyFunction:
    """Probability p_n(t) of exactly n completed waiting times up to t.

    For well-separated stage rates the closed-form coefficients grow like
    binom(2n, n) and cancel in evaluation, so double precision supports
    roughly n <= 15 there; series_backend is stable in n and t.
    """
    if not isinstance(n, numbers.Integral):
        raise ValueError("jump count must be an integer")
    if n < 0:
        raise ValueError("jump count must be >= 0")
    if n == 0:
        return w.survival()
    f = w.laplace_pdf()
    num = w.one_minus_laplace_over_u()
    den = f.den
    scale = f.num.coeffs[0]  # product of the stage rates
    for _ in range(n):
        num = num * scale
        den = den * f.den
    roots = tuple((p, m * (n + 1)) for p, m in f.den_roots)
    return invert_laplace(RationalLaplace(num, den, den_roots=roots))


@dataclass(frozen=True)
class GeneratingFunction:
    """lam_mu(t) = E[mu^{N(t)}] together with its analytic time derivative."""

    mu: float
    value: ExpPolyFunction
    derivative: ExpPolyFunction

    def __call__(self, t):
        return self.value(t)


@lru_cache(maxsize=512)
def generating_function(w: HypoExpWTD, mu: float) -> GeneratingFunction:
    """Rational-inversion backend for lam_mu.

    mu = 1 short-circuits to the constant 1 (the transform degenerates to
    1/u); mu = 0 reuses the exactly known stage poles of the survival
    probability; equal stage rates take the closed form of _erlang_terms.
    """
    mu = float(mu)
    if not -1.0 <= mu <= 1.0:
        raise ValueError("mu must lie in [-1, 1]")
    if mu == 1.0:
        value = ExpPolyFunction.constant(1.0)
        return GeneratingFunction(mu, value, ExpPolyFunction.zero())
    if mu != 0.0 and len(set(w.rates)) == 1:
        poles, residues = _erlang_terms(w.rates[0], w.n_stages, mu)
        value = ExpPolyFunction(zip(poles, residues[:, None]))
        # Near mu = 0 the residues cancel (rounding bound eps sum|residue|),
        # and poles may merge within the cluster radius: invert those instead.
        rounding = np.finfo(float).eps * np.abs(residues).sum()
        if rounding <= 1e-11 and len(value.terms) == w.n_stages:
            return GeneratingFunction(mu, value, value.differentiate())
    f = w.laplace_pdf()
    num = w.one_minus_laplace_over_u()
    den = f.den - Polynomial([mu * f.num.coeffs[0]])
    roots = f.den_roots if mu == 0.0 else None
    value = invert_laplace(RationalLaplace(num, den, den_roots=roots))
    return GeneratingFunction(mu, value, value.differentiate())


def _erlang_terms(rate: float, m: int, mu: float):
    """Poles and residues of lam_mu for m stages of one rate.

    The poles solve (u + rate)^m = mu rate^m: p_k = rate (z_k - 1) with
    z_k = |mu|^(1/m) e^(i theta_k), theta_k = (2k + [mu < 0]) pi/m taken in
    (-pi, pi] so that conjugate poles are exact; the residues are
    (mu - 1) z_k / (m mu (z_k - 1)).  z_k - 1 is formed without cancellation
    for mu near 1 and theta_k near 0.  (As den_roots of invert_laplace they
    fail: the monomial numerator of (1 - fhat)/u loses ~3^m there.)
    """
    j = np.arange(1 - m, m + 1)
    theta = j[j % 2 == (mu < 0.0)] * math.pi / m
    log_r = math.log(abs(mu)) / m
    z = math.exp(log_r) * np.exp(1j * theta)
    z_m1 = math.expm1(log_r) * np.cos(theta) - 2.0 * np.sin(0.5 * theta) ** 2
    z_m1 = z_m1 + 1j * z.imag
    return rate * z_m1, (mu - 1.0) * z / (m * mu * z_m1)


def even_odd_difference(w: HypoExpWTD) -> ExpPolyFunction:
    """q(t): probability of an even minus an odd number of jumps up to t."""
    return generating_function(w, -1.0).value


def _poisson_weights(a: float, tol: float) -> np.ndarray:
    """Poisson(a) probabilities of 0..k_max, where k_max - 1 is the first count
    whose upper tail P(X > k) is at most tol/2.

    The ratios to the mode's probability are products of factors j/a below
    the mode and a/j above it, all at most 1, so nothing overflows; they run
    up to a + 40 sqrt(a) + 60, past which the mass is below e^-90, and are
    normalised by their sum.
    """
    n, mode = int(a + 40.0 * math.sqrt(a) + 60.0), int(a)
    below = np.cumprod(np.arange(mode, 0, -1) / a)[::-1]
    above = np.cumprod(a / np.arange(mode + 1.0, n + 1))
    w = np.concatenate([below, [1.0], above])
    w /= w.sum()
    tail = np.cumsum(w[::-1])[::-1]  # tail[k] = P(X >= k)
    k_max = int(np.argmax(tail[1:] <= 0.5 * tol)) + 1
    return w[: k_max + 1]


def series_backend(
    w: HypoExpWTD, mu: float, t: float, tol: float = 1e-10
) -> float:
    """Truncated-series evaluation of lam_mu(t), independent of inversion.

    Uniformizes the m-state cyclic stage chain at the fastest stage rate
    lam_max: one step of P = I + Q_mu/lam_max leaves stage i for the next
    with probability r_i/lam_max, and the wrap from the last stage to stage
    0, which completes a waiting time, carries a factor mu.  Then
    lam_mu(t) = sum_K Poisson(lam_max t; K) s_K with s_K = e_0^T P^K 1, and
    the rows P^K 1 for K <= k_max come from about log2(k_max) doublings, each
    one m x m matmul on the rows so far: O(m^2 k_max) flops per call, with no
    roots or eigenvalues.  Truncating the Poisson sum leaves an error below
    its tail mass because every row sum of |P| is at most 1, so |s_K| <= 1.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if not -1.0 <= mu <= 1.0:
        raise ValueError("mu must lie in [-1, 1]")
    if not t >= 0:
        raise ValueError("time must be nonnegative")
    if math.isinf(t):
        raise ValueError("time must be finite")
    if t == 0.0 or mu == 1.0:
        return 1.0
    m = w.n_stages
    lam_max = max(w.rates)
    cap = N_MAX_JUMPS * m
    a = lam_max * t
    if a - 40.0 * math.sqrt(a) - 60.0 > cap:  # the mass up to the cap is below e^-800
        raise SeriesTruncationError(
            f"need over {cap} uniformization steps, cap is {cap}"
        )
    weights = _poisson_weights(a, tol)
    k_max = weights.size - 1
    if k_max > cap:
        raise SeriesTruncationError(
            f"need {k_max} uniformization steps, cap is {cap}"
        )
    p = np.array(w.rates) / lam_max
    step = np.diag(1.0 - p) + np.diag(p[:-1], 1)
    step[m - 1, 0] += mu * p[-1]  # the wrap completes a waiting time
    rows, power = np.ones((1, m)), step  # rows[K] = (P^K 1)^T, power = P^len(rows)
    while rows.shape[0] <= k_max:
        rows = np.vstack([rows, rows @ power.T])
        power = power @ power
    return float(weights @ rows[: k_max + 1, 0])


@dataclass(frozen=True)
class ExtremumPoint:
    """Critical point of f reported against the modulus |f|.

    kind is ``max``/``min`` for stationary points of f classified by whether
    |f| peaks or dips there, and ``zero-crossing`` where f changes sign.
    """

    t: float
    value: float
    kind: str

    @property
    def magnitude(self) -> float:
        return abs(self.value)


def pole_grid(
    fs: list[ExpPolyFunction], window: tuple[float, float], n_min: int
) -> np.ndarray:
    """Uniform grid over the window with at least n_min steps, each at most
    1/20 of every decay time 1/|Re p| and half period pi/|Im p| of the fs."""
    t0, t1 = window
    if not t1 > t0:
        raise ValueError("window must have positive length")
    steps = [(t1 - t0) / n_min]
    for p in [p for f in fs for p in f.poles]:
        if abs(p.imag) > 1e-12:
            steps.append(np.pi / abs(p.imag) / 20.0)
        if abs(p.real) > 1e-12:
            steps.append(1.0 / abs(p.real) / 20.0)
    n = max(int(np.ceil((t1 - t0) / min(steps))), n_min)
    return np.linspace(t0, t1, n + 1)


def sign_brackets(values, envelopes) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j) bracketing the genuine sign changes of samples.

    Values within 1e-12 of their local term-magnitude envelope are rounding
    noise (e.g. a flat double zero at the window edge) and carry no sign;
    brackets run between consecutive decisive samples of opposite sign.
    """
    sgn = np.where(np.abs(values) > 1e-12 * envelopes, np.sign(values), 0.0)
    idx = np.flatnonzero(sgn)
    flip = sgn[idx[:-1]] != sgn[idx[1:]]
    return idx[:-1][flip], idx[1:][flip]


def runs(flags) -> tuple[np.ndarray, np.ndarray]:
    """Start and end-exclusive indices of each maximal run of True in flags."""
    edges = np.flatnonzero(np.diff(np.concatenate(([0], np.int8(flags), [0]))))
    return edges[::2], edges[1::2]


def refine_brackets(f, a, b, xtol: float) -> np.ndarray:
    """Sign-change points of f inside every bracket [a_k, b_k] at once.

    f maps an array of times, one per bracket, to the values of the function
    each bracket belongs to.  All brackets step together by the Illinois
    variant of regula falsi, with a bisection step wherever two steps failed
    to halve a bracket, until each is narrower than xtol + 8.9e-16*|t| (the
    termination rule of scipy's brentq); the midpoint is returned.
    """
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    fa, fb = np.asarray(f(a), dtype=float), np.asarray(f(b), dtype=float)
    side = np.zeros(a.shape)  # end moved last: -1 for a, +1 for b
    old = prev = np.full(a.shape, np.inf)
    while True:
        m = 0.5 * (a + b)
        tol = xtol + 8.9e-16 * np.abs(m)
        width = b - a
        active = width > tol
        if not active.any():
            return m
        with np.errstate(all="ignore"):
            c = (a * fb - b * fa) / (fb - fa)
        c = np.where(np.isfinite(c) & (width <= 0.5 * old), c, m)
        # At least tol/2 inside, so a root near one end closes the bracket.
        c = np.where(active, np.clip(c, a + 0.5 * tol, b - 0.5 * tol), m)
        fc = np.asarray(f(c), dtype=float)
        left = active & ((fc > 0) == (fa > 0))
        right = active & ~left
        fb = np.where(left & (side < 0), 0.5 * fb, fb)
        fa = np.where(right & (side > 0), 0.5 * fa, fa)
        a, fa = np.where(left, c, a), np.where(left, fc, fa)
        b, fb = np.where(right, c, b), np.where(right, fc, fb)
        side = np.where(left, -1.0, np.where(right, 1.0, side))
        old, prev = prev, width


def find_extrema(
    f: ExpPolyFunction, window: tuple[float, float]
) -> list[ExtremumPoint]:
    """Interior critical points of f in the window, ordered by time.

    Sign changes of f' are bracketed on a grid finer than any pole period and
    refined all at once; zeros of f are located the same way.  Stationary
    values below 1e-12 times the window scale of |f| count as zero-touching
    minima.
    """
    t0, T = window
    grid = pole_grid([f], window, 100)
    df = f.differentiate()
    if df.is_zero():
        return []
    fv, dv = f(grid), df(grid)
    scale = float(np.max(np.abs(fv))) or 1.0
    i, j = sign_brackets(dv, df.envelope(grid))
    stat = refine_brackets(df, grid[i], grid[j], xtol=1e-14)
    stat = stat[(t0 < stat) & (stat < T)]
    vals = f(stat)
    curv = df.differentiate()(stat)
    h = (grid[1] - grid[0]) / 8.0
    points: list[ExtremumPoint] = []
    for t_star, val, cv in zip(stat, vals, curv):
        if abs(val) < 1e-12 * scale:
            kind = "min"  # zero-touching: keeps measure sums well defined
        else:
            if cv == 0.0:
                cv = f(min(t_star + h, T)) - 2.0 * val + f(max(t_star - h, t0))
            kind = "max" if val * cv < 0 else "min"
        points.append(ExtremumPoint(float(t_star), float(val), kind))
    zeros = find_zeros(f, window, fv)
    points += [ExtremumPoint(float(z), 0.0, "zero-crossing") for z in zeros]
    points.sort(key=lambda p: p.t)
    return points


def find_zeros(f: ExpPolyFunction, window: tuple[float, float], fv=None):
    """Sign changes of f inside the window, the zero crossings of find_extrema
    without its extrema; fv may hold the values of f on their shared grid."""
    grid = pole_grid([f], window, 100)
    i, j = sign_brackets(f(grid) if fv is None else fv, f.envelope(grid))
    z = refine_brackets(f, grid[i], grid[j], xtol=1e-14)
    return z[(grid[0] < z) & (z < grid[-1])]


def near_zero_mask(times, zeros, horizon: float) -> np.ndarray:
    """Mask of the times within 1e-6*horizon of one of the zeros: there a
    propagator built on the inverse of the zeroed function is singular."""
    gaps = np.abs(np.asarray(times)[:, None] - np.asarray(zeros, dtype=float))
    return (gaps <= 1e-6 * horizon).any(axis=1)
