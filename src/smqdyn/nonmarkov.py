"""Non-Markovianity diagnostics for renewal-driven Pauli-channel dynamics.

Witnesses and measures implemented here:

* trace-distance trajectories and their growth intervals (information
  backflow), with the measure given by the total rise of the distance over
  all growth intervals, maximized over antipodal pure-state pairs along the
  three axes;
* complete-positivity of the intermediate maps via the sign of the smallest
  Pauli-conjugation weight (divisibility criterion), including the fixed-lag
  scan, the unnormalized divergence-prone measure, and the arctangent
  variant normalized by the extension of the violation region;
* time-local master-equation rates in two algebraically equivalent forms:
  an overcomplete set (dephasing + excitation-exchange pair + an opposite
  sigma_x/sigma_y pair) whose signs are not divisibility indicators, and the
  canonical three-rate form whose signs are.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .poly_laplace import AccuracyError, ExpPolyFunction, evaluate_all
from .renewal import (
    CP_FLOOR,
    _shifted,
    find_extrema,
    find_zeros,
    generating_function,
    is_root,
    near_zero_mask,
    pole_grid,
    refine_brackets,
    runs,
    sign_brackets,
)
from .qubit import (
    SIGMA,
    ChannelDynamics,
    PauliChannel,
    QubitState,
    dynamics,
)
from .waiting_time import HypoExpWTD

__all__ = [
    "DistinguishabilityTrace",
    "TCLCoefficients",
    "MeasureResult",
    "PairSearchConfig",
    "DivisibilityScan",
    "trace_distance",
    "distinguishability_trace",
    "blp_measure_dephasing",
    "blp_measure_numeric",
    "divisibility_scan",
    "hou_measure",
    "rhp_divisibility_measure",
    "tcl_coefficients",
    "tcl_equivalence_check",
    "tcl_generators",
    "tcl_rates",
    "tcl_residual",
]


def trace_distance(r1: QubitState, r2: QubitState) -> float:
    """Half the trace norm of the difference of two density matrices."""
    evals = np.linalg.eigvalsh(r1.matrix() - r2.matrix())
    return 0.5 * float(np.sum(np.abs(evals)))


@dataclass(frozen=True)
class DistinguishabilityTrace:
    times: np.ndarray
    distances: np.ndarray
    sigma: np.ndarray
    growth_intervals: tuple[tuple[float, float], ...]

    @property
    def has_growth(self) -> bool:
        return len(self.growth_intervals) > 0


@dataclass(frozen=True)
class MeasureResult:
    value: float
    contributions: tuple[tuple[tuple[float, float], float], ...]
    method: str
    direction: tuple[float, float, float] | None = None
    tail_bound: float = 0.0
    note: str = ""

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.value)


def _measure_window(
    derivs: list[ExpPolyFunction], window: tuple[float, float] | None = None
) -> tuple[tuple[float, float], float]:
    """The measure window as floats and the tail bound beyond it.

    A given window must satisfy 0 <= t0 < t1 < inf, and its tail bound is 0.
    Otherwise the window is (0, T), T the horizon beyond which the remaining
    total variation of the derivs is below 1e-12, and the bound is that rest.
    """
    if window is not None:
        if not 0.0 <= window[0] < window[1] < math.inf:
            raise ValueError("window must satisfy 0 <= t0 < t1 < inf")
        return (float(window[0]), float(window[1])), 0.0
    derivs = list(dict.fromkeys(derivs))  # a shared eigenvalue's tail counts once
    slowest = 1.0
    for d in derivs:
        for p in d.poles:
            if p.real < -1e-12:
                slowest = max(slowest, 1.0 / -p.real)
    T = 10.0 * slowest
    for _ in range(60):
        tail = sum(d.tail_envelope_integral(T) for d in derivs)
        if tail < 1e-12:
            return (0.0, T), tail
        T *= 1.5
    raise RuntimeError("tail bound did not converge; non-decaying component?")


def _positive_variation(
    f: ExpPolyFunction, window: tuple[float, float]
) -> tuple[float, list[tuple[tuple[float, float], float]]]:
    """Total rise of |f| over the window, with the contributing intervals.

    |f| is monotone between consecutive critical points of f (stationaries
    and sign changes), so the rise telescopes over runs of increasing steps.
    """
    t0, t1 = window
    crit = [t0] + [p.t for p in find_extrema(f, window)] + [t1]
    gains = np.diff([abs(f(t)) for t in crit])
    spans = zip(*runs(gains > 0.0))
    contributions = [((crit[a], crit[b]), sum(gains[a:b].tolist())) for a, b in spans]
    return sum(c for _, c in contributions), contributions


def blp_measure_dephasing(w: HypoExpWTD, mu: float = -1.0) -> MeasureResult:
    """Exact trace-distance measure for a pure-dephasing map.

    The optimal pair is an opposite equatorial one, for which the distance is
    |lam_mu(t)| (mu = -1 for the phase flip, mu = 1 - 2 nu for the mixture
    with the identity).  The measure is the sum over growth intervals of the
    rise of |lam_mu|, truncated once the tail envelope drops below 1e-12.
    """
    gen = generating_function(w, mu)
    if gen.derivative.is_zero():
        return MeasureResult(0.0, (), "blp-analytic")
    window, tail = _measure_window([gen.derivative])
    value, contributions = _positive_variation(gen.value, window)
    return MeasureResult(
        value, tuple(contributions), "blp-analytic", tail_bound=tail
    )


def distinguishability_trace(
    ch: PauliChannel,
    w: HypoExpWTD,
    r1: QubitState,
    r2: QubitState,
    window: tuple[float, float],
) -> DistinguishabilityTrace:
    """Trace distance D(t) and its derivative on 2000 uniform times, and the
    growth intervals.

    D(t) = sqrt(S(t))/2 with S = sum_i lam_i(t)^2 dr_i^2 and dr the initial
    Bloch difference.  S is itself an exp-polynomial, and D grows exactly where
    S does: the growth intervals are the rising runs of _positive_variation(S).
    """
    dr = r1.bloch - r2.bloch
    if float(np.linalg.norm(dr)) < 1e-12:
        raise ValueError("state pair is degenerate")
    weights = dr**2
    dyn = dynamics(ch, w)
    s_w = ExpPolyFunction.zero()
    for wt, g in zip(weights, dyn.generators):
        if wt:
            s_w += (g.value * g.value) * float(wt)
    _, rises = _positive_variation(s_w, window)
    times = np.linspace(window[0], window[1], 2000)
    lam = dyn.lambdas(times)
    dlam = dyn.lambda_dots(times)
    S = np.einsum("i,it->t", weights, lam**2)
    N = np.einsum("i,it->t", weights, lam * dlam)
    D = 0.5 * np.sqrt(S)
    with np.errstate(divide="ignore", invalid="ignore"):
        sigma = np.where(S > 0, N / (2.0 * np.sqrt(S)), 0.0)
    return DistinguishabilityTrace(times, D, sigma, tuple(ab for ab, _ in rises))


@dataclass(frozen=True)
class PairSearchConfig:
    """Options of blp_measure_numeric: the window (default: the auto-window).

    n_directions is accepted and ignored, since the measure scores the axes
    only; it stays while the benchmark workload still passes it.
    """

    n_directions: int = 64
    window: tuple[float, float] | None = None


def blp_measure_numeric(
    ch: PauliChannel,
    w: HypoExpWTD,
    cfg: PairSearchConfig = PairSearchConfig(),
) -> MeasureResult:
    """Trace-distance measure maximized over the antipodal pairs on the axes.

    The pair +/-e_i has distance |lam_i(t)|, so axis i scores the exact
    positive variation of lam_i, once per distinct eigenvalue; the first axis
    wins a tie.  Optimal pairs are antipodal (Wissmann et al., PRA 86, 062108
    (2012)); that no pair off the axes beats the best axis is a conjecture,
    which the tests check on lattices of directions.
    """
    dyn = dynamics(ch, w)
    window, tail = _measure_window([g.derivative for g in dyn.generators], cfg.window)
    scored = [_positive_variation(g.value, window) for g in dyn.generators]
    axis = max(range(3), key=lambda i: scored[i][0])
    value, contributions = scored[axis]
    return MeasureResult(
        value,
        tuple(contributions),
        "blp-numeric",
        direction=tuple(float(x) for x in np.eye(3)[axis]),
        tail_bound=tail,
    )


@dataclass(frozen=True)
class DivisibilityScan:
    t_values: np.ndarray
    s_values: np.ndarray
    min_component: np.ndarray  # (n_t, n_s), NaN on singular columns
    singular_t: np.ndarray  # boolean mask over t_values
    negative_cells: tuple[tuple[float, float, float], ...]  # (t, s, min comp)

    @property
    def has_violation(self) -> bool:
        return len(self.negative_cells) > 0


def _singular_times(dyn: ChannelDynamics, window: tuple[float, float]) -> list[float]:
    """Eigenvalue zeros inside the window by find_zeros, once per distinct
    eigenvalue (a dephasing map shares one generator between lam_x and lam_y):
    the zero crossings of find_extrema(lam_i), from the same cached search."""
    fs = [dyn.generators[i].value for i in dyn.varying]
    return sorted(z for f in fs for z in find_zeros(f, window).tolist())


def divisibility_scan(
    ch: PauliChannel,
    w: HypoExpWTD,
    t_values: np.ndarray,
    s_values: np.ndarray,
) -> DivisibilityScan:
    """Smallest Pauli-conjugation weight of the intermediate map per cell.

    The map from t to t+s has eigenvalue ratios lam_i(t+s)/lam_i(t); rows
    whose t falls within 1e-6 * max t of a zero of any lam_i are flagged
    singular and excluded, mirroring the divergence of the ratios there.  The
    mask depends on the start times only, as in witness_divisibility.
    """
    t_values = np.asarray(t_values, dtype=float)
    s_values = np.asarray(s_values, dtype=float)
    if not all(v.size and np.isfinite(v).all() for v in (t_values, s_values)):
        raise ValueError("scan times and lags must be non-empty and finite")
    dyn = dynamics(ch, w)
    lam_t = dyn.lambdas(t_values)[:, :, None]  # (3, nt, 1); rejects t < 0
    lam_ts = dyn.lambdas(t_values[:, None] + s_values[None, :])
    T = float(t_values.max())
    singular = near_zero_mask(t_values, _singular_times(dyn, (0.0, T + 1e-9)), T)
    with np.errstate(divide="ignore", invalid="ignore"):
        min_comp = _choi_sums(1.0, lam_ts / lam_t).min(axis=0)
    min_comp[singular, :] = np.nan
    i, j = np.nonzero(min_comp < -CP_FLOOR)  # row-major: t, then s
    cells = zip(t_values[i].tolist(), s_values[j].tolist(), min_comp[i, j].tolist())
    return DivisibilityScan(t_values, s_values, min_comp, singular, tuple(cells))


def _choi_sums(q, terms) -> np.ndarray:
    """A (q, x, y, z) / 4 stacked, A = PAULI_TRANSFORM, by three column adds per
    row, in place: (x + y) + z, (x - y) - z, (y - x) - z and z - (x + y), plus q."""
    x, y, z = terms
    w = np.empty((4,) + np.shape(x))  # w[k, ...]: a view, if x is 0-d too
    np.subtract(z, np.add(x, y, out=w[0, ...]), out=w[3, ...])
    np.negative(np.subtract(x, y, out=w[1, ...]), out=w[2, ...])
    w[0] += z
    w[1:3] -= z
    w += q
    w *= 0.25
    return w


def _lag_difference(f: ExpPolyFunction, s: float) -> ExpPolyFunction:
    """f(t + s) - f(t) with f's poles, which cancels at no s: c t^j e^{pt} gives
    c expm1(ps) t^j e^{pt}, and c e^{ps} binom(j, l) s^(j - l) t^l e^{pt}, l < j."""
    return ExpPolyFunction((p, [c * complex(np.expm1(p * s)) + cmath.exp(p * s) * sum(
        cs[j] * math.comb(j, l) * s ** (j - l) for j in range(l + 1, len(cs)))
        for l, c in enumerate(cs)]) for p, cs in f.terms)


@lru_cache(maxsize=256)
def _lag_functions(dyn: ChannelDynamics, s: float) -> tuple[ExpPolyFunction, ...]:
    """Each distinct eigenvalue lam_i (dyn._values), then each D_i, all without
    lam_i's slowest decay e^{q_i t} (renewal._shifted, as find_zeros searches
    lam_i): their ratios are kept, and nothing underflows."""
    q = [max(p.real for p in f.poles) for f in dyn._values]
    fs = (*dyn._values, *(_lag_difference(f, s) for f in dyn._values))
    return tuple(map(_shifted, fs, q + q))


def _lag_values(dyn: ChannelDynamics, s: float, t, envelope: bool = False) -> np.ndarray:
    """lam_i(t) and D_i(t) = lam_i(t + s) - lam_i(t), both times e^{-q_i t}, or
    their term envelopes, stacked to (2, 3) + shape(t)."""
    fs = _lag_functions(dyn, s)
    v = np.array([f.envelope(t) for f in fs]) if envelope else evaluate_all(fs, t)
    return dyn._per_axis(v)


def _negativity(dyn: ChannelDynamics, s: float, t) -> np.ndarray:
    """Choi negativity of the intermediate maps from t to t + s, t an array, from
    the weights A (0, D / lam) / 4 + (1, 0, 0, 0), which do not cancel as s -> 0;
    inf where some lam_i(t) = 0, where they diverge (the arctangent is bounded)."""
    lam, d = _lag_values(dyn, s, np.asarray(t, dtype=float))
    with np.errstate(divide="ignore", invalid="ignore"):
        mu = _choi_sums(0.0, d / lam)
        mu[0] += 1.0
        neg = -np.minimum(mu, 0.0).sum(axis=0)
    return np.where(np.any(lam == 0.0, axis=0), np.inf, neg)


def _choi_numerators(dyn: ChannelDynamics, s: float, t, bound: bool = True):
    """Numerators N = Q w of the Choi weights w of the maps from t to t + s, and
    (if bound) Q and N's rounding bound.  Q is the product of the distinct
    non-constant eigenvalues at t and F_i that of those other than lam_i, so
    lam_i F_i = Q and N = Q (1, 0, 0, 0) + A (0, D F) / 4 cancels at no lag; N
    is smooth through the eigenvalue zeros, and sign(w) = sign(N) sign(Q).  The
    bound is N of the term envelopes of lam_i and D_i, every sign +, times
    16 eps (1 + |p| t), p the largest pole (p t rounds too).  lam_i and D_i are
    those of _lag_values, without their slowest decay e^{q_i t}: N and Q are
    those of the raw eigenvalues times e^{-sum q_i t} > 0, and do not underflow."""
    one = np.ones(np.shape(t))  # the products multiply in order, as np.prod would

    def products(lam, d):  # Q and the terms D_i F_i
        q = math.prod((lam[j] for j in dyn.varying), start=one)
        return q, d * np.array([math.prod((lam[j] for j in o), start=one) for o in dyn.factors])

    q, terms = products(*_lag_values(dyn, s, t))
    num = _choi_sums(0.0, terms)
    num[0] += q
    if not bound:
        return num
    env_q, env_terms = products(*_lag_values(dyn, s, t, True))
    big = max([abs(p) for f in _lag_functions(dyn, s) for p in f.poles] + [0.0])
    env = 0.25 * env_terms.sum(axis=0) + np.multiply.outer([1.0, 0.0, 0.0, 0.0], env_q)
    return num, q, 16.0 * np.finfo(float).eps * (1.0 + big * np.abs(t)) * env


def _violated(num: np.ndarray, q: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """Where some weight w = N/Q is negative beyond N's rounding bound."""
    return (np.where(q < 0.0, -num, num) < -bound).any(axis=0)


@lru_cache(maxsize=256)
def _violation_intervals(
    dyn: ChannelDynamics, s_offset: float, window: tuple[float, float]
) -> tuple[tuple[tuple[float, float], ...], tuple[float, ...]]:
    """Subintervals where the intermediate map fails complete positivity and
    kinks of the total negativity, cached per (dyn, lag, window) for hou and rhp.

    A weight changes sign where its numerator N_k does, or at an eigenvalue
    zero, where N is smooth and two weights are negative on either side.  The
    kinks are the decisive sign changes of the N_k on the pole grid (split at
    the eigenvalue zeros), of each distinct row once, refined by one call on
    their rows; every boundary is a kink, and between two kinks the map is
    violated throughout or nowhere.  N does not underflow at any t (see
    _choi_numerators).
    """
    t0, t1 = window
    grid = pole_grid([g.value for g in dyn.generators], window, 400)
    zeros = _singular_times(dyn, window)
    grid = np.insert(grid, np.searchsorted(grid, zeros), zeros)
    num, _, bound = _choi_numerators(dyn, s_offset, grid)
    # rows with one key are one function: A's sums over each eigenvalue's axes, Q in row 0
    key = np.column_stack([_choi_sums(0.0, np.eye(3)[dyn.rows]), np.arange(4) == 0])
    rows = np.sort(np.unique(key, axis=0, return_index=True)[1])
    signs = np.where(np.abs(num) > bound, num, 0.0)  # a sample within its bound has none
    kink = [sign_brackets(signs[k], 0.0) for k in rows]
    lo, hi = (np.concatenate(ends) for ends in zip(*kink))
    row, at = np.repeat(rows, [len(i) for i, _ in kink]), np.arange(lo.size)
    roots = refine_brackets(lambda t: _choi_numerators(dyn, s_offset, t, False)[row, at],
                            grid[lo], grid[hi], 1e-12, num[row, lo])
    marks = np.array([t0, *sorted(set(roots.tolist())), t1])  # a root shared by rows once
    mids = 0.5 * (marks[:-1] + marks[1:])
    starts, ends = runs(_violated(*_choi_numerators(dyn, s_offset, mids)))
    intervals = tuple(zip(marks[starts].tolist(), marks[ends].tolist()))
    return intervals, tuple(marks[1:-1].tolist())


def _pieces(intervals, cuts) -> list[np.ndarray]:
    """Each interval as an array of its ends and the cuts inside it."""
    return [np.array(sorted({a, b, *(c for c in cuts if a < c < b)})) for a, b in intervals]


#: Open panels of _gauss_kronrod past which only the largest errors are split.
QUAD_PANEL_CAP = 4000

# QUADPACK's qk15 rule on [-1, 1], outermost node first down to 0: the
# Kronrod nodes and weights, and the 7-point Gauss weights on every second node.
_XK = [0.99145537112081264, 0.94910791234275852, 0.86486442335976907,
       0.74153118559939444, 0.58608723546769113, 0.40584515137739717,
       0.20778495500789847, 0.0]
_WK = [0.022935322010529225, 0.063092092629978553, 0.10479001032225018,
       0.14065325971552592, 0.16900472663926790, 0.19035057806478541,
       0.20443294007529889, 0.20948214108472783]
_WG = [0.0, 0.12948496616886969, 0.0, 0.27970539148927667,
       0.0, 0.38183005050511894, 0.0, 0.41795918367346939]
_GK_NODES = np.array([-x for x in _XK] + _XK[-2::-1])
_GK_WEIGHTS = np.array(_WK + _WK[-2::-1])
_G7_WEIGHTS = np.array(_WG + _WG[-2::-1])


def _gauss_kronrod(f, pieces, scale=math.inf, singular=()):
    """Adaptive G7/K15 integrals of the array-valued f, one per piece.

    A piece is an increasing array of breakpoints: the interval ends and the
    points inside where f is not smooth.  Each round evaluates f on every open
    panel in one call and halves those that are not final.  A panel is final
    once its QUADPACK error estimate is within its length share of
    max(eps, eps*|I|), scipy quad's default tolerance, and it is no wider than
    scale where it touches one of the singular times (f's features there are
    that wide; a kink has none); or once it is within 32 ulps of its midpoint.
    Those splits are made up front if they all fit within half the cap.
    Over QUAD_PANEL_CAP open panels, a piece whose errors meet its tolerance
    is done (QUADPACK's test) and only the largest errors are split.  Returns
    the integrals and their error estimates; raises AccuracyError where an
    error exceeds its tolerance.
    """
    eps, max_rounds = 1.49e-8, 50
    lo = np.concatenate([p[:-1] for p in pieces] + [[]])
    hi = np.concatenate([p[1:] for p in pieces] + [[]])
    n = len(pieces)
    owner = np.repeat(np.arange(n), [len(p) - 1 for p in pieces])
    length = np.array([p[-1] - p[0] for p in pieces])
    total, error = np.zeros(n), np.zeros(n)
    z = np.append(np.sort(singular), np.nan)  # a last time that equals no end

    def forced(lo, hi, half):  # wider than scale with an end at a singular time
        return (z[np.searchsorted(z[:-1], (lo, hi))] == (lo, hi)).any(axis=0) & (half > scale)

    # The rounds would halve such a panel once per round until it is final: those
    # splits come before the first round, if all of them fit within half the cap.
    cut_lo, cut_hi, cut_owner = lo, hi, owner
    while cut_lo.size <= QUAD_PANEL_CAP // 2:
        half = 0.5 * (cut_hi - cut_lo)
        mid = cut_lo + half
        cut = forced(cut_lo, cut_hi, half) & (half > 32.0 * np.spacing(np.abs(mid)))
        if not cut.any():
            lo, hi, owner = cut_lo, cut_hi, cut_owner
            break
        cut_lo = np.append(cut_lo, mid[cut])
        cut_hi = np.append(np.where(cut, mid, cut_hi), cut_hi[cut])
        cut_owner = np.append(cut_owner, cut_owner[cut])
    for rnd in range(max_rounds):
        if lo.size == 0:
            break
        half = 0.5 * (hi - lo)
        mid = lo + half
        fx = f(mid[:, None] + half[:, None] * _GK_NODES)
        kronrod = fx @ _GK_WEIGHTS
        val = half * kronrod
        err = half * np.abs(kronrod - fx @ _G7_WEIGHTS)
        asc = half * (np.abs(fx - 0.5 * kronrod[:, None]) @ _GK_WEIGHTS)
        with np.errstate(divide="ignore", invalid="ignore"):
            scaled = asc * np.minimum(1.0, (200.0 * err / asc) ** 1.5)
        err = np.where(asc > 0, scaled, err)
        resabs = half * (np.abs(fx) @ _GK_WEIGHTS)
        err = np.maximum(err, 50.0 * np.finfo(float).eps * resabs)
        tol = np.maximum(eps, eps * np.abs(total + np.bincount(owner, val, n)))
        coarse = forced(lo, hi, half)
        final = (err <= (tol / length)[owner] * 2.0 * half) & ~coarse
        final |= (half <= 32.0 * np.spacing(np.abs(mid))) | (rnd == max_rounds - 1)
        split = np.flatnonzero(~final)
        if split.size > QUAD_PANEL_CAP // 2:
            met = error + np.bincount(owner, err, n) <= tol
            final |= (met & (np.bincount(owner, coarse, n) == 0))[owner]
            split = np.flatnonzero(~final)
            rank = np.argsort(np.where(coarse, np.inf, err)[split])
            final[split[rank[: max(split.size - QUAD_PANEL_CAP // 2, 0)]]] = True
        total += np.bincount(owner[final], val[final], n)
        error += np.bincount(owner[final], err[final], n)
        keep = ~final
        lo = np.concatenate([lo[keep], mid[keep]])
        hi = np.concatenate([mid[keep], hi[keep]])
        owner = np.tile(owner[keep], 2)
    tol = np.maximum(eps, eps * np.abs(total))
    for e, t in zip(error, tol):
        if not e <= t:  # a NaN error too
            raise AccuracyError(f"quadrature error {e:.2g} exceeds the tolerance {t:.2g}")
    return total, error


def _fixed_lag_setup(
    ch: PauliChannel,
    w: HypoExpWTD,
    s_offset: float | None,
    window: tuple[float, float] | None,
) -> tuple[ChannelDynamics, float, tuple[float, float]]:
    """Dynamics, lag and window of the fixed-lag divisibility measures.

    The lag defaults to 1e-3 divided by the rate scale; a given lag must be
    positive (a zero lag makes every intermediate map the identity) and finite.
    """
    if s_offset is None:
        s_offset = 1e-3 / max(w.rates)
    elif not 0.0 < s_offset < math.inf:
        raise ValueError("lag must be positive and finite")
    dyn = dynamics(ch, w)
    window, _ = _measure_window([g.derivative for g in dyn.generators], window)
    return dyn, s_offset, window


def hou_measure(
    ch: PauliChannel,
    w: HypoExpWTD,
    s_offset: float | None = None,
    window: tuple[float, float] | None = None,
) -> MeasureResult:
    """Arctangent-weighted divisibility measure, finite by construction.

    Integrates arctan of the total negativity of the fixed-lag intermediate
    map over the region where some Choi weight is negative, normalized by the
    length of that region (weights that cancel at no lag).  The lag defaults
    to 1e-3 divided by the rate scale; the arctangent stays bounded through
    the eigenvalue zeros, where the unnormalized measure diverges.
    """
    dyn, s_offset, window = _fixed_lag_setup(ch, w, s_offset, window)
    intervals, kinks = _violation_intervals(dyn, s_offset, window)
    if not intervals:
        return MeasureResult(0.0, (), "rhp-hou", note=f"s_offset={s_offset:g}")
    zeros = _singular_times(dyn, window)
    vals, errs = _gauss_kronrod(
        lambda t: np.arctan(_negativity(dyn, s_offset, t)),
        _pieces(intervals, zeros + list(kinks)), s_offset, zeros,
    )
    length = float(sum(b - a for a, b in intervals))
    return MeasureResult(
        float(sum(vals)) / length,
        tuple((ab, float(v)) for ab, v in zip(intervals, vals)),
        "rhp-hou",
        note=f"s_offset={s_offset:g}; violation length={length:g}; "
        f"quad_err={errs.sum():.2g}",
    )


def rhp_divisibility_measure(
    ch: PauliChannel,
    w: HypoExpWTD,
    s_offset: float | None = None,
    window: tuple[float, float] | None = None,
) -> MeasureResult:
    """Unnormalized divisibility measure: integral of the total negativity.

    Diverges (flagged as +inf) as soon as any map eigenvalue crosses zero in
    the window, because the intermediate-map ratios blow up there.
    """
    dyn, s_offset, window = _fixed_lag_setup(ch, w, s_offset, window)
    zeros = _singular_times(dyn, window)
    if zeros:
        return MeasureResult(
            math.inf,
            (),
            "rhp-divisibility",
            note=f"eigenvalue zero at t={zeros[0]:.6g} makes the integral diverge",
        )
    intervals, kinks = _violation_intervals(dyn, s_offset, window)
    vals, errs = _gauss_kronrod(
        lambda t: _negativity(dyn, s_offset, t), _pieces(intervals, kinks)
    )
    return MeasureResult(
        float(sum(vals)),
        tuple((ab, float(v)) for ab, v in zip(intervals, vals)),
        "rhp-divisibility",
        note=f"s_offset={s_offset:g}; quad_err={errs.sum():.2g}",
    )


@dataclass(frozen=True)
class TCLCoefficients:
    """Time-local master-equation rates at one time, in both forms.

    canonical: rates (gamma_x, gamma_y, gamma_z) of the three independent
    Pauli channels; gamma_i = (2 a_i - sum_j a_j)/4 with a_i = lam_i'/lam_i.
    overcomplete: (dephasing, flip_pair, sigma_x, sigma_y) rates of the
    linearly dependent set {sigma_z, sigma_+/sigma_- exchange, sigma_x,
    sigma_y}; the last two are opposite, so one is negative whenever
    lam_x != lam_y even for divisible dynamics.
    """

    t: float
    canonical: tuple[float, float, float]
    overcomplete: tuple[float, float, float, float]
    singular: bool = False


# The overcomplete rates are these weights times the rows
# (a_x + a_y - a_z, a_z, a_x - a_y, a_x - a_y).
_OVERCOMPLETE_WEIGHTS = np.array([[-0.25], [-0.5], [0.25], [-0.25]])


def tcl_rates(ch: PauliChannel, w: HypoExpWTD, t) -> tuple[np.ndarray, ...]:
    """Both time-local rate sets at the 1-D times t: canonical (3, T) and
    overcomplete (4, T), NaN where some lam_i is zero by is_root, and that mask (T,)."""
    lam, lam_dot = dynamics(ch, w).lambda_table(t)
    singular = is_root(lam, lam_dot, np.asarray(t, dtype=float)).any(axis=0)
    a = lam_dot / np.where(singular, np.nan, lam)
    ax, ay, az = a
    canonical = 0.25 * (2.0 * a - a.sum(axis=0))
    d = ax - ay
    overcomplete = np.array([ax + ay - az, az, d, d]) * _OVERCOMPLETE_WEIGHTS
    return canonical, overcomplete, singular


def tcl_generators(canonical, overcomplete, rho: np.ndarray):
    """Both generator forms applied to the 2x2 matrix rho at every time: two
    (T, 2, 2) arrays from the (3, T) and (4, T) rates of tcl_rates."""
    paulis = np.array(SIGMA[1:])
    x, y, z = paulis @ rho @ paulis - rho
    # sigma_+ rho sigma_- + sigma_- rho sigma_+ is diag(rho_11, rho_00), exactly
    flip = np.diag(rho.diagonal()[::-1]) - rho
    gx, gy, gz = canonical[:, :, None, None]
    deph, fl, ox, oy = overcomplete[:, :, None, None]
    return gx * x + gy * y + gz * z, deph * z + fl * flip + ox * x + oy * y


def tcl_residual(canonical, overcomplete, states) -> np.ndarray:
    """Max-norm difference of the two generator forms over the states, per time."""
    forms = [tcl_generators(canonical, overcomplete, s.matrix()) for s in states]
    return np.abs([c - o for c, o in forms]).max(axis=(0, 2, 3))


def tcl_coefficients(ch: PauliChannel, w: HypoExpWTD, t: float) -> TCLCoefficients:
    """Both time-local rate sets at time t; flags times where some lam_i = 0."""
    canonical, overcomplete, singular = tcl_rates(ch, w, [t])
    rates = (tuple(r[:, 0].tolist()) for r in (canonical, overcomplete))
    return TCLCoefficients(t, *rates, bool(singular[0]))


def tcl_equivalence_check(coeffs: TCLCoefficients, rho: QubitState) -> float:
    """Max-norm difference of the two generator forms applied to rho."""
    if coeffs.singular:
        raise ValueError("rates are singular at this time")
    rates = (np.array(r)[:, None] for r in (coeffs.canonical, coeffs.overcomplete))
    return float(tcl_residual(*rates, [rho])[0])
