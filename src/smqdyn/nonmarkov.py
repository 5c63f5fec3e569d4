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

import math
from dataclasses import dataclass

import numpy as np

from .poly_laplace import ExpPolyFunction
from .renewal import (
    CP_FLOOR,
    find_extrema,
    find_zeros,
    generating_function,
    near_zero_mask,
    pole_grid,
    refine_brackets,
    runs,
)
from .qubit import (
    PAULI_TRANSFORM,
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


def _auto_window(derivs: list[ExpPolyFunction]) -> float:
    """Horizon beyond which the remaining total variation is below 1e-12."""
    slowest = 1.0
    for d in derivs:
        for p in d.poles:
            if p.real < -1e-12:
                slowest = max(slowest, 1.0 / -p.real)
    T = 10.0 * slowest
    for _ in range(60):
        tail = sum(d.tail_envelope_integral(T) for d in derivs)
        if tail < 1e-12:
            return T
        T *= 1.5
    raise RuntimeError("tail bound did not converge; non-decaying component?")


def _checked_window(window: tuple[float, float]) -> tuple[float, float]:
    if not 0.0 <= window[0] < window[1] < math.inf:
        raise ValueError("window must satisfy 0 <= t0 < t1 < inf")
    return window


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
    T = _auto_window([gen.derivative])
    value, contributions = _positive_variation(gen.value, (0.0, T))
    tail = gen.derivative.tail_envelope_integral(T)
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
    derivs = [g.derivative for g in dyn.generators]
    if cfg.window is not None:
        window, tail = _checked_window(cfg.window), 0.0
    else:
        T = _auto_window(derivs)
        window, tail = (0.0, T), sum(d.tail_envelope_integral(T) for d in derivs)
    distinct = {g.mu: g.value for g in dyn.generators}
    scored = {mu: _positive_variation(f, window) for mu, f in distinct.items()}
    axis = max(range(3), key=lambda i: scored[dyn.generators[i].mu][0])
    value, contributions = scored[dyn.generators[axis].mu]
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
    eigenvalue (a dephasing map shares one generator between lam_x and lam_y)."""
    zeros = []
    for g in {g.mu: g for g in dyn.generators if not g.derivative.is_zero()}.values():
        zeros += find_zeros(g.value, window).tolist()
    return sorted(zeros)


def divisibility_scan(
    ch: PauliChannel,
    w: HypoExpWTD,
    t_values: np.ndarray,
    s_values: np.ndarray,
) -> DivisibilityScan:
    """Smallest Pauli-conjugation weight of the intermediate map per cell.

    The map from t to t+s has eigenvalue ratios lam_i(t+s)/lam_i(t); columns
    whose t falls within 1e-6 of a zero of any lam_i (scaled by the window
    length) are flagged singular and excluded, mirroring the divergence of
    the ratios there.
    """
    t_values = np.asarray(t_values, dtype=float)
    s_values = np.asarray(s_values, dtype=float)
    if not all(v.size and np.isfinite(v).all() for v in (t_values, s_values)):
        raise ValueError("scan times and lags must be non-empty and finite")
    dyn = dynamics(ch, w)
    T = float(t_values.max() + s_values.max())
    singular = near_zero_mask(t_values, _singular_times(dyn, (0.0, T)), T)
    lam_t = dyn.lambdas(t_values)[:, :, None]  # (3, nt, 1)
    lam_ts = dyn.lambdas(t_values[:, None] + s_values[None, :])
    min_comp = _choi_weights(lam_t, lam_ts).min(axis=0)
    min_comp[singular, :] = np.nan
    i, j = np.nonzero(min_comp < -CP_FLOOR)  # row-major: t, then s
    cells = zip(t_values[i].tolist(), s_values[j].tolist(), min_comp[i, j].tolist())
    return DivisibilityScan(t_values, s_values, min_comp, singular, tuple(cells))


def _choi_weights(lam: np.ndarray, lam_later: np.ndarray) -> np.ndarray:
    """Pauli-conjugation weights A (1, r) / 4 of the intermediate maps with
    eigenvalue ratios r = lam_later / lam, stacked along the first axis."""
    with np.errstate(divide="ignore", invalid="ignore"):
        mu = np.tensordot(PAULI_TRANSFORM[:, 1:], lam_later / lam, axes=1)
        mu += 1.0  # A's first column is all ones
        mu *= 0.25
    return mu


def _negativity(dyn: ChannelDynamics, s: float, t, signed: bool = False) -> np.ndarray:
    """Choi negativity of the intermediate map from t to t + s, for an array t.

    It is inf where some lam_i(t) = 0, an isolated point where the ratios
    diverge (the arctangent stays bounded there).  If signed, minus the smallest
    positive weight replaces a zero negativity, smooth where a weight turns negative.
    """
    t = np.asarray(t, dtype=float)
    lam, later = np.moveaxis(dyn.lambdas(np.stack([t, t + s])), 1, 0)
    mu = _choi_weights(lam, later)
    with np.errstate(invalid="ignore"):
        neg = -np.minimum(mu, 0.0).sum(axis=0)
        if signed:
            neg = np.where(neg > 0.0, neg, -np.where(mu > 0.0, mu, np.inf).min(axis=0))
    return np.where(np.any(lam == 0.0, axis=0), np.inf, neg)


def _violation_intervals(
    dyn: ChannelDynamics, s_offset: float, window: tuple[float, float]
) -> list[tuple[float, float]]:
    """Subintervals where the intermediate map fails complete positivity.

    Boundaries are refined on the signed negativity: the total negativity is
    flat outside the region and kinked at its edge, where regula falsi stalls.
    """
    t0, t1 = window
    grid = pole_grid([g.value for g in dyn.generators], window, 400)
    inside = _negativity(dyn, s_offset, grid) > CP_FLOOR
    i = np.flatnonzero(inside[:-1] != inside[1:])
    cross = refine_brackets(
        lambda t: _negativity(dyn, s_offset, t, signed=True) - CP_FLOOR,
        grid[i], grid[i + 1], 1e-12,
    )
    marks = np.array([t0] + sorted(float(x) for x in cross) + [t1])
    mids = 0.5 * (marks[:-1] + marks[1:])
    starts, ends = runs(_negativity(dyn, s_offset, mids) > CP_FLOOR)
    return list(zip(marks[starts].tolist(), marks[ends].tolist()))


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


def _gauss_kronrod(f, pieces):
    """Adaptive G7/K15 integrals of the array-valued f, one per piece.

    A piece is an increasing array of breakpoints: the interval ends and the
    singular times inside.  Each round evaluates f on every active panel in
    one call; a panel is final once its QUADPACK error estimate is within its
    length share of max(eps, eps*|I|), scipy quad's default tolerance, and
    the others are halved.  Returns the integrals and their error estimates.
    """
    eps, max_rounds = 1.49e-8, 50
    lo = np.concatenate([p[:-1] for p in pieces] + [[]])
    hi = np.concatenate([p[1:] for p in pieces] + [[]])
    owner = np.repeat(np.arange(len(pieces)), [len(p) - 1 for p in pieces])
    length = np.array([p[-1] - p[0] for p in pieces])
    total, error = np.zeros(len(pieces)), np.zeros(len(pieces))
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
        estimate = total + np.bincount(owner, val, len(pieces))
        share = np.maximum(eps, eps * np.abs(estimate))[owner] / length[owner]
        final = (err <= share * 2.0 * half) | (rnd == max_rounds - 1)
        total += np.bincount(owner[final], val[final], len(pieces))
        error += np.bincount(owner[final], err[final], len(pieces))
        keep = ~final
        lo = np.concatenate([lo[keep], mid[keep]])
        hi = np.concatenate([mid[keep], hi[keep]])
        owner = np.tile(owner[keep], 2)
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
    if window is None:
        window = (0.0, _auto_window([g.derivative for g in dyn.generators]))
    return dyn, s_offset, _checked_window(window)


def hou_measure(
    ch: PauliChannel,
    w: HypoExpWTD,
    s_offset: float | None = None,
    window: tuple[float, float] | None = None,
) -> MeasureResult:
    """Arctangent-weighted divisibility measure, finite by construction.

    Integrates arctan of the total negativity of the fixed-lag intermediate
    map over the region where complete positivity fails, normalized by the
    length of that region.  The lag defaults to 1e-3 divided by the rate
    scale; the arctangent stays bounded through the zeros of the eigenvalues,
    where the unnormalized measure diverges.
    """
    dyn, s_offset, window = _fixed_lag_setup(ch, w, s_offset, window)
    intervals = _violation_intervals(dyn, s_offset, window)
    if not intervals:
        return MeasureResult(0.0, (), "rhp-hou", note=f"s_offset={s_offset:g}")
    zeros = _singular_times(dyn, (window[0], window[1] + s_offset))
    pieces = [
        np.array(sorted({a, b, *(z for z in zeros if a < z < b)})) for a, b in intervals
    ]
    vals, errs = _gauss_kronrod(
        lambda t: np.arctan(_negativity(dyn, s_offset, t)), pieces
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
    intervals = _violation_intervals(dyn, s_offset, window)
    vals, errs = _gauss_kronrod(
        lambda t: _negativity(dyn, s_offset, t), [np.array(ab) for ab in intervals]
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

    def apply_canonical(self, rho: np.ndarray) -> np.ndarray:
        out = np.zeros((2, 2), dtype=complex)
        for g, s in zip(self.canonical, SIGMA[1:]):
            out += g * (s @ rho @ s - rho)
        return out

    def apply_overcomplete(self, rho: np.ndarray) -> np.ndarray:
        deph, flip, gx, gy = self.overcomplete
        sp = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        sm = sp.conj().T
        out = deph * (SIGMA[3] @ rho @ SIGMA[3] - rho)
        out += flip * (sp @ rho @ sm + sm @ rho @ sp - rho)
        out += gx * (SIGMA[1] @ rho @ SIGMA[1] - rho)
        out += gy * (SIGMA[2] @ rho @ SIGMA[2] - rho)
        return out


def tcl_coefficients(ch: PauliChannel, w: HypoExpWTD, t: float) -> TCLCoefficients:
    """Both time-local rate sets at time t; flags times where some lam_i = 0."""
    snap = dynamics(ch, w).snapshot(t)
    lam = np.asarray(snap.lambda_t)
    if np.any(np.abs(lam) < 1e-14):
        nan = (math.nan,) * 3
        return TCLCoefficients(t, nan, (math.nan,) * 4, singular=True)
    a = np.asarray(snap.lambda_dot_t) / lam
    canonical = tuple(float(0.25 * (2.0 * a[i] - a.sum())) for i in range(3))
    overcomplete = (
        float(-0.25 * (a[0] + a[1] - a[2])),
        float(-0.5 * a[2]),
        float(0.25 * (a[0] - a[1])),
        float(-0.25 * (a[0] - a[1])),
    )
    return TCLCoefficients(t, canonical, overcomplete)


def tcl_equivalence_check(coeffs: TCLCoefficients, rho: QubitState) -> float:
    """Max-norm difference of the two generator forms applied to rho."""
    if coeffs.singular:
        raise ValueError("rates are singular at this time")
    m = rho.matrix()
    diff = coeffs.apply_canonical(m) - coeffs.apply_overcomplete(m)
    return float(np.max(np.abs(diff)))
