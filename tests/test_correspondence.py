"""The paper's two correspondences between classical and quantum witnesses.

The deterministic alternation (pi = 0, sigma = 1) of a semi-Markov process and
the phase flip on the same waiting time share one function: the even/odd
jump-count difference q(t) is both the classical mixing function and the
coherence eigenvalue lam_x = lam_y of the qubit map.

* Divisibility: T(t, s) has the entries (1 +/- q(t)/q(s))/2, and the
  intermediate phase-flip map from s to t has the smallest Choi weight
  (1 - |q(t)/q(s)|)/2 wherever that is negative.  So a non-stochastic
  intermediate transition matrix and a CP-indivisible intermediate map occur
  at the same cells.
* Contractivity: the Kolmogorov distance of the evolved pair ((1, 0), (0, 1))
  and the trace distance of the evolved +/-x pair are both |q(t)|, so the
  classical growth intervals are the BLP intervals of the phase flip.
"""

import math

import numpy as np
import pytest

from smqdyn.classical_semimarkov import (
    ProbabilityVector,
    SemiMarkovSpec,
    kolmogorov_distance,
    propagator,
    witness_contractivity,
    witness_divisibility,
)
from smqdyn.cli import parse_wtd_spec
from smqdyn.nonmarkov import (
    blp_measure_dephasing,
    distinguishability_trace,
    divisibility_scan,
)
from smqdyn.qubit import PauliChannel, QubitState

PHASEFLIP = PauliChannel.phase_flip()
WAITS = [
    "conv:1,0.3", "erlang:2:1", "conv:2,0.5,1", "conv:1,0.5", "erlang:5:1", "conv:1,0.1"
]
GRIDS = [
    np.linspace(0, 25, 400),
    np.sort(np.append(np.linspace(0, 10, 50), 3 * math.pi / 4)),
    np.linspace(0, 12, 241),
    np.linspace(0, 60, 57),
]
ONE, ZERO = ProbabilityVector((1.0, 0.0)), ProbabilityVector((0.0, 1.0))


def _flip(wtd: str) -> SemiMarkovSpec:
    return SemiMarkovSpec(0.0, 1.0, parse_wtd_spec(wtd))


def _scan_cells(w, times):
    """Negative cells of divisibility_scan at the lags t_j - t_i, as
    (i, j) -> min weight, and its singular mask of the start times t_i.

    On a uniform grid from 0 the lags are the grid times themselves (to
    rounding), so one scan holds every start; other grids scan each start.
    """
    if times[0] == 0.0 and np.allclose(np.diff(times), times[1], rtol=0, atol=1e-12):
        scans = [(times, times)]
    else:
        scans = [(times[i : i + 1], times[i:] - t) for i, t in enumerate(times)]
    index = {t: k for k, t in enumerate(times.tolist())}
    cells = {}
    for starts, lags in scans:
        lag = {s: k for k, s in enumerate(lags.tolist())}
        for t, s, v in divisibility_scan(PHASEFLIP, w, starts, lags).negative_cells:
            if index[t] + lag[s] < len(times):
                cells[index[t], index[t] + lag[s]] = v
    return cells, divisibility_scan(PHASEFLIP, w, times, [0.0]).singular_t


@pytest.mark.parametrize("wtd", WAITS)
def test_non_stochastic_cells_are_the_cp_indivisible_cells(wtd):
    spec = _flip(wtd)
    for times in GRIDS:
        report = witness_divisibility(spec, times)
        cells, singular = _scan_cells(spec.wtd, times)
        index = {t: k for k, t in enumerate(times.tolist())}
        classical = {(index[s], index[t]): lo for s, t, lo in report.violations}
        assert classical.keys() == cells.keys()
        for key, lo in classical.items():
            assert cells[key] == pytest.approx(lo, rel=1e-11)
        assert np.array_equal(report.singular_s, singular)


def test_cases_cover_violations_singular_starts_and_a_silent_wait():
    counts = {
        wtd: [len(witness_divisibility(_flip(wtd), g).violations) for g in GRIDS]
        for wtd in WAITS
    }
    assert all(min(c) > 0 for w, c in counts.items() if w != "conv:1,0.1")
    assert counts["conv:1,0.1"] == [0, 0, 0, 0]
    assert witness_divisibility(_flip("erlang:2:1"), GRIDS[1]).singular_s.any()


@pytest.mark.parametrize("wtd", WAITS)
def test_kolmogorov_distance_is_the_phase_flip_trace_distance(wtd):
    spec = _flip(wtd)
    plus, minus = QubitState.from_bloch([1, 0, 0]), QubitState.from_bloch([-1, 0, 0])
    trace = distinguishability_trace(PHASEFLIP, spec.wtd, plus, minus, (0.0, 25.0))
    dk = []
    for t in trace.times:
        T = propagator(spec, float(t))
        dk.append(kolmogorov_distance(T.apply(ONE), T.apply(ZERO)))
    assert np.max(np.abs(np.array(dk) - trace.distances)) <= 1e-15


def _overlap(a, b) -> bool:
    return max(a[0], b[0]) < min(a[1], b[1])


@pytest.mark.parametrize("wtd", WAITS)
def test_classical_growth_intervals_are_the_blp_intervals(wtd):
    spec = _flip(wtd)
    report = witness_contractivity(spec, [(ONE, ZERO)], np.linspace(0, 25, 1200))
    grid = report.growth_intervals[0]
    rises = blp_measure_dephasing(spec.wtd, -1.0).contributions
    for iv in grid:
        assert sum(_overlap(iv, ab) for ab, _ in rises) == 1
    for ab, rise in rises:
        if ab[1] <= 25.0 and rise > 1e-9:
            assert any(_overlap(iv, ab) for iv in grid)
    assert (len(grid) > 0) == (wtd != "conv:1,0.1")
