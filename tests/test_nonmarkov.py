import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from smqdyn import nonmarkov
from smqdyn.nonmarkov import (
    _G7_WEIGHTS,
    _GK_NODES,
    _GK_WEIGHTS,
    PairSearchConfig,
    _auto_window,
    _gauss_kronrod,
    _negativity,
    _positive_variation,
    _singular_times,
    _violation_intervals,
    blp_measure_dephasing,
    blp_measure_numeric,
    distinguishability_trace,
    divisibility_scan,
    hou_measure,
    rhp_divisibility_measure,
    tcl_coefficients,
    tcl_equivalence_check,
    trace_distance,
)
from smqdyn.qubit import (
    PauliChannel,
    QubitState,
    choi_vector,
    dynamics,
    evolve_state,
    map_snapshot,
)
from smqdyn.poly_laplace import ExpPolyFunction, evaluate_all
from smqdyn.renewal import (
    even_odd_difference,
    find_extrema,
    pole_grid,
    refine_brackets,
    sign_brackets,
)
from smqdyn.waiting_time import HypoExpWTD

from oracles import two_stage_parity

ERLANG2 = HypoExpWTD.erlang(2, 1.0)
EXP1 = HypoExpWTD.exponential(1.0)
PHASEFLIP = PauliChannel.phase_flip()
EXCHANGE = PauliChannel.exchange()
PLUS = QubitState.from_bloch([1.0, 0.0, 0.0])
MINUS = QubitState.from_bloch([-1.0, 0.0, 0.0])
EXACT_MEASURE = 1.0 / (math.exp(math.pi) - 1.0)


class TestTraceDistance:
    def test_orthogonal_states(self):
        up = QubitState.from_bloch([0, 0, 1])
        down = QubitState.from_bloch([0, 0, -1])
        assert trace_distance(up, down) == pytest.approx(1.0)

    def test_identical_states(self):
        assert trace_distance(PLUS, PLUS) == 0.0

    def test_dephasing_pair_distance_is_parity_magnitude(self):
        q = even_odd_difference(ERLANG2)
        for t in (0.5, 2.5, 4.0):
            snap = map_snapshot(PHASEFLIP, ERLANG2, t)
            d = trace_distance(evolve_state(snap, PLUS), evolve_state(snap, MINUS))
            assert d == pytest.approx(abs(q(t)), abs=1e-12)

    def test_matches_eigenvalue_weighted_bloch_formula(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            r1 = rng.normal(size=3)
            r1 *= rng.uniform(0, 1) / np.linalg.norm(r1)
            r2 = rng.normal(size=3)
            r2 *= rng.uniform(0, 1) / np.linalg.norm(r2)
            s1, s2 = QubitState.from_bloch(r1), QubitState.from_bloch(r2)
            snap = map_snapshot(EXCHANGE, ERLANG2, 1.3)
            d = trace_distance(evolve_state(snap, s1), evolve_state(snap, s2))
            lam = np.array(snap.lambda_t)
            expected = 0.5 * math.sqrt(float(np.sum(lam**2 * (r1 - r2) ** 2)))
            assert d == pytest.approx(expected, abs=1e-12)


class TestDistinguishabilityTrace:
    def test_memoryless_has_no_growth(self):
        tr = distinguishability_trace(PHASEFLIP, EXP1, PLUS, MINUS, (0.0, 20.0))
        assert not tr.has_growth
        assert np.all(np.diff(tr.distances) <= 1e-12)

    def test_growth_intervals_run_from_zeros_to_peaks(self):
        tr = distinguishability_trace(PHASEFLIP, ERLANG2, PLUS, MINUS, (0.0, 10.0))
        expected = [
            (3 * math.pi / 4, math.pi),
            (7 * math.pi / 4, 2 * math.pi),
            (11 * math.pi / 4, 3 * math.pi),
        ]
        assert len(tr.growth_intervals) == len(expected)
        for (a, b), (ea, eb) in zip(tr.growth_intervals, expected):
            assert a == pytest.approx(ea, abs=1e-8)
            assert b == pytest.approx(eb, abs=1e-8)

    def test_mixture_threshold(self):
        w = HypoExpWTD([1.0, 0.5])
        below = distinguishability_trace(
            PauliChannel.dephasing_mixture(0.4), w, PLUS, MINUS, (0.0, 40.0)
        )
        above = distinguishability_trace(
            PauliChannel.dephasing_mixture(0.9), w, PLUS, MINUS, (0.0, 40.0)
        )
        assert not below.has_growth
        assert above.has_growth

    def test_degenerate_pair_rejected(self):
        with pytest.raises(ValueError):
            distinguishability_trace(PHASEFLIP, ERLANG2, PLUS, PLUS, (0.0, 5.0))

    def test_channel_with_a_zero_eigenvalue(self):
        # mu_z = 0.1 - 0.3 - 0.2 + 0.4 is an exact 0, not its rounding 2.8e-17,
        # so lam_z is the survival probability.
        ch, w = PauliChannel([0.1, 0.3, 0.2, 0.4]), HypoExpWTD.erlang(3, 1.0)
        up, down = QubitState.from_bloch([0, 0, 1]), QubitState.from_bloch([0, 0, -1])
        tr = distinguishability_trace(ch, w, up, down, (0.0, 20.0))
        assert not tr.has_growth
        assert np.allclose(tr.distances, w.survival()(tr.times), rtol=0, atol=1e-14)


class TestBlpMeasure:
    def test_two_stage_memory_is_exact(self):
        for lam in (1.0, 2.0):
            res = blp_measure_dephasing(HypoExpWTD.erlang(2, lam))
            assert res.value == pytest.approx(EXACT_MEASURE, abs=1e-8)

    def test_memoryless_vanishes(self):
        assert blp_measure_dephasing(EXP1).value == 0.0

    def test_erlang_first_contributions_increase_with_order(self):
        firsts = []
        for m in range(2, 7):
            res = blp_measure_dephasing(HypoExpWTD.erlang(m, 1.0))
            firsts.append(res.contributions[0][1])
        assert all(a < b for a, b in zip(firsts, firsts[1:]))

    def test_numeric_reproduces_analytic_on_dephasing(self):
        res = blp_measure_numeric(PHASEFLIP, ERLANG2)
        assert res.value == pytest.approx(EXACT_MEASURE, abs=1e-6)
        assert abs(res.direction[2]) < 1e-6  # equatorial optimum

    def test_exchange_channel_same_measure_polar_direction(self):
        res = blp_measure_numeric(EXCHANGE, ERLANG2)
        assert res.value == pytest.approx(EXACT_MEASURE, abs=1e-6)
        assert abs(abs(res.direction[2]) - 1.0) < 1e-6

    def test_memoryless_numeric_is_zero(self):
        for ch in (PHASEFLIP, EXCHANGE, PauliChannel([0.2, 0.4, 0.2, 0.2])):
            assert blp_measure_numeric(ch, EXP1).value == 0.0

    def test_numeric_is_the_best_axis(self):
        ch = PauliChannel([0.1, 0.3, 0.2, 0.4])
        w = HypoExpWTD([1.0, 0.9])
        best = blp_measure_numeric(ch, w)
        dyn = dynamics(ch, w)
        axes = _lattice_scores(dyn, np.eye(3), _window(dyn))
        assert best.value == pytest.approx(axes.max(), abs=1e-15)
        assert best.direction == tuple(np.eye(3)[np.argmax(axes)])

    def test_no_simplex_lattice_point_beats_the_best_axis(self):
        """D^2 = sum_i w_i lam_i^2 with w_i = n_i^2, so a direction is a point
        of the weight simplex: no point of a 325-point lattice on it, scored
        exactly, rises above the best axis.  Optimal pairs are antipodal
        (Wissmann et al., PRA 86, 062108 (2012)); that they lie on an axis is
        the conjecture this guards."""
        lattice = _simplex_lattice(24)
        rng = np.random.default_rng(2024)
        for case in range(6):
            ch = PauliChannel(list(rng.dirichlet(np.ones(4))))
            if case % 2:
                w = HypoExpWTD.erlang(int(rng.integers(2, 5)), 1.0)
            else:
                w = HypoExpWTD([1.0, float(rng.uniform(0.1, 0.6))])
            res = blp_measure_numeric(ch, w)
            dyn = dynamics(ch, w)
            scores = _lattice_scores(dyn, lattice, _window(dyn))
            vertices = [k for k, p in enumerate(lattice) if p.max() == 1.0]
            assert scores[vertices].max() == pytest.approx(res.value, abs=1e-15)
            assert scores.max() <= res.value * (1.0 + 1e-12)

    def test_lattice_scores_are_positive_variation_of_the_squares(self):
        ch, w = PauliChannel([0.1, 0.25, 0.15, 0.5]), HypoExpWTD.erlang(3, 1.0)
        dyn = dynamics(ch, w)
        window = _window(dyn)
        points = np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.2, 0.3, 0.5]])
        squares = [g.value * g.value for g in dyn.generators]
        for p, score in zip(points, _lattice_scores(dyn, points, window)):
            s_w = ExpPolyFunction.zero()
            for sq, x in zip(squares, p):
                s_w += sq * float(x)
            _, runs = _positive_variation(s_w, window)
            rise = sum(
                _distance(dyn, p, b) - _distance(dyn, p, a) for (a, b), _ in runs
            )
            assert score == pytest.approx(rise, abs=1e-15)

    @settings(max_examples=20, derandomize=True, database=None, deadline=None)
    @given(
        lam=st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
        erlang=st.booleans(),
        order=st.integers(2, 4),
        ratio=st.floats(0.1, 0.9),
    )
    def test_no_lattice_point_beats_the_best_axis_on_random_channels(
        self, lam, erlang, order, ratio
    ):
        ch = PauliChannel([x / sum(lam) for x in lam])
        w = HypoExpWTD.erlang(order, 1.0) if erlang else HypoExpWTD([1.0, ratio])
        res = blp_measure_numeric(ch, w)
        dyn = dynamics(ch, w)
        scores = _lattice_scores(dyn, _simplex_lattice(6), _window(dyn))
        assert scores.max() <= res.value * (1.0 + 1e-12) + 1e-15


class TestDivisibilityScan:
    def test_memoryless_is_divisible_everywhere(self):
        for ch in (PHASEFLIP, EXCHANGE):
            scan = divisibility_scan(
                ch, EXP1, np.linspace(0, 5, 60), np.linspace(0, 3, 60)
            )
            assert not scan.has_violation
            assert not scan.singular_t.any()

    def test_oscillatory_dephasing_violates_off_the_initial_time(self):
        q = even_odd_difference(ERLANG2)
        scan = divisibility_scan(
            PHASEFLIP,
            ERLANG2,
            np.array([0.0, 2.5]),
            np.array([0.25, 0.5, 1.0]),
        )
        assert np.all(scan.min_component[0, :] >= -1e-12)  # t=0 column is CP
        j = 1  # s = 0.5
        expected = 0.5 * (1.0 - q(3.0) / q(2.5))
        assert scan.min_component[1, j] == pytest.approx(expected, abs=1e-10)
        assert expected < 0
        assert scan.has_violation

    def test_zero_crossing_columns_are_flagged_singular(self):
        t_vals = np.array([0.0, 1.0, 3 * math.pi / 4, 2.0])
        scan = divisibility_scan(PHASEFLIP, ERLANG2, t_vals, np.array([0.5]))
        assert scan.singular_t[2]
        assert np.isnan(scan.min_component[2, 0])


def _reference_scan_cells(ch, w, t_values, s_values):
    """divisibility_scan's singular mask and negative cells by loops."""
    dyn = dynamics(ch, w)
    T = float(t_values.max() + s_values.max())
    zeros = _singular_times(dyn, (0.0, T))
    singular = np.array(
        [any(abs(t - z) <= 1e-6 * T for z in zeros) for t in t_values], dtype=bool
    )
    min_comp = divisibility_scan(ch, w, t_values, s_values).min_component
    cells = []
    for i in np.flatnonzero(~singular):
        for j in np.flatnonzero(min_comp[i] < -1e-12):
            cells.append(
                (float(t_values[i]), float(s_values[j]), float(min_comp[i, j]))
            )
    return singular, tuple(cells)


SCAN_CASES = [
    (PHASEFLIP, EXP1, np.linspace(0, 5, 60), np.linspace(0, 3, 60)),
    (EXCHANGE, EXP1, np.linspace(0, 5, 60), np.linspace(0, 3, 60)),
    (PHASEFLIP, ERLANG2, np.array([0.0, 2.5]), np.array([0.25, 0.5, 1.0])),
    (PHASEFLIP, ERLANG2, np.array([0.0, 1.0, 3 * math.pi / 4, 2.0]), np.array([0.5])),
    (EXCHANGE, HypoExpWTD([1.0, 0.13]), np.linspace(0.0, 40.0, 80),
     np.linspace(0.05, 8.0, 60)),
]


@pytest.mark.parametrize("case", range(len(SCAN_CASES)))
def test_scan_matches_loop_reference(case):
    ch, w, t_values, s_values = SCAN_CASES[case]
    scan = divisibility_scan(ch, w, t_values, s_values)
    singular, cells = _reference_scan_cells(ch, w, t_values, s_values)
    assert np.array_equal(scan.singular_t, singular)
    assert scan.negative_cells == cells
    assert all(type(x) is float for c in scan.negative_cells for x in c)


class TestRenormalizedDivisibilityMeasures:
    def test_memoryless_measures_vanish(self):
        assert hou_measure(PHASEFLIP, EXP1).value == 0.0
        res = rhp_divisibility_measure(PHASEFLIP, EXP1)
        assert res.value == 0.0 and not res.is_infinite

    def test_oscillatory_dephasing_infinite_unnormalized_finite_hou(self):
        rhp = rhp_divisibility_measure(PHASEFLIP, ERLANG2)
        assert rhp.is_infinite
        hou = hou_measure(PHASEFLIP, ERLANG2)
        assert 0.0 < hou.value < math.pi / 2
        assert not hou.is_infinite

    def test_lag_must_be_positive(self):
        with pytest.raises(ValueError):
            hou_measure(PHASEFLIP, ERLANG2, s_offset=0.0)

    @pytest.mark.parametrize("lag", [0.0, -1e-3])
    @pytest.mark.parametrize("measure", [hou_measure, rhp_divisibility_measure])
    def test_nonpositive_lag_rejected_by_both_measures(self, measure, lag):
        with pytest.raises(ValueError, match="lag must be positive"):
            measure(EXCHANGE, HypoExpWTD([1.0, 0.14]), s_offset=lag)


FIG3_CHANNEL = PauliChannel([0.2, 0.4, 0.2, 0.2])
FIG3_WTD = HypoExpWTD([1.0, 0.13])


class TestTclCoefficients:
    def test_phase_flip_memoryless_rate_is_constant(self):
        lam = 2.0
        co = tcl_coefficients(PHASEFLIP, HypoExpWTD.exponential(lam), 0.8)
        assert co.canonical == pytest.approx((0.0, 0.0, lam), abs=1e-10)
        assert co.overcomplete == pytest.approx((lam, 0.0, 0.0, 0.0), abs=1e-10)

    def test_equal_xy_eigenvalues_collapse_the_opposite_pair(self):
        co = tcl_coefficients(PHASEFLIP, ERLANG2, 1.1)
        assert co.overcomplete[2] == pytest.approx(0.0, abs=1e-12)
        assert co.overcomplete[3] == pytest.approx(0.0, abs=1e-12)
        assert co.canonical[0] == pytest.approx(co.canonical[1], abs=1e-12)

    def test_singular_time_flagged(self):
        co = tcl_coefficients(PHASEFLIP, ERLANG2, 3 * math.pi / 4)
        assert co.singular

    def test_forms_agree_on_random_states(self):
        rng = np.random.default_rng(17)
        worst = 0.0
        for t in np.linspace(0.25, 12.0, 50):
            co = tcl_coefficients(FIG3_CHANNEL, FIG3_WTD, float(t))
            for _ in range(4):
                v = rng.normal(size=3)
                v *= rng.uniform(0, 1) / np.linalg.norm(v)
                worst = max(worst, tcl_equivalence_check(co, QubitState.from_bloch(v)))
        assert worst < 1e-10

    def test_maximally_mixed_state_is_annihilated(self):
        co = tcl_coefficients(FIG3_CHANNEL, FIG3_WTD, 2.0)
        mixed = QubitState.maximally_mixed().matrix()
        assert np.max(np.abs(co.apply_canonical(mixed))) < 1e-14
        assert np.max(np.abs(co.apply_overcomplete(mixed))) < 1e-14

    def test_sign_pattern_window(self):
        """All canonical rates nonnegative while one overcomplete rate is
        negative, over a contiguous scan window."""
        hits = 0
        for t in np.linspace(3.0, 12.0, 60):
            co = tcl_coefficients(FIG3_CHANNEL, FIG3_WTD, float(t))
            if min(co.canonical) >= 0.0 and min(co.overcomplete) < 0.0:
                hits += 1
        assert hits >= 30

    def test_opposite_pair_rates_sum_to_zero(self):
        co = tcl_coefficients(FIG3_CHANNEL, FIG3_WTD, 4.0)
        assert co.overcomplete[2] == pytest.approx(-co.overcomplete[3], abs=1e-14)
        assert co.overcomplete[2] != 0.0

    def test_equivalence_check_rejects_singular(self):
        co = tcl_coefficients(PHASEFLIP, ERLANG2, 3 * math.pi / 4)
        with pytest.raises(ValueError):
            tcl_equivalence_check(co, PLUS)


class TestCriterionRelations:
    def test_two_stage_negativity_window(self):
        lo = 3.0 - 2.0 * math.sqrt(2.0)
        delta = 1e-3
        cases = [
            (0.1, False),
            (lo - delta, False),
            (0.5, True),
            (1.0, True),
            (1.0 / lo + delta, False),
            (6.0, False),
        ]
        ts = np.linspace(0.0, 80.0, 4000)
        for r, becomes_negative in cases:
            q = even_odd_difference(HypoExpWTD([1.0, r]))
            vals = q(ts)
            assert (vals.min() < -1e-12) == becomes_negative, r
            assert np.allclose(vals, two_stage_parity(r, 1.0, ts), atol=1e-9)

    def test_complete_positivity_implies_no_distance_growth(self):
        for ch, w in [(PHASEFLIP, EXP1), (EXCHANGE, EXP1)]:
            scan = divisibility_scan(
                ch, w, np.linspace(0, 6, 50), np.linspace(0, 3, 50)
            )
            tr = distinguishability_trace(ch, w, PLUS, MINUS, (0.0, 9.0))
            assert not scan.has_violation
            assert not tr.has_growth

    @pytest.mark.parametrize(
        "w, expect_growth",
        [(ERLANG2, True), (EXP1, False), (HypoExpWTD([1.0, 0.1]), False)],
    )
    def test_growth_iff_some_eigenvalue_magnitude_grows(self, w, expect_growth):
        """Distance revivals, growth of some |lam_i|, and an intermediate-map
        ratio above one are the same condition for these maps."""
        tr = distinguishability_trace(PHASEFLIP, w, PLUS, MINUS, (0.0, 20.0))
        ts = np.linspace(0.0, 20.0, 800)
        lam = np.abs(even_odd_difference(w)(ts))
        magnitude_grows = bool(np.any(np.diff(lam) > 1e-12))
        ratio_exceeds_one = bool(np.any(lam[1:] / np.maximum(lam[:-1], 1e-300) > 1 + 1e-9))
        assert tr.has_growth == expect_growth
        assert magnitude_grows == expect_growth
        assert ratio_exceeds_one == expect_growth

    def test_positive_divisible_but_not_cp_divisible(self):
        """Exchange channel with slow/fast two-stage waiting: all eigenvalue
        magnitudes decay monotonically (zero distance measure) yet some
        intermediate maps are not completely positive."""
        w = HypoExpWTD([1.0, 0.13])
        res = blp_measure_numeric(EXCHANGE, w)
        assert res.value == 0.0
        scan = divisibility_scan(
            EXCHANGE, w, np.linspace(0.0, 40.0, 80), np.linspace(0.05, 8.0, 60)
        )
        assert scan.has_violation


# The four (channel, waiting time) shapes of the benchmark's diagnostics
# workload, at unit rate scale.
DIAGNOSTIC_SHAPES = {
    "phaseflip/conv:1,0.3": (PHASEFLIP, HypoExpWTD([1.0, 0.3])),
    "mix:0.9/conv:1,0.3": (PauliChannel.dephasing_mixture(0.9), HypoExpWTD([1.0, 0.3])),
    "ep/conv:1,0.14": (EXCHANGE, HypoExpWTD([1.0, 0.14])),
    "pauli:0.3,0.3,0.1,0.3/erlang:2:1": (PauliChannel([0.3, 0.3, 0.1, 0.3]), ERLANG2),
}

# blp_measure_numeric, hou_measure and rhp_divisibility_measure as (value,
# number of contributions).  The hou and rhp entries were recorded with the
# scalar quad implementation these measures had before they were vectorised;
# the blp entries are within 1e-16 of the floorless brentq reference below.
RECORDED_MEASURES = {
    "phaseflip/conv:1,0.3": (
        (0.007914836666630566, 7), (0.003298185996149094, 7), (math.inf, 0)
    ),
    "mix:0.9/conv:1,0.3": (
        (0.0025937810806949055, 5), (0.0030970907989017363, 5), (math.inf, 0)
    ),
    "ep/conv:1,0.14": (
        (0.0, 0), (1.9193200622864147e-05, 1), (0.004626802088914343, 1)
    ),
    "pauli:0.3,0.3,0.1,0.3/erlang:2:1": (
        (0.0008903242792746751, 8), (0.0014938931939294053, 9), (math.inf, 0)
    ),
}


# The diagnostics shapes and the phase flip on erlang:5:1, whose late rises
# the trace-distance measure once dropped below a fixed floor.
BLP_SHAPES = {
    **DIAGNOSTIC_SHAPES,
    "phaseflip/erlang:5:1": (PHASEFLIP, HypoExpWTD.erlang(5, 1.0)),
}


def _window(dyn):
    return (0.0, _auto_window([g.derivative for g in dyn.generators]))


def _distance(dyn, weights, t):
    """sqrt(sum_i w_i lam_i(t)^2): the trace distance of the pair +/-n, w = n^2."""
    return math.sqrt(float(np.dot(weights, dyn.lambdas(t) ** 2)))


def _brentq_rises(dyn, rows, window, n=20_001):
    """Reference with no floor, per row w of weights: the rising runs of
    S = sum_i w_i lam_i^2 and the rise of sqrt(S) over each.  scipy brentq
    refines every sign change of S'/2 = sum_i w_i lam_i lam_i' (the zeros of
    lam_i' and of lam_i) on a uniform grid of n points; a run rises where
    S' > 0 at its midpoint."""
    t0, t1 = window
    grid = np.linspace(t0, t1, n)
    on_grid = dyn.lambdas(grid) * dyn.lambda_dots(grid)
    out = []
    for w in rows:

        def half_slope(t, w=w):
            return float(w @ (dyn.lambdas(t) * dyn.lambda_dots(t)))

        sgn = np.sign(w @ on_grid)
        i = np.flatnonzero(sgn[:-1] * sgn[1:] < 0)
        roots = [brentq(half_slope, grid[k], grid[k + 1], xtol=1e-14) for k in i]
        marks = [t0] + roots + [t1]
        runs = []
        for a, b in zip(marks, marks[1:]):
            if b > a and half_slope(0.5 * (a + b)) > 0:
                if runs and runs[-1][1] == a:
                    runs[-1] = (runs[-1][0], b)
                else:
                    runs.append((a, b))
        out.append(
            [((a, b), _distance(dyn, w, b) - _distance(dyn, w, a)) for a, b in runs]
        )
    return out


def _simplex_lattice(n):
    """The (n + 1)(n + 2)/2 points of the weight simplex with coordinates k/n."""
    return np.array(
        [(i, j, n - i - j) for i in range(n + 1) for j in range(n + 1 - i)]
    ) / n


def _lattice_scores(dyn, lattice, window):
    """Exact measure of the pair +/-n for each row w = n^2 of the lattice: the
    rise of sqrt(S_w) over the rising runs of S_w = sum_i w_i lam_i^2, as
    _positive_variation(S_w) finds them, with every row in one batch.

    S_w >= 0 has no sign changes, so its critical points are the roots of
    S_w'/2 = sum_i w_i lam_i lam_i'.  That is linear in w, so all rows share
    the grid of S_w, the products lam_i lam_i' on it and one refine_brackets
    call."""
    t0, t1 = window
    fs = [g.value for g in dyn.generators] + [g.derivative for g in dyn.generators]

    def products(t):
        lam, dlam = np.split(evaluate_all(fs, t), 2)
        return lam * dlam

    grid = pole_grid([g.value * g.value for g in dyn.generators], window, 100)
    env_lam, env_dlam = np.split(np.array([f.envelope(grid) for f in fs]), 2)
    rows, lo, hi = [], [], []
    for k, (n_k, e_k) in enumerate(
        zip(lattice @ products(grid), lattice @ (env_lam * env_dlam))
    ):
        i, j = sign_brackets(n_k, e_k)
        rows += [k] * len(i)
        lo.append(grid[i])
        hi.append(grid[j])
    rows = np.array(rows, dtype=int)
    crit = refine_brackets(
        lambda t: np.einsum("ki,ik->k", lattice[rows], products(t)),
        np.concatenate(lo),
        np.concatenate(hi),
        xtol=1e-14,
    )
    lam_crit, lam_ends = dyn.lambdas(crit), dyn.lambdas(np.array(window))
    scores = []
    for k, w in enumerate(lattice):
        mine = np.flatnonzero((rows == k) & (t0 < crit) & (crit < t1))
        inner = lam_crit[:, mine[np.argsort(crit[mine])]]
        lam = np.hstack([lam_ends[:, :1], inner, lam_ends[:, 1:]])
        gains = np.diff(np.sqrt(w @ lam**2))
        scores.append(float(gains[gains > 0].sum()))
    return np.array(scores)


def _scalar_negativity(dyn, s, t):
    """Reference: Choi negativity of one intermediate map via choi_vector."""
    lam = dyn.lambdas(t)
    if np.any(lam == 0.0):
        return math.inf
    return choi_vector(dyn.lambdas(t + s) / lam).negativity


class _ExactZeroDynamics:
    """Stand-in dynamics whose lam_x vanishes exactly at t = 1."""

    @staticmethod
    def lambdas(t):
        t = np.asarray(t, dtype=float)
        return np.array([1.0 - t, np.exp(-t), np.exp(-0.5 * t)])


class TestVectorisedMeasurePaths:
    @pytest.mark.parametrize("shape", sorted(BLP_SHAPES))
    def test_blp_matches_brentq_reference(self, shape):
        ch, w = BLP_SHAPES[shape]
        dyn = dynamics(ch, w)
        refs = _brentq_rises(dyn, np.eye(3), _window(dyn))
        best = max(refs, key=lambda r: sum(c for _, c in r))
        res = blp_measure_numeric(ch, w)
        assert res.value == pytest.approx(sum(c for _, c in best), abs=1e-12)
        assert len(res.contributions) == len(best)
        for ((a, b), c), ((ra, rb), rc) in zip(res.contributions, best):
            assert (a, b, c) == pytest.approx((ra, rb, rc), abs=1e-10)

    @pytest.mark.parametrize("shape", sorted(BLP_SHAPES))
    def test_growth_intervals_match_brentq_reference(self, shape):
        """The reference may go on past the last growth interval only where D
        rises by less than its own rounding (a constant part of S, from an
        eigenvalue 1, swamps the rise of the decaying ones)."""
        ch, w = BLP_SHAPES[shape]
        dyn = dynamics(ch, w)
        window = _window(dyn)
        rng = np.random.default_rng(5)
        dirs = np.vstack([np.eye(3), rng.normal(size=(5, 3))])
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        for n, ref in zip(dirs, _brentq_rises(dyn, dirs**2, window)):
            tr = distinguishability_trace(
                ch, w, QubitState.from_bloch(n), QubitState.from_bloch(-n), window
            )
            got = tr.growth_intervals
            assert len(got) <= len(ref)
            for (a, b), ((ra, rb), _) in zip(got, ref):
                assert (a, b) == pytest.approx((ra, rb), abs=1e-10)
            for (_, b), rise in ref[len(got):]:
                assert rise <= 4 * np.finfo(float).eps * _distance(dyn, n**2, b)

    def test_phase_flip_keeps_every_late_rise(self):
        w = HypoExpWTD.erlang(5, 1.0)
        res = blp_measure_numeric(PHASEFLIP, w)
        exact = blp_measure_dephasing(w, -1.0)
        assert len(res.contributions) == len(exact.contributions) == 33
        assert res.value == pytest.approx(exact.value, abs=1e-15)
        for got, ref in zip(res.contributions, exact.contributions):
            assert got[0] == pytest.approx(ref[0], abs=1e-12)

    def test_direction_count_is_ignored(self):
        ch, w = DIAGNOSTIC_SHAPES["pauli:0.3,0.3,0.1,0.3/erlang:2:1"]
        assert blp_measure_numeric(ch, w, PairSearchConfig(n_directions=32)) == (
            blp_measure_numeric(ch, w)
        )

    @pytest.mark.parametrize("shape", sorted(DIAGNOSTIC_SHAPES) + ["exact-zero"])
    def test_array_negativity_matches_choi_vector(self, shape):
        if shape == "exact-zero":
            dyn, ts, s = _ExactZeroDynamics(), np.linspace(0.0, 2.0, 41), 0.3
            assert 1.0 in ts
        else:
            dyn = dynamics(*DIAGNOSTIC_SHAPES[shape])
            ts, s = np.linspace(0.0, _window(dyn)[1], 401), 1e-3
        got = _negativity(dyn, s, ts)
        ref = np.array([_scalar_negativity(dyn, s, float(t)) for t in ts])
        assert np.array_equal(np.isinf(got), np.isinf(ref))
        assert np.isinf(ref).any() == (shape == "exact-zero")
        finite = ~np.isinf(ref)
        assert np.allclose(got[finite], ref[finite], rtol=1e-12, atol=1e-15)

    def test_gauss_kronrod_rule_is_exact_on_polynomials(self):
        for d in range(23):
            exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
            assert _GK_WEIGHTS @ _GK_NODES**d == pytest.approx(exact, abs=1e-15)
            if d <= 13:
                assert _G7_WEIGHTS @ _GK_NODES**d == pytest.approx(exact, abs=1e-15)

    @pytest.mark.parametrize("shape", sorted(DIAGNOSTIC_SHAPES))
    def test_gauss_kronrod_matches_quad_on_hou_integrand(self, shape):
        ch, w = DIAGNOSTIC_SHAPES[shape]
        dyn = dynamics(ch, w)
        s, window = 1e-3 / max(w.rates), _window(dyn)
        intervals = _violation_intervals(dyn, s, window)
        zeros = _singular_times(dyn, (0.0, window[1] + s))
        pieces = [np.unique([a, b] + [z for z in zeros if a < z < b]) for a, b in intervals]
        vals, errs = _gauss_kronrod(lambda t: np.arctan(_negativity(dyn, s, t)), pieces)
        assert len(vals) == len(intervals) > 0
        for piece, val, err in zip(pieces, vals, errs):
            ref, _ = quad(
                lambda t: math.atan(_scalar_negativity(dyn, s, t)),
                piece[0],
                piece[-1],
                points=list(piece[1:-1]) or None,
                limit=200,
            )
            assert val == pytest.approx(ref, abs=1e-8)
            assert err <= max(1.49e-8, 1.49e-8 * abs(val))

    @pytest.mark.parametrize("shape", sorted(DIAGNOSTIC_SHAPES))
    def test_measures_match_recorded_values(self, shape):
        ch, w = DIAGNOSTIC_SHAPES[shape]
        blp_ref, hou_ref, rhp_ref = RECORDED_MEASURES[shape]
        blp = blp_measure_numeric(ch, w)
        assert blp.value == pytest.approx(blp_ref[0], abs=1e-9)
        assert len(blp.contributions) == blp_ref[1]
        for res, (value, count) in [
            (hou_measure(ch, w), hou_ref),
            (rhp_divisibility_measure(ch, w), rhp_ref),
        ]:
            assert res.value == pytest.approx(value, rel=1e-7)
            assert len(res.contributions) == count
            if res.contributions:
                assert "quad_err=" in res.note


def _reference_violation_intervals(dyn, s, window):
    """Reference: _violation_intervals refining the total negativity itself,
    as it did before the signed negativity; brackets and midpoints are the same."""
    t0, t1 = window
    grid = pole_grid([g.value for g in dyn.generators], window, 400)
    floor = 1e-12
    inside = _negativity(dyn, s, grid) > floor
    i = np.flatnonzero(inside[:-1] != inside[1:])
    cross = refine_brackets(
        lambda t: _negativity(dyn, s, t) - floor, grid[i], grid[i + 1], 1e-12
    )
    marks = [t0] + sorted(float(x) for x in cross) + [t1]
    mids = 0.5 * (np.array(marks[:-1]) + np.array(marks[1:]))
    out = []
    for a, b, bad in zip(marks[:-1], marks[1:], _negativity(dyn, s, mids) > floor):
        if bad and out and abs(out[-1][1] - a) < 1e-12:
            out[-1] = (out[-1][0], b)
        elif bad:
            out.append((a, b))
    return out


FIXED_LAG_CASES = {
    **DIAGNOSTIC_SHAPES,
    **{f"scan-{k}": (ch, w) for k, (ch, w, _, _) in enumerate(SCAN_CASES)},
}


def _seeded_channel(seed):
    """A random Pauli channel on a two-stage or Erlang waiting time."""
    rng = np.random.default_rng(seed)
    ch = PauliChannel(rng.dirichlet(np.ones(4)).tolist())
    rate = float(rng.uniform(0.5, 2.0))
    if seed % 3 == 0:
        return ch, HypoExpWTD.erlang(int(rng.integers(2, 5)), rate)
    return ch, HypoExpWTD([rate, rate * float(rng.uniform(0.1, 0.6))])


class TestFixedLagSearch:
    @pytest.mark.parametrize("case", sorted(FIXED_LAG_CASES))
    def test_signed_refinement_matches_total_negativity_refinement(self, case):
        ch, w = FIXED_LAG_CASES[case]
        dyn = dynamics(ch, w)
        s, window = 1e-3 / max(w.rates), _window(dyn)
        got = _violation_intervals(dyn, s, window)
        ref = _reference_violation_intervals(dyn, s, window)
        assert len(got) == len(ref)
        ends = np.array(got).ravel()
        # Within 1e-9, widened by the rounding band of a Choi weight (1e-15)
        # over the slope: at the onset of the ep violations near t = 0.007 the
        # slope is about 1e-9 and any root within 1e-6 is as good as another.
        lo, hi = np.maximum(ends - 1e-7, 0.0), ends + 1e-7
        slope = (
            _negativity(dyn, s, hi, signed=True) - _negativity(dyn, s, lo, signed=True)
        ) / (hi - lo)
        tol = 1e-9 + 1e-15 / np.abs(slope)
        assert np.all(np.abs(ends - np.array(ref).ravel()) <= tol)

    @pytest.mark.parametrize("case", sorted(FIXED_LAG_CASES) + ["exact-zero"])
    def test_signed_negativity_has_the_sign_of_the_negativity(self, case):
        floor = 1e-12
        if case == "exact-zero":
            dyn, s, ts = _ExactZeroDynamics(), 0.3, np.linspace(0.0, 2.0, 4001)
        else:
            ch, w = FIXED_LAG_CASES[case]
            dyn = dynamics(ch, w)
            s, window = 1e-3 / max(w.rates), _window(dyn)
            zeros = _singular_times(dyn, (0.0, window[1] + s))
            near = np.array(zeros)[:, None] + np.array([-1e-9, 0.0, 1e-9])
            ts = np.sort(np.concatenate([np.linspace(*window, 20001), near.ravel()]))
        signed = _negativity(dyn, s, ts, signed=True)
        total = _negativity(dyn, s, ts)
        assert np.array_equal(np.sign(signed - floor), np.sign(total - floor))
        assert np.array_equal(signed[total > 0], total[total > 0])
        assert np.all(signed[total == 0] < 0)

    def test_violation_search_evaluation_budget(self, monkeypatch):
        # Refining the total negativity took 110 calls here.
        ch, w = DIAGNOSTIC_SHAPES["phaseflip/conv:1,0.3"]
        dyn = dynamics(ch, w)
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return _negativity(*args, **kwargs)

        monkeypatch.setattr(nonmarkov, "_negativity", counted)
        intervals = _violation_intervals(dyn, 1e-3 / max(w.rates), _window(dyn))
        assert len(intervals) == RECORDED_MEASURES["phaseflip/conv:1,0.3"][1][1]
        assert len(calls) <= 40

    def test_touching_violated_segments_are_one_interval(self, monkeypatch):
        # A refined boundary inside a violation region (as a bracket holding
        # three crossings may give) splits it into two violated segments that
        # share that boundary; they come out as one interval.
        ch, w = DIAGNOSTIC_SHAPES["phaseflip/conv:1,0.3"]
        dyn = dynamics(ch, w)
        s, window = 1e-3 / max(w.rates), _window(dyn)
        intervals = _violation_intervals(dyn, s, window)
        (a, b), inner = intervals[0], 0.5 * sum(intervals[0])
        refine = nonmarkov.refine_brackets
        monkeypatch.setattr(
            nonmarkov, "refine_brackets", lambda *args: np.append(refine(*args), inner)
        )
        split = np.array([0.5 * (a + inner), 0.5 * (inner + b)])
        assert np.all(_negativity(dyn, s, split) > 1e-12)
        assert _violation_intervals(dyn, s, window) == intervals

    @pytest.mark.parametrize("seed", range(30))
    def test_singular_times_are_the_distinct_extrema_zero_crossings(self, seed):
        dyn = dynamics(*_seeded_channel(seed))
        upto = _window(dyn)[1]
        ref = {
            p.t
            for g in dyn.generators
            if not g.derivative.is_zero()
            for p in find_extrema(g.value, (0.0, upto))
            if p.kind == "zero-crossing"
        }
        assert _singular_times(dyn, (0.0, upto)) == sorted(ref)

    def test_shared_generator_zeros_listed_once(self):
        zeros = _singular_times(dynamics(PHASEFLIP, ERLANG2), (0.0, 7.0))
        assert zeros == pytest.approx([3 * math.pi / 4, 7 * math.pi / 4], abs=1e-10)

    def test_singular_times_search_only_the_window(self):
        zeros = _singular_times(dynamics(PHASEFLIP, ERLANG2), (3.0, 7.0))
        assert zeros == pytest.approx([7 * math.pi / 4], abs=1e-10)

    def test_divisibility_measure_finite_on_a_window_past_a_zero(self):
        # lam_x of the phase flip on erlang:2:1 vanishes at 3 pi/4 + k pi, so
        # (6, 7) holds none; the one violation interval starts at t0 = 6.
        rhp = rhp_divisibility_measure(PHASEFLIP, ERLANG2, window=(6.0, 7.0))
        hou = hou_measure(PHASEFLIP, ERLANG2, window=(6.0, 7.0))
        assert math.isfinite(rhp.value) and rhp.value > 0.0
        assert hou.value == pytest.approx(1.786e-4, rel=1e-3)
        assert [ab for ab, _ in rhp.contributions] == [ab for ab, _ in hou.contributions]


class TestFixedLagValidation:
    @pytest.mark.parametrize(
        "window", [(5.0, 1.0), (0.0, 0.0), (0.0, math.inf), (-1.0, 2.0), (0.0, math.nan)]
    )
    @pytest.mark.parametrize("measure", [hou_measure, rhp_divisibility_measure])
    def test_bad_window_rejected_by_both_measures(self, measure, window):
        with pytest.raises(ValueError, match="window must satisfy"):
            measure(EXCHANGE, HypoExpWTD([1.0, 0.14]), window=window)

    @pytest.mark.parametrize("lag", [math.inf, math.nan])
    @pytest.mark.parametrize("measure", [hou_measure, rhp_divisibility_measure])
    def test_nonfinite_lag_rejected_by_both_measures(self, measure, lag):
        with pytest.raises(ValueError, match="lag must be positive"):
            measure(EXCHANGE, HypoExpWTD([1.0, 0.14]), s_offset=lag)

    @pytest.mark.parametrize("window", [(0.0, 0.0), (0.0, math.inf), (3.0, 2.0)])
    def test_bad_window_rejected_by_pair_search(self, window):
        with pytest.raises(ValueError, match="window must satisfy"):
            blp_measure_numeric(PHASEFLIP, ERLANG2, PairSearchConfig(window=window))

    @pytest.mark.parametrize(
        "t_values, s_values",
        [
            ([], [0.5]),
            ([1.0], []),
            ([0.0, math.nan], [0.5]),
            ([1.0], [0.5, math.inf]),
        ],
    )
    def test_scan_needs_nonempty_finite_times(self, t_values, s_values):
        with pytest.raises(ValueError, match="non-empty and finite"):
            divisibility_scan(PHASEFLIP, ERLANG2, np.array(t_values), np.array(s_values))
