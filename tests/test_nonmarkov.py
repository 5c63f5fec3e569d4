import math
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from smqdyn import nonmarkov, renewal
from smqdyn.nonmarkov import (
    _G7_WEIGHTS,
    _GK_NODES,
    _GK_WEIGHTS,
    PairSearchConfig,
    _choi_numerators,
    _gauss_kronrod,
    _measure_window,
    _negativity,
    _pieces,
    _positive_variation,
    _singular_times,
    _violated,
    _violation_intervals,
    blp_measure_dephasing,
    blp_measure_numeric,
    distinguishability_trace,
    divisibility_scan,
    hou_measure,
    rhp_divisibility_measure,
    tcl_coefficients,
    tcl_equivalence_check,
    tcl_generators,
    tcl_rates,
    tcl_residual,
    trace_distance,
)
from smqdyn.qubit import (
    PAULI_TRANSFORM,
    ChannelDynamics,
    PauliChannel,
    QubitState,
    choi_vector,
    dynamics,
    evolve_state,
    map_snapshot,
)
from smqdyn.poly_laplace import AccuracyError, ExpPolyFunction, evaluate_all
from smqdyn.renewal import (
    ROOT_RTOL,
    ROOT_XTOL,
    GeneratingFunction,
    dominance_time,
    even_odd_difference,
    find_extrema,
    find_zeros,
    pole_grid,
    refine_brackets,
    runs,
    sign_brackets,
)
from smqdyn.waiting_time import HypoExpWTD

from oracles import fixed_lag_choi_weights, two_stage_parity

ERLANG2 = HypoExpWTD.erlang(2, 1.0)
EXP1 = HypoExpWTD.exponential(1.0)
PHASEFLIP = PauliChannel.phase_flip()
EXCHANGE = PauliChannel.exchange()
PLUS = QubitState.from_bloch([1.0, 0.0, 0.0])
MINUS = QubitState.from_bloch([-1.0, 0.0, 0.0])
EXACT_MEASURE = 1.0 / (math.exp(math.pi) - 1.0)


@pytest.fixture
def cold():
    """Empties the sign-structure caches now, and again on each call, so
    that a spy sees its searches run instead of a cache hit."""

    def clear():
        renewal._extrema.cache_clear()
        renewal._zeros.cache_clear()
        nonmarkov._violation_intervals.cache_clear()

    clear()
    return clear


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

    def test_singular_mask_does_not_depend_on_the_lags(self):
        # 1.5e-5 past the zero: outside 1e-6 * max t, inside 1e-6 * (max t + 20)
        t_vals = np.array([3 * math.pi / 4 + 1.5e-5])
        for s_max in (5.0, 20.0):
            scan = divisibility_scan(PHASEFLIP, ERLANG2, t_vals, np.array([0.0, s_max]))
            assert not scan.singular_t[0]
            assert np.isfinite(scan.min_component).all()


def _reference_scan_cells(ch, w, t_values, s_values):
    """divisibility_scan's singular mask and negative cells by loops."""
    dyn = dynamics(ch, w)
    T = float(t_values.max())
    zeros = _singular_times(dyn, (0.0, T * (1 + 1e-6)))
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
        canonical, overcomplete, _ = tcl_rates(FIG3_CHANNEL, FIG3_WTD, [2.0])
        mixed = QubitState.maximally_mixed().matrix()
        for form in tcl_generators(canonical, overcomplete, mixed):
            assert np.max(np.abs(form)) < 1e-14

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

    @pytest.mark.parametrize(
        "ch, w", [(PHASEFLIP, ERLANG2), (FIG3_CHANNEL, FIG3_WTD)], ids=["pf", "fig3"]
    )
    def test_array_path_matches_scalar_bit_for_bit(self, ch, w):
        t = np.sort(np.append(np.linspace(0.05, 12.0, 299), 3 * math.pi / 4))
        canonical, overcomplete, singular = tcl_rates(ch, w, t)
        probes = [PLUS, QubitState.from_bloch([0.4, -0.5, 0.6])]
        residual = tcl_residual(canonical, overcomplete, probes)

        def bits(x):
            return np.asarray(x, dtype=float).view(np.uint64).tolist()

        for i, ti in enumerate(t.tolist()):
            co = tcl_coefficients(ch, w, ti)
            assert co.singular == singular[i]
            assert bits(co.canonical) == bits(canonical[:, i])
            assert bits(co.overcomplete) == bits(overcomplete[:, i])
            if co.singular:
                assert np.isnan(co.canonical + co.overcomplete).all()
                continue
            scalar = max(tcl_equivalence_check(co, s) for s in probes)
            assert bits(scalar) == bits(residual[i])
        assert singular.sum() == (ch is PHASEFLIP)

    def test_decayed_eigenvalues_are_no_zeros(self):
        # gamma_y at t = 1000 is the rate's t -> inf limit; |lam_z| is 7.9e-15
        # at the auto-window end 1911: decayed, not a zero.
        canonical, _, singular = tcl_rates(*LONG_PAULI, [1000.0, 1911.0, 3000.0])
        assert not singular.any() and np.isfinite(canonical).all()
        assert canonical[1] == pytest.approx(-0.000858664, rel=1e-6)

    @pytest.mark.parametrize("t", [3700.0, 1e5])
    def test_underflowed_eigenvalues_are_zeros(self, t):
        # lam_y is subnormal at t = 3700 (2e-323), and every lam is 0 at 1e5.
        lam, _ = dynamics(*LONG_PAULI).lambda_table([t])
        assert np.abs(lam[1, 0]) < np.finfo(float).tiny
        assert tcl_rates(*LONG_PAULI, [t])[2].tolist() == [True]

    @pytest.mark.parametrize("seed", range(30))
    def test_zero_rule_flags_the_eigenvalue_zeros_only(self, seed):
        ch, w = _seeded_channel(seed)
        dyn = dynamics(ch, w)
        upto = _window(dyn)[1]
        zeros = np.array(_singular_times(dyn, (0.0, upto)))
        assert tcl_rates(ch, w, zeros)[2].all()
        # Away from the zeros the rule flags only the subnormal eigenvalues,
        # which seed 0's lam_y and lam_z are from about t = 580 on (their
        # slowest rates are -1.23 and -1.21).
        grid = np.linspace(0.0, upto, 1001)
        far = grid[np.abs(grid[:, None] - zeros).min(axis=1, initial=np.inf) >= 1e-9]
        subnormal = (np.abs(dyn.lambda_table(far)[0]) <= np.finfo(float).tiny).any(axis=0)
        assert np.array_equal(tcl_rates(ch, w, far)[2], subnormal)
        assert subnormal.any() == (seed == 0)

    def test_subnormal_sign_changes_are_no_zeros(self):
        # Seed 0's lam_y and lam_z are subnormal from about t = 580 on, where
        # their raw samples flipped sign 16 times in t = 579..613.  find_zeros
        # searches them without their slowest decay, which is normal there:
        # its zeros go on to the window end, each a sign change at 50 digits
        # (the raw search stopped at 156 and 164).
        dyn = dynamics(*_seeded_channel(0))
        window = _window(dyn)
        zeros = [find_zeros(g.value, window) for g in dyn.generators]
        assert [len(z) for z in zeros] == [0, 617, 638]
        for g, z in zip(dyn.generators, zeros):
            slope = renewal._shifted(g.value).differentiate()(z)
            assert np.all(np.abs(slope) > np.finfo(float).tiny)
            _assert_fifty_digit_sign_changes([g.value], z.tolist())

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
# scalar quad implementation these measures had before they were vectorised,
# but ep's hou, recorded once its violation onset was the zero of a Choi weight
# (0.00080920, not the 0.0067839 where a floor of 1e-12 put it); the blp
# entries are within 1e-16 of the floorless brentq reference below.
RECORDED_MEASURES = {
    "phaseflip/conv:1,0.3": (
        (0.007914836666630566, 7), (0.003298185996149094, 7), (math.inf, 0)
    ),
    "mix:0.9/conv:1,0.3": (
        (0.0025937810806949055, 5), (0.0030970907989017363, 5), (math.inf, 0)
    ),
    "ep/conv:1,0.14": (
        (0.0, 0), (1.9192724938730287e-05, 1), (0.004626802088914343, 1)
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
    return _measure_window([g.derivative for g in dyn.generators])[0]


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

    # three distinct non-constant eigenvalues, as _choi_numerators reads them
    rows = varying = [0, 1, 2]
    factors = [[1, 2], [0, 2], [0, 1]]
    generators = tuple(
        GeneratingFunction(0.0, f, f.differentiate())
        for f in (ExpPolyFunction([(0.0, [1.0, -1.0])]), ExpPolyFunction([(-1.0, [1.0])]),
                  ExpPolyFunction([(-0.5, [1.0])]))
    )
    _values = tuple(g.value for g in generators)
    _per_axis = ChannelDynamics._per_axis

    @staticmethod
    def lambdas(t):
        t = np.asarray(t, dtype=float)
        return np.array([1.0 - t, np.exp(-t), np.exp(-0.5 * t)])


def _reference_weights(dyn, s, t):
    """The Choi weights of the map from t to t + s at 50 digits: those of
    fixed_lag_choi_weights, or from the stand-in's closed forms, with -inf
    where an eigenvalue vanishes at t."""
    if not isinstance(dyn, _ExactZeroDynamics):
        return fixed_lag_choi_weights(dyn.channel.mu, dyn.wtd.rates, float(t), s)
    with mpmath.workdps(50):
        t, s = mpmath.mpf(float(t)), mpmath.mpf(s)
        lam = [1 - t, mpmath.exp(-t), mpmath.exp(-t / 2)]
        if 0 in lam:
            return [-math.inf] * 4
        later = [1 - t - s, mpmath.exp(-t - s), mpmath.exp(-(t + s) / 2)]
        x, y, z = (b / a for a, b in zip(lam, later))
        rows = [(1 + x) + (y + z), (1 + x) - (y + z), (1 - x) + (y - z), (1 - x) - (y - z)]
        return [float(v / 4) for v in rows]


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

    @pytest.mark.parametrize("shape", ["mix:0.9/conv:1,0.3", "phaseflip/conv:1,0.3",
                                       "phaseflip/erlang:5:1"])
    def test_shared_eigenvalue_tail_counts_once(self, shape):
        # lam_x = lam_y: the tail of their one derivative was counted twice.
        ch, w = BLP_SHAPES[shape]
        exact = blp_measure_dephasing(w, ch.mu[1])
        assert exact.tail_bound > 0.0
        assert blp_measure_numeric(ch, w).tail_bound == exact.tail_bound

    def test_direction_count_is_ignored(self):
        ch, w = DIAGNOSTIC_SHAPES["pauli:0.3,0.3,0.1,0.3/erlang:2:1"]
        assert blp_measure_numeric(ch, w, PairSearchConfig(n_directions=32)) == (
            blp_measure_numeric(ch, w)
        )

    @pytest.mark.parametrize("shape", sorted(DIAGNOSTIC_SHAPES) + ["exact-zero"])
    def test_array_negativity_matches_fifty_digits(self, shape):
        # The ratio form lam(t + s) / lam(t) of choi_vector was off by up to 2e-10
        # relative here; the lag differences stay within 1.8e-12 (pauli).
        if shape == "exact-zero":
            dyn, ts, s = _ExactZeroDynamics(), np.linspace(0.0, 2.0, 41), 0.3
            assert 1.0 in ts
        else:
            dyn = dynamics(*DIAGNOSTIC_SHAPES[shape])
            ts, s = np.linspace(0.0, _window(dyn)[1], 401), 1e-3
        got = _negativity(dyn, s, ts)
        ref = np.array([-sum(min(w, 0.0) for w in _reference_weights(dyn, s, t)) for t in ts])
        assert np.array_equal(np.isinf(got), np.isinf(ref))
        assert np.isinf(ref).any() == (shape == "exact-zero")
        finite = ~np.isinf(ref)
        assert np.allclose(got[finite], ref[finite], rtol=2e-12, atol=1e-15)

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
        intervals, _ = _violation_intervals(dyn, s, window)
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
    """Reference: where the double negativity of _negativity is above 0, its
    ends bisected 60 times in every cell of the pole grid whose ends differ,
    as the search once refined the total negativity above a floor."""
    grid = pole_grid([g.value for g in dyn.generators], window, 400)
    inside = _negativity(dyn, s, grid) > 0.0
    i = np.flatnonzero(inside[:-1] != inside[1:])
    lo, hi = grid[i], grid[i + 1]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        same = (_negativity(dyn, s, mid) > 0.0) == inside[i]
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    marks = np.array([window[0], *(0.5 * (lo + hi)).tolist(), window[1]])
    starts, ends = runs(np.concatenate([inside[:1], inside[i + 1]]))
    return list(zip(marks[starts].tolist(), marks[ends].tolist()))


def _reference_violated(dyn, s, t):
    return min(_reference_weights(dyn, s, t)) < 0.0


def _assert_reference_intervals(dyn, s, window, intervals, delta=1e-7):
    """The violation intervals against the 50-digit weights: the midpoint of
    every interval is violated (some weight < 0) and that of every gap is not,
    and each end inside the window is violated on its interval's side only,
    delta away."""
    marks = [window[0], *(t for ab in intervals for t in ab), window[1]]
    for k, (a, b) in enumerate(zip(marks[:-1], marks[1:])):
        if b > a:
            assert _reference_violated(dyn, s, 0.5 * (a + b)) == (k % 2 == 1), (a, b)
    for a, b in intervals:
        for end, inside in ((a, a + delta), (b, b - delta)):
            if window[0] < end < window[1]:
                outside = 2.0 * end - inside
                assert _reference_violated(dyn, s, inside), end
                assert not _reference_violated(dyn, s, outside), end


def _slowest_decay(f):
    """q, the largest real part of f's poles."""
    return max(p.real for p in f.poles)


def _fifty_digit_value(f, x):
    """f at the mpmath time x, at the working precision, from f's double poles
    and coefficients."""
    return mpmath.re(mpmath.fsum(
        mpmath.polyval([mpmath.mpc(c) for c in cs[::-1]], x)
        * mpmath.exp(mpmath.mpc(p) * x) for p, cs in f.terms))


def _fifty_digit_numerators(dyn, s, t):
    """Reference: N at the time t as _choi_numerators forms it, at 50 digits
    from the double poles and coefficients of each lam_i, with D_i = lam_i(t +
    s) - lam_i(t) taken at the exact t + s, both times e^{-q_i t}."""
    with mpmath.workdps(50):
        t = mpmath.mpf(float(t))
        scale = [mpmath.exp(-_slowest_decay(g.value) * t) for g in dyn.generators]
        lam = [_fifty_digit_value(g.value, t) * c for g, c in zip(dyn.generators, scale)]
        d = [_fifty_digit_value(g.value, t + s) * c - x
             for g, c, x in zip(dyn.generators, scale, lam)]
        q = mpmath.fprod([lam[j] for j in dyn.varying])
        terms = [d[i] * mpmath.fprod([lam[j] for j in o]) for i, o in enumerate(dyn.factors)]
        rows = [sum(int(a) * x for a, x in zip(A[1:], terms)) / 4 for A in PAULI_TRANSFORM]
        return [float(q * (k == 0) + n) for k, n in enumerate(rows)]


FIXED_LAG_CASES = {
    **DIAGNOSTIC_SHAPES,
    **{f"scan-{k}": (ch, w) for k, (ch, w, _, _) in enumerate(SCAN_CASES)},
}


def _assert_fifty_digit_sign_changes(fs, zeros):
    """Each zero t is a sign change of one of the fs on t -/+ (ROOT_XTOL +
    ROOT_RTOL t), the root tolerance, at 50 digits."""
    with mpmath.workdps(50):
        for t in zeros:
            h = ROOT_XTOL + ROOT_RTOL * t
            assert any(_fifty_digit_value(f, mpmath.mpf(t - h))
                       * _fifty_digit_value(f, mpmath.mpf(t + h)) < 0 for f in fs), t


def _seeded_channel(seed):
    """A random Pauli channel on a two-stage or Erlang waiting time."""
    rng = np.random.default_rng(seed)
    ch = PauliChannel(rng.dirichlet(np.ones(4)).tolist())
    rate = float(rng.uniform(0.5, 2.0))
    if seed % 3 == 0:
        return ch, HypoExpWTD.erlang(int(rng.integers(2, 5)), rate)
    return ch, HypoExpWTD([rate, rate * float(rng.uniform(0.1, 0.6))])


def _tensordot_numerators(dyn, lam, d):
    """Reference: N = Q (1, 0, 0, 0) + A (0, D F) / 4 with np.tensordot, from
    the per-axis lam_i and D_i."""
    q = np.prod(lam[dyn.varying], axis=0)
    others = [[j for j in dyn.varying if dyn.rows[j] != r] for r in dyn.rows]
    terms = np.stack([d[i] * np.prod(lam[o], axis=0) for i, o in enumerate(others)])
    num = np.tensordot(PAULI_TRANSFORM[:, 1:], terms, axes=1)
    num *= 0.25
    num[0] += q
    return num, q


def _refinement_calls(monkeypatch, dyn, s, window):
    """Runs the violation search with a spy on its one refine_brackets call, on
    its sign_brackets calls and on its grid pass of _choi_numerators.  Returns
    the search's result, the call's f, a, b and lower-end values (ends), the
    row of N bracketed by each sign_brackets call (rows) and of each bracket
    (row), and the times of every call the refinement made to f."""
    seen, times, calls, grid_pass = {}, [], [], []
    refine, brackets = nonmarkov.refine_brackets, nonmarkov.sign_brackets
    numerators = nonmarkov._choi_numerators

    def spy(f, a, b, xtol, *ends):
        seen.update(f=f, a=np.asarray(a, dtype=float), b=np.asarray(b, dtype=float), ends=ends)
        return refine(lambda t: times.append(t) or f(t), a, b, xtol, *ends)

    def counted(values, envelopes):
        found = brackets(values, envelopes)
        calls.append((values, len(found[0])))
        return found

    def recorded(*args, **kwargs):
        out = numerators(*args, **kwargs)
        if not grid_pass:
            grid_pass.append(out)
        return out

    monkeypatch.setattr(nonmarkov, "refine_brackets", spy)
    monkeypatch.setattr(nonmarkov, "sign_brackets", counted)
    monkeypatch.setattr(nonmarkov, "_choi_numerators", recorded)
    nonmarkov._violation_intervals.cache_clear()
    found = _violation_intervals(dyn, s, window)
    num, _, bound = grid_pass[0]
    signs = np.where(np.abs(num) > bound, num, 0.0)
    # each call's row: the first of N's rows on the grid with its values
    seen["rows"] = [next(k for k in range(4) if np.array_equal(signs[k], v)) for v, _ in calls]
    seen["row"] = np.repeat(seen["rows"], [n for _, n in calls]).astype(int)
    seen["signs"] = signs
    return found, seen, times


class TestFixedLagSearch:
    @pytest.mark.parametrize("window", ["auto", (0.0, 300.0), (0.0, 2000.0)])
    @pytest.mark.parametrize("case", sorted(FIXED_LAG_CASES))
    def test_refined_rows_keep_the_bits_of_the_numerator_formula(self, case, window, monkeypatch):
        # The refined function, at the brackets' ends and inside them, is each
        # bracket's row of N as the tensordot formula forms it; the lower ends'
        # values are the grid pass's.
        ch, w = FIXED_LAG_CASES[case]
        dyn = dynamics(ch, w)
        s = 1e-3 / max(w.rates)
        _, seen, _ = _refinement_calls(monkeypatch, dyn, s,
                                       _window(dyn) if window == "auto" else window)
        f, a, b, row = seen["f"], seen["a"], seen["b"], seen["row"]
        assert a.size or w.n_stages == 1  # memoryless: nothing to refine but noise
        at = np.arange(a.size)
        for t in (a, 0.25 * a + 0.75 * b, b):
            ref, _ = _tensordot_numerators(dyn, *nonmarkov._lag_values(dyn, s, t))
            assert f(t).tobytes() == ref[row, at].tobytes()
        assert np.asarray(seen["ends"][0]).tobytes() == f(a).tobytes()

    @pytest.mark.parametrize("case", sorted(FIXED_LAG_CASES))
    def test_equal_rows_are_bracketed_once(self, case, monkeypatch):
        # Equal Pauli eigenvalues give Choi weights that are one function: N is
        # bracketed on one row of each, and the others are that row, within
        # their rounding bounds, at 101 times; the bracketed rows differ.
        ch, w = FIXED_LAG_CASES[case]
        dyn = dynamics(ch, w)
        s, window = 1e-3 / max(w.rates), _window(dyn)
        _, seen, _ = _refinement_calls(monkeypatch, dyn, s, window)
        num, _, bound = _choi_numerators(dyn, s, np.linspace(*window, 101))
        rows = seen["rows"]

        def same(j, k):
            return np.all(np.abs(num[j] - num[k]) <= bound[j] + bound[k])

        assert all(any(same(j, k) for j in rows) for k in range(4))
        assert not any(same(j, k) for j in rows for k in rows if j < k)
        if case == "pauli:0.3,0.3,0.1,0.3/erlang:2:1":  # 33 brackets on all four rows
            assert (rows, seen["a"].size) == ([0, 1, 2], 25)

    @pytest.mark.parametrize("case", sorted(FIXED_LAG_CASES))
    def test_refinement_evaluates_the_upper_ends_once(self, case, monkeypatch):
        # The grid pass has N at every bracket's lower end; the refinement
        # evaluates the upper ends once, and then only the insides of the
        # brackets.
        ch, w = FIXED_LAG_CASES[case]
        dyn = dynamics(ch, w)
        _, seen, times = _refinement_calls(monkeypatch, dyn, 1e-3 / max(w.rates), _window(dyn))
        assert bool(times) == (w.n_stages > 1)  # memoryless: nothing to refine
        if times:
            assert np.array_equal(times[0], seen["b"])
        for t in times[1:]:
            assert not np.any((t == seen["a"]) | (t == seen["b"]))

    @pytest.mark.parametrize("case", sorted(FIXED_LAG_CASES))
    def test_intervals_match_the_fifty_digit_reference(self, case):
        ch, w = FIXED_LAG_CASES[case]
        dyn = dynamics(ch, w)
        s, window = 1e-3 / max(w.rates), _window(dyn)
        intervals, _ = _violation_intervals(dyn, s, window)
        _assert_reference_intervals(dyn, s, window, intervals)
        # the same intervals as the floor-0 search, its ends within 4e-9 here
        ref = _reference_violation_intervals(dyn, s, window)
        assert len(intervals) == len(ref)
        assert np.allclose(intervals, ref, rtol=0.0, atol=1e-8)

    @pytest.mark.parametrize("case", sorted(FIXED_LAG_CASES))
    def test_numerators_are_within_their_bound_of_fifty_digits(self, case):
        # At grid times and beside the eigenvalue zeros, where Q and a factor
        # of each product nearly vanish, and at the window end, where p t has
        # rounded: the bound holds every row of N (with 30 times to spare on the
        # test shapes and the 40 seeded channels).
        ch, w = FIXED_LAG_CASES[case]
        dyn = dynamics(ch, w)
        s, window = 1e-3 / max(w.rates), _window(dyn)
        near = np.array(_singular_times(dyn, window)[:2])[:, None] + [-1e-9, 1e-9]
        ts = np.sort(np.concatenate([np.linspace(*window, 9), near.ravel()]))
        num, _, bound = _choi_numerators(dyn, s, ts)
        ref = np.array([_fifty_digit_numerators(dyn, s, t) for t in ts]).T
        assert np.all(np.abs(num - ref) <= bound)

    @pytest.mark.parametrize("case", sorted(FIXED_LAG_CASES) + ["exact-zero"])
    def test_violated_is_where_a_weight_is_negative(self, case):
        # Some weight is negative beyond the rounding bound of its numerator
        # where the double negativity is positive, on 20001 times and beside
        # every eigenvalue zero, except where a row of N is within its bound but
        # not 0 (a weight identically 0, as in a dephasing map, is 0 in both);
        # where a 50-digit weight is negative on 21 of those times and at every
        # zero, with the same exception.  An exact eigenvalue zero is violated.
        near = np.array([])
        if case == "exact-zero":
            dyn, s, ts = _ExactZeroDynamics(), 0.3, np.linspace(0.0, 2.0, 4001)
            assert 1.0 in ts[::200]
        else:
            ch, w = FIXED_LAG_CASES[case]
            dyn = dynamics(ch, w)
            s, window = 1e-3 / max(w.rates), _window(dyn)
            zeros = _singular_times(dyn, (0.0, window[1] + s))
            near = (np.array(zeros)[:, None] + np.array([-1e-9, 0.0, 1e-9])).ravel()
            ts = np.sort(np.concatenate([np.linspace(*window, 20001), near]))
        num, q, bound = _choi_numerators(dyn, s, ts)
        assert np.all(np.isfinite(num))
        got = _violated(num, q, bound)
        within = ((np.abs(num) <= bound) & (num != 0.0)).any(axis=0)
        double = _negativity(dyn, s, ts) > 0.0
        assert np.all(got <= double) and np.array_equal(got[~within], double[~within])
        few = np.union1d(np.arange(0, ts.size, ts.size // 20), np.flatnonzero(np.isin(ts, near)))
        ref = np.array([_reference_violated(dyn, s, t) for t in ts[few]])
        assert np.all(got[few] <= ref) and np.all((got[few] == ref) | within[few])

    def test_violation_search_evaluation_budget(self, monkeypatch, cold):
        # Refining the total negativity took 110 calls here, and a signed
        # negativity 31.
        ch, w = DIAGNOSTIC_SHAPES["phaseflip/conv:1,0.3"]
        dyn = dynamics(ch, w)
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return _choi_numerators(*args, **kwargs)

        monkeypatch.setattr(nonmarkov, "_choi_numerators", counted)
        intervals, _ = _violation_intervals(dyn, 1e-3 / max(w.rates), _window(dyn))
        assert len(intervals) == RECORDED_MEASURES["phaseflip/conv:1,0.3"][1][1]
        assert len(calls) <= 15

    @pytest.mark.parametrize("case", sorted(FIXED_LAG_CASES))
    def test_pieces_split_at_every_sign_change_of_a_weight(self, case):
        # A kink is a zero of some Choi weight, within the rounding band of
        # its terms; between the breakpoints of the measures' pieces (ends,
        # eigenvalue zeros and kinks) no weight changes sign, away from each
        # breakpoint by the refinement's tolerance: within s/2 of a zero a
        # weight's slope is of order 1e3, and on mix:0.9 a boundary and a kink
        # lie within that tolerance of each other.
        ch, w = FIXED_LAG_CASES[case]
        dyn = dynamics(ch, w)
        s, window = 1e-3 / max(w.rates), _window(dyn)
        intervals, kinks = _violation_intervals(dyn, s, window)

        def weights(t):  # A (1, r) / 4 of the ratios r, and its scale
            lam, later = np.moveaxis(dyn.lambdas(np.stack([t, t + s])), 1, 0)
            r = np.vstack([np.ones((1,) + lam.shape[1:]), later / lam])
            return 0.25 * np.tensordot(PAULI_TRANSFORM, r, axes=1), np.abs(r).sum(axis=0)

        mu, scale = weights(np.array(kinks))
        assert np.all(np.abs(mu).min(axis=0) <= 1e-9 * scale)
        theta = np.linspace(0.0, 1.0, 103)[1:-1]
        for piece in _pieces(intervals, _singular_times(dyn, window) + list(kinks)):
            for a, b in zip(piece[:-1], piece[1:]):
                tol = 1e-12 + 8.9e-16 * abs(b)
                if b - a <= 2.0 * tol:
                    continue
                mu, scale = weights(a + tol + theta * (b - a - 2.0 * tol))
                signs = np.where(np.abs(mu) > 1e-12 * scale, np.sign(mu), 0.0)
                assert np.all(signs.min(axis=1) * signs.max(axis=1) >= 0.0)

    def test_touching_violated_segments_are_one_interval(self, monkeypatch, cold):
        # A refined boundary inside a violation region (as a bracket holding
        # three crossings may give) splits it into two violated segments that
        # share that boundary; they come out as one interval.
        ch, w = DIAGNOSTIC_SHAPES["phaseflip/conv:1,0.3"]
        dyn = dynamics(ch, w)
        s, window = 1e-3 / max(w.rates), _window(dyn)
        intervals, _ = _violation_intervals(dyn, s, window)
        (a, b), inner = intervals[0], 0.5 * sum(intervals[0])
        refine = nonmarkov.refine_brackets
        # Every root marks a boundary or a kink, so the appended one marks the
        # end of one violated segment and the start of the next.
        monkeypatch.setattr(
            nonmarkov, "refine_brackets", lambda *args: np.append(refine(*args), inner)
        )
        split = np.array([0.5 * (a + inner), 0.5 * (inner + b)])
        assert np.all(_negativity(dyn, s, split) > 1e-12)
        cold()
        assert _violation_intervals(dyn, s, window)[0] == intervals

    @pytest.mark.parametrize("seed", range(40))
    def test_singular_times_are_the_distinct_extrema_zero_crossings(self, seed, cold):
        # Bit for bit: both read find_zeros(lam_i), which searches lam_i without
        # its slowest decay.  Seed 0's lam_y and lam_z are subnormal from about
        # t = 580 on, and its 1,255 zeros go on past that (the raw search of
        # find_extrema stopped at 320), each a sign change of lam_i within the
        # root tolerance at 50 digits.
        dyn = dynamics(*_seeded_channel(seed))
        window = (0.0, _window(dyn)[1])
        ref = sorted({
            p.t
            for g in dyn.generators
            if not g.derivative.is_zero()
            for p in find_extrema(g.value, window)
            if p.kind == "zero-crossing"
        })
        cold()
        got = _singular_times(dyn, window)
        assert np.array_equal(np.array(got), np.array(ref))
        if seed == 0:
            assert len(got) == 1255
            _assert_fifty_digit_sign_changes([dyn.generators[i].value for i in dyn.varying], got)

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

    # Long windows on which the product Q of the raw eigenvalues underflows.
    # The pauli case uses its auto-window, (0, 1910.8).
    @pytest.mark.parametrize("case", ["ep-1928.6", "pauli-erlang:4:1", "seed-0-550"])
    def test_long_window_matches_the_fifty_digit_reference(self, case):
        if case == "ep-1928.6":
            ch, w = DIAGNOSTIC_SHAPES["ep/conv:1,0.14"]
            s, window = 1e-3, (0.0, 1928.6)
        elif case == "pauli-erlang:4:1":
            ch, w = PauliChannel([0.6979, 0.2677, 0.0060, 0.0284]), HypoExpWTD.erlang(4, 1.0)
            s, window = 1e-3, None
        else:
            ch, w = _seeded_channel(0)
            s, window = 1e-3 / max(w.rates), (0.0, 550.0)
        dyn = dynamics(ch, w)
        window = window or _window(dyn)
        got, _ = _violation_intervals(dyn, s, window)
        _assert_reference_intervals(dyn, s, window, got)
        ref = _reference_violation_intervals(dyn, s, window)
        assert len(got) == len(ref)
        assert np.allclose(got, ref, rtol=0.0, atol=1e-8)


class TestFiftyDigitAnswers:
    """Answers that a floor of 1e-12 on the Choi weights got wrong, checked
    against the 50-digit weights of the stage chain."""

    @pytest.mark.parametrize("lag", [1e-11, 1e-12])
    def test_exchange_pair_violates_from_zero_at_tiny_lags(self, lag):
        # Its fourth weight is -1.2448e-14 at t = 1 for s = 1e-11; both
        # measures read 0.0 under the floor.
        ch, w = DIAGNOSTIC_SHAPES["ep/conv:1,0.14"]
        assert fixed_lag_choi_weights(ch.mu, w.rates, 1.0, lag)[3] < 0.0
        end = _window(dynamics(ch, w))[1]
        for measure in (hou_measure, rhp_divisibility_measure):
            res = measure(ch, w, s_offset=lag)
            assert res.value > 0.0
            assert [ab for ab, _ in res.contributions] == [(0.0, end)]

    def test_exchange_pair_onset_is_the_sign_change_of_a_weight(self):
        # The floor put it at 0.0067839, where that weight is -1.0072e-12.
        ch, w = DIAGNOSTIC_SHAPES["ep/conv:1,0.14"]
        ((a, _), _), = hou_measure(ch, w).contributions
        assert 0.000809 < a < 0.00081
        before, after = (fixed_lag_choi_weights(ch.mu, w.rates, t, 1e-3)[3]
                         for t in (0.000809, 0.00081))
        assert before > 0.0 > after

    @pytest.mark.parametrize("lag", [1e-6, 1e-8, 1e-10, 1e-12])
    def test_phase_flip_violation_length_is_that_of_every_lag(self, lag):
        # The floor cut it to 9.08 at s = 1e-10 and to 2.62 at 1e-12.
        ch, w = PHASEFLIP, HypoExpWTD([1.0, 0.3])
        dyn = dynamics(ch, w)
        intervals, _ = _violation_intervals(dyn, lag, _window(dyn))
        assert sum(b - a for a, b in intervals) == pytest.approx(9.280688, abs=1e-6)
        for a, b in intervals[:2]:  # each end is a sign change of the weights
            inside = [_reference_violated(dyn, lag, t) for t in (a + 1e-7, b - 1e-7)]
            outside = [_reference_violated(dyn, lag, t) for t in (a - 1e-7, b + 1e-7)]
            assert inside == [True, True] and outside == [False, False]

    def test_positive_rates_near_zero_give_no_violation(self):
        # Every canonical rate of this channel is positive up to 3.83; a bound
        # on the lag differences' values alone, not their envelopes, reported
        # a violation on (0, 0.005).
        ch, w = DIRICHLET_CHANNELS["pauli:0.487,0.2402,0.249,0.0238/erlang:6:1"]
        dyn = dynamics(ch, w)
        (a, _), = _violation_intervals(dyn, 1e-3, _window(dyn))[0]
        assert a == pytest.approx(3.827650, abs=1e-6)
        assert not _reference_violated(dyn, 1e-3, a - 1e-7)
        assert _reference_violated(dyn, 1e-3, a + 1e-7)


# The long-window inputs of the search: the pauli channel's auto-window is
# (0, 1910.8), and lam_y underflows past t = 3,500.
LONG_PAULI = (PauliChannel([0.6979, 0.2677, 0.0060, 0.0284]), HypoExpWTD.erlang(4, 1.0))


class TestScaledNumerators:
    # rhp on long windows, where the product of the raw eigenvalues
    # underflows: (channel, waiting time, lag, window), the value and the
    # end of its one interval, the window end.
    @pytest.mark.parametrize(
        "case, value, end",
        [
            ((*DIAGNOSTIC_SHAPES["ep/conv:1,0.14"], None, (0.0, 1928.6)),
             0.037558621174915686, 1928.6),
            ((*LONG_PAULI, 1e-3, None), 1.6356761937563326e-3, 1910.8325760335417),
            ((*LONG_PAULI, 1e-6, None), 1.637729043975833e-6, 1910.8325760335417),
        ],
        ids=["ep-1928.6", "pauli-1e-3", "pauli-1e-6"],
    )
    def test_long_window_values_run_to_the_window_end(self, case, value, end):
        ch, w, s, window = case
        res = rhp_divisibility_measure(ch, w, s_offset=s, window=window)
        quad_err = float(res.note.split("quad_err=")[1])
        assert abs(res.value - value) <= max(quad_err, 1e-9 * value)
        ((_, b), _), = res.contributions
        assert b == pytest.approx(end, rel=1e-12)

    @pytest.mark.parametrize("end, at", [(5000.0, 4000.0), (1e4, 9000.0)])
    def test_violation_runs_on_past_an_underflowed_eigenvalue(self, end, at):
        # lam_y underflows past t = 3,500.  The third Choi weight stays at its
        # limit -8.577e-7 at 50 digits, and hou, the mean of the arctangent of
        # the negativity over the one interval, within its quad_err of it.
        ch, w = LONG_PAULI
        res = hou_measure(ch, w, window=(0.0, end))
        ((a, b), _), = res.contributions
        assert a == pytest.approx(3.476990, abs=1e-6) and b == end
        weights = fixed_lag_choi_weights(ch.mu, w.rates, at, 1e-3)
        assert weights[2] == pytest.approx(-8.577e-7, rel=1e-4)
        assert min(weights[:2] + weights[3:]) > 0.0
        quad_err = float(res.note.split("quad_err=")[1])
        assert abs(res.value + weights[2]) <= quad_err

    @pytest.mark.parametrize("end", [2000.0, 1e4])
    def test_memoryless_exchange_is_markovian_past_the_underflow(self, end):
        # lam = e^-t, e^-t and e^-2t: every intermediate map is a Pauli
        # semigroup step, completely positive; the raw e^-2t is subnormal from
        # t = 354 on, where a search on it saw brackets of noise.
        assert min(fixed_lag_choi_weights(EXCHANGE.mu, EXP1.rates, 0.9 * end, 1e-3)) > 0.0
        for measure in (hou_measure, rhp_divisibility_measure):
            res = measure(EXCHANGE, EXP1, window=(0.0, end))
            assert (res.value, res.contributions) == (0.0, ())

    @pytest.mark.parametrize("end", [550.0, 560.0, 600.0])
    def test_tiny_lag_past_the_lag_difference_underflow(self, end):
        # At s = 1e-12 the raw D_y ~ s lam_y' of seed 0 is subnormal from about
        # t = 560 on (7e-311 there, with lam_y at 2e-299).  Checked against the
        # 50-digit weights only: the floor-0 search on the double negativity
        # reports a spurious (0, ~1e-7) at this lag.
        dyn, s = dynamics(*_seeded_channel(0)), 1e-12
        intervals, _ = _violation_intervals(dyn, s, (0.0, end))
        assert intervals[-1][1] == end
        _assert_reference_intervals(dyn, s, (0.0, end), intervals)

    def test_every_zero_of_a_long_auto_window_reaches_the_quadrature(self):
        # Seed 0's auto window (0, 2275.7) holds 1,255 eigenvalue zeros, and at
        # each the hou integrand has a spike of width s; the panel cap leaves
        # an error estimate of 0.024 (see the bounded quadrature).
        with pytest.raises(AccuracyError, match="exceeds the tolerance"):
            hou_measure(*_seeded_channel(0))

    def test_numerators_are_the_raw_ones_times_the_slowest_decay(self):
        # Q and N of the raw eigenvalues, times e^{-sum q_i t} > 0, within N's
        # rounding bound (at most 0.04 of it) wherever the raw Q is normal; the
        # raw Q underflows past t = 1,780, and Q, near 1 here, nowhere.
        dyn = dynamics(*LONG_PAULI)
        s, t = 1e-3, np.linspace(0.0, 2000.0, 201)
        num, q, bound = _choi_numerators(dyn, s, t)
        lam = dyn.lambdas(t)
        d = evaluate_all([nonmarkov._lag_difference(f, s) for f in dyn._values], t)[dyn.rows]
        raw_num, raw_q = _tensordot_numerators(dyn, lam, d)
        normal = np.abs(raw_q) > np.finfo(float).tiny
        assert normal[:179].all() and not normal[179:].any()
        assert np.all(np.abs(q) > 0.5)
        decay = np.exp(-sum(_slowest_decay(dyn.generators[j].value) for j in dyn.varying)
                       * t[normal])
        assert np.all(np.abs(q[normal] - raw_q[normal] * decay) <= bound[0, normal])
        assert np.all(np.abs(num[:, normal] - raw_num[:, normal] * decay) <= bound[:, normal])


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

    def test_scan_rejects_negative_start_times(self):
        # before the zero search, whose window (0, max t] would be empty
        with pytest.raises(ValueError, match="time must be nonnegative"):
            divisibility_scan(PHASEFLIP, ERLANG2, np.array([-1.0, -0.5]), np.array([5.0]))


def _searched(monkeypatch):
    """Spy on the sign-structure searches: one (function, window) entry per
    refine_brackets call, the window being that of the last pole_grid call
    and the violation search's function "violation"."""
    calls, window = [], [None]
    for module, name in ((renewal, None), (nonmarkov, "violation")):

        def gridded(fs, win, n_min, grid=module.pole_grid):
            window[0] = tuple(win)
            return grid(fs, win, n_min)

        def counted(f, a, b, xtol, *ends, refine=module.refine_brackets, name=name):
            calls.append((name or f, window[0]))
            return refine(f, a, b, xtol, *ends)

        monkeypatch.setattr(module, "pole_grid", gridded)
        monkeypatch.setattr(module, "refine_brackets", counted)
    return calls


class TestSearchCaches:
    @staticmethod
    def _results(ch, w):
        dyn = dynamics(ch, w)
        window = _window(dyn)
        out = [blp_measure_numeric(ch, w), hou_measure(ch, w), rhp_divisibility_measure(ch, w)]
        for g in dyn.generators:
            out += [find_extrema(g.value, window), find_zeros(g.value, window).tolist()]
        out.append(_violation_intervals(dyn, 1e-3 / max(w.rates), window))
        return repr(out)

    @pytest.mark.parametrize("shape", sorted(DIAGNOSTIC_SHAPES))
    def test_cached_results_equal_fresh_ones(self, shape, cold):
        ch, w = DIAGNOSTIC_SHAPES[shape]
        first = self._results(ch, w)
        assert self._results(ch, w) == first  # every search a cache hit
        cold()
        assert self._results(ch, w) == first

    @pytest.mark.parametrize("shape", sorted(DIAGNOSTIC_SHAPES))
    def test_returned_searches_cannot_change_the_cache(self, shape):
        dyn = dynamics(*DIAGNOSTIC_SHAPES[shape])
        f, window = dyn.generators[0].value, _window(dyn)
        points = find_extrema(f, window)
        expected = list(points)
        points.clear()
        assert find_extrema(f, window) == expected
        zeros = find_zeros(f, window)
        assert not zeros.flags.writeable
        with pytest.raises(ValueError):
            zeros[...] = 0.0

    @pytest.mark.parametrize("shape", sorted(DIAGNOSTIC_SHAPES))
    def test_list_windows_are_accepted(self, shape):
        ch, w = DIAGNOSTIC_SHAPES[shape]
        dyn = dynamics(ch, w)
        f, (t0, t1) = dyn.generators[0].value, _window(dyn)
        assert find_extrema(f, [t0, t1]) == find_extrema(f, (t0, t1))
        assert np.array_equal(find_zeros(f, [t0, t1]), find_zeros(f, (t0, t1)))
        assert hou_measure(ch, w, window=[t0, t1]) == hou_measure(ch, w, window=(t0, t1))

    @pytest.mark.parametrize("shape", sorted(DIAGNOSTIC_SHAPES))
    def test_each_search_runs_once_across_the_measures(self, shape, monkeypatch, cold):
        ch, w = DIAGNOSTIC_SHAPES[shape]
        calls = _searched(monkeypatch)
        blp = blp_measure_numeric(ch, w)
        mu = ch.mu[1]
        if ch.mu[3] == 1.0 and ch.mu[2] == mu:  # pure dephasing
            assert blp_measure_dephasing(w, mu).value == blp.value
        hou, rhp = hou_measure(ch, w), rhp_divisibility_measure(ch, w)
        assert hou.contributions and (rhp.is_infinite or rhp.contributions)
        assert len(calls) == len(set(calls))
        assert sum(key == "violation" for key, _ in calls) == 1

    @pytest.mark.parametrize("shape", sorted(DIAGNOSTIC_SHAPES))
    def test_each_function_misses_the_zero_search_once(self, shape, monkeypatch, cold):
        # BLP's extrema search lam_i' and lam_i, the fixed-lag measures and a
        # scan the zeros of lam_i: one cached search per e^{-qt} f and window.
        ch, w = DIAGNOSTIC_SHAPES[shape]
        dyn = dynamics(ch, w)
        window = _window(dyn)
        calls = _searched(monkeypatch)
        for g in dyn.generators:
            find_extrema(g.value, window)
        hou_measure(ch, w)
        rhp_divisibility_measure(ch, w)
        divisibility_scan(ch, w, np.array([1.0]), np.array([0.01]))
        keys = set()
        for g in (dyn.generators[i] for i in dyn.varying):
            keys |= {(renewal._shifted(g.value), window),
                     (renewal._shifted(g.derivative), window),
                     (renewal._shifted(g.value), (0.0, 1.0 + 1e-6))}
        info = renewal._zeros.cache_info()
        assert info.misses == len(keys) and info.hits > 0
        assert sorted(map(repr, keys)) == sorted(repr(c) for c in calls if c[0] != "violation")

    def test_row_by_row_scans_search_the_zeros_once(self, monkeypatch, cold):
        # Phase flip: lam_x = lam_y, and lam_z = 1 has no zeros to search.
        w = HypoExpWTD.erlang(5, 1.0)
        calls = _searched(monkeypatch)
        for k in range(400):
            divisibility_scan(PHASEFLIP, w, np.array([5.0]), np.array([0.01 * k]))
        assert len(calls) == 1


# Four Dirichlet Pauli channels on Erlang waits of unit rate, each with a
# canonical rate that stays negative for good (eternal non-Markovianity).
DIRICHLET_CHANNELS = {
    f"pauli:{','.join(map(str, weights))}/erlang:{m}:1": (
        PauliChannel(list(weights)), HypoExpWTD.erlang(m, 1.0))
    for weights, m in [((0.4870, 0.2402, 0.2490, 0.0238), 6),
                       ((0.6979, 0.2677, 0.0060, 0.0284), 4),
                       ((0.4543, 0.1985, 0.2682, 0.0790), 4),
                       ((0.4744, 0.0337, 0.3927, 0.0992), 2)]
}
# Every shape above; the golden measures inputs are the DIAGNOSTIC_SHAPES.
SIGN_SHAPES = {
    **{f"seed-{k}": _seeded_channel(k) for k in range(40)},
    **FIXED_LAG_CASES,
    **DIRICHLET_CHANNELS,
}


def _sampled(monkeypatch):
    """Spy on renewal.sign_brackets: the number of samples of each call."""
    sampled, brackets = [], renewal.sign_brackets
    monkeypatch.setattr(renewal, "sign_brackets",
                        lambda v, env: sampled.append(len(v)) or brackets(v, env))
    return sampled


def _lambdas_and_slopes(shape):
    dyn = dynamics(*SIGN_SHAPES[shape])
    return dyn, [f for g in dyn.generators for f in (g.value, g.derivative)]


class TestDominanceTime:
    @pytest.mark.parametrize("shape", sorted(SIGN_SHAPES))
    def test_one_sign_past_the_dominance_time(self, shape):
        _, fs = _lambdas_and_slopes(shape)
        for f in fs:
            T = dominance_time(f)
            if T == math.inf:
                continue
            v = f(T + np.geomspace(1e-6, 1e4, 10_000))
            signed = np.abs(v) > np.finfo(float).tiny  # a subnormal value has no sign
            assert np.all(np.sign(v[signed]) == np.sign(f.terms[-1][1][-1].real))

    @pytest.mark.parametrize("ch, w, axis", [
        (*DIAGNOSTIC_SHAPES["phaseflip/conv:1,0.3"], 0),
        (*DIAGNOSTIC_SHAPES["mix:0.9/conv:1,0.3"], 0),
        (PauliChannel([0.3, 0.3, 0.3, 0.1]), ERLANG2, 2),
    ], ids=["phaseflip", "mix:0.9", "pauli:0.3,0.3,0.3,0.1"])
    def test_a_complex_slowest_pair_has_no_certificate(self, ch, w, axis):
        g = dynamics(ch, w).generators[axis]
        assert abs(g.value.terms[-1][0].imag) > 0.1
        assert dominance_time(g.value) == dominance_time(g.derivative) == math.inf

    def test_another_pole_at_the_slowest_real_part_has_no_certificate(self):
        # 0.3 t e^((-1-i)t) beside e^-t: no gap, so its ratio 0.3 t grows for good.
        f = ExpPolyFunction([(-1.0 - 1.0j, [0.0, 0.3]), (-1.0, [1.0])])
        assert f.terms[-1][0] == -1.0 and dominance_time(f) == math.inf

    def test_a_rising_faster_term_waits_for_its_turning_point(self):
        # -0.2 t^5 e^-2t against e^-t: the ratio is below 1/2 up to t = 0.9,
        # peaks at 4.2 at its turning point t = 5, and f < 0 on about (1.4, 11).
        f = ExpPolyFunction([(-1.0, [1.0]), (-2.0, [0.0] * 5 + [-0.2])])
        T = dominance_time(f)
        assert T > 5.0 and f(5.0) < 0.0
        v = f(T + np.geomspace(1e-6, 1e4, 10_000))
        assert np.all(v[np.abs(v) > np.finfo(float).tiny] > 0.0)

    def test_head_ends_at_the_first_point_past_the_cut(self, monkeypatch, cold):
        # Each search samples the pole grid of e^{-qt} f (renewal._shifted) up to
        # its first point at or past T_dom(f), which the shift keeps.
        sampled = _sampled(monkeypatch)
        f = ExpPolyFunction([(-1.0, [1.0]), (-2.0, [-3.0])])
        df = f.differentiate()

        def cut(g, n):  # the cut of g and the sample count n of its search
            grid = renewal.pole_grid([renewal._shifted(g)], (0.0, 10.0), 100)
            return grid[n - 2] < dominance_time(g) <= grid[n - 1]

        find_zeros(f, (0.0, 10.0))
        find_zeros(f, (dominance_time(f) + 1e-3, 10.0))
        assert cut(f, sampled[0]) and sampled[1] == 2
        cold()
        find_extrema(f, (0.0, 10.0))  # find_zeros(f'), then find_zeros(f)
        assert dominance_time(df) > dominance_time(f)
        assert cut(df, sampled[2]) and sampled[3] == sampled[0]

    def test_zero_touching_scale_reads_the_window_end(self, monkeypatch, cold):
        # (1 - e^(0.5 - t))^2 - 8.5e-13 dips to -8.5e-13 at t = 0.5, a
        # zero-touching minimum against |f| -> 1 at the window end, a maximum
        # of |f| against |f| < 0.8 up to the cut.
        sampled = _sampled(monkeypatch)
        f = ExpPolyFunction([(0.0, [1.0 - 8.5e-13]), (-1.0, [-2.0 * math.exp(0.5)]),
                             (-2.0, [math.exp(1.0)])])
        (point,) = find_extrema(f, (0.0, 40.0))
        assert point.t == pytest.approx(0.5, abs=1e-12) and point.kind == "min"
        head = renewal.pole_grid([f], (0.0, 40.0), 100)[: sampled[0]]
        assert np.abs(f(head)).max() < 0.8

    def test_ep_searches_a_short_head(self, monkeypatch, cold):
        # lam_x's pole grid on the auto window (0, 241.1) has 4,823 points.
        sampled = _sampled(monkeypatch)
        dyn, fs = _lambdas_and_slopes("ep/conv:1,0.14")
        window = _window(dyn)
        find_extrema(fs[0], window)
        assert len(renewal.pole_grid([fs[0]], window, 100)) == 4823
        assert max(sampled) < 50

    @pytest.mark.parametrize("shape", sorted(SIGN_SHAPES))
    def test_cut_searches_keep_every_bit(self, shape, monkeypatch):
        dyn, fs = _lambdas_and_slopes(shape)
        windows = [_window(dyn), (0.0, 10.0), (0.0, 300.0), (0.0, 2000.0)]
        # The searches a cut may shorten: f's dominance time inside the window,
        # or f below tiny at its end.
        cut = [(f, win) for f in fs for win in windows
               if dominance_time(f) < win[1] or f.envelope(win[1]) <= np.finfo(float).tiny]

        def searches():
            renewal._zeros.cache_clear()
            renewal._extrema.cache_clear()
            return [(find_zeros(f, win).tobytes(), repr(find_extrema(f, win)))
                    for f, win in cut]

        got = searches()
        # the uncut searches: every dominance time inf, every grid point sampled
        monkeypatch.setattr(renewal, "dominance_time", lambda f: math.inf)
        assert searches() == got

    def test_searches_go_on_where_the_envelope_dies(self):
        # lam_x of the phase flip on conv:1,0.3 has no dominance time, and on
        # (0, 2000) its envelope is below tiny from t = 1,090.8 on, where a raw
        # sample holds no sign.  Without its slowest decay it keeps its zeros:
        # 268, 122 of them past that time, each a sign change at 50 digits.
        f = dynamics(*DIAGNOSTIC_SHAPES["phaseflip/conv:1,0.3"]).generators[0].value
        grid = renewal.pole_grid([f], (0.0, 2000.0), 100)
        dies = grid[np.flatnonzero(f.envelope(grid) > np.finfo(float).tiny)[-1] + 1]
        assert dominance_time(f) == math.inf and dies == pytest.approx(1090.8, abs=0.1)
        zeros = find_zeros(f, (0.0, 2000.0))
        assert zeros.size == 268 and np.count_nonzero(zeros > dies) == 122
        _assert_fifty_digit_sign_changes([f], zeros.tolist())


# hou_measure(phase flip, conv:1,0.3) at tiny lags, as the sum of its
# contributions: mpmath quad at 50 digits of arctan of the Choi negativity
# built from the double coefficients of lam_-1, over the same violation
# intervals (of length 9.280688 at every lag) split at the same eigenvalue
# zeros (40 digits agree to all printed places).  Within about s of each zero
# the integrand has features of width s, which the quadrature must resolve:
# the tolerance is absolute below |I| = 1, and at s = 1e-10 a rule blind to
# them returned a third of the sum.
SMALL_LAG_REFERENCES = {
    1e-8: 7.092299024092122e-07,
    1e-10: 8.70410863149133e-09,
    1e-12: 1.025919319162114e-10,
}


class TestBoundedQuadrature:
    @pytest.mark.parametrize("lag", sorted(SMALL_LAG_REFERENCES))
    def test_small_lags_finish_within_their_error(self, lag, cold):
        w = HypoExpWTD([1.0, 0.3])

        def measure():
            try:
                return hou_measure(PHASEFLIP, w, s_offset=lag)
            except AccuracyError:
                return None

        start = time.perf_counter()
        res = measure()
        assert time.perf_counter() - start < 1.0
        cold()
        tracemalloc.start()
        try:
            measure()
            assert tracemalloc.get_traced_memory()[1] < 100e6
        finally:
            tracemalloc.stop()
        if res is not None:
            quad_err = float(res.note.split("quad_err=")[1])
            total = sum(v for _, v in res.contributions)
            assert abs(total - SMALL_LAG_REFERENCES[lag]) <= quad_err

    @staticmethod
    def _rounds(monkeypatch, ch, w, lag=None):
        """Quadrature rounds of hou_measure: its calls of _negativity."""
        hou_measure(ch, w, s_offset=lag)  # the searches, cached
        rounds = []

        def counted(*args):
            rounds.append(1)
            return _negativity(*args)

        monkeypatch.setattr(nonmarkov, "_negativity", counted)
        hou_measure(ch, w, s_offset=lag)
        return len(rounds)

    def test_kinked_pair_takes_few_rounds(self, monkeypatch):
        # Where one weight of the pauli pair changes sign while another is
        # about -1, the total negativity has a kink; unsplit, the quadrature
        # bisected toward the kinks for 39 rounds.
        ch, w = DIAGNOSTIC_SHAPES["pauli:0.3,0.3,0.1,0.3/erlang:2:1"]
        assert self._rounds(monkeypatch, ch, w) <= 15

    def test_panels_at_the_zeros_split_before_the_first_round(self, monkeypatch):
        # Halving the panels at the eigenvalue zeros once per round took 12
        # rounds at the default lag.
        ch, w = DIAGNOSTIC_SHAPES["phaseflip/conv:1,0.3"]
        assert self._rounds(monkeypatch, ch, w) <= 3

    @pytest.mark.parametrize("lag", sorted(SMALL_LAG_REFERENCES))
    def test_small_lags_take_few_rounds(self, lag, monkeypatch):
        # 37 to 39 rounds when the splits toward the zeros took a round each
        assert self._rounds(monkeypatch, PHASEFLIP, HypoExpWTD([1.0, 0.3]), lag) <= 12

    @pytest.mark.parametrize("pieces, scale, first", [
        ([np.array([0.0, 1.0, 2.0]), np.array([3.0, 4.0])], 1e-12, 3 + 2 * 39),
        ([np.array([1e6 - 1.0, 1e6, 1e6 + 1.0])], 1e-12, 2 + 2 * 27),
        ([np.linspace(0.0, 2.0, 1001)], 1e-6, 1000),
    ], ids=["fit", "ulps-at-1e6", "past-half-the-cap"])
    def test_forced_splits_come_first_if_all_fit(self, pieces, scale, first):
        # A panel beside a singular time halves toward it until it is no wider
        # than 2 scale: from 1 down to 2e-12, 39 times, before the first round;
        # at 1e6 it stops at 64 ulps, after 27.  With a singular time at each of
        # 999 breakpoints those splits would pass half the cap, and the rounds
        # make them instead.
        panels = []

        def f(t):
            panels.append(len(t))
            return np.cos(t)

        singular = [x for p in pieces for x in p[1:-1]]
        got, _ = _gauss_kronrod(f, pieces, scale, singular)
        exact = [math.sin(p[-1]) - math.sin(p[0]) for p in pieces]
        assert got == pytest.approx(exact, rel=1e-9)
        assert panels[0] == first

    def test_unresolvable_integrand_raises_within_the_cap(self):
        # A period of 6e-12 on [0, 1]: the panel cap leaves most of the piece
        # on panels far wider than a period, so the error estimate stays O(1).
        start = time.perf_counter()
        with pytest.raises(AccuracyError, match="exceeds the tolerance"):
            _gauss_kronrod(lambda t: np.sin(1e12 * t) ** 2, [np.array([0.0, 1.0])])
        assert time.perf_counter() - start < 5.0

    def test_unbounded_integrand_raises(self):
        # An inf value, as the ratio form gives where an eigenvalue has
        # underflowed to 0, has a NaN error estimate, which is no pass.
        with np.errstate(invalid="ignore"), pytest.raises(AccuracyError):
            _gauss_kronrod(lambda t: np.where(t > 0.6, np.inf, 1.0), [np.array([0.0, 1.0])])

    def test_panels_at_a_singular_time_resolve_its_scale(self):
        # arctan(a/|t - 1|), a = s/2, has a spike of width s at the breakpoint
        # 1; its integral over [0, 2] is 2(atan(a) + (a/2) ln(1 + 1/a^2)).
        # Below the absolute tolerance, a rule that never looks closer than
        # its outermost node misses most of it and reports a small error.
        s = 1e-10
        a = s / 2.0

        def f(t):
            with np.errstate(divide="ignore"):
                return np.arctan(a / np.abs(t - 1.0))

        exact = 2.0 * (math.atan(a) + 0.5 * a * math.log1p(1.0 / a**2))
        piece = [np.array([0.0, 1.0, 2.0])]
        (blind,), (blind_err,) = _gauss_kronrod(f, piece)
        (got,), (err,) = _gauss_kronrod(f, piece, scale=s, singular=[1.0])
        assert abs(blind - exact) > max(blind_err, 0.5 * exact)
        assert abs(got - exact) <= err
