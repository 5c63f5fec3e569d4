import math

import numpy as np
import pytest

from smqdyn.classical_semimarkov import (
    ProbabilityVector,
    SemiMarkovSpec,
    SingularPropagatorError,
    UnstableSolverError,
    _mixing_function,
    _mixing_slope,
    kolmogorov_distance,
    propagator,
    volterra_solve,
    witness_contractivity,
    witness_divisibility,
)
from smqdyn.poly_laplace import AccuracyError, ExpPolyFunction
from smqdyn.renewal import CP_FLOOR, even_odd_difference, find_extrema
from smqdyn.waiting_time import HypoExpWTD

HALF_EXP = SemiMarkovSpec(0.5, 0.5, HypoExpWTD.exponential(1.0))
FLIP_ERLANG2 = SemiMarkovSpec(0.0, 1.0, HypoExpWTD.erlang(2, 1.0))
FLIP_EXP = SemiMarkovSpec(0.0, 1.0, HypoExpWTD.exponential(1.0))


def vec(p1: float) -> ProbabilityVector:
    return ProbabilityVector((p1, 1.0 - p1))


class TestProbabilityVector:
    def test_must_normalize(self):
        with pytest.raises(ValueError):
            ProbabilityVector((0.5, 0.6))
        with pytest.raises(ValueError):
            ProbabilityVector((-0.1, 1.1))


class TestPropagator:
    def test_degenerate_mixing_at_log_two(self):
        T = propagator(HALF_EXP, math.log(2.0), 0.0)
        assert np.allclose(T.entries, [[0.75, 0.25], [0.25, 0.75]], atol=1e-14)

    def test_identity_at_equal_times(self):
        for spec in (HALF_EXP, FLIP_ERLANG2):
            T = propagator(spec, 1.3, 1.3)
            assert np.allclose(T.entries, np.eye(2), atol=1e-12)

    def test_alternating_chain_forgets_at_parity_zero(self):
        T = propagator(FLIP_ERLANG2, 3 * math.pi / 4, 0.0)
        assert np.allclose(T.entries, 0.25 * np.ones(4).reshape(2, 2) * 2, atol=1e-12)

    def test_singular_start_rejected(self):
        with pytest.raises(SingularPropagatorError):
            propagator(FLIP_ERLANG2, 4.0, 3 * math.pi / 4)

    def test_decayed_survival_is_no_zero(self):
        # The survival e^-40 is 4.2e-18 at s = 40: decayed, not a zero.
        T = propagator(HALF_EXP, 50.0, 40.0)
        a, b = 0.5 * (1.0 + math.exp(-10.0)), 0.5 * (1.0 - math.exp(-10.0))
        assert np.allclose(T.entries, [[a, b], [b, a]], rtol=1e-12, atol=0.0)

    def test_subnormal_survival_is_a_zero(self):
        # e^-740 is subnormal: the ratio h(745)/h(740) would carry a few bits.
        with pytest.raises(SingularPropagatorError):
            propagator(HALF_EXP, 745.0, 740.0)

    def test_general_jump_probabilities_need_the_solver(self):
        with pytest.raises(ValueError, match="volterra"):
            propagator(SemiMarkovSpec(0.3, 0.8, HypoExpWTD.exponential(1.0)), 1.0)

    def test_time_ordering_enforced(self):
        with pytest.raises(ValueError):
            propagator(HALF_EXP, 1.0, 2.0)

    @pytest.mark.parametrize("spec", [HALF_EXP, FLIP_ERLANG2, FLIP_EXP])
    def test_columns_sum_to_one(self, spec):
        for s, t in [(0.0, 0.5), (0.5, 2.0), (1.0, 6.0), (2.0, 2.0)]:
            T = propagator(spec, t, s)
            assert np.allclose(T.column_sums(), 1.0, atol=1e-10)

    @pytest.mark.parametrize("spec", [HALF_EXP, FLIP_ERLANG2])
    def test_composition_identity(self, spec):
        for tau, t in [(0.5, 1.5), (1.0, 2.0), (0.2, 4.0)]:
            left = propagator(spec, t, 0.0).entries
            right = propagator(spec, t, tau).entries @ propagator(spec, tau, 0.0).entries
            assert np.allclose(left, right, atol=1e-9)

    @pytest.mark.parametrize("spec", [HALF_EXP, FLIP_ERLANG2])
    def test_repeated_calls_differentiate_once(self, spec, monkeypatch):
        ref = [propagator(spec, 2.0 + k, 0.5 * k).entries for k in range(4)]
        calls = []
        differentiate = ExpPolyFunction.differentiate

        def counted(f):
            calls.append(f)
            return differentiate(f)

        monkeypatch.setattr(ExpPolyFunction, "differentiate", counted)
        _mixing_slope.cache_clear()
        got = [propagator(spec, 2.0 + k, 0.5 * k).entries for k in range(4)]
        assert calls == [_mixing_function(spec)]
        assert [m.tobytes() for m in got] == [m.tobytes() for m in ref]


def _reference_volterra_matrices(spec: SemiMarkovSpec, t_end: float, dt: float):
    """The solver's time stepping with both history sums computed at every step."""
    kern = spec.wtd.kernel()
    m_op = spec.jump_matrix - np.eye(2)
    n = int(round(t_end / dt))
    times = np.arange(n + 1) * dt
    kappa = np.zeros(n + 1) if kern.regular_part.is_zero() else kern.regular_part(times)
    w0 = kern.delta_weight
    T = np.empty((n + 1, 2, 2))
    T[0] = np.eye(2)
    flat = T.reshape(n + 1, 4)
    P = np.linalg.inv(np.eye(2) - 0.5 * dt * (w0 + 0.5 * dt * kappa[0]) * m_op)
    for i in range(n):
        if i == 0:
            conv_i = np.zeros((2, 2))
        else:
            inner = (kappa[1:i] @ flat[i - 1 : 0 : -1]).reshape(2, 2) if i > 1 else 0.0
            conv_i = dt * (0.5 * kappa[0] * T[i] + inner + 0.5 * kappa[i] * T[0])
        F_i = m_op @ (w0 * T[i] + conv_i)
        if i >= 1:
            r_next = (kappa[1 : i + 1] @ flat[i:0:-1]).reshape(2, 2)
        else:
            r_next = np.zeros((2, 2))
        r_next = r_next + 0.5 * kappa[i + 1] * T[0]
        rhs = T[i] + 0.5 * dt * F_i + 0.5 * dt * dt * (m_op @ r_next)
        T[i + 1] = P @ rhs
    return T


class TestVolterraSolve:
    @pytest.mark.parametrize(
        "spec",
        [
            SemiMarkovSpec(0.5, 0.5, HypoExpWTD([0.3, 0.7])),
            SemiMarkovSpec(0.0, 1.0, HypoExpWTD([0.3, 0.7])),
            SemiMarkovSpec(0.37, 0.81, HypoExpWTD([0.3, 0.7])),
            SemiMarkovSpec(0.2, 0.6, HypoExpWTD.exponential(1.0)),
            SemiMarkovSpec(0.0, 1.0, HypoExpWTD.erlang(5, 1.0)),
            SemiMarkovSpec(0.37, 0.81, HypoExpWTD([1.0, 1.0, 4.0])),
        ],
    )
    def test_matches_direct_sum_reference(self, spec):
        # The history sum is carried by exponential-sum accumulators, not summed
        # directly, so the two agree to rounding, far below the O(dt^2) error.
        sol = volterra_solve(spec, 2.0, 1e-3)
        assert sol.times.size == 2001
        reference = _reference_volterra_matrices(spec, 2.0, 1e-3)
        assert np.max(np.abs(sol.matrices - reference)) <= 1e-12

    def test_reference_specs_cover_complex_and_double_poles(self):
        erlang5 = HypoExpWTD.erlang(5, 1.0).kernel().regular_part
        assert any(abs(p.imag) > 0.1 for p in erlang5.poles)
        ((pole, coeffs),) = HypoExpWTD([1.0, 1.0, 4.0]).kernel().regular_part.terms
        assert pole == pytest.approx(-3.0) and len(coeffs) == 2

    def test_divergence_guard_raises(self):
        spec = SemiMarkovSpec(0.0, 1.0, HypoExpWTD.erlang(10, 20.0))
        with pytest.raises(UnstableSolverError):
            volterra_solve(spec, 10.0, 0.5)

    def test_divergence_guard_names_the_first_large_step(self):
        spec = SemiMarkovSpec(0.0, 1.0, HypoExpWTD.erlang(10, 20.0))
        with pytest.raises(UnstableSolverError, match=r"divergence at t=2\.5$"):
            volterra_solve(spec, 10.0, 0.5)
        # The direct sum leaves the guard's bound at the same step.
        reference = _reference_volterra_matrices(spec, 10.0, 0.5)
        first = np.argmax(np.abs(reference).max(axis=(1, 2)) > 10.0)
        assert first * 0.5 == 2.5

    def test_non_real_kernel_is_an_accuracy_error(self):
        # The partial fractions of a 20-stage kernel at rate 1e3 leave an
        # imaginary part of about 1e-6: a numerical failure, not a bad spec.
        spec = SemiMarkovSpec(0.3, 0.6, HypoExpWTD.erlang(20, 1e3))
        with pytest.raises(AccuracyError, match="not real within tolerance"):
            volterra_solve(spec, 1.0, 1e-3)

    def test_closed_form_oracle_survival_case(self):
        spec = SemiMarkovSpec(0.5, 0.5, HypoExpWTD.erlang(2, 1.0))
        sol = volterra_solve(spec, 3.0, 1e-3)
        for i in (1000, 2000, 3000):
            exact = propagator(spec, sol.times[i], 0.0).entries
            assert np.max(np.abs(sol.matrices[i] - exact)) < 1e-6

    def test_closed_form_oracle_delta_kernel(self):
        sol = volterra_solve(FLIP_EXP, 3.0, 1e-3)
        t = sol.times[-1]
        exact = 0.5 * np.array(
            [
                [1 + math.exp(-2 * t), 1 - math.exp(-2 * t)],
                [1 - math.exp(-2 * t), 1 + math.exp(-2 * t)],
            ]
        )
        assert np.max(np.abs(sol.matrices[-1] - exact)) < 1e-6

    def test_starts_from_identity(self):
        sol = volterra_solve(FLIP_ERLANG2, 0.5, 1e-3)
        assert np.allclose(sol.matrices[0], np.eye(2))

    def test_general_jump_probabilities_conserve_probability(self):
        spec = SemiMarkovSpec(0.3, 0.8, HypoExpWTD.erlang(2, 1.0))
        sol = volterra_solve(spec, 4.0, 1e-3)
        sums = sol.matrices.sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) < 1e-9

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            volterra_solve(FLIP_EXP, 1.0, 0.0)

    @pytest.mark.parametrize(
        "t_end, dt",
        [
            (0.0004, 1e-3),
            (math.inf, 1e-3),
            (math.nan, 1e-3),
            (-1.0, 1e-3),
            (0.0, 1e-3),
            (1.0, math.inf),
            (1.0, math.nan),
            (1.0, -1e-3),
        ],
    )
    def test_degenerate_horizon_rejected(self, t_end, dt):
        with pytest.raises(ValueError, match="horizon"):
            volterra_solve(FLIP_EXP, t_end, dt)

    def test_shortest_horizon_is_one_step(self):
        sol = volterra_solve(FLIP_EXP, 0.0006, 1e-3)
        assert sol.times.size == 2
        assert np.array_equal(sol.at(0.0), np.eye(2))

    @pytest.mark.parametrize("t", [1.5, math.nan, math.inf, -0.5, 0.0005])
    def test_at_rejects_times_off_the_grid(self, t):
        sol = volterra_solve(FLIP_EXP, 1.0, 1e-3)
        with pytest.raises(ValueError, match="is not a grid time"):
            sol.at(t)

    def test_at_returns_grid_matrices(self):
        sol = volterra_solve(FLIP_EXP, 1.0, 1e-3)
        assert np.array_equal(sol.at(1.0), sol.matrices[-1])
        assert np.array_equal(sol.at(0.25), sol.matrices[250])


class TestKolmogorovDistance:
    def test_orthogonal(self):
        assert kolmogorov_distance(vec(1.0), vec(0.0)) == 1.0

    def test_identical(self):
        assert kolmogorov_distance(vec(0.3), vec(0.3)) == 0.0

    def test_generic(self):
        assert kolmogorov_distance(vec(0.8), vec(0.3)) == pytest.approx(0.5)


class TestWitnesses:
    PAIRS = [(vec(0.5 + d / 2), vec(0.5 - d / 2)) for d in (0.25, 0.5, 1.0)]

    def test_uniform_jump_chain_contracts_for_any_waiting_time(self):
        spec = SemiMarkovSpec(0.5, 0.5, HypoExpWTD([1.0, 0.5]))
        report = witness_contractivity(spec, self.PAIRS, np.linspace(0, 25, 1200))
        assert not report.any_growth

    def test_alternating_chain_revives_with_oscillatory_waiting_time(self):
        spec = SemiMarkovSpec(0.0, 1.0, HypoExpWTD([1.0, 0.5]))
        report = witness_contractivity(spec, self.PAIRS, np.linspace(0, 25, 1200))
        assert all(len(g) >= 1 for g in report.growth_intervals)

    def test_alternating_chain_with_memoryless_waiting_time_contracts(self):
        report = witness_contractivity(FLIP_EXP, self.PAIRS, np.linspace(0, 25, 1200))
        assert not report.any_growth

    def test_uniform_chain_is_divisible(self):
        spec = SemiMarkovSpec(0.5, 0.5, HypoExpWTD.erlang(2, 1.0))
        report = witness_divisibility(spec, np.linspace(0, 10, 120))
        assert len(report.violations) == 0
        assert not report.singular_s.any()

    def test_alternating_chain_is_not_divisible(self):
        report = witness_divisibility(FLIP_ERLANG2, np.linspace(0, 10, 120))
        assert len(report.violations) > 0

    def test_memoryless_is_divisible_for_both_chains(self):
        for spec in (HALF_EXP, FLIP_EXP):
            report = witness_divisibility(spec, np.linspace(0, 10, 80))
            assert len(report.violations) == 0

    def test_singular_start_times_are_flagged(self):
        times = np.sort(np.append(np.linspace(0, 10, 50), 3 * math.pi / 4))
        report = witness_divisibility(FLIP_ERLANG2, times)
        assert report.singular_s.any()


def _reference_growth_intervals(spec, pairs, times, tol=1e-12):
    """witness_contractivity's intervals by a scan over the time points."""
    hv = np.abs(_mixing_function(spec)(times))
    out = []
    for p1, p2 in pairs:
        dk = hv * kolmogorov_distance(p1, p2)
        rising = dk[1:] > dk[:-1] + tol
        intervals, start = [], None
        for i, r in enumerate(rising):
            if r and start is None:
                start = times[i]
            if not r and start is not None:
                intervals.append((float(start), float(times[i])))
                start = None
        if start is not None:
            intervals.append((float(start), float(times[-1])))
        out.append(tuple(intervals))
    return tuple(out)


def _reference_divisibility(spec, times, tol=CP_FLOOR):
    """witness_divisibility's report by a double loop over (s, t)."""
    h = _mixing_function(spec)
    T_max = float(times[-1])
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
            lo = 0.5 * (1.0 - abs(hv[j] / hv[i]))
            if lo < -tol:
                stochastic[i, j] = False
                violations.append((float(times[i]), float(times[j]), float(lo)))
    return stochastic, singular, tuple(violations)


WITNESS_SPECS = [
    SemiMarkovSpec(0.5, 0.5, HypoExpWTD([1.0, 0.5])),
    SemiMarkovSpec(0.0, 1.0, HypoExpWTD([1.0, 0.5])),
    FLIP_ERLANG2,
    SemiMarkovSpec(0.0, 1.0, HypoExpWTD.erlang(5, 1.0)),
    FLIP_EXP,
]
WITNESS_GRIDS = [
    np.linspace(0, 25, 400),
    np.sort(np.append(np.linspace(0, 10, 50), 3 * math.pi / 4)),
    np.linspace(0, 3, 2),
]


class TestWitnessesMatchScalarLoops:
    PAIRS = TestWitnesses.PAIRS + [(vec(0.3), vec(0.3)), (vec(0.9), vec(0.2))]

    @pytest.mark.parametrize("spec", WITNESS_SPECS)
    @pytest.mark.parametrize("grid", range(len(WITNESS_GRIDS)))
    def test_growth_intervals(self, spec, grid):
        times = WITNESS_GRIDS[grid]
        report = witness_contractivity(spec, self.PAIRS, times)
        expected = _reference_growth_intervals(spec, self.PAIRS, times)
        assert report.growth_intervals == expected
        bounds = [x for g in report.growth_intervals for iv in g for x in iv]
        assert all(type(x) is float for x in bounds)

    @pytest.mark.parametrize("spec", WITNESS_SPECS)
    @pytest.mark.parametrize("grid", range(len(WITNESS_GRIDS)))
    def test_divisibility(self, spec, grid):
        times = WITNESS_GRIDS[grid]
        report = witness_divisibility(spec, times)
        stochastic, singular, violations = _reference_divisibility(spec, times)
        assert np.array_equal(report.stochastic, stochastic)
        assert np.array_equal(report.singular_s, singular)
        assert report.violations == violations
        assert all(type(x) is float for v in report.violations for x in v)

    def test_cases_exercise_growth_violations_and_singular_rows(self):
        flip = WITNESS_SPECS[1]
        assert witness_contractivity(flip, self.PAIRS, WITNESS_GRIDS[0]).any_growth
        report = witness_divisibility(FLIP_ERLANG2, WITNESS_GRIDS[1])
        assert report.violations and report.singular_s.any()


class TestDistanceFollowsMixingFunction:
    def test_distance_tracks_parity_magnitude(self):
        q = even_odd_difference(FLIP_ERLANG2.wtd)
        times = np.linspace(0, 10, 300)
        report = witness_contractivity(FLIP_ERLANG2, [(vec(1.0), vec(0.0))], times)
        assert np.allclose(report.distances[0], np.abs(q(times)), atol=1e-12)
