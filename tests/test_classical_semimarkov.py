import math

import numpy as np
import pytest

from smqdyn.classical_semimarkov import (
    ProbabilityVector,
    SemiMarkovSpec,
    SingularPropagatorError,
    UnstableSolverError,
    kolmogorov_distance,
    propagator,
    volterra_solve,
    witness_contractivity,
    witness_divisibility,
)
from smqdyn.renewal import even_odd_difference
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
        ],
    )
    def test_matches_two_sum_reference_bit_for_bit(self, spec):
        sol = volterra_solve(spec, 2.0, 1e-3)
        assert sol.times.size == 2001
        reference = _reference_volterra_matrices(spec, 2.0, 1e-3)
        assert np.array_equal(sol.matrices, reference)

    def test_divergence_guard_raises(self):
        spec = SemiMarkovSpec(0.0, 1.0, HypoExpWTD.erlang(10, 20.0))
        with pytest.raises(UnstableSolverError):
            volterra_solve(spec, 10.0, 0.5)

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


class TestDistanceFollowsMixingFunction:
    def test_distance_tracks_parity_magnitude(self):
        q = even_odd_difference(FLIP_ERLANG2.wtd)
        times = np.linspace(0, 10, 300)
        report = witness_contractivity(FLIP_ERLANG2, [(vec(1.0), vec(0.0))], times)
        assert np.allclose(report.distances[0], np.abs(q(times)), atol=1e-12)
