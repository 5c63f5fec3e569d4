import io
import math

import numpy as np
import pytest

import smqdyn.montecarlo as mc
from smqdyn.classical_semimarkov import ProbabilityVector, SemiMarkovSpec, propagator
from smqdyn.montecarlo import (
    Estimate,
    SimConfig,
    estimate_generating_function,
    estimate_jump_probability,
    sample_jump_count,
    simulate_two_state,
    trajectory_rng,
    write_estimates_csv,
)
from smqdyn.renewal import even_odd_difference, generating_function, jump_probability
from smqdyn.waiting_time import HypoExpWTD

ERLANG2 = HypoExpWTD.erlang(2, 1.0)
EXP1 = HypoExpWTD.exponential(1.0)
TIMES = [0.5, 2.0, 5.0, 9.0]
CFG = SimConfig(n_traj=10000, seed=2024, horizon=10.0)


# Reference: one generator per trajectory, drawn and accumulated one at a time.


def _ref_stage_draws(w, count, rng):
    u = rng.random((count, w.n_stages))
    return (-np.log1p(-u) / np.asarray(w.rates)).sum(axis=1)


def _ref_jump_times(w, horizon, rng):
    block = max(int(horizon / w.mean + 8.0 * np.sqrt(horizon / w.mean + 1.0)) + 4, 8)
    waits = _ref_stage_draws(w, block, rng)
    total = waits.sum()
    chunks = [waits]
    while total <= horizon:
        more = _ref_stage_draws(w, block, rng)
        chunks.append(more)
        total += more.sum()
    times = np.cumsum(np.concatenate(chunks) if len(chunks) > 1 else chunks[0])
    return times[times <= horizon]


def _ref_accumulate(values_iter, n_traj, n_times):
    acc = np.zeros(n_times)
    acc2 = np.zeros(n_times)
    for vals in values_iter:
        acc += vals
        acc2 += vals * vals
    mean = acc / n_traj
    if n_traj > 1:
        var = np.maximum(acc2 - n_traj * mean * mean, 0.0) / (n_traj - 1)
    else:
        var = np.zeros(n_times)
    return [
        Estimate(float(m), float(np.sqrt(v / n_traj)), n_traj) for m, v in zip(mean, var)
    ]


def _ref_counts(w, times, cfg):
    for i in range(cfg.n_traj):
        jumps = _ref_jump_times(w, cfg.horizon, trajectory_rng(cfg.seed, i))
        yield np.searchsorted(jumps, times, side="right")


def _ref_generating_function(w, mu, times, cfg):
    vals = (np.power(float(mu), c) for c in _ref_counts(w, times, cfg))
    return _ref_accumulate(vals, cfg.n_traj, len(times))


def _ref_jump_probability(w, n, times, cfg):
    vals = ((c == n).astype(float) for c in _ref_counts(w, times, cfg))
    return _ref_accumulate(vals, cfg.n_traj, len(times))


def _ref_two_state(spec, p0, times, cfg):
    to_first = (spec.pi, spec.sigma)

    def gen():
        for i in range(cfg.n_traj):
            rng = trajectory_rng(cfg.seed, i)
            state = 0 if rng.random() < p0.p[0] else 1
            jumps = _ref_jump_times(spec.wtd, cfg.horizon, rng)
            draws = rng.random(len(jumps))
            states = np.empty(len(jumps) + 1, dtype=np.int8)
            states[0] = state
            for k, u in enumerate(draws):
                state = 0 if u < to_first[state] else 1
                states[k + 1] = state
            counts = np.searchsorted(jumps, times, side="right")
            yield (states[counts] == 0).astype(float)

    return _ref_accumulate(gen(), cfg.n_traj, len(times))


def _bits(estimates):
    return [(e.mean, e.std_error, e.n) for e in estimates]


class TestSampling:
    def test_zero_time_has_zero_jumps(self):
        assert sample_jump_count(ERLANG2, 0.0, trajectory_rng(1, 0)) == 0

    def test_memoryless_mean_matches_poisson(self):
        counts = [
            sample_jump_count(EXP1, 1.0, trajectory_rng(5, i)) for i in range(5000)
        ]
        se = np.std(counts, ddof=1) / math.sqrt(len(counts))
        assert abs(np.mean(counts) - 1.0) < 3 * se

    def test_parity_estimate_matches_analytic(self):
        q = even_odd_difference(ERLANG2)
        est = estimate_generating_function(ERLANG2, -1.0, [10.0], CFG)[0]
        assert est.covers(q(10.0))


class TestEstimators:
    def test_deterministic_given_seed(self):
        a = estimate_generating_function(ERLANG2, -1.0, TIMES, CFG)
        b = estimate_generating_function(ERLANG2, -1.0, TIMES, CFG)
        assert all(
            x.mean == y.mean and x.std_error == y.std_error for x, y in zip(a, b)
        )

    def test_mu_one_has_zero_variance(self):
        est = estimate_generating_function(ERLANG2, 1.0, [3.0], CFG)[0]
        assert est.mean == 1.0 and est.std_error == 0.0

    def test_mu_zero_estimates_survival(self):
        g = ERLANG2.survival()
        for t, est in zip(TIMES, estimate_generating_function(ERLANG2, 0.0, TIMES, CFG)):
            assert est.covers(g(t))

    def test_generic_mu_covers_analytic(self):
        gf = generating_function(HypoExpWTD([1.0, 0.5]), 0.5)
        ests = estimate_generating_function(HypoExpWTD([1.0, 0.5]), 0.5, TIMES, CFG)
        for t, est in zip(TIMES, ests):
            assert est.covers(gf.value(t))

    def test_jump_count_pmf_covers_analytic(self):
        for n in (0, 1, 3):
            p = jump_probability(ERLANG2, n)
            ests = estimate_jump_probability(ERLANG2, n, TIMES, CFG)
            for t, est in zip(TIMES, ests):
                assert est.covers(p(t))

    def test_times_beyond_horizon_rejected(self):
        with pytest.raises(ValueError):
            estimate_generating_function(ERLANG2, 0.5, [11.0], CFG)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(0, 1, 1.0)
        with pytest.raises(ValueError):
            SimConfig(10, 1, 0.0)

    @pytest.mark.parametrize(
        "n_traj, seed, horizon",
        [
            (2.5, 1, 1.0),
            (10.0, 1, 1.0),
            (10, 1, math.nan),
            (10, 1, math.inf),
            (10, 1.5, 1.0),
            (10, -1, 1.0),
            (10, 2**64, 1.0),
        ],
    )
    def test_config_rejects_bad_values(self, n_traj, seed, horizon):
        with pytest.raises(ValueError):
            SimConfig(n_traj, seed, horizon)

    def test_config_accepts_numpy_integers(self):
        cfg = SimConfig(np.int64(40), np.uint64(2**64 - 1), np.float64(2.0))
        assert len(estimate_generating_function(ERLANG2, 0.5, [1.0], cfg)) == 1
        SimConfig(np.int64(1), np.int64(0), 1.0)

    @pytest.mark.parametrize(
        "estimate",
        [
            lambda t: estimate_generating_function(ERLANG2, 0.5, t, CFG),
            lambda t: estimate_jump_probability(ERLANG2, 1, t, CFG),
            lambda t: simulate_two_state(
                SemiMarkovSpec(0.5, 0.5, ERLANG2), ProbabilityVector((1.0, 0.0)), t, CFG
            ),
        ],
    )
    def test_negative_times_rejected(self, estimate):
        with pytest.raises(ValueError, match="time must be nonnegative"):
            estimate([1.0, -1.0])

    def test_negative_jump_count_rejected(self):
        with pytest.raises(ValueError, match="jump count must be >= 0"):
            estimate_jump_probability(ERLANG2, -1, TIMES, CFG)


class TestTwoState:
    def test_degenerate_initial_state_is_exact_at_time_zero(self):
        spec = SemiMarkovSpec(0.5, 0.5, EXP1)
        est = simulate_two_state(spec, ProbabilityVector((1.0, 0.0)), [0.0], CFG)[0]
        assert est.mean == 1.0 and est.std_error == 0.0

    def test_uniform_chain_matches_closed_form(self):
        spec = SemiMarkovSpec(0.5, 0.5, EXP1)
        p0 = ProbabilityVector((1.0, 0.0))
        ests = simulate_two_state(spec, p0, TIMES, CFG)
        for t, est in zip(TIMES, ests):
            exact = propagator(spec, t, 0.0).apply(p0).p[0]
            assert est.covers(exact)

    def test_alternating_chain_matches_closed_form(self):
        spec = SemiMarkovSpec(0.0, 1.0, HypoExpWTD([1.0, 0.5]))
        p0 = ProbabilityVector((0.8, 0.2))
        ests = simulate_two_state(spec, p0, TIMES, CFG)
        for t, est in zip(TIMES, ests):
            exact = propagator(spec, t, 0.0).apply(p0).p[0]
            assert est.covers(exact)


class TestBatchedStreams:
    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    def test_philox_matches_numpy_generator(self, seed):
        index = np.array([0, 1, 3, 2**40, 2**64 - 1], dtype=np.uint64)
        for start in (0, 1, 3, 4, 5, 7):
            for count in (1, 3, 5, 6, 23):
                got = mc._philox_random(seed, index, start, count)
                for row, i in zip(got, index):
                    rng = trajectory_rng(seed, int(i))
                    rng.random(start)
                    assert np.array_equal(row, rng.random(count))

    def test_philox_per_row_start(self):
        index = np.arange(4, dtype=np.uint64)
        start = np.array([0, 2, 5, 11])
        got = mc._philox_random(99, index, start, 9)
        for row, i, s0 in zip(got, index, start):
            assert np.array_equal(row, trajectory_rng(99, int(i)).random(s0 + 9)[s0:])

    @pytest.mark.parametrize("offset", [0, 1])
    def test_top_up_blocks_and_draw_offset(self, offset):
        """Uniforms scaled by 1e-3 make every trajectory draw several blocks."""
        w, horizon, times = ERLANG2, 3.0, np.array([0.0, 1.0, 3.0])
        index = np.arange(20, dtype=np.uint64)

        class Scaled:
            def __init__(self, rng):
                self.rng = rng

            def random(self, shape=None):
                return 1e-3 * self.rng.random(shape)

        def draws(rows, j, width):
            start = offset + j * width
            return 1e-3 * mc._philox_random(5, index[rows], start, width)

        counts, used = mc._jump_counts(w, times, horizon, draws)
        for i in index:
            rng = Scaled(trajectory_rng(5, int(i)))
            rng.rng.random(offset)
            jumps = _ref_jump_times(w, horizon, rng)
            assert np.array_equal(counts[i], np.searchsorted(jumps, times, side="right"))
            next_draw = mc._philox_random(5, index[i : i + 1], offset + used[i], 1)
            assert rng.rng.random() == next_draw[0, 0]
        assert used.min() > 2 * 18 * 2  # more than two blocks of 18 two-stage waits

    @pytest.mark.parametrize(
        "w, times",
        [
            (ERLANG2, [0.0, 0.5, 2.0, 5.0, 9.0]),
            (HypoExpWTD([1.0, 0.5]), [9.0]),  # a single time: a one-column sum
            (HypoExpWTD([2.0, 1.0, 0.5, 3.0, 1.0, 1.0, 2.0, 1.0, 1.0, 5.0]), [1, 10.0]),
        ],
    )
    def test_estimators_equal_reference_loop(self, w, times):
        cfg = SimConfig(n_traj=2500, seed=2**64 - 1, horizon=10.0)
        for mu in (-1.0, -0.35, 0.0):
            assert _bits(estimate_generating_function(w, mu, times, cfg)) == _bits(
                _ref_generating_function(w, mu, times, cfg)
            )
        assert _bits(estimate_jump_probability(w, 2, times, cfg)) == _bits(
            _ref_jump_probability(w, 2, times, cfg)
        )
        for spec, p0 in (
            (SemiMarkovSpec(0.0, 1.0, w), (1.0, 0.0)),
            (SemiMarkovSpec(0.37, 0.81, w), (0.3, 0.7)),
        ):
            p0 = ProbabilityVector(p0)
            assert _bits(simulate_two_state(spec, p0, times, cfg)) == _bits(
                _ref_two_state(spec, p0, times, cfg)
            )

    @pytest.mark.parametrize("chunk", [1, 7, 1000])
    def test_results_do_not_depend_on_batching(self, monkeypatch, chunk):
        cfg = SimConfig(n_traj=60, seed=11, horizon=10.0)
        spec, p0 = SemiMarkovSpec(0.3, 0.6, ERLANG2), ProbabilityVector((0.4, 0.6))
        runs = []
        for size in (mc._CHUNK, chunk):
            monkeypatch.setattr(mc, "_CHUNK", size)
            runs.append(
                [
                    _bits(estimate_generating_function(ERLANG2, -0.35, TIMES, cfg)),
                    _bits(estimate_jump_probability(ERLANG2, 3, TIMES, cfg)),
                    _bits(simulate_two_state(spec, p0, TIMES, cfg)),
                ]
            )
        assert runs[0] == runs[1]


class TestCoverage:
    def test_three_sigma_interval_coverage(self):
        """Fresh (deterministic) seeds: the analytic value must fall inside
        the 3-sigma band in at least 99 of 100 repetitions."""
        q = even_odd_difference(ERLANG2)
        target = q(2.0)
        hits = 0
        for k in range(100):
            cfg = SimConfig(n_traj=2000, seed=10_000 + k, horizon=2.0)
            est = estimate_generating_function(ERLANG2, -1.0, [2.0], cfg)[0]
            hits += est.covers(target)
        assert hits >= 99


class TestCsvInterface:
    def test_schema_and_content(self):
        ests = [Estimate(0.5, 0.01, 100), Estimate(0.25, 0.02, 100)]
        cfg = SimConfig(n_traj=100, seed=7, horizon=4.0)
        buf = io.StringIO()
        write_estimates_csv(buf, "survival", [1.0, 2.0], ests, cfg)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "t,quantity,mean,std_error,n_traj,seed"
        assert lines[1] == "1,survival,0.5,0.01,100,7"
        assert lines[2] == "2,survival,0.25,0.02,100,7"
