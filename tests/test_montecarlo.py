import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
)
from smqdyn.renewal import even_odd_difference, generating_function, jump_probability
from smqdyn.waiting_time import HypoExpWTD

U64 = st.integers(0, 2**64 - 1)
ERLANG2 = HypoExpWTD.erlang(2, 1.0)
EXP1 = HypoExpWTD.exponential(1.0)
TIMES = [0.5, 2.0, 5.0, 9.0]
CFG = SimConfig(n_traj=10000, seed=2024, horizon=10.0)

ESTIMATORS = [
    lambda t: estimate_generating_function(ERLANG2, 0.5, t, CFG),
    lambda t: estimate_jump_probability(ERLANG2, 1, t, CFG),
    lambda t: simulate_two_state(
        SemiMarkovSpec(0.5, 0.5, ERLANG2), ProbabilityVector((1.0, 0.0)), t, CFG
    ),
]


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


class _Stream:
    """Stream whose uniforms `f(start, count)` are drawn in order, as from a
    Generator; `pos` counts the uniforms drawn so far."""

    def __init__(self, f):
        self.f, self.pos = f, 0

    def random(self, shape=None):
        count = int(np.prod(() if shape is None else shape))
        u = self.f(self.pos, count)
        self.pos += count
        return u[0] if shape is None else u.reshape(shape)


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

    @pytest.mark.parametrize("t, scale", [(0.0, 1.0), (1.0, 1.0), (3.0, 1e-2)])
    def test_generator_left_past_the_blocks_used(self, t, scale):
        """Uniforms scaled by 1e-2 make the trajectory use several blocks."""

        def stream():
            if scale == 1.0:
                return trajectory_rng(3, 0)
            return _Stream(lambda i, n: scale * mc._philox_random(3, [0], i, n)[0])

        rng, ref = stream(), stream()
        jumps = _ref_jump_times(ERLANG2, t, ref)
        assert sample_jump_count(ERLANG2, t, rng) == len(jumps)
        if scale != 1.0:
            assert ref.pos > 2 * 18 * 2  # more than two blocks of 18 two-stage waits
        assert rng.random() == ref.random()

    @pytest.mark.parametrize(
        "t, message",
        [(-1.0, "nonnegative"), (math.nan, "nonnegative"), (math.inf, "finite")],
    )
    def test_bad_time_rejected(self, t, message):
        with pytest.raises(ValueError, match=f"time must be {message}"):
            sample_jump_count(ERLANG2, t, trajectory_rng(1, 0))

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

    @pytest.mark.parametrize("estimate", ESTIMATORS)
    def test_negative_times_rejected(self, estimate):
        with pytest.raises(ValueError, match="time must be nonnegative"):
            estimate([1.0, -1.0])

    @pytest.mark.parametrize("estimate", ESTIMATORS)
    @pytest.mark.parametrize("times", [[[0.5, 1.0]], 1.0])
    def test_times_must_be_one_dimensional(self, estimate, times):
        with pytest.raises(ValueError, match="observation times must be a 1-D sequence"):
            estimate(times)

    def test_negative_jump_count_rejected(self):
        with pytest.raises(ValueError, match="jump count must be >= 0"):
            estimate_jump_probability(ERLANG2, -1, TIMES, CFG)

    @pytest.mark.parametrize("n", [1.5, 2.0, "2"])
    def test_non_integral_jump_count_rejected(self, n):
        with pytest.raises(ValueError, match="jump count must be an integer"):
            estimate_jump_probability(ERLANG2, n, TIMES, CFG)


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

    @pytest.mark.parametrize("count", [0, 1, 5])
    def test_philox_empty_index(self, count):
        got = mc._philox_random(3, np.array([], dtype=np.uint64), 2, count)
        assert got.shape == (0, count) and got.dtype == float

    @pytest.mark.parametrize("start, count", [(0, 12), (1, 12), (3, 1), (35, 5)])
    def test_philox_computes_only_the_blocks_it_returns(
        self, monkeypatch, start, count
    ):
        shapes, mulhi = [], mc._mulhi

        def spy(m, x):
            shapes.append(x.shape)
            return mulhi(m, x)

        monkeypatch.setattr(mc, "_mulhi", spy)
        index = np.array([0, 5, 2**40], dtype=np.uint64)
        got = mc._philox_random(31, index, start, count)
        assert len(shapes) == 18  # two per round, one each in closed-form rounds 1, 2
        assert set(shapes) == {(3, math.ceil((start % 4 + count) / 4))}
        for row, i in zip(got, index):
            rng = trajectory_rng(31, int(i))
            assert np.array_equal(row, rng.random(start + count)[start:])

    @settings(max_examples=120, derandomize=True, database=None, deadline=None)
    @given(
        seed=U64,
        rows=st.lists(st.tuples(U64, st.integers(0, 60)), max_size=5),
        shared=st.none() | st.integers(0, 60),
        count=st.integers(0, 40),
    )
    @example(seed=3, rows=[], shared=None, count=7)  # no rows, an array start
    def test_philox_rows_are_the_generator_streams(self, seed, rows, shared, count):
        """One start for every row slices the block words, a start per row
        gathers them; either way row r is the stream (seed, index[r])."""
        index = np.array([i for i, _ in rows], dtype=np.uint64)
        starts = [s0 for _, s0 in rows] if shared is None else [shared] * len(rows)
        start = np.array(starts, dtype=np.intp) if shared is None else shared
        got = mc._philox_random(seed, index, start, count)
        assert got.shape == (len(rows), count) and got.dtype == float
        for row, i, s0 in zip(got, index, starts):
            rng = trajectory_rng(seed, int(i))
            assert np.array_equal(row, rng.random(s0 + count)[s0:])

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

        def draws(rows, start, width):
            return 1e-3 * mc._philox_random(5, index[rows], offset + start, width)

        counts, used = mc._jump_counts(w, times, horizon, draws)
        for i in index:
            rng = Scaled(trajectory_rng(5, int(i)))
            rng.rng.random(offset)
            jumps = _ref_jump_times(w, horizon, rng)
            assert np.array_equal(counts[i], np.searchsorted(jumps, times, side="right"))
            next_draw = mc._philox_random(5, index[i : i + 1], offset + used[i], 1)
            assert rng.rng.random() == next_draw[0, 0]
        assert used.min() > 2 * 18 * 2  # more than two blocks of 18 two-stage waits

    @pytest.mark.parametrize("seed", [8, 9, 10, 11])
    @pytest.mark.parametrize("n_stages", [2, 3, 7, 8, 10])
    def test_counts_at_the_reference_jump_times(self, n_stages, seed):
        """Jump times continue bit for bit from a head to the rest of its block
        and to the next block, with the stages of each wait summed in numpy's
        order: at every jump time of the loop, and one ulp below it, the
        counts are the loop's."""
        w = HypoExpWTD(np.linspace(0.5, 2.0, n_stages))
        horizon = 30.0 * w.mean

        def f(start, count):
            return 0.2 * mc._philox_random(seed, [0], start, count)[0]

        jumps = _ref_jump_times(w, horizon, _Stream(f))
        times = np.concatenate([jumps, np.nextafter(jumps, 0.0)])
        counts, used = mc._jump_counts(
            w, times, horizon, lambda rows, start, width: f(start, width)[None]
        )
        assert np.array_equal(counts[0], np.searchsorted(jumps, times, side="right"))
        assert used[0] > 2 * 78 * n_stages  # more than two blocks of 78 waits

    @pytest.mark.parametrize("below", [False, True])
    def test_horizon_inside_the_done_margin(self, below):
        """Four waits, then zero waits until well past the first block.  The
        block's pairwise sum can round below the cumsum of its head, and the
        horizon sits at that cumsum or one ulp below it, so only the rounding
        decides whether the loop draws a second block."""
        topped_up = 0
        for seed in range(20):
            v = -np.expm1(-(0.8 + 0.1 * np.random.default_rng(seed).random(4)))

            def f(start, count, v=v):
                pos = np.arange(start, start + count)
                return np.where(pos < 4, v[np.minimum(pos, 3)], np.where(pos < 64, 0.0, 0.5))

            horizon = np.cumsum(_ref_stage_draws(EXP1, 4, _Stream(f)))[-1]
            if below:
                horizon = np.nextafter(horizon, 0.0)
            ref = _Stream(f)
            jumps = _ref_jump_times(EXP1, horizon, ref)
            times = np.array([0.0, horizon / 2, horizon])
            counts, used = mc._jump_counts(
                EXP1, times, horizon, lambda rows, start, width: f(start, width)[None]
            )
            assert np.array_equal(counts[0], np.searchsorted(jumps, times, side="right"))
            assert used[0] == ref.pos
            topped_up += ref.pos > 24  # a first block holds at most 24 waits here
        assert topped_up

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


class TestEnsembleReuse:
    """Estimators on the same (w, times, cfg, offset) share one ensemble."""

    W, CFG = HypoExpWTD([1.0, 0.5]), SimConfig(n_traj=3000, seed=77, horizon=6.0)
    TIMES = [0.5, 2.0, 6.0]

    @pytest.fixture(autouse=True)
    def empty_slot(self, monkeypatch):
        monkeypatch.setattr(mc, "_last", (None, ()))
        monkeypatch.setattr(mc, "_heads", (None, []))

    def count_calls(self, monkeypatch, name):
        calls, f = [], getattr(mc, name)

        def counted(*args):
            calls.append(args)
            return f(*args)

        monkeypatch.setattr(mc, name, counted)
        return calls

    def test_warm_calls_equal_cold_calls_and_draw_nothing(self, monkeypatch):
        w, times, cfg = self.W, self.TIMES, self.CFG
        calls = [
            lambda: estimate_generating_function(w, -0.6, times, cfg),
            lambda: estimate_jump_probability(w, 2, times, cfg),
            lambda: estimate_generating_function(w, 0.25, times, cfg),
        ]
        cold = []
        for call in calls:
            monkeypatch.setattr(mc, "_last", (None, ()))
            cold.append(call())
        draws = self.count_calls(monkeypatch, "_philox_random")
        assert [call() for call in calls] == cold
        assert not draws

    @pytest.mark.parametrize(
        "change",
        [
            dict(w=HypoExpWTD([1.0, 0.25])),
            dict(seed=78),
            dict(n_traj=3001),
            dict(horizon=6.5),
            dict(times=[0.5, 2.0, 5.0]),
            dict(offset=1),
        ],
        ids=lambda change: next(iter(change)),
    )
    def test_any_change_of_the_key_recomputes(self, monkeypatch, change):
        args = dict(w=self.W, times=self.TIMES, offset=0, **vars(self.CFG))
        changed = {**args, **change}

        def run(w, times, offset, **cfg):
            cfg = SimConfig(**cfg)
            if offset:
                spec, p0 = SemiMarkovSpec(0.4, 0.7, w), ProbabilityVector((1.0, 0.0))
                return simulate_two_state(spec, p0, times, cfg)
            return estimate_jump_probability(w, 1, times, cfg)

        run(**args)
        ensembles = self.count_calls(monkeypatch, "_jump_counts")
        got = run(**changed)
        assert len(ensembles) == math.ceil(changed["n_traj"] / mc._CHUNK)
        monkeypatch.setattr(mc, "_last", (None, ()))
        assert run(**changed) == got

    def test_kept_arrays_are_read_only_and_narrow(self):
        times = np.array(self.TIMES)
        for offset in (0, 1):
            batches = mc._ensemble(self.W, times, self.CFG, offset)
            assert mc._ensemble(self.W, times, self.CFG, offset) is batches
            for start, counts, used, lead in batches:
                assert counts.dtype == np.uint8 and used.dtype.kind == "u"
                # the draws before the offset: an owned copy, not a view
                assert lead.shape == (len(used), offset) and lead.base is None
                for i in (0, len(used) - 1):
                    rng = trajectory_rng(self.CFG.seed, start + i)
                    assert np.array_equal(lead[i], rng.random(offset))
                for a in (counts, used, lead):
                    with pytest.raises(ValueError, match="read-only"):
                        a[0] = 0

    def test_only_the_head_calls_start_at_draw_zero(self, monkeypatch):
        """simulate_two_state takes the initial state from the head call of
        each batch, not from a call of its own."""
        w, cfg = self.W, SimConfig(n_traj=2 * mc._CHUNK + 5, seed=5, horizon=4.0)
        calls = self.count_calls(monkeypatch, "_philox_random")
        spec, p0 = SemiMarkovSpec(0.3, 0.6, w), ProbabilityVector((0.4, 0.6))
        simulate_two_state(spec, p0, [1.0, 4.0], cfg)
        heads = [(i, n) for _, i, start, n in calls if np.any(np.asarray(start) == 0)]
        batches = range(0, cfg.n_traj, mc._CHUNK)
        assert [int(i[0]) for i, _ in heads] == list(batches)
        sizes = [min(mc._CHUNK, cfg.n_traj - b) for b in batches]
        assert [len(i) for i, _ in heads] == sizes
        x = cfg.horizon / w.mean
        head = int(x + 2.0 * np.sqrt(x + 1.0)) + 2  # waits in a head
        assert all(n == 1 + head * w.n_stages for _, n in heads)

    def test_ensemble_over_the_cap_is_not_kept(self, monkeypatch):
        w, times, cfg = self.W, self.TIMES, self.CFG
        kept = estimate_generating_function(w, -0.6, times, cfg)
        monkeypatch.setattr(mc, "_last", (None, ()))
        monkeypatch.setattr(mc, "_KEEP", cfg.n_traj * len(times) - 1)
        ensembles = self.count_calls(monkeypatch, "_jump_counts")
        for _ in range(2):
            assert estimate_generating_function(w, -0.6, times, cfg) == kept
            assert mc._last == (None, ())
        assert len(ensembles) == 2 * math.ceil(cfg.n_traj / mc._CHUNK)

    def head_words(self, w, cfg, offset=0):
        x = cfg.horizon / w.mean
        return offset + (int(x + 2.0 * np.sqrt(x + 1.0)) + 2) * w.n_stages

    @pytest.mark.parametrize(
        "first",
        [HypoExpWTD([1.0, 0.5]), HypoExpWTD([0.5, 0.25, 1.0]), HypoExpWTD([4.0])],
        ids=["same", "longer_head", "shorter_head"],
    )
    def test_two_state_after_another_estimator_equals_a_cold_run(
        self, monkeypatch, first
    ):
        w, times, cfg = self.W, self.TIMES, self.CFG
        spec, p0 = SemiMarkovSpec(0.4, 0.7, w), ProbabilityVector((0.3, 0.7))
        cold = _bits(simulate_two_state(spec, p0, times, cfg))
        monkeypatch.setattr(mc, "_last", (None, ()))
        monkeypatch.setattr(mc, "_heads", (None, []))
        estimate_generating_function(first, -0.6, [1.0, 3.0], cfg)
        assert _bits(simulate_two_state(spec, p0, times, cfg)) == cold

    def test_head_calls_draw_only_the_words_not_kept(self, monkeypatch):
        w, times = self.W, [1.0, 4.0]
        cfg = SimConfig(n_traj=2 * mc._CHUNK + 5, seed=5, horizon=4.0)
        estimate_generating_function(w, -0.6, times, cfg)
        kept = self.head_words(w, cfg)
        assert {h.shape[1] for h in mc._heads[1]} == {kept}
        calls = self.count_calls(monkeypatch, "_philox_random")
        spec, p0 = SemiMarkovSpec(0.3, 0.6, w), ProbabilityVector((0.4, 0.6))
        simulate_two_state(spec, p0, times, cfg)
        assert not any(np.any(np.asarray(start) == 0) for _, _, start, _ in calls)
        top_ups = [(int(i[0]), len(i), n) for _, i, start, n in calls
                  if isinstance(start, int) and start == kept]
        end = self.head_words(w, cfg, offset=1)
        batches = range(0, cfg.n_traj, mc._CHUNK)
        sizes = [min(mc._CHUNK, cfg.n_traj - b) for b in batches]
        assert top_ups == [(b, size, end - kept) for b, size in zip(batches, sizes)]
        assert {h.shape[1] for h in mc._heads[1]} == {end}

    @pytest.mark.parametrize(
        "change, replaced",
        [(dict(seed=78), True), (dict(n_traj=3001), True), (dict(horizon=9.0), False)],
        ids=["seed", "n_traj", "horizon"],
    )
    def test_a_new_seed_or_n_traj_replaces_the_heads(self, change, replaced):
        w, times = self.W, self.TIMES
        estimate_generating_function(w, -0.6, times, self.CFG)
        before = mc._heads
        cfg = SimConfig(**{**vars(self.CFG), **change})
        estimate_generating_function(w, -0.6, times, cfg)
        assert (mc._heads[1] is not before[1]) == replaced
        assert mc._heads[0] == (cfg.seed, cfg.n_traj, mc._CHUNK)
        width = self.head_words(w, cfg)
        for start, head in zip(range(0, cfg.n_traj, mc._CHUNK), mc._heads[1]):
            assert head.shape == (min(mc._CHUNK, cfg.n_traj - start), width)
            for i in (0, len(head) - 1):
                rng = trajectory_rng(cfg.seed, start + i)
                assert np.array_equal(head[i], rng.random(width))

    @pytest.mark.parametrize("slack", [0, -1])
    def test_heads_over_the_budget_are_not_kept(self, monkeypatch, slack):
        w, times, cfg = self.W, self.TIMES, self.CFG
        kept = estimate_generating_function(w, -0.6, times, cfg)
        monkeypatch.setattr(mc, "_last", (None, ()))
        monkeypatch.setattr(mc, "_heads", (None, []))
        words = self.head_words(w, cfg)
        monkeypatch.setattr(mc, "_KEEP", 8 * cfg.n_traj * words + slack)
        assert estimate_generating_function(w, -0.6, times, cfg) == kept
        assert {h.shape[1] for h in mc._heads[1]} == {words if slack == 0 else 0}

    def test_kept_heads_are_read_only(self):
        estimate_jump_probability(self.W, 1, self.TIMES, self.CFG)
        assert mc._heads[1]
        for head in mc._heads[1]:
            with pytest.raises(ValueError, match="read-only"):
                head[0, 0] = 0.0


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

