import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.stats import poisson

from smqdyn.poly_laplace import (
    AccuracyError,
    Polynomial,
    RationalLaplace,
    invert_laplace,
)
from smqdyn.renewal import (
    SeriesTruncationError,
    _poisson_weights,
    _uniformized_rows,
    even_odd_difference,
    find_extrema,
    generating_function,
    jump_probability,
    refine_brackets,
    runs,
    series_backend,
    sign_brackets,
)
from smqdyn.waiting_time import HypoExpWTD

from oracles import (
    erlang_parity_series,
    erlang_phase_type_generating_function,
    phase_type_jump_probability,
    poisson_pmf,
    two_stage_parity,
)

ERLANG2 = HypoExpWTD.erlang(2, 1.0)
EXP1 = HypoExpWTD.exponential(1.0)


class TestJumpProbability:
    def test_memoryless_counts_are_poisson(self):
        lam = 1.4
        w = HypoExpWTD.exponential(lam)
        for n in (0, 1, 2, 5):
            p = jump_probability(w, n)
            for t in (0.3, 1.0, 4.0):
                assert p(t) == pytest.approx(poisson_pmf(n, lam * t), rel=1e-10)

    def test_zero_jumps_is_survival(self):
        p0 = jump_probability(ERLANG2, 0)
        g = ERLANG2.survival()
        ts = np.linspace(0, 10, 50)
        assert np.allclose(p0(ts), g(ts), atol=1e-13)
        assert p0(0.0) == pytest.approx(1.0)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            jump_probability(EXP1, -1)

    @pytest.mark.parametrize("n", [1.5, 2.0, "2"])
    def test_non_integral_count_rejected(self, n):
        with pytest.raises(ValueError, match="jump count must be an integer"):
            jump_probability(EXP1, n)

    def test_counts_are_nonnegative_and_sum_to_one(self):
        # Separated rates: the closed-form coefficients cancel to a noise
        # floor ~ binom(2n,n) 2^n eps, so n <= 10 resolves 1e-7 here and the
        # Poisson tail beyond n = 10 is below that on this window.
        ps = [jump_probability(HypoExpWTD([1.0, 2.0]), n) for n in range(11)]
        for t in np.linspace(0.0, 2.5, 6):
            probs = [p(float(t)) for p in ps]
            assert min(probs) > -1e-7
            assert sum(probs) == pytest.approx(1.0, abs=1e-7)

    def test_erlang_counts_stay_exact_to_high_order(self):
        ps = [jump_probability(HypoExpWTD.erlang(2, 1.0), n) for n in range(41)]
        for t in (2.0, 8.0, 15.0):
            probs = [p(float(t)) for p in ps]
            assert min(probs) > -1e-12
            assert sum(probs) == pytest.approx(1.0, abs=1e-10)

    def test_phase_type_reference_matches_low_orders(self):
        w = HypoExpWTD([1.0, 0.6])
        for n in range(4):
            p = jump_probability(w, n)
            for t in (0.5, 2.0, 6.0):
                ref = phase_type_jump_probability(w.rates, n, t)
                assert p(t) == pytest.approx(ref, rel=1e-9, abs=1e-12)

    @pytest.mark.xfail(
        strict=True,
        reason="the closed form cancels to -4.66e-10 where p_6(0.5) = 1.64e-14",
    )
    def test_small_probability_of_a_high_count_is_resolved(self):
        w = HypoExpWTD([1.0, 0.6])
        ref = phase_type_jump_probability(w.rates, 6, 0.5)
        assert jump_probability(w, 6)(0.5) == pytest.approx(ref, rel=1e-6)


class TestEvenOddDifference:
    def test_memoryless(self):
        lam = 0.8
        q = even_odd_difference(HypoExpWTD.exponential(lam))
        ts = np.linspace(0, 10, 40)
        assert np.allclose(q(ts), np.exp(-2 * lam * ts), atol=1e-12)

    def test_erlang_two_damped_oscillation(self):
        q = even_odd_difference(ERLANG2)
        for t in np.linspace(0.0, 12.0, 31):
            expected = math.exp(-t) * (math.cos(t) + math.sin(t))
            assert q(float(t)) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("r", [0.1, 0.5, 2.0, 6.0])
    def test_two_stage_closed_form(self, r):
        q = even_odd_difference(HypoExpWTD([1.0, r]))
        ts = np.linspace(0.0, 25.0, 60)
        assert np.allclose(q(ts), two_stage_parity(r, 1.0, ts), atol=1e-10)

    def test_equal_rate_limit_matches_erlang(self):
        q_conv = even_odd_difference(HypoExpWTD([1.0, 1.0]))
        q_erl = even_odd_difference(ERLANG2)
        ts = np.linspace(0.0, 12.0, 40)
        assert np.allclose(q_conv(ts), q_erl(ts), atol=1e-12)

    def test_bounded_by_one(self):
        for rates in [(1.0,), (1.0, 1.0), (1.0, 0.13), (1.0,) * 6]:
            q = even_odd_difference(HypoExpWTD(rates))
            ts = np.linspace(0.0, 60.0, 800)
            assert q(0.0) == pytest.approx(1.0, abs=1e-12)
            assert np.max(np.abs(q(ts))) <= 1.0 + 1e-10


class TestGeneratingFunction:
    def test_memoryless_form(self):
        lam = 1.0
        for mu in (-1.0, -0.3, 0.0, 0.4, 0.9):
            g = generating_function(HypoExpWTD.exponential(lam), mu)
            ts = np.linspace(0, 8, 25)
            assert np.allclose(g.value(ts), np.exp(-(1 - mu) * lam * ts), atol=1e-12)

    def test_mu_one_is_constant(self):
        g = generating_function(ERLANG2, 1.0)
        assert g.value(5.0) == 1.0
        assert g.derivative.is_zero()

    def test_mu_zero_is_survival(self):
        for w in (ERLANG2, HypoExpWTD.erlang(6, 1.0), HypoExpWTD([1.0, 0.5])):
            g = generating_function(w, 0.0)
            ts = np.linspace(0, 15, 40)
            assert np.allclose(g.value(ts), w.survival()(ts), atol=1e-12)

    def test_mu_minus_one_is_parity_difference(self):
        g = generating_function(ERLANG2, -1.0)
        q = even_odd_difference(ERLANG2)
        ts = np.linspace(0, 10, 30)
        assert np.allclose(g.value(ts), q(ts), atol=1e-13)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            generating_function(EXP1, 1.5)

    def test_starts_at_one_with_magnitude_at_most_one(self):
        for rates in [(1.0, 2.0), (1.0,) * 4, (1.0, 0.13)]:
            for mu in (-1.0, -0.5, 0.5, 0.9):
                g = generating_function(HypoExpWTD(rates), mu)
                assert g.value(0.0) == pytest.approx(1.0, abs=1e-10)
                ts = np.linspace(0.0, 40.0, 600)
                assert np.max(np.abs(g.value(ts))) <= 1.0 + 1e-10

    @pytest.mark.parametrize("m", [2, 5, 12, 20, 30, 40])
    def test_erlang_closed_form_matches_phase_type(self, m):
        ts = np.linspace(0.0, 30.0, 61)
        for lam in (0.5, 2.0):
            for mu in (1.0, -1.0, 0.5, -0.5, 0.01, -0.01, 1e-4, -1e-4, 0.999):
                g = generating_function(HypoExpWTD.erlang(m, lam), mu)
                ref = erlang_phase_type_generating_function(m, lam, mu, ts)
                bound = 1e-13 if abs(mu) >= 1e-2 else 1e-11
                assert np.max(np.abs(g.value(ts) - ref)) <= bound, (lam, mu)

    @pytest.mark.parametrize(
        "m, lam, mu",
        [
            (11, 1.3397506681997466, -0.011792339267961305),
            (12, 0.852285778841722, -0.03156209388717235),
            (12, 0.65111323787045, 0.20506922755681423),
            (12, 0.5423036421260969, 0.010443848512703857),
            (12, 0.6501705246773386, 0.04335074056440935),
        ],
    )
    def test_erlang_closed_form_starts_at_one(self, m, lam, mu):
        g = generating_function(HypoExpWTD.erlang(m, lam), mu)
        assert abs(g.value(0.0) - 1.0) <= 1e-13

    @pytest.mark.parametrize(
        "m, mu", [(2, 1e-15), (3, 1e-12), (5, 1e-15), (40, 1e-15), (40, -1e-15)]
    )
    def test_erlang_near_mu_zero_is_accurate_or_raises(self, m, mu):
        # The closed-form residues grow like |mu|^(1/m - 1) and cancel here;
        # the result must match the reference or fail loudly.
        ts = np.linspace(0.0, 30.0, 61)
        for lam in (0.5, 2.0):
            ref = erlang_phase_type_generating_function(m, lam, mu, ts)
            try:
                values = generating_function(HypoExpWTD.erlang(m, lam), mu).value(ts)
            except AccuracyError:
                continue
            assert np.max(np.abs(values - ref)) <= 1e-11, lam

    def test_erlang_poles_inside_the_cluster_radius_are_inverted(self):
        # At rate 1e-6 and mu = 1e-3 the two closed-form poles are 6.3e-8
        # apart and would merge into one simple pole, dropping the t e^{pt}
        # term; the general inversion keeps one double pole instead.
        w = HypoExpWTD.erlang(2, 1e-6)
        f = w.laplace_pdf()
        den = f.den - Polynomial([1e-3 * f.num.coeffs[0]])
        general = invert_laplace(RationalLaplace(w.one_minus_laplace_over_u(), den))
        assert generating_function(w, 1e-3).value == general


def series_reference(w: HypoExpWTD, mu: float, t: float, tol: float = 1e-10) -> float:
    """The uniformization walk over completed-stage counts, O(k_max^2).

    After K steps of the Poisson clock at the fastest rate, v[j] is the
    probability of j completed stages; stage j advances with probability
    rate[j mod m]/lam_max and is worth mu^(j // m).  series_backend folds
    this walk onto the m-state cyclic chain and must agree with it.
    """
    m = w.n_stages
    lam_max = max(w.rates)
    weights = _poisson_weights(lam_max * t, tol)
    k_max = weights.size - 1
    advance = np.array([w.rates[i % m] / lam_max for i in range(k_max + 1)])
    mu_of_stage = np.power(mu, np.arange(k_max + 1) // m).astype(float)
    v = np.zeros(k_max + 1)
    v[0] = 1.0
    total = weights[0] * v[0]  # K=0: still in stage 0
    for k in range(1, k_max + 1):
        moved = v[:k] * advance[:k]
        v[:k] -= moved
        v[1 : k + 1] += moved
        total += weights[k] * float(np.dot(v[: k + 1], mu_of_stage[: k + 1]))
    return float(total)


FOLD_WTDS = {
    "exp": EXP1,
    **{f"erlang{m}": HypoExpWTD.erlang(m, 1.0) for m in range(2, 7)},
    **{f"conv_1_{r}": HypoExpWTD([1.0, r]) for r in (0.1, 0.5, 2.0)},
    "near_equal": HypoExpWTD([1.0, 1.0 + 1e-5, 1.0 - 1e-5]),
}
FOLD_MUS = (-1.0, -0.5, 0.0, 0.5, 0.9, 1.0 - 1e-6, -(1.0 - 1e-6))
SPREAD_RATES = (1e-3, 1.0, 1e3)


class TestSeriesBackend:
    def test_erlang_two_at_first_revival(self):
        assert series_backend(ERLANG2, -1.0, math.pi, 1e-12) == pytest.approx(
            -math.exp(-math.pi), abs=1e-11
        )

    def test_at_time_zero(self):
        assert series_backend(HypoExpWTD([1.0, 0.5]), 0.3, 0.0, 1e-10) == 1.0

    def test_erlang_three_matches_inversion(self):
        g = generating_function(HypoExpWTD.erlang(3, 1.0), -1.0)
        s = series_backend(HypoExpWTD.erlang(3, 1.0), -1.0, 2.0, 1e-12)
        assert s == pytest.approx(g.value(2.0), abs=1e-8)

    def test_matches_window_series_oracle(self):
        for m in (2, 3, 4):
            w = HypoExpWTD.erlang(m, 1.0)
            for t in (0.5, 2.0, 7.0, 15.0):
                assert series_backend(w, -1.0, t, 1e-12) == pytest.approx(
                    erlang_parity_series(m, 1.0, t), abs=1e-10
                )

    def test_dual_backend_agreement_matrix(self):
        wtds = [EXP1] + [HypoExpWTD.erlang(m, 1.0) for m in (2, 4, 6)] + [
            HypoExpWTD([1.0, r]) for r in (0.1, 0.5, 2.0)
        ]
        for w in wtds:
            for mu in (-1.0, -0.5, 0.0, 0.5, 0.9):
                g = generating_function(w, mu)
                for t in np.linspace(0.05, 20.0, 50):
                    assert series_backend(w, mu, float(t), 1e-10) == pytest.approx(
                        g.value(float(t)), abs=1.1e-10 + 1e-10
                    )

    def test_truncation_cap_is_enforced(self):
        with pytest.raises(SeriesTruncationError):
            series_backend(EXP1, -1.0, 700.0, 1e-12)

    def test_cap_far_below_the_poisson_mass_raises_without_a_lattice(self):
        with pytest.raises(SeriesTruncationError, match="cap is 512"):
            series_backend(EXP1, -1.0, 1e15, 1e-12)

    @pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12])
    def test_poisson_truncation_index_matches_scipy(self, tol):
        for a in np.concatenate([np.logspace(-3, math.log10(1.5e4), 40), [1.0, 700.0]]):
            weights = _poisson_weights(float(a), tol)
            assert weights.size - 1 == int(poisson.isf(tol / 2.0, a)) + 1

    def test_poisson_weights_match_scipy_pmf(self):
        for a in np.concatenate([np.logspace(-3, math.log10(2e3), 40), [1.0, 700.0]]):
            weights = _poisson_weights(float(a), 1e-12)
            ref = poisson.pmf(np.arange(weights.size), a)
            # Most of this distance is scipy's own rounding near a = 2e3.
            assert np.abs(weights - ref).sum() <= 1e-12

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            series_backend(EXP1, -1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            series_backend(EXP1, 2.0, 1.0, 1e-8)
        with pytest.raises(ValueError):
            series_backend(EXP1, 0.5, -1.0, 1e-8)
        with pytest.raises(ValueError, match="time must be nonnegative"):
            series_backend(EXP1, 0.5, math.nan)
        with pytest.raises(ValueError, match="time must be finite"):
            series_backend(EXP1, 0.5, math.inf)

    @pytest.mark.parametrize("name", sorted(FOLD_WTDS))
    def test_fold_matches_the_stage_count_walk(self, name):
        w = FOLD_WTDS[name]
        for mu in FOLD_MUS:
            for t in np.linspace(0.05, 20.0, 12):
                got = series_backend(w, mu, float(t))
                assert abs(got - series_reference(w, mu, float(t))) <= 2e-13, (mu, t)

    def test_fold_matches_the_walk_up_to_the_cap(self):
        # The spread-rate grid of the benchmark stops one step short of the
        # cap's first raise, at 1519 uniformization steps of the 1536 allowed.
        w = HypoExpWTD(list(SPREAD_RATES))
        times = np.linspace(0.0, 8.0, 151)[1:25]
        assert _poisson_weights(1e3 * float(times[-1]), 1e-10).size - 1 == 1519
        for mu in FOLD_MUS:
            for t in times[::-4]:
                got = series_backend(w, mu, float(t))
                assert abs(got - series_reference(w, mu, float(t))) <= 2e-13, (mu, t)

    @pytest.mark.parametrize("rate", [0.3, 1.0, 7.0])
    def test_single_stage_is_the_poisson_generating_function(self, rate):
        # For mu < 0 the Poisson sum alternates and cancels, so only an
        # absolute error means anything there; the fold tests cover it.
        w = HypoExpWTD.exponential(rate)
        for mu in (0.0, 0.5, 0.9, 1.0 - 1e-6):
            for t in np.linspace(0.05, 20.0, 40):
                ref = math.exp(-rate * t * (1.0 - mu))
                got = series_backend(w, mu, float(t), 1e-14)
                assert got == pytest.approx(ref, rel=1e-14, abs=0.0), (mu, t)

    @pytest.mark.parametrize("s", [0.5, 2.0**-0.37, 1.0, 1.82579, 2.0])
    def test_spread_rates_raise_at_the_same_time(self, s):
        w = HypoExpWTD([s * r for r in SPREAD_RATES])
        times = np.linspace(0.0, 8.0 / s, 151)[1:]
        for i, t in enumerate(times):
            try:
                series_backend(w, 0.3, float(t))
            except SeriesTruncationError as exc:
                assert (i, str(exc)) == (24, "need 1577 uniformization steps, cap is 1536")
                return
        pytest.fail("no SeriesTruncationError on the spread-rate grid")


class TestFindExtrema:
    def test_erlang_two_magnitude_peaks(self):
        q = even_odd_difference(ERLANG2)
        points = find_extrema(q, (0.0, 13.0))
        maxima = [p for p in points if p.kind == "max"]
        assert len(maxima) == 4
        for n, p in enumerate(maxima, start=1):
            assert p.t == pytest.approx(n * math.pi, abs=1e-10)
            assert p.magnitude == pytest.approx(math.exp(-n * math.pi), abs=1e-12)

    def test_erlang_two_zeros(self):
        q = even_odd_difference(ERLANG2)
        zeros = [p for p in find_extrema(q, (0.0, 7.0)) if p.kind == "zero-crossing"]
        assert [round(z.t, 10) for z in zeros] == [
            round(3 * math.pi / 4, 10),
            round(7 * math.pi / 4, 10),
        ]

    def test_monotone_function_has_no_interior_extrema(self):
        f = HypoExpWTD.exponential(2.0).survival()
        assert find_extrema(f, (0.0, 10.0)) == []

    def test_two_stage_peak_heights_decrease(self):
        q = even_odd_difference(HypoExpWTD([1.0, 0.5]))
        heights = [p.magnitude for p in find_extrema(q, (0.0, 30.0)) if p.kind == "max"]
        assert len(heights) >= 3
        assert all(a > b for a, b in zip(heights, heights[1:]))

    def test_magnitude_dips_of_erlang_orders_touch_zero(self):
        # For oscillatory parity functions every dip of |q_m| is a sign change.
        for m in range(2, 7):
            q = even_odd_difference(HypoExpWTD.erlang(m, 1.0))
            pts = find_extrema(q, (0.0, 30.0))
            assert not any(p.kind == "min" and p.magnitude > 1e-10 for p in pts)
            assert any(p.kind == "zero-crossing" for p in pts)

    def test_empty_window_rejected(self):
        q = even_odd_difference(ERLANG2)
        with pytest.raises(ValueError):
            find_extrema(q, (2.0, 2.0))


# Sampled functions with their term-magnitude envelopes, and the window they
# are sampled on.
REFINE_CASES = {
    "erlang3-parity": (
        even_odd_difference(HypoExpWTD.erlang(3, 1.0)),
        even_odd_difference(HypoExpWTD.erlang(3, 1.0)).envelope,
        (0.0, 30.0),
    ),
    "two-stage-derivative": (
        generating_function(HypoExpWTD([1.0, 0.3]), -1.0).derivative,
        generating_function(HypoExpWTD([1.0, 0.3]), -1.0).derivative.envelope,
        (0.0, 50.0),
    ),
    "steep-tanh": (lambda t: np.tanh(50.0 * (t - 0.71)), lambda t: 1.0 + 0 * t, (0.0, 5.0)),
    "large-times": (lambda t: np.sin(t / 7.0), lambda t: 1.0 + 0 * t, (900.0, 1100.0)),
}


class TestRefineBrackets:
    @pytest.mark.parametrize("name", sorted(REFINE_CASES))
    def test_batched_refinement_matches_brentq(self, name):
        f, envelope, (t0, t1) = REFINE_CASES[name]
        grid = np.linspace(t0, t1, 397)
        i, j = sign_brackets(f(grid), envelope(grid))
        assert len(i) > 0
        got = refine_brackets(f, grid[i], grid[j], xtol=1e-14)
        for a, b, x in zip(grid[i], grid[j], got):
            ref = brentq(lambda t: float(f(t)), a, b, xtol=1e-14, rtol=8.9e-16)
            assert abs(x - ref) <= 2.0 * (1e-14 + 8.9e-16 * abs(ref))
            assert a <= x <= b

    def test_empty_bracket_set(self):
        assert refine_brackets(np.sin, [], [], xtol=1e-14).size == 0

    def test_grid_end_values_leave_every_bit(self):
        # lam_-0.3 of erlang:5 has five terms, and a lone bracket evaluates its
        # ends one time at a time: the grid samples must be those values.  (A
        # kernel that summed a lone time's terms pairwise moved the third root.)
        f = generating_function(HypoExpWTD.erlang(5, 1.0), -0.3).value
        grid = np.linspace(0.0, 30.0, 101)
        fv = f(grid)
        i, j = sign_brackets(fv, f.envelope(grid))
        assert len(f.terms) == 5 and len(i) > 2
        for k in [slice(None)] + [slice(n, n + 1) for n in range(len(i))]:
            a, b = grid[i][k], grid[j][k]
            ends = refine_brackets(f, a, b, 1e-14, fv[i][k], fv[j][k])
            assert ends.tobytes() == refine_brackets(f, a, b, 1e-14).tobytes()

    def test_rounding_level_samples_carry_no_sign(self):
        values = np.array([1.0, 1e-20, -1e-20, 1.0, -1.0])
        i, j = sign_brackets(values, np.ones(5))
        assert i.tolist() == [3] and j.tolist() == [4]

    def test_subnormal_samples_carry_no_sign(self):
        # is_root's rule: a subnormal value has lost its relative precision,
        # even where its envelope is subnormal too.
        values = np.array([1e-300, -2e-310, 3e-310, -1e-320, 1e-300, -1e-300])
        i, j = sign_brackets(values, np.abs(values))
        assert i.tolist() == [4] and j.tolist() == [5]


class TestRuns:
    @pytest.mark.parametrize(
        "flags, starts, ends",
        [
            ([], [], []),
            ([False, False, False], [], []),
            ([True, True, True], [0], [3]),
            ([True, False, False, True], [0, 3], [1, 4]),
            ([True, False, True, False, True], [0, 2, 4], [1, 3, 5]),
            ([False, True, False, True], [1, 3], [2, 4]),
            ([False, True, True, False, True, True, True, False], [1, 4], [3, 7]),
        ],
    )
    def test_start_and_end_exclusive_of_each_run(self, flags, starts, ends):
        got = runs(np.array(flags, dtype=bool))
        assert got[0].tolist() == starts and got[1].tolist() == ends


def _time_of_k_max(lam_max: float, k: int, tol: float = 1e-10) -> float:
    """The first t, to bisection accuracy, whose Poisson truncation index is k."""
    lo, hi = 0.0, 4.0 * (k + 1) / lam_max
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _poisson_weights(lam_max * mid, tol).size - 1 < k:
            lo = mid
        else:
            hi = mid
    assert _poisson_weights(lam_max * hi, tol).size - 1 == k
    return hi


class TestSeriesRowsCache:
    """series_backend keeps the rows P^K 1 per (w, mu, doublings)."""

    W, MU = HypoExpWTD([1.0, 0.4, 2.5]), -0.7

    def test_cached_values_equal_fresh_builds(self):
        # k_max = 2^j - 1 uses every row of j doublings; 2^j and 2^j + 1 need one more
        ks = [k for j in (3, 5, 7) for k in (2**j - 1, 2**j, 2**j + 1)]
        times = [_time_of_k_max(max(self.W.rates), k) for k in ks]
        fresh = []
        for t in times:
            _uniformized_rows.cache_clear()
            fresh.append(series_backend(self.W, self.MU, t))
        _uniformized_rows.cache_clear()
        assert [series_backend(self.W, self.MU, t) for t in times] == fresh
        assert _uniformized_rows.cache_info().hits == 3  # 2^j + 1 reuses 2^j
        descending = [series_backend(self.W, self.MU, t) for t in times[::-1]]
        assert descending == fresh[::-1]

    def test_cached_rows_are_read_only(self):
        rows = _uniformized_rows(self.W, self.MU, 5)
        assert rows.shape == (32, 3)
        with pytest.raises(ValueError, match="read-only"):
            rows[0, 0] = 0.0
