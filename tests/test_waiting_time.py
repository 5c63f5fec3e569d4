import math

import numpy as np
import pytest
from scipy.integrate import simpson

from smqdyn.poly_laplace import ROOT_CLUSTER_RADIUS
from smqdyn.waiting_time import HypoExpWTD

from oracles import numeric_convolution, two_stage_pdf


class TestConstruction:
    def test_rates_must_be_positive(self):
        with pytest.raises(ValueError):
            HypoExpWTD([1.0, -2.0])
        with pytest.raises(ValueError):
            HypoExpWTD([])

    def test_erlang_factory(self):
        assert HypoExpWTD.erlang(3, 2.0).rates == (2.0, 2.0, 2.0)

    @pytest.mark.parametrize("c", [1e-6, 1.0, 1e3])
    def test_stage_poles_merge_inside_the_relative_cluster_radius(self, c):
        def poles(rates):
            return HypoExpWTD([c * r for r in rates]).laplace_pdf().den_roots

        assert poles([2.5] * 4) == ((-2.5 * c + 0j, 4),)
        r = 1.3
        near = r + 0.9 * ROOT_CLUSTER_RADIUS * r
        (pole, mult), = poles([near, r])
        assert mult == 2 and pole == complex(-(c * r + c * near) / 2, 0.0)
        apart = r * (1.0 + 1e-6)
        assert poles([apart, r]) == ((complex(-c * r, 0.0), 1), (complex(-c * apart, 0.0), 1))
        # ascending in the rate, whatever the stage order
        assert poles([3.0, 0.5, 2.0, 0.5]) == (
            (-0.5 * c + 0j, 2), (-2.0 * c + 0j, 1), (-3.0 * c + 0j, 1))

    def test_transform_strictly_proper_and_normalized(self):
        for rates in [(1.0,), (1.0, 2.0), (0.5,) * 4, (1.0, 0.13)]:
            f = HypoExpWTD(rates).laplace_pdf()
            assert f.num.degree < f.den.degree
            assert f(0.0) == pytest.approx(1.0, abs=1e-12)  # unit total mass


class TestPdf:
    def test_single_stage(self):
        f = HypoExpWTD.exponential(2.5).pdf()
        ts = np.linspace(0, 4, 50)
        assert np.allclose(f(ts), 2.5 * np.exp(-2.5 * ts), atol=1e-13)

    def test_two_distinct_stages(self):
        w = HypoExpWTD([1.0, 2.0])
        f = w.pdf()
        ts = np.linspace(0.0, 8.0, 30)
        expected = 2.0 * (np.exp(-ts) - np.exp(-2.0 * ts))
        assert np.allclose(f(ts), expected, atol=1e-12)
        # independent routes: convolution quadrature and the hyperbolic form
        conv = numeric_convolution(
            lambda t: np.exp(-t), lambda t: 2.0 * np.exp(-2.0 * t), ts
        )
        assert np.allclose(f(ts), conv, atol=2e-7)
        assert np.allclose(f(ts), two_stage_pdf(3.0, 2.0, ts), atol=1e-12)

    def test_erlang_two(self):
        lam = 1.7
        f = HypoExpWTD.erlang(2, lam).pdf()
        ts = np.linspace(0, 6, 40)
        assert np.allclose(f(ts), lam**2 * ts * np.exp(-lam * ts), atol=1e-12)

    def test_nonnegative_on_grid(self):
        for rates in [(1.0, 0.13), (2.0, 2.0, 2.0), (1.0, 0.5, 2.0)]:
            f = HypoExpWTD(rates).pdf()
            ts = np.linspace(0, 40.0 / min(rates), 400)
            assert np.all(f(ts) >= -1e-12)

    def test_stage_order_does_not_matter(self):
        a = HypoExpWTD([1.0, 3.0, 0.5]).pdf()
        b = HypoExpWTD([0.5, 1.0, 3.0]).pdf()
        assert a.poles == b.poles
        for (pa, ca), (pb, cb) in zip(a.terms, b.terms):
            assert pa == pb
            assert np.allclose(ca, cb, atol=1e-12)


class TestSurvival:
    def test_single_stage(self):
        g = HypoExpWTD.exponential(1.3).survival()
        assert g(2.0) == pytest.approx(math.exp(-2.6), rel=1e-12)

    def test_erlang_two_matches_numeric_integration(self):
        lam = 1.0
        w = HypoExpWTD.erlang(2, lam)
        g = w.survival()
        f = w.pdf()
        for t in (0.5, 1.0, 3.0, 7.0):
            taus = np.linspace(0, t, 20001)
            assert g(t) == pytest.approx(1.0 - simpson(f(taus), x=taus), abs=1e-8)
            assert g(t) == pytest.approx((1 + lam * t) * math.exp(-lam * t), abs=1e-12)

    def test_starts_at_one_and_decreases(self):
        for rates in [(1.0,), (1.0, 2.0), (1.0,) * 5, (1.0, 0.13)]:
            g = HypoExpWTD(rates).survival()
            assert g(0.0) == pytest.approx(1.0, abs=1e-12)
            ts = np.linspace(0, 30.0 / min(rates), 500)
            vals = g(ts)
            assert np.all(np.diff(vals) <= 1e-12)


class TestKernel:
    def test_single_stage_is_pure_delta(self):
        k = HypoExpWTD.exponential(2.0).kernel()
        assert k.delta_weight == pytest.approx(2.0, rel=1e-12)
        assert k.regular_part.is_zero()

    def test_erlang_two(self):
        lam = 1.5
        k = HypoExpWTD.erlang(2, lam).kernel()
        assert k.delta_weight == 0.0
        ts = np.linspace(0, 5, 30)
        assert np.allclose(k.regular_part(ts), lam**2 * np.exp(-2 * lam * ts), atol=1e-12)

    def test_two_distinct_stages_has_no_delta(self):
        k = HypoExpWTD([1.0, 2.0]).kernel()
        assert k.delta_weight == 0.0

    @pytest.mark.parametrize("rates", [(1.5, 1.5), (1.0, 2.0), (1.0, 0.5, 2.0)])
    def test_reconvolving_with_survival_recovers_pdf(self, rates):
        w = HypoExpWTD(rates)
        k = w.kernel()
        g = w.survival()
        f = w.pdf()
        ts = np.linspace(0.0, 20.0 / min(rates), 25)
        conv = numeric_convolution(
            lambda t: k.regular_part(t), lambda t: g(t), ts
        )
        total = k.delta_weight * g(ts) + conv
        assert np.allclose(total, f(ts), atol=1e-7)


class TestNormalization:
    @pytest.mark.parametrize(
        "rates", [(1.0,), (1.0, 2.0), (3.0,) * 4, (1.0, 0.13), (2.0, 0.5, 1.0)]
    )
    def test_unit_mass(self, rates):
        w = HypoExpWTD(rates)
        T = 50.0 / min(rates)
        ts = np.linspace(0, T, 200001)
        assert simpson(w.pdf()(ts), x=ts) == pytest.approx(1.0, abs=1e-8)
