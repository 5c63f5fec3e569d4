"""The time unit changes no result.

Scaling every stage rate by c is a change of time unit: lam_mu(t) at rates
c*r is lam_mu(c*t) at rates r.  So the zeros and the window scale by 1/c, the
time-local rates by c, and BLP, a total variation, stays as it is.  The
shapes are those of test_nonmarkov: the 40 seeded channels, the diagnostics
shapes and the Dirichlet channels.
"""

import contextlib
import io
import json

import numpy as np
import pytest

from smqdyn.classical_semimarkov import SemiMarkovSpec, witness_divisibility
from smqdyn.cli import main
from smqdyn.nonmarkov import (
    _measure_window,
    blp_measure_numeric,
    divisibility_scan,
    hou_measure,
    tcl_rates,
)
from smqdyn.qubit import dynamics
from smqdyn.renewal import even_odd_difference, find_zeros
from smqdyn.waiting_time import HypoExpWTD

from test_nonmarkov import (
    DIAGNOSTIC_SHAPES,
    DIRICHLET_CHANNELS,
    LONG_PAULI,
    PHASEFLIP,
    _seeded_channel,
)

SHAPES = {
    **{f"seed-{k}": _seeded_channel(k) for k in range(40)},
    **DIAGNOSTIC_SHAPES,
    **DIRICHLET_CHANNELS,
}
SCALES = [1e-8, 1e-6, 1e3]


def _scaled(w, c):
    return HypoExpWTD([c * r for r in w.rates])


def _results(ch, w):
    """The generating functions, the auto window, its eigenvalue zeros and BLP."""
    dyn = dynamics(ch, w)
    window = _measure_window([g.derivative for g in dyn.generators])[0]
    fs = [dyn.generators[i].value for i in dyn.varying]
    zeros = [find_zeros(f, window) for f in fs]
    return fs, window, zeros, blp_measure_numeric(ch, w).value


@pytest.fixture(scope="module")
def unit():
    return {name: _results(ch, w) for name, (ch, w) in SHAPES.items()}


@pytest.mark.parametrize("c", SCALES)
def test_rates_in_any_unit_give_the_unit_rate_results(unit, c):
    for name, (ch, w) in SHAPES.items():
        fs, window, zeros, blp = unit[name]
        fs_c, window_c, zeros_c, blp_c = _results(ch, _scaled(w, c))
        ts = np.linspace(*window, 201)
        for f, f_c in zip(fs, fs_c):
            assert np.max(np.abs(f_c(ts / c) - f(ts))) <= 1e-12, name
        assert window_c[1] * c == pytest.approx(window[1], rel=1e-12), name
        for z, z_c in zip(zeros, zeros_c):
            assert z_c.size == z.size, name
            assert np.allclose(z_c * c, z, rtol=1e-11, atol=0.0), name
        assert blp_c == pytest.approx(blp, rel=1e-9, abs=0.0), name


@pytest.mark.parametrize("c", SCALES)
def test_time_local_rates_scale_with_the_unit(unit, c):
    # away from the eigenvalue zeros, where lam_i cancels and the rates diverge
    for name, (ch, w) in SHAPES.items():
        window = unit[name][1]
        ts = np.linspace(*window, 51)
        fs = [g.value for g in dynamics(ch, w).generators]
        ts = ts[np.all([np.abs(f(ts)) > 1e-4 * f.envelope(ts) for f in fs], axis=0)]
        canonical, overcomplete, singular = tcl_rates(ch, w, ts)
        canonical_c, overcomplete_c, singular_c = tcl_rates(ch, _scaled(w, c), ts / c)
        assert np.array_equal(singular_c, singular), name  # subnormal at the window end
        keep = ~singular
        scale = np.abs(canonical[:, keep]).max()
        for a, a_c in ((canonical, canonical_c), (overcomplete, overcomplete_c)):
            assert np.all(np.abs(a_c[:, keep] / c - a[:, keep]) <= 1e-9 * scale), name


@pytest.mark.parametrize("c", [1.0, *SCALES])
def test_a_start_time_at_a_zero_is_singular_in_any_unit(c):
    # The scans search zeros up to T (1 + 1e-6), T the last start time, the
    # mask's own tolerance: at rates 1e-8 the zero 6.09e8 ends that window.
    w = HypoExpWTD([c, 0.3 * c])
    z = find_zeros(even_odd_difference(w), (0.0, 20.0 / c))[0]  # the flip's lam_x
    assert z * c == pytest.approx(6.0917698065915875, rel=1e-12)
    report = witness_divisibility(SemiMarkovSpec(0.0, 1.0, w), np.array([0.0, 0.5 * z, z]))
    assert report.singular_s.tolist() == [False, False, True]
    scan = divisibility_scan(PHASEFLIP, w, np.array([0.5 * z, z]), np.array([0.1 / c]))
    assert scan.singular_t.tolist() == [False, True]
    assert divisibility_scan(PHASEFLIP, w, np.zeros(1), np.ones(1)).singular_t.tolist() == [False]


def _measures(wtd):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["measures", "--channel", "phaseflip", "--wtd", wtd])
    return code, json.loads(out.getvalue())["measures"] if code == 0 else None


def test_measures_command_in_any_unit():
    # The phase flip's slow poles -6.5e-8 +/- 4.2e-8i stay complex: a
    # Markovian reading (BLP 0, finite RHP) would mean they merged.
    code, unit = _measures("conv:1,0.3")
    assert code == 0 and unit["rhp"]["infinite"]
    code, slow = _measures("conv:0.0000001,0.00000003")
    assert code == 0 and slow["rhp"]["infinite"]
    value = unit["blp_numeric"]["value"]
    assert slow["blp_numeric"]["value"] == pytest.approx(value, rel=1e-9, abs=0.0)
    code, fast = _measures("conv:1000,300")
    assert code == 0
    assert fast["blp_numeric"]["value"] == pytest.approx(value, rel=1e-9, abs=0.0)


@pytest.mark.xfail(
    strict=True,
    reason="hou's quadrature tolerance max(1.49e-8, 1.49e-8*|I|) is absolute "
    "(ROADMAP items 3 and 9): at rates x1e3 the value is off by 1.3e-4 relative",
)
def test_hou_in_a_fast_unit():
    ch, w = LONG_PAULI
    value = hou_measure(ch, w).value
    assert hou_measure(ch, _scaled(w, 1e3)).value == pytest.approx(value, rel=1e-9)
