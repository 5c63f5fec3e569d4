import math

import numpy as np
import pytest

from smqdyn.qubit import (
    PAULI_TRANSFORM,
    SIGMA,
    MapSnapshot,
    PauliChannel,
    PositivityError,
    QubitState,
    choi_vector,
    evolve_state,
    map_snapshot,
    spectral_transform,
)
from smqdyn.renewal import even_odd_difference
from smqdyn.waiting_time import HypoExpWTD

ERLANG2 = HypoExpWTD.erlang(2, 1.0)
CHANNELS = [
    PauliChannel.phase_flip(),
    PauliChannel.exchange(),
    PauliChannel.dephasing_mixture(0.7),
    PauliChannel([0.2, 0.4, 0.2, 0.2]),
]
WTDS = [HypoExpWTD.exponential(1.0), ERLANG2, HypoExpWTD([1.0, 0.5])]


class TestSpectralTransform:
    def test_identity_channel(self):
        assert np.allclose(spectral_transform([1, 0, 0, 0]), [1, 1, 1, 1])

    def test_phase_flip(self):
        assert np.allclose(spectral_transform([0, 0, 0, 1]), [1, -1, -1, 1])

    def test_generic_weights(self):
        mu = spectral_transform([0.2, 0.4, 0.2, 0.2])
        assert np.allclose(mu, [1.0, 0.2, -0.2, -0.2])

    def test_involution_up_to_factor_four(self):
        assert np.allclose(PAULI_TRANSFORM @ PAULI_TRANSFORM, 4 * np.eye(4))

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            spectral_transform([1, 0, 0])


class TestPauliChannel:
    def test_weights_validated(self):
        with pytest.raises(ValueError):
            PauliChannel([0.5, 0.5, 0.5, -0.5])
        with pytest.raises(ValueError):
            PauliChannel([0.5, 0.1, 0.1, 0.1])

    def test_eigenvalues_bounded(self):
        for ch in CHANNELS:
            mu = ch.mu
            assert mu[0] == pytest.approx(1.0)
            assert all(abs(m) <= 1.0 + 1e-12 for m in mu[1:])

    def test_rounding_level_eigenvalue_is_an_exact_zero(self):
        # 0.1 - 0.3 - 0.2 + 0.4 rounds to 2.8e-17 before the snap.
        ch = PauliChannel([0.1, 0.3, 0.2, 0.4])
        assert ch.mu[3] == 0.0
        assert ch.mu[1:3] == pytest.approx((-0.2, -0.4), abs=1e-15)
        assert PauliChannel([0.25, 0.25, 0.25, 0.25]).mu[1:] == (0.0, 0.0, 0.0)
        # A small genuine eigenvalue is kept.
        tiny = PauliChannel([0.5000000000005, 0.4999999999995, 0, 0]).mu[3]
        assert tiny == pytest.approx(1e-12, rel=1e-4)

    def test_exchange_channel_matches_ladder_form(self):
        rho = QubitState.from_bloch([0.3, -0.2, 0.4]).matrix()
        sp = np.array([[0, 1], [0, 0]], dtype=complex)
        sm = sp.conj().T
        expected = sp @ rho @ sm + sm @ rho @ sp
        assert np.allclose(PauliChannel.exchange().apply(rho), expected, atol=1e-14)


class TestQubitState:
    def test_validation(self):
        with pytest.raises(ValueError):
            QubitState(np.array([[1.0, 0.5], [0.4, 0.0]]))  # not Hermitian
        with pytest.raises(ValueError):
            QubitState(np.array([[0.9, 0.0], [0.0, 0.0]]))  # trace != 1
        with pytest.raises(PositivityError):
            QubitState(np.array([[1.2, 0.0], [0.0, -0.2]]))

    def test_bloch_round_trip(self):
        r = [0.3, -0.5, 0.2]
        assert np.allclose(QubitState.from_bloch(r).bloch, r, atol=1e-14)

    def test_bloch_ball_enforced(self):
        with pytest.raises(ValueError):
            QubitState.from_bloch([1.0, 0.5, 0.0])


class TestMapSnapshot:
    def test_memoryless_eigenvalue_decay(self):
        lam = 1.0
        for ch in CHANNELS:
            mu = ch.mu
            for t in (0.0, 0.7, 2.5):
                snap = map_snapshot(ch, HypoExpWTD.exponential(lam), t)
                for i in range(3):
                    assert snap.lambda_t[i] == pytest.approx(
                        math.exp(-(1 - mu[i + 1]) * lam * t), abs=1e-10
                    )

    def test_initial_time_is_identity_map(self):
        snap = map_snapshot(PauliChannel([0.2, 0.4, 0.2, 0.2]), ERLANG2, 0.0)
        assert np.allclose(snap.lambda_t, 1.0, atol=1e-10)

    def test_phase_flip_eigenvalues_are_parity_difference(self):
        q = even_odd_difference(ERLANG2)
        for t in (0.5, 2.0, 4.0):
            snap = map_snapshot(PauliChannel.phase_flip(), ERLANG2, t)
            assert snap.lambda_t[0] == pytest.approx(q(t), abs=1e-12)
            assert snap.lambda_t[1] == pytest.approx(q(t), abs=1e-12)
            assert snap.lambda_t[2] == pytest.approx(1.0, abs=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            map_snapshot(PauliChannel.phase_flip(), ERLANG2, -1.0)


class TestEvolveState:
    def test_time_zero_is_identity(self):
        rho = QubitState.from_bloch([0.2, 0.3, -0.4])
        snap = map_snapshot(PauliChannel.exchange(), ERLANG2, 0.0)
        out = evolve_state(snap, rho)
        assert np.allclose(out.matrix(), rho.matrix(), atol=1e-10)

    def test_phase_flip_multiplies_coherence_by_parity(self):
        q = even_odd_difference(ERLANG2)
        plus = QubitState.from_bloch([1.0, 0.0, 0.0])
        for t in (0.5, 2.0, 3.0):
            snap = map_snapshot(PauliChannel.phase_flip(), ERLANG2, t)
            out = evolve_state(snap, plus)
            assert out.matrix()[1, 0] == pytest.approx(q(t) / 2.0, abs=1e-12)
            assert out.matrix()[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_exchange_channel_relaxes_population_with_parity(self):
        g = ERLANG2.survival()
        q = even_odd_difference(ERLANG2)
        rho = QubitState.from_bloch([0.6, 0.0, -0.8])
        for t in (0.7, 2.0):
            snap = map_snapshot(PauliChannel.exchange(), ERLANG2, t)
            out = evolve_state(snap, rho)
            assert out.bloch[0] == pytest.approx(0.6 * g(t), abs=1e-12)
            assert out.bloch[2] == pytest.approx(-0.8 * q(t), abs=1e-12)

    def test_unphysical_snapshot_raises(self):
        bad = MapSnapshot((1.5, 0.2, 0.2), (0.0, 0.0, 0.0), 1.0)
        assert not bad.is_physical()
        with pytest.raises(PositivityError):
            evolve_state(bad, QubitState.from_bloch([1.0, 0.0, 0.0]))


class TestChannelInvariants:
    @pytest.mark.parametrize("ch", CHANNELS)
    @pytest.mark.parametrize("w", WTDS)
    def test_trace_hermiticity_unitality_contraction(self, ch, w):
        rng = np.random.default_rng(42)
        for t in (0.3, 1.0, 4.0):
            snap = map_snapshot(ch, w, t)
            # unitality: the maximally mixed state is a fixed point
            mixed = evolve_state(snap, QubitState.maximally_mixed())
            assert np.allclose(mixed.matrix(), 0.5 * np.eye(2), atol=1e-15)
            # Bloch-axis contraction factors are exactly the eigenvalues
            for i in range(3):
                axis = np.zeros(3)
                axis[i] = 1.0
                out = evolve_state(snap, QubitState.from_bloch(axis))
                assert out.bloch[i] == pytest.approx(snap.lambda_t[i], abs=1e-12)
            for _ in range(3):
                v = rng.normal(size=3)
                v *= rng.uniform(0, 1) / np.linalg.norm(v)
                out = evolve_state(snap, QubitState.from_bloch(v))
                m = out.matrix()
                assert abs(np.trace(m).real - 1.0) < 1e-12
                assert np.allclose(m, m.conj().T, atol=1e-12)


class TestChoiVector:
    def test_identity_ratios(self):
        cv = choi_vector([1.0, 1.0, 1.0])
        assert cv.mu_t == (1.0, 0.0, 0.0, 0.0)
        assert cv.is_completely_positive()

    def test_dephasing_ratios_with_sign_flip(self):
        cv = choi_vector([-0.5, -0.5, 1.0])
        assert cv.mu_t == pytest.approx((0.25, 0.0, 0.0, 0.75))
        assert cv.negativity == 0.0

    def test_memoryless_intermediate_maps_stay_positive(self):
        w = HypoExpWTD.exponential(1.0)
        for ch in CHANNELS:
            for t, s in [(0.5, 0.5), (1.0, 2.0), (3.0, 0.1)]:
                snap_t = map_snapshot(ch, w, t)
                snap_ts = map_snapshot(ch, w, t + s)
                ratios = np.array(snap_ts.lambda_t) / np.array(snap_t.lambda_t)
                assert choi_vector(ratios).min_component >= -1e-12

    @pytest.mark.parametrize("ch", CHANNELS)
    @pytest.mark.parametrize("w", WTDS)
    def test_full_map_weights_form_probability_vector(self, ch, w):
        for t in np.linspace(0.0, 8.0, 20):
            snap = map_snapshot(ch, w, float(t))
            cv = choi_vector(snap.lambda_t)
            assert cv.min_component >= -1e-10
            assert sum(cv.mu_t) == pytest.approx(1.0, abs=1e-10)
