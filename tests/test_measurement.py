import numpy as np
import pytest

from geophase.errors import DomainError
from geophase.measurement import (Strength, cloud_separation,
                                  completeness_residual,
                                  effective_kraus_from_integral,
                                  gauss_amplitudes, kraus_null, kraus_readout,
                                  readout_pdf, readout_quadrature)
from geophase.qutrit import MeasurementAxis, QutritState, axis_state


class TestStrength:
    def test_bounds(self):
        Strength(0.0)
        Strength(1.0)
        with pytest.raises(DomainError):
            Strength(-0.01)
        with pytest.raises(DomainError):
            Strength(1.01)

    @pytest.mark.parametrize("m", [1e-6, 0.01, 0.1, 0.5, 0.9, 0.999, 1.0])
    def test_conversion_round_trips(self, m):
        s = Strength(m)
        assert abs(Strength.from_gamma_tau(s.gamma_tau).m - m) < 1e-12

    @pytest.mark.parametrize("gamma_tau", [-1.0, float("nan")])
    def test_from_gamma_tau_refuses_negative(self, gamma_tau):
        with pytest.raises(DomainError) as err:
            Strength.from_gamma_tau(gamma_tau)
        assert str(err.value) == f"gamma_tau={gamma_tau!r} must be >= 0"

    def test_projective_limits(self):
        assert Strength(0.0).gamma_tau == np.inf
        assert Strength(1.0).gamma_tau == 0.0

    def test_attenuation_monotone_in_gamma_tau(self):
        gts = np.linspace(0.0, 6.0, 40)
        ms = [Strength.from_gamma_tau(g).m for g in gts]
        assert np.all(np.diff(ms) < 0.0)


class TestKrausNull:
    def test_projective_is_ge_projector(self):
        assert np.allclose(kraus_null(Strength(0.0)).mat, np.diag([0, 1, 1]))

    def test_identity_at_m1(self):
        assert np.allclose(kraus_null(Strength(1.0)).mat, np.eye(3))

    def test_half(self):
        assert np.allclose(kraus_null(Strength(0.5)).mat, np.diag([0.5, 1, 1]))


class TestKrausReadout:
    @pytest.mark.parametrize("m", [0.1, 0.5, 0.9])
    def test_povm_completeness(self, m):
        assert completeness_residual(Strength(m)) < 1e-8

    def test_overlap_equals_m(self):
        # quadrature oracle against the closed-form Gaussian overlap
        s = Strength(0.5)
        r, wt = readout_quadrature()
        psit, psi = gauss_amplitudes(s, r)
        overlap = np.sum(wt * psi * psit)
        assert abs(overlap - 0.5) < 1e-8
        r0 = cloud_separation(s)
        assert abs(np.exp(-r0 ** 2 / 8.0) - 0.5) < 1e-14

    def test_m1_proportional_to_identity(self):
        s = Strength(1.0)
        for r in [-2.0, 0.0, 1.3]:
            mat = kraus_readout(s, r).mat
            assert np.allclose(mat, mat[0, 0] * np.eye(3), atol=1e-15)

    def test_projective_rejected(self):
        with pytest.raises(DomainError):
            kraus_readout(Strength(0.0), 0.0)

    def test_non_finite_readout_rejected(self):
        with pytest.raises(DomainError):
            kraus_readout(Strength(0.5), np.inf)

    def test_coherence_preserved_in_eg(self):
        # e and g see the same amplitude for any readout sequence
        rng = np.random.default_rng(5)
        s = Strength(0.37)
        state = QutritState(np.array([0.2 + 0.1j, 0.5 - 0.3j, 0.6 + 0.4j]))
        ratio = state.a_e / state.a_g
        for r in rng.normal(size=20):
            state = kraus_readout(s, float(r)).apply(state)
        assert abs(state.a_e / state.a_g - ratio) < 1e-12


class TestEffectiveKraus:
    def test_half(self):
        eff = effective_kraus_from_integral(Strength(0.5))
        assert np.max(np.abs(eff.mat - np.diag([0.5, 1, 1]))) < 1e-8

    def test_identity_at_m1(self):
        eff = effective_kraus_from_integral(Strength(1.0))
        assert np.max(np.abs(eff.mat - np.eye(3))) < 1e-12

    def test_wide_separation(self):
        eff = effective_kraus_from_integral(Strength(0.05))
        assert np.max(np.abs(eff.mat - np.diag([0.05, 1, 1]))) < 1e-8

    @pytest.mark.parametrize("m", np.round(np.arange(0.01, 1.0, 0.0999), 4))
    def test_selective_averaging_identity(self, m):
        eff = effective_kraus_from_integral(Strength(float(m)))
        assert np.max(np.abs(eff.mat - kraus_null(Strength(float(m))).mat)) < 1e-8

    def test_rejects_projective(self):
        with pytest.raises(DomainError):
            effective_kraus_from_integral(Strength(0.0))


class TestReadoutPdf:
    def test_e_state_single_centered_cloud(self):
        st = QutritState(np.array([0, 1, 0], dtype=complex), normalized=True)
        d = readout_pdf(st, Strength(0.5))
        assert d.p_f == 0.0
        assert abs(d.pdf(0.0) - 1 / np.sqrt(2 * np.pi)) < 1e-14

    def test_f_state_single_displaced_cloud(self):
        st = QutritState(np.array([1, 0, 0], dtype=complex), normalized=True)
        d = readout_pdf(st, Strength(0.5))
        assert d.p_f == 1.0
        assert abs(d.pdf(d.separation) - 1 / np.sqrt(2 * np.pi)) < 1e-14

    def test_equal_mixture_mean(self):
        st = axis_state(MeasurementAxis(np.pi / 2, 0.0))
        d = readout_pdf(st, Strength(0.5))
        r, wt = readout_quadrature()
        mean = np.sum(wt * r * d.pdf(r))
        assert abs(d.p_f - 0.5) < 1e-14
        assert abs(mean - d.separation / 2.0) < 1e-8
        assert abs(mean - d.mean()) < 1e-8

    @pytest.mark.parametrize("m", [0.1, 0.5, 0.9])
    def test_normalization(self, m):
        st = axis_state(MeasurementAxis(1.1, 0.3))
        d = readout_pdf(st, Strength(m))
        r, wt = readout_quadrature()
        assert abs(np.sum(wt * d.pdf(r)) - 1.0) < 1e-10

    def test_unnormalized_state_rejected(self):
        with pytest.raises(DomainError):
            readout_pdf(QutritState(np.array([1.0, 1.0, 0.0])), Strength(0.5))


class TestQuadratureRule:
    def test_gaussian_integral_exact(self):
        r, wt = readout_quadrature()
        assert abs(np.sum(wt * np.exp(-r ** 2 / 2) / np.sqrt(2 * np.pi)) - 1.0) < 1e-14
