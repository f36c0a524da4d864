import numpy as np
import pytest

from geophase.errors import DomainError
from geophase.qutrit import (E, F, G, BlochVector, MeasurementAxis, QutritState,
                             axis_state, bloch_of, rotation_to_axis)

E_KET = np.array([0, 1, 0], dtype=complex)
F_KET = np.array([1, 0, 0], dtype=complex)


def random_axes(n, seed=0):
    rng = np.random.default_rng(seed)
    thetas = np.arccos(rng.uniform(-1.0, 1.0, n))
    phis = rng.uniform(-2.0 * np.pi, 2.0 * np.pi, n)
    return [MeasurementAxis(float(t), float(p)) for t, p in zip(thetas, phis)]


class TestAxisState:
    def test_north_pole_ignores_phi(self):
        st = axis_state(MeasurementAxis(0.0, 1.7))
        assert np.allclose(st.vec, E_KET, atol=1e-15)

    def test_south_pole(self):
        st = axis_state(MeasurementAxis(np.pi, 0.0))
        assert np.allclose(st.vec, F_KET, atol=1e-15)

    def test_equator_with_phase(self):
        st = axis_state(MeasurementAxis(np.pi / 2, -np.pi / 3))
        expect = np.array([np.exp(-1j * np.pi / 3) / np.sqrt(2),
                           1 / np.sqrt(2), 0.0])
        assert np.allclose(st.vec, expect, atol=1e-15)

    def test_unit_norm_and_no_g(self):
        for ax in random_axes(50, seed=3):
            st = axis_state(ax)
            assert abs(st.norm - 1.0) < 1e-12
            assert st.a_g == 0.0

    def test_theta_out_of_range(self):
        with pytest.raises(DomainError):
            MeasurementAxis(-0.1, 0.0)
        with pytest.raises(DomainError):
            MeasurementAxis(np.pi + 0.1, 0.0)


class TestRotationToAxis:
    def test_north_pole_is_identity(self):
        r = rotation_to_axis(MeasurementAxis(0.0, 0.0))
        assert np.allclose(r.mat, np.eye(3), atol=1e-15)

    def test_defining_contract_equator(self):
        r = rotation_to_axis(MeasurementAxis(np.pi / 2, 0.0))
        mapped = r.mat @ np.array([1, 1, 0]) / np.sqrt(2)
        assert np.allclose(mapped, E_KET, atol=1e-15)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_exact_mapping_including_phase(self, seed):
        for ax in random_axes(50, seed=seed):
            r = rotation_to_axis(ax)
            mapped = r.mat @ axis_state(ax).vec
            assert np.max(np.abs(mapped - E_KET)) < 1e-12

    def test_antipode_maps_to_f_up_to_phase(self):
        for ax in random_axes(50, seed=7):
            r = rotation_to_axis(ax)
            antipode = MeasurementAxis(np.pi - ax.theta, ax.phi + np.pi)
            mapped = r.mat @ axis_state(antipode).vec
            assert abs(abs(mapped[F]) - 1.0) < 1e-12
            assert abs(mapped[E]) < 1e-12 and abs(mapped[G]) < 1e-12

    def test_unitary_100_axes(self):
        for ax in random_axes(100, seed=11):
            mat = rotation_to_axis(ax).mat
            assert np.max(np.abs(mat.conj().T @ mat - np.eye(3))) <= 1e-12

    def test_block_diagonal_and_commutes_with_g_projector(self):
        pg = np.diag([0.0, 0.0, 1.0])
        for ax in random_axes(50, seed=13):
            r = rotation_to_axis(ax)
            coupling = max(abs(r.mat[F, G]), abs(r.mat[E, G]),
                           abs(r.mat[G, F]), abs(r.mat[G, E]))
            assert coupling <= 1e-15
            assert np.max(np.abs(r.mat @ pg - pg @ r.mat)) < 1e-15


class TestBloch:
    def test_poles(self):
        assert np.allclose(bloch_of(QutritState(E_KET)).as_array(), [0, 0, 1])
        assert np.allclose(bloch_of(QutritState(F_KET)).as_array(), [0, 0, -1])

    def test_round_trip_100_axes(self):
        for ax in random_axes(100, seed=17):
            # mirrored azimuth: the displayed azimuth is -phi
            expect = [np.sin(ax.theta) * np.cos(-ax.phi),
                      np.sin(ax.theta) * np.sin(-ax.phi), np.cos(ax.theta)]
            got = bloch_of(axis_state(ax)).as_array()
            assert np.max(np.abs(got - expect)) < 1e-12

    def test_g_reference_does_not_shift_bloch(self):
        st = QutritState(np.array([0.3j, 0.4, 0.7 + 0.2j]))
        pure = QutritState(np.array([0.3j, 0.4, 0.0]))
        assert np.allclose(bloch_of(st).as_array(), bloch_of(pure).as_array())

    def test_zero_ef_component_raises(self):
        with pytest.raises(DomainError):
            bloch_of(QutritState(np.array([0, 0, 1], dtype=complex)))

    def test_unit_length_enforced(self):
        with pytest.raises(DomainError):
            BlochVector(1.0, 1.0, 0.0)


class TestStateInvariants:
    def test_normalized_flag_checked(self):
        with pytest.raises(DomainError):
            QutritState(np.array([1.0, 1.0, 0.0]), normalized=True)

    def test_vectors_read_only(self):
        st = axis_state(MeasurementAxis(1.0, 0.5))
        with pytest.raises(ValueError):
            st.vec[0] = 1.0
        r = rotation_to_axis(MeasurementAxis(1.0, 0.5))
        with pytest.raises(ValueError):
            r.mat[0, 0] = 1.0

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            QutritState(np.array([np.nan, 0, 0], dtype=complex))
