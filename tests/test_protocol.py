import numpy as np
import pytest

from geophase.errors import DomainError
from geophase.measurement import Strength, kraus_null
from geophase.protocol import (CLOSING_PHI, CONTRAST_FLOOR, ProtocolSpec,
                               default_schedule, initial_state, measure_along,
                               run_protocol_analytic, _amplitudes_for_thetas,
                               _frame_steps, _uniform_amplitudes)
from geophase.qutrit import (E, F, MeasurementAxis, Operator3, QutritState,
                             axis_state, bloch_of, rotation_to_axis)
from geophase.spec import closed_form


def amplitude(result):
    return result.contrast * np.exp(1j * result.phase)


def per_step_amplitude(spec):
    """The interference amplitude as a product of per-step 3x3 operators."""
    state = initial_state(spec.theta, spec.reference_weight)
    for ax in spec.axes:
        state = measure_along(state, ax, spec.strength)
    close = rotation_to_axis(spec.closing_axis)
    return (2 * np.sqrt(spec.reference_weight)
            * (close.mat @ state.vec)[E])


def circ_diff(a, b):
    return abs(np.angle(np.exp(1j * (a - b))))


class TestSpec:
    def test_default_schedule_wraps_to_minus_2pi(self):
        spec = ProtocolSpec(theta=1.0, strength=Strength(0.5))
        sched = np.asarray(spec.phi_schedule)
        assert len(sched) == 6
        assert np.all(np.diff(sched) < 0)
        assert abs(sched[-1] + 2 * np.pi) < 1e-15

    def test_custom_schedule_length_checked(self):
        with pytest.raises(DomainError):
            ProtocolSpec(theta=1.0, strength=Strength(0.5), n_meas=6,
                         phi_schedule=(-1.0, -2.0))

    def test_reference_weight_bounds(self):
        with pytest.raises(DomainError):
            ProtocolSpec(theta=1.0, strength=Strength(0.5), reference_weight=0.0)

    @pytest.mark.parametrize("kwargs, message", [
        ({"n_meas": 0}, "n_meas=0 must be positive"),
        ({"reference_weight": 1.0}, "reference_weight=1.0 outside (0, 1)"),
    ])
    def test_kernel_rule_messages(self, kwargs, message):
        with pytest.raises(DomainError) as err:
            ProtocolSpec(theta=1.0, strength=Strength(0.5), **kwargs)
        assert str(err.value) == message


class TestMeasureAlong:
    def test_state_on_axis_unchanged(self):
        st = QutritState(np.array([0, 1, 0], dtype=complex))
        for m in [0.0, 0.3, 1.0]:
            out = measure_along(st, MeasurementAxis(0.0, 0.0), Strength(m))
            assert np.allclose(out.vec, st.vec, atol=1e-15)

    def test_antipodal_state_attenuated(self):
        st = QutritState(np.array([1, 0, 0], dtype=complex))
        out = measure_along(st, MeasurementAxis(0.0, 0.0), Strength(0.3))
        assert np.allclose(out.vec, 0.3 * st.vec, atol=1e-15)

    def test_projective_overlap(self):
        # |<n'|n>|^2 = (1 + cos gamma)/2 with gamma the axis angle
        st = axis_state(MeasurementAxis(np.pi / 2, 0.0))
        out = measure_along(st, MeasurementAxis(np.pi / 2, -np.pi / 3),
                            Strength(0.0))
        assert abs(out.norm - np.cos(np.pi / 6)) < 1e-12

    def test_g_amplitude_exactly_unchanged(self):
        rng = np.random.default_rng(2)
        st = QutritState(np.array([0.2 - 0.5j, 0.1 + 0.4j, 0.6 + 0.3j]))
        for _ in range(25):
            ax = MeasurementAxis(float(np.arccos(rng.uniform(-1, 1))),
                                 float(rng.uniform(-7, 7)))
            st = measure_along(st, ax, Strength(float(rng.uniform(0.05, 1))))
        assert st.a_g == 0.6 + 0.3j

    def test_gauge_invariance_of_conjugated_kraus(self):
        # e^{i alpha} R gives the same conjugated operator
        rng = np.random.default_rng(9)
        for _ in range(20):
            ax = MeasurementAxis(float(np.arccos(rng.uniform(-1, 1))),
                                 float(rng.uniform(-7, 7)))
            s = Strength(float(rng.uniform(0, 1)))
            r = rotation_to_axis(ax)
            phased = Operator3(np.exp(1j * rng.uniform(0, 2 * np.pi)) * r.mat)
            k_plain = r.dagger() @ kraus_null(s) @ r
            k_phased = phased.dagger() @ kraus_null(s) @ phased
            assert np.max(np.abs(k_plain.mat - k_phased.mat)) < 1e-12


class TestAnalyticProtocol:
    def test_north_pole_trivial(self):
        for m in [0.0, 0.4, 1.0]:
            res, _ = run_protocol_analytic(
                ProtocolSpec(theta=0.0, strength=Strength(m)))
            assert abs(res.contrast - 1.0) < 1e-12
            assert circ_diff(res.phase, 0.0) < 1e-12

    def test_no_measurement_trivial(self):
        res, _ = run_protocol_analytic(
            ProtocolSpec(theta=1.234, strength=Strength(1.0)))
        assert abs(res.contrast - 1.0) < 1e-12
        assert circ_diff(res.phase, 0.0) < 1e-12

    def test_equatorial_hexagon(self):
        res, _ = run_protocol_analytic(
            ProtocolSpec(theta=np.pi / 2, strength=Strength(0.0)))
        assert abs(res.contrast - 27 / 64) < 1e-12
        assert circ_diff(res.phase, np.pi) < 1e-10

    def test_south_pole_fixed_point(self):
        for m in [0.0, 0.3, 0.8]:
            res, _ = run_protocol_analytic(
                ProtocolSpec(theta=np.pi, strength=Strength(m)))
            assert abs(res.contrast - 1.0) < 1e-12
            assert circ_diff(res.phase, 0.0) < 1e-12

    def test_reference_amplitude_immune(self):
        for w in [0.25, 0.5, 0.8]:
            spec = ProtocolSpec(theta=1.1, strength=Strength(0.4),
                                reference_weight=w)
            state = initial_state(spec.theta, w)
            for ax in spec.axes:
                state = measure_along(state, ax, spec.strength)
            assert abs(state.a_g - np.sqrt(w)) < 1e-14

    def test_contrast_bound(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            w = float(rng.uniform(0.05, 0.95))
            spec = ProtocolSpec(theta=float(rng.uniform(0, np.pi)),
                                strength=Strength(float(rng.uniform(0, 1))),
                                reference_weight=w)
            res, _ = run_protocol_analytic(spec)
            assert res.contrast <= 2 * np.sqrt(w * (1 - w)) + 1e-12

    def test_schedule_reversal_negates_phase(self):
        base = ProtocolSpec(theta=1.0, strength=Strength(0.35))
        reverse = ProtocolSpec(
            theta=1.0, strength=Strength(0.35),
            phi_schedule=tuple(-p for p in base.phi_schedule))
        r1, _ = run_protocol_analytic(base)
        r2, _ = run_protocol_analytic(reverse)
        assert abs(r1.contrast - r2.contrast) < 1e-12
        assert circ_diff(r1.phase, -r2.phase) < 1e-12

    def test_gauge_invariance_of_full_run(self):
        # dressing every measurement rotation with a random phase leaves the
        # interference amplitude untouched
        rng = np.random.default_rng(21)
        spec = ProtocolSpec(theta=0.9, strength=Strength(0.45))
        reference, _ = run_protocol_analytic(spec)
        state = initial_state(spec.theta, spec.reference_weight)
        for ax in spec.axes:
            r = rotation_to_axis(ax)
            phased = Operator3(np.exp(1j * rng.uniform(0, 2 * np.pi)) * r.mat)
            k = phased.dagger() @ kraus_null(spec.strength) @ phased
            state = k.apply(state)
        close = rotation_to_axis(spec.closing_axis)
        amp = 2 * np.sqrt(spec.reference_weight) * (close.mat @ state.vec)[E]
        assert abs(amp - amplitude(reference)) < 1e-12

    def test_monotone_dephasing_above_the_dip(self):
        # Strengthening the measurement (decreasing m) dephases monotonically
        # down to the contrast dip near the transition; below the dip the
        # dragged state recovers contrast, so the monotone range is m >= 0.4
        # at theta = pi/4 (c(pi/4, 0.02) = 0.636 > c(pi/4, 0.35) = 0.62).
        ms = np.linspace(1.0, 0.4, 25)
        cs = [run_protocol_analytic(
            ProtocolSpec(theta=np.pi / 4, strength=Strength(float(m))))[0].contrast
            for m in ms]
        assert np.all(np.diff(cs) < 1e-12)

    def test_dephasing_non_monotone_below_the_dip(self):
        # counterexample pinning the restriction above
        c_projective = run_protocol_analytic(
            ProtocolSpec(theta=np.pi / 4, strength=Strength(0.0)))[0].contrast
        c_dip = run_protocol_analytic(
            ProtocolSpec(theta=np.pi / 4, strength=Strength(0.35)))[0].contrast
        assert c_projective > c_dip + 0.01

    def test_batch_matches_single_runs(self):
        # the kernel against the per-step 3x3 product it replaces
        rng = np.random.default_rng(31)
        cases = [(6, 0.5, None), (3, 0.37, None), (24, 0.8, None),
                 (5, 0.6, tuple(rng.uniform(-7.0, 7.0, 5)))]
        thetas = np.linspace(0.0, np.pi, 9)
        for n, w, schedule in cases:
            for m in [0.0, 0.3, 0.6, 1.0]:
                amps = _amplitudes_for_thetas(thetas, Strength(m), n, w,
                                              schedule)[0]
                for th, a in zip(thetas, amps):
                    spec = ProtocolSpec(theta=float(th), strength=Strength(m),
                                        n_meas=n, phi_schedule=schedule,
                                        reference_weight=w)
                    ref = per_step_amplitude(spec)
                    assert abs(a - ref) < 1e-13
                    res, _ = run_protocol_analytic(spec)
                    assert abs(amplitude(res) - ref) < 1e-13

    def test_grid_call_equals_column_calls(self):
        thetas = np.linspace(0.0, np.pi, 33)
        ms = np.array([0.0, 0.2, 0.4725, 0.8, 1.0])
        amps, pairs, _ = _amplitudes_for_thetas(thetas[:, None], ms, 7, 0.3)
        assert amps.shape == (33, 5) and pairs.shape == (33, 5, 8, 2)
        for j, m in enumerate(ms):
            col, col_pairs, _ = _amplitudes_for_thetas(thetas, Strength(m),
                                                       7, 0.3)
            assert amps[:, j].tobytes() == col.tobytes()
            assert pairs[:, j].tobytes() == col_pairs.tobytes()



class TestUniformSchedule:
    THETAS = np.linspace(0.0, np.pi, 33)

    @pytest.mark.parametrize("n", [1, 7, 4096])
    def test_grid_call_equals_column_calls(self, n):
        # sweep_phase_map copies refined single-strength curves into its map
        ms = np.array([0.0, 0.2, 0.4725, 0.8, 1.0])
        amps = _uniform_amplitudes(self.THETAS[:, None], ms, n, 0.3)
        assert amps.shape == (33, 5)
        for j, m in enumerate(ms):
            col = _uniform_amplitudes(self.THETAS, Strength(m), n, 0.3)
            assert amps[:, j].tobytes() == col.tobytes()

    @pytest.mark.parametrize("n", [3, 6, 384, 4096])
    def test_projective_product(self, n):
        # at m = 0 only K[E,E] = c^2 + s^2 exp(2 pi i/N) survives, and the
        # amplitude is its N-th power (w = 1/2 makes the prefactor 1)
        c, s = np.cos(0.5 * self.THETAS), np.sin(0.5 * self.THETAS)
        z = c * c + s * s * np.exp(2j * np.pi / n)
        exact = np.abs(z) ** n * np.exp(1j * n * np.angle(z))
        amps = _uniform_amplitudes(self.THETAS, Strength(0.0), n, 0.5)
        assert np.max(np.abs(amps - exact)) < 4 * np.finfo(float).eps * n


class TestKernelArgs:
    @pytest.mark.parametrize("kernel", [_uniform_amplitudes,
                                        _amplitudes_for_thetas])
    @pytest.mark.parametrize("m", [1.5, -0.5, np.nan])
    def test_strength_array_outside_unit_interval(self, kernel, m):
        # a Strength has checked its own m; an m array is checked by the kernel
        with pytest.raises(DomainError) as err:
            kernel(np.array([1.0]), np.array([0.5, m]))
        assert str(err.value) == "strength grid outside [0, 1]"

    def test_theta_grid_message(self):
        with pytest.raises(DomainError) as err:
            _uniform_amplitudes(np.array([0.0, 4.0]), Strength(0.5))
        assert str(err.value) == "theta grid outside [0, pi]"


class TestFrameSteps:
    THETAS = np.array([0.0, 0.7, np.pi / 2, 2.9, np.pi])

    @pytest.mark.parametrize("schedule", [
        default_schedule(1), default_schedule(3), default_schedule(6),
        (-0.3, 12.7, -50.0, 41.9, -7.2, 3.3)])
    def test_steps_are_the_composed_rotations(self, schedule):
        # S_k = R_k R_{k-1}^dag with phi_0 = 0 and the closing axis last,
        # against the {e,f} block of the 3x3 rotations
        phis = (0.0, *schedule, CLOSING_PHI)
        steps = list(_frame_steps(self.THETAS, schedule))
        assert len(steps) == len(schedule) + 1
        for k, (s_ff, s_fe, s_ee) in enumerate(steps, start=1):
            got = np.array([[s_ff, s_fe], [s_fe, s_ee]])
            for theta, mat in zip(self.THETAS, got.transpose(2, 0, 1)):
                ref = (rotation_to_axis(MeasurementAxis(theta, phis[k])).mat
                       @ rotation_to_axis(MeasurementAxis(theta, phis[k - 1]))
                       .dagger().mat)
                assert np.max(np.abs(mat - ref[np.ix_([F, E], [F, E])])) < 1e-15


class TestPathRecord:
    def test_matches_per_step_product(self):
        for theta, m, n in [(0.7, 0.3, 6), (2.1, 0.55, 5), (1.2, 0.0, 4)]:
            spec = ProtocolSpec(theta=theta, strength=Strength(m), n_meas=n)
            _, rec = run_protocol_analytic(spec)
            assert np.max(np.abs(np.linalg.norm(rec.points, axis=1)
                                 - 1.0)) < 1e-12
            state = initial_state(theta, spec.reference_weight)
            for k, ax in enumerate(spec.axes):
                before = state
                state = measure_along(state, ax, spec.strength)
                assert np.max(np.abs(rec.points[k]
                                     - bloch_of(before).as_array())) < 1e-13
                assert np.max(np.abs(rec.points[k + 1]
                                     - bloch_of(state).as_array())) < 1e-13
                assert abs(rec.factors[k]
                           - state.ef_norm / before.ef_norm) < 1e-13

    def test_batched_lab_pairs_match_per_step_product(self):
        # nine thetas in one kernel call, N = 96, and a custom schedule
        # whose azimuths run out to about -50, so each pair's return to
        # the lab frame carries a large exp(i phi_k)
        rng = np.random.default_rng(5)
        schedule = tuple(np.cumsum(rng.uniform(-1.0, -0.05, 96)))
        assert 45.0 < -schedule[-1] < 55.0
        thetas = np.linspace(0.0, np.pi, 9)
        strength = Strength(0.7)
        _, pairs, _ = _amplitudes_for_thetas(thetas, strength, 96, 0.4,
                                             schedule)
        for theta, row in zip(thetas, pairs):
            spec = ProtocolSpec(theta=theta, strength=strength, n_meas=96,
                                phi_schedule=schedule, reference_weight=0.4)
            state = initial_state(theta, 0.4)
            for k, ax in enumerate((None, *spec.axes)):
                if ax is not None:
                    state = measure_along(state, ax, strength)
                lab = QutritState(np.array([*row[k], 0.0]))
                assert np.max(np.abs(bloch_of(lab).as_array()
                                     - bloch_of(state).as_array())) < 1e-13

    def test_annihilated_path_freezes(self):
        spec = ProtocolSpec(theta=np.pi / 2, strength=Strength(0.0), n_meas=3,
                            phi_schedule=(-np.pi, -1.5 * np.pi, -2 * np.pi))
        _, rec = run_protocol_analytic(spec)
        assert np.array_equal(rec.points[1:], [rec.points[0]] * 3)
        assert rec.factors[0] < 1e-15

    def test_shape_and_factors(self):
        spec = ProtocolSpec(theta=np.pi / 2, strength=Strength(0.0))
        _, rec = run_protocol_analytic(spec)
        assert rec.factors.shape == (6,)
        for factor in rec.factors:
            assert 0.0 < factor <= 1.0
            assert abs(factor - np.cos(np.pi / 6)) < 1e-12
        assert rec.points.shape == (7, 3)
        assert not (rec.points.flags.writeable or rec.factors.flags.writeable)

    def test_projective_path_visits_axes(self):
        spec = ProtocolSpec(theta=1.2, strength=Strength(0.0))
        _, rec = run_protocol_analytic(spec)
        for point, phi in zip(rec.points[1:], spec.phi_schedule):
            expect = np.array([np.sin(1.2) * np.cos(-phi),
                               np.sin(1.2) * np.sin(-phi), np.cos(1.2)])
            assert np.max(np.abs(point - expect)) < 1e-12

    def test_weak_limit_path_stays_home(self):
        spec = ProtocolSpec(theta=1.2, strength=Strength(1.0))
        _, rec = run_protocol_analytic(spec)
        start = rec.points[0]
        for point, factor in zip(rec.points[1:], rec.factors):
            assert np.max(np.abs(point - start)) < 1e-12
            assert factor == 1.0


class TestProjectiveProtocol:
    def test_equatorial_hexagon(self):
        res, _ = run_protocol_analytic(
            ProtocolSpec(theta=np.pi / 2, strength=Strength(0.0)))
        assert abs(res.contrast - 27 / 64) < 1e-12
        assert circ_diff(res.phase, np.pi) < 1e-10

    def test_annihilation_flags_zero_contrast(self):
        # two antipodal equatorial projections wipe out the qubit component
        spec = ProtocolSpec(theta=np.pi / 2, strength=Strength(0.0), n_meas=2,
                            phi_schedule=(-np.pi, -2 * np.pi))
        res, _ = run_protocol_analytic(spec)
        assert res.contrast < CONTRAST_FLOOR
        assert not res.phase_defined

    def test_north_pole_any_n(self):
        for n in [1, 4, 13]:
            res, _ = run_protocol_analytic(
                ProtocolSpec(theta=0.0, strength=Strength(0.0), n_meas=n))
            assert abs(res.contrast - 1.0) < 1e-12
            assert circ_diff(res.phase, 0.0) < 1e-12


class TestScalarRoute:
    def test_freezes_where_the_batched_route_does(self):
        # N = 2 on the equator: the second axis is antipodal to the first,
        # so the projective step annihilates the pair and the path stays
        # at the initial point
        spec = ProtocolSpec(theta=np.pi / 2, strength=Strength(0.0), n_meas=2)
        result, record = run_protocol_analytic(spec)
        scalar, points, factors = closed_form(spec)

        def frozen(pts):
            return [k for k in range(1, len(pts))
                    if np.array_equal(pts[k], pts[k - 1])]

        assert frozen(record.points) == frozen(np.array(points)) == [1, 2]
        assert np.max(np.abs(np.array(points) - record.points)) < 1e-13
        # the step leaves only rounding of the pair
        assert max(factors) < 1e-15 and np.max(record.factors) < 1e-15
        assert scalar.contrast < CONTRAST_FLOOR and not scalar.phase_defined
        assert not result.phase_defined

    @pytest.mark.parametrize("kwargs", [
        {"theta": -0.1}, {"theta": 4.0}, {"theta": np.nan},
        {"strength": 0.5}, {"n_meas": 0}, {"n_meas": True}, {"n_meas": 2.5},
        {"reference_weight": 0.0}, {"reference_weight": 1.0},
        {"reference_weight": np.nan}, {"phi_schedule": (-1.0, -2.0)},
        {"phi_schedule": (-1.0,) * 5 + (np.inf,)},
    ], ids=repr)
    def test_refuses_as_the_batched_route_does(self, kwargs):
        args = {"theta": 1.0, "strength": Strength(0.5), **kwargs}
        errors = []
        for route in (run_protocol_analytic, closed_form):
            with pytest.raises(DomainError) as err:
                route(ProtocolSpec(**args))
            errors.append((type(err.value), str(err.value)))
        assert errors[0] == errors[1]
        if {"n_meas", "reference_weight"} & set(kwargs):
            # one statement of these rules: the batched kernel's checks
            # refuse them with the same message
            with pytest.raises(DomainError) as err:
                _amplitudes_for_thetas(np.array([1.0]), Strength(0.5),
                                       kwargs.get("n_meas", 6),
                                       kwargs.get("reference_weight", 0.5))
            assert (type(err.value), str(err.value)) == errors[0]
