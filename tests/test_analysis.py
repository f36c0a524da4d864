import numpy as np
import pytest

from geophase import analysis as an
from geophase.errors import (AntipodalError, DomainError,
                             UnwrapError)
from geophase.measurement import Strength
from geophase.protocol import (ProtocolSpec, run_protocol_analytic,
                               _amplitudes_for_thetas)
from geophase.qutrit import MeasurementAxis, axis_state, bloch_of


def circ_diff(a, b):
    return abs(np.angle(np.exp(1j * (np.asarray(a) - np.asarray(b)))))


@pytest.fixture(scope="module")
def transition():
    return an.find_critical_strength()


class TestSolidAngle:
    def test_octant(self):
        x, y, z = np.eye(3)
        assert abs(an.solid_angle_polygon([x, y, z]) - np.pi / 2) < 1e-12

    def test_octant_reversed(self):
        x, y, z = np.eye(3)
        assert abs(an.solid_angle_polygon([x, z, y]) + np.pi / 2) < 1e-12

    def test_equatorial_hexagon_bounds_hemisphere(self):
        # vertex order matching a decreasing-azimuth measurement schedule,
        # which is ascending azimuth on the displayed sphere
        hexagon = [bloch_of(axis_state(MeasurementAxis(np.pi / 2, phi)))
                   for phi in -2 * np.pi * np.arange(6) / 6]
        assert abs(an.solid_angle_polygon(hexagon) - 2 * np.pi) < 1e-12

    def test_repeated_vertex_contributes_nothing(self):
        x, y, z = np.eye(3)
        a = an.solid_angle_polygon([x, y, z])
        b = an.solid_angle_polygon([x, y, y, z, z, x])
        assert abs(a - b) < 1e-12

    def test_small_cap_area(self):
        t = 0.05
        ring = [np.array([np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)])
                for p in np.linspace(0, 2 * np.pi, 60, endpoint=False)]
        cap = 2 * np.pi * (1 - np.cos(t))
        assert abs(an.solid_angle_polygon(ring) - cap) < 1e-4
        assert abs(an.solid_angle_polygon(ring[::-1]) + cap) < 1e-4

    def test_antipodal_rejected(self):
        x, y, _ = np.eye(3)
        with pytest.raises(AntipodalError):
            an.solid_angle_polygon([x, -x, y])

    def test_too_few_vertices(self):
        x, y, _ = np.eye(3)
        with pytest.raises(DomainError):
            an.solid_angle_polygon([x, y])

    def test_fully_degenerate_is_zero(self):
        x = np.array([1.0, 0.0, 0.0])
        assert an.solid_angle_polygon([x, x, x]) == 0.0


class TestPancharatnam:
    def test_hexagon_states(self):
        states = [axis_state(MeasurementAxis(np.pi / 2, phi))
                  for phi in -2 * np.pi * np.arange(7) / 6]
        assert circ_diff(an.pancharatnam_phase(states), np.pi) < 1e-10

    def test_identical_states_zero(self):
        st = axis_state(MeasurementAxis(1.0, 0.3))
        assert an.pancharatnam_phase([st, st, st, st]) == 0.0

    def test_triangle_equals_half_solid_angle(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            axes = [MeasurementAxis(float(np.arccos(rng.uniform(-1, 1))),
                                    float(rng.uniform(-np.pi, np.pi)))
                    for _ in range(3)]
            states = [axis_state(a) for a in axes]
            polygon = [bloch_of(s) for s in states]
            pan = an.pancharatnam_phase(states + states[:1])
            half = 0.5 * an.solid_angle_polygon(polygon)
            assert circ_diff(pan, half) < 1e-10

    def test_open_list_rejected(self):
        a = axis_state(MeasurementAxis(1.0, 0.0))
        b = axis_state(MeasurementAxis(1.0, 1.0))
        with pytest.raises(DomainError):
            an.pancharatnam_phase([a, b])

    def test_orthogonal_overlap_rejected(self):
        a = axis_state(MeasurementAxis(0.0, 0.0))
        b = axis_state(MeasurementAxis(np.pi, 0.0))
        with pytest.raises(DomainError):
            an.pancharatnam_phase([a, b, a])


class TestPhaseCurve:
    def test_projective_curve_winds_to_2pi(self):
        curve = an.phase_vs_theta(Strength(0.0))
        assert curve.unwrappable
        assert abs(curve.chi[0]) == 0.0
        assert abs(curve.chi[-1] - 2 * np.pi) < 1e-9
        assert an.chern_from_curve(curve) == 1

    def test_no_measurement_curve_is_flat(self):
        curve = an.phase_vs_theta(Strength(1.0))
        assert np.nanmax(np.abs(curve.chi)) < 1e-9
        assert an.chern_from_curve(curve) == 0

    def test_above_critical_returns_to_zero(self, transition):
        m = transition.m_star.m + 0.02
        curve = an.phase_vs_theta(Strength(m))
        assert abs(curve.chi[-1]) < 1e-9
        assert an.chern_from_curve(curve) == 0

    def test_below_critical_winds(self, transition):
        m = transition.m_star.m - 0.02
        curve = an.phase_vs_theta(Strength(m))
        assert abs(curve.chi[-1] - 2 * np.pi) < 1e-9
        assert an.chern_from_curve(curve) == 1

    def test_refinement_near_critical(self, transition):
        # just below the transition the equatorial branch steepens enough
        # that midpoint refinement has to engage
        m = transition.m_star.m - 1e-6
        curve = an.phase_vs_theta(Strength(m))
        assert curve.unwrappable
        assert curve.theta.size > an.DEFAULT_CURVE_NODES  # midpoints inserted
        assert an.chern_from_curve(curve) == 1

    def test_curves_survive_a_hair_from_critical(self, transition):
        for dm in (1e-8, -1e-8):
            curve = an.phase_vs_theta(Strength(transition.m_star.m + dm))
            assert curve.unwrappable
            assert an.chern_from_curve(curve) == (1 if dm < 0 else 0)

    def test_grid_must_start_at_zero(self):
        with pytest.raises(DomainError):
            an.phase_vs_theta(Strength(0.5), np.linspace(0.1, np.pi, 20))

    def test_chern_requires_full_span(self):
        curve = an.phase_vs_theta(Strength(0.5), np.linspace(0, np.pi / 2, 33))
        with pytest.raises(DomainError):
            an.chern_from_curve(curve)

    def test_chern_rejects_non_unwrappable(self):
        curve = an.phase_vs_theta(Strength(0.5))
        broken = an.PhaseCurve(theta=curve.theta, chi_wrapped=curve.chi_wrapped,
                               chi=curve.chi, contrast=curve.contrast,
                               defined=curve.defined, strength=curve.strength,
                               n_meas=curve.n_meas,
                               reference_weight=curve.reference_weight,
                               unwrappable=False)
        with pytest.raises(UnwrapError):
            an.chern_from_curve(broken)


class TestConvergenceToStrongLimit:
    @pytest.mark.parametrize("theta", [np.pi / 6, np.pi / 3, 2 * np.pi / 3])
    def test_projective_error_strictly_decreasing(self, theta):
        grid = np.unique(np.concatenate([np.linspace(0, np.pi, 97), [theta]]))
        errors = []
        for n in (6, 24, 96, 384):
            curve = an.phase_vs_theta(Strength(0.0), grid, n_meas=n)
            chi = float(curve.chi[curve.at(np.array([theta]))][0])
            errors.append(abs(chi - np.pi * (1 - np.cos(theta))))
        assert np.all(np.diff(errors) < 0.0)


class TestProjectiveConsistency:
    @pytest.mark.parametrize("theta", np.linspace(0.15, np.pi - 0.15, 9))
    def test_three_routes_agree(self, theta):
        spec = ProtocolSpec(theta=float(theta), strength=Strength(0.0))
        result, record = run_protocol_analytic(spec)

        vertices = record.points
        states = [axis_state(_axis_of(b)) for b in map(_as_bloch, vertices)]
        states.append(states[0])
        pan = an.pancharatnam_phase(states)
        half_omega = 0.5 * an.solid_angle_polygon(vertices)

        assert circ_diff(result.phase, pan) < 1e-9
        assert circ_diff(result.phase, half_omega) < 1e-9


@pytest.mark.parametrize("call", [
    lambda: _amplitudes_for_thetas(np.array([np.nan]), Strength(0.5)),
    lambda: an.sweep_phase_map([0.0, 1.0, np.nan], [0.5]),
    lambda: an.sweep_phase_map([0.0, 1.0], [0.5, np.nan]),
    lambda: an.phase_vs_theta(Strength(0.5), [0.0, 1.0, np.nan]),
    lambda: an.trajectory_surface(
        Strength(0.3), np.append(np.linspace(0.0, np.pi, 64)[:-1], np.nan)),
], ids=["kernel-theta", "sweep-theta", "sweep-m", "curve-theta",
        "surface-theta"])
def test_nan_fails_range_checks(call):
    # NaN compares false both ways, so a check must ask for the inside
    with pytest.raises(DomainError):
        call()


def _as_bloch(arr):
    from geophase.qutrit import BlochVector
    v = arr / np.linalg.norm(arr)
    return BlochVector(float(v[0]), float(v[1]), float(v[2]))


def _axis_of(b):
    """The axis whose state has Bloch vector b (mirrored azimuth)."""
    theta = float(np.arccos(np.clip(b.z, -1.0, 1.0)))
    return MeasurementAxis(theta, float(-np.arctan2(b.y, b.x)))


class TestSurfaceDegree:
    def test_strong_wraps(self):
        assert an.surface_degree(Strength(0.01)) == 1

    def test_weak_does_not_wrap(self):
        assert an.surface_degree(Strength(0.99)) == 0

    @pytest.mark.parametrize("m", np.round(np.arange(0.1, 1.0, 0.1), 2))
    def test_agrees_with_winding_outside_band(self, m, transition):
        if abs(m - transition.m_star.m) < 0.02:
            pytest.skip("inside the declared exclusion band")
        deg = an.surface_degree(Strength(float(m)))
        chern = an.chern_from_curve(an.phase_vs_theta(Strength(float(m))))
        assert deg == chern

    def test_rejects_m_one(self):
        with pytest.raises(DomainError):
            an.surface_degree(Strength(1.0))

    def test_rejects_coarse_grid(self):
        with pytest.raises(DomainError):
            an.surface_degree(Strength(0.5), np.linspace(0, np.pi, 8))

    def test_antipodal_segment_reported(self):
        loops = np.array([[[0, 0, 1.0], [0, 0, -1.0], [1.0, 0, 0]]])
        with pytest.raises(AntipodalError) as err:
            an._slerp_loops(loops, 4, np.array([0.7]))
        assert err.value.segment == 0
        assert err.value.theta == 0.7


class TestTransition:
    def test_report(self, transition):
        lo, hi = transition.bracket
        assert hi - lo <= 1e-4
        assert lo < transition.m_star.m < hi
        assert transition.chern_below == 1
        assert transition.chern_above == 0
        assert transition.contrast_min < 1e-3
        assert abs(transition.jump_at_equator - np.pi) <= 0.05

    def test_exactly_one_flip_on_fine_grid(self):
        ms = np.linspace(0.005, 0.995, 200)
        cherns = [an.chern_from_curve(an.phase_vs_theta(
            Strength(float(m)), np.linspace(0, np.pi, 65))) for m in ms]
        flips = np.nonzero(np.diff(cherns))[0]
        assert len(flips) == 1
        assert cherns[0] == 1 and cherns[-1] == 0

    def test_tol_floor(self):
        with pytest.raises(DomainError):
            an.find_critical_strength(tol=1e-9)

    def test_nan_tol_rejected(self):
        # a NaN width would skip the bisection and report the start bracket
        with pytest.raises(DomainError, match="tol=nan"):
            an.find_critical_strength(tol=float("nan"))

    def test_infinite_tol_rejected(self):
        # an infinite width skips the bisection the same way
        with pytest.raises(DomainError, match="tol=inf must be finite"):
            an.find_critical_strength(tol=float("inf"))

    def test_critical_strength_grows_with_sequence_length(self, transition):
        # finer wrapping needs less backaction per step, so the flip moves
        # toward weaker measurements (larger m)
        r24 = an.find_critical_strength(n_meas=24, tol=1e-3)
        r96 = an.find_critical_strength(n_meas=96, tol=1e-3)
        assert transition.m_star.m < r24.m_star.m < r96.m_star.m < 1.0
        assert r24.chern_below == 1 and r24.chern_above == 0
        assert r96.chern_below == 1 and r96.chern_above == 0


class TestEquatorSymmetry:
    @pytest.mark.parametrize("m", [0.15, 0.55, 0.85])
    def test_contrast_mirror(self, m):
        thetas = np.linspace(0.1, np.pi / 2, 15)
        a = np.abs(_amplitudes_for_thetas(thetas, Strength(m)))
        b = np.abs(_amplitudes_for_thetas(np.pi - thetas, Strength(m)))
        assert np.max(np.abs(a - b)) < 1e-9

    @pytest.mark.parametrize("m", [0.15, 0.55, 0.85])
    def test_phase_mirror(self, m):
        thetas = np.linspace(0.1, np.pi / 2, 15)
        a = np.angle(_amplitudes_for_thetas(thetas, Strength(m)))
        b = np.angle(_amplitudes_for_thetas(np.pi - thetas, Strength(m)))
        eq = np.angle(_amplitudes_for_thetas(np.array([np.pi / 2]),
                                             Strength(m)))[0]
        assert np.max(circ_diff(a + b, 2 * eq)) < 1e-9


class TestSweep:
    def test_64x64_map(self, transition):
        pm = an.sweep_phase_map(np.linspace(0, np.pi, 64),
                                np.linspace(0, 1, 64))
        assert pm.n_cells == 64 * 64
        i, j = np.unravel_index(np.nanargmin(pm.contrast), pm.contrast.shape)
        step = np.pi / 63
        assert abs(pm.theta_grid[i] - np.pi / 2) <= step + 1e-12
        assert abs(pm.strength_grid[j] - transition.m_star.m) < 0.02

        # strong edge: the m = 0 column follows the six-step discretization
        # of pi(1 - cos theta); closed-form product of six equal overlaps
        alpha = 2 * np.pi / 6
        z = (np.cos(pm.theta_grid / 2) ** 2
             + np.exp(1j * alpha) * np.sin(pm.theta_grid / 2) ** 2)
        chi6 = 6 * np.angle(z)
        assert np.nanmax(np.abs(pm.chi_unwrapped[:, 0] - chi6)) < 1e-9
        assert np.nanmax(np.abs(pm.chi_unwrapped[:, 0]
                                - np.pi * (1 - np.cos(pm.theta_grid)))) < 0.12

        # weak edge: flat zero
        assert np.nanmax(np.abs(pm.chi_wrapped[:, -1])) < 1e-6

    def test_workers_produce_identical_maps(self):
        thetas = np.linspace(0, np.pi, 21)
        ms = np.linspace(0, 1, 9)
        pm1 = an.sweep_phase_map(thetas, ms, workers=1)
        pm2 = an.sweep_phase_map(thetas, ms, workers=4)
        assert np.array_equal(pm1.chi_wrapped, pm2.chi_wrapped)
        assert np.array_equal(pm1.chi_unwrapped, pm2.chi_unwrapped, equal_nan=True)
        assert np.array_equal(pm1.contrast, pm2.contrast)

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            an.sweep_phase_map([0.0, 4.0], [0.5])
        with pytest.raises(DomainError):
            an.sweep_phase_map([0.0, 1.0], [1.5])

    @pytest.mark.parametrize("weight", [-1.0, 0.0, 1.0, 1.5, float("nan")])
    def test_reference_weight_outside_unit_interval(self, weight):
        with pytest.raises(DomainError, match="reference_weight="):
            an.sweep_phase_map([0.0, 1.0], [0.5], reference_weight=weight)


class TestExactTransition:
    M_STAR_N3 = 2.0 / np.sqrt(3.0) - 1.0

    @staticmethod
    def equator(m, n_meas=6, w=0.5, phi_schedule=None):
        return complex(_amplitudes_for_thetas(
            np.array([0.5 * np.pi]), np.array([m]), n_meas=n_meas,
            reference_weight=w, phi_schedule=phi_schedule)[0])

    @pytest.mark.parametrize("tol", [1e-4, 1e-6])
    def test_n3_pin(self, tol):
        report = an.find_critical_strength(n_meas=3, tol=tol)
        assert abs(report.m_star.m - self.M_STAR_N3) < 1e-14

    @pytest.mark.parametrize("n_meas", [3, 6, 24])
    def test_contrast_vanishes_and_root_is_weight_free(self, n_meas):
        reports = [an.find_critical_strength(n_meas=n_meas,
                                             reference_weight=w)
                   for w in (0.2, 0.5, 0.8)]
        assert all(r.contrast_min < 1e-14 for r in reports)
        m_stars = [r.m_star.m for r in reports]
        assert max(m_stars) - min(m_stars) < 1e-15

    def test_custom_schedule_root_in_bracket(self):
        schedule = (-0.9, -2.0, -3.2, -4.1, -5.2, -2.0 * np.pi)
        report = an.find_critical_strength(phi_schedule=schedule)
        lo, hi = report.bracket
        assert lo <= report.m_star.m <= hi
        a_star = abs(self.equator(report.m_star.m, phi_schedule=schedule))
        assert a_star == report.contrast_min
        assert a_star <= min(abs(self.equator(lo, phi_schedule=schedule)),
                             abs(self.equator(hi, phi_schedule=schedule)))

    def test_counters(self):
        report = an.find_critical_strength(tol=1e-4)
        # two ends plus one curve per halving of the width 0.998
        assert report.curves == 2 + int(np.ceil(np.log2(0.998 / 1e-4)))
        assert report.nudge_retries == 0
        assert report.root_calls > 0

    def test_counters_record_nudge_retries(self, monkeypatch):
        plain = an.find_critical_strength(tol=1e-3)
        real = an.phase_vs_theta
        failed = []

        def first_curve_fails(strength, *args, **kwargs):
            if not failed:
                failed.append(strength.m)
                raise UnwrapError("forced")
            return real(strength, *args, **kwargs)

        monkeypatch.setattr(an, "phase_vs_theta", first_curve_fails)
        nudged = an.find_critical_strength(tol=1e-3)
        assert failed == [1e-3]
        assert nudged.nudge_retries == 1
        assert nudged.curves == plain.curves + 1
        assert nudged.bracket == plain.bracket
