import dataclasses
import functools
import itertools

import numpy as np
import pytest

from geophase import analysis as an
from geophase import cli, protocol
from geophase.errors import (AnalysisError, AntipodalError, DomainError,
                             UnwrapError)
from geophase.measurement import Strength
from geophase.protocol import (ProtocolSpec, run_protocol_analytic,
                               _amplitudes_for_thetas, _uniform_amplitudes)
from geophase.qutrit import MeasurementAxis, _bloch_batch, axis_state, bloch_of
from geophase.trajectories import sample_trajectory


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

    def test_masked_midpoint_inserted_once(self, transition):
        # at m* the equator is masked and is the midpoint of the wide
        # interval that bridges it: it must not be inserted again
        grid = np.linspace(0, np.pi, 65)
        curve = an.phase_vs_theta(transition.m_star, grid)
        assert not curve.defined[32] and curve.theta[32] == 0.5 * np.pi
        assert np.array_equal(curve.theta, grid)
        assert curve.unwrappable
        assert an.chern_from_curve(curve) == 0

    @pytest.mark.parametrize("dm", [0.0, -1e-6, 1e-8])
    def test_refine_evaluates_only_inserted_nodes(self, transition, dm):
        strength = Strength(transition.m_star.m + dm)
        grid = np.linspace(0, np.pi, 65)
        evaluated = []

        def evaluate(nodes):
            evaluated.append(nodes)
            return an._uniform_amplitudes(nodes, strength)

        nodes, amps, chi, ok = an._refine(grid, evaluate(grid), evaluate)
        inserted = np.concatenate(evaluated[1:] or [np.empty(0)])
        assert inserted.size == nodes.size - grid.size
        assert np.array_equal(nodes, np.unique(np.concatenate([grid,
                                                               inserted])))
        curve = an.phase_vs_theta(strength, grid)
        assert np.array_equal(nodes, curve.theta)
        assert np.array_equal(np.angle(amps), curve.chi_wrapped)
        assert np.array_equal(chi, curve.chi, equal_nan=True)
        assert ok == curve.unwrappable

    @staticmethod
    def unwrap_against_columns(thetas, ms, n_meas=6, weight=0.5):
        """_unwrap_columns on a (theta, m) block, checked bit for bit against
        _refine on every column alone; returns the columns it refined."""
        amps = _uniform_amplitudes(thetas[:, None], ms, n_meas, weight)

        def evaluate(j, nodes):
            return _uniform_amplitudes(nodes, float(ms[j]), n_meas, weight)

        block = an._unwrap_columns(thetas, ms, n_meas=n_meas,
                                   reference_weight=weight)
        for j in range(ms.size):
            nodes, col_amps, chi, ok = an._refine(
                thetas, amps[:, j], functools.partial(evaluate, j))
            assert block.unwrappable[j] == ok
            at = np.searchsorted(nodes, thetas)
            assert block.chi[:, j].tobytes() == chi[at].tobytes()
            assert (block.chi_wrapped[:, j].tobytes()
                    == np.angle(amps[:, j]).tobytes())
            assert (block.contrast[:, j].tobytes()
                    == np.abs(amps[:, j]).tobytes())
            if j in block.refined:
                for got, want in zip(block.refined[j], (nodes, col_amps, chi)):
                    assert got.tobytes() == want.tobytes()
            else:
                assert nodes.size == thetas.size
        return {j: v[0].size - thetas.size for j, v in block.refined.items()}

    @pytest.mark.parametrize("n_meas, weight, n_theta, n_m, refined", [
        (6, 0.5, 256, 256, {120: 1, 121: 1}),
        (24, 0.3, 256, 256, {}),
        (3, 0.7, 1000, 100, {}),
        (96, 0.2, 64, 257, {245: 1}),
    ])
    def test_block_unwrap_equals_column_loop(self, n_meas, weight, n_theta,
                                             n_m, refined):
        # columns without a wide step or a masked node are settled by the
        # vectorized pass, the rest by the insertion loop: both give the
        # bits of the loop over each column alone
        thetas, ms = np.linspace(0, np.pi, n_theta), np.linspace(0, 1, n_m)
        assert self.unwrap_against_columns(thetas, ms, n_meas,
                                           weight) == refined

    def test_block_unwrap_masked_node_and_wide_step(self, transition):
        # the sweep-mstar column meets the masked equator node, which is
        # bridged without a node; a hair below m* the steps are wide
        m = transition.m_star.m
        ms = np.array([0.0, 0.3, m, m - 1e-6, 1.0])
        assert self.unwrap_against_columns(np.linspace(0, np.pi, 65),
                                           ms) == {2: 0, 3: 12}
        # at w = 1e-20 every node is masked, though no step is wide: the
        # contrast bound 2 sqrt(w (1 - w)) = 2e-10 lies under the floor, so
        # the block raises before its kernel call, and _refine on such a
        # column returns it whole, undefined and not unwrappable
        thetas = np.linspace(0, np.pi, 33)
        with pytest.raises(DomainError, match="not above the contrast floor"):
            an._unwrap_columns(thetas, np.array([0.0, 0.5, 1.0]), n_meas=6,
                               reference_weight=1e-20)
        for m in (0.0, 0.5, 1.0):
            amps = _uniform_amplitudes(thetas, m, 6, 1e-20)
            nodes, col_amps, chi, ok = an._refine(thetas, amps, None)
            assert nodes is thetas and col_amps is amps and not ok
            assert np.all(np.isnan(chi))

    def test_curves_survive_a_hair_from_critical(self, transition):
        for dm in (1e-8, -1e-8):
            curve = an.phase_vs_theta(Strength(transition.m_star.m + dm))
            assert curve.unwrappable
            assert an.chern_from_curve(curve) == (1 if dm < 0 else 0)

    def test_theta_grid_above_pi(self):
        with pytest.raises(DomainError) as err:
            an.phase_vs_theta(Strength(0.5), [0.0, 1.0, 4.0])
        assert str(err.value) == "theta grid outside [0, pi]"

    def test_grid_must_start_at_zero(self):
        with pytest.raises(DomainError):
            an.phase_vs_theta(Strength(0.5), np.linspace(0.1, np.pi, 20))

    def test_chern_requires_full_span(self):
        curve = an.phase_vs_theta(Strength(0.5), np.linspace(0, np.pi / 2, 33))
        with pytest.raises(DomainError):
            an.chern_from_curve(curve)

    def test_chern_rejects_nan_endpoint(self):
        curve = an.phase_vs_theta(Strength(0.5))
        theta = curve.theta.copy()
        theta[-1] = np.nan
        with pytest.raises(DomainError):
            an.chern_from_curve(dataclasses.replace(curve, theta=theta))

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
    lambda: _uniform_amplitudes(np.array([np.nan]), Strength(0.5)),
], ids=["kernel-theta", "sweep-theta", "sweep-m", "curve-theta",
        "surface-theta", "uniform-theta"])
def test_nan_fails_range_checks(call):
    # NaN compares false both ways, so a check must ask for the inside
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("call", [
    lambda: _amplitudes_for_thetas(np.array([1.0]), Strength(0.5), n_meas=0),
    lambda: _amplitudes_for_thetas(np.array([1.0]), Strength(0.5),
                                   n_meas=True),
    lambda: _amplitudes_for_thetas(np.array([1.0]), Strength(0.5),
                                   n_meas=2.5),
    lambda: an.phase_vs_theta(Strength(0.5), n_meas=0),
    lambda: an.sweep_phase_map(np.linspace(0.0, np.pi, 33), [0.3, 0.6],
                               n_meas=0),
    lambda: an.find_critical_strength(n_meas=0),
    lambda: an.surface_degree(Strength(0.3), n_meas=0),
    lambda: sample_trajectory(ProtocolSpec(theta=1.0, strength=Strength(0.5)),
                              -1, 0),
    lambda: sample_trajectory(ProtocolSpec(theta=1.0, strength=Strength(0.5)),
                              1.0, 0),
    lambda: _uniform_amplitudes(np.array([1.0]), Strength(0.5), n_meas=0),
    lambda: _uniform_amplitudes(np.array([1.0]), Strength(0.5), n_meas=2.5),
], ids=["kernel-n0", "kernel-bool", "kernel-float", "curve-n0", "sweep-n0",
        "transition-n0", "surface-n0", "sample-negative", "sample-float",
        "uniform-n0", "uniform-float"])
def test_integer_arguments_checked(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("kwargs", [
    {"reference_weight": 0.0}, {"reference_weight": 1.0},
    {"reference_weight": np.nan}, {"reference_weight": 1.5},
    {"n_meas": True}, {"n_meas": 2.5}, {"n_meas": -1},
], ids=["w0", "w1", "w-nan", "w1.5", "n-bool", "n-float", "n-negative"])
def test_transition_checks_at_the_door(monkeypatch, kwargs):
    # the search checks its arguments once, before its first kernel call;
    # every later call is the unchecked power routine
    calls = []

    def counted(*args, **kw):
        calls.append(args)
        return protocol._uniform_power(*args, **kw)

    monkeypatch.setattr(an, "_uniform_power", counted)
    monkeypatch.setattr(protocol, "_uniform_power", counted)
    with pytest.raises(DomainError):
        an.find_critical_strength(**kwargs)
    assert calls == []


def test_refine_reports_its_passes(transition):
    # each pass that inserts nodes is one call of the evaluator; the map
    # sums them over its refined columns
    evaluated = []

    def evaluate(nodes):
        evaluated.append(nodes)
        return _uniform_amplitudes(nodes, Strength(transition.m_star.m - 1e-6))

    grid = np.linspace(0, np.pi, 65)
    refined = an._refine(grid, evaluate(grid), evaluate)
    assert refined.passes == len(evaluated) - 1 > 0
    pm = an.sweep_phase_map(grid, [transition.m_star.m - 1e-6, 0.3])
    assert pm.refine_passes == refined.passes


@pytest.mark.parametrize("values", [
    [], [2.0], [3.0, 1.0, 3.0, 2.0, 1.0], [0.0, -0.0, 1.0], [-0.0, 0.0],
    [np.nan, 1.0, np.nan, -np.inf, np.inf, 1.0], [np.nan, np.nan],
    np.linspace(0.0, 1e-300, 33), [[2.0, 1.0], [1.0, 0.5]],
    np.random.default_rng(3).integers(0, 40, 200) / 7.0,
])
def test_distinct_is_unique(values):
    # the same values, order and bytes (signed zeros included) as np.unique
    expected = np.unique(np.asarray(values, dtype=float))
    found = an._distinct(values)
    assert found.dtype == expected.dtype and found.shape == expected.shape
    assert found.tobytes() == expected.tobytes()


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

    def test_just_above_mstar_does_not_wrap(self, transition):
        # the default 64-node grid has no node at pi/2, where the surface
        # folds near m*; stepping over the fold read degree 1 here
        assert an.surface_degree(Strength(transition.m_star.m + 1e-5)) == 0

    def test_returns_the_given_grid_only(self):
        # the equator node meshes the degree but is not returned, and the
        # given grid's loops are the ones a kernel call on it alone gives
        grid = np.linspace(0.0, np.pi, 64)
        _, thetas, vertices = an.trajectory_surface(Strength(0.3), grid)
        assert np.array_equal(thetas, grid)
        pairs = _amplitudes_for_thetas(grid, Strength(0.3))[1]
        assert np.array_equal(vertices, _bloch_batch(pairs))

    def test_rejects_m_one(self):
        with pytest.raises(DomainError):
            an.surface_degree(Strength(1.0))

    def test_rejects_coarse_grid(self):
        with pytest.raises(DomainError):
            an.surface_degree(Strength(0.5), np.linspace(0, np.pi, 8))

    @pytest.mark.parametrize("grid", [None, np.linspace(0, np.pi, 33)])
    def test_projective_n2_is_singular(self, grid):
        # the two axes are antipodal on the equator, where the first step
        # annihilates the {e,f} component; the default grid misses pi/2
        with pytest.raises(AntipodalError) as err:
            an.trajectory_surface(Strength(0.0), grid, n_meas=2)
        assert err.value.theta == 0.5 * np.pi
        assert err.value.segment == 0

    def test_blocked_interpolation_equals_one_shot(self):
        # the CLI interpolates surface.csv's loops a block at a time: 40
        # loops of 7 vertices at 512 points per segment span three blocks,
        # and a repeated vertex takes the small-angle branch
        rng = np.random.default_rng(3)
        vertices = rng.normal(size=(40, 7, 3))
        vertices[:, 3] = vertices[:, 2]
        vertices /= np.linalg.norm(vertices, axis=2, keepdims=True)
        interp = 512
        nxt = np.roll(vertices, -1, axis=1)
        dots = np.clip(np.sum(vertices * nxt, axis=2), -1.0, 1.0)
        gamma = np.arccos(dots)[..., None, None]
        t = (np.arange(interp) / interp)[None, None, :, None]
        small = gamma < 1e-9
        assert small.any()
        sin_gamma = np.where(small, 1.0, np.sin(gamma))
        w0 = np.where(small, 1.0 - t, np.sin((1.0 - t) * gamma) / sin_gamma)
        w1 = np.where(small, t, np.sin(t * gamma) / sin_gamma)
        pts = w0 * vertices[:, :, None, :] + w1 * nxt[:, :, None, :]
        pts /= np.linalg.norm(pts, axis=3, keepdims=True)
        thetas = np.linspace(0.0, np.pi, 40)
        blocks = list(cli._surface_blocks(thetas, vertices, interp))
        assert len(blocks) == 3
        theta, step, *xyz = (np.concatenate(c) for c in zip(*blocks))
        assert np.array_equal(theta, np.repeat(thetas, 7 * interp))
        assert np.array_equal(step, np.tile(np.arange(7 * interp), 40))
        assert np.array_equal(np.stack(xyz, axis=1), pts.reshape(-1, 3))

    def test_antipodal_segment_reported(self, monkeypatch):
        # vertex 5 of the loop at the third node is the antipode of vertex
        # 4, so the geodesic of segment 4 is undefined
        bloch_batch = an._bloch_batch

        def antipodal(pairs):
            vertices = bloch_batch(pairs)
            vertices[2, 5] = -vertices[2, 4]
            return vertices

        monkeypatch.setattr(an, "_bloch_batch", antipodal)
        grid = np.linspace(0.0, np.pi, 33)
        with pytest.raises(AntipodalError) as err:
            an.trajectory_surface(Strength(0.3), grid)
        assert err.value.theta == grid[2]
        assert err.value.segment == 4
        assert str(err.value) == (
            "antipodal geodesic endpoints on trajectory "
            f"(theta={grid[2]:.6g}, segment=4)")


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

    @pytest.mark.parametrize("tol", [1e-4, 1e-6])
    @pytest.mark.parametrize("w", [1e-8, 1e-14, 1e-300, 1.0 - 1e-10])
    def test_extreme_reference_weight(self, w, tol):
        # the amplitude is 2 sqrt(w (1 - w)) [K^N]_EE, so neither the
        # windings nor the root depend on w; at such w the absolute contrast
        # floor masked the equator node of the bracket-end curves, which then
        # read the wrong winding, or every node of the curve at 1e-3
        half = an.find_critical_strength(tol=tol)
        report = an.find_critical_strength(reference_weight=w, tol=tol)
        assert report.bracket == half.bracket
        assert report.m_star.m == half.m_star.m
        assert (report.chern_below, report.chern_above) == (1, 0)

    def test_bracket_end_a_hair_below_m_star(self, monkeypatch, transition):
        # the curve 1e-13 below m*(6) does not unwrap, and the one 1e-9
        # above it reads winding 0; the span's lower end and the bracket's
        # both lie there, and each is read again below it
        m = transition.m_star.m - 1e-13
        monkeypatch.setattr(an, "_SEARCH_SPAN", (m, 0.999))
        report = an.find_critical_strength(tol=1e-4)
        assert (report.chern_below, report.chern_above) == (1, 0)
        assert report.nudge_retries == 2
        assert report.bracket[0] == m
        assert report.m_star.m == transition.m_star.m

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
        a = np.abs(_amplitudes_for_thetas(thetas, Strength(m))[0])
        b = np.abs(_amplitudes_for_thetas(np.pi - thetas, Strength(m))[0])
        assert np.max(np.abs(a - b)) < 1e-9

    @pytest.mark.parametrize("m", [0.15, 0.55, 0.85])
    def test_phase_mirror(self, m):
        thetas = np.linspace(0.1, np.pi / 2, 15)
        a = np.angle(_amplitudes_for_thetas(thetas, Strength(m))[0])
        b = np.angle(_amplitudes_for_thetas(np.pi - thetas, Strength(m))[0])
        eq = np.angle(_amplitudes_for_thetas(np.array([np.pi / 2]),
                                             Strength(m))[0])[0]
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

    @pytest.mark.parametrize("n_meas, weight", [(6, 0.37), (24, 0.6)])
    def test_every_column_is_its_curve(self, n_meas, weight):
        # sweep_phase_map refines only some columns (two and one here); each
        # column must still equal its own phase_vs_theta curve at the nodes
        thetas, ms = np.linspace(0, np.pi, 64), np.linspace(0, 1, 64)
        pm = an.sweep_phase_map(thetas, ms, n_meas=n_meas,
                                reference_weight=weight)
        for j, m in enumerate(ms):
            curve = an.phase_vs_theta(Strength(float(m)), thetas,
                                      n_meas=n_meas, reference_weight=weight)
            at = curve.at(thetas)
            for name in ("chi_wrapped", "contrast"):
                assert (getattr(pm, name)[:, j].tobytes()
                        == getattr(curve, name)[at].tobytes())
            assert np.array_equal(pm.chi_unwrapped[:, j], curve.chi[at],
                                  equal_nan=True)
            assert np.array_equal(pm.defined[:, j], curve.defined[at])
            assert pm.column_unwrappable[j] == curve.unwrappable

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

    @pytest.mark.parametrize("thetas, ms, message", [
        ([0.0, 1.0, 4.0], [0.5], "theta grid outside [0, pi]"),
        ([0.0, 1.0], [0.5, 1.5], "strength grid outside [0, 1]"),
    ])
    def test_grid_messages(self, thetas, ms, message):
        with pytest.raises(DomainError) as err:
            an.sweep_phase_map(thetas, ms)
        assert str(err.value) == message

    @pytest.mark.parametrize("weight", [-1.0, 0.0, 1.0, 1.5, float("nan")])
    def test_reference_weight_outside_unit_interval(self, weight):
        with pytest.raises(DomainError, match="reference_weight="):
            an.sweep_phase_map([0.0, 1.0], [0.5], reference_weight=weight)

    def test_weight_that_bounds_every_contrast_below_the_floor(self):
        # the contrast is at most 2 sqrt(w (1 - w)) = 2e-10 < CONTRAST_FLOOR
        # at w = 1e-20, so no cell could be defined: an error, not NaNs
        message = r"2\*sqrt\(w\*\(1-w\)\) = 2e-10, not above the contrast floor"
        with pytest.raises(DomainError, match=message):
            an.sweep_phase_map(np.linspace(0, np.pi, 65),
                               np.linspace(0, 1, 11), reference_weight=1e-20)
        with pytest.raises(DomainError, match=message):
            an.phase_vs_theta(Strength(0.3), reference_weight=1e-20)

    def test_tiny_weight_above_the_bound_keeps_its_masking(self):
        # at w = 1e-17 the bound is 6.3e-9: the map is returned, and the
        # cells whose contrast clears the floor are defined
        pm = an.sweep_phase_map(np.linspace(0, np.pi, 65),
                                np.linspace(0, 1, 11), reference_weight=1e-17)
        assert 0 < np.count_nonzero(pm.defined) < pm.n_cells
        assert np.all(pm.column_unwrappable)


class TestExactTransition:
    M_STAR_N3 = 2.0 / np.sqrt(3.0) - 1.0

    @staticmethod
    def equator(m, n_meas=6, w=0.5, phi_schedule=None):
        return complex(_amplitudes_for_thetas(
            np.array([0.5 * np.pi]), np.array([m]), n_meas=n_meas,
            reference_weight=w, phi_schedule=phi_schedule)[0][0])

    @pytest.mark.parametrize("tol", [1e-4, 1e-6])
    def test_n3_pin(self, tol):
        report = an.find_critical_strength(n_meas=3, tol=tol)
        assert abs(report.m_star.m - self.M_STAR_N3) < 1e-14

    def test_n3_root_of_the_transfer_matrix(self):
        # 1/(3 + 2*sqrt(3)) is 2/sqrt(3) - 1 without the cancellation, so it
        # rounds to within an ulp of the root of 3m^2 + 6m - 1
        exact = 1.0 / (3.0 + 2.0 * np.sqrt(3.0))

        def equator(ms):
            return _uniform_amplitudes(np.array([0.5 * np.pi]),
                                       np.asarray(ms), n_meas=3)

        m_star, a_star, _ = an._equator_root(equator, 1e-3, 0.999,
                                             *equator([1e-3, 0.999]))
        assert abs(m_star - exact) <= 4 * np.spacing(exact)
        assert abs(a_star) < 1e-15

    @pytest.mark.parametrize("n_meas", [3, 6, 24])
    def test_contrast_vanishes_and_root_is_weight_free(self, n_meas):
        reports = [an.find_critical_strength(n_meas=n_meas,
                                             reference_weight=w)
                   for w in (0.2, 0.5, 0.8)]
        assert all(r.contrast_min < 1e-14 for r in reports)
        m_stars = [r.m_star.m for r in reports]
        assert max(m_stars) - min(m_stars) < 1e-15

    # a non-uniform schedule and the winding bracket of its flip, found by
    # bisecting winding curves of this schedule to width 1e-4
    SCHEDULE = (-0.9, -2.0, -3.2, -4.1, -5.2, -2.0 * np.pi)
    SCHEDULE_BRACKET = (0.4659495849609375, 0.466010498046875)

    @classmethod
    def schedule_root(cls, phase=1.0):
        def equator(ms):
            return phase * _amplitudes_for_thetas(
                np.array([0.5 * np.pi]), np.asarray(ms),
                phi_schedule=cls.SCHEDULE)[0]
        return an._equator_root(equator, 1e-3, 0.999, *equator([1e-3, 0.999]))

    def test_equator_root_of_custom_schedule_in_bracket(self):
        m_star, a_star, calls = self.schedule_root()
        lo, hi = self.SCHEDULE_BRACKET
        assert lo < m_star < hi
        assert abs(m_star - 0.46598935667814856) < 1e-12
        assert 0 < calls <= 12
        assert abs(a_star) == abs(self.equator(m_star,
                                               phi_schedule=self.SCHEDULE))
        assert abs(a_star) <= min(
            abs(self.equator(lo, phi_schedule=self.SCHEDULE)),
            abs(self.equator(hi, phi_schedule=self.SCHEDULE)))

    @pytest.mark.parametrize("phase", [0.7, 0.5 * np.pi])
    def test_equator_root_ignores_a_constant_phase(self, phase):
        # the schedule's equatorial amplitude is real; a constant phase is
        # what only the projection onto conj(a_lo) takes out
        plain, _, _ = self.schedule_root()
        turned, _, _ = self.schedule_root(np.exp(1j * phase))
        assert abs(turned - plain) <= 1e-15

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def m_star(n_meas):
        return an.find_critical_strength(n_meas=n_meas, tol=1e-6).m_star.m

    @pytest.mark.parametrize("n_meas", [3, 4, 5, 6, 8, 12, 24, 48])
    def test_chebyshev_root(self, n_meas):
        # at the equator the amplitude is, up to a phase,
        # U_{N-1}(x) cos(pi/N) - sqrt(m) U_{N-2}(x) with
        # x = (1 + m) cos(pi/N) / (2 sqrt(m)); its root is taken at 40
        # digits so that the reference's own rounding stays far below an ulp
        import mpmath

        m = self.m_star(n_meas)
        with mpmath.workdps(40):
            c = mpmath.cos(mpmath.pi / n_meas)

            def equator(m):
                x = (1 + m) * c / (2 * mpmath.sqrt(m))
                return (mpmath.chebyu(n_meas - 1, x) * c
                        - mpmath.sqrt(m) * mpmath.chebyu(n_meas - 2, x))

            exact = float(mpmath.findroot(equator, mpmath.mpf(m)))
        assert abs(m - exact) <= 4 * np.spacing(exact)

    @staticmethod
    def gamma_star():
        # the root of tan q = -2q/Gamma with q^2 = pi^2 - Gamma^2/4, written
        # Gamma sin q + 2q cos q = 0 so that no pole of tan lies in the
        # bracket; bisected down to adjacent floats
        def f(gamma):
            q = np.sqrt(np.pi ** 2 - 0.25 * gamma ** 2)
            return gamma * np.sin(q) + 2.0 * q * np.cos(q)

        lo, hi = 1.0, 5.4
        assert f(lo) < 0.0 < f(hi)
        while (mid := 0.5 * (lo + hi)) not in (lo, hi):
            lo, hi = (mid, hi) if f(mid) < 0.0 else (lo, mid)
        return lo

    def test_continuum_limit(self):
        # with m = exp(-Gamma/N) the transition tends to Gamma* as 1/N^2
        g_star = self.gamma_star()
        assert abs(g_star - 4.250288821783) <= 1e-12
        n_gamma = {n: -n * np.log(self.m_star(n)) for n in (6, 24, 48)}
        assert n_gamma[6] > n_gamma[24] > n_gamma[48] > g_star
        c24, c48 = (n * n * (n_gamma[n] - g_star) for n in (24, 48))
        assert abs(c24 / c48 - 1.0) <= 0.01

    @staticmethod
    def equator_of(n_meas=6, w=0.5):
        def equator(ms):
            return _uniform_amplitudes(np.array([0.5 * np.pi]),
                                       np.asarray(ms), n_meas=n_meas,
                                       reference_weight=w)
        return equator

    def test_counters(self):
        # (curves, nudge_retries, root_calls): the curves at 1e-3 and 0.999
        # and at the two bracket ends, with no retry, and the calls of the
        # sign change over the whole interval, stopped once it has fixed the
        # bracket, and of the root inside the bracket
        for n_meas, w, tol, counters in [(6, 0.5, 1e-4, (4, 0, 9)),
                                         (24, 0.3, 1e-6, (4, 0, 8)),
                                         (4096, 0.5, 1e-4, (4, 0, 8)),
                                         (3, 0.5, 1e-3, (4, 0, 9))]:
            report = an.find_critical_strength(n_meas=n_meas,
                                               reference_weight=w, tol=tol)
            assert (report.curves, report.nudge_retries,
                    report.root_calls) == counters, (n_meas, w, tol)
        # at (6, 0.5, 1e-4) the stopped sign change makes 3 of the 8 calls
        # that narrow it to adjacent floats, and the root search 6
        report = an.find_critical_strength(tol=1e-4)
        equator = self.equator_of()
        *_, full_scan = an._sign_change(equator, 1e-3, 0.999,
                                        *equator([1e-3, 0.999]))
        lo, hi = report.bracket
        *_, root_calls = an._equator_root(equator, lo, hi,
                                          *equator([lo, hi]))
        assert (full_scan, root_calls) == (8, 6)
        assert report.root_calls == 3 + 6

    def test_winding_curves_come_in_pairs(self, monkeypatch):
        # the pairs (1e-3, 0.999) and the bracket's ends are the four
        # columns of one kernel call
        real = an._uniform_amplitudes
        grid_calls = []

        def counted(thetas, strength, *args, **kwargs):
            if np.ndim(thetas) == 2:
                grid_calls.append(np.asarray(strength).tolist())
            return real(thetas, strength, *args, **kwargs)

        monkeypatch.setattr(an, "_uniform_amplitudes", counted)
        report = an.find_critical_strength(tol=1e-4)
        assert grid_calls == [[1e-3, 0.999, *report.bracket]]

    @pytest.mark.parametrize("end", [0, 1])
    def test_bracket_end_winding_is_checked(self, monkeypatch, end):
        # the third and fourth curves are the bracket's ends; a winding
        # that disagrees there is an error, not an assumption
        real = an.chern_from_curve
        calls = []

        def wrong_at_end(curve):
            calls.append(curve.strength.m)
            found = real(curve)
            return 1 - found if len(calls) == 3 + end else found

        monkeypatch.setattr(an, "chern_from_curve", wrong_at_end)
        with pytest.raises(AnalysisError, match="at bracket end m="):
            an.find_critical_strength(tol=1e-3)
        assert len(calls) == 3 + end

    @pytest.mark.parametrize("w", [1e-8, 0.3])
    @pytest.mark.parametrize("tol", [1e-6, 1e-4, 1e-2])
    @pytest.mark.parametrize("n_meas", [3, 6, 24, 384, 4096])
    def test_winding_curves_need_no_refinement(self, monkeypatch, n_meas,
                                               tol, w):
        # the equator cluster of the transition grid holds the steep turn
        # of the bracket-end curve, so the vectorized unwrap settles every
        # winding curve in the kernel call that evaluates it
        real, refined = an._refine, []

        def counted(thetas, amps, evaluate):
            refined.append(thetas.size)
            return real(thetas, amps, evaluate)

        monkeypatch.setattr(an, "_refine", counted)
        an.find_critical_strength(n_meas=n_meas, reference_weight=w, tol=tol)
        assert refined == []

    @pytest.mark.parametrize("n_meas, w, tol", [(6, 0.5, 1e-4),
                                                (24, 0.3, 1e-6),
                                                (3, 0.5, 1e-3)])
    def test_uniform_grid_falls_back_to_refinement(self, monkeypatch, n_meas,
                                                   w, tol):
        # without the cluster the bracket-end curve goes through the
        # insertion loop, and the report is the same bit for bit
        clustered = an.find_critical_strength(n_meas=n_meas,
                                              reference_weight=w, tol=tol)
        real, passes = an._refine, []

        def counted(thetas, amps, evaluate):
            def counted_evaluate(nodes):
                passes.append(nodes.size)
                return evaluate(nodes)
            return real(thetas, amps, counted_evaluate)

        monkeypatch.setattr(an, "_refine", counted)
        monkeypatch.setattr(an, "TRANSITION_EQUATOR_LEVELS", 0)
        uniform = an.find_critical_strength(n_meas=n_meas,
                                            reference_weight=w, tol=tol)
        assert passes
        assert dataclasses.astuple(uniform) == dataclasses.astuple(clustered)

    def test_counters_record_nudge_retries(self, monkeypatch):
        plain = an.find_critical_strength(tol=1e-3)
        real = an.chern_from_curve
        failed = []

        def first_curve_fails(curve):
            if not failed:
                failed.append(curve.strength.m)
                raise UnwrapError("forced")
            return real(curve)

        monkeypatch.setattr(an, "chern_from_curve", first_curve_fails)
        nudged = an.find_critical_strength(tol=1e-3)
        assert failed == [1e-3]
        assert nudged.nudge_retries == 1
        assert nudged.curves == plain.curves + 1
        assert nudged.bracket == plain.bracket

    @pytest.mark.parametrize("fails", [1, 2])
    def test_retries_move_away_from_the_other_end(self, monkeypatch, fails):
        # each curve fails ``fails`` reads: it is read again 1e-9, then
        # 1e-7 below a lower end (1e-3, the bracket's lower end) or above an
        # upper end (0.999, the bracket's upper end), never toward m*
        plain = an.find_critical_strength(tol=1e-3)
        real, read = an.chern_from_curve, []

        def fails_per_curve(curve):
            read.append(curve.strength.m)
            if len(read) % (fails + 1):
                raise UnwrapError("forced")
            return real(curve)

        monkeypatch.setattr(an, "chern_from_curve", fails_per_curve)
        report = an.find_critical_strength(tol=1e-3)
        lo, hi = plain.bracket
        assert read == [m + away * nudge
                        for m, away in [(1e-3, -1), (0.999, 1), (lo, -1),
                                        (hi, 1)]
                        for nudge in (0.0, 1e-9, 1e-7)[:fails + 1]]
        assert report.nudge_retries == 4 * fails
        assert report.curves == plain.curves + 4 * fails
        assert report.bracket == plain.bracket

    def test_curve_that_fails_every_retry(self, monkeypatch):
        read = []

        def never_unwraps(curve):
            read.append(curve.strength.m)
            raise UnwrapError("forced")

        monkeypatch.setattr(an, "chern_from_curve", never_unwraps)
        with pytest.raises(UnwrapError, match=r"near m=0\.001$"):
            an.find_critical_strength(tol=1e-3)
        assert read == [1e-3, 1e-3 - 1e-9, 1e-3 - 1e-7]


def winding_bisection(n_meas, w, tol):
    """The transition search that bisects on a winding curve per halving,
    kept as the reference for find_critical_strength's sign bisection."""
    grid = np.linspace(0.0, np.pi, an.TRANSITION_CURVE_NODES)

    def chern_at(m):
        for nudge in (0.0, 1e-9, -1e-9, 1e-7, -1e-7):
            try:
                return an.chern_from_curve(an.phase_vs_theta(
                    Strength(m + nudge), grid, n_meas=n_meas,
                    reference_weight=w))
            except UnwrapError:
                pass
        raise UnwrapError(f"curve not unwrappable near m={m!r}")

    lo, hi = 1e-3, 1.0 - 1e-3
    c_lo, c_hi = chern_at(lo), chern_at(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if chern_at(mid) == c_lo:
            lo = mid
        else:
            hi = mid
    equator = TestExactTransition.equator_of(n_meas, w)
    a_lo, a_hi = equator([lo, hi])
    jump = float(abs(an.wrap_angle(np.angle(a_hi) - np.angle(a_lo))))
    m_star, a_star, _ = an._equator_root(equator, lo, hi, a_lo, a_hi)
    return {"bracket": (lo, hi), "m_star": m_star,
            "contrast_min": abs(a_star), "jump_at_equator": jump,
            "chern_below": c_lo, "chern_above": c_hi}


@pytest.mark.parametrize("n_meas", [3, 4, 5, 6, 8, 12, 24, 48, 384, 4096])
def test_sign_bisection_equals_winding_bisection(n_meas):
    for w, tol in itertools.product([0.05, 0.3, 0.5, 0.95],
                                    [1e-6, 1e-4, 1e-3]):
        report = an.find_critical_strength(n_meas=n_meas,
                                           reference_weight=w, tol=tol)
        found = {"bracket": report.bracket, "m_star": report.m_star.m,
                 "contrast_min": report.contrast_min,
                 "jump_at_equator": report.jump_at_equator,
                 "chern_below": report.chern_below,
                 "chern_above": report.chern_above}
        assert found == winding_bisection(n_meas, w, tol), (w, tol)
