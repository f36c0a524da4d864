"""Property tests of the closed-form and Monte Carlo kernels over drawn
parameters."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from geophase import analysis as an
from geophase.measurement import Strength
from geophase.protocol import (ProtocolSpec, initial_state, measure_along,
                               run_protocol_analytic, _amplitudes_for_thetas,
                               _frame_steps, _uniform_amplitudes,
                               _uniform_power)
from geophase.qutrit import (E, F, MeasurementAxis, axis_state,
                             rotation_to_axis)
from geophase.spec import closed_form
from geophase.trajectories import McConfig, interference_terms

# derandomized and small, so that the suite stays deterministic and quick
PROPERTY = settings(derandomize=True, max_examples=25, deadline=None,
                    database=None)

thetas = st.floats(0.0, np.pi)
strengths = st.floats(0.0, 1.0)
weights = st.floats(0.01, 0.99)
lengths = st.integers(1, 24)


def circ_diff(a, b):
    return np.abs(np.angle(np.exp(1j * (a - b))))


@PROPERTY
@given(theta=thetas, m=strengths, w=weights, n=lengths)
def test_contrast_bounded_by_reference(theta, m, w, n):
    amp = _amplitudes_for_thetas(np.array([theta]), Strength(m), n, w)[0][0]
    assert abs(amp) <= 2 * np.sqrt(w * (1 - w)) + 1e-12


@PROPERTY
@given(theta=thetas, ms=st.lists(strengths, min_size=1, max_size=8),
       n=lengths)
def test_equator_mirror(theta, ms, n):
    nodes = np.array([theta, np.pi - theta, 0.5 * np.pi])
    a, b, eq = _amplitudes_for_thetas(nodes[:, None], np.array(ms), n)[0]
    assert np.max(np.abs(np.abs(a) - np.abs(b))) < 1e-12
    # the phase mirror is about the equatorial phase, defined off m*
    ok = np.abs(eq) > 1e-6
    assert np.all(circ_diff(np.angle(a) + np.angle(b),
                            2 * np.angle(eq))[ok] < 1e-9)


@PROPERTY
@given(ths=st.lists(st.sampled_from([0.0, np.pi]) | thetas, min_size=1,
                    max_size=6),
       ms=st.lists(st.sampled_from([0.0, 1.0]) | strengths, min_size=1,
                   max_size=6),
       w=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       n=st.integers(1, 4096))
@example(ths=[0.0, 0.5 * np.pi, np.pi], ms=[0.0, 0.4725, 1.0], w=0.5, n=4096)
def test_uniform_schedule_matches_step_loop(ths, ms, w, n):
    # both sides round at every step or squaring, so the tolerance grows
    # like N * eps
    grid = np.array(ths)[:, None], np.array(ms)
    got = _uniform_amplitudes(*grid, n, w)
    ref = _amplitudes_for_thetas(*grid, n, w)[0]
    assert np.max(np.abs(got - ref)) < 1e-15 + 2 * np.finfo(float).eps * n


@PROPERTY
@given(ths=st.just(np.array([0.5 * np.pi])),
       ms=st.lists(strengths, max_size=6),
       w=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       n=st.integers(1, 4096))
@example(ths=np.linspace(0.0, np.pi, 7)[:, None], ms=[0.4725, 0.9], w=0.3,
         n=4095)
def test_power_routine_is_the_checked_kernel(ths, ms, w, n):
    # the checked kernel is its checks, the step and the power routine, so
    # the routine on the step of the given thetas gives the same bits; the
    # step loop, within its N * eps, checks the squaring itself
    ms = np.array([0.0, *ms, 1.0])
    step = next(_frame_steps(ths, (-2.0 * np.pi / n,)))
    got = _uniform_power(step, ms, n, w)
    want = _uniform_amplitudes(ths, ms, n, w)
    assert got.shape == want.shape == np.broadcast_shapes(ths.shape, ms.shape)
    assert got.tobytes() == want.tobytes()
    ref = _amplitudes_for_thetas(ths, ms, n, w)[0]
    assert np.max(np.abs(got - ref)) < 1e-15 + 2 * np.finfo(float).eps * n


@PROPERTY
@given(theta=st.floats(0.15, np.pi - 0.15), n=st.integers(3, 96))
@example(theta=0.5 * np.pi, n=3)
def test_projective_phase_three_routes(theta, n):
    # at m = 0 the path is a geodesic polygon of measurement-axis states:
    # the closed form, the overlap product around it and half its signed
    # area are three routes to one phase
    result, record = run_protocol_analytic(
        ProtocolSpec(theta=theta, strength=Strength(0.0), n_meas=n))
    x, y, z = np.asarray(record.points).T
    states = [axis_state(MeasurementAxis(float(t), float(p))) for t, p in
              zip(np.arccos(np.clip(z, -1.0, 1.0)), -np.arctan2(y, x))]
    pan = an.pancharatnam_phase(states + states[:1])
    half_omega = 0.5 * an.solid_angle_polygon(record.points)
    assert circ_diff(result.phase, pan) < 1e-9
    assert circ_diff(result.phase, half_omega) < 1e-9


@PROPERTY
@given(theta=thetas, m=strengths, n=lengths,
       ws=st.lists(weights, min_size=1, max_size=6))
def test_reference_weight_is_a_scale_factor(theta, m, n, ws):
    def scaled(w):
        amp = _amplitudes_for_thetas(np.array([theta]), Strength(m), n, w)[0][0]
        return amp / (2 * np.sqrt(w * (1 - w)))

    base = scaled(0.5)
    for w in ws:
        assert abs(scaled(w) - base) < 1e-12


@PROPERTY
@given(theta=thetas, m=strengths, w=weights,
       schedule=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=8))
def test_custom_schedule_matches_per_step_product(theta, m, w, schedule):
    spec = ProtocolSpec(theta=theta, strength=Strength(m),
                        n_meas=len(schedule), phi_schedule=tuple(schedule),
                        reference_weight=w)
    state = initial_state(theta, w)
    for axis in spec.axes:
        state = measure_along(state, axis, spec.strength)
    close = rotation_to_axis(spec.closing_axis).mat
    ref = 2 * np.sqrt(w) * (close @ state.vec)[E]
    amp = _amplitudes_for_thetas(np.array([theta]), spec.strength, spec.n_meas,
                                 w, spec.phi_schedule)[0][0]
    assert abs(amp - ref) < 1e-12


@PROPERTY
@given(theta=thetas, m=st.just(0.0) | strengths, w=weights, n=lengths,
       seed=st.integers(0, 2 ** 64 - 1))
@example(theta=1.2, m=1e-300, w=0.5, n=2, seed=0)
def test_trajectory_terms_bounded(theta, m, w, n, seed):
    # |2 a_g a_e| <= |a_g|^2 + |a_e|^2 <= 1 for every normalized final state
    spec = ProtocolSpec(theta=theta, strength=Strength(m), n_meas=n,
                        reference_weight=w)
    terms = interference_terms(spec, McConfig(n_samples=64, seed=seed))
    assert np.max(np.abs(terms)) <= 1 + 1e-12


@PROPERTY
@given(n=st.integers(3, 96), w=st.floats(0.05, 0.95),
       count=st.integers(33, 200), k=st.integers(3, 7),
       side=st.sampled_from([-1, 1]))
@example(n=6, w=0.5, count=64, k=5, side=1)
@example(n=6, w=0.5, count=51, k=7, side=1)
def test_surface_degree_is_the_winding_near_mstar(n, w, count, k, side):
    # the surface near m* folds about the equator; the degree is read on
    # the grid plus pi/2 whatever the parity of the grid's count (51 nodes
    # put one 1 ulp off pi/2, a near-duplicate of the added node)
    m = an.find_critical_strength(n).m_star.m + side * 10.0 ** -k
    strength = Strength(m)
    grid = np.linspace(0.0, np.pi, count)
    degree = an.surface_degree(strength, grid, n_meas=n, reference_weight=w)
    curve = an.phase_vs_theta(strength, n_meas=n, reference_weight=w)
    assert degree == an.chern_from_curve(curve)


def _per_step_run(spec):
    """The amplitude and the lab-frame {e,f} pair after each measurement,
    from the per-step 3x3 operators."""
    state = initial_state(spec.theta, spec.reference_weight)
    pairs = []
    for axis in spec.axes:
        state = measure_along(state, axis, spec.strength)
        pairs.append(state.vec[[F, E]])
    close = rotation_to_axis(spec.closing_axis).mat
    return (2 * np.sqrt(spec.reference_weight) * (close @ state.vec)[E],
            np.array(pairs))


@PROPERTY
@given(theta=st.sampled_from([0.0, np.pi]) | thetas,
       m=st.sampled_from([0.0, 1.0]) | strengths,
       w=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       n=st.integers(1, 4096), seed=st.none() | st.integers(0, 2 ** 32 - 1))
@example(theta=0.5 * np.pi, m=0.0, w=0.5, n=2, seed=None)
@example(theta=5.6e-4, m=0.49, w=0.5, n=4096, seed=None)
@example(theta=1.9, m=0.3, w=0.2, n=40, seed=7)
def test_scalar_route_is_the_closed_form(theta, m, w, n, seed):
    # the one-spec route on Python numbers shares the step algebra with the
    # batched kernel, but numpy's SIMD complex products and its hypot round
    # differently, so the amplitude's gap grows like N * eps (6.2e-13 at
    # N = 4096, theta = 5.6e-4); the normalized points and the factors
    # stay within 1e-13
    schedule = (None if seed is None else tuple(
        np.random.default_rng(seed).uniform(-8.0, 2.0, n).tolist()))
    spec = ProtocolSpec(theta=theta, strength=Strength(m), n_meas=n,
                        phi_schedule=schedule, reference_weight=w)
    result, record = run_protocol_analytic(spec)
    scalar, points, factors = closed_form(spec)
    assert (abs(scalar.amplitude - result.amplitude)
            < 1e-13 + 2 * np.finfo(float).eps * n)
    assert all(type(v) is float for p in points for v in p)
    assert all(type(f) is float for f in factors)
    assert np.max(np.abs(np.array(points) - record.points)) < 1e-13
    assert np.max(np.abs(np.array(factors) - record.factors)) < 1e-13
    if n <= 96:
        # the shared algebra against the per-step 3x3 product, wherever
        # the pair has a Bloch point
        amp, pairs = _per_step_run(spec)
        assert abs(scalar.amplitude - amp) < 1e-12
        ef = np.hypot(np.abs(pairs[:, 0]), np.abs(pairs[:, 1]))
        live = ef > 1e-6
        a_f, a_e = pairs[live, 0] / ef[live], pairs[live, 1] / ef[live]
        xy = 2 * a_e * np.conj(a_f)
        want = np.stack([xy.real, xy.imag, np.abs(a_e) ** 2 - np.abs(a_f) ** 2],
                        axis=1)
        assert np.max(np.abs(np.array(points[1:])[live] - want),
                      initial=0.0) < 1e-9
