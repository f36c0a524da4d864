import numpy as np
import pytest

from geophase import trajectories
from geophase.errors import DomainError
from geophase.measurement import Strength, kraus_readout
from geophase.protocol import (ProtocolSpec, initial_state,
                               run_protocol_analytic)
from geophase.qutrit import E, G, rotation_to_axis
from geophase.trajectories import (BLOCK_SIZE, McConfig, mc_interference,
                                   readout_histogram, sample_trajectory,
                                   z_scores, interference_terms,
                                   _chi2_sf, _philox_uniforms, _substream)


class TestSubstreams:
    @pytest.mark.parametrize("seed", [0, 1, 42, 2 ** 64 - 1])
    def test_vectorized_philox_matches_numpy_bitwise(self, seed):
        ids = np.array([0, 1, 7, 12345, 2 ** 31, 2 ** 62])
        mine = _philox_uniforms(seed, ids, 11)
        for row, sid in enumerate(ids):
            ref = _substream(seed, int(sid)).random(11)
            assert np.array_equal(mine[row], ref)

    def test_draw_count_partial_block(self):
        for n_draws in (1, 3, 4, 5, 8, 9):
            mine = _philox_uniforms(9, np.array([3]), n_draws)[0]
            ref = _substream(9, 3).random(n_draws)
            assert np.array_equal(mine, ref)


@pytest.mark.parametrize("make", [
    lambda: McConfig(n_samples=100, seed=1.5),
    lambda: McConfig(n_samples=1000.5, seed=1),
    lambda: McConfig(n_samples=True, seed=1),
    lambda: McConfig(n_samples=100, seed=np.float64(3.0)),
    lambda: ProtocolSpec(theta=1.0, strength=Strength(0.5), n_meas=2.5),
    lambda: ProtocolSpec(theta=1.0, strength=Strength(0.5), n_meas=True),
], ids=["seed-float", "samples-float", "samples-bool", "seed-numpy-float",
        "n_meas-float", "n_meas-bool"])
def test_sizes_and_seeds_must_be_integers(make):
    with pytest.raises(DomainError, match="must be an integer"):
        make()


def test_numpy_integers_accepted():
    assert McConfig(n_samples=np.int64(10), seed=np.uint64(7)).n_samples == 10
    assert ProtocolSpec(theta=1.0, strength=Strength(0.5),
                        n_meas=np.int32(3)).n_meas == 3


def analytic_amplitude(spec):
    res, _ = run_protocol_analytic(spec)
    return res.contrast * np.exp(1j * res.phase)


class TestSampleTrajectory:
    def test_no_measurement_is_noise_only(self):
        spec = ProtocolSpec(theta=1.1, strength=Strength(1.0))
        initial = run_protocol_analytic(spec)[1].points[0]
        for sid in range(5):
            s = sample_trajectory(spec, sid, seed=42)
            assert abs(s.interference_term - 1.0) < 1e-12
            vec = s.final_state.vec
            assert abs(abs(vec[2]) ** 2 - 0.5) < 1e-12

    def test_north_pole_phase_zero_every_sample(self):
        spec = ProtocolSpec(theta=0.0, strength=Strength(0.5))
        for sid in range(10):
            s = sample_trajectory(spec, sid, seed=1)
            assert abs(np.angle(s.interference_term)) < 1e-12
            assert abs(s.interference_term - 1.0) < 1e-12

    def test_fields_and_invariants(self):
        spec = ProtocolSpec(theta=1.3, strength=Strength(0.4))
        s = sample_trajectory(spec, 17, seed=9)
        assert s.readouts.shape == (6,)
        assert 0.0 < s.probability_weight <= 1.0
        assert abs(s.interference_term) <= 1.0 + 1e-12
        assert abs(s.final_state.norm - 1.0) < 1e-12

    def test_projective_records_click_indicators(self):
        spec = ProtocolSpec(theta=2.5, strength=Strength(0.0))
        s = sample_trajectory(spec, 3, seed=4)
        assert set(np.unique(s.readouts)) <= {0.0, 1.0}

    def test_pure_function_of_seed_and_id(self):
        spec = ProtocolSpec(theta=1.3, strength=Strength(0.4))
        a = sample_trajectory(spec, 29, seed=9)
        b = sample_trajectory(spec, 29, seed=9)
        assert a.interference_term == b.interference_term
        assert np.array_equal(a.readouts, b.readouts)
        c = sample_trajectory(spec, 30, seed=9)
        assert not np.array_equal(a.readouts, c.readouts)


def per_step_replay(spec, readouts):
    """One trajectory replayed from its readouts in the lab frame, one 3x3
    step at a time: rotate onto the axis, apply the outcome's Kraus
    operator, renormalize, rotate back.  Returns (term, state, weight)."""
    state = initial_state(spec.theta, spec.reference_weight).vec
    weight = 1.0
    for axis, r in zip(spec.axes, readouts):
        rot = rotation_to_axis(axis).mat
        if spec.strength.is_projective:
            kraus = np.diag([1.0, 0.0, 0.0] if r else [0.0, 1.0, 1.0])
        else:
            kraus = kraus_readout(spec.strength, r).mat
        state = kraus @ (rot @ state)
        norm_sq = np.vdot(state, state).real
        weight *= norm_sq
        state = rot.conj().T @ (state / np.sqrt(norm_sq))
    close = rotation_to_axis(spec.closing_axis).mat
    return 2.0 * np.conj(state[G]) * (close @ state)[E], state, weight


class TestPerStepOracle:
    """The composed 2x2 kernel against the per-step 3x3 replay of the
    readouts it drew."""

    def check(self, spec, sample_ids, seed):
        for sid in sample_ids:
            s = sample_trajectory(spec, sid, seed)
            term, state, weight = per_step_replay(spec, s.readouts)
            assert abs(s.interference_term - term) < 1e-12
            assert np.max(np.abs(s.final_state.vec - state)) < 1e-12
            assert abs(s.probability_weight - weight) <= 1e-12 * weight

    @pytest.mark.parametrize("m", [0.0, 0.4, 0.9])
    @pytest.mark.parametrize("n_meas", [3, 6, 24])
    def test_uniform_schedule(self, m, n_meas):
        for theta in (0.0, 0.7, 1.6, 2.9):
            spec = ProtocolSpec(theta=theta, strength=Strength(m),
                                n_meas=n_meas, reference_weight=0.37)
            self.check(spec, range(4), seed=21)

    def test_custom_schedule(self):
        spec = ProtocolSpec(theta=1.2, strength=Strength(0.4), n_meas=5,
                            phi_schedule=(-0.3, -1.9, -2.2, -4.0, -6.0))
        self.check(spec, range(8), seed=5)


class TestMcInterference:
    def test_matches_single_sample_path(self):
        # same substream, same math; block-shaped matmuls may round the last
        # bit differently, so equality is at float precision, not bitwise
        spec = ProtocolSpec(theta=1.3, strength=Strength(0.4))
        terms = interference_terms(spec, McConfig(n_samples=50, seed=3))
        for sid in (0, 13, 49):
            single = sample_trajectory(spec, sid, 3).interference_term
            assert abs(terms[sid] - single) < 1e-12

    def test_north_pole_zero_spread(self):
        est = mc_interference(ProtocolSpec(theta=0.0, strength=Strength(0.5)),
                              McConfig(n_samples=500, seed=0))
        assert abs(est.mean - 1.0) < 1e-12
        assert est.stderr_re < 1e-13 and est.stderr_im < 1e-13
        z = z_scores(est, 1.0 + 0.0j)
        assert z == (0.0, 0.0)

    def test_oracle_equivalence_moderate(self):
        spec = ProtocolSpec(theta=2 * np.pi / 5, strength=Strength(0.6))
        est = mc_interference(spec, McConfig(n_samples=40000, seed=42))
        z_re, z_im = z_scores(est, analytic_amplitude(spec))
        assert z_re <= 3.0 and z_im <= 3.0

    def test_projective_hexagon(self):
        spec = ProtocolSpec(theta=np.pi / 2, strength=Strength(0.0))
        est = mc_interference(spec, McConfig(n_samples=20000, seed=7))
        z_re, z_im = z_scores(est, analytic_amplitude(spec))
        assert z_re <= 3.0 and z_im <= 3.0
        assert abs(abs(est.phase) - np.pi) < 0.05

    def test_worker_count_invariance(self):
        spec = ProtocolSpec(theta=1.2, strength=Strength(0.5))
        cfg = McConfig(n_samples=9000, seed=5)
        est1 = mc_interference(spec, cfg, workers=1)
        est2 = mc_interference(spec, cfg, workers=2)
        est4 = mc_interference(spec, cfg, workers=4)
        assert est1 == est2 == est4

    def test_clt_scaling(self):
        spec = ProtocolSpec(theta=1.0, strength=Strength(0.5))
        e1 = mc_interference(spec, McConfig(n_samples=4000, seed=11))
        e2 = mc_interference(spec, McConfig(n_samples=16000, seed=11))
        for s1, s2 in ((e1.stderr_re, e2.stderr_re), (e1.stderr_im, e2.stderr_im)):
            assert abs(s2 / s1 - 0.5) < 0.2 * 0.5

    def test_insufficient_flag(self):
        est = mc_interference(ProtocolSpec(theta=1.0, strength=Strength(0.5)),
                              McConfig(n_samples=50, seed=1))
        assert est.insufficient
        assert est.n_samples == 50

    def test_every_sample_enters_the_mean(self):
        spec = ProtocolSpec(theta=1.3, strength=Strength(0.4))
        cfg = McConfig(n_samples=400, seed=2)
        terms = interference_terms(spec, cfg)
        est = mc_interference(spec, cfg)
        assert est.n_samples == 400
        assert est.mean == complex(np.mean(terms))

    def test_block_moments_match_the_terms(self):
        spec = ProtocolSpec(theta=1.3, strength=Strength(0.4))
        cfg = McConfig(n_samples=3 * BLOCK_SIZE + 17, seed=8)
        terms = interference_terms(spec, cfg)
        est = mc_interference(spec, cfg)
        n = terms.size
        assert est.n_samples == n
        mean = np.mean(terms)
        assert abs(est.mean - mean) <= 1e-15 * abs(mean)
        for got, part in ((est.stderr_re, terms.real),
                          (est.stderr_im, terms.imag)):
            ref = np.std(part, ddof=1) / np.sqrt(n)
            assert abs(got - ref) <= 1e-12 * ref

    def test_block_moments_invariant_to_workers(self):
        spec = ProtocolSpec(theta=2.2, strength=Strength(0.7))
        cfg = McConfig(n_samples=3 * BLOCK_SIZE + 17, seed=4)
        est1, est2, est3 = (mc_interference(spec, cfg, workers=w)
                            for w in (1, 2, 3))
        assert est1 == est2 == est3

    @pytest.mark.parametrize("cpus, expect", [(8, [3]), (2, [2]), (None, [])])
    def test_worker_count_capped_by_blocks_and_cpus(self, monkeypatch, cpus,
                                                    expect):
        # _pool is stubbed to record its size and map serially, so no
        # worker process is started whatever count is asked for
        asked = []

        class SerialPool:
            map = staticmethod(map)

        def fake_pool(workers):
            asked.append(workers)
            return SerialPool()

        monkeypatch.setattr(trajectories, "_pool", fake_pool)
        monkeypatch.setattr(trajectories.os, "cpu_count", lambda: cpus)
        spec = ProtocolSpec(theta=2.2, strength=Strength(0.7))
        cfg = McConfig(n_samples=2 * BLOCK_SIZE + 17, seed=4)
        est = mc_interference(spec, cfg, workers=100000)
        assert asked == expect
        assert est == mc_interference(spec, cfg, workers=1)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            McConfig(n_samples=0, seed=1)
        with pytest.raises(DomainError):
            McConfig(n_samples=10, seed=-1)


class TestReadoutHistogram:
    def test_reference_only_state_single_cloud(self):
        # theta = 0: the monitored level is empty, only the centered cloud
        spec = ProtocolSpec(theta=0.0, strength=Strength(0.5))
        h = readout_histogram(spec, McConfig(n_samples=8000, seed=3))
        assert h.p_f == 0.0
        assert h.p_value > 1e-3
        assert abs(np.mean(h.readouts)) < 4.0 / np.sqrt(8000)

    def test_equatorial_mixture_weight(self):
        spec = ProtocolSpec(theta=np.pi / 2, strength=Strength(0.5))
        h = readout_histogram(spec, McConfig(n_samples=20000, seed=5))
        # weight of the displaced cloud = population antipodal to the first
        # rotated axis: (1-w) * sin^2(pi/6)
        assert abs(h.p_f - 0.125) < 1e-12
        assert h.p_value > 1e-3
        frac = np.mean(h.readouts > h.separation / 2.0)
        from scipy.special import ndtr
        expect = h.p_f * ndtr(h.separation / 2.0) + (1 - h.p_f) * (
            1.0 - ndtr(h.separation / 2.0))
        assert abs(frac - expect) < 4.0 * np.sqrt(expect * (1 - expect) / 20000)

    def test_weak_limit_clouds_overlap(self):
        spec = ProtocolSpec(theta=np.pi / 2, strength=Strength(0.999))
        h = readout_histogram(spec, McConfig(n_samples=4000, seed=9))
        assert h.separation < 0.1
        assert h.p_value > 1e-3

    def test_counts_conserved(self):
        spec = ProtocolSpec(theta=1.0, strength=Strength(0.4))
        h = readout_histogram(spec, McConfig(n_samples=5000, seed=13))
        assert int(h.counts.sum()) == 5000
        assert abs(h.expected.sum() - 5000) < 1e-6

    def test_projective_rejected(self):
        with pytest.raises(DomainError):
            readout_histogram(ProtocolSpec(theta=1.0, strength=Strength(0.0)),
                              McConfig(n_samples=100, seed=1))


def test_chi2_tail_matches_scipy():
    from scipy.stats import chi2

    for dof in range(1, 61):
        for x in (0.0, 1e-3, 0.5, 1.0, 3.0, 10.0, 30.0, 100.0, 500.0):
            assert _chi2_sf(x, dof) == pytest.approx(
                chi2.sf(x, dof), rel=1e-12, abs=0.0), (dof, x)
