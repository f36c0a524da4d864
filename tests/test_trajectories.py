import numpy as np
import pytest

from geophase import trajectories
from geophase.errors import DomainError
from geophase.cli import MAX_N_MEAS
from geophase.measurement import (ReadoutDistribution, Strength,
                                  cloud_separation, gauss_amplitudes,
                                  kraus_readout)
from geophase.protocol import (ProtocolSpec, _frame_steps, initial_state,
                               run_protocol_analytic)
from geophase.qutrit import E, G, rotation_to_axis
from geophase.trajectories import (BLOCK_SIZE, McConfig, mc_interference,
                                   readout_histogram, sample_trajectory,
                                   z_scores, interference_terms,
                                   _chi2_sf, _gauss_quantile, _log_ratio,
                                   _blocks, _block_terms, _map_blocks,
                                   _moments, _readouts, _runs, _uniforms,
                                   _walk)


def _doubles(words):
    return (words >> np.uint64(11)) * 2.0 ** -53


class TestUniforms:
    @pytest.mark.parametrize("n_draws", [1, 3, 4, 5, 6, 11])
    @pytest.mark.parametrize("seed", [0, 1, 42, 2 ** 64 - 1])
    def test_rows_of_one_stream(self, seed, n_draws):
        # starts 0..3 reach every value of start * n_draws mod 4, so the
        # first word sits at every offset within a Philox block
        stop = 9
        ref = _doubles(np.random.Philox(key=seed).random_raw(stop * n_draws))
        ref = ref.reshape(stop, n_draws)
        for start in range(4):
            got = _uniforms(seed, start, stop, n_draws)
            assert got.shape == (n_draws, stop - start)
            assert np.array_equal(got.T, ref[start:])

    def test_int64_start_near_2_62(self):
        start, n_draws = np.int64(2 ** 62 + 1), 6
        first = (2 ** 62 + 1) * n_draws
        bitgen = np.random.Philox(key=5, counter=first // 4)
        ref = _doubles(bitgen.random_raw(first % 4 + 3 * n_draws))
        got = _uniforms(5, start, start + 3, n_draws)
        assert np.array_equal(got.T, ref[first % 4:].reshape(3, n_draws))


def test_click_readout_stable_in_p_f():
    # a last-bit change of p_f must not move a displaced-cloud readout
    p_f = 10.0 ** np.random.default_rng(0).uniform(-3.0, -1.0, 2000)
    for f in (1e-3, 0.5, 1.0 - 1e-6):
        u = 1.0 - (1.0 - f) * p_f
        shift = (_readouts(u, np.nextafter(p_f, 1.0), 2.0)
                 - _readouts(u, p_f, 2.0))
        assert np.max(np.abs(shift)) <= 1e-12, f


def test_draw_guards_were_dead():
    # The draw once floored both divisors at 1e-300 and clipped p_f from
    # below at 0.  A click needs p_f > 0 and no click 1 - p_f > u >= 0, so
    # neither divisor can be 0 and dropping the guards moves no readout.
    tiny = 2.0 ** -53
    u, p_f = np.meshgrid([0.0, tiny, 0.5, 1.0 - tiny],
                         [0.0, tiny, 0.5, 1.0 - tiny, 1.0])
    null_w = 1.0 - np.clip(p_f, 0.0, 1.0)
    click = u >= null_w
    scale = np.where(click, np.maximum(np.clip(p_f, 0.0, 1.0), 1e-300),
                     np.maximum(null_w, 1e-300))
    q = _gauss_quantile(np.clip(np.where(click, 1.0 - u, u) / scale, 1e-300,
                                1.0 - 1e-16))
    assert click.any() and not click.all()
    for r0 in (0.5, 2.0, 40.0):
        assert np.array_equal(_readouts(u, p_f, r0),
                              np.where(click, r0 - q, q))


#: Probabilities for the quantile tests: the clip ends and beyond (0 and 1
#: read as 1e-300 and 1 - 1e-16), 1/2, both sides of the 0.075 and 0.925
#: splits between the central and tail rationals, the split of the tail
#: rationals at sqrt(-ln p) = 5, and decades in between.
_QUANTILE_GRID = np.array(sorted({
    0.0, 1e-300, 5e-300, 1e-200, 1e-100, 1e-50, 1e-20, 1e-12,
    float(np.exp(-25.0)), 1e-11, 1e-8, 1e-5, 1e-3, 0.01, 0.05,
    float(np.nextafter(0.075, 0.0)), 0.075, float(np.nextafter(0.075, 1.0)),
    0.1, 0.2, 0.3, 0.4, 0.45, 0.5, 0.55, 0.6, 0.7, 0.8, 0.9,
    float(np.nextafter(0.925, 0.0)), 0.925, float(np.nextafter(0.925, 1.0)),
    0.95, 0.99, 0.999, 1.0 - 1e-5, 1.0 - 1e-8, 1.0 - 1e-12, 1.0 - 1e-15,
    1.0 - 1e-16, 1.0}))


def _clipped_grid():
    return np.clip(_QUANTILE_GRID, 1e-300, 1.0 - 1e-16)


def test_gauss_quantile_against_40_digits():
    import mpmath

    got = _gauss_quantile(_QUANTILE_GRID)
    with mpmath.workdps(40):
        for p, x in zip(_clipped_grid(), got):
            target = mpmath.mpf(float(p))
            ref = mpmath.findroot(lambda t: mpmath.ncdf(t) - target,
                                  mpmath.mpf(float(x)))
            if ref == 0:
                assert x == 0.0, p
                continue
            ulp = np.spacing(abs(float(ref)))
            assert abs(mpmath.mpf(float(x)) - ref) <= 8 * ulp, (p, x, ref)


def test_gauss_quantile_against_scipy():
    from scipy.special import ndtri

    ref = ndtri(_clipped_grid())
    got = _gauss_quantile(_QUANTILE_GRID)
    assert np.all(np.abs(got - ref) <= 8 * np.spacing(np.abs(ref)))


def test_gauss_quantile_keeps_its_input_shape():
    assert np.ndim(_gauss_quantile(0.3)) == 0
    assert _gauss_quantile(0.5) == 0.0
    grid = _QUANTILE_GRID[:40].reshape(5, 8)
    assert np.array_equal(_gauss_quantile(grid),
                          _gauss_quantile(grid.ravel()).reshape(5, 8))


@pytest.mark.parametrize("theta", [0.3, 2.2])
@pytest.mark.parametrize("m", [0.5, 0.999, 1e-300, 0.0])
def test_walk_stays_normalized(m, theta):
    # most steps take the norm from p_f, not from the components; a frame
    # step unitary only to rounding must not let it drift over the longest
    # allowed sequence
    spec = ProtocolSpec(theta=theta, strength=Strength(m), n_meas=MAX_N_MEAS)
    steps = list(_frame_steps(spec.theta, spec.phi_schedule))
    worst = 0.0
    for a_f, a_e, g, _, _ in _walk(spec, steps, 11, 0, 64):
        norm = (a_f.real ** 2 + a_f.imag ** 2 + a_e.real ** 2
                + a_e.imag ** 2 + g * g)
        worst = max(worst, float(np.max(np.abs(norm - 1.0))))
    assert worst <= 1e-12


@pytest.mark.parametrize("w", [0.2, 0.5, 0.9])
@pytest.mark.parametrize("theta", [0.0, 0.3, 1.2, np.pi / 2, 2.9, np.pi])
@pytest.mark.parametrize("n_meas", [1, 3, 6, 24, 63, 64, 65, 200])
def test_unmeasured_walk_is_the_closed_form(n_meas, theta, w):
    # at m = 1 every readout's factor and norm are exactly 1, so each walk
    # step is the closed-form step; only a re-summed norm can round
    spec = ProtocolSpec(theta=theta, strength=Strength(1.0), n_meas=n_meas,
                        reference_weight=w)
    amp = run_protocol_analytic(spec)[0].amplitude
    terms = interference_terms(spec, McConfig(n_samples=8, seed=5))
    tol = 0.0 if n_meas < trajectories._RESUM_EVERY else 1e-13
    assert np.max(np.abs(terms - amp)) <= tol


def test_unmeasured_walk_is_the_closed_form_on_a_custom_schedule():
    spec = ProtocolSpec(theta=1.9, strength=Strength(1.0), n_meas=5,
                        phi_schedule=(-0.4, -1.9, -2.2, -4.0, -6.0),
                        reference_weight=0.3)
    amp = run_protocol_analytic(spec)[0].amplitude
    terms = interference_terms(spec, McConfig(n_samples=8, seed=5))
    assert np.all(terms == amp)


@pytest.mark.parametrize("p_f, r0", [(0.0, 0.5), (0.125, 2.0), (0.7, 6.3)])
def test_readout_cdf_against_scipy(p_f, r0):
    from scipy.special import ndtr

    edges = np.linspace(-6.0, r0 + 6.0, trajectories.HISTOGRAM_BINS + 1)
    dist = ReadoutDistribution(p_f, r0)
    ref = p_f * ndtr(edges - r0) + (1.0 - p_f) * ndtr(edges)
    got = dist.cdf(edges)
    assert got.shape == edges.shape
    assert np.max(np.abs(got - ref) / ref) <= 1e-13
    for edge, expect in zip(edges[::8], ref[::8]):
        one = dist.cdf(edge)
        assert np.ndim(one) == 0
        assert abs(one - expect) <= 1e-13 * expect


@pytest.mark.parametrize("m", [1e-12, 0.2, 0.5, 0.9, 0.999])
def test_log_ratio_is_the_kraus_amplitude_ratio(m):
    # the kernel's one factor per readout is Psit(r)/Psi(r) at the readout
    # r, in the null cloud (r = q) and in the displaced one (r = r0 - q)
    s = Strength(m)
    r0 = cloud_separation(s)
    q = np.linspace(-8.3, 8.3, 167)
    for r in (q, r0 - q):
        factor = np.exp(_log_ratio(r, 0.5 * r0))
        psit, psi = gauss_amplitudes(s, r)
        # on this grid both amplitudes are finite and nonzero everywhere
        assert np.all(psit > 0.0) and np.all(psi > 0.0)
        assert np.max(np.abs(factor / (psit / psi) - 1.0)) <= 1e-13


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
    assert ProtocolSpec(theta=1.0, strength=Strength(0.5),
                        n_meas=np.int64(6)).n_meas == 6


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

    @pytest.mark.parametrize("seed", [1.5, True, "3", 2 ** 64, -1])
    def test_seed_checked_as_mc_config_checks_it(self, seed):
        spec = ProtocolSpec(theta=1.3, strength=Strength(0.4))
        with pytest.raises(DomainError):
            sample_trajectory(spec, 0, seed=seed)

    @pytest.mark.parametrize("m", [0.9, 0.0])
    def test_term_is_the_estimators_term(self, m):
        # the replay runs the estimators' step on its one-sample block, so
        # its term is theirs bit for bit, tail readouts included
        spec = ProtocolSpec(theta=1.2, strength=Strength(m), n_meas=24,
                            reference_weight=0.5)
        terms = interference_terms(spec, McConfig(n_samples=BLOCK_SIZE,
                                                  seed=5))
        for sid in range(0, BLOCK_SIZE, 16):
            single = sample_trajectory(spec, sid, 5).interference_term
            assert single == terms[sid], sid

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
    """The estimators' composed 2x2 kernel, run by ``sample_trajectory``,
    against the per-step 3x3 replay of the readouts it drew: term, final
    state and joint outcome density."""

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


@pytest.mark.parametrize("m", [5e-324, 1e-300, 1e-100])
@pytest.mark.parametrize("n_meas", [1, 24, 256])
def test_extreme_strengths(m, n_meas):
    # a click here has a log likelihood ratio of r0^2/4 - r0 q/2, up to
    # about 1800, which the kernel caps (N = 24 draws clicks; N = 1 and
    # N = 256 mostly test the null side); the terms stay finite, bounded
    # and equal to the per-step replay of the same readouts
    spec = ProtocolSpec(theta=1.2, strength=Strength(m), n_meas=n_meas,
                        reference_weight=0.37)
    terms = interference_terms(spec, McConfig(n_samples=256, seed=7))
    assert np.all(np.isfinite(terms))
    assert np.max(np.abs(terms)) <= 1.0 + 1e-12
    for sid in range(0, 256, 16):
        s = sample_trajectory(spec, sid, seed=7)
        assert abs(terms[sid] - per_step_replay(spec, s.readouts)[0]) <= 1e-12


@pytest.fixture
def serial_pool(monkeypatch):
    """Stub ``_pool`` to record each pool's size and job count and to map
    serially, so no worker process is started whatever count is asked
    for."""

    class SerialPool:
        asked, jobs = [], []

        @classmethod
        def map(cls, fn, *args):
            out = list(map(fn, *args))
            cls.jobs.append(len(out))
            return out

    def fake_pool(workers):
        SerialPool.asked.append(workers)
        return SerialPool

    monkeypatch.setattr(trajectories, "_pool", fake_pool)
    return SerialPool


def _walk_cap(n_meas):
    return max(1, min(trajectories.WALK_BLOCKS,
                      trajectories.WALK_DRAWS // (BLOCK_SIZE * n_meas)))


class TestRuns:
    """Walks that span several reduction blocks: the runs, and the moments
    and terms of a run against those of its blocks walked one by one."""

    @pytest.mark.parametrize("n_meas", [1, 6, 24, 96, 4096])
    @pytest.mark.parametrize("workers", [1, 2, 3, 7])
    def test_runs_partition_the_blocks(self, n_meas, workers):
        k = _walk_cap(n_meas)
        for n_blocks in range(workers, 40):
            blocks = _blocks(n_blocks * BLOCK_SIZE - 3)
            runs = _runs(blocks, n_meas, workers)
            # every block once, in order, in runs of consecutive blocks
            assert [b for run in runs for b in run] == blocks
            sizes = [len(run) for run in runs]
            assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
            # a walk past one block holds at most WALK_DRAWS uniforms
            assert max(sizes) <= trajectories.WALK_BLOCKS
            assert (max(sizes) == 1 or max(sizes) * BLOCK_SIZE * n_meas
                    <= trajectories.WALK_DRAWS)
            # the fewest runs that is a multiple of the worker count, or
            # one block a run when there are too few blocks for that
            least = -(-n_blocks // (k * workers)) * workers
            assert len(runs) == min(least, n_blocks)
            assert len(runs) % workers == 0 or max(sizes) == 1

    def test_a_1e5_cell_sends_8_jobs_to_2_workers(self, serial_pool,
                                                  monkeypatch):
        monkeypatch.setattr(trajectories.os, "cpu_count", lambda: 2)
        spec = ProtocolSpec(theta=1.2, strength=Strength(0.6))
        mc_interference(spec, McConfig(n_samples=100000, seed=42), workers=2)
        assert serial_pool.asked == [2] and serial_pool.jobs == [8]

    @pytest.mark.parametrize("n_samples", [1, BLOCK_SIZE - 1, BLOCK_SIZE,
                                           5 * BLOCK_SIZE + 17,
                                           9 * BLOCK_SIZE])
    @pytest.mark.parametrize("m", [0.6, 0.0], ids=["gauss", "projective"])
    @pytest.mark.parametrize("n_meas", [1, 6, 24, 96])
    def test_run_moments_are_the_block_moments(self, serial_pool,
                                               monkeypatch, n_meas, m,
                                               n_samples):
        monkeypatch.setattr(trajectories.os, "cpu_count", lambda: 8)
        spec = ProtocolSpec(theta=1.2, strength=Strength(m), n_meas=n_meas,
                            reference_weight=0.4)
        cfg = McConfig(n_samples=n_samples, seed=23)
        steps = list(_frame_steps(spec.theta, spec.phi_schedule))
        blocks = _blocks(n_samples)
        one_by_one = [_moments(_block_terms(spec, steps, 23, a, b))
                      for a, b in blocks]
        for workers in (1, 2, 3):
            assert _map_blocks(spec, cfg, workers) == one_by_one, workers
        used = [min(w, len(blocks)) for w in (2, 3) if len(blocks) > 1]
        assert serial_pool.asked == used

    @pytest.mark.parametrize("m", [0.6, 0.0], ids=["gauss", "projective"])
    @pytest.mark.parametrize("n_meas", [1, 6, 24])
    def test_terms_are_the_block_terms_joined(self, n_meas, m):
        spec = ProtocolSpec(theta=2.2, strength=Strength(m), n_meas=n_meas,
                            reference_weight=0.3)
        steps = list(_frame_steps(spec.theta, spec.phi_schedule))
        n_samples = 5 * BLOCK_SIZE + 17
        joined = np.concatenate([_block_terms(spec, steps, 9, a, b)
                                 for a, b in _blocks(n_samples)])
        terms = interference_terms(spec, McConfig(n_samples=n_samples,
                                                  seed=9))
        assert np.array_equal(terms.view(float), joined.view(float))


class TestMcInterference:
    def test_matches_single_sample_path(self):
        spec = ProtocolSpec(theta=1.3, strength=Strength(0.4))
        terms = interference_terms(spec, McConfig(n_samples=50, seed=3))
        for sid in (0, 13, 49):
            single = sample_trajectory(spec, sid, 3).interference_term
            assert single == terms[sid]
        # the samples on both sides of each block boundary
        cfg = McConfig(n_samples=2 * BLOCK_SIZE + 5, seed=3)
        for n_meas in (1, 5):
            spec = ProtocolSpec(theta=1.3, strength=Strength(0.4),
                                n_meas=n_meas)
            terms = interference_terms(spec, cfg)
            for sid in (BLOCK_SIZE - 1, BLOCK_SIZE, 2 * BLOCK_SIZE - 1,
                        2 * BLOCK_SIZE):
                single = sample_trajectory(spec, sid, 3).interference_term
                assert single == terms[sid]

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
    def test_worker_count_capped_by_blocks_and_cpus(self, serial_pool,
                                                    monkeypatch, cpus,
                                                    expect):
        monkeypatch.setattr(trajectories.os, "cpu_count", lambda: cpus)
        spec = ProtocolSpec(theta=2.2, strength=Strength(0.7))
        cfg = McConfig(n_samples=2 * BLOCK_SIZE + 17, seed=4)
        est = mc_interference(spec, cfg, workers=100000)
        assert serial_pool.asked == expect
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

    @pytest.mark.parametrize("theta, m, w", [(1.2, 0.5, 0.5),
                                             (np.pi / 2, 0.2, 0.3),
                                             (2.2, 0.9, 0.1)])
    def test_draw_i_is_sample_i_of_one_measurement(self, theta, m, w):
        # the histogram's draw i reads word i of the seed's stream, as the
        # only readout of sample i of a one-measurement run does, at the
        # p_f of the walk's own first frame step
        seed = 17
        spec = ProtocolSpec(theta=theta, strength=Strength(m),
                            reference_weight=w)
        h = readout_histogram(spec, McConfig(n_samples=64, seed=seed))
        one = ProtocolSpec(theta=theta, strength=spec.strength, n_meas=1,
                           phi_schedule=spec.phi_schedule[:1],
                           reference_weight=w)
        replay = [sample_trajectory(one, i, seed).readouts[0]
                  for i in range(64)]
        assert h.p_f > 0.1
        assert np.array_equal(h.readouts, replay)

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
