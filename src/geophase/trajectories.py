"""Born-rule Monte Carlo over full readout sequences.

This is the stochastic oracle for the closed-form null-outcome product:
every trajectory draws its readouts from the exact outcome distribution,
applies the outcome-resolved backaction, and contributes the interference
term of its *normalized* final state.  Because the squared norm of the
unnormalized state is the joint outcome density, the plain sample mean of

    <psi_hat | R_close^dag A R_close | psi_hat>,   A = 2 |g><e|,

estimates the ensemble interference integral without selecting any
trajectory; postselection-free averaging is what makes the comparison
against the analytic product meaningful.

The state is the {e,f} pair (a_f, a_e) and a real reference amplitude
a_g.  It starts, steps and closes by the closed form's ``_start``,
``_frame_step`` and ``_close`` (:mod:`geophase.spec`), so each readout's
Kraus operator is
diagonal in the frame it is drawn in: diag(Psit(r), Psi(r), Psi(r)).
Each step draws its readout r once (``_readouts``); after renormalization
the state depends on r only through the likelihood ratio Psit(r)/Psi(r) =
e^{h (r - h)}, h = r0/2, so the one step kernel (``_walk``) scales a_f by
that one factor, or by the click mask if projective.
The estimators keep neither readouts nor weights;
``sample_trajectory`` runs the same kernel on one sample and reports them,
its weight the product of the per-readout mixture densities.

Randomness is counter-based: a run with seed ``s`` reads one Philox stream
keyed by ``s``, and sample ``i`` of an ``N``-measurement run takes its N
uniforms, one per measurement, from the 64-bit words ``i*N`` to
``(i+1)*N - 1``; each is mapped through the component-wise inverse CDF of
the readout mixture, whose unit Gaussian quantile is Wichura's AS241 in
numpy.  A trajectory is therefore a pure function of
``(seed, sample_id, spec)``.  Samples are reduced in blocks of BLOCK_SIZE;
each block is reduced to its count, mean and squared deviations where it
is sampled, and the blocks are merged in block order, so results are
bit-identical for any worker count or evaluation order and memory does not
grow with the sample count.  One walk spans a run of up to WALK_BLOCKS
consecutive blocks (``_runs``), which spreads numpy's fixed cost per call
over more samples.  That moves no bit: every step of the walk acts on each
sample alone, so a sample's term does not depend on which samples share
its walk (``sample_trajectory`` walks one alone), and each block is still
reduced on its own BLOCK_SIZE slice of the terms.
"""

from __future__ import annotations

import atexit
import functools
import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError
from .measurement import ReadoutDistribution, cloud_separation
from .protocol import _frame_steps, _ReadOnlyArrays, _to_lab
from .spec import ProtocolSpec, _close, _frame_step, _require_int, _start
from .qutrit import QutritState

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

#: Samples per reduction block; fixed so that the block layout (and thus the
#: bit pattern of the result) never depends on the worker count.
BLOCK_SIZE = 4096

#: A walk (one ``_walk`` call) spans at most WALK_BLOCKS consecutive blocks
#: and, if more than one, no more than keep its uniforms within WALK_DRAWS
#: (8 MB).  Longer walks spread numpy's fixed cost per call over more
#: samples; beyond four blocks a step's arrays outgrow the cache and
#: N = 6 slows again, and the draw cap bounds a walk's memory at large
#: n_meas.
WALK_BLOCKS = 4
WALK_DRAWS = 2 ** 20

#: Minimum sample count below which estimates are flagged insufficient.
MIN_SAMPLES = 100

#: Bins of the readout histogram before sparse bins are merged.
HISTOGRAM_BINS = 40


@dataclass(frozen=True)
class McConfig:
    """Size and seeding of a Monte Carlo run.

    Stream policy: one Philox stream keyed by the run seed, read in
    consecutive runs of n_meas words per sample id (see the module
    docstring).
    """

    n_samples: int
    seed: int

    def __post_init__(self):
        _require_int("n_samples", self.n_samples)
        _require_int("seed", self.seed)
        if self.n_samples < 1:
            raise DomainError(f"n_samples={self.n_samples!r} must be >= 1")
        if not (0 <= int(self.seed) < 2 ** 64):
            raise DomainError("seed must fit in 64 bits")


@dataclass(frozen=True)
class TrajectorySample(_ReadOnlyArrays):
    """One simulated readout sequence.

    ``readouts`` holds the readout coordinates (for a projective run, the
    click indicators).  ``final_state`` is the normalized state after the
    last measurement, before the closing contraction.
    ``probability_weight`` is the joint outcome density (or probability, if
    projective) accumulated along the sequence.
    """

    readouts: np.ndarray
    final_state: QutritState
    probability_weight: float
    interference_term: complex


def _uniforms(seed: int, start: int, stop: int, n_draws: int) -> np.ndarray:
    """uniforms[k, i]: draw k of sample start + i, shape (n_draws, n).

    Sample i reads the 64-bit words i*n_draws ... (i+1)*n_draws - 1 of the
    one Philox stream keyed by the seed.  ``advance(d)`` skips d blocks of
    four words, so a block of samples reaches its first word with one
    advance and at most three discarded words.  Raw words are mapped to
    [0, 1) by their top 53 bits here, because numpy fixes a bit
    generator's raw output across versions but not ``Generator.random``.
    The words are read from the stream in chunks of at most WALK_DRAWS and
    each chunk is written transposed into the output, so each draw's
    uniforms are contiguous and only one chunk of raw words is held
    beside them.
    """
    first = int(start) * n_draws
    bitgen = np.random.Philox(key=seed)
    bitgen.advance(first // 4)
    bitgen.random_raw(first % 4)
    n = int(stop - start)
    out = np.empty((n_draws, n))
    chunk = max(1, WALK_DRAWS // n_draws)
    for a in range(0, n, chunk):
        b = min(a + chunk, n)
        words = bitgen.random_raw((b - a) * n_draws)
        words >>= np.uint64(11)
        np.multiply(words.reshape(-1, n_draws).T, 2.0 ** -53,
                    out=out[:, a:b])
        del words
    return out


# Wichura's AS241 (PPND16; Applied Statistics 37:477-484, 1988): the
# numerator and denominator coefficients, lowest order first, of the
# central rational in r = 0.180625 - (p - 1/2)^2 and of the two tail
# rationals in sqrt(-ln p) - 1.6 and sqrt(-ln p) - 5.
_PPND16 = {
    "central": ((3.3871328727963666080e0, 1.3314166789178437745e+2,
                 1.9715909503065514427e+3, 1.3731693765509461125e+4,
                 4.5921953931549871457e+4, 6.7265770927008700853e+4,
                 3.3430575583588128105e+4, 2.5090809287301226727e+3),
                (1.0, 4.2313330701600911252e+1, 6.8718700749205790830e+2,
                 5.3941960214247511077e+3, 2.1213794301586595867e+4,
                 3.9307895800092710610e+4, 2.8729085735721942674e+4,
                 5.2264952788528545610e+3)),
    "tail": ((1.42343711074968357734e0, 4.63033784615654529590e0,
              5.76949722146069140550e0, 3.64784832476320460504e0,
              1.27045825245236838258e0, 2.41780725177450611770e-1,
              2.27238449892691845833e-2, 7.74545014278341407640e-4),
             (1.0, 2.05319162663775882187e0, 1.67638483018380384940e0,
              6.89767334985100004550e-1, 1.48103976427480074590e-1,
              1.51986665636164571966e-2, 5.47593808499534494600e-4,
              1.05075007164441684324e-9)),
    "far": ((6.65790464350110377720e0, 5.46378491116411436990e0,
             1.78482653991729133580e0, 2.96560571828504891230e-1,
             2.65321895265761230930e-2, 1.24266094738807843860e-3,
             2.71155556874348757815e-5, 2.01033439929228813265e-7),
            (1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1,
             1.48753612908506148525e-2, 7.86869131145613259100e-4,
             1.84631831751005468180e-5, 1.42151175831644588870e-7,
             2.04426310338993978564e-15)),
}


def _horner(x, coef):
    """sum_k coef[k] x^k, in place on one new array."""
    out = coef[-1] * x
    for c in coef[-2:0:-1]:
        out += c
        out *= x
    out += coef[0]
    return out


def _rational(x, branch: str):
    """One AS241 rational, numerator over denominator, at x."""
    num, den = _PPND16[branch]
    out = _horner(x, num)
    out /= _horner(x, den)
    return out


def _gauss_quantile(p):
    """Unit Gaussian quantile of p, of any shape, by AS241 (PPND16).

    The central rational serves |p - 1/2| <= 0.425, and the tail rationals
    the rest, in s = sqrt(-ln min(p, 1 - p)) up to and beyond 5.  Only the
    tail is clipped, to p in [1e-300, 1 - 1e-16], so 0 and 1 map to finite
    quantiles (about -37.05 and 8.21).  Within 5 ulp of the exact quantile
    on that range.
    """
    p = np.asarray(p, dtype=float)
    flat = p.reshape(-1)
    q = flat - 0.5
    r = q * q
    r = np.subtract(0.180625, r, out=r)
    x = _rational(r, "central")
    x *= q
    tail = np.flatnonzero(r < 0.0)
    if tail.size:
        pt = np.minimum(np.maximum(flat[tail], 1e-300), 1.0 - 1e-16)
        s = np.sqrt(-np.log(np.minimum(pt, 1.0 - pt)))
        val = _rational(s - 1.6, "tail")
        far = np.flatnonzero(s > 5.0)
        if far.size:
            val[far] = _rational(s[far] - 5.0, "far")
        x[tail] = np.copysign(val, q[tail])
    return x.reshape(p.shape)[()]


def _readouts(u: np.ndarray | float, p_f: np.ndarray | float,
              r0: float) -> np.ndarray:
    """Readouts r, one inverse-CDF draw from the readout mixture per
    uniform; ``p_f`` broadcasts against ``u``.

    The uniform selects the cloud by its weight and its remainder is pushed
    through the unit Gaussian quantile q, which samples the exact mixture
    with a single draw: r = q in the null cloud and r = r0 - q in the
    displaced one.  The displaced cloud takes the upper tail, u in
    [1 - p_f, 1), and reads its remainder as (1 - u) / p_f: 1 - u is exact
    for u >= 1/2, where u - (1 - p_f) would cancel for small p_f.  Neither
    divisor can be 0: a click means p_f > 0, and no click means
    1 - p_f > u >= 0.
    """
    null_w = 1.0 - p_f
    click = u >= null_w
    v = np.where(click, 1.0 - u, u) / np.where(click, p_f, null_w)
    q = _gauss_quantile(v)
    return np.where(click, r0 - q, q)


#: Cap on the log likelihood ratio, below the ~355 at which |a_f|^2 would
#: overflow.  A null-cloud readout r = q <= 8.3 has a ratio of at most
#: about 17, and a displaced one, r = r0 - q, reaches 300 only for m below
#: about 1e-41.  The capped ratio still leaves a_e and g below
#: 2^27 e^-300 of a_f, since a click needs |a_f|^2 > 2^-54.
_LOG_RATIO_CAP = 300.0


def _log_ratio(r: np.ndarray, h: float) -> np.ndarray:
    """ln(Psit(r)/Psi(r)) = h (r - h), h = r0/2, capped at _LOG_RATIO_CAP."""
    x = r - h
    x *= h
    return np.minimum(x, _LOG_RATIO_CAP, out=x)


#: Steps between the norms that the Gaussian ``_walk`` sums over the
#: components; the steps in between take it from p_f.  A step's rounding
#: moves the norm by up to about 1e-15, so it stays within about 1e-13 of 1.
_RESUM_EVERY = 64


def _p_f(a_f):
    """The weight p_f = |a_f|^2, at most 1, of the displaced cloud."""
    return np.minimum(a_f.real ** 2 + a_f.imag ** 2, 1.0)


def _walk(spec: ProtocolSpec, steps: list, seed: int, start: int, stop: int):
    """Measure samples [start, stop) one readout at a time.  Pure function
    of its arguments.

    The state is carried as (a_f, a_e, g) in the frame of the current
    measurement.  Since every step renormalizes, a readout acts only
    through one ``factor`` on a_f: a Gaussian readout r through its
    likelihood ratio (one exp of ``_log_ratio``), a projective one through
    its click mask r, after a_e and g of the clicked samples are zeroed.
    One normalization serves both.  It sums the squared norm over the
    components at every projective step and every _RESUM_EVERY-th
    Gaussian one, which stops the drift of a frame step unitary only to
    rounding; the other Gaussian steps take it as 1 + p_f (factor^2 - 1).
    Each measurement yields the normalized (a_f, a_e, g), the p_f it was
    drawn at and r; g is updated in place by the next step.  Every sample
    starts in the same state, so the first frame step and its p_f are
    scalars, which the first readout's products make arrays.

    The 2x2 products are written out elementwise: a BLAS call on blocks
    this thin starts threads that compete with the worker processes.
    """
    uniforms = _uniforms(seed, start, stop, spec.n_meas)
    a_f, a_e, g = _start(spec.reference_weight)
    projective = spec.strength.is_projective
    r0 = cloud_separation(spec.strength)

    for k, (step, u) in enumerate(zip(steps, uniforms), 1):
        a_f, a_e = _frame_step(step, a_f, a_e)
        p_f = _p_f(a_f)
        if projective:
            r = u >= 1.0 - p_f
            factor = r.astype(float)
            a_e *= ~r
            g *= ~r
        else:
            r = _readouts(u, p_f, r0)
            factor = _log_ratio(r, 0.5 * r0)
            factor = np.exp(factor, out=factor)
        inv_norm = factor * factor
        if projective or k % _RESUM_EVERY == 0:
            inv_norm *= p_f
            inv_norm += a_e.real ** 2 + a_e.imag ** 2
            inv_norm += g * g
        else:
            inv_norm -= 1.0
            inv_norm *= p_f
            inv_norm += 1.0
        inv_norm = np.sqrt(inv_norm, out=inv_norm)
        inv_norm = np.divide(1.0, inv_norm, out=inv_norm)
        factor *= inv_norm
        a_f *= factor
        a_e *= inv_norm
        g *= inv_norm
        yield a_f, a_e, g, p_f, r


def _block_terms(spec: ProtocolSpec, steps: list, seed: int, start: int,
                 stop: int) -> np.ndarray:
    """Interference terms of samples [start, stop), nothing else kept."""
    for a_f, a_e, g, _, _ in _walk(spec, steps, seed, start, stop):
        pass
    return _close(steps[-1], a_f, a_e, g)


def sample_trajectory(spec: ProtocolSpec, sample_id: int,
                      seed: int) -> TrajectorySample:
    """Replay the single trajectory addressed by (seed, sample_id).

    It runs the estimators' own ``_walk`` on the block [sample_id,
    sample_id + 1), so its term is theirs bit for bit, and records what
    they do not keep: the readouts r (projective: the clicks), and the
    joint outcome density.  The state before every readout is normalized
    to within about 1e-13 (``_RESUM_EVERY``), so that is the product of the
    two-cloud mixture densities at p_f (projective: of p_f or 1 - p_f), to
    the same relative precision per readout.
    """
    McConfig(n_samples=1, seed=seed)
    _require_int("sample_id", sample_id)
    if sample_id < 0:
        raise DomainError(f"sample_id={sample_id!r} must be >= 0")
    steps = list(_frame_steps(spec.theta, spec.phi_schedule))
    readouts, weight = np.empty(spec.n_meas), 1.0
    r0 = cloud_separation(spec.strength)
    walk = _walk(spec, steps, seed, sample_id, sample_id + 1)
    for k, (a_f, a_e, g, p_f, r) in enumerate(walk):
        p_f, readouts[k] = p_f.item(0), r[0]
        if spec.strength.is_projective:
            weight *= p_f if readouts[k] else 1.0 - p_f
        else:
            weight *= float(ReadoutDistribution(p_f, r0).pdf(readouts[k]))
    term = _close(steps[-1], a_f, a_e, g)[0]
    lab = _to_lab(spec.theta, spec.phi_schedule[-1], a_f[0], a_e[0])
    state = np.array([*lab, g[0]], dtype=complex)
    return TrajectorySample(readouts=readouts,
                            final_state=QutritState(state, normalized=True),
                            probability_weight=weight,
                            interference_term=complex(term))


@dataclass(frozen=True)
class McEstimate:
    """Sample mean of the interference terms with componentwise errors."""

    mean: complex
    stderr_re: float
    stderr_im: float
    n_samples: int
    insufficient: bool

    @property
    def contrast(self) -> float:
        return abs(self.mean)

    @property
    def phase(self) -> float:
        return float(np.angle(self.mean))

    @property
    def contrast_stderr(self) -> float:
        c = self.contrast
        if c == 0.0:
            return float(np.hypot(self.stderr_re, self.stderr_im))
        return float(np.hypot(self.mean.real * self.stderr_re,
                              self.mean.imag * self.stderr_im) / c)

    @property
    def phase_stderr(self) -> float:
        c = self.contrast
        if c == 0.0:
            return float(np.pi)
        return float(np.hypot(self.mean.imag * self.stderr_re,
                              self.mean.real * self.stderr_im) / c ** 2)


def _blocks(n_samples: int):
    return [(s, min(s + BLOCK_SIZE, n_samples))
            for s in range(0, n_samples, BLOCK_SIZE)]


def _moments(terms: np.ndarray):
    """(count, mean, M2_re, M2_im) of one block's terms; M2 is the sum of
    squared deviations of a component from the block mean."""
    mean = complex(np.mean(terms))
    dev = terms - mean
    return (terms.size, mean, float(np.sum(dev.real ** 2)),
            float(np.sum(dev.imag ** 2)))


def _runs(blocks: list, n_meas: int, workers: int) -> list:
    """Cut ``blocks`` into runs of consecutive blocks, one walk each.

    A run holds at most max(1, min(WALK_BLOCKS, WALK_DRAWS // (BLOCK_SIZE
    * n_meas))) blocks.  The run count is the least multiple of ``workers``
    that allows this, or the block count if that is smaller, and run
    lengths differ by at most one block, so every worker gets a like share.
    """
    k = max(1, min(WALK_BLOCKS, WALK_DRAWS // (BLOCK_SIZE * n_meas)))
    n_runs = min(len(blocks), -(-len(blocks) // (k * workers)) * workers)
    size, extra = divmod(len(blocks), n_runs)
    cuts = [j * size + min(j, extra) for j in range(n_runs + 1)]
    return [blocks[a:b] for a, b in zip(cuts, cuts[1:])]


def _run_moments(spec: ProtocolSpec, steps: list, seed: int, run: list):
    """The moments of each block of one run, in block order.

    Every step of the walk is elementwise, so each BLOCK_SIZE slice of the
    run's terms is bit for bit the terms of that block walked alone, and
    its moments are the same."""
    first = run[0][0]
    terms = _block_terms(spec, steps, seed, first, run[-1][1])
    return [_moments(terms[a - first:b - first]) for a, b in run]


def _merge_moments(parts):
    """Merge per-block moments in block order (Chan, Golub and LeVeque's
    pairwise update), so the result never depends on the worker count."""
    n, mean, m2_re, m2_im = parts[0]
    for n_b, mean_b, m2_re_b, m2_im_b in parts[1:]:
        total = n + n_b
        delta = mean_b - mean
        mean += delta * (n_b / total)
        weight = n * n_b / total
        m2_re += m2_re_b + delta.real ** 2 * weight
        m2_im += m2_im_b + delta.imag ** 2 * weight
        n = total
    return n, mean, m2_re, m2_im


# Worker pools are reused across calls: fork startup costs more than a
# typical block, and repeated estimator calls (parameter grids) would pay
# it per call otherwise.  The pool machinery (multiprocessing and its
# imports) loads with the first pool, so a process that never starts one
# does not pay for it.
_pools: dict[int, ProcessPoolExecutor] = {}


def _shutdown_pools() -> None:
    # concurrent.futures.process is imported after this module, so module
    # teardown would clear it while executors left in _pools still hold
    # weakref callbacks into it; shut them down while it is intact.
    for pool in _pools.values():
        pool.shutdown()
    _pools.clear()


def _pool(workers: int) -> ProcessPoolExecutor:
    pool = _pools.get(workers)
    if pool is None:
        from concurrent.futures import ProcessPoolExecutor

        if not _pools:
            atexit.register(_shutdown_pools)
        pool = ProcessPoolExecutor(max_workers=workers)
        _pools[workers] = pool
    return pool


def _map_blocks(spec: ProtocolSpec, cfg: McConfig, workers: int) -> list:
    """The moments of every block, in block order.

    A pool forks all its workers on its first submit, so it gets no more
    of them than there are blocks or CPUs.  Each job is one run of blocks
    (``_runs``)."""
    steps = list(_frame_steps(spec.theta, spec.phi_schedule))
    blocks = _blocks(cfg.n_samples)
    workers = min(workers, len(blocks), os.cpu_count() or 1)
    runs = _runs(blocks, spec.n_meas, workers)
    moments = functools.partial(_run_moments, spec, steps, cfg.seed)
    if workers > 1:
        parts = _pool(workers).map(moments, runs)
    else:
        parts = map(moments, runs)
    return [block for part in parts for block in part]


def interference_terms(spec: ProtocolSpec, cfg: McConfig) -> np.ndarray:
    """Per-sample interference terms in sample order."""
    steps = list(_frame_steps(spec.theta, spec.phi_schedule))
    runs = _runs(_blocks(cfg.n_samples), spec.n_meas, 1)
    return np.concatenate([_block_terms(spec, steps, cfg.seed, run[0][0],
                                        run[-1][1]) for run in runs])


def mc_interference(spec: ProtocolSpec, cfg: McConfig,
                    workers: int = 1) -> McEstimate:
    """Estimate the ensemble interference c*exp(i*chi) by Born sampling.

    Every sampled trajectory enters the mean; nothing is discarded.  The
    componentwise standard errors are the usual sqrt(var/n).  Each block
    is reduced to its moments where it is sampled, so memory stays that
    of one walk (``_runs``) whatever the sample count.
    """
    n, mean, m2_re, m2_im = _merge_moments(
        _map_blocks(spec, cfg, workers))
    if n > 1:
        stderr_re = float(np.sqrt(m2_re / (n - 1)) / np.sqrt(n))
        stderr_im = float(np.sqrt(m2_im / (n - 1)) / np.sqrt(n))
    else:
        stderr_re = stderr_im = np.inf
    return McEstimate(mean=mean, stderr_re=stderr_re, stderr_im=stderr_im,
                      n_samples=n, insufficient=n < MIN_SAMPLES)


#: Absolute stderr floor in z-score comparisons.  Components with no
#: statistical spread (e.g. the imaginary part of a real-amplitude
#: protocol) still differ from the reference by float rounding of the
#: reductions; differences below this floor count as exact agreement.
Z_SCORE_FLOOR = 1e-12


def z_scores(estimate: McEstimate, reference: complex) -> tuple[float, float]:
    """Componentwise |MC - reference| / stderr.

    Deltas below Z_SCORE_FLOOR are rounding noise of the two float paths and
    score exactly 0; otherwise the stderr is floored at the same level so
    zero-variance components compare at float precision rather than dividing
    dust by an even smaller spread.
    """

    def one(delta: float, stderr: float) -> float:
        if abs(delta) <= Z_SCORE_FLOOR:
            return 0.0
        return abs(delta) / max(stderr, Z_SCORE_FLOOR)

    return (one(estimate.mean.real - reference.real, estimate.stderr_re),
            one(estimate.mean.imag - reference.imag, estimate.stderr_im))


@dataclass(frozen=True)
class ReadoutHistogram(_ReadOnlyArrays):
    """First-measurement readout histogram against its exact mixture law.

    ``edges`` are the (post-merge) bin edges; the first and last bins absorb
    the open tails.  ``p_value`` is the chi-square goodness-of-fit
    probability of the observed counts.
    """

    edges: np.ndarray
    counts: np.ndarray
    expected: np.ndarray
    chi2: float
    p_value: float
    n_samples: int
    readouts: np.ndarray
    p_f: float
    separation: float


def _chi2_sf(x: float, dof: int) -> float:
    """Survival function of the chi-square law with integer ``dof``.

    With h = x/2 it is the regularized upper gamma function Q(dof/2, h),
    a finite sum for integer dof: e^-h * sum_{j<dof/2} h^j/j! for even
    dof, and erfc(sqrt(h)) plus e^-h * sum_{j=1}^{(dof-1)/2}
    h^(j-1/2)/Gamma(j+1/2) for odd dof.  Every term is positive, so the
    sum keeps full relative precision.  e^-h turns subnormal beyond
    x ~ 1416 and underflows beyond x ~ 1490; for every dof under 100 (a
    histogram's dof is its bin count less one) the tail there is below
    1e-230, so only tails that small lose precision or read 0.
    """
    h = 0.5 * x
    if dof % 2:
        total = math.erfc(math.sqrt(h))
        term = math.exp(-h) * 2.0 * math.sqrt(h / math.pi)
        start = 1.5
    else:
        total = 0.0
        term = math.exp(-h)
        start = 1.0
    for j in range(dof // 2):
        total += term
        term *= h / (start + j)
    return total


def readout_histogram(spec: ProtocolSpec, cfg: McConfig) -> ReadoutHistogram:
    """Histogram n_samples draws of the first readout and test them against
    the two-cloud mixture predicted for the initial state.

    Draw i reads word i of the seed's stream, as sample i of a
    one-measurement run would.  The draws are therefore not the first
    readouts of an n_meas-measurement Monte Carlo run with the same seed,
    whose samples read n_meas words each.
    """
    if spec.strength.is_projective:
        raise DomainError("readout histogram needs the Gaussian model (m > 0)")
    a_f, a_e, _ = _start(spec.reference_weight)
    step = next(_frame_steps(spec.theta, spec.phi_schedule))
    p_f = float(_p_f(_frame_step(step, a_f, a_e)[0]))
    r0 = cloud_separation(spec.strength)

    u = _uniforms(cfg.seed, 0, cfg.n_samples, 1)[0]
    r = _readouts(u, p_f, r0)

    edges = np.linspace(-6.0, r0 + 6.0, HISTOGRAM_BINS + 1)
    cdf = ReadoutDistribution(p_f, r0).cdf(edges)
    prob = np.diff(cdf)
    prob[0] += cdf[0]
    prob[-1] += 1.0 - cdf[-1]
    counts = np.bincount(np.searchsorted(edges[1:-1], r),
                         minlength=HISTOGRAM_BINS).astype(float)

    # Merge bins until every expected count supports the chi-square form.
    min_expected = 5.0
    m_edges = [edges[0]]
    m_prob, m_counts = [], []
    acc_p = acc_c = 0.0
    for k in range(HISTOGRAM_BINS):
        acc_p += prob[k]
        acc_c += counts[k]
        if acc_p * cfg.n_samples >= min_expected:
            m_edges.append(edges[k + 1])
            m_prob.append(acc_p)
            m_counts.append(acc_c)
            acc_p = acc_c = 0.0
    if acc_p > 0 or acc_c > 0:
        if m_prob:
            m_prob[-1] += acc_p
            m_counts[-1] += acc_c
            m_edges[-1] = edges[-1]
        else:
            m_prob, m_counts = [acc_p], [acc_c]
            m_edges.append(edges[-1])

    expected = np.asarray(m_prob) * cfg.n_samples
    counts = np.asarray(m_counts)
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    dof = max(len(counts) - 1, 1)
    p_value = _chi2_sf(chi2, dof)
    return ReadoutHistogram(edges=np.asarray(m_edges), counts=counts,
                            expected=expected, chi2=chi2, p_value=p_value,
                            n_samples=cfg.n_samples, readouts=r, p_f=p_f,
                            separation=r0)
