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
a_g: every readout Kraus operator is diagonal with real entries, so g only
picks up a real factor.  The pair steps through the frame changes of
:mod:`geophase.protocol` (``_frame_steps``), so each readout's backaction
is diagonal in the frame it is drawn in.  Each step normalizes over all
three components, so the accumulated squared norms are the outcome
density.

Randomness is counter-based: sample ``i`` of a run with seed ``s`` reads
its uniforms from the dedicated Philox substream ``key=s, counter=i<<64``,
one uniform per measurement, mapped through the component-wise inverse CDF
of the readout mixture.  A trajectory is therefore a pure function of
``(seed, sample_id, spec)``.  Samples run in blocks of BLOCK_SIZE; each
block is reduced to its count, mean and squared deviations where it is
sampled, and the blocks are merged in block order, so results are
bit-identical for any worker count or evaluation order and memory does not
grow with the sample count.
"""

from __future__ import annotations

import atexit
import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError
from .measurement import (ReadoutDistribution, cloud_separation,
                          gauss_amplitudes)
from .protocol import ProtocolSpec, _frame_steps, _require_int
from .qutrit import QutritState, _rotation_matrices

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

#: Samples per reduction block; fixed so that the block layout (and thus the
#: bit pattern of the result) never depends on the worker count.
BLOCK_SIZE = 4096

#: Minimum sample count below which estimates are flagged insufficient.
MIN_SAMPLES = 100

#: Bins of the readout histogram before sparse bins are merged.
HISTOGRAM_BINS = 40


@dataclass(frozen=True)
class McConfig:
    """Size and seeding of a Monte Carlo run.

    Stream policy: per-sample Philox substreams keyed by the run seed with
    the sample id in the high counter word (see the module docstring).
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
class TrajectorySample:
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


def _substream(seed: int, sample_id: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed,
                                                counter=sample_id << 64))


# --- vectorized Philox4x64-10 ------------------------------------------------
# Per-sample Generator construction costs ~25 us; across 1e5 samples that
# dominates a run.  The block cipher itself is a pure function of
# (key, counter), so evaluating it with array arithmetic over all sample ids
# reproduces each substream bit for bit (asserted in the test suite) at a
# fraction of the cost.  numpy's bit generator pre-increments the counter
# before producing a block, hence the block counters start at 1.

_PHILOX_W0 = 0x9E3779B97F4A7C15
_PHILOX_W1 = 0xBB67AE8584CAA73B
_MASK32 = np.uint64(0xFFFFFFFF)
_MASK64 = (1 << 64) - 1
_SH32 = np.uint64(32)
_SH11 = np.uint64(11)
_INV53 = 1.0 / 9007199254740992.0
#: The round multipliers of the lanes (x0, x2), as a column against the
#: lanes' rows, with their low and high 32-bit halves.
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]],
                     dtype=np.uint64)
_PHILOX_M_LO = _PHILOX_M & _MASK32
_PHILOX_M_HI = _PHILOX_M >> _SH32
#: Philox blocks (4 words each) evaluated in one pass; more would leave the
#: temporaries outside the cache.
_PHILOX_GROUP = 2


def _philox_round_keys(seed: int):
    k0, k1 = seed & _MASK64, (seed >> 64) & _MASK64
    keys = []
    for r in range(10):
        if r > 0:
            k0 = (k0 + _PHILOX_W0) & _MASK64
            k1 = (k1 + _PHILOX_W1) & _MASK64
        keys.append(np.array([[k0], [k1]], dtype=np.uint64))
    return keys


def _mulhilo64(b: np.ndarray):
    """High and low words of the 128-bit products _PHILOX_M * b, row by row.

    The low word is the wrapped uint64 product.  The high word sums the
    32-bit partial products; each cross sum stays below 2**64, so no carry
    is lost.  Callers silence the uint64 overflow warning.
    """
    b0 = b & _MASK32
    b1 = b >> _SH32
    t = _PHILOX_M_LO * b0
    t >>= _SH32
    cross = _PHILOX_M_LO * b1
    cross += t
    np.bitwise_and(cross, _MASK32, out=t)
    t += np.multiply(_PHILOX_M_HI, b0, out=b0)
    hi = _PHILOX_M_HI * b1
    cross >>= _SH32
    hi += cross
    t >>= _SH32
    hi += t
    return hi, _PHILOX_M * b


def _philox_uniforms(seed: int, ids: np.ndarray, n_draws: int) -> np.ndarray:
    """uniforms[i, j]: the j-th double of the substream of sample ids[i].

    The lanes x0 and x2 go through the multiplications and x1 and x3
    through the xors, so each round evaluates both multipliers in one set
    of array operations.  The result is a transposed view: the uniforms of
    one draw (a column) are contiguous.
    """
    ids = np.asarray(ids, dtype=np.uint64)
    n = ids.size
    keys = _philox_round_keys(seed)
    n_blocks = -(-n_draws // 4)
    words = np.empty((n_blocks, 4, n), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for first in range(0, n_blocks, _PHILOX_GROUP):
            out = words[first:first + _PHILOX_GROUP]
            counters = np.arange(first + 1, first + len(out) + 1,
                                 dtype=np.uint64)
            mul = np.zeros((2, len(out), n), dtype=np.uint64)
            mul[0] = counters[:, None]
            xor = np.zeros_like(mul)
            xor[0] = ids
            mul, xor = mul.reshape(2, -1), xor.reshape(2, -1)
            for key in keys:
                hi, lo = _mulhilo64(mul)
                # (x0, x1, x2, x3) <- (hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0)
                mul = hi[::-1]
                mul ^= xor
                mul ^= key
                xor = lo[::-1]
            out[:, 0::2] = mul.reshape(2, len(out), n).swapaxes(0, 1)
            out[:, 1::2] = xor.reshape(2, len(out), n).swapaxes(0, 1)
    return ((words.reshape(4 * n_blocks, n)[:n_draws] >> _SH11) * _INV53).T


def _mixture_readouts(u: np.ndarray, p_f: np.ndarray, r0: float) -> np.ndarray:
    """Inverse-CDF draw from the readout mixture, one uniform per draw.

    The uniform selects the cloud by its weight and its remainder is pushed
    through that cloud's Gaussian quantile, which samples the exact mixture
    with a single draw.
    """
    from scipy.special import ndtri

    null_w = 1.0 - p_f
    click = u >= null_w
    scale = np.where(click, np.maximum(p_f, 1e-300),
                     np.maximum(null_w, 1e-300))
    v = np.where(click, u - null_w, u) / scale
    v = np.clip(v, 1e-300, 1.0 - 1e-16)
    return ndtri(v) + np.where(click, r0, 0.0)


def _block_terms(spec: ProtocolSpec, steps: list, seed: int, start: int,
                 stop: int):
    """Interference terms of samples [start, stop), with their final pairs
    (rows a_f, a_e, in the frame of the last measurement), reference
    amplitudes, weights and readouts.  Pure function of its arguments.

    The 2x2 products are written out elementwise: a BLAS call on blocks
    this thin starts threads that compete with the worker processes.
    """
    n, n_meas = stop - start, spec.n_meas
    uniforms = _philox_uniforms(seed, np.arange(start, stop), n_meas)

    w = spec.reference_weight
    a_f = np.zeros(n, dtype=complex)
    a_e = np.full(n, np.sqrt(1.0 - w), dtype=complex)
    g = np.full(n, np.sqrt(w))
    weights = np.ones(n)
    readouts = np.empty((n_meas, n))
    projective = spec.strength.is_projective
    r0 = 0.0 if projective else cloud_separation(spec.strength)

    for k in range(n_meas):
        s_ff, s_fe, s_ee = steps[k]
        a_f, a_e = s_ff * a_f + s_fe * a_e, s_fe * a_f + s_ee * a_e
        p_f = np.clip(a_f.real ** 2 + a_f.imag ** 2, 0.0, 1.0)
        u = uniforms[:, k]
        if projective:
            click = u >= 1.0 - p_f
            readouts[k] = click
            a_f *= click
            a_e *= ~click
            g *= ~click
        else:
            r = _mixture_readouts(u, p_f, r0)
            readouts[k] = r
            psit, psi = gauss_amplitudes(spec.strength, r)
            a_f *= psit
            a_e *= psi
            g *= psi
        norm_sq = (a_f.real ** 2 + a_f.imag ** 2
                   + (a_e.real ** 2 + a_e.imag ** 2) + g * g)
        weights *= norm_sq
        inv_norm = 1.0 / np.sqrt(norm_sq)
        a_f *= inv_norm
        a_e *= inv_norm
        g *= inv_norm

    _, c_fe, c_ee = steps[-1]
    terms = 2.0 * g * (c_fe * a_f + c_ee * a_e)
    return terms, np.stack([a_f, a_e]), g, weights, readouts.T


def sample_trajectory(spec: ProtocolSpec, sample_id: int,
                      seed: int) -> TrajectorySample:
    """Simulate the single trajectory addressed by (seed, sample_id)."""
    terms, pair, g, weights, readouts = _block_terms(
        spec, list(_frame_steps(spec.theta, spec.phi_schedule)), seed,
        sample_id, sample_id + 1)
    back = _rotation_matrices(spec.theta, spec.phi_schedule[-1]).conj().T
    final = np.append(back @ pair[:, 0], g[0])
    return TrajectorySample(readouts=readouts[0],
                            final_state=QutritState(final, normalized=True),
                            probability_weight=float(weights[0]),
                            interference_term=complex(terms[0]))


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


def _terms(spec: ProtocolSpec, steps: list, seed: int, start: int,
           stop: int) -> np.ndarray:
    return _block_terms(spec, steps, seed, start, stop)[0]


def _moments(spec: ProtocolSpec, steps: list, seed: int, start: int,
             stop: int):
    """(count, mean, M2_re, M2_im) of one block's terms; M2 is the sum of
    squared deviations of a component from the block mean."""
    terms = _terms(spec, steps, seed, start, stop)
    mean = complex(np.mean(terms))
    dev = terms - mean
    return (terms.size, mean, float(np.sum(dev.real ** 2)),
            float(np.sum(dev.imag ** 2)))


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


def _block_worker(job):
    fn, *args = job
    return fn(*args)


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


def _map_blocks(fn, spec: ProtocolSpec, cfg: McConfig, workers: int) -> list:
    """fn(spec, steps, seed, start, stop) for every block, in block order.

    A pool forks all its workers on its first submit, so it gets no more
    of them than there are blocks or CPUs."""
    steps = list(_frame_steps(spec.theta, spec.phi_schedule))
    jobs = [(fn, spec, steps, cfg.seed, a, b)
            for a, b in _blocks(cfg.n_samples)]
    workers = min(workers, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        return list(_pool(workers).map(_block_worker, jobs))
    return [_block_worker(job) for job in jobs]


def interference_terms(spec: ProtocolSpec, cfg: McConfig,
                       workers: int = 1) -> np.ndarray:
    """Per-sample interference terms in sample order."""
    return np.concatenate(_map_blocks(_terms, spec, cfg, workers))


def mc_interference(spec: ProtocolSpec, cfg: McConfig,
                    workers: int = 1) -> McEstimate:
    """Estimate the ensemble interference c*exp(i*chi) by Born sampling.

    Every sampled trajectory enters the mean; nothing is discarded.  The
    componentwise standard errors are the usual sqrt(var/n).  Each block
    is reduced to its moments where it is sampled, so memory stays
    O(BLOCK_SIZE) whatever the sample count.
    """
    n, mean, m2_re, m2_im = _merge_moments(
        _map_blocks(_moments, spec, cfg, workers))
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
class ReadoutHistogram:
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
    """Histogram the first readout of every sample and test it against the
    two-cloud mixture predicted for the initial state."""
    if spec.strength.is_projective:
        raise DomainError("readout histogram needs the Gaussian model (m > 0)")
    _, s_fe, _ = next(_frame_steps(spec.theta, spec.phi_schedule))
    p_f = float(np.clip((1.0 - spec.reference_weight) * abs(s_fe) ** 2,
                        0.0, 1.0))
    r0 = cloud_separation(spec.strength)

    u = _philox_uniforms(cfg.seed, np.arange(cfg.n_samples), 1)[:, 0]
    r = _mixture_readouts(u, np.full(cfg.n_samples, p_f), r0)

    edges = np.linspace(-6.0, r0 + 6.0, HISTOGRAM_BINS + 1)
    prob = np.empty(HISTOGRAM_BINS)
    cdf = ReadoutDistribution(p_f, r0).cdf(edges)
    prob[:] = np.diff(cdf)
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
