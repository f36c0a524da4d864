"""The wrapping measurement sequence and its closed-form evaluation.

One run at polar angle theta: prepare

    |phi_i> = sqrt(w) |g> + sqrt(1-w) |theta, phi=0>,

apply N null-outcome measurements along axes (theta, phi_k) with the
azimuth stepping down to -2*pi (default phi_k = -2*pi*k/N), then close the
loop with the rotation that maps the axis (theta, -2*pi) onto |e> and read
out the interference between the untouched reference amplitude on |g> and
the phase-carrying amplitude on |e>:

    c * exp(i*chi) = 2 * sqrt(w) * <e| R_close |phi_final>.

Each null-outcome measurement is the conjugated attenuation
R^dag diag(m,1,1) R: it damps the component antipodal to the measurement
axis by m and never touches |g>.  So a run is a product of 2x2 blocks on
the {e,f} qubit times the constant reference factor 2*sqrt(w), and the
contrast is bounded by 2*sqrt(w*(1-w)).  The m = 0 limit is the exact
projector onto the {axis, g} subspace, which is why a single code path
serves both the partial and the projective protocol.

The frame convention and the step algebra are stated once, in
:mod:`geophase.spec`, which imports no numpy: the pair starts at
``_start``, each frame change S_k = R_k R_{k-1}^dag is one ``_frame_step``,
``_close`` takes the amplitude after the closing one, and ``_lab`` takes a
pair of frame k to the lab frame.  Here ``_frame_steps`` and ``_to_lab``
feed them numpy's cos, sin and exp of theta arrays.  The closed form
(``_amplitudes_for_thetas``, any schedule, batched over theta and m) and
the Monte Carlo walk of :mod:`geophase.trajectories` share these and
differ only in what scales a_f between steps; ``measure_along`` and
``initial_state`` keep the per-step 3x3 form as a reference, and load the
3x3 modules :mod:`geophase.qutrit` and :mod:`geophase.measurement` only
when called, so the closed form and :mod:`geophase.analysis` run without
them.

For the uniform schedule every S_1 .. S_N is the same S, with
phi_k - phi_{k-1} = -2*pi/N, and the closing step is the identity,
because phi_{N+1} = CLOSING_PHI = -2*pi = phi_N.  With D = diag(m, 1) in
the (F, E) ordering the run is one matrix power,

    c * exp(i*chi) = 2 * sqrt(w*(1-w)) * [(D S)^N]_EE = 2 * sqrt(w*(1-w)) * [K^N]_EE,

where K = D^(1/2) S D^(1/2) is similar to D S (D^(1/2) leaves e alone) and,
like S, complex symmetric.  ``_uniform_power`` evaluates it by
repeated squaring from S (``_uniform_step``).  ``_uniform_amplitudes``
walks a grid of more than ``_SLAB_CELLS`` cells through the power in
slabs of whole rows of its leading (theta) axis, writing each into one
output, so that the power's live arrays stay cache-sized; every
operation of the power is elementwise, so a slab moves no bit.

The argument rules are stated once.  ``ProtocolSpec`` checks one run's;
``_kernel_args`` checks a batch's thetas and m, then the rules on n_meas
and w that it shares with ``ProtocolSpec`` (``spec._run_args``).  Every
public entry runs one of them once, before any arithmetic: the kernels
``_amplitudes_for_thetas`` and ``_uniform_amplitudes`` (the checks, the
step, then the power) here, and through them each entry of
:mod:`geophase.analysis`.  ``_uniform_power`` is unchecked arithmetic, for
a caller whose step, m, N and w have passed those checks: the transition
search runs ``spec._run_args`` on N and w, at theta = pi/2 and m in
[0, 1] (:mod:`geophase.transition`).

The step loop stores each pair in its measurement's frame before that
step scales a_f by m, takes each step's factor from it, and returns all
pairs to the lab frame once, after the last step.  ``run_protocol_analytic``
reports that one pass's amplitude, Bloch ``points`` and step ``factors``.
``spec.closed_form`` runs the same algebra on one spec's Python numbers,
for the CLI; its results differ from these in the last bits.
``run_protocol_analytic`` stays on the batched kernel, whose numpy
products the Monte Carlo walk shares: at m = 1 the walk's terms equal its
amplitude exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError
# CLOSING_PHI, CONTRAST_FLOOR, InterferenceResult, ProtocolSpec and
# default_schedule are defined in spec and still importable from here
from .spec import (CLOSING_PHI, CONTRAST_FLOOR, _EF_FLOOR, E, F, G,
                   InterferenceResult, ProtocolSpec, Strength, _bloch, _close,
                   _frame_step, _lab, _run_args, _start, _steps,
                   default_schedule)

if TYPE_CHECKING:
    from .qutrit import MeasurementAxis, Operator3, QutritState


class _ReadOnlyArrays:
    """Base of the frozen result dataclasses: their array fields are made
    read-only on construction."""

    def __post_init__(self):
        for field in fields(self):
            arr = getattr(self, field.name)
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)


@dataclass(frozen=True)
class PathRecord(_ReadOnlyArrays):
    """The normalized {e,f} trajectory of one run on the Bloch sphere.

    ``points`` has shape (N+1, 3): the initial point followed by the point
    after each measurement.  It is the loop: the closing arc returns to the
    first point, because the closing axis sits on the initial meridian.
    ``factors`` has shape (N,): the factor by which each measurement
    attenuated the {e,f} amplitude (1 means no backaction).  Both arrays
    are read-only.
    """

    points: np.ndarray
    factors: np.ndarray


def initial_state(theta: float, reference_weight: float) -> QutritState:
    """sqrt(w)|g> + sqrt(1-w)|theta, phi=0>."""
    from .qutrit import MeasurementAxis, QutritState, axis_state

    vec = np.sqrt(1.0 - reference_weight) * axis_state(
        MeasurementAxis(theta, 0.0)).vec.copy()
    vec[G] = np.sqrt(reference_weight)
    return QutritState(vec, normalized=True)


def conjugated_null_kraus(axis: MeasurementAxis, s: Strength) -> Operator3:
    """R^dag diag(m,1,1) R for the rotation R onto ``axis``.

    Damps the component antipodal to the axis by m; identity on |g>.
    Independent of any phase redefinition of R.
    """
    from .measurement import kraus_null
    from .qutrit import rotation_to_axis

    r = rotation_to_axis(axis)
    return r.dagger() @ kraus_null(s) @ r


def measure_along(state: QutritState, axis: MeasurementAxis,
                  s: Strength) -> QutritState:
    """Apply one null-outcome measurement along ``axis`` (unnormalized output).

    The g amplitude is exactly unchanged.
    """
    return conjugated_null_kraus(axis, s).apply(state)


def run_protocol_analytic(spec: ProtocolSpec) -> tuple[InterferenceResult, PathRecord]:
    """Evaluate one run by the closed-form null-outcome product.

    Returns the interference result and the recorded Bloch trajectory.
    A contrast below CONTRAST_FLOOR flags the phase undefined rather than
    raising.  When a projective step annihilates the {e,f} component
    (orthogonal consecutive axes), the trajectory freezes at its last
    defined point and the zero contrast carries the flag.
    """
    (amp,), (pairs,), (factors,) = _amplitudes_for_thetas(
        np.array([spec.theta]), spec.strength, spec.n_meas,
        spec.reference_weight, spec.phi_schedule)
    live = np.hypot(np.abs(pairs[:, F]), np.abs(pairs[:, E])) > _EF_FLOOR
    last_live = np.maximum.accumulate(np.where(live, np.arange(live.size), 0))
    return (InterferenceResult(complex(amp)),
            PathRecord(_bloch_batch(pairs[last_live]), factors))


def _half_angles(thetas):
    """(cos(theta/2), sin(theta/2)) of ``thetas`` as float arrays."""
    half = 0.5 * np.asarray(thetas, dtype=float)
    return np.cos(half), np.sin(half)


def _frame_steps(thetas: np.ndarray | float, schedule: tuple[float, ...]):
    """The frame-step triples of ``spec._steps`` for ``thetas``, each of
    the shape of ``thetas``."""
    return _steps(*_half_angles(thetas), schedule)


def _to_lab(thetas, phis, a_f, a_e):
    """The pair (a_f, a_e) of frame R(theta, phi) in the lab frame
    (``spec._lab``).  All four arguments broadcast."""
    return _lab(*_half_angles(thetas), np.exp(1j * np.asarray(phis)), a_f, a_e)


def _bloch_batch(vecs: np.ndarray) -> np.ndarray:
    """Bloch vectors (..., 3 real) of an array of {e,f} pairs (..., 2
    complex), by ``spec._bloch``."""
    ef = np.hypot(np.abs(vecs[..., F]), np.abs(vecs[..., E]))
    if np.any(ef < _EF_FLOOR):
        raise DomainError("Bloch vector undefined: zero {e,f} component")
    out = np.empty(vecs.shape[:-1] + (3,), dtype=float)
    out[..., 0], out[..., 1], out[..., 2] = _bloch(vecs[..., F], vecs[..., E],
                                                   ef)
    return out


def _kernel_args(thetas, strength, n_meas: int, reference_weight: float):
    """The batched closed form's argument rules, checked in this order:
    thetas in [0, pi], an m array in [0, 1] (a Strength checked its own m),
    then ``spec._run_args``: reference_weight in (0, 1) and n_meas a
    positive integer; NaN fails each range.  Every batched entry runs it
    once: the two kernels ``_amplitudes_for_thetas`` and
    ``_uniform_amplitudes``.  Returns thetas as a float
    array and m as the Strength's value or an array that broadcasts against
    thetas."""
    thetas = np.asarray(thetas, dtype=float)
    if not np.all((thetas >= 0.0) & (thetas <= np.pi)):
        raise DomainError("theta grid outside [0, pi]")
    m = strength.m if isinstance(strength, Strength) else np.asarray(strength)
    if isinstance(m, np.ndarray) and not np.all((m >= 0.0) & (m <= 1.0)):
        raise DomainError("strength grid outside [0, 1]")
    _run_args(n_meas, reference_weight)
    return thetas, m


def _amplitudes_for_thetas(thetas: np.ndarray, strength: Strength | np.ndarray,
                           n_meas: int = 6,
                           reference_weight: float = 0.5,
                           phi_schedule: tuple[float, ...] | None = None):
    """The closed-form null-outcome product, batched over theta and m.

    ``strength`` is a Strength or an array of m values that broadcasts
    against ``thetas``: ``thetas[:, None]`` against a row of m evaluates a
    (theta, m) grid.  The pair starts at ``_start``, each measurement is
    one ``_frame_step`` followed by ``a_f = a_f * m``, and ``_close`` takes
    the amplitude after the closing frame change.  The steps keep the shape
    of ``thetas``, and the product with m, not in place, broadcasts the
    pair over m.  Returns the
    interference amplitudes, the lab-frame pairs of shape
    grid + (n_meas + 1, 2), the initial pair followed by the pair after
    every step, and the step factors of shape grid + (n_meas,).  The pairs
    are stored in their measurements' frames and taken to the lab frame
    in place by one ``_to_lab`` call after the loop.
    """
    thetas, m = _kernel_args(thetas, strength, n_meas, reference_weight)
    schedule = phi_schedule if phi_schedule is not None else default_schedule(n_meas)
    if len(schedule) != n_meas:
        raise DomainError(f"schedule length {len(schedule)} != n_meas {n_meas}")
    shape = np.broadcast_shapes(thetas.shape, np.shape(m))
    a_f, a_e, g = _start(reference_weight)
    pairs = np.empty(shape + (n_meas + 1, 2), dtype=complex)
    pairs[..., 0, F], pairs[..., 0, E] = a_f, a_e
    steps = _frame_steps(thetas, schedule)
    for k in range(1, n_meas + 1):
        a_f, a_e = _frame_step(next(steps), a_f, a_e)
        pairs[..., k, F], pairs[..., k, E] = a_f, a_e
        a_f = a_f * m
    amps = _close(next(steps), a_f, a_e, g)
    # Pair k sits in frame k before a_f * m, where the step only scales a_f,
    # so its factor is exactly 1 at m = 1 and never above 1.  Attenuate, then
    # take pair k to the lab frame by R(theta, phi_k)^dag with phi_0 = 0.
    a_f, a_e = np.abs(pairs[..., 1:, F]), np.abs(pairs[..., 1:, E])
    m = np.asarray(m)[..., None]
    ef_in = np.hypot(a_f, a_e)
    factors = np.divide(np.hypot(m * a_f, a_e), ef_in,
                        out=np.zeros_like(ef_in), where=ef_in > 0.0)
    pairs[..., 1:, F] *= m
    pairs[..., F], pairs[..., E] = _to_lab(
        thetas[..., None], np.array([0.0, *schedule]), pairs[..., F],
        pairs[..., E])
    return amps, pairs, factors


def _uniform_step(thetas: np.ndarray, n_meas: int):
    """The frame step S of the uniform schedule, the same for every k = 1
    .. N: the first triple ``_frame_steps`` yields for one azimuth step of
    -2*pi/N."""
    return next(_frame_steps(thetas, (-2.0 * np.pi / n_meas,)))


#: Broadcast cells per slab of ``_uniform_amplitudes``: a larger grid is
#: walked along its leading axis in slabs of whole rows, so that the seven
#: live arrays of ``_uniform_power`` stay within a core's L2 cache.  Measured
#: on a 257 x 256 map (ROADMAP, standing notes).
_SLAB_CELLS = 2 ** 13


def _uniform_amplitudes(thetas: np.ndarray, strength: Strength | np.ndarray,
                        n_meas: int = 6,
                        reference_weight: float = 0.5) -> np.ndarray:
    """The closed-form product of the uniform schedule, batched over theta
    and m as ``_amplitudes_for_thetas`` is, in O(log N) steps: the checks
    of ``_kernel_args``, the step ``_uniform_step``, then the arithmetic of
    ``_uniform_power``.  Equals the step loop to a rounding error that
    grows about like N * eps.

    A grid of more than ``_SLAB_CELLS`` broadcast cells is evaluated slab
    by slab into one output: each slab is whole rows of the broadcast's
    leading axis, at most ``_SLAB_CELLS`` cells (one row if a row is
    wider; never a single cell), and each operand that spans that axis
    (the step triple, and an m array with its own leading axis) is cut to
    the slab's rows, while the others pass whole.  Every operation of the
    power is elementwise, so each cell sees the same operations on the
    same operands, by the same numpy loops, and the result equals the
    single call bit for bit.  A smaller grid is the single call.
    """
    thetas, m = _kernel_args(thetas, strength, n_meas, reference_weight)
    step = _uniform_step(thetas, n_meas)
    shape = np.broadcast_shapes(thetas.shape, np.shape(m))
    cells = math.prod(shape)
    if cells <= _SLAB_CELLS:
        return _uniform_power(step, m, n_meas, reference_weight)
    # numpy runs an in-place complex product of one-cell arrays by a scalar
    # loop whose bits differ from its vector loop's, so no slab holds a
    # single cell: rows of one cell go at least two to a slab, and a last
    # slab of one cell joins the slab before it
    row_cells = cells // shape[0]
    rows = max(_SLAB_CELLS // row_cells, 1 if row_cells > 1 else 2)
    ends = [*range(0, shape[0], rows), shape[0]]
    if (ends[-1] - ends[-2]) * row_cells == 1:
        del ends[-2]

    def slab(a, cut):
        spans = np.ndim(a) == len(shape) and np.shape(a)[0] > 1
        return a[cut] if spans else a

    out = np.empty(shape, dtype=complex)
    for cut in map(slice, ends[:-1], ends[1:]):
        out[cut] = _uniform_power(tuple(slab(s, cut) for s in step),
                                  slab(m, cut), n_meas, reference_weight)
    return out


def _uniform_power(step, m, n_meas: int,
                   reference_weight: float) -> np.ndarray:
    """2*sqrt(w*(1-w)) * [K^N]_EE for the uniform step triple ``step`` of
    ``_uniform_step``, unchecked: the caller has checked the thetas of
    ``step`` and m by ``_kernel_args``'s rules, and n_meas and w by
    ``spec._run_args`` (m is a float, or an array that broadcasts against
    the step's shape).

    K = D^(1/2) S D^(1/2) is the symmetric matrix of the module docstring.
    Powers of K are symmetric, so K is carried as the three arrays (K[F,F],
    K[F,E], K[E,E]), squared in place, and applied to the vector K^j e_E on
    the set bits of N.
    """
    w = reference_weight
    s_ff, s_fe, s_ee = step
    # the triple shares one shape, so each product with m has the broadcast
    # shape; a 0-d product is a numpy scalar, made a 0-d array so that the
    # squaring runs in place on arrays, as at any other shape
    k_ff = np.asarray(m * s_ff)
    k_fe = np.asarray(np.sqrt(m) * s_fe)
    k_ee = np.empty_like(k_ff)
    k_ee[...] = s_ee
    a, b = np.empty_like(k_ff), np.empty_like(k_ff)
    v_f = v_e = None
    n = n_meas
    while True:
        if n & 1:
            if v_f is None:
                v_f, v_e = k_fe.copy(), k_ee.copy()
            else:
                np.multiply(k_fe, v_f, out=a)
                v_f *= k_ff
                v_f += np.multiply(k_fe, v_e, out=b)
                v_e *= k_ee
                v_e += a
        n >>= 1
        if not n:
            break
        np.multiply(k_fe, k_fe, out=b)
        k_fe *= np.add(k_ff, k_ee, out=a)
        k_ff *= k_ff
        k_ff += b
        k_ee *= k_ee
        k_ee += b
    v_e *= 2.0 * np.sqrt(w * (1.0 - w))
    return v_e
