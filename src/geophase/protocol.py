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

The frame convention is stated here once.  The {e,f} pair is carried in
the frame of the current measurement, R_k = R(theta, phi_k), where each
attenuation is diagonal, a_f -> m a_f.  With phi_0 = 0 and phi_{N+1} =
CLOSING_PHI, the run is the sequence of frame changes

    S_k = R_k R_{k-1}^dag,   k = 1 .. N+1,

which ``_frame_steps`` yields.  R(theta, 0) maps the initial axis state to
|e>, so the pair starts at (0, sqrt(1-w)) beside g = sqrt(w) (``_start``);
each S_k is one ``_frame_step``, and the amplitude is 2g times the e
component after S_{N+1} (``_close``).  R_k^dag takes a pair of frame k
to the lab frame (``_to_lab``, from c, s and exp(i phi_k)).  The closed
form (``_amplitudes_for_thetas``, any schedule, batched over theta and m)
and the Monte Carlo walk of :mod:`geophase.trajectories` share these four
and differ only in what scales a_f between steps; ``measure_along`` and
``initial_state`` keep the per-step 3x3 form as a reference.

For the uniform schedule every S_1 .. S_N is the same S, with
phi_k - phi_{k-1} = -2*pi/N, and the closing step is the identity,
because phi_{N+1} = CLOSING_PHI = -2*pi = phi_N.  With D = diag(m, 1) in
the (F, E) ordering the run is one matrix power,

    c * exp(i*chi) = 2 * sqrt(w*(1-w)) * [(D S)^N]_EE = 2 * sqrt(w*(1-w)) * [K^N]_EE,

where K = D^(1/2) S D^(1/2) is similar to D S (D^(1/2) leaves e alone) and,
like S, complex symmetric.  ``_uniform_power`` evaluates it by
repeated squaring from S (``_uniform_step``).

The argument rules are stated once, in ``_kernel_args``, and every public
entry runs it once, before any arithmetic: ``ProtocolSpec`` and the
kernels ``_amplitudes_for_thetas`` and ``_uniform_amplitudes`` (the checks,
the step, then the power) here, and through them or directly each entry
of :mod:`geophase.analysis`.  ``_uniform_power`` is unchecked arithmetic,
for a caller whose step, m, N and w have passed those checks.

The step loop stores each pair in its measurement's frame before that
step scales a_f by m, takes each step's factor from it, and returns all
pairs to the lab frame once, after the last step.  ``run_protocol_analytic``
reports that one pass's amplitude, Bloch ``points`` and step ``factors``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError
from .measurement import Strength, kraus_null
from .qutrit import (_EF_FLOOR, E, F, G, MeasurementAxis, Operator3,
                     QutritState, _bloch_batch, axis_state, rotation_to_axis)

#: Contrast below which the interference phase is flagged undefined.
CONTRAST_FLOOR = 1e-9

#: Azimuth of the closing rotation: one full wrap below the initial meridian.
CLOSING_PHI = -2.0 * np.pi


def _require_int(name: str, value) -> None:
    """Refuse a size or seed that is not a Python or numpy integer; bools
    are refused too, although Python counts them as ints."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name}={value!r} must be an integer")


class _ReadOnlyArrays:
    """Base of the frozen result dataclasses: their array fields are made
    read-only on construction."""

    def __post_init__(self):
        for field in fields(self):
            arr = getattr(self, field.name)
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)


def default_schedule(n_meas: int) -> tuple[float, ...]:
    """Uniform decreasing azimuths -2*pi*k/N for k = 1..N."""
    return tuple(-2.0 * np.pi * k / n_meas for k in range(1, n_meas + 1))


@dataclass(frozen=True)
class ProtocolSpec:
    """Full description of one run.

    ``phi_schedule`` defaults to the uniform wrap; custom schedules are
    accepted (finite values, length n_meas).  ``reference_weight`` is the
    initial population of the reference level |g>.
    """

    theta: float
    strength: Strength
    n_meas: int = 6
    phi_schedule: tuple[float, ...] | None = None
    reference_weight: float = 0.5

    def __post_init__(self):
        if not np.isfinite(self.theta) or not (0.0 <= self.theta <= np.pi):
            raise DomainError(f"theta={self.theta!r} outside [0, pi]")
        _kernel_args(self.theta, self.strength, self.n_meas,
                     self.reference_weight)
        if self.phi_schedule is None:
            object.__setattr__(self, "phi_schedule", default_schedule(self.n_meas))
        else:
            sched = tuple(float(p) for p in self.phi_schedule)
            if len(sched) != self.n_meas:
                raise DomainError(
                    f"schedule length {len(sched)} != n_meas {self.n_meas}")
            if not all(np.isfinite(p) for p in sched):
                raise DomainError("phi_schedule must be finite")
            object.__setattr__(self, "phi_schedule", sched)

    @property
    def axes(self) -> tuple[MeasurementAxis, ...]:
        return tuple(MeasurementAxis(self.theta, p) for p in self.phi_schedule)

    @property
    def closing_axis(self) -> MeasurementAxis:
        return MeasurementAxis(self.theta, CLOSING_PHI)


@dataclass(frozen=True)
class InterferenceResult:
    """The reference interference ``amplitude`` c * exp(i*chi) of one run:
    ``contrast`` is c and ``phase`` is chi in (-pi, pi], meaningful only
    when ``phase_defined`` (contrast above CONTRAST_FLOOR)."""

    amplitude: complex

    @property
    def contrast(self) -> float:
        return float(abs(self.amplitude))

    @property
    def phase(self) -> float:
        return float(np.angle(self.amplitude))

    @property
    def phase_defined(self) -> bool:
        return self.contrast > CONTRAST_FLOOR


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
    vec = np.sqrt(1.0 - reference_weight) * axis_state(
        MeasurementAxis(theta, 0.0)).vec.copy()
    vec[G] = np.sqrt(reference_weight)
    return QutritState(vec, normalized=True)


def conjugated_null_kraus(axis: MeasurementAxis, s: Strength) -> Operator3:
    """R^dag diag(m,1,1) R for the rotation R onto ``axis``.

    Damps the component antipodal to the axis by m; identity on |g>.
    Independent of any phase redefinition of R.
    """
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


def _frame_steps(thetas: np.ndarray | float, schedule: tuple[float, ...]):
    """Yield the frame changes S_k = R_k R_{k-1}^dag for k = 1 .. N+1.

    R_k = R(theta, phi_k) with phi_0 = 0 and phi_{N+1} = CLOSING_PHI (see
    the module docstring).  With c = cos(theta/2), s = sin(theta/2) and
    t = exp(-i (phi_k - phi_{k-1})) the step is

        [[c^2 t + s^2,  c s (t - 1)],
         [c s (t - 1),  s^2 t + c^2]]

    in the (F, E) ordering.  It is symmetric, so each step is the triple
    (S[F,F], S[F,E], S[E,E]) of arrays of the shape of ``thetas``.  Steps
    are yielded one at a time, so no array has an axis of schedule length.
    t is formed as exp(-i phi_k) * exp(i phi_{k-1}), not from the
    difference of the azimuths, whose rounding grows with their size.
    """
    half = 0.5 * np.asarray(thetas, dtype=float)
    c, s = np.cos(half), np.sin(half)
    cc, ss, cs = c * c, s * s, c * s
    ep_prev = 1.0
    for phi in (*schedule, CLOSING_PHI):
        ep = np.exp(-1j * phi)
        t = ep * np.conj(ep_prev)
        yield cc * t + ss, cs * (t - 1.0), ss * t + cc
        ep_prev = ep


def _to_lab(thetas, phis, a_f, a_e):
    """The pair (a_f, a_e) of frame R(theta, phi) in the lab frame, R^dag
    (a_f, a_e) = (e^{i phi} (c a_f + s a_e), c a_e - s a_f) with c, s =
    cos(theta/2), sin(theta/2).  All four arguments broadcast."""
    half = 0.5 * np.asarray(thetas, dtype=float)
    c, s = np.cos(half), np.sin(half)
    return np.exp(1j * np.asarray(phis)) * (c * a_f + s * a_e), c * a_e - s * a_f


def _start(w: float):
    """(a_f, a_e, g) = (0, sqrt(1-w), sqrt(w)) before the first step."""
    return 0j, complex(np.sqrt(1.0 - w)), np.sqrt(w)


def _frame_step(step, a_f, a_e):
    """The pair (a_f, a_e) after the frame change (S_ff, S_fe, S_ee)."""
    s_ff, s_fe, s_ee = step
    return s_ff * a_f + s_fe * a_e, s_fe * a_f + s_ee * a_e


def _close(step, a_f, a_e, g):
    """The interference 2 g <e|S_close|a_f, a_e> of the closing ``step``."""
    _, s_fe, s_ee = step
    return 2.0 * g * (s_fe * a_f + s_ee * a_e)


def _kernel_args(thetas, strength, n_meas: int, reference_weight: float):
    """The closed form's argument rules, stated only here and checked in
    this order: thetas in [0, pi], an m array in [0, 1] (a Strength checked
    its own m), reference_weight in (0, 1) and n_meas a positive integer;
    NaN fails each range.  Every public entry runs it once: ``ProtocolSpec``,
    the two kernels ``_amplitudes_for_thetas`` and ``_uniform_amplitudes``,
    and ``analysis.find_critical_strength``, which then calls the unchecked
    ``_uniform_power`` at every m it searches.  Returns thetas as a float
    array and m as the Strength's value or an array that broadcasts against
    thetas."""
    thetas = np.asarray(thetas, dtype=float)
    if not np.all((thetas >= 0.0) & (thetas <= np.pi)):
        raise DomainError("theta grid outside [0, pi]")
    m = strength.m if isinstance(strength, Strength) else np.asarray(strength)
    if isinstance(m, np.ndarray) and not np.all((m >= 0.0) & (m <= 1.0)):
        raise DomainError("strength grid outside [0, 1]")
    if not 0.0 < reference_weight < 1.0:
        raise DomainError(f"reference_weight={reference_weight!r} outside (0, 1)")
    _require_int("n_meas", n_meas)
    if n_meas < 1:
        raise DomainError(f"n_meas={n_meas!r} must be positive")
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


def _uniform_amplitudes(thetas: np.ndarray, strength: Strength | np.ndarray,
                        n_meas: int = 6,
                        reference_weight: float = 0.5) -> np.ndarray:
    """The closed-form product of the uniform schedule, batched over theta
    and m as ``_amplitudes_for_thetas`` is, in O(log N) steps: the checks
    of ``_kernel_args``, the step ``_uniform_step``, then the arithmetic of
    ``_uniform_power``.  Equals the step loop to a rounding error that
    grows about like N * eps.
    """
    thetas, m = _kernel_args(thetas, strength, n_meas, reference_weight)
    return _uniform_power(_uniform_step(thetas, n_meas), m, n_meas,
                          reference_weight)


def _uniform_power(step, m, n_meas: int,
                   reference_weight: float) -> np.ndarray:
    """2*sqrt(w*(1-w)) * [K^N]_EE for the uniform step triple ``step`` of
    ``_uniform_step``, unchecked: the caller has run ``_kernel_args`` on
    the thetas of ``step``, on n_meas and w, and on m or on a span that
    holds every m it passes (a float, or an array that broadcasts against
    the step's shape).

    K = D^(1/2) S D^(1/2) is the symmetric matrix of the module docstring.
    Powers of K are symmetric, so K is carried as the three arrays (K[F,F],
    K[F,E], K[E,E]), squared in place, and applied to the vector K^j e_E on
    the set bits of N.
    """
    w = reference_weight
    s_ff, s_fe, s_ee = step
    shape = np.broadcast_shapes(np.shape(s_ff), np.shape(m))
    k_ff = np.empty(shape, dtype=complex)
    k_fe = np.empty(shape, dtype=complex)
    k_ee = np.empty(shape, dtype=complex)
    k_ff[...] = m * s_ff
    k_fe[...] = np.sqrt(m) * s_fe
    k_ee[...] = s_ee
    a, b = np.empty(shape, dtype=complex), np.empty(shape, dtype=complex)
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
