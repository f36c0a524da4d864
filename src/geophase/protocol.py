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
attenuation is diagonal: a_f *= m.  With phi_0 = 0 and phi_{N+1} =
CLOSING_PHI, the run is the sequence of frame changes

    S_k = R_k R_{k-1}^dag,   k = 1 .. N+1,

which ``_frame_steps`` yields.  R(theta, 0) maps the initial axis state to
|e>, so the pair starts at (0, sqrt(1-w)), and the amplitude is 2*sqrt(w)
times the e component after S_{N+1}.  ``_amplitudes_for_thetas`` (the
closed form, batched over theta and m) and the Monte Carlo in
:mod:`geophase.trajectories` both step through it; ``measure_along`` and
``initial_state`` keep the per-step 3x3 form as a reference.

A recorded run keeps each pair in its measurement's frame while it steps
and returns all of them to the lab frame once, after the last step.
``run_protocol_analytic`` reports the path as a ``PathRecord`` of two
arrays: the Bloch ``points`` of the loop and the per-step ``factors``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .measurement import Strength, kraus_null
from .qutrit import (_EF_FLOOR, E, F, G, MeasurementAxis, Operator3,
                     QutritState, _bloch_batch, _rotation_matrices,
                     axis_state, rotation_to_axis)

#: Contrast below which the interference phase is flagged undefined.
CONTRAST_FLOOR = 1e-9

#: Azimuth of the closing rotation: one full wrap below the initial meridian.
CLOSING_PHI = -2.0 * np.pi


def _require_int(name: str, value) -> None:
    """Refuse a size or seed that is not a Python or numpy integer; bools
    are refused too, although Python counts them as ints."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name}={value!r} must be an integer")


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
        _require_int("n_meas", self.n_meas)
        if self.n_meas < 1:
            raise DomainError(f"n_meas={self.n_meas!r} must be positive")
        if not (0.0 < self.reference_weight < 1.0):
            raise DomainError(
                f"reference_weight={self.reference_weight!r} outside (0, 1)")
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
    """Contrast and phase of the reference interference.

    ``phase`` is reported in (-pi, pi]; it is meaningful only when
    ``phase_defined`` (contrast above CONTRAST_FLOOR).
    """

    contrast: float
    phase: float
    phase_defined: bool = True

    @classmethod
    def from_amplitude(cls, amplitude: complex) -> "InterferenceResult":
        contrast = abs(amplitude)
        return cls(contrast=float(contrast),
                   phase=float(np.angle(amplitude)),
                   phase_defined=bool(contrast > CONTRAST_FLOOR))


@dataclass(frozen=True)
class PathRecord:
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

    def __post_init__(self):
        for name in ("points", "factors"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


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
    amps, pairs = _amplitudes_for_thetas(
        np.array([spec.theta]), spec.strength, spec.n_meas,
        spec.reference_weight, spec.phi_schedule, record=True)
    pairs = pairs[0]
    live = np.hypot(np.abs(pairs[:, F]), np.abs(pairs[:, E])) > _EF_FLOOR
    last_live = np.maximum.accumulate(np.where(live, np.arange(live.size), 0))
    # Each factor is taken in its measurement's own frame, where the step
    # only scales a_f, so it is exactly 1 at m = 1 and never above 1.
    rots = _rotation_matrices(np.full(spec.n_meas, spec.theta),
                              np.asarray(spec.phi_schedule))
    a_f, a_e = np.abs(np.einsum("kij,kj->ki", rots, pairs[:-1])).T
    ef_in = np.hypot(a_f, a_e)
    factors = np.divide(np.hypot(spec.strength.m * a_f, a_e), ef_in,
                        out=np.zeros_like(ef_in), where=ef_in > 0.0)
    return (InterferenceResult.from_amplitude(complex(amps[0])),
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


def _amplitudes_for_thetas(thetas: np.ndarray, strength: Strength | np.ndarray,
                           n_meas: int = 6,
                           reference_weight: float = 0.5,
                           phi_schedule: tuple[float, ...] | None = None, *,
                           record: bool = False):
    """The closed-form null-outcome product, batched over theta and m.

    ``strength`` is a Strength or an array of m values that broadcasts
    against ``thetas``: ``thetas[:, None]`` against a row of m evaluates a
    (theta, m) grid.  The {e,f} pair starts at (0, sqrt(1-w)) in the frame
    of the initial axis; each measurement is one frame change from
    ``_frame_steps`` followed by ``a_f *= m``, and the amplitude is
    2*sqrt(w) times the e component after the closing frame change.  The
    steps keep the shape of ``thetas`` and broadcast over m.  Returns the
    interference amplitudes.  With ``record`` it returns them together
    with the lab-frame pairs of shape grid + (n_meas + 1, 2): the initial
    pair followed by the pair after every step.  The pairs are stored in
    their measurements' frames and rotated to the lab frame in one batch
    after the loop.
    """
    thetas = np.asarray(thetas, dtype=float)
    if not np.all((thetas >= 0.0) & (thetas <= np.pi)):
        raise DomainError("thetas outside [0, pi]")
    if not 0.0 < reference_weight < 1.0:
        raise DomainError(f"reference_weight={reference_weight!r} outside (0, 1)")
    m = strength.m if isinstance(strength, Strength) else np.asarray(strength)
    schedule = phi_schedule if phi_schedule is not None else default_schedule(n_meas)
    if len(schedule) != n_meas:
        raise DomainError(f"schedule length {len(schedule)} != n_meas {n_meas}")
    w = reference_weight
    shape = np.broadcast_shapes(thetas.shape, np.shape(m))
    a_f = np.zeros(shape, dtype=complex)
    a_e = np.full(shape, np.sqrt(1.0 - w), dtype=complex)
    if record:
        pairs = np.empty(shape + (n_meas + 1, 2), dtype=complex)
        pairs[..., 0, F], pairs[..., 0, E] = a_f, a_e
    steps = _frame_steps(thetas, schedule)
    for k in range(1, n_meas + 1):
        s_ff, s_fe, s_ee = next(steps)
        a_f, a_e = s_ff * a_f + s_fe * a_e, s_fe * a_f + s_ee * a_e
        a_f *= m
        if record:
            pairs[..., k, F], pairs[..., k, E] = a_f, a_e
    _, s_fe, s_ee = next(steps)
    amps = 2.0 * np.sqrt(w) * (s_fe * a_f + s_ee * a_e)
    if not record:
        return amps
    # Each pair is held in its measurement's frame; return all of them to
    # the lab frame at once, pair k by R(theta, phi_k)^dag with phi_0 = 0.
    rots = _rotation_matrices(thetas[..., None], np.array([0.0, *schedule]))
    np.conjugate(rots, out=rots)
    return amps, np.einsum("...ji,...j->...i", rots, pairs)
