"""One run's specification, the frame-step algebra, and the closed form of
one run on Python numbers.  Nothing here imports numpy.

A run at polar angle theta prepares sqrt(w)|g> + sqrt(1-w)|theta, phi=0>,
applies N null-outcome measurements along the axes (theta, phi_k) and
closes the loop with the rotation that maps (theta, CLOSING_PHI) onto |e>
(see :mod:`geophase.protocol`).  ``Strength`` and ``ProtocolSpec`` state
the rules of its arguments; ``_run_args`` holds the rules on n_meas and w
that the batched kernels' ``protocol._kernel_args`` shares.

The frame convention is stated here once.  The {e,f} pair is carried in
the frame of the current measurement, R_k = R(theta, phi_k), where each
attenuation is diagonal, a_f -> m a_f.  With phi_0 = 0 and phi_{N+1} =
CLOSING_PHI, the run is the sequence of frame changes

    S_k = R_k R_{k-1}^dag,   k = 1 .. N+1,

which ``_steps`` yields from c = cos(theta/2), s = sin(theta/2) and the
azimuths.  R(theta, 0) maps the initial axis state to |e>, so the pair
starts at (0, sqrt(1-w)) beside g = sqrt(w) (``_start``); each S_k is one
``_frame_step``, and the amplitude is 2g times the e component after
S_{N+1} (``_close``).  R_k^dag takes a pair of frame k to the lab frame
(``_lab``, from c, s and exp(i phi_k)), and ``_bloch`` gives a lab pair's
point on the displayed sphere.

These are written once over whatever numbers they are given: Python
floats and complex numbers here, numpy arrays in ``protocol``'s batched
kernel and in the Monte Carlo walk of :mod:`geophase.trajectories`, whose
callers take cos, sin and exp with numpy.  ``closed_form`` runs one spec
on Python numbers, which is what ``geophase phase`` and the reference of
``geophase mc`` compute, so that neither loads numpy for it.  Its results
differ from ``protocol.run_protocol_analytic``'s in the last bits only:
numpy's SIMD complex products, its hypot and its arctan2 round
differently from Python's.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass

from .errors import DomainError

#: Contrast below which the interference phase is flagged undefined.
CONTRAST_FLOOR = 1e-9

#: Azimuth of the closing rotation: one full wrap below the initial meridian.
CLOSING_PHI = -2.0 * math.pi

#: {e,f} norm below which a pair has no Bloch point.
_EF_FLOOR = 1e-15


def _require_int(name: str, value) -> None:
    """Refuse a size or seed that is not a Python or numpy integer; bools
    are refused too, although Python counts them as ints."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{name}={value!r} must be an integer")


@dataclass(frozen=True)
class Strength:
    """Measurement strength as the per-probe null-outcome attenuation m in [0, 1]."""

    m: float

    def __post_init__(self):
        if not math.isfinite(self.m) or not (0.0 <= self.m <= 1.0):
            raise DomainError(f"strength m={self.m!r} outside [0, 1]")

    @classmethod
    def from_gamma_tau(cls, gamma_tau: float) -> "Strength":
        if not gamma_tau >= 0.0:
            raise DomainError(f"gamma_tau={gamma_tau!r} must be >= 0")
        return cls(math.exp(-gamma_tau))

    @property
    def gamma_tau(self) -> float:
        return math.inf if self.m == 0.0 else -math.log(self.m)

    @property
    def is_projective(self) -> bool:
        return self.m == 0.0


def _run_args(n_meas: int, reference_weight: float) -> None:
    """The closed form's rules on the reference weight and the sequence
    length, in this order: reference_weight in (0, 1) (NaN fails) and
    n_meas a positive integer."""
    if not 0.0 < reference_weight < 1.0:
        raise DomainError(f"reference_weight={reference_weight!r} outside (0, 1)")
    _require_int("n_meas", n_meas)
    if n_meas < 1:
        raise DomainError(f"n_meas={n_meas!r} must be positive")


def default_schedule(n_meas: int) -> tuple[float, ...]:
    """Uniform decreasing azimuths -2*pi*k/N for k = 1..N."""
    return tuple(-2.0 * math.pi * k / n_meas for k in range(1, n_meas + 1))


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
        if not math.isfinite(self.theta) or not (0.0 <= self.theta <= math.pi):
            raise DomainError(f"theta={self.theta!r} outside [0, pi]")
        if not isinstance(self.strength, Strength):
            raise DomainError(f"strength={self.strength!r} is not a Strength")
        _run_args(self.n_meas, self.reference_weight)
        if self.phi_schedule is None:
            object.__setattr__(self, "phi_schedule", default_schedule(self.n_meas))
        else:
            sched = tuple(float(p) for p in self.phi_schedule)
            if len(sched) != self.n_meas:
                raise DomainError(
                    f"schedule length {len(sched)} != n_meas {self.n_meas}")
            if not all(math.isfinite(p) for p in sched):
                raise DomainError("phi_schedule must be finite")
            object.__setattr__(self, "phi_schedule", sched)

    @property
    def axes(self):
        """The measurement axes, as :mod:`geophase.qutrit` objects."""
        from .qutrit import MeasurementAxis

        return tuple(MeasurementAxis(self.theta, p) for p in self.phi_schedule)

    @property
    def closing_axis(self):
        from .qutrit import MeasurementAxis

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
        return cmath.phase(self.amplitude)

    @property
    def phase_defined(self) -> bool:
        return self.contrast > CONTRAST_FLOOR


def _steps(c, s, schedule: tuple[float, ...]):
    """Yield the frame changes S_k = R_k R_{k-1}^dag for k = 1 .. N+1.

    R_k = R(theta, phi_k) with phi_0 = 0 and phi_{N+1} = CLOSING_PHI (see
    the module docstring), c = cos(theta/2) and s = sin(theta/2).  With
    t = exp(-i (phi_k - phi_{k-1})) the step is

        [[c^2 t + s^2,  c s (t - 1)],
         [c s (t - 1),  s^2 t + c^2]]

    in the (F, E) ordering.  It is symmetric, so each step is the triple
    (S[F,F], S[F,E], S[E,E]), of the shape of c and s.  Steps are yielded
    one at a time, so no array has an axis of schedule length.  t is
    formed as exp(-i phi_k) * exp(i phi_{k-1}), not from the difference of
    the azimuths, whose rounding grows with their size.
    """
    cc, ss, cs = c * c, s * s, c * s
    ep_prev = 1.0
    for phi in (*schedule, CLOSING_PHI):
        ep = cmath.exp(-1j * phi)
        t = ep * ep_prev.conjugate()
        yield cc * t + ss, cs * (t - 1.0), ss * t + cc
        ep_prev = ep


def _start(w: float):
    """(a_f, a_e, g) = (0, sqrt(1-w), sqrt(w)) before the first step."""
    return 0j, complex(math.sqrt(1.0 - w)), math.sqrt(w)


def _frame_step(step, a_f, a_e):
    """The pair (a_f, a_e) after the frame change (S_ff, S_fe, S_ee)."""
    s_ff, s_fe, s_ee = step
    return s_ff * a_f + s_fe * a_e, s_fe * a_f + s_ee * a_e


def _close(step, a_f, a_e, g):
    """The interference 2 g <e|S_close|a_f, a_e> of the closing ``step``."""
    _, s_fe, s_ee = step
    return 2.0 * g * (s_fe * a_f + s_ee * a_e)


def _lab(c, s, ep, a_f, a_e):
    """The pair (a_f, a_e) of frame R(theta, phi) in the lab frame, R^dag
    (a_f, a_e) = (e^{i phi} (c a_f + s a_e), c a_e - s a_f) with c, s =
    cos(theta/2), sin(theta/2) and ep = e^{i phi}."""
    return ep * (c * a_f + s * a_e), c * a_e - s * a_f


def _bloch(a_f, a_e, ef):
    """The Bloch point (x, y, z) of the {e,f} pair of norm ``ef``: after
    normalizing, x + iy = 2 a_e conj(a_f) and z = |a_e|^2 - |a_f|^2 (the
    mirrored azimuth of :mod:`geophase.qutrit`)."""
    a_f, a_e = a_f / ef, a_e / ef
    xy = 2.0 * a_e * a_f.conjugate()
    return xy.real, xy.imag, abs(a_e) ** 2 - abs(a_f) ** 2


def closed_form(spec: ProtocolSpec):
    """One run by the closed-form null-outcome product, on Python numbers.

    Returns ``(result, points, factors)``: the InterferenceResult, the
    Bloch point (x, y, z) of the initial pair and of the pair after each
    measurement (N + 1 tuples), and the factor by which each measurement
    attenuated the {e,f} amplitude (N floats).  These are the amplitude,
    ``points`` and ``factors`` of ``protocol.run_protocol_analytic``, to
    rounding, and the path freezes as there: a pair that a projective
    step annihilated keeps the last defined point.
    """
    half = 0.5 * spec.theta
    c, s = math.cos(half), math.sin(half)
    m = spec.strength.m
    a_f, a_e, g = _start(spec.reference_weight)
    frames = [(a_f, a_e)]
    steps = _steps(c, s, spec.phi_schedule)
    for _ in range(spec.n_meas):
        a_f, a_e = _frame_step(next(steps), a_f, a_e)
        frames.append((a_f, a_e))
        a_f = a_f * m
    result = InterferenceResult(_close(next(steps), a_f, a_e, g))
    # pair k sits in frame k before a_f * m, so its factor is exactly 1 at
    # m = 1 and never above 1
    factors = []
    for a_f, a_e in frames[1:]:
        ef = math.hypot(abs(a_f), abs(a_e))
        factors.append(math.hypot(m * abs(a_f), abs(a_e)) / ef if ef > 0.0
                       else 0.0)
    # attenuate, then take pair k to the lab frame by R(theta, phi_k)^dag
    # with phi_0 = 0; the initial pair's a_f is 0, which m leaves alone
    points, point = [], None
    for phi, (a_f, a_e) in zip((0.0, *spec.phi_schedule), frames):
        a_f, a_e = _lab(c, s, cmath.exp(1j * phi), a_f * m, a_e)
        ef = math.hypot(abs(a_f), abs(a_e))
        if ef > _EF_FLOOR:
            point = _bloch(a_f, a_e, ef)
        points.append(point)
    return result, points, factors
