"""Qutrit states, 3x3 operators, and Bloch geometry of the {e,f} manifold.

Basis ordering is (f, e, g) everywhere: index 0 is the monitored level
``|f>``, index 1 is ``|e>``, index 2 is the reference level ``|g>``.
On the {e,f} qubit, ``|e>`` is the north pole (theta = 0) and ``|f>``
the south pole.  A polar/azimuthal pair (theta, phi) labels the state

    cos(theta/2) |e>  +  exp(i*phi) sin(theta/2) |f>.

Bloch coordinates use the mirrored azimuth, x + iy = 2 * a_e * conj(a_f),
so the displayed azimuth is *minus* the state azimuth.  This makes a
decreasing-azimuth measurement schedule trace a positively oriented
(counterclockwise from outside) loop on the displayed sphere, which in
turn makes discrete-path phases equal half the signed polygon area with
the ordinary right-hand orientation convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
# _bloch_batch is defined in protocol, and F, E and G in spec; each is
# still importable from here
from .protocol import _bloch_batch
from .spec import _EF_FLOOR, E, F, G, _bloch

NORM_TOL = 1e-12


@dataclass(frozen=True)
class QutritState:
    """Three complex amplitudes (a_f, a_e, a_g).

    States are immutable; the amplitude array is read-only.  Unnormalized
    states are legitimate mid-protocol values: their squared norm is the
    cumulative probability of the measurement outcomes that produced them.
    """

    vec: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        vec = np.array(self.vec, dtype=complex)
        if vec.shape != (3,):
            raise DomainError(f"state needs 3 amplitudes, got shape {vec.shape}")
        if not np.all(np.isfinite(vec)):
            raise DomainError("state has non-finite amplitudes")
        vec.setflags(write=False)
        object.__setattr__(self, "vec", vec)
        if self.normalized and abs(self.norm - 1.0) > NORM_TOL:
            raise DomainError(f"state flagged normalized has norm {self.norm!r}")

    @classmethod
    def from_amplitudes(cls, a_f: complex, a_e: complex, a_g: complex,
                        normalized: bool = False) -> "QutritState":
        return cls(np.array([a_f, a_e, a_g], dtype=complex), normalized)

    @property
    def a_e(self) -> complex:
        return complex(self.vec[E])

    @property
    def a_g(self) -> complex:
        return complex(self.vec[G])

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.vec))

    @property
    def ef_norm(self) -> float:
        """Norm of the {e,f}-manifold component."""
        return float(np.hypot(abs(self.vec[F]), abs(self.vec[E])))


@dataclass(frozen=True)
class Operator3:
    """A 3x3 complex operator in the (f, e, g) ordering."""

    mat: np.ndarray

    def __post_init__(self):
        mat = np.array(self.mat, dtype=complex)
        if mat.shape != (3, 3):
            raise DomainError(f"operator must be 3x3, got shape {mat.shape}")
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)

    def __matmul__(self, other: "Operator3") -> "Operator3":
        return Operator3(self.mat @ other.mat)

    def dagger(self) -> "Operator3":
        return Operator3(self.mat.conj().T)

    def apply(self, state: QutritState) -> QutritState:
        return QutritState(self.mat @ state.vec)


@dataclass(frozen=True)
class MeasurementAxis:
    """Polar/azimuthal pair on the {e,f} Bloch sphere.

    theta must lie in [0, pi]; phi is unbounded (negative values are the
    normal case for the wrapping schedules used here).
    """

    theta: float
    phi: float

    def __post_init__(self):
        if not np.isfinite(self.theta) or not (0.0 <= self.theta <= np.pi):
            raise DomainError(f"theta={self.theta!r} outside [0, pi]")
        if not np.isfinite(self.phi):
            raise DomainError(f"phi={self.phi!r} is not finite")


@dataclass(frozen=True)
class BlochVector:
    """Unit vector on the displayed Bloch sphere."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        r = np.sqrt(self.x ** 2 + self.y ** 2 + self.z ** 2)
        if abs(r - 1.0) > NORM_TOL:
            raise DomainError(f"Bloch vector has length {r!r}, expected 1")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


def axis_state(axis: MeasurementAxis) -> QutritState:
    """The pure {e,f} state pointing along ``axis``: cos(theta/2)|e> + e^{i phi} sin(theta/2)|f>."""
    half = 0.5 * axis.theta
    return QutritState.from_amplitudes(
        np.exp(1j * axis.phi) * np.sin(half), np.cos(half), 0.0, normalized=True)


def rotation_to_axis(axis: MeasurementAxis) -> Operator3:
    """The {e,f}-block rotation R with R |axis> = |e> exactly (no residual phase).

    The antipodal axis state maps to |f> up to a phase, and the g level is
    untouched.  The zero-residual-phase pin matters only for the closing
    rotation of the measurement protocol; conjugated diagonal operators
    R^dag D R are independent of it.
    """
    c, s = np.cos(0.5 * axis.theta), np.sin(0.5 * axis.theta)
    ep = np.exp(-1j * axis.phi)
    mat = np.zeros((3, 3), dtype=complex)
    mat[F, F] = c * ep
    mat[F, E] = -s
    mat[E, F] = s * ep
    mat[E, E] = c
    mat[G, G] = 1.0
    return Operator3(mat)


def bloch_of(state: QutritState) -> BlochVector:
    """Bloch vector of the normalized {e,f} projection of ``state``.

    z = +1 at |e>, -1 at |f>; x + iy = 2 a_e conj(a_f) (mirrored azimuth,
    see the module docstring).  Raises DomainError when the state has no
    {e,f} support.
    """
    n = state.ef_norm
    if n < _EF_FLOOR:
        raise DomainError("Bloch vector undefined: state has no {e,f} component")
    return BlochVector(*map(float, _bloch(state.vec[F], state.vec[E], n)))

