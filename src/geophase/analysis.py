"""Phase-map analysis: unwrapped curves, winding numbers, surface degree,
critical-strength location, and the independent geometric oracles.

Geometry conventions
--------------------
Signed solid angles use the right-hand rule with the outward normal:
counterclockwise loops (seen from outside the sphere) enclose positive
area.  With the mirrored Bloch azimuth of :mod:`geophase.qutrit`, the
discrete-path phase of a closed state sequence equals exactly half the
signed area of its Bloch polygon, so the polygon area and the overlap
product provide two independent routes to the same phase.

Curves chi(theta) are unwrapped along ascending theta, anchored at
chi(0) = 0 (the trajectory at the north pole never moves).  The winding
number is (chi(pi) - chi(0)) / 2pi; it drops from 1 to 0 at the critical
strength, where the equatorial contrast vanishes and the equatorial phase
jumps by pi.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (AnalysisError, AntipodalError, DomainError,
                     TransitionNotFoundError, UnwrapError)
from .measurement import Strength
from .protocol import CONTRAST_FLOOR, _amplitudes_for_thetas
from .qutrit import _bloch_batch

DEFAULT_CURVE_NODES = 129
TRANSITION_CURVE_NODES = 65
MAX_CURVE_NODES = 4096
REFINE_DELTA = 0.5 * np.pi
FAIL_DELTA = np.pi - 1e-3
CHERN_RESIDUAL_TOL = 0.05
_ANTIPODAL_TOL = 1e-12


def wrap_angle(x):
    """Map angles to [-pi, pi)."""
    return np.mod(np.asarray(x, dtype=float) + np.pi, 2.0 * np.pi) - np.pi


# ---------------------------------------------------------------------------
# Geometric oracles


def _as_unit_vertices(vertices) -> np.ndarray:
    pts = np.asarray([v.as_array() if hasattr(v, "as_array") else v
                      for v in vertices], dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise DomainError("vertices must be 3-vectors")
    norms = np.linalg.norm(pts, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-9):
        raise DomainError("vertices must be unit vectors")
    return pts / norms[:, None]


def solid_angle_polygon(vertices) -> float:
    """Signed solid angle (steradians) of a geodesic polygon.

    Orientation comes from the vertex order; counterclockwise from outside
    is positive.  Computed from the geodesic turning angles (the spherical
    excess), which stays exact for polygons whose edges lie on one great
    circle, e.g. an equatorial hexagon, where triangulation degenerates.
    The value is reported in (-2*pi, 2*pi]; a hemisphere boundary gives
    +2*pi for either orientation.  Repeated consecutive vertices contribute
    nothing; consecutive antipodal vertices have no unique geodesic and
    raise AntipodalError.
    """
    pts = _as_unit_vertices(vertices)
    if len(pts) < 3:
        raise DomainError("a polygon needs at least 3 vertices")
    keep = [pts[0]]
    for p in pts[1:]:
        if np.dot(p, keep[-1]) < 1.0 - 1e-12:
            keep.append(p)
    while len(keep) > 1 and np.dot(keep[0], keep[-1]) >= 1.0 - 1e-12:
        keep.pop()
    pts = np.asarray(keep)
    n = len(pts)
    if n < 3:
        return 0.0
    nxt = np.roll(pts, -1, axis=0)
    dots = np.sum(pts * nxt, axis=1)
    if np.any(dots <= -1.0 + _ANTIPODAL_TOL):
        raise AntipodalError("polygon has consecutive antipodal vertices")

    turning = 0.0
    for k in range(n):
        p, q, s = pts[k - 1], pts[k], pts[(k + 1) % n]
        t_in = q * np.dot(p, q) - p      # arrival direction at q, tangent plane
        t_out = s - q * np.dot(q, s)     # departure direction at q
        t_in /= np.linalg.norm(t_in)
        t_out /= np.linalg.norm(t_out)
        turning += np.arctan2(np.dot(np.cross(t_in, t_out), q),
                              np.dot(t_in, t_out))
    omega = 2.0 * np.pi - turning
    if omega > 2.0 * np.pi + 1e-12:
        omega -= 4.0 * np.pi
    return float(omega)


def pancharatnam_phase(states) -> float:
    """arg of the product of successive overlaps around a closed state path.

    ``states`` must be an explicitly closed list (last entry equal to the
    first); any vanishing consecutive overlap leaves the phase undefined.
    For a projected (measurement-dragged) path this equals half the signed
    solid angle of the corresponding Bloch polygon.
    """
    vecs = [np.asarray(s.vec if hasattr(s, "vec") else s, dtype=complex)
            for s in states]
    if len(vecs) < 3:
        raise DomainError("need at least a closed pair of segments")
    if np.max(np.abs(vecs[-1] - vecs[0])) > 1e-9:
        raise DomainError("state list must be closed (last = first)")
    product = 1.0 + 0.0j
    for cur, nxt in zip(vecs[:-1], vecs[1:]):
        ov = np.vdot(nxt, cur)
        if abs(ov) < 1e-15:
            raise DomainError("vanishing overlap: Pancharatnam phase undefined")
        product *= ov
    return float(np.angle(product))


def _triangle_solid_angles(a, b, c):
    """Signed solid angles of spherical triangles, batched (van Oosterom form)."""
    num = np.einsum("...i,...i->...", a, np.cross(b, c))
    den = (1.0 + np.einsum("...i,...i->...", a, b)
           + np.einsum("...i,...i->...", b, c)
           + np.einsum("...i,...i->...", c, a))
    return 2.0 * np.arctan2(num, den)


# ---------------------------------------------------------------------------
# Phase curves


@dataclass(frozen=True)
class PhaseCurve:
    """chi and contrast along ascending theta at fixed strength.

    ``theta`` includes any nodes inserted by adaptive refinement.  ``chi``
    is unwrapped and anchored at chi(0) = 0; masked nodes (contrast below
    the floor) carry NaN.  ``unwrappable`` is False when refinement could
    not separate a near-pi branch jump, expected only within a hair of the
    critical strength.
    """

    theta: np.ndarray
    chi_wrapped: np.ndarray
    chi: np.ndarray
    contrast: np.ndarray
    defined: np.ndarray
    strength: Strength
    n_meas: int
    reference_weight: float
    unwrappable: bool

    def __post_init__(self):
        for name in ("theta", "chi_wrapped", "chi", "contrast", "defined"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def at(self, theta_values) -> np.ndarray:
        """Indices of the given theta values in the curve grid."""
        idx = np.searchsorted(self.theta, theta_values)
        if np.any(idx >= len(self.theta)) or np.any(
                np.abs(self.theta[np.minimum(idx, len(self.theta) - 1)]
                       - theta_values) > 1e-12):
            raise DomainError("theta values not on the curve grid")
        return idx


def _defined_steps(chi_wrapped: np.ndarray, defined: np.ndarray):
    """Indices of the defined nodes and the wrapped phase steps between
    neighbouring ones."""
    didx = np.flatnonzero(defined)
    return didx, wrap_angle(np.diff(chi_wrapped[didx]))


def _unwrap_defined(chi_wrapped: np.ndarray, defined: np.ndarray):
    """Cumulative unwrap over defined nodes, anchored to 0 at the first."""
    chi = np.full(chi_wrapped.shape, np.nan)
    didx, steps = _defined_steps(chi_wrapped, defined)
    if didx.size == 0:
        return chi, False
    chi[didx] = np.concatenate([[0.0], np.cumsum(steps)])
    return chi, bool(np.all(np.abs(steps) < FAIL_DELTA))


def phase_vs_theta(strength: Strength, grid=None, *, n_meas: int = 6,
                   reference_weight: float = 0.5,
                   phi_schedule: tuple[float, ...] | None = None) -> PhaseCurve:
    """Evaluate chi(theta) on a grid, refining until it unwraps cleanly.

    The grid must start at theta = 0 (the unwrap anchor).  Intervals whose
    wrapped phase step exceeds pi/2 between adjacent defined nodes are
    bisected, up to MAX_CURVE_NODES total nodes; nodes with contrast below
    CONTRAST_FLOOR are masked and bridged by their defined neighbors.
    """
    if grid is None:
        grid = np.linspace(0.0, np.pi, DEFAULT_CURVE_NODES)
    thetas = np.unique(np.asarray(grid, dtype=float))
    if thetas.size < 2 or not abs(thetas[0]) <= 1e-15:
        raise DomainError("theta grid must start at 0 and have >= 2 nodes")
    thetas[0] = 0.0
    if not thetas[-1] <= np.pi:
        raise DomainError("theta grid outside [0, pi]")

    def evaluate(nodes: np.ndarray):
        amps = _amplitudes_for_thetas(nodes, strength, n_meas=n_meas,
                                      reference_weight=reference_weight,
                                      phi_schedule=phi_schedule)
        return np.angle(amps), np.abs(amps)

    chi_w, con = evaluate(thetas)
    while True:
        didx, steps = _defined_steps(chi_w, con > CONTRAST_FLOOR)
        left, right = thetas[didx[:-1]], thetas[didx[1:]]
        mid = 0.5 * (left + right)
        new_nodes = mid[(np.abs(steps) >= REFINE_DELTA)
                        & (left < mid) & (mid < right)]
        budget = MAX_CURVE_NODES - thetas.size
        if not new_nodes.size or budget <= 0:
            break
        new_nodes = new_nodes[:budget]
        chi_new, con_new = evaluate(new_nodes)
        order = np.argsort(np.concatenate([thetas, new_nodes]), kind="stable")
        thetas = np.concatenate([thetas, new_nodes])[order]
        chi_w = np.concatenate([chi_w, chi_new])[order]
        con = np.concatenate([con, con_new])[order]

    defined = con > CONTRAST_FLOOR
    if not defined[0]:
        raise UnwrapError("cannot anchor: contrast at theta = 0 below floor")
    chi, unwrappable = _unwrap_defined(chi_w, defined)
    return PhaseCurve(theta=thetas, chi_wrapped=chi_w, chi=chi, contrast=con,
                      defined=defined, strength=strength, n_meas=n_meas,
                      reference_weight=reference_weight,
                      unwrappable=unwrappable)


def chern_from_curve(curve: PhaseCurve) -> int:
    """Winding number (chi(pi) - chi(0)) / 2pi, rounded with a residual check."""
    if not curve.unwrappable:
        raise UnwrapError("winding number undefined: curve is not unwrappable")
    if abs(curve.theta[-1] - np.pi) > 1e-12 or abs(curve.theta[0]) > 1e-15:
        raise DomainError("curve must span [0, pi]")
    if not (curve.defined[0] and curve.defined[-1]):
        raise UnwrapError("winding number undefined: masked endpoint")
    span = (curve.chi[-1] - curve.chi[0]) / (2.0 * np.pi)
    c = int(np.rint(span))
    residual = abs(span - c)
    if residual >= CHERN_RESIDUAL_TOL:
        raise AnalysisError(
            f"winding residual {residual:.3g} exceeds {CHERN_RESIDUAL_TOL}")
    return c


# ---------------------------------------------------------------------------
# Trajectory surface and its degree


def _slerp_loops(vertices: np.ndarray, interp_per_segment: int,
                 thetas: np.ndarray) -> np.ndarray:
    """Geodesic-interpolate closed loops.

    ``vertices`` has shape (n_loops, n_vertices, 3); segment k runs from
    vertex k to vertex k+1 (wrapping), each sampled at interp_per_segment
    points excluding its endpoint.  Antipodal segment endpoints raise
    AntipodalError naming the loop's theta and segment.
    """
    nxt = np.roll(vertices, -1, axis=1)
    dots = np.clip(np.sum(vertices * nxt, axis=2), -1.0, 1.0)
    bad = np.argwhere(dots <= -1.0 + _ANTIPODAL_TOL)
    if bad.size:
        i, j = bad[0]
        raise AntipodalError("antipodal geodesic endpoints on trajectory",
                             theta=float(thetas[i]), segment=int(j))
    gamma = np.arccos(dots)[..., None, None]
    t = (np.arange(interp_per_segment) / interp_per_segment)[None, None, :, None]
    small = gamma < 1e-9
    sin_gamma = np.where(small, 1.0, np.sin(gamma))
    w0 = np.where(small, 1.0 - t, np.sin((1.0 - t) * gamma) / sin_gamma)
    w1 = np.where(small, t, np.sin(t * gamma) / sin_gamma)
    pts = w0 * vertices[:, :, None, :] + w1 * nxt[:, :, None, :]
    pts /= np.linalg.norm(pts, axis=3, keepdims=True)
    n_loops = vertices.shape[0]
    return pts.reshape(n_loops, -1, 3)


def trajectory_surface(strength: Strength, theta_grid=None,
                       interp_per_segment: int = 8, *, n_meas: int = 6,
                       reference_weight: float = 0.5,
                       phi_schedule: tuple[float, ...] | None = None):
    """Closed trajectory surface and its degree.

    The surface is swept by the per-latitude measurement loops (post-step
    Bloch points geodesically interpolated, closed back to the initial
    meridian) over theta in [0, pi]; at the poles the loops pinch to
    points, closing the surface.  The degree is the total signed area of
    the quad mesh over 4*pi, with quads oriented by ascending theta x
    ascending path parameter (outward for a wrapping surface, so wrapping
    reads +1).

    Returns (degree, thetas, loops) with loops of shape
    (n_theta, (n_meas+1)*interp_per_segment, 3).
    """
    if not (0.0 <= strength.m < 1.0):
        raise DomainError("surface degree requires m in [0, 1)")
    if interp_per_segment < 1:
        raise DomainError("interp_per_segment must be >= 1")
    if theta_grid is None:
        theta_grid = np.linspace(0.0, np.pi, 64)
    thetas = np.unique(np.asarray(theta_grid, dtype=float))
    if thetas.size < 33:
        raise DomainError("theta grid too coarse for a surface (need >= 33 nodes)")
    if not (abs(thetas[0]) <= 1e-12 and abs(thetas[-1] - np.pi) <= 1e-12):
        raise DomainError("theta grid must span [0, pi] to close the surface")
    thetas[0], thetas[-1] = 0.0, np.pi

    _, pairs = _amplitudes_for_thetas(thetas, strength, n_meas=n_meas,
                                      reference_weight=reference_weight,
                                      phi_schedule=phi_schedule, record=True)
    loops = _slerp_loops(_bloch_batch(pairs), interp_per_segment, thetas)
    a = loops[:-1]
    b = loops[1:]
    c = np.roll(b, -1, axis=1)
    d = np.roll(a, -1, axis=1)
    total = (np.sum(_triangle_solid_angles(a, b, c))
             + np.sum(_triangle_solid_angles(a, c, d)))
    raw = total / (4.0 * np.pi)
    deg = int(np.rint(raw))
    residual = abs(raw - deg)
    if residual >= 0.05:
        raise AnalysisError(f"surface degree residual {residual:.3g} too large")
    return deg, thetas, loops


def surface_degree(strength: Strength, theta_grid=None,
                   interp_per_segment: int = 8, *, n_meas: int = 6,
                   reference_weight: float = 0.5,
                   phi_schedule: tuple[float, ...] | None = None) -> int:
    """Degree of the closed trajectory surface (see trajectory_surface)."""
    deg, _, _ = trajectory_surface(strength, theta_grid, interp_per_segment,
                                   n_meas=n_meas,
                                   reference_weight=reference_weight,
                                   phi_schedule=phi_schedule)
    return deg


# ---------------------------------------------------------------------------
# Critical strength


@dataclass(frozen=True)
class TransitionReport:
    """Located topological transition.

    ``bracket`` is the final bisection interval in m (winding 1 below,
    0 above), ``m_star`` the root of the equatorial amplitude inside it and
    ``contrast_min`` the equatorial contrast there.  The counters record
    the work: ``curves`` winding curves evaluated (nudged retries
    included), ``nudge_retries`` of them retries after a curve that did not
    unwrap, and ``root_calls`` kernel calls of the root search.
    """

    m_star: Strength
    bracket: tuple[float, float]
    contrast_min: float
    chern_below: int
    chern_above: int
    jump_at_equator: float
    curves: int
    nudge_retries: int
    root_calls: int

    def __post_init__(self):
        lo, hi = self.bracket
        if not (lo <= self.m_star.m <= hi):
            raise DomainError("m_star outside its bracket")
        if self.chern_below == self.chern_above:
            raise DomainError("report without an index flip")


#: Points per section of the equatorial root search, ends included; each
#: kernel call narrows the sign-change bracket 32-fold.
ROOT_SECTION = 33


def _equator_root(equator, lo: float, hi: float, a_lo: complex,
                  a_hi: complex):
    """Sign change of f(m) = Re(a(m) * conj(a_lo)) in [lo, hi], narrowed
    until no float lies between the bracket ends.

    ``equator`` maps an array of m to the equatorial amplitudes, and
    f(lo) > 0 > f(hi) must hold.  Each pass evaluates the interior of a
    ROOT_SECTION-point section in one call and keeps the first interval
    over which f leaves the sign of f(lo).  Returns the end with the
    smaller contrast, its amplitude and the number of calls.
    """
    ref = np.conj(a_lo)
    calls = 0
    while True:
        ms = np.unique(np.linspace(lo, hi, ROOT_SECTION))
        if ms.size <= 2:
            break
        inner = equator(ms[1:-1])
        calls += 1
        flipped = np.flatnonzero((inner * ref).real <= 0.0)
        j = flipped[0] + 1 if flipped.size else ms.size - 1
        amps = np.concatenate([[a_lo], inner, [a_hi]])
        lo, hi = float(ms[j - 1]), float(ms[j])
        a_lo, a_hi = complex(amps[j - 1]), complex(amps[j])
    if abs(a_lo) <= abs(a_hi):
        return lo, a_lo, calls
    return hi, a_hi, calls


def find_critical_strength(n_meas: int = 6, reference_weight: float = 0.5,
                           tol: float = 1e-4, *,
                           phi_schedule: tuple[float, ...] | None = None
                           ) -> TransitionReport:
    """Bisect the winding-number flip in m, then find the root of the
    equatorial amplitude inside the final bracket.

    The flip is bracketed by winding numbers of full curves.  The
    equatorial phase must jump by pi (within 0.05 rad) across the bracket,
    so the projection of the equatorial amplitude onto its value at the
    lower end changes sign there; the critical strength is that sign
    change, resolved to adjacent floats (for the uniform schedule the
    amplitude is real and this is its root).
    """
    if not tol >= 1e-6:
        raise DomainError(f"tol={tol!r} below the supported resolution 1e-6")
    if not np.isfinite(tol):
        raise DomainError(f"tol={tol!r} must be finite")
    grid = np.linspace(0.0, np.pi, TRANSITION_CURVE_NODES)
    curves = retries = 0

    def chern_at(m: float) -> int:
        nonlocal curves, retries
        for nudge in (0.0, 1e-9, -1e-9, 1e-7, -1e-7):
            curves += 1
            try:
                curve = phase_vs_theta(Strength(m + nudge), grid,
                                       n_meas=n_meas,
                                       reference_weight=reference_weight,
                                       phi_schedule=phi_schedule)
                return chern_from_curve(curve)
            except UnwrapError:
                retries += 1
        raise UnwrapError(f"curve not unwrappable near m={m!r}")

    lo, hi = 1e-3, 1.0 - 1e-3
    c_lo, c_hi = chern_at(lo), chern_at(hi)
    if c_lo == c_hi:
        raise TransitionNotFoundError(
            f"no winding flip in ({lo}, {hi}): both ends give {c_lo}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if chern_at(mid) == c_lo:
            lo = mid
        else:
            hi = mid

    def equator(ms) -> np.ndarray:
        return _amplitudes_for_thetas(np.array([0.5 * np.pi]), np.asarray(ms),
                                      n_meas=n_meas,
                                      reference_weight=reference_weight,
                                      phi_schedule=phi_schedule)

    a_lo, a_hi = equator([lo, hi])
    jump = float(abs(wrap_angle(np.angle(a_hi) - np.angle(a_lo))))
    if abs(jump - np.pi) > 0.05:
        raise AnalysisError(
            f"equatorial phase jump {jump:.4f} not within 0.05 of pi")
    m_star, a_star, root_calls = _equator_root(equator, lo, hi, a_lo, a_hi)
    return TransitionReport(m_star=Strength(m_star), bracket=(lo, hi),
                            contrast_min=abs(a_star), chern_below=c_lo,
                            chern_above=c_hi, jump_at_equator=jump,
                            curves=curves, nudge_retries=retries,
                            root_calls=root_calls)


# ---------------------------------------------------------------------------
# Dense maps


@dataclass(frozen=True)
class PhaseMap:
    """chi and contrast over a theta x strength grid.

    Matrices are indexed [theta, strength]; ``chi_unwrapped`` is unwrapped
    along theta per strength column (anchored at theta = 0), NaN where the
    contrast is below the floor.  ``column_unwrappable`` flags columns whose
    unwrap is trustworthy.
    """

    theta_grid: np.ndarray
    strength_grid: np.ndarray
    chi_wrapped: np.ndarray
    chi_unwrapped: np.ndarray
    contrast: np.ndarray
    defined: np.ndarray
    column_unwrappable: np.ndarray
    n_meas: int
    reference_weight: float

    def __post_init__(self):
        for name in ("theta_grid", "strength_grid", "chi_wrapped",
                     "chi_unwrapped", "contrast", "defined",
                     "column_unwrappable"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_cells(self) -> int:
        return int(self.theta_grid.size * self.strength_grid.size)


def sweep_phase_map(theta_grid, strength_grid, *, n_meas: int = 6,
                    reference_weight: float = 0.5,
                    workers: int = 1) -> PhaseMap:
    """Dense (theta, m) evaluation with per-column unwrapping.

    The whole grid, plus the theta = 0 anchor, is one kernel call.  A
    column whose wrapped phase steps reach REFINE_DELTA is re-evaluated as
    an adaptively refined phase_vs_theta curve, so every column equals that
    curve on the grid nodes.  ``workers`` has no effect; it is kept only for
    callers that still pass it (the benchmark's analytic-map workload).
    """
    thetas = np.unique(np.asarray(theta_grid, dtype=float))
    ms = np.asarray(strength_grid, dtype=float)
    if not np.all((thetas >= 0.0) & (thetas <= np.pi)):
        raise DomainError("theta grid outside [0, pi]")
    if not np.all((ms >= 0.0) & (ms <= 1.0)):
        raise DomainError("strength grid outside [0, 1]")
    base = np.unique(np.concatenate([[0.0], thetas]))
    amps = _amplitudes_for_thetas(base[:, None], ms, n_meas=n_meas,
                                  reference_weight=reference_weight)
    chi_w, con = np.angle(amps), np.abs(amps)
    defined = con > CONTRAST_FLOOR
    chi_u = np.empty_like(chi_w)
    unwrappable = np.empty(ms.size, dtype=bool)
    for j, m in enumerate(ms):
        _, steps = _defined_steps(chi_w[:, j], defined[:, j])
        if np.any(np.abs(steps) >= REFINE_DELTA):
            curve = phase_vs_theta(Strength(float(m)), base, n_meas=n_meas,
                                   reference_weight=reference_weight)
            chi_u[:, j] = curve.chi[curve.at(base)]
            unwrappable[j] = curve.unwrappable
        else:
            chi_u[:, j], unwrappable[j] = _unwrap_defined(chi_w[:, j],
                                                          defined[:, j])
    idx = np.searchsorted(base, thetas)
    return PhaseMap(theta_grid=thetas, strength_grid=ms,
                    chi_wrapped=chi_w[idx], chi_unwrapped=chi_u[idx],
                    contrast=con[idx], defined=defined[idx],
                    column_unwrappable=unwrappable, n_meas=n_meas,
                    reference_weight=reference_weight)
