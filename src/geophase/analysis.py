"""Phase-map analysis of the uniform schedule (unwrapped curves, winding
numbers, surface degree, critical-strength location) and the independent
geometric oracles.  A custom schedule runs through ``spec.ProtocolSpec``.

Curves, maps and the equatorial root evaluate the uniform schedule's
transfer-matrix power, in O(log N) per node; only the trajectory surface,
which needs every step's Bloch point, runs the step loop.  Every public
entry runs the argument checks of ``protocol._kernel_args`` once, before
any arithmetic: a curve, a map and each winding read through the checked
``protocol._uniform_amplitudes``, and a transition search checks its
theta = pi/2, n_meas and w once and then calls the unchecked power
routine ``protocol._uniform_power`` with the one equatorial step at every
m it tries, all inside the checked span.  A curve and every map column go
through one refine-and-unwrap routine, which makes their kernel calls: one
checked call for the (theta, m) block, then one unchecked call per
insertion pass of each column that its vectorized unwrap leaves unsettled,
whose nodes are midpoints of checked ones.  A transition search locates the
equatorial sign change first and then reads its four winding curves in one
kernel call, at w = 0.5 (the windings do not depend on w), on a theta grid
clustered at the equator, where a curve near the critical strength turns:
its vectorized unwrap settles them with no insertion pass.  A curve that
does not unwrap is retried a hair farther from the critical strength.

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

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (AnalysisError, AntipodalError, DomainError,
                     TransitionNotFoundError, UnwrapError)
from .protocol import (_amplitudes_for_thetas, _kernel_args, _ReadOnlyArrays,
                       _uniform_amplitudes, _uniform_power, _uniform_step)
from .qutrit import _bloch_batch
from .spec import CONTRAST_FLOOR, Strength

DEFAULT_CURVE_NODES = 129
TRANSITION_CURVE_NODES = 65
#: Levels K of the transition grid's equator cluster, the nodes pi/2 +-
#: (pi/64) 2^-k for k = 1..K beside the TRANSITION_CURVE_NODES uniform
#: ones.  A winding curve near m* turns through pi within a theta width of
#: pi/2 that shrinks with |m - m*|; the cluster holds the nodes of that
#: turn, so a bracket-end curve needs no insertion pass.  Measured on
#: curves at m* +- 10^-j (N = 3 to 4096, j = 3 to 16): from K = 12 none
#: needs an insertion pass, levels beyond 24 unwrap no further curve, and
#: none reads a wrong winding, as the uniform grid alone does at 1e-12
#: below m*; the search time did not change with K from 8 to 28.
TRANSITION_EQUATOR_LEVELS = 24
MAX_CURVE_NODES = 4096
REFINE_DELTA = 0.5 * np.pi
FAIL_DELTA = np.pi - 1e-3
CHERN_RESIDUAL_TOL = 0.05
JUMP_TOL = 0.05
_ANTIPODAL_TOL = 1e-12


def wrap_angle(x):
    """Map angles to [-pi, pi)."""
    return np.mod(np.asarray(x, dtype=float) + np.pi, 2.0 * np.pi) - np.pi


def _distinct(values) -> np.ndarray:
    """Sorted distinct values as a flat float array, NaNs kept as one: what
    np.unique returns, without the numpy.ma import of its first call."""
    x = np.sort(np.asarray(values, dtype=float), axis=None)
    keep = np.empty(x.shape, dtype=bool)
    keep[:1] = True
    keep[1:] = (x[1:] != x[:-1]) & ~np.isnan(x[:-1])
    return x[keep]


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
class PhaseCurve(_ReadOnlyArrays):
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

    def at(self, theta_values) -> np.ndarray:
        """Indices of the given theta values in the curve grid."""
        idx = np.searchsorted(self.theta, theta_values)
        if np.any(idx >= len(self.theta)) or np.any(
                np.abs(self.theta[np.minimum(idx, len(self.theta) - 1)]
                       - theta_values) > 1e-12):
            raise DomainError("theta values not on the curve grid")
        return idx


@dataclass(frozen=True)
class _Refined:
    """``_refine``'s result: the nodes, their amplitudes, chi, whether the
    column unwraps, and the number of insertion passes, each one call of
    its ``evaluate``.  It unpacks to its first four fields, the column."""

    nodes: np.ndarray
    amps: np.ndarray
    chi: np.ndarray
    unwrappable: bool
    passes: int

    def __iter__(self):
        return iter((self.nodes, self.amps, self.chi, self.unwrappable))


def _refine(thetas: np.ndarray, amps: np.ndarray, evaluate) -> _Refined:
    """Bisect the intervals between defined nodes whose wrapped phase step
    reaches REFINE_DELTA, up to MAX_CURVE_NODES nodes, inserting only the
    midpoints that are not nodes yet; ``evaluate`` maps them to amplitudes.
    Returns the nodes, their amplitudes, chi (the last pass's steps summed
    over the defined nodes from 0, NaN where masked), whether every step
    stays below FAIL_DELTA and the number of passes that inserted nodes."""
    passes = 0
    while True:
        didx = np.flatnonzero(np.abs(amps) > CONTRAST_FLOOR)
        steps = wrap_angle(np.diff(np.angle(amps[didx])))
        wide = np.flatnonzero(np.abs(steps) >= REFINE_DELTA)
        mid = 0.5 * (thetas[didx[wide]] + thetas[didx[wide + 1]])
        # mid <= thetas[-1], so searchsorted always indexes a node
        new = mid[thetas[np.searchsorted(thetas, mid)] != mid]
        new = new[:max(MAX_CURVE_NODES - thetas.size, 0)]
        if not new.size:
            break
        order = np.argsort(np.concatenate([thetas, new]), kind="stable")
        thetas = np.concatenate([thetas, new])[order]
        amps = np.concatenate([amps, evaluate(new)])[order]
        passes += 1
    chi = np.full(thetas.shape, np.nan)
    if didx.size == 0:
        return _Refined(thetas, amps, chi, False, passes)
    chi[didx] = np.concatenate([[0.0], np.cumsum(steps)])
    return _Refined(thetas, amps, chi,
                    bool(np.all(np.abs(steps) < FAIL_DELTA)), passes)


class _Unwrapped(NamedTuple):
    """``_unwrap_columns``'s result: the wrapped and unwrapped phase and the
    contrast of a (theta, column) block at its nodes, each column's
    unwrappable flag, the columns left to ``_refine`` as {column: (nodes,
    amps, chi)} and that loop's kernel calls."""

    chi_wrapped: np.ndarray
    chi: np.ndarray
    contrast: np.ndarray
    unwrappable: np.ndarray
    refined: dict
    passes: int


def _unwrap_columns(thetas: np.ndarray, ms: np.ndarray, *, n_meas: int,
                    reference_weight: float) -> _Unwrapped:
    """Evaluate, refine and unwrap the uniform schedule's (theta, m) block
    at the ascending nodes ``thetas`` and the strengths ``ms``.

    One kernel call evaluates the block, and one vectorized pass then
    settles every column whose nodes are all defined and whose wrapped
    phase steps all lie strictly within +-REFINE_DELTA: the steps of
    np.angle along theta, wrapped, then summed by np.cumsum along axis 0,
    which adds in the order of ``_refine``'s 1-D sum, so a settled column
    equals its ``_refine`` result bit for bit.  Each other column (a wide
    step or a masked node) goes through ``_refine`` alone, evaluating its
    inserted nodes at its own m by the unchecked ``_uniform_power``: they
    are midpoints of the checked block's nodes, so they pass the same
    checks.  Its chi is read back at ``thetas``.
    Beyond its three float results, the pass allocates only boolean
    temporaries.

    The contrast is at most 2 sqrt(w (1 - w)); a reference weight that
    puts that bound at or below CONTRAST_FLOOR leaves no node defined and
    raises DomainError before the kernel call.
    """
    w = reference_weight
    # a weight outside (0, 1) is left to the kernel's own range check
    bound = 2.0 * np.sqrt(w * (1.0 - w)) if 0.0 < w < 1.0 else np.inf
    if bound <= CONTRAST_FLOOR:
        raise DomainError(
            f"reference_weight={w!r} bounds the contrast by 2*sqrt(w*(1-w)) "
            f"= {bound:.3g}, not above the contrast floor "
            f"{CONTRAST_FLOOR:g}: no phase is defined")
    amps = _uniform_amplitudes(thetas[:, None], ms, n_meas=n_meas,
                               reference_weight=reference_weight)
    contrast = np.abs(amps)
    chi_wrapped = np.angle(amps)
    steps = wrap_angle(np.diff(chi_wrapped, axis=0))
    unwrappable = (np.all(contrast > CONTRAST_FLOOR, axis=0)
                   & np.all(np.abs(steps) < REFINE_DELTA, axis=0))
    chi = np.concatenate([np.zeros_like(chi_wrapped[:1]),
                          np.cumsum(steps, axis=0)])
    refined = {}
    passes = 0
    for j in np.flatnonzero(~unwrappable).tolist():
        def column(nodes: np.ndarray, m=float(ms[j])):
            return _uniform_power(_uniform_step(nodes, n_meas), m, n_meas,
                                  reference_weight)

        col = _refine(thetas, amps[:, j], column)
        refined[j] = col.nodes, col.amps, col.chi
        unwrappable[j] = col.unwrappable
        passes += col.passes
        # refinement only inserts nodes, so the block's are found among them
        chi[:, j] = col.chi[np.searchsorted(col.nodes, thetas)]
    return _Unwrapped(chi_wrapped, chi, contrast, unwrappable, refined,
                      passes)


def _phase_curves(strengths, thetas: np.ndarray, *, n_meas: int,
                  reference_weight: float) -> list[PhaseCurve]:
    """phase_vs_theta's curves at several strengths, from one
    ``_unwrap_columns`` pass over the grid ``thetas`` (distinct, ascending,
    from 0); a curve masked at theta = 0 is returned, not raised on."""
    block = _unwrap_columns(thetas, np.array([s.m for s in strengths]),
                            n_meas=n_meas, reference_weight=reference_weight)
    curves = []
    for j, strength in enumerate(strengths):
        if j in block.refined:
            nodes, col_amps, chi = block.refined[j]
            wrapped, con = np.angle(col_amps), np.abs(col_amps)
        else:
            nodes, wrapped, chi, con = (thetas, block.chi_wrapped[:, j],
                                        block.chi[:, j], block.contrast[:, j])
        curves.append(PhaseCurve(
            theta=nodes, chi_wrapped=wrapped, chi=chi, contrast=con,
            defined=con > CONTRAST_FLOOR, strength=strength, n_meas=n_meas,
            reference_weight=reference_weight,
            unwrappable=bool(block.unwrappable[j])))
    return curves


def phase_vs_theta(strength: Strength, grid=None, *, n_meas: int = 6,
                   reference_weight: float = 0.5) -> PhaseCurve:
    """Evaluate chi(theta) on a grid, refining until it unwraps cleanly.

    The grid must start at theta = 0 (the unwrap anchor).  Intervals whose
    wrapped phase step exceeds pi/2 between adjacent defined nodes are
    bisected, up to MAX_CURVE_NODES total nodes, and each node is inserted
    once; nodes with contrast below CONTRAST_FLOOR (at the critical
    strength, the equator) are masked and bridged by their defined neighbors.
    The curve is the one-column case of the map's refine-and-unwrap pass.
    """
    if grid is None:
        grid = np.linspace(0.0, np.pi, DEFAULT_CURVE_NODES)
    thetas = _distinct(grid)
    if thetas.size < 2 or not abs(thetas[0]) <= 1e-15:
        raise DomainError("theta grid must start at 0 and have >= 2 nodes")
    thetas[0] = 0.0
    curve, = _phase_curves([strength], thetas, n_meas=n_meas,
                           reference_weight=reference_weight)
    if not curve.defined[0]:
        raise UnwrapError("cannot anchor: contrast at theta = 0 below floor")
    return curve


def chern_from_curve(curve: PhaseCurve) -> int:
    """Winding number (chi(pi) - chi(0)) / 2pi, rounded with a residual check."""
    if not curve.unwrappable:
        raise UnwrapError("winding number undefined: curve is not unwrappable")
    if not (abs(curve.theta[-1] - np.pi) <= 1e-12
            and abs(curve.theta[0]) <= 1e-15):
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


def trajectory_surface(strength: Strength, theta_grid=None, *, n_meas: int = 6,
                       reference_weight: float = 0.5):
    """Closed trajectory surface and its degree.

    The surface is swept by the per-latitude measurement loops (the N+1
    Bloch points, closed back to the initial meridian) over theta in
    [0, pi]; at the poles the loops pinch to points, closing the surface.
    The degree is the total signed area of their quad mesh over 4*pi, with
    quads oriented by ascending theta x ascending step (outward for a
    wrapping surface, so wrapping reads +1).

    The degree is read on the grid plus theta = pi/2, about which a surface
    near m* folds: a grid that steps over the fold can read it as a wrap.
    A near-duplicate node only adds quads of zero area.

    Returns (degree, thetas, vertices), the measured loops of the given
    grid with vertices of shape (n_theta, n_meas+1, 3).  Consecutive
    antipodal vertices on the mesh leave the geodesic between them
    undefined and raise AntipodalError naming the loop's theta and
    segment.  A projective surface at n_meas = 2
    raises it on any grid: its two axes are antipodal at theta = pi/2,
    where the first step annihilates the {e,f} component, so the surface
    does not close.
    """
    if not (0.0 <= strength.m < 1.0):
        raise DomainError("surface degree requires m in [0, 1)")
    if theta_grid is None:
        theta_grid = np.linspace(0.0, np.pi, 64)
    thetas = _distinct(theta_grid)
    if thetas.size < 33:
        raise DomainError("theta grid too coarse for a surface (need >= 33 nodes)")
    if not (abs(thetas[0]) <= 1e-12 and abs(thetas[-1] - np.pi) <= 1e-12):
        raise DomainError("theta grid must span [0, pi] to close the surface")
    thetas[0], thetas[-1] = 0.0, np.pi
    if strength.m == 0.0 and n_meas == 2:
        raise AntipodalError("consecutive measurement axes are antipodal",
                             theta=0.5 * np.pi, segment=0)

    mesh = _distinct(np.append(thetas, 0.5 * np.pi))
    vertices = _bloch_batch(_amplitudes_for_thetas(
        mesh, strength, n_meas=n_meas, reference_weight=reference_weight)[1])
    nxt = np.roll(vertices, -1, axis=1)
    bad = np.argwhere(np.sum(vertices * nxt, axis=2) <= -1.0 + _ANTIPODAL_TOL)
    if bad.size:
        i, j = bad[0]
        raise AntipodalError("antipodal geodesic endpoints on trajectory",
                             theta=float(mesh[i]), segment=int(j))
    a, b, c, d = vertices[:-1], vertices[1:], nxt[1:], nxt[:-1]
    total = (np.sum(_triangle_solid_angles(a, b, c))
             + np.sum(_triangle_solid_angles(a, c, d)))
    raw = total / (4.0 * np.pi)
    deg = int(np.rint(raw))
    residual = abs(raw - deg)
    if residual >= CHERN_RESIDUAL_TOL:
        raise AnalysisError(f"surface degree residual {residual:.3g} too large")
    return deg, thetas, vertices[np.searchsorted(mesh, thetas)]


def surface_degree(strength: Strength, theta_grid=None, *, n_meas: int = 6,
                   reference_weight: float = 0.5) -> int:
    """Degree of the closed trajectory surface (see trajectory_surface)."""
    return trajectory_surface(strength, theta_grid, n_meas=n_meas,
                              reference_weight=reference_weight)[0]


# ---------------------------------------------------------------------------
# Critical strength


@dataclass(frozen=True)
class TransitionReport:
    """Located topological transition.

    ``bracket`` is the final bisection interval in m, whose ends are checked
    to read winding ``chern_below`` and ``chern_above``; ``m_star`` is the
    root of the equatorial amplitude inside it and ``contrast_min`` the
    equatorial contrast there.  The counters record the work: ``curves``
    winding curves, 4 + ``nudge_retries`` (at 1e-3 and 0.999 and at the
    bracket ends, all four in one kernel call, and one per retry of a curve
    that did not unwrap, 1e-9 and then 1e-7 away from the other end of its
    pair), and ``root_calls`` kernel calls of the equatorial
    sign-change search over the whole interval, which stops once it has
    fixed the bracket, and of the root search inside the bracket.
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
#: kernel call narrows the sign-change bracket 128-fold.  Measured over the
#: 21 searches of the analytic-map pass (N = 3 to 24, tol 1e-6), with the
#: equator calling the unchecked power routine: 65, 129, 257 and 513 points
#: took 13.3-13.9, 12.5-13.0, 13.0-14.0 and 13.9-14.2 ms in three runs
#: (medians of 21 interleaved rounds), 33 and 1025 points 14.7-15.5 ms.
ROOT_SECTION = 129


def _sign_change(equator, lo: float, hi: float, a_lo: complex, a_hi: complex,
                 enough=None):
    """Sign change of f(m) = Re(a(m) * conj(a_lo)) in [lo, hi], narrowed
    until no float lies between the bracket ends, or until ``enough(lo,
    hi)`` holds.

    ``equator`` maps an array of m to the equatorial amplitudes, and
    f(lo) > 0 > f(hi) puts a sign change in the bracket.  Each pass
    evaluates the interior of a ROOT_SECTION-point section in one call and
    keeps the first interval over which f leaves the sign of f(lo), so the
    final lower end lies in every bracket it passes through.  When f never
    changes sign (N <= 2, where the winding does not flip), every pass
    keeps the last interval, so the bracket walks to the upper end; the
    search's windings at 1e-3 and 0.999 then raise the same
    TransitionNotFoundError as without the scan.  Returns the last
    bracket's ends, their amplitudes and the number of calls.
    """
    ref = np.conj(a_lo)
    calls = 0
    while True:
        if enough is not None and enough(lo, hi):
            return lo, hi, a_lo, a_hi, calls
        ms = _distinct(np.linspace(lo, hi, ROOT_SECTION))
        if ms.size <= 2:
            return lo, hi, a_lo, a_hi, calls
        inner = equator(ms[1:-1])
        calls += 1
        flipped = np.flatnonzero((inner * ref).real <= 0.0)
        j = flipped[0] + 1 if flipped.size else ms.size - 1
        amps = np.concatenate([[a_lo], inner, [a_hi]])
        lo, hi = float(ms[j - 1]), float(ms[j])
        a_lo, a_hi = complex(amps[j - 1]), complex(amps[j])


def _equator_root(equator, lo: float, hi: float, a_lo: complex,
                  a_hi: complex):
    """The end of ``_sign_change``'s final bracket with the smaller
    contrast, its amplitude and the number of calls."""
    lo, hi, a_lo, a_hi, calls = _sign_change(equator, lo, hi, a_lo, a_hi)
    if abs(a_lo) <= abs(a_hi):
        return lo, a_lo, calls
    return hi, a_hi, calls


#: The strengths whose windings the transition search compares.
_SEARCH_SPAN = (1e-3, 1.0 - 1e-3)


def _bisection_cell(m: float, tol: float) -> tuple[float, float]:
    """The interval within tol that halving _SEARCH_SPAN toward m reaches,
    a midpoint at or below m becoming the lower end."""
    lo, hi = _SEARCH_SPAN
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= m:
            lo = mid
        else:
            hi = mid
    return lo, hi


def _one_cell(lo: float, hi: float, tol: float) -> bool:
    """Whether every m in [lo, hi) falls in one ``_bisection_cell``: the
    sign change's final lower end lies there, so its cell is then fixed."""
    return (_bisection_cell(lo, tol)
            == _bisection_cell(np.nextafter(hi, 0.0), tol))


def _windings(ms, n_meas: int):
    """Yield the winding of the curve at each strength of ``ms``, in order,
    with the number of retries it took.

    ``ms`` lists (lower end, upper end) pairs.  One kernel call evaluates
    every curve, at w = 0.5: chi, the phase of 2 sqrt(w (1 - w)) [K^N]_EE,
    does not depend on w, but the absolute CONTRAST_FLOOR masks nodes where
    that factor is tiny.  The theta grid is TRANSITION_CURVE_NODES uniform
    nodes, which hold the turns of the curves at 1e-3 and 0.999, and the
    equator cluster of TRANSITION_EQUATOR_LEVELS, which holds the steep
    turn of a bracket-end curve within tol of m*, so the vectorized unwrap
    settles such a curve without an insertion pass.  A curve that does not
    unwrap is retried alone 1e-9, then 1e-7 away from its pair's other end,
    a lower end down and an upper end up, so a retry never crosses a root
    that lies between the two ends.
    """
    offsets = (np.pi / (TRANSITION_CURVE_NODES - 1)
               * 2.0 ** -np.arange(1, TRANSITION_EQUATOR_LEVELS + 1))
    curves = functools.partial(_phase_curves, thetas=_distinct(np.concatenate([
        np.linspace(0.0, np.pi, TRANSITION_CURVE_NODES),
        0.5 * np.pi - offsets, 0.5 * np.pi + offsets])), n_meas=n_meas,
        reference_weight=0.5)
    for j, curve in enumerate(curves([Strength(m) for m in ms])):
        for retries, nudge in enumerate((1e-9, 1e-7, None)):
            try:
                chern = chern_from_curve(curve)
                break
            except UnwrapError:
                if nudge is None:
                    raise UnwrapError(
                        f"curve not unwrappable near m={ms[j]!r}") from None
            curve, = curves([Strength(ms[j] + (-1.0, 1.0)[j % 2] * nudge)])
        yield chern, retries


def find_critical_strength(n_meas: int = 6, reference_weight: float = 0.5,
                           tol: float = 1e-4) -> TransitionReport:
    """Bisect the winding-number flip in m on the sign of the equatorial
    amplitude, then find that amplitude's root inside the final bracket.

    The winding can change only where the equatorial amplitude vanishes,
    so the bisection halves [1e-3, 0.999] by the side of the sign change of
    its projection onto its value at 1e-3, instead of by a winding curve
    per halving.  That sign change is narrowed only until every m in its
    bracket falls in one ``_bisection_cell``, the bracket that the sign
    change located to adjacent floats would give.  Then ``_windings`` reads
    the curves at 1e-3 and 0.999 and at the bracket's two ends in one
    kernel call: 1e-3 and 0.999 must give two windings, and the bracket's
    lower end and then its upper end must read them, each checked before
    the next is read.  The equatorial phase must jump by pi (within
    JUMP_TOL) across the bracket, so the projection onto its value at the
    bracket's lower end changes sign there; the critical strength is that
    sign change, resolved to adjacent floats (for the uniform schedule the
    amplitude is real and this is its root).
    """
    if not tol >= 1e-6:
        raise DomainError(f"tol={tol!r} below the supported resolution 1e-6")
    if not np.isfinite(tol):
        raise DomainError(f"tol={tol!r} must be finite")
    # checked once here: every m that equator is given lies in the span
    thetas, span = _kernel_args(np.array([0.5 * np.pi]),
                                np.array(_SEARCH_SPAN), n_meas,
                                reference_weight)
    equator = functools.partial(_uniform_power, _uniform_step(thetas, n_meas),
                                n_meas=n_meas,
                                reference_weight=reference_weight)
    b_lo, *_, scan_calls = _sign_change(
        equator, *_SEARCH_SPAN, *equator(span),
        enough=functools.partial(_one_cell, tol=tol))
    lo, hi = _bisection_cell(b_lo, tol)
    windings = _windings([*_SEARCH_SPAN, lo, hi], n_meas)
    (c_lo, r_lo), (c_hi, r_hi) = next(windings), next(windings)
    if c_lo == c_hi:
        raise TransitionNotFoundError(
            f"no winding flip in {_SEARCH_SPAN}: both ends give {c_lo}")
    retries = r_lo + r_hi
    for m, expected, (found, tries) in zip((lo, hi), (c_lo, c_hi), windings):
        if found != expected:
            raise AnalysisError(f"winding {found} at bracket end m={m!r}, "
                                f"not {expected}")
        retries += tries

    a_lo, a_hi = equator(np.array([lo, hi]))
    jump = float(abs(wrap_angle(np.angle(a_hi) - np.angle(a_lo))))
    if abs(jump - np.pi) > JUMP_TOL:
        raise AnalysisError(
            f"equatorial phase jump {jump:.4f} not within {JUMP_TOL} of pi")
    m_star, a_star, root_calls = _equator_root(equator, lo, hi, a_lo, a_hi)
    return TransitionReport(m_star=Strength(m_star), bracket=(lo, hi),
                            contrast_min=abs(a_star), chern_below=c_lo,
                            chern_above=c_hi, jump_at_equator=jump,
                            curves=4 + retries, nudge_retries=retries,
                            root_calls=scan_calls + root_calls)


# ---------------------------------------------------------------------------
# Dense maps


@dataclass(frozen=True)
class PhaseMap(_ReadOnlyArrays):
    """chi and contrast over a theta x strength grid.

    Matrices are indexed [theta, strength]; ``chi_unwrapped`` is unwrapped
    along theta per strength column (anchored at theta = 0), NaN where the
    contrast is below the floor.  ``column_unwrappable`` flags columns whose
    unwrap is trustworthy.  The counters record the unwrap's work:
    ``columns_refined`` columns that the vectorized pass left to the
    insertion loop (a wide step or a masked node), ``nodes_inserted`` nodes
    that loop added over all of them, and ``refine_passes`` its kernel calls.
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
    columns_refined: int
    nodes_inserted: int
    refine_passes: int

    @property
    def n_cells(self) -> int:
        return int(self.theta_grid.size * self.strength_grid.size)


def sweep_phase_map(theta_grid, strength_grid, *, n_meas: int = 6,
                    reference_weight: float = 0.5,
                    workers: int = 1) -> PhaseMap:
    """Dense (theta, m) evaluation with per-column unwrapping.

    The whole grid, plus the theta = 0 anchor, is one kernel call, and the
    whole block then goes through phase_vs_theta's refine-and-unwrap pass:
    one vectorized unwrap settles every column that needs no node, and
    only the others are refined, each evaluating only the nodes it inserts,
    so every column equals its curve on the grid nodes.  ``workers`` has
    no effect; it is kept only for callers that still pass it (the
    benchmark's analytic-map workload).
    """
    thetas = _distinct(theta_grid)
    ms = np.asarray(strength_grid, dtype=float)
    base = _distinct(np.concatenate([[0.0], thetas]))
    block = _unwrap_columns(base, ms, n_meas=n_meas,
                            reference_weight=reference_weight)
    # the kernel accepted thetas in [0, pi], so base is thetas, or 0 and them
    rows = slice(base.size - thetas.size, None)
    con = block.contrast[rows]
    return PhaseMap(theta_grid=thetas, strength_grid=ms,
                    chi_wrapped=block.chi_wrapped[rows],
                    chi_unwrapped=block.chi[rows], contrast=con,
                    defined=con > CONTRAST_FLOOR,
                    column_unwrappable=block.unwrappable, n_meas=n_meas,
                    reference_weight=reference_weight,
                    columns_refined=len(block.refined),
                    nodes_inserted=sum(nodes.size - base.size for nodes, _, _
                                       in block.refined.values()),
                    refine_passes=block.passes)
