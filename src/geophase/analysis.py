"""Phase-map analysis of the uniform schedule (unwrapped curves, winding
numbers, surface degree, critical-strength location) and the independent
geometric oracles.  A custom schedule runs through ``spec.ProtocolSpec``.

Curves, maps and the equatorial amplitude evaluate the uniform schedule's
transfer-matrix power, in O(log N) per node; only the trajectory surface,
which needs every step's Bloch point, runs the step loop.  Every public
entry runs the argument checks of ``protocol._kernel_args`` once, before
any arithmetic: a curve, a map and each winding read through the checked
``protocol._uniform_amplitudes``.  A curve and every map column go
through one refine-and-unwrap routine, which makes their kernel calls:
one checked call for the (theta, m) block, then one unchecked call per
insertion pass of each column that its vectorized unwrap leaves
unsettled, whose nodes are midpoints of checked ones.

The transition search is stated once, in :mod:`geophase.transition`,
which checks its arguments, takes the root of the equatorial amplitude
from its closed form and gates the windings and the pi jump;
``find_critical_strength`` feeds it the readers of this module.  They
read the four winding curves in one kernel call, at w = 0.5 (the
windings do not depend on w), on a theta grid clustered at the equator,
where a curve near the critical strength turns, so that the vectorized
unwrap settles them with no insertion pass, and the equatorial amplitude
at four m in [0, 1] in one call of the unchecked
``protocol._uniform_power``.  ``geophase transition`` runs
the same search with readers on Python numbers, which load no numpy.

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

from .errors import AnalysisError, AntipodalError, DomainError, UnwrapError
from . import transition
from .protocol import (_amplitudes_for_thetas, _bloch_batch, _ReadOnlyArrays,
                       _uniform_amplitudes, _uniform_power, _uniform_step)
from .spec import CONTRAST_FLOOR, Strength
# the transition search's constants, report and bisection cell are
# defined in transition and still importable from here
from .transition import (CHERN_RESIDUAL_TOL, FAIL_DELTA, JUMP_TOL,
                         MAX_CURVE_NODES, REFINE_DELTA, TRANSITION_CURVE_NODES,
                         TRANSITION_EQUATOR_LEVELS, TransitionReport,
                         _bisection_cell, _round_winding, _SEARCH_SPAN,
                         _winding_thetas)

DEFAULT_CURVE_NODES = 129
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
    return _round_winding(float(curve.chi[-1] - curve.chi[0]) / (2.0 * np.pi))


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


@functools.lru_cache(maxsize=None)
def _winding_grid(nodes: int, levels: int) -> np.ndarray:
    """``transition._winding_thetas`` as a read-only array."""
    grid = np.array(_winding_thetas(nodes, levels))
    grid.setflags(write=False)
    return grid


def _winding_reads(ms, n_meas: int) -> list:
    """The transition search's winding reader on numpy: every curve of
    ``ms`` in one ``_phase_curves`` pass at w = 0.5 on the theta grid
    ``_winding_grid``, whose equator cluster holds the steep turn of a
    bracket-end curve within tol of m*, so the vectorized unwrap settles
    it without an insertion pass; each winding is read by
    ``chern_from_curve`` when asked for."""
    curves = _phase_curves(
        [Strength(m) for m in ms],
        _winding_grid(TRANSITION_CURVE_NODES, TRANSITION_EQUATOR_LEVELS),
        n_meas=n_meas, reference_weight=0.5)
    return [functools.partial(chern_from_curve, c) for c in curves]


def _equator_reads(ms, n_meas: int, reference_weight: float) -> list:
    """The transition search's equator reader on numpy: one call of the
    unchecked ``_uniform_power`` at theta = pi/2 and every m of ``ms``, and
    the (phase, contrast) of each amplitude."""
    amps = _uniform_power(_uniform_step(np.array([0.5 * np.pi]), n_meas),
                          np.array(ms), n_meas, reference_weight)
    return [(float(np.angle(a)), abs(complex(a))) for a in amps]


def find_critical_strength(n_meas: int = 6, reference_weight: float = 0.5,
                           tol: float = 1e-4) -> TransitionReport:
    """Locate the winding-number flip in m at the root of the equatorial
    amplitude, and check it on winding curves and on the kernel: the one
    search of ``transition._search``, which checks the arguments once,
    fed the numpy readers ``_winding_reads`` (four curves in one kernel
    call) and ``_equator_reads`` (the bracket's ends and the root's two
    floats in another).  ``geophase transition`` runs the same search on
    Python numbers (``transition.scalar_search``).
    """
    return transition._search(n_meas, reference_weight, tol, _winding_reads,
                              _equator_reads)


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
    so every column equals its curve on the grid nodes.  The strength grid
    must be a non-empty 1-D array, one m per column; anything else raises
    DomainError before the kernel call.  ``workers`` has no effect; it is
    kept only for callers that still pass it (the benchmark's analytic-map
    workload).
    """
    ms = np.asarray(strength_grid, dtype=float)
    if ms.ndim != 1 or ms.size == 0:
        raise DomainError(f"strength grid must be a non-empty 1-D array, "
                          f"got shape {ms.shape}")
    thetas = _distinct(theta_grid)
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
