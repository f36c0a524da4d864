"""The transition search, stated once, and its route on Python numbers.
Nothing here imports numpy.

The winding of chi(theta) over [0, pi] flips from 1 to 0 at the critical
strength m*, where the equatorial amplitude vanishes and its phase jumps
by pi.  ``_search`` is the one statement of how it is located and
checked: the argument rules, the root of the equatorial amplitude from
its closed form (``spec._equatorial_root``), the bracket that halving
``_SEARCH_SPAN`` toward it reaches (``_bisection_cell``), the windings
read in order at the span's ends and at the bracket's, each curve that
does not unwrap retried a hair farther from m* (``_windings``), the pi
jump of the equatorial phase across the bracket and, of the root's two
floats, the one of the smaller contrast.

Two routes feed it the same two readers, of the winding curves and of
the equatorial amplitude.  ``analysis.find_critical_strength`` reads them
on numpy, by the batched kernel and the vectorized unwrap; it is the
library's entry and the tests' reference.  ``scalar_search``, which
``geophase transition`` runs, reads them here on Python complex numbers:
the squaring of ``protocol._uniform_power`` (``_scalar_power``) and the
unwrap of ``analysis._refine`` (``_scalar_refine``), its insertion pass
included.  Both read their curves on the grid ``_winding_thetas``, at
w = 0.5 (the windings do not depend on w, but the absolute CONTRAST_FLOOR
masks nodes where 2 sqrt(w (1 - w)) is tiny).  Their amplitudes differ in
the last bits only, within about N eps, so the reports agree but for the
fields that round an amplitude: ``contrast_min``, ``jump_at_equator`` and,
where the root's two floats have contrasts that close, ``m_star``.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

from .errors import (AnalysisError, DomainError, TransitionNotFoundError,
                     UnwrapError)
from .spec import CONTRAST_FLOOR, Strength, _equatorial_root, _run_args, _steps

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
REFINE_DELTA = 0.5 * math.pi
FAIL_DELTA = math.pi - 1e-3
CHERN_RESIDUAL_TOL = 0.05
JUMP_TOL = 0.05

#: The strengths whose windings the transition search compares.
_SEARCH_SPAN = (1e-3, 1.0 - 1e-3)

#: How far a curve that does not unwrap is moved, in turn, before the
#: search gives up on it.
_NUDGES = (1e-9, 1e-7)


@dataclass(frozen=True)
class TransitionReport:
    """Located topological transition.

    ``bracket`` is the final bisection interval in m, whose ends are checked
    to read winding ``chern_below`` and ``chern_above``; ``m_star`` is the
    root of the equatorial amplitude inside it and ``contrast_min`` the
    equatorial contrast there.  The counters record the work: ``curves``
    winding curves, 4 + ``nudge_retries`` (at 1e-3 and 0.999 and at the
    bracket ends, and one per retry of a curve that did not unwrap, 1e-9
    and then 1e-7 away from the other end of its pair), and ``root_calls``
    evaluations of the closed-form g of ``spec._equatorial_g`` that bisect
    its root to adjacent floats (54 to 56 for N from 3 to 4096, whatever w
    and tol).
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


def _winding_thetas(nodes: int, levels: int) -> list[float]:
    """The theta grid of the winding curves, ascending: ``nodes`` uniform
    nodes on [0, pi], by np.linspace's arithmetic, and the equator cluster
    pi/2 +- (pi / (nodes - 1)) 2^-k for k = 1 .. ``levels``."""
    step = math.pi / (nodes - 1)
    offsets = [step * 2.0 ** -k for k in range(1, levels + 1)]
    return sorted({*(k * step for k in range(nodes - 1)), math.pi,
                   *(0.5 * math.pi - d for d in offsets),
                   *(0.5 * math.pi + d for d in offsets)})


def _wrap(x: float) -> float:
    """``analysis.wrap_angle`` of one float: x mapped to [-pi, pi)."""
    return (x + math.pi) % (2.0 * math.pi) - math.pi


def _round_winding(span: float) -> int:
    """The winding ``span`` = (chi(pi) - chi(0)) / 2pi rounded, half to
    even, after a residual check."""
    c = round(span)
    residual = abs(span - c)
    if residual >= CHERN_RESIDUAL_TOL:
        raise AnalysisError(
            f"winding residual {residual:.3g} exceeds {CHERN_RESIDUAL_TOL}")
    return c


def _windings(ms, read_windings, n_meas: int):
    """Yield the winding of the curve at each strength of ``ms``, in order,
    with the number of retries it took.

    ``ms`` lists (lower end, upper end) pairs.  ``read_windings(ms,
    n_meas)`` returns one function per strength, which reads that curve's
    winding or raises UnwrapError.  A curve that does not unwrap is read
    again alone, 1e-9, then 1e-7 away from its pair's other end, a lower
    end down and an upper end up, so a retry never crosses a root that
    lies between the two ends.
    """
    for j, winding in enumerate(read_windings(ms, n_meas)):
        for retries, nudge in enumerate((*_NUDGES, None)):
            try:
                chern = winding()
                break
            except UnwrapError:
                if nudge is None:
                    raise UnwrapError(
                        f"curve not unwrappable near m={ms[j]!r}") from None
            winding, = read_windings([ms[j] + (-1.0, 1.0)[j % 2] * nudge],
                                     n_meas)
        yield chern, retries


def _search(n_meas: int, reference_weight: float, tol: float,
            read_windings, equator) -> TransitionReport:
    """Locate the winding-number flip in m at the root of the equatorial
    amplitude, and check it on winding curves and on the amplitude.

    The winding can change only where the equatorial amplitude vanishes.
    For the uniform schedule that amplitude is a closed form in m
    (``spec._equatorial_g``), whose sign change on [1e-3, 0.999] is
    bisected to adjacent floats first.  The bracket is the
    ``_bisection_cell`` of its lower end, the interval of width at most
    tol that halving [1e-3, 0.999] reaches.  Then ``_windings`` reads the
    curves at 1e-3 and 0.999 and at the bracket's two ends by
    ``read_windings``: 1e-3 and 0.999 must give two windings, and the
    bracket's lower end and then its upper end must read them, each
    checked before the next is read.  ``equator(ms, n_meas,
    reference_weight)`` returns the (phase, contrast) of the equatorial
    amplitude at the bracket's ends, whose phase must jump by pi (within
    JUMP_TOL), and at the two floats of the closed-form root, of which the
    critical strength is the one with the smaller contrast.

    The arguments are checked once, here, before any reader is called:
    tol, then ``spec._run_args`` on n_meas and w; every m a reader is
    given lies in [0, 1].
    """
    if not tol >= 1e-6:
        raise DomainError(f"tol={tol!r} below the supported resolution 1e-6")
    if not math.isfinite(tol):
        raise DomainError(f"tol={tol!r} must be finite")
    _run_args(n_meas, reference_weight)
    r_lo, r_hi, evaluations = _equatorial_root(n_meas, *_SEARCH_SPAN)
    lo, hi = _bisection_cell(r_lo, tol)
    windings = _windings([*_SEARCH_SPAN, lo, hi], read_windings, n_meas)
    (c_lo, tries_lo), (c_hi, tries_hi) = next(windings), next(windings)
    if c_lo == c_hi:
        raise TransitionNotFoundError(
            f"no winding flip in {_SEARCH_SPAN}: both ends give {c_lo}")
    retries = tries_lo + tries_hi
    for m, expected, (found, tries) in zip((lo, hi), (c_lo, c_hi), windings):
        if found != expected:
            raise AnalysisError(f"winding {found} at bracket end m={m!r}, "
                                f"not {expected}")
        retries += tries

    (phase_lo, _), (phase_hi, _), *roots = equator(
        [lo, hi, r_lo, r_hi], n_meas, reference_weight)
    jump = abs(_wrap(phase_hi - phase_lo))
    if abs(jump - math.pi) > JUMP_TOL:
        raise AnalysisError(
            f"equatorial phase jump {jump:.4f} not within {JUMP_TOL} of pi")
    # the root float of the smaller contrast, r_lo on a tie
    contrast, m_star = min((c, m) for (_, c), m in zip(roots, (r_lo, r_hi)))
    return TransitionReport(m_star=Strength(m_star), bracket=(lo, hi),
                            contrast_min=contrast, chern_below=c_lo,
                            chern_above=c_hi, jump_at_equator=jump,
                            curves=4 + retries, nudge_retries=retries,
                            root_calls=evaluations)


# ---------------------------------------------------------------------------
# The route on Python numbers


def _scalar_step(theta: float, n_meas: int):
    """``protocol._uniform_step`` at one theta: the first triple of
    ``spec._steps`` for one azimuth step of -2*pi/N."""
    half = 0.5 * theta
    return next(_steps(math.cos(half), math.sin(half),
                       (-2.0 * math.pi / n_meas,)))


def _scalar_power(step, m: float, n_meas: int, reference_weight: float):
    """``protocol._uniform_power`` at one step triple and one m, on Python
    complex numbers: 2 sqrt(w (1 - w)) [K^N]_EE by the same squaring, in
    the same order of operations."""
    s_ff, s_fe, s_ee = step
    k_ff, k_fe, k_ee = m * s_ff, math.sqrt(m) * s_fe, s_ee
    v_f = v_e = None
    n = n_meas
    while True:
        if n & 1:
            if v_f is None:
                v_f, v_e = k_fe, k_ee
            else:
                v_f, v_e = v_f * k_ff + k_fe * v_e, v_e * k_ee + k_fe * v_f
        n >>= 1
        if not n:
            break
        b = k_fe * k_fe
        k_fe *= k_ff + k_ee
        k_ff = k_ff * k_ff + b
        k_ee = k_ee * k_ee + b
    w = reference_weight
    return v_e * (2.0 * math.sqrt(w * (1.0 - w)))


def _scalar_refine(thetas, amps, evaluate):
    """``analysis._refine`` on Python sequences: bisect the intervals between
    defined nodes whose wrapped phase step reaches REFINE_DELTA, up to
    MAX_CURVE_NODES nodes, inserting only the midpoints that are not nodes
    yet; ``evaluate`` maps them to amplitudes.  Returns the nodes, their
    amplitudes, chi(pi) (None unless both ends are defined) and whether
    every step stays below FAIL_DELTA."""
    while True:
        defined = [k for k, a in enumerate(amps) if abs(a) > CONTRAST_FLOOR]
        phases = [cmath.phase(amps[k]) for k in defined]
        steps = [_wrap(b - a) for a, b in zip(phases, phases[1:])]
        mids = (0.5 * (thetas[defined[k]] + thetas[defined[k + 1]])
                for k, step in enumerate(steps) if abs(step) >= REFINE_DELTA)
        nodes = set(thetas)
        new = [mid for mid in mids if mid not in nodes]
        new = new[:max(MAX_CURVE_NODES - len(thetas), 0)]
        if not new:
            break
        merged = sorted(zip([*thetas, *new], [*amps, *evaluate(new)]),
                        key=lambda node: node[0])
        thetas, amps = [t for t, _ in merged], [a for _, a in merged]
    # chi sums the steps from theta = 0 in order, as np.cumsum does
    chi = None
    if defined and defined[0] == 0 and defined[-1] == len(thetas) - 1:
        chi = 0.0
        for step in steps:
            chi += step
    return (thetas, amps, chi,
            bool(defined) and all(abs(step) < FAIL_DELTA for step in steps))


def _scalar_curve(thetas, steps, m: float, n_meas: int):
    """``_scalar_refine`` of the winding curve at m, w = 0.5, on the nodes
    ``thetas`` whose step triples are ``steps``."""
    def evaluate(new):
        return [_scalar_power(_scalar_step(t, n_meas), m, n_meas, 0.5)
                for t in new]

    return _scalar_refine(
        thetas, [_scalar_power(s, m, n_meas, 0.5) for s in steps], evaluate)


def _scalar_winding(thetas, steps, m: float, n_meas: int) -> int:
    """The winding of ``_scalar_curve``, by ``analysis.chern_from_curve``'s
    rules."""
    _, _, chi, unwrappable = _scalar_curve(thetas, steps, m, n_meas)
    if not unwrappable:
        raise UnwrapError("winding number undefined: curve is not unwrappable")
    if chi is None:
        raise UnwrapError("winding number undefined: masked endpoint")
    return _round_winding(chi / (2.0 * math.pi))


@functools.lru_cache(maxsize=1)
def _scalar_grid(n_meas: int) -> tuple[tuple, tuple]:
    """The winding grid and its step triples at n_meas, made once and
    shared by every curve of a search."""
    thetas = _winding_thetas(TRANSITION_CURVE_NODES, TRANSITION_EQUATOR_LEVELS)
    return tuple(thetas), tuple(_scalar_step(t, n_meas) for t in thetas)


def _scalar_windings(ms, n_meas: int) -> list:
    """``_search``'s winding reader on Python numbers."""
    thetas, steps = _scalar_grid(n_meas)
    return [functools.partial(_scalar_winding, thetas, steps, m, n_meas)
            for m in ms]


def _scalar_equator(ms, n_meas: int, reference_weight: float) -> list:
    """``_search``'s equator reader on Python numbers: the (phase,
    contrast) of the amplitude at theta = pi/2 at each m of ``ms``."""
    step = _scalar_step(0.5 * math.pi, n_meas)
    amps = [_scalar_power(step, m, n_meas, reference_weight) for m in ms]
    return [(cmath.phase(a), abs(a)) for a in amps]


def scalar_search(n_meas: int = 6, reference_weight: float = 0.5,
                  tol: float = 1e-4) -> TransitionReport:
    """``analysis.find_critical_strength`` on Python numbers, without
    numpy: the same ``_search`` fed the readers of this module."""
    return _search(n_meas, reference_weight, tol, _scalar_windings,
                   _scalar_equator)
