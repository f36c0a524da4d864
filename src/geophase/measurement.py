"""Gaussian-readout measurement model for the f-selective probe.

A single probe resolves ``|f>`` against the degenerate pair {``|e>``,
``|g>``} and is fully characterized by one number, the null-outcome
attenuation ``m`` of the f amplitude:

    m = exp(-gamma*tau) = exp(-(r0/sigma)^2 / 4),

where ``gamma*tau`` is the integrated dephasing between f and the other
levels and ``r0/sigma`` the cloud separation of the readout in units of
the per-cloud width.  ``m = 0`` is a projective measurement, ``m = 1``
no measurement.  ``Strength``, which holds m, is defined in
:mod:`geophase.spec`, which loads no numpy, and is importable from here.

The readout coordinate is reduced to one dimension along the line joining
the cloud centers (the physics depends only on the Gaussian overlap; the
two-dimensional quadrature-plane picture is equivalent).  In these units
the amplitude profiles are

    Psi(r)  = (2*pi)**-0.25 * exp(-r**2 / 4)          for |e>, |g>,
    Psit(r) = (2*pi)**-0.25 * exp(-(r - r0)**2 / 4)   for |f>,

so |Psi|^2 and |Psit|^2 are proper unit-variance densities and the
separation r0 = sqrt(-8 ln m) realizes the overlap contract
``integral Psi Psit dr = m``.  The Kraus amplitudes are real: there is no
informational phase backaction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, QuadratureError
from .qutrit import F, Operator3, QutritState
from .spec import Strength

DEFAULT_QUADRATURE_NODES = 64
QUADRATURE_RESIDUAL_TOL = 1e-8
_GAUSS_NORM = (2.0 * np.pi) ** -0.25


def cloud_separation(s: Strength) -> float:
    """Readout cloud separation r0 in this module's unit-variance units."""
    return float(np.sqrt(8.0 * s.gamma_tau))


def kraus_null(s: Strength) -> Operator3:
    """Effective null-outcome operator diag(m, 1, 1): attenuate f, keep e and g."""
    return Operator3(np.diag([s.m, 1.0, 1.0]).astype(complex))


def gauss_amplitudes(s: Strength, r):
    """Amplitude pair (Psit(r), Psi(r)) of the readout Kraus operator.

    Vectorized over r.  Requires m > 0 (a projective probe has no
    finite-separation Gaussian model; use kraus_null).
    """
    if s.is_projective:
        raise DomainError("readout Kraus undefined at m = 0; use kraus_null")
    r = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(r)):
        raise DomainError("readout sample must be finite")
    r0 = cloud_separation(s)
    psit = _GAUSS_NORM * np.exp(-0.25 * (r - r0) ** 2)
    psi = _GAUSS_NORM * np.exp(-0.25 * r ** 2)
    return psit, psi


def kraus_readout(s: Strength, r: float) -> Operator3:
    """Outcome-resolved Kraus operator diag(Psit(r), Psi(r), Psi(r))."""
    psit, psi = gauss_amplitudes(s, float(r))
    return Operator3(np.diag([psit, psi, psi]).astype(complex))


@lru_cache(maxsize=1)
def readout_quadrature():
    """Nodes and weights with sum(w_i * f(r_i)) ~ integral f(r) dr.

    Gauss-Hermite rescaled to the unit-variance clouds used here; exact for
    f = (Gaussian of variance 1 centered anywhere reachable) x polynomial.
    """
    x, w = np.polynomial.hermite.hermgauss(DEFAULT_QUADRATURE_NODES)
    r = np.sqrt(2.0) * x
    wt = np.sqrt(2.0) * w * np.exp(x ** 2)
    r.setflags(write=False)
    wt.setflags(write=False)
    return r, wt


def completeness_residual(s: Strength) -> float:
    """Max entrywise residual of integral M(r)^dag M(r) dr against the identity."""
    r, wt = readout_quadrature()
    psit, psi = gauss_amplitudes(s, r)
    ff = float(np.sum(wt * psit ** 2))
    ee = float(np.sum(wt * psi ** 2))
    return max(abs(ff - 1.0), abs(ee - 1.0))


def effective_kraus_from_integral(s: Strength) -> Operator3:
    """Numerically evaluate integral Psi*(r) M(r) dr.

    This is the reference-amplitude-weighted readout average; it must
    reproduce kraus_null(s), which is what callers verify.  The e/g entries
    have the exactly known value 1, so they double as an internal
    convergence check: a QuadratureError (with the residual) is raised if
    they miss it by more than QUADRATURE_RESIDUAL_TOL.
    """
    r, wt = readout_quadrature()
    psit, psi = gauss_amplitudes(s, r)
    ff = float(np.sum(wt * psi * psit))
    ee = float(np.sum(wt * psi * psi))
    residual = abs(ee - 1.0)
    if residual > QUADRATURE_RESIDUAL_TOL:
        raise QuadratureError(
            f"readout quadrature with {DEFAULT_QUADRATURE_NODES} nodes did "
            "not converge", residual)
    return Operator3(np.diag([ff, ee, ee]).astype(complex))


def _ncdf(x: np.ndarray) -> np.ndarray:
    """Unit Gaussian CDF, erfc(-x / sqrt(2)) / 2, one value at a time: its
    callers pass a handful of histogram edges."""
    return np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x.flat],
                    dtype=float).reshape(x.shape)


@dataclass(frozen=True)
class ReadoutDistribution:
    """Two-component Gaussian mixture of the readout coordinate.

    ``p_f`` weights the displaced cloud at ``separation``; both clouds have
    unit variance.
    """

    p_f: float
    separation: float

    def pdf(self, r):
        r = np.asarray(r, dtype=float)
        norm = 1.0 / np.sqrt(2.0 * np.pi)
        return (self.p_f * norm * np.exp(-0.5 * (r - self.separation) ** 2)
                + (1.0 - self.p_f) * norm * np.exp(-0.5 * r ** 2))

    def cdf(self, r):
        r = np.asarray(r, dtype=float)
        return (self.p_f * _ncdf(r - self.separation)
                + (1.0 - self.p_f) * _ncdf(r))

    def mean(self) -> float:
        return self.p_f * self.separation


def readout_pdf(state: QutritState, s: Strength) -> ReadoutDistribution:
    """Probability distribution of a single readout on ``state``.

    ``state`` must be normalized: the mixture weight of the displaced cloud
    is the f population |a_f|^2.
    """
    if abs(state.norm - 1.0) > 1e-10:
        raise DomainError("readout_pdf requires a normalized state")
    if s.is_projective:
        raise DomainError("readout pdf undefined at m = 0")
    return ReadoutDistribution(p_f=float(abs(state.vec[F]) ** 2),
                               separation=cloud_separation(s))
