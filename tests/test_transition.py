"""The transition search's two routes: ``analysis.find_critical_strength``
on numpy and ``transition.scalar_search`` on Python numbers, which
``geophase transition`` runs, agree on the 576 cases of
``scripts/transition_grid.py``, and their parts agree with each other."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from geophase import analysis as an
from geophase import transition as tr
from geophase.errors import TransitionNotFoundError
from geophase.protocol import _uniform_power, _uniform_step
from geophase.spec import Strength, _equatorial_root

ROOT = Path(__file__).resolve().parents[1]
EPS = np.finfo(float).eps


def _grid_cases():
    spec = importlib.util.spec_from_file_location(
        "transition_grid", ROOT / "scripts" / "transition_grid.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.GRID


def _search(fn, n_meas, w, tol):
    try:
        return fn(n_meas=n_meas, reference_weight=w, tol=tol), None
    except Exception as exc:  # the routes must raise alike
        return None, (type(exc), str(exc))


def test_python_grid_is_the_numpy_grid():
    # 65 uniform nodes by np.linspace and the 24-level equator cluster,
    # bit for bit, as the numpy route's read-only array
    offsets = np.pi / 64 * 2.0 ** -np.arange(1, 25)
    built = np.unique(np.concatenate([np.linspace(0.0, np.pi, 65),
                                      0.5 * np.pi - offsets,
                                      0.5 * np.pi + offsets]))
    grid = tr._winding_thetas(tr.TRANSITION_CURVE_NODES,
                              tr.TRANSITION_EQUATOR_LEVELS)
    assert len(grid) == 113
    assert grid == built.tolist()
    assert grid == an._winding_grid(65, 24).tolist()


@pytest.mark.parametrize("n_meas", [3, 6, 96, 4096])
def test_scalar_power_matches_the_kernel(n_meas):
    thetas = np.array([0.0, 1e-3, 0.7, 0.5 * np.pi, 2.3, np.pi])
    ms = [0.0, 1e-3, 0.3, 0.4725, 0.999, 1.0]
    bound = 2 * n_meas * EPS
    for w in (0.5, 0.05):
        kernel = _uniform_power(_uniform_step(thetas[:, None], n_meas),
                                np.array(ms), n_meas, w)
        for i, theta in enumerate(thetas.tolist()):
            step = tr._scalar_step(theta, n_meas)
            for j, m in enumerate(ms):
                amp = tr._scalar_power(step, m, n_meas, w)
                assert abs(amp - complex(kernel[i, j])) <= bound, (
                    theta, m, w)


def test_routes_agree_on_the_transition_grid():
    # every count, bracket and winding is equal, and so is every error;
    # the fields that round an amplitude differ by at most its rounding,
    # 2 N eps, and m_star only where the root's two floats are that close
    moved = 0
    for n_meas, w, tol in _grid_cases():
        case = (n_meas, w, tol)
        kernel, kernel_error = _search(an.find_critical_strength, *case)
        scalar, scalar_error = _search(tr.scalar_search, *case)
        assert scalar_error == kernel_error, case
        if kernel_error is not None:
            continue
        for name in ("bracket", "chern_below", "chern_above", "curves",
                     "nudge_retries", "root_calls"):
            assert getattr(scalar, name) == getattr(kernel, name), (
                case, name)
        bound = 2 * n_meas * EPS
        assert abs(scalar.contrast_min - kernel.contrast_min) <= bound, case
        r_lo, r_hi, _ = _equatorial_root(n_meas, *tr._SEARCH_SPAN)
        (_, c_lo), (_, c_hi), (_, c_r_lo), (_, c_r_hi) = an._equator_reads(
            [*kernel.bracket, r_lo, r_hi], n_meas, w)
        assert (abs(scalar.jump_at_equator - kernel.jump_at_equator)
                <= bound / min(c_lo, c_hi)), case
        if scalar.m_star.m != kernel.m_star.m:
            moved += 1
            assert abs(c_r_lo - c_r_hi) <= bound, case
    # the routes do differ: the bound is not met by equality alone
    assert moved > 0


@pytest.mark.parametrize("n_meas", [1, 2])
def test_no_flip_at_two_measurements_or_fewer(n_meas):
    # no equatorial root: both routes read the same winding at both ends
    errors = [_search(fn, n_meas, 0.5, 1e-4)[1]
              for fn in (an.find_critical_strength, tr.scalar_search)]
    assert errors[0] == errors[1] == (
        TransitionNotFoundError,
        "no winding flip in (0.001, 0.999): both ends give 0")


@pytest.mark.parametrize("cap", [None, 70])
def test_insertion_pass_matches_the_kernels(monkeypatch, cap):
    # without the equator cluster, the curve a hair below m*(6) needs
    # inserted nodes; the Python unwrap inserts the kernel route's nodes,
    # up to the same cap on a curve's nodes, and reads its winding
    if cap is not None:
        monkeypatch.setattr(an, "MAX_CURVE_NODES", cap)
        monkeypatch.setattr(tr, "MAX_CURVE_NODES", cap)
    m = _equatorial_root(6, *tr._SEARCH_SPAN)[0] - 1e-9
    thetas = tr._winding_thetas(tr.TRANSITION_CURVE_NODES, 0)
    curve, = an._phase_curves([Strength(m)], np.array(thetas), n_meas=6,
                              reference_weight=0.5)
    assert curve.theta.size == (cap or 87)
    steps = [tr._scalar_step(t, 6) for t in thetas]
    nodes, _, _, unwrappable = tr._scalar_curve(thetas, steps, m, 6)
    assert nodes == curve.theta.tolist()
    assert unwrappable == curve.unwrappable
    winding = an.chern_from_curve(curve)
    assert tr._scalar_winding(thetas, steps, m, 6) == winding == 1
