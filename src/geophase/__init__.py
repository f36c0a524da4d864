"""Simulator and analysis toolkit for measurement-induced geometric phases
on a three-level system with a spectator reference level.

Importing the package loads none of its modules: each public name is
imported from the module that defines it on first use (PEP 562), so a
process that runs one command pays only for the modules it calls."""

import importlib

#: Each public name and the submodule that defines it.
_HOME = {name: module for module, names in (
    ("analysis", ("PhaseCurve", "PhaseMap", "chern_from_curve",
                  "find_critical_strength", "pancharatnam_phase",
                  "phase_vs_theta", "solid_angle_polygon", "surface_degree",
                  "sweep_phase_map", "trajectory_surface", "wrap_angle")),
    ("errors", ("AnalysisError", "AntipodalError", "DomainError",
                "GeophaseError", "QuadratureError", "TransitionNotFoundError",
                "UnwrapError")),
    ("measurement", ("ReadoutDistribution", "completeness_residual",
                     "effective_kraus_from_integral", "gauss_amplitudes",
                     "kraus_null", "kraus_readout", "readout_pdf",
                     "readout_quadrature")),
    ("protocol", ("PathRecord", "initial_state", "measure_along",
                  "run_protocol_analytic")),
    ("qutrit", ("BlochVector", "MeasurementAxis", "Operator3", "QutritState",
                "axis_state", "bloch_of", "rotation_to_axis")),
    ("spec", ("CONTRAST_FLOOR", "InterferenceResult", "ProtocolSpec",
              "Strength", "cloud_separation", "default_schedule")),
    ("transition", ("TransitionReport",)),
    ("trajectories", ("McConfig", "McEstimate", "ReadoutHistogram",
                      "TrajectorySample", "mc_interference",
                      "readout_histogram", "sample_trajectory", "z_scores")),
) for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
