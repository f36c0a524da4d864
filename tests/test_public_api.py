"""The public surface of the package, pinned: a name added or removed here
is an API change and has to be made on purpose."""

import types

import pytest

import geophase

PACKAGE_NAMES = [
    "AnalysisError", "AntipodalError", "BlochVector", "CONTRAST_FLOOR",
    "DomainError", "GeophaseError", "InterferenceResult", "McConfig",
    "McEstimate", "MeasurementAxis", "Operator3", "PathRecord",
    "PhaseCurve", "PhaseMap", "ProtocolSpec", "QuadratureError",
    "QutritState", "ReadoutDistribution", "ReadoutHistogram", "Strength",
    "TrajectorySample", "TransitionNotFoundError", "TransitionReport",
    "UnwrapError", "axis_state", "bloch_of", "chern_from_curve",
    "cloud_separation", "completeness_residual", "default_schedule",
    "effective_kraus_from_integral", "find_critical_strength",
    "gauss_amplitudes", "initial_state", "kraus_null", "kraus_readout",
    "mc_interference", "measure_along", "pancharatnam_phase",
    "phase_vs_theta", "readout_histogram", "readout_pdf",
    "readout_quadrature", "rotation_to_axis", "run_protocol_analytic",
    "sample_trajectory", "solid_angle_polygon", "surface_degree",
    "sweep_phase_map", "trajectory_surface", "wrap_angle", "z_scores",
]


def public(names):
    return sorted(n for n in names if not n.startswith("_"))


def test_package_exports():
    exported = [n for n, v in vars(geophase).items()
                if not isinstance(v, types.ModuleType)]
    assert public(exported) == PACKAGE_NAMES


@pytest.mark.parametrize("cls, names", [
    (geophase.Operator3, ["apply", "dagger", "mat"]),
    (geophase.QutritState, ["a_e", "a_g", "ef_norm", "from_amplitudes",
                            "norm", "normalized", "vec"]),
    (geophase.McEstimate, ["contrast", "contrast_stderr", "insufficient",
                           "mean", "n_samples", "phase", "phase_stderr",
                           "stderr_im", "stderr_re"]),
])
def test_class_members(cls, names):
    assert public(set(vars(cls)) | set(cls.__dataclass_fields__)) == names
