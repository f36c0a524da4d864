"""The public surface of the package, pinned: a name added or removed here
is an API change and has to be made on purpose."""

import dataclasses
import importlib
import inspect
import types

import numpy as np
import pytest

import geophase
from geophase import cli

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

# read_sweep_csv left the CLI: only the tests read a sweep CSV back;
# write_envelope went into the private command driver, its only caller
CLI_FUNCTIONS = [
    "build_parser", "cmd_mc", "cmd_phase", "cmd_schema", "cmd_surface",
    "cmd_sweep", "cmd_transition", "envelope_schema", "main", "parse_angle",
    "parse_grid", "script", "workers_from_env",
]


def public(names):
    return sorted(n for n in names if not n.startswith("_"))


def test_package_exports():
    assert public(geophase.__all__) == PACKAGE_NAMES
    assert public(n for n in dir(geophase)
                  if not isinstance(getattr(geophase, n), types.ModuleType)
                  ) == PACKAGE_NAMES


def test_star_import_binds_the_package_names():
    namespace = {}
    exec("from geophase import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PACKAGE_NAMES


@pytest.mark.parametrize("name", PACKAGE_NAMES)
def test_package_name_is_its_defining_modules_object(name):
    home = f"geophase.{geophase._HOME[name]}"
    value = getattr(geophase, name)
    assert value is getattr(importlib.import_module(home), name)
    if inspect.isclass(value) or inspect.isfunction(value):
        assert value.__module__ == home


def test_unknown_package_attribute_raises_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        geophase.no_such_name


def test_cli_functions():
    defined = [n for n, v in vars(cli).items()
               if inspect.isfunction(v) and v.__module__ == cli.__name__]
    assert public(defined) == CLI_FUNCTIONS


@pytest.mark.parametrize("cls, names", [
    (geophase.Operator3, ["apply", "dagger", "mat"]),
    (geophase.QutritState, ["a_e", "a_g", "ef_norm", "from_amplitudes",
                            "norm", "normalized", "vec"]),
    (geophase.McEstimate, ["contrast", "contrast_stderr", "insufficient",
                           "mean", "n_samples", "phase", "phase_stderr",
                           "stderr_im", "stderr_re"]),
    # from_r0_sigma and r0_over_sigma went: no flag or caller reached them
    (geophase.Strength, ["from_gamma_tau", "gamma_tau", "is_projective",
                         "m"]),
    # from_amplitude went: the result holds the kernel's amplitude itself
    (geophase.InterferenceResult, ["amplitude", "contrast", "phase",
                                   "phase_defined"]),
])
def test_class_members(cls, names):
    assert public(set(vars(cls)) | set(cls.__dataclass_fields__)) == names


_SPEC = geophase.ProtocolSpec(theta=1.0, strength=geophase.Strength(0.5))
_CFG = geophase.McConfig(n_samples=200, seed=1)


@pytest.mark.parametrize("make", [
    lambda: geophase.run_protocol_analytic(_SPEC)[1],
    lambda: geophase.phase_vs_theta(geophase.Strength(0.5)),
    lambda: geophase.sweep_phase_map(np.linspace(0.0, np.pi, 5), [0.2, 0.8]),
    lambda: geophase.readout_histogram(_SPEC, _CFG),
    lambda: geophase.sample_trajectory(_SPEC, 3, 1),
], ids=["PathRecord", "PhaseCurve", "PhaseMap", "ReadoutHistogram",
        "TrajectorySample"])
def test_every_array_field_is_read_only(make):
    # the README promises immutable value types, arrays included
    value = make()
    arrays = [f.name for f in dataclasses.fields(value)
              if isinstance(getattr(value, f.name), np.ndarray)]
    assert arrays
    assert [n for n in arrays if getattr(value, n).flags.writeable] == []
