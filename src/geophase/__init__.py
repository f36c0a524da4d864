"""Simulator and analysis toolkit for measurement-induced geometric phases
on a three-level system with a spectator reference level."""

from .analysis import (PhaseCurve, PhaseMap, TransitionReport, chern_from_curve,
                       find_critical_strength, pancharatnam_phase,
                       phase_vs_theta, solid_angle_polygon, surface_degree,
                       sweep_phase_map, trajectory_surface, wrap_angle)
from .errors import (AnalysisError, AntipodalError, DomainError, GeophaseError,
                     QuadratureError, TransitionNotFoundError, UnwrapError)
from .measurement import (ReadoutDistribution, Strength, cloud_separation,
                          completeness_residual, effective_kraus_from_integral,
                          gauss_amplitudes, kraus_null, kraus_readout,
                          readout_pdf, readout_quadrature)
from .protocol import (CONTRAST_FLOOR, InterferenceResult, PathRecord,
                       ProtocolSpec, default_schedule, initial_state,
                       measure_along, run_protocol_analytic)
from .qutrit import (BlochVector, MeasurementAxis, Operator3, QutritState,
                     axis_state, bloch_of, rotation_to_axis)
from .trajectories import (McConfig, McEstimate, ReadoutHistogram,
                           TrajectorySample, mc_interference,
                           readout_histogram, sample_trajectory, z_scores)

__version__ = "0.1.0"
