"""Command-line front end with bit-stable CSV/JSON emission.

Commands: phase | sweep | transition | mc | surface | schema.  Every
command writes a JSON result envelope (and, where applicable, a CSV plus a
gnuplot script referencing it) into the output directory.  Primary output
files are byte-identical for identical configs and seeds.  The
GEOPHASE_THREADS environment variable sets the worker count of ``mc``, the
only command with worker processes, which starts no more of them than it
has sample blocks or the machine has CPUs; its output does not depend on
the count.  Wall times go into a separate ``*.timing.json`` sidecar and
the envelope's ``timing`` field stays null.  Files are written to a
temporary name and renamed, so no command leaves a partial file behind.

Angles are radians everywhere in files; flags accept degrees with an
explicit ``deg`` suffix (``--theta 90deg``).  Grids are ``START:STOP:COUNT``
with inclusive endpoints, or ``{"start", "stop", "count"}`` objects in a
JSON config file, which may preset any option the command takes; flags
override file values.  ``--seed`` belongs to ``mc`` and ``--format`` to
``sweep``.  Sizes are checked before anything is allocated or written: a
malformed grid exits 2, and exit 3 bounds ``--n-meas`` (MAX_N_MEAS),
``mc --samples`` (MAX_MC_SAMPLES) and samples x n_meas
(MAX_MC_SAMPLE_STEPS), sweep cells (MAX_SWEEP_CELLS) and surface points,
grid count x (n_meas + 1) x interp (MAX_SURFACE_POINTS).  Exit 1 is a
failed gate, never an oversize grid.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from importlib import resources
from pathlib import Path

import numpy as np

from . import analysis, trajectories
from .errors import (AnalysisError, AntipodalError, DomainError, GeophaseError,
                     TransitionNotFoundError, UnwrapError)
from .measurement import Strength
from .protocol import CONTRAST_FLOOR, ProtocolSpec, run_protocol_analytic

SCHEMA_VERSION = 1
MAX_SWEEP_CELLS = 10 ** 6
MAX_SURFACE_POINTS = 4 * 10 ** 6
MAX_N_MEAS = 4096
MAX_MC_SAMPLES = 10 ** 8
MAX_MC_SAMPLE_STEPS = 6 * 10 ** 8

EXIT_OK = 0
EXIT_GATE_FAILED = 1
EXIT_CONFIG = 2
EXIT_OVERSIZE = 3
EXIT_NO_TRANSITION = 4
EXIT_INSUFFICIENT = 5
EXIT_SINGULAR = 6


class CliError(GeophaseError):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# Option parsing helpers


def parse_angle(text: str) -> float:
    """Radians, or degrees with an explicit ``deg`` suffix."""
    text = text.strip()
    try:
        if text.endswith("deg"):
            return math.radians(float(text[:-3]))
        return float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad angle {text!r}") from exc


def parse_grid(text: str):
    """START:STOP:COUNT with inclusive endpoints; angles may carry ``deg``."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"grid must be START:STOP:COUNT, got {text!r}")
    try:
        start, stop = parse_angle(parts[0]), parse_angle(parts[1])
        count = int(parts[2])
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}") from exc
    return _check_grid({"start": start, "stop": stop, "count": count})


def _check_grid(grid) -> dict:
    """``grid`` itself, if it has finite ends and an integer count >= 2."""
    try:
        count, ends = grid["count"], (grid["start"], grid["stop"])
        ok = (len(grid) == 3 and type(count) is int and count >= 2
              and all(type(e) in (int, float) and math.isfinite(e)
                      for e in ends))
    except (KeyError, TypeError):
        ok = False
    if not ok:
        raise argparse.ArgumentTypeError(
            "grid needs finite start, stop and an integer count >= 2, "
            f"got {grid!r}")
    return grid


def _config_grid(cfg: dict, key: str) -> dict:
    """``cfg[key]`` through parse_grid's checks, which a config file skips."""
    try:
        return _check_grid(cfg[key])
    except argparse.ArgumentTypeError as exc:
        raise CliError(EXIT_CONFIG, f"{key}: {exc}")


def _grid_values(grid) -> np.ndarray:
    return np.linspace(grid["start"], grid["stop"], grid["count"])


def workers_from_env() -> int:
    raw = os.environ.get("GEOPHASE_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise CliError(EXIT_CONFIG, f"GEOPHASE_THREADS={raw!r} is not an integer")


def _fmt(x) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# Config resolution: defaults <- config file <- explicit flags


def _resolve_config(args: argparse.Namespace, defaults: dict) -> dict:
    cfg = dict(defaults)
    path = getattr(args, "config", None)
    if path is not None:
        try:
            loaded = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(EXIT_CONFIG, f"cannot read config {path}: {exc}")
        unknown = set(loaded) - set(defaults)
        if unknown:
            raise CliError(EXIT_CONFIG,
                           f"unknown config keys: {sorted(unknown)}")
        cfg.update(loaded)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    return cfg


def _resolve_strength(cfg: dict) -> Strength:
    m, gamma_tau = cfg.get("m"), cfg.get("gamma_tau")
    projective = bool(cfg.get("projective"))
    if m is not None and gamma_tau is not None:
        # persisted configs echo both parameterizations; only actual
        # disagreement is an error
        if abs(m - math.exp(-gamma_tau)) > 1e-12:
            raise CliError(EXIT_CONFIG,
                           "m and gamma_tau disagree; give one of them")
    if m is None and gamma_tau is not None:
        m = math.exp(-gamma_tau)
    if m is None:
        if not projective:
            raise CliError(EXIT_CONFIG,
                           "measurement strength required (--m, --gamma-tau, or --projective)")
        m = 0.0
    if projective and m != 0.0:
        raise CliError(EXIT_CONFIG, "--projective requires m = 0")
    return Strength(float(m))


def _n_meas(cfg: dict) -> int:
    n = int(cfg["n_meas"])
    if n < 1:
        raise CliError(EXIT_CONFIG, f"n_meas={n} must be positive")
    if n > MAX_N_MEAS:
        raise CliError(EXIT_OVERSIZE,
                       f"n_meas={n} exceeds {MAX_N_MEAS} measurements")
    return n


def _protocol_spec(cfg: dict, strength: Strength) -> ProtocolSpec:
    schedule = cfg.get("phi_schedule")
    return ProtocolSpec(theta=float(cfg["theta"]), strength=strength,
                        n_meas=_n_meas(cfg),
                        phi_schedule=tuple(schedule) if schedule else None,
                        reference_weight=float(cfg["ref_weight"]))


def _echo_config(cfg: dict, strength: Strength | None = None) -> dict:
    echo = {}
    for key, value in sorted(cfg.items()):
        if isinstance(value, tuple):
            value = list(value)
        echo[key] = value
    if strength is not None:
        echo["m"] = strength.m
        echo["gamma_tau"] = None if strength.m == 0.0 else strength.gamma_tau
    return echo


# ---------------------------------------------------------------------------
# Output writers


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    try:
        tmp.write_text(text, encoding="utf-8", newline="\n")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return None if math.isnan(x) else x
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    return obj


def write_envelope(out_dir: Path, name: str, command: str, config: dict,
                   results: dict, diagnostics: dict,
                   wall_seconds: float) -> Path:
    envelope = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": _jsonify(config),
        "results": _jsonify(results),
        "diagnostics": _jsonify(diagnostics),
        "timing": None,
    }
    path = out_dir / f"{name}.json"
    _atomic_write(path, json.dumps(envelope, indent=2, sort_keys=True) + "\n")
    sidecar = {"command": command, "wall_seconds": wall_seconds}
    _atomic_write(out_dir / f"{name}.timing.json",
                  json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    return path


def write_sweep_csv(path: Path, pm: analysis.PhaseMap) -> None:
    lines = ["theta,gamma_tau,m,chi_wrapped,chi_unwrapped,contrast,defined"]
    for i, theta in enumerate(pm.theta_grid):
        for j, m in enumerate(pm.strength_grid):
            gamma = math.inf if m == 0.0 else -math.log(m)
            lines.append(",".join((
                _fmt(theta), _fmt(gamma), _fmt(m),
                _fmt(pm.chi_wrapped[i, j]), _fmt(pm.chi_unwrapped[i, j]),
                _fmt(pm.contrast[i, j]), str(int(pm.defined[i, j])))))
    _atomic_write(path, "\n".join(lines) + "\n")


def read_sweep_csv(path: Path) -> dict:
    """Parse a sweep CSV back into arrays keyed like the PhaseMap fields."""
    rows = Path(path).read_text(encoding="utf-8").strip().split("\n")
    header = rows[0].split(",")
    data = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
    thetas = np.unique(data[:, 0])
    ms_count = data.shape[0] // thetas.size
    shape = (thetas.size, ms_count)
    out = {"theta_grid": thetas, "strength_grid": data[:ms_count, 2]}
    for k, name in enumerate(header):
        if k >= 3:
            out[name] = data[:, k].reshape(shape)
    out["defined"] = out.pop("defined").astype(bool)
    return out


_SWEEP_GP = """\
# Heatmaps of the phase and contrast maps in sweep.csv.
set datafile separator ","
set terminal pngcairo size 1200,500
set output "sweep.png"
set multiplot layout 1,2
set view map
set xlabel "theta (rad)"
set ylabel "m = exp(-gamma tau)"
set title "geometric phase chi (wrapped, rad)"
splot "sweep.csv" every ::1 using 1:3:4 with points pt 5 ps 0.8 palette notitle
set title "interference contrast"
splot "sweep.csv" every ::1 using 1:3:6 with points pt 5 ps 0.8 palette notitle
unset multiplot
"""

_SURFACE_GP = """\
# Bloch-sphere trajectory surface from surface.csv (color = latitude).
set datafile separator ","
set terminal pngcairo size 700,700
set output "surface.png"
set view equal xyz
set xyplane at -1.1
set xrange [-1.1:1.1]
set yrange [-1.1:1.1]
set zrange [-1.1:1.1]
splot "surface.csv" every ::1 using 3:4:5:1 with points pt 7 ps 0.4 palette notitle
"""


# ---------------------------------------------------------------------------
# Commands


_COMMON_DEFAULTS = {"out": "geophase_out"}

_PROTOCOL_DEFAULTS = {
    "theta": None,
    "m": None,
    "gamma_tau": None,
    "projective": False,
    "n_meas": 6,
    "ref_weight": 0.5,
    "phi_schedule": None,
}


def cmd_phase(args: argparse.Namespace) -> int:
    defaults = {**_COMMON_DEFAULTS, **_PROTOCOL_DEFAULTS}
    cfg = _resolve_config(args, defaults)
    if cfg["theta"] is None:
        raise CliError(EXIT_CONFIG, "--theta is required")
    strength = _resolve_strength(cfg)
    spec = _protocol_spec(cfg, strength)
    t0 = time.perf_counter()
    result, record = run_protocol_analytic(spec)
    wall = time.perf_counter() - t0
    print(f"theta={spec.theta:.12g} m={strength.m:.12g} "
          f"chi={result.phase:.12g} contrast={result.contrast:.12g}")
    results = {
        "theta": spec.theta,
        "m": strength.m,
        "gamma_tau": None if strength.m == 0.0 else strength.gamma_tau,
        "chi": result.phase,
        "contrast": result.contrast,
        "phase_defined": result.phase_defined,
        "method": result.method,
        "bloch_path": [list(s.bloch_after.as_array()) for s in record.steps],
    }
    diagnostics = {"contrast_floor": CONTRAST_FLOOR,
                   "amplitude_factors": [s.amplitude_factor for s in record.steps]}
    write_envelope(Path(cfg["out"]), "phase", "phase",
                   _echo_config(cfg, strength), results, diagnostics, wall)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    defaults = {**_COMMON_DEFAULTS,
                "grid_theta": {"start": 0.0, "stop": math.pi, "count": 64},
                "grid_m": {"start": 0.0, "stop": 1.0, "count": 64},
                "n_meas": 6, "ref_weight": 0.5, "format": "csv"}
    cfg = _resolve_config(args, defaults)
    grid_theta = _config_grid(cfg, "grid_theta")
    grid_m = _config_grid(cfg, "grid_m")
    cells = grid_theta["count"] * grid_m["count"]
    if cells > MAX_SWEEP_CELLS:
        raise CliError(EXIT_OVERSIZE,
                       f"grid of {cells} cells exceeds {MAX_SWEEP_CELLS}")
    thetas, ms = _grid_values(grid_theta), _grid_values(grid_m)
    t0 = time.perf_counter()
    pm = analysis.sweep_phase_map(thetas, ms, n_meas=_n_meas(cfg),
                                  reference_weight=float(cfg["ref_weight"]))
    wall = time.perf_counter() - t0
    out_dir = Path(cfg["out"])
    write_sweep_csv(out_dir / "sweep.csv", pm)
    _atomic_write(out_dir / "sweep.gp", _SWEEP_GP)
    imin, jmin = np.unravel_index(np.nanargmin(pm.contrast), pm.contrast.shape)
    results = {
        "cells": pm.n_cells,
        "contrast_min": float(pm.contrast[imin, jmin]),
        "contrast_min_theta": float(pm.theta_grid[imin]),
        "contrast_min_m": float(pm.strength_grid[jmin]),
        "csv": "sweep.csv",
        "plot_script": "sweep.gp",
    }
    if cfg["format"] in ("json", "both"):
        results["map"] = {
            "theta_grid": pm.theta_grid, "strength_grid": pm.strength_grid,
            "chi_wrapped": pm.chi_wrapped, "chi_unwrapped": pm.chi_unwrapped,
            "contrast": pm.contrast, "defined": pm.defined,
        }
    diagnostics = {"column_unwrappable": pm.column_unwrappable}
    write_envelope(out_dir, "sweep", "sweep", _echo_config(cfg), results,
                   diagnostics, wall)
    print(f"sweep: {pm.n_cells} cells -> {out_dir / 'sweep.csv'}")
    return EXIT_OK


def cmd_transition(args: argparse.Namespace) -> int:
    defaults = {**_COMMON_DEFAULTS, "n_meas": 6, "ref_weight": 0.5,
                "tol": 1e-4, "assert_jump": None}
    cfg = _resolve_config(args, defaults)
    t0 = time.perf_counter()
    report = analysis.find_critical_strength(
        n_meas=_n_meas(cfg), reference_weight=float(cfg["ref_weight"]),
        tol=float(cfg["tol"]))
    wall = time.perf_counter() - t0
    lo, hi = report.bracket
    results = {
        "m_star": report.m_star.m,
        "gamma_tau_star": report.m_star.gamma_tau,
        "bracket_m": [lo, hi],
        "bracket_gamma_tau": [-math.log(hi), -math.log(lo)],
        "bracket_width": hi - lo,
        "contrast_min": report.contrast_min,
        "chern_below": report.chern_below,
        "chern_above": report.chern_above,
        "jump_at_equator": report.jump_at_equator,
    }
    diagnostics = {"winding_curves": report.curves,
                   "nudge_retries": report.nudge_retries,
                   "root_kernel_calls": report.root_calls}
    write_envelope(Path(cfg["out"]), "transition", "transition",
                   _echo_config(cfg), results, diagnostics, wall)
    print(f"m_star={report.m_star.m:.8g} bracket_width={hi - lo:.3g} "
          f"chern {report.chern_below}->{report.chern_above} "
          f"jump={report.jump_at_equator:.6g}")
    ok = report.chern_below == 1 and report.chern_above == 0
    gate = cfg["assert_jump"]
    if gate is not None:
        target = math.pi if str(gate).strip().lower() == "pi" else float(gate)
        ok = ok and abs(report.jump_at_equator - target) <= 0.05
    return EXIT_OK if ok else EXIT_GATE_FAILED


def cmd_mc(args: argparse.Namespace) -> int:
    defaults = {**_COMMON_DEFAULTS, **_PROTOCOL_DEFAULTS,
                "samples": 10000, "seed": 42}
    cfg = _resolve_config(args, defaults)
    if cfg["theta"] is None:
        raise CliError(EXIT_CONFIG, "--theta is required")
    strength = _resolve_strength(cfg)
    spec = _protocol_spec(cfg, strength)
    n = int(cfg["samples"])
    if n < trajectories.MIN_SAMPLES:
        raise CliError(EXIT_INSUFFICIENT,
                       f"{n} samples below the minimum {trajectories.MIN_SAMPLES}")
    if n > MAX_MC_SAMPLES:
        raise CliError(EXIT_OVERSIZE,
                       f"{n} samples exceed the maximum {MAX_MC_SAMPLES}")
    if n * spec.n_meas > MAX_MC_SAMPLE_STEPS:
        raise CliError(EXIT_OVERSIZE,
                       f"{n} samples x {spec.n_meas} measurements exceed "
                       f"{MAX_MC_SAMPLE_STEPS} sample-steps")
    t0 = time.perf_counter()
    reference, _ = run_protocol_analytic(spec)
    ref_amp = reference.contrast * complex(math.cos(reference.phase),
                                           math.sin(reference.phase))
    estimate = trajectories.mc_interference(
        spec, trajectories.McConfig(n_samples=n, seed=int(cfg["seed"])),
        workers=workers_from_env())
    wall = time.perf_counter() - t0
    z_re, z_im = trajectories.z_scores(estimate, ref_amp)
    results = {
        "analytic": {"re": ref_amp.real, "im": ref_amp.imag,
                     "contrast": reference.contrast, "chi": reference.phase},
        "mc": {"re": estimate.mean.real, "im": estimate.mean.imag,
               "stderr_re": estimate.stderr_re, "stderr_im": estimate.stderr_im,
               "contrast": estimate.contrast, "chi": estimate.phase,
               "contrast_stderr": estimate.contrast_stderr,
               "phase_stderr": estimate.phase_stderr,
               "n_samples": estimate.n_samples},
        "z_scores": {"re": z_re, "im": z_im},
        "agreement": bool(z_re <= 3.0 and z_im <= 3.0),
    }
    write_envelope(Path(cfg["out"]), "mc", "mc", _echo_config(cfg, strength),
                   results, {"insufficient": estimate.insufficient}, wall)
    print(f"mc: z_re={z_re:.3g} z_im={z_im:.3g} "
          f"({'ok' if results['agreement'] else 'DISAGREE'})")
    return EXIT_OK if results["agreement"] else EXIT_GATE_FAILED


def cmd_surface(args: argparse.Namespace) -> int:
    defaults = {**_COMMON_DEFAULTS,
                "m": None, "gamma_tau": None,
                "grid_theta": {"start": 0.0, "stop": math.pi, "count": 64},
                "interp": 8, "n_meas": 6, "ref_weight": 0.5}
    cfg = _resolve_config(args, defaults)
    if cfg["m"] is None and cfg["gamma_tau"] is None:
        raise CliError(EXIT_CONFIG, "measurement strength required (--m or --gamma-tau)")
    strength = _resolve_strength(cfg)
    grid = _config_grid(cfg, "grid_theta")
    n_meas, interp = _n_meas(cfg), int(cfg["interp"])
    points = grid["count"] * (n_meas + 1) * interp
    if points > MAX_SURFACE_POINTS:
        raise CliError(EXIT_OVERSIZE,
                       f"surface of {points} points exceeds {MAX_SURFACE_POINTS}")
    t0 = time.perf_counter()
    degree, thetas, loops = analysis.trajectory_surface(
        strength, _grid_values(grid), interp, n_meas=n_meas,
        reference_weight=float(cfg["ref_weight"]))
    wall = time.perf_counter() - t0
    out_dir = Path(cfg["out"])
    lines = ["theta,step,x,y,z"]
    for i, theta in enumerate(thetas):
        for j in range(loops.shape[1]):
            x, y, z = loops[i, j]
            lines.append(f"{_fmt(theta)},{j},{_fmt(x)},{_fmt(y)},{_fmt(z)}")
    _atomic_write(out_dir / "surface.csv", "\n".join(lines) + "\n")
    _atomic_write(out_dir / "surface.gp", _SURFACE_GP)
    results = {"degree": degree, "n_loops": int(loops.shape[0]),
               "points_per_loop": int(loops.shape[1]),
               "csv": "surface.csv", "plot_script": "surface.gp"}
    write_envelope(out_dir, "surface", "surface", _echo_config(cfg, strength),
                   results, {}, wall)
    print(f"surface degree={degree} ({loops.shape[0]} loops x "
          f"{loops.shape[1]} points)")
    return EXIT_OK


def cmd_schema(args: argparse.Namespace) -> int:
    text = resources.files("geophase").joinpath(
        "schema/envelope.schema.json").read_text(encoding="utf-8")
    print(text, end="")
    out = getattr(args, "out", None)
    if out is not None:
        _atomic_write(Path(out) / "envelope.schema.json", text)
    return EXIT_OK


def envelope_schema() -> dict:
    """The JSON schema every result envelope validates against."""
    return json.loads(resources.files("geophase").joinpath(
        "schema/envelope.schema.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Parser


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="output directory (default geophase_out)")
    p.add_argument("--config", help="JSON config file; flags override")


def _add_protocol(p: argparse.ArgumentParser, with_theta: bool = True) -> None:
    if with_theta:
        p.add_argument("--theta", type=parse_angle,
                       help="polar angle (radians, or e.g. 90deg)")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--m", type=float, help="null-outcome attenuation in [0, 1]")
    group.add_argument("--gamma-tau", dest="gamma_tau", type=float,
                       help="integrated dephasing; m = exp(-gamma*tau)")
    p.add_argument("--projective", action="store_const", const=True,
                   help="use the projective (m = 0) protocol")
    p.add_argument("--n-meas", dest="n_meas", type=int,
                   help="measurements per sequence (default 6)")
    p.add_argument("--ref-weight", dest="ref_weight", type=float,
                   help="initial reference-level population (default 0.5)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geophase",
        description="Measurement-induced geometric phases: closed-form "
                    "sequence evaluation, Monte Carlo cross-checks, and "
                    "topological-transition analysis.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phase", help="one analytic protocol evaluation")
    _add_protocol(p)
    _add_common(p)
    p.set_defaults(handler=cmd_phase)

    p = sub.add_parser("sweep", help="dense (theta, m) phase/contrast map")
    p.add_argument("--grid-theta", dest="grid_theta", type=parse_grid,
                   help="theta grid START:STOP:COUNT (default 0:pi:64)")
    p.add_argument("--grid-m", dest="grid_m", type=parse_grid,
                   help="strength grid START:STOP:COUNT (default 0:1:64)")
    p.add_argument("--n-meas", dest="n_meas", type=int)
    p.add_argument("--ref-weight", dest="ref_weight", type=float)
    p.add_argument("--format", choices=("csv", "json", "both"),
                   help="embed the map in sweep.json too: json or both "
                        "(default csv)")
    _add_common(p)
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("transition", help="locate the critical strength")
    p.add_argument("--n-meas", dest="n_meas", type=int)
    p.add_argument("--ref-weight", dest="ref_weight", type=float)
    p.add_argument("--tol", type=float, help="bracket width in m (default 1e-4)")
    p.add_argument("--assert-jump", dest="assert_jump",
                   help="gate the equatorial jump ('pi' or a value in rad)")
    _add_common(p)
    p.set_defaults(handler=cmd_transition)

    p = sub.add_parser("mc", help="Monte Carlo versus analytic comparison")
    _add_protocol(p)
    p.add_argument("--samples", type=int, help="trajectory count (default 10000)")
    p.add_argument("--seed", type=int, help="random seed (default 42)")
    _add_common(p)
    p.set_defaults(handler=cmd_mc)

    p = sub.add_parser("surface", help="Bloch trajectory surface and degree")
    p.add_argument("--m", type=float)
    p.add_argument("--gamma-tau", dest="gamma_tau", type=float)
    p.add_argument("--grid-theta", dest="grid_theta", type=parse_grid)
    p.add_argument("--interp", type=int, help="interpolation per segment (default 8)")
    p.add_argument("--n-meas", dest="n_meas", type=int)
    p.add_argument("--ref-weight", dest="ref_weight", type=float)
    _add_common(p)
    p.set_defaults(handler=cmd_surface)

    p = sub.add_parser("schema", help="print the result-envelope JSON schema")
    p.add_argument("--out", help="also write envelope.schema.json here")
    p.set_defaults(handler=cmd_schema)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except TransitionNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_TRANSITION
    except AntipodalError as exc:
        print(f"error: singular surface: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except (DomainError, UnwrapError, AnalysisError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
