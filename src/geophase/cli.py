"""Command-line front end with bit-stable CSV/JSON emission.

Commands: phase | sweep | transition | mc | surface | schema.  Each writes
a JSON result envelope into ``--out``, and sweep and surface also a CSV
plus a gnuplot script; primary files are byte-identical for identical
configs and seeds.  GEOPHASE_THREADS sets the worker count of ``mc``; its
output does not depend on the count.  Wall times go to a ``*.timing.json``
sidecar, and files are written to a temporary name and renamed.

OPTIONS declares each option once: its parser, default and help.  A JSON
``--config`` file may preset any option of the command, and flags
override it.  A config value passes its flag's parser: a string is read
as the flag's text (``"90deg"``), a number as its decimal text (so 6.7 is
no count), and null leaves the default.  ``projective`` takes a JSON
bool, a grid also a ``{"start", "stop", "count"}`` object, and
``phi_schedule`` (config only) a list of angles.  Angles are radians in
files; flags take a ``deg`` suffix.  Grid endpoints are inclusive.

A value that does not parse exits 2 before any work.  Exit 3 bounds, before
anything is allocated, ``--n-meas`` (MAX_N_MEAS), ``mc --samples``
(MAX_MC_SAMPLES), samples x n_meas (MAX_MC_SAMPLE_STEPS), sweep cells
(MAX_SWEEP_CELLS) and surface points, grid count x (n_meas + 1) x interp
(MAX_SURFACE_POINTS).  Exit 1 is a failed gate and nothing else.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from collections import namedtuple
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
# Options: one parser each, for the flag's text and the config-file value


def parse_angle(text: str) -> float:
    """Radians, or degrees with an explicit ``deg`` suffix."""
    text = text.strip()
    try:
        if text.endswith("deg"):
            return math.radians(float(text[:-3]))
        return float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad angle {text!r}") from exc


def _expect(ok: bool, value, what: str):
    """``value`` if ``ok``, else the parse error naming ``what`` it should be."""
    if not ok:
        raise argparse.ArgumentTypeError(f"expected {what}, got {value!r}")
    return value


def parse_grid(text) -> dict:
    """START:STOP:COUNT with inclusive endpoints (angles may carry ``deg``),
    or a config file's ``{"start", "stop", "count"}`` object; the ends must
    be finite and the count an integer >= 2."""
    grid = text
    if isinstance(text, str):
        try:
            start, stop, count = text.split(":")
            grid = {"start": parse_angle(start), "stop": parse_angle(stop),
                    "count": int(count)}
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise argparse.ArgumentTypeError(
                f"grid must be START:STOP:COUNT, got {text!r}") from exc
    try:
        count, ends = grid["count"], (grid["start"], grid["stop"])
        ok = (len(grid) == 3 and type(count) is int and count >= 2
              and all(type(e) in (int, float) and math.isfinite(e)
                      for e in ends))
    except (KeyError, TypeError):
        ok = False
    return _expect(ok, grid, "finite start, stop and an integer count >= 2")


def _grid_values(grid) -> np.ndarray:
    return np.linspace(grid["start"], grid["stop"], grid["count"])


def _jump_target(text: str) -> float:
    """The jump a ``transition`` gate expects: 'pi' or a finite value in rad."""
    try:
        target = math.pi if text.strip().lower() == "pi" else float(text)
    except ValueError:
        target = math.nan
    _expect(math.isfinite(target), text, "'pi' or a finite jump in rad")
    return target


def _jump_text(text: str) -> str:
    """``text`` once it reads as a jump target; the config echoes it as given."""
    _jump_target(text)
    return text


def _sweep_format(text: str) -> str:
    return _expect(text in ("csv", "json", "both"), text, "csv, json or both")


def _switch(value) -> bool:
    """A flag without a value; in a config file, a JSON bool."""
    return _expect(type(value) is bool, value, "true or false")


def _schedule(value) -> tuple[float, ...]:
    """A JSON list of measurement azimuths in rad (config file only)."""
    _expect(isinstance(value, list) and all(type(p) in (int, float) for p in value),
            value, "a list of angles in rad")
    return tuple(map(float, value))


#: ``parse`` reads the flag's text and the config-file value; an option
#: with no ``help`` is a config-file key without a flag.
_Option = namedtuple("_Option", "parse default help")

OPTIONS = {
    "out": _Option(str, "geophase_out", "output directory"),
    "theta": _Option(parse_angle, None, "polar angle (radians, or e.g. 90deg)"),
    "m": _Option(float, None, "null-outcome attenuation in [0, 1]"),
    "gamma_tau": _Option(float, None, "integrated dephasing; m = exp(-gamma*tau)"),
    "projective": _Option(_switch, False, "use the projective (m = 0) protocol"),
    "n_meas": _Option(int, 6, "measurements per sequence"),
    "ref_weight": _Option(float, 0.5, "initial reference-level population"),
    "phi_schedule": _Option(_schedule, None, None),
    "grid_theta": _Option(parse_grid, {"start": 0.0, "stop": math.pi, "count": 64},
                          "theta grid START:STOP:COUNT"),
    "grid_m": _Option(parse_grid, {"start": 0.0, "stop": 1.0, "count": 64},
                      "strength grid START:STOP:COUNT"),
    "format": _Option(_sweep_format, "csv",
                      "embed the map in sweep.json too: json or both"),
    "tol": _Option(float, 1e-4, "bracket width in m"),
    "assert_jump": _Option(_jump_text, None,
                           "gate the equatorial jump ('pi' or a value in rad)"),
    "samples": _Option(int, 10000, "trajectory count"),
    "seed": _Option(int, 42, "random seed"),
    "interp": _Option(int, 8, "interpolation per segment"),
}

#: Parsers that take a config file's JSON object, bool or list as such;
#: every other option takes a string or a number there.
_JSON_PARSERS = (parse_grid, _switch, _schedule)

_PROTOCOL = ("theta", "m", "gamma_tau", "projective", "n_meas", "ref_weight",
             "phi_schedule")

#: The options of each command that has a ``--config``, in --help order.
COMMAND_OPTIONS = {
    "phase": _PROTOCOL + ("out",),
    "sweep": ("grid_theta", "grid_m", "n_meas", "ref_weight", "format", "out"),
    "transition": ("n_meas", "ref_weight", "tol", "assert_jump", "out"),
    "mc": _PROTOCOL + ("samples", "seed", "out"),
    "surface": ("m", "gamma_tau", "grid_theta", "interp", "n_meas",
                "ref_weight", "out"),
}


def workers_from_env() -> int:
    raw = os.environ.get("GEOPHASE_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise CliError(EXIT_CONFIG, f"GEOPHASE_THREADS={raw!r} is not an integer")


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _config_value(key: str, value):
    """A config-file value read by its flag's parser, as the flag's text."""
    parse = OPTIONS[key].parse
    if type(value) in (int, float):
        value = repr(value)  # so 6.7 is no int, as --n-meas 6.7 is not
    try:
        return parse(_expect(isinstance(value, str) or parse in _JSON_PARSERS,
                             value, "a string or a number"))
    except (argparse.ArgumentTypeError, ValueError) as exc:
        raise CliError(EXIT_CONFIG, f"{key}: {exc}")


def _resolve_config(args: argparse.Namespace) -> dict:
    """The command's options: defaults <- config file <- given flags."""
    keys = COMMAND_OPTIONS[args.command]
    cfg = {key: OPTIONS[key].default for key in keys}
    if args.config is not None:
        try:
            loaded = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(EXIT_CONFIG, f"cannot read config {args.config}: {exc}")
        if not isinstance(loaded, dict):
            raise CliError(EXIT_CONFIG, f"config {args.config} is not a JSON object")
        unknown = set(loaded) - set(keys)
        if unknown:
            raise CliError(EXIT_CONFIG, f"unknown config keys: {sorted(unknown)}")
        # null leaves the default, as persisted configs write it
        cfg.update((key, _config_value(key, value))
                   for key, value in loaded.items() if value is not None)
    cfg.update((key, value) for key in keys
               if (value := getattr(args, key, None)) is not None)
    return cfg


def _resolve_strength(cfg: dict) -> Strength:
    m, gamma_tau = cfg["m"], cfg["gamma_tau"]
    if gamma_tau is not None:
        if not gamma_tau >= 0.0:
            raise CliError(EXIT_CONFIG, f"gamma_tau={gamma_tau!r} must be >= 0")
        # persisted configs echo both parameterizations; only actual
        # disagreement is an error
        if m is not None and abs(m - math.exp(-gamma_tau)) > 1e-12:
            raise CliError(EXIT_CONFIG, "m and gamma_tau disagree; give one of them")
        m = math.exp(-gamma_tau) if m is None else m
    projective = cfg.get("projective", False)
    if m is None and not projective:
        flags = ("--m, --gamma-tau or --projective" if "projective" in cfg
                 else "--m or --gamma-tau")
        raise CliError(EXIT_CONFIG, f"measurement strength required ({flags})")
    if projective and m not in (None, 0.0):
        raise CliError(EXIT_CONFIG, "--projective requires m = 0")
    return Strength(0.0 if m is None else m)


def _strength_fields(strength: Strength) -> dict:
    """m and gamma_tau as envelopes report them (gamma_tau null at m = 0)."""
    return {"m": strength.m,
            "gamma_tau": None if strength.m == 0.0 else strength.gamma_tau}


def _n_meas(cfg: dict) -> int:
    n = cfg["n_meas"]
    if n < 1:
        raise CliError(EXIT_CONFIG, f"n_meas={n} must be positive")
    if n > MAX_N_MEAS:
        raise CliError(EXIT_OVERSIZE,
                       f"n_meas={n} exceeds {MAX_N_MEAS} measurements")
    return n


def _protocol_spec(cfg: dict) -> ProtocolSpec:
    if cfg["theta"] is None:
        raise CliError(EXIT_CONFIG, "--theta is required")
    return ProtocolSpec(theta=cfg["theta"], strength=_resolve_strength(cfg),
                        n_meas=_n_meas(cfg), phi_schedule=cfg["phi_schedule"],
                        reference_weight=cfg["ref_weight"])


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


def cmd_phase(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    spec = _protocol_spec(cfg)
    t0 = time.perf_counter()
    result, record = run_protocol_analytic(spec)
    wall = time.perf_counter() - t0
    print(f"theta={spec.theta:.12g} m={spec.strength.m:.12g} "
          f"chi={result.phase:.12g} contrast={result.contrast:.12g}")
    results = {
        "theta": spec.theta,
        **_strength_fields(spec.strength),
        "chi": result.phase,
        "contrast": result.contrast,
        "phase_defined": result.phase_defined,
        "method": "analytic",
        "bloch_path": record.points[1:],
    }
    diagnostics = {"contrast_floor": CONTRAST_FLOOR,
                   "amplitude_factors": record.factors}
    write_envelope(Path(cfg["out"]), "phase", "phase",
                   {**cfg, **_strength_fields(spec.strength)}, results,
                   diagnostics, wall)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    grid_theta, grid_m = cfg["grid_theta"], cfg["grid_m"]
    cells = grid_theta["count"] * grid_m["count"]
    if cells > MAX_SWEEP_CELLS:
        raise CliError(EXIT_OVERSIZE,
                       f"grid of {cells} cells exceeds {MAX_SWEEP_CELLS}")
    thetas, ms = _grid_values(grid_theta), _grid_values(grid_m)
    t0 = time.perf_counter()
    pm = analysis.sweep_phase_map(thetas, ms, n_meas=_n_meas(cfg),
                                  reference_weight=cfg["ref_weight"])
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
    write_envelope(out_dir, "sweep", "sweep", cfg, results, diagnostics, wall)
    print(f"sweep: {pm.n_cells} cells -> {out_dir / 'sweep.csv'}")
    return EXIT_OK


def cmd_transition(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    t0 = time.perf_counter()
    report = analysis.find_critical_strength(
        n_meas=_n_meas(cfg), reference_weight=cfg["ref_weight"],
        tol=cfg["tol"])
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
    write_envelope(Path(cfg["out"]), "transition", "transition", cfg,
                   results, diagnostics, wall)
    print(f"m_star={report.m_star.m:.8g} bracket_width={hi - lo:.3g} "
          f"chern {report.chern_below}->{report.chern_above} "
          f"jump={report.jump_at_equator:.6g}")
    ok = report.chern_below == 1 and report.chern_above == 0
    gate = cfg["assert_jump"]
    if gate is not None:
        ok = ok and abs(report.jump_at_equator - _jump_target(gate)) <= 0.05
    return EXIT_OK if ok else EXIT_GATE_FAILED


def cmd_mc(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    spec = _protocol_spec(cfg)
    n = cfg["samples"]
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
        spec, trajectories.McConfig(n_samples=n, seed=cfg["seed"]),
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
    write_envelope(Path(cfg["out"]), "mc", "mc",
                   {**cfg, **_strength_fields(spec.strength)}, results,
                   {"insufficient": estimate.insufficient}, wall)
    print(f"mc: z_re={z_re:.3g} z_im={z_im:.3g} "
          f"({'ok' if results['agreement'] else 'DISAGREE'})")
    return EXIT_OK if results["agreement"] else EXIT_GATE_FAILED


def cmd_surface(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    strength = _resolve_strength(cfg)
    grid = cfg["grid_theta"]
    n_meas, interp = _n_meas(cfg), cfg["interp"]
    points = grid["count"] * (n_meas + 1) * interp
    if points > MAX_SURFACE_POINTS:
        raise CliError(EXIT_OVERSIZE,
                       f"surface of {points} points exceeds {MAX_SURFACE_POINTS}")
    t0 = time.perf_counter()
    degree, thetas, loops = analysis.trajectory_surface(
        strength, _grid_values(grid), interp, n_meas=n_meas,
        reference_weight=cfg["ref_weight"])
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
    write_envelope(out_dir, "surface", "surface",
                   {**cfg, **_strength_fields(strength)}, results, {}, wall)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geophase",
        description="Measurement-induced geometric phases: closed-form "
                    "sequence evaluation, Monte Carlo cross-checks, and "
                    "topological-transition analysis.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, summary in (
            ("phase", cmd_phase, "one analytic protocol evaluation"),
            ("sweep", cmd_sweep, "dense (theta, m) phase/contrast map"),
            ("transition", cmd_transition, "locate the critical strength"),
            ("mc", cmd_mc, "Monte Carlo versus analytic comparison"),
            ("surface", cmd_surface, "Bloch trajectory surface and degree")):
        p = sub.add_parser(name, help=summary)
        for key in COMMAND_OPTIONS[name]:
            option = OPTIONS[key]
            if option.help is None:
                continue
            shown = option.default
            if isinstance(shown, dict):
                shown = "{start:g}:{stop:g}:{count}".format(**shown)
            text = (option.help if shown in (None, False)
                    else f"{option.help} (default {shown})")
            flag = "--" + key.replace("_", "-")
            if option.parse is _switch:
                p.add_argument(flag, action="store_const", const=True, help=text)
            else:
                p.add_argument(flag, type=option.parse, help=text)
        p.add_argument("--config", help="JSON config file; flags override")
        p.set_defaults(handler=handler)

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
