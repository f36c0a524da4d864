"""Command-line front end with bit-stable CSV/JSON emission.

Commands: phase | sweep | transition | mc | surface | schema.  Each writes
a JSON result envelope into ``--out``, and sweep and surface also a CSV
plus a gnuplot script; primary files are byte-identical for identical
configs and seeds on one numpy build and one SIMD dispatch target (numpy
picks its kernels by the CPU's features, which can move last bits).
GEOPHASE_THREADS (an integer >= 1) sets the worker
count of ``mc``; its output does not depend on the count.  Wall times go
to a ``*.timing.json`` sidecar: ``load_seconds`` is the import of the
package modules the command runs (COMMAND_MODULES, numpy with every one
but ``phase``'s), and ``wall_seconds`` covers the command's checks and
compute after that, not its file writes (surface.csv's loops are
interpolated as it is written).  ``phase`` computes on Python numbers
(``spec.closed_form``, which also gives ``mc`` its analytic reference),
and nothing else loads numpy, so ``phase``, ``schema``, ``--help`` and a
flag or config file that does not parse run without it.  A run's files
are written to temporary names and renamed once all are written.

OPTIONS declares each option once: its parser, default and help.  A JSON
``--config`` file may preset any option of the command, and flags
override it.  A config value passes its flag's parser: a string is read
as the flag's text (``"90deg"``), a number as its decimal text (so 6.7 is
no count), and null leaves the default.  ``projective`` takes a JSON
bool, a grid also a ``{"start", "stop", "count"}`` object, and
``phi_schedule`` (config only) a list of angles.  Angles are radians in
files; flags take a ``deg`` suffix.  Grid endpoints are inclusive.

A value that does not parse, a sweep theta grid with repeated nodes, or
an ``--out`` that is a file, lies under one or cannot be created, exits 2
before any work; ``--out`` is checked first, before each command's own
inputs.  A file that cannot be written under ``--out`` also exits 2,
and leaves none of the run's files.
Exit 3 bounds, before anything is allocated,
``--n-meas`` (MAX_N_MEAS), ``mc --samples`` (MAX_MC_SAMPLES), samples x
n_meas (MAX_MC_SAMPLE_STEPS), sweep cells (MAX_SWEEP_CELLS, or
MAX_SWEEP_JSON_CELLS for a map built as JSON) and surface points, grid
count x (n_meas + 1) x interp (MAX_SURFACE_POINTS).  Exit 1
is a failed gate and nothing else.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import sys
import time
from collections import namedtuple
from pathlib import Path

from .errors import (AnalysisError, AntipodalError, DomainError, GeophaseError,
                     TransitionNotFoundError, UnwrapError)

SCHEMA_VERSION = 2
MAX_SWEEP_CELLS = 10 ** 6
MAX_SWEEP_JSON_CELLS = 2 ** 17
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


def _grid_values(grid):
    import numpy as np

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

#: The package modules each command runs.  The driver imports them before
#: it starts the command's clock, so a command's own imports find them
#: loaded, and no command loads a module it does not call; ``spec`` loads
#: no numpy.
COMMAND_MODULES = {
    "phase": ("spec",),
    "sweep": ("analysis",),
    "transition": ("analysis",),
    "mc": ("spec", "trajectories"),
    "surface": ("analysis",),
}


def workers_from_env() -> int:
    raw = os.environ.get("GEOPHASE_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise CliError(EXIT_CONFIG, f"GEOPHASE_THREADS={raw!r} is not an integer >= 1")
    return workers


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


def _resolve_strength(cfg: dict):
    from .spec import Strength

    m, gamma_tau = cfg["m"], cfg["gamma_tau"]
    if gamma_tau is not None:
        # persisted configs echo both parameterizations; only actual
        # disagreement is an error
        m_gamma = Strength.from_gamma_tau(gamma_tau).m
        if m is not None and abs(m - m_gamma) > 1e-12:
            raise CliError(EXIT_CONFIG, "m and gamma_tau disagree; give one of them")
        m = m_gamma if m is None else m
    projective = cfg.get("projective", False)
    if m is None and not projective:
        flags = ("--m, --gamma-tau or --projective" if "projective" in cfg
                 else "--m or --gamma-tau")
        raise CliError(EXIT_CONFIG, f"measurement strength required ({flags})")
    if projective and m not in (None, 0.0):
        raise CliError(EXIT_CONFIG, "--projective requires m = 0")
    return Strength(0.0 if m is None else m)


def _strength_fields(strength) -> dict:
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


def _protocol_spec(cfg: dict):
    from .spec import ProtocolSpec

    if cfg["theta"] is None:
        raise CliError(EXIT_CONFIG, "--theta is required")
    return ProtocolSpec(theta=cfg["theta"], strength=_resolve_strength(cfg),
                        n_meas=_n_meas(cfg), phi_schedule=cfg["phi_schedule"],
                        reference_weight=cfg["ref_weight"])


# ---------------------------------------------------------------------------
# Output writers


def _out_dir(text: str) -> Path:
    """``--out`` if it is, or can be made, a writable directory (makes none)."""
    out = Path(text)
    nearest = next(p for p in (out, *out.parents) if p.exists())
    if not (nearest.is_dir() and os.access(nearest, os.W_OK | os.X_OK)):
        raise CliError(EXIT_CONFIG,
                       f"--out {out}: {nearest} is not a writable directory")
    return out


def _write_files(out_dir: Path, files: dict) -> None:
    """Write the strings of each ``name: chunks`` of ``files`` under
    ``out_dir``, all at temporary names first, then rename them.  A failure
    removes the temporary files and those already renamed, so a run leaves
    all its files or none.  A file that cannot be written exits 2."""
    staged, renamed = [], []
    try:
        for name, chunks in files.items():
            path = out_dir / name
            staged.append(path.with_name(f"{name}.tmp{os.getpid()}"))
            out_dir.mkdir(parents=True, exist_ok=True)
            with open(staged[-1], "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(chunks)
        for tmp, name in zip(staged, files):
            path = out_dir / name
            os.replace(tmp, path)
            renamed.append(path)
    except OSError as exc:
        for done in renamed:
            done.unlink(missing_ok=True)
        raise CliError(EXIT_CONFIG,
                       f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        for tmp in staged:
            tmp.unlink(missing_ok=True)


def _jsonify(obj):
    """``obj`` as plain JSON values: numpy scalars and arrays through
    their ``tolist``, and NaN as null."""
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if hasattr(obj, "tolist"):
        return _jsonify(obj.tolist())
    if isinstance(obj, float) and math.isnan(obj):
        return None
    return obj


#: Most rows _csv_text formats at once; _surface_blocks yields about as many.
_CSV_BLOCK_ROWS = 2 ** 16


def _csv_text(header: str, row_format: str, blocks):
    """The text of a CSV, in pieces: ``header``, then ``row_format % row``
    for each row of each block of ``blocks``, an iterable of column lists.
    At most _CSV_BLOCK_ROWS rows are formatted at once, so the whole file
    is never held as one string."""
    line = row_format + "\n"
    yield header + "\n"
    for columns in blocks:
        for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
            rows = zip(*(c[start:start + _CSV_BLOCK_ROWS].tolist()
                         for c in columns))
            yield "".join(line % row for row in rows)


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
# Commands: each checks its own inputs and computes; _run_command does the rest


#: What a command returns to ``_run_command``: the config its envelope
#: echoes, the envelope's results and diagnostics, the ``_csv_text``
#: arguments of its CSV (None for no CSV), its summary line and exit code.
_Run = namedtuple("_Run", "config results diagnostics csv summary code")

_PLOT_SCRIPTS = {"sweep": _SWEEP_GP, "surface": _SURFACE_GP}


def cmd_phase(cfg: dict) -> _Run:
    from .spec import CONTRAST_FLOOR, closed_form

    spec = _protocol_spec(cfg)
    result, points, factors = closed_form(spec)
    results = {
        "theta": spec.theta,
        **_strength_fields(spec.strength),
        "chi": result.phase,
        "contrast": result.contrast,
        "phase_defined": result.phase_defined,
        "method": "analytic",
        "bloch_path": points[1:],
    }
    diagnostics = {"contrast_floor": CONTRAST_FLOOR,
                   "amplitude_factors": factors}
    return _Run({**cfg, **_strength_fields(spec.strength)}, results,
                diagnostics, None,
                f"theta={spec.theta:.12g} m={spec.strength.m:.12g} "
                f"chi={result.phase:.12g} contrast={result.contrast:.12g}",
                EXIT_OK)


def cmd_sweep(cfg: dict) -> _Run:
    import numpy as np

    from . import analysis
    from .spec import Strength

    grid_theta, grid_m = cfg["grid_theta"], cfg["grid_m"]
    cells = grid_theta["count"] * grid_m["count"]
    limit = MAX_SWEEP_CELLS if cfg["format"] == "csv" else MAX_SWEEP_JSON_CELLS
    if cells > limit:
        raise CliError(EXIT_OVERSIZE, f"grid of {cells} cells exceeds {limit} "
                       f"for --format {cfg['format']}")
    n_meas = _n_meas(cfg)
    thetas, ms = _grid_values(grid_theta), _grid_values(grid_m)
    if analysis._distinct(thetas).size < thetas.size:
        # the map keeps one row per distinct theta, so a repeat would
        # silently drop rows that the grid echoed
        raise CliError(EXIT_CONFIG, "grid_theta: nodes of {start!r}:{stop!r}:"
                       "{count} are not distinct".format(**grid_theta))
    pm = analysis.sweep_phase_map(thetas, ms, n_meas=n_meas,
                                  reference_weight=cfg["ref_weight"])
    n_theta, n_m = pm.contrast.shape
    gammas = [Strength(m).gamma_tau for m in pm.strength_grid.tolist()]
    csv = ("theta,gamma_tau,m,chi_wrapped,chi_unwrapped,contrast,defined",
           "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%d",
           [[np.repeat(pm.theta_grid, n_m), np.tile(gammas, n_theta),
             np.tile(pm.strength_grid, n_theta), pm.chi_wrapped.ravel(),
             pm.chi_unwrapped.ravel(), pm.contrast.ravel(), pm.defined.ravel()]])
    imin, jmin = np.unravel_index(np.nanargmin(pm.contrast), pm.contrast.shape)
    results = {
        "cells": pm.n_cells,
        "contrast_min": float(pm.contrast[imin, jmin]),
        "contrast_min_theta": float(pm.theta_grid[imin]),
        "contrast_min_m": float(pm.strength_grid[jmin]),
    }
    if cfg["format"] in ("json", "both"):
        results["map"] = {
            "theta_grid": pm.theta_grid, "strength_grid": pm.strength_grid,
            "chi_wrapped": pm.chi_wrapped, "chi_unwrapped": pm.chi_unwrapped,
            "contrast": pm.contrast, "defined": pm.defined,
        }
    diagnostics = {"column_unwrappable": pm.column_unwrappable,
                   "columns_refined": pm.columns_refined,
                   "nodes_inserted": pm.nodes_inserted,
                   "refine_passes": pm.refine_passes}
    return _Run(cfg, results, diagnostics, csv,
                f"sweep: {pm.n_cells} cells -> {Path(cfg['out']) / 'sweep.csv'}",
                EXIT_OK)


def cmd_transition(cfg: dict) -> _Run:
    from . import analysis
    from .spec import Strength

    report = analysis.find_critical_strength(
        n_meas=_n_meas(cfg), reference_weight=cfg["ref_weight"], tol=cfg["tol"])
    lo, hi = report.bracket
    results = {
        "m_star": report.m_star.m,
        "gamma_tau_star": report.m_star.gamma_tau,
        "bracket_m": [lo, hi],
        "bracket_gamma_tau": [Strength(hi).gamma_tau, Strength(lo).gamma_tau],
        "bracket_width": hi - lo,
        "contrast_min": report.contrast_min,
        "chern_below": report.chern_below,
        "chern_above": report.chern_above,
        "jump_at_equator": report.jump_at_equator,
    }
    diagnostics = {"winding_curves": report.curves,
                   "nudge_retries": report.nudge_retries,
                   "root_kernel_calls": report.root_calls}
    ok = report.chern_below == 1 and report.chern_above == 0
    gate = cfg["assert_jump"]
    if gate is not None:
        ok = ok and (abs(report.jump_at_equator - _jump_target(gate))
                     <= analysis.JUMP_TOL)
    return _Run(cfg, results, diagnostics, None,
                f"m_star={report.m_star.m:.8g} bracket_width={hi - lo:.3g} "
                f"chern {report.chern_below}->{report.chern_above} "
                f"jump={report.jump_at_equator:.6g}",
                EXIT_OK if ok else EXIT_GATE_FAILED)


def cmd_mc(cfg: dict) -> _Run:
    from . import trajectories
    from .spec import closed_form

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
    mc_cfg = trajectories.McConfig(n_samples=n, seed=cfg["seed"])
    workers = workers_from_env()
    reference, _, _ = closed_form(spec)
    ref_amp = reference.amplitude
    estimate = trajectories.mc_interference(spec, mc_cfg, workers=workers)
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
    return _Run({**cfg, **_strength_fields(spec.strength)}, results,
                {"insufficient": estimate.insufficient}, None,
                f"mc: z_re={z_re:.3g} z_im={z_im:.3g} "
                f"({'ok' if results['agreement'] else 'DISAGREE'})",
                EXIT_OK if results["agreement"] else EXIT_GATE_FAILED)


def _surface_blocks(thetas, vertices, interp: int):
    """surface.csv's columns, whole loops up to about _CSV_BLOCK_ROWS rows
    at a time.  Each loop of ``vertices`` is geodesically interpolated:
    segment k runs from vertex k to vertex k+1 (wrapping), sampled at
    ``interp`` points excluding its endpoint."""
    import numpy as np

    n_vertices = vertices.shape[1]
    steps = np.arange(n_vertices * interp)
    t = (np.arange(interp) / interp)[None, None, :, None]
    per_block = max(1, _CSV_BLOCK_ROWS // steps.size)
    for lo in range(0, len(thetas), per_block):
        loops = vertices[lo:lo + per_block]
        nxt = np.roll(loops, -1, axis=1)
        dots = np.clip(np.sum(loops * nxt, axis=2), -1.0, 1.0)
        gamma = np.arccos(dots)[..., None, None]
        small = gamma < 1e-9
        sin_gamma = np.where(small, 1.0, np.sin(gamma))
        w0 = np.where(small, 1.0 - t, np.sin((1.0 - t) * gamma) / sin_gamma)
        w1 = np.where(small, t, np.sin(t * gamma) / sin_gamma)
        pts = w0 * loops[:, :, None, :] + w1 * nxt[:, :, None, :]
        pts /= np.linalg.norm(pts, axis=3, keepdims=True)
        yield [np.repeat(thetas[lo:lo + per_block], steps.size),
               np.tile(steps, len(loops)), *pts.reshape(-1, 3).T]


def cmd_surface(cfg: dict) -> _Run:
    from . import analysis

    strength = _resolve_strength(cfg)
    grid = cfg["grid_theta"]
    n_meas, interp = _n_meas(cfg), cfg["interp"]
    if interp < 1:
        raise CliError(EXIT_CONFIG, f"interp={interp} must be positive")
    points = grid["count"] * (n_meas + 1) * interp
    if points > MAX_SURFACE_POINTS:
        raise CliError(EXIT_OVERSIZE,
                       f"surface of {points} points exceeds {MAX_SURFACE_POINTS}")
    degree, thetas, vertices = analysis.trajectory_surface(
        strength, _grid_values(grid), n_meas=n_meas,
        reference_weight=cfg["ref_weight"])
    n_loops, per_loop = thetas.size, (n_meas + 1) * interp
    csv = ("theta,step,x,y,z", "%.17g,%d,%.17g,%.17g,%.17g",
           _surface_blocks(thetas, vertices, interp))
    results = {"degree": degree, "n_loops": n_loops,
               "points_per_loop": per_loop}
    return _Run({**cfg, **_strength_fields(strength)}, results, {}, csv,
                f"surface degree={degree} ({n_loops} loops x {per_loop} points)",
                EXIT_OK)


def _run_command(args: argparse.Namespace) -> int:
    """Resolve the command's config and check ``--out``, then time the
    import of the command's modules and, apart, its own checks and compute.
    Only then write its CSV and plot script, its envelope and the timing
    sidecar, and print its summary."""
    command = args.command
    cfg = _resolve_config(args)
    out_dir = _out_dir(cfg["out"])
    t0 = time.perf_counter()
    for module in COMMAND_MODULES[command]:
        importlib.import_module(f".{module}", __package__)
    t1 = time.perf_counter()
    run = args.command_fn(cfg)
    t2 = time.perf_counter()
    results, files = run.results, {}
    if run.csv is not None:
        files[f"{command}.csv"] = _csv_text(*run.csv)
        files[f"{command}.gp"] = [_PLOT_SCRIPTS[command]]
        results = {**results, "csv": f"{command}.csv",
                   "plot_script": f"{command}.gp"}
    envelope = {"schema_version": SCHEMA_VERSION, "command": command,
                "config": run.config, "results": results,
                "diagnostics": run.diagnostics}
    sidecar = {"command": command, "load_seconds": t1 - t0,
               "wall_seconds": t2 - t1}
    for name, doc in ((f"{command}.json", envelope),
                      (f"{command}.timing.json", sidecar)):
        files[name] = [json.dumps(_jsonify(doc), indent=2, sort_keys=True)
                       + "\n"]
    _write_files(out_dir, files)
    print(run.summary)
    return run.code


def _schema_text() -> str:
    from importlib import resources

    return resources.files("geophase").joinpath(
        "schema/envelope.schema.json").read_text(encoding="utf-8")


def cmd_schema(args: argparse.Namespace) -> int:
    text = _schema_text()
    if args.out is not None:
        _write_files(_out_dir(args.out), {"envelope.schema.json": [text]})
    print(text, end="")
    return EXIT_OK


def envelope_schema() -> dict:
    """The JSON schema every result envelope validates against."""
    return json.loads(_schema_text())


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
        p.set_defaults(handler=_run_command, command_fn=handler)

    p = sub.add_parser("schema", help="print the result-envelope JSON schema")
    p.add_argument("--out", help="also write envelope.schema.json here")
    p.set_defaults(handler=cmd_schema)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse's --help (0) or usage error (2)
        return exc.code
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
