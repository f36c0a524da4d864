import argparse
import contextlib
import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import geophase
from geophase import analysis, cli, protocol, trajectories, transition
from geophase.errors import AntipodalError, TransitionNotFoundError
from geophase.measurement import Strength
from geophase.protocol import run_protocol_analytic
from geophase.trajectories import McEstimate


def run_cli(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse's own exits
        return exc.code


def read_sweep_csv(path):
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


def load_envelope(path):
    envelope = json.loads(path.read_text(encoding="utf-8"))
    jsonschema.validate(envelope, cli.envelope_schema())
    return envelope


class TestParsing:
    def test_angle_plain_and_degrees(self):
        assert cli.parse_angle("1.25") == 1.25
        assert abs(cli.parse_angle("90deg") - np.pi / 2) < 1e-15
        assert abs(cli.parse_angle("-45deg") + np.pi / 4) < 1e-15

    def test_grid(self):
        g = cli.parse_grid("0:3.14:15")
        assert g == {"start": 0.0, "stop": 3.14, "count": 15}
        g = cli.parse_grid("0:180deg:5")
        assert abs(g["stop"] - np.pi) < 1e-15

    def test_bad_grid_rejected(self):
        with pytest.raises(Exception):
            cli.parse_grid("0:1")

    def test_m_gamma_tau_exclusive(self, capsys):
        code = run_cli(["phase", "--theta", "1", "--m", "0.5",
                        "--gamma-tau", "0.7"])
        assert code == 2


class TestPhaseCommand:
    def test_trivial_point(self, tmp_path, capsys):
        code = run_cli(["phase", "--theta", "0", "--m", "0.5",
                        "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "theta=0" in out and "contrast=1" in out and "chi=0" in out
        env = load_envelope(tmp_path / "phase.json")
        assert env["results"]["contrast"] == pytest.approx(1.0, abs=1e-12)
        assert env["results"]["chi"] == pytest.approx(0.0, abs=1e-12)

    def test_projective_hexagon(self, tmp_path, capsys):
        code = run_cli(["phase", "--theta", "1.5707963267948966", "--m", "0",
                        "--projective", "--out", str(tmp_path)])
        assert code == 0
        env = load_envelope(tmp_path / "phase.json")
        assert env["results"]["contrast"] == pytest.approx(0.421875, abs=1e-12)
        assert abs(env["results"]["chi"]) == pytest.approx(np.pi, abs=1e-10)

    def test_south_pole(self, tmp_path):
        code = run_cli(["phase", "--theta", "3.14159265", "--m", "0.3",
                        "--out", str(tmp_path)])
        assert code == 0
        env = load_envelope(tmp_path / "phase.json")
        assert env["results"]["contrast"] == pytest.approx(1.0, abs=1e-9)
        assert abs(analysis.wrap_angle(env["results"]["chi"])) < 1e-7

    def test_degrees_flag(self, tmp_path):
        code = run_cli(["phase", "--theta", "90deg", "--projective",
                        "--out", str(tmp_path)])
        assert code == 0
        env = load_envelope(tmp_path / "phase.json")
        assert env["results"]["theta"] == pytest.approx(np.pi / 2)

    def test_gamma_tau_converted_by_strength(self, tmp_path):
        # math.exp and np.exp differ in the last bit at gamma*tau = 0.302
        assert run_cli(["phase", "--theta", "1.0", "--gamma-tau", "0.302",
                        "--out", str(tmp_path)]) == 0
        env = load_envelope(tmp_path / "phase.json")
        assert env["results"]["m"] == geophase.Strength.from_gamma_tau(0.302).m

    def test_missing_strength_is_config_error(self, tmp_path):
        assert run_cli(["phase", "--theta", "1", "--out", str(tmp_path)]) == 2

    def test_projective_conflicts_with_nonzero_m(self, tmp_path):
        assert run_cli(["phase", "--theta", "1", "--m", "0.5", "--projective",
                        "--out", str(tmp_path)]) == 2

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"theta": 1.0, "m": 0.5, "n_meas": 6}))
        code = run_cli(["phase", "--config", str(cfg), "--m", "0.25",
                        "--out", str(tmp_path)])
        assert code == 0
        env = load_envelope(tmp_path / "phase.json")
        assert env["config"]["m"] == 0.25
        assert env["config"]["theta"] == 1.0

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"theta": 1.0, "m": 0.5, "bogus": 1}))
        assert run_cli(["phase", "--config", str(cfg),
                        "--out", str(tmp_path)]) == 2

    def test_seed_rejected(self, tmp_path):
        # only mc draws random numbers
        assert run_cli(["phase", "--theta", "1", "--m", "0.5", "--seed", "3",
                        "--out", str(tmp_path)]) == 2
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"theta": 1.0, "m": 0.5, "seed": 3}))
        assert run_cli(["phase", "--config", str(cfg),
                        "--out", str(tmp_path)]) == 2

    def test_persisted_config_reproduces_bytes(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli(["phase", "--theta", "1.1", "--gamma-tau", "0.8",
                        "--out", str(out)]) == 0
        first = (out / "phase.json").read_bytes()
        persisted = tmp_path / "replay.json"
        persisted.write_bytes(json.dumps(
            json.loads(first.decode())["config"]).encode())
        assert run_cli(["phase", "--config", str(persisted)]) == 0
        assert (out / "phase.json").read_bytes() == first

    def test_conflicting_config_strengths_rejected(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"theta": 1.0, "m": 0.5, "gamma_tau": 2.0}))
        assert run_cli(["phase", "--config", str(cfg),
                        "--out", str(tmp_path)]) == 2


class TestSweepCommand:
    def test_phi_schedule_rejected(self, tmp_path, capsys):
        # the map is the uniform-schedule map; a schedule would be ignored
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"phi_schedule": [-1.0, -2.0, -3.0, -4.0,
                                                    -5.0, -6.0]}))
        assert run_cli(["sweep", "--config", str(cfg),
                        "--out", str(tmp_path)]) == 2
        assert "unknown config keys: ['phi_schedule']" in capsys.readouterr().err
        assert not (tmp_path / "sweep.json").exists()

    def test_small_sweep_round_trips(self, tmp_path):
        code = run_cli(["sweep", "--grid-theta", "0:3.141592653589793:12",
                        "--grid-m", "0:1:7", "--out", str(tmp_path)])
        assert code == 0
        env = load_envelope(tmp_path / "sweep.json")
        assert env["results"]["cells"] == 84
        csv_path = tmp_path / "sweep.csv"
        header = csv_path.read_text().splitlines()[0]
        assert header == "theta,gamma_tau,m,chi_wrapped,chi_unwrapped,contrast,defined"
        assert (tmp_path / "sweep.gp").exists()

        back = read_sweep_csv(csv_path)
        pm = analysis.sweep_phase_map(np.linspace(0, np.pi, 12),
                                          np.linspace(0, 1, 7))
        assert np.array_equal(back["theta_grid"], pm.theta_grid)
        assert np.array_equal(back["strength_grid"], pm.strength_grid)
        assert np.array_equal(back["chi_wrapped"], pm.chi_wrapped)
        assert np.array_equal(back["chi_unwrapped"], pm.chi_unwrapped,
                              equal_nan=True)
        assert np.array_equal(back["contrast"], pm.contrast)
        assert np.array_equal(back["defined"], pm.defined)

        # two columns need a node each: one insertion pass apiece
        assert env["diagnostics"] == {
            "column_unwrappable": [True] * 7, "columns_refined": 2,
            "nodes_inserted": 2, "refine_passes": 2}
        assert (pm.columns_refined, pm.nodes_inserted,
                pm.refine_passes) == (2, 2, 2)

    def test_gamma_tau_column_consistent(self, tmp_path):
        run_cli(["sweep", "--grid-theta", "0:3.141592653589793:8",
                 "--grid-m", "0:1:3", "--out", str(tmp_path)])
        rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
        for row in rows:
            fields = row.split(",")
            m, gamma = float(fields[2]), float(fields[1])
            if m == 0.0:
                assert math.isinf(gamma)
            else:
                assert gamma == pytest.approx(-math.log(m), abs=1e-15)

    def test_gamma_tau_column_is_strengths(self, tmp_path):
        # one conversion for the column and the envelopes: the libms
        # differ in the last bit at m = 0.9714285714285714 (node 35 of 36)
        run_cli(["sweep", "--grid-theta", "0:3.141592653589793:2",
                 "--grid-m", "0:1:36", "--out", str(tmp_path)])
        rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
        assert len(rows) == 72
        for row in rows:
            fields = row.split(",")
            strength = geophase.Strength(float(fields[2]))
            assert float(fields[1]) == strength.gamma_tau

    def test_oversize_grid_exit_3(self, tmp_path):
        assert run_cli(["sweep", "--grid-theta", "0:3:2000",
                        "--grid-m", "0:1:2000", "--out", str(tmp_path)]) == 3

    def test_weight_that_masks_every_cell_exit_2(self, tmp_path, capsys):
        # at w = 1e-20 no contrast can reach the floor: one error line and
        # no file, not a map of NaN phases
        out = tmp_path / "out"
        assert run_cli(["sweep", "--grid-theta", "0:3.14159:65",
                        "--grid-m", "0:1:11", "--ref-weight", "1e-20",
                        "--out", str(out)]) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith(
            "error: reference_weight=1e-20 bounds the contrast")
        assert captured.out == ""
        assert not out.exists() or not list(out.iterdir())

    def test_json_format_embeds_map(self, tmp_path):
        run_cli(["sweep", "--grid-theta", "0:3.141592653589793:8",
                 "--grid-m", "0:1:3", "--format", "json",
                 "--out", str(tmp_path)])
        env = load_envelope(tmp_path / "sweep.json")
        assert "map" in env["results"]
        assert len(env["results"]["map"]["theta_grid"]) == 8


class TestTransitionCommand:
    def test_format_rejected(self, tmp_path):
        # only sweep has a map to embed
        assert run_cli(["transition", "--format", "csv",
                        "--out", str(tmp_path)]) == 2

    def test_report_and_gate(self, tmp_path, capsys):
        code = run_cli(["transition", "--assert-jump", "pi",
                        "--out", str(tmp_path)])
        assert code == 0
        env = load_envelope(tmp_path / "transition.json")
        res = env["results"]
        assert res["chern_below"] == 1 and res["chern_above"] == 0
        assert res["bracket_width"] <= 1e-4
        assert res["contrast_min"] < 1e-3
        assert abs(res["jump_at_equator"] - np.pi) <= 0.05
        assert res["bracket_m"][0] <= res["m_star"] <= res["bracket_m"][1]

    def test_diagnostics_count_work_independent_of_workers(
            self, tmp_path, monkeypatch):
        seen = []
        for workers in ("1", "2"):
            monkeypatch.setenv("GEOPHASE_THREADS", workers)
            assert run_cli(["transition", "--tol", "1e-3",
                            "--out", str(tmp_path)]) == 0
            seen.append(load_envelope(tmp_path / "transition.json")
                        ["diagnostics"])
        diag = seen[0]
        assert set(diag) == {"winding_curves", "nudge_retries",
                             "root_evaluations"}
        assert diag["winding_curves"] > 0 and diag["root_evaluations"] > 0
        assert diag["nudge_retries"] >= 0
        assert seen[0] == seen[1]

    def test_tiny_reference_weight(self, tmp_path):
        # the windings do not depend on w, and the search reads them at 0.5
        assert run_cli(["transition", "--ref-weight", "1e-8", "--tol", "1e-6",
                        "--out", str(tmp_path)]) == 0
        res = load_envelope(tmp_path / "transition.json")["results"]
        assert res["chern_below"] == 1 and res["chern_above"] == 0

    def test_no_transition_exit_4(self, tmp_path, monkeypatch, capsys):
        def none_found(*args, **kwargs):
            raise TransitionNotFoundError("no winding flip in [0, 1]")
        monkeypatch.setattr(transition, "scalar_search", none_found)
        assert run_cli(["transition", "--out", str(tmp_path)]) == 4
        assert capsys.readouterr().err == "error: no winding flip in [0, 1]\n"
        assert not (tmp_path / "transition.json").exists()

    def test_one_measurement_has_no_transition(self, tmp_path, capsys):
        # at N = 1 the closed form of the equatorial root does not apply
        # (cos(pi/N) = -1), and the windings at the span's ends refuse it
        assert run_cli(["transition", "--n-meas", "1",
                        "--out", str(tmp_path)]) == 4
        captured = capsys.readouterr()
        assert captured.err == ("error: no winding flip in (0.001, 0.999): "
                                "both ends give 0\n")
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_jump_gate_numeric_value(self, tmp_path):
        assert run_cli(["transition", "--assert-jump", "3.141592653589793",
                        "--tol", "1e-3", "--out", str(tmp_path)]) == 0
        assert run_cli(["transition", "--assert-jump", "1.0",
                        "--tol", "1e-3", "--out", str(tmp_path)]) == 1


class TestMcCommand:
    def test_trivial_point_exact(self, tmp_path):
        code = run_cli(["mc", "--theta", "0", "--m", "0.5", "--samples", "500",
                        "--seed", "9", "--out", str(tmp_path)])
        assert code == 0
        env = load_envelope(tmp_path / "mc.json")
        assert env["results"]["z_scores"]["re"] == 0.0
        assert env["results"]["z_scores"]["im"] == 0.0

    def test_agreement_run(self, tmp_path):
        code = run_cli(["mc", "--theta", "1.2", "--m", "0.6",
                        "--samples", "100000", "--seed", "42",
                        "--out", str(tmp_path)])
        assert code == 0
        env = load_envelope(tmp_path / "mc.json")
        assert env["results"]["agreement"] is True
        assert env["results"]["mc"]["n_samples"] == 100000

    def test_rerun_byte_identical(self, tmp_path):
        args = ["mc", "--theta", "0.9", "--m", "0.55", "--samples", "3000",
                "--seed", "4", "--out", str(tmp_path)]
        assert run_cli(args) == 0
        first = (tmp_path / "mc.json").read_bytes()
        assert run_cli(args) == 0
        assert (tmp_path / "mc.json").read_bytes() == first

    def test_insufficient_samples_exit_5(self, tmp_path):
        assert run_cli(["mc", "--theta", "1", "--m", "0.5", "--samples", "50",
                        "--out", str(tmp_path)]) == 5


class TestSurfaceCommand:
    def test_wrapping_surface(self, tmp_path):
        code = run_cli(["surface", "--m", "0.05", "--out", str(tmp_path)])
        assert code == 0
        env = load_envelope(tmp_path / "surface.json")
        assert env["results"]["degree"] == 1
        rows = (tmp_path / "surface.csv").read_text().splitlines()
        assert rows[0] == "theta,step,x,y,z"
        pts = np.array([[float(v) for v in r.split(",")[2:]] for r in rows[1:]])
        assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) < 1e-12
        assert (tmp_path / "surface.gp").exists()

    def test_csv_holds_measured_loops(self, tmp_path):
        # at --interp 1 the CSV rows are the loops the library measured,
        # and interpolation does not reach the degree
        args = ["surface", "--m", "0.3", "--n-meas", "5", "--ref-weight",
                "0.3", "--grid-theta", "0:3.141592653589793:33"]
        for interp in ("1", "3"):
            assert run_cli(args + ["--interp", interp,
                                   "--out", str(tmp_path / interp)]) == 0
        degree, thetas, vertices = analysis.trajectory_surface(
            Strength(0.3), np.linspace(0.0, np.pi, 33), n_meas=5,
            reference_weight=0.3)
        rows = np.loadtxt(tmp_path / "1" / "surface.csv", delimiter=",",
                          skiprows=1)
        assert np.array_equal(rows[:, 0], np.repeat(thetas, 6))
        assert np.array_equal(rows[:, 1], np.tile(np.arange(6), 33))
        unit = vertices / np.linalg.norm(vertices, axis=2, keepdims=True)
        assert np.max(np.abs(rows[:, 2:] - unit.reshape(-1, 3))) <= 1e-15
        assert [load_envelope(tmp_path / interp / "surface.json")
                ["results"]["degree"] for interp in ("1", "3")] == [degree] * 2

    def test_non_wrapping_surface(self, tmp_path):
        run_cli(["surface", "--m", "0.95", "--out", str(tmp_path)])
        env = load_envelope(tmp_path / "surface.json")
        assert env["results"]["degree"] == 0

    def test_m_one_rejected(self, tmp_path):
        assert run_cli(["surface", "--m", "1.0", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("grid", [[], ["--grid-theta",
                                           "0:3.141592653589793:33"]])
    def test_projective_n2_surface_exit_6(self, tmp_path, capsys, grid):
        out = tmp_path / "out"
        assert run_cli(["surface", "--m", "0", "--n-meas", "2", *grid,
                        "--out", str(out)]) == 6
        assert capsys.readouterr().err == (
            "error: singular surface: consecutive measurement axes are "
            "antipodal (theta=1.5708, segment=0)\n")
        assert not out.exists()

    def test_singular_surface_exit_6(self, tmp_path, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise AntipodalError("antipodal geodesic endpoints on trajectory",
                                 theta=1.57, segment=3)
        monkeypatch.setattr(analysis, "trajectory_surface", boom)
        assert run_cli(["surface", "--m", "0.5", "--out", str(tmp_path)]) == 6
        assert capsys.readouterr().err == (
            "error: singular surface: antipodal geodesic endpoints on "
            "trajectory (theta=1.57, segment=3)\n")


@pytest.mark.parametrize("argv, message", [
    (["phase", "--theta", "4", "--m", "0.5"], "theta=4.0 outside [0, pi]"),
    (["mc", "--theta", "1", "--m", "1.5"], "strength m=1.5 outside [0, 1]"),
    (["sweep", "--grid-m", "0:2:3"], "strength grid outside [0, 1]"),
    (["surface", "--m", "1.0"], "surface degree requires m in [0, 1)"),
])
def test_domain_error_exit_2(tmp_path, capsys, argv, message):
    assert run_cli(argv + ["--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--ref-weight", "1.5"], "reference_weight=1.5 outside (0, 1)"),
    (["sweep", "--ref-weight", "nan"], "reference_weight=nan outside (0, 1)"),
    (["surface", "--m", "0.5", "--ref-weight", "1.5"],
     "reference_weight=1.5 outside (0, 1)"),
    (["transition", "--ref-weight", "1.5"],
     "reference_weight=1.5 outside (0, 1)"),
    (["transition", "--tol", "nan"],
     "tol=nan below the supported resolution 1e-6"),
    (["phase", "--theta", "1", "--gamma-tau", "-1000"],
     "gamma_tau=-1000.0 must be >= 0"),
    (["phase", "--theta", "1"],
     "measurement strength required (--m, --gamma-tau or --projective)"),
    (["surface"], "measurement strength required (--m or --gamma-tau)"),
    (["transition", "--tol", "inf"], "tol=inf must be finite"),
    # a map has one row per distinct theta, so 0:0:3 would write one row
    (["sweep", "--grid-theta", "0:0:3", "--grid-m", "0:1:2"],
     "grid_theta: nodes of 0.0:0.0:3 are not distinct"),
])
def test_bad_value_exit_2_writes_nothing(tmp_path, capsys, argv, message):
    assert run_cli(argv + ["--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, code", [
    (["transition", "--tol", "x"], 2),
    (["surface", "--m", "0.3", "--interp", "nan"], 2),
    (["nosuch"], 2),
    (["--help"], 0),
    (["surface", "--help"], 0),
])
def test_main_returns_argparse_exits(tmp_path, capsys, argv, code):
    # cli.main itself, with no wrapper: a flag that does not parse returns
    # 2 with one error line and writes nothing; --help returns 0
    out = tmp_path / "out"
    assert cli.main(argv + ["--out", str(out)] if code else argv) == code
    errors = [line for line in capsys.readouterr().err.splitlines()
              if "error: " in line]
    assert len(errors) == (1 if code else 0)
    assert not out.exists()


#: Values that no option of ``transition`` accepts as they stand, and a
#: small valid value of each option.
_HOSTILE = [math.nan, math.inf, -math.inf, -1, 0, 2 ** 63, 1e300, "", "x"]
_VALID = {"tol": [1e-3, 0.05], "n_meas": [2, 3, 6],
          "ref_weight": [1e-8, 0.3], "assert_jump": ["pi", "1.0"]}


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(options=st.fixed_dictionaries({
    key: st.none() | st.tuples(st.sampled_from(valid + _HOSTILE),
                               st.sampled_from(["flag", "config"]))
    for key, valid in _VALID.items()}))
def test_transition_inputs_exit_cleanly(tmp_path_factory, options):
    # each option absent, valid or hostile, as a flag or a config key: the
    # run writes a valid envelope (exit 0 or 1) or exits with one error
    # line and no file; argparse's own exit counts as its exit code
    root = tmp_path_factory.mktemp("transition")
    out, argv, config = root / "out", ["transition"], {}
    for key, given_as in options.items():
        if given_as is None:
            continue
        value, route = given_as
        if route == "config":
            config[key] = value
        else:
            argv += ["--" + key.replace("_", "-"), str(value)]
    if config:
        (root / "config.json").write_text(json.dumps(config), encoding="utf-8")
        argv += ["--config", str(root / "config.json")]
    stderr = io.StringIO()
    with (contextlib.redirect_stdout(io.StringIO()),
          contextlib.redirect_stderr(stderr)):
        code = run_cli(argv + ["--out", str(out)])
    if code in (0, 1):
        load_envelope(out / "transition.json")
    else:
        assert code in (2, 3, 4), (argv, config)
        errors = [line for line in stderr.getvalue().splitlines()
                  if "error: " in line]
        assert len(errors) == 1, (argv, config, stderr.getvalue())
        assert not out.exists()


#: A small valid value of each ``sweep`` option, and grids with hostile
#: ends and counts.  A grid of 600000 nodes or more exceeds MAX_SWEEP_CELLS
#: with any other grid, since a grid has at least 2 nodes.
_SWEEP_VALID = {"grid_theta": ["0:3.14159:5", "1:0.5:3",
                               {"start": 0.5, "stop": 3.0, "count": 4}],
                "grid_m": ["0:1:3", "0.2:0.8:4"], "n_meas": [2, 3, 6],
                "ref_weight": [1e-8, 0.3], "format": ["csv", "json", "both"]}
_HOSTILE_GRIDS = ["nan:1:3", "0:inf:3", "-1:1:3", "0:4:3", "0:0:3", "0:1:1",
                  "0:1:-1", "0:1:3.5", "0:1:1e300", f"0:1:{2 ** 63}",
                  "0:1:600000", {"start": 0, "stop": 1, "count": 2 ** 40},
                  {"start": 0, "stop": 1}]
_LARGEST_VALID_GRID = cli.OPTIONS["grid_theta"].default["count"]


def _given_parses(key, given_as) -> bool:
    """Whether the CLI reads ``given_as`` = (value, route) for ``key``."""
    value, route = given_as
    try:
        if route == "config":
            cli._config_value(key, value)
        else:
            cli.OPTIONS[key].parse(str(value))
    except (cli.CliError, argparse.ArgumentTypeError, ValueError):
        return False
    return True


def _sweep_cells(options) -> int:
    """The cell count of ``options``' grids, defaults for absent ones."""
    cells = 1
    for key in ("grid_theta", "grid_m"):
        given = options[key]
        if given is None:
            cells *= cli.OPTIONS[key].default["count"]
        elif given[1] == "config" and isinstance(given[0], dict):
            cells *= given[0]["count"]
        else:
            cells *= int(str(given[0]).split(":")[2])
    return cells


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(options=st.fixed_dictionaries({
    # valid and hostile values as two branches, so that about a quarter of
    # the runs give no hostile value and reach the map or the cell limit
    key: st.none() | st.tuples(
        st.sampled_from(valid)
        | st.sampled_from(_HOSTILE
                          + (_HOSTILE_GRIDS if key.startswith("grid") else [])),
        st.sampled_from(["flag", "config"]))
    for key, valid in _SWEEP_VALID.items()}))
@example(options={"grid_theta": ("0:1:600000", "flag"), "grid_m": None,
                  "n_meas": None, "ref_weight": None, "format": None})
@example(options={"grid_theta": ("0:3.14159:5", "config"),
                  "grid_m": ({"start": 0, "stop": 1, "count": 2 ** 40},
                             "config"),
                  "n_meas": (2, "flag"), "ref_weight": None,
                  "format": ("json", "flag")})
def test_sweep_inputs_exit_cleanly(tmp_path_factory, options):
    # the twin of test_transition_inputs_exit_cleanly for sweep; a grid
    # count above the largest valid one is never laid out, and a run whose
    # every value reads but whose cells exceed the format's limit exits 3.
    # A flag is given as --key=value, so that a value such as -1:1:3 reaches
    # the option's parser instead of reading as another option
    root = tmp_path_factory.mktemp("sweep")
    out, argv, config = root / "out", ["sweep"], {}
    for key, given_as in options.items():
        if given_as is None:
            continue
        value, route = given_as
        if route == "config":
            config[key] = value
        else:
            argv.append(f"--{key.replace('_', '-')}={value}")
    if config:
        (root / "config.json").write_text(json.dumps(config), encoding="utf-8")
        argv += ["--config", str(root / "config.json")]
    real_grid_values = cli._grid_values

    def small_grid_values(grid):
        assert grid["count"] <= _LARGEST_VALID_GRID, grid
        return real_grid_values(grid)

    stderr = io.StringIO()
    with (mock.patch.object(cli, "_grid_values", small_grid_values),
          contextlib.redirect_stdout(io.StringIO()),
          contextlib.redirect_stderr(stderr)):
        code = run_cli(argv + ["--out", str(out)])
    if all(given is None or _given_parses(key, given)
           for key, given in options.items()):
        fmt = options["format"][0] if options["format"] else "csv"
        limit = (cli.MAX_SWEEP_CELLS if fmt == "csv"
                 else cli.MAX_SWEEP_JSON_CELLS)
        if _sweep_cells(options) > limit:
            assert code == 3, (argv, config)
    if code in (0, 1):
        load_envelope(out / "sweep.json")
    else:
        assert code in (2, 3), (argv, config)
        errors = [line for line in stderr.getvalue().splitlines()
                  if "error: " in line]
        assert len(errors) == 1, (argv, config, stderr.getvalue())
        assert not out.exists()


_PROTOCOL_POINT = ["--theta", "1", "--m", "0.5"]


@pytest.mark.parametrize("argv, config, key", [
    (["phase", "--m", "0.5"], {"theta": "x"}, "theta"),
    (["transition"], {"tol": "x"}, "tol"),
    (["surface", "--m", "0.5"], {"interp": "x"}, "interp"),
    (["phase", *_PROTOCOL_POINT], {"phi_schedule": "abcdef"}, "phi_schedule"),
    (["phase", *_PROTOCOL_POINT], {"phi_schedule": ["a"] * 6}, "phi_schedule"),
    (["phase", *_PROTOCOL_POINT], {"n_meas": 6.7}, "n_meas"),
    (["phase", *_PROTOCOL_POINT], {"n_meas": True}, "n_meas"),
    (["phase", "--theta", "1"], {"m": [0.5]}, "m"),
    (["mc", *_PROTOCOL_POINT], {"samples": 1000.9}, "samples"),
    (["mc", *_PROTOCOL_POINT], {"seed": 1.5}, "seed"),
    (["surface", "--m", "0.5"], {"interp": 2.9}, "interp"),
    (["sweep"], {"format": "xml"}, "format"),
    (["sweep"], {"grid_m": "0:1"}, "grid_m"),
    (["phase"], {"theta": 1.0, "projective": "no"}, "projective"),
    (["phase"], {"theta": 1.0, "projective": 1}, "projective"),
    (["transition"], {"assert_jump": "abc"}, "assert_jump"),
    (["transition"], {"out": ["a"]}, "out"),
    (["sweep"], {"grid_theta": {"start": 0.0, "stop": 0.0, "count": 3}},
     "grid_theta"),
])
def test_config_value_read_by_flag_parser(tmp_path, capsys, argv, config, key):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert run_cli(argv + ["--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {key}: ")
    assert not out.exists()


@pytest.mark.parametrize("loaded", [3, [["theta", 1.0]]])
def test_config_must_be_an_object(tmp_path, capsys, loaded):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(loaded))
    out = tmp_path / "out"
    assert run_cli(["phase", *_PROTOCOL_POINT, "--config", str(cfg),
                    "--out", str(out)]) == 2
    assert capsys.readouterr().err.endswith("is not a JSON object\n")
    assert not out.exists()


def test_config_string_is_flag_text(tmp_path):
    flagged, configured = tmp_path / "flag", tmp_path / "config"
    assert run_cli(["phase", "--theta", "90deg", "--projective",
                    "--out", str(flagged)]) == 0
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"theta": "90deg", "projective": True,
                               "out": str(flagged)}))
    assert run_cli(["phase", "--config", str(cfg)]) == 0
    assert run_cli(["phase", "--config", str(cfg),
                    "--out", str(configured)]) == 0
    first = (flagged / "phase.json").read_text()
    assert first.replace(str(flagged), str(configured)) == (
        configured / "phase.json").read_text()


def test_config_null_leaves_default(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n_meas": None, "ref_weight": None,
                               "gamma_tau": None}))
    assert run_cli(["phase", *_PROTOCOL_POINT, "--config", str(cfg),
                    "--out", str(tmp_path)]) == 0
    config = load_envelope(tmp_path / "phase.json")["config"]
    assert config["n_meas"] == 6 and config["ref_weight"] == 0.5


def test_bad_jump_gate_rejected_before_the_search(tmp_path, monkeypatch,
                                                  capsys):
    def no_search(*args, **kwargs):
        pytest.fail("transition searched with a bad gate")
    monkeypatch.setattr(transition, "scalar_search", no_search)
    assert run_cli(["transition", "--assert-jump", "abc",
                    "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "argument --assert-jump: expected 'pi' or a finite jump" in err
    assert not list(tmp_path.iterdir())


def test_jump_gate_echoed_as_given(tmp_path):
    assert run_cli(["transition", "--assert-jump", "PI", "--tol", "1e-3",
                    "--out", str(tmp_path)]) == 0
    env = load_envelope(tmp_path / "transition.json")
    assert env["config"]["assert_jump"] == "PI"


@pytest.mark.parametrize("argv", [
    ["phase", "--theta", "1", "--m", "0.5"],
    ["sweep"],
    ["transition"],
    ["mc", "--theta", "1", "--m", "0.5"],
    ["surface", "--m", "0.5"],
])
def test_oversize_n_meas_exit_3(tmp_path, argv):
    assert run_cli(argv + ["--n-meas", "100000000",
                           "--out", str(tmp_path)]) == 3
    assert not any(tmp_path.iterdir())


def test_n_meas_bound_is_inclusive(tmp_path):
    base = ["phase", "--theta", "1", "--m", "0.5", "--out", str(tmp_path)]
    assert run_cli(base + ["--n-meas", str(cli.MAX_N_MEAS)]) == 0
    assert run_cli(base + ["--n-meas", str(cli.MAX_N_MEAS + 1)]) == 3


def test_oversize_samples_exit_3(tmp_path):
    assert run_cli(["mc", "--theta", "1", "--m", "0.5",
                    "--samples", str(10 ** 12), "--out", str(tmp_path)]) == 3
    assert not any(tmp_path.iterdir())


def test_samples_bound_is_inclusive(tmp_path, monkeypatch):
    # the sampler is stubbed: only the bound is under test
    seen = []

    def exact_estimate(spec, cfg, workers=1):
        seen.append(cfg.n_samples)
        res, _ = run_protocol_analytic(spec)
        mean = res.contrast * complex(math.cos(res.phase), math.sin(res.phase))
        return McEstimate(mean=mean, stderr_re=1e-3, stderr_im=1e-3,
                          n_samples=cfg.n_samples, insufficient=False)

    monkeypatch.setattr(trajectories, "mc_interference", exact_estimate)
    base = ["mc", "--theta", "1", "--m", "0.5", "--out", str(tmp_path),
            "--samples"]
    assert run_cli(base + [str(cli.MAX_MC_SAMPLES)]) == 0
    assert run_cli(base + [str(cli.MAX_MC_SAMPLES + 1)]) == 3
    assert seen == [cli.MAX_MC_SAMPLES]


def test_sample_steps_bound_is_inclusive(tmp_path, monkeypatch):
    # the sampler is stubbed: only the bound on samples x n_meas is under test
    seen = []

    def exact_estimate(spec, cfg, workers=1):
        seen.append(cfg.n_samples)
        res, _ = run_protocol_analytic(spec)
        mean = res.contrast * complex(math.cos(res.phase), math.sin(res.phase))
        return McEstimate(mean=mean, stderr_re=1e-3, stderr_im=1e-3,
                          n_samples=cfg.n_samples, insufficient=False)

    monkeypatch.setattr(trajectories, "mc_interference", exact_estimate)
    n_meas = cli.MAX_N_MEAS
    inside = cli.MAX_MC_SAMPLE_STEPS // n_meas
    base = ["mc", "--theta", "1", "--m", "0.5", "--n-meas", str(n_meas),
            "--samples"]
    over = tmp_path / "over"
    assert run_cli(base + [str(inside + 1), "--out", str(over)]) == 3
    assert not over.exists()
    assert run_cli(base + [str(inside), "--out", str(tmp_path / "in")]) == 0
    assert seen == [inside]


def _no_grid(grid):
    pytest.fail(f"grid {grid} allocated")


@pytest.mark.parametrize("argv", [
    ["sweep", "--grid-theta", "0:1:10000000000000"],
    ["surface", "--m", "0.5", "--grid-theta", "0:3.14159:10000000000000"],
])
def test_huge_grid_count_exit_3_before_allocation(tmp_path, monkeypatch, argv):
    monkeypatch.setattr(cli, "_grid_values", _no_grid)
    assert run_cli(argv + ["--out", str(tmp_path)]) == 3
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("interp", [0, -1])
def test_interp_below_one_exit_2_before_allocation(tmp_path, monkeypatch,
                                                   capsys, interp):
    # an interp below 1 would make the points bound's product <= 0
    monkeypatch.setattr(cli, "_grid_values", _no_grid)
    out = tmp_path / "out"
    assert run_cli(["surface", "--m", "0.3", "--grid-theta",
                    "0:3.14159:1000000000000", "--interp", str(interp),
                    "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: interp={interp} must be positive\n"
    assert not out.exists()


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_mc_seed_checked_before_reference(tmp_path, monkeypatch, capsys, seed):
    def no_reference(spec):
        pytest.fail("analytic reference computed")

    monkeypatch.setattr("geophase.spec.closed_form", no_reference)
    out = tmp_path / "out"
    assert run_cli(["mc", *_PROTOCOL_POINT, "--seed", str(seed),
                    "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: seed must fit in 64 bits\n"
    assert not out.exists()


@pytest.mark.parametrize("cell", [
    ["--theta", "1.2", "--m", "0.6"],
    ["--theta", "90deg", "--projective"],
    ["--theta", "1.2", "--gamma-tau", "0.75"],
    ["--theta", "1.2", "--m", "0.6", "--n-meas", "4096"],
    ["--theta", "0", "--m", "0.6"],
    ["--theta", "3.141592653589793", "--m", "0.6"],
    ["--config", "SCHEDULE"],
], ids=["readme", "projective", "gamma-tau", "n-meas-4096", "theta-0",
        "theta-pi", "custom-schedule"])
def test_mc_reference_is_the_phase_command(tmp_path, cell):
    # the oracle of a session's mc: its analytic block is phase's result,
    # bit for bit
    config = tmp_path / "schedule.json"
    config.write_text(json.dumps({"theta": 1.9, "m": 0.3, "n_meas": 5,
                                  "phi_schedule": [-0.4, -1.9, -2.2, -4.0,
                                                   -6.0]}))
    cell = [str(config) if a == "SCHEDULE" else a for a in cell]
    assert run_cli(["phase", *cell, "--out", str(tmp_path / "phase")]) == 0
    assert run_cli(["mc", *cell, "--samples", "100",
                    "--out", str(tmp_path / "mc")]) in (0, 1)
    phase = load_envelope(tmp_path / "phase" / "phase.json")["results"]
    analytic = load_envelope(tmp_path / "mc" / "mc.json")["results"]["analytic"]
    assert analytic["chi"] == phase["chi"]
    assert analytic["contrast"] == phase["contrast"]


@pytest.mark.parametrize("command", [["sweep"], ["surface", "--m", "0.5"]])
@pytest.mark.parametrize("grid", [
    {"start": 0, "stop": 1, "count": 1.5},
    {"start": 0, "stop": 1, "count": "64"},
    {"start": 0, "stop": 1, "count": True},
    {"start": 0, "stop": 1, "count": 1},
    {"start": 0, "stop": 1},
    {"start": 0, "stop": 1, "count": 64, "step": 0.1},
    {"start": "0", "stop": 1, "count": 64},
    {"start": 0, "stop": float("inf"), "count": 64},
    [0, 1, 64],
])
def test_malformed_config_grid_exit_2(tmp_path, monkeypatch, capsys, command,
                                      grid):
    monkeypatch.setattr(cli, "_grid_values", _no_grid)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"grid_theta": grid}))
    out = tmp_path / "out"
    assert run_cli(command + ["--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: grid_theta: ")
    assert not out.exists()


@pytest.mark.parametrize("command", [["sweep"], ["surface", "--m", "0.5"]])
def test_oversize_config_grid_exit_3(tmp_path, monkeypatch, command):
    monkeypatch.setattr(cli, "_grid_values", _no_grid)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(
        {"grid_theta": {"start": 0, "stop": 3, "count": 10 ** 13}}))
    out = tmp_path / "out"
    assert run_cli(command + ["--config", str(cfg), "--out", str(out)]) == 3
    assert not out.exists()


class _Reached(Exception):
    pass


def _reached(grid):
    raise _Reached


@pytest.mark.parametrize("fmt", ["json", "both"])
def test_oversize_json_sweep_exit_3(tmp_path, monkeypatch, fmt):
    # 2**16 + 1 thetas x 2 ms: over the JSON bound, far under MAX_SWEEP_CELLS
    monkeypatch.setattr(cli, "_grid_values", _no_grid)
    assert 2 * (2 ** 16 + 1) > cli.MAX_SWEEP_JSON_CELLS
    out = tmp_path / "flag"
    assert run_cli(["sweep", "--format", fmt, "--grid-theta",
                    f"0:3:{2 ** 16 + 1}", "--grid-m", "0:1:2",
                    "--out", str(out)]) == 3
    assert not out.exists()
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(
        {"format": fmt, "grid_theta": {"start": 0, "stop": 3,
                                       "count": 2 ** 16 + 1},
         "grid_m": {"start": 0, "stop": 1, "count": 2}}))
    out = tmp_path / "config"
    assert run_cli(["sweep", "--config", str(cfg), "--out", str(out)]) == 3
    assert not out.exists()
    # the bound is inclusive, and csv keeps the larger MAX_SWEEP_CELLS
    monkeypatch.setattr(cli, "_grid_values", _reached)
    for fmt_, count in ((fmt, 2 ** 16), ("csv", 2 ** 16 + 1)):
        with pytest.raises(_Reached):
            run_cli(["sweep", "--format", fmt_, "--grid-theta",
                     f"0:3:{count}", "--grid-m", "0:1:2",
                     "--out", str(tmp_path / "in")])


def test_surface_points_bound_is_inclusive(tmp_path, monkeypatch):
    # the surface is stubbed: only the bound on its points is under test
    seen = []

    def one_point(strength, thetas, *, n_meas, reference_weight):
        seen.append((thetas.size, n_meas))
        return 1, thetas[:1], np.array([[[0.0, 0.0, 1.0]]])

    monkeypatch.setattr(analysis, "trajectory_surface", one_point)
    base = ["surface", "--m", "0.5", "--n-meas", "4", "--interp", "8",
            "--out", str(tmp_path), "--grid-theta"]
    count = cli.MAX_SURFACE_POINTS // (5 * 8)
    assert count * 5 * 8 == cli.MAX_SURFACE_POINTS
    assert run_cli(base + [f"0:3.141592653589793:{count + 1}"]) == 3
    assert run_cli(base + [f"0:3.141592653589793:{count}"]) == 0
    # the default grid and interp still run at the largest n_meas
    assert run_cli(["surface", "--m", "0.5", "--n-meas", str(cli.MAX_N_MEAS),
                    "--out", str(tmp_path)]) == 0
    assert seen == [(count, 4), (64, cli.MAX_N_MEAS)]


def _python(*args, env=None, **kwargs):
    """Run a new interpreter on ``args`` with the package on its path and
    the variables of ``env`` set, or unset where they are None."""
    src = str(Path(geophase.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")])),
           **(env or {})}
    kwargs = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **kwargs}
    return subprocess.run([sys.executable, *args], text=True, timeout=60,
                          env={k: v for k, v in env.items() if v is not None},
                          **kwargs)


def _fresh_interpreter(code):
    """Run ``code`` in a new interpreter with the package on its path."""
    return _python("-c", code, check=True)


def test_cli_import_loads_no_scipy():
    code = ("import sys, geophase.cli; "
            "print(sorted(k for k in sys.modules if k.startswith("
            "('scipy', 'multiprocessing', 'concurrent.futures.process'))))")
    assert _fresh_interpreter(code).stdout.strip() == "[]"


def test_package_import_loads_no_module():
    code = ("import sys, geophase; "
            "print(sorted(k for k in sys.modules "
            "if k.startswith(('geophase.', 'numpy'))))")
    assert _fresh_interpreter(code).stdout.strip() == "[]"


def test_transition_and_histogram_load_no_optimize_or_stats():
    code = ("import sys\n"
            "from geophase import analysis, trajectories\n"
            "from geophase.measurement import Strength\n"
            "from geophase.protocol import ProtocolSpec\n"
            "analysis.find_critical_strength()\n"
            "trajectories.readout_histogram(\n"
            "    ProtocolSpec(theta=1.0, strength=Strength(0.5)),\n"
            "    trajectories.McConfig(n_samples=2000, seed=1))\n"
            "print(sorted(k for k in sys.modules if k.startswith('scipy')))")
    assert _fresh_interpreter(code).stdout.strip() == "[]"


def test_no_scipy_at_run_time(tmp_path):
    # no module of the package imports scipy, and neither an mc run (its
    # pool workers included) nor a readout histogram loads it
    src = Path(geophase.__file__).resolve().parent
    for path in src.rglob("*.py"):
        assert not re.search(r"^\s*(from|import)\s+scipy\b",
                             path.read_text(encoding="utf-8"), re.M), path
    code = ("import os, sys\n"
            "from geophase import cli, trajectories\n"
            "from geophase.measurement import Strength\n"
            "from geophase.protocol import ProtocolSpec\n"
            "def scipy_modules(_=None):\n"
            "    return sorted(k for k in sys.modules if k.startswith('scipy'))\n"
            "for threads in ('1', '2'):\n"
            "    os.environ['GEOPHASE_THREADS'] = threads\n"
            f"    out = os.path.join({str(tmp_path)!r}, 't' + threads)\n"
            "    code = cli.main(['mc', '--theta', '1.2', '--m', '0.6',\n"
            "                     '--samples', '10000', '--seed', '42',\n"
            "                     '--out', out])\n"
            "    assert code == 0, code\n"
            "trajectories.readout_histogram(\n"
            "    ProtocolSpec(theta=1.0, strength=Strength(0.5)),\n"
            "    trajectories.McConfig(n_samples=2000, seed=1))\n"
            "workers = [m for pool in trajectories._pools.values()\n"
            "           for m in pool.map(scipy_modules, range(4))]\n"
            "print(workers == [[]] * len(workers), scipy_modules())")
    out = _fresh_interpreter(code).stdout.strip().splitlines()[-1]
    assert out == "True []"


def test_worker_pool_exits_silently():
    # sys keeps the module alive until the interpreter clears module
    # dicts, as a test runner does; the pool must be shut down before
    # concurrent.futures.process, imported after it, is cleared
    code = ("import sys\n"
            "from geophase import trajectories\n"
            "from geophase.measurement import Strength\n"
            "from geophase.protocol import ProtocolSpec\n"
            "sys.keep_alive = trajectories\n"
            "trajectories.mc_interference(\n"
            "    ProtocolSpec(theta=1.0, strength=Strength(0.5)),\n"
            "    trajectories.McConfig(n_samples=9000, seed=1), workers=2)")
    assert _fresh_interpreter(code).stderr == ""


#: (arguments, exit code) of commands whose process must behave as
#: ``cli.main`` does in process; OUT and FILE stand for a new directory and
#: a file.
_PROCESS_CASES = [
    (["schema"], 0),
    (["phase", *_PROTOCOL_POINT, "--out", "OUT"], 0),
    (["--help"], 0),
    (["phase", "--theta", "x", "--out", "OUT"], 2),
    (["phase", *_PROTOCOL_POINT, "--out", "FILE"], 2),
    (["phase", *_PROTOCOL_POINT, "--n-meas", str(cli.MAX_N_MEAS + 1),
      "--out", "OUT"], 3),
    (["mc", *_PROTOCOL_POINT, "--samples", "50", "--out", "OUT"], 5),
    (["mc", "--theta", "0.001", "--projective", "--samples", "10000",
      "--seed", "42", "--out", "OUT"], 1),
]


@pytest.mark.parametrize("unbuffered", [None, "1"],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv, code", _PROCESS_CASES,
                         ids=["schema", "phase", "help", "bad-flag", "bad-out",
                              "n-meas-oversize", "mc-insufficient",
                              "mc-pole-gate"])
def test_process_keeps_the_cli_contract(tmp_path, monkeypatch, capsys, argv,
                                        code, unbuffered):
    # `python -m geophase.cli` ends by os._exit once it has flushed; its
    # exit code, stdout and stderr are cli.main's in process
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps --help to it
    (tmp_path / "file").write_text("keep")
    paths = {"OUT": str(tmp_path / "out"), "FILE": str(tmp_path / "file")}
    argv = [paths.get(a, a) for a in argv]
    assert cli.main(argv) == code
    inside = capsys.readouterr()
    proc = _python("-m", "geophase.cli", *argv,
                   env={"PYTHONUNBUFFERED": unbuffered})
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        code, inside.out, inside.err)


class _Exited(Exception):
    pass


def test_script_joins_the_pool_before_it_exits(tmp_path, monkeypatch,
                                               capsys):
    # the os._exit of script() raises here instead, and only here: a
    # worker forked in this test inherits the patch and must still exit
    parent, real_exit = os.getpid(), os._exit

    def fake_exit(code):
        if os.getpid() != parent:
            real_exit(code)
        raise _Exited(code)

    workers = []
    shutdown = trajectories._shutdown_pools

    def record_workers():
        workers.extend(process for pool in trajectories._pools.values()
                       for process in pool._processes.values())
        shutdown()

    monkeypatch.setattr(os, "_exit", fake_exit)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(cli, "_traced", lambda: False)
    monkeypatch.setattr(trajectories, "_shutdown_pools", record_workers)
    monkeypatch.setenv("GEOPHASE_THREADS", "2")
    with pytest.raises(_Exited) as exited:
        cli.script(["mc", *_PROTOCOL_POINT, "--samples", "10000",
                    "--out", str(tmp_path)])
    assert exited.value.args == (0,)
    assert capsys.readouterr().out.startswith("mc: ")
    assert trajectories._pools == {}
    assert len(workers) >= 2
    assert not any(process.is_alive() for process in workers)


def test_profiler_keeps_the_normal_exit(tmp_path):
    stats = tmp_path / "F"
    proc = _python("-m", "cProfile", "-o", str(stats), "-m", "geophase.cli",
                   "schema")
    assert proc.returncode == 0
    assert stats.stat().st_size > 0


def test_tracer_keeps_the_normal_exit():
    code = ("import atexit, runpy, sys\n"
            "sys.settrace(lambda *args: None)\n"
            "atexit.register(print, 'atexit ran')\n"
            "runpy.run_module('geophase.cli', run_name='__main__')\n")
    proc = _python("-c", code, "schema")
    assert proc.returncode == 0
    assert proc.stdout.endswith("}\natexit ran\n")


@pytest.mark.parametrize("unbuffered", [None, "1"],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv, written", [
    (["phase", *_PROTOCOL_POINT], ["phase.json", "phase.timing.json"]),
    (["schema"], ["envelope.schema.json"]),
], ids=["phase", "schema"])
def test_closed_stdout_is_an_output_error(tmp_path, argv, written,
                                          unbuffered):
    # a stdout whose reader is gone fails the summary's write (unbuffered)
    # or the final flush (buffered): one error line, exit 2, and the run's
    # files stay as a normal run writes them
    argv = argv + ["--out", str(tmp_path)]
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _python("-m", "geophase.cli", *argv, stdout=write,
                       env={"PYTHONUNBUFFERED": unbuffered})
    finally:
        os.close(write)
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write stdout: Broken pipe\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == written
    primary = [tmp_path / name for name in written
               if not name.endswith(".timing.json")]
    closed = [path.read_bytes() for path in primary]
    assert cli.main(argv) == 0
    assert closed == [path.read_bytes() for path in primary]


@pytest.mark.parametrize("unbuffered", [None, "1"],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["--help"], ["phase", "--help"]],
                         ids=["help", "phase-help"])
def test_help_to_a_closed_stdout_is_an_output_error(argv, unbuffered):
    # argparse drops the OSError of its own write of the help text; the
    # help goes through the summary's print instead, so it is one error
    # line and exit 2 in both modes, not a silent exit 0
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _python("-m", "geophase.cli", *argv, stdout=write,
                       env={"PYTHONUNBUFFERED": unbuffered})
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (
        2, "error: cannot write stdout: Broken pipe\n")


def test_no_stdout_at_all_exits_as_before(tmp_path):
    # started with file descriptor 1 closed, Python has no sys.stdout and
    # print writes nowhere; the run still succeeds and writes its files
    proc = _python("-m", "geophase.cli", "phase", *_PROTOCOL_POINT,
                   "--out", str(tmp_path), stdout=None,
                   preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "phase.json", "phase.timing.json"]


def test_console_script_is_the_main_block_entry():
    # `geophase` and `python -m geophase.cli` end the same way
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    pyproject = tomllib.loads((root / "pyproject.toml").read_text())
    target = pyproject["project"]["scripts"]["geophase"]
    module, _, name = target.partition(":")
    assert getattr(importlib.import_module(module), name) is cli.script
    source = Path(cli.__file__).read_text(encoding="utf-8")
    assert source.endswith('\nif __name__ == "__main__":\n    script()\n')


def _no_compute(*args, **kwargs):
    pytest.fail("computed with an unusable --out")


@pytest.mark.parametrize("argv, computes", [
    (["phase", *_PROTOCOL_POINT], ["spec.closed_form"]),
    (["sweep", "--grid-theta", "0:3:8", "--grid-m", "0:1:3"],
     ["analysis.sweep_phase_map"]),
    (["transition"], ["transition.scalar_search"]),
    (["mc", *_PROTOCOL_POINT],
     ["spec.closed_form", "trajectories.mc_interference"]),
    (["surface", "--m", "0.5"], ["analysis.trajectory_surface"]),
    (["schema"], []),
    # --out is checked before the command's own inputs: 50 samples alone
    # exit 5
    (["mc", *_PROTOCOL_POINT, "--samples", "50"],
     ["spec.closed_form", "trajectories.mc_interference"]),
])
@pytest.mark.parametrize("below", ["", "sub"])
def test_unusable_out_exit_2_before_work(tmp_path, monkeypatch, capsys,
                                          argv, computes, below):
    for name in computes:
        monkeypatch.setattr(f"geophase.{name}", _no_compute)
    blocker = tmp_path / "F"
    blocker.write_text("keep")
    out = blocker / below if below else blocker
    assert run_cli(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: --out {out}: {blocker} is not a "
                            f"writable directory\n")
    assert captured.out == ""
    assert blocker.read_text() == "keep"
    assert [p.name for p in tmp_path.iterdir()] == ["F"]


_SMALL_RUNS = [
    ["phase", *_PROTOCOL_POINT],
    ["sweep", "--grid-theta", "0:3:8", "--grid-m", "0:1:3"],
    ["transition", "--tol", "1e-3"],
    ["mc", *_PROTOCOL_POINT, "--samples", "500"],
    ["surface", "--m", "0.5", "--grid-theta", "0:3.141592653589793:33",
     "--interp", "1"],
]


@pytest.mark.parametrize("argv, blocked", [
    *zip(_SMALL_RUNS, ["phase.json", "sweep.csv", "transition.json",
                       "mc.json", "surface.csv"]),
    (["schema"], "envelope.schema.json"),
    (_SMALL_RUNS[1], "sweep.json"),
    (_SMALL_RUNS[4], "surface.json"),
    *((argv, f"{argv[0]}.timing.json") for argv in _SMALL_RUNS),
], ids=["phase", "sweep", "transition", "mc", "surface", "schema",
        "sweep-json", "surface-json", *(f"{argv[0]}-timing"
                                        for argv in _SMALL_RUNS)])
def test_unwritable_file_exit_2(tmp_path, capsys, argv, blocked):
    # a directory holds the name of a file the command writes: its first,
    # or one written after others, which must not stay behind either
    blocker = tmp_path / blocked
    blocker.mkdir()
    (blocker / "keep").write_text("keep")
    assert run_cli(argv + ["--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write {blocker}: Is a directory\n"
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == [blocked]
    assert [p.name for p in blocker.iterdir()] == ["keep"]
    assert (blocker / "keep").read_text() == "keep"


@pytest.mark.parametrize("argv", _SMALL_RUNS,
                         ids=lambda argv: argv[0])
def test_timing_sidecar(tmp_path, argv):
    assert run_cli(argv + ["--out", str(tmp_path)]) == 0
    sidecar = json.loads((tmp_path / f"{argv[0]}.timing.json").read_text())
    assert set(sidecar) == {"command", "load_seconds", "wall_seconds"}
    assert sidecar["command"] == argv[0]
    for key in ("load_seconds", "wall_seconds"):
        assert math.isfinite(sidecar[key])
        assert sidecar[key] >= 0


_LOADS_CLI = ["geophase.cli", "geophase.errors"]
_LOADS_PHASE = [*_LOADS_CLI, "geophase.spec"]
_LOADS_ANALYSIS = sorted([*_LOADS_PHASE, "geophase.analysis",
                          "geophase.protocol", "geophase.transition"])


@pytest.mark.parametrize("argv, code, loads, numpy", [
    (None, None, _LOADS_CLI, False),
    (["schema"], 0, _LOADS_CLI, False),
    (["--help"], 0, _LOADS_CLI, False),
    (["phase", "--theta", "x"], 2, _LOADS_CLI, False),
    (["phase", "--config", "BAD"], 2, _LOADS_CLI, False),
    (_SMALL_RUNS[0], 0, _LOADS_PHASE, False),
    (["phase", "--theta", "4", "--m", "0.5"], 2, _LOADS_PHASE, False),
    ([*_SMALL_RUNS[0], "--n-meas", "0"], 2, _LOADS_PHASE, False),
    ([*_SMALL_RUNS[0], "--ref-weight", "1.5"], 2, _LOADS_PHASE, False),
    (["phase", "--config", "SCHEDULE"], 2, _LOADS_PHASE, False),
    (_SMALL_RUNS[1], 0, _LOADS_ANALYSIS, True),
    (_SMALL_RUNS[2], 0, sorted([*_LOADS_PHASE, "geophase.transition"]),
     False),
    (_SMALL_RUNS[3], 0, sorted([*_LOADS_PHASE, "geophase.protocol",
                                "geophase.trajectories"]), True),
    (_SMALL_RUNS[4], 0, _LOADS_ANALYSIS, True),
], ids=["import", "schema", "help", "bad-flag", "bad-config", "phase",
        "phase-theta", "phase-n-meas", "phase-ref-weight", "phase-schedule",
        "sweep", "transition", "mc", "surface"])
def test_each_command_loads_only_its_modules(tmp_path, argv, code, loads,
                                             numpy):
    # each process loads the package modules its command calls and no
    # other; numpy comes with the first module that computes on arrays
    # (phase computes on Python numbers, and so refuses its inputs too),
    # and `_run_command` has loaded them all before the command starts (late
    # is empty; numpy's own lazy submodules are not counted, but numpy.ma,
    # which np.unique imports on its first call, is never loaded)
    bad_config = tmp_path / "bad.json"
    bad_config.write_text('{"n_meas": 6.5}')
    schedule_config = tmp_path / "schedule.json"
    schedule_config.write_text(
        '{"theta": 1.0, "m": 0.5, "phi_schedule": [-1.0, -2.0]}')
    configs = {"BAD": str(bad_config), "SCHEDULE": str(schedule_config)}
    if argv is not None and argv != ["--help"]:
        argv = [configs.get(a, a) for a in argv]
        argv += ["--out", str(tmp_path / "out")]
    script = ("import sys\n"
              "from geophase import cli\n"
              "def ours():\n"
              "    return {k for k in sys.modules\n"
              "            if k == 'numpy' or k.startswith('geophase.')}\n"
              "late = set()\n"
              "def spy(fn):\n"
              "    def run(cfg):\n"
              "        before = ours()\n"
              "        try:\n"
              "            return fn(cfg)\n"
              "        finally:\n"
              "            late.update(ours() - before)\n"
              "    return run\n"
              "for name in cli.COMMAND_MODULES:\n"
              "    setattr(cli, 'cmd_' + name, spy(getattr(cli, 'cmd_' + name)))\n"
              "code = None\n"
              f"if {argv!r} is not None:\n"
              "    try:\n"
              f"        code = cli.main({argv!r})\n"
              "    except SystemExit as exc:\n"
              "        code = exc.code\n"
              "print(code, sorted(ours() - {'numpy'}),\n"
              "      'numpy' in sys.modules, sorted(late),\n"
              "      'numpy.ma' in sys.modules)")
    last = _fresh_interpreter(script).stdout.strip().splitlines()[-1]
    assert last == f"{code} {loads} {numpy} [] False"


@pytest.mark.parametrize("threads", ["0", "-4", "two"])
def test_bad_worker_count_exit_2_writes_nothing(tmp_path, monkeypatch, capsys,
                                                threads):
    monkeypatch.setenv("GEOPHASE_THREADS", threads)
    monkeypatch.setattr(trajectories, "mc_interference", _no_compute)
    out = tmp_path / "out"
    assert run_cli(["mc", *_PROTOCOL_POINT, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: GEOPHASE_THREADS={threads!r} is not an integer >= 1\n")
    assert not out.exists()


def test_csv_rows_format_each_value_as_before(tmp_path):
    floats = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e300,
                       0.1, -2.0 / 3.0, np.pi])
    ints = np.arange(floats.size) * 1000 - 3
    flags = floats > 0.0
    path = tmp_path / "t.csv"
    cli._write_files(tmp_path, {"t.csv": cli._csv_text(
        "a,b,c,d", "%.17g,%d,%d,%.17g",
        [[floats, ints, flags, floats[::-1].copy()]])})
    expected = ["a,b,c,d"] + [
        ",".join((format(float(a), ".17g"), str(int(b)), str(int(c)),
                  format(float(d), ".17g")))
        for a, b, c, d in zip(floats, ints, flags, floats[::-1])]
    assert path.read_bytes() == ("\n".join(expected) + "\n").encode()


class _FailsAfterFirstChunk:
    """A CSV column whose rows after the first chunk cannot be formatted.
    On that failure it records the size the temporary file had reached."""

    def __init__(self, values, path):
        self.values, self.path, self.tmp_sizes = values, path, []

    def __len__(self):
        return len(self.values)

    def __getitem__(self, rows):
        if rows.start == 0:
            return self.values[rows]
        self.tmp_sizes = [p.stat().st_size for p in
                          self.path.parent.glob(self.path.name + ".tmp*")]
        raise RuntimeError("formatting failed")


def test_csv_failure_part_way_leaves_no_file(tmp_path):
    path = tmp_path / "t.csv"
    values = np.arange(3 * 2 ** 16, dtype=float)
    column = _FailsAfterFirstChunk(values, path)
    with pytest.raises(RuntimeError, match="formatting failed"):
        cli._write_files(tmp_path, {"t.csv": cli._csv_text(
            "a,b", "%.17g,%.17g", [[values, column]])})
    # the first chunk had reached the temporary file before the failure
    assert len(column.tmp_sizes) == 1 and column.tmp_sizes[0] > 0
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [["sweep"], ["surface", "--m", "0.5"]])
def test_zero_n_meas_is_config_error(tmp_path, command):
    assert run_cli(command + ["--n-meas", "0", "--out", str(tmp_path)]) == 2


_PROTOCOL_FLAGS = {"--theta", "--m", "--gamma-tau", "--projective",
                   "--n-meas", "--ref-weight"}
_PROTOCOL_KEYS = {"theta", "m", "gamma_tau", "projective", "n_meas",
                  "ref_weight", "phi_schedule"}
_COMMAND_FLAGS = {
    "phase": _PROTOCOL_FLAGS | {"--out", "--config"},
    "sweep": {"--grid-theta", "--grid-m", "--n-meas", "--ref-weight",
              "--format", "--out", "--config"},
    "transition": {"--n-meas", "--ref-weight", "--tol", "--assert-jump",
                   "--out", "--config"},
    "mc": _PROTOCOL_FLAGS | {"--samples", "--seed", "--out", "--config"},
    "surface": {"--m", "--gamma-tau", "--grid-theta", "--interp", "--n-meas",
                "--ref-weight", "--out", "--config"},
    "schema": {"--out"},
}
_COMMAND_KEYS = {
    "phase": _PROTOCOL_KEYS | {"out"},
    "sweep": {"grid_theta", "grid_m", "n_meas", "ref_weight", "format", "out"},
    "transition": {"n_meas", "ref_weight", "tol", "assert_jump", "out"},
    "mc": _PROTOCOL_KEYS | {"samples", "seed", "out"},
    "surface": {"m", "gamma_tau", "grid_theta", "interp", "n_meas",
                "ref_weight", "out"},
}


def test_command_flags_pinned():
    parser = cli.build_parser()
    [commands] = [a for a in parser._actions
                  if isinstance(a, cli.argparse._SubParsersAction)]
    flags = {name: {s for a in sub._actions for s in a.option_strings}
             - {"-h", "--help"}
             for name, sub in commands.choices.items()}
    assert flags == _COMMAND_FLAGS


@pytest.mark.parametrize("command", sorted(_COMMAND_KEYS))
def test_command_config_keys_pinned(tmp_path, capsys, command):
    # every key any command knows, plus one none does; the unknown ones
    # are named before any value is read
    offered = set().union(*_COMMAND_KEYS.values()) | {"config", "bogus"}
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(dict.fromkeys(offered)))
    assert run_cli([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown config keys: ")
    unknown = json.loads(err.split(": ", 2)[2].replace("'", '"'))
    assert offered - set(unknown) == _COMMAND_KEYS[command]


class TestSchemaCommand:
    def test_prints_valid_schema(self, capsys, tmp_path):
        assert run_cli(["schema", "--out", str(tmp_path)]) == 0
        text = capsys.readouterr().out
        schema = json.loads(text)
        jsonschema.Draft7Validator.check_schema(schema)
        assert (tmp_path / "envelope.schema.json").read_text() == text
        # no timing sidecar
        assert [p.name for p in tmp_path.iterdir()] == ["envelope.schema.json"]


class TestDeterminism:
    def test_sweep_bytes_stable_across_worker_env(self, tmp_path, monkeypatch):
        out = tmp_path / "o"
        blobs = []
        for workers in ("1", "4"):
            monkeypatch.setenv("GEOPHASE_THREADS", workers)
            run_cli(["sweep", "--grid-theta", "0:3.141592653589793:16",
                     "--grid-m", "0:1:5", "--out", str(out)])
            blobs.append(((out / "sweep.csv").read_bytes(),
                          (out / "sweep.json").read_bytes()))
        assert blobs[0] == blobs[1]

    def test_mc_bytes_stable_across_worker_env(self, tmp_path, monkeypatch):
        out = tmp_path / "o"
        blobs = []
        for workers in ("1", "4"):
            monkeypatch.setenv("GEOPHASE_THREADS", workers)
            run_cli(["mc", "--theta", "1.1", "--m", "0.5", "--samples", "9000",
                     "--seed", "3", "--out", str(out)])
            blobs.append((out / "mc.json").read_bytes())
        assert blobs[0] == blobs[1]
