import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import geophase
from geophase import cli
from geophase.errors import AntipodalError, TransitionNotFoundError
from geophase.protocol import run_protocol_analytic
from geophase.trajectories import McEstimate


def run_cli(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse's own exits
        return exc.code


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
        assert abs(cli.analysis.wrap_angle(env["results"]["chi"])) < 1e-7

    def test_degrees_flag(self, tmp_path):
        code = run_cli(["phase", "--theta", "90deg", "--projective",
                        "--out", str(tmp_path)])
        assert code == 0
        env = load_envelope(tmp_path / "phase.json")
        assert env["results"]["theta"] == pytest.approx(np.pi / 2)

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

        back = cli.read_sweep_csv(csv_path)
        pm = cli.analysis.sweep_phase_map(np.linspace(0, np.pi, 12),
                                          np.linspace(0, 1, 7))
        assert np.array_equal(back["theta_grid"], pm.theta_grid)
        assert np.array_equal(back["strength_grid"], pm.strength_grid)
        assert np.array_equal(back["chi_wrapped"], pm.chi_wrapped)
        assert np.array_equal(back["chi_unwrapped"], pm.chi_unwrapped,
                              equal_nan=True)
        assert np.array_equal(back["contrast"], pm.contrast)
        assert np.array_equal(back["defined"], pm.defined)

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

    def test_oversize_grid_exit_3(self, tmp_path):
        assert run_cli(["sweep", "--grid-theta", "0:3:2000",
                        "--grid-m", "0:1:2000", "--out", str(tmp_path)]) == 3

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
                             "root_kernel_calls"}
        assert diag["winding_curves"] > 0 and diag["root_kernel_calls"] > 0
        assert diag["nudge_retries"] >= 0
        assert seen[0] == seen[1]

    def test_no_transition_exit_4(self, tmp_path, monkeypatch, capsys):
        def none_found(*args, **kwargs):
            raise TransitionNotFoundError("no winding flip in [0, 1]")
        monkeypatch.setattr(cli.analysis, "find_critical_strength", none_found)
        assert run_cli(["transition", "--out", str(tmp_path)]) == 4
        assert capsys.readouterr().err == "error: no winding flip in [0, 1]\n"
        assert not (tmp_path / "transition.json").exists()

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

    def test_non_wrapping_surface(self, tmp_path):
        run_cli(["surface", "--m", "0.95", "--out", str(tmp_path)])
        env = load_envelope(tmp_path / "surface.json")
        assert env["results"]["degree"] == 0

    def test_m_one_rejected(self, tmp_path):
        assert run_cli(["surface", "--m", "1.0", "--out", str(tmp_path)]) == 2

    def test_singular_surface_exit_6(self, tmp_path, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise AntipodalError("antipodal geodesic endpoints on trajectory",
                                 theta=1.57, segment=3)
        monkeypatch.setattr(cli.analysis, "trajectory_surface", boom)
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
])
def test_bad_value_exit_2_writes_nothing(tmp_path, capsys, argv, message):
    assert run_cli(argv + ["--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.iterdir())


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
    monkeypatch.setattr(cli.analysis, "find_critical_strength", no_search)
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

    monkeypatch.setattr(cli.trajectories, "mc_interference", exact_estimate)
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

    monkeypatch.setattr(cli.trajectories, "mc_interference", exact_estimate)
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


def test_surface_points_bound_is_inclusive(tmp_path, monkeypatch):
    # the surface is stubbed: only the bound on its points is under test
    seen = []

    def one_point(strength, thetas, interp, *, n_meas, reference_weight):
        seen.append((thetas.size, n_meas, interp))
        return 1, thetas[:1], np.array([[[0.0, 0.0, 1.0]]])

    monkeypatch.setattr(cli.analysis, "trajectory_surface", one_point)
    base = ["surface", "--m", "0.5", "--n-meas", "4", "--interp", "8",
            "--out", str(tmp_path), "--grid-theta"]
    count = cli.MAX_SURFACE_POINTS // (5 * 8)
    assert count * 5 * 8 == cli.MAX_SURFACE_POINTS
    assert run_cli(base + [f"0:3.141592653589793:{count + 1}"]) == 3
    assert run_cli(base + [f"0:3.141592653589793:{count}"]) == 0
    # the default grid and interp still run at the largest n_meas
    assert run_cli(["surface", "--m", "0.5", "--n-meas", str(cli.MAX_N_MEAS),
                    "--out", str(tmp_path)]) == 0
    assert seen == [(count, 4, 8), (64, cli.MAX_N_MEAS, 8)]


def _fresh_interpreter(code):
    """Run ``code`` in a new interpreter with the package on its path."""
    src = str(Path(geophase.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=60)


def test_cli_import_loads_no_scipy():
    code = ("import sys, geophase.cli; "
            "print(sorted(k for k in sys.modules if k.startswith("
            "('scipy', 'multiprocessing', 'concurrent.futures.process'))))")
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
            "print(sorted(k for k in sys.modules\n"
            "             if k.startswith(('scipy.optimize', 'scipy.stats'))))")
    assert _fresh_interpreter(code).stdout.strip() == "[]"


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
