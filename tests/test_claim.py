"""``scripts/claim.py``'s parsing and decision on hand-written result lines;
no benchmark process is started."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
METRICS = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


@pytest.fixture(scope="module")
def claim():
    spec = importlib.util.spec_from_file_location(
        "claim", ROOT / "scripts" / "claim.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stdout(wall, setup=0.35, rss=62.0, failed=(), attempted=100):
    """The standard output of one perfbench/run.py run."""
    result = {"correct": not failed, "attempted": attempted,
              "failed": len(failed),
              "metrics": {"setup_s": {"value": setup, "unit": "s"},
                          "wall_s": {"value": wall, "unit": "s"},
                          "peak_rss_mb": {"value": rss, "unit": "MB"}}}
    lines = ['env {"seed": 5, "workload": "mc-oracle"}',
             f"{'metric':48s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
             f"{'n':>4s}",
             f"{'wall_s':48s} {wall:14.6g} {wall:14.6g} {wall:14.6g} "
             "   7 s",
             f"{'wall_s (unscaled)':48s} {1.1 * wall:14.6g} {wall:14.6g} "
             f"{wall:14.6g}    7 s",
             f"operations: {attempted} attempted, {len(failed)} failed",
             *(f"FAILED {f}" for f in failed), json.dumps(result)]
    return "\n".join(lines) + "\n"


def _runs(claim, parent, change, **change_kw):
    return {"parent": [claim.parse_run(_stdout(w)) for w in parent],
            "change": [claim.parse_run(_stdout(w, **change_kw))
                       for w in change]}


PARENT = [1.30, 1.28, 1.33, 1.25, 1.31, 1.29, 1.36, 1.27, 1.30, 1.32]


def test_parse_run(claim):
    run = claim.parse_run(_stdout(1.2, failed=["cell 3: z 5.1"]))
    assert run["env"] == {"seed": 5, "workload": "mc-oracle"}
    assert run["result"]["metrics"]["wall_s"]["value"] == 1.2
    assert run["table"] == {"wall_s": 1.2, "wall_s (unscaled)": 1.32}
    assert run["failures"] == ["cell 3: z 5.1"]


def test_clear_gain_is_claimed(claim):
    change = [w - 0.12 for w in PARENT]
    verdict = claim.decide(METRICS, "wall_s", _runs(claim, PARENT, change))
    row = verdict["metrics"]["wall_s"]
    assert verdict["claim_holds"] and row["wins"] == 10
    assert row["median_gap"] > row["parent_quartile_spread"]
    assert row["status"] == "within bound"
    assert verdict["metrics"]["setup_s"]["status"] == "within bound"
    assert verdict["regressed"] == [] and verdict["newly_failed"] == []


def test_two_lost_pairs_in_ten_fail_rule_4(claim):
    change = [w - 0.12 for w in PARENT]
    change[2] = change[5] = 2.0
    verdict = claim.decide(METRICS, "wall_s", _runs(claim, PARENT, change))
    assert verdict["metrics"]["wall_s"]["wins"] == 8
    assert not verdict["claim_holds"]


def test_gap_within_parent_spread_fails_rule_4(claim):
    # every pair won, by less than the parent's quartile spread
    change = [w - 0.01 for w in PARENT]
    verdict = claim.decide(METRICS, "wall_s", _runs(claim, PARENT, change))
    row = verdict["metrics"]["wall_s"]
    assert row["wins"] == 10
    assert row["median_gap"] < row["parent_quartile_spread"]
    assert not verdict["claim_holds"]


def test_new_failure_fails_rule_4(claim):
    change = [w - 0.12 for w in PARENT]
    verdict = claim.decide(METRICS, "wall_s", _runs(
        claim, PARENT, change, failed=["cell 3: z 5.1"]))
    assert verdict["newly_failed"] == ["cell 3: z 5.1"]
    assert not verdict["claim_holds"]


def test_rule_5_regressed_and_unresolved(claim):
    runs = _runs(claim, PARENT, PARENT, rss=70.0)
    verdict = claim.decide(METRICS, "wall_s", runs)
    assert verdict["metrics"]["peak_rss_mb"]["status"] == "regressed"
    assert verdict["regressed"] == ["peak_rss_mb"]
    assert not verdict["claim_holds"]
    # a parent spread wider than the 0.25 bound cannot be judged
    noisy = [0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 0.5, 1.5, 0.6, 1.4]
    verdict = claim.decide(METRICS, "wall_s", _runs(claim, noisy, noisy))
    assert verdict["metrics"]["wall_s"]["status"] == "unresolved"
    # unless every run of the change reads better than every parent run
    verdict = claim.decide(METRICS, "wall_s", _runs(
        claim, noisy, [w / 10 for w in noisy]))
    assert verdict["metrics"]["wall_s"]["status"] == "better in every run"


def test_higher_is_better_metric(claim):
    metrics = [{"name": "wall_s", "better": "higher", "bound": 0.25},
               {"name": "setup_s", "better": "lower", "bound": 0.25}]
    change = [w + 0.12 for w in PARENT]
    verdict = claim.decide(metrics, "wall_s", _runs(claim, PARENT, change))
    assert verdict["claim_holds"]


def test_unknown_metric_and_unpaired_runs_rejected(claim):
    runs = _runs(claim, PARENT, PARENT)
    with pytest.raises(ValueError, match="not an end-to-end metric"):
        claim.decide(METRICS, "cells_per_s", runs)
    runs["change"].pop()
    with pytest.raises(ValueError, match="same positive number"):
        claim.decide(METRICS, "wall_s", runs)


def test_unknown_metric_exits_2_before_any_run(claim, monkeypatch, capsys):
    def no_process(*args, **kwargs):
        raise AssertionError("a benchmark process was started")

    monkeypatch.setattr(claim.subprocess, "run", no_process)
    with pytest.raises(SystemExit) as exc:
        claim.main([".", ".", "--workload", "mc-oracle", "--seed", "1",
                    "--metric", "cells_per_s"])
    assert exc.value.code == 2
    assert "--metric" in capsys.readouterr().err


def test_metric_option_names_the_claim(claim, monkeypatch, tmp_path, capsys):
    # setup_s falls by 0.15 s in every pair while wall_s does not move
    (tmp_path / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setattr(claim, "TREE", tmp_path)
    runs = {"parent": [claim.parse_run(_stdout(w)) for w in PARENT],
            "change": [claim.parse_run(_stdout(w, setup=0.2))
                       for w in PARENT]}
    monkeypatch.setattr(claim, "run_pairs",
                        lambda *args: (runs, [list(claim.SIDES)] * 10))
    code = claim.main(["p", "c", "--workload", "mc-oracle", "--seed", "1",
                       "--metric", "setup_s"])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith(
        "setup_s gain shown; written ")
    record = json.loads((tmp_path / "BENCH_mc-oracle.json").read_text())
    assert record["verdict"]["claimed_metric"] == "setup_s"
    assert record["verdict"]["metrics"]["setup_s"]["wins"] == 10
