"""``scripts/transition_grid.py``: ``write`` on two cases, ``compare`` on
its output and on an edited copy."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def transition_grid():
    spec = importlib.util.spec_from_file_location(
        "transition_grid", ROOT / "scripts" / "transition_grid.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_grid_is_the_576_cases(transition_grid):
    assert len(set(transition_grid.GRID)) == 576


def test_write_then_compare(tmp_path, transition_grid, capsys):
    # a report's every field, or the error of a search that finds no flip
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert transition_grid.write(a, ROOT, [(6, 0.5, 1e-3),
                                           (2, 0.5, 1e-3)]) == 0
    found, refused = map(json.loads, a.read_text().splitlines())
    assert set(found["report"]) == {
        "m_star", "bracket", "contrast_min", "chern_below", "chern_above",
        "jump_at_equator", "curves", "nudge_retries", "root_calls"}
    assert refused["error"]["type"] == "TransitionNotFoundError"
    b.write_text(a.read_text())
    assert transition_grid.main(["compare", str(a), str(b)]) == 0
    assert capsys.readouterr().out == "same\n"
    b.write_text(a.read_text().replace('"root_calls": ', '"root_calls": 1'))
    assert transition_grid.main(["compare", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("case 1 differs:\nA: ")
    assert out.splitlines()[3:] == [
        f"{name}: moved in {int(name == 'root_calls')} of 2 cases"
        for name in ("error", *sorted(found["report"]))]


def test_compare_reports_each_fields_moves(tmp_path, transition_grid,
                                           capsys):
    # after the first difference, one line per field: the cases in which
    # it moved and, for floats, the largest move in ulps and in value
    report = {"bracket": [0.25, 0.5], "contrast_min": 1e-16, "curves": 4,
              "m_star": 0.3}
    moved = {**report, "bracket": [0.25, math.nextafter(0.5, 1.0)],
             "curves": 5, "m_star": math.nextafter(
                 math.nextafter(0.3, 0.0), 0.0)}
    cases = [({"report": report}, {"report": report}),
             ({"report": report}, {"report": moved}),
             ({"error": {"message": "a"}}, {"error": {"message": "b"}})]
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for path, side in ((a, 0), (b, 1)):
        path.write_text("".join(json.dumps(case[side], sort_keys=True) + "\n"
                                for case in cases))
    assert transition_grid.main(["compare", str(a), str(b)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "case 2 differs:"
    assert lines[3:] == [
        "error: moved in 1 of 3 cases",
        "bracket: moved in 1 of 3 cases, by at most 1 ulps (1.11e-16)",
        "contrast_min: moved in 0 of 3 cases",
        "curves: moved in 1 of 3 cases",
        "m_star: moved in 1 of 3 cases, by at most 2 ulps (1.11e-16)"]
