"""``scripts/transition_grid.py``: ``write`` on two cases, ``compare`` on
its output and on an edited copy."""

import importlib.util
import json
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
    assert capsys.readouterr().out.startswith("case 1 differs:\nA: ")
