"""``scripts/processes.py``: one round of two cheap commands on one tree,
and its table on hand-made runs."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def processes():
    spec = importlib.util.spec_from_file_location(
        "processes", ROOT / "scripts" / "processes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_round_on_one_tree(processes, capsys):
    # the bare interpreter and numpy rows come first whatever --only names;
    # only a geophase command writes a sidecar
    assert processes.main([str(ROOT), str(ROOT), "--rounds", "1",
                           "--only", "schema", "--only", "phase"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("1 rounds, seed 0, parent ")
    cells = [line.strip("|").split(" | ") for line in lines[3:]]
    assert [row[0].strip() for row in cells] == [
        "python", "import numpy", "phase", "schema"]
    assert all(row[4] in ("0 of 1", "1 of 1") for row in cells)
    assert all(row[-1].strip() == "same" for row in cells)
    sidecar = [bool(row[5].strip()) for row in cells]
    assert sidecar == [False, False, True, False]


def test_differing_outputs_are_reported(processes):
    def run(wall, output):
        return {"wall": wall, "load": None, "compute": None,
                "output": output}

    runs = {"phase": {"parent": [run(0.2, (0, "a", "")),
                                 run(0.3, (0, "a", ""))],
                      "change": [run(0.1, (0, "a", "")),
                                 run(0.4, (1, "", "error: x"))]}}
    lines, same = processes.report(runs)
    assert not same
    assert lines[2].startswith("| phase | 0.250 s ")
    assert lines[2].endswith("| 1.00 | 1 of 2 |  |  | differ |")


def test_unknown_label_exits_2_before_any_process(processes, monkeypatch,
                                                  capsys):
    def no_process(*args, **kwargs):
        raise AssertionError("a process was started")

    monkeypatch.setattr(processes.subprocess, "run", no_process)
    with pytest.raises(SystemExit) as exc:
        processes.main([".", ".", "--only", "nosuch"])
    assert exc.value.code == 2
    assert "unknown labels: ['nosuch']" in capsys.readouterr().err
