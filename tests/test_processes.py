"""``scripts/processes.py``: one round of two cheap commands on one tree,
and its table on hand-made runs."""

import importlib.util
import json
import subprocess
import sys
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
    # every process has a peak RSS, parent → change in MiB
    rss = [[float(x) for x in row[7].split(" → ")] for row in cells]
    assert all(len(pair) == 2 and min(pair) > 0 for pair in rss)
    assert lines[0].endswith(" MiB")


def test_differing_outputs_are_reported(processes):
    def run(wall, rss, output):
        return {"wall": wall, "rss": rss, "load": None, "compute": None,
                "output": output}

    runs = {"phase": {"parent": [run(0.2, 40.0, (0, "a", "")),
                                 run(0.3, 41.0, (0, "a", ""))],
                      "change": [run(0.1, 38.0, (0, "a", "")),
                                 run(0.4, 39.5, (1, "", "error: x"))]}}
    lines, same = processes.report(runs)
    assert not same
    assert lines[2].startswith("| phase | 0.250 s ")
    assert lines[2].endswith(
        "| 1.00 | 1 of 2 |  |  | 40.5 → 38.8 | differ |")


def test_peak_rss_of_a_child(tmp_path):
    # run_once in a fresh interpreter: Linux carries a parent's peak RSS
    # into its child at exec, so the test runner's own would floor the
    # reading.  A child that holds a 64 MiB buffer peaks above 64 MiB, a
    # bare interpreter well below, and the exit code, stdout and stderr
    # come back from the temporary files
    big = ("import sys; b = bytearray(64 << 20); b[::4096] = b'x' * "
           "len(b[::4096]); print('out'); print('err', file=sys.stderr); "
           "sys.exit(3)")
    script = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(ROOT / 'scripts')!r})\n"
        "import processes\n"
        f"tree = processes.Path({str(tmp_path)!r})\n"
        "runs = [processes.run_once(tree, '1', ['-c', code])\n"
        f"        for code in ('pass', {big!r})]\n"
        "print(json.dumps(runs))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, check=True)
    bare, held = json.loads(proc.stdout)
    assert bare["rss"] < 40
    assert 64 < held["rss"] < 64 + 40
    assert held["output"] == [3, "out\n", "err\n"]
    assert held["load"] is None and held["compute"] is None


def test_unknown_label_exits_2_before_any_process(processes, monkeypatch,
                                                  capsys):
    def no_process(*args, **kwargs):
        raise AssertionError("a process was started")

    monkeypatch.setattr(processes.subprocess, "run", no_process)
    with pytest.raises(SystemExit) as exc:
        processes.main([".", ".", "--only", "nosuch"])
    assert exc.value.code == 2
    assert "unknown labels: ['nosuch']" in capsys.readouterr().err
