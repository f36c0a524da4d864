"""``scripts/primary_outputs.py compare`` on hand-written directories, and
``write`` on two small commands."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "primary_outputs.py"
NO_TARGET = ("warning: no numpy-target.json in A or B; byte identity holds "
             "only within one numpy build and SIMD target")


@pytest.fixture(scope="module")
def primary_outputs():
    spec = importlib.util.spec_from_file_location("primary_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tree(root: Path, files: dict) -> Path:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text if isinstance(text, str) else json.dumps(text))
    return root


def test_compare_reports_each_file(tmp_path, primary_outputs, capsys):
    same = {"01-a/a.gp": "set view map\n", "01-a/a.csv": "x,y\n1,2\n"}
    a = _tree(tmp_path / "A", {
        **same,
        "01-a/a.json": {"schema_version": 1, "timing": None,
                        "results": {"v": [1.0, 2.0], "n": 3},
                        "config": {"out": "."}},
        "01-a/a.timing.json": {"wall_seconds": 0.1},
        "02-b/b.csv": "theta,x\n0,1.5\n0.5,nan\n",
        "02-b/b.gp": "one\ntwo\n",
        "02-b/only.txt": "",
        "03-c/c.csv": "x\n1\n2\n",
        "03-c/c.json": {"v": [1, 2]},
    })
    b = _tree(tmp_path / "B", {
        **same,
        "01-a/a.json": {"schema_version": 2,
                        "results": {"v": [1.0, 2.25], "n": 3},
                        "config": {"out": "."}},
        "01-a/a.timing.json": {"wall_seconds": 0.2},
        "02-b/b.csv": "theta,x\n0,1.25\n0.5,nan\n",
        "02-b/b.gp": "one\nthree\n",
        "03-c/c.csv": "x\n1\n",
        "03-c/c.json": {"v": [1, "2", 3]},
        "04-d/new.json": {},
    })
    assert primary_outputs.main(["compare", str(a), str(b)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        NO_TARGET,
        "01-a/a.csv: same",
        "01-a/a.gp: same",
        "01-a/a.json: differs; structure: key only in A at timing; "
        "max abs diff 1 at schema_version",
        "02-b/b.csv: differs; max abs diff 0.25 at line 2 cell 2",
        "02-b/b.gp: differs; structure: text differs at line 2",
        "02-b/only.txt: only in A",
        "03-c/c.csv: differs; structure: 3 and 2 lines at end",
        "03-c/c.json: differs; structure: lengths 2 and 3 at v",
        "04-d/new.json: only in B",
    ]


def test_compare_names_mismatched_values(tmp_path, primary_outputs, capsys):
    for first, second, message in [
            (0.5, None, "values 0.5 and None"),
            (True, 1, "values True and 1"),
            ("pi", "PI", "text differs")]:
        a = _tree(tmp_path / "A", {"x.json": {"r": {"m": first, "n": 2}}})
        b = _tree(tmp_path / "B", {"x.json": {"r": {"m": second, "n": 3}}})
        primary_outputs.main(["compare", str(a), str(b)])
        assert capsys.readouterr().out == (
            f"{NO_TARGET}\n"
            f"x.json: differs; structure: {message} at r.m; "
            f"max abs diff 1 at r.n\n")



def test_numpy_target_recorded_and_compared(tmp_path, primary_outputs,
                                            capsys, monkeypatch):
    # write's record of the numpy build and SIMD target is no primary file;
    # compare warns when the two records differ
    monkeypatch.setattr(primary_outputs, "COMMANDS",
                        [("schema", "1", ["schema"])])
    monkeypatch.delenv("NPY_DISABLE_CPU_FEATURES", raising=False)
    a, b = tmp_path / "A", tmp_path / "B"
    for out in (a, b):
        assert primary_outputs.main(["write", str(out)]) == 0
    target = json.loads((a / "numpy-target.json").read_text())
    import numpy as np
    assert target["numpy"] == np.__version__
    assert target["NPY_DISABLE_CPU_FEATURES"] is None
    features = target["cpu_features"]
    assert features == sorted(features)
    assert all(isinstance(name, str) for name in features)
    primary_outputs.main(["compare", str(a), str(b)])
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(line.endswith(": same") for line in lines)
    assert not any("numpy-target" in line for line in lines)

    (b / "numpy-target.json").write_text(json.dumps(
        {**target, "cpu_features": target["cpu_features"][:1],
         "NPY_DISABLE_CPU_FEATURES": "AVX512F"}))
    primary_outputs.main(["compare", str(a), str(b)])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("warning: numpy targets differ in "
                        "NPY_DISABLE_CPU_FEATURES, cpu_features; numbers may "
                        "differ in their last bits")
    assert all(line.endswith(": same") for line in lines[1:])


def test_write_keeps_each_commands_stdout_and_stderr(tmp_path,
                                                     primary_outputs,
                                                     monkeypatch, capsys):
    monkeypatch.setattr(primary_outputs, "COMMANDS", [
        ("schema", "1", ["schema"]),
        ("bad", "1", ["phase", "--theta", "1", "--m", "2"])])
    assert primary_outputs.write(tmp_path, primary_outputs.TREE) == 1
    schema, bad = tmp_path / "01-schema", tmp_path / "02-bad"
    assert (schema / "stdout.txt").read_text() == (
        schema / "envelope.schema.json").read_text()
    assert (schema / "stderr.txt").read_text() == ""
    assert (bad / "stdout.txt").read_text() == ""
    assert (bad / "stderr.txt").read_text().startswith("error: ")
    assert capsys.readouterr().err.startswith("02-bad: exit 2: error: ")
