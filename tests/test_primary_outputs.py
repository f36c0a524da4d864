"""``scripts/primary_outputs.py compare`` on hand-written directories."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "primary_outputs.py"


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
            f"x.json: differs; structure: {message} at r.m; "
            f"max abs diff 1 at r.n\n")

