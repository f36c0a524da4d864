"""Primary outputs under a lower numpy SIMD dispatch target.

Byte identity holds only within one numpy build and one dispatch target.
Across targets the numbers may move in their last bits; this bounds by
how much, for a small ``sweep``, ``surface`` and ``mc``.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import geophase

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "primary_outputs.py"

#: Largest absolute difference allowed between the numbers of the default
#: and the lowered run.  Measured with the AVX512 targets disabled (X86_V3
#: left): 5.8e-14 at mc's z_re, 1.8e-15 in sweep.csv and 2.2e-16 in
#: surface.csv.
BOUND = 1e-12

COMMANDS = [
    ["sweep", "--grid-theta", "0:3.14159:64", "--grid-m", "0:1:64",
     "--out", "sweep"],
    ["surface", "--m", "0.05", "--out", "surface"],
    ["mc", "--theta", "1.2", "--m", "0.6", "--samples", "100000",
     "--seed", "42", "--out", "mc"],
]

#: Sets ``enabled`` to numpy's enabled dispatch targets, lowest first.  It
#: runs in this process and at the end of each run's subprocess.
ENABLED = """
try:
    from numpy._core._multiarray_umath import (__cpu_dispatch__,
                                               __cpu_features__)
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import (__cpu_dispatch__,
                                              __cpu_features__)
enabled = [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]
"""

RUN = f"""
import json
from geophase.cli import main
codes = [main(argv) for argv in {COMMANDS!r}]
{ENABLED}
print(json.dumps({{"codes": codes, "enabled": enabled}}))
"""


@pytest.fixture(scope="module")
def primary_outputs():
    spec = importlib.util.spec_from_file_location("primary_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_lower_simd_target_moves_numbers_within_bound(tmp_path,
                                                      primary_outputs):
    scope = {}
    exec(ENABLED, scope)
    enabled = scope["enabled"]
    if len(enabled) < 2:
        pytest.skip(f"numpy enables {len(enabled)} dispatch target(s) "
                    f"({' '.join(enabled) or 'none'}) on this host, so "
                    f"there is no lower one to run under")
    src = str(Path(geophase.__file__).resolve().parents[1])
    env = {**os.environ, "GEOPHASE_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    disabled = [os.environ.get("NPY_DISABLE_CPU_FEATURES"), *enabled[1:]]
    runs = {"default": env,
            "lowered": {**env, "NPY_DISABLE_CPU_FEATURES": " ".join(
                filter(None, disabled))}}
    procs = {}
    for name, run_env in runs.items():
        (tmp_path / name).mkdir()
        procs[name] = subprocess.Popen(
            [sys.executable, "-c", RUN], cwd=tmp_path / name, env=run_env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    reports = {}
    for name, proc in procs.items():
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        reports[name] = json.loads(out.splitlines()[-1])
        assert reports[name]["codes"] == [0, 0, 0], err
    assert reports["default"]["enabled"] == enabled
    assert reports["lowered"]["enabled"] == enabled[:1]

    a, b = tmp_path / "default", tmp_path / "lowered"
    files = primary_outputs._files(a)
    assert files == primary_outputs._files(b)
    assert {f.split("/")[0] for f in files} == {"sweep", "surface", "mc"}
    for rel in sorted(files):
        if not rel.endswith((".json", ".csv")):
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel
            continue
        diff = primary_outputs._Diff()
        text_a, text_b = ((d / rel).read_text("utf-8") for d in (a, b))
        if rel.endswith(".json"):
            diff.walk_json(json.loads(text_a), json.loads(text_b), "")
        else:
            diff.walk_csv(text_a, text_b)
        assert diff.structure is None, f"{rel}: {diff.structure}"
        assert diff.largest[0] <= BOUND, f"{rel}: {diff.report()}"
