"""Write the primary files of a fixed set of geophase commands, or compare
two such sets.

Usage, from anywhere:

    python3 scripts/primary_outputs.py write DIR [--tree PATH]
    python3 scripts/primary_outputs.py compare A B

``write`` runs each command of COMMANDS in a fresh ``python -m
geophase.cli`` process with ``PYTHONPATH=<tree>/src`` (the tree defaults
to the checkout holding this script), in ``DIR/<n>-<command>/`` with
``--out .``, so the ``out`` that envelopes echo is the same for every
tree.  The command's standard output and standard error go to
``stdout.txt`` and ``stderr.txt`` beside its files.  It exits 1 if any
command exits non-zero.

``write`` also records, in ``DIR/numpy-target.json``, the numpy version,
its enabled CPU features and ``NPY_DISABLE_CPU_FEATURES``: primary files
are byte-identical only within one numpy build and one SIMD dispatch
target.

``compare`` prints one line per file found in either directory, skipping
the ``*.timing.json`` wall-time sidecars and ``numpy-target.json``:
``same``, ``only in A``, ``only in B``, or ``differs``.  For JSON and CSV
files a difference names the first key or line whose structure differs
and the largest absolute difference between numbers at the same JSON path
or CSV cell.  It first prints a ``warning:`` line if the two numpy targets
differ or either is not recorded.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

TREE = Path(__file__).resolve().parent.parent

#: (label, GEOPHASE_THREADS, arguments): the six README commands, mc again
#: under two workers, runs at large n_meas and with every sweep format, the
#: weak limit (every step factor exactly 1), a projective mc reference, the
#: coarsest surface, whose mesh triangles are the largest, a sweep
#: column at m*(6), whose refinement meets the masked equator node, a
#: phase given by gamma*tau just above gamma*tau*(6), a sweep whose
#: grid has no theta = 0 node, so its anchor row is added, a surface
#: whose loops are interpolated and written in three blocks, and a
#: Gaussian and a projective mc at n_meas 96, whose walks pass the norm
#: re-sum of every 64th step, a transition at the finest tol, whose
#: bisection halves the bracket most often, a surface just above
#: m*(6), whose default grid has no node at the equator fold, a projective
#: phase whose second axis is antipodal to the first, so its path freezes
#: at the initial point, a projective phase at the south pole, and a
#: sweep of 200 x 199 cells, which the uniform kernel evaluates in five
#: slabs of at most 41 rows, the last of 36.
COMMANDS = [
    ("phase", "1", ["phase", "--theta", "90deg", "--projective"]),
    ("sweep", "1", ["sweep", "--grid-theta", "0:3.14159:64",
                    "--grid-m", "0:1:64"]),
    ("transition", "1", ["transition", "--assert-jump", "pi"]),
    ("mc", "1", ["mc", "--theta", "1.2", "--m", "0.6", "--samples", "100000",
                 "--seed", "42"]),
    ("surface", "1", ["surface", "--m", "0.05"]),
    ("schema", "1", ["schema"]),
    ("mc-threads2", "2", ["mc", "--theta", "1.2", "--m", "0.6",
                          "--samples", "100000", "--seed", "42"]),
    ("phase-n4096", "1", ["phase", "--theta", "1.1", "--m", "0.45",
                          "--n-meas", "4096"]),
    ("surface-n384", "1", ["surface", "--m", "0.3", "--n-meas", "384",
                           "--interp", "2"]),
    ("sweep-both", "1", ["sweep", "--format", "both", "--n-meas", "5",
                         "--ref-weight", "0.3", "--grid-theta", "0:3.14159:16",
                         "--grid-m", "0:1:9"]),
    ("transition-n4096", "1", ["transition", "--n-meas", "4096"]),
    ("sweep-n4096", "1", ["sweep", "--n-meas", "4096",
                          "--grid-theta", "0:3.14159:64", "--grid-m", "0:1:64"]),
    ("phase-weak", "1", ["phase", "--theta", "1.2", "--m", "1"]),
    ("mc-projective", "1", ["mc", "--theta", "1.2", "--projective",
                            "--samples", "100000", "--seed", "42"]),
    ("surface-coarse", "1", ["surface", "--m", "0.1", "--n-meas", "3",
                             "--grid-theta", "0:3.141592653589793:33",
                             "--interp", "3"]),
    ("sweep-mstar", "1", ["sweep", "--grid-theta", "0:3.141592653589793:65",
                          "--grid-m", "0.47254618927362685:1:2"]),
    ("phase-gamma", "1", ["phase", "--theta", "1.1", "--gamma-tau", "0.75"]),
    ("sweep-offset", "1", ["sweep", "--grid-theta", "0.5:3.14159:33",
                           "--grid-m", "0.1:0.9:9"]),
    ("surface-blocks", "1", ["surface", "--m", "0.3", "--n-meas", "2048",
                             "--interp", "1"]),
    ("mc-n96", "1", ["mc", "--theta", "1.2", "--m", "0.6", "--n-meas", "96",
                     "--samples", "20000", "--seed", "42"]),
    ("mc-projective-n96", "1", ["mc", "--theta", "1.2", "--projective",
                                "--n-meas", "96", "--samples", "20000",
                                "--seed", "42"]),
    ("transition-fine", "1", ["transition", "--tol", "1e-6", "--n-meas", "24",
                              "--ref-weight", "0.3", "--assert-jump", "pi"]),
    ("transition-w1e-8", "1", ["transition", "--ref-weight", "1e-8",
                               "--tol", "1e-6"]),
    ("surface-near-mstar", "1", ["surface", "--m", "0.472556"]),
    ("phase-freeze", "1", ["phase", "--theta", "90deg", "--projective",
                           "--n-meas", "2"]),
    ("phase-pole", "1", ["phase", "--theta", "3.141592653589793",
                         "--projective"]),
    ("sweep-slabs", "1", ["sweep", "--grid-theta", "0:3.14159:200",
                          "--grid-m", "0:1:199"]),
]


#: The record of the numpy build and SIMD target, beside the run folders.
TARGET = "numpy-target.json"


def numpy_target() -> dict:
    """numpy's version, enabled CPU features and NPY_DISABLE_CPU_FEATURES,
    as a process with this environment sees them."""
    import numpy as np
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__

    return {"numpy": np.__version__,
            "cpu_features": sorted(k for k, on in __cpu_features__.items()
                                   if on),
            "NPY_DISABLE_CPU_FEATURES": os.environ.get(
                "NPY_DISABLE_CPU_FEATURES")}


def write(out: Path, tree: Path) -> int:
    env = {**os.environ, "PYTHONPATH": str(tree.resolve() / "src")}
    out.mkdir(parents=True, exist_ok=True)
    (out / TARGET).write_text(json.dumps(numpy_target(), indent=1) + "\n",
                              encoding="utf-8")
    failed = 0
    for n, (label, threads, args) in enumerate(COMMANDS, 1):
        run_dir = out / f"{n:02d}-{label}"
        run_dir.mkdir(parents=True, exist_ok=True)
        proc = subprocess.run(
            [sys.executable, "-m", "geophase.cli", *args, "--out", "."],
            cwd=run_dir, env={**env, "GEOPHASE_THREADS": threads},
            capture_output=True, text=True, timeout=600)
        (run_dir / "stdout.txt").write_text(proc.stdout, encoding="utf-8")
        (run_dir / "stderr.txt").write_text(proc.stderr, encoding="utf-8")
        if proc.returncode != 0:
            failed = 1
            print(f"{run_dir.name}: exit {proc.returncode}: "
                  f"{proc.stderr.strip()}", file=sys.stderr)
    return failed


def _files(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*")
            if p.is_file() and not p.name.endswith(".timing.json")} - {TARGET}


def _target_warning(a: Path, b: Path) -> str | None:
    """A warning line if the two numpy targets differ or one is missing."""
    missing = [side for side, d in (("A", a), ("B", b))
               if not (d / TARGET).is_file()]
    if missing:
        return (f"warning: no {TARGET} in {' or '.join(missing)}; byte "
                f"identity holds only within one numpy build and SIMD "
                f"target")
    target_a, target_b = (json.loads((d / TARGET).read_text("utf-8"))
                          for d in (a, b))
    if target_a != target_b:
        keys = sorted(k for k in set(target_a) | set(target_b)
                      if target_a.get(k) != target_b.get(k))
        return (f"warning: numpy targets differ in {', '.join(keys)}; "
                f"numbers may differ in their last bits")
    return None


class _Diff:
    """The first structural difference and the largest number difference."""

    def __init__(self):
        self.structure = None
        self.largest = (0.0, None)

    def mismatch(self, where: str, what: str) -> None:
        if self.structure is None:
            self.structure = f"{what} at {where}"

    def numbers(self, where: str, a: float, b: float) -> None:
        if a == b or (math.isnan(a) and math.isnan(b)):
            return
        d = abs(a - b)
        d = math.inf if math.isnan(d) else d
        if self.largest[1] is None or d > self.largest[0]:
            self.largest = (d, where)

    def walk_json(self, a, b, where: str) -> None:
        numeric = (int, float)
        if (isinstance(a, numeric) and isinstance(b, numeric)
                and not isinstance(a, bool) and not isinstance(b, bool)):
            self.numbers(where or "(top)", float(a), float(b))
        elif isinstance(a, dict) and isinstance(b, dict):
            for key in sorted(set(a) | set(b)):
                path = f"{where}.{key}" if where else key
                if key not in b:
                    self.mismatch(path, "key only in A")
                elif key not in a:
                    self.mismatch(path, "key only in B")
                else:
                    self.walk_json(a[key], b[key], path)
        elif isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                self.mismatch(where or "(top)",
                              f"lengths {len(a)} and {len(b)}")
            for k, (x, y) in enumerate(zip(a, b)):
                self.walk_json(x, y, f"{where}[{k}]")
        elif isinstance(a, str) and isinstance(b, str):
            if a != b:
                self.mismatch(where or "(top)", "text differs")
        elif type(a) is not type(b) or a != b:
            self.mismatch(where or "(top)", f"values {a!r} and {b!r}")

    def walk_csv(self, a: str, b: str) -> None:
        rows_a, rows_b = a.splitlines(), b.splitlines()
        if len(rows_a) != len(rows_b):
            self.mismatch("end", f"{len(rows_a)} and {len(rows_b)} lines")
        for k, (ra, rb) in enumerate(zip(rows_a, rows_b), 1):
            cells_a, cells_b = ra.split(","), rb.split(",")
            if len(cells_a) != len(cells_b):
                self.mismatch(f"line {k}", "cell counts differ")
                continue
            for j, (x, y) in enumerate(zip(cells_a, cells_b), 1):
                try:
                    self.numbers(f"line {k} cell {j}", float(x), float(y))
                except ValueError:
                    if x != y:
                        self.mismatch(f"line {k} cell {j}",
                                      f"values {x!r} and {y!r}")

    def walk_text(self, a: str, b: str) -> None:
        rows_a, rows_b = a.splitlines(), b.splitlines()
        for k, (ra, rb) in enumerate(zip(rows_a, rows_b), 1):
            if ra != rb:
                self.mismatch(f"line {k}", "text differs")
                return
        if len(rows_a) != len(rows_b):
            self.mismatch("end", f"{len(rows_a)} and {len(rows_b)} lines")

    def report(self) -> str:
        parts = []
        if self.structure is not None:
            parts.append(f"structure: {self.structure}")
        d, where = self.largest
        if where is not None:
            parts.append(f"max abs diff {d:.3g} at {where}")
        return "; ".join(parts) or "bytes only"


def compare_file(a: Path, b: Path) -> str:
    raw_a, raw_b = a.read_bytes(), b.read_bytes()
    if raw_a == raw_b:
        return "same"
    diff = _Diff()
    text_a, text_b = raw_a.decode("utf-8"), raw_b.decode("utf-8")
    if a.suffix == ".json":
        try:
            diff.walk_json(json.loads(text_a), json.loads(text_b), "")
        except json.JSONDecodeError:
            diff.walk_text(text_a, text_b)
    elif a.suffix == ".csv":
        diff.walk_csv(text_a, text_b)
    else:
        diff.walk_text(text_a, text_b)
    return f"differs; {diff.report()}"


def compare(a: Path, b: Path) -> int:
    warning = _target_warning(a, b)
    if warning:
        print(warning)
    files_a, files_b = _files(a), _files(b)
    for rel in sorted(files_a | files_b):
        if rel not in files_b:
            verdict = "only in A"
        elif rel not in files_a:
            verdict = "only in B"
        else:
            verdict = compare_file(a / rel, b / rel)
        print(f"{rel}: {verdict}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="action", required=True)
    p = sub.add_parser("write", help="run the commands, files into DIR")
    p.add_argument("dir", type=Path)
    p.add_argument("--tree", type=Path, default=TREE,
                   help="checkout whose src/ is run (default: this one)")
    p = sub.add_parser("compare", help="compare two written directories")
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.action == "write":
        return write(args.dir, args.tree)
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
