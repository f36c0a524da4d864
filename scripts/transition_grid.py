"""Record ``find_critical_strength`` over a fixed grid of inputs, or compare
two such records.

Usage, from anywhere:

    python3 scripts/transition_grid.py write FILE [--tree PATH]
    python3 scripts/transition_grid.py compare A B

``write`` runs ``analysis.find_critical_strength(n_meas=N,
reference_weight=w, tol=tol)`` on every case of GRID, 576 in all, in one
fresh Python process with ``PYTHONPATH=<tree>/src`` (the tree defaults to
the checkout holding this script).  FILE gets one JSON line per case: the
inputs and either every ``TransitionReport`` field (``m_star`` as its m)
or the raised exception's type and message.  Floats are written by their
``repr``, so equal lines mean equal bits.  It exits 1 if the process
fails.

``compare`` prints ``same`` if the two files hold the same cases with the
same results, or else the first case that differs, with both lines, and
exits 1.  A search change that claims to keep every output bit should
read ``same`` between the parent's record and its own.  After a
difference it prints one line per field, ``error`` and each report field:
the number of cases in which the field moved and, for a float field, the
largest move in ulps (of either end, for the bracket) and in absolute
value.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

TREE = Path(__file__).resolve().parent.parent

#: (n_meas, reference_weight, tol) cases: small and large N, a weight near
#: each end and inside, and tol from the supported 1e-6 up to 0.05.
GRID = list(itertools.product(
    (2, 3, 4, 5, 6, 8, 12, 16, 24, 32, 48, 64, 96, 384, 1024, 4096),
    (1e-8, 0.05, 0.3, 0.5, 0.8, 0.95),
    (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.05)))

#: Run in the fresh process: reads the cases as JSON on stdin and prints
#: one JSON line per case.
_RUNNER = """\
import dataclasses, json, sys
from geophase import analysis

for n_meas, w, tol in json.load(sys.stdin):
    case = {"n_meas": n_meas, "reference_weight": w, "tol": tol}
    try:
        report = analysis.find_critical_strength(
            n_meas=n_meas, reference_weight=w, tol=tol)
    except Exception as exc:
        case["error"] = {"type": type(exc).__name__, "message": str(exc)}
    else:
        fields = dataclasses.asdict(report)
        fields["m_star"] = report.m_star.m
        case["report"] = fields
    print(json.dumps(case, sort_keys=True))
"""


def write(out: Path, tree: Path, cases=GRID) -> int:
    env = {**os.environ, "PYTHONPATH": str(tree.resolve() / "src")}
    proc = subprocess.run([sys.executable, "-c", _RUNNER],
                          input=json.dumps(cases), env=env,
                          capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        print(proc.stderr.strip(), file=sys.stderr)
        return 1
    out.write_text(proc.stdout, encoding="utf-8")
    return 0


def _ordinal(x: float) -> int:
    """x's place in the ordered floats, so that adjacent floats differ by
    1 (and -0.0 and 0.0 by 0)."""
    n = struct.unpack("<q", struct.pack("<d", x))[0]
    return n if n >= 0 else -(n & 0x7FFFFFFFFFFFFFFF)


def _moved(lines_a: list[str], lines_b: list[str]) -> list[str]:
    """One line per field of the cases: how many moved, and how far."""
    cases = [[json.loads(line) if line else {} for line in pair]
             for pair in itertools.zip_longest(lines_a, lines_b)]
    names = sorted({name for pair in cases for case in pair
                    for name in case.get("report", {})})
    out = []
    for name in ["error", *names]:
        count, ulps, gap = 0, 0, 0.0
        for pair in cases:
            va, vb = (case.get("error") if name == "error"
                      else case.get("report", {}).get(name) for case in pair)
            if va == vb:
                continue
            count += 1
            ends = list(zip(*(v if isinstance(v, list) else [v]
                              for v in (va, vb))))
            if all(isinstance(x, float) for end in ends for x in end):
                for x, y in ends:
                    ulps = max(ulps, abs(_ordinal(x) - _ordinal(y)))
                    gap = max(gap, abs(x - y))
        line = f"{name}: moved in {count} of {len(cases)} cases"
        if ulps:
            line += f", by at most {ulps} ulps ({gap:.3g})"
        out.append(line)
    return out


def compare(a: Path, b: Path) -> int:
    lines = [p.read_text(encoding="utf-8").splitlines() for p in (a, b)]
    for k, (line_a, line_b) in enumerate(itertools.zip_longest(*lines), 1):
        if line_a != line_b:
            print(f"case {k} differs:\nA: {line_a}\nB: {line_b}")
            print("\n".join(_moved(*lines)))
            return 1
    print("same")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="action", required=True)
    p = sub.add_parser("write", help="run the grid, one line per case")
    p.add_argument("file", type=Path)
    p.add_argument("--tree", type=Path, default=TREE,
                   help="checkout whose src/ is run (default: this one)")
    p = sub.add_parser("compare", help="compare two written files")
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.action == "write":
        return write(args.file, args.tree)
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
