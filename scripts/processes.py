"""Time fresh geophase processes of two checkouts, command by command.

Usage, from anywhere:

    python3 scripts/processes.py PARENT CHANGE [--rounds R] [--seed S] \
        [--only LABEL ...]

PARENT and CHANGE are two checkouts of the repository.  Each command of
``scripts/primary_outputs.py``'s COMMANDS (or only the labels given to
``--only``) runs in a fresh ``python -m geophase.cli`` process with
``PYTHONPATH=<tree>/src``, that list's ``GEOPHASE_THREADS`` and
``PYTHONDONTWRITEBYTECODE=1`` (so every process compiles the package's
sources, as the benchmark's processes do), with ``--out .`` in a new
temporary directory.  Two rows are always run as well: a bare interpreter
(``python -c pass``), which holds what the environment adds to every
process, and ``python -c "import numpy"``.

Every round runs each row once on each tree, the rows in an order that a
``random.Random`` seeded with S and the round number shuffles, and the
tree that starts alternating from row to row and from round to round.

It prints one Markdown table row per process: the median and quartiles
of the process wall time on each tree, the ratio of the medians, the
number of rounds in which the change's process was the faster, the
medians of the ``*.timing.json`` sidecar's ``load_seconds`` and
``wall_seconds`` on each tree, the median peak RSS of the process in MiB
(its ``ru_maxrss`` from ``os.wait4``, so the largest of the process and
of the children it waited for, such as ``mc``'s workers) on each tree,
and whether the exit code, stdout and stderr were the same on both trees
in every round.  Linux carries a parent's peak RSS into its child at
exec, so no process reads below this script's own peak, which the first
line reports (about 16 MiB, against a bare interpreter's own 13 MiB).
It exits 1 if any of them differed, else 0.  It does not replace
``scripts/claim.py`` for a benchmark claim.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from claim import SIDES, quartiles  # noqa: E402
from primary_outputs import COMMANDS  # noqa: E402

#: The rows run whatever --only names: (label, GEOPHASE_THREADS, the
#: interpreter's arguments).
BASE = [("python", "1", ["-c", "pass"]),
        ("import numpy", "1", ["-c", "import numpy"])]


def rows(only=None) -> list:
    """BASE, then the COMMANDS rows as (label, threads, interpreter
    arguments), those of ``only`` alone if it is given."""
    unknown = set(only or ()) - {label for label, _, _ in COMMANDS}
    if unknown:
        raise ValueError(f"unknown labels: {sorted(unknown)}")
    return BASE + [(label, threads,
                    ["-m", "geophase.cli", *args, "--out", "."])
                   for label, threads, args in COMMANDS
                   if only is None or label in only]


def run_once(tree: Path, threads: str, argv: list) -> dict:
    """One fresh process in a new temporary directory: its wall time, peak
    RSS in MiB, exit code, stdout, stderr and its sidecar's times (None
    without one).  The process writes stdout and stderr to temporary
    files and is reaped by ``os.wait4``, which returns its resource usage;
    it is killed after 600 s."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"),
           "GEOPHASE_THREADS": threads, "PYTHONDONTWRITEBYTECODE": "1"}
    with (tempfile.TemporaryDirectory() as cwd,
          tempfile.TemporaryFile("w+", encoding="utf-8") as out,
          tempfile.TemporaryFile("w+", encoding="utf-8") as err):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=cwd, env=env,
                                stdout=out, stderr=err)
        timer = threading.Timer(600, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        output = (proc.returncode, out.read(), err.read())
        sidecars = list(Path(cwd).glob("*.timing.json"))
        sidecar = (json.loads(sidecars[0].read_text(encoding="utf-8"))
                   if sidecars else {})
    return {"wall": wall, "rss": usage.ru_maxrss / 1024.0,  # KiB on Linux
            "load": sidecar.get("load_seconds"),
            "compute": sidecar.get("wall_seconds"), "output": output}


def measure(trees: dict, table: list, rounds: int, seed: int) -> dict:
    """{label: {side: [run_once result per round]}} over ``rounds``
    shuffled, alternated rounds of the rows of ``table``."""
    runs = {label: {side: [] for side in SIDES} for label, _, _ in table}
    for r in range(rounds):
        order = list(table)
        random.Random(f"{seed}:{r}").shuffle(order)
        for k, (label, threads, argv) in enumerate(order):
            sides = SIDES if (r + k) % 2 == 0 else SIDES[::-1]
            for side in sides:
                runs[label][side].append(run_once(trees[side], threads, argv))
    return runs


def _spread(values: list) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.3f} s ({q1:.3f}–{q3:.3f})"


def _medians(by_side: dict, key: str, fmt: str = ".4f") -> str:
    """"parent → change" medians of a sidecar time or of the peak RSS, or
    "" without one."""
    values = {side: [run[key] for run in by_side[side]
                     if run[key] is not None] for side in SIDES}
    if not all(values.values()):
        return ""
    return " → ".join(f"{statistics.median(values[side]):{fmt}}"
                      for side in SIDES)


def report(runs: dict) -> tuple[list, bool]:
    """The Markdown table's lines, and whether every process gave the same
    exit code, stdout and stderr on both trees."""
    lines = ["| process | parent wall | change wall | change/parent | "
             "change won | load s parent → change | compute s parent → "
             "change | peak RSS MiB parent → change | outputs |",
             "|---|---|---|---|---|---|---|---|---|"]
    all_same = True
    for label, by_side in runs.items():
        parent, change = by_side["parent"], by_side["change"]
        walls = {side: [run["wall"] for run in by_side[side]]
                 for side in SIDES}
        won = sum(c < p for p, c in zip(walls["parent"], walls["change"]))
        same = all(p["output"] == c["output"] for p, c in zip(parent, change))
        all_same = all_same and same
        ratio = (statistics.median(walls["change"])
                 / statistics.median(walls["parent"]))
        lines.append(f"| {label} | {_spread(walls['parent'])} | "
                     f"{_spread(walls['change'])} | {ratio:.2f} | "
                     f"{won} of {len(parent)} | "
                     f"{_medians(by_side, 'load')} | "
                     f"{_medians(by_side, 'compute')} | "
                     f"{_medians(by_side, 'rss', '.1f')} | "
                     f"{'same' if same else 'differ'} |")
    return lines, all_same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--only", action="append", metavar="LABEL",
                        help="a label of primary_outputs.COMMANDS to run "
                             "(repeat for several; default: all)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    try:
        table = rows(args.only)
    except ValueError as exc:
        parser.error(str(exc))
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    lines, all_same = report(measure(trees, table, args.rounds, args.seed))
    floor = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"{args.rounds} rounds, seed {args.seed}, parent {trees['parent']}, "
          f"change {trees['change']}; no peak RSS reads below this "
          f"script's own, {floor:.1f} MiB")
    print("\n".join(lines))
    return 0 if all_same else 1


if __name__ == "__main__":
    sys.exit(main())
