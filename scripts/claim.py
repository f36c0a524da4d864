"""Claim a gain between two checkouts by perfbench's alternated-pair rule.

Usage, from anywhere:

    python3 scripts/claim.py PARENT CHANGE --workload W --pairs N --seed S \
        --seconds T [--metric M]

PARENT and CHANGE are two checkouts of the repository.  The script runs
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` in each, N
pairs in all, the parent first in odd pairs and the change first in even
ones, as ``perfbench/README.md`` ("How to claim a gain") lays out.  Use a
seed that was not used while writing the change.

It then applies that README's rules to the result lines:

- rule 4 to the claimed end-to-end metric, ``--metric`` (one of the
  ``end_to_end`` names of ``BENCHMARK.json``, ``wall_s`` by default): the
  change wins at least 9 of every 10 pairs, its median is better by more
  than the parent's own quartile spread, and no operation fails that
  passes at the parent;
- rule 5 to every end-to-end metric of ``BENCHMARK.json``, the claimed one
  included: the change's median may be worse than the parent's by at most
  the metric's bound, and a metric whose quartile spread (over the median,
  on either side) is wider than its bound is "unresolved", unless every
  run of the change reads better than every run of the parent.  So a run on a
  workload that should not move reads its "within bound" lines and ignores
  the claim.

It writes ``BENCH_<workload>.json`` at the root of the checkout holding
this script: the run settings, every run's ``env`` line, both sides'
per-pair metrics (the ``(unscaled)`` timings included) and the verdict.
It exits 0 if the claim holds and no other metric regressed, else 1.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

TREE = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
#: The end-to-end metric whose gain a run claims unless --metric names
#: another.
CLAIMED = "wall_s"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as perfbench/run.py reports them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def parse_run(stdout: str) -> dict:
    """One run's env line, result line, metric table medians and FAILED
    lines, from the standard output of perfbench/run.py."""
    lines = stdout.splitlines()
    env = next(json.loads(ln[4:]) for ln in lines if ln.startswith("env "))
    result = json.loads(lines[-1])
    table = {}
    for ln in lines:
        if ln.startswith(("env ", "{", "metric ", "operations:", "FAILED ")):
            continue
        parts = ln.rsplit(None, 5)
        if len(parts) == 6:
            table[parts[0]] = float(parts[1])
    failures = [ln[len("FAILED "):] for ln in lines
                if ln.startswith("FAILED ")]
    return {"env": env, "result": result, "table": table,
            "failures": failures}


def _better(value: float, base: float, better: str) -> bool:
    return value < base if better == "lower" else value > base


def decide(metrics: list[dict], claimed: str, runs: dict) -> dict:
    """The verdict over paired runs.

    ``metrics`` are the ``end_to_end`` entries of BENCHMARK.json, ``runs``
    maps "parent" and "change" to equally long lists of parsed runs
    (``parse_run``), pair by pair.  Pure function of its arguments.
    """
    parent, change = runs["parent"], runs["change"]
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of runs per side")

    def values(side: list[dict], name: str) -> list[float]:
        return [r["result"]["metrics"][name]["value"] for r in side]

    old_failures = {f for r in parent for f in r["failures"]}
    new_failures = sorted({f for r in change for f in r["failures"]}
                          - old_failures)
    ops = {side: [sum(r["result"][k] for r in runs[side])
                  for k in ("attempted", "failed")] for side in SIDES}
    more_failed = (ops["change"][1] * max(ops["parent"][0], 1)
                   > ops["parent"][1] * max(ops["change"][0], 1))
    verdict = {"claimed_metric": claimed, "pairs": len(parent),
               "operations": ops, "newly_failed": new_failures,
               "metrics": {}}
    if claimed not in {entry["name"] for entry in metrics}:
        raise ValueError(f"{claimed!r} is not an end-to-end metric")
    for entry in metrics:
        name, better = entry["name"], entry["better"]
        p_vals, c_vals = values(parent, name), values(change, name)
        p_q1, p_med, p_q3 = quartiles(p_vals)
        c_q1, c_med, c_q3 = quartiles(c_vals)
        worse = (c_med - p_med if better == "lower" else p_med - c_med)
        worse = worse / p_med if p_med else math.inf
        spread = max((q3 - q1) / med if med else math.inf
                     for q1, med, q3 in ((p_q1, p_med, p_q3),
                                         (c_q1, c_med, c_q3)))
        if spread > entry["bound"]:
            status = ("better in every run" if all(
                _better(c, p, better) for c in c_vals for p in p_vals)
                else "unresolved")
        elif worse > entry["bound"]:
            status = "regressed"
        else:
            status = "within bound"
        row = {"parent": {"median": p_med, "q1": p_q1, "q3": p_q3},
               "change": {"median": c_med, "q1": c_q1, "q3": c_q3},
               "change_over_parent": c_med / p_med if p_med else math.nan,
               "bound": entry["bound"], "worse_by": worse, "spread": spread,
               "status": status}
        if name == claimed:
            wins = sum(_better(c, p, better) for p, c in zip(p_vals, c_vals))
            gap = abs(c_med - p_med)
            claim_holds = (10 * wins >= 9 * len(parent)
                           and _better(c_med, p_med, better)
                           and gap > p_q3 - p_q1
                           and not new_failures and not more_failed)
            row.update(wins=wins, median_gap=gap,
                       parent_quartile_spread=p_q3 - p_q1)
        verdict["metrics"][name] = row
    verdict["claim_holds"] = claim_holds
    verdict["regressed"] = sorted(
        n for n, row in verdict["metrics"].items()
        if row["status"] == "regressed")
    return verdict


def run_pairs(trees: dict, workload: str, pairs: int, seed: int,
              seconds: float) -> tuple[dict, list]:
    runs = {side: [] for side in SIDES}
    order = []
    for i in range(1, pairs + 1):
        sides = SIDES if i % 2 else SIDES[::-1]
        order.append(list(sides))
        for side in sides:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"],
                cwd=trees[side], capture_output=True, text=True, check=True)
            run = parse_run(proc.stdout)
            runs[side].append(run)
            metrics = run["result"]["metrics"]
            print(f"pair {i} {side}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in metrics.items()),
                file=sys.stderr)
    return runs, order


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    bench = json.loads((TREE / "BENCHMARK.json").read_text())
    parser.add_argument("--metric", default=CLAIMED,
                        choices=[m["name"] for m in bench["end_to_end"]])
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs, order = run_pairs(trees, args.workload, args.pairs, args.seed,
                            args.seconds)
    verdict = decide(bench["end_to_end"], args.metric, runs)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "pairs": args.pairs, "order": order,
        "env": {side: [r["env"] for r in runs[side]] for side in SIDES},
        "runs": {side: [{"metrics": {k: v["value"] for k, v in
                                     r["result"]["metrics"].items()},
                         "unscaled": {k: v for k, v in r["table"].items()
                                      if k.endswith("(unscaled)")},
                         "attempted": r["result"]["attempted"],
                         "failed": r["result"]["failed"],
                         "failures": r["failures"]}
                        for r in runs[side]] for side in SIDES},
        "verdict": verdict}
    out = TREE / f"BENCH_{args.workload}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for name, row in verdict["metrics"].items():
        print(f"{name}: {row['status']}; parent {row['parent']['median']:.4g}"
              f", change {row['change']['median']:.4g}")
    shown = "shown" if verdict["claim_holds"] else "not shown"
    print(f"{args.metric} gain {shown}; written {out}")
    return 0 if verdict["claim_holds"] and not verdict["regressed"] else 1


if __name__ == "__main__":
    sys.exit(main())
