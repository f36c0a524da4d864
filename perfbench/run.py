"""geophase benchmark: one workload, one run, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload analytic-map --seed 1 --seconds 30 --trace 0

The workload's inputs come from ``--seed``.  After set-up, passes of the
workload run one after another (a closed loop, one operation at a time)
until ``--seconds`` have passed.  Every operation is checked against an
oracle; a failed check or an exception counts as a failed operation.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: the
median set-up time over several fresh processes, run between the passes,
the median pass wall time and the peak RSS.  Set-up and pass times are
scaled to a reference machine speed (see Speedometer).  ``--trace 1``
reports the per-layer metrics instead: passes alternate between untraced
and traced, the traced ones record spans around every call into a geophase
module (see spans.py), and the ratio of the two medians is the tracing
overhead.

The last line of standard output is the JSON result; the lines before it
describe the machine and give each metric's median, quartiles and sample
count.  The exit code is 0 whenever a result is printed, and 2 when the
checkout holds no ``src/geophase`` to measure.
"""

from __future__ import annotations

import os

#: BLAS threads are pinned before numpy loads, in this process and, through
#: the inherited environment, in every process the benchmark starts.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _spread(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


#: Wall time of Speedometer.sample's loop on an idle machine (2.1 GHz Xeon
#: vCPU, Python 3.11, numpy 2.4).  End-to-end times are scaled to it.
REFERENCE_SAMPLE_S = 0.0018
#: Least time between two speed samples taken after operations.
SAMPLE_INTERVAL_S = 0.1


class Speedometer:
    """How fast the machine runs, sampled between operations.

    The host's speed drifts by a factor of up to 1.7 within seconds (other
    tenants; neither CPU time nor steal time shows it).  A sample times a
    short fixed mix of interpreter and small-array numpy work that does
    not touch geophase.  Samples are taken before and after every pass and
    set-up process and, in untraced runs, after operations at most every
    SAMPLE_INTERVAL_S, when no worker or child process of the workload is
    running.  A pass's wall time minus the sampling inside it, times the
    reference sample time over the mean sample time, is what the pass
    would have taken at the reference speed: it keeps what the code costs
    (README.md, "Noise", shows a known extra cost surviving the scaling)
    and drops most of the drift.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, end)

    def sample(self) -> None:
        t0 = perf_counter()
        acc = 0
        for k in range(15_000):
            acc += k * k
        counts: dict[int, int] = {}
        for k in range(2_000):
            counts[k & 255] = counts.get(k & 255, 0) + 1
        angles = np.linspace(0.0, 1.0, 256)
        mats = np.zeros((256, 3, 3), dtype=complex)
        vecs = np.ones((256, 3), dtype=complex)
        for k in range(30):
            mats[:, 0, 0] = np.cos(angles + k)
            mats[:, 1, 1] = np.sin(angles)
            mats[:, 2, 2] = 1.0
            vecs = np.einsum("nij,nj->ni", mats, vecs)
            vecs /= np.abs(vecs).max() + 1.0
        self.samples.append((t0, perf_counter()))

    def sample_if_due(self) -> None:
        if perf_counter() - self.samples[-1][1] >= SAMPLE_INTERVAL_S:
            self.sample()

    def scaled(self, t0: float, t1: float) -> float:
        """Wall time of [t0, t1] at the reference speed.  Needs a sample
        that ended by t0 and one that started at or after t1."""
        before = max(i for i, (_, end) in enumerate(self.samples) if end <= t0)
        after = min(i for i, (start, _) in enumerate(self.samples)
                    if start >= t1)
        inside = self.samples[before + 1:after]
        durations = [end - start for start, end in self.samples[before:after + 1]]
        busy = sum(end - start for start, end in inside)
        # the median: a sample the scheduler preempted reads many times slow
        return (t1 - t0 - busy) * REFERENCE_SAMPLE_S / statistics.median(durations)


def _setup_probe(wl, ledger) -> bool:
    """Run the workload's set-up in one fresh interpreter; True if it ran."""
    ran = False
    with ledger.op(f"set-up process {wl.name}") as check:
        proc = subprocess.run([sys.executable, "-c", wl.setup_code],
                              env=workloads.child_env(ROOT), cwd=ROOT,
                              capture_output=True, text=True, timeout=170)
        ran = True
        check(proc.returncode == 0,
              f"exit code {proc.returncode}: {proc.stderr[-300:]}")
    return ran


def _one_pass(wl, ledger, traced: bool):
    """Run one pass; return (values, start, end, spans snapshot)."""
    if traced and wl.in_process:
        tracer = spans.Tracer()
        restore = tracer.install()
        try:
            t0 = perf_counter()
            values, _ = wl.run_pass(ledger, traced)
            t1 = perf_counter()
        finally:
            restore()
        return values, t0, t1, tracer.snapshot()
    t0 = perf_counter()
    values, snap = wl.run_pass(ledger, traced)
    return values, t0, perf_counter(), snap


def _peak_rss_mb(in_process: bool) -> float:
    """Peak RSS in MB; children only when the workload runs in children."""
    kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if in_process:
        kb = max(kb, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return kb / 1024.0


def measure(name: str, seed: int, seconds: float, trace: bool,
            sizes: workloads.Sizes = workloads.FULL):
    """Run one workload.  Returns (result, samples, ledger): the result line,
    every metric's per-pass samples, and the operation ledger."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = bench["per_layer" if trace else "end_to_end"]
    wl = workloads.WORKLOADS[name](ROOT, seed, sizes)
    ledger = workloads.Ledger()
    speed = Speedometer()
    samples: dict[str, list[float]] = {}
    traced_samples: dict[str, list[float]] = {}
    passes: list[tuple[bool, float, float]] = []  # (traced, start, end)
    probes: list[tuple[float, float]] = []  # set-up processes (start, end)
    n_probes = 0 if trace else sizes.setup_probes
    try:
        wl.prepare()
        # sampling inside traced passes would land in the spans' self times
        if not trace:
            ledger.after_op = speed.sample_if_due
        speed.sample()
        start = perf_counter()
        n_traced = 0
        while True:
            traced = trace and n_traced < len(passes) - n_traced
            n_traced += traced
            values, t0, t1, snap = _one_pass(wl, ledger, traced)
            speed.sample()
            passes.append((traced, t0, t1))
            if traced:
                values = {**values, **spans.layer_metrics(snap),
                          **spans.self_shares(snap, t1 - t0)}
            for key, value in values.items():
                (traced_samples if traced else samples).setdefault(
                    key, []).append(value)
            # Set-up processes are spread over the run in step with the
            # passes, so that both meet the same machine states.
            share = min(1.0, (perf_counter() - start) / seconds
                        if seconds > 0 else 1.0)
            while len(probes) < math.ceil(n_probes * share - 1e-9):
                p0 = perf_counter()
                if _setup_probe(wl, ledger):
                    probes.append((p0, perf_counter()))
                speed.sample()
            # at least one untraced pass, and one traced pass if tracing
            if (len(passes) > n_traced and (n_traced or not trace)
                    and perf_counter() - start >= seconds):
                break
    finally:
        wl.close()

    walls = {kind: [speed.scaled(t0, t1) for t, t0, t1 in passes if t == kind]
             for kind in (False, True)}
    samples["wall_s"] = walls[False]
    samples["wall_s (unscaled)"] = [t1 - t0 for t, t0, t1 in passes if not t]
    if probes:
        samples["setup_s"] = [speed.scaled(t0, t1) for t0, t1 in probes]
        samples["setup_s (unscaled)"] = [t1 - t0 for t0, t1 in probes]
    samples["speed sample_s"] = [end - start for start, end in speed.samples]
    samples["peak_rss_mb"] = [_peak_rss_mb(wl.in_process)]
    if trace:
        # timings of traced passes carry the tracing overhead: a metric
        # the untraced passes also give is taken from those
        for key, values in traced_samples.items():
            samples.setdefault(key, values)
        samples["trace.overhead_ratio"] = [
            statistics.median(walls[True]) / statistics.median(walls[False])]
    metrics = {}
    for entry in wanted:
        values = samples.get(entry["name"])
        value = statistics.median(values) if values else 0.0
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    return result, samples, ledger


def _openblas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(args) -> dict:
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "cpu": _cpu_model(), "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"), "blas": _openblas(),
            "blas_threads": BLAS_THREADS, "commit": _commit(),
            "src_sha256": _src_digest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "geophase" / "__init__.py").is_file():
        print(f"error: no src/geophase package under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    result, samples, ledger = measure(args.workload, args.seed, args.seconds,
                                      bool(args.trace))
    print("env " + json.dumps(environment(args), sort_keys=True))
    print(f"{'metric':48s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'n':>4s}")
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    shown = [n for n in ("setup_s (unscaled)", "wall_s (unscaled)",
                         "speed sample_s") if n in samples]
    shown += sorted(n for n in samples if n.endswith(" self share"))
    for name in [*units, *shown]:
        values = samples.get(name, [])
        q1, med, q3 = _spread(values or [result["metrics"][name]["value"]])
        unit = units.get(name, "share" if name.endswith("share") else "s")
        print(f"{name:48s} {med:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{len(values):4d} {unit}")
    print(f"operations: {ledger.attempted} attempted, {ledger.failed} failed")
    for failure in ledger.failures[:20]:
        print(f"FAILED {failure}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
