"""The three benchmark workloads: inputs from a seed, one pass, and oracles.

Each workload runs the same inputs in every pass of a run; the seed only
chooses them.  Every call into geophase is one operation in a ``Ledger``.
An operation fails when it raises or when any of its oracle checks fails.

Why these three (see README.md for the full table):

* ``analytic-map`` loads the closed-form route (``protocol`` kernel,
  ``analysis`` refinement, transition search and meshing) and no
  ``trajectories`` code.  The 256x256 map calls the kernel in wide batches;
  the 21 transition searches make many small curve calls, so a kernel
  change and a per-call-overhead change move different numbers.
* ``mc-oracle`` loads Born-rule Monte Carlo: Philox, readout draws,
  backaction, the reduction and the worker pool.  ``protocol`` only
  supplies 13 scalar references.  The 1e6-sample cell makes the reduction's
  memory visible in peak RSS.
* ``cli-session`` runs fresh ``python -m geophase.cli`` processes with
  small inputs, so import, configuration and file writes dominate.  Lazy
  imports and write-path changes show only here.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import spans

#: m* for N = 3, exact.
M_STAR_N3 = 2.0 / math.sqrt(3.0) - 1.0
#: m* for N = 6 as the paper quotes it, to five decimals; a bracket "holds"
#: it when it meets the interval that rounds to this value.
M_STAR_N6 = 0.47255
M_STAR_N6_ROUNDING = 5e-6
#: Allowed distance of the equatorial phase jump from pi.
JUMP_TOL = 0.05
#: Strong-limit error bound at the largest N.
STRONG_LIMIT_TOL = 0.02
#: Family-wise false-alarm bound of all statistical checks in one run.
FAMILY_ALPHA = 1e-3
#: Cells closer than this to (pi/2, m*) are redrawn: the contrast vanishes
#: there and the phase is undefined.
SINGULAR_THETA = 0.2
SINGULAR_M = 0.05

PERFBENCH = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Sizes:
    """Work per pass.  FULL is the benchmark; TINY is for the smoke test."""

    map_thetas: int = 256
    map_ms: int = 256
    transition_tol: float = 1e-6
    transition_ns: tuple = (3, 4, 5, 6, 8, 12, 24)
    weights: int = 3
    curve_ns: tuple = (6, 24, 96, 384)
    surface_ms: tuple = tuple(round(0.05 + 0.1 * k, 2) for k in range(10))
    mc_cells: int = 12
    mc_samples: int = 100_000
    long_samples: int = 1_000_000
    cli_grid: int = 64
    cli_samples: int = 100_000
    setup_probes: int = 11


FULL = Sizes()
TINY = Sizes(map_thetas=16, map_ms=16, transition_tol=1e-4,
             transition_ns=(3, 6), weights=2, curve_ns=(6, 384),
             surface_ms=(0.25, 0.75), mc_cells=3, mc_samples=5000,
             long_samples=20_000, cli_grid=8, cli_samples=2000,
             setup_probes=1)


class Ledger:
    """Attempted and failed operations of one run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.after_op = None  # if set, called after every operation

    @property
    def failed(self) -> int:
        return len(self.failures)

    @contextlib.contextmanager
    def op(self, label: str):
        """One operation.  The body gets ``check(ok, what)``; the operation
        fails if a check fails or the body raises."""
        self.attempted += 1
        problems: list[str] = []

        def check(ok, what):
            if not ok:
                problems.append(what)

        try:
            yield check
        except Exception as exc:  # a raising operation is a failed one
            problems.append(f"raised {type(exc).__name__}: {exc}")
        if problems:
            self.failures.append(f"{label}: {'; '.join(problems)}")
        if self.after_op is not None:
            self.after_op()


def child_env(root: Path) -> dict:
    """Environment of every process the benchmark starts.  It inherits the
    BLAS thread pin run.py sets before anything loads numpy."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def z_limit(n_tests: int) -> float:
    """Two-sided |z| limit keeping n_tests tests within FAMILY_ALPHA."""
    return statistics.NormalDist().inv_cdf(1.0 - FAMILY_ALPHA / n_tests / 2.0)


def _reference_amplitude(result) -> complex:
    return result.contrast * complex(math.cos(result.phase),
                                     math.sin(result.phase))


def _away_from_transition(theta: float, m: float) -> bool:
    return not (abs(theta - math.pi / 2) < SINGULAR_THETA
                and abs(m - M_STAR_N6) < SINGULAR_M)


def _draw_cell(rng: random.Random, projective: bool = False):
    """(theta, m, mc seed) with theta in [0.3, 2.8], m in [0.2, 0.9]."""
    while True:
        theta = round(rng.uniform(0.3, 2.8), 6)
        m = 0.0 if projective else round(rng.uniform(0.2, 0.9), 6)
        if _away_from_transition(theta, m):
            return theta, m, rng.randrange(2 ** 32)


class Workload:
    """One workload.  ``setup_code`` runs in a fresh interpreter to time
    set-up, and in process (``prepare``) before the first pass."""

    name = ""
    in_process = True
    setup_code = ""

    def __init__(self, root: Path, seed: int, sizes: Sizes):
        self.root = root
        self.sizes = sizes

    def prepare(self) -> None:
        exec(compile(self.setup_code, f"<{self.name} setup>", "exec"), {})

    def run_pass(self, ledger: Ledger, traced: bool):
        """Run one pass; return (values, spans snapshot or None)."""
        raise NotImplementedError

    def close(self) -> None:
        """Stop every worker process the pass left running."""
        trajectories = sys.modules.get("geophase.trajectories")
        pools = getattr(trajectories, "_pools", {})
        for pool in pools.values():
            pool.shutdown(wait=True)
        pools.clear()


class AnalyticMap(Workload):
    name = "analytic-map"
    setup_code = ("from geophase import analysis\n"
                  "analysis.find_critical_strength()\n")

    def __init__(self, root, seed, sizes):
        super().__init__(root, seed, sizes)
        rng = random.Random(seed)
        self.weights = [round(rng.uniform(0.2, 0.8), 6)
                        for _ in range(sizes.weights)]

    def run_pass(self, ledger, traced):
        from geophase import analysis as an
        from geophase.measurement import Strength

        s = self.sizes
        w_map, w_curve = self.weights[0], self.weights[-1]
        values = {}

        with ledger.op(f"sweep_phase_map {s.map_thetas}x{s.map_ms}") as check:
            t0 = perf_counter()
            pm = an.sweep_phase_map(np.linspace(0.0, np.pi, s.map_thetas),
                                    np.linspace(0.0, 1.0, s.map_ms),
                                    reference_weight=w_map, workers=1)
            values["map_cells_per_s"] = pm.n_cells / (perf_counter() - t0)
            i, _ = np.unravel_index(np.nanargmin(pm.contrast),
                                    pm.contrast.shape)
            step = np.pi / (s.map_thetas - 1)
            check(abs(pm.theta_grid[i] - np.pi / 2) <= step + 1e-12,
                  f"contrast minimum at theta={pm.theta_grid[i]!r}, more "
                  "than one step from pi/2")
            bound = 2.0 * math.sqrt(w_map * (1.0 - w_map))
            check(np.nanmax(pm.contrast) <= bound + 1e-12,
                  "contrast above 2*sqrt(w*(1-w))")

        scan_s = 0.0
        m_stars: dict[int, list] = {}
        for n in s.transition_ns:
            for w in self.weights:
                with ledger.op(f"find_critical_strength N={n} w={w}") as check:
                    t0 = perf_counter()
                    rep = an.find_critical_strength(
                        n_meas=n, reference_weight=w, tol=s.transition_tol)
                    scan_s += perf_counter() - t0
                    lo, hi = rep.bracket
                    check(rep.chern_below == 1 and rep.chern_above == 0,
                          f"winding {rep.chern_below}->{rep.chern_above}, "
                          "not 1->0")
                    check(abs(rep.jump_at_equator - math.pi) <= JUMP_TOL,
                          f"equatorial jump {rep.jump_at_equator!r} not pi")
                    check(hi - lo <= s.transition_tol,
                          f"bracket width {hi - lo!r} above tol")
                    if n == 3:
                        check(lo <= M_STAR_N3 <= hi,
                              f"m*(3)={M_STAR_N3!r} outside [{lo!r}, {hi!r}]")
                    if n == 6:
                        check(lo - M_STAR_N6_ROUNDING <= M_STAR_N6
                              <= hi + M_STAR_N6_ROUNDING,
                              f"m*(6)={M_STAR_N6} outside [{lo!r}, {hi!r}]")
                    m_stars.setdefault(n, []).append(rep.m_star.m)
            with ledger.op(f"m* agreement across weights N={n}") as check:
                found = m_stars.get(n, [])
                check(len(found) == len(self.weights), "a search failed")
                if found:
                    check(max(found) - min(found) <= s.transition_tol,
                          f"m* differs across weights: {found}")
        values["transition_scan_s"] = scan_s

        law_thetas = np.array([np.pi / 6, np.pi / 4, np.pi / 3, np.pi / 2,
                               2 * np.pi / 3])
        law = np.pi * (1.0 - np.cos(law_thetas))
        grid = np.unique(np.concatenate([np.linspace(0.0, np.pi, 97),
                                         law_thetas]))
        errors = []
        for n in s.curve_ns:
            with ledger.op(f"strong-limit curve N={n}") as check:
                curve = an.phase_vs_theta(Strength(0.0), grid, n_meas=n,
                                          reference_weight=w_curve)
                check(curve.unwrappable, "curve not unwrappable")
                errors.append(float(np.max(np.abs(
                    curve.chi[curve.at(law_thetas)] - law))))
        with ledger.op("strong-limit convergence") as check:
            check(len(errors) == len(s.curve_ns), "a curve failed")
            check(errors[-1] < STRONG_LIMIT_TOL,
                  f"error {errors[-1]!r} at N={s.curve_ns[-1]}")
            check(all(b < a for a, b in zip(errors, errors[1:])),
                  f"error not decreasing in N: {errors}")

        m_star = statistics.median(m_stars.get(6, [M_STAR_N6]))
        for m in s.surface_ms:
            if abs(m - m_star) < 0.02:
                continue
            with ledger.op(f"surface_degree m={m}") as check:
                degree = an.surface_degree(Strength(m), reference_weight=w_map)
                winding = an.chern_from_curve(an.phase_vs_theta(
                    Strength(m), reference_weight=w_map))
                check(degree == winding,
                      f"degree {degree} != winding {winding}")
                check(winding == (1 if m < m_star else 0),
                      f"winding {winding} on the wrong side of m*")
        return values, None


class McOracle(Workload):
    name = "mc-oracle"
    setup_code = (
        "from geophase import trajectories as tr\n"
        "from geophase.measurement import Strength\n"
        "from geophase.protocol import ProtocolSpec, run_protocol_analytic\n"
        "spec = ProtocolSpec(theta=1.0, strength=Strength(0.5))\n"
        "run_protocol_analytic(spec)\n"
        "tr.readout_histogram(spec, tr.McConfig(n_samples=4096, seed=0))\n"
        "tr.mc_interference(spec, tr.McConfig(n_samples=8192, seed=0),"
        " workers=2)\n")

    def __init__(self, root, seed, sizes):
        super().__init__(root, seed, sizes)
        rng = random.Random(seed)
        self.cells = [_draw_cell(rng, projective=True)]
        self.cells += [_draw_cell(rng) for _ in range(sizes.mc_cells - 1)]
        self.long_cell = _draw_cell(rng)
        n_hist = sum(1 for _, m, _ in self.cells if m > 0.0)
        # two z components per MC estimate plus one p-value per histogram
        self.n_tests = 2 * (len(self.cells) + 1) + n_hist
        self.z_max = z_limit(self.n_tests)

    def _check_z(self, check, estimate, reference):
        from geophase import trajectories as tr
        z_re, z_im = tr.z_scores(estimate, reference)
        check(z_re <= self.z_max and z_im <= self.z_max,
              f"z=({z_re:.3g}, {z_im:.3g}) above {self.z_max:.3g}")

    def run_pass(self, ledger, traced):
        from geophase import protocol as pr
        from geophase import trajectories as tr
        from geophase.measurement import Strength

        s = self.sizes
        serial = [0, 0.0]
        pooled = [0, 0.0]

        def timed_mc(spec, cfg, workers, acc):
            t0 = perf_counter()
            estimate = tr.mc_interference(spec, cfg, workers=workers)
            acc[0] += cfg.n_samples
            acc[1] += perf_counter() - t0
            return estimate

        for theta, m, mc_seed in self.cells:
            spec = pr.ProtocolSpec(theta=theta, strength=Strength(m))
            cfg = tr.McConfig(n_samples=s.mc_samples, seed=mc_seed)
            with ledger.op(f"mc theta={theta} m={m}") as check:
                reference, _ = pr.run_protocol_analytic(spec)
                one = timed_mc(spec, cfg, 1, serial)
                two = timed_mc(spec, cfg, 2, pooled)
                check(one == two, "estimates differ between 1 and 2 workers")
                check(not one.insufficient, "estimate flagged insufficient")
                self._check_z(check, one, _reference_amplitude(reference))
            if m > 0.0:
                with ledger.op(f"readout_histogram theta={theta} m={m}") as check:
                    hist = tr.readout_histogram(spec, cfg)
                    check(hist.p_value >= FAMILY_ALPHA / self.n_tests,
                          f"histogram p={hist.p_value:.3g}")
                    check(int(hist.counts.sum()) == s.mc_samples,
                          "histogram lost samples")

        theta, m, mc_seed = self.long_cell
        spec = pr.ProtocolSpec(theta=theta, strength=Strength(m))
        with ledger.op(f"mc long cell theta={theta} m={m}") as check:
            reference, _ = pr.run_protocol_analytic(spec)
            estimate = timed_mc(
                spec, tr.McConfig(n_samples=s.long_samples, seed=mc_seed), 1,
                serial)
            self._check_z(check, estimate, _reference_amplitude(reference))

        values = {}
        if serial[1] > 0.0:
            values["mc_samples_per_s"] = serial[0] / serial[1]
        if pooled[1] > 0.0:
            values["mc_samples_per_s_2w"] = pooled[0] / pooled[1]
        return values, None


class CliSession(Workload):
    name = "cli-session"
    in_process = False
    setup_code = "import geophase.cli\n"

    def __init__(self, root, seed, sizes):
        super().__init__(root, seed, sizes)
        rng = random.Random(seed)
        theta, m, mc_seed = _draw_cell(rng)
        while True:
            self.m_surface = round(rng.uniform(0.05, 0.95), 4)
            if abs(self.m_surface - M_STAR_N6) >= 0.02:
                break
        g = sizes.cli_grid
        self.sweep_stop = 3.14159
        self.commands = {
            "phase": ["phase", "--theta", repr(theta), "--m", repr(m)],
            "sweep": ["sweep", "--grid-theta", f"0:{self.sweep_stop}:{g}",
                      "--grid-m", f"0:1:{g}"],
            "transition": ["transition", "--assert-jump", "pi"],
            "mc": ["mc", "--theta", repr(theta), "--m", repr(m), "--samples",
                   str(sizes.cli_samples), "--seed", str(mc_seed % 2 ** 31)],
            "surface": ["surface", "--m", repr(self.m_surface)],
            "schema": ["schema"],
        }
        # the session's mc command runs under both thread settings with
        # identical output, so its family is its two z components
        self.z_max = z_limit(2)
        self.env = child_env(root)
        self.work = root / ".perfbench_work" / f"cli-{os.getpid()}"

    def prepare(self) -> None:
        # what `geophase schema` prints; the schema command is checked
        # against it and every envelope is validated with it
        self.schema = json.loads((self.root / "src" / "geophase" / "schema"
                                  / "envelope.schema.json").read_text())
        self.work.mkdir(parents=True, exist_ok=True)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            self.work.parent.rmdir()

    def _run(self, args, out: Path, threads: str, traced: bool):
        env = dict(self.env, GEOPHASE_THREADS=threads)
        span_file = self.work / "spans.json"
        span_file.unlink(missing_ok=True)
        if traced:
            argv = [sys.executable, str(PERFBENCH / "traced_cli.py"),
                    str(span_file)]
        else:
            argv = [sys.executable, "-m", "geophase.cli"]
        t0 = perf_counter()
        proc = subprocess.run(argv + args + ["--out", str(out)], env=env,
                              cwd=self.work, capture_output=True, text=True,
                              timeout=60)
        wall = perf_counter() - t0
        snap = json.loads(span_file.read_text()) if traced else None
        return proc, wall, snap

    def run_pass(self, ledger, traced):
        import jsonschema

        walls, compute, overhead, snaps, imports = [], {}, [], [], []
        primary = {}
        # the same --out for both settings: the envelopes echo it
        out = self.work / "out"
        for threads in ("1", "2"):
            shutil.rmtree(out, ignore_errors=True)
            results = {}
            for cmd, args in self.commands.items():
                with ledger.op(f"geophase {cmd} GEOPHASE_THREADS={threads}") \
                        as check:
                    proc, wall, snap = self._run(args, out, threads, traced)
                    walls.append(wall)
                    if snap is not None:
                        imports.append(snap.pop("import_s"))
                        snaps.append(snap)
                    # mc is judged by its z-scores under the family-wise
                    # bound, not by its own |z| <= 3 exit code
                    ok_codes = (0, 1) if cmd == "mc" else (0,)
                    check(proc.returncode in ok_codes,
                          f"exit code {proc.returncode}: {proc.stderr[-300:]}")
                    if cmd == "schema":
                        check(json.loads(proc.stdout) == self.schema,
                              "printed schema differs from the package's")
                        check(json.loads((out / "envelope.schema.json")
                                         .read_text()) == self.schema,
                              "written schema differs from the package's")
                        continue
                    secs = json.loads((out / f"{cmd}.timing.json")
                                      .read_text())["wall_seconds"]
                    compute.setdefault(cmd, []).append(secs)
                    overhead.append(wall - secs)
                    envelope = json.loads((out / f"{cmd}.json").read_text())
                    jsonschema.validate(envelope, self.schema)
                    results[cmd] = envelope["results"]
                    getattr(self, f"_check_{cmd}")(check, results[cmd],
                                                   results)
            primary[threads] = {p.name: p.read_bytes()
                                for p in sorted(out.glob("*"))
                                if not p.name.endswith(".timing.json")}
        with ledger.op("primary files across GEOPHASE_THREADS") as check:
            check(primary["1"] and primary["1"] == primary["2"],
                  "primary files differ between GEOPHASE_THREADS=1 and 2")

        values = {"cli_command_s": statistics.median(walls),
                  "cli.output_bytes": sum(len(b) for b in primary["1"].values())}
        if overhead:
            values["cli.overhead_s"] = statistics.median(overhead)
        for cmd, secs in compute.items():
            values[f"cli.{cmd}.compute_s"] = statistics.median(secs)
        if imports:
            values["cli.import_s"] = statistics.median(imports)
        return values, spans.merge(snaps) if traced else None

    def _check_phase(self, check, res, results):
        check(0.0 <= res["contrast"] <= 1.0 + 1e-12, "contrast outside [0, 1]")
        check(res["phase_defined"], "phase undefined away from m*")

    def _check_sweep(self, check, res, results):
        g = self.sizes.cli_grid
        check(res["cells"] == g * g, f"{res['cells']} cells")
        step = self.sweep_stop / (g - 1)
        check(abs(res["contrast_min_theta"] - math.pi / 2) <= step + 1e-12,
              "contrast minimum more than one step from pi/2")

    def _check_transition(self, check, res, results):
        lo, hi = res["bracket_m"]
        check(lo - M_STAR_N6_ROUNDING <= M_STAR_N6 <= hi + M_STAR_N6_ROUNDING,
              f"m*(6)={M_STAR_N6} outside [{lo!r}, {hi!r}]")
        check(res["chern_below"] == 1 and res["chern_above"] == 0,
              "winding not 1->0")
        check(abs(res["jump_at_equator"] - math.pi) <= JUMP_TOL,
              "equatorial jump not pi")

    def _check_mc(self, check, res, results):
        z = res["z_scores"]
        check(z["re"] <= self.z_max and z["im"] <= self.z_max,
              f"z=({z['re']:.3g}, {z['im']:.3g}) above {self.z_max:.3g}")
        check(res["mc"]["n_samples"] == self.sizes.cli_samples,
              "sample count")
        phase = results.get("phase", {})
        check(res["analytic"]["chi"] == phase.get("chi")
              and res["analytic"]["contrast"] == phase.get("contrast"),
              "mc reference differs from the phase command")

    def _check_surface(self, check, res, results):
        expected = 1 if self.m_surface < M_STAR_N6 else 0
        check(res["degree"] == expected,
              f"degree {res['degree']} at m={self.m_surface}, want {expected}")


WORKLOADS = {w.name: w for w in (AnalyticMap, McOracle, CliSession)}
