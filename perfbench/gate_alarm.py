"""False-alarm rate of the 24-cell Monte Carlo acceptance gate (reported only).

The acceptance suite compares Monte Carlo with the closed form on 24
(theta, m) cells and passes only if all 48 real/imaginary z-scores are at
most 3.  Each component alone trips with probability 0.27% on a correct
program, so the gate as a whole trips far more often.  This script measures
that rate over many seeds at a reduced sample count and adds one aggregate
chi-square test over all components (Hotelling's T^2, which accounts for
their correlation).  The gate itself is not changed.

Usage, from the root of a checkout:

    python3 perfbench/gate_alarm.py --samples 10000

Prints, for GATE_SEEDS reduced runs: how often the gate tripped (with a
Wilson 95% interval) against the rate expected for independent components,
and the distribution of the aggregate p-values, which should be uniform.
Then, at the gate's own size (1e5 samples, seed 42), the largest |z| and the
aggregate p-value.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"})
ROOT = Path(__file__).resolve().parent.parent
GATE_Z = 3.0
GATE_SEED = 42
GATE_SAMPLES = 100_000
#: Seeds of the reduced runs.
GATE_SEEDS = 200


def gate_cells(m_star: float):
    """The acceptance suite's 24 cells: a 5x5 grid minus its cell nearest
    to (pi/2, m*)."""
    import numpy as np
    thetas = np.linspace(0.3, 2.8, 5)
    ms = np.linspace(0.2, 0.9, 5)
    grid = [(float(t), float(m)) for t in thetas for m in ms]
    singular = min(grid, key=lambda tm: (tm[0] - np.pi / 2) ** 2
                   + (tm[1] - m_star) ** 2)
    return [c for c in grid if c != singular]


def components(specs, refs, n_samples: int, seed: int):
    """Gate z-scores of every component, and the p-value of one aggregate
    test over all of them.

    The cells of one run share the seed, so they share their uniforms and
    their estimates are correlated; so are the real and imaginary parts of
    one cell.  The aggregate is therefore Hotelling's T^2 on the vector of
    all components, with the covariance estimated from the per-sample terms
    (sample i of every cell comes from the same uniforms).  Components with
    no spread are left out of it.
    """
    import numpy as np
    from scipy.stats import f as f_dist

    from geophase.trajectories import (McConfig, McEstimate,
                                       interference_terms, z_scores)

    cfg = McConfig(n_samples=n_samples, seed=seed)
    gate, columns, deltas = [], [], []
    for spec, ref in zip(specs, refs):
        terms = interference_terms(spec, cfg)
        n = terms.size
        est = McEstimate(mean=complex(np.mean(terms)),
                         stderr_re=float(np.std(terms.real, ddof=1) / np.sqrt(n)),
                         stderr_im=float(np.std(terms.imag, ddof=1) / np.sqrt(n)),
                         n_samples=n, insufficient=False)
        gate.extend(z_scores(est, ref))
        for part, target in ((terms.real, ref.real), (terms.imag, ref.imag)):
            if np.std(part) > 0.0:
                columns.append(part)
                deltas.append(np.mean(part) - target)
    cov = np.cov(np.asarray(columns))
    delta = np.asarray(deltas)
    rank = np.linalg.matrix_rank(cov)
    t2 = n_samples * float(delta @ np.linalg.pinv(cov) @ delta)
    stat = t2 * (n_samples - rank) / (rank * (n_samples - 1))
    return gate, float(f_dist.sf(stat, rank, n_samples - rank)), rank


def wilson(k: int, n: int, z: float = 1.96):
    p = k / n
    den = 1.0 + z * z / n
    mid = (p + z * z / (2 * n)) / den
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / den
    return mid - half, mid + half


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--samples", type=int, default=10_000,
                        help="samples per cell in the reduced runs")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from scipy.stats import kstest

    from geophase.analysis import find_critical_strength
    from geophase.measurement import Strength
    from geophase.protocol import ProtocolSpec, run_protocol_analytic

    cells = gate_cells(find_critical_strength().m_star.m)
    specs = [ProtocolSpec(theta=t, strength=Strength(m)) for t, m in cells]
    refs = []
    for spec in specs:
        res, _ = run_protocol_analytic(spec)
        refs.append(res.contrast * complex(math.cos(res.phase),
                                           math.sin(res.phase)))

    trips, p_values = 0, []
    for seed in range(GATE_SEEDS):
        gate, p_value, _ = components(specs, refs, args.samples, seed)
        trips += max(gate) > GATE_Z
        p_values.append(p_value)
    p_comp = math.erfc(GATE_Z / math.sqrt(2.0))
    expected = 1.0 - (1.0 - p_comp) ** len(gate)
    lo, hi = wilson(trips, GATE_SEEDS)
    p_values = np.asarray(p_values)
    print(f"reduced runs: {GATE_SEEDS} seeds x {len(cells)} cells x "
          f"{args.samples} samples")
    print(f"  gate |z| <= {GATE_Z} tripped in {trips}/{GATE_SEEDS} = "
          f"{trips / GATE_SEEDS:.3f} (95% CI {lo:.3f}-{hi:.3f})")
    print(f"  if the {len(gate)} components were independent: {expected:.3f}")
    print(f"  aggregate T^2 p-values: fraction < 0.05 = "
          f"{np.mean(p_values < 0.05):.3f}, < 0.01 = "
          f"{np.mean(p_values < 0.01):.3f}, KS uniformity p = "
          f"{kstest(p_values, 'uniform').pvalue:.3g}")

    gate, p_value, rank = components(specs, refs, GATE_SAMPLES, GATE_SEED)
    verdict = "tripped" if max(gate) > GATE_Z else "passed"
    print(f"gate size: seed {GATE_SEED}, {GATE_SAMPLES} samples: max |z| "
          f"{max(gate):.3f} ({verdict}); aggregate T^2 over {rank} "
          f"components: p = {p_value:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
