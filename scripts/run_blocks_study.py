#!/usr/bin/env python3
"""Boxplot study of the block estimators over a (n, b) grid.

Runs the AR(1) design with student noise for each phi, writes raw results
and summaries under <out>/phi<value>/, and prints a median table per
estimator. Quantile columns in summary.csv are the boxplot statistics.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lpblocks.experiment import ExperimentConfig, run_experiment
from lpblocks.models import AR1ModelSpec, NoiseSpec
from lpblocks.spectral import cluster_constant_linear
from lpblocks.models import ar1_coefficients
from lpblocks.seqcore import INF


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--phi", type=float, nargs="+", default=[0.8, 0.6])
    parser.add_argument("--tail-index", type=float, default=1.3)
    parser.add_argument("--n-grid", type=int, nargs="+", default=[1000, 3000, 8000])
    parser.add_argument("--b-grid", type=int, nargs="+",
                        default=[10, 20, 40, 80, 160, 320])
    parser.add_argument("--reps", type=int, default=1000)
    parser.add_argument("--kappa", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--out", default="blocks_study")
    args = parser.parse_args()

    estimators = ("extremal_index_alpha", "extremal_index_infty",
                  "cluster_index_c1", "cluster_index_c1_infty", "serial:1")
    for phi in args.phi:
        model = AR1ModelSpec(phi=phi, noise=NoiseSpec(law="student",
                                                      alpha=args.tail_index))
        config = ExperimentConfig(
            model=model,
            n_grid=tuple(args.n_grid),
            b_grid=tuple(args.b_grid),
            reps=args.reps,
            estimators=estimators,
            kappa=args.kappa,
            alpha_mode="oracle",
            master_seed=args.seed,
        )
        out_dir = Path(args.out) / f"phi{phi:g}"
        rows, summary = run_experiment(config, threads=args.threads, output=out_dir)
        coeffs = ar1_coefficients(phi)
        theta = cluster_constant_linear(coeffs, args.tail_index, INF)
        c1 = cluster_constant_linear(coeffs, args.tail_index, 1.0)
        print(f"\nphi={phi:g}: theta={theta:.6f}  1/c(1)={1.0 / c1:.6f}")
        print(f"{'estimator':>24} {'n':>6} {'b':>4} {'k':>5} {'median':>10}")
        for rec in summary:
            med = "-" if rec["q50"] is None else f"{rec['q50']:10.4f}"
            print(f"{rec['estimator_id']:>24} {rec['n']:>6} {rec['b']:>4} "
                  f"{rec['k']:>5} {med}")
        print(f"wrote {out_dir}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
