#!/usr/bin/env python3
"""Large-deviation ratio sweep.

For each p, estimates P(||X_[1,n]||_p > x) / (n P(|X_0| > x)) at a pilot
quantile level and prints it next to the closed-form c(p) of the model.
Short burn-in keeps the AR(1) sweep fast; phi^150 is far below double
precision, so the marginal law is stationary to rounding error.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lpblocks.largedev import ld_ratio_centered_mc, ld_ratio_mc, pilot_level
from lpblocks.models import AR1ModelSpec, NoiseSpec, model_coefficients
from lpblocks.spectral import cluster_constant_linear


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--phi", type=float, default=0.8)
    parser.add_argument("--tail-index", type=float, default=1.3)
    parser.add_argument("--n", type=int, default=200)
    parser.add_argument("--p", nargs="+", default=["1", "2", "inf"])
    parser.add_argument("--reps", type=int, default=200_000)
    parser.add_argument("--pilot-q", type=float, default=0.99)
    parser.add_argument("--centered", action="store_true")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args()

    model = AR1ModelSpec(phi=args.phi, burn_in=150,
                         noise=NoiseSpec(law="student", alpha=args.tail_index))
    coeffs = model_coefficients(model)
    print(f"AR(1) phi={args.phi:g}, alpha={args.tail_index:g}, n={args.n}, "
          f"reps={args.reps}, pilot q={args.pilot_q}")
    print(f"{'p':>6} {'ratio':>10} {'3 s.e.':>10} {'c(p)':>10} {'hits n/d':>14}")
    for p in args.p:
        x = pilot_level(model, args.n, p, args.pilot_q, seed=args.seed,
                        threads=args.threads)
        if args.centered:
            est = ld_ratio_centered_mc(model, args.n, p, args.tail_index, x,
                                       args.reps, args.seed, threads=args.threads)
        else:
            est = ld_ratio_mc(model, args.n, p, x, args.reps, args.seed,
                              threads=args.threads)
        target = cluster_constant_linear(coeffs, args.tail_index, p)
        flag = " (degenerate)" if est.degenerate else ""
        print(f"{str(p):>6} {est.ratio:>10.4f} {3 * est.std_error:>10.4f} "
              f"{target:>10.4f} {est.numerator_hits:>7}/{est.denominator_hits}"
              f"{flag}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
