"""Command line entry points: simulate / estimate / experiment / oracle / ldratio."""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time

from .experiment import (
    _study,
    estimate_from_file,
    format_oracle_report,
    known_estimators,
    load_config,
    oracle_report,
    summary_csv_text,
)
from . import largedev
from .largedev import ld_ratio_centered_mc, ld_ratio_mc, pilot_level
from .models import AR1ModelSpec, LinearModelSpec, NoiseSpec, simulate
from .seqcore import as_p


def _add_model_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", choices=("ar1", "linear"), required=True)
    parser.add_argument("--phi", type=float, help="AR(1) coefficient, |phi| < 1")
    parser.add_argument("--coeffs", help="comma-separated linear coefficients")
    parser.add_argument("--noise", choices=("pareto", "student"), default="student")
    parser.add_argument("--tail-index", type=float, required=True,
                        help="noise tail index alpha")
    parser.add_argument("--burn-in", type=int, default=1000,
                        help="AR(1) burn-in length")


def _build_model(args: argparse.Namespace):
    noise = NoiseSpec(law=args.noise, alpha=args.tail_index)
    if args.model == "ar1":
        if args.phi is None:
            raise ValueError("--model ar1 requires --phi")
        return AR1ModelSpec(phi=args.phi, noise=noise, burn_in=args.burn_in)
    if not args.coeffs:
        raise ValueError("--model linear requires --coeffs")
    try:
        coeffs = tuple(float(tok) for tok in args.coeffs.split(",") if tok.strip())
    except ValueError:
        raise ValueError(
            f"--coeffs must be comma-separated numbers, got {args.coeffs!r}") from None
    return LinearModelSpec(coeffs=coeffs, noise=noise)


def _cmd_simulate(args: argparse.Namespace) -> int:
    model = _build_model(args)
    series = simulate(model, args.n, args.seed)
    lines = [f"# simulated {args.model} series, n={args.n}, seed={args.seed}"]
    lines.extend(repr(float(v)) for v in series)
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    report = estimate_from_file(args.path, args.estimator, b=args.b,
                                kappa=args.kappa, alpha=args.alpha)
    print(f"estimator_id={report.estimator_id}")
    print(f"value={report.value!r}")
    print(f"p={report.p}")
    print(f"b={report.b} k={report.k} m={report.m}")
    print(f"threshold={report.threshold!r}")
    print(f"selected_blocks={report.selected_blocks}")
    if report.alpha_used is not None:
        print(f"alpha_used={report.alpha_used!r}")
    print(f"degenerate={int(report.degenerate)}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, master_seed=args.seed)
    groups, summary = _study(config, threads=args.threads, output=args.out)
    if args.out is None:
        sys.stdout.write(summary_csv_text(summary))
    else:
        print(f"wrote {args.out}/results.csv ({len(groups) * config.reps} rows)")
        print(f"wrote {args.out}/summary.csv ({len(summary)} groups)")
        print(f"wrote {args.out}/summary.json")
    return 0


def _parse_p_list(text: str, alpha: float):
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        out.append(alpha if tok == "alpha" else as_p(tok))
    return out or None


def _cmd_oracle(args: argparse.Namespace) -> int:
    model = _build_model(args)
    p_list = _parse_p_list(args.p, model.noise.alpha) if args.p else None
    report = oracle_report(model, p_list=p_list, serial_lags=args.serial_lags)
    print(format_oracle_report(report))
    return 0


def _cmd_ldratio(args: argparse.Namespace) -> int:
    model = _build_model(args)
    # the counts fail here, before the pilot level draws anything
    largedev._check_counts(reps=args.reps)
    if args.x is None:
        largedev._check_counts(**{"--pilot-reps": args.pilot_reps})
    if args.centered:
        largedev._check_counts(**{"--moment-reps": args.moment_reps})
    drawn = largedev._drawn.copy()
    start = time.perf_counter()
    if args.x is not None:
        x = args.x
    else:
        x = pilot_level(model, args.n, args.p, args.pilot_q,
                        reps=args.pilot_reps, seed=args.seed,
                        threads=args.threads)
        print(f"pilot level: x={x!r} (q={args.pilot_q})")
    if args.centered:
        est = ld_ratio_centered_mc(model, args.n, args.p, model.noise.alpha,
                                   x, args.reps, args.seed,
                                   pilot_reps=args.moment_reps,
                                   threads=args.threads)
    else:
        est = ld_ratio_mc(model, args.n, args.p, x, args.reps, args.seed,
                          threads=args.threads)
    elapsed = time.perf_counter() - start
    used = largedev._drawn - drawn
    # on stderr: stdout stays the same bytes for any worker count and run time
    print(f"ld: values={used['values']} rows={used['rows']} chunks={used['chunks']} "
          f"tiles={used['tiles']} elapsed_s={elapsed:.3f} "
          f"values_per_s={used['values'] / elapsed:.4g}", file=sys.stderr)
    print(f"ratio={est.ratio!r}")
    print(f"std_error={est.std_error!r}")
    print(f"hits: numerator={est.numerator_hits} denominator={est.denominator_hits}")
    print(f"n={est.n} x={est.x!r} p={est.p} reps={est.reps}")
    if est.z is not None:
        print(f"z={est.z!r} z_std_error={est.z_std_error!r}")
    print(f"degenerate={int(est.degenerate)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpblocks",
        description="Block estimators for heavy-tailed time series: "
                    "extremal index, cluster indices, large-deviation checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate a series and write one value per line")
    _add_model_args(sim)
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", help="output file (default: stdout)")
    sim.set_defaults(fn=_cmd_simulate)

    est = sub.add_parser("estimate", help="run one estimator on a series file")
    est.add_argument("path", help="series file, one value per line, '#' comments")
    est.add_argument("--estimator", required=True,
                     help="one of: " + ", ".join(known_estimators()))
    est.add_argument("--b", type=int, required=True, help="block length")
    est.add_argument("--kappa", type=float, default=1.0)
    est.add_argument("--alpha", default="hill",
                     help="tail index: a number, 'hill' or 'hill:<k_tail>'")
    est.set_defaults(fn=_cmd_estimate)

    exp = sub.add_parser("experiment", help="run a Monte Carlo grid from a JSON config")
    exp.add_argument("config", help="JSON config file")
    exp.add_argument("--threads", type=int, default=1)
    exp.add_argument("--out", help="output directory (default: summary to stdout)")
    exp.add_argument("--seed", type=int, default=None,
                     help="override the config master_seed")
    exp.set_defaults(fn=_cmd_experiment)

    orc = sub.add_parser("oracle", help="closed-form constants for a model")
    _add_model_args(orc)
    orc.add_argument("--p", help="comma-separated exponents, e.g. '0.5,1,alpha,2,inf'")
    orc.add_argument("--serial-lags", type=int, default=4)
    orc.set_defaults(fn=_cmd_oracle)

    ld = sub.add_parser("ldratio", help="Monte Carlo large-deviation ratio")
    _add_model_args(ld)
    ld.add_argument("--n", type=int, required=True, help="sample length")
    ld.add_argument("--p", required=True, help="norm exponent (number or 'inf')")
    ld.add_argument("--reps", type=int, default=1_000_000)
    ld.add_argument("--x", type=float, help="tail level (default: pilot quantile)")
    ld.add_argument("--pilot-q", type=float, default=0.999,
                    help="pilot quantile for the level when --x is absent")
    ld.add_argument("--pilot-reps", type=int, default=20_000)
    ld.add_argument("--centered", action="store_true",
                    help="use the moment-centered numerator level")
    ld.add_argument("--moment-reps", type=int, default=1_000_000,
                    help="pilot draws for the centering moment")
    ld.add_argument("--seed", type=int, default=0)
    ld.add_argument("--threads", type=int, default=1)
    ld.set_defaults(fn=_cmd_ldratio)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
