#!/usr/bin/env python3
"""lpblocks benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s>

Runs one workload (see workloads.py and BENCHMARK.json) single process, with
the BLAS/OpenMP pools pinned to one thread, repeating operations for about
``--seconds`` seconds. Every operation's output is checked. ``--trace 0``
reports the end-to-end metrics from untraced operations. ``--trace 1`` runs
each operation twice, untraced and traced with the same inputs, checks that
both give the same output, and reports per-layer metrics from the traced
ones. ``--workload all`` runs every workload untraced and traced and prints
the tables side by side.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Without the lpblocks
sources next to this directory the run fails before printing it.
"""

import os

# pin native thread pools before numpy is imported; setup probes inherit this
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gzip
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(ROOT / "src"))

from tracing import LAYERS, ESTIMATOR_SPANS, Tracer, aggregate, installed  # noqa: E402
from workloads import WORKLOADS, OpResult  # noqa: E402

SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "reps_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": cpu,
            "threads": os.environ["OMP_NUM_THREADS"]}


# ---------------------------------------------------------------------------
# set-up time, measured in fresh interpreters


def probe_setup(workload: str) -> int:
    """Child side: import lpblocks, build the inputs, report, exit."""
    start = time.perf_counter()
    import lpblocks  # noqa: F401

    import_s = time.perf_counter() - start
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        WORKLOADS[workload](Path(tmp))
        print(f"ready {import_s!r}", flush=True)
    return 0


def measure_setup(workload: str) -> tuple[list, list]:
    """Wall time from process launch to the first workload call being ready,
    and the import time of lpblocks inside that process, per probe."""
    totals, imports = [], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", workload],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            totals.append(time.perf_counter() - start)
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if proc.returncode != 0 or not line.startswith("ready "):
            raise RuntimeError(f"setup probe failed with code {proc.returncode}")
        imports.append(float(line.split()[1]))
    return totals, imports


# ---------------------------------------------------------------------------
# operations


def execute(workload, inp, tracer=None) -> OpResult:
    start = time.perf_counter()
    try:
        return workload.run(inp, tracer)
    except Exception as exc:  # an operation that raises counts as failed
        return OpResult(attempted=workload.calls_per_op,
                        problems=[f"{type(exc).__name__}: {exc}"],
                        wall=time.perf_counter() - start)


def run_ops(workload, seed: int, seconds: float, traced: bool):
    """Repeat operations until the next one would end after ``seconds``.

    Traced runs execute each input twice, alternating which of the untraced
    and the traced call goes first, and fail the traced operation when its
    output differs from the untraced one.
    """
    tracer = Tracer() if traced else None
    missing: set = set()
    plain, traced_ops = [], []
    start = time.perf_counter()
    index = 0
    while True:
        inp = workload.op_input(seed, index)
        if traced:
            first_traced = index % 2 == 1
            pair = {}
            for use_tracer in (first_traced, not first_traced):
                if use_tracer:
                    with installed(tracer, missing):
                        pair[True] = execute(workload, inp, tracer)
                else:
                    pair[False] = execute(workload, inp)
            if pair[True].fingerprint != pair[False].fingerprint:
                pair[True].problems.append("traced output differs from untraced output")
            plain.append(pair[False])
            traced_ops.append(pair[True])
        else:
            plain.append(execute(workload, inp))
        index += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / index > seconds:
            return plain, traced_ops, tracer, missing


# ---------------------------------------------------------------------------
# metrics


def _median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def run_metrics(ops, setup_totals) -> dict:
    """Metrics of untraced operations: the end-to-end set plus three that
    carry no bound (see README.md).

    Times are means over the run, not medians: on a shared host the speed
    drifts in phases of seconds, and the run-level mean follows the phase
    mix more steadily than a median, which snaps to one phase.
    """
    attempted = sum(op.attempted for op in ops)
    failed = sum(min(len(op.problems), op.attempted) for op in ops)
    units = sum(op.units for op in ops)
    wall = sum(op.wall for op in ops)
    s_to_1pct = [op.wall * (op.rel_se / 0.01) ** 2 for op in ops if op.rel_se]
    return {
        "setup_s": _median(setup_totals),
        "wall_s": wall / len(ops),
        "reps_per_s": sum(op.requested for op in ops) / wall if wall > 0 else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "s_to_1pct": _median(s_to_1pct),
        "failed_frac": failed / attempted if attempted else 0.0,
        "degenerate_frac": sum(op.degenerate for op in ops) / units if units else 0.0,
    }


def layer_metrics(workload, plain, traced_ops, tracer, setup_imports):
    """Per-layer metrics as name -> (unit, value), per traced operation, and
    the span counts that differ from what the workload implies."""
    k = len(traced_ops)
    agg = aggregate(tracer.spans)
    self_s, calls, sums = agg["self_s"], agg["calls"], agg["sums"]
    traced_wall = sum(op.wall for op in traced_ops)

    def s(name):
        return self_s.get(name, 0.0) / k

    def c(name):
        return calls.get(name, 0) / k

    def ratio(num, den):
        return num / den if den else 0.0

    values = sums.get("values", 0)
    m = {"setup.import_s": ("s", _median(setup_imports)), "cli.s": ("s", s("cli"))}
    for name in ("models.simulate", "models.simulate_batch"):
        m[name + ".s"] = ("s", s(name))
        m[name + ".calls"] = ("count", c(name))
    m["models.values"] = ("count", values / k)
    m["models.values_per_s"] = ("1/s", ratio(values, self_s.get("models.simulate", 0.0)
                                             + self_s.get("models.simulate_batch", 0.0)))
    m["models.len1_share"] = ("frac", ratio(sums.get("values_len1", 0), values))
    m["models.len1.s"] = ("s", sums.get("len1_s", 0.0) / k)
    m["seqcore.row_p_moduli.s"] = ("s", s("seqcore.row_p_moduli"))
    m["seqcore.row_p_moduli.calls"] = ("count", c("seqcore.row_p_moduli"))
    m["seqcore.row_p_moduli.elements"] = ("count", sums.get("elements", 0) / k)
    for name in ("blocks.partition", "blocks.norms", "blocks.threshold"):
        m[name + ".s"] = ("s", s(name))
        m[name + ".calls"] = ("count", c(name))
    m["blocks.norms.hit_ratio"] = ("frac", ratio(sums.get("norms_hits", 0),
                                                 calls.get("blocks.norms", 0)))
    for name in ESTIMATOR_SPANS.values():
        m[name + ".s"] = ("s", s(name))
        m[name + ".calls"] = ("count", c(name))
    m["estimators.selected_share"] = ("frac", ratio(sums.get("selected", 0),
                                                    sums.get("m", 0)))
    for name in ("experiment.run", "experiment.summarize", "experiment.write_outputs"):
        m[name + ".s"] = ("s", s(name))
    m["experiment.bytes_written"] = ("bytes", sums.get("bytes_written", 0) / k)
    m["largedev.ld.s"] = ("s", s("largedev.ld"))
    m["largedev.pilot_level.s"] = ("s", s("largedev.pilot_level"))
    m["largedev.chunks"] = ("count", c("models.simulate_batch"))
    m["largedev.chunk_mb_max"] = ("MB", agg["chunk_bytes_max"] / 1e6)
    m["spectral.sampler.s"] = ("s", s("spectral.sampler"))
    m["spectral.sampler.calls"] = ("count", c("spectral.sampler"))
    m["spectral.mc.s"] = ("s", s("spectral.mc"))
    m["spectral.batch_mb"] = ("MB", agg["batch_bytes_max"] / 1e6)
    for layer in LAYERS:
        m[f"share.{layer}"] = ("frac", ratio(agg["layer_s"].get(layer, 0.0), traced_wall))
    untraced_wall = sum(op.wall for op in plain)
    m["trace.overhead_frac"] = ("frac", ratio(traced_wall, untraced_wall) - 1.0)
    m["trace.unattributed_frac"] = ("frac", ratio(traced_wall - agg["top_s"], traced_wall))

    mismatches = []
    implied = workload.implied()
    for name, per_op in implied["calls"].items():
        if calls.get(name, 0) != per_op * k:
            mismatches.append(f"{name} calls {calls.get(name, 0)} != {per_op} x {k} ops")
    for name, per_op in implied["sums"].items():
        if sums.get(name, 0) != per_op * k:
            mismatches.append(f"{name} {sums.get(name, 0)} != {per_op} x {k} ops")
    m["trace.count_mismatches"] = ("count", len(mismatches))
    return m, mismatches


def write_trace(workload_name, seed, env, spans) -> Path:
    names = sorted({span[0] for span in spans})
    index = {name: i for i, name in enumerate(names)}
    payload = {"workload": workload_name, "seed": seed, "env": env, "names": names,
               "fields": ["name", "start", "end", "parent"],
               "spans": [[index[n], s, e, p] for n, s, e, p, _ in spans]}
    path = OUT / f"trace-{workload_name}-seed{seed}.json.gz"
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        json.dump(payload, fh)
    return path


# ---------------------------------------------------------------------------
# reporting


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_table(rows):
    print(f"  {'metric':<34} {'value':>14}  unit")
    for name, value, unit in rows:
        print(f"  {name:<34} {_fmt(value):>14}  {unit}")


def run_one(args) -> int:
    try:
        import lpblocks
    except ImportError as exc:
        print(f"error: cannot import lpblocks from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 1
    if Path(lpblocks.__file__).resolve().parent != ROOT / "src" / "lpblocks":
        print(f"error: lpblocks imported from {lpblocks.__file__}, not from the "
              f"sources in {ROOT / 'src'}", file=sys.stderr)
        return 1
    env = environment()
    traced = args.trace == 1
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print("env " + "  ".join(f"{k}={v}" for k, v in env.items()))
    OUT.mkdir(exist_ok=True)
    setup_totals, setup_imports = measure_setup(args.workload)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workload = WORKLOADS[args.workload](Path(tmp))
        plain, traced_ops, tracer, missing = run_ops(workload, args.seed, args.seconds, traced)

    ops = plain + traced_ops
    problems = [p for op in ops for p in op.problems]
    attempted = sum(op.attempted for op in ops)
    failed = sum(min(len(op.problems), op.attempted) for op in ops)
    print(f"operations {len(plain)} untraced, {len(traced_ops)} traced; "
          f"attempted {attempted}, failed {failed}")
    for problem in problems[:10]:
        print(f"  FAILED: {problem}")

    e2e = run_metrics(plain, setup_totals)
    print("untraced operation walls (s): " + " ".join(f"{op.wall:.4g}" for op in plain))
    print("setup probes (s): " + " ".join(f"{t:.4g}" for t in setup_totals))
    print("end-to-end (untraced operations):")
    print_table([("setup_s", e2e["setup_s"], "s"), ("wall_s", e2e["wall_s"], "s"),
                 ("reps_per_s", e2e["reps_per_s"], "1/s"),
                 ("s_to_1pct", e2e["s_to_1pct"], "s"),
                 ("peak_rss_mb", e2e["peak_rss_mb"], "MB"),
                 ("failed_frac", e2e["failed_frac"], "frac"),
                 ("degenerate_frac", e2e["degenerate_frac"], "frac")])

    if traced:
        layers, mismatches = layer_metrics(workload, plain, traced_ops, tracer,
                                           setup_imports)
        for name in ("s_to_1pct", "failed_frac", "degenerate_frac"):
            layers[name] = ("s" if name == "s_to_1pct" else "frac", e2e[name])
        print("per layer (per traced operation):")
        print_table([(n, v, u) for n, (u, v) in layers.items()])
        print("layer shares of traced wall time (self time):")
        shares = sorted(((layer, layers[f"share.{layer}"][1]) for layer in LAYERS),
                        key=lambda item: -item[1])
        shares.append(("unattributed", layers["trace.unattributed_frac"][1]))
        for layer, share in shares:
            print(f"  {layer:<14} {100 * share:6.2f}%")
        equal = sum(1 for op in traced_ops if "traced output differs from untraced output"
                    not in op.problems)
        print(f"trace fidelity: traced output equals untraced on {equal}/{len(traced_ops)} "
              f"inputs; implied span counts: "
              f"{'all match' if not mismatches else '; '.join(mismatches)}")
        if missing:
            print(f"  names not found, not traced: {', '.join(sorted(missing))}")
        print(f"spans written to {write_trace(args.workload, args.seed, env, tracer.spans)}")
        metrics = {n: {"value": v, "unit": u} for n, (u, v) in layers.items()}
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload untraced, then traced, each in its own process."""
    results = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                return proc.returncode or 1
            results[name, trace] = json.loads(lines[-1])
            print()
    names = list(WORKLOADS)
    print("end-to-end".ljust(24) + "".join(f"{n:>24}" for n in names))
    for metric, unit in END_TO_END.items():
        row = "".join(f"{_fmt(results[n, 0]['metrics'][metric]['value']):>24}" for n in names)
        print(f"{metric + ' (' + unit + ')':<24}{row}")
    print("layer share".ljust(24) + "".join(f"{n:>24}" for n in names))
    for layer in LAYERS + ("unattributed",):
        key = "trace.unattributed_frac" if layer == "unattributed" else f"share.{layer}"
        row = "".join(f"{100 * results[n, 1]['metrics'][key]['value']:>23.2f}%" for n in names)
        print(f"{layer:<24}{row}")
    runs = results.values()
    print(json.dumps({
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {f"{n}.{metric}": value for (n, trace), r in results.items()
                    for metric, value in r["metrics"].items()},
    }))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if args.probe_setup:
        return probe_setup(args.workload)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
