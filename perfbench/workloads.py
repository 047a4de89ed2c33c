"""The benchmark's workloads: what one operation runs and how its output is
checked.

Every workload drives lpblocks the way a user does, through its public entry
points, single process with ``--threads 1``. An operation's inputs are a pure
function of the benchmark seed and the operation's index.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from tracing import ESTIMATOR_SPANS, lead_columns, sampler_info

HERE = Path(__file__).resolve().parent
STUDY_REFERENCE = HERE / "reference" / "study_ar1.json"

# an LD ratio or oracle Monte Carlo value passes when it lies within this
# many of its own reported standard errors of the closed-form limit
SE_MULTIPLE = 6.0
# closed-form and Monte Carlo oracle values of a linear model agree to
# rounding: its spectral ratio is constant, so the reported s.e. is ~0
ORACLE_RTOL = 1e-9
# summary floats may differ from the stored reference by last-ulp
# reordering of sums and quantile interpolation, nothing more
SUMMARY_RTOL = 1e-9
SUMMARY_ATOL = 1e-12


@dataclass
class OpResult:
    """Outcome of one operation; ``wall`` times the lpblocks calls only,
    not the output checks."""

    attempted: int
    problems: list = field(default_factory=list)
    fingerprint: object = None
    requested: int = 0
    wall: float = 0.0
    degenerate: int = 0
    units: int = 0
    rel_se: Optional[float] = None


def _run_cli(argv, tracer):
    """Run ``lpblocks <argv>`` in-process; returns (exit code, stdout, wall)."""
    from lpblocks import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        if tracer is None:
            code = cli.main(argv)
        else:
            code = tracer.call("cli", cli.main, (argv,))
        wall = time.perf_counter() - start
    return code, out.getvalue(), wall


def reference_rows(summary: list, fields) -> list:
    """Summary records as lists of ``fields``, the stored reference layout."""
    return [[rec[f] for f in fields] for rec in summary]


class StudyAR1:
    calls_per_op = 1
    reps = 50
    config = {
        "model": {"kind": "ar1", "phi": 0.8, "burn_in": 300,
                  "noise": {"law": "student", "alpha": 1.3}},
        "n_grid": [1000, 3000, 8000],
        "b_grid": [10, 20, 40, 80, 160, 320],
        "reps": reps,
        "estimators": ["extremal_index_alpha", "extremal_index_infty",
                       "cluster_index_c1", "cluster_index_c1_infty",
                       "serial:1", "supwalk"],
        "kappa": 1.0,
        "alpha_mode": "oracle",
        "master_seed": 0,
    }
    # master seeds with a stored reference summary; the benchmark seed picks
    # where in this cycle a run starts
    master_seeds = tuple(range(1001, 1009))

    def __init__(self, workdir: Path):
        self.config_path = workdir / "study.json"
        self.config_path.write_text(json.dumps(self.config), encoding="utf-8")
        self.out_dir = workdir / "study-out"
        self._reference = None

    def op_input(self, seed: int, index: int):
        return self.master_seeds[(seed + index) % len(self.master_seeds)]

    def experiment(self, master_seed: int, tracer=None):
        """Run the study once; returns (exit code, wall, summary.json text,
        results.csv text), the texts None when the run failed."""
        argv = ["experiment", str(self.config_path), "--threads", "1",
                "--out", str(self.out_dir), "--seed", str(master_seed)]
        code, _, wall = _run_cli(argv, tracer)
        if code != 0:
            return code, wall, None, None
        return (code, wall,
                (self.out_dir / "summary.json").read_text(encoding="utf-8"),
                (self.out_dir / "results.csv").read_text(encoding="utf-8"))

    def run(self, master_seed: int, tracer=None) -> OpResult:
        code, wall, summary_text, results_text = self.experiment(master_seed, tracer)
        result = OpResult(attempted=1, requested=self.reps, wall=wall)
        if code != 0:
            result.problems.append(f"experiment exited with {code}")
            return result
        result.fingerprint = (summary_text, results_text)
        rows = results_text.splitlines()[1:]
        result.units = len(rows)
        result.degenerate = sum(1 for r in rows if r.endswith(",1"))
        problem = self.compare(master_seed, json.loads(summary_text))
        if problem:
            result.problems.append(problem)
        return result

    def reference(self) -> dict:
        if self._reference is None:
            self._reference = json.loads(STUDY_REFERENCE.read_text(encoding="utf-8"))
        return self._reference

    def compare(self, master_seed: int, summary: list) -> Optional[str]:
        ref = self.reference()
        expected = ref["summaries"].get(str(master_seed))
        if expected is None:
            return f"no reference summary for master seed {master_seed}"
        fields = ref["fields"]
        got = reference_rows(summary, fields)
        if len(got) != len(expected):
            return f"summary has {len(got)} records, reference {len(expected)}"
        for row, want in zip(got, expected):
            for name, a, b in zip(fields, row, want):
                if isinstance(b, float) and isinstance(a, float):
                    if math.isclose(a, b, rel_tol=SUMMARY_RTOL, abs_tol=SUMMARY_ATOL):
                        continue
                elif a == b:
                    continue
                return (f"master seed {master_seed}: {want[0]} n={want[1]} b={want[2]} "
                        f"{name}={a!r}, reference {b!r}")
        return None

    def implied(self) -> dict:
        grid = sum(1 for n in self.config["n_grid"] for b in self.config["b_grid"]
                   if n // b >= 2)
        counts = {"cli": 1, "experiment.run": 1, "experiment.summarize": 1,
                  "experiment.write_outputs": 1, "models.simulate": self.reps,
                  "blocks.partition": self.reps * grid}
        for span in ESTIMATOR_SPANS.values():
            counts[span] = self.reps * grid
        return {"calls": counts, "sums": {}}


class LDRatio:
    """One ``lpblocks ldratio`` run per operation, seeded per operation."""

    calls_per_op = 1

    def __init__(self, workdir: Path, argv, model, reps, n, limit_p,
                 pilot_reps=None, moment_reps=None):
        from lpblocks.experiment import model_from_dict
        from lpblocks.spectral import cluster_constant_linear

        self.model = model_from_dict(model)
        self.limit = cluster_constant_linear(self.model, self.model.noise.alpha, limit_p)
        self.reps = reps
        self.n = n
        self.pilot_reps = pilot_reps
        self.moment_reps = moment_reps
        self.argv = list(argv) + ["--reps", str(reps), "--threads", "1"]
        if pilot_reps is not None:
            self.argv += ["--pilot-reps", str(pilot_reps)]
        if moment_reps is not None:
            self.argv += ["--moment-reps", str(moment_reps)]

    def op_input(self, seed: int, index: int):
        return seed * 1000 + index

    def run(self, op_seed: int, tracer=None) -> OpResult:
        code, text, wall = _run_cli(self.argv + ["--seed", str(op_seed)], tracer)
        result = OpResult(attempted=1, requested=self.reps, wall=wall,
                          fingerprint=text, units=1)
        if code != 0:
            result.problems.append(f"ldratio exited with {code}")
            return result
        fields = {}
        for line in text.splitlines():
            for token in line.replace("hits:", "").split():
                key, sep, value = token.partition("=")
                if sep:
                    fields[key] = value
        try:
            ratio = float(fields["ratio"])
            se = float(fields["std_error"])
            reps = int(fields["reps"])
            degenerate = fields["degenerate"] == "1"
            z = float(fields["z"]) if "z" in fields else None
            x = float(fields["x"])
        except (KeyError, ValueError) as exc:
            result.problems.append(f"unreadable ldratio output ({exc!r}): {text!r}")
            return result
        result.degenerate = int(degenerate)
        if ratio > 0 and se > 0:
            result.rel_se = se / ratio
        if degenerate or reps != self.reps or not se > 0:
            result.problems.append(f"seed {op_seed}: degenerate={int(degenerate)} "
                                   f"reps={reps} std_error={se!r}")
        elif abs(ratio - self.limit) > SE_MULTIPLE * se:
            result.problems.append(f"seed {op_seed}: ratio {ratio!r} +- {se!r} is more "
                                   f"than {SE_MULTIPLE:g} s.e. from {self.limit!r}")
        if self.moment_reps is not None and not (z is not None and z > x):
            result.problems.append(f"seed {op_seed}: centered level z={z!r} not above x={x!r}")
        return result

    def implied(self) -> dict:
        lead = lead_columns(self.model)
        rows_n = self.reps + (self.pilot_reps or 0)
        rows_1 = self.reps + (self.moment_reps or 0)
        counts = {"cli": 1, "largedev.ld": 1,
                  "largedev.pilot_level": 1 if self.pilot_reps else 0}
        sums = {"values": rows_n * (self.n + lead) + rows_1 * (1 + lead),
                "elements": rows_n * self.n + self.reps}
        return {"calls": counts, "sums": sums}


class OracleMC:
    p_list = (0.5, 1.0, 2.0, "inf")
    calls_per_op = len(p_list)
    draws = 500_000

    def __init__(self, workdir: Path):
        from lpblocks.models import AR1ModelSpec, NoiseSpec, model_coefficients
        from lpblocks.spectral import cluster_constant_linear, theta_sampler_linear

        model = AR1ModelSpec(phi=0.8, noise=NoiseSpec(law="student", alpha=1.3))
        self.alpha = model.noise.alpha
        self.sampler = theta_sampler_linear(model)
        coeffs = model_coefficients(model)
        self.exact = [cluster_constant_linear(coeffs, self.alpha, p) for p in self.p_list]

    def op_input(self, seed: int, index: int):
        return seed * 1000 + index * len(self.p_list)

    def run(self, op_seed: int, tracer=None) -> OpResult:
        from lpblocks.spectral import cluster_constant_mc

        sampler = self.sampler
        if tracer is not None:
            sampler = tracer.wrap("spectral.sampler", sampler, sampler_info)
        result = OpResult(attempted=self.calls_per_op,
                          requested=self.draws * len(self.p_list))
        values = []
        for i, (p, exact) in enumerate(zip(self.p_list, self.exact)):
            args = (sampler, self.alpha, p, self.draws, op_seed + i)
            start = time.perf_counter()
            try:
                if tracer is None:
                    est = cluster_constant_mc(*args)
                else:
                    est = tracer.call("spectral.mc", cluster_constant_mc, args)
            except Exception as exc:  # a raising call is a failed operation
                result.problems.append(f"p={p}: {type(exc).__name__}: {exc}")
                continue
            finally:
                result.wall += time.perf_counter() - start
            values.append((est.value, est.std_error))
            tol = SE_MULTIPLE * est.std_error + ORACLE_RTOL * abs(exact)
            if est.n_draws != self.draws or not abs(est.value - exact) <= tol:
                result.problems.append(f"p={p}: {est!r} vs closed form {exact!r}")
        result.fingerprint = values
        return result

    def implied(self) -> dict:
        return {"calls": {"spectral.mc": len(self.p_list)},
                "sums": {"sampler_rows": self.draws * len(self.p_list)}}


WORKLOADS = {
    "study-ar1": StudyAR1,
    # the acceptance p=inf panel
    "ld-ar1-inf": functools.partial(
        LDRatio,
        argv=["ldratio", "--model", "ar1", "--phi", "0.8", "--burn-in", "150",
              "--noise", "student", "--tail-index", "1.3", "--n", "100",
              "--p", "inf", "--x", "2000"],
        model={"kind": "ar1", "phi": 0.8, "burn_in": 150,
               "noise": {"law": "student", "alpha": 1.3}},
        reps=100_000, n=100, limit_p="inf"),
    # p = alpha, so the level comes from the pilot and the truncated moment
    "ld-ma-pareto-centered": functools.partial(
        LDRatio,
        argv=["ldratio", "--model", "linear", "--coeffs", "1,-0.7,0.5,0.3",
              "--noise", "pareto", "--tail-index", "1.3", "--n", "100",
              "--p", "1.3", "--centered", "--pilot-q", "0.9"],
        model={"kind": "linear", "coeffs": [1.0, -0.7, 0.5, 0.3],
               "noise": {"law": "pareto", "alpha": 1.3}},
        reps=250_000, n=100, limit_p=1.3, pilot_reps=20_000, moment_reps=1_000_000),
    "oracle-mc": OracleMC,
}
