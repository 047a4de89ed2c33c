"""Monte Carlo experiment harness.

Runs estimator grids over simulated series with one derived RNG stream per
replication, so every estimator at a grid point sees the same sample (paired
boxplots) and output files are byte-identical for any worker count. The
replications are cut into tasks of at most a row tile (_TILE_BYTES) of
noise, filtered at once, one noise stream per row. A task cuts its blocks
once per b, at its largest n, and norms them there in one pass for every
exponent the estimators read; each (n, b) grid point is a prefix of that
block stack: one threshold per (p, k), and one run of each estimator's
kernels over every frame in it (under Hill, one run per frame of each
estimator that reads alpha, on that frame's one-frame stack), with the
values of the per-frame estimators.
A task returns them as one column per (estimator, n, b); the study joins the
tasks' columns in replication order and writes every output from them.
One table maps each built-in estimator id to whether it needs alpha and its
stack function, another to the norms it reads; an EstimatorEntry's run is
that function's one-frame case.
Also hosts config parsing, series-file ingestion, and the closed-form report.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import operator
import warnings
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .blocks import _BlockStack, default_k, partition
from .estimators import (
    EstimateReport,
    _cluster_index_c1,
    _cluster_index_c1_infty,
    _extremal_index_alpha,
    _extremal_index_infty,
    _frame_report,
    _serial_dependence,
    _supwalk_constant,
    hill_alpha,
)
from .models import (
    AR1ModelSpec,
    LinearModelSpec,
    Model,
    NoiseSpec,
    SeedSpec,
    _pool_map,
    model_coefficients,
    sample_noise,
)
from .seqcore import INF, _tile_height, as_p, as_series
from .spectral import (
    cluster_constant_linear,
    cluster_constant_telescoping,
    serial_dependence_oracle_linear,
    supwalk_constant_oracle_linear,
)

__all__ = [
    "AlphaMode",
    "parse_alpha_mode",
    "resolve_alpha",
    "EstimatorEntry",
    "get_estimator",
    "known_estimators",
    "ExperimentConfig",
    "config_from_dict",
    "config_to_dict",
    "load_config",
    "model_from_dict",
    "model_to_dict",
    "ResultRow",
    "run_experiment",
    "summary_csv_text",
    "write_summary_json",
    "read_series_file",
    "estimate_from_file",
    "oracle_report",
    "format_oracle_report",
]

RESULTS_HEADER = "estimator_id,n,b,k,rep,seed,value,degenerate"
SUMMARY_HEADER = "estimator_id,n,b,k,rows,degenerate,mean,q05,q25,q50,q75,q95"


# ---------------------------------------------------------------------------
# tail index mode


@dataclass(frozen=True)
class AlphaMode:
    """How the tail index is obtained: the model's true value ("oracle"),
    a Hill plug-in ("hill", optional k_tail), or a fixed number."""

    kind: str
    value: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("oracle", "hill", "fixed"):
            raise ValueError(f"unknown alpha mode kind {self.kind!r}")
        if self.kind == "fixed" and not (self.value is not None and 0 < self.value < math.inf):
            raise ValueError(f"fixed alpha must be positive and finite, got {self.value!r}")


def _fixed_mode(mode, value: float) -> AlphaMode:
    try:
        return AlphaMode("fixed", value)
    except ValueError as exc:
        raise ValueError(f"alpha mode {mode!r}: {exc}") from None


def parse_alpha_mode(mode) -> AlphaMode:
    if isinstance(mode, AlphaMode):
        return mode
    if isinstance(mode, (int, float)) and not isinstance(mode, bool):
        return _fixed_mode(mode, float(mode))
    text = str(mode).strip()
    if text == "oracle":
        return AlphaMode("oracle")
    if text == "hill":
        return AlphaMode("hill")
    if text.startswith("hill:"):
        try:
            k_tail = int(text.split(":", 1)[1])
        except ValueError:
            raise ValueError(
                f"alpha mode {mode!r}: k_tail after 'hill:' must be an integer"
            ) from None
        if k_tail < 2:
            raise ValueError(f"alpha mode {mode!r}: hill k_tail must be at least 2")
        return AlphaMode("hill", float(k_tail))
    try:
        value = float(text)
    except ValueError:
        raise ValueError(
            f"alpha mode {mode!r} not understood; use a positive number, "
            "'oracle', 'hill' or 'hill:<k_tail>'"
        ) from None
    return _fixed_mode(mode, value)


def default_hill_k(n: int) -> int:
    return max(2, math.floor(0.05 * n))


def resolve_alpha(mode: AlphaMode, series=None, model: Optional[Model] = None) -> float:
    if mode.kind == "fixed":
        return float(mode.value)
    if mode.kind == "oracle":
        if model is None:
            raise ValueError("oracle alpha mode needs a model; pass a number or hill:<k_tail>")
        return model.noise.alpha
    x = as_series(series)
    k_tail = int(mode.value) if mode.value is not None else default_hill_k(len(x))
    return hill_alpha(x, k_tail)


# ---------------------------------------------------------------------------
# estimator registry


@dataclass(frozen=True)
class EstimatorEntry:
    """A registered estimator: ``stacked(stack, alpha, k)`` runs it over a
    block stack (estimators._Stacked, one value per frame)."""

    estimator_id: str
    needs_alpha: bool
    stacked: Callable

    def run(self, frame, alpha, k: int) -> EstimateReport:
        """The estimator's report on one frame, the one-frame stack."""
        return _frame_report(frame, k, self.stacked(frame, alpha, k))


# id -> (needs_alpha, stack function); "serial:<h>" is _serial_dependence at lag h
_ESTIMATORS = {
    "extremal_index_alpha": (True, _extremal_index_alpha),
    "extremal_index_infty": (False, _extremal_index_infty),
    "cluster_index_c1": (True, _cluster_index_c1),
    "cluster_index_c1_infty": (False, _cluster_index_c1_infty),
    "supwalk": (True, _supwalk_constant),
}
# id -> the block-norm exponents its stack function reads ("alpha": the tail
# index); "serial:<h>" reads alpha's
_NORMS_READ = {"extremal_index_alpha": ("alpha",), "extremal_index_infty": (math.inf,),
               "cluster_index_c1": (1.0,), "cluster_index_c1_infty": (1.0, math.inf),
               "supwalk": (1.0, "alpha")}


def known_estimators() -> list[str]:
    return sorted(_ESTIMATORS) + ["serial:<h>"]


def get_estimator(estimator_id: str) -> EstimatorEntry:
    if estimator_id in _ESTIMATORS:
        return EstimatorEntry(estimator_id, *_ESTIMATORS[estimator_id])
    h = _serial_lag(estimator_id)
    if h is not None:
        return EstimatorEntry(estimator_id, True, functools.partial(_serial_dependence, h=h))
    raise ValueError(
        f"unknown estimator {estimator_id!r}; known: {', '.join(known_estimators())}")


def _serial_lag(estimator_id: str) -> Optional[int]:
    """The lag h of a 'serial:<h>' id, h written as str(h); None for any other id."""
    if not estimator_id.startswith("serial:"):
        return None
    text = estimator_id.split(":", 1)[1]
    try:
        h = int(text)
    except ValueError:
        raise ValueError(f"bad serial lag in {estimator_id!r}") from None
    if h < 0:
        raise ValueError("serial lag must be nonnegative")
    if text != str(h):
        raise ValueError(f"write {estimator_id!r} as 'serial:{h}' (lag in plain decimal)")
    return h


# ---------------------------------------------------------------------------
# configuration


def _integer(name: str, value) -> int:
    """value as an int; bools, floats and strings fail, naming the key."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _real(name: str, value) -> float:
    """value as a float; bools, strings and other types fail, naming the key."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise ValueError(f"{name} must be a number, got {value!r}")


def _listed(name: str, value) -> tuple:
    """A JSON list (or tuple) as a tuple; a string or scalar fails, naming the key."""
    if isinstance(value, (list, tuple)):
        return tuple(value)
    raise ValueError(f"{name} must be a list, got {value!r}")


def _distinct(name: str, entries: tuple) -> tuple:
    """entries as given; an entry listed twice fails, naming the key and it."""
    for i, entry in enumerate(entries):
        if entry in entries[:i]:
            raise ValueError(f"{name} lists {entry!r} more than once")
    return entries


def _grid(name: str, value) -> tuple:
    """A grid as a tuple of distinct ints; integral floats (120.0) are taken,
    any other entry fails, naming the key."""
    entries = []
    for v in _listed(name, value):
        if isinstance(v, float) and v.is_integer():
            v = int(v)
        entries.append(_integer(f"{name} entry", v))
    return _distinct(name, tuple(entries))


def _mapping(name: str, value) -> dict:
    """A JSON object as given; anything else fails, naming the key."""
    if isinstance(value, dict):
        return value
    raise ValueError(f"{name} must be a JSON object, got {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    model: Model
    n_grid: tuple[int, ...]
    b_grid: tuple[int, ...]
    reps: int
    estimators: tuple[str, ...]
    kappa: float = 1.0
    alpha_mode: str = "oracle"
    master_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "n_grid", _grid("n_grid", self.n_grid))
        object.__setattr__(self, "b_grid", _grid("b_grid", self.b_grid))
        object.__setattr__(self, "estimators", _listed("estimators", self.estimators))
        if not self.n_grid or not self.b_grid:
            raise ValueError("n_grid and b_grid must be nonempty")
        if any(n < 1 for n in self.n_grid) or any(b < 1 for b in self.b_grid):
            raise ValueError("grid entries must be positive")
        object.__setattr__(self, "reps", _integer("reps", self.reps))
        object.__setattr__(self, "master_seed", _integer("master_seed", self.master_seed))
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        if not 0 <= self.master_seed < 2 ** 64:
            raise ValueError(f"master_seed must lie in [0, 2**64), got {self.master_seed}")
        if not self.estimators:
            raise ValueError("estimator list must be nonempty")
        mode = parse_alpha_mode(self.alpha_mode)
        for estimator_id in self.estimators:
            if not isinstance(estimator_id, str):
                raise ValueError(f"estimators entry must be a name, got {estimator_id!r}")
            get_estimator(estimator_id)
            self._check_estimator(estimator_id, mode)
        _distinct("estimators", self.estimators)
        n_min = min(self.n_grid)
        if mode.kind == "hill" and mode.value is not None and mode.value >= n_min:
            raise ValueError(f"hill k_tail={int(mode.value)} must be below the "
                             f"smallest sample size n={n_min}")
        if not _real("kappa", self.kappa) > 0:
            raise ValueError("kappa must be positive")

    def _check_estimator(self, estimator_id: str, mode: AlphaMode) -> None:
        """Reject settings under which an estimator fails at every replication."""
        h = _serial_lag(estimator_id)
        if h is not None and h >= min(self.b_grid):
            raise ValueError(f"estimator {estimator_id!r} needs lag {h} < b, but "
                             f"b_grid holds {min(self.b_grid)}")
        if estimator_id == "supwalk" and mode.kind != "hill":
            alpha = resolve_alpha(mode, model=self.model)
            if not alpha >= 1:
                raise ValueError(f"estimator 'supwalk' needs alpha >= 1, but "
                                 f"alpha_mode {self.alpha_mode!r} gives {alpha!r}")


_MODEL_KEYS = {"ar1": {"kind", "phi", "noise", "burn_in"},
               "linear": {"kind", "coeffs", "noise"}}
_NOISE_KEYS = {"law", "alpha"}


def _check_keys(data: dict, allowed: set, where: str, required=()) -> None:
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ValueError(f"unknown {where} keys: {', '.join(unknown)}")
    missing = sorted(k for k in required if k not in data)
    if missing:
        raise ValueError(f"missing {where} keys: {', '.join(missing)}")


def _noise_from_dict(data: dict) -> NoiseSpec:
    _check_keys(_mapping("noise", data), _NOISE_KEYS, "noise", _NOISE_KEYS)
    return NoiseSpec(law=data["law"], alpha=_real("alpha", data["alpha"]))


def model_from_dict(data: dict) -> Model:
    kind = _mapping("model", data).get("kind")
    if kind not in _MODEL_KEYS:
        raise ValueError("model kind must be 'ar1' or 'linear'")
    _check_keys(data, _MODEL_KEYS[kind], "model", _MODEL_KEYS[kind] - {"burn_in"})
    noise = _noise_from_dict(data["noise"])
    if kind == "ar1":
        kwargs = {}
        if "burn_in" in data:
            kwargs["burn_in"] = _integer("burn_in", data["burn_in"])
        return AR1ModelSpec(phi=_real("phi", data["phi"]), noise=noise, **kwargs)
    coeffs = tuple(_real("coeffs entry", c) for c in _listed("coeffs", data["coeffs"]))
    return LinearModelSpec(coeffs=coeffs, noise=noise)


def model_to_dict(model: Model) -> dict:
    noise = {"law": model.noise.law, "alpha": model.noise.alpha}
    if isinstance(model, AR1ModelSpec):
        return {"kind": "ar1", "phi": model.phi, "noise": noise,
                "burn_in": model.burn_in}
    return {"kind": "linear", "coeffs": list(model.coeffs), "noise": noise}


def config_from_dict(data: dict) -> ExperimentConfig:
    keys = fields(ExperimentConfig)  # a field without a default is required
    _check_keys(data, {f.name for f in keys}, "config",
                [f.name for f in keys if f.default is MISSING])
    kwargs = dict(data)
    kwargs["model"] = model_from_dict(data["model"])
    return ExperimentConfig(**kwargs)


def config_to_dict(config: ExperimentConfig) -> dict:
    data = {f.name: getattr(config, f.name) for f in fields(config)}
    data["model"] = model_to_dict(config.model)
    for key in ("n_grid", "b_grid", "estimators"):
        data[key] = list(data[key])
    return data


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    return config_from_dict(data)


# ---------------------------------------------------------------------------
# experiment runner


@dataclass(frozen=True)
class ResultRow:
    estimator_id: str
    n: int
    b: int
    k: int
    rep: int
    seed: int
    value: float
    degenerate: bool


def _run_stacked(entry: EstimatorEntry, runs, count: int, k: int):
    """One estimator over a grid point: (values, degenerate, failures), the
    first two per frame, failures as (frame, error).

    runs holds (frames, stack, alpha) triples: one over the grid point's
    stack, or under Hill one per frame with an alpha, on that frame's
    one-frame stack (none with k = 0, a grid point with too few blocks). A
    frame no run covers gets a nan degenerate value, and a ValueError fails
    every frame of the run that raised it.
    """
    values, degenerate, failures = [math.nan] * count, [True] * count, []
    for frames, stack, alpha in runs:
        try:
            out = entry.stacked(stack, alpha, k)
        except ValueError as exc:
            failures.extend((i, exc) for i in frames)
            continue
        for i, value, flag in zip(frames, out.value, out.degenerate):
            values[i], degenerate[i] = value, flag
    return values, degenerate, failures


def _replication_rows(config, reps) -> tuple[list[tuple], list[str]]:
    """Rows of a range of replications (noise of rep from SeedSpec(master_seed,
    rep), filtered as one batch) and the reasons for their degenerate rows.
    The rows come as columns, (estimator_id, n, b, k, values, degenerate)
    over the range's replications, which the caller joins once the
    simulated series are freed.

    Each (n, b) grid point is evaluated over all the range's replications as
    one block stack, no larger than the range's noise, b by b: the frames of
    block length b are cut once, at the largest n, where one kernel pass
    norms every exponent the estimators read (alpha only where all frames
    share it: not under Hill), and each n's stack is its prefix, with those
    norms sliced. Thresholds are taken per (n, b, p, k). Each estimator
    runs once over the grid point's stack, except that under Hill one that
    reads alpha runs once per frame with an alpha, on that frame's
    one-frame stack; its kernels run over the selected blocks of every frame
    in a stack. Every value is the one the per-frame estimator gives.

    A Hill alpha is resolved per (n, rep) only when some estimator reads
    alpha. When the tail index cannot be resolved at some n (a Hill estimate
    fails), the estimators that need it record degenerate rows at that n,
    the others still run, and the cause is returned for the caller to warn
    about (a warning raised in a worker process would not reach it). An
    estimator that rejects a run's data (a frame's Hill alpha below 1 for
    supwalk) is recorded and reported the same way for each frame of that
    run, at its own (n, b) only. Causes come replication by replication, in
    grid order.
    """
    model, width = config.model, max(config.n_grid) + config.model.lead
    z = np.empty((len(reps), width))
    for i, rep in enumerate(reps):
        z[i] = sample_noise(model.noise, width, SeedSpec(config.master_seed, rep))
    series = model.filter(z)  # max(n_grid) values per row
    mode = parse_alpha_mode(config.alpha_mode)
    entries = [get_estimator(e) for e in config.estimators]
    shared = None if mode.kind == "hill" else resolve_alpha(mode, model=model)
    exponents = [shared if p == "alpha" else p for e in config.estimators
                 for p in _NORMS_READ.get(e, ("alpha",)) if p != "alpha" or shared is not None]
    columns = []
    problems = []  # (rep index, n index, b index, entry index, text)
    alphas = [[] for _ in config.n_grid]
    if shared is None and any(entry.needs_alpha for entry in entries):
        for ni, n in enumerate(config.n_grid):
            for i, rep in enumerate(reps):
                try:
                    alphas[ni].append(resolve_alpha(mode, series[i, :n], model))
                except ValueError as exc:
                    problems.append((i, ni, -1, -1, f"rep {rep}, n={n}: no tail index "
                                     f"({exc}); estimators that need alpha are "
                                     "recorded as degenerate"))
                    alphas[ni].append(None)
    for bi, b in enumerate(config.b_grid):
        # a grid point with too few blocks (m < 2) is skipped, k = 0
        ks = [default_k(n, b, config.kappa) if n // b >= 2 else 0 for n in config.n_grid]
        full = stack = free = alpha_runs = None  # the last b's stacks hold its norms: free them
        if any(ks):
            full = _BlockStack.cut(series, b)
            full.fill(exponents)
        for ni, (n, k) in enumerate(zip(config.n_grid, ks)):
            stack = full.prefix(n) if k else None
            free = [(range(len(reps)), stack, None)] if k else []
            if shared is not None:
                alpha_runs = [(range(len(reps)), stack, shared)] if k else []
            else:  # under Hill, each frame with an alpha as a one-frame stack,
                # shared by the estimators that read alpha
                alpha_runs = [([i], stack.frame(i), alpha)
                              for i, alpha in enumerate(alphas[ni]) if k and alpha is not None]
            for ei, entry in enumerate(entries):
                values, degenerate, failures = _run_stacked(
                    entry, alpha_runs if entry.needs_alpha else free, len(reps), k)
                for i, exc in failures:
                    problems.append((i, ni, bi, ei, f"rep {reps[i]}, n={n}, b={b}: "
                                     f"{entry.estimator_id} failed ({exc}); "
                                     "recorded as degenerate"))
                columns.append((entry.estimator_id, n, b, k, values, degenerate))
    problems.sort(key=lambda problem: problem[:4])
    return columns, [problem[4] for problem in problems]


def _study(config: ExperimentConfig, threads: int = 1,
           output=None) -> tuple[list[tuple], list[dict]]:
    """Run the full grid; returns (groups, summary), one group (estimator_id,
    n, b, k, values, degenerate) per key in sorted order, over every rep in
    order; writes the outputs into the directory ``output`` when given.
    Byte-identical for any threads: the replications are cut into equal
    tasks, at least one per thread, and a task's noise, and so each of its
    grid point's block stacks, stays within a row tile (_TILE_BYTES)."""
    width = max(config.n_grid) + config.model.lead
    cap = _tile_height(8 * width)
    size = math.ceil(config.reps / max(threads, math.ceil(config.reps / cap)))
    tasks = [(config, range(start, min(start + size, config.reps)))
             for start in range(0, config.reps, size)]
    chunks = _pool_map(_replication_rows, tasks, threads)
    for _, problems in chunks:
        for problem in problems:
            warnings.warn(problem, RuntimeWarning, stacklevel=3)
    # the tasks, in replication order, return the same columns in the same order
    groups = sorted((*parts[0][:4], [v for part in parts for v in part[4]],
                     [flag for part in parts for flag in part[5]])
                    for parts in zip(*(columns for columns, _ in chunks)))
    summary = [_summary_record(*group) for group in groups]
    if output is not None:
        _write_files(output, groups, config.master_seed, summary)
    return groups, summary


def run_experiment(config: ExperimentConfig, threads: int = 1,
                   output=None) -> tuple[list[ResultRow], list[dict]]:
    """Run the full grid as _study does; returns (rows, summary), the rows
    sorted by (estimator_id, n, b, rep). The config names no output."""
    groups, summary = _study(config, threads, output)
    rows = [ResultRow(estimator_id, n, b, k, rep, config.master_seed, value, flag)
            for estimator_id, n, b, k, values, degenerate in groups
            for rep, (value, flag) in enumerate(zip(values, degenerate))]
    return rows, summary


def _summary_record(estimator_id: str, n: int, b: int, k: int, values, degenerate) -> dict:
    """One (estimator_id, n, b)'s summary over its values not flagged degenerate."""
    kept = np.asarray([v for v, flag in zip(values, degenerate) if not flag])
    stats = ([float(kept.mean())] + np.quantile(kept, [0.05, 0.25, 0.5, 0.75, 0.95]).tolist()
             if kept.size else [None] * 6)
    return {"estimator_id": estimator_id, "n": n, "b": b, "k": k, "rows": len(values),
            "degenerate": sum(1 for flag in degenerate if flag),
            **dict(zip(("mean", "q05", "q25", "q50", "q75", "q95"), stats))}


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _results_text(groups, seed: int) -> str:
    """results.csv from groups (estimator_id, n, b, k, values, degenerate)
    of a study with master seed seed, rep i at index i."""
    lines = [RESULTS_HEADER]
    for estimator_id, n, b, k, values, degenerate in groups:
        head, mid = f"{estimator_id},{n},{b},{k},", f",{seed},"
        lines.extend(f"{head}{rep}{mid}{float(value)!r},{int(flag)}"
                     for rep, (value, flag) in enumerate(zip(values, degenerate)))
    return "\n".join(lines) + "\n"


def summary_csv_text(summary: Sequence[dict]) -> str:
    fields = SUMMARY_HEADER.split(",")
    lines = [",".join(_fmt(record[f]) for f in fields) for record in summary]
    return "\n".join([SUMMARY_HEADER] + lines) + "\n"


def write_summary_json(summary: Sequence[dict], path) -> None:
    Path(path).write_text(json.dumps(list(summary), indent=2) + "\n", encoding="utf-8")


def _write_files(out_dir, groups, seed: int, summary) -> dict:
    """Write the outputs from _study's groups and summary; their paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {"results": out / "results.csv",
             "summary_csv": out / "summary.csv",
             "summary_json": out / "summary.json"}
    paths["results"].write_text(_results_text(groups, seed), encoding="utf-8")
    paths["summary_csv"].write_text(summary_csv_text(summary), encoding="utf-8")
    write_summary_json(summary, paths["summary_json"])
    return paths


# ---------------------------------------------------------------------------
# file ingestion


def read_series_file(path) -> np.ndarray:
    """One finite numeric value per line; blank lines and '#' comments skipped."""
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            tokens = [t for t in text.split(",") if t.strip()]
            if len(tokens) != 1:
                raise ValueError(f"{path}: line {lineno}: expected one value, got {text!r}")
            try:
                values.append(float(tokens[0]))
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: could not parse {text!r} as a number"
                ) from None
            if not math.isfinite(values[-1]):
                raise ValueError(f"{path}: line {lineno}: {text!r} is not finite")
    if not values:
        raise ValueError(f"{path}: no numeric data")
    return np.asarray(values, dtype=np.float64)


def estimate_from_file(path, estimator_id: str, b: int,
                       kappa: float = 1.0, alpha="hill") -> EstimateReport:
    """Run one estimator on a series file.

    The estimator id fixes the norm exponent. The alpha mode must be a
    number or hill[:k_tail]; there is no model here, so "oracle" is
    rejected.
    """
    if b < 1:
        raise ValueError("block length b is required and must be positive")
    series = read_series_file(path)
    entry = get_estimator(estimator_id)
    mode = parse_alpha_mode(alpha)
    if mode.kind == "oracle":
        raise ValueError("file input has no model; use a numeric alpha or hill:<k_tail>")
    frame = partition(series, b)
    k = default_k(len(series), b, kappa)
    alpha_value = resolve_alpha(mode, series) if entry.needs_alpha else None
    return entry.run(frame, alpha_value, k)


# ---------------------------------------------------------------------------
# closed-form report


def oracle_report(model: Model, p_list=None, serial_lags: int = 4) -> dict:
    """Closed-form and telescoping constants for a linear/AR(1) model at
    its noise's tail index alpha: c(p) over a p grid, the extremal index,
    serial-dependence values g_h for h < serial_lags, and the positive-sum
    walk constant when alpha >= 1."""
    if serial_lags < 0:
        raise ValueError(f"serial_lags must be nonnegative, got {serial_lags}")
    noise = model.noise
    alpha = noise.alpha
    coeffs = model_coefficients(model)
    if p_list is None:
        p_list = (0.5, 1.0, alpha, 2.0, INF)
    seen = []
    for p in p_list:
        pe = as_p(p)
        if all(pe != q for q in seen):
            seen.append(pe)
    cluster = [{"p": str(pe),
                "closed_form": cluster_constant_linear(coeffs, alpha, pe),
                "telescoping": cluster_constant_telescoping(coeffs, alpha, pe)}
               for pe in seen]
    report = {
        "alpha": float(alpha),
        "coefficients": len(coeffs),
        "theta": cluster_constant_linear(coeffs, alpha, INF),
        "cluster_constants": cluster,
        "serial": {h: serial_dependence_oracle_linear(coeffs, alpha, h)
                   for h in range(serial_lags)},
    }
    if alpha >= 1.0:
        report["supwalk"] = supwalk_constant_oracle_linear(
            coeffs, alpha, noise.positive_prob)
    else:
        report["supwalk"] = None
    return report


def format_oracle_report(report: dict) -> str:
    lines = [f"alpha = {report['alpha']:g}   (coefficients kept: {report['coefficients']})",
             f"theta = c(inf) = {report['theta']:.6f}",
             "",
             f"{'p':>6}  {'closed_form':>14}  {'telescoping':>14}"]
    for row in report["cluster_constants"]:
        lines.append(f"{row['p']:>6}  {row['closed_form']:>14.10f}  "
                     f"{row['telescoping']:>14.10f}")
    lines.append("")
    if report["serial"]:
        serial = "  ".join(f"g_{h}={v:.6f}" for h, v in sorted(report["serial"].items()))
        lines.append(f"serial: {serial}")
    if report["supwalk"] is not None:
        lines.append(f"supwalk constant = {report['supwalk']:.6f}")
    return "\n".join(lines)
