"""Span recording around the calls one lpblocks module makes into another.

Nothing here changes lpblocks itself: ``installed`` swaps the module-level
names that a caller looks up at call time (for example the ``simulate`` that
``lpblocks.experiment`` imported from ``lpblocks.models``) for timed wrappers,
and puts the originals back on exit. When a later change removes or adds one
of those calls, its span count moves; a name that no longer exists is skipped
and reported, so the benchmark keeps running.

Spans are kept in memory as ``[name, start, end, parent, info]`` lists and
are aggregated (self time, call counts, computed sizes) after the run.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "experiment", "models", "blocks", "estimators", "seqcore",
          "largedev", "spectral")

ESTIMATOR_SPANS = {
    "extremal_index_alpha_blocks": "estimators.extremal_index_alpha",
    "extremal_index_infty_blocks": "estimators.extremal_index_infty",
    "cluster_index_c1": "estimators.cluster_index_c1",
    "cluster_index_c1_infty": "estimators.cluster_index_c1_infty",
    # the study workload only runs lag 1 ("serial:1")
    "serial_dependence_estimate": "estimators.serial_1",
    "supwalk_constant_estimate": "estimators.supwalk",
}

FLOAT_BYTES = 8


class Tracer:
    """In-memory span recorder; spans nest through a call stack."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def call(self, name, fn, args=(), kwargs=None, on_result=None):
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        if on_result is not None:
            span[4] = on_result(args, result)
        return result

    def wrap(self, name, fn, on_result=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, on_result)
        return traced


def lead_columns(model) -> int:
    """Noise columns drawn ahead of the n kept ones: AR(1) burn-in or the
    moving-average filter memory."""
    burn = getattr(model, "burn_in", None)
    if burn is not None:
        return int(burn)
    return len(model.coeffs) - 1


def _values_drawn(args, _result):
    # simulate(model, n, seed) and simulate_batch(model, n, count, seed)
    model, n = args[0], int(args[1])
    rows = int(args[2]) if len(args) > 3 else 1
    return {"n": n, "values": rows * (n + lead_columns(model))}


def _elements(args, _result):
    return {"elements": int(args[0].size)}


def _report(_args, report):
    return {"selected": int(report.selected_blocks), "m": int(report.m)}


def _bytes_written(_args, paths):
    return {"bytes": sum(p.stat().st_size for p in paths.values())}


def _patch_table():
    import lpblocks.blocks as blocks
    import lpblocks.cli as cli
    import lpblocks.estimators as estimators
    import lpblocks.experiment as experiment
    import lpblocks.largedev as largedev

    table = [
        (cli, "run_experiment", "experiment.run", None),
        (cli, "pilot_level", "largedev.pilot_level", None),
        (cli, "ld_ratio_mc", "largedev.ld", None),
        (cli, "ld_ratio_centered_mc", "largedev.ld", None),
        (experiment, "simulate", "models.simulate", _values_drawn),
        (experiment, "partition", "blocks.partition", None),
        (experiment, "summarize", "experiment.summarize", None),
        (experiment, "write_outputs", "experiment.write_outputs", _bytes_written),
        (blocks.BlockFrame, "norms", "blocks.norms", None),
        (blocks, "row_p_moduli", "seqcore.row_p_moduli", _elements),
        (estimators, "threshold_from_order_stat", "blocks.threshold", None),
        (largedev, "simulate_batch", "models.simulate_batch", _values_drawn),
        (largedev, "row_p_moduli", "seqcore.row_p_moduli", _elements),
    ]
    for attr, span in ESTIMATOR_SPANS.items():
        table.append((experiment, attr, span, _report))
    return table


@contextlib.contextmanager
def installed(tracer: Tracer, missing: set):
    """Swap every traced name for its wrapper; names that no longer exist
    are added to ``missing`` and left alone."""
    saved = []
    try:
        for owner, attr, span, on_result in _patch_table():
            original = owner.__dict__.get(attr)
            if original is None:
                missing.add(f"{owner.__name__}.{attr}")
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(span, original, on_result))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def sampler_info(_args, draws):
    return {"rows": int(draws.shape[0]), "bytes": int(draws.nbytes)}


def aggregate(spans) -> dict:
    """Totals over spans: self time and calls per span name, computed sizes,
    self time per layer, and the time of top-level spans."""
    child_time = [0.0] * len(spans)
    kernel_below = [False] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
            if name == "seqcore.row_p_moduli":
                kernel_below[parent] = True
    self_s: dict = defaultdict(float)
    calls: Counter = Counter()
    layer_s: dict = defaultdict(float)
    sums: Counter = Counter()
    top = 0.0
    chunk_bytes_max = 0
    batch_bytes_max = 0
    for i, (name, start, end, parent, info) in enumerate(spans):
        own = (end - start) - child_time[i]
        self_s[name] += own
        calls[name] += 1
        layer_s[name.split(".", 1)[0]] += own
        if parent < 0:
            top += end - start
        if name == "blocks.norms" and not kernel_below[i]:
            sums["norms_hits"] += 1
        if not info:
            continue
        if name.startswith("models."):
            sums["values"] += info["values"]
            if info["n"] == 1:
                sums["values_len1"] += info["values"]
                sums["len1_s"] += own
            if name == "models.simulate_batch":
                chunk_bytes_max = max(chunk_bytes_max, info["values"] * FLOAT_BYTES)
        elif name == "seqcore.row_p_moduli":
            sums["elements"] += info["elements"]
        elif name.startswith("estimators."):
            sums["selected"] += info["selected"]
            sums["m"] += info["m"]
        elif name == "experiment.write_outputs":
            sums["bytes_written"] += info["bytes"]
        elif name == "spectral.sampler":
            sums["sampler_rows"] += info["rows"]
            batch_bytes_max = max(batch_bytes_max, info["bytes"])
    return {"self_s": dict(self_s), "calls": dict(calls), "layer_s": dict(layer_s),
            "sums": dict(sums), "top_s": top, "chunk_bytes_max": chunk_bytes_max,
            "batch_bytes_max": batch_bytes_max}
