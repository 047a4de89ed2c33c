import dataclasses
import hashlib
import json
import multiprocessing
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpblocks.blocks import default_k, partition
from lpblocks.cli import main
from lpblocks.estimators import (
    cluster_functional_estimate,
    cluster_index_c1,
    cluster_index_c1_infty,
    cluster_index_kernel,
    extremal_index_alpha_blocks,
    extremal_index_infty_blocks,
    extremal_index_kernel,
    hill_alpha,
    serial_dependence_estimate,
    supwalk_constant_estimate,
)
from lpblocks.experiment import (
    RESULTS_HEADER,
    SUMMARY_HEADER,
    AlphaMode,
    ExperimentConfig,
    ResultRow,
    config_from_dict,
    config_to_dict,
    default_hill_k,
    estimate_from_file,
    format_oracle_report,
    get_estimator,
    known_estimators,
    load_config,
    model_from_dict,
    model_to_dict,
    oracle_report,
    parse_alpha_mode,
    read_series_file,
    resolve_alpha,
    _results_text,
    _summary_record,
    run_experiment,
    summary_csv_text,
    write_summary_json,
)
from lpblocks.largedev import ld_ratio_mc
from lpblocks.models import (
    AR1ModelSpec,
    LinearModelSpec,
    NoiseSpec,
    SeedSpec,
    simulate,
)
from lpblocks.seqcore import INF

IID_PARETO15 = LinearModelSpec(coeffs=(1.0,), noise=NoiseSpec(law="pareto", alpha=1.5))
AR1_STUDENT = AR1ModelSpec(phi=0.8, noise=NoiseSpec(law="student", alpha=1.3), burn_in=300)

THETA_08_13 = 0.25180124174190294
SUPWALK_08_13_SYM = 1.0202083587100896

BUILTIN_IDS = (
    "cluster_index_c1",
    "cluster_index_c1_infty",
    "extremal_index_alpha",
    "extremal_index_infty",
    "supwalk",
)


def small_config(**overrides):
    kwargs = dict(
        model=IID_PARETO15,
        n_grid=(120, 60),
        b_grid=(10,),
        reps=3,
        estimators=("extremal_index_alpha", "cluster_index_c1", "serial:1"),
        kappa=1.0,
        alpha_mode=1.5,
        master_seed=11,
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


def persisted(row):
    # repr keeps nan comparable for skipped grid points
    return (row.estimator_id, row.n, row.b, row.k, row.rep, row.seed,
            repr(float(row.value)), row.degenerate)


def same_report(a, b):
    # EstimateReport compares by identity; check every field instead
    return dataclasses.asdict(a) == dataclasses.asdict(b)


# --- alpha mode ------------------------------------------------------------

def test_parse_alpha_mode_forms():
    assert parse_alpha_mode(1.3) == AlphaMode("fixed", 1.3)
    assert parse_alpha_mode(2) == AlphaMode("fixed", 2.0)
    assert parse_alpha_mode("1.3") == AlphaMode("fixed", 1.3)
    assert parse_alpha_mode("oracle") == AlphaMode("oracle")
    assert parse_alpha_mode(" hill ") == AlphaMode("hill")
    assert parse_alpha_mode("hill:5") == AlphaMode("hill", 5.0)
    mode = AlphaMode("fixed", 0.9)
    assert parse_alpha_mode(mode) is mode


def test_parse_alpha_mode_rejects_garbage():
    with pytest.raises(ValueError, match="not understood"):
        parse_alpha_mode("banana")
    with pytest.raises(ValueError, match="alpha mode 'hill:1'.*at least 2"):
        parse_alpha_mode("hill:1")
    for mode in ("hill:x", "hill:", "hill:2.5"):
        with pytest.raises(ValueError, match=f"alpha mode '{mode}'.*integer"):
            parse_alpha_mode(mode)
    # a fixed alpha must be a positive finite number; the error names the mode
    for mode in ("inf", "-inf", "nan", "0", "-1.5"):
        with pytest.raises(ValueError, match=f"alpha mode '{mode}'.*positive and finite"):
            parse_alpha_mode(mode)
    for mode in (float("inf"), float("nan"), 0, -2.0):
        with pytest.raises(ValueError, match="positive and finite"):
            parse_alpha_mode(mode)
    # bools are not numbers here
    with pytest.raises(ValueError, match="not understood"):
        parse_alpha_mode(True)


def test_alpha_mode_validation():
    with pytest.raises(ValueError, match="unknown alpha mode"):
        AlphaMode("bogus")
    with pytest.raises(ValueError, match="must be positive"):
        AlphaMode("fixed")
    with pytest.raises(ValueError, match="must be positive"):
        AlphaMode("fixed", -1.0)
    with pytest.raises(ValueError, match="must be positive and finite"):
        AlphaMode("fixed", float("inf"))


@given(st.floats(min_value=0.05, max_value=50.0, allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_parse_alpha_mode_numeric_string_round_trip(value):
    assert parse_alpha_mode(repr(value)) == AlphaMode("fixed", value)


def test_default_hill_k():
    assert default_hill_k(10) == 2
    assert default_hill_k(100) == 5
    assert default_hill_k(1000) == 50


def test_resolve_alpha_modes():
    x = simulate(IID_PARETO15, 400, 5)
    assert resolve_alpha(AlphaMode("fixed", 1.7)) == 1.7
    assert resolve_alpha(AlphaMode("oracle"), model=AR1_STUDENT) == 1.3
    assert resolve_alpha(AlphaMode("hill", 40.0), x) == hill_alpha(x, 40)
    assert resolve_alpha(AlphaMode("hill"), x) == hill_alpha(x, default_hill_k(400))
    with pytest.raises(ValueError, match="needs a model"):
        resolve_alpha(AlphaMode("oracle"))


# --- estimator registry ----------------------------------------------------

def test_known_estimators_listing():
    assert known_estimators() == sorted(BUILTIN_IDS) + ["serial:<h>"]


def test_get_estimator_alpha_needs():
    needs = {eid: get_estimator(eid).needs_alpha for eid in BUILTIN_IDS}
    assert needs == {
        "cluster_index_c1": True,
        "cluster_index_c1_infty": False,
        "extremal_index_alpha": True,
        "extremal_index_infty": False,
        "supwalk": True,
    }
    for eid in BUILTIN_IDS:
        assert get_estimator(eid).estimator_id == eid


# each id's public per-frame estimator and the report id it gives
DIRECT = {
    "extremal_index_alpha": (extremal_index_alpha_blocks, "extremal_index_alpha"),
    "extremal_index_infty": (lambda f, a, k: extremal_index_infty_blocks(f, k),
                             "extremal_index_infty"),
    "cluster_index_c1": (cluster_index_c1, "cluster_index_c1"),
    "cluster_index_c1_infty": (lambda f, a, k: cluster_index_c1_infty(f, k),
                               "cluster_index_c1_infty"),
    "supwalk": (supwalk_constant_estimate, "supwalk_constant"),
    "serial:1": (lambda f, a, k: serial_dependence_estimate(f, a, k, 1),
                 "serial_dependence"),
    "serial:3": (lambda f, a, k: serial_dependence_estimate(f, a, k, 3),
                 "serial_dependence"),
}


@pytest.mark.parametrize("estimator_id", list(DIRECT))
def test_get_estimator_matches_direct_call(estimator_id):
    # an entry's run is the one-frame case of its stack function: the same
    # report as the public per-frame estimator, under that estimator's id
    direct, report_id = DIRECT[estimator_id]
    frame = partition(simulate(IID_PARETO15, 200, 3), 10)
    entry = get_estimator(estimator_id)
    assert entry.estimator_id == estimator_id
    report = entry.run(frame, 1.5, 5)
    assert same_report(report, direct(frame, 1.5, 5))
    assert report.estimator_id == report_id
    assert report.alpha_used == (1.5 if entry.needs_alpha else None)
    if estimator_id.startswith("serial:"):
        assert entry.needs_alpha
        assert report.extras == {"h": int(estimator_id[len("serial:"):])}


# serial ids that int() reads, and the canonical id each one names
NON_CANONICAL_SERIAL = (("serial:01", "serial:1"), ("serial: 1", "serial:1"),
                        ("serial:+1", "serial:1"), ("serial:1_0", "serial:10"))


def test_get_estimator_rejects():
    with pytest.raises(ValueError, match="bad serial lag"):
        get_estimator("serial:x")
    with pytest.raises(ValueError, match="nonnegative"):
        get_estimator("serial:-1")
    with pytest.raises(ValueError, match="unknown estimator"):
        get_estimator("bogus")
    # a lag has one id, in plain decimal; other spellings int() reads name it
    for estimator_id, canonical in NON_CANONICAL_SERIAL:
        with pytest.raises(ValueError, match=re.escape(
                f"write {estimator_id!r} as {canonical!r}")):
            get_estimator(estimator_id)


# --- configuration ---------------------------------------------------------

def test_config_coerces_grids_to_int_tuples():
    config = small_config(n_grid=[120.0, 60], b_grid=[10])
    assert config.n_grid == (120, 60)
    assert config.b_grid == (10,)
    assert config.estimators == ("extremal_index_alpha", "cluster_index_c1", "serial:1")


def test_config_validation():
    with pytest.raises(ValueError, match="nonempty"):
        small_config(n_grid=())
    with pytest.raises(ValueError, match="positive"):
        small_config(b_grid=(0,))
    with pytest.raises(ValueError, match="at least 1"):
        small_config(reps=0)
    with pytest.raises(ValueError, match="nonempty"):
        small_config(estimators=())
    with pytest.raises(ValueError, match="unknown estimator"):
        small_config(estimators=("nope",))
    with pytest.raises(ValueError, match="kappa"):
        small_config(kappa=0.0)
    with pytest.raises(ValueError, match="not understood"):
        small_config(alpha_mode="banana")
    with pytest.raises(ValueError, match="alpha mode 'inf'.*finite"):
        small_config(alpha_mode="inf")
    with pytest.raises(ValueError, match="alpha mode 'hill:'"):
        small_config(alpha_mode="hill:")
    with pytest.raises(ValueError, match="k_tail=120 .* n=120"):
        small_config(n_grid=(120, 240), alpha_mode="hill:120")
    # reps and master_seed must be integers; master_seed must fit 64 bits
    for reps in ("3", 2.5, True, None):
        with pytest.raises(ValueError, match=f"reps must be an integer, got {reps!r}"):
            small_config(reps=reps)
    for seed in ("7", 1.5):
        with pytest.raises(ValueError, match="master_seed must be an integer"):
            small_config(master_seed=seed)
    for seed in (-1, 2 ** 64):
        with pytest.raises(ValueError, match=rf"master_seed must lie in \[0, 2\*\*64\), "
                                             rf"got {seed}"):
            small_config(master_seed=seed)
    config = small_config(master_seed=2 ** 64 - 1, reps=np.int64(2))
    assert type(config.reps) is int and config.reps == 2
    assert json.loads(json.dumps(config_to_dict(config)))["reps"] == 2
    # a JSON config is checked the same way when it is loaded
    data = config_to_dict(small_config())
    for key, value, cause in (("reps", "3", "reps must be an integer"),
                              ("reps", 2.5, "reps must be an integer"),
                              ("master_seed", -1, "master_seed must lie in")):
        with pytest.raises(ValueError, match=cause):
            config_from_dict({**data, key: value})
    # a model or noise without a required key names the key
    no_phi = {"kind": "ar1", "noise": {"law": "student", "alpha": 1.3}}
    with pytest.raises(ValueError, match="missing model keys: phi"):
        config_from_dict({**data, "model": no_phi})
    with pytest.raises(ValueError, match="missing model keys: coeffs, noise"):
        model_from_dict({"kind": "linear"})
    with pytest.raises(ValueError, match="missing noise keys: alpha"):
        model_from_dict({"kind": "ar1", "phi": 0.5, "noise": {"law": "pareto"}})
    # settings under which an estimator fails at every replication
    with pytest.raises(ValueError, match=r"'serial:1' needs lag 1 < b, but b_grid holds 1"):
        small_config(b_grid=(10, 1))
    heavy = LinearModelSpec(coeffs=(1.0,), noise=NoiseSpec(law="pareto", alpha=0.8))
    for mode in ("oracle", 0.8):
        with pytest.raises(ValueError, match=rf"'supwalk' needs alpha >= 1, but "
                                             rf"alpha_mode {mode!r} gives 0.8"):
            small_config(model=heavy, alpha_mode=mode, estimators=("supwalk",))
    # a grid or estimator listed twice would write its rows twice
    for key, value, cause in (("n_grid", [200, 200.0], "n_grid lists 200 more than once"),
                              ("b_grid", [10, 20, 10], "b_grid lists 10 more than once"),
                              ("estimators", ["supwalk", "serial:1", "supwalk"],
                               "estimators lists 'supwalk' more than once")):
        with pytest.raises(ValueError, match=re.escape(cause)):
            config_from_dict({**data, "reps": 3, key: value})
    # so would one lag under two spellings; only the canonical one loads
    for estimator_id, canonical in NON_CANONICAL_SERIAL:
        with pytest.raises(ValueError, match=re.escape(
                f"write {estimator_id!r} as {canonical!r}")):
            config_from_dict({**data, "estimators": ["serial:1", estimator_id]})
    # every value is type-checked, naming its key; strings are not lists
    model = data["model"]
    for key, value, cause in (
            ("n_grid", [100.7], "n_grid entry must be an integer, got 100.7"),
            ("b_grid", [10, True], "b_grid entry must be an integer, got True"),
            ("b_grid", "10", "b_grid must be a list, got '10'"),
            ("estimators", "supwalk", "estimators must be a list, got 'supwalk'"),
            ("estimators", ["supwalk", 3], "estimators entry must be a name, got 3"),
            ("kappa", True, "kappa must be a number, got True"),
            ("kappa", "x", "kappa must be a number, got 'x'"),
            ("output", 5, "unknown config keys: output"),
            ("model", "ar1", "model must be a JSON object, got 'ar1'"),
            ("model", {"kind": "ar1", "phi": "abc", "noise": model["noise"]},
             "phi must be a number, got 'abc'"),
            ("model", {"kind": "ar1", "phi": 0.5, "burn_in": 2.7, "noise": model["noise"]},
             "burn_in must be an integer, got 2.7"),
            ("model", {"kind": "linear", "coeffs": "1,2", "noise": model["noise"]},
             "coeffs must be a list, got '1,2'"),
            ("model", {"kind": "linear", "coeffs": [1, None], "noise": model["noise"]},
             "coeffs entry must be a number, got None"),
            ("model", {**model, "noise": "student"},
             "noise must be a JSON object, got 'student'"),
            ("model", {**model, "noise": {"law": "student", "alpha": "1.3"}},
             "alpha must be a number, got '1.3'")):
        with pytest.raises(ValueError, match=re.escape(cause)):
            config_from_dict({**data, key: value})


def test_cli_experiment_bad_config_exits_2(tmp_path, capsys):
    data = config_to_dict(small_config())
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**data, "kappa": "x"}), encoding="utf-8")
    assert main(["experiment", str(path)]) == 2
    assert "error: kappa must be a number, got 'x'" in capsys.readouterr().err


def test_config_dict_round_trip():
    for model in (IID_PARETO15, AR1_STUDENT):
        config = small_config(model=model, alpha_mode="oracle")
        assert config_from_dict(config_to_dict(config)) == config


def test_config_json_file_round_trip(tmp_path):
    config = small_config(model=AR1_STUDENT, alpha_mode="hill:20")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_to_dict(config)), encoding="utf-8")
    assert load_config(path) == config


def test_config_rejects_unknown_keys():
    data = config_to_dict(small_config())
    data["extra"] = 1
    with pytest.raises(ValueError, match="unknown config keys: extra"):
        config_from_dict(data)
    data = config_to_dict(small_config())
    data["model"]["typo"] = 1
    with pytest.raises(ValueError, match="unknown model keys: typo"):
        config_from_dict(data)
    data = config_to_dict(small_config())
    data["model"]["noise"]["df"] = 3
    with pytest.raises(ValueError, match="unknown noise keys: df"):
        config_from_dict(data)


def test_config_missing_keys_listed():
    with pytest.raises(ValueError, match="missing config keys: model, reps"):
        config_from_dict({"n_grid": [100], "b_grid": [10], "estimators": ["supwalk"]})


def test_model_from_dict_kinds():
    ar1 = model_from_dict({"kind": "ar1", "phi": 0.8, "burn_in": 300,
                           "noise": {"law": "student", "alpha": 1.3}})
    assert ar1 == AR1_STUDENT
    default = model_from_dict({"kind": "ar1", "phi": 0.8,
                               "noise": {"law": "student", "alpha": 1.3}})
    assert default.burn_in == AR1ModelSpec(phi=0.8, noise=default.noise).burn_in
    linear = model_from_dict(model_to_dict(IID_PARETO15))
    assert linear == IID_PARETO15
    with pytest.raises(ValueError, match="model kind"):
        model_from_dict({"phi": 0.5, "noise": {"law": "pareto", "alpha": 1.0}})


def test_load_config_requires_object(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ValueError, match="JSON object"):
        load_config(path)


# --- experiment runner -----------------------------------------------------

def test_run_experiment_shape_and_order():
    config = small_config()
    rows, summary = run_experiment(config)
    assert len(rows) == config.reps * len(config.n_grid) * len(config.b_grid) \
        * len(config.estimators)
    keys = [(r.estimator_id, r.n, r.b, r.rep) for r in rows]
    assert keys == sorted(keys)
    for row in rows:
        assert row.seed == config.master_seed
        assert row.k == default_k(row.n, row.b, config.kappa)
        assert not row.degenerate and np.isfinite(row.value)
    assert len(summary) == len(config.n_grid) * len(config.estimators)


def test_run_experiment_pairs_replications_across_estimator_lists():
    # each replication has its own derived stream, so dropping estimators
    # from the config must not change the values of the ones kept
    full = run_experiment(small_config())[0]
    only = run_experiment(small_config(estimators=("extremal_index_alpha",)))[0]
    kept = [persisted(r) for r in full if r.estimator_id == "extremal_index_alpha"]
    assert kept == [persisted(r) for r in only]


def test_run_experiment_skips_short_grid_points():
    config = small_config(n_grid=(50,), b_grid=(30,))
    rows, summary = run_experiment(config)
    assert len(rows) == config.reps * len(config.estimators)
    for row in rows:
        assert row.k == 0 and row.degenerate and np.isnan(row.value)
    for record in summary:
        assert record["rows"] == config.reps
        assert record["degenerate"] == config.reps
        assert record["mean"] is None and record["q50"] is None


@pytest.mark.parametrize("threads", [
    1,
    # workers see the patched hill_alpha only when they are forked
    pytest.param(2, marks=pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="workers are not forked, so the patch does not reach them")),
])
def test_run_experiment_hill_failure_keeps_grid(monkeypatch, tmp_path, threads):
    # a failing Hill estimate at rep 1 marks that rep's alpha estimators
    # degenerate at every n; alpha-free estimators and other reps still run,
    # and the caller is warned with any worker count
    import lpblocks.experiment as experiment

    config = small_config(alpha_mode="hill:5",
                          estimators=("extremal_index_alpha", "extremal_index_infty",
                                      "serial:1", "cluster_index_c1_infty"))
    bad = {n: simulate(config.model, max(config.n_grid), SeedSpec(config.master_seed, 1))[:n]
           for n in config.n_grid}
    real_hill = experiment.hill_alpha

    def flaky_hill(x, k_tail):
        if any(len(x) == n and np.array_equal(x, s) for n, s in bad.items()):
            raise ValueError("injected failure")
        return real_hill(x, k_tail)

    clean, clean_summary = run_experiment(config)
    monkeypatch.setattr(experiment, "hill_alpha", flaky_hill)
    with pytest.warns(RuntimeWarning, match=r"rep 1, n=\d+: .*injected failure") as caught:
        rows, summary = run_experiment(config, threads=threads, output=tmp_path)
    assert [str(w.message).split(":")[0] for w in caught] == [
        f"rep 1, n={n}" for n in config.n_grid]
    assert len(rows) == len(clean)
    for row, ref in zip(rows, clean):
        if row.rep == 1 and get_estimator(row.estimator_id).needs_alpha:
            assert row.degenerate and np.isnan(row.value)
            assert (row.estimator_id, row.n, row.b, row.k) == \
                (ref.estimator_id, ref.n, ref.b, ref.k)
        else:
            assert persisted(row) == persisted(ref)
    lines = (tmp_path / "results.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == RESULTS_HEADER
    degenerate = [line for line in lines[1:] if line.endswith(",1")]
    assert len(degenerate) == len(config.n_grid) * len(config.b_grid) * 2
    assert all(line.split(",")[4] == "1" and line.split(",")[6] == "nan"
               for line in degenerate)
    by_key = {(r["estimator_id"], r["n"], r["b"]): r for r in summary}
    for record in clean_summary:
        key = (record["estimator_id"], record["n"], record["b"])
        alpha_free = not get_estimator(record["estimator_id"]).needs_alpha
        assert by_key[key]["degenerate"] == (0 if alpha_free else 1)
        if alpha_free:
            assert by_key[key] == record

    # an estimator that rejects one replication's data is recorded the same
    # way, for that (rep, n, b) only: a block that overflows when normalized,
    # which the generic functional loop rejects; injected at the grid-point
    # entry, which runs the estimator over a stack of replications' frames
    needs_alpha, real_estimate = experiment._ESTIMATORS["extremal_index_alpha"]

    def overflowing(stack, alpha, k):
        frames = stack.matrix.reshape(stack.reps, -1)
        if any(np.array_equal(f, bad[stack.n][: stack.m * stack.b]) for f in frames):
            frame = partition(1e6 * np.array([1e3, 1e-306, 1e-306]), 1)
            return cluster_functional_estimate(frame, alpha, 2, extremal_index_kernel(alpha))
        return real_estimate(stack, alpha, k)

    monkeypatch.undo()
    monkeypatch.setitem(experiment._ESTIMATORS, "extremal_index_alpha",
                        (needs_alpha, overflowing))
    with pytest.warns(RuntimeWarning, match="float range") as caught:
        rows, _ = run_experiment(config, threads=threads)
    assert [str(w.message) for w in caught] == [
        f"rep 1, n={n}, b={b}: extremal_index_alpha failed (a selected block exceeds "
        "the threshold 1e-300 by more than the float range; the normalized block "
        "overflows); recorded as degenerate"
        for n in config.n_grid for b in config.b_grid]
    for row, ref in zip(rows, clean):
        if row.rep == 1 and row.estimator_id == "extremal_index_alpha":
            assert row.degenerate and np.isnan(row.value)
        else:
            assert persisted(row) == persisted(ref)
    # and supwalk on a replication whose Hill alpha is below 1
    monkeypatch.undo()
    heavy = small_config(model=AR1ModelSpec(phi=0.5, noise=NoiseSpec("student", 1.3)),
                         n_grid=(200,), reps=40, alpha_mode="hill:20",
                         estimators=("supwalk", "extremal_index_infty"))
    alphas = [hill_alpha(simulate(heavy.model, 200, SeedSpec(heavy.master_seed, rep)), 20)
              for rep in range(heavy.reps)]
    below_1 = [rep for rep, alpha in enumerate(alphas) if alpha < 1]
    assert below_1
    with pytest.warns(RuntimeWarning, match="supwalk failed") as caught:
        rows, summary = run_experiment(heavy, threads=threads)
    assert [str(w.message) for w in caught] == [
        f"rep {rep}, n=200, b=10: supwalk failed (requires alpha >= 1, got "
        f"{alphas[rep]!r}); recorded as degenerate" for rep in below_1]
    assert [r.rep for r in rows if r.degenerate] == below_1
    assert [r["degenerate"] for r in summary] == [0, len(below_1)]


def test_hill_alpha_is_not_resolved_when_no_estimator_reads_it(monkeypatch):
    # an alpha-free estimator under Hill neither calls the Hill estimate nor
    # warns when it would fail
    import lpblocks.experiment as experiment

    config = small_config(alpha_mode="hill:5", estimators=("extremal_index_infty",))
    clean, clean_summary = run_experiment(config)

    def failing_hill(x, k_tail):
        raise ValueError("injected failure")

    monkeypatch.setattr(experiment, "hill_alpha", failing_hill)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows, summary = run_experiment(config)
    assert [persisted(row) for row in rows] == [persisted(row) for row in clean]
    assert summary == clean_summary
    assert all(record["degenerate"] == 0 for record in summary)


@pytest.mark.parametrize("threads", [
    1,
    # workers see the patched estimator only when they are forked
    pytest.param(2, marks=pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="workers are not forked, so the patch does not reach them")),
])
def test_a_rejected_stack_fails_each_of_its_frames(monkeypatch, threads):
    # under a fixed alpha an estimator runs once over a grid point's stack;
    # when it rejects that stack (here one holding rep 1's frame at n = 120),
    # every replication in it is degenerate at that (n, b), with one warning
    # each. A row tile holds two replications' noise, so reps 0 and 1 share
    # a stack; other reps, grid points and estimators keep their values
    import lpblocks.experiment as experiment
    import lpblocks.seqcore as seqcore

    config = small_config(alpha_mode=1.2, reps=5, b_grid=(10, 20),
                          estimators=("extremal_index_alpha", "extremal_index_infty",
                                      "serial:1"))
    clean, _ = run_experiment(config)
    width = max(config.n_grid) + config.model.lead
    monkeypatch.setattr(seqcore, "_TILE_BYTES", 2 * 8 * width)
    bad = simulate(config.model, max(config.n_grid), SeedSpec(config.master_seed, 1))
    needs_alpha, real_estimate = experiment._ESTIMATORS["extremal_index_alpha"]

    def rejecting(stack, alpha, k):
        frames = stack.matrix.reshape(stack.reps, -1)
        if stack.n == 120 and any(np.array_equal(f, bad[: stack.m * stack.b])
                                  for f in frames):
            raise ValueError("injected rejection")
        return real_estimate(stack, alpha, k)

    monkeypatch.setitem(experiment._ESTIMATORS, "extremal_index_alpha",
                        (needs_alpha, rejecting))
    with pytest.warns(RuntimeWarning, match="injected rejection") as caught:
        rows, _ = run_experiment(config, threads=threads)
    assert [str(w.message) for w in caught] == [
        f"rep {rep}, n=120, b={b}: extremal_index_alpha failed (injected rejection); "
        "recorded as degenerate" for rep in (0, 1) for b in config.b_grid]
    assert len(rows) == len(clean)
    for row, ref in zip(rows, clean):
        if row.estimator_id == "extremal_index_alpha" and row.n == 120 and row.rep < 2:
            assert row.degenerate and np.isnan(row.value)
            assert (row.estimator_id, row.n, row.b, row.k, row.rep) == \
                (ref.estimator_id, ref.n, ref.b, ref.k, ref.rep)
        else:
            assert persisted(row) == persisted(ref)


def crafted_series(kind, seed, width):
    """A replication's series: Student draws, zero-heavy, tied, or small
    values with one entry near 1e308, whose block overflows the float range
    when divided by a threshold below 1."""
    rng = np.random.default_rng(seed)
    x = rng.standard_t(1.5, width)
    if kind == "zeros":
        x[rng.random(width) < 0.9] = 0.0
    elif kind == "tied":
        x = rng.choice([-1.0, 1.0, 2.0], width)
    elif kind == "overflow":
        x = 1e-3 * x
        x[rng.integers(width)] = 1e307 * rng.uniform(1.0, 9.0)
    return x


def per_frame_row(entry, series, n, b, kappa, mode, model):
    """(k, value, degenerate) of one (rep, n, b) from the public per-frame
    estimator, as the experiment records it."""
    if n // b < 2:
        return 0, float("nan"), True
    frame, k = partition(series[:n], b), default_k(n, b, kappa)
    try:
        alpha = resolve_alpha(mode, series[:n], model)
    except ValueError:
        alpha = None
    if entry.needs_alpha and alpha is None:
        return k, float("nan"), True
    try:
        report = entry.run(frame, alpha, k)
    except ValueError:
        return k, float("nan"), True
    # the generic per-block loop, where it does not overflow, as a reference
    # that shares no code with the estimators' sums
    kernel = {"extremal_index_alpha": extremal_index_kernel,
              "cluster_index_c1": cluster_index_kernel}.get(entry.estimator_id)
    if kernel is not None and not report.degenerate:
        try:
            loop = cluster_functional_estimate(frame, report.p, k, kernel(alpha)).value
        except ValueError:
            pass
        else:
            assert report.value == (loop if kernel is extremal_index_kernel else 1.0 / loop)
    return k, report.value, report.degenerate


FORKED = multiprocessing.get_start_method() == "fork"


# Hill estimates and estimators that fail on these frames warn; the rows say
# what became of them
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(data=st.data(),
       mode=st.sampled_from(["oracle", 1.2, "hill:5"]),
       reps=st.integers(min_value=1, max_value=7),
       per_stack=st.integers(min_value=1, max_value=4),
       threads=st.sampled_from([1, 2] if FORKED else [1]))
def test_run_experiment_rows_equal_per_frame_reports(data, mode, reps, per_stack, threads):
    # a row tile holds per_stack replications' noise, so rows of a grid point
    # come from tasks, and stacks, of at most per_stack replications, which
    # need not divide reps; each must equal (==) its frame's public estimator
    # report. b = 25 leaves n = 36 with one block, a skipped grid point.
    config = small_config(n_grid=(60, 36), b_grid=(4, 10, 25), reps=reps,
                          estimators=BUILTIN_IDS + ("serial:1", "serial:3"),
                          alpha_mode=mode)
    kinds = data.draw(st.lists(st.sampled_from(["drawn", "zeros", "tied", "overflow"]),
                               min_size=reps, max_size=reps), label="kinds")
    seeds = data.draw(st.lists(st.integers(min_value=0, max_value=2 ** 32 - 1),
                               min_size=reps, max_size=reps), label="seeds")
    series = [crafted_series(kind, seed, max(config.n_grid))
              for kind, seed in zip(kinds, seeds)]
    import lpblocks.experiment as experiment
    import lpblocks.seqcore as seqcore

    width = max(config.n_grid) + config.model.lead
    with mock.patch.object(experiment, "sample_noise",
                           lambda noise, width, seed: series[seed.stream_id].copy()), \
            mock.patch.object(seqcore, "_TILE_BYTES", per_stack * 8 * width):
        rows, _ = run_experiment(config, threads=threads)
    mode = parse_alpha_mode(mode)
    want = []
    for estimator_id in config.estimators:
        entry = get_estimator(estimator_id)
        for n in config.n_grid:
            for b in config.b_grid:
                for rep in range(reps):
                    k, value, degenerate = per_frame_row(
                        entry, series[rep], n, b, config.kappa, mode, config.model)
                    want.append(persisted(ResultRow(estimator_id, n, b, k, rep,
                                                    config.master_seed, value,
                                                    degenerate)))
    assert [persisted(r) for r in rows] == sorted(want, key=lambda r: (r[0], r[1], r[2], r[4]))


def test_run_experiment_threads_byte_identical(tmp_path):
    config = small_config(reps=6, n_grid=(240,), b_grid=(10, 200),
                          estimators=BUILTIN_IDS + ("serial:1",))
    one = tmp_path / "one"
    two = tmp_path / "two"
    rows1, _ = run_experiment(config, threads=1, output=one)
    rows2, _ = run_experiment(config, threads=2, output=two)
    assert [persisted(r) for r in rows1] == [persisted(r) for r in rows2]
    for name in ("results.csv", "summary.csv", "summary.json"):
        assert (one / name).read_bytes() == (two / name).read_bytes()


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_run_experiment_batches_byte_identical(monkeypatch, tmp_path, threads):
    # tasks are batches of ceil(reps / threads) replications, capped at a row
    # tile of noise; neither cut changes a byte of the outputs
    import lpblocks.experiment as experiment
    import lpblocks.seqcore as seqcore

    config = small_config(model=AR1_STUDENT, reps=7, alpha_mode="oracle")
    run_experiment(config, output=tmp_path / "default")
    width = max(config.n_grid) + config.model.lead
    monkeypatch.setattr(seqcore, "_TILE_BYTES", 2 * 8 * width)
    tasks = []
    pool_map = experiment._pool_map

    def spy(fn, batch, threads):
        tasks.extend(reps for _, reps in batch)
        return pool_map(fn, batch, threads)

    monkeypatch.setattr(experiment, "_pool_map", spy)
    run_experiment(config, threads=threads, output=tmp_path / "capped")
    # a tile holds two replications' noise, so the seven are cut at two
    assert max(len(reps) for reps in tasks) <= 2
    assert sum(len(reps) for reps in tasks) == 7
    for name in ("results.csv", "summary.csv", "summary.json"):
        assert (tmp_path / "capped" / name).read_bytes() == \
            (tmp_path / "default" / name).read_bytes()


def test_a_task_is_one_block_stack_per_grid_point(monkeypatch):
    # ten replications at n = 8192 fit one task (a row tile holds 30 of
    # them), so each grid point with k > 0 cuts one stack of all ten; b = 8192
    # leaves one block, a skipped grid point that cuts none
    import lpblocks.blocks as blocks

    cut = blocks._BlockStack.cut
    cuts = []

    def spy(rows, b):
        cuts.append((rows.shape, b))
        return cut(rows, b)

    monkeypatch.setattr(blocks._BlockStack, "cut", staticmethod(spy))
    config = small_config(model=AR1_STUDENT, n_grid=(8192,), b_grid=(16, 64, 8192),
                          reps=10, alpha_mode="oracle")
    run_experiment(config)
    assert cuts == [((10, 8192), 16), ((10, 8192), 64)]


# a Hill alpha below 1 fails supwalk at some replications, which warns
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("mode, exponents", [
    ("oracle", {1.3, 1.0, float("inf")}),
    # Hill alphas differ by frame and n: each alpha group norms its own
    ("hill:20", {1.0, float("inf")}),
])
def test_a_task_norms_each_block_length_once(monkeypatch, mode, exponents):
    # on the benchmark's study grid, a task runs the norm kernel once per b
    # (6 passes), at the largest n, for every exponent the estimators read
    # there; the smaller n slice those norms
    import lpblocks.blocks as blocks

    passes = []
    real = blocks.row_p_moduli

    def spy(matrix, p):
        passes.append((matrix.shape, set(p) if isinstance(p, (list, tuple)) else {p}))
        return real(matrix, p)

    monkeypatch.setattr(blocks, "row_p_moduli", spy)
    config = small_config(model=AR1_STUDENT, n_grid=(1000, 3000, 8000),
                          b_grid=(10, 20, 40, 80, 160, 320), reps=2,
                          estimators=BUILTIN_IDS + ("serial:1",), alpha_mode=mode)
    run_experiment(config)
    full = [(shape, p) for shape, p in passes if len(p) > 1]
    assert full == [((2 * 8000 // b, b), exponents) for b in config.b_grid]
    if mode == "oracle":
        # one norm pass per (n, b, p) would be 3 * 6 * 3 = 54
        assert len(passes) == 6


# a Hill alpha below 1 fails supwalk at some replications, which warns
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_grid_point_norms_each_hill_alpha_once(monkeypatch):
    # under Hill each frame has its own alpha, so each frame's alpha norms
    # are a pass of their own: one per (n, b, frame), 3 * 6 * 2 = 36, shared
    # by the three estimators that read them (108 if each took its own)
    import lpblocks.blocks as blocks

    passes = []
    real = blocks.row_p_moduli

    def spy(matrix, p):
        passes.append((matrix.shape, len(p) if isinstance(p, (list, tuple)) else 1))
        return real(matrix, p)

    monkeypatch.setattr(blocks, "row_p_moduli", spy)
    config = small_config(model=AR1_STUDENT, n_grid=(1000, 3000, 8000),
                          b_grid=(10, 20, 40, 80, 160, 320), reps=2,
                          estimators=BUILTIN_IDS + ("serial:1",), alpha_mode="hill:20")
    run_experiment(config)
    single = [shape for shape, count in passes if count == 1]
    assert sorted(single) == sorted((n // b, b) for n in config.n_grid
                                    for b in config.b_grid for _ in range(2))


def test_a_full_task_peaks_below_four_row_tiles():
    # the task cap is the one rule that sizes a study's memory: a task of 31
    # replications at width 8,300 is a full row tile of noise, and it holds
    # its noise, its series and one grid point's stack at a time
    import lpblocks.experiment as experiment
    import lpblocks.seqcore as seqcore

    config = small_config(model=AR1_STUDENT, n_grid=(8000,),
                          b_grid=(10, 20, 40, 80, 160, 320), reps=31,
                          estimators=BUILTIN_IDS + ("serial:1",), alpha_mode="oracle")
    width = max(config.n_grid) + config.model.lead
    assert width == 8300 and seqcore._tile_height(8 * width) == 31
    tracemalloc.start()
    try:
        columns, _ = experiment._replication_rows(config, range(31))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(columns) == 6 * 6 and all(len(column[4]) == 31 for column in columns)
    assert peak < 4 * seqcore._TILE_BYTES


# the two tiny studies of the CI workflow: AR(1) Student noise with the
# model's alpha and with a Hill estimate per replication
CI_STUDY = {"model": {"kind": "ar1", "phi": 0.8, "burn_in": 50,
                      "noise": {"law": "student", "alpha": 1.3}},
            "n_grid": [200, 400], "b_grid": [10, 40], "reps": 5,
            "estimators": ["extremal_index_alpha", "extremal_index_infty",
                           "cluster_index_c1", "serial:1", "supwalk"],
            "master_seed": 3}


def test_study_outputs_are_pinned(tmp_path, pinned):
    # every byte a study writes: the simulated series, each estimator's
    # value and flags, the summary quantiles and their text formatting
    digest = hashlib.sha256()
    for mode in ("oracle", "hill:20"):
        out = tmp_path / mode.replace(":", "-")
        run_experiment(config_from_dict({**CI_STUDY, "alpha_mode": mode}), output=out)
        for name in ("results.csv", "summary.csv", "summary.json"):
            digest.update((out / name).read_bytes())
    assert digest.hexdigest() == pinned(
        "0421e13c56d77201430b039a17691f22f6df2839ef83c1d04bc77eb3a192a5c1",
        "46034e8abadefa1abbc103e4bb41b91cdf9603f698a462d5d0ae87005690d29b")


# an odd grid: 403 is a multiple of neither block length, and at b = 40 the
# sample sizes 200 and 207 cut the same m = 5 blocks
ODD_STUDY = {**CI_STUDY, "n_grid": [200, 207, 403], "b_grid": [7, 40]}


def test_odd_grid_study_outputs_are_pinned(tmp_path, pinned):
    digest = hashlib.sha256()
    for mode in (1.2, "hill:20"):
        out = tmp_path / str(mode).replace(":", "-")
        run_experiment(config_from_dict({**ODD_STUDY, "alpha_mode": mode}), output=out)
        for name in ("results.csv", "summary.csv", "summary.json"):
            digest.update((out / name).read_bytes())
    assert digest.hexdigest() == pinned(
        "c90adf456b9122169f0f419a3168fabecedf957b5b034be4c9fd83043a5acf46",
        "62be9ca6b7a070ff6e30007eccfdb264f1919c117f82fc84368d23c74bb45f95")


def test_cli_experiment_builds_no_result_row(monkeypatch, tmp_path, capsys):
    # lpblocks experiment writes its outputs from the task columns; only
    # run_experiment, whose callers read rows, builds ResultRows
    import lpblocks.experiment as experiment

    built = []

    class Spy(ResultRow):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(experiment, "ResultRow", Spy)
    config = small_config()
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_to_dict(config)), encoding="utf-8")
    assert main(["experiment", str(path), "--out", str(tmp_path / "out")]) == 0
    assert built == []
    rows = len(config.estimators) * len(config.n_grid) * len(config.b_grid) * config.reps
    assert f"results.csv ({rows} rows)" in capsys.readouterr().out
    # the spy sees the rows that run_experiment builds
    run_experiment(config)
    assert len(built) == rows


def test_config_naming_an_output_is_rejected(tmp_path, capsys):
    # a run writes where --out or run_experiment(output=) says; a config has
    # no output key of its own
    data = {**config_to_dict(small_config()), "output": str(tmp_path / "from_config")}
    with pytest.raises(ValueError, match="^unknown config keys: output$"):
        config_from_dict(data)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["experiment", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: unknown config keys: output\n"
    assert not (tmp_path / "from_config").exists() and not (tmp_path / "out").exists()


def test_summarize_matches_recomputed_quantiles():
    rows, summary = run_experiment(small_config(reps=7))
    key = ("extremal_index_alpha", 120, 10)
    group = [r for r in rows if (r.estimator_id, r.n, r.b) == key]
    values = np.asarray([r.value for r in group])
    record = next(s for s in summary
                  if (s["estimator_id"], s["n"], s["b"]) == key)
    assert record["rows"] == 7 and record["degenerate"] == 0
    assert record["k"] == max(r.k for r in group)
    assert record["mean"] == float(values.mean())
    for name, q in zip(("q05", "q25", "q50", "q75", "q95"),
                       (0.05, 0.25, 0.5, 0.75, 0.95)):
        assert record[name] == float(np.quantile(values, q))


def test_summarize_excludes_degenerate_rows():
    record = _summary_record("e", 100, 10, 5, [2.0, 4.0, 6.0], [False, True, False])
    assert record["rows"] == 3 and record["degenerate"] == 1
    assert record["mean"] == 4.0 and record["q50"] == 4.0


def test_results_csv_exact_text():
    # a group's value i is rep i's
    groups = [("e", 100, 10, 5, [0.1, 2.5], [False, False]),
              ("e", 100, 20, 0, [float("nan")] * 2, [True, True])]
    assert _results_text(groups, 7) == (
        RESULTS_HEADER + "\n"
        "e,100,10,5,0,7,0.1,0\n"
        "e,100,10,5,1,7,2.5,0\n"
        "e,100,20,0,0,7,nan,1\n"
        "e,100,20,0,1,7,nan,1\n")


def test_summary_csv_blank_for_missing_stats():
    text = summary_csv_text([_summary_record("e", 100, 10, 0, [float("nan")], [True])])
    assert text.splitlines()[0] == SUMMARY_HEADER
    assert text.splitlines()[1] == "e,100,10,0,1,1,,,,,,"


def test_summary_json_round_trip(tmp_path):
    _, summary = run_experiment(small_config())
    path = tmp_path / "summary.json"
    write_summary_json(summary, path)
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n")
    assert json.loads(text) == summary


# --- series files ----------------------------------------------------------

def test_read_series_file(tmp_path):
    path = tmp_path / "series.txt"
    path.write_text("# header\n\n1.5\n 2.5 \n-3e-1,\n", encoding="utf-8")
    x = read_series_file(path)
    assert x.dtype == np.float64
    assert x.tolist() == [1.5, 2.5, -0.3]


def test_read_series_file_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1.0\n2.0, 3.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2: expected one value"):
        read_series_file(path)
    path.write_text("1.0\nabc\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2: could not parse"):
        read_series_file(path)
    for text in ("nan", "-inf", "1e999"):
        path.write_text(f"1.0\n# note\n{text}\n2.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 3: {text!r} is not finite")):
            read_series_file(path)
    path.write_text("# only comments\n\n", encoding="utf-8")
    with pytest.raises(ValueError, match="no numeric data"):
        read_series_file(path)


def series_file(tmp_path, model=AR1_STUDENT, n=400, seed=2):
    series = simulate(model, n, seed)
    path = tmp_path / "x.txt"
    path.write_text("\n".join(repr(float(v)) for v in series) + "\n",
                    encoding="utf-8")
    return path, series


def test_estimate_from_file_matches_in_process(tmp_path):
    path, series = series_file(tmp_path)
    report = estimate_from_file(path, "extremal_index_alpha", b=20, alpha=1.3)
    frame = partition(series, 20)
    k = default_k(len(series), 20, 1.0)
    assert same_report(report, extremal_index_alpha_blocks(frame, 1.3, k))


def test_estimate_from_file_hill_alpha_default(tmp_path):
    path, series = series_file(tmp_path, model=IID_PARETO15)
    report = estimate_from_file(path, "extremal_index_alpha", b=20)
    assert report.alpha_used == hill_alpha(series, default_hill_k(len(series)))


def test_estimate_from_file_skips_alpha_when_unneeded(tmp_path):
    path, _ = series_file(tmp_path)
    report = estimate_from_file(path, "extremal_index_infty", b=20)
    assert report.alpha_used is None


def test_estimate_from_file_validation(tmp_path):
    path, _ = series_file(tmp_path, n=20)
    with pytest.raises(TypeError, match="'b'"):
        estimate_from_file(path, "extremal_index_alpha", alpha=1.3)
    with pytest.raises(ValueError, match="block length b is required"):
        estimate_from_file(path, "extremal_index_alpha", b=0, alpha=1.3)
    with pytest.raises(ValueError, match="no model"):
        estimate_from_file(path, "extremal_index_alpha", b=5, alpha="oracle")
    with pytest.raises(ValueError, match="too few blocks"):
        estimate_from_file(path, "extremal_index_alpha", b=15, alpha=1.3)


# --- closed-form report ----------------------------------------------------

def test_oracle_report_ar1_student():
    report = oracle_report(AR1_STUDENT)
    assert report["alpha"] == 1.3
    assert report["coefficients"] > 100
    assert report["theta"] == pytest.approx(THETA_08_13, rel=1e-9)
    assert [row["p"] for row in report["cluster_constants"]] == \
        ["0.5", "1", "1.3", "2", "inf"]
    for row in report["cluster_constants"]:
        assert row["telescoping"] == pytest.approx(row["closed_form"], abs=1e-10)
    assert report["serial"][0] == pytest.approx((1 - 0.8 ** 1.3) / (1 + 0.8 ** 1.3),
                                                rel=1e-9)
    assert report["serial"][1] == pytest.approx(0.10776656573469802, rel=1e-9)
    assert sorted(report["serial"]) == [0, 1, 2, 3]
    assert report["supwalk"] == pytest.approx(SUPWALK_08_13_SYM, rel=1e-8)


def test_oracle_report_dedups_p_grid():
    report = oracle_report(LinearModelSpec(coeffs=(1.0, 0.5),
                                           noise=NoiseSpec(law="pareto", alpha=2.0)))
    assert [row["p"] for row in report["cluster_constants"]] == \
        ["0.5", "1", "2", "inf"]


def test_oracle_report_supwalk_none_below_one():
    report = oracle_report(LinearModelSpec(coeffs=(1.0,),
                                           noise=NoiseSpec(law="pareto", alpha=0.8)))
    assert report["supwalk"] is None


def test_oracle_report_serial_lags():
    report = oracle_report(IID_PARETO15, serial_lags=2)
    assert report["alpha"] == 1.5
    assert report["theta"] == 1.0
    assert sorted(report["serial"]) == [0, 1]


def test_format_oracle_report():
    text = format_oracle_report(oracle_report(AR1_STUDENT))
    assert "alpha = 1.3" in text
    assert "theta = c(inf) = 0.251801" in text
    assert "g_1=0.107767" in text
    assert "supwalk constant = 1.020208" in text
    short = format_oracle_report(oracle_report(
        LinearModelSpec(coeffs=(1.0,), noise=NoiseSpec(law="pareto", alpha=0.8))))
    assert "supwalk" not in short


# --- command line ----------------------------------------------------------

def test_cli_simulate_stdout(capsys):
    rc = main(["simulate", "--model", "linear", "--coeffs", "1,0.5",
               "--noise", "pareto", "--tail-index", "1.5", "--n", "5",
               "--seed", "3"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# simulated linear series, n=5, seed=3"
    expected = simulate(LinearModelSpec(coeffs=(1.0, 0.5),
                                        noise=NoiseSpec(law="pareto", alpha=1.5)),
                        5, 3)
    assert [float(v) for v in lines[1:]] == expected.tolist()


def test_cli_simulate_then_estimate_round_trip(tmp_path, capsys):
    out = tmp_path / "series.txt"
    rc = main(["simulate", "--model", "ar1", "--phi", "0.8", "--burn-in", "300",
               "--noise", "student", "--tail-index", "1.3", "--n", "400",
               "--seed", "2", "--out", str(out)])
    assert rc == 0
    assert f"wrote {out}" in capsys.readouterr().out
    rc = main(["estimate", str(out), "--estimator", "extremal_index_alpha",
               "--b", "20", "--alpha", "1.3"])
    assert rc == 0
    printed = dict(line.split("=", 1)
                   for line in capsys.readouterr().out.splitlines()
                   if "=" in line and " " not in line.split("=", 1)[0])
    report = estimate_from_file(out, "extremal_index_alpha", b=20, alpha=1.3)
    assert float(printed["value"]) == report.value
    assert printed["estimator_id"] == "extremal_index_alpha"
    assert int(printed["selected_blocks"]) == report.selected_blocks
    assert printed["degenerate"] == "0"


def test_cli_error_exit_code(tmp_path, capsys):
    path, _ = series_file(tmp_path, n=100)
    rc = main(["estimate", str(path), "--estimator", "bogus", "--b", "10"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: unknown estimator")
    assert main(["estimate", str(path), "--estimator", "serial:01", "--b", "10",
                 "--alpha", "1.5"]) == 2
    assert capsys.readouterr().err == \
        "error: write 'serial:01' as 'serial:1' (lag in plain decimal)\n"
    rc = main(["simulate", "--model", "ar1", "--noise", "student",
               "--tail-index", "1.3", "--n", "10"])
    assert rc == 2
    assert "requires --phi" in capsys.readouterr().err
    # a bad config value is named before any replication runs
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({**config_to_dict(small_config()), "reps": 2.5}),
                        encoding="utf-8")
    assert main(["experiment", str(cfg_path)]) == 2
    assert capsys.readouterr().err == "error: reps must be an integer, got 2.5\n"
    # and a sample length below 1 before any draw
    for n in ("0", "-3"):
        assert main(["ldratio", "--model", "linear", "--coeffs", "1", "--noise",
                     "pareto", "--tail-index", "1.5", "--n", n, "--p", "1",
                     "--x", "50", "--reps", "100"]) == 2
        assert capsys.readouterr().err == \
            f"error: sample length n must be at least 1, got {n}\n"
    # and a coefficient that is not a number, naming the option
    assert main(["ldratio", "--model", "linear", "--coeffs", "1,x,0.5", "--noise",
                 "pareto", "--tail-index", "1.5", "--n", "10", "--p", "1",
                 "--x", "50", "--reps", "100"]) == 2
    assert capsys.readouterr().err == \
        "error: --coeffs must be comma-separated numbers, got '1,x,0.5'\n"


def test_cli_estimate_rejects_an_overflowing_hill_estimate(tmp_path, capsys):
    path = tmp_path / "x.txt"
    path.write_text("1e300\n1e299\n5e-310\n4e-310\n3e-310\n2e-310\n", encoding="utf-8")
    assert main(["estimate", str(path), "--estimator", "extremal_index_alpha",
                 "--b", "2", "--alpha", "hill:2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: Hill gamma overflows: ")


def test_cli_experiment_with_output(tmp_path, capsys):
    config = small_config(master_seed=0)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config_to_dict(config)), encoding="utf-8")
    out = tmp_path / "out"
    rc = main(["experiment", str(cfg_path), "--out", str(out), "--seed", "7"])
    assert rc == 0
    assert "wrote" in capsys.readouterr().out
    lines = (out / "results.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == RESULTS_HEADER
    assert all(line.split(",")[5] == "7" for line in lines[1:])


def test_cli_experiment_summary_to_stdout(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config_to_dict(small_config())), encoding="utf-8")
    rc = main(["experiment", str(cfg_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == SUMMARY_HEADER
    _, summary = run_experiment(small_config())
    assert out == summary_csv_text(summary)


def test_cli_oracle(capsys):
    rc = main(["oracle", "--model", "ar1", "--phi", "0.8", "--noise", "student",
               "--tail-index", "1.3", "--p", "1,alpha,inf"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "theta = c(inf) = 0.251801" in out
    assert "supwalk constant" in out


def test_cli_oracle_leaves_out_an_empty_serial_line(capsys):
    # at 0 lags there are no serial values, so the line goes rather than
    # print "serial: " with nothing after it; the other lines stay as they are
    argv = ["oracle", "--model", "ar1", "--phi", "0.8", "--noise", "student",
            "--tail-index", "1.3", "--p", "1,alpha,inf"]
    assert main(argv) == 0
    default = capsys.readouterr().out.splitlines()
    assert main(argv + ["--serial-lags", "0"]) == 0
    bare = capsys.readouterr().out.splitlines()
    serial = [line for line in default if line.startswith("serial:")]
    assert serial == ["serial: g_0=0.144035  g_1=0.107767  g_2=0.080631  g_3=0.060328"]
    assert bare == [line for line in default if line not in serial]
    assert not any(line.endswith(" ") for line in default + bare)


def test_cli_oracle_rejects_negative_serial_lags(capsys):
    rc = main(["oracle", "--model", "ar1", "--phi", "0.8", "--noise", "student",
               "--tail-index", "1.3", "--serial-lags", "-1"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: serial_lags must be nonnegative, got -1\n"


def test_cli_oracle_names_an_overflowing_alpha(capsys):
    rc = main(["oracle", "--model", "ar1", "--phi", "0.8", "--tail-index", "1e9"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: c(p) leaves the float range at alpha=1000000000.0, p=0.5\n"


def test_cli_oracle_refuses_an_ar1_near_one(capsys):
    rc = main(["oracle", "--model", "ar1", "--phi", "0.9999999", "--tail-index", "1.3"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: AR(1) phi=0.9999999 is too close to +-1")
    assert captured.err.count("\n") == 1


def test_cli_oracle_is_scale_free(capsys):
    # huge coefficients print what the same model over max|phi_j| prints
    argv = ["oracle", "--model", "linear", "--tail-index", "1.3", "--coeffs"]
    assert main(argv + ["1e308,1e308"]) == 0
    huge = capsys.readouterr().out
    assert main(argv + ["1,1"]) == 0
    assert huge == capsys.readouterr().out


def test_cli_ldratio_fixed_level(capsys):
    rc = main(["ldratio", "--model", "linear", "--coeffs", "1", "--noise",
               "pareto", "--tail-index", "1.5", "--n", "10", "--p", "1",
               "--reps", "20000", "--x", "50"])
    assert rc == 0
    out = capsys.readouterr().out
    printed = dict(line.split("=", 1) for line in out.splitlines() if "=" in line)
    est = ld_ratio_mc(IID_PARETO15, 10, 1.0, 50.0, 20000, 0)
    assert float(printed["ratio"]) == est.ratio
    assert float(printed["std_error"]) == est.std_error
    assert printed["degenerate"] == "0"


def test_cli_ldratio_rejects_a_worker_count_below_one(capsys):
    rc = main(["ldratio", "--model", "linear", "--coeffs", "1", "--noise",
               "pareto", "--tail-index", "1.5", "--n", "10", "--p", "1",
               "--reps", "2000", "--x", "50", "--threads", "0"])
    assert rc == 2
    assert "threads must be at least 1, got 0" in capsys.readouterr().err


def test_cli_ldratio_names_a_zero_moment_count(capsys):
    rc = main(["ldratio", "--model", "linear", "--coeffs", "1", "--noise",
               "pareto", "--tail-index", "1.5", "--n", "10", "--p", "1",
               "--reps", "2000", "--x", "50", "--centered", "--moment-reps", "0"])
    assert rc == 2
    assert capsys.readouterr().err == "error: --moment-reps must be at least 1, got 0\n"


# the ids name each count as the library does; the command line calls the
# library's pilot_reps --moment-reps, and its error says so
@pytest.mark.parametrize("counts, message", [
    pytest.param(["--reps", "0"], "reps must be at least 1, got 0",
                 id="counts0-reps must be at least 1, got 0"),
    pytest.param(["--reps", "2000", "--centered", "--moment-reps", "0"],
                 "--moment-reps must be at least 1, got 0",
                 id="counts1-pilot_reps must be at least 1, got 0"),
    pytest.param(["--reps", "2000", "--pilot-reps", "0"],
                 "--pilot-reps must be at least 1, got 0", id="counts2-pilot-reps"),
])
def test_cli_ldratio_checks_counts_before_the_pilot_level(capsys, counts, message):
    # without --x the level is a pilot quantile, drawn first; a bad count
    # fails before it
    from lpblocks import largedev

    before = largedev._drawn.copy()
    rc = main(["ldratio", "--model", "linear", "--coeffs", "1,0.5", "--noise",
               "pareto", "--tail-index", "1.3", "--n", "50", "--p", "1",
               "--pilot-reps", "2000"] + counts)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert largedev._drawn == before


@pytest.mark.parametrize("argv", [
    ["oracle", "--model", "ar1", "--phi", "0.8", "--noise", "student",
     "--tail-index", "1.3", "--p", "1,zz"],
    ["ldratio", "--model", "linear", "--coeffs", "1", "--noise", "pareto",
     "--tail-index", "1.3", "--n", "10", "--p", "zz", "--reps", "2000", "--x", "50"],
], ids=["oracle", "ldratio"])
def test_cli_names_a_non_numeric_exponent(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: p must be a number or 'inf', got 'zz'\n"


def test_cli_ldratio_rejects_an_infinite_tail_index(capsys):
    # Pareto noise of tail index inf is all 1.0, which counts no hit
    rc = main(["ldratio", "--model", "linear", "--coeffs", "1", "--noise",
               "pareto", "--tail-index", "inf", "--n", "10", "--p", "1",
               "--reps", "2000", "--x", "50"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: tail index alpha must be positive and finite, got inf\n"


@pytest.mark.parametrize("centered", [[], ["--centered"]])
def test_cli_ldratio_rejects_an_infinite_level(capsys, centered):
    rc = main(["ldratio", "--model", "linear", "--coeffs", "1", "--noise",
               "pareto", "--tail-index", "1.5", "--n", "10", "--p", "1",
               "--reps", "2000", "--x", "inf"] + centered)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: x must be positive and finite, got inf\n"


def test_cli_ldratio_pilot_and_centered(capsys):
    rc = main(["ldratio", "--model", "linear", "--coeffs", "1", "--noise",
               "pareto", "--tail-index", "1.5", "--n", "10", "--p", "1",
               "--reps", "20000", "--pilot-q", "0.995", "--pilot-reps", "20000",
               "--centered", "--moment-reps", "20000"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "pilot level: x=" in out
    assert "z=" in out


def test_cli_ldratio_reports_draws_on_stderr(capsys):
    # 20,001 windows of 10 are 500 rows of 40 windows and a last row of 1,
    # drawn as 2 chunks; iid noise has no lead. Pareto noise draws the 500
    # rows in tiles of 218 (a tile and the filter's two buffers fit 2 MB),
    # so the chunks are 3 tiles and 1
    argv = ["ldratio", "--model", "linear", "--coeffs", "1", "--noise", "pareto",
            "--tail-index", "1.5", "--n", "10", "--p", "1", "--reps", "20001",
            "--x", "50"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    line, = captured.err.splitlines()
    fields = dict(tok.split("=") for tok in line.split()[1:])
    assert line.startswith("ld: ")
    assert (fields["values"], fields["rows"], fields["chunks"]) == ("200010", "501", "2")
    assert fields["tiles"] == "4"
    assert float(fields["elapsed_s"]) >= 0 and float(fields["values_per_s"]) > 0
    assert "values=" not in captured.out

    assert main(argv[:-2] + ["--centered", "--moment-reps", "20000", "--x", "50"]) == 0
    out = capsys.readouterr().out
    z_line, = [ln for ln in out.splitlines() if ln.startswith("z=")]
    assert re.fullmatch(r"z=\S+ z_std_error=\S+", z_line)
