"""Command-line workflows: configs, artifacts, exit codes, reproducibility."""

import collections
import concurrent.futures
import dataclasses
import decimal
import json
import math
import os
import re
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest

import oracles
import sgalab
from sgalab import (
    artifacts, cli, config, diagnostics, engine, linalg, models, theory,
)
from sgalab.errors import ConfigError, DivergenceError
from sgalab.tuning import MOMENTUM, TuningConfig

BASE_INI = """
[model]
family = gaussian_location
n = 200
d = 3
data_seed = 5

[tuning]
frak_h = 1.0
frak_b = 0.0
c_h = 4.0
c_b = 1.0
gamma = jhat_inv
lambda = jhat_inv

[execution]
epochs = 20
replicates = 2
thin = 5
init = mle
seed = 9
burnin_fraction = 0.2

[prediction]
m_values = 1.0
t_grid = 0.5
"""

BASE_TREE = {
    "model": {"family": "gaussian_location", "n": 200, "d": 3, "data_seed": 5},
    "tuning": {
        "frak_h": 1.0,
        "frak_b": 0.0,
        "c_h": 4.0,
        "c_b": 1.0,
        "gamma": "jhat_inv",
        "lambda": "jhat_inv",
    },
    "execution": {
        "epochs": 20.0,
        "replicates": 2,
        "thin": 5,
        "init": "mle",
        "seed": 9,
        "burnin_fraction": 0.2,
    },
    "prediction": {"m_values": [1.0], "t_grid": [0.5]},
}


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


# ------------------------------------------------------------ config layer


def test_ini_and_json_configs_are_equivalent(tmp_path):
    ini = _write(tmp_path, "run.ini", BASE_INI)
    js = _write(tmp_path, "run.json", json.dumps(BASE_TREE))
    tree_ini = config.parse_config(ini)
    tree_json = config.parse_config(js)
    assert tree_ini == tree_json
    assert config.config_hash(tree_ini) == config.config_hash(tree_json)


def test_config_hash_excludes_output_and_is_order_stable():
    tree_a = {k: dict(v) for k, v in BASE_TREE.items()}
    tree_b = {k: dict(v) for k, v in reversed(list(BASE_TREE.items()))}
    tree_a["output"] = {"dir": "somewhere"}
    tree_a["recommend"] = {"target": "bagged"}
    assert config.config_hash(tree_a) == config.config_hash(tree_b)
    tree_c = {k: dict(v) for k, v in BASE_TREE.items()}
    tree_c["tuning"]["c_h"] = 2.0
    assert config.config_hash(tree_a) != config.config_hash(tree_c)


def test_unknown_key_and_section_are_usage_errors(tmp_path, capsys):
    bad_key = BASE_INI.replace("c_h = 4.0", "c_step = 4.0")
    path = _write(tmp_path, "bad.ini", bad_key)
    assert cli.main(["predict", "--config", path, "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "c_step" in err and "tuning" in err

    bad_section = BASE_INI + "\n[turbo]\nlevel = 11\n"
    path2 = _write(tmp_path, "bad2.ini", bad_section)
    assert cli.main(["predict", "--config", path2, "--quiet"]) == 1
    assert "turbo" in capsys.readouterr().err

    # the momentum variant has unit mass, so no mass key exists
    mass = BASE_INI.replace("lambda = jhat_inv", "lambda = jhat_inv\nmass = identity")
    path3 = _write(tmp_path, "bad3.ini", mass)
    assert cli.main(["predict", "--config", path3, "--quiet"]) == 1
    assert "unknown key 'mass' in section [tuning]" in capsys.readouterr().err


def test_config_grammar_lists_exactly_the_schema_keys():
    grammar = config.__doc__.split("::", 1)[1]
    documented: dict[str, set] = {}
    for line in grammar.splitlines():
        header = re.fullmatch(r"\[(\w+)\]", line.strip())
        if header:
            keys = documented.setdefault(header.group(1), set())
            continue
        # "key = ...", "a, b = ...", or alternatives "a = ... | b = ..."
        for names in re.findall(r"(?:^|\|)\s*(\w+(?:\s*,\s*\w+)*)\s*=", line):
            keys.update(re.split(r"\s*,\s*", names))
    assert documented == {section: set(keys) for section, keys in config._SCHEMA.items()}


def test_model_schema_keys_are_exactly_those_the_family_table_reads():
    # a key the schema accepts but no family or source reads would be ignored
    # silently; a key the table reads but the schema refuses could never be set
    read = set().union(*(family.reads(source) for family in models.FAMILIES.values()
                         for source in models.SOURCES))
    assert read == set(config._SCHEMA["model"])


@pytest.mark.parametrize(
    "model, key, reader",
    [
        ({"family": "logistic", "d": 2}, "zero_inflation", "family logistic"),
        ({"family": "logistic", "d": 2}, "covariate_scales", "family logistic"),
        ({"family": "logistic", "d": 2}, "weights", "family logistic"),
        ({"family": "gaussian_location"}, "zero_inflation", "family gaussian_location"),
        ({"family": "gaussian_location"}, "header", "source synthetic"),
        ({"family": "poisson", "source": "csv", "columns": 3}, "zero_inflation",
         "source csv"),
        ({"family": "gaussian_location", "source": "csv", "columns": 2}, "theta_star",
         "source csv"),
        ({"family": "logistic", "source": "csv", "columns": 3}, "data_seed", "source csv"),
    ],
    ids=["logistic-zero_inflation", "logistic-covariate_scales", "logistic-weights",
         "gaussian-zero_inflation", "synthetic-header", "csv-zero_inflation",
         "csv-theta_star", "csv-data_seed"],
)
def test_model_key_the_family_or_source_does_not_read_is_an_error(model, key, reader):
    value = {"zero_inflation": 0.3, "covariate_scales": [2.0], "weights": [1.0, 1.0],
             "header": True, "theta_star": [0.0, 0.0], "data_seed": 3}[key]
    source = {"n": 50} if model.get("source") != "csv" else {"path": "data.csv"}
    tree = {"model": {**model, **source, key: value}, "execution": {"steps": 10}}
    with pytest.raises(ConfigError, match=rf"^\[model\] {key} is not read for {reader}$"):
        config.resolve_setup(tree)


@pytest.mark.parametrize("section, key", [("tuning", "gama"), ("execution", "replicate")])
def test_resolve_setup_checks_a_tree_built_in_code_against_the_schema(section, key):
    # the same typos in a file are refused by parse_config; a tree handed to
    # resolve_setup directly must not fall back to the defaults instead
    tree = dict(BASE_TREE, **{section: dict(BASE_TREE[section], **{key: 30})})
    with pytest.raises(ConfigError, match=rf"unknown key '{key}' in section \[{section}\]"):
        config.resolve_setup(tree)


def test_config_value_type_errors_name_the_offender(tmp_path):
    bad = BASE_INI.replace("epochs = 20", "epochs = soon")
    path = _write(tmp_path, "bad3.ini", bad)
    with pytest.raises(ConfigError, match=r"\[execution\] epochs"):
        config.parse_config(path)


def test_weights_auto_is_not_a_spelling_of_the_default(tmp_path):
    path = _write(tmp_path, "auto.ini", BASE_INI.replace("d = 3", "d = 3\nweights = auto"))
    with pytest.raises(ConfigError, match=r"\[model\] weights"):
        config.parse_config(path)


def test_csv_header_flag_reaches_the_reader(tmp_path, capsys):
    data = tmp_path / "data.csv"
    oracles.save_csv(str(data), np.random.default_rng(8).standard_normal((60, 2)),
                     header=["x", "y"])
    ini = (f"[model]\nfamily = gaussian_location\nsource = csv\npath = {data}\n"
           "columns = 2\nheader = {}\n\n[tuning]\nc_h = 4.0\n\n[execution]\nepochs = 5\n")
    cfg = _write(tmp_path, "csv.ini", ini.format("true"))
    assert cli.main(["predict", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert "predict: n=60 " in capsys.readouterr().out
    cfg = _write(tmp_path, "csv.ini", ini.format("false"))
    assert cli.main(["predict", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "row 1, column 1" in capsys.readouterr().err


def test_unlisted_library_error_is_a_message_not_a_traceback(tmp_path, capsys):
    # separable logistic data: the maximum-likelihood estimate lies at infinity
    rng = np.random.default_rng(0)
    x = rng.standard_normal((50, 2))
    rows = np.column_stack([x, (x[:, 0] > 0).astype(float)])
    data = tmp_path / "separable.csv"
    oracles.save_csv(str(data), rows)
    ini = (
        f"[model]\nfamily = logistic\nsource = csv\npath = {data}\n"
        "columns = 3\nd = 2\n\n[execution]\nepochs = 1\n"
    )
    cfg = _write(tmp_path, "separable.ini", ini)
    out = str(tmp_path / "out")
    assert cli.main(["predict", "--config", cfg, "--out", out, "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "old, new, command, named",
    [
        ("epochs = 20", "epochs = nan", "predict", "epochs"),
        ("epochs = 20", "epochs = inf", "predict", "epochs"),
        ("epochs = 20", "epochs = 0", "predict", "epochs"),
        ("epochs = 20", "epochs = -5", "simulate", "epochs"),
        ("n = 200", "n = -5", "predict", "sample size n"),
        ("data_seed = 5", "data_seed = -1", "predict", "data seed"),
        ("frak_h = 1.0", "frak_h = 1.0\nfrak_t = -inf", "simulate", "frak_t"),
        ("frak_h = 1.0", "frak_h = 1.0\nfrak_t = -inf", "predict", "frak_t"),
        ("seed = 9", "seed = 9\naverage_start_epochs = nan", "simulate",
         "average_start_epochs"),
        ("seed = 9", "seed = 9\naverage_start_epochs = -3", "simulate",
         "average_start_epochs"),
        ("thin = 5", "thin = 0", "predict", "thin"),
        ("thin = 5", "thin = -2", "simulate", "thin"),
        ("d = 3", "d = 3\ntheta_star = 1, 2", "predict",
         "theta_star must have shape (3,), got (2,)"),
    ] + [
        ("init = mle", f"init = overdispersed:{scale}", "simulate", "[execution] init")
        for scale in ("abc", "", "nan", "inf", "1e400", "-2", "0")
    ],
    ids=[
        "epochs-nan", "epochs-inf", "epochs-zero", "epochs-negative",
        "n-negative", "data_seed-negative", "frak_t-minus-inf-simulate",
        "frak_t-minus-inf-predict", "average_start_epochs-nan",
        "average_start_epochs-negative", "thin-zero-predict", "thin-negative-simulate",
        "theta_star-wrong-length",
        "init-scale-abc", "init-scale-empty",
        "init-scale-nan", "init-scale-inf", "init-scale-1e400", "init-scale-negative",
        "init-scale-zero",
    ],
)
def test_out_of_range_config_value_is_usage_error(tmp_path, capsys, old, new, command, named):
    assert BASE_INI.count(old) == 1
    cfg = _write(tmp_path, "bad.ini", BASE_INI.replace(old, new))
    argv = [command, "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]
    if command == "simulate":
        argv += ["--threads", "1"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


def test_missing_config_file_is_usage_error(capsys):
    assert cli.main(["predict", "--config", "/nonexistent.ini"]) == 1
    assert "not found" in capsys.readouterr().err


def test_ground_truth_routes_use_the_exact_matrices(tmp_path):
    # the Gaussian family knows J* and I*: [prediction] matrices = truth
    # predicts from them, and the jstar_inv / istar_inv tokens invert them
    tree = dict(BASE_TREE,
                tuning=dict(BASE_TREE["tuning"], gamma="jstar_inv", **{"lambda": "istar_inv"}),
                prediction=dict(BASE_TREE["prediction"], matrices="truth"))
    _, data, truth = models.generate_gaussian(200, 3, seed=5)
    setup = config.resolve_setup(tree)
    assert np.array_equal(setup.cfg.gamma, linalg.sym_inv(truth.j_star))
    assert np.array_equal(setup.cfg.lam, linalg.sym_inv(truth.i_star))

    out = str(tmp_path)
    assert cli.cmd_predict(tree, out, quiet=True) == 0
    written = _read_json(os.path.join(out, "predictions.json"))["report"]["q_inf"]
    want = theory.predict(setup.cfg, truth.j_star, truth.i_star, data.n,
                          m_values=setup.m_values, t_grid=setup.t_grid).q_inf
    assert np.array_equal(np.asarray(written), want)


@pytest.mark.parametrize("section, key, token", [
    ("prediction", "matrices", "truth"),
    ("tuning", "gamma", "jstar_inv"),
    ("tuning", "lambda", "istar_inv"),
])
def test_ground_truth_routes_without_truth_are_usage_errors(tmp_path, capsys, section, key,
                                                            token):
    tree = dict(BASE_TREE, model={"family": "logistic", "n": 200, "d": 3, "data_seed": 5})
    tree[section] = dict(tree[section], **{key: token})
    cfg = _write(tmp_path, "run.json", json.dumps(tree))
    assert cli.main(["predict", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert re.search(r"ground.truth", err) and token in err, err


# --------------------------------------------------------- happy-path flow


def test_predict_simulate_compare_roundtrip(tmp_path, capsys):
    cfg = _write(tmp_path, "run.ini", BASE_INI)
    out = str(tmp_path / "out")

    assert cli.main(["predict", "--config", cfg, "--out", out]) == 0
    preds = _read_json(os.path.join(out, "predictions.json"))
    assert "report" in preds and "1.0" in preds["report"]["averages"]
    assert "0.5" in preds["report"]["marginals"]
    shown = capsys.readouterr().out
    assert "stationary covariance" in shown

    assert cli.main(
        ["simulate", "--config", cfg, "--out", out, "--threads", "1", "--quiet"]
    ) == 0
    for name in ("trace_000.csv", "trace_001.csv", "manifest_000.json",
                 "manifest_001.json", "timings.json"):
        assert os.path.exists(os.path.join(out, name)), name
    timings = _read_json(os.path.join(out, "timings.json"))
    assert timings["steps"] == 2 * 4000  # 20 epochs of n / b = 200 steps each
    assert timings["steps_per_s"] > 0

    assert cli.main(["compare", "--config", cfg, "--out", out, "--quiet"]) == 0
    comparison = _read_json(os.path.join(out, "comparison.json"))
    assert comparison["config_hash"] == preds["config_hash"]
    assert comparison["replicates_used"] == 2
    assert comparison["stationary"] is not None
    assert 0.0 <= comparison["stationary"]["rel_frobenius_error"] < 1.0
    assert comparison["mixing"]["predicted_epochs_iact"] == pytest.approx(1.0)
    assert os.path.exists(os.path.join(out, "acf_000.csv"))


def test_compare_health_line_counts_replicates_and_reads_timings(tmp_path, capsys, monkeypatch):
    cfg = _write(tmp_path, "run.ini", BASE_INI)
    out = str(tmp_path / "out")
    assert cli.main(["predict", "--config", cfg, "--out", out, "--quiet"]) == 0
    assert cli.main(
        ["simulate", "--config", cfg, "--out", out, "--threads", "1", "--quiet"]
    ) == 0
    # replicate 1 rewritten as a run that diverged at step 501
    record, run_hash = artifacts.load_run(out, 1)
    cut = dataclasses.replace(record, manifest=dict(record.manifest, diverged_at=501),
                              states=record.states[:100], diverged_at=501)
    artifacts.save_run(out, 1, cut, run_hash)
    steps_per_s = _read_json(os.path.join(out, "timings.json"))["steps_per_s"]
    read = []
    real_read_json = artifacts.read_json
    monkeypatch.setattr(artifacts, "read_json",
                        lambda path: read.append(path) or real_read_json(path))

    assert cli.main(["compare", "--config", cfg, "--out", out]) == 0
    shown = capsys.readouterr().out
    assert f"  health: 1 replicate(s) used, 1 diverged, {steps_per_s:.0f} steps/s\n" in shown
    assert "were excluded" not in shown
    assert _read_json(os.path.join(out, "comparison.json"))["diverged_replicates"] == 1

    # --quiet reads nothing extra; without timings.json the rate is left out
    read.clear()
    assert cli.main(["compare", "--config", cfg, "--out", out, "--quiet"]) == 0
    assert not any(path.endswith("timings.json") for path in read)
    os.remove(os.path.join(out, "timings.json"))
    capsys.readouterr()
    assert cli.main(["compare", "--config", cfg, "--out", out]) == 0
    assert "  health: 1 replicate(s) used, 1 diverged\n" in capsys.readouterr().out


def test_simulate_times_its_set_up_and_compare_prints_it(tmp_path, capsys):
    cfg = _write(tmp_path, "run.ini", BASE_INI.replace("epochs = 20", "epochs = 1"))
    common = ["--config", cfg, "--out", str(tmp_path / "out")]
    assert cli.main(["predict", *common, "--quiet"]) == 0
    assert cli.main(["simulate", *common, "--threads", "1", "--quiet"]) == 0
    timings = _read_json(str(tmp_path / "out" / "timings.json"))
    assert timings["setup_seconds"] >= 0.0
    # steps/s is the engine's rate: the trace writing is timed apart
    assert timings["write_seconds"] > 0.0
    assert timings["steps_per_s"] == timings["steps"] / timings["simulate_seconds"]
    assert cli.main(["compare", *common]) == 0
    lines = capsys.readouterr().out.splitlines()
    health = next(i for i, line in enumerate(lines) if line.startswith("  health: "))
    assert lines[health + 1] == f"          set-up {timings['setup_seconds']:.3g} s before simulating"
    assert lines[health + 2] == (
        f"          traces written in {timings['write_seconds']:.3g} s after simulating")


def test_compare_summary_prints_iterate_average_norms(tmp_path, capsys):
    ini = BASE_INI.replace("epochs = 20", "epochs = 2").replace(
        "replicates = 2", "replicates = 30"
    )
    cfg = _write(tmp_path, "run.ini", ini)
    out = str(tmp_path / "out")
    assert cli.main(["predict", "--config", cfg, "--out", out, "--quiet"]) == 0
    assert cli.main(
        ["simulate", "--config", cfg, "--out", out, "--threads", "1", "--quiet"]
    ) == 0
    assert cli.main(["compare", "--config", cfg, "--out", out]) == 0
    lines = capsys.readouterr().out.splitlines()
    block = _read_json(os.path.join(out, "comparison.json"))["averages"]["2"]
    emp = f"{np.linalg.norm(block['empirical_cov']):.4g}"
    pred = f"{np.linalg.norm(block['predicted_cov']):.4g}"
    err = f"{block['comparison']['rel_frobenius_error']:.3f}"
    header = next(line for line in lines if "quantity" in line)
    row = next(line for line in lines if "iterate-average cov (m=2)" in line)
    assert row.split()[-3:] == [emp, pred, err]
    # the numbers sit under their column heads, as in the stationary row
    assert row.index(emp) == header.index("empirical")
    assert row.index(pred, row.index(emp) + len(emp)) == header.index("predicted")


def test_compare_writes_and_reports_drift_flags(tmp_path, capsys):
    cfg = _write(tmp_path, "run.ini", BASE_INI.replace("replicates = 2", "replicates = 1"))
    out = str(tmp_path / "out")
    assert cli.main(["predict", "--config", cfg, "--out", out, "--quiet"]) == 0
    assert cli.main(
        ["simulate", "--config", cfg, "--out", out, "--threads", "1", "--quiet"]
    ) == 0
    record, run_hash = artifacts.load_run(out, 0)
    # the replicate's trace replaced by white noise, then by the same noise
    # plus a trend of ten standard deviations across the run
    noise = 0.01 * np.random.default_rng(0).standard_normal(record.states.shape)
    ramp = np.linspace(0.0, 0.1, record.states.shape[0])[:, None]
    for states, flagged in ((noise, False), (noise + ramp, True)):
        trace = dataclasses.replace(record, states=record.theta_hat + states)
        artifacts.save_run(out, 0, trace, run_hash)
        assert cli.main(["compare", "--config", cfg, "--out", out]) == 0
        assert ("split-half mean drift" in capsys.readouterr().out) is flagged
        mixing = _read_json(os.path.join(out, "comparison.json"))["mixing"]
        assert any(mixing["drift_flags"]) is flagged
        assert len(mixing["drift_flags"]) == 3


@pytest.mark.parametrize(
    "execution, blocks",
    [
        ({"epochs": 20.0, "replicates": 1}, ("stationary", "mixing")),
        # each replicate too short for a mixing time; pooled, long enough for
        # a stationary covariance, and long enough to average
        ({"epochs": 0.5, "replicates": 40}, ("stationary", "trace_note", "averages")),
    ],
)
def test_compare_runs_is_the_body_of_comparison_json(tmp_path, execution, blocks):
    tree = dict(BASE_TREE, execution=dict(BASE_TREE["execution"], **execution))
    out = str(tmp_path)
    assert cli.cmd_predict(tree, out, quiet=True) == 0
    assert cli.cmd_simulate(tree, out, threads=1, quiet=True) == 0
    assert cli.cmd_compare(tree, out, quiet=True) == 0

    setup = config.resolve_setup(tree)
    records = engine.run_replicates(
        setup.model, setup.data, setup.cfg, setup.replicates,
        n_steps=setup.n_steps, theta_hat=setup.mle_theta, init=None,
        recording=engine.RecordingPlan(thin=setup.thin, average_start=setup.average_start),
    )
    result = diagnostics.compare_runs(
        records, cli._prediction_report(setup), setup.burnin_fraction
    )
    assert all(result[block] for block in blocks)
    path = os.path.join(out, "comparison.json")
    written = _read_json(path)
    head = {key: written[key] for key in
            ("config_hash", "data_hash", "replicates_used", "diverged_replicates")}
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == artifacts.json_text({**head, **result})


def test_compare_runs_raises_on_a_manifest_without_a_key_it_reads():
    # only a trace too short or constant becomes trace_note; a run manifest
    # read back without batch_size (read through steps_per_epoch) is an error
    setup = config.resolve_setup(BASE_TREE)
    records = engine.run_replicates(
        setup.model, setup.data, setup.cfg, setup.replicates,
        n_steps=setup.n_steps, theta_hat=setup.mle_theta,
        recording=engine.RecordingPlan(thin=setup.thin),
    )
    report = cli._prediction_report(setup)
    assert diagnostics.compare_runs(records, report, setup.burnin_fraction)["mixing"]
    for record in records:
        stale = {key: value for key, value in record.manifest.items() if key != "batch_size"}
        record.manifest = artifacts._Artifact("manifest_000.json", stale)
    with pytest.raises(sgalab.errors.DataError, match="manifest_000.json: no key 'batch_size'"):
        diagnostics.compare_runs(records, report, setup.burnin_fraction)


def test_stationary_block_pools_short_replicates_about_their_grand_mean(tmp_path, capsys):
    # 200 replicates of 4 epochs from the predicted law, d = 2, 18 kept rows
    # each; the predicted mixing time is 1 epoch.  Centring each run on its
    # own mean biases it low by about tau/T; pooling about the grand mean
    # does not.  Over run seeds 0 to 15000 in steps of 1000 the pooled error
    # read 0.20-1.16 Monte Carlo scales (15 of 16 within one) and the per-run
    # one 2.5-4.0.
    tree = {
        "model": {"family": "gaussian_location", "n": 100, "d": 2, "data_seed": 7},
        "tuning": {"frak_h": 1.0, "frak_b": 0.0, "c_h": 4.0, "c_b": 1.0,
                   "gamma": "jhat_inv", "lambda": "jhat_inv"},
        "execution": {"epochs": 4.0, "seed": 0, "replicates": 200, "thin": 20,
                      "init": "stationary"},
        "prediction": {"m_values": []},
    }
    out = str(tmp_path)
    assert cli.cmd_predict(tree, out, quiet=True) == 0
    assert cli.cmd_simulate(tree, out, threads=1, quiet=True) == 0
    capsys.readouterr()
    assert cli.cmd_compare(tree, out) == 0
    assert "the runs started from the predicted law" in capsys.readouterr().out
    comparison = _read_json(os.path.join(out, "comparison.json"))

    setup = config.resolve_setup(tree)
    n, cfg = setup.n, setup.cfg
    m, c = oracles.gaussian_sgd_recursion(setup.data.records, setup.model.params["weights"],
                                          cfg.gamma, cfg.step_size(n), cfg.batch_size(n))
    exact = n * oracles.exact_linear_stationary_cov(m, c)  # rescaled by sqrt(n)

    alive, _ = cli._usable_runs(out, 200, setup.hash, setup.data.digest)
    kept = [r.rescaled_states()[2:] for r in alive]  # 20 rows, burn-in fraction 0.1
    assert {len(k) for k in kept} == {18}
    per_run = np.mean([np.cov(k, rowvar=False) for k in kept], axis=0)
    pooled = np.asarray(comparison["empirical_cov"])
    assert np.array_equal(pooled, np.cov(np.concatenate(kept), rowvar=False))

    # Monte Carlo scale of the relative Frobenius error: N effective draws,
    # kept epochs over the predicted autocorrelation time in epochs
    epochs_iact = _read_json(os.path.join(out, "predictions.json"))["report"]["mixing"][
        "epochs_iact"]
    n_eff = 200 * 18 * setup.thin / alive[0].steps_per_epoch / epochs_iact
    norm = np.linalg.norm(exact)
    scale = np.sqrt((norm ** 2 + np.trace(exact) ** 2) / n_eff) / norm
    assert np.linalg.norm(pooled - exact) / norm <= scale
    assert np.linalg.norm(per_run - exact) / norm >= 2 * scale
    # each replicate alone is too short for a mixing time
    assert comparison["mixing"] is None
    assert "one run's mixing time" in comparison["trace_note"]


def test_compare_notes_a_coordinate_pinned_by_the_box(tmp_path):
    # boundary_hi pins theta_2 at -5 for the whole run: an exactly constant
    # trace whose mean rounds off its value
    tree = {
        "model": {"family": "gaussian_location", "n": 50, "d": 2},
        "tuning": {"gamma": "identity", "c_h": 4.0,
                   "boundary_lo": [-10.0, -10.0], "boundary_hi": [10.0, -5.0]},
        "execution": {"epochs": 40.0, "init": "zero"},
    }
    out = str(tmp_path)
    assert cli.cmd_predict(tree, out, quiet=True) == 0
    assert cli.cmd_simulate(tree, out, threads=1, quiet=True) == 0
    assert cli.cmd_compare(tree, out, quiet=True) == 0
    comparison = _read_json(os.path.join(out, "comparison.json"))
    assert comparison["mixing"] is None
    assert "series is constant" in comparison["trace_note"]
    assert not os.path.exists(os.path.join(out, "acf_000.csv"))


def test_compare_table_keeps_a_space_after_a_full_width_label(capsys):
    # exp2's window of 4 epochs prints as m=3.999, filling the label column
    label = "iterate-average cov (m=3.999)"
    assert len(label) == 29
    cli._table_row(label, 0.123456, 0.1, 0.05)
    cli._table_row("stationary cov (Frobenius)", 0.123456, 0.1, 0.05)
    full, short = capsys.readouterr().out.splitlines()
    assert full == f"  {label} 0.1235       0.1          0.050"
    # a shorter label's numbers sit in the same columns
    assert short.index("0.1235") == full.index("0.1235")
    assert short.index("0.1 ") == full.index("0.1 ")
    # a longer one still keeps its space, pushing the numbers right
    cli._table_row(label + "99", 0.123456, 0.1, 0.05)
    assert capsys.readouterr().out.startswith(f"  {label}99 0.1235 ")


def test_compare_prints_a_constant_coordinate_as_its_mixing_row(tmp_path, capsys):
    rows = np.random.default_rng(4).standard_normal((100, 2))
    rows[:, 1] = 0.3
    data = str(tmp_path / "data.csv")
    oracles.save_csv(data, rows)
    cfg = _write(
        tmp_path, "csv.ini",
        f"[model]\nfamily = gaussian_location\nsource = csv\npath = {data}\n"
        "columns = 2\n\n[tuning]\nc_h = 4.0\n\n[execution]\nepochs = 20\n",
    )
    common = ["--config", cfg, "--out", str(tmp_path / "out")]
    assert cli.main(["predict", *common, "--quiet"]) == 0
    assert cli.main(["simulate", *common, "--threads", "1", "--quiet"]) == 0
    assert cli.main(["compare", *common]) == 0
    lines = capsys.readouterr().out.splitlines()
    comparison = _read_json(str(tmp_path / "out" / "comparison.json"))
    assert comparison["stationary"] is not None and comparison["mixing"] is None
    note = comparison["trace_note"]
    assert "series is constant" in note
    first = next(k for k, line in enumerate(lines) if "stationary cov (Frobenius)" in line)
    assert lines[first + 1] == f"  {'mixing time (epochs)':<29}{note}"
    assert not (tmp_path / "out" / "acf_000.csv").exists()


def test_acf_files_are_named_by_replicate_and_removed_by_simulate(tmp_path):
    # a step size at which 7 of 8 Poisson chains diverge: only replicate 3
    # runs to the end, so compare has one ACF file to write
    tree = {
        "model": {"family": "poisson", "n": 200, "d": 3, "data_seed": 4,
                  "covariate_scales": [3.0, 3.0]},
        "tuning": {"c_h": 24.0},
        "execution": {"epochs": 20.0, "replicates": 8},
    }
    out = str(tmp_path)

    def acf_names():
        return sorted(name for name in os.listdir(out) if name.startswith("acf_"))

    assert cli.cmd_predict(tree, out, quiet=True) == 0
    assert cli.cmd_simulate(tree, out, threads=1, quiet=True) == cli.EXIT_DIVERGED
    alive = [r for r in range(8) if artifacts.load_run(out, r)[0].diverged_at is None]
    assert alive == [3]
    assert cli.cmd_compare(tree, out, quiet=True) == 0
    assert acf_names() == ["acf_003.csv"]
    record, _ = artifacts.load_run(out, 3)
    table = np.loadtxt(artifacts.acf_path(out, 3), delimiter=",", skiprows=1)
    for j, column in enumerate(record.rescaled_states().T):
        want = diagnostics.autocorrelation(column, cli.ACF_MAX_LAG)
        np.testing.assert_array_equal(table[:, 1 + j], want)
    # a simulate replaces every trace an ACF file describes
    assert cli.cmd_simulate(tree, out, threads=1, quiet=True) == cli.EXIT_DIVERGED
    assert acf_names() == []


def test_run_manifests_of_one_simulate_differ_only_in_per_replicate_fields(tmp_path):
    # a run manifest holds its replicate's own facts plus the run's scalar
    # constants and digests; no shared block (such as the resolved tuning,
    # written once in predictions.json) is repeated per replicate
    tree = {
        "model": {"family": "poisson", "n": 200, "d": 3, "data_seed": 4,
                  "covariate_scales": [3.0, 3.0]},
        "tuning": {"c_h": 24.0},
        "execution": {"epochs": 20.0, "replicates": 8, "init": "overdispersed:2"},
    }
    out = str(tmp_path)
    assert cli.cmd_simulate(tree, out, threads=1, quiet=True) == cli.EXIT_DIVERGED

    def fields(index):
        payload = _read_json(artifacts.run_manifest_path(out, index))
        run = payload.pop("run")
        return {**payload, **{f"run.{key}": value for key, value in run.items()}}

    per_replicate = {"run.seed", "run.init_state", "avg_state", "final_state", "diverged",
                     "run.diverged_at", "wall_time"}
    shared = {"config_hash", "run.tuning_hash", "run.data_hash", "run.n", "run.dim",
              "run.state_dim", "run.n_steps", "run.thin", "run.avg_window", "run.theta_hat",
              "run.local_exponent", "run.step_size", "run.batch_size",
              "run.inverse_temperature"}
    manifests = [fields(r) for r in range(8)]
    assert {m["diverged"] for m in manifests} == {True, False}
    for other in manifests[1:]:
        assert other.keys() == per_replicate | shared
        assert {key: other[key] for key in shared} == {key: manifests[0][key] for key in shared}
        assert other["run.seed"] != manifests[0]["run.seed"]
        assert other["run.init_state"] != manifests[0]["run.init_state"]


def test_artifacts_are_byte_identical_across_reruns(tmp_path):
    cfg = _write(tmp_path, "run.ini", BASE_INI + "\n[recommend]\ntarget = bagged\n")
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    for out in (out_a, out_b):
        assert cli.main(["predict", "--config", cfg, "--out", out, "--quiet"]) == 0
        assert cli.main(
            ["simulate", "--config", cfg, "--out", out, "--threads", "1", "--quiet"]
        ) == 0
        assert cli.main(["compare", "--config", cfg, "--out", out, "--quiet"]) == 0
        assert cli.main(["tune", "--config", cfg, "--out", out, "--quiet"]) == 0

    fixed = [
        "predictions.json",
        "trace_000.csv",
        "trace_001.csv",
        "comparison.json",
        "acf_000.csv",
        "manifest.json",
        "recommendation.json",
    ]
    for name in fixed:
        a = open(os.path.join(out_a, name), "rb").read()
        b = open(os.path.join(out_b, name), "rb").read()
        assert a == b, f"{name} differs between identical runs"
    # run manifests agree except for the wall-time field
    for name in ("manifest_000.json", "manifest_001.json"):
        a = _read_json(os.path.join(out_a, name))
        b = _read_json(os.path.join(out_b, name))
        a.pop("wall_time")
        b.pop("wall_time")
        assert a == b


def test_thread_count_does_not_change_results(tmp_path):
    many = BASE_INI.replace("replicates = 2", "replicates = 4").replace(
        "epochs = 20", "epochs = 5"
    )
    cfg = _write(tmp_path, "run.ini", many)
    out_1 = str(tmp_path / "t1")
    out_2 = str(tmp_path / "t2")
    assert cli.main(
        ["simulate", "--config", cfg, "--out", out_1, "--threads", "1", "--quiet"]
    ) == 0
    assert cli.main(
        ["simulate", "--config", cfg, "--out", out_2, "--threads", "2", "--quiet"]
    ) == 0
    for r in range(4):
        a = open(os.path.join(out_1, f"trace_{r:03d}.csv"), "rb").read()
        b = open(os.path.join(out_2, f"trace_{r:03d}.csv"), "rb").read()
        assert a == b


def test_default_threads_run_few_replicates_in_process(tmp_path, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started for 2 replicates")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    cfg = _write(tmp_path, "run.ini", BASE_INI)
    out = str(tmp_path / "out")
    assert cli.main(["simulate", "--config", cfg, "--out", out, "--quiet"]) == 0
    assert oracles.trace_indices(out) == [0, 1]


def test_stationary_init_is_solved_once_per_simulate(tmp_path, monkeypatch):
    five = BASE_INI.replace("replicates = 2", "replicates = 5").replace(
        "init = mle", "init = stationary"
    ).replace("epochs = 20", "epochs = 1")
    cfg = _write(tmp_path, "run.ini", five)
    calls = []
    solve = linalg.solve_lyapunov

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(linalg, "solve_lyapunov", counted)
    assert cli.main(
        ["simulate", "--config", cfg, "--out", str(tmp_path / "out"),
         "--threads", "1", "--quiet"]
    ) == 0
    assert len(calls) == 1


def test_each_command_hashes_its_dataset_once(tmp_path, monkeypatch):
    cfg = _write(tmp_path, "run.ini", BASE_INI.replace("epochs = 20", "epochs = 1"))
    out = str(tmp_path / "out")
    calls = []
    for module, name in ((config, "generate"), (config, "fit_mle"), (models, "dataset_hash")):
        def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    for command, extra in (("predict", []), ("simulate", ["--threads", "1"]),
                           ("compare", [])):
        assert cli.main([command, "--config", cfg, "--out", out, "--quiet", *extra]) == 0
    # one process: the three commands share one build, fit and digest
    assert calls == ["generate", "fit_mle", "dataset_hash"]
    # the command manifests and the run manifests carry one digest
    manifest = _read_json(os.path.join(out, "manifest.json"))
    assert manifest["data_hash"] == _read_json(
        os.path.join(out, "comparison.json"))["data_hash"]
    assert manifest["data_hash"] == _read_json(
        os.path.join(out, "manifest_000.json"))["run"]["data_hash"]


def _count_fits(monkeypatch) -> list:
    fits = []
    fit_mle = config.fit_mle
    monkeypatch.setattr(config, "fit_mle", lambda *args: fits.append(1) or fit_mle(*args))
    return fits


def test_trees_sharing_a_synthetic_model_section_share_one_fit(monkeypatch):
    config.resolve_setup(BASE_TREE)
    # a fit made before fit_mle was replaced is not reused: the replacement runs
    fits = _count_fits(monkeypatch)
    first = config.resolve_setup(BASE_TREE)
    assert len(fits) == 1
    other = json.loads(json.dumps(BASE_TREE))
    other["tuning"].update(c_h=2.0, gamma="identity")
    other["execution"].update(seed=3, replicates=5, epochs=4.0)
    second = config.resolve_setup(other)
    assert len(fits) == 1
    assert second.data is first.data and second.info is first.info
    assert second.cfg.c_h == 2.0 and second.cfg.gamma is None and second.n_steps != first.n_steps
    # another [model] section replaces the kept fit; going back fits again
    reseeded = json.loads(json.dumps(BASE_TREE))
    reseeded["model"]["data_seed"] = 6
    config.resolve_setup(reseeded)
    config.resolve_setup(BASE_TREE)
    assert len(fits) == 3 and len(config._FITTED) == 1


def test_a_changed_data_seed_refits_and_writes_another_data_hash(tmp_path, monkeypatch):
    fits = _count_fits(monkeypatch)
    hashes = []
    for seed in (5, 6):
        cfg = _write(tmp_path, f"run{seed}.ini",
                     BASE_INI.replace("data_seed = 5", f"data_seed = {seed}"))
        out = str(tmp_path / f"out{seed}")
        assert cli.main(["predict", "--config", cfg, "--out", out, "--quiet"]) == 0
        hashes.append(_read_json(os.path.join(out, "predictions.json"))["data_hash"])
    assert len(fits) == 2 and hashes[0] != hashes[1]


def test_csv_data_is_read_again_by_each_command(tmp_path, monkeypatch):
    fits = _count_fits(monkeypatch)
    data = str(tmp_path / "data.csv")
    cfg = _write(tmp_path, "csv.ini",
                 f"[model]\nfamily = gaussian_location\nsource = csv\npath = {data}\n"
                 "columns = 2\n\n[tuning]\nc_h = 4.0\n\n[execution]\nepochs = 5\n")
    out = str(tmp_path / "out")
    hashes = []
    for seed in (1, 2):  # the file is rewritten between two predicts of one process
        oracles.save_csv(data, np.random.default_rng(seed).standard_normal((60, 2)))
        assert cli.main(["predict", "--config", cfg, "--out", out, "--quiet"]) == 0
        hashes.append(_read_json(os.path.join(out, "predictions.json"))["data_hash"])
    assert len(fits) == 2 and hashes[0] != hashes[1]
    assert config._FITTED == {}


def test_a_kept_fit_is_read_only():
    setup = config.resolve_setup(BASE_TREE)
    truth = config.resolve_setup(dict(BASE_TREE, prediction={"matrices": "truth"}))
    for array in (setup.data.records, setup.mle_theta, setup.info.j_mat, setup.info.i_mat,
                  truth.prediction_info.j_mat, truth.prediction_info.i_mat):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
    # the next command reads what the first one was given
    again = config.resolve_setup(BASE_TREE)
    assert again.data.digest == setup.data.digest
    assert again.mle_theta is setup.mle_theta


def test_seed_and_replicates_come_from_the_config_only(tmp_path, capsys):
    cfg = _write(tmp_path, "run.ini", BASE_INI)
    common = ["--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]
    assert cli.main(["predict", *common]) == 0
    for flag, value in (("--seed", "3"), ("--replicates", "2")):
        assert cli.main(["simulate", *common, "--threads", "1", flag, value]) == 1
        assert flag in capsys.readouterr().err
    assert cli.main(["simulate", *common, "--threads", "1"]) == 0
    assert cli.main(["compare", *common]) == 0


@pytest.mark.parametrize("argv", [
    ["simulate", "--threads", "0"],
    ["simulate", "--threads", "-3"],
    ["experiment", "exp1", "--threads", "-1", "--scale", "0.06", "--epochs", "5"],
], ids=["simulate-zero", "simulate-negative", "experiment-negative"])
def test_threads_below_one_is_usage_error_before_any_work(tmp_path, capsys, argv):
    out = str(tmp_path / "out")
    if argv[0] == "simulate":
        argv = [*argv, "--config", _write(tmp_path, "run.ini", BASE_INI)]
    assert cli.main([*argv, "--out", out, "--quiet"]) == 1
    assert "--threads" in capsys.readouterr().err
    assert not os.path.exists(out)


# ------------------------------------------------------------- error paths


def test_compare_refuses_mismatched_artifacts(tmp_path, capsys):
    cfg = _write(tmp_path, "run.ini", BASE_INI)
    out = str(tmp_path / "out")
    assert cli.main(["predict", "--config", cfg, "--out", out, "--quiet"]) == 0
    assert cli.main(
        ["simulate", "--config", cfg, "--out", out, "--threads", "1", "--quiet"]
    ) == 0
    other = _write(tmp_path, "other.ini", BASE_INI.replace("c_h = 4.0", "c_h = 2.0"))
    # predictions hash mismatch is caught first
    assert cli.main(["compare", "--config", other, "--out", out, "--quiet"]) == 4
    assert "config hash" in capsys.readouterr().err
    # refreshing predictions exposes the stale traces next
    assert cli.main(["predict", "--config", other, "--out", out, "--quiet"]) == 0
    assert cli.main(["compare", "--config", other, "--out", out, "--quiet"]) == 4
    assert "trace" in capsys.readouterr().err


def test_editing_recommend_keeps_predictions_and_traces_comparable(tmp_path):
    # only tune reads [recommend], so the config hash leaves it out
    cfg = _write(tmp_path, "run.ini", BASE_INI + "\n[recommend]\ntarget = bagged\n")
    common = ["--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]
    assert cli.main(["predict", *common]) == 0
    assert cli.main(["simulate", *common, "--threads", "1"]) == 0
    _write(tmp_path, "run.ini", BASE_INI + "\n[recommend]\ntarget = local_fiducial\n")
    assert cli.main(["compare", *common]) == 0


def test_editing_burnin_fraction_reruns_only_compare(tmp_path, capsys):
    # only compare reads [execution] burnin_fraction, so the config hash leaves
    # it out; thin shapes the traces and stays in
    cfg = _write(tmp_path, "run.ini", BASE_INI)
    out = str(tmp_path / "out")
    common = ["--config", cfg, "--out", out, "--quiet"]
    assert cli.main(["predict", *common]) == 0
    assert cli.main(["simulate", *common, "--threads", "1"]) == 0
    errors = []
    for burnin in ("0.2", "0.3"):
        _write(tmp_path, "run.ini", BASE_INI.replace("burnin_fraction = 0.2",
                                                      f"burnin_fraction = {burnin}"))
        assert cli.main(["compare", *common]) == 0
        comparison = _read_json(os.path.join(out, "comparison.json"))
        errors.append(comparison["stationary"]["rel_frobenius_error"])
    assert errors[0] != errors[1]
    _write(tmp_path, "run.ini", BASE_INI.replace("thin = 5", "thin = 4"))
    capsys.readouterr()
    assert cli.main(["compare", *common]) == 4
    assert "config hash" in capsys.readouterr().err


def test_compare_refuses_predictions_from_other_data(tmp_path, capsys):
    # a csv config names its file, not the file's contents
    rows = np.random.default_rng(4).standard_normal((100, 2))
    data = str(tmp_path / "data.csv")
    oracles.save_csv(data, rows)
    ini = (
        f"[model]\nfamily = gaussian_location\nsource = csv\npath = {data}\n"
        "columns = 2\n\n[tuning]\nc_h = 4.0\n\n[execution]\nepochs = 5\n"
    )
    cfg = _write(tmp_path, "csv.ini", ini)
    common = ["--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]
    assert cli.main(["predict", *common]) == 0
    rows[:, 1] += 0.5
    oracles.save_csv(data, rows)
    assert cli.main(["simulate", *common, "--threads", "1"]) == 0
    assert cli.main(["compare", *common]) == 4
    assert "predictions.json was produced from different data" in capsys.readouterr().err


def test_resimulate_with_fewer_replicates_clears_stale_traces(tmp_path):
    three = _write(tmp_path, "three.ini", BASE_INI.replace("replicates = 2", "replicates = 3"))
    one = _write(tmp_path, "one.ini", BASE_INI.replace("replicates = 2", "replicates = 1"))
    out = str(tmp_path / "out")
    assert cli.main(
        ["simulate", "--config", three, "--out", out, "--threads", "1", "--quiet"]
    ) == 0
    assert oracles.trace_indices(out) == [0, 1, 2]
    assert cli.main(["predict", "--config", one, "--out", out, "--quiet"]) == 0
    assert cli.main(
        ["simulate", "--config", one, "--out", out, "--threads", "1", "--quiet"]
    ) == 0
    assert oracles.trace_indices(out) == [0]
    for name in ("manifest_001.json", "manifest_002.json"):
        assert not os.path.exists(os.path.join(out, name)), name
    assert cli.main(["compare", "--config", one, "--out", out, "--quiet"]) == 0


def test_compare_without_traces_is_mismatch(tmp_path, capsys):
    cfg = _write(tmp_path, "run.ini", BASE_INI)
    out = str(tmp_path / "out")
    assert cli.main(["predict", "--config", cfg, "--out", out, "--quiet"]) == 0
    assert cli.main(["compare", "--config", cfg, "--out", out, "--quiet"]) == 4
    assert "run the simulate command first" in capsys.readouterr().err


def _cut_bytes(path, keep):
    with open(path, "rb") as fh:
        data = fh.read()
    with open(path, "wb") as fh:
        fh.write(data[:keep(data)])


@pytest.mark.parametrize("name, keep, code", [
    ("predictions.json", lambda data: 100, 1),
    ("manifest_001.json", lambda data: 100, 1),
    # whole lines: 20 rows of the 800 the manifest implies
    ("trace_000.csv", lambda data: len(b"".join(data.splitlines(True)[:21])), 1),
    # every row kept, the last value cut mid-digit
    ("trace_000.csv", lambda data: len(data) - 4, 1),
    ("manifest_001.json", None, 4),
    # a middle replicate's trace: never a comparison of one replicate fewer
    ("trace_001.csv", None, 4),
], ids=["predictions-json", "run-manifest", "trace-rows", "trace-last-value", "missing-manifest",
        "missing-trace"])
def test_cut_artifact_fails_compare_naming_the_file(tmp_path, capsys, name, keep, code):
    cfg = _write(tmp_path, "run.ini", BASE_INI)
    out = str(tmp_path / "out")
    assert cli.main(["predict", "--config", cfg, "--out", out, "--quiet"]) == 0
    assert cli.main(
        ["simulate", "--config", cfg, "--out", out, "--threads", "1", "--quiet"]
    ) == 0
    path = os.path.join(out, name)
    if keep is None:
        os.remove(path)
    else:
        _cut_bytes(path, keep)
    capsys.readouterr()
    assert cli.main(["compare", "--config", cfg, "--out", out, "--quiet"]) == code
    assert path in capsys.readouterr().err


@pytest.mark.parametrize("name, block, keys", [
    # a run manifest as written before it held its seed and tuning hash
    ("manifest_000.json", "run", ("tuning_hash", "seed")),
    # read first by the mixing time, whose short-trace note must not hide it
    ("manifest_000.json", "run", ("batch_size",)),
    ("predictions.json", None, ("config_hash",)),
], ids=["run-manifest", "run-manifest-batch-size", "predictions-json"])
def test_stale_artifact_fails_compare_naming_the_file_and_key(tmp_path, name, block, keys):
    cfg = _write(tmp_path, "run.ini", BASE_INI)
    out = str(tmp_path / "out")
    assert cli.main(["predict", "--config", cfg, "--out", out, "--quiet"]) == 0
    assert cli.main(
        ["simulate", "--config", cfg, "--out", out, "--threads", "1", "--quiet"]
    ) == 0
    path = os.path.join(out, name)
    payload = _read_json(path)
    for key in keys:
        del (payload[block] if block else payload)[key]
    with open(path, "w") as fh:
        json.dump(payload, fh)
    proc = _fresh_process(["-m", "sgalab", "compare", "--config", cfg, "--out", out, "--quiet"])
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert path in proc.stderr and any(repr(key) in proc.stderr for key in keys)


def test_predict_out_of_regime_average_request(tmp_path, capsys):
    cold = BASE_INI.replace(
        "frak_h = 1.0", "frak_h = 1.0\nfrak_t = 0.5\nc_beta = 1.0"
    )
    cfg = _write(tmp_path, "cold.ini", cold)
    out = str(tmp_path / "out")
    assert cli.main(["predict", "--config", cfg, "--out", out, "--quiet"]) == 2
    assert "frak_t" in capsys.readouterr().err


@pytest.mark.parametrize("tuning, init", [
    ({"variant": "momentum"}, "mle"),
    ({"variant": "control_variate", "frak_t": 1.0, "c_beta": 2.0}, "zero"),
], ids=["momentum", "control_variate"])
def test_default_m_values_leave_predict_simulate_compare_working(tmp_path, capsys, tuning,
                                                                 init):
    # iterate averages are predicted for the plain variant only: the default
    # m_values report theirs as unavailable instead of failing predict
    tree = dict(BASE_TREE, tuning=dict(BASE_TREE["tuning"], **tuning),
                execution=dict(BASE_TREE["execution"], init=init))
    del tree["prediction"]
    cfg = _write(tmp_path, "run.json", json.dumps(tree))
    out = str(tmp_path / "out")
    assert cli.main(["predict", "--config", cfg, "--out", out]) == 0
    assert "iterate average at m=8: unavailable" in capsys.readouterr().out
    assert _read_json(os.path.join(out, "predictions.json"))["report"]["averages"] == {}
    assert cli.main(["simulate", "--config", cfg, "--out", out, "--threads", "1",
                     "--quiet"]) == 0
    assert cli.main(["compare", "--config", cfg, "--out", out, "--quiet"]) == 0


def test_simulate_divergence_exit_code_and_partial_trace(tmp_path, capsys):
    wild = BASE_INI.replace("c_h = 4.0", "c_h = 1.0e8").replace(
        "epochs = 20", "epochs = 1"
    ).replace("replicates = 2", "replicates = 1").replace("thin = 5", "thin = 1")
    cfg = _write(tmp_path, "wild.ini", wild)
    out = str(tmp_path / "out")
    assert cli.main(
        ["simulate", "--config", cfg, "--out", out, "--threads", "1"]
    ) == 5
    assert "DIVERGED" in capsys.readouterr().out
    run0 = _read_json(os.path.join(out, "manifest_000.json"))
    assert run0["diverged"] is True
    assert run0["run"]["diverged_at"] >= 1
    # executed steps: a diverged replicate counts up to its divergence step
    timings = _read_json(os.path.join(out, "timings.json"))
    assert timings["steps"] == run0["run"]["diverged_at"]
    assert timings["steps_per_s"] > 0


def test_unstable_drift_exits_3_with_its_label(tmp_path, capsys):
    # unpreconditioned, a near-flat direction (weight 1e-7) and a tiny step
    # constant put B's smallest eigenvalue, 1e-13, inside the Hurwitz margin
    ini = (BASE_INI.replace("d = 3", "d = 2\nweights = 1e-7 1")
           .replace("c_h = 4.0", "c_h = 1e-6").replace("jhat_inv", "identity"))
    cfg = _write(tmp_path, "flat.ini", ini)
    assert cli.main(["predict", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 3
    assert capsys.readouterr().err.startswith("stability error: no stationary covariance")


def test_compare_with_every_replicate_diverged_exits_5(tmp_path, capsys):
    wild = BASE_INI.replace("c_h = 4.0", "c_h = 1.0e8").replace("epochs = 20", "epochs = 1")
    cfg = _write(tmp_path, "wild.ini", wild)
    out = str(tmp_path / "out")
    assert cli.main(["predict", "--config", cfg, "--out", out, "--quiet"]) == 0
    assert cli.main(["simulate", "--config", cfg, "--out", out, "--threads", "1",
                     "--quiet"]) == 5
    capsys.readouterr()
    assert cli.main(["compare", "--config", cfg, "--out", out, "--quiet"]) == 5
    assert capsys.readouterr().err == "divergence: all replicates diverged; nothing to compare\n"


def test_tune_writes_recommendation(tmp_path):
    ini = BASE_INI + "\n[recommend]\ntarget = bagged\n"
    cfg = _write(tmp_path, "tune.ini", ini)
    out = str(tmp_path / "out")
    assert cli.main(["tune", "--config", cfg, "--out", out, "--quiet"]) == 0
    rec = _read_json(os.path.join(out, "recommendation.json"))
    assert rec["target"] == "bagged"
    assert rec["closure_residual"] <= 1e-9
    assert rec["recommended_config"]["c_beta"] == 2.0
    assert rec["batch_size"] >= 1
    # an unreachable target exits with the regime code
    bad = BASE_INI + "\n[recommend]\ntarget = posterior\nfamily = sgld\n"
    cfg2 = _write(tmp_path, "tune2.ini", bad)
    assert cli.main(["tune", "--config", cfg2, "--out", out, "--quiet"]) == 2


def test_missing_recommend_section_is_usage_error(tmp_path, capsys):
    cfg = _write(tmp_path, "run.ini", BASE_INI)
    assert cli.main(["tune", "--config", cfg, "--quiet"]) == 1
    assert "target" in capsys.readouterr().err


# ------------------------------------------------------- artifact fidelity


def test_run_artifacts_round_trip_exactly(tmp_path):
    model, data, _ = models.generate_gaussian(50, 2, seed=3)
    cfg = TuningConfig(frak_h=1.0, c_h=2.0, frak_b=0.0, c_b=1.0,
                       frak_t=1.0, c_beta=1.0, seed=77)
    record = engine.run(
        model, data, cfg, n_steps=40, theta_hat=np.zeros(2),
        recording=engine.RecordingPlan(thin=3, average_start=10),
    )
    artifacts.save_run(str(tmp_path), 0, record, "f" * 64)
    loaded, run_hash = artifacts.load_run(str(tmp_path), 0)
    assert run_hash == "f" * 64
    assert np.array_equal(loaded.states, record.states)
    assert np.array_equal(loaded.avg_state, record.avg_state)
    assert np.array_equal(loaded.final_state, record.final_state)
    assert loaded.thin == 3
    assert loaded.avg_window == record.avg_window
    assert loaded.diverged_at is None
    assert loaded.manifest["data_hash"] == record.manifest["data_hash"]
    # the trace is each value printed with FLOAT_FMT, awkward values included
    record.states[:5] = [[-0.0, 1e-300], [1.2e16, 5e-324], [np.pi, -1.7976931348623157e308],
                         [np.nan, np.inf], [-np.inf, 1.7976931348623157e308]]
    artifacts.save_run(str(tmp_path), 1, record, "f" * 64)
    fmt = artifacts.FLOAT_FMT
    want = ["step,epoch,theta_1,theta_2"] + [
        ",".join([str(step), fmt % (step / 50.0)] + [fmt % v for v in row])
        for step, row in zip(record.step_numbers(), record.states)
    ]
    with open(artifacts.trace_path(str(tmp_path), 1), encoding="utf-8", newline="") as fh:
        assert fh.read() == "\n".join(want) + "\n"
    reloaded, _ = artifacts.load_run(str(tmp_path), 1)
    assert np.array_equal(reloaded.states, record.states, equal_nan=True)
    assert np.array_equal(np.signbit(reloaded.states), np.signbit(record.states))


def test_reloaded_runs_of_a_noiseless_tree_pool_with_fresh_ones(tmp_path):
    # the resolved tuning is written once, in predictions.json, which spells
    # the infinite temperature "inf"; a run manifest carries its digest, so a
    # reloaded record and the engine's are one tree
    tree = {"model": {"family": "gaussian_location", "n": 40, "d": 2, "data_seed": 111},
            "tuning": {"frak_h": 1.0, "c_h": 1.0}, "execution": {"steps": 20, "seed": 3}}
    assert cli.cmd_predict(tree, str(tmp_path), quiet=True) == cli.EXIT_OK
    with open(tmp_path / "predictions.json", encoding="utf-8") as fh:
        assert '"frak_t": "inf"' in fh.read()
    model, data, truth = models.generate_gaussian(40, 2, seed=111)
    cfg = TuningConfig(frak_h=1.0, c_h=1.0, seed=3)
    assert not cfg.has_noise
    runs = engine.run_replicates(model, data, cfg, 31, n_steps=20, theta_hat=truth.theta_star)
    for r, run in enumerate(runs):
        artifacts.save_run(str(tmp_path), r, run, "hash")
    with open(artifacts.run_manifest_path(str(tmp_path), 0), encoding="utf-8") as fh:
        assert '"frak_t"' not in fh.read()
    loaded = [artifacts.load_run(str(tmp_path), r)[0] for r in range(31)]
    assert [rec.manifest["seed"] for rec in loaded] == list(range(3, 34))
    assert [rec.manifest["tuning_hash"] for rec in loaded] == [
        rec.manifest["tuning_hash"] for rec in runs]
    assert [rec.manifest for rec in loaded] == [rec.manifest for rec in runs]
    mixed, _ = diagnostics.replicate_avg_cov(runs[:15] + loaded[15:])
    assert np.array_equal(mixed, diagnostics.replicate_avg_cov(loaded)[0])


AWKWARD = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1.7976931348623157e308,
           -1.7976931348623157e308, 0.1]


def _table_rows(kind: str, width: int, lead: int) -> np.ndarray:
    """Value rows of a table with ``lead`` integer or epoch columns before ``width`` values."""
    if kind == "empty":
        return np.empty((0, width))
    if kind == "one-row":
        return np.array([AWKWARD[:width]])
    if kind == "several-chunks":
        # several write blocks, magnitudes across the double range
        rows = 3 * (artifacts._BLOCK_VALUES // width) + 17
    else:  # one block just below or just at the size from which the kernel prints it
        cut = artifacts._KERNEL_MIN_VALUES
        rows = (cut - 1) // (width + lead) if kind == "below-cut" else -(-cut // (width + lead))
    rng = np.random.default_rng(4)
    shape = (rows, width)
    rows = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    rows[:len(AWKWARD)] = np.resize(AWKWARD, (len(AWKWARD), width))
    return rows


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("kind", ["empty", "one-row", "below-cut", "above-cut", "several-chunks"])
@pytest.mark.parametrize("momentum", [False, True], ids=["plain", "momentum"])
def test_trace_and_acf_bytes_match_savetxt(tmp_path, kind, momentum):
    model, data, _ = models.generate_gaussian(50, 2, seed=3)
    variant = {"variant": MOMENTUM, "frak_t": np.inf} if momentum else {}
    cfg = TuningConfig(frak_h=1.0, c_h=2.0, frak_b=0.0, c_b=1.0, seed=5, **variant)
    base = engine.run(model, data, cfg, n_steps=6, theta_hat=np.zeros(2),
                      recording=engine.RecordingPlan(thin=3))
    record = dataclasses.replace(base, states=_table_rows(kind, base.state_dim, 2))
    out = str(tmp_path)
    artifacts.save_run(out, 0, record, "f" * 64)
    steps = record.step_numbers()
    names = ["theta_1", "theta_2"] + (["mom_1", "mom_2"] if momentum else [])
    oracles.savetxt_table(
        str(tmp_path / "want_trace.csv"), ",".join(["step", "epoch"] + names), steps,
        np.column_stack([steps / (record.n / record.manifest["batch_size"]), record.states]),
    )
    assert _read_bytes(artifacts.trace_path(out, 0)) == _read_bytes(str(tmp_path / "want_trace.csv"))

    rhos = _table_rows(kind, 3, 1)
    artifacts.save_acf(out, 0, rhos)
    oracles.savetxt_table(str(tmp_path / "want_acf.csv"), "lag,coord_0,coord_1,coord_2",
                          np.arange(len(rhos)), rhos)
    assert _read_bytes(artifacts.acf_path(out, 0)) == _read_bytes(str(tmp_path / "want_acf.csv"))


def _near_halves() -> list[float]:
    """Doubles x whose scaled |x| * 10**(16 - X) lies within 4e-15 of a half-integer.

    For X = -9, -10 the scaled value is m * 5**k / 2**s, and for X = 39, 40
    it is m * 2**t / 5**-k (k = 16 - X, x = m * 2**e); each x is solved for
    a residue of m next to the half.  At these X the tabled power of ten or
    its product with x is inexact.
    """
    found = []
    for exp10, e in [(exp10, e) for exp10 in (-9, -10) for e in range(-90, -70)]:
        s = exp10 - 16 - e
        inv = pow(5 ** (16 - exp10), -1, 2**s)
        for j in range(-40, 41):
            m = (2 ** (s - 1) + j) * inv % 2**s
            m += -(-(2**52 - m) // 2**s) * 2**s if m < 2**52 else 0
            found.append((exp10, math.ldexp(m, e) if m < 2**53 else 0.0))
    for exp10, e in [(exp10, e) for exp10 in (39, 40) for e in range(70, 90)]:
        five = 5 ** (exp10 - 16)
        inv = pow(2 ** (e - exp10 + 16), -1, five)
        for j in range(-40, 41):
            m = ((five - 1) // 2 + j) * inv % five
            found.append((exp10, math.ldexp(m, e) if 2**52 <= m < 2**53 else 0.0))
    return [x for exp10, x in found if x and math.floor(math.log10(x)) == exp10]


def _exact_ties(rng) -> list[float]:
    """Doubles m * 2**-j whose exact decimal expansion has 18 significant digits, the last a 5."""
    odd = rng.integers(1, 2**53, 4000) | 1
    dyadic = np.ldexp(odd.astype(np.float64), -rng.integers(1, 30, 4000))
    ties = [x for x in dyadic.tolist() if len(decimal.Decimal(x).as_tuple().digits) == 18]
    assert len(ties) > 50
    return ties


def _kernel_inputs(rng) -> np.ndarray:
    """Every class of value but random bits that the table kernel must print as ``%.17g`` does."""
    normal = rng.standard_normal((300, 100)) * 10.0 ** np.linspace(-320, 300, 300)[:, None]
    tens = np.array([float(f"1e{k}") for k in range(-30, 31)])
    edges = np.array([1e-5, 1e-4, 1e16, 1e17])
    edges = np.concatenate([edges * np.array([1 - 1e-12, 1 + 1e-12])[:, None], edges[None]])
    # the doubles nearest 10**k and just below them; 13 of the former lie so
    # little below 10**k that 17 digits round up to "1e..."
    powers = [float(f"1e{k}") for k in range(-300, 301)]
    assert sum(decimal.Decimal(x) < decimal.Decimal(10) ** k and ("%.17g" % x).startswith("1e")
               for k, x in zip(range(-300, 301), powers)) == 13
    special = [0.0, -0.0, struct.unpack("<d", struct.pack("<Q", 0xFFF8_0000_0000_1234))[0],
               np.inf, -np.inf, 5e-324, -1e-310, 2.2250738585072009e-308, 2.2250738585072014e-308,
               1e-300, 1.7976931348623157e308]
    signs = np.array([1.0, -1.0])
    parts = [
        normal.ravel(), signs[:, None] * tens,
        np.nextafter(tens, np.inf), np.nextafter(tens, -np.inf), edges.ravel() * signs[:, None],
        np.outer(signs, powers), np.outer(signs, np.nextafter(powers, 0)),
        np.outer(signs, _exact_ties(rng)), np.outer(signs, _near_halves()), special,
    ]
    return np.concatenate([np.ravel(part) for part in parts])


def _percent_lines(block: np.ndarray) -> bytes:
    row = ",".join(["%d"] + ["%.17g"] * (block.shape[1] - 1)) + "\n"
    return "".join(row % tuple(line) for line in block.tolist()).encode("ascii")


def test_table_kernel_prints_every_value_as_percent_does():
    rng = np.random.default_rng(37)
    bits = rng.integers(0, 2**64, 10**6, dtype=np.uint64, endpoint=False).view(np.float64)
    bits = bits[np.isfinite(bits)]
    others = _kernel_inputs(rng)
    for part, width in enumerate([1, 2, 12, 27]):
        # a quarter of the random bit patterns at each width
        values = np.concatenate([bits[part::4], others])
        rows = -(-len(values) // width)
        first = rng.integers(0, 2**53, rows, endpoint=True).astype(np.float64)
        # the last: "%d" of it is longer than a slot, so its block goes through "%"
        first[:5], first[-1] = [0, 2**53, 2**53 - 1, -5, 2.5], 1e30
        table = np.column_stack([first, np.resize(values, (rows, width))])
        step = artifacts._BLOCK_VALUES // (width + 1)
        for start in range(0, rows, step):
            block = table[start : start + step]
            got = artifacts._kernel_text(block).split(b"\n")
            want = _percent_lines(block).split(b"\n")
            if got != want:
                line = next(i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1])
                raise AssertionError(f"width {width}, row {start + line}:"
                                     f" {got[line]!r} != {want[line]!r}")


def test_table_kernel_leaves_values_next_to_a_rounding_tie_to_percent(monkeypatch):
    # the scaled value of each is within 4e-15 of a half-integer, where the
    # double-double product cannot certify the rounding: "%" must print it
    near = _exact_ties(np.random.default_rng(5)) + _near_halves()
    plain = [0.1, 1.5, 2.0 / 3.0, 1e-7 / 3.0, 1e40 / 3.0]
    block = np.column_stack([np.arange(1, len(near) + len(plain) + 1), near + plain])
    monkeypatch.setattr(artifacts, "FLOAT_FMT", "<%.17g>")
    printed = [line.split(b",")[1] for line in artifacts._kernel_text(block).splitlines()]
    assert all(text.startswith(b"<") for text in printed[: len(near)])
    assert not any(text.startswith(b"<") for text in printed[len(near) :])


def test_non_finite_numbers_map_to_strings_on_every_route(tmp_path):
    def reject(token):
        raise AssertionError(f"bare {token} in JSON")

    def decoded(value):
        return json.loads(artifacts.json_text(value), parse_constant=reject)

    for value, text in [(np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf")]:
        routes = [value, np.float64(value), np.float32(value)]
        assert [decoded(v) for v in routes] == [text] * len(routes)
        assert decoded(np.array([value, 1.5])) == [text, 1.5]
    path = str(tmp_path / "m.json")
    artifacts.write_json(path, {"a": np.float64(np.nan), "b": [np.float32(-np.inf)],
                                "c": np.int64(3), "d": np.float64(0.25)})
    with open(path, encoding="utf-8") as fh:
        assert json.load(fh, parse_constant=reject) == {"a": "nan", "b": ["-inf"], "c": 3, "d": 0.25}


@pytest.fixture(scope="module")
def command_payloads(tmp_path_factory):
    """Every payload predict, simulate, compare and tune hand to the JSON writers."""
    tmp = tmp_path_factory.mktemp("payloads")
    cfg = _write(tmp, "run.ini", BASE_INI + "\n[recommend]\ntarget = bagged\n")
    out = str(tmp / "out")
    seen = {}

    def capturing(write):
        def capture(path, payload):
            seen.setdefault(os.path.basename(path), payload)
            write(path, payload)
        return capture

    with pytest.MonkeyPatch.context() as mp:
        for name in ("write_json", "write_json_in_place"):
            mp.setattr(artifacts, name, capturing(getattr(artifacts, name)))
        for command in ("predict", "simulate", "compare", "tune"):
            assert cli.main([command, "--config", cfg, "--out", out, "--quiet",
                             *(["--threads", "1"] if command == "simulate" else [])]) == 0
    return seen


_DENSE = np.random.default_rng(18).standard_normal((40, 40))

ENCODER_CASES = {
    "empty-containers": {"a": {}, "b": [], "c": (), "d": [{}, [], ()]},
    "nested-tuples": ((1, 2.5), (("x", None), ()), [(True, False)]),
    "array-0d": np.array(2.5),
    "array-2d": np.arange(6.0).reshape(2, 3) / 7.0,
    "array-3d": np.arange(24, dtype=np.int64).reshape(2, 3, 4),
    "array-non-finite": np.array([[np.nan, 1.0], [np.inf, -np.inf]]),
    "array-float32": np.array([0.1, -np.inf], dtype=np.float32),
    "array-bool": np.array([[True, False]]),
    "numpy-scalars": [np.float32(0.1), np.float64(-2.5), np.int64(-7), np.float64(np.nan),
                      np.float32(np.inf)],
    "bools-and-null": {"t": True, "f": False, "n": None, "rows": [True, 1, 1.0]},
    "awkward-floats": [-0.0, 5e-324, 1e16, 1.7976931348623157e308,
                       -1.7976931348623157e308, 0.1, 1e-7, 123456789.0],
    "float-rows-beside-others": [[0.5, 1.5], [0.5, "x"], [0.5, np.float64(1.5)], [1, 2.0]],
    "non-ascii": {"θ₁ naïve": ["Ωμέγα", "tab\tquote\"back\\slash", "\u2028", "😀\x00"]},
    "int-and-float-keys": {1: "one", 2.5: [1.0], -0.0: {}, 10: 3, "b": None, "1": "last"},
    "scalar": 3.25,
    # 2-D float64 arrays take the route that formats each distinct value once
    "matrix-symmetric-40": _DENSE + _DENSE.T,
    "matrix-signed-zeros": np.array([[0.0, -0.0], [-0.0, 0.0]]),
    "matrix-mixed-zeros": np.array([[0.0, -0.0, 1.5], [-0.0, 1.5, 0.0], [2.0, -0.0, -0.0]]),
    "matrix-extremes": np.array([[5e-324, -5e-324, 1e-310],
                                 [1.7976931348623157e308, -1.7976931348623157e308, 5e-324]]),
    "matrix-transposed": (np.arange(12.0).reshape(3, 4) / 7.0).T,
    "matrix-strided": _DENSE[::2, 1::3],
    "matrix-1x1": np.array([[0.1]]),
    "matrix-0x3": np.empty((0, 3)),
    "matrix-3x0": np.empty((3, 0)),
    "matrix-one-nan": np.array([[1.0, np.nan], [0.5, 1.0]]),
    "matrix-float32": np.array([[0.1, -0.0], [1e-40, 3.0]], dtype=np.float32),
    "matrix-big-endian": np.array([[0.1, -0.0], [2.5, 0.1]], dtype=">f8"),
}


PAYLOADS = ["predictions.json", "manifest_000.json", "comparison.json", "recommendation.json"]


@pytest.mark.parametrize("case", sorted(ENCODER_CASES) + PAYLOADS)
def test_json_text_matches_json_dumps_route(request, case):
    if case in ENCODER_CASES:
        value = ENCODER_CASES[case]
    else:
        value = request.getfixturevalue("command_payloads")[case]
    assert artifacts.json_text(value) == oracles.json_dumps_artifact(value)


@pytest.mark.parametrize("value", [np.bool_(True), {1, 2}, 1j, object(), {"k": [b"x"]}],
                         ids=["np-bool", "set", "complex", "object", "nested-bytes"])
def test_json_text_rejects_what_json_dumps_rejects(value):
    with pytest.raises(TypeError):
        oracles.json_dumps_artifact(value)
    with pytest.raises(TypeError, match="not JSON serializable"):
        artifacts.json_text(value)


def test_failed_json_write_leaves_the_previous_file(tmp_path):
    cfg = _write(tmp_path, "run.ini", BASE_INI)
    out = str(tmp_path / "out")
    assert cli.main(["predict", "--config", cfg, "--out", out, "--quiet"]) == 0
    path = os.path.join(out, "predictions.json")
    before = _read_bytes(path)
    with pytest.raises(TypeError, match="not JSON serializable"):
        artifacts.write_json(path, {"law": {"q_inf": {1, 2}}})
    assert _read_bytes(path) == before
    assert not [name for name in os.listdir(out) if name.endswith(".tmp")]


def test_json_writes_leave_no_temp_file(tmp_path):
    # a run killed mid-write leaves ``<name>.tmp``; the next write replaces it
    cfg = _write(tmp_path, "run.ini", BASE_INI)
    out = tmp_path / "out"
    out.mkdir()
    for name in ("predictions.json", "manifest.json", "comparison.json"):
        (out / (name + ".tmp")).write_text('{"cut')
    assert cli.main(["predict", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert cli.main(["simulate", "--config", cfg, "--out", str(out), "--threads", "1",
                     "--quiet"]) == 0
    assert cli.main(["compare", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert not [path.name for path in out.iterdir() if path.name.endswith(".tmp")]
    for name in ("predictions.json", "manifest.json", "comparison.json", "manifest_000.json"):
        assert _read_json(str(out / name))


def test_simulate_rerun_rewrites_run_manifests_in_place(tmp_path):
    # a rename makes a new file per manifest, which made re-runs much slower
    cfg = _write(tmp_path, "run.ini", BASE_INI)
    out = tmp_path / "out"
    args = ["simulate", "--config", cfg, "--out", str(out), "--threads", "1", "--quiet"]
    assert cli.main(args) == 0
    inodes = {name: os.stat(out / name).st_ino for name in ("manifest_000.json", "manifest.json")}
    assert cli.main(args) == 0
    assert os.stat(out / "manifest_000.json").st_ino == inodes["manifest_000.json"]
    assert os.stat(out / "manifest.json").st_ino != inodes["manifest.json"]


def test_json_write_that_fails_on_disk_leaves_no_temp_file(tmp_path):
    # the rename over a directory fails after the temp file is written
    target = tmp_path / "predictions.json"
    target.mkdir()
    with pytest.raises(OSError):
        artifacts.write_json(str(target), {"a": 1.0})
    assert sorted(path.name for path in tmp_path.iterdir()) == ["predictions.json"]


def test_header_only_trace_loads_without_warning(tmp_path):
    # a run that diverges before its first kept step leaves no trace rows
    model, data, _ = models.generate_gaussian(20, 2, seed=17)
    cfg = TuningConfig(frak_h=0.0, c_h=1e9, frak_b=0.0, c_b=1.0, seed=0)
    with pytest.raises(DivergenceError) as info:
        engine.run(model, data, cfg, n_steps=50, init=np.ones(2),
                   recording=engine.RecordingPlan(thin=5))
    record = info.value.partial_record
    assert record.states.shape == (0, 2)
    artifacts.save_run(str(tmp_path), 0, record, "f" * 64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loaded, _ = artifacts.load_run(str(tmp_path), 0)
    assert loaded.states.shape == (0, 2)
    assert loaded.diverged_at == record.diverged_at


@pytest.mark.parametrize("edit", [
    lambda rows: [row.rsplit(b",", 1)[0] for row in rows],
    # the line count holds, the rows do not
    lambda rows: [b""] + rows[1:],
], ids=["a-column-short", "blank-row"])
def test_trace_of_the_wrong_shape_is_refused_naming_the_file(tmp_path, edit):
    model, data, _ = models.generate_gaussian(20, 2, seed=17)
    cfg = TuningConfig(frak_h=1.0, c_h=1.0, frak_b=0.0, c_b=1.0, seed=0)
    record = engine.run(model, data, cfg, n_steps=20, init=np.ones(2),
                        recording=engine.RecordingPlan(thin=2))
    artifacts.save_run(str(tmp_path), 0, record, "f" * 64)
    path = artifacts.trace_path(str(tmp_path), 0)
    with open(path, "rb") as fh:
        header, *rows = fh.read().splitlines()
    with open(path, "wb") as fh:
        fh.write(b"\n".join([header, *edit(rows)]) + b"\n")
    with pytest.raises(sgalab.DataError, match=re.escape(path)):
        artifacts.load_run(str(tmp_path), 0)


# ------------------------------------------------- traces kept in memory

# A Poisson tree at a step size where 7 of its 8 chains diverge part way
POISSON_DIVERGING = {
    "model": {"family": "poisson", "n": 200, "d": 3, "data_seed": 4,
              "covariate_scales": [3.0, 3.0]},
    "tuning": {"c_h": 24.0},
    "execution": {"epochs": 20.0, "replicates": 8},
}
MOMENTUM_TREE = dict(BASE_TREE, tuning=dict(BASE_TREE["tuning"], variant=MOMENTUM),
                     prediction={"t_grid": [0.5]})


def _count_parses(monkeypatch) -> list:
    """Patch ``np.loadtxt`` to record each file it parses; the list it appends to."""
    parsed, loadtxt = [], np.loadtxt
    monkeypatch.setattr(np, "loadtxt",
                        lambda fh, *args, **kwargs: parsed.append(fh.name) or loadtxt(
                            fh, *args, **kwargs))
    return parsed


def _compare_outputs(out):
    return {name: _read_bytes(os.path.join(out, name)) for name in sorted(os.listdir(out))
            if name == "comparison.json" or name.startswith("acf_")}


@pytest.mark.parametrize("tree", [BASE_TREE, MOMENTUM_TREE, POISSON_DIVERGING],
                         ids=["plain", "momentum", "diverged-replicates"])
def test_in_process_compare_reads_kept_traces_and_matches_a_fresh_interpreter(
        tmp_path, monkeypatch, tree):
    cfg = _write(tmp_path, "run.json", json.dumps(tree))
    out = str(tmp_path / "out")
    assert cli.main(["predict", "--config", cfg, "--out", out, "--quiet"]) == 0
    code = cli.main(["simulate", "--config", cfg, "--out", out, "--threads", "1", "--quiet"])
    assert code == (cli.EXIT_DIVERGED if tree is POISSON_DIVERGING else 0)
    parsed = _count_parses(monkeypatch)
    assert cli.main(["compare", "--config", cfg, "--out", out, "--quiet"]) == 0
    assert parsed == []
    in_process = _compare_outputs(out)
    assert "comparison.json" in in_process and any(name.startswith("acf_") for name in in_process)
    for name in in_process:
        os.remove(os.path.join(out, name))
    proc = _fresh_process(["-m", "sgalab", "compare", "--config", cfg, "--out", out, "--quiet"])
    assert proc.returncode == 0, proc.stderr
    assert _compare_outputs(out) == in_process


def test_each_simulate_forgets_the_traces_kept_before_it(tmp_path):
    for name in ("a", "b"):
        assert cli.cmd_simulate(BASE_TREE, str(tmp_path / name), threads=1, quiet=True) == 0
    assert sorted(artifacts._KEPT) == [
        os.path.abspath(artifacts.trace_path(str(tmp_path / "b"), r)) for r in range(2)]


def _edit_first_digit(token: bytes) -> bytes:
    """``token`` with its first nonzero digit changed: another number of the same length."""
    at = next(i for i, c in enumerate(token) if chr(c) in "123456789")
    return token[:at] + (b"3" if token[at:at + 1] == b"2" else b"2") + token[at + 1:]


def test_in_process_compare_sees_a_trace_edited_after_simulate(tmp_path, monkeypatch):
    cfg = _write(tmp_path, "run.json", json.dumps(BASE_TREE))
    out = str(tmp_path / "out")
    assert cli.main(["predict", "--config", cfg, "--out", out, "--quiet"]) == 0
    assert cli.main(["simulate", "--config", cfg, "--out", out, "--threads", "1", "--quiet"]) == 0
    path = artifacts.trace_path(out, 0)
    written = artifacts._KEPT[os.path.abspath(path)][1].copy()
    with open(path, "rb") as fh:
        lines = fh.read().splitlines(True)
    cells = lines[-1].split(b",")
    cells[2] = _edit_first_digit(cells[2])  # theta_1 of the last state row
    edited = b",".join(cells)
    assert len(edited) == len(lines[-1]) and edited != lines[-1]
    with open(path, "wb") as fh:
        fh.write(b"".join(lines[:-1] + [edited]))
    parsed = _count_parses(monkeypatch)
    assert cli.main(["compare", "--config", cfg, "--out", out, "--quiet"]) == 0
    assert parsed == [path]
    in_process = _compare_outputs(out)
    proc = _fresh_process(["-m", "sgalab", "compare", "--config", cfg, "--out", out, "--quiet"])
    assert proc.returncode == 0, proc.stderr
    assert _compare_outputs(out) == in_process
    loaded, _ = artifacts.load_run(out, 0)
    assert loaded.states[-1, 0] == float(cells[2]) != written[-1, 0]
    assert np.array_equal(loaded.states[:-1], written[:-1])


@pytest.mark.parametrize("keep", [
    lambda data: len(b"".join(data.splitlines(True)[:21])),  # whole lines
    lambda data: len(data) - 4,  # the last value cut mid-digit
], ids=["rows", "last-value"])
def test_kept_states_never_stand_in_for_a_cut_trace(tmp_path, capsys, monkeypatch, keep):
    out = str(tmp_path)
    assert cli.cmd_predict(BASE_TREE, out, quiet=True) == 0
    assert cli.cmd_simulate(BASE_TREE, out, threads=1, quiet=True) == 0
    path = artifacts.trace_path(out, 0)
    whole = _read_bytes(path)
    _cut_bytes(path, keep)
    assert cli.main(["compare", "--config", _write(tmp_path, "run.json", json.dumps(BASE_TREE)),
                     "--out", out, "--quiet"]) == 1
    assert path in capsys.readouterr().err
    # the written bytes back in place: the kept states are good again
    with open(path, "wb") as fh:
        fh.write(whole)
    parsed = _count_parses(monkeypatch)
    assert cli.cmd_compare(BASE_TREE, out, quiet=True) == 0
    assert parsed == []


def _gaussian_record(n_steps=40):
    model, data, _ = models.generate_gaussian(50, 2, seed=3)
    cfg = TuningConfig(frak_h=1.0, c_h=2.0, frak_b=0.0, c_b=1.0, frak_t=1.0, c_beta=1.0, seed=7)
    return engine.run(model, data, cfg, n_steps=n_steps, theta_hat=np.zeros(2),
                      recording=engine.RecordingPlan(thin=2))


def test_writing_into_a_saved_record_does_not_reach_load_run(tmp_path, monkeypatch):
    out = str(tmp_path)
    path = artifacts.trace_path(out, 0)
    record = _gaussian_record()
    parsed = _count_parses(monkeypatch)
    artifacts.save_run(out, 0, record, "f" * 64)
    first, _ = artifacts.load_run(out, 0)
    # the kept array itself, read-only: no parse and no copy
    assert parsed == [] and np.shares_memory(first.states, record.states)
    with pytest.raises(ValueError, match="read-only"):
        first.states[0, 0] = 1.0
    # looked up once: the next load parses
    again, _ = artifacts.load_run(out, 0)
    assert parsed == [path] and np.array_equal(again.states, record.states)
    # saved again, then written into before the load
    artifacts.save_run(out, 0, record, "f" * 64)
    written = record.states.copy()
    record.states[3, 1] = 123.0
    loaded, _ = artifacts.load_run(out, 0)
    assert parsed == [path, path]
    assert np.array_equal(loaded.states, written)


def test_non_finite_states_are_parsed_back(tmp_path, monkeypatch):
    # text has one nan, so a negative nan or a payload reads back as nan
    out = str(tmp_path)
    record = _gaussian_record()
    negative_nan = np.frombuffer(np.uint64(0xFFF8_0000_0000_0001).tobytes(), np.float64)[0]
    record.states[:3] = [[negative_nan, 1.0], [np.inf, -np.inf], [-0.0, 5e-324]]
    artifacts.save_run(out, 0, record, "f" * 64)
    path = artifacts.trace_path(out, 0)
    fresh = np.loadtxt(path, delimiter=",", skiprows=1)[:, 2:]
    parsed = _count_parses(monkeypatch)
    loaded, _ = artifacts.load_run(out, 0)
    assert parsed == [path]
    assert fresh.view(np.uint64).tolist() == loaded.states.view(np.uint64).tolist()
    assert np.signbit(record.states[0, 0]) and not np.signbit(loaded.states[0, 0])
    np.testing.assert_array_equal(loaded.states[1:], record.states[1:])


# -------------------------------------------------------------- experiment


def test_experiment_smoke_run(tmp_path, capsys):
    out = str(tmp_path / "exp")
    code = cli.main(
        [
            "experiment", "exp1",
            "--out", out,
            "--scale", "0.06",
            "--epochs", "5",
            "--seed", "0",
            "--threads", "2",
        ]
    )
    assert code == 0
    shown = capsys.readouterr().out
    summary = _read_json(os.path.join(out, "summary.json"))
    assert summary["experiment"] == "exp1"
    variants = summary["variants"]
    assert set(variants) == {
        "sgd", "jhat_sgd", "ihat_sgd", "jhat_sgld",
        "jhat_sgd_avg_m1", "jhat_sgd_avg_m8",
    }
    for name, entry in variants.items():
        assert "error" not in entry, f"{name}: {entry.get('error')}"
        assert entry["diverged"] is False
    # the replicated variants carry an iterate-average comparison and a
    # stationary one over their pooled rows, which the closing table prints
    # in its cov.err and avg.err columns; each replicate alone is too short
    # for a mixing time
    table = shown[shown.index("mixing times (epochs)"):].splitlines()
    assert table[1].split() == ["variant", "Emp.", "Pred.", "cov.err", "avg.err"]
    for name, key in (("jhat_sgd_avg_m8", "8"), ("jhat_sgd_avg_m1", "1")):
        avg = variants[name]["averages"][key]
        assert isinstance(avg, float)
        err = variants[name]["stationary_rel_error"]
        row = next(line for line in table if line.split()[:1] == [name])
        assert row.split()[1:] == ["short", "-", f"{err:.3f}", f"{avg:.3f}"]
    # a single chain averages nothing: - under avg.err
    row = next(line for line in table if line.split()[:1] == ["jhat_sgd"])
    assert variants["jhat_sgd"]["averages"] == {} and row.split()[-1] == "-"


def test_experiment_runs_through_the_commands_the_benchmark_clocks(tmp_path, monkeypatch):
    # perfbench/run.py times poisson-io's phases by wrapping these names, so
    # the experiment must reach its commands through them
    calls = collections.Counter()
    for name in ("cmd_predict", "cmd_simulate", "cmd_compare"):
        def counted(*args, _name=name, _command=getattr(cli, name), **kwargs):
            calls[_name] += 1
            return _command(*args, **kwargs)
        monkeypatch.setattr(cli, name, counted)
    assert cli.cmd_experiment("exp3-synthetic", str(tmp_path), scale=0.1, seed=1, threads=1,
                              epochs_override=2.0, quiet=True) == 0
    # sgd diverges, so it is not compared
    assert calls == {"cmd_predict": 3, "cmd_simulate": 3, "cmd_compare": 2}


def test_experiment_records_the_divergence_steps_of_its_run_manifests(tmp_path):
    assert cli.cmd_experiment("exp3-synthetic", str(tmp_path), scale=0.1, seed=1, threads=1,
                              epochs_override=2.0, quiet=True) == 0
    entry = _read_json(str(tmp_path / "summary.json"))["variants"]["sgd"]
    out = str(tmp_path / "sgd")
    replicates = _read_json(os.path.join(out, "manifest.json"))["replicates"]
    runs = [_read_json(artifacts.run_manifest_path(out, r))["run"] for r in range(replicates)]
    assert entry["diverged"] is True
    assert entry["diverged_at_steps"] == [run["diverged_at"] for run in runs]
    assert all(isinstance(step, int) for step in entry["diverged_at_steps"])


def test_experiment_exits_with_the_code_of_its_failed_variant(tmp_path, monkeypatch):
    # frak_h = 0 violates the regime, an error of code 2; exp3's sgd variant
    # diverges, which is recorded and does not count as a failure
    experiment_trees = cli.experiment_trees

    def trees(*args, **kwargs):
        found = experiment_trees(*args, **kwargs)
        dict(found)["jhat_sgd"]["tuning"]["frak_h"] = 0.0
        return found

    monkeypatch.setattr(cli, "experiment_trees", trees)
    out = str(tmp_path / "exp")
    assert cli.main(["experiment", "exp3-synthetic", "--out", out, "--scale", "0.1",
                     "--epochs", "2", "--seed", "1", "--threads", "1", "--quiet"]) == 2
    variants = _read_json(os.path.join(out, "summary.json"))["variants"]
    assert variants["jhat_sgd"]["error"].startswith("RegimeError: invalid regime")
    assert variants["sgd"]["diverged"] is True and "error" not in variants["sgd"]
    assert "error" not in variants["jhat_sgld"]


def _tree_bytes(root):
    return {os.path.relpath(os.path.join(top, name), root): _read_bytes(os.path.join(top, name))
            for top, _, names in os.walk(root) for name in names}


def test_experiment_refuses_a_root_holding_another_experiment(tmp_path, capsys):
    # exp1 and exp3-synthetic share the variants sgd and jhat_sgd
    out = str(tmp_path / "exp")
    exp3 = ["experiment", "exp3-synthetic", "--out", out, "--scale", "0.1", "--epochs", "2",
            "--seed", "1", "--threads", "1", "--quiet"]
    assert cli.main(exp3) == 0
    before = _tree_bytes(out)
    capsys.readouterr()
    assert cli.main(["experiment", "exp1", "--out", out, "--scale", "0.06", "--epochs", "2",
                     "--threads", "1", "--quiet"]) == ConfigError.exit_code == 1
    err = capsys.readouterr().err
    assert os.path.join(out, "summary.json") in err and "'exp3-synthetic'" in err
    assert _tree_bytes(out) == before
    # the same experiment again into its own root
    assert cli.main(exp3) == 0
    assert _read_json(os.path.join(out, "summary.json"))["experiment"] == "exp3-synthetic"


# ------------------------------------------------------------------- misc


def test_version_flag():
    with pytest.raises(SystemExit) as info:
        cli.main(["--version"])
    assert info.value.code == 0


def _fresh_process(argv, cwd=None):
    """Run ``python argv`` in a new interpreter that imports this checkout's sgalab."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], env=dict(os.environ, PYTHONPATH=path),
                          cwd=cwd, capture_output=True, text=True, timeout=60)


def _fresh_python(argv, cwd=None):
    """``_fresh_process`` that must exit 0: its standard output."""
    proc = _fresh_process(argv, cwd)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_python_dash_m_prints_version():
    assert _fresh_python(["-m", "sgalab", "--version"]).strip() == f"sgalab {sgalab.__version__}"


# scipy is only needed by the prediction half (Lyapunov solves and expm), so
# importing the package and simulating from an MLE start must not load it.
# Each check runs in a new interpreter, since this one has scipy loaded.
LOADED_SCIPY = 'sorted(m for m in sys.modules if m.split(".")[0] == "scipy")'


def test_import_loads_no_scipy():
    code = f"import json, sys; import sgalab; print(json.dumps({LOADED_SCIPY}))"
    assert json.loads(_fresh_python(["-c", code])) == []


def test_simulate_from_mle_loads_no_scipy(tmp_path):
    assert "init = mle" in BASE_INI
    _write(tmp_path, "run.ini", BASE_INI)
    code = (
        "import json, sys; from sgalab import cli; "
        'code = cli.main(["simulate", "--config", "run.ini", "--out", "out", "--quiet"]); '
        f'print(json.dumps({{"code": code, "scipy": {LOADED_SCIPY}}}))'
    )
    got = json.loads(_fresh_python(["-c", code], cwd=tmp_path))
    assert got == {"code": 0, "scipy": []}
    assert oracles.trace_indices(str(tmp_path / "out")) == [0, 1]


def test_first_solve_in_fresh_process_matches_in_process():
    rng = np.random.default_rng(61)
    m = rng.normal(size=(6, 6))
    b = m @ m.T + 6.0 * np.eye(6) + 0.3 * rng.normal(size=(6, 6))
    s = rng.normal(size=(6, 6))
    a, e = s @ s.T, -0.1 * b
    load = "np.frombuffer(bytes.fromhex({!r})).reshape(6, 6)".format
    code = (
        "import json, sys; import numpy as np; from sgalab import linalg; "
        f"b, a, e = {load(b.tobytes().hex())}, {load(a.tobytes().hex())}, {load(e.tobytes().hex())}; "
        'before = "scipy.linalg" in sys.modules; '
        "q, x = linalg.solve_lyapunov(b, a), linalg.expm(e); "
        'print(json.dumps([before, "scipy.linalg" in sys.modules, q.tobytes().hex(), x.tobytes().hex()]))'
    )
    before, after, q, x = json.loads(_fresh_python(["-c", code]))
    assert (before, after) == (False, True)
    assert q == linalg.solve_lyapunov(b, a).tobytes().hex()
    assert x == linalg.expm(e).tobytes().hex()


def test_every_exported_error_exits_with_a_code_the_readme_lists():
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme, encoding="utf-8") as fh:
        paragraph = re.search(r"^Exit codes:.*?(?=\n\n)", fh.read(), re.M | re.S).group()
    documented = {int(code) for code in re.findall(r"\b\d\b", paragraph)}
    assert documented == {0, 1, 2, 3, 4, 5}

    def error_classes(values):
        return {v for v in values if isinstance(v, type) and issubclass(v, sgalab.SgaLabError)}

    errors = error_classes(getattr(sgalab, name) for name in sgalab.__all__)
    # every class the errors module defines is exported, so the walk sees them all
    assert errors == error_classes(vars(sgalab.errors).values())
    for error in errors:
        assert error.exit_code in documented - {0}, error.__name__


def test_no_subcommand_is_usage_error(capsys):
    assert cli.main([]) == 1
    capsys.readouterr()
