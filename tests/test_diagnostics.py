"""Measurement layer: covariances from runs, autocorrelation, comparisons."""

import dataclasses
import json

import numpy as np
import pytest

import oracles
from sgalab import artifacts, diagnostics, engine, models, theory
from sgalab.diagnostics import (
    autocorrelation,
    compare,
    empirical_cov,
    iact,
    mixing_summary,
    replicate_avg_cov,
)
from sgalab.engine import RunRecord
from sgalab.errors import ArtifactMismatchError, DataError, DimensionError
from sgalab.tuning import TuningConfig


def _make_record(
    states,
    theta_hat,
    n=100,
    w=0.5,
    thin=1,
    avg_state=None,
    cfg_extra=None,
    data_hash="abc",
    n_steps=None,
):
    states = np.asarray(states, dtype=float)
    d = states.shape[1]
    config = {"c_h": 1.0, "c_b": 1.0, "frak_h": 1.0, "seed": 0}
    config.update(cfg_extra or {})
    seed = config.pop("seed")
    # the seed-less tuning stands in for its digest: equal exactly when the tunings are
    manifest = {"seed": seed, "tuning_hash": json.dumps(config, sort_keys=True),
                "data_hash": data_hash, "batch_size": 1}
    return RunRecord(
        manifest=manifest,
        states=states,
        thin=thin,
        init_state=states[0].copy(),
        final_state=states[-1].copy(),
        avg_state=None if avg_state is None else np.asarray(avg_state, float),
        avg_window=(0, states.shape[0]),
        theta_hat=np.asarray(theta_hat, float),
        local_exponent=w,
        n=n,
        dim=d,
        n_steps=states.shape[0] * thin if n_steps is None else n_steps,
    )


# -------------------------------------------------- autocorrelation / IACT


def test_iact_ar1_reference_value():
    # AR(1) with phi = 0.9 has integrated autocorrelation (1+phi)/(1-phi) = 19
    rng = np.random.default_rng(100)
    series = oracles.ar1_series(rng, 0.9, 200_000)
    tau = iact(series)
    assert abs(tau - 19.0) / 19.0 < 0.15


def test_iact_white_noise_short_circuit():
    # strict alternation has lag-1 correlation -1: truncation at lag zero
    series = np.tile([1.0, -1.0], 500)
    assert iact(series) == 1.0
    # iid noise sits near one without hitting it exactly
    rng = np.random.default_rng(101)
    tau = iact(rng.standard_normal(50_000))
    assert abs(tau - 1.0) < 0.2


def test_iact_error_cases():
    with pytest.raises(DataError, match="constant"):
        iact(np.ones(100))
    with pytest.raises(DataError, match="at least 8"):
        iact(np.arange(5.0))


def test_exactly_constant_series_is_constant_though_its_mean_rounds():
    # centring this series by its mean leaves rounding noise, not zeros
    series = np.full(2000, 0.1) * 7.071067811865476
    assert series.mean() != series[0]
    with pytest.raises(DataError, match="constant"):
        iact(series)
    with pytest.raises(DataError, match="constant"):
        autocorrelation(series)


def test_iact_warns_on_mean_drift():
    rng = np.random.default_rng(102)
    trending = np.linspace(0.0, 50.0, 5000) + rng.standard_normal(5000)
    with pytest.warns(UserWarning, match="drift"):
        iact(trending)


def test_autocorrelation_matches_direct_estimator():
    rng = np.random.default_rng(103)
    x = oracles.ar1_series(rng, 0.6, 4000)
    rho = autocorrelation(x, max_lag=20)
    assert rho.shape == (21,)
    assert rho[0] == pytest.approx(1.0)
    xc = x - x.mean()
    denom = np.sum(xc * xc) / x.size
    for lag in (1, 5, 20):
        direct = np.sum(xc[lag:] * xc[:-lag]) / x.size / denom
        assert rho[lag] == pytest.approx(direct, abs=1e-10)
    with pytest.raises(DataError):
        autocorrelation(np.array([1.0]))


# ------------------------------------------------------ empirical covariance


def test_empirical_cov_recovers_known_covariance():
    rng = np.random.default_rng(104)
    cov = np.array([[2.0, 0.7], [0.7, 1.0]])
    z = rng.multivariate_normal(np.zeros(2), cov, size=20_000)
    theta_hat = np.array([0.4, -0.1])
    n, w = 100, 0.5
    states = theta_hat + float(n) ** (-w) * z
    record = _make_record(states, theta_hat, n=n, w=w)
    got = empirical_cov(record, burnin_fraction=0.0)
    assert np.linalg.norm(got - cov) / np.linalg.norm(cov) < 0.05
    # and it is exactly the sample covariance of the rescaled trajectory
    assert np.array_equal(
        got, np.cov(record.rescaled_states(), rowvar=False, ddof=1)
    )


def test_empirical_cov_burnin_and_floors():
    rng = np.random.default_rng(105)
    states = rng.standard_normal((40, 2))
    record = _make_record(states, np.zeros(2))
    with pytest.raises(DataError, match="burnin_fraction"):
        empirical_cov(record, burnin_fraction=1.0)
    # 40 rows with half burn-in leaves 20 = 10 * dim: exactly at the floor
    empirical_cov(record, burnin_fraction=0.5)
    with pytest.raises(DataError, match="too few"):
        empirical_cov(record, burnin_fraction=0.6)
    # the burn-in split is floor(fraction * rows)
    got = empirical_cov(record, burnin_fraction=0.5)
    scale = 100.0**0.5
    assert np.array_equal(
        got, np.cov(scale * states[20:], rowvar=False, ddof=1)
    )


# ----------------------------------------------------------- mixing summary


def test_mixing_summary_epoch_conversion():
    rng = np.random.default_rng(106)
    z = np.column_stack(
        [
            oracles.ar1_series(rng, 0.9, 100_000),
            oracles.ar1_series(rng, 0.5, 100_000),
        ]
    )
    theta_hat = np.zeros(2)
    record = _make_record(0.1 * z, theta_hat, n=100, w=0.0, thin=2)
    summary = mixing_summary(record)
    assert not summary.rotated
    assert summary.worst_coordinate == 0
    # tau ~ 19 steps of the thinned chain, each 2 raw steps, 100 steps/epoch
    assert summary.worst_epochs == pytest.approx(19.0 * 2 / 100.0, rel=0.2)
    assert summary.epochs_per_coordinate.shape == (2,)
    assert not summary.drift_flags.any()


def test_mixing_summary_rotation_flag():
    rng = np.random.default_rng(107)
    states = 0.01 * rng.standard_normal((2000, 2))
    record = _make_record(states, np.zeros(2), n=100, w=0.5)
    real_drift = theory.ou_params(
        TuningConfig(frak_h=1.0, c_h=1.0, gamma=np.array([[2.0, 1.0], [0.0, 1.0]])),
        np.eye(2),
        np.eye(2),
    )
    assert mixing_summary(record, real_drift).rotated
    spiral = theory.ou_params(
        TuningConfig(frak_h=1.0, c_h=1.0, gamma=np.array([[1.0, -2.0], [2.0, 1.0]])),
        np.eye(2),
        np.eye(2),
    )
    assert not mixing_summary(record, spiral).rotated


def test_mixing_summary_decouples_rotated_coordinates():
    # two AR(1) chains mixed by the drift eigenbasis: rotation recovers them
    rng = np.random.default_rng(108)
    slow = oracles.ar1_series(rng, 0.95, 120_000)
    fast = oracles.ar1_series(rng, 0.2, 120_000)
    vecs = np.array([[1.0, 1.0], [0.0, 1.0]])  # eigenvectors of the drift
    j_mat = vecs @ np.diag([1.0, 3.0]) @ np.linalg.inv(vecs)
    ou = theory.ou_params(
        TuningConfig(frak_h=1.0, c_h=1.0), j_mat, np.eye(2)
    )
    z = np.column_stack([slow, fast])
    states = 0.1 * (z @ vecs.T)
    record = _make_record(states, np.zeros(2), n=100, w=0.0)
    summary = mixing_summary(record, ou)
    assert summary.rotated
    taus = np.sort(summary.epochs_per_coordinate) * 100.0  # back to steps
    assert taus[-1] == pytest.approx((1 + 0.95) / (1 - 0.95), rel=0.25)
    assert taus[0] < 3.0


# ----------------------------------------------- replicate average estimator


def _replicate_records(rng, count, cov, seed_config=None):
    theta_hat = np.array([1.0, -1.0])
    n, w = 400, 0.5
    out = []
    ys = rng.multivariate_normal(np.zeros(2), cov, size=count)
    for r in range(count):
        avg = theta_hat + float(n) ** (-w) * ys[r]
        states = np.tile(avg, (5, 1))
        cfg_extra = dict(seed_config or {})
        cfg_extra["seed"] = r
        rec = _make_record(
            states, theta_hat, n=n, w=w, avg_state=avg,
            cfg_extra=cfg_extra, n_steps=5,
        )
        out.append(rec)
    return out, ys


def test_replicate_avg_cov_matches_sample_covariance():
    rng = np.random.default_rng(109)
    cov = np.array([[1.5, -0.4], [-0.4, 0.8]])
    records, ys = _replicate_records(rng, 60, cov)
    got_cov, got_mean = replicate_avg_cov(records)
    rescaled = np.stack([r.rescaled_avg() for r in records])
    assert np.array_equal(got_cov, np.cov(rescaled, rowvar=False, ddof=1))
    assert np.allclose(got_mean, rescaled.mean(axis=0), atol=1e-15)
    assert np.linalg.norm(got_cov - cov) / np.linalg.norm(cov) < 0.35


def test_replicate_avg_cov_guards(tmp_path):
    rng = np.random.default_rng(110)
    cov = np.eye(2)
    records, _ = _replicate_records(rng, 29, cov)
    with pytest.raises(DataError, match="30"):
        replicate_avg_cov(records)
    records, _ = _replicate_records(rng, 31, cov)
    # differing seeds are fine; a differing step constant is not
    tampered, _ = _replicate_records(rng, 1, cov, seed_config={"c_h": 2.0})
    with pytest.raises(ArtifactMismatchError, match="different configurations"):
        replicate_avg_cov(records[:30] + tampered)

    # engine replicates reloaded from disk are one tree, also mixed with the
    # in-memory ones; a replicate whose gamma differs in one entry is not
    model, data, truth = models.generate_gaussian(40, 2, seed=111)
    gamma = np.array([[1.0, 0.2], [0.2, 0.5]])
    cfg = TuningConfig(frak_h=1.0, c_h=1.0, frak_t=1.0, c_beta=2.0, gamma=gamma, seed=3)
    runs = engine.run_replicates(model, data, cfg, 31, n_steps=20,
                                 theta_hat=truth.theta_star)
    for r, run in enumerate(runs):
        artifacts.save_run(str(tmp_path), r, run, "hash")
    loaded = [artifacts.load_run(str(tmp_path), r)[0] for r in range(31)]
    cov_loaded, _ = replicate_avg_cov(loaded)
    cov_mixed, _ = replicate_avg_cov(runs[:15] + loaded[15:])
    assert np.allclose(cov_loaded, cov_mixed)
    bent = gamma.copy()
    bent[0, 1] = 0.25
    (odd,) = engine.run_replicates(model, data, dataclasses.replace(cfg, gamma=bent, seed=40),
                                   1, n_steps=20, theta_hat=truth.theta_star)
    for tree in (loaded[:30], runs[:30]):
        with pytest.raises(ArtifactMismatchError, match="different configurations"):
            replicate_avg_cov(tree + [odd])


# ------------------------------------------------------------- comparisons


def test_compare_equal_matrices_zero_error():
    m = np.array([[1.0, 0.2], [0.2, 2.0]])
    report = compare(m, m.copy())
    assert report["rel_frobenius_error"] == 0.0
    assert report["frobenius_error"] == 0.0
    assert report["max_abs_error"] == 0.0
    # without standard errors the block carries no z-scores
    assert set(report) == {"frobenius_error", "rel_frobenius_error", "max_abs_error"}


def test_compare_known_difference_and_z_scores():
    predicted = np.diag([2.0, 2.0])
    empirical = predicted + np.array([[0.3, 0.0], [0.0, -0.4]])
    ses = np.full((2, 2), 0.1)
    report = compare(empirical, predicted, standard_errors=ses)
    assert report["frobenius_error"] == pytest.approx(np.hypot(0.3, 0.4))
    assert report["rel_frobenius_error"] == pytest.approx(
        np.hypot(0.3, 0.4) / np.linalg.norm(predicted)
    )
    assert report["max_abs_error"] == pytest.approx(0.4)
    assert report["z_scores"][0, 0] == pytest.approx(3.0)
    assert report["z_scores"][1, 1] == pytest.approx(-4.0)
    assert report["max_abs_z"] == pytest.approx(4.0)
    assert set(report) == {"frobenius_error", "rel_frobenius_error", "max_abs_error",
                           "z_scores", "max_abs_z"}
    # zero standard errors mark the entry as off-scale rather than dividing
    degenerate = compare(
        empirical, predicted, standard_errors=np.zeros((2, 2))
    )
    assert np.all(np.isinf(degenerate["z_scores"]))


def test_compare_validation():
    with pytest.raises(DimensionError, match="shape"):
        compare(np.eye(2), np.eye(3))
    with pytest.raises(DimensionError, match="zero"):
        compare(np.eye(2), np.zeros((2, 2)))
    with pytest.raises(DimensionError, match="standard errors"):
        compare(np.eye(2), np.eye(2), standard_errors=np.ones(3))
