"""Fitting and information-matrix checks."""

import warnings

import numpy as np
import pytest

import oracles
from sgalab import engine, inference, models
from sgalab.errors import NonConvergenceError
from sgalab.tuning import CONTROL_VARIATE, TuningConfig


def test_gaussian_mle_is_columnwise_mean():
    model, data, _ = models.generate_gaussian(200, d=4, seed=50)
    fit = inference.fit_mle(model, data)
    assert np.allclose(fit.theta_hat, data.records.mean(axis=0), atol=1e-12)
    assert fit.grad_norm < 1e-10


def test_poisson_mle_matches_coordinate_descent_oracle():
    model, data, _ = models.generate_poisson(400, 3, seed=51)
    fit = inference.fit_mle(model, data)
    slow = oracles.coordinate_descent_mle(model, data.records, np.zeros(3))
    assert np.max(np.abs(fit.theta_hat - slow)) < 1e-7


def test_logistic_mle_solves_score_equation():
    model, data, _ = models.generate_logistic(600, 4, seed=52)
    fit = inference.fit_mle(model, data)
    score = model.grad(fit.theta_hat, data.records).mean(axis=0)
    assert np.linalg.norm(score) < 1e-9


def test_mle_invariant_under_record_permutation():
    model, data, _ = models.generate_logistic(300, 3, seed=53)
    fit1 = inference.fit_mle(model, data)
    rng = np.random.default_rng(0)
    shuffled = models.Dataset(data.records[rng.permutation(data.n)])
    fit2 = inference.fit_mle(model, shuffled)
    assert np.allclose(fit1.theta_hat, fit2.theta_hat, atol=1e-9)


def test_separable_logistic_data_raises_with_hint():
    # responses perfectly split by the sign of the covariate: no finite MLE
    x = np.linspace(-2.0, 2.0, 40)
    records = np.column_stack([x, (x > 0).astype(float)])
    model = models.logistic_model(1)
    with pytest.raises(NonConvergenceError, match="infinity"):
        inference.fit_mle(model, models.Dataset(records))


def test_zero_inflated_poisson_recovers_pseudo_true():
    theta_star = np.array([0.3, 0.2, -0.1])
    model, data, _ = models.generate_poisson(
        60_000, 3, seed=54, theta_star=theta_star, zero_inflation=0.25
    )
    fit = inference.fit_mle(model, data)
    pseudo = np.asarray(data.provenance["pseudo_true"])
    assert np.max(np.abs(fit.theta_hat - pseudo)) < 0.05


def test_empirical_info_equals_naive_loops():
    model, data, _ = models.generate_logistic(250, 3, seed=55)
    fit = inference.fit_mle(model, data)
    info = inference.empirical_info(model, data, fit.theta_hat)
    scores = model.grad(fit.theta_hat, data.records)
    j_naive = -np.mean(oracles.per_record_hess(model, fit.theta_hat, data.records), axis=0)
    i_naive = scores.T @ scores / data.n
    assert np.allclose(info.j_mat, j_naive, atol=1e-12)
    assert np.allclose(info.i_mat, i_naive, atol=1e-12)
    sandwich_naive = np.linalg.solve(j_naive, i_naive) @ np.linalg.inv(j_naive)
    assert np.allclose(info.sandwich, sandwich_naive, atol=1e-10)


def test_gaussian_info_curvature_is_exact():
    # constant-curvature family: J-hat equals diag(weights) identically
    model, data, truth = models.generate_gaussian(80, d=5, seed=56)
    fit = inference.fit_mle(model, data)
    info = inference.empirical_info(model, data, fit.theta_hat)
    assert np.allclose(info.j_mat, truth.j_star, atol=1e-14)


def test_info_from_truth_wraps_matrices():
    rng = np.random.default_rng(57)
    j = oracles.random_spd(rng, 3)
    i = oracles.random_spd(rng, 3)
    info = inference.info_from_truth(np.zeros(3), j, i)
    assert np.array_equal(info.j_mat, j)
    assert np.array_equal(info.i_mat, i)
    want = np.linalg.solve(j, i) @ np.linalg.inv(j)
    assert np.allclose(info.sandwich, want, atol=1e-12)
    assert np.array_equal(info.theta_hat, np.zeros(3))


def test_information_equality_under_correct_specification():
    # data drawn from the fitted family itself: I = J, sandwich ~ J^-1
    model, data, _ = models.generate_logistic(120_000, 3, seed=58)
    fit = inference.fit_mle(model, data)
    info = inference.empirical_info(model, data, fit.theta_hat)
    rel = np.linalg.norm(info.i_mat - info.j_mat) / np.linalg.norm(info.j_mat)
    assert rel < 0.05
    inv_j = np.linalg.inv(info.j_mat)
    rel_s = np.linalg.norm(info.sandwich - inv_j) / np.linalg.norm(inv_j)
    assert rel_s < 0.1


def test_poisson_overflow_is_silenced_by_the_callers_not_the_model():
    # positive covariates, so overflowed rows give infinities of one sign
    # per column and no inf - inf; the rates of most rows overflow
    model, data, _ = models.generate_poisson(300, 3, seed=53)
    records = data.records.copy()
    records[:, :-1] = np.abs(records[:, :-1])
    theta = np.array([500.0, 300.0, 300.0])
    n = records.shape[0]
    with np.errstate(over="ignore"):
        grads = model.grad(theta, records)
        score = (0.0 + grads.sum(axis=0) + model.grad_prior(theta)) / n
        hessian = (0.0 + model.hess_mean(theta, records) * n) / n
        anchor_mean = grads.mean(axis=0)
    assert np.isinf(grads).any() and np.isfinite(grads).any()
    assert np.isinf(hessian).all()

    cfg = TuningConfig(frak_h=1.0, c_h=2.0, c_b=5.0, variant=CONTROL_VARIATE)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got_score = inference._mean_score(model, records, theta)
        got_hessian = inference._mean_hessian(model, records, theta)
        ctx = engine._build_context(model, records, cfg, n, theta)
    assert np.array_equal(got_score, score)
    assert np.array_equal(got_hessian, hessian)
    assert np.array_equal(ctx.anchor_grads, grads)
    assert np.array_equal(ctx.anchor_mean, anchor_mean)
