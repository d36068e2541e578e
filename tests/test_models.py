"""Model-family checks: derivatives, truth matrices, generators, CSV io."""

import math

import numpy as np
import pytest

import oracles
from sgalab import models
from sgalab.errors import DataError, DimensionError


def _family_cases(rng):
    gm, gd, _ = models.generate_gaussian(40, d=3, seed=1)
    lm, ld, _ = models.generate_logistic(60, 3, seed=2)
    pm, pd, _ = models.generate_poisson(60, 3, seed=3)
    return [
        (gm, gd.records, rng.normal(scale=0.3, size=3)),
        (lm, ld.records, rng.normal(scale=0.3, size=3)),
        (pm, pd.records, rng.normal(scale=0.2, size=3)),
    ]


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(40)
    for model, records, theta in _family_cases(rng):
        want = oracles.fd_gradient(
            lambda th: oracles.loglik(model, th, records).sum(), theta
        )
        got = model.grad(theta, records).sum(axis=0)
        scale = 1.0 + np.abs(want).max()
        assert np.max(np.abs(got - want)) / scale < 1e-6, model.family


def test_grad_with_leading_axes_equals_stacked_solo_calls():
    # the engine advances replicates as stacks; each slice must be the solo call
    rng = np.random.default_rng(45)
    gens = (models.generate_gaussian, models.generate_logistic, models.generate_poisson)
    for gen in gens:
        for p in (1, 4, 25):
            model, data, _ = gen(60, p, seed=p)
            for lead in ((1,), (3,), (2, 3)):
                for m in (1, 20):
                    thetas = rng.normal(scale=0.2, size=(*lead, p))
                    rows = data.records[rng.integers(0, 60, size=(*lead, m))]
                    got = model.grad(thetas, rows)
                    assert got.shape == (*lead, m, p)
                    for k in np.ndindex(*lead):
                        want = model.grad(thetas[k], rows[k])
                        assert np.array_equal(got[k], want), (model.family, p, lead, m)
                    assert model.grad_prior(thetas).shape == thetas.shape


def test_hessians_match_finite_differences():
    rng = np.random.default_rng(41)
    for model, records, theta in _family_cases(rng):
        want = oracles.fd_jacobian(
            lambda th: model.grad(th, records).sum(axis=0), theta
        )
        got = oracles.per_record_hess(model, theta, records).sum(axis=0)
        scale = 1.0 + np.abs(want).max()
        assert np.max(np.abs(got - want)) / scale < 1e-6, model.family


def test_hess_mean_equals_mean_of_per_record_hessians():
    rng = np.random.default_rng(42)
    for model, records, theta in _family_cases(rng):
        want = oracles.per_record_hess(model, theta, records).mean(axis=0)
        got = model.hess_mean(theta, records)
        assert np.allclose(got, want, atol=1e-12), model.family


def test_per_record_evaluation_matches_vectorized():
    rng = np.random.default_rng(43)
    for model, records, theta in _family_cases(rng):
        rows = [model.grad(theta, records[i : i + 1])[0] for i in range(5)]
        assert np.allclose(model.grad(theta, records[:5]), rows), model.family


def test_gaussian_truth_matrices():
    d = 4
    w = models.default_location_weights(d)
    sigma = models.equicorrelated_covariance(d)
    _, _, truth = models.generate_gaussian(20, d=d, seed=5)
    assert np.allclose(truth.j_star, np.diag(w))
    dw = np.diag(w)
    assert np.allclose(truth.i_star, dw @ sigma @ dw)


def test_gaussian_score_covariance_monte_carlo():
    # I_star = D Sigma D checked against the sample covariance of scores
    d = 3
    rng = np.random.default_rng(44)
    model, data, truth = models.generate_gaussian(200_000, d=d, seed=6)
    scores = model.grad(truth.theta_star, data.records)
    emp = scores.T @ scores / data.n
    rel = np.linalg.norm(emp - truth.i_star) / np.linalg.norm(truth.i_star)
    assert rel < 2e-2


def test_default_location_weights():
    w = models.default_location_weights(4)
    assert np.allclose(w, [1.0, 1.0 / math.sqrt(2), 1.0 / math.sqrt(3), 0.5])


def test_equicorrelated_covariance_structure():
    s = models.equicorrelated_covariance(3)
    assert np.allclose(np.diag(s), 1.0)
    assert np.allclose(s[0, 1], 0.5)
    assert np.all(np.linalg.eigvalsh(s) > 0)


def test_logistic_loglik_stable_for_huge_predictors():
    model = models.logistic_model(2)
    records = np.array([[50.0, 50.0, 1.0], [-50.0, -50.0, 0.0]])
    vals = oracles.loglik(model, np.array([10.0, 10.0]), records)
    assert np.all(np.isfinite(vals))
    grads = model.grad(np.array([10.0, 10.0]), records)
    assert np.all(np.isfinite(grads))


def test_logistic_validation_names_offending_row():
    model = models.logistic_model(2)
    bad = np.array([[1.0, 0.2, 0.0], [1.0, 0.1, 0.5]])
    with pytest.raises(DataError, match="row 2"):
        model.check_records(bad)


def test_poisson_validation_rejects_negative_counts():
    model = models.poisson_model(2)
    bad = np.array([[1.0, 0.2, 3.0], [1.0, 0.1, -1.0]])
    with pytest.raises(DataError):
        model.check_records(bad)


def test_poisson_validation_rejects_fractional_counts():
    model = models.poisson_model(2)
    bad = np.array([[1.0, 0.2, 2.5]])
    with pytest.raises(DataError):
        model.check_records(bad)


def test_records_must_be_two_dimensional():
    model = models.gaussian_location_model(2)
    with pytest.raises(DimensionError):
        model.check_records(np.zeros(3))


def test_generate_dispatcher_families():
    for family in ("gaussian_location", "logistic", "poisson"):
        kwargs = {"d": 3} if family == "gaussian_location" else {"p": 3}
        model, data, truth = models.generate(family, 50, seed=1, **kwargs)
        assert model.family == family
        assert data.records.shape == (50, 3 + (family != "gaussian_location"))


def test_generate_deterministic_per_seed():
    _, a, _ = models.generate_logistic(30, 3, seed=9)
    _, b, _ = models.generate_logistic(30, 3, seed=9)
    _, c, _ = models.generate_logistic(30, 3, seed=10)
    assert np.array_equal(a.records, b.records)
    assert not np.array_equal(a.records, c.records)


def test_poisson_zero_inflation_raises_the_zero_share():
    theta_star = np.array([0.2, 0.1, 0.1])
    _, data, _ = models.generate_poisson(
        500, 3, seed=7, theta_star=theta_star, zero_inflation=0.3
    )
    # zero inflation visibly increases the share of zero responses
    assert (data.records[:, -1] == 0).mean() > 0.3


def test_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(46)
    records = rng.standard_normal((20, 3)) * np.array([1.0, 1e-8, 1e12])
    path = tmp_path / "data.csv"
    oracles.save_csv(path, records, header=["a", "b", "c"])
    loaded = models.load_csv(path, models.CsvSchema(columns=3, header=True))
    assert np.array_equal(loaded.records, records)


def test_csv_parse_error_names_row_and_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n1.0,oops\n")
    with pytest.raises(DataError, match="row 2"):
        models.load_csv(path, models.CsvSchema(columns=2, header=False))


def test_csv_rejects_non_finite(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("1.0,nan\n")
    with pytest.raises(DataError):
        models.load_csv(path, models.CsvSchema(columns=2, header=False))


def test_csv_wrong_column_count(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("1.0,2.0,3.0\n1.0,2.0\n")
    with pytest.raises(DataError, match="row 2"):
        models.load_csv(path, models.CsvSchema(columns=3, header=False))
