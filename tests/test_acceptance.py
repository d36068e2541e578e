"""Acceptance suite: one verdict line per criterion, printed unconditionally.

Each test covers one named acceptance criterion at its stated tolerance and
runtime budget.  Verdicts bypass pytest's capture (capfd.disabled) so they
are visible on a plain run; a budget overrun is a failure, not a warning.
"""

import contextlib
import math
import time

import numpy as np
import pytest

import oracles
from sgalab import diagnostics, engine, inference, linalg, models, theory
from sgalab.tuning import (
    CONTROL_VARIATE,
    MOMENTUM,
    WITHOUT_REPLACEMENT,
    TuningConfig,
)


@contextlib.contextmanager
def _verdict(capfd, num: int, title: str, budget_s: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        with capfd.disabled():
            print(f"\n[FAIL] {num}/9 {title}", flush=True)
        raise
    elapsed = time.perf_counter() - t0
    if elapsed > budget_s:
        with capfd.disabled():
            print(
                f"\n[FAIL] {num}/9 {title}"
                f" ({elapsed:.1f}s over {budget_s:.0f}s budget)",
                flush=True,
            )
        pytest.fail(f"runtime {elapsed:.1f}s exceeds budget {budget_s:.0f}s")
    with capfd.disabled():
        print(f"\n[PASS] {num}/9 {title} ({elapsed:.1f}s)", flush=True)


def _rel(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


class _Lab:
    """Shared fitted instance: the d=10 weighted Gaussian benchmark."""

    def __init__(self) -> None:
        self.model, self.data, self.truth = models.generate_gaussian(
            1000, 10, seed=101
        )
        self.fit = inference.fit_mle(self.model, self.data)
        self.info = inference.empirical_info(
            self.model, self.data, self.fit.theta_hat
        )
        self.jinv = np.linalg.inv(self.info.j_mat)

    def sgd_cfg(self, seed: int) -> TuningConfig:
        return TuningConfig(
            frak_h=1.0, c_h=4.0, frak_b=0.0, c_b=1.0,
            gamma=self.jinv, lam=self.jinv, seed=seed,
        )


@pytest.fixture(scope="module")
def lab() -> _Lab:
    return _Lab()


# --------------------------------------------------------------- criterion 1


def test_a1_covariance_solvers_match_quadrature_oracles(capfd):
    with _verdict(capfd, 1, "stationary/marginal covariance vs quadrature", 10.0):
        rng = np.random.default_rng(2024)
        dummy = TuningConfig()
        law = theory.scaling_law(dummy)
        for _ in range(100):
            d = int(rng.integers(2, 11))
            b = oracles.random_stable(rng, d, margin=0.5)
            a = oracles.random_spd(rng, d)
            q = linalg.solve_lyapunov(b, a)
            q_oracle = oracles.quadrature_station_cov(b, a, margin=0.5)
            assert _rel(q, q_oracle) < 1e-8
            t = float(rng.uniform(0.3, 3.0))
            ou = theory.OuParams(
                b_mat=b, a_mat=a, dim=d, state_dim=d, law=law, cfg=dummy,
                gamma=np.eye(d), lam=np.eye(d),
                j_mat=np.eye(d), i_mat=np.eye(d),
            )
            marg = theory.marginal_cov(ou, t)
            marg_oracle = oracles.quadrature_marginal_cov(b, a, t)
            assert _rel(marg, marg_oracle) < 1e-8


# --------------------------------------------------------------- criterion 2


def test_a2_tuning_recommendations_close_on_their_targets(capfd):
    with _verdict(capfd, 2, "tuning closure on fiducial/bagged/posterior targets", 5.0):
        rng = np.random.default_rng(77)
        for target in ("local_fiducial", "bagged", "posterior"):
            for _ in range(20):
                d = int(rng.integers(2, 7))
                j = oracles.random_spd(rng, d)
                i = oracles.random_spd(rng, d)
                sand = np.linalg.solve(j, np.linalg.solve(j, i).T)
                sand = 0.5 * (sand + sand.T)
                info = inference.InfoMatrices(j_mat=j, i_mat=i)
                rec = theory.recommend_tuning(target, info)
                assert rec.closure_residual <= 1e-9
                jinv = np.linalg.inv(j)
                want = {
                    "local_fiducial": sand,
                    "bagged": 0.5 * sand + 0.5 * jinv,
                    "posterior": jinv,
                }[target]
                # independent route: reassemble the limit matrices from the
                # recommended constants and re-solve for the covariance
                achieved = theory.stationary_cov(
                    theory.ou_params(rec.cfg, j, i)
                )
                assert _rel(achieved, want) <= 1e-9, target


# --------------------------------------------------------------- criterion 3


def test_a3_mixing_time_table_reproduced(capfd):
    with _verdict(capfd, 3, "mixing-time predictions 1.0 / 2.0 / 3.2 / 2.8", 1.0):
        d, n = 10, 1000
        w = 1.0 / np.sqrt(np.arange(1, d + 1))
        j_star = np.diag(w)
        sigma = 0.5 * np.eye(d) + 0.5
        i_star = np.diag(w) @ sigma @ np.diag(w)
        cases = [
            (4.0, math.inf, 1.0, np.linalg.inv(j_star), 1.0),
            (2.0, 1.0, 2.0, np.linalg.inv(j_star), 2.0),
            (4.0, math.inf, 1.0, None, 3.2),
            (4.0, math.inf, 1.0, np.linalg.inv(i_star), 2.8),
        ]
        for c_h, frak_t, c_beta, gamma, want in cases:
            cfg = TuningConfig(
                frak_h=1.0, c_h=c_h, frak_b=0.0, c_b=1.0,
                frak_t=frak_t, c_beta=c_beta, gamma=gamma, lam=gamma,
            )
            mt = theory.mixing_time(theory.ou_params(cfg, j_star, i_star), n)
            assert abs(round(mt.epochs_iact, 1) - want) <= 0.05


# --------------------------------------------------------------- criterion 4


def test_a4_stationary_law_matches_long_runs(capfd, lab):
    sgld = TuningConfig(
        frak_h=1.0, c_h=2.0, frak_b=0.0, c_b=1.0, frak_t=1.0, c_beta=2.0,
        gamma=lab.jinv, lam=lab.jinv, seed=8,
    )
    sandwich = linalg.sandwich(lab.info.j_mat, lab.info.i_mat)
    cases = [
        (lab.sgd_cfg(seed=7), sandwich, "preconditioned noiseless"),
        (sgld, 0.5 * sandwich + 0.5 * lab.jinv, "tempered"),
    ]
    with _verdict(capfd, 4, "empirical stationary covariance and mixing, 1000 epochs", 240.0):
        for cfg, closed_form, tag in cases:
            t0 = time.perf_counter()
            ou = theory.ou_params(cfg, lab.info.j_mat, lab.info.i_mat)
            q_pred = theory.stationary_cov(ou)
            assert _rel(q_pred, closed_form) <= 1e-9, tag
            record = engine.run(
                lab.model, lab.data, cfg, epochs=1000.0,
                theta_hat=lab.fit.theta_hat,
                recording=engine.RecordingPlan(thin=50),
            )
            emp = diagnostics.empirical_cov(record, burnin_fraction=0.1)
            assert _rel(emp, q_pred) <= 0.15, tag
            mix = diagnostics.mixing_summary(record, ou)
            measured = float(np.mean(mix.epochs_per_coordinate))
            predicted = theory.mixing_time(ou, record.n).epochs_iact
            assert 0.5 * predicted <= measured <= 1.5 * predicted, tag
            assert time.perf_counter() - t0 < 120.0, tag


# --------------------------------------------------------------- criterion 5


def test_a5_iterate_average_two_term_vs_simple(capfd, lab):
    with _verdict(capfd, 5, "iterate-average covariance across 200 replicates", 600.0):
        base = lab.sgd_cfg(seed=0)
        ou = theory.ou_params(base, lab.info.j_mat, lab.info.i_mat)
        q_inf = theory.stationary_cov(ou)

        def replicate_cov(m: float, seed: int) -> np.ndarray:
            records = engine.run_replicates(
                lab.model, lab.data, base.with_seed(seed), 200,
                epochs=m, theta_hat=lab.fit.theta_hat,
                init=("stationary", q_inf),
                recording=engine.RecordingPlan(thin=1000),
            )
            emp, _ = diagnostics.replicate_avg_cov(records)
            return emp

        pred8 = theory.avg_cov_rescaled(ou, 8.0)
        emp8 = replicate_cov(8.0, seed=21)
        assert _rel(emp8, pred8.matrix) <= 0.20

        pred1 = theory.avg_cov_rescaled(ou, 1.0)
        assert pred1.simple is not None
        emp1 = replicate_cov(1.0, seed=22)
        assert _rel(emp1, pred1.matrix) <= 0.25
        # the first-order form alone misses the short-window correction
        err_two = float(np.linalg.norm(emp1 - pred1.matrix))
        err_simple = float(np.linalg.norm(emp1 - pred1.simple))
        assert err_simple > err_two


# --------------------------------------------------------------- criterion 6


def test_a6_control_variates_suppress_minibatch_noise(capfd, lab):
    with _verdict(capfd, 6, "anchored gradients reach the injected-noise-only law", 240.0):
        cv = TuningConfig(
            frak_h=1.0, c_h=4.0, frak_b=0.0, c_b=1.0, frak_t=1.0, c_beta=1.0,
            gamma=lab.jinv, lam=lab.jinv, variant=CONTROL_VARIATE, seed=9,
        )
        plain = TuningConfig(
            frak_h=1.0, c_h=4.0, frak_b=0.0, c_b=1.0, frak_t=1.0, c_beta=1.0,
            gamma=lab.jinv, lam=lab.jinv, seed=9,
        )
        # anchored variant keeps only the injected-noise source, so its
        # prediction solves the Lyapunov equation with A = (c_h/c_beta) Lambda
        q_lam = theory.stationary_cov(
            theory.ou_params(cv, lab.info.j_mat, lab.info.i_mat)
        )
        assert _rel(q_lam, lab.jinv) <= 1e-9

        def deviation(cfg) -> float:
            record = engine.run(
                lab.model, lab.data, cfg, epochs=1000.0,
                theta_hat=lab.fit.theta_hat,
                recording=engine.RecordingPlan(thin=50),
            )
            emp = diagnostics.empirical_cov(record, burnin_fraction=0.1)
            return _rel(emp, q_lam)

        dev_cv = deviation(cv)
        dev_plain = deviation(plain)
        assert dev_cv <= 0.15
        assert dev_plain > dev_cv


# --------------------------------------------------------------- criterion 7


def test_a7_full_batch_noiseless_equals_direct_descent(capfd):
    with _verdict(capfd, 7, "b=n without replacement is bit-exact gradient descent", 5.0):
        model, data, _ = models.generate_gaussian(60, 3, seed=5)
        gam = oracles.random_spd(np.random.default_rng(6), 3)
        cfg = TuningConfig(
            frak_h=0.0, c_h=0.3, frak_b=0.0, c_b=60.0,
            policy=WITHOUT_REPLACEMENT, gamma=gam, seed=3,
        )
        init = np.full(3, 0.7)
        record = engine.run(
            model, data, cfg, n_steps=1000, init=init,
            recording=engine.RecordingPlan(thin=1),
        )
        direct = oracles.direct_gradient_descent(
            model, data.records, gam, 0.3, init, 1000
        )
        assert np.array_equal(record.states, direct)


# --------------------------------------------------------------- criterion 8


def test_a8_momentum_lift_structure_and_stationary_law(capfd):
    with _verdict(capfd, 8, "momentum lift block structure and long-run covariance", 120.0):
        model, data, _ = models.generate_gaussian(400, 2, seed=11)
        fit = inference.fit_mle(model, data)
        info = inference.empirical_info(model, data, fit.theta_hat)
        c_h = 2.0
        cfg = TuningConfig(
            frak_h=1.0, c_h=c_h, frak_b=0.0, c_b=1.0,
            variant=MOMENTUM, seed=13,
        )
        ou = theory.ou_params(cfg, info.j_mat, info.i_mat)
        d = 2
        zero = np.zeros((d, d))
        eye = np.eye(d)
        # drift blocks: [[0, -M^-1], [J, Gamma M^-1]] scaled by c_h
        assert np.array_equal(ou.b_mat[:d, :d], zero)
        assert np.allclose(ou.b_mat[:d, d:], -c_h * eye, rtol=0, atol=1e-14)
        assert np.allclose(ou.b_mat[d:, :d], c_h * info.j_mat, rtol=1e-14)
        assert np.allclose(ou.b_mat[d:, d:], c_h * eye, rtol=0, atol=1e-14)
        # diffusion lives only on the velocity block
        assert np.array_equal(ou.a_mat[:d, :], np.zeros((d, 2 * d)))
        assert np.array_equal(ou.a_mat[d:, :d], zero)
        c_mb = c_h * c_h / 4.0
        assert np.allclose(ou.a_mat[d:, d:], c_mb * info.i_mat, rtol=1e-14)
        # with injected noise the velocity block also picks up (c_h/c_beta)
        # times the preconditioner, not the separate noise-shape matrix;
        # the minibatch part stays unsandwiched because the gradient drives
        # the velocity equation directly
        noisy = TuningConfig(
            frak_h=1.0, c_h=c_h, frak_b=0.0, c_b=1.0, frak_t=1.0, c_beta=2.0,
            gamma=2.0 * eye, lam=0.5 * eye, variant=MOMENTUM,
        )
        ou_noisy = theory.ou_params(noisy, info.j_mat, info.i_mat)
        gauss = (c_h / 2.0) * (2.0 * eye)
        mini = (c_h * c_h / 4.0) * info.i_mat
        assert np.allclose(ou_noisy.a_mat[d:, d:], mini + gauss, rtol=1e-12)

        assert linalg.is_hurwitz(-ou.b_mat)
        q_pred = theory.stationary_cov(ou)
        record = engine.run(
            model, data, cfg, epochs=2000.0, theta_hat=fit.theta_hat,
            recording=engine.RecordingPlan(thin=40),
        )
        emp = diagnostics.empirical_cov(record, burnin_fraction=0.1)
        assert _rel(emp[:d, :d], q_pred[:d, :d]) <= 0.20


# --------------------------------------------------------------- criterion 9


def test_a9_derivative_and_unbiasedness_property_suites(capfd):
    with _verdict(capfd, 9, "derivative, score-mean, and batch-mean property suites", 30.0):
        rng = np.random.default_rng(29)
        cases = [
            (models.generate_gaussian(200, 3, seed=31), 0.3, 1e-5, 1e-4),
            (models.generate_logistic(200, 3, seed=32), 0.3, 1e-6, 1e-4),
            (models.generate_poisson(200, 3, seed=33), 0.2, 1e-6, 1e-5),
        ]
        for (model, data, _), scale, grad_tol, hess_tol in cases:
            for _ in range(100):
                theta = rng.normal(scale=scale, size=3)
                row = data.records[int(rng.integers(0, 200))][None, :]
                want_g = oracles.fd_gradient(
                    lambda th: oracles.loglik(model, th, row)[0], theta
                )
                got_g = model.grad(theta, row)[0]
                denom = 1.0 + np.abs(want_g).max()
                assert np.max(np.abs(got_g - want_g)) / denom < grad_tol
                want_h = oracles.fd_jacobian(
                    lambda th: model.grad(th, row)[0], theta
                )
                got_h = oracles.per_record_hess(model, theta, row)[0]
                denom = 1.0 + np.abs(want_h).max()
                assert np.max(np.abs(got_h - want_h)) / denom < hess_tol
                assert np.array_equal(got_h, got_h.T)

        # score mean vanishes at the generator's parameter (5 sigma band)
        for gen in (models.generate_gaussian, models.generate_logistic,
                    models.generate_poisson):
            model, data, truth = gen(200_000, 3, seed=37)
            g = model.grad(truth.theta_star, data.records)
            se = g.std(axis=0, ddof=1) / math.sqrt(g.shape[0])
            assert np.all(np.abs(g.mean(axis=0)) <= 5.0 * se), model.family

        # batch-mean gradient is unbiased for the full-data drift
        model, data, _ = models.generate_gaussian(40, 3, seed=17)
        theta = np.array([0.3, -0.2, 0.5])
        full = oracles.stochastic_gradient(model, data, theta, np.arange(40))
        for policy in ("with_replacement", "without_replacement"):
            rng = np.random.default_rng(18)
            draws = np.empty((100_000, 3))
            batches = engine.sample_batch(rng, 40, 5, policy, draws.shape[0])
            for k in range(draws.shape[0]):
                draws[k] = oracles.stochastic_gradient(model, data, theta, batches[k])
            se = draws.std(axis=0, ddof=1) / math.sqrt(draws.shape[0])
            dev = np.abs(draws.mean(axis=0) - full)
            assert np.max(dev / se) <= 5.0, policy
