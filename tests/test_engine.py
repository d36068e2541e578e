"""Execution engine: sampling, unbiasedness, bit-reproducibility, recording.

The heavy hitters here are exact-equality checks: a manual loop of
``oracles.step`` calls must reproduce ``run`` bit for bit, and the
exhaustive-batch noiseless configuration must degenerate to textbook
preconditioned gradient descent with no randomness consumed.
"""

import dataclasses
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats

import oracles
from sgalab import engine, models, tuning
from sgalab.engine import RecordingPlan, sample_batch
from sgalab.errors import ConfigError, DivergenceError
from sgalab.models import dataset_hash
from sgalab.tuning import (
    CONTROL_VARIATE,
    MOMENTUM,
    PLAIN,
    WITH_REPLACEMENT,
    WITHOUT_REPLACEMENT,
    TuningConfig,
)


def _gaussian_case(n=40, d=3, seed=7):
    model, data, truth = models.generate_gaussian(n, d, seed=seed)
    return model, data, truth


# ------------------------------------------------------------ batch sampling


def test_sample_batch_uniformity_chi_square():
    # all 2-tuples from 5 records should be hit uniformly; alpha = 0.001
    n, b, draws = 5, 2, 100_000
    for policy in (WITH_REPLACEMENT, WITHOUT_REPLACEMENT):
        rng = np.random.default_rng(11)
        counts = {}
        for batch in map(tuple, sample_batch(rng, n, b, policy, draws).tolist()):
            counts[batch] = counts.get(batch, 0) + 1
        cells = oracles.enumerate_batches(n, b, policy)
        if policy == WITH_REPLACEMENT:
            # collapse ordered tuples to sorted multisets with their weights
            weight = {}
            for cell in cells:
                key = tuple(sorted(cell))
                weight[key] = weight.get(key, 0) + 1
            total = len(cells)
            expected = {k: draws * w / total for k, w in weight.items()}
        else:
            expected = {tuple(c): draws / len(cells) for c in cells}
        assert set(counts) <= set(expected)
        chi2 = sum(
            (counts.get(k, 0) - e) ** 2 / e for k, e in expected.items()
        )
        dof = len(expected) - 1
        # chi-square(dof) upper 0.001 quantile, dof <= 14: generous bound
        limit = dof + 4.0 * math.sqrt(2.0 * dof) + 10.0
        assert chi2 < limit, f"{policy}: chi2 = {chi2:.1f} over {dof} cells"


@pytest.mark.parametrize("b", [20, 600], ids=["floyd", "tail_shuffle"])
def test_sample_batch_subset_inclusion_is_uniform(b):
    # numpy draws b-subsets of n > 10000 by Floyd's algorithm when b <= n // 50
    # and by shuffling the tail of an arange(n) above that; both must give
    # every index inclusion probability b/n.  Within a row the inclusion
    # indicators have covariance -p(1-p)/(n-1), so the Pearson sum scaled
    # by (n-1) / (n(1-p)) is chi-square with n-1 degrees of freedom.
    n, per_index = 12_000, 40
    rows = per_index * n // b
    batches = sample_batch(np.random.default_rng(12), n, b, WITHOUT_REPLACEMENT, rows)
    assert batches.shape == (rows, b)
    assert np.all(np.diff(batches, axis=1) > 0)
    counts = np.bincount(batches.ravel(), minlength=n)
    p = b / n
    stat = np.sum((counts - per_index) ** 2) / per_index * (n - 1) / (n * (1 - p))
    limit = scipy.stats.chi2.ppf(1 - 0.001, n - 1)
    assert stat < limit, f"b={b}: chi2 = {stat:.1f} over {n - 1} cells"


def test_sample_batch_without_replacement_memory_is_o_b():
    # a full permutation of n = 10**6 would be 8 MB per row
    rng = np.random.default_rng(3)
    tracemalloc.start()
    try:
        sample_batch(rng, 10**6, 5, WITHOUT_REPLACEMENT, 64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


def test_sample_batch_without_replacement_distinct():
    rng = np.random.default_rng(0)
    batches = sample_batch(rng, 6, 4, WITHOUT_REPLACEMENT, 200)
    assert batches.shape == (200, 4)
    # sorted rows of distinct indices: strictly increasing
    assert np.all(np.diff(batches, axis=1) > 0)
    assert np.array_equal(
        sample_batch(rng, 6, 6, WITHOUT_REPLACEMENT, 3), np.tile(np.arange(6), (3, 1))
    )
    with pytest.raises(ConfigError):
        sample_batch(rng, 3, 4, WITH_REPLACEMENT)
    with pytest.raises(ConfigError):
        sample_batch(rng, 3, 0, WITH_REPLACEMENT)


# ----------------------------------------------------------- drift estimate


def test_stochastic_gradient_unbiased_over_all_batches():
    model, data, _ = _gaussian_case(n=6)
    theta = np.array([0.3, -0.2, 0.5])
    full = model.grad(theta, data.records).mean(axis=0) + model.grad_prior(theta) / 6
    for policy in (WITH_REPLACEMENT, WITHOUT_REPLACEMENT):
        batches = oracles.enumerate_batches(6, 2, policy)
        mean_est = np.mean(
            [oracles.stochastic_gradient(model, data, theta, np.array(b)) for b in batches],
            axis=0,
        )
        assert np.linalg.norm(mean_est - full) <= 1e-12


def test_control_variate_unbiased_and_exact_at_anchor():
    model, data, _ = models.generate_logistic(8, 2, seed=3)
    anchor = np.array([0.2, -0.4])
    theta = np.array([0.9, 0.1])
    full = model.grad(theta, data.records).mean(axis=0) + model.grad_prior(theta) / 8
    batches = oracles.enumerate_batches(8, 1, WITH_REPLACEMENT)
    ests = [
        oracles.stochastic_gradient(model, data, theta, np.array(b), anchor=anchor)
        for b in batches
    ]
    assert np.linalg.norm(np.mean(ests, axis=0) - full) <= 1e-12
    # at the anchor itself every batch gives the identical full-data value
    at_anchor = [
        oracles.stochastic_gradient(model, data, anchor, np.array(b), anchor=anchor)
        for b in batches
    ]
    spread = np.ptp(np.asarray(at_anchor), axis=0)
    assert np.all(spread == 0.0)


def test_control_variate_variance_decays_quadratically():
    # batch variance of the recentered estimate ~ ||theta - anchor||^2
    model, data, _ = models.generate_logistic(60, 2, seed=9)
    anchor = np.array([0.1, 0.3])
    direction = np.array([1.0, -0.7]) / np.linalg.norm([1.0, -0.7])
    scales = np.array([1e-3, 1e-2, 1e-1])
    variances = []
    for t in scales:
        theta = anchor + t * direction
        ests = np.array(
            [
                oracles.stochastic_gradient(model, data, theta, np.array([j]), anchor=anchor)
                for j in range(60)
            ]
        )
        variances.append(np.mean(np.sum((ests - ests.mean(axis=0)) ** 2, axis=1)))
    slope = np.polyfit(np.log(scales), np.log(variances), 1)[0]
    assert abs(slope - 2.0) < 0.2


def test_engine_step_drift_matches_oracle_over_all_batches():
    # a noiseless step moves by exactly (h/2) Gamma times the textbook drift
    gamma = np.array([[1.5, 0.2], [0.2, 0.8]])
    cases = [
        (models.generate_gaussian(6, 2, seed=4), {}, np.array([0.3, -0.2]), None),
        (
            models.generate_logistic(6, 2, seed=3),
            {"variant": CONTROL_VARIATE},
            np.array([0.9, 0.1]),
            np.array([0.2, -0.4]),
        ),
    ]
    for (model, data, _), extra, state, anchor in cases:
        for policy in (WITH_REPLACEMENT, WITHOUT_REPLACEMENT):
            cfg = TuningConfig(frak_h=1.0, c_h=0.7, frak_b=0.0, c_b=2.0,
                               gamma=gamma, policy=policy, **extra)
            h = cfg.step_size(6)
            for batch in oracles.enumerate_batches(6, 2, policy):
                batch = np.array(batch)
                got = oracles.step(model, data, cfg, state, batch, anchor=anchor)
                drift = oracles.stochastic_gradient(
                    model, data, state, batch, anchor=anchor
                )
                want = state + 0.5 * h * gamma @ drift
                assert np.max(np.abs(got - want)) <= 1e-12, (extra, policy, batch)


def test_exact_law_recursion_is_the_mean_and_covariance_of_a_step():
    # over every equally likely batch, a plain step from theta has mean
    # M theta + (I - M) xbar and covariance C, under both batch policies
    model, data, _ = models.generate_gaussian(6, 2, seed=4)
    gamma = np.array([[1.5, 0.2], [0.2, 0.8]])
    theta = np.array([0.3, -0.2])
    xbar = data.records.mean(axis=0)
    for policy in (WITH_REPLACEMENT, WITHOUT_REPLACEMENT):
        cfg = TuningConfig(frak_h=1.0, c_h=0.7, frak_b=0.0, c_b=2.0, gamma=gamma, policy=policy)
        m, c = oracles.gaussian_sgd_recursion(
            data.records, model.params["weights"], gamma, cfg.step_size(6), 2,
            with_replacement=policy == WITH_REPLACEMENT,
        )
        steps = np.array([oracles.step(model, data, cfg, theta, np.array(batch))
                          for batch in oracles.enumerate_batches(6, 2, policy)])
        assert np.allclose(steps.mean(axis=0), m @ theta + (np.eye(2) - m) @ xbar,
                           rtol=0, atol=1e-12), policy
        assert np.allclose(np.cov(steps.T, bias=True), c, rtol=0, atol=1e-12), policy


@pytest.mark.parametrize("variant", [PLAIN, CONTROL_VARIATE])
def test_exact_law_recursion_with_noise_is_the_mean_and_covariance_of_a_step(variant):
    # SGLD and its control-variate form: over every equally likely batch a
    # noiseless step has mean M theta + (I - M) xbar and covariance C less
    # (h/beta) Lambda (none at all for the control variate, whatever the
    # anchor), and the innovation adds (h/beta) Lambda
    model, data, _ = models.generate_gaussian(6, 2, seed=4)
    gamma = np.array([[1.5, 0.2], [0.2, 0.8]])
    lam = np.array([[0.9, 0.1], [0.1, 0.4]])
    theta, anchor = np.array([0.3, -0.2]), np.array([-0.4, 0.7])
    xbar = data.records.mean(axis=0)
    for policy in (WITH_REPLACEMENT, WITHOUT_REPLACEMENT):
        cfg = TuningConfig(frak_h=1.0, c_h=0.7, frak_b=0.0, c_b=2.0, frak_t=1.0, c_beta=2.0,
                           gamma=gamma, lam=lam, policy=policy, variant=variant)
        m, c = oracles.gaussian_sgd_recursion(
            data.records, model.params["weights"], gamma, cfg.step_size(6), 2,
            with_replacement=policy == WITH_REPLACEMENT, beta=cfg.inverse_temperature(6),
            lam=lam, control_variate=variant == CONTROL_VARIATE,
        )
        drift, noise = [], []
        for batch in oracles.enumerate_batches(6, 2, policy):
            at = [oracles.step(model, data, cfg, theta, np.array(batch), xi=xi, anchor=anchor)
                  for xi in (np.zeros(2), np.array([1.0, 0.0]), np.array([0.0, 1.0]))]
            drift.append(at[0])
            noise.append(np.column_stack([at[1] - at[0], at[2] - at[0]]))
        drift = np.array(drift)
        assert np.allclose(drift.mean(axis=0), m @ theta + (np.eye(2) - m) @ xbar,
                           rtol=0, atol=1e-12), policy
        for factor in noise:  # the innovation's factor L, the same for every batch
            assert np.allclose(factor, noise[0], rtol=0, atol=1e-12), policy
        assert np.allclose(np.cov(drift.T, bias=True) + noise[0] @ noise[0].T, c,
                           rtol=0, atol=1e-12), policy


# -------------------------------------------------- step/run bit identity


def _manual_replay(model, data, cfg, n_steps, init_state):
    """Reproduce run()'s randomness consumption with explicit oracles.step() calls."""
    records = data.records
    n = records.shape[0]
    d = model.dim
    b = cfg.batch_size(n)
    root = np.random.SeedSequence(cfg.seed)
    batch_ss, noise_ss, _ = root.spawn(3)
    batch_rng = np.random.Generator(np.random.Philox(batch_ss))
    noise_rng = np.random.Generator(np.random.Philox(noise_ss))

    # the engine draws all batch indices for the block, then the noise block
    if b == 1:
        idx_block = batch_rng.integers(0, n, size=n_steps).reshape(n_steps, 1)
    elif cfg.policy == WITHOUT_REPLACEMENT and b == n:
        idx_block = np.tile(np.arange(n), (n_steps, 1))
    elif cfg.policy == WITHOUT_REPLACEMENT:
        idx_block = np.stack(
            [batch_rng.choice(n, b, replace=False, shuffle=False) for _ in range(n_steps)]
        )
    else:
        idx_block = batch_rng.integers(0, n, size=(n_steps, b))
    noise_block = noise_rng.standard_normal((n_steps, d)) if cfg.has_noise else None

    state = init_state.copy()
    path = np.empty((n_steps, len(state)))
    for k in range(n_steps):
        xi = noise_block[k] if noise_block is not None else None
        state = oracles.step(model, data, cfg, state, idx_block[k], xi=xi)
        path[k] = state
    return path


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(frak_h=1.0, c_h=2.0, frak_b=0.0, c_b=1.0, frak_t=math.inf, seed=5),
        dict(frak_h=1.0, c_h=2.0, frak_b=0.0, c_b=3.0, frak_t=1.0, c_beta=2.0, seed=6),
        dict(
            frak_h=1.0,
            c_h=1.0,
            frak_b=0.0,
            c_b=4.0,
            policy=WITHOUT_REPLACEMENT,
            frak_t=math.inf,
            seed=7,
        ),
    ],
    ids=["sgd_b1", "sgld_b3", "sgd_b4_noreplace"],
)
def test_run_matches_manual_step_loop_bitwise(kwargs):
    model, data, _ = _gaussian_case(n=12, d=2, seed=21)
    cfg = TuningConfig(gamma=np.diag([1.0, 0.5]), **kwargs)
    init = np.array([0.7, -0.3])
    n_steps = 50
    record = engine.run(
        model, data, cfg, n_steps=n_steps, init=init, recording=RecordingPlan(thin=1)
    )
    manual = _manual_replay(model, data, cfg, n_steps, init)
    assert np.array_equal(record.states, manual)
    assert np.array_equal(record.final_state, manual[-1])


def test_exhaustive_batch_consumes_no_batch_randomness():
    # with b = n (without replacement), runs at different seeds but beta = inf
    # are identical: no randomness of any kind is consumed
    model, data, _ = _gaussian_case(n=10, d=2, seed=33)
    base = dict(frak_h=1.0, c_h=1.5, frak_b=1.0, c_b=1.0, policy=WITHOUT_REPLACEMENT)
    a = engine.run(
        model, data, TuningConfig(seed=1, **base), n_steps=40, init=np.zeros(2)
    )
    b = engine.run(
        model, data, TuningConfig(seed=999, **base), n_steps=40, init=np.zeros(2)
    )
    assert np.array_equal(a.states, b.states)


def test_exhaustive_noiseless_run_equals_direct_gradient_descent():
    model, data, _ = _gaussian_case(n=30, d=3, seed=13)
    gamma = np.diag([1.0, 2.0, 0.5])
    cfg = TuningConfig(
        frak_h=1.0, c_h=3.0, frak_b=1.0, c_b=1.0,
        policy=WITHOUT_REPLACEMENT, gamma=gamma, seed=4,
    )
    n_steps = 1000
    init = np.array([1.0, -1.0, 0.5])
    record = engine.run(
        model, data, cfg, n_steps=n_steps, init=init, recording=RecordingPlan(thin=1)
    )
    path = oracles.direct_gradient_descent(
        model, data.records, gamma, cfg.step_size(30), init, n_steps
    )
    assert np.array_equal(record.states, path)


# ------------------------------------------------------- momentum variant


def test_momentum_single_step_hand_computed():
    # d = 1 gaussian location, one record x = 2, weight 1: score = x - theta
    records = np.array([[2.0]])
    model = models.gaussian_location_model(1, np.array([1.0]))
    data = models.Dataset(records)
    h, gamma = 0.5, 1.2
    cfg = TuningConfig(
        frak_h=0.0, c_h=h, frak_b=0.0, c_b=1.0, frak_t=math.inf,
        variant=MOMENTUM, gamma=np.array([[gamma]]),
    )
    theta0, psi0 = 0.3, -0.8
    state = oracles.step(model, data, cfg, np.array([theta0, psi0]), np.array([0]))
    want_theta = theta0 + 0.5 * h * psi0
    want_psi = psi0 + 0.5 * h * (2.0 - theta0) - 0.5 * h * gamma * psi0
    assert state[0] == pytest.approx(want_theta, rel=0, abs=1e-15)
    assert state[1] == pytest.approx(want_psi, rel=0, abs=1e-15)


def test_momentum_state_dimension_and_recording():
    model, data, _ = _gaussian_case(n=8, d=2, seed=2)
    cfg = TuningConfig(
        frak_h=1.0, c_h=1.0, frak_b=0.0, c_b=1.0, frak_t=math.inf,
        variant=MOMENTUM, seed=3,
    )
    record = engine.run(model, data, cfg, n_steps=20, init=np.zeros(4))
    assert record.states.shape == (20, 4)
    assert record.state_dim == 4
    assert record.dim == 2


# ------------------------------------------------- divergence and recording


def test_divergence_truncates_and_reports():
    model, data, _ = _gaussian_case(n=20, d=2, seed=17)
    cfg = TuningConfig(frak_h=0.0, c_h=1e9, frak_b=0.0, c_b=1.0, seed=0)
    with pytest.raises(DivergenceError) as info:
        engine.run(
            model, data, cfg, n_steps=500,
            init=np.array([1.0, 1.0]), recording=RecordingPlan(thin=1),
        )
    rec = info.value.partial_record
    assert rec.diverged_at is not None and rec.diverged_at <= 500
    assert rec.manifest["diverged_at"] == rec.diverged_at
    assert rec.states.shape[0] == (rec.diverged_at - 1) // rec.thin
    if rec.states.size:
        assert np.all(np.abs(rec.states) <= engine.DIVERGENCE_LIMIT)
    # the reported iterate is the offending one: one step from the last kept
    # state with the batch the engine drew at that step
    batch_rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(0).spawn(3)[0]))
    batch = sample_batch(batch_rng, 20, 1, cfg.policy, rec.diverged_at)[-1]
    prev = rec.states[-1] if rec.states.size else rec.init_state
    with np.errstate(over="ignore", invalid="ignore"):
        offending = oracles.step(model, data, cfg, prev, batch)
    assert np.array_equal(rec.final_state, offending)


def test_thinning_and_average_window():
    model, data, _ = _gaussian_case(n=15, d=2, seed=29)
    cfg = TuningConfig(frak_h=1.0, c_h=2.0, frak_b=0.0, c_b=1.0,
                       frak_t=1.0, c_beta=1.0, seed=8)
    fine = engine.run(
        model, data, cfg, n_steps=10,
        init=np.zeros(2),
        recording=RecordingPlan(thin=1, average_start=4),
    )
    coarse = engine.run(
        model, data, cfg, n_steps=10,
        init=np.zeros(2),
        recording=RecordingPlan(thin=3, average_start=4),
    )
    assert coarse.states.shape == (3, 2)
    assert np.array_equal(coarse.step_numbers(), [3, 6, 9])
    # thinned rows are exactly the fine rows at steps 3, 6, 9
    assert np.array_equal(coarse.states, fine.states[[2, 5, 8]])
    # the average window covers steps 5..10 regardless of thinning
    window = fine.states[4:10]
    assert np.array_equal(coarse.avg_state, window.sum(axis=0) / 6.0)
    assert coarse.avg_window == (4, 10)


def _block_size_cases():
    gauss1 = models.generate_gaussian(30, 1, seed=2)
    gauss4 = models.generate_gaussian(30, 4, seed=3)
    poisson = models.generate_poisson(200, 3, seed=10)
    sgld = dict(frak_h=1.0, c_h=2.0, frak_b=0.0, frak_t=1.0, c_beta=2.0)
    yield "d1_b1_sgld", gauss1, TuningConfig(c_b=1.0, seed=1, **sgld)
    yield "d1_b3_sgld", gauss1, TuningConfig(c_b=3.0, seed=2, **sgld)
    yield "d4_b3_noreplace", gauss4, TuningConfig(
        c_b=3.0, policy=WITHOUT_REPLACEMENT, seed=3, **sgld)
    yield "d4_bn_sgld", gauss4, TuningConfig(
        frak_h=1.0, c_h=2.0, frak_b=1.0, c_b=1.0, frak_t=1.0, c_beta=2.0,
        policy=WITHOUT_REPLACEMENT, seed=4)
    yield "poisson_b25_diverges", poisson, TuningConfig(
        frak_h=1.0, c_h=2000.0, frak_b=0.0, c_b=25.0, seed=3)


def _run_outputs(model, data, truth, cfg):
    try:
        rec = engine.run(
            model, data, cfg, n_steps=1500, theta_hat=truth.theta_star,
            recording=RecordingPlan(thin=3, average_start=5),
        )
    except DivergenceError as err:
        rec = err.partial_record
    return rec


def test_results_do_not_depend_on_block_size(monkeypatch):
    for name, (model, data, truth), cfg in _block_size_cases():
        runs = []
        for block_rows in (1, 7, 1024):
            monkeypatch.setattr(engine, "BLOCK_ROWS", block_rows)
            runs.append(_run_outputs(model, data, truth, cfg))
        ref = runs[0]
        assert (ref.diverged_at is not None) == (name == "poisson_b25_diverges"), name
        for rec in runs[1:]:
            assert rec.diverged_at == ref.diverged_at, name
            assert np.array_equal(rec.states, ref.states), name
            assert np.array_equal(rec.avg_state, ref.avg_state), name
            assert np.array_equal(rec.final_state, ref.final_state, equal_nan=True), name


# ------------------------------------------------------ replicate batching


def _prior_model(model):
    """``model`` with a Gaussian log-prior, so the prior term is not zero."""
    return dataclasses.replace(model, grad_prior=lambda th: -th / 4.0)


def _batched_cases():
    """(name, (model, data, truth), cfg, n_steps, replicates) for run_replicates."""
    gauss = models.generate_gaussian(30, 3, seed=2)
    gauss1 = models.generate_gaussian(30, 1, seed=3)
    # dense preconditioners: with diagonal ones a gemm would also match gemv
    dense = np.array([[1.0, 0.3, -0.2], [0.3, 0.8, 0.25], [-0.2, 0.25, 0.6]])
    sgld = dict(frak_h=1.0, c_h=2.0, frak_b=0.0, frak_t=1.0, c_beta=2.0,
                gamma=dense, lam=dense)
    yield "plain_b1", gauss, TuningConfig(frak_h=1.0, c_h=2.0, frak_b=0.0, c_b=1.0,
                                          gamma=dense, seed=1), 300, 4
    yield "sgld_b3", gauss, TuningConfig(c_b=3.0, seed=2, **sgld), 300, 4
    yield "sgld_d1_b20", gauss1, TuningConfig(
        frak_h=1.0, c_h=2.0, frak_b=0.0, c_b=20.0, frak_t=1.0, c_beta=2.0, seed=2), 200, 3
    yield "noreplace_b4", gauss, TuningConfig(
        c_b=4.0, policy=WITHOUT_REPLACEMENT, seed=3, **sgld), 300, 4
    yield "bn_sgld", gauss, TuningConfig(
        frak_h=1.0, c_h=2.0, frak_b=1.0, c_b=1.0, frak_t=1.0, c_beta=2.0,
        gamma=dense, lam=dense, policy=WITHOUT_REPLACEMENT, seed=4), 200, 3
    yield "bn_sgld_d1", gauss1, TuningConfig(
        frak_h=1.0, c_h=2.0, frak_b=1.0, c_b=1.0, frak_t=1.0, c_beta=2.0,
        policy=WITHOUT_REPLACEMENT, seed=4), 200, 3
    box = (np.array([-0.2, -0.2, -0.2]), np.array([0.2, 0.2, 0.05]))
    yield "box_clipped", gauss, TuningConfig(c_b=2.0, boundary=box, seed=5, **sgld), 300, 4
    dense4 = np.eye(4) + 0.2 * np.ones((4, 4))
    yield "control_variate_logistic", models.generate_logistic(60, 4, seed=6), TuningConfig(
        frak_h=1.0, c_h=2.0, frak_b=0.0, c_b=5.0, frak_t=1.0, c_beta=1.0,
        gamma=dense4, lam=dense4, variant=CONTROL_VARIATE, seed=6), 300, 4
    momentum = dict(frak_h=1.0, c_h=1.0, frak_b=0.0, c_b=2.0, frak_t=1.0, c_beta=2.0,
                    gamma=dense, variant=MOMENTUM)
    yield "momentum", gauss, TuningConfig(seed=7, **momentum), 300, 4
    model, data, truth = gauss
    yield "prior_plain", (_prior_model(model), data, truth), TuningConfig(
        c_b=2.0, seed=8, **sgld), 300, 3
    yield "prior_momentum", (_prior_model(model), data, truth), TuningConfig(
        seed=9, **momentum), 300, 3
    # replicates 2 and 4 diverge (at steps 22 and 149), the others survive
    yield "poisson_some_diverge", models.generate_poisson(200, 3, seed=10), TuningConfig(
        frak_h=1.0, c_h=1000.0, frak_b=0.0, c_b=25.0, seed=0), 400, 6


def _replicates(model, data, truth, cfg, n_steps, replicates):
    return engine.run_replicates(
        model, data, cfg, replicates, n_steps=n_steps, theta_hat=truth.theta_star,
        recording=RecordingPlan(thin=3, average_start=5),
    )


def _assert_same_run(got, want, tag):
    assert got.diverged_at == want.diverged_at, tag
    assert got.manifest == want.manifest, tag
    assert np.array_equal(got.states, want.states), tag
    assert np.array_equal(got.init_state, want.init_state), tag
    assert np.array_equal(got.final_state, want.final_state, equal_nan=True), tag
    if want.avg_state is None:
        assert got.avg_state is None, tag
    else:
        assert np.array_equal(got.avg_state, want.avg_state), tag


def test_batched_replicates_equal_solo_runs_bitwise():
    for name, (model, data, truth), cfg, n_steps, reps in _batched_cases():
        batched = _replicates(model, data, truth, cfg, n_steps, reps)
        assert len(batched) == reps
        diverged = [rec.diverged_at is not None for rec in batched]
        assert any(diverged) == (name == "poisson_some_diverge"), name
        assert not all(diverged), name
        for r, rec in enumerate(batched):
            try:
                solo = engine.run(
                    model, data, cfg.with_seed(cfg.seed + r), n_steps=n_steps,
                    theta_hat=truth.theta_star,
                    recording=RecordingPlan(thin=3, average_start=5),
                )
            except DivergenceError as err:
                solo = err.partial_record
            _assert_same_run(rec, solo, (name, r))


def test_replicate_results_do_not_depend_on_grouping_or_block_size(monkeypatch):
    cases = {name: case for name, *case in _batched_cases()}
    for name in ("sgld_b3", "noreplace_b4", "bn_sgld", "momentum", "poisson_some_diverge"):
        (model, data, truth), cfg, n_steps, _ = cases[name]
        runs = []
        for block_rows in (1, 7, 4096):
            monkeypatch.setattr(engine, "BLOCK_ROWS", block_rows)
            runs.append(_replicates(model, data, truth, cfg, n_steps, 5))
            split = (_replicates(model, data, truth, cfg, n_steps, 2)
                     + _replicates(model, data, truth, cfg.with_seed(cfg.seed + 2), n_steps, 3))
            for r, (got, want) in enumerate(zip(split, runs[-1])):
                _assert_same_run(got, want, (name, block_rows, r))
        for other in runs[1:]:
            for r, (got, want) in enumerate(zip(other, runs[0])):
                _assert_same_run(got, want, (name, r))


def test_results_do_not_depend_on_draw_length(monkeypatch):
    # draw blocks of one step, of a few steps and of many gather blocks; a
    # replicate stopping mid-draw must drop its own draws, not a neighbour's
    cases = {name: case for name, *case in _batched_cases()}
    draw_lengths = set()
    real_sample_batch = engine.sample_batch

    def recording_sample_batch(rng, n, b, policy, steps=1):
        draw_lengths.add(steps)
        return real_sample_batch(rng, n, b, policy, steps)

    # with noise too: replicates 0 and 3 diverge (at steps 191 and 87)
    poisson, cfg, n_steps, _ = cases["poisson_some_diverge"]
    cases["poisson_sgld_some_diverge"] = (
        poisson, dataclasses.replace(cfg, frak_t=1.0, c_beta=0.5), n_steps, 5)
    monkeypatch.setattr(engine, "sample_batch", recording_sample_batch)
    for name in ("sgld_b3", "control_variate_logistic", "noreplace_b4", "bn_sgld",
                 "poisson_some_diverge", "poisson_sgld_some_diverge"):
        (model, data, truth), cfg, n_steps, _ = cases[name]
        runs = []
        for block_rows in (7, 200, engine.BLOCK_ROWS):
            for draw_steps in (1, 3, engine._DRAW_STEPS):
                with monkeypatch.context() as patch:
                    patch.setattr(engine, "BLOCK_ROWS", block_rows)
                    patch.setattr(engine, "_DRAW_STEPS", draw_steps)
                    runs.append(_replicates(model, data, truth, cfg, n_steps, 5))
        diverged = [rec.diverged_at for rec in runs[0]]
        assert any(diverged) == name.startswith("poisson"), name
        assert not all(diverged), name
        for other in runs[1:]:
            for r, (got, want) in enumerate(zip(other, runs[0])):
                _assert_same_run(got, want, (name, r))
    # one-step draws, three-step draws and draws of many steps all happened
    assert {1, 3} <= draw_lengths and max(draw_lengths) >= engine._DRAW_STEPS


def test_batch_mean_is_bitwise_the_reduced_mean():
    awkward = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -1.5, 2.0])
    rng = np.random.default_rng(3)
    for b in (1, 3):
        for replicates in (2, 7):
            g = rng.choice(awkward, size=(replicates, b, 5))
            g[0] = -0.0  # a whole batch of -0.0, whose mean is +0.0
            out = np.full((replicates, 1, 5), np.nan)
            with np.errstate(invalid="ignore"):  # inf - inf
                want = np.add.reduce(g, axis=-2) / b
                op, by = engine._mean_op(b)
                got = op(g, by, out)
            assert got is out, b
            assert np.array_equal(np.signbit(got[:, 0]), np.signbit(want)), b
            assert np.array_equal(got[:, 0].view(np.int64), want.view(np.int64)), b


def _transition_cases():
    """(name, model, data, cfg, anchor) covering every branch of the step."""
    model, data, truth = models.generate_gaussian(30, 3, seed=2)
    dense = np.array([[1.0, 0.3, -0.2], [0.3, 0.8, 0.25], [-0.2, 0.25, 0.6]])
    sgld = dict(frak_h=1.0, c_h=2.0, frak_b=0.0, frak_t=1.0, c_beta=2.0,
                gamma=dense, lam=dense)
    momentum = dict(sgld, c_h=1.0, c_b=2.0, variant=MOMENTUM)
    # a zero lower bound meets -0.0 iterates, whose clipped sign must match
    box = (np.array([0.0, -0.2, -0.2]), np.array([1.0, 0.2, 0.05]))
    prior = _prior_model(model)
    yield "plain_b1", model, data, TuningConfig(frak_h=1.0, c_h=2.0, gamma=dense), None
    yield "sgld_b3", model, data, TuningConfig(c_b=3.0, **sgld), None
    logistic, ldata, ltruth = models.generate_logistic(60, 4, seed=6)
    dense4 = np.eye(4) + 0.2 * np.ones((4, 4))
    yield "control_variate", logistic, ldata, TuningConfig(
        frak_h=1.0, c_h=2.0, c_b=5.0, frak_t=1.0, c_beta=1.0, gamma=dense4, lam=dense4,
        variant=CONTROL_VARIATE), ltruth.theta_star
    yield "momentum", model, data, TuningConfig(**momentum), None
    yield "momentum_noiseless", model, data, TuningConfig(
        **dict(momentum, frak_t=math.inf)), None
    yield "prior_plain", prior, data, TuningConfig(c_b=2.0, **sgld), None
    yield "prior_momentum", prior, data, TuningConfig(**momentum), None
    yield "box_plain", model, data, TuningConfig(c_b=2.0, boundary=box, **sgld), None
    yield "box_momentum", prior, data, TuningConfig(boundary=box, **momentum), None
    # d = 1, where np.dot and np.matvec differ: a record of -5e-324 from a
    # -0.0 state makes a step product that rounds to -0.0
    line = models.gaussian_location_model(1, np.array([1.0]))
    tiny = models.Dataset(np.array([[-5e-324], [-0.0], [0.0], [0.7], [-1.3], [2.1]]))
    one = np.array([[0.8]])
    line_sgld = dict(frak_h=1.0, c_h=2.0, frak_t=1.0, c_beta=2.0, gamma=one, lam=one)
    yield "d1_sgld", line, tiny, TuningConfig(**line_sgld), None
    yield "d1_momentum", line, tiny, TuningConfig(variant=MOMENTUM, **line_sgld), None


def test_transitions_equal_expression_form_bitwise():
    # each block closure against chained calls of the expression form it
    # replaced, on awkward states and noise, over blocks of 1, 2 and 3 steps
    # written into a buffer whose rows outside the block hold NaN
    awkward = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300, -1e300])
    rng = np.random.default_rng(12)
    replicates = 6
    for name, model, data, cfg, anchor in _transition_cases():
        records = model.check_records(data.records)
        n = records.shape[0]
        ctx = engine._build_context(model, records, cfg, n, anchor)
        oracle = oracles.expression_transition(ctx, model.grad_prior is models.zero_prior)
        for trial in range(20):
            blk = 1 + trial % 3
            state = rng.normal(size=(replicates, ctx.state_dim))
            mask = rng.random(state.shape) < 0.3
            state[mask] = rng.choice(awkward, size=mask.sum())
            state[0] = -0.0
            idx = np.sort(rng.integers(0, n, size=(blk, replicates, ctx.b)), axis=2)
            anchor_block = None if ctx.anchor_grads is None else ctx.anchor_grads[idx]
            noise_block = None
            if ctx.noise_factor is not None:
                noise_block = rng.normal(size=(blk, replicates, ctx.dim))
                noise_block[rng.random(noise_block.shape) < 0.2] = -0.0
                noise_block[:, 1] = rng.choice(awkward, size=(blk, ctx.dim))
            before = state.copy()
            full = np.full((blk + 2, replicates, ctx.state_dim), np.nan)
            buf = full[1:-1]
            with np.errstate(all="ignore"):
                got = ctx.advance(state, records[idx], anchor_block, noise_block, buf)
                want = state
                for s in range(blk):
                    want = oracle(want, records[idx[s]],
                                  None if anchor_block is None else anchor_block[s],
                                  None if noise_block is None else noise_block[s])
                    assert np.array_equal(buf[s].view(np.int64), want.view(np.int64)), (
                        name, trial, s)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (name, trial)
            assert np.array_equal(state.view(np.int64), before.view(np.int64)), name
            assert np.isnan(full[0]).all() and np.isnan(full[-1]).all(), name


def test_one_replicate_block_equals_expression_form_bitwise():
    # a block of one replicate runs the loop without the replicate axis (and
    # np.dot for np.matvec where d >= 2): every case against chained calls of
    # the expression form, on the same awkward states and noise, the d = 1
    # cases with all--0.0 states and noise every other trial
    awkward = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300, -1e300])
    rng = np.random.default_rng(13)
    for name, model, data, cfg, anchor in _transition_cases():
        records = model.check_records(data.records)
        n = records.shape[0]
        ctx = engine._build_context(model, records, cfg, n, anchor)
        oracle = oracles.expression_transition(ctx, model.grad_prior is models.zero_prior)
        for trial in range(40):
            blk = 1 + trial % 3
            state = rng.normal(size=(1, ctx.state_dim))
            mask = rng.random(state.shape) < 0.3
            state[mask] = rng.choice(awkward, size=mask.sum())
            if trial % 2:
                state[:] = -0.0
            idx = np.sort(rng.integers(0, n, size=(blk, 1, ctx.b)), axis=2)
            anchor_block = None if ctx.anchor_grads is None else ctx.anchor_grads[idx]
            noise_block = None
            if ctx.noise_factor is not None:
                noise_block = rng.normal(size=(blk, 1, ctx.dim))
                mask = rng.random(noise_block.shape) < 0.3
                noise_block[mask] = rng.choice(awkward, size=mask.sum())
                if trial % 2:
                    noise_block[:] = -0.0
            before = state.copy()
            full = np.full((blk + 2, 1, ctx.state_dim), np.nan)
            buf = full[1:-1]
            with np.errstate(all="ignore"):
                got = ctx.advance(state, records[idx], anchor_block, noise_block, buf)
                want = state
                for s in range(blk):
                    want = oracle(want, records[idx[s]],
                                  None if anchor_block is None else anchor_block[s],
                                  None if noise_block is None else noise_block[s])
                    assert np.array_equal(buf[s].view(np.int64), want.view(np.int64)), (
                        name, trial, s)
            assert got.shape == (1, ctx.state_dim), name
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (name, trial)
            assert np.array_equal(state.view(np.int64), before.view(np.int64)), name
            assert np.isnan(full[0]).all() and np.isnan(full[-1]).all(), name


def test_stationary_init_factors_its_covariance_once(monkeypatch):
    model, data, truth = models.generate_gaussian(30, 3, seed=2)
    cfg = TuningConfig(frak_h=1.0, c_h=2.0, frak_b=0.0, c_b=1.0, frak_t=1.0,
                       c_beta=2.0, seed=40)
    cov = np.array([[1.0, 0.3, 0.0], [0.3, 0.5, 0.1], [0.0, 0.1, 0.8]])
    factored = []
    real_psd_sqrt = engine.psd_sqrt

    def counting_psd_sqrt(m, *args, **kwargs):
        if np.array_equal(m, cov):
            factored.append(m)
        return real_psd_sqrt(m, *args, **kwargs)

    monkeypatch.setattr(engine, "psd_sqrt", counting_psd_sqrt)
    recs = engine.run_replicates(model, data, cfg, 5, n_steps=3,
                                 theta_hat=truth.theta_star, init=("stationary", cov))
    assert len(factored) == 1
    # each replicate still draws its start from its own init stream
    scale = 30.0 ** -recs[0].local_exponent
    for r, rec in enumerate(recs):
        init_ss = np.random.SeedSequence(cfg.seed + r).spawn(3)[2]
        z = np.random.Generator(np.random.Philox(init_ss)).standard_normal(3)
        want = truth.theta_star + scale * (real_psd_sqrt(cov) @ z)
        assert np.array_equal(rec.init_state, want), r


def test_non_flat_prior_enters_the_drift():
    # a noiseless step moves by (h/2) times the textbook drift, prior included
    model, data, _ = models.generate_gaussian(6, 2, seed=4)
    model = _prior_model(model)
    gamma = np.array([[1.5, 0.2], [0.2, 0.8]])
    theta, psi = np.array([0.3, -0.2]), np.array([0.5, 0.1])
    base = dict(frak_h=1.0, c_h=0.7, frak_b=0.0, c_b=2.0, gamma=gamma)
    plain = TuningConfig(**base)
    momentum = TuningConfig(variant=MOMENTUM, **base)
    h = plain.step_size(6)
    assert np.any(model.grad_prior(theta))
    for batch in oracles.enumerate_batches(6, 2, WITH_REPLACEMENT):
        batch = np.array(batch)
        drift = oracles.stochastic_gradient(model, data, theta, batch)
        got = oracles.step(model, data, plain, theta, batch)
        assert np.max(np.abs(got - (theta + 0.5 * h * gamma @ drift))) <= 1e-12
        got = oracles.step(model, data, momentum, np.concatenate([theta, psi]), batch)
        want = np.concatenate(
            [theta + 0.5 * h * psi, psi + 0.5 * h * drift - 0.5 * h * gamma @ psi]
        )
        assert np.max(np.abs(got - want)) <= 1e-12


def test_recording_plan_validation():
    with pytest.raises(ConfigError):
        RecordingPlan(thin=0)
    with pytest.raises(ConfigError):
        RecordingPlan(average_start=-1)


def test_empty_average_window_yields_none():
    model, data, _ = _gaussian_case(n=10, d=2, seed=5)
    cfg = TuningConfig(frak_h=1.0, c_h=1.0, frak_b=0.0, c_b=1.0, seed=1)
    record = engine.run(
        model, data, cfg, n_steps=5,
        init=np.zeros(2), recording=RecordingPlan(average_start=50),
    )
    assert record.avg_state is None


# ---------------------------------------------------------- initialization


def test_init_modes():
    model, data, truth = _gaussian_case(n=25, d=3, seed=41)
    theta_hat = np.array([0.1, 0.2, 0.3])
    cfg = TuningConfig(frak_h=1.0, c_h=1.0, frak_b=0.0, c_b=1.0, seed=12)
    # default: start at the anchor
    rec = engine.run(model, data, cfg, n_steps=1, theta_hat=theta_hat)
    assert np.array_equal(rec.init_state, theta_hat)
    # explicit array
    rec = engine.run(model, data, cfg, n_steps=1, init=np.array([9.0, 9.0, 9.0]))
    assert np.array_equal(rec.init_state, [9.0, 9.0, 9.0])
    # stationary draw with zero covariance degenerates to the anchor exactly
    rec = engine.run(
        model, data, cfg, n_steps=1, theta_hat=theta_hat,
        init=("stationary", np.zeros((3, 3))),
    )
    assert np.array_equal(rec.init_state, theta_hat)
    # stationary and overdispersed draws are seed-deterministic
    for mode in (("stationary", np.eye(3)), ("overdispersed", 3.0)):
        a = engine.run(model, data, cfg, n_steps=1, theta_hat=theta_hat, init=mode)
        b = engine.run(model, data, cfg, n_steps=1, theta_hat=theta_hat, init=mode)
        assert np.array_equal(a.init_state, b.init_state)
        assert not np.array_equal(a.init_state, theta_hat)
    # randomized modes need an anchor
    with pytest.raises(ConfigError, match="anchor"):
        engine.run(model, data, cfg, n_steps=1, init=("overdispersed", 2.0))
    with pytest.raises(ConfigError, match="init"):
        engine.run(model, data, cfg, n_steps=1, init=np.zeros(5))


def test_run_determinism_and_seed_sensitivity():
    model, data, _ = _gaussian_case(n=12, d=2, seed=3)
    cfg = TuningConfig(frak_h=1.0, c_h=1.0, frak_b=0.0, c_b=1.0,
                       frak_t=1.0, c_beta=1.0, seed=42)
    a = engine.run(model, data, cfg, n_steps=30, init=np.zeros(2))
    b = engine.run(model, data, cfg, n_steps=30, init=np.zeros(2))
    c = engine.run(model, data, cfg.with_seed(43), n_steps=30, init=np.zeros(2))
    assert np.array_equal(a.states, b.states)
    assert not np.array_equal(a.states, c.states)


def test_noiseless_and_noisy_runs_share_batch_sequences():
    # d = 1, two records far apart: the batch index at each step is readable
    # off the increment, so the index sequences can be compared in law
    records = np.array([[0.0], [10.0]])
    model = models.gaussian_location_model(1, np.array([1.0]))
    data = models.Dataset(records)
    common = dict(frak_h=0.0, c_h=0.2, frak_b=0.0, c_b=1.0, seed=314)
    sgd = TuningConfig(frak_t=math.inf, **common)
    sgld = TuningConfig(frak_t=0.0, c_beta=1e18, **common)

    def index_sequence(cfg):
        rec = engine.run(
            model, data, cfg, n_steps=200, init=np.zeros(1),
            recording=RecordingPlan(thin=1),
        )
        thetas = np.concatenate([[0.0], rec.states[:, 0]])
        out = []
        for k in range(200):
            d_obs = thetas[k + 1] - thetas[k]
            cands = [0.1 * (x - thetas[k]) for x in (0.0, 10.0)]
            out.append(int(np.argmin([abs(d_obs - c) for c in cands])))
        return out

    assert index_sequence(sgd) == index_sequence(sgld)


# ------------------------------------------------------------- constraints


def test_boundary_box_clips_every_iterate():
    model, data, _ = models.generate_gaussian(
        30, 2, seed=19, theta_star=np.array([5.0, -5.0])
    )
    box = (np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    cfg = TuningConfig(
        frak_h=0.0, c_h=0.8, frak_b=0.0, c_b=1.0,
        frak_t=0.0, c_beta=0.5, boundary=box, seed=23,
    )
    rec = engine.run(
        model, data, cfg, n_steps=300, init=np.zeros(2),
        recording=RecordingPlan(thin=1),
    )
    assert np.all(rec.states >= -1.0) and np.all(rec.states <= 1.0)
    # the drift pushes coordinate 0 against the upper face; it should sit there
    assert np.max(rec.states[100:, 0]) == 1.0


def test_dataset_hash_sensitivity():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((20, 3))
    assert dataset_hash(x) == dataset_hash(x.copy())
    y = x.copy()
    y[7, 1] += 1e-12
    assert dataset_hash(x) != dataset_hash(y)
    assert dataset_hash(x) != dataset_hash(x[:19])


def test_run_replicates_seeds():
    model, data, _ = _gaussian_case(n=10, d=2, seed=1)
    cfg = TuningConfig(frak_h=1.0, c_h=1.0, frak_b=0.0, c_b=1.0,
                       frak_t=1.0, c_beta=1.0, seed=100)
    recs = engine.run_replicates(model, data, cfg, 3, n_steps=10, init=np.zeros(2))
    assert len(recs) == 3
    direct = engine.run(
        model, data, cfg.with_seed(101), n_steps=10, init=np.zeros(2)
    )
    assert np.array_equal(recs[1].states, direct.states)
    assert [rec.manifest["seed"] for rec in recs] == [100, 101, 102]
    with pytest.raises(ConfigError):
        engine.run_replicates(model, data, cfg, 0, n_steps=1)


def test_run_replicates_builds_no_config_per_replicate(monkeypatch):
    # replicate r is cfg at seed cfg.seed + r: no TuningConfig is rebuilt, so
    # lambda's SPD check (an eigvalsh and an allclose) never reruns
    model, data, _ = _gaussian_case(n=10, d=2, seed=1)
    lam = np.array([[1.0, 0.2], [0.2, 0.5]])
    cfg = TuningConfig(frak_h=1.0, c_h=1.0, frak_t=1.0, c_beta=1.0, lam=lam, seed=9)
    checked = []
    real_check_spd = tuning._check_spd

    def counting_check_spd(*args, **kwargs):
        checked.append(args[0])
        return real_check_spd(*args, **kwargs)

    monkeypatch.setattr(tuning, "_check_spd", counting_check_spd)
    recs = engine.run_replicates(model, data, cfg, 50, n_steps=3, init=np.zeros(2))
    assert checked == []
    assert [rec.manifest["seed"] for rec in recs] == list(range(9, 59))
    tuning_dict = {k: v for k, v in cfg.to_dict().items() if k != "seed"}
    want = hashlib.sha256(json.dumps(tuning_dict, sort_keys=True).encode()).hexdigest()
    assert [rec.manifest["tuning_hash"] for rec in recs] == [want] * 50
    assert all("config" not in rec.manifest for rec in recs)


def test_tuning_hash_changes_with_every_field_but_the_seed():
    model, data, truth = _gaussian_case(n=10, d=2, seed=1)
    base = TuningConfig(frak_h=1.0, c_h=1.0, frak_t=1.0, c_beta=1.0, seed=5)
    spd = np.array([[1.0, 0.2], [0.2, 0.5]])
    changed = {
        "frak_h": 0.9, "frak_b": 0.1, "frak_t": 0.5, "c_h": 0.5, "c_b": 2.0, "c_beta": 2.0,
        "gamma": spd, "lam": spd, "policy": WITHOUT_REPLACEMENT, "variant": CONTROL_VARIATE,
        "boundary": (np.full(2, -5.0), np.full(2, 5.0)),
    }
    # every field of the tuning is covered, and only the seed is left out
    assert set(changed) | {"seed"} == {f.name for f in dataclasses.fields(TuningConfig)}

    def tuning_hash(cfg):
        (rec,) = engine.run_replicates(model, data, cfg, 1, n_steps=1,
                                       theta_hat=truth.theta_star)
        return rec.manifest["tuning_hash"]

    want = tuning_hash(base)
    assert tuning_hash(base.with_seed(2**40)) == want
    for name, value in changed.items():
        assert tuning_hash(dataclasses.replace(base, **{name: value})) != want, name
    # one entry of a matrix is enough
    bent = spd.copy()
    bent[0, 1] = bent[1, 0] = 0.25
    assert tuning_hash(dataclasses.replace(base, gamma=bent)) != tuning_hash(
        dataclasses.replace(base, gamma=spd))


def test_run_replicates_rejects_seeds_past_64_bits():
    model, data, _ = _gaussian_case(n=10, d=2, seed=1)
    base = dict(frak_h=1.0, c_h=1.0, frak_t=1.0, c_beta=1.0)
    with pytest.raises(ConfigError, match="64-bit"):
        engine.run_replicates(model, data, TuningConfig(seed=2**64 - 2, **base), 3,
                              n_steps=2, init=np.zeros(2))
    # the last seed a replicate may take is 2**64 - 1
    recs = engine.run_replicates(model, data, TuningConfig(seed=2**64 - 3, **base), 3,
                                 n_steps=2, init=np.zeros(2))
    assert [rec.manifest["seed"] for rec in recs] == [2**64 - 3, 2**64 - 2, 2**64 - 1]


def test_step_requires_noise_draw_exactly_when_noisy():
    model, data, _ = _gaussian_case(n=6, d=2, seed=0)
    noisy = TuningConfig(frak_h=1.0, c_h=1.0, frak_b=0.0, c_b=1.0,
                         frak_t=1.0, c_beta=1.0)
    with pytest.raises(ConfigError, match="xi"):
        oracles.step(model, data, noisy, np.zeros(2), np.array([0]))
    quiet = TuningConfig(frak_h=1.0, c_h=1.0, frak_b=0.0, c_b=1.0)
    out = oracles.step(model, data, quiet, np.zeros(2), np.array([0]))
    assert out.shape == (2,)


def test_control_variate_run_needs_anchor():
    model, data, _ = _gaussian_case(n=6, d=2, seed=0)
    cfg = TuningConfig(frak_h=1.0, c_h=1.0, frak_b=0.0, c_b=1.0,
                       variant=CONTROL_VARIATE)
    with pytest.raises(ConfigError, match="anchor"):
        engine.run(model, data, cfg, n_steps=2, init=np.zeros(2))
