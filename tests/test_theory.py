"""Large-sample prediction layer: regimes, limit matrices, covariances.

The two cross-route invariants live here: the algebraic identities tying
the stationary covariance to the diffusion pair, and the agreement between
the epoch-parameterized iterate-average prediction and the generic
limit-time path-average formula.
"""

import json
import math

import numpy as np
import pytest

import oracles
from sgalab import artifacts, config, inference, linalg, theory
from sgalab.errors import (
    DimensionError,
    RecommendationError,
    RegimeError,
    StabilityError,
)
from sgalab.theory import (
    avg_cov_exact,
    avg_cov_rescaled,
    marginal_cov,
    mixing_time,
    ou_params,
    predict,
    recommend_tuning,
    scaling_law,
    stationary_cov,
)
from sgalab.tuning import (
    CONTROL_VARIATE,
    MOMENTUM,
    WITH_REPLACEMENT,
    WITHOUT_REPLACEMENT,
    TuningConfig,
)


def _info(j_mat: np.ndarray, i_mat: np.ndarray):
    return inference.InfoMatrices(j_mat=j_mat, i_mat=i_mat)


def _random_instance(rng, d, noisy=False, frak_b=0.0):
    j_mat = oracles.random_spd(rng, d)
    i_mat = oracles.random_spd(rng, d)
    gamma = oracles.random_spd(rng, d, ridge=0.5)
    lam = oracles.random_spd(rng, d)
    cfg = TuningConfig(
        frak_h=1.0 - frak_b,
        frak_b=frak_b,
        frak_t=1.0 if noisy else math.inf,
        c_h=float(rng.uniform(0.5, 4.0)),
        c_b=float(rng.uniform(0.5, 3.0)),
        c_beta=float(rng.uniform(0.5, 3.0)) if noisy else math.inf,
        gamma=gamma,
        lam=lam,
    )
    return ou_params(cfg, j_mat, i_mat)


# ------------------------------------------------------------ scaling law


def test_scaling_law_minibatch_only():
    cfg = TuningConfig(frak_h=1.0, frak_b=0.0, frak_t=math.inf, c_h=3.0, c_b=2.0)
    law = scaling_law(cfg)
    assert law.local_exponent == 0.5
    assert law.minibatch_active and not law.gaussian_active
    assert law.c_gauss == 0.0
    assert law.c_minibatch == pytest.approx(9.0 / 8.0)  # c_h^2 / (4 c_b)
    assert law.batch_correction == 1.0


def test_scaling_law_all_sources_active():
    cfg = TuningConfig(frak_h=1.0, frak_b=0.0, frak_t=1.0,
                       c_h=2.0, c_b=1.0, c_beta=5.0)
    law = scaling_law(cfg)
    assert law.local_exponent == 0.5
    assert law.gaussian_active and law.minibatch_active
    assert law.c_gauss == pytest.approx(0.4)
    assert law.c_minibatch == pytest.approx(1.0)


def test_scaling_law_cold_noise_dominates():
    # frak_t below frak_b + frak_h: injected noise sets the local scale
    cfg = TuningConfig(frak_h=1.0, frak_b=0.0, frak_t=0.5, c_h=1.0, c_beta=1.0)
    law = scaling_law(cfg)
    assert law.local_exponent == 0.25
    assert law.gaussian_active
    assert not law.minibatch_active
    assert law.c_minibatch == 0.0


def test_scaling_law_balanced_exponents():
    cfg = TuningConfig(frak_h=0.5, frak_b=0.5, frak_t=math.inf, c_h=1.0, c_b=1.0)
    law = scaling_law(cfg)
    assert law.local_exponent == 0.5
    assert law.minibatch_active


def test_scaling_law_regime_errors():
    with pytest.raises(RegimeError, match="frak_h > 0"):
        scaling_law(TuningConfig(frak_h=0.0, frak_b=0.5, frak_t=math.inf))
    with pytest.raises(RegimeError, match="0 < w < 1"):
        scaling_law(TuningConfig(frak_h=1.0, frak_b=1.0, frak_t=math.inf))
    with pytest.raises(RegimeError, match="0 < w < 1"):
        scaling_law(TuningConfig(frak_h=1.0, frak_b=0.0, frak_t=0.0, c_beta=1.0))


def test_scaling_law_batch_correction():
    # exact full-batch fraction c_b at frak_b = 1 without replacement
    base = dict(frak_h=0.5, frak_b=1.0, frak_t=math.inf, c_h=1.0)
    wo = TuningConfig(policy=WITHOUT_REPLACEMENT, c_b=0.25, **base)
    law = scaling_law(wo)
    assert law.batch_correction == 0.75
    assert law.c_minibatch == pytest.approx(0.75 / 1.0)  # c_h^2 * 0.75 / (4 * 0.25)
    # the same schedule with replacement has no correction
    wr = TuningConfig(c_b=0.25, **base)
    assert scaling_law(wr).batch_correction == 1.0
    # exact full batch without replacement has zero minibatch noise
    full = TuningConfig(policy=WITHOUT_REPLACEMENT, c_b=1.0, **base)
    assert scaling_law(full).c_minibatch == 0.0
    with pytest.raises(RegimeError, match="negative"):
        scaling_law(TuningConfig(policy=WITHOUT_REPLACEMENT, c_b=1.5, **base))


def test_scaling_law_control_variate():
    cfg = TuningConfig(frak_h=1.0, frak_b=0.0, frak_t=1.0, c_h=2.0,
                       c_beta=0.5, variant=CONTROL_VARIATE)
    law = scaling_law(cfg)
    assert law.local_exponent == 0.5
    assert law.gaussian_active and not law.minibatch_active
    assert law.c_minibatch == 0.0
    assert law.c_gauss == pytest.approx(4.0)
    with pytest.raises(RegimeError, match="finite temperature"):
        scaling_law(
            TuningConfig(frak_h=1.0, frak_t=math.inf, variant=CONTROL_VARIATE)
        )


def test_scaling_law_matches_the_candidate_minimum_on_a_grid():
    # tenths make sums like 0.1 + 0.2 land an ulp off the grid's boundaries
    tenths = [k / 10 for k in range(16)]
    temperatures = [k / 10 for k in range(26)] + [math.inf]
    checked = 0
    for variant in ("plain", CONTROL_VARIATE):
        for frak_h in tenths:
            for frak_b in tenths[:13]:
                for frak_t in temperatures:
                    cfg = TuningConfig(frak_h=frak_h, frak_b=frak_b, frak_t=frak_t,
                                       variant=variant)
                    try:
                        want = oracles.candidate_scaling_regime(cfg)
                    except RegimeError as exc:
                        with pytest.raises(RegimeError) as got:
                            scaling_law(cfg)
                        # the same inequality fails on both routes
                        assert ("slowdown" in str(exc)) == ("frak_h > 0" in str(got.value))
                        continue
                    w, slowdown, drift, gaussian, minibatch = want
                    law = scaling_law(cfg)
                    key = (variant, frak_h, frak_b, frak_t)
                    assert law.local_exponent == w, key
                    assert law.gaussian_active == gaussian, key
                    assert law.minibatch_active == minibatch, key
                    assert drift, key
                    assert abs(slowdown - frak_h) <= 4 * math.ulp(frak_b + 2 * frak_h), key
                    checked += 1
    assert checked == 8523


def test_merged_diffusion_is_bitwise_the_guarded_sum():
    j_mat = np.array([[2.0, 0.3, 0.0], [0.3, 1.5, -0.2], [0.0, -0.2, 1.0]])
    i_mat = np.array([[1.0, -0.4, 0.2], [-0.4, 1.2, -0.3], [0.2, -0.3, 0.9]])
    gamma = np.array([[1.0, -0.1, 0.0], [-0.1, 0.8, 0.05], [0.0, 0.05, 1.1]])
    lam = np.diag([1.0, 0.0, 2.0])
    # the inactive terms, scaled by zero, carry -0.0 entries into the merged sum
    assert np.signbit(0.0 * (gamma @ i_mat @ gamma.T)).any()
    assert np.signbit(0.0 * gamma).any() and (lam == 0.0).any()
    cases = (
        dict(frak_t=1.0, c_beta=0.5, variant=CONTROL_VARIATE),  # control variates
        dict(c_b=2.0, variant=MOMENTUM),  # noiseless momentum
        dict(frak_t=0.5, c_beta=2.0),  # cold SGLD: frak_t < frak_b + frak_h
        dict(frak_t=1.0, c_beta=2.0, variant=MOMENTUM),  # both terms, momentum
        dict(frak_t=1.0, c_beta=2.0),  # both terms, plain
    )
    for case in cases:
        cfg = TuningConfig(frak_h=1.0, c_h=1.5, gamma=gamma, lam=lam, **case)
        ou = ou_params(cfg, j_mat, i_mat)
        want = oracles.guarded_diffusion(cfg, ou.law, i_mat, gamma, lam)
        assert np.array_equal(ou.a_mat.view(np.int64), want.view(np.int64)), case


# ---------------------------------------------------------- limit matrices


def test_ou_params_plain_construction():
    rng = np.random.default_rng(5)
    d = 3
    j_mat = oracles.random_spd(rng, d)
    i_mat = oracles.random_spd(rng, d)
    gamma = oracles.random_spd(rng, d)
    lam = oracles.random_spd(rng, d)
    cfg = TuningConfig(frak_h=1.0, frak_b=0.0, frak_t=1.0,
                       c_h=2.0, c_b=3.0, c_beta=4.0, gamma=gamma, lam=lam)
    ou = ou_params(cfg, j_mat, i_mat)
    assert np.allclose(ou.b_mat, 2.0 * gamma @ j_mat, atol=1e-14)
    c_mb = 4.0 / (4.0 * 3.0)
    want_a = c_mb * gamma @ i_mat @ gamma.T + 0.5 * lam
    assert np.allclose(ou.a_mat, 0.5 * (want_a + want_a.T), atol=1e-14)
    # noiseless: only the minibatch term remains
    quiet = ou_params(
        TuningConfig(frak_h=1.0, frak_b=0.0, c_h=2.0, c_b=3.0,
                     gamma=gamma, lam=lam),
        j_mat, i_mat,
    )
    want_quiet = c_mb * gamma @ i_mat @ gamma.T
    assert np.allclose(quiet.a_mat, 0.5 * (want_quiet + want_quiet.T), atol=1e-14)


def test_ou_params_control_variate_drops_minibatch_noise():
    rng = np.random.default_rng(6)
    d = 2
    j_mat = oracles.random_spd(rng, d)
    i_mat = oracles.random_spd(rng, d)
    lam = oracles.random_spd(rng, d)
    cfg = TuningConfig(frak_h=1.0, frak_b=0.0, frak_t=1.0, c_h=2.0,
                       c_beta=4.0, lam=lam, variant=CONTROL_VARIATE)
    ou = ou_params(cfg, j_mat, i_mat)
    assert np.allclose(ou.a_mat, 0.5 * lam, atol=1e-14)
    assert np.allclose(ou.b_mat, 2.0 * j_mat, atol=1e-14)


def test_ou_params_momentum_lift_blocks():
    rng = np.random.default_rng(7)
    d = 2
    j_mat = oracles.random_spd(rng, d)
    i_mat = oracles.random_spd(rng, d)
    gamma = oracles.random_spd(rng, d)
    cfg = TuningConfig(frak_h=1.0, frak_b=0.0, frak_t=1.0, c_h=1.5,
                       c_b=2.0, c_beta=3.0, gamma=gamma, variant=MOMENTUM)
    ou = ou_params(cfg, j_mat, i_mat)
    assert ou.state_dim == 4 and ou.dim == 2
    assert np.allclose(ou.b_mat[:2, :2], 0.0, atol=1e-15)
    assert np.allclose(ou.b_mat[:2, 2:], -1.5 * np.eye(2), atol=1e-14)
    assert np.allclose(ou.b_mat[2:, :2], 1.5 * j_mat, atol=1e-14)
    assert np.allclose(ou.b_mat[2:, 2:], 1.5 * gamma, atol=1e-14)
    c_mb = 1.5**2 / (4.0 * 2.0)
    c_g = 1.5 / 3.0
    want = c_mb * i_mat + c_g * gamma
    assert np.allclose(ou.a_mat[2:, 2:], 0.5 * (want + want.T), atol=1e-14)
    assert np.allclose(ou.a_mat[:2, :], 0.0, atol=1e-15)
    assert np.allclose(ou.a_mat[2:, :2], 0.0, atol=1e-15)


def test_ou_params_shape_validation():
    cfg = TuningConfig(frak_h=1.0)
    with pytest.raises(DimensionError):
        ou_params(cfg, np.eye(3), np.eye(2))


# --------------------------------------------------- stationary covariance


def test_stationary_cov_against_quadrature():
    rng = np.random.default_rng(8)
    for trial in range(5):
        ou = _random_instance(rng, d=3, noisy=trial % 2 == 0)
        q = stationary_cov(ou)
        margin = float(np.min(np.linalg.eigvals(ou.b_mat).real))
        assert margin > 0.1
        ref = oracles.quadrature_station_cov(ou.b_mat, ou.a_mat, margin)
        assert np.linalg.norm(q - ref) <= 1e-8 * (1.0 + np.linalg.norm(ref))


def test_stationary_cov_unstable_drift_raises():
    cfg = TuningConfig(frak_h=1.0, c_h=1.0, gamma=-np.eye(2))
    ou = ou_params(cfg, np.eye(2), np.eye(2))
    with pytest.raises(StabilityError, match="Hurwitz"):
        stationary_cov(ou)


def test_stationary_identities_random_instances():
    # Sym(B^-1 Q) = B^-1 A B^-T and Sym(B Q) = A for the Lyapunov solution
    rng = np.random.default_rng(9)
    for trial in range(20):
        ou = _random_instance(rng, d=2 + trial % 4, noisy=trial % 2 == 0)
        q = stationary_cov(ou)
        b_inv = np.linalg.solve(ou.b_mat, np.eye(ou.state_dim))
        lhs1 = linalg.sym(b_inv @ q)
        rhs1 = b_inv @ ou.a_mat @ b_inv.T
        scale1 = 1.0 + np.linalg.norm(rhs1)
        assert np.linalg.norm(lhs1 - 0.5 * (rhs1 + rhs1.T)) <= 1e-10 * scale1
        lhs2 = linalg.sym(ou.b_mat @ q)
        scale2 = 1.0 + np.linalg.norm(ou.a_mat)
        assert np.linalg.norm(lhs2 - ou.a_mat) <= 1e-10 * scale2


# ----------------------------------------------------- time-t covariance


def test_marginal_cov_relaxes_to_stationary():
    rng = np.random.default_rng(10)
    ou = _random_instance(rng, d=3, noisy=True)
    q_inf = stationary_cov(ou)
    far = marginal_cov(ou, 300.0)
    assert np.allclose(far, q_inf, atol=1e-10 * (1 + np.linalg.norm(q_inf)))
    assert np.array_equal(marginal_cov(ou, 0.0), np.zeros((3, 3)))
    with pytest.raises(DimensionError):
        marginal_cov(ou, -1.0)
    with pytest.raises(DimensionError):
        marginal_cov(ou, math.inf)


def test_marginal_cov_matches_quadrature_with_start():
    # the zero start: the limit process begins at its anchor
    rng = np.random.default_rng(11)
    ou = _random_instance(rng, d=3)
    t = 1.7
    got = marginal_cov(ou, t)
    ref = oracles.quadrature_marginal_cov(ou.b_mat, ou.a_mat, t)
    assert np.linalg.norm(got - ref) <= 1e-8 * (1.0 + np.linalg.norm(ref))


def test_marginal_cov_transient_drift_raises():
    # no stationary law, so no time-t covariance either; the second drift is
    # non-normal with one stable and one unstable direction
    for gamma in (-np.eye(2), np.array([[-1.0, 0.8], [0.0, 0.5]])):
        cfg = TuningConfig(frak_h=1.0, c_h=0.5, gamma=gamma)
        ou = ou_params(cfg, np.diag([1.0, 2.0]), np.eye(2))
        for t in (0.0, 1.0, 2.5):
            with pytest.raises(StabilityError, match="Hurwitz"):
                marginal_cov(ou, t)


# ------------------------------------------------------ path averaging


def test_avg_cov_exact_against_quadrature():
    rng = np.random.default_rng(12)
    for noisy, t in ((False, 1.0), (True, 5.0), (True, 0.7)):
        ou = _random_instance(rng, d=3, noisy=noisy)
        margin = float(np.min(np.linalg.eigvals(ou.b_mat).real))
        q_ref = oracles.quadrature_station_cov(ou.b_mat, ou.a_mat, margin)
        ref = oracles.quadrature_avg_cov(ou.b_mat, q_ref, t)
        got = avg_cov_exact(ou, t)
        assert np.linalg.norm(got - ref) <= 1e-8 * (1.0 + np.linalg.norm(ref))


def test_avg_cov_exact_asymptotic_forms():
    rng = np.random.default_rng(13)
    ou = _random_instance(rng, d=3, noisy=True)
    q_inf = stationary_cov(ou)
    # the closed form approaches each asymptotic form in its own regime
    small = oracles.small_t_avg_cov(ou.a_mat, q_inf, 1e-3)
    gap_small = np.linalg.norm(avg_cov_exact(ou, 1e-3) - small)
    assert gap_small <= 1e-4 * np.linalg.norm(q_inf)
    large = oracles.large_t_avg_cov(ou.b_mat, ou.a_mat, 1e4)
    gap_large = np.linalg.norm(avg_cov_exact(ou, 1e4) - large)
    assert gap_large <= 1e-3 * np.linalg.norm(large)
    with pytest.raises(DimensionError):
        avg_cov_exact(ou, 0.0)


def test_avg_cov_rescaled_matches_exact_route():
    # epoch parameterization against the limit-time formula at t = m / c_b
    rng = np.random.default_rng(14)
    for trial in range(50):
        ou = _random_instance(
            rng, d=2 + trial % 3, noisy=trial % 2 == 0, frak_b=0.25 * (trial % 3)
        )
        m = float(rng.uniform(0.5, 20.0))
        via_epochs = avg_cov_rescaled(ou, m).matrix
        via_time = avg_cov_exact(ou, m / ou.cfg.c_b)
        scale = 1.0 + np.linalg.norm(via_time)
        assert np.linalg.norm(via_epochs - via_time) <= 1e-10 * scale


def test_avg_cov_rescaled_simple_form_and_remainder():
    # no injected noise at unit work: (1/m) J^-1 I J^-1 plus a bounded tail
    rng = np.random.default_rng(15)
    j_mat = oracles.random_spd(rng, 3)
    i_mat = oracles.random_spd(rng, 3)
    gamma = np.linalg.inv(j_mat)
    cfg = TuningConfig(frak_h=1.0, frak_b=0.0, frak_t=math.inf,
                       c_h=4.0, c_b=1.0, gamma=gamma)
    ou = ou_params(cfg, j_mat, i_mat)
    for m in (1.0, 4.0, 16.0):
        res = avg_cov_rescaled(ou, m)
        sandwich = np.linalg.solve(j_mat, np.linalg.solve(j_mat, i_mat).T)
        assert np.allclose(
            res.simple, (1.0 / m) * 0.5 * (sandwich + sandwich.T), atol=1e-12
        )
        p_mat = gamma @ j_mat
        q_inf = stationary_cov(ou)
        tail = np.linalg.solve(p_mat, np.linalg.solve(p_mat, q_inf))
        want_bound = (8.0 * cfg.c_b**2 / (cfg.c_h**2 * m**2)) * np.linalg.norm(tail, 2)
        assert res.remainder_bound == pytest.approx(want_bound)
        gap = np.linalg.norm(res.matrix - res.simple, 2)
        assert gap <= res.remainder_bound * (1.0 + 1e-9)
    # with injected noise present the simple form is not advertised
    noisy = ou_params(
        TuningConfig(frak_h=1.0, frak_b=0.0, frak_t=1.0, c_h=4.0,
                     c_b=1.0, c_beta=2.0, gamma=gamma),
        j_mat, i_mat,
    )
    res = avg_cov_rescaled(noisy, 2.0)
    assert res.simple is None and res.remainder_bound is None
    assert res.in_stated_regime


def test_avg_cov_rescaled_regime_checks():
    j_mat = np.eye(2)
    cold = ou_params(
        TuningConfig(frak_h=1.0, frak_b=0.0, frak_t=0.5, c_h=1.0, c_beta=1.0),
        j_mat, j_mat,
    )
    with pytest.raises(RegimeError, match="frak_b [+] frak_h"):
        avg_cov_rescaled(cold, 2.0)
    hot = ou_params(
        TuningConfig(frak_h=1.0, frak_b=0.0, frak_t=1.5, c_h=1.0, c_beta=1.0),
        j_mat, j_mat,
    )
    res = avg_cov_rescaled(hot, 2.0)
    assert not res.in_stated_regime
    assert res.limit_time == 2.0
    mom = ou_params(
        TuningConfig(frak_h=1.0, frak_b=0.0, frak_t=1.0, c_h=1.0,
                     c_beta=1.0, variant=MOMENTUM),
        j_mat, j_mat,
    )
    with pytest.raises(RegimeError, match="plain"):
        avg_cov_rescaled(mom, 2.0)
    with pytest.raises(DimensionError):
        avg_cov_rescaled(hot, 0.0)


# ------------------------------------------------------------- mixing time


def test_mixing_time_formulas():
    j_mat = np.diag([1.0, 4.0])
    # preconditioning by J^-1 makes the drift factor c_h * identity
    cfg = TuningConfig(frak_h=1.0, frak_b=0.0, c_h=4.0, c_b=1.0,
                       gamma=np.linalg.inv(j_mat))
    ou = ou_params(cfg, j_mat, np.eye(2))
    mix = mixing_time(ou, 1000)
    assert mix.rate == pytest.approx(4.0)
    assert mix.epochs_iact == pytest.approx(1.0)
    assert mix.epochs_gap == pytest.approx(0.5)
    assert mix.iterations == pytest.approx(2.0 * 1000.0 / 4.0)
    # identity preconditioner: the smallest curvature eigenvalue slows mixing
    plain = ou_params(
        TuningConfig(frak_h=1.0, frak_b=0.0, c_h=4.0, c_b=1.0), j_mat, np.eye(2)
    )
    mix2 = mixing_time(plain, 1000)
    assert mix2.rate == pytest.approx(4.0 * 1.0)
    # batch growth shifts the epoch count by n^(frak_h + frak_b - 1)
    grown = ou_params(
        TuningConfig(frak_h=0.5, frak_b=0.5, c_h=4.0, c_b=2.0,
                     gamma=np.linalg.inv(j_mat)),
        j_mat, np.eye(2),
    )
    mix3 = mixing_time(grown, 10_000)
    assert mix3.epochs_iact == pytest.approx(4.0 * 2.0 / 4.0)
    assert mix3.iterations == pytest.approx(2.0 * 100.0 / 4.0)


def test_mixing_time_transient_drift_raises():
    cfg = TuningConfig(frak_h=1.0, c_h=1.0, gamma=-np.eye(2))
    ou = ou_params(cfg, np.eye(2), np.eye(2))
    with pytest.raises(StabilityError, match="transient"):
        mixing_time(ou, 100)


# -------------------------------------------------------- recommendations


def _random_info(seed=16, d=3):
    rng = np.random.default_rng(seed)
    return _info(oracles.random_spd(rng, d), oracles.random_spd(rng, d))


def test_recommend_local_fiducial():
    info = _random_info()
    rec = recommend_tuning("local_fiducial", info)
    assert rec.closure_residual <= 1e-9
    assert not rec.cfg.has_noise
    assert rec.cfg.c_h == pytest.approx(4.0)
    assert np.allclose(rec.cfg.gamma @ info.j_mat, np.eye(3), atol=1e-10)
    assert np.allclose(rec.target_cov, linalg.sandwich(info.j_mat, info.i_mat), atol=1e-10)
    assert np.allclose(rec.achieved_cov, rec.target_cov, atol=1e-9)


def test_recommend_bagged_and_weighted():
    info = _random_info(17)
    rec = recommend_tuning("bagged", info)
    inv_j = np.linalg.inv(info.j_mat)
    sandwich = linalg.sandwich(info.j_mat, info.i_mat)
    want = 0.5 * sandwich + 0.5 * inv_j
    assert np.allclose(rec.target_cov, want, atol=1e-10)
    assert rec.cfg.c_beta == pytest.approx(2.0)
    assert rec.cfg.frak_t == 1.0
    assert rec.cfg.c_h == pytest.approx(2.0)  # 4 * w1 * c_b with w1 = 1/2
    assert rec.closure_residual <= 1e-9

    rec2 = recommend_tuning("sandwich_weighted", info, w1=0.3, w2=0.7)
    want2 = 0.3 * sandwich + 0.7 * inv_j
    assert np.allclose(rec2.target_cov, want2, atol=1e-10)
    assert rec2.cfg.c_beta == pytest.approx(1.0 / 0.7)
    assert rec2.closure_residual <= 1e-9


def test_recommend_posterior_both_routes():
    info = _random_info(18)
    inv_j = np.linalg.inv(info.j_mat)
    fp = recommend_tuning("posterior", info)
    assert fp.cfg.variant == CONTROL_VARIATE
    assert fp.cfg.c_beta == pytest.approx(1.0)
    assert fp.cfg.frak_t == 1.0
    assert fp.cfg.c_h == pytest.approx(4.0)
    assert np.allclose(fp.achieved_cov, inv_j, atol=1e-9)
    assert fp.closure_residual <= 1e-9

    sgd = recommend_tuning("posterior", info, family="sgd")
    assert not sgd.cfg.has_noise
    assert sgd.cfg.variant == "plain"
    assert np.allclose(sgd.cfg.gamma @ info.i_mat, np.eye(3), atol=1e-10)
    assert np.allclose(sgd.achieved_cov, inv_j, atol=1e-9)


def test_recommend_batch_growth_variant():
    # the same targets are reachable with growing batches at unit work
    info = _random_info(19)
    rec = recommend_tuning("local_fiducial", info, frak_b=0.5, c_b=2.0)
    assert rec.cfg.frak_h == 0.5
    assert rec.cfg.c_h == pytest.approx(8.0)
    assert rec.closure_residual <= 1e-9


def test_recommend_rejections():
    info = _random_info(20)
    with pytest.raises(RecommendationError, match="w2"):
        recommend_tuning("sandwich_weighted", info, w1=0.5, w2=0.5, family="sgd")
    with pytest.raises(RecommendationError, match="both w1 and w2"):
        recommend_tuning("sandwich_weighted", info, w1=0.5)
    with pytest.raises(RecommendationError, match="equal weights"):
        recommend_tuning("bagged", info, w1=0.5, w2=0.3)
    with pytest.raises(RecommendationError, match="w1 > 0"):
        recommend_tuning("sandwich_weighted", info, w1=0.0, w2=0.5)
    with pytest.raises(RecommendationError, match="unreachable"):
        recommend_tuning("posterior", info, family="sgld")
    with pytest.raises(RecommendationError, match="unknown target"):
        recommend_tuning("fiducial", info)
    with pytest.raises(RecommendationError, match="frak_b"):
        recommend_tuning("local_fiducial", info, frak_b=1.0)
    bad = _info(np.diag([1.0, -1.0]), np.eye(2))
    with pytest.raises(RecommendationError, match="positive definite"):
        recommend_tuning("local_fiducial", bad)


def test_recommendation_mixing_epochs_is_the_mixing_time_at_any_n():
    # at unit work the predicted mixing time in epochs does not depend on n
    info = _random_info(21)
    routes = (
        {"target": "local_fiducial"},
        {"target": "sandwich_weighted", "w1": 0.3, "w2": 0.7},
        {"target": "bagged"},
        {"target": "posterior"},
        {"target": "posterior", "family": "sgd"},
    )
    for route in routes:
        for frak_b, c_b in ((0.0, 1.0), (0.5, 2.0)):
            rec = recommend_tuning(info=info, frak_b=frak_b, c_b=c_b, **route)
            ou = ou_params(rec.cfg, info.j_mat, info.i_mat)
            for n in (10, 10_000):
                want = mixing_time(ou, n).epochs_iact
                assert rec.mixing_epochs == pytest.approx(want, rel=1e-12), route


# ------------------------------------------------------- prediction bundle


def test_predict_bundle_round_trip():
    rng = np.random.default_rng(21)
    j_mat = oracles.random_spd(rng, 2)
    i_mat = oracles.random_spd(rng, 2)
    cfg = TuningConfig(frak_h=1.0, frak_b=0.0, frak_t=math.inf, c_h=2.0, c_b=1.0)
    report = predict(cfg, j_mat, i_mat, n=500, m_values=(1.0, 4.0), t_grid=(0.5, 2.0))
    assert set(report.averages) == {1.0, 4.0}
    assert set(report.marginals) == {0.5, 2.0}
    assert report.average_errors == {}
    assert np.allclose(report.q_inf, stationary_cov(report.ou), atol=1e-14)
    blob = report.to_json_dict()
    assert json.loads(artifacts.json_text(blob))["config"]["frak_t"] == "inf"
    assert blob["n"] == 500
    assert "1.0" in blob["averages"] and "0.5" in blob["marginals"]


def test_predict_solves_the_lyapunov_equation_once(monkeypatch):
    calls = []
    solve = linalg.solve_lyapunov

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(linalg, "solve_lyapunov", counted)
    rng = np.random.default_rng(22)
    cfg = TuningConfig(frak_h=1.0, frak_b=0.0, frak_t=math.inf, c_h=2.0, c_b=1.0)
    report = predict(cfg, oracles.random_spd(rng, 3), oracles.random_spd(rng, 3), n=500,
                     m_values=(1.0, 8.0), t_grid=(0.25, 0.5, 1.0, 2.0))
    assert set(report.averages) == {1.0, 8.0} and len(report.marginals) == 4
    assert len(calls) == 1


def test_predict_records_per_horizon_failures():
    # cold injected noise: every rescaled-average request is out of regime
    cfg = TuningConfig(frak_h=1.0, frak_b=0.0, frak_t=0.5, c_h=1.0, c_beta=1.0)
    report = predict(cfg, np.eye(2), np.eye(2), n=100, m_values=(1.0, 8.0))
    assert report.averages == {}
    assert set(report.average_errors) == {1.0, 8.0}
    assert "frak_t" in report.average_errors[1.0]


# --------------------------------------------------- exact finite-n law


@pytest.mark.parametrize("n", [100, 1000])
@pytest.mark.parametrize("c_h", [1.0, 4.0])
def test_ou_prediction_against_the_exact_finite_n_law(n, c_h):
    # plain SGD, b = 1 with replacement, on the Gaussian location family: a
    # linear recursion whose exact stationary covariance solves a Stein equation
    for gamma in ("jhat_inv", "identity"):
        setup = config.resolve_setup({
            "model": {"family": "gaussian_location", "n": n, "d": 10, "data_seed": 101},
            "tuning": {"frak_h": 1.0, "frak_b": 0.0, "c_h": c_h, "c_b": 1.0, "gamma": gamma},
            "execution": {"epochs": 1.0},
        })
        cfg, info = setup.cfg, setup.prediction_info
        h, b = cfg.step_size(n), cfg.batch_size(n)
        assert b == 1 and cfg.policy == WITH_REPLACEMENT and not cfg.has_noise
        m, c = oracles.gaussian_sgd_recursion(
            setup.data.records, setup.model.params["weights"],
            np.eye(10) if cfg.gamma is None else cfg.gamma, h, b,
        )
        exact = n * oracles.exact_linear_stationary_cov(m, c)
        q_inf = predict(cfg, info.j_mat, info.i_mat, n).q_inf
        if gamma == "jhat_inv":
            # M is (1 - h/2) I, so the exact law is the OU law over 1 - h/4
            assert np.linalg.norm(exact * (1 - h / 4) - q_inf) <= 1e-10 * np.linalg.norm(q_inf)
        else:
            # the OU law's relative gap is O(h) = O(c_h / n)
            gap = np.linalg.norm(exact - q_inf) / np.linalg.norm(q_inf)
            assert 0.15 <= gap * n / c_h <= 0.17


@pytest.mark.parametrize("n", [100, 1000])
@pytest.mark.parametrize("c_h", [1.0, 4.0])
@pytest.mark.parametrize("variant, band", [
    # gap * n / c_h measured over both n and c_h: 0.1135-0.1355 (SGLD),
    # 0.1066-0.1071 (control-variate)
    ("plain", (0.11, 0.14)),
    ("control_variate", (0.10, 0.11)),
])
def test_ou_prediction_against_the_exact_finite_n_law_with_noise(n, c_h, variant, band):
    # SGLD (inverse temperature 2n) and its control-variate form, b = 1 with
    # replacement: the exact law adds (h/beta) Lambda to C, and the
    # control-variate chain has no minibatch term
    for gamma in ("jhat_inv", "identity"):
        setup = config.resolve_setup({
            "model": {"family": "gaussian_location", "n": n, "d": 10, "data_seed": 101},
            "tuning": {"frak_h": 1.0, "frak_b": 0.0, "frak_t": 1.0, "c_h": c_h, "c_b": 1.0,
                       "c_beta": 2.0, "gamma": gamma, "lambda": gamma, "variant": variant},
            "execution": {"epochs": 1.0},
        })
        cfg, info = setup.cfg, setup.prediction_info
        h, b = cfg.step_size(n), cfg.batch_size(n)
        assert b == 1 and cfg.policy == WITH_REPLACEMENT and cfg.has_noise
        m, c = oracles.gaussian_sgd_recursion(
            setup.data.records, setup.model.params["weights"],
            np.eye(10) if cfg.gamma is None else cfg.gamma, h, b,
            beta=cfg.inverse_temperature(n), lam=cfg.lam,
            control_variate=variant == "control_variate",
        )
        exact = n * oracles.exact_linear_stationary_cov(m, c)
        q_inf = predict(cfg, info.j_mat, info.i_mat, n).q_inf
        if gamma == "jhat_inv":
            # M is (1 - h/2) I again; residuals measured 8e-16 to 1.1e-13
            assert np.linalg.norm(exact * (1 - h / 4) - q_inf) <= 1e-10 * np.linalg.norm(q_inf)
        else:
            gap = np.linalg.norm(exact - q_inf) / np.linalg.norm(q_inf)
            assert band[0] <= gap * n / c_h <= band[1]


def test_exact_average_cov_is_the_direct_lag_sum():
    # the closed form against sum_{i,j} Cov(x_i, x_j) / T^2, lag-k covariance M^k Q
    rng = np.random.default_rng(7)
    a = rng.standard_normal((3, 3))
    m = 0.5 * a / np.max(np.abs(np.linalg.eigvals(a)))
    c = oracles.random_spd(rng, 3)
    q = oracles.exact_linear_stationary_cov(m, c)
    for t in (1, 2, 7):
        lag = [np.linalg.matrix_power(m, k) @ q for k in range(t)]
        direct = sum(lag[i - j] if i >= j else lag[j - i].T
                     for i in range(t) for j in range(t)) / t**2
        np.testing.assert_allclose(oracles.exact_linear_average_cov(m, c, t), direct,
                                   rtol=0, atol=1e-12 * np.linalg.norm(q))


@pytest.mark.parametrize("n", [100, 1000])
@pytest.mark.parametrize("c_h, m_epochs, band", [
    # gap * n / c_h measured at n = 100 and 1000: 0.2119-0.2139, 0.07527-0.07547,
    # 0.1310-0.1331 and 0.01668-0.01683, so the gap is O(c_h / n)
    (1.0, 1.0, (0.210, 0.215)),
    (1.0, 8.0, (0.0750, 0.0760)),
    (4.0, 1.0, (0.130, 0.134)),
    (4.0, 8.0, (0.0165, 0.0170)),
])
def test_average_prediction_against_the_exact_finite_n_law(n, c_h, m_epochs, band):
    # plain SGD, b = 1 with replacement, Gamma = Jhat^-1: the mean of the
    # m * n iterates after a stationary start, the window an averaging tree
    # with init = stationary records
    setup = config.resolve_setup({
        "model": {"family": "gaussian_location", "n": n, "d": 10, "data_seed": 101},
        "tuning": {"frak_h": 1.0, "frak_b": 0.0, "c_h": c_h, "c_b": 1.0, "gamma": "jhat_inv"},
        "execution": {"epochs": 1.0},
    })
    cfg, info = setup.cfg, setup.prediction_info
    h, b = cfg.step_size(n), cfg.batch_size(n)
    assert b == 1 and cfg.policy == WITH_REPLACEMENT and not cfg.has_noise
    m, c = oracles.gaussian_sgd_recursion(
        setup.data.records, setup.model.params["weights"], cfg.gamma, h, b,
    )
    exact = n * oracles.exact_linear_average_cov(m, c, round(m_epochs * n / b))
    predicted = avg_cov_rescaled(ou_params(cfg, info.j_mat, info.i_mat), m_epochs).matrix
    # M is (1 - h/2) I, so the exact law is a multiple of the prediction
    ratio = np.trace(exact) / np.trace(predicted)
    scale = np.linalg.norm(predicted)
    assert np.linalg.norm(exact - ratio * predicted) <= 1e-10 * scale
    gap = np.linalg.norm(exact - predicted) / scale
    assert band[0] <= gap * n / c_h <= band[1]
