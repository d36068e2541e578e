"""Matrix-kernel checks against slow independent oracles."""

import numpy as np
import pytest

import oracles
from sgalab import inference, linalg, models
from sgalab.errors import StabilityError


def test_eigenvalues_against_charpoly_oracle():
    rng = np.random.default_rng(20)
    for trial in range(20):
        d = int(rng.integers(2, 9))
        m = rng.standard_normal((d, d))
        got = linalg.min_real_eig(m)
        want = oracles.charpoly_eigenvalues(m)
        scale = 1.0 + np.abs(want).max()
        assert abs(got - want.real.min()) / scale < 1e-7, f"trial {trial}"


def test_min_real_eig_matches_spectrum():
    rng = np.random.default_rng(21)
    for _ in range(10):
        m = rng.standard_normal((5, 5))
        assert linalg.min_real_eig(m) == pytest.approx(
            np.linalg.eigvals(m).real.min(), rel=1e-9, abs=1e-9
        )


def test_is_hurwitz():
    # m is Hurwitz exactly when min_real_eig(-m) exceeds HURWITZ_EPS
    assert linalg.min_real_eig(-np.diag([-1.0, -2.0])) > linalg.HURWITZ_EPS
    assert not linalg.min_real_eig(-np.diag([-1.0, 2.0])) > linalg.HURWITZ_EPS
    assert not linalg.min_real_eig(-np.zeros((2, 2))) > linalg.HURWITZ_EPS


def test_sandwich_matches_the_naive_inverse_product():
    rng = np.random.default_rng(57)
    j = oracles.random_spd(rng, 3)
    i = oracles.random_spd(rng, 3)
    want = np.linalg.solve(j, i) @ np.linalg.inv(j)
    assert np.allclose(linalg.sandwich(j, i), want, atol=1e-12)
    # curvature and score covariance of a logistic fit, from per-record loops
    model, data, _ = models.generate_logistic(250, 3, seed=55)
    theta = inference.fit_mle(model, data).theta_hat
    scores = model.grad(theta, data.records)
    j = -np.mean(oracles.per_record_hess(model, theta, data.records), axis=0)
    i = scores.T @ scores / data.n
    want = np.linalg.solve(j, i) @ np.linalg.inv(j)
    assert np.allclose(linalg.sandwich(j, i), want, atol=1e-10)


def test_expm_against_taylor_oracle():
    rng = np.random.default_rng(22)
    for _ in range(15):
        d = int(rng.integers(2, 9))
        m = rng.standard_normal((d, d)) * rng.uniform(0.1, 3.0)
        got = linalg.expm(m)
        want = oracles.taylor_expm(m)
        assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-12


def test_expm_identity_cases():
    assert np.allclose(linalg.expm(np.zeros((3, 3))), np.eye(3))
    m = np.diag([1.0, -2.0])
    assert np.allclose(linalg.expm(m), np.diag(np.exp([1.0, -2.0])))


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(23)
    for _ in range(10):
        d = int(rng.integers(1, 7))
        m = oracles.random_spd(rng, d)
        root = linalg.psd_sqrt(m)
        assert np.allclose(root @ root.T, m, atol=1e-12, rtol=1e-12)


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(StabilityError):
        linalg.psd_sqrt(np.diag([1.0, -0.5]))


def test_psd_sqrt_clamps_tiny_negatives():
    m = np.diag([1.0, -1e-14])
    root = linalg.psd_sqrt(m)
    assert np.all(np.isfinite(root))


def test_sym():
    m = np.array([[1.0, 2.0], [0.0, 3.0]])
    assert np.allclose(linalg.sym(m), [[1.0, 1.0], [1.0, 3.0]])


def test_matvec_slices_equal_unstacked_products_bitwise():
    rng = np.random.default_rng(25)
    for d in (1, 3, 10, 25):
        shared = rng.standard_normal((d, d))
        stacked = rng.standard_normal((4, 6, d))
        vecs = rng.standard_normal((4, d))
        got = np.matvec(shared, vecs)
        assert got.shape == (4, d)
        got_stacked = np.matvec(stacked, vecs)
        assert got_stacked.shape == (4, 6)
        for r in range(4):
            assert np.array_equal(got[r], shared @ vecs[r]), d
            assert np.array_equal(got_stacked[r], stacked[r] @ vecs[r]), d


def test_solve_lyapunov_residual_small():
    rng = np.random.default_rng(24)
    cases = []
    for _ in range(20):
        d = int(rng.integers(1, 9))
        cases.append(
            (oracles.random_stable(rng, d, margin=0.4), oracles.random_spd(rng, d))
        )
    # momentum lift at state dimension 48 and 60: non-normal block drift
    # [[0, -I], [J, Gamma]] with noise in the momentum block only
    for d in (24, 30):
        b = np.zeros((2 * d, 2 * d))
        b[:d, d:] = -np.eye(d)
        b[d:, :d] = oracles.random_spd(rng, d)
        b[d:, d:] = oracles.random_spd(rng, d)
        a = np.zeros((2 * d, 2 * d))
        a[d:, d:] = oracles.random_spd(rng, d)
        cases.append((b, a))
    for b, a in cases:
        q = linalg.solve_lyapunov(b, a)
        resid = 0.5 * (b @ q) + 0.5 * (q @ b.T) - a
        assert np.linalg.norm(resid) < 1e-9 * (1.0 + np.linalg.norm(a))
        assert np.allclose(q, q.T)


def test_solve_lyapunov_against_quadrature_oracle():
    rng = np.random.default_rng(25)
    for _ in range(5):
        d = int(rng.integers(2, 7))
        b = oracles.random_stable(rng, d, margin=0.6)
        a = oracles.random_spd(rng, d)
        got = linalg.solve_lyapunov(b, a)
        want = oracles.quadrature_station_cov(b, a, margin=0.6)
        assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-8


def test_solve_lyapunov_non_hurwitz_raises():
    with pytest.raises(StabilityError, match="Hurwitz"):
        linalg.solve_lyapunov(np.diag([1.0, -1.0]), np.eye(2))


@pytest.mark.parametrize("eps, unstable",
                         [(0.0, True), (5e-13, True), (2e-12, False), (1e-3, False)])
def test_solve_lyapunov_raises_exactly_where_the_stability_test_fails(eps, unstable):
    b = np.diag([eps, 1.0])
    assert (linalg.min_real_eig(b) <= linalg.HURWITZ_EPS) == unstable
    if unstable:
        with pytest.raises(StabilityError, match=r"not Hurwitz \(min real eigenvalue of B is "):
            linalg.solve_lyapunov(b, np.eye(2))
    else:
        q = linalg.solve_lyapunov(b, np.eye(2))
        assert np.allclose(q, np.diag([1.0 / eps, 1.0]))


def test_solve_lyapunov_warns_on_asymmetric_rhs():
    b = np.diag([1.0, 2.0])
    a = np.array([[1.0, 0.3], [0.1, 1.0]])
    with pytest.warns(UserWarning):
        q = linalg.solve_lyapunov(b, a)
    sym_a = 0.5 * (a + a.T)
    resid = 0.5 * (b @ q) + 0.5 * (q @ b.T) - sym_a
    assert np.linalg.norm(resid) < 1e-10

