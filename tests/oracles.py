"""Independent reference implementations used as test oracles.

Everything here is deliberately slow and simple: characteristic-polynomial
eigenvalues, Taylor-series matrix exponentials, brute-force quadrature and
the asymptotic path-average forms, per-family log-likelihoods, enumerated
batch spaces, the textbook drift estimate, the engine's step in expression
form, the exact finite-n stationary law of linear-gradient chains (a Stein
equation, Q = M Q Mᵀ + C), coordinate-descent fitting, the scaling regime
as a minimum over candidate slowdown exponents and the limit diffusion summed
only over its surviving terms.
Production code must agree with these within stated tolerances; none of
these routines may call the routines they are checking.  ``step`` is the
one exception: the engine's reference single transition, which no command
needs, kept here so that replay tests can check the run loop around it.
``trace_indices`` lists the traces a directory holds.  ``save_csv``
writes the CSV inputs some tests feed to the loader; ``savetxt_table`` is
the ``np.savetxt`` route that trace and ACF tables must match byte for byte,
and ``json_dumps_artifact`` the ``json.dumps`` route JSON artifacts must match.
"""

from __future__ import annotations

import csv
import glob
import itertools
import json
import math
import os

import numpy as np
import scipy.linalg

from sgalab.engine import _build_context
from sgalab.errors import ConfigError, DimensionError, RegimeError


def random_spd(rng: np.random.Generator, d: int, ridge: float = 0.1) -> np.ndarray:
    """Random symmetric positive definite matrix, eigenvalues O(1)."""
    g = rng.standard_normal((d, d))
    return g @ g.T / d + ridge * np.eye(d)


def random_stable(
    rng: np.random.Generator, d: int, margin: float = 0.5
) -> np.ndarray:
    """Random B whose eigenvalues all have real part >= margin."""
    g = rng.standard_normal((d, d))
    shift = margin - min(np.linalg.eigvals(g).real.min(), 0.0)
    return g + shift * np.eye(d)


# ---------------------------------------------------------------- spectra


def charpoly_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues via Faddeev-LeVerrier coefficients and polynomial roots.

    Numerically poor beyond small d, which is fine for an oracle on d <= 8.
    Returned sorted by (real, imag).
    """
    m = np.asarray(m, dtype=float)
    d = m.shape[0]
    coeffs = np.empty(d + 1)
    coeffs[0] = 1.0
    aux = np.eye(d)
    for k in range(1, d + 1):
        aux = m @ aux
        coeffs[k] = -np.trace(aux) / k
        aux = aux + coeffs[k] * np.eye(d)
    roots = np.roots(coeffs)
    order = np.lexsort((roots.imag, roots.real))
    return roots[order]


def taylor_expm(m: np.ndarray, terms: int = 60) -> np.ndarray:
    """Matrix exponential by scaling, Taylor summation, and squaring."""
    m = np.asarray(m, dtype=float)
    d = m.shape[0]
    norm = np.linalg.norm(m, ord=np.inf)
    squarings = max(0, int(math.ceil(math.log2(norm))) + 1) if norm > 0 else 0
    a = m / (2.0**squarings)
    out = np.eye(d)
    term = np.eye(d)
    for k in range(1, terms + 1):
        term = term @ a / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def _simpson_propagated_block(
    b_mat: np.ndarray,
    a_mat: np.ndarray,
    e_start: np.ndarray,
    lo: float,
    hi: float,
    panels: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Simpson sum of exp(-t B/2) A exp(-t B^T/2) over [lo, hi].

    ``e_start`` must equal exp(-lo B/2); the propagator is advanced one
    panel at a time by the semigroup property, so the only exponential
    evaluated directly is the one-panel step.  Returns the block integral
    and the propagator at ``hi``.
    """
    h = (hi - lo) / panels
    e_step = taylor_expm(-0.5 * h * b_mat)
    e = e_start
    total = e @ a_mat @ e.T
    for k in range(1, panels + 1):
        e = e @ e_step
        weight = 1.0 if k == panels else (4.0 if k % 2 else 2.0)
        total = total + weight * (e @ a_mat @ e.T)
    return total * (h / 3.0), e


def _dyadic_blocks(horizon: float) -> list[tuple[float, float]]:
    """[0,1], [1,2], [2,4], ... doubling spans up to the horizon."""
    edges = [0.0]
    edge = 1.0
    while edge < horizon:
        edges.append(edge)
        edge *= 2.0
    edges.append(horizon)
    return list(zip(edges[:-1], edges[1:]))


def quadrature_station_cov(
    b_mat: np.ndarray,
    a_mat: np.ndarray,
    margin: float,
    horizon_factor: float = 70.0,
    panels_per_block: int = 512,
) -> np.ndarray:
    """Stationary covariance by direct time integration of the propagator.

    Graded composite Simpson on dyadic blocks of [0, T]: fine steps where
    the integrand varies, with T large enough that the dropped tail is
    negligible given that every eigenvalue of B has real part >= margin.
    """
    horizon = horizon_factor / margin
    total = np.zeros_like(np.asarray(a_mat, dtype=float))
    e = np.eye(b_mat.shape[0])
    for lo, hi in _dyadic_blocks(horizon):
        part, e = _simpson_propagated_block(
            b_mat, a_mat, e, lo, hi, panels_per_block
        )
        total = total + part
    return total


def quadrature_marginal_cov(
    b_mat: np.ndarray, a_mat: np.ndarray, t: float, panels: int = 2048
) -> np.ndarray:
    """Finite-horizon covariance integral from a zero start."""
    part, _ = _simpson_propagated_block(
        b_mat, a_mat, np.eye(b_mat.shape[0]), 0.0, t, panels
    )
    return part


def quadrature_avg_cov(
    b_mat: np.ndarray, q_inf: np.ndarray, t: float, panels: int = 4096
) -> np.ndarray:
    """Path-average covariance over [0, t] from a stationary start.

    Direct Simpson evaluation of
    ``(1/t^2) * int_0^t (t - s) [E(s) Q + Q E(s)^T] ds`` with
    ``E(s) = exp(-s B / 2)``, which is the double time integral of the
    stationary autocovariance collapsed to one dimension.  ``q_inf`` is
    supplied by the caller so this route shares no code with the
    closed-form implementation under test.
    """
    h = t / panels
    e_step = taylor_expm(-0.5 * h * b_mat)
    e = np.eye(b_mat.shape[0])
    total = t * (e @ q_inf + q_inf @ e.T)  # s = 0 endpoint, weight 1
    for k in range(1, panels + 1):
        e = e @ e_step
        weight = 1.0 if k == panels else (4.0 if k % 2 else 2.0)
        pair = e @ q_inf + q_inf @ e.T
        total = total + weight * (t - k * h) * pair
    return total * (h / 3.0) / t**2


def small_t_avg_cov(a_mat: np.ndarray, q_inf: np.ndarray, t: float) -> np.ndarray:
    """Path-average covariance for ``t`` well below the relaxation time.

    ``Q_inf - (t/6) A``: the stationary covariance less the first-order
    loss of variance from averaging over a short window.
    """
    return q_inf - (t / 6.0) * a_mat


def large_t_avg_cov(b_mat: np.ndarray, a_mat: np.ndarray, t: float) -> np.ndarray:
    """Path-average covariance for ``t`` well above the relaxation time.

    ``(4/t) B^-1 A B^-T``: the long-run variance of the limit process
    divided by the window length.
    """
    b_inv = np.linalg.inv(b_mat)
    out = (4.0 / t) * (b_inv @ a_mat @ b_inv.T)
    return 0.5 * (out + out.T)


# ------------------------------------------------------ log-likelihoods


def loglik(model, theta: np.ndarray, records: np.ndarray) -> np.ndarray:
    """Per-record log-likelihood ``(m,)`` from each family's stated formula.

    The package evaluates only scores; these are the functions the scores
    must be gradients of.  Additive terms that depend on the data alone
    (the Gaussian constant, Poisson's ``-log(y!)``) are dropped.
    """
    theta = np.asarray(theta, dtype=float)
    if model.family == "gaussian_location":
        resid = records - theta
        return -0.5 * (resid * resid) @ model.params["weights"]
    x, y = records[:, :-1], records[:, -1]
    z = x @ theta
    if model.family == "logistic":
        return y * z - np.logaddexp(0.0, z)
    if model.family == "poisson":
        with np.errstate(over="ignore"):
            return y * z - np.exp(z)
    raise ValueError(f"no log-likelihood for family {model.family!r}")


# ------------------------------------------------------- finite differences


def fd_gradient(fun, theta: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function."""
    theta = np.asarray(theta, dtype=float)
    out = np.empty_like(theta)
    for j in range(theta.size):
        up = theta.copy()
        dn = theta.copy()
        up[j] += eps
        dn[j] -= eps
        out[j] = (fun(up) - fun(dn)) / (2.0 * eps)
    return out


def fd_jacobian(vec_fun, theta: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of a vector function."""
    theta = np.asarray(theta, dtype=float)
    base = np.asarray(vec_fun(theta))
    out = np.empty((base.size, theta.size))
    for j in range(theta.size):
        up = theta.copy()
        dn = theta.copy()
        up[j] += eps
        dn[j] -= eps
        out[:, j] = (np.asarray(vec_fun(up)) - np.asarray(vec_fun(dn))) / (2.0 * eps)
    return out


def per_record_hess(model, theta: np.ndarray, records: np.ndarray) -> np.ndarray:
    """Per-record Hessian stack ``(m, dim, dim)`` from each family's formula.

    The package only needs the record average (``ModelSpec.hess_mean``);
    this stack is the reference that average and the score are checked
    against.
    """
    m, d = records.shape[0], model.dim
    if model.family == "gaussian_location":
        return np.broadcast_to(-np.diag(model.params["weights"]), (m, d, d))
    x = records[:, :-1]
    z = x @ theta
    if model.family == "logistic":
        s = np.exp(-np.logaddexp(0.0, -z))
        v = s * (1.0 - s)
    elif model.family == "poisson":
        with np.errstate(over="ignore"):
            v = np.exp(z)
    else:
        raise ValueError(f"no Hessian formula for family {model.family!r}")
    return -v[:, None, None] * (x[:, :, None] * x[:, None, :])


# ------------------------------------------------------------ scaling law


def candidate_scaling_regime(cfg) -> tuple[float, float, bool, bool, bool]:
    """``(w, slowdown, drift, gaussian, minibatch)``: the regime as a minimum over candidates.

    With ``t`` the temperature exponent and ``w = min(frak_b + frak_h, t) / 2``
    (``t / 2`` with control variates), the slowdown exponent is the smallest of
    the drift's ``frak_h``, the injected noise's ``frak_h + t - 2w`` and the
    minibatch noise's ``frak_b + 2 frak_h - 2w`` (with control variates the
    minibatch noise is lower-order and the slowdown is ``frak_h``); a term
    survives when its candidate is within 1e-12 of the minimum.  Raises
    ``RegimeError`` unless ``slowdown > 0`` and ``0 < w < 1``.
    """
    h, b, t = cfg.frak_h, cfg.frak_b, cfg.temperature_exponent
    if cfg.variant == "control_variate":
        if math.isinf(t):
            raise RegimeError("control variates need a finite temperature exponent")
        w = 0.5 * t
        slowdown, drift, gaussian, minibatch = h, True, True, False
    else:
        w = 0.5 * min(b + h, t)
        cand_gauss = h + t - 2.0 * w if math.isfinite(t) else math.inf
        cand_minibatch = b + 2.0 * h - 2.0 * w
        slowdown = min(h, cand_gauss, cand_minibatch)
        drift, gaussian, minibatch = (
            c <= slowdown + 1e-12 for c in (h, cand_gauss, cand_minibatch)
        )
    if not slowdown > 0.0:
        raise RegimeError(f"slowdown exponent {slowdown} violates slowdown > 0")
    if not 0.0 < w < 1.0:
        raise RegimeError(f"local scale exponent w = {w} violates 0 < w < 1")
    return w, slowdown, drift, gaussian, minibatch


def guarded_diffusion(cfg, law, i_mat, gamma, lam) -> np.ndarray:
    """The symmetrised limit diffusion, each noise term added only where it survives.

    Momentum carries ``I`` and ``Gamma`` in the lower-right block of the doubled
    state; control variates carry the injected noise alone.
    """
    d = i_mat.shape[0]
    if cfg.variant == "momentum":
        a_mat = np.zeros((2 * d, 2 * d))
        if law.minibatch_active:
            a_mat[d:, d:] += law.c_minibatch * i_mat
        if law.gaussian_active and cfg.has_noise:
            a_mat[d:, d:] += law.c_gauss * gamma
    else:
        a_mat = np.zeros((d, d))
        if law.minibatch_active and cfg.variant != "control_variate":
            a_mat += law.c_minibatch * (gamma @ i_mat @ gamma.T)
        if law.gaussian_active and cfg.has_noise:
            a_mat += law.c_gauss * lam
    return 0.5 * (a_mat + a_mat.T)


# ---------------------------------------------------------- batch spaces


def enumerate_batches(n: int, b: int, policy: str) -> list[tuple[int, ...]]:
    """All equally likely batches of size b from n records."""
    if policy == "with_replacement":
        return list(itertools.product(range(n), repeat=b))
    return list(itertools.combinations(range(n), b))


def stochastic_gradient(
    model,
    data,
    theta: np.ndarray,
    batch: np.ndarray,
    anchor: np.ndarray | None = None,
    anchor_grads: np.ndarray | None = None,
) -> np.ndarray:
    """The drift estimate for one batch: prior term plus batch-mean score.

    Plain form: ``(1/n) grad_prior(theta) + mean_j grad(theta; X[batch_j])``.
    With an anchor, each batch score is recentered at the anchor and the
    full-data anchor score is added back, which preserves unbiasedness and
    makes the estimate exactly constant across batches at ``theta = anchor``.
    Written straight from the definition, independently of the engine's
    compiled transition.
    """
    records = model.check_records(data.records)
    theta = np.asarray(theta, dtype=float)
    batch = np.asarray(batch)
    if batch.ndim != 1 or batch.size == 0:
        raise ValueError("batch must be a non-empty 1-d index array")
    rows = records[np.sort(batch)]
    g = model.grad(theta, rows)
    if anchor is not None:
        if anchor_grads is None:
            anchor_grads = model.grad(np.asarray(anchor, float), records)
        g = g - anchor_grads[np.sort(batch)]
        base = anchor_grads.mean(axis=0)
    else:
        base = 0.0
    return g.mean(axis=0) + base + model.grad_prior(theta) / records.shape[0]


def expression_transition(ctx, flat_prior: bool):
    """One step of the engine's compiled step loop in expression form, returning a new array.

    ``ctx`` is the engine's resolved run context; the result maps ``(state,
    rows, anchor_rows, noise_term)`` to the next state with the same numpy
    operations in the same order as one step of ``ctx.advance``, the loop
    that runs a whole gather block in place, each producing a fresh array
    (momentum joins its halves with ``np.concatenate``), so row ``s`` of the
    block buffer must equal ``s + 1`` chained calls bit for bit.  ``flat_prior``
    says whether the model's prior gradient is the zero function, which the
    engine skips without adding.  The batch mean is ``np.add.reduce`` over
    the batch axis divided by ``b``.
    """
    grad_fn = ctx.model.grad
    prior_fn = ctx.model.grad_prior
    inv_n = 1.0 / ctx.n
    half_h_gamma = 0.5 * ctx.h * ctx.gamma
    box = ctx.box
    d = ctx.dim

    def batch_mean(g):
        return np.add.reduce(g, axis=-2) / g.shape[-2]

    if ctx.cfg.variant == "momentum":
        half_h_minv = 0.5 * ctx.h * np.eye(d)
        half_h = 0.5 * ctx.h

        def transition(state, rows, anchor_rows, noise_term):
            theta = state[:, :d]
            psi = state[:, d:]
            g_like = batch_mean(grad_fn(theta, rows))
            new_theta = theta + np.matvec(half_h_minv, psi)
            if box is not None:
                new_theta = np.clip(new_theta, box[0], box[1])
            new_psi = psi + half_h * g_like - np.matvec(half_h_gamma, psi)
            if not flat_prior:
                new_psi = new_psi + half_h * (inv_n * prior_fn(theta))
            if noise_term is not None:
                new_psi = new_psi + noise_term
            return np.concatenate((new_theta, new_psi), axis=1)

        return transition

    def transition(state, rows, anchor_rows, noise_term):
        if ctx.cfg.variant == "control_variate":
            g_like = batch_mean(grad_fn(state, rows) - anchor_rows) + ctx.anchor_mean
        else:
            g_like = batch_mean(grad_fn(state, rows))
        delta_loglik = np.matvec(half_h_gamma, g_like)
        if flat_prior:
            proposal = state + delta_loglik
        else:
            prior = np.matvec(half_h_gamma, inv_n * prior_fn(state))
            proposal = state + delta_loglik + prior
        if noise_term is not None:
            proposal = proposal + noise_term
        if box is not None:
            proposal = np.clip(proposal, box[0], box[1])
        return proposal

    return transition


def step(model, data, cfg, state, batch, xi=None, anchor=None) -> np.ndarray:
    """The engine's single transition with explicit randomness.

    ``batch`` is the index tuple for this step and ``xi`` the standard
    Gaussian innovation (required exactly when the configuration has noise).
    It runs the engine's own compiled block closure on a one-step block of
    one replicate, so a manual loop of ``step`` calls reproduces a run bit
    for bit given the same draws; what it checks is the run loop around
    that update.
    """
    records = model.check_records(data.records)
    ctx = _build_context(model, records, cfg, records.shape[0], anchor)
    state = np.asarray(state, dtype=float)
    if state.shape != (ctx.state_dim,):
        raise DimensionError(f"state must have shape ({ctx.state_dim},)")
    batch = np.sort(np.asarray(batch))[None, None]
    anchor_rows = None if ctx.anchor_grads is None else ctx.anchor_grads[batch]
    noise_term = None
    if ctx.noise_factor is not None:
        if xi is None:
            raise ConfigError("this configuration has Gaussian noise; xi is required")
        xi = np.asarray(xi, dtype=float)
        if xi.shape != (ctx.dim,):
            raise DimensionError(f"xi must have shape ({ctx.dim},)")
        noise_term = np.matvec(ctx.noise_factor, xi[None, None])
    buf = np.empty((1, 1, ctx.state_dim))
    return ctx.advance(state[None], records[batch], anchor_rows, noise_term, buf)[0]


# ------------------------------------------------- exact linear-chain law


def exact_linear_stationary_cov(m: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The stationary covariance Q of ``x' = M x + noise(cov C)``: Q = M Q Mᵀ + C.

    Exact for any linear recursion with state-independent noise, at any
    step size: no diffusion limit is taken.
    """
    return scipy.linalg.solve_discrete_lyapunov(np.asarray(m, float), np.asarray(c, float))


def exact_linear_average_cov(m: np.ndarray, c: np.ndarray, steps: int) -> np.ndarray:
    """Covariance of the mean of ``steps`` consecutive stationary iterates of ``x' = M x + noise``.

    With Q the stationary covariance (``exact_linear_stationary_cov``), the
    lag-k covariance is ``M^k Q``, so the mean of T iterates has covariance
    ``(T Q + G Q + Q Gᵀ) / T²`` with ``G = sum_{k=1}^{T-1} (T - k) M^k``.  The
    sum is taken in closed form from geometric sums of powers of M:
    ``G = ((T - 1) M - M² (I - M^(T-1)) (I - M)^-1) (I - M)^-1``, every factor
    a polynomial in M, so they commute.  Exact at any step size, as the
    stationary law is; ``I - M`` must be invertible.
    """
    m = np.asarray(m, float)
    q = exact_linear_stationary_cov(m, c)
    t = int(steps)
    inv = np.linalg.inv(np.eye(len(m)) - m)
    tail = np.eye(len(m)) - np.linalg.matrix_power(m, t - 1)
    g = ((t - 1) * m - m @ m @ tail @ inv) @ inv
    return (t * q + g @ q + q @ g.T) / t**2


def gaussian_sgd_recursion(
    records: np.ndarray, weights: np.ndarray, gamma: np.ndarray, h: float, b: int,
    with_replacement: bool = True, beta: float = math.inf, lam: np.ndarray | None = None,
    control_variate: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """``(M, C)`` of one step on the Gaussian location family, flat prior.

    Each record's score ``W (x - theta)`` is affine in theta, so one step is
    ``theta' = M theta + (h/2) Gamma W xbar_batch`` with ``M = I - (h/2) Gamma W``,
    and the batch mean's fluctuation gives ``C = (h/2)^2 Gamma W S W Gammaᵀ / b``,
    ``S`` the records' covariance normalised by 1/n; sampling without
    replacement multiplies C by ``(n - b)/(n - 1)``.  A control-variate step
    recentres each score at an anchor, and ``g_i(theta) - g_i(anchor) =
    -W (theta - anchor)`` does not depend on i, so it has no minibatch term.
    A finite inverse temperature ``beta`` (SGLD) adds the Gaussian
    innovation's covariance ``(h/beta) Lambda``, ``Lambda`` the identity when
    ``lam`` is None.
    """
    records = np.asarray(records, float)
    n, d = records.shape
    gw = np.asarray(gamma, float) @ np.diag(weights)
    c = np.zeros((d, d))
    if not control_variate:
        s = np.cov(records.T, bias=True).reshape(d, d)
        c = (0.5 * h) ** 2 * gw @ s @ gw.T / b
        if not with_replacement:
            c = c * (n - b) / (n - 1)
    if math.isfinite(beta):
        c = c + (h / beta) * (np.eye(d) if lam is None else np.asarray(lam, float))
    return np.eye(d) - 0.5 * h * gw, c


# --------------------------------------------------------------- fitting


def coordinate_descent_mle(
    model, records: np.ndarray, init: np.ndarray, sweeps: int = 400, tol: float = 1e-13
) -> np.ndarray:
    """One-dimensional Newton sweeps on the mean log-likelihood."""
    theta = np.asarray(init, dtype=float).copy()
    d = theta.size
    for _ in range(sweeps):
        moved = 0.0
        for j in range(d):
            g = model.grad(theta, records).mean(axis=0)[j]
            h = model.hess_mean(theta, records)[j, j]
            step = g / (-h)
            # damped one-dimensional Newton on coordinate j
            factor = 1.0
            base = loglik(model, theta, records).mean()
            for _ in range(60):
                cand = theta.copy()
                cand[j] += factor * step
                if loglik(model, cand, records).mean() >= base - 1e-18:
                    theta = cand
                    moved = max(moved, abs(factor * step))
                    break
                factor *= 0.5
        if moved < tol:
            break
    return theta


# ------------------------------------------------------------ time series


def ar1_series(
    rng: np.random.Generator, phi: float, length: int, burn: int = 1000
) -> np.ndarray:
    """Stationary AR(1) draws; integrated autocorrelation (1+phi)/(1-phi)."""
    noise = rng.standard_normal(length + burn)
    out = np.empty(length + burn)
    out[0] = noise[0] / math.sqrt(1.0 - phi * phi)
    for k in range(1, length + burn):
        out[k] = phi * out[k - 1] + noise[k]
    return out[burn:]


def direct_gradient_descent(
    model, records: np.ndarray, gamma: np.ndarray, h: float, init: np.ndarray,
    n_steps: int,
) -> np.ndarray:
    """Plain full-batch preconditioned gradient ascent on the mean score."""
    theta = np.asarray(init, dtype=float).copy()
    path = np.empty((n_steps, theta.size))
    half_h_gamma = 0.5 * h * gamma
    for k in range(n_steps):
        g = model.grad(theta, records).mean(axis=0)
        theta = theta + half_h_gamma @ g
        path[k] = theta
    return path


# ------------------------------------------------------------------ files


def trace_indices(out_dir) -> list[int]:
    """Replicate indices of the ``trace_NNN.csv`` files in ``out_dir``, sorted."""
    names = glob.glob(os.path.join(glob.escape(str(out_dir)), "trace_*.csv"))
    return sorted(int(os.path.basename(name)[6:-4]) for name in names)


def save_csv(path, records: np.ndarray, header: list[str] | None = None) -> None:
    """Write records with 17 significant digits so reads round-trip exactly."""
    records = np.asarray(records, dtype=float)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
        for row in records:
            writer.writerow([f"{v:.17g}" for v in row])


def savetxt_table(path, header: str, first: np.ndarray, values: np.ndarray) -> None:
    """``header``, then ``%d`` of ``first[k]`` and ``%.17g`` of ``values[k]``, via savetxt."""
    fmt = ["%d"] + ["%.17g"] * values.shape[1]
    np.savetxt(path, np.column_stack([first, values]), fmt=fmt, delimiter=",",
               header=header, comments="")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        return _jsonable(obj.item())
    if isinstance(obj, float) and not math.isfinite(obj):
        if math.isnan(obj):
            return "nan"
        return "inf" if obj > 0 else "-inf"
    return obj


def json_dumps_artifact(obj) -> str:
    """A copy mapped to JSON types (non-finite floats to strings), then ``json.dumps``."""
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2) + "\n"
