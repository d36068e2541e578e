"""M-estimation and empirical information matrices.

The prediction formulas are anchored at the root of the mean score
equation (the maximum-likelihood estimate under the default flat prior) and
consume two matrices evaluated there: the curvature matrix (minus the mean
per-record Hessian) and the score covariance (mean outer product of
per-record gradients).  Both are accumulated blockwise in a fixed partition
order so results are bit-reproducible regardless of dataset size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionError, NonConvergenceError, NonFiniteError
from .linalg import sym
from .models import Dataset, ModelSpec

#: Rows per accumulation block; fixed so reductions are deterministic.
BLOCK_ROWS = 8192

#: Newton steps :func:`fit_mle` takes before it reports non-convergence.
MAX_NEWTON_STEPS = 100


def _block_sum(
    records: np.ndarray, term: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """Sum of ``term(block)`` over ``BLOCK_ROWS``-row blocks in data order.

    Overflow (a Poisson rate at a far-off theta) propagates as infinities
    without numpy's warning, as in the engine's step loop.
    """
    total = 0.0
    with np.errstate(over="ignore"):
        for start in range(0, records.shape[0], BLOCK_ROWS):
            total = total + term(records[start : start + BLOCK_ROWS])
    return total


def _mean_score(model: ModelSpec, records: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """(1/n) * (prior gradient + sum of per-record score rows), blockwise."""
    total = _block_sum(records, lambda block: model.grad(theta, block).sum(axis=0))
    return (total + model.grad_prior(theta)) / records.shape[0]


def _mean_hessian(model: ModelSpec, records: np.ndarray, theta: np.ndarray) -> np.ndarray:
    total = _block_sum(
        records, lambda block: model.hess_mean(theta, block) * block.shape[0]
    )
    return total / records.shape[0]


@dataclass
class MleResult:
    """Root of the mean score equation plus solver trace."""

    theta_hat: np.ndarray
    grad_norm: float
    iterations: int


def fit_mle(model: ModelSpec, data: Dataset) -> MleResult:
    """Solve ``mean score(theta) = 0`` by damped Newton iteration.

    Starts from the origin and stops once the score norm is at most
    ``1e-10 * (1 + ||score at the origin||)``, within
    ``MAX_NEWTON_STEPS`` steps.  Each iteration takes the Newton
    direction against the mean curvature and backtracks on the score norm
    (accepting a step of length s only if it shrinks the norm by at least a
    ``1 - s/4`` factor); a singular curvature matrix falls back to a
    least-squares direction.  Failure to converge raises
    :class:`NonConvergenceError`, its message stating where the solver stopped,
    which is how an estimate escaping to infinity (e.g. separable logistic
    data) is reported rather than silently iterated on.  A solution where
    the curvature has numerically collapsed (the score can underflow to
    zero while the iterate runs away, as with separable data) is rejected
    the same way: the fit is only accepted at a nondegenerate maximum.
    """
    records = model.check_records(data.records)
    theta = np.zeros(model.dim)
    score = _mean_score(model, records, theta)
    if not np.all(np.isfinite(score)):
        raise NonFiniteError("score at the origin is not finite")
    norm = float(np.linalg.norm(score))
    tol = 1e-10 * (1.0 + norm)

    curv_scale = float(
        np.linalg.eigvalsh(sym(-_mean_hessian(model, records, theta)))[-1]
    )

    def _accept(theta, norm, iterations):
        curvature = -_mean_hessian(model, records, theta)
        spectrum = np.linalg.eigvalsh(sym(curvature))
        lam_min, lam_max = float(spectrum[0]), float(spectrum[-1])
        if lam_min <= 1e-10 * max(curv_scale, lam_max):
            raise NonConvergenceError(
                "mean-score solver stopped at a point with numerically"
                f" singular curvature (min eigenvalue {lam_min:.3e}); the"
                " estimate may lie at infinity (e.g. separable"
                " classification data)"
            )
        return MleResult(theta, norm, iterations)

    for iteration in range(1, MAX_NEWTON_STEPS + 1):
        if norm <= tol:
            return _accept(theta, norm, iteration - 1)
        curvature = -_mean_hessian(model, records, theta)
        try:
            direction = np.linalg.solve(curvature, score)
        except np.linalg.LinAlgError:
            direction = np.linalg.lstsq(curvature, score, rcond=None)[0]
        step = 1.0
        while True:
            candidate = theta + step * direction
            cand_score = _mean_score(model, records, candidate)
            cand_norm = float(np.linalg.norm(cand_score))
            if np.isfinite(cand_norm) and cand_norm <= (1.0 - 0.25 * step) * norm:
                break
            step *= 0.5
            if step < 1e-10:
                raise NonConvergenceError(
                    "mean-score solver stalled: no step length reduces the"
                    f" score norm below {norm:.3e}; the estimate may lie at"
                    " infinity (e.g. separable classification data)"
                )
        theta, score, norm = candidate, cand_score, cand_norm

    if norm <= tol:
        return _accept(theta, norm, MAX_NEWTON_STEPS)
    raise NonConvergenceError(
        f"mean-score solver did not reach tolerance {tol:.3e} in {MAX_NEWTON_STEPS}"
        f" iterations (score norm {norm:.3e}); the estimate may lie at"
        " infinity (e.g. separable classification data)"
    )


@dataclass
class InfoMatrices:
    """Curvature ``j_mat`` (J) and score covariance ``i_mat`` (I) at an anchor.

    :func:`empirical_info` estimates them from data: minus the mean
    per-record Hessian and the mean outer product of per-record score rows.
    ``[prediction] matrices = truth`` takes a family's exact ``j_star`` and
    ``i_star`` instead.  :func:`sgalab.linalg.sandwich` composes the pair
    into ``J^-1 I J^-1``.
    """

    j_mat: np.ndarray
    i_mat: np.ndarray


def empirical_info(model: ModelSpec, data: Dataset, theta: np.ndarray) -> InfoMatrices:
    """Evaluate the curvature and score-covariance matrices at ``theta``.

    Reductions run over fixed-size record blocks in data order, so repeated
    calls are bit-identical.  Only the likelihood terms enter the matrices,
    not the prior, matching the large-sample role these matrices play.
    """
    records = model.check_records(data.records)
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (model.dim,):
        raise DimensionError(f"theta must have shape ({model.dim},)")
    j_mat = -_mean_hessian(model, records, theta)

    def outer(block: np.ndarray) -> np.ndarray:
        g = model.grad(theta, block)
        return g.T @ g

    i_mat = _block_sum(records, outer) / records.shape[0]
    return InfoMatrices(sym(j_mat), sym(i_mat))
