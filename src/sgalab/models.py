"""Statistical models, synthetic data generators, and CSV ingestion.

A model is a bundle of vectorized callables: the score contribution of
each data record at a parameter vector, the record-averaged Hessian, and
an optional log-prior gradient.  Each family's docstring states the
log-likelihood its score differentiates; nothing in the package evaluates
the log-likelihood itself.  ``FAMILIES`` lists the three families with
their generators and the configuration keys they read:

* weighted Gaussian location: separable quadratic likelihood with per
  coordinate curvature weights, the workhorse for exact sanity checks;
* logistic (binary responses) and Poisson log-linear (count responses)
  regression, one canonical-link GLM with two mean functions.

Generators return the dataset together with whatever ground truth is known
in closed form (true parameter, curvature and score-covariance matrices),
so predictions can be made either from the truth or from plug-in estimates.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import DataError, DimensionError

DEFAULT_GAUSSIAN_DIM = 10

ArrayFun = Callable[[np.ndarray, np.ndarray], np.ndarray]


def zero_prior(theta: np.ndarray) -> np.ndarray:
    """Gradient of the flat log-prior; the engine skips the prior term for it."""
    return np.zeros(np.shape(theta))


@dataclass
class ModelSpec:
    """A statistical model exposed through vectorized per-record callables.

    ``grad(theta, records) -> (m, dim)`` evaluates the score (gradient of
    the log-likelihood) contribution of each record row.  It also takes
    leading axes, one parameter per stack of records:
    ``grad(theta (..., dim), records (..., m, k)) -> (..., m, dim)``, and each
    slice equals the unstacked call bit for bit, so the engine can advance
    many replicates at once.  ``hess_mean(theta, records) -> (dim, dim)`` is
    the record-averaged Hessian, computed without a per-record stack.
    ``grad_prior(theta (..., dim)) -> (..., dim)`` is the gradient of the
    log-prior, :func:`zero_prior` for the default flat prior.  A record is
    ``dim`` finite values, followed when ``response`` is set by one response
    ``y`` that is valid where ``response[0](y)`` holds, a rule
    ``response[1]`` states in words.
    """

    family: str
    dim: int
    grad: ArrayFun
    hess_mean: ArrayFun
    grad_prior: Callable[[np.ndarray], np.ndarray] = zero_prior
    response: tuple[Callable[[np.ndarray], np.ndarray], str] | None = None
    params: dict = field(default_factory=dict)

    def check_records(self, records: np.ndarray) -> np.ndarray:
        records = np.asarray(records, dtype=float)
        if records.ndim != 2:
            raise DimensionError(
                f"records must be a 2-d array, got shape {records.shape}"
            )
        columns = self.dim + (self.response is not None)
        if records.shape[1] != columns:
            layout = " (covariates then response)" if self.response else ""
            raise DataError(
                f"{self.family} records need {columns} columns{layout},"
                f" got {records.shape[1]}"
            )
        if not np.all(np.isfinite(records)):
            raise DataError(f"{self.family} records contain non-finite values")
        if self.response:
            valid, rule = self.response
            y = records[:, -1]
            bad = np.nonzero(~valid(y))[0]
            if bad.size:
                raise DataError(
                    f"{self.family} response must be {rule};"
                    f" row {bad[0] + 1} has {float(y[bad[0]])!r}"
                )
        return records


@dataclass
class Dataset:
    """Data records, one row per observation."""

    records: np.ndarray

    @property
    def n(self) -> int:
        return int(self.records.shape[0])

    def __post_init__(self) -> None:
        self.records = np.asarray(self.records, dtype=float)
        if self.records.ndim != 2:
            raise DataError(
                f"dataset records must form a 2-d array, got shape {self.records.shape}"
            )
        if self.records.shape[0] == 0:
            raise DataError("dataset has no records")

    @cached_property
    def digest(self) -> str:
        """:func:`dataset_hash` of the records, computed once per dataset.

        Records are not to be changed in place after the first call.
        """
        return dataset_hash(self.records)


def dataset_hash(records: np.ndarray) -> str:
    digest = hashlib.sha256()
    digest.update(str(records.shape).encode())
    digest.update(np.ascontiguousarray(records).tobytes())
    return digest.hexdigest()


@dataclass
class TruthSpec:
    """Ground truth for synthetic data, when known in closed form.

    ``theta_star`` is the sampling parameter.  The curvature matrix
    ``j_star`` and the score covariance ``i_star`` at it are set only when
    they are exact; generators that know only ``theta_star`` leave both None.
    """

    theta_star: np.ndarray
    j_star: np.ndarray | None = None
    i_star: np.ndarray | None = None


def _vector(name: str, value, dim: int) -> np.ndarray:
    """``value`` as a float vector, which must have length ``dim``."""
    value = np.asarray(value, float)
    if value.shape != (dim,):
        raise DimensionError(f"{name} must have shape ({dim},), got {value.shape}")
    return value


def default_location_weights(d: int) -> np.ndarray:
    """Per-coordinate curvature weights ``1/sqrt(i)`` for ``i = 1..d``."""
    return 1.0 / np.sqrt(np.arange(1, d + 1, dtype=float))


def gaussian_location_model(
    d: int = DEFAULT_GAUSSIAN_DIM, weights: np.ndarray | None = None
) -> ModelSpec:
    """Weighted Gaussian location family on records ``x`` of length ``d``.

    Per-record log-likelihood ``-1/2 sum_i w_i (x_i - theta_i)^2`` (additive
    constants dropped), so the curvature matrix is exactly ``diag(w)``
    independent of the data.
    """
    if d < 1:
        raise DimensionError("gaussian location model needs d >= 1")
    w = default_location_weights(d) if weights is None else _vector("weights", weights, d)
    if np.any(w <= 0):
        raise DataError("location weights must be strictly positive")
    neg_diag = -np.diag(w)
    w_row = w[None, :]  # at one record the product has equal shapes, with no broadcast

    def grad(theta: np.ndarray, records: np.ndarray) -> np.ndarray:
        return (records - theta[..., None, :]) * w_row

    def hess_mean(theta: np.ndarray, records: np.ndarray) -> np.ndarray:
        return neg_diag.copy()

    return ModelSpec(
        family="gaussian_location",
        dim=d,
        grad=grad,
        hess_mean=hess_mean,
        params={"weights": w},
    )


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # Branchless stable sigmoid through the tails.
    return np.exp(-np.logaddexp(0.0, -z))


def _glm_model(
    family: str,
    p: int,
    mean: Callable[[np.ndarray], np.ndarray],
    variance: Callable[[np.ndarray], np.ndarray],
    response: tuple[Callable[[np.ndarray], np.ndarray], str],
) -> ModelSpec:
    """Canonical-link GLM on records ``(x_1..x_p, y)``.

    The score is ``(y - mu) * x`` and the mean Hessian is
    ``-mean(variance(mu) * x x^T)``, with ``mu = mean(x.theta)``.
    """
    if p < 1:
        raise DimensionError(f"{family} model needs p >= 1 covariates")

    def grad(theta: np.ndarray, records: np.ndarray) -> np.ndarray:
        x, y = records[..., :-1], records[..., -1]
        return (y - mean(np.matvec(x, theta)))[..., None] * x

    def hess_mean(theta: np.ndarray, records: np.ndarray) -> np.ndarray:
        x = records[:, :-1]
        return -(x.T * variance(mean(x @ theta))) @ x / records.shape[0]

    return ModelSpec(
        family=family,
        dim=p,
        grad=grad,
        hess_mean=hess_mean,
        response=response,
    )


def logistic_model(p: int) -> ModelSpec:
    """Logistic regression: records ``(x_1..x_p, y)`` with ``y in {0, 1}``.

    Log-likelihood ``y * x.theta - log(1 + exp(x.theta))``; the score's
    sigmoid is evaluated with log-sum-exp so large linear predictors never
    overflow.
    """
    return _glm_model("logistic", p, _sigmoid, lambda mu: mu * (1.0 - mu),
                      (lambda y: (y == 0.0) | (y == 1.0), "0 or 1"))


def poisson_model(p: int) -> ModelSpec:
    """Poisson log-linear regression: records ``(x_1..x_p, y)``, counts y.

    Log-likelihood ``y * x.theta - exp(x.theta)`` up to the data-only
    ``-log(y!)`` term, which is dropped since it affects no derivative.
    Rate overflow deliberately propagates as infinities so that runaway
    parameter excursions surface as divergence instead of being masked.
    ``grad`` and ``hess_mean`` do not silence numpy's overflow warning
    themselves: their callers (the engine's step loop, the anchor scores
    of the control-variate set-up, and the blockwise sums in
    :mod:`sgalab.inference`) run them under ``np.errstate(over="ignore")``,
    once per loop rather than once per call.
    """
    return _glm_model("poisson", p, np.exp, lambda mu: mu,
                      (lambda y: (y >= 0) & (y == np.floor(y)), "a nonnegative integer"))


def equicorrelated_covariance(d: int, base: float = 0.5) -> np.ndarray:
    """Covariance ``base * I + (1 - base) * ones`` used by the Gaussian generator."""
    return base * np.eye(d) + (1.0 - base) * np.ones((d, d))


def generate_gaussian(
    n: int,
    d: int = DEFAULT_GAUSSIAN_DIM,
    seed: int = 0,
    weights: np.ndarray | None = None,
    theta_star: np.ndarray | None = None,
) -> tuple[ModelSpec, Dataset, TruthSpec]:
    """Draw ``n`` records from ``N(theta_star, sigma)``; full truth is known.

    ``sigma`` is :func:`equicorrelated_covariance`.  The score covariance is
    ``diag(w) sigma diag(w)`` and the curvature is ``diag(w)`` exactly, so
    this family supports truth-based predictions.
    """
    model = gaussian_location_model(d, weights)
    w = model.params["weights"]
    sigma = equicorrelated_covariance(d)
    theta_star = np.zeros(d) if theta_star is None else _vector("theta_star", theta_star, d)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    records = rng.multivariate_normal(theta_star, sigma, size=n, method="cholesky")
    dmat = np.diag(w)
    truth = TruthSpec(
        theta_star=theta_star,
        j_star=dmat.copy(),
        i_star=dmat @ sigma @ dmat,
    )
    return model, Dataset(records), truth


def _design_matrix(
    rng: np.random.Generator, n: int, p: int, covariate_scales: np.ndarray | None
) -> np.ndarray:
    """Intercept column followed by ``p - 1`` uniform covariates on [-s, s]."""
    x = np.empty((n, p))
    x[:, 0] = 1.0
    if p > 1:
        u = rng.uniform(-1.0, 1.0, size=(n, p - 1))
        if covariate_scales is not None:
            u = u * _vector("covariate_scales", covariate_scales, p - 1)
        x[:, 1:] = u
    return x


def _generate_glm(
    model: ModelSpec,
    n: int,
    seed: int,
    theta_star: np.ndarray | None,
    default: float,
    respond: Callable[[np.random.Generator, np.ndarray], np.ndarray],
    covariate_scales: np.ndarray | None = None,
) -> tuple[ModelSpec, Dataset, TruthSpec]:
    """Responses ``respond(rng, x.theta_star)`` over an intercept-plus-uniform design.

    ``theta_star`` is ``default`` in every coordinate unless given.
    """
    p = model.dim
    theta_star = np.full(p, default) if theta_star is None else _vector("theta_star", theta_star, p)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    x = _design_matrix(rng, n, p, covariate_scales)
    data = Dataset(np.column_stack([x, respond(rng, x @ theta_star)]))
    return model, data, TruthSpec(theta_star=theta_star)


def generate_logistic(
    n: int,
    p: int,
    seed: int = 0,
    theta_star: np.ndarray | None = None,
) -> tuple[ModelSpec, Dataset, TruthSpec]:
    """Binary responses from a logistic law over an intercept-plus-uniform design."""

    def respond(rng: np.random.Generator, eta: np.ndarray) -> np.ndarray:
        prob = 1.0 / (1.0 + np.exp(-eta))
        return (rng.uniform(size=n) < prob).astype(float)

    return _generate_glm(logistic_model(p), n, seed, theta_star, 0.5, respond)


def generate_poisson(
    n: int,
    p: int,
    seed: int = 0,
    theta_star: np.ndarray | None = None,
    zero_inflation: float = 0.0,
    covariate_scales: np.ndarray | None = None,
) -> tuple[ModelSpec, Dataset, TruthSpec]:
    """Count responses from a (possibly zero-inflated) Poisson log-linear law.

    With ``zero_inflation = pi > 0`` each response is replaced by 0 with
    probability pi, which misspecifies the fitted Poisson model: the
    pseudo-true parameter is ``theta_star`` with ``log(1 - pi)`` added to
    the intercept ``theta_star[0]``, and the curvature and score-covariance
    matrices separate.
    """
    if not 0.0 <= zero_inflation < 1.0:
        raise DataError("zero_inflation must lie in [0, 1)")

    def respond(rng: np.random.Generator, eta: np.ndarray) -> np.ndarray:
        y = rng.poisson(np.exp(eta)).astype(float)
        if zero_inflation > 0.0:
            y[rng.uniform(size=n) < zero_inflation] = 0.0
        return y

    return _generate_glm(poisson_model(p), n, seed, theta_star, 0.1, respond, covariate_scales)


@dataclass(frozen=True)
class Family:
    """One model family, as the ``[model]`` section of a run configuration reads it.

    ``model(d, **params)`` fits records of ``d + response_columns`` columns,
    and ``generate(n, seed=..., **{dim_param: d}, **params)`` draws synthetic
    ones; ``default_dim`` is the ``d`` of synthetic data that sets none.
    ``model_keys`` name the ``[model]`` keys both take as ``params``, and
    ``data_keys`` those only the generator takes.
    """

    model: Callable[..., ModelSpec]
    generate: Callable[..., tuple[ModelSpec, Dataset, TruthSpec]]
    dim_param: str
    response_columns: int
    default_dim: int | None = None
    model_keys: tuple[str, ...] = ()
    data_keys: tuple[str, ...] = ("theta_star",)

    def reads(self, source: str) -> set[str]:
        """Every ``[model]`` key read for this family's data from ``source``."""
        required, optional = SOURCES[source]
        generated = self.data_keys if source == "synthetic" else ()
        return {"family", "source", "d", *self.model_keys, *generated, *required, *optional}


FAMILIES = {
    "gaussian_location": Family(
        gaussian_location_model, generate_gaussian, "d", 0,
        default_dim=DEFAULT_GAUSSIAN_DIM, model_keys=("weights",),
    ),
    "logistic": Family(logistic_model, generate_logistic, "p", 1),
    "poisson": Family(
        poisson_model, generate_poisson, "p", 1,
        data_keys=("theta_star", "zero_inflation", "covariate_scales"),
    ),
}

#: Per data source: the ``[model]`` keys it requires, then those it may read.
SOURCES = {
    "synthetic": (("n",), ("data_seed",)),
    "csv": (("path", "columns"), ("header",)),
}


def generate(
    family: str, n: int, seed: int = 0, **params
) -> tuple[ModelSpec, Dataset, TruthSpec]:
    """Dispatch to the family-specific generator by name."""
    if family not in FAMILIES:
        raise DataError(
            f"unknown model family {family!r}; expected one of {sorted(FAMILIES)}"
        )
    if n < 1:
        raise DataError(f"sample size n must be at least 1, got {n}")
    if seed < 0:
        raise DataError(f"data seed must be a nonnegative integer, got {seed}")
    return FAMILIES[family].generate(n, seed=seed, **params)


def load_csv(path: str, columns: int, header: bool = False) -> Dataset:
    """Read a comma-separated numeric file of ``columns`` fields a row.

    Every field must parse as a finite decimal float; failures are reported
    with 1-based row and column coordinates.  A declared header row is
    skipped (and counted in the row coordinates).
    """
    rows: list[list[float]] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for i, raw in enumerate(reader, start=1):
            if not raw:
                continue
            if header and i == 1:
                continue
            if len(raw) != columns:
                raise DataError(
                    f"{path}: row {i} has {len(raw)} fields, expected {columns}"
                )
            parsed = []
            for j, field_ in enumerate(raw, start=1):
                try:
                    value = float(field_)
                except ValueError:
                    raise DataError(
                        f"{path}: row {i}, column {j}: could not parse"
                        f" {field_.strip()!r} as a number"
                    ) from None
                if not math.isfinite(value):
                    raise DataError(
                        f"{path}: row {i}, column {j}: non-finite value"
                        f" {field_.strip()!r}"
                    )
                parsed.append(value)
            rows.append(parsed)
    if not rows:
        raise DataError(f"{path}: no data rows")
    return Dataset(np.array(rows, dtype=float))

