"""Statistical models, synthetic data generators, and CSV ingestion.

A model is a bundle of vectorized callables: the score contribution of
each data record at a parameter vector, the record-averaged Hessian, and
an optional log-prior gradient.  Each family's docstring states the
log-likelihood its score differentiates; nothing in the package evaluates
the log-likelihood itself.  Three families are provided:

* weighted Gaussian location: separable quadratic likelihood with per
  coordinate curvature weights, the workhorse for exact sanity checks;
* logistic regression with binary responses;
* Poisson log-linear regression with count responses.

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
    log-prior, :func:`zero_prior` for the default flat prior.
    """

    family: str
    dim: int
    grad: ArrayFun
    hess_mean: ArrayFun
    grad_prior: Callable[[np.ndarray], np.ndarray]
    validate: Callable[[np.ndarray], None]
    params: dict = field(default_factory=dict)

    def check_records(self, records: np.ndarray) -> np.ndarray:
        records = np.asarray(records, dtype=float)
        if records.ndim != 2:
            raise DimensionError(
                f"records must be a 2-d array, got shape {records.shape}"
            )
        self.validate(records)
        return records


@dataclass
class Dataset:
    """Data records (one row per observation) plus provenance metadata."""

    records: np.ndarray
    provenance: dict = field(default_factory=dict)

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

    ``available`` is True only when the curvature matrix ``j_star`` and the
    score covariance ``i_star`` at ``theta_star`` are exact; generators that
    only know the sampling parameter leave it False.
    """

    theta_star: np.ndarray
    j_star: np.ndarray | None = None
    i_star: np.ndarray | None = None
    available: bool = False


def zero_prior(theta: np.ndarray) -> np.ndarray:
    """Gradient of the flat log-prior; the engine skips the prior term for it."""
    return np.zeros(np.shape(theta))


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
    w = default_location_weights(d) if weights is None else np.asarray(weights, float)
    if w.shape != (d,):
        raise DimensionError(f"weights must have shape ({d},), got {w.shape}")
    if np.any(w <= 0):
        raise DataError("location weights must be strictly positive")
    neg_diag = -np.diag(w)

    def grad(theta: np.ndarray, records: np.ndarray) -> np.ndarray:
        return (records - theta[..., None, :]) * w

    def hess_mean(theta: np.ndarray, records: np.ndarray) -> np.ndarray:
        return neg_diag.copy()

    def validate(records: np.ndarray) -> None:
        if records.shape[1] != d:
            raise DataError(
                f"gaussian location records need {d} columns, got {records.shape[1]}"
            )
        if not np.all(np.isfinite(records)):
            raise DataError("gaussian location records contain non-finite values")

    return ModelSpec(
        family="gaussian_location",
        dim=d,
        grad=grad,
        hess_mean=hess_mean,
        grad_prior=zero_prior,
        validate=validate,
        params={"weights": w},
    )


def _split_xy(records: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return records[..., :-1], records[..., -1]


def logistic_model(p: int) -> ModelSpec:
    """Logistic regression: records ``(x_1..x_p, y)`` with ``y in {0, 1}``.

    Log-likelihood ``y * x.theta - log(1 + exp(x.theta))``; the score's
    sigmoid is evaluated with log-sum-exp so large linear predictors never
    overflow.
    """
    if p < 1:
        raise DimensionError("logistic model needs p >= 1 covariates")

    def _sigmoid(z: np.ndarray) -> np.ndarray:
        # Branchless stable sigmoid through the tails.
        return np.exp(-np.logaddexp(0.0, -z))

    def grad(theta: np.ndarray, records: np.ndarray) -> np.ndarray:
        x, y = _split_xy(records)
        return (y - _sigmoid(np.matvec(x, theta)))[..., None] * x

    def hess_mean(theta: np.ndarray, records: np.ndarray) -> np.ndarray:
        x, _ = _split_xy(records)
        s = _sigmoid(x @ theta)
        v = s * (1.0 - s)
        return -(x.T * v) @ x / records.shape[0]

    def validate(records: np.ndarray) -> None:
        if records.shape[1] != p + 1:
            raise DataError(
                f"logistic records need {p + 1} columns (covariates then"
                f" response), got {records.shape[1]}"
            )
        if not np.all(np.isfinite(records)):
            raise DataError("logistic records contain non-finite values")
        y = records[:, -1]
        bad = np.nonzero((y != 0.0) & (y != 1.0))[0]
        if bad.size:
            raise DataError(
                "logistic response must be 0 or 1;"
                f" row {bad[0] + 1} has {float(y[bad[0]])!r}"
            )

    return ModelSpec(
        family="logistic",
        dim=p,
        grad=grad,
        hess_mean=hess_mean,
        grad_prior=zero_prior,
        validate=validate,
        params={"p": p},
    )


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
    if p < 1:
        raise DimensionError("poisson model needs p >= 1 covariates")

    def grad(theta: np.ndarray, records: np.ndarray) -> np.ndarray:
        x, y = _split_xy(records)
        mu = np.exp(np.matvec(x, theta))
        return (y - mu)[..., None] * x

    def hess_mean(theta: np.ndarray, records: np.ndarray) -> np.ndarray:
        x, _ = _split_xy(records)
        mu = np.exp(x @ theta)
        return -(x.T * mu) @ x / records.shape[0]

    def validate(records: np.ndarray) -> None:
        if records.shape[1] != p + 1:
            raise DataError(
                f"poisson records need {p + 1} columns (covariates then"
                f" response), got {records.shape[1]}"
            )
        if not np.all(np.isfinite(records)):
            raise DataError("poisson records contain non-finite values")
        y = records[:, -1]
        bad = np.nonzero((y < 0) | (y != np.floor(y)))[0]
        if bad.size:
            raise DataError(
                "poisson response must be a nonnegative integer;"
                f" row {bad[0] + 1} has {float(y[bad[0]])!r}"
            )

    return ModelSpec(
        family="poisson",
        dim=p,
        grad=grad,
        hess_mean=hess_mean,
        grad_prior=zero_prior,
        validate=validate,
        params={"p": p},
    )


def equicorrelated_covariance(d: int, base: float = 0.5) -> np.ndarray:
    """Covariance ``base * I + (1 - base) * ones`` used by the Gaussian generator."""
    return base * np.eye(d) + (1.0 - base) * np.ones((d, d))


def generate_gaussian(
    n: int,
    d: int = DEFAULT_GAUSSIAN_DIM,
    seed: int = 0,
    weights: np.ndarray | None = None,
    sigma: np.ndarray | None = None,
    theta_star: np.ndarray | None = None,
) -> tuple[ModelSpec, Dataset, TruthSpec]:
    """Draw ``n`` records from ``N(theta_star, sigma)``; full truth is known.

    The score covariance is ``diag(w) sigma diag(w)`` and the curvature is
    ``diag(w)`` exactly, so this family supports truth-based predictions.
    """
    model = gaussian_location_model(d, weights)
    w = model.params["weights"]
    sigma = equicorrelated_covariance(d) if sigma is None else np.asarray(sigma, float)
    if sigma.shape != (d, d):
        raise DimensionError(f"sigma must be {d}x{d}, got {sigma.shape}")
    theta_star = (
        np.zeros(d) if theta_star is None else np.asarray(theta_star, float)
    )
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    records = rng.multivariate_normal(theta_star, sigma, size=n, method="cholesky")
    dmat = np.diag(w)
    truth = TruthSpec(
        theta_star=theta_star,
        j_star=dmat.copy(),
        i_star=dmat @ sigma @ dmat,
        available=True,
    )
    data = Dataset(
        records,
        provenance={
            "family": "gaussian_location",
            "n": n,
            "d": d,
            "seed": seed,
        },
    )
    return model, data, truth


def _design_matrix(
    rng: np.random.Generator, n: int, p: int, covariate_scales: np.ndarray | None
) -> np.ndarray:
    """Intercept column followed by ``p - 1`` uniform covariates on [-s, s]."""
    x = np.empty((n, p))
    x[:, 0] = 1.0
    if p > 1:
        u = rng.uniform(-1.0, 1.0, size=(n, p - 1))
        if covariate_scales is not None:
            scales = np.asarray(covariate_scales, float)
            if scales.shape != (p - 1,):
                raise DimensionError(
                    f"covariate_scales must have shape ({p - 1},), got {scales.shape}"
                )
            u = u * scales
        x[:, 1:] = u
    return x


def generate_logistic(
    n: int,
    p: int,
    seed: int = 0,
    theta_star: np.ndarray | None = None,
) -> tuple[ModelSpec, Dataset, TruthSpec]:
    """Binary responses from a logistic law over an intercept-plus-uniform design."""
    model = logistic_model(p)
    theta_star = (
        np.full(p, 0.5) if theta_star is None else np.asarray(theta_star, float)
    )
    if theta_star.shape != (p,):
        raise DimensionError(f"theta_star must have shape ({p},)")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    x = _design_matrix(rng, n, p, None)
    prob = 1.0 / (1.0 + np.exp(-(x @ theta_star)))
    y = (rng.uniform(size=n) < prob).astype(float)
    data = Dataset(
        np.column_stack([x, y]),
        provenance={"family": "logistic", "n": n, "p": p, "seed": seed},
    )
    return model, data, TruthSpec(theta_star=theta_star, available=False)


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
    pseudo-true parameter shifts the intercept by ``log(1 - pi)`` and the
    curvature and score-covariance matrices separate.  The pseudo-true
    vector is recorded in the dataset provenance.
    """
    if not 0.0 <= zero_inflation < 1.0:
        raise DataError("zero_inflation must lie in [0, 1)")
    model = poisson_model(p)
    theta_star = (
        np.full(p, 0.1) if theta_star is None else np.asarray(theta_star, float)
    )
    if theta_star.shape != (p,):
        raise DimensionError(f"theta_star must have shape ({p},)")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    x = _design_matrix(rng, n, p, covariate_scales)
    rate = np.exp(x @ theta_star)
    y = rng.poisson(rate).astype(float)
    if zero_inflation > 0.0:
        y[rng.uniform(size=n) < zero_inflation] = 0.0
    pseudo_true = theta_star.copy()
    if zero_inflation > 0.0:
        pseudo_true[0] += math.log(1.0 - zero_inflation)
    data = Dataset(
        np.column_stack([x, y]),
        provenance={
            "family": "poisson",
            "n": n,
            "p": p,
            "seed": seed,
            "zero_inflation": zero_inflation,
            "pseudo_true": pseudo_true.tolist(),
        },
    )
    return model, data, TruthSpec(theta_star=theta_star, available=False)


def generate(
    family: str, n: int, seed: int = 0, **params
) -> tuple[ModelSpec, Dataset, TruthSpec]:
    """Dispatch to the family-specific generator by name."""
    generators = {
        "gaussian_location": generate_gaussian,
        "logistic": generate_logistic,
        "poisson": generate_poisson,
    }
    if family not in generators:
        raise DataError(
            f"unknown model family {family!r}; expected one of {sorted(generators)}"
        )
    if n < 1:
        raise DataError(f"sample size n must be at least 1, got {n}")
    if seed < 0:
        raise DataError(f"data seed must be a nonnegative integer, got {seed}")
    return generators[family](n, seed=seed, **params)


@dataclass
class CsvSchema:
    """Expected layout of a numeric CSV file: column count and header flag."""

    columns: int
    header: bool = False


def load_csv(path: str, schema: CsvSchema) -> Dataset:
    """Read a comma-separated numeric file into a dataset.

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
            if schema.header and i == 1:
                continue
            if len(raw) != schema.columns:
                raise DataError(
                    f"{path}: row {i} has {len(raw)} fields, expected {schema.columns}"
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
    return Dataset(np.array(rows, dtype=float), provenance={"path": path})

