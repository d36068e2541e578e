"""Estimators that quantify how well a run matches its prediction.

Three measurement primitives: the empirical covariance of rescaled iterates
(of one run, or of several replicates' rows pooled about their grand mean),
integrated autocorrelation times (with a Geyer-style
initial-positive-sequence truncation), and the across-replicate covariance
of rescaled iterate averages.  ``compare`` turns an (empirical, predicted)
matrix pair into a dict of its relative Frobenius error and optional
per-entry z-scores, and ``compare_runs`` measures a set of runs against
their prediction: the body of ``comparison.json``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .engine import RunRecord
from .errors import ArtifactMismatchError, DataError, DimensionError, RegimeError
from .theory import OuParams, PredictionReport, avg_cov_rescaled

#: Minimum post-burn-in sample count per parameter dimension.
MIN_SAMPLES_PER_DIM = 10


class _ShortTrace(DataError):
    """A trace too short to measure, or a constant coordinate: compare notes it, not fails."""


def _kept_rows(record: RunRecord, burnin_fraction: float) -> np.ndarray:
    """Rescaled parameter rows of a run after its leading ``burnin_fraction``."""
    if not 0.0 <= burnin_fraction < 1.0:
        raise DataError(f"burnin_fraction must be in [0, 1), got {burnin_fraction}")
    states = record.rescaled_states()
    return states[int(math.floor(burnin_fraction * states.shape[0])):]


def _require_rows(rows: int, dim: int, what: str) -> None:
    need = MIN_SAMPLES_PER_DIM * dim
    if rows < need:
        raise _ShortTrace(f"too few post-burn-in samples ({rows}) for {what}; need at least {need}")


def _pooled_cov(kept: list[np.ndarray], dim: int) -> np.ndarray:
    """Sample covariance of the rows of ``kept`` taken together, about their grand mean."""
    rows = kept[0] if len(kept) == 1 else np.concatenate(kept)  # one run: no copy of a long trace
    _require_rows(rows.shape[0], dim, f"a {dim}-dimensional covariance")
    return np.cov(rows, rowvar=False, ddof=1).reshape(dim, dim)


def empirical_cov(record: RunRecord, burnin_fraction: float = 0.1) -> np.ndarray:
    """Sample covariance of the rescaled parameter trajectory.

    Discards the leading ``burnin_fraction`` of stored states, then forms
    the usual sample covariance (mean subtracted) of
    ``n**w * (theta_k - theta_hat)``.  Requires at least
    ``10 * dim`` post-burn-in samples.
    """
    return _pooled_cov([_kept_rows(record, burnin_fraction)], record.dim)


def _autocorrelation(series: np.ndarray) -> np.ndarray:
    """Sample autocorrelation at all lags via FFT, rho(0) = 1."""
    # tested before centring: the mean of a constant series can round off it
    if series.min() == series.max():
        raise _ShortTrace("series is constant; autocorrelation time undefined")
    x = series - series.mean()
    t = x.size
    size = 1
    while size < 2 * t:
        size *= 2
    spec = np.fft.rfft(x, size)
    acov = np.fft.irfft(spec * np.conj(spec), size)[:t].real / t
    return acov / acov[0]


def _iact_core(series: np.ndarray) -> tuple[float, bool]:
    series = np.asarray(series, dtype=float).ravel()
    if series.size < 8:
        raise DataError(f"need at least 8 points for autocorrelation, got {series.size}")
    rho = _autocorrelation(series)
    t = series.size

    # Split-half drift guard: a trending mean inflates every lag.
    half = t // 2
    a, b = series[:half], series[half : 2 * half]
    pooled = math.sqrt((a.var(ddof=1) + b.var(ddof=1)) / half)
    drifted = bool(pooled > 0.0 and abs(a.mean() - b.mean()) > 5.0 * pooled)

    # White-noise short circuit: nonpositive lag-1 correlation truncates
    # the sum at lag 0, giving the independent-samples value exactly.
    if rho.size < 2 or rho[1] <= 0.0:
        return 1.0, drifted

    total = 0.0
    max_pairs = (min(rho.size, t // 2) - 1) // 2
    for mpair in range(max_pairs):
        pair = rho[2 * mpair] + rho[2 * mpair + 1]
        if pair <= 0.0:
            break
        total += pair
    tau = 2.0 * total - 1.0
    return max(tau, 1.0e-12), drifted


def autocorrelation(series: np.ndarray, max_lag: int | None = None) -> np.ndarray:
    """Sample autocorrelation of a scalar series at lags 0..max_lag."""
    x = np.asarray(series, float).ravel()
    if x.size < 2:
        raise DataError("need at least two samples for an autocorrelation")
    rho = _autocorrelation(x)
    if max_lag is None:
        return rho
    return rho[: max_lag + 1]


def iact(series: np.ndarray) -> float:
    """Integrated autocorrelation time of a scalar series.

    Sums sample autocorrelations under a Geyer-style initial-positive
    pair-sum truncation: ``tau = 2 * sum of leading positive pair sums - 1``.
    A nonpositive lag-1 correlation truncates at lag 0 and returns exactly
    1.  A split-half mean drift beyond five standard errors triggers a
    warning (the estimate is untrustworthy on a trending series).
    """
    tau, drifted = _iact_core(series)
    if drifted:
        warnings.warn(
            "series shows split-half mean drift beyond 5 standard errors;"
            " autocorrelation time may reflect non-stationarity"
        )
    return tau


@dataclass
class MixingSummary:
    """Worst-case measured autocorrelation time across directions.

    Coordinates are measured in the eigenbasis of the predicted drift
    factor when that basis is real (it decouples the limit process), else
    in raw coordinates (``rotated = False``).  Epoch conversions use the
    run's own steps-per-epoch and thinning stride.
    """

    epochs_per_coordinate: np.ndarray
    worst_epochs: float
    worst_coordinate: int
    rotated: bool
    drift_flags: np.ndarray


def mixing_summary(record: RunRecord, ou: OuParams | None = None) -> MixingSummary:
    """Measure autocorrelation times of a run, coordinate by coordinate.

    With a prediction in hand the trajectory is rotated into the predicted
    drift eigenbasis first, so the worst case is taken over (approximately)
    decoupled directions rather than arbitrary coordinates.
    """
    states = record.rescaled_states()
    rotated = False
    if ou is not None:
        b_theta = ou.b_mat[: record.dim, : record.dim]
        vals, vecs = np.linalg.eig(b_theta)
        if np.max(np.abs(vals.imag)) < 1e-10 * (1.0 + np.max(np.abs(vals.real))):
            try:
                states = states @ np.linalg.inv(vecs.real).T
                rotated = True
            except np.linalg.LinAlgError:
                rotated = False
    d = states.shape[1]
    taus = np.empty(d)
    drifts = np.zeros(d, dtype=bool)
    for j in range(d):
        taus[j], drifts[j] = _iact_core(states[:, j])
    epochs = taus * record.thin / record.steps_per_epoch
    worst = int(np.argmax(epochs))
    return MixingSummary(
        epochs_per_coordinate=epochs,
        worst_epochs=float(epochs[worst]),
        worst_coordinate=worst,
        rotated=rotated,
        drift_flags=drifts,
    )


def _manifest_key(record: RunRecord) -> tuple:
    manifest = record.manifest
    return manifest["tuning_hash"], manifest["data_hash"], record.n_steps, record.avg_window


def _check_one_configuration(records: list[RunRecord]) -> None:
    """Refuse replicates that differ in anything but their seed."""
    key0 = _manifest_key(records[0])
    if any(_manifest_key(r) != key0 for r in records[1:]):
        raise ArtifactMismatchError("replicates were produced from different configurations")


def replicate_avg_cov(records: list[RunRecord]) -> tuple[np.ndarray, np.ndarray]:
    """Across-replicate covariance (and mean) of rescaled iterate averages.

    All replicates must share configuration (seed aside), dataset, step
    count and averaging window; anything else raises
    :class:`ArtifactMismatchError`.  Requires at least 30 replicates for
    the covariance to mean anything.
    """
    if len(records) < 30:
        raise DataError(
            f"need at least 30 replicates for a covariance, got {len(records)}"
        )
    _check_one_configuration(records)
    averages = np.stack([r.rescaled_avg() for r in records])
    cov = np.cov(averages, rowvar=False, ddof=1)
    return cov.reshape(averages.shape[1], averages.shape[1]), averages.mean(axis=0)


def compare(
    empirical: np.ndarray,
    predicted: np.ndarray,
    standard_errors: np.ndarray | None = None,
) -> dict:
    """Quantify agreement between matched empirical and predicted matrices.

    The headline number is the Frobenius error relative to the predicted
    matrix's norm, ``rel_frobenius_error``, beside ``frobenius_error`` and
    ``max_abs_error``.  When per-entry standard errors are supplied (e.g.
    from replicates), per-entry ``z_scores`` and their ``max_abs_z`` are
    included too.  The dict is the block ``comparison.json`` writes.
    """
    empirical = np.asarray(empirical, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    if empirical.shape != predicted.shape:
        raise DimensionError(
            f"shape mismatch: empirical {empirical.shape} vs predicted"
            f" {predicted.shape}"
        )
    diff = empirical - predicted
    fro = float(np.linalg.norm(diff))
    pred_norm = float(np.linalg.norm(predicted))
    if pred_norm == 0.0:
        raise DimensionError("predicted matrix is zero; relative error undefined")
    out = {
        "frobenius_error": fro,
        "rel_frobenius_error": fro / pred_norm,
        "max_abs_error": float(np.max(np.abs(diff))),
    }
    if standard_errors is not None:
        standard_errors = np.asarray(standard_errors, dtype=float)
        if standard_errors.shape != empirical.shape:
            raise DimensionError("standard errors must match the matrix shape")
        with np.errstate(divide="ignore", invalid="ignore"):
            z_scores = np.where(standard_errors > 0.0, diff / standard_errors, np.inf)
        out.update(z_scores=z_scores, max_abs_z=float(np.max(np.abs(z_scores))))
    return out


def compare_runs(
    alive: list[RunRecord], report: PredictionReport, burnin_fraction: float
) -> dict:
    """The statistics of ``comparison.json`` for runs of one configuration that finished.

    The stationary covariance pools every replicate's kept rows about their
    grand mean: centring each run on its own would read a run of T epochs
    low by about its autocorrelation time over T.  Mixing is measured on the
    first run, which needs ``10 * dim`` kept rows by itself.  Traces too
    short or constant for either leave ``trace_note``; any other error, such
    as a manifest that lacks a key read here, propagates.  30 or more
    replicates that record an average are compared with the prediction for
    their window's epochs.
    """
    first = alive[0]
    _check_one_configuration(alive)
    q_theta = report.q_inf[: first.dim, : first.dim]
    stationary = emp_cov = mixing = trace_note = None
    try:
        emp_cov = _pooled_cov([_kept_rows(r, burnin_fraction) for r in alive], first.dim)
        stationary = compare(emp_cov, q_theta)
        # counted anew, the pooled rows let go: mixing_summary rescales a long trace too
        _require_rows(len(_kept_rows(first, burnin_fraction)), first.dim, "one run's mixing time")
        mix = mixing_summary(first, report.ou)
        mixing = {
            "empirical_epochs_per_coordinate": mix.epochs_per_coordinate,
            "empirical_worst_epochs": mix.worst_epochs,
            "rotated_basis": mix.rotated,
            "drift_flags": mix.drift_flags,
            "predicted_epochs_iact": report.mixing.epochs_iact,
            "predicted_epochs_gap": report.mixing.epochs_gap,
        }
    except _ShortTrace as exc:
        trace_note = str(exc)

    averages = {}
    if len(alive) >= 30 and first.avg_state is not None:
        emp_avg_cov, avg_mean = replicate_avg_cov(alive)
        win_lo, win_hi = first.avg_window
        m_epochs = (win_hi - win_lo) / first.steps_per_epoch
        block = averages[f"{m_epochs:g}"] = {"window_epochs": m_epochs}
        try:
            predicted = avg_cov_rescaled(report.ou, m_epochs).matrix
        except RegimeError as exc:
            block["error"] = str(exc)
        else:
            block.update(
                replicates=len(alive),
                mean_rescaled_average=avg_mean,
                comparison=compare(emp_avg_cov, predicted),
                empirical_cov=emp_avg_cov,
                predicted_cov=predicted,
            )

    return {
        "stationary": stationary,
        "empirical_cov": emp_cov,
        "predicted_cov": q_theta,
        "mixing": mixing,
        "trace_note": trace_note,
        "averages": averages,
    }
