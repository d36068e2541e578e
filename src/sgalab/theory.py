"""Large-sample predictions for fixed-step stochastic-gradient loops.

Under polynomial-in-n tuning schedules, the rescaled iterate sequence
behaves like a discretized linear diffusion with drift matrix ``-B/2`` and
diffusion matrix ``A``.  This module computes, from the tuning and a pair of
information matrices (curvature ``J`` and score covariance ``I``):

* the scaling regime itself, in closed form: with ``t`` the temperature
  exponent, the local scale exponent is ``w = min(frak_b + frak_h, t) / 2``
  (``t / 2`` with control variates), one limit-time unit is ``n**frak_h``
  iterations, the injected noise survives when ``t <= frak_b + frak_h`` and
  the minibatch noise when ``frak_b + frak_h <= t``;
* the limit matrices ``(B, A)``, including the doubled-state momentum lift
  and the control-variate variant whose minibatch noise is always
  lower-order;
* stationary, time-t, and path-average covariances of the limit process,
  each computed one way: the stationary covariance by one Lyapunov solve,
  the time-t covariance from it and one matrix exponential, and every path
  or iterate average by the one closed-form path-average formula (its
  small-t and large-t asymptotic forms are test oracles, not a second
  route); a drift with no stationary law has none of them;
* mixing-time estimates in iterations and epochs;
* tuning recommendations that achieve a requested stationary covariance:
  each target route picks its constants and builds one tuning, which is
  closure-checked and given its predicted mixing time.

Everything here is plain matrix algebra; nothing simulates.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from . import linalg
from .errors import (
    DimensionError,
    RecommendationError,
    RegimeError,
    StabilityError,
)
from .inference import InfoMatrices
from .tuning import (
    CONTROL_VARIATE,
    MOMENTUM,
    PLAIN,
    WITHOUT_REPLACEMENT,
    TuningConfig,
)

_FLAG_TOL = 1e-12

#: Iterate-average lengths in epochs that a prediction reports when none are asked for.
DEFAULT_M_VALUES = (1.0, 8.0)


@dataclass
class ScalingLaw:
    """The scaling regime of one tuning configuration, in closed form.

    With ``t`` the temperature exponent (``+inf`` without injected noise),
    the local exponent is ``w = min(frak_b + frak_h, t) / 2``, or ``t / 2``
    for control variates: fluctuations of size ``n**-w`` around the anchor
    are order one after rescaling.  One limit-time unit is ``n**frak_h``
    iterations up to the step constant, so the drift always survives.
    Injected Gaussian noise survives when ``t <= frak_b + frak_h`` and
    minibatch noise when ``frak_b + frak_h <= t`` (never for control
    variates); each flag is paired with its limit constant (``c_gauss``,
    ``c_minibatch``), zero when inactive.  ``batch_correction`` is the
    without-replacement factor, reaching zero exactly for full-batch
    sampling.  The schedule itself stays on the ``TuningConfig``.
    """

    local_exponent: float
    gaussian_active: bool
    minibatch_active: bool
    c_gauss: float
    c_minibatch: float
    batch_correction: float


def scaling_law(cfg: TuningConfig) -> ScalingLaw:
    """Derive the scaling regime of a tuning configuration.

    Raises :class:`RegimeError` (naming the violated inequality) when the
    configuration sits outside the valid region: the step exponent must be
    positive and the local scale exponent must lie strictly inside (0, 1).
    Infinite temperature is handled as a genuine +inf, never as a numeric
    sentinel.
    """
    h_exp = cfg.frak_h
    bh_exp = cfg.frak_b + h_exp
    t_exp = cfg.temperature_exponent

    if cfg.variant == CONTROL_VARIATE:
        if math.isinf(t_exp):
            raise RegimeError(
                "control-variate scaling requires a finite temperature"
                " exponent: the surviving noise is the injected Gaussian,"
                " so frak_t < +inf must hold"
            )
        w = 0.5 * t_exp
        gaussian_active, minibatch_active = True, False
    else:
        w = 0.5 * min(bh_exp, t_exp)
        gaussian_active = t_exp <= bh_exp + _FLAG_TOL
        minibatch_active = bh_exp <= t_exp + _FLAG_TOL

    if not h_exp > 0.0:
        raise RegimeError(
            f"invalid regime: step exponent frak_h = {h_exp} violates"
            " frak_h > 0 (one limit-time unit is n**frak_h iterations)"
        )
    if not 0.0 < w < 1.0:
        raise RegimeError(
            f"invalid regime: local scale exponent w = {w} violates"
            " 0 < w < 1"
        )

    full_batch_wo = (
        cfg.frak_b == 1.0 and cfg.policy == WITHOUT_REPLACEMENT
    )
    batch_correction = 1.0 - cfg.c_b if full_batch_wo else 1.0
    if batch_correction < 0.0:
        raise RegimeError(
            f"invalid regime: batch correction 1 - c_b = {batch_correction}"
            " is negative (c_b must be <= 1 when frak_b = 1 without"
            " replacement)"
        )

    c_gauss = cfg.c_h / cfg.c_beta if gaussian_active else 0.0
    c_minibatch = (
        cfg.c_h**2 * batch_correction / (4.0 * cfg.c_b) if minibatch_active else 0.0
    )
    return ScalingLaw(
        local_exponent=w,
        gaussian_active=gaussian_active,
        minibatch_active=minibatch_active,
        c_gauss=c_gauss,
        c_minibatch=c_minibatch,
        batch_correction=batch_correction,
    )


@dataclass
class OuParams:
    """Limit drift/diffusion pair plus everything needed downstream.

    ``b_mat`` is the drift factor (the limit process has drift
    ``-b_mat/2``), ``a_mat`` the diffusion matrix.  For the momentum
    variant these live on the doubled state and ``dim`` stays the
    parameter dimension: the parameter marginal of a doubled-state matrix
    is its leading ``dim x dim`` block.
    """

    b_mat: np.ndarray
    a_mat: np.ndarray
    dim: int
    state_dim: int
    law: ScalingLaw
    cfg: TuningConfig
    gamma: np.ndarray
    lam: np.ndarray
    j_mat: np.ndarray
    i_mat: np.ndarray
    _q_inf: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)


def _as_square(name: str, m: np.ndarray, d: int) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.shape != (d, d):
        raise DimensionError(f"{name} must be {d}x{d}, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise DimensionError(f"{name} contains non-finite entries")
    return m


def ou_params(
    cfg: TuningConfig, j_mat: np.ndarray, i_mat: np.ndarray
) -> OuParams:
    """Assemble the limit matrices for a tuning and information pair.

    Plain variant: ``B = c_h Gamma J`` and
    ``A = c_mb Gamma I Gamma' + c_g Lambda``, each constant zero when its
    noise source is inactive.  Control-variate: the minibatch constant is
    zero regardless of exponents.  Momentum: the doubled-state lift
    with unit mass, ``B = c_h [[0, -I], [J, Gamma]]``, and zero upper-left
    diffusion block, carrying ``I`` (not its preconditioned form) in the
    lower-right minibatch block and ``Gamma`` in the Gaussian block.
    """
    law = scaling_law(cfg)
    d = np.asarray(j_mat).shape[0]
    j_mat = _as_square("curvature matrix", j_mat, d)
    i_mat = _as_square("score covariance", i_mat, d)
    gamma = np.eye(d) if cfg.gamma is None else _as_square("gamma", cfg.gamma, d)
    lam = np.eye(d) if cfg.lam is None else _as_square("lambda", cfg.lam, d)

    if cfg.variant == MOMENTUM:
        b_mat = np.zeros((2 * d, 2 * d))
        b_mat[:d, d:] = -np.eye(d)
        b_mat[d:, :d] = j_mat
        b_mat[d:, d:] = gamma
        b_mat *= cfg.c_h
        a_mat = np.zeros((2 * d, 2 * d))
        a_mat[d:, d:] += law.c_minibatch * i_mat
        a_mat[d:, d:] += law.c_gauss * gamma
        state_dim = 2 * d
    else:
        b_mat = cfg.c_h * (gamma @ j_mat)
        a_mat = np.zeros((d, d))
        a_mat += law.c_minibatch * (gamma @ i_mat @ gamma.T)
        a_mat += law.c_gauss * lam
        state_dim = d

    a_mat = 0.5 * (a_mat + a_mat.T)
    return OuParams(
        b_mat=b_mat,
        a_mat=a_mat,
        dim=d,
        state_dim=state_dim,
        law=law,
        cfg=cfg,
        gamma=gamma,
        lam=lam,
        j_mat=j_mat,
        i_mat=i_mat,
    )


def stationary_cov(ou: OuParams) -> np.ndarray:
    """Stationary covariance: the solution of ``B Q / 2 + Q B' / 2 = A``.

    Exists exactly when ``-B`` is Hurwitz; otherwise a
    :class:`StabilityError` explains that no stationary covariance exists.
    Solved once per ``OuParams``; every later call returns the same
    read-only array.
    """
    if ou._q_inf is None:
        q_inf = linalg.solve_lyapunov(ou.b_mat, ou.a_mat)
        q_inf.flags.writeable = False
        ou._q_inf = q_inf
    return ou._q_inf


def marginal_cov(ou: OuParams, t: float) -> np.ndarray:
    """Covariance at time ``t`` of the limit process started from zero.

    ``Q_inf - E Q_inf E'`` with ``E = exp(-t B / 2)``: zero at ``t = 0``,
    tending to ``Q_inf`` as ``t`` grows.  Like :func:`stationary_cov` it
    needs a stable drift and raises :class:`StabilityError` otherwise.
    """
    if t < 0.0 or not math.isfinite(t):
        raise DimensionError(f"time must be finite and >= 0, got {t}")
    q_inf = stationary_cov(ou)
    decay = linalg.expm(-0.5 * t * ou.b_mat)
    return linalg.sym(q_inf - decay @ q_inf @ decay.T)


def avg_cov_exact(ou: OuParams, t: float) -> np.ndarray:
    """Covariance of the stationary path average over ``[0, t]``.

    ``Cov = (4/t) B^-1 A B^-T - (8/t^2) Sym(B^-2 (I - exp(-tB/2)) Q_inf)``,
    returned as a symmetric matrix.  Requires ``t > 0`` and a stable drift.
    Its small-t form ``Q_inf - (t/6) A`` and large-t form
    ``(4/t) B^-1 A B^-T`` are test oracles, not package routes.
    """
    if not (math.isfinite(t) and t > 0.0):
        raise DimensionError(f"averaging horizon must be finite and > 0, got {t}")
    q_inf = stationary_cov(ou)
    dsize = ou.state_dim
    eye = np.eye(dsize)
    b_inv = np.linalg.solve(ou.b_mat, eye)
    first = (4.0 / t) * (b_inv @ ou.a_mat @ b_inv.T)
    first = 0.5 * (first + first.T)
    decay = linalg.expm(-0.5 * t * ou.b_mat)
    inner = b_inv @ b_inv @ (eye - decay) @ q_inf
    second = (8.0 / t**2) * linalg.sym(inner)
    exact = first - second
    return 0.5 * (exact + exact.T)


@dataclass
class AvgCovRescaled:
    """Predicted covariance of rescaled iterate averages over ``m`` epochs.

    ``matrix`` multiplies ``n**(frak_b + frak_h)`` times the covariance of
    the iterate average.  In the no-injected-noise unit-work regime the
    ``simple`` form ``(1/m) J^-1 I J^-1`` applies with ``remainder_bound``
    controlling the gap; both are None outside that regime.
    ``in_stated_regime`` records whether the temperature exponent also
    stays in the range where the averaged-iterate law holds (frak_t <= 1).
    """

    m: float
    limit_time: float
    matrix: np.ndarray
    simple: np.ndarray | None
    remainder_bound: float | None
    in_stated_regime: bool


def avg_cov_rescaled(ou: OuParams, m: float) -> AvgCovRescaled:
    """Iterate-average covariance prediction after ``m`` epochs.

    The average runs over ``floor(m * n**frak_h / c_b)`` iterations of a
    stationary-started chain, i.e. ``m / c_b`` limit-time units; epochs and
    limit time coincide up to the batch constant.  Valid when
    ``frak_b + frak_h <= frak_t`` (otherwise a :class:`RegimeError` names
    the violated inequality); the stated regime also has ``frak_t <= 1``,
    recorded as a flag.
    """
    cfg = ou.cfg
    if cfg.variant != PLAIN:
        raise RegimeError(
            "iterate-average prediction is defined for the plain variant"
            f" only, not {cfg.variant!r}"
        )
    if not (math.isfinite(m) and m > 0.0):
        raise DimensionError(f"epoch count m must be finite and > 0, got {m}")
    bh_exp, t_exp = cfg.frak_b + cfg.frak_h, cfg.temperature_exponent
    if bh_exp > t_exp:
        raise RegimeError(
            "iterate-average regime violated: frak_b + frak_h ="
            f" {bh_exp} exceeds frak_t = {t_exp}"
        )
    c_b, c_h = cfg.c_b, cfg.c_h
    matrix = avg_cov_exact(ou, m / c_b)

    simple = None
    remainder = None
    if bh_exp == 1.0 and not cfg.has_noise:
        simple = (1.0 / m) * linalg.sandwich(ou.j_mat, ou.i_mat)
        p_mat = ou.gamma @ ou.j_mat
        tail = np.linalg.solve(p_mat, np.linalg.solve(p_mat, stationary_cov(ou)))
        remainder = (8.0 * c_b**2 / (c_h**2 * m**2)) * float(
            np.linalg.norm(tail, 2)
        )
    return AvgCovRescaled(
        m=m,
        limit_time=m / c_b,
        matrix=matrix,
        simple=simple,
        remainder_bound=remainder,
        in_stated_regime=t_exp <= 1.0,
    )


@dataclass
class MixingTime:
    """Relaxation-time predictions in three conventions.

    ``epochs_iact``: two-sided integrated-autocorrelation calibration,
    ``4 c_b n^(frak_h + frak_b - 1) / rate`` epochs, the headline number
    comparable to measured autocorrelation times.  ``epochs_gap`` is the
    reciprocal-spectral-gap convention, exactly half of it.
    ``iterations`` is ``2 n^frak_h / rate`` algorithmic steps.  ``rate``
    is the smallest real part over the spectrum of the drift factor B.
    """

    epochs_iact: float
    epochs_gap: float
    iterations: float
    rate: float


def mixing_time(ou: OuParams, n: int) -> MixingTime:
    """Predicted relaxation time of the loop at sample size ``n``."""
    rate = linalg.min_real_eig(ou.b_mat)
    if rate <= linalg.HURWITZ_EPS:
        raise StabilityError(
            "mixing time undefined: the drift has a transient direction"
            f" (min real eigenvalue {rate:.3e} <= 0)"
        )
    cfg = ou.cfg
    epoch_factor = cfg.c_b * float(n) ** (cfg.frak_h + cfg.frak_b - 1.0)
    return MixingTime(
        epochs_iact=4.0 * epoch_factor / rate,
        epochs_gap=2.0 * epoch_factor / rate,
        iterations=2.0 * float(n) ** cfg.frak_h / rate,
        rate=rate,
    )


@dataclass
class Recommendation:
    """A tuning that provably hits a target stationary covariance."""

    target: str
    cfg: TuningConfig
    target_cov: np.ndarray
    achieved_cov: np.ndarray
    closure_residual: float
    mixing_epochs: float
    notes: list[str] = field(default_factory=list)


def _inv_spd(name: str, m: np.ndarray) -> np.ndarray:
    vals = np.linalg.eigvalsh(0.5 * (m + m.T))
    if vals[0] <= 0.0:
        raise RecommendationError(
            f"{name} must be positive definite to be inverted as a"
            f" preconditioner (min eigenvalue {vals[0]:.3e})"
        )
    return linalg.sym_inv(m)


def recommend_tuning(
    target: str,
    info: InfoMatrices,
    w1: float | None = None,
    w2: float | None = None,
    family: str | None = None,
    frak_b: float = 0.0,
    c_b: float = 1.0,
    policy: str = "with_replacement",
) -> Recommendation:
    """Construct a tuning whose predicted stationary covariance is a target.

    Targets (all at unit work, ``frak_h = 1 - frak_b``):

    * ``local_fiducial``: noiseless loop whose stationary covariance is
      the sandwich ``J^-1 I J^-1`` (weights ``w1 = 1, w2 = 0``);
    * ``sandwich_weighted``: ``w1 * J^-1 I J^-1 + w2 * J^-1`` mixtures;
    * ``bagged``: equal-weight mixture, ``w1 = w2`` (default 1/2);
    * ``posterior``: covariance ``J^-1``; via the control-variate loop by
      default (``family='sgld_fp'``), or via a noiseless loop
      preconditioned by the inverse score covariance (``family='sgd'``).

    Every recommendation is closure-checked: the limit matrices assembled
    from it must reproduce the target covariance to 1e-9.
    """
    j_mat, i_mat = info.j_mat, info.i_mat
    if not 0.0 <= frak_b < 1.0:
        raise RecommendationError(
            f"frak_b preference must lie in [0, 1) at unit work, got {frak_b}"
        )

    if target in ("local_fiducial", "sandwich_weighted", "bagged"):
        if target == "local_fiducial":
            w1_eff, w2_eff = 1.0, 0.0
        elif target == "bagged":
            w1_eff = 0.5 if w1 is None else float(w1)
            w2_eff = w1_eff
            if w2 is not None and float(w2) != w1_eff:
                raise RecommendationError(
                    "bagged target uses equal weights; pass w1 only"
                )
        else:
            if w1 is None or w2 is None:
                raise RecommendationError(
                    "sandwich_weighted target needs both w1 and w2"
                )
            w1_eff, w2_eff = float(w1), float(w2)
        if w1_eff <= 0.0 or w2_eff < 0.0:
            raise RecommendationError(
                f"weights must satisfy w1 > 0 and w2 >= 0, got ({w1_eff}, {w2_eff})"
            )
        if family not in (None, "sgd", "sgld"):
            raise RecommendationError(
                f"family {family!r} cannot reach target {target!r}"
            )
        if family == "sgd" and w2_eff > 0.0:
            raise RecommendationError(
                "a noiseless loop cannot produce the J^-1 mixture component;"
                " drop the w2 weight or allow injected noise"
            )
        gamma = _inv_spd("curvature matrix", j_mat)
        frak_t, c_beta = (1.0, 1.0 / w2_eff) if w2_eff > 0.0 else (math.inf, math.inf)
        c_h, variant = 4.0 * w1_eff * c_b, PLAIN
        target_cov = w1_eff * linalg.sandwich(j_mat, i_mat) + w2_eff * gamma
        note = f"stationary covariance {w1_eff} * sandwich + {w2_eff} * J^-1"
    elif target == "posterior":
        fam = "sgld_fp" if family is None else family
        if fam == "sgld_fp":
            gamma = _inv_spd("curvature matrix", j_mat)
            frak_t, c_h, c_beta, variant = 1.0, 4.0 * c_b, 1.0, CONTROL_VARIATE
            note = (
                "anchored control-variate loop: injected noise dominates,"
                " stationary covariance J^-1 at unit temperature scale"
            )
        elif fam == "sgd":
            gamma = _inv_spd("score covariance", i_mat)
            frak_t, c_h, c_beta, variant = math.inf, 4.0 * c_b, 1.0, PLAIN
            note = (
                "noiseless loop preconditioned by the inverse score"
                " covariance; minibatch noise alone reproduces J^-1"
            )
        else:
            raise RecommendationError(
                f"posterior target is unreachable with family {fam!r}:"
                " plain injected-noise loops only match J^-1 when the score"
                " covariance equals the curvature; use 'sgld_fp' or 'sgd'"
            )
    else:
        raise RecommendationError(
            f"unknown target {target!r}; expected local_fiducial,"
            " sandwich_weighted, bagged, or posterior"
        )

    cfg = TuningConfig(
        frak_h=1.0 - frak_b,
        frak_b=frak_b,
        frak_t=frak_t,
        c_h=c_h,
        c_b=c_b,
        c_beta=c_beta,
        gamma=gamma,
        lam=gamma,
        policy=policy,
        variant=variant,
    )
    if target == "posterior":
        # checked after the tuning, so a bad constant is reported first
        target_cov = _inv_spd("curvature matrix", j_mat)
    ou = ou_params(cfg, j_mat, i_mat)
    achieved = stationary_cov(ou)
    residual = float(
        np.linalg.norm(achieved - target_cov)
        / (1.0 + np.linalg.norm(target_cov))
    )
    if residual > 1e-9:
        raise RecommendationError(
            f"closure check failed: achieved covariance misses the target"
            f" by relative residual {residual:.3e}"
        )
    return Recommendation(
        target=target,
        cfg=cfg,
        target_cov=target_cov,
        achieved_cov=achieved,
        closure_residual=residual,
        mixing_epochs=mixing_time(ou, 1).epochs_iact,  # n-free at unit work
        notes=[note],
    )


@dataclass
class PredictionReport:
    """Bundle of every prediction for one configuration at one sample size."""

    n: int
    ou: OuParams
    q_inf: np.ndarray
    mixing: MixingTime
    marginals: dict[float, np.ndarray]
    averages: dict[float, AvgCovRescaled]
    average_errors: dict[float, str]

    def to_json_dict(self) -> dict:
        """The report's fields, raw: ``artifacts.write_json`` encodes them."""
        return {
            "n": self.n,
            "config": self.ou.cfg.to_dict(),
            "law": asdict(self.ou.law),
            "b_mat": self.ou.b_mat,
            "a_mat": self.ou.a_mat,
            "q_inf": self.q_inf,
            "mixing": asdict(self.mixing),
            "marginals": {str(t): m for t, m in self.marginals.items()},
            "averages": {
                str(m): {k: v for k, v in asdict(a).items() if k != "m"}
                for m, a in self.averages.items()
            },
            "average_errors": self.average_errors,
        }


def predict(
    cfg: TuningConfig,
    j_mat: np.ndarray,
    i_mat: np.ndarray,
    n: int,
    m_values: Sequence[float] = DEFAULT_M_VALUES,
    t_grid: Sequence[float] = (),
) -> PredictionReport:
    """Compute the full prediction bundle for one configuration."""
    ou = ou_params(cfg, j_mat, i_mat)
    q_inf = stationary_cov(ou)
    mixing = mixing_time(ou, n)
    marginals = {float(t): marginal_cov(ou, float(t)) for t in t_grid}
    averages: dict[float, AvgCovRescaled] = {}
    average_errors: dict[float, str] = {}
    for m in m_values:
        try:
            averages[float(m)] = avg_cov_rescaled(ou, float(m))
        except RegimeError as exc:
            average_errors[float(m)] = str(exc)
    return PredictionReport(
        n=n,
        ou=ou,
        q_inf=q_inf,
        mixing=mixing,
        marginals=marginals,
        averages=averages,
        average_errors=average_errors,
    )
