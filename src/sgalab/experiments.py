"""Canonical experiment definitions for the experiment command.

Each experiment is a list of (variant name, configuration tree) pairs; the
command runs predict, simulate, and compare for each variant.  Trees use
the same schema as configuration files, so every variant can be re-run by
hand from the ``config.json`` the harness writes next to its artifacts.

Experiment 1 is a Gaussian location family with known truth at desk scale
(n = 1000, d = 10, b = 1): a non-preconditioned baseline, curvature- and
score-preconditioned gradient descent, a preconditioned Langevin sampler,
plus short replicated runs whose across-replicate iterate averages probe
the two-term averaging formula at windows of 1 and 8 epochs.

Experiments 2 and 3 are synthetic stand-ins that keep the model family,
sample size, batch size, and tuning of their originals (the real data is
not distributable): logistic regression under two step/batch exponent
pairs, and a misspecified zero-inflated Poisson regression with a few
badly scaled covariates, where the non-preconditioned baseline is expected
to diverge and the harness records that divergence instead of failing.

The scale factor multiplies every sample size and divides every epoch
budget, so the total step count is roughly scale-invariant while memory
shrinks; iterate-average windows keep their semantic length in epochs.
"""

from __future__ import annotations

import math

from .errors import ConfigError
from .theory import DEFAULT_M_VALUES

_MIN_N = 50


def _scaled_n(n: int, scale: float) -> int:
    return max(_MIN_N, int(round(n * scale)))


def _scaled_epochs(epochs: float, scale: float, override: float | None) -> float:
    if override is not None:
        return override
    return max(epochs / scale, 1.0)


def _exp1_trees(scale: float, seed: int, override: float | None):
    n = _scaled_n(1000, scale)
    epochs = _scaled_epochs(1000.0, scale, override)
    model = {"family": "gaussian_location", "n": n, "d": 10, "data_seed": 101}

    def tree(tuning: dict, execution: dict) -> dict:
        return {
            "model": dict(model),
            "tuning": tuning,
            "execution": execution,
            "prediction": {"matrices": "empirical", "m_values": list(DEFAULT_M_VALUES)},
        }

    long_run = {"epochs": epochs, "seed": seed, "thin": 50, "init": "mle"}
    sgd = {"frak_h": 1.0, "frak_b": 0.0, "c_h": 4.0, "c_b": 1.0,
           "gamma": "identity", "lambda": "identity"}
    jhat_sgd = dict(sgd, gamma="jhat_inv", **{"lambda": "jhat_inv"})
    ihat_sgd = dict(sgd, gamma="ihat_inv", **{"lambda": "ihat_inv"})
    jhat_sgld = dict(jhat_sgd, c_h=2.0, c_beta=2.0, frak_t=1.0)

    # replicated short runs: across-replicate iterate-average covariance
    def avg_exec(m_epochs: float, thin: int) -> dict:
        return {
            "epochs": m_epochs,
            "seed": seed,
            "replicates": 200,
            "thin": thin,
            "init": "stationary",
        }

    return [
        ("sgd", tree(sgd, dict(long_run))),
        ("jhat_sgd", tree(jhat_sgd, dict(long_run))),
        ("ihat_sgd", tree(ihat_sgd, dict(long_run))),
        ("jhat_sgld", tree(jhat_sgld, dict(long_run))),
        ("jhat_sgd_avg_m8", tree(jhat_sgd, avg_exec(8.0, 40))),
        ("jhat_sgd_avg_m1", tree(jhat_sgd, avg_exec(1.0, 5))),
    ]


def _exp2_trees(scale: float, seed: int, override: float | None):
    n = _scaled_n(20000, scale)
    model = {"family": "logistic", "n": n, "d": 4, "data_seed": 202}
    epochs = _scaled_epochs(4.0, 1.0, override)  # semantic window, not scaled

    def tree(tuning: dict) -> dict:
        return {
            "model": dict(model),
            "tuning": tuning,
            "execution": {
                "epochs": epochs,
                "seed": seed,
                "replicates": 100,
                "thin": 4,
                "init": "stationary",
            },
            "prediction": {"matrices": "empirical", "m_values": list(DEFAULT_M_VALUES)},
        }

    h10 = {"frak_h": 1.0, "frak_b": 0.0, "c_h": 80.0, "c_b": 20.0,
           "gamma": "jhat_inv", "lambda": "jhat_inv"}
    # batch constant chosen so the batch size lands on 20 at the desk n
    c_b = 0.1415
    h55 = {"frak_h": 0.5, "frak_b": 0.5, "c_h": 4.0 * c_b, "c_b": c_b,
           "gamma": "jhat_inv", "lambda": "jhat_inv"}
    return [("exponents_1_0", tree(h10)), ("exponents_half_half", tree(h55))]


def _exp3_trees(scale: float, seed: int, override: float | None):
    n = _scaled_n(15000, scale)
    epochs = _scaled_epochs(20.0, scale, override)
    # intercept plus 24 covariates; two of them badly scaled so that the
    # non-preconditioned step size 4b/n sits far beyond the curvature limit
    scales = [1.0] * 22 + [20.0, 30.0]
    model = {
        "family": "poisson",
        "n": n,
        "d": 25,
        "data_seed": 303,
        "zero_inflation": 0.3,
        "covariate_scales": scales,
    }

    def tree(tuning: dict) -> dict:
        return {
            "model": dict(model),
            "tuning": tuning,
            "execution": {"epochs": epochs, "seed": seed, "thin": 2, "init": "mle"},
            "prediction": {"matrices": "empirical", "m_values": list(DEFAULT_M_VALUES)},
        }

    base = {"frak_h": 1.0, "frak_b": 0.0, "c_h": 100.0, "c_b": 25.0,
            "gamma": "identity", "lambda": "identity"}
    jhat_sgd = dict(base, gamma="jhat_inv", **{"lambda": "jhat_inv"})
    jhat_sgld = dict(jhat_sgd, c_h=50.0, c_beta=2.0, frak_t=1.0)
    return [
        ("sgd", tree(base)),
        ("jhat_sgd", tree(jhat_sgd)),
        ("jhat_sgld", tree(jhat_sgld)),
    ]


_BUILDERS = {"exp1": _exp1_trees, "exp2-synthetic": _exp2_trees, "exp3-synthetic": _exp3_trees}
EXPERIMENT_NAMES = tuple(_BUILDERS)


def experiment_trees(
    name: str,
    scale: float = 1.0,
    seed: int = 0,
    epochs_override: float | None = None,
) -> list[tuple[str, dict]]:
    """Configuration trees for one named experiment, in run order."""
    if not (scale > 0.0 and math.isfinite(scale)):
        raise ConfigError(f"scale must be a positive finite number, got {scale}")
    if name not in _BUILDERS:
        raise ConfigError(
            f"unknown experiment {name!r}; expected one of {EXPERIMENT_NAMES}"
        )
    return _BUILDERS[name](scale, seed, epochs_override)
