"""Tuning configuration for the stochastic-gradient family.

A tuning names the polynomial-in-n schedules for step size, batch size and
inverse temperature through (exponent, constant) pairs::

    step size     h(n)    = c_h * n**(-frak_h)
    batch size    b(n)    = floor(c_b * n**frak_b)
    inverse temp  beta(n) = c_beta * n**frak_t      (infinite = no noise)

plus the preconditioner, the noise shape matrix, the batch sampling policy,
the algorithm variant (plain, momentum with unit mass, or control-variate),
an optional coordinate box, and the run seed.  Infinite temperature is
expressed either as ``frak_t = inf`` or ``c_beta = inf``; both mean the
Gaussian innovation term is omitted entirely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from .errors import ConfigError

WITH_REPLACEMENT = "with_replacement"
WITHOUT_REPLACEMENT = "without_replacement"
POLICIES = (WITH_REPLACEMENT, WITHOUT_REPLACEMENT)

PLAIN = "plain"
MOMENTUM = "momentum"
CONTROL_VARIATE = "control_variate"
VARIANTS = (PLAIN, MOMENTUM, CONTROL_VARIATE)

#: The schedule's exponents and constants, each a float (possibly inf).
SCHEDULE = ("frak_h", "frak_b", "frak_t", "c_h", "c_b", "c_beta")


def _check_spd(name: str, m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ConfigError(f"{name} must be a square matrix, got shape {m.shape}")
    if not np.allclose(m, m.T, rtol=0.0, atol=1e-10 * (1.0 + np.abs(m).max())):
        raise ConfigError(f"{name} must be symmetric")
    vals = np.linalg.eigvalsh(0.5 * (m + m.T))
    if vals[0] < -1e-10 * max(vals[-1], 1.0):
        raise ConfigError(f"{name} must be positive semi-definite (min eigenvalue {vals[0]:.3e})")
    return m


@dataclass
class TuningConfig:
    """Full description of one algorithm instance; validated on creation."""

    frak_h: float = 1.0
    frak_b: float = 0.0
    frak_t: float = math.inf
    c_h: float = 1.0
    c_b: float = 1.0
    c_beta: float = 1.0
    gamma: np.ndarray | None = None
    lam: np.ndarray | None = None
    policy: str = WITH_REPLACEMENT
    variant: str = PLAIN
    boundary: tuple[np.ndarray, np.ndarray] | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("frak_h", "frak_b"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ConfigError(f"{name} must be finite and >= 0, got {v}")
        if math.isnan(self.frak_t) or self.frak_t == -math.inf:
            raise ConfigError(f"frak_t must be a real number or +inf, got {self.frak_t}")
        for name in ("c_h", "c_b"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ConfigError(f"{name} must be finite and > 0, got {v}")
        if not self.c_beta > 0.0:
            raise ConfigError(f"c_beta must be > 0 (possibly inf), got {self.c_beta}")
        if self.policy not in POLICIES:
            raise ConfigError(f"policy must be one of {POLICIES}, got {self.policy!r}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.gamma is not None:
            self.gamma = np.asarray(self.gamma, dtype=float)
            if self.gamma.ndim != 2 or self.gamma.shape[0] != self.gamma.shape[1]:
                raise ConfigError("gamma must be a square matrix")
        if self.lam is not None:
            self.lam = _check_spd("lambda (noise shape)", self.lam)
        if self.boundary is not None:
            lo = np.asarray(self.boundary[0], dtype=float)
            hi = np.asarray(self.boundary[1], dtype=float)
            if lo.shape != hi.shape or lo.ndim != 1:
                raise ConfigError("boundary must be a pair of equal-length vectors")
            if not np.all(lo < hi):
                raise ConfigError("boundary must satisfy lo < hi coordinatewise")
            self.boundary = (lo, hi)
        if not (isinstance(self.seed, (int, np.integer)) and 0 <= int(self.seed) < 2**64):
            raise ConfigError("seed must be an unsigned 64-bit integer")
        self.seed = int(self.seed)

    # ---- schedule evaluation -------------------------------------------

    @property
    def temperature_exponent(self) -> float:
        """Effective temperature exponent: +inf whenever the noise is off."""
        return math.inf if math.isinf(self.c_beta) else self.frak_t

    @property
    def has_noise(self) -> bool:
        """Whether the Gaussian innovation term is present at all."""
        return not math.isinf(self.temperature_exponent)

    def step_size(self, n: int) -> float:
        return self.c_h * float(n) ** (-self.frak_h)

    def batch_size(self, n: int) -> int:
        b = math.floor(self.c_b * float(n) ** self.frak_b)
        if b < 1:
            raise ConfigError(
                f"batch schedule gives b = {b} < 1 at n = {n};"
                " increase c_b or frak_b"
            )
        if b > n:
            raise ConfigError(f"batch schedule gives b = {b} > n = {n}")
        return b

    def inverse_temperature(self, n: int) -> float:
        if not self.has_noise:
            return math.inf
        return self.c_beta * float(n) ** self.frak_t

    def steps_per_epoch(self, n: int) -> float:
        """One epoch is n/b iterations (need not be an integer)."""
        return n / self.batch_size(n)

    def epochs_to_steps(self, n: int, epochs: float) -> int:
        """Steps in ``epochs`` epochs, rounded, and at least one."""
        if not (math.isfinite(epochs) and epochs > 0.0):
            raise ConfigError(f"epochs must be finite and > 0, got {epochs}")
        return max(1, int(round(epochs * self.steps_per_epoch(n))))

    def with_seed(self, seed: int) -> "TuningConfig":
        return replace(self, seed=int(seed))

    # ---- serialization -------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Plain dictionary of floats, lists and strings for the JSON writer."""
        out: dict[str, Any] = {name: float(getattr(self, name)) for name in SCHEDULE}
        out.update(policy=self.policy, variant=self.variant, seed=self.seed)
        for name in ("gamma", "lam"):
            v = getattr(self, name)
            out[name] = None if v is None else np.asarray(v).tolist()
        out["boundary"] = (
            None
            if self.boundary is None
            else [self.boundary[0].tolist(), self.boundary[1].tolist()]
        )
        return out

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "TuningConfig":
        if d.get("mass") is not None:  # older files carry "mass": null
            raise ConfigError("a mass matrix is not supported: momentum has unit mass")
        kwargs: dict[str, Any] = {name: float(d[name]) for name in SCHEDULE}
        kwargs.update(
            policy=d.get("policy", WITH_REPLACEMENT),
            variant=d.get("variant", PLAIN),
            seed=int(d.get("seed", 0)),
        )
        for name in ("gamma", "lam"):
            v = d.get(name)
            kwargs[name] = None if v is None else np.asarray(v, dtype=float)
        bnd = d.get("boundary")
        kwargs["boundary"] = (
            None if bnd is None else (np.asarray(bnd[0], float), np.asarray(bnd[1], float))
        )
        return cls(**kwargs)

