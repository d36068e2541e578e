"""Exception taxonomy shared across the package.

Every failure mode that callers are expected to branch on gets its own class.
The exit-code table lives on the classes: each declares the process
``exit_code`` and the stderr ``label`` that :func:`sgalab.cli.main` reports,
and a subclass inherits both unless it states its own.
"""

from __future__ import annotations

import numpy as np


class SgaLabError(Exception):
    """Base class for all package-specific errors."""

    exit_code, label = 1, "error"


class DimensionError(SgaLabError, ValueError):
    """Array arguments have incompatible or invalid shapes."""


class NonFiniteError(SgaLabError, ValueError):
    """An input or intermediate quantity contains NaN or infinity."""


class NumericalError(SgaLabError, RuntimeError):
    """An iterative numerical routine failed to reach its tolerance."""


class StabilityError(SgaLabError, ValueError):
    """The drift matrix is not stable, so no stationary covariance exists."""

    exit_code, label = 3, "stability error"


class RegimeError(SgaLabError, ValueError):
    """The scaling exponents violate a validity condition.

    The message names the violated inequality.
    """

    exit_code, label = 2, "regime error"


class ConfigError(SgaLabError, ValueError):
    """A configuration value or combination of values is invalid."""


class DataError(SgaLabError, ValueError):
    """A dataset violates the model's requirements or failed to parse."""


class NonConvergenceError(NumericalError):
    """An optimizer ran out of iterations."""


class DivergenceError(SgaLabError, RuntimeError):
    """An iterate left the trust region; a single run's ``partial_record`` says when and where."""

    exit_code, label = 5, "divergence"


class RecommendationError(SgaLabError, ValueError):
    """A tuning target is unreachable under the stated preferences."""

    exit_code, label = 2, "regime error"


class ArtifactMismatchError(SgaLabError, ValueError):
    """Artifacts being combined were produced from different configurations."""

    exit_code, label = 4, "artifact mismatch"


def require_finite(name: str, arr) -> None:
    """Raise :class:`NonFiniteError` if ``arr`` contains NaN or infinity."""
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{name} contains non-finite entries")


def require_square(name: str, arr) -> None:
    """Raise :class:`DimensionError` unless ``arr`` is a square 2-d array."""
    a = np.asarray(arr)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"{name} must be a square matrix, got shape {a.shape}")
