"""Dense matrix kernels used by the prediction formulas.

Everything here operates on small dense square matrices (tens of rows, not
thousands): symmetrization, matrix exponentials, symmetric inverses and
sandwiches, the one stability test (:func:`min_real_eig` against
``HURWITZ_EPS``), and the continuous-time Lyapunov solve that produces
stationary covariances.  The Lyapunov solve is the
Bartels-Stewart method (Schur decomposition, O(d^3)) from scipy, wrapped
in stability and residual checks; the independent quadrature routes used
to cross-check it live with the tests.

scipy is imported by the first :func:`solve_lyapunov` or :func:`expm`
call, not with the package: ``import sgalab``, ``sgalab --version`` and
``sgalab simulate`` never load it, unless ``init = stationary`` asks for
the stationary covariance.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import (
    DimensionError,
    NumericalError,
    StabilityError,
    require_finite,
    require_square,
)

#: Margin of the stability test: an eigenvalue real part within this
#: distance of zero counts as "on the boundary", i.e. not strictly stable.
HURWITZ_EPS = 1e-12


def sym(m: np.ndarray) -> np.ndarray:
    """Symmetric part ``(m + m.T) / 2`` of a square matrix."""
    m = np.asarray(m, dtype=float)
    require_square("sym argument", m)
    return 0.5 * (m + m.T)


def sym_inv(m: np.ndarray) -> np.ndarray:
    """Symmetrized inverse of a symmetric nonsingular matrix (identity solve)."""
    m = np.asarray(m, dtype=float)
    return sym(np.linalg.solve(m, np.eye(m.shape[0])))


def sandwich(j: np.ndarray, i: np.ndarray) -> np.ndarray:
    """Symmetrized ``J^-1 I J^-1`` through two linear solves.

    No explicit inverse is formed; the second solve uses the transpose of
    the first, which equals ``I J^-1`` for symmetric ``J`` and ``I``.
    """
    half = np.linalg.solve(j, i)
    return sym(np.linalg.solve(j, half.T))


def min_real_eig(m: np.ndarray) -> float:
    """Smallest real part of the spectrum of ``m``; ``-m`` is Hurwitz iff it exceeds HURWITZ_EPS."""
    m = np.asarray(m, dtype=float)
    require_square("min_real_eig argument", m)
    require_finite("min_real_eig argument", m)
    return float(np.linalg.eigvals(m).real.min())


def expm(m: np.ndarray) -> np.ndarray:
    """Matrix exponential (scaling-and-squaring with Pade approximation)."""
    m = np.asarray(m, dtype=float)
    require_square("expm argument", m)
    require_finite("expm argument", m)
    import scipy.linalg  # here, so that `import sgalab` does not pay ~0.2 s for scipy

    return scipy.linalg.expm(m)


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Symmetric square root of a symmetric positive semi-definite matrix.

    Computed through the eigendecomposition; eigenvalues in
    ``[-1e-10 * scale, 0)`` (``scale`` the largest eigenvalue, at least 1)
    are clamped to zero, anything more negative is an error.  This is what
    turns a possibly singular diffusion matrix into a noise-injection factor.
    """
    m = np.asarray(m, dtype=float)
    require_square("psd_sqrt argument", m)
    if not np.allclose(m, m.T, rtol=0.0, atol=1e-12 * (1.0 + np.abs(m).max())):
        raise DimensionError("psd_sqrt argument must be symmetric")
    vals, vecs = np.linalg.eigh(m)
    scale = max(float(vals[-1]), 1.0)
    if vals[0] < -1e-10 * scale:
        raise StabilityError(
            f"matrix is not positive semi-definite (min eigenvalue {vals[0]:.3e})"
        )
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def solve_lyapunov(b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Solve ``(1/2) B Q + (1/2) Q B^T = A`` for the stationary covariance Q.

    ``-B`` must be Hurwitz for a (unique, positive semi-definite) solution
    to exist; otherwise a :class:`StabilityError` is raised.  ``A`` is
    expected symmetric PSD; an asymmetric ``A`` is symmetrized with a
    warning.  The solve is Bartels-Stewart (``scipy.linalg.
    solve_continuous_lyapunov`` on ``B/2``), O(d^3) time and O(d^2) memory;
    its residual is checked before the solution is returned.
    """
    b = np.asarray(b, dtype=float)
    a = np.asarray(a, dtype=float)
    require_square("lyapunov drift matrix", b)
    require_square("lyapunov source matrix", a)
    if b.shape != a.shape:
        raise DimensionError(
            f"drift and source shapes differ: {b.shape} vs {a.shape}"
        )
    require_finite("lyapunov drift matrix", b)
    require_finite("lyapunov source matrix", a)
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-10 * (1.0 + np.abs(a).max())):
        warnings.warn("source matrix is not symmetric; using its symmetric part")
    a = 0.5 * (a + a.T)
    rate = min_real_eig(b)
    if rate <= HURWITZ_EPS:
        raise StabilityError(
            "no stationary covariance: -B is not Hurwitz "
            f"(min real eigenvalue of B is {rate:.3e})"
        )
    import scipy.linalg  # here, so that `import sgalab` does not pay ~0.2 s for scipy

    q = scipy.linalg.solve_continuous_lyapunov(0.5 * b, a)
    q = 0.5 * (q + q.T)
    residual = np.linalg.norm(0.5 * (b @ q + q @ b.T) - a)
    if residual > 1e-9 * (1.0 + np.linalg.norm(a)):
        raise NumericalError(f"lyapunov solve residual {residual:.3e} exceeds tolerance")
    return q
