"""Machine-speed calibration, so that times from a shared host are comparable.

On the 2-vCPU host this benchmark was built on (Intel Xeon, Python 3.11,
numpy 2.4, OpenBLAS 0.3 on one thread) the same code ran at speeds that
drifted by a factor of about 1.7 within tens of seconds, with no steal
time: process CPU time drifted with wall time.  The median iteration's raw
wall time over a 20-second run spread by 0.08 to 0.43 (interquartile range
over median) across five to ten runs, up to more than the largest bound a
benchmark may set (0.25); rescaled as below, the same runs spread by 0.02
to 0.08.

A fixed kernel that shares no code with sgalab is therefore timed right
before and right after every measured interval (each command of an
iteration, and each set-up), never inside it, and the interval is rescaled
to a machine on which the kernel takes its reference time:
``factor = reference / kernel`` and a rescaled time is ``raw * factor``.
Paired iterations with and without the kernels between commands took the
same raw command time to within the host's noise (median ratios 1.02 on
poisson-io and 0.95 on predict-highdim, over 16 and 8 pairs).

The drift does not slow every kind of work alike.  A Python loop of small
numpy operations (the engine, trace I/O, the command layer) and dense native
linear algebra (the Kronecker Lyapunov solves) drifted apart by 0.23 over a
90-second probe.  The kernel holds one part of each, so every workload is
rescaled by the same kernel, and work that an optimisation moves from one
kind to the other is rescaled the same way before and after.  In that probe
an interpreter-heavy call (8000 engine steps) and a native-heavy one (a
30 x 30 ``linalg.solve_lyapunov``), timed 437 times each between two
kernel runs, spread by 0.45 and 0.26 raw, and by 0.14 and 0.15 rescaled by
this kernel; either half of the kernel alone left the other kind at 0.19
or 0.24.
"""

from __future__ import annotations

import time

import numpy as np

_rng = np.random.default_rng(20221)
_A = _rng.standard_normal((10, 10)) / 4.0
_X = _rng.standard_normal(10)
_M = _rng.standard_normal((700, 700)) + 700.0 * np.eye(700)
_B = _rng.standard_normal(700)

#: Kernel seconds at the reference speed.
REFERENCE_S = 0.040


def _kernel() -> None:
    y = _X.copy()
    for _ in range(3000):  # interpreter-bound: small numpy operations
        y = 0.5 * (_A @ y) + _X
        y = y / (1.0 + np.abs(y).max())
    for _ in range(3):  # native-bound: a dense LU factorisation
        np.linalg.solve(_M, _B)


_kernel()  # the first call pays one-off costs (page faults, BLAS start-up)


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def factor(before: float, after: float) -> float:
    """Reference seconds per raw second, from kernel times around an interval."""
    return REFERENCE_S / (0.5 * (before + after))


def timed(fn):
    """Run ``fn()``; return ``(result, raw seconds, factor)``."""
    before = kernel_seconds()
    t0 = time.perf_counter()
    result = fn()
    raw = time.perf_counter() - t0
    return result, raw, factor(before, kernel_seconds())
