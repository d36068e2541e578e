"""Layer micro-sweep: each kernel timed alone, at fixed sizes, in one process.

These are the layer numbers ROADMAP aim 1 asks for: engine steps per second
for each variant, batch-sampling cost under both policies, Lyapunov and
``expm`` time against dimension, autocorrelation-time cost per 10^5
samples, and trace write and read throughput.  Each is the median of a few
repetitions; every input comes from the workload seed.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

from sgalab import artifacts, config, diagnostics, engine, linalg

ENGINE_STEPS = {"plain": 20000, "sgld": 20000, "control_variate": 20000,
                "momentum": 20000, "minibatch_wor": 1000}
REPEATS = 3


def _median_time(fn, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _engine(trees) -> dict[str, float]:
    """Steps per second of ``engine.run`` alone, without recording or I/O."""
    out = {}
    for variant, steps in ENGINE_STEPS.items():
        # long-chain names a variant's trees ``variant`` or ``variant_<k>``
        tree = next(t for name, t in trees if name == variant or name.startswith(f"{variant}_"))
        setup = config.resolve_setup(tree)
        plan = engine.RecordingPlan(thin=steps)
        secs = _median_time(lambda: engine.run(setup.model, setup.data, setup.cfg, n_steps=steps,
                                                theta_hat=setup.mle_theta, recording=plan))
        out[f"engine.steps_per_s.{variant}"] = steps / secs
    return out


def _sampler(rng: np.random.Generator) -> dict[str, float]:
    """The public batch sampler at n = 20000, b = 20 (the engine inlines its own)."""
    out = {}
    for policy, tag, draws in (("with_replacement", "wr", 20000),
                               ("without_replacement", "wor", 1000)):
        secs = _median_time(lambda: [engine.sample_batch(rng, 20000, 20, policy)
                                     for _ in range(draws)])
        out[f"engine.sample_batch_us.{tag}"] = secs / draws * 1e6
    return out


def _stable_pair(rng: np.random.Generator, k: int) -> tuple[np.ndarray, np.ndarray]:
    """A drift with -B Hurwitz and an SPD source, both k x k."""
    m = rng.standard_normal((k, k))
    b = m @ m.T / k + np.eye(k)
    s = rng.standard_normal((k, k))
    return b, s @ s.T / k + np.eye(k)


def _linalg(rng: np.random.Generator) -> dict[str, float]:
    out = {}
    for k, repeats in ((10, 50), (30, 5), (60, 1)):
        b, a = _stable_pair(rng, k)
        secs = _median_time(lambda: linalg.solve_lyapunov(b, a), repeats)
        out[f"linalg.solve_lyapunov_ms.d{k}"] = secs * 1e3
    b, _ = _stable_pair(rng, 60)
    out["linalg.expm_ms.d60"] = _median_time(lambda: linalg.expm(-0.5 * b), 20) * 1e3
    return out


def _iact(rng: np.random.Generator) -> dict[str, float]:
    n = 100_000
    noise = rng.standard_normal(n)
    series = np.empty(n)
    series[0] = noise[0]
    for t in range(1, n):  # AR(1), phi = 0.9: a typical slowly mixing coordinate
        series[t] = 0.9 * series[t - 1] + noise[t]
    return {"diagnostics.iact_ms_per_1e5": _median_time(lambda: diagnostics.iact(series), 5) * 1e3}


def _trace_io(tree, scratch: str) -> dict[str, float]:
    """Write and read one 20000-row, 10-coordinate trace through the artifacts layer."""
    setup = config.resolve_setup(tree)
    record = engine.run(setup.model, setup.data, setup.cfg, n_steps=20000,
                        theta_hat=setup.mle_theta, recording=engine.RecordingPlan(thin=1))
    os.makedirs(scratch, exist_ok=True)
    write_s = _median_time(lambda: artifacts.save_run(scratch, 0, record, setup.hash))
    read_s = _median_time(lambda: artifacts.load_run(scratch, 0))
    mb = (os.path.getsize(artifacts.trace_path(scratch, 0))
          + os.path.getsize(artifacts.run_manifest_path(scratch, 0))) / 1e6
    return {"artifacts.trace_write_mb_per_s": mb / write_s,
            "artifacts.trace_read_mb_per_s": mb / read_s}


def run_sweep(chain_trees, seed: int, scratch: str) -> dict[str, float]:
    """All micro-sweep metrics; ``chain_trees`` are long-chain's trees."""
    rng = np.random.default_rng(seed)
    out = _engine(chain_trees)
    out.update(_sampler(rng))
    out.update(_linalg(rng))
    out.update(_iact(rng))
    out.update(_trace_io(dict(chain_trees)["plain"], scratch))
    return out
