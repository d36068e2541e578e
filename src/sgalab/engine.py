"""Seedable execution engine for the stochastic-gradient family.

One engine runs every variant of the update

    state  <-  state + (h/2) * Gamma * grad_estimate + sqrt(h/beta) * L * xi

where ``grad_estimate`` averages per-record score rows over a uniformly
sampled minibatch plus the (1/n-scaled) prior gradient, ``xi`` is a standard
Gaussian vector, and an optional box projection keeps iterates inside a
coordinate box.  The momentum variant runs the same recursion on the
doubled state (parameter, momentum) with the structured preconditioner that
zeroes the direct parameter/gradient coupling; the control-variate variant
recenters each minibatch score at an anchor point and adds back the full-data
anchor score so the estimate stays unbiased for any anchor.

Randomness discipline: the run seed feeds a counter-based generator through
two spawned child streams, one consumed exclusively by batch-index sampling
and one by Gaussian innovations (a third covers randomized initialization).
Noiseless and noisy runs at the same seed therefore visit identical batch
sequences, and a run is bit-reproducible from its seed and configuration.
Minibatch scores are averaged over SORTED index order, so the estimate is
unchanged in law (it depends only on the index multiset) while full-batch
sampling reduces in natural data order and degenerates bit-exactly to
deterministic preconditioned gradient descent.  ``run`` works in blocks of
steps: one :func:`sample_batch` call, one gather of records, one noise draw,
then the compiled transition step by step.  Every stream is consumed in step
order, the iterate average is a running sum in step order, and a divergence
stops at the offending iterate, so block boundaries never affect results.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, DimensionError, DivergenceError, RegimeError
from .linalg import psd_sqrt
from .models import Dataset, ModelSpec
from .theory import scaling_law
from .tuning import CONTROL_VARIATE, MOMENTUM, PLAIN, WITHOUT_REPLACEMENT, TuningConfig

#: A coordinate beyond this magnitude (or any non-finite value) is divergence.
DIVERGENCE_LIMIT = 1e12

#: Records gathered per block: ``BLOCK_ROWS // b`` steps (at least one), or
#: ``BLOCK_ROWS`` steps when each batch is the whole dataset, viewed in place.
BLOCK_ROWS = 1024


def sample_batch(
    rng: np.random.Generator, n: int, b: int, policy: str, steps: int = 1
) -> np.ndarray:
    """Draw ``steps`` batches of ``b`` record indices from ``0..n-1``.

    Returns a ``(steps, b)`` integer array whose rows are sorted.  With
    replacement each row holds i.i.d. uniform indices.  Without replacement
    each row is a uniformly random ``b``-subset: a single index is drawn as
    with replacement (the law is the same), and for ``b = n`` every row is
    ``0..n-1`` surely, so no randomness is consumed and the result is a
    read-only broadcast view of one ``arange(n)``.
    """
    if not 1 <= b <= n:
        raise ConfigError(f"batch size must satisfy 1 <= b <= n, got b={b}, n={n}")
    if policy == WITHOUT_REPLACEMENT and b == n:
        return np.broadcast_to(np.arange(n), (steps, n))
    if policy == WITHOUT_REPLACEMENT and b > 1:
        idx = np.empty((steps, b), dtype=np.int64)
        # Row by row: each permutation is dropped before the next is drawn.
        for row in idx:
            row[:] = rng.permutation(n)[:b]
    else:
        idx = rng.integers(0, n, size=(steps, b))
    idx.sort(axis=1)
    return idx


@dataclass
class RecordingPlan:
    """What a run keeps: thinning stride and the iterate-average window.

    The average covers iterates ``average_start+1`` up to
    ``average_stop`` inclusive, counting from 1; ``average_stop = None``
    means the end of the run.
    """

    thin: int = 1
    average_start: int = 0
    average_stop: int | None = None

    def __post_init__(self) -> None:
        if self.thin < 1:
            raise ConfigError(f"thin must be >= 1, got {self.thin}")
        if self.average_start < 0:
            raise ConfigError("average_start must be >= 0")
        if self.average_stop is not None and self.average_stop <= self.average_start:
            raise ConfigError("average window must be non-empty")


@dataclass
class RunRecord:
    """Everything a finished (or diverged) run leaves behind.

    ``states`` holds the thinned trajectory: the state after steps
    ``thin, 2*thin, ...``.  ``avg_state`` is the mean state over the
    recording window.  When an anchor (``theta_hat``) was supplied,
    ``rescaled_states`` maps the parameter block through
    ``n**local_exponent * (theta - theta_hat)``, the coordinates in which
    the large-sample predictions live.
    """

    manifest: dict
    states: np.ndarray
    thin: int
    init_state: np.ndarray
    final_state: np.ndarray
    avg_state: np.ndarray | None
    avg_window: tuple[int, int]
    theta_hat: np.ndarray | None
    local_exponent: float
    n: int
    dim: int
    n_steps: int
    wall_time: float = 0.0
    diverged_at: int | None = None

    @property
    def state_dim(self) -> int:
        return int(self.states.shape[1]) if self.states.size else len(self.init_state)

    def step_numbers(self) -> np.ndarray:
        """1-based step index of each stored state row."""
        return self.thin * np.arange(1, self.states.shape[0] + 1)

    def _scale(self) -> float:
        if math.isnan(self.local_exponent):
            raise ConfigError(
                "configuration has no large-sample scaling regime;"
                " rescaled coordinates are undefined"
            )
        return float(self.n) ** self.local_exponent

    def rescaled_states(self) -> np.ndarray:
        """Thinned parameter block in rescaled coordinates."""
        if self.theta_hat is None:
            raise ConfigError("run has no anchor point; cannot rescale")
        return self._scale() * (self.states[:, : self.dim] - self.theta_hat)

    def rescaled_avg(self) -> np.ndarray:
        if self.theta_hat is None or self.avg_state is None:
            raise ConfigError("run has no anchor point or no average window")
        return self._scale() * (self.avg_state[: self.dim] - self.theta_hat)


def dataset_hash(records: np.ndarray) -> str:
    digest = hashlib.sha256()
    digest.update(str(records.shape).encode())
    digest.update(np.ascontiguousarray(records).tobytes())
    return digest.hexdigest()


@dataclass
class _Context:
    """Resolved per-run constants shared by ``step`` and ``run``."""

    model: ModelSpec
    records: np.ndarray
    cfg: TuningConfig
    n: int
    dim: int
    state_dim: int
    h: float
    b: int
    beta: float
    gamma: np.ndarray
    noise_factor: np.ndarray | None
    box: tuple[np.ndarray, np.ndarray] | None
    local_exponent: float
    anchor: np.ndarray | None = None
    anchor_grads: np.ndarray | None = None
    anchor_mean: np.ndarray | None = None
    mass_inv: np.ndarray | None = None
    transition: Callable | None = field(default=None, repr=False)


def _build_context(
    model: ModelSpec,
    records: np.ndarray,
    cfg: TuningConfig,
    n: int,
    anchor: np.ndarray | None,
) -> _Context:
    d = model.dim
    h = cfg.step_size(n)
    b = cfg.batch_size(n)
    beta = cfg.inverse_temperature(n)
    gamma = np.eye(d) if cfg.gamma is None else np.asarray(cfg.gamma, float)
    if gamma.shape != (d, d):
        raise ConfigError(f"gamma must be {d}x{d}, got {gamma.shape}")
    lam = np.eye(d) if cfg.lam is None else np.asarray(cfg.lam, float)
    if lam.shape != (d, d):
        raise ConfigError(f"lambda must be {d}x{d}, got {lam.shape}")

    box = cfg.boundary
    if box is not None and box[0].shape != (d,):
        raise ConfigError(f"boundary box must have {d} coordinates")

    # Simulation is defined for any schedule; only rescaled coordinates need
    # the large-sample regime, so its absence is recorded, not fatal.
    try:
        local_exponent = scaling_law(cfg).local_exponent
    except RegimeError:
        local_exponent = math.nan

    noise_factor = None
    if cfg.has_noise:
        shape = gamma if cfg.variant == MOMENTUM else lam
        noise_factor = psd_sqrt((h / beta) * shape)

    ctx = _Context(
        model=model,
        records=records,
        cfg=cfg,
        n=n,
        dim=d,
        state_dim=2 * d if cfg.variant == MOMENTUM else d,
        h=h,
        b=b,
        beta=beta,
        gamma=gamma,
        noise_factor=noise_factor,
        box=box,
        local_exponent=local_exponent,
    )

    if cfg.variant == CONTROL_VARIATE:
        if anchor is None:
            raise ConfigError("control-variate variant needs an anchor point")
        anchor = np.asarray(anchor, dtype=float)
        if anchor.shape != (d,):
            raise ConfigError(f"anchor must have shape ({d},)")
        ctx.anchor = anchor
        ctx.anchor_grads = model.grad(anchor, records)
        ctx.anchor_mean = ctx.anchor_grads.mean(axis=0)
    if cfg.variant == MOMENTUM:
        mass = np.eye(d) if cfg.mass is None else cfg.mass
        if mass.shape != (d, d):
            raise ConfigError(f"mass matrix must be {d}x{d}")
        ctx.mass_inv = np.linalg.inv(mass)

    ctx.transition = _make_transition(ctx)
    return ctx


def _make_transition(ctx: _Context) -> Callable:
    """Compile the per-step update into a closure with bound constants."""
    model = ctx.model
    grad_fn = model.grad
    prior_fn = model.grad_prior
    inv_n = 1.0 / ctx.n
    flat_prior = not np.any(prior_fn(np.zeros(ctx.dim)))
    half_h_gamma = 0.5 * ctx.h * ctx.gamma
    noise = ctx.noise_factor
    box = ctx.box
    d = ctx.dim

    if ctx.cfg.variant == MOMENTUM:
        mass_inv = ctx.mass_inv
        half_h_minv = 0.5 * ctx.h * mass_inv
        half_h_gamma_minv = 0.5 * ctx.h * (ctx.gamma @ mass_inv)
        half_h = 0.5 * ctx.h

        def transition(state, rows, idx, xi):
            theta = state[:d]
            psi = state[d:]
            g_like = grad_fn(theta, rows).mean(axis=0)
            new_theta = theta + half_h_minv @ psi
            if box is not None:
                new_theta = np.clip(new_theta, box[0], box[1])
            new_psi = psi + half_h * g_like - half_h_gamma_minv @ psi
            if not flat_prior:
                new_psi = new_psi + half_h * (inv_n * prior_fn(theta))
            if noise is not None:
                new_psi = new_psi + noise @ xi
            out = np.empty(2 * d)
            out[:d] = new_theta
            out[d:] = new_psi
            return out

        return transition

    anchor_grads = ctx.anchor_grads
    anchor_mean = ctx.anchor_mean
    control_variate = ctx.cfg.variant == CONTROL_VARIATE

    def transition(state, rows, idx, xi):
        if control_variate:
            g_like = (grad_fn(state, rows) - anchor_grads[idx]).mean(axis=0) + anchor_mean
        else:
            g_like = grad_fn(state, rows).mean(axis=0)
        delta_loglik = half_h_gamma @ g_like
        if flat_prior:
            proposal = state + delta_loglik
        else:
            proposal = state + delta_loglik + half_h_gamma @ (inv_n * prior_fn(state))
        if noise is not None:
            proposal = proposal + noise @ xi
        if box is not None:
            proposal = np.clip(proposal, box[0], box[1])
        return proposal

    return transition


def step(
    model: ModelSpec,
    data: Dataset,
    cfg: TuningConfig,
    state: np.ndarray,
    batch: np.ndarray,
    xi: np.ndarray | None = None,
    anchor: np.ndarray | None = None,
) -> np.ndarray:
    """Reference single transition with explicit randomness.

    ``batch`` is the index tuple for this step and ``xi`` the standard
    Gaussian innovation (required exactly when the configuration has noise).
    ``run`` applies this same compiled update per step, so a manual loop of
    ``step`` calls reproduces a run bit-for-bit given the same draws.
    """
    records = model.check_records(data.records)
    ctx = _build_context(model, records, cfg, records.shape[0], anchor)
    state = np.asarray(state, dtype=float)
    if state.shape != (ctx.state_dim,):
        raise DimensionError(f"state must have shape ({ctx.state_dim},)")
    batch = np.sort(np.asarray(batch))
    if ctx.noise_factor is not None:
        if xi is None:
            raise ConfigError("this configuration has Gaussian noise; xi is required")
        xi = np.asarray(xi, dtype=float)
        if xi.shape != (ctx.dim,):
            raise DimensionError(f"xi must have shape ({ctx.dim},)")
    return ctx.transition(state, records[batch], batch, xi)


def _resolve_init(
    ctx: _Context,
    init,
    theta_hat: np.ndarray | None,
    rng: np.random.Generator,
) -> np.ndarray:
    d, state_dim = ctx.dim, ctx.state_dim
    state = np.zeros(state_dim)
    if init is None:
        if theta_hat is not None:
            state[:d] = theta_hat
        return state
    if isinstance(init, tuple) and len(init) == 2 and isinstance(init[0], str):
        kind, arg = init
        if theta_hat is None:
            raise ConfigError(f"init mode {kind!r} needs an anchor point")
        if math.isnan(ctx.local_exponent):
            raise ConfigError(
                f"init mode {kind!r} needs a configuration with a"
                " large-sample scaling regime"
            )
        scale = float(ctx.n) ** (-ctx.local_exponent)
        if kind == "stationary":
            cov = np.asarray(arg, dtype=float)
            if cov.shape != (d, d):
                raise ConfigError(f"stationary init covariance must be {d}x{d}")
            state[:d] = theta_hat + scale * (psd_sqrt(cov) @ rng.standard_normal(d))
            return state
        if kind == "overdispersed":
            state[:d] = theta_hat + float(arg) * scale * rng.standard_normal(d)
            return state
        raise ConfigError(f"unknown init mode {kind!r}")
    arr = np.asarray(init, dtype=float)
    if arr.shape == (state_dim,):
        return arr.copy()
    if arr.shape == (d,):
        state[:d] = arr
        return state
    raise ConfigError(
        f"init must have shape ({d},) or ({state_dim},), got {arr.shape}"
    )


def run(
    model: ModelSpec,
    data: Dataset,
    cfg: TuningConfig,
    n_steps: int | None = None,
    epochs: float | None = None,
    theta_hat: np.ndarray | None = None,
    init=None,
    recording: RecordingPlan | None = None,
    anchor: np.ndarray | None = None,
) -> RunRecord:
    """Execute the configured loop for ``n_steps`` (or ``epochs``) steps.

    One epoch is ``n / b`` iterations.  ``theta_hat`` (if given) anchors the
    rescaled trajectory, serves as the default initial point, and is the
    default control-variate anchor.  Divergence (a coordinate beyond
    ``DIVERGENCE_LIMIT`` or non-finite) raises :class:`DivergenceError`
    whose ``partial_record`` attribute holds everything recorded up to the
    offending step.
    """
    t_start = time.perf_counter()
    records = model.check_records(data.records)
    n = records.shape[0]
    if (n_steps is None) == (epochs is None):
        raise ConfigError("specify exactly one of n_steps or epochs")
    if n_steps is None:
        n_steps = cfg.epochs_to_steps(n, epochs)
    if n_steps < 1:
        raise ConfigError("n_steps must be >= 1")
    recording = recording or RecordingPlan()

    if anchor is None and cfg.variant == CONTROL_VARIATE:
        anchor = theta_hat
    ctx = _build_context(model, records, cfg, n, anchor)
    d, state_dim, b = ctx.dim, ctx.state_dim, ctx.b

    root = np.random.SeedSequence(cfg.seed)
    batch_ss, noise_ss, init_ss = root.spawn(3)
    batch_rng = np.random.Generator(np.random.Philox(batch_ss))
    noise_rng = np.random.Generator(np.random.Philox(noise_ss))
    init_rng = np.random.Generator(np.random.Philox(init_ss))

    state = _resolve_init(ctx, init, theta_hat, init_rng)
    init_state = state.copy()

    win_lo = recording.average_start
    win_hi = recording.average_stop if recording.average_stop is not None else n_steps
    if win_lo >= n_steps:
        win_lo, win_hi = n_steps, n_steps  # empty window
    win_hi = min(win_hi, n_steps)

    thin = recording.thin
    states = np.empty((n_steps // thin, state_dim))
    avg_sum = np.zeros(state_dim)

    transition = ctx.transition
    # Exhaustive batches (b = n without replacement) are the whole dataset in
    # natural order every step, so their records are viewed, never gathered.
    exhaustive = b == n and cfg.policy == WITHOUT_REPLACEMENT
    block_steps = BLOCK_ROWS if exhaustive else max(1, BLOCK_ROWS // b)
    buf = np.empty((block_steps, state_dim))
    diverged_at: int | None = None

    step_global = 0  # steps completed before the current block
    # Runaway trajectories legitimately produce overflow/nan in the steps
    # just before the divergence scan cuts the block; those transient
    # warnings are noise, the scan is the real detector.
    with np.errstate(over="ignore", invalid="ignore"):
        while step_global < n_steps and diverged_at is None:
            blk = min(block_steps, n_steps - step_global)

            # Batch indices for the block, consumed from the batch stream only.
            idx_block = sample_batch(batch_rng, n, b, cfg.policy, blk)
            if exhaustive:
                rows_block = np.broadcast_to(records, (blk, *records.shape))
            else:
                rows_block = records[idx_block]
            noise_block = (
                noise_rng.standard_normal((blk, d))
                if ctx.noise_factor is not None
                else [None] * blk
            )

            for i, (rows, idx, xi) in enumerate(zip(rows_block, idx_block, noise_block)):
                state = buf[i] = transition(state, rows, idx, xi)

            # Divergence scan before any accumulation uses the block.
            bad = ~np.all(np.abs(buf[:blk]) <= DIVERGENCE_LIMIT, axis=1)
            if bad.any():
                first_bad = int(np.argmax(bad))
                diverged_at = step_global + first_bad + 1
                state = buf[first_bad].copy()  # the offending iterate
                blk = first_bad  # keep only the steps before the divergence

            # Thinned trajectory: of steps s0+1 .. s0+blk keep multiples of thin.
            kept = buf[(-step_global - 1) % thin : blk : thin]
            states[step_global // thin : step_global // thin + len(kept)] = kept
            lo = max(win_lo - step_global, 0)
            hi = min(win_hi - step_global, blk)
            if lo < hi:
                # One running sum in step order, whatever the block length.
                avg_sum = np.add.accumulate(np.vstack([avg_sum, buf[lo:hi]]))[-1]
            step_global += blk

    states = states[: step_global // thin]
    avg_count = min(win_hi, step_global) - win_lo
    avg_state = avg_sum / avg_count if avg_count > 0 else None

    manifest = {
        "config": cfg.to_dict(),
        "n": n,
        "dim": d,
        "state_dim": state_dim,
        "n_steps": n_steps,
        "thin": thin,
        "avg_window": [win_lo, win_hi],
        "data_hash": dataset_hash(records),
        "theta_hat": None if theta_hat is None else np.asarray(theta_hat).tolist(),
        "local_exponent": ctx.local_exponent,
        "init_state": init_state.tolist(),
        "step_size": ctx.h,
        "batch_size": b,
        "inverse_temperature": "inf" if math.isinf(ctx.beta) else ctx.beta,
        "diverged_at": diverged_at,
    }

    record = RunRecord(
        manifest=manifest,
        states=states,
        thin=thin,
        init_state=init_state,
        final_state=state.copy(),
        avg_state=avg_state,
        avg_window=(win_lo, win_hi),
        theta_hat=None if theta_hat is None else np.asarray(theta_hat, float).copy(),
        local_exponent=ctx.local_exponent,
        n=n,
        dim=d,
        n_steps=n_steps,
        wall_time=time.perf_counter() - t_start,
        diverged_at=diverged_at,
    )
    if diverged_at is not None:
        err = DivergenceError(
            f"iterate exceeded {DIVERGENCE_LIMIT:.0e} at step {diverged_at}",
            step=diverged_at,
            last_iterate=state.copy(),
        )
        err.partial_record = record
        raise err
    return record


def run_replicates(
    model: ModelSpec,
    data: Dataset,
    cfg: TuningConfig,
    replicates: int,
    **run_kwargs,
) -> list[RunRecord]:
    """Sequential replicate runs with seeds ``cfg.seed + r`` for ``r = 0..R-1``."""
    if replicates < 1:
        raise ConfigError("replicates must be >= 1")
    return [
        run(model, data, cfg.with_seed(cfg.seed + r), **run_kwargs)
        for r in range(replicates)
    ]
