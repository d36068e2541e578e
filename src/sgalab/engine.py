"""Seedable execution engine for the stochastic-gradient family.

One engine runs every variant of the update

    state  <-  state + (h/2) * Gamma * grad_estimate + sqrt(h/beta) * L * xi

where ``grad_estimate`` averages per-record score rows over a uniformly
sampled minibatch plus the (1/n-scaled) prior gradient, ``xi`` is a standard
Gaussian vector, and an optional box projection keeps iterates inside a
coordinate box.  The momentum variant runs the same recursion on the
doubled state (parameter, momentum) with unit mass and the structured
preconditioner that zeroes the direct parameter/gradient coupling; the
control-variate variant recenters each minibatch score at an anchor point
and adds back the full-data anchor score so the estimate stays unbiased for
any anchor.

Randomness discipline: replicate ``r`` of a command runs at seed
``cfg.seed + r``, which feeds a counter-based generator through two spawned
child streams, one consumed exclusively by batch-index sampling and one by
Gaussian innovations (a third covers randomized initialization).  Noiseless
and noisy runs at the same seed therefore visit identical batch sequences,
and a replicate is bit-reproducible from its seed and configuration.
Minibatch scores are averaged over SORTED index order, so the estimate is
unchanged in law (it depends only on the index multiset) while full-batch
sampling reduces in natural data order and degenerates bit-exactly to
deterministic preconditioned gradient descent.

:func:`run_replicates` advances all replicates of a command together, as
one ``(R, state_dim)`` array, so the per-step interpreter cost is paid once
per step rather than once per replicate-step; :func:`run` is its
one-replicate case.  Every replicate keeps its own streams, and every
product in the update is a per-replicate matrix-vector product, so
replicate ``r`` equals its solo run bit for bit.  The loop works at two
block sizes.  A draw block gives each replicate one :func:`sample_batch`
call and one noise draw covering up to ``_DRAW_STEPS`` steps.  Gather
blocks split it so that each gathers at most about ``BLOCK_ROWS`` records
over all replicates; per gather block the records, the control-variate
anchor scores of the same indices and the noise term ``L xi`` are computed
once, stacked over steps and replicates, and one call of the compiled step
loop runs the block, writing each iterate into its row of the block
buffer.  A gather block of one live replicate (every long chain) drops the
replicate axis and takes its matrix-vector products with ``np.dot``, whose
gemv gives ``np.matvec``'s bits without its gufunc dispatch; at ``dim = 1``
the two differ in the sign of zero, so such blocks stay stacked.  Every stream is consumed in step order, each iterate average is a
running sum in step order, and each replicate stops at its own first
diverging iterate, so neither block boundaries nor the grouping of
replicates into commands affect results.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable

import numpy as np

from .errors import ConfigError, DivergenceError, RegimeError
from .linalg import psd_sqrt
from .models import Dataset, ModelSpec, zero_prior
from .theory import scaling_law
from .tuning import CONTROL_VARIATE, MOMENTUM, PLAIN, WITHOUT_REPLACEMENT, TuningConfig

#: A coordinate beyond this magnitude (or any non-finite value) is divergence.
DIVERGENCE_LIMIT = 1e12

#: Records gathered per gather block over all R replicates: ``BLOCK_ROWS //
#: (R*b)`` steps (at least one), or ``BLOCK_ROWS // R`` steps when each batch
#: is the whole dataset, viewed in place.  A gather block never crosses the
#: end of a draw block.  Larger blocks save little interpreter time and cost
#: memory in proportion.
BLOCK_ROWS = 4096

#: Steps per draw block, rounded up to whole gather blocks: each replicate
#: draws its batch indices and its noise for the block in one call each, so
#: at large R, where a gather block is a step or two, the per-replicate
#: generator calls are not paid at every step.  Where the draw buffers would
#: pass ``_DRAW_STEPS * BLOCK_ROWS`` values (2**20) over all replicates, a
#: draw block covers fewer steps (at least one gather block).
_DRAW_STEPS = 256


def sample_batch(
    rng: np.random.Generator, n: int, b: int, policy: str, steps: int = 1
) -> np.ndarray:
    """Draw ``steps`` batches of ``b`` record indices from ``0..n-1``.

    Returns a ``(steps, b)`` integer array whose rows are sorted.  With
    replacement each row holds i.i.d. uniform indices.  Without replacement
    each row is a uniformly random ``b``-subset: a single index is drawn as
    with replacement (the law is the same), and for ``b = n`` every row is
    ``0..n-1`` surely, so no randomness is consumed and the result is a
    read-only broadcast view of one ``arange(n)``.  For ``1 < b < n`` a row
    is numpy's ``choice(n, b, replace=False, shuffle=False)``: O(b) time and
    memory (Floyd's algorithm), or O(n) (a tail shuffle) if ``n > 10000``
    and ``b > n // 50``.
    """
    if not 1 <= b <= n:
        raise ConfigError(f"batch size must satisfy 1 <= b <= n, got b={b}, n={n}")
    if policy == WITHOUT_REPLACEMENT and b == n:
        return np.broadcast_to(np.arange(n), (steps, n))
    if policy == WITHOUT_REPLACEMENT and b > 1:
        idx = np.empty((steps, b), dtype=np.int64)
        for row in idx:
            row[:] = rng.choice(n, b, replace=False, shuffle=False)
    else:
        idx = rng.integers(0, n, size=(steps, b))
    idx.sort(axis=1)
    return idx


@dataclass
class RecordingPlan:
    """What a run keeps: thinning stride and the iterate-average window.

    The average covers iterates ``average_start+1`` up to the end of the
    run, counting from 1.
    """

    thin: int = 1
    average_start: int = 0

    def __post_init__(self) -> None:
        if self.thin < 1:
            raise ConfigError(f"thin must be >= 1, got {self.thin}")
        if self.average_start < 0:
            raise ConfigError("average_start must be >= 0")


@dataclass
class RunRecord:
    """Everything a finished (or diverged) run leaves behind.

    ``states`` holds the thinned trajectory: the state after steps
    ``thin, 2*thin, ...``.  ``avg_state`` is the mean state over the
    recording window.  When an anchor (``theta_hat``) was supplied,
    ``rescaled_states`` maps the parameter block through
    ``n**local_exponent * (theta - theta_hat)``, the coordinates in which
    the large-sample predictions live.  ``wall_time`` is this run's share
    of the batched call that produced it: that call's seconds divided by
    its number of replicates.
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

    @classmethod
    def from_manifest(cls, manifest: dict, states: np.ndarray, final_state: np.ndarray,
                      avg_state: np.ndarray | None, wall_time: float) -> RunRecord:
        """A run's record: the engine's fresh manifest, or one ``load_run`` read back."""
        for key in ("local_exponent", "inverse_temperature"):  # JSON spells nan, inf as text
            manifest[key] = float(manifest[key])
        theta_hat = manifest["theta_hat"]
        return cls(
            manifest=manifest, states=states, final_state=final_state, avg_state=avg_state,
            wall_time=wall_time, thin=int(manifest["thin"]), n=int(manifest["n"]),
            dim=int(manifest["dim"]), n_steps=int(manifest["n_steps"]),
            init_state=np.asarray(manifest["init_state"], float),
            avg_window=tuple(manifest["avg_window"]),
            theta_hat=None if theta_hat is None else np.asarray(theta_hat, float),
            local_exponent=manifest["local_exponent"],
            diverged_at=manifest["diverged_at"],
        )

    @property
    def state_dim(self) -> int:
        return len(self.init_state)

    @property
    def steps_per_epoch(self) -> float:
        """One epoch is n/b steps (need not be an integer)."""
        return self.n / self.manifest["batch_size"]

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


@dataclass
class _Context:
    """Resolved per-run constants of a run."""

    model: ModelSpec
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
    anchor_grads: np.ndarray | None = None
    anchor_mean: np.ndarray | None = None
    advance: Callable | None = field(default=None, repr=False)


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
        with np.errstate(over="ignore"):  # as in the step loop
            ctx.anchor_grads = model.grad(anchor, records)
            ctx.anchor_mean = ctx.anchor_grads.mean(axis=0)
    ctx.advance = _make_advance(ctx)
    return ctx


_ZERO = np.zeros(())  # 0-d: a Python scalar operand costs a conversion per ufunc call


def _summed_mean(g: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    return np.divide(np.add.reduce(g, axis=-2, keepdims=True, out=out), b, out)


def _mean_op(b: int) -> tuple[Callable, np.ndarray]:
    """``(op, operand)`` with ``op(g, operand, out)`` the bitwise batch mean of ``g (..., b, dim)``.

    The mean goes into ``out (..., 1, dim)``.  For ``b = 1`` the op is the ufunc ``np.add``
    with ``+0.0``, where the sum starts, so ``-0.0`` becomes ``+0.0``; otherwise the sum
    over the batch axis divided by ``b`` as a 0-d array, like ``_ZERO``."""
    if b == 1:
        return np.add, _ZERO
    return _summed_mean, np.array(float(b))


def _make_advance(ctx: _Context) -> Callable:
    """Compile the step loop of one gather block into a closure with bound constants.

    ``advance(state, rows_block, anchor_block, noise_block, buf)`` runs step ``s``
    from the previous iterate (first ``state (R, state_dim)``, never written) on
    ``rows_block[s] (R, b, k)``, ``anchor_block[s]`` and ``noise_block[s] (R, dim)``
    (None where unused) into ``buf[s]``, returning ``buf[-1]``.  Temporaries are made once
    per block; arithmetic outputs go positionally, which numpy parses faster than ``out=``.

    A block of one replicate (``R = 1``) with ``dim >= 2`` runs the same loop body on
    the arrays without their replicate axis, and its matrix-vector products are
    ``np.dot`` rather than ``np.matvec``: both run one gemv and give the same bits, and
    ``np.dot`` skips the gufunc dispatch, a third of a product's cost on 10x10
    operands.  At ``dim = 1`` ``np.dot`` does not call gemv and can return ``-0.0``
    where ``np.matvec`` returns ``+0.0``, so those blocks stay stacked."""
    grad_fn, prior_fn = ctx.model.grad, ctx.model.grad_prior
    inv_n = np.array(1.0 / ctx.n)  # 0-d, as _ZERO
    mean_op, mean_by = _mean_op(ctx.b)
    # Identity, not a probe: a prior whose gradient vanishes at one point
    # (any prior centred there) still pulls everywhere else.
    flat_prior = prior_fn is zero_prior
    half_h_gamma = 0.5 * ctx.h * ctx.gamma
    # The box is projected by maximum then minimum, cheaper per call than
    # np.clip and bitwise equal to it for the (dim,) bound arrays the config
    # holds (with scalar bounds np.clip keeps -0.0 where these give +0.0).
    box = ctx.box
    d = ctx.dim

    def view(state, rows_block, anchor_block, noise_block, buf):
        """The block's arrays, without the replicate axis for one replicate at d >= 2,
        and the matvec for them."""
        if len(state) > 1 or d == 1:
            return state, rows_block, anchor_block, noise_block, buf, np.matvec
        anchor_block, noise_block = (None if a is None else a[:, 0]
                                     for a in (anchor_block, noise_block))
        return state[0], rows_block[:, 0], anchor_block, noise_block, buf[:, 0], np.dot

    if ctx.cfg.variant == MOMENTUM:
        # unit mass, kept a matvec: ``half_h * psi`` differs at -0.0 and inf
        half_h_minv = 0.5 * ctx.h * np.eye(d)
        half_h = np.array(0.5 * ctx.h)  # 0-d, as _ZERO

        def advance(state, rows_block, anchor_block, noise_block, buf):
            state, rows_block, _, noise_block, iterates, mv = view(
                state, rows_block, anchor_block, noise_block, buf)
            g_like, moved = np.empty((2, *state.shape[:-1], d))
            mean = g_like[..., None, :]
            noises = repeat(None) if noise_block is None else noise_block
            theta, psi = state[..., :d], state[..., d:]
            thetas, psis = iterates[..., :d], iterates[..., d:]
            for new_theta, new_psi, rows, noise_term in zip(thetas, psis, rows_block, noises):
                mean_op(grad_fn(theta, rows), mean_by, mean)
                # mv runs one gemv per row, as an unstacked ``a @ v`` does, so rows
                # equal solo runs bitwise; a gemm or einsum would round otherwise.
                np.add(theta, mv(half_h_minv, psi, moved), new_theta)
                if box is not None:
                    np.maximum(new_theta, box[0], out=new_theta)
                    np.minimum(new_theta, box[1], out=new_theta)
                np.add(psi, np.multiply(half_h, g_like, moved), new_psi)
                np.subtract(new_psi, mv(half_h_gamma, psi, moved), new_psi)
                if not flat_prior:
                    np.add(new_psi, half_h * (inv_n * prior_fn(theta)), new_psi)
                if noise_term is not None:
                    np.add(new_psi, noise_term, new_psi)
                theta, psi = new_theta, new_psi
            return buf[-1]

        return advance

    anchor_mean = ctx.anchor_mean

    def advance(state, rows_block, anchor_block, noise_block, buf):
        state, rows_block, anchor_block, noise_block, iterates, mv = view(
            state, rows_block, anchor_block, noise_block, buf)
        g_like, moved = np.empty((2, *state.shape[:-1], d))
        mean = g_like[..., None, :]
        anchors, noises = (repeat(None) if a is None else a for a in (anchor_block, noise_block))
        for out, rows, anchor_rows, noise_term in zip(iterates, rows_block, anchors, noises):
            if anchor_rows is None:
                mean_op(grad_fn(state, rows), mean_by, mean)
            else:
                mean_op(grad_fn(state, rows) - anchor_rows, mean_by, mean)
                np.add(g_like, anchor_mean, g_like)
            np.add(state, mv(half_h_gamma, g_like, moved), out)
            if not flat_prior:
                np.add(out, mv(half_h_gamma, inv_n * prior_fn(state), moved), out)
            if noise_term is not None:
                np.add(out, noise_term, out)
            if box is not None:
                np.maximum(out, box[0], out=out)
                np.minimum(out, box[1], out=out)
            state = out
        return buf[-1]

    return advance


def _init_states(
    ctx: _Context,
    init,
    theta_hat: np.ndarray | None,
    rngs: list[np.random.Generator],
) -> np.ndarray:
    """Initial ``(R, state_dim)`` states, row ``r`` drawing from ``rngs[r]``.

    The init spec is checked, and a stationary covariance factored, once
    for all replicates.
    """
    d, state_dim = ctx.dim, ctx.state_dim
    states = np.zeros((len(rngs), state_dim))
    if init is None:
        if theta_hat is not None:
            states[:, :d] = theta_hat
        return states
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
            root = psd_sqrt(cov)
            for state, rng in zip(states, rngs):
                state[:d] = theta_hat + scale * (root @ rng.standard_normal(d))
            return states
        if kind == "overdispersed":
            for state, rng in zip(states, rngs):
                state[:d] = theta_hat + float(arg) * scale * rng.standard_normal(d)
            return states
        raise ConfigError(f"unknown init mode {kind!r}")
    arr = np.asarray(init, dtype=float)
    if arr.shape == (state_dim,):
        states[:] = arr
        return states
    if arr.shape == (d,):
        states[:, :d] = arr
        return states
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
) -> RunRecord:
    """Execute the configured loop for ``n_steps`` (or ``epochs``) steps.

    One epoch is ``n / b`` iterations.  ``theta_hat`` (if given) anchors the
    rescaled trajectory, serves as the default initial point, and is the
    control-variate anchor.  Divergence (a coordinate beyond
    ``DIVERGENCE_LIMIT`` or non-finite) raises :class:`DivergenceError`
    whose ``partial_record`` attribute holds everything recorded up to the
    offending step: ``diverged_at`` is that step and ``final_state`` the
    offending iterate.  This is the one-replicate case of
    :func:`run_replicates`.
    """
    (record,) = run_replicates(
        model, data, cfg, 1, n_steps=n_steps, epochs=epochs, theta_hat=theta_hat,
        init=init, recording=recording,
    )
    if record.diverged_at is not None:
        err = DivergenceError(
            f"iterate exceeded {DIVERGENCE_LIMIT:.0e} at step {record.diverged_at}"
        )
        err.partial_record = record
        raise err
    return record


def run_replicates(
    model: ModelSpec,
    data: Dataset,
    cfg: TuningConfig,
    replicates: int,
    n_steps: int | None = None,
    epochs: float | None = None,
    theta_hat: np.ndarray | None = None,
    init=None,
    recording: RecordingPlan | None = None,
) -> list[RunRecord]:
    """Advance replicates ``r = 0..R-1``, at seeds ``cfg.seed + r``, together.

    The keyword arguments are those of :func:`run`, and replicate ``r``
    equals ``run(model, data, cfg.with_seed(cfg.seed + r), ...)`` bit for
    bit; no per-replicate config is built.  Each manifest holds the
    replicate's ``"seed"`` and the call's ``"tuning_hash"``: the sha256 of
    ``json.dumps(cfg.to_dict() without "seed", sort_keys=True)``, computed
    once per call, so replicates of one tuning share it and a change to any
    other field changes it.  Divergence is returned, not raised: a
    replicate that diverges stops at its offending iterate (its
    ``final_state``), its record has ``diverged_at`` set and keeps what came
    before, and the other replicates go on.

    Work is blocked twice.  Per draw block (about ``_DRAW_STEPS`` steps,
    fewer when many replicates would make the buffers large) each live
    replicate makes one :func:`sample_batch` call and one noise draw.  Per
    gather block (about ``BLOCK_ROWS`` records over all replicates, never
    crossing a draw block) the records, the control-variate anchor scores
    of the same indices and the noise term ``noise_factor @ xi`` are
    computed once for all its steps, and one ``ctx.advance`` call runs the
    steps.  A replicate that stops leaves the rest of its draws unused.
    """
    t_start = time.perf_counter()
    if replicates < 1:
        raise ConfigError("replicates must be >= 1")
    records = model.check_records(data.records)
    n = records.shape[0]
    if (n_steps is None) == (epochs is None):
        raise ConfigError("specify exactly one of n_steps or epochs")
    if n_steps is None:
        n_steps = cfg.epochs_to_steps(n, epochs)
    if n_steps < 1:
        raise ConfigError("n_steps must be >= 1")
    recording = recording or RecordingPlan()

    ctx = _build_context(model, records, cfg, n, theta_hat)
    d, state_dim, b = ctx.dim, ctx.state_dim, ctx.b

    seeds = range(cfg.seed, cfg.seed + replicates)
    if seeds[-1] >= 2**64:
        raise ConfigError(f"replicate seed {seeds[-1]} is not an unsigned 64-bit integer")
    streams = [np.random.SeedSequence(seed).spawn(3) for seed in seeds]
    batch_rngs, noise_rngs, init_rngs = (
        [np.random.Generator(np.random.Philox(ss[k])) for ss in streams] for k in range(3)
    )
    init_states = _init_states(ctx, init, theta_hat, init_rngs)

    # The average window runs from win_lo to the end (empty if win_lo = n_steps).
    win_lo = min(recording.average_start, n_steps)

    thin = recording.thin
    states = np.empty((replicates, n_steps // thin, state_dim))
    avg_sum = np.zeros((replicates, state_dim))
    final_states = np.empty((replicates, state_dim))
    diverged_at: list[int | None] = [None] * replicates

    advance, noise, anchor_grads = ctx.advance, ctx.noise_factor, ctx.anchor_grads
    # Exhaustive batches (b = n without replacement) are the whole dataset in
    # natural order every step, so their records are viewed, never gathered.
    exhaustive = b == n and cfg.policy == WITHOUT_REPLACEMENT
    block_steps = max(1, BLOCK_ROWS // (replicates * (1 if exhaustive else b)))
    # A draw block is a whole number of gather blocks, at least one.
    drawn_per_step = replicates * ((0 if exhaustive else b) + (0 if noise is None else d))
    wanted = min(_DRAW_STEPS, _DRAW_STEPS * BLOCK_ROWS // max(drawn_per_step, 1))
    draw_steps = block_steps * max(1, -(-wanted // block_steps))

    active = np.arange(replicates)  # replicates still running, one per state row
    state = init_states  # never written: ctx.advance writes its iterates to buf
    step_global = 0  # steps completed before the current gather block
    draw_pos = draw_len = 0  # steps of the current draw block used, and drawn
    # Runaway trajectories legitimately produce overflow/nan in the steps
    # just before the divergence scan cuts the block; those transient
    # warnings are noise, the scan is the real detector.
    with np.errstate(over="ignore", invalid="ignore"):
        while step_global < n_steps and active.size:
            live = active.size
            if draw_pos == draw_len:
                # Each replicate's draws for the next steps, from its own
                # streams only.
                draw_pos, draw_len = 0, min(draw_steps, n_steps - step_global)
                if not exhaustive:
                    idx_draw = np.empty((draw_len, live, b), dtype=np.int64)
                    for j, r in enumerate(active):
                        idx_draw[:, j] = sample_batch(
                            batch_rngs[r], n, b, cfg.policy, draw_len
                        )
                if noise is not None:
                    xi_draw = np.empty((draw_len, live, d))
                    for j, r in enumerate(active):
                        xi_draw[:, j] = noise_rngs[r].standard_normal((draw_len, d))
            blk = min(block_steps, draw_len - draw_pos)
            now = slice(draw_pos, draw_pos + blk)

            def gather(table):
                if exhaustive:
                    return np.broadcast_to(table, (blk, live, *table.shape))
                return table[idx_draw[now]]

            # State-independent terms of the whole block, stacked over steps.
            anchor_block = None if anchor_grads is None else gather(anchor_grads)
            noise_block = None if noise is None else np.matvec(noise, xi_draw[now])
            buf = np.empty((blk, live, state_dim))
            state = advance(state, gather(records), anchor_block, noise_block, buf)

            # Divergence scan before any accumulation uses the block: each
            # replicate keeps only its steps before its first bad iterate.
            bad = ~np.all(np.abs(buf) <= DIVERGENCE_LIMIT, axis=2)
            stopped = bad.any(axis=0)
            cut = np.where(stopped, np.argmax(bad, axis=0), blk)

            # Thinned trajectory: of steps s0+1 .. s0+blk keep multiples of
            # thin.  Rows past a replicate's cut are dropped at the end.
            kept = buf[(-step_global - 1) % thin : blk : thin]
            row0 = step_global // thin
            states[active, row0 : row0 + len(kept)] = kept.swapaxes(0, 1)
            lo = max(win_lo - step_global, 0)
            if lo < blk:
                # One running sum in step order, whatever the block length;
                # a stopped replicate takes its partial sum at its cut.
                sums = np.add.accumulate(
                    np.concatenate([avg_sum[active][None], buf[lo:]])
                )
                taken = np.clip(cut - lo, 0, None)
                avg_sum[active] = sums[taken, np.arange(live)]

            for j in np.flatnonzero(stopped):
                r = active[j]
                diverged_at[r] = step_global + int(cut[j]) + 1
                final_states[r] = buf[cut[j], j]  # the offending iterate
            step_global += blk
            draw_pos += blk
            if stopped.any():
                # A stopped replicate's remaining draws are dropped with it.
                going = ~stopped
                active, state = active[going], state[going]
                if not exhaustive:
                    idx_draw = idx_draw[:, going]
                if noise is not None:
                    xi_draw = xi_draw[:, going]
    final_states[active] = state

    wall_share = (time.perf_counter() - t_start) / replicates
    tuning = cfg.to_dict()
    del tuning["seed"]
    tuning_hash = hashlib.sha256(json.dumps(tuning, sort_keys=True).encode()).hexdigest()
    out = []
    for r, seed in enumerate(seeds):
        # steps kept: those before a diverging iterate, else all of them
        steps_done = n_steps if diverged_at[r] is None else diverged_at[r] - 1
        avg_count = steps_done - win_lo
        manifest = {
            "seed": seed,
            "tuning_hash": tuning_hash,
            "n": n,
            "dim": d,
            "state_dim": state_dim,
            "n_steps": n_steps,
            "thin": thin,
            "avg_window": [win_lo, n_steps],
            "data_hash": data.digest,
            "theta_hat": None if theta_hat is None else np.asarray(theta_hat).tolist(),
            "local_exponent": ctx.local_exponent,
            "init_state": init_states[r].tolist(),
            "step_size": ctx.h,
            "batch_size": b,
            "inverse_temperature": ctx.beta,
            "diverged_at": diverged_at[r],
        }
        out.append(RunRecord.from_manifest(
            manifest, states[r, : steps_done // thin], final_states[r],
            avg_sum[r] / avg_count if avg_count > 0 else None, wall_share,
        ))
    return out
