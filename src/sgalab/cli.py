"""Command-line front end: predict, simulate, compare, tune, experiment.

Commands read one configuration file (see :mod:`sgalab.config` for the
grammar), the only input that sets a run, and write artifacts into an output
directory.  Artifacts embed the configuration hash so downstream commands
can refuse mismatched inputs.

Exit codes: 0 on success, else the ``exit_code`` of the error raised; the
table lives on the error classes in :mod:`sgalab.errors`.  ``experiment``
exits with the largest code among its failed variants; divergence is recorded.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import __version__, artifacts, diagnostics, engine, theory
from .config import Setup, parse_config, resolve_setup
from .engine import RecordingPlan
from .errors import (
    ArtifactMismatchError,
    ConfigError,
    DataError,
    DivergenceError,
    RegimeError,
    SgaLabError,
)
from .experiments import EXPERIMENT_NAMES, experiment_trees

EXIT_OK = 0
EXIT_DIVERGED = DivergenceError.exit_code

MAX_ACF_FILES = 3
ACF_MAX_LAG = 2000

#: Replicates per worker when ``--threads`` is not given, at most one worker per
#: core.  On a 2-core host (``cmd_simulate`` on an n = 100, d = 10, 8-epoch
#: tree, two sets of seven alternating rounds) two workers did not beat one at
#: 600 replicates (median 1.32 against 1.26 s, and 1.48 against 1.46 s) and
#: were 10-19% faster at 3000 (4.96 against 6.12 s, and 5.85 against 6.51 s),
#: a gain smaller than the spread the file system adds between rounds.
REPLICATES_PER_WORKER = 50


def _out_dir(tree: dict, flag: str | None) -> str:
    out = flag or tree.get("output", {}).get("dir", "out")
    os.makedirs(out, exist_ok=True)
    return out


def _command_manifest(setup: Setup) -> dict:
    return {
        "config": setup.tree,
        "config_hash": setup.hash,
        "data_hash": setup.data.digest,
        "seed": setup.cfg.seed,
        "n": setup.n,
        "dim": setup.model.dim,
        "replicates": setup.replicates,
        "version": __version__,
    }


def _fmt_matrix(m: np.ndarray) -> str:
    return np.array2string(np.asarray(m), precision=4, suppress_small=True)


def _prediction_report(setup: Setup) -> theory.PredictionReport:
    info = setup.prediction_info
    return theory.predict(
        setup.cfg,
        info.j_mat,
        info.i_mat,
        setup.n,
        m_values=setup.m_values,
        t_grid=setup.t_grid,
    )


# ---------------------------------------------------------------- predict


def cmd_predict(tree: dict, out_flag: str | None = None, quiet: bool = False) -> int:
    setup = resolve_setup(tree)
    out = _out_dir(tree, out_flag)
    report = _prediction_report(setup)
    if setup.tree.get("prediction", {}).get("m_values") and not report.averages:
        # every average the tree requests lies outside the stated regime; the
        # default m_values only report theirs as unavailable
        raise RegimeError(next(iter(report.average_errors.values())))
    payload = {
        "config_hash": setup.hash,
        "data_hash": setup.data.digest,
        "report": report.to_json_dict(),
    }
    artifacts.write_json(os.path.join(out, "predictions.json"), payload)
    artifacts.write_json(os.path.join(out, "manifest.json"), _command_manifest(setup))
    if not quiet:
        cfg, law = setup.cfg, report.ou.law
        print(f"predict: n={setup.n} dim={setup.model.dim} variant={cfg.variant}")
        print(
            f"  exponents: step={cfg.frak_h} batch={cfg.frak_b}"
            f" temperature={cfg.temperature_exponent} local={law.local_exponent:.4g}"
        )
        print(
            f"  noise terms active: minibatch={law.minibatch_active}"
            f" gaussian={law.gaussian_active}"
        )
        print(f"  stationary covariance (rescaled):\n{_fmt_matrix(report.q_inf)}")
        print(
            f"  mixing: {report.mixing.epochs_iact:.4g} epochs (autocorrelation"
            f" convention), {report.mixing.epochs_gap:.4g} epochs (gap convention)"
        )
        for m, avg in sorted(report.averages.items()):
            print(f"  iterate-average covariance at m={m:g} epochs:\n{_fmt_matrix(avg.matrix)}")
        for m, msg in sorted(report.average_errors.items()):
            print(f"  iterate average at m={m:g}: unavailable ({msg})")
        print(f"  wrote {out}/predictions.json")
    return EXIT_OK


# --------------------------------------------------------------- simulate


def _resolve_init(setup: Setup):
    token = setup.init_token
    if token == "mle":
        return None
    if token == "zero":
        return np.zeros(setup.model.dim)
    if token == "stationary":
        info = setup.prediction_info
        ou = theory.ou_params(setup.cfg, info.j_mat, info.i_mat)
        q_inf = theory.stationary_cov(ou)
        return ("stationary", q_inf[: setup.model.dim, : setup.model.dim])
    return token  # ("overdispersed", scale), parsed by resolve_setup


def _run_replicates(
    setup: Setup, start: int, count: int, init
) -> list[engine.RunRecord]:
    """Replicates ``start .. start+count-1`` of the command, advanced together."""
    return engine.run_replicates(
        setup.model,
        setup.data,
        setup.cfg.with_seed(setup.cfg.seed + start),
        count,
        n_steps=setup.n_steps,
        theta_hat=setup.mle_theta,
        init=init,
        recording=RecordingPlan(thin=setup.thin, average_start=setup.average_start),
    )


def _simulate_chunk(tree: dict, start: int, count: int) -> list[engine.RunRecord]:
    """Worker entry point: run a contiguous range of replicates."""
    setup = resolve_setup(tree)
    return _run_replicates(setup, start, count, _resolve_init(setup))


def cmd_simulate(
    tree: dict,
    out_flag: str | None = None,
    threads: int | None = None,
    quiet: bool = False,
) -> int:
    t_setup = time.perf_counter()
    setup = resolve_setup(tree)
    setup_seconds = time.perf_counter() - t_setup
    out = _out_dir(tree, out_flag)
    replicates = setup.replicates
    artifacts.remove_runs_from(out, replicates)
    artifacts.write_json(os.path.join(out, "manifest.json"), _command_manifest(setup))
    default = max(1, min(os.cpu_count() or 1, replicates // REPLICATES_PER_WORKER))
    workers = min(threads or default, replicates)
    t0 = time.perf_counter()
    if workers <= 1:
        records = _run_replicates(setup, 0, replicates, _resolve_init(setup))
    else:
        # contiguous ranges, as even as possible
        bounds = [replicates * i // workers for i in range(workers + 1)]
        counts = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
        from concurrent.futures import ProcessPoolExecutor  # ~24 ms to import; only pools need it

        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = pool.map(_simulate_chunk, [setup.tree] * workers, bounds[:-1], counts)
            records = [record for part in parts for record in part]
    for r, record in enumerate(records):
        artifacts.save_run(out, r, record, setup.hash)
    elapsed = time.perf_counter() - t0
    diverged_at = [record.diverged_at for record in records]
    steps = sum(setup.n_steps if at is None else at for at in diverged_at)
    artifacts.write_json(
        os.path.join(out, "timings.json"),
        {
            "setup_seconds": setup_seconds,
            "simulate_seconds": elapsed,
            "replicates": replicates,
            "steps": steps,
            "steps_per_s": steps / elapsed,
        },
    )
    if not quiet:
        print(
            f"simulate: {replicates} replicate(s), {setup.n_steps} steps each,"
            f" {elapsed:.1f} s -> {out}/trace_*.csv"
        )
        for r, at in enumerate(diverged_at):
            if at is not None:
                print(f"  replicate {r}: DIVERGED at step {at} (partial trace kept)")
    return EXIT_DIVERGED if any(at is not None for at in diverged_at) else EXIT_OK


# ---------------------------------------------------------------- compare


def _usable_runs(out: str, replicates: int, config_hash: str, data_hash: str) -> tuple[list, list]:
    """Replicates ``0 .. replicates-1`` in ``out``: those run to the end, those diverged.

    Each must be present and carry both hashes; a missing one is an artifact
    mismatch naming its file, never a smaller comparison.
    """
    if not os.path.exists(artifacts.run_manifest_path(out, 0)):
        raise ArtifactMismatchError(f"no trace files in {out}; run the simulate command first")
    alive, diverged = [], []
    for idx in range(replicates):
        record, run_hash = artifacts.load_run(out, idx)
        if run_hash != config_hash:
            raise ArtifactMismatchError(
                f"trace {idx} was produced under config hash {run_hash[:12]}..,"
                f" current config hashes to {config_hash[:12]}.."
            )
        if record.manifest["data_hash"] != data_hash:
            raise ArtifactMismatchError(f"trace {idx} was produced from different data")
        (alive if record.diverged_at is None else diverged).append(record)
    return alive, diverged


def _table_row(label: str, emp: float, pred: float, err: float, fmt: str = ".4g") -> None:
    """One row of compare's table, each number under its column head.

    A space always follows the label, so a label of 30 or more characters
    pushes its numbers right rather than running into them.
    """
    print(f"  {label:<29} {emp:<12{fmt}} {pred:<12{fmt}} {err:.3f}")


def cmd_compare(tree: dict, out_flag: str | None = None, quiet: bool = False) -> int:
    setup = resolve_setup(tree)
    out = _out_dir(tree, out_flag)
    pred_payload = artifacts.read_json(os.path.join(out, "predictions.json"))
    if pred_payload["config_hash"] != setup.hash:
        raise ArtifactMismatchError(
            f"predictions.json carries config hash"
            f" {pred_payload['config_hash'][:12]}.., current config hashes to"
            f" {setup.hash[:12]}.."
        )
    if pred_payload["data_hash"] != setup.data.digest:
        raise ArtifactMismatchError("predictions.json was produced from different data")
    alive, diverged = _usable_runs(out, setup.replicates, setup.hash, setup.data.digest)
    if not alive:
        raise DivergenceError("all replicates diverged; nothing to compare")

    result = diagnostics.compare_runs(alive, _prediction_report(setup), setup.burnin_fraction)
    artifacts.write_json(os.path.join(out, "comparison.json"), {
        "config_hash": setup.hash, "data_hash": setup.data.digest,
        "replicates_used": len(alive), "diverged_replicates": len(diverged), **result,
    })

    for record in alive[:MAX_ACF_FILES]:
        try:  # fewer than two rows, or a constant coordinate (see trace_note)
            rhos = [diagnostics.autocorrelation(col, ACF_MAX_LAG)
                    for col in record.rescaled_states().T]
        except DataError:
            continue
        # named by replicate, which runs at seed cfg.seed + replicate
        replicate = record.manifest["seed"] - setup.cfg.seed
        artifacts.save_acf(out, replicate, np.column_stack(rhos))

    if not quiet:
        norm = np.linalg.norm
        print(f"compare: {len(alive)} replicate(s) against predictions in {out}")
        print("  quantity                      empirical    predicted    rel.error")
        stationary, mix = result["stationary"], result["mixing"]
        if stationary is None:
            print(f"  stationary block skipped: {result['trace_note']}")
        else:
            _table_row("stationary cov (Frobenius)", norm(result["empirical_cov"]),
                       norm(result["predicted_cov"]), stationary["rel_frobenius_error"])
            if setup.init_token == "stationary":
                print("  note: the runs started from the predicted law (init = stationary),"
                      " so this row is partly circular")
            if mix is None:
                print(f"  {'mixing time (epochs)':<29}{result['trace_note']}")
            else:
                emp, pred = mix["empirical_worst_epochs"], mix["predicted_epochs_iact"]
                _table_row("mixing time (epochs)", emp, pred,
                           abs(emp - pred) / max(pred, 1e-300), ".3g")
                drifted = ", ".join(map(str, np.flatnonzero(mix["drift_flags"])))
                if drifted:
                    print(f"  note: split-half mean drift in direction(s) {drifted} of the"
                          " first replicate; its mixing time may reflect non-stationarity")
        for key, block in sorted(result["averages"].items()):
            if "comparison" in block:
                _table_row(f"iterate-average cov (m={key})", norm(block["empirical_cov"]),
                           norm(block["predicted_cov"]),
                           block["comparison"]["rel_frobenius_error"])
            else:
                print(f"  iterate-average cov (m={key}): {block['error']}")
        timings_path = os.path.join(out, "timings.json")
        timings = artifacts.read_json(timings_path) if os.path.exists(timings_path) else {}
        rate = f", {timings['steps_per_s']:.0f} steps/s" if timings else ""
        print(f"  health: {len(alive)} replicate(s) used, {len(diverged)} diverged{rate}")
        if "setup_seconds" in timings:
            print(f"  {'':8}set-up {timings['setup_seconds']:.3g} s before simulating")
        print(f"  wrote {out}/comparison.json")
    return EXIT_OK


# ------------------------------------------------------------------- tune


def cmd_tune(tree: dict, out_flag: str | None = None, quiet: bool = False) -> int:
    setup = resolve_setup(tree)
    out = _out_dir(tree, out_flag)
    prefs = setup.tree.get("recommend", {})
    if "target" not in prefs:
        raise ConfigError("[recommend] target is required for the tune command")
    rec = theory.recommend_tuning(info=setup.info, **prefs)
    payload = {
        "config_hash": setup.hash,
        "target": rec.target,
        "recommended_config": rec.cfg.to_dict(),
        "step_size": rec.cfg.step_size(setup.n),
        "batch_size": rec.cfg.batch_size(setup.n),
        "inverse_temperature": rec.cfg.inverse_temperature(setup.n),
        "target_cov": rec.target_cov,
        "achieved_cov": rec.achieved_cov,
        "closure_residual": rec.closure_residual,
        "mixing_epochs": rec.mixing_epochs,
        "notes": rec.notes,
    }
    artifacts.write_json(os.path.join(out, "recommendation.json"), payload)
    if not quiet:
        cfg = rec.cfg
        print(f"tune: target = {rec.target} (n = {setup.n})")
        print(
            f"  exponents: step={cfg.frak_h} batch={cfg.frak_b}"
            f" temperature={cfg.frak_t}"
        )
        print(
            f"  constants: c_h={cfg.c_h:.6g} c_b={cfg.c_b:.6g} c_beta={cfg.c_beta:.6g}"
            f" variant={cfg.variant}"
        )
        print(
            f"  at this n: step size {payload['step_size']:.6g},"
            f" batch size {payload['batch_size']},"
            f" inverse temperature {payload['inverse_temperature']}"
        )
        print(f"  closure residual: {rec.closure_residual:.3e}")
        print(f"  predicted mixing: {rec.mixing_epochs:.4g} epochs")
        for note in rec.notes:
            print(f"  note: {note}")
        print(f"  wrote {out}/recommendation.json")
    return EXIT_OK


# ------------------------------------------------------------- experiment


def cmd_experiment(
    name: str,
    out_flag: str | None = None,
    scale: float = 1.0,
    seed: int = 0,
    threads: int | None = None,
    epochs_override: float | None = None,
    quiet: bool = False,
) -> int:
    trees = experiment_trees(name, scale=scale, seed=seed, epochs_override=epochs_override)
    root = out_flag or name.replace("-", "_") + "_out"
    os.makedirs(root, exist_ok=True)
    summary: dict = {"experiment": name, "scale": scale, "seed": seed, "variants": {}}
    worst_exit = EXIT_OK
    for variant, tree in trees:
        out = os.path.join(root, variant)
        os.makedirs(out, exist_ok=True)
        artifacts.write_json(os.path.join(out, "config.json"), tree)
        if not quiet:
            print(f"=== {name} / {variant} ===")
        entry: dict = {"out": out}
        try:
            cmd_predict(tree, out, quiet=quiet)
            code = cmd_simulate(tree, out, threads=threads, quiet=quiet)
            if code == EXIT_DIVERGED:
                entry["diverged"] = True
                # divergence is a finding here, not a failure of the harness
                run = artifacts.read_json(os.path.join(out, "manifest.json"))
                _, diverged = _usable_runs(
                    out, run["replicates"], run["config_hash"], run["data_hash"]
                )
                entry["diverged_at_steps"] = [r.diverged_at for r in diverged]
                if not quiet:
                    print(f"  {variant}: diverged (recorded), continuing")
            else:
                entry["diverged"] = False
                cmd_compare(tree, out, quiet=quiet)
                comparison = artifacts.read_json(os.path.join(out, "comparison.json"))
                stationary = comparison.get("stationary")
                mixing = comparison.get("mixing")
                if stationary is not None:
                    entry["stationary_rel_error"] = stationary["rel_frobenius_error"]
                if mixing is not None:
                    entry["mixing_empirical"] = mixing["empirical_worst_epochs"]
                    entry["mixing_predicted"] = mixing["predicted_epochs_iact"]
                entry["averages"] = {
                    key: (
                        block["comparison"]["rel_frobenius_error"]
                        if "comparison" in block
                        else block.get("error")
                    )
                    for key, block in comparison.get("averages", {}).items()
                }
        except SgaLabError as exc:
            entry["error"] = f"{type(exc).__name__}: {exc}"
            worst_exit = max(worst_exit, exc.exit_code)
            if not quiet:
                print(f"  {variant}: failed ({entry['error']})")
        summary["variants"][variant] = entry
    artifacts.write_json(os.path.join(root, "summary.json"), summary)
    if not quiet:
        print(f"=== {name}: mixing times (epochs) ===")
        print(f"  {'variant':<22} {'Emp.':>8} {'Pred.':>8} {'cov.err':>8} {'avg.err':>8}")
        for variant, entry in summary["variants"].items():
            if entry.get("diverged") or "error" in entry:
                tag = "diverged" if entry.get("diverged") else "error"
                print(f"  {variant:<22} {tag:>8} {'-':>8} {'-':>8} {'-':>8}")
                continue
            if "mixing_empirical" in entry:
                mixing = f"{entry['mixing_empirical']:>8.2f} {entry['mixing_predicted']:>8.2f}"
            else:
                mixing = f"{'short':>8} {'-':>8}"
            # the stationary error and the iterate average's; a tree without
            # one, or an average's message saying why there is none, shows -
            errors = (entry.get("stationary_rel_error"),
                      next(iter(entry["averages"].values()), None))
            shown = " ".join(f"{e:>8.3f}" if isinstance(e, float) else f"{'-':>8}" for e in errors)
            print(f"  {variant:<22} {mixing} {shown}")
        print(f"wrote {root}/summary.json")
    return worst_exit


# ------------------------------------------------------------------- main


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sgalab",
        description=(
            "Simulate fixed-step stochastic-gradient algorithms and compare"
            " them with their large-sample diffusion predictions."
        ),
    )
    parser.add_argument("--version", action="version", version=f"sgalab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="configuration file (INI or JSON)")
        p.add_argument("--out", help="output directory (default: [output] dir)")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")

    p = sub.add_parser("predict", help="write large-sample predictions")
    common(p)

    p = sub.add_parser("simulate", help="run seeded replicates and persist traces")
    common(p)
    p.add_argument("--threads", type=int,
                   help="worker processes (default: 1 per 50 replicates, <= cores)")

    p = sub.add_parser("compare", help="compare persisted traces with predictions")
    common(p)

    p = sub.add_parser("tune", help="recommend a tuning for a covariance target")
    common(p)

    p = sub.add_parser("experiment", help="run a full named experiment")
    p.add_argument("name", choices=EXPERIMENT_NAMES)
    p.add_argument("--out", help="output directory root")
    p.add_argument("--scale", type=float, default=1.0,
                   help="multiply n and divide epochs by this factor")
    p.add_argument("--seed", type=int, default=0, help="base run seed")
    p.add_argument("--threads", type=int, help="worker processes")
    p.add_argument("--epochs", type=float, default=None,
                   help="override epochs per variant (smoke runs)")
    p.add_argument("--quiet", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "threads", None) is not None and args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        if args.command == "experiment":
            return cmd_experiment(
                args.name,
                out_flag=args.out,
                scale=args.scale,
                seed=args.seed,
                threads=args.threads,
                epochs_override=args.epochs,
                quiet=args.quiet,
            )
        tree = parse_config(args.config)
        if args.command == "simulate":
            return cmd_simulate(tree, args.out, threads=args.threads, quiet=args.quiet)
        command = {"predict": cmd_predict, "compare": cmd_compare, "tune": cmd_tune}[args.command]
        return command(tree, args.out, quiet=args.quiet)
    except SgaLabError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
