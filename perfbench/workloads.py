"""The benchmark's workloads: inputs from a seed, one iteration, correctness gates.

Every workload is a closed loop driven from one process: the benchmark runs
one iteration (a fixed list of sgalab commands), waits for it to finish, and
starts the next one.  Every command runs in that process (``cmd_simulate``
with one thread), so that the one-process calibration kernel measures the
speed of every timed interval; a worker pool's speed depends on the other
CPU too, which drifts independently on the 2-vCPU host described in
calibration.py.  The workload seed reaches the program only through the
inputs it generates: dataset seeds and run seeds inside the configuration
trees.

The Tier-1 test suite's wall time is deliberately not a workload: its tests
change from one change to the next, so its time is not comparable across
commits.  Its runtime budgets stay gates inside the tests.

Correctness gates reuse the acceptance suite's tolerances unchanged
(tests/test_acceptance.py, criteria a1 to a9).  A miss is a failure, never
a reason to shrink a run.
"""

from __future__ import annotations

import glob
import json
import math
import os
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from sgalab import cli, config, experiments, theory
from sgalab.tuning import TuningConfig

# Tolerances of the acceptance suite.
STATIONARY_TOL = 0.15  # a4, a6: empirical vs predicted stationary covariance
MOMENTUM_TOL = 0.20  # a8: momentum parameter block
MIXING_BAND = (0.5, 1.5)  # a4: measured / predicted mixing time
AVERAGE_TOL = {8.0: 0.20, 1.0: 0.25}  # a5: iterate-average covariance
CLOSURE_TOL = 1e-9  # a2: tuning closure
ORACLE_TOL = 1e-8  # a1: covariance solvers against an independent route
Z_BAND = 5.0  # a9: five-standard-error band for an unbiased mean


@dataclass
class Check:
    name: str
    ok: bool
    detail: str

    def __post_init__(self) -> None:
        self.ok = bool(self.ok)  # comparisons of numpy scalars give numpy booleans


def seeds(seed: int) -> tuple[int, int]:
    """(data seed, run seed) derived from the workload seed."""
    data_seed, run_seed = np.random.SeedSequence(seed).generate_state(2)
    return int(data_seed), int(run_seed % 2**31)


def _rel(got, want) -> float:
    got, want = np.asarray(got, float), np.asarray(want, float)
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def _read(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _lyapunov_checks(out: str, tag: str) -> list[Check]:
    """Predicted covariances against scipy's Bartels-Stewart solver and expm.

    ``q_inf`` solves ``B Q / 2 + Q B' / 2 = A``; each finite-time marginal
    from a zero start is ``Q - E Q E'`` with ``E = exp(-t B / 2)``.
    """
    report = _read(os.path.join(out, "predictions.json"))["report"]
    b, a = np.asarray(report["b_mat"]), np.asarray(report["a_mat"])
    q_ref = scipy.linalg.solve_continuous_lyapunov(0.5 * b, a)
    checks = [Check(f"{tag}: stationary_cov vs scipy", _rel(report["q_inf"], q_ref) <= ORACLE_TOL,
                    f"rel {_rel(report['q_inf'], q_ref):.2e} <= {ORACLE_TOL:g}")]
    for t, marginal in report["marginals"].items():
        e = scipy.linalg.expm(-0.5 * float(t) * b)
        err = _rel(marginal, q_ref - e @ q_ref @ e.T)
        checks.append(Check(f"{tag}: marginal_cov t={t} vs scipy", err <= ORACLE_TOL,
                            f"rel {err:.2e} <= {ORACLE_TOL:g}"))
    return checks


def _manifests(out: str) -> list[dict]:
    return [_read(p) for p in sorted(glob.glob(os.path.join(out, "manifest_[0-9]*.json")))]


def _trace_rows(path: str) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh) - 1


def run_facts(out_root: str) -> dict:
    """Engine steps and per-replicate wall times from every run manifest."""
    steps, walls = 0, []
    for path in glob.glob(os.path.join(out_root, "**", "manifest_[0-9]*.json"), recursive=True):
        payload = _read(path)
        run = payload["run"]
        steps += run["diverged_at"] if run["diverged_at"] is not None else run["n_steps"]
        walls.append(payload["wall_time"])
    return {"steps": steps, "replicate_walls": walls}


def _gaussian(n: int, d: int, data_seed: int) -> dict:
    return {"family": "gaussian_location", "n": n, "d": d, "data_seed": data_seed}


# exp1's tunings (sgalab.experiments) and the acceptance suite's a6 and a8.
JHAT_SGD = {"frak_h": 1.0, "frak_b": 0.0, "c_h": 4.0, "c_b": 1.0,
            "gamma": "jhat_inv", "lambda": "jhat_inv"}
JHAT_SGLD = dict(JHAT_SGD, c_h=2.0, c_beta=2.0, frak_t=1.0)
CONTROL_VARIATE = dict(JHAT_SGD, frak_t=1.0, c_beta=1.0, variant="control_variate")
MOMENTUM = {"frak_h": 1.0, "frak_b": 0.0, "c_h": 2.0, "c_b": 1.0, "variant": "momentum"}


class Workload:
    name = ""

    def trees(self, seed: int) -> list[tuple[str, dict]]:
        raise NotImplementedError

    def iterate(self, trees, out: str) -> None:
        """Run one iteration; raises on an unexpected exit code."""
        raise NotImplementedError

    def checks(self, trees, out: str) -> list[Check]:
        raise NotImplementedError


def _expect(code: int, what: str, want: int = cli.EXIT_OK) -> None:
    if code != want:
        raise RuntimeError(f"{what} exited with code {code}, expected {want}")


def _predict_simulate_compare(trees, out: str) -> None:
    for variant, tree in trees:
        where = os.path.join(out, variant)
        _expect(cli.cmd_predict(tree, where, quiet=True), f"{variant} predict")
        _expect(cli.cmd_simulate(tree, where, threads=1, quiet=True), f"{variant} simulate")
        _expect(cli.cmd_compare(tree, where, quiet=True), f"{variant} compare")


class LongChain(Workload):
    """Long trajectories of every engine variant: predict -> simulate -> compare.

    Loads: ``engine.run``, about three quarters of the wall time (trace
    writing is most of the rest), i.e. the per-step hot path of every variant (plain, SGLD, control-variate,
    momentum) and the without-replacement batch sampler of the logistic
    chain (n = 20000, b = 20).
    Built to show: per-step engine speed-ups (drift evaluation, minibatch
    reduction, O(b) sampling) in ``wall_s`` here.
    Bypassed by: predict-highdim, where the engine does no work; and this
    workload bypasses replicate batching and the worker pool, since every
    chain is a single replicate.
    Sizes: the Gaussian chains use exp1's model at ``--scale 0.05``
    (n = 50, the experiments' smallest, d = 10): the gates' sampling error
    depends on the run length in epochs, not in steps, so each chain reaches
    the acceptance suite's length (1000 epochs; 2000 for SGLD, whose
    estimate is noisier) at a twentieth of the steps.  Over twelve seeds the
    largest errors were 0.089 (plain), 0.089 (control-variate) and 0.085
    (SGLD).  Momentum, whose identity-preconditioned slow modes give its
    estimate a heavy tail, missed its 0.20 at 2000 epochs in one run of
    about thirty (0.234), so it runs 4000 epochs, as four independent
    1000-epoch chains gated on the mean of their covariances, compare's own
    rule across replicates: the largest pooled error over thirty seeds was
    0.122.  Four chains instead of one keep every command about a second
    long, short enough for the calibration kernels between commands to
    follow the host's drift (the spread of ``wall_s`` over ten seeds fell
    from 0.07 to 0.10 to 0.04).
    The logistic chain runs 2 epochs from the stationary law and is checked
    by the five-sigma band on its iterate average.
    """

    name = "long-chain"

    MOMENTUM_CHAINS = 4

    def trees(self, seed):
        data_seed, run_seed = seeds(seed)
        model = _gaussian(50, 10, data_seed)

        def gaussian(tuning, epochs, m_values, seed=run_seed):
            return {
                "model": dict(model),
                "tuning": dict(tuning),
                "execution": {"epochs": epochs, "seed": seed, "thin": 5, "init": "mle"},
                "prediction": {"m_values": m_values},
            }

        c_b = 0.1415  # exp2's batch constant: b = 20 at n = 20000
        logistic = {
            "model": {"family": "logistic", "n": 20000, "d": 4, "data_seed": data_seed},
            "tuning": {"frak_h": 0.5, "frak_b": 0.5, "c_h": 4.0 * c_b, "c_b": c_b,
                       "gamma": "jhat_inv", "lambda": "jhat_inv",
                       "policy": "without_replacement"},
            "execution": {"steps": 2000, "seed": run_seed, "thin": 4, "init": "stationary"},
            "prediction": {"m_values": [2.0]},
        }
        return [
            ("plain", gaussian(JHAT_SGD, 1000.0, [1.0, 8.0])),
            ("sgld", gaussian(JHAT_SGLD, 2000.0, [1.0, 8.0])),
            ("control_variate", gaussian(CONTROL_VARIATE, 1000.0, [])),
            *((f"momentum_{k}", gaussian(MOMENTUM, 1000.0, [], run_seed + k))
              for k in range(self.MOMENTUM_CHAINS)),
            ("minibatch_wor", logistic),
        ]

    def iterate(self, trees, out):
        _predict_simulate_compare(trees, out)

    def checks(self, trees, out):
        checks = []
        momentum = []
        for variant, _ in trees:
            where = os.path.join(out, variant)
            checks += _lyapunov_checks(where, variant)
            if variant == "minibatch_wor":
                checks.append(_average_z_check(where, variant))
                continue
            cmp = _read(os.path.join(where, "comparison.json"))
            if variant.startswith("momentum"):
                momentum.append(cmp)
                continue
            err = cmp["stationary"]["rel_frobenius_error"]
            checks.append(Check(f"{variant}: stationary covariance", err <= STATIONARY_TOL,
                                f"rel {err:.3f} <= {STATIONARY_TOL}"))
            if variant in ("plain", "sgld"):
                mix = cmp["mixing"]
                ratio = float(np.mean(mix["empirical_epochs_per_coordinate"])) / mix["predicted_epochs_iact"]
                lo, hi = MIXING_BAND
                checks.append(Check(f"{variant}: mixing time", lo <= ratio <= hi,
                                    f"measured/predicted {ratio:.3f} in [{lo}, {hi}]"))
        # compare's own rule across replicates, the mean of per-run
        # covariances, applied across the momentum chains
        emp = np.mean([cmp["empirical_cov"] for cmp in momentum], axis=0)
        err = _rel(emp, momentum[0]["predicted_cov"])
        checks.append(Check(f"momentum: stationary covariance over {len(momentum)} chains",
                            err <= MOMENTUM_TOL, f"rel {err:.3f} <= {MOMENTUM_TOL}"))
        return checks


def _average_z_check(where: str, tag: str) -> Check:
    """Iterate average of a stationary-started chain against its predicted law."""
    payload = _read(os.path.join(where, "manifest_000.json"))
    run = payload["run"]
    d = run["dim"]
    rescaled = run["n"] ** run["local_exponent"] * (
        np.asarray(payload["avg_state"][:d]) - np.asarray(run["theta_hat"])
    )
    m = run["n_steps"] * run["batch_size"] / run["n"]
    averages = _read(os.path.join(where, "predictions.json"))["report"]["averages"]
    predicted = np.asarray(averages[str(float(m))]["matrix"])
    z = float(np.max(np.abs(rescaled) / np.sqrt(np.diag(predicted))))
    return Check(f"{tag}: iterate average within band", z <= Z_BAND,
                 f"max |z| {z:.2f} <= {Z_BAND}")


class ReplicateAverage(Workload):
    """exp1's iterate-average check: many short replicates from the stationary law.

    Loads: per-replicate fixed costs (context build, one stationary-init
    Lyapunov solve and one ``save_run`` per replicate, one ``load_run`` per
    replicate in compare).
    Built to show: replicate batching in the engine and cheaper
    per-replicate set-up and trace I/O, in ``wall_s`` here.
    Bypassed by: long-chain, which runs one replicate per variant.
    Sizes: exp1's ``jhat_sgd_avg_m8`` and ``jhat_sgd_avg_m1`` at
    ``--scale 0.1`` (n = 100, d = 10), each as exp1 runs it (200
    replicates) at three run seeds 200 apart, and gated on the 600
    replicates pooled, which are exactly those of one 600-replicate run.
    The gates hold a5's tolerances, which 200 replicates miss from sampling
    error alone: drawing 600 Gaussian vectors with the predicted covariance
    puts the 99.9th percentile of the error at 0.19 (m = 8, tolerance
    0.20) and 0.20 (m = 1, tolerance 0.25), where 200 put it at 0.31 to
    0.35.
    Three 200-replicate commands instead of one of 600 keep every command
    short enough for the calibration kernels between commands to follow
    the host's drift.
    """

    name = "replicate-average"

    REPLICATES = 200  # per tree, as in exp1
    RUN_SEEDS = 3  # trees per window length, pooled by the gates
    THIN = {8.0: 40, 1.0: 5}

    def trees(self, seed):
        data_seed, run_seed = seeds(seed)
        return [
            (f"avg_m{m:g}_{k}", {
                "model": _gaussian(100, 10, data_seed),
                "tuning": dict(JHAT_SGD),
                # replicate r runs at seed + r, so these trees together run
                # exactly the replicates of one 600-replicate tree
                "execution": {"epochs": m, "seed": run_seed + k * self.REPLICATES,
                              "replicates": self.REPLICATES, "thin": self.THIN[m],
                              "init": "stationary"},
                "prediction": {"m_values": [1.0, 8.0]},
            })
            for m in self.THIN for k in range(self.RUN_SEEDS)
        ]

    def iterate(self, trees, out):
        _predict_simulate_compare(trees, out)

    def checks(self, trees, out):
        checks = []
        pooled: dict[float, list] = {}
        for variant, tree in trees:
            where = os.path.join(out, variant)
            m = tree["execution"]["epochs"]
            checks += _lyapunov_checks(where, variant)
            manifests = _manifests(where)
            alive = [p for p in manifests if not p["diverged"]]
            checks.append(Check(f"{variant}: no replicate diverged",
                                len(alive) == len(manifests) == self.REPLICATES,
                                f"{len(alive)} of {len(manifests)} alive"))
            # compare's error recomputed here from the per-replicate averages
            run = alive[0]["run"]
            d, scale = run["dim"], run["n"] ** run["local_exponent"]
            theta_hat = np.asarray(run["theta_hat"])
            avgs = [scale * (np.asarray(p["avg_state"][:d]) - theta_hat) for p in alive]
            pred = _read(os.path.join(where, "predictions.json"))["report"]["averages"][str(m)]
            mine = _rel(np.cov(np.stack(avgs), rowvar=False, ddof=1), pred["matrix"])
            block = _read(os.path.join(where, "comparison.json"))["averages"][f"{m:g}"]
            err = block["comparison"]["rel_frobenius_error"]
            checks.append(Check(f"{variant}: compare agrees with recomputation",
                                abs(mine - err) <= 1e-9, f"|{mine:.6f} - {err:.6f}| <= 1e-9"))
            pooled.setdefault(m, (pred, []))[1].extend(avgs)  # same data, same prediction
        for m, (pred, avgs) in pooled.items():
            emp = np.cov(np.stack(avgs), rowvar=False, ddof=1)
            err = _rel(emp, pred["matrix"])
            checks.append(Check(f"avg_m{m:g}: iterate-average covariance over {len(avgs)} replicates",
                                err <= AVERAGE_TOL[m], f"rel {err:.3f} <= {AVERAGE_TOL[m]}"))
            if pred["simple"] is not None and m == 1.0:
                # a5: the first-order form alone misses the short-window correction
                gap_two = np.linalg.norm(emp - np.asarray(pred["matrix"]))
                gap_simple = np.linalg.norm(emp - np.asarray(pred["simple"]))
                checks.append(Check(f"avg_m{m:g}: two-term form beats the simple form",
                                    gap_simple > gap_two, f"{gap_simple:.4g} > {gap_two:.4g}"))
        return checks


class PredictHighdim(Workload):
    """Prediction and tuning at high dimension, with no simulation.

    Loads: ``theory`` and ``linalg``; the Kronecker Lyapunov solve, O(k^6)
    time and O(k^4) memory in the state dimension k, is nine tenths of the
    time and sets the peak RSS.
    Built to show: a faster Lyapunov route (Bartels-Stewart) and fewer
    repeated solves, in ``predict_s``, ``wall_s`` and ``peak_rss_mb`` here.
    Bypassed by: long-chain and replicate-average, where every solve is
    10 x 10, so their predict time should not move.  The engine does no
    work here, so engine changes should leave this workload unchanged.
    Sizes: plain Gaussian d = 40 and momentum d = 24 (state 48), each with
    a 4-point ``t_grid``; the plain tree keeps the default ``m_values``.
    """

    name = "predict-highdim"

    def trees(self, seed):
        data_seed, run_seed = seeds(seed)

        def tree(d, tuning, target, prediction):
            return {
                "model": _gaussian(2000, d, data_seed),
                "tuning": dict(tuning),
                "execution": {"epochs": 1.0, "seed": run_seed},
                "prediction": dict(prediction, t_grid=[0.25, 0.5, 1.0, 2.0]),
                "recommend": {"target": target},
            }

        return [
            ("plain_d40", tree(40, JHAT_SGD, "local_fiducial", {})),
            # iterate averages are defined for the plain variant only
            ("momentum_d24", tree(24, MOMENTUM, "bagged", {"m_values": []})),
        ]

    def iterate(self, trees, out):
        for variant, tree in trees:
            where = os.path.join(out, variant)
            _expect(cli.cmd_predict(tree, where, quiet=True), f"{variant} predict")
            _expect(cli.cmd_tune(tree, where, quiet=True), f"{variant} tune")

    def checks(self, trees, out):
        checks = []
        for variant, tree in trees:
            where = os.path.join(out, variant)
            checks += _lyapunov_checks(where, variant)
            checks.append(_closure_check(tree, _read(os.path.join(where, "recommendation.json")),
                                         variant))
        return checks


def _closure_check(tree: dict, rec: dict, tag: str) -> Check:
    """a2's independent route: the recommended constants, re-solved, hit the target.

    The limit matrices are rebuilt from the file's ``recommended_config``
    and the setup's information matrices, solved with scipy's
    Bartels-Stewart solver, and compared with a target built here from
    ``J`` and ``I``: the sandwich ``J^-1 I J^-1`` for ``local_fiducial``,
    half of it plus half of ``J^-1`` for ``bagged``.
    """
    info = config.resolve_setup(tree).info
    j_inv = np.linalg.inv(info.j_mat)
    sandwich = j_inv @ info.i_mat @ j_inv.T
    sandwich = 0.5 * (sandwich + sandwich.T)
    target = {"local_fiducial": sandwich, "bagged": 0.5 * sandwich + 0.5 * j_inv}[rec["target"]]
    ou = theory.ou_params(TuningConfig.from_dict(rec["recommended_config"]),
                          info.j_mat, info.i_mat)
    achieved = scipy.linalg.solve_continuous_lyapunov(0.5 * ou.b_mat, ou.a_mat)
    err = _rel(achieved, target)
    return Check(f"{tag}: tuning closure by an independent route", err <= CLOSURE_TOL,
                 f"rel {err:.2e} <= {CLOSURE_TOL:g}")


class PoissonIo(Workload):
    """``sgalab experiment exp3-synthetic --scale 0.1``: Poisson, d = 25, thin = 2.

    Loads: ``artifacts`` (dense traces, 9 MB per iteration), ``diagnostics``
    and ``inference`` (each command refits the model), plus the divergence
    path: the non-preconditioned ``sgd`` baseline diverges within a few
    steps, which the experiment records as a finding.
    Built to show: faster trace writing and reading, fewer repeated
    fits, and cheaper compare, in ``wall_s`` here.
    Bypassed by: predict-highdim, which writes no traces and fits once per
    command on data with a closed-form fit.
    The workload seed sets the experiment's run seed; its dataset is the
    experiment's own.  The suite states no tolerance for this experiment's
    covariances, so the gates are the expected divergence, the survival of
    the preconditioned variants, complete traces, and the Lyapunov check.
    """

    name = "poisson-io"

    EXPERIMENT = "exp3-synthetic"
    SCALE = 0.1

    def trees(self, seed):
        return experiments.experiment_trees(self.EXPERIMENT, scale=self.SCALE, seed=seeds(seed)[1])

    def iterate(self, trees, out):
        seed = trees[0][1]["execution"]["seed"]
        code = cli.cmd_experiment(self.EXPERIMENT, out, scale=self.SCALE, seed=seed,
                                  threads=1, quiet=True)
        _expect(code, "experiment")

    def checks(self, trees, out):
        summary = _read(os.path.join(out, "summary.json"))["variants"]
        checks = []
        for variant, _ in trees:
            where = os.path.join(out, variant)
            entry = summary[variant]
            checks += _lyapunov_checks(where, variant)
            if variant == "sgd":
                checks.append(Check("sgd: diverges as expected", bool(entry.get("diverged"))
                                    and bool(entry.get("diverged_at_steps")),
                                    f"diverged at {entry.get('diverged_at_steps')}"))
            else:
                ok = not entry.get("diverged") and "error" not in entry and math.isfinite(
                    entry.get("stationary_rel_error", math.nan))
                checks.append(Check(f"{variant}: survives and compares", ok,
                                    f"stationary rel error {entry.get('stationary_rel_error')}"))
                predicted = _read(os.path.join(where, "predictions.json"))["report"]["mixing"]
                checks.append(Check(f"{variant}: summary carries the prediction",
                                    entry.get("mixing_predicted") == predicted["epochs_iact"],
                                    f"{entry.get('mixing_predicted')} == {predicted['epochs_iact']}"))
            run = _read(os.path.join(where, "manifest_000.json"))["run"]  # one replicate each
            steps = run["diverged_at"] - 1 if run["diverged_at"] is not None else run["n_steps"]
            rows = _trace_rows(os.path.join(where, "trace_000.csv"))
            checks.append(Check(f"{variant}: trace is complete", rows == steps // run["thin"],
                                f"{rows} rows for {steps} steps at thin {run['thin']}"))
        return checks


WORKLOADS = {w.name: w for w in (LongChain(), ReplicateAverage(), PredictHighdim(), PoissonIo())}
