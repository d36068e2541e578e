"""sgalab benchmark: one workload, measured end to end or traced per layer.

Run from the repository root::

    python3 perfbench/run.py --workload long-chain --seed 1 --seconds 20 --trace 0

Workloads: long-chain, replicate-average, predict-highdim, poisson-io; what
each loads, and why it exists, is written beside its definition in
``perfbench/workloads.py``.  The load is a closed loop from this one
process: an iteration is the workload's fixed list of sgalab commands, the
next starts when it ends, and iterations repeat while another one still
fits in ``--seconds`` (at least two run).  Every command, simulate
included, runs in this process (see ``perfbench/workloads.py`` for why),
with its BLAS/OpenMP threads pinned.  Every time is rescaled to a reference
machine speed by a calibration kernel timed between commands and around
each set-up, never inside a timed command (``perfbench/calibration.py``);
the raw wall and set-up times are printed beside them.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced iterations (all in-process,
so every span lands here), then runs the layer micro-sweep, and reports
the per-layer metrics and the tracing overhead.

Every iteration repeats the same inputs, so its artifacts must match the
first iteration's byte for byte, apart from ``wall_time`` and
``timings.json``; the traced iterations must also repeat every work count.
With the correctness gates of each workload, a miss counts as a failed
operation.  The last line of standard output is the JSON result, and the
exit code is 1 when any operation failed (0 otherwise); the full
result with the environment record, and the spans, are written under
``.perfbench/`` in the repository root, where the artifacts' temporary
directory also lives until exit.

Self-tests of the benchmark: ``python3 -m pytest perfbench -q``.
"""

import os

#: BLAS/OpenMP threads per process, pinned before numpy loads.  With
#: OpenBLAS's default threading a 10 x 10 Lyapunov solve intermittently took
#: 0.1 s instead of 0.5 ms, which swung prediction times by 100x.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

import calibration  # noqa: E402
import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

MIN_ITERATIONS = 2
SETUP_REPEATS = 5

#: Work counts that must repeat exactly between two traced iterations.
DETERMINISTIC_COUNTS = ("engine.steps", "config.resolve_setup_calls",
                        "linalg.solve_lyapunov_calls", "theory.predict_calls",
                        "artifacts.files_written", "artifacts.bytes_written")

PHASES = {"cmd_predict": "predict", "cmd_tune": "predict",
          "cmd_simulate": "simulate", "cmd_compare": "compare"}


class PhaseClock:
    """Raw and rescaled seconds per command phase.

    The calibration kernel is timed before the first command and after
    every command, so each command sits between two kernel times, and its
    raw time is rescaled by their mean; this tracks the host's drift far
    better than one factor per iteration.  The kernel never runs inside a
    command, and its own time is kept out of every interval, spans included
    (a command may run inside a traced ``cmd_experiment``).  These are the
    only wrappers present in an untraced iteration.
    """

    def __init__(self) -> None:
        self.raw: Counter = Counter()
        self.scaled: Counter = Counter()
        self.calls: Counter = Counter()
        self.kernel_s = 0.0
        self.last: float | None = None

    def now(self) -> float:
        """Seconds on a clock that stands still while the kernel runs."""
        return time.perf_counter() - self.kernel_s

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        self.last = calibration.kernel_seconds()
        self.kernel_s += time.perf_counter() - t0
        return self.last

    def factor(self) -> float:
        """Reference seconds per raw second over every command so far."""
        raw = sum(self.raw.values())
        return sum(self.scaled.values()) / raw if raw else 1.0

    def installed(self):
        from sgalab import cli

        def clocked_fn(phase, fn):
            def clocked(*args, **kwargs):
                before = self._kernel() if self.last is None else self.last
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    raw = time.perf_counter() - t0
                    self.raw[phase] += raw
                    self.scaled[phase] += raw * calibration.factor(before, self._kernel())
                    self.calls[phase] += 1
            return clocked

        return tracing.patched(
            (("sgalab.cli", name), clocked_fn(phase, getattr(cli, name)))
            for name, phase in PHASES.items()
        )


@dataclass
class Iteration:
    wall: float
    phases: Counter
    commands: int
    steps: int
    replicate_walls: list
    digest: dict
    files: int
    bytes: int
    checks: list
    error: str | None = None
    factor: float = 1.0  # calibration: reference seconds per raw second of ``wall``
    layers: dict = field(default_factory=dict)
    counts: Counter = field(default_factory=Counter)
    traced_self: float = 0.0
    traced_top: float = 0.0


def artifact_digest(out: str) -> tuple[dict, int, int]:
    """Hash of every artifact with its wall-clock fields removed.

    ``timings.json`` is left out and each run manifest loses its
    ``wall_time`` line; the byte count is of what is hashed, so it repeats.
    """
    digest, files, size = {}, 0, 0
    for path in sorted(Path(out).rglob("*")):
        if not path.is_file():
            continue
        files += 1
        if path.name == "timings.json":
            continue
        data = path.read_bytes()
        if path.name.startswith("manifest_"):
            data = b"".join(line for line in data.splitlines(keepends=True)
                            if not line.lstrip().startswith(b'"wall_time":'))
        size += len(data)
        digest[str(path.relative_to(out))] = hashlib.sha256(data).hexdigest()
    return digest, files, size


def run_checks(workload, trees, out):
    from workloads import Check
    try:
        return workload.checks(trees, out)
    except Exception:  # a missing or malformed artifact fails the gate
        return [Check("checks ran", False, traceback.format_exc(limit=3))]


def one_iteration(workload, trees, out: str, tracer=None) -> Iteration:
    """Run and check one iteration.

    ``phases`` hold rescaled seconds; ``wall`` is raw, and ``factor``, the
    commands' rescaled over raw time, rescales it and everything in it.
    """
    from workloads import run_facts

    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    clock = PhaseClock()
    traced = contextlib.nullcontext()
    if tracer:
        tracer.clock = clock.now
        traced = tracing.instrument(tracer)

    error = None
    with traced, clock.installed():  # the clock wraps outside the spans
        t0 = clock.now()
        try:
            workload.iterate(trees, out)
        except Exception:  # the iteration boundary: record, report, go on
            error = traceback.format_exc()
        wall = clock.now() - t0
    facts = run_facts(out)
    digest, files, size = artifact_digest(out)
    it = Iteration(wall=wall, phases=clock.scaled, commands=sum(clock.calls.values()),
                   steps=facts["steps"], replicate_walls=facts["replicate_walls"],
                   digest=digest, files=files, bytes=size,
                   checks=[] if error else run_checks(workload, trees, out), error=error,
                   factor=clock.factor())
    if tracer:
        it.layers = tracer.layer_totals()
        it.counts = Counter(tracer.counts, **{"engine.steps": it.steps})
        it.counts.update({k: v for k, v in it.layers.items() if k.endswith("_calls")})
        it.counts.update({"artifacts.files_written": files, "artifacts.bytes_written": size})
        it.traced_self = sum(tracing.self_times(tracer.spans))
        it.traced_top = tracing.top_level_time(tracer.spans)
    return it


def iterate_for(seconds: float, run_round) -> list[Iteration]:
    """At least ``MIN_ITERATIONS`` rounds, then more while one still fits in ``seconds``."""
    out = []
    t0 = time.perf_counter()
    k = 0
    while k < MIN_ITERATIONS or (time.perf_counter() - t0) * (k + 1) / k <= seconds:
        batch = run_round(k)
        out += batch
        k += 1
        if any(it.error for it in batch):
            break
    return out


def measure_setup(trees) -> list[tuple[float, float]]:
    """(raw seconds, calibration factor) of ``import sgalab`` in a fresh
    interpreter plus every ``resolve_setup`` of the workload, repeated."""
    from sgalab import config

    code = "import time; t0 = time.perf_counter(); import sgalab; print(time.perf_counter() - t0)"
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def once():
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, check=True, timeout=120)
        t0 = time.perf_counter()
        for _, tree in trees:
            config.resolve_setup(tree)
        return float(proc.stdout.split()[-1]) + time.perf_counter() - t0

    samples = []
    for _ in range(SETUP_REPEATS):
        secs, _, factor = calibration.timed(once)
        samples.append((secs, factor))
    return samples


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            if proc.returncode == 0:
                commit = proc.stdout.strip()
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "commit": commit,
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def correctness(iterations: list[Iteration], counts_must_repeat: bool):
    """(attempted, failed, list of (name, ok, detail)) over all iterations."""
    first = iterations[0]
    verdicts = []
    attempted = 0
    for k, it in enumerate(iterations):
        attempted += it.commands + len(it.replicate_walls)
        if it.error:
            verdicts.append((f"iteration {k + 1} ran", False, it.error.strip().splitlines()[-1]))
        verdicts += [(f"iteration {k + 1}: {c.name}", c.ok, c.detail) for c in it.checks]
        if k:
            verdicts.append((f"iteration {k + 1}: artifacts repeat iteration 1",
                             it.digest == first.digest, f"{len(it.digest)} files compared"))
    if counts_must_repeat:
        traced = [it for it in iterations if it.counts]
        for it in traced[1:]:
            diff = {c: (traced[0].counts[c], it.counts[c]) for c in DETERMINISTIC_COUNTS
                    if traced[0].counts[c] != it.counts[c]}
            verdicts.append(("traced iterations repeat every work count", not diff,
                             f"differences {diff}" if diff else ", ".join(DETERMINISTIC_COUNTS)))
    attempted += len(verdicts)
    failed = sum(1 for _, ok, _ in verdicts if not ok)
    return attempted, failed, verdicts


def rescaled(pairs) -> float:
    """Median of ``raw * factor`` over (raw seconds, calibration factor) pairs."""
    return median([raw * factor for raw, factor in pairs])


def wall_s(iterations: list[Iteration]) -> float:
    """The bounded wall time: the median iteration's rescaled seconds."""
    return rescaled((it.wall, it.factor) for it in iterations)


def end_to_end(trees, iterations: list[Iteration], setup):
    """Every end-to-end metric as name -> (value, unit, sample count).

    Times are rescaled by each interval's calibration factor; the raw
    wall and set-up times and the factor are reported beside them.
    """
    n = len(iterations)
    replicated = any(tree["execution"].get("replicates", 1) > 1 for _, tree in trees)

    def phase(name):
        return [it.phases[name] for it in iterations]

    m = {
        "wall_s": (wall_s(iterations), "s", n),
        "setup_s": (rescaled(setup), "s", len(setup)),
        "predict_s": (median(phase("predict")), "s", n),
        "peak_rss_mb": (peak_rss_mb(), "MB", 1),
        "wall_raw_s": (median([it.wall for it in iterations]), "s", n),
        "setup_raw_s": (median([raw for raw, _ in setup]), "s", len(setup)),
        "calibration.factor": (median([it.factor for it in iterations]), "x", n),
    }
    if any(it.phases["simulate"] for it in iterations):
        simulate = phase("simulate")
        m["simulate_s"] = (median(simulate), "s", n)
        m["steps_per_s"] = (median([it.steps / s for it, s in zip(iterations, simulate)]), "steps/s", n)
    if any(it.phases["compare"] for it in iterations):
        m["compare_s"] = (median(phase("compare")), "s", n)
    if replicated:
        walls = [w * it.factor for it in iterations for w in it.replicate_walls]
        m["replicate_s.p50"] = (median(walls), "s", len(walls))
        high = tracing.high_percentile(walls)
        if high and high[0] > 50:
            m[tracing.percentile_name("replicate_s", high[0])] = (high[1], "s", len(walls))
    return m


SWEEP_UNITS = (("steps_per_s", "steps/s"), ("mb_per_s", "MB/s"), ("_us", "us"), ("_ms", "ms"))


def per_layer(iterations: list[Iteration], sweep: dict, sweep_factor: float):
    """Every per-layer metric as name -> (value, unit, sample count)."""
    traced = [it for it in iterations if it.layers]
    untraced = [it for it in iterations if not it.layers]
    n = len(traced)
    m = {}
    for name in sorted({k for it in traced for k in it.layers}):
        if name.endswith("_s"):
            m[name] = (median([it.layers.get(name, 0.0) * it.factor for it in traced]), "s", n)
        else:
            m[name] = (traced[0].layers[name], "count", n)
    for name, value in sorted(traced[0].counts.items()):  # counts repeat exactly; checked
        unit = "B-computed" if name == "linalg.lyapunov_system_bytes" else (
            "B" if name.endswith("bytes_written") else "count")
        m[name] = (value, unit, n)
    for name, value in sweep.items():
        unit = next(u for key, u in SWEEP_UNITS if key in name)
        rate = unit.endswith("/s")
        m[name] = (value / sweep_factor if rate else value * sweep_factor, unit, 1)
    wall, reference = wall_s(traced), wall_s(untraced)
    m["trace.traced_wall_s"] = (wall, "s", n)
    m["trace.untraced_wall_s"] = (reference, "s", len(untraced))  # computed as wall_s
    m["trace.overhead_s"] = (wall - reference, "s", n)
    m["trace.remainder_s"] = (median([(it.wall - it.traced_top) * it.factor for it in traced]), "s", n)
    m["calibration.factor"] = (median([it.factor for it in iterations]), "x", len(iterations))
    return m


def layer_breakdown(traced: list[Iteration]) -> list[str]:
    """Per-layer self time of the median iteration, plus the remainder; they sum to its wall."""
    it = sorted(traced, key=lambda x: x.wall)[len(traced) // 2]
    layers = Counter()
    for name, value in it.layers.items():
        if name.endswith("_s"):
            layers[name.split(".", 1)[0]] += value
    remainder = it.wall - it.traced_top
    lines = [f"  {layer:<12} {secs:10.4f} s  {100 * secs / it.wall:5.1f}%"
             for layer, secs in layers.most_common()]
    lines.append(f"  {'(untraced)':<12} {remainder:10.4f} s  {100 * remainder / it.wall:5.1f}%")
    total = sum(layers.values()) + remainder
    lines.append(f"  {'sum':<12} {total:10.4f} s  = traced wall {it.wall:.4f} s"
                 f" (self-time sum {it.traced_self:.4f} s, top-level spans {it.traced_top:.4f} s)")
    return lines


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sgalab" / "__init__.py").is_file():
        print(f"error: no sgalab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sweep
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    declared = declared_metrics(bool(args.trace))
    trees = workload.trees(args.seed)
    env = environment()
    OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    work = os.path.join(scratch, "work")
    t_start = time.perf_counter()
    try:
        if args.trace:
            # untraced and traced iterations alternate, all in-process, so
            # their difference is the tracing overhead at identical settings
            tracer = tracing.Tracer(args.workload)
            spans = []

            def paired(k):
                reference = one_iteration(workload, trees, work)
                tracer.start_iteration(k + 1)
                traced = one_iteration(workload, trees, work, tracer)
                spans.extend(tracer.to_json())
                return [reference, traced]

            iterations = iterate_for(args.seconds, paired)
            sweep_metrics, _, sweep_factor = calibration.timed(lambda: sweep.run_sweep(
                WORKLOADS["long-chain"].trees(args.seed), args.seed, os.path.join(scratch, "sweep")))
            failed_early = any(it.error for it in iterations)
            metrics = {} if failed_early else per_layer(iterations, sweep_metrics, sweep_factor)
            (OUT / f"spans-{args.workload}-seed{args.seed}.json").write_text(json.dumps(spans))
        else:
            setup = measure_setup(trees)
            iterations = iterate_for(args.seconds, lambda k: [one_iteration(workload, trees, work)])
            metrics = end_to_end(trees, iterations, setup)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    elapsed = time.perf_counter() - t_start

    attempted, failed, verdicts = correctness(iterations, bool(args.trace))
    missing = [d["name"] for d in declared if d["name"] not in metrics]
    if missing:
        verdicts.append(("every declared metric measured", False, f"missing {missing}"))
        failed += 1
        attempted += 1

    print(f"sgalab benchmark: workload {args.workload}, seed {args.seed},"
          f" trace {args.trace}, {len(iterations)} iteration(s) in {elapsed:.1f} s")
    print(f"load: closed loop, 1 client, every command in this process;"
          f" BLAS threads {BLAS_THREADS}")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print(f"{'metric':<40} {'value':>16}  {'unit':<10} {'n':>5}")
    for name, (value, unit, n) in metrics.items():
        print(f"{name:<40} {value:>16.6g}  {unit:<10} {n:>5}")
    if args.trace and metrics:
        print("self time by layer, median traced iteration (raw seconds):")
        print("\n".join(layer_breakdown([it for it in iterations if it.layers])))
    print(f"fail_frac {failed / attempted:.6g} ({failed} failed of {attempted} attempted"
          " commands, replicates and checks)")
    for name, ok, detail in verdicts:
        if not ok:
            print(f"FAILED {name}: {detail}")
    print(f"checks: {sum(ok for _, ok, _ in verdicts)} passed, {failed} failed")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {d["name"]: {"value": metrics[d["name"]][0], "unit": d["unit"]}
                    for d in declared if d["name"] in metrics},
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  environment=env,
                  iterations=[{"wall_s": it.wall, "factor": it.factor, "traced": bool(it.layers),
                               **it.phases}
                              for it in iterations],
                  all_metrics={k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in metrics.items()},
                  checks=[{"name": a, "ok": b, "detail": c} for a, b, c in verdicts])
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
