"""On-disk artifacts: canonical JSON, trace files, and run reloading.

Every writer here is deterministic: keys are sorted and every float is
printed so that it reads back exactly, so re-running a command with the same
configuration reproduces each artifact byte for byte.  The only exceptions
are the explicit wall-clock fields: ``wall_time`` inside a run manifest and
the separate ``timings.json``.  The compare command relies on the embedded
configuration hash to check that a prediction file and a set of traces came
from the same configuration.

The resolved tuning is written once per command, in ``predictions.json``
(``report.config``), and ``manifest.json``'s configuration tree reproduces
it.  A run manifest holds only its digest, ``run.tuning_hash``: the sha256
of ``json.dumps(cfg.to_dict() without "seed", sort_keys=True)``, equal for
every replicate of one tuning, beside the replicate's own ``run.seed``.

Layout of an output directory::

    manifest.json        command-level manifest (config echo, hashes)
    predictions.json     large-sample predictions for the configured run
    trace_000.csv        thinned trajectory of replicate 0
    manifest_000.json    per-replicate manifest: the replicate's seed,
                         initial, final and window-average states and
                         divergence step, the run's constants, and the
                         configuration, data and tuning hashes
    acf_000.csv          per-coordinate autocorrelations of replicate 0, one
                         file for each of the first three replicates that
                         ran to the end, named by replicate index
    comparison.json      simulation-versus-prediction report: agreement
                         metrics, each compared matrix once
                         (``empirical_cov``, ``predicted_cov``, at the
                         top level and in each ``averages`` block)
    timings.json         wall-clock seconds of set-up and of simulation,
                         executed steps and steps/s (excluded from
                         reproducibility)

Trace and ACF files share one table format: a header line of
comma-separated column names, then one line per row holding the integer
first column (``step`` or ``lag``) printed with ``%d`` and every other value
printed with ``%.17g`` (``FLOAT_FMT``), comma-separated, each line ended by
a single line feed.  ``%.17g`` round-trips every double, so ``load_run`` reads back the
exact states; non-finite values appear as ``nan``, ``inf`` and ``-inf``.

JSON files share one text format: dict keys converted with ``str`` and
sorted; a two-space indent, items separated by a comma and a line feed plus
the indent, keys by ``": "``, an empty container written ``{}`` or ``[]``;
finite floats written with ``float.__repr__``, non-finite ones as the
strings ``"nan"``, ``"inf"`` and ``"-inf"``; ints in decimal, ``true``,
``false`` and ``null``; strings escaped to ASCII by
``json.encoder.encode_basestring_ascii``; tuples as lists, numpy arrays and
scalars through ``.tolist()`` and ``.item()``; and a final line feed.  Any other type is a ``TypeError``.  ``json_text``
is the only code that turns values into this text; report classes hand it
their raw fields.  A 2-D native ``float64`` array (every covariance the
reports hold) is written without ``.tolist()``: each distinct bit pattern is
formatted once and the rows are laid out by the same code as a list of
floats, so the text is the one stated above.

``write_json`` writes the command-level files (``predictions.json``,
``manifest.json``, ``comparison.json``, ``recommendation.json``,
``config.json``, ``summary.json``, ``timings.json``): it builds the whole
text first, writes it to ``<path>.tmp`` and renames that over ``path``, so a
failed or killed write leaves the previous file whole.  Run manifests
(``write_json_in_place``), traces and ACF files, which a simulate writes by
the hundred, are written in place.

Reading refuses a cut or stale artifact with ``DataError``: a JSON file that
does not parse or lacks a key its reader asks for, a trace that does not end
in a line feed, or a trace whose line count is not its header plus the rows
its manifest implies (``n_steps // thin``, or ``(diverged_at - 1) // thin``
for a diverged run).  A missing file is an ``ArtifactMismatchError``.
A trace that passes those checks is parsed, unless this process wrote it:
``save_run`` keeps each trace's states beside the sha256 of the bytes it
wrote, when every state is finite, and ``load_run`` returns the kept array
as a read-only view instead of parsing only if the sha256 of the bytes it
read is that digest, the shape is the manifest's and the array's own bytes
are unchanged.  An edited, cut or stale file never matches.  ``load_run``
lets a kept trace go once it has looked it up, and the kept set is emptied
each time a simulate starts writing, so a process holds at most one
simulate's traces, and none once compare has read them.

The simulate command owns the numbered files.  Before writing it deletes
every ACF file, whose trace it replaces, and the trace and run manifest of
each replicate at or beyond its replicate count; then the parent process
alone writes each replicate's pair with ``save_run``, worker processes
returning their records to it.  The compare command reads exactly
replicates ``0 .. R-1``, R the configuration's replicate count, so a
missing one is a mismatch, never a smaller comparison.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from .engine import RunRecord
from .errors import ArtifactMismatchError, DataError

FLOAT_FMT = "%.17g"

#: Table rows formatted per write: enough to amortise the ``%`` call, few
#: enough that a long trace never builds its whole text in memory.
_CHUNK_ROWS = 256

#: The states ``save_run`` wrote since the last simulate started writing
#: and ``load_run`` has not looked up yet, by absolute trace path:
#: ``(sha256 of the trace's bytes, the record's states, sha256 of the
#: states' bytes)``.  ``load_run`` returns them in place of a parse only
#: while both digests still match.
_KEPT: dict[str, tuple[bytes, np.ndarray, bytes]] = {}


def json_text(obj) -> str:
    """The artifact text of ``obj``: the JSON format stated in the module docstring."""
    out: list[str] = []
    _emit(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _float_text(x: float) -> str:
    if math.isfinite(x):
        return float.__repr__(x)
    if math.isnan(x):
        return '"nan"'
    return '"inf"' if x > 0 else '"-inf"'


def _array_text(items: list[str], nl: str) -> str:
    """The JSON array of ``items``, each already text, opened at depth ``nl``."""
    if not items:
        return "[]"
    inner = nl + "  "
    return "[" + inner + ("," + inner).join(items) + nl + "]"


def _matrix_text(m: np.ndarray, nl: str) -> str:
    """The text of a float64 matrix, each distinct value formatted once.

    Values are told apart by their bits, so ``0.0`` and ``-0.0`` keep their
    own text; covariances are symmetric and often sparse, so most repeat.
    ``float.__repr__`` is called straight when every distinct value is
    finite, which saves a tenth of the time over ``_float_text``.
    """
    bits, where = np.unique(m.view(np.int64), return_inverse=True)
    values = bits.view(np.float64)
    fmt = float.__repr__ if np.isfinite(values).all() else _float_text
    texts = np.array(list(map(fmt, values.tolist())), dtype=object)
    inner = nl + "  "
    rows = texts[where.reshape(m.shape)].tolist()
    return _array_text([_array_text(row, inner) for row in rows], nl)


def _emit(obj, nl: str, out: list[str]) -> None:
    """Append the text of ``obj`` to ``out``; ``nl`` starts a line at its depth."""
    if isinstance(obj, str):
        out.append(_quote(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        out.append(_float_text(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, value in sorted({str(k): v for k, v in obj.items()}.items()):
            out.append(sep + _quote(key) + ": ")
            _emit(value, inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        if set(map(type, obj)) == {float} and all(map(math.isfinite, obj)):
            # a row of finite floats: one join
            out.append(_array_text(list(map(float.__repr__, obj)), nl))
            return
        inner = nl + "  "
        sep = "[" + inner
        for value in obj:
            out.append(sep)
            _emit(value, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    elif isinstance(obj, np.ndarray):
        if obj.ndim == 2 and obj.dtype == np.float64:
            out.append(_matrix_text(obj, nl))
        else:
            _emit(obj.tolist(), nl, out)
    elif isinstance(obj, (np.floating, np.integer)):
        _emit(obj.item(), nl, out)
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def write_json(path: str, payload: dict) -> None:
    """Write ``json_text(payload)`` to ``path`` through ``path + ".tmp"``.

    The text is built before any file is opened and the finished file is
    renamed over ``path``, so an encoding error or a killed run leaves the
    previous file whole.
    """
    text = json_text(payload)
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_json_in_place(path: str, payload: dict) -> None:
    """Write ``json_text(payload)`` over ``path`` without a rename: run manifests.

    A rename makes a new file, and renaming hundreds of run manifests over
    old ones made a simulate re-run into a used directory about 60% slower.
    The text is still built first; a cut manifest does not parse, so
    ``load_run`` refuses it as it does a cut trace.
    """
    text = json_text(payload)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


class _Artifact(dict):
    """A JSON object read from ``path``: a key that it lacks is a ``DataError`` naming both."""

    def __init__(self, path: str, pairs):
        super().__init__(pairs)
        self.path = path

    def __missing__(self, key):
        raise DataError(f"{self.path}: no key {key!r}; written by an older sgalab?")


def read_json(path: str) -> dict:
    if not os.path.exists(path):
        raise ArtifactMismatchError(f"missing artifact: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=lambda pairs: _Artifact(path, pairs))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: cannot parse JSON: {exc}") from None


def trace_path(out_dir: str, index: int) -> str:
    return os.path.join(out_dir, f"trace_{index:03d}.csv")


def run_manifest_path(out_dir: str, index: int) -> str:
    return os.path.join(out_dir, f"manifest_{index:03d}.json")


def acf_path(out_dir: str, index: int) -> str:
    return os.path.join(out_dir, f"acf_{index:03d}.csv")


def _trace_header(dim: int, state_dim: int) -> str:
    names = [f"theta_{j}" for j in range(1, dim + 1)]
    names += [f"mom_{j}" for j in range(1, state_dim - dim + 1)]
    return ",".join(["step", "epoch"] + names)


def _write_table(path: str, header: str, first: np.ndarray, values: np.ndarray) -> bytes:
    """Write ``header``, then rows of the integer ``first[k]`` and ``values[k]``.

    Returns the sha256 digest of the bytes written.
    """
    row = ",".join(["%d"] + [FLOAT_FMT] * values.shape[1]) + "\n"
    digest = hashlib.sha256()
    with open(path, "wb") as fh:

        def put(text: str) -> None:
            data = text.encode("ascii")
            digest.update(data)
            fh.write(data)

        put(header + "\n")
        for start in range(0, len(first), _CHUNK_ROWS):
            stop = start + _CHUNK_ROWS
            part = np.column_stack([first[start:stop], values[start:stop]])
            put(row * len(part) % tuple(part.ravel().tolist()))
    return digest.digest()


def save_run(out_dir: str, index: int, record: RunRecord, config_hash: str) -> None:
    """Persist one replicate as a trace CSV plus a manifest JSON.

    The manifest's ``wall_time`` entry is the one field allowed to differ
    between byte-identical re-runs.  A trace whose states are all finite
    float64 values in one C-ordered block is kept in ``_KEPT``, without a
    copy, for ``load_run``; ``nan`` text loses its sign and payload, so a
    non-finite state is always parsed back.
    """
    path = trace_path(out_dir, index)
    key = os.path.abspath(path)
    _KEPT.pop(key, None)
    steps = record.step_numbers()
    states = record.states
    digest = _write_table(
        path,
        _trace_header(record.dim, record.state_dim),
        steps,
        np.column_stack([steps / record.steps_per_epoch, states]),
    )
    if states.dtype == np.float64 and states.flags.c_contiguous and np.isfinite(states).all():
        _KEPT[key] = (digest, states, hashlib.sha256(states).digest())
    payload = {
        "run": record.manifest,
        "config_hash": config_hash,
        "avg_state": record.avg_state,
        "final_state": record.final_state,
        "diverged": record.diverged_at is not None,
        "wall_time": record.wall_time,
    }
    write_json_in_place(run_manifest_path(out_dir, index), payload)


def load_run(out_dir: str, index: int) -> tuple[RunRecord, str]:
    """Rebuild a RunRecord from its trace and manifest files.

    The trace is refused, naming the file, unless it ends in a line feed and
    holds its header plus exactly the rows its manifest implies; only then,
    and only if it has rows, are its states read.  They are the states
    ``save_run`` kept for this path, as a read-only view, when the file's
    sha256 is the one written, the shape is the manifest's and the kept
    array's bytes are unchanged; otherwise the file is parsed.  A kept
    trace is looked up once: a second load parses.
    """
    payload = read_json(run_manifest_path(out_dir, index))
    run = payload["run"]
    # keys read only after loading, where a DataError may pass for a too-short trace
    for key in ("seed", "tuning_hash", "data_hash", "batch_size"):
        run[key]
    state_dim = int(run["state_dim"])
    thin, diverged_at = int(run["thin"]), run["diverged_at"]
    rows = (int(run["n_steps"]) if diverged_at is None else diverged_at - 1) // thin
    path = trace_path(out_dir, index)
    if not os.path.exists(path):
        raise ArtifactMismatchError(f"missing artifact: {path}")
    with open(path, "rb") as fh:
        # counted in blocks: read whole, a long trace would add its size to peak memory
        lines, last, digest = 0, b"", hashlib.sha256()
        for block in iter(lambda: fh.read(1 << 16), b""):
            lines, last = lines + block.count(b"\n"), block[-1:]
            digest.update(block)
        if last != b"\n":
            raise DataError(f"{path}: trace does not end in a line feed; cut short?")
        if lines != 1 + rows:
            raise DataError(f"{path}: {lines - 1} rows, but its manifest implies {rows}")
        states = np.empty((0, state_dim))
        if rows:
            states = _kept_states(path, digest.digest(), (rows, state_dim))
        if states is None:
            fh.seek(0)
            try:
                table = np.loadtxt(fh, delimiter=",", skiprows=1, ndmin=2)
            except ValueError as exc:
                raise DataError(f"{path}: cannot parse trace: {exc}") from None
            if table.shape != (rows, state_dim + 2):
                want = (rows, state_dim + 2)
                raise DataError(f"{path}: table of shape {table.shape}, expected {want}")
            states = np.ascontiguousarray(table[:, 2:])
    avg_state = payload["avg_state"]
    record = RunRecord.from_manifest(
        run, states, np.asarray(payload["final_state"], float),
        None if avg_state is None else np.asarray(avg_state, float), float(payload["wall_time"]),
    )
    return record, payload["config_hash"]


def _kept_states(path: str, digest: bytes, shape: tuple[int, int]) -> np.ndarray | None:
    """A read-only view of the states kept for ``path``, or None unless they still match.

    ``digest`` is the sha256 of the file's bytes as ``load_run`` read them.
    The entry is let go either way: from here the returned record holds the
    array, and keeping it too would hold every trace until the next simulate.
    """
    kept = _KEPT.pop(os.path.abspath(path), None)
    if kept is None:
        return None
    written, states, state_digest = kept
    if (written != digest or states.shape != shape
            or hashlib.sha256(states).digest() != state_digest):
        return None  # the file or the record's array changed since save_run
    view = states.view()
    view.flags.writeable = False
    return view


#: A per-replicate file name: group 1 is a trace's replicate index, group 2
#: a run manifest's, and an ACF file matches with neither.
_REPLICATE_FILE = re.compile(r"trace_(\d+)\.csv|manifest_(\d+)\.json|acf_\d+\.csv")


def remove_runs_from(out_dir: str, first: int) -> None:
    """Delete every ACF file, and the trace and run-manifest files of replicates >= ``first``.

    A simulation calls this before it writes, so that no file from an
    earlier, larger run is read as part of the new one, and no ACF file
    outlives the trace it describes.  It also forgets every state
    ``save_run`` kept, so a process holds at most one simulate's traces.
    """
    _KEPT.clear()
    for name in os.listdir(out_dir):
        match = _REPLICATE_FILE.fullmatch(name)
        if not match:
            continue
        index = match.group(1) or match.group(2)  # None for an ACF file
        if index is None or int(index) >= first:
            os.remove(os.path.join(out_dir, name))


def save_acf(out_dir: str, index: int, rhos: np.ndarray) -> None:
    """Write per-coordinate autocorrelations; rows are lags."""
    n_lags, dim = rhos.shape
    header = ",".join(["lag"] + [f"coord_{j}" for j in range(dim)])
    _write_table(acf_path(out_dir, index), header, np.arange(n_lags), rhos)
