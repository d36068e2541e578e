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
    timings.json         wall-clock seconds of set-up, of simulation and of
                         writing the traces, executed steps and the
                         engine's steps/s (excluded from reproducibility)

Trace and ACF files share one table format: a header line of
comma-separated column names, then one line per row holding the integer
first column (``step`` or ``lag``) printed with ``%d`` and every other value
printed with ``%.17g`` (``FLOAT_FMT``), comma-separated, each line ended by
a single line feed.  ``%.17g`` round-trips every double, so ``load_run`` reads back the
exact states; non-finite values appear as ``nan``, ``inf`` and ``-inf``.
The rows are formatted in blocks of about ``_BLOCK_VALUES`` values.  A block
of ``_KERNEL_MIN_VALUES`` or more goes through a numpy kernel
(``_kernel_text``) that prints the same bytes as ``%``: each value is scaled
to 17 integer digits by an exact double-double product, its digits are
looked up four at a time, and its text is laid out by C's ``%g`` rule.  A
value the kernel cannot certify (zero, non-finite, beyond 1e-290 .. 1e290,
or next to a rounding tie) is printed with ``%`` itself, and a smaller block,
such as a whole short trace, goes through ``%`` directly.

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

import functools
import hashlib
import json
import math
import os
import re
from json.encoder import encode_basestring_ascii as _quote
from typing import NamedTuple

import numpy as np

from .engine import RunRecord
from .errors import ArtifactMismatchError, DataError

FLOAT_FMT = "%.17g"

#: Table values formatted per block: enough to amortise the kernel's numpy
#: calls, few enough that a block's work arrays (about 300 bytes a value,
#: 2.4 MB a block) barely move peak memory.
_BLOCK_VALUES = 8192

#: A block of fewer values is printed with ``%``.  The kernel's fixed cost
#: (some 40 numpy calls, 60-150 us) pays off from about 300 values (measured
#: on a 2-core Xeon at widths 4 to 27); a 20-row trace of 12 columns, 240
#: values, is faster with ``%``.
_KERNEL_MIN_VALUES = 320

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


def _write_table(path: str, header: str, first: np.ndarray, values: np.ndarray,
                 per_epoch: float | None = None) -> bytes:
    """Write ``header``, then rows of the integer ``first[k]`` and ``values[k]``.

    With ``per_epoch``, the column ``first / per_epoch`` goes between them.
    The rows are formatted a block at a time, so no copy of the whole table
    is made: a block of ``_KERNEL_MIN_VALUES`` or more by ``_kernel_text``,
    a smaller one by ``_percent_text``.  Returns the sha256 digest of the
    bytes written.
    """
    lead = 1 if per_epoch is None else 2
    width = lead + values.shape[1]
    step = max(1, _BLOCK_VALUES // width)
    block = np.empty((min(step, len(first)), width))
    digest = hashlib.sha256()
    with open(path, "wb") as fh:

        def put(data: bytes) -> None:
            digest.update(data)
            fh.write(data)

        put((header + "\n").encode("ascii"))
        for start in range(0, len(first), step):
            stop = min(start + step, len(first))
            part = block[: stop - start]
            part[:, 0] = first[start:stop]
            if per_epoch is not None:
                np.divide(part[:, 0], per_epoch, out=part[:, 1])
            part[:, lead:] = values[start:stop]
            put(_kernel_text(part) if part.size >= _KERNEL_MIN_VALUES else _percent_text(part))
    return digest.digest()


def _percent_text(block: np.ndarray) -> bytes:
    """The table lines of ``block``, column 0 printed with ``%d`` and the others with ``FLOAT_FMT``."""
    rows, width = block.shape
    row = ",".join(["%d"] + [FLOAT_FMT] * (width - 1)) + "\n"
    return (row * rows % tuple(block.ravel().tolist())).encode("ascii")


class _KernelTables(NamedTuple):
    """Read-only tables of ``_kernel_text``; those of one row per exponent X start at X = -291."""

    power_hi: np.ndarray  # 10**(16 - X) rounded to a double
    power_lo: np.ndarray  # the rest of 10**(16 - X), rounded
    power_head: np.ndarray  # power_hi's top 26 bits
    power_tail: np.ndarray  # power_hi - power_head
    forms: np.ndarray  # the form of X with one significant digit
    exponents: np.ndarray  # (582, 4) uint8: "e" notation's sign and three digits of |X|
    quads: np.ndarray  # (10000,) uint32: the four ASCII digits of each 4-digit chunk
    zeros: np.ndarray  # (10000,): trailing zeros of each 4-digit chunk, 4 for 0000
    keep: np.ndarray  # (_EMPTY + 1, _SLOT) uint8: 0xFF where a form prints a source byte as is
    shift: np.ndarray  # (_EMPTY + 1, _SLOT): 0xFF where it prints the one before it
    const: np.ndarray  # (_EMPTY + 1, _SLOT): the constant bytes it prints


#: A value's slot: the sign or NUL, "0." and up to three zeros before the
#: digits of 1e-4 <= |x| < 1, the 17 digits with room for a point, "e" and the
#: exponent's sign and three digits, and the separator.  Every byte not
#: printed is NUL.
_SIGN, _BODY, _E, _EXP, _SEP, _SLOT = 0, 6, 24, 25, 29, 30
#: The exponents C's ``%g`` writes in fixed notation at precision 17.
_FIXED = range(-4, 17)
#: Forms: 17 for each fixed-notation exponent and for each exponent width 2
#: and 3, one per number of significant digits; then the all-NUL form of a
#: value left to ``%``.
_SCIENTIFIC = len(_FIXED) * 17
_EMPTY = _SCIENTIFIC + 2 * 17
#: The kernel prints 1e-290 <= |x| < 1e290; a power of ten is tabled for each
#: exponent estimate of such a value, which may be one off.
_TINY, _HUGE, _X_LOW, _X_HIGH = 1e-290, 1e290, -291, 290
#: How near to a half the fraction of the scaled value may come before the
#: value is left to ``%``: the double-double product is good to a few 1e-15
#: (2e-15 at most over 3000 values spread across the range).
_TIE_GUARD = 1e-9


def _form_masks(exp10: int, n: int) -> tuple[bytes, bytes, bytes]:
    """``keep``, ``shift`` and ``const`` of the ``%.17g`` text of n digits at exponent ``exp10``.

    The digits sit at ``_BODY``; a digit printed after the point comes from
    the slot byte before it, one place to the right.
    """
    keep, shift, const = bytearray(_SLOT), bytearray(_SLOT), bytearray(_SLOT)
    keep[_SIGN] = keep[_SEP] = 0xFF
    point = 0  # digits after this one follow a point
    if exp10 not in _FIXED:
        places = 3 if abs(exp10) >= 100 else 2
        const[_E] = ord("e")
        keep[_EXP] = 0xFF  # the exponent's sign
        keep[_SEP - places : _SEP] = b"\xff" * places
    elif exp10 < 0:
        const[_SIGN + 1 : _BODY - 4 - exp10] = b"0." + b"0" * (-exp10 - 1)
        point = 17  # "0." and the zeros carry the point
    else:
        point, n = exp10, max(n, exp10 + 1)
    for p in range(n):
        if p <= point:
            keep[_BODY + p] = 0xFF
        else:
            shift[_BODY + p + 1] = 0xFF
    if point < n - 1:
        const[_BODY + point + 1] = ord(".")
    return bytes(keep), bytes(shift), bytes(const)


@functools.cache
def _kernel_tables() -> _KernelTables:
    """The kernel's tables, built from exact integer arithmetic on first use."""
    powers, forms, exponents = [], [], []
    for exp10 in range(_X_LOW, _X_HIGH + 1):
        k = 16 - exp10
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        hi = num / den  # int / int is correctly rounded
        hi_num, hi_den = hi.as_integer_ratio()
        lo = (num * hi_den - hi_num * den) / (den * hi_den)
        m, e = math.frexp(hi)
        head = math.ldexp(math.floor(math.ldexp(m, 26)), e - 26)
        powers.append((hi, lo, head, hi - head))
        if exp10 in _FIXED:
            forms.append(_FIXED.index(exp10) * 17)
        else:
            forms.append(_SCIENTIFIC + 17 * (abs(exp10) >= 100))
        exponents.append(f"{'-' if exp10 < 0 else '+'}{abs(exp10):03d}")
    masks = [_form_masks(exp10, n) for exp10 in [*_FIXED, 99, 100] for n in range(1, 18)]
    masks.append((bytes(_SLOT),) * 3)
    chunk = np.arange(10000)
    places = 10 ** np.arange(3, -1, -1)  # each chunk's digits, most significant first
    tables = _KernelTables(
        *np.array(powers).T.copy(), np.array(forms),
        np.frombuffer("".join(exponents).encode("ascii"), np.uint8).reshape(-1, 4),
        (chunk[:, None] // places % 10 + ord("0")).astype(np.uint8).view(np.uint32).ravel(),
        sum(chunk % (10 * place) == 0 for place in places),
        *(np.frombuffer(b"".join(rows), np.uint8).reshape(-1, _SLOT) for rows in zip(*masks)),
    )
    for array in tables:
        array.flags.writeable = False
    return tables


def _kernel_text(block: np.ndarray) -> bytes:
    """``_percent_text`` of a float64 ``block``, byte for byte, from numpy arrays.

    Each value with 1e-290 <= |x| < 1e290 is scaled to 17 integer digits:
    with X = floor(log10|x|), y = |x| * 10**(16 - X) is formed as a
    double-double (Dekker's exact split product with a tabled hi + lo
    power), and its digits D = rint(y) are used when 1e16 <= y, D < 1e17 and
    y's fraction is not within ``_TIE_GUARD`` of a half.  D's digits come
    from a table of 4-digit chunks; trailing zeros are dropped and the text
    laid out by C's ``%g`` rule (fixed for -4 <= X < 17) in a fixed-width
    slot, with NUL in every byte not printed, which is deleted at the end.
    A value the kernel cannot certify (0, nan, inf, out of range, near a
    tie, X misestimated, or D reaching 1e17), and a first-column value that
    is not an integer below 1e16, is printed with ``%`` into its slot.
    """
    tables = _kernel_tables()
    rows, width = block.shape
    x = block.ravel()
    count = x.size
    a = np.abs(x)
    ok = (a >= _TINY) & (a < _HUGE)
    ok[::width] &= (a[::width] < 1e16) & (np.trunc(x[::width]) == x[::width])
    a[~ok] = 1.0
    row = np.floor(np.log10(a)).astype(np.intp) - _X_LOW  # X + 291
    p_head, p_tail = tables.power_head.take(row), tables.power_tail.take(row)
    split = a * 134217729.0  # 2**27 + 1
    a_head = split - (split - a)
    a_tail = a - a_head
    hi = a * tables.power_hi.take(row)
    lo = (((a_head * p_head - hi) + a_head * p_tail) + a_tail * p_head) + a_tail * p_tail
    lo += a * tables.power_lo.take(row)
    carry = np.rint(lo)
    lo -= carry  # now y - D
    digits = hi.astype(np.int64) + carry.astype(np.int64)
    ok &= (digits < 10**17) & ((digits > 10**16) | ((digits == 10**16) & (lo >= 0)))
    ok &= np.abs(np.abs(lo) - 0.5) > _TIE_GUARD

    lead = digits // 10**16
    digits -= lead * 10**16
    chunks = np.empty((count, 4), np.intp)  # D's 16 digits after the lead, four at a time
    chunks[:, 1] = digits // 10**8
    chunks[:, 3] = digits - chunks[:, 1] * 10**8
    chunks[:, 0::2] = chunks[:, 1::2] // 10**4
    chunks[:, 1::2] -= chunks[:, 0::2] * 10**4
    zeros = tables.zeros.take(chunks)
    stripped = zeros[:, 0]
    for j in range(1, 4):
        stripped = np.where(chunks[:, j] == 0, stripped + 4, zeros[:, j])
    form = tables.forms.take(row) + 16 - stripped
    form[~ok] = _EMPTY

    buffer = np.empty(count * _SLOT + 1, np.uint8)
    source = buffer[1:].reshape(count, _SLOT)
    source[:, _SIGN] = np.signbit(x) * np.uint8(ord("-"))
    source[:, _BODY] = lead + ord("0")
    source[:, _BODY + 1 : _BODY + 17] = tables.quads.take(chunks).view(np.uint8)
    source[:, _EXP : _SEP] = tables.exponents.take(row, axis=0)
    source[:, _SEP].reshape(rows, width)[:] = np.frombuffer(b"," * (width - 1) + b"\n", np.uint8)
    text = source & tables.keep.take(form, axis=0)
    text |= buffer[:-1].reshape(count, _SLOT) & tables.shift.take(form, axis=0)
    text |= tables.const.take(form, axis=0)
    for i in np.flatnonzero(~ok).tolist():
        column = i % width
        line = ("%d" if column == 0 else FLOAT_FMT) % x[i] + ("\n" if column == width - 1 else ",")
        if len(line) > _SLOT:  # a first-column integer too long for a slot
            return _percent_text(block)
        text[i, : len(line)] = np.frombuffer(line.encode("ascii"), np.uint8)
    return text.tobytes().translate(None, b"\0")


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
    states = record.states
    digest = _write_table(path, _trace_header(record.dim, record.state_dim),
                          record.step_numbers(), states, record.steps_per_epoch)
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
