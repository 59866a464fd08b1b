"""Load, validate, slice, and epoch multichannel EEG recordings.

File format: header-bearing CSV of raw amplitudes (UTF-8, comma
separated, '.' decimal). Sampling rate and onset index live outside the
CSV, either passed by the caller or read from an optional JSON sidecar
``<path>.meta.json`` with keys ``fs`` and ``onset_index``. Matrices are
written by ``write_matrices_csv``, which formats row chunks on every
usable core and streams them, in order, into atomically replaced files.
``_ordered_map`` is the package's one process pool: the CSV writer and
the chi bootstrap both run through it.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import tempfile
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ChannelLookupError,
    DataError,
    FormatError,
    UsageError,
    ValidationError,
)

ChannelLabel = str

#: Rows per chunk handed to one worker when writing matrices as CSV.
CSV_CHUNK_ROWS = 5_000


@dataclass(frozen=True)
class EegRecording:
    """A multichannel recording: data matrix (T x C) plus metadata.

    Parameters
    ----------
    channels : list of str
        Channel labels, unique and nonempty, one per data column.
    fs : float
        Sampling rate in Hz, finite and positive.
    data : ndarray, shape (T, C)
        Amplitudes, all finite, T >= 2. Stored read-only.
    onset_index : int, optional
        Event onset as a sample count: the first ``onset_index`` samples
        are pre-onset. Must lie in [1, T-1] when present.
    """

    channels: tuple[ChannelLabel, ...]
    fs: float
    data: np.ndarray
    onset_index: int | None = None

    def __post_init__(self):
        chans = tuple(str(c) for c in self.channels)
        object.__setattr__(self, "channels", chans)
        if not chans:
            raise ValidationError("recording must have at least one channel")
        if any(not c for c in chans):
            raise ValidationError("channel names must be nonempty")
        if len(set(chans)) != len(chans):
            dupes = sorted({c for c in chans if chans.count(c) > 1})
            raise ValidationError(f"duplicate channel names: {dupes}")
        if not (np.isfinite(float(self.fs)) and float(self.fs) > 0):
            raise ValidationError(f"sampling rate must be finite and positive, got {self.fs}")
        object.__setattr__(self, "fs", float(self.fs))

        data = np.array(self.data, dtype=float)
        if data.ndim != 2:
            raise ValidationError(f"data must be 2-D (T x C), got shape {data.shape}")
        if data.shape[0] < 2:
            raise ValidationError(f"recording needs at least 2 samples, got {data.shape[0]}")
        if data.shape[1] != len(chans):
            raise ValidationError(
                f"data has {data.shape[1]} columns but {len(chans)} channel names"
            )
        if not np.isfinite(data).all():
            t, c = np.argwhere(~np.isfinite(data))[0]
            raise DataError(f"non-finite amplitude at sample {t + 1}, channel {chans[c]!r}")
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

        if self.onset_index is not None:
            onset = int(self.onset_index)
            if not 1 <= onset <= data.shape[0] - 1:
                raise ValidationError(
                    f"onset_index {onset} outside [1, {data.shape[0] - 1}]"
                )
            object.__setattr__(self, "onset_index", onset)

    @property
    def n_samples(self) -> int:
        return self.data.shape[0]

    @property
    def n_channels(self) -> int:
        return self.data.shape[1]

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.fs

    def channel(self, name: ChannelLabel) -> np.ndarray:
        """Return one channel's series (read-only view)."""
        return self.data[:, self.index_of(name)]

    def index_of(self, name: ChannelLabel) -> int:
        """Column index of a channel, or a lookup error naming the options."""
        try:
            return self.channels.index(name)
        except ValueError:
            raise ChannelLookupError(
                f"unknown channel {name!r}; available: {list(self.channels)}"
            ) from None


@dataclass(frozen=True)
class EpochPair:
    """Pre/post onset halves of one recording."""

    pre: EegRecording
    post: EegRecording

    def __post_init__(self):
        if self.pre.channels != self.post.channels:
            raise ValidationError("pre and post epochs must share channels")
        if self.pre.fs != self.post.fs:
            raise ValidationError("pre and post epochs must share the sampling rate")


def sidecar_path(path: str | Path) -> Path:
    return Path(str(path) + ".meta.json")


def read_sidecar(path: str | Path) -> dict:
    """Read ``<path>.meta.json`` if present. Returns {} when absent."""
    sp = sidecar_path(path)
    if not sp.exists():
        return {}
    try:
        meta = json.loads(sp.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise FormatError(f"malformed sidecar {sp}: {exc}") from exc
    if not isinstance(meta, dict):
        raise FormatError(f"sidecar {sp} must hold a JSON object")
    return meta


def _parse_header(line: str) -> tuple[ChannelLabel, ...]:
    names = [tok.strip() for tok in line.rstrip("\r\n").split(",")]
    if not names or any(n == "" for n in names):
        raise FormatError("malformed header: empty channel name")
    # reject headers that are actually a data row
    if all(_is_float(n) for n in names):
        raise FormatError("malformed header: first line looks like numeric data")
    return tuple(names)


def _is_float(tok: str) -> bool:
    try:
        float(tok)
    except ValueError:
        return False
    return True


def _locate_bad_cell(lines: list[str], n_cols: int) -> None:
    """Slow path: pinpoint the first malformed cell and raise."""
    for i, line in enumerate(lines):
        parts = line.rstrip("\r\n").split(",")
        if len(parts) != n_cols:
            raise FormatError(
                f"row {i + 1} has {len(parts)} fields, expected {n_cols}"
            )
        for j, tok in enumerate(parts):
            try:
                v = float(tok)
            except ValueError:
                raise DataError(
                    f"non-numeric value {tok.strip()!r} at row {i + 1}, column {j + 1}"
                ) from None
            if not np.isfinite(v):
                raise DataError(f"non-finite value at row {i + 1}, column {j + 1}")


def load_recording(
    path: str | Path,
    fs: float | None = None,
    onset_index: int | None = None,
) -> EegRecording:
    """Load a recording from a header-bearing CSV file.

    ``fs`` and ``onset_index`` fall back to the JSON sidecar when not
    given. Amplitudes are parsed as-is; no rescaling.

    Raises
    ------
    FormatError
        Malformed header or ragged rows.
    DataError
        Non-numeric, NaN, or Inf cell (named by row/column).
    ValidationError
        Duplicate channel names, missing sampling rate, bad onset.
    """
    p = Path(path)
    if not p.exists():
        raise ValidationError(f"input file not found: {p}")

    meta = read_sidecar(p)
    if fs is None:
        fs = meta.get("fs")
    if onset_index is None:
        onset_index = meta.get("onset_index")
    if fs is None:
        raise ValidationError(
            f"sampling rate required: pass fs or provide {sidecar_path(p).name}"
        )

    with open(p, "r", encoding="utf-8") as fh:
        header_line = fh.readline()
        if header_line == "":
            raise FormatError(f"{p} is empty")
        channels = _parse_header(header_line)
        body = fh.read()

    try:
        data = np.loadtxt(
            body.splitlines(), delimiter=",", dtype=float, ndmin=2
        )
    except ValueError as exc:
        _locate_bad_cell(body.splitlines(), len(channels))
        raise FormatError(f"could not parse {p}: {exc}") from exc

    if data.size and data.shape[1] != len(channels):
        raise FormatError(
            f"data rows have {data.shape[1]} columns but header names {len(channels)}"
        )
    if not np.isfinite(data).all():
        t, c = np.argwhere(~np.isfinite(data))[0]
        raise DataError(f"non-finite value at row {t + 1}, column {c + 1}")

    return EegRecording(channels=channels, fs=fs, data=data, onset_index=onset_index)


def save_recording(
    rec: EegRecording, path: str | Path, write_sidecar: bool = True
) -> Path:
    """Write a recording to CSV (and its metadata sidecar).

    Floats are written with ``repr``, so load -> save -> load is exact.
    """
    p = Path(path)
    write_matrices_csv([p], rec.channels, [rec.data])
    if write_sidecar:
        meta = {"fs": rec.fs, "onset_index": rec.onset_index}
        sidecar_path(p).write_text(
            json.dumps(meta, sort_keys=True) + "\n", encoding="utf-8"
        )
    return p


def _rows_text(block: np.ndarray) -> str:
    """CSV rows of a 2-D float block, every value written by ``repr``
    (exact on reload), each row ending in a newline: one ``%r`` template
    for the whole block."""
    rows, cols = block.shape
    return ((",".join(["%r"] * cols) + "\n") * rows) % tuple(block.ravel().tolist())


def matrix_to_csv(channels: tuple[ChannelLabel, ...], data: np.ndarray) -> str:
    """Render a (T, C) matrix as CSV text: a header of channel names, then
    one row per sample with every float written by ``repr`` (exact on
    reload)."""
    return ",".join(channels) + "\n" + _rows_text(np.asarray(data, dtype=float))


def recording_to_csv(rec: EegRecording) -> str:
    """Render the recording as CSV text (header + one row per sample)."""
    return matrix_to_csv(rec.channels, rec.data)


def write_text_atomic(path: str | Path, parts: Iterable[str]) -> Path:
    """Write the strings of ``parts`` to ``path`` in order through a temp
    file in the same directory, renamed into place at the end; on any
    failure the temp file is removed and ``path`` is left as it was."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            for part in parts:
                fh.write(part)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    return path


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def write_matrices_csv(
    paths: Iterable[str | Path],
    channels: tuple[ChannelLabel, ...],
    matrices: Iterable[np.ndarray],
) -> list[Path]:
    """Write each (T, C) matrix to its path as ``matrix_to_csv`` text.

    The rows are cut into chunks of ``CSV_CHUNK_ROWS``, formatted by
    ``_rows_text`` on every usable core (``_ordered_map``), and streamed
    in order into each file, which is written atomically. The bytes do
    not depend on how the chunks were formatted.
    """
    paths = [Path(p) for p in paths]
    mats = [np.asarray(m, dtype=float) for m in matrices]
    if len(paths) != len(mats):
        raise UsageError(f"{len(paths)} paths for {len(mats)} matrices")
    header = ",".join(channels) + "\n"
    chunks = [
        m[i : i + CSV_CHUNK_ROWS] for m in mats for i in range(0, len(m), CSV_CHUNK_ROWS)
    ]
    with contextlib.closing(_ordered_map(_rows_text, chunks)) as texts:
        for path, m in zip(paths, mats):
            n_chunks = -(-len(m) // CSV_CHUNK_ROWS)
            write_text_atomic(path, itertools.chain([header], itertools.islice(texts, n_chunks)))
    return paths


def _ordered_map(fn, items: list):
    """Yield ``fn(item)`` for every item, in order, computed on every
    usable core: a fork process pool, or in-process when there is one
    core, one item, or no ``fork``. ``fn`` must be a module-level
    function, since the pool sends it to the workers by name. Closing
    the generator stops the pool."""
    workers = min(_usable_cores(), len(items))
    if workers > 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor

            # fork, not spawn: a spawned worker imports numpy and eegx
            # afresh (about 0.17 s for eegx.cli), which costs more than
            # the formatting it takes over; report would pay it in each
            # of its three pools (the band CSVs, then the chi bootstrap
            # of each epoch), against a chi saving of about 0.5 s in all.
            # The executor forks every worker before it starts its own
            # thread, and the workers only run ``fn``.
            ctx = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(workers, mp_context=ctx) as pool:
                yield from pool.map(fn, items)
            return
    yield from map(fn, items)


def split_at_onset(rec: EegRecording) -> EpochPair:
    """Split a recording into pre-onset and post-onset epochs.

    The pre epoch holds the first ``onset_index`` samples, the post
    epoch everything after; concatenating them reproduces the source.
    """
    if rec.onset_index is None:
        raise UsageError("split_at_onset needs a recording with onset_index set")
    k = rec.onset_index
    if k < 2 or k > rec.n_samples - 2:
        raise UsageError(
            f"onset_index {k} leaves an epoch shorter than 2 samples (T={rec.n_samples})"
        )
    pre = EegRecording(channels=rec.channels, fs=rec.fs, data=rec.data[:k])
    post = EegRecording(channels=rec.channels, fs=rec.fs, data=rec.data[k:])
    return EpochPair(pre=pre, post=post)


def select_channels(
    rec: EegRecording, names: list[ChannelLabel] | tuple[ChannelLabel, ...]
) -> EegRecording:
    """Return a sub-recording with columns reordered to match ``names``.

    Data is copied; the source recording is untouched.
    """
    idx = [rec.index_of(n) for n in names]
    return EegRecording(
        channels=tuple(names),
        fs=rec.fs,
        data=rec.data[:, idx].copy(),
        onset_index=rec.onset_index,
    )
