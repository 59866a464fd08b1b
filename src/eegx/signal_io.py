"""Load, validate, slice, and epoch multichannel EEG recordings.

File format: header-bearing CSV of raw amplitudes (UTF-8, comma
separated, '.' decimal). Sampling rate and onset index live outside the
CSV, either passed by the caller or read from an optional JSON sidecar
``<path>.meta.json`` with keys ``fs`` and ``onset_index``.
"""

from __future__ import annotations

import json
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


@dataclass(frozen=True)
class EegRecording:
    """A multichannel recording: data matrix (T x C) plus metadata.

    Parameters
    ----------
    channels : list of str
        Channel labels, unique and nonempty, one per data column.
    fs : float
        Sampling rate in Hz, positive.
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
        if not (float(self.fs) > 0):
            raise ValidationError(f"sampling rate must be positive, got {self.fs}")
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
    p.write_text(recording_to_csv(rec), encoding="utf-8")
    if write_sidecar:
        meta = {"fs": rec.fs, "onset_index": rec.onset_index}
        sidecar_path(p).write_text(
            json.dumps(meta, sort_keys=True) + "\n", encoding="utf-8"
        )
    return p


def matrix_to_csv(channels: tuple[ChannelLabel, ...], data: np.ndarray) -> str:
    """Render a (T, C) matrix as CSV text: a header of channel names, then
    one row per sample with every float written by ``repr`` (exact on
    reload)."""
    lines = [",".join(channels)]
    for row in data:
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def recording_to_csv(rec: EegRecording) -> str:
    """Render the recording as CSV text (header + one row per sample)."""
    return matrix_to_csv(rec.channels, rec.data)


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
