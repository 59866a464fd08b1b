"""Load, validate, slice, and epoch multichannel EEG recordings.

This module owns the CSV format: it alone writes, reads and checks CSV
headers and sidecars, and it formats every table the package writes. A
recording is a header-bearing CSV of raw amplitudes (UTF-8, comma
separated, '.' decimal). Sampling rate and onset index live outside the
CSV, either passed by the caller or read from an optional JSON sidecar
``<path>.meta.json`` with keys ``fs`` and ``onset_index``, which
``save_recording`` writes atomically next to the CSV. Bytes that are not
UTF-8 are a ``FormatError``, a leading UTF-8 byte-order mark is
dropped, and a path that is not a regular file is a ``ValidationError``.

One rule (``_header``) decides which names a header may hold, for the
writer and for ``load_recording`` alike: every name is a nonempty
string with no ',', '\r', '\n', '/' or NUL, no leading or trailing
whitespace, and an encoding in UTF-8; the names are distinct, the first
does not start with U+FEFF (read back as a byte-order mark), and not
all of them parse as numbers. So no name read in can steer an output
path out of its directory, and every header written loads back.

One writer (``_table_text``) turns a table, (name, column) pairs, into
CSV text ``CSV_CHUNK_ROWS`` rows at a time: recordings, band matrices
and every analysis table of the CLI, each written by
``write_text_atomic``. A recording or band matrix is the table of its
columns, written by ``_write_csv``; the CLI writes each band file as
one ``_Pool`` task, whose worker hands back only its path. ``_Pool`` is
the package's one process pool, a handle on which work is submitted now
and collected in order later; the band files and the chi bootstrap both
run on it, and ``report`` opens one for its whole pass.

Every float is written as ``repr`` writes it, so a reload is exact. The
text comes from a vectorised kernel (``_rows_text``): for finite values
with 1e-4 <= |x| < 1e16, which ``repr`` writes positionally, it finds
the shortest round-trip digits in int64 arithmetic (``_shortest_digits``,
Ryu's interval rule, ties to even) and lays them out as bytes
(``_digit_words``). Every other value (zeros, NaN, infinities,
subnormals, and what ``repr`` writes with an exponent) is written by
``repr`` itself. The bytes equal one ``repr`` call per value.
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
    check_floats,
    check_int,
    check_real,
)

ChannelLabel = str

#: Rows formatted at a time when a table is written as CSV.
CSV_CHUNK_ROWS = 5_000
#: Sampling rates in Hz, as :func:`eegx.errors.check_real` takes them.
FS_RANGE = "(0, inf)"


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
        object.__setattr__(self, "fs", check_real(self.fs, "sampling rate", FS_RANGE))

        data = check_floats(self.data, "data", ndim=2).copy()  # stored read-only
        if data.shape[0] < 2:
            raise ValidationError(f"recording needs at least 2 samples, got {data.shape[0]}")
        if data.shape[1] != len(chans):
            raise ValidationError(
                f"data has {data.shape[1]} columns but {len(chans)} channel names"
            )
        if not np.isfinite(data).all():
            t, c = np.argwhere(~np.isfinite(data))[0]
            raise DataError(
                f"non-finite amplitude at row {t + 1}, column {c + 1} (channel {chans[c]!r})"
            )
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

        if self.onset_index is not None:
            onset = check_int(self.onset_index, "onset_index", 1)
            if onset > data.shape[0] - 1:
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


@contextlib.contextmanager
def _utf8_text(path: Path):
    """``path`` open for reading as UTF-8 text, a leading byte-order mark
    dropped: a ``ValidationError`` if it is not a regular file, a
    ``FormatError`` for bytes that do not decode."""
    if not path.is_file():
        raise ValidationError(f"{path} is not a regular file")
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text: {exc}") from None


def read_sidecar(path: str | Path) -> dict:
    """Read ``<path>.meta.json`` if present. Returns {} when absent."""
    sp = sidecar_path(path)
    if not sp.exists():
        return {}
    with _utf8_text(sp) as fh:
        try:
            meta = json.load(fh)
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
    _header(tuple(names))  # the names a header may be written with, and no others
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
            if not _is_float(tok):
                raise DataError(
                    f"non-numeric value {tok.strip()!r} at row {i + 1}, column {j + 1}"
                )


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
        Malformed header or ragged rows; bytes that are not UTF-8.
    DataError
        Non-numeric, NaN, or Inf cell (named by row/column).
    ValidationError
        A path that is not a regular file, duplicate channel names,
        missing or bad sampling rate, bad onset.
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
    # before the file is parsed; a sidecar's fs may be any JSON value
    check_real(fs, "sampling rate", FS_RANGE)

    with _utf8_text(p) as fh:
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
    return EegRecording(channels=channels, fs=fs, data=data, onset_index=onset_index)


def save_recording(rec: EegRecording, path: str | Path) -> Path:
    """Write a recording to CSV and its metadata to the sidecar, each
    atomically. Floats are written with ``repr``, so load -> save -> load
    is exact; channel names must pass ``_header``."""
    p = Path(path)
    _write_csv((p, rec.channels, rec.data))
    meta = {"fs": rec.fs, "onset_index": rec.onset_index}
    write_text_atomic(sidecar_path(p), (json.dumps(meta, sort_keys=True) + "\n",))
    return p


# Tables of the float -> text kernel. 10**k and 5**k are exact for k <= 22;
# each 10**k is also split into two 26-bit halves for Dekker's product.
_POW10 = np.array([float(10**k) for k in range(23)])
_POW10_HI = _POW10 * 134217729.0 - (_POW10 * 134217729.0 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_POW5 = 5 ** np.arange(23, dtype=np.int64)
#: the nearest doubles to 10**-4 .. 10**16
_TENS = np.array([float(f"1e{k}") for k in range(-4, 17)])
#: the four ASCII digits of 0 .. 9999, first digit in the lowest byte
_DIGITS4 = np.arange(10_000)
_DIGITS4 = (
    (_DIGITS4 // 1000 + 48)
    | (_DIGITS4 // 100 % 10 + 48) << 8
    | (_DIGITS4 // 10 % 10 + 48) << 16
    | (_DIGITS4 % 10 + 48) << 24
).astype(np.uint64)
_WORD = (1 << 64) - 1
#: masks of the lowest 0 .. 8 bytes of a word
_KEEP = np.array([(1 << 8 * b) - 1 for b in range(9)], dtype=np.uint64)


def _layout(e: int) -> tuple[int, int, int]:
    """How a value with decimal exponent ``e`` is laid out in a 24-byte
    row (byte 0 the sign): the mask of the digit bytes that precede the
    point, their shift in bits, and the fixed characters (the point, and
    the leading zeros when e < 0). Digits past the point move 16 bits."""
    if e >= 0:  # d.ddd with e + 1 digits before the point
        return (1 << 8 * (e + 1)) - 1, 8, ord(".") << 8 * (e + 2)
    zeros = sum(ord("0") << 8 * b for b in range(3, 2 - e))  # 0.000ddd
    return (1 << 192) - 1, 8 * (2 - e), ord("0") << 8 | ord(".") << 16 | zeros


_LAYOUTS = [_layout(e) for e in range(-4, 16)]  # indexed by e + 4
_BEFORE_POINT = tuple(
    np.array([lay[0] >> 64 * w & _WORD for lay in _LAYOUTS], dtype=np.uint64) for w in range(3)
)
_SHIFT = np.array([lay[1] for lay in _LAYOUTS], dtype=np.uint64)
_FIXED = tuple(
    np.array([lay[2] >> 64 * w & _WORD for lay in _LAYOUTS], dtype=np.uint64) for w in range(3)
)
_TEXT_WIDTH = 25  # a sign, 23 characters of text, a separator


def _fast_path(x: np.ndarray) -> np.ndarray:
    """The values ``_rows_text`` formats without ``repr``: finite, with
    1e-4 <= |x| < 1e16, where ``repr`` writes the number positionally."""
    a = np.abs(x)
    return (a >= 1e-4) & (a < 1e16)


def _shortest_digits(bits: np.ndarray):
    """Shortest round-trip digits of the positive doubles whose bit
    patterns are ``bits`` (int64), all in [1e-4, 1e16), as ``repr``
    writes them (Gay's dtoa in shortest mode).

    Returns ``(digits, e, n_sig)``: the value written is
    digits * 10**(e - 16), and the first ``n_sig`` of the 17 digits are
    significant. The rule is Ryu's (Adams 2018): of the decimals in the
    double's rounding interval, one with the fewest digits, and of those
    the nearest, ties to even.
    """
    a = bits.view(np.float64)
    q = (bits >> 52) - 1075
    m = bits & ((1 << 52) - 1) | 1 << 52  # a = m * 2**q
    # e = floor(log10(a)), exactly: the binary exponent gives it or one
    # less, and a >= 10**(e + 1) decides. That compare is exact with the
    # nearest double to 10**(e + 1): for e + 1 >= 0 it is 10**(e + 1), and
    # for e + 1 in [-4, -1] it lies above 10**(e + 1) with no double between.
    e = ((q + 52) * 78913) >> 18  # floor((q + 52) * log10(2))
    e += a >= _TENS[e + 5]
    # V = a * 10**k in [1e16, 1e17), exactly hi + lo (Dekker's product;
    # numpy ufuncs do not contract to FMA)
    k = 16 - e
    hi = a * _POW10[k]
    split = a * 134217729.0
    a_hi = split - (split - a)
    a_lo = a - a_hi
    b_hi, b_lo = _POW10_HI[k], _POW10_LO[k]
    lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    # V = n + r / 2**t with 0 <= r < 2**t: V * 2**t = 4 m 5**k is an
    # integer, and t = 2 - q - k lies in [0, 48] on this domain
    floor_lo = np.floor(lo)
    n = hi.astype(np.int64) + floor_lo.astype(np.int64)
    t = 2 - q - k
    r = ((lo - floor_lo) * ((t + 1023) << 52).view(np.float64)).astype(np.int64)
    # the rounding interval in units of 2**-t: V + 2 * 5**k above, V - 5**k
    # below at the bottom of a binade and V - 2 * 5**k elsewhere; its ends
    # belong to it when m is even. [lo_b, hi_b] are the integers inside.
    gap = 2 * _POW5[k]
    inclusive = ~m & 1
    lo_b = n + ((r - np.where(m == 1 << 52, gap >> 1, gap) - inclusive) >> t) + 1
    hi_b = n + ((r + gap - 1 + inclusive) >> t)
    # The interval spans at most 22 integers (ulp * 10**k < 22.3), so it
    # holds at most one multiple of 100; failing that, the nearest to V of
    # its multiples of 10, and failing that, of its integers, ties to even.
    tens = n // 10
    units = n - 10 * tens
    up = (units > 5) | ((units == 5) & ((r > 0) | (tens & 1 == 1)))
    top10 = hi_b // 10 * 10
    by_ten = np.minimum(np.maximum(10 * (tens + up), (lo_b + 9) // 10 * 10), top10)
    half = 2 * r - (np.int64(1) << t)  # the sign of frac(V) - 1/2
    up = (half > 0) | ((half == 0) & (n & 1 == 1))
    by_one = np.minimum(np.maximum(n + up, lo_b), hi_b)
    top100 = hi_b // 100 * 100
    has10, has100 = top10 >= lo_b, top100 >= lo_b
    digits = np.where(has100, top100, np.where(has10, by_ten, by_one))
    n_sig = 17 - has10.astype(np.int64) - has100
    sub = np.flatnonzero(has100)
    rest = top100[sub] // 100
    while sub.size:  # more trailing zeros
        zero = rest % 10 == 0
        sub, rest = sub[zero], rest[zero] // 10
        n_sig[sub] -= 1
    # 10**17 rolls over into the next decade (e stays <= 15: 1e16 is a
    # double, so no value below it can round to it)
    roll = digits == 10**17
    if roll.any():
        digits[roll] = 10**16
        e += roll
        n_sig[roll] = 1
    return digits, e, n_sig


def _digit_words(digits: np.ndarray, e: np.ndarray, n_sig: np.ndarray) -> np.ndarray:
    """Positional text of ``_shortest_digits`` output as little-endian
    24-byte rows of three uint64 words, shape (n, 3): byte 0 left free
    for the sign, then the text, then NULs."""
    top = digits // 10**16
    rest = digits - top * 10**16
    high = rest // 10**8
    low = rest - high * 10**8
    g1, g3 = high // 10**4, low // 10**4
    d1, d2 = _DIGITS4[g1], _DIGITS4[high - g1 * 10**4]
    d3, d4 = _DIGITS4[g3], _DIGITS4[low - g3 * 10**4]
    # the 17 digits as a 136-bit little-endian string, NUL past the last
    # significant digit but for one digit after the point
    end = np.where(e >= 0, np.maximum(n_sig, e + 2), n_sig)
    s0 = ((top + 48).astype(np.uint64) | d1 << 8 | d2 << 40) & _KEEP[np.minimum(end, 8)]
    s1 = (d2 >> 24 | d3 << 8 | d4 << 40) & _KEEP[np.clip(end - 8, 0, 8)]
    s2 = (d4 >> 24) * (end == 17)
    layout = e + 4
    b0, b1, b2 = (table[layout] for table in _BEFORE_POINT)
    shift = _SHIFT[layout]
    back = 64 - shift
    l0, l1, l2 = s0 & b0, s1 & b1, s2 & b2  # digits before the point
    h0, h1, h2 = s0 & ~b0, s1 & ~b1, s2 & ~b2  # digits after it
    out = np.empty((digits.size, 3), np.uint64)
    out[:, 0] = _FIXED[0][layout] | l0 << shift | h0 << 16
    out[:, 1] = _FIXED[1][layout] | l1 << shift | l0 >> back | h1 << 16 | h0 >> 48
    out[:, 2] = _FIXED[2][layout] | l2 << shift | l1 >> back | h2 << 16 | h1 >> 48
    return out


def _rows_text(block: np.ndarray) -> str:
    """CSV rows of a 2-D float block, every value written as ``repr``
    writes it (exact on reload), each row ending in a newline.

    Values on the ``_fast_path`` get ``repr``'s shortest digits from
    ``_shortest_digits``, in vectorised integer arithmetic; every other
    value (zeros, NaN, infinities, subnormals and whatever ``repr`` writes
    with an exponent) is written by ``repr`` itself. Each value fills a
    NUL-padded row of ``_TEXT_WIDTH`` bytes, and the text is the non-NUL
    bytes in order.
    """
    rows, cols = block.shape
    x = np.ascontiguousarray(block, dtype=float).ravel()
    fast = _fast_path(x)
    bits = np.where(fast, x, 1.0).view(np.int64)  # 1.0 stands in for the rest
    words = _digit_words(*_shortest_digits(bits & ((1 << 63) - 1)))
    words[:, 0] |= (bits.view(np.uint64) >> 63) * np.uint64(ord("-"))
    buf = np.empty((x.size, _TEXT_WIDTH), np.uint8)
    buf[:, :-1] = words.astype("<u8", copy=False).view(np.uint8)
    buf[:, -1] = ord(",")
    buf.reshape(rows, cols, _TEXT_WIDTH)[:, -1, -1] = ord("\n")
    slow = np.flatnonzero(~fast)
    if slow.size:
        texts = "".join(repr(v).ljust(_TEXT_WIDTH - 1, "\0") for v in x[slow].tolist())
        buf[slow, :-1] = np.frombuffer(texts.encode(), np.uint8).reshape(slow.size, -1)
    return buf.tobytes().translate(None, b"\0").decode("ascii")


def _table_text(columns) -> Iterable[str]:
    """CSV text of a table of (name, column) pairs of equal length: the
    header line, then one string per ``CSV_CHUNK_ROWS`` rows. The names
    and lengths are checked now, before any text is made. Float64 columns
    are written by ``_rows_text`` (a chunk of only such columns is its
    text as it is); every other cell is ``str`` of its column's
    ``tolist()`` entry, so integers and labels appear as they are."""
    header = _header(tuple(name for name, _ in columns))
    arrays = [np.asarray(col) for _, col in columns]
    if len({len(a) for a in arrays}) > 1:
        raise UsageError(f"columns of unequal lengths {[len(a) for a in arrays]}")
    floats = [a.dtype == np.float64 for a in arrays]

    def chunks():
        for i in range(0, len(arrays[0]), CSV_CHUNK_ROWS):
            chunk = [a[i : i + CSV_CHUNK_ROWS] for a in arrays]
            if all(floats):
                yield _rows_text(np.column_stack(chunk))
                continue
            cells = [
                _rows_text(c[:, None]).splitlines() if f else map(str, c.tolist())
                for c, f in zip(chunk, floats)
            ]
            yield "".join(",".join(row) + "\n" for row in zip(*cells))

    return itertools.chain([header], chunks())


def _header(channels: tuple[ChannelLabel, ...]) -> str:
    """The CSV header line naming ``channels``, or a ``ValidationError``
    if they break the header rule (see the module docstring), which
    ``load_recording`` applies to the names it reads."""
    if not channels:
        raise ValidationError("a CSV matrix needs at least one channel")
    for name in channels:
        if not isinstance(name, str) or not name:
            raise ValidationError(f"channel name {name!r} is not a nonempty string")
        if any(c in name for c in ",\r\n/\0"):
            raise ValidationError(
                f"channel name {name!r} holds a comma, a line break, a '/' or a NUL"
            )
        if name != name.strip():
            raise ValidationError(f"channel name {name!r} starts or ends with whitespace")
        try:
            name.encode("utf-8")
        except UnicodeEncodeError:
            raise ValidationError(f"channel name {name!r} does not encode as UTF-8") from None
    if channels[0].startswith("\ufeff"):  # read back as a byte-order mark
        raise ValidationError(f"channel name {channels[0]!r} starts with U+FEFF")
    if len(set(channels)) != len(channels):
        raise ValidationError(f"duplicate channel names in {list(channels)}")
    if all(_is_float(n) for n in channels):
        raise ValidationError(f"channel names {list(channels)} all read as numbers")
    return ",".join(channels) + "\n"


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


def _write_csv(task) -> Path:
    """Write ``task`` = (path, channels, matrix) as CSV, the table
    ``_table_text`` makes of the matrix's columns, through
    ``write_text_atomic``. Only the path goes back: text sent to the
    caller would pile up there while it waits (about 19 MB of band text
    on a report pass)."""
    path, channels, matrix = task
    return write_text_atomic(path, _table_text(list(zip(channels, matrix.T))))


class _Pool:
    """The package's one process pool: work is submitted now and collected
    in order later, so the caller can go on meanwhile. Used as a context
    manager; leaving the block cancels the work nobody collected and waits
    for the workers to exit.

    The pool forks its workers at the first ``submit`` of more than one
    item, one per usable core but no more than the items. Until then, and
    for good on one usable core or without ``fork``, ``submit`` runs
    nothing: the items are computed in-process when they are collected.
    """

    def __init__(self):
        self._executor = None

    def __enter__(self) -> _Pool:
        return self

    def __exit__(self, *exc_info) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)

    def submit(self, fn, items: list):
        """Start ``fn(item)`` for every item; returns a function that waits
        for the results and returns them in order. ``fn`` must be a
        module-level function, since the pool sends it to the workers by
        name. When one item fails, collecting raises its exception and
        cancels the items not yet started."""
        if self._executor is None and len(items) > 1:
            self._executor = _fork_executor(len(items))
        if self._executor is None:
            return lambda: list(map(fn, items))
        futures = [self._executor.submit(fn, item) for item in items]

        def collect():
            try:
                return [f.result() for f in futures]
            finally:  # after a failure the rest is not needed
                for f in futures:
                    f.cancel()

        return collect


def _fork_executor(items: int):
    """A fork process pool with a worker per usable core, but no more than
    ``items``; None on one usable core or where there is no ``fork``."""
    workers = min(_usable_cores(), items)
    if workers < 2:
        return None
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    from concurrent.futures import ProcessPoolExecutor

    # fork, not spawn: a spawned worker imports numpy and eegx afresh
    # (about 0.17 s for eegx.cli), which costs more than the band file it
    # writes; report, with one pool for its band files and both epochs'
    # chi bootstraps, would pay it once per worker against a chi saving
    # of about 0.5 s. The executor forks every worker at its first
    # submit, before it starts its own thread, and the workers only run
    # the submitted functions.
    return ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))


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
