"""Frequency-domain summaries: periodogram, Welch average, band power.

Power is scaled as a one-sided spectral density, so the trapezoid-free
Riemann sum ``sum(power) * fs / n`` of a periodogram equals the sample
variance of the (mean-centered) input exactly.

The periodogram is Welch's average with one rectangular segment that
spans the series, so both go through one segment loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SizeError, UsageError, ValidationError
from .errors import check_floats, check_int, check_real
from .preprocess import BandDefinition
from .signal_io import FS_RANGE

__all__ = ["SpectrumEstimate", "periodogram", "welch", "band_power"]

#: Bytes of one temporary when Welch segments are transformed in blocks.
_BLOCK_BYTES = 256 * 1024


@dataclass(frozen=True)
class SpectrumEstimate:
    """One-sided power spectrum on an ascending frequency grid."""

    freqs_hz: np.ndarray
    power: np.ndarray
    method: str
    fs: float

    def __post_init__(self):
        check_real(self.fs, "fs", FS_RANGE)
        f = check_floats(self.freqs_hz, "freqs_hz", ndim=1, finite=True)
        p = check_floats(self.power, "power", ndim=1, finite=True)
        if f.shape != p.shape:
            raise ValidationError("freqs_hz and power must be of equal length")
        if np.any(np.diff(f) <= 0):
            raise ValidationError("frequency grid must be strictly ascending")
        if np.any(p < 0):
            raise ValidationError("power ordinates must be nonnegative")
        object.__setattr__(self, "freqs_hz", f)
        object.__setattr__(self, "power", p)


def periodogram(x: np.ndarray, fs: float) -> SpectrumEstimate:
    """One-sided periodogram of a mean-centered series.

    Parameters
    ----------
    x : array_like, length n >= 2
    fs : float
        Sampling rate in Hz.

    Returns
    -------
    SpectrumEstimate
        Density-scaled power at ``k * fs / n`` for k = 0 .. floor(n/2);
        its integral over frequency reproduces the sample variance.
    """
    x = check_floats(x, "series", ndim=1, finite=True)
    n = x.size
    if n < 2:
        raise SizeError(f"periodogram needs at least 2 samples, got {n}")
    check_real(fs, "sampling rate", FS_RANGE)
    return _segment_average(x, fs, n, 0.0, "periodogram")


def welch(
    x: np.ndarray, fs: float, seg_len: int, overlap: float = 0.5
) -> SpectrumEstimate:
    """Welch average of Hann-tapered segment periodograms.

    Taper power is normalized (division by ``sum(w**2)``) so white noise
    keeps a flat expected spectrum at its variance level. With a single
    full-length segment the taper falls back to rectangular and the
    result equals :func:`periodogram`.

    Parameters
    ----------
    x : array_like
    fs : float
    seg_len : int
        Samples per segment, ``3 <= seg_len <= len(x)``, or ``len(x)`` for
        one rectangular segment; a 2-sample Hann taper is all zeros.
    overlap : float
        Fractional overlap between consecutive segments, in [0, 0.9].
    """
    x = check_floats(x, "series", ndim=1, finite=True)
    n = x.size
    seg_len = check_int(seg_len, "seg_len", 2)
    if seg_len > n:
        raise SizeError(f"seg_len {seg_len} exceeds signal length {n}")
    check_real(overlap, "overlap", "[0, 0.9]")
    check_real(fs, "sampling rate", FS_RANGE)
    return _segment_average(x, fs, seg_len, overlap, "welch")


def _segment_average(
    x: np.ndarray, fs: float, seg_len: int, overlap: float, method: str
) -> SpectrumEstimate:
    """Average of the density-scaled periodograms of ``seg_len``-sample
    segments, each mean-centered and Hann-tapered, or rectangular when
    one segment spans ``x``. The segments are a strided view of ``x``,
    transformed a block at a time, at most ``_BLOCK_BYTES`` per
    temporary, and their periodograms are summed in segment order, so
    every float equals a loop over the segments one at a time. Interior
    bins are doubled once, after the sum (DC and an even length's
    Nyquist bin stay single); doubling is exact, so this equals doubling
    each segment."""
    n = x.size
    window = np.ones(n) if seg_len == n else np.hanning(seg_len)
    energy = float(window @ window)
    if energy == 0.0:
        raise UsageError(f"a {seg_len}-sample Hann taper has zero energy; use seg_len >= 3")
    scale = 1.0 / (fs * energy)

    step = max(1, int(round(seg_len * (1.0 - overlap))))
    segments = np.lib.stride_tricks.sliding_window_view(x, seg_len)[::step]  # a view
    # a block's segments, row by row, go through the same operations as
    # one segment alone; each row is then added in segment order
    rows = max(1, _BLOCK_BYTES // (16 * (seg_len // 2 + 1)))
    acc = np.zeros(seg_len // 2 + 1)
    for first in range(0, len(segments), rows):
        block = segments[first : first + rows]
        centred = (block - block.mean(axis=1, keepdims=True)) * window
        for power in np.abs(np.fft.rfft(centred, axis=1)) ** 2 * scale:
            acc += power
    acc[1 : (seg_len + 1) // 2] *= 2.0
    freqs = np.fft.rfftfreq(seg_len, d=1.0 / fs)
    return SpectrumEstimate(freqs_hz=freqs, power=acc / len(segments), method=method, fs=fs)


def _segment_integral(freqs, power, lo, hi) -> float:
    """Trapezoidal integral of the interpolated spectrum over [lo, hi]."""
    if hi <= lo:
        return 0.0
    inner = (freqs > lo) & (freqs < hi)
    xs = np.concatenate(([lo], freqs[inner], [hi]))
    ys = np.concatenate(
        ([np.interp(lo, freqs, power)], power[inner], [np.interp(hi, freqs, power)])
    )
    return float(np.trapezoid(ys, xs))


def band_power(spec: SpectrumEstimate, band: BandDefinition) -> float:
    """Fraction of (non-DC) spectral power inside a band.

    Integrates the spectrum over ``[low, min(high, fs/2)]`` by the
    trapezoid rule with edge interpolation and divides by the integral
    over the full analyzed range above DC. A band with no overlap with
    [0, fs/2] is a domain error.
    """
    half = spec.fs / 2.0
    if band.low_hz >= half:
        raise DomainError(
            f"band {band.id!r} ({band.low_hz}-{band.high_hz} Hz) does not overlap "
            f"[0, {half:g}] Hz"
        )
    if spec.freqs_hz.size < 2:
        raise SizeError("spectrum too short for band power")

    freqs = spec.freqs_hz[1:]  # DC bin excluded
    power = spec.power[1:]
    total = float(np.trapezoid(power, freqs))
    if total <= 0.0:
        return 0.0
    lo = max(band.low_hz, float(freqs[0]))
    hi = min(band.high_hz, float(freqs[-1]))
    return _segment_integral(freqs, power, lo, hi) / total
