"""Frequency-domain summaries: periodogram, Welch average, band power.

Power is scaled as a one-sided spectral density, so the trapezoid-free
Riemann sum ``sum(power) * fs / n`` of a periodogram equals the sample
variance of the (mean-centered) input exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SizeError, UsageError, ValidationError
from .preprocess import BandDefinition
from .signal_io import _check_fs

__all__ = ["SpectrumEstimate", "periodogram", "welch", "band_power"]


@dataclass(frozen=True)
class SpectrumEstimate:
    """One-sided power spectrum on an ascending frequency grid."""

    freqs_hz: np.ndarray
    power: np.ndarray
    method: str
    fs: float

    def __post_init__(self):
        f = np.asarray(self.freqs_hz, dtype=float)
        p = np.asarray(self.power, dtype=float)
        if f.shape != p.shape or f.ndim != 1:
            raise ValidationError("freqs_hz and power must be 1-D and equal length")
        if np.any(np.diff(f) <= 0):
            raise ValidationError("frequency grid must be strictly ascending")
        if np.any(p < 0):
            raise ValidationError("power ordinates must be nonnegative")
        object.__setattr__(self, "freqs_hz", f)
        object.__setattr__(self, "power", p)

    @property
    def df(self) -> float:
        return float(self.freqs_hz[1] - self.freqs_hz[0])


def _onesided_power(x: np.ndarray, fs: float, scale: float) -> np.ndarray:
    """|rfft|^2 * scale with interior-bin doubling (DC/Nyquist kept single)."""
    spec = np.abs(np.fft.rfft(x)) ** 2 * scale
    n = x.size
    if n % 2 == 0:
        spec[1:-1] *= 2.0
    else:
        spec[1:] *= 2.0
    return spec


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
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValidationError(f"expected a 1-D series, got shape {x.shape}")
    n = x.size
    if n < 2:
        raise SizeError(f"periodogram needs at least 2 samples, got {n}")
    _check_fs(fs)
    xc = x - x.mean()
    power = _onesided_power(xc, fs, 1.0 / (n * fs))
    freqs = np.fft.rfftfreq(n, d=1.0 / fs)
    return SpectrumEstimate(freqs_hz=freqs, power=power, method="periodogram", fs=fs)


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
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValidationError(f"expected a 1-D series, got shape {x.shape}")
    n = x.size
    seg_len = int(seg_len)
    if seg_len < 2:
        raise UsageError(f"seg_len must be >= 2, got {seg_len}")
    if seg_len > n:
        raise SizeError(f"seg_len {seg_len} exceeds signal length {n}")
    if not 0 <= overlap <= 0.9:
        raise UsageError(f"overlap must lie in [0, 0.9], got {overlap}")
    _check_fs(fs)

    if seg_len == n:
        window = np.ones(n)
    else:
        window = np.hanning(seg_len)
    energy = float(window @ window)
    if energy == 0.0:
        raise UsageError(f"a {seg_len}-sample Hann taper has zero energy; use seg_len >= 3")
    scale = 1.0 / (fs * energy)

    step = max(1, int(round(seg_len * (1.0 - overlap))))
    starts = range(0, n - seg_len + 1, step)
    acc = np.zeros(seg_len // 2 + 1)
    count = 0
    for s in starts:
        seg = x[s : s + seg_len]
        seg = (seg - seg.mean()) * window
        acc += _onesided_power(seg, fs, scale)
        count += 1
    freqs = np.fft.rfftfreq(seg_len, d=1.0 / fs)
    return SpectrumEstimate(
        freqs_hz=freqs, power=acc / count, method="welch", fs=fs
    )


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
    if band.low_hz >= half or band.high_hz <= 0:
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
