"""Detrending and decomposition into the five standard EEG bands.

Band-pass filters are Butterworth designs realized as cascaded
second-order sections and applied forward-backward (zero net phase).
A band whose upper edge exceeds what the sampling rate supports is
capped at 0.99 * Nyquist with a warning; at fs = 100 Hz this turns the
nominal 30-100 Hz gamma band into 30-49.5 Hz.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import signal as sps

from .errors import DesignError, SizeError, ValidationError
from .signal_io import EegRecording

#: Canonical EEG bands (Hz): delta, theta, alpha, beta, gamma.
_BAND_TABLE = (
    ("delta", 0.5, 4.0),
    ("theta", 4.0, 8.0),
    ("alpha", 8.0, 12.0),
    ("beta", 13.0, 30.0),
    ("gamma", 30.0, 100.0),
)

NYQUIST_MARGIN = 0.99  # usable fraction of fs/2
DEFAULT_ORDER = 4  # overall band-pass order; doubles after forward-backward


@dataclass(frozen=True)
class BandDefinition:
    """A named frequency band with edges in Hz."""

    id: str
    low_hz: float
    high_hz: float

    def __post_init__(self):
        if not (0 < self.low_hz < self.high_hz):
            raise ValidationError(
                f"band {self.id!r}: need 0 < low < high, got ({self.low_hz}, {self.high_hz})"
            )


DEFAULT_BANDS: tuple[BandDefinition, ...] = tuple(
    BandDefinition(*row) for row in _BAND_TABLE
)


def band_by_id(band_id: str) -> BandDefinition:
    for b in DEFAULT_BANDS:
        if b.id == band_id:
            return b
    raise ValidationError(
        f"unknown band {band_id!r}; known: {[b.id for b in DEFAULT_BANDS]}"
    )


@dataclass(frozen=True)
class FilterSpec:
    """A designed band-pass filter: SOS coefficients plus provenance.

    ``sos`` has shape (n_sections, 6); each row is (b0, b1, b2, 1, a1, a2).
    ``high_hz_effective`` records the upper edge actually used after
    Nyquist capping.
    """

    band: BandDefinition
    order: int
    fs: float
    sos: np.ndarray
    high_hz_effective: float

    def __post_init__(self):
        sos = np.asarray(self.sos, dtype=float)
        if sos.ndim != 2 or sos.shape[1] != 6:
            raise ValidationError(f"sos must be (n, 6), got {sos.shape}")
        if not np.allclose(sos[:, 3], 1.0):
            raise ValidationError("each section's leading denominator coefficient must be 1")
        for row in sos:
            poles = np.roots(row[3:])
            if np.any(np.abs(poles) >= 1.0):
                raise DesignError(
                    f"unstable filter section for band {self.band.id!r} at fs={self.fs}"
                )
        object.__setattr__(self, "sos", sos)

    @property
    def padlen(self) -> int:
        return 3 * (self.order + 1)


def effective_high_edge(band: BandDefinition, fs: float) -> float:
    """Upper band edge after capping at ``NYQUIST_MARGIN * fs/2``."""
    return min(band.high_hz, NYQUIST_MARGIN * fs / 2.0)


def design_bandpass(
    band: BandDefinition, fs: float, order: int = DEFAULT_ORDER
) -> FilterSpec:
    """Design a Butterworth band-pass as second-order sections.

    ``order`` is the overall filter order (pole count) and must be even
    in [2, 8]; the single-pass response is -3 dB at each band edge.
    Bands reaching past Nyquist are capped; a band starting at or above
    the cap is infeasible.
    """
    if order % 2 != 0 or not 2 <= order <= 8:
        raise ValidationError(f"order must be even and in [2, 8], got {order}")
    if fs <= 0:
        raise ValidationError(f"fs must be positive, got {fs}")

    cap = NYQUIST_MARGIN * fs / 2.0
    if band.low_hz >= cap:
        raise DesignError(
            f"band {band.id!r} ({band.low_hz}-{band.high_hz} Hz) lies above the "
            f"usable range at fs={fs} (limit {cap:g} Hz)"
        )
    high = effective_high_edge(band, fs)
    if high < band.high_hz:
        warnings.warn(
            f"band {band.id!r}: upper edge capped from {band.high_hz:g} to {high:g} Hz "
            f"at fs={fs:g}",
            stacklevel=2,
        )
    if band.low_hz >= high:
        raise DesignError(
            f"band {band.id!r}: lower edge {band.low_hz:g} >= capped upper edge {high:g}"
        )

    sos = sps.butter(order // 2, [band.low_hz, high], btype="bandpass", fs=fs, output="sos")
    return FilterSpec(band=band, order=order, fs=fs, sos=sos, high_hz_effective=high)


def detrend(x: np.ndarray) -> np.ndarray:
    """Remove the least-squares linear trend from a series."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValidationError(f"detrend expects a 1-D series, got shape {x.shape}")
    n = x.size
    if n < 2:
        raise SizeError(f"detrend needs at least 2 samples, got {n}")
    t = np.arange(n, dtype=float)
    t_c = t - t.mean()
    slope = (t_c @ (x - x.mean())) / (t_c @ t_c)
    return x - (x.mean() + slope * t_c)


def apply_zero_phase(x: np.ndarray, spec: FilterSpec) -> np.ndarray:
    """Filter forward, reverse, filter again, reverse: zero net phase.

    Even-symmetric reflections of length ``3 * (order + 1)`` are added
    at both ends before filtering and stripped afterwards, so the output
    has the input's length and edge transients stay out of the data.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValidationError(f"expected a 1-D series, got shape {x.shape}")
    pad = spec.padlen
    if x.size <= pad:
        raise SizeError(
            f"signal too short for zero-phase filtering: need > {pad} samples, got {x.size}"
        )
    ext = np.concatenate((x[pad:0:-1], x, x[-2 : -pad - 2 : -1]))
    y = sps.sosfilt(spec.sos, ext)
    y = sps.sosfilt(spec.sos, y[::-1])[::-1]
    return y[pad : pad + x.size]


@dataclass(frozen=True)
class BandDecomposition:
    """Per-band filtered matrices sharing the source recording's shape."""

    channels: tuple[str, ...]
    fs: float
    onset_index: int | None
    bands: dict[str, np.ndarray]
    specs: dict[str, FilterSpec]
    omitted: tuple[str, ...]

    def __post_init__(self):
        shapes = {m.shape for m in self.bands.values()}
        if len(shapes) > 1:
            raise ValidationError(f"band matrices disagree in shape: {shapes}")
        for name, m in self.bands.items():
            if not np.isfinite(m).all():
                raise ValidationError(f"band {name!r} contains non-finite values")


def decompose_bands(
    rec: EegRecording,
    order: int = DEFAULT_ORDER,
    bands: tuple[BandDefinition, ...] = DEFAULT_BANDS,
) -> BandDecomposition:
    """Detrend each channel, then band-pass it into each feasible band.

    Bands infeasible at the recording's sampling rate are omitted and
    reported in ``omitted``; if none is feasible the decomposition fails.
    """
    specs: dict[str, FilterSpec] = {}
    omitted: list[str] = []
    for band in bands:
        try:
            specs[band.id] = design_bandpass(band, rec.fs, order)
        except DesignError:
            omitted.append(band.id)
    if not specs:
        raise DesignError(f"no band is feasible at fs={rec.fs:g} Hz")
    if omitted:
        warnings.warn(
            f"bands omitted at fs={rec.fs:g} Hz: {omitted}", stacklevel=2
        )

    detrended = [detrend(rec.data[:, c]) for c in range(rec.n_channels)]
    out: dict[str, np.ndarray] = {}
    for band_id, spec in specs.items():
        out[band_id] = np.empty_like(rec.data)
        for c, x in enumerate(detrended):
            out[band_id][:, c] = apply_zero_phase(x, spec)

    return BandDecomposition(
        channels=rec.channels,
        fs=rec.fs,
        onset_index=rec.onset_index,
        bands=out,
        specs=specs,
        omitted=tuple(omitted),
    )
