"""Detrending and decomposition into the five standard EEG bands.

Band-pass filters are Butterworth designs (analog prototype, low-pass
to band-pass transform, pre-warped bilinear transform), stored as
cascaded second-order sections and applied forward-backward (zero net
phase). Filtering is FFT convolution with the filter's impulse
response, which follows in closed form from the partial fractions over
its poles; it equals the sections' recursion from zero initial state
to rounding. A band whose upper edge exceeds what the sampling rate
supports is capped at 0.99 * Nyquist with a warning; at fs = 100 Hz
this turns the nominal 30-100 Hz gamma band into 30-49.5 Hz.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DesignError, SizeError, ValidationError, check_floats, check_int, check_real
from .signal_io import FS_RANGE, EegRecording

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
_H_ENVELOPE = 1e-18  # impulse response cut where max|pole|**n falls below this


@dataclass(frozen=True)
class BandDefinition:
    """A named frequency band with edges in Hz."""

    id: str
    low_hz: float
    high_hz: float

    def __post_init__(self):
        low = check_real(self.low_hz, "low_hz", "(0, inf)")
        if not low < check_real(self.high_hz, "high_hz", "(0, inf)"):
            raise ValidationError(
                f"band {self.id!r}: need low < high, got ({self.low_hz}, {self.high_hz})"
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
        check_real(self.fs, "fs", FS_RANGE)
        check_real(self.high_hz_effective, "high_hz_effective", "(0, inf)")
        sos = check_floats(self.sos, "sos", ndim=2, finite=True)
        if sos.shape[1] != 6:
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


def _check_order(order: int, name: str = "order") -> int:
    order = check_int(order, name, 2)
    if order % 2 != 0 or order > 8:
        raise ValidationError(f"{name} must be even and in [2, 8], got {order}")
    return order


def effective_high_edge(band: BandDefinition, fs: float) -> float:
    """Upper band edge after capping at ``NYQUIST_MARGIN * fs/2``."""
    return min(band.high_hz, NYQUIST_MARGIN * fs / 2.0)


def _butter_bandpass_sos(n: int, low: float, high: float, fs: float) -> np.ndarray:
    """Digital Butterworth band-pass of prototype order ``n`` as ``n`` sections.

    Analog prototype poles -exp(i*pi*m/(2n)), m = -n+1, -n+3, ..., n-1;
    the low-pass to band-pass transform about the pre-warped edges; the
    bilinear transform at fs = 2 (edges as fractions of Nyquist). Each
    section holds a conjugate pole pair (or two real poles) and the
    zeros z = 1 and z = -1; the first also carries the gain.
    """
    m = np.arange(-n + 1, n, 2, dtype=float)
    proto = -np.exp(1j * np.pi * m / (2 * n))
    warped = 4.0 * np.tan(np.pi * (np.array([low, high]) / (fs / 2)) / 2.0)
    bw = warped[1] - warped[0]
    wo = float(np.sqrt(warped[0] * warped[1]))
    p_lp = proto * bw / 2
    root = np.sqrt(p_lp**2 - wo**2)
    analog = np.concatenate((p_lp + root, p_lp - root))
    # the n analog zeros at s = 0 map to z = 1, the n at infinity to z = -1
    gain = bw**n * np.real(np.complex128(4.0**n) / np.prod(4.0 - analog))
    poles = (4.0 + analog) / (4.0 - analog)

    upper = poles[poles.imag > 0]
    real = np.sort(poles[poles.imag == 0].real)
    pairs = [(p, np.conj(p)) for p in upper] + list(zip(real[::2], real[1::2]))
    sos = np.zeros((n, 6))
    sos[:, 0], sos[:, 2], sos[:, 3] = 1.0, -1.0, 1.0
    for row, (p, q) in zip(sos, pairs):
        row[4], row[5] = -np.real(p + q), np.real(p * q)
    sos[0, :3] *= gain
    return sos


def design_bandpass(
    band: BandDefinition, fs: float, order: int = DEFAULT_ORDER
) -> FilterSpec:
    """Design a Butterworth band-pass as second-order sections.

    ``order`` is the overall filter order (pole count) and must be even
    in [2, 8]; the single-pass response is -3 dB at each band edge.
    Bands reaching past Nyquist are capped; a band starting at or above
    the cap is infeasible.
    """
    order = _check_order(order)
    check_real(fs, "sampling rate", FS_RANGE)

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

    sos = _butter_bandpass_sos(order // 2, band.low_hz, high, fs)
    return FilterSpec(band=band, order=order, fs=fs, sos=sos, high_hz_effective=high)


def detrend(x: np.ndarray) -> np.ndarray:
    """Remove the least-squares linear trend from a series."""
    x = check_floats(x, "series", ndim=1, finite=True)
    n = x.size
    if n < 2:
        raise SizeError(f"detrend needs at least 2 samples, got {n}")
    t = np.arange(n, dtype=float)
    t_c = t - t.mean()
    # np.sum, not a BLAS dot product: its order of summation, and so the
    # last bits, must not depend on how many threads the BLAS runs
    slope = np.sum(t_c * (x - x.mean())) / np.sum(t_c * t_c)
    return x - (x.mean() + slope * t_c)


def _impulse_response(sos: np.ndarray, n: int) -> np.ndarray:
    """The first ``n`` samples of the sections' impulse response, cut
    where the slowest pole's envelope falls below ``_H_ENVELOPE``.

    With w = 1/z the response is N(w) / prod_j (1 - p_j w), N the product
    of the numerators. Over distinct nonzero poles (a Butterworth design
    has them) its partial fractions give
    h[k] = sum_i r_i p_i**k for k >= 1, r_i = N(1/p_i) / prod_(j != i)
    (1 - p_j/p_i), and h[0] = N(0), the product of the leading numerator
    coefficients.
    """
    poles = np.concatenate([np.roots(row[3:]) for row in sos]).astype(complex)
    with np.errstate(divide="ignore", invalid="ignore"):  # checked below
        num = np.prod([np.polyval(row[2::-1], 1.0 / poles) for row in sos], axis=0)
        ratio = poles[None, :] / poles[:, None]
        np.fill_diagonal(ratio, 0.0)
        residues = num / np.prod(1.0 - ratio, axis=1)
    if not np.isfinite(residues).all():
        raise DesignError("partial fractions need distinct, nonzero poles")
    rho = np.abs(poles).max()
    length = min(n, int(np.ceil(np.log(_H_ENVELOPE) / np.log(rho))) + 1)
    k = np.arange(1, length)
    h = np.empty(length)
    h[0] = np.prod(sos[:, 0])
    terms = np.exp(np.multiply.outer(k, np.log(poles))) * residues
    h[1:] = np.real(np.sum(terms, axis=1))  # np.sum, not @, as in detrend
    return h


def _fft_size(n: int) -> int:
    """The smallest 2**a * 3**b * 5**c >= n."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _end_correction(ext: np.ndarray, h: np.ndarray) -> np.ndarray:
    """What the forward output past the end of ``ext`` adds to the last
    ``h.size - 1`` samples of the backward pass, which starts from zero
    state at the end and so must not see it.

    That output is tail[j] = sum_i h[i] ext[m + j - i], j < h.size - 1,
    and sample m - s gains sum_j h[j + s] tail[j]. Both are short
    convolutions of the last ``h.size - 1`` input samples.
    """
    n = h.size
    nfft = _fft_size(2 * n)
    tf = np.fft.rfft(h, nfft)[:, None]
    tail = np.fft.irfft(np.fft.rfft(ext[-(n - 1) :], nfft, axis=0) * tf, nfft, axis=0)
    tail = tail[n - 1 : 2 * n - 2]
    spill = np.fft.irfft(np.conj(np.fft.rfft(tail, nfft, axis=0)) * tf, nfft, axis=0)
    return spill[n - 1 : 0 : -1]


def _zero_phase(x: np.ndarray, specs: list[FilterSpec]) -> list[np.ndarray]:
    """:func:`apply_zero_phase` of each column of ``x`` (T x C) through
    each filter in ``specs``, which share an order and so a padding.

    With u = h * ext the forward output, the backward pass gives
    y[k] = sum_i h[i] u[k + i] over k + i < m = len(ext): a correlation
    with h. Over all i that is ext filtered by |H|^2, one FFT product
    per filter on a transform of ext that filters of one FFT length
    share; the terms with k + i >= m come off the last samples
    (:func:`_end_correction`). A filter's output does not depend on the
    other filters in ``specs``.
    """
    pad = specs[0].padlen
    if x.shape[0] <= pad:
        raise SizeError(
            f"signal too short for zero-phase filtering: need > {pad} samples, "
            f"got {x.shape[0]}"
        )
    ext = np.concatenate((x[pad:0:-1], x, x[-2 : -pad - 2 : -1]))
    m = ext.shape[0]
    responses = [_impulse_response(spec.sos, m) for spec in specs]
    sizes = [_fft_size(m + h.size - 1) for h in responses]
    out = [None] * len(specs)
    for nfft in sorted(set(sizes)):  # one transform of ext per FFT length
        spectrum = np.fft.rfft(ext, nfft, axis=0)
        product = np.empty_like(spectrum)
        for k in (k for k, size in enumerate(sizes) if size == nfft):
            h = responses[k]
            power = np.abs(np.fft.rfft(h, nfft)) ** 2
            y = np.fft.irfft(np.multiply(spectrum, power[:, None], out=product), nfft, axis=0)
            if h.size > 1:
                y[m - h.size + 1 : m] -= _end_correction(ext, h)
            out[k] = y[pad : pad + x.shape[0]]
    return out


def apply_zero_phase(x: np.ndarray, spec: FilterSpec) -> np.ndarray:
    """Filter forward, reverse, filter again, reverse: zero net phase.

    Even-symmetric reflections of length ``3 * (order + 1)`` are added
    at both ends before filtering and stripped afterwards, so the output
    has the input's length and edge transients stay out of the data.
    Each pass starts from zero state, as the sections' recursion would.
    Both passes are one FFT product with |H|^2, H the transform of the
    impulse response of ``spec.sos`` (cut once its envelope is below
    1e-18), less the forward output past the end, which the backward
    pass does not see.
    """
    x = check_floats(x, "series", ndim=1, finite=True)
    return _zero_phase(x[:, None], [spec])[0][:, 0]


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
        check_real(self.fs, "fs", FS_RANGE)
        shapes = {m.shape for m in self.bands.values()}
        if len(shapes) > 1:
            raise ValidationError(f"band matrices disagree in shape: {shapes}")
        for name, m in self.bands.items():
            check_floats(m, f"band {name!r}", finite=True)


def decompose_bands(
    rec: EegRecording,
    order: int = DEFAULT_ORDER,
    bands: tuple[BandDefinition, ...] = DEFAULT_BANDS,
) -> BandDecomposition:
    """Detrend each channel, then band-pass it into each feasible band.

    Bands infeasible at the recording's sampling rate are omitted and
    reported in ``omitted``; if none is feasible the decomposition fails.
    Each band filters every channel at once, as :func:`apply_zero_phase`
    does one.
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

    detrended = np.column_stack([detrend(rec.data[:, c]) for c in range(rec.n_channels)])
    out = dict(zip(specs, _zero_phase(detrended, list(specs.values()))))

    return BandDecomposition(
        channels=rec.channels,
        fs=rec.fs,
        onset_index=rec.onset_index,
        bands=out,
        specs=specs,
        omitted=tuple(omitted),
    )
