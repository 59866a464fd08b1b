import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import signal as sps
from scipy.signal import sosfilt

import eegx
from eegx import (
    DEFAULT_BANDS,
    BandDefinition,
    DesignError,
    EegRecording,
    SizeError,
    ValidationError,
    apply_zero_phase,
    decompose_bands,
    design_bandpass,
    detrend,
)
from eegx.preprocess import FilterSpec, band_by_id, effective_high_edge


def tone(freq, fs, n, amp=1.0, phase=0.0):
    t = np.arange(n) / fs
    return amp * np.sin(2 * np.pi * freq * t + phase)


def sosfilt_zero_phase(x, spec):
    """Reference: the sections' recursion forward and backward over the
    same even reflections, as zero-phase filtering was first written."""
    pad = spec.padlen
    ext = np.concatenate((x[pad:0:-1], x, x[-2 : -pad - 2 : -1]))
    y = sosfilt(spec.sos, ext)
    y = sosfilt(spec.sos, y[::-1])[::-1]
    return y[pad : pad + x.size]


def feasible_designs(order, fs):
    """design_bandpass of every default band feasible at ``fs``."""
    specs = []
    for band in DEFAULT_BANDS:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # gamma capping
            try:
                specs.append(design_bandpass(band, fs, order))
            except DesignError:
                continue
    return specs


ORDERS_AND_RATES = [(o, fs) for o in (2, 4, 6, 8) for fs in (100.0, 256.0, 1000.0)]


def interior_gain(x, y):
    """Amplitude ratio on the middle 50% of samples (RMS-based)."""
    n = x.size
    sl = slice(n // 4, 3 * n // 4)
    return np.sqrt(np.mean(y[sl] ** 2) / np.mean(x[sl] ** 2))


class TestBandTable:
    def test_canonical_bands(self):
        table = {(b.id, b.low_hz, b.high_hz) for b in DEFAULT_BANDS}
        assert table == {
            ("delta", 0.5, 4.0),
            ("theta", 4.0, 8.0),
            ("alpha", 8.0, 12.0),
            ("beta", 13.0, 30.0),
            ("gamma", 30.0, 100.0),
        }

    def test_gamma_cap_at_100hz(self):
        assert effective_high_edge(band_by_id("gamma"), 100.0) == pytest.approx(49.5)

    def test_invalid_band(self):
        with pytest.raises(ValidationError):
            BandDefinition("x", 10.0, 5.0)
        with pytest.raises(ValidationError):
            BandDefinition("x", 0.0, 5.0)


class TestDetrend:
    def test_constant(self):
        assert np.allclose(detrend(np.full(50, 3.7)), 0.0, atol=1e-12)

    def test_exact_line(self):
        t = np.arange(100)
        assert np.allclose(detrend(2.0 + 0.5 * t), 0.0, atol=1e-9)

    def test_hand_example(self):
        # least-squares line through [1, 2, 4] is 0.8333 + 1.5 t
        res = detrend(np.array([1.0, 2.0, 4.0]))
        assert np.allclose(res, [1 / 6, -1 / 3, 1 / 6], atol=1e-9)

    def test_output_moments(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(1000) + 0.01 * np.arange(1000)
        r = detrend(x)
        t = np.arange(1000) - 499.5
        scale = np.abs(x).max()
        assert abs(r.mean()) <= 1e-9 * scale
        assert abs((t @ r) / (t @ t)) <= 1e-9 * scale

    def test_too_short(self):
        with pytest.raises(SizeError):
            detrend(np.array([1.0]))


class TestDesign:
    def test_alpha_at_100(self):
        spec = design_bandpass(band_by_id("alpha"), 100.0, 4)
        assert spec.sos.shape == (2, 6)
        assert spec.high_hz_effective == 12.0
        # single-pass response is about -3 dB at each edge
        from scipy.signal import sosfreqz

        w, h = sosfreqz(spec.sos, worN=[8.0, 12.0], fs=100.0)
        assert np.allclose(np.abs(h), 10 ** (-3.01 / 20), atol=0.01)

    def test_geometric_mean_gain(self):
        from scipy.signal import sosfreqz

        for band in DEFAULT_BANDS:
            spec = design_bandpass(band, 1000.0, 4)
            f0 = np.sqrt(band.low_hz * spec.high_hz_effective)
            w, h = sosfreqz(spec.sos, worN=[f0], fs=1000.0)
            squared = np.abs(h[0]) ** 2  # forward-backward response
            assert 10 ** (-3.01 / 20) <= squared <= 10 ** (0.01 / 20)

    def test_gamma_capped_with_warning(self):
        with pytest.warns(UserWarning, match="capped"):
            spec = design_bandpass(band_by_id("gamma"), 100.0, 4)
        assert spec.high_hz_effective == pytest.approx(49.5)

    def test_band_above_nyquist(self):
        with pytest.raises(DesignError):
            design_bandpass(band_by_id("delta"), 0.8, 4)

    def test_odd_or_extreme_order(self):
        alpha = band_by_id("alpha")
        for order in (3, 1, 10, 0, 4.0, "4", None):
            with pytest.raises(ValidationError):
                design_bandpass(alpha, 100.0, order)
        rec = EegRecording(channels=("A",), fs=100.0, data=np.ones((400, 1)))
        with pytest.raises(ValidationError, match="order must be an integer"):
            decompose_bands(rec, order=4.0)

    def test_numpy_integer_order(self):
        spec = design_bandpass(band_by_id("alpha"), 100.0, np.int64(4))
        assert spec.order == 4 and type(spec.order) is int

    def test_sections_normalized_and_stable(self):
        for band in DEFAULT_BANDS:
            spec = design_bandpass(band, 100.0, 4)
            assert np.allclose(spec.sos[:, 3], 1.0)
            for row in spec.sos:
                assert np.all(np.abs(np.roots(row[3:])) < 1.0)

    def test_impulse_decay(self):
        # stability: |h| < 1e-8 within 10*fs samples for every band
        fs = 100.0
        for band in DEFAULT_BANDS:
            spec = design_bandpass(band, fs, 4)
            imp = np.zeros(int(12 * fs))
            imp[0] = 1.0
            h = sosfilt(spec.sos, imp)
            assert np.abs(h[int(10 * fs) :]).max() < 1e-8, band.id


class TestAgainstScipy:
    @pytest.mark.parametrize("order,fs", ORDERS_AND_RATES)
    def test_design_has_butter_poles_and_gain(self, order, fs):
        specs = feasible_designs(order, fs)
        assert len(specs) == 5
        for spec in specs:
            z, p, k = sps.butter(
                order // 2, [spec.band.low_hz, spec.high_hz_effective],
                btype="bandpass", fs=fs, output="zpk",
            )
            poles = np.concatenate([np.roots(row[3:]) for row in spec.sos])
            assert spec.sos.shape == (order // 2, 6)
            assert np.abs(np.sort_complex(poles) - np.sort_complex(p)).max() <= 1e-12
            assert np.prod(spec.sos[:, 0]) == pytest.approx(k, rel=1e-12)
            zeros = np.concatenate([np.roots(row[:3]) for row in spec.sos])
            assert np.abs(np.sort_complex(zeros) - np.sort_complex(z)).max() <= 1e-12

    @pytest.mark.parametrize("order,fs", ORDERS_AND_RATES)
    def test_zero_phase_matches_sosfilt(self, order, fs):
        rng = np.random.default_rng(order * 1000 + int(fs))
        x = 0.1 * rng.standard_normal(5_000).cumsum() + rng.standard_normal(5_000)
        for spec in feasible_designs(order, fs):
            for n in (5_000, 60):  # 60: shorter than most impulse responses
                want = sosfilt_zero_phase(x[:n], spec)
                got = apply_zero_phase(x[:n], spec)
                assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max(), spec.band.id

    def test_decompose_matches_sosfilt_per_channel(self):
        rng = np.random.default_rng(21)
        data = rng.standard_normal((6_000, 3)).cumsum(axis=0)
        rec = EegRecording(channels=("A", "B", "C"), fs=256.0, data=data)
        deco = decompose_bands(rec)
        for band_id, matrix in deco.bands.items():
            for c in range(3):
                want = sosfilt_zero_phase(detrend(data[:, c]), deco.specs[band_id])
                assert np.abs(matrix[:, c] - want).max() <= 1e-10 * np.abs(want).max()


class TestZeroPhase:
    def setup_method(self):
        self.fs = 100.0
        self.spec = design_bandpass(band_by_id("alpha"), self.fs, 4)

    def test_zero_in_zero_out(self):
        out = apply_zero_phase(np.zeros(500), self.spec)
        assert np.allclose(out, 0.0)

    def test_dc_rejected(self):
        x = np.full(2000, 5.0)
        y = apply_zero_phase(x, self.spec)
        assert np.abs(y[500:1500]).max() <= 1e-6 * 5.0

    def test_passband_gain(self):
        x = tone(10.0, self.fs, 2000)
        y = apply_zero_phase(x, self.spec)
        assert 0.95 <= interior_gain(x, y) <= 1.0

    def test_stopband_double_edge(self):
        x = tone(24.0, self.fs, 2000)  # twice the alpha upper edge
        y = apply_zero_phase(x, self.spec)
        assert interior_gain(x, y) <= 0.05

    def test_zero_lag(self):
        x = tone(10.0, self.fs, 2000)
        y = apply_zero_phase(x, self.spec)
        a = x[500:1500] - x[500:1500].mean()
        b = y[500:1500] - y[500:1500].mean()
        cc = np.correlate(b, a, "full")
        assert np.argmax(cc) - (a.size - 1) == 0

    def test_output_length(self):
        for n in (16, 100, 999):
            assert apply_zero_phase(np.random.default_rng(0).standard_normal(n), self.spec).size == n

    def test_linearity(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(400)
        y = rng.standard_normal(400)
        lhs = apply_zero_phase(1.7 * x - 0.3 * y, self.spec)
        rhs = 1.7 * apply_zero_phase(x, self.spec) - 0.3 * apply_zero_phase(y, self.spec)
        scale = np.abs(rhs).max()
        assert np.abs(lhs - rhs).max() <= 1e-9 * scale

    def test_too_short(self):
        with pytest.raises(SizeError):
            apply_zero_phase(np.zeros(self.spec.padlen), self.spec)

    @pytest.mark.parametrize("a", [[1.0, -1.2, 0.5], [1.0, 0.0, 0.0]])
    def test_repeated_or_zero_poles_rejected(self, a):
        # partial fractions need distinct, nonzero poles
        sos = np.array([[1.0, 0.0, -1.0, *a]] * 2)
        spec = FilterSpec(self.spec.band, 4, self.fs, sos, self.spec.high_hz_effective)
        with pytest.raises(DesignError, match="distinct, nonzero poles"):
            apply_zero_phase(np.ones(100), spec)


class TestDecompose:
    def make_rec(self, T=4000, C=2, fs=100.0, seed=0):
        rng = np.random.default_rng(seed)
        return EegRecording(
            channels=tuple(f"C{i}" for i in range(C)),
            fs=fs,
            data=rng.standard_normal((T, C)),
        )

    def test_all_bands_at_100(self):
        with pytest.warns(UserWarning, match="capped"):
            deco = decompose_bands(self.make_rec())
        assert set(deco.bands) == {"delta", "theta", "alpha", "beta", "gamma"}
        assert deco.omitted == ()
        assert deco.specs["gamma"].high_hz_effective == pytest.approx(49.5)
        for m in deco.bands.values():
            assert m.shape == (4000, 2)

    def test_all_bands_nominal_at_1000(self):
        deco = decompose_bands(self.make_rec(fs=1000.0))
        assert deco.specs["gamma"].high_hz_effective == 100.0

    def test_zero_recording(self):
        rec = EegRecording(channels=("A",), fs=1000.0, data=np.zeros((2000, 1)))
        deco = decompose_bands(rec)
        for m in deco.bands.values():
            assert np.allclose(m, 0.0)

    def test_low_fs_omits_bands(self):
        # at fs = 9 only delta and theta have low edges under 0.99*4.5
        with pytest.warns(UserWarning, match="omitted"):
            deco = decompose_bands(self.make_rec(fs=9.0))
        assert "delta" in deco.bands
        assert "gamma" in deco.omitted and "beta" in deco.omitted

    def test_no_feasible_band(self):
        rec = EegRecording(channels=("A",), fs=0.8, data=np.zeros((2000, 1)))
        with pytest.raises(DesignError, match="no band"):
            decompose_bands(rec)

    def test_detrends_before_filtering(self):
        # a pure trend contributes nothing to any band
        t = np.arange(4000, dtype=float)
        rec = EegRecording(channels=("A",), fs=100.0, data=(3.0 + 0.5 * t)[:, None])
        with pytest.warns(UserWarning):
            deco = decompose_bands(rec)
        for m in deco.bands.values():
            assert np.abs(m).max() < 1e-6 * t.max()

    def test_bytes_independent_of_blas_threads(self):
        # a threaded BLAS sums a dot product in another order than a serial
        # one; on this recording that used to move the last bits of most
        # band values
        code = (
            "import hashlib, warnings, numpy as np, eegx\n"
            "x = np.cumsum(np.random.default_rng(0).standard_normal((12_000, 2)), axis=0)\n"
            "rec = eegx.EegRecording(channels=('a', 'b'), fs=100.0, data=x)\n"
            "warnings.simplefilter('ignore')\n"
            "bands = eegx.decompose_bands(rec).bands.values()\n"
            "print(hashlib.sha256(b''.join(m.tobytes() for m in bands)).hexdigest())\n"
        )
        src = Path(eegx.__file__).resolve().parents[1]
        digests = set()
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads,
                   "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
            done = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            digests.add(done.stdout)
        assert len(digests) == 1
