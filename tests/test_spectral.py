import numpy as np
import pytest

from eegx import (
    BandDefinition,
    DomainError,
    SizeError,
    ValidationError,
    band_power,
    design_bandpass,
    periodogram,
    welch,
)
from eegx.preprocess import band_by_id


def tone(freq, fs, n):
    return np.sin(2 * np.pi * freq * np.arange(n) / fs)


class TestPeriodogram:
    def test_single_bin_tone(self):
        fs, n = 100.0, 1000
        est = periodogram(tone(10.0, fs, n), fs)
        k = np.argmin(np.abs(est.freqs_hz - 10.0))
        assert est.freqs_hz[k] == pytest.approx(10.0)
        assert est.power[k] / est.power.sum() >= 0.99

    def test_zero_signal(self):
        est = periodogram(np.zeros(256), 10.0)
        assert np.all(est.power == 0)

    def test_parseval(self):
        # density scaling: sum(power) * fs/n == centered sample variance
        rng = np.random.default_rng(17)
        for fs in (1.0, 100.0, 250.0):
            for n in (512, 513, 4999):
                x = rng.standard_normal(n)
                est = periodogram(x, fs)
                lhs = est.power.sum() * fs / n
                rhs = ((x - x.mean()) ** 2).mean()
                assert abs(lhs - rhs) <= 1e-8 * rhs

    def test_grid(self):
        est = periodogram(np.ones(10) + np.arange(10.0), 100.0)
        assert est.freqs_hz[0] == 0.0
        assert est.freqs_hz[-1] == pytest.approx(50.0)
        assert np.all(np.diff(est.freqs_hz) > 0)
        assert np.all(est.power >= 0)

    def test_too_short(self):
        with pytest.raises(SizeError):
            periodogram(np.array([1.0]), 1.0)


class TestWelch:
    def test_degenerate_equals_periodogram(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(1024)
        w = welch(x, 10.0, seg_len=1024, overlap=0.0)
        p = periodogram(x, 10.0)
        assert np.array_equal(w.power, p.power)
        assert np.array_equal(w.freqs_hz, p.freqs_hz)

    def test_variance_reduction(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(8192)
        p = periodogram(x, 1.0)
        w = welch(x, 1.0, seg_len=1024, overlap=0.5)
        spread_p = p.power[1:].std() / p.power[1:].mean()
        spread_w = w.power[1:].std() / w.power[1:].mean()
        assert spread_w < spread_p

    def test_white_noise_level(self):
        # flat expected spectrum at the two-sided density 2*var/fs
        rng = np.random.default_rng(7)
        fs = 100.0
        x = rng.standard_normal(100_000) * 3.0
        w = welch(x, fs, seg_len=2048, overlap=0.5)
        level = 2 * 9.0 / fs
        assert np.mean(w.power[1:-1]) == pytest.approx(level, rel=0.05)

    def test_zero_signal(self):
        w = welch(np.zeros(1000), 10.0, seg_len=100)
        assert np.all(w.power == 0)

    def test_seg_len_too_long(self):
        with pytest.raises(SizeError):
            welch(np.zeros(100), 1.0, seg_len=101)

    @pytest.mark.parametrize("seg_len", [100.7, 100.0, "100", None])
    def test_non_integer_seg_len(self, seg_len):
        from eegx import UsageError

        with pytest.raises(UsageError, match="seg_len must be an integer"):
            welch(np.zeros(1000), 10.0, seg_len=seg_len)

    def test_numpy_integer_seg_len(self):
        w = welch(np.zeros(1000), 10.0, seg_len=np.int64(100))
        assert w.power.shape == (51,)

    def test_bad_overlap(self):
        from eegx import UsageError

        with pytest.raises(UsageError):
            welch(np.zeros(100), 1.0, seg_len=50, overlap=0.95)

    def test_two_sample_taper_rejected(self):
        from eegx import UsageError

        # np.hanning(2) is all zeros: no taper energy to normalize by
        with pytest.raises(UsageError, match="zero energy"):
            welch(np.arange(10.0), 1.0, seg_len=2)
        assert welch(np.arange(2.0), 1.0, seg_len=2).power.shape == (2,)


class TestBandPower:
    def test_tone_in_band(self):
        est = periodogram(tone(10.0, 100.0, 2000), 100.0)
        assert band_power(est, band_by_id("alpha")) >= 0.99
        assert band_power(est, band_by_id("beta")) <= 0.01

    def test_white_noise_alpha_share(self):
        rng = np.random.default_rng(8)
        est = periodogram(rng.standard_normal(200_000), 100.0)
        assert band_power(est, band_by_id("alpha")) == pytest.approx(0.081, abs=0.02)

    def test_no_overlap(self):
        est = periodogram(np.arange(100.0), 100.0)
        with pytest.raises(DomainError):
            band_power(est, BandDefinition("hf", 60.0, 80.0))

    def test_tiling_bands_sum_to_one(self):
        rng = np.random.default_rng(9)
        est = periodogram(rng.standard_normal(10_000), 100.0)
        f1 = est.freqs_hz[1]
        tiles = [
            BandDefinition("a", f1, 10.0),
            BandDefinition("b", 10.0, 25.0),
            BandDefinition("c", 25.0, 50.0),
        ]
        total = sum(band_power(est, b) for b in tiles)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_default_bands_sum_below_one(self):
        rng = np.random.default_rng(10)
        est = periodogram(rng.standard_normal(10_000), 100.0)
        from eegx import DEFAULT_BANDS

        total = sum(band_power(est, b) for b in DEFAULT_BANDS)
        assert total <= 1.0

    def test_zero_spectrum(self):
        est = periodogram(np.zeros(100), 100.0)
        assert band_power(est, band_by_id("alpha")) == 0.0


@pytest.mark.parametrize("fs", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "call",
    [
        lambda fs: design_bandpass(band_by_id("alpha"), fs),
        lambda fs: periodogram(np.ones(64), fs),
        lambda fs: welch(np.ones(64), fs, seg_len=32),
    ],
    ids=["design_bandpass", "periodogram", "welch"],
)
def test_non_finite_fs_rejected(call, fs):
    with pytest.raises(ValidationError, match=r"sampling rate must lie in \(0, inf\)"):
        call(fs)
