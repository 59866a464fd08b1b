"""Seeded synthetic-data generators used as estimator oracles.

All randomness flows through numpy's PCG64 generator
(``np.random.default_rng(seed)``); per-channel streams are derived with
``np.random.SeedSequence(seed).spawn``, so outputs are bit-reproducible
for a given spec regardless of how generation is parallelized.

scipy is imported inside the two generators that use it, so importing
eegx does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError, ValidationError, check_int
from .signal_io import EegRecording

#: AR(2) coefficients for the pre-onset background: a gently resonant,
#: low-frequency-peaked spectrum similar to resting EEG.
AR_COEFFS = (1.3, -0.4)
AR_BURN_IN = 500
FACTOR_DF = 3  # Student-t degrees of freedom of the shared seizure factor
REF_LOADING = 3.0  # factor loading of the reference channel (index 0)
OTHER_LOADING = 1.5  # factor loading of every other channel

#: 10-20 style default channel names; index 0 is the reference.
DEFAULT_CHANNEL_NAMES = (
    "T3", "Fp1", "Fp2", "F3", "F4", "C3", "C4", "P3", "P4", "O1",
    "O2", "F7", "F8", "T4", "T5", "T6", "Fz", "Cz", "Pz",
)

SIM_KINDS = (
    "gpd",
    "exponential",
    "gaussian_copula_pair",
    "comonotone_pair",
    "independent_pair",
    "synthetic_eeg",
)


@dataclass(frozen=True)
class SimSpec:
    """A fully reproducible generator request: kind, parameters, seed."""

    kind: str
    seed: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in SIM_KINDS:
            raise ValidationError(f"unknown simulation kind {self.kind!r}; known: {SIM_KINDS}")


def gen_gpd(n: int, sigma: float, xi: float, seed: int) -> np.ndarray:
    """Inverse-CDF draws from a GPD: y = sigma * (U**-xi - 1) / xi.

    xi = 0 degenerates to the exponential: y = -sigma * log(U).
    """
    if sigma <= 0:
        raise UsageError(f"sigma must be positive, got {sigma}")
    if n < 0:
        raise UsageError(f"n must be nonnegative, got {n}")
    rng = np.random.default_rng(check_int(seed, "seed", 0))
    u = rng.random(n)
    u = np.where(u == 0.0, 0.5 / 2**53, u)  # keep U in (0, 1)
    if xi == 0.0:
        return -sigma * np.log(u)
    return sigma * (u**-xi - 1.0) / xi


def gen_exponential(n: int, sigma: float, seed: int) -> np.ndarray:
    """Exponential(sigma) draws; the xi = 0 edge of :func:`gen_gpd`."""
    return gen_gpd(n, sigma, 0.0, seed)


def gen_gaussian_copula_pair(n: int, rho: float, seed: int):
    """Uniform pair with Gaussian-copula dependence of correlation rho."""
    if not -1.0 < rho < 1.0:
        raise UsageError(f"rho must lie in (-1, 1), got {rho}")
    from scipy.special import ndtr

    rng = np.random.default_rng(check_int(seed, "seed", 0))
    z1 = rng.standard_normal(n)
    z2 = rho * z1 + np.sqrt(1.0 - rho**2) * rng.standard_normal(n)
    return ndtr(z1), ndtr(z2)


def gen_comonotone_pair(n: int, seed: int):
    """Perfectly dependent uniform pair (both margins identical)."""
    u = np.random.default_rng(check_int(seed, "seed", 0)).random(n)
    return u, u.copy()


def gen_independent_pair(n: int, seed: int):
    """Independent uniform pair."""
    rng = np.random.default_rng(check_int(seed, "seed", 0))
    return rng.random(n), rng.random(n)


def _ar2_noise(n: int, rng: np.random.Generator) -> np.ndarray:
    """Stationary AR(2) Gaussian noise, burn-in discarded."""
    from scipy.signal import lfilter

    eps = rng.standard_normal(n + AR_BURN_IN)
    a = [1.0, -AR_COEFFS[0], -AR_COEFFS[1]]
    return lfilter([1.0], a, eps)[AR_BURN_IN:]


def gen_synthetic_eeg(channels: int, T: int, onset_fraction: float, seed: int) -> EegRecording:
    """Seizure-like multichannel recording for end-to-end pipeline tests.

    Pre-onset each channel is independent AR(2) Gaussian noise (light
    tails, no cross-channel dependence). From the onset sample a shared
    heavy-tailed common factor (Student-t, 3 df) is added to every
    channel, with the largest loading on channel 0 (the reference), so
    the post epoch has heavier marginal tails and strong cross-channel
    extremal dependence.

    Channels take the ``DEFAULT_CHANNEL_NAMES`` in order, then X0, X1, ...
    The nominal sampling rate is 100 Hz.
    """
    if channels < 2:
        raise UsageError(f"need at least 2 channels, got {channels}")
    if T < 1000:
        raise UsageError(f"need at least 1000 samples, got {T}")
    onset = int(round(T * onset_fraction))
    if not 2 <= onset <= T - 2:
        raise UsageError(
            f"onset fraction {onset_fraction} puts the onset at sample {onset}, "
            f"outside [2, {T - 2}]"
        )
    extra = tuple(f"X{i}" for i in range(channels - len(DEFAULT_CHANNEL_NAMES)))

    seq = np.random.SeedSequence(check_int(seed, "seed", 0))
    child_seqs = seq.spawn(channels + 1)  # one per channel, one for the factor
    data = np.empty((T, channels))
    for c in range(channels):
        data[:, c] = _ar2_noise(T, np.random.default_rng(child_seqs[c]))

    factor_rng = np.random.default_rng(child_seqs[-1])
    factor = factor_rng.standard_t(FACTOR_DF, size=T - onset)
    loadings = np.full(channels, OTHER_LOADING)
    loadings[0] = REF_LOADING
    data[onset:] += factor[:, None] * loadings[None, :]

    return EegRecording(
        channels=(DEFAULT_CHANNEL_NAMES + extra)[:channels],
        fs=100.0,
        data=data,
        onset_index=onset,
    )


def generate(spec: SimSpec):
    """Dispatch a :class:`SimSpec` to its generator."""
    p = dict(spec.params)
    try:
        if spec.kind == "gpd":
            return gen_gpd(int(p["n"]), float(p["sigma"]), float(p["xi"]), spec.seed)
        if spec.kind == "exponential":
            return gen_exponential(int(p["n"]), float(p["sigma"]), spec.seed)
        if spec.kind == "gaussian_copula_pair":
            return gen_gaussian_copula_pair(int(p["n"]), float(p["rho"]), spec.seed)
        if spec.kind == "comonotone_pair":
            return gen_comonotone_pair(int(p["n"]), spec.seed)
        if spec.kind == "independent_pair":
            return gen_independent_pair(int(p["n"]), spec.seed)
        if spec.kind == "synthetic_eeg":
            return gen_synthetic_eeg(
                int(p["channels"]),
                int(p["T"]),
                float(p["onset_fraction"]),
                spec.seed,
            )
    except KeyError as exc:
        raise UsageError(f"missing parameter {exc} for kind {spec.kind!r}") from exc
    raise ValidationError(f"unknown simulation kind {spec.kind!r}")
