"""Conditional extremes modeling (Heffernan-Tawn) on Laplace margins.

Each channel is first mapped to standard Laplace scale through a
semiparametric probability transform: the empirical CDF below a high
threshold spliced with a fitted GPD tail above it. Given the
conditioning channel exceeds a high Laplace level y, a dependent
channel is modeled as

    Y_dep = alpha * y + y**beta * Z,      alpha in [-1, 1], beta < 1,

with Z treated as Normal(mu, s^2) for fitting purposes only (a pseudo
likelihood); the empirical residuals z_i = (y_dep_i - alpha*y_i) /
y_i**beta are kept and resampled for simulation, preserving their
cross-channel dependence by drawing the same time index for every
dependent channel.

Laplace margins make negative dependence representable: a perfectly
anti-correlated pair fits alpha = -1.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DataError,
    DomainError,
    FitError,
    SizeError,
    UsageError,
    ValidationError,
    check_floats,
    check_int,
    check_real,
)
from .evt_univariate import THRESHOLD_QUANTILES, XI_ZERO_TOL, GpdFit, _grid_brent, fit_gpd
from .extremal_dep import _tail_windows
from .signal_io import EegRecording

S_FLOOR = 1e-8  # lower bound on the residual spread in the pseudo-likelihood
BETA_MAX = 1.0 - 1e-6
BETA_MIN = -3.0
_N_BETA_GRID = 41  # coarse beta grid ahead of the Brent refinement
#: Allowed conditioning quantiles, as :func:`eegx.errors.check_real` takes them.
COND_QUANTILES = "[0.9, 0.999]"


def laplace_quantile(p):
    """Quantile of the standard Laplace distribution.

    log(2p) for p < 1/2 and -log(2(1-p)) otherwise, for p in (0, 1).
    """
    p = check_floats(p, "probabilities")
    if not np.all((p > 0.0) & (p < 1.0)):  # NaN fails too
        raise DomainError("Laplace quantile needs probabilities in (0, 1)")
    out = np.where(p < 0.5, np.log(2.0 * p), -np.log(2.0 * (1.0 - p)))
    return float(out) if out.ndim == 0 else out


def laplace_cdf(y):
    """CDF of the standard Laplace distribution; NaN is outside its domain."""
    y = check_floats(y, "Laplace CDF argument")
    if np.isnan(y).any():
        raise DomainError("Laplace CDF is undefined at NaN")
    out = np.where(y < 0.0, 0.5 * np.exp(y), 1.0 - 0.5 * np.exp(-y))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class MarginalTransform:
    """Semiparametric CDF of one channel: empirical body, GPD upper tail.

    ``zeta_u`` is chosen so the two branches meet exactly at the
    threshold: it equals one minus the interpolated empirical CDF there.
    """

    channel: str
    sorted_sample: np.ndarray
    u: float
    gpd: GpdFit
    zeta_u: float

    @property
    def n(self) -> int:
        return self.sorted_sample.size

    def __post_init__(self):
        xs = check_floats(self.sorted_sample, "sorted_sample", ndim=1, finite=True)
        if xs.size < 2:
            raise ValidationError("marginal transform needs a sample of n >= 2")
        if np.any(np.diff(xs) < 0):
            raise ValidationError("sorted_sample must be nondecreasing")
        check_real(self.u, "u")
        check_real(self.zeta_u, "zeta_u", "(0, 1)")
        object.__setattr__(self, "sorted_sample", xs)


def _ecdf_interp(xs: np.ndarray, x) -> np.ndarray:
    """Interpolated empirical CDF: x_(i) -> i/(n+1), linear in between.

    ``np.interp`` is elementwise, so the queries are evaluated in sorted
    order and scattered back: consecutive queries then land on
    neighbouring knots, where interp's guessed search hits and memory
    access stays local, instead of one cold binary search per sample of
    an unsorted epoch. Every value, NaN and repeated knots included, is
    the float the unsorted call returns; the result has the shape of
    ``x``.
    """
    n = xs.size
    p_at = np.arange(1, n + 1) / (n + 1.0)
    x = np.asarray(x, dtype=float)
    order = np.argsort(x, axis=None)
    out = np.empty(x.size)
    out[order] = np.interp(x.ravel()[order], xs, p_at, left=p_at[0], right=p_at[-1])
    return out.reshape(x.shape)


def fit_marginal(
    x: np.ndarray,
    threshold_quantile: float = 0.95,
    channel: str = "",
) -> MarginalTransform:
    """Fit the semiparametric transform of one channel.

    The threshold is the empirical ``threshold_quantile`` (type-7) and
    the GPD is fitted to all excesses above it (no declustering: the
    transform must preserve the sample's probability calibration).
    """
    x = check_floats(x, "marginal sample", finite=True)
    n = x.size
    if n < 20:
        raise SizeError(f"marginal transform needs >= 20 observations, got {n}")
    q = check_real(threshold_quantile, "threshold quantile", THRESHOLD_QUANTILES)
    xs = np.sort(x, axis=None)
    # np.quantile's type-7 lerp between the order statistics at (n - 1) q,
    # read off the sorted copy instead of a partitioned one: the same float
    h = (n - 1) * q
    i = math.floor(h)
    t = h - i
    lo, hi = xs[i], xs[i + 1]
    u = float(hi - (hi - lo) * (1 - t) if t >= 0.5 else lo + (hi - lo) * t)
    excesses = x[x > u] - u  # in time order, which the GPD fit's sums follow
    if excesses.size < 10:
        raise SizeError(
            f"only {excesses.size} excesses above the {threshold_quantile:g} "
            "quantile; need >= 10"
        )
    # _ecdf_interp at u, from the knots on either side of it
    j = np.searchsorted(xs, u, "right") - 1
    knots = np.array([j + 1, j + 2]) / (n + 1.0)
    zeta = 1.0 - float(np.interp(u, xs[j:j + 2], knots[: xs[j:j + 2].size]))
    gpd = fit_gpd(excesses, threshold_u=u, zeta_u=zeta)
    return MarginalTransform(
        channel=channel, sorted_sample=xs, u=u, gpd=gpd, zeta_u=zeta
    )


def _probability(mt: MarginalTransform, x: np.ndarray) -> np.ndarray:
    """Semiparametric CDF values, clamped to [1/(2n), 1 - 1/(2n)]."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    p = _ecdf_interp(mt.sorted_sample, x)
    above = x > mt.u
    if np.any(above):
        sigma, xi = mt.gpd.sigma, mt.gpd.xi
        w = (x[above] - mt.u) / sigma
        if abs(xi) < XI_ZERO_TOL:
            surv = np.exp(-w)
        else:
            arg = 1.0 + xi * w
            if xi < 0 and np.any(arg <= 0):
                warnings.warn(
                    f"values above the fitted upper endpoint for channel "
                    f"{mt.channel!r}; clamped",
                    stacklevel=3,
                )
                arg = np.maximum(arg, 0.0)
            surv = arg ** (-1.0 / xi)
        p[above] = 1.0 - mt.zeta_u * surv
    lo = 1.0 / (2.0 * mt.n)
    return np.clip(p, lo, 1.0 - lo)


def to_laplace(x, mt: MarginalTransform):
    """Map data-scale values to standard Laplace scale; NaN has no image."""
    x = check_floats(x, "to_laplace input")
    if np.isnan(x).any():
        raise DataError("to_laplace input contains NaN")
    scalar = x.ndim == 0
    out = laplace_quantile(_probability(mt, x))
    return float(out[0]) if scalar else out


def from_laplace(y, mt: MarginalTransform):
    """Inverse of :func:`to_laplace` (up to rank resolution in the body)."""
    y = check_floats(y, "from_laplace input")
    scalar = y.ndim == 0
    p = laplace_cdf(np.atleast_1d(y))
    lo = 1.0 / (2.0 * mt.n)
    p = np.clip(p, lo, 1.0 - lo)
    out = np.empty_like(p)
    body = p <= 1.0 - mt.zeta_u
    if np.any(body):
        n = mt.n
        p_at = np.arange(1, n + 1) / (n + 1.0)
        out[body] = np.interp(p[body], p_at, mt.sorted_sample)
    tail = ~body
    if np.any(tail):
        sigma, xi = mt.gpd.sigma, mt.gpd.xi
        ratio = (1.0 - p[tail]) / mt.zeta_u
        if abs(xi) < XI_ZERO_TOL:
            out[tail] = mt.u - sigma * np.log(ratio)
        else:
            out[tail] = mt.u + sigma / xi * (ratio ** (-xi) - 1.0)
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class HtFit:
    """Fitted conditional-extremes parameters for one ordered pair."""

    cond_channel: str
    dep_channel: str
    alpha: float
    beta: float
    mu: float
    s: float
    residuals_z: np.ndarray
    cond_threshold_laplace: float
    n_exceed: int
    nll: float
    exceed_indices: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        check_real(self.alpha, "alpha", "[-1, 1]")
        check_real(self.beta, "beta", f"[{BETA_MIN}, 1)")
        check_real(self.mu, "mu")
        check_real(self.s, "s", "(0, inf)")
        check_real(self.cond_threshold_laplace, "cond_threshold_laplace")
        check_real(self.nll, "nll")
        z = check_floats(self.residuals_z, "residuals_z", finite=True)
        if z.size != check_int(self.n_exceed, "n_exceed", 0):
            raise ValidationError("residual count must equal n_exceed")
        object.__setattr__(self, "residuals_z", z)


def _profile_beta(y: np.ndarray, y_dep: np.ndarray):
    """Pseudo-NLL with (alpha, mu, s) profiled out, as a function of beta,
    with the per-fit constants taken once.

    The residual r = a - alpha*b, a = y_dep/y^beta, b = y^(1-beta), has
    variance quadratic in alpha, minimized on [-1, 1] by clipping
    cov(a, b)/var(b); mu and s are its mean and spread. Returns a function
    of beta giving (nll, alpha, mu, s). One set of expressions serves
    both shapes: a block of grid points gives arrays over beta, a float
    beta gives numpy floats, the same floats its grid row would hold. The
    means are written as ``np.add.reduce(...) / n``, which is what
    ``ndarray.mean`` computes, and the clip as
    ``np.minimum(np.maximum(...))``, which is what ``np.clip`` computes
    (NaN and -0.0 included), without their per-call overhead. Each
    (beta x n) step writes into an array that no later step reads, so a
    call makes four such arrays, not eleven.
    """
    n = y.size
    logy = np.log(y)
    sum_logy = logy.sum()
    nll_const = 0.5 * n * (1.0 + np.log(2.0 * np.pi))

    def profile(beta):
        b = np.multiply.outer(beta, logy)
        np.exp(b, out=b)
        a = y_dep / b
        np.divide(y, b, out=b)
        da = a - (np.add.reduce(a, axis=-1) / n)[..., None]
        db = b - (np.add.reduce(b, axis=-1) / n)[..., None]
        cov = np.add.reduce(np.multiply(da, db, out=da), axis=-1) / n
        var = np.add.reduce(np.square(db, out=db), axis=-1) / n
        alpha = np.minimum(np.maximum(cov / var, -1.0), 1.0)
        r = np.subtract(a, np.multiply(alpha[..., None], b, out=b), out=a)
        mu = np.add.reduce(r, axis=-1) / n
        r -= mu[..., None]
        s = np.maximum(np.sqrt(np.add.reduce(np.square(r, out=r), axis=-1) / n), S_FLOOR)
        return n * np.log(s) + beta * sum_logy + nll_const, alpha, mu, s

    return profile


def fit_ht(
    y_cond: np.ndarray,
    y_dep: np.ndarray,
    cond_quantile: float = 0.95,
    cond_channel: str = "cond",
    dep_channel: str = "dep",
) -> HtFit:
    """Fit the conditional model of ``y_dep`` given ``y_cond`` extreme.

    Both series must already be on Laplace scale. Pairs where the
    conditioning series exceeds its Laplace ``cond_quantile`` enter a
    Gaussian pseudo-likelihood in (alpha, beta, mu, s). For fixed beta,
    (alpha, mu, s) have closed forms (see :func:`_profile_beta`), so
    beta is found by a grid over [``BETA_MIN``, ``BETA_MAX``] and a
    bounded Brent search around its best cell. Deterministic: no
    randomness is involved. Conditioning exceedances that are all equal
    identify neither alpha nor beta and raise ``FitError``.
    """
    yc = check_floats(y_cond, "conditioning series", finite=True).ravel()
    yd = check_floats(y_dep, "dependent series", finite=True).ravel()
    if yc.shape != yd.shape:
        raise ValidationError("conditioning and dependent series must align")
    check_real(cond_quantile, "conditioning quantile", COND_QUANTILES)
    t_q = laplace_quantile(cond_quantile)
    keep = yc > t_q
    n_exc = int(np.count_nonzero(keep))
    if n_exc < 30:
        raise SizeError(
            f"only {n_exc} conditioning exceedances above the "
            f"{cond_quantile:g} Laplace quantile; need >= 30"
        )
    y = yc[keep]
    yd_exc = yd[keep]
    failed = (
        f"conditional-extremes fit failed for ({cond_channel}, {dep_channel}): "
        "no finite pseudo-likelihood value"
    )
    if y.min() == y.max():  # var(b) is 0 at every beta, up to rounding
        raise FitError(f"{failed}: all {n_exc} conditioning exceedances equal {y[0]:g}")

    profile = _profile_beta(y, yd_exc)
    beta_hat, nll = _grid_brent(
        lambda b: profile(b)[0],
        np.linspace(BETA_MIN, BETA_MAX, _N_BETA_GRID),
        y.size,
    )
    if not np.isfinite(nll):
        raise FitError(failed)
    if beta_hat <= BETA_MIN + 1e-6:
        warnings.warn(
            f"beta estimate on the lower bound {BETA_MIN} for "
            f"({cond_channel}, {dep_channel})",
            stacklevel=2,
        )
    nll, alpha_hat, mu_hat, s_hat = (float(v) for v in profile(beta_hat))
    z = (yd_exc - alpha_hat * y) / y**beta_hat
    return HtFit(
        cond_channel=cond_channel,
        dep_channel=dep_channel,
        alpha=alpha_hat,
        beta=beta_hat,
        mu=mu_hat,
        s=s_hat,
        residuals_z=z,
        cond_threshold_laplace=float(t_q),
        n_exceed=n_exc,
        nll=nll,
        exceed_indices=np.flatnonzero(keep),
    )


def conditional_model(
    rec: EegRecording,
    cond_channel: str,
    cond_quantile: float = 0.95,
    marginal_quantile: float = 0.95,
) -> tuple[dict[str, HtFit], dict[str, MarginalTransform]]:
    """Fit marginal transforms and all pairwise conditional models.

    Returns one :class:`HtFit` per dependent channel (keyed by label)
    plus the per-channel transforms, all sharing the same conditioning
    exceedance set so residuals stay aligned across channels.

    A fit reads only the rows where the conditioner exceeds its level.
    :func:`to_laplace` is nondecreasing over a sample's own values, so
    those rows hold the top of the conditioner's sorted sample: it is
    transformed from the top down, in the windows the chi kernel scores
    (``extremal_dep._tail_windows``), until a window's lowest value maps
    to the level or below, and each row at or above that value reads its
    Laplace value off the window. Each window is widened to hold the
    tie group at its bottom whole, and the next lower value, before it
    is transformed, so a group that maps over the level needs no wider
    window: one follows only when that lower value maps over it too.
    Each dependent channel is transformed at the exceedance rows alone.
    ``to_laplace`` is elementwise, so every fit is the one the full
    series gives, with ``exceed_indices`` mapped back to epoch rows.
    """
    if rec.n_channels < 2:
        raise ValidationError("need at least 2 channels for a conditional model")
    rec.index_of(cond_channel)  # an unknown channel is a ChannelLookupError
    transforms = {
        name: fit_marginal(rec.channel(name), marginal_quantile, channel=name)
        for name in rec.channels
    }
    # fit_ht's check, made before laplace_quantile reads the level
    check_real(cond_quantile, "conditioning quantile", COND_QUANTILES)
    level = laplace_quantile(cond_quantile)
    mt = transforms[cond_channel]
    xs, n = mt.sorted_sample, mt.n
    bottom, y_top = n, np.empty(0)  # y_top: the transform of xs[bottom:]
    for window in _tail_windows(n, cond_quantile):
        # the tie group at the window's bottom whole, and the next lower value
        lower = max(int(np.searchsorted(xs, xs[n - window])) - 1, 0)
        if lower < bottom:
            y_top = np.concatenate([to_laplace(xs[lower:bottom], mt), y_top])
            bottom = lower
            if y_top[0] <= level:
                break
    x = rec.channel(cond_channel)
    rows = np.flatnonzero(x >= xs[bottom])
    y_cond = y_top[np.searchsorted(xs[bottom:], x[rows])]  # a tie group's one value
    keep = y_cond > level
    rows, y_cond = rows[keep], y_cond[keep]

    fits: dict[str, HtFit] = {}
    for name in rec.channels:
        if name == cond_channel:
            continue
        fit = fit_ht(
            y_cond,
            to_laplace(rec.channel(name)[rows], transforms[name]),
            cond_quantile,
            cond_channel=cond_channel,
            dep_channel=name,
        )
        fits[name] = replace(fit, exceed_indices=rows)
    return fits, transforms


@dataclass(frozen=True)
class ConditionalSample:
    """Joint draws of dependent channels given an extreme conditioner."""

    cond_channel: str
    dep_channels: tuple[str, ...]
    cond_level_laplace: float
    cond_draws: np.ndarray
    draws: np.ndarray
    cond_back_transformed: np.ndarray | None = None
    back_transformed: np.ndarray | None = None

    def __post_init__(self):
        cond_draws = check_floats(self.cond_draws, "cond_draws", ndim=1, finite=True)
        draws = check_floats(self.draws, "draws", ndim=2, finite=True)
        if draws.shape != (cond_draws.size, len(self.dep_channels)):
            raise ValidationError("draw matrix shape must be (n_sim, n_dep)")
        if np.any(cond_draws <= check_real(self.cond_level_laplace, "conditioning level")):
            raise ValidationError("every conditioning draw must exceed the level")
        object.__setattr__(self, "cond_draws", cond_draws)
        object.__setattr__(self, "draws", draws)


def simulate_conditional(
    fits: list[HtFit] | tuple[HtFit, ...],
    level_q: float,
    n_sim: int,
    seed: int = 0,
    cond_transform: MarginalTransform | None = None,
    dep_transforms: dict[str, MarginalTransform] | None = None,
) -> ConditionalSample:
    """Simulate dependent channels given the conditioner exceeds a level.

    Conditioning values are drawn from the Laplace tail (threshold plus
    a standard exponential). For each draw one residual time index is
    shared across all dependent channels, keeping their joint extremal
    structure. When transforms are supplied the draws are also mapped
    back to data scale.
    """
    fits = list(fits)
    if not fits:
        raise UsageError("need at least one fitted pair to simulate")
    cond = fits[0].cond_channel
    n_exc = fits[0].n_exceed
    for f in fits:
        if f.cond_channel != cond:
            raise UsageError("all fits must share the conditioning channel")
        if f.n_exceed != n_exc or f.residuals_z.size != n_exc:
            raise UsageError("all fits must share the conditioning exceedance set")
        if f.exceed_indices is not None and fits[0].exceed_indices is not None:
            if not np.array_equal(f.exceed_indices, fits[0].exceed_indices):
                raise UsageError("fits were made on different exceedance sets")
    if n_exc == 0:
        raise UsageError("empty residual set")
    check_real(level_q, "level", "(0, 1)")
    t_level = laplace_quantile(level_q)
    if t_level < fits[0].cond_threshold_laplace - 1e-12:
        raise UsageError(
            f"simulation level {level_q:g} lies below the fitting threshold"
        )
    n_sim = check_int(n_sim, "n_sim", 1)
    seed = check_int(seed, "seed", 0)

    rng = np.random.default_rng(seed)
    y = t_level + rng.standard_exponential(n_sim)
    rows = rng.integers(0, n_exc, size=n_sim)
    z = np.column_stack([f.residuals_z[rows] for f in fits])
    alphas = np.array([f.alpha for f in fits])
    betas = np.array([f.beta for f in fits])
    draws = alphas[None, :] * y[:, None] + y[:, None] ** betas[None, :] * z

    back = None
    cond_back = None
    if dep_transforms is not None:
        cols = []
        for k, f in enumerate(fits):
            if f.dep_channel not in dep_transforms:
                raise UsageError(f"missing marginal transform for {f.dep_channel!r}")
            cols.append(from_laplace(draws[:, k], dep_transforms[f.dep_channel]))
        back = np.column_stack(cols)
    if cond_transform is not None:
        cond_back = from_laplace(y, cond_transform)

    return ConditionalSample(
        cond_channel=cond,
        dep_channels=tuple(f.dep_channel for f in fits),
        cond_level_laplace=float(t_level),
        cond_draws=y,
        draws=draws,
        cond_back_transformed=cond_back,
        back_transformed=back,
    )


def conditional_summary(sample: ConditionalSample) -> list[dict]:
    """Per-channel location summaries of a conditional simulation.

    One row per (dependent channel, scale) with mean, median, and the
    5%/95% quantiles; the data-scale rows appear only when the sample
    was back-transformed.
    """
    if sample.cond_draws.size == 0:
        raise UsageError("cannot summarize an empty sample")
    rows: list[dict] = []

    def _describe(name, scale, values):
        rows.append(
            {
                "channel": name,
                "scale": scale,
                "mean": float(np.mean(values)),
                "median": float(np.median(values)),
                "q05": float(np.quantile(values, 0.05)),
                "q95": float(np.quantile(values, 0.95)),
            }
        )

    for k, name in enumerate(sample.dep_channels):
        _describe(name, "laplace", sample.draws[:, k])
    if sample.back_transformed is not None:
        for k, name in enumerate(sample.dep_channels):
            _describe(name, "data", sample.back_transformed[:, k])
    return rows
