"""Peaks-over-threshold tail modeling for a single series.

The workflow is the classical one: pick a threshold (diagnosed by mean
residual life and parameter-stability plots), reduce serially dependent
exceedances to cluster peaks by the runs method, then fit a generalized
Pareto distribution to the peak excesses by maximum likelihood.

The GPD negative log-likelihood for excesses y_1..y_n is

    n*log(sigma) + (1 + 1/xi) * sum(log(1 + xi*y/sigma))        (xi != 0)
    n*log(sigma) + sum(y)/sigma                                  (xi == 0)

minimized over sigma > 0 and xi >= -0.5 (the usual regularity range).
With theta = xi/sigma fixed, xi and sigma have closed forms (Grimshaw
1993), the bound on xi included, so the fit is one 1-D profile search
with no starting values and no randomness. The exponential limit is
used whenever |xi| < 1e-6. Standard errors come from the closed-form
observed information.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainError,
    FitError,
    SizeError,
    UsageError,
    check_floats,
    check_int,
    check_real,
)

XI_ZERO_TOL = 1e-6  # |xi| below this: use the exponential limit
XI_LOWER = -0.5  # MLE regularity bound on the shape
_S_FLOOR = -30.0  # lowest log1p(theta * y_max) searched; e^-30 >> float resolution
_S_CEIL = 700.0  # highest one searched; expm1(700) ~ 1e304
_N_GRID = 64  # coarse profile grid ahead of the Brent refinement
# Bytes of one (grid rows x n) temporary in _grid_brent, which bounds a fit's
# memory by O(n), not O(grid x n). Measured on the criterion-10 recordings:
# whole 41- or 64-row grids at 750-1 750 tail samples make 0.5-0.9 MB
# temporaries that every call faults in afresh (17 000-18 000 minor faults
# in the HT and GPD fits of eight recordings); blocks of 64-256 KiB remove
# them, 512 KiB does not. At 500-10 000 excesses (fit-gpd's threshold
# diagnostics) 256 KiB was faster than 128 KiB, which makes more calls.
_BLOCK_BYTES = 256 * 1024
_G_SERIES_A = 0.2  # |a| below this: g(a) of _gpd_information by series, where
# its closed form cancels; 26 terms reach double precision for |a| < 0.2
_G_SERIES = np.array([(-1) ** (k + 1) * (2.0 / k + k - 3) for k in range(3, 29)])
#: Allowed threshold quantiles of a tail fit, as :func:`eegx.errors.check_real` takes them.
THRESHOLD_QUANTILES = "[0.8, 0.999]"


@dataclass(frozen=True)
class GpdFit:
    """A fitted generalized Pareto tail.

    ``zeta_u`` is the rate at which the underlying series exceeds the
    threshold (used by return levels); ``n_exceed`` the number of
    excesses entering the likelihood; ``nll`` its minimized value.
    """

    threshold_u: float
    sigma: float
    xi: float
    zeta_u: float
    n_exceed: int
    se_sigma: float
    se_xi: float
    nll: float
    cov_sigma_xi: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):  # se_sigma and se_xi are NaN where undefined
        check_real(self.threshold_u, "threshold_u")
        check_real(self.sigma, "sigma", "(0, inf)")
        check_real(self.xi, "xi")
        check_real(self.zeta_u, "zeta_u", "(0, 1]")
        check_real(self.nll, "nll")


@dataclass(frozen=True)
class ThresholdDiagnostics:
    """Threshold-choice curves; entries are NaN where < 10 exceedances
    (or where a fit failed), mirrored by the ``flagged`` mask."""

    grid: np.ndarray
    n_exceed: np.ndarray
    flagged: np.ndarray
    mrl: np.ndarray | None = None
    mrl_lo: np.ndarray | None = None
    mrl_hi: np.ndarray | None = None
    xi: np.ndarray | None = None
    xi_se: np.ndarray | None = None
    sigma_star: np.ndarray | None = None
    sigma_star_se: np.ndarray | None = None


@dataclass(frozen=True)
class ClusterSet:
    """Cluster peaks from runs declustering."""

    run_length_r: int
    threshold_u: float
    peak_indices: np.ndarray
    peak_values: np.ndarray
    n_clusters: int

    @property
    def cluster_peaks(self) -> list[tuple[int, float]]:
        return [(int(i), float(v)) for i, v in zip(self.peak_indices, self.peak_values)]


def gpd_nll(sigma: float, xi: float, excesses: np.ndarray) -> float:
    """Negative log-likelihood of GPD excesses; +inf outside the support."""
    n = excesses.size
    if sigma <= 0:
        return np.inf
    if abs(xi) < XI_ZERO_TOL:
        return n * np.log(sigma) + excesses.sum() / sigma
    z = xi * excesses / sigma
    if np.any(z <= -1.0):
        return np.inf
    return n * np.log(sigma) + (1.0 + 1.0 / xi) * np.log1p(z).sum()


def _gpd_information(sigma: float, xi: float, y: np.ndarray) -> np.ndarray:
    """Observed information of GPD excesses: the Hessian of ``gpd_nll`` in
    (sigma, xi), in closed form (Smith 1985; Coles 2001, section 4.3).

    With t = y/sigma, a = xi*t and w = 1 + a,

        I_ss = ((1 + xi) * sum(t/w + t/w^2) - n) / sigma^2
        I_sx = ((1 + xi) * sum(t^2/w^2) - sum(t/w)) / sigma
        I_xx = sum(t^3 g(a) - t^2/w^2),  g(a) = (2 log1p(a) - 2a/w - a^2/w^2) / a^3

    Where |a| is small g is the power series sum over k >= 3 of
    (-1)^(k+1) (2/k + k - 3) a^(k-3), accurate through xi = 0 without a
    separate exponential branch.
    """
    sigma = np.float64(sigma)  # sigma**2 past the float range is inf, not OverflowError
    t = y / sigma
    a = xi * t
    w = 1.0 + a
    tw = t / w
    g = np.empty_like(a)
    small = np.abs(a) < _G_SERIES_A
    a_s, a_l, w_l = a[small], a[~small], w[~small]
    g_s = np.full_like(a_s, _G_SERIES[-1])
    for c in _G_SERIES[-2::-1]:  # Horner, in place
        g_s *= a_s
        g_s += c
    g[small] = g_s
    # on extreme spreads these overflow or divide by zero; the caller
    # checks the result and warns that it is not positive definite
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        g[~small] = (2.0 * np.log1p(a_l) - 2.0 * a_l / w_l - (a_l / w_l) ** 2) / a_l**3
        i_ss = ((1.0 + xi) * (tw + tw / w).sum() - y.size) / sigma**2
        i_sx = ((1.0 + xi) * (tw**2).sum() - tw.sum()) / sigma
        i_xx = (t**3 * g - tw**2).sum()
    return np.array([[i_ss, i_sx], [i_sx, i_xx]])


def _profile(s, y: np.ndarray):
    """Grimshaw profile of the GPD at s = log1p(theta * y_max), theta = xi/sigma.

    For fixed theta the NLL falls in xi down to xi_hat = mean(log1p(theta*y))
    and rises beyond it, so the shape constrained to xi >= ``XI_LOWER`` is
    xi = max(xi_hat, XI_LOWER), with sigma = xi/theta and
    NLL/n = log(sigma) + xi_hat * (1 + 1/xi), which is log(sigma) + xi + 1
    off the bound; theta = 0 is the exponential limit sigma = mean(y).
    Returns (NLL/n, xi, sigma) arrays.
    """
    theta = np.expm1(np.atleast_1d(s)) / y.max()
    xi_hat = np.log1p(np.multiply.outer(theta, y)).mean(axis=-1)
    xi = np.maximum(xi_hat, XI_LOWER)
    sigma = np.divide(xi, theta, out=np.full_like(xi, y.mean()), where=theta != 0)
    ratio = np.divide(xi_hat, xi, out=np.ones_like(xi), where=xi_hat < XI_LOWER)
    return np.log(sigma) + xi_hat + ratio, xi, sigma


def _bounded_brent(f, lo: float, hi: float, xatol: float):
    """Minimize a scalar function on [lo, hi] by Brent's (1973) method:
    golden-section steps, parabolic ones where they are acceptable.

    The same iteration as ``scipy.optimize.minimize_scalar(method="bounded")``,
    step for step. Returns (x, f(x)) of the best point evaluated.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = f(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabola through the three best points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * (np.sign(xm - xf) + ((xm - xf) == 0))
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e
        x = xf + (np.sign(rat) + (rat == 0)) * max(abs(rat), tol1)
        fu = f(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:  # scipy's default maxiter
            break
    return xf, fx


def _grid_brent(f, grid: np.ndarray, n: int) -> tuple[float, float]:
    """Minimize a 1-D function: the best point of ``grid`` (``f`` takes
    arrays), refined by bounded Brent between that point's neighbours.
    ``f`` builds (points x ``n``) temporaries, so the grid goes to it in
    blocks of at most ``_BLOCK_BYTES`` per temporary; its rows are
    independent, so every value is the one a single call would give.
    Returns (x, f(x)); f(x) is not finite when no grid value is."""
    rows = max(1, _BLOCK_BYTES // (8 * n))
    values = np.concatenate([f(grid[i : i + rows]) for i in range(0, grid.size, rows)])
    k = int(np.argmin(np.where(np.isfinite(values), values, np.inf)))
    x, fx = _bounded_brent(
        lambda x: float(f(x)[0]),
        grid[max(k - 1, 0)],
        grid[min(k + 1, grid.size - 1)],
        xatol=1e-10,
    )
    if fx < values[k]:
        return float(x), float(fx)
    return float(grid[k]), float(values[k])


def fit_gpd(
    excesses: np.ndarray,
    threshold_u: float = 0.0,
    zeta_u: float = 1.0,
) -> GpdFit:
    """Fit a GPD to strictly positive excesses by maximum likelihood.

    Grimshaw's (1993) reduction: with theta = xi/sigma the likelihood is
    maximized over xi and sigma in closed form, leaving a 1-D profile in
    s = log1p(theta * y_max). The constraint xi >= ``XI_LOWER`` enters that
    profile in closed form too (see :func:`_profile`), so one search
    covers both the interior and the boundary: a coarse grid over s from
    ``_S_FLOOR`` up to Grimshaw's bound theta = 2(mean(y) - min(y))/min(y)^2,
    which every stationary point lies below, and a bounded Brent search
    around its best cell. Deterministic; standard errors and
    ``cov_sigma_xi`` come from the inverse of the closed-form observed
    information. On the boundary the xi-gradient is not zero, so the full
    information describes no optimum: ``se_sigma`` then comes from the
    curvature in sigma alone at fixed xi, ``se_xi`` is NaN and
    ``cov_sigma_xi`` is None. Where the information is not positive
    definite both standard errors are NaN, with a warning.

    Raises
    ------
    SizeError
        Fewer than 10 excesses.
    UsageError
        Excesses that are not strictly positive.
    FitError
        No finite likelihood value.
    """
    y = check_floats(excesses, "excesses", ndim=1)
    threshold_u = check_real(threshold_u, "threshold_u")
    zeta_u = check_real(zeta_u, "zeta_u")
    if y.size < 10:
        raise SizeError(f"need at least 10 excesses to fit a GPD, got {y.size}")
    if np.any(y <= 0) or not np.isfinite(y).all():
        raise UsageError("excesses must be strictly positive and finite")

    ymin, ymax = float(y.min()), float(y.max())
    # Below _S_FLOOR theta is pinned within e^-30 of -1/y_max, where the
    # constrained profile only rises. Above, Grimshaw's bound on theta,
    # capped where expm1(s) still fits a float.
    s_hi = min(np.log1p(2.0 * (float(y.mean()) / ymin - 1.0) * (ymax / ymin)), _S_CEIL)
    # the search minimizes the NLL itself, the value the fit reports
    s_hat, nll = _grid_brent(
        lambda s: y.size * _profile(s, y)[0], np.linspace(_S_FLOOR, s_hi, _N_GRID), y.size
    )
    _, xi_arr, sigma_arr = _profile(s_hat, y)
    sigma_hat, xi_hat = sigma_arr[0], xi_arr[0]
    if not (np.isfinite(nll) and sigma_hat > 0):
        raise FitError(f"GPD likelihood has no finite value (n={y.size})")

    sigma_hat = float(sigma_hat)
    xi_hat = float(xi_hat)
    if abs(xi_hat) < XI_ZERO_TOL:
        xi_hat = 0.0
    on_boundary = xi_hat <= XI_LOWER + 1e-6
    if on_boundary:
        warnings.warn(
            f"GPD shape estimate on the boundary xi = {XI_LOWER}: se_xi undefined, "
            "se_sigma from the curvature in sigma at fixed xi",
            stacklevel=2,
        )
    # on the boundary only sigma sits at a stationary point of the NLL
    k = 1 if on_boundary else 2
    info = _gpd_information(sigma_hat, xi_hat, y)[:k, :k]
    cov, se_sigma, se_xi = None, float("nan"), float("nan")
    if np.isfinite(info).all() and info[0, 0] > 0 and np.linalg.det(info) > 0:
        inv = np.linalg.inv(info)
        se_sigma = float(np.sqrt(inv[0, 0]))
        if not on_boundary:
            cov, se_xi = inv, float(np.sqrt(inv[1, 1]))
    else:
        warnings.warn(
            "GPD observed information not positive definite; standard errors unavailable",
            stacklevel=2,
        )

    return GpdFit(
        threshold_u=threshold_u,
        sigma=sigma_hat,
        xi=xi_hat,
        zeta_u=zeta_u,
        n_exceed=int(y.size),
        se_sigma=se_sigma,
        se_xi=se_xi,
        nll=float(nll),
        cov_sigma_xi=cov,
    )


def _threshold_walk(data, grid, curves: tuple[str, ...], at) -> ThresholdDiagnostics:
    """Threshold diagnostics with the named ``curves``, from one walk over
    the sorted grid: ``at(u, excesses)`` gives the curves' values at u, or
    None where its estimate fails, and is not called where fewer than 10
    data exceed u. Either way the values stay NaN and u is flagged.
    Non-finite data raise ``DataError``, an empty or non-finite grid
    ``UsageError``."""
    x = check_floats(data, "data", finite=True).ravel()
    grid = check_floats(grid, "threshold grid").ravel()
    if grid.size == 0:
        raise UsageError("threshold grid must be nonempty")
    if not np.isfinite(grid).all():
        raise UsageError("threshold grid values must be finite")
    grid = np.sort(grid)

    values = np.full((len(curves), grid.size), np.nan)
    counts = np.zeros(grid.size, dtype=int)
    flagged = np.zeros(grid.size, dtype=bool)
    for j, u in enumerate(grid):
        exc = x[x > u] - u
        counts[j] = exc.size
        point = at(u, exc) if exc.size >= 10 else None
        if point is None:
            flagged[j] = True
        else:
            values[:, j] = point
    return ThresholdDiagnostics(
        grid=grid, n_exceed=counts, flagged=flagged, **dict(zip(curves, values))
    )


def mean_residual_life(data: np.ndarray, grid: np.ndarray) -> ThresholdDiagnostics:
    """Mean excess over each grid threshold with a 95% normal band.

    Points backed by fewer than 10 exceedances are flagged and reported
    as NaN. Non-finite data raise ``DataError``, an empty or non-finite
    grid ``UsageError``.
    """

    def at(_u, exc):
        mean = exc.mean()
        half = 1.96 * exc.std(ddof=1) / np.sqrt(exc.size)
        return mean, mean - half, mean + half

    return _threshold_walk(data, grid, ("mrl", "mrl_lo", "mrl_hi"), at)


def parameter_stability(data: np.ndarray, grid: np.ndarray) -> ThresholdDiagnostics:
    """Shape and modified-scale estimates across a threshold grid.

    The modified scale ``sigma* = sigma_hat - xi_hat * u`` is constant in
    u when the GPD holds above every grid threshold; its standard error
    follows by the delta method from the fit covariance. Failed or
    under-populated fits are flagged, not fatal; bad inputs raise as in
    :func:`mean_residual_life`.
    """

    def at(u, exc):
        try:
            fit = fit_gpd(exc, threshold_u=u)
        except (FitError, SizeError, UsageError):
            return None
        s_star_se = np.nan
        if fit.cov_sigma_xi is not None:
            c = fit.cov_sigma_xi
            var = c[0, 0] + u**2 * c[1, 1] - 2 * u * c[0, 1]
            s_star_se = np.sqrt(var) if var > 0 else np.nan
        return fit.xi, fit.se_xi, fit.sigma - fit.xi * u, s_star_se

    return _threshold_walk(data, grid, ("xi", "xi_se", "sigma_star", "sigma_star_se"), at)


def decluster_runs(
    data: np.ndarray, threshold_u: float, run_length_r: int
) -> ClusterSet:
    """Reduce exceedances to one peak per cluster by the runs method.

    Consecutive exceedances belong to the same cluster while their index
    gap is at most ``run_length_r``; a gap of more than ``run_length_r``
    (at least that many sub-threshold samples in between) starts a new
    cluster. Each cluster contributes its maximum, earliest index first
    on ties. Non-finite data raise ``DataError``; a non-finite threshold
    or a run length that is not an integer >= 1 raises ``UsageError``.
    """
    r = check_int(run_length_r, "run length", 1)
    check_real(threshold_u, "threshold")
    x = check_floats(data, "data", finite=True).ravel()
    exc_idx = np.flatnonzero(x > threshold_u)
    start = np.diff(exc_idx, prepend=-r - 1) > r  # the first exceedance starts one
    cluster = np.cumsum(start) - 1  # of each exceedance
    values = x[exc_idx]
    peaks = np.maximum.reduceat(values, np.flatnonzero(start))
    hits = np.flatnonzero(values == peaks[cluster])
    first = hits[np.diff(cluster[hits], prepend=-1) > 0]  # earliest on ties
    peaks_i = exc_idx[first]
    return ClusterSet(
        run_length_r=r,
        threshold_u=float(threshold_u),
        peak_indices=peaks_i,
        peak_values=x[peaks_i],
        n_clusters=peaks.size,
    )


def return_level(fit: GpdFit, m: float, obs_per_unit: float = 1.0) -> float:
    """Level exceeded on average once per ``m`` units of observation.

    With n = m * obs_per_unit observations and exceedance rate zeta_u,

        x_m = u + sigma/xi * ((n * zeta_u)^xi - 1)         (xi != 0)
        x_m = u + sigma * log(n * zeta_u)                  (xi == 0)

    defined only when ``n * zeta_u > 1``.
    """
    n_obs = check_real(m, "m") * check_real(obs_per_unit, "obs_per_unit")
    mz = n_obs * fit.zeta_u
    if mz <= 1.0:
        raise DomainError(
            f"return level undefined: m * zeta_u = {mz:g} must exceed 1"
        )
    if abs(fit.xi) < XI_ZERO_TOL:
        return fit.threshold_u + fit.sigma * np.log(mz)
    return fit.threshold_u + fit.sigma / fit.xi * (mz**fit.xi - 1.0)


def fit_channel_tail(
    series: np.ndarray,
    threshold_quantile: float = 0.95,
    run_length_r: int = 1,
) -> GpdFit:
    """Threshold at an empirical quantile, decluster, and fit the tail.

    The threshold is the type-7 empirical ``threshold_quantile`` of the
    series (in ``THRESHOLD_QUANTILES``); cluster-peak excesses feed the
    GPD fit and ``zeta_u`` is the cluster rate n_clusters / T.

    ``run_length_r`` should reflect the series' dependence range, about
    half a second of samples (round(fs/2)) for EEG; the default of 1
    only merges directly adjacent exceedances, appropriate for roughly
    independent data.
    """
    x = check_floats(series, "series", finite=True).ravel()
    check_real(threshold_quantile, "threshold quantile", THRESHOLD_QUANTILES)
    if x.size == 0:
        raise SizeError("cannot fit the tail of an empty series")
    u = float(np.quantile(x, threshold_quantile))
    clusters = decluster_runs(x, u, run_length_r)
    if clusters.n_clusters == 0:
        raise FitError(
            f"no exceedances above the {threshold_quantile:g} quantile (u={u:g})"
        )
    excesses = clusters.peak_values - u
    return fit_gpd(excesses, threshold_u=u, zeta_u=clusters.n_clusters / x.size)
