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
1993), so the fit is a 1-D profile search with no starting values and
no randomness. The exponential limit is used whenever |xi| < 1e-6.
Standard errors come from the closed-form observed information.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DataError,
    DomainError,
    FitError,
    SizeError,
    UsageError,
    ValidationError,
    check_int,
)

XI_ZERO_TOL = 1e-6  # |xi| below this: use the exponential limit
XI_LOWER = -0.5  # MLE regularity bound on the shape
_S_FLOOR = -30.0  # lowest log1p(theta * y_max) searched; e^-30 >> float resolution
_S_CEIL = 700.0  # highest one searched; expm1(700) ~ 1e304
_N_GRID = 64  # coarse profile grid ahead of the Brent refinement
_G_SERIES_A = 0.2  # |a| below this: g(a) of _gpd_information by series, where
# its closed form cancels; 26 terms reach double precision for |a| < 0.2
_G_SERIES = np.array([(-1) ** (k + 1) * (2.0 / k + k - 3) for k in range(3, 29)])


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

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValidationError(f"sigma must be positive, got {self.sigma}")
        if not 0 < self.zeta_u <= 1:
            raise ValidationError(f"zeta_u must lie in (0, 1], got {self.zeta_u}")


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

    For fixed theta the shape MLE is xi(theta) = mean(log1p(theta*y)) and
    sigma = xi/theta, leaving NLL/n = log(sigma) + xi + 1; theta = 0 is the
    exponential limit sigma = mean(y). Returns (NLL/n, xi, sigma) arrays.
    """
    theta = np.expm1(np.atleast_1d(s)) / y.max()
    xi = np.log1p(np.multiply.outer(theta, y)).mean(axis=-1)
    sigma = np.divide(xi, theta, out=np.full_like(xi, y.mean()), where=theta != 0)
    return np.log(sigma) + xi + 1.0, xi, sigma


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


def _brent_root(f, a: float, b: float, xtol: float) -> float:
    """A root of ``f`` in [a, b], where f(a) and f(b) differ in sign, by
    Brent's (1973) bracketing method: inverse quadratic or secant steps
    that stay inside the bracket, bisection otherwise.

    The iteration of ``scipy.optimize.brentq`` with its default relative
    tolerance 4 * machine epsilon; converged when the bracket is within
    ``xtol + rtol * |x|``. Raises ``FitError`` after 100 steps, scipy's
    default ``maxiter``.
    """
    rtol = 4 * np.finfo(float).eps
    xpre, xcur = a, b
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise FitError(f"root not bracketed: f({a:g}) and f({b:g}) have the same sign")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise FitError("root search did not converge in 100 iterations")


def _grid_brent(f, grid: np.ndarray) -> tuple[float, float]:
    """Minimize a 1-D function: the best point of ``grid`` (``f`` takes
    arrays), refined by bounded Brent between that point's neighbours.
    Returns (x, f(x)); f(x) is not finite when no grid value is."""
    values = f(grid)
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
    s = log1p(theta * y_max). Its stationary points lie below
    theta = 2(mean(y) - min(y))/min(y)^2, and xi >= ``XI_LOWER`` holds
    from the theta where xi(theta) = ``XI_LOWER`` up; a coarse grid over
    that range and a bounded Brent search around its best cell find the
    interior optimum. A 1-D fit of sigma with xi fixed at ``XI_LOWER``
    covers the boundary, and the lower NLL wins. Deterministic; standard
    errors and ``cov_sigma_xi`` come from the inverse of the closed-form
    observed information. On the boundary the xi-gradient is not zero,
    so the full information describes no optimum: ``se_sigma`` then comes
    from the curvature in sigma alone at fixed xi, ``se_xi`` is NaN and
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
    y = np.asarray(excesses, dtype=float)
    if y.ndim != 1:
        raise ValidationError(f"excesses must be 1-D, got shape {y.shape}")
    if y.size < 10:
        raise SizeError(f"need at least 10 excesses to fit a GPD, got {y.size}")
    if np.any(y <= 0) or not np.isfinite(y).all():
        raise UsageError("excesses must be strictly positive and finite")

    ymin, ymax = float(y.min()), float(y.max())

    def xi_above_lower(s):
        return float(_profile(s, y)[1][0]) - XI_LOWER

    # xi(s) rises with s. Below _S_FLOOR theta is pinned within e^-30 of
    # -1/y_max while xi keeps falling, which only raises the profile NLL.
    s_lo = _S_FLOOR
    if xi_above_lower(s_lo) < 0:
        s_lo = _brent_root(xi_above_lower, s_lo, 0.0, xtol=1e-12)
    # Grimshaw's bound on theta, capped where expm1(s) still fits a float
    s_hi = min(np.log1p(2.0 * (float(y.mean()) / ymin - 1.0) * (ymax / ymin)), _S_CEIL)
    s_in, v_in = _grid_brent(lambda s: _profile(s, y)[0], np.linspace(s_lo, s_hi, _N_GRID))

    def boundary(s):  # xi = XI_LOWER, sigma = XI_LOWER / theta
        return gpd_nll(XI_LOWER * ymax / np.expm1(s), XI_LOWER, y)

    s_bd, v_bd = _bounded_brent(boundary, _S_FLOOR, 0.0, xatol=1e-10)
    if v_bd <= y.size * v_in:
        sigma_hat, xi_hat, nll = XI_LOWER * ymax / np.expm1(s_bd), XI_LOWER, v_bd
    else:
        _, xi_arr, sigma_arr = _profile(s_in, y)
        sigma_hat, xi_hat, nll = sigma_arr[0], xi_arr[0], y.size * v_in
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
        threshold_u=float(threshold_u),
        sigma=sigma_hat,
        xi=xi_hat,
        zeta_u=float(zeta_u),
        n_exceed=int(y.size),
        se_sigma=se_sigma,
        se_xi=se_xi,
        nll=float(nll),
        cov_sigma_xi=cov,
    )


def _diagnostic_inputs(data, grid) -> tuple[np.ndarray, np.ndarray]:
    """Flattened finite data and the sorted, nonempty, finite threshold grid."""
    x = np.asarray(data, dtype=float).ravel()
    grid = np.asarray(grid, dtype=float).ravel()
    if not np.isfinite(x).all():
        raise DataError("data contains NaN or Inf")
    if grid.size == 0:
        raise UsageError("threshold grid must be nonempty")
    if not np.isfinite(grid).all():
        raise UsageError("threshold grid values must be finite")
    return x, np.sort(grid)


def mean_residual_life(data: np.ndarray, grid: np.ndarray) -> ThresholdDiagnostics:
    """Mean excess over each grid threshold with a 95% normal band.

    Points backed by fewer than 10 exceedances are flagged and reported
    as NaN. Non-finite data raise ``DataError``, an empty or non-finite
    grid ``UsageError``.
    """
    x, grid = _diagnostic_inputs(data, grid)

    m = np.full(grid.size, np.nan)
    lo = np.full(grid.size, np.nan)
    hi = np.full(grid.size, np.nan)
    counts = np.zeros(grid.size, dtype=int)
    flagged = np.zeros(grid.size, dtype=bool)
    for j, u in enumerate(grid):
        exc = x[x > u] - u
        counts[j] = exc.size
        if exc.size < 10:
            flagged[j] = True
            continue
        mean = exc.mean()
        half = 1.96 * exc.std(ddof=1) / np.sqrt(exc.size)
        m[j], lo[j], hi[j] = mean, mean - half, mean + half
    return ThresholdDiagnostics(
        grid=grid, n_exceed=counts, flagged=flagged, mrl=m, mrl_lo=lo, mrl_hi=hi
    )


def parameter_stability(data: np.ndarray, grid: np.ndarray) -> ThresholdDiagnostics:
    """Shape and modified-scale estimates across a threshold grid.

    The modified scale ``sigma* = sigma_hat - xi_hat * u`` is constant in
    u when the GPD holds above every grid threshold; its standard error
    follows by the delta method from the fit covariance. Failed or
    under-populated fits are flagged, not fatal; bad inputs raise as in
    :func:`mean_residual_life`.
    """
    x, grid = _diagnostic_inputs(data, grid)

    xi = np.full(grid.size, np.nan)
    xi_se = np.full(grid.size, np.nan)
    s_star = np.full(grid.size, np.nan)
    s_star_se = np.full(grid.size, np.nan)
    counts = np.zeros(grid.size, dtype=int)
    flagged = np.zeros(grid.size, dtype=bool)
    for j, u in enumerate(grid):
        exc = x[x > u] - u
        counts[j] = exc.size
        if exc.size < 10:
            flagged[j] = True
            continue
        try:
            fit = fit_gpd(exc, threshold_u=u)
        except (FitError, SizeError, UsageError):
            flagged[j] = True
            continue
        xi[j] = fit.xi
        xi_se[j] = fit.se_xi
        s_star[j] = fit.sigma - fit.xi * u
        if fit.cov_sigma_xi is not None:
            c = fit.cov_sigma_xi
            var = c[0, 0] + u**2 * c[1, 1] - 2 * u * c[0, 1]
            s_star_se[j] = np.sqrt(var) if var > 0 else np.nan
    return ThresholdDiagnostics(
        grid=grid,
        n_exceed=counts,
        flagged=flagged,
        xi=xi,
        xi_se=xi_se,
        sigma_star=s_star,
        sigma_star_se=s_star_se,
    )


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
    if not np.isfinite(threshold_u):
        raise UsageError(f"threshold must be finite, got {threshold_u}")
    x = np.asarray(data, dtype=float).ravel()
    if not np.isfinite(x).all():
        raise DataError("data contains NaN or Inf")
    exc_idx = np.flatnonzero(x > threshold_u)
    if exc_idx.size == 0:
        return ClusterSet(
            run_length_r=r,
            threshold_u=float(threshold_u),
            peak_indices=np.empty(0, dtype=int),
            peak_values=np.empty(0, dtype=float),
            n_clusters=0,
        )
    breaks = np.flatnonzero(np.diff(exc_idx) > r)
    groups = np.split(exc_idx, breaks + 1)
    peaks_i = np.empty(len(groups), dtype=int)
    for g, idx in enumerate(groups):
        peaks_i[g] = idx[np.argmax(x[idx])]
    return ClusterSet(
        run_length_r=r,
        threshold_u=float(threshold_u),
        peak_indices=peaks_i,
        peak_values=x[peaks_i],
        n_clusters=len(groups),
    )


def return_level(fit: GpdFit, m: float, obs_per_unit: float = 1.0) -> float:
    """Level exceeded on average once per ``m`` units of observation.

    With n = m * obs_per_unit observations and exceedance rate zeta_u,

        x_m = u + sigma/xi * ((n * zeta_u)^xi - 1)         (xi != 0)
        x_m = u + sigma * log(n * zeta_u)                  (xi == 0)

    defined only when ``n * zeta_u > 1``.
    """
    if not (np.isfinite(m) and np.isfinite(obs_per_unit)):
        raise UsageError(f"m and obs_per_unit must be finite, got {m}, {obs_per_unit}")
    n_obs = float(m) * float(obs_per_unit)
    mz = n_obs * fit.zeta_u
    if mz <= 1.0:
        raise DomainError(
            f"return level undefined: m * zeta_u = {mz:g} must exceed 1"
        )
    if abs(fit.xi) < XI_ZERO_TOL:
        return fit.threshold_u + fit.sigma * np.log(mz)
    return fit.threshold_u + fit.sigma / fit.xi * (mz**fit.xi - 1.0)


def _check_threshold_quantile(q: float) -> None:
    if not 0.8 <= q <= 0.999:  # NaN fails too
        raise UsageError(f"threshold quantile must lie in [0.8, 0.999], got {q}")


def fit_channel_tail(
    series: np.ndarray,
    threshold_quantile: float = 0.95,
    run_length_r: int = 1,
) -> GpdFit:
    """Threshold at an empirical quantile, decluster, and fit the tail.

    The threshold is the type-7 empirical ``threshold_quantile`` of the
    series (allowed range [0.8, 0.999]); cluster-peak excesses feed the
    GPD fit and ``zeta_u`` is the cluster rate n_clusters / T.

    ``run_length_r`` should reflect the series' dependence range, about
    half a second of samples (round(fs/2)) for EEG; the default of 1
    only merges directly adjacent exceedances, appropriate for roughly
    independent data.
    """
    x = np.asarray(series, dtype=float).ravel()
    _check_threshold_quantile(threshold_quantile)
    if x.size == 0:
        raise SizeError("cannot fit the tail of an empty series")
    if not np.isfinite(x).all():
        raise DataError("series contains NaN or Inf")
    u = float(np.quantile(x, threshold_quantile))
    clusters = decluster_runs(x, u, run_length_r)
    if clusters.n_clusters == 0:
        raise FitError(
            f"no exceedances above the {threshold_quantile:g} quantile (u={u:g})"
        )
    excesses = clusters.peak_values - u
    return fit_gpd(excesses, threshold_u=u, zeta_u=clusters.n_clusters / x.size)
