"""The 1-D profile fitters against the earlier fits they replaced.

``reference_fit_gpd`` and ``reference_fit_ht`` are the multi-start
estimators, kept here only as references: a PWM start plus three
seed-jittered Nelder-Mead restarts on (log sigma, xi) for the GPD, and a
5 x 3 Nelder-Mead start grid on (alpha, beta) with a |beta| tie-break for
the conditional model. ``three_search_fit_gpd`` is the GPD profile fit
before the bound xi >= -0.5 entered the profile: a root search for the
lowest admissible s, an interior profile search above it, and a separate
fit with xi pinned at the bound. The profile fits must never reach a
worse likelihood, and where both reach the same one they must agree on
the parameters.

The profile grids are evaluated in blocks of rows; the fits must be the
same floats as one whole-grid evaluation, and hold memory in O(n). The
profile kernels, set up once per sample, must give the fits, warnings
and errors of the per-call kernels they replaced, float for float.
"""

import tracemalloc
import warnings
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize

from eegx import (
    fit_gpd,
    fit_ht,
    gen_exponential,
    gen_gaussian_copula_pair,
    gen_gpd,
    laplace_quantile,
    uniform_scores,
)
from eegx import cond_extremes as ce
from eegx import evt_univariate as evt
from eegx.cond_extremes import BETA_MAX, BETA_MIN, S_FLOOR
from eegx.errors import EegxError, FitError
from eegx.evt_univariate import _N_GRID, _S_CEIL, _S_FLOOR, XI_LOWER, gpd_nll

# the tolerances perfbench/workloads.py applies to its pinned fits
XI_TOL = 1e-5
SIGMA_RTOL = 1e-5
ALPHA_TOL = 1e-6
BETA_TOL = 1e-5
SAME_NLL = 1e-6


def _pwm_start(y):
    """Probability-weighted-moments starting values (Hosking-Wallis)."""
    ys = np.sort(y)
    n = ys.size
    a0 = ys.mean()
    a1 = float(ys @ (n - np.arange(1, n + 1))) / (n * (n - 1.0))
    denom = a0 - 2.0 * a1
    if denom <= 0:
        sigma0, xi0 = a0, 0.4
    else:
        xi0 = 2.0 - a0 / denom
        sigma0 = 2.0 * a0 * a1 / denom
    xi0 = float(np.clip(xi0, -0.45, 2.0))
    sigma0 = float(max(sigma0, 1e-8 * max(a0, 1.0)))
    if xi0 < 0 and sigma0 <= -xi0 * ys[-1]:
        sigma0 = 1.05 * (-xi0 * ys[-1])
    return sigma0, xi0


def reference_fit_gpd(y, seed=0, n_restarts=3):
    """(sigma, xi, nll) from the best of 1 + n_restarts bounded simplex runs."""
    sigma0, xi0 = _pwm_start(y)
    rng = np.random.default_rng(seed)
    starts = [(np.log(sigma0), xi0)]
    for _ in range(n_restarts):
        starts.append(
            (
                np.log(sigma0) + rng.normal(0.0, 0.3),
                float(np.clip(xi0 + rng.normal(0.0, 0.2), XI_LOWER + 0.01, 3.0)),
            )
        )
    best = None
    for tau_s, xi_s in starts:
        if xi_s < 0 and np.exp(tau_s) <= -xi_s * y.max():
            tau_s = np.log(1.05 * (-xi_s * y.max()))
        res = optimize.minimize(
            lambda t: gpd_nll(np.exp(t[0]), t[1], y),
            x0=[tau_s, xi_s],
            method="Nelder-Mead",
            bounds=[(None, None), (XI_LOWER + 1e-9, None)],
            options={"xatol": 1e-8, "fatol": 1e-10, "maxiter": 2000},
        )
        if res.success and np.isfinite(res.fun) and (best is None or res.fun < best.fun):
            best = res
    return float(np.exp(best.x[0])), float(best.x[1]), float(best.fun)


def _unconstrained_profile(s, y):
    """Grimshaw profile (NLL/n, xi, sigma) at s = log1p(theta * y_max),
    with no bound on xi."""
    theta = np.expm1(np.atleast_1d(s)) / y.max()
    xi = np.log1p(np.multiply.outer(theta, y)).mean(axis=-1)
    sigma = np.divide(xi, theta, out=np.full_like(xi, y.mean()), where=theta != 0)
    return np.log(sigma) + xi + 1.0, xi, sigma


def _grid_then_bounded(f, grid):
    """Best grid point of ``f``, refined by bounded Brent between its neighbours."""
    values = f(grid)
    k = int(np.argmin(np.where(np.isfinite(values), values, np.inf)))
    res = optimize.minimize_scalar(
        lambda x: float(f(x)[0]),
        bounds=(grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]),
        method="bounded",
        options={"xatol": 1e-10},
    )
    return (res.x, res.fun) if res.fun < values[k] else (grid[k], values[k])


def three_search_fit_gpd(y):
    """(sigma, xi, nll): the lower of an interior profile fit above the s
    where xi(s) = XI_LOWER and a fit of sigma with xi pinned at XI_LOWER."""
    ymin, ymax = y.min(), y.max()

    def xi_above_lower(s):
        return float(_unconstrained_profile(s, y)[1][0]) - XI_LOWER

    s_lo = _S_FLOOR
    if xi_above_lower(s_lo) < 0:
        s_lo = optimize.brentq(xi_above_lower, s_lo, 0.0, xtol=1e-12)
    s_hi = min(np.log1p(2.0 * (y.mean() / ymin - 1.0) * (ymax / ymin)), _S_CEIL)
    s_in, v_in = _grid_then_bounded(
        lambda s: _unconstrained_profile(s, y)[0], np.linspace(s_lo, s_hi, _N_GRID)
    )
    boundary = optimize.minimize_scalar(
        lambda s: gpd_nll(XI_LOWER * ymax / np.expm1(s), XI_LOWER, y),
        bounds=(_S_FLOOR, 0.0),
        method="bounded",
        options={"xatol": 1e-10},
    )
    if boundary.fun <= y.size * v_in:
        return XI_LOWER * ymax / np.expm1(boundary.x), XI_LOWER, boundary.fun
    _, xi, sigma = _unconstrained_profile(s_in, y)
    return sigma[0], xi[0], y.size * v_in


def _profile_nll(alpha, beta, y, y_dep):
    """Pseudo-NLL with (mu, s) profiled out; returns (nll, mu, s)."""
    logy = np.log(y)
    w = np.exp(beta * logy)
    r = (y_dep - alpha * y) / w
    mu = r.mean()
    s = max(np.sqrt(np.mean((r - mu) ** 2)), S_FLOOR)
    n = y.size
    nll = n * np.log(s) + beta * logy.sum() + 0.5 * n * (1.0 + np.log(2.0 * np.pi))
    return nll, mu, s


def reference_fit_ht(yc, yd, cond_quantile):
    """(alpha, beta, nll) from a 5 x 3 bounded simplex start grid."""
    keep = yc > laplace_quantile(cond_quantile)
    y, yd_exc = yc[keep], yd[keep]
    candidates = []
    for a0 in (-0.9, -0.5, 0.0, 0.5, 0.9):
        for b0 in (-0.5, 0.0, 0.5):
            res = optimize.minimize(
                lambda t: _profile_nll(t[0], t[1], y, yd_exc)[0],
                x0=[a0, b0],
                method="Nelder-Mead",
                bounds=[(-1.0, 1.0), (BETA_MIN, BETA_MAX)],
                options={"xatol": 1e-7, "fatol": 1e-10, "maxiter": 2000},
            )
            if res.success and np.isfinite(res.fun):
                candidates.append(res)
    best_nll = min(r.fun for r in candidates)
    best = min((r for r in candidates if r.fun <= best_nll + 1e-9), key=lambda r: abs(r.x[1]))
    alpha = float(np.clip(best.x[0], -1.0, 1.0))
    beta = float(np.clip(best.x[1], BETA_MIN, BETA_MAX))
    return alpha, beta, float(_profile_nll(alpha, beta, y, yd_exc)[0])


GPD_CASES = [
    (xi, n, seed)
    for xi, n in [
        (-0.45, 15), (-0.45, 3000), (-0.2, 200), (0.0, 15), (0.0, 3000),
        (0.3, 200), (1.0, 15), (1.0, 3000), (2.5, 15), (2.5, 3000),
    ]
    for seed in (1, 2)
]


def _gpd_sample(xi, n, seed):
    return gen_exponential(n, 1.0, seed=seed) if xi == 0 else gen_gpd(n, 1.0, xi, seed=seed)


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("xi,n,seed", GPD_CASES)
def test_gpd_profile_matches_reference(xi, n, seed):
    y = _gpd_sample(xi, n, seed)
    sigma_ref, xi_ref, nll_ref = reference_fit_gpd(y)
    fit = fit_gpd(y)
    assert fit.nll <= nll_ref + 1e-9
    if abs(fit.nll - nll_ref) <= SAME_NLL:
        assert abs(fit.xi - xi_ref) <= XI_TOL
        assert abs(fit.sigma - sigma_ref) <= SIGMA_RTOL * sigma_ref


THREE_SEARCH_CASES = [
    pytest.param(_gpd_sample(xi, n, seed), id=f"gpd-{xi}-{n}-{seed}") for xi, n, seed in GPD_CASES
] + [
    pytest.param(np.random.default_rng(0).uniform(0.0, 1.0, 200), id="uniform-200"),
    pytest.param(np.random.default_rng(3).uniform(0.0, 2.0, 500), id="uniform-500"),
    pytest.param(np.ones(20), id="constant-20"),
    pytest.param(np.full(50, 1e-3), id="constant-50"),
    # Grimshaw's bound on theta*y_max overflows a float: s_hi is capped
    pytest.param(np.r_[np.full(10, 1e-300), 1.0], id="spread-tiny-min"),
    pytest.param(np.r_[np.ones(10), 1e300], id="spread-huge-max"),
]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")  # in the reference's steps
@pytest.mark.parametrize("y", THREE_SEARCH_CASES)
def test_gpd_one_search_matches_three_search_reference(y):
    sigma_ref, xi_ref, nll_ref = three_search_fit_gpd(y)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fit = fit_gpd(y)
    warned = any("boundary" in str(w.message) for w in caught)
    assert fit.nll <= nll_ref + 1e-9
    if abs(fit.nll - nll_ref) <= SAME_NLL:
        assert abs(fit.xi - xi_ref) <= XI_TOL
        assert abs(fit.sigma - sigma_ref) <= SIGMA_RTOL * sigma_ref
    # the same fits land on the bound, with the same warning
    assert (fit.xi == XI_LOWER) == (xi_ref == XI_LOWER)
    assert warned == (xi_ref <= XI_LOWER + 1e-6)


HT_CASES = [
    (-0.5, 5000, 0.95, 1),
    (0.0, 5000, 0.95, 2),
    (0.3, 30000, 0.99, 3),
    (0.6, 5000, 0.95, 4),
    (0.6, 30000, 0.99, 5),
    (0.9, 5000, 0.95, 6),
    (0.9, 30000, 0.95, 7),
    (0.99, 5000, 0.95, 16),
    (0.99, 5000, 0.95, 17),
    (0.99, 30000, 0.95, 3),
    (0.99, 30000, 0.99, 9),
    (0.99, 30000, 0.99, 10),
]


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("rho,n,q,seed", HT_CASES)
def test_ht_profile_matches_reference(rho, n, q, seed):
    u1, u2 = gen_gaussian_copula_pair(n, rho, seed=seed)
    yc, yd = laplace_quantile(uniform_scores(u1)), laplace_quantile(uniform_scores(u2))
    alpha_ref, beta_ref, nll_ref = reference_fit_ht(yc, yd, q)
    fit = fit_ht(yc, yd, q)
    assert fit.nll <= nll_ref + 1e-9
    if abs(fit.nll - nll_ref) <= SAME_NLL:
        assert abs(fit.alpha - alpha_ref) <= ALPHA_TOL
        assert abs(fit.beta - beta_ref) <= BETA_TOL


def test_gpd_shape_boundary():
    # uniform excesses are GPD with xi = -1, below the regularity bound
    y = np.random.default_rng(3).uniform(0.0, 2.0, 500)
    with pytest.warns(UserWarning, match="boundary"):
        fit = fit_gpd(y)
    assert fit.xi == XI_LOWER
    assert y.max() < fit.sigma / -fit.xi


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")  # in the reference's steps
@pytest.mark.parametrize("y", [np.r_[np.full(10, 1e-300), 1.0], np.r_[np.ones(10), 1e300]])
def test_gpd_extreme_spread(y):
    # Grimshaw's bound on theta*y_max overflows a float here
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fit = fit_gpd(y)
    # eegx's own warning, and no numpy RuntimeWarning from the information
    assert [str(w.message) for w in caught] == [
        "GPD observed information not positive definite; standard errors unavailable"
    ]
    assert np.isfinite(fit.nll)
    assert fit.nll <= reference_fit_gpd(y)[2] + 1e-9


# Sample sizes at which a block of the profile grids holds the whole grid
# (64 GPD rows, 41 HT rows), 10 rows with a partial last block, and one row.
_ROW_N = evt._BLOCK_BYTES // 8
BLOCK_NS = [_ROW_N // 64, _ROW_N // 10, _ROW_N // 2 + 1]


def _gpd_input(n, seed):
    return gen_gpd(n, 1.0, 0.2, seed=seed)


def _ht_input(n, seed):
    """A Laplace-scale pair whose n conditioning values all exceed the 0.95 quantile."""
    rng = np.random.default_rng(seed)
    yc = laplace_quantile(0.95) + rng.exponential(1.0, n) + 1e-9
    return yc, 0.5 * yc + yc**0.3 * rng.standard_normal(n)


def _assert_same_fit(a, b):
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            assert np.array_equal(x, y, equal_nan=True), f.name
        else:
            assert x == y or (x != x and y != y), f.name


@pytest.mark.filterwarnings("ignore::UserWarning")
@given(n=st.integers(10, 2 * _ROW_N), seed=st.integers(0, 2**32 - 1))
@example(n=BLOCK_NS[0], seed=0)
@example(n=BLOCK_NS[1], seed=0)
@example(n=BLOCK_NS[2], seed=0)
@settings(max_examples=20, deadline=None)
def test_blocks_change_no_float(n, seed):
    y = _gpd_input(n, seed)
    yc, yd = _ht_input(max(n, 30), seed)
    blocked = fit_gpd(y), fit_ht(yc, yd)
    with mock.patch.object(evt, "_BLOCK_BYTES", 2**62):  # one block: the whole grid
        whole = fit_gpd(y), fit_ht(yc, yd)
    for a, b in zip(blocked, whole, strict=True):
        _assert_same_fit(a, b)


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("n", BLOCK_NS)
def test_no_call_exceeds_the_block(n, monkeypatch):
    # a call of f with more grid points than a block would build temporaries
    # wider than the budget; the bound comes from the true sample size
    grid_brent = evt._grid_brent
    widths = []

    def guarded(f, grid, n_passed):
        def f_checked(x):
            widths.append(np.size(x))
            assert np.size(x) <= max(1, evt._BLOCK_BYTES // (8 * n))
            return f(x)

        return grid_brent(f_checked, grid, n_passed)

    monkeypatch.setattr(evt, "_grid_brent", guarded)
    monkeypatch.setattr(ce, "_grid_brent", guarded)
    fit_gpd(_gpd_input(n, 0))
    fit_ht(*_ht_input(n, 0))
    # both grids, then Brent's one-point calls, went through the check
    assert sum(widths) > _N_GRID + ce._N_BETA_GRID


def _peak_bytes(fit):
    fit()  # first-call costs are not the fit's
    tracemalloc.start()
    try:
        fit()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fit_memory_is_o_of_n():
    # a whole 41- or 64-row grid at once peaks at 22 and 39 MiB on these inputs
    u1, u2 = gen_gaussian_copula_pair(200_000, 0.6, seed=0)
    yc, yd = laplace_quantile(uniform_scores(u1)), laplace_quantile(uniform_scores(u2))
    x = gen_gpd(200_000, 1.0, 0.2, seed=0)
    u = np.quantile(x, 0.8)
    excesses = x[x > u] - u
    assert excesses.size == 40_000
    assert _peak_bytes(lambda: fit_ht(yc, yd, 0.95)) <= 4 * 2**20
    assert _peak_bytes(lambda: fit_gpd(excesses)) <= 4 * 2**20


# The profile kernels against the ones they replaced, which rebuilt the
# per-sample constants at every call and clipped alpha with np.clip: each
# fit, warning and error must be the same, float for float.


def _reference_profile(s, y):
    """(NLL/n, xi, sigma) of the GPD profile at s, every constant rebuilt."""
    theta = np.expm1(np.atleast_1d(s)) / y.max()
    xi_hat = np.log1p(np.multiply.outer(theta, y)).mean(axis=-1)
    xi = np.maximum(xi_hat, XI_LOWER)
    sigma = np.divide(xi, theta, out=np.full_like(xi, y.mean()), where=theta != 0)
    ratio = np.divide(xi_hat, xi, out=np.ones_like(xi), where=xi_hat < XI_LOWER)
    return np.log(sigma) + xi_hat + ratio, xi, sigma


def _reference_profile_beta(beta, y, y_dep):
    """(nll, alpha, mu, s) of the HT profile at beta, alpha by np.clip."""
    beta = np.atleast_1d(beta)
    n = y.size
    logy = np.log(y)
    w = np.exp(np.multiply.outer(beta, logy))
    a = y_dep / w
    b = y / w
    da = a - np.add.reduce(a, axis=-1, keepdims=True) / n
    db = b - np.add.reduce(b, axis=-1, keepdims=True) / n
    cov = np.add.reduce(da * db, axis=-1) / n
    var = np.add.reduce(db * db, axis=-1) / n
    alpha = np.clip(cov / var, -1.0, 1.0)
    r = a - alpha[:, None] * b
    mu = np.add.reduce(r, axis=-1) / n
    s = np.maximum(np.sqrt(np.add.reduce((r - mu[:, None]) ** 2, axis=-1) / n), S_FLOOR)
    nll = n * np.log(s) + beta * logy.sum() + 0.5 * n * (1.0 + np.log(2.0 * np.pi))
    return nll, alpha, mu, s


def _point_values(profile):
    """``profile`` with a float point's (1,)-array values given as numpy
    floats, as the fits read them."""

    def kernel(x):
        values = profile(x)
        return values if np.ndim(x) else tuple(v[0] for v in values)

    return kernel


def _reference_gpd_kernel(y, *_constants):
    # rebuilds every constant, so it ignores the maximum and mean handed over
    def profile(s):
        per_n, xi, sigma = _reference_profile(s, y)
        return y.size * per_n, xi, sigma

    return _point_values(profile)


def _reference_ht_kernel(y, y_dep):
    return _point_values(lambda beta: _reference_profile_beta(beta, y, y_dep))


def _outcome(fit, *args):
    """The fit, or its error, with every warning it issued."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fit(*args)
        except EegxError as exc:
            result = exc
    return result, [(w.category, str(w.message)) for w in caught]


def _assert_same_outcome(fit, module, attr, reference, *args):
    got, got_warned = _outcome(fit, *args)
    with mock.patch.object(module, attr, reference):
        want, want_warned = _outcome(fit, *args)
    assert got_warned == want_warned
    if isinstance(want, EegxError):
        assert type(got) is type(want) and str(got) == str(want)
    else:
        _assert_same_fit(got, want)


KERNEL_GPD_CASES = [
    pytest.param(gen_exponential(500, 2.0, seed=4), id="exponential"),
    pytest.param(np.ones(20), id="boundary-constant-20"),
    pytest.param(np.random.default_rng(3).uniform(0.0, 2.0, 500), id="boundary-uniform"),
    pytest.param(np.r_[np.full(10, 1e-300), 1.0], id="spread-tiny-min"),
    pytest.param(np.r_[np.ones(10), 1e300], id="spread-huge-max"),
] + [
    pytest.param(_gpd_sample(xi, n, seed), id=f"gpd-{xi}-{n}-{seed}")
    for xi, n, seed in GPD_CASES[::3]
] + [pytest.param(_gpd_input(n, 0), id=f"block-{n}") for n in BLOCK_NS]


@pytest.mark.parametrize("y", KERNEL_GPD_CASES)
def test_gpd_kernel_keeps_every_float(y):
    _assert_same_outcome(fit_gpd, evt, "_profile", _reference_gpd_kernel, y)


@pytest.mark.parametrize("y", KERNEL_GPD_CASES)
def test_gpd_kernel_values_at_theta_zero_and_the_grid(y):
    # s = 0 is theta = 0, the exponential limit sigma = mean(y); the grid
    # also crosses the bound xi = XI_LOWER, where the ratio term enters
    s = np.r_[np.linspace(_S_FLOOR, _S_CEIL, _N_GRID), 0.0, -0.0]
    profile = evt._profile(y, float(y.max()), float(y.mean()))
    with np.errstate(all="ignore"):
        got = profile(s)
        want = _reference_gpd_kernel(y)(s)
        one = [profile(float(x)) for x in s]  # Brent's float calls
    for a, b in zip(got, want, strict=True):
        assert np.array_equal(a, b, equal_nan=True)
    for k, values in enumerate(one):
        for a, b in zip(values, want, strict=True):
            assert np.shape(a) == () and a.tobytes() == b[k:k + 1].tobytes()
    assert got[2][-1] == got[2][-2] == y.mean()


def _flat_pair(value, n):
    """A constant conditioner: var(b) is 0 at every beta the grid takes for
    n = 32, and at some of them for n = 40."""
    return np.full(n, value), np.random.default_rng(0).standard_normal(n)


def _beta_below_bound_pair(n=200):
    """A pair whose residual spread falls like y^-4, below BETA_MIN = -3."""
    rng = np.random.default_rng(0)
    y = laplace_quantile(0.95) + rng.exponential(1.0, n)
    return y, 0.5 * y + y**-4.0 * rng.standard_normal(n)


KERNEL_HT_CASES = [
    pytest.param(*_flat_pair(3.0, 32), id="constant-conditioner-fit-error"),
    pytest.param(*_flat_pair(4.0, 40), id="constant-conditioner-some-nan"),
    pytest.param(*_beta_below_bound_pair(), id="beta-min"),
] + [pytest.param(*_ht_input(max(n, 30), 0), id=f"block-{n}") for n in BLOCK_NS] + [
    pytest.param(
        *(laplace_quantile(uniform_scores(u)) for u in gen_gaussian_copula_pair(5000, rho, seed=s)),
        id=f"copula-{rho}-{s}",
    )
    for rho, s in [(-0.5, 1), (0.0, 2), (0.6, 4), (0.99, 16)]
]


@pytest.mark.parametrize("yc,yd", KERNEL_HT_CASES)
def test_ht_kernel_keeps_every_float(yc, yd):
    _assert_same_outcome(fit_ht, ce, "_profile_beta", _reference_ht_kernel, yc, yd)


@pytest.mark.parametrize("yc,yd", KERNEL_HT_CASES)
def test_ht_kernel_values_on_the_grid(yc, yd):
    # the whole beta grid, where alpha is clipped at -1 and 1 and var(b)
    # may be 0, then Brent's one-point calls
    keep = yc > laplace_quantile(0.95)
    y, y_dep = yc[keep], yd[keep]
    beta = np.r_[np.linspace(BETA_MIN, BETA_MAX, ce._N_BETA_GRID), 0.0, -0.0]
    profile = ce._profile_beta(y, y_dep)
    with np.errstate(all="ignore"):
        got = profile(beta)
        want = _reference_profile_beta(beta, y, y_dep)
        one = [profile(float(b)) for b in beta]
    for a, b in zip(got, want, strict=True):
        assert a.tobytes() == b.tobytes()
    for k, values in enumerate(one):
        for a, b in zip(values, want, strict=True):
            assert np.shape(a) == () and a.tobytes() == b[k:k + 1].tobytes()


def test_ht_kernel_cases_reach_their_branches():
    (yc, yd), (yc40, yd40) = _flat_pair(3.0, 32), _flat_pair(4.0, 40)
    with np.errstate(all="ignore"):
        nll, alpha, _, _ = ce._profile_beta(yc, yd)(np.linspace(BETA_MIN, BETA_MAX, 41))
        assert np.isnan(alpha).all() and not np.isfinite(nll).any()
        assert np.isnan(ce._profile_beta(yc40, yd40)(np.linspace(BETA_MIN, BETA_MAX, 41))[1]).any()
    with pytest.raises(FitError, match="no finite pseudo-likelihood"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            fit_ht(yc, yd)
    with pytest.warns(UserWarning, match="lower bound"):
        assert fit_ht(*_beta_below_bound_pair()).beta == BETA_MIN
    # alpha is clipped at both ends somewhere on the copula cases' grids
    clipped = set()
    for case in KERNEL_HT_CASES[-4:]:
        yc, yd = case.values
        keep = yc > laplace_quantile(0.95)
        alpha = ce._profile_beta(yc[keep], yd[keep])(np.linspace(BETA_MIN, BETA_MAX, 41))[1]
        clipped |= set(alpha[np.abs(alpha) == 1.0])
    assert clipped == {-1.0, 1.0}


@pytest.mark.parametrize("c", [np.nan, -0.0, 0.0, -1.0, 1.0, -2.5, 2.5, np.inf, -np.inf])
def test_alpha_clip_is_np_clip(c):
    # the HT profile clips cov/var with np.minimum(np.maximum(...)); NaN
    # stays NaN and -0.0 keeps its sign, as in np.clip
    got = np.minimum(np.maximum(np.array([c]), -1.0), 1.0)
    want = np.clip(np.array([c]), -1.0, 1.0)
    assert got.tobytes() == want.tobytes()


# A float point runs the same expressions as a block of grid points: its
# values must be its grid row's, byte for byte, and the Brent search that
# asks for it must run on Python floats.


def _assert_points_are_rows(profile, points):
    """Each float point's values are its row of one block evaluation of
    ``points``, byte for byte; returns the rows."""
    with np.errstate(all="ignore"):
        rows = profile(points)
        for k, x in enumerate(points.tolist()):
            for a, b in zip(profile(x), rows, strict=True):
                assert np.shape(a) == () and a.tobytes() == b[k:k + 1].tobytes()
    return rows


def _bound_crossing(profile, lo, hi):
    """The adjacent floats around the s where the GPD shape leaves the
    bound XI_LOWER, found by bisection from ``lo`` (on it) and ``hi`` (off it)."""
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if profile(mid)[1] == XI_LOWER:
            lo = mid
        else:
            hi = mid
    return [lo, hi]


@given(
    n=st.sampled_from(BLOCK_NS) | st.integers(10, 2_000),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["gpd", "uniform"]),
    xi=st.sampled_from(sorted({xi for xi, _, _ in GPD_CASES})),
    extra=st.lists(st.floats(_S_FLOOR, _S_CEIL), max_size=4),
)
@example(n=BLOCK_NS[0], seed=0, kind="uniform", xi=0.0, extra=[])
@example(n=BLOCK_NS[1], seed=1, kind="gpd", xi=0.2, extra=[])
@example(n=BLOCK_NS[2], seed=2, kind="uniform", xi=0.0, extra=[])
@settings(max_examples=25, deadline=None)
def test_gpd_point_is_its_grid_row(n, seed, kind, xi, extra):
    # s = +-0.0 is theta = 0, the exponential limit; uniform excesses
    # (a GPD with xi = -1) put the low grid on the bound xi = XI_LOWER,
    # and the two floats around its crossing are points too
    if kind == "uniform":
        y = 1e-9 + np.random.default_rng(seed).uniform(0.0, 2.0, n)
    else:
        y = _gpd_sample(xi, n, seed)
    profile = evt._profile(y, float(y.max()), float(y.mean()))
    crossing = []
    with np.errstate(all="ignore"):
        if profile(_S_FLOOR)[1] == XI_LOWER:
            crossing = _bound_crossing(profile, _S_FLOOR, 0.0)
    assert crossing or kind == "gpd"
    points = np.r_[
        np.linspace(_S_FLOOR, _S_CEIL, _N_GRID), np.linspace(_S_FLOOR, 5.0, 41),
        0.0, -0.0, crossing, extra,
    ]
    rows = _assert_points_are_rows(profile, points)
    assert (rows[2][points == 0.0] == y.mean()).all()  # sigma at theta = 0


@given(
    n=st.sampled_from(BLOCK_NS) | st.integers(30, 2_000),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["pair", "flat", "beta-min"]),
    slope=st.floats(-1.5, 1.5),
    extra=st.lists(st.floats(BETA_MIN, BETA_MAX), max_size=4),
)
@example(n=BLOCK_NS[0], seed=0, kind="pair", slope=1.4, extra=[])
@example(n=BLOCK_NS[1], seed=1, kind="pair", slope=-1.4, extra=[])
@example(n=BLOCK_NS[2], seed=2, kind="pair", slope=0.5, extra=[])
@example(n=32, seed=0, kind="flat", slope=0.0, extra=[])
@example(n=41, seed=0, kind="flat", slope=0.0, extra=[])
@example(n=200, seed=0, kind="beta-min", slope=0.0, extra=[])
@settings(max_examples=25, deadline=None)
def test_ht_point_is_its_grid_row(n, seed, kind, slope, extra):
    # a slope beyond +-1 clips alpha there; a constant conditioner of 32
    # or 40 values has var(b) = 0, so NaN alpha, at some beta; BETA_MIN and
    # +-0.0 are points on every input
    if kind == "flat":
        y, y_dep = _flat_pair(4.0, 32 + 8 * (n % 2))
    elif kind == "beta-min":
        y, y_dep = _beta_below_bound_pair(n)
    else:
        rng = np.random.default_rng(seed)
        y = laplace_quantile(0.95) + rng.exponential(1.0, n) + 1e-9
        y_dep = slope * y + y**0.3 * rng.standard_normal(n)
    points = np.r_[np.linspace(BETA_MIN, BETA_MAX, ce._N_BETA_GRID), 0.0, -0.0, extra]
    alpha = _assert_points_are_rows(ce._profile_beta(y, y_dep), points)[1]
    if kind == "flat":
        assert np.isnan(alpha).any()
    elif abs(slope) >= 1.2:
        assert (alpha == np.sign(slope)).any()


def test_fits_run_brent_on_python_floats(monkeypatch):
    # every point a fit's Brent search evaluates, its value there, the
    # bounds and the result are Python floats, not numpy scalars
    bounded_brent = evt._bounded_brent
    seen = []

    def probed(f, lo, hi, xatol):
        def f_probed(x):
            fx = f(x)
            seen.extend([x, fx])
            return fx

        result = bounded_brent(f_probed, lo, hi, xatol)
        seen.extend([lo, hi, *result])
        return result

    monkeypatch.setattr(evt, "_bounded_brent", probed)
    fit_gpd(_gpd_input(500, 0))
    fit_ht(*_ht_input(500, 0))
    assert len(seen) > 20 and {type(v) for v in seen} == {float}
