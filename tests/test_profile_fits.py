"""The 1-D profile fitters against the multi-start simplex fits they replaced.

``reference_fit_gpd`` and ``reference_fit_ht`` are the earlier
estimators, kept here only as references: a PWM start plus three
seed-jittered Nelder-Mead restarts on (log sigma, xi) for the GPD, and a
5 x 3 Nelder-Mead start grid on (alpha, beta) with a |beta| tie-break for
the conditional model. The profile fits must never reach a worse
likelihood, and where both reach the same one they must agree on the
parameters.
"""

import warnings

import numpy as np
import pytest
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
from eegx.cond_extremes import BETA_MAX, BETA_MIN, S_FLOOR
from eegx.evt_univariate import XI_LOWER, gpd_nll

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


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("xi,n,seed", GPD_CASES)
def test_gpd_profile_matches_reference(xi, n, seed):
    y = gen_exponential(n, 1.0, seed=seed) if xi == 0 else gen_gpd(n, 1.0, xi, seed=seed)
    sigma_ref, xi_ref, nll_ref = reference_fit_gpd(y)
    fit = fit_gpd(y)
    assert fit.nll <= nll_ref + 1e-9
    if abs(fit.nll - nll_ref) <= SAME_NLL:
        assert abs(fit.xi - xi_ref) <= XI_TOL
        assert abs(fit.sigma - sigma_ref) <= SIGMA_RTOL * sigma_ref


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
