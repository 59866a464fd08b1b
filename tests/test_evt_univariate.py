import decimal
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from eegx import (
    DataError,
    DomainError,
    FitError,
    GpdFit,
    SizeError,
    UsageError,
    decluster_runs,
    fit_channel_tail,
    fit_gpd,
    gen_exponential,
    gen_gpd,
    mean_residual_life,
    parameter_stability,
    return_level,
)
import eegx.evt_univariate as evt
from eegx.evt_univariate import (
    XI_LOWER,
    _bounded_brent,
    _gpd_information,
    gpd_nll,
)


# (f, lo, hi): smooth, kinked, flat-ended, monotone and +inf-valued cases
MINIMIZE_CASES = [
    (lambda x: (x - 0.3) ** 2, -1.0, 2.0),
    (np.cos, 0.0, 6.0),
    (lambda x: abs(x - 1.234567), 0.0, 3.0),
    (lambda x: x**4 - 3 * x**3 + 2, -2.0, 5.0),
    (lambda x: np.exp(x) - 5 * x, 0.0, 4.0),
    (lambda x: -np.sinc(x), -3.0, 3.0),
    (lambda x: x, 0.0, 1.0),
    (lambda x: -x, 0.0, 1.0),
    (lambda x: (x - 2) ** 2 if x < 2.5 else np.inf, 0.0, 3.0),
    (lambda x: np.log(x) + 1 / x, 0.1, 10.0),
]


class TestBrentPorts:
    """The in-house Brent search repeats scipy's iterations exactly."""

    @pytest.mark.parametrize("xatol", [1e-5, 1e-10])
    @pytest.mark.parametrize("case", range(len(MINIMIZE_CASES)))
    def test_bounded_minimizer_matches_scipy(self, case, xatol):
        f, lo, hi = MINIMIZE_CASES[case]
        res = optimize.minimize_scalar(
            f, bounds=(lo, hi), method="bounded", options={"xatol": xatol}
        )
        assert _bounded_brent(f, lo, hi, xatol) == (res.x, res.fun)


class TestBrentFloats:
    """With float bounds and an ``f`` that returns floats, every point the
    Brent search evaluates, and the pair it returns, is a Python float."""

    @pytest.mark.parametrize("case", range(len(MINIMIZE_CASES)))
    def test_steps_are_python_floats(self, case):
        f, lo, hi = MINIMIZE_CASES[case]
        points = []

        def probe(x):
            points.append(x)
            return float(f(x))

        x, fx = _bounded_brent(probe, lo, hi, 1e-10)
        assert len(points) > 2
        assert {type(v) for v in [*points, x, fx]} == {float}


class TestMeanResidualLife:
    def test_exponential_flat(self):
        x = gen_exponential(100_000, 1.0, seed=1)
        grid = np.quantile(x, [0.5, 0.7, 0.9, 0.95])
        d = mean_residual_life(x, grid)
        assert np.all(np.abs(d.mrl - 1.0) < 0.05)

    def test_gpd_mean_excess_line(self):
        # GPD(sigma, xi): mean excess above u is (sigma + xi*u) / (1 - xi)
        sigma, xi = 1.0, 0.25
        x = gen_gpd(200_000, sigma, xi, seed=2)
        grid = np.quantile(x, [0.5, 0.8, 0.9, 0.95])
        d = mean_residual_life(x, grid)
        expected = (sigma + xi * d.grid) / (1 - xi)
        assert np.all((d.mrl_lo <= expected) & (expected <= d.mrl_hi))

    def test_no_exceedances_flagged(self):
        x = np.linspace(0, 1, 100)
        d = mean_residual_life(x, np.array([5.0, 6.0]))
        assert np.all(d.flagged)
        assert np.all(np.isnan(d.mrl))

    def test_empty_grid(self):
        with pytest.raises(UsageError):
            mean_residual_life(np.arange(10.0), np.array([]))


class TestParameterStability:
    def test_gpd_threshold_stability(self):
        x = gen_gpd(100_000, 1.0, 0.2, seed=3)
        grid = np.quantile(x, [0.5, 0.7, 0.9])
        d = parameter_stability(x, grid)
        # shape roughly constant at 0.2, modified scale constant at sigma
        assert np.all(np.abs(d.xi - 0.2) <= 3 * d.xi_se)
        assert np.all(np.abs(d.sigma_star - 1.0) <= 3.5 * d.sigma_star_se)

    def test_exponential_zero_shape(self):
        x = gen_exponential(100_000, 2.0, seed=4)
        grid = np.quantile(x, [0.6, 0.9])
        d = parameter_stability(x, grid)
        assert np.all(np.abs(d.xi) < 0.05)

    def test_insufficient_data_flagged(self):
        x = np.arange(15.0)
        d = parameter_stability(x, np.array([13.5]))
        assert d.flagged[0]
        assert np.isnan(d.xi[0])


def _decluster_loop(x, u, r):
    """The runs method cluster by cluster: (peak indices, peak values,
    cluster count), the earliest index on ties."""
    exc_idx = np.flatnonzero(x > u)
    if exc_idx.size == 0:
        return np.empty(0, dtype=int), np.empty(0), 0
    groups = np.split(exc_idx, np.flatnonzero(np.diff(exc_idx) > r) + 1)
    peaks_i = np.array([idx[np.argmax(x[idx])] for idx in groups])
    return peaks_i, x[peaks_i], len(groups)


class TestDecluster:
    def test_hand_example(self):
        x = np.zeros(25)
        x[[3, 4, 9, 10, 11, 20]] = [1.0, 2.0, 3.0, 1.0, 2.0, 5.0]
        cs = decluster_runs(x, 0.5, 3)
        assert cs.n_clusters == 3
        assert cs.cluster_peaks == [(4, 2.0), (9, 3.0), (20, 5.0)]

    def test_every_exceedance_own_cluster(self):
        x = np.zeros(10)
        x[[1, 3, 5, 8]] = 1.0  # all index gaps > 1
        cs = decluster_runs(x, 0.5, 1)
        assert cs.n_clusters == 4

    def test_no_exceedances(self):
        cs = decluster_runs(np.zeros(10), 0.5, 2)
        assert cs.n_clusters == 0
        assert cs.peak_values.size == 0
        # the empty arrays keep the dtypes that clustered peaks have
        assert cs.peak_indices.dtype == np.intp and cs.peak_indices.size == 0
        assert cs.peak_values.dtype == np.float64

    def test_earliest_index_on_ties(self):
        x = np.zeros(10)
        x[[2, 3]] = 2.0
        cs = decluster_runs(x, 1.0, 2)
        assert cs.cluster_peaks == [(2, 2.0)]

    def test_bad_run_length(self):
        with pytest.raises(UsageError):
            decluster_runs(np.zeros(5), 0.0, 0)

    @given(
        seed=st.integers(0, 10_000),
        r=st.integers(1, 20),
        q=st.floats(0.5, 0.95),
    )
    @settings(max_examples=40, deadline=None)
    def test_peaks_are_exceedances(self, seed, r, q):
        x = np.random.default_rng(seed).standard_normal(300)
        u = float(np.quantile(x, q))
        cs = decluster_runs(x, u, r)
        exceed_idx = set(np.flatnonzero(x > u).tolist())
        assert cs.n_clusters <= len(exceed_idx)
        for i, v in cs.cluster_peaks:
            assert i in exceed_idx
            assert v == x[i] and v > u
        # consecutive peaks separated by more than r samples
        gaps = np.diff(cs.peak_indices)
        assert np.all(gaps > r)

    @given(
        data=st.lists(st.integers(-3, 3), min_size=1, max_size=60),
        r=st.sampled_from([1, 2, 50, 61]),
        tied=st.booleans(),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_cluster_loop(self, data, r, tied, seed):
        # small integers tie often; a seeded jitter breaks every tie
        x = np.array(data, dtype=float)
        if not tied:
            x += np.random.default_rng(seed).uniform(0.0, 0.5, x.size)
        cs = decluster_runs(x, 0.5, r)
        peaks_i, peaks_v, n = _decluster_loop(x, 0.5, r)
        assert np.array_equal(cs.peak_indices, peaks_i)
        assert np.array_equal(cs.peak_values, peaks_v)
        assert cs.n_clusters == n


class TestFitGpd:
    def test_recovery_heavy(self):
        y = gen_gpd(10_000, 2.0, 0.2, seed=42)
        fit = fit_gpd(y)
        assert abs(fit.sigma - 2.0) <= 3 * fit.se_sigma
        assert abs(fit.xi - 0.2) <= 3 * fit.se_xi

    def test_recovery_exponential(self):
        y = gen_exponential(50_000, 1.0, seed=7)
        fit = fit_gpd(y)
        assert abs(fit.xi) < 0.05

    def test_recovery_bounded_tail(self):
        y = gen_gpd(20_000, 1.0, -0.25, seed=8)
        fit = fit_gpd(y)
        assert abs(fit.xi + 0.25) <= 4 * fit.se_xi
        # support constraint: all excesses below the fitted endpoint
        assert y.max() < -fit.sigma / fit.xi

    def test_zero_excess_rejected(self):
        y = np.concatenate([np.ones(20), [0.0]])
        with pytest.raises(UsageError, match="strictly positive"):
            fit_gpd(y)

    def test_too_few(self):
        with pytest.raises(SizeError):
            fit_gpd(np.ones(9))

    def test_likelihood_at_optimum_beats_perturbations(self):
        y = gen_gpd(5_000, 1.5, 0.1, seed=9)
        fit = fit_gpd(y)
        base = gpd_nll(fit.sigma, fit.xi, y)
        deltas = np.linspace(-1, 1, 8) * 0.05
        for ds in deltas:
            for dx in deltas:
                if ds == 0 and dx == 0:
                    continue
                nll = gpd_nll(fit.sigma * np.exp(ds), fit.xi + dx, y)
                assert base <= nll + 1e-9

    def test_xi_zero_continuity(self):
        y = gen_exponential(1_000, 1.0, seed=10)
        for xi in (1e-7, -1e-7):
            full = (
                y.size * np.log(1.0)
                + (1 + 1 / xi) * np.log1p(xi * y / 1.0).sum()
            )
            limit = gpd_nll(1.0, 0.0, y)
            assert abs(full - limit) <= 1e-6 * abs(limit)

    def test_shape_estimate_near_zero_is_the_exponential_limit(self):
        # GPD(t) quantiles: bisect t until the fitted shape lies within
        # XI_ZERO_TOL of 0, where the fit reports exactly 0
        p = np.arange(1, 201) / 201
        lo, hi = -0.1, 0.2
        for _ in range(60):
            t = (lo + hi) / 2
            fit = fit_gpd(np.expm1(-t * np.log1p(-p)) / t)
            if fit.xi == 0.0:
                break
            lo, hi = (lo, t) if fit.xi > 0 else (t, hi)
        assert fit.xi == 0.0 and type(fit.xi) is float

    def test_scale_equivariance(self):
        y = gen_gpd(2_000, 1.0, 0.15, seed=11)
        f1 = fit_gpd(y)
        f2 = fit_gpd(10.0 * y)
        assert f2.sigma == pytest.approx(10.0 * f1.sigma, rel=1e-4)
        assert f2.xi == pytest.approx(f1.xi, abs=1e-4)

    def test_deterministic(self):
        y = gen_gpd(1_000, 1.0, 0.3, seed=12)
        f1, f2 = fit_gpd(y), fit_gpd(y)
        assert (f1.sigma, f1.xi, f1.nll) == (f2.sigma, f2.xi, f2.nll)


class TestReturnLevel:
    def make_fit(self, u, sigma, xi, zeta):
        return GpdFit(
            threshold_u=u, sigma=sigma, xi=xi, zeta_u=zeta, n_exceed=100,
            se_sigma=0.1, se_xi=0.01, nll=0.0,
        )

    def test_exponential_closed_form(self):
        fit = self.make_fit(0.0, 1.0, 0.0, 0.01)
        assert return_level(fit, 10_000) == pytest.approx(np.log(100.0), abs=1e-12)

    def test_heavy_closed_form(self):
        fit = self.make_fit(5.0, 2.0, 0.5, 0.01)
        assert return_level(fit, 10_000) == pytest.approx(41.0, abs=1e-12)

    def test_obs_per_unit(self):
        fit = self.make_fit(5.0, 2.0, 0.5, 0.01)
        assert return_level(fit, 100, obs_per_unit=100.0) == pytest.approx(41.0)

    def test_boundary(self):
        fit = self.make_fit(0.0, 1.0, 0.0, 0.01)
        with pytest.raises(DomainError):
            return_level(fit, 100)  # m * zeta == 1


class TestBoundaryStandardErrors:
    """On xi = -0.5 the (tau, xi) Hessian describes no optimum: se_sigma
    comes from the sigma-only curvature, se_xi is undefined."""

    def _fit(self, y):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fit = fit_gpd(y)
        return fit, [str(w.message) for w in caught]

    def test_constant_excesses(self):
        # NLL(tau) = n*tau - n*log(1 - exp(-tau)/2): minimum at tau = 0,
        # curvature 2n there, so se_sigma = 1/sqrt(2n)
        fit, messages = self._fit(np.ones(20))
        assert fit.xi == -0.5
        assert fit.se_sigma == pytest.approx(1 / np.sqrt(40), rel=1e-4)
        assert np.isnan(fit.se_xi)
        assert fit.cov_sigma_xi is None
        assert len(messages) == 1 and "boundary" in messages[0]

    def test_uniform_excesses(self):
        y = np.random.default_rng(0).uniform(0.0, 1.0, 200)
        fit, messages = self._fit(y)
        assert fit.xi == -0.5
        assert 0 < fit.se_sigma < fit.sigma
        assert np.isnan(fit.se_xi)
        assert len(messages) == 1 and "se_xi undefined" in messages[0]

    def test_interior_fit_keeps_hessian(self):
        fit, messages = self._fit(gen_gpd(2_000, 1.0, 0.2, seed=5))
        assert not messages
        assert fit.cov_sigma_xi is not None
        assert fit.se_sigma == np.sqrt(fit.cov_sigma_xi[0, 0])
        assert fit.se_xi == np.sqrt(fit.cov_sigma_xi[1, 1])


def _decimal_nll_hessian(sigma, xi, y, digits=60, step="1e-15"):
    """Hessian of the GPD NLL in (sigma, xi) by central differences in
    ``digits``-digit decimal arithmetic: an independent reference for the
    closed form. Truncation and rounding errors are both near 1e-30."""
    ys = [decimal.Decimal(float(v)) for v in y]
    n = len(ys)

    def nll(s, x):  # in the local context below
        if x == 0:
            return n * s.ln() + sum(ys) / s
        return n * s.ln() + (1 + 1 / x) * sum((1 + x * v / s).ln() for v in ys)

    s0, x0, h = decimal.Decimal(float(sigma)), decimal.Decimal(float(xi)), decimal.Decimal(step)
    with decimal.localcontext(decimal.Context(prec=digits)):
        f0 = nll(s0, x0)
        fss = (nll(s0 + h, x0) - 2 * f0 + nll(s0 - h, x0)) / h**2
        fxx = (nll(s0, x0 + h) - 2 * f0 + nll(s0, x0 - h)) / h**2
        fsx = (
            nll(s0 + h, x0 + h) - nll(s0 + h, x0 - h)
            - nll(s0 - h, x0 + h) + nll(s0 - h, x0 - h)
        ) / (4 * h**2)
    return np.array([[float(fss), float(fsx)], [float(fsx), float(fxx)]])


def _hessian_cov(tau_hat, xi_hat, excesses):
    """The finite-difference covariance ``fit_gpd`` used before the closed
    form: a 1e-4 central-difference Hessian on (tau = log sigma, xi),
    inverted and mapped to (sigma, xi) by the delta method. Kept as the
    reference for the agreement sweep."""

    def f(tau, xi):
        return gpd_nll(np.exp(tau), xi, excesses)

    h = 1e-4
    f0 = f(tau_hat, xi_hat)
    ftt = (f(tau_hat + h, xi_hat) - 2 * f0 + f(tau_hat - h, xi_hat)) / h**2
    fxx = (f(tau_hat, xi_hat + h) - 2 * f0 + f(tau_hat, xi_hat - h)) / h**2
    ftx = (
        f(tau_hat + h, xi_hat + h)
        - f(tau_hat + h, xi_hat - h)
        - f(tau_hat - h, xi_hat + h)
        + f(tau_hat - h, xi_hat - h)
    ) / (4 * h**2)
    cov_tau_xi = np.linalg.inv(np.array([[ftt, ftx], [ftx, fxx]]))
    jac = np.diag([np.exp(tau_hat), 1.0])
    return jac @ cov_tau_xi @ jac.T


class TestGpdInformation:
    """The closed-form observed information behind every GPD standard error."""

    @pytest.mark.parametrize("xi", [0.0, 2e-6, -2e-6, 1e-3, 0.2, 2.5])
    def test_matches_decimal_reference(self, xi):
        y = gen_exponential(200, 1.0, seed=31) if xi == 0 else gen_gpd(200, 1.0, xi, seed=31)
        info = _gpd_information(1.3, xi, y)
        np.testing.assert_allclose(info, _decimal_nll_hessian(1.3, xi, y), rtol=1e-10, atol=0)

    def test_near_support_endpoint(self):
        # xi = -0.47: the largest excess 1e-4 short of the endpoint sigma/0.47,
        # where 1 + xi*y/sigma is small and the curvature large
        y = np.random.default_rng(32).uniform(0.0, 1.0, 200) / 0.47
        y[-1] = (1 - 1e-4) / 0.47
        info = _gpd_information(1.0, -0.47, y)
        np.testing.assert_allclose(info, _decimal_nll_hessian(1.0, -0.47, y), rtol=1e-10, atol=0)

    def test_endpoint_fit_where_finite_differences_drift(self):
        # an interior fit with xi_hat = -0.466 whose largest excess lies
        # within 1.7 % of the fitted endpoint: the old 1e-4 finite differences
        # are 0.13 % off there, the closed form agrees with the decimal reference
        y = gen_gpd(500, 1.0, -0.45, seed=24)
        fit = fit_gpd(y)
        exact = np.linalg.inv(_decimal_nll_hessian(fit.sigma, fit.xi, y))
        np.testing.assert_allclose(fit.cov_sigma_xi, exact, rtol=1e-10)
        old = _hessian_cov(np.log(fit.sigma), fit.xi, y)
        assert np.max(np.abs(np.sqrt(np.diag(old) / np.diag(exact)) - 1)) > 1e-3

    @pytest.mark.filterwarnings("ignore:GPD shape estimate on the boundary")
    def test_standard_errors_match_finite_differences(self):
        # the profile-fit sweep: away from the support endpoint (xi_hat > -0.4)
        # the closed form and the old finite-difference SEs agree
        compared = 0
        for xi in (-0.45, -0.2, 0.0, 0.3, 1.0, 2.5):
            for n in (15, 200, 3000):
                for seed in range(1, 41):
                    y = gen_exponential(n, 1.0, seed=seed) if xi == 0 else gen_gpd(n, 1.0, xi, seed=seed)
                    fit = fit_gpd(y)
                    if fit.xi <= -0.4:
                        continue
                    old = _hessian_cov(np.log(fit.sigma), fit.xi, y)
                    assert fit.se_sigma == pytest.approx(np.sqrt(old[0, 0]), rel=1e-4)
                    assert fit.se_xi == pytest.approx(np.sqrt(old[1, 1]), rel=1e-4)
                    compared += 1
        assert compared > 500

    @pytest.mark.parametrize("scale", [1e160, 1e-160])
    def test_extreme_scale_has_no_standard_errors(self, scale):
        # sigma**2 leaves the float range: NaN standard errors and a warning,
        # not an OverflowError
        y = scale * (np.random.default_rng(7).pareto(4, 200) + 0.01)
        with pytest.warns(UserWarning, match="observed information not positive definite"):
            fit = fit_gpd(y)
        assert np.isnan(fit.se_sigma) and np.isnan(fit.se_xi)
        assert fit.cov_sigma_xi is None
        assert fit.xi == pytest.approx(fit_gpd(y / scale).xi, rel=1e-5)

    def test_constant_excesses_exact(self):
        # sigma_hat = 1 (to ~1e-9), xi = -0.5: I_ss = 0.5 * 20 * (2 + 4) - 20 = 40
        with pytest.warns(UserWarning, match="boundary"):
            fit = fit_gpd(np.ones(20))
        assert fit.se_sigma == pytest.approx(1 / np.sqrt(40), rel=1e-8)

    @pytest.mark.parametrize("info", [[[1.0, 2.0], [2.0, 1.0]], [[np.nan, 0.0], [0.0, 1.0]]])
    def test_not_positive_definite(self, monkeypatch, info):
        monkeypatch.setattr(evt, "_gpd_information", lambda sigma, xi, y: np.array(info))
        with pytest.warns(UserWarning, match="observed information not positive definite"):
            fit = fit_gpd(gen_gpd(500, 1.0, 0.2, seed=33))
        assert np.isnan(fit.se_sigma) and np.isnan(fit.se_xi)
        assert fit.cov_sigma_xi is None

    def test_boundary_needs_only_sigma_curvature(self, monkeypatch):
        # on xi = -0.5 only I_ss enters; a negative I_xx there is no failure
        real = evt._gpd_information

        def info(sigma, xi, y):
            return real(sigma, xi, y) * np.array([[1.0, 1.0], [1.0, -1.0]])

        monkeypatch.setattr(evt, "_gpd_information", info)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fit = fit_gpd(np.ones(20))
        assert [m for m in caught if "positive definite" in str(m.message)] == []
        assert fit.xi == XI_LOWER
        assert fit.se_sigma == pytest.approx(1 / np.sqrt(40), rel=1e-8)


class TestFitChannelTail:
    def test_iid_gpd_series(self):
        x = gen_gpd(50_000, 1.0, 0.2, seed=13)
        fit = fit_channel_tail(x, 0.95, run_length_r=1)
        # excesses over the 0.95 quantile of a GPD(1, 0.2) are GPD(sigma_u, 0.2)
        assert abs(fit.xi - 0.2) <= 3 * fit.se_xi
        assert fit.zeta_u == fit.n_exceed / x.size

    def test_constant_series(self):
        with pytest.raises(FitError, match="no exceedances"):
            fit_channel_tail(np.ones(1000), 0.95, run_length_r=1)

    def test_quantile_range(self):
        with pytest.raises(UsageError):
            fit_channel_tail(np.arange(100.0), 0.5, run_length_r=1)

    def test_declustering_reduces_count(self):
        rng = np.random.default_rng(14)
        # strongly autocorrelated series: clusters matter
        from scipy.signal import lfilter

        x = lfilter([1.0], [1.0, -0.95], rng.standard_normal(50_000))
        fit_r1 = fit_channel_tail(x, 0.95, run_length_r=1)
        fit_r50 = fit_channel_tail(x, 0.95, run_length_r=50)
        assert fit_r50.n_exceed < fit_r1.n_exceed


class TestInputContract:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_channel_tail_rejects_non_finite(self, bad):
        x = gen_exponential(1_000, 1.0, seed=15)
        x[10] = bad
        with pytest.raises(DataError):
            fit_channel_tail(x, 0.95)

    def test_channel_tail_rejects_empty(self):
        with pytest.raises(SizeError):
            fit_channel_tail(np.array([]))

    @pytest.mark.parametrize("diagnostic", [mean_residual_life, parameter_stability])
    def test_diagnostics_reject_non_finite_data(self, diagnostic):
        x = gen_exponential(1_000, 1.0, seed=16)
        x[10] = np.nan
        with pytest.raises(DataError):
            diagnostic(x, np.array([0.5, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("diagnostic", [mean_residual_life, parameter_stability])
    def test_diagnostics_reject_non_finite_grid(self, diagnostic, bad):
        x = gen_exponential(1_000, 1.0, seed=17)
        with pytest.raises(UsageError, match="finite"):
            diagnostic(x, np.array([0.5, bad]))

    def test_decluster_rejects_non_finite_data(self):
        x = np.zeros(10)
        x[3] = np.nan
        with pytest.raises(DataError):
            decluster_runs(x, 0.5, 2)

    @pytest.mark.parametrize("u", [np.nan, np.inf])
    def test_decluster_rejects_non_finite_threshold(self, u):
        with pytest.raises(UsageError, match=r"threshold must lie in \(-inf, inf\)"):
            decluster_runs(np.ones(10), u, 2)

    @pytest.mark.parametrize("r", [2.7, 2.0, "2"])
    def test_decluster_rejects_non_integer_run_length(self, r):
        with pytest.raises(UsageError, match="integer"):
            decluster_runs(np.ones(10), 0.5, r)

    def test_decluster_accepts_numpy_integer_run_length(self):
        cs = decluster_runs(np.ones(10), 0.5, np.int64(3))
        assert cs.run_length_r == 3 and type(cs.run_length_r) is int

    @pytest.mark.parametrize("m,obs,name", [
        ("x", 1.0, "m"), (None, 1.0, "m"), (np.array([1e4]), 1.0, "m"),
        (1e4, "2", "obs_per_unit"), (1e4, 1j, "obs_per_unit"),
    ])
    def test_return_level_rejects_non_numeric(self, m, obs, name):
        fit = GpdFit(threshold_u=0.0, sigma=1.0, xi=0.1, zeta_u=0.01, n_exceed=100,
                     se_sigma=0.1, se_xi=0.01, nll=0.0)
        with pytest.raises(UsageError, match=f"{name} must be a real number"):
            return_level(fit, m, obs_per_unit=obs)

    def test_return_level_accepts_numpy_scalars(self):
        fit = GpdFit(threshold_u=0.0, sigma=1.0, xi=0.1, zeta_u=0.01, n_exceed=100,
                     se_sigma=0.1, se_xi=0.01, nll=0.0)
        assert return_level(fit, np.int64(10_000), np.float32(2.0)) == return_level(fit, 10_000, 2.0)

    @pytest.mark.parametrize("q", ["0.95", None])
    def test_channel_tail_rejects_non_numeric_quantile(self, q):
        with pytest.raises(UsageError, match="threshold quantile must be a real number"):
            fit_channel_tail(gen_exponential(1_000, 1.0, seed=17), q)

    @pytest.mark.parametrize("m,obs", [(np.nan, 1.0), (np.inf, 1.0), (1e4, np.nan)])
    def test_return_level_rejects_non_finite(self, m, obs):
        fit = GpdFit(threshold_u=0.0, sigma=1.0, xi=0.1, zeta_u=0.01, n_exceed=100,
                     se_sigma=0.1, se_xi=0.01, nll=0.0)
        with pytest.raises(UsageError):
            return_level(fit, m, obs_per_unit=obs)
