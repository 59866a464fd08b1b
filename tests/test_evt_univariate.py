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
from eegx.evt_univariate import _bounded_brent, _brent_root, gpd_nll, gpd_nll_exponential


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

# (f, a, b) with f(a), f(b) of opposite sign
ROOT_CASES = [
    (lambda x: x**2 - 2, 0.0, 2.0),
    (lambda x: np.cos(x) - x, 0.0, 1.0),
    (lambda x: x**3 - 2 * x - 5, 2.0, 3.0),
    (lambda x: np.exp(x) - 10, 0.0, 5.0),
    (lambda x: np.tanh(50 * (x - 0.123)), -1.0, 1.0),
    (lambda x: np.log1p(x) - 0.3, -0.5, 3.0),
    (lambda x: 1 / (x + 2) - 0.4, -1.9, 5.0),
]


class TestBrentPorts:
    """The in-house Brent searches repeat scipy's iterations exactly."""

    @pytest.mark.parametrize("xatol", [1e-5, 1e-10])
    @pytest.mark.parametrize("case", range(len(MINIMIZE_CASES)))
    def test_bounded_minimizer_matches_scipy(self, case, xatol):
        f, lo, hi = MINIMIZE_CASES[case]
        res = optimize.minimize_scalar(
            f, bounds=(lo, hi), method="bounded", options={"xatol": xatol}
        )
        assert _bounded_brent(f, lo, hi, xatol) == (res.x, res.fun)

    @pytest.mark.parametrize("xtol", [1e-12, 1e-6])
    @pytest.mark.parametrize("case", range(len(ROOT_CASES)))
    def test_root_matches_brentq(self, case, xtol):
        f, a, b = ROOT_CASES[case]
        assert _brent_root(f, a, b, xtol) == optimize.brentq(f, a, b, xtol=xtol)

    def test_root_gives_up_where_brentq_does(self):
        # a triple root at 0.5: 100 steps do not reach xtol = 1e-12
        def f(x):
            return (x - 0.5) ** 3

        with pytest.raises(RuntimeError):
            optimize.brentq(f, 0.0, 2.0, xtol=1e-12)
        with pytest.raises(FitError, match="did not converge"):
            _brent_root(f, 0.0, 2.0, 1e-12)
        assert _brent_root(f, 0.0, 2.0, 1e-6) == optimize.brentq(f, 0.0, 2.0, xtol=1e-6)

    def test_root_needs_a_bracket(self):
        with pytest.raises(FitError, match="not bracketed"):
            _brent_root(lambda x: x**2 + 1, -1.0, 1.0, 1e-12)


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
            limit = gpd_nll_exponential(1.0, y)
            assert abs(full - limit) <= 1e-6 * abs(limit)

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

    @pytest.mark.parametrize("m,obs", [(np.nan, 1.0), (np.inf, 1.0), (1e4, np.nan)])
    def test_return_level_rejects_non_finite(self, m, obs):
        fit = GpdFit(threshold_u=0.0, sigma=1.0, xi=0.1, zeta_u=0.01, n_exceed=100,
                     se_sigma=0.1, se_xi=0.01, nll=0.0)
        with pytest.raises(UsageError):
            return_level(fit, m, obs_per_unit=obs)
