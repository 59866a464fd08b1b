import tracemalloc
import warnings
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from eegx import (
    ChannelLookupError,
    ConditionalSample,
    DataError,
    DomainError,
    EegRecording,
    HtFit,
    SizeError,
    UsageError,
    ValidationError,
    conditional_model,
    conditional_summary,
    fit_gpd,
    fit_ht,
    fit_marginal,
    from_laplace,
    gen_gaussian_copula_pair,
    gen_independent_pair,
    gen_synthetic_eeg,
    laplace_cdf,
    laplace_quantile,
    simulate_conditional,
    split_at_onset,
    to_laplace,
    uniform_scores,
)
from eegx import cond_extremes
from eegx.cond_extremes import _ecdf_interp, _probability
from eegx.extremal_dep import _tail_windows


def laplace_margins(u):
    return laplace_quantile(uniform_scores(u))


class TestLaplace:
    def test_quantiles(self):
        assert laplace_quantile(0.5) == 0.0
        assert laplace_quantile(0.25) == pytest.approx(np.log(0.5), abs=1e-12)
        assert laplace_quantile(0.975) == pytest.approx(-np.log(0.05), abs=1e-12)

    def test_cdf_inverts_quantile(self):
        p = np.linspace(0.01, 0.99, 37)
        assert np.allclose(laplace_cdf(laplace_quantile(p)), p, atol=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            laplace_quantile(0.0)
        with pytest.raises(DomainError):
            laplace_quantile(np.array([0.5, 1.0]))
        with pytest.raises(DomainError):
            laplace_quantile(np.nan)
        with pytest.raises(DomainError):
            laplace_cdf(np.nan)
        with pytest.raises(DomainError):
            laplace_cdf(np.array([0.0, np.nan]))


class TestMarginalTransform:
    def setup_method(self):
        rng = np.random.default_rng(21)
        self.x = rng.standard_normal(5_000) * 2.0 + 1.0
        self.mt = fit_marginal(self.x, 0.95, channel="A")

    def test_median_maps_near_zero(self):
        med = float(np.median(self.x))
        assert abs(to_laplace(med, self.mt)) < 0.01

    def test_monotone(self):
        xs = np.sort(np.random.default_rng(22).choice(self.x, 500, replace=False))
        ys = to_laplace(xs, self.mt)
        assert np.all(np.diff(ys) >= 0)

    def test_splice_continuity(self):
        # CDF approaching u from below matches the GPD branch at u
        eps = 1e-9 * max(1.0, abs(self.mt.u))
        below = to_laplace(self.mt.u - eps, self.mt)
        at = to_laplace(self.mt.u, self.mt)
        above = to_laplace(self.mt.u + eps, self.mt)
        p_below, p_at, p_above = laplace_cdf(np.array([below, at, above]))
        assert abs(p_at - (1.0 - self.mt.zeta_u)) <= 1e-9
        assert p_below <= p_at <= p_above
        assert p_above - p_below <= 1e-6

    def test_roundtrip_gpd_branch(self):
        tail = self.x[self.x > np.quantile(self.x, 0.97)]
        back = from_laplace(to_laplace(tail, self.mt), self.mt)
        assert np.allclose(back, tail, rtol=1e-6)

    def test_roundtrip_body_within_rank_resolution(self):
        body = self.x[self.x <= self.mt.u]
        back = from_laplace(to_laplace(body, self.mt), self.mt)
        # worst case one rank step
        gap = np.abs(np.argsort(np.argsort(back)) - np.argsort(np.argsort(body)))
        assert gap.max() <= 1
        assert np.allclose(back, body, atol=np.ptp(body) * 0.01)

    @given(seed=st.integers(0, 10_000), xi=st.floats(-0.45, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_gpd_branch_exact(self, seed, xi):
        # GPD-distributed samples; every value above the threshold whose
        # CDF is below the 1 - 1/(2n) clamp inverts to rounding (values
        # above the clamp map to its Laplace value, by design)
        log_surv = np.log(np.random.default_rng(seed).random(400))
        x = 2.0 * np.expm1(-xi * log_surv) / xi if xi != 0.0 else -2.0 * log_surv
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a fit on a parameter bound
            mt = fit_marginal(x, 0.9)
        tail = np.concatenate([x[x > mt.u], np.linspace(mt.u, x.max(), 50)[1:]])
        tail = tail[_probability(mt, tail) < 1.0 - 1.0 / (2 * mt.n)]
        assert tail.size > 0
        back = from_laplace(to_laplace(tail, mt), mt)
        np.testing.assert_allclose(back, tail, rtol=1e-10, atol=0.0)

    def test_exponential_tail_branches(self):
        # xi = 0 is the exponential tail: survival zeta_u * exp(-(x - u) / sigma),
        # inverted by a log
        x = np.random.default_rng(23).exponential(2.0, 5_000)
        fitted = fit_marginal(x, 0.95)
        mt = replace(fitted, gpd=replace(fitted.gpd, xi=0.0))
        tail = np.linspace(mt.u, x.max(), 200)[1:]
        p = 1.0 - mt.zeta_u * np.exp(-(tail - mt.u) / mt.gpd.sigma)
        below = p < 1.0 - 1.0 / (2 * mt.n)  # the clamp
        tail, p = tail[below], p[below]
        assert tail.size > 100
        np.testing.assert_array_equal(_probability(mt, tail), p)
        back = from_laplace(to_laplace(tail, mt), mt)
        np.testing.assert_allclose(back, tail, rtol=1e-12, atol=0.0)

    def test_probability_clamp(self):
        huge = to_laplace(self.x.max() * 100, self.mt)
        assert laplace_cdf(huge) <= 1.0 - 1.0 / (2 * self.mt.n) + 1e-12

    def test_quantile_range_enforced(self):
        with pytest.raises(UsageError):
            fit_marginal(self.x, 0.5)

    def test_too_small(self):
        with pytest.raises(SizeError):
            fit_marginal(np.arange(10.0), 0.95)

    def test_decreasing_sample_rejected(self):
        with pytest.raises(ValidationError, match="sorted_sample must be nondecreasing"):
            replace(self.mt, sorted_sample=self.mt.sorted_sample[::-1])


def _ecdf_interp_unsorted(xs, x):
    """The empirical CDF as one ``np.interp`` over the queries in their
    own order: the reference the sorted-query form must equal."""
    n = xs.size
    p_at = np.arange(1, n + 1) / (n + 1.0)
    return np.interp(x, xs, p_at, left=p_at[0], right=p_at[-1])


def _tied_sample(seed, n, decimals, top, bottom):
    """A sorted, rounded sample with ``top`` extra copies of its maximum and
    ``bottom`` of its minimum, so both end knots repeat."""
    x = np.round(np.random.default_rng(seed).standard_normal(n), decimals)
    return np.sort(np.concatenate([x, np.full(top, x.max()), np.full(bottom, x.min())]))


def _same_floats(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestSortedEcdf:
    """``_ecdf_interp`` evaluates its queries in sorted order; every float
    must be the one the unsorted ``np.interp`` returns."""

    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 300),
        decimals=st.integers(0, 2),
        top=st.integers(0, 5),
        bottom=st.integers(0, 5),
        n_query=st.integers(0, 400),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_unsorted_interp(self, seed, n, decimals, top, bottom, n_query):
        xs = _tied_sample(seed, n, decimals, top, bottom)
        rng = np.random.default_rng(seed + 1)
        pool = np.concatenate([
            xs,  # every knot, repeated ones included
            np.round(rng.uniform(xs[0] - 1.0, xs[-1] + 1.0, 50), decimals + 1),
            [xs[0] - 5.0, xs[-1] + 5.0, np.inf, -np.inf, np.nan, -0.0],
        ])
        x = rng.choice(pool, n_query)  # unsorted, with repeats
        assert _same_floats(_ecdf_interp(xs, x), _ecdf_interp_unsorted(xs, x))
        assert _same_floats(_ecdf_interp(xs, xs), _ecdf_interp_unsorted(xs, xs))

    @pytest.mark.parametrize("query", [
        0.0, np.float64(0.5), np.nan, np.inf, -np.inf, [0.25], np.array([np.nan]),
        np.array([[1.0, -3.0, np.nan], [0.0, 0.0, np.inf]]),
        np.zeros((2, 0)), np.array(7, dtype=np.int64),
    ])
    def test_shapes_and_specials(self, query):
        xs = np.array([-1.0, -1.0, 0.0, 0.0, 0.0, 0.5, 2.0, 2.0])
        got = _ecdf_interp(xs, query)
        assert _same_floats(got, _ecdf_interp_unsorted(xs, query))
        assert got.shape == np.shape(query)

    def test_repeated_knot_takes_last_count(self):
        # at a tie group np.interp returns the value of its last knot:
        # the count of sample values <= x over n + 1
        xs = np.array([1.0, 2.0, 2.0, 2.0, 3.0])
        assert np.array_equal(_ecdf_interp(xs, [3.0, 2.0, 1.0]), np.array([5, 4, 1]) / 6.0)

    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(20, 400),
        decimals=st.integers(0, 2),
        top=st.integers(0, 5),
        q=st.sampled_from([0.8, 0.9, 0.95, 0.999]),
    )
    @settings(max_examples=80, deadline=None)
    def test_zeta_is_the_ecdf_at_u(self, seed, n, decimals, top, q):
        # fit_marginal reads the empirical CDF at u from the two knots
        # around it; tied samples put u on a repeated knot
        x = _tied_sample(seed, n, decimals, top, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a fit on a parameter bound
            try:
                mt = fit_marginal(np.random.default_rng(seed).permutation(x), q)
            except SizeError:  # too few excesses above a tied threshold
                reject()
        assert mt.zeta_u == 1.0 - float(_ecdf_interp_unsorted(x, mt.u))

    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(200, 3_000),
        decimals=st.integers(0, 2),
        q=st.sampled_from([0.8, 0.9, 0.95]),
    )
    @settings(max_examples=40, deadline=None)
    def test_laplace_of_sample_unchanged(self, seed, n, decimals, q):
        # to_laplace(x, fit_marginal(x)) on rounded, tie-heavy data, against
        # the same transform computed with the unsorted np.interp
        x = np.round(np.random.default_rng(seed).standard_t(4, n), decimals)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a fit on a parameter bound
            try:
                mt = fit_marginal(x, q)
            except SizeError:  # too few excesses above a tied threshold
                reject()
            got = to_laplace(x, mt)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(cond_extremes, "_ecdf_interp", _ecdf_interp_unsorted)
                mt_ref = fit_marginal(x, q)
                want = to_laplace(x, mt_ref)
        assert (mt.u, mt.zeta_u, mt.gpd.sigma, mt.gpd.xi) == (
            mt_ref.u, mt_ref.zeta_u, mt_ref.gpd.sigma, mt_ref.gpd.xi)
        assert _same_floats(got, want)


def _quantile_marginal(x, q):
    """What fit_marginal computed before it read u off its sorted copy:
    u from ``np.quantile`` over a flat copy of the sample, then the same
    excesses, ECDF knots and GPD fit. Returns (u, zeta_u, gpd, sorted)."""
    x = np.asarray(x, dtype=float).ravel()
    u = float(np.quantile(x, q))
    excesses = x[x > u] - u
    if excesses.size < 10:
        raise SizeError(
            f"only {excesses.size} excesses above the {q:g} quantile; need >= 10"
        )
    xs = np.sort(x)
    j = np.searchsorted(xs, u, "right") - 1
    knots = np.array([j + 1, j + 2]) / (x.size + 1.0)
    zeta = 1.0 - float(np.interp(u, xs[j:j + 2], knots[: xs[j:j + 2].size]))
    return u, zeta, fit_gpd(excesses, threshold_u=u, zeta_u=zeta), xs


_QUANTILES = (0.8, 0.9, 0.95, 0.975, 0.99, 0.999)


def _h_cases(frac):
    """(n, q) with q in ``_QUANTILES`` and n >= 20 whose type-7 position
    h = (n - 1) q has fractional part ``frac``, in floating point."""
    return [
        (n, q) for q in _QUANTILES for n in range(20, 3_002)
        if (n - 1) * q - np.floor((n - 1) * q) == frac
    ]


_WHOLE_H, _HALF_H = _h_cases(0.0), _h_cases(0.5)


def _marginal_sample(seed, n, kind, layout):
    rng = np.random.default_rng(seed)
    x = 3.0 * rng.standard_normal(n)
    if kind.startswith("step"):
        step = float(kind[4:])
        x = np.round(x / step) * step
    elif kind == "two":
        x = np.where(rng.random(n) < rng.uniform(0.01, 0.5), 2.5, -1.0)
    elif kind == "pareto":  # far-apart top order statistics
        x = rng.pareto(0.7, n)
    elif kind == "straddle":  # the threshold near 0, between signs
        x -= np.quantile(x, rng.uniform(0.8, 0.999))
    if layout == "strided":  # a channel of a recording's matrix
        m = rng.standard_normal((n, 3))
        m[:, 1] = x
        return m[:, 1]
    if layout == "2d":
        return x.reshape(-1, 2) if n % 2 == 0 else x[:, None]
    if layout == "2d-fortran":
        return np.asfortranarray(x.reshape(-1, 2) if n % 2 == 0 else x[:, None])
    return x


class TestThresholdFromSortedCopy:
    """fit_marginal reads u off its sorted copy with numpy's own type-7
    lerp; u, zeta_u and every GPD field must be what ``np.quantile``
    gave, float for float."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_q=st.one_of(
            st.tuples(st.integers(20, 3_000), st.sampled_from(_QUANTILES) | st.floats(0.8, 0.999)),
            st.sampled_from(_WHOLE_H),
            st.sampled_from(_HALF_H),
        ),
        kind=st.sampled_from(
            ["raw", "step0.5", "step1", "step2", "step4", "step8", "two", "pareto", "straddle"]
        ),
        layout=st.sampled_from(["flat", "strided", "2d", "2d-fortran"]),
    )
    # samples where the lerp's two forms round apart, at t >= 0.5 and t < 0.5
    @example(seed=56, n_q=(523, 0.9), kind="pareto", layout="flat")
    @example(seed=383, n_q=(265, 0.95), kind="straddle", layout="strided")
    @example(seed=1316, n_q=(1564, 0.9), kind="raw", layout="2d")
    @example(seed=133, n_q=(2018, 0.95), kind="pareto", layout="2d-fortran")
    @example(seed=511, n_q=(1498, 0.9), kind="raw", layout="flat")
    @settings(max_examples=150, deadline=None)
    def test_equals_np_quantile(self, seed, n_q, kind, layout):
        n, q = n_q
        x = _marginal_sample(seed, n, kind, layout)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                want = _quantile_marginal(x, q)
            except SizeError as exc:
                want = exc
        with warnings.catch_warnings(record=True) as caught_now:
            warnings.simplefilter("always")
            try:
                mt = fit_marginal(x, q)
            except SizeError as exc:
                assert isinstance(want, SizeError) and str(exc) == str(want)
                return
        assert [str(w.message) for w in caught_now] == [str(w.message) for w in caught]
        u, zeta, gpd, xs = want
        assert mt.u == u == float(np.quantile(x, q))
        assert mt.zeta_u == zeta
        assert np.array_equal(mt.sorted_sample, xs)
        for f in fields(gpd):
            a, b = getattr(mt.gpd, f.name), getattr(gpd, f.name)
            if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
                assert np.array_equal(a, b, equal_nan=True), f.name
            else:
                assert a == b or (a != a and b != b), f.name

    @pytest.mark.parametrize("n,q,frac", [
        (201, 0.95, 0.0), (211, 0.95, 0.5), (2_001, 0.99, 0.0), (2_051, 0.99, 0.5),
    ])
    def test_whole_and_half_positions(self, n, q, frac):
        # the lerp at t = 0, an order statistic, and at t = 0.5, where
        # np.quantile switches to its b - (b - a)(1 - t) form
        assert (n, q) in (_WHOLE_H if frac == 0.0 else _HALF_H)
        x = _marginal_sample(3, n, "raw", "flat")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a fit on a parameter bound
            u = fit_marginal(x, q).u
        assert u == float(np.quantile(x, q))
        a, b = np.sort(x)[int((n - 1) * q):][:2]
        assert u == (a if frac == 0.0 else b - (b - a) * 0.5)


class TestFitHt:
    def test_comonotone(self):
        x = np.random.default_rng(31).standard_normal(50_000)
        y = laplace_quantile(uniform_scores(x))
        fit = fit_ht(y, y, 0.95)
        assert fit.alpha >= 0.99
        # residual spread collapses for perfect dependence
        assert fit.s * np.mean(np.abs(fit.residuals_z)) < 1e-6

    def test_antithetic(self):
        x = np.random.default_rng(32).standard_normal(50_000)
        y = laplace_quantile(uniform_scores(x))
        fit = fit_ht(y, -y, 0.95)
        assert fit.alpha == pytest.approx(-1.0, abs=0.02)

    def test_independence(self):
        a, b = gen_independent_pair(50_000, seed=1)
        fit = fit_ht(laplace_margins(a), laplace_margins(b), 0.95)
        assert abs(fit.alpha) <= 0.1
        # residuals are approximately standard Laplace
        z = fit.residuals_z
        probs = np.arange(0.05, 0.951, 0.05)
        gap = np.abs(np.quantile(z, probs) - laplace_quantile(probs)).max()
        assert gap < 0.15

    def test_gaussian_copula_limits(self):
        u1, u2 = gen_gaussian_copula_pair(100_000, 0.6, seed=0)
        fit = fit_ht(laplace_margins(u1), laplace_margins(u2), 0.99)
        assert fit.alpha == pytest.approx(0.36, abs=0.12)
        assert fit.beta == pytest.approx(0.5, abs=0.2)

    def test_pseudo_likelihood_optimality(self):
        u1, u2 = gen_gaussian_copula_pair(30_000, 0.5, seed=2)
        yc, yd = laplace_margins(u1), laplace_margins(u2)
        fit = fit_ht(yc, yd, 0.95)
        keep = yc > fit.cond_threshold_laplace
        y, yde = yc[keep], yd[keep]

        def full_nll(alpha, beta, mu, s):
            w = y**beta
            n = y.size
            return (
                n * np.log(s)
                + beta * np.log(y).sum()
                + 0.5 * n * np.log(2 * np.pi)
                + np.sum((yde - alpha * y - mu * w) ** 2 / (2 * s**2 * w**2))
            )

        base = full_nll(fit.alpha, fit.beta, fit.mu, fit.s)
        for da in (-0.02, 0.0, 0.02):
            for db in (-0.02, 0.0, 0.02):
                for dm in (-0.02, 0.0, 0.02):
                    for fs_ in (1 / 1.02, 1.0, 1.02):
                        alpha = np.clip(fit.alpha + da, -1, 1)
                        beta = min(fit.beta + db, 1 - 1e-6)
                        nll = full_nll(alpha, beta, fit.mu + dm, fit.s * fs_)
                        assert base <= nll + 1e-7

    def test_residual_uncorrelated_with_conditioner(self):
        u1, u2 = gen_gaussian_copula_pair(100_000, 0.6, seed=3)
        yc = laplace_margins(u1)
        fit = fit_ht(yc, laplace_margins(u2), 0.95)
        y = yc[yc > fit.cond_threshold_laplace]
        corr = np.corrcoef(fit.residuals_z, y)[0, 1]
        assert abs(corr) < 0.1

    def test_self_consistency(self):
        # refit on data simulated from a fitted model recovers (alpha, beta)
        u1, u2 = gen_gaussian_copula_pair(100_000, 0.6, seed=4)
        fit = fit_ht(laplace_margins(u1), laplace_margins(u2), 0.99)
        rng = np.random.default_rng(5)
        n = 100_000
        y = fit.cond_threshold_laplace + rng.standard_exponential(n)
        z = rng.choice(fit.residuals_z, size=n, replace=True)
        y_dep = fit.alpha * y + y**fit.beta * z
        refit = fit_ht(y, y_dep, 0.99)
        assert refit.alpha == pytest.approx(fit.alpha, abs=0.1)
        assert refit.beta == pytest.approx(fit.beta, abs=0.2)

    def test_needs_30_exceedances(self):
        rng = np.random.default_rng(6)
        x = laplace_quantile(uniform_scores(rng.standard_normal(400)))
        with pytest.raises(SizeError):
            fit_ht(x, x, 0.95)

    def test_quantile_range(self):
        rng = np.random.default_rng(7)
        x = laplace_quantile(uniform_scores(rng.standard_normal(1_000)))
        with pytest.raises(UsageError):
            fit_ht(x, x, 0.5)

    def test_deterministic(self):
        u1, u2 = gen_gaussian_copula_pair(20_000, 0.4, seed=8)
        ya, yb = laplace_margins(u1), laplace_margins(u2)
        f1 = fit_ht(ya, yb, 0.95)
        f2 = fit_ht(ya, yb, 0.95)
        assert (f1.alpha, f1.beta, f1.nll) == (f2.alpha, f2.beta, f2.nll)


def _conditional_model_full(rec, cond_channel, cond_quantile, marginal_quantile):
    """The conditional model with every channel Laplace-transformed in
    full and each fit made on the full series: the reference the
    exceedance-rows-only form must equal."""
    transforms, laplace = {}, {}
    for name in rec.channels:
        mt = fit_marginal(rec.channel(name), marginal_quantile, channel=name)
        transforms[name] = mt
        laplace[name] = to_laplace(rec.channel(name), mt)
    fits = {
        name: fit_ht(laplace[cond_channel], laplace[name], cond_quantile,
                     cond_channel=cond_channel, dep_channel=name)
        for name in rec.channels
        if name != cond_channel
    }
    return fits, transforms


def _outcome(fn, *args):
    """(result, or the exception's type and message; every warning's
    category and message, in order)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn(*args)
        except Exception as exc:  # compared with the reference's, not handled
            result = (type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


def _assert_same(got, want, where="result"):
    """Equal bit for bit: dataclasses field by field, arrays and floats by
    their bytes, anything else by ==."""
    assert type(got) is type(want), where
    if is_dataclass(got):
        for f in fields(got):
            _assert_same(getattr(got, f.name), getattr(want, f.name), f"{where}.{f.name}")
    elif isinstance(got, dict):
        assert list(got) == list(want), where
        for key in got:
            _assert_same(got[key], want[key], f"{where}[{key!r}]")
    elif isinstance(got, tuple):
        assert len(got) == len(want), where
        for k, (a, b) in enumerate(zip(got, want)):
            _assert_same(a, b, f"{where}[{k}]")
    elif isinstance(got, (np.ndarray, float)):
        assert _same_floats(got, want), where
    else:
        assert got == want, where


class TestConditionalModelRows:
    """``conditional_model`` Laplace-transforms each dependent channel only
    at the conditioning exceedance rows; every fit, error and warning must
    be the one the full-series loop gives."""

    @given(
        seed=st.integers(0, 10_000),
        n_channels=st.integers(2, 5),
        cond_index=st.integers(0, 4),
        n=st.sampled_from([300, 1_999, 3_000]),
        step=st.sampled_from([0.0, 0.1, 1.0]),
        cond_quantile=st.sampled_from([0.9, 0.95, 0.99]),
    )
    @settings(max_examples=40, deadline=None)
    def test_equals_full_series_loop(self, seed, n_channels, cond_index, n, step,
                                     cond_quantile):
        # channels share a heavy-tailed factor; a step > 0 rounds them to
        # its multiples, which leaves many tied values. At n = 1 999 the
        # 1 800th order statistic maps to the 0.9 Laplace level exactly,
        # which is not an exceedance
        rng = np.random.default_rng(seed)
        x = rng.standard_t(4, (n, 1)) * rng.uniform(0.0, 1.0, n_channels)
        x = x + rng.standard_t(5, (n, n_channels))
        if step:
            x = np.round(x / step) * step
        rec = EegRecording(channels=tuple(f"C{k}" for k in range(n_channels)), fs=100.0, data=x)
        cond = rec.channels[cond_index % n_channels]
        args = (rec, cond, cond_quantile, 0.95)
        got, got_warnings = _outcome(conditional_model, *args)
        want, want_warnings = _outcome(_conditional_model_full, *args)
        _assert_same(got, want)
        assert got_warnings == want_warnings

    def test_too_few_exceedances_raises_as_before(self):
        # n = 50 clamps every probability to at most 1 - 1/100, so no value
        # exceeds the 0.99 Laplace level
        x = np.random.default_rng(9).standard_normal((50, 3))
        rec = EegRecording(channels=("A", "B", "C"), fs=100.0, data=x)
        got = _outcome(conditional_model, rec, "B", 0.99, 0.8)
        assert got[0] == (SizeError, "only 0 conditioning exceedances above the "
                                     "0.99 Laplace quantile; need >= 30")
        assert got == _outcome(_conditional_model_full, rec, "B", 0.99, 0.8)

    @given(
        seed=st.integers(0, 10_000),
        bounded=st.booleans(),
        decimals=st.sampled_from([None, 1, 2]),
        n_idx=st.integers(0, 300),
    )
    @settings(max_examples=60, deadline=None)
    def test_to_laplace_is_elementwise(self, seed, bounded, decimals, n_idx):
        # to_laplace(x, mt)[idx] is to_laplace(x[idx], mt), bit for bit; a
        # bounded (Beta) sample fits xi < 0, and values past its upper
        # endpoint take the clamp path
        rng = np.random.default_rng(seed)
        sample = rng.beta(2.0, 4.0, 2_000) if bounded else rng.standard_t(4, 2_000)
        if decimals is not None:
            sample = np.round(sample, decimals)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a fit on a parameter bound
            try:
                mt = fit_marginal(sample, 0.9)
            except SizeError:  # too few excesses above a tied threshold
                reject()
        x = np.concatenate([sample, rng.uniform(sample.min() - 1.0, sample.max() + 1.0, 200)])
        if bounded:
            if mt.gpd.xi >= 0:
                reject()
            endpoint = mt.u - mt.gpd.sigma / mt.gpd.xi
            x = np.concatenate([x, endpoint + np.array([0.0, 1e-9, 0.5, 3.0])])
        idx = rng.integers(0, x.size, n_idx)  # unsorted, with repeats
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            full = to_laplace(x, mt)
        if bounded:
            assert any("clamped" in str(w.message) for w in caught)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the clamp, when idx holds such a value
            assert _same_floats(to_laplace(x[idx], mt), full[idx])

    def test_peak_memory(self):
        # 8 x 20 000: the full-series loop held every channel's Laplace
        # series until the last fit and peaked at 3.72x the matrix; reading
        # only the exceedance rows peaks at 2.69x, and 2.88x is a 7 % margin
        rec = gen_synthetic_eeg(8, 20_000, 0.5, seed=5)
        conditional_model(rec, "T3")  # first-call costs are not the model's
        tracemalloc.start()
        try:
            conditional_model(rec, "T3")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.88 * rec.data.nbytes


def _conditional_model_whole_conditioner(rec, cond_channel, cond_quantile, marginal_quantile):
    """The conditional model with the conditioning channel Laplace-transformed
    in full and its exceedance rows taken as ``y > level``: the reference
    the top-window form must equal (for valid arguments)."""
    transforms = {
        name: fit_marginal(rec.channel(name), marginal_quantile, channel=name)
        for name in rec.channels
    }
    y = to_laplace(rec.channel(cond_channel), transforms[cond_channel])
    rows = np.flatnonzero(y > laplace_quantile(cond_quantile))
    fits = {}
    for name in rec.channels:
        if name != cond_channel:
            fit = fit_ht(y[rows], to_laplace(rec.channel(name)[rows], transforms[name]),
                         cond_quantile, cond_channel=cond_channel, dep_channel=name)
            fits[name] = replace(fit, exceed_indices=rows)
    return fits, transforms


def _rounded_recording(seed, n_channels, n, step, flat):
    """A synthetic recording rounded to multiples of ``step`` (none for 0),
    its last channel flat after the onset when ``flat``."""
    rec = gen_synthetic_eeg(n_channels, n, 0.5, seed=seed)
    data = np.round(rec.data / step) * step if step else np.array(rec.data)
    if flat:
        data[rec.onset_index:, -1] = data[rec.onset_index, -1]
    return EegRecording(rec.channels, rec.fs, data, onset_index=rec.onset_index)


class TestConditionerTopWindow:
    """``conditional_model`` Laplace-transforms the conditioning channel
    only over the top window of its sorted sample; every fit, error and
    warning must be the one transforming the whole channel gives."""

    @given(
        seed=st.integers(0, 10_000),
        n_channels=st.integers(2, 4),
        cond_index=st.integers(0, 3),
        step=st.sampled_from([0.0, 0.5, 2.0, 4.0, 8.0]),
        epoch=st.sampled_from(["pre", "post", "all"]),
        flat=st.booleans(),
        quantiles=st.sampled_from([(0.95, 0.95), (0.9, 0.95), (0.99, 0.9), (0.95, 0.8)]),
    )
    @settings(max_examples=40, deadline=None)
    def test_equals_whole_channel_transform(self, seed, n_channels, cond_index, step, epoch,
                                            flat, quantiles):
        # steps as in ROADMAP item 7: a tie group across the first
        # window's bottom often maps over the level, so the window doubles;
        # a flat channel has no excesses
        rec = _rounded_recording(seed, n_channels, 4_000, step, flat)
        if epoch != "all":
            rec = getattr(split_at_onset(rec), epoch)
        args = (rec, rec.channels[cond_index % n_channels], *quantiles)
        got, got_warnings = _outcome(conditional_model, *args)
        want, want_warnings = _outcome(_conditional_model_whole_conditioner, *args)
        _assert_same(got, want)
        assert got_warnings == want_warnings

    def test_first_window_doubles(self):
        # a floored Pareto sample from a seeded search: its GPD tail above
        # the 0.8 quantile maps more values over the 0.99 Laplace level
        # than the first window holds, so the window must double
        rng = np.random.default_rng(530)
        n, shape = int(rng.integers(3_000, 8_000)), rng.uniform(0.3, 3.0)  # 4 484, 0.68
        x = np.floor(rng.pareto(shape, n))
        rec = EegRecording(("A", "B"), 100.0, np.column_stack([x, x + rng.standard_normal(n)]))
        got = _outcome(conditional_model, rec, "A", 0.99, 0.8)
        xs = got[0][1]["A"].sorted_sample
        in_first_window = np.count_nonzero(x >= xs[-next(_tail_windows(n, 0.99))])
        assert got[0][0]["B"].n_exceed > in_first_window
        _assert_same(got, _outcome(_conditional_model_whole_conditioner, rec, "A", 0.99, 0.8))

    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(200, 3_000),
        decimals=st.sampled_from([None, 0, 1]),
        q=st.sampled_from([0.8, 0.9, 0.95]),
        clamp=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_sorted_sample_maps_nondecreasing(self, seed, n, decimals, q, clamp):
        # what reading the conditioner's top window relies on: over the
        # sample's own values, tied or not, and u, where the empirical body
        # meets the GPD tail, to_laplace never decreases; with clamp, an
        # upper endpoint halfway between u and the maximum clamps the top
        x = np.random.default_rng(seed).standard_t(4, n)
        if decimals is not None:
            x = np.round(x, decimals)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a fit on a parameter bound
            try:
                mt = fit_marginal(x, q)
            except SizeError:  # too few excesses above a tied threshold
                reject()
        if clamp:
            sigma = 0.25 * (mt.sorted_sample[-1] - mt.u)  # endpoint u + sigma / 0.5
            mt = replace(mt, gpd=replace(mt.gpd, sigma=sigma, xi=-0.5))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            y = to_laplace(np.sort(np.append(mt.sorted_sample, mt.u)), mt)
        assert np.all(np.diff(y) >= 0)
        assert any("clamped" in str(w.message) for w in caught) == clamp


#: a hand-built fit of B on A over three exceedances
_HT_FIT = HtFit(
    cond_channel="A", dep_channel="B", alpha=0.5, beta=0.1, mu=0.0, s=1.0,
    residuals_z=np.array([-1.0, 0.0, 1.0]), cond_threshold_laplace=1.0, n_exceed=3, nll=0.0,
    exceed_indices=np.arange(3),
)


class TestSimulation:
    def make_fits(self, rho=0.6, n=50_000, seed=41, q=0.95, channels=3):
        rng = np.random.default_rng(seed)
        z0 = rng.standard_normal(n)
        data = {
            "REF": z0,
        }
        for k in range(1, channels):
            data[f"D{k}"] = rho * z0 + np.sqrt(1 - rho**2) * rng.standard_normal(n)
        rec = EegRecording(
            channels=tuple(data), fs=100.0, data=np.column_stack(list(data.values()))
        )
        return conditional_model(rec, "REF", q, 0.95)

    def test_comonotone_simulation(self):
        x = np.random.default_rng(42).standard_normal(30_000)
        y = laplace_quantile(uniform_scores(x))
        fit = fit_ht(y, y, 0.95)
        sample = simulate_conditional([fit], 0.99, 5_000, seed=1)
        assert np.all(sample.cond_draws > sample.cond_level_laplace)
        assert np.allclose(sample.draws[:, 0], sample.cond_draws, atol=1e-4)

    def test_independence_simulation(self):
        a, b = gen_independent_pair(50_000, seed=43)
        fit = fit_ht(laplace_margins(a), laplace_margins(b), 0.95)
        sample = simulate_conditional([fit], 0.99, 10_000, seed=2)
        corr = np.corrcoef(sample.cond_draws, sample.draws[:, 0])[0, 1]
        assert abs(corr) < 0.05
        # marginal of the draws stays near standard Laplace
        probs = np.arange(0.1, 0.91, 0.1)
        gap = np.abs(
            np.quantile(sample.draws[:, 0], probs) - laplace_quantile(probs)
        ).max()
        assert gap < 0.2

    def test_conditional_mean_grows_linearly(self):
        fits, transforms = self.make_fits()
        fit = fits["D1"]
        sample = simulate_conditional([fit], 0.99, 50_000, seed=3)
        y = sample.cond_draws
        # remove the location drift mu * y^beta; what is left grows as alpha*y
        d = sample.draws[:, 0] - fit.mu * y**fit.beta
        slope = np.polyfit(y, d, 1)[0]
        assert slope == pytest.approx(fit.alpha, abs=0.1 * max(abs(fit.alpha), 0.3))

    def test_joint_residual_rows(self):
        fits, transforms = self.make_fits(channels=3)
        flist = [fits["D1"], fits["D2"]]
        s1 = simulate_conditional(flist, 0.99, 1_000, seed=4)
        # same residual row index is used across channels: reconstructing the
        # row from each channel must agree
        y = s1.cond_draws
        z1 = (s1.draws[:, 0] - flist[0].alpha * y) / y ** flist[0].beta
        z2 = (s1.draws[:, 1] - flist[1].alpha * y) / y ** flist[1].beta
        pairs = set(zip(np.round(flist[0].residuals_z, 9), np.round(flist[1].residuals_z, 9)))
        observed = set(zip(np.round(z1, 9), np.round(z2, 9)))
        assert observed <= pairs

    def test_back_transform(self):
        fits, transforms = self.make_fits()
        flist = list(fits.values())
        sample = simulate_conditional(
            flist, 0.99, 2_000, seed=5,
            cond_transform=transforms["REF"], dep_transforms=transforms,
        )
        assert sample.back_transformed.shape == sample.draws.shape
        # conditioning draws land above the marginal's 0.99 data quantile
        ref_q99 = from_laplace(laplace_quantile(0.99), transforms["REF"])
        assert np.all(sample.cond_back_transformed >= ref_q99 - 1e-9)

    def test_level_below_fit_quantile(self):
        fits, _ = self.make_fits(q=0.95)
        with pytest.raises(UsageError, match="below the fitting threshold"):
            simulate_conditional(list(fits.values()), 0.9, 100, seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.5, None])
    def test_bad_seed(self, seed):
        fits, _ = self.make_fits(n=5_000)
        with pytest.raises(UsageError, match="seed"):
            simulate_conditional(list(fits.values()), 0.99, 10, seed=seed)

    @pytest.mark.parametrize("n_sim", [0, 2.5])
    def test_bad_n_sim(self, n_sim):
        fits, _ = self.make_fits(n=5_000)
        with pytest.raises(UsageError, match="n_sim"):
            simulate_conditional(list(fits.values()), 0.99, n_sim, seed=0)

    def test_mixed_fits_rejected(self):
        fits_a, _ = self.make_fits(seed=1)
        fits_b, _ = self.make_fits(seed=2, q=0.96)
        with pytest.raises(UsageError):
            simulate_conditional([fits_a["D1"], fits_b["D2"]], 0.99, 10, seed=0)

    @pytest.mark.parametrize(
        "changes, message",
        [
            (None, "need at least one fitted pair to simulate"),
            ({"cond_channel": "C"}, "all fits must share the conditioning channel"),
            ({"exceed_indices": np.arange(1, 4)}, "fits were made on different exceedance sets"),
        ],
        ids=["no-fits", "two-conditioning-channels", "two-exceedance-sets"],
    )
    def test_fit_set_rejected(self, changes, message):
        fits = [] if changes is None else [_HT_FIT, replace(_HT_FIT, dep_channel="D", **changes)]
        with pytest.raises(UsageError, match=message):
            simulate_conditional(fits, 0.99, 10, seed=0)

    def test_empty_residual_set_rejected(self):
        fit = replace(_HT_FIT, residuals_z=np.empty(0), n_exceed=0, exceed_indices=None)
        with pytest.raises(UsageError, match="empty residual set"):
            simulate_conditional([fit], 0.99, 10, seed=0)

    def test_missing_dependent_transform(self):
        with pytest.raises(UsageError, match="missing marginal transform for 'B'"):
            simulate_conditional([_HT_FIT], 0.99, 10, seed=0, dep_transforms={})

    def test_deterministic(self):
        fits, _ = self.make_fits()
        flist = list(fits.values())
        s1 = simulate_conditional(flist, 0.99, 500, seed=9)
        s2 = simulate_conditional(flist, 0.99, 500, seed=9)
        assert np.array_equal(s1.draws, s2.draws)


class TestSummary:
    def test_draw_at_the_level_rejected(self):
        with pytest.raises(ValidationError, match="every conditioning draw must exceed"):
            ConditionalSample("A", ("B",), 1.0, np.array([1.0, 2.0]), np.zeros((2, 1)))

    def test_empty_sample_rejected(self):
        sample = ConditionalSample("A", ("B",), 1.0, np.empty(0), np.empty((0, 1)))
        with pytest.raises(UsageError, match="cannot summarize an empty sample"):
            conditional_summary(sample)

    def test_degenerate_constant(self):
        x = np.random.default_rng(51).standard_normal(30_000)
        y = laplace_quantile(uniform_scores(x))
        fit = fit_ht(y, y, 0.95)
        sample = simulate_conditional([fit], 0.99, 1, seed=1)
        rows = conditional_summary(sample)
        row = rows[0]
        assert row["mean"] == row["median"] == row["q05"] == row["q95"]

    def test_comonotone_mean_exceeds_level(self):
        x = np.random.default_rng(52).standard_normal(30_000)
        y = laplace_quantile(uniform_scores(x))
        fit = fit_ht(y, y, 0.95)
        sample = simulate_conditional([fit], 0.99, 5_000, seed=2)
        rows = conditional_summary(sample)
        assert rows[0]["mean"] >= laplace_quantile(0.99)

    def test_means_ordered_by_alpha(self):
        rng = np.random.default_rng(53)
        n = 80_000
        z0 = rng.standard_normal(n)
        strong = 0.8 * z0 + 0.6 * rng.standard_normal(n)
        weak = 0.3 * z0 + np.sqrt(1 - 0.09) * rng.standard_normal(n)
        rec = EegRecording(
            channels=("REF", "S", "W"),
            fs=100.0,
            data=np.column_stack([z0, strong, weak]),
        )
        fits, transforms = conditional_model(rec, "REF", 0.95, 0.95)
        assert fits["S"].alpha > fits["W"].alpha
        sample = simulate_conditional(
            [fits["S"], fits["W"]], 0.99, 20_000, seed=3
        )
        rows = {r["channel"]: r for r in conditional_summary(sample)}
        assert rows["S"]["mean"] > rows["W"]["mean"]


class TestInputContract:
    @pytest.mark.parametrize("which", ["cond", "dep"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_fit_ht_rejects_non_finite(self, which, bad):
        u1, u2 = gen_gaussian_copula_pair(5_000, 0.5, seed=11)
        yc, yd = laplace_margins(u1), laplace_margins(u2)
        target = yc if which == "cond" else yd
        target[int(np.argmax(yc))] = bad
        with pytest.raises(DataError):
            fit_ht(yc, yd, 0.95)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_fit_marginal_rejects_non_finite(self, bad):
        x = np.random.default_rng(12).standard_normal(1_000)
        x[5] = bad
        with pytest.raises(DataError):
            fit_marginal(x, 0.95)

    @pytest.mark.parametrize("q", ["0.95", None, np.array([0.95]), 0.95j])
    def test_fit_ht_rejects_non_numeric_quantile(self, q):
        x = laplace_margins(np.random.default_rng(14).random(2_000))
        with pytest.raises(UsageError, match="conditioning quantile must be a real number"):
            fit_ht(x, x, cond_quantile=q)

    @pytest.mark.parametrize("q", ["0.95", None, [0.95]])
    def test_fit_marginal_rejects_non_numeric_quantile(self, q):
        x = np.random.default_rng(15).standard_normal(1_000)
        with pytest.raises(UsageError, match="threshold quantile must be a real number"):
            fit_marginal(x, q)

    @pytest.mark.parametrize("bad", [np.nan, np.array([0.0, np.nan, 1.0])])
    def test_to_laplace_names_nan_input(self, bad):
        mt = fit_marginal(np.random.default_rng(17).standard_normal(1_000), 0.95)
        with pytest.raises(DataError, match="to_laplace input contains NaN"):
            to_laplace(bad, mt)

    @pytest.mark.parametrize("bad", ["a", "abc", ["1.0", "x"], [[1.0], [1.0, 2.0]]])
    def test_arrays_that_are_not_numbers_raise_data_error(self, bad):
        mt = fit_marginal(np.random.default_rng(18).standard_normal(1_000), 0.95)
        with pytest.raises(DataError, match="to_laplace input must hold real numbers"):
            to_laplace(bad, mt)
        with pytest.raises(DataError, match="marginal sample must hold real numbers"):
            fit_marginal(bad)

    def test_numpy_float_quantiles_accepted(self):
        x = np.random.default_rng(16).standard_normal(2_000)
        assert fit_marginal(x, np.float64(0.95)).u == fit_marginal(x, 0.95).u
        u1, u2 = gen_gaussian_copula_pair(5_000, 0.5, seed=11)
        yc, yd = laplace_margins(u1), laplace_margins(u2)
        assert fit_ht(yc, yd, np.float32(0.95)).n_exceed > 0

    def test_conditional_model_needs_two_channels(self):
        x = np.random.default_rng(13).standard_normal(2_000)
        rec = EegRecording(channels=("REF",), fs=100.0, data=x[:, None])
        with pytest.raises(ValidationError, match="at least 2 channels"):
            conditional_model(rec, "REF", 0.95, 0.95)

    def test_conditional_model_unknown_channel(self):
        x = np.random.default_rng(13).standard_normal((2_000, 2))
        rec = EegRecording(channels=("REF", "D1"), fs=100.0, data=x)
        with pytest.raises(ChannelLookupError, match=r"'nope'; available: \['REF', 'D1'\]"):
            conditional_model(rec, "nope")
