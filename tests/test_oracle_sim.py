import numpy as np
import pytest
from scipy.stats import kurtosis

from eegx import (
    SimSpec,
    UsageError,
    ValidationError,
    chi_matrix,
    gen_comonotone_pair,
    gen_gaussian_copula_pair,
    gen_gpd,
    gen_independent_pair,
    gen_synthetic_eeg,
    generate,
    split_at_onset,
)


def ks_distance(sample, cdf):
    xs = np.sort(sample)
    n = xs.size
    emp_hi = np.arange(1, n + 1) / n
    emp_lo = np.arange(0, n) / n
    c = cdf(xs)
    return max(np.abs(emp_hi - c).max(), np.abs(emp_lo - c).max())


class TestGpdGenerator:
    def test_exponential_mean(self):
        y = gen_gpd(50_000, 1.0, 0.0, seed=1)
        assert y.mean() == pytest.approx(1.0, abs=0.02)

    def test_survival_matches_closed_form(self):
        sigma, xi = 1.0, 0.5
        y = gen_gpd(100_000, sigma, xi, seed=2)
        for q in (0.5, 1.0, 2.0, 5.0):
            emp = np.mean(y > q)
            exact = (1 + xi * q / sigma) ** (-1 / xi)
            assert emp == pytest.approx(exact, abs=0.01)

    def test_ks_distance(self):
        n = 50_000
        y = gen_gpd(n, 2.0, 0.2, seed=3)
        cdf = lambda x: 1 - (1 + 0.2 * x / 2.0) ** (-5.0)
        assert ks_distance(y, cdf) < 1.5 / np.sqrt(n)

    def test_empty(self):
        assert gen_gpd(0, 1.0, 0.1, seed=4).size == 0

    def test_positive(self):
        y = gen_gpd(10_000, 0.5, -0.3, seed=5)
        assert np.all(y > 0)

    def test_determinism(self):
        assert np.array_equal(gen_gpd(100, 1.0, 0.1, seed=6), gen_gpd(100, 1.0, 0.1, seed=6))

    def test_bad_sigma(self):
        with pytest.raises(UsageError):
            gen_gpd(10, -1.0, 0.1, seed=0)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf])
    def test_non_finite_sigma(self, sigma):
        with pytest.raises(UsageError, match=r"sigma must lie in \(0, inf\)"):
            gen_gpd(10, sigma, 0.1, seed=0)


class TestCopulaGenerators:
    def test_independent_corr(self):
        u, v = gen_gaussian_copula_pair(50_000, 0.0, seed=7)
        assert abs(np.corrcoef(u, v)[0, 1]) < 0.02

    def test_strong_spearman(self):
        from scipy.stats import spearmanr

        u, v = gen_gaussian_copula_pair(20_000, 0.99, seed=8)
        assert spearmanr(u, v).statistic > 0.98

    def test_margins_uniform(self):
        n = 50_000
        u, v = gen_gaussian_copula_pair(n, 0.5, seed=9)
        for m in (u, v):
            assert ks_distance(m, lambda x: x) < 1.5 / np.sqrt(n)

    def test_comonotone(self):
        u, v = gen_comonotone_pair(1_000, seed=10)
        assert np.array_equal(u, v)

    def test_independent_pair_uniform(self):
        n = 50_000
        a, b = gen_independent_pair(n, seed=11)
        assert ks_distance(a, lambda x: x) < 1.5 / np.sqrt(n)
        assert ks_distance(b, lambda x: x) < 1.5 / np.sqrt(n)

    def test_rho_domain(self):
        with pytest.raises(UsageError):
            gen_gaussian_copula_pair(10, 1.0, seed=0)


class TestSyntheticEeg:
    def test_geometry(self):
        rec = gen_synthetic_eeg(4, 50_000, 0.7, seed=0)
        assert rec.onset_index == 35_000
        assert rec.n_samples == 50_000
        assert rec.channels[0] == "T3"
        assert rec.fs == 100.0

    def test_kurtosis_contrast(self):
        rec = gen_synthetic_eeg(3, 50_000, 0.7, seed=1)
        pair = split_at_onset(rec)
        for c in range(3):
            assert kurtosis(pair.pre.data[:, c], fisher=False) == pytest.approx(3.0, abs=0.3)
            assert kurtosis(pair.post.data[:, c], fisher=False) > 6.0

    def test_chi_contrast_over_seeds(self):
        wins = 0
        n_seeds = 20
        for seed in range(n_seeds):
            rec = gen_synthetic_eeg(3, 10_000, 0.7, seed=seed)
            pair = split_at_onset(rec)
            pre = chi_matrix(pair.pre, 0.95, n_boot=0)
            post = chi_matrix(pair.post, 0.95, n_boot=0)
            if all(
                post.chi_values[0, j] > pre.chi_values[0, j] for j in (1, 2)
            ):
                wins += 1
        assert wins >= 0.95 * n_seeds

    def test_determinism(self):
        r1 = gen_synthetic_eeg(3, 2_000, 0.5, seed=5)
        r2 = gen_synthetic_eeg(3, 2_000, 0.5, seed=5)
        assert np.array_equal(r1.data, r2.data)

    def test_reference_loading_largest(self):
        rec = gen_synthetic_eeg(4, 20_000, 0.5, seed=6)
        post = rec.data[rec.onset_index :]
        variances = post.var(axis=0)
        assert variances[0] == max(variances)

    def test_validation(self):
        with pytest.raises(UsageError):
            gen_synthetic_eeg(1, 10_000, 0.5, seed=0)
        with pytest.raises(UsageError):
            gen_synthetic_eeg(3, 500, 0.5, seed=0)
        with pytest.raises(UsageError):
            gen_synthetic_eeg(3, 10_000, 1.5, seed=0)


class TestSimSpec:
    def test_dispatch(self):
        spec = SimSpec(kind="gpd", seed=3, params={"n": 100, "sigma": 1.0, "xi": 0.1})
        y = generate(spec)
        assert y.shape == (100,)
        assert np.array_equal(y, gen_gpd(100, 1.0, 0.1, seed=3))

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            SimSpec(kind="mystery", seed=0)

    @pytest.mark.parametrize(
        "kind,params",
        [
            ("gpd", {"n": 2.5, "sigma": 1.0, "xi": 0.1}),
            ("synthetic_eeg", {"channels": 2.9, "T": 1_000, "onset_fraction": 0.5}),
            ("synthetic_eeg", {"channels": 2, "T": 1_000.7, "onset_fraction": 0.5}),
        ],
        ids=["n", "channels", "T"],
    )
    def test_non_integer_size_param(self, kind, params):
        with pytest.raises(UsageError, match="must be an integer"):
            generate(SimSpec(kind=kind, seed=0, params=params))

    def test_missing_param(self):
        with pytest.raises(UsageError, match="missing parameter"):
            generate(SimSpec(kind="gpd", seed=0, params={"n": 10}))

    def test_synthetic_eeg_spec(self):
        spec = SimSpec(
            kind="synthetic_eeg",
            seed=1,
            params={"channels": 2, "T": 1_000, "onset_fraction": 0.5},
        )
        rec = generate(spec)
        assert rec.n_channels == 2
        assert rec.onset_index == 500


@pytest.mark.parametrize(
    "make",
    [
        lambda seed: gen_gpd(10, 1.0, 0.1, seed),
        lambda seed: gen_gaussian_copula_pair(10, 0.5, seed),
        lambda seed: gen_comonotone_pair(10, seed),
        lambda seed: gen_independent_pair(10, seed),
        lambda seed: gen_synthetic_eeg(2, 2_000, 0.5, seed=seed),
    ],
    ids=["gpd", "copula", "comonotone", "independent", "synthetic_eeg"],
)
@pytest.mark.parametrize("seed", [-1, 1.5, None])
def test_bad_seed(make, seed):
    with pytest.raises(UsageError, match="seed"):
        make(seed)


@pytest.mark.parametrize(
    "name,make",
    [
        ("n", lambda n: gen_gpd(n, 1.0, 0.1, 0)),
        ("n", lambda n: gen_gaussian_copula_pair(n, 0.5, 0)),
        ("n", lambda n: gen_comonotone_pair(n, 0)),
        ("n", lambda n: gen_independent_pair(n, 0)),
        ("channels", lambda n: gen_synthetic_eeg(n, 2_000, 0.5, seed=0)),
        ("T", lambda n: gen_synthetic_eeg(2, n, 0.5, seed=0)),
    ],
    ids=["gpd", "copula", "comonotone", "independent", "synthetic_eeg-channels", "synthetic_eeg-T"],
)
@pytest.mark.parametrize("n", [-1, 2.5, 2000.5, None])
def test_bad_size(name, make, n):
    with pytest.raises(UsageError, match=f"^{name} must be"):
        make(n)


def test_numpy_integer_sizes():
    n = np.int64(5)
    assert gen_gpd(n, 1.0, 0.1, 0).shape == (5,)
    assert all(u.shape == (5,) for u in gen_gaussian_copula_pair(n, 0.5, 0))
    assert all(u.shape == (5,) for u in gen_comonotone_pair(n, 0))
    assert all(u.shape == (5,) for u in gen_independent_pair(n, 0))
    rec = gen_synthetic_eeg(np.int64(2), np.int64(1_000), 0.5, seed=0)
    assert rec.n_channels == 2 and rec.n_samples == 1_000
