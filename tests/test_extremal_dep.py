import concurrent.futures
import math
import multiprocessing
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from eegx import (
    DataError,
    SizeError,
    SparseTailError,
    UsageError,
    ValidationError,
    chi_matrices,
    chi_matrix,
    chi_u,
    gen_comonotone_pair,
    gen_gaussian_copula_pair,
    gen_independent_pair,
    uniform_scores,
)
from eegx import signal_io as sio
from eegx.extremal_dep import (
    _bootstrap_weights,
    _chi_arrays,
    _exceedance_counts,
    _interval,
    _sorted_columns,
    _tail_windows,
    stationary_bootstrap_indices,
)


class TestUniformScores:
    def test_simple(self):
        assert np.allclose(uniform_scores(np.array([10.0, 20.0, 30.0])), [0.25, 0.5, 0.75])

    def test_ties_averaged(self):
        assert np.allclose(uniform_scores(np.array([5.0, 5.0])), [0.5, 0.5])

    def test_monotone(self):
        x = np.array([9.0, 7.0, 5.0, 3.0])
        s = uniform_scores(x)
        assert np.all(np.diff(s) < 0)

    def test_range(self):
        s = uniform_scores(np.random.default_rng(0).standard_normal(100))
        assert np.all((s > 0) & (s < 1))

    @given(seed=st.integers(0, 10_000), n=st.integers(2, 400), decimals=st.integers(0, 2))
    @settings(max_examples=60, deadline=None)
    def test_equals_rankdata(self, seed, n, decimals):
        x = np.round(np.random.default_rng(seed).standard_normal(n), decimals)  # tie-heavy
        assert np.array_equal(uniform_scores(x), stats.rankdata(x, "average") / (n + 1))

    def test_nan_rejected(self):
        with pytest.raises(DataError):
            uniform_scores(np.array([1.0, np.nan, 2.0]))


class TestChiPair:
    def test_comonotone_exact_one(self):
        u1, u2 = gen_comonotone_pair(20_000, seed=1)
        sx, sy = uniform_scores(u1), uniform_scores(u2)
        for u in (0.9, 0.95, 0.98, 0.937):
            chi, chibar = chi_u(sx, sy, u)
            assert chi == 1.0
            assert chibar == 1.0

    def test_independent(self):
        a, b = gen_independent_pair(20_000, seed=2)
        chi, chibar = chi_u(uniform_scores(a), uniform_scores(b), 0.95)
        assert chi == pytest.approx(0.05, abs=0.02)
        assert chibar == pytest.approx(0.0, abs=0.1)

    def test_gaussian_copula_against_mc_oracle(self):
        # oracle: joint exceedances of true normal quantiles, 10^6 draws
        from scipy.special import ndtri

        rng = np.random.default_rng(123456)
        n = 1_000_000
        z1 = rng.standard_normal(n)
        z2 = 0.5 * z1 + np.sqrt(0.75) * rng.standard_normal(n)
        q = ndtri(0.95)
        oracle = np.mean((z1 > q) & (z2 > q)) / 0.05

        a, b = gen_gaussian_copula_pair(200_000, 0.5, seed=99)
        chi, _ = chi_u(uniform_scores(a), uniform_scores(b), 0.95)
        assert chi == pytest.approx(oracle, abs=0.02)

    def test_sparse_tail(self):
        a, b = gen_independent_pair(200, seed=3)
        with pytest.raises(SparseTailError, match="lower u"):
            chi_u(uniform_scores(a), uniform_scores(b), 0.99)

    def test_bad_level(self):
        a, b = gen_independent_pair(100, seed=4)
        with pytest.raises(UsageError):
            chi_u(uniform_scores(a), uniform_scores(b), 1.0)

    def test_nan_scores(self):
        s = uniform_scores(np.arange(100.0))
        with pytest.raises(DataError, match="NaN"):
            chi_u(np.full(100, np.nan), np.full(100, np.nan), 0.9)
        with pytest.raises(DataError, match="NaN"):
            chi_u(s, np.where(s > 0.5, np.nan, s), 0.9)

    def test_symmetry(self):
        a, b = gen_gaussian_copula_pair(5_000, 0.4, seed=5)
        sx, sy = uniform_scores(a), uniform_scores(b)
        assert chi_u(sx, sy, 0.9) == chi_u(sy, sx, 0.9)

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_monotone_margin_invariance(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(2_000)
        y = 0.5 * x + rng.standard_normal(2_000)
        sx, sy = uniform_scores(x), uniform_scores(y)
        sx2 = uniform_scores(np.exp(3.0 * x) + 7.0)
        sy2 = uniform_scores(2.0 * y - 5.0)
        assert chi_u(sx, sy, 0.9) == chi_u(sx2, sy2, 0.9)

    def test_bounds(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            x, y = rng.standard_normal((2, 3_000))
            chi, chibar = chi_u(uniform_scores(x), uniform_scores(y), 0.9)
            assert 0.0 <= chi <= 1.0
            assert -1.0 <= chibar <= 1.0


class TestStationaryBootstrap:
    def test_valid_indices(self):
        rng = np.random.default_rng(0)
        idx = stationary_bootstrap_indices(1000, 50.0, rng)
        assert idx.shape == (1000,)
        assert idx.min() >= 0 and idx.max() < 1000

    def test_blocks_are_contiguous(self):
        rng = np.random.default_rng(1)
        idx = stationary_bootstrap_indices(500, 100.0, rng)
        steps = np.diff(idx)
        # within a block consecutive indices step by 1 (mod n)
        ok = (steps == 1) | (steps == 1 - 500)
        assert ok.mean() > 0.9  # most transitions continue a block

    def test_mean_block_length(self):
        rng = np.random.default_rng(2)
        lengths = []
        for _ in range(200):
            idx = stationary_bootstrap_indices(2000, 25.0, rng)
            steps = np.diff(idx)
            restarts = np.count_nonzero((steps != 1) & (steps != 1 - 2000)) + 1
            lengths.append(2000 / restarts)
        assert np.mean(lengths) == pytest.approx(25.0, rel=0.2)

    def test_bad_block(self):
        with pytest.raises(UsageError):
            stationary_bootstrap_indices(10, 0.5, np.random.default_rng(0))
        with pytest.raises(UsageError):
            stationary_bootstrap_indices(10, np.nan, np.random.default_rng(0))


class TestBootstrapWeights:
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 400),
        mean_block=st.one_of(
            st.floats(1.0, 50.0),  # non-integer means
            st.sampled_from([1.0, 2.0, 400.0, 1e6]),  # up to one wrapping block
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_equal_counted_resample(self, seed, n, mean_block):
        w = _bootstrap_weights(n, mean_block, np.random.default_rng(seed))
        idx = stationary_bootstrap_indices(n, mean_block, np.random.default_rng(seed))
        assert np.array_equal(w, np.bincount(idx, minlength=n))


class TestSortFreeRanks:
    """Exceedance counts scored from multiplicities and sorted tails
    against counting the built resample, ranked by ``rankdata``."""

    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 400),
        c=st.integers(1, 4),
        decimals=st.integers(0, 2),
        mean_block=st.floats(1.0, 50.0),
        levels=st.lists(st.floats(0.001, 0.999), min_size=1, max_size=4),
        on_score=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_equal_rankdata_on_resamples(
        self, seed, n, c, decimals, mean_block, levels, on_score
    ):
        rng = np.random.default_rng(seed)
        m = np.round(rng.standard_normal((n, c)), decimals)  # tie-heavy
        idx = stationary_bootstrap_indices(n, mean_block, rng)
        s = stats.rankdata(m[idx], method="average", axis=0) / (n + 1)
        if on_score:  # levels that equal a score exactly: not exceeded
            levels = list(s[rng.integers(0, n, len(levels)), 0]) + levels[:1]
        want = [(s > u).T.astype(float) @ (s > u) for u in levels]
        got = _exceedance_counts(_sorted_columns(m), np.bincount(idx, minlength=n), levels)
        assert np.array_equal(got, want)

    @given(seed=st.integers(0, 10_000), n=st.integers(2, 400), decimals=st.integers(0, 2))
    @settings(max_examples=40, deadline=None)
    def test_unit_weights_rank_the_data(self, seed, n, decimals):
        m = np.round(np.random.default_rng(seed).standard_normal((n, 3)), decimals)
        s = stats.rankdata(m, method="average", axis=0) / (n + 1)
        levels = (0.95, 0.5, 0.95, 0.8)
        want = [(s > u).T.astype(float) @ (s > u) for u in levels]
        got = _exceedance_counts(_sorted_columns(m), np.ones(n, dtype=int), levels)
        assert np.array_equal(got, want)


def _column(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """One test column: tie-free, rounded, constant, two-valued with a
    top group of 3 % or 10 % of the values, or amplitudes of spread 3
    stored to a step of 0.5, 2 or 4 (``"step2"``)."""
    if kind == "constant":
        return np.full(n, 2.5)
    if kind.startswith("two"):
        return (rng.random(n) < float(kind[3:])).astype(float)
    x = rng.standard_normal(n)
    if kind.startswith("step"):
        step = float(kind[4:])
        return np.round(3.0 * x / step) * step
    return np.round(x, 1) if kind == "rounded" else x


_KINDS = ["random", "rounded", "constant", "two0.03", "two0.1"]


class TestPointEstimateWindow:
    """Without replicates each column is sorted only over the top window
    the point estimate scores, or in full where that window does not
    reach below the lowest level; the values must be the full sort's."""

    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 600),
        kinds=st.lists(st.sampled_from(_KINDS), min_size=2, max_size=4),
        levels=st.sampled_from([(0.5,), (0.99, 0.7), (0.95,), (0.1, 0.9)]),
    )
    @settings(max_examples=80, deadline=None)
    def test_equals_full_sort(self, seed, n, kinds, levels):
        # a level of 0.1 gives a window that covers the column
        rng = np.random.default_rng(seed)
        m = np.column_stack([_column(kind, n, rng) for kind in kinds])
        joint = _exceedance_counts(_sorted_columns(m), np.ones(n, dtype=np.intp), levels)
        chi, chibar = _chi_arrays(joint, n)
        for k, cm in enumerate(chi_matrices(m, levels, n_boot=0)):
            assert np.array_equal(cm.chi_values, chi[k], equal_nan=True)
            assert np.array_equal(cm.chibar_values, chibar[k], equal_nan=True)
            i, j = np.triu_indices(len(kinds), 1)
            assert [e.n_eff for e in cm.estimates] == list(joint[k][i, j])

    @pytest.mark.parametrize("kind,level,top_only", [
        ("random", 0.95, True),
        ("rounded", 0.95, True),
        # a tie group straddles the window's bottom and is taken in whole
        ("step0.5", 0.95, True),
        ("step2", 0.95, True),
        ("step4", 0.95, True),
        ("step2", 0.99, True),
        ("random", 0.1, False),  # the window covers the column
        ("constant", 0.95, False),  # one tie group fills the column
        ("two0.1", 0.95, False),  # the top group, 10 %, scores above 0.95
        ("two0.03", 0.95, False),  # the top group, 3 %, scores above 0.95
    ])
    def test_sorts_in_full_where_the_window_falls_short(self, kind, level, top_only, monkeypatch):
        # numpy keeps a tie group below kth next to it, but argpartition
        # promises only a partition: shuffle what lies below kth
        argpartition = np.argpartition

        def shuffled_below(a, kth):
            order = argpartition(a, kth)
            order[:kth] = np.random.default_rng(kth).permutation(order[:kth])
            return order

        monkeypatch.setattr(np, "argpartition", shuffled_below)
        rng = np.random.default_rng(7)
        col = _column(kind, 2_000, rng)
        ((order, first),) = _sorted_columns(col[:, None], level)
        q = 2_000 - next(_tail_windows(2_000, level))
        assert bool(first[0]) is not top_only  # a full sort starts a group at 0
        assert np.array_equal(np.sort(order), np.arange(2_000))
        # the sorted part starts at the first group start, at or below q,
        # with every value under it smaller and every group start marked
        bottom = int(np.argmax(first))
        assert bottom <= q
        v = col[order[bottom:]]
        assert np.all(col[order[:bottom]] < v[0])
        assert np.all(np.diff(v) >= 0)
        assert np.array_equal(first[bottom + 1:], v[1:] != v[:-1])


def _assert_same_matrix(a, b):
    assert a.channels == b.channels and a.u == b.u
    # repr round-trips floats exactly and renders NaN comparably
    assert repr(a.estimates) == repr(b.estimates)
    assert np.array_equal(a.chi_values, b.chi_values, equal_nan=True)
    assert np.array_equal(a.chibar_values, b.chibar_values, equal_nan=True)


class TestChiMatrices:
    @pytest.mark.parametrize("seed", [0, 5])
    def test_equals_one_level_calls(self, seed):
        a, b = gen_gaussian_copula_pair(1_500, 0.5, seed=20 + seed)
        m = np.column_stack([a, b, np.round(a + b, 1)])
        levels = (0.9, 0.95, 0.995)  # the last one leaves sparse pairs
        many = chi_matrices(m, levels, n_boot=50, seed=seed, mean_block_len=8.0)
        assert len(many) == len(levels)
        assert np.isfinite(many[0].estimates[0].ci_chi).all()
        assert any(e.sparse for e in many[2].estimates)
        for u, cm in zip(levels, many):
            _assert_same_matrix(
                cm, chi_matrix(m, u, n_boot=50, seed=seed, mean_block_len=8.0)
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        m = np.random.default_rng(0).standard_normal((200, 3))
        m[17, 1] = bad
        with pytest.raises(ValidationError, match="finite"):
            chi_matrices(m, (0.9,), n_boot=0)

    @pytest.mark.parametrize("n_boot", [-3, 2.5, "10"])
    def test_rejects_bad_n_boot(self, n_boot):
        m = np.random.default_rng(1).standard_normal((200, 2))
        with pytest.raises(UsageError, match="n_boot"):
            chi_matrix(m, 0.9, n_boot=n_boot)

    @pytest.mark.parametrize("seed", [-1, 1.5, None, "3"])
    def test_rejects_bad_seed(self, seed):
        m = np.random.default_rng(1).standard_normal((200, 2))
        for n_boot in (0, 5):
            with pytest.raises(UsageError, match="seed"):
                chi_matrices(m, (0.9,), n_boot=n_boot, seed=seed)

    def test_rejects_nan_block(self):
        m = np.random.default_rng(1).standard_normal((200, 2))
        with pytest.raises(UsageError, match="block"):
            chi_matrices(m, (0.9,), n_boot=5, mean_block_len=np.nan)

    @pytest.mark.parametrize("levels", [
        (), (0.9, 1.0), (0.0,), 0.9,
        "a", ("0.9",), (0.9, None), (np.array([0.9]),),  # a string is a sequence of levels
    ])
    def test_rejects_bad_levels(self, levels):
        m = np.random.default_rng(2).standard_normal((200, 2))
        with pytest.raises(UsageError):
            chi_matrices(m, levels, n_boot=0)

    def test_accepts_numpy_float_levels(self):
        m = np.random.default_rng(2).standard_normal((200, 2))
        got = chi_matrices(m, np.array([0.9, 0.95]), n_boot=0)
        _matrices_equal(got, chi_matrices(m, (0.9, 0.95), n_boot=0))

    @pytest.mark.parametrize("rows", [0, 1])
    def test_rejects_fewer_than_two_rows(self, rows):
        with pytest.raises(SizeError, match="at least 2 observations"):
            chi_matrix(np.ones((rows, 2)), 0.9, n_boot=0)

    def test_every_sample_exceeds(self):
        # u below the lowest score 1/(n+1): both paths give chi = chibar = 1
        rng = np.random.default_rng(3)
        x, y = rng.standard_normal((2, 300))
        u = 0.5 / 301
        assert chi_u(uniform_scores(x), uniform_scores(y), u) == (1.0, 1.0)
        cm = chi_matrix(np.column_stack([x, y]), u, n_boot=20, seed=1)
        est = cm.estimates[0]
        assert (est.chi, est.chibar) == (1.0, 1.0)
        assert est.ci_chi == est.ci_chibar == (1.0, 1.0)

    @pytest.mark.parametrize("decimals", [0, 1, None])
    def test_every_resampled_value_exceeds(self, decimals):
        # a resample's lowest score is still >= 1/(n+1), ties or not, so
        # every replicate counts every value at u = 0.5/(n+1)
        m = np.random.default_rng(4).standard_normal((300, 3))
        if decimals is not None:
            m = np.round(m, decimals)
        u = 0.5 / 301
        for cm in chi_matrices(m, (u, 0.9, u), n_boot=25, seed=2, mean_block_len=7.5)[::2]:
            assert (cm.chi_values == 1.0).all() and (cm.chibar_values == 1.0).all()
            for e in cm.estimates:
                assert e.n_eff == 300
                assert e.ci_chi == e.ci_chibar == (1.0, 1.0)

    @pytest.mark.parametrize("decimals", [1, 2])
    def test_unsorted_repeated_levels(self, decimals):
        # levels in any order, repeated: each equals its one-level call
        rng = np.random.default_rng(30 + decimals)
        a, b = gen_gaussian_copula_pair(1_200, 0.6, seed=31)
        m = np.round(np.column_stack([a, b, rng.standard_normal(1_200)]), decimals)
        levels = (0.98, 0.9, 0.95, 0.9)
        args = dict(n_boot=40, seed=8, mean_block_len=12.5)
        many = chi_matrices(m, levels, **args)
        assert [cm.u for cm in many] == list(levels)
        assert np.isfinite(many[1].estimates[0].ci_chi).all()
        for u, cm in zip(levels, many):
            _assert_same_matrix(cm, chi_matrix(m, u, **args))

    def test_sub_hertz_recording_default_block(self):
        from eegx import EegRecording

        data = np.random.default_rng(15).standard_normal((500, 2))
        rec = EegRecording(channels=("a", "b"), fs=0.5, data=data)
        cm = chi_matrix(rec, 0.9, n_boot=5, seed=2)  # blocks of mean length 1
        _assert_same_matrix(
            cm, chi_matrix(data, 0.9, n_boot=5, seed=2, mean_block_len=1.0, channels=("a", "b"))
        )
        with pytest.raises(UsageError, match="block"):
            chi_matrix(rec, 0.9, n_boot=5, mean_block_len=0.5)


class TestChiMatrix:
    def test_pair_count_19_channels(self):
        rng = np.random.default_rng(6)
        cm = chi_matrix(rng.standard_normal((2_000, 19)), 0.9, n_boot=0)
        assert len(cm.estimates) == 171
        assert cm.chi_values.shape == (19, 19)

    def test_diagonal_is_one(self):
        rng = np.random.default_rng(7)
        cm = chi_matrix(rng.standard_normal((1_000, 3)), 0.9, n_boot=0)
        assert np.all(np.diag(cm.chi_values) == 1.0)
        assert np.all(np.diag(cm.chibar_values) == 1.0)

    def test_duplicated_channel(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(5_000)
        cm = chi_matrix(np.column_stack([x, x, rng.standard_normal(5_000)]), 0.95, n_boot=0)
        assert cm.chi_values[0, 1] == 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(9)
        cm = chi_matrix(rng.standard_normal((3_000, 4)), 0.9, n_boot=0)
        assert np.array_equal(cm.chi_values, cm.chi_values.T)
        assert np.array_equal(cm.chibar_values, cm.chibar_values.T)

    def test_independent_chibar_near_zero(self):
        rng = np.random.default_rng(10)
        cm = chi_matrix(rng.standard_normal((20_000, 2)), 0.95, n_boot=0)
        assert abs(cm.chibar_values[0, 1]) <= 0.15

    def test_bootstrap_intervals_bracket(self):
        a, b = gen_gaussian_copula_pair(5_000, 0.6, seed=11)
        cm = chi_matrix(np.column_stack([a, b]), 0.9, n_boot=100, seed=4)
        est = cm.estimates[0]
        lo, hi = est.ci_chi
        assert lo <= est.chi <= hi
        assert lo < hi
        assert est.n_eff >= 5

    def test_bootstrap_deterministic(self):
        a, b = gen_gaussian_copula_pair(2_000, 0.3, seed=12)
        m = np.column_stack([a, b])
        c1 = chi_matrix(m, 0.9, n_boot=50, seed=3)
        c2 = chi_matrix(m, 0.9, n_boot=50, seed=3)
        assert c1.estimates[0].ci_chi == c2.estimates[0].ci_chi

    def test_sparse_pair_flagged_not_fatal(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal(300)
        y = -x  # countermonotone: zero joint exceedances at high u
        cm = chi_matrix(np.column_stack([x, y]), 0.95, n_boot=0)
        est = cm.estimates[0]
        assert est.sparse
        assert np.isnan(est.chi)

    def test_recording_input_uses_labels(self):
        from eegx import EegRecording

        rng = np.random.default_rng(14)
        rec = EegRecording(
            channels=("T3", "O1"), fs=100.0, data=rng.standard_normal((2_000, 2))
        )
        cm = chi_matrix(rec, 0.9, n_boot=0)
        assert cm.estimates[0].pair == ("T3", "O1")

    def test_needs_two_channels(self):
        with pytest.raises(ValidationError):
            chi_matrix(np.zeros((100, 1)), 0.9, n_boot=0)

    def test_label_count_must_match(self):
        with pytest.raises(ValidationError, match="channel label count must match data columns"):
            chi_matrix(np.zeros((100, 2)), 0.9, n_boot=0, channels=("a",))


def _matrices_equal(a, b):
    """Every chi/chibar value and interval of two ``chi_matrices`` results."""
    for x, y in zip(a, b, strict=True):
        assert np.array_equal(x.chi_values, y.chi_values, equal_nan=True)
        assert np.array_equal(x.chibar_values, y.chibar_values, equal_nan=True)
        ci = [[e.ci_chi + e.ci_chibar for e in m.estimates] for m in (x, y)]
        assert np.array_equal(*ci, equal_nan=True)
        assert [e.n_eff for e in x.estimates] == [e.n_eff for e in y.estimates]


def _serial_intervals(data, u, n_boot, seed, mean_block):
    """Per pair, the (chi lo, chi hi, chibar lo, chibar hi) intervals of
    the bootstrap as first written: one resample after another, each
    ranked afresh and scored pair by pair with ``chi_u``."""
    n, c = data.shape
    reps = np.full((n_boot, c * (c - 1) // 2, 2), np.nan)
    for b, ss in enumerate(np.random.SeedSequence(seed).spawn(n_boot)):
        idx = stationary_bootstrap_indices(n, mean_block, np.random.default_rng(ss))
        scores = [uniform_scores(col[idx]) for col in data.T]
        pairs = [(i, j) for i in range(c) for j in range(i + 1, c)]
        for p, (i, j) in enumerate(pairs):
            try:
                reps[b, p] = chi_u(scores[i], scores[j], u)
            except SparseTailError:
                pass
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN pairs
        lo, hi = np.nanpercentile(reps, 2.5, axis=0), np.nanpercentile(reps, 97.5, axis=0)
    return np.column_stack([lo[:, 0], hi[:, 0], lo[:, 1], hi[:, 1]]).tolist()


class TestInterval:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_boot=st.integers(1, 40),
        c=st.integers(1, 4),
        nan_share=st.sampled_from([0.0, 0.3, 0.9, 1.0]),
    )
    @example(seed=0, n_boot=1, c=3, nan_share=0.3)
    @example(seed=1, n_boot=200, c=4, nan_share=0.9)
    @settings(max_examples=100, deadline=None)
    def test_equals_nanpercentile(self, seed, n_boot, c, nan_share):
        # ties, signed zeros, NaN cells and one all-NaN cell
        rng = np.random.default_rng(seed)
        reps = np.round(rng.uniform(-1.0, 1.0, (n_boot, c, c)), 1)
        reps[rng.uniform(size=reps.shape) < nan_share] = np.nan
        reps[:, 0, 0] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the all-NaN cells
            want = (np.nanpercentile(reps, 2.5, axis=0), np.nanpercentile(reps, 97.5, axis=0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _interval(reps)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


class _NoPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a process pool was started")


class TestBootstrapPool:
    """The replicates are cut into one block per usable core; the result
    must not depend on the cut."""

    @pytest.fixture(scope="class")
    def data(self):
        rng = np.random.default_rng(41)
        x = rng.standard_normal(800)
        return np.column_stack([x + rng.standard_normal(800), np.round(x, 1),
                                rng.standard_normal(800)])

    @pytest.mark.parametrize("n_boot", [1, 7, 200])
    def test_blocks_equal_one_process(self, data, n_boot, monkeypatch):
        levels = (0.9, 0.95, 0.995)  # the last one leaves sparse pairs
        results = []
        for cores in (1, 2, 3):
            monkeypatch.setattr(sio, "_usable_cores", lambda: cores)
            results.append(chi_matrices(data, levels, n_boot=n_boot, seed=3,
                                        mean_block_len=6.0))
        for other in results[1:]:
            _matrices_equal(results[0], other)
        for u, cm in zip(levels, results[0]):
            want = _serial_intervals(data, u, n_boot, seed=3, mean_block=6.0)
            got = [e.ci_chi + e.ci_chibar for e in cm.estimates]
            assert np.array_equal(got, want, equal_nan=True)

    def test_no_bootstrap_starts_no_pool(self, data, monkeypatch):
        monkeypatch.setattr(sio, "_usable_cores", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _NoPool)
        cm = chi_matrix(data, 0.9, n_boot=0)
        assert np.isnan(cm.estimates[0].ci_chi).all()

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="the pool needs fork")
    def test_no_pool_guard_fires(self, data, monkeypatch):
        # the guard above would notice a pool: a bootstrap does start one
        monkeypatch.setattr(sio, "_usable_cores", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _NoPool)
        with pytest.raises(AssertionError, match="pool was started"):
            chi_matrix(data, 0.9, n_boot=2)


# strictly increasing maps that keep values 0.01 apart on [-5, 5] distinct
_INCREASING = (
    lambda x: x,
    np.exp,
    np.arctan,
    lambda x: x**3 + x,
    lambda x: 2.0 * x - 7.0,
)


class TestBootstrapInvariants:
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(60, 400),
        maps=st.lists(st.sampled_from(range(len(_INCREASING))), min_size=3, max_size=3),
        decimals=st.integers(1, 2),
    )
    @settings(max_examples=25, deadline=None)
    def test_rank_invariance(self, seed, n, maps, decimals):
        m = np.round(np.random.default_rng(seed).standard_normal((n, 3)), decimals)
        mapped = np.column_stack([_INCREASING[k](m[:, j]) for j, k in enumerate(maps)])
        args = dict(n_boot=15, seed=seed, mean_block_len=4.0)
        _matrices_equal(chi_matrices(m, (0.8, 0.9), **args),
                        chi_matrices(mapped, (0.8, 0.9), **args))

    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(200, 500),
        maps=st.lists(st.sampled_from(range(len(_INCREASING))), min_size=2, max_size=4),
        u=st.sampled_from([0.5, 0.8, 0.9]),
        decimals=st.sampled_from([1, 2, None]),
    )
    @settings(max_examples=25, deadline=None)
    def test_comonotone_is_one(self, seed, n, maps, u, decimals):
        x = np.random.default_rng(seed).standard_normal(n)
        if decimals is not None:
            x = np.round(x, decimals)  # ties, shared by every column
        m = np.column_stack([_INCREASING[k](x) for k in maps])
        cm = chi_matrix(m, u, n_boot=10, seed=seed, mean_block_len=3.0)
        assert (cm.chi_values == 1.0).all() and (cm.chibar_values == 1.0).all()
        for e in cm.estimates:
            assert e.ci_chi == e.ci_chibar == (1.0, 1.0)


def _ar1_copula_pair(n: int, rho: float, phi: float, seed: int) -> np.ndarray:
    """(n x 2) stationary AR(1) pair with coefficient ``phi`` and unit
    variance, whose innovations have correlation ``rho``; so every row is
    bivariate normal with correlation ``rho``, a Gaussian copula. The
    recursion runs as a doubling scan: after the step with lag k, each row
    sums phi**j times the innovations j < 2k rows back."""
    rng = np.random.default_rng(seed)
    e = rng.standard_normal((n, 2)) * np.sqrt(1.0 - phi**2)
    e[:, 1] = rho * e[:, 0] + np.sqrt(1.0 - rho**2) * e[:, 1]
    e[0] /= np.sqrt(1.0 - phi**2)  # the first row at the stationary variance
    lag, weight = 1, phi
    while weight > 2.0**-64:
        e[lag:] += weight * e[:-lag]
        lag, weight = 2 * lag, weight * weight
    return e


def _binomial_band(m: int, p: float, alpha: float = 0.01) -> tuple[int, int]:
    """Counts (lo, hi) with P(X < lo) <= alpha/2 and P(X > hi) <= alpha/2
    for X ~ Binomial(m, p)."""
    pmf = [math.comb(m, k) * p**k * (1.0 - p) ** (m - k) for k in range(m + 1)]
    cdf = np.cumsum(pmf)
    lo = int(np.searchsorted(cdf, alpha / 2, side="right"))
    hi = int(np.searchsorted(cdf, 1.0 - alpha / 2, side="left"))
    return lo, hi


class TestIntervalCoverage:
    """How often chi's 95 % percentile interval holds the true chi on a
    serially dependent Gaussian-copula pair (rho = 0.6, AR(1) margins with
    phi = 0.95, n = 20 000, u = 0.95). Seeded, and sized to a few seconds:
    40 seeds of 100 replicates each."""

    RHO, PHI, N, U, SEEDS, N_BOOT = 0.6, 0.95, 20_000, 0.95, 40, 100

    @pytest.fixture(scope="class")
    def truth(self):
        q = stats.norm.ppf(self.U)
        joint = stats.multivariate_normal([0.0, 0.0], [[1.0, self.RHO], [self.RHO, 1.0]])
        return (1.0 - 2.0 * self.U + joint.cdf([q, q])) / (1.0 - self.U)

    def covered(self, truth, mean_block_len):
        hits = 0
        for seed in range(self.SEEDS):
            pair = _ar1_copula_pair(self.N, self.RHO, self.PHI, seed)
            (est,) = chi_matrix(pair, self.U, n_boot=self.N_BOOT, seed=seed,
                                mean_block_len=mean_block_len).estimates
            hits += est.ci_chi[0] <= truth <= est.ci_chi[1]
        return hits

    def test_truth(self, truth):
        assert truth == pytest.approx(0.3105, abs=1e-4)

    def test_blocks_of_one_second_cover(self, truth):
        # L = 100, the one second that report and chi pass at fs = 100
        # (200 seeds of 200 replicates: 0.950); inside the 99 % band
        lo, hi = _binomial_band(self.SEEDS, 0.95)
        assert lo <= self.covered(truth, 100.0) <= hi

    def test_blocks_of_one_undercover(self, truth):
        # L = 1, the bare-matrix default, treats the rows as independent
        # and covers about 0.55 (200 seeds of 200 replicates: 0.550): the
        # known limit the README states. Far below the band, which shows
        # that the band can fail an interval
        lo, _ = _binomial_band(self.SEEDS, 0.95)
        assert self.covered(truth, 1.0) < lo
