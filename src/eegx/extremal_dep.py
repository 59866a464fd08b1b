"""Empirical pairwise tail-dependence diagnostics chi(u) and chibar(u).

Both statistics are computed on rank (uniform) scores, so they are
exactly invariant under strictly increasing transforms of either
margin. With joint exceedance probability p_joint = P(Sx > u, Sy > u)
and pooled marginal exceedance probability p_marg,

    chi(u)    = p_joint / p_marg                  clamped to [0, 1]
    chibar(u) = 2 * log(p_marg) / log(p_joint) - 1  clamped to [-1, 1]

p_marg is the empirical average of the two margins' exceedance
fractions; on rank scores it equals 1 - u up to rank granularity, and
using the pooled empirical value makes comonotone inputs yield exactly
chi = chibar = 1 at every level. Confidence intervals come from a
stationary block bootstrap (geometric block lengths) that respects the
serial dependence of EEG samples.

A resample is never built. Its blocks give how often each sample
appears in it (a difference array over the blocks), and each column is
sorted once, so a tie group's average rank in the resample follows from
the multiplicities of the groups above it. Only a column's upper tail
is scored: a window of its top sorted positions, doubled until it
reaches below the lowest level's cutoff. The scores grow along the
sorted order, so ``searchsorted`` finds each level's cutoff and a
level's exceedances are a suffix of the order; the joint counts are
multiplicity sums over those suffixes, the same integers as counting
the scored resample. The point estimate is the same computation with
every multiplicity 1, and every level is scored on the same resamples.
Without replicates, the point estimate alone sorts each column only
over the first window it scores, and in full only where that window
does not reach below the lowest level.

Replicate b draws from the b-th child of ``SeedSequence(seed).spawn``
and depends on nothing else but the sorted columns, so the replicates
are cut into one contiguous block of seeds per usable core, and each
block is one item of ``signal_io``'s pool, scored by a closure over the
sorted columns; the parent joins the blocks in order, and the intervals
do not depend on the cut (one item per replicate gives the same bytes,
but more slowly). ``chi_matrices`` opens a pool for the call;
``report`` submits both epochs' blocks (``_submit_chi_matrices``) to
the pool of its pass and fits the conditional models while they are
scored. There is no setting, and ``n_boot=0`` starts no pool.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import signal_io as sio
from .errors import (
    DataError,
    SizeError,
    SparseTailError,
    UsageError,
    ValidationError,
    check_floats,
    check_int,
    check_real,
)

MIN_JOINT_EXCEEDANCES = 5
DEFAULT_U_GRID = (0.90, 0.95, 0.98)
DEFAULT_N_BOOT = 200


@dataclass(frozen=True)
class ChiEstimate:
    """chi/chibar for one channel pair at one quantile level."""

    pair: tuple[str, str]
    u: float
    chi: float
    chibar: float
    ci_chi: tuple[float, float]
    ci_chibar: tuple[float, float]
    n_eff: int
    sparse: bool = False


@dataclass(frozen=True)
class ChiMatrix:
    """All unordered-pair estimates at one level, plus dense views.

    ``chi_values``/``chibar_values`` are symmetric (C x C) arrays with 1
    on the diagonal and NaN for sparse pairs.
    """

    channels: tuple[str, ...]
    u: float
    estimates: tuple[ChiEstimate, ...]
    chi_values: np.ndarray
    chibar_values: np.ndarray


def uniform_scores(x: np.ndarray) -> np.ndarray:
    """Rank transform to (0, 1): rank / (n + 1), average ranks on ties.

    NaN has no rank and is rejected.
    """
    x = check_floats(x, "series", ndim=1)
    if x.size < 2:
        raise SizeError(f"need at least 2 observations, got {x.size}")
    if np.isnan(x).any():
        raise DataError("cannot rank NaN")
    ((order, first),) = _sorted_columns(x[:, None])
    starts = np.flatnonzero(first)
    ends = np.append(starts[1:], x.size)
    scores = np.empty(x.size)
    scores[order] = np.repeat(_rank_scores(starts, ends, x.size), ends - starts)
    return scores


def chi_u(
    scores_x: np.ndarray, scores_y: np.ndarray, u: float
) -> tuple[float, float]:
    """Empirical (chi, chibar) of a paired score series at level ``u``.

    Raises :class:`SparseTailError` when fewer than 5 joint exceedances
    are available; pick a lower ``u`` in that case.
    """
    sx = check_floats(scores_x, "scores", ndim=1, finite=True)
    sy = check_floats(scores_y, "scores", ndim=1, finite=True)
    if sx.shape != sy.shape:
        raise ValidationError("score series must be of equal length")
    check_real(u, "quantile level", "(0, 1)")
    exceeds = (np.column_stack([sx, sy]) > u).astype(np.float64)
    joint = exceeds.T @ exceeds
    n_joint = int(joint[0, 1])
    if n_joint < MIN_JOINT_EXCEEDANCES:
        raise SparseTailError(
            f"only {n_joint} joint exceedances at u={u:g} "
            f"(need >= {MIN_JOINT_EXCEEDANCES}); lower u"
        )
    chi, chibar = _chi_arrays(joint, sx.size)
    return float(chi[0, 1]), float(chibar[0, 1])


def stationary_bootstrap_indices(
    n: int, mean_block: float, rng: np.random.Generator
) -> np.ndarray:
    """One stationary-bootstrap resample of 0..n-1 (Politis-Romano).

    Blocks have geometric length with the given mean and wrap around the
    end of the series.
    """
    check_real(mean_block, "mean block length", "[1, inf)")
    restart, starts = _bootstrap_draws(n, mean_block, rng)
    pos = np.arange(n)
    last_restart = np.maximum.accumulate(np.where(restart, pos, -1))
    offset = pos - last_restart
    return (starts[last_restart] + offset) % n


def _bootstrap_draws(n: int, mean_block: float, rng: np.random.Generator):
    """The random draws of one stationary-bootstrap resample: where a block
    starts (always at position 0), and for every position the sample a
    block starting there begins with."""
    restart = rng.random(n) < 1.0 / float(mean_block)
    restart[0] = True
    return restart, rng.integers(0, n, size=n)


def _bootstrap_weights(n: int, mean_block: float, rng: np.random.Generator) -> np.ndarray:
    """How often each of 0..n-1 appears in the resample that
    ``stationary_bootstrap_indices`` draws from the same generator state,
    counted block by block with a difference array instead of built."""
    restart, starts = _bootstrap_draws(n, mean_block, rng)
    at = np.flatnonzero(restart)
    first = starts[at]
    end = first + np.diff(at, append=n)
    wrap = end > n  # the block runs on from sample 0, at most once round
    step = np.bincount(first, minlength=n + 1) - np.bincount(end - n * wrap, minlength=n + 1)
    step[0] += np.count_nonzero(wrap)
    return np.cumsum(step[:n])


def _tail_windows(n: int, level: float):
    """Sizes of the top window of n sorted values to search for the values
    above ``level``, smallest first: the level's share of n plus 30 %
    slack, which makes a second window rare, then doubled until the last
    covers all n."""
    window = int(1.3 * (1.0 - level) * n) + 1
    while window < n:
        yield window
        window *= 2
    yield n


def _sorted_columns(matrix: np.ndarray, level=None) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per column, an argsort and a mask of the sorted positions where a
    tie group (a run of equal values) starts. Every count is taken over
    whole tie groups, so the order within a group does not matter, and
    the default sort is several times faster than a stable one.

    With ``level``, the lowest level of a point estimate (every
    multiplicity 1), a column is sorted only over the first window of
    ``_tail_windows``, the one ``_exceedance_counts`` scores first, when
    that window reaches below the level: below the window the order is
    a partition and no position starts a group. A column is sorted in
    full when one tie group fills the window, when its first whole group
    still scores above the level, or when the window covers it.
    """
    n = matrix.shape[0]
    q = 0 if level is None else n - next(_tail_windows(n, level))  # the window's bottom
    cols = []
    for col in matrix.T:
        if q:
            order = np.argpartition(col, q - 1)
            order[q:] = order[q:][np.argsort(col[order[q:]])]
            v = col[order[q - 1:]]
            first = np.zeros(n, dtype=bool)
            first[q:] = v[1:] != v[:-1]
            g = np.append(q + np.flatnonzero(first[q:]), n)
            if g.size > 1 and _rank_scores(g[0], g[1], n) <= level:
                cols.append((order, first))
                continue
        order = np.argsort(col)
        v = col[order]
        cols.append((order, np.r_[True, v[1:] != v[:-1]]))
    return cols


def _rank_scores(below, through, n: int):
    """Uniform score of a tie group with ``below`` of the n values under
    it and ``through`` at or under it: its average rank over n + 1, the
    same float ``rankdata(method="average") / (n + 1)`` gives."""
    return 0.5 * (through + below + 1) / (n + 1.0)


def _exceedance_counts(cols, weights: np.ndarray, levels) -> np.ndarray:
    """Joint exceedance counts, (levels x C x C), of the sample in which
    row i of the matrix appears ``weights[i]`` times, scored column-wise
    by ``uniform_scores``; ``cols`` is ``_sorted_columns(matrix)``.

    The same integers as ``(s > u).T @ (s > u)`` on the scores s of the
    built sample. Only each column's upper tail is scored, and the
    counts at level u are weight sums over the suffixes of the sort
    orders that exceed u.
    """
    n, c = weights.size, len(cols)
    lev, back = np.unique(levels, return_inverse=True)
    cuts = np.full((c, lev.size + 1), n)  # sorted position of each level's cutoff, then n
    for a, (order, first) in enumerate(cols):
        # a resample's top 1 - u share comes mostly from the column's top
        # (1 - u) n values; the last window covers the column
        for window in _tail_windows(n, lev[0]):
            g = n - window + np.flatnonzero(first[n - window:])  # the groups starting here
            if g.size:  # else a single tie group fills the window
                tail = np.cumsum(weights[order[g[0]:]][::-1])[::-1]
                above = tail[g - g[0]]  # weight at or above each group's first position
                scores = _rank_scores(n - above, n - np.append(above[1:], 0), n)
                if scores[0] <= lev[0]:  # reaches below every cutoff
                    break
        cuts[a, :-1] = np.append(g, n)[np.searchsorted(scores, lev, side="right")]
    depth = np.zeros((n, c), dtype=np.min_scalar_type(lev.size))  # levels exceeded
    for a, (order, _) in enumerate(cols):
        depth[order[cuts[a, 0]:], a] = np.repeat(np.arange(1, lev.size + 1), np.diff(cuts[a]))
    joint = np.empty((lev.size, c, c))
    for a, (order, _) in enumerate(cols):
        rows = order[cuts[a, 0]:]
        tail_depth = np.take(depth, rows, axis=0)
        tail_weights = np.take(weights, rows).astype(float)
        for k, skip in enumerate(cuts[a, :-1] - cuts[a, 0]):  # column a's level-k suffix
            joint[k, a] = tail_weights[skip:] @ (tail_depth[skip:] > k)
    return joint[back]


def _chi_arrays(joint: np.ndarray, n: int):
    """Dense chi/chibar matrices from joint exceedance counts (... x C x C,
    marginal counts on the diagonal) of n samples; NaN where the joint
    count is too small."""
    marg = np.diagonal(joint, axis1=-2, axis2=-1)
    pooled = 0.5 * (marg[..., :, None] + marg[..., None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        chi = np.clip((joint / n) / (pooled / n), 0.0, 1.0)
        chibar = np.clip(2.0 * np.log(pooled / n) / np.log(joint / n) - 1.0, -1.0, 1.0)
    chibar[joint == n] = 1.0  # every sample exceeds: defined as 1, agreeing with chi
    bad = joint < MIN_JOINT_EXCEEDANCES
    chi[bad] = np.nan
    chibar[bad] = np.nan
    diag = np.arange(joint.shape[-1])
    chi[..., diag, diag] = 1.0
    chibar[..., diag, diag] = 1.0
    return chi, chibar


def chi_matrix(
    data: sio.EegRecording | np.ndarray,
    u: float,
    n_boot: int = DEFAULT_N_BOOT,
    seed: int = 0,
    mean_block_len: float | None = None,
    channels: tuple[str, ...] | None = None,
) -> ChiMatrix:
    """Pairwise chi/chibar across all channels at one level ``u``.

    Same as ``chi_matrices(data, (u,), ...)[0]``; see :func:`chi_matrices`.
    """
    return chi_matrices(data, (u,), n_boot, seed, mean_block_len, channels)[0]


def chi_matrices(
    data: sio.EegRecording | np.ndarray,
    levels: Sequence[float],
    n_boot: int = DEFAULT_N_BOOT,
    seed: int = 0,
    mean_block_len: float | None = None,
    channels: tuple[str, ...] | None = None,
) -> tuple[ChiMatrix, ...]:
    """Pairwise chi/chibar across all channels with bootstrap intervals,
    one :class:`ChiMatrix` per level.

    Every level is scored on the same bootstrap resamples, so the result
    at each level equals a one-level call with the same seed.

    Parameters
    ----------
    data : EegRecording or ndarray (T x C)
        Finite amplitudes, T >= 2.
    levels : sequence of float
        Quantile levels, each in (0, 1).
    n_boot : int
        Stationary-bootstrap replicates for the 95% intervals; 0 skips
        the bootstrap (intervals become NaN).
    seed : int
        Non-negative; replicate b draws from the b-th child of
        ``SeedSequence(seed)``, whichever process scores it.
    mean_block_len : float, optional
        Mean bootstrap block length in samples, at least 1. Defaults to
        one second of samples for a recording, ``max(1, fs)``, so that a
        recording sampled below 1 Hz still bootstraps; 1 for a bare
        matrix.
    channels : tuple of str, optional
        Labels for a bare matrix; defaults to ch0, ch1, ...

    Sparse pairs (under 5 joint exceedances) are flagged, not fatal.
    """
    with sio._Pool() as pool:
        return _submit_chi_matrices(pool, data, levels, n_boot, seed, mean_block_len, channels)()


def _submit_chi_matrices(
    pool: sio._Pool, data, levels, n_boot, seed, mean_block_len=None, channels=None
):
    """Check ``chi_matrices``' arguments and start its bootstrap on
    ``pool``; returns a function that waits for the replicates and returns
    what ``chi_matrices`` returns."""
    if isinstance(data, sio.EegRecording):
        matrix = data.data
        labels = data.channels
        if mean_block_len is None:
            mean_block_len = max(1.0, data.fs)
    else:
        matrix = check_floats(data, "data", ndim=2, finite=True)  # a recording is finite
        labels = channels or tuple(f"ch{i}" for i in range(matrix.shape[1]))
        if mean_block_len is None:
            mean_block_len = 1.0
    if len(labels) != matrix.shape[1]:
        raise ValidationError("channel label count must match data columns")
    if matrix.shape[1] < 2:
        raise ValidationError("need at least 2 channels for pairwise dependence")
    if matrix.shape[0] < 2:
        raise SizeError(f"need at least 2 observations, got {matrix.shape[0]}")
    try:
        levels = tuple(levels)
    except TypeError:
        raise UsageError(f"levels must be a sequence of floats, got {levels!r}") from None
    if not levels:
        raise UsageError("need at least one quantile level")
    for u in levels:
        check_real(u, "quantile level", "(0, 1)")
    n_boot = check_int(n_boot, "n_boot", 0)
    seed = check_int(seed, "seed", 0)

    n, c = matrix.shape
    # a replicate may score a wider window than the point estimate
    cols = _sorted_columns(matrix, None if n_boot else np.min(levels))
    if n_boot > 0:
        check_real(mean_block_len, "mean block length", "[1, inf)")
        seeds = np.random.SeedSequence(seed).spawn(n_boot)
        parts = min(sio._usable_cores(), n_boot)
        cuts = [k * n_boot // parts for k in range(parts + 1)]

        def replicates(block) -> tuple[np.ndarray, np.ndarray]:
            """chi and chibar, each (levels x replicates x C x C), of the
            bootstrap replicates that draw from the seed sequences of
            ``block``, one each."""
            joint = [
                _exceedance_counts(
                    cols, _bootstrap_weights(n, mean_block_len, np.random.default_rng(ss)), levels
                )
                for ss in block
            ]
            return _chi_arrays(np.stack(joint, axis=1), n)

        blocks = pool.submit(replicates, [seeds[a:b] for a, b in zip(cuts, cuts[1:])])
    joint = _exceedance_counts(cols, np.ones(n, dtype=np.intp), levels)
    points = list(zip(joint, *_chi_arrays(joint, n)))

    def finish() -> tuple[ChiMatrix, ...]:
        if n_boot > 0:
            chi_b, chibar_b = (np.concatenate(reps, axis=1) for reps in zip(*blocks()))
            cis = [(_interval(chi_b[k]), _interval(chibar_b[k])) for k in range(len(levels))]
        else:
            nan = np.full((c, c), np.nan)
            cis = [((nan, nan), (nan, nan))] * len(levels)
        return tuple(
            _chi_result(labels, u, *point, *ci) for u, point, ci in zip(levels, points, cis)
        )

    return finish


def _interval(reps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """95% percentile interval over bootstrap replicates (axis 0), ignoring
    NaN; NaN where a cell has no valid replicate. ``np.nanpercentile``'s
    values, without its one 1-D call per cell: NaN sorts last, so the
    cells with m valid replicates share one ``np.percentile`` over the
    first m sorted rows."""
    reps = np.sort(reps, axis=0)
    valid = np.count_nonzero(~np.isnan(reps), axis=0)
    out = np.full((2, *reps.shape[1:]), np.nan)
    for m in np.unique(valid[valid > 0]):
        cells = valid == m
        out[:, cells] = np.percentile(reps[:m, cells], (2.5, 97.5), axis=0)
    return out[0], out[1]


def _chi_result(labels, u, joint, chi, chibar, chi_ci, chibar_ci) -> ChiMatrix:
    """Assemble one level's estimates; ``*_ci`` are (lower, upper) matrices."""
    c = len(labels)
    estimates = []
    for i in range(c):
        for j in range(i + 1, c):
            estimates.append(
                ChiEstimate(
                    pair=(labels[i], labels[j]),
                    u=u,
                    chi=float(chi[i, j]),
                    chibar=float(chibar[i, j]),
                    ci_chi=(float(chi_ci[0][i, j]), float(chi_ci[1][i, j])),
                    ci_chibar=(float(chibar_ci[0][i, j]), float(chibar_ci[1][i, j])),
                    n_eff=int(joint[i, j]),
                    sparse=bool(joint[i, j] < MIN_JOINT_EXCEEDANCES),
                )
            )
    return ChiMatrix(
        channels=tuple(labels),
        u=u,
        estimates=tuple(estimates),
        chi_values=chi,
        chibar_values=chibar,
    )
