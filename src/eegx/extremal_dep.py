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
serial dependence of EEG samples. Each column is sorted once: a
resample's average ranks follow from counting its tie-group ids, and
each resample is drawn once and scored at every requested level.

Replicate b draws from the b-th child of ``SeedSequence(seed).spawn``
and depends on nothing else but the tie groups, so the replicates are
cut into one contiguous block per usable core and scored in
``signal_io``'s fork pool (``_replicates``); the parent joins the
blocks in order, and the intervals do not depend on the cut. There is
no setting, and ``n_boot=0`` starts no pool.
"""

from __future__ import annotations

import warnings
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
    check_int,
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
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValidationError(f"expected a 1-D series, got shape {x.shape}")
    if x.size < 2:
        raise SizeError(f"need at least 2 observations, got {x.size}")
    if np.isnan(x).any():
        raise DataError("cannot rank NaN")
    return _average_ranks(_tie_groups(x[:, None]), slice(None))[:, 0] / (x.size + 1.0)


def chi_u(
    scores_x: np.ndarray, scores_y: np.ndarray, u: float
) -> tuple[float, float]:
    """Empirical (chi, chibar) of a paired score series at level ``u``.

    Raises :class:`SparseTailError` when fewer than 5 joint exceedances
    are available; pick a lower ``u`` in that case.
    """
    sx = np.asarray(scores_x, dtype=float)
    sy = np.asarray(scores_y, dtype=float)
    if sx.shape != sy.shape or sx.ndim != 1:
        raise ValidationError("score series must be 1-D and of equal length")
    if not 0.0 < u < 1.0:
        raise UsageError(f"quantile level must lie in (0, 1), got {u}")
    if np.isnan(sx).any() or np.isnan(sy).any():
        raise DataError("scores contain NaN")
    joint, marg = _pair_matrices(np.column_stack([sx, sy]), u)
    n_joint = int(joint[0, 1])
    if n_joint < MIN_JOINT_EXCEEDANCES:
        raise SparseTailError(
            f"only {n_joint} joint exceedances at u={u:g} "
            f"(need >= {MIN_JOINT_EXCEEDANCES}); lower u"
        )
    chi, chibar = _chi_arrays(joint, marg, sx.size)
    return float(chi[0, 1]), float(chibar[0, 1])


def stationary_bootstrap_indices(
    n: int, mean_block: float, rng: np.random.Generator
) -> np.ndarray:
    """One stationary-bootstrap resample of 0..n-1 (Politis-Romano).

    Blocks have geometric length with the given mean and wrap around the
    end of the series.
    """
    _check_mean_block(mean_block)
    p = 1.0 / float(mean_block)
    restart = rng.random(n) < p
    restart[0] = True
    starts = rng.integers(0, n, size=n)
    pos = np.arange(n)
    last_restart = np.maximum.accumulate(np.where(restart, pos, -1))
    offset = pos - last_restart
    return (starts[last_restart] + offset) % n


def _check_mean_block(mean_block) -> None:
    if not mean_block >= 1:  # NaN fails too
        raise UsageError(f"mean block length must be >= 1, got {mean_block}")


def _tie_groups(matrix: np.ndarray) -> list[np.ndarray]:
    """Per column, the dense tie-group id of each sample: the index of its
    value among the column's sorted distinct values."""
    return [np.unique(col, return_inverse=True)[1] for col in matrix.T]


def _average_ranks(groups: list[np.ndarray], idx) -> np.ndarray:
    """Column-wise average ranks of the resample ``matrix[idx]``, without
    sorting it; ``groups`` is ``_tie_groups(matrix)``.

    Counting each tie group's members gives its cumulative count ``cum``
    and its average rank ``(cum + (cum - cnt) + 1) / 2``, the same exact
    half-integer ``rankdata(method="average")`` assigns.
    """
    cols = []
    for ids in groups:
        g = ids[idx]
        cnt = np.bincount(g)
        cum = np.cumsum(cnt)
        cols.append((0.5 * (cum + (cum - cnt) + 1))[g])
    return np.column_stack(cols)


def _pair_matrices(scores: np.ndarray, u: float):
    """Joint/marginal exceedance counts for all channel pairs at once."""
    b = (scores > u).astype(np.float64)
    joint = b.T @ b
    return joint, np.diag(joint)


def _chi_arrays(joint: np.ndarray, marg: np.ndarray, n: int):
    """Dense chi/chibar matrices; NaN where the joint count is too small."""
    pooled = 0.5 * (marg[:, None] + marg[None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        chi = np.clip((joint / n) / (pooled / n), 0.0, 1.0)
        chibar = np.clip(2.0 * np.log(pooled / n) / np.log(joint / n) - 1.0, -1.0, 1.0)
    chibar[joint == n] = 1.0  # every sample exceeds: defined as 1, agreeing with chi
    bad = joint < MIN_JOINT_EXCEEDANCES
    chi[bad] = np.nan
    chibar[bad] = np.nan
    np.fill_diagonal(chi, 1.0)
    np.fill_diagonal(chibar, 1.0)
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
        Finite amplitudes.
    levels : sequence of float
        Quantile levels, each in (0, 1).
    n_boot : int
        Stationary-bootstrap replicates for the 95% intervals; 0 skips
        the bootstrap (intervals become NaN).
    seed : int
        Non-negative; replicate b draws from the b-th child of
        ``SeedSequence(seed)``, whichever process scores it.
    mean_block_len : float, optional
        Mean bootstrap block length in samples. Defaults to the
        recording's sampling rate (one second), or 1 for a bare matrix.
    channels : tuple of str, optional
        Labels for a bare matrix; defaults to ch0, ch1, ...

    Sparse pairs (under 5 joint exceedances) are flagged, not fatal.
    """
    if isinstance(data, sio.EegRecording):
        matrix = data.data
        labels = data.channels
        if mean_block_len is None:
            mean_block_len = data.fs
    else:
        matrix = np.asarray(data, dtype=float)
        if matrix.ndim != 2:
            raise ValidationError(f"expected (T x C) data, got shape {matrix.shape}")
        labels = channels or tuple(f"ch{i}" for i in range(matrix.shape[1]))
        if mean_block_len is None:
            mean_block_len = 1.0
    if len(labels) != matrix.shape[1]:
        raise ValidationError("channel label count must match data columns")
    if matrix.shape[1] < 2:
        raise ValidationError("need at least 2 channels for pairwise dependence")
    if not np.isfinite(matrix).all():
        raise DataError("chi needs finite data; found NaN or Inf")
    try:
        levels = tuple(levels)
    except TypeError:
        raise UsageError(f"levels must be a sequence of floats, got {levels!r}") from None
    if not levels:
        raise UsageError("need at least one quantile level")
    for u in levels:
        if not 0.0 < u < 1.0:
            raise UsageError(f"quantile level must lie in (0, 1), got {u}")
    n_boot = check_int(n_boot, "n_boot", 0)
    seed = check_int(seed, "seed", 0)

    n, c = matrix.shape
    groups = _tie_groups(matrix)
    scores = _average_ranks(groups, slice(None)) / (n + 1.0)
    points = []
    for u in levels:
        joint, marg = _pair_matrices(scores, u)
        points.append((joint, *_chi_arrays(joint, marg, n)))

    if n_boot > 0:
        _check_mean_block(mean_block_len)
        seeds = np.random.SeedSequence(seed).spawn(n_boot)
        parts = min(sio._usable_cores(), n_boot)
        cuts = [k * n_boot // parts for k in range(parts + 1)]
        tasks = [(groups, seeds[a:b], mean_block_len, levels) for a, b in zip(cuts, cuts[1:])]
        blocks = sio._ordered_map(_replicates, tasks)
        chi_b, chibar_b = (np.concatenate(reps, axis=1) for reps in zip(*blocks))
        cis = [(_interval(chi_b[k]), _interval(chibar_b[k])) for k in range(len(levels))]
    else:
        nan = np.full((c, c), np.nan)
        cis = [((nan, nan), (nan, nan))] * len(levels)

    return tuple(
        _chi_result(labels, u, *point, *ci) for u, point, ci in zip(levels, points, cis)
    )


def _replicates(task) -> tuple[np.ndarray, np.ndarray]:
    """chi and chibar, each (levels x replicates x C x C), of the
    bootstrap replicates that ``task`` = (tie groups, seed sequences,
    mean block length, levels) names, one replicate per seed sequence."""
    groups, seeds, mean_block_len, levels = task
    n, c = groups[0].size, len(groups)
    chi_b = np.empty((len(levels), len(seeds), c, c))
    chibar_b = np.empty_like(chi_b)
    for b, ss in enumerate(seeds):
        idx = stationary_bootstrap_indices(n, mean_block_len, np.random.default_rng(ss))
        s_b = _average_ranks(groups, idx) / (n + 1.0)
        for k, u in enumerate(levels):
            chi_b[k, b], chibar_b[k, b] = _chi_arrays(*_pair_matrices(s_b, u), n)
    return chi_b, chibar_b


def _interval(reps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """95% percentile interval over bootstrap replicates (axis 0), ignoring NaN."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN slices
        return np.nanpercentile(reps, 2.5, axis=0), np.nanpercentile(reps, 97.5, axis=0)


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
