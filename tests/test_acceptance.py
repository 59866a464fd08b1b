"""Acceptance suite: one test per release criterion.

Each test prints a single [PASS]/[FAIL] line (visible with ``pytest -s``
or in the captured output of a failing run) in addition to the usual
pytest verdict. Tolerances are pinned here and nowhere else.
"""

import json
import time

import numpy as np
import pytest

import eegx
from eegx import (
    DEFAULT_BANDS,
    GpdFit,
    chi_matrix,
    chi_u,
    conditional_model,
    design_bandpass,
    fit_gpd,
    fit_ht,
    gen_comonotone_pair,
    gen_gaussian_copula_pair,
    gen_gpd,
    gen_independent_pair,
    gen_synthetic_eeg,
    laplace_quantile,
    load_recording,
    periodogram,
    return_level,
    save_recording,
    split_at_onset,
    uniform_scores,
)
from eegx.cli import main as cli_main
from eegx.preprocess import apply_zero_phase, band_by_id, effective_high_edge


def verdict(ok: bool, label: str, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}" + (f" ({detail})" if detail else ""))
    assert ok, f"{label}: {detail}"


def laplace_margins(u):
    return laplace_quantile(uniform_scores(u))


def test_criterion_01_dataset_geometry(tmp_path):
    """50,000 x 19 at fs=100 with onset 35,000 -> epochs 35,000/15,000, < 2 s."""
    rng = np.random.default_rng(0)
    path = tmp_path / "clinical_shape.csv"
    header = ",".join(f"E{i:02d}" for i in range(19))
    body = "\n".join(
        ",".join("%.6f" % v for v in row)
        for row in rng.standard_normal((50_000, 19))
    )
    path.write_text(header + "\n" + body + "\n")

    t0 = time.perf_counter()
    rec = load_recording(path, fs=100.0, onset_index=35_000)
    pair = split_at_onset(rec)
    elapsed = time.perf_counter() - t0

    ok = (
        rec.data.shape == (50_000, 19)
        and pair.pre.n_samples == 35_000
        and pair.post.n_samples == 15_000
        and elapsed < 2.0
    )
    verdict(ok, "criterion 1: dataset geometry", f"epochs {pair.pre.n_samples}/{pair.post.n_samples}, {elapsed:.2f}s")


def test_criterion_02_band_table():
    """Default bands match the canonical table; gamma capped to 49.5 at fs=100."""
    table = [(b.id, b.low_hz, b.high_hz) for b in DEFAULT_BANDS]
    expected = [
        ("delta", 0.5, 4.0),
        ("theta", 4.0, 8.0),
        ("alpha", 8.0, 12.0),
        ("beta", 13.0, 30.0),
        ("gamma", 30.0, 100.0),
    ]
    cap = effective_high_edge(band_by_id("gamma"), 100.0)
    ok = table == expected and cap == 49.5
    verdict(ok, "criterion 2: band table", f"gamma cap {cap} Hz")


def test_criterion_03_filter_fidelity():
    """Alpha filter: 10 Hz gain in [0.95, 1], 20 Hz <= 0.05, zero lag, < 1 s."""
    fs, n = 100.0, 2_000
    t0 = time.perf_counter()
    spec = design_bandpass(band_by_id("alpha"), fs, 4)
    tt = np.arange(n) / fs
    x10 = np.sin(2 * np.pi * 10.0 * tt)
    x20 = np.sin(2 * np.pi * 20.0 * tt)
    y10 = apply_zero_phase(x10, spec)
    y20 = apply_zero_phase(x20, spec)
    elapsed = time.perf_counter() - t0

    sl = slice(n // 4, 3 * n // 4)
    gain10 = np.sqrt(np.mean(y10[sl] ** 2) / np.mean(x10[sl] ** 2))
    gain20 = np.sqrt(np.mean(y20[sl] ** 2) / np.mean(x20[sl] ** 2))
    a = x10[sl] - x10[sl].mean()
    b = y10[sl] - y10[sl].mean()
    lag = int(np.argmax(np.correlate(b, a, "full"))) - (a.size - 1)

    ok = 0.95 <= gain10 <= 1.0 and gain20 <= 0.05 and lag == 0 and elapsed < 1.0
    verdict(
        ok,
        "criterion 3: filter fidelity",
        f"gain10={gain10:.4f}, gain20={gain20:.4f}, lag={lag}, {elapsed:.3f}s",
    )


def test_criterion_04_parseval():
    """Periodogram integral equals sample variance to 1e-8 on 10 seeded series."""
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(1_000, 20_000))
        fs = float(rng.uniform(1.0, 500.0))
        x = rng.standard_normal(n) * rng.uniform(0.1, 10.0)
        est = periodogram(x, fs)
        lhs = est.power.sum() * fs / n
        rhs = ((x - x.mean()) ** 2).mean()
        worst = max(worst, abs(lhs - rhs) / rhs)
    ok = worst <= 1e-8
    verdict(ok, "criterion 4: spectral Parseval", f"worst rel err {worst:.2e}")


def test_criterion_05_gpd_recovery():
    """GPD(2, 0.2) n=10,000 within 3 SEs; exponential n=50,000 |xi|<0.05; <1s/fit."""
    y = gen_gpd(10_000, 2.0, 0.2, seed=42)
    t0 = time.perf_counter()
    fit = fit_gpd(y)
    t_heavy = time.perf_counter() - t0

    y0 = eegx.gen_exponential(50_000, 1.0, seed=7)
    t0 = time.perf_counter()
    fit0 = fit_gpd(y0)
    t_exp = time.perf_counter() - t0

    ok = (
        abs(fit.sigma - 2.0) <= 3 * fit.se_sigma
        and abs(fit.xi - 0.2) <= 3 * fit.se_xi
        and abs(fit0.xi) < 0.05
        and t_heavy < 1.0
        and t_exp < 1.0
    )
    verdict(
        ok,
        "criterion 5: GPD recovery",
        f"sigma={fit.sigma:.3f}±{fit.se_sigma:.3f}, xi={fit.xi:.3f}±{fit.se_xi:.3f}, "
        f"exp xi={fit0.xi:.4f}, {t_heavy:.2f}s/{t_exp:.2f}s",
    )


def test_criterion_06_return_levels():
    """Closed forms: (5, 2, 0.5, mz=100) -> 41 exactly; xi=0 -> u + sigma*log(mz)."""
    heavy = GpdFit(threshold_u=5.0, sigma=2.0, xi=0.5, zeta_u=0.01,
                   n_exceed=100, se_sigma=0.1, se_xi=0.01, nll=0.0)
    light = GpdFit(threshold_u=3.0, sigma=1.5, xi=0.0, zeta_u=0.02,
                   n_exceed=100, se_sigma=0.1, se_xi=0.01, nll=0.0)
    x_heavy = return_level(heavy, 10_000)
    x_light = return_level(light, 10_000)
    ok = x_heavy == 41.0 and abs(x_light - (3.0 + 1.5 * np.log(200.0))) <= 1e-12
    verdict(ok, "criterion 6: return level closed forms", f"{x_heavy}, {x_light:.12f}")


def test_criterion_07_chi_calibration():
    """Comonotone exactly 1; independent in bands; Gaussian within 0.02 of MC oracle."""
    u1, u2 = gen_comonotone_pair(20_000, seed=1)
    sx, sy = uniform_scores(u1), uniform_scores(u2)
    como_ok = all(chi_u(sx, sy, u) == (1.0, 1.0) for u in (0.90, 0.95, 0.98))

    a, b = gen_independent_pair(20_000, seed=2)
    chi_i, chibar_i = chi_u(uniform_scores(a), uniform_scores(b), 0.95)
    indep_ok = 0.03 <= chi_i <= 0.07 and -0.1 <= chibar_i <= 0.1

    # Monte Carlo oracle: joint exceedances of exact normal quantiles
    from scipy.special import ndtri

    rng = np.random.default_rng(123456)
    z1 = rng.standard_normal(1_000_000)
    z2 = 0.5 * z1 + np.sqrt(0.75) * rng.standard_normal(1_000_000)
    q = ndtri(0.95)
    oracle = np.mean((z1 > q) & (z2 > q)) / 0.05

    g1, g2 = gen_gaussian_copula_pair(1_000_000, 0.5, seed=99)
    chi_g, _ = chi_u(uniform_scores(g1), uniform_scores(g2), 0.95)
    gauss_ok = abs(chi_g - oracle) <= 0.02

    ok = como_ok and indep_ok and gauss_ok
    verdict(
        ok,
        "criterion 7: chi calibration",
        f"indep chi={chi_i:.3f} chibar={chibar_i:.3f}, "
        f"gauss chi={chi_g:.4f} vs oracle {oracle:.4f}",
    )


def test_criterion_08_ht_recovery():
    """Gaussian copula rho=0.6, n=100,000, q=0.99: alpha ~ 0.36, beta ~ 0.5, < 30 s."""
    t0 = time.perf_counter()
    u1, u2 = gen_gaussian_copula_pair(100_000, 0.6, seed=0)
    fit = fit_ht(laplace_margins(u1), laplace_margins(u2), 0.99)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(fit.alpha - 0.36) <= 0.12
        and abs(fit.beta - 0.5) <= 0.2
        and elapsed < 30.0
    )
    verdict(
        ok,
        "criterion 8: conditional-extremes recovery",
        f"alpha={fit.alpha:.3f}, beta={fit.beta:.3f}, {elapsed:.1f}s",
    )


def test_criterion_09_ht_degenerate_cases():
    """Comonotone alpha >= 0.95; independence |alpha| <= 0.1 + Laplace residuals."""
    x = np.random.default_rng(31).standard_normal(50_000)
    y = laplace_margins(x)
    como = fit_ht(y, y, 0.95)

    a, b = gen_independent_pair(50_000, seed=1)
    indep = fit_ht(laplace_margins(a), laplace_margins(b), 0.95)
    probs = np.arange(0.05, 0.951, 0.05)
    gap = np.abs(np.quantile(indep.residuals_z, probs) - laplace_quantile(probs)).max()
    # shape check, location/scale standardized (median, mean abs deviation)
    z = indep.residuals_z
    zs = (z - np.median(z)) / np.mean(np.abs(z - np.median(z)))
    gap_std = np.abs(np.quantile(zs, probs) - laplace_quantile(probs)).max()

    ok = como.alpha >= 0.95 and abs(indep.alpha) <= 0.1 and gap < 0.15 and gap_std < 0.15
    verdict(
        ok,
        "criterion 9: degenerate conditional fits",
        f"comonotone alpha={como.alpha:.3f}, indep alpha={indep.alpha:.3f}, "
        f"QQ gap={gap:.3f} (std {gap_std:.3f})",
    )


def test_criterion_10_end_to_end_contrast(tmp_path):
    """Post-onset chi and alpha exceed pre-onset in >= 95% of 100 seeds; report < 3 min."""
    n_seeds = 100
    chi_wins = 0
    alpha_wins = 0
    for seed in range(n_seeds):
        rec = gen_synthetic_eeg(3, 50_000, 0.7, seed=seed)
        pair = split_at_onset(rec)
        pre_cm = chi_matrix(pair.pre, 0.95, n_boot=0)
        post_cm = chi_matrix(pair.post, 0.95, n_boot=0)
        if all(
            post_cm.chi_values[0, j] > pre_cm.chi_values[0, j] for j in (1, 2)
        ):
            chi_wins += 1
        fits_pre, _ = conditional_model(pair.pre, "T3", 0.95, 0.95)
        fits_post, _ = conditional_model(pair.post, "T3", 0.95, 0.95)
        if all(fits_post[d].alpha > fits_pre[d].alpha for d in fits_pre):
            alpha_wins += 1

    # one full report run, timed
    rec = gen_synthetic_eeg(4, 50_000, 0.7, seed=2024)
    path = tmp_path / "synthetic.csv"
    save_recording(rec, path)
    outdir = tmp_path / "report"
    t0 = time.perf_counter()
    rc = cli_main(
        ["report", "--input", str(path), "--cond-channel", "T3",
         "--seed", "11", "--outdir", str(outdir)]
    )
    report_time = time.perf_counter() - t0

    manifest = json.loads((outdir / "manifest.json").read_text())
    ok = (
        chi_wins >= 95
        and alpha_wins >= 95
        and rc == 0
        and len(manifest["stages"]) >= 4
        and report_time < 180.0
    )
    verdict(
        ok,
        "criterion 10: end-to-end seizure contrast",
        f"chi {chi_wins}/100, alpha {alpha_wins}/100, report {report_time:.0f}s",
    )


def test_criterion_11_report_determinism(tmp_path):
    """Rerunning report with the same seed reproduces every artifact byte for byte."""
    rec = gen_synthetic_eeg(3, 20_000, 0.7, seed=5)
    path = tmp_path / "rec.csv"
    save_recording(rec, path)
    outs = []
    for name in ("one", "two"):
        outdir = tmp_path / name
        rc = cli_main(
            ["report", "--input", str(path), "--cond-channel", "T3",
             "--n-boot", "50", "--n-sim", "2000", "--seed", "7",
             "--outdir", str(outdir)]
        )
        assert rc == 0
        outs.append(outdir)
    a, b = outs
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    identical = files_a == files_b and all(
        (a / rel).read_bytes() == (b / rel).read_bytes() for rel in files_a
    )
    verdict(identical, "criterion 11: report determinism", f"{len(files_a)} artifacts compared")
