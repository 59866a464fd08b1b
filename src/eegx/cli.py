"""Command-line pipeline: simulate, decompose, spectrum, fit-gpd, chi,
ht-fit, ht-sim, and the all-in-one report.

Every output file is written atomically (temp file + rename) so a
failing run never leaves a half-written artifact. Exit codes: 0 success,
2 validation/usage error, 1 computation error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import cond_extremes as ce
from . import evt_univariate as evt
from . import extremal_dep as ed
from . import oracle_sim as sim
from . import preprocess as pp
from . import signal_io as sio
from . import spectral as sp
from ._svg import heatmap_svg
from .errors import EegxError, FitError, UsageError, ValidationError


def _fmt(v) -> str:
    """Deterministic cell rendering for CSV output."""
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (np.floating,)):
        return repr(float(v))
    if isinstance(v, (np.integer,)):
        return str(int(v))
    return str(v)


def _write_atomic(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def _emit(path: Path, text: str) -> Path:
    _write_atomic(path, text)
    print(f"wrote {path}")
    return path


def _csv(rows: list[dict], columns: list[str]) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _sanitize_float(x: float):
    """NaN/Inf are not valid JSON; encode them as null."""
    return x if np.isfinite(x) else None


# ---------------------------------------------------------------------------
# input plumbing


def _resolve_onset(args, fs: float) -> int | None:
    onset = getattr(args, "onset", None)
    onset_seconds = getattr(args, "onset_seconds", None)
    if onset is not None and onset_seconds is not None:
        raise UsageError("pass either --onset or --onset-seconds, not both")
    if onset_seconds is not None:
        return int(round(fs * onset_seconds))
    return onset


def _load_input(args) -> sio.EegRecording:
    fs = getattr(args, "fs", None)
    if fs is None:
        meta = sio.read_sidecar(args.input)
        fs = meta.get("fs")
        if fs is None:
            raise ValidationError(
                "sampling rate required: pass --fs or provide a .meta.json sidecar"
            )
    onset = _resolve_onset(args, fs)
    return sio.load_recording(args.input, fs=fs, onset_index=onset)


def _epoch_view(rec: sio.EegRecording, epoch: str) -> sio.EegRecording:
    if epoch == "all":
        return rec
    pair = sio.split_at_onset(rec)
    return pair.pre if epoch == "pre" else pair.post


def _stem(args) -> str:
    return Path(args.input).stem


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args) -> int:
    params: dict = {}
    if args.kind == "synthetic_eeg":
        params = {
            "channels": args.channels,
            "T": args.t,
            "onset_fraction": args.onset_fraction,
        }
    elif args.kind in ("gpd", "exponential"):
        params = {"n": args.n, "sigma": args.sigma}
        if args.kind == "gpd":
            params["xi"] = args.xi
    elif args.kind == "gaussian_copula_pair":
        params = {"n": args.n, "rho": args.rho}
    else:
        params = {"n": args.n}
    spec = sim.SimSpec(kind=args.kind, seed=args.seed, params=params)
    result = sim.generate(spec)

    if isinstance(result, sio.EegRecording):
        rec = result
    elif isinstance(result, tuple):
        rec = sio.EegRecording(
            channels=("u1", "u2"), fs=1.0, data=np.column_stack(result)
        )
    else:
        rec = sio.EegRecording(channels=("y",), fs=1.0, data=result[:, None])

    out = Path(args.out)
    _write_atomic(out, sio.recording_to_csv(rec))
    meta = {"fs": rec.fs, "onset_index": rec.onset_index}
    _write_atomic(sio.sidecar_path(out), _json_text(meta))
    print(f"wrote {out}")
    print(f"wrote {sio.sidecar_path(out)}")
    return 0


def cmd_decompose(args) -> int:
    rec = _load_input(args)
    deco = pp.decompose_bands(rec, order=args.order)
    outdir = Path(args.outdir)
    stem = _stem(args)
    for band_id, matrix in deco.bands.items():
        _emit(outdir / f"{stem}.{band_id}.csv", sio.matrix_to_csv(rec.channels, matrix))
    if deco.omitted:
        print(f"bands omitted (infeasible at fs={rec.fs:g}): {list(deco.omitted)}")
    return 0


def cmd_spectrum(args) -> int:
    rec = _load_input(args)
    outdir = Path(args.outdir)
    stem = _stem(args)
    band_rows = []
    for name in rec.channels:
        x = rec.channel(name)
        if args.method == "periodogram":
            est = sp.periodogram(x, rec.fs)
        else:
            seg = min(rec.n_samples, max(2, int(round(args.seg_seconds * rec.fs))))
            est = sp.welch(x, rec.fs, seg_len=seg, overlap=args.overlap)
        rows = [
            {"freq_hz": f, "power": p}
            for f, p in zip(est.freqs_hz.tolist(), est.power.tolist())
        ]
        _emit(outdir / f"{stem}.{name}.spectrum.csv", _csv(rows, ["freq_hz", "power"]))
        entry = {"channel": name}
        for band in pp.DEFAULT_BANDS:
            try:
                entry[band.id] = sp.band_power(est, band)
            except EegxError:
                entry[band.id] = float("nan")
        band_rows.append(entry)
    cols = ["channel"] + [b.id for b in pp.DEFAULT_BANDS]
    _emit(outdir / f"{stem}.bandpower.csv", _csv(band_rows, cols))
    return 0


def _gpd_fit_payload(fit: evt.GpdFit, channel: str, band: str | None) -> dict:
    return {
        "channel": channel,
        "band": band,
        "u": fit.threshold_u,
        "sigma": fit.sigma,
        "xi": fit.xi,
        "zeta_u": fit.zeta_u,
        "n_exceed": fit.n_exceed,
        "se_sigma": _sanitize_float(fit.se_sigma),
        "se_xi": _sanitize_float(fit.se_xi),
        "nll": fit.nll,
    }


def _diag_rows(diag: evt.ThresholdDiagnostics, kind: str) -> list[dict]:
    rows = []
    for j, u in enumerate(diag.grid.tolist()):
        if kind == "mrl":
            rows.append(
                {
                    "threshold": u,
                    "mrl": float(diag.mrl[j]),
                    "mrl_lo": float(diag.mrl_lo[j]),
                    "mrl_hi": float(diag.mrl_hi[j]),
                    "n_exceed": int(diag.n_exceed[j]),
                }
            )
        else:
            rows.append(
                {
                    "threshold": u,
                    "xi": float(diag.xi[j]),
                    "xi_se": float(diag.xi_se[j]),
                    "sigma_star": float(diag.sigma_star[j]),
                    "sigma_star_se": float(diag.sigma_star_se[j]),
                    "n_exceed": int(diag.n_exceed[j]),
                }
            )
    return rows


def cmd_fit_gpd(args) -> int:
    rec = _load_input(args)
    outdir = Path(args.outdir)
    stem = _stem(args)
    run_length = args.run_length or max(1, int(round(rec.fs / 2)))

    channels = args.channel or list(rec.channels)
    if args.band:
        deco = pp.decompose_bands(rec, order=args.order, bands=(pp.band_by_id(args.band),))
        matrix = deco.bands[args.band]
        tag = f".{args.band}"
    else:
        matrix = rec.data
        tag = ""

    for name in channels:
        x = matrix[:, rec.index_of(name)]
        fit = evt.fit_channel_tail(x, args.threshold_quantile, run_length)
        _emit(
            outdir / f"{stem}.gpd.{name}{tag}.json",
            _json_text(_gpd_fit_payload(fit, name, args.band)),
        )
        if not args.no_diagnostics:
            grid = np.quantile(x, np.linspace(0.80, 0.99, 20))
            grid = np.unique(grid)
            mrl = evt.mean_residual_life(x, grid)
            stab = evt.parameter_stability(x, grid)
            _emit(
                outdir / f"{stem}.mrl.{name}{tag}.csv",
                _csv(_diag_rows(mrl, "mrl"), ["threshold", "mrl", "mrl_lo", "mrl_hi", "n_exceed"]),
            )
            _emit(
                outdir / f"{stem}.stability.{name}{tag}.csv",
                _csv(
                    _diag_rows(stab, "stab"),
                    ["threshold", "xi", "xi_se", "sigma_star", "sigma_star_se", "n_exceed"],
                ),
            )
    return 0


_CHI_COLUMNS = [
    "channel_a",
    "channel_b",
    "u",
    "chi",
    "chi_lo",
    "chi_hi",
    "chibar",
    "chibar_lo",
    "chibar_hi",
    "n_joint",
]


def _chi_rows(cm: ed.ChiMatrix) -> list[dict]:
    rows = []
    for est in cm.estimates:
        rows.append(
            {
                "channel_a": est.pair[0],
                "channel_b": est.pair[1],
                "u": est.u,
                "chi": est.chi,
                "chi_lo": est.ci_chi[0],
                "chi_hi": est.ci_chi[1],
                "chibar": est.chibar,
                "chibar_lo": est.ci_chibar[0],
                "chibar_hi": est.ci_chibar[1],
                "n_joint": est.n_eff,
            }
        )
    return rows


def _write_chi(
    view, levels, n_boot: int, seed: int, prefix: Path, title_suffix: str
) -> list[Path]:
    """Chi at every level from one bootstrap: ``<prefix>.u<u>.svg`` per
    level, then all levels' rows in ``<prefix>.csv``."""
    rows = []
    paths = []
    for cm in ed.chi_matrices(view, levels, n_boot=n_boot, seed=seed):
        rows.extend(_chi_rows(cm))
        svg = heatmap_svg(cm.chi_values, cm.channels, f"chi(u={cm.u:g}){title_suffix}")
        paths.append(_emit(prefix.with_name(f"{prefix.name}.u{cm.u:g}.svg"), svg))
    paths.append(_emit(prefix.with_name(f"{prefix.name}.csv"), _csv(rows, _CHI_COLUMNS)))
    return paths


def cmd_chi(args) -> int:
    rec = _load_input(args)
    view = _epoch_view(rec, args.epoch)
    tag = "" if args.epoch == "all" else f".{args.epoch}"
    levels = args.u or list(ed.DEFAULT_U_GRID)
    prefix = Path(args.outdir) / f"{_stem(args)}.chi{tag}"
    _write_chi(view, levels, args.n_boot, args.seed, prefix, tag)
    return 0


def _ht_payload(fit: ce.HtFit) -> dict:
    return {
        "cond_channel": fit.cond_channel,
        "dep_channel": fit.dep_channel,
        "alpha": fit.alpha,
        "beta": fit.beta,
        "mu": fit.mu,
        "s": fit.s,
        "n_exceed": fit.n_exceed,
        "cond_threshold_laplace": fit.cond_threshold_laplace,
        "nll": fit.nll,
    }


def _residual_rows(fits: dict[str, ce.HtFit]) -> tuple[list[dict], list[str]]:
    deps = list(fits)
    first = fits[deps[0]]
    idx = (
        first.exceed_indices
        if first.exceed_indices is not None
        else np.arange(first.n_exceed)
    )
    rows = []
    for r in range(first.n_exceed):
        row = {"exceed_index": int(idx[r])}
        for d in deps:
            row[d] = float(fits[d].residuals_z[r])
        rows.append(row)
    return rows, ["exceed_index"] + deps


def cmd_ht_fit(args) -> int:
    rec = _load_input(args)
    view = _epoch_view(rec, args.epoch)
    outdir = Path(args.outdir)
    stem = _stem(args)
    tag = "all" if args.epoch == "all" else args.epoch
    fits, _ = ce.conditional_model(
        view,
        args.cond_channel,
        cond_quantile=args.quantile,
        marginal_quantile=args.marginal_quantile,
    )
    for dep, fit in fits.items():
        _emit(outdir / f"{stem}.ht.{tag}.{dep}.json", _json_text(_ht_payload(fit)))
    rows, cols = _residual_rows(fits)
    _emit(outdir / f"{stem}.ht.{tag}.residuals.csv", _csv(rows, cols))
    return 0


def cmd_ht_sim(args) -> int:
    rec = _load_input(args)
    view = _epoch_view(rec, args.epoch)
    outdir = Path(args.outdir)
    stem = _stem(args)
    tag = "all" if args.epoch == "all" else args.epoch
    fits, transforms = ce.conditional_model(
        view,
        args.cond_channel,
        cond_quantile=args.quantile,
        marginal_quantile=args.marginal_quantile,
    )
    sample = ce.simulate_conditional(
        list(fits.values()),
        level_q=args.level,
        n_sim=args.n,
        seed=args.seed,
        cond_transform=transforms[args.cond_channel],
        dep_transforms=transforms,
    )
    deps = list(sample.dep_channels)
    draw_rows = []
    for i in range(args.n):
        row = {"cond_laplace": float(sample.cond_draws[i])}
        for k, d in enumerate(deps):
            row[f"{d}_laplace"] = float(sample.draws[i, k])
        row["cond_data"] = float(sample.cond_back_transformed[i])
        for k, d in enumerate(deps):
            row[f"{d}_data"] = float(sample.back_transformed[i, k])
        draw_rows.append(row)
    cols = (
        ["cond_laplace"]
        + [f"{d}_laplace" for d in deps]
        + ["cond_data"]
        + [f"{d}_data" for d in deps]
    )
    _emit(outdir / f"{stem}.htsim.{tag}.draws.csv", _csv(draw_rows, cols))
    summary = ce.conditional_summary(sample)
    _emit(
        outdir / f"{stem}.htsim.{tag}.summary.csv",
        _csv(summary, ["channel", "scale", "mean", "median", "q05", "q95"]),
    )
    return 0


# ---------------------------------------------------------------------------
# report


def cmd_report(args) -> int:
    rec = _load_input(args)
    if rec.onset_index is None:
        raise UsageError("report needs an onset (--onset or --onset-seconds)")
    cond_channel = args.cond_channel or rec.channels[0]
    if cond_channel not in rec.channels:
        raise UsageError(
            f"conditioning channel {cond_channel!r} not in {list(rec.channels)}"
        )
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    run_length = args.run_length or max(1, int(round(rec.fs / 2)))
    levels = args.u or list(ed.DEFAULT_U_GRID)

    stages = []
    failed = False

    def _run_stage(name: str, params: dict, fn) -> None:
        nonlocal failed
        entry = {"name": name, "params": params, "outputs": [], "status": "ok"}
        try:
            entry["outputs"] = fn()
        except EegxError as exc:
            entry["status"] = f"error: {exc}"
            failed = True
        stages.append(entry)

    def _rel(p: Path) -> str:
        return str(p.relative_to(outdir))

    # stage 1: band decomposition
    deco_holder: dict = {}

    def _stage_decompose():
        deco = pp.decompose_bands(rec, order=args.order)
        deco_holder["deco"] = deco
        outputs = []
        for band_id, matrix in deco.bands.items():
            text = sio.matrix_to_csv(rec.channels, matrix)
            outputs.append(_rel(_emit(outdir / "bands" / f"{band_id}.csv", text)))
        return outputs

    _run_stage("decompose", {"order": args.order, "omitting_infeasible": True}, _stage_decompose)

    # stage 2: per-band GPD tail fits; degenerate band/channel combos are
    # recorded and skipped, the stage fails only if nothing fits
    gpd_skipped: list[dict] = []

    def _stage_gpd():
        if "deco" not in deco_holder:
            raise UsageError("band decomposition unavailable")
        outputs = []
        deco = deco_holder["deco"]
        for band_id, matrix in deco.bands.items():
            for c, name in enumerate(rec.channels):
                try:
                    fit = evt.fit_channel_tail(
                        matrix[:, c], args.threshold_quantile, run_length
                    )
                except EegxError as exc:
                    gpd_skipped.append(
                        {"band": band_id, "channel": name, "error": str(exc)}
                    )
                    continue
                p = _emit(
                    outdir / "gpd" / f"{band_id}.{name}.json",
                    _json_text(_gpd_fit_payload(fit, name, band_id)),
                )
                outputs.append(_rel(p))
        if not outputs:
            raise FitError("no band/channel tail could be fitted")
        return outputs

    gpd_params = {
        "threshold_quantile": args.threshold_quantile,
        "run_length": run_length,
        "skipped": gpd_skipped,
    }
    _run_stage("fit_gpd", gpd_params, _stage_gpd)

    # stage 3: pairwise extremal dependence, pre vs post
    pair = sio.split_at_onset(rec)
    epochs = {"pre": pair.pre, "post": pair.post}

    def _stage_chi():
        outputs = []
        for tag, view in epochs.items():
            paths = _write_chi(
                view, levels, args.n_boot, args.seed, outdir / "chi" / tag, f" {tag}"
            )
            outputs.extend(_rel(p) for p in paths)
        return outputs

    _run_stage(
        "chi", {"u": levels, "n_boot": args.n_boot, "seed": args.seed}, _stage_chi
    )

    # stage 4: conditional extremes fits, pre vs post
    fits_by_epoch: dict[str, dict] = {}
    transforms_by_epoch: dict[str, dict] = {}

    def _stage_ht_fit():
        outputs = []
        for tag, view in epochs.items():
            fits, transforms = ce.conditional_model(
                view,
                cond_channel,
                cond_quantile=args.ht_quantile,
                marginal_quantile=args.threshold_quantile,
            )
            fits_by_epoch[tag] = fits
            transforms_by_epoch[tag] = transforms
            for dep, fit in fits.items():
                p = _emit(
                    outdir / "ht" / f"{tag}.{dep}.json",
                    _json_text(_ht_payload(fit)),
                )
                outputs.append(_rel(p))
            rows, cols = _residual_rows(fits)
            p = _emit(outdir / "ht" / f"{tag}.residuals.csv", _csv(rows, cols))
            outputs.append(_rel(p))
        return outputs

    _run_stage(
        "ht_fit",
        {"cond_channel": cond_channel, "quantile": args.ht_quantile},
        _stage_ht_fit,
    )

    # stage 5: conditional simulation at a high level
    def _stage_ht_sim():
        outputs = []
        for tag in epochs:
            if tag not in fits_by_epoch:
                raise UsageError(f"no conditional fits for epoch {tag!r}")
            fits = fits_by_epoch[tag]
            transforms = transforms_by_epoch[tag]
            sample = ce.simulate_conditional(
                list(fits.values()),
                level_q=args.level,
                n_sim=args.n_sim,
                seed=args.seed,
                cond_transform=transforms[cond_channel],
                dep_transforms=transforms,
            )
            summary = ce.conditional_summary(sample)
            p = _emit(
                outdir / "sim" / f"{tag}.summary.csv",
                _csv(summary, ["channel", "scale", "mean", "median", "q05", "q95"]),
            )
            outputs.append(_rel(p))
        return outputs

    _run_stage(
        "ht_sim",
        {"level": args.level, "n_sim": args.n_sim, "seed": args.seed},
        _stage_ht_sim,
    )

    manifest = {
        "version": "1",
        "inputs": {
            "path": str(args.input),
            "fs": rec.fs,
            "onset_index": rec.onset_index,
            "cond_channel": cond_channel,
            "seed": args.seed,
        },
        "stages": stages,
    }
    _emit(outdir / "manifest.json", _json_text(manifest))
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# parser


def _add_io_flags(p, with_onset=True):
    p.add_argument("--input", required=True, help="input recording CSV")
    p.add_argument("--fs", type=float, default=None, help="sampling rate in Hz")
    if with_onset:
        p.add_argument("--onset", type=int, default=None, help="onset sample index")
        p.add_argument(
            "--onset-seconds",
            type=float,
            default=None,
            help="onset in seconds (rounded to the nearest sample)",
        )
    p.add_argument("--outdir", default=".", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eegx",
        description="Extreme-value analysis of multichannel EEG recordings",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("simulate", help="write a synthetic dataset")
    p.add_argument(
        "--kind",
        choices=list(sim.SIM_KINDS),
        default="synthetic_eeg",
    )
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--channels", type=int, default=6)
    p.add_argument("--t", type=int, default=50_000, help="number of samples")
    p.add_argument("--onset-fraction", type=float, default=0.7)
    p.add_argument("--n", type=int, default=10_000, help="sample size (scalar kinds)")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--xi", type=float, default=0.0)
    p.add_argument("--rho", type=float, default=0.5)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("decompose", help="band-pass into the five EEG bands")
    _add_io_flags(p, with_onset=False)
    p.add_argument("--order", type=int, default=pp.DEFAULT_ORDER)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("spectrum", help="per-channel spectra and band powers")
    _add_io_flags(p, with_onset=False)
    p.add_argument("--method", choices=["welch", "periodogram"], default="welch")
    p.add_argument("--seg-seconds", type=float, default=4.0)
    p.add_argument("--overlap", type=float, default=0.5)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("fit-gpd", help="peaks-over-threshold tail fits")
    _add_io_flags(p, with_onset=False)
    p.add_argument("--channel", action="append", help="channel name (repeatable)")
    p.add_argument("--band", default=None, help="fit a band-filtered series")
    p.add_argument("--threshold-quantile", type=float, default=0.95)
    p.add_argument("--run-length", type=int, default=None, help="declustering run length")
    p.add_argument("--order", type=int, default=pp.DEFAULT_ORDER)
    p.add_argument("--no-diagnostics", action="store_true")
    p.set_defaults(func=cmd_fit_gpd)

    p = sub.add_parser("chi", help="pairwise tail-dependence diagnostics")
    _add_io_flags(p)
    p.add_argument("--u", type=float, action="append", help="quantile level (repeatable)")
    p.add_argument("--epoch", choices=["pre", "post", "all"], default="all")
    p.add_argument("--n-boot", type=int, default=ed.DEFAULT_N_BOOT)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_chi)

    p = sub.add_parser("ht-fit", help="conditional extremes fits")
    _add_io_flags(p)
    p.add_argument("--cond-channel", required=True)
    p.add_argument("--quantile", type=float, default=0.95)
    p.add_argument("--marginal-quantile", type=float, default=0.95)
    p.add_argument("--epoch", choices=["pre", "post", "all"], default="all")
    p.set_defaults(func=cmd_ht_fit)

    p = sub.add_parser("ht-sim", help="simulate given the conditioner is extreme")
    _add_io_flags(p)
    p.add_argument("--cond-channel", required=True)
    p.add_argument("--quantile", type=float, default=0.95)
    p.add_argument("--marginal-quantile", type=float, default=0.95)
    p.add_argument("--epoch", choices=["pre", "post", "all"], default="all")
    p.add_argument("--level", type=float, default=0.99)
    p.add_argument("--n", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_ht_sim)

    p = sub.add_parser("report", help="full pipeline with manifest")
    _add_io_flags(p)
    p.add_argument("--cond-channel", default=None)
    p.add_argument("--order", type=int, default=pp.DEFAULT_ORDER)
    p.add_argument("--threshold-quantile", type=float, default=0.95)
    p.add_argument("--run-length", type=int, default=None)
    p.add_argument("--u", type=float, action="append")
    p.add_argument("--n-boot", type=int, default=ed.DEFAULT_N_BOOT)
    p.add_argument("--ht-quantile", type=float, default=0.95)
    p.add_argument("--level", type=float, default=0.99)
    p.add_argument("--n-sim", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EegxError as exc:
        print(f"eegx {args.cmd}: error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
