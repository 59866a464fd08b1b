"""Command-line pipeline: simulate, decompose, spectrum, fit-gpd, chi,
ht-fit, ht-sim, and the all-in-one report.

Every output file is written atomically (temp file + rename) so a
failing run never leaves a half-written artifact. Exit codes: 0 success,
2 validation/usage error, 1 computation error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
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
from .errors import EegxError, FitError, UsageError, check_int, check_real


def _emit(path: Path, text) -> Path:
    """Write ``text``, a string or the strings of ``sio._table_text``."""
    sio.write_text_atomic(path, (text,) if isinstance(text, str) else text)
    print(f"wrote {path}")
    return path


def _row_columns(rows: list[dict], columns: list[str]) -> list:
    """Row dicts as the (name, column) pairs ``sio._table_text`` takes."""
    return [(c, [row[c] for row in rows]) for c in columns]


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _sanitize_float(x: float):
    """NaN/Inf are not valid JSON; encode them as null."""
    return x if np.isfinite(x) else None


# ---------------------------------------------------------------------------
# input plumbing


def _samples(seconds: float, fs: float, flag: str, interval: str = "(-inf, inf)") -> int:
    """``seconds`` at ``fs`` Hz as a whole number of samples; before
    rounding, the samples must lie in ``interval``."""
    return int(round(check_real(seconds * fs, f"{flag} in samples at fs={fs:g} Hz", interval)))


def _run_length(args, fs: float) -> int:
    """Declustering run length: ``--run-length``, by default half a second."""
    if args.run_length is None:
        return max(1, int(round(fs / 2)))
    return check_int(args.run_length, "--run-length", 1)


def _load_input(args) -> sio.EegRecording:
    """The ``--input`` recording, with ``--fs`` and ``--onset`` (or
    ``--onset-seconds``) in place of the sidecar's values."""
    onset = getattr(args, "onset", None)
    onset_seconds = getattr(args, "onset_seconds", None)
    if onset is not None and onset_seconds is not None:
        raise UsageError("pass either --onset or --onset-seconds, not both")
    if args.fs is not None:
        check_real(args.fs, "--fs", sio.FS_RANGE)
    if onset is None and onset_seconds is None:
        return sio.load_recording(args.input, fs=args.fs)
    if onset is not None:
        check_int(onset, "--onset", 1)
    # A flag replaces the sidecar's onset, so that one is neither read nor
    # checked: onset 1 lies in [1, n - 1] of every record (n >= 2).
    rec = sio.load_recording(args.input, fs=args.fs, onset_index=1)
    last = rec.n_samples - 1
    if onset is None:
        # rounds into [1, n - 1]
        onset = _samples(onset_seconds, rec.fs, "--onset-seconds", f"(0.5, {last + 0.5})")
    elif onset > last:
        raise UsageError(f"--onset must lie in [1, {last}], got {onset}")
    return replace(rec, onset_index=onset)


def _load_epoch(args) -> sio.EegRecording:
    rec = _load_input(args)
    if args.epoch == "all":
        return rec
    pair = sio.split_at_onset(rec)
    return pair.pre if args.epoch == "pre" else pair.post


def _prefix(args) -> Path:
    """``<outdir>/<input stem>``, which the subcommands' output names extend."""
    return Path(args.outdir) / Path(args.input).stem


# ---------------------------------------------------------------------------
# stage writers: one per artifact, called by its subcommand and by report.
# Each returns (what it computed, the paths it wrote); ``_write_bands``
# returns a function that does, once the pool has written its files, and
# ``_write_gpd_fit``, which is given its fit, returns only its path. Every
# table is CSV text from ``sio._table_text``, which checks its names when
# called: a table named by channels is made before the writer's first
# file, so names that cannot be written leave no file.


def _write_bands(pool: sio._Pool, rec: sio.EegRecording, order: int, directory: Path, stem: str):
    """Band-passed channels, ``<directory>/<stem><band>.csv`` per feasible
    band, each file written by a task of ``pool``."""
    deco = pp.decompose_bands(rec, order=order)
    paths = [directory / f"{stem}{band_id}.csv" for band_id in deco.bands]
    tasks = [(p, rec.channels, m) for p, m in zip(paths, deco.bands.values())]
    written = pool.submit(sio._write_csv, tasks)

    def finish():
        for p in written():
            print(f"wrote {p}")
        return deco, paths

    return finish


def _write_gpd_fit(fit: evt.GpdFit, channel, band, path: Path) -> Path:
    """A channel's GPD tail fit, as JSON at ``path``."""
    payload = {
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
    return _emit(path, _json_text(payload))


def _write_chi(matrices, prefix: Path, title_suffix: str):
    """``ed.chi_matrices`` output, every level from one bootstrap:
    ``<prefix>.u<u>.svg`` per level, then all levels' rows in ``<prefix>.csv``."""
    paths = []
    for cm in matrices:
        svg = heatmap_svg(cm.chi_values, cm.channels, f"chi(u={cm.u:g}){title_suffix}")
        paths.append(_emit(Path(f"{prefix}.u{cm.u:g}.svg"), svg))
    estimates = [e for cm in matrices for e in cm.estimates]
    columns = [
        ("channel_a", [e.pair[0] for e in estimates]),
        ("channel_b", [e.pair[1] for e in estimates]),
        ("u", [e.u for e in estimates]),
        ("chi", [e.chi for e in estimates]),
        ("chi_lo", [e.ci_chi[0] for e in estimates]),
        ("chi_hi", [e.ci_chi[1] for e in estimates]),
        ("chibar", [e.chibar for e in estimates]),
        ("chibar_lo", [e.ci_chibar[0] for e in estimates]),
        ("chibar_hi", [e.ci_chibar[1] for e in estimates]),
        ("n_joint", [e.n_eff for e in estimates]),
    ]
    paths.append(_emit(Path(f"{prefix}.csv"), sio._table_text(columns)))
    return matrices, paths


def _write_ht_fit(view, cond_channel, cond_quantile, marginal_quantile, prefix: Path):
    """(fits, transforms) of the conditional model given ``cond_channel``:
    ``<prefix>.<dep>.json`` per fit, their residuals in ``<prefix>.residuals.csv``."""
    fits, transforms = ce.conditional_model(
        view,
        cond_channel,
        cond_quantile=cond_quantile,
        marginal_quantile=marginal_quantile,
    )
    # made, and its names checked, before the first file is written
    residuals = sio._table_text(
        [("exceed_index", next(iter(fits.values())).exceed_indices)]
        + [(dep, fit.residuals_z) for dep, fit in fits.items()]
    )
    paths = []
    for dep, fit in fits.items():
        payload = {
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
        paths.append(_emit(Path(f"{prefix}.{dep}.json"), _json_text(payload)))
    paths.append(_emit(Path(f"{prefix}.residuals.csv"), residuals))
    return (fits, transforms), paths


def _write_ht_sim(model, cond_channel, level, n_sim: int, seed: int, prefix: Path, draws=False):
    """Draws from ``model`` = (fits, transforms) given ``cond_channel`` above
    its ``level`` quantile, summarized in ``<prefix>.summary.csv`` and, with
    ``draws``, written out in ``<prefix>.draws.csv``."""
    fits, transforms = model
    sample = ce.simulate_conditional(
        list(fits.values()),
        level_q=level,
        n_sim=n_sim,
        seed=seed,
        cond_transform=transforms[cond_channel],
        dep_transforms=transforms,
    )
    cols = ["channel", "scale", "mean", "median", "q05", "q95"]
    tables = {"summary": sio._table_text(_row_columns(ce.conditional_summary(sample), cols))}
    if draws:
        deps = sample.dep_channels
        tables["draws"] = sio._table_text(
            [("cond_laplace", sample.cond_draws)]
            + [(f"{d}_laplace", sample.draws[:, k]) for k, d in enumerate(deps)]
            + [("cond_data", sample.cond_back_transformed)]
            + [(f"{d}_data", sample.back_transformed[:, k]) for k, d in enumerate(deps)]
        )
    return sample, [_emit(Path(f"{prefix}.{kind}.csv"), text) for kind, text in tables.items()]


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args) -> int:
    params = {
        "channels": args.channels,
        "T": args.t,
        "onset_fraction": args.onset_fraction,
        "n": args.n,
        "sigma": args.sigma,
        "xi": args.xi,
        "rho": args.rho,
    }
    result = sim.generate(sim.SimSpec(kind=args.kind, seed=args.seed, params=params))

    if isinstance(result, sio.EegRecording):
        rec = result
    elif isinstance(result, tuple):
        rec = sio.EegRecording(
            channels=("u1", "u2"), fs=1.0, data=np.column_stack(result)
        )
    else:
        rec = sio.EegRecording(channels=("y",), fs=1.0, data=result[:, None])

    out = sio.save_recording(rec, args.out)
    print(f"wrote {out}")
    print(f"wrote {sio.sidecar_path(out)}")
    return 0


def cmd_decompose(args) -> int:
    rec = _load_input(args)
    stem = f"{Path(args.input).stem}."
    with sio._Pool() as pool:
        deco, _ = _write_bands(pool, rec, args.order, Path(args.outdir), stem)()
    if deco.omitted:
        print(f"bands omitted (infeasible at fs={rec.fs:g}): {list(deco.omitted)}")
    return 0


def cmd_spectrum(args) -> int:
    rec = _load_input(args)
    prefix = _prefix(args)
    band_rows = []
    for name in rec.channels:
        x = rec.channel(name)
        if args.method == "periodogram":
            est = sp.periodogram(x, rec.fs)
        else:
            seg = min(rec.n_samples, _samples(args.seg_seconds, rec.fs, "--seg-seconds"))
            est = sp.welch(x, rec.fs, seg_len=seg, overlap=args.overlap)
        _emit(
            Path(f"{prefix}.{name}.spectrum.csv"),
            sio._table_text([("freq_hz", est.freqs_hz), ("power", est.power)]),
        )
        entry = {"channel": name}
        for band in pp.DEFAULT_BANDS:
            try:
                entry[band.id] = sp.band_power(est, band)
            except EegxError:
                entry[band.id] = float("nan")
        band_rows.append(entry)
    cols = ["channel"] + [b.id for b in pp.DEFAULT_BANDS]
    _emit(Path(f"{prefix}.bandpower.csv"), sio._table_text(_row_columns(band_rows, cols)))
    return 0


def _diag_columns(diag: evt.ThresholdDiagnostics) -> list:
    """The threshold grid, the curves ``diag`` holds in field order, and
    the exceedance counts, as (name, column) pairs."""
    curves = [
        (f.name, getattr(diag, f.name))
        for f in fields(diag)
        if f.name not in ("grid", "n_exceed", "flagged") and getattr(diag, f.name) is not None
    ]
    return [("threshold", diag.grid), *curves, ("n_exceed", diag.n_exceed)]


def cmd_fit_gpd(args) -> int:
    rec = _load_input(args)
    prefix = _prefix(args)
    run_length = _run_length(args, rec.fs)

    channels = args.channel or list(rec.channels)
    columns = [rec.index_of(name) for name in channels]  # all resolve before any write
    if args.band:
        deco = pp.decompose_bands(rec, order=args.order, bands=(pp.band_by_id(args.band),))
        matrix = deco.bands[args.band]
        tag = f".{args.band}"
    else:
        matrix = rec.data
        tag = ""

    # every channel is fitted before the first write, so a failed fit leaves no file
    results = []
    for c in columns:
        x = matrix[:, c]
        fit = evt.fit_channel_tail(x, args.threshold_quantile, run_length)
        diagnostics = ()
        if not args.no_diagnostics:
            grid = np.unique(np.quantile(x, np.linspace(0.80, 0.99, 20)))
            diagnostics = (evt.mean_residual_life(x, grid), evt.parameter_stability(x, grid))
        results.append((fit, diagnostics))
    for name, (fit, diagnostics) in zip(channels, results):
        _write_gpd_fit(fit, name, args.band, Path(f"{prefix}.gpd.{name}{tag}.json"))
        for kind, diag in zip(("mrl", "stability"), diagnostics):
            _emit(Path(f"{prefix}.{kind}.{name}{tag}.csv"), sio._table_text(_diag_columns(diag)))
    return 0


def cmd_chi(args) -> int:
    view = _load_epoch(args)
    tag = "" if args.epoch == "all" else f".{args.epoch}"
    levels = args.u or list(ed.DEFAULT_U_GRID)
    prefix = Path(f"{_prefix(args)}.chi{tag}")
    _write_chi(ed.chi_matrices(view, levels, n_boot=args.n_boot, seed=args.seed), prefix, tag)
    return 0


def cmd_ht_fit(args) -> int:
    view = _load_epoch(args)
    prefix = Path(f"{_prefix(args)}.ht.{args.epoch}")
    _write_ht_fit(view, args.cond_channel, args.quantile, args.marginal_quantile, prefix)
    return 0


def cmd_ht_sim(args) -> int:
    view = _load_epoch(args)
    model = ce.conditional_model(
        view,
        args.cond_channel,
        cond_quantile=args.quantile,
        marginal_quantile=args.marginal_quantile,
    )
    prefix = Path(f"{_prefix(args)}.htsim.{args.epoch}")
    _write_ht_sim(model, args.cond_channel, args.level, args.n, args.seed, prefix, draws=True)
    return 0


# ---------------------------------------------------------------------------
# report


def cmd_report(args) -> int:
    rec = _load_input(args)
    if rec.onset_index is None:
        raise UsageError("report needs an onset (--onset or --onset-seconds)")
    cond_channel = args.cond_channel or rec.channels[0]
    rec.index_of(cond_channel)  # an unknown channel fails before any file is written
    run_length = _run_length(args, rec.fs)
    levels = args.u or list(ed.DEFAULT_U_GRID)
    # every numeric option is checked here, since each stage writes files
    pp._check_order(args.order, "--order")
    check_real(args.threshold_quantile, "--threshold-quantile", evt.THRESHOLD_QUANTILES)
    check_real(args.ht_quantile, "--ht-quantile", ce.COND_QUANTILES)
    for u in levels:
        check_real(u, "--u", "(0, 1)")
    check_real(args.level, "--level", "(0, 1)")
    if args.level < args.ht_quantile:
        raise UsageError(f"--level {args.level:g} lies below --ht-quantile {args.ht_quantile:g}")
    check_int(args.seed, "--seed", 0)
    check_int(args.n_boot, "--n-boot", 0)
    check_int(args.n_sim, "--n-sim", 1)
    pair = sio.split_at_onset(rec)
    epochs = {"pre": pair.pre, "post": pair.post}
    outdir = Path(args.outdir)
    stages = []

    def _stage(name: str, params: dict):
        """Add stage ``name`` to the manifest. Returns ``run(write, inputs)``,
        which records ``write(tag, item)`` -> (result, paths) per item of
        ``inputs`` on the stage and returns the results by tag; None if the
        stage failed, in this run or an earlier one, or its input stage did."""
        entry = {"name": name, "params": params, "outputs": [], "status": "ok"}
        stages.append(entry)

        def run(write, inputs: dict | None):
            if entry["status"] != "ok":
                return None
            results = {}
            try:
                if inputs is None:
                    raise UsageError("an upstream stage failed")
                for tag, item in inputs.items():
                    results[tag], written = write(tag, item)
                    # listed as each item returns, so a failed stage lists what it wrote
                    entry["outputs"] += [str(p.relative_to(outdir)) for p in written]
            except Exception as exc:  # recorded, so the manifest is still written
                entry["status"] = f"error: {type(exc).__name__}: {exc}"
                return None
            return results

        return run

    # per-band GPD tail fits; degenerate band/channel combos are recorded
    # and skipped, the stage fails only if nothing fits
    gpd_skipped: list[dict] = []

    def _gpd_tails(_, deco):
        paths = []
        for band_id, matrix in deco.bands.items():
            for c, name in enumerate(rec.channels):
                path = outdir / "gpd" / f"{band_id}.{name}.json"
                try:
                    fit = evt.fit_channel_tail(matrix[:, c], args.threshold_quantile, run_length)
                    paths.append(_write_gpd_fit(fit, name, band_id, path))
                except EegxError as exc:
                    gpd_skipped.append({"band": band_id, "channel": name, "error": str(exc)})
        if not paths:
            raise FitError("no band/channel tail could be fitted")
        return None, paths

    decompose = _stage("decompose", {"order": args.order, "omitting_infeasible": True})
    fit_gpd = _stage(
        "fit_gpd",
        {
            "threshold_quantile": args.threshold_quantile,
            "run_length": run_length,
            "skipped": gpd_skipped,
        },
    )
    chi = _stage("chi", {"u": levels, "n_boot": args.n_boot, "seed": args.seed})
    ht_fit = _stage("ht_fit", {"cond_channel": cond_channel, "quantile": args.ht_quantile})
    ht_sim = _stage("ht_sim", {"level": args.level, "n_sim": args.n_sim, "seed": args.seed})

    # One pool for the pass: the workers write the band files, then score
    # both epochs' chi replicates while the parent fits GPD and HT. Each
    # stage collects its own work, so a failure in it is its status.
    with sio._Pool() as pool:
        writing = decompose(
            lambda _, whole: (_write_bands(pool, whole, args.order, outdir / "bands", ""), []),
            {"all": rec},
        )
        scoring = chi(
            lambda _, view: (
                ed._submit_chi_matrices(pool, view, levels, args.n_boot, args.seed), []
            ),
            epochs,
        )
        bands = decompose(lambda _, finish: finish(), writing)
        fit_gpd(_gpd_tails, bands)
        models = ht_fit(
            lambda tag, view: _write_ht_fit(
                view, cond_channel, args.ht_quantile, args.threshold_quantile, outdir / "ht" / tag
            ),
            epochs,
        )
        ht_sim(
            lambda tag, model: _write_ht_sim(
                model, cond_channel, args.level, args.n_sim, args.seed, outdir / "sim" / tag
            ),
            models,
        )
        chi(lambda tag, finish: _write_chi(finish(), outdir / "chi" / tag, f" {tag}"), scoring)

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
    return 1 if any(s["status"] != "ok" for s in stages) else 0


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
