"""The benchmark's workloads: their inputs, one timed pass, and output checks.

Every workload makes its inputs from the benchmark seed only; eegx sees
the generated recordings, never the seed. Seed ``DEFAULT_SEED`` is the
one whose outputs are pinned in ``expected.json``; any other seed runs
only the checks that hold for every input.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import traceback
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from eegx import cli, oracle_sim
from eegx import cond_extremes as ce
from eegx import extremal_dep as ed
from eegx import preprocess as pp
from eegx import signal_io as sio
from eegx import spectral as sp

DEFAULT_SEED = 0
EXPECTED_PATH = Path(__file__).with_name("expected.json")

# Tolerances against the stored fits: tight enough to catch a changed
# estimator, loose enough for an exact 1-D profile search to replace the
# multi-start simplex fits (ROADMAP item 3).
ALPHA_TOL = 1e-6
BETA_TOL = 1e-5
XI_TOL = 1e-5
SIGMA_RTOL = 1e-5


@dataclass
class Outcome:
    """One attempted operation or output check."""

    name: str
    ok: bool
    detail: str = ""


class _Discard(io.TextIOBase):
    def write(self, s):
        return len(s)


def _attempt(name: str, fn) -> Outcome:
    """Run one operation; any exception is a failed operation, not a crash."""
    try:
        ok, detail = fn()
    except Exception:
        traceback.print_exc()
        return Outcome(name, False, "uncaught exception")
    return Outcome(name, ok, detail)


def _cli(argv: list[str]) -> tuple[bool, str]:
    with contextlib.redirect_stdout(_Discard()):
        rc = cli.main(argv)
    return rc == 0, f"exit {rc}"


def tree_digest(root: Path) -> dict[str, str]:
    """sha256 of every file under ``root``, keyed by relative path."""
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _read_csv(path: Path) -> tuple[str, np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        return header, np.loadtxt(fh, delimiter=",", ndmin=2)


def _bands_round_trip(input_csv: Path, path_of) -> Outcome:
    """Band CSVs parse back exactly to ``decompose_bands`` of the input."""

    def run():
        rec = sio.load_recording(input_csv)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            deco = pp.decompose_bands(rec)
        for band, matrix in deco.bands.items():
            header, body = _read_csv(path_of(band))
            if header != ",".join(rec.channels) or not np.array_equal(body, matrix):
                return False, f"band {band} differs from decompose_bands"
        return True, f"{len(deco.bands)} bands"

    return _attempt("bands_round_trip", run)


GPD_KEYS = ("sigma", "xi", "n_exceed")
HT_KEYS = ("alpha", "beta", "n_exceed")


def _pick(fit, keys) -> dict:
    """Selected fields of a fit object, or of its JSON file."""
    if isinstance(fit, Path):
        fit = json.loads(fit.read_text())
        return {k: fit[k] for k in keys}
    return {k: getattr(fit, k) for k in keys}


def _close(kind: str, got: dict, want: dict) -> bool:
    if got["n_exceed"] != want["n_exceed"]:
        return False
    if kind == "gpd":
        return (abs(got["xi"] - want["xi"]) <= XI_TOL
                and abs(got["sigma"] - want["sigma"]) <= SIGMA_RTOL * abs(want["sigma"]))
    return (abs(got["alpha"] - want["alpha"]) <= ALPHA_TOL
            and abs(got["beta"] - want["beta"]) <= BETA_TOL)


def compare_expected(workload: str, observed: dict) -> list[Outcome]:
    """Check observed digests and fitted parameters against the stored ones."""
    expected = json.loads(EXPECTED_PATH.read_text())[workload]
    out = []
    for section, want in expected.items():
        got = observed[section]
        if section.endswith("sha256"):
            ok = got == want
            detail = "" if ok else "digest changed"
        else:
            bad = sorted(k for k in want.keys() | got.keys()
                         if k not in got or k not in want or not _close(section, got[k], want[k]))
            ok = not bad
            detail = f"{len(want)} fits" if ok else f"differs: {bad[:4]}"
        out.append(Outcome(f"expected_{section}", ok, detail))
    return out


class Report:
    """The analyst's headline command on the criterion-10 recording."""

    name = "report"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.recording_seeds = [2024 + seed]
        self.input = workdir / "report.csv"

    def make_inputs(self) -> None:
        rec = oracle_sim.gen_synthetic_eeg(4, 50_000, 0.7, seed=self.recording_seeds[0])
        sio.save_recording(rec, self.input)

    def run_pass(self, outdir: Path) -> list[Outcome]:
        def run():
            ok, detail = _cli(["report", "--input", str(self.input), "--cond-channel", "T3",
                               "--seed", "11", "--outdir", str(outdir)])
            manifest = json.loads((outdir / "manifest.json").read_text())
            bad = [s["name"] for s in manifest["stages"] if s["status"] != "ok"]
            if bad:
                return False, f"{detail}; stages not ok: {bad}"
            return ok, detail

        return [_attempt("report", run)]

    def fingerprint(self, outdir: Path) -> dict:
        return tree_digest(outdir)

    def observed(self, outdir: Path) -> dict:
        return {
            "chi_sha256": {p: d for p, d in tree_digest(outdir / "chi").items() if p.endswith(".csv")},
            "gpd": {p.stem: _pick(p, GPD_KEYS) for p in sorted((outdir / "gpd").glob("*.json"))},
            "ht": {p.stem: _pick(p, HT_KEYS) for p in sorted((outdir / "ht").glob("*.json"))},
        }

    def checks(self, outdir: Path) -> list[Outcome]:
        out = [_bands_round_trip(self.input, lambda band: outdir / "bands" / f"{band}.csv")]
        if self.seed == DEFAULT_SEED:
            out += compare_expected(self.name, self.observed(outdir))
        return out


class Cohort:
    """The criterion-10 pre/post contrast loop: no bootstrap, no file I/O."""

    name = "cohort"
    n_recordings = 8

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        base = self.n_recordings * seed
        self.recording_seeds = list(range(base, base + self.n_recordings))
        self.recs = []
        self.results: list[dict] = []

    def make_inputs(self) -> None:
        self.recs = [oracle_sim.gen_synthetic_eeg(3, 50_000, 0.7, seed=s)
                     for s in self.recording_seeds]

    def _contrast_pair(self, seed: int, rec) -> tuple[bool, str]:
        pair = sio.split_at_onset(rec)
        chi = {"pre": ed.chi_matrix(pair.pre, 0.95, n_boot=0),
               "post": ed.chi_matrix(pair.post, 0.95, n_boot=0)}
        fits = {"pre": ce.conditional_model(pair.pre, "T3", 0.95, 0.95),
                "post": ce.conditional_model(pair.post, "T3", 0.95, 0.95)}
        self.results.append({"seed": seed, "chi": chi, "fits": fits})
        return True, ""

    def run_pass(self, outdir: Path) -> list[Outcome]:
        self.results = []
        return [_attempt(f"cohort[{s}]", functools.partial(self._contrast_pair, s, rec))
                for s, rec in zip(self.recording_seeds, self.recs)]

    def fingerprint(self, outdir: Path) -> dict:
        h = hashlib.sha256()
        for r in self.results:
            for tag in ("pre", "post"):
                h.update(r["chi"][tag].chi_values.tobytes())
                h.update(r["chi"][tag].chibar_values.tobytes())
                fits, transforms = r["fits"][tag]
                for f in fits.values():
                    h.update(np.array([f.alpha, f.beta, f.mu, f.s, f.nll]).tobytes())
                for mt in transforms.values():
                    h.update(np.array([mt.gpd.sigma, mt.gpd.xi, mt.u]).tobytes())
        return {"results": h.hexdigest()}

    def observed(self, outdir: Path) -> dict:
        ht, gpd = {}, {}
        for r in self.results:
            for tag in ("pre", "post"):
                fits, transforms = r["fits"][tag]
                for dep, f in fits.items():
                    ht[f"{r['seed']}.{tag}.{dep}"] = _pick(f, HT_KEYS)
                for ch, mt in transforms.items():
                    gpd[f"{r['seed']}.{tag}.{ch}"] = _pick(mt.gpd, GPD_KEYS)
        return {"ht": ht, "gpd": gpd}

    def checks(self, outdir: Path) -> list[Outcome]:
        def contrast():
            lost = []
            for r in self.results:
                pre, post = r["chi"]["pre"].chi_values, r["chi"]["post"].chi_values
                fits_pre, fits_post = r["fits"]["pre"][0], r["fits"]["post"][0]
                if not (all(post[0, j] > pre[0, j] for j in range(1, pre.shape[0]))
                        and all(fits_post[d].alpha > fits_pre[d].alpha for d in fits_pre)):
                    lost.append(r["seed"])
            if len(self.results) != self.n_recordings:
                return False, "missing recordings"
            return not lost, f"no contrast in {lost}" if lost else f"{len(self.results)} recordings"

        out = [_attempt("post_exceeds_pre", contrast)]
        if self.seed == DEFAULT_SEED:
            out += compare_expected(self.name, self.observed(outdir))
        return out


class Stages:
    """Single-stage subcommands on a wide recording: many reads, large writes."""

    name = "stages"
    commands = {
        "decompose": ["decompose"],
        "welch": ["spectrum", "--method", "welch"],
        "periodogram": ["spectrum", "--method", "periodogram"],
        "fit-gpd": ["fit-gpd"],
    }

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.recording_seeds = [2024 + seed]
        self.input = workdir / "stages.csv"

    def make_inputs(self) -> None:
        rec = oracle_sim.gen_synthetic_eeg(4, 50_000, 0.7, seed=self.recording_seeds[0])
        sio.save_recording(rec, self.input)

    def run_pass(self, outdir: Path) -> list[Outcome]:
        return [
            _attempt(sub, functools.partial(
                _cli, argv + ["--input", str(self.input), "--outdir", str(outdir / sub)]))
            for sub, argv in self.commands.items()
        ]

    def fingerprint(self, outdir: Path) -> dict:
        return tree_digest(outdir)

    def observed(self, outdir: Path) -> dict:
        return {"gpd": {p.stem: _pick(p, GPD_KEYS)
                        for p in sorted((outdir / "fit-gpd").glob("*.json"))}}

    def checks(self, outdir: Path) -> list[Outcome]:
        def periodogram_round_trip():
            rec = sio.load_recording(self.input)
            for ch in rec.channels:
                est = sp.periodogram(rec.channel(ch), rec.fs)
                header, body = _read_csv(outdir / "periodogram" / f"stages.{ch}.spectrum.csv")
                if (header != "freq_hz,power" or not np.array_equal(body[:, 0], est.freqs_hz)
                        or not np.array_equal(body[:, 1], est.power)):
                    return False, f"periodogram of {ch} differs"
            return True, f"{rec.n_channels} channels"

        out = [
            _bands_round_trip(self.input, lambda band: outdir / "decompose" / f"stages.{band}.csv"),
            _attempt("periodogram_round_trip", periodogram_round_trip),
        ]
        if self.seed == DEFAULT_SEED:
            out += compare_expected(self.name, self.observed(outdir))
        return out


WORKLOADS = {w.name: w for w in (Report, Cohort, Stages)}
