import json
import multiprocessing
import re
from dataclasses import replace
from xml.dom import minidom
from xml.sax.saxutils import escape

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eegx import cli, gen_synthetic_eeg, save_recording
from eegx import signal_io as sio
from eegx._svg import _escape, heatmap_svg
from eegx.cli import main


@pytest.fixture(scope="module")
def rec_csv(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    rec = gen_synthetic_eeg(4, 12_000, 0.7, seed=3)
    path = d / "rec.csv"
    save_recording(rec, path)
    return path


_SIDECAR = "rec.csv.meta.json"


def run(argv):
    return main([str(a) for a in argv])


class TestSimulate:
    def test_writes_csv_and_sidecar(self, tmp_path):
        out = tmp_path / "sim.csv"
        rc = run(["simulate", "--kind", "synthetic_eeg", "--out", out,
                  "--channels", "3", "--t", "2000", "--seed", "1"])
        assert rc == 0
        assert out.exists()
        meta = json.loads((tmp_path / "sim.csv.meta.json").read_text())
        assert meta["fs"] == 100.0
        assert meta["onset_index"] == 1400
        # the sidecar is save_recording's
        assert (tmp_path / "sim.csv.meta.json").read_bytes() == (
            b'{"fs": 100.0, "onset_index": 1400}\n'
        )

    def test_scalar_kind(self, tmp_path):
        out = tmp_path / "gpd.csv"
        rc = run(["simulate", "--kind", "gpd", "--out", out, "--n", "500",
                  "--sigma", "2.0", "--xi", "0.2", "--seed", "4"])
        assert rc == 0
        header = out.read_text().splitlines()[0]
        assert header == "y"

    def test_bad_seed_exits_2(self, tmp_path, capsys):
        rc = run(["simulate", "--kind", "gpd", "--out", tmp_path / "g.csv", "--seed", "-1"])
        assert rc == 2
        assert capsys.readouterr().err == "eegx simulate: error: seed must be >= 0, got -1\n"
        assert list(tmp_path.iterdir()) == []

    def test_pair_kind(self, tmp_path):
        out = tmp_path / "pair.csv"
        rc = run(["simulate", "--kind", "gaussian_copula_pair", "--out", out,
                  "--n", "500", "--rho", "0.5", "--seed", "4"])
        assert rc == 0
        assert out.read_text().splitlines()[0] == "u1,u2"


class TestCsvText:
    def test_bytes_match_str_per_cell(self):
        # float columns go through the float kernel; labels and integers stay str
        edges = [0.1, -0.0, np.nan, np.inf, 1e-5, 1e16, 123.456, 2.5e-300, 5e-324, 7.0]
        columns = {
            "label": [f"c{i}" for i in range(10)],
            "x": np.array(edges),
            "y": [float(i) / 3 for i in range(10)],
            "count": np.arange(10),
            "z": np.array(edges[::-1]),
            "w": [1, 2.5, 3, 4, 5, 6, 7, 8, 9, 10],  # mixed: float64 once an array
        }
        cells = [map(str, np.asarray(col).tolist()) for col in columns.values()]
        want = "\n".join([",".join(columns), *map(",".join, zip(*cells))]) + "\n"
        assert "".join(sio._table_text(list(columns.items()))) == want

    def test_empty_columns(self):
        assert "".join(sio._table_text([("a", np.array([])), ("b", [])])) == "a,b\n"


class TestValidationFirst:
    def test_unknown_flag_exits_2(self, rec_csv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["chi", "--input", rec_csv, "--no-such-flag", "1"])
        assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == []

    def test_missing_input_exits_2(self, tmp_path):
        rc = run(["decompose", "--input", tmp_path / "nope.csv", "--fs", "100",
                  "--outdir", tmp_path])
        assert rc == 2

    def test_epoch_without_onset_exits_2(self, tmp_path):
        rec = gen_synthetic_eeg(2, 2_000, 0.5, seed=0)
        p = tmp_path / "noonset.csv"
        save_recording(
            rec.__class__(channels=rec.channels, fs=rec.fs, data=rec.data), p
        )
        rc = run(["chi", "--input", p, "--epoch", "post", "--outdir", tmp_path,
                  "--n-boot", "0"])
        assert rc == 2

    def test_onset_flag_overrides_sidecar(self, rec_csv, tmp_path):
        rc = run(["chi", "--input", rec_csv, "--u", "0.9", "--epoch", "pre",
                  "--onset", "6000", "--n-boot", "0", "--outdir", tmp_path])
        assert rc == 0

    def test_onset_seconds_converted(self, rec_csv, tmp_path):
        # 60 s at fs=100 -> sample 6,000
        rc = run(["chi", "--input", rec_csv, "--u", "0.9", "--epoch", "pre",
                  "--onset-seconds", "60", "--n-boot", "0", "--outdir", tmp_path])
        assert rc == 0

    @pytest.mark.parametrize("flag", [["--onset", "1000"], ["--onset-seconds", "10"]])
    def test_onset_flag_replaces_a_bad_sidecar_onset(self, tmp_path, flag):
        # the sidecar's onset is neither read nor checked when a flag replaces it
        rec = gen_synthetic_eeg(2, 2_000, 0.5, seed=0)
        trees = []
        for name, sidecar_onset in (("bad", 99_999), ("saved", rec.onset_index)):
            path = tmp_path / name / "rec.csv"
            path.parent.mkdir()
            save_recording(rec, path)
            sio.sidecar_path(path).write_text(f'{{"fs": 100.0, "onset_index": {sidecar_onset}}}')
            out = tmp_path / name / "out"
            rc = run(["chi", "--input", path, "--u", "0.9", "--epoch", "pre", "--n-boot", "0",
                      *flag, "--outdir", out])
            assert rc == 0
            trees.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert trees[0] and trees[0] == trees[1]

    def test_onset_flags_conflict(self, rec_csv, tmp_path):
        rc = run(["chi", "--input", rec_csv, "--onset", "5", "--onset-seconds",
                  "1.0", "--outdir", tmp_path])
        assert rc == 2


    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "--seg-seconds", "0.01"],
            ["spectrum", "--seg-seconds", "0.02"],
            ["spectrum", "--seg-seconds", "nan"],
            ["decompose", "--fs", "inf"],
            ["chi", "--epoch", "pre", "--onset-seconds", "nan"],
            ["chi", "--epoch", "pre", "--onset-seconds", "inf"],
            ["fit-gpd", "--run-length", "0"],
            ["report", "--run-length", "0"],
            ["report", "--onset", "1"],
            ["fit-gpd", "--channel", "T3", "--channel", "nope"],
            ["report", "--n-sim", "0"],
            ["report", "--level", "1.5"],
            ["report", "--level", "0.9"],
            ["report", "--u", "0.9", "--u", "1.2"],
            ["report", "--u", "nan"],
            ["report", "--n-boot", "-1"],
            ["report", "--seed", "-1"],
            ["report", "--order", "3"],
            ["report", "--threshold-quantile", "0.5"],
            ["report", "--ht-quantile", "0.5"],
            ["chi", "--seed", "-1"],
            ["chi", "--n-boot", "-1"],
            ["ht-sim", "--cond-channel", "T3", "--seed", "-1"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_bad_value_exits_2_before_writing(self, rec_csv, tmp_path, capsys, argv):
        out = tmp_path / "out"
        rc = run([*argv, "--input", rec_csv, "--outdir", out])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"eegx {argv[0]}: error: ") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "name, content, argv",
        [
            (_SIDECAR, {"fs": "abc"}, ["decompose"]),
            (_SIDECAR, {"fs": [1]}, ["decompose"]),
            (_SIDECAR, {"fs": "abc", "onset_index": 500},
             ["chi", "--epoch", "pre", "--onset-seconds", "5"]),
            (_SIDECAR, {"fs": 100.0, "onset_index": 1.7}, ["decompose"]),
            (_SIDECAR, {"fs": 100.0, "onset_index": "x"}, ["report"]),
            (_SIDECAR, b'{"fs": 100.0, "note": "\xff"}', ["decompose"]),
            (_SIDECAR, None, ["decompose"]),
            ("rec.csv", b"\xff\xfeT\x003\x00\n\x001\x00\n\x00", ["decompose", "--fs", "100"]),
            ("rec.csv", None, ["decompose", "--fs", "100"]),
        ],
        ids=["fs-text", "fs-list", "fs-text-onset-seconds", "onset-float", "onset-text",
             "sidecar-not-utf8", "sidecar-directory", "csv-not-utf8", "csv-directory"],
    )
    def test_bad_sidecar_exits_2_before_writing(self, tmp_path, capsys, name, content, argv):
        # file ``name`` of a saved recording is replaced by ``content``:
        # JSON of a dict, raw bytes, or a directory for None
        rec = gen_synthetic_eeg(2, 2_000, 0.5, seed=0)
        path = tmp_path / "rec.csv"
        save_recording(rec, path)
        (tmp_path / name).unlink()
        if content is None:
            (tmp_path / name).mkdir()
        elif isinstance(content, bytes):
            (tmp_path / name).write_bytes(content)
        else:
            (tmp_path / name).write_text(json.dumps(content))
        out = tmp_path / "out"
        rc = run([*argv, "--input", path, "--outdir", out])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"eegx {argv[0]}: error: ") and "Traceback" not in err
        assert not out.exists()

    def test_one_channel_ht_fit_exits_2(self, tmp_path, capsys):
        rec = gen_synthetic_eeg(2, 4_000, 0.5, seed=0)
        p = tmp_path / "one.csv"
        save_recording(
            rec.__class__(channels=("T3",), fs=rec.fs, data=rec.data[:, :1], onset_index=2_000),
            p,
        )
        out = tmp_path / "out"
        rc = run(["ht-fit", "--input", p, "--cond-channel", "T3", "--outdir", out])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("eegx ht-fit: error: need at least 2 channels")
        assert not out.exists()

    def test_unknown_cond_channel_reported_as_report_does(self, rec_csv, tmp_path, capsys):
        # ht-fit and ht-sim look the conditioning channel up as report does
        messages = set()
        for cmd in ("ht-fit", "ht-sim", "report"):
            out = tmp_path / cmd
            rc = run([cmd, "--cond-channel", "nope", "--input", rec_csv, "--outdir", out])
            assert rc == 2
            assert not out.exists()
            messages.add(capsys.readouterr().err.removeprefix(f"eegx {cmd}: error: "))
        assert messages == {"unknown channel 'nope'; available: ['T3', 'Fp1', 'Fp2', 'F3']\n"}

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--ht-quantile", "0.5"),
            ("--threshold-quantile", "inf"),
            ("--order", "3"),
            ("--run-length", "0"),
            ("--u", "1.2"),
            ("--level", "nan"),
            ("--n-boot", "-1"),
            ("--n-sim", "0"),
            ("--seed", "-1"),
            ("--fs", "nan"),
            ("--onset", "0"),
            ("--onset", "99999"),
            ("--onset-seconds", "1e300"),
        ],
    )
    def test_report_names_the_flag(self, rec_csv, tmp_path, capsys, flag, value):
        out = tmp_path / "out"
        rc = run(["report", "--input", rec_csv, "--outdir", out, f"{flag}={value}"])
        assert rc == 2
        # a flag in seconds is checked in samples, and its message says so
        assert re.search(rf"error: {flag}( in samples at fs=100 Hz)? must", capsys.readouterr().err)
        assert not out.exists()

    def test_onset_seconds_message_prints_a_float(self, rec_csv, tmp_path, capsys):
        out = tmp_path / "out"
        rc = run(["chi", "--epoch", "pre", "--input", rec_csv, "--outdir", out,
                  "--onset-seconds=1e300"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "eegx chi: error: --onset-seconds in samples at fs=100 Hz must lie in "
            "(0.5, 11999.5), got 1e+302\n"
        )
        assert not out.exists()


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("small") / "rec.csv"
    save_recording(gen_synthetic_eeg(3, 4_000, 0.6, seed=3), path)
    return path


#: Per subcommand, its arguments and the numeric flags fuzzed with them.
#: The arguments make each flag count: fit-gpd filters a band, so that
#: --order is used, and each generator parameter goes to a kind that
#: draws with it. Few replicates and draws keep the calls quick.
NUMERIC_FLAGS = {
    "simulate": (["--channels", "2", "--t", "1000"],
                 ("--seed", "--channels", "--t", "--onset-fraction")),
    "simulate-gpd": (["--kind", "gpd", "--n", "200"], ("--n", "--sigma", "--xi")),
    "simulate-copula": (["--kind", "gaussian_copula_pair", "--n", "200"], ("--rho",)),
    "decompose": ([], ("--fs", "--order")),
    "spectrum": ([], ("--fs", "--seg-seconds", "--overlap")),
    "fit-gpd": (["--band", "alpha", "--no-diagnostics"],
                ("--fs", "--threshold-quantile", "--run-length", "--order")),
    "chi": (["--n-boot", "5"], ("--fs", "--onset", "--onset-seconds", "--u", "--n-boot", "--seed")),
    "ht-fit": (["--cond-channel", "T3"],
               ("--fs", "--onset", "--onset-seconds", "--quantile", "--marginal-quantile")),
    "ht-sim": (["--cond-channel", "T3", "--n", "100"],
               ("--fs", "--onset", "--onset-seconds", "--quantile", "--marginal-quantile",
                "--level", "--n", "--seed")),
    "report": (["--n-boot", "5", "--n-sim", "100"],
               ("--fs", "--onset", "--onset-seconds", "--order", "--threshold-quantile",
                "--run-length", "--u", "--n-boot", "--ht-quantile", "--level", "--n-sim",
                "--seed")),
}


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize(
    "config, flag, value",
    [
        pytest.param(config, flag, value, id=f"{config}{flag}={value}")
        for config, (_, flags) in NUMERIC_FLAGS.items()
        for flag in flags
        for value in ("nan", "inf", "-inf", "-1", "0", "1e300")
    ],
)
def test_numeric_flag_fuzz(small_csv, tmp_path, config, flag, value):
    """A bad value exits 2 before any file is written; a value the
    subcommand can run with exits 0. Exit 1 is a computation error, such
    as a sampling rate of 1e300 Hz at which no band-pass is stable: it
    leaves no file, except that report keeps the manifest of its stages."""
    args, _ = NUMERIC_FLAGS[config]
    command = config.split("-")[0] if config.startswith("simulate") else config
    out = tmp_path / "out"
    out.mkdir()
    dest = ["--out", out / "sim.csv"] if command == "simulate" else [
        "--input", small_csv, "--outdir", out]
    try:
        rc = run([command, *args, *dest, f"{flag}={value}"])
    except SystemExit as exc:  # argparse: not a number of the flag's type
        rc = exc.code
    written = [p for p in out.rglob("*") if p.is_file()]
    if rc == 1 and command == "report":
        assert out / "manifest.json" in written
    else:
        assert rc == 0 or (rc in (1, 2) and written == [])


@pytest.fixture(scope="module")
def degenerate_inputs(tmp_path_factory):
    """Recordings a subcommand must either analyse or reject cleanly, by
    name: 3 channels of 3 000 samples (T3, Fp1, Fp2, onset at 1 800)
    with one flaw each, or files that are not a recording."""
    directory = tmp_path_factory.mktemp("degenerate")
    rec = gen_synthetic_eeg(3, 3_000, 0.6, seed=5)
    data = np.array(rec.data)
    constant, constant_post = data.copy(), data.copy()
    constant[:, 1] = 2.5
    constant_post[rec.onset_index:, 1] = 2.5
    recordings = {
        "constant-channel": replace(rec, data=constant),
        "constant-after-onset": replace(rec, data=constant_post),
        "one-channel": replace(rec, channels=("T3",), data=data[:, :1]),
        "two-samples": replace(rec, data=data[:2], onset_index=1),
    }
    paths = {}
    for name, r in recordings.items():
        paths[name] = save_recording(r, directory / f"{name}.csv")
    lines = (directory / "constant-channel.csv").read_text().splitlines(keepends=True)
    lines[100] = "0.5,nan,1.0\n"
    texts = {"nan-cell": "".join(lines), "empty-file": "", "header-only": "T3,Fp1,Fp2\n"}
    for name, text in texts.items():
        paths[name] = directory / f"{name}.csv"
        paths[name].write_text(text)
        sio.sidecar_path(paths[name]).write_text('{"fs": 100.0, "onset_index": 1800}\n')
    return paths


DEGENERATE_COMMANDS = {
    "decompose": ["decompose"],
    "spectrum-welch": ["spectrum", "--method", "welch"],
    "spectrum-periodogram": ["spectrum", "--method", "periodogram"],
    # every cluster its own peak, so T3 fits and a flawed Fp1 fails after it
    "fit-gpd": ["fit-gpd", "--run-length", "1"],
    "chi": ["chi", "--n-boot", "5"],
    "ht-fit": ["ht-fit", "--cond-channel", "T3"],
    "ht-sim": ["ht-sim", "--cond-channel", "T3", "--n", "100"],
    "report": ["report", "--cond-channel", "T3", "--n-boot", "5", "--n-sim", "100"],
}


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("command", DEGENERATE_COMMANDS)
@pytest.mark.parametrize(
    "recording",
    ["constant-channel", "constant-after-onset", "one-channel", "two-samples", "nan-cell",
     "empty-file", "header-only"],
)
def test_degenerate_input(degenerate_inputs, tmp_path, recording, command):
    """Every subcommand exits 0, or exits 1 or 2 with no file written;
    a report that exits 1 writes a manifest listing every file it wrote."""
    out = tmp_path / "out"
    argv = DEGENERATE_COMMANDS[command]
    rc = run([*argv, "--input", degenerate_inputs[recording], "--outdir", out])
    written = sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file())
    if rc == 1 and argv[0] == "report":
        manifest = json.loads((out / "manifest.json").read_text())
        listed = [rel for stage in manifest["stages"] for rel in stage["outputs"]]
        assert written == sorted([*listed, "manifest.json"])
    else:
        assert rc == 0 or (rc in (1, 2) and written == [])


class TestSubcommands:
    def test_decompose(self, rec_csv, tmp_path):
        rc = run(["decompose", "--input", rec_csv, "--outdir", tmp_path])
        assert rc == 0
        for band in ("delta", "theta", "alpha", "beta", "gamma"):
            f = tmp_path / f"rec.{band}.csv"
            assert f.exists()
            assert f.read_text().splitlines()[0] == "T3,Fp1,Fp2,F3"

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_decompose_omits_infeasible_bands(self, small_csv, tmp_path, capsys):
        # at fs=5 Hz only delta lies below the Nyquist frequency
        rc = run(["decompose", "--input", small_csv, "--fs", "5", "--outdir", tmp_path])
        assert rc == 0
        assert ("bands omitted (infeasible at fs=5): ['theta', 'alpha', 'beta', 'gamma']\n"
                in capsys.readouterr().out)
        assert [p.name for p in tmp_path.iterdir()] == ["rec.delta.csv"]

    def test_spectrum(self, rec_csv, tmp_path):
        rc = run(["spectrum", "--input", rec_csv, "--outdir", tmp_path])
        assert rc == 0
        assert (tmp_path / "rec.T3.spectrum.csv").exists()
        bp = (tmp_path / "rec.bandpower.csv").read_text().splitlines()
        assert bp[0] == "channel,delta,theta,alpha,beta,gamma"
        assert len(bp) == 5

    def test_fit_gpd(self, rec_csv, tmp_path):
        rc = run(["fit-gpd", "--input", rec_csv, "--channel", "T3",
                  "--threshold-quantile", "0.95", "--outdir", tmp_path])
        assert rc == 0
        payload = json.loads((tmp_path / "rec.gpd.T3.json").read_text())
        assert set(payload) == {
            "channel", "band", "u", "sigma", "xi", "zeta_u", "n_exceed",
            "se_sigma", "se_xi", "nll",
        }
        assert payload["channel"] == "T3"
        assert payload["sigma"] > 0
        assert (tmp_path / "rec.mrl.T3.csv").exists()
        assert (tmp_path / "rec.stability.T3.csv").exists()

    def test_chi(self, rec_csv, tmp_path):
        rc = run(["chi", "--input", rec_csv, "--u", "0.95", "--epoch", "post",
                  "--n-boot", "10", "--seed", "1", "--outdir", tmp_path])
        assert rc == 0
        lines = (tmp_path / "rec.chi.post.csv").read_text().splitlines()
        assert lines[0] == ("channel_a,channel_b,u,chi,chi_lo,chi_hi,"
                            "chibar,chibar_lo,chibar_hi,n_joint")
        assert len(lines) == 1 + 6  # C(4,2) pairs
        svg = (tmp_path / "rec.chi.post.u0.95.svg").read_text()
        assert svg.startswith("<svg") and "T3" in svg

    def test_ht_fit(self, rec_csv, tmp_path):
        rc = run(["ht-fit", "--input", rec_csv, "--cond-channel", "T3",
                  "--epoch", "post", "--outdir", tmp_path])
        assert rc == 0
        payload = json.loads((tmp_path / "rec.ht.post.Fp1.json").read_text())
        assert payload["cond_channel"] == "T3"
        assert -1.0 <= payload["alpha"] <= 1.0
        res = (tmp_path / "rec.ht.post.residuals.csv").read_text().splitlines()
        assert res[0] == "exceed_index,Fp1,Fp2,F3"
        assert len(res) == 1 + payload["n_exceed"]

    def test_ht_sim(self, rec_csv, tmp_path):
        rc = run(["ht-sim", "--input", rec_csv, "--cond-channel", "T3",
                  "--epoch", "post", "--level", "0.99", "--n", "500",
                  "--seed", "2", "--outdir", tmp_path])
        assert rc == 0
        draws = (tmp_path / "rec.htsim.post.draws.csv").read_text().splitlines()
        assert len(draws) == 501
        summary = (tmp_path / "rec.htsim.post.summary.csv").read_text().splitlines()
        assert summary[0] == "channel,scale,mean,median,q05,q95"
        assert len(summary) == 1 + 3 * 2  # three deps, two scales


class TestHeatmapSvg:
    @pytest.mark.parametrize("name", ["A&B", "<x>"])
    def test_markup_in_names_is_escaped(self, name):
        svg = heatmap_svg(np.eye(2), (name, "C"), f"chi {name}")
        texts = [t.firstChild.data for t in minidom.parseString(svg).getElementsByTagName("text")]
        assert texts[0] == f"chi {name}"
        assert texts.count(name) == 2  # the column and the row label

    @given(st.text(st.sampled_from("&<>;amp lt gt\"'A\u00e9")))
    def test_escape_matches_saxutils(self, text):
        assert _escape(text) == escape(text)


def _files(root):
    return sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file())


class TestNamesFromChannels:
    """Channel names end up in table headers and output paths; names that
    would collide there or leave ``--outdir`` are refused before any write."""

    def test_colliding_table_columns_refused(self, tmp_path):
        # ht-fit's residuals and ht-sim's draws name columns after channels
        rec = gen_synthetic_eeg(3, 6_000, 0.6, seed=1)
        rec = replace(rec, channels=("T3", "cond", "exceed_index"))
        save_recording(rec, tmp_path / "rec.csv")
        for argv in (["ht-sim", "--cond-channel", "T3", "--n", "50"],
                     ["ht-fit", "--cond-channel", "T3"]):
            out = tmp_path / argv[0]
            assert run([*argv, "--input", tmp_path / "rec.csv", "--outdir", out]) == 2
            assert not out.exists()
        out = tmp_path / "report"
        rc = run(["report", "--input", tmp_path / "rec.csv", "--cond-channel", "T3",
                  "--u", "0.9", "--n-boot", "5", "--n-sim", "50", "--outdir", out])
        assert rc == 1
        stages = {s["name"]: s for s in json.loads((out / "manifest.json").read_text())["stages"]}
        assert stages["ht_fit"]["status"].startswith("error: ValidationError: duplicate")
        assert stages["ht_fit"]["outputs"] == []
        assert not (out / "ht").exists()

    @pytest.mark.parametrize("name", ["../../esc/x", "F\0x"], ids=["slash", "nul"])
    @pytest.mark.parametrize(
        "argv",
        [["decompose"], ["spectrum"], ["fit-gpd", "--no-diagnostics"], ["chi", "--n-boot", "5"],
         ["ht-fit", "--cond-channel", "T3"], ["ht-sim", "--cond-channel", "T3", "--n", "50"],
         ["report", "--cond-channel", "T3", "--n-boot", "5", "--n-sim", "50"]],
        ids=lambda argv: argv[0],
    )
    def test_path_steering_names_refused(self, tmp_path, argv, name):
        rec = gen_synthetic_eeg(2, 3_000, 0.6, seed=1)
        src = tmp_path / "in" / "rec.csv"
        src.parent.mkdir()
        rows = "".join(",".join(map(repr, row)) + "\n" for row in rec.data.tolist())
        src.write_text(f"T3,{name}\n{rows}")
        sio.sidecar_path(src).write_text(
            json.dumps({"fs": rec.fs, "onset_index": rec.onset_index})
        )
        before = _files(tmp_path)
        assert run([*argv, "--input", src, "--outdir", tmp_path / "out" / "deep"]) == 2
        assert _files(tmp_path) == before


class TestReport:
    def test_full_report(self, rec_csv, tmp_path):
        out = tmp_path / "report"
        rc = run(["report", "--input", rec_csv, "--cond-channel", "T3",
                  "--n-boot", "10", "--n-sim", "500", "--seed", "5",
                  "--outdir", out])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["version"] == "1"
        names = [s["name"] for s in manifest["stages"]]
        assert names == ["decompose", "fit_gpd", "chi", "ht_fit", "ht_sim"]
        assert all(s["status"] == "ok" for s in manifest["stages"])
        # every listed output exists
        for stage in manifest["stages"]:
            for rel in stage["outputs"]:
                assert (out / rel).exists()

    def test_stage_crash_still_writes_manifest(self, rec_csv, tmp_path, monkeypatch):
        def crash(*args, **kwargs):
            raise RuntimeError("worker died")

        monkeypatch.setattr(cli, "_write_chi", crash)
        out = tmp_path / "report"
        rc = run(["report", "--input", rec_csv, "--cond-channel", "T3",
                  "--n-boot", "5", "--n-sim", "200", "--outdir", out])
        assert rc == 1
        manifest = json.loads((out / "manifest.json").read_text())
        status = {s["name"]: s["status"] for s in manifest["stages"]}
        assert status.pop("chi") == "error: RuntimeError: worker died"
        assert set(status.values()) == {"ok"}

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_no_tail_fitted_is_fit_gpd_status(self, small_csv, tmp_path):
        # runs of 2 000 samples merge each band series into one cluster, too
        # few peaks for any GPD fit
        out = tmp_path / "report"
        rc = run(["report", "--input", small_csv, "--run-length", "2000", "--n-boot", "5",
                  "--n-sim", "50", "--outdir", out])
        assert rc == 1
        stages = {s["name"]: s for s in json.loads((out / "manifest.json").read_text())["stages"]}
        gpd = stages.pop("fit_gpd")
        assert gpd["status"] == "error: FitError: no band/channel tail could be fitted"
        assert len(gpd["params"]["skipped"]) == 15  # 5 bands x 3 channels
        assert gpd["outputs"] == []
        assert {s["status"] for s in stages.values()} == {"ok"}
        listed = [rel for stage in stages.values() for rel in stage["outputs"]]
        written = sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file())
        assert written == sorted([*listed, "manifest.json"])

    def test_report_requires_onset(self, tmp_path):
        rec = gen_synthetic_eeg(2, 2_000, 0.5, seed=0)
        p = tmp_path / "noonset.csv"
        save_recording(
            rec.__class__(channels=rec.channels, fs=rec.fs, data=rec.data), p
        )
        rc = run(["report", "--input", p, "--outdir", tmp_path / "r"])
        assert rc == 2
        assert not (tmp_path / "r" / "manifest.json").exists()

    def test_stage_writers_match_subcommands(self, rec_csv, tmp_path):
        report, sub = tmp_path / "report", tmp_path / "sub"
        rc = run(["report", "--input", rec_csv, "--cond-channel", "T3",
                  "--n-boot", "10", "--n-sim", "300", "--seed", "7",
                  "--outdir", report])
        assert rc == 0
        for argv in (
            ["decompose"],
            ["fit-gpd", "--band", "alpha", "--channel", "T3", "--no-diagnostics"],
            ["chi", "--epoch", "post", "--n-boot", "10", "--seed", "7"],
            ["ht-fit", "--cond-channel", "T3", "--epoch", "post"],
            ["ht-sim", "--cond-channel", "T3", "--epoch", "post", "--n", "300",
             "--seed", "7"],
        ):
            assert run([*argv, "--input", rec_csv, "--outdir", sub]) == 0
        pairs = {
            "bands/alpha.csv": "rec.alpha.csv",
            "gpd/alpha.T3.json": "rec.gpd.T3.alpha.json",
            "chi/post.csv": "rec.chi.post.csv",
            "ht/post.Fp1.json": "rec.ht.post.Fp1.json",
            "ht/post.residuals.csv": "rec.ht.post.residuals.csv",
            "sim/post.summary.csv": "rec.htsim.post.summary.csv",
        }
        for in_report, in_sub in pairs.items():
            assert (report / in_report).read_bytes() == (sub / in_sub).read_bytes(), in_report

    def test_rerun_byte_identical(self, rec_csv, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            rc = run(["report", "--input", rec_csv, "--cond-channel", "T3",
                      "--n-boot", "5", "--n-sim", "200", "--seed", "9",
                      "--outdir", out])
            assert rc == 0
        files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel

    @staticmethod
    def _statuses(out):
        manifest = json.loads((out / "manifest.json").read_text())
        return {s["name"]: s["status"] for s in manifest["stages"]}

    def test_bytes_do_not_depend_on_core_count(self, rec_csv, tmp_path, monkeypatch):
        trees = {}
        for cores in (1, 2, 3):
            monkeypatch.setattr(sio, "_usable_cores", lambda: cores)
            out = tmp_path / f"cores{cores}"
            rc = run(["report", "--input", rec_csv, "--cond-channel", "T3",
                      "--n-boot", "7", "--n-sim", "200", "--seed", "4", "--outdir", out])
            assert rc == 0
            trees[cores] = {p.relative_to(out): p.read_bytes()
                            for p in sorted(out.rglob("*")) if p.is_file()}
        assert len(trees[1]) > 30
        assert trees[2] == trees[1]
        assert trees[3] == trees[1]

    def test_stage_failure_with_pool_open(self, rec_csv, tmp_path, monkeypatch):
        # ht_fit dies while the workers still hold chi's replicate blocks
        pool_open = []

        def crash(*args, **kwargs):
            pool_open.append(bool(multiprocessing.active_children()))
            raise RuntimeError("fit died")

        monkeypatch.setattr(sio, "_usable_cores", lambda: 2)
        monkeypatch.setattr(cli, "_write_ht_fit", crash)
        out = tmp_path / "report"
        rc = run(["report", "--input", rec_csv, "--cond-channel", "T3",
                  "--n-boot", "50", "--n-sim", "200", "--outdir", out])
        assert rc == 1
        assert pool_open == [True]
        assert self._statuses(out) == {
            "decompose": "ok",
            "fit_gpd": "ok",
            "chi": "ok",
            "ht_fit": "error: RuntimeError: fit died",
            "ht_sim": "error: UsageError: an upstream stage failed",
        }
        assert (out / "chi" / "post.csv").exists()
        assert multiprocessing.active_children() == []

    def test_worker_band_write_failure_is_decompose_status(self, rec_csv, tmp_path, monkeypatch):
        monkeypatch.setattr(sio, "_usable_cores", lambda: 2)
        out = tmp_path / "report"
        out.mkdir()
        (out / "bands").write_text("in the way\n")
        rc = run(["report", "--input", rec_csv, "--cond-channel", "T3",
                  "--n-boot", "10", "--n-sim", "200", "--outdir", out])
        assert rc == 1
        status = self._statuses(out)
        assert status.pop("decompose").startswith("error: FileExistsError: ")
        assert status.pop("fit_gpd") == "error: UsageError: an upstream stage failed"
        assert set(status.values()) == {"ok"}  # chi, ht_fit and ht_sim
        assert (out / "bands").read_text() == "in the way\n"
        assert multiprocessing.active_children() == []
