import json
import multiprocessing
import os
import pickle
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import eegx
from eegx import signal_io as sio
from eegx import (
    ChannelLookupError,
    DataError,
    EegRecording,
    EegxError,
    FormatError,
    UsageError,
    ValidationError,
    load_recording,
    save_recording,
    select_channels,
    split_at_onset,
)
from eegx.signal_io import read_sidecar, sidecar_path


def make_rec(T=10, C=3, onset=None, seed=0):
    rng = np.random.default_rng(seed)
    names = tuple(f"C{i}" for i in range(C))
    return EegRecording(
        channels=names, fs=100.0, data=rng.standard_normal((T, C)), onset_index=onset
    )


class TestRecordingValidation:
    def test_valid(self):
        rec = make_rec(T=5, C=2, onset=3)
        assert rec.n_samples == 5
        assert rec.n_channels == 2
        assert rec.duration_s == pytest.approx(0.05)

    def test_duplicate_channels(self):
        with pytest.raises(ValidationError, match="duplicate"):
            EegRecording(channels=("A", "A"), fs=1.0, data=np.zeros((3, 2)))

    def test_empty_channel_name(self):
        with pytest.raises(ValidationError, match="nonempty"):
            EegRecording(channels=("A", ""), fs=1.0, data=np.zeros((3, 2)))

    def test_too_short(self):
        with pytest.raises(ValidationError, match="at least 2 samples"):
            EegRecording(channels=("A",), fs=1.0, data=np.zeros((1, 1)))

    def test_column_mismatch(self):
        with pytest.raises(ValidationError, match="columns"):
            EegRecording(channels=("A",), fs=1.0, data=np.zeros((3, 2)))

    def test_nonfinite(self):
        data = np.zeros((3, 2))
        data[1, 1] = np.nan
        with pytest.raises(DataError, match="non-finite"):
            EegRecording(channels=("A", "B"), fs=1.0, data=data)

    def test_bad_onset(self):
        with pytest.raises(ValidationError, match="onset"):
            make_rec(T=10, onset=10)
        with pytest.raises(ValidationError, match="onset"):
            make_rec(T=10, onset=0)

    def test_bad_fs(self):
        with pytest.raises(ValidationError, match="sampling rate"):
            EegRecording(channels=("A",), fs=0.0, data=np.zeros((3, 1)))

    @pytest.mark.parametrize("fs", [np.inf, -np.inf, np.nan])
    def test_non_finite_fs(self, fs):
        with pytest.raises(ValidationError, match=r"sampling rate must lie in \(0, inf\)"):
            EegRecording(channels=("A",), fs=fs, data=np.zeros((3, 1)))

    @pytest.mark.parametrize("fs", ["abc", "250", [1], None, True])
    def test_non_numeric_fs(self, fs):
        with pytest.raises(ValidationError, match="sampling rate must be a real number"):
            EegRecording(channels=("A",), fs=fs, data=np.zeros((3, 1)))

    @pytest.mark.parametrize("fs", [np.float32(250), np.int64(250), 250, Fraction(500, 2)])
    def test_real_fs(self, fs):
        rec = EegRecording(channels=("A",), fs=fs, data=np.zeros((3, 1)))
        assert rec.fs == 250.0 and type(rec.fs) is float

    @pytest.mark.parametrize("onset", [1.7, 2.0, "x", "2", [2]])
    def test_non_integer_onset(self, onset):
        with pytest.raises(ValidationError, match="onset_index must be an integer"):
            make_rec(T=10, onset=onset)

    def test_numpy_integer_onset(self):
        rec = make_rec(T=10, onset=np.int64(4))
        assert rec.onset_index == 4 and type(rec.onset_index) is int

    def test_data_is_read_only(self):
        rec = make_rec()
        with pytest.raises(ValueError):
            rec.data[0, 0] = 1.0

    def test_writeable_data_is_copied(self):
        # the caller keeps a reference that could write the recording
        data = np.zeros((4, 2))
        view = data[1:]
        rec = EegRecording(channels=("A", "B"), fs=1.0, data=view)
        data[:] = 7.0
        assert not np.shares_memory(rec.data, data)
        assert np.all(rec.data == 0.0)
        assert not rec.data.flags.writeable
        assert data.flags.writeable  # the caller's array is left as it was

    def test_read_only_data_is_kept(self):
        rec = make_rec(T=10, onset=4)
        pair = split_at_onset(rec)
        assert np.shares_memory(pair.pre.data, rec.data)
        assert np.shares_memory(pair.post.data, rec.data)
        # a read-only view of a writeable array is still copied
        data = np.zeros((4, 2))
        view = data[:]
        view.flags.writeable = False
        rec = EegRecording(channels=("A", "B"), fs=1.0, data=view)
        assert not np.shares_memory(rec.data, data)


class TestLoadSave:
    def test_minimal(self, tmp_path):
        p = tmp_path / "mini.csv"
        p.write_text("A,B\n0,0\n0,0\n")
        rec = load_recording(p, fs=1.0)
        assert rec.n_samples == 2
        assert rec.channels == ("A", "B")
        assert np.all(rec.data == 0)

    def test_full_scale_recording_shape(self, tmp_path):
        # 50,000 x 19 loads with the right shape (timed in acceptance)
        rng = np.random.default_rng(0)
        names = ",".join(f"E{i}" for i in range(19))
        rows = "\n".join(
            ",".join("%.4f" % v for v in row) for row in rng.standard_normal((50, 19))
        )
        p = tmp_path / "big.csv"
        p.write_text(names + "\n" + rows + "\n")
        rec = load_recording(p, fs=100.0)
        assert rec.data.shape == (50, 19)

    def test_duplicate_header(self, tmp_path):
        p = tmp_path / "dup.csv"
        p.write_text("A,A\n1,2\n3,4\n")
        with pytest.raises(ValidationError, match="duplicate"):
            load_recording(p, fs=1.0)

    @pytest.mark.parametrize("name", ["../x", "F\0x"], ids=["slash", "nul"])
    def test_path_steering_name_refused(self, name, tmp_path):
        p = tmp_path / "steer.csv"
        p.write_text(f"T3,{name}\n1,2\n3,4\n")
        with pytest.raises(ValidationError, match="channel name"):
            load_recording(p, fs=1.0)

    def test_numeric_header_rejected(self, tmp_path):
        p = tmp_path / "nohead.csv"
        p.write_text("1.0,2.0\n3,4\n5,6\n")
        with pytest.raises(FormatError):
            load_recording(p, fs=1.0)

    def test_bad_cell_named(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("A,B\n1,2\n3,x\n")
        with pytest.raises(DataError, match="row 2, column 2"):
            load_recording(p, fs=1.0)

    @pytest.mark.parametrize("cell", ["1_0", "\u0661", "\uff11"],
                             ids=["underscore", "arabic-indic-digit", "fullwidth-digit"])
    def test_number_float_takes_but_loadtxt_refuses_is_named(self, cell, tmp_path):
        # float() reads these; np.loadtxt, and so the file format, does not
        p = tmp_path / "bad.csv"
        p.write_text(f"A,B\n1,2\n{cell},2\n", encoding="utf-8")
        with pytest.raises(DataError, match="row 2, column 1"):
            load_recording(p, fs=1.0)
        # and as no number, it may name a channel on its own
        p.write_text(f"{cell}\n1\n2\n", encoding="utf-8")
        assert load_recording(p, fs=1.0).channels == (cell,)

    def test_nan_cell_named(self, tmp_path):
        p = tmp_path / "nan.csv"
        p.write_text("A,B\n1,2\n3,inf\n")
        with pytest.raises(DataError, match="row 2, column 2"):
            load_recording(p, fs=1.0)

    def test_ragged_row(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("A,B\n1,2\n3\n")
        with pytest.raises(FormatError, match="row 2"):
            load_recording(p, fs=1.0)

    @pytest.mark.parametrize(
        "body",
        ["1,2\r\n3,4\r\n", "1,2\n3,4", "1,2\r3,4\r", "1,2\n3,4\n\n\n", "1,2\n# note\n3,4\n",
         "1,2 # note\n3,4\n", "1,2\x0c\n3, 4\n", "1,2\n   \n3,4\n", "1,2\n  # note\n3,4\n"],
        ids=["crlf", "no-final-newline", "cr", "trailing-blank-lines", "comment-line",
             "trailing-comment", "whitespace-around-numbers", "whitespace-line",
             "indented-comment"],
    )
    def test_line_ends(self, body, tmp_path):
        p = tmp_path / "ends.csv"
        p.write_bytes(("A,B\n" + body).encode())
        assert np.array_equal(load_recording(p, fs=1.0).data, [[1.0, 2.0], [3.0, 4.0]])

    def test_empty_body(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("A,B\n\n")
        with pytest.warns(UserWarning, match="no data"):
            with pytest.raises(ValidationError, match="at least 2 samples, got 0"):
                load_recording(p, fs=1.0)

    @pytest.mark.parametrize("char", ["\x0c", "\x1c", "\u2028"])
    def test_only_line_ends_split_rows(self, char, tmp_path):
        # str.splitlines() breaks at these; a row does not
        p = tmp_path / "split.csv"
        p.write_bytes(f"A,B\n1,2{char}3\n4,5\n".encode())
        with pytest.raises(DataError, match=re.escape(f"{'2' + char + '3'!r} at row 1, column 2")):
            load_recording(p, fs=1.0)

    def test_bad_cell_after_blank_line(self, tmp_path):
        # rows are numbered by line, and blank lines are skipped
        p = tmp_path / "gap.csv"
        p.write_text("A,B\n1,2\n\n3,x\n")
        with pytest.raises(DataError, match="row 3, column 2"):
            load_recording(p, fs=1.0)

    def test_undecodable_past_first_megabyte(self, tmp_path):
        p = tmp_path / "late.csv"
        p.write_bytes(b"A,B\n" + b"1.25,2.5\n" * 120_000 + b"3,\xff\n")
        with pytest.raises(FormatError, match="not UTF-8"):
            load_recording(p, fs=1.0)

    def test_load_holds_no_copy_of_the_text(self, tmp_path):
        # a parse of the whole text split into lines peaks at 7.9 times the
        # matrix's bytes here, and the matrix with a copy of it at 2.1; the
        # recording keeps the parsed matrix, which np.loadtxt alone takes
        # 1.23 times its bytes to make
        data = np.random.default_rng(5).standard_normal((50_000, 4))
        p = save_recording(EegRecording(_channels(4), 250.0, data), tmp_path / "big.csv")
        tracemalloc.start()
        try:
            rec = load_recording(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(rec.data, data)
        assert not rec.data.flags.writeable
        assert peak < 1.5 * data.nbytes

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            load_recording(tmp_path / "absent.csv", fs=1.0)

    def test_fs_required(self, tmp_path):
        p = tmp_path / "nofs.csv"
        p.write_text("A\n1\n2\n")
        with pytest.raises(ValidationError, match="sampling rate"):
            load_recording(p)

    def test_sidecar(self, tmp_path):
        p = tmp_path / "side.csv"
        p.write_text("A\n1\n2\n3\n")
        sidecar_path(p).write_text(json.dumps({"fs": 100.0, "onset_index": 2}))
        rec = load_recording(p)
        assert rec.fs == 100.0
        assert rec.onset_index == 2
        # explicit arguments win
        rec2 = load_recording(p, fs=50.0, onset_index=1)
        assert rec2.fs == 50.0 and rec2.onset_index == 1

    def test_read_sidecar_missing(self, tmp_path):
        assert read_sidecar(tmp_path / "none.csv") == {}

    @pytest.mark.parametrize(
        "text, message",
        [('{"fs": 100.0', "malformed sidecar"), ("[100.0]", "must hold a JSON object")],
        ids=["not-json", "list"],
    )
    def test_bad_sidecar(self, text, message, tmp_path):
        p = tmp_path / "side.csv"
        p.write_text("A\n1\n2\n")
        sidecar_path(p).write_text(text)
        with pytest.raises(FormatError, match=message):
            load_recording(p)

    def test_undecodable_csv(self, tmp_path):
        p = tmp_path / "utf16.csv"
        p.write_bytes(b"\xff\xfeA\x00\n\x001\x00\n\x002\x00\n\x00")
        with pytest.raises(FormatError, match="not UTF-8"):
            load_recording(p, fs=1.0)

    def test_undecodable_sidecar(self, tmp_path):
        p = tmp_path / "side.csv"
        p.write_text("A\n1\n2\n")
        sidecar_path(p).write_bytes(b'{"fs": 100.0, "note": "\xff"}')
        with pytest.raises(FormatError, match="not UTF-8"):
            read_sidecar(p)
        with pytest.raises(FormatError, match="not UTF-8"):
            load_recording(p)

    def test_byte_order_mark(self, tmp_path):
        # as spreadsheet programs often save UTF-8 files
        p = tmp_path / "bom.csv"
        p.write_bytes(b"\xef\xbb\xbfT3,F4\n1,2\n3,4\n")
        sidecar_path(p).write_bytes(b'\xef\xbb\xbf{"fs": 100.0}\n')
        rec = load_recording(p)
        assert rec.channels == ("T3", "F4") and rec.fs == 100.0
        assert np.array_equal(rec.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_directory_input(self, tmp_path):
        with pytest.raises(ValidationError, match="not a regular file"):
            load_recording(tmp_path, fs=1.0)

    def test_directory_sidecar(self, tmp_path):
        p = tmp_path / "side.csv"
        p.write_text("A\n1\n2\n")
        sidecar_path(p).mkdir()
        with pytest.raises(ValidationError, match="not a regular file"):
            load_recording(p, fs=1.0)

    def test_sidecar_bytes(self, tmp_path):
        p = save_recording(make_rec(T=4, C=2, onset=2), tmp_path / "r.csv")
        assert sidecar_path(p).read_bytes() == b'{"fs": 100.0, "onset_index": 2}\n'
        assert sorted(f.name for f in tmp_path.iterdir()) == ["r.csv", "r.csv.meta.json"]

    def test_roundtrip_exact(self, tmp_path):
        rec = EegRecording(
            channels=("A", "B"),
            fs=100.0,
            data=np.array([[1 / 3, 2 / 7], [np.pi, -1e-17], [1e300, 5.0]]),
            onset_index=1,
        )
        p = tmp_path / "rt.csv"
        save_recording(rec, p)
        rec2 = load_recording(p)
        assert np.array_equal(rec.data, rec2.data)
        assert rec2.fs == rec.fs and rec2.onset_index == rec.onset_index
        # the files are bit-identical after a load/save cycle
        save_recording(rec2, tmp_path / "rt2.csv")
        assert (tmp_path / "rt2.csv").read_bytes() == p.read_bytes()
        assert sidecar_path(tmp_path / "rt2.csv").read_bytes() == sidecar_path(p).read_bytes()


def _loads_back_raw(names, data, path) -> bool:
    """Whether a header of ``names`` joined by commas, written without any
    check, loads back as exactly ``names``: the oracle of the header rule."""
    rows = "".join(",".join(map(repr, row)) + "\n" for row in data.tolist())
    try:
        path.write_bytes((",".join(names) + "\n" + rows).encode("utf-8"))
        return load_recording(path, fs=1.0).channels == names
    except (UnicodeEncodeError, EegxError):
        return False


_NAME_CHARS = st.one_of(st.characters(), st.sampled_from(list(",\r\n \t\x0b\x85\udcffT3.e-+0")))
_NAMES = st.one_of(
    st.text(_NAME_CHARS, max_size=4),
    st.floats().map(repr),
    st.sampled_from(["T3", "Fp1", " T3", "T3 ", "1", "nan", "1_0"]),
)


class TestHeaderRule:
    @given(names=st.lists(_NAMES, min_size=1, max_size=4).map(tuple))
    @example(names=("T3,x", "F4"))
    @example(names=("T3\nx", "F4"))
    @example(names=(" T3", "F4"))
    @example(names=("1", "2"))
    @example(names=("\udcff", "F4"))
    @example(names=("\ufeffT3", "F4"))
    @settings(max_examples=300, deadline=None)
    def test_names_round_trip_or_fail_before_writing(self, names, tmp_path_factory):
        # a name set is written iff it loads back as it was
        d = tmp_path_factory.mktemp("names")
        data = np.arange(2.0 * len(names)).reshape(2, -1) - 1.5
        try:
            save_recording(EegRecording(channels=names, fs=100.0, data=data), d / "r.csv")
        except ValidationError:
            assert list(d.iterdir()) == []
            assert not _loads_back_raw(names, data, d / "raw.csv")
        else:
            back = load_recording(d / "r.csv")
            assert back.channels == names
            assert np.array_equal(back.data, data)

    @pytest.mark.parametrize(
        "channels",
        [("T3,x", "F4"), ("T3", "F4\r"), ("T3", "F4 "), ("1", "2.5"), ("T3", "\udcff"),
         ("T3", "T3"), ("T3", ""), ("T3", 4), ("\ufeffT3", "F4"), ("T3", "../x"),
         ("T3", "F\0x")],
        ids=["comma", "cr", "space", "numeric", "surrogate", "duplicate", "empty", "not-text",
             "byte-order-mark", "slash", "nul"],
    )
    def test_band_writer_refuses_before_writing(self, channels, tmp_path):
        with pytest.raises(ValidationError, match="channel name"):
            sio._write_csv(tmp_path / "a.csv", channels, np.ones((3, 2)))
        assert list(tmp_path.iterdir()) == []
        # a recording applies the same rule to str of each name
        if channels == ("T3", 4):
            assert EegRecording(channels, 1.0, np.ones((3, 2))).channels == ("T3", "4")
        else:
            with pytest.raises(ValidationError, match="channel name"):
                EegRecording(channels, 1.0, np.ones((3, 2)))


def _loadtxt_reads(tok: str) -> bool:
    try:
        return np.loadtxt([tok], delimiter=",", dtype=float, ndmin=1).size == 1
    except ValueError:
        return False


@given(tok=st.text(st.sampled_from(list("0123456789+-.eEinfatyINFATY_ d\t\x0b\x0c\x85\u2003"
                                        "\u0661\uff11")), max_size=8)
       | st.text(max_size=6).filter(lambda t: not set(t) & set(",#\r\n")))
@settings(max_examples=500, deadline=None)
def test_is_float_follows_loadtxt(tok):
    # ',' splits cells, '#' starts a comment and line ends split rows
    # before a token is read
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # loadtxt's "input contained no data"
        assert sio._is_float(tok) == _loadtxt_reads(tok)


class TestWriteTextAtomic:
    def test_paths_appear_together(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "sub" / "b.txt"
        with sio.write_text_atomic(a, b) as (fa, fb):
            fa.write("A")
            fb.write("B")
            assert list(tmp_path.glob("*.txt")) == []  # only temp files so far
        assert (a.read_text(), b.read_text()) == ("A", "B")
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["a.txt", "b.txt", "sub"]

    def test_failed_block_leaves_every_path_as_it_was(self, tmp_path):
        a, b, c = tmp_path / "a.txt", tmp_path / "b.txt", tmp_path / "new" / "deeper" / "c.txt"
        a.write_text("old")
        with pytest.raises(KeyError):
            with sio.write_text_atomic(a, b, c) as (fa, fb, _):
                fa.write("new")
                fb.write("B")
                assert c.parent.is_dir()
                raise KeyError("the writer failed")
        # the directories made for the temp files are gone too
        assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]
        assert a.read_text() == "old"


class TestSplitSelect:
    def test_split_clinical_geometry(self):
        rec = make_rec(T=500, C=2, onset=350)
        pair = split_at_onset(rec)
        assert pair.pre.n_samples == 350
        assert pair.post.n_samples == 150
        recombined = np.vstack([pair.pre.data, pair.post.data])
        assert np.array_equal(recombined, rec.data)

    @pytest.mark.parametrize(
        "other, message",
        [({"channels": ("C0", "X")}, "share channels"), ({"fs": 50.0}, "share the sampling rate")],
        ids=["channels", "fs"],
    )
    def test_epoch_pair_mismatch(self, other, message):
        pre = make_rec(T=4, C=2)
        with pytest.raises(ValidationError, match=message):
            sio.EpochPair(pre, replace(pre, **other))

    def test_split_even(self):
        pair = split_at_onset(make_rec(T=10, onset=5))
        assert pair.pre.n_samples == 5 and pair.post.n_samples == 5

    def test_split_requires_onset(self):
        with pytest.raises(UsageError, match="onset"):
            split_at_onset(make_rec(T=10))

    @given(T=st.integers(4, 60), C=st.integers(1, 4), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_split_concatenates_to_source(self, T, C, data):
        onset = data.draw(st.integers(2, T - 2))  # every legal onset
        rec = make_rec(T=T, C=C, onset=onset, seed=T)
        pair = split_at_onset(rec)
        assert np.array_equal(np.concatenate([pair.pre.data, pair.post.data]), rec.data)
        for epoch in (pair.pre, pair.post):
            assert epoch.channels == rec.channels and epoch.fs == rec.fs

    def test_select_single(self):
        rec = make_rec(C=4)
        sub = select_channels(rec, ["C2"])
        assert sub.channels == ("C2",)
        assert np.array_equal(sub.data[:, 0], rec.data[:, 2])

    def test_select_identity(self):
        rec = make_rec(C=3)
        sub = select_channels(rec, list(rec.channels))
        assert sub.channels == rec.channels
        assert np.array_equal(sub.data, rec.data)

    def test_select_reorders(self):
        rec = make_rec(C=3)
        sub = select_channels(rec, ["C2", "C0"])
        assert np.array_equal(sub.data[:, 0], rec.data[:, 2])
        assert np.array_equal(sub.data[:, 1], rec.data[:, 0])

    def test_select_unknown(self):
        with pytest.raises(ChannelLookupError, match="available"):
            select_channels(make_rec(), ["ZZ"])

    def test_select_idempotent(self):
        rec = make_rec(C=4)
        once = select_channels(rec, ["C1", "C3"])
        twice = select_channels(once, ["C1", "C3"])
        assert np.array_equal(once.data, twice.data)

    def test_select_copies_once(self):
        # indexing gives a view of a fresh matrix, which the record copied
        # again while the view was alive: a traced peak of 2.0 selections
        rec = make_rec(T=50_000, C=4)
        tracemalloc.start()
        try:
            sub = select_channels(rec, ["C3", "C0", "C2"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not np.shares_memory(sub.data, rec.data)
        assert not sub.data.flags.writeable
        assert np.array_equal(sub.data, rec.data[:, [3, 0, 2]])
        assert peak < 1.5 * 50_000 * 3 * 8

    @given(onset=st.integers(min_value=2, max_value=18))
    @settings(max_examples=20, deadline=None)
    def test_select_commutes_with_split(self, onset):
        rec = make_rec(T=20, C=3, onset=onset)
        a = split_at_onset(select_channels(rec, ["C2", "C0"])).pre
        b = select_channels(split_at_onset(rec).pre, ["C2", "C0"])
        assert np.array_equal(a.data, b.data)
        assert a.channels == b.channels


def _reference_csv(channels, data) -> str:
    """The per-value ``repr`` loop the chunked writer replaced."""
    lines = [",".join(channels)]
    for row in data:
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


_EDGE_FLOATS = [-0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
_SENTINEL = 12345.5  # first value of the chunk _failing_rows_text refuses
_rows_text = sio._rows_text


def _failing_rows_text(block):
    # module level, so the pool can pickle it by name
    if block[0, 0] == _SENTINEL:
        raise RuntimeError("formatting failed")
    return _rows_text(block)


def _matrices(max_rows):
    return st.integers(1, 4).flatmap(
        lambda c: hnp.arrays(
            float,
            st.tuples(st.integers(1, max_rows), st.just(c)),
            elements=st.one_of(
                st.sampled_from(_EDGE_FLOATS),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
        )
    )


def _channels(n):
    return tuple(f"C{i}" for i in range(n))


def _lines(path):
    # compared as line lists: pytest reports the first differing line
    # instead of diffing two long strings
    return path.read_bytes().splitlines(keepends=True)


def _reference_lines(channels, data):
    return _reference_csv(channels, data).encode().splitlines(keepends=True)


def _write_pooled(paths, channels, mats):
    """The matrices written on a ``_Pool``, one ``_write_csv`` call per
    item, in a worker or in-process as the pool's usable cores decide."""

    def write(item):
        path, matrix = item
        sio._write_csv(path, channels, matrix)

    with sio._Pool() as pool:
        pool.submit(write, list(zip(paths, mats)))()


class TestMatrixCsvWriter:
    @given(data=_matrices(10))
    @settings(max_examples=40, deadline=None)
    def test_bytes_match_reference(self, data, tmp_path_factory):
        # chunks of 3 rows: 1-10 rows cover one, several and partial chunks
        channels = _channels(data.shape[1])
        path = tmp_path_factory.mktemp("w") / "m.csv"
        with mock.patch.object(sio, "CSV_CHUNK_ROWS", 3):
            sio._write_csv(path, channels, data)
        assert path.read_bytes() == _reference_csv(channels, data).encode()

    @pytest.mark.parametrize("rows", [1, sio.CSV_CHUNK_ROWS - 1, sio.CSV_CHUNK_ROWS,
                                      sio.CSV_CHUNK_ROWS + 1])
    @pytest.mark.parametrize("cols", [1, 3])
    def test_chunk_edges(self, rows, cols, tmp_path):
        data = np.random.default_rng(rows).standard_normal((rows, cols))
        data[0, 0] = _EDGE_FLOATS[rows % len(_EDGE_FLOATS)]
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        _write_pooled(paths, _channels(cols), [data, data[::-1]])
        assert _lines(paths[0]) == _reference_lines(_channels(cols), data)
        assert _lines(paths[1]) == _reference_lines(_channels(cols), data[::-1])

    @pytest.mark.parametrize("cores", [1, 2])
    def test_edge_floats_match_repr(self, cores, tmp_path, monkeypatch):
        # band matrices are finite, but the same kernel writes CLI tables,
        # which hold NaN (a sparse chi pair); every value is its repr, in a
        # worker as in-process
        edges = [-0.0, 5e-324, 1e-5, 1e16, -1.7976931348623157e308, np.nan, np.inf, -np.inf]
        data = np.array(edges + edges[::-1] + [0.5, -2.25]).reshape(6, 3)
        monkeypatch.setattr(sio, "CSV_CHUNK_ROWS", 4)
        monkeypatch.setattr(sio, "_usable_cores", lambda: cores)
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        _write_pooled(paths, _channels(3), [data, data[::-1]])
        assert _lines(paths[0]) == _reference_lines(_channels(3), data)
        assert _lines(paths[1]) == _reference_lines(_channels(3), data[::-1])
        assert b"-0.0,5e-324,1e-05\n1e+16,-1.7976931348623157e+308,nan\n" in paths[0].read_bytes()

    def test_pooled_equals_in_process(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sio, "CSV_CHUNK_ROWS", 7)
        mats = [np.random.default_rng(k).standard_normal((50 + k, 3)) for k in range(3)]
        files = {}
        for cores in (1, 2):
            monkeypatch.setattr(sio, "_usable_cores", lambda: cores)
            paths = [tmp_path / f"{cores}.{k}.csv" for k in range(3)]
            _write_pooled(paths, _channels(3), mats)
            files[cores] = [p.read_bytes() for p in paths]
        assert files[1] == files[2]

    @given(data=_matrices(8))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_exact(self, data, tmp_path_factory):
        data = np.vstack([data, data])  # a recording needs two samples
        rec = EegRecording(channels=_channels(data.shape[1]), fs=250.0, data=data)
        path = tmp_path_factory.mktemp("rt") / "r.csv"
        with mock.patch.object(sio, "CSV_CHUNK_ROWS", 3):
            save_recording(rec, path)
        back = load_recording(path)
        assert np.array_equal(back.data, data)
        assert np.array_equal(np.signbit(back.data), np.signbit(data))

    @pytest.mark.parametrize("cores", [1, 2])
    def test_failure_leaves_no_file(self, cores, tmp_path, monkeypatch):
        monkeypatch.setattr(sio, "CSV_CHUNK_ROWS", 3)
        monkeypatch.setattr(sio, "_usable_cores", lambda: cores)
        monkeypatch.setattr(sio, "_rows_text", _failing_rows_text)
        data = np.arange(24.0).reshape(12, 2)
        data[6, 0] = _SENTINEL  # first row of the third chunk
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        with pytest.raises(RuntimeError, match="formatting failed"):
            _write_pooled(paths, _channels(2), [data, data])
        assert list(tmp_path.iterdir()) == []

    def test_import_does_not_load_multiprocessing(self):
        src = Path(eegx.__file__).resolve().parents[1]
        code = "import sys, eegx, eegx.cli; sys.exit('multiprocessing' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(src)}
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_runs_without_scipy(self, tmp_path):
        # with scipy blocked, every simulation kind and a report on the
        # synthetic recording exit 0
        src = Path(eegx.__file__).resolve().parents[1]
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None  # any import of scipy raises ImportError\n"
            "import contextlib, eegx, eegx.cli\n"
            "out = sys.argv[1]\n"
            "with contextlib.redirect_stdout(None):\n"
            "    rcs = [eegx.cli.main(['simulate', '--kind', kind, '--channels', '3',\n"
            "                          '--t', '8000', '--out', f'{out}/{kind}.csv'])\n"
            "           for kind in eegx.oracle_sim.SIM_KINDS]\n"
            "    rcs.append(eegx.cli.main(['report', '--input', f'{out}/synthetic_eeg.csv',\n"
            "                              '--outdir', f'{out}/report', '--n-boot', '5',\n"
            "                              '--n-sim', '100']))\n"
            "try:\n"
            "    import scipy.special\n"
            "except ImportError:\n"
            "    print(*rcs)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.stdout.split() == ["0"] * (len(eegx.oracle_sim.SIM_KINDS) + 1), done.stderr
        assert (tmp_path / "report" / "manifest.json").is_file()


def _double(x):
    if x < 0:
        raise ValueError(f"negative: {x}")
    return 2 * x


def _mark(path):
    time.sleep(0.1)
    path.touch()


def _warn_parity(k):
    if k < 0:
        warnings.warn("negative")
        raise ValueError(f"negative: {k}")
    warnings.warn(f"parity {k % 2}")
    return k


class TestPool:
    @pytest.mark.parametrize("cores", [1, 2, 3])
    def test_collects_in_order(self, cores, monkeypatch):
        monkeypatch.setattr(sio, "_usable_cores", lambda: cores)
        with sio._Pool() as pool:
            first = pool.submit(_double, list(range(7)))
            second = pool.submit(_double, [10])
            assert second() == [20]
            assert first() == [0, 2, 4, 6, 8, 10, 12]

    def test_one_item_runs_in_process_when_collected(self, monkeypatch):
        monkeypatch.setattr(sio, "_usable_cores", lambda: 2)
        with sio._Pool() as pool:
            collect = pool.submit(_double, [-1])  # nothing runs yet
            assert multiprocessing.active_children() == []
            with pytest.raises(ValueError, match="negative: -1"):
                collect()

    @pytest.mark.parametrize("cores", [1, 2])
    def test_failure_raises_when_collected(self, cores, tmp_path, monkeypatch):
        monkeypatch.setattr(sio, "_usable_cores", lambda: cores)
        paths = [tmp_path / f"{k}" for k in range(40)]  # 2 s of work on two workers
        with sio._Pool() as pool:
            marking = pool.submit(_mark, [tmp_path / "absent" / "0", *paths])
            doubling = pool.submit(_double, [5, 6])
            with pytest.raises(FileNotFoundError):
                marking()
            # queued behind the marks: most of them were cancelled
            assert doubling() == [10, 12]
            assert len(list(tmp_path.iterdir())) < len(paths) // 2
            with pytest.raises(UsageError, match="no submit after its first collect"):
                pool.submit(_double, [1, 2])
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cores", [1, 2, 3])
    def test_worker_warnings_are_issued_when_collected(self, cores, monkeypatch):
        # in item order, each once per location, as an in-process run
        # issues them; a failed item's warnings come before its exception
        monkeypatch.setattr(sio, "_usable_cores", lambda: cores)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            with sio._Pool() as pool:
                numbers = pool.submit(_warn_parity, [1, 2, 3, 4, 5])
                failing = pool.submit(_warn_parity, [6, -1])
                assert caught == []
                assert numbers() == [1, 2, 3, 4, 5]
                with pytest.raises(ValueError, match="negative: -1"):
                    failing()
        assert [str(w.message) for w in caught] == ["parity 1", "parity 0", "negative"]
        assert {(w.filename, w.category) for w in caught} == {(__file__, UserWarning)}

    @pytest.mark.parametrize("cores", [1, 2])
    def test_a_batch_is_collected_once_and_released(self, cores, monkeypatch):
        # a second collect neither reruns the items nor issues their
        # warnings again; a collected batch's slot stays, so the others
        # keep their indices
        monkeypatch.setattr(sio, "_usable_cores", lambda: cores)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with sio._Pool() as pool:
                numbers = pool.submit(_warn_parity, [1, 2])
                failing = pool.submit(_warn_parity, [-1])
                doubling = pool.submit(_double, [3, 4])
                batches = sio._FORKED[id(pool)]
                assert numbers() == [1, 2]
                assert batches[0] is None
                with pytest.raises(ValueError, match="negative: -1"):
                    failing()
                assert batches[:2] == [None, None]
                assert batches[2] == (_double, [3, 4])
                for collect in (numbers, failing):
                    with pytest.raises(UsageError, match="collects each batch once"):
                        collect()
                assert doubling() == [6, 8]
                assert batches == [None, None, None]
        assert [str(w.message) for w in caught] == ["parity 1", "parity 0", "negative"]

    def test_uncollected_work_is_cancelled_on_exit(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sio, "_usable_cores", lambda: 2)
        paths = [tmp_path / f"{k}" for k in range(40)]  # 2 s of work on two workers
        with pytest.raises(KeyError):
            with sio._Pool() as pool:
                first = pool.submit(_double, [1, 2])
                pool.submit(_mark, paths)
                assert first() == [2, 4]
                assert len(multiprocessing.active_children()) == 2  # the workers run
                raise KeyError("the caller failed")
        assert multiprocessing.active_children() == []
        assert len(list(tmp_path.iterdir())) < len(paths)

    def test_a_later_batch_reaches_the_workers_through_the_fork(self, monkeypatch):
        # each task pickles to indices, whatever its item, and fn need not
        # pickle at all
        sent = []
        submit = ProcessPoolExecutor.submit

        def measured(executor, fn, *args):
            sent.append(len(pickle.dumps((fn, args))))
            return submit(executor, fn, *args)

        monkeypatch.setattr(sio, "_usable_cores", lambda: 2)
        monkeypatch.setattr(ProcessPoolExecutor, "submit", measured)
        arrays = [np.full(100_000, float(k)) for k in range(3)]  # 800 KB each
        with sio._Pool() as pool:
            first = pool.submit(_double, [1, 2])
            sums = pool.submit(lambda a: float(a.sum()), arrays)
            assert first() == [2, 4]
            assert sums() == [0.0, 1e5, 2e5]
        assert len(sent) == 5
        assert max(sent) < 1024


def _repr_rows(block) -> str:
    """CSV rows of a block with one ``repr`` call per value."""
    return "".join(",".join(repr(float(v)) for v in row) + "\n" for row in block)


def _blocks(dtype, elements):
    return st.integers(1, 4).flatmap(
        lambda c: hnp.arrays(dtype, st.tuples(st.integers(1, 6), st.just(c)), elements=elements)
    )


def _neighbours(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate(
        [values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)]
    )


def _with_signs(values, seed=0):
    values = np.asarray(values, dtype=float)
    return values * np.random.default_rng(seed).choice([-1.0, 1.0], values.size)


class TestFloatText:
    """``_rows_text`` against one ``repr`` per value."""

    @given(block=_blocks(float, st.floats(allow_subnormal=True)))
    @settings(max_examples=300, deadline=None)
    def test_any_float(self, block):
        # NaN, +-inf, -0.0 and subnormals included
        assert sio._rows_text(block) == _repr_rows(block)

    @given(block=_blocks(np.int64, st.integers(-(2**63), 2**63 - 1)))
    @settings(max_examples=300, deadline=None)
    def test_any_bit_pattern(self, block):
        block = block.view(np.float64)
        assert sio._rows_text(block) == _repr_rows(block)

    @pytest.mark.parametrize(
        "values",
        [
            # binade bottoms, where the rounding interval is asymmetric
            _neighbours(np.ldexp(1.0, np.arange(-20, 60))),
            _neighbours([float(f"1e{k}") for k in range(-6, 18)]),
            # the borders of the positional range and the decade roll-over
            [1e-4, 9.999999999999999e-05, 0.00009999999999999999, 0.0001000000000000001,
             1e16, 9999999999999998.0, 1e16 + 2, 1e15, 999999999999999.9],
            # x * 10**k ends in .5 exactly: the tie goes to the even digit
            [1e15 + 0.25, 1e15 + 0.75, 2**51 + 0.25, 0.5, 0.125, 2.5, 1e-3 + 2**-62,
             600000000000000.25, 600000000000000.75],  # the last two tie at the tens digit
            # fast-path and fallback values in one row, both signs
            _with_signs([0.1, 0.0, -0.0, 5e-324, 1e300, np.nan, np.inf, -np.inf, 123.456, 1e-5,
                         2.2250738585072014e-308, 1.7976931348623157e308]),
        ],
        ids=["powers-of-two", "powers-of-ten", "borders", "ties", "mixed"],
    )
    def test_seeded_classes(self, values):
        values = np.asarray(values, dtype=float)
        for block in (values[:, None], _with_signs(values, 1)[:, None], values[None, :]):
            assert sio._rows_text(block) == _repr_rows(block)

    def test_fast_domain_sweep(self):
        # 200 000 bit patterns spread over every double in [1e-4, 1e16)
        lo, hi = np.array([1e-4, 1e16]).view(np.int64)
        bits = np.random.default_rng(2024).integers(lo, hi, 200_000, dtype=np.int64)
        block = _with_signs(bits.view(np.float64), 2).reshape(-1, 4)
        assert sio._fast_path(block).all()
        want = _repr_rows(block).encode().splitlines()
        assert sio._rows_text(block).encode().splitlines() == want

    def test_no_decade_roll_over(self):
        # the 2 000 doubles below and 50 above each power of ten in the
        # positional range: the digits never reach 10**17, the next decade
        tens = np.array([float(f"1e{k}") for k in range(-4, 17)]).view(np.int64)
        bits = (tens[:, None] + np.arange(-2_000, 51)).ravel()
        bits = bits[sio._fast_path(bits.view(np.float64))]
        assert bits.size == 41_020  # all but those below 1e-4, 1e16 and those above it
        digits, _, _ = sio._shortest_digits(bits)
        assert digits.max() < 10**17
        block = bits.view(np.float64)[:, None]
        assert sio._rows_text(block) == _repr_rows(block)

    def test_fast_path_covers_band_values(self, monkeypatch):
        # a kernel that sent every value to repr would pass every byte test
        rec = eegx.gen_synthetic_eeg(3, 8_000, 0.6, seed=5)
        with pytest.warns(UserWarning, match="capped"):
            bands = eegx.decompose_bands(rec).bands
        values = np.concatenate(list(bands.values()))
        assert sio._fast_path(values).mean() >= 0.999
        calls = []
        monkeypatch.setattr(sio, "repr", lambda v: calls.append(v) or repr(v), raising=False)
        text = sio._rows_text(values)
        assert len(calls) == np.count_nonzero(~sio._fast_path(values))
        assert text == _repr_rows(values)

    @pytest.mark.parametrize("rows", [0, 1, sio.CSV_CHUNK_ROWS + 1])
    def test_float_rows(self, rows):
        block = np.random.default_rng(rows).standard_normal((rows, 2))
        text = "".join(sio._table_text([("a", block[:, 0]), ("b", block[:, 1])]))
        assert text.splitlines()[1:] == _repr_rows(block).splitlines()


class TestTableText:
    """``_table_text``, the one writer of every CSV table."""

    @pytest.mark.parametrize(
        "rows", [0, 1, sio.CSV_CHUNK_ROWS - 1, sio.CSV_CHUNK_ROWS, sio.CSV_CHUNK_ROWS + 1]
    )
    def test_mixed_table_across_chunks(self, rows):
        rng = np.random.default_rng(rows)
        x = rng.standard_normal(rows) * 10.0 ** rng.integers(-8, 20, rows)
        x[::7] = np.nan
        columns = [
            ("label", [f"c{i}" for i in range(rows)]),
            ("x", x),
            ("count", np.arange(rows) - 3),
            ("y", x[::-1] / 3),
        ]
        xs, ys = x.tolist(), (x[::-1] / 3).tolist()
        want = ["label,x,count,y"] + [f"c{i},{xs[i]!r},{i - 3},{ys[i]!r}" for i in range(rows)]
        parts = list(sio._table_text(columns))
        assert "".join(parts).split("\n") == [*want, ""]
        assert len(parts) == 1 + -(-rows // sio.CSV_CHUNK_ROWS)  # the header, then one per chunk

    def test_all_float_chunk_is_the_kernels_text(self, monkeypatch):
        monkeypatch.setattr(sio, "CSV_CHUNK_ROWS", 4)
        block = np.random.default_rng(1).standard_normal((10, 3))
        parts = list(sio._table_text([(f"C{k}", block[:, k]) for k in range(3)]))
        assert parts == ["C0,C1,C2\n", *(sio._rows_text(block[i : i + 4]) for i in (0, 4, 8))]

    @pytest.mark.parametrize(
        "columns, error",
        [
            ([("a", [1.0]), ("a", [2.0])], ValidationError),
            ([("a/b", [1.0])], ValidationError),
            ([], ValidationError),
            ([("a", [1.0, 2.0]), ("b", [1.0])], UsageError),
        ],
        ids=["duplicate", "slash", "no-columns", "unequal-lengths"],
    )
    def test_refused_when_called(self, columns, error):
        # before the text is iterated, so a caller can check a table before writing
        with pytest.raises(error):
            sio._table_text(columns)
