import argparse
import errno
import gc
import os
import shlex
import shutil
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from corpusphon import audio, cli, ctm
from corpusphon.cli import main
from corpusphon.textgrid import (
    Interval,
    IntervalTier,
    Point,
    PointTier,
    TextGrid,
    parse_textgrid,
    write_textgrid,
)

from conftest import FIXTURES


def write_grid(path, intervals, xmax=10.0, name="utt"):
    tier = IntervalTier(name, 0.0, xmax, tuple(intervals)).normalized()
    path.write_bytes(write_textgrid(TextGrid(0.0, xmax, (tier,))))


def write_wav(path, seconds=10.0, rate=16000, channels=1):
    frames = b"\x00\x00" * int(seconds * rate) * channels
    path.write_bytes(audio.build_wav(frames, rate, channels, 16))


@pytest.fixture
def corpus_dir(tmp_path):
    """Three conforming TextGrid+wav pairs and one violating pair."""
    src = tmp_path / "input"
    src.mkdir()
    for i in range(3):
        write_grid(src / f"ok{i}.TextGrid", [Interval(1.0, 9.9, "HI")])
        write_wav(src / f"ok{i}.wav")
    write_grid(src / "zz_bad.TextGrid", [Interval(0.0, 10.0, "HI")])
    write_wav(src / "zz_bad.wav")
    return src


class TestCtm2Tg:
    def test_fixture_matches_goldens(self, tmp_path):
        out = tmp_path / "out"
        rc = main(
            [
                "ctm2tg",
                "--ctm", str(FIXTURES / "merged_alignment.ctm"),
                "--segments", str(FIXTURES / "segments"),
                "--phones", str(FIXTURES / "phones.txt"),
                "--lexicon", str(FIXTURES / "lexicon.txt"),
                "--text", str(FIXTURES / "text"),
                "--out", str(out),
            ]
        )
        assert rc == 0
        for fid in ("f1", "f2"):
            got = (out / f"{fid}.TextGrid").read_bytes()
            golden = (FIXTURES / "golden" / f"{fid}.TextGrid").read_bytes()
            assert got == golden
        assert (out / "final_ali.txt").exists()

    def test_refuses_output_inside_input(self, tmp_path):
        src = tmp_path / "in"
        src.mkdir()
        for name in ("merged_alignment.ctm", "segments", "phones.txt",
                     "lexicon.txt", "text"):
            shutil.copy(FIXTURES / name, src / name)
        rc = main(
            [
                "ctm2tg",
                "--ctm", str(src / "merged_alignment.ctm"),
                "--segments", str(src / "segments"),
                "--phones", str(src / "phones.txt"),
                "--lexicon", str(src / "lexicon.txt"),
                "--out", str(src / "out"),
            ]
        )
        assert rc == 2
        assert not (src / "out").exists()

    def run_mixed(self, out):
        mixed = FIXTURES / "mixed"
        return main(
            [
                "ctm2tg",
                "--ctm", str(mixed / "ali.ctm"),
                "--segments", str(mixed / "segments"),
                "--phones", str(FIXTURES / "phones.txt"),
                "--lexicon", str(FIXTURES / "lexicon.txt"),
                "--text", str(mixed / "text"),
                "--out", str(out),
            ]
        )

    def test_mixed_ctm_matches_goldens(self, tmp_path):
        # numeric and symbolic phones, suffixless silences (SIL, sp), times
        # repeated across utterances, and -0.0 starts both before and after
        # a 0.0 start: the table keeps each spelling of zero
        out = tmp_path / "out"
        assert self.run_mixed(out) == 0
        golden = FIXTURES / "mixed" / "golden"
        names = sorted(p.name for p in golden.iterdir())
        assert names == ["final_ali.txt", "g1.TextGrid", "g2.TextGrid"]
        assert sorted(p.name for p in out.iterdir()) == names
        for name in names:
            assert (out / name).read_bytes() == (golden / name).read_bytes()

    def test_failed_grid_write_ends_the_command(self, tmp_path, monkeypatch, capsys):
        # a full disk is an I/O failure of the run, not one finding per grid
        real_write, attempts = Path.write_bytes, []

        def write_bytes(path, data):
            if ".TextGrid." in path.name:
                attempts.append(path.name)
                raise OSError(28, "No space left on device")
            return real_write(path, data)

        monkeypatch.setattr(Path, "write_bytes", write_bytes)
        out = tmp_path / "out"
        assert self.run_mixed(out) == 2
        assert capsys.readouterr().err == "corpusphon: [Errno 28] No space left on device\n"
        assert attempts == [f".g1.TextGrid.{os.getpid()}.tmp"]  # g2 is never tried
        assert sorted(p.name for p in out.iterdir()) == ["final_ali.txt"]

    @pytest.mark.parametrize("phone, start", [("²", "0.00"), ("1", "nan")])
    def test_malformed_ctm_line_is_named(self, tmp_path, capsys, phone, start):
        src = tmp_path / "in"
        src.mkdir()
        lines = (FIXTURES / "merged_alignment.ctm").read_text().splitlines()
        utt, channel, _, dur, _ = lines[2].split()
        lines[2] = f"{utt} {channel} {start} {dur} {phone}"
        (src / "ali.ctm").write_text("\n".join(lines) + "\n")
        rc = main(
            [
                "ctm2tg",
                "--ctm", str(src / "ali.ctm"),
                "--segments", str(FIXTURES / "segments"),
                "--phones", str(FIXTURES / "phones.txt"),
                "--lexicon", str(FIXTURES / "lexicon.txt"),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert rc == 1
        assert "line 3:" in capsys.readouterr().err

    def run_bad_inputs(self, tmp_path, bad):
        """ctm2tg on the fixture corpus with lines of its inputs replaced, as {name: {index: line}}."""
        src, report = tmp_path / "in", tmp_path / "r.tsv"
        src.mkdir()
        inputs = {"ctm": "merged_alignment.ctm", "segments": "segments", "phones": "phones.txt"}
        for name, fixture in inputs.items():
            lines = (FIXTURES / fixture).read_text().split("\n")
            for index, line in bad.get(name, {}).items():
                lines[index] = line
            (src / name).write_text("\n".join(lines))
        argv = ["ctm2tg", *(a for name in inputs for a in (f"--{name}", str(src / name))),
                "--lexicon", str(FIXTURES / "lexicon.txt"), "--out", str(tmp_path / "out"),
                "--report", str(report)]
        assert main(argv) == 1
        assert not (tmp_path / "out").exists()
        return src, report.read_text()

    @pytest.mark.parametrize(
        "first, message",
        [
            ("s1_001 1 0.10 0.15 999", "line 2: phone ID 999 not in phones.txt"),
            ("zz 1 0.10 0.15 14", "line 2: utterance 'zz' has no segments row"),
        ],
        ids=["unknown-id", "unknown-utterance"],
    )
    def test_first_bad_ctm_line_in_line_order_is_reported(self, tmp_path, first, message):
        # a malformed line 4 was reported before any unknown ID or utterance
        src, report = self.run_bad_inputs(
            tmp_path, {"ctm": {1: first, 3: "s1_001 1 0.50 0.08"}})
        assert report == f"ERROR\t{src / 'ctm'}\t\t{message}\n"

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"segments": {1: "s1_002 f1 3.00"}}, "segments line 2: expected 4 fields"),
            ({"phones": {2: "AA1_I two"}}, "phones.txt line 3: non-integer ID"),
        ],
        ids=["segments", "phones"],
    )
    def test_segments_and_phones_errors_come_before_ctm_errors(self, tmp_path, bad, message):
        src, report = self.run_bad_inputs(tmp_path, {"ctm": {0: "s1_001 1 0.00"}, **bad})
        (name,) = bad
        assert report == f"ERROR\t{src / name}\t\t{message}\n"

    def test_reads_the_ctm_once_and_resolves_each_column_once(self, tmp_path, monkeypatch):
        reads, columns = [], []
        read, symbol = ctm.read_ctm, ctm._symbol

        def counted_read(content, segments, table):
            reads.append(content.count("\n"))
            return read(content, segments, table)

        def counted_symbol(column, line, table):
            columns.append(column)
            return symbol(column, line, table)

        monkeypatch.setattr(ctm, "read_ctm", counted_read)
        monkeypatch.setattr(ctm, "_symbol", counted_symbol)
        assert self.run_mixed(tmp_path / "out") == 0
        assert reads == [16]  # the mixed CTM's 16 lines, in one call
        ctm_columns = [line.split()[4] for line in
                       (FIXTURES / "mixed" / "ali.ctm").read_text().split("\n") if line]
        assert sorted(columns) == sorted(set(ctm_columns)) and len(columns) == 13

    @pytest.mark.parametrize(
        "fault, message",
        [
            ("wrong-word", "utterance s1_001: word 'WRONGWORD': observed "
                           "pronunciation 'S EY1' not in lexicon"),
            ("short-wav", "token 'SIL' ends at 3.1 but the file is 3.0 s"),
        ],
        ids=["wrong-word", "short-wav"],
    )
    def test_bad_file_costs_only_itself(self, tmp_path, fault, message):
        src, wavs = tmp_path / "in", tmp_path / "wav"
        src.mkdir()
        text = (FIXTURES / "text").read_text()
        if fault == "wrong-word":
            text = text.replace("s1_001 SAY", "s1_001 WRONGWORD")
        (src / "text").write_text(text)
        wav_dir = []
        if fault == "short-wav":
            wavs.mkdir()
            write_wav(wavs / "f1.wav", seconds=3.0)
            write_wav(wavs / "f2.wav", seconds=7.0)
            wav_dir = ["--wav-dir", str(wavs)]
        out, report = tmp_path / "out", tmp_path / "r.tsv"
        rc = main(
            [
                "ctm2tg",
                "--ctm", str(FIXTURES / "merged_alignment.ctm"),
                "--segments", str(FIXTURES / "segments"),
                "--phones", str(FIXTURES / "phones.txt"),
                "--lexicon", str(FIXTURES / "lexicon.txt"),
                "--text", str(src / "text"),
                "--out", str(out), "--report", str(report), *wav_dir,
            ]
        )
        assert rc == 1
        assert sorted(p.name for p in out.iterdir()) == ["f2.TextGrid", "final_ali.txt"]
        golden = (FIXTURES / "golden" / "f2.TextGrid").read_bytes()
        assert (out / "f2.TextGrid").read_bytes() == golden
        assert report.read_text() == f"ERROR\tf1\t\t{message}\n"


def write_ctm_corpus(root, files, utts, words):
    """A ctm2tg input of files x utts utterances: SIL, words 3-phone words, SIL.

    Phone columns are numeric IDs, as Kaldi writes them; returns the argv
    and the number of CTM lines.
    """
    cons, vowels = ["P", "T", "K", "S"], ["AA1", "IY1", "UW1"]
    prons = [(c, v, d) for c in cons for v in vowels for d in cons[:2]]
    vocab = [f"W{i}" for i in range(len(prons))]
    symbols = ["SIL"] + [f"{b}_{pos}" for b in cons + vowels for pos in "BIE"]
    ids = {sym: str(i + 1) for i, sym in enumerate(symbols)}
    root.mkdir()
    (root / "phones.txt").write_text("".join(f"{sym} {ids[sym]}\n" for sym in symbols))
    (root / "lexicon.txt").write_text(
        "".join(f"{w} {' '.join(pron)}\n" for w, pron in zip(vocab, prons)))
    ctm_lines, segments, text = [], [], []
    length = 0.03 * (3 * words + 2)
    for f in range(files):
        for u in range(utts):
            utt = f"f{f:03}-u{u:03}"
            chosen = [(f * 7 + u * 3 + k) % len(vocab) for k in range(words)]
            phones = ["SIL"]
            for k in chosen:
                phones += [f"{prons[k][0]}_B", f"{prons[k][1]}_I", f"{prons[k][2]}_E"]
            phones.append("SIL")
            ctm_lines += [f"{utt} 1 {0.03 * i:.2f} 0.03 {ids[ph]}\n"
                          for i, ph in enumerate(phones)]
            start = u * (length + 0.5)
            segments.append(f"{utt} f{f:03} {start:.2f} {start + length:.2f}\n")
            text.append(f"{utt} {' '.join(vocab[k] for k in chosen)}\n")
    for name, lines in (("ali.ctm", ctm_lines), ("segments", segments), ("text", text)):
        (root / name).write_text("".join(lines))
    argv = ["ctm2tg", "--ctm", str(root / "ali.ctm"), "--segments", str(root / "segments"),
            "--phones", str(root / "phones.txt"), "--lexicon", str(root / "lexicon.txt"),
            "--text", str(root / "text")]
    return argv, len(ctm_lines)


class TestCtm2TgStreaming:
    """final_ali.txt is written in chunks, and the corpus is not held twice."""

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_failure_after_k_chunks_leaves_no_table(self, tmp_path, monkeypatch, capsys, k):
        render, written = ctm.render_alignment_table, []

        def failing(tokens):
            for chunk in render(tokens):
                if len(written) == k:  # a disk that fills up mid-table
                    raise OSError(28, "No space left on device")
                written.append(chunk)
                yield chunk

        monkeypatch.setattr(ctm, "TABLE_CHUNK_ROWS", 2)
        monkeypatch.setattr(ctm, "render_alignment_table", failing)
        argv, _ = write_ctm_corpus(tmp_path / "in", files=2, utts=2, words=2)
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert len(written) == k
        assert list(out.iterdir()) == []  # no final_ali.txt, no temp file, no grid

    def test_dry_run_consumes_no_chunk(self, tmp_path, monkeypatch, capsys):
        render, consumed = ctm.render_alignment_table, []

        def counted(tokens):
            for chunk in render(tokens):
                consumed.append(chunk)
                yield chunk

        monkeypatch.setattr(ctm, "render_alignment_table", counted)
        argv, _ = write_ctm_corpus(tmp_path / "in", files=2, utts=2, words=2)
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out), "--dry-run"]) == 0
        assert consumed == []
        assert f"dry-run: would write {out / 'final_ali.txt'}" in capsys.readouterr().out
        assert not out.exists()

    def test_written_table_equals_the_chunks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ctm, "TABLE_CHUNK_ROWS", 7)
        argv, lines = write_ctm_corpus(tmp_path / "in", files=3, utts=2, words=3)
        assert main([*argv, "--out", str(tmp_path / "a")]) == 0
        monkeypatch.setattr(ctm, "TABLE_CHUNK_ROWS", 100_000)
        assert main([*argv, "--out", str(tmp_path / "b")]) == 0
        table = (tmp_path / "a" / "final_ali.txt").read_bytes()
        assert table == (tmp_path / "b" / "final_ali.txt").read_bytes()
        assert table.count(b"\n") == lines + 1

    def test_peak_memory_per_ctm_line(self, tmp_path):
        # the bound lies between 707-751 B a line (Python 3.10-3.13) with the
        # entries, the tokens and the whole table string alive together, and
        # 444-468 B with the table streamed and the entries dropped early
        argv, lines = write_ctm_corpus(tmp_path / "in", files=20, utts=20, words=16)
        assert lines == 20_000
        tracemalloc.start()
        try:
            assert main([*argv, "--out", str(tmp_path / "out")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / lines < 600, f"{peak / lines:.0f} B per CTM line"


class TestValidateMfa:
    def test_boundary_at_zero_exits_1(self, tmp_path):
        write_grid(tmp_path / "f.TextGrid", [Interval(0.0, 9.5, "HI")])
        write_wav(tmp_path / "f.wav")
        rc = main(
            [
                "validate-mfa",
                "--wav", str(tmp_path / "f.wav"),
                "--textgrid", str(tmp_path / "f.TextGrid"),
            ]
        )
        assert rc == 1

    def test_conforming_exits_0(self, tmp_path):
        write_grid(tmp_path / "f.TextGrid", [Interval(1.0, 9.9, "HI")])
        write_wav(tmp_path / "f.wav")
        rc = main(
            [
                "validate-mfa",
                "--wav", str(tmp_path / "f.wav"),
                "--textgrid", str(tmp_path / "f.TextGrid"),
            ]
        )
        assert rc == 0

    def test_margin_flag_overrides(self, tmp_path):
        # 100 ms margin fails when the config demands 200 ms
        write_grid(tmp_path / "f.TextGrid", [Interval(1.0, 9.9, "HI")])
        write_wav(tmp_path / "f.wav")
        rc = main(
            [
                "validate-mfa",
                "--wav", str(tmp_path / "f.wav"),
                "--textgrid", str(tmp_path / "f.TextGrid"),
                "--min-end-margin", "0.2",
                "--recommended-end-margin", "0.3",
            ]
        )
        assert rc == 1

    def test_config_file_and_flag_precedence(self, tmp_path):
        write_grid(tmp_path / "f.TextGrid", [Interval(1.0, 9.9, "HI")])
        write_wav(tmp_path / "f.wav")
        cfg = tmp_path / "settings.conf"
        cfg.write_text("min_end_margin = 0.2\nrecommended_end_margin = 0.3\n")
        rc = main(
            [
                "validate-mfa",
                "--config", str(cfg),
                "--wav", str(tmp_path / "f.wav"),
                "--textgrid", str(tmp_path / "f.TextGrid"),
            ]
        )
        assert rc == 1
        # explicit flags win over the config file
        rc = main(
            [
                "validate-mfa",
                "--config", str(cfg),
                "--wav", str(tmp_path / "f.wav"),
                "--textgrid", str(tmp_path / "f.TextGrid"),
                "--min-end-margin", "0.02",
                "--recommended-end-margin", "0.05",
            ]
        )
        assert rc == 0

    def test_lab_transcripts_get_wav_and_single_line_checks(self, tmp_path):
        src = tmp_path / "in"
        src.mkdir()
        (src / "ok.lab").write_text("SAY PAT AGAIN\n")
        (src / "bad.lab").write_text("SAY PAT, AGAIN\n")
        write_wav(src / "ok.wav")
        write_wav(src / "bad.wav", rate=44100)
        report = tmp_path / "r.tsv"
        rc = main(
            [
                "validate-mfa", str(src / "bad.lab"), str(src / "ok.lab"),
                "--wav-dir", str(src), "--report", str(report),
            ]
        )
        assert rc == 1
        rows = [line.split("\t") for line in report.read_text().splitlines()]
        assert [row[:3] for row in rows] == [
            ["ERROR", str(src / "bad.lab"), "wav"],
            ["ERROR", str(src / "bad.lab"), "line 1"],
        ]
        assert "sample rate is 44100 Hz" in rows[0][3]
        assert "contains punctuation ','" in rows[1][3]

    @pytest.mark.parametrize(
        "selection",
        [
            ["{d}/g.TextGrid", "--wav", "{d}/f.wav", "--textgrid", "{d}/f.TextGrid"],
            ["{d}/g.TextGrid", "--wav", "{d}/f.wav"],
            ["{d}/g.TextGrid", "--textgrid", "{d}/f.TextGrid"],
            ["--wav", "{d}/f.wav", "--textgrid", "{d}/f.TextGrid", "--wav-dir", "{d}"],
        ],
        ids=["grids-and-pair", "grids-and-wav", "grids-and-textgrid", "pair-and-wav-dir"],
    )
    def test_an_input_it_would_ignore_is_a_usage_error(self, tmp_path, capsys, selection):
        src = tmp_path / "in"
        src.mkdir()
        for stem in ("f", "g"):
            write_grid(src / f"{stem}.TextGrid", [Interval(1.0, 9.9, "HI")])
            write_wav(src / f"{stem}.wav")
        report = tmp_path / "out" / "r.tsv"
        argv = [a.format(d=src) for a in selection]
        assert main(["validate-mfa", *argv, "--report", str(report)]) == 2
        assert "--wav with --textgrid" in capsys.readouterr().err
        assert not report.parent.exists()


class TestConfigValues:
    def run_with(self, tmp_path, line, argv):
        cfg = tmp_path / "bad.conf"
        cfg.write_text(line + "\n")
        return main([*argv, "--config", str(cfg)])

    def test_a_line_without_equals_names_its_file_and_line(self, tmp_path, capsys):
        grid = tmp_path / "x.TextGrid"
        write_grid(grid, [Interval(1.0, 9.9, "HI")])
        assert self.run_with(tmp_path, "# settings\nx", ["tg", "diagnose", str(grid)]) == 2
        cfg = tmp_path / "bad.conf"
        assert capsys.readouterr().err == f"corpusphon: {cfg} line 2: 'x' is not 'key = value'\n"

    def test_unknown_separator(self, tmp_path, capsys):
        rc = self.run_with(
            tmp_path, "separator = tabs",
            ["vot", "words", "--lexicon", str(FIXTURES / "lexicon.txt"),
             "--out", str(tmp_path / "out" / "w.txt")],
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "'tabs'" in err and "whitespace, two-spaces, tab" in err

    def test_non_numeric_margin(self, tmp_path, capsys):
        write_grid(tmp_path / "f.TextGrid", [Interval(1.0, 9.9, "HI")])
        write_wav(tmp_path / "f.wav")
        rc = self.run_with(
            tmp_path, "min_end_margin = x",
            ["validate-mfa", "--wav", str(tmp_path / "f.wav"),
             "--textgrid", str(tmp_path / "f.TextGrid")],
        )
        assert rc == 2
        assert "min_end_margin = 'x'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line,argv",
        [
            ("min_end_margin = 0.1", []),
            ("", ["--min-end-margin", "0.1"]),
            ("recommended_end_margin = 0.01", []),
            ("min_end_margin = 0", []),
        ],
    )
    def test_end_margin_out_of_order(self, tmp_path, capsys, line, argv):
        write_grid(tmp_path / "f.TextGrid", [Interval(1.0, 9.9, "HI")])
        write_wav(tmp_path / "f.wav")
        rc = self.run_with(
            tmp_path, line,
            ["validate-mfa", "--wav", str(tmp_path / "f.wav"),
             "--textgrid", str(tmp_path / "f.TextGrid"), *argv],
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "min_end_margin" in err and "recommended_end_margin" in err

    def separator_grid(self, tmp_path):
        """Two touching text intervals: one warning when separators are required."""
        src = tmp_path / "in"
        src.mkdir()
        write_grid(
            src / "f.TextGrid",
            [Interval(1.0, 5.0, "HI"), Interval(5.0, 9.9, "THERE")],
        )
        write_wav(src / "f.wav")
        return ["validate-mfa", "--wav", str(src / "f.wav"),
                "--textgrid", str(src / "f.TextGrid"),
                "--report", str(tmp_path / "r.tsv")]

    @pytest.mark.parametrize(
        "value,findings",
        [("yes", 1), ("On", 1), ("1", 1), ("TRUE", 1),
         ("no", 0), ("off", 0), ("0", 0), ("False", 0)],
    )
    def test_boolean_words(self, tmp_path, value, findings):
        argv = self.separator_grid(tmp_path)
        rc = self.run_with(tmp_path, f"require_separator_intervals = {value}", argv)
        assert rc == 0
        lines = (tmp_path / "r.tsv").read_text().splitlines()
        assert len(lines) == findings

    def test_unrecognised_boolean(self, tmp_path, capsys):
        argv = self.separator_grid(tmp_path)
        rc = self.run_with(tmp_path, "require_separator_intervals = maybe", argv)
        assert rc == 2
        assert "require_separator_intervals = 'maybe'" in capsys.readouterr().err
        assert not (tmp_path / "r.tsv").exists()

    def test_non_numeric_tolerance(self, tmp_path, capsys):
        words = tmp_path / "in" / "words.txt"
        words.parent.mkdir()
        words.write_text("PAT\n")
        rc = self.run_with(
            tmp_path, "tolerance = x",
            ["vot", "locate", str(FIXTURES / "golden" / "f1.TextGrid"),
             "--words", str(words), "--out", str(tmp_path / "out" / "loc.txt")],
        )
        assert rc == 2
        assert "tolerance = 'x'" in capsys.readouterr().err


class TestBatch:
    def run_batch(self, corpus_dir, tmp_path, jobs, name):
        report = tmp_path / name
        rc = main(
            [
                "validate-mfa",
                *(str(p) for p in sorted(corpus_dir.glob("*.TextGrid"))),
                "--wav-dir", str(corpus_dir),
                "--jobs", str(jobs),
                "--report", str(report),
            ]
        )
        return rc, report.read_bytes()

    def test_worker_count_independence(self, corpus_dir, tmp_path, capsys):
        rc1, report1 = self.run_batch(corpus_dir, tmp_path, 1, "r1.tsv")
        err1 = capsys.readouterr().err
        rc4, report4 = self.run_batch(corpus_dir, tmp_path, 4, "r4.tsv")
        err4 = capsys.readouterr().err
        assert rc1 == rc4 == 1
        assert report1 == report4
        assert err1 == err4

    def test_corrupt_file_does_not_abort(self, tmp_path, capsys):
        src = tmp_path / "in"
        src.mkdir()
        for i in range(2):
            write_grid(src / f"ok{i}.TextGrid", [Interval(1.0, 9.9, "HI")])
            write_wav(src / f"ok{i}.wav")
        (src / "broken.TextGrid").write_bytes(b"not a textgrid")
        write_wav(src / "broken.wav")
        inf_size = src / "inf_size.TextGrid"
        write_grid(inf_size, [Interval(1.0, 9.9, "HI")])
        inf_size.write_bytes(
            inf_size.read_bytes().replace(b"\nsize = 1\n", b"\nsize = inf\n")
        )
        write_wav(src / "inf_size.wav")
        report = tmp_path / "report.tsv"
        rc = main(
            [
                "validate-mfa",
                *(str(p) for p in sorted(src.glob("*.TextGrid"))),
                "--wav-dir", str(src),
                "--report", str(report),
            ]
        )
        assert rc == 1
        lines = report.read_text().splitlines()
        for name in ("broken.TextGrid", "inf_size.TextGrid"):
            assert any(name in l and l.startswith("ERROR") for l in lines)
        assert not any("ok0.TextGrid" in l and l.startswith("ERROR") for l in lines)

    def test_undecodable_transcript_is_a_finding(self, tmp_path):
        src = tmp_path / "in"
        src.mkdir()
        (src / "latin1.txt").write_bytes("S1\tSp\t0.0\t1.0\tCAF\u00c9\n".encode("latin-1"))
        (src / "ok.txt").write_text("S1\tSp\t1.0\t0.5\tBACKWARDS\n")
        report = tmp_path / "r.tsv"
        rc = main(
            ["fave", "check", str(src / "latin1.txt"), str(src / "ok.txt"),
             "--report", str(report)]
        )
        assert rc == 1
        rows = [line.split("\t") for line in report.read_text().splitlines()]
        assert [row[:3] for row in rows] == [
            ["ERROR", str(src / "latin1.txt"), ""],
            ["ERROR", str(src / "ok.txt"), "line 1"],
        ]
        assert "can't decode" in rows[0][3]

    @pytest.mark.parametrize(
        "argv, bad",
        [
            (["lexicon", "missing", "--lexicon", "{bad}", "--kaldi-text", "{fx}/text"],
             "lexicon.txt"),
            (["ctm2tg", "--ctm", "{bad}", "--segments", "{fx}/segments",
              "--phones", "{fx}/phones.txt", "--lexicon", "{fx}/lexicon.txt",
              "--out", "{tmp}/out"], "merged_alignment.ctm"),
        ],
        ids=["lexicon", "ctm"],
    )
    def test_undecodable_input_is_a_usage_error(self, tmp_path, capsys, argv, bad):
        src = tmp_path / "in"
        src.mkdir()
        latin1 = src / bad
        latin1.write_bytes((FIXTURES / bad).read_bytes() + "\u00c9\n".encode("latin-1"))
        rc = main([a.format(bad=latin1, fx=FIXTURES, tmp=tmp_path) for a in argv])
        assert rc == 2
        assert f"{latin1}: 'utf-8' codec can't decode" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_empty_glob_warns_exit_0(self, tmp_path):
        report = tmp_path / "r.tsv"
        rc = main(
            [
                "validate-mfa",
                str(tmp_path / "none" / "*.TextGrid"),
                "--report", str(report),
            ]
        )
        assert rc == 0
        assert report.read_text().startswith("WARNING")

    def test_machine_report_format(self, corpus_dir, tmp_path):
        _, report = self.run_batch(corpus_dir, tmp_path, 1, "r.tsv")
        for line in report.decode().splitlines():
            fields = line.split("\t")
            assert fields[0] in ("ERROR", "WARNING", "INFO")
            assert len(fields) == 4

    def test_wavs_read_by_header_only(self, corpus_dir, tmp_path, monkeypatch):
        read_bytes = Path.read_bytes

        def guarded(path):
            assert path.suffix != ".wav", f"whole-file read of {path}"
            return read_bytes(path)

        monkeypatch.setattr(Path, "read_bytes", guarded)
        transcript = tmp_path / "ok0.txt"
        transcript.write_text("S1\tSpeaker One\t1.0\t9.0\tHI\n")
        wavs = sorted(str(p) for p in corpus_dir.glob("*.wav"))
        assert self.run_batch(corpus_dir, tmp_path, 1, "r.tsv")[0] == 1
        assert main(["audio", "info", *wavs]) == 0
        assert main(
            ["fave", "check", str(transcript), "--wav-dir", str(corpus_dir)]
        ) == 0


# a whole input (one read outside a batch) with one bad line: flag -> (file, content, message)
WHOLE_INPUT_ERRORS = {
    "ctm": ("merged_alignment.ctm", "s1_001 1 0.00 0.10 1\ns1_001 1 0.10 nan 14\n",
            "line 2: non-finite time"),
    "unknown-phone-id": ("merged_alignment.ctm", "s1_001 1 0.00 0.10 1\ns1_001 1 0.10 0.05 999\n",
                         "line 2: phone ID 999 not in phones.txt"),
    "unknown-utterance": ("merged_alignment.ctm", "s1_001 1 0.00 0.10 1\ns9_001 1 0.00 0.10 1\n",
                          "line 2: utterance 's9_001' has no segments row"),
    "segments": ("segments", "s1_001 f1 0.50 2.50\ns1_002 f1 x 5.00\n",
                 "segments line 2: non-numeric time"),
    "phones": ("phones.txt", "<eps> 0\nSIL x\n", "phones.txt line 2: non-integer ID"),
    "lexicon": ("lexicon.txt", "SAY S EY1\nBAD\n", "line 2: word 'BAD' has no phones"),
    "text": ("text", "s1_001 SAY\ns1_002\n", "text line 2: need utterance ID and words"),
}


class TestWholeInputErrors:
    """An error in an input read outside a batch names that input in the file column."""

    def run(self, tmp_path, capsys, argv):
        """Exit code, --report, stderr, and what was written under tmp_path/out."""
        report = tmp_path / "r.tsv"
        rc = main([*argv, "--report", str(report)])
        return rc, report.read_text(), capsys.readouterr().err, sorted(tmp_path.glob("out*"))

    @pytest.mark.parametrize("case", WHOLE_INPUT_ERRORS)
    def test_ctm2tg_input(self, tmp_path, capsys, case):
        name, content, message = WHOLE_INPUT_ERRORS[case]
        bad = tmp_path / "in" / name
        bad.parent.mkdir()
        bad.write_text(content)
        argv = ["ctm2tg", "--out", str(tmp_path / "out")]
        for flag, fixture in CTM2TG_INPUTS.items():
            argv += [f"--{flag}", str(bad if fixture == name else FIXTURES / fixture)]
        rc, report, err, written = self.run(tmp_path, capsys, argv)
        assert (rc, written) == (1, [])
        assert report == f"ERROR\t{bad}\t\t{message}\n"
        assert err == f"{bad}: ERROR: {message}\n"

    def test_lexicon_warning_and_error_name_the_lexicon(self, tmp_path, capsys):
        lex = tmp_path / "in" / "lex.txt"
        lex.parent.mkdir()
        lex.write_text("PAT P AE1 T\nPAT P AE1 T\nBAD\n")
        argv = ["lexicon", "filter", "--lexicon", str(lex),
                "--kaldi-text", str(FIXTURES / "text"), "--out", str(tmp_path / "out" / "lexicon.txt")]
        rc, report, err, written = self.run(tmp_path, capsys, argv)
        assert (rc, written) == (1, [])
        assert report == (f"WARNING\t{lex}\t\tline 2: duplicate entry for 'PAT' collapsed\n"
                          f"ERROR\t{lex}\t\tline 3: word 'BAD' has no phones\n")

    def test_kaldi_text(self, tmp_path, capsys):
        text = tmp_path / "in" / "text"
        text.parent.mkdir()
        text.write_text("u1\n")
        argv = ["lexicon", "missing", "--lexicon", str(FIXTURES / "lexicon.txt"),
                "--kaldi-text", str(text), "--out", str(tmp_path / "out" / "missing.txt")]
        rc, report, err, written = self.run(tmp_path, capsys, argv)
        assert (rc, written) == (1, [])
        assert report == f"ERROR\t{text}\t\ttext line 1: need utterance ID and words\n"


# the commands that build entries only for the words they use, each reading
# its lexicon from {lex}; every word of the fixture text is in the fixture lexicon
USED_WORDS_ONLY = {
    "filter": ["lexicon", "filter", "--lexicon", "{lex}", "--kaldi-text", "{fx}/text",
               "--out", "{out}/lexicon.txt"],
    "missing": ["lexicon", "missing", "--lexicon", "{lex}", "--kaldi-text", "{fx}/text",
                "--out", "{out}/missing.txt"],
    "ctm2tg-text": ["ctm2tg", "--ctm", "{fx}/merged_alignment.ctm", "--segments", "{fx}/segments",
                    "--phones", "{fx}/phones.txt", "--lexicon", "{lex}", "--text", "{fx}/text",
                    "--out", "{out}/grids"],
}


class TestUnusedLexiconLines:
    """A duplicate or malformed line under a word no corpus text uses still reaches the user."""

    def run(self, tmp_path, capsys, command, lexicon_text):
        lex = tmp_path / "in" / "lex.txt"
        lex.parent.mkdir()
        lex.write_text((FIXTURES / "lexicon.txt").read_text() + lexicon_text)
        report = tmp_path / "r.tsv"
        fields = {"lex": lex, "fx": FIXTURES, "out": tmp_path / "out"}
        argv = [a.format(**fields) for a in USED_WORDS_ONLY[command]]
        rc = main([*argv, "--report", str(report)])
        return lex, rc, report.read_text(), capsys.readouterr().err

    @pytest.mark.parametrize("command", USED_WORDS_ONLY)
    def test_duplicate_under_an_unused_word_is_a_warning(self, tmp_path, capsys, command):
        # line 8 differs from line 9 in its phones; line 10 repeats line 8 with other spacing
        lex, rc, report, err = self.run(
            tmp_path, capsys, command, "ZZZ Z IY1\nZZZ Z IY0\nZZZ  Z IY1\n")
        message = "line 10: duplicate entry for 'ZZZ' collapsed"
        assert rc == 0
        assert report == f"WARNING\t{lex}\t\t{message}\n"
        assert err == f"{lex}: WARNING: {message}\n"

    @pytest.mark.parametrize("command", USED_WORDS_ONLY)
    @pytest.mark.parametrize("line, message", [
        ("ZZZ\n", "line 8: word 'ZZZ' has no phones"),
        ("ZZZ\u00a0\n", "line 8: word 'ZZZ' has no phones"),
    ], ids=["bare", "no-break-space"])
    def test_malformed_line_under_an_unused_word_is_an_error(
        self, tmp_path, capsys, command, line, message
    ):
        lex, rc, report, err = self.run(tmp_path, capsys, command, line + "SAY S EY1\n")
        assert rc == 1
        assert report == f"ERROR\t{lex}\t\t{message}\n"
        assert not (tmp_path / "out").exists()

    def test_ctm2tg_reads_text_before_the_lexicon(self, tmp_path, capsys):
        # with both malformed, the text's error is the one reported
        bad = tmp_path / "in"
        bad.mkdir()
        (bad / "text").write_text("s1_001 SAY\ns1_002\n")
        (bad / "lexicon.txt").write_text("SAY S EY1\nBAD\n")
        argv = ["ctm2tg", "--out", str(tmp_path / "out")]
        for flag, fixture in CTM2TG_INPUTS.items():
            folder = bad if flag in ("text", "lexicon") else FIXTURES
            argv += [f"--{flag}", str(folder / fixture)]
        report = tmp_path / "r.tsv"
        assert main([*argv, "--report", str(report)]) == 1
        assert report.read_text() == (
            f"ERROR\t{bad / 'text'}\t\ttext line 2: need utterance ID and words\n")
        assert not (tmp_path / "out").exists()

    def test_ctm2tg_utterance_without_text_matches_through_every_word(self, tmp_path):
        # s2_001 is the only utterance of TUTT, which then comes from the reverse index
        text = tmp_path / "in" / "text"
        text.parent.mkdir()
        text.write_text("".join(
            line for line in (FIXTURES / "text").read_text().splitlines(keepends=True)
            if not line.startswith("s2_001 ")))
        outs = {}
        for name, text_path in (("full", FIXTURES / "text"), ("partial", text)):
            argv = ["ctm2tg", "--out", str(tmp_path / name)]
            for flag, fixture in CTM2TG_INPUTS.items():
                argv += [f"--{flag}", str(text_path if flag == "text" else FIXTURES / fixture)]
            assert main(argv) == 0
            outs[name] = {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
        assert outs["partial"] == outs["full"]
        assert b'"TUTT"' in outs["partial"]["f2.TextGrid"]


class TestVotCli:
    def test_words_locate_windows(self, tmp_path):
        work = tmp_path / "work"
        out = tmp_path / "out"
        work.mkdir()
        shutil.copy(FIXTURES / "golden" / "f1.TextGrid", work / "f1.TextGrid")
        shutil.copy(FIXTURES / "golden" / "f2.TextGrid", work / "f2.TextGrid")

        rc = main(
            [
                "vot", "words",
                "--lexicon", str(FIXTURES / "lexicon.txt"),
                "--out", str(out / "wordList.txt"),
            ]
        )
        assert rc == 0
        assert (out / "wordList.txt").read_text() == "DOT\nPAT\nTUTT\n"

        rc = main(
            [
                "vot", "locate",
                str(work / "f1.TextGrid"), str(work / "f2.TextGrid"),
                "--words", str(out / "wordList.txt"),
                "--out", str(tmp_path / "loc" / "CVWordLocations.txt"),
            ]
        )
        assert rc == 0
        locations = (tmp_path / "loc" / "CVWordLocations.txt").read_text().splitlines()
        # f1: PAT, DOT; f2: TUTT, PAT, DOT (word tiers carry stop suffixes)
        assert len(locations) == 5

        grids_out = tmp_path / "grids"
        rc = main(
            [
                "vot", "windows",
                str(work / "f1.TextGrid"), str(work / "f2.TextGrid"),
                "--locations", str(tmp_path / "loc" / "CVWordLocations.txt"),
                "--out-dir", str(grids_out),
            ]
        )
        assert rc == 0
        grid = parse_textgrid(
            (grids_out / "f1_allauto.TextGrid").read_bytes()
        )
        tier, _ = grid.find_tier("vot")
        assert {iv.text for iv in tier.non_empty()} <= set("PTKBDG")

    def test_window_overlap_warning_names_its_grid(self, tmp_path):
        src = tmp_path / "in"
        src.mkdir()
        for stem in ("a", "b"):
            write_grid(src / f"{stem}.TextGrid", [Interval(1.0, 9.0, "HI")])
        # a's two windows collide; b's are far apart
        locations = src / "CVWordLocations.txt"
        locations.write_text(
            "a\tPAT\t1.0\t1.3\tP\t1.05\n"
            "a\tTUTT\t1.07\t1.4\tT\t1.12\n"
            "b\tPAT\t1.0\t1.3\tP\t1.05\n"
            "b\tDOT\t5.0\t5.3\tD\t5.05\n"
        )
        reports = []
        for jobs in (1, 4):
            report = tmp_path / f"r{jobs}.tsv"
            rc = main(
                [
                    "vot", "windows",
                    str(src / "a.TextGrid"), str(src / "b.TextGrid"),
                    "--locations", str(locations),
                    "--out-dir", str(tmp_path / f"out{jobs}"),
                    "--jobs", str(jobs), "--report", str(report),
                ]
            )
            assert rc == 0
            reports.append(report.read_bytes())
        assert reports[0] == reports[1]
        (line,) = reports[0].decode().splitlines()
        assert line.startswith(f"WARNING\t{src / 'a.TextGrid'}\t\twindows for 'PAT'")

    def test_windows_refuses_out_inside_input(self, tmp_path):
        work = tmp_path / "work"
        work.mkdir()
        shutil.copy(FIXTURES / "golden" / "f1.TextGrid", work / "f1.TextGrid")
        (work / "CVWordLocations.txt").write_text(
            "f1\tPAT\t3.48\t3.95\tP\t3.55\n"
        )
        rc = main(
            [
                "vot", "windows",
                str(work / "f1.TextGrid"),
                "--locations", str(work / "CVWordLocations.txt"),
                "--out-dir", str(work / "out"),
            ]
        )
        assert rc == 2
        assert not (work / "out").exists()
        assert list(work.iterdir()) and all(
            p.name in ("f1.TextGrid", "CVWordLocations.txt")
            for p in work.iterdir()
        )


    @pytest.mark.parametrize("column", [2, 3, 5])
    def test_windows_reports_a_non_finite_location_time(self, tmp_path, column):
        fields = ["f1", "PAT", "3.48", "3.95", "P", "3.55"]
        fields[column] = "nan"
        locations = tmp_path / "in" / "CVWordLocations.txt"
        locations.parent.mkdir()
        locations.write_text("f1\tDOT\t1.0\t1.3\tD\t1.05\n" + "\t".join(fields) + "\n")
        report, out = tmp_path / "r.tsv", tmp_path / "out"
        rc = main(["vot", "windows", str(FIXTURES / "golden" / "f1.TextGrid"),
                   "--locations", str(locations), "--out-dir", str(out),
                   "--report", str(report)])
        assert rc == 1
        assert report.read_text() == f"ERROR\t{locations}\t\tlocations line 2: non-finite time\n"
        assert not out.exists()


class TestTgCli:
    def test_stack_rename_diagnose(self, tmp_path):
        a = tmp_path / "in_a" / "a.TextGrid"
        b = tmp_path / "in_b" / "b.TextGrid"
        a.parent.mkdir()
        b.parent.mkdir()
        write_grid(a, [Interval(1.0, 2.0, "X")], name="phones")
        write_grid(b, [Interval(2.0, 3.0, "Y")], name="words")

        out = tmp_path / "out" / "stacked.TextGrid"
        rc = main(["tg", "stack", str(a), str(b), "--out", str(out)])
        assert rc == 0
        grid = parse_textgrid(out.read_bytes())
        assert [t.name for t in grid.tiers] == ["phones", "words"]

        renamed = tmp_path / "out" / "renamed.TextGrid"
        rc = main(
            [
                "tg", "rename", str(out),
                "--index", "1", "--name", "P_auto",
                "--out", str(renamed),
            ]
        )
        assert rc == 2  # renamed sits next to its input: refused
        renamed2 = tmp_path / "out2" / "renamed.TextGrid"
        rc = main(
            [
                "tg", "rename", str(out),
                "--index", "1", "--name", "P_auto",
                "--out", str(renamed2),
            ]
        )
        assert rc == 0
        assert parse_textgrid(renamed2.read_bytes()).tiers[0].name == "P_auto"

        rc = main(["tg", "diagnose", str(out)])
        assert rc == 0

    def test_grid_step_writes_each_grid_as_it_is_done(self, tmp_path, monkeypatch, capsys):
        src, out = tmp_path / "in", tmp_path / "out"
        src.mkdir()
        for i in range(3):
            write_grid(src / f"g{i}.TextGrid", [Interval(1.0, 2.0, "X")], name="phones")
        real_read, real_write, read = cli.read_grid, Path.write_bytes, []

        def read_grid(path):
            read.append(path.name)
            return real_read(path)

        def write_bytes(path, data):
            if path.name.startswith(".g1_"):
                raise OSError(28, "No space left on device")
            return real_write(path, data)

        monkeypatch.setattr(cli, "read_grid", read_grid)
        monkeypatch.setattr(Path, "write_bytes", write_bytes)
        argv = ["vot", "merge", *(str(src / f"g{i}.TextGrid") for i in range(3)),
                "--tiers", "1", "--out-dir", str(out)]
        assert main(argv) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert read == ["g0.TextGrid", "g1.TextGrid"]  # g2 is never read
        assert [p.name for p in out.iterdir()] == ["g0_stops.TextGrid"]

    def test_dry_run_writes_nothing(self, tmp_path, capsys):
        a = tmp_path / "in" / "a.TextGrid"
        a.parent.mkdir()
        write_grid(a, [Interval(1.0, 2.0, "X")])
        out = tmp_path / "out" / "stacked.TextGrid"
        rc = main(["tg", "stack", str(a), "--out", str(out), "--dry-run"])
        assert rc == 0
        assert not out.exists()
        assert "would write" in capsys.readouterr().out


class TestFindingsScope:
    """Each file's findings come together, name the file, and follow input order."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["tg", "merge", "{grid}", "--indices", "1,2", "--name", "vot"],
            ["tg", "rename", "{grid}", "--index", "3", "--name", "vot"],
            ["tg", "stack", "{grid}", "{broken}"],
        ],
        ids=["merge", "rename", "stack"],
    )
    def test_tg_error_names_its_grid(self, tmp_path, argv):
        src = tmp_path / "in"
        src.mkdir()
        grid = src / "clash.TextGrid"
        tiers = (
            IntervalTier("a", 0.0, 10.0, (Interval(1.0, 3.0, "P"),)).normalized(),
            IntervalTier("b", 0.0, 10.0, (Interval(2.0, 4.0, "T"),)).normalized(),
        )
        grid.write_bytes(write_textgrid(TextGrid(0.0, 10.0, tiers)))
        broken = src / "broken.TextGrid"
        broken.write_bytes(b"not a textgrid")
        out = tmp_path / "out" / "g.TextGrid"
        report = tmp_path / "r.tsv"
        rc = main(
            [a.format(grid=grid, broken=broken) for a in argv]
            + ["--out", str(out), "--report", str(report)]
        )
        assert rc == 1
        (line,) = report.read_text().splitlines()
        bad = broken if argv[1] == "stack" else grid
        assert line.startswith(f"ERROR\t{bad}\t\t")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["tg", "merge", "{grid}", "--indices", "1,1", "--name", "vot", "--out", "{out}"],
            ["tg", "merge", "{grid}", "--indices", "2", "--name", "vot", "--out", "{out}"],
            ["tg", "merge", "{grid}", "--indices", "", "--name", "vot", "--out", "{out}"],
            ["vot", "merge", "{grid}", "--tiers", "1,1", "--out-dir", "{out}"],
        ],
        ids=["repeated", "point-tier", "empty", "vot-merge"],
    )
    def test_bad_tier_selection_is_a_finding(self, tmp_path, argv):
        src = tmp_path / "in"
        src.mkdir()
        grid = src / "g.TextGrid"
        tiers = (
            IntervalTier("a", 0.0, 10.0, (Interval(1.0, 3.0, "P"),)).normalized(),
            PointTier("p", 0.0, 10.0, (Point(2.0, "burst"),)),
        )
        grid.write_bytes(write_textgrid(TextGrid(0.0, 10.0, tiers)))
        out, report = tmp_path / "out", tmp_path / "r.tsv"
        rc = main(
            [a.format(grid=grid, out=out) for a in argv] + ["--report", str(report)]
        )
        assert rc == 1
        assert report.read_text().startswith(f"ERROR\t{grid}\t\t")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, point",
        [
            (["vot", "locate", "--words", "{words}", "--out", "{out}/loc.txt"], "words"),
            (["vot", "locate", "--words", "{words}", "--out", "{out}/loc.txt"], "phones"),
            (["vot", "compare", "--manual-tier", "manual", "--auto-tier", "auto",
              "--out", "{out}/d.tsv"], "manual"),
            (["vot", "compare", "--manual-tier", "manual", "--auto-tier", "auto",
              "--out", "{out}/d.tsv"], "auto"),
            (["vot", "prefer-manual", "--manual-tier", "manual", "--auto-tier", "auto",
              "--out-dir", "{out}"], "manual"),
            (["vot", "prefer-manual", "--manual-tier", "manual", "--auto-tier", "auto",
              "--out-dir", "{out}"], "auto"),
            (["vot", "measure", "--out", "{out}/m.tsv"], "vot"),
            (["vot", "measure", "--out", "{out}/m.tsv"], "phones"),
            (["vot", "measure", "--out", "{out}/m.tsv"], "words"),
        ],
        ids=lambda v: v if isinstance(v, str) else v[1],
    )
    def test_point_tier_named_for_intervals_costs_only_its_grid(self, tmp_path, argv, point):
        from test_vot import measurement_fixture_grid

        base = measurement_fixture_grid()
        vot_tier = base.find_tier("vot")[0]
        tiers = base.tiers + tuple(
            IntervalTier(name, 0.0, 8.0, vot_tier.intervals) for name in ("manual", "auto")
        )
        src = tmp_path / "in"
        src.mkdir()
        bad, good = src / "a.TextGrid", src / "b.TextGrid"
        bad.write_bytes(write_textgrid(TextGrid(0.0, 8.0, tuple(
            PointTier(t.name, 0.0, 8.0, (Point(1.0, "P"),)) if t.name == point else t
            for t in tiers
        ))))
        good.write_bytes(write_textgrid(TextGrid(0.0, 8.0, tiers)))
        words = src / "w.txt"
        words.write_text("PAT\n")
        out, report = tmp_path / "out", tmp_path / "r.tsv"
        argv = [a.format(words=words, out=out) for a in argv]
        rc = main(argv + [str(bad), str(good), "--report", str(report)])
        assert rc == 1
        assert report.read_text() == f"ERROR\t{bad}\t\ttier {point!r} is not an interval tier\n"
        if argv[1] == "prefer-manual":
            assert [p.name for p in out.iterdir()] == ["b_stacked2.TextGrid"]
        else:
            (table,) = out.iterdir()
            rows = table.read_text().splitlines()
            assert {r.split("\t")[0] for r in rows} - {"file_id"} == {"b"}

    def test_compare_findings_in_input_order(self, tmp_path):
        src = tmp_path / "in"
        src.mkdir()
        manual = IntervalTier(
            "manual", 0.0, 5.0, (Interval(1.0, 1.06, "P"),)
        ).normalized()
        auto = IntervalTier("auto", 0.0, 5.0, (Interval(3.0, 3.05, "T"),)).normalized()
        a, b = src / "a.TextGrid", src / "b.TextGrid"
        a.write_bytes(write_textgrid(TextGrid(0.0, 5.0, (manual, auto))))
        b.write_bytes(write_textgrid(TextGrid(0.0, 5.0, (manual,))))
        report = tmp_path / "r.tsv"
        rc = main(
            [
                "vot", "compare", str(a), str(b),
                "--manual-tier", "manual", "--auto-tier", "auto",
                "--out", str(tmp_path / "deltas.tsv"), "--report", str(report),
            ]
        )
        assert rc == 1
        rows = [line.split("\t") for line in report.read_text().splitlines()]
        assert [row[:3] for row in rows] == [
            ["WARNING", str(a), "[1.0, 1.06]"],
            ["WARNING", str(a), "[3.0, 3.05]"],
            ["ERROR", str(b), ""],
        ]


# ctm2tg's inputs by flag: one case reads each from "in", the others from the fixtures
CTM2TG_INPUTS = {"ctm": "merged_alignment.ctm", "segments": "segments", "phones": "phones.txt",
                 "lexicon": "lexicon.txt", "text": "text"}


def _ctm2tg_reading_from_in(flag_in_in):
    argv = ["ctm2tg", "--out", "{in}/grids"]
    for flag, name in CTM2TG_INPUTS.items():
        argv += [f"--{flag}", ("{in}/" if flag == flag_in_in else "{fx}/") + name]
    return argv


SEPARATION_CASES = {
    "vot-words": ["vot", "words", "--lexicon", "{in}/lexicon.txt", "--out", "{in}/w.txt"],
    "vot-locate-grid": ["vot", "locate", "{in}/f1.TextGrid", "--words",
                        "{aux}/words.txt", "--out", "{in}/loc.txt"],
    "vot-locate-words": ["vot", "locate", "{aux}/f1.TextGrid", "--words",
                         "{in}/words.txt", "--out", "{in}/sub/loc.txt"],
    "vot-measure": ["vot", "measure", "{in}/f1.TextGrid", "--out", "{in}/m.tsv"],
    "vot-compare": ["vot", "compare", "{in}/f1.TextGrid", "--manual-tier", "words",
                    "--auto-tier", "phones", "--out", "{in}/d.tsv"],
    "lexicon-missing": ["lexicon", "missing", "--lexicon", "{in}/lexicon.txt",
                        "--words", "{aux}/words.txt", "--out", "{in}/missing.txt"],
    "lexicon-filter-words": ["lexicon", "filter", "--lexicon", "{aux}/lexicon.txt",
                             "--words", "{in}/words.txt", "--out", "{in}/lex.txt"],
    "lexicon-filter-transcripts": ["lexicon", "filter", "--lexicon", "{aux}/lexicon.txt",
                                   "--transcripts", "{in}/*.lab", "--out", "{in}/lex.txt"],
    "lexicon-filter-kaldi-text": ["lexicon", "filter", "--lexicon", "{aux}/lexicon.txt",
                                  "--kaldi-text", "{in}/text", "--out", "{in}/lex.txt"],
    "kaldi-build-mfcc-conf": ["kaldi-prep", "build", "--records", "{in}/records.tsv",
                              "--out", "{aux}/../data", "--mfcc-conf", "{in}/conf/mfcc.conf"],
    "ctm2tg-wav-dir": ["ctm2tg", "--ctm", "{fx}/merged_alignment.ctm", "--segments",
                       "{fx}/segments", "--phones", "{fx}/phones.txt", "--lexicon",
                       "{fx}/lexicon.txt", "--wav-dir", "{in}", "--out", "{in}/grids"],
    "tg-diagnose-report": ["tg", "diagnose", "{in}/f1.TextGrid", "--report", "{in}/r.tsv"],
    "validate-mfa-report": ["validate-mfa", "{aux}/f1.TextGrid", "--wav-dir", "{in}",
                            "--report", "{in}/r.tsv"],
    "validate-mfa-report-no-wav": ["validate-mfa", "{aux}/f2.TextGrid", "--wav-dir", "{in}",
                                   "--report", "{in}/r.tsv"],
    "kaldi-validate-report": ["kaldi-prep", "validate", "{in}", "--report", "{in}/r/r.tsv"],
    "fave-check-report": ["fave", "check", "{in}/t.lab", "--report", "{in}/r.tsv"],
    "audio-info-report": ["audio", "info", "{in}/f1.wav", "--report", "{in}/r.tsv"],
    "vot-measure-report": ["vot", "measure", "{in}/f1.TextGrid", "--out", "{aux}/../m.tsv",
                           "--report", "{in}/r.tsv"],
    "symlink-target-report": ["tg", "diagnose", "{aux}/link.TextGrid", "--report", "{in}/r.tsv"],
    "validate-mfa-symlinked-wav": ["validate-mfa", "{aux}/f1.TextGrid", "--wav-dir", "{aux}",
                                   "--report", "{in}/r.tsv"],
    "fave-check-symlinked-wav": ["fave", "check", "{aux}/t.lab", "--wav-dir", "{aux}",
                                 "--report", "{in}/r.tsv"],
    "ctm2tg-symlinked-wav": ["ctm2tg", "--ctm", "{fx}/merged_alignment.ctm", "--segments",
                             "{fx}/segments", "--phones", "{fx}/phones.txt", "--lexicon",
                             "{fx}/lexicon.txt", "--wav-dir", "{aux}", "--out", "{in}/grids"],
    **{f"ctm2tg-{flag}": _ctm2tg_reading_from_in(flag) for flag in CTM2TG_INPUTS},
    "lexicon-phones": ["lexicon", "phones", "--lexicon", "{in}/lexicon.txt",
                       "--out-dir", "{in}/lang"],
    "kaldi-fix": ["kaldi-prep", "fix", "{in}", "--out", "{in}/fixed"],
    "audio-mono": ["audio", "mono", "{in}/f1.wav", "--channel", "1", "--out-dir", "{in}/mono"],
    "vot-windows-locations": ["vot", "windows", "{aux}/f1.TextGrid", "--locations",
                              "{in}/loc.txt", "--out-dir", "{in}/w"],
    "vot-lists-wav-dir": ["vot", "lists", "--wav-dir", "{in}", "--textgrid-dir", "{aux}",
                          "--out-dir", "{in}/lists"],
    "vot-lists-textgrid-dir": ["vot", "lists", "--wav-dir", "{aux}", "--textgrid-dir", "{in}",
                               "--out-dir", "{in}/lists"],
    "vot-merge": ["vot", "merge", "{in}/f1.TextGrid", "--tiers", "1", "--out-dir", "{in}/m"],
    "vot-prefer-manual": ["vot", "prefer-manual", "{in}/f1.TextGrid", "--manual-tier",
                          "words", "--auto-tier", "phones", "--out-dir", "{in}/p"],
    "tg-stack": ["tg", "stack", "{aux}/f1.TextGrid", "{in}/f1.TextGrid",
                 "--out", "{in}/s.TextGrid"],
    "tg-rename": ["tg", "rename", "{in}/f1.TextGrid", "--index", "1", "--name", "x",
                  "--out", "{in}/r/f1.TextGrid"],
    "tg-merge": ["tg", "merge", "{in}/f1.TextGrid", "--indices", "1", "--name", "x",
                 "--out", "{in}/r/f1.TextGrid"],
    "fave-check-lexicon": ["fave", "check", "{aux}/t.lab", "--lexicon", "{in}/lexicon.txt",
                           "--report", "{in}/r.tsv"],
    "fave-check-wav-dir": ["fave", "check", "{aux}/t.lab", "--wav-dir", "{in}",
                           "--report", "{in}/r.tsv"],
}


_SETTING = "a number, a name or a switch, not a path"

# parser arguments in none of main's path tables, each with its reason
NON_PATH_ARGS = {
    "config": "read but never guarded: a settings file beside the output tree is normal use",
    "report": "written; Ctx.check_outputs guards it beside every command's outputs",
    "classifier": "printed into the AutoVOT commands, never opened",
    "suffix": "names the files written inside --out-dir",
    **dict.fromkeys(
        ("jobs", "dry_run", "sample_rate", "strict_speaker_prefix", "separator",
         "no_uppercase", "strip_apostrophe", "strip_chars", "oov_word", "oov_phone",
         "exclude", "min_end_margin", "recommended_end_margin",
         "require_separator_intervals", "target_rate", "channel", "word_tier",
         "phone_tier", "tolerance", "vot_tier", "tiers", "name", "manual_tier",
         "auto_tier", "silence_labels", "no_rate", "index", "indices"),
        _SETTING,
    ),
}


def _leaf_parsers(parser, name=""):
    """(command name, parser) for each subcommand that takes no further subcommand."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield name, parser
    for action in subs:
        for word, sub in action.choices.items():
            yield from _leaf_parsers(sub, f"{name} {word}".strip())


def test_every_argument_has_a_path_role():
    roles = {*cli.READ_ARGS, *cli.GLOB_ARGS, *cli.WRITTEN_ARGS}
    assert not roles & NON_PATH_ARGS.keys()
    seen, unclassified = set(), []
    for command, leaf in _leaf_parsers(cli.build_parser()):
        dests = [a.dest for a in leaf._actions if not isinstance(a, argparse._HelpAction)]
        seen.update(dests)
        unclassified += [f"{command}: {d}" for d in dests if d not in roles | NON_PATH_ARGS.keys()]
        assert len(set(dests) & set(cli.GLOB_ARGS)) <= 1, command
    assert unclassified == []
    assert roles | NON_PATH_ARGS.keys() <= seen  # no stale entry


@pytest.mark.parametrize("argv", SEPARATION_CASES.values(), ids=SEPARATION_CASES.keys())
def test_no_output_inside_an_input_directory(tmp_path, argv):
    src, aux = tmp_path / "in", tmp_path / "aux"
    for d in (src, aux):
        d.mkdir()
        shutil.copy(FIXTURES / "lexicon.txt", d / "lexicon.txt")
        shutil.copy(FIXTURES / "golden" / "f1.TextGrid", d / "f1.TextGrid")
        (d / "words.txt").write_text("PAT\nSAY\n")
        (d / "t.lab").write_text("SAY PAT AGAIN\n")
    shutil.copy(FIXTURES / "golden" / "f2.TextGrid", aux / "f2.TextGrid")  # no in/f2.wav
    for name in CTM2TG_INPUTS.values():
        shutil.copy(FIXTURES / name, src / name)
    (src / "loc.txt").write_text("f1\tPAT\t0.1\t0.4\tP\t0.2\n")
    (src / "records.tsv").write_text("u1\tf1\t0.0\t1.5\ts1\tpath/f1.wav\tSAY PAT\n")
    write_wav(src / "f1.wav", seconds=7.0)
    (aux / "link.TextGrid").symlink_to(src / "f1.TextGrid")
    (aux / "f1.wav").symlink_to(src / "f1.wav")
    (aux / "t.wav").symlink_to(src / "f1.wav")
    before = sorted(tmp_path.rglob("*"))
    rc = main([a.format(**{"in": src, "aux": aux, "fx": FIXTURES}) for a in argv])
    assert rc == 2
    assert sorted(tmp_path.rglob("*")) == before


def test_stack_of_no_grids_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "out" / "s.TextGrid"
    rc = main(["tg", "stack", str(tmp_path / "in" / "nomatch*"), "--out", str(out)])
    assert rc == 2
    assert "no TextGrids to stack" in capsys.readouterr().err
    assert not out.parent.exists()


class TestKaldiCli:
    @pytest.mark.parametrize("rate", ["0", "-16000"])
    def test_build_refuses_a_bad_rate_before_writing(self, tmp_path, capsys, rate):
        records = tmp_path / "in" / "records.tsv"
        records.parent.mkdir()
        records.write_text("u1\tf1\t0.0\t1.5\ts1\tpath/f1.wav\tSAY PAT AGAIN\n")
        rc = main(
            [
                "kaldi-prep", "build", "--records", str(records),
                "--out", str(tmp_path / "data"),
                "--mfcc-conf", str(tmp_path / "conf" / "mfcc.conf"),
                "--sample-rate", rate,
            ]
        )
        assert rc == 2
        assert f"sample rate must be positive, got {rate}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in"]

    @pytest.mark.parametrize(
        "column, value, message",
        [
            ("utt", "", "utterance ID '' is empty or contains whitespace"),
            ("utt", "u 1", "utterance ID 'u 1' is empty or contains whitespace"),
            ("file_id", "", "file ID '' is empty or contains whitespace"),
            ("file_id", "f 1", "file ID 'f 1' is empty or contains whitespace"),
            ("speaker", "", "speaker '' is empty or contains whitespace"),
            ("speaker", "s 1", "speaker 's 1' is empty or contains whitespace"),
            ("words", " ", "utterance u1: transcript has no words"),
            ("source", "", "wav.scp entry f1: empty source"),
            ("source", " ", "wav.scp entry f1: empty source"),
            # any whitespace the parsers split on, not only ASCII
            ("utt", "u\u00a01", "utterance ID 'u\\xa01' is empty or contains whitespace"),
            ("speaker", "s\u20031", "speaker 's\\u20031' is empty or contains whitespace"),
            ("utt", "u0", "duplicate utterance ID 'u0'"),
            ("file_id", "f0", "file ID 'f0' has conflicting audio sources"),
            ("end", "0.0", "utterance 'u1': start 0.0 not before end 0.0"),
        ],
    )
    def test_build_refuses_a_bad_record_field(self, tmp_path, column, value, message):
        row = {"utt": "u1", "file_id": "f1", "start": "0.0", "end": "1.5",
               "speaker": "s1", "source": "p/f1.wav", "words": "SAY"}
        row[column] = value
        records = tmp_path / "in" / "records.tsv"
        records.parent.mkdir()
        records.write_text(
            "u0\tf0\t0.0\t0.5\ts1\tp/f0.wav\tHI\n" + "\t".join(row.values()) + "\n",
            encoding="utf-8",
        )
        report = tmp_path / "r.tsv"
        out = tmp_path / "data"
        argv = ["kaldi-prep", "build", "--records", str(records), "--out", str(out)]
        assert main(argv + ["--report", str(report)]) == 1
        # the bad row is line 2 of the records file
        assert report.read_text() == f"ERROR\t{records}\t\tline 2: {message}\n"
        assert not out.exists()

    def test_build_reports_the_first_bad_record_in_line_order(self, tmp_path):
        # line 1 sorts after line 2 by utterance ID; line 1 is still the one named
        records = tmp_path / "in" / "records.tsv"
        records.parent.mkdir()
        records.write_text("ub\tf1\t0.0\t0.5\t\tp/f1.wav\tHI\n"
                           "ua\tf1\t0.5\t1.0\ts1\tp/f1.wav\t \n")
        report = tmp_path / "r.tsv"
        argv = ["kaldi-prep", "build", "--records", str(records), "--out", str(tmp_path / "data")]
        assert main(argv + ["--report", str(report)]) == 1
        assert report.read_text() == (
            f"ERROR\t{records}\t\tline 1: speaker '' is empty or contains whitespace\n"
        )

    def test_build_validate_fix(self, tmp_path):
        records = tmp_path / "in" / "records.tsv"
        records.parent.mkdir()
        records.write_text(
            "u2\tf1\t2.0\t3.5\ts1\tpath/f1.wav\tAT LEAST NOW\n"
            "u1\tf1\t0.0\t1.5\ts1\tpath/f1.wav\tSAY PAT AGAIN\n"
        )
        out = tmp_path / "data"
        rc = main(
            [
                "kaldi-prep", "build",
                "--records", str(records),
                "--out", str(out),
                "--mfcc-conf", str(tmp_path / "conf" / "mfcc.conf"),
            ]
        )
        assert rc == 0
        assert (out / "text").read_text() == (
            "u1 SAY PAT AGAIN\nu2 AT LEAST NOW\n"
        )
        assert (tmp_path / "conf" / "mfcc.conf").read_bytes() == (
            b"--use-energy=false\n--sample-frequency=16000\n"
        )

        assert main(["kaldi-prep", "validate", str(out)]) == 0

        (out / "utt2spk").write_text("u1 s1\n")  # break it
        assert main(["kaldi-prep", "validate", str(out)]) == 1
        fixed = tmp_path / "fixed"
        assert main(
            ["kaldi-prep", "fix", str(out), "--out", str(fixed)]
        ) == 0
        assert main(["kaldi-prep", "validate", str(fixed)]) == 0

        (out / "utt2spk").unlink()
        report = tmp_path / "r.tsv"
        assert main(
            ["kaldi-prep", "fix", str(out), "--out", str(tmp_path / "fixed2"),
             "--report", str(report)]
        ) == 0
        assert report.read_text() == (
            f"INFO\t{out}\tfix\tutt2spk: missing or empty; rebuilt from spk2utt\n"
        )
        assert (tmp_path / "fixed2" / "utt2spk").read_text() == "u1 s1\nu2 s1\n"

    @pytest.mark.parametrize("code", [errno.ENOENT, errno.ENOTDIR], ids=["missing", "file"])
    def test_a_path_that_is_not_a_directory_is_an_error(self, tmp_path, capsys, code):
        # read as a directory of empty files, it passed validate with exit 0
        data = tmp_path / "in" / "data"
        data.parent.mkdir()
        if code == errno.ENOTDIR:
            data.write_text("u1 SAY PAT\n")
        message = str(OSError(code, os.strerror(code), str(data)))
        report, out = tmp_path / "r.tsv", tmp_path / "out"
        assert main(["kaldi-prep", "validate", str(data), "--report", str(report)]) == 1
        assert report.read_text() == f"ERROR\t{data}\t\t{message}\n"
        capsys.readouterr()
        assert main(["kaldi-prep", "fix", str(data), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"corpusphon: {message}\n"
        assert not out.exists()

    def non_finite_segment_dir(self, tmp_path):
        data = tmp_path / "in"
        data.mkdir()
        (data / "text").write_text("u0 HI\nu1 SAY PAT\n")
        (data / "segments").write_text("u0 f1 0.0 1.0\nu1 f1 nan 2.0\n")
        (data / "wav.scp").write_text("f1 p/f1.wav\n")
        (data / "utt2spk").write_text("u0 s1\nu1 s1\n")
        (data / "spk2utt").write_text("s1 u0 u1\n")
        return data

    def test_validate_reports_a_non_finite_segment_time(self, tmp_path):
        data = self.non_finite_segment_dir(tmp_path)
        report = tmp_path / "r.tsv"
        assert main(["kaldi-prep", "validate", str(data), "--report", str(report)]) == 1
        assert report.read_text() == f"ERROR\t{data}\t\tsegments line 2: non-finite time\n"

    def test_fix_refuses_a_non_finite_segment_time(self, tmp_path):
        # the directory fails with the line named; it is not repaired by dropping the line
        data = self.non_finite_segment_dir(tmp_path)
        report, out = tmp_path / "r.tsv", tmp_path / "out"
        argv = ["kaldi-prep", "fix", str(data), "--out", str(out), "--report", str(report)]
        assert main(argv) == 1
        assert report.read_text() == f"ERROR\t{data}\t\tsegments line 2: non-finite time\n"
        assert not out.exists()

    @pytest.mark.parametrize("start, end", [("0.0", "inf"), ("nan", "1.5"), ("-inf", "1.5")])
    def test_build_refuses_a_non_finite_time(self, tmp_path, capsys, start, end):
        records = tmp_path / "in" / "records.tsv"
        records.parent.mkdir()
        records.write_text(
            "u0\tf1\t0.0\t0.5\ts1\tp/f1.wav\tHI\n"
            f"u1\tf1\t{start}\t{end}\ts1\tp/f1.wav\tSAY PAT\n"
        )
        rc = main(["kaldi-prep", "build", "--records", str(records),
                   "--out", str(tmp_path / "data")])
        assert rc == 2
        assert f"{records} line 2: non-finite time" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in"]

    def test_undecodable_file_is_an_error_naming_it(self, tmp_path, capsys):
        data = tmp_path / "in"
        data.mkdir()
        (data / "text").write_text("u1 SAY PAT\n")
        (data / "utt2spk").write_bytes("u1 s\xe9\n".encode("latin-1"))
        out = tmp_path / "out"
        message = (f"{data / 'utt2spk'}: 'utf-8' codec can't decode byte 0xe9 in position 4: "
                   "invalid continuation byte")
        assert main(["kaldi-prep", "fix", str(data), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"{data}: ERROR: {message}\n"
        assert not out.exists()
        report = tmp_path / "r.tsv"
        assert main(["kaldi-prep", "validate", str(data), "--report", str(report)]) == 1
        assert report.read_text() == f"ERROR\t{data}\t\t{message}\n"


class TestLexiconCli:
    def test_filter_and_missing(self, tmp_path):
        transcript = tmp_path / "tr" / "t.txt"
        transcript.parent.mkdir()
        transcript.write_text("say a zzz again.\n")
        out = tmp_path / "out" / "lexicon.txt"
        rc = main(
            [
                "lexicon", "filter",
                "--lexicon", str(FIXTURES / "lexicon.txt"),
                "--transcripts", str(transcript),
                "--out", str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "<oov> oov"
        assert "SAY S EY1" in lines and "AGAIN AH0 G EH1 N" in lines

        missing_out = tmp_path / "out" / "missing.txt"
        rc = main(
            [
                "lexicon", "missing",
                "--lexicon", str(FIXTURES / "lexicon.txt"),
                "--transcripts", str(transcript),
                "--out", str(missing_out),
            ]
        )
        assert rc == 0
        assert missing_out.read_text() == "A\nZZZ\n"

    @pytest.mark.parametrize("command", ["filter", "missing"])
    @pytest.mark.parametrize(
        "source",
        [["--transcripts", "{t}/*.lab", "{t}/nomatch/*.lab"], ["--kaldi-text", "{t}/text"]],
        ids=["transcripts", "kaldi-text"],
    )
    def test_words_with_another_vocabulary_source_is_a_usage_error(
        self, tmp_path, capsys, command, source
    ):
        t = tmp_path / "t"
        t.mkdir()
        (t / "a.lab").write_text("ZZZ\n")
        shutil.copy(FIXTURES / "text", t / "text")
        words = tmp_path / "in" / "words.txt"
        words.parent.mkdir()
        words.write_text("PAT\n")
        out = tmp_path / "out" / "x.txt"
        rc = main(
            ["lexicon", command, "--lexicon", str(FIXTURES / "lexicon.txt"),
             "--words", str(words), *(a.format(t=t) for a in source), "--out", str(out)]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "--words" in err and source[0] in err
        assert not out.parent.exists()

    @pytest.mark.parametrize(
        "option, config, named",
        [
            (["--oov-word", "<unk x>"], "", "--oov-word"),
            (["--oov-phone", ""], "", "--oov-phone"),
            (["--oov-word", "u\u00a0nk"], "", "--oov-word"),
            ([], "oov_word = <unk x>", "oov_word"),
            ([], "oov_phone = o o", "oov_phone"),
            ([], "oov_word =", "oov_word"),
        ],
    )
    def test_filter_refuses_an_oov_value_that_is_not_one_token(
        self, tmp_path, capsys, option, config, named
    ):
        # the OOV entry is one line of the written lexicon, word then phone
        words = tmp_path / "in" / "words.txt"
        words.parent.mkdir()
        words.write_text("PAT\n")
        cfg = tmp_path / "in" / "lex.conf"
        cfg.write_text(config + "\n")
        out = tmp_path / "out" / "lexicon.txt"
        rc = main(["lexicon", "filter", "--lexicon", str(FIXTURES / "lexicon.txt"),
                   "--words", str(words), "--out", str(out), "--config", str(cfg), *option])
        assert rc == 2
        err = capsys.readouterr().err
        assert named in err and "one whitespace-free token" in err
        assert not out.parent.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["lexicon", "filter", "--lexicon", str(FIXTURES / "lexicon.txt"), "--out", "{out}"],
            ["lexicon", "missing", "--lexicon", str(FIXTURES / "lexicon.txt"), "--out", "{out}"],
            ["vot", "locate", str(FIXTURES / "golden" / "f1.TextGrid"), "--out", "{out}"],
        ],
        ids=["filter", "missing", "locate"],
    )
    def test_a_word_list_line_of_two_words_names_its_file_and_line(
        self, tmp_path, capsys, argv
    ):
        # a line of two words is two words to --transcripts, never one word
        words = tmp_path / "in" / "words.txt"
        words.parent.mkdir()
        words.write_text("KLATT\nSAY PAT\n")
        out = tmp_path / "out" / "x.txt"
        rc = main([a.format(out=out) for a in argv] + ["--words", str(words)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"corpusphon: {words} line 2: expected one word, got 2 fields\n"
        )
        assert not out.parent.exists()

    def test_duplicate_entry_is_a_finding(self, tmp_path, capsys):
        lex = tmp_path / "in" / "lex.txt"
        lex.parent.mkdir()
        lex.write_text("PAT P AE1 T\nPAT  P AE1 T\n")
        words = tmp_path / "in" / "words.txt"
        words.write_text("PAT\n")
        report = tmp_path / "r.tsv"
        rc = main(
            [
                "lexicon", "missing", "--lexicon", str(lex),
                "--words", str(words), "--report", str(report),
            ]
        )
        assert rc == 0
        assert report.read_text().splitlines() == [
            f"WARNING\t{lex}\t\tline 2: duplicate entry for 'PAT' collapsed"
        ]
        assert "DuplicateEntryWarning" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["missing", "filter"])
    def test_a_lexicon_with_a_byte_order_mark_is_an_error_at_line_1(self, tmp_path, command):
        # read as part of the first word, the mark made PAT missing, with exit 0
        lex = tmp_path / "in" / "lex.txt"
        lex.parent.mkdir()
        lex.write_bytes(b"\xef\xbb\xbfPAT  P AE1 T\nSAY  S EY1\n")
        words = tmp_path / "in" / "words.txt"
        words.write_text("PAT\nSAY\n")
        report, out = tmp_path / "r.tsv", tmp_path / "out" / "x.txt"
        rc = main(["lexicon", command, "--lexicon", str(lex), "--words", str(words),
                   "--out", str(out), "--report", str(report)])
        assert rc == 1
        assert report.read_text() == (
            f"ERROR\t{lex}\t\tline 1: starts with a byte order mark (U+FEFF); "
            "save the file as UTF-8 without one\n"
        )
        assert not out.parent.exists()

    @pytest.mark.parametrize("command", ["missing", "filter"])
    def test_a_transcript_with_a_byte_order_mark_is_refused_at_line_1(
        self, tmp_path, capsys, command
    ):
        # read as part of the first word, the mark made PAT missing, with exit 0
        lex = tmp_path / "in" / "lex.txt"
        lex.parent.mkdir()
        lex.write_text("PAT  P AE1 T\nSAY  S EY1\n")
        t = tmp_path / "in" / "t.txt"
        t.write_bytes(b"\xef\xbb\xbfpat say")
        out = tmp_path / "out" / "x.txt"
        rc = main(["lexicon", command, "--lexicon", str(lex), "--transcripts", str(t),
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"corpusphon: {t} line 1: starts with a byte order mark (U+FEFF); "
            "save the file as UTF-8 without one\n"
        )
        assert not out.parent.exists()

    def test_a_lone_cr_stays_in_its_lexicon_line(self, tmp_path):
        # a file with a '\n' breaks lines only there, as parse_lexicon and Kaldi count them
        lex = tmp_path / "in" / "lex.txt"
        lex.parent.mkdir()
        lex.write_bytes(b"A  AH0\rB  B IY1\nX\n")
        words = tmp_path / "in" / "words.txt"
        words.write_text("A\n")
        report = tmp_path / "r.tsv"
        rc = main(["lexicon", "missing", "--lexicon", str(lex), "--words", str(words),
                   "--report", str(report)])
        assert rc == 1
        assert report.read_text() == f"ERROR\t{lex}\t\tline 2: word 'X' has no phones\n"

    def test_phones(self, tmp_path):
        out = tmp_path / "lang"
        rc = main(
            [
                "lexicon", "phones",
                "--lexicon", str(FIXTURES / "lexicon.txt"),
                "--out-dir", str(out),
            ]
        )
        assert rc == 0
        assert (out / "silence_phones.txt").read_text() == "SIL\noov\n"
        assert (out / "optional_silence.txt").read_text() == "SIL\n"
        groups = (out / "nonsilence_phones.txt").read_text().splitlines()
        assert "AA1" in groups  # only stress 1 present in the fixture
        assert "oov" not in "".join(groups)


class TestAudioCli:
    def test_info_and_mono(self, tmp_path, capsys):
        src = tmp_path / "in"
        src.mkdir()
        write_wav(src / "stereo.wav", seconds=1.0, channels=2)
        rc = main(["audio", "info", str(src / "stereo.wav")])
        assert rc == 0
        assert "2 ch" in capsys.readouterr().out

        out = tmp_path / "mono"
        rc = main(
            [
                "audio", "mono", str(src / "stereo.wav"),
                "--channel", "2", "--out-dir", str(out),
            ]
        )
        assert rc == 0
        info = audio.parse_wav_header(
            (out / "stereo_mono.wav").read_bytes()
        )
        assert info.channels == 1

    @staticmethod
    def odd_width_wav(path, channels, bits, data):
        """A PCM WAV whose samples are not a whole number of bytes wide."""
        align = channels * ((bits + 7) // 8)
        path.write_bytes(struct.pack(
            "<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(data), b"WAVE", b"fmt ", 16, 1,
            channels, 16000, 16000 * align, align, bits, b"data", len(data),
        ) + data)

    @pytest.mark.parametrize(
        "channels, bits, data_bytes, seconds",
        [(1, 4, 800, "0.05"), (2, 12, 1000, "0.015625")],
    )
    def test_info_rounds_a_sample_up_to_whole_bytes(
        self, tmp_path, capsys, channels, bits, data_bytes, seconds
    ):
        wav = tmp_path / "in" / "odd.wav"
        wav.parent.mkdir()
        self.odd_width_wav(wav, channels, bits, bytes(data_bytes))
        assert main(["audio", "info", str(wav)]) == 0
        assert capsys.readouterr().out == (
            f"{wav}: 16000 Hz, {channels} ch, {bits}-bit PCM, {seconds} s\n"
        )

    def test_mono_of_12_bit_stereo_takes_2_byte_samples(self, tmp_path):
        wav, out = tmp_path / "in" / "s12.wav", tmp_path / "out"
        wav.parent.mkdir()
        data = bytes(range(250)) * 4
        self.odd_width_wav(wav, 2, 12, data)
        argv = ["audio", "mono", str(wav), "--channel", "2", "--out-dir", str(out)]
        assert main(argv) == 0
        mono = (out / "s12_mono.wav").read_bytes()
        right = b"".join(data[i + 2 : i + 4] for i in range(0, len(data), 4))
        assert mono[44:] == right
        rate, byte_rate, align, bits = struct.unpack_from("<IIHH", mono, 24)
        assert (rate, byte_rate, align, bits) == (16000, 32000, 2, 12)
        assert audio.parse_wav_header(mono).duration == 250 / 16000

    def test_mono_whose_byte_rate_overflows_costs_only_its_file(self, tmp_path):
        src, out, report = tmp_path / "in", tmp_path / "out", tmp_path / "r.tsv"
        src.mkdir()
        wav = src / "fast.wav"
        wav.write_bytes(struct.pack(  # 2^32 - 1 Hz: 2-byte mono frames need 2^33 B/s
            "<4sI4s4sIHHIIHH4sI", b"RIFF", 40, b"WAVE", b"fmt ", 16, 1,
            2, 0xFFFFFFFF, 0, 4, 16, b"data", 4,
        ) + bytes(4))
        write_wav(src / "ok.wav", seconds=0.01, channels=2)
        argv = ["audio", "mono", str(wav), str(src / "ok.wav"), "--channel", "1",
                "--out-dir", str(out), "--report", str(report)]
        assert main(argv) == 1
        assert report.read_text() == (
            f"ERROR\t{wav}\t\t4294967295 Hz with 2-byte frames overflows "
            "the 32-bit byte rate of a WAV header\n"
        )
        assert sorted(p.name for p in out.iterdir()) == ["ok_mono.wav"]

    @pytest.mark.parametrize("k", [1, 2, 3, 4])  # 4: the --report file
    def test_failed_write_leaves_no_partial_file(self, tmp_path, monkeypatch, capsys, k):
        src, out, report = tmp_path / "in", tmp_path / "out", tmp_path / "rep" / "r.tsv"
        src.mkdir()
        for i in range(3):
            write_wav(src / f"w{i}.wav", seconds=0.5, channels=2)
        argv = ["audio", "mono", *(str(src / f"w{i}.wav") for i in range(3)),
                "--channel", "1", "--out-dir", str(out), "--report", str(report)]
        real_open, calls = Path.open, []

        class FailingWrite:  # a temp file, written whole or in chunks
            def __init__(self, path):
                self.f = real_open(path, "wb")

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                calls.append(data)
                if len(calls) == k:  # a disk that fills up halfway through
                    self.f.write(data[: len(data) // 2])
                    raise OSError(28, "No space left on device")
                return self.f.write(data)

            def writelines(self, chunks):
                self.write(b"".join(chunks))

        def open_(path, mode="r", *args, **kwargs):
            if mode == "wb":
                return FailingWrite(path)
            return real_open(path, mode, *args, **kwargs)

        monkeypatch.setattr(Path, "open", open_)
        assert main(argv) == 2
        assert "No space left on device" in capsys.readouterr().err
        mono = audio.extract_channel((src / "w0.wav").read_bytes(), 1)
        written = [f"w{i}_mono.wav" for i in range(min(k - 1, 3))]
        assert sorted(p.name for p in out.iterdir()) == written
        assert all((out / name).read_bytes() == mono for name in written)
        assert not report.parent.exists() or list(report.parent.iterdir()) == []

    @staticmethod
    def probe_sample_reads(monkeypatch, stem, after_header):
        """Wrap the open file of stem once read_channel has checked its header.

        Each later read of that file appends its size to the returned list and
        then calls after_header(path, that list), which may fail the read.
        """
        real, sample_reads = audio.read_channel, []

        class Probed:
            def __init__(self, f):
                self.f, self.checked = f, False

            def seek(self, *args):
                return self.f.seek(*args)

            def read(self, n=-1):
                if self.checked:
                    sample_reads.append(n)
                    after_header(Path(self.f.name), sample_reads)
                return self.f.read(n)

        def read_channel(f, channel):
            if Path(getattr(f, "name", "")).stem != stem:
                return real(f, channel)
            probed = Probed(f)
            chunks = real(probed, channel)
            probed.checked = True
            return chunks

        monkeypatch.setattr(audio, "read_channel", read_channel)
        return sample_reads

    @pytest.mark.parametrize("failure", ["read error", "file shrinks"])
    def test_failed_read_mid_stream_costs_only_its_file(self, tmp_path, monkeypatch, capsys, failure):
        src, out = tmp_path / "in", tmp_path / "out"
        src.mkdir()
        for i in range(3):
            write_wav(src / f"w{i}.wav", seconds=0.5, channels=2)

        def fail_third_block(path, reads):
            if len(reads) == 3:
                if failure == "read error":
                    raise OSError(5, "Input/output error")
                os.truncate(path, 44 + 8000)

        monkeypatch.setattr(audio, "BLOCK_BYTES", 4000)
        self.probe_sample_reads(monkeypatch, "w1", fail_third_block)
        argv = ["audio", "mono", *(str(src / f"w{i}.wav") for i in range(3)),
                "--channel", "2", "--out-dir", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        message = "Input/output error" if failure == "read error" else "bytes short of its header"
        assert len(err) == 1 and err[0].startswith(f"{src / 'w1.wav'}: ERROR: ")
        assert message in err[0]
        assert sorted(p.name for p in out.iterdir()) == ["w0_mono.wav", "w2_mono.wav"]
        mono = audio.extract_channel((src / "w0.wav").read_bytes(), 2)
        assert (out / "w2_mono.wav").read_bytes() == mono

    def test_dry_run_reads_no_sample_block(self, tmp_path, monkeypatch, capsys):
        src, out = tmp_path / "in", tmp_path / "out"
        src.mkdir()
        write_wav(src / "w.wav", seconds=2.0, channels=2)
        sample_reads = self.probe_sample_reads(monkeypatch, "w", lambda path, reads: None)
        argv = ["audio", "mono", str(src / "w.wav"), "--channel", "1",
                "--out-dir", str(out), "--dry-run"]
        assert main(argv) == 0
        assert capsys.readouterr().out == f"dry-run: would write {out / 'w_mono.wav'}\n"
        assert sample_reads == [] and not out.exists()
        assert main(argv[:-1]) == 0
        assert len(sample_reads) == 1  # the probe sees the reads of a real run

    def test_peak_memory_is_one_block_not_the_file(self, tmp_path):
        # a 48 kHz stereo WAV of 24 s (4.6 MB) and of 48 s: whole-file
        # extraction peaks at about 3.5 times the input, 16 and 32 MB; a
        # block of 1 MiB would peak near 2.5 MB
        peaks = []
        for seconds in (0, 24, 48):  # the first call warms up the CLI
            src = tmp_path / f"in{seconds}"
            src.mkdir()
            frames = (b"\x01\x02\x03\x04" * 48000) * seconds
            (src / "long.wav").write_bytes(audio.build_wav(frames, 48000, 2, 16))
            argv = ["audio", "mono", str(src / "long.wav"), "--channel", "2",
                    "--out-dir", str(tmp_path / f"out{seconds}")]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            mono = (tmp_path / f"out{seconds}" / "long_mono.wav").read_bytes()
            assert mono[44:] == b"\x03\x04" * 48000 * seconds
        assert peaks[1] < 4_000_000, f"{peaks[1] / 1e6:.2f} MB"
        assert peaks[2] < peaks[1] + 200_000, f"{peaks[1] / 1e6:.2f} -> {peaks[2] / 1e6:.2f} MB"


class TestFaveCli:
    def test_check(self, tmp_path):
        t = tmp_path / "t.txt"
        t.write_text("S1\tSpeaker One\t0.0\t3.44\tSAY TUTT AGAIN\n")
        assert main(["fave", "check", str(t)]) == 0
        t.write_text("S1\tSpeaker One\t5.0\t4.0\tBACKWARDS\n")
        assert main(["fave", "check", str(t)]) == 1


    @pytest.mark.parametrize("onset", ["nan", "inf", "-inf"])
    def test_check_reports_a_non_finite_onset(self, tmp_path, onset):
        t = tmp_path / "in" / "t.txt"
        t.parent.mkdir()
        t.write_text(f"S1\tSpeaker One\t0.0\t1.0\tHI\nS1\tSpeaker One\t{onset}\t3.4\tSAY\n")
        report = tmp_path / "r.tsv"
        assert main(["fave", "check", str(t), "--report", str(report)]) == 1
        assert report.read_text() == f"ERROR\t{t}\t\tline 2: non-finite time\n"


class TestVotPostProcessing:
    def decoded_grid_path(self, tmp_path):
        """A grid imitating decoded output: base tiers + six stop tiers."""
        from corpusphon.vot import split_windows_by_stop
        from test_vot import measurement_fixture_grid

        base = measurement_fixture_grid()
        split = split_windows_by_stop(base.find_tier("vot")[0])
        tiers = base.tiers[:2] + tuple(split[l] for l in "PTKBDG")
        grid = TextGrid(base.xmin, base.xmax, tiers)
        src = tmp_path / "in"
        src.mkdir(exist_ok=True)
        path = src / "s01.TextGrid"
        path.write_bytes(write_textgrid(grid))
        return path

    def test_merge_six_tiers(self, tmp_path):
        path = self.decoded_grid_path(tmp_path)
        out = tmp_path / "merged"
        rc = main(
            [
                "vot", "merge", str(path),
                "--tiers", "3,4,5,6,7,8",
                "--name", "vot",
                "--out-dir", str(out),
            ]
        )
        assert rc == 0
        grid = parse_textgrid((out / "s01_stops.TextGrid").read_bytes())
        tier, _ = grid.find_tier("vot")
        assert [iv.text for iv in tier.non_empty()] == ["P", "D", "T"]

    def test_measure_table(self, tmp_path):
        path = self.decoded_grid_path(tmp_path)
        merged = tmp_path / "merged"
        main(
            [
                "vot", "merge", str(path),
                "--tiers", "3,4,5,6,7,8",
                "--name", "vot",
                "--out-dir", str(merged),
            ]
        )
        table_path = tmp_path / "vots.tsv"
        rc = main(
            [
                "vot", "measure", str(merged / "s01_stops.TextGrid"),
                "--out", str(table_path),
            ]
        )
        assert rc == 0
        lines = table_path.read_text().splitlines()
        assert lines[0].startswith("file_id\tword\tstop")
        assert len(lines) == 4
        assert lines[1].split("\t")[1] == "PAT"

    def test_measure_table_has_one_header_and_none_when_nothing_measured(self, tmp_path, capsys):
        from test_vot import measurement_fixture_grid

        src = tmp_path / "in"
        src.mkdir()
        for stem in ("a", "b"):
            (src / f"{stem}.TextGrid").write_bytes(write_textgrid(measurement_fixture_grid()))
        assert main(["vot", "measure", str(src / "a.TextGrid"), str(src / "b.TextGrid")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split("\t")[0] for line in lines] == ["file_id"] + ["a"] * 3 + ["b"] * 3

        table = tmp_path / "out" / "m.tsv"
        argv = ["vot", "measure", str(src / "a.TextGrid"), "--vot-tier", "none"]
        assert main(argv + ["--out", str(table)]) == 1
        assert table.read_bytes() == b""
        assert main(argv) == 1
        assert capsys.readouterr().out == ""

    def test_prefer_manual_and_compare(self, tmp_path):
        from corpusphon.textgrid import IntervalTier as Tier

        src = tmp_path / "in"
        src.mkdir()
        manual = Tier(
            "manual", 0.0, 5.0, (Interval(1.000, 1.060, "P"),)
        ).normalized()
        auto = Tier(
            "auto", 0.0, 5.0, (Interval(1.004, 1.061, "P"),)
        ).normalized()
        path = src / "s01_stacked.TextGrid"
        path.write_bytes(
            write_textgrid(TextGrid(0.0, 5.0, (manual, auto)))
        )

        cmp_out = tmp_path / "deltas.tsv"
        rc = main(
            [
                "vot", "compare", str(path),
                "--manual-tier", "manual",
                "--auto-tier", "auto",
                "--out", str(cmp_out),
            ]
        )
        assert rc == 0
        row = cmp_out.read_text().splitlines()[1].split("\t")
        assert row[4] == "0.004"

        out = tmp_path / "final"
        rc = main(
            [
                "vot", "prefer-manual", str(path),
                "--manual-tier", "manual",
                "--auto-tier", "auto",
                "--out-dir", str(out),
            ]
        )
        assert rc == 0
        grid = parse_textgrid(
            (out / "s01_stacked2.TextGrid").read_bytes()
        )
        (token,) = grid.find_tier("auto")[0].non_empty()
        assert token.xmin == 1.0 and token.xmax == 1.06

    def test_lists_and_decode_commands(self, tmp_path, capsys):
        wavs = tmp_path / "wavs"
        tgs = tmp_path / "tgs"
        wavs.mkdir()
        tgs.mkdir()
        write_wav(wavs / "s01.wav", seconds=1.0)
        shutil.copy(FIXTURES / "golden" / "f1.TextGrid", tgs / "s01.TextGrid")
        out = tmp_path / "config"
        rc = main(
            [
                "vot", "lists",
                "--wav-dir", str(wavs),
                "--textgrid-dir", str(tgs),
                "--out-dir", str(out),
            ]
        )
        assert rc == 0
        wav_list = (out / "ListWavFiles.txt").read_text()
        assert wav_list.strip().endswith("s01.wav")
        assert wav_list.startswith("/")
        commands = capsys.readouterr().out
        assert "--window_mark P --min_vot_length 15" in commands
        assert "--window_mark B --min_vot_length 4" in commands
        assert commands.count("auto_vot_decode.py") == 6

    def test_lists_commands_split_in_a_shell_with_one_word_per_path(self, tmp_path, capsys):
        wavs, tgs, out = tmp_path / "wavs", tmp_path / "tgs", tmp_path / "cfg dir"
        wavs.mkdir()
        tgs.mkdir()
        write_wav(wavs / "s01.wav", seconds=1.0)
        shutil.copy(FIXTURES / "golden" / "f1.TextGrid", tgs / "s01.TextGrid")
        model = tmp_path / "my model.classifier"
        assert main(["vot", "lists", "--wav-dir", str(wavs), "--textgrid-dir", str(tgs),
                     "--out-dir", str(out), "--classifier", str(model)]) == 0
        commands = capsys.readouterr().out.splitlines()
        assert len(commands) == 6
        for command in commands:
            assert shlex.split(command)[-3:] == [
                str(out / "ListWavFiles.txt"), str(out / "ListTextGrids.txt"), str(model),
            ]

    def test_lists_pair_each_grid_with_its_wav(self, tmp_path, capsys):
        # byte order sorts a.wav before a0.wav but a0_allauto before a_allauto
        wavs, tgs, out = tmp_path / "wavs", tmp_path / "tgs", tmp_path / "config"
        wavs.mkdir()
        tgs.mkdir()
        for stem in ("a", "a0", "b"):
            write_wav(wavs / f"{stem}.wav", seconds=1.0)
        for stem in ("a", "a0", "c"):
            shutil.copy(FIXTURES / "golden" / "f1.TextGrid", tgs / f"{stem}_allauto.TextGrid")
        report = tmp_path / "report.tsv"
        rc = main(["vot", "lists", "--wav-dir", str(wavs), "--textgrid-dir", str(tgs),
                   "--out-dir", str(out), "--report", str(report)])
        assert rc == 0
        wav_list = (out / "ListWavFiles.txt").read_text().splitlines()
        tg_list = (out / "ListTextGrids.txt").read_text().splitlines()
        assert [Path(p).name for p in tg_list] == ["a0_allauto.TextGrid", "a_allauto.TextGrid"]
        assert [Path(p).name for p in wav_list] == ["a0.wav", "a.wav"]
        findings = [line.split("\t") for line in report.read_text().splitlines()]
        assert [(sev, Path(file).name) for sev, file, *_ in findings] == [
            ("WARNING", "c_allauto.TextGrid"), ("WARNING", "b.wav"),
        ]


    def test_lists_name_the_window_tier_vot_windows_wrote(self, tmp_path, capsys):
        # one vot_tier config value names the tier vot windows writes and vot lists decodes
        src, wavs, out = tmp_path / "in", tmp_path / "wavs", tmp_path / "windows"
        src.mkdir()
        wavs.mkdir()
        shutil.copy(FIXTURES / "golden" / "f1.TextGrid", src / "f1.TextGrid")
        write_wav(wavs / "f1.wav", seconds=1.0)
        (src / "loc.txt").write_text("f1\tPAT\t3.48\t3.95\tP\t3.55\n")
        config = src / "vot.conf"
        config.write_text("vot_tier = windows\n")
        assert main(["vot", "windows", str(src / "f1.TextGrid"), "--locations",
                     str(src / "loc.txt"), "--out-dir", str(out), "--config", str(config)]) == 0
        capsys.readouterr()
        assert main(["vot", "lists", "--wav-dir", str(wavs), "--textgrid-dir", str(out),
                     "--out-dir", str(tmp_path / "config"), "--config", str(config)]) == 0
        commands = capsys.readouterr().out.splitlines()
        assert len(commands) == 6
        tiers = {t.name for t in parse_textgrid((out / "f1_allauto.TextGrid").read_bytes()).tiers}
        assert "windows" in tiers
        assert all(c.split("--window_tier ")[1].startswith("windows ") for c in commands)


class TestKaldiTextWordSource:
    def test_first_column_dropped(self, tmp_path):
        out = tmp_path / "missing.txt"
        rc = main(
            [
                "lexicon", "missing",
                "--lexicon", str(FIXTURES / "lexicon.txt"),
                "--kaldi-text", str(FIXTURES / "text"),
                "--out", str(out),
            ]
        )
        assert rc == 0
        # every word in the fixture corpus is covered; the utterance IDs
        # must not leak in as words
        assert out.read_text() == ""


class TestCollectorPause:
    """main pauses the cyclic collector for a command and restores its state."""

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def gc_state(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    @pytest.fixture
    def grid(self, tmp_path):
        """A conforming grid+WAV pair g, beside a pair z with a boundary at zero."""
        src = tmp_path / "in"
        src.mkdir()
        write_grid(src / "g.TextGrid", [Interval(1.0, 2.0, "X")])
        write_grid(src / "z.TextGrid", [Interval(0.0, 9.5, "X")])
        write_wav(src / "z.wav")
        return src / "g.TextGrid"

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["tg", "diagnose", "{grid}"], 0),
            (["validate-mfa", "--textgrid", "{z}.TextGrid", "--wav", "{z}.wav"], 1),
            (["tg", "stack", "{grid}", "--out", "{z}.out.TextGrid"], 2),
            (["--help"], 0),
            (["tg", "no-such-command"], 2),
        ],
        ids=["exit-0", "exit-1", "exit-2", "help", "bad-arguments"],
    )
    def test_state_restored(self, gc_state, grid, capsys, monkeypatch, argv, code):
        seen = []
        load_config = cli.load_config

        def spy(path):
            seen.append(gc.isenabled())
            return load_config(path)

        monkeypatch.setattr(cli, "load_config", spy)
        z = grid.with_name("z")
        assert main([a.format(grid=grid, z=z) for a in argv]) == code
        assert gc.isenabled() is gc_state
        assert seen in ([], [False])

    def test_state_restored_after_an_escaping_exception(self, gc_state, grid, monkeypatch):
        def boom(path):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "read_grid", boom)
        with pytest.raises(RuntimeError, match="boom"):
            main(["tg", "diagnose", str(grid)])
        assert gc.isenabled() is gc_state

    @staticmethod
    def garbage_after(argv):
        """Unreachable objects the collector finds after main(argv), all with it off."""
        was = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            main(argv)
            return gc.collect()
        finally:
            if was:
                gc.enable()

    def test_diagnose_leaves_no_garbage_per_file(self, tmp_path, capsys):
        # the premise of the pause: the garbage a command leaves does not
        # grow with its files, failed ones included
        src = tmp_path / "in"
        src.mkdir()
        grids = []
        for i in range(20):
            grids.append(src / f"g{i:02}.TextGrid")
            write_grid(grids[-1], [Interval(1.0, 2.0, "X"), Interval(3.0, 4.0, "Y")])
        grids[7].write_bytes(b"not a textgrid")
        one = ["tg", "diagnose", str(grids[0])]
        self.garbage_after(one)
        assert self.garbage_after(["tg", "diagnose", *map(str, grids)]) == self.garbage_after(one)

    def test_ctm2tg_leaves_no_garbage_per_file(self, tmp_path, capsys):
        def corpus(name, copies):
            """The fixture corpus, copy k with file IDs f1_k and f2_k; copy 1 breaks f1_1."""
            src = tmp_path / name
            src.mkdir()
            for fixture in ("merged_alignment.ctm", "segments", "text"):
                lines = []
                for k in range(copies):
                    for line in (FIXTURES / fixture).read_text().splitlines():
                        head, rest = line.split(" ", 1)
                        if fixture == "segments":
                            rest = rest.replace(" ", f"_{k} ", 1)
                        if fixture == "text" and k == 1 and head == "s1_001":
                            rest = rest.replace("SAY", "WRONGWORD")
                        if copies > 1 or head.startswith("s1_"):
                            lines.append(f"k{k}_{head} {rest}")
                (src / fixture).write_text("\n".join(lines) + "\n")
            return [
                "ctm2tg",
                "--ctm", str(src / "merged_alignment.ctm"),
                "--segments", str(src / "segments"),
                "--phones", str(FIXTURES / "phones.txt"),
                "--lexicon", str(FIXTURES / "lexicon.txt"),
                "--text", str(src / "text"),
                "--out", str(tmp_path / f"{name}_out"),
            ]

        one, many = corpus("one", 1), corpus("many", 10)
        self.garbage_after(one)
        assert self.garbage_after(many) == self.garbage_after(one)
        assert len(list((tmp_path / "many_out").glob("*.TextGrid"))) == 19
        assert len(list((tmp_path / "one_out").glob("*.TextGrid"))) == 1


class TestModuleEntry:
    def test_python_dash_m_help(self):
        src = Path(__file__).resolve().parent.parent / "src"
        result = subprocess.run(
            [sys.executable, "-m", "corpusphon", "--help"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert "ctm2tg" in result.stdout

    # `... | head -1`: the reader has closed the pipe before the command prints, so
    # a print (unbuffered) or the last flush (buffered) fails
    CLOSED_PIPE_CASES = [
        (["vot", "lists", "--wav-dir", "{tmp}/wav", "--textgrid-dir", "{tmp}/tg", "--out-dir",
          "{tmp}/out"], []),
        # prints inside a batch; the bad file's ERROR comes before the first print
        (["audio", "info", "{tmp}/bad/x.wav", "{tmp}/wav/a.wav", "{tmp}/wav/b.wav"],
         ["{tmp}/bad/x.wav"]),
    ]

    def run_into_a_closed_pipe(self, tmp_path, argv, unbuffered, stderr_too, report="r.tsv"):
        """The command's exit code, its stderr (None when closed) and its --report rows (None
        when not written); report is the --report path under tmp_path."""
        for d in ("tg", "wav", "bad"):
            (tmp_path / d).mkdir()
        for stem in ("a", "b"):
            (tmp_path / "tg" / f"{stem}.TextGrid").touch()
            write_wav(tmp_path / "wav" / f"{stem}.wav", seconds=0.1)
        (tmp_path / "bad" / "x.wav").write_bytes(b"not a wav")
        (tmp_path / "bad" / "x.TextGrid").write_text("not a grid\n")
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONUNBUFFERED": "1"}
        if not unbuffered:
            del env["PYTHONUNBUFFERED"]
        report = tmp_path / report
        read, write = os.pipe()
        os.close(read)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "corpusphon", *(a.format(tmp=tmp_path) for a in argv),
                 "--report", str(report)],
                stdout=write, stderr=write if stderr_too else subprocess.PIPE, text=True,
                env=env, timeout=60,
            )
        finally:
            os.close(write)
        if not report.exists():
            return result.returncode, result.stderr, None
        rows = [line.split("\t") for line in report.read_text().splitlines()]
        return result.returncode, result.stderr, rows

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("argv, bad", CLOSED_PIPE_CASES, ids=["vot-lists", "audio-info"])
    def test_a_closed_stdout_stops_the_command_with_141(self, tmp_path, argv, bad, unbuffered):
        code, stderr, rows = self.run_into_a_closed_pipe(tmp_path, argv, unbuffered, False)
        assert code == 141
        # the findings so far are still reported, and nothing else is on stderr
        assert [(severity, file) for severity, file, _, _ in rows] == [
            ("ERROR", b.format(tmp=tmp_path)) for b in bad]
        assert stderr == "".join(f"{file}: ERROR: {message}\n" for _, file, _, message in rows)

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("argv, bad", [
        *CLOSED_PIPE_CASES,
        # prints nothing to stdout: the ERROR on stderr is the first print that fails
        (["tg", "diagnose", "{tmp}/bad/x.TextGrid"], ["{tmp}/bad/x.TextGrid"]),
    ], ids=["vot-lists", "audio-info", "tg-diagnose"])
    def test_a_closed_stderr_stops_the_command_with_141_after_the_report(
        self, tmp_path, argv, bad, unbuffered
    ):
        # `... 2>&1 | head -1`: stdout and stderr on one pipe whose reader has gone
        code, _, rows = self.run_into_a_closed_pipe(tmp_path, argv, unbuffered, True)
        assert code == 141
        assert [(severity, file) for severity, file, _, _ in rows] == [
            ("ERROR", b.format(tmp=tmp_path)) for b in bad]

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    def test_a_usage_error_into_a_closed_stderr_still_exits_2(self, tmp_path, unbuffered):
        # a --report inside the input's directory is refused before the command runs;
        # the refusal's own print is the first to fail
        argv = ["tg", "diagnose", "{tmp}/bad/x.TextGrid"]
        code, _, rows = self.run_into_a_closed_pipe(tmp_path, argv, unbuffered, True, "bad/r.tsv")
        assert (code, rows) == (2, None)

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    def test_a_dry_run_report_line_into_a_closed_stdout_stops_with_141(self, tmp_path, unbuffered):
        # the dry run's one stdout line comes after the findings on stderr
        argv = ["tg", "diagnose", "{tmp}/bad/x.TextGrid", "--dry-run"]
        code, stderr, rows = self.run_into_a_closed_pipe(tmp_path, argv, unbuffered, False)
        assert (code, rows) == (141, None)
        assert stderr == (f"{tmp_path}/bad/x.TextGrid: ERROR: missing 'File type = \"ooTextFile\"'"
                          " or 'Object class = \"TextGrid\"' header\n")
