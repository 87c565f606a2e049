import shutil
from pathlib import Path

import pytest

from corpusphon import audio
from corpusphon.cli import main
from corpusphon.textgrid import (
    Interval,
    IntervalTier,
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


class TestConfigValues:
    def run_with(self, tmp_path, line, argv):
        cfg = tmp_path / "bad.conf"
        cfg.write_text(line + "\n")
        return main([*argv, "--config", str(cfg)])

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

    def test_non_numeric_tolerance(self, tmp_path, capsys):
        words = tmp_path / "words.txt"
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
                "--out", str(out / "CVWordLocations.txt"),
            ]
        )
        assert rc == 0
        locations = (out / "CVWordLocations.txt").read_text().splitlines()
        # f1: PAT, DOT; f2: TUTT, PAT, DOT (word tiers carry stop suffixes)
        assert len(locations) == 5

        grids_out = tmp_path / "grids"
        rc = main(
            [
                "vot", "windows",
                str(work / "f1.TextGrid"), str(work / "f2.TextGrid"),
                "--locations", str(out / "CVWordLocations.txt"),
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

    def test_dry_run_writes_nothing(self, tmp_path, capsys):
        a = tmp_path / "in" / "a.TextGrid"
        a.parent.mkdir()
        write_grid(a, [Interval(1.0, 2.0, "X")])
        out = tmp_path / "out" / "stacked.TextGrid"
        rc = main(["tg", "stack", str(a), "--out", str(out), "--dry-run"])
        assert rc == 0
        assert not out.exists()
        assert "would write" in capsys.readouterr().out


class TestKaldiCli:
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


class TestFaveCli:
    def test_check(self, tmp_path):
        t = tmp_path / "t.txt"
        t.write_text("S1\tSpeaker One\t0.0\t3.44\tSAY TUTT AGAIN\n")
        assert main(["fave", "check", str(t)]) == 0
        t.write_text("S1\tSpeaker One\t5.0\t4.0\tBACKWARDS\n")
        assert main(["fave", "check", str(t)]) == 1


class TestVotPostProcessing:
    def decoded_grid_path(self, tmp_path):
        """A grid imitating decoded output: base tiers + six stop tiers."""
        from corpusphon.vot import split_windows_by_stop
        from test_vot import measurement_fixture_grid

        base = measurement_fixture_grid()
        split = split_windows_by_stop(base.get_tier("vot"))
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
        (token,) = grid.get_tier("auto").non_empty()
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
