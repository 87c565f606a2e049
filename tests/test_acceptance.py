"""Acceptance suite: one test per criterion, one PASS line printed each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; any failure shows up as a normal pytest failure.
"""

import random
import shutil
import struct

import pytest

from conftest import (
    FIXTURES,
    corrupt_dir,
    random_consistent_dir,
    random_grid,
    textgrid_equal,
)
from corpusphon import audio, kaldi, lexicon
from corpusphon.cli import main
from corpusphon.ctm import (
    PhoneSymbolTable,
    align_corpus,
    align_file,
    alignment_rows,
    corpus_durations,
    group_words,
    parse_ctm,
    phones_to_tier,
    resolve_phone_ids,
    words_to_tier,
)
from corpusphon.textgrid import (
    Interval,
    IntervalTier,
    TextGrid,
    diagnose_overlaps,
    merge_interval_tiers,
    parse_textgrid,
    stack_tiers,
    write_textgrid,
)
from corpusphon.transcripts import validate_mfa_textgrid
from corpusphon.vot import (
    StopClass,
    WordOccurrence,
    compare_boundaries,
    make_vot_windows,
    measure_cues,
    plan_windows,
    prefer_manual,
    split_windows_by_stop,
)

from test_vot import measurement_fixture_grid, random_manual_auto_grid


def report(n: int, text: str) -> None:
    print(f"PASS  criterion {n:2d}: {text}")


def test_criterion_01_textgrid_round_trip():
    rng = random.Random(101)
    for _ in range(200):
        grid = random_grid(rng, max_tiers=5, max_intervals=50)
        data = write_textgrid(grid)
        back = parse_textgrid(data)
        assert textgrid_equal(grid, back, time_tol=1e-6)
        for tier in back.tiers:
            if isinstance(tier, IntervalTier):
                assert diagnose_overlaps(tier) == []
    report(1, "200 random grids round-trip within 1e-6 s, re-parse overlap-free")


def test_criterion_02_kaldi_data_dir_suite():
    rng = random.Random(202)
    for _ in range(100):
        broken = corrupt_dir(rng, random_consistent_dir(rng))
        expected = (
            {l.utt for l in broken.text}
            & {l.utt for l in broken.segments}
            & {u for u, _ in broken.utt2spk}
        )
        fixed, _ = kaldi.fix_data_dir(broken)
        assert {l.utt for l in fixed.text} == expected
        assert not kaldi.validate_data_dir(fixed).errors
        again, _ = kaldi.fix_data_dir(fixed)
        assert again.render() == fixed.render()
        u2s = dict(fixed.utt2spk)
        assert kaldi.invert_spk2utt(kaldi.invert_utt2spk(u2s)) == {
            u: u2s[u] for u in sorted(u2s, key=lambda s: s.encode())
        }

    from test_kaldi import SEGMENTS_SAMPLE, TEXT_SAMPLE, UTT2SPK_SAMPLE

    text = kaldi.parse_text(TEXT_SAMPLE)
    assert "".join(l.render() + "\n" for l in text) == TEXT_SAMPLE
    segments = kaldi.parse_segments(SEGMENTS_SAMPLE)
    assert "".join(l.render() + "\n" for l in segments) == SEGMENTS_SAMPLE
    pairs = kaldi.parse_utt2spk(UTT2SPK_SAMPLE)
    assert "".join(f"{u} {s}\n" for u, s in pairs) == UTT2SPK_SAMPLE
    report(2, "fix idempotent on 100 dirs; survivors = 3-way intersection; "
              "example rows re-render byte-identically")


def test_criterion_03_mfcc_conf():
    assert kaldi.write_mfcc_conf(16000) == (
        b"--use-energy=false\n--sample-frequency=16000\n"
    )
    report(3, "mfcc.conf for 16000 Hz is byte-identical to the two-line block")


def test_criterion_04_lexicon_suite():
    lex = lexicon.parse_lexicon("A AH0\nA EY1\nZEBRA Z IY1 B R AH0\n")
    filtered = lexicon.filter_lexicon(lex, {"A"}, ("<oov>", "<oov>"))
    assert lexicon.render_lexicon(filtered) == "<oov> <oov>\nA AH0\nA EY1\n"

    grouped = lexicon.derive_nonsilence_phones(
        lexicon.Lexicon([("W1", ("AA0", "K")), ("W2", ("AA1", "AA2"))])
    )
    assert lexicon.render_phone_groups(grouped) == "AA0 AA1 AA2\nK\n"

    rng = random.Random(404)
    vocab = [f"W{i}" for i in range(60)]
    for _ in range(100):
        lex_words = set(rng.sample(vocab, rng.randint(0, 40)))
        lex = lexicon.Lexicon([(w, ("AH0",)) for w in sorted(lex_words)])
        words = set(rng.sample(vocab, rng.randint(0, 40)))
        covered = {
            w for w, _ in lexicon.filter_lexicon(lex, words).entries
        } - {"<oov>"}
        missing = set(lexicon.missing_words(words, lex))
        assert covered | missing == words and not covered & missing
    report(4, "oov block exact; stress grouping exact; covered/missing "
              "partition on 100 random word sets")


def test_criterion_05_ctm_pipeline_end_to_end():
    entries = parse_ctm((FIXTURES / "merged_alignment.ctm").read_text())
    segments = kaldi.parse_segments((FIXTURES / "segments").read_text())
    table = PhoneSymbolTable.parse((FIXTURES / "phones.txt").read_text())
    lex = lexicon.parse_lexicon((FIXTURES / "lexicon.txt").read_text())
    text = {
        l.utt: list(l.words)
        for l in kaldi.parse_text((FIXTURES / "text").read_text())
    }
    assert len(segments) == 6
    assert len({s.file_id for s in segments}) == 2

    ctm_total = sum(e.dur for e in entries)
    tokens = alignment_rows(entries, segments, resolve_phone_ids(entries, table))
    assert sum(t.dur for t in tokens) == pytest.approx(ctm_total, abs=1e-6)
    assert sum(t.end - t.start for t in tokens) == pytest.approx(ctm_total, abs=1e-6)

    durations = corpus_durations(segments)
    per_file = {
        fid: align_file(utterances, lex, text)
        for fid, utterances in align_corpus(tokens, segments).items()
    }
    klatt_units = []
    for file_tokens, _ in per_file.values():
        result = group_words(file_tokens)
        assert result.defects == []
        klatt_units += [
            u for u in result.units if u.pron == ("K", "L", "AE1", "T")
        ]
    assert len(klatt_units) == 2  # one KLATT token per file

    tier_total = 0.0
    for fid, (file_tokens, words) in per_file.items():
        for w in words:
            assert w.pron in lex.prons(w.word)
        grid = TextGrid(
            0.0,
            durations[fid],
            (
                phones_to_tier(file_tokens, durations[fid]),
                words_to_tier(words, durations[fid]),
            ),
        )
        golden = (FIXTURES / "golden" / f"{fid}.TextGrid").read_bytes()
        assert write_textgrid(grid) == golden
        tier_total += sum(
            iv.duration for iv in grid.tiers[0].non_empty()
        )
    assert tier_total == pytest.approx(ctm_total, abs=1e-6)
    report(5, "fixture corpus converts to byte-identical goldens with "
              "duration conservation at every stage")


def test_criterion_06_mfa_validation():
    def grid(intervals, xmax=10.0):
        tier = IntervalTier("utt", 0.0, xmax, tuple(intervals)).normalized()
        return TextGrid(0.0, xmax, (tier,))

    at_start = validate_mfa_textgrid(grid([Interval(0.0, 5.0, "HI")]), 10.0)
    assert [f.message for f in at_start.errors] == [
        "boundary at the absolute start of the file"
    ]
    at_end = validate_mfa_textgrid(grid([Interval(5.0, 10.0, "HI")]), 10.0)
    assert [f.message for f in at_end.errors] == ["final boundary at file end"]
    thin = validate_mfa_textgrid(grid([Interval(1.0, 9.99, "HI")]), 10.0)
    assert len(thin.errors) == 1 and "0.02" in thin.errors[0].message
    clean = validate_mfa_textgrid(grid([Interval(1.0, 9.94, "HI")]), 10.0)
    assert not clean.findings
    report(6, "each boundary violation raises exactly its Error; "
              "60 ms margin passes clean")


def test_criterion_07_vot_windows():
    rng = random.Random(707)
    for _ in range(500):
        letter = rng.choice("PTKBDG")
        start = 1.0 + rng.randint(0, 800000) / 1000
        span = rng.randint(30, 150) / 1000
        occurrence = WordOccurrence(
            "W", "f", start, start + span + 0.2, StopClass(letter),
            start + span,
        )
        (w,) = plan_windows([occurrence], 1e9)
        pad2 = 0.062 if letter in "PTK" else 0.022
        assert abs((w.end - w.start) - (span + pad2)) <= 1e-9

    def occurrence(letter, start, stop_end):
        return WordOccurrence(
            "W", "f", start, stop_end + 0.2, StopClass(letter), stop_end
        )

    (p,) = make_vot_windows([occurrence("P", 1.000, 1.080)], 10.0).non_empty()
    assert p.xmin == pytest.approx(0.969, abs=1e-9)
    assert p.xmax == pytest.approx(1.111, abs=1e-9)
    (b,) = make_vot_windows([occurrence("B", 2.000, 2.040)], 10.0).non_empty()
    assert b.xmin == pytest.approx(1.989, abs=1e-9)
    assert b.xmax == pytest.approx(2.051, abs=1e-9)

    occurrences = []
    t = 1.0
    rng2 = random.Random(708)
    for _ in range(24):
        t += rng2.randint(300, 900) / 1000
        occurrences.append(
            occurrence(rng2.choice("PTKBDG"), t, t + rng2.randint(30, 90) / 1000)
        )
    tier = make_vot_windows(occurrences, t + 10)
    split = split_windows_by_stop(tier)
    grid = stack_tiers(
        [TextGrid(0.0, tier.xmax, (split[l],)) for l in "PTKBDG"]
    )
    merged = merge_interval_tiers(grid, [1, 2, 3, 4, 5, 6], "vot")
    assert merged.tiers[-1].non_empty() == tier.non_empty()
    report(7, "500 windows exact to 1e-9; worked examples reproduced; "
              "split-then-merge reproduces the tier")


def test_criterion_08_vot_measurement():
    ms = measure_cues(measurement_fixture_grid(), "vot", "phones", "words")
    expected = [
        ("PAT", "P", 0.0625, 0.25, 0.5, 0.375),
        ("DOT", "D", 0.03125, 0.15625, 0.25, 0.375),
        ("TUTT", "T", 0.0625, 0.4375, 0.75, 0.625),
    ]
    assert len(ms) == len(expected)
    for m, (word, stop, vot_s, vowel, word_dur, rate) in zip(ms, expected):
        assert m.word == word and m.stop == stop
        assert m.vot == vot_s
        assert m.vowel_duration == vowel
        assert m.word_duration == word_dur
        assert m.speaking_rate == rate
        assert m.vot == m.vocalic_onset - m.burst_onset
    report(8, "VOT/vowel/word durations and per-sentence speaking rate "
              "are exact on the two-sentence fixture")


def test_criterion_09_compare_and_prefer():
    from test_vot import random_token_tier

    rng = random.Random(909)
    for _ in range(50):
        tier = random_token_tier(rng)
        result = compare_boundaries(tier, tier)
        assert len(result.pairs) == len(tier.non_empty())
        assert all(
            d.burst_delta == 0.0 and d.vowel_delta == 0.0
            for d in result.pairs
        )
        assert not result.unpaired_manual and not result.unpaired_auto

    rng = random.Random(910)
    for _ in range(50):
        grid = random_manual_auto_grid(rng)
        once = prefer_manual(grid, "manual", "auto")
        twice = prefer_manual(once, "manual", "auto")
        assert textgrid_equal(once, twice, time_tol=0.0)
    report(9, "compare(t, t) all-zero on 50 tiers; prefer_manual idempotent")


def test_criterion_10_wav():
    mono = audio.build_wav(b"\x00\x00" * 160000, 16000, 1, 16)
    info = audio.parse_wav_header(mono)
    assert info.duration == pytest.approx(10.0, abs=1e-6)

    n = 1000
    interleaved = []
    for k in range(n):
        interleaved += [2 * k % 32768, (2 * k + 1) % 32768]
    stereo = audio.build_wav(
        struct.pack(f"<{2 * n}h", *interleaved), 16000, 2, 16
    )
    extracted = audio.extract_channel(stereo, 2)
    out = audio.parse_wav_header(extracted)
    samples = struct.unpack(f"<{n}h", extracted[out.data_offset:])
    assert list(samples) == [(2 * k + 1) % 32768 for k in range(n)]

    cd_stereo = audio.parse_wav_header(
        audio.build_wav(b"\x00\x00\x00\x00", 44100, 2, 16)
    )
    assert len(audio.validate_for_mfa(cd_stereo).errors) == 2
    report(10, "10 s file reads 10.0 s; channel 2 is the odd interleave; "
               "44.1 kHz stereo yields exactly two Errors")


def test_criterion_11_cli_determinism(tmp_path, capsys):
    src = tmp_path / "input"
    src.mkdir()
    shutil.copy(FIXTURES / "golden" / "f1.TextGrid", src / "f1.TextGrid")
    shutil.copy(FIXTURES / "golden" / "f2.TextGrid", src / "f2.TextGrid")
    for stem in ("f1", "f2"):
        frames = b"\x00\x00" * (7 * 16000)
        (src / f"{stem}.wav").write_bytes(
            audio.build_wav(frames, 16000, 1, 16)
        )

    outputs = []
    for jobs, name in ((1, "r1.tsv"), (4, "r4.tsv")):
        rc = main(
            [
                "validate-mfa",
                str(src / "f1.TextGrid"), str(src / "f2.TextGrid"),
                "--wav-dir", str(src),
                "--jobs", str(jobs),
                "--report", str(tmp_path / name),
            ]
        )
        outputs.append((rc, (tmp_path / name).read_bytes(),
                        capsys.readouterr().err))
    assert outputs[0] == outputs[1]

    (src / "CVWordLocations.txt").write_text("f1\tPAT\t3.48\t3.95\tP\t3.55\n")
    before = sorted(p.name for p in src.iterdir())
    rc = main(
        [
            "vot", "windows", str(src / "f1.TextGrid"),
            "--locations", str(src / "CVWordLocations.txt"),
            "--out-dir", str(src / "nested_out"),
        ]
    )
    assert rc == 2
    assert sorted(p.name for p in src.iterdir()) == before
    report(11, "batch aggregate byte-identical for 1 and 4 workers; "
               "output-inside-input refused with exit 2, nothing written")
