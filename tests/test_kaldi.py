import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import corrupt_dir, random_consistent_dir
from corpusphon import kaldi
from corpusphon.kaldi import (
    DuplicateUtt,
    EmptyResult,
    KaldiDataDir,
    UtteranceRecord,
    build_from_records,
    fix_data_dir,
    format_seconds,
    invert_spk2utt,
    invert_utt2spk,
    parse_segments,
    parse_spk2utt,
    parse_text,
    parse_utt2spk,
    parse_wav_scp,
    validate_data_dir,
    write_mfcc_conf,
)

# reference data-directory rows, frozen verbatim
TEXT_SAMPLE = (
    "110236_20091006_82330_F_0001 I'M WORRIED ABOUT THAT\n"
    "110236_20091006_82330_F_0002 AT LEAST NOW WE HAVE THE BENEFIT\n"
    "110236_20091006_82330_F_0003 DID YOU EVER GO ON STRIKE\n"
    "120958_20100126_97016_M_0285 SOMETIMES LESS IS BETTER\n"
    "120958_20100126_97016_M_0286 YOU MUST LOVE TO COOK\n"
)
SEGMENTS_SAMPLE = (
    "110236_20091006_82330_F_001 110236_20091006_82330_F 0.0 3.44\n"
    "110236_20091006_82330_F_002 110236_20091006_82330_F 4.60 8.54\n"
    "110236_20091006_82330_F_003 110236_20091006_82330_F 9.45 12.05\n"
    "120958_20100126_97016_M_285 120958_20100126_97016_M 925.35 927.88\n"
    "120958_20100126_97016_M_286 120958_20100126_97016_M 928.31 930.51\n"
)
UTT2SPK_SAMPLE = (
    "110236_20091006_82330_F_0001 110236\n"
    "110236_20091006_82330_F_0002 110236\n"
    "110236_20091006_82330_F_0003 110236\n"
    "120958_20100126_97016_M_0284 120958\n"
    "120958_20100126_97016_M_0285 120958\n"
    "120958_20100126_97016_M_0286 120958\n"
)


class TestReferenceRows:
    def test_text_round_trip(self):
        lines = parse_text(TEXT_SAMPLE)
        assert "".join(l.render() + "\n" for l in lines) == TEXT_SAMPLE
        assert lines[0].words == ("I'M", "WORRIED", "ABOUT", "THAT")

    def test_segments_round_trip(self):
        lines = parse_segments(SEGMENTS_SAMPLE)
        assert "".join(l.render() + "\n" for l in lines) == SEGMENTS_SAMPLE
        assert lines[0].start == 0.0 and lines[0].end == 3.44

    def test_utt2spk_round_trip(self):
        pairs = parse_utt2spk(UTT2SPK_SAMPLE)
        assert "".join(f"{u} {s}\n" for u, s in pairs) == UTT2SPK_SAMPLE

    def test_spk2utt_from_reference_sample(self):
        pairs = parse_utt2spk(UTT2SPK_SAMPLE)
        inv = invert_utt2spk(dict(pairs))
        assert set(inv) == {"110236", "120958"}
        assert all(len(utts) == 3 for utts in inv.values())


class TestParse:
    @pytest.mark.parametrize(
        "parse, bad, message",
        [
            (parse_text, "u1", "text line 2: need utterance ID and words"),
            (parse_segments, "u1 f1 0.0", "segments line 2: expected 4 fields"),
            (parse_segments, "u1 f1 0.0 x", "segments line 2: non-numeric time"),
            (parse_wav_scp, "f1 ", "wav.scp line 2: expected file ID and source"),
            (parse_utt2spk, "u1 s1 x", "utt2spk line 2: expected 2 fields"),
            (parse_spk2utt, "s1", "spk2utt line 2: expected speaker and utterances"),
        ],
    )
    def test_bad_line_after_a_blank_line(self, parse, bad, message):
        with pytest.raises(kaldi.KaldiDataError) as info:
            parse(" \t\n" + bad + "\n")
        assert str(info.value) == message

    def test_tab_separated_fields(self):
        assert [l.render() for l in parse_text("u1\tSAY\t PAT\n")] == ["u1 SAY PAT"]
        assert [l.render() for l in parse_segments("u1\tf1\t0.50\t1.0\n")] == [
            "u1 f1 0.50 1.0"
        ]
        assert parse_utt2spk("u1\ts1\n") == [("u1", "s1")]
        assert parse_spk2utt("s1\tu1 \tu2\n") == [("s1", ("u1", "u2"))]

    def test_wav_scp_source_keeps_its_inner_spacing(self):
        (entry,) = parse_wav_scp("f1\t sox  a.wav -t wav -  |  \n")
        assert (entry.file_id, entry.source) == ("f1", "sox  a.wav -t wav -  |")
        assert entry.render() == "f1 sox  a.wav -t wav -  |"


class TestRecords:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: kaldi.TranscriptLine("u1", ("HI",)),
            lambda: kaldi.SegmentLine("u1", "f1", 0.0, 1.0, "0", "1.0"),
            lambda: kaldi.WavScpEntry("f1", "p/f1.wav"),
        ],
    )
    def test_records_are_slotted_and_hashed_by_value(self, make):
        a, b = make(), make()
        assert a is not b and a == b and hash(a) == hash(b)
        assert not hasattr(a, "__dict__")


class TestInvert:
    def test_sorted_inversion(self):
        assert invert_utt2spk({"u2": "s", "u1": "s"}) == {"s": ("u1", "u2")}

    def test_empty(self):
        assert invert_utt2spk({}) == {}

    def test_involution(self):
        rng = random.Random(5)
        for _ in range(25):
            d = random_consistent_dir(rng)
            u2s = dict(d.utt2spk)
            assert invert_spk2utt(invert_utt2spk(u2s)) == {
                u: u2s[u] for u in sorted(u2s, key=lambda s: s.encode())
            }


class TestValidate:
    def test_consistent_dir_clean(self):
        rng = random.Random(11)
        d = random_consistent_dir(rng)
        report = validate_data_dir(d)
        assert not report.findings

    def test_missing_from_segments(self):
        d = random_consistent_dir(random.Random(2))
        d.segments = d.segments[1:]
        report = validate_data_dir(d)
        assert any(
            "missing from segments" in f.message for f in report.errors
        )

    def test_bad_segment_times(self):
        d = random_consistent_dir(random.Random(3))
        s = d.segments[0]
        d.segments[0] = kaldi.SegmentLine(s.utt, s.file_id, 5.0, 4.0)
        report = validate_data_dir(d)
        assert any("start" in f.message for f in report.errors)

    def test_unsorted(self):
        d = random_consistent_dir(random.Random(4))
        if len(d.text) > 1:
            d.text = d.text[::-1]
            report = validate_data_dir(d)
            assert any("C-sorted" in f.message for f in report.errors)

    def test_padding_mismatch_warning(self):
        d = KaldiDataDir(
            text=parse_text("s1_0001 HI\n"),
            segments=parse_segments("s1_001 f1 0.0 1.0\n"),
            wav_scp=kaldi.parse_wav_scp("f1 path/f1.wav\n"),
            utt2spk=[("s1_0001", "s1")],
            spk2utt=[("s1", ("s1_0001",))],
        )
        report = validate_data_dir(d)
        assert any("zero padding" in f.message for f in report.warnings)
        assert report.errors

    def test_strict_speaker_prefix(self):
        d = KaldiDataDir(
            text=parse_text("u1 HI\n"),
            segments=parse_segments("u1 f1 0.0 1.0\n"),
            wav_scp=kaldi.parse_wav_scp("f1 path/f1.wav\n"),
            utt2spk=[("u1", "speakerX")],
            spk2utt=[("speakerX", ("u1",))],
        )
        report = validate_data_dir(d, strict_speaker_prefix=True)
        assert any("prefix" in f.message for f in report.warnings)


class TestFix:
    def test_intersection_rule(self):
        d = KaldiDataDir(
            text=parse_text("a W\nb W\nc W\n"),
            segments=parse_segments("a f1 0.0 1.0\nb f1 1.0 2.0\n"),
            wav_scp=kaldi.parse_wav_scp("f1 path/f1.wav\n"),
            utt2spk=[("a", "s"), ("b", "s"), ("c", "s")],
            spk2utt=[("s", ("a", "b", "c"))],
        )
        fixed, log = fix_data_dir(d)
        assert {l.utt for l in fixed.text} == {"a", "b"}
        assert any("'c'" in entry and "text" in entry for entry in log)
        assert any("utt2spk" in entry and "'c'" in entry for entry in log)

    def test_idempotent_and_clean_on_random_corruption(self):
        rng = random.Random(20240402)
        for _ in range(30):
            base = random_consistent_dir(rng)
            broken = corrupt_dir(rng, base)
            expected = (
                {l.utt for l in broken.text}
                & {l.utt for l in broken.segments}
                & {u for u, _ in broken.utt2spk}
            )
            fixed, _ = fix_data_dir(broken)
            assert {l.utt for l in fixed.text} == expected
            assert not validate_data_dir(fixed).errors
            again, log2 = fix_data_dir(fixed)
            assert again.render() == fixed.render()
            assert log2 == []

    @settings(max_examples=100, deadline=None)
    @given(st.randoms(use_true_random=False), st.booleans())
    def test_idempotent(self, rng, corrupt):
        d = random_consistent_dir(rng)
        fixed, _ = fix_data_dir(corrupt_dir(rng, d) if corrupt else d)
        again, log = fix_data_dir(fixed)
        assert again.render() == fixed.render()
        assert log == []

    def test_empty_result(self):
        d = KaldiDataDir(
            text=[],
            segments=parse_segments("a f1 0.0 1.0\n"),
            wav_scp=kaldi.parse_wav_scp("f1 path/f1.wav\n"),
            utt2spk=[("a", "s")],
            spk2utt=[("s", ("a",))],
        )
        with pytest.raises(EmptyResult):
            fix_data_dir(d)

    def test_already_valid_unchanged(self):
        d = random_consistent_dir(random.Random(8))
        fixed, log = fix_data_dir(d)
        assert fixed.render() == d.render()
        assert log == []

    def test_log_of_every_drop_stage_in_order(self):
        d = KaldiDataDir(
            text=parse_text("e W\na W\na W\nb W\nc W\nd W\n"),
            segments=parse_segments(
                "e f1 1.0 2.0\na f1 0.0 1.0\na f1 0.0 1.0\nb f1 2.0 1.0\n"
                "c f9 0.0 1.0\nd f2 0.0 1.0\n"
            ),
            wav_scp=parse_wav_scp(
                "f1 p/f1.wav\nf1 p/f1.wav\nf1 p/other.wav\nf2 p/f2.wav\n"
            ),
            utt2spk=parse_utt2spk("e s\na s\na s\nb s\nc s\n"),
            spk2utt=parse_spk2utt("s a b c e\n"),
        )
        fixed, log = fix_data_dir(d)
        assert log == [
            "text: dropped duplicate line for 'a'",
            "segments: dropped duplicate line for 'a'",
            "utt2spk: dropped duplicate line for 'a'",
            "segments: dropped 'b' (start 2.0 not before end 1.0)",
            "wav.scp: dropped repeated identical entry for 'f1'",
            "wav.scp: dropped conflicting duplicate for 'f1'",
            "segments: dropped 'c' (file ID 'f9' not in wav.scp)",
            "text: dropped 'b' (not present everywhere)",
            "text: dropped 'c' (not present everywhere)",
            "text: dropped 'd' (not present everywhere)",
            "segments: dropped 'd' (not present everywhere)",
            "utt2spk: dropped 'b' (not present everywhere)",
            "utt2spk: dropped 'c' (not present everywhere)",
            "wav.scp: dropped 'f2' (no surviving segment)",
        ]
        assert fixed.render() == {
            "text": "a W\ne W\n",
            "segments": "a f1 0.0 1.0\ne f1 1.0 2.0\n",
            "wav.scp": "f1 p/f1.wav\n",
            "utt2spk": "a s\ne s\n",
            "spk2utt": "s a e\n",
        }

    def test_missing_utt2spk_rebuilt_from_spk2utt(self):
        rng = random.Random(31)
        for _ in range(10):
            d = random_consistent_dir(rng)
            without = KaldiDataDir(d.text, d.segments, d.wav_scp, [], d.spk2utt)
            fixed, log = fix_data_dir(without)
            assert fixed.render() == d.render()
            assert log == ["utt2spk: missing or empty; rebuilt from spk2utt"]
            again, log2 = fix_data_dir(fixed)
            assert again.render() == fixed.render() and log2 == []


class TestBuild:
    def test_single_record_reference_row(self):
        d = build_from_records(
            [
                UtteranceRecord(
                    "u1", "f1", 0.0, 3.44, ("I'M", "WORRIED", "ABOUT", "THAT"),
                    "s1", "path/f1.wav",
                )
            ]
        )
        rendered = d.render()
        assert rendered["text"] == "u1 I'M WORRIED ABOUT THAT\n"
        assert rendered["segments"] == "u1 f1 0.0 3.44\n"
        assert rendered["utt2spk"] == "u1 s1\n"
        assert rendered["spk2utt"] == "s1 u1\n"
        assert rendered["wav.scp"] == "f1 path/f1.wav\n"

    def test_shared_file_id_single_wav_entry(self):
        d = build_from_records(
            [
                UtteranceRecord("u1", "f1", 0.0, 1.0, ("A",), "s", "p/f1.wav"),
                UtteranceRecord("u2", "f1", 1.0, 2.0, ("B",), "s", "p/f1.wav"),
            ]
        )
        assert len(d.wav_scp) == 1

    def test_duplicate_utt(self):
        rec = UtteranceRecord("u1", "f1", 0.0, 1.0, ("A",), "s", "p")
        with pytest.raises(DuplicateUtt):
            build_from_records([rec, rec])

    def test_piped_source(self):
        d = build_from_records(
            [
                UtteranceRecord(
                    "u1", "f1", 0.0, 1.0, ("A",), "s",
                    "path/sph2pipe -f wav -p -c 1 path/f1.sph |",
                )
            ]
        )
        assert d.render()["wav.scp"] == (
            "f1 path/sph2pipe -f wav -p -c 1 path/f1.sph |\n"
        )


class TestMfccConf:
    def test_frozen_two_line_block(self):
        assert write_mfcc_conf(16000) == (
            b"--use-energy=false\n--sample-frequency=16000\n"
        )

    def test_other_rate(self):
        assert b"--sample-frequency=8000\n" in write_mfcc_conf(8000)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            write_mfcc_conf(0)


class TestFormatSeconds:
    @pytest.mark.parametrize(
        "value,expected",
        [(0.0, "0.0"), (3.44, "3.44"), (4.6, "4.6"), (925.35, "925.35")],
    )
    def test_trailing_zero_free(self, value, expected):
        assert format_seconds(value) == expected
