import random

import pytest

from corpusphon.ctm import phones_to_tier
from corpusphon.lexicon import parse_lexicon
from corpusphon.report import Severity
from corpusphon.textgrid import Interval, IntervalTier, TextGrid
from corpusphon.transcripts import (
    FaveRecord,
    FieldCountError,
    MfaCheckConfig,
    NonNumericTime,
    TranscriptError,
    parse_fave_transcript,
    validate_fave,
    validate_mfa_textgrid,
    validate_single_line_transcript,
)

from test_ctm import _tok


class TestParseFave:
    def test_five_columns(self):
        (rec,) = parse_fave_transcript(
            "S1\tSpeaker One\t0.0\t3.44\tSAY TUTT AGAIN\n"
        )
        assert rec == FaveRecord("S1", "Speaker One", 0.0, 3.44, "SAY TUTT AGAIN")

    def test_four_columns(self):
        with pytest.raises(FieldCountError):
            parse_fave_transcript("S1\tName\t0.0\tTEXT\n")

    def test_non_numeric_time(self):
        with pytest.raises(NonNumericTime):
            parse_fave_transcript("S1\tName\tzero\t1.0\tTEXT\n")

    @pytest.mark.parametrize("char", ["\x0c", "\u2028", "\x85"])
    def test_a_line_break_inside_the_text_stays_in_it(self, char):
        (rec,) = parse_fave_transcript(f"S1\tName\t0.0\t1.0\tHI{char}THERE\n")
        assert rec.text == f"HI{char}THERE"

    def test_id_same_as_name_is_fine(self):
        (rec,) = parse_fave_transcript("S1\tS1\t0.0\t1.0\tHI\n")
        assert rec.speaker_id == rec.speaker_name

    def test_render_parse_round_trip(self):
        rng = random.Random(17)
        for _ in range(20):
            records = [
                FaveRecord(
                    f"S{i}",
                    f"Speaker {i}",
                    round(rng.uniform(0, 50), 3),
                    round(rng.uniform(51, 99), 3),
                    "SOME WORDS HERE",
                )
                for i in range(rng.randint(1, 6))
            ]
            lines = "".join(
                f"{r.speaker_id}\t{r.speaker_name}\t{r.onset}\t{r.offset}\t{r.text}\n"
                for r in records
            )
            assert parse_fave_transcript(lines) == records


class TestValidateFave:
    def test_huge_offset_hack_is_warning_only(self):
        records = [FaveRecord("S1", "S1", 0.0, 9999.0, "HI")]
        report = validate_fave(records, wav_duration=30.0)
        assert not report.errors
        assert len(report.warnings) == 1

    def test_onset_after_offset(self):
        report = validate_fave([FaveRecord("S1", "S1", 5.0, 4.0, "HI")])
        assert report.errors

    def test_phone_budget_warning(self):
        # ten phones at 30 ms need 0.3 s; the utterance has only 0.2 s
        lex = parse_lexicon(
            "ABCDE AH0 B K D EH0\nFGHIJ F G HH IY0 JH\n"
        )
        records = [FaveRecord("S1", "S1", 1.0, 1.2, "ABCDE FGHIJ")]
        report = validate_fave(records, lexicon=lex)
        assert any("30 ms" in w.message for w in report.warnings)

    def test_phone_budget_monotone_in_span(self):
        lex = parse_lexicon("ABCDE AH0 B K D EH0\nFGHIJ F G HH IY0 JH\n")
        warned_spans = []
        for span in (0.1, 0.2, 0.25, 0.31, 0.5):
            records = [FaveRecord("S", "S", 1.0, 1.0 + span, "ABCDE FGHIJ")]
            report = validate_fave(records, lexicon=lex)
            warned_spans.append(bool(report.warnings))
        # shrinking the span never removes the warning
        assert warned_spans == sorted(warned_spans, reverse=True)

    def test_same_speaker_overlap(self):
        records = [
            FaveRecord("S1", "S1", 0.0, 2.0, "A"),
            FaveRecord("S1", "S1", 1.5, 3.0, "B"),
        ]
        assert validate_fave(records).errors

    def test_different_speakers_may_overlap(self):
        records = [
            FaveRecord("S1", "S1", 0.0, 2.0, "A"),
            FaveRecord("S2", "S2", 1.5, 3.0, "B"),
        ]
        assert not validate_fave(records).errors


def grid_with_text(intervals, xmax=10.0):
    tier = IntervalTier("utt", 0.0, xmax, tuple(intervals)).normalized()
    return TextGrid(0.0, xmax, (tier,))


class TestValidateMfa:
    def test_boundary_at_start(self):
        grid = grid_with_text([Interval(0.0, 2.0, "HI")])
        report = validate_mfa_textgrid(grid, 10.0)
        assert any("absolute start" in f.message for f in report.errors)

    def test_boundary_at_end(self):
        grid = grid_with_text([Interval(5.0, 10.0, "HI")])
        report = validate_mfa_textgrid(grid, 10.0)
        assert any("file end" in f.message for f in report.errors)

    def test_margin_below_minimum(self):
        grid = grid_with_text([Interval(1.0, 9.99, "HI")])
        report = validate_mfa_textgrid(grid, 10.0)
        assert report.errors

    def test_margin_between_min_and_recommended(self):
        grid = grid_with_text([Interval(1.0, 9.97, "HI")])
        report = validate_mfa_textgrid(grid, 10.0)
        assert not report.errors
        assert len(report.warnings) == 1

    def test_comfortable_margin_clean(self):
        grid = grid_with_text([Interval(1.0, 9.94, "HI")])
        report = validate_mfa_textgrid(grid, 10.0)
        assert not report.findings

    def test_duration_mismatch(self):
        grid = grid_with_text([Interval(1.0, 5.0, "HI")])
        report = validate_mfa_textgrid(grid, 12.0)
        assert report.errors

    def test_separator_intervals_opt_in(self):
        grid = grid_with_text(
            [Interval(1.0, 2.0, "A"), Interval(2.0, 3.0, "B")]
        )
        clean = validate_mfa_textgrid(grid, 10.0)
        assert not clean.findings
        cfg = MfaCheckConfig(require_separator_intervals=True)
        report = validate_mfa_textgrid(grid, 10.0, cfg)
        assert len(report.warnings) == 1

    def test_requires_interval_tier(self):
        with pytest.raises(TranscriptError):
            validate_mfa_textgrid(TextGrid(0.0, 1.0, ()), 1.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MfaCheckConfig(min_end_margin=0.08, recommended_end_margin=0.05)


class TestSingleLine:
    def test_clean(self):
        assert not validate_single_line_transcript("SAY PAT AGAIN").findings

    def test_punctuation_error(self):
        report = validate_single_line_transcript("SAY PAT, AGAIN")
        assert any("','" in f.message for f in report.errors)

    def test_apostrophe_fine(self):
        assert not validate_single_line_transcript("I'M HERE").errors

    def test_markup_exempt(self):
        assert not validate_single_line_transcript("{NS} HI {SP}").errors

    def test_sp_info(self):
        report = validate_single_line_transcript("HI sp THERE")
        infos = [f for f in report.findings if f.severity is Severity.INFO]
        assert len(infos) == 1
        assert not report.errors

    @pytest.mark.parametrize("char", ["\x0c", "\x85", "\u2028"], ids=["ff", "nel", "ls"])
    def test_a_line_break_only_splitlines_knows_keeps_the_line_number(self, char):
        # a file of one line: its error is at line 1, and a second line is line 2
        report = validate_single_line_transcript(f"SAY{char}PAT, AGAIN\r\nHI, sp\r\n")
        assert [(f.severity, f.location) for f in report.findings] == [
            (Severity.ERROR, "line 1"), (Severity.ERROR, "line 2"), (Severity.INFO, "line 2")]


class TestMfaOnAlignerOutput:
    """Both directions: margin-respecting tokens pass, edge tokens fail."""

    def make_grid(self, last_end, duration=7.0):
        tokens = [
            _tok("SIL", None, 0.5, 1.0),
            _tok("K", "B", 1.0, 1.2),
            _tok("AE1", "I", 1.2, last_end),
        ]
        tier = phones_to_tier(tokens, duration)
        return TextGrid(0.0, duration, (tier,))

    def test_margin_respecting_tokens_pass(self):
        grid = self.make_grid(last_end=6.9)
        report = validate_mfa_textgrid(grid, 7.0)
        assert not any("boundary" in f.message for f in report.errors)

    def test_edge_token_raises(self):
        grid = self.make_grid(last_end=7.0)
        report = validate_mfa_textgrid(grid, 7.0)
        assert any("file end" in f.message for f in report.errors)
