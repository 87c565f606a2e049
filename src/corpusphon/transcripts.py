"""Aligner transcript formats and input validation.

FAVE takes a tab-delimited five-column transcript; the MFA wants TextGrid
input whose boundaries stay away from the absolute file edges (the margin
rules "may change", so they are configuration with the documented 20/50 ms
defaults); the legacy single-line transcript wants punctuation gone.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ToolkitError
from .lexicon import DEFAULT_STRIP_CHARS, Lexicon, MARKUP_TOKENS
from .report import Report
from .rows import format_seconds, read_rows
from .textgrid import SNAP, TextGrid

# the overlap-bug precondition: a phone is assumed to take 30 ms
PHONE_BUDGET_SECONDS = 0.030


class TranscriptError(ToolkitError):
    pass


class FieldCountError(TranscriptError):
    """A FAVE transcript line without exactly five tab-separated fields."""


class NonNumericTime(TranscriptError):
    """Onset or offset column that is not a finite number of seconds."""


@dataclass(frozen=True)
class FaveRecord:
    speaker_id: str
    speaker_name: str
    onset: float
    offset: float
    text: str


@dataclass(frozen=True)
class MfaCheckConfig:
    min_end_margin: float = 0.020
    recommended_end_margin: float = 0.050
    require_separator_intervals: bool = False

    def __post_init__(self) -> None:
        if not 0 < self.min_end_margin <= self.recommended_end_margin:
            raise ValueError(
                "need 0 < min_end_margin <= recommended_end_margin, got "
                f"{self.min_end_margin}/{self.recommended_end_margin}"
            )


def parse_fave_transcript(content: str) -> list[FaveRecord]:
    """Parse speaker ID, speaker name, onset, offset, transcription rows."""
    rows = read_rows(
        content, "", FieldCountError, 5, "expected 5 tab-separated columns, got {got}",
        sep="\t", times=(2, 3), time_error=NonNumericTime,
    )
    return [FaveRecord(speaker_id, name, onset, offset, text)
            for _, (speaker_id, name, _, _, text, onset, offset) in rows]


def validate_fave(
    records: list[FaveRecord],
    wav_duration: float | None = None,
    lexicon: Lexicon | None = None,
) -> Report:
    """Check a FAVE transcript for the problems that derail alignment.

    An offset past the end of the wav is only a Warning: the aligner itself
    warns but still completes, and transcribers deliberately use a huge
    offset to mean "to the end of the file". The phone-budget warning flags
    utterances too short for their phones at 30 ms each (computed from each
    word's shortest pronunciation), which is what produced FAVE's overlapping
    non-functional intervals.
    """
    report = Report()
    for i, r in enumerate(records, 1):
        loc = f"line {i}"
        if not r.text.strip():
            report.error(loc, "empty transcription")
        if r.onset >= r.offset:
            report.error(loc, f"onset {r.onset} is not before offset {r.offset}")
        if r.onset < 0:
            report.error(loc, f"negative onset {r.onset}")
        if wav_duration is not None and r.offset > wav_duration:
            report.warning(
                loc,
                f"offset {r.offset} is past the end of the audio "
                f"({format_seconds(wav_duration)} s); the aligner will warn "
                "but still complete",
            )
        if lexicon is not None and r.onset < r.offset:
            budget = _phone_budget(r.text, lexicon)
            span = r.offset - r.onset
            if budget is not None and budget > span:
                report.warning(
                    loc,
                    f"{budget / PHONE_BUDGET_SECONDS:.0f} phones need "
                    f"{format_seconds(budget)} s at 30 ms each but the "
                    f"utterance spans {format_seconds(span)} s; expect "
                    "overlapping intervals",
                )

    by_speaker: dict[str, list[tuple[int, FaveRecord]]] = {}
    for i, r in enumerate(records, 1):
        by_speaker.setdefault(r.speaker_id, []).append((i, r))
    for speaker, items in by_speaker.items():
        items.sort(key=lambda pair: pair[1].onset)
        for (ia, a), (ib, b) in zip(items, items[1:]):
            if b.onset < a.offset and a.onset < b.offset:
                report.error(
                    f"lines {ia}+{ib}",
                    f"speaker {speaker!r}: overlapping utterances "
                    f"[{a.onset}, {a.offset}] and [{b.onset}, {b.offset}]",
                )
    return report


def _phone_budget(text: str, lexicon: Lexicon) -> float | None:
    total = 0
    found_any = False
    for token in text.split():
        prons = lexicon.prons(token)
        if prons:
            found_any = True
            total += min(len(p) for p in prons)
    return total * PHONE_BUDGET_SECONDS if found_any else None


def validate_mfa_textgrid(
    grid: TextGrid, wav_duration: float, cfg: MfaCheckConfig = MfaCheckConfig()
) -> Report:
    """Check a transcript TextGrid against the MFA's input constraints.

    Text-bearing boundaries must not sit at the absolute start or end of the
    file, and the final boundary needs breathing room before the end: at
    least min_end_margin (Error below), recommended_end_margin if possible
    (Warning below).
    """
    tiers = grid.interval_tiers()
    if not tiers:
        raise TranscriptError("TextGrid has no interval tier to validate")
    report = Report()

    if abs(grid.xmax - wav_duration) > 1e-3:
        report.error(
            "grid",
            f"TextGrid ends at {grid.xmax} but the audio is "
            f"{format_seconds(wav_duration)} s",
        )

    last_boundary = 0.0
    for tier in tiers:
        texted = tier.non_empty()
        for iv in texted:
            loc = f"tier {tier.name!r} [{iv.xmin}, {iv.xmax}]"
            if iv.xmin <= 0.0:
                report.error(
                    loc, "boundary at the absolute start of the file"
                )
            if iv.xmax >= wav_duration:
                report.error(loc, "final boundary at file end")
            last_boundary = max(last_boundary, iv.xmax)
        if cfg.require_separator_intervals:
            for a, b in zip(texted, texted[1:]):
                if abs(a.xmax - b.xmin) <= SNAP:
                    report.warning(
                        f"tier {tier.name!r} at {a.xmax}",
                        "adjacent text intervals; an empty separator "
                        "interval helps the aligner",
                    )

    if last_boundary > 0:
        margin = wav_duration - last_boundary
        if 0 < margin < cfg.min_end_margin:
            report.error(
                "grid",
                f"only {format_seconds(margin)} s between the final boundary "
                f"and the file end; need at least "
                f"{format_seconds(cfg.min_end_margin)} s",
            )
        elif cfg.min_end_margin <= margin < cfg.recommended_end_margin:
            report.warning(
                "grid",
                f"{format_seconds(margin)} s final margin is under the "
                f"recommended {format_seconds(cfg.recommended_end_margin)} s",
            )
    return report


def validate_single_line_transcript(content: str) -> Report:
    """Check a plain word transcript: no DEFAULT_STRIP_CHARS punctuation, markup tolerated.

    Apostrophes are fine as long as the spelling is in the dictionary; {NS}
    and {SP} noise/silence markup passes. A literal "sp" token gets an Info:
    the aligner inserts short pauses itself.
    """
    report = Report()
    for i, tokens in read_rows(content, "", TranscriptError, 1, "", exact=False):
        for token in tokens:
            if token in MARKUP_TOKENS:
                continue
            bad = sorted(set(token) & set(DEFAULT_STRIP_CHARS))
            if bad:
                report.error(
                    f"line {i}",
                    f"token {token!r} contains punctuation "
                    f"{', '.join(repr(c) for c in bad)}; remove it",
                )
            if token == "sp":
                report.info(
                    f"line {i}",
                    "adding 'sp' between words is not necessary; the aligner "
                    "detects pauses itself",
                )
    return report
