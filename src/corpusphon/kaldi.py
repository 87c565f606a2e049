"""Kaldi-style data directory files: model, generate, validate, repair.

Covers the five-file bundle (text, segments, wav.scp, utt2spk, spk2utt) plus
conf/mfcc.conf. Files are modeled as ordered line lists so that duplicate or
unsorted input is representable and can be reported. The five files are
read through rows.read_rows, which splits fields on any whitespace: tabs are
accepted on read and written as single spaces. Segment times must be finite
numbers.

Sorting is byte-wise (C locale) throughout, which is what Kaldi's own tools
require, and plain str order gives it: every ID comes from strictly decoded
UTF-8, so it holds no lone surrogate, and for such strings code-point order
is UTF-8 byte order. Parsed time fields keep their original spelling so a
well-formed file re-renders byte-identically; times built from floats are
rendered trailing-zero-free (0.0, 3.44).

Tokens are checked in build_from_records only, the one entry point whose
fields do not come from str.split(). A field that str.split() gives is never
empty and never holds whitespace, so a check in the parsers could not fail.
A records TSV is split on tabs alone, so build_from_records refuses an empty
utterance, file or speaker ID or one that holds whitespace, and an empty
words or source column.
"""

from __future__ import annotations

import errno
import os
import re
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping

from .errors import ToolkitError
from .report import Report
from .rows import format_seconds, read_rows, read_utf8

class KaldiDataError(ToolkitError):
    """Malformed data-directory file content."""


class DuplicateUtt(KaldiDataError):
    """Two records share an utterance ID."""


class EmptyResult(KaldiDataError):
    """No utterance survived repair; the inputs are grossly inconsistent."""


@dataclass(slots=True, unsafe_hash=True)
class TranscriptLine:
    utt: str
    words: tuple[str, ...]

    def render(self) -> str:
        return self.utt + " " + " ".join(self.words)


@dataclass(slots=True, unsafe_hash=True)
class SegmentLine:
    utt: str
    file_id: str
    start: float
    end: float
    # original spellings, kept so parsed files re-render byte-identically
    start_raw: str | None = None
    end_raw: str | None = None

    @property
    def ok(self) -> bool:
        return 0 <= self.start < self.end

    def render(self) -> str:
        start = self.start_raw if self.start_raw is not None else format_seconds(self.start)
        end = self.end_raw if self.end_raw is not None else format_seconds(self.end)
        return f"{self.utt} {self.file_id} {start} {end}"


@dataclass(slots=True, unsafe_hash=True)
class WavScpEntry:
    file_id: str
    source: str

    def render(self) -> str:
        return f"{self.file_id} {self.source}"


@dataclass
class KaldiDataDir:
    """In-memory image of the five data files, line for line."""

    text: list[TranscriptLine] = field(default_factory=list)
    segments: list[SegmentLine] = field(default_factory=list)
    wav_scp: list[WavScpEntry] = field(default_factory=list)
    utt2spk: list[tuple[str, str]] = field(default_factory=list)
    spk2utt: list[tuple[str, tuple[str, ...]]] = field(default_factory=list)

    def render(self) -> dict[str, str]:
        return {
            "text": "".join(line.render() + "\n" for line in self.text),
            "segments": "".join(line.render() + "\n" for line in self.segments),
            "wav.scp": "".join(e.render() + "\n" for e in self.wav_scp),
            "utt2spk": "".join(f"{u} {s}\n" for u, s in self.utt2spk),
            "spk2utt": "".join(
                f"{s} " + " ".join(us) + "\n" for s, us in self.spk2utt
            ),
        }


# ---------------------------------------------------------------------------
# parsing / rendering


def parse_text(content: str) -> list[TranscriptLine]:
    rows = read_rows(content, "text", KaldiDataError, 2, "need utterance ID and words",
                     exact=False)
    return [TranscriptLine(f[0], tuple(f[1:])) for _, f in rows]


def parse_segments(content: str) -> list[SegmentLine]:
    rows = read_rows(content, "segments", KaldiDataError, 4, "expected 4 fields", times=(2, 3))
    return [SegmentLine(utt, file_id, start, end, start_raw, end_raw)
            for _, (utt, file_id, start_raw, end_raw, start, end) in rows]


def parse_wav_scp(content: str) -> list[WavScpEntry]:
    # one split only: a source (a path or a command) keeps its inner spacing
    rows = read_rows(content, "wav.scp", KaldiDataError, 2, "expected file ID and source",
                     maxsplit=1)
    return [WavScpEntry(file_id, source.strip()) for _, (file_id, source) in rows]


def parse_utt2spk(content: str) -> list[tuple[str, str]]:
    rows = read_rows(content, "utt2spk", KaldiDataError, 2, "expected 2 fields")
    return [(utt, spk) for _, (utt, spk) in rows]


def parse_spk2utt(content: str) -> list[tuple[str, tuple[str, ...]]]:
    rows = read_rows(content, "spk2utt", KaldiDataError, 2, "expected speaker and utterances",
                     exact=False)
    return [(f[0], tuple(f[1:])) for _, f in rows]


def read_data_dir(path: Path | str) -> KaldiDataDir:
    """The five files of a data directory, read by rows.read_utf8; a missing one reads as empty."""
    path = Path(path)
    if not path.is_dir():  # else every file would read as missing, and pass
        code = errno.ENOTDIR if path.exists() else errno.ENOENT
        raise OSError(code, os.strerror(code), str(path))

    def load(name: str) -> str:
        f = path / name
        return read_utf8(f) if f.exists() else ""

    return KaldiDataDir(
        text=parse_text(load("text")),
        segments=parse_segments(load("segments")),
        wav_scp=parse_wav_scp(load("wav.scp")),
        utt2spk=parse_utt2spk(load("utt2spk")),
        spk2utt=parse_spk2utt(load("spk2utt")),
    )


# ---------------------------------------------------------------------------
# speaker maps


def invert_utt2spk(utt2spk: Mapping[str, str]) -> dict[str, tuple[str, ...]]:
    """Speaker -> byte-sorted utterances; inverting back recovers the input."""
    grouped: dict[str, list[str]] = {}
    for utt, spk in utt2spk.items():
        grouped.setdefault(spk, []).append(utt)
    return {spk: tuple(sorted(grouped[spk])) for spk in sorted(grouped)}


def invert_spk2utt(spk2utt: Mapping[str, tuple[str, ...]]) -> dict[str, str]:
    out: dict[str, str] = {}
    for spk, utts in spk2utt.items():
        for utt in utts:
            out[utt] = spk
    return {utt: out[utt] for utt in sorted(out)}


# ---------------------------------------------------------------------------
# validation


def _strip_padding(utt: str) -> str:
    """Canonical form with leading zeros removed from each digit run."""
    return re.sub(r"\d+", lambda m: m.group(0).lstrip("0") or "0", utt)


def _check_sorted(report: Report, name: str, keys: list[str]) -> None:
    for a, b in zip(keys, keys[1:]):
        if a > b:
            report.error(name, f"not in C-sorted order: {b!r} follows {a!r}")
            return


def _check_duplicates(report: Report, name: str, keys: list[str]) -> None:
    seen: set[str] = set()
    dups: set[str] = set()
    for k in keys:
        if k in seen:
            dups.add(k)
        seen.add(k)
    for k in sorted(dups):
        report.error(name, f"duplicate entry for {k!r}")


def validate_data_dir(
    d: KaldiDataDir, strict_speaker_prefix: bool = False
) -> Report:
    """Check consistency of the five files; findings, never exceptions.

    Errors: ID-set mismatches across text/segments/utt2spk, unsorted files,
    duplicate first fields, segments with start >= end, segments referencing
    a file ID missing from wav.scp, and a spk2utt that is not the inversion
    of utt2spk. With strict_speaker_prefix, a speaker that is not a prefix of
    its utterance IDs is a Warning (Kaldi's sort requirement).
    """
    report = Report()

    text_utts = [line.utt for line in d.text]
    seg_utts = [line.utt for line in d.segments]
    u2s_utts = [u for u, _ in d.utt2spk]

    _check_sorted(report, "text", text_utts)
    _check_sorted(report, "segments", seg_utts)
    _check_sorted(report, "utt2spk", u2s_utts)
    _check_sorted(report, "wav.scp", [e.file_id for e in d.wav_scp])
    _check_sorted(report, "spk2utt", [s for s, _ in d.spk2utt])

    _check_duplicates(report, "text", text_utts)
    _check_duplicates(report, "segments", seg_utts)
    _check_duplicates(report, "utt2spk", u2s_utts)
    _check_duplicates(report, "spk2utt", [s for s, _ in d.spk2utt])

    # byte-identical duplicate wav.scp entries are harmless; conflicting ones
    # signal real bugs
    wav_seen: dict[str, str] = {}
    for e in d.wav_scp:
        if e.file_id in wav_seen:
            if wav_seen[e.file_id] == e.source:
                report.warning("wav.scp", f"repeated identical entry for {e.file_id!r}")
            else:
                report.error(
                    "wav.scp", f"conflicting sources for file ID {e.file_id!r}"
                )
        wav_seen[e.file_id] = e.source

    for line in d.segments:
        if line.start < 0:
            report.error("segments", f"{line.utt}: negative start {line.start}")
        if line.start >= line.end:
            report.error(
                "segments", f"{line.utt}: start {line.start} >= end {line.end}"
            )

    sets = {
        "text": set(text_utts),
        "segments": set(seg_utts),
        "utt2spk": set(u2s_utts),
    }
    canon: dict[str, set[str]] = {}  # stripped IDs, only of a set an ID is missing from
    for a in sets:
        for b in sets:
            if a == b:
                continue
            for utt in sorted(sets[a] - sets[b]):
                report.error(a, f"utterance {utt!r} missing from {b}")
                if b not in canon:
                    canon[b] = {_strip_padding(u) for u in sets[b]}
                if _strip_padding(utt) in canon[b]:
                    report.warning(
                        a,
                        f"utterance {utt!r} matches a {b} entry up to zero "
                        "padding; IDs are treated as opaque",
                    )

    wav_ids = {e.file_id for e in d.wav_scp}
    for line in d.segments:
        if line.file_id not in wav_ids:
            report.error(
                "segments", f"{line.utt}: file ID {line.file_id!r} not in wav.scp"
            )
    referenced = {line.file_id for line in d.segments}
    for e in d.wav_scp:
        if e.file_id not in referenced:
            report.warning(
                "wav.scp", f"file ID {e.file_id!r} referenced by no segment"
            )

    expected = invert_utt2spk(dict(d.utt2spk))
    actual = {s: us for s, us in d.spk2utt}
    if actual != expected or [s for s, _ in d.spk2utt] != sorted(actual):
        report.error("spk2utt", "not the sorted inversion of utt2spk")

    if strict_speaker_prefix:
        for utt, spk in d.utt2spk:
            if not utt.startswith(spk):
                report.warning(
                    "utt2spk",
                    f"speaker {spk!r} is not a prefix of utterance {utt!r}; "
                    "Kaldi sorting assumes speaker-prefixed IDs",
                )
    return report


# ---------------------------------------------------------------------------
# repair


def _keep(log: list[str], name: str, rows: list, reasons: Iterable) -> list:
    """One drop stage, a reason per row: None keeps the row, a reason drops and logs it."""
    reasons = list(reasons)
    log.extend(f"{name}: dropped {why}" for why in reasons if why is not None)
    return [row for row, why in zip(rows, reasons) if why is None]


def _repeats(
    rows: list, key: Callable, how: Callable = lambda first, row: "duplicate line"
) -> Iterator[str | None]:
    """The drop stage of rows whose key an earlier row has; how(first, row) names it."""
    firsts: dict = {}
    for row in rows:
        k = key(row)
        if k in firsts:
            yield f"{how(firsts[k], row)} for {k!r}"
        else:
            firsts[k] = row
            yield None


def fix_data_dir(d: KaldiDataDir) -> tuple[KaldiDataDir, list[str]]:
    """Sort, deduplicate, and intersect the files so validation is clean.

    Keeps exactly the utterances present in all of {text, segments, utt2spk}
    whose segments are well-formed and backed by a wav.scp entry; drops
    wav.scp entries with no surviving segment; regenerates spk2utt. A
    missing or empty utt2spk is first rebuilt from spk2utt. The log lists
    the rebuild and every dropped line. Raises EmptyResult when nothing
    survives. Idempotent: fixing a fixed directory changes nothing.
    """
    log: list[str] = []
    utt2spk = d.utt2spk
    if not utt2spk and d.spk2utt:
        utt2spk = list(invert_spk2utt(dict(d.spk2utt)).items())
        log.append("utt2spk: missing or empty; rebuilt from spk2utt")

    utt, pair_utt, file_id = attrgetter("utt"), itemgetter(0), attrgetter("file_id")
    text = _keep(log, "text", d.text, _repeats(d.text, utt))
    segments = _keep(log, "segments", d.segments, _repeats(d.segments, utt))
    utt2spk = _keep(log, "utt2spk", utt2spk, _repeats(utt2spk, pair_utt))
    segments = _keep(log, "segments", segments, (
        None if l.ok else f"{l.utt!r} (start {l.start} not before end {l.end})"
        for l in segments))
    wav_scp = _keep(log, "wav.scp", d.wav_scp, _repeats(d.wav_scp, file_id, lambda a, b: (
        "repeated identical entry" if a.source == b.source else "conflicting duplicate")))
    wav_ids = {e.file_id for e in wav_scp}
    segments = _keep(log, "segments", segments, (
        None if l.file_id in wav_ids else
        f"{l.utt!r} (file ID {l.file_id!r} not in wav.scp)" for l in segments))

    survivors = {l.utt for l in text} & {l.utt for l in segments} & {u for u, _ in utt2spk}
    if not survivors:
        raise EmptyResult("no utterance present in all of text/segments/utt2spk")

    def absent(keys: Iterable[str]) -> Iterator[str | None]:
        return (None if k in survivors else f"{k!r} (not present everywhere)" for k in keys)

    text = _keep(log, "text", text, absent(l.utt for l in text))
    segments = _keep(log, "segments", segments, absent(l.utt for l in segments))
    utt2spk = _keep(log, "utt2spk", utt2spk, absent(u for u, _ in utt2spk))
    referenced = {l.file_id for l in segments}
    wav_scp = _keep(log, "wav.scp", wav_scp, (
        None if e.file_id in referenced else f"{e.file_id!r} (no surviving segment)"
        for e in wav_scp))

    text.sort(key=utt)
    segments.sort(key=utt)
    utt2spk.sort(key=pair_utt)
    wav_scp.sort(key=file_id)
    spk2utt = list(invert_utt2spk(dict(utt2spk)).items())

    fixed = KaldiDataDir(
        text=text,
        segments=segments,
        wav_scp=wav_scp,
        utt2spk=utt2spk,
        spk2utt=spk2utt,
    )
    return fixed, log


# ---------------------------------------------------------------------------
# construction


@dataclass(frozen=True)
class UtteranceRecord:
    """One utterance with everything the five files need to know about it."""

    utt: str
    file_id: str
    start: float
    end: float
    words: tuple[str, ...]
    speaker: str
    source: str
    line: int = 0  # in the records file


def _check_token(token: str, what: str) -> None:
    # the whitespace the parsers split on, so a built directory reads back
    if token.split() != [token]:
        raise KaldiDataError(f"{what} {token!r} is empty or contains whitespace")


def build_from_records(records: list[UtteranceRecord]) -> KaldiDataDir:
    """Produce a consistent, sorted data directory in one pass."""
    if not records:
        raise KaldiDataError("no records given")
    seen: set[str] = set()
    sources: dict[str, str] = {}
    for r in records:
        if r.utt in seen:
            raise DuplicateUtt(f"line {r.line}: duplicate utterance ID {r.utt!r}")
        seen.add(r.utt)
        if r.file_id in sources and sources[r.file_id] != r.source:
            raise KaldiDataError(
                f"line {r.line}: file ID {r.file_id!r} has conflicting audio sources"
            )
        sources[r.file_id] = r.source
        _check_token(r.utt, f"line {r.line}: utterance ID")
        _check_token(r.file_id, f"line {r.line}: file ID")
        _check_token(r.speaker, f"line {r.line}: speaker")
        if not r.words:
            raise KaldiDataError(f"line {r.line}: utterance {r.utt}: transcript has no words")
        if not r.source.strip():
            raise KaldiDataError(f"line {r.line}: wav.scp entry {r.file_id}: empty source")
        if not 0 <= r.start < r.end:
            raise KaldiDataError(
                f"line {r.line}: utterance {r.utt!r}: start {r.start} not before end {r.end}"
            )

    ordered = sorted(records, key=attrgetter("utt"))
    text = [TranscriptLine(r.utt, tuple(r.words)) for r in ordered]
    segments = [SegmentLine(r.utt, r.file_id, r.start, r.end) for r in ordered]
    utt2spk = [(r.utt, r.speaker) for r in ordered]
    wav_scp = [WavScpEntry(fid, sources[fid]) for fid in sorted(sources)]
    spk2utt = list(invert_utt2spk(dict(utt2spk)).items())
    return KaldiDataDir(
        text=text,
        segments=segments,
        wav_scp=wav_scp,
        utt2spk=utt2spk,
        spk2utt=spk2utt,
    )


def write_mfcc_conf(sample_rate: int) -> bytes:
    """The two-line feature-extraction config; rate must match the audio."""
    if sample_rate <= 0:
        raise ValueError(f"sample rate must be positive, got {sample_rate}")
    return f"--use-energy=false\n--sample-frequency={sample_rate}\n".encode("ascii")
