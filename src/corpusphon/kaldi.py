"""Kaldi-style data directory files: model, generate, validate, repair.

Covers the five-file bundle (text, segments, wav.scp, utt2spk, spk2utt) plus
conf/mfcc.conf. Files are modeled as ordered line lists so that duplicate or
unsorted input is representable and can be reported.

Sorting is byte-wise (C locale) throughout, which is what Kaldi's own tools
require. Parsed time fields keep their original spelling so a well-formed
file re-renders byte-identically; times built from floats are rendered
trailing-zero-free (0.0, 3.44).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from .errors import ToolkitError
from .report import Report

class KaldiDataError(ToolkitError):
    """Malformed data-directory file content."""


class DuplicateUtt(KaldiDataError):
    """Two records share an utterance ID."""


class EmptyResult(KaldiDataError):
    """No utterance survived repair; the inputs are grossly inconsistent."""


class EncodingError(KaldiDataError):
    """A data-directory file that is not valid UTF-8."""


def _bytes_key(s: str) -> bytes:
    return s.encode("utf-8")


def _check_token(token: str, what: str) -> str:
    if not token or any(c in token for c in " \t\n\r"):
        raise KaldiDataError(f"{what} {token!r} is empty or contains whitespace")
    return token


def format_seconds(t: float) -> str:
    """Trailing-zero-free decimal with at least one fractional digit."""
    s = f"{t:.6f}".rstrip("0")
    return s + "0" if s.endswith(".") else s


@dataclass(frozen=True)
class TranscriptLine:
    utt: str
    words: tuple[str, ...]

    def __post_init__(self) -> None:
        _check_token(self.utt, "utterance ID")
        if not self.words:
            raise KaldiDataError(f"utterance {self.utt}: transcript has no words")
        for w in self.words:
            _check_token(w, "word")

    def render(self) -> str:
        return self.utt + " " + " ".join(self.words)


@dataclass(frozen=True)
class SegmentLine:
    utt: str
    file_id: str
    start: float
    end: float
    # original spellings, kept so parsed files re-render byte-identically
    start_raw: str | None = None
    end_raw: str | None = None

    def __post_init__(self) -> None:
        _check_token(self.utt, "utterance ID")
        _check_token(self.file_id, "file ID")

    @property
    def ok(self) -> bool:
        return 0 <= self.start < self.end

    def render(self) -> str:
        start = self.start_raw if self.start_raw is not None else format_seconds(self.start)
        end = self.end_raw if self.end_raw is not None else format_seconds(self.end)
        return f"{self.utt} {self.file_id} {start} {end}"


@dataclass(frozen=True)
class WavScpEntry:
    file_id: str
    source: str

    def __post_init__(self) -> None:
        _check_token(self.file_id, "file ID")
        if not self.source.strip():
            raise KaldiDataError(f"wav.scp entry {self.file_id}: empty source")

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


def _split_fields(line: str) -> list[str]:
    # tabs accepted on read, normalized to single spaces on write
    return line.split()


def parse_text(content: str) -> list[TranscriptLine]:
    out = []
    for i, line in enumerate(content.splitlines(), 1):
        if not line.strip():
            continue
        fields = _split_fields(line)
        if len(fields) < 2:
            raise KaldiDataError(f"text line {i}: need utterance ID and words")
        out.append(TranscriptLine(fields[0], tuple(fields[1:])))
    return out


def parse_segments(content: str) -> list[SegmentLine]:
    out = []
    for i, line in enumerate(content.splitlines(), 1):
        if not line.strip():
            continue
        fields = _split_fields(line)
        if len(fields) != 4:
            raise KaldiDataError(f"segments line {i}: expected 4 fields")
        try:
            start, end = float(fields[2]), float(fields[3])
        except ValueError:
            raise KaldiDataError(f"segments line {i}: non-numeric time") from None
        out.append(
            SegmentLine(fields[0], fields[1], start, end, fields[2], fields[3])
        )
    return out


def parse_wav_scp(content: str) -> list[WavScpEntry]:
    out = []
    for i, line in enumerate(content.splitlines(), 1):
        if not line.strip():
            continue
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise KaldiDataError(f"wav.scp line {i}: expected file ID and source")
        out.append(WavScpEntry(parts[0], parts[1].strip()))
    return out


def parse_utt2spk(content: str) -> list[tuple[str, str]]:
    out = []
    for i, line in enumerate(content.splitlines(), 1):
        if not line.strip():
            continue
        fields = _split_fields(line)
        if len(fields) != 2:
            raise KaldiDataError(f"utt2spk line {i}: expected 2 fields")
        out.append((_check_token(fields[0], "utterance ID"), fields[1]))
    return out


def parse_spk2utt(content: str) -> list[tuple[str, tuple[str, ...]]]:
    out = []
    for i, line in enumerate(content.splitlines(), 1):
        if not line.strip():
            continue
        fields = _split_fields(line)
        if len(fields) < 2:
            raise KaldiDataError(f"spk2utt line {i}: expected speaker and utterances")
        out.append((fields[0], tuple(fields[1:])))
    return out


def read_data_dir(path: Path | str) -> KaldiDataDir:
    path = Path(path)
    def load(name: str) -> str:
        f = path / name
        try:
            return f.read_text(encoding="utf-8") if f.exists() else ""
        except UnicodeDecodeError as exc:
            raise EncodingError(f"{name}: not valid UTF-8: {exc}") from None

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
    return {
        spk: tuple(sorted(grouped[spk], key=_bytes_key))
        for spk in sorted(grouped, key=_bytes_key)
    }


def invert_spk2utt(spk2utt: Mapping[str, tuple[str, ...]]) -> dict[str, str]:
    out: dict[str, str] = {}
    for spk, utts in spk2utt.items():
        for utt in utts:
            out[utt] = spk
    return {utt: out[utt] for utt in sorted(out, key=_bytes_key)}


# ---------------------------------------------------------------------------
# validation


def _strip_padding(utt: str) -> str:
    """Canonical form with leading zeros removed from each digit run."""
    return re.sub(r"\d+", lambda m: m.group(0).lstrip("0") or "0", utt)


def _check_sorted(report: Report, name: str, keys: list[str]) -> None:
    for a, b in zip(keys, keys[1:]):
        if _bytes_key(a) > _bytes_key(b):
            report.error(name, f"not in C-sorted order: {b!r} follows {a!r}")
            return


def _check_duplicates(report: Report, name: str, keys: list[str]) -> set[str]:
    seen: set[str] = set()
    dups: set[str] = set()
    for k in keys:
        if k in seen:
            dups.add(k)
        seen.add(k)
    for k in sorted(dups, key=_bytes_key):
        report.error(name, f"duplicate entry for {k!r}")
    return dups


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
    canon = {
        name: {_strip_padding(u) for u in utts} for name, utts in sets.items()
    }
    for a in sets:
        for b in sets:
            if a == b:
                continue
            for utt in sorted(sets[a] - sets[b], key=_bytes_key):
                report.error(a, f"utterance {utt!r} missing from {b}")
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
    if actual != expected or [s for s, _ in d.spk2utt] != sorted(
        actual, key=_bytes_key
    ):
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

    def dedup(pairs, name, key):
        seen = set()
        out = []
        for p in pairs:
            k = key(p)
            if k in seen:
                log.append(f"{name}: dropped duplicate line for {k!r}")
                continue
            seen.add(k)
            out.append(p)
        return out

    text = dedup(d.text, "text", lambda l: l.utt)
    segments = dedup(d.segments, "segments", lambda l: l.utt)
    utt2spk = dedup(utt2spk, "utt2spk", lambda p: p[0])

    good_segments = []
    for line in segments:
        if not line.ok:
            log.append(
                f"segments: dropped {line.utt!r} (start {line.start} not "
                f"before end {line.end})"
            )
            continue
        good_segments.append(line)
    segments = good_segments

    wav_scp: list[WavScpEntry] = []
    wav_seen: dict[str, str] = {}
    for e in d.wav_scp:
        if e.file_id in wav_seen:
            if wav_seen[e.file_id] != e.source:
                log.append(
                    f"wav.scp: dropped conflicting duplicate for {e.file_id!r}"
                )
            else:
                log.append(
                    f"wav.scp: dropped repeated identical entry for {e.file_id!r}"
                )
            continue
        wav_seen[e.file_id] = e.source
        wav_scp.append(e)

    wav_ids = set(wav_seen)
    backed_segments = []
    for line in segments:
        if line.file_id not in wav_ids:
            log.append(
                f"segments: dropped {line.utt!r} (file ID {line.file_id!r} "
                "not in wav.scp)"
            )
            continue
        backed_segments.append(line)
    segments = backed_segments

    survivors = (
        {l.utt for l in text}
        & {l.utt for l in segments}
        & {u for u, _ in utt2spk}
    )

    def keep(pairs, name, key):
        out = []
        for p in pairs:
            if key(p) in survivors:
                out.append(p)
            else:
                log.append(f"{name}: dropped {key(p)!r} (not present everywhere)")
        return out

    text = keep(text, "text", lambda l: l.utt)
    segments = keep(segments, "segments", lambda l: l.utt)
    utt2spk = keep(utt2spk, "utt2spk", lambda p: p[0])

    if not survivors:
        raise EmptyResult("no utterance present in all of text/segments/utt2spk")

    referenced = {l.file_id for l in segments}
    kept_wav = []
    for e in wav_scp:
        if e.file_id in referenced:
            kept_wav.append(e)
        else:
            log.append(f"wav.scp: dropped {e.file_id!r} (no surviving segment)")
    wav_scp = kept_wav

    text.sort(key=lambda l: _bytes_key(l.utt))
    segments.sort(key=lambda l: _bytes_key(l.utt))
    utt2spk.sort(key=lambda p: _bytes_key(p[0]))
    wav_scp.sort(key=lambda e: _bytes_key(e.file_id))
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


def build_from_records(records: list[UtteranceRecord]) -> KaldiDataDir:
    """Produce a consistent, sorted data directory in one pass."""
    if not records:
        raise KaldiDataError("no records given")
    seen: set[str] = set()
    sources: dict[str, str] = {}
    for r in records:
        if r.utt in seen:
            raise DuplicateUtt(f"duplicate utterance ID {r.utt!r}")
        seen.add(r.utt)
        if r.file_id in sources and sources[r.file_id] != r.source:
            raise KaldiDataError(
                f"file ID {r.file_id!r} has conflicting audio sources"
            )
        sources[r.file_id] = r.source

    ordered = sorted(records, key=lambda r: _bytes_key(r.utt))
    text = [TranscriptLine(r.utt, tuple(r.words)) for r in ordered]
    segments = [SegmentLine(r.utt, r.file_id, r.start, r.end) for r in ordered]
    for line in segments:
        if not line.ok:
            raise KaldiDataError(
                f"utterance {line.utt!r}: start {line.start} not before end "
                f"{line.end}"
            )
    utt2spk = [(r.utt, _check_token(r.speaker, "speaker")) for r in ordered]
    wav_scp = [
        WavScpEntry(fid, sources[fid])
        for fid in sorted(sources, key=_bytes_key)
    ]
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
