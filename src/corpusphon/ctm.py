"""CTM post-processing: from aligner output to per-file word alignments.

The pipeline: parse the 5-field CTM, map numeric phone IDs to symbols via
the phones.txt table, join each line with its segments row, regroup phones
into words via their B/I/E/S position suffixes, and match each
reconstructed pronunciation to its lexicon word. The 11-column intermediate
table is written for downstream scripts that expect it. The CTM and
phones.txt are read through rows.read_rows, which decides line breaks,
blank lines, field counts and finite times; the parsers here add only
their formats' own rules (an integer channel, a non-negative start, a
positive duration, a decimal phone ID; unique phones.txt IDs and symbols).

Each CTM line is joined with its segments row once (`alignment_rows`),
into one `PhoneToken`: the table's 11 columns, utterance and file times
included, plus the split position suffix. The one token list feeds both
the table (`render_alignment_table`, which yields encoded chunks, so the
table is never one string) and the word alignment. That runs in two steps:
`align_corpus` splits the corpus into files, each file's tokens grouped by
utterance, and `align_file` groups and matches one file's words, so an
error in one utterance costs only its file. Per-line work that depends only
on a symbol or a time (the position split, the table's time formatting) is
done once per distinct value. Entries and tokens share one string per
distinct utterance ID and phone column. A caller that drops the entries
once the tokens are built, and each file's tokens once its grid is written,
holds both lists only inside `alignment_rows`. Everything here is pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterator, NamedTuple

from .errors import ToolkitError
from .kaldi import SegmentLine
from .lexicon import Lexicon, Pron, split_position
from .rows import read_rows
from .textgrid import Interval, IntervalTier, format_seconds

SILENCE_SYMBOLS = frozenset({"SIL", "sp", "SP", "oov", "<eps>"})

TIME_TOL = 1e-6

ALIGNMENT_HEADER = (
    "file_utt\tfile\tid\tali\tstartinutt\tdur\tphone\t"
    "start_utt\tend_utt\tstart\tend"
)

TABLE_CHUNK_ROWS = 4096  # lines of final_ali.txt encoded per chunk

class CtmError(ToolkitError):
    pass


class MalformedCtmLine(CtmError):
    """Wrong field count, or a numeric field that is not a finite number."""


class UnknownPhoneId(CtmError):
    """Numeric phone ID absent from the symbol table."""


class UnknownUtterance(CtmError):
    """CTM utterance with no segments row."""


class PronunciationMismatch(CtmError):
    """Observed phone sequence not among the lexicon prons for the word."""


class AmbiguousPron(CtmError):
    """Several lexicon words share the pronunciation and no reference given."""


class TokenBeyondDuration(CtmError):
    """Phone token extends past the declared file duration."""


class CtmEntry(NamedTuple):
    utt: str
    channel: int
    start: float
    dur: float
    phone: str  # the raw phone column: a decimal ID or a symbol
    line: int = 0


class PhoneToken(NamedTuple):
    """One CTM line joined with its segment: a table row and a word-alignment token."""

    utt: str
    file_id: str
    phone_field: str  # the raw CTM phone column (ID or symbol)
    channel: int
    start_in_utt: float
    dur: float
    phone: str  # resolved full symbol
    utt_start: float
    utt_end: float
    start: float  # on the file timeline
    end: float
    phone_base: str  # symbol without the position suffix (stress retained)
    position: str | None  # B, I, E, S, or None for suffixless symbols


@dataclass(slots=True, unsafe_hash=True)
class WordUnit:
    pron: Pron
    start: float
    end: float
    phones: tuple[PhoneToken, ...]


@dataclass(slots=True, unsafe_hash=True)
class GroupDefect:
    token_index: int
    message: str


@dataclass
class GroupResult:
    units: list[WordUnit] = field(default_factory=list)
    non_words: list[PhoneToken] = field(default_factory=list)
    defects: list[GroupDefect] = field(default_factory=list)


@dataclass(slots=True, unsafe_hash=True)
class AlignedWord:
    word: str
    pron: Pron
    file_id: str
    start: float
    end: float
    phones: tuple[PhoneToken, ...]


@dataclass(frozen=True)
class PhoneSymbolTable:
    """The data/lang phones.txt map from integer IDs to phone symbols."""

    by_id: dict[int, str]

    @classmethod
    def parse(cls, content: str) -> "PhoneSymbolTable":
        by_id: dict[int, str] = {}
        symbols: set[str] = set()
        for i, (symbol, raw_id) in read_rows(
            content, "phones.txt", CtmError, 2, "expected 'symbol id'"
        ):
            try:
                pid = int(raw_id)
            except ValueError:
                raise CtmError(f"phones.txt line {i}: non-integer ID") from None
            if pid in by_id:
                raise CtmError(f"phones.txt line {i}: duplicate ID {pid}")
            if symbol in symbols:
                raise CtmError(f"phones.txt line {i}: duplicate symbol {symbol!r}")
            by_id[pid] = symbol
            symbols.add(symbol)
        return cls(by_id)


# ---------------------------------------------------------------------------
# parsing and resolution


def parse_ctm(content: str) -> list[CtmEntry]:
    """Parse `utt channel start dur phone` lines; the phone column is kept as text."""
    entries = []
    share = {}.setdefault  # the first string read for each distinct value
    new = tuple.__new__  # skips CtmEntry's Python-level __new__, once per line
    rows = read_rows(content, "", MalformedCtmLine, 5, "expected 5 fields, got {got}",
                     times=(2, 3))
    for i, (utt, raw_channel, _, _, raw_phone, start, dur) in rows:
        try:
            channel = int(raw_channel)
        except ValueError:
            raise MalformedCtmLine(f"line {i}: non-integer channel") from None
        if start < 0:
            raise MalformedCtmLine(f"line {i}: negative start time")
        if dur <= 0:
            raise MalformedCtmLine(f"line {i}: non-positive duration")
        if raw_phone.isdigit() and not raw_phone.isdecimal():  # "²": no int()
            raise MalformedCtmLine(
                f"line {i}: phone ID {raw_phone!r} is not a decimal integer"
            )
        entry = (share(utt, utt), channel, start, dur, share(raw_phone, raw_phone), i)
        entries.append(new(CtmEntry, entry))
    return entries


def resolve_phone_ids(
    entries: list[CtmEntry], table: PhoneSymbolTable
) -> list[str]:
    """The phone symbol of each entry: decimal IDs looked up, symbols kept."""
    by_id = table.by_id
    by_column: dict[str, str] = {}  # each distinct phone column converted once
    symbols = []
    for e in entries:
        phone = by_column.get(e.phone)
        if phone is None:
            phone = by_id.get(int(e.phone)) if e.phone.isdecimal() else e.phone
            if phone is None:
                raise UnknownPhoneId(
                    f"line {e.line}: phone ID {e.phone} not in phones.txt"
                )
            by_column[e.phone] = phone
        symbols.append(phone)
    return symbols


def alignment_rows(
    entries: list[CtmEntry],
    segments: list[SegmentLine],
    symbols: list[str],
) -> list[PhoneToken]:
    """Join each CTM entry with its segments row, in CTM order.

    The CTM reports times relative to the utterance; the segments row
    supplies the utterance's offset and file ID. symbols is the
    resolve_phone_ids list for entries; the B/I/E/S word-position suffix
    is split off each distinct symbol once.
    """
    seg_by_utt = {s.utt: s for s in segments}
    split: dict[str, tuple[str, str | None]] = {}
    tokens = []
    for (utt, channel, in_utt, dur, raw, line), phone in zip(entries, symbols):
        seg = seg_by_utt.get(utt)
        if seg is None:
            raise UnknownUtterance(f"line {line}: utterance {utt!r} has no segments row")
        parts = split.get(phone)
        if parts is None:
            parts = split[phone] = split_position(phone)
        start = seg.start + in_utt
        tokens.append(
            PhoneToken(
                utt, seg.file_id, raw, channel, in_utt, dur, phone,
                seg.start, seg.end, start, start + dur, *parts,
            )
        )
    return tokens


# ---------------------------------------------------------------------------
# word grouping and matching


def group_words(tokens: list[PhoneToken]) -> GroupResult:
    """Regroup phones into word units via their B/I/E/S suffixes.

    A unit opens at B and closes at E; S is a singleton unit. Suffixless
    tokens go to the non-word list; one outside SILENCE_SYMBOLS is also
    reported as a defect, since word phones should carry a position.
    Orphaned positions are reported, the offending tokens land in the
    non-word list, and grouping resumes at the next B or S, so one aligner
    glitch never discards a whole file. Every input token ends up in
    exactly one word unit or the non-word list.
    """
    result = GroupResult()
    open_run: list[tuple[int, PhoneToken]] = []

    def abandon(reason: str) -> None:
        if open_run:
            idx = open_run[0][0]
            result.defects.append(GroupDefect(idx, reason))
            result.non_words.extend(t for _, t in open_run)
            open_run.clear()

    def close() -> None:
        phones = tuple(t for _, t in open_run)
        pron = tuple(t.phone_base for t in phones)
        result.units.append(WordUnit(pron, phones[0].start, phones[-1].end, phones))
        open_run.clear()

    for i, token in enumerate(tokens):
        pos = token.position
        if pos is None:
            abandon(f"token {i}: word interrupted by {token.phone!r}")
            if token.phone_base not in SILENCE_SYMBOLS:
                result.defects.append(
                    GroupDefect(
                        i,
                        f"token {i}: {token.phone!r} has no word-position "
                        "suffix and is not a known silence symbol",
                    )
                )
            result.non_words.append(token)
        elif pos == "B":
            abandon(f"token {i}: new word starts before previous one ended")
            open_run.append((i, token))
        elif pos == "S":
            abandon(f"token {i}: singleton starts before previous word ended")
            open_run.append((i, token))
            close()
        elif pos == "I":
            if not open_run:
                result.defects.append(
                    GroupDefect(i, f"token {i}: internal phone with no open word")
                )
                result.non_words.append(token)
            else:
                open_run.append((i, token))
        elif pos == "E":
            if not open_run:
                result.defects.append(
                    GroupDefect(i, f"token {i}: final phone with no open word")
                )
                result.non_words.append(token)
            else:
                open_run.append((i, token))
                close()
    abandon("word still open at end of stream")
    return result


def match_words(
    units: list[WordUnit],
    lex: Lexicon,
    reference_words: list[str] | None = None,
) -> list[AlignedWord]:
    """Attach lexicon words to reconstructed pronunciation units.

    With a reference word list (the data-dir text line), units match
    positionally and each pronunciation is checked against the word's
    lexicon entries. Without one, the reverse index must name a unique
    candidate; homophones raise AmbiguousPron.
    """
    out = []
    if reference_words is not None:
        if len(units) != len(reference_words):
            raise PronunciationMismatch(
                f"{len(units)} word units but {len(reference_words)} "
                "reference words"
            )
        for unit, word in zip(units, reference_words):
            if unit.pron not in lex.prons(word):
                raise PronunciationMismatch(
                    f"word {word!r}: observed pronunciation "
                    f"{' '.join(unit.pron)!r} not in lexicon"
                )
            out.append(_aligned(word, unit))
        return out

    rev = lex.reverse()
    for unit in units:
        candidates = rev.get(unit.pron, [])
        if not candidates:
            raise PronunciationMismatch(
                f"no lexicon word pronounced {' '.join(unit.pron)!r}"
            )
        if len(candidates) > 1:
            raise AmbiguousPron(
                f"pronunciation {' '.join(unit.pron)!r} is shared by "
                f"{', '.join(candidates)}"
            )
        out.append(_aligned(candidates[0], unit))
    return out


def _aligned(word: str, unit: WordUnit) -> AlignedWord:
    file_id = unit.phones[0].file_id
    return AlignedWord(word, unit.pron, file_id, unit.start, unit.end, unit.phones)


# ---------------------------------------------------------------------------
# tier construction


def phones_to_tier(tokens: list[PhoneToken], file_duration: float) -> IntervalTier:
    """The "phones" tier: one interval per token, labeled with the full suffixed symbol."""
    return _tier("phones", file_duration, "token", [(t.phone, t.start, t.end) for t in tokens])


def words_to_tier(words: list[AlignedWord], file_duration: float) -> IntervalTier:
    """The "words" tier: one interval per aligned word."""
    return _tier("words", file_duration, "word", [(w.word, w.start, w.end) for w in words])


def _tier(
    name: str, file_duration: float, kind: str, spans: list[tuple[str, float, float]]
) -> IntervalTier:
    for label, start, end in spans:
        if end > file_duration + TIME_TOL:
            raise TokenBeyondDuration(
                f"{kind} {label!r} ends at {end} but the file is {file_duration} s"
            )
    intervals = tuple(
        Interval(start, min(end, file_duration), label) for label, start, end in spans
    )
    return IntervalTier(name, 0.0, file_duration, intervals).normalized()


# ---------------------------------------------------------------------------
# the 11-column intermediate table


class _Seconds(dict):
    """format_seconds of each distinct time, computed on first lookup."""

    def __missing__(self, t: float) -> str:
        s = format_seconds(t)
        if t:  # 0.0 and -0.0 are one key but two renderings
            self[t] = s
        return s


def render_alignment_table(tokens: list[PhoneToken]) -> Iterator[bytes]:
    """final_ali.txt as UTF-8 chunks of TABLE_CHUNK_ROWS lines, the header first."""
    sec = _Seconds()
    rows = [ALIGNMENT_HEADER + "\n"]
    for (utt, file_id, phone_field, channel, start_in_utt, dur, phone,
         utt_start, utt_end, start, end, _, _) in tokens:
        if len(rows) == TABLE_CHUNK_ROWS:
            yield "".join(rows).encode("utf-8")
            rows.clear()
        rows.append(
            f"{utt}\t{file_id}\t{phone_field}\t{channel}\t{sec[start_in_utt]}\t"
            f"{sec[dur]}\t{phone}\t{sec[utt_start]}\t{sec[utt_end]}\t"
            f"{sec[start]}\t{sec[end]}\n"
        )
    yield "".join(rows).encode("utf-8")


# ---------------------------------------------------------------------------
# the corpus split and the per-file alignment


def align_corpus(
    tokens: list[PhoneToken], segments: list[SegmentLine]
) -> dict[str, dict[str, list[PhoneToken]]]:
    """Each file's alignment_rows tokens, grouped by utterance.

    Utterances come in segments order, each once, with their tokens in CTM
    order; files come in byte-sorted order.
    """
    by_utt: dict[str, list[PhoneToken]] = {}
    for t in tokens:
        by_utt.setdefault(t.utt, []).append(t)
    by_file: dict[str, dict[str, list[PhoneToken]]] = {}
    for seg in segments:
        utt_tokens = by_utt.get(seg.utt)
        if utt_tokens:
            by_file.setdefault(utt_tokens[0].file_id, {})[seg.utt] = utt_tokens
    return dict(sorted(by_file.items()))


def align_file(
    utterances: dict[str, list[PhoneToken]],
    lex: Lexicon,
    text: dict[str, list[str]] | None = None,
) -> tuple[list[PhoneToken], list[AlignedWord]]:
    """One file's phone tokens and aligned words, each sorted by start time.

    Word grouping and matching run per utterance, so the reference
    transcript (when given) applies positionally. A CtmError names the
    utterance it arose in.
    """
    words: list[AlignedWord] = []
    for utt, utt_tokens in utterances.items():
        try:
            units = group_words(utt_tokens).units
            words += match_words(units, lex, text.get(utt) if text is not None else None)
        except CtmError as exc:
            raise type(exc)(f"utterance {utt}: {exc}") from None
    by_start = attrgetter("start")
    tokens = sorted((t for ts in utterances.values() for t in ts), key=by_start)
    return tokens, sorted(words, key=by_start)


def corpus_durations(segments: list[SegmentLine]) -> dict[str, float]:
    """File durations: the last segment end per file."""
    out: dict[str, float] = {}
    for seg in segments:
        out[seg.file_id] = max(out.get(seg.file_id, 0.0), seg.end)
    return out
