"""CTM post-processing: from aligner output to per-file word alignments.

The pipeline: read the 5-field CTM into phone tokens, regroup each
utterance's phones into words via their B/I/E/S position suffixes, and
match each reconstructed pronunciation to its lexicon word. The 11-column
intermediate table is written for downstream scripts that expect it.

One reader, `read_ctm`, takes each CTM line from rows.read_rows (which
decides line breaks, blank lines, field counts and finite times) to the
`PhoneToken` it ends as before it reads the next: it checks the CTM's own
rules (an integer channel, a non-negative start, a positive duration, a
decimal phone ID), maps a numeric phone ID to its symbol through the
phones.txt table, splits off the position suffix, and joins the line with
its segments row for the file ID and file times. So the first bad line in
line order is the one reported, and no per-line list but the tokens is
built. The channel's conversion, the resolution and the suffix split run
once per distinct column, the segments lookup once per run of an utterance's
lines; tokens share one string per distinct utterance ID and phone column.
`parse_ctm`, `resolve_phone_ids` and `alignment_rows` expose the reader's
stages one at a time over the same code.

The one token list feeds both the table (`render_alignment_table`, which
yields encoded chunks, so the table is never one string) and the word
alignment. That runs in two steps: `align_corpus` splits the corpus into
files, each file's tokens grouped by utterance, and `align_file` groups and
matches one file's words, so an error in one utterance costs only its file.
A caller that drops each file's tokens once its grid is written holds the
corpus once. Everything here is pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, groupby
from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple

from .errors import ToolkitError
from .kaldi import SegmentLine
from .lexicon import Lexicon, Pron, split_position
from .rows import format_seconds, read_rows
from .textgrid import Interval, IntervalTier

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
# the CTM reader


def read_ctm(
    content: str, segments: list[SegmentLine], table: PhoneSymbolTable,
) -> list[PhoneToken]:
    """The phone token of each CTM line, in CTM order, from one pass over the lines.

    Each line is checked, its phone column resolved and it is joined with its
    segments row before the next line is read, so the first bad line in line
    order is the one reported.
    """
    return _join(_lines(content), segments, lambda column, line: _symbol(column, line, table))


def parse_ctm(content: str) -> list[CtmEntry]:
    """read_ctm's checked lines, before resolution and the join."""
    return list(map(CtmEntry._make, _lines(content)))


def resolve_phone_ids(entries: list[CtmEntry], table: PhoneSymbolTable) -> list[str]:
    """The phone symbol of each entry, as read_ctm resolves it."""
    return [_symbol(e.phone, e.line, table) for e in entries]


def alignment_rows(
    entries: list[CtmEntry], segments: list[SegmentLine], symbols: list[str]
) -> list[PhoneToken]:
    """read_ctm's tokens for entries whose phone columns resolve to symbols."""
    given = {e.phone: phone for e, phone in zip(entries, symbols)}
    return _join(entries, segments, lambda column, line: given[column])


def _lines(content: str) -> Iterator[tuple[str, int, float, float, str, int]]:
    """(utterance, channel, start, duration, phone column, line) of each line, checked."""
    rows = read_rows(content, "", MalformedCtmLine, 5, "expected 5 fields, got {got}",
                     times=(2, 3))
    channels: dict[str, int] = {}  # each distinct channel column converted once
    for i, (utt, raw_channel, _, _, column, start, dur) in rows:
        if (channel := channels.get(raw_channel)) is None:
            try:
                channel = channels[raw_channel] = int(raw_channel)
            except ValueError:
                raise MalformedCtmLine(f"line {i}: non-integer channel") from None
        if start < 0:
            raise MalformedCtmLine(f"line {i}: negative start time")
        if dur <= 0:
            raise MalformedCtmLine(f"line {i}: non-positive duration")
        if column.isdigit() and not column.isdecimal():  # "²": no int()
            raise MalformedCtmLine(f"line {i}: phone ID {column!r} is not a decimal integer")
        yield utt, channel, start, dur, column, i


def _symbol(column: str, line: int, table: PhoneSymbolTable) -> str:
    """A phone column's symbol: a decimal ID looked up in phones.txt, a symbol kept."""
    phone = table.by_id.get(int(column)) if column.isdecimal() else column
    if phone is None:
        raise UnknownPhoneId(f"line {line}: phone ID {column} not in phones.txt")
    return phone


def _join(lines: Iterable[tuple], segments: list[SegmentLine], resolve) -> list[PhoneToken]:
    """Each line joined with its segments row into a token.

    The CTM reports times relative to the utterance; the segments row
    supplies the utterance's offset and file ID. resolve(column, line) is
    called once per distinct phone column, whose B/I/E/S word-position
    suffix is split off then, and segments rows are looked up once per run of
    lines of an utterance. Tokens share the segments row's utterance ID
    and the first string read for each phone column.
    """
    seg_by_utt = {s.utt: s for s in segments}
    phones: dict[str, tuple[str, str, str, str | None]] = {}
    tokens = []
    append, new = tokens.append, tuple.__new__  # new skips PhoneToken's Python-level __new__
    seg = None
    for utt, channel, in_utt, dur, column, line in lines:
        phone = phones.get(column)
        if phone is None:
            symbol = resolve(column, line)
            phone = phones[column] = (column, symbol, *split_position(symbol))
        if seg is None or utt != seg.utt:
            seg = seg_by_utt.get(utt)
            if seg is None:
                raise UnknownUtterance(f"line {line}: utterance {utt!r} has no segments row")
        start = seg.start + in_utt
        append(new(PhoneToken, (seg.utt, seg.file_id, phone[0], channel, in_utt, dur, phone[1],
                                seg.start, seg.end, start, start + dur, phone[2], phone[3])))
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
    units, non_words, defects = result.units, result.non_words, result.defects
    run: list[PhoneToken] = []  # the open word's tokens
    first = 0  # the index of its first token
    for i, token in enumerate(tokens):
        pos = token.position
        if pos == "I" or pos == "E":
            if not run:
                kind = "internal" if pos == "I" else "final"
                defects.append(GroupDefect(i, f"token {i}: {kind} phone with no open word"))
                non_words.append(token)
                continue
            run.append(token)
        else:
            if run:  # a B, S or suffixless token abandons the open word
                defects.append(GroupDefect(first, _ABANDONED[pos].format(i, token.phone)))
                non_words += run
                run = []
            if pos is None:
                if token.phone_base not in SILENCE_SYMBOLS:
                    defects.append(GroupDefect(
                        i, f"token {i}: {token.phone!r} has no word-position "
                        "suffix and is not a known silence symbol",
                    ))
                non_words.append(token)
                continue
            run, first = [token], i
        if pos == "E" or pos == "S":
            units.append(WordUnit(tuple(map(_BASE, run)), run[0].start, token.end, tuple(run)))
            run = []
    if run:
        defects.append(GroupDefect(first, "word still open at end of stream"))
        non_words += run
    return result


_BASE = attrgetter("phone_base")
# why group_words abandons an open word, by the position of the token that ends it
_ABANDONED = {
    None: "token {}: word interrupted by {!r}",
    "B": "token {}: new word starts before previous one ended",
    "S": "token {}: singleton starts before previous word ended",
}


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
    return _tier("phones", file_duration, "token", map(attrgetter("phone", "start", "end"), tokens))


def words_to_tier(words: list[AlignedWord], file_duration: float) -> IntervalTier:
    """The "words" tier: one interval per aligned word."""
    return _tier("words", file_duration, "word", map(attrgetter("word", "start", "end"), words))


def _tier(name: str, file_duration: float, kind: str, spans: Iterable[tuple]) -> IntervalTier:
    """A tier of the spans, each end within TIME_TOL of the file clamped to it, gaps filled."""
    limit = file_duration + TIME_TOL
    intervals = []
    for label, start, end in spans:
        if end > file_duration:
            if end > limit:
                raise TokenBeyondDuration(
                    f"{kind} {label!r} ends at {end} but the file is {file_duration} s"
                )
            end = file_duration
        intervals.append(Interval(start, end, label))
    return IntervalTier(name, 0.0, file_duration, tuple(intervals)).normalized()


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
    seg = (None,) * 4  # utterance columns, formatted once per run of tokens holding these objects
    for (utt, file_id, phone_field, channel, start_in_utt, dur, phone,
         utt_start, utt_end, start, end, _, _) in tokens:
        if len(rows) == TABLE_CHUNK_ROWS:
            yield "".join(rows).encode("utf-8")
            rows.clear()
        if not (utt is seg[0] and file_id is seg[1] and utt_start is seg[2] and utt_end is seg[3]):
            seg = utt, file_id, utt_start, utt_end
            head, times = f"{utt}\t{file_id}\t", f"\t{sec[utt_start]}\t{sec[utt_end]}\t"
        rows.append(
            f"{head}{phone_field}\t{channel}\t{sec[start_in_utt]}\t"
            f"{sec[dur]}\t{phone}{times}{sec[start]}\t{sec[end]}\n"
        )
    yield "".join(rows).encode("utf-8")


# ---------------------------------------------------------------------------
# the corpus split and the per-file alignment


def align_corpus(
    tokens: list[PhoneToken], segments: list[SegmentLine]
) -> dict[str, dict[str, list[PhoneToken]]]:
    """Each file's read_ctm tokens, grouped by utterance.

    Utterances come in segments order, each once, with their tokens in CTM
    order; files come in byte-sorted order.
    """
    by_utt: dict[str, list[PhoneToken]] = {}
    for utt, run in groupby(tokens, attrgetter("utt")):  # one call per run of an utterance
        by_utt.setdefault(utt, []).extend(run)
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
    tokens = sorted(chain.from_iterable(utterances.values()), key=by_start)
    return tokens, sorted(words, key=by_start)


def corpus_durations(segments: list[SegmentLine]) -> dict[str, float]:
    """File durations: the last segment end per file."""
    out: dict[str, float] = {}
    for seg in segments:
        out[seg.file_id] = max(out.get(seg.file_id, 0.0), seg.end)
    return out
