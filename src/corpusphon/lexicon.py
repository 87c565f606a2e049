"""Pronunciation lexicons, word lists, and Kaldi phone-set files.

A lexicon is an ordered multimap from orthographic word to one or more phone
sequences ("Multiple pronunciation variants are fine"). Word matching is
case-sensitive; uppercasing belongs to transcript normalization, not lookup.
"""

from __future__ import annotations

import enum
import re
import warnings
from dataclasses import dataclass, field

from .errors import ToolkitError, ToolkitWarning
from .rows import read_rows

# Arpabet vowel bases; stress digits 0/1/2 attach only to these.
VOWELS = frozenset(
    "AA AE AH AO AW AY EH ER EY IH IY OW OY UH UW".split()
)

DEFAULT_OOV = ("<oov>", "oov")
DEFAULT_STRIP_CHARS = ".,?!;:"

# a word-position suffix on a phone symbol (Kaldi's _B, _I, _E, _S)
_POSITION_RE = re.compile(r"^(.*)_([BIES])$")


class LexiconError(ToolkitError):
    pass


class MalformedLine(LexiconError):
    """A lexicon line with a word but no phones."""


class DuplicateEntryWarning(ToolkitWarning):
    """Identical (word, pronunciation) pair seen twice; collapsed to one."""


Pron = tuple[str, ...]


def stress_base(symbol: str) -> str:
    """The symbol without its stress digit when it is a valid vowel."""
    if symbol and symbol[-1] in "012" and symbol[:-1] in VOWELS:
        return symbol[:-1]
    return symbol


def split_position(symbol: str) -> tuple[str, str | None]:
    m = _POSITION_RE.match(symbol)
    if m:
        return m.group(1), m.group(2)
    return symbol, None


def is_vowel(symbol: str) -> bool:
    return stress_base(symbol) in VOWELS


class Separator(enum.Enum):
    ANY_WHITESPACE = "whitespace"
    TWO_SPACES = "two-spaces"
    TAB = "tab"


# the str.split separator between a word and its phones
_SEPARATORS = {Separator.ANY_WHITESPACE: None, Separator.TWO_SPACES: "  ", Separator.TAB: "\t"}


@dataclass
class Lexicon:
    """Ordered (word, pronunciation) entries plus a word index."""

    entries: list[tuple[str, Pron]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._index: dict[str, list[Pron]] = {}
        for word, pron in self.entries:
            self._index.setdefault(word, []).append(pron)
        self._reverse: dict[Pron, list[str]] | None = None

    def prons(self, word: str) -> list[Pron]:
        return list(self._index.get(word, []))

    def __contains__(self, word: str) -> bool:
        return word in self._index

    def phones(self) -> set[str]:
        return {p for _, pron in self.entries for p in pron}

    def reverse(self) -> dict[Pron, list[str]]:
        """Pronunciation -> candidate words, in entry order, deduplicated.

        Built on the first call and shared by every later one: callers only read it.
        """
        if self._reverse is None:
            self._reverse = {}
            for word, pron in self.entries:
                bucket = self._reverse.setdefault(pron, [])
                if word not in bucket:
                    bucket.append(word)
        return self._reverse


def parse_lexicon(
    content: str, separator: Separator = Separator.ANY_WHITESPACE,
    words: set[str] | None = None,
) -> Lexicon:
    """Parse `WORD <sep> PH PH ...` lines, split by rows.read_rows; blank lines are skipped.

    Identical duplicate entries collapse to one with a DuplicateEntryWarning;
    a word with no phones is a MalformedLine. Given words, only their entries
    are kept, but every line is still checked and warned about.
    """
    entries: list[tuple[str, Pron]] = []
    first: dict[str, str] = {}  # each word's phones as its first line gave them
    seen: set[tuple[str, Pron]] = set()  # the entries of words given more than once
    rows = read_rows(content, "", MalformedLine, 1, "missing word",
                     sep=_SEPARATORS[separator], maxsplit=1, exact=False)
    for i, fields in rows:  # indexed, not unpacked: a lexicon has 1e5 lines
        word = fields[0].strip()
        raw = fields[1] if len(fields) > 1 else ""
        if not word:
            raise MalformedLine(f"line {i}: missing word")
        if not raw or raw.isspace():  # str.split() splits on the same whitespace
            raise MalformedLine(f"line {i}: word {word!r} has no phones")
        if word in first:  # phones are split only for a word given again or kept
            seen.add((word, tuple(first[word].split())))
            entry = (word, tuple(raw.split()))
            if entry in seen:
                warnings.warn(f"line {i}: duplicate entry for {word!r} collapsed",
                              DuplicateEntryWarning, stacklevel=2)
                continue
            seen.add(entry)
        else:
            first[word] = raw
        if words is None or word in words:
            entries.append((word, tuple(raw.split())))
    return Lexicon(entries)


def render_lexicon(lex: Lexicon) -> str:
    """`WORD PH PH ...` lines with single spaces, whatever separator was read."""
    return "".join(f"{word} {' '.join(pron)}\n" for word, pron in lex.entries)


# ---------------------------------------------------------------------------
# word lists


@dataclass(frozen=True)
class NormalizationPolicy:
    uppercase: bool = True
    strip_chars: str = DEFAULT_STRIP_CHARS
    keep_apostrophe: bool = True


# noise/silence markup passes through transcript normalization untouched
MARKUP_TOKENS = frozenset({"{NS}", "{SP}"})


def extract_word_list(
    transcripts: str, policy: NormalizationPolicy = NormalizationPolicy()
) -> set[str]:
    """The set of normalized words.

    Punctuation is stripped from the word rather than deleting the word, so
    the vocabulary never silently shrinks.
    """
    # one table per call: a corpus has tens of thousands of tokens
    drop = str.maketrans("", "", policy.strip_chars + ("" if policy.keep_apostrophe else "'"))
    words = {
        token if token in MARKUP_TOKENS
        else (token.upper() if policy.uppercase else token).translate(drop)
        for token in transcripts.split()
    }
    words.discard("")
    return words


# ---------------------------------------------------------------------------
# filtering and phone sets


def filter_lexicon(
    lex: Lexicon,
    words: set[str],
    oov_entry: tuple[str, str] = DEFAULT_OOV,
) -> Lexicon:
    """Keep only corpus words, with the out-of-vocabulary entry first."""
    oov_word, oov_phone = oov_entry
    entries: list[tuple[str, Pron]] = [(oov_word, (oov_phone,))]
    entries += [e for e in lex.entries if e[0] in words]
    return Lexicon(entries)


def missing_words(words: set[str], lex: Lexicon) -> list[str]:
    """The words you need to add to the dictionary, byte-sorted."""
    return sorted(w for w in words if w not in lex)


def derive_nonsilence_phones(
    lex: Lexicon, exclude: frozenset[str] | set[str] = frozenset()
) -> list[list[str]]:
    """Group the lexicon's phones so that like phones share a line.

    Stress variants of one vowel form a group (AA0 AA1 AA2); consonants and
    unrecognized symbols are singleton groups. Groups come out byte-sorted.
    """
    groups: dict[str, list[str]] = {}
    for phone in lex.phones():
        if phone in exclude:
            continue
        groups.setdefault(stress_base(phone), []).append(phone)
    return [sorted(groups[base]) for base in sorted(groups)]


def render_phone_groups(groups: list[list[str]]) -> str:
    return "".join(" ".join(group) + "\n" for group in groups)


def derive_silence_files() -> tuple[str, str]:
    """(silence_phones.txt, optional_silence.txt) contents; corpus-invariant."""
    return "SIL\noov\n", "SIL\n"


def unstressed_only_prons(lex: Lexicon) -> list[tuple[str, Pron]]:
    """Entries whose vowels all carry stress 0.

    Stress digits get added by hand after lextool, so an all-unstressed
    pronunciation usually means that step was skipped. Informational only;
    plenty of function words legitimately look like this.
    """
    suspicious = []
    for word, pron in lex.entries:
        # a vowel is its base or its base and one stress digit, so "0" ends it
        vowels = [p for p in pron if is_vowel(p)]
        if vowels and all(p[-1] == "0" for p in vowels):
            suspicious.append((word, pron))
    return suspicious
