"""AutoVOT window preparation and VOT measurement post-processing.

Finds word-initial prevocalic stops, locates them on aligned TextGrids,
emits the padded analysis-window tier the external decoder consumes, and
post-processes decoded output: per-stop tier splitting for the
run-then-rename cycle, manual-vs-automatic boundary comparison, manual
override, and cue measurement (VOT, following vowel, word duration,
per-sentence speaking rate).

The discriminative decoder itself is external; this module writes its list
files and prints the recommended decode command per stop class.
"""

from __future__ import annotations

import shlex
import warnings
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

from .errors import ToolkitError, ToolkitWarning
from .lexicon import VOWELS, Lexicon, is_vowel, split_position, stress_base
from .rows import read_rows
from .textgrid import _SNAP, Interval, IntervalTier, TextGrid, format_seconds

VOICELESS = frozenset({"P", "T", "K"})
VOICED = frozenset({"B", "D", "G"})
STOP_LETTERS = VOICELESS | VOICED

# analysis-window padding around the stop: the extra odd millisecond keeps
# new boundaries off the aligner's 10 ms grid so they never collide
PAD_VOICELESS = 0.031
PAD_VOICED = 0.011

# recommended --min_vot_length per class, in ms
MIN_VOT_MS_VOICELESS = 15
MIN_VOT_MS_VOICED = 4

# a phone boundary "coincides" with a word boundary within one aligner frame
DEFAULT_COINCIDENCE_TOL = 0.011

DEFAULT_SILENT_LABELS = frozenset({"", "sp", "SP", "sil", "SIL"})

WAV_LIST_NAME = "ListWavFiles.txt"
TEXTGRID_LIST_NAME = "ListTextGrids.txt"

MEASUREMENT_FIELDS = (
    "file_id",
    "word",
    "stop",
    "burst_onset",
    "vocalic_onset",
    "vot",
    "vowel_duration",
    "word_duration",
    "speaking_rate",
)


class VotError(ToolkitError):
    pass


class PhoneAlignmentGap(VotError):
    """No phone interval starts at the word start within tolerance."""


class UnknownLabel(VotError):
    """A window label outside P/T/K/B/D/G."""


class MissingVowel(VotError):
    """No vowel interval follows the stop on the phone tier."""


class NoSentenceStructure(VotError):
    """Speaking rate requested but no double-silence sentence delimiters."""


class WindowOverlapWarning(ToolkitWarning):
    """Two analysis windows collided and were truncated at the midpoint."""


def phone_letter(label: str) -> str:
    """Phone-tier label stripped of its word-position suffix and stress.

    Kaldi-derived tiers carry labels like P_B or AE1_I; HTK-derived ones use
    plain P and AE1. Both reduce to the bare phone here.
    """
    base, _ = split_position(label)
    return stress_base(base)


def label_is_vowel(label: str) -> bool:
    return phone_letter(label) in VOWELS


@dataclass(slots=True, unsafe_hash=True)
class StopClass:
    phone: str

    def __post_init__(self) -> None:
        if self.phone not in STOP_LETTERS:
            raise UnknownLabel(f"{self.phone!r} is not a stop consonant letter")

    @property
    def voiceless(self) -> bool:
        return self.phone in VOICELESS

    @property
    def padding(self) -> float:
        return PAD_VOICELESS if self.voiceless else PAD_VOICED

    @property
    def min_vot_ms(self) -> int:
        return MIN_VOT_MS_VOICELESS if self.voiceless else MIN_VOT_MS_VOICED


@dataclass(slots=True, unsafe_hash=True)
class WordOccurrence:
    word: str
    file_id: str
    start: float
    end: float
    initial_stop: StopClass
    stop_end: float  # end of the stop interval on the phone tier


@dataclass(slots=True, unsafe_hash=True)
class VotWindow:
    label: str
    start: float
    end: float
    occurrence: WordOccurrence


@dataclass(slots=True, unsafe_hash=True)
class VotMeasurement:
    word: str
    stop: str
    burst_onset: float
    vocalic_onset: float
    vot: float
    vowel_duration: float
    word_duration: float
    speaking_rate: float | None  # None when rate measurement is skipped


# ---------------------------------------------------------------------------
# interval lookup


def _overlap_length(a: Interval, b: Interval, tol: float) -> float:
    return min(a.xmax, b.xmax) - max(a.xmin, b.xmin) + tol


class _TierIndex:
    """A tier's intervals in start order, for bisect lookups.

    reach[i] is the latest end among intervals[:i + 1], which keeps lookups
    exact on tiers whose intervals overlap, as parsed tiers can.
    """

    def __init__(self, intervals: tuple[Interval, ...]) -> None:
        self.intervals = intervals
        self.starts = [iv.xmin for iv in intervals]
        self.reach = list(accumulate((iv.xmax for iv in intervals), max))

    def overlapping(self, xmin: float, xmax: float, tol: float = 0.0) -> range:
        """Indices of all intervals whose _overlap_length with [xmin, xmax]
        can be positive, and maybe a few more: callers test each one."""
        lo = bisect_left(self.reach, True, key=lambda end: end - xmin + tol > 0)
        hi = bisect_left(self.starts, True, key=lambda s: xmax - s + tol <= 0)
        return range(lo, hi)


# ---------------------------------------------------------------------------
# finding and locating stops


def find_cv_stop_words(lex: Lexicon) -> list[str]:
    """Words starting with a stop followed by a vowel, under any pron."""
    hits = set()
    for word, pron in lex.entries:
        if len(pron) < 2:
            continue
        if stress_base(pron[0]) in STOP_LETTERS and is_vowel(pron[1]):
            hits.add(word)
    return sorted(hits)


def locate_words(
    grid: TextGrid,
    word_tier: str,
    phone_tier: str,
    words: set[str],
    file_id: str = "",
    tolerance: float = DEFAULT_COINCIDENCE_TOL,
) -> list[WordOccurrence]:
    """Start/end times of matching words, plus where their stop ends.

    All target words are word-initial stops, so the word start is the stop
    start; the stop's end is the xmax of the phone interval whose start
    coincides with the word start (aligner boundaries sit on a 10 ms grid,
    hence the just-over-one-frame tolerance).
    """
    wtier = grid.find_interval_tier(word_tier)
    phones = _TierIndex(grid.find_interval_tier(phone_tier).non_empty())
    occurrences = []
    for word_iv in wtier.non_empty():
        if word_iv.text not in words:
            continue
        # the starts within tolerance of the word's form one run: its first
        t = word_iv.xmin
        i = bisect_left(
            phones.starts, True, key=lambda s: s >= t or abs(s - t) <= tolerance
        )
        if i == len(phones.starts) or abs(phones.starts[i] - t) > tolerance:
            raise PhoneAlignmentGap(
                f"word {word_iv.text!r} at {word_iv.xmin}: no phone interval "
                f"starts there (tolerance {tolerance} s)"
            )
        stop_iv = phones.intervals[i]
        letter = phone_letter(stop_iv.text)
        if letter not in STOP_LETTERS:
            raise VotError(
                f"word {word_iv.text!r} at {word_iv.xmin}: initial phone "
                f"{stop_iv.text!r} is not a stop"
            )
        occurrences.append(
            WordOccurrence(
                word=word_iv.text,
                file_id=file_id,
                start=word_iv.xmin,
                end=word_iv.xmax,
                initial_stop=StopClass(letter),
                stop_end=stop_iv.xmax,
            )
        )
    return occurrences


# ---------------------------------------------------------------------------
# analysis windows


def plan_windows(
    occurrences: list[WordOccurrence], file_duration: float
) -> list[VotWindow]:
    """Padded analysis intervals, clamped to the file and collision-resolved.

    Voiceless stops get 31 ms of padding either side, voiced 11 ms. When two
    windows intersect, both are truncated to meet at the midpoint of the
    overlap (reported as a warning); neither token is dropped.
    """
    windows: list[VotWindow] = []
    for occ in sorted(occurrences, key=lambda o: o.start):
        pad = occ.initial_stop.padding
        start = max(0.0, occ.start - pad)
        end = min(file_duration, occ.stop_end + pad)
        windows.append(VotWindow(occ.initial_stop.phone, start, end, occ))

    for i in range(len(windows) - 1):
        a, b = windows[i], windows[i + 1]
        if b.start < a.end:
            mid = (b.start + a.end) / 2.0
            warnings.warn(
                f"windows for {a.occurrence.word!r} and {b.occurrence.word!r} "
                f"overlap in [{b.start}, {a.end}]; truncated at {mid}",
                WindowOverlapWarning,
                stacklevel=2,
            )
            windows[i] = VotWindow(a.label, a.start, mid, a.occurrence)
            windows[i + 1] = VotWindow(b.label, mid, b.end, b.occurrence)
    return windows


def make_vot_windows(
    occurrences: list[WordOccurrence],
    file_duration: float,
    name: str = "vot",
) -> IntervalTier:
    """The 'vot' tier of analysis windows the decoder checks."""
    windows = plan_windows(occurrences, file_duration)
    intervals = tuple(Interval(w.start, w.end, w.label) for w in windows)
    return IntervalTier(name, 0.0, file_duration, intervals).normalized()


def split_windows_by_stop(tier: IntervalTier) -> dict[str, IntervalTier]:
    """One gap-filled tier per stop letter, for the six decode passes."""
    buckets: dict[str, list[Interval]] = {letter: [] for letter in "PTKBDG"}
    for iv in tier.non_empty():
        if iv.text not in buckets:
            raise UnknownLabel(f"window label {iv.text!r} at {iv.xmin}")
        buckets[iv.text].append(iv)
    return {
        letter: IntervalTier(
            letter, tier.xmin, tier.xmax, tuple(ivs)
        ).normalized()
        for letter, ivs in buckets.items()
    }


# ---------------------------------------------------------------------------
# comparing and preferring manual boundaries


@dataclass(slots=True, unsafe_hash=True)
class TokenDelta:
    label: str
    manual: Interval
    auto: Interval

    @property
    def burst_delta(self) -> float:
        return self.auto.xmin - self.manual.xmin

    @property
    def vowel_delta(self) -> float:
        return self.auto.xmax - self.manual.xmax


@dataclass
class BoundaryComparison:
    pairs: list[TokenDelta]
    unpaired_manual: list[Interval]
    unpaired_auto: list[Interval]
    conflicts: list[str]


def _pair_tokens(
    manual: tuple[Interval, ...],
    auto: tuple[Interval, ...],
    tolerance: float,
) -> tuple[list[tuple[Interval, Interval]], list[str]]:
    # maximal-overlap greedy matching; a token overlapping two counterparts
    # pairs with the larger overlap and the conflict is reported
    auto_index = _TierIndex(auto)
    candidates = []
    for mi, m in enumerate(manual):
        for ai in auto_index.overlapping(m.xmin, m.xmax, tolerance):
            length = _overlap_length(m, auto[ai], tolerance)
            if length > 0:
                candidates.append((length, mi, ai))
    candidates.sort(key=lambda c: (-c[0], c[1], c[2]))

    conflicts: list[str] = []
    used_m: set[int] = set()
    used_a: set[int] = set()
    pairs = []
    for length, mi, ai in candidates:
        if mi in used_m or ai in used_a:
            if not (mi in used_m and ai in used_a):
                conflicts.append(
                    f"token at [{manual[mi].xmin}, {manual[mi].xmax}] overlaps "
                    "more than one counterpart; paired by maximal overlap"
                )
            continue
        used_m.add(mi)
        used_a.add(ai)
        pairs.append((manual[mi], auto[ai]))
    pairs.sort(key=lambda p: p[0].xmin)
    return pairs, conflicts


def compare_boundaries(
    manual_tier: IntervalTier,
    auto_tier: IntervalTier,
    pairing_tolerance: float = 0.0,
) -> BoundaryComparison:
    """Signed burst/vowel boundary deltas between manual and decoded tokens.

    Tokens pair when their spans overlap (expanded by the tolerance);
    unpaired tokens on either side are listed separately.
    """
    manual = manual_tier.non_empty()
    auto = auto_tier.non_empty()
    pairs, conflicts = _pair_tokens(manual, auto, pairing_tolerance)
    paired_m = {id(m) for m, _ in pairs}
    paired_a = {id(a) for _, a in pairs}
    return BoundaryComparison(
        pairs=[TokenDelta(a.text, m, a) for m, a in pairs],
        unpaired_manual=[m for m in manual if id(m) not in paired_m],
        unpaired_auto=[a for a in auto if id(a) not in paired_a],
        conflicts=conflicts,
    )


def prefer_manual(
    grid: TextGrid, manual_tier: str, auto_tier: str
) -> TextGrid:
    """Give each decoded token the manual boundaries where available.

    Tokens pair by maximal overlap, as in compare_boundaries. A manual token
    replaces every auto token it overlaps by more than float drift (1e-9 s)
    and takes the label of the one it pairs with: the auto token it overlaps
    most that no larger overlap claimed first. Auto tokens no manual token
    overlaps keep their own boundaries; manual tokens with no auto
    counterpart are ignored (replacement only, never insertion). Labels
    always come from the auto tier. Idempotent.
    """
    manual = grid.find_interval_tier(manual_tier).non_empty()
    atier = grid.find_interval_tier(auto_tier)
    auto = atier.non_empty()
    pairs, _ = _pair_tokens(manual, auto, 0.0)
    replacement = {id(a): m for m, a in pairs}
    # an unpaired auto token that overlaps a manual token gives way to it: that
    # manual token is paired, or greedy pairing would have paired the two
    index = _TierIndex(manual)

    new_intervals = []
    for iv in auto:
        m = replacement.get(id(iv))
        if m is not None:
            new_intervals.append(Interval(m.xmin, m.xmax, iv.text))
        elif not any(
            _overlap_length(manual[i], iv, 0.0) > _SNAP
            for i in index.overlapping(iv.xmin, iv.xmax)
        ):
            new_intervals.append(iv)

    rebuilt = IntervalTier(
        atier.name, atier.xmin, atier.xmax, tuple(new_intervals)
    ).normalized()
    tiers = tuple(
        rebuilt if t is atier else t for t in grid.tiers
    )
    return TextGrid(grid.xmin, grid.xmax, tiers)


# ---------------------------------------------------------------------------
# measurement


def _sentences(
    word_tier: IntervalTier, silent_labels: frozenset[str] | set[str]
) -> tuple[list[list[Interval]], bool]:
    """Runs of word intervals delimited by two consecutive silent intervals."""
    sentences: list[list[Interval]] = []
    current: list[Interval] = []
    found_delimiter = False
    ivs = word_tier.intervals
    i = 0
    while i < len(ivs):
        iv = ivs[i]
        silent = iv.text in silent_labels
        if silent and i + 1 < len(ivs) and ivs[i + 1].text in silent_labels:
            found_delimiter = True
            if current:
                sentences.append(current)
                current = []
            while i < len(ivs) and ivs[i].text in silent_labels:
                i += 1
            continue
        if not silent:
            current.append(iv)
        i += 1
    if current:
        sentences.append(current)
    return sentences, found_delimiter


def measure_cues(
    grid: TextGrid,
    vot_tier: str,
    phone_tier: str,
    word_tier: str,
    include_speaking_rate: bool = True,
    silent_labels: frozenset[str] | set[str] = DEFAULT_SILENT_LABELS,
) -> list[VotMeasurement]:
    """Per decoded token: VOT, following vowel, word duration, speaking rate.

    The decoded token spans burst onset to vocalic onset, so VOT is its
    length. The stop is the phone interval holding the burst onset, and the
    vowel is the phone interval immediately after the stop; the word is the
    word interval overlapping the token the most. Speaking rate is the
    mean word duration within the token's sentence, sentences being
    separated by two consecutive silent word intervals; pass
    include_speaking_rate=False when a corpus has no such structure.
    """
    vtier = grid.find_interval_tier(vot_tier)
    ptier = grid.find_interval_tier(phone_tier)
    wtier = grid.find_interval_tier(word_tier)

    # a word interval's speaking rate, from the first sentence holding it
    rates: dict[Interval, float] = {}
    if include_speaking_rate:
        sentences, found = _sentences(wtier, silent_labels)
        if not found:
            raise NoSentenceStructure(
                "no two consecutive silent word intervals anywhere; cannot "
                "delimit sentences (disable the speaking-rate measurement "
                "for this corpus)"
            )
        for sentence in sentences:
            mean = sum(iv.duration for iv in sentence) / len(sentence)
            for iv in sentence:
                rates.setdefault(iv, mean)

    phones = _TierIndex(ptier.intervals)
    words = _TierIndex(wtier.non_empty())
    measurements = []
    for token in vtier.non_empty():
        if token.text not in STOP_LETTERS:
            raise UnknownLabel(f"decoded token label {token.text!r} at {token.xmin}")

        # the stop holds the burst onset, or starts a float drift after it
        onset = token.xmin + _SNAP
        holding = [
            i for i in phones.overlapping(onset, onset)
            if phones.intervals[i].xmax > onset
        ]
        if not holding:
            raise MissingVowel(
                f"token at {token.xmin}: no phone interval holds its burst onset"
            )
        stop_iv = phones.intervals[holding[-1]]
        i = bisect_left(phones.starts, stop_iv.xmax - _SNAP)
        if i == len(phones.starts):
            raise MissingVowel(f"token at {token.xmin}: nothing follows the stop")
        vowel_iv = phones.intervals[i]
        if not label_is_vowel(vowel_iv.text):
            raise MissingVowel(
                f"token at {token.xmin}: phone after the stop is "
                f"{vowel_iv.text!r}, not a vowel"
            )

        word_iv, most = None, 0.0
        for i in words.overlapping(token.xmin, token.xmax):
            length = _overlap_length(words.intervals[i], token, 0.0)
            if length > most:
                word_iv, most = words.intervals[i], length
        if word_iv is None:
            raise VotError(f"token at {token.xmin}: no containing word interval")

        rate = None
        if include_speaking_rate:
            rate = rates.get(word_iv)
            if rate is None:
                raise NoSentenceStructure(
                    f"word {word_iv.text!r} at {word_iv.xmin} belongs to no "
                    "sentence"
                )

        measurements.append(
            VotMeasurement(
                word=word_iv.text,
                stop=token.text,
                burst_onset=token.xmin,
                vocalic_onset=token.xmax,
                vot=token.xmax - token.xmin,
                vowel_duration=vowel_iv.duration,
                word_duration=word_iv.duration,
                speaking_rate=rate,
            )
        )
    return measurements


# ---------------------------------------------------------------------------
# interchange files and decode commands


def render_word_list(words: list[str]) -> str:
    return "".join(w + "\n" for w in words)


def render_word_locations(occurrences: list[WordOccurrence]) -> str:
    return "".join(
        "\t".join(
            [
                occ.file_id,
                occ.word,
                format_seconds(occ.start),
                format_seconds(occ.end),
                occ.initial_stop.phone,
                format_seconds(occ.stop_end),
            ]
        )
        + "\n"
        for occ in occurrences
    )


def parse_word_locations(content: str) -> list[WordOccurrence]:
    rows = read_rows(content, "locations", VotError, 6, "expected 6 columns", sep="\t",
                     times=(2, 3, 5))
    return [WordOccurrence(word, file_id, start, end, StopClass(stop), stop_end)
            for _, (file_id, word, _, _, stop, _, start, end, stop_end) in rows]


def render_path_list(paths: list[Path | str]) -> str:
    """One absolute path per line, as the decoder's list files expect."""
    return "".join(str(Path(p).resolve()) + "\n" for p in paths)


def decode_command(
    stop_letter: str,
    wav_list: str = WAV_LIST_NAME,
    textgrid_list: str = TEXTGRID_LIST_NAME,
    classifier: str = "<path/to/classifier.model>",
    window_tier: str = "vot",
) -> str:
    """The recommended external decoder invocation for one stop class and window tier.

    The tier, paths and classifier are shell-quoted, so a value holding a space
    or a shell metacharacter stays one argument; a plain value prints as is.
    """
    stop = StopClass(stop_letter)
    tier, wavs, grids, model = map(shlex.quote, (window_tier, wav_list, textgrid_list, classifier))
    return (
        f"auto_vot_decode.py --window_tier {tier} "
        f"--window_mark {stop.phone} --min_vot_length {stop.min_vot_ms} "
        f"{wavs} {grids} {model}"
    )


def render_measurements(per_file: list[tuple[str, list[VotMeasurement]]]) -> str:
    """Tab-separated table: a header row, then one row per (file ID, measurement)."""
    lines = ["\t".join(MEASUREMENT_FIELDS)]
    for file_id, measurements in per_file:
        for m in measurements:
            row = [
                file_id,
                m.word,
                m.stop,
                format_seconds(m.burst_onset),
                format_seconds(m.vocalic_onset),
                format_seconds(m.vot),
                format_seconds(m.vowel_duration),
                format_seconds(m.word_duration),
                format_seconds(m.speaking_rate) if m.speaking_rate is not None else "NA",
            ]
            lines.append("\t".join(row))
    return "\n".join(lines) + "\n"
