"""Praat TextGrid reading, writing, and tier surgery.

Supports the long text format only (Praat's default save format). The short
and binary formats are rejected with a clear error. Input may be UTF-8 (with
or without BOM) or UTF-16 (BOM-sniffed, as written by older Praat versions);
output is always UTF-8 without BOM, times with six decimal places.

The reader matches each interval block laid out as Praat and the writer lay
it out (single spaces around '=', a one-line label) with one compiled
pattern. Everything else, and the first interval block that does not match
or holds a bad time, goes to the general line tokenizer, which reads any
spacing and line-break variant and is the only place errors are raised.
Both take their lines from rows.Lines, the walker that cuts every text
input, so a '\\r', form feed or U+2028 inside a label survives a round
trip. What a '\\r' left at a line's end means is TextGrid's own rule: in
a CRLF file (judged by its first line) it belongs to the break, so a label
over several lines drops it; in any other file such a label keeps it.

Every operation is a pure function. Tiers and grids are frozen. Interval
and Point, built tens of thousands of times a file, are slotted records,
equal and hashed by value, but not frozen: a frozen record's __init__ sets
each field through object.__setattr__, which makes building one 1.7 to 2.6
times as costly. Nothing assigns to their fields, and nothing may, since a
changed record is lost as a dict or set key.
"""

from __future__ import annotations

import codecs
import itertools
import math
import re
from dataclasses import dataclass, replace

from .errors import ToolkitError
from .rows import Lines

# Boundaries closer than this are considered coincident; real gaps and
# overlaps in aligner output are at least one 10 ms frame wide.
_SNAP = 1e-9


class TextGridParseError(ToolkitError):
    """Structurally broken long-format file."""


class MalformedHeader(TextGridParseError):
    """Missing or wrong 'File type'/'Object class' lines, or a non-long format."""


class NonMonotonicInterval(TextGridParseError):
    """Interval with xmax <= xmin (zero-length intervals are rejected too)."""


class NonFiniteTime(TextGridParseError):
    """NaN or infinite time, which Praat never writes."""


class TierCountMismatch(TextGridParseError):
    """Declared tier or interval count does not match the parsed blocks."""


class EncodingError(TextGridParseError):
    """Content is neither valid UTF-8 nor BOM-marked UTF-16."""


class OverlapError(ToolkitError):
    """Refusing to serialize or normalize a tier with overlapping intervals."""


class MergeConflict(ToolkitError):
    """Two non-empty intervals from different tiers overlap in time."""


class IndexOutOfRange(ToolkitError):
    """1-based tier index outside the grid."""


class TierNotFound(ToolkitError, KeyError):
    """No tier with the requested name."""


class TierSelectionError(ToolkitError, ValueError):
    """Tiers or grids an operation cannot take: none, repeats, or a point tier."""


def format_time(t: float) -> str:
    return f"{t:.6f}"


def format_seconds(t: float) -> str:
    """Trailing-zero-free decimal with at least one fractional digit."""
    s = f"{t:.6f}".rstrip("0")
    return s + "0" if s.endswith(".") else s


def _require_finite(what: str, *times: float) -> None:
    if not all(map(math.isfinite, times)):
        raise NonFiniteTime(f"{what}: times must be finite, got {times!r}")


def _require_span(what: str, xmin: float, xmax: float) -> None:
    _require_finite(what, xmin, xmax)
    if xmax <= xmin:
        raise NonMonotonicInterval(f"{what}: xmax {xmax!r} <= xmin {xmin!r}")


@dataclass(slots=True, unsafe_hash=True)
class Interval:
    """One labeled stretch of time on an interval tier."""

    xmin: float
    xmax: float
    text: str = ""

    def __post_init__(self) -> None:
        if 0 <= self.xmin < self.xmax < math.inf:  # false for NaN too
            return
        _require_finite("interval", self.xmin, self.xmax)
        if self.xmax < self.xmin:
            raise NonMonotonicInterval(
                f"interval xmax {self.xmax!r} < xmin {self.xmin!r}"
            )
        if self.xmax == self.xmin:
            raise NonMonotonicInterval(
                f"zero-length interval at {self.xmin!r} is not allowed"
            )
        if self.xmin < 0:
            raise NonMonotonicInterval(f"negative interval time {self.xmin!r}")

    @property
    def duration(self) -> float:
        return self.xmax - self.xmin


@dataclass(slots=True, unsafe_hash=True)
class Point:
    """One time-marked label on a point tier."""

    time: float
    mark: str = ""

    def __post_init__(self) -> None:
        _require_finite("point", self.time)


@dataclass(frozen=True)
class PointTier:
    """Praat TextTier, preserved opaquely so round trips do not corrupt it."""

    name: str
    xmin: float
    xmax: float
    points: tuple[Point, ...] = ()

    def __post_init__(self) -> None:
        _require_span(f"tier {self.name!r}", self.xmin, self.xmax)
        points, last = tuple(self.points), -math.inf
        for p in points:
            if p.time < last:
                points = tuple(sorted(points, key=lambda p: p.time))
                break
            last = p.time
        object.__setattr__(self, "points", points)


@dataclass(frozen=True)
class IntervalTier:
    """Ordered intervals over [xmin, xmax].

    Intervals are kept in (xmin, xmax) order. Overlaps are representable (so
    defective files can be parsed and diagnosed) but refuse to serialize.
    """

    name: str
    xmin: float
    xmax: float
    intervals: tuple[Interval, ...] = ()

    def __post_init__(self) -> None:
        _require_span(f"tier {self.name!r}", self.xmin, self.xmax)
        ivs, lo, hi = tuple(self.intervals), self.xmin - _SNAP, self.xmax + _SNAP
        x0 = y0 = -math.inf
        for iv in ivs:
            x, y = iv.xmin, iv.xmax
            if not (lo <= x and y <= hi and (x0 < x or (x0 == x and y0 <= y))):
                # sort, then report the first interval out of bounds in that order
                ivs = tuple(sorted(ivs, key=lambda iv: (iv.xmin, iv.xmax)))
                for iv in ivs:
                    if iv.xmin < lo or iv.xmax > hi:
                        raise NonMonotonicInterval(
                            f"interval [{iv.xmin}, {iv.xmax}] outside tier "
                            f"{self.name!r} bounds [{self.xmin}, {self.xmax}]"
                        )
                break
            x0, y0 = x, y
        object.__setattr__(self, "intervals", ivs)

    def non_empty(self) -> tuple[Interval, ...]:
        return tuple(iv for iv in self.intervals if iv.text != "")

    def normalized(self) -> "IntervalTier":
        """Fill gaps with empty intervals so the tier partitions its span.

        Sub-nanosecond float drift between consecutive boundaries is snapped
        shut; anything larger in the negative direction is an overlap.
        A tier that already partitions its span, found by a scan that builds
        nothing, is returned as it is, so normalizing twice returns the very
        tier normalizing once did.
        """
        cursor = self.xmin
        for iv in self.intervals:
            if iv.xmin != cursor:
                break
            cursor = iv.xmax
        else:
            if self.intervals and cursor == self.xmax:
                return self
        out: list[Interval] = []
        cursor = self.xmin
        for iv in self.intervals:
            gap = iv.xmin - cursor
            if gap > _SNAP:
                out.append(Interval(cursor, iv.xmin))
                cursor = iv.xmin
            elif gap < -_SNAP:
                raise OverlapError(
                    f"tier {self.name!r}: interval starting at {iv.xmin} "
                    f"overlaps previous boundary {cursor}"
                )
            if iv.xmin != cursor:
                iv = Interval(cursor, iv.xmax, iv.text)
            out.append(iv)
            cursor = iv.xmax
        if self.xmax - cursor > _SNAP:
            out.append(Interval(cursor, self.xmax))
        elif out and cursor != self.xmax:
            last = out[-1]
            out[-1] = Interval(last.xmin, self.xmax, last.text)
        if not out:
            out.append(Interval(self.xmin, self.xmax))
        return IntervalTier(self.name, self.xmin, self.xmax, tuple(out))


Tier = IntervalTier | PointTier


@dataclass(frozen=True)
class TextGrid:
    """An ordered stack of tiers over a common time span."""

    xmin: float
    xmax: float
    tiers: tuple[Tier, ...] = ()

    def __post_init__(self) -> None:
        _require_finite("grid", self.xmin, self.xmax)
        if self.xmax <= self.xmin:
            raise NonMonotonicInterval(
                f"grid xmax {self.xmax!r} <= xmin {self.xmin!r}"
            )
        for t in self.tiers:
            if t.xmin < self.xmin - _SNAP or t.xmax > self.xmax + _SNAP:
                raise NonMonotonicInterval(
                    f"tier {t.name!r} bounds [{t.xmin}, {t.xmax}] outside grid "
                    f"[{self.xmin}, {self.xmax}]"
                )
        object.__setattr__(self, "tiers", tuple(self.tiers))

    def find_tier(self, name: str) -> tuple[Tier, int]:
        """Return the first tier with this name and how many share it.

        Praat allows duplicate tier names, hence the count.
        """
        matches = [t for t in self.tiers if t.name == name]
        if not matches:
            raise TierNotFound(f"no tier named {name!r}")
        return matches[0], len(matches)

    def find_interval_tier(self, name: str) -> IntervalTier:
        """The first tier with this name; a point tier there is a TierSelectionError."""
        tier, _ = self.find_tier(name)
        if not isinstance(tier, IntervalTier):
            raise TierSelectionError(f"tier {name!r} is not an interval tier")
        return tier

    def interval_tiers(self) -> tuple[IntervalTier, ...]:
        return tuple(t for t in self.tiers if isinstance(t, IntervalTier))


@dataclass(frozen=True)
class OverlapReport:
    """Two overlapping intervals found by an adjacent-pair scan (0-based)."""

    first_index: int
    second_index: int
    start: float
    end: float


def diagnose_overlaps(tier: IntervalTier) -> list[OverlapReport]:
    """Scan adjacent interval pairs for overlap; empty list means sound.

    FAVE's phone-budget bug produces such non-functional overlapping
    intervals; this only reports them, it never repairs.
    """
    ivs = tier.intervals
    return [
        OverlapReport(i, i + 1, b.xmin, min(a.xmax, b.xmax))
        for i, (a, b) in enumerate(zip(ivs, ivs[1:]))
        if b.xmin < a.xmax - _SNAP
    ]


# ---------------------------------------------------------------------------
# parsing


def _decode(content: bytes) -> str:
    if content.startswith((codecs.BOM_UTF16_LE, codecs.BOM_UTF16_BE)):
        try:
            return content.decode("utf-16")
        except UnicodeDecodeError as exc:
            raise EncodingError(f"invalid UTF-16 content: {exc}") from None
    try:
        return content.removeprefix(codecs.BOM_UTF8).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise EncodingError(f"not valid UTF-8 (and no UTF-16 BOM): {exc}") from None


def _closing_quote(s: str, start: int) -> int:
    """Index of the first quote at or after start that is not doubled, or -1."""
    i = s.find('"', start)
    while i >= 0 and s.startswith('"', i + 1):
        i = s.find('"', i + 2)
    return i


def _tokens(lines: Lines):
    """Yield (line number, label, value) for each non-blank logical line.

    The label is the text before the first '=' with all whitespace removed
    ('intervals: size' -> 'intervals:size'); value is None for lines without
    '='. A bare value is stripped. A quoted value keeps its quotes (and its
    doubled quotes) and ends at the first undoubled quote, possibly on a
    later line; continuation lines are joined with '\n' verbatim.
    """
    numbered = iter(lines)
    crlf = lines.text.partition(lines.sep)[0].endswith("\r")  # judged by the first line
    for n, line in numbered:
        label, eq, raw = line.partition("=")
        if not eq:
            if line and not line.isspace():
                yield n, "".join(line.split()), None
            continue
        value = rest = raw.strip()
        if value.startswith('"'):
            last, end = n, _closing_quote(value, 1)
            if end < 0:  # the string goes on over the next lines
                parts, rest = [], raw.lstrip()
                while end < 0:
                    parts.append(rest.removesuffix("\r") if crlf else rest)
                    last, rest = next(numbered, (n, None))
                    if rest is None:
                        raise TextGridParseError(f"line {n}: unterminated string value")
                    end = _closing_quote(rest, 0)
                parts.append(rest[: end + 1])
                value = "\n".join(parts)
            if rest[end + 1 :].strip():
                raise TextGridParseError(f"line {last}: content after closing quote")
        yield n, "".join(label.split()), value


def _is_block(token, kinds: tuple[str, ...]) -> bool:
    """True for a block header such as 'item [3]:' or 'intervals []:'."""
    if token is None or token[2] is not None:
        return False
    kind, _, index = token[1].removesuffix(":").partition("[")
    return kind in kinds and (
        index == "]" or (index.endswith("]") and index[:-1].isdecimal())
    )


_KINDS = {str: "a quoted string", float: "a number", int: "a non-negative integer"}


def _expect(tokens, kind: type, *labels: str):
    """Read the next 'label = value' token; return its value as kind."""
    token = next(tokens, None)
    if token is None:
        raise TextGridParseError(f"expected {labels[0]!r}, got end of file")
    n, label, value = token
    if label not in labels or value is None:
        raise TextGridParseError(
            f"line {n}: expected {' or '.join(labels)!r}, got {label!r}"
        )
    if kind is str:
        if value.startswith('"'):
            return value[1:-1].replace('""', '"')
    else:
        try:
            number = float(value)
        except ValueError:
            pass
        else:
            if kind is float or (number >= 0 and number.is_integer()):
                return kind(number)
    raise TextGridParseError(f"line {n}: {label} must be {_KINDS[kind]}, got {value!r}")


_TIME_ERRORS = (NonFiniteTime, NonMonotonicInterval)

# One interval block exactly as write_textgrid (or Praat) lays it out: single
# spaces around '=', a one-line label, an ASCII number float() always takes.
# re compiles it on first use and caches it, so an import does not pay.
_NUMBER = r"([-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][-+]?[0-9]+)?)[ \t\r]*\n"
_INTERVAL = (
    r"[ \t]*intervals \[[0-9]*\]:[ \t\r]*\n"
    r"[ \t]*xmin = " + _NUMBER + r"[ \t]*xmax = " + _NUMBER
    + r'[ \t]*text = "([^"\n]*(?:""[^"\n]*)*)"[ \t\r]*\n'
)


def _at_line(n: int, exc: TextGridParseError) -> TextGridParseError:
    """The same error, its message prefixed with the line it belongs to."""
    return type(exc)(f"line {n}: {exc}")


def parse_textgrid(content: bytes) -> TextGrid:
    """Parse a complete long-format TextGrid file image."""
    if content.startswith(b"ooBinaryFile"):
        raise MalformedHeader("binary TextGrid format is not supported")
    lines = Lines(_decode(content))
    tokens = _tokens(lines)

    try:
        file_type = _expect(tokens, str, "Filetype")
        object_class = _expect(tokens, str, "Objectclass")
    except TextGridParseError:
        raise MalformedHeader(
            'missing \'File type = "ooTextFile"\' or \'Object class = "TextGrid"\' header'
        ) from None
    if file_type != "ooTextFile":
        raise MalformedHeader(f"unsupported file type {file_type!r}")
    if object_class != "TextGrid":
        raise MalformedHeader(f"object class {object_class!r} is not a TextGrid")

    token = next(tokens, None)
    if token and token[2] is None and token[1].lstrip("-").replace(".", "").isdecimal():
        raise MalformedHeader(
            "short text format is not supported; save as a full ('long') text file"
        )
    tokens = itertools.chain([token], tokens)
    grid_line = token[0] if token else 0
    xmin = _expect(tokens, float, "xmin")
    xmax = _expect(tokens, float, "xmax")

    token = next(tokens, None)
    if token is None:
        raise TextGridParseError("expected 'tiers? <exists>', got end of file")
    if token[2] is not None or token[1] not in ("tiers?<exists>", "tiers?<absent>"):
        raise TextGridParseError(
            f"line {token[0]}: expected 'tiers? <exists>' or 'tiers? <absent>'"
        )
    tiers: list[Tier] = []
    if token[1] == "tiers?<exists>":  # else 'tiers? <absent>': no tiers, nothing more
        declared = _expect(tokens, int, "size")
        token = next(tokens, None)
        if _is_block(token, ("item",)) and token[1] in ("item[]", "item[]:"):
            token = next(tokens, None)
        for k in range(declared):
            if not _is_block(token, ("item",)):
                raise TierCountMismatch(f"grid declares {declared} tiers but only {k} found")
            tiers.append(_parse_tier(tokens, lines, token[0]))
            token = next(tokens, None)
        if _is_block(token, ("item",)):
            raise TierCountMismatch(
                f"grid declares {declared} tiers but more item blocks follow"
            )
        if token is not None:
            raise TextGridParseError(
                f"line {token[0]}: unexpected trailing content: {token[1]!r}"
            )
    try:
        return TextGrid(xmin, xmax, tuple(tiers))
    except _TIME_ERRORS as exc:
        raise _at_line(grid_line, exc) from None


def _parse_tier(tokens, lines: Lines, line: int) -> Tier:
    """Parse the tier whose 'item [k]:' header is on the given line.

    Canonical interval blocks are matched whole; the tokens take over at the
    first block that is not, or whose Interval raises, keeping its error.
    """
    cls = _expect(tokens, str, "class")
    name = _expect(tokens, str, "name")
    xmin = _expect(tokens, float, "xmin")
    xmax = _expect(tokens, float, "xmax")
    if cls not in ("IntervalTier", "TextTier"):
        raise TextGridParseError(f"unsupported tier class {cls!r}")
    interval = cls == "IntervalTier"
    what = "intervals" if interval else "points"
    declared = _expect(tokens, int, f"{what}:size")
    items: list = []
    if interval:
        text, pos, match = lines.text, lines.pos, re.compile(_INTERVAL).match
        while len(items) < declared and (m := match(text, pos)):
            try:
                items.append(Interval(float(m[1]), float(m[2]), m[3].replace('""', '"')))
            except _TIME_ERRORS:
                break
            pos = m.end()
        lines.pos = pos
    for j in range(len(items), declared):
        # either block name is accepted in either tier class
        block = next(tokens, None)
        if not _is_block(block, ("intervals", "points")):
            raise TierCountMismatch(
                f"tier {name!r} declares {declared} {what} but only {j} found"
            )
        try:
            if interval:
                items.append(Interval(
                    _expect(tokens, float, "xmin"),
                    _expect(tokens, float, "xmax"),
                    _expect(tokens, str, "text"),
                ))
            else:
                items.append(Point(
                    _expect(tokens, float, "number", "time"),
                    _expect(tokens, str, "mark", "text"),
                ))
        except _TIME_ERRORS as exc:
            raise _at_line(block[0], exc) from None
    try:
        if interval:
            return IntervalTier(name, xmin, xmax, tuple(items))
        return PointTier(name, xmin, xmax, tuple(items))
    except _TIME_ERRORS as exc:
        raise _at_line(line, exc) from None


# ---------------------------------------------------------------------------
# writing


def _quote(s: str) -> str:
    return '"' + s.replace('"', '""') + '"'


def write_textgrid(grid: TextGrid) -> bytes:
    """Serialize to canonical long format: UTF-8, no BOM, 6-decimal times.

    Gaps are auto-filled with empty intervals; a tier with overlapping
    intervals raises OverlapError rather than emitting a defective file.
    """
    w = [
        'File type = "ooTextFile"', 'Object class = "TextGrid"', "",
        f"xmin = {format_time(grid.xmin)}", f"xmax = {format_time(grid.xmax)}",
        "tiers? <exists>", f"size = {len(grid.tiers)}", "item []:",
    ]
    for i, tier in enumerate(grid.tiers, 1):
        interval = isinstance(tier, IntervalTier)
        items = tier.normalized().intervals if interval else tier.points
        w.append(f"    item [{i}]:")
        w.append(f"        class = {_quote('IntervalTier' if interval else 'TextTier')}")
        w.append(f"        name = {_quote(tier.name)}")
        w.append(f"        xmin = {format_time(tier.xmin)}")
        w.append(f"        xmax = {format_time(tier.xmax)}")
        w.append(f"        {'intervals' if interval else 'points'}: size = {len(items)}")
        if interval:
            # a partition: each boundary is spelled once, the first from its interval, as a
            # tier at -0.0 can start one at 0.0, and each label is quoted once
            times = [f"{items[0].xmin:.6f}", *[f"{iv.xmax:.6f}" for iv in items]]
            quoted = {text: _quote(text) for text in {iv.text for iv in items}}
            for j, iv in enumerate(items, 1):
                w.append(
                    f"        intervals [{j}]:\n"
                    f"            xmin = {times[j - 1]}\n"
                    f"            xmax = {times[j]}\n"
                    f"            text = {quoted[iv.text]}"
                )
        else:
            for j, pt in enumerate(items, 1):
                w.append(
                    f"        points [{j}]:\n"
                    f"            number = {pt.time:.6f}\n"
                    f"            mark = {_quote(pt.mark)}"
                )
    return ("\n".join(w) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# tier surgery


def stack_tiers(grids: list[TextGrid]) -> TextGrid:
    """Concatenate the tiers of all grids onto one grid, in input order.

    The result spans the envelope of all inputs; shorter interval tiers gain
    explicit empty padding intervals.
    """
    if not grids:
        raise TierSelectionError("stack_tiers needs at least one grid")
    xmin = min(g.xmin for g in grids)
    xmax = max(g.xmax for g in grids)
    tiers: list[Tier] = []
    for g in grids:
        for t in g.tiers:
            if isinstance(t, IntervalTier):
                tiers.append(
                    IntervalTier(t.name, xmin, xmax, t.intervals).normalized()
                )
            else:
                tiers.append(PointTier(t.name, xmin, xmax, t.points))
    return TextGrid(xmin, xmax, tuple(tiers))


def rename_tier(grid: TextGrid, index: int, new_name: str) -> TextGrid:
    """Rename the tier at a 1-based position; everything else is untouched."""
    if not 1 <= index <= len(grid.tiers):
        raise IndexOutOfRange(
            f"tier index {index} out of range 1..{len(grid.tiers)}"
        )
    tiers = list(grid.tiers)
    tiers[index - 1] = replace(tiers[index - 1], name=new_name)
    return TextGrid(grid.xmin, grid.xmax, tuple(tiers))


def merge_interval_tiers(
    grid: TextGrid, indices: list[int], new_name: str
) -> TextGrid:
    """Collapse several interval tiers into one.

    The new tier holds the union of all non-empty intervals from the selected
    tiers (gaps filled empty) and is appended after the remaining tiers.
    Two non-empty intervals overlapping across tiers is a MergeConflict.
    """
    if len(set(indices)) != len(indices):
        raise TierSelectionError(f"duplicate tier indices: {indices}")
    if not indices:
        raise TierSelectionError("no tier indices given")
    for idx in indices:
        if not 1 <= idx <= len(grid.tiers):
            raise IndexOutOfRange(
                f"tier index {idx} out of range 1..{len(grid.tiers)}"
            )
        if not isinstance(grid.tiers[idx - 1], IntervalTier):
            raise TierSelectionError(f"tier {idx} is not an interval tier")

    selected = set(indices)
    collected = sorted(
        ((iv, idx) for idx in indices for iv in grid.tiers[idx - 1].non_empty()),
        key=lambda pair: (pair[0].xmin, pair[0].xmax),
    )
    for (a, ia), (b, ib) in zip(collected, collected[1:]):
        if b.xmin < a.xmax - _SNAP:
            raise MergeConflict(
                f"intervals from tiers {ia} and {ib} overlap in "
                f"[{max(a.xmin, b.xmin)}, {min(a.xmax, b.xmax)}]"
            )

    merged = IntervalTier(
        new_name, grid.xmin, grid.xmax, tuple(iv for iv, _ in collected)
    ).normalized()
    kept = [t for i, t in enumerate(grid.tiers, 1) if i not in selected]
    return TextGrid(grid.xmin, grid.xmax, tuple(kept) + (merged,))
