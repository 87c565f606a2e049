import codecs
import math
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_grid, textgrid_equal
from corpusphon.textgrid import _INTERVAL  # the canonical interval block pattern
from corpusphon.textgrid import _quote  # the writer's label quoting
from corpusphon.textgrid import (
    EncodingError,
    IndexOutOfRange,
    Interval,
    IntervalTier,
    MalformedHeader,
    MergeConflict,
    NonFiniteTime,
    NonMonotonicInterval,
    OverlapError,
    Point,
    PointTier,
    TextGrid,
    TextGridParseError,
    TierCountMismatch,
    diagnose_overlaps,
    merge_interval_tiers,
    parse_textgrid,
    rename_tier,
    stack_tiers,
    write_textgrid,
)

MINIMAL = b"""File type = "ooTextFile"
Object class = "TextGrid"

xmin = 0
xmax = 2.5
tiers? <exists>
size = 1
item []:
    item [1]:
        class = "IntervalTier"
        name = "phones"
        xmin = 0
        xmax = 2.5
        intervals: size = 1
        intervals [1]:
            xmin = 0
            xmax = 2.5
            text = ""
"""


def two_tier_fixture() -> TextGrid:
    phones = IntervalTier(
        "phones", 0.0, 3.0,
        (
            Interval(0.0, 0.5, "SIL"),
            Interval(0.5, 1.0, "K_B"),
            Interval(1.0, 1.5, "AE1_I"),
            Interval(1.5, 2.0, "T_E"),
            Interval(2.0, 3.0, "SIL"),
        ),
    )
    words = IntervalTier(
        "words", 0.0, 3.0,
        (Interval(0.5, 2.0, "CAT"), Interval(2.0, 3.0, "")),
    )
    return TextGrid(0.0, 3.0, (phones, words.normalized()))


class TestParse:
    def test_minimal_grid(self):
        grid = parse_textgrid(MINIMAL)
        assert grid.xmin == 0.0 and grid.xmax == 2.5
        assert len(grid.tiers) == 1
        tier = grid.tiers[0]
        assert tier.name == "phones"
        assert tier.intervals == (Interval(0.0, 2.5, ""),)

    def test_missing_file_type(self):
        with pytest.raises(MalformedHeader):
            parse_textgrid(b'Object class = "TextGrid"\nxmin = 0\n')

    def test_wrong_object_class(self):
        bad = MINIMAL.replace(b'"TextGrid"', b'"IntervalTier"')
        with pytest.raises(MalformedHeader):
            parse_textgrid(bad)

    def test_short_format_rejected(self):
        short = (
            b'File type = "ooTextFile"\nObject class = "TextGrid"\n\n'
            b"0\n2.5\n<exists>\n1\n"
        )
        with pytest.raises(MalformedHeader):
            parse_textgrid(short)

    def test_binary_format_rejected(self):
        with pytest.raises(MalformedHeader):
            parse_textgrid(b"ooBinaryFile\x00TextGrid")

    def test_interval_count_mismatch(self):
        bad = MINIMAL.replace(b"intervals: size = 1", b"intervals: size = 3")
        with pytest.raises(TierCountMismatch):
            parse_textgrid(bad)

    def test_tier_count_mismatch(self):
        bad = MINIMAL.replace(b"size = 1\n", b"size = 2\n")
        with pytest.raises(TierCountMismatch):
            parse_textgrid(bad)

    def test_non_monotonic_interval(self):
        bad = MINIMAL.replace(b"xmax = 2.5\n            text", b"xmax = -1\n            text")
        with pytest.raises(NonMonotonicInterval):
            parse_textgrid(bad)

    def test_bad_encoding(self):
        with pytest.raises(EncodingError):
            parse_textgrid(b"\xff\xfa garbage \xc0")

    def test_utf16_with_bom(self):
        grid = parse_textgrid(MINIMAL.decode("utf-8").encode("utf-16"))
        assert grid.tiers[0].name == "phones"

    def test_utf8_bom(self):
        grid = parse_textgrid(b"\xef\xbb\xbf" + MINIMAL)
        assert grid.xmax == 2.5

    @pytest.mark.parametrize("size", [b"inf", b"1.9", b"nan"])
    def test_declared_size_must_be_non_negative_integer(self, size):
        bad = MINIMAL.replace(b"\nsize = 1\n", b"\nsize = " + size + b"\n")
        with pytest.raises(TextGridParseError, match="^line 7: size must be"):
            parse_textgrid(bad)

    @pytest.mark.parametrize("line", [b"tiers? garbage", b"tiers? <es>"])
    def test_tiers_line_is_strict(self, line):
        bad = MINIMAL.replace(b"tiers? <exists>", line)
        with pytest.raises(TextGridParseError, match="^line 6: expected 'tiers?"):
            parse_textgrid(bad)

    def test_tiers_absent_and_spacing(self):
        head = MINIMAL.split(b"tiers?")[0]
        assert parse_textgrid(head + b"tiers? <absent>\n").tiers == ()
        spaced = MINIMAL.replace(b"tiers? <exists>", b"tiers?  < exists >\t")
        assert parse_textgrid(spaced) == parse_textgrid(MINIMAL)

    @pytest.mark.parametrize(
        "old,new",
        [
            (b"xmin = 0\n            xmax", b"xmin = nan\n            xmax"),
            (b"xmax = 2.5\ntiers", b"xmax = inf\ntiers"),
            (b"xmax = 2.5\n        intervals:", b"xmax = inf\n        intervals:"),
        ],
    )
    def test_non_finite_time_rejected(self, old, new):
        # reported at the interval's header ('intervals [1]:', line 15), the
        # tier's header ('item [1]:', line 9) or the grid's 'xmin' (line 4)
        line = 15 if b"nan" in new else 9 if b"intervals" in new else 4
        with pytest.raises(NonFiniteTime, match=f"^line {line}: "):
            parse_textgrid(MINIMAL.replace(old, new))

    def test_backwards_interval_names_its_line(self):
        bad = MINIMAL.replace(
            b"intervals [1]:\n            xmin = 0\n            xmax = 2.5",
            b"intervals [1]:\n            xmin = 2\n            xmax = 1",
        )
        with pytest.raises(NonMonotonicInterval, match="^line 15: interval xmax"):
            parse_textgrid(bad)

    def test_non_finite_point_names_its_line(self):
        grid = TextGrid(0.0, 2.0, (PointTier("p", 0.0, 2.0, (Point(1.0, "x"),)),))
        bad = write_textgrid(grid).replace(b"number = 1.000000", b"number = nan")
        with pytest.raises(NonFiniteTime, match="^line 15: point"):
            parse_textgrid(bad)

    @pytest.mark.parametrize(
        "old,new,message",
        [
            (b"xmax = 2.5\n            text", b"xmax = x\n            text",
             "line 17: xmax must be a number"),
            (b'text = ""\n', b'text = "a\n', "line 18: unterminated string"),
            (b'text = ""\n', b'text = "a\nb" c\n', "line 19: content after closing"),
            (b'text = ""\n', b'text = ""\nextra\n', "line 19: unexpected trailing"),
        ],
    )
    def test_error_names_line(self, old, new, message):
        with pytest.raises(TextGridParseError, match=f"^{message}"):
            parse_textgrid(MINIMAL.replace(old, new))

    def test_crlf_multiline_label(self):
        data = MINIMAL.replace(b'text = ""', b'text = "a  \nb"')
        grid = parse_textgrid(data.replace(b"\n", b"\r\n"))
        assert grid.tiers[0].intervals[0].text == "a  \nb"

    def test_quote_escaping(self):
        data = MINIMAL.replace(b'text = ""', b'text = "say ""hi"" now"')
        grid = parse_textgrid(data)
        assert grid.tiers[0].intervals[0].text == 'say "hi" now'

    @pytest.mark.parametrize(
        "bad, error, message",
        [
            (MINIMAL.replace(b'"ooTextFile"', b'"ooTextFile short"'),
             MalformedHeader, "unsupported file type 'ooTextFile short'"),
            (MINIMAL.replace(b'"IntervalTier"', b'"Foo"'),
             TextGridParseError, "unsupported tier class 'Foo'"),
            (MINIMAL.split(b"tiers?")[0],
             TextGridParseError, "expected 'tiers? <exists>', got end of file"),
            (MINIMAL.split(b"        xmin = 0\n        xmax")[0],
             TextGridParseError, "expected 'xmin', got end of file"),
            (MINIMAL.replace(b"size = 1\nitem", b"size = 0\nitem"),
             TierCountMismatch, "grid declares 0 tiers but more item blocks follow"),
            (codecs.BOM_UTF16_LE + b"a\x00\x00\xd8b\x00", EncodingError,
             "invalid UTF-16 content: 'utf-16-le' codec can't decode bytes in position 4-5: "
             "illegal UTF-16 surrogate"),
            (MINIMAL.replace(b"xmax = 2.5\ntiers", b"xmax = 2\ntiers"), NonMonotonicInterval,
             "line 4: tier 'phones' bounds [0.0, 2.5] outside grid [0.0, 2.0]"),
            (MINIMAL.replace(b"xmax = 2.5\ntiers", b"xmax = 0\ntiers"), NonMonotonicInterval,
             "line 4: grid: xmax 0.0 <= xmin 0.0"),
        ],
        ids=["file-type", "tier-class", "eof-after-xmax", "eof-in-tier-header",
             "more-items", "utf-16", "tier-outside-grid", "grid-span"],
    )
    def test_reader_error_text(self, bad, error, message):
        with pytest.raises(error) as caught:
            parse_textgrid(bad)
        assert type(caught.value) is error and str(caught.value) == message

    def test_point_tier_preserved(self):
        data = (
            b'File type = "ooTextFile"\nObject class = "TextGrid"\n\n'
            b"xmin = 0\nxmax = 5\ntiers? <exists>\nsize = 1\nitem []:\n"
            b"    item [1]:\n"
            b'        class = "TextTier"\n'
            b'        name = "events"\n'
            b"        xmin = 0\n        xmax = 5\n"
            b"        points: size = 1\n"
            b"        points [1]:\n"
            b"            number = 1.25\n"
            b'            mark = "beep"\n'
        )
        grid = parse_textgrid(data)
        tier = grid.tiers[0]
        assert isinstance(tier, PointTier)
        assert tier.points == (Point(1.25, "beep"),)
        again = parse_textgrid(write_textgrid(grid))
        assert textgrid_equal(grid, again)


class TestWrite:
    def test_gap_fill(self):
        grid = TextGrid(
            0.0, 1.0,
            (IntervalTier("w", 0.0, 1.0, (Interval(0.0, 0.4, "HI"),)),),
        )
        out = write_textgrid(grid).decode()
        assert 'text = "HI"' in out
        reparsed = parse_textgrid(write_textgrid(grid))
        assert reparsed.tiers[0].intervals == (
            Interval(0.0, 0.4, "HI"),
            Interval(0.4, 1.0, ""),
        )

    def test_empty_tier_single_interval(self):
        grid = TextGrid(0.0, 3.0, (IntervalTier("w", 0.0, 3.0, ()),))
        reparsed = parse_textgrid(write_textgrid(grid))
        assert reparsed.tiers[0].intervals == (Interval(0.0, 3.0, ""),)

    def test_refuses_overlaps(self):
        tier = IntervalTier(
            "bad", 0.0, 3.0,
            (Interval(0.0, 2.0, "A"), Interval(1.0, 3.0, "B")),
        )
        with pytest.raises(OverlapError):
            write_textgrid(TextGrid(0.0, 3.0, (tier,)))

    def test_fixture_round_trip(self, fixtures):
        golden = (fixtures / "two_tier.TextGrid").read_bytes()
        grid = parse_textgrid(golden)
        assert textgrid_equal(grid, two_tier_fixture())
        assert write_textgrid(grid) == golden

    def test_no_bom_utf8(self):
        data = write_textgrid(two_tier_fixture())
        assert not data.startswith(b"\xef\xbb\xbf")
        data.decode("utf-8")


class TestRoundTrip:
    def test_randomized(self):
        rng = random.Random(20240401)
        for _ in range(60):
            grid = random_grid(rng)
            out = write_textgrid(grid)
            back = parse_textgrid(out)
            assert textgrid_equal(grid, back, time_tol=1e-6)
            for tier in back.tiers:
                if isinstance(tier, IntervalTier):
                    assert diagnose_overlaps(tier) == []

    def test_normalization_idempotent(self):
        rng = random.Random(7)
        for _ in range(40):
            grid = random_grid(rng)
            for tier in grid.tiers:
                once = tier.normalized()
                assert once.normalized() == once


# label pieces that stress quoting, line handling and whitespace stripping
_LABEL_PIECES = st.sampled_from(
    ['"', '""', "=", "\n", "\r\n", "\r", " ", "\t", "\x0c", "\u2028", "naïve"]
)
labels = st.lists(
    st.one_of(_LABEL_PIECES, st.characters(exclude_categories=("Cs",))),
    max_size=6,
).map("".join)


@st.composite
def grids(draw) -> TextGrid:
    """Normalized grids whose times survive six-decimal output exactly."""
    span = draw(st.integers(2, 10**8))  # microseconds
    tiers = []
    for _ in range(draw(st.integers(0, 3))):
        name = draw(labels)
        if draw(st.booleans()):
            cuts = draw(st.sets(st.integers(1, span - 1), max_size=6))
            bounds = [0, *sorted(cuts), span]
            intervals = tuple(
                Interval(a / 1e6, b / 1e6, draw(labels))
                for a, b in zip(bounds, bounds[1:])
            )
            tiers.append(IntervalTier(name, 0.0, span / 1e6, intervals))
        else:
            times = draw(st.lists(st.integers(0, span), max_size=4))
            points = tuple(Point(t / 1e6, draw(labels)) for t in times)
            tiers.append(PointTier(name, 0.0, span / 1e6, points))
    return TextGrid(0.0, span / 1e6, tuple(tiers))


@st.composite
def raw_tiers(draw) -> IntervalTier:
    """Interval tiers as aligners leave them: gappy, with boundaries drifted
    by less than the snap tolerance, or already partitioning their span."""
    span = draw(st.integers(2, 10**7))  # microseconds
    cuts = draw(st.sets(st.integers(1, span - 1), max_size=8))
    bounds = [0, *sorted(cuts), span]
    drift = st.sampled_from([0.0, 0.0, 4e-10, -4e-10])
    intervals = []
    for a, b in zip(bounds, bounds[1:]):
        if draw(st.integers(0, 3)) == 0:
            continue  # a gap
        start = a / 1e6 + (draw(drift) if a else 0.0)
        intervals.append(Interval(start, b / 1e6 + draw(drift), draw(labels)))
    return IntervalTier(draw(labels), 0.0, span / 1e6, tuple(intervals))


def reference_lines(tier: IntervalTier) -> list[str]:
    """The long-format lines of a partitioned tier, one value per line."""
    lines = [
        "    item [1]:",
        '        class = "IntervalTier"',
        f"        name = {_quote(tier.name)}",
        f"        xmin = {tier.xmin:.6f}",
        f"        xmax = {tier.xmax:.6f}",
        f"        intervals: size = {len(tier.intervals)}",
    ]
    for j, iv in enumerate(tier.intervals, 1):
        lines.append(f"        intervals [{j}]:")
        lines.append(f"            xmin = {iv.xmin:.6f}")
        lines.append(f"            xmax = {iv.xmax:.6f}")
        lines.append(f"            text = {_quote(iv.text)}")
    return lines


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(raw_tiers())
    @example(IntervalTier("t", 0.0, 1.0, ()))
    @example(IntervalTier("t", 0.0, 1.0, (Interval(0.0, 1.0, "a"),)))
    @example(IntervalTier("t", 0.0, 1.0, (Interval(0.0, 1.0 + 4e-10, "a"),)))
    def test_normalized_is_idempotent_and_written_alike(self, tier):
        once = tier.normalized()
        assert once.normalized() is once
        partitioned = all(
            a.xmax == b.xmin for a, b in zip(once.intervals, once.intervals[1:])
        )
        assert partitioned and once.intervals[0].xmin == once.xmin
        assert once.intervals[-1].xmax == once.xmax
        if once == tier:
            assert once is tier
        grid = TextGrid(0.0, tier.xmax, (tier,))
        written = write_textgrid(grid)
        assert written == write_textgrid(TextGrid(0.0, tier.xmax, (once,)))
        body = "\n".join(["item []:", *reference_lines(once)]) + "\n"
        assert written.endswith(body.encode())

    @settings(max_examples=100, deadline=None)
    @given(grids())
    @example(
        TextGrid(0.0, 1.0, (
            IntervalTier(' "q"" =\t', 0.0, 1.0, (
                Interval(0.0, 0.5, "a\r\nb\u2028c \n"),
                Interval(0.5, 1.0, "\r\x0c\x85"),
            )),
        ))
    )
    def test_parse_inverts_write(self, grid):
        assert parse_textgrid(write_textgrid(grid)) == grid

    @settings(max_examples=100, deadline=None)
    @given(grids(), st.data())
    def test_mutated_input_raises_only_parse_errors(self, grid, data):
        blob = bytearray(write_textgrid(grid))
        start = data.draw(st.integers(0, len(blob)))
        end = data.draw(st.integers(start, min(len(blob), start + 40)))
        if data.draw(st.booleans()):
            del blob[start:end]
        else:
            blob[start:start] = blob[start:end]
        try:
            parse_textgrid(bytes(blob))
        except TextGridParseError:
            pass


def reference_normalized(tier: IntervalTier) -> IntervalTier:
    """normalized() as one rebuild loop that also finds out whether anything changed."""
    out: list[Interval] = []
    changed = False
    cursor = tier.xmin
    for iv in tier.intervals:
        gap = iv.xmin - cursor
        if gap > 1e-9:
            out.append(Interval(cursor, iv.xmin))
            cursor = iv.xmin
            changed = True
        elif gap < -1e-9:
            raise OverlapError(
                f"tier {tier.name!r}: interval starting at {iv.xmin} "
                f"overlaps previous boundary {cursor}"
            )
        if iv.xmin != cursor:
            iv = Interval(cursor, iv.xmax, iv.text)
            changed = True
        out.append(iv)
        cursor = iv.xmax
    if tier.xmax - cursor > 1e-9:
        out.append(Interval(cursor, tier.xmax))
    elif out and cursor != tier.xmax:
        last = out[-1]
        out[-1] = Interval(last.xmin, tier.xmax, last.text)
    elif out and not changed:
        return tier
    if not out:
        out.append(Interval(tier.xmin, tier.xmax))
    return IntervalTier(tier.name, tier.xmin, tier.xmax, tuple(out))


def partitions(tier: IntervalTier) -> bool:
    """Whether the tier's intervals tile [xmin, xmax] with no gap, overlap or drift."""
    ivs = tier.intervals
    return (bool(ivs) and ivs[0].xmin == tier.xmin and ivs[-1].xmax == tier.xmax
            and all(a.xmax == b.xmin for a, b in zip(ivs, ivs[1:])))


def reference_write(grid: TextGrid) -> bytes:
    """The long format written field by field: each time and label formatted where it stands."""
    def value(v):
        return '"' + v.replace('"', '""') + '"' if isinstance(v, str) else f"{v:.6f}"

    lines = ['File type = "ooTextFile"', 'Object class = "TextGrid"', "",
             f"xmin = {value(grid.xmin)}", f"xmax = {value(grid.xmax)}",
             "tiers? <exists>", f"size = {len(grid.tiers)}", "item []:"]
    for i, tier in enumerate(grid.tiers, 1):
        if isinstance(tier, IntervalTier):
            cls, kind = "IntervalTier", "intervals"
            blocks = [(("xmin", iv.xmin), ("xmax", iv.xmax), ("text", iv.text))
                      for iv in reference_normalized(tier).intervals]
        else:
            cls, kind = "TextTier", "points"
            blocks = [(("number", pt.time), ("mark", pt.mark)) for pt in tier.points]
        lines += [f"    item [{i}]:", f"        class = {value(cls)}",
                  f"        name = {value(tier.name)}", f"        xmin = {value(tier.xmin)}",
                  f"        xmax = {value(tier.xmax)}", f"        {kind}: size = {len(blocks)}"]
        for j, block in enumerate(blocks, 1):
            lines.append(f"        {kind} [{j}]:")
            lines += [f"            {key} = {value(v)}" for key, v in block]
    return ("\n".join(lines) + "\n").encode("utf-8")


# few labels, so that a tier repeats them, some holding quotes
_REPEATED_LABELS = st.sampled_from(["", "a", "a", '"', 'say "hi"', 'x""y'])


@st.composite
def ragged_tiers(draw, overlaps: bool = False) -> IntervalTier:
    """Interval tiers as write_textgrid meets them: gappy or already partitioned,
    boundaries drifted by less than the snap tolerance, labels often repeated or
    quoted, and xmin 0.0 or -0.0 (over an interval at 0.0 when the first is kept).
    With overlaps, some intervals end a frame into the next one."""
    span = draw(st.integers(2, 10**7))  # microseconds
    cuts = draw(st.sets(st.integers(1, span - 1), max_size=8))
    bounds = [0, *sorted(cuts), span]
    drift = st.sampled_from([0.0, 0.0, 4e-10, -4e-10])
    label = st.one_of(_REPEATED_LABELS, labels)
    intervals = []
    for a, b in zip(bounds, bounds[1:]):
        if draw(st.integers(0, 3)) == 0:
            continue  # a gap
        start = a / 1e6 + (draw(drift) if a else 0.0)
        end = b / 1e6 + draw(drift)
        if overlaps and b < span and draw(st.integers(0, 3)) == 0:
            end = min(end + 0.01, span / 1e6)
        intervals.append(Interval(start, end, draw(label)))
    xmin = draw(st.sampled_from([0.0, -0.0]))
    return IntervalTier(draw(labels), xmin, span / 1e6, tuple(intervals))


@st.composite
def written_grids(draw) -> TextGrid:
    """Grids of ragged interval tiers and point tiers, at xmin 0.0 or -0.0."""
    tiers: list = []
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            tiers.append(draw(ragged_tiers()))
            continue
        span = draw(st.integers(1, 10**7))
        times = draw(st.lists(st.integers(0, span), max_size=4))
        points = tuple(Point(t / 1e6, draw(st.one_of(_REPEATED_LABELS, labels))) for t in times)
        tiers.append(PointTier(draw(labels), draw(st.sampled_from([0.0, -0.0])), span / 1e6,
                               points))
    xmax = max((t.xmax for t in tiers), default=1.0)
    return TextGrid(draw(st.sampled_from([0.0, -0.0])), xmax, tuple(tiers))


class TestAgainstReferences:
    @settings(max_examples=300, deadline=None)
    @given(written_grids())
    @example(TextGrid(-0.0, 1.0, (
        IntervalTier("t", -0.0, 1.0, (Interval(0.0, 0.5, '"'), Interval(0.5, 1.0, '"'))),
        IntervalTier("u", -0.0, 1.0, (Interval(0.25, 0.5 + 4e-10, "a"), Interval(0.5, 1.0, "a"))),
        PointTier("p", -0.0, 1.0, (Point(0.0, "a"), Point(0.5, "a"))),
    )))
    def test_write_textgrid_is_the_per_interval_writer(self, grid):
        assert write_textgrid(grid) == reference_write(grid)

    @settings(max_examples=300, deadline=None)
    @given(ragged_tiers(overlaps=True))
    @example(IntervalTier("t", 0.0, 1.0, ()))
    @example(IntervalTier("t", -0.0, 1.0, (Interval(0.0, 1.0, "a"),)))
    @example(IntervalTier("t", 0.0, 1.0, (Interval(0.0, 0.5, "a"), Interval(0.5, 1.0 - 4e-10))))
    @example(IntervalTier("t", 0.0, 1.0, (Interval(0.0, 0.6, "a"), Interval(0.5, 1.0))))
    def test_normalized_is_the_tier_exactly_when_it_partitions_its_span(self, tier):
        try:
            expected = reference_normalized(tier)
        except OverlapError as exc:
            with pytest.raises(OverlapError, match=re.escape(str(exc))):
                tier.normalized()
            return
        once = tier.normalized()
        assert (once is tier) == partitions(tier)
        assert repr(once) == repr(expected)  # repr tells -0.0 from 0.0


_LABELLED = re.compile(
    r"(?m)^( *)(File type|Object class|xmin|xmax|size|class|name"
    r"|intervals: size|points: size|number|mark|text) = "
)


def respaced(blob: bytes) -> bytes:
    """The same file with tab indents and '  =  ', which no block pattern takes."""
    return _LABELLED.sub(
        lambda m: "\t" * (len(m[1]) // 4) + m[2] + "  =  ", blob.decode()
    ).encode()


def with_label(k: int, label: str) -> TextGrid:
    """Tiers 'w' (a, b, c over [0, 3]) and 'p', with label k of 'w' replaced."""
    labels = ["a", "b", "c"]
    labels[k - 1] = label
    return TextGrid(0.0, 3.0, (
        IntervalTier("w", 0.0, 3.0, tuple(
            Interval(j, j + 1.0, labels[j]) for j in range(3)
        )),
        IntervalTier("p", 0.0, 3.0, (Interval(0.0, 3.0, "z"),)),
    ))


def three_blocks(k: int, edit) -> bytes:
    """The written with_label grid, block k of 'w' passed through edit."""
    block = (
        f"        intervals [{k}]:\n"
        f"            xmin = {k - 1}.000000\n"
        f"            xmax = {k}.000000\n"
        f'            text = "{"abc"[k - 1]}"\n'
    )
    text = write_textgrid(with_label(k, "abc"[k - 1])).decode()
    assert block in text
    return text.replace(block, edit(k, block)).encode()


class TestBlockHandOver:
    """Canonical interval blocks are matched whole; any other block goes to
    the token path, which gives the same values and the same errors."""

    @settings(max_examples=100, deadline=None)
    @given(grids())
    def test_both_paths_read_the_same_values(self, grid):
        canonical = write_textgrid(grid)
        spaced = respaced(canonical)
        assert re.search(_INTERVAL, spaced.decode()) is None
        if any("\n" not in iv.text for t in grid.interval_tiers() for iv in t.intervals):
            assert re.search(_INTERVAL, canonical.decode())  # the block path ran too
        assert parse_textgrid(spaced) == parse_textgrid(canonical) == grid

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize(
        "edit, error, message",
        [
            (lambda k, b: b.replace(f"xmax = {k}.000000", "xmax = nan"),
             NonFiniteTime, "interval: times must be finite, got ({x0}, nan)"),
            (lambda k, b: b.replace(f"xmax = {k}.000000", "xmax = 1e400"),
             NonFiniteTime, "interval: times must be finite, got ({x0}, inf)"),
            (lambda k, b: b.replace(f"xmax = {k}.000000", f"xmax = {k - 1}.500000")
             .replace(f"xmin = {k - 1}.000000", f"xmin = {k - 1}.600000"),
             NonMonotonicInterval, "interval xmax {k0}.5 < xmin {k0}.6"),
        ],
        ids=["nan", "1e400", "backwards"],
    )
    def test_bad_block_keeps_its_error_and_line(self, k, edit, error, message):
        line = 15 + 4 * (k - 1)  # the block's 'intervals [k]:' line
        expected = f"line {line}: " + message.format(x0=float(k - 1), k0=k - 1)
        with pytest.raises(error) as caught:
            parse_textgrid(three_blocks(k, edit))
        assert str(caught.value) == expected

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_odd_block_reads_the_same_values(self, k):
        multiline = three_blocks(k, lambda k, b: b.replace('text = "', 'text = "x\n'))
        assert parse_textgrid(multiline) == with_label(k, "x\n" + "abc"[k - 1])
        spaced = three_blocks(k, lambda k, b: b.replace("xmin = ", "xmin  =  "))
        assert parse_textgrid(spaced) == with_label(k, "abc"[k - 1])

    def test_cr_in_labels_of_crlf_and_cr_files(self):
        tier = IntervalTier("t\r", 0.0, 3.0, (
            Interval(0.0, 1.0, "a\rb"), Interval(1.0, 2.0, "c\r"),
            Interval(2.0, 3.0, "\rd\r\ne"),
        ))
        blob = write_textgrid(TextGrid(0.0, 3.0, (tier,)))
        crlf = parse_textgrid(blob.replace(b"\n", b"\r\n")).tiers[0]
        assert crlf == tier
        cr = parse_textgrid(blob.replace(b"\n", b"\r")).tiers[0]
        assert cr.name == "t\n"
        assert [iv.text for iv in cr.intervals] == ["a\nb", "c\n", "\nd\n\ne"]


# Praat's number grammar, stated apart from the reader's pattern: an ASCII
# decimal with an optional sign, fraction and exponent, or a spelling of inf
# or nan that float() takes
PRAAT_NUMBER = re.compile(
    r"[-+]?(?:(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][-+]?[0-9]+)?|inf|infinity|nan)",
    re.ASCII | re.IGNORECASE,
)
# values float() or isdecimal() takes, or that look like numbers, in and out of the grammar
NEAR_MISSES = ["1_0", "\u0661", "\u00b2", "0x1", "1.", ".5", "+1e-3", "-inf", "NaN",
               "\u0131nf", "1e", "--1", "1.5.2"]
numbers = st.one_of(
    st.from_regex(r"\A[-+]?(?:[0-9]{1,4}(?:\.[0-9]{0,4})?|\.[0-9]{1,4})(?:[eE][-+]?[0-9]{1,3})?\Z"),
    st.sampled_from(["inf", "-Infinity", "+NaN", "INF", "nan"]),
    st.sampled_from(NEAR_MISSES),
)
# every line of the written grid that holds a number: a value or a block index
ONE_GRAMMAR_GRID = write_textgrid(TextGrid(0.0, 3.0, (
    IntervalTier("w", 0.0, 3.0, (Interval(0.0, 1.5, "a"), Interval(1.5, 3.0, "b"))),
    PointTier("p", 0.0, 3.0, (Point(1.0, "x"),)),
))).decode()
SLOTS = [k for k, line in enumerate(ONE_GRAMMAR_GRID.split("\n"))
         if re.search(r"(xmin|xmax|size|number) = |\[[0-9]+\]:$", line)]


def with_value(k: int, value: str) -> str:
    """The grid with the number on line k + 1 (its value or its block index) replaced."""
    lines = ONE_GRAMMAR_GRID.split("\n")
    lines[k] = re.sub(r"(?<= = ).*|(?<=\[)[0-9]+(?=\]:$)", lambda m: value, lines[k], count=1)
    return "\n".join(lines)


def laid_out_oddly(text: str, eq: str) -> str:
    """The same lines, tab-indented, with eq in place of each ' = ' ('x=v', 'x<TAB>=<TAB>v')."""
    def line(raw):
        if not raw:
            return raw
        label, sep, value = raw.strip().partition(" = ")
        return "\t" + (label + eq + value if sep else label.replace(" ", "\t"))
    return "\n".join(map(line, text.split("\n")))


def outcome(text: str):
    try:
        return parse_textgrid(text.encode())
    except TextGridParseError as exc:
        return type(exc), str(exc)


class TestOneGrammar:
    """Every number the reader takes, in either path, follows one grammar."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(SLOTS), numbers, st.sampled_from(["=", "\t=\t", " =\t", "  =  "]))
    @example(SLOTS[0], "1_0", "=")
    def test_both_layouts_read_a_value_alike(self, k, value, eq):
        canonical = with_value(k, value)
        odd = laid_out_oddly(canonical, eq)
        assert odd.count("\n") == canonical.count("\n") and not re.search(_INTERVAL, odd)
        got = outcome(canonical)
        assert outcome(odd) == got
        if not PRAAT_NUMBER.fullmatch(value):
            assert isinstance(got, tuple)
        elif isinstance(got, tuple):
            assert "must be a number" not in got[1]

    @pytest.mark.parametrize(
        "old, new, error, message",
        [
            (b"xmax = 2.5\ntiers", b"xmax = 1_0\ntiers",
             TextGridParseError, "line 5: xmax must be a number, got '1_0'"),
            (b"\nsize = 1\n", "\nsize = \u0661\n".encode(),
             TextGridParseError, "line 7: size must be a non-negative integer, got '\u0661'"),
            (b"item [1]", "item [\u0661]".encode(),
             TierCountMismatch, "grid declares 1 tiers but only 0 found"),
            (b"xmin = 0\n            xmax", "xmin = \u00b2\n            xmax".encode(),
             TextGridParseError, "line 16: xmin must be a number, got '\u00b2'"),
        ],
        ids=["underscore", "arabic-indic-size", "arabic-indic-index", "superscript"],
    )
    def test_what_float_or_isdecimal_takes_fails_at_its_line(self, old, new, error, message):
        with pytest.raises(error) as caught:
            parse_textgrid(MINIMAL.replace(old, new))
        assert type(caught.value) is error and str(caught.value) == message

    def test_short_format_is_told_by_the_same_grammar(self):
        head = b'File type = "ooTextFile"\nObject class = "TextGrid"\n\n'
        for first in (b"0", b"-1.5e3", b"inf"):
            with pytest.raises(MalformedHeader, match="^short text format"):
                parse_textgrid(head + first + b"\n2.5\n<exists>\n1\n")
        with pytest.raises(TextGridParseError, match="^line 4: expected 'xmin'"):
            parse_textgrid(head + "\u0661\n2.5\n".encode())


class TestNonFinite:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: Interval(math.nan, 1.0),
            lambda: Interval(0.0, math.inf),
            lambda: Point(math.nan),
            lambda: IntervalTier("t", 0.0, math.inf),
            lambda: PointTier("t", -math.inf, 1.0),
            lambda: TextGrid(math.nan, 1.0),
        ],
    )
    def test_constructors_reject(self, make):
        with pytest.raises(NonFiniteTime):
            make()


class TestZeroLength:
    def test_rejected_at_construction(self):
        with pytest.raises(NonMonotonicInterval):
            Interval(1.0, 1.0, "x")

    def test_negative_rejected(self):
        with pytest.raises(NonMonotonicInterval):
            Interval(2.0, 1.0, "x")


class TestValueRecords:
    @pytest.mark.parametrize(
        "make, other, text",
        [
            (lambda: Interval(0.5, 1.25, "a"), Interval(0.5, 1.25, "b"),
             "Interval(xmin=0.5, xmax=1.25, text='a')"),
            (lambda: Point(0.5, "a"), Point(0.75, "a"), "Point(time=0.5, mark='a')"),
        ],
    )
    def test_equal_and_hashed_by_value(self, make, other, text):
        a, b = make(), make()
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != other and a != (0.5, 1.25, "a")
        assert repr(a) == text
        # measure_cues keys a dict by Interval; a rebuilt record finds the entry
        rates = {a: 1.0, other: 2.0}
        assert rates[b] == 1.0 and len({a, b, other}) == 2

    @pytest.mark.parametrize("record", [Interval(0.0, 1.0), Point(0.0)])
    def test_slotted(self, record):
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            record.lable = "x"


@st.composite
def tied_intervals(draw) -> list[Interval]:
    """Intervals on a 0-10 s tier in any order, many sharing xmin or both ends."""
    ends = st.integers(0, 6).flatmap(lambda a: st.tuples(st.just(a), st.integers(a + 1, 10)))
    spans = draw(st.lists(ends, max_size=12))
    return [Interval(a / 1.0, b / 1.0, str(k)) for k, (a, b) in enumerate(spans)]


class TestTierOrder:
    def test_in_order_input_keeps_its_intervals(self):
        ivs = tuple(Interval(k / 10, (k + 1) / 10, str(k)) for k in range(20))
        tier = IntervalTier("t", 0.0, 2.0, ivs)
        assert all(a is b for a, b in zip(tier.intervals, ivs, strict=True))
        points = tuple(Point(k / 10, str(k)) for k in range(20))
        point_tier = PointTier("p", 0.0, 2.0, points)
        assert all(a is b for a, b in zip(point_tier.points, points, strict=True))

    @given(tied_intervals(), st.randoms(use_true_random=False))
    def test_interval_order_is_the_stable_sort(self, ivs, rnd):
        rnd.shuffle(ivs)
        got = IntervalTier("t", 0.0, 10.0, ivs).intervals
        want = sorted(ivs, key=lambda iv: (iv.xmin, iv.xmax))  # stable
        assert all(a is b for a, b in zip(got, want, strict=True))

    @given(st.lists(st.integers(0, 5), max_size=12), st.randoms(use_true_random=False))
    def test_point_order_is_the_stable_sort(self, times, rnd):
        points = [Point(t / 1.0, str(k)) for k, t in enumerate(times)]
        rnd.shuffle(points)
        got = PointTier("p", 0.0, 10.0, points).points
        want = sorted(points, key=lambda p: p.time)  # stable
        assert all(a is b for a, b in zip(got, want, strict=True))

    @pytest.mark.parametrize(
        "ivs, message",
        [
            ((Interval(0.5, 1.0), Interval(1.0, 6.0, "b")),
             "interval [1.0, 6.0] outside tier 't' bounds [0.5, 5.0]"),
            # the first out of bounds in sorted order is named, not in input order
            ((Interval(4.0, 6.0, "a"), Interval(0.25, 2.0, "b")),
             "interval [0.25, 2.0] outside tier 't' bounds [0.5, 5.0]"),
            ((Interval(2.0, 3.0), Interval(1.0, 2.0), Interval(0.0, 0.75)),
             "interval [0.0, 0.75] outside tier 't' bounds [0.5, 5.0]"),
        ],
    )
    def test_out_of_bounds_keeps_its_error(self, ivs, message):
        with pytest.raises(NonMonotonicInterval) as err:
            IntervalTier("t", 0.5, 5.0, ivs)
        assert str(err.value) == message

    def test_points_outside_the_tier_are_kept(self):
        tier = PointTier("p", 1.0, 2.0, (Point(3.0, "b"), Point(0.0, "a")))
        assert [p.mark for p in tier.points] == ["a", "b"]


class TestStack:
    def test_two_grids(self):
        a = TextGrid(0.0, 2.0, (IntervalTier("phones", 0.0, 2.0, ()),))
        b = TextGrid(0.0, 2.0, (IntervalTier("words", 0.0, 2.0, ()),))
        stacked = stack_tiers([a, b])
        assert [t.name for t in stacked.tiers] == ["phones", "words"]

    def test_identity_modulo_normalization(self):
        g = two_tier_fixture()
        stacked = stack_tiers([g])
        assert textgrid_equal(
            stacked,
            TextGrid(g.xmin, g.xmax, tuple(t.normalized() for t in g.tiers)),
        )

    def test_envelope_padding(self):
        a = TextGrid(
            0.0, 10.0,
            (IntervalTier("a", 0.0, 10.0,
                          (Interval(1.0, 2.0, "X"),)).normalized(),),
        )
        b = TextGrid(0.0, 12.0, (IntervalTier("b", 0.0, 12.0, ()),))
        stacked = stack_tiers([a, b])
        assert stacked.xmax == 12.0
        padded = stacked.tiers[0]
        assert padded.xmax == 12.0
        assert padded.intervals[-1] == Interval(10.0, 12.0, "")

    def test_preserves_non_empty_count(self):
        rng = random.Random(99)
        grids = [random_grid(rng) for _ in range(3)]
        before = sum(
            len(t.non_empty())
            for g in grids
            for t in g.tiers
            if isinstance(t, IntervalTier)
        )
        stacked = stack_tiers(grids)
        after = sum(
            len(t.non_empty())
            for t in stacked.tiers
            if isinstance(t, IntervalTier)
        )
        assert before == after

    def test_empty_list(self):
        with pytest.raises(ValueError):
            stack_tiers([])

    def test_point_tier_takes_the_envelope_and_keeps_its_points(self):
        a = TextGrid(1.0, 2.0, (PointTier("p", 1.0, 2.0, (Point(1.5, "x"),)),))
        b = TextGrid(0.0, 3.0, (IntervalTier("w", 0.0, 3.0, ()),))
        stacked = stack_tiers([a, b])
        assert stacked.tiers == (
            PointTier("p", 0.0, 3.0, (Point(1.5, "x"),)),
            IntervalTier("w", 0.0, 3.0, (Interval(0.0, 3.0, ""),)),
        )


class TestRename:
    def test_rename(self):
        g = two_tier_fixture()
        out = rename_tier(g, 2, "P_auto")
        assert out.tiers[1].name == "P_auto"
        assert out.tiers[1].intervals == g.tiers[1].intervals
        assert out.tiers[0] == g.tiers[0]

    def test_rename_to_same_name(self):
        g = two_tier_fixture()
        assert rename_tier(g, 1, "phones") == g

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            rename_tier(two_tier_fixture(), 9, "x")


class TestMerge:
    def grid_with_stop_tiers(self):
        p = IntervalTier("P", 0.0, 10.0, (Interval(1.0, 1.1, "P"),
                                          Interval(5.0, 5.1, "P")))
        t = IntervalTier("T", 0.0, 10.0, (Interval(2.0, 2.1, "T"),))
        b = IntervalTier("B", 0.0, 10.0, (Interval(3.0, 3.1, "B"),))
        return TextGrid(0.0, 10.0, (p.normalized(), t.normalized(),
                                    b.normalized()))

    def test_disjoint_union(self):
        g = self.grid_with_stop_tiers()
        merged = merge_interval_tiers(g, [1, 2, 3], "vot")
        assert [t.name for t in merged.tiers] == ["vot"]
        labels = [(iv.xmin, iv.text) for iv in merged.tiers[0].non_empty()]
        assert labels == [(1.0, "P"), (2.0, "T"), (3.0, "B"), (5.0, "P")]

    def test_preserves_triples(self):
        g = self.grid_with_stop_tiers()
        merged = merge_interval_tiers(g, [1, 3], "vot")
        got = sorted(
            (iv.xmin, iv.xmax, iv.text) for iv in merged.tiers[-1].non_empty()
        )
        assert got == [(1.0, 1.1, "P"), (3.0, 3.1, "B"), (5.0, 5.1, "P")]

    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError):
            merge_interval_tiers(self.grid_with_stop_tiers(), [1, 1], "vot")

    def test_conflict(self):
        a = IntervalTier("3", 0.0, 10.0, (Interval(1.0, 1.1, "P"),))
        b = IntervalTier("4", 0.0, 10.0, (Interval(1.05, 1.15, "B"),))
        g = TextGrid(0.0, 10.0, (a.normalized(), b.normalized()))
        with pytest.raises(MergeConflict):
            merge_interval_tiers(g, [1, 2], "vot")

    def test_conflict_names_the_tiers_and_the_overlap(self):
        # the first overlap in time order, between tiers 3 and 1 of the selection
        tiers = (
            IntervalTier("a", 0.0, 10.0, (Interval(1.0, 1.1, "P"), Interval(4.0, 5.0, "Q"))),
            IntervalTier("b", 0.0, 10.0, (Interval(2.0, 2.1, "T"),)),
            IntervalTier("c", 0.0, 10.0, (Interval(0.5, 1.05, "B"), Interval(4.5, 6.0, "R"))),
        )
        g = TextGrid(0.0, 10.0, tuple(t.normalized() for t in tiers))
        with pytest.raises(MergeConflict) as caught:
            merge_interval_tiers(g, [3, 2, 1], "vot")
        assert str(caught.value) == "intervals from tiers 3 and 1 overlap in [1.0, 1.05]"

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange) as caught:
            merge_interval_tiers(self.grid_with_stop_tiers(), [1, 4], "vot")
        assert str(caught.value) == "tier index 4 out of range 1..3"

    def test_kept_tiers_order(self):
        g = self.grid_with_stop_tiers()
        merged = merge_interval_tiers(g, [2], "only_t")
        assert [t.name for t in merged.tiers] == ["P", "B", "only_t"]


class TestDiagnose:
    def test_single_overlap(self):
        tier = IntervalTier(
            "t", 0.0, 3.0, (Interval(0.0, 1.0, "A"), Interval(0.9, 2.0, "B"))
        )
        reports = diagnose_overlaps(tier)
        assert len(reports) == 1
        r = reports[0]
        assert (r.first_index, r.second_index) == (0, 1)
        assert r.start == pytest.approx(0.9) and r.end == pytest.approx(1.0)

    def test_contiguous_clean(self):
        tier = two_tier_fixture().tiers[0]
        assert diagnose_overlaps(tier) == []

    def test_cascading_overlaps_adjacent_scan(self):
        # brute-force all-pairs on this input finds 3 overlapping pairs;
        # the adjacent-pair scan reports 2, one per neighbor boundary
        ivs = (
            Interval(0.0, 2.0, "A"),
            Interval(1.0, 3.0, "B"),
            Interval(1.5, 4.0, "C"),
        )
        brute = sum(
            1
            for i in range(3)
            for j in range(i + 1, 3)
            if ivs[j].xmin < ivs[i].xmax and ivs[i].xmin < ivs[j].xmax
        )
        assert brute == 3
        tier = IntervalTier("t", 0.0, 5.0, ivs)
        assert len(diagnose_overlaps(tier)) == 2


PRAAT_VERBATIM = """File type = "ooTextFile"
Object class = "TextGrid"

xmin = 0 
xmax = 2.3 
tiers? <exists> 
size = 1 
item []: 
    item [1]:
        class = "IntervalTier" 
        name = "phones" 
        xmin = 0 
        xmax = 2.3 
        intervals: size = 2 
        intervals [1]:
            xmin = 0 
            xmax = 0.7 
            text = "" 
        intervals [2]:
            xmin = 0.7 
            xmax = 2.3 
            text = "AH1" 
""".encode()


class TestPraatOutputShape:
    # Praat's own save format carries trailing spaces after every value
    def test_trailing_spaces(self):
        grid = parse_textgrid(PRAAT_VERBATIM)
        assert grid.tiers[0].intervals[1] == Interval(0.7, 2.3, "AH1")

    def test_utf16_variant(self):
        grid = parse_textgrid(PRAAT_VERBATIM.decode().encode("utf-16"))
        assert grid.xmax == 2.3
