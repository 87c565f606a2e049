import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_grid
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
    textgrid_equal,
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
        ],
    )
    def test_non_finite_time_rejected(self, old, new):
        with pytest.raises(NonFiniteTime):
            parse_textgrid(MINIMAL.replace(old, new))

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


class TestProperties:
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
            if ivs[i].overlaps(ivs[j])
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
