import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import textgrid_equal
from corpusphon.lexicon import parse_lexicon
from corpusphon.textgrid import (
    Interval,
    IntervalTier,
    TextGrid,
    merge_interval_tiers,
    stack_tiers,
)
from corpusphon.vot import (
    STOP_LETTERS,
    MissingVowel,
    NoSentenceStructure,
    PhoneAlignmentGap,
    StopClass,
    UnknownLabel,
    VotError,
    WindowOverlapWarning,
    WordOccurrence,
    compare_boundaries,
    decode_command,
    find_cv_stop_words,
    locate_words,
    make_vot_windows,
    measure_cues,
    phone_letter,
    plan_windows,
    prefer_manual,
    render_measurements,
    split_windows_by_stop,
    _overlap_length,
    _pair_tokens,
)


def occ(letter, start, stop_end, word="W", end=None, file_id="f"):
    return WordOccurrence(
        word=word,
        file_id=file_id,
        start=start,
        end=end if end is not None else stop_end + 0.2,
        initial_stop=StopClass(letter),
        stop_end=stop_end,
    )


class TestStopClass:
    def test_padding(self):
        assert StopClass("P").padding == 0.031
        assert StopClass("B").padding == 0.011

    def test_min_vot(self):
        assert StopClass("K").min_vot_ms == 15
        assert StopClass("G").min_vot_ms == 4

    def test_unknown(self):
        with pytest.raises(UnknownLabel):
            StopClass("Q")


class TestFindCvStopWords:
    def test_stop_plus_vowel(self):
        lex = parse_lexicon("PAT P AE1 T\n")
        assert find_cv_stop_words(lex) == ["PAT"]

    def test_cluster_excluded(self):
        lex = parse_lexicon("KLATT K L AE1 T\n")
        assert find_cv_stop_words(lex) == []

    def test_non_stop_excluded(self):
        lex = parse_lexicon("SAY S EY1\n")
        assert find_cv_stop_words(lex) == []

    def test_any_pron_counts(self):
        lex = parse_lexicon("X K L AE1 T\nX K AE1 T\n")
        assert find_cv_stop_words(lex) == ["X"]

    def test_fixture_lexicon(self, fixtures):
        lex = parse_lexicon((fixtures / "lexicon.txt").read_text())
        assert find_cv_stop_words(lex) == ["DOT", "PAT", "TUTT"]


class TestLocate:
    def grid(self):
        phones = IntervalTier(
            "phones", 0.0, 3.0,
            (Interval(1.0, 1.08, "P"), Interval(1.08, 1.25, "AE1"),
             Interval(1.25, 1.3, "T")),
        ).normalized()
        words = IntervalTier(
            "words", 0.0, 3.0, (Interval(1.0, 1.3, "PAT"),)
        ).normalized()
        return TextGrid(0.0, 3.0, (phones, words))

    def test_coincidence(self):
        (o,) = locate_words(self.grid(), "words", "phones", {"PAT"})
        assert o.start == 1.0 and o.stop_end == 1.08
        assert o.initial_stop.phone == "P"

    def test_word_not_in_set_skipped(self):
        assert locate_words(self.grid(), "words", "phones", {"DOT"}) == []

    def test_shifted_phone_tier_gap(self):
        phones = IntervalTier(
            "phones", 0.0, 3.0, (Interval(1.03, 1.1, "P"),)
        ).normalized()
        words = IntervalTier(
            "words", 0.0, 3.0, (Interval(1.0, 1.3, "PAT"),)
        ).normalized()
        grid = TextGrid(0.0, 3.0, (phones, words))
        with pytest.raises(PhoneAlignmentGap):
            locate_words(grid, "words", "phones", {"PAT"}, tolerance=0.011)


class TestWindows:
    def test_voiceless_worked_example(self):
        tier = make_vot_windows([occ("P", 1.000, 1.080)], 10.0)
        (w,) = tier.non_empty()
        assert w.xmin == pytest.approx(0.969, abs=1e-9)
        assert w.xmax == pytest.approx(1.111, abs=1e-9)
        assert w.text == "P"

    def test_voiced_worked_example(self):
        tier = make_vot_windows([occ("B", 2.000, 2.040)], 10.0)
        (w,) = tier.non_empty()
        assert w.xmin == pytest.approx(1.989, abs=1e-9)
        assert w.xmax == pytest.approx(2.051, abs=1e-9)
        assert w.text == "B"

    def test_clamped_at_file_start(self):
        tier = make_vot_windows([occ("P", 0.010, 0.060)], 10.0)
        (w,) = tier.non_empty()
        assert w.xmin == 0.0
        assert w.xmax == pytest.approx(0.091, abs=1e-9)

    def test_window_arithmetic_exact(self):
        rng = random.Random(20240403)
        for _ in range(200):
            letter = rng.choice("PTKBDG")
            start = 1.0 + rng.randint(0, 500000) / 1000
            span = rng.randint(30, 150) / 1000
            (w,) = plan_windows([occ(letter, start, start + span)], 1e9)
            pad2 = 0.062 if letter in "PTK" else 0.022
            assert (w.end - w.start) == pytest.approx(span + pad2, abs=1e-9)

    def test_overlap_truncated_at_midpoint(self):
        with pytest.warns(WindowOverlapWarning):
            windows = plan_windows(
                [occ("P", 1.000, 1.080), occ("P", 1.100, 1.180)], 10.0
            )
        a, b = windows
        assert a.end == b.start
        # overlap span was [1.069, 1.111]; midpoint 1.090
        assert a.end == pytest.approx(1.090, abs=1e-9)

    def test_mixed_classes_on_one_tier(self):
        tier = make_vot_windows(
            [occ("T", 1.0, 1.05), occ("D", 1.312, 1.35)], 10.0
        )
        assert [iv.text for iv in tier.non_empty()] == ["T", "D"]


class TestSplit:
    def test_split_by_label(self):
        tier = make_vot_windows(
            [occ("P", 1.0, 1.05), occ("B", 2.0, 2.05), occ("P", 3.0, 3.05)],
            10.0,
        )
        split = split_windows_by_stop(tier)
        assert sorted(split) == sorted("PTKBDG")
        assert len(split["P"].non_empty()) == 2
        assert len(split["B"].non_empty()) == 1
        assert len(split["T"].non_empty()) == 0

    def test_empty_tier(self):
        tier = IntervalTier("vot", 0.0, 5.0, ()).normalized()
        split = split_windows_by_stop(tier)
        assert all(len(t.non_empty()) == 0 for t in split.values())

    def test_unknown_label(self):
        tier = IntervalTier(
            "vot", 0.0, 5.0, (Interval(1.0, 1.1, "Q"),)
        ).normalized()
        with pytest.raises(UnknownLabel):
            split_windows_by_stop(tier)

    def test_split_then_merge_reproduces(self):
        rng = random.Random(31)
        for _ in range(20):
            occurrences = []
            t = 1.0
            for _ in range(rng.randint(0, 12)):
                t += rng.randint(300, 900) / 1000
                letter = rng.choice("PTKBDG")
                occurrences.append(occ(letter, t, t + rng.randint(30, 90) / 1000))
            tier = make_vot_windows(occurrences, t + 10)
            split = split_windows_by_stop(tier)
            grid = stack_tiers(
                [TextGrid(0.0, tier.xmax, (split[l],)) for l in "PTKBDG"]
            )
            merged = merge_interval_tiers(grid, [1, 2, 3, 4, 5, 6], "vot")
            assert merged.tiers[-1].non_empty() == tier.non_empty()


class TestCompare:
    def test_signed_deltas(self):
        manual = IntervalTier(
            "m", 0.0, 5.0, (Interval(1.000, 1.060, "P"),)
        ).normalized()
        auto = IntervalTier(
            "a", 0.0, 5.0, (Interval(1.004, 1.061, "P"),)
        ).normalized()
        result = compare_boundaries(manual, auto)
        (d,) = result.pairs
        assert d.burst_delta == pytest.approx(0.004, abs=1e-9)
        assert d.vowel_delta == pytest.approx(0.001, abs=1e-9)
        assert not result.unpaired_manual and not result.unpaired_auto

    def test_identity(self):
        rng = random.Random(67)
        for _ in range(15):
            tier = random_token_tier(rng)
            result = compare_boundaries(tier, tier)
            assert all(
                d.burst_delta == 0 and d.vowel_delta == 0 for d in result.pairs
            )
            assert len(result.pairs) == len(tier.non_empty())
            assert not result.unpaired_manual and not result.unpaired_auto

    def test_unpaired_auto(self):
        manual = IntervalTier("m", 0.0, 5.0, ()).normalized()
        auto = IntervalTier(
            "a", 0.0, 5.0, (Interval(1.0, 1.05, "T"),)
        ).normalized()
        result = compare_boundaries(manual, auto)
        assert result.pairs == []
        assert len(result.unpaired_auto) == 1


def random_token_tier(rng, name="t", duration=30.0):
    intervals = []
    t = 0.5
    for _ in range(rng.randint(0, 10)):
        t += rng.randint(200, 700) / 1000
        if t >= duration - 1:
            break
        length = rng.randint(30, 90) / 1000
        intervals.append(Interval(t, t + length, rng.choice("PTKBDG")))
        t += length
    return IntervalTier(name, 0.0, duration, tuple(intervals)).normalized()


def random_manual_auto_grid(rng):
    duration = 30.0
    manual = []
    auto = []
    t = 0.5
    for _ in range(rng.randint(1, 10)):
        t += rng.randint(300, 700) / 1000
        if t >= duration - 1:
            break
        length = rng.randint(40, 90) / 1000
        letter = rng.choice("PTKBDG")
        which = rng.random()
        if which < 0.6:  # both, auto perturbed a few ms
            manual.append(Interval(t, t + length, letter))
            auto.append(
                Interval(
                    t + rng.randint(-5, 5) / 1000,
                    t + length + rng.randint(-5, 5) / 1000,
                    letter,
                )
            )
        elif which < 0.8:  # manual only
            manual.append(Interval(t, t + length, letter))
        else:  # auto only
            auto.append(Interval(t, t + length, letter))
        t += length
    mtier = IntervalTier("manual", 0.0, duration, tuple(manual)).normalized()
    atier = IntervalTier("auto", 0.0, duration, tuple(auto)).normalized()
    return TextGrid(0.0, duration, (mtier, atier))


@st.composite
def token_tier(draw, name):
    """A normalized 10-s tier of tokens cut at centisecond times, gaps between."""
    cuts = sorted(set(draw(st.lists(st.integers(1, 999), max_size=20))))
    tokens = tuple(
        Interval(a / 100, b / 100, draw(st.sampled_from("PTK")))
        for a, b in zip(cuts[::2], cuts[1::2])
    )
    return IntervalTier(name, 0.0, 10.0, tokens).normalized()


class TestPreferManual:
    def test_replacement(self):
        grid = TextGrid(
            0.0, 5.0,
            (
                IntervalTier("manual", 0.0, 5.0,
                             (Interval(1.000, 1.060, "P"),)).normalized(),
                IntervalTier("auto", 0.0, 5.0,
                             (Interval(1.004, 1.061, "P"),)).normalized(),
            ),
        )
        out = prefer_manual(grid, "manual", "auto")
        (token,) = out.find_tier("auto")[0].non_empty()
        assert token == Interval(1.000, 1.060, "P")

    def test_no_manual_tokens_identity(self):
        grid = TextGrid(
            0.0, 5.0,
            (
                IntervalTier("manual", 0.0, 5.0, ()).normalized(),
                IntervalTier("auto", 0.0, 5.0,
                             (Interval(1.0, 1.05, "T"),)).normalized(),
            ),
        )
        out = prefer_manual(grid, "manual", "auto")
        assert out.find_tier("auto")[0].non_empty() == grid.find_tier("auto")[0].non_empty()

    def test_manual_only_never_inserted(self):
        grid = TextGrid(
            0.0, 5.0,
            (
                IntervalTier("manual", 0.0, 5.0,
                             (Interval(2.0, 2.05, "K"),)).normalized(),
                IntervalTier("auto", 0.0, 5.0, ()).normalized(),
            ),
        )
        out = prefer_manual(grid, "manual", "auto")
        assert out.find_tier("auto")[0].non_empty() == ()

    def test_idempotent_on_random_corpus(self):
        rng = random.Random(20240404)
        for _ in range(25):
            grid = random_manual_auto_grid(rng)
            once = prefer_manual(grid, "manual", "auto")
            twice = prefer_manual(once, "manual", "auto")
            assert textgrid_equal(once, twice, time_tol=0.0)

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            st.randoms(use_true_random=False).map(random_manual_auto_grid),
            st.builds(
                lambda m, a: TextGrid(0.0, 10.0, (m, a)),
                token_tier("manual"),
                token_tier("auto"),
            ),
        )
    )
    def test_idempotent(self, grid):
        once = prefer_manual(grid, "manual", "auto")
        twice = prefer_manual(once, "manual", "auto")
        assert textgrid_equal(once, twice, time_tol=0.0)

    @staticmethod
    def _preferred(manual, auto):
        grid = TextGrid(0.0, 10.0, (
            IntervalTier("manual", 0.0, 10.0, manual).normalized(),
            IntervalTier("auto", 0.0, 10.0, auto).normalized(),
        ))
        return prefer_manual(grid, "manual", "auto").find_tier("auto")[0].non_empty()

    def test_manual_token_over_two_auto_tokens_replaces_both(self):
        # the auto token the manual one overlaps most (0.15 s against 0.11 s)
        # lends its label; the other is replaced too, not left to collide
        out = self._preferred(
            (Interval(5.22, 5.71, "M"),),
            (Interval(4.2, 5.33, "P"), Interval(5.34, 5.49, "T")),
        )
        assert out == (Interval(5.22, 5.71, "T"),)

    def test_label_from_the_larger_overlap(self):
        out = self._preferred(
            (Interval(5.22, 5.71, "M"),),
            (Interval(4.2, 5.43, "P"), Interval(5.44, 5.49, "T")),
        )
        assert out == (Interval(5.22, 5.71, "P"),)

    def test_label_already_claimed_by_a_larger_overlap(self):
        # N overlaps K most (0.3 s), but M overlaps K more (1.0 s) and
        # claims it first, so N takes the label of T
        out = self._preferred(
            (Interval(1.0, 2.0, "M"), Interval(2.0, 2.5, "N")),
            (Interval(0.9, 2.3, "K"), Interval(2.4, 2.6, "T")),
        )
        assert out == (Interval(1.0, 2.0, "K"), Interval(2.0, 2.5, "T"))

    @pytest.mark.parametrize("side", ["before", "after"])
    def test_touching_auto_token_is_kept(self, side):
        neighbour = Interval(4.0, 5.0, "P") if side == "before" else Interval(6.0, 7.0, "P")
        out = self._preferred(
            (Interval(5.0, 6.0, "M"),), (neighbour, Interval(5.2, 5.8, "T"))
        )
        assert out == tuple(sorted((neighbour, Interval(5.0, 6.0, "T")),
                                   key=lambda iv: iv.xmin))

    @pytest.mark.parametrize("side", ["before", "after"])
    def test_auto_token_overlapping_by_a_millisecond_is_replaced(self, side):
        neighbour = Interval(4.0, 5.001, "P") if side == "before" else Interval(5.999, 7.0, "P")
        out = self._preferred(
            (Interval(5.0, 6.0, "M"),), (neighbour, Interval(5.2, 5.8, "T"))
        )
        assert out == (Interval(5.0, 6.0, "T"),)


def measurement_fixture_grid():
    """Two sentences split by two consecutive silent word intervals.

    All boundaries are dyadic so every expected value below is exact float
    arithmetic.
    """
    words = IntervalTier(
        "words", 0.0, 8.0,
        (
            Interval(1.0, 1.5, "PAT"),
            Interval(1.75, 2.0, "DOT"),
            Interval(2.0, 2.5, "sp"),
            Interval(3.0, 3.75, "TUTT"),
            Interval(4.0, 4.5, "KLATT"),
            Interval(4.5, 5.0, "sp"),
        ),
    ).normalized()
    phones = IntervalTier(
        "phones", 0.0, 8.0,
        (
            Interval(1.0, 1.0625, "P"),
            Interval(1.0625, 1.3125, "AE1"),
            Interval(1.3125, 1.5, "T"),
            Interval(1.75, 1.78125, "D"),
            Interval(1.78125, 1.9375, "AA1"),
            Interval(1.9375, 2.0, "T"),
            Interval(3.0, 3.0625, "T"),
            Interval(3.0625, 3.5, "AH1"),
            Interval(3.5, 3.75, "T"),
            Interval(4.0, 4.0625, "K"),
            Interval(4.0625, 4.25, "L"),
            Interval(4.25, 4.375, "AE1"),
            Interval(4.375, 4.5, "T"),
        ),
    ).normalized()
    vot = IntervalTier(
        "vot", 0.0, 8.0,
        (
            Interval(1.0, 1.0625, "P"),
            Interval(1.75, 1.78125, "D"),
            Interval(3.0, 3.0625, "T"),
        ),
    ).normalized()
    return TextGrid(0.0, 8.0, (phones, words, vot))


class TestMeasure:
    def test_hand_computed_values(self):
        grid = measurement_fixture_grid()
        ms = measure_cues(grid, "vot", "phones", "words")
        assert [m.word for m in ms] == ["PAT", "DOT", "TUTT"]

        pat, dot, tutt = ms
        assert pat.stop == "P"
        assert pat.vot == 0.0625
        assert pat.vowel_duration == 0.25
        assert pat.word_duration == 0.5
        # sentence 1 words: PAT 0.5 s and DOT 0.25 s
        assert pat.speaking_rate == 0.375

        assert dot.vot == 0.03125
        assert dot.vowel_duration == 0.15625
        assert dot.word_duration == 0.25
        assert dot.speaking_rate == 0.375

        assert tutt.vot == 0.0625
        assert tutt.vowel_duration == 0.4375
        assert tutt.word_duration == 0.75
        # sentence 2 words: TUTT 0.75 s and KLATT 0.5 s
        assert tutt.speaking_rate == 0.625

    def test_vot_is_onset_difference(self):
        for m in measure_cues(
            measurement_fixture_grid(), "vot", "phones", "words"
        ):
            assert m.vot == m.vocalic_onset - m.burst_onset
            assert m.vot >= StopClass(m.stop).min_vot_ms / 1000

    def test_rate_skippable(self):
        grid = measurement_fixture_grid()
        ms = measure_cues(
            grid, "vot", "phones", "words", include_speaking_rate=False
        )
        assert all(m.speaking_rate is None for m in ms)

    def test_no_sentence_structure(self):
        words = IntervalTier(
            "words", 0.0, 4.0,
            (Interval(1.0, 1.5, "PAT"), Interval(2.0, 2.5, "DOT")),
        ).normalized()
        phones = IntervalTier(
            "phones", 0.0, 4.0,
            (Interval(1.0, 1.0625, "P"), Interval(1.0625, 1.25, "AE1")),
        ).normalized()
        vot = IntervalTier(
            "vot", 0.0, 4.0, (Interval(1.0, 1.0625, "P"),)
        ).normalized()
        grid = TextGrid(0.0, 4.0, (phones, words, vot))
        with pytest.raises(NoSentenceStructure):
            measure_cues(grid, "vot", "phones", "words")
        ms = measure_cues(
            grid, "vot", "phones", "words", include_speaking_rate=False
        )
        assert len(ms) == 1

    def test_missing_vowel(self):
        words = IntervalTier(
            "words", 0.0, 4.0,
            (Interval(1.0, 1.5, "PST"), Interval(2.0, 2.25, "sp"),
             Interval(2.25, 2.5, "sp")),
        ).normalized()
        phones = IntervalTier(
            "phones", 0.0, 4.0,
            (Interval(1.0, 1.0625, "P"), Interval(1.0625, 1.25, "S")),
        ).normalized()
        vot = IntervalTier(
            "vot", 0.0, 4.0, (Interval(1.0, 1.0625, "P"),)
        ).normalized()
        grid = TextGrid(0.0, 4.0, (phones, words, vot))
        with pytest.raises(MissingVowel):
            measure_cues(grid, "vot", "phones", "words")

    def test_render_table_header(self):
        ms = measure_cues(
            measurement_fixture_grid(), "vot", "phones", "words"
        )
        table = render_measurements([("f1", ms)])
        header = table.splitlines()[0].split("\t")
        assert header == [
            "file_id", "word", "stop", "burst_onset", "vocalic_onset",
            "vot", "vowel_duration", "word_duration", "speaking_rate",
        ]
        assert len(table.splitlines()) == 4


class TestDecodeCommand:
    def test_voiceless(self):
        cmd = decode_command("P")
        assert "--window_mark P" in cmd
        assert "--min_vot_length 15" in cmd
        assert "--window_tier vot" in cmd

    def test_voiced(self):
        assert "--min_vot_length 4" in decode_command("B")


class TestMeasureWorkedExample:
    def test_60ms_token_in_pat(self):
        phones = IntervalTier(
            "phones", 0.0, 3.0,
            (Interval(1.000, 1.060, "P"), Interval(1.060, 1.210, "AE1"),
             Interval(1.210, 1.300, "T")),
        ).normalized()
        words = IntervalTier(
            "words", 0.0, 3.0,
            (Interval(1.000, 1.300, "PAT"), Interval(1.300, 1.700, "AGAIN"),
             Interval(1.700, 2.0, "sp"), Interval(2.0, 2.3, "sp")),
        ).normalized()
        vot = IntervalTier(
            "vot", 0.0, 3.0, (Interval(1.000, 1.060, "P"),)
        ).normalized()
        grid = TextGrid(0.0, 3.0, (phones, words, vot))
        (m,) = measure_cues(grid, "vot", "phones", "words")
        assert m.vot == pytest.approx(0.060, abs=1e-9)
        assert m.vowel_duration == pytest.approx(0.150, abs=1e-9)
        assert m.word_duration == pytest.approx(0.300, abs=1e-9)

    def test_mean_word_duration(self):
        # sentence of word durations 0.4 and 0.5 -> rate 0.45
        phones = IntervalTier(
            "phones", 0.0, 4.0,
            (Interval(1.0, 1.06, "T"), Interval(1.06, 1.3, "AH1"),
             Interval(1.3, 1.4, "T")),
        ).normalized()
        words = IntervalTier(
            "words", 0.0, 4.0,
            (Interval(1.0, 1.4, "TUTT"), Interval(1.5, 2.0, "AGAIN"),
             Interval(2.0, 2.4, "sp"), Interval(2.4, 2.8, "sp")),
        ).normalized()
        vot = IntervalTier(
            "vot", 0.0, 4.0, (Interval(1.0, 1.06, "T"),)
        ).normalized()
        grid = TextGrid(0.0, 4.0, (phones, words, vot))
        (m,) = measure_cues(grid, "vot", "phones", "words")
        assert m.speaking_rate == pytest.approx(0.45, abs=1e-9)


class TestMeasureStopChoice:
    """The stop is the phone holding the burst onset, whatever the overlaps."""

    def grid(self, token):
        phones = IntervalTier(
            "phones", 0.0, 1.0,
            (Interval(0.50, 0.58, "P_B"), Interval(0.58, 0.75, "AE1_I"),
             Interval(0.75, 0.82, "T_E")),
        ).normalized()
        words = IntervalTier(
            "words", 0.0, 1.0, (Interval(0.50, 0.82, "PAT"),)
        ).normalized()
        vot_tier = IntervalTier("vot", 0.0, 1.0, (token,)).normalized()
        return TextGrid(0.0, 1.0, (phones, words, vot_tier))

    @pytest.mark.parametrize(
        "token",
        [
            Interval(0.56, 0.64, "P"),  # long lag: 20 ms in the stop, 60 in the vowel
            Interval(0.54, 0.62, "P"),  # 40 ms in each, but the vowel's is the larger float
        ],
    )
    def test_long_lag_token_keeps_its_stop(self, token):
        (m,) = measure_cues(
            self.grid(token), "vot", "phones", "words", include_speaking_rate=False
        )
        assert m.stop == "P"
        assert m.word == "PAT"
        assert m.vowel_duration == pytest.approx(0.17, abs=1e-9)


# ---------------------------------------------------------------------------
# the bisect lookups against the linear scans they replaced


def _pair_tokens_all_pairs(manual, auto, tolerance):
    candidates = []
    for mi, m in enumerate(manual):
        for ai, a in enumerate(auto):
            length = _overlap_length(m, a, tolerance)
            if length > 0:
                candidates.append((length, mi, ai))
    candidates.sort(key=lambda c: (-c[0], c[1], c[2]))

    conflicts = []
    used_m = set()
    used_a = set()
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


def _locate_by_scan(grid, word_tier, phone_tier, words, tolerance):
    wtier, _ = grid.find_tier(word_tier)
    ptier, _ = grid.find_tier(phone_tier)
    found = []
    for word_iv in wtier.non_empty():
        if word_iv.text not in words:
            continue
        stop_iv = None
        for phone_iv in ptier.non_empty():
            if abs(phone_iv.xmin - word_iv.xmin) <= tolerance:
                stop_iv = phone_iv
                break
        if stop_iv is None:
            raise PhoneAlignmentGap(word_iv.xmin)
        if phone_letter(stop_iv.text) not in STOP_LETTERS:
            raise VotError(word_iv.xmin)
        found.append((word_iv.xmin, word_iv.xmax, stop_iv.xmax, stop_iv.text))
    return found


def _most_overlapping_by_scan(ivs, token):
    best = None
    best_len = 0.0
    for iv in ivs:
        length = min(iv.xmax, token.xmax) - max(iv.xmin, token.xmin)
        if length > best_len:
            best, best_len = iv, length
    return best


# centisecond and millisecond times make exact and float-rounded ties
# common; arbitrary floats cover the rest
_starts = st.one_of(
    st.integers(0, 400).map(lambda k: k / 100),
    st.integers(0, 4000).map(lambda k: k / 1000),
    st.floats(0.0, 4.0, allow_nan=False),
)
_lengths = st.one_of(
    st.integers(1, 60).map(lambda k: k / 100),
    st.floats(1e-6, 0.6, allow_nan=False),
)
_tolerances = st.sampled_from([0.0, 0.005, 0.01, 0.011, 0.02, 0.05, 0.3])


@st.composite
def overlapping_tiers(draw, name="t", labels=("P", "T", "K")):
    """A sorted tier whose intervals may overlap, as a parsed grid's can."""
    spans = draw(
        st.lists(st.tuples(_starts, _lengths, st.sampled_from(labels)), max_size=25)
    )
    return IntervalTier(
        name, 0.0, 5.0, tuple(Interval(x, x + d, t) for x, d, t in spans)
    )


def _ids(pairs):
    return [(id(m), id(a)) for m, a in pairs]


class TestLookupsMatchScans:
    @settings(max_examples=60, deadline=None)
    @given(overlapping_tiers("m"), overlapping_tiers("a"), _tolerances)
    def test_pair_tokens(self, mtier, atier, tolerance):
        manual, auto = mtier.non_empty(), atier.non_empty()
        pairs, conflicts = _pair_tokens(manual, auto, tolerance)
        want_pairs, want_conflicts = _pair_tokens_all_pairs(manual, auto, tolerance)
        assert _ids(pairs) == _ids(want_pairs)
        assert conflicts == want_conflicts

    @settings(max_examples=60, deadline=None)
    @given(
        overlapping_tiers("words", labels=("PAT", "SO")),
        overlapping_tiers("phones", labels=("P", "AE1", "S")),
        _tolerances,
    )
    # 0.989 >= 1.0 - 0.011, yet abs(0.989 - 1.0) > 0.011; 0.99 is the match
    @example(
        IntervalTier("words", 0.0, 5.0, (Interval(1.0, 1.3, "PAT"),)),
        IntervalTier(
            "phones", 0.0, 5.0, (Interval(0.989, 0.99, "S"), Interval(0.99, 1.1, "P"))
        ),
        0.011,
    )
    def test_locate_words(self, wtier, ptier, tolerance):
        grid = TextGrid(0.0, 5.0, (ptier, wtier))
        try:
            want = _locate_by_scan(grid, "words", "phones", {"PAT"}, tolerance)
        except VotError as e:
            with pytest.raises(type(e)) as raised:
                locate_words(grid, "words", "phones", {"PAT"}, tolerance=tolerance)
            assert f"at {e.args[0]}:" in str(raised.value)
            return
        got = locate_words(grid, "words", "phones", {"PAT"}, tolerance=tolerance)
        assert [
            (o.start, o.end, o.stop_end, o.initial_stop.phone) for o in got
        ] == [(s, e, se, phone_letter(text)) for s, e, se, text in want]

    @settings(max_examples=60, deadline=None)
    @given(overlapping_tiers("words", labels=("PAT", "PIT")), _starts, _lengths)
    @example(  # equal overlaps: the first word in tier order wins
        IntervalTier("words", 0.0, 5.0, (Interval(1.0, 1.1, "PAT"), Interval(1.0, 1.2, "PIT"))),
        1.05,
        0.05,
    )
    def test_measure_word(self, wtier, xmin, length):
        phones = IntervalTier(
            "phones", 0.0, 5.0, (Interval(0.0, 4.9, "P"), Interval(4.9, 5.0, "AE1"))
        )
        token = Interval(xmin, xmin + length, "P")
        vot_tier = IntervalTier("vot", 0.0, 5.0, (token,))
        grid = TextGrid(0.0, 5.0, (phones, wtier, vot_tier))
        want = _most_overlapping_by_scan(wtier.non_empty(), token)
        if want is None:
            with pytest.raises(VotError):
                measure_cues(grid, "vot", "phones", "words", include_speaking_rate=False)
            return
        (m,) = measure_cues(grid, "vot", "phones", "words", include_speaking_rate=False)
        assert (m.word, m.word_duration) == (want.text, want.duration)


def long_grid(n_words):
    """phones/words/vot grid: PAT words, one token each, a sentence per 8."""
    phones, words, tokens = [], [], []
    t = 0.5
    for i in range(n_words):
        phones += [Interval(t, t + 0.08, "P"), Interval(t + 0.08, t + 0.2, "AE1"),
                   Interval(t + 0.2, t + 0.26, "T")]
        words.append(Interval(t, t + 0.26, "PAT"))
        tokens.append(Interval(t + 0.01, t + 0.08, "P"))
        t += 0.26
        if i % 8 == 7:
            words.append(Interval(t, t + 0.1, "sp"))
            t += 0.3
    xmax = t + 1.0
    tiers = tuple(
        IntervalTier(name, 0.0, xmax, tuple(ivs)).normalized()
        for name, ivs in (("phones", phones), ("words", words), ("vot", tokens))
    )
    return TextGrid(0.0, xmax, tiers)


def test_vot_path_scales_linearly():
    grid = long_grid(8000)
    tokens = grid.find_tier("vot")[0]
    start = time.perf_counter()
    occurrences = locate_words(grid, "words", "phones", {"PAT"})
    measurements = measure_cues(grid, "vot", "phones", "words")
    comparison = compare_boundaries(tokens, tokens)
    elapsed = time.perf_counter() - start
    assert len(occurrences) == len(measurements) == len(comparison.pairs) == 8000
    # the all-pairs scans this replaced took over 100 s here
    assert elapsed < 2.0
