import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpusphon.lexicon import (
    DuplicateEntryWarning,
    Lexicon,
    MalformedLine,
    NormalizationPolicy,
    Separator,
    derive_nonsilence_phones,
    derive_silence_files,
    extract_word_list,
    filter_lexicon,
    is_vowel,
    missing_words,
    parse_lexicon,
    render_lexicon,
    render_phone_groups,
)


class TestParseLexicon:
    def test_two_space_entry(self):
        lex = parse_lexicon("KLATT  K L AE1 T\n", Separator.TWO_SPACES)
        assert lex.prons("KLATT") == [("K", "L", "AE1", "T")]

    def test_multiple_prons(self):
        lex = parse_lexicon("A AH0\nA EY1\n")
        assert lex.prons("A") == [("AH0",), ("EY1",)]

    def test_word_without_phones(self):
        with pytest.raises(MalformedLine):
            parse_lexicon("WORD\n")

    def test_duplicate_collapsed_with_warning(self):
        with pytest.warns(DuplicateEntryWarning):
            lex = parse_lexicon("A AH0\nA AH0\n")
        assert lex.entries == [("A", ("AH0",))]

    def test_blank_lines_skipped(self):
        lex = parse_lexicon("\nA AH0\n\n")
        assert lex.entries == [("A", ("AH0",))]

    def test_form_feed_inside_a_line_keeps_later_line_numbers(self):
        # \x0c is whitespace inside line 1, not a line break
        with pytest.raises(MalformedLine, match=r"^line 2: word 'A' has no phones$"):
            parse_lexicon("PAT P AE1\x0c T\nA\n")

    def test_tab_separator(self):
        lex = parse_lexicon("WORD\tW ER D\n", Separator.TAB)
        assert lex.prons("WORD") == [("W", "ER", "D")]

    def test_render_round_trip(self):
        text = "<oov> oov\nA AH0\nA EY1\nKLATT K L AE1 T\n"
        assert render_lexicon(parse_lexicon(text)) == text


# whitespace that str.split() splits on, ASCII and not
SPACES = [" ", "\t", "\x0b", "\x0c", "\x1c", "\u00a0", "\u2003", "\u3000"]
LEX_WORDS = ["A", "PAT", "\u00c9T\u00c9", "ZZ"]
LEX_PHONES = ["AH0", "P", "AE1", "T"]


@st.composite
def lexicon_texts(draw):
    """(content, separator) with duplicates, and now and then a malformed line, among words."""
    separator = draw(st.sampled_from(list(Separator)))
    gap = st.text(st.sampled_from(SPACES), min_size=1, max_size=3)
    pad = st.sampled_from(["", "\u2003", "\u00a0 "])

    def sep():
        return {Separator.TAB: "\t", Separator.TWO_SPACES: "  "}.get(separator) or draw(gap)

    def render(word, phones):
        return draw(pad) + word + sep() + draw(gap).join(phones) + draw(pad)

    def malformed():
        word = draw(st.sampled_from(LEX_WORDS))
        return draw(st.sampled_from([
            word,  # no phones
            word + sep() + draw(st.sampled_from(["", *SPACES])),  # only whitespace after it
            sep() + " ".join(LEX_PHONES[:2]),  # no word, unless any whitespace separates
        ]))

    pairs = draw(st.lists(st.tuples(st.sampled_from(LEX_WORDS),
                                    st.lists(st.sampled_from(LEX_PHONES), min_size=1, max_size=3)),
                          max_size=10))
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=3)) if pairs else []  # duplicates
    lines = [render(word, phones) for word, phones in draw(st.permutations(pairs))]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", " ", "\u3000"])))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), malformed())
    return "".join(line + "\n" for line in lines), separator


def _reference_parse(content, separator):
    """The full parse as a plain loop: every line's phones split, duplicates found in one set."""
    sep = {Separator.TAB: "\t", Separator.TWO_SPACES: "  "}.get(separator)
    entries, seen = [], set()
    for i, line in enumerate(content.split("\n"), 1):
        if not line.split() if sep is None else not line.strip():
            continue
        word, *rest = line.split(sep, 1)
        word, phones = word.strip(), tuple(rest[0].split()) if rest else ()
        if not word:
            raise MalformedLine(f"line {i}: missing word")
        if not phones:
            raise MalformedLine(f"line {i}: word {word!r} has no phones")
        if (word, phones) in seen:
            warnings.warn(f"line {i}: duplicate entry for {word!r} collapsed", DuplicateEntryWarning)
            continue
        seen.add((word, phones))
        entries.append((word, phones))
    return Lexicon(entries)


def _parsed(parse, *args):
    """(entries or the error, warnings) of one parse."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = parse(*args).entries
        except MalformedLine as exc:
            result = str(exc)
    return result, [(w.category, str(w.message)) for w in caught]


class TestParseWantedWords:
    """A parse of wanted words keeps their entries and checks every line as a full parse does."""

    @settings(max_examples=400, deadline=None)
    @given(lexicon_texts(), st.sets(st.sampled_from([*LEX_WORDS, "NONE"])))
    def test_equals_the_full_parse_restricted(self, case, wanted):
        content, separator = case
        full = _parsed(parse_lexicon, content, separator)
        assert full == _parsed(_reference_parse, content, separator)
        part = _parsed(parse_lexicon, content, separator, wanted)
        assert part[1] == full[1]  # the same warnings, in order
        if isinstance(full[0], str):  # the same first error
            assert part[0] == full[0]
        else:
            assert part[0] == [e for e in full[0] if e[0] in wanted]

    def test_unused_word_lines_are_checked(self):
        with pytest.warns(DuplicateEntryWarning, match=r"^line 3: duplicate entry for 'B'"):
            lex = parse_lexicon("A AH0\nB B IY1\nB  B IY1\n", words={"A"})
        assert lex.entries == [("A", ("AH0",))]
        with pytest.raises(MalformedLine, match=r"^line 2: word 'B' has no phones$"):
            parse_lexicon("A\tAH0\nB\t\u2003\n", Separator.TAB, words={"A"})


class TestExtractWordList:
    def test_words_from_transcript(self):
        words = extract_word_list("SAY TUTT AGAIN\nSAY PAT AGAIN\nSAY DOT AGAIN")
        assert words == {"SAY", "TUTT", "AGAIN", "PAT", "DOT"}

    def test_normalization_keeps_apostrophe(self):
        words = extract_word_list("I'm worried about that.")
        assert words == {"I'M", "WORRIED", "ABOUT", "THAT"}

    def test_empty_input(self):
        assert extract_word_list("") == set()
        assert extract_word_list(". ?") == set()  # a token all punctuation is no word

    def test_strip_apostrophe_policy(self):
        policy = NormalizationPolicy(keep_apostrophe=False)
        assert extract_word_list("I'm", policy) == {"IM"}

    def test_markup_tokens_pass(self):
        assert extract_word_list("{NS} HI {SP}") == {"{NS}", "HI", "{SP}"}


class TestFilter:
    def lex(self):
        return parse_lexicon("A AH0\nA EY1\nZEBRA Z IY1 B R AH0\n")

    def test_oov_block_exact(self):
        filtered = filter_lexicon(self.lex(), {"A"}, ("<oov>", "<oov>"))
        assert render_lexicon(filtered) == "<oov> <oov>\nA AH0\nA EY1\n"

    def test_all_words_kept(self):
        lex = self.lex()
        filtered = filter_lexicon(lex, {"A", "ZEBRA"})
        assert filtered.entries[0] == ("<oov>", ("oov",))
        assert filtered.entries[1:] == lex.entries

    def test_empty_word_set(self):
        filtered = filter_lexicon(self.lex(), set())
        assert filtered.entries == [("<oov>", ("oov",))]

    def test_partition_with_missing(self):
        rng = random.Random(77)
        vocab = [f"W{i}" for i in range(40)]
        for _ in range(30):
            lex_words = set(rng.sample(vocab, rng.randint(0, 30)))
            lex = Lexicon([(w, ("AH0",)) for w in sorted(lex_words)])
            words = set(rng.sample(vocab, rng.randint(0, 30)))
            covered = {w for w, _ in filter_lexicon(lex, words).entries} - {
                "<oov>"
            }
            missing = set(missing_words(words, lex))
            assert covered | missing == words
            assert covered & missing == set()


class TestMissing:
    def test_set_difference(self):
        lex = parse_lexicon("KLATT K L AE1 T\n")
        assert missing_words({"KLATT", "XYZZY"}, lex) == ["XYZZY"]

    def test_all_covered(self):
        lex = parse_lexicon("KLATT K L AE1 T\n")
        assert missing_words({"KLATT"}, lex) == []

    def test_case_sensitive(self):
        lex = parse_lexicon("KLATT K L AE1 T\n")
        assert missing_words({"klatt"}, lex) == ["klatt"]


class TestNonsilencePhones:
    def test_stress_grouping(self):
        lex = Lexicon(
            [("W1", ("AA0", "K")), ("W2", ("AA2",)), ("W3", ("AA1",))]
        )
        groups = derive_nonsilence_phones(lex)
        assert groups == [["AA0", "AA1", "AA2"], ["K"]]
        assert render_phone_groups(groups) == "AA0 AA1 AA2\nK\n"

    def test_consonants_singletons(self):
        lex = Lexicon([("W", ("K", "T", "S"))])
        assert derive_nonsilence_phones(lex) == [["K"], ["S"], ["T"]]

    def test_empty_lexicon(self):
        assert derive_nonsilence_phones(Lexicon([])) == []

    def test_flattened_equals_phone_set(self):
        rng = random.Random(9)
        symbols = ["AA0", "AA1", "AH0", "ER0", "ER1", "K", "T", "ZH", "oov"]
        for _ in range(25):
            entries = [
                (f"W{i}", tuple(rng.choice(symbols) for _ in range(rng.randint(1, 5))))
                for i in range(rng.randint(1, 10))
            ]
            lex = Lexicon(entries)
            flattened = {
                p for group in derive_nonsilence_phones(lex) for p in group
            }
            brute = {p for _, pron in entries for p in pron}
            assert flattened == brute

    def test_er_grouped_like_any_vowel(self):
        lex = Lexicon([("W", ("ER0", "ER1", "ER2"))])
        assert derive_nonsilence_phones(lex) == [["ER0", "ER1", "ER2"]]

    def test_exclude(self):
        lex = Lexicon([("<oov>", ("oov",)), ("W", ("K",))])
        assert derive_nonsilence_phones(lex, {"oov"}) == [["K"]]


class TestSilenceFiles:
    def test_contents(self):
        silence, optional = derive_silence_files()
        assert silence == "SIL\noov\n"
        assert optional == "SIL\n"

    def test_constant(self):
        assert derive_silence_files() == derive_silence_files()


class TestArpabet:
    def test_is_vowel(self):
        assert is_vowel("AH0") and is_vowel("ER") and not is_vowel("K")


class TestUnstressedProns:
    def test_all_zero_stress_flagged(self):
        from corpusphon.lexicon import unstressed_only_prons

        lex = parse_lexicon("THE DH AH0\nKLATT K L AE1 T\n")
        assert unstressed_only_prons(lex) == [("THE", ("DH", "AH0"))]

    def test_stressless_symbols_not_flagged(self):
        from corpusphon.lexicon import unstressed_only_prons

        # non-Arpabet or digit-free lexicons carry no stress at all
        lex = parse_lexicon("WORD W ER D\n")
        assert unstressed_only_prons(lex) == []
