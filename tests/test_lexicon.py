import random

import pytest

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
