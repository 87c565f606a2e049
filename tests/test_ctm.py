from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpusphon import ctm, kaldi
from corpusphon.ctm import (
    ALIGNMENT_HEADER,
    AmbiguousPron,
    CtmEntry,
    MalformedCtmLine,
    PhoneSymbolTable,
    PhoneToken,
    PronunciationMismatch,
    TokenBeyondDuration,
    UnknownPhoneId,
    UnknownUtterance,
    align_corpus,
    align_file,
    alignment_rows,
    corpus_durations,
    group_words,
    match_words,
    parse_ctm,
    phones_to_tier,
    render_alignment_table,
    resolve_phone_ids,
    split_position,
    words_to_tier,
)
from corpusphon.lexicon import parse_lexicon
from corpusphon.rows import read_rows
from corpusphon.textgrid import Interval, TextGrid, parse_textgrid, write_textgrid

# hand-traced expectations for the fixture corpus: file time is the segment
# start plus the utterance-relative CTM time
F1_WORDS = [
    ("SAY", 0.60, 1.00),
    ("KLATT", 1.00, 1.60),
    ("AGAIN", 1.60, 2.30),
    ("SAY", 3.10, 3.48),
    ("PAT", 3.48, 3.95),
    ("AGAIN", 3.95, 4.70),
    ("DOT", 6.15, 6.75),
]
F2_WORDS = [
    ("SAY", 0.37, 0.75),
    ("TUTT", 0.75, 1.23),
    ("AGAIN", 1.23, 2.00),
    ("KLATT", 3.10, 3.88),
    ("PAT", 5.20, 5.80),
    ("DOT", 5.80, 6.55),
]
# first utterance of f1, shifted by its segment start 0.50
F1_FIRST_PHONES = [
    ("SIL", 0.50, 0.60),
    ("S_B", 0.60, 0.75),
    ("EY1_E", 0.75, 1.00),
    ("K_B", 1.00, 1.08),
    ("L_I", 1.08, 1.20),
    ("AE1_I", 1.20, 1.45),
    ("T_E", 1.45, 1.60),
    ("AH0_B", 1.60, 1.70),
    ("G_I", 1.70, 1.82),
    ("EH1_I", 1.82, 2.10),
    ("N_E", 2.10, 2.30),
    ("SIL", 2.30, 2.50),
]


@pytest.fixture
def corpus(fixtures):
    entries = parse_ctm((fixtures / "merged_alignment.ctm").read_text())
    segments = kaldi.parse_segments((fixtures / "segments").read_text())
    table = PhoneSymbolTable.parse((fixtures / "phones.txt").read_text())
    lex = parse_lexicon((fixtures / "lexicon.txt").read_text())
    text = {
        line.utt: list(line.words)
        for line in kaldi.parse_text((fixtures / "text").read_text())
    }
    return entries, segments, table, lex, text


def _joined(corpus):
    entries, segments, table, _, _ = corpus
    return alignment_rows(entries, segments, resolve_phone_ids(entries, table))


def _table(tokens):
    """The streamed final_ali.txt, joined and decoded."""
    return b"".join(render_alignment_table(tokens)).decode("utf-8")


def _reference_table(tokens):
    """final_ali.txt as one string, row by row, with no chunks and no time cache."""
    sec = kaldi.format_seconds
    rows = [
        "\t".join([t.utt, t.file_id, t.phone_field, str(t.channel), sec(t.start_in_utt),
                   sec(t.dur), t.phone, sec(t.utt_start), sec(t.utt_end), sec(t.start),
                   sec(t.end)])
        for t in tokens
    ]
    return "\n".join([ALIGNMENT_HEADER, *rows]) + "\n"


_NAMES = st.text(st.characters(codec="utf-8", exclude_characters="\t\n\r"),
                 min_size=1, max_size=4)
_TIMES = st.sampled_from([0.0, -0.0, 1e-7, 0.01, 2.5, 1234.5678905]) | st.floats(0.0, 1e5)
# any row the table can hold: names with non-ASCII text, and zeros of both signs
_TABLE_TOKENS = st.builds(
    PhoneToken, _NAMES, _NAMES, _NAMES, st.integers(0, 2), _TIMES, _TIMES,
    st.sampled_from(["SIL", "AH1_B", "T_E"]), _TIMES, _TIMES, _TIMES, _TIMES,
    st.just("X"), st.none(),
)


def _signed_zero_tokens(n):
    """n rows whose utterance-relative start and utterance start alternate 0.0 and -0.0."""
    zeros = (0.0, -0.0)
    return [
        PhoneToken("u", "f", "7", 1, zeros[i % 2], 0.01, "AH1_B", zeros[1 - i % 2],
                   2.5, i / 100, i / 100 + 0.01, "AH1", "B")
        for i in range(n)
    ]


def _per_file(tokens, segments, lex, text):
    """The corpus split, then each file's alignment: what ctm2tg runs."""
    return {
        fid: align_file(utterances, lex, text)
        for fid, utterances in align_corpus(tokens, segments).items()
    }


def _tok(base, pos, start, end):
    """A token of file "f"; the table-only columns are placeholders."""
    phone = base if pos is None else f"{base}_{pos}"
    return PhoneToken(
        "u", "f", phone, 1, start, end - start, phone, 0.0, end, start, end,
        base, pos,
    )


class TestParseCtm:
    def test_numeric_id(self):
        (entry,) = parse_ctm("u1 1 0.00 0.12 42\n")
        assert entry == CtmEntry("u1", 1, 0.0, 0.12, "42", line=1)
        table = PhoneSymbolTable.parse("AH1_B 42\n")
        assert resolve_phone_ids([entry], table) == ["AH1_B"]

    def test_symbolic(self):
        (entry,) = parse_ctm("u1 1 0.00 0.12 AH1_B\n")
        assert entry.phone == "AH1_B"

    def test_four_fields(self):
        with pytest.raises(MalformedCtmLine):
            parse_ctm("u1 1 0.00 0.12\n")

    def test_non_numeric_time(self):
        with pytest.raises(MalformedCtmLine):
            parse_ctm("u1 1 zero 0.12 42\n")

    def test_zero_duration(self):
        with pytest.raises(MalformedCtmLine):
            parse_ctm("u1 1 0.00 0.00 42\n")

    @pytest.mark.parametrize(
        "line",
        ["u1 1 nan 0.10 SIL", "u1 1 0.00 nan SIL", "u1 1 inf 0.10 SIL",
         "u1 1 0.00 inf SIL", "u1 1 -inf 0.10 SIL"],
    )
    def test_non_finite_time(self, line):
        with pytest.raises(MalformedCtmLine, match=r"^line 2: non-finite time"):
            parse_ctm(f"u1 1 0.00 0.10 SIL\n{line}\n")

    def test_digit_that_is_not_decimal(self):
        # "²".isdigit() is true, but int() rejects it
        with pytest.raises(MalformedCtmLine, match=r"^line 1: phone ID '²'"):
            parse_ctm("u1 1 0.00 0.10 ²\n")


class TestResolve:
    def test_table_lookup(self):
        table = PhoneSymbolTable.parse("AH1_B 42\n")
        assert resolve_phone_ids(parse_ctm("u1 1 0.0 0.1 42\n"), table) == ["AH1_B"]

    def test_symbolic_passthrough(self):
        table = PhoneSymbolTable.parse("AH1_B 42\n")
        assert resolve_phone_ids(parse_ctm("u1 1 0.0 0.1 X_B\n"), table) == ["X_B"]

    def test_unknown_id(self):
        table = PhoneSymbolTable.parse("AH1_B 42\n")
        with pytest.raises(UnknownPhoneId):
            resolve_phone_ids(parse_ctm("u1 1 0.0 0.1 999\n"), table)

    @pytest.mark.parametrize("column, symbol", [("007", "SIL"), ("٤٢", "AH1_B")])
    def test_table_keeps_the_raw_column(self, column, symbol):
        # the id column of final_ali.txt is the CTM phone column as written
        entries = parse_ctm(f"u 1 0.0 0.1 {column}\n")
        symbols = resolve_phone_ids(entries, PhoneSymbolTable.parse("SIL 7\nAH1_B 42\n"))
        assert symbols == [symbol]
        tokens = alignment_rows(entries, kaldi.parse_segments("u f 0.0 1.0\n"), symbols)
        row = _table(tokens).splitlines()[1].split("\t")
        assert row[2] == column and row[6] == symbol


class TestFileTimes:
    def test_offset_addition(self):
        segments = kaldi.parse_segments("u_002 f 4.60 8.54\n")
        entries = [CtmEntry("u_002", 1, 0.25, 0.10, "AH1_B")]
        (token,) = alignment_rows(entries, segments, ["AH1_B"])
        assert token.start == pytest.approx(4.85, abs=1e-9)
        assert token.end == pytest.approx(4.95, abs=1e-9)
        assert token.file_id == "f"
        assert token.phone_base == "AH1" and token.position == "B"

    def test_zero_start_is_segment_start(self):
        segments = kaldi.parse_segments("u f 3.25 5.0\n")
        entries = [CtmEntry("u", 1, 0.0, 0.1, "SIL")]
        (token,) = alignment_rows(entries, segments, ["SIL"])
        assert token.start == 3.25
        assert token.position is None

    def test_unknown_utterance(self):
        with pytest.raises(UnknownUtterance):
            alignment_rows([CtmEntry("zz", 1, 0.0, 0.1, "SIL")], [], ["SIL"])

    def test_suffix_split(self):
        assert split_position("AH1_B") == ("AH1", "B")
        assert split_position("AH_S") == ("AH", "S")
        assert split_position("SIL") == ("SIL", None)


class TestSplitByFile:
    """align_corpus splits the tokens by file; align_file sorts them."""

    def test_two_files(self, corpus):
        _, segments, _, lex, text = corpus
        tokens = _joined(corpus)
        per_file = _per_file(tokens, segments, lex, text)
        assert list(per_file) == ["f1", "f2"]
        for file_tokens, _ in per_file.values():
            starts = [t.start for t in file_tokens]
            assert starts == sorted(starts)
        total = sum(len(v) for v, _ in per_file.values())
        assert total == len(tokens)

    def test_empty(self):
        assert align_corpus([], []) == {}


class TestGroupWords:
    def test_b_to_e_unit(self):
        tokens = [
            _tok("K", "B", 0.0, 0.1),
            _tok("L", "I", 0.1, 0.2),
            _tok("AE1", "I", 0.2, 0.3),
            _tok("T", "E", 0.3, 0.4),
        ]
        result = group_words(tokens)
        assert len(result.units) == 1
        assert result.units[0].pron == ("K", "L", "AE1", "T")
        assert result.units[0].start == 0.0 and result.units[0].end == 0.4
        assert result.defects == []

    def test_singleton(self):
        result = group_words([_tok("AH0", "S", 0.0, 0.1)])
        assert result.units[0].pron == ("AH0",)

    def test_orphaned_internal(self):
        result = group_words([_tok("L", "I", 0.0, 0.1)])
        assert result.units == []
        assert len(result.defects) == 1
        assert result.defects[0].token_index == 0
        assert len(result.non_words) == 1

    def test_recovery_at_next_b(self):
        tokens = [
            _tok("L", "I", 0.0, 0.1),
            _tok("P", "B", 0.1, 0.2),
            _tok("AE1", "I", 0.2, 0.3),
            _tok("T", "E", 0.3, 0.4),
        ]
        result = group_words(tokens)
        assert [u.pron for u in result.units] == [("P", "AE1", "T")]
        assert len(result.defects) == 1

    def test_partition_property(self, corpus):
        _, segments, _, lex, text = corpus
        per_file = _per_file(_joined(corpus), segments, lex, text)
        for file_tokens, _ in per_file.values():
            result = group_words(file_tokens)
            in_units = [t for u in result.units for t in u.phones]
            assert sorted(
                in_units + result.non_words, key=lambda t: (t.start, t.phone)
            ) == sorted(file_tokens, key=lambda t: (t.start, t.phone))

    def test_silence_goes_to_non_words(self):
        result = group_words([_tok("SIL", None, 0.0, 0.5)])
        assert result.non_words[0].phone_base == "SIL"
        assert result.defects == []


class TestMatchWords:
    def lex(self):
        return parse_lexicon("KLATT K L AE1 T\n")

    def unit(self):
        return group_words(
            [
                _tok("K", "B", 0.0, 0.1),
                _tok("L", "I", 0.1, 0.2),
                _tok("AE1", "I", 0.2, 0.3),
                _tok("T", "E", 0.3, 0.4),
            ]
        ).units[0]

    def test_reverse_lookup(self):
        (word,) = match_words([self.unit()], self.lex())
        assert word.word == "KLATT"
        assert word.pron == ("K", "L", "AE1", "T")

    def test_positional_reference(self):
        (word,) = match_words([self.unit()], self.lex(), ["KLATT"])
        assert word.word == "KLATT"

    def test_reference_mismatch(self):
        lex = parse_lexicon("KLATT K L AE1 T\nPAT P AE1 T\n")
        with pytest.raises(PronunciationMismatch):
            match_words([self.unit()], lex, ["PAT"])

    def test_homophones_ambiguous(self):
        # brute-force reverse index: both words share the pron
        lex = parse_lexicon("RIGHT R AY1 T\nWRITE R AY1 T\n")
        rev = {}
        for w, p in lex.entries:
            rev.setdefault(p, []).append(w)
        assert rev[("R", "AY1", "T")] == ["RIGHT", "WRITE"]
        unit = group_words(
            [
                _tok("R", "B", 0.0, 0.1),
                _tok("AY1", "I", 0.1, 0.2),
                _tok("T", "E", 0.2, 0.3),
            ]
        ).units[0]
        with pytest.raises(AmbiguousPron):
            match_words([unit], lex)

    def test_unknown_pron(self):
        with pytest.raises(PronunciationMismatch):
            match_words([self.unit()], parse_lexicon("PAT P AE1 T\n"))

    def test_reverse_index_built_once_per_lexicon(self):
        class CountingList(list):
            iterations = 0

            def __iter__(self):
                self.iterations += 1
                return super().__iter__()

        lex = self.lex()
        lex.entries = CountingList(lex.entries)
        utterances = {utt: list(self.unit().phones) for utt in ("u1", "u2", "u3")}
        tokens, words = align_file(utterances, lex)
        assert [w.word for w in words] == ["KLATT"] * 3
        assert lex.entries.iterations == 1


class TestTiers:
    def test_phone_tier_gap_fill(self):
        tokens = [_tok("K_B", None, 1.0, 2.0), _tok("T_E", None, 3.0, 4.0)]
        tier = phones_to_tier(tokens, 10.0)
        assert tier.intervals[0] == Interval(0.0, 1.0, "")
        assert [iv.text for iv in tier.non_empty()] == ["K_B", "T_E"]
        assert tier.xmax == 10.0

    def test_token_beyond_duration(self):
        with pytest.raises(TokenBeyondDuration):
            phones_to_tier([_tok("K", None, 9.5, 10.2)], 10.0)

    def test_empty_tokens(self):
        tier = phones_to_tier([], 4.0)
        assert tier.intervals == (Interval(0.0, 4.0, ""),)

    def test_words_tier(self):
        words = match_words(
            [
                group_words(
                    [
                        _tok("K", "B", 1.0, 1.2),
                        _tok("L", "I", 1.2, 1.25),
                        _tok("AE1", "I", 1.25, 1.3),
                        _tok("T", "E", 1.3, 1.4),
                    ]
                ).units[0]
            ],
            parse_lexicon("KLATT K L AE1 T\n"),
        )
        tier = words_to_tier(words, 2.0)
        assert [
            (iv.text, iv.xmin, iv.xmax) for iv in tier.intervals
        ] == [("", 0.0, 1.0), ("KLATT", 1.0, 1.4), ("", 1.4, 2.0)]


class TestAlignmentTable:
    def test_header_and_round_trip(self, corpus):
        tokens = _joined(corpus)
        rendered = _table(tokens)
        lines = rendered.splitlines()
        assert lines[0] == ALIGNMENT_HEADER
        assert len(lines) == len(tokens) + 1
        back = []
        for line, t in zip(lines[1:], tokens):
            f = line.split("\t")
            assert f[:4] + f[6:7] == [
                t.utt, t.file_id, t.phone_field, str(t.channel), t.phone
            ]
            times = [float(x) for x in f[4:6] + f[7:]]
            assert times == pytest.approx(
                [t.start_in_utt, t.dur, t.utt_start, t.utt_end, t.start, t.end],
                abs=1e-6,
            )
            back.append(
                PhoneToken(f[0], f[1], f[2], int(f[3]), *times[:2], f[6],
                           *times[2:], *split_position(f[6]))
            )
        # re-rendering the columns read back is byte-stable
        assert _table(back) == rendered

    @settings(max_examples=150, deadline=None)
    @given(tokens=st.lists(_TABLE_TOKENS, max_size=12), chunk_rows=st.integers(1, 5))
    @example(tokens=_signed_zero_tokens(0), chunk_rows=3)  # the header alone
    @example(tokens=_signed_zero_tokens(2), chunk_rows=3)  # exactly one chunk
    @example(tokens=_signed_zero_tokens(3), chunk_rows=3)  # one chunk and one row
    @example(tokens=_signed_zero_tokens(7), chunk_rows=3)  # zeros of both signs in each chunk
    def test_chunks_join_to_the_one_string_table(self, tokens, chunk_rows):
        with mock.patch.object(ctm, "TABLE_CHUNK_ROWS", chunk_rows):
            chunks = list(render_alignment_table(tokens))
        assert all(type(chunk) is bytes for chunk in chunks)
        assert b"".join(chunks).decode("utf-8") == _reference_table(tokens)
        # every chunk holds chunk_rows lines, the header counting as one, but
        # the last, which holds at least one
        lines = [chunk.count(b"\n") for chunk in chunks]
        assert lines[:-1] == [chunk_rows] * (len(chunks) - 1)
        assert 1 <= lines[-1] <= chunk_rows

    def test_raw_phone_field_preserved(self, corpus):
        rows = _joined(corpus)
        numeric = [r for r in rows if r.utt == "s1_001"]
        assert numeric[0].phone_field == "1" and numeric[0].phone == "SIL"
        symbolic = [r for r in rows if r.utt == "s2_003"]
        assert symbolic[0].phone_field == "SIL"


class TestEndToEnd:
    def test_durations_from_segments(self, corpus):
        _, segments, _, _, _ = corpus
        assert corpus_durations(segments) == {"f1": 7.0, "f2": 7.0}

    def test_duration_conservation(self, corpus):
        entries, segments, _, lex, text = corpus
        ctm_total = sum(e.dur for e in entries)
        tokens = _joined(corpus)
        assert sum(t.dur for t in tokens) == pytest.approx(ctm_total, abs=1e-9)
        assert sum(t.end - t.start for t in tokens) == pytest.approx(
            ctm_total, abs=1e-6
        )
        grouped_total = 0.0
        for file_tokens, _ in _per_file(tokens, segments, lex, text).values():
            result = group_words(file_tokens)
            grouped_total += sum(
                t.end - t.start for u in result.units for t in u.phones
            )
            grouped_total += sum(t.end - t.start for t in result.non_words)
        assert grouped_total == pytest.approx(ctm_total, abs=1e-6)

    def test_word_alignment_matches_hand_trace(self, corpus):
        _, segments, _, lex, text = corpus
        per_file = _per_file(_joined(corpus), segments, lex, text)
        for fid, expected in (("f1", F1_WORDS), ("f2", F2_WORDS)):
            _, words = per_file[fid]
            got = [(w.word, w.start, w.end) for w in words]
            assert len(got) == len(expected)
            for (gw, gs, ge), (ew, es, ee) in zip(got, expected):
                assert gw == ew
                assert gs == pytest.approx(es, abs=1e-9)
                assert ge == pytest.approx(ee, abs=1e-9)

    def test_first_utterance_phones_match_hand_trace(self, corpus):
        first = [t for t in _joined(corpus) if t.utt == "s1_001"]
        assert len(first) == len(F1_FIRST_PHONES)
        for token, (symbol, start, end) in zip(first, F1_FIRST_PHONES):
            assert token.phone == symbol
            assert token.start == pytest.approx(start, abs=1e-9)
            assert token.end == pytest.approx(end, abs=1e-9)

    def test_pron_reconstruction_exact(self, corpus):
        _, segments, _, lex, text = corpus
        per_file = _per_file(_joined(corpus), segments, lex, text)
        for _, words in per_file.values():
            for w in words:
                assert w.pron in lex.prons(w.word)

    def test_textgrids_match_goldens(self, corpus, fixtures):
        _, segments, _, lex, text = corpus
        durations = corpus_durations(segments)
        per_file = _per_file(_joined(corpus), segments, lex, text)
        for fid, (tokens, words) in per_file.items():
            grid = TextGrid(
                0.0,
                durations[fid],
                (
                    phones_to_tier(tokens, durations[fid]),
                    words_to_tier(words, durations[fid]),
                ),
            )
            golden = (fixtures / "golden" / f"{fid}.TextGrid").read_bytes()
            assert write_textgrid(grid) == golden
            reparsed = parse_textgrid(golden)
            got_words = [
                (iv.text, iv.xmin, iv.xmax)
                for iv in reparsed.tiers[1].non_empty()
            ]
            expected = F1_WORDS if fid == "f1" else F2_WORDS
            assert got_words == [
                (w, pytest.approx(s, abs=1e-6), pytest.approx(e, abs=1e-6))
                for w, s, e in expected
            ]


class TestSilenceClassConfig:
    def test_unexpected_suffixless_symbol_is_defect(self):
        result = group_words([_tok("NOISE", None, 0.0, 0.5)])
        assert len(result.defects) == 1
        assert result.non_words[0].phone_base == "NOISE"


# ---------------------------------------------------------------------------
# characterization: group_words and the CTM reader against plain copies of
# the three-stage algorithm they replaced


def _reference_group_words(tokens):
    """group_words as a list of open (index, token) pairs and two closures."""
    units, non_words, defects = [], [], []
    open_run = []

    def abandon(reason):
        if open_run:
            defects.append((open_run[0][0], reason))
            non_words.extend(t for _, t in open_run)
            open_run.clear()

    def close():
        phones = tuple(t for _, t in open_run)
        units.append((tuple(t.phone_base for t in phones), phones[0].start, phones[-1].end, phones))
        open_run.clear()

    for i, token in enumerate(tokens):
        pos = token.position
        if pos is None:
            abandon(f"token {i}: word interrupted by {token.phone!r}")
            if token.phone_base not in ctm.SILENCE_SYMBOLS:
                defects.append((i, f"token {i}: {token.phone!r} has no word-position "
                                   "suffix and is not a known silence symbol"))
            non_words.append(token)
        elif pos == "B":
            abandon(f"token {i}: new word starts before previous one ended")
            open_run.append((i, token))
        elif pos == "S":
            abandon(f"token {i}: singleton starts before previous word ended")
            open_run.append((i, token))
            close()
        elif not open_run:
            kind = "internal" if pos == "I" else "final"
            defects.append((i, f"token {i}: {kind} phone with no open word"))
            non_words.append(token)
        else:
            open_run.append((i, token))
            if pos == "E":
                close()
    abandon("word still open at end of stream")
    return units, non_words, defects


@st.composite
def _position_tokens(draw):
    """A token stream of B/I/E/S and suffixless phones, silences among them."""
    drawn = draw(st.lists(
        st.tuples(st.sampled_from(["K", "AH1", "SIL", "sp", "NOISE"]),
                  st.sampled_from(["B", "I", "E", "S", None])),
        max_size=30,
    ))
    return [_tok(base, pos, i / 10, (i + 1) / 10) for i, (base, pos) in enumerate(drawn)]


class TestGroupWordsCharacterized:
    @settings(max_examples=300, deadline=None)
    @given(tokens=_position_tokens())
    def test_matches_the_closure_algorithm(self, tokens):
        units, non_words, defects = _reference_group_words(tokens)
        result = group_words(tokens)
        assert [(u.pron, u.start, u.end, u.phones) for u in result.units] == units
        assert result.non_words == non_words
        assert [(d.token_index, d.message) for d in result.defects] == defects


def _reference_tokens(content, segments, table):
    """parse_ctm, resolve_phone_ids and alignment_rows as three corpus-wide loops."""
    entries = []
    for i, (utt, raw_channel, _, _, raw_phone, start, dur) in read_rows(
        content, "", MalformedCtmLine, 5, "expected 5 fields, got {got}", times=(2, 3)
    ):
        try:
            channel = int(raw_channel)
        except ValueError:
            raise MalformedCtmLine(f"line {i}: non-integer channel") from None
        if start < 0:
            raise MalformedCtmLine(f"line {i}: negative start time")
        if dur <= 0:
            raise MalformedCtmLine(f"line {i}: non-positive duration")
        if raw_phone.isdigit() and not raw_phone.isdecimal():
            raise MalformedCtmLine(f"line {i}: phone ID {raw_phone!r} is not a decimal integer")
        entries.append((utt, channel, start, dur, raw_phone, i))
    symbols = []
    for _, _, _, _, raw, line in entries:
        phone = table.by_id.get(int(raw)) if raw.isdecimal() else raw
        if phone is None:
            raise UnknownPhoneId(f"line {line}: phone ID {raw} not in phones.txt")
        symbols.append(phone)
    seg_by_utt = {s.utt: s for s in segments}
    tokens = []
    for (utt, channel, in_utt, dur, raw, line), phone in zip(entries, symbols):
        seg = seg_by_utt.get(utt)
        if seg is None:
            raise UnknownUtterance(f"line {line}: utterance {utt!r} has no segments row")
        start = seg.start + in_utt
        tokens.append(PhoneToken(utt, seg.file_id, raw, channel, in_utt, dur, phone,
                                 seg.start, seg.end, start, start + dur, *split_position(phone)))
    return tokens


def _three_stages(content, segments, table):
    entries = parse_ctm(content)
    return alignment_rows(entries, segments, resolve_phone_ids(entries, table))


_READER_TABLE = PhoneSymbolTable.parse("SIL 1\nAH1_B 2\nT_E 3\nK_S 7\nsp 12\n")
# decimal IDs, zero-padded and non-ASCII decimal IDs, and symbols
_COLUMNS = ["1", "2", "3", "7", "12", "007", "0002", "٣", "SIL", "AH1_B", "X_I", "sp", "T_E"]
_UTTS = ["u1", "u2", "s_003", "ü4"]


@st.composite
def _ctm_corpus(draw):
    """A valid CTM over some of _UTTS, its segments rows (files shared or not) and its lines."""
    utts = draw(st.lists(st.sampled_from(_UTTS), min_size=1, max_size=4, unique=True))
    files = draw(st.lists(st.sampled_from(["f1", "f2", "g"]), min_size=len(utts),
                          max_size=len(utts)))
    segments = "".join(f"{u} {f} {k * 2.5:.2f} {k * 2.5 + 2:.2f}\n"
                       for k, (u, f) in enumerate(zip(utts, files)))
    lines = draw(st.lists(
        st.tuples(st.sampled_from(utts), st.integers(0, 2),
                  st.sampled_from(["0", "0.00", "-0.0", "0.25", "1.5e-1", "1.2345678"]),
                  st.sampled_from(["0.01", "0.1", "1e-3", "0.30"]),
                  st.sampled_from(_COLUMNS)),
        max_size=25,
    ))
    blank = draw(st.sampled_from(["", "\n"]))
    return "".join(f"{u} {c} {s} {d} {p}\n{blank}" for u, c, s, d, p in lines), segments


# one bad line of each kind the reader reports
_BAD_LINES = [
    "u1 1 0.0 0.1",  # four fields
    "u1 1 0.0 0.1 SIL x",  # six fields
    "u1 1 zero 0.1 SIL",  # non-numeric time
    "u1 1 0.0 nan SIL",  # non-finite time
    "u1 one 0.0 0.1 SIL",  # non-integer channel
    "u1 1 -0.5 0.1 SIL",  # negative start
    "u1 1 0.0 0.0 SIL",  # zero duration
    "u1 1 0.0 -0.1 SIL",  # negative duration
    "u1 1 0.0 0.1 ²",  # a digit that is not decimal
    "u1 1 0.0 0.1 999",  # unknown phone ID
    "zz 1 0.0 0.1 SIL",  # unknown utterance
]


class TestOnePassReader:
    """read_ctm gives what parse_ctm, resolve_phone_ids and alignment_rows give."""

    @settings(max_examples=200, deadline=None)
    @given(corpus=_ctm_corpus())
    def test_same_tokens_as_the_three_stages(self, corpus):
        content, segments_text = corpus
        segments = kaldi.parse_segments(segments_text)
        expected = _reference_tokens(content, segments, _READER_TABLE)
        tokens = ctm.read_ctm(content, segments, _READER_TABLE)
        assert tokens == expected
        assert [type(t) for t in tokens] == [PhoneToken] * len(expected)
        assert _three_stages(content, segments, _READER_TABLE) == expected
        # one string per distinct utterance ID and phone column
        for column in ("utt", "phone_field"):
            strings = {}
            assert all(strings.setdefault(getattr(t, column), getattr(t, column))
                       is getattr(t, column) for t in tokens)

    @settings(max_examples=200, deadline=None)
    @given(corpus=_ctm_corpus(), bad=st.sampled_from(_BAD_LINES), at=st.integers(0, 30))
    def test_same_error_for_one_bad_line(self, corpus, bad, at):
        content, segments_text = corpus
        segments = kaldi.parse_segments("u1 f1 0.0 2.0\n" + segments_text)
        lines = content.splitlines(keepends=True)
        lines.insert(min(at, len(lines)), bad + "\n")
        content = "".join(lines)
        outcomes = []
        for read in (_reference_tokens, _three_stages, ctm.read_ctm):
            with pytest.raises(ctm.CtmError) as info:
                read(content, segments, _READER_TABLE)
            outcomes.append((type(info.value), str(info.value)))
        assert outcomes[0][1].startswith(f"line {min(at, len(lines) - 1) + 1}: ")
        assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]

    # the first bad line comes after good lines that share its other fields
    @pytest.mark.parametrize("bad, error, message", [
        ("u1 1.0 0.2 0.1 SIL", MalformedCtmLine, "line 3: non-integer channel"),
        ("u1 1 0.2 0.1 2\u00b2", MalformedCtmLine,
         "line 3: phone ID '2\u00b2' is not a decimal integer"),
        ("u1 1 0.2 0.1 22", UnknownPhoneId, "line 3: phone ID 22 not in phones.txt"),
        ("u9 1 0.2 0.1 2", UnknownUtterance, "line 3: utterance 'u9' has no segments row"),
    ], ids=["channel", "non-decimal-id", "unknown-id", "unknown-utterance"])
    def test_a_bad_line_after_a_run_of_good_ones(self, bad, error, message):
        segments = kaldi.parse_segments("u1 f1 0.0 2.0\n")
        content = f"u1 1 0.0 0.1 2\nu1 1 0.1 0.1 2\n{bad}\nu1 1 0.3 0.1 2\n"
        with pytest.raises(error) as info:
            ctm.read_ctm(content, segments, _READER_TABLE)
        assert str(info.value) == message

    def test_an_utterance_that_comes_back_joins_its_own_segments_row(self):
        segments = kaldi.parse_segments("u1 f1 1.0 3.0\nu2 f2 5.0 7.0\n")
        content = "u1 1 0.0 0.1 2\nu2 2 0.0 0.1 2\nu2 2 0.1 0.1 2\nu1 1 0.5 0.1 2\n"
        tokens = ctm.read_ctm(content, segments, _READER_TABLE)
        assert [(t.utt, t.file_id, t.channel, t.start, t.utt_start) for t in tokens] == [
            ("u1", "f1", 1, 1.0, 1.0), ("u2", "f2", 2, 5.0, 5.0),
            ("u2", "f2", 2, 5.1, 5.0), ("u1", "f1", 1, 1.5, 1.0)]
