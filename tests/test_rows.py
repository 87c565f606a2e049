"""The one row reader, through each of the thirteen readers that use it.

Every line-oriented input (the five Kaldi data files, CTM, phones.txt,
FAVE transcripts, word locations, kaldi-prep build's records TSV, .lab
transcripts, --config files and --words lists) is read by rows.read_rows,
so each format breaks lines, skips blank lines and refuses NaN or inf
times the same way. The table below names each reader with a valid
sample; the tests run every row. The records TSV is read by `kaldi-prep
build` through main, whose exit 2 the helper turns back into the
UsageError it printed. The config and word-list readers take a path, so
their helpers write the content to a file first; each other format is also
read from a file through the command that reads it, where a lone '\r'
must stay in its line as it does in the library.

read_rows and the TextGrid reader both cut lines with rows.Lines; two
properties pin read_rows and the walker to plain copies of the rules they
keep. The last tests are ast scans: one keeps one walker (no line
splitting in src/ outside rows.py, with no exception), the other one
decoder (no read_text( or text-mode open( in src/, and UnicodeDecodeError
caught only by rows.read_utf8 and the TextGrid decoder).
"""

import ast
import contextlib
import io
import re
import tempfile
import tracemalloc
from dataclasses import astuple, is_dataclass
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpusphon import ctm, kaldi, transcripts, vot
from corpusphon.cli import UsageError, load_config, main, read_words
from corpusphon.rows import Lines, read_rows

SRC = Path(__file__).resolve().parent.parent / "src" / "corpusphon"


def build_records(content: str):
    """kaldi-prep build on a records TSV: exit code and the files it wrote."""
    with tempfile.TemporaryDirectory() as tmp:
        records, out = Path(tmp, "in", "records.tsv"), Path(tmp, "data")
        records.parent.mkdir()
        records.write_bytes(content.encode("utf-8"))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(["kaldi-prep", "build", "--records", str(records), "--out", str(out)])
        if rc == 2:
            raise UsageError(err.getvalue().strip().removeprefix("corpusphon: "))
        return rc, {p.name: p.read_bytes() for p in sorted(out.glob("*"))}


def in_file(read):
    """read(path) of the content, written to a file: the reader of a path as a parser."""
    def parse(content: str):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "in.txt")
            path.write_bytes(content.encode("utf-8"))
            return read(str(path))
    return parse


def check_lab(content: str):
    """(location, message) of each finding of a .lab transcript; the first error is raised."""
    report = transcripts.validate_single_line_transcript(content)
    if report.errors:
        first = report.errors[0]
        raise transcripts.TranscriptError(f"{first.location}: {first.message}")
    return [(f.location, f.message) for f in report.findings]


# id: (parse, error class, separator, sample rows, time columns, a free text column)
FORMATS = {
    "text": (kaldi.parse_text, kaldi.KaldiDataError, " ",
             [["u1", "SAY", "PAT"], ["u2", "HI"]], (), None),
    "segments": (kaldi.parse_segments, kaldi.KaldiDataError, " ",
                 [["u1", "f1", "0.0", "1.5"], ["u2", "f1", "1.50", "3"]], (2, 3), None),
    "wav.scp": (kaldi.parse_wav_scp, kaldi.KaldiDataError, " ",
                [["f1", "p/f1.wav"], ["f2", "sox p/f2.wav -t wav - |"]], (), None),
    "utt2spk": (kaldi.parse_utt2spk, kaldi.KaldiDataError, " ",
                [["u1", "s1"], ["u2", "s1"]], (), None),
    "spk2utt": (kaldi.parse_spk2utt, kaldi.KaldiDataError, " ",
                [["s1", "u1", "u2"], ["s2", "u3"]], (), None),
    "ctm": (ctm.parse_ctm, ctm.MalformedCtmLine, " ",
            [["u1", "1", "0.00", "0.10", "SIL"], ["u1", "1", "0.10", "0.05", "42"]], (2, 3), None),
    "phones.txt": (ctm.PhoneSymbolTable.parse, ctm.CtmError, " ",
                   [["<eps>", "0"], ["SIL", "1"], ["AH1_B", "2"]], (), None),
    "fave": (transcripts.parse_fave_transcript, transcripts.TranscriptError, "\t",
             [["S1", "Speaker One", "0.0", "1.5", "SAY PAT"], ["S2", "Two", "1.5", "3.0", "HI"]],
             (2, 3), 4),
    "locations": (vot.parse_word_locations, vot.VotError, "\t",
                  [["f1", "PAT", "3.48", "3.95", "P", "3.55"],
                   ["f1", "DOT", "5.0", "5.3", "D", "5.05"]], (2, 3, 5), 1),
    "records": (build_records, UsageError, "\t",
                [["u1", "f1", "0.0", "1.5", "s1", "p/f1.wav", "SAY PAT"],
                 ["u2", "f1", "1.5", "3.0", "s1", "p/f1.wav", "HI"]], (2, 3), 6),
    # each "sp" token is an Info finding at its line
    "lab": (check_lab, transcripts.TranscriptError, " ",
            [["SAY", "sp", "PAT"], ["HI", "sp"]], (), None),
    "config": (in_file(lambda path: list(load_config(path).items())), UsageError, " = ",
               [["word_tier", "words"], ["tolerance", "0.02"]], (), 1),
    # sorted, and the sample's first word sorts first; a word holds no whitespace
    "words": (in_file(lambda path: [(w,) for w in sorted(read_words(path))]), UsageError, " ",
              [["AY"], ["PAT"]], (), 0),
}
# a line each format refuses after the first, and its error; "x" is a short row.
# A config error also quotes its line.
BAD_LINE = {"lab": ("HI,", r"^line 2: "), "config": ("x", r" line 2: 'x' is not 'key = value'$")}
TIMED = [name for name, row in FORMATS.items() if row[4]]


def render(sep, rows, newline="\n"):
    return "".join(sep.join(fields) + newline for fields in rows)


def with_char(sep, fields, free, char):
    """The line of fields with char inside it, where it leaves the fields as they are."""
    if free is None:  # whitespace-separated: char joins the first separator
        return sep.join(fields).replace(" ", " " + char, 1)
    fields = list(fields)
    fields[free] = fields[free][:1] + char + fields[free][1:]
    return sep.join(fields)


@pytest.mark.parametrize("name", FORMATS)
@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_crlf_and_cr_parse_as_lf(name, newline):
    parse, _, sep, rows, *_ = FORMATS[name]
    assert parse(render(sep, rows, newline)) == parse(render(sep, rows))


@pytest.mark.parametrize("name", FORMATS)
@pytest.mark.parametrize("char", ["\r", "\x0c", "\x85", "\u2028"], ids=["cr", "ff", "nel", "ls"])
def test_a_line_break_str_splitlines_knows_stays_in_its_line(name, char):
    parse, error, sep, rows, times, free = FORMATS[name]
    lines = [with_char(sep, rows[0], free, char), *(sep.join(f) for f in rows[1:])]
    if name == "words":
        # each char is whitespace to str.split(), so it makes line 1 two words, which a
        # word list refuses at line 1; had it broken the line, there would be three words
        with pytest.raises(error, match=r" line 1: expected one word, got 2 fields$"):
            parse("".join(line + "\n" for line in lines))
        return
    parsed = parse("".join(line + "\n" for line in lines))
    if name == "records":
        assert parsed[0] == 0 and parsed[1]["text"].count(b"\n") == len(rows)
    elif name == "phones.txt":
        assert len(parsed.by_id) == len(rows)
    else:
        assert len(parsed) == len(rows)
        if free is not None:
            first = astuple(parsed[0]) if is_dataclass(parsed[0]) else parsed[0]
            assert any(isinstance(v, str) and char in v for v in first)
    # the line count goes on after the one line: a bad line after it is line 2
    bad = BAD_LINE.get(name, ("x", r"line 2: "))
    with pytest.raises(error, match=bad[1]):
        parse(lines[0] + "\n" + bad[0] + "\n")


@pytest.mark.parametrize("name", TIMED)
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "1e999"])
def test_a_non_finite_time_names_its_line(name, value):
    parse, error, sep, rows, times, _ = FORMATS[name]
    for column in times:
        bad = [list(f) for f in rows]
        bad[1][column] = value
        # the blank first line counts: the bad row is line 3
        with pytest.raises(error, match=r"line 3: non-finite time$"):
            parse("\n" + render(sep, bad))


@pytest.mark.parametrize("name", TIMED)
def test_a_non_numeric_time_names_its_line(name):
    parse, error, sep, rows, times, _ = FORMATS[name]
    for column in times:
        bad = [list(f) for f in rows]
        bad[0][column] = "zero"
        with pytest.raises(error, match=r"line 1: non-numeric time$"):
            parse(render(sep, bad))


INSERTS = ["\t", "\r", "\n", "\x0c", "\x85", "\u2028", "nan", "inf"]


@st.composite
def mutated(draw, content):
    """content with one to three character ranges deleted or duplicated, or inserts."""
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(content)))
        j = draw(st.integers(i, min(len(content), i + 8)))
        kind = draw(st.sampled_from(["delete", "duplicate", "insert"]))
        if kind == "delete":
            content = content[:i] + content[j:]
        elif kind == "duplicate":
            content = content[:j] + content[i:j] + content[j:]
        else:
            content = content[:i] + draw(st.sampled_from(INSERTS)) + content[i:]
    return content


@st.composite
def mutated_inputs(draw):
    name = draw(st.sampled_from(sorted(FORMATS)))
    _, _, sep, rows, *_ = FORMATS[name]
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return name, draw(mutated(render(sep, rows, newline)))


# 300 examples over the thirteen formats: about 1 s on a 2 vCPU VM
@settings(max_examples=300, deadline=None)
@given(mutated_inputs())
def test_only_the_format_error_escapes_a_mutated_input(case):
    name, content = case
    parse, error, *_ = FORMATS[name]
    try:
        parse(content)
    except error:
        pass


@pytest.mark.parametrize("name", FORMATS)
def test_a_byte_order_mark_is_refused_at_line_1(name):
    # Kaldi's tools read U+FEFF as part of the first field, so no reader may take it
    parse, error, sep, rows, *_ = FORMATS[name]
    message = "line 1: starts with a byte order mark (U+FEFF); save the file as UTF-8 without one"
    with pytest.raises(error, match=re.escape(message) + "$"):
        parse("\ufeff" + render(sep, rows))


# The formats whose FORMATS reader takes a string, each reached through the
# command that reads its file from disk (records, config and words read a
# file in FORMATS already): the file's name, the command with {dir} for the
# input directory, and the valid files it reads before that one.
KALDI_DIR = ["kaldi-prep", "validate", "{dir}"]
CTM2TG = ["ctm2tg", "--ctm", "{dir}/ali.ctm", "--segments", "{dir}/segments",
          "--phones", "{dir}/phones.txt", "--lexicon", "{dir}/lexicon.txt", "--out", "{out}"]
CTM_INPUTS = {"segments": "u1 f1 0.0 1.5\n", "phones.txt": "SIL 1\nAH1 42\n",
              "lexicon.txt": "SAY S EY1\n"}
FROM_DISK = {
    **{name: (name, KALDI_DIR, {})
       for name in ("text", "segments", "wav.scp", "utt2spk", "spk2utt")},
    "ctm": ("ali.ctm", CTM2TG, CTM_INPUTS),
    "phones.txt": ("phones.txt", CTM2TG, CTM_INPUTS),
    "fave": ("a.txt", ["fave", "check", "{dir}/a.txt"], {}),
    "locations": ("loc.tsv", ["vot", "windows", "{dir}/a.TextGrid", "--locations",
                              "{dir}/loc.tsv", "--out-dir", "{out}"], {}),
    "lab": ("a.lab", ["validate-mfa", "{dir}/a.lab"], {}),
}


@pytest.mark.parametrize("name", FROM_DISK)
def test_a_lone_cr_in_a_file_stays_in_its_line(name, tmp_path):
    # a file read as text with universal newlines broke its line at the '\r', so the
    # command named a later line than the library, and than Kaldi's line reader
    parse, error, sep, rows, _, free = FORMATS[name]
    file, argv, before = FROM_DISK[name]
    lines = [with_char(sep, rows[0], free, "\r"), *(sep.join(f) for f in rows[1:]),
             BAD_LINE.get(name, ("x",))[0]]
    content = "".join(line + "\n" for line in lines)
    with pytest.raises(error) as raised:
        parse(content)
    src, report = tmp_path / "in", tmp_path / "r.tsv"
    src.mkdir()
    for other, text in before.items():
        (src / other).write_text(text)
    (src / file).write_bytes(content.encode())
    argv = [a.format(dir=src, out=tmp_path / "out") for a in argv]
    assert main([*argv, "--report", str(report)]) == 1
    findings = [line.split("\t") for line in report.read_text().splitlines()]
    errors = [f"{where}: {message}" if where else message
              for severity, _, where, message in findings if severity == "ERROR"]
    assert errors == [str(raised.value)]
    assert f"line {len(lines)}: " in errors[0]


# ---------------------------------------------------------------------------
# one line walker: rows.Lines and read_rows against plain copies of the rules they keep


def reference_rows(content, sep, maxsplit):
    """read_rows' (line number, fields) by the one-line rule of a list of every line."""
    lines = content.replace("\r\n", "\n").split("\n") if "\n" in content else content.split("\r")
    return [(i, fields) for i, line in enumerate(lines, 1)
            if (fields := line.split(sep, maxsplit)) and not (sep and not line.strip())]


class ReferenceLines:
    """A plain copy of the walker: (line number, line) 8 K characters at a time."""

    def __init__(self, text):
        self.text, self.pos = text, 0
        self.sep = "\n" if "\n" in text else "\r"

    def __iter__(self):
        text, sep, n = self.text, self.sep, 0
        while (pos := self.pos) <= len(text):
            cut = text.find(sep, pos + 8192)
            for line in (text[pos:] if cut < 0 else text[pos:cut]).split(sep):
                self.pos = pos = pos + len(line) + 1
                n += 1
                yield n, line
                if self.pos != pos:
                    n += text.count(sep, pos, self.pos)
                    break


PIECES = ["a", "b c", "\t", " = ", "\n", "\r\n", "\r", "\x0c", "\x85", "\u2028", "\u00e9"]
short_text = st.lists(st.sampled_from(PIECES), max_size=12).map("".join)


@st.composite
def long_texts(draw):
    """Short lines around long ones, the first of which ends within 3 of the 8 K cut."""
    head = draw(short_text)
    text = head + "x" * (8191 - len(head) + draw(st.integers(-3, 3))) + draw(short_text)
    for _ in range(draw(st.integers(0, 2))):
        text += "y" * draw(st.integers(8180, 8200)) + draw(short_text)
    return text


# the first chunk cut is the '\n' of a CRLF, and a '\r' ends the text
@example("x" * 8191 + "\r\na\tb\r\nc\r")
@example("x" * 8191 + "\r\r\nb\r")
@settings(max_examples=200, deadline=None)
@given(st.one_of(short_text, long_texts()))
def test_read_rows_gives_the_lines_of_the_one_line_rule(content):
    for sep in (None, "\t", " = "):
        for maxsplit in (-1, 1):
            rows = read_rows(content, "", ValueError, 0, "", sep=sep, maxsplit=maxsplit,
                             exact=False)
            assert list(rows) == reference_rows(content, sep, maxsplit)


@example("x" * 8191 + "\r\na\r\n\r\nb", [0, 5, 0])
@settings(max_examples=200, deadline=None)
@given(st.one_of(short_text, long_texts()), st.lists(st.integers(0, 9000), max_size=8))
def test_the_walker_follows_a_moved_pos(text, jumps):
    # the TextGrid block matcher moves pos on between two lines; jumps[k] after line k
    def walk(lines):
        seen = []
        for k, (n, line) in enumerate(lines):
            seen.append((n, line, lines.pos))
            if k < len(jumps) and jumps[k]:
                lines.pos = min(lines.pos + jumps[k], len(text))
        return seen

    assert walk(Lines(text)) == walk(ReferenceLines(text))


def test_read_rows_holds_one_chunk_not_every_line():
    content = "u1 SAY\n" * 400_000  # 2.8 M characters, built before tracing starts
    tracemalloc.start()
    try:
        for _ in read_rows(content, "", ValueError, 2, ""):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


# ---------------------------------------------------------------------------
# one walker and one decoder: the ast scans


def _is_newline_split(node) -> bool:
    return (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "split" and len(node.args) >= 1
        and isinstance(node.args[0], ast.Constant) and node.args[0].value == "\n"
    )


def line_split(node):
    """node if it is a .splitlines() call, the iterable if it loops over .split("\\n")."""
    if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "splitlines":
        return node
    if isinstance(node, (ast.For, ast.comprehension)):
        if any(_is_newline_split(n) for n in ast.walk(node.iter)):
            return node.iter
    return None


def text_read(node):
    """node if it is a read_text( call or an open( in text mode (os.open opens no text)."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "os":
        return None
    name = getattr(func, "attr", getattr(func, "id", None))
    # open(file, mode) or path.open(mode); with no "b" in its mode, a file is text
    modes = node.args[1:2] if isinstance(func, ast.Name) else node.args[:1]
    modes += [k.value for k in node.keywords if k.arg == "mode"]
    binary = any(isinstance(m, ast.Constant) and "b" in str(m.value) for m in modes)
    return node if name == "read_text" or name == "open" and not binary else None


def decode_handler(node):
    """node if it is an except clause that catches UnicodeDecodeError."""
    if isinstance(node, ast.ExceptHandler) and node.type is not None:
        if any(getattr(n, "id", None) == "UnicodeDecodeError" for n in ast.walk(node.type)):
            return node
    return None


def scan(tree: ast.Module, module: str, match):
    """(qualified name, line) of each node for which match gives a node, at that node's line."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        if (at := match(node)) is not None:
            found.append((scope, at.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, module)
    return found


def modules():
    for path in sorted(SRC.glob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"), str(path))


def test_line_splitting_stays_in_the_row_reader():
    bad = [f"{path.name}:{line} {scope}" for path, tree in modules() if path.name != "rows.py"
           for scope, line in scan(tree, path.stem, line_split)]
    assert not bad, f"cut lines with rows.Lines or rows.read_rows: {bad}"


def test_the_scan_finds_a_splitlines_loop():
    tree = ast.parse(
        "def parse(content):\n"
        "    for line in content.splitlines():\n        pass\n"
        "    return [l for l in content.split('\\n')]\n"
    )
    assert scan(tree, "kaldi", line_split) == [("kaldi.parse", 2), ("kaldi.parse", 4)]


# the two functions that turn bytes into text: read_utf8 for every input but a
# TextGrid, and the TextGrid decoder, which also reads UTF-16
DECODERS = {"rows.read_utf8", "textgrid._decode"}


def test_text_is_decoded_by_the_two_decoders_alone():
    reads = [f"{path.name}:{line} {scope}" for path, tree in modules()
             for scope, line in scan(tree, path.stem, text_read)]
    assert not reads, f"read a text input with rows.read_utf8: {reads}"
    handlers = {scope for path, tree in modules()
                for scope, _ in scan(tree, path.stem, decode_handler)}
    assert handlers == DECODERS


def test_the_scan_finds_a_text_read_and_a_decode_handler():
    tree = ast.parse(
        "def read(path):\n"
        "    text = path.read_text()\n"
        "    with open(path) as f, path.open('rb') as g, open(path, mode='rb') as h:\n"
        "        fd = os.open(path, os.O_RDONLY)\n"
        "    try:\n        path.open('r')\n"
        "    except (OSError, UnicodeDecodeError):\n        pass\n"
    )
    assert scan(tree, "cli", text_read) == [("cli.read", 2), ("cli.read", 3), ("cli.read", 6)]
    assert scan(tree, "cli", decode_handler) == [("cli.read", 7)]
