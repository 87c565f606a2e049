"""One sort order: Python's own str order is the C-locale byte order.

Kaldi's tools want their files sorted by the bytes of each line. For any
string without a lone surrogate, and strict UTF-8 decoding never yields
one, code-point order is UTF-8 byte order, so src/ sorts plain str values
and never builds a byte key. The property below is the invariant that
rests on; the CLI test reads the written files back as bytes; the ast scan
fails on a sort key in src/ that encodes.
"""

import ast
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from corpusphon.cli import main
from corpusphon.lexicon import stress_base

SRC = Path(__file__).resolve().parent.parent / "src" / "corpusphon"

# every code point but the surrogates, with the astral plane drawn often
SCALARS = st.one_of(
    st.characters(blacklist_categories=("Cs",)),
    st.characters(min_codepoint=0x10000, max_codepoint=0x10FFFF, blacklist_categories=("Cs",)),
)


# 200 examples: under 1 s on a 2 vCPU VM
@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(SCALARS, max_size=6), max_size=12))
def test_str_order_is_utf8_byte_order(xs):
    assert sorted(xs) == sorted(xs, key=lambda s: s.encode("utf-8"))


# IDs whose UTF-8 byte order differs from a case-folded, accent-folded or UTF-16 order:
# U+FF21 sorts below U+1D11E in UTF-8 and above it in UTF-16
IDS = ["u1", "uZ", "ua", "ué", "u中", "u\U0001d11e", "uＡ", "U9", "é1",
       "\U0001d11e3"]


def first_fields(path: Path) -> list[bytes]:
    return [line.split(b" ")[0] for line in path.read_bytes().splitlines()]


def assert_byte_sorted(path: Path) -> None:
    lines = path.read_bytes().splitlines()
    assert lines and lines == sorted(lines), path.name
    keys = first_fields(path)
    assert keys == sorted(keys), path.name


def test_kaldi_build_and_fix_write_utf8_byte_order(tmp_path):
    records = tmp_path / "in" / "records.tsv"
    records.parent.mkdir()
    # reversed, so the build has to sort; two speakers, each file ID used twice
    rows = [(utt, f"f{utt[-1]}", f"{i}.0", f"{i}.5", ("sé", "s\U0001d11e")[i % 2],
             f"w/f{utt[-1]}.wav", "SAY ÉTÉ")
            for i, utt in enumerate(IDS)]
    records.write_text("".join("\t".join(r) + "\n" for r in reversed(rows)), encoding="utf-8")
    built, fixed = tmp_path / "data", tmp_path / "fixed"
    assert main(["kaldi-prep", "build", "--records", str(records), "--out", str(built)]) == 0
    # fix's input: the built files with their lines reversed
    shuffled = tmp_path / "shuffled"
    shuffled.mkdir()
    for f in built.iterdir():
        (shuffled / f.name).write_bytes(b"".join(l + b"\n" for l in f.read_bytes().splitlines()[::-1]))
    assert main(["kaldi-prep", "fix", str(shuffled), "--out", str(fixed)]) == 0
    for d in (built, fixed):
        for name in ("text", "segments", "wav.scp", "utt2spk", "spk2utt"):
            assert_byte_sorted(d / name)
        for line in (d / "spk2utt").read_bytes().splitlines():
            utts = line.split(b" ")[1:]
            assert utts == sorted(utts)
    assert sorted(first_fields(built / "text")) == sorted(i.encode() for i in IDS)
    assert all((fixed / f.name).read_bytes() == f.read_bytes() for f in built.iterdir())


def test_lexicon_and_vot_outputs_are_in_utf8_byte_order(tmp_path):
    src, out = tmp_path / "in", tmp_path / "out"
    src.mkdir()
    words = [f"P{i}" for i in IDS]
    lexicon = src / "lexicon.txt"
    # stop + vowel words with non-ASCII phones, and stress variants of one vowel
    lexicon.write_text("".join(f"{w} P AE{k % 3} {IDS[k]}\n" for k, w in enumerate(reversed(words)))
                       + "SAY S EY1\n", encoding="utf-8")
    word_list = src / "words.txt"
    word_list.write_text("".join(f"X{w}\n" for w in reversed(words)), encoding="utf-8")
    lex = ["--lexicon", str(lexicon)]
    assert main(["lexicon", "missing", *lex, "--words", str(word_list),
                 "--out", str(out / "missing.txt")]) == 0
    assert main(["lexicon", "phones", *lex, "--out-dir", str(out / "phones")]) == 0
    assert main(["vot", "words", *lex, "--out", str(out / "words.txt")]) == 0
    assert_byte_sorted(out / "missing.txt")
    assert len(first_fields(out / "missing.txt")) == len(IDS)
    assert_byte_sorted(out / "words.txt")
    assert len(first_fields(out / "words.txt")) == len(IDS)
    groups = [line.split(b" ") for line in (out / "phones" / "nonsilence_phones.txt")
              .read_bytes().splitlines()]
    assert [b"AE0", b"AE1", b"AE2"] in groups
    assert all(g == sorted(g) for g in groups)
    bases = [stress_base(g[0].decode()).encode() for g in groups]
    assert bases == sorted(bases)


# ---------------------------------------------------------------------------
# the ast scan


def _calls_encode(node) -> bool:
    return any(isinstance(n, ast.Attribute) and n.attr == "encode" for n in ast.walk(node))


def encoding_keys(tree: ast.Module) -> list[int]:
    """The line of each key= argument that calls .encode, itself or through a module function."""
    encoders = {
        node.name for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _calls_encode(node)
    }
    return [
        kw.value.lineno
        for node in ast.walk(tree) if isinstance(node, ast.Call)
        for kw in node.keywords
        if kw.arg == "key" and (_calls_encode(kw.value) or any(
            isinstance(n, ast.Name) and n.id in encoders for n in ast.walk(kw.value)))
    ]


def test_no_sort_key_in_src_encodes():
    bad = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in encoding_keys(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    ]
    assert not bad, f"sort plain str values; they are already in byte order: {bad}"


def test_the_scan_finds_an_encoding_key():
    tree = ast.parse(
        "def _bytes_key(s):\n    return s.encode('utf-8')\n"
        "def order(xs, data):\n"
        "    xs.sort(key=_bytes_key)\n"
        "    ys = sorted(xs, key=lambda s: s.encode('utf-8'))\n"
        "    zs = sorted(xs, key=len)\n"
        "    return sorted(ys), data.encode('utf-8')\n"
    )
    assert encoding_keys(tree) == [4, 5]
