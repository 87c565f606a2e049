"""Findings reach the report with the file they are about.

The first tests pin the exact --report lines (severity, file, location,
message) and stderr lines of the findings that command handlers make
outside a batch: a glob that matches nothing, vot lists' unpaired files,
lexicon filter's unstressed pronunciations, lexicon missing's words, a
whole input with a warning and then an error, and an error raised outside
any input. The last tests are an ast scan that keeps one way to make a
finding (Report.add) and one way into the command's findings
(cli.file_findings).
"""

import ast
from pathlib import Path

from corpusphon import lexicon
from corpusphon.cli import main
from corpusphon.errors import ToolkitError

from conftest import FIXTURES

SRC = Path(__file__).resolve().parent.parent / "src" / "corpusphon"
LEXICON = str(FIXTURES / "lexicon.txt")


def run(tmp_path, capsys, argv):
    """Exit code, --report lines and stderr lines of main(argv)."""
    report = tmp_path / "r.tsv"
    rc = main([*argv, "--report", str(report)])
    err = capsys.readouterr().err
    return rc, report.read_text(encoding="utf-8").splitlines(), err.splitlines()


def words_file(tmp_path, *words):
    path = tmp_path / "in" / "words.txt"
    path.parent.mkdir(exist_ok=True)
    path.write_text("".join(w + "\n" for w in words), encoding="utf-8")
    return str(path)


def test_a_glob_that_matches_nothing_names_its_pattern(tmp_path, capsys):
    pattern = str(tmp_path / "none" / "*.TextGrid")
    rc, report, err = run(tmp_path, capsys, ["tg", "diagnose", pattern])
    assert rc == 0
    assert report == [f"WARNING\t{pattern}\t\tglob matched no files"]
    assert err == [f"{pattern}: WARNING: glob matched no files"]


def test_vot_lists_names_each_unpaired_file(tmp_path, capsys):
    wavs, grids = tmp_path / "wavs", tmp_path / "grids"
    wavs.mkdir()
    grids.mkdir()
    for path in (grids / "a.TextGrid", grids / "b.TextGrid", wavs / "a.wav", wavs / "c.wav"):
        path.write_bytes(b"")
    argv = ["vot", "lists", "--wav-dir", str(wavs), "--textgrid-dir", str(grids),
            "--out-dir", str(tmp_path / "out")]
    rc, report, err = run(tmp_path, capsys, argv)
    assert rc == 0
    assert report == [
        f"WARNING\t{grids / 'b.TextGrid'}\t\tno matching wav file; not listed",
        f"WARNING\t{wavs / 'c.wav'}\t\tno matching TextGrid; not listed",
    ]
    assert err == [
        f"{grids / 'b.TextGrid'}: WARNING: no matching wav file; not listed",
        f"{wavs / 'c.wav'}: WARNING: no matching TextGrid; not listed",
    ]


def test_lexicon_filter_names_the_lexicon_of_an_unstressed_pronunciation(tmp_path, capsys):
    lex = tmp_path / "in" / "lex.txt"
    lex.parent.mkdir()
    lex.write_text("HM HH AH0 M\nPAT P AE1 T\n", encoding="utf-8")
    argv = ["lexicon", "filter", "--lexicon", str(lex), "--words", words_file(tmp_path, "HM"),
            "--out", str(tmp_path / "out" / "lex.txt")]
    rc, report, err = run(tmp_path, capsys, argv)
    message = "pronunciation 'HH AH0 M' has no stressed vowel; was the stress annotation step skipped?"
    assert rc == 0
    assert report == [f"INFO\t{lex}\tHM\t{message}"]
    assert err == [f"{lex}: INFO [HM]: {message}"]


def test_lexicon_missing_names_the_lexicon(tmp_path, capsys):
    argv = ["lexicon", "missing", "--lexicon", LEXICON,
            "--words", words_file(tmp_path, "PAT", "ZORP"), "--out", str(tmp_path / "out.txt")]
    rc, report, err = run(tmp_path, capsys, argv)
    assert rc == 0
    assert report == [f"WARNING\t{LEXICON}\tZORP\tmissing from lexicon"]
    assert err == [f"{LEXICON}: WARNING [ZORP]: missing from lexicon"]


def test_a_warning_then_an_error_in_one_input_both_name_it(tmp_path, capsys):
    lex = tmp_path / "in" / "lex.txt"
    lex.parent.mkdir()
    lex.write_text("PAT P AE1 T\nPAT P AE1 T\nSAY S EY1\nDOT D AA1 T\nBAD\n", encoding="utf-8")
    argv = ["lexicon", "missing", "--lexicon", str(lex), "--words", words_file(tmp_path, "PAT")]
    rc, report, err = run(tmp_path, capsys, argv)
    assert rc == 1
    assert report == [f"WARNING\t{lex}\t\tline 2: duplicate entry for 'PAT' collapsed",
                      f"ERROR\t{lex}\t\tline 5: word 'BAD' has no phones"]
    assert err == [f"{lex}: WARNING: line 2: duplicate entry for 'PAT' collapsed",
                   f"{lex}: ERROR: line 5: word 'BAD' has no phones"]


def test_an_error_outside_any_input_has_an_empty_file_column(tmp_path, capsys, monkeypatch):
    def fail():
        raise ToolkitError("no silence phones")

    monkeypatch.setattr(lexicon, "derive_silence_files", fail)
    argv = ["lexicon", "phones", "--lexicon", LEXICON, "--out-dir", str(tmp_path / "out")]
    rc, report, err = run(tmp_path, capsys, argv)
    assert rc == 1
    assert report == ["ERROR\t\t\tno silence phones"]
    assert err == ["ERROR: no silence phones"]
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# one constructor, one path: the ast scan

# the scopes (module.qualified name) that may make a finding or add to a list
# of findings, each with its reason
MAKES = {"report.Report.add": "the one constructor of a finding"}
ADDS = {
    "report.Report.add": "a Report keeps the findings it makes",
    "cli.file_findings": "the one path of a Report into Ctx.findings",
}
_GROWERS = {"append", "extend", "insert"}


def finding_sites(tree: ast.Module, module: str):
    """(kind, qualified scope, line) of each Finding( call ("make") and each
    append, extend, insert or += on a .findings attribute ("add")."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        if isinstance(node, ast.AugAssign) and getattr(node.target, "attr", None) == "findings":
            found.append(("add", scope, node.lineno))
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in _GROWERS:
                if getattr(func.value, "attr", None) == "findings":
                    found.append(("add", scope, node.lineno))
            if getattr(func, "id", getattr(func, "attr", None)) == "Finding":
                found.append(("make", scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, module)
    return found


def test_findings_are_made_by_report_add_and_reach_ctx_through_file_findings():
    allowed = {"make": MAKES, "add": ADDS}
    sites = [
        site
        for path in sorted(SRC.glob("*.py"))
        for site in finding_sites(ast.parse(path.read_text(encoding="utf-8"), str(path)),
                                  path.stem)
    ]
    bad = [f"{scope}:{line} {kind}s" for kind, scope, line in sites if scope not in allowed[kind]]
    assert not bad, f"make findings with Report.add and pass them on in file_findings: {bad}"
    listed = {(kind, scope) for kind, scopes in allowed.items() for scope in scopes}
    assert {(kind, scope) for kind, scope, _ in sites} == listed, "an allowed scope went stale"


def test_the_scan_finds_a_finding_made_or_added_elsewhere():
    tree = ast.parse(
        "class Ctx:\n"
        "    def note(self, f):\n"
        "        self.findings.append(f)\n"
        "def glob(ctx, report):\n"
        "    ctx.findings.extend(report.findings)\n"
        "    ctx.findings += [report.Finding(1, '', 'x')]\n"
        "    return Finding(2, '', 'y'), report.findings.count(3), findings.append(4)\n"
    )
    assert finding_sites(tree, "cli") == [
        ("add", "cli.Ctx.note", 3), ("add", "cli.glob", 5), ("add", "cli.glob", 6),
        ("make", "cli.glob", 6), ("make", "cli.glob", 7),
    ]
