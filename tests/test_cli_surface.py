"""The command-line surface is frozen: every parser, handler and argument.

The golden file holds one JSON row per parser and per argument of the tree
that cli.build_parser() returns. A parser row names its handler; an argument
row gives what argparse keeps of its add_argument call. Rendered help is not
compared, because argparse wraps usage lines differently across Python
versions. A deliberate change to the surface rewrites the golden with

    PYTHONPATH=src python tests/test_cli_surface.py

main builds only the command its arguments name. The tests below hold that
tree to the whole one: each command's parser is the same, and help and
error output is byte-identical, compared on one interpreter.
"""

import argparse
import json
import sys
from pathlib import Path

import pytest

from corpusphon import cli

GOLDEN = Path(__file__).parent / "fixtures" / "cli_surface.jsonl"


def _name(value):
    return getattr(value, "__name__", None)


def surface_rows(parser, words=()):
    """One row per parser, then one per argument it holds, depth first."""
    where = " ".join(words)
    handler = parser.get_default("func")
    yield ["parser", where, parser.prog, parser.description, _name(handler),
           sorted(parser._defaults)]
    for a in parser._actions:
        choices = list(a.choices) if a.choices is not None else None
        yield [
            "argument", where, type(a).__name__, a.option_strings, a.dest, a.nargs, a.const,
            a.default, _name(a.type), choices, a.required, a.help, a.metavar,
        ]
        if isinstance(a, argparse._SubParsersAction):
            for choice in a._choices_actions:
                yield ["choice", where, choice.dest, choice.help]
            for word, sub in a.choices.items():
                yield from surface_rows(sub, (*words, word))


def _render(parser) -> str:
    return "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in surface_rows(parser))


def test_surface_matches_golden():
    got = _render(cli.build_parser()).splitlines()
    want = GOLDEN.read_text(encoding="utf-8").splitlines()
    assert got == want


def _subparsers(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action


def _words(key):
    return [word for word in key if word]


@pytest.mark.parametrize("key", cli.COMMANDS, ids=lambda key: " ".join(_words(key)))
def test_one_command_tree_holds_that_command_as_the_whole_tree_does(key):
    whole, one = cli.build_parser(), cli.build_parser(only=key)
    for word in _words(key):
        whole = _subparsers(whole).choices[word]
        assert list(_subparsers(one).choices) == [word]  # and nothing else
        one = _subparsers(one).choices[word]
    assert _render(one) == _render(whole)


# the top level, each group and each command, with no further words, --help,
# --bogus, and a positional before --bogus
ENTRIES = [[], *([group] for group in cli.GROUPS), *map(_words, cli.COMMANDS)]
INVOCATIONS = [
    [*words, *tail] for words in ENTRIES for tail in ([], ["--help"], ["--bogus"], ["x", "--bogus"])
]


def _outcome(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return out.out, out.err, code


@pytest.mark.parametrize("argv", INVOCATIONS, ids=lambda argv: " ".join(argv) or "-")
def test_help_and_errors_match_the_whole_tree(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    got = _outcome(argv, capsys)
    # the reference: main with the whole tree's build_parser().parse_args(argv)
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda only=None: build())
    assert got == _outcome(argv, capsys)


@pytest.fixture
def built(monkeypatch):
    """The only argument of each build_parser call main makes."""
    keys, build = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda only=None: keys.append(only) or build(only))
    return keys


@pytest.mark.parametrize("argv, key", [
    (["ctm2tg", "--help"], (None, "ctm2tg")),
    (["vot", "measure", "x", "--bogus"], ("vot", "measure")),
    (["vot"], None), (["vot", "-h", "measure"], None), (["-h", "vot", "measure"], None),
    (["vot", "ctm2tg"], None), (["ctm2tg2"], None), ([], None),
])
def test_main_builds_only_the_command_argv_names(argv, key, built):
    cli.main(argv)
    assert built == [key]


def test_main_without_argv_reads_the_command_from_sys_argv(built, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["corpusphon", "audio", "info", "--help"])
    assert cli.main() == 0
    assert built == [("audio", "info")]
    assert capsys.readouterr().out.startswith("usage: corpusphon audio info ")


if __name__ == "__main__":
    GOLDEN.write_text(_render(cli.build_parser()), encoding="utf-8")
