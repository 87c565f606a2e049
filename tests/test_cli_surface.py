"""The command-line surface is frozen: every parser, handler and argument.

The golden file holds one JSON row per parser and per argument of the tree
that cli.build_parser() returns. A parser row names its handler; an argument
row gives what argparse keeps of its add_argument call. Rendered help is not
compared, because argparse wraps usage lines differently across Python
versions. A deliberate change to the surface rewrites the golden with

    PYTHONPATH=src python tests/test_cli_surface.py
"""

import argparse
import json
from pathlib import Path

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


if __name__ == "__main__":
    GOLDEN.write_text(_render(cli.build_parser()), encoding="utf-8")
