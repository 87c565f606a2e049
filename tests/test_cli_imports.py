"""The command line starts without loading the library it does not use.

cli imports lexicon, errors, report and rows at module level; every other
library module is imported inside the function that uses it, so building
the parser, --help and a usage error load none of them. The first test
checks that in a fresh interpreter. The second guards code paths no test
runs: a function that reads one of those modules without importing it
would raise NameError only when it runs.
"""

import os
import subprocess
import symtable
import sys
from pathlib import Path

import pytest

import corpusphon

SRC = Path(corpusphon.__file__).resolve().parent
# the library modules cli imports only inside the functions that use them
DEFERRED = ("audio", "ctm", "kaldi", "textgrid", "transcripts", "vot")

LOADED = (
    "import sys, corpusphon.cli as cli; cli.build_parser(); rc = cli.main(sys.argv[1:]); "
    "print('\\nLOADED', rc, *sorted(m for m in sys.modules if m.startswith('corpusphon.')))"
)


@pytest.mark.parametrize(
    "argv",
    [[], ["--help"], ["audio", "info", "--help"], ["vot", "measure", "x.TextGrid", "--bogus"],
     ["tg", "diagnose"]],
    ids=["no-command", "help", "command-help", "unknown-option", "missing-argument"],
)
def test_help_and_usage_errors_load_no_deferred_module(argv):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC.parent), *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", LOADED, *argv], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    rc, *loaded = done.stdout.rsplit("\nLOADED ", 1)[1].split()
    assert rc == ("0" if "--help" in argv else "2")
    assert "corpusphon.cli" in loaded
    assert not {f"corpusphon.{m}" for m in DEFERRED} & set(loaded)


def global_module_reads(source: str) -> list[str]:
    """'function: name' for each deferred module a function scope reads as a global."""
    found = []

    def walk(table):
        for child in table.get_children():
            for sym in child.get_symbols():
                if sym.get_name() in DEFERRED and sym.is_referenced() and sym.is_global():
                    found.append(f"{child.get_name()}: {sym.get_name()}")
            walk(child)

    walk(symtable.symtable(source, "cli.py", "exec"))
    return found


def test_every_function_imports_the_modules_it_reads():
    assert global_module_reads((SRC / "cli.py").read_text(encoding="utf-8")) == []


def test_the_scan_sees_a_read_without_its_import():
    source = (
        "from . import lexicon\n"
        "def imports(path):\n"
        "    from . import textgrid\n"
        "    def step(p):\n"
        "        return textgrid.parse(p)\n"
        "    return step\n"
        "def forgets(path):\n"
        "    def step(p):\n"
        "        return vot.measure(p)\n"
        "    return lexicon.parse(path), audio.read(path), [step]\n"
    )
    assert global_module_reads(source) == ["forgets: audio", "step: vot"]
