"""Every public function or class in src/ is used somewhere else in src/.

A public module-level name that no other line of the package names is not
reachable from any subcommand: it is dead code, or code kept for a reason
that belongs in KEPT. The scan reads the source with ast, so a name counts
as used when code refers to it (a call, an attribute, an annotation, an
import), not when a comment or docstring mentions it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "corpusphon"

# kept without a caller in src/: tests/test_acceptance.py calls each of them
KEPT = {
    "split_windows_by_stop",  # acceptance criterion 7
    "extract_channel",  # acceptance criterion 10
    "parse_wav_header",  # acceptance criterion 10
    "build_wav",  # acceptance criterion 10
}


def _scan():
    defined: dict[str, tuple[str, int]] = {}
    used: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    defined[node.name] = (path.name, node.lineno)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return defined, used


def test_every_public_name_is_used_in_src():
    defined, used = _scan()
    unused = {f"{defined[n][0]}:{defined[n][1]} {n}" for n in set(defined) - used - KEPT}
    assert not unused, f"public names no code in src/ uses: {sorted(unused)}"


def test_kept_names_still_exist_and_are_unused():
    defined, used = _scan()
    assert KEPT <= set(defined)
    assert not KEPT & used, "a kept name gained a caller; drop it from KEPT"
