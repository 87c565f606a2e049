"""Every public name and every settable parameter in src/ is used in src/.

A public module-level name that no other line of the package names is not
reachable from any subcommand: it is dead code, or code kept for a reason
that belongs in KEPT. The same holds for a public method or property of a
class (dunders aside), with KEPT_MEMBERS as its allow-list. A parameter with
a default that no call in src/ passes takes one value everywhere, so it is
a constant in disguise; KEPT_PARAMS lists the exceptions.

The scans read the source with ast, so a name counts as used when code
refers to it (a call, an attribute, an annotation, an import), not when a
comment or docstring mentions it. Calls are matched to definitions by bare
name, so a call to any function of that name counts.
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
    "parse_ctm",  # acceptance criterion 5
    "resolve_phone_ids",  # acceptance criterion 5
    "alignment_rows",  # acceptance criterion 5
}

# read by the tests (acceptance criteria 2, 6 and 10 read errors)
KEPT_MEMBERS = {"Report.errors", "Report.warnings"}

# set by the caller of the console entry point, outside src/
KEPT_PARAMS = {"main.argv"}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _trees():
    for path in sorted(SRC.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"), str(path))


def _used_names(attributes_only: bool = False) -> set[str]:
    used: set[str] = set()
    for _, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif attributes_only:
                continue
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return used


def _scan():
    defined: dict[str, tuple[str, int]] = {}
    for name, tree in _trees():
        for node in tree.body:
            if isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
                if not node.name.startswith("_"):
                    defined[node.name] = (name, node.lineno)
    return defined, _used_names()


def _members() -> dict[str, str]:
    """Class.member -> file:line for each public method or property."""
    out = {}
    for name, tree in _trees():
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for node in cls.body:
                    if isinstance(node, _FUNCTIONS) and not node.name.startswith("_"):
                        out[f"{cls.name}.{node.name}"] = f"{name}:{node.lineno}"
    return out


def _defaulted_params() -> dict[str, tuple[str, list[str]]]:
    """function.param -> (callee name, positional params) for each parameter with
    a default. A method's self or cls is left out of the positional params, and
    __init__ is called by its class name."""
    out = {}
    for _, tree in _trees():
        for owner in ast.walk(tree):
            body = getattr(owner, "body", None)
            if not isinstance(body, list):
                continue
            for fn in body:
                if not isinstance(fn, _FUNCTIONS):
                    continue
                a = fn.args
                positional = [p.arg for p in a.posonlyargs + a.args]
                static = any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in fn.decorator_list
                )
                if isinstance(owner, ast.ClassDef) and not static:
                    positional = positional[1:]
                callee = owner.name if fn.name == "__init__" else fn.name
                with_default = positional[len(positional) - len(a.defaults):]
                with_default += [
                    p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None
                ]
                for param in with_default:
                    out[f"{callee}.{param}"] = (callee, positional)
    return out


def _passed_params() -> set[str]:
    """callee.param for every parameter some call in src/ passes (by name, by
    position against each definition of that callee, or through * and **)."""
    params = _defaulted_params()
    positional = {}
    for callee, names in params.values():
        positional.setdefault(callee, []).append(names)
    passed: set[str] = set()
    for _, tree in _trees():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if callee not in positional:
                continue
            names = {kw.arg for kw in call.keywords}
            if None in names or any(isinstance(a, ast.Starred) for a in call.args):
                passed |= {k for k, v in params.items() if v[0] == callee}
                continue
            for sig in positional[callee]:
                names |= set(sig[: len(call.args)])
            passed |= {f"{callee}.{n}" for n in names}
    return passed


def test_every_public_name_is_used_in_src():
    defined, used = _scan()
    unused = {f"{defined[n][0]}:{defined[n][1]} {n}" for n in set(defined) - used - KEPT}
    assert not unused, f"public names no code in src/ uses: {sorted(unused)}"


def test_kept_names_still_exist_and_are_unused():
    defined, used = _scan()
    assert KEPT <= set(defined)
    assert not KEPT & used, "a kept name gained a caller; drop it from KEPT"


def test_every_public_member_is_used_in_src():
    used = _used_names(attributes_only=True)
    unused = {
        f"{where} {key}"
        for key, where in _members().items()
        if key.split(".")[1] not in used and key not in KEPT_MEMBERS
    }
    assert not unused, f"public methods and properties no code in src/ uses: {sorted(unused)}"


def test_kept_members_still_exist_and_are_unused():
    assert KEPT_MEMBERS <= set(_members())
    used = {k for k in KEPT_MEMBERS if k.split(".")[1] in _used_names(attributes_only=True)}
    assert not used, f"a kept member gained a caller; drop it from KEPT_MEMBERS: {used}"


def test_every_defaulted_parameter_is_passed_in_src():
    unpassed = set(_defaulted_params()) - _passed_params() - KEPT_PARAMS
    assert not unpassed, (
        f"parameters no call in src/ sets, so constants: {sorted(unpassed)}"
    )


def test_kept_params_still_exist_and_are_not_passed():
    assert KEPT_PARAMS <= set(_defaulted_params())
    assert not KEPT_PARAMS & _passed_params(), "a kept parameter gained a caller"
