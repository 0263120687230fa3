"""Guard against unused public surface in the package.

Every public top-level function and class, and every public method, in
src/eraselab must be referenced by name (as an ast.Name or ast.Attribute)
somewhere in src/eraselab outside its own definition. Helpers that only
tests need live under tests/ instead.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "eraselab"

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _references(tree) -> Counter:
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
    return names


def _public_definitions(tree):
    """(qualified name, node) of each public top-level function or class
    and each public method."""
    for node in tree.body:
        if not isinstance(node, _DEFS) or node.name.startswith("_"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, _DEFS) and not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}", member


def _unused(package=PACKAGE):
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(package.glob("*.py"))}
    everywhere = Counter()
    for tree in trees.values():
        everywhere.update(_references(tree))
    unused = []
    for filename, tree in trees.items():
        for qualname, node in _public_definitions(tree):
            if everywhere[node.name] <= _references(node)[node.name]:
                unused.append(f"{filename}: {qualname}")
    return unused


def test_package_sources_found():
    assert (PACKAGE / "cli.py").is_file()


def test_every_public_definition_is_referenced():
    assert _unused() == []


def test_guard_flags_an_unreferenced_function(tmp_path):
    for path in PACKAGE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "nnet.py", "a") as fh:
        fh.write("\n\ndef orphan(x):\n    return orphan(x - 1) if x else 0\n")
    assert _unused(tmp_path) == ["nnet.py: orphan"]
