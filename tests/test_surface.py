"""Guards on the package's surface.

Every public top-level function and class, and every public method, in
src/eraselab must be reachable: referenced somewhere in src/eraselab from
code that is itself live. Module-level code and private definitions are
live; a public definition becomes live once such code references it, a
top-level one by ast.Name or ast.Attribute, a method only by
ast.Attribute (a local variable of the same name does not count, nor does
an attribute of an outside import such as np.zeros). This is
iterated to a fixed point, so definitions that only reference each other
stay unreferenced. Helpers that only tests need live under tests/ instead.

The package's options do not grow unnoticed: the defaulted parameters of
public functions and methods, plus the defaulted fields of public
dataclasses (a field(init=False) is no option), may not exceed a recorded
count.

The package's only runtime dependency is NumPy: importing the command
line must not load SciPy.
"""

import ast
import subprocess
import sys
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "eraselab"

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# Defaulted parameters and dataclass fields in the public surface. Lower it
# when options go; raise it only for an option justified in CHANGES.md.
OPTION_COUNT = 51


def _public_definitions(tree):
    """(qualified name, node, is_method) of each public top-level function
    or class and each public method."""
    for node in tree.body:
        if not isinstance(node, _DEFS) or node.name.startswith("_"):
            continue
        yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, _DEFS) and not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}", member, True


def _outside_aliases(tree):
    """Names that tree binds to modules or objects from outside the package
    (np, os, math, ...): absolute imports of anything but eraselab."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update((alias.asname or alias.name).split(".")[0]
                           for alias in node.names
                           if alias.name.split(".")[0] != "eraselab")
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] != "eraselab":
            aliases.update(alias.asname or alias.name for alias in node.names)
    return aliases


def _root_name(node):
    """The id of the ast.Name at the bottom of an attribute chain, if any."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _live_references(tree, skipped):
    """Counters of ast.Name ids and ast.Attribute attrs in tree, outside
    the subtrees rooted at the nodes in skipped. An attribute of an outside
    import (np.zeros) references nothing in the package."""
    outside = _outside_aliases(tree)
    names, attrs = Counter(), Counter()
    stack = [tree]
    while stack:
        node = stack.pop()
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute) \
                and _root_name(node.value) not in outside:
            attrs[node.attr] += 1
        stack.extend(ast.iter_child_nodes(node))
    return names, attrs


def _unused(package=PACKAGE):
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(package.glob("*.py"))}
    definitions = [(filename, *definition) for filename, tree in trees.items()
                   for definition in _public_definitions(tree)]
    unproven = {id(node) for _, _, node, _ in definitions}
    while True:
        names, attrs = Counter(), Counter()
        for tree in trees.values():
            tree_names, tree_attrs = _live_references(tree, unproven)
            names.update(tree_names)
            attrs.update(tree_attrs)
        proven = {id(node) for _, _, node, is_method in definitions
                  if id(node) in unproven
                  and (attrs[node.name] or (not is_method and names[node.name]))}
        if not proven:
            break
        unproven -= proven
    return [f"{filename}: {qualname}" for filename, qualname, node, _
            in definitions if id(node) in unproven]


def _defaults(function):
    return len(function.args.defaults) \
        + sum(d is not None for d in function.args.kw_defaults)


def _is_option_field(member):
    """A dataclass field with a default that __init__ accepts."""
    if not isinstance(member, ast.AnnAssign) or member.value is None:
        return False
    value = member.value
    return not (isinstance(value, ast.Call) and ast.unparse(value.func) == "field"
                and any(kw.arg == "init" for kw in value.keywords))


def _option_count(package=PACKAGE):
    count = 0
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for _, node, _ in _public_definitions(tree):
            if not isinstance(node, ast.ClassDef):
                count += _defaults(node)
            elif any("dataclass" in ast.unparse(d) for d in node.decorator_list):
                count += sum(map(_is_option_field, node.body))
    return count


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


def test_guard_flags_a_method_named_like_a_local(tmp_path):
    (tmp_path / "mod.py").write_text(
        "class Table:\n"
        "    def rows(self):\n"
        "        return []\n"
        "\n\n"
        "def count():\n"
        "    rows = [Table()]\n"
        "    return len(rows)\n"
        "\n\n"
        "count()\n")
    assert _unused(tmp_path) == ["mod.py: Table.rows"]


def test_guard_flags_a_method_named_like_an_outside_attribute(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import numpy as np\n"
        "\n\n"
        "class Buffer:\n"
        "    def zeros(self):\n"
        "        return np.zeros(2)\n"
        "\n\n"
        "def make():\n"
        "    return Buffer(), np.zeros(3)\n"
        "\n\n"
        "make()\n")
    assert _unused(tmp_path) == ["mod.py: Buffer.zeros"]


def test_guard_flags_dead_functions_that_call_each_other(tmp_path):
    for path in PACKAGE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "nnet.py", "a") as fh:
        fh.write("\n\ndef ping(n):\n    return pong(n - 1) if n else 0\n"
                 "\n\ndef pong(n):\n    return ping(n - 1) if n else 1\n")
    assert _unused(tmp_path) == ["nnet.py: ping", "nnet.py: pong"]


def test_no_new_options():
    count = _option_count()
    assert count <= OPTION_COUNT, (
        f"{count} defaulted parameters and dataclass fields in src/eraselab, "
        f"{OPTION_COUNT} recorded in tests/test_surface.py: justify the new "
        f"option in CHANGES.md, then raise OPTION_COUNT")


def test_option_count_sees_a_new_default(tmp_path):
    for path in PACKAGE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "nnet.py", "a") as fh:
        fh.write("\n\n@dataclass\nclass Knobs:\n    a: int = 1\n"
                 "    b: list = field(init=False)\n"
                 "\n    def turn(self, by=1, *, to=None):\n        pass\n")
    assert _option_count(tmp_path) == _option_count() + 3


def test_cli_import_loads_no_scipy():
    code = ("import sys, eraselab.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    # A fresh interpreter started in src/, whose "-c" path entry is src/.
    result = subprocess.run([sys.executable, "-c", code],
                            cwd=PACKAGE.parent, capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "[]"
