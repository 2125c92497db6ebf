"""A guard that keeps unused top-level functions and classes out of the
package: each one must be named somewhere other than its own definition."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "contactcurv"


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _uses(filename: str, tree: ast.Module, strings: bool) -> set[tuple[str, tuple]]:
    """(name, where) for every identifier, attribute and imported name of
    ``tree``, and with ``strings`` every string constant, where is (filename,
    the top-level definition it sits in), or (filename,) outside any."""
    found = set()

    def visit(node, where):
        if isinstance(node, ast.Name):
            found.add((node.id, where))
        elif isinstance(node, ast.Attribute):
            found.add((node.attr, where))
        elif isinstance(node, ast.alias):
            found.add((node.name.rsplit(".", 1)[-1], where))
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add((node.value, where))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for node in tree.body:
        inside = (filename, node.name) if isinstance(node, DEFINITIONS) else (filename,)
        visit(node, inside)
    return found


def unused_definitions(package: dict[str, str],
                       readers: dict[str, str] | None = None) -> list[str]:
    """Each top-level function or class of the ``package`` sources, given as
    {file name: text}, that no source of ``package`` or ``readers`` names
    outside its own definition.  A string names one only in ``readers``,
    which may patch by name: in the package it is data, such as a key of a
    table.  ``cmd_*`` is exempt: the command line dispatches to it by name."""
    sources = {**package, **(readers or {})}
    trees = {name: ast.parse(text, name) for name, text in sources.items()}
    uses = set().union(*(_uses(name, tree, name not in package)
                         for name, tree in trees.items()))
    return [f"{name}:{node.lineno}: {node.name}"
            for name in package for node in trees[name].body
            if isinstance(node, DEFINITIONS) and not node.name.startswith("cmd_")
            and not any(word == node.name and where != (name, node.name)
                        for word, where in uses)]


def test_the_guard_sees_unused_definitions():
    package = {"a.py": "def used():\n    pass\n\ndef unused():\n    return unused()\n\n"
                       "class Kept:\n    pass\n\ndef cmd_run(args):\n    pass\n",
               "b.py": "from .a import Kept\n\ndef caller():\n    return used()\n\n"
                       "def by_string():\n    pass\n\nTABLE = ['by_string', caller]\n"}
    # a string in the package is no use
    assert unused_definitions(package) == ["a.py:4: unused", "b.py:6: by_string"]
    # a name read only by a reader outside the package counts, as a string too
    package["a.py"] += "\ndef read_elsewhere():\n    pass\n"
    readers = {"r.py": "x.read_elsewhere()\npatch(x, 'by_string')"}
    assert unused_definitions(package, readers) == ["a.py:4: unused"]


def test_every_top_level_definition_of_the_package_is_used():
    package = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    assert package
    readers = {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
               for path in [ROOT / "tests" / "test_acceptance.py",
                            *sorted((ROOT / "bench").glob("*.py"))]}
    assert unused_definitions(package, readers) == []


def unread_fields(package: dict[str, str], readers: dict[str, str] | None = None) -> list[str]:
    """Each annotated field of a class of the ``package`` sources that no
    source of ``package`` or ``readers`` reads as an attribute or names by a
    string."""
    sources = {**package, **(readers or {})}
    trees = {name: ast.parse(text, name) for name, text in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return [f"{name}:{stmt.lineno}: {cls.name}.{stmt.target.id}"
            for name in package for cls in ast.walk(trees[name])
            if isinstance(cls, ast.ClassDef)
            for stmt in cls.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            and stmt.target.id not in read]


def test_the_guard_sees_unread_fields():
    package = {"a.py": "class Record:\n    kept: int\n    by_name: int\n    written: int\n"
                       "    unread: int = 0\n\n"
                       "def use(r):\n    r.written = r.kept\n    return getattr(r, 'by_name')\n"}
    assert unread_fields(package) == ["a.py:4: Record.written", "a.py:5: Record.unread"]
    # a field read only by a reader outside the package counts
    assert unread_fields(package, {"r.py": "x.unread + x.written"}) == []


def test_every_field_of_a_package_class_is_read():
    package = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    readers = {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
               for path in [ROOT / "tests" / "test_acceptance.py",
                            *sorted((ROOT / "bench").glob("*.py"))]}
    assert unread_fields(package, readers) == []
