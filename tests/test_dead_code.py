"""A guard that keeps unused functions, classes and methods out of the
package: each top-level function or class, and each method or property of a
top-level class, must be named somewhere other than its own definition."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "contactcurv"


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = (*FUNCTIONS, ast.ClassDef)


def _uses(filename: str, tree: ast.Module, strings: bool) -> set[tuple[str, tuple]]:
    """(name, where) for every identifier, attribute and imported name of
    ``tree``, and with ``strings`` every string constant, where is (filename,
    the top-level definition it sits in), with the method of a top-level
    class it sits in after that, or (filename,) outside any."""
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
            method = isinstance(node, ast.ClassDef) and isinstance(child, FUNCTIONS)
            visit(child, where + (child.name,) if method and len(where) == 2 else where)

    for node in tree.body:
        visit(node, (filename, node.name) if isinstance(node, DEFINITIONS) else (filename,))
    return found


def _definitions(tree: ast.Module):
    """(path, node) of each top-level function or class, path its name, and
    of each method or property of a top-level class but the dunders, path
    (class, method)."""
    for node in tree.body:
        if isinstance(node, DEFINITIONS):
            yield (node.name,), node
        if isinstance(node, ast.ClassDef):
            yield from (((node.name, stmt.name), stmt) for stmt in node.body
                        if isinstance(stmt, FUNCTIONS)
                        and not (stmt.name.startswith("__") and stmt.name.endswith("__")))


def unused_definitions(package: dict[str, str],
                       readers: dict[str, str] | None = None) -> list[str]:
    """Each top-level function or class, and each non-dunder method or
    property of a top-level class, of the ``package`` sources, given as
    {file name: text}, that no source of ``package`` or ``readers`` names
    outside its own definition.  A method is named by its bare name, so a
    call from another method of its class is a use.  A string names one
    only in ``readers``, which may patch by name: in the package it is data,
    such as a key of a table.  ``cmd_*`` is exempt: the command line
    dispatches to it by name."""
    sources = {**package, **(readers or {})}
    trees = {name: ast.parse(text, name) for name, text in sources.items()}
    uses = set().union(*(_uses(name, tree, name not in package)
                         for name, tree in trees.items()))
    return [f"{name}:{node.lineno}: {'.'.join(path)}"
            for name in package for path, node in _definitions(trees[name])
            if not node.name.startswith("cmd_")
            and not any(word == node.name and where[:len(path) + 1] != (name, *path)
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


def test_the_guard_sees_unused_methods():
    package = {"a.py": "class Record:\n    def __repr__(self):\n        return ''\n\n"
                       "    @property\n    def size(self):\n        return self.helper()\n\n"
                       "    def helper(self):\n        return 1\n\n"
                       "    def again(self):\n        return self.again()\n\n"
                       "    def by_name(self):\n        pass\n\n"
                       "    def elsewhere(self):\n        pass\n\n"
                       "def use(r):\n    return r.size, 'by_name'\n\nuse(Record())\n"}
    # a dunder is exempt, a call from another method of the class is a use,
    # and a call from the method itself or a string in the package is none
    assert unused_definitions(package) == [
        "a.py:12: Record.again", "a.py:15: Record.by_name", "a.py:18: Record.elsewhere"]
    readers = {"r.py": "x.elsewhere()\npatch(Record, 'by_name')"}
    assert unused_definitions(package, readers) == ["a.py:12: Record.again"]


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
