"""Every name a library module imports is used in that module, and every
private module-level name it defines is read somewhere.

No linter is a dependency of the project, so the checks read each
module's syntax tree: a name bound by an import must occur as a name
somewhere else in the module (annotations included), or be listed in
``__all__``; a module-level ``_name`` defined in the library must occur
as a name or attribute somewhere in ``src/`` or ``perfbench/`` (the
benchmark reads some private names, such as ``_kernels._WORD``).
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dialectica"


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_caught():
    source = "import os\nfrom json import dumps, loads as read\nprint(read)\n"
    assert unused_imports(source) == [(1, "os"), (2, "dumps")]


def dead_private_names(sources: dict, readers: list) -> list:
    """``(module, name)`` for each module-level private name defined in
    ``sources`` (module -> text) that no text in ``readers`` reads as a
    name or attribute."""
    read = set()
    for text in readers:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    dead = []
    for module, text in sorted(sources.items()):
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            dead += [(module, name) for name in names
                     if name.startswith("_") and not name.startswith("__")
                     and name not in read]
    return dead


def test_every_private_name_is_read():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    readers = [path.read_text() for folder in (ROOT / "src", ROOT / "perfbench")
               for path in sorted(folder.rglob("*.py"))]
    assert dead_private_names(sources, readers) == []


def test_an_unread_private_name_is_caught():
    lib = ("_LIMIT = 3\n_SEEN: set = set()\n"
           "def _used(): pass\ndef _dead(): pass\nclass _Kept: pass\n")
    bench = "import lib\nlib._used()\nprint(lib._LIMIT, isinstance(0, lib._Kept))\n"
    assert dead_private_names({"lib.py": lib}, [lib, bench]) == \
        [("lib.py", "_SEEN"), ("lib.py", "_dead")]
