"""Every name a library module imports is used in that module, and every
private module-level name and module-level constant it defines is read
somewhere.

No linter is a dependency of the project, so the checks read each
module's syntax tree: a name bound by an import must occur as a name
somewhere else in the module (annotations included), or be listed in
``__all__``; a module-level ``_name`` or ``UPPER_CASE`` constant defined
in the library must occur as a name or attribute somewhere in ``src/`` or
``perfbench/`` (the benchmark reads some private names, such as
``_kernels._WORD``), so a bound that nothing reads any more is caught.  No
function writes to a module-level dict, list or set, and no module-level
cache but the command line's parser keeps values across calls, so every
memo lives on a doctrine or an analyzer and each op starts cold.  No
module but `doctrine` branches on the kind of doctrine or runs a kernel,
and no function picks its lane by sniffing for an override: a class
keeps one body per decision, and a test double picks another body by
class attribute.
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


KIND_CLASSES = {"ConcreteDoctrine", "TabularDoctrine"}


def kind_branches(source: str) -> list:
    """``(line, name)`` for each `isinstance` test against a doctrine
    class and each import of the kernels module (``_kernels``): a decision
    that depends on the kind of doctrine is a `Doctrine` method, and only
    `doctrine` runs the kernels."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"):
            names = {n.id if isinstance(n, ast.Name) else n.attr
                     for arg in node.args[1:] for n in ast.walk(arg)
                     if isinstance(n, (ast.Name, ast.Attribute))}
            found += [(node.lineno, name) for name in sorted(names & KIND_CLASSES)]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
            if any(m.split(".")[-1] == "_kernels" for m in modules):
                found.append((node.lineno, "_kernels"))
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_branches_on_the_kind_of_doctrine(path):
    allowed = {"_kernels"} if path.name == "doctrine.py" else set()
    assert [hit for hit in kind_branches(path.read_text()) if hit[1] not in allowed] == []


def test_a_kind_branch_is_caught():
    source = ("from . import _kernels as K\n"
              "from .doctrine import ConcreteDoctrine, Doctrine\n"
              "from ._kernels import witness_pair\n"
              "import dialectica._kernels\n"
              "def f(D):\n"
              "    if isinstance(D, ConcreteDoctrine):\n"
              "        return isinstance(D, Doctrine)\n"
              "    return isinstance(D, (int, doctrine.TabularDoctrine))\n")
    assert kind_branches(source) == [(1, "_kernels"), (3, "_kernels"), (4, "_kernels"),
                                     (6, "ConcreteDoctrine"), (8, "TabularDoctrine")]


def _self_call(node, fn: str) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == fn and len(node.args) == 1
            and isinstance(node.args[0], ast.Name) and node.args[0].id == "self")


def class_names(sources) -> set:
    return {node.name for text in sources for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.ClassDef)}


def override_sniffs(source: str, classes: set) -> list:
    """``(line, code)`` for each call of ``type(self)`` or ``vars(self)``
    and each ``is``/``is not`` test against an attribute of one of the
    ``classes`` (``Cls.name`` or ``getattr(Cls, name)``) or of
    ``type(self)``: the ways a method finds out whether it was
    overridden."""
    def class_attribute(node):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "getattr" and node.args):
            owner = node.args[0]
        elif isinstance(node, ast.Attribute):
            owner = node.value
        else:
            return False
        return (isinstance(owner, ast.Name) and owner.id in classes) or _self_call(owner, "type")

    found = []
    for node in ast.walk(ast.parse(source)):
        if _self_call(node, "type") or _self_call(node, "vars"):
            found.append((node.lineno, ast.unparse(node)))
        elif (isinstance(node, ast.Compare)
              and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
              and any(map(class_attribute, [node.left, *node.comparators]))):
            found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_function_sniffs_for_an_override(path):
    """A class keeps one body per decision; a test double picks another
    body by class attribute, which no library method looks for."""
    classes = class_names(p.read_text() for p in SRC.glob("*.py"))
    assert override_sniffs(path.read_text(), classes) == []


def test_an_override_sniff_is_caught():
    source = ("class Fibre:\n"
              "    def leq(self, a, b):\n"
              "        if type(self).leq is not Fibre.leq:\n"
              "            return False\n"
              "        return 'leq' in vars(self)\n"
              "    def op(self, op):\n"
              "        return getattr(self, op) is getattr(Fibre, op) or self.up is None\n"
              "def plain(x, D):\n"
              "    return x is None or D.top is not x or type(x) is int\n")
    assert override_sniffs(source, class_names([source])) == [
        (3, "type(self)"), (3, "type(self).leq is not Fibre.leq"), (5, "vars(self)"),
        (7, "getattr(self, op) is getattr(Fibre, op)")]


def _checked(name: str) -> bool:
    """Whether a module-level name must be read: a private name, or an
    UPPER_CASE constant."""
    if name.startswith("__"):
        return False
    return name.startswith("_") or (name.isupper() and name[0].isalpha())


def dead_names(sources: dict, readers: list) -> list:
    """``(module, name)`` for each module-level private name or UPPER_CASE
    constant defined in ``sources`` (module -> text) that no text in
    ``readers`` reads as a name or attribute."""
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
            dead += [(module, name) for name in names if _checked(name) and name not in read]
    return dead


def test_every_private_name_is_read():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    readers = [path.read_text() for folder in (ROOT / "src", ROOT / "perfbench")
               for path in sorted(folder.rglob("*.py"))]
    assert dead_names(sources, readers) == []


def test_an_unread_private_name_is_caught():
    lib = ("_LIMIT = 3\n_SEEN: set = set()\n"
           "def _used(): pass\ndef _dead(): pass\nclass _Kept: pass\n")
    bench = "import lib\nlib._used()\nprint(lib._LIMIT, isinstance(0, lib._Kept))\n"
    assert dead_names({"lib.py": lib}, [lib, bench]) == \
        [("lib.py", "_SEEN"), ("lib.py", "_dead")]


def test_an_unread_constant_is_caught():
    """A sample bound left behind when the scan that read it is deleted is
    dead, as is one only tests read; one the module or the benchmark reads
    is not, and neither is a dunder or a lower-case public name."""
    lib = ("__all__ = ['run']\nORDER_SAMPLE = 64\nMONOTONE_SAMPLE = 4096\n"
           "PAIR_SAMPLE: int = 256\nCAP2 = 8\nlimit = 3\n"
           "def run(xs):\n    return xs[:ORDER_SAMPLE]\n")
    bench = "import lib\nprint(lib.CAP2)\n"
    tests = "import lib\nprint(lib.PAIR_SAMPLE)\n"
    assert dead_names({"lib.py": lib}, [lib, bench]) == \
        [("lib.py", "MONOTONE_SAMPLE"), ("lib.py", "PAIR_SAMPLE")]
    assert dead_names({"lib.py": lib}, [lib, bench, tests]) == [("lib.py", "MONOTONE_SAMPLE")]


CONTAINER_CALLS = ("dict", "list", "set", "defaultdict", "Counter", "OrderedDict")
MUTATORS = ("add", "append", "setdefault", "update")
CACHES = ("cache", "lru_cache")
# (module, function) pairs allowed a module-level cache: the parser is
# built once per process and holds no per-op state.
CACHE_ALLOWED = {("cli.py", "build_parser")}


def _is_container(value) -> bool:
    if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
                          ast.SetComp)):
        return True
    return (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id in CONTAINER_CALLS)


def _is_cache(node) -> bool:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return (node.attr in CACHES and isinstance(node.value, ast.Name)
                and node.value.id == "functools")
    return isinstance(node, ast.Name) and node.id in CACHES


def module_state_writes(source: str, module: str) -> list:
    """``(line, name)`` for each write a function makes to a module-level
    dict, list or set (subscript assignment or deletion, or a call of
    `add`, `append`, `setdefault` or `update` on it), and for each
    module-level cache other than those in ``CACHE_ALLOWED``.  A name a
    function binds itself, unless declared global, is its own."""
    tree = ast.parse(source)
    shared = set()
    found = []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and _is_container(node.value):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            shared |= {t.id for t in targets if isinstance(t, ast.Name)}
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if any(map(_is_cache, node.decorator_list)) and \
                    (module, node.name) not in CACHE_ALLOWED:
                found.append((node.lineno, node.name))
        elif isinstance(node, ast.Assign) and _is_cache(node.value):
            found += [(node.lineno, t.id) for t in node.targets if isinstance(t, ast.Name)]
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = fn.args
        local = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
        local |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
        declared = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                local.add(node.id)
            elif isinstance(node, ast.Global):
                declared |= set(node.names)
        visible = shared - (local - declared)
        for node in ast.walk(fn):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
                targets = (node.targets if isinstance(node, (ast.Assign, ast.Delete))
                           else [node.target])
                found += [(node.lineno, t.value.id) for t in targets
                          if isinstance(t, ast.Subscript) and isinstance(t.value, ast.Name)
                          and t.value.id in visible]
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in MUTATORS and isinstance(node.func.value, ast.Name)
                  and node.func.value.id in visible):
                found.append((node.lineno, node.func.value.id))
    return sorted(set(found))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_function_keeps_state_across_calls(path):
    """Every op starts cold, as the benchmark assumes: no memo outlives
    the doctrine or analyzer that owns it."""
    assert module_state_writes(path.read_text(), path.name) == []


def test_module_state_writes_are_caught():
    source = (
        "import functools\n"
        "_MEMO = {}\n_SEEN: set = set()\n_LOG = []\n"
        "def a(k):\n    _MEMO[k] = 1\n"
        "def b(k):\n    _SEEN.add(k)\n    _LOG.append(k)\n"
        "def c(k):\n    _MEMO = {}\n    _MEMO[k] = 1\n"
        "def d(k):\n    global _MEMO\n    _MEMO = {}\n    _MEMO.setdefault(k, 1)\n"
        "@functools.lru_cache(maxsize=None)\ndef build_parser():\n    pass\n"
        "@functools.cache\ndef e():\n    pass\n"
        "f = functools.cache(e)\n"
        "g = lambda k: _MEMO.update(k=k)\n"
    )
    assert module_state_writes(source, "lib.py") == [
        (6, "_MEMO"), (8, "_SEEN"), (9, "_LOG"), (16, "_MEMO"), (18, "build_parser"),
        (21, "e"), (23, "f"), (24, "_MEMO")]
    assert (18, "build_parser") not in module_state_writes(source, "cli.py")


# (module, function) pairs allowed an ``except`` naming `CapExceeded`: the
# partial scans whose skip notes are part of their output, and the command
# line's one exit-2 line.  Every other overrun reaches `cli.main`.
CAP_CATCHERS = {("principles.py", "check_skolemisation"), ("dial.py", "enumerate_quads"),
                ("dial.py", "check_theorem2"), ("freeness.py", "FreenessAnalyzer.prenex"),
                ("doctrine.py", "doctrine_to_json"), ("cli.py", "main")}


def cap_catches(source: str) -> list:
    """``(line, scope)`` for each ``except`` clause that names `CapExceeded`,
    alone or in a tuple; the scope is the dotted name of the function or
    class it lies in, empty at module level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.ExceptHandler) and child.type is not None and any(
                    (n.id if isinstance(n, ast.Name) else n.attr) == "CapExceeded"
                    for n in ast.walk(child.type) if isinstance(n, (ast.Name, ast.Attribute))):
                found.append((child.lineno, ".".join(scope)))
            visit(child, scope)
    visit(ast.parse(source), ())
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_the_partial_scans_catch_a_cap_overrun(path):
    """One cap policy: an overrun stops the audit with exit 2, except in
    the scans that skip and note what overran."""
    assert [hit for hit in cap_catches(path.read_text())
            if (path.name, hit[1]) not in CAP_CATCHERS] == []


def test_a_cap_catch_is_caught():
    source = (
        "from . import fincat\n"
        "from .fincat import CapExceeded\n"
        "try:\n    pass\nexcept CapExceeded:\n    pass\n"
        "class Analyzer:\n"
        "    def prenex(self):\n"
        "        try:\n            pass\n"
        "        except (KeyError, fincat.CapExceeded) as exc:\n            pass\n"
        "def audit():\n"
        "    def walk():\n"
        "        try:\n            pass\n"
        "        except ValueError:\n            pass\n"
        "        except CapExceeded:\n            pass\n"
        "    try:\n        walk()\n    except Exception:\n        pass\n"
    )
    assert cap_catches(source) == [(5, ""), (11, "Analyzer.prenex"), (19, "audit.walk")]
    assert cap_catches(source.replace("CapExceeded", "CategoryError")) == []
