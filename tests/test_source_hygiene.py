"""Source checks that need no tool beyond the standard library."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "moama"
# the package's __init__ imports names to re-export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, in import order. ``from
    __future__`` imports are exempt; a name read only in a quoted annotation
    counts as read."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:   # a quoted annotation such as "TensorGraph"
                used.update(n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                            if isinstance(n, ast.Name))
            except SyntaxError:
                pass
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text("utf-8")) == []


def test_unused_import_check_flags_a_stale_import():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import numpy as np\n"
              "from . import autodiff as ad\n"
              "from .gin import ParamStore, encode\n"
              "def f(s: 'ParamStore'):\n"
              "    return np.zeros(1), encode\n")
    assert unused_imports(source) == ["os", "ad"]


def private_imports(source: str) -> list[str]:
    """Underscore-prefixed names a module imports from a sibling module (a
    relative import, or one from the ``moama`` package), in import order."""
    tree = ast.parse(source)
    return [a.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level > 0 or (node.module or "").split(".")[0] == "moama")
            for a in node.names if a.name.startswith("_")]


@pytest.mark.parametrize("path", ALL_MODULES, ids=[p.name for p in ALL_MODULES])
def test_module_imports_no_private_name_of_a_sibling(path):
    assert private_imports(path.read_text("utf-8")) == []


def test_private_import_check_flags_a_sibling_private_name():
    source = ("from __future__ import annotations\n"
              "from ._x import public\n"
              "from .molgraph import MolGraph, _bridge\n"
              "from moama.fingerprint import _hash\n"
              "from . import _helpers\n"
              "from os import _exit\n")
    assert private_imports(source) == ["_bridge", "_hash", "_helpers"]


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each underscore-prefixed top-level name (a def, a
    class or an assignment) that no module of ``sources`` reads, sorted. A
    read is a loaded name, an attribute or an imported name."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                assigned = node.targets if isinstance(node, ast.Assign) else [node.target]
                targets = [t.id for t in assigned if isinstance(t, ast.Name)]
            else:
                targets = []
            defined += [(module, name) for name in targets
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return sorted(f"{module}.{name}" for module, name in defined if name not in read)


def test_package_reads_every_private_name_it_defines():
    assert unread_private_names({p.stem: p.read_text("utf-8") for p in ALL_MODULES}) == []


def test_unread_private_name_check_flags_a_leftover_copy():
    sources = {
        "a": ("_LIMIT = 3\n"
              "_OLD_LIMIT: int = 4\n"
              "__all__ = ['public']\n"
              "def _helper(x):\n"
              "    return x < _LIMIT\n"
              "def _old_helper(x):\n"
              "    return x\n"
              "class _Box:\n"
              "    pass\n"
              "def public(x):\n"
              "    _unused_local = 1\n"
              "    return _helper(x)\n"),
        "b": ("from . import a\n"
              "from .a import public\n"
              "_TABLE = {}\n"
              "def f():\n"
              "    return a._Box(), public(1)\n"),
    }
    assert unread_private_names(sources) == ["a._OLD_LIMIT", "a._old_helper", "b._TABLE"]


# errors.read_input and errors.write_output are the package's one reader and one writer
_FILE_CALLS = {"open", "read_text", "read_bytes", "write_text", "write_bytes"}


def file_calls(source: str) -> list[str]:
    """``line:name`` for each call of ``open``, or of a method named ``open``,
    ``read_text``, ``read_bytes``, ``write_text`` or ``write_bytes``, in source order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = (func.id if isinstance(func, ast.Name) and func.id == "open" else
                    func.attr if isinstance(func, ast.Attribute) else None)
            if name in _FILE_CALLS:
                found.append((node.lineno, node.col_offset, name))
    return [f"{line}:{name}" for line, _, name in sorted(found)]


FILE_IO_MODULES = [p for p in ALL_MODULES if p.name != "errors.py"]


@pytest.mark.parametrize("path", FILE_IO_MODULES, ids=[p.name for p in FILE_IO_MODULES])
def test_module_reads_and_writes_files_only_through_errors(path):
    assert file_calls(path.read_text("utf-8")) == []


def test_file_call_check_flags_every_reader_and_writer():
    source = ("import io\n"
              "from pathlib import Path\n"
              "def f(p, read_text):\n"
              "    with open(p) as fh:\n"
              "        fh.read()\n"
              "    Path(p).read_text('utf-8')\n"
              "    io.open(p, 'rb'); p.read_bytes()\n"
              "    p.write_text(''); p.write_bytes(b'')\n"
              "    read_text(p), p.with_suffix('.csv'), p.opener()\n")
    assert file_calls(source) == ["4:open", "6:read_text", "7:open", "7:read_bytes",
                                  "8:write_text", "8:write_bytes"]


def global_statements(source: str) -> list[str]:
    """``line:name`` for each name a ``global`` statement declares, in source
    order. A cached function (``functools.cache``) holds what a module global
    would."""
    return [f"{node.lineno}:{name}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Global) for name in node.names]


@pytest.mark.parametrize("path", ALL_MODULES, ids=[p.name for p in ALL_MODULES])
def test_module_has_no_global_statement(path):
    assert global_statements(path.read_text("utf-8")) == []


def test_global_statement_check_flags_every_declared_name():
    source = ("_cache = None\n"
              "_a = _b = 0\n"
              "def load():\n"
              "    global _cache\n"
              "    if _cache is None:\n"
              "        _cache = 1\n"
              "    return _cache\n"
              "class Box:\n"
              "    def bump(self):\n"
              "        global _a, _b\n"
              "        _a += 1\n"
              "def outer():\n"
              "    n = 0\n"
              "    def inner():\n"
              "        nonlocal n\n"
              "        n += 1\n")
    assert global_statements(source) == ["4:_cache", "10:_a", "10:_b"]


def function_imports(source: str) -> list[str]:
    """``line:module`` for each import statement inside a function body, in
    source order. A relative module keeps its leading dots."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, ast.Import):
                    found.update((inner.lineno, a.name) for a in inner.names)
                elif isinstance(inner, ast.ImportFrom):
                    found.add((inner.lineno, "." * inner.level + (inner.module or "")))
    return [f"{line}:{module}" for line, module in sorted(found)]


@pytest.mark.parametrize("path", ALL_MODULES, ids=[p.name for p in ALL_MODULES])
def test_module_imports_only_at_module_level(path):
    assert function_imports(path.read_text("utf-8")) == []


def test_function_import_check_flags_every_nested_import():
    source = ("import os\n"
              "from . import gin\n"
              "def f():\n"
              "    from .smiles import parse\n"
              "    def g():\n"
              "        import numpy as np, json\n"
              "        return np\n"
              "    return parse, g\n"
              "class Box:\n"
              "    async def h(self):\n"
              "        from .. import cli\n"
              "    import sys\n")
    assert function_imports(source) == ["4:.smiles", "6:json", "6:numpy", "11:.."]
