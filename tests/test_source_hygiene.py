"""Source checks that need no tool beyond the standard library."""

import ast
import re
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


# molgraph alone reads a graph's edge arrays: they are views of the corpus
# stack that molgraph.build_stack lays out for each corpus read_dataset
# parses, and molgraph.stack, which concatenates them, is their one reader
_EDGE_ARRAYS = {"edges", "ring_edges"}


def edge_array_reads(source: str) -> list[str]:
    """``line:name`` for each read of an attribute named ``edges`` or
    ``ring_edges``, in source order."""
    return [f"{node.lineno}:{node.attr}" for node in sorted(
        (n for n in ast.walk(ast.parse(source))
         if isinstance(n, ast.Attribute) and n.attr in _EDGE_ARRAYS),
        key=lambda n: (n.lineno, n.col_offset))]


EDGE_READING_MODULES = [p for p in ALL_MODULES if p.name != "molgraph.py"]


@pytest.mark.parametrize("path", EDGE_READING_MODULES,
                         ids=[p.name for p in EDGE_READING_MODULES])
def test_only_molgraph_reads_a_graph_s_edge_arrays(path):
    assert edge_array_reads(path.read_text("utf-8")) == []


def test_edge_array_check_flags_every_read():
    source = ("def f(g, graphs, dec):\n"
              "    e = g.edges[0]\n"
              "    r = [h.ring_edges for h in graphs]\n"
              "    return e, r, dec.cut_edges, g._edges, g.bonds, getattr(g, 'edges')\n"
              "x = g.ring_edges.sum() + g.edges.shape[1]\n")
    assert edge_array_reads(source) == ["2:edges", "3:ring_edges", "5:ring_edges", "5:edges"]


# The callers of molgraph.stack, the concatenation of molecules' arrays: a
# batch, whose molecules are drawn from across a corpus, and corpus_stack for
# molecules that are not one whole corpus. The corpus kernels read the stack
# their corpus was built into through corpus_stack, and concatenate nothing.
_STACK_CALLERS = {"gin:TensorGraph.from_graphs", "molgraph:corpus_stack"}


def scoped_nodes(tree):
    """Each node below ``tree`` that is not a def or a class, with the dotted
    name of its enclosing defs and classes (``<module>`` at top level)."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from visit(child, child.name if scope == "<module>"
                                 else f"{scope}.{child.name}")
                continue
            yield child, scope
            yield from visit(child, scope)

    return visit(tree, "<module>")


def stack_callers(module: str, source: str) -> list[str]:
    """``module:function`` for each read of ``molgraph.stack`` in a module
    named ``module``, sorted and each once: the attribute ``molgraph.stack``,
    or the name ``stack`` where the module is molgraph or imports ``stack``
    from it. ``function`` is the dotted name of the enclosing defs and
    classes (``<module>`` at top level)."""
    tree = ast.parse(source)
    local = "stack" if module == "molgraph" else None
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom)
                and node.module in ("molgraph", "moama.molgraph") and node.level <= 1):
            local = next((a.asname or a.name for a in node.names if a.name == "stack"), local)
    return sorted({f"{module}:{scope}" for node, scope in scoped_nodes(tree)
                   if (isinstance(node, ast.Name) and node.id == local
                       and isinstance(node.ctx, ast.Load))
                   or (isinstance(node, ast.Attribute) and node.attr == "stack"
                       and isinstance(node.value, ast.Name) and node.value.id == "molgraph")})


def test_no_corpus_kernel_concatenates_a_stacked_corpus():
    found = set()
    for path in ALL_MODULES:
        found.update(stack_callers(path.stem, path.read_text("utf-8")))
    assert found == _STACK_CALLERS


def test_stack_caller_check_flags_every_new_caller():
    kernel = ("from .molgraph import corpus_stack, stack as concat\n"
              "from . import molgraph\n"
              "def keys(graphs):\n"
              "    return concat(graphs).x\n"
              "class Batch:\n"
              "    def build(self, graphs):\n"
              "        join = concat\n"
              "        return molgraph.stack(graphs), corpus_stack(graphs), join\n"
              "def bits(graphs, stack=None):\n"
              "    return corpus_stack(graphs), stack\n")
    assert stack_callers("kernel", kernel) == ["kernel:Batch.build", "kernel:keys"]
    tape = ("def backward(t):\n"
            "    stack = [t]\n"
            "    while stack:\n"
            "        stack.pop()\n")
    assert stack_callers("autodiff", tape) == []
    home = ("def stack(graphs):\n"
            "    return graphs\n"
            "def corpus_stack(graphs):\n"
            "    return stack(graphs)\n")
    assert stack_callers("molgraph", home) == ["molgraph:corpus_stack"]


# autodiff's two gradient sinks: the functions that may scatter rows into a
# gradient, and those that may store one
_GRADIENT_SINKS = {"_scatter_add": {"_scatter_grad", "_segment_sum_values"},
                   "grad": {"Tensor.__init__", "Tensor.backward", "_accum", "_scatter_grad"}}


def stray_gradient_writes(source: str) -> list[str]:
    """``line:function:name`` for each read of ``_scatter_add`` and each
    assignment to a ``.grad`` attribute outside the functions
    ``_GRADIENT_SINKS`` allows, in source order. ``function`` is the dotted
    name of the enclosing defs and classes (``<module>`` at top level)."""
    found = []
    for node, scope in scoped_nodes(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id == "_scatter_add":
            name = node.id
        elif (isinstance(node, ast.Attribute) and node.attr == "grad"
              and isinstance(node.ctx, ast.Store)):
            name = node.attr
        else:
            name = None
        if name is not None and scope not in _GRADIENT_SINKS[name]:
            found.append((node.lineno, node.col_offset, f"{scope}:{name}"))
    return [f"{line}:{what}" for line, _, what in sorted(found)]


def test_autodiff_writes_gradients_only_through_its_sinks():
    assert stray_gradient_writes((SRC / "autodiff.py").read_text("utf-8")) == []


def test_gradient_sink_check_flags_a_leftover_inline_scatter():
    source = ("def _scatter_add(dst, idx, src):\n"
              "    pass\n"
              "def _scatter_grad(t, idx, g):\n"
              "    if t.grad is None:\n"
              "        t.grad = 0.0\n"
              "    _scatter_add(t.grad, idx, g)\n"
              "def take_rows(a, idx):\n"
              "    def back(g):\n"
              "        if a.grad is None:\n"
              "            a.grad = 0.0\n"
              "        _scatter_add(a.grad, idx, g)\n"
              "    return back\n"
              "class Tensor:\n"
              "    def __init__(self):\n"
              "        self.grad = None\n"
              "    def zero(self, other):\n"
              "        self.grad, other.grad = None, None\n"
              "def _accum(t, g):\n"
              "    t.grad += g\n"
              "add_rows = _scatter_add\n")
    assert stray_gradient_writes(source) == [
        "10:take_rows.back:grad", "11:take_rows.back:_scatter_add", "17:Tensor.zero:grad",
        "17:Tensor.zero:grad", "20:<module>:_scatter_add"]


# \d, \w and \s (and their negations) match non-ASCII digits, letters and
# spaces unless a pattern is compiled with re.ASCII
_UNICODE_CLASS = re.compile(r"(?<!\\)(?:\\\\)*\\[dDwWsS]")


def unicode_class_patterns(source: str) -> list[str]:
    """``line:name`` for each module-level ``name = re.compile(pattern, ...)``
    whose literal pattern uses ``\\d``, ``\\w`` or ``\\s`` (or a negation)
    and whose flags do not name ``re.ASCII`` (or ``re.A``), in source order."""
    found = []
    for node in ast.parse(source).body:
        if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)):
            continue
        call = node.value
        if not (isinstance(call.func, ast.Attribute) and call.func.attr == "compile"
                and isinstance(call.func.value, ast.Name) and call.func.value.id == "re"
                and call.args and isinstance(call.args[0], ast.Constant)
                and isinstance(call.args[0].value, str)):
            continue
        flags = call.args[1:] + [k.value for k in call.keywords if k.arg == "flags"]
        ascii_flag = any(isinstance(n, ast.Attribute) and n.attr in ("ASCII", "A")
                         for f in flags for n in ast.walk(f))
        if _UNICODE_CLASS.search(call.args[0].value) and not ascii_flag:
            found += [f"{node.lineno}:{t.id}" for t in node.targets if isinstance(t, ast.Name)]
    return found


@pytest.mark.parametrize("path", ALL_MODULES, ids=[p.name for p in ALL_MODULES])
def test_module_patterns_match_only_ascii_classes(path):
    assert unicode_class_patterns(path.read_text("utf-8")) == []


def test_unicode_class_check_flags_a_pattern_without_re_ascii():
    source = ("import re\n"
              "_A = re.compile(r'\\d+')\n"
              "_B = re.compile(r'\\d+', re.ASCII)\n"
              "_C = re.compile(r'''x\n  \\s''', re.X)\n"
              "_D = re.compile(r'[A-Z]\\\\d')\n"
              "_E = re.compile(r'\\\\\\w', flags=re.X | re.A)\n"
              "_F = re.compile(r'\\\\\\W')\n"
              "def f():\n"
              "    return re.compile(r'\\d')\n")
    assert unicode_class_patterns(source) == ["2:_A", "4:_C", "8:_F"]
