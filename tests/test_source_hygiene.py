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
