"""Every name a module in ``src/overchain/``, ``tests/`` or ``demos/`` imports
is used in that module, and every private top-level name a package module
defines is read in it.

No linter ships with the project, so this is a small stand-in: it parses each
module with ``ast`` and reports imported names that no expression reads.
Names listed in ``__all__`` count as used (re-exports); ``from __future__``
imports are skipped. A private name (``_x``, not a dunder) is one the module
keeps to itself, so one that the module never reads is dead code.
"""
import ast
from pathlib import Path

import pytest

import overchain

PACKAGE = Path(overchain.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("demos/*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda i: i[1])
            if name not in used]


def unread_private_names(source: str) -> list[str]:
    tree = ast.parse(source)
    defined: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [ast.Name(node.name)]
        elif isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if (isinstance(name, ast.Name) and name.id.startswith("_")
                        and not name.id.startswith("__")):
                    defined.setdefault(name.id, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in defined.items() if name not in read]


def test_detector_flags_an_unused_import_and_spares_used_ones():
    source = ("from __future__ import annotations\n"
              "import json, os.path\n"
              "from typing import Any, Optional as Opt\n"
              "from .x import exported\n"
              "__all__ = ['exported']\n"
              "def f(a: Opt[int]) -> None:\n"
              "    return os.path.join(json.dumps(a))\n")
    assert unused_imports(source) == ["line 3: Any"]


def module_id(path: Path) -> str:
    return path.name if path.parent == PACKAGE else f"{path.parent.name}/{path.name}"


@pytest.mark.parametrize("path", MODULES + SCRIPTS, ids=module_id)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detector_flags_an_unread_private_name_and_spares_read_ones():
    source = ("__all__ = ['f']\n"
              "_TABLE = {'a': 1}\n"
              "_OLD, _NEW = 1, 2\n"
              "_late: int = 3\n"
              "def _helper(x):\n"
              "    _local = x\n"
              "    return _TABLE[x]\n"
              "class _Gone:\n"
              "    pass\n"
              "def f():\n"
              "    return _helper('a') + _NEW + _late\n")
    assert unread_private_names(source) == ["line 3: _OLD", "line 8: _Gone"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_each_private_name_it_defines(path):
    assert unread_private_names(path.read_text()) == []
