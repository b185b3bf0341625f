"""Every name a module in ``src/overchain/`` imports is used in that module.

No linter ships with the project, so this is a small stand-in: it parses each
module with ``ast`` and reports imported names that no expression reads.
Names listed in ``__all__`` count as used (re-exports); ``from __future__``
imports are skipped.
"""
import ast
from pathlib import Path

import pytest

import overchain

MODULES = sorted(Path(overchain.__file__).parent.glob("*.py"))


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


def test_detector_flags_an_unused_import_and_spares_used_ones():
    source = ("from __future__ import annotations\n"
              "import json, os.path\n"
              "from typing import Any, Optional as Opt\n"
              "from .x import exported\n"
              "__all__ = ['exported']\n"
              "def f(a: Opt[int]) -> None:\n"
              "    return os.path.join(json.dumps(a))\n")
    assert unused_imports(source) == ["line 3: Any"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
