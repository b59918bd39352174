"""No module under ``src/`` or ``tests/`` has a module-level import that it
never uses, so a deletion cannot leave an import behind.

``__init__.py`` files, whose imports are re-exports, and ``from __future__``
imports are exempt.  A name counts as used when the module reads it anywhere
(an attribute chain counts for its first name; assigning it does not), lists
it in ``__all__``, or names it in a string annotation.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _module_imports(body: list[ast.stmt]):
    """``(name bound, line)`` of each import at module level, including those
    under a module-level ``if`` or ``try``, but not inside a def or class."""
    for node in body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno
        elif isinstance(node, (ast.If, ast.Try)):
            for block in (node.body, node.orelse, getattr(node, "finalbody", []),
                          *(handler.body for handler in getattr(node, "handlers", []))):
                yield from _module_imports(block)


def _used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif (isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets)):
            used |= {elt.value for elt in ast.walk(node.value)
                     if isinstance(elt, ast.Constant) and isinstance(elt.value, str)}
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations = [arg.annotation for arg in ast.walk(node.args)
                           if isinstance(arg, ast.arg)] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for annotation in filter(None, annotations):
            for part in ast.walk(annotation):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    used |= {name.id for name in ast.walk(ast.parse(part.value, mode="eval"))
                             if isinstance(name, ast.Name)}
    return used


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in _module_imports(tree.body) if name not in used]


def _modules() -> list[Path]:
    return [path for directory in ("src", "tests")
            for path in sorted((ROOT / directory).rglob("*.py"))
            if path.name != "__init__.py"]


def test_no_unused_module_level_import():
    assert [line for path in _modules() for line in _unused_imports(path)] == []


def test_the_guard_sees_an_unused_import(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from collections import Counter, OrderedDict\n"
        "from functools import cached_property\n"
        "from typing import Optional\n"
        "try:\n"
        "    import json\n"
        "except ImportError:\n"
        "    json = None\n"
        "def f(x: 'Optional[int]') -> int:\n"
        "    import re\n"
        "    return os.path.sep, Counter(x), json\n",
        encoding="utf-8")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    assert [name for name, _ in _module_imports(tree.body) if name not in used] == [
        "OrderedDict", "cached_property"]
    assert "json" in used and "re" not in dict(_module_imports(tree.body))
    assert ROOT / "src" / "gendec" / "translit.py" in _modules()
