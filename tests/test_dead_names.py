"""No module-level name in regrow is dead.

A name a module binds at its top level (a function, class, constant or
import) must be read again in that module, listed in its ``__all__``,
imported by another regrow module, or exported by ``regrow/__init__.py``.
Dunder names are exempt. The source of every module is parsed, as in
``test_private_names.py``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import regrow

SRC = Path(regrow.__file__).parent


def module_names(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of each non-dunder name bound at the top of ``tree``."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(n.id, node.lineno) for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            found += [((a.asname or a.name).split(".")[0], node.lineno) for a in node.names]
    return [(name, line) for name, line in found if not name.startswith("__")]


def read_names(tree: ast.Module) -> set[str]:
    """Every name ``tree`` loads or lists in its ``__all__``."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
             and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            names |= set(ast.literal_eval(node.value))
    return names


def imported_names(tree: ast.Module, module: str) -> set[str]:
    """Names ``tree`` takes from regrow module ``module``: by ``from`` import,
    or as attributes of the module imported by ``from . import module``."""
    names, aliases = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "regrow"
        ):
            source = (node.module or "").removeprefix("regrow").lstrip(".")
            for alias in node.names:
                if source == module:
                    names.add(alias.name)
                elif source == "" and alias.name == module:
                    aliases.add(alias.asname or alias.name)
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
              and isinstance(n.value, ast.Name) and n.value.id in aliases}
    return names


def dead_names(src: Path) -> list[str]:
    """``file:line: name`` of each dead module-level name under ``src``."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(src.glob("*.py"))}
    found = []
    for module, tree in trees.items():
        if module == "__init__":
            continue
        used = read_names(tree) | {
            name for other, other_tree in trees.items() if other != module
            for name in imported_names(other_tree, module)
        }
        found += [f"{module}.py:{line}: {name}" for name, line in module_names(tree)
                  if name not in used]
    return found


def test_no_module_level_name_is_dead():
    assert dead_names(SRC) == []


def test_the_check_sees_dead_names(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import exported\n", encoding="utf-8")
    (tmp_path / "a.py").write_text(
        "import logging\n"
        "import os\n"
        "from os import sep as listed\n"
        "log = logging.getLogger('a')\n"
        "UNUSED = 1\n"
        "def exported(): return os.sep\n"
        "def imported(): pass\n"
        "def by_attribute(): pass\n"
        "def _dead(): pass\n"
        "__all__ = ['listed']\n",
        encoding="utf-8",
    )
    (tmp_path / "b.py").write_text(
        "from .a import imported\n"
        "from . import a\n"
        "a.by_attribute()\n",
        encoding="utf-8",
    )
    assert dead_names(tmp_path) == [
        "a.py:4: log", "a.py:5: UNUSED", "a.py:9: _dead", "b.py:1: imported",
    ]
