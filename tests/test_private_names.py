"""No regrow module reaches for another regrow module's private names.

A ``_``-prefixed name belongs to its own module: the worker policy of
``pool`` (``_worker_count``), for one, is decided only there. The source of
every module is parsed, and an import of a private name from another regrow
module, or a private attribute of an imported regrow module, fails the test.
"""

from __future__ import annotations

import ast
from pathlib import Path

import regrow

SRC = Path(regrow.__file__).parent


def _is_regrow(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == "regrow"


def private_uses(path: Path) -> list[str]:
    """``file:line: name`` of each private name ``path`` takes from another module."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    modules = set()  # names bound to regrow modules by ``from . import x``
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _is_regrow(node):
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append(f"{path.name}:{node.lineno}: {alias.name}")
                if node.module in (None, "regrow"):
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            found.append(f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}")
    return found


def test_no_module_imports_a_private_name_of_another():
    found = [use for path in sorted(SRC.glob("*.py")) for use in private_uses(path)]
    assert found == []


def test_the_check_sees_private_imports_and_attributes(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "from .pool import _worker_count, iter_jobs\n"
        "from . import ingest\n"
        "from regrow.references import _table\n"
        "x = ingest._POOL_CELLS\n",
        encoding="utf-8",
    )
    assert private_uses(path) == [
        "probe.py:1: _worker_count", "probe.py:3: _table", "probe.py:4: ingest._POOL_CELLS",
    ]
