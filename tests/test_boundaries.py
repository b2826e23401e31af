"""Module boundaries inside the package, checked on the source."""

from __future__ import annotations

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "repeton"


def private_imports(path: Path) -> list[str]:
    """``module.name`` for every ``_``-prefixed name ``path`` imports
    from another repeton module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("repeton"):
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append(f"{node.module or '.'}.{alias.name}")
    return found


def test_no_module_imports_a_private_name_of_another():
    offenders = {
        path.name: names
        for path in sorted(SOURCE.glob("*.py"))
        if (names := private_imports(path))
    }
    assert offenders == {}
