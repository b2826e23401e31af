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


def test_only_workspace_and_testkit_know_the_reserved_test_dir():
    # Workspace hides the directory from scans; testkit alone places the
    # reproduction test in it.
    knowing = sorted(
        path.name
        for path in SOURCE.glob("*.py")
        if any(
            token in path.read_text(encoding="utf-8")
            for token in ("RESERVED_TEST_DIR", ".repeton_tests")
        )
    )
    assert knowing == ["testkit.py", "workspace.py"]


def test_only_the_orchestrator_names_actions():
    # Its action table is the one place that says what the agent may do.
    knowing = sorted(
        path.name
        for path in SOURCE.glob("*.py")
        if any(
            f'"{name}"' in path.read_text(encoding="utf-8")
            for name in (
                "set_keywords", "open_outline", "edit_region", "switch_file", "propose_test",
            )
        )
    )
    assert knowing == ["orchestrator.py"]
