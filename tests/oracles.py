"""Independent oracles the tests compare library output against.

Nothing here may import from the modules under test beyond plain data
types. The outline oracle rides on the stdlib ast module, the search
oracle is a brute-force rescan, and the patch oracles shell out to the
system diff and patch utilities.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
from pathlib import Path


def ast_outline(text: str) -> list[tuple[str, str, int, int]]:
    """Extract (kind, qualified_name, start, end) spans via the ast module.

    Matches the production rules the heuristic outline promises: spans
    include decorators, a def is a method exactly when its nearest
    enclosing definition is a class (control-flow blocks in between do
    not count), and repeated qualified names gain #2/#3 suffixes in
    document order.
    """
    module = ast.parse(text)
    rows: list[tuple[str, str, int, int]] = []
    seen: dict[str, int] = {}

    def visit(node: ast.AST, parent_name: str, parent_is_class: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                if isinstance(child, ast.ClassDef):
                    kind = "class"
                elif parent_is_class:
                    kind = "method"
                else:
                    kind = "function"
                qualified = (
                    f"{parent_name}.{child.name}" if parent_name else child.name
                )
                count = seen.get(qualified, 0) + 1
                seen[qualified] = count
                if count > 1:
                    qualified = f"{qualified}#{count}"
                start = child.lineno
                if child.decorator_list:
                    start = min(start, child.decorator_list[0].lineno)
                rows.append((kind, qualified, start, child.end_lineno))
                visit(child, qualified, isinstance(child, ast.ClassDef))
            else:
                visit(child, parent_name, parent_is_class)

    visit(module, "", False)
    return rows


def brute_search_scores(
    root: Path, keywords: list[str], path_weight: int = 3
) -> dict[str, int]:
    """Rescore every .py file: one path hit and one content hit per
    keyword present, path hits weighted triple."""
    skip_dirs = {".git", "__pycache__", ".repeton_tests"}
    lowered = {k.strip().lower() for k in keywords if k.strip()}
    scores: dict[str, int] = {}
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if any(part in skip_dirs for part in Path(rel).parts):
            continue
        text = path.read_text(encoding="utf-8", errors="replace").lower()
        rel_lower = rel.lower()
        score = 0
        for keyword in lowered:
            if keyword in rel_lower:
                score += path_weight
            if keyword in text:
                score += 1
        if score > 0:
            scores[rel] = score
    return scores


def external_diff(old_dir: Path, new_dir: Path) -> str:
    """Unified diff of two trees via the system diff utility."""
    proc = subprocess.run(
        [
            "diff",
            "-ru",
            "--new-file",
            "--exclude=.git",
            "--exclude=__pycache__",
            "--exclude=.repeton_tests",
            str(old_dir),
            str(new_dir),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode in (0, 1), proc.stderr
    return proc.stdout


def external_hunk_count(diff_text: str) -> int:
    return sum(1 for line in diff_text.splitlines() if line.startswith("@@ "))


def external_files_touched(diff_text: str) -> int:
    return sum(1 for line in diff_text.splitlines() if line.startswith("--- "))


def apply_patch(pristine_dir: Path, patch_text: str, scratch: Path) -> Path:
    """Apply a unified diff to a copy of pristine_dir with patch -p1."""
    target = scratch / "patched"
    shutil.copytree(pristine_dir, target, ignore=shutil.ignore_patterns(".git"))
    proc = subprocess.run(
        ["patch", "-p1", "--no-backup-if-mismatch"],
        input=patch_text,
        cwd=target,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return target


def walked_files(
    root: Path, ignored_dirs: frozenset[str], ignored_suffixes: frozenset[str]
) -> list[str]:
    """Files under root as os.walk lists them, minus ignored directory
    names and file suffixes, as sorted relative posix paths."""
    found: list[str] = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in ignored_dirs]
        rel_dir = Path(dirpath).relative_to(root)
        for name in filenames:
            if not any(name.endswith(suffix) for suffix in ignored_suffixes):
                found.append((rel_dir / name).as_posix())
    return sorted(found)


def tree_bytes(root: Path) -> dict[str, bytes]:
    """Every non-ignored file in the tree, keyed by relative posix path."""
    skip = {".git", "__pycache__", ".repeton_tests"}
    entries: dict[str, bytes] = {}
    for path in sorted(root.rglob("*")):
        rel_parts = path.relative_to(root).parts
        if any(part in skip for part in rel_parts):
            continue
        if path.is_file():
            entries[Path(*rel_parts).as_posix()] = path.read_bytes()
    return entries
