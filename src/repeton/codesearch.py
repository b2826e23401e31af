"""Keyword-driven file search over a workspace.

Scoring is deliberately plain: a keyword hitting the file path counts
three times as much as a keyword hitting the file content, no fuzzy
matching, no ranking model. Results render as an ASCII tree so the
agent sees repository structure instead of a flat list.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable

from .errors import EmptyQuery
from .workspace import Workspace, tracked_files

logger = logging.getLogger(__name__)

MATCH_LIMIT = 20
SEARCHED_EXTENSIONS = (".py",)
PATH_WEIGHT = 3
# Files above this size are scored on path hits only.
CONTENT_SCAN_CAP = 1024 * 1024


@dataclass(frozen=True)
class KeywordQuery:
    """Trimmed keywords plus their lowercase forms used for matching."""

    keywords: tuple[str, ...]
    normalized: tuple[str, ...]


@dataclass(frozen=True)
class MatchEntry:
    path: str
    path_hits: int
    content_hits: int
    score: int


@dataclass(frozen=True)
class MatchSet:
    query: KeywordQuery
    entries: tuple[MatchEntry, ...]
    limit: int
    truncated: bool = False


@dataclass(frozen=True)
class MatchTree:
    text: str
    node_count: int


def make_query(tokens: Iterable[str]) -> KeywordQuery:
    """Build a query, trimming tokens and dropping empties and repeats."""
    keywords: list[str] = []
    normalized: list[str] = []
    for token in tokens:
        trimmed = token.strip()
        lowered = trimmed.lower()
        if not trimmed or lowered in normalized:
            continue
        keywords.append(trimmed)
        normalized.append(lowered)
    if not keywords:
        raise EmptyQuery("no usable keywords in query")
    return KeywordQuery(keywords=tuple(keywords), normalized=tuple(normalized))


def match_files(ws: Workspace, query: KeywordQuery) -> MatchSet:
    """Score the Python files against the query; keep the best
    ``MATCH_LIMIT``.

    score = 3 * path_hits + content_hits, where path_hits counts
    keywords appearing case-insensitively in the relative path and
    content_hits counts keywords appearing anywhere in the file text.
    """
    scored: list[MatchEntry] = []
    for rel in tracked_files(ws):
        if not rel.endswith(SEARCHED_EXTENSIONS):
            continue
        lowered_path = rel.lower()
        path_hits = sum(1 for kw in query.normalized if kw in lowered_path)

        content_hits = 0
        full = ws.root / rel
        if full.stat().st_size <= CONTENT_SCAN_CAP:
            try:
                text = full.read_bytes().decode("utf-8", errors="replace").lower()
            except OSError:
                text = ""
            content_hits = sum(1 for kw in query.normalized if kw in text)

        score = PATH_WEIGHT * path_hits + content_hits
        if score > 0:
            scored.append(
                MatchEntry(
                    path=rel,
                    path_hits=path_hits,
                    content_hits=content_hits,
                    score=score,
                )
            )

    scored.sort(key=lambda e: (-e.score, e.path))
    return MatchSet(
        query=query,
        entries=tuple(scored[:MATCH_LIMIT]),
        limit=MATCH_LIMIT,
        truncated=len(scored) > MATCH_LIMIT,
    )


def render_match_tree(match_set: MatchSet, root_name: str) -> MatchTree:
    """Render matched paths as an ASCII tree rooted at ``root_name``.

    Directories precede files at every level, both sorted
    lexicographically; matched files carry a score suffix.
    """
    tree: dict = {}
    for entry in match_set.entries:
        node = tree
        parts = entry.path.split("/")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = entry.score

    lines = [root_name]
    _render_children(tree, "", lines)
    return MatchTree(text="\n".join(lines), node_count=len(lines))


def _render_children(node: dict, prefix: str, lines: list[str]) -> None:
    dirs = sorted(k for k, v in node.items() if isinstance(v, dict))
    files = sorted(k for k, v in node.items() if not isinstance(v, dict))
    ordered = [(name, True) for name in dirs] + [(name, False) for name in files]
    for idx, (name, is_dir) in enumerate(ordered):
        last = idx == len(ordered) - 1
        connector = "└── " if last else "├── "
        if is_dir:
            lines.append(prefix + connector + name)
            _render_children(node[name], prefix + ("    " if last else "│   "), lines)
        else:
            lines.append(f"{prefix}{connector}{name} [score={node[name]}]")
