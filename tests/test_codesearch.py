"""Keyword scoring, result ordering, and match-tree rendering."""

from __future__ import annotations

import pytest

import oracles
from repeton.codesearch import (
    CONTENT_SCAN_CAP,
    MATCH_LIMIT,
    MatchEntry,
    MatchSet,
    make_query,
    match_files,
    render_match_tree,
)
from repeton.errors import EmptyQuery
from repeton.workspace import Workspace


def _ad_hoc_ws(root) -> Workspace:
    return Workspace(instance_id="scan", root=root, control_dir=root)


def _seed(root, rel: str, text: str) -> None:
    target = root / rel
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text)


def test_make_query_trims_dedupes_and_lowercases():
    query = make_query([" Matrix", "matrix", "", "  ", "Separability"])
    assert query.keywords == ("Matrix", "Separability")
    assert query.normalized == ("matrix", "separability")


def test_make_query_rejects_empty_input():
    with pytest.raises(EmptyQuery):
        make_query(["", "   "])


def test_weighted_scoring_on_seeded_tree(tmp_path):
    _seed(
        tmp_path,
        "modeling/matrix/separable.py",
        "def separability(m):\n    return matrix(m)\n",
    )
    matches = match_files(
        _ad_hoc_ws(tmp_path), make_query(["separability", "matrix"])
    )
    entry = {e.path: e for e in matches.entries}["modeling/matrix/separable.py"]
    assert entry.path_hits == 1
    assert entry.content_hits == 2
    assert entry.score == 5


def test_path_hits_weigh_three_times_content_hits(tmp_path):
    _seed(tmp_path, "grid.py", "nothing relevant\n")
    _seed(tmp_path, "other.py", "grid\n")
    matches = match_files(_ad_hoc_ws(tmp_path), make_query(["grid"]))
    by_path = {e.path: e.score for e in matches.entries}
    assert by_path == {"grid.py": 3, "other.py": 1}


def test_matching_is_case_insensitive_substring(tmp_path):
    _seed(tmp_path, "Widgets.py", "class WIDGETS:\n    pass\n")
    matches = match_files(_ad_hoc_ws(tmp_path), make_query(["widget"]))
    entry = matches.entries[0]
    assert entry.path_hits == 1
    assert entry.content_hits == 1


def test_results_order_by_score_then_path(tmp_path):
    _seed(tmp_path, "b.py", "alpha\n")
    _seed(tmp_path, "a.py", "alpha\n")
    _seed(tmp_path, "c.py", "alpha beta\n")
    matches = match_files(_ad_hoc_ws(tmp_path), make_query(["alpha", "beta"]))
    assert [e.path for e in matches.entries] == ["c.py", "a.py", "b.py"]
    assert [e.score for e in matches.entries] == [2, 1, 1]


def test_content_hits_count_keywords_not_occurrences(tmp_path):
    _seed(tmp_path, "mod.py", "needle needle needle\n")
    matches = match_files(_ad_hoc_ws(tmp_path), make_query(["needle"]))
    entry = matches.entries[0]
    assert entry.content_hits == 1
    assert entry.score == 1


def test_result_list_is_capped(tmp_path):
    for idx in range(MATCH_LIMIT + 5):
        _seed(tmp_path, f"mod_{idx:02d}.py", "needle\n")
    matches = match_files(_ad_hoc_ws(tmp_path), make_query(["needle"]))
    assert len(matches.entries) == MATCH_LIMIT
    assert matches.truncated


def test_uncut_results_are_not_flagged_truncated(tmp_path):
    _seed(tmp_path, "only.py", "needle\n")
    matches = match_files(_ad_hoc_ws(tmp_path), make_query(["needle"]))
    assert not matches.truncated


def test_only_python_files_are_scanned(tmp_path):
    _seed(tmp_path, "notes.txt", "needle needle\n")
    _seed(tmp_path, "mod.py", "needle\n")
    matches = match_files(_ad_hoc_ws(tmp_path), make_query(["needle"]))
    assert [e.path for e in matches.entries] == ["mod.py"]


def test_oversized_files_score_path_only(tmp_path):
    big = "needle\n" * (CONTENT_SCAN_CAP // 7 + 10)
    assert len(big.encode()) > CONTENT_SCAN_CAP
    _seed(tmp_path, "needle_big.py", big)
    matches = match_files(_ad_hoc_ws(tmp_path), make_query(["needle"]))
    entry = matches.entries[0]
    assert entry.path_hits == 1
    assert entry.content_hits == 0
    assert entry.score == 3


def test_scores_match_brute_force_rescan(tmp_path):
    _seed(tmp_path, "modeling/separable.py", "matrix separability\n")
    _seed(tmp_path, "modeling/core.py", "def transform():\n    pass\n")
    _seed(tmp_path, "util/matrix.py", "separability\n")
    _seed(tmp_path, "README.md", "matrix\n")
    keywords = ["matrix", "separability"]
    matches = match_files(_ad_hoc_ws(tmp_path), make_query(keywords))
    got = {e.path: e.score for e in matches.entries}
    assert got == oracles.brute_search_scores(tmp_path, keywords)


def test_search_is_deterministic(tmp_path):
    for idx in range(6):
        _seed(tmp_path, f"pkg/m{idx}.py", f"alpha beta {idx}\n")
    ws = _ad_hoc_ws(tmp_path)
    first = match_files(ws, make_query(["alpha"]))
    second = match_files(ws, make_query(["alpha"]))
    assert first == second


def test_tree_rendering_golden():
    matches = MatchSet(
        query=make_query(["stub"]),
        entries=(
            MatchEntry(path="src/a.py", path_hits=0, content_hits=2, score=2),
            MatchEntry(path="src/b/c.py", path_hits=1, content_hits=1, score=4),
        ),
        limit=20,
    )
    tree = render_match_tree(matches, "proj")
    assert tree.text == (
        "proj\n"
        "└── src\n"
        "    ├── b\n"
        "    │   └── c.py [score=4]\n"
        "    └── a.py [score=2]"
    )
    assert tree.node_count == 5


def test_tree_rendering_single_top_level_file():
    matches = MatchSet(
        query=make_query(["stub"]),
        entries=(
            MatchEntry(path="solo.py", path_hits=1, content_hits=0, score=3),
        ),
        limit=20,
    )
    tree = render_match_tree(matches, "proj")
    assert tree.text == "proj\n└── solo.py [score=3]"
    assert tree.node_count == 2


def test_directories_sort_before_files(tmp_path):
    _seed(tmp_path, "zeta.py", "needle\n")
    _seed(tmp_path, "alpha/inner.py", "needle\n")
    matches = match_files(_ad_hoc_ws(tmp_path), make_query(["needle"]))
    tree = render_match_tree(matches, "root")
    assert tree.text.splitlines() == [
        "root",
        "├── alpha",
        "│   └── inner.py [score=1]",
        "└── zeta.py [score=1]",
    ]
