"""Workspace isolation, snapshot round-trips, and diff fidelity."""

from __future__ import annotations

import errno
import hashlib
import io
import os
import random
import subprocess
import sys
import time

import pytest

import oracles
from repeton import workspace
from repeton.codesearch import make_query, match_files
from repeton.errors import (
    DirtyTarget,
    ForeignSnapshot,
    IoFailure,
    LocationUnavailable,
    PathEscape,
    RevisionNotFound,
)
from repeton.workspace import (
    RESERVED_TEST_DIR,
    WORK_DIR_ENV,
    DiffDocument,
    compute_diff,
    confined_path,
    open_workspace,
    restore_snapshot,
    take_snapshot,
    tracked_files,
)


def test_open_workspace_clones_into_isolated_root(calc_repo, tmp_path):
    ws = open_workspace(
        str(calc_repo), "HEAD", "demo-1", work_root=str(tmp_path)
    )
    assert ws.root == tmp_path / "demo-1" / "repo"
    assert ws.root.is_dir()
    assert (ws.root / "calc.py").read_text().startswith('"""Tiny calculator')
    assert tracked_files(ws) == ["README.md", "calc.py", "util.py"]


def test_open_workspace_resolves_named_revision(calc_repo, tmp_path):
    ws = open_workspace(
        str(calc_repo), "master", "demo-rev", work_root=str(tmp_path)
    )
    assert (ws.root / "calc.py").exists()


def test_open_workspace_missing_location(tmp_path):
    with pytest.raises(LocationUnavailable):
        open_workspace(
            str(tmp_path / "no-such-repo"), "HEAD", "x", work_root=str(tmp_path)
        )


def test_open_workspace_unknown_revision(calc_repo, tmp_path):
    with pytest.raises(RevisionNotFound):
        open_workspace(
            str(calc_repo), "no-such-rev", "x", work_root=str(tmp_path)
        )


def test_open_workspace_refuses_occupied_directory(calc_repo, tmp_path):
    target = tmp_path / "busy" / "repo"
    target.mkdir(parents=True)
    (target / "stale.txt").write_text("left over\n")
    with pytest.raises(DirtyTarget):
        open_workspace(str(calc_repo), "HEAD", "busy", work_root=str(tmp_path))


def test_open_workspace_work_dir_env_fallback(calc_repo, tmp_path, monkeypatch):
    monkeypatch.setenv(WORK_DIR_ENV, str(tmp_path / "from-env"))
    ws = open_workspace(str(calc_repo), "HEAD", "env-pick")
    assert ws.root == tmp_path / "from-env" / "env-pick" / "repo"


def test_tracked_files_skips_ignored_entries(calc_ws):
    (calc_ws.root / "__pycache__").mkdir()
    (calc_ws.root / "__pycache__" / "calc.cpython-310.pyc").write_bytes(b"\x00")
    (calc_ws.root / "calc.pyc").write_bytes(b"\x00")
    (calc_ws.root / RESERVED_TEST_DIR).mkdir()
    (calc_ws.root / RESERVED_TEST_DIR / "test_x.py").write_text("assert True\n")
    assert tracked_files(calc_ws) == ["README.md", "calc.py", "util.py"]


def test_tracked_files_match_an_os_walk_oracle(calc_ws, tmp_path):
    root = calc_ws.root
    (root / "pkg" / "deep" / "deeper").mkdir(parents=True)
    (root / "pkg" / "deep" / "deeper" / "leaf.py").write_text("LEAF = 1\n")
    (root / "pkg" / "deep" / "mod.pyc").write_bytes(b"\x00")
    (root / "pkg" / "__pycache__").mkdir()
    (root / "pkg" / "__pycache__" / "x.py").write_text("hidden\n")
    (root / "pkg" / ".git").write_text("gitdir: elsewhere\n")
    (root / "pkg" / "calc_link.py").symlink_to(root / "calc.py")
    (root / "pkg" / "deep_link").symlink_to(root / "pkg" / "deep")
    outside = tmp_path / "outside"
    outside.mkdir()
    (outside / "far.py").write_text("FAR = 1\n")
    (root / "far_link").symlink_to(outside)

    expected = oracles.walked_files(
        root, workspace.IGNORED_DIRS, workspace.IGNORED_SUFFIXES
    )
    assert "pkg/calc_link.py" in expected
    assert "pkg/.git" in expected
    assert tracked_files(calc_ws) == expected
    snap = take_snapshot(calc_ws, "base")
    assert list(snap.digest_map) == expected
    assert snap.digest_map["pkg/calc_link.py"] == snap.digest_map["calc.py"]


def test_broken_symlink_fails_the_scan(calc_ws):
    (calc_ws.root / "dangling.py").symlink_to(calc_ws.root / "no-such-file.py")
    with pytest.raises(IoFailure):
        take_snapshot(calc_ws, "base")


def test_symlink_out_of_the_clone_is_never_read(calc_ws, tmp_path):
    secret = tmp_path / "secret.txt"
    secret.write_text("SECRET=1\n")
    base = take_snapshot(calc_ws, "base")
    (calc_ws.root / "leak.py").symlink_to(secret)

    assert "leak.py" not in tracked_files(calc_ws)
    assert "leak.py" not in take_snapshot(calc_ws, "after").digest_map
    assert compute_diff(calc_ws, base).is_empty
    matches = match_files(calc_ws, make_query(["secret"]))
    assert "leak.py" not in [entry.path for entry in matches.entries]


def test_confined_path_rejects_escapes(calc_ws, escaping_path):
    path, _ = escaping_path
    with pytest.raises(PathEscape):
        confined_path(calc_ws, path)


def test_confined_path_allows_detours_that_stay_inside(calc_ws):
    (calc_ws.root / "pkg").mkdir()
    (calc_ws.root / "pkg" / "alias.py").symlink_to(calc_ws.root / "calc.py")
    inside = calc_ws.root.resolve() / "calc.py"
    assert confined_path(calc_ws, "calc.py") == inside
    assert confined_path(calc_ws, "pkg/../calc.py") == inside
    assert confined_path(calc_ws, "pkg/alias.py") == inside


def test_snapshot_restore_round_trip(calc_ws):
    before = oracles.tree_bytes(calc_ws.root)
    snap = take_snapshot(calc_ws, "base")

    (calc_ws.root / "calc.py").write_text("print('rewritten')\n")
    (calc_ws.root / "util.py").unlink()
    (calc_ws.root / "pkg").mkdir()
    (calc_ws.root / "pkg" / "fresh.py").write_text("VALUE = 3\n")

    restore_snapshot(calc_ws, snap)
    assert oracles.tree_bytes(calc_ws.root) == before
    assert compute_diff(calc_ws, snap).is_empty


def test_restore_removes_directories_created_after_the_snapshot(calc_ws):
    (calc_ws.root / "lib").mkdir()
    (calc_ws.root / "lib" / "keep.py").write_text("KEEP = 1\n")
    before = oracles.tree_bytes(calc_ws.root)
    snap = take_snapshot(calc_ws, "base")

    (calc_ws.root / "pkg" / "sub").mkdir(parents=True)
    (calc_ws.root / "pkg" / "__init__.py").write_text("")
    (calc_ws.root / "pkg" / "sub" / "m.py").write_text("M = 1\n")
    (calc_ws.root / "lib" / "extra").mkdir()
    (calc_ws.root / "lib" / "extra" / "new.py").write_text("NEW = 1\n")

    restore_snapshot(calc_ws, snap)
    assert oracles.tree_bytes(calc_ws.root) == before
    assert not (calc_ws.root / "pkg").exists()
    assert not (calc_ws.root / "lib" / "extra").exists()
    imported = subprocess.run(
        [sys.executable, "-c", "import pkg"], cwd=calc_ws.root, capture_output=True
    )
    assert imported.returncode != 0


def test_restore_turns_a_directory_back_into_a_file(calc_ws):
    before = oracles.tree_bytes(calc_ws.root)
    snap = take_snapshot(calc_ws, "base")
    (calc_ws.root / "util.py").unlink()
    (calc_ws.root / "util.py").mkdir()
    (calc_ws.root / "util.py" / "inner.py").write_text("INNER = 1\n")

    restore_snapshot(calc_ws, snap)
    assert oracles.tree_bytes(calc_ws.root) == before


def test_restore_rejects_foreign_snapshot(calc_repo, tmp_path):
    ws_a = open_workspace(str(calc_repo), "HEAD", "a", work_root=str(tmp_path))
    ws_b = open_workspace(str(calc_repo), "HEAD", "b", work_root=str(tmp_path))
    snap = take_snapshot(ws_a, "base")
    with pytest.raises(ForeignSnapshot):
        restore_snapshot(ws_b, snap)


def test_restore_leaves_reserved_test_dir_alone(calc_ws):
    snap = take_snapshot(calc_ws, "base")
    test_file = calc_ws.root / RESERVED_TEST_DIR / "test_keep.py"
    test_file.parent.mkdir()
    test_file.write_text("assert True\n")
    restore_snapshot(calc_ws, snap)
    assert test_file.read_text() == "assert True\n"


def test_diff_matches_external_oracle(calc_ws, tmp_path):
    pristine = tmp_path / "pristine"
    pristine.mkdir()
    for rel, data in oracles.tree_bytes(calc_ws.root).items():
        target = pristine / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(data)

    snap = take_snapshot(calc_ws, "base")
    calc_text = (calc_ws.root / "calc.py").read_text()
    (calc_ws.root / "calc.py").write_text(
        calc_text.replace("a + b + 1", "a + b")
    )
    (calc_ws.root / "util.py").unlink()
    (calc_ws.root / "extra.py").write_text("FLAG = True\n")

    diff = compute_diff(calc_ws, snap)
    reference = oracles.external_diff(pristine, calc_ws.root)
    assert diff.files_touched == oracles.external_files_touched(reference)
    assert diff.hunk_count == oracles.external_hunk_count(reference)
    assert "-    return a + b + 1" in diff.text
    assert "+    return a + b" in diff.text


def test_diff_round_trips_through_patch_utility(calc_ws, tmp_path):
    pristine = tmp_path / "pristine"
    pristine.mkdir()
    for rel, data in oracles.tree_bytes(calc_ws.root).items():
        target = pristine / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(data)

    snap = take_snapshot(calc_ws, "base")
    calc_text = (calc_ws.root / "calc.py").read_text()
    (calc_ws.root / "calc.py").write_text(
        calc_text.replace("a + b + 1", "a + b")
    )
    (calc_ws.root / "README.md").unlink()
    (calc_ws.root / "notes.txt").write_text("n1\nn2\n")

    diff = compute_diff(calc_ws, snap)
    patched = oracles.apply_patch(pristine, diff.text, tmp_path / "scratch")
    assert oracles.tree_bytes(patched) == oracles.tree_bytes(calc_ws.root)


def test_diff_marks_missing_trailing_newline(calc_ws, tmp_path):
    (calc_ws.root / "tail.txt").write_text("one\ntwo")
    snap = take_snapshot(calc_ws, "base")
    (calc_ws.root / "tail.txt").write_text("one\nthree")

    diff = compute_diff(calc_ws, snap)
    assert "\\ No newline at end of file" in diff.text

    pristine = tmp_path / "pristine"
    pristine.mkdir()
    (pristine / "tail.txt").write_text("one\ntwo")
    patched = oracles.apply_patch(pristine, diff.text, tmp_path / "scratch")
    assert (patched / "tail.txt").read_bytes() == b"one\nthree"


def test_diff_reports_creation_and_deletion_headers(calc_ws):
    snap = take_snapshot(calc_ws, "base")
    (calc_ws.root / "born.py").write_text("x = 1\n")
    (calc_ws.root / "util.py").unlink()
    diff = compute_diff(calc_ws, snap)
    assert "--- /dev/null\n+++ b/born.py" in diff.text
    assert "--- a/util.py\n+++ /dev/null" in diff.text
    assert diff.files_touched == 2


def test_diff_counts_come_from_hunk_headers(calc_ws):
    # Body lines that render like headers ("--- a", "+++ b", "+++ c"), a
    # no-newline marker inside a hunk, and headers without a line count.
    (calc_ws.root / "a.txt").write_text("-- a\n")
    (calc_ws.root / "b.txt").write_text("x")
    snap = take_snapshot(calc_ws, "base")
    (calc_ws.root / "a.txt").write_text("++ b\n")
    (calc_ws.root / "b.txt").write_text("y\n")
    (calc_ws.root / "c.txt").write_text("++ c\n")

    diff = compute_diff(calc_ws, snap)
    assert "@@ -1 +1 @@\n--- a\n+++ b\n" in diff.text
    assert "-x\n\\ No newline at end of file\n+y\n" in diff.text
    reloaded = DiffDocument(diff.text)
    assert (reloaded.files_touched, reloaded.hunk_count) == (3, 3)
    assert oracles.external_hunk_count(diff.text) == 3


def test_diff_ignores_reserved_test_dir(calc_ws):
    snap = take_snapshot(calc_ws, "base")
    test_file = calc_ws.root / RESERVED_TEST_DIR / "test_new.py"
    test_file.parent.mkdir()
    test_file.write_text("assert True\n")
    assert compute_diff(calc_ws, snap).is_empty


def _random_mutation(rng: random.Random, root, step: int) -> None:
    files = sorted(p for p in root.rglob("*.py") if p.is_file())
    move = rng.choice(("edit", "create", "delete", "append"))
    if move == "create" or not files:
        fresh = root / f"gen_{step}.py"
        fresh.write_text(f"VALUE_{step} = {rng.randrange(100)}\n")
    elif move == "delete":
        rng.choice(files).unlink()
    elif move == "append":
        target = rng.choice(files)
        with target.open("a") as handle:
            handle.write(f"TAIL_{step} = {rng.randrange(100)}\n")
    else:
        rng.choice(files).write_text(f"BODY_{step} = {rng.randrange(100)}\n")


def test_random_mutation_sequences_restore_exactly(calc_ws):
    rng = random.Random(20260816)
    for case in range(40):
        snap = take_snapshot(calc_ws, f"case-{case}")
        frozen = oracles.tree_bytes(calc_ws.root)
        for step in range(rng.randrange(1, 6)):
            _random_mutation(rng, calc_ws.root, case * 10 + step)
        restore_snapshot(calc_ws, snap)
        assert oracles.tree_bytes(calc_ws.root) == frozen
        assert compute_diff(calc_ws, snap).is_empty


# ---- the stat cache ----

def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _pack(ws):
    return ws.control_dir / "objects.pack"


def _control_files(ws) -> set:
    return {
        path for path in ws.control_dir.rglob("*")
        if path.is_file() and ws.root not in path.parents
    }


def test_base_snapshot_adds_one_object_file(calc_ws):
    before = _control_files(calc_ws)
    base = take_snapshot(calc_ws, "base")
    added = {_pack(calc_ws), calc_ws.control_dir / workspace._CLOCK_MARKER}
    assert _control_files(calc_ws) - before == added
    blobs = {
        digest: (calc_ws.root / rel).read_bytes()
        for rel, digest in base.digest_map.items()
    }
    packed = sum(len(data) for data in blobs.values())
    assert _pack(calc_ws).stat().st_size == packed

    (calc_ws.root / "util.py").write_text("NEXT = 2\n")
    take_snapshot(calc_ws, "next")
    assert _control_files(calc_ws) - before == added
    assert _pack(calc_ws).stat().st_size == packed + len("NEXT = 2\n")


def test_corrupt_pack_is_refused(calc_ws):
    snap = take_snapshot(calc_ws, "base")
    target = calc_ws.root / "util.py"
    target.write_text("CHANGED = True\n")
    offset, length = calc_ws._parked[snap.digest_map["util.py"]]
    packed = bytearray(_pack(calc_ws).read_bytes())
    packed[offset + length // 2] ^= 0x20
    _pack(calc_ws).write_bytes(bytes(packed))

    with pytest.raises(IoFailure):
        compute_diff(calc_ws, snap)
    with pytest.raises(IoFailure):
        restore_snapshot(calc_ws, snap)
    assert target.read_text() == "CHANGED = True\n"


class _LostPack(io.BytesIO):
    """A pack handle whose bytes never reach the disk: close fails."""

    name = "objects.pack"

    def close(self):
        super().close()
        raise OSError(errno.ENOSPC, "No space left on device")


def test_blobs_join_the_index_only_once_flushed(calc_ws, monkeypatch):
    def failing_open(path, mode="r", *args, **kwargs):
        if mode == "ab":
            return _LostPack()
        return open(path, mode, *args, **kwargs)

    monkeypatch.setattr(workspace, "open", failing_open, raising=False)
    with pytest.raises(IoFailure):
        take_snapshot(calc_ws, "lost")
    assert calc_ws._parked == {}

    monkeypatch.undo()
    frozen = oracles.tree_bytes(calc_ws.root)
    snap = take_snapshot(calc_ws, "kept")
    (calc_ws.root / "calc.py").write_text("gone\n")
    restore_snapshot(calc_ws, snap)
    assert oracles.tree_bytes(calc_ws.root) == frozen


def _let_clock_pass(ws) -> None:
    """Wait until the file system's clock is past every file's mtime and
    ctime, so the next scan may cache all of them."""
    newest = max(
        max(st.st_mtime_ns, st.st_ctime_ns)
        for st in (os.stat(ws.root / rel) for rel in tracked_files(ws))
    )
    probe = ws.control_dir / "clock-probe"
    deadline = time.monotonic() + 10
    while True:
        probe.touch()
        if os.stat(probe).st_mtime_ns > newest:
            return
        assert time.monotonic() < deadline, "file system clock did not advance"
        time.sleep(0.002)


def _record_reads(monkeypatch) -> list[tuple[str, tuple[int, int] | None]]:
    """Every read of a tree file or of a pack slice, as (path, span)."""
    reads: list[tuple[str, tuple[int, int] | None]] = []
    real = workspace._read_bytes

    def counting(path, span=None):
        reads.append((os.fspath(path), span))
        return real(path, span)

    monkeypatch.setattr(workspace, "_read_bytes", counting)
    return reads


def test_settled_tree_is_scanned_without_reading_bytes(calc_ws, monkeypatch):
    _let_clock_pass(calc_ws)
    first = take_snapshot(calc_ws, "first")
    reads = _record_reads(monkeypatch)
    second = take_snapshot(calc_ws, "second")
    assert compute_diff(calc_ws, first).is_empty
    restore_snapshot(calc_ws, first)
    assert reads == []
    assert second.digest_map == first.digest_map


def test_one_file_change_reads_only_that_file_and_its_blob(calc_ws, monkeypatch):
    _let_clock_pass(calc_ws)
    snap = take_snapshot(calc_ws, "base")
    (calc_ws.root / "util.py").write_text("CHANGED = True\n")
    reads = _record_reads(monkeypatch)
    diff = compute_diff(calc_ws, snap)
    assert diff.files_touched == 1
    assert "+CHANGED = True" in diff.text
    assert {path for path, span in reads if span is None} == {
        str(calc_ws.root / "util.py")
    }
    assert [(path, span) for path, span in reads if span is not None] == [
        (str(_pack(calc_ws)), calc_ws._parked[snap.digest_map["util.py"]])
    ]


def test_digest_learned_by_diff_is_parked_by_next_snapshot(calc_ws):
    base = take_snapshot(calc_ws, "base")
    target = calc_ws.root / "util.py"
    target.write_text("LEARNED = 1\n")
    learned = _sha(target.read_bytes())
    _let_clock_pass(calc_ws)
    assert compute_diff(calc_ws, base).files_touched == 1
    assert learned not in calc_ws._parked

    snap = take_snapshot(calc_ws, "after")
    assert snap.digest_map["util.py"] == learned
    offset, length = calc_ws._parked[learned]
    assert _pack(calc_ws).read_bytes()[offset:offset + length] == b"LEARNED = 1\n"

    frozen = oracles.tree_bytes(calc_ws.root)
    target.unlink()
    (calc_ws.root / "calc.py").write_text("gone\n")
    restore_snapshot(calc_ws, snap)
    assert oracles.tree_bytes(calc_ws.root) == frozen


def test_same_size_rewrite_with_restored_mtime_is_seen(calc_ws):
    target = calc_ws.root / "util.py"
    original = target.read_bytes()
    _let_clock_pass(calc_ws)
    snap = take_snapshot(calc_ws, "base")
    before = os.stat(target)

    target.write_bytes(original.swapcase())
    os.utime(target, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = os.stat(target)
    assert (after.st_size, after.st_mtime_ns, after.st_ino) == (
        before.st_size, before.st_mtime_ns, before.st_ino
    )

    assert compute_diff(calc_ws, snap).files_touched == 1
    assert take_snapshot(calc_ws, "rewritten").digest_map["util.py"] == _sha(
        original.swapcase()
    )
    restore_snapshot(calc_ws, snap)
    assert target.read_bytes() == original


def _whole_second_stat(real_stat):
    """``os.stat`` as seen on a file system that stamps whole seconds."""
    second = 10**9

    def stat(path, *args, **kwargs):
        st = real_stat(path, *args, **kwargs)
        fields = {name: getattr(st, name) for name in dir(st) if name.startswith("st_")}
        for kind in ("mtime", "ctime"):
            floored = fields[f"st_{kind}_ns"] // second * second
            fields[f"st_{kind}_ns"] = floored
            fields[f"st_{kind}"] = float(floored // second)
        return os.stat_result(tuple(st[:10]), fields)

    return stat


def test_same_size_rewrites_within_one_coarse_tick_are_seen(calc_ws, monkeypatch):
    monkeypatch.setattr(os, "stat", _whole_second_stat(os.stat))
    rng = random.Random(20261017)
    for case in range(45):
        rel = rng.choice(tracked_files(calc_ws))
        target = calc_ws.root / rel
        original = target.read_bytes()
        frozen = oracles.tree_bytes(calc_ws.root)
        snap = take_snapshot(calc_ws, f"case-{case}")
        assert compute_diff(calc_ws, snap).is_empty

        spot = rng.randrange(len(original))
        swapped = b"x" if original[spot] != ord("x") else b"y"
        rewritten = original[:spot] + swapped + original[spot + 1:]
        target.write_bytes(rewritten)

        operation = case % 3
        if operation == 0:
            assert take_snapshot(calc_ws, "seen").digest_map[rel] == _sha(rewritten)
        elif operation == 1:
            assert compute_diff(calc_ws, snap).files_touched == 1
        else:
            restore_snapshot(calc_ws, snap)
            assert target.read_bytes() == original
        restore_snapshot(calc_ws, snap)
        assert oracles.tree_bytes(calc_ws.root) == frozen
