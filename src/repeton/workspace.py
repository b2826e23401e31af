"""Isolated working copies with byte-exact snapshot and diff support.

A workspace is a private clone of the target repository checked out at
the base revision. Snapshots record a digest per file and park the file
bytes in a content-addressed store next to the clone, so any earlier
tree state can be restored exactly. Git is shelled out to for clone and
checkout only; snapshots, restores and diffs never touch it.

Snapshot, diff and restore share one scan of the tree. It stats every
file and reads and hashes only those whose ``(size, mtime_ns, ino,
ctime_ns)`` key misses the workspace's in-memory stat cache. A digest
enters the cache only when the file's mtime and ctime are strictly
older than a reference time read from the file system's own clock at
the start of the scan; this is git's racy-clean rule. A file written in
the same timestamp tick as its scan could change again without changing
its key, so it is read again on the next scan.
"""

from __future__ import annotations

import difflib
import hashlib
import logging
import os
import subprocess
import tempfile
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath

from .errors import (
    DirtyTarget,
    ForeignSnapshot,
    IoFailure,
    LocationUnavailable,
    RevisionNotFound,
)

logger = logging.getLogger(__name__)

# Directory reserved for harness-authored reproduction tests. It is
# invisible to snapshots and diffs so patches never contain test files
# and rollbacks never revert them.
RESERVED_TEST_DIR = ".repeton_tests"

WORK_DIR_ENV = "REPETON_WORK_DIR"

DEFAULT_IGNORED_DIRS = frozenset({"__pycache__", ".git", RESERVED_TEST_DIR})
DEFAULT_IGNORED_SUFFIXES = frozenset({".pyc"})

_DIFF_CONTEXT = 3
_NO_NEWLINE_MARKER = "\n\\ No newline at end of file\n"

# Touched at the start of every scan, in the control dir; its mtime is
# the scan's reference time on the file system's clock.
_CLOCK_MARKER = "scan-clock"

_StatKey = tuple[int, int, int, int]


@dataclass
class Workspace:
    """Handle to one isolated working copy."""

    instance_id: str
    root: Path
    control_dir: Path
    ignored_dirs: frozenset[str] = DEFAULT_IGNORED_DIRS
    ignored_suffixes: frozenset[str] = DEFAULT_IGNORED_SUFFIXES
    _snapshot_serial: int = field(default=0, repr=False)
    # path -> (stat key, digest) for files settled before the last scan.
    _stat_cache: dict[str, tuple[_StatKey, str]] = field(
        default_factory=dict, repr=False, compare=False
    )
    # Digests whose bytes are in the object store.
    _parked: set[str] = field(default_factory=set, repr=False, compare=False)

    @property
    def objects_dir(self) -> Path:
        return self.control_dir / "objects"


@dataclass(frozen=True)
class Snapshot:
    """Digest map of one tree state, restorable byte for byte."""

    snapshot_id: str
    instance_id: str
    taken_at_stage: str
    digest_map: dict[str, str]


@dataclass(frozen=True)
class DiffDocument:
    """Unified diff between two tree states."""

    text: str
    files_touched: int
    hunk_count: int

    @property
    def is_empty(self) -> bool:
        return self.text == ""


def _run_git(args: list[str], cwd: Path | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        ["git", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
    )


def _looks_remote(location: str) -> bool:
    return "://" in location or location.startswith("git@")


def open_workspace(
    repo_location: str,
    base_revision: str,
    instance_id: str,
    work_root: str | os.PathLike | None = None,
) -> Workspace:
    """Clone ``repo_location`` at ``base_revision`` into an isolation dir.

    The working copy lands in ``<work_root>/<instance_id>/repo``. The
    work root falls back to ``REPETON_WORK_DIR`` and then to a fresh
    temporary directory.
    """
    if work_root is None:
        work_root = os.environ.get(WORK_DIR_ENV) or tempfile.mkdtemp(prefix="repeton-")
    control_dir = Path(work_root) / instance_id
    repo_dir = control_dir / "repo"

    if repo_dir.exists() and any(repo_dir.iterdir()):
        raise DirtyTarget(f"isolation dir already occupied: {repo_dir}")
    if not _looks_remote(repo_location) and not Path(repo_location).exists():
        raise LocationUnavailable(f"no repository at {repo_location}")

    try:
        control_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create {control_dir}: {exc}") from exc

    cloned = _run_git(["clone", "--quiet", str(repo_location), str(repo_dir)])
    if cloned.returncode != 0:
        raise LocationUnavailable(
            f"clone of {repo_location} failed: {cloned.stderr.strip()}"
        )
    checked_out = _run_git(["checkout", "--quiet", base_revision], cwd=repo_dir)
    if checked_out.returncode != 0:
        raise RevisionNotFound(
            f"revision {base_revision!r} not found: {checked_out.stderr.strip()}"
        )

    logger.info("workspace %s ready at %s", instance_id, repo_dir)
    return Workspace(instance_id=instance_id, root=repo_dir, control_dir=control_dir)


def tracked_files(ws: Workspace) -> list[str]:
    """Relative POSIX paths of every file a snapshot covers, sorted.

    Covers tracked files and anything created since checkout, minus the
    ignore lists and the reserved test directory.
    """
    found: list[str] = []
    for dirpath, dirnames, filenames in os.walk(ws.root):
        dirnames[:] = sorted(d for d in dirnames if d not in ws.ignored_dirs)
        rel_dir = Path(dirpath).relative_to(ws.root)
        for name in sorted(filenames):
            if any(name.endswith(suffix) for suffix in ws.ignored_suffixes):
                continue
            found.append((rel_dir / name).as_posix())
    return sorted(found)


def _read_bytes(path: str | Path) -> bytes:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc


def _fs_clock(ws: Workspace) -> int:
    """Now, in nanoseconds, on the clock that stamps the tree's files."""
    marker = ws.control_dir / _CLOCK_MARKER
    try:
        marker.touch()
        return os.stat(marker).st_mtime_ns
    except OSError as exc:
        raise IoFailure(f"cannot touch {marker}: {exc}") from exc


def _scan(ws: Workspace, park: bool) -> dict[str, str]:
    """Digest of every file a snapshot covers, keyed by relative path.

    Reads only the files whose stat key misses the cache. With ``park``
    every digest's bytes also end up in the object store, so a file
    whose digest only a diff has seen is read once more and parked.
    """
    reference = _fs_clock(ws)
    root = str(ws.root)
    cache: dict[str, tuple[_StatKey, str]] = {}
    digests: dict[str, str] = {}
    for rel in tracked_files(ws):
        path = os.path.join(root, rel)
        try:
            st = os.stat(path)
        except OSError as exc:
            raise IoFailure(f"cannot stat {path}: {exc}") from exc
        key = (st.st_size, st.st_mtime_ns, st.st_ino, st.st_ctime_ns)
        hit = ws._stat_cache.get(rel)
        if hit is not None and hit[0] == key and (not park or hit[1] in ws._parked):
            cache[rel] = hit
            digests[rel] = hit[1]
            continue
        data = _read_bytes(path)
        digest = hashlib.sha256(data).hexdigest()
        if park and digest not in ws._parked:
            blob = ws.objects_dir / digest
            if not blob.exists():
                try:
                    blob.write_bytes(data)
                except OSError as exc:
                    raise IoFailure(f"cannot store blob for {rel}: {exc}") from exc
            ws._parked.add(digest)
        digests[rel] = digest
        if st.st_mtime_ns < reference and st.st_ctime_ns < reference:
            cache[rel] = (key, digest)
    ws._stat_cache = cache
    return digests


def take_snapshot(ws: Workspace, stage_label: str = "") -> Snapshot:
    """Record the current tree and park its bytes for later restore."""
    try:
        ws.objects_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create object store: {exc}") from exc
    digest_map = _scan(ws, park=True)
    ws._snapshot_serial += 1
    return Snapshot(
        snapshot_id=f"snap-{ws._snapshot_serial:04d}",
        instance_id=ws.instance_id,
        taken_at_stage=stage_label,
        digest_map=digest_map,
    )


def _blob_bytes(ws: Workspace, digest: str) -> bytes:
    return _read_bytes(ws.objects_dir / digest)


def _check_owner(ws: Workspace, snap: Snapshot) -> None:
    if snap.instance_id != ws.instance_id:
        raise ForeignSnapshot(
            f"snapshot {snap.snapshot_id} belongs to {snap.instance_id!r}"
        )


def restore_snapshot(ws: Workspace, snap: Snapshot) -> None:
    """Return the tree to ``snap``, byte for byte.

    Files missing from the snapshot are deleted; changed or deleted
    files are rewritten from the object store.
    """
    _check_owner(ws, snap)
    current = _scan(ws, park=False)
    try:
        for rel in current:
            if rel not in snap.digest_map:
                (ws.root / rel).unlink()
                ws._stat_cache.pop(rel, None)
        for rel, digest in snap.digest_map.items():
            if current.get(rel) == digest:
                continue
            target = ws.root / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(_blob_bytes(ws, digest))
            ws._stat_cache.pop(rel, None)
    except OSError as exc:
        raise IoFailure(f"restore of {snap.snapshot_id} failed: {exc}") from exc


def _split_lines(data: bytes) -> list[str]:
    return data.decode("utf-8", errors="surrogateescape").splitlines(keepends=True)


def _mark_missing_newlines(lines: list[str]) -> list[str]:
    # difflib passes content lines through verbatim, so a file without a
    # trailing newline yields one diff line that does not end in "\n".
    # GNU diff marks that case explicitly; patch needs the marker to
    # reproduce the byte-exact tree.
    out = []
    for line in lines:
        if line.endswith("\n"):
            out.append(line)
        else:
            out.append(line + _NO_NEWLINE_MARKER)
    return out


def file_diff(rel: str, old: bytes | None, new: bytes | None) -> DiffDocument:
    """Unified diff of one file; ``None`` marks a side where it is absent.

    ``rel`` is the path relative to the tree root. Paths are normalised
    the way ``tracked_files`` spells them.
    """
    rel = PurePosixPath(rel).as_posix()
    lines = list(
        difflib.unified_diff(
            _split_lines(old or b""),
            _split_lines(new or b""),
            fromfile="/dev/null" if old is None else f"a/{rel}",
            tofile="/dev/null" if new is None else f"b/{rel}",
            n=_DIFF_CONTEXT,
        )
    )
    return DiffDocument(
        text="".join(_mark_missing_newlines(lines)),
        files_touched=1 if lines else 0,
        hunk_count=sum(1 for line in lines if line.startswith("@@ ")),
    )


def compute_diff(ws: Workspace, snap: Snapshot) -> DiffDocument:
    """Unified diff from ``snap`` to the current tree.

    Paths carry ``a/``/``b/`` prefixes with three context lines, so the
    text applies with a standard patch utility run at the tree root.
    Only paths whose digests differ are read.
    """
    _check_owner(ws, snap)
    current = _scan(ws, park=False)
    old = snap.digest_map
    pieces: list[str] = []
    files_touched = 0
    hunk_count = 0
    for rel in sorted(current.keys() | old.keys()):
        if old.get(rel) == current.get(rel):
            continue
        one = file_diff(
            rel,
            _blob_bytes(ws, old[rel]) if rel in old else None,
            _read_bytes(ws.root / rel) if rel in current else None,
        )
        pieces.append(one.text)
        files_touched += one.files_touched
        hunk_count += one.hunk_count

    return DiffDocument(
        text="".join(pieces),
        files_touched=files_touched,
        hunk_count=hunk_count,
    )
