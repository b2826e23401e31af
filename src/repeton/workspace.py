"""Isolated working copies with byte-exact snapshot and diff support.

A workspace is a private clone of the target repository checked out at
the base revision. Snapshots record a SHA-256 digest per file and park
the bytes of each new digest in one append-only pack next to the clone
(``<control_dir>/objects.pack``, after git's packfiles), so any earlier
tree state can be restored exactly. An in-memory index maps each digest
to its offset and length in the pack; an entry joins it only once its
bytes are flushed. Every read from the pack is hashed again and checked
against its digest, so restore and diff never emit bytes a snapshot did
not record. Git is shelled out to for clone and checkout only;
snapshots, restores and diffs never touch it.

Snapshot, diff and restore share one scan of the tree: a single
``scandir`` walk that stats every file as it lists it, and reads and
hashes only those whose ``(size, mtime_ns, ino, ctime_ns)`` key misses
the workspace's in-memory stat cache. A digest enters the cache only
when the file's mtime and ctime are strictly older than a reference
time read from the file system's own clock at the start of the scan;
this is git's racy-clean rule. A file written in the same timestamp
tick as its scan could change again without changing its key, so it is
read again on the next scan.
"""

from __future__ import annotations

import difflib
import hashlib
import logging
import os
import re
import subprocess
import tempfile
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath

from .errors import (
    DirtyTarget,
    ForeignSnapshot,
    IoFailure,
    LocationUnavailable,
    PathEscape,
    RevisionNotFound,
)

logger = logging.getLogger(__name__)

# Directory reserved for harness-authored reproduction tests. It is
# invisible to snapshots and diffs so patches never contain test files
# and rollbacks never revert them.
RESERVED_TEST_DIR = ".repeton_tests"

WORK_DIR_ENV = "REPETON_WORK_DIR"

IGNORED_DIRS = frozenset({"__pycache__", ".git", RESERVED_TEST_DIR})
IGNORED_SUFFIXES = (".pyc",)

_DIFF_CONTEXT = 3
_NO_NEWLINE_MARKER = "\n\\ No newline at end of file\n"
_HUNK_HEADER = re.compile(r"@@ -\d+(?:,(\d+))? \+\d+(?:,(\d+))? @@")

# Touched at the start of every scan, in the control dir; its mtime is
# the scan's reference time on the file system's clock.
_CLOCK_MARKER = "scan-clock"
_PACK_FILE = "objects.pack"

_StatKey = tuple[int, int, int, int]


@dataclass
class Workspace:
    """Handle to one isolated working copy."""

    instance_id: str
    root: Path
    control_dir: Path
    _snapshot_serial: int = field(default=0, repr=False)
    # path -> (stat key, digest) for files settled before the last scan.
    _stat_cache: dict[str, tuple[_StatKey, str]] = field(
        default_factory=dict, repr=False, compare=False
    )
    # digest -> (offset, length) of its bytes in the pack.
    _parked: dict[str, tuple[int, int]] = field(
        default_factory=dict, repr=False, compare=False
    )


@dataclass(frozen=True)
class Snapshot:
    """Digest map of one tree state, restorable byte for byte."""

    snapshot_id: str
    instance_id: str
    taken_at_stage: str
    digest_map: dict[str, str]


@dataclass(frozen=True)
class DiffDocument:
    """Unified diff between two tree states; its counts come from the text."""

    text: str

    @property
    def is_empty(self) -> bool:
        return self.text == ""

    @property
    def files_touched(self) -> int:
        return _diff_counts(self.text)[0]

    @property
    def hunk_count(self) -> int:
        return _diff_counts(self.text)[1]


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


def _walk(ws: Workspace) -> list[tuple[str, _StatKey]]:
    """``(relative POSIX path, stat key)`` of every file a snapshot
    covers, sorted by path.

    Lists the same paths as ``os.walk``, minus file symlinks whose
    target resolves outside ``ws.root``: those are skipped, so no scan
    or search reads bytes from outside the clone. Symlinked directories
    are neither entered nor listed as files, a symlinked file that stays
    inside is stat'ed through its link, and a directory that cannot be
    listed is skipped. Only links pay for a ``realpath``. Stats go
    through ``os.stat`` by path, never ``DirEntry.stat``. Only the key
    is kept: a whole ``stat_result`` per file is three times its size.
    """
    found: list[tuple[str, _StatKey]] = []
    pending = [(str(ws.root), "")]
    while pending:
        directory, prefix = pending.pop()
        try:
            with os.scandir(directory) as listing:
                entries = list(listing)
        except OSError:
            continue
        for entry in entries:
            try:
                is_dir = entry.is_dir()
            except OSError:
                is_dir = False
            if is_dir:
                if entry.name not in IGNORED_DIRS and not entry.is_symlink():
                    pending.append((entry.path, f"{prefix}{entry.name}/"))
            elif not entry.name.endswith(IGNORED_SUFFIXES):
                if entry.is_symlink() and not _within(ws, os.path.realpath(entry.path)):
                    continue
                try:
                    st = os.stat(entry.path)
                except OSError as exc:
                    raise IoFailure(f"cannot stat {entry.path}: {exc}") from exc
                found.append((
                    prefix + entry.name,
                    (st.st_size, st.st_mtime_ns, st.st_ino, st.st_ctime_ns),
                ))
    found.sort(key=lambda pair: pair[0])
    return found


def tracked_files(ws: Workspace) -> list[str]:
    """Relative POSIX paths of every file a snapshot covers, sorted.

    Covers tracked files and anything created since checkout, minus the
    ignore lists and the reserved test directory.
    """
    return [rel for rel, _ in _walk(ws)]


def confined_path(ws: Workspace, rel: str) -> Path:
    """Where ``rel`` leads inside the clone, with every symlink resolved.

    Raises ``PathEscape`` for an absolute path, and for one that leads
    out of ``ws.root`` through ``..`` or a symlink, so nothing outside
    the clone is read or written through an agent-supplied path.
    """
    full = os.path.realpath(os.path.join(ws.root, rel))
    if os.path.isabs(rel) or not _within(ws, full):
        raise PathEscape(f"{rel!r} leads outside the workspace")
    return Path(full)


def _within(ws: Workspace, real: str) -> bool:
    """Whether the resolved path ``real`` lies inside the clone."""
    root = os.path.realpath(ws.root)
    return os.path.commonpath([root, real]) == root


def _read_bytes(path: str | Path, span: tuple[int, int] | None = None) -> bytes:
    """The whole file, or ``length`` bytes from ``offset`` for a ``span``."""
    try:
        with open(path, "rb") as handle:
            if span is None:
                return handle.read()
            offset, length = span
            handle.seek(offset)
            return handle.read(length)
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
    every digest's bytes also end up in the pack, so a file whose digest
    only a diff has seen is read once more and parked.
    """
    reference = _fs_clock(ws)
    root = str(ws.root)
    cache: dict[str, tuple[_StatKey, str]] = {}
    digests: dict[str, str] = {}
    appended: dict[str, tuple[int, int]] = {}
    pack = None
    try:
        for rel, key in _walk(ws):
            hit = ws._stat_cache.get(rel)
            if hit is not None and hit[0] == key and (not park or hit[1] in ws._parked):
                cache[rel] = hit
                digests[rel] = hit[1]
                continue
            data = _read_bytes(os.path.join(root, rel))
            digest = hashlib.sha256(data).hexdigest()
            if park and digest not in ws._parked and digest not in appended:
                try:
                    if pack is None:
                        pack = open(ws.control_dir / _PACK_FILE, "ab")
                    appended[digest] = (pack.tell(), len(data))
                    pack.write(data)
                except OSError as exc:
                    raise IoFailure(f"cannot store blob for {rel}: {exc}") from exc
            digests[rel] = digest
            if key[1] < reference and key[3] < reference:  # mtime, ctime
                cache[rel] = (key, digest)
    finally:
        if pack is not None:
            try:
                pack.close()
            except OSError as exc:
                raise IoFailure(f"cannot flush {pack.name}: {exc}") from exc
    ws._parked.update(appended)
    ws._stat_cache = cache
    return digests


def take_snapshot(ws: Workspace, stage_label: str = "") -> Snapshot:
    """Record the current tree and park its bytes for later restore."""
    digest_map = _scan(ws, park=True)
    ws._snapshot_serial += 1
    return Snapshot(
        snapshot_id=f"snap-{ws._snapshot_serial:04d}",
        instance_id=ws.instance_id,
        taken_at_stage=stage_label,
        digest_map=digest_map,
    )


def _blob_bytes(ws: Workspace, digest: str) -> bytes:
    """The parked bytes of ``digest``, checked against the digest."""
    span = ws._parked.get(digest)
    if span is None:
        raise IoFailure(f"no parked blob for {digest}")
    data = _read_bytes(ws.control_dir / _PACK_FILE, span)
    if hashlib.sha256(data).hexdigest() != digest:
        raise IoFailure(f"parked blob for {digest} is corrupt")
    return data


def _check_owner(ws: Workspace, snap: Snapshot) -> None:
    if snap.instance_id != ws.instance_id:
        raise ForeignSnapshot(
            f"snapshot {snap.snapshot_id} belongs to {snap.instance_id!r}"
        )


def restore_snapshot(ws: Workspace, snap: Snapshot) -> None:
    """Return the tree to ``snap``, byte for byte.

    Files missing from the snapshot are deleted, and so are directories
    that this leaves empty, up to the tree root; a directory a snapshot
    file lives in is made again when that file is written. Changed or
    deleted files are rewritten from the pack, never through a link.
    """
    _check_owner(ws, snap)
    current = _scan(ws, park=False)
    try:
        for rel in current:
            if rel not in snap.digest_map:
                (ws.root / rel).unlink()
                ws._stat_cache.pop(rel, None)
                _prune_empty_parents(ws, rel)
        for rel, digest in snap.digest_map.items():
            if current.get(rel) == digest:
                continue
            _clear_way(ws, rel).write_bytes(_blob_bytes(ws, digest))
            ws._stat_cache.pop(rel, None)
    except OSError as exc:
        raise IoFailure(f"restore of {snap.snapshot_id} failed: {exc}") from exc


def _clear_way(ws: Workspace, rel: str) -> Path:
    """``ws.root / rel`` once every parent is a real directory and no link
    sits at the path: a link or file in the way is unlinked."""
    *parents, name = rel.split("/")
    path = ws.root
    for part in parents:
        path = path / part
        if path.is_symlink() or path.is_file():
            path.unlink()
        path.mkdir(exist_ok=True)
    path = path / name
    if path.is_symlink():
        path.unlink()
    return path


def _prune_empty_parents(ws: Workspace, rel: str) -> None:
    parent = (ws.root / rel).parent
    while parent != ws.root:
        try:
            parent.rmdir()
        except OSError:
            return
        parent = parent.parent


def _diff_counts(text: str) -> tuple[int, int]:
    """``(files, hunks)`` of a unified diff.

    Each hunk body is skipped by the line counts in its ``@@ -a,b +c,d
    @@`` header, where a missing count means 1, so a removed ``-- x`` or
    an added ``++ x``, which render as ``--- x`` and ``+++ x``, is never
    taken for a file header.
    """
    files = hunks = 0
    old = new = 0
    for line in text.splitlines():
        if old > 0 or new > 0:
            tag = line[:1]
            if tag in (" ", "-"):
                old -= 1
            if tag in (" ", "+"):
                new -= 1
        elif line.startswith("--- "):
            files += 1
        elif header := _HUNK_HEADER.match(line):
            hunks += 1
            old, new = (int(n) if n is not None else 1 for n in header.groups())
    return files, hunks


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
    return DiffDocument("".join(_mark_missing_newlines(lines)))


def compute_diff(ws: Workspace, snap: Snapshot) -> DiffDocument:
    """Unified diff from ``snap`` to the current tree.

    Paths carry ``a/``/``b/`` prefixes with three context lines, so the
    text applies with a standard patch utility run at the tree root.
    Only paths whose digests differ are read.
    """
    _check_owner(ws, snap)
    current = _scan(ws, park=False)
    old = snap.digest_map
    return DiffDocument("".join(
        file_diff(
            rel,
            _blob_bytes(ws, old[rel]) if rel in old else None,
            _read_bytes(ws.root / rel) if rel in current else None,
        ).text
        for rel in sorted(current.keys() | old.keys())
        if old.get(rel) != current.get(rel)
    ))
