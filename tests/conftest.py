"""Shared fixtures: the calc repo, open workspaces, and backend doubles."""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

import calcfix
from repeton.errors import HttpFailure
from repeton.workspace import open_workspace


@pytest.fixture(scope="session")
def calc_repo(tmp_path_factory):
    """One buggy calculator git repo shared by the whole session.

    Runs clone it into their own work roots, so sharing is safe.
    """
    return calcfix.build_calc_repo(tmp_path_factory.mktemp("calc"))


@pytest.fixture
def calc_ws(calc_repo, tmp_path):
    """A fresh workspace holding a clone of the calc repo."""
    return open_workspace(
        str(calc_repo), "HEAD", "calc", work_root=str(tmp_path / "work")
    )


@pytest.fixture
def work_root(tmp_path):
    return tmp_path / "work"


@pytest.fixture(params=["dotdot", "absolute", "symlink"])
def escaping_path(request, calc_ws, tmp_path):
    """A path that names a file outside ``calc_ws``, and that file.

    The path climbs out with ``..``, is absolute, or is a symlink in the
    tree that points outside it.
    """
    victim = tmp_path / "outside" / "victim.py"
    victim.parent.mkdir()
    victim.write_text("def victim():\n    return 1\n")
    if request.param == "dotdot":
        return os.path.relpath(victim, calc_ws.root), victim
    if request.param == "absolute":
        return str(victim), victim
    (calc_ws.root / "link.py").symlink_to(victim)
    return "link.py", victim


class UnreachableBackend:
    """A backend whose endpoint cannot even open a session."""

    def session(self):
        raise HttpFailure("scripted: endpoint unreachable")


@pytest.fixture
def unreachable_backend():
    return UnreachableBackend()


def _running(pid: int) -> bool:
    """Whether ``pid`` still runs; a zombie awaiting its reaper does not."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.fixture
def gone():
    """``gone(pid)``: whether ``pid`` stops running within two seconds,
    the time a SIGKILL already sent needs to take effect."""
    def check(pid: int) -> bool:
        deadline = time.monotonic() + 2.0
        while _running(pid):
            if time.monotonic() > deadline:
                return False
            time.sleep(0.02)
        return True
    return check
