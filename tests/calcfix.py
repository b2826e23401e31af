"""Shared fixture: a tiny calculator repo with a seeded off-by-one bug.

The module bundles everything the tests need to drive full repair runs
without a live model: the repo content, scripted agent replies for four
canonical scenarios (resolved, empty patch, unresolved, cannot
reproduce), the frozen event logs those scenarios must produce, and
helpers that record the scripted sessions into replay transcripts.

Scripted replies carry only a reproduction test's file name and source.
The harness runs it with the bare ``python3`` on PATH, so recorded
transcripts stay valid on any machine with an interpreter there.
``PYTHON`` names that interpreter for scripts that still send a
``command`` arg, which the harness ignores.
"""

from __future__ import annotations

import json
import subprocess
from dataclasses import replace
from pathlib import Path

from repeton.agentio import RecordingBackend
from repeton.bench import TaskInstance
from repeton.orchestrator import IrvConfig, RunReport, run_irv

TRANSCRIPT_DIR = Path(__file__).resolve().parent / "fixtures" / "transcripts"

PYTHON = "python3"

CALC_PY = '''"""Tiny calculator helpers."""


def add(a, b):
    return a + b + 1


def mul(a, b):
    return a * b
'''

UTIL_PY = """def identity(x):
    return x
"""

README_MD = "demo project\n"

DEFAULT_STATEMENT = (
    "add(2, 3) returns 6 instead of 5; the sum is always one too large."
)

BENCH_STATEMENTS = (
    DEFAULT_STATEMENT,
    "Addition is off by one: add(1, 1) gives 3.",
    "Every sum computed through add() is one larger than expected.",
    "Regression: calc.add returns n+1 for inputs summing to n.",
)

TEST_SOURCE = """import os
import sys

sys.path.insert(0, os.getcwd())
from calc import add

value = add(2, 3)
assert value == 5, f"add(2, 3) returned {value}"
print("ok")
"""

BROKEN_TEST_SOURCE = """import missing_module_xyz

missing_module_xyz.check()
"""

SUMMARY_REPLY = (
    "SUMMARY: add() returns one more than the true sum of its arguments.\n"
    "SIGNATURE: AssertionError"
)


def build_calc_repo(where: Path) -> Path:
    """Create the buggy calculator repo as a one-commit git repository."""
    repo = where / "calc-src"
    repo.mkdir(parents=True)
    (repo / "calc.py").write_text(CALC_PY)
    (repo / "util.py").write_text(UTIL_PY)
    (repo / "README.md").write_text(README_MD)

    def git(*args: str) -> None:
        subprocess.run(
            ["git", "-C", str(repo), *args], check=True, capture_output=True
        )

    git("init", "-q")
    git("config", "user.email", "dev@example.com")
    git("config", "user.name", "dev")
    git("add", ".")
    git("commit", "-qm", "baseline")
    return repo


def action(thought: str, name: str, **args: str) -> str:
    """Render one scripted reply in the fenced action format."""
    payload = {"thought": thought, "action": name, "args": args}
    return "```action\n" + json.dumps(payload) + "\n```"


def _propose_test(file_name: str, source: str) -> str:
    return action(
        "write a failing check for add",
        "propose_test",
        file_name=file_name,
        source=source,
    )


def _search_steps() -> list[str]:
    return [
        action("look for the adder", "set_keywords", keywords="add, calculator"),
        action("scan the tree", "search"),
        action("inspect the calculator module", "open_outline", path="calc.py"),
        action("read the add function", "view_region", target="add"),
    ]


def resolved_script() -> list[str]:
    return [
        SUMMARY_REPLY,
        _propose_test("test_add.py", TEST_SOURCE),
        *_search_steps(),
        action(
            "drop the stray +1",
            "edit_region",
            start="5",
            end="5",
            replacement="    return a + b",
        ),
        action("patch is in, hand over to validation", "done"),
    ]


def empty_patch_script() -> list[str]:
    return [
        SUMMARY_REPLY,
        _propose_test("test_add.py", TEST_SOURCE),
        *_search_steps(),
        action("nothing stands out, stop here", "done"),
    ]


def unresolved_script() -> list[str]:
    return [
        SUMMARY_REPLY,
        _propose_test("test_add.py", TEST_SOURCE),
        *_search_steps(),
        action(
            "adjust the constant",
            "edit_region",
            start="5",
            end="5",
            replacement="    return a + b + 2",
        ),
        action("patch is in", "done"),
    ]


def cannot_reproduce_script() -> list[str]:
    rows = [SUMMARY_REPLY]
    for version in (1, 2, 3):
        rows.append(_propose_test(f"test_v{version}.py", BROKEN_TEST_SOURCE))
    return rows


SCRIPTS = {
    "resolved": resolved_script,
    "empty_patch": empty_patch_script,
    "unresolved": unresolved_script,
    "cannot_reproduce": cannot_reproduce_script,
}

SCENARIO_OVERRIDES = {
    "resolved": {},
    "empty_patch": {"max_irv_iterations": 1},
    "unresolved": {"max_irv_iterations": 1},
    "cannot_reproduce": {},
}

GOLDEN_OUTCOMES = {
    "resolved": "Resolved",
    "empty_patch": "EmptyPatch",
    "unresolved": "Unresolved",
    "cannot_reproduce": "CannotReproduce",
}

GOLDEN_EVENTS = {
    "resolved": [
        "workspace-opened",
        "summary-pinned",
        "reproduction-certified",
        "iteration-1",
        "edit-applied",
        "verdict:Pass",
        "resolved",
    ],
    "empty_patch": [
        "workspace-opened",
        "summary-pinned",
        "reproduction-certified",
        "iteration-1",
        "verdict:FailBugPresent",
        "budget-exhausted:iterations",
        "empty-patch",
    ],
    "unresolved": [
        "workspace-opened",
        "summary-pinned",
        "reproduction-certified",
        "iteration-1",
        "edit-applied",
        "verdict:FailBugPresent",
        "budget-exhausted:iterations",
        "unresolved:last-patch-accepted",
    ],
    "cannot_reproduce": [
        "workspace-opened",
        "summary-pinned",
        "reproduction-attempt-1:failed",
        "reproduction-attempt-2:failed",
        "reproduction-attempt-3:failed",
        "cannot-reproduce",
    ],
}


class ScriptedSession:
    """Session double that replays a fixed list of assistant turns."""

    def __init__(self, responses: list[str]) -> None:
        self._responses = responses
        self._cursor = 0

    def complete(self, messages, params) -> str:
        if self._cursor >= len(self._responses):
            raise AssertionError(
                f"scripted session exhausted after {self._cursor} replies"
            )
        reply = self._responses[self._cursor]
        self._cursor += 1
        return reply


class ScriptedBackend:
    """Backend double; every session restarts the script from the top."""

    def __init__(self, responses: list[str]) -> None:
        self.responses = list(responses)

    def session(self) -> ScriptedSession:
        return ScriptedSession(self.responses)


def make_task(
    instance_id: str, repo: Path, statement: str = DEFAULT_STATEMENT
) -> TaskInstance:
    return TaskInstance(
        instance_id=instance_id,
        repo_location=str(repo),
        base_revision="HEAD",
        problem_statement=statement,
    )


def scenario_config(name: str, work_root: Path) -> IrvConfig:
    return replace(
        IrvConfig(work_root=str(work_root)), **SCENARIO_OVERRIDES[name]
    )


def run_scenario(
    name: str, repo: Path, work_root: Path, backend=None
) -> RunReport:
    """Run one scenario against a scripted backend (or a supplied one)."""
    if backend is None:
        backend = ScriptedBackend(SCRIPTS[name]())
    config = scenario_config(name, work_root)
    return run_irv(make_task(f"calc-{name}", repo), config, backend)


def record_scenario(
    name: str, repo: Path, transcript: Path, work_root: Path
) -> RunReport:
    """Record one scripted scenario into a replay transcript."""
    backend = RecordingBackend(ScriptedBackend(SCRIPTS[name]()), transcript)
    return run_scenario(name, repo, work_root, backend)


def record_bench_transcript(
    repo: Path, transcript: Path, work_root: Path
) -> list[RunReport]:
    """Record four resolved runs with distinct statements into one file."""
    reports = []
    for index, statement in enumerate(BENCH_STATEMENTS, start=1):
        backend = RecordingBackend(
            ScriptedBackend(resolved_script()), transcript
        )
        task = make_task(f"calc-{index}", repo, statement)
        config = IrvConfig(work_root=str(work_root / f"rec-{index}"))
        reports.append(run_irv(task, config, backend))
    return reports
