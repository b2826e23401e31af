"""Reproduction test materialization, execution and classification.

This module alone writes the reserved ``.repeton_tests/`` directory,
which snapshots and diffs never see, so a patch can never smuggle its
own test along. ``run_test`` re-creates it right before each run to
hold only the test being run, then runs ``python3 .repeton_tests/<name>``
at the workspace root: the model writes a test, never its command. What
an earlier run left there, a link planted in its place or a test that
rewrote itself never reaches the next run. ``run_command`` runs tests
and bench validation commands alike: in their own session, with
``REPETON=1`` exported and only an allow-listed part of the harness
environment, and output to unlinked temporary files of which only the
tail is read back. It waits on the child, not on its output, and kills
the child's whole process group once the child exits or its time runs
out, so nothing left in that group outlives the run. A descendant that
starts its own session escapes that kill; output on disk is bounded
only by the timeout.

Classification (``classify_result``) is rule-ordered and deterministic.
An import error condemns the test only when it ends the run in the test
file, not when the test catches it and raises its own failure.
A model judge serves certification alone: ``certify_failure`` asks it
about a run the rules leave Inconclusive and maps its labels, which may
confirm the bug or condemn the test but never pass it. Whatever the
judge raises reaches the caller unchanged. A test is certified once per
run, on the untouched base tree, and is never replaced after, so a
failing validation can only come from the patched tree: the suggestions
that travel with a verdict speak to the patch, not to the test.
"""

from __future__ import annotations

import os
import re
import shutil
import signal
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass
from enum import Enum
from typing import BinaryIO, Callable, Sequence

from .errors import IoFailure, SpawnFailure
from .workspace import RESERVED_TEST_DIR, Workspace, check_plain_name

RUN_ENV_FLAG = "REPETON"
# What agent-written code may inherit from the harness environment. The
# rest, API keys included, stays out of its reach.
_INHERITED_ENV = ("PATH", "HOME", "TMPDIR", "LANG", "LANGUAGE")
DEFAULT_TIMEOUT_S = 120.0
OUTPUT_CAP_BYTES = 8 * 1024
EXCERPT_CAP_CHARS = 4 * 1024
CERTIFICATION_RUNS = 2
# The interpreter every reproduction test runs under, found on PATH.
TEST_INTERPRETER = "python3"

# A marker only counts as the type of the exception that ended the run,
# raised with the test file as the innermost frame: a broken import in
# the repository's own code may be the bug, caught or not by the test.
INVALID_MARKERS = ("ImportError", "ModuleNotFoundError", "SyntaxError")
_FRAME_FILE = re.compile(r'^\s*File "([^"]*)"', re.MULTILINE)


class TestVerdict(Enum):
    Pass = "Pass"
    FailBugPresent = "FailBugPresent"
    FailInvalidTest = "FailInvalidTest"
    Inconclusive = "Inconclusive"


@dataclass(frozen=True)
class TestArtifact:
    """One reproduction test."""

    name: str
    source_text: str
    expected_signature: str = ""

    def __post_init__(self) -> None:
        # The file sits directly in the reserved directory: one plain name.
        check_plain_name(self.name, "test name")


@dataclass(frozen=True)
class ExecutionResult:
    exit_code: int
    stdout_tail: str
    stderr_tail: str
    duration_s: float
    timed_out: bool


@dataclass(frozen=True)
class DiagnosticReport:
    log_excerpt: str
    suggestion: str


def _place_test(ws: Workspace, artifact: TestArtifact) -> None:
    """Re-create the reserved directory holding only ``artifact``'s file.

    Whatever sits at the directory's path is removed first, a link or a
    file unlinked and a directory deleted with all it holds, so nothing
    is read or written through a link."""
    reserved = ws.root / RESERVED_TEST_DIR
    try:
        if reserved.is_dir() and not reserved.is_symlink():
            shutil.rmtree(reserved)
        else:
            reserved.unlink(missing_ok=True)
        reserved.mkdir()
        (reserved / artifact.name).write_text(artifact.source_text, encoding="utf-8")
    except OSError as exc:
        raise IoFailure(f"cannot place test {artifact.name}: {exc}") from exc


def scrubbed_env() -> dict[str, str]:
    """Environment for agent-written code: the allow-list, locale, the flag."""
    env = {
        name: value
        for name, value in os.environ.items()
        if name in _INHERITED_ENV or name.startswith("LC_")
    }
    env[RUN_ENV_FLAG] = "1"
    # Bytecode caches are keyed by the source's whole-second mtime and
    # size, so a same-size edit within a second would run stale code.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _tail(output: BinaryIO) -> str:
    size = output.seek(0, os.SEEK_END)
    output.seek(max(0, size - OUTPUT_CAP_BYTES))
    return output.read().decode("utf-8", errors="replace")


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_command(
    cwd: str | os.PathLike, argv: Sequence[str], timeout_s: float
) -> ExecutionResult:
    """Run ``argv`` in ``cwd`` with the scrubbed environment; kill its
    process group once it exits or ``timeout_s`` has passed. A timeout
    no timer can hold (NaN, infinite, too large) is a ``ValueError``."""
    if not timeout_s <= threading.TIMEOUT_MAX:
        raise ValueError(f"timeout must be at most {threading.TIMEOUT_MAX} s, got {timeout_s}")
    start = time.monotonic()
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        try:
            proc = subprocess.Popen(list(argv), cwd=cwd, env=scrubbed_env(),
                                    stdout=out, stderr=err, start_new_session=True)
        except OSError as exc:
            raise SpawnFailure(f"cannot start {argv[0]!r}: {exc}") from exc
        # Until ``wait`` reaps it, the child, even once exited, keeps its
        # pid and so its process group id: no kill can hit a stranger.
        expired = threading.Event()

        def expire() -> None:
            expired.set()
            _kill_group(proc.pid)

        timer = threading.Timer(timeout_s, expire)
        try:
            timer.start()
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        finally:
            timer.cancel()
            if timer.is_alive():  # a kill under way must land before the reap
                timer.join()
            _kill_group(proc.pid)
            exit_code = proc.wait()
        return ExecutionResult(
            exit_code=exit_code,
            stdout_tail=_tail(out),
            stderr_tail=_tail(err),
            duration_s=time.monotonic() - start,
            timed_out=expired.is_set(),
        )


def run_test(
    ws: Workspace, artifact: TestArtifact, timeout_s: float = DEFAULT_TIMEOUT_S
) -> ExecutionResult:
    """Write the test into the reserved directory, then execute it at
    the workspace root with bounded output."""
    _place_test(ws, artifact)
    argv = (TEST_INTERPRETER, f"{RESERVED_TEST_DIR}/{artifact.name}")
    return run_command(ws.root, argv, timeout_s)


def _excerpt(result: ExecutionResult) -> str:
    combined = f"stdout:\n{result.stdout_tail}\nstderr:\n{result.stderr_tail}"
    return combined[-EXCERPT_CAP_CHARS:]


def _test_is_broken(stderr: str) -> bool:
    """Whether the run ended on a marker exception raised in the test
    file: the final line's exception type is a marker and the innermost
    traceback frame is the test's."""
    frames = _FRAME_FILE.findall(stderr)
    final_type = stderr.rstrip().rpartition("\n")[2].partition(":")[0]
    return (bool(frames) and RESERVED_TEST_DIR in frames[-1]
            and final_type.rpartition(".")[2] in INVALID_MARKERS)


def classify_result(
    result: ExecutionResult, expected_signature: str = ""
) -> tuple[TestVerdict, DiagnosticReport | None]:
    """Apply the verdict rules in order; non-Pass verdicts carry a report.

    Rule order: clean exit wins, then timeout, then an import or syntax
    error that ended the run in the test file, then the expected failure
    signature; a failure no rule reads is Inconclusive.
    """
    if result.exit_code == 0 and not result.timed_out:
        return TestVerdict.Pass, None

    if result.timed_out:
        verdict = TestVerdict.FailInvalidTest
        suggestion = "test timed out on the patched tree; make the patched code terminate"
    elif _test_is_broken(result.stderr_tail):
        verdict = TestVerdict.FailInvalidTest
        suggestion = ("test failed during import or collection on the patched tree; "
                      "fix the patched code it imports")
    elif expected_signature and expected_signature in result.stderr_tail:
        verdict = TestVerdict.FailBugPresent
        suggestion = "failure signature matched; the bug is reproduced"
    else:
        verdict = TestVerdict.Inconclusive
        suggestion = "failure does not match the expected signature; inspect the log"

    return verdict, DiagnosticReport(log_excerpt=_excerpt(result), suggestion=suggestion)


_JUDGE_LABELS = {
    "failbugpresent": TestVerdict.FailBugPresent,
    "bug": TestVerdict.FailBugPresent,
    "failinvalidtest": TestVerdict.FailInvalidTest,
    "invalid": TestVerdict.FailInvalidTest,
}


def certify_failure(
    ws: Workspace,
    artifact: TestArtifact,
    timeout_s: float = DEFAULT_TIMEOUT_S,
    judge: Callable[[str], str] | None = None,
) -> tuple[bool, list[TestVerdict]]:
    """Run the test ``CERTIFICATION_RUNS`` times; certified only if every
    run reproduces the bug. ``judge`` labels a run the rules leave
    Inconclusive. Stops early at the first run that does not reproduce."""
    verdicts: list[TestVerdict] = []
    for _ in range(CERTIFICATION_RUNS):
        verdict, report = classify_result(
            run_test(ws, artifact, timeout_s), artifact.expected_signature
        )
        if verdict is TestVerdict.Inconclusive and judge is not None:
            label = judge(report.log_excerpt).strip().lower()
            verdict = _JUDGE_LABELS.get(label, TestVerdict.Inconclusive)
        verdicts.append(verdict)
        if verdict is not TestVerdict.FailBugPresent:
            return False, verdicts
    return True, verdicts
