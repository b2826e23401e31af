"""Reproduction test materialization, execution and classification.

Harness-authored tests live under the reserved ``.repeton_tests/``
directory inside the workspace, which snapshots and diffs never see, so
a patch can never smuggle its own test along. ``run_command`` runs
tests and bench validation commands alike: in their own session, with
``REPETON=1`` exported and only an allow-listed part of the harness
environment, and output to unlinked temporary files of which only the
tail is read back. It waits on the child, not on its output, and kills
the child's whole process group once the child exits or its time runs
out, so nothing left in that group outlives the run. A descendant that
starts its own session escapes that kill; output on disk is bounded
only by the timeout.

Classification is rule-ordered and deterministic; an optional judge
callback breaks ties for logs the rules cannot read, and may never
declare a test passing. ``classify_result`` alone maps the judge's
labels, and one judge serves both the certification of a reproduction
test (``certify_failure``) and the validation of each patch. Whatever
the judge raises reaches the caller unchanged.
"""

from __future__ import annotations

import logging
import os
import signal
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass
from enum import Enum
from typing import BinaryIO, Callable, Sequence

from .errors import IoFailure, SpawnFailure
from .workspace import RESERVED_TEST_DIR, Workspace, confined_path

logger = logging.getLogger(__name__)

RUN_ENV_FLAG = "REPETON"
# What agent-written code may inherit from the harness environment. The
# rest, API keys included, stays out of its reach.
_INHERITED_ENV = ("PATH", "HOME", "TMPDIR", "LANG", "LANGUAGE")
DEFAULT_TIMEOUT_S = 120.0
OUTPUT_CAP_BYTES = 8 * 1024
EXCERPT_CAP_CHARS = 4 * 1024
CERTIFICATION_RUNS = 2

# A marker only counts when the reserved directory shows up in the same
# stderr, i.e. the failure originates from the test file itself.
INVALID_MARKERS = ("ImportError", "ModuleNotFoundError", "SyntaxError")


class TestVerdict(Enum):
    Pass = "Pass"
    FailBugPresent = "FailBugPresent"
    FailInvalidTest = "FailInvalidTest"
    Inconclusive = "Inconclusive"


@dataclass(frozen=True)
class TestArtifact:
    """One versioned reproduction test."""

    file_name: str
    source_text: str
    invocation: tuple[str, ...]
    expected_signature: str = ""
    version: int = 1

    def __post_init__(self) -> None:
        # Raw segments, not PurePosixPath parts: the latter silently
        # normalizes "." and doubled slashes away.
        parts = self.file_name.split("/")
        if (
            len(parts) < 2
            or parts[0] != RESERVED_TEST_DIR
            or any(part in ("", "..", ".") for part in parts)
            or "\\" in self.file_name
        ):
            raise ValueError(
                f"test file must sit under {RESERVED_TEST_DIR}/: {self.file_name!r}"
            )
        if not self.invocation:
            raise ValueError("invocation must not be empty")
        if self.version < 1:
            raise ValueError(f"version must be >= 1, got {self.version}")


@dataclass(frozen=True)
class ExecutionResult:
    exit_code: int
    stdout_tail: str
    stderr_tail: str
    duration_s: float
    timed_out: bool


@dataclass(frozen=True)
class DiagnosticReport:
    verdict: TestVerdict
    log_excerpt: str
    suggestion: str


def materialize_test(ws: Workspace, artifact: TestArtifact) -> None:
    """Write the test file into the reserved directory; ``PathEscape``
    if a link planted there leads out of the clone."""
    target = confined_path(ws, artifact.file_name)
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(artifact.source_text, encoding="utf-8")
    except OSError as exc:
        raise IoFailure(f"cannot materialize {artifact.file_name}: {exc}") from exc
    logger.info("materialized %s (version %d)", artifact.file_name, artifact.version)


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
    """Execute the test at the workspace root with bounded output."""
    return run_command(ws.root, artifact.invocation, timeout_s)


def _excerpt(result: ExecutionResult) -> str:
    combined = f"stdout:\n{result.stdout_tail}\nstderr:\n{result.stderr_tail}"
    return combined[-EXCERPT_CAP_CHARS:]


_JUDGE_LABELS = {
    "failbugpresent": TestVerdict.FailBugPresent,
    "bug": TestVerdict.FailBugPresent,
    "failinvalidtest": TestVerdict.FailInvalidTest,
    "invalid": TestVerdict.FailInvalidTest,
}


def classify_result(
    result: ExecutionResult,
    expected_signature: str = "",
    judge: Callable[[str], str] | None = None,
) -> tuple[TestVerdict, DiagnosticReport | None]:
    """Apply the verdict rules in order; non-Pass verdicts carry a report.

    Rule order: clean exit wins, then timeout, then import/collection
    markers, then the expected failure signature, then the judge. The
    judge may only confirm a bug or condemn the test, never pass it;
    whatever it raises propagates unchanged.
    """
    if result.exit_code == 0 and not result.timed_out:
        return TestVerdict.Pass, None

    if result.timed_out:
        verdict = TestVerdict.FailInvalidTest
        suggestion = "test timed out; make it terminate quickly"
    elif RESERVED_TEST_DIR in result.stderr_tail and any(
        marker in result.stderr_tail for marker in INVALID_MARKERS
    ):
        verdict = TestVerdict.FailInvalidTest
        suggestion = "test failed during import or collection; fix the test file"
    elif expected_signature and expected_signature in result.stderr_tail:
        verdict = TestVerdict.FailBugPresent
        suggestion = "failure signature matched; the bug is reproduced"
    else:
        verdict = TestVerdict.Inconclusive
        suggestion = "failure does not match the expected signature; inspect the log"
        if judge is not None:
            label = judge(_excerpt(result))
            verdict = _JUDGE_LABELS.get(label.strip().lower(), TestVerdict.Inconclusive)
            if verdict is not TestVerdict.Inconclusive:
                suggestion = f"judge classified the failure as {verdict.value}"

    return verdict, DiagnosticReport(
        verdict=verdict, log_excerpt=_excerpt(result), suggestion=suggestion
    )


def certify_failure(
    ws: Workspace,
    artifact: TestArtifact,
    timeout_s: float = DEFAULT_TIMEOUT_S,
    judge: Callable[[str], str] | None = None,
) -> tuple[bool, list[TestVerdict]]:
    """Run the test ``CERTIFICATION_RUNS`` times; certified only if every
    run reproduces the bug. Stops early at the first run that does not."""
    verdicts: list[TestVerdict] = []
    for _ in range(CERTIFICATION_RUNS):
        result = run_test(ws, artifact, timeout_s)
        verdict, _report = classify_result(
            result, artifact.expected_signature, judge=judge
        )
        verdicts.append(verdict)
        if verdict is not TestVerdict.FailBugPresent:
            return False, verdicts
    return True, verdicts
