"""Test artifact validation, sandboxed execution, and verdict rules."""

from __future__ import annotations

import os
import signal
import sys
import time
import tracemalloc

import pytest

from repeton import testkit
from repeton.errors import JudgeUnavailable, SpawnFailure
from repeton.testkit import (
    CERTIFICATION_RUNS,
    ExecutionResult,
    certify_failure,
    classify_result,
    materialize_test,
    run_test,
)

PY = sys.executable


def artifact(source: str, name: str = "check.py", signature: str = "AssertionError"):
    return testkit.TestArtifact(
        file_name=f".repeton_tests/{name}",
        source_text=source,
        invocation=(PY, f".repeton_tests/{name}"),
        expected_signature=signature,
        version=1,
    )


def result(exit_code=1, stdout="", stderr="", timed_out=False):
    return ExecutionResult(
        exit_code=exit_code,
        stdout_tail=stdout,
        stderr_tail=stderr,
        duration_s=0.01,
        timed_out=timed_out,
    )


def test_artifact_accepts_reserved_directory_paths():
    art = artifact("assert True\n")
    assert art.file_name == ".repeton_tests/check.py"


@pytest.mark.parametrize(
    "bad_name",
    [
        "check.py",
        "src/check.py",
        ".repeton_tests/../escape.py",
        ".repeton_tests/./x.py",
        ".repeton_tests\\win.py",
        ".repeton_tests",
    ],
)
def test_artifact_rejects_paths_outside_reserved_dir(bad_name):
    with pytest.raises(ValueError):
        testkit.TestArtifact(
            file_name=bad_name,
            source_text="assert True\n",
            invocation=(PY, bad_name),
            expected_signature="",
            version=1,
        )


def test_artifact_rejects_empty_invocation_and_bad_version():
    with pytest.raises(ValueError):
        testkit.TestArtifact(
            file_name=".repeton_tests/x.py",
            source_text="pass\n",
            invocation=(),
            expected_signature="",
            version=1,
        )
    with pytest.raises(ValueError):
        testkit.TestArtifact(
            file_name=".repeton_tests/x.py",
            source_text="pass\n",
            invocation=(PY, "x"),
            expected_signature="",
            version=0,
        )


def test_materialize_writes_under_workspace_root(calc_ws):
    art = artifact("assert True\n")
    materialize_test(calc_ws, art)
    target = calc_ws.root / ".repeton_tests" / "check.py"
    assert target.read_text() == "assert True\n"


def test_run_test_captures_exit_and_output(calc_ws):
    art = artifact('import sys\nprint("out"); print("err", file=sys.stderr)\nsys.exit(3)\n')
    materialize_test(calc_ws, art)
    run = run_test(calc_ws, art)
    assert run.exit_code == 3
    assert "out" in run.stdout_tail
    assert "err" in run.stderr_tail
    assert not run.timed_out


def test_run_test_runs_from_workspace_root_with_flag_set(calc_ws):
    art = artifact(
        "import os\n"
        "assert os.environ.get('REPETON') == '1'\n"
        "assert os.path.exists('calc.py')\n"
    )
    materialize_test(calc_ws, art)
    assert run_test(calc_ws, art).exit_code == 0


def test_run_test_hides_harness_secrets(calc_ws, monkeypatch):
    monkeypatch.setenv("REPETON_API_KEY", "sk-harness-secret")
    monkeypatch.setenv("LC_ALL", "C.UTF-8")
    art = artifact(
        "import os\n"
        "print(os.environ.get('REPETON_API_KEY', 'no key'))\n"
        "print(os.environ.get('LC_ALL'))\n"
    )
    materialize_test(calc_ws, art)
    run = run_test(calc_ws, art)
    assert run.exit_code == 0
    assert run.stdout_tail.split() == ["no", "key", "C.UTF-8"]


def test_run_test_kills_overrunning_process_group(calc_ws):
    art = artifact(
        "import subprocess, sys, time\n"
        "subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])\n"
        "time.sleep(60)\n"
    )
    materialize_test(calc_ws, art)
    run = run_test(calc_ws, art, timeout_s=0.5)
    assert run.timed_out
    assert run.duration_s < 10


def test_run_test_caps_output_tails(calc_ws):
    art = artifact("print('x' * 100000)\n")
    materialize_test(calc_ws, art)
    run = run_test(calc_ws, art)
    assert len(run.stdout_tail.encode()) <= testkit.OUTPUT_CAP_BYTES
    assert run.stdout_tail.endswith("x\n")


def test_descendant_holding_stdout_does_not_stall_a_passing_test(calc_ws):
    # The grandchild starts its own session, so it outlives the test and
    # keeps the test's stdout open after the test has exited.
    art = artifact(
        "import subprocess, sys\n"
        "child = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(5)'],\n"
        "                         start_new_session=True)\n"
        "print(child.pid, flush=True)\n"
    )
    materialize_test(calc_ws, art)
    run = run_test(calc_ws, art, timeout_s=2)
    try:
        assert not run.timed_out
        assert run.duration_s < 1.5
        verdict, _report = classify_result(run)
        assert verdict is testkit.TestVerdict.Pass
    finally:
        os.kill(int(run.stdout_tail.split()[0]), signal.SIGKILL)


def test_passing_test_leaves_no_process_in_its_group(calc_ws, gone):
    # The sleeper stays in the test's process group but holds none of
    # its output, so the test's exit alone ends the run.
    art = artifact(
        "import subprocess\n"
        "sleeper = subprocess.Popen(['sleep', '30'], stdout=subprocess.DEVNULL,\n"
        "                           stderr=subprocess.DEVNULL)\n"
        "print(sleeper.pid, flush=True)\n"
    )
    materialize_test(calc_ws, art)
    run = run_test(calc_ws, art, timeout_s=10)
    assert run.exit_code == 0 and not run.timed_out
    assert gone(int(run.stdout_tail.split()[0]))


def test_a_failing_wait_still_kills_and_reaps_the_child(calc_ws, monkeypatch, gone):
    art = artifact(
        "import os, time\n"
        "with open('pid.tmp', 'w') as out:\n"
        "    out.write(str(os.getpid()))\n"
        "os.replace('pid.tmp', 'test.pid')\n"
        "time.sleep(30)\n"
    )
    materialize_test(calc_ws, art)
    pid_file = calc_ws.root / "test.pid"

    def failing_wait(*_args):
        deadline = time.monotonic() + 5.0
        while not pid_file.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        raise OSError("scripted: wait failed")

    monkeypatch.setattr(testkit.os, "waitid", failing_wait)
    with pytest.raises(OSError, match="scripted"):
        run_test(calc_ws, art, timeout_s=10)
    assert gone(int(pid_file.read_text()))


def test_output_is_not_buffered_in_memory(calc_ws):
    size = 8 * 1024 * 1024
    art = artifact(f"import sys\nsys.stdout.write('x' * {size})\n")
    materialize_test(calc_ws, art)
    tracemalloc.start()
    try:
        run = run_test(calc_ws, art)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert run.exit_code == 0
    assert len(run.stdout_tail) == testkit.OUTPUT_CAP_BYTES
    assert peak < size // 8


def test_run_test_missing_interpreter_raises_spawn_failure(calc_ws):
    art = testkit.TestArtifact(
        file_name=".repeton_tests/x.py",
        source_text="pass\n",
        invocation=("/no/such/binary", "x"),
        expected_signature="",
        version=1,
    )
    materialize_test(calc_ws, art)
    with pytest.raises(SpawnFailure):
        run_test(calc_ws, art)


def test_clean_exit_classifies_as_pass():
    verdict, report = classify_result(result(exit_code=0))
    assert verdict is testkit.TestVerdict.Pass
    assert report is None


def test_timeout_classifies_as_invalid_test():
    verdict, report = classify_result(result(timed_out=True, exit_code=-9))
    assert verdict is testkit.TestVerdict.FailInvalidTest
    assert "timed out" in report.suggestion


def test_import_marker_needs_reserved_dir_mention():
    traceback_in_test = (
        'File ".repeton_tests/check.py", line 1\n'
        "ModuleNotFoundError: No module named 'ghost'"
    )
    verdict, _ = classify_result(result(stderr=traceback_in_test))
    assert verdict is testkit.TestVerdict.FailInvalidTest

    traceback_in_product = (
        'File "pkg/core.py", line 9\n'
        "ModuleNotFoundError: No module named 'ghost'"
    )
    verdict, _ = classify_result(
        result(stderr=traceback_in_product), expected_signature="ModuleNotFoundError"
    )
    assert verdict is testkit.TestVerdict.FailBugPresent


def test_signature_match_classifies_as_bug_present():
    verdict, report = classify_result(
        result(stderr="AssertionError: add(2, 3) returned 6"),
        expected_signature="AssertionError",
    )
    assert verdict is testkit.TestVerdict.FailBugPresent
    assert "AssertionError" in report.log_excerpt


def test_unmatched_failure_is_inconclusive_without_judge():
    verdict, report = classify_result(
        result(stderr="TypeError: boom"), expected_signature="AssertionError"
    )
    assert verdict is testkit.TestVerdict.Inconclusive
    assert report is not None


def test_judge_runs_only_for_inconclusive_failures():
    calls = []

    def judge(excerpt):
        calls.append(excerpt)
        return "bug"

    verdict, _ = classify_result(
        result(stderr="AssertionError"), expected_signature="AssertionError", judge=judge
    )
    assert verdict is testkit.TestVerdict.FailBugPresent
    assert calls == []

    verdict, _ = classify_result(
        result(stderr="TypeError"), expected_signature="AssertionError", judge=judge
    )
    assert verdict is testkit.TestVerdict.FailBugPresent
    assert len(calls) == 1


@pytest.mark.parametrize(
    "label,expected",
    [
        ("bug", testkit.TestVerdict.FailBugPresent),
        ("FailBugPresent", testkit.TestVerdict.FailBugPresent),
        ("invalid", testkit.TestVerdict.FailInvalidTest),
        ("  Invalid  ", testkit.TestVerdict.FailInvalidTest),
        ("pass", testkit.TestVerdict.Inconclusive),
        ("nonsense", testkit.TestVerdict.Inconclusive),
    ],
)
def test_judge_labels_map_but_never_pass(label, expected):
    verdict, _ = classify_result(
        result(stderr="TypeError"),
        expected_signature="AssertionError",
        judge=lambda _e: label,
    )
    assert verdict is expected


def test_broken_judge_surfaces_as_judge_unavailable():
    def judge(_excerpt):
        raise RuntimeError("endpoint down")

    with pytest.raises(JudgeUnavailable):
        classify_result(
            result(stderr="TypeError"),
            expected_signature="AssertionError",
            judge=judge,
        )


def test_certify_requires_consecutive_bug_reproductions(calc_ws):
    art = artifact(
        "import os, sys\n"
        "sys.path.insert(0, os.getcwd())\n"
        "from calc import add\n"
        "assert add(2, 3) == 5\n"
    )
    materialize_test(calc_ws, art)
    certified, verdicts = certify_failure(calc_ws, art)
    assert certified
    assert verdicts == [testkit.TestVerdict.FailBugPresent] * CERTIFICATION_RUNS


def test_certify_short_circuits_on_first_non_reproduction(calc_ws):
    art = artifact("print('all good')\n")
    materialize_test(calc_ws, art)
    certified, verdicts = certify_failure(calc_ws, art)
    assert not certified
    assert verdicts == [testkit.TestVerdict.Pass]
