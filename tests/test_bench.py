"""Task loading, batch execution, and outcome accounting."""

from __future__ import annotations

import json
import time
from dataclasses import replace

import pytest

import calcfix
from calcfix import BENCH_STATEMENTS, ScriptedBackend, make_task
from repeton import orchestrator
from repeton.bench import (
    BenchSummary,
    TaskInstance,
    load_tasks,
    run_bench,
    summarize_outcomes,
)
from repeton.errors import DuplicateId, EmptyBatch, ParseError
from repeton.orchestrator import IrvConfig, RunOutcome, RunReport
from repeton.workspace import DiffDocument


def write_tasks(tmp_path, rows) -> str:
    path = tmp_path / "tasks.jsonl"
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def task_row(instance_id: str, **extra) -> str:
    data = {
        "instance_id": instance_id,
        "repo_location": "/srv/repo",
        "base_revision": "HEAD",
        "problem_statement": "something is off",
    }
    data.update(extra)
    return json.dumps(data)


def make_report(instance_id: str, outcome: RunOutcome) -> RunReport:
    return RunReport(
        instance_id=instance_id,
        outcome=outcome,
        final_diff=DiffDocument(text=""),
        iterations_used=0,
        llm_calls_used=0,
        duration_s=0.0,
        event_log=[],
    )


# ---- task loading ----

def test_load_tasks_reads_required_and_optional_fields(tmp_path):
    path = write_tasks(tmp_path, [
        task_row("a-1"),
        task_row("a-2", validation_command="pytest -x", time_limit=90),
    ])
    tasks = load_tasks(path)
    assert [t.instance_id for t in tasks] == ["a-1", "a-2"]
    assert tasks[0].validation_command is None
    assert tasks[0].time_limit_s is None
    assert tasks[1].validation_command == "pytest -x"
    assert tasks[1].time_limit_s == 90


def test_load_tasks_skips_blank_lines(tmp_path):
    path = write_tasks(tmp_path, [task_row("a-1"), "", task_row("a-2")])
    assert len(load_tasks(path)) == 2


def test_load_tasks_names_the_bad_line_on_json_errors(tmp_path):
    path = write_tasks(tmp_path, [task_row("a-1"), "{not json"])
    with pytest.raises(ParseError, match=r":2: invalid JSON"):
        load_tasks(path)


def test_load_tasks_rejects_non_object_lines(tmp_path):
    path = write_tasks(tmp_path, ['["a", "list"]'])
    with pytest.raises(ParseError, match=r":1: expected an object"):
        load_tasks(path)


def test_load_tasks_names_missing_keys(tmp_path):
    path = write_tasks(tmp_path, ['{"instance_id": "a-1"}'])
    with pytest.raises(ParseError, match="repo_location"):
        load_tasks(path)


def test_load_tasks_rejects_duplicate_ids(tmp_path):
    path = write_tasks(tmp_path, [task_row("a-1"), task_row("a-1")])
    with pytest.raises(DuplicateId):
        load_tasks(path)


@pytest.mark.parametrize(
    "instance_id", ["", ".", "..", "../escaped", "/srv/abs", "a/b", "a\\b", "a\0b"]
)
def test_load_tasks_rejects_ids_that_are_not_plain_names(tmp_path, instance_id):
    path = write_tasks(tmp_path, [task_row("a-1"), task_row(instance_id)])
    with pytest.raises(ParseError, match=r":2: instance_id must be a plain"):
        load_tasks(path)


@pytest.mark.parametrize(
    ("extra", "field"),
    [
        ({"time_limit": "0.5"}, "time_limit"),
        ({"time_limit": True}, "time_limit"),
        ({"validation_command": ["true"]}, "validation_command"),
        ({"time_limit": float("inf")}, "time_limit"),
        ({"time_limit": float("nan")}, "time_limit"),
    ],
)
def test_load_tasks_checks_optional_field_types(tmp_path, extra, field):
    path = write_tasks(tmp_path, [task_row("a-1", **extra)])
    with pytest.raises(ParseError, match=rf":1: {field} must be"):
        load_tasks(path)


def test_load_tasks_accepts_fractional_time_limits(tmp_path):
    path = write_tasks(tmp_path, [task_row("a-1", time_limit=0.5)])
    assert load_tasks(path)[0].time_limit_s == 0.5


# ---- batch execution ----

def bench_tasks(calc_repo):
    return [
        make_task(f"calc-{i}", calc_repo, statement)
        for i, statement in enumerate(BENCH_STATEMENTS, start=1)
    ]


def run_batch(calc_repo, tmp_path, parallelism: int, tag: str):
    backend = ScriptedBackend(calcfix.resolved_script())
    config = IrvConfig(work_root=str(tmp_path / f"work-{tag}"))
    return run_bench(bench_tasks(calc_repo), parallelism, config, backend)


def test_batch_runs_every_task_in_input_order(calc_repo, tmp_path):
    reports, summary = run_batch(calc_repo, tmp_path, 1, "serial")
    assert [r.instance_id for r in reports] == [
        "calc-1", "calc-2", "calc-3", "calc-4",
    ]
    assert all(r.outcome is RunOutcome.Resolved for r in reports)
    assert summary.total == 4
    assert summary.resolve_rate_percent == 100.0


def test_parallel_batch_matches_serial_batch(calc_repo, tmp_path):
    serial_reports, serial_summary = run_batch(calc_repo, tmp_path, 1, "s")
    parallel_reports, parallel_summary = run_batch(calc_repo, tmp_path, 4, "p")
    assert serial_summary == parallel_summary
    for one, other in zip(serial_reports, parallel_reports):
        assert one.instance_id == other.instance_id
        assert one.outcome is other.outcome
        assert one.final_diff.text == other.final_diff.text
        assert one.iterations_used == other.iterations_used
        assert one.llm_calls_used == other.llm_calls_used
        assert one.event_names == other.event_names


def test_empty_batch_is_refused(calc_repo):
    with pytest.raises(EmptyBatch):
        run_bench([], 1, IrvConfig(), ScriptedBackend([]))


def test_parallelism_must_be_positive(calc_repo):
    with pytest.raises(ValueError):
        run_bench(
            [make_task("calc-x", calc_repo)], 0, IrvConfig(), ScriptedBackend([])
        )


def test_unopenable_session_folds_into_unresolved(calc_repo, tmp_path,
                                                  unreachable_backend):
    reports, summary = run_bench(
        [make_task("calc-x", calc_repo)],
        1,
        IrvConfig(work_root=str(tmp_path / "work")),
        unreachable_backend,
    )
    assert reports[0].outcome is RunOutcome.Unresolved
    assert reports[0].event_names == ["harness-error:HttpFailure"]
    assert summary.counts[RunOutcome.Unresolved] == 1


# ---- validation commands ----

def validated_task(calc_repo, command: str) -> TaskInstance:
    return TaskInstance(
        instance_id="calc-validated",
        repo_location=str(calc_repo),
        base_revision="HEAD",
        problem_statement=calcfix.DEFAULT_STATEMENT,
        validation_command=command,
    )


def test_passing_validation_keeps_resolved(calc_repo, tmp_path):
    task = validated_task(
        calc_repo, 'python3 -c "from calc import add; assert add(2, 3) == 5"'
    )
    reports, _ = run_bench(
        [task], 1,
        IrvConfig(work_root=str(tmp_path / "work")),
        ScriptedBackend(calcfix.resolved_script()),
    )
    assert reports[0].outcome is RunOutcome.Resolved
    assert "validation-downgrade" not in reports[0].event_names


def test_failing_validation_downgrades_to_unresolved(calc_repo, tmp_path):
    task = validated_task(
        calc_repo, 'python3 -c "from calc import add; assert add(2, 3) == 6"'
    )
    reports, summary = run_bench(
        [task], 1,
        IrvConfig(work_root=str(tmp_path / "work")),
        ScriptedBackend(calcfix.resolved_script()),
    )
    assert reports[0].outcome is RunOutcome.Unresolved
    assert reports[0].event_names[-1] == "validation-downgrade"
    assert summary.counts[RunOutcome.Resolved] == 0


def test_validation_cannot_read_harness_secrets(calc_repo, tmp_path, monkeypatch):
    monkeypatch.setenv("REPETON_API_KEY", "sk-harness-secret")
    task = validated_task(
        calc_repo,
        'python3 -c "import os; assert \'REPETON_API_KEY\' not in os.environ"',
    )
    reports, _ = run_bench(
        [task], 1,
        IrvConfig(work_root=str(tmp_path / "work")),
        ScriptedBackend(calcfix.resolved_script()),
    )
    assert reports[0].outcome is RunOutcome.Resolved
    assert "validation-downgrade" not in reports[0].event_names


def test_validation_never_upgrades_other_outcomes(calc_repo, tmp_path):
    task = TaskInstance(
        instance_id="calc-validated",
        repo_location=str(calc_repo),
        base_revision="HEAD",
        problem_statement=calcfix.DEFAULT_STATEMENT,
        validation_command='python3 -c "pass"',
    )
    reports, _ = run_bench(
        [task], 1,
        IrvConfig(
            work_root=str(tmp_path / "work"),
            **calcfix.SCENARIO_OVERRIDES["unresolved"],
        ),
        ScriptedBackend(calcfix.unresolved_script()),
    )
    assert reports[0].outcome is RunOutcome.Unresolved
    assert "validation-downgrade" not in reports[0].event_names


def test_unrunnable_validation_counts_as_failure(calc_repo, tmp_path):
    task = validated_task(calc_repo, "no_such_binary_zz --flag")
    reports, _ = run_bench(
        [task], 1,
        IrvConfig(work_root=str(tmp_path / "work")),
        ScriptedBackend(calcfix.resolved_script()),
    )
    assert reports[0].outcome is RunOutcome.Unresolved


def test_blank_validation_command_counts_as_failure(calc_repo, tmp_path):
    reports, _ = run_bench(
        [validated_task(calc_repo, "   ")], 1,
        IrvConfig(work_root=str(tmp_path / "work")),
        ScriptedBackend(calcfix.resolved_script()),
    )
    assert reports[0].outcome is RunOutcome.Unresolved


def test_validation_timeout_kills_backgrounded_processes(calc_repo, tmp_path, gone):
    command = "sh -c 'sleep 10 & echo $! > sleeper.pid; wait'"
    task = replace(validated_task(calc_repo, command), time_limit_s=1)
    reports, _ = run_bench(
        [task], 1,
        IrvConfig(work_root=str(tmp_path / "work")),
        ScriptedBackend(calcfix.resolved_script()),
    )
    assert reports[0].outcome is RunOutcome.Unresolved
    clone = tmp_path / "work" / task.instance_id / "repo"
    pid = int((clone / "sleeper.pid").read_text())
    assert gone(pid)


def test_negative_time_limit_fails_validation_and_kills_it(calc_repo, tmp_path, gone):
    # Renamed into place, so the pid file never shows up half written.
    command = "sh -c 'echo $$ > pid.tmp && mv pid.tmp validator.pid && exec sleep 10'"
    task = replace(validated_task(calc_repo, command), time_limit_s=-1)
    reports, _ = run_bench(
        [task], 1,
        IrvConfig(work_root=str(tmp_path / "work")),
        ScriptedBackend(calcfix.resolved_script()),
    )
    assert reports[0].outcome is RunOutcome.Unresolved
    # The kill may land before the command writes its pid; give a
    # surviving command the time to write it.
    pid_file = tmp_path / "work" / task.instance_id / "repo" / "validator.pid"
    deadline = time.monotonic() + 1.0
    while not pid_file.exists() and time.monotonic() < deadline:
        time.sleep(0.02)
    if pid_file.exists():
        assert gone(int(pid_file.read_text()))


def test_validation_time_counts_in_the_run_duration(calc_repo, tmp_path):
    reports, _ = run_bench(
        [validated_task(calc_repo, "sleep 0.4")], 1,
        IrvConfig(work_root=str(tmp_path / "work")),
        ScriptedBackend(calcfix.resolved_script()),
    )
    assert reports[0].outcome is RunOutcome.Resolved
    assert reports[0].duration_s >= 0.4


def test_validation_that_raises_folds_into_a_harness_error(
    calc_repo, tmp_path, monkeypatch
):
    def broken(*args):
        raise RuntimeError("scripted: runner broke")

    monkeypatch.setattr(orchestrator, "run_command", broken)
    tasks = [validated_task(calc_repo, "true"), bench_tasks(calc_repo)[0]]
    reports, _ = run_bench(
        tasks, 1,
        IrvConfig(work_root=str(tmp_path / "work")),
        ScriptedBackend(calcfix.resolved_script()),
    )
    assert reports[0].outcome is RunOutcome.Unresolved
    assert reports[0].event_names[-2:] == ["resolved", "harness-error:RuntimeError"]
    assert reports[1].outcome is RunOutcome.Resolved


# ---- accounting ----

def test_summarize_counts_and_rounds_the_rate():
    reports = [
        make_report("a", RunOutcome.Resolved),
        make_report("b", RunOutcome.Resolved),
        make_report("c", RunOutcome.Unresolved),
    ]
    summary = summarize_outcomes(reports)
    assert summary.counts[RunOutcome.Resolved] == 2
    assert summary.counts[RunOutcome.EmptyPatch] == 0
    assert summary.total == 3
    assert summary.resolve_rate_percent == 66.67


def test_summarize_refuses_an_empty_list():
    with pytest.raises(EmptyBatch):
        summarize_outcomes([])


def test_table_row_folds_cannot_reproduce_into_unresolved():
    summary = BenchSummary(
        counts={
            RunOutcome.Resolved: 35,
            RunOutcome.Unresolved: 100,
            RunOutcome.EmptyPatch: 152,
            RunOutcome.CannotReproduce: 13,
        },
        total=300,
        resolve_rate_percent=11.67,
    )
    assert summary.table_row() == {
        "Resolved": 35,
        "Unresolved": 113,
        "Empty Patch": 152,
        "Total": 300,
    }


def test_summary_serializes_counts_and_folded_row():
    summary = summarize_outcomes([make_report("a", RunOutcome.Resolved)])
    data = summary.to_json_dict()
    assert data["counts"]["Resolved"] == 1
    assert data["total"] == 1
    assert data["resolve_rate_percent"] == 100.0
    assert data["table_row"]["Total"] == 1


def test_render_table_golden():
    summary = BenchSummary(
        counts={
            RunOutcome.Resolved: 1,
            RunOutcome.Unresolved: 1,
            RunOutcome.EmptyPatch: 0,
            RunOutcome.CannotReproduce: 0,
        },
        total=2,
        resolve_rate_percent=50.0,
    )
    assert summary.render_table() == (
        "Resolved  Unresolved  Empty Patch  Total\n"
        "       1           1            0      2\n"
        "Resolve rate: 50.0%"
    )
