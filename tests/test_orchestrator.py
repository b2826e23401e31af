"""Full repair runs against scripted agents, plus summary parsing."""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import pytest

import calcfix
from calcfix import (
    DEFAULT_STATEMENT,
    GOLDEN_EVENTS,
    GOLDEN_OUTCOMES,
    SCRIPTS,
    SUMMARY_REPLY,
    TEST_SOURCE,
    ScriptedBackend,
    ScriptedSession,
    action,
    make_task,
    run_scenario,
)
from repeton import orchestrator
from repeton.agentio import Message
from repeton.errors import HttpFailure, IoFailure
from repeton.workspace import DiffDocument, compute_diff, take_snapshot
from repeton.orchestrator import (
    SUMMARIZER_INSTRUCTIONS,
    SUMMARY_CHAR_CAP,
    IrvConfig,
    ProblemSummary,
    RunOutcome,
    RunReport,
    parse_summary_response,
    run_irv,
    summarize_problem,
)

FIXTURES = Path(__file__).resolve().parent / "fixtures"

GOLDEN_CALLS = {
    "resolved": 8,
    "empty_patch": 7,
    "unresolved": 8,
    "cannot_reproduce": 4,
}

GOLDEN_ITERATIONS = {
    "resolved": 1,
    "empty_patch": 1,
    "unresolved": 1,
    "cannot_reproduce": 0,
}


def run_custom(repo, work_root, script, **overrides) -> RunReport:
    config = replace(IrvConfig(work_root=str(work_root)), **overrides)
    task = make_task("calc-custom", repo)
    return run_irv(task, config, ScriptedBackend(script))


# ---- summary parsing ----

def test_parse_summary_happy_path():
    summary = parse_summary_response(SUMMARY_REPLY, DEFAULT_STATEMENT)
    assert summary.summary_text.startswith("add() returns one more")
    assert summary.expected_signature == "AssertionError"
    assert not summary.degraded


def test_parse_summary_collects_continuation_lines():
    raw = "SUMMARY: first line\nsecond line\nSIGNATURE: KeyError"
    summary = parse_summary_response(raw, "stmt")
    assert summary.summary_text == "first line\nsecond line"
    assert summary.expected_signature == "KeyError"


def test_parse_summary_order_independent():
    raw = "SIGNATURE: ValueError\nSUMMARY: short note"
    summary = parse_summary_response(raw, "stmt")
    assert summary.summary_text == "short note"
    assert summary.expected_signature == "ValueError"


def test_parse_summary_falls_back_to_statement():
    summary = parse_summary_response("no grammar here", "the raw statement")
    assert summary.summary_text == "the raw statement"
    assert summary.expected_signature == ""
    assert summary.degraded


def test_parse_summary_fallback_respects_cap():
    summary = parse_summary_response("", "y" * 5000)
    assert len(summary.summary_text) == SUMMARY_CHAR_CAP
    assert summary.degraded


def test_parse_summary_truncates_long_summaries():
    summary = parse_summary_response("SUMMARY: " + "x" * 3000, "stmt")
    assert len(summary.summary_text) == SUMMARY_CHAR_CAP
    assert not summary.degraded


def test_problem_summary_enforces_cap():
    ProblemSummary(summary_text="x" * SUMMARY_CHAR_CAP)
    with pytest.raises(ValueError):
        ProblemSummary(summary_text="x" * (SUMMARY_CHAR_CAP + 1))


class CapturingSession:
    def __init__(self, reply: str) -> None:
        self.reply = reply
        self.prompts: list[list[Message]] = []

    def complete(self, messages, params) -> str:
        self.prompts.append(list(messages))
        return self.reply


def test_summarize_problem_sends_instructions_and_statement():
    session = CapturingSession(SUMMARY_REPLY)
    summary = summarize_problem(
        "the statement", session, IrvConfig().backend_params()
    )
    assert summary.expected_signature == "AssertionError"
    (prompt,) = session.prompts
    assert prompt[0].role == "system"
    assert prompt[0].content == SUMMARIZER_INSTRUCTIONS
    assert prompt[1].role == "user"
    assert prompt[1].content == "the statement"


# ---- the four canonical scenarios ----

@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_scenario_matches_goldens(name, calc_repo, work_root):
    report = run_scenario(name, calc_repo, work_root)
    assert report.outcome.value == GOLDEN_OUTCOMES[name]
    assert report.event_names == GOLDEN_EVENTS[name]
    assert report.llm_calls_used == GOLDEN_CALLS[name]
    assert report.iterations_used == GOLDEN_ITERATIONS[name]


def test_resolved_diff_matches_frozen_patch(calc_repo, work_root):
    report = run_scenario("resolved", calc_repo, work_root)
    golden = (FIXTURES / "calc_golden.patch").read_text()
    assert report.final_diff.text == golden
    assert report.final_diff.files_touched == 1
    assert report.final_diff.hunk_count == 1


def test_resolved_leaves_patched_tree_behind(calc_repo, work_root):
    report = run_scenario("resolved", calc_repo, work_root)
    root = Path(report.workspace_root)
    assert "return a + b\n" in (root / "calc.py").read_text()
    assert (root / ".repeton_tests" / "test_add.py").exists()


def test_unresolved_diff_matches_frozen_patch(calc_repo, work_root):
    report = run_scenario("unresolved", calc_repo, work_root)
    golden = (FIXTURES / "calc_unresolved.patch").read_text()
    assert report.final_diff.text == golden


def test_cannot_reproduce_leaves_no_diff(calc_repo, work_root):
    report = run_scenario("cannot_reproduce", calc_repo, work_root)
    assert report.final_diff.is_empty
    assert report.final_diff.text == ""


# ---- agent misbehavior ----

def test_malformed_reply_is_retried_once(calc_repo, work_root):
    script = calcfix.resolved_script()
    script.insert(1, "no action block in this reply")
    report = run_custom(calc_repo, work_root, script)
    assert report.outcome is RunOutcome.Resolved
    assert report.llm_calls_used == GOLDEN_CALLS["resolved"] + 1


def test_persistent_malformed_replies_exhaust_reproduction(calc_repo, work_root):
    script = [SUMMARY_REPLY] + ["still not an action"] * 9
    report = run_custom(calc_repo, work_root, script)
    assert report.outcome is RunOutcome.CannotReproduce
    assert report.event_names.count("malformed-action-budget") == 3
    assert report.llm_calls_used == 10


def test_rejected_test_proposals_consume_versions(calc_repo, work_root):
    script = [
        SUMMARY_REPLY,
        action("forgot the body", "propose_test",
               file_name="t.py", source="", command="python3 t.py"),
        action("escape attempt", "propose_test",
               file_name="../t.py", source=TEST_SOURCE,
               command="python3 .repeton_tests/../t.py"),
        calcfix._propose_test("test_add.py", TEST_SOURCE),
        *calcfix._search_steps(),
        action("fix", "edit_region",
               start="5", end="5", replacement="    return a + b"),
        action("done", "done"),
    ]
    report = run_custom(calc_repo, work_root, script)
    assert report.outcome is RunOutcome.Resolved
    assert "reproduction-attempt-1:rejected" in report.event_names
    assert "reproduction-attempt-2:rejected" in report.event_names
    assert "reproduction-certified" in report.event_names


def test_failed_action_reports_back_and_continues(calc_repo, work_root):
    script = calcfix.resolved_script()
    script.insert(
        6,
        action("typo in span", "edit_region",
               start="five", end="5", replacement="x"),
    )
    report = run_custom(calc_repo, work_root, script)
    assert report.outcome is RunOutcome.Resolved
    assert report.llm_calls_used == GOLDEN_CALLS["resolved"] + 1


def test_empty_search_result_invites_rollback(calc_repo, work_root):
    script = [
        SUMMARY_REPLY,
        calcfix._propose_test("test_add.py", TEST_SOURCE),
        action("wild guess", "set_keywords", keywords="zzzqq"),
        action("scan", "search"),
        action("back up", "rollback", stage="keywords", reason="no matches"),
        *calcfix._search_steps(),
        action("fix", "edit_region",
               start="5", end="5", replacement="    return a + b"),
        action("done", "done"),
    ]
    report = run_custom(calc_repo, work_root, script)
    assert report.outcome is RunOutcome.Resolved
    assert "rollback:Keywords" in report.event_names


# ---- budgets ----

def test_llm_call_budget_halts_the_run(calc_repo, work_root):
    report = run_custom(
        calc_repo, work_root, calcfix.resolved_script(), max_llm_calls=2
    )
    assert report.outcome is RunOutcome.EmptyPatch
    assert "budget-exhausted:llm-calls" in report.event_names
    assert report.llm_calls_used == 2


def test_wall_clock_budget_halts_the_run(calc_repo, work_root):
    report = run_custom(
        calc_repo, work_root, calcfix.resolved_script(), wall_clock_budget_s=0.0
    )
    assert report.outcome is RunOutcome.EmptyPatch
    assert report.event_names == [
        "workspace-opened", "budget-exhausted:wall-clock", "empty-patch",
    ]
    assert report.llm_calls_used == 0


def test_stage_attempt_budget_halts_the_run(calc_repo, work_root):
    retry = [
        action("try again", "set_keywords", keywords="add"),
        action("back up", "rollback", stage="keywords", reason="rethink"),
    ]
    script = [
        SUMMARY_REPLY,
        calcfix._propose_test("test_add.py", TEST_SOURCE),
        *retry, *retry, *retry,
    ]
    report = run_custom(calc_repo, work_root, script)
    assert report.outcome is RunOutcome.EmptyPatch
    assert "budget-exhausted:stage-attempts" in report.event_names
    assert report.event_names.count("rollback:Keywords") == 2


def test_diff_failure_after_a_budget_stop_folds_into_unresolved(
    calc_repo, work_root, monkeypatch
):
    def broken_diff(ws, snap):
        raise IoFailure("scripted diff failure")

    monkeypatch.setattr(orchestrator, "compute_diff", broken_diff)
    report = run_custom(
        calc_repo, work_root, calcfix.resolved_script(), max_llm_calls=2
    )
    assert report.outcome is RunOutcome.Unresolved
    assert report.final_diff.text == ""
    assert report.event_names[-2:] == [
        "budget-exhausted:llm-calls", "harness-error:IoFailure",
    ]


# ---- the judge ----

UNSIGNED_SUMMARY = (
    "SUMMARY: add() returns one more than the true sum of its arguments."
)


def test_unsigned_summary_certifies_through_the_judge(
    calc_repo, work_root, monkeypatch
):
    diffs = []

    def counted_diff(ws, snap):
        diffs.append(snap)
        return compute_diff(ws, snap)

    monkeypatch.setattr(orchestrator, "compute_diff", counted_diff)
    script = calcfix.resolved_script()
    script[0] = UNSIGNED_SUMMARY
    script[2:2] = ["BUG", "BUG"]  # one label per certification run
    report = run_custom(calc_repo, work_root, script)
    assert report.outcome is RunOutcome.Resolved
    # Certification judges the base tree: only the final report diffs.
    assert len(diffs) == 1
    assert "reproduction-certified" in report.event_names
    assert report.llm_calls_used == GOLDEN_CALLS["resolved"] + 2
    golden = (FIXTURES / "calc_golden.patch").read_text()
    assert report.final_diff.text == golden


def test_judge_can_refuse_certification(calc_repo, work_root):
    script = [UNSIGNED_SUMMARY]
    for version in (1, 2, 3):
        script += [
            calcfix._propose_test(f"test_v{version}.py", TEST_SOURCE),
            "INVALID",
        ]
    report = run_custom(calc_repo, work_root, script)
    assert report.outcome is RunOutcome.CannotReproduce
    assert report.event_names == GOLDEN_EVENTS["cannot_reproduce"]


# ---- validation verdicts ----

def judged_edit_script() -> list[str]:
    """A certified test, then an edit whose failure no rule can read."""
    return [
        SUMMARY_REPLY,
        calcfix._propose_test("test_add.py", TEST_SOURCE),
        *calcfix._search_steps(),
        action("use a helper that does not exist", "edit_region",
               start="5", end="5", replacement="    return a + b + missing_nm"),
        action("done", "done"),
    ]


def test_inconclusive_failure_asks_the_judge(calc_repo, work_root):
    script = [*judged_edit_script(), "BUG"]
    report = run_custom(
        calc_repo, work_root, script, max_irv_iterations=1
    )
    assert report.outcome is RunOutcome.Unresolved
    assert "verdict:FailBugPresent" in report.event_names
    assert report.llm_calls_used == 9


def test_judge_call_past_the_call_budget_ends_the_run(calc_repo, work_root):
    script = [*judged_edit_script(), "BUG"]
    report = run_custom(
        calc_repo, work_root, script, max_irv_iterations=1, max_llm_calls=8
    )
    assert report.outcome is RunOutcome.Unresolved
    assert report.event_names[-2:] == [
        "budget-exhausted:llm-calls", "unresolved:last-patch-accepted",
    ]
    assert report.llm_calls_used == 8


class SentinelSession(ScriptedSession):
    def complete(self, messages, params) -> str:
        reply = super().complete(messages, params)
        if reply == "RAISE:HttpFailure":
            raise HttpFailure("scripted transport failure")
        return reply


class SentinelBackend(ScriptedBackend):
    def session(self) -> SentinelSession:
        return SentinelSession(self.responses)


def test_unreachable_judge_keeps_verdict_inconclusive(calc_repo, work_root):
    script = [*judged_edit_script(), "RAISE:HttpFailure"]
    config = replace(
        IrvConfig(work_root=str(work_root)), max_irv_iterations=1
    )
    report = run_irv(
        make_task("calc-custom", calc_repo), config, SentinelBackend(script)
    )
    assert report.outcome is RunOutcome.Unresolved
    assert "judge-unavailable" in report.event_names
    assert "verdict:Inconclusive" in report.event_names


def test_broken_test_is_refined_and_recertified(calc_repo, work_root):
    script = [
        SUMMARY_REPLY,
        calcfix._propose_test("test_add.py", TEST_SOURCE),
        *calcfix._search_steps(),
        action("half an edit", "edit_region",
               start="5", end="5", replacement="    return a + b +"),
        action("done", "done"),
        calcfix._propose_test("test_add_v2.py", TEST_SOURCE),
        action("complete the expression", "edit_region",
               start="5", end="5", replacement="    return a + b"),
        action("done", "done"),
    ]
    report = run_custom(calc_repo, work_root, script, max_irv_iterations=2)
    assert report.outcome is RunOutcome.Resolved
    assert "verdict:FailInvalidTest" in report.event_names
    assert "reproduction-recertified" in report.event_names
    assert report.iterations_used == 2
    golden = (FIXTURES / "calc_golden.patch").read_text()
    assert report.final_diff.text == golden


def test_unverified_mode_proceeds_without_certification(calc_repo, work_root):
    script = [
        SUMMARY_REPLY,
        calcfix._propose_test("test_v1.py", calcfix.BROKEN_TEST_SOURCE),
        calcfix._propose_test("test_v2.py", calcfix.BROKEN_TEST_SOURCE),
        calcfix._propose_test("test_v3.py", calcfix.BROKEN_TEST_SOURCE),
        *calcfix._search_steps(),
        action("stop here", "done"),
        calcfix._propose_test("test_v4.py", calcfix.BROKEN_TEST_SOURCE),
    ]
    report = run_custom(
        calc_repo, work_root, script,
        strict_reproduction=False, max_irv_iterations=1,
    )
    assert report.outcome is RunOutcome.EmptyPatch
    assert "unverified-reproduction" in report.event_names
    assert "verdict:FailInvalidTest" in report.event_names
    assert "refinement-rejected" in report.event_names


class PromptLog(ScriptedSession):
    """Scripted session, and its own backend, that keeps the last
    message of every prompt."""

    def __init__(self, responses: list[str]) -> None:
        super().__init__(responses)
        self.last_messages: list[str] = []

    def complete(self, messages, params) -> str:
        self.last_messages.append(messages[-1].content)
        return super().complete(messages, params)

    def session(self) -> PromptLog:
        return self


def two_pass_script() -> list[str]:
    return [
        SUMMARY_REPLY,
        calcfix._propose_test("test_add.py", TEST_SOURCE),
        *calcfix._search_steps(),
        action("first try", "edit_region",
               start="5", end="5", replacement="    return a + b + 2"),
        action("done", "done"),
        action("second try", "edit_region",
               start="5", end="5", replacement="    return a + b + 3"),
        action("done", "done"),
    ]


def test_second_pass_opens_with_actions_its_stage_allows(calc_repo, work_root):
    backend = PromptLog(two_pass_script())
    config = replace(IrvConfig(work_root=str(work_root)), max_irv_iterations=2)
    report = run_irv(make_task("calc-custom", calc_repo), config, backend)
    assert report.iterations_used == 2
    openings = [m for m in backend.last_messages if "repair pass" in m]
    assert len(openings) == 2
    assert "(action: set_keywords" in openings[0]
    assert openings[1].startswith("[stage: Edit]")
    assert "set_keywords" not in openings[1]


def test_keep_first_candidate_overrides_later_edits(calc_repo, work_root):
    report = run_custom(
        calc_repo, work_root, two_pass_script(),
        max_irv_iterations=2, keep_first_passing=True,
    )
    assert report.outcome is RunOutcome.Unresolved
    assert "kept-first-candidate" in report.event_names
    assert "+    return a + b + 2" in report.final_diff.text
    assert "+ 3" not in report.final_diff.text


# ---- crashes ----

def test_unopenable_repo_folds_into_unresolved(tmp_path):
    config = IrvConfig(work_root=str(tmp_path / "work"))
    task = make_task("calc-ghost", tmp_path / "no-such-repo")
    report = run_irv(task, config, ScriptedBackend([]))
    assert report.outcome is RunOutcome.Unresolved
    assert report.event_names == ["harness-error:LocationUnavailable"]
    assert report.llm_calls_used == 0
    assert report.final_diff.is_empty


def test_unopenable_session_folds_into_unresolved(work_root, unreachable_backend):
    task = make_task("calc-offline", work_root / "never-cloned")
    report = run_irv(task, IrvConfig(work_root=str(work_root)), unreachable_backend)
    assert report.outcome is RunOutcome.Unresolved
    assert report.event_names == ["harness-error:HttpFailure"]
    assert report.llm_calls_used == 0
    assert report.final_diff.is_empty


def test_backend_crash_folds_into_unresolved(calc_repo, work_root):
    report = run_custom(calc_repo, work_root, [])
    assert report.outcome is RunOutcome.Unresolved
    assert report.event_names == [
        "workspace-opened", "harness-error:AssertionError",
    ]


# ---- report serialization ----

def test_report_round_trips_through_json(calc_repo, work_root):
    report = run_scenario("resolved", calc_repo, work_root)
    clone = RunReport.from_json_dict(report.to_json_dict())
    assert clone.instance_id == report.instance_id
    assert clone.outcome is report.outcome
    assert clone.final_diff.text == report.final_diff.text
    assert clone.final_diff.files_touched == 1
    assert clone.final_diff.hunk_count == 1
    assert clone.iterations_used == report.iterations_used
    assert clone.llm_calls_used == report.llm_calls_used
    assert clone.duration_s == report.duration_s
    assert clone.event_log == report.event_log


def test_diff_counts_survive_a_json_round_trip(calc_ws):
    # The removed and added lines render as "--- a" and "+++ b", which
    # look like file headers to a plain prefix count.
    (calc_ws.root / "notes.txt").write_text("-- a\n")
    base = take_snapshot(calc_ws, "base")
    (calc_ws.root / "notes.txt").write_text("++ b\n")
    live = compute_diff(calc_ws, base)
    assert "\n--- a\n+++ b\n" in live.text
    report = RunReport(
        instance_id="x",
        outcome=RunOutcome.Unresolved,
        final_diff=live,
        iterations_used=1,
        llm_calls_used=1,
        duration_s=0.0,
        event_log=[],
    )
    clone = RunReport.from_json_dict(report.to_json_dict())
    for diff in (live, clone.final_diff):
        assert (diff.files_touched, diff.hunk_count) == (1, 1)


def test_event_names_strips_timestamps():
    report = RunReport(
        instance_id="x",
        outcome=RunOutcome.EmptyPatch,
        final_diff=DiffDocument(text=""),
        iterations_used=0,
        llm_calls_used=0,
        duration_s=0.0,
        event_log=[("2026-01-01T00:00:00+00:00", "workspace-opened")],
    )
    assert report.event_names == ["workspace-opened"]
