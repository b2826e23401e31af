"""Full repair runs against scripted agents, plus summary parsing."""

from __future__ import annotations

import re
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
from repeton import orchestrator, testkit
from repeton.agentio import Message, ReplayBackend
from repeton.errors import HttpFailure, IoFailure
from repeton.patcher import IcsrStage
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
    root = work_root / report.instance_id / "repo"
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


# ---- the action table ----

def test_every_stage_allows_an_action():
    actions = orchestrator.ACTIONS
    for stage in IcsrStage:
        assert any(stage in row.stages for row in actions.values()), stage
    assert actions["done"].stages == (IcsrStage.Edit,)
    assert IcsrStage.Keywords not in actions["rollback"].stages


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
        action("forgot the body", "propose_test", file_name="t.py", source=""),
        action("escape attempt", "propose_test",
               file_name="../t.py", source=TEST_SOURCE),
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


@pytest.mark.parametrize(
    "args",
    [{"start": "five", "end": "5", "replacement": "x"},
     {"start": "5", "replacement": "x"}],
    ids=["typo-in-span", "missing-arg"],
)
def test_failed_action_reports_back_and_continues(calc_repo, work_root, args):
    script = calcfix.resolved_script()
    script.insert(6, action("slip", "edit_region", **args))
    backend = PromptLog(script)
    report = run_irv(
        make_task("calc-custom", calc_repo), IrvConfig(work_root=str(work_root)), backend
    )
    assert report.outcome is RunOutcome.Resolved
    assert report.llm_calls_used == GOLDEN_CALLS["resolved"] + 1
    failed = [m for m in backend.last_messages if "Action failed" in m]
    assert len(failed) == 1
    assert "edit_region(start, end, replacement)" in failed[0]


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


def count_diffs(monkeypatch) -> list:
    """The snapshot of every ``compute_diff`` the orchestrator takes."""
    diffs = []

    def counted_diff(ws, snap):
        diffs.append(snap)
        return compute_diff(ws, snap)

    monkeypatch.setattr(orchestrator, "compute_diff", counted_diff)
    return diffs


def test_unsigned_summary_certifies_through_the_judge(
    calc_repo, work_root, monkeypatch
):
    diffs = count_diffs(monkeypatch)
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


def unsigned_script(*judge_replies: str) -> list[str]:
    """An unsigned summary and one test proposal, then ``judge_replies``."""
    return [
        UNSIGNED_SUMMARY,
        calcfix._propose_test("test_add.py", TEST_SOURCE),
        *judge_replies,
    ]


def test_judge_call_past_the_call_budget_ends_the_run(calc_repo, work_root):
    report = run_custom(
        calc_repo, work_root, unsigned_script("BUG", "BUG"), max_llm_calls=2
    )
    assert report.outcome is RunOutcome.EmptyPatch
    assert report.event_names == [
        "workspace-opened", "summary-pinned",
        "budget-exhausted:llm-calls", "empty-patch",
    ]
    assert report.llm_calls_used == 2


class SentinelSession(ScriptedSession):
    """Scripted session, and its own backend, that raises at its sentinel
    reply and keeps the last message of every prompt."""

    def __init__(self, responses: list[str]) -> None:
        super().__init__(responses)
        self.last_messages: list[str] = []

    def complete(self, messages, params) -> str:
        self.last_messages.append(messages[-1].content)
        reply = super().complete(messages, params)
        if reply == "RAISE:HttpFailure":
            raise HttpFailure("scripted transport failure")
        return reply

    def session(self) -> SentinelSession:
        return self


def test_unreachable_judge_keeps_verdict_inconclusive(calc_repo, work_root):
    script = [
        *unsigned_script("RAISE:HttpFailure"),
        *unsigned_script("BUG", "BUG")[1:],
        *calcfix.resolved_script()[2:],
    ]
    backend = SentinelSession(script)
    report = run_irv(
        make_task("calc-custom", calc_repo), IrvConfig(work_root=str(work_root)), backend
    )
    assert report.outcome is RunOutcome.Resolved
    assert report.event_names[2:5] == [
        "judge-unavailable", "reproduction-attempt-1:failed", "reproduction-certified",
    ]
    assert "(runs classified: Inconclusive)" in backend.last_messages[3]


def test_failing_judge_ends_the_run_with_its_own_error(calc_repo, work_root):
    # The script runs out exactly at the judge call.
    report = run_custom(calc_repo, work_root, unsigned_script())
    assert report.outcome is RunOutcome.Unresolved
    assert report.event_names == [
        "workspace-opened", "summary-pinned", "harness-error:AssertionError",
    ]
    assert report.llm_calls_used == 3  # the judge call is charged


# ---- validation verdicts ----

def test_inconclusive_validation_asks_no_judge(calc_repo, work_root, monkeypatch):
    diffs = count_diffs(monkeypatch)
    script = [
        SUMMARY_REPLY,
        calcfix._propose_test("test_add.py", TEST_SOURCE),
        *calcfix._search_steps(),
        action("use a helper that does not exist", "edit_region",
               start="5", end="5", replacement="    return a + b + missing_nm"),
        action("done", "done"),
    ]
    report = run_custom(calc_repo, work_root, script, max_irv_iterations=1)
    assert report.outcome is RunOutcome.Unresolved
    assert report.event_names[-3:] == [
        "verdict:Inconclusive",
        "budget-exhausted:iterations",
        "unresolved:last-patch-accepted",
    ]
    assert report.llm_calls_used == GOLDEN_CALLS["unresolved"]
    assert len(diffs) == 1


class JudgeAnsweringSession(ScriptedSession):
    """Scripted agent replies; every judge prompt gets ``BUG`` instead."""

    def __init__(self, responses: list[str]) -> None:
        super().__init__(responses)
        self.judged = 0

    def complete(self, messages, params) -> str:
        if messages[0].content == orchestrator.JUDGE_INSTRUCTIONS:
            self.judged += 1
            return "BUG"
        return super().complete(messages, params)

    def session(self) -> JudgeAnsweringSession:
        return self


def test_a_command_arg_cannot_point_the_test_elsewhere(
    calc_repo, work_root, monkeypatch
):
    # ``python3 test_add.py`` names no file in the tree; were it run,
    # "can't open file" is all any run would show.
    diffs = count_diffs(monkeypatch)
    script = calcfix.resolved_script()
    script[1] = action(
        "write a failing check for add", "propose_test",
        file_name="test_add.py", source=TEST_SOURCE, command="python3 test_add.py",
    )
    backend = JudgeAnsweringSession(script)
    report = run_irv(
        make_task("calc-custom", calc_repo), IrvConfig(work_root=str(work_root)), backend
    )
    assert report.outcome is RunOutcome.Resolved
    assert report.event_names == GOLDEN_EVENTS["resolved"]
    assert report.llm_calls_used == GOLDEN_CALLS["resolved"]
    assert backend.judged == 0
    assert len(diffs) == 1
    golden = (FIXTURES / "calc_golden.patch").read_text()
    assert report.final_diff.text == golden


def record_test_runs(monkeypatch) -> list[testkit.TestArtifact]:
    """Every test artifact run from now on, certification runs included."""
    ran: list[testkit.TestArtifact] = []
    real = testkit.run_test

    def recording(ws, artifact, *args, **kwargs):
        ran.append(artifact)
        return real(ws, artifact, *args, **kwargs)

    monkeypatch.setattr(testkit, "run_test", recording)
    monkeypatch.setattr(orchestrator, "run_test", recording)
    return ran


def second_pass_script(first_edit: str, *second_pass: str) -> list[str]:
    """A first pass ending at ``first_edit``, then the ``second_pass``
    replies; each pass ends at done."""
    return [
        SUMMARY_REPLY,
        calcfix._propose_test("test_add.py", TEST_SOURCE),
        *calcfix._search_steps(),
        action("first edit", "edit_region", start="5", end="5", replacement=first_edit),
        action("done", "done"),
        *second_pass,
        action("done", "done"),
    ]


def fix_edit(replacement: str = "    return a + b") -> str:
    return action("second edit", "edit_region", start="5", end="5", replacement=replacement)


def test_a_patch_that_breaks_the_test_import_gets_another_pass(
    calc_repo, work_root, monkeypatch
):
    ran = record_test_runs(monkeypatch)
    script = second_pass_script("    return a + b +", fix_edit())
    report = run_custom(calc_repo, work_root, script, max_irv_iterations=2)
    assert report.outcome is RunOutcome.Resolved
    assert report.event_names == [
        "workspace-opened", "summary-pinned", "reproduction-certified",
        "iteration-1", "edit-applied", "verdict:Inconclusive",
        "iteration-2", "edit-applied", "verdict:Pass", "resolved",
    ]
    assert report.llm_calls_used == 10
    assert len(ran) == 4
    golden = (FIXTURES / "calc_golden.patch").read_text()
    assert report.final_diff.text == golden


def test_a_patch_that_hangs_the_test_gets_another_pass(calc_repo, work_root):
    backend = PromptLog(second_pass_script("    while True: pass", fix_edit()))
    config = replace(
        IrvConfig(work_root=str(work_root)), max_irv_iterations=2, test_timeout_s=2.0
    )
    report = run_irv(make_task("calc-custom", calc_repo), config, backend)
    assert report.outcome is RunOutcome.Resolved
    assert "verdict:FailInvalidTest" in report.event_names
    feedback = [m for m in backend.prompts[-1] if m.startswith("Patch validation failed")]
    assert len(feedback) == 1
    assert feedback[0].startswith("Patch validation failed (FailInvalidTest)")
    assert "timed out on the patched tree" in feedback[0]
    golden = (FIXTURES / "calc_golden.patch").read_text()
    assert report.final_diff.text == golden


# Certifies on the base tree, where add(2, 3) is 6, and passes any
# patch that changes that sum, wrong ones included.
SWAPPED_TEST = """import os
import sys

sys.path.insert(0, os.getcwd())
from calc import add

assert add(2, 3) != 6
"""


def test_no_test_proposed_mid_run_can_pass_a_wrong_patch(calc_repo, work_root):
    script = second_pass_script(
        "    return a + b +",
        calcfix._propose_test("test_add_v2.py", SWAPPED_TEST),
        fix_edit("    return a + b + 2"),
    )
    report = run_custom(calc_repo, work_root, script, max_irv_iterations=2)
    assert report.outcome is RunOutcome.Unresolved
    assert "+    return a + b + 2" in report.final_diff.text
    assert report.event_names[-3:] == [
        "verdict:FailBugPresent",
        "budget-exhausted:iterations",
        "unresolved:last-patch-accepted",
    ]


class PromptLog(ScriptedSession):
    """Scripted session, and its own backend, that keeps every prompt."""

    def __init__(self, responses: list[str]) -> None:
        super().__init__(responses)
        self.prompts: list[list[str]] = []

    @property
    def last_messages(self) -> list[str]:
        return [prompt[-1] for prompt in self.prompts]

    def complete(self, messages, params) -> str:
        self.prompts.append([m.content for m in messages])
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
    assert "set_keywords(keywords)" in openings[0]
    assert openings[1].startswith("[stage: Edit]")
    assert "set_keywords" not in openings[1]


# The args each handler reads, written out apart from the action table.
ACTION_ARGS = {
    "propose_test": {"file_name", "source"},
    "set_keywords": {"keywords"},
    "search": set(),
    "open_outline": {"path"},
    "view_region": {"target", "start", "end"},
    "edit_region": {"start", "end", "replacement"},
    "switch_file": {"path"},
    "rollback": {"stage", "reason"},
    "done": set(),
}
ALLOWED_LINE = re.compile(r"^Allowed actions: (.*)\.$", re.MULTILINE)
LISTED_ACTION = re.compile(r"(\w+)(?:\(([^)]*)\))?")


class ReplayLog:
    """Replay backend, and its own session, that keeps every message of
    every prompt."""

    def __init__(self, transcript: Path) -> None:
        self.replay = ReplayBackend(transcript).session()
        self.messages: set[str] = set()

    def session(self) -> ReplayLog:
        return self

    def complete(self, messages, params) -> str:
        self.messages.update(m.content for m in messages)
        return self.replay.complete(messages, params)


def test_every_prompt_names_the_args_of_the_actions_it_allows(calc_repo, work_root):
    backend = ReplayLog(calcfix.TRANSCRIPT_DIR / "resolved.jsonl")
    report = run_scenario("resolved", calc_repo, work_root, backend)
    assert report.outcome is RunOutcome.Resolved
    allowed = set()
    for message in backend.messages:
        for line in ALLOWED_LINE.findall(message):
            for name, told in LISTED_ACTION.findall(line):
                allowed.add(name)
                named = {arg.strip("[]") for arg in told.split(", ")}
                assert ACTION_ARGS[name] <= named, (name, message)
    # Reproduction and all five stages: every action is allowed somewhere.
    assert allowed == set(ACTION_ARGS)


def test_budget_end_reports_the_last_edit(calc_repo, work_root):
    report = run_custom(
        calc_repo, work_root, two_pass_script(), max_irv_iterations=2
    )
    assert report.outcome is RunOutcome.Unresolved
    assert "+    return a + b + 3" in report.final_diff.text
    assert "+ 2" not in report.final_diff.text


def test_the_certified_test_judges_every_patch(calc_repo, work_root, monkeypatch):
    ran = record_test_runs(monkeypatch)
    backend = PromptLog(second_pass_script(
        "    return a + b +",
        calcfix._propose_test("test_add.py", "print('ok')\n"),
        fix_edit("    return a + b + 2"),
    ))
    config = replace(IrvConfig(work_root=str(work_root)), max_irv_iterations=2)
    report = run_irv(make_task("calc-custom", calc_repo), config, backend)
    rejected = [m for m in backend.last_messages if m.startswith("Rejected:")]
    assert len(rejected) == 1
    assert "action 'propose_test' not in vocabulary" in rejected[0]
    assert [a.source_text for a in ran] == [TEST_SOURCE] * 4
    assert report.outcome is RunOutcome.Unresolved
    assert report.event_names[-3:] == [
        "verdict:FailBugPresent",
        "budget-exhausted:iterations",
        "unresolved:last-patch-accepted",
    ]


# ---- hostile reproduction tests ----

# Counts its runs where no scan looks, and on the second certification
# run replaces itself with a script that always passes.
SELF_REWRITING_TEST = """import os
import sys

sys.path.insert(0, os.getcwd())
from calc import add

runs_file = os.path.join(".git", "repro-runs")
runs = int(open(runs_file).read()) if os.path.exists(runs_file) else 0
with open(runs_file, "w") as out:
    out.write(str(runs + 1))
if runs == 1:
    with open(__file__, "w") as me:
        me.write("print('ok')\\n")
value = add(2, 3)
assert value == 5, f"add(2, 3) returned {value}"
"""


def test_a_test_that_rewrites_itself_cannot_pass_a_wrong_patch(calc_repo, work_root):
    script = calcfix.unresolved_script()
    script[1] = calcfix._propose_test("test_add.py", SELF_REWRITING_TEST)
    report = run_custom(calc_repo, work_root, script, max_irv_iterations=1)
    assert report.outcome is RunOutcome.Unresolved
    assert report.event_names == GOLDEN_EVENTS["unresolved"]


PLANTING_TEST = """import os
import shutil
import sys

sys.path.insert(0, os.getcwd())
from calc import add

try:
    value = add(2, 3)
    assert value == 5, f"add(2, 3) returned {{value}}"
finally:
    shutil.rmtree(".repeton_tests")
    {plant}
"""


@pytest.mark.parametrize(
    "plant",
    ['os.symlink(".", ".repeton_tests")', 'open(".repeton_tests", "w").close()'],
    ids=["link-to-root", "plain-file"],
)
def test_a_test_that_replaces_the_reserved_dir_ships_no_test(
    calc_repo, work_root, plant
):
    script = calcfix.resolved_script()
    script[1] = calcfix._propose_test("test_add.py", PLANTING_TEST.format(plant=plant))
    report = run_custom(calc_repo, work_root, script)
    assert report.outcome is RunOutcome.Resolved
    assert report.event_names == GOLDEN_EVENTS["resolved"]
    golden = (FIXTURES / "calc_golden.patch").read_text()
    assert report.final_diff.text == golden


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


def test_test_timeout_no_timer_can_hold_folds_into_unresolved(calc_repo, work_root):
    report = run_custom(
        calc_repo, work_root, calcfix.resolved_script(), test_timeout_s=float("inf")
    )
    assert report.outcome is RunOutcome.Unresolved
    assert report.event_names[-1] == "harness-error:ValueError"


def test_unremovable_reserved_dir_folds_into_unresolved(
    calc_repo, work_root, monkeypatch
):
    def refuse(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr(testkit.shutil, "rmtree", refuse)
    report = run_custom(calc_repo, work_root, calcfix.resolved_script())
    assert report.outcome is RunOutcome.Unresolved
    assert report.event_names[-1] == "harness-error:IoFailure"
    assert "reproduction-certified" not in report.event_names


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
    assert clone == report
    assert clone.final_diff.files_touched == 1
    assert clone.final_diff.hunk_count == 1


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
