"""The outer repair loop: summarize, reproduce, patch, validate.

A run starts by summarizing the problem statement into a short pinned
note, then tries to obtain a reproduction test that fails consistently
on the unpatched tree. Only then does the staged repair machine get to
work, one region edit per iteration, with the test re-run after every
pass. A run ends when the test passes, when a budget runs out (the last
applied patch is then accepted by default), or when the bug never
reproduced in the first place.

No exception escapes ``run_irv``; every failure folds into the run
report's outcome and event log.
"""

from __future__ import annotations

import logging
import shlex
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from typing import TYPE_CHECKING

from .agentio import (
    BackendParams,
    Backend,
    Conversation,
    Message,
    Session,
    assemble_prompt,
    parse_react,
    ReactTurn,
)
from .codemap import outline_file, render_outline, view_region
from .codesearch import make_query, match_files, render_match_tree
from .errors import (
    BudgetExhausted,
    EmptyQuery,
    HttpFailure,
    JudgeUnavailable,
    MalformedAction,
    RepetonError,
    UnknownAction,
)
from .patcher import STAGE_VOCABULARY, IcsrMachine, IcsrStage, RegionEdit
from .testkit import (
    DiagnosticReport,
    TestArtifact,
    TestVerdict,
    certify_failure,
    classify_result,
    materialize_test,
    run_test,
)
from .workspace import (
    DiffDocument,
    Snapshot,
    Workspace,
    compute_diff,
    open_workspace,
    restore_snapshot,
    take_snapshot,
)

if TYPE_CHECKING:
    from .bench import TaskInstance

logger = logging.getLogger(__name__)

SUMMARY_CHAR_CAP = 2000
MAX_TEST_VERSIONS = 3
REACT_RETRIES = 2
OBSERVATION_CAP = 4096

TESTING_VOCABULARY = ("propose_test",)

AGENT_CHARTER = """\
You are an automated bug-repair agent working on one repository.
You act in small steps. Every reply must end with exactly one fenced
action block of the form:

```action
{"thought": "<why>", "action": "<name>", "args": {"<key>": "<value>"}}
```

All args values are strings. Keep edits minimal: fix the reported bug,
nothing else. The harness tells you at every step which actions are
allowed; any other action is rejected."""

SUMMARIZER_INSTRUCTIONS = """\
Condense the bug report below for a repair agent. Reply with:

SUMMARY: <at most a short paragraph naming the faulty behavior>
SIGNATURE: <a short string expected verbatim in the failing test's stderr, \
such as an exception name; omit the line if unsure>"""

TEST_REQUEST = """\
Write a small script that reproduces the bug. It must exit non-zero while
the bug is present (an uncaught exception is fine) and exit zero once the
bug is fixed. The script runs from the repository root.

Action: propose_test with args:
  file_name    bare file name for the script (stored under the reserved
               test directory)
  source       full script text
  command      command line to run it, relative to the repository root"""

JUDGE_INSTRUCTIONS = """\
A reproduction test failed but the log matches no known pattern. Decide
whether the failure shows the reported bug (reply BUG) or a broken test
(reply INVALID). Reply with one word."""


class RunOutcome(Enum):
    Resolved = "Resolved"
    Unresolved = "Unresolved"
    EmptyPatch = "EmptyPatch"
    CannotReproduce = "CannotReproduce"


@dataclass(frozen=True)
class ProblemSummary:
    """Pinned digest of the problem statement (P_sum)."""

    summary_text: str
    expected_signature: str = ""
    degraded: bool = False

    def __post_init__(self) -> None:
        if len(self.summary_text) > SUMMARY_CHAR_CAP:
            raise ValueError(f"summary exceeds {SUMMARY_CHAR_CAP} chars")


@dataclass(frozen=True)
class IrvConfig:
    max_irv_iterations: int = 6
    max_llm_calls: int = 60
    wall_clock_budget_s: float = 1800.0
    window_k: int = 8
    max_stage_attempts: int = 3
    strict_reproduction: bool = True
    keep_first_passing: bool = False
    model_id: str = "deepseek-r1"
    temperature: float = 0.0
    max_tokens: int = 2048
    test_timeout_s: float = 120.0
    work_root: str | None = None

    def backend_params(self) -> BackendParams:
        return BackendParams(
            model_id=self.model_id,
            temperature=self.temperature,
            max_tokens=self.max_tokens,
        )


@dataclass
class RunReport:
    instance_id: str
    outcome: RunOutcome
    final_diff: DiffDocument
    iterations_used: int
    llm_calls_used: int
    duration_s: float
    event_log: list[tuple[str, str]]
    # Retained so a benchmark driver can run validation commands against
    # the patched tree; never serialized.
    workspace_root: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "instance_id": self.instance_id,
            "outcome": self.outcome.value,
            "diff": self.final_diff.text,
            "iterations": self.iterations_used,
            "llm_calls": self.llm_calls_used,
            "duration_s": self.duration_s,
            "events": [[ts, name] for ts, name in self.event_log],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> RunReport:
        return cls(
            instance_id=data["instance_id"],
            outcome=RunOutcome(data["outcome"]),
            final_diff=DiffDocument(data["diff"]),
            iterations_used=data["iterations"],
            llm_calls_used=data["llm_calls"],
            duration_s=data["duration_s"],
            event_log=[(ts, name) for ts, name in data["events"]],
        )

    @property
    def event_names(self) -> list[str]:
        return [name for _, name in self.event_log]


# ---- internal control-flow signals (never escape run_irv) ----
# BaseException, so that no ``except Exception`` on their way up, such as
# the judge wrap in ``classify_result``, can swallow them.

class _LlmBudgetExceeded(BaseException):
    pass


class _WallClockExceeded(BaseException):
    pass


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _clip(text: str, cap: int = OBSERVATION_CAP) -> str:
    return text if len(text) <= cap else text[:cap] + "\n[...truncated]"


# ---- problem summarization ----

def parse_summary_response(raw: str, statement: str) -> ProblemSummary:
    """Parse the SUMMARY/SIGNATURE grammar; fall back to the statement."""
    summary_lines: list[str] = []
    signature = ""
    collecting = False
    for line in raw.splitlines():
        if line.startswith("SIGNATURE:"):
            signature = line[len("SIGNATURE:"):].strip()
            collecting = False
        elif line.startswith("SUMMARY:"):
            summary_lines.append(line[len("SUMMARY:"):].strip())
            collecting = True
        elif collecting:
            summary_lines.append(line)
    summary = "\n".join(summary_lines).strip()[:SUMMARY_CHAR_CAP]
    if not summary:
        logger.warning("summarizer output unusable; falling back to statement")
        return ProblemSummary(
            summary_text=statement[:SUMMARY_CHAR_CAP],
            expected_signature="",
            degraded=True,
        )
    return ProblemSummary(summary_text=summary, expected_signature=signature)


def summarize_problem(
    statement: str, session: Session, params: BackendParams
) -> ProblemSummary:
    """One completion call turning the statement into a pinned summary."""
    prompt = [
        Message("system", SUMMARIZER_INSTRUCTIONS),
        Message("user", statement),
    ]
    raw = session.complete(prompt, params)
    return parse_summary_response(raw, statement)


# ---- run context ----

@dataclass
class _RunContext:
    instance_id: str
    config: IrvConfig
    # None until ``run_irv`` has opened the backend session.
    session: Session | None = None
    started: float = field(default_factory=time.monotonic)
    calls: int = 0
    conv: Conversation = field(default_factory=Conversation)
    ws: Workspace | None = None
    base_snapshot: Snapshot | None = None
    machine: IcsrMachine | None = None
    summary: ProblemSummary | None = None
    artifact: TestArtifact | None = None
    verified: bool = False
    iterations_used: int = 0
    first_candidate: DiffDocument | None = None
    events: list[tuple[str, str]] = field(default_factory=list)

    def note(self, name: str) -> None:
        self.events.append((_now(), name))
        logger.info("[%s] %s", self.instance_id, name)

    def complete(self, messages: list[Message], params: BackendParams) -> str:
        """One completion call, within the run's call and clock budgets."""
        if time.monotonic() > self.started + self.config.wall_clock_budget_s:
            raise _WallClockExceeded()
        if self.calls >= self.config.max_llm_calls:
            raise _LlmBudgetExceeded()
        self.calls += 1
        return self.session.complete(messages, params)

    def judge(self, excerpt: str) -> str:
        """Ask the model whether a failure log shows the bug or a broken
        test; testkit maps the label. An unreachable judge is noted and
        gives no label, which leaves the verdict Inconclusive. Until the
        repair machine exists the tree is the base tree: no diff to take."""
        patch = ""
        if self.machine is not None:
            patch = compute_diff(self.ws, self.base_snapshot).text
        prompt = [
            Message("system", JUDGE_INSTRUCTIONS),
            Message(
                "user",
                f"Log excerpt:\n{excerpt}\n\nCurrent patch:\n{_clip(patch)}",
            ),
        ]
        try:
            raw = self.complete(prompt, self.config.backend_params())
        except (JudgeUnavailable, HttpFailure):
            self.note("judge-unavailable")
            return ""
        words = raw.strip().split()
        return words[0] if words else ""


def _react_turn(
    run: _RunContext, vocabulary: tuple[str, ...], charge_machine: bool = False
) -> ReactTurn | None:
    """Prompt, complete and parse; retry twice on unusable replies.

    Returns None when every attempt was malformed. With
    ``charge_machine`` the failure also burns a stage attempt.
    """
    params = run.config.backend_params()
    for _ in range(REACT_RETRIES + 1):
        prompt = assemble_prompt(run.conv, run.config.window_k)
        raw = run.complete(prompt, params)
        run.conv.append("assistant", raw)
        try:
            return parse_react(raw, vocabulary)
        except (MalformedAction, UnknownAction) as exc:
            run.conv.append(
                "user",
                f"Rejected: {exc}. Reply with exactly one fenced ```action "
                f"block holding a JSON object with keys thought, action, "
                f"args. Allowed actions: {', '.join(vocabulary)}.",
            )
    run.note("malformed-action-budget")
    if charge_machine and run.machine is not None:
        run.machine.note_failed_attempt()
    return None


# ---- reproduction ----

def _propose_test(
    run: _RunContext, request: str, version: int
) -> TestArtifact | str | None:
    """Ask for one test version: its artifact, the reason it was
    rejected, or None when no reply held a usable action."""
    run.conv.append("user", request)
    turn = _react_turn(run, TESTING_VOCABULARY)
    if turn is None:
        return None
    source = turn.args.get("source", "")
    command = turn.args.get("command", "")
    name = turn.args.get("file_name") or f"repro_v{version}.py"
    if not source.strip():
        return "propose_test needs a non-empty source arg"
    invocation = tuple(shlex.split(command))
    if not invocation:
        return "propose_test needs a non-empty command arg"
    try:
        return TestArtifact(
            file_name=f".repeton_tests/{name}",
            source_text=source,
            invocation=invocation,
            expected_signature=run.summary.expected_signature,
            version=version,
        )
    except ValueError as exc:
        return f"rejected test artifact: {exc}"


def establish_reproduction(run: _RunContext) -> bool:
    """Try up to three test versions; True when one certifies.

    A certified test shows the bug, by signature or by the judge, on
    two consecutive runs of the unpatched tree. On failure
    ``run.artifact`` still holds the last materialized attempt, if any.
    """
    request = TEST_REQUEST
    for version in range(1, MAX_TEST_VERSIONS + 1):
        built = _propose_test(run, request, version)
        if built is None:
            request = TEST_REQUEST
            continue
        if isinstance(built, str):
            run.note(f"reproduction-attempt-{version}:rejected")
            request = f"{built}\n\n{TEST_REQUEST}"
            continue
        materialize_test(run.ws, built)
        run.artifact = built
        certified, verdicts = certify_failure(
            run.ws, built, run.config.test_timeout_s, judge=run.judge
        )
        if certified:
            run.note("reproduction-certified")
            run.conv.append(
                "user",
                "Reproduction test certified: it fails consistently with "
                "the expected signature on the unpatched tree.",
            )
            return True
        run.note(f"reproduction-attempt-{version}:failed")
        observed = ", ".join(v.value for v in verdicts)
        request = (
            f"That test did not certify (runs classified: {observed}). It "
            f"must fail on the current tree because of the bug itself.\n\n"
            f"{TEST_REQUEST}"
        )
    return False


def _refine_test(run: _RunContext, report: DiagnosticReport) -> None:
    """One mid-run test repair: propose, re-certify on the base tree."""
    request = (
        f"The reproduction test itself is broken (it no longer reports on "
        f"the bug). Log:\n{_clip(report.log_excerpt)}\n\n{TEST_REQUEST}"
    )
    built = _propose_test(run, request, run.artifact.version + 1)
    if built is None:
        run.note("refinement-failed")
        return
    if isinstance(built, str):
        run.note("refinement-rejected")
        run.conv.append("user", built)
        return

    materialize_test(run.ws, built)
    held = take_snapshot(run.ws, stage_label="pre-recertify")
    restore_snapshot(run.ws, run.base_snapshot)
    certified, _verdicts = certify_failure(
        run.ws, built, run.config.test_timeout_s, judge=run.judge
    )
    restore_snapshot(run.ws, held)
    if certified:
        run.artifact = built
        run.note("reproduction-recertified")
        run.conv.append("user", "Refined test certified; continuing.")
    else:
        materialize_test(run.ws, run.artifact)  # put the old version back
        run.note("refinement-rejected")
        run.conv.append(
            "user",
            "The refined test did not certify on the unpatched tree; "
            "keeping the previous version.",
        )


# ---- the staged repair pass ----

def _stage_message(run: _RunContext, observation: str) -> str:
    state = run.machine.state
    lines = [f"[stage: {state.stage.name}]"]
    if state.active_file:
        lines.append(f"[active file: {state.active_file}]")
    lines.append(observation)
    vocab = STAGE_VOCABULARY[state.stage]
    lines.append(f"Allowed actions: {', '.join(vocab)}.")
    return "\n".join(lines)


def _int_arg(args: dict[str, str], key: str) -> int:
    try:
        return int(args[key])
    except KeyError:
        raise ValueError(f"missing integer arg {key!r}") from None
    except ValueError:
        raise ValueError(f"arg {key!r} must be an integer") from None


def _parse_rollback_target(name: str) -> IcsrStage:
    wanted = name.replace("_", "").replace("-", "").lower()
    for stage in IcsrStage:
        if stage.name.lower() == wanted:
            return stage
    raise ValueError(f"unknown stage {name!r}")


def _outline_text(ws: Workspace, path: str) -> str:
    return _clip(render_outline(outline_file(ws, path)) or "(no definitions found)")


def _dispatch(run: _RunContext, turn: ReactTurn) -> tuple[str, bool]:
    """Execute one parsed action. Returns (observation, pass_finished)."""
    machine = run.machine
    ws = run.ws
    args = turn.args
    try:
        if turn.action == "set_keywords":
            query = make_query(args.get("keywords", "").split(","))
            machine.advance_stage(query)
            return f"Keywords registered: {', '.join(query.keywords)}.", False

        if turn.action == "search":
            matches = match_files(ws, machine.state.query)
            if not matches.entries:
                return (
                    "No files matched those keywords. Roll back to Keywords "
                    "and choose different ones.",
                    False,
                )
            machine.advance_stage(matches)
            tree = render_match_tree(matches, ws.root.name)
            return f"Matched files:\n{_clip(tree.text)}", False

        if turn.action == "open_outline":
            path = args.get("path", "")
            rendered = _outline_text(ws, path)
            machine.advance_stage(path)
            return f"Outline of {path}:\n{rendered}", False

        if turn.action == "view_region":
            if "target" in args:
                target: str | tuple[int, int] = args["target"]
            else:
                target = (_int_arg(args, "start"), _int_arg(args, "end"))
            region = view_region(ws, machine.state.active_file, target)
            if machine.state.stage is IcsrStage.Localize:
                machine.advance_stage(target)
            return f"Region {region.start_line}-{region.end_line}:\n{_clip(region.text)}", False

        if turn.action == "switch_file":
            path = args.get("path", "")
            machine.switch_active_file(path)
            return (
                f"Switched to {path}; pending modifications discarded.\n"
                f"Outline:\n{_outline_text(ws, path)}",
                False,
            )

        if turn.action == "edit_region":
            edit = RegionEdit(
                path=machine.state.active_file or "",
                start_line=_int_arg(args, "start"),
                end_line=_int_arg(args, "end"),
                replacement_text=args.get("replacement", ""),
            )
            diff = machine.apply_region_edit(edit)
            run.note("edit-applied")
            if run.config.keep_first_passing and run.first_candidate is None:
                cumulative = compute_diff(ws, run.base_snapshot)
                if not cumulative.is_empty:
                    run.first_candidate = cumulative
            return f"Edit applied. Diff:\n{_clip(diff.text)}", False

        if turn.action == "rollback":
            target_stage = _parse_rollback_target(args.get("stage", ""))
            reason = args.get("reason", "")
            machine.rollback_stage(target_stage, reason)
            run.note(f"rollback:{target_stage.name}")
            return f"Rolled back to {target_stage.name}. {reason}".rstrip(), False

        if turn.action == "done":
            return "", True

        return f"Action {turn.action!r} is not available here.", False
    except BudgetExhausted:
        raise
    except (RepetonError, ValueError) as exc:
        return f"Action failed: {exc}", False


_INITIAL_OBSERVATION = (
    "Begin a repair pass. Choose comma-separated search keywords that "
    "will locate the code responsible for the bug (action: set_keywords, "
    "args: {\"keywords\": \"...\"})."
)
# A later pass starts where the last one ended, past Keywords.
_RESUMED_OBSERVATION = (
    "Begin another repair pass from the current stage. Roll back to an "
    "earlier stage to look elsewhere."
)


def _drive_icsr_pass(run: _RunContext) -> None:
    """One pass of the staged machine, ending at the agent's done action."""
    run.machine.begin_iteration()
    at_start = run.machine.state.stage is IcsrStage.Keywords
    observation = _INITIAL_OBSERVATION if at_start else _RESUMED_OBSERVATION
    while True:
        run.conv.append("user", _stage_message(run, observation))
        turn = _react_turn(run, STAGE_VOCABULARY[run.machine.state.stage],
                           charge_machine=True)
        if turn is None:
            observation = "Still no usable action; follow the format exactly."
            continue
        observation, finished = _dispatch(run, turn)
        if finished:
            return


# ---- validation and the report ----

def _validate_patch(run: _RunContext) -> tuple[TestVerdict, DiagnosticReport | None]:
    result = run_test(run.ws, run.artifact, run.config.test_timeout_s)
    verdict, report = classify_result(
        result, run.summary.expected_signature, judge=run.judge
    )
    run.note(f"verdict:{verdict.value}")
    return verdict, report


def _report(
    run: _RunContext, passed: bool = False, outcome: RunOutcome | None = None
) -> RunReport:
    """The one place a run report is built.

    ``outcome`` fixes the outcome: ``CannotReproduce``, or ``Unresolved``
    after a harness error whatever the tree holds. Without it, ``passed``
    and the final diff decide. A failure to diff the tree is a harness
    error too: it is noted and the run ends Unresolved with no diff.
    """
    diff = DiffDocument("")
    if run.ws is not None and run.base_snapshot is not None:
        try:
            diff = compute_diff(run.ws, run.base_snapshot)
        except Exception as exc:  # noqa: BLE001 - contract: nothing escapes
            logger.exception("run %s: final diff failed", run.instance_id)
            run.note(f"harness-error:{type(exc).__name__}")
            outcome = RunOutcome.Unresolved

    if outcome is None:
        # Set only under keep_first_passing.
        if not passed and run.first_candidate is not None:
            diff = run.first_candidate
            run.note("kept-first-candidate")
        if passed and not diff.is_empty:
            outcome = RunOutcome.Resolved
            run.note("resolved")
        elif diff.is_empty:
            outcome = RunOutcome.EmptyPatch
            run.note("empty-patch")
        else:
            outcome = RunOutcome.Unresolved
            run.note("unresolved:last-patch-accepted")

    return RunReport(
        instance_id=run.instance_id,
        outcome=outcome,
        final_diff=diff,
        iterations_used=run.iterations_used,
        llm_calls_used=run.calls,
        duration_s=time.monotonic() - run.started,
        event_log=run.events,
        workspace_root=str(run.ws.root) if run.ws else None,
    )


# ---- the loop ----

def run_irv(task: "TaskInstance", config: IrvConfig, backend: Backend) -> RunReport:
    """Run the full loop for one task. Never raises."""
    run = _RunContext(instance_id=task.instance_id, config=config)

    try:
        run.session = backend.session()
        run.ws = open_workspace(
            task.repo_location,
            task.base_revision,
            task.instance_id,
            work_root=config.work_root,
        )
        run.base_snapshot = take_snapshot(run.ws, stage_label="base")
        run.note("workspace-opened")

        run.conv.append("system", AGENT_CHARTER, pinned=True)
        run.summary = summarize_problem(
            task.problem_statement, run, config.backend_params()
        )
        if run.summary.degraded:
            run.note("summary-degraded")
        signature = run.summary.expected_signature or "(none)"
        run.conv.append(
            "user",
            f"Problem summary (pinned):\n{run.summary.summary_text}\n"
            f"Expected failure signature: {signature}",
            pinned=True,
        )
        run.note("summary-pinned")

        run.verified = establish_reproduction(run)
        if not run.verified:
            if config.strict_reproduction:
                run.note("cannot-reproduce")
                return _report(run, outcome=RunOutcome.CannotReproduce)
            run.note("unverified-reproduction")
            run.conv.append(
                "user",
                "No certified reproduction test exists. Proceed carefully; "
                "patches cannot be validated automatically.",
            )

        run.machine = IcsrMachine(
            run.ws, run.conv, max_stage_attempts=config.max_stage_attempts
        )

        for iteration in range(1, config.max_irv_iterations + 1):
            run.iterations_used = iteration
            run.note(f"iteration-{iteration}")
            _drive_icsr_pass(run)
            if run.artifact is None:
                continue  # no test was ever written: nothing validates

            verdict, report = _validate_patch(run)
            if verdict is TestVerdict.Pass and run.verified:
                return _report(run, passed=True)
            if verdict is TestVerdict.FailInvalidTest:
                _refine_test(run, report)
            elif report is not None:
                run.conv.append(
                    "user",
                    f"Patch validation failed ({verdict.value}). "
                    f"{report.suggestion}\nLog:\n{_clip(report.log_excerpt)}",
                )

        run.note("budget-exhausted:iterations")
    except _LlmBudgetExceeded:
        run.note("budget-exhausted:llm-calls")
    except _WallClockExceeded:
        run.note("budget-exhausted:wall-clock")
    except BudgetExhausted:
        run.note("budget-exhausted:stage-attempts")
    except Exception as exc:  # noqa: BLE001 - contract: nothing escapes
        logger.exception("run %s crashed", task.instance_id)
        run.note(f"harness-error:{type(exc).__name__}")
        return _report(run, outcome=RunOutcome.Unresolved)
    return _report(run)
