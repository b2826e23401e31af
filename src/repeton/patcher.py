"""The staged code-search-and-repair state machine.

One repair pass walks five stages in a fixed order: pick keywords, find
candidate files, outline one, localize a region, edit it. Entering a
stage checkpoints both the workspace and the conversation, so revisiting
an earlier stage restores the exact tree bytes and trims the dialogue to
the same moment. Re-entry per stage is budgeted; when the budget runs
out the machine refuses further resets and the caller must settle for
what it has.

Only one region may be edited per iteration, and looking at a different
file throws away pending modifications. Both rules exist to keep
patches small.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from enum import IntEnum

from .codesearch import KeywordQuery, MatchSet
from .errors import (
    AtFinalStage,
    BudgetExhausted,
    FileMismatch,
    FileNotFound,
    ForwardRollback,
    SecondEditInIteration,
    SpanOutOfBounds,
    StageIncomplete,
)
from .agentio import Conversation
from .workspace import (
    DiffDocument,
    Snapshot,
    Workspace,
    confined_path,
    file_diff,
    restore_snapshot,
    take_snapshot,
)

logger = logging.getLogger(__name__)

DEFAULT_MAX_STAGE_ATTEMPTS = 3


class IcsrStage(IntEnum):
    Keywords = 1
    FileSearch = 2
    Outline = 3
    Localize = 4
    Edit = 5


# What the model may do at each stage. ``rollback`` targets any earlier
# stage; ``done`` ends the pass and hands over to test validation.
STAGE_VOCABULARY: dict[IcsrStage, tuple[str, ...]] = {
    IcsrStage.Keywords: ("set_keywords",),
    IcsrStage.FileSearch: ("search", "rollback"),
    IcsrStage.Outline: ("open_outline", "rollback"),
    IcsrStage.Localize: ("view_region", "switch_file", "rollback"),
    IcsrStage.Edit: ("view_region", "edit_region", "switch_file", "rollback", "done"),
}


@dataclass(frozen=True)
class StageCheckpoint:
    """The tree and the conversation length at one stage entry."""

    snapshot: Snapshot
    message_count: int


@dataclass(frozen=True)
class RegionEdit:
    """Replace lines ``start_line..end_line`` (inclusive) of one file."""

    path: str
    start_line: int
    end_line: int
    replacement_text: str

    def __post_init__(self) -> None:
        if self.start_line < 1 or self.end_line < self.start_line:
            raise ValueError(
                f"bad span {self.start_line}-{self.end_line} for {self.path}"
            )


@dataclass
class IcsrState:
    stage: IcsrStage = IcsrStage.Keywords
    active_file: str | None = None
    query: KeywordQuery | None = None
    attempts: dict[IcsrStage, int] = field(default_factory=dict)
    checkpoints: dict[IcsrStage, StageCheckpoint] = field(default_factory=dict)
    edit_applied: bool = False


class IcsrMachine:
    """Drives one workspace/conversation pair through the repair stages."""

    def __init__(
        self,
        ws: Workspace,
        conv: Conversation,
        max_stage_attempts: int = DEFAULT_MAX_STAGE_ATTEMPTS,
    ) -> None:
        if max_stage_attempts < 1:
            raise ValueError("max_stage_attempts must be >= 1")
        self.ws = ws
        self.conv = conv
        self.max_stage_attempts = max_stage_attempts
        self.state = IcsrState()
        self._enter(IcsrStage.Keywords)

    # ---- stage bookkeeping ----

    def _charge(self, stage: IcsrStage) -> None:
        """Spend one attempt of ``stage``, or refuse before anything else
        happens once its budget is used up."""
        used = self.state.attempts.get(stage, 0)
        if used >= self.max_stage_attempts:
            raise BudgetExhausted(
                f"stage {stage.name} exhausted its {self.max_stage_attempts} attempts"
            )
        self.state.attempts[stage] = used + 1

    def _enter(self, stage: IcsrStage) -> None:
        self._charge(stage)
        snapshot = take_snapshot(self.ws, stage_label=stage.name)
        self.state.checkpoints[stage] = StageCheckpoint(snapshot, len(self.conv))
        self.state.stage = stage
        logger.debug(
            "entered stage %s (attempt %d)", stage.name, self.state.attempts[stage]
        )

    def begin_iteration(self) -> None:
        """Arm the machine for one more edit in a fresh outer iteration."""
        self.state.edit_applied = False

    def note_failed_attempt(self) -> None:
        """Charge a non-stage-transition failure against the current stage."""
        self._charge(self.state.stage)

    # ---- transitions ----

    def advance_stage(self, evidence: object) -> IcsrState:
        """Move to the next stage once ``evidence`` completes the current one.

        Keywords needs a KeywordQuery, FileSearch a non-empty MatchSet,
        Outline an existing file path, Localize a symbol name or line
        range.
        """
        stage = self.state.stage
        if stage is IcsrStage.Edit:
            raise AtFinalStage("no stage follows Edit")

        if stage is IcsrStage.Keywords:
            if not isinstance(evidence, KeywordQuery):
                raise StageIncomplete("Keywords stage needs a KeywordQuery")
            self._enter(IcsrStage.FileSearch)
            self.state.query = evidence
        elif stage is IcsrStage.FileSearch:
            if not isinstance(evidence, MatchSet) or not evidence.entries:
                raise StageIncomplete("FileSearch stage needs a non-empty MatchSet")
            self._enter(IcsrStage.Outline)
        elif stage is IcsrStage.Outline:
            path = evidence if isinstance(evidence, str) else None
            if path is None or not confined_path(self.ws, path).is_file():
                raise StageIncomplete(
                    f"Outline stage needs an existing file path, got {evidence!r}"
                )
            self._enter(IcsrStage.Localize)
            self.state.active_file = evidence
        else:  # Localize
            if not isinstance(evidence, (str, tuple)) or not evidence:
                raise StageIncomplete(
                    "Localize stage needs a symbol name or line range"
                )
            self._enter(IcsrStage.Edit)
        return self.state

    def rollback_stage(self, target: IcsrStage, justification: str) -> IcsrState:
        """Restore workspace and conversation to ``target``'s entry point."""
        state = self.state
        if target >= state.stage:
            raise ForwardRollback(
                f"rollback target {target.name} is not earlier than {state.stage.name}"
            )
        self._charge(target)
        checkpoint = state.checkpoints[target]
        restore_snapshot(self.ws, checkpoint.snapshot)
        self.conv.truncate(checkpoint.message_count)
        for stage in list(state.checkpoints):
            if stage > target:
                del state.checkpoints[stage]
        state.stage = target
        state.edit_applied = False
        if target < IcsrStage.Localize:
            state.active_file = None
        if target is IcsrStage.Keywords:
            state.query = None
        logger.info("rolled back to %s: %s", target.name, justification)
        return state

    def switch_active_file(self, new_path: str) -> IcsrState:
        """Refocus on another file, discarding pending modifications.

        Works from Localize or Edit; drops back to Localize either way,
        with the tree reset to the state it had when Edit was entered.
        """
        state = self.state
        if state.stage not in (IcsrStage.Localize, IcsrStage.Edit):
            raise StageIncomplete(
                f"cannot switch files during {state.stage.name}"
            )
        if not confined_path(self.ws, new_path).is_file():
            raise FileNotFound(f"no such file in workspace: {new_path}")

        reset_to = state.checkpoints.get(IcsrStage.Edit) or state.checkpoints[
            IcsrStage.Localize
        ]
        restore_snapshot(self.ws, reset_to.snapshot)
        state.checkpoints.pop(IcsrStage.Edit, None)
        state.stage = IcsrStage.Localize
        state.active_file = new_path
        state.edit_applied = False
        return state

    # ---- editing ----

    def apply_region_edit(self, edit: RegionEdit) -> DiffDocument:
        """Apply one region replacement and return its isolated diff."""
        state = self.state
        if state.stage is not IcsrStage.Edit:
            raise StageIncomplete("edits are only legal in the Edit stage")
        if edit.path != state.active_file:
            raise FileMismatch(
                f"edit targets {edit.path!r} but active file is {state.active_file!r}"
            )
        if state.edit_applied:
            raise SecondEditInIteration(
                "an edit is already pending in this iteration"
            )

        target = confined_path(self.ws, edit.path)
        old_bytes = target.read_bytes()
        content = old_bytes.decode("utf-8", errors="surrogateescape")
        lines = content.splitlines(keepends=True)
        if edit.end_line > len(lines):
            raise SpanOutOfBounds(
                f"span {edit.start_line}-{edit.end_line} outside "
                f"{edit.path} (1-{len(lines)})"
            )

        replacement = edit.replacement_text
        if replacement and not replacement.endswith("\n"):
            replacement += "\n"
        new_lines = lines[: edit.start_line - 1]
        if replacement:
            new_lines.extend(replacement.splitlines(keepends=True))
        new_lines.extend(lines[edit.end_line:])
        new_bytes = "".join(new_lines).encode("utf-8", errors="surrogateescape")
        target.write_bytes(new_bytes)

        state.edit_applied = True
        return file_diff(edit.path, old_bytes, new_bytes)
