"""Failure taxonomy shared across the harness.

Every operation that can fail raises one of these instead of leaking
subprocess or OS errors to callers. The orchestrator catches the base
class and folds failures into the run report; ``BudgetExhausted``, the
one signal that stops a run, is not a ``RepetonError``.
"""

from __future__ import annotations


class RepetonError(Exception):
    """Base class for all harness failures."""


# ---- workspace ----

class LocationUnavailable(RepetonError):
    """Repository location does not exist or cannot be cloned."""


class RevisionNotFound(RepetonError):
    """Base revision is unknown to the repository."""


class DirtyTarget(RepetonError):
    """Isolation directory already holds files."""


class IoFailure(RepetonError):
    """Underlying filesystem operation failed."""


class ForeignSnapshot(RepetonError):
    """Snapshot belongs to a different workspace."""


class PathEscape(RepetonError):
    """Path is absolute or leads out of the workspace."""


# ---- codesearch ----

class EmptyQuery(RepetonError):
    """Keyword query contains no usable tokens."""


# ---- codemap ----

class NotText(RepetonError):
    """File content is not decodable text."""


class SymbolNotFound(RepetonError):
    """Qualified name is absent from the file outline."""


class RangeOutOfBounds(RepetonError):
    """Requested line range falls outside the file."""


# ---- patcher ----

class StageIncomplete(RepetonError):
    """Evidence does not complete the current stage."""


class AtFinalStage(RepetonError):
    """No stage follows Edit."""


class ForwardRollback(RepetonError):
    """Rollback target is not strictly earlier than the current stage."""


class BudgetExhausted(BaseException):
    """A run budget, named by ``budget``, is used up. A ``BaseException``,
    so that no ``except Exception`` on its way up can swallow it."""

    def __init__(self, message: str = "", budget: str = "stage-attempts") -> None:
        super().__init__(message)
        self.budget = budget


class SecondEditInIteration(RepetonError):
    """An un-reset edit already exists in this iteration."""


class SpanOutOfBounds(RepetonError):
    """Edit span falls outside the target file."""


class FileMismatch(RepetonError):
    """Edit path differs from the active file."""


class FileNotFound(RepetonError):
    """Referenced path is absent from the workspace."""


# ---- testkit ----

class SpawnFailure(RepetonError):
    """Test process could not be started."""


# ---- agentio ----

class MalformedAction(RepetonError):
    """Model output does not contain a valid action block."""


class UnknownAction(RepetonError):
    """Action name is outside the stage vocabulary."""


class HttpFailure(RepetonError):
    """Chat completion endpoint kept failing after retries."""


class ReplayMismatch(RepetonError):
    """No recorded response matches the request digest."""


class ContextOverflow(RepetonError):
    """Prompt plus completion budget exceeds the model context."""


# ---- bench ----

class ParseError(RepetonError):
    """Task file line could not be parsed."""


class DuplicateId(RepetonError):
    """Two tasks share an instance id."""


class EmptyBatch(RepetonError):
    """Task list or report directory is empty."""
