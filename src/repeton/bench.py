"""Batch execution over a task list with outcome accounting.

Tasks come from a JSONL file, one object per line. Each task runs in
its own isolated workspace, so any parallelism degree produces the same
reports in the same (input) order. An optional per-task validation
command can confirm a Resolved outcome; it can only ever downgrade,
never upgrade. It runs through testkit's ``run_command``, as tests do.
``run_irv`` never raises, so a batch needs no fallback report.
"""

from __future__ import annotations

import json
import logging
import os
import shlex
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .agentio import Backend
from .errors import DuplicateId, EmptyBatch, ParseError, SpawnFailure
from .orchestrator import IrvConfig, RunOutcome, RunReport, _now, run_irv
from .testkit import run_command

logger = logging.getLogger(__name__)

VALIDATION_DEFAULT_TIMEOUT_S = 300.0

_REQUIRED_KEYS = ("instance_id", "repo_location", "base_revision", "problem_statement")


@dataclass(frozen=True)
class TaskInstance:
    instance_id: str
    repo_location: str
    base_revision: str
    problem_statement: str
    validation_command: str | None = None
    time_limit_s: float | None = None


@dataclass(frozen=True)
class BenchSummary:
    counts: dict[RunOutcome, int]
    total: int
    resolve_rate_percent: float

    def table_row(self) -> dict[str, int]:
        """Counts folded the way result tables usually report them:
        runs that never reproduced count as plain Unresolved."""
        return {
            "Resolved": self.counts[RunOutcome.Resolved],
            "Unresolved": self.counts[RunOutcome.Unresolved]
            + self.counts[RunOutcome.CannotReproduce],
            "Empty Patch": self.counts[RunOutcome.EmptyPatch],
            "Total": self.total,
        }

    def to_json_dict(self) -> dict:
        return {
            "counts": {outcome.value: n for outcome, n in self.counts.items()},
            "total": self.total,
            "resolve_rate_percent": self.resolve_rate_percent,
            "table_row": self.table_row(),
        }

    def render_table(self) -> str:
        """Aligned plain-text table over the folded counts plus the rate."""
        row = self.table_row()
        headers = list(row)
        values = [str(row[h]) for h in headers]
        widths = [max(len(h), len(v)) for h, v in zip(headers, values)]
        head = "  ".join(h.rjust(w) for h, w in zip(headers, widths))
        data = "  ".join(v.rjust(w) for v, w in zip(values, widths))
        return f"{head}\n{data}\nResolve rate: {self.resolve_rate_percent}%"


def load_tasks(path: str | os.PathLike) -> list[TaskInstance]:
    """Read a JSONL task file; every parse problem names its line."""
    tasks: list[TaskInstance] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            if not isinstance(data, dict):
                raise ParseError(f"{path}:{lineno}: expected an object")
            missing = [key for key in _REQUIRED_KEYS if key not in data]
            if missing:
                raise ParseError(
                    f"{path}:{lineno}: missing keys: {', '.join(missing)}"
                )
            instance_id = str(data["instance_id"])
            if instance_id in seen:
                raise DuplicateId(f"duplicate instance_id {instance_id!r}")
            seen.add(instance_id)
            tasks.append(
                TaskInstance(
                    instance_id=instance_id,
                    repo_location=str(data["repo_location"]),
                    base_revision=str(data["base_revision"]),
                    problem_statement=str(data["problem_statement"]),
                    validation_command=data.get("validation_command"),
                    time_limit_s=data.get("time_limit"),
                )
            )
    return tasks


def _validation_passes(task: TaskInstance, report: RunReport) -> bool:
    if not report.workspace_root:
        return False
    try:
        result = run_command(
            report.workspace_root,
            shlex.split(task.validation_command),
            task.time_limit_s or VALIDATION_DEFAULT_TIMEOUT_S,
        )
    except (OSError, SpawnFailure, ValueError, IndexError):
        return False
    return result.exit_code == 0 and not result.timed_out


def _run_one(task: TaskInstance, config: IrvConfig, backend: Backend) -> RunReport:
    report = run_irv(task, config, backend)
    if report.outcome is RunOutcome.Resolved and task.validation_command:
        if not _validation_passes(task, report):
            report.outcome = RunOutcome.Unresolved
            report.event_log.append((_now(), "validation-downgrade"))
            logger.info("[%s] validation command failed; downgraded", task.instance_id)
    return report


def run_bench(
    tasks: list[TaskInstance],
    parallelism: int,
    config: IrvConfig,
    backend: Backend,
) -> tuple[list[RunReport], BenchSummary]:
    """Run every task; reports come back in input order."""
    if not tasks:
        raise EmptyBatch("no tasks to run")
    if parallelism < 1:
        raise ValueError(f"parallelism must be >= 1, got {parallelism}")

    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        reports = list(
            pool.map(lambda task: _run_one(task, config, backend), tasks)
        )
    return reports, summarize_outcomes(reports)


def summarize_outcomes(reports: list[RunReport]) -> BenchSummary:
    """Count outcomes and compute the resolve rate (percent, 2 decimals)."""
    if not reports:
        raise EmptyBatch("no reports to summarize")
    counts = {outcome: 0 for outcome in RunOutcome}
    for report in reports:
        counts[report.outcome] += 1
    total = len(reports)
    rate = round(100.0 * counts[RunOutcome.Resolved] / total, 2)
    return BenchSummary(counts=counts, total=total, resolve_rate_percent=rate)
