"""Seeded inputs and the closed loops that replay them through repeton.

Every workload is a closed loop driven from one process: the next task
starts only after the previous one (or, for the batch, the previous
batch) has finished. Model latency is zero because every completion is
replayed from a transcript, so what is timed is the harness itself.

The workload seed only shapes the generated filler files; the calc repo,
the transcripts and the expected results are the ones the test suite
freezes.
"""

from __future__ import annotations

import itertools
import os
import resource
import shutil
import subprocess
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterator

import calcfix
from repeton.agentio import RecordingBackend, ReplayBackend
from repeton.bench import TaskInstance, run_bench
from repeton.codesearch import make_query, match_files, render_match_tree
from repeton.orchestrator import IrvConfig, RunReport, run_irv
from repeton.workspace import open_workspace

import padding

FIXTURES = calcfix.TRANSCRIPT_DIR.parent
GOLDEN_PATCH = FIXTURES / "calc_golden.patch"
UNRESOLVED_PATCH = FIXTURES / "calc_unresolved.patch"

TREE_FILES = 2_000
LARGE_MODULE_LINES = 15_000
BATCH_PARALLELISM = 2


class SetupError(Exception):
    """The generated inputs would not exercise what the workload claims."""


@dataclass(frozen=True)
class Expected:
    outcome: str
    events: tuple[str, ...]
    diff: str


@dataclass(frozen=True)
class Job:
    """One task kind of a workload: its replay backend and frozen result."""

    name: str
    statement: str
    overrides: dict
    backend: object
    expected: Expected


@dataclass
class TaskRecord:
    instance_id: str
    seconds: float
    disk_bytes: int
    failure: str | None


@dataclass
class Cycle:
    """What one closed-loop cycle finished, and the wall and CPU time
    spent inside repeton's own entry point (``run_irv``/``run_bench``)."""

    records: list[TaskRecord]
    busy_s: float
    cpu_s: float


# Per-layer metrics every traced task must reach on average. A layer
# whose public functions stop being called, or stop being wrapped, reports
# 0 calls and fails the run.
COMMON_FLOORS = {
    "workspace.open.calls": 1,
    "workspace.snapshot.calls": 1,
    "testkit.run.calls": 1,
    "agentio.complete.calls": 1,
}


@dataclass
class Prepared:
    """Everything a workload needs after set-up."""

    repo: Path
    jobs: list[Job]
    # Per-layer metrics the traced run must reach per task, so the
    # workload cannot silently stop exercising a layer.
    floors: dict[str, float]


# ---- repositories ----

def _git(repo: Path, *args: str) -> str:
    done = subprocess.run(
        ["git", "-C", str(repo), *args], check=True, capture_output=True, text=True
    )
    return done.stdout.strip()


def build_padded_repo(
    where: Path, seed: int, pad_files: int, large: bytes | None = None
) -> Path:
    """The calc repo plus one commit holding ``pad_files`` seeded files.

    The padding commit is streamed through ``git fast-import`` so set-up
    writes one pack instead of one file per blob.
    """
    repo = calcfix.build_calc_repo(where)
    branch = _git(repo, "symbolic-ref", "HEAD")
    message = b"padding\n"
    with subprocess.Popen(
        ["git", "-C", str(repo), "fast-import", "--quiet"], stdin=subprocess.PIPE
    ) as proc:
        out = proc.stdin

        def put(rel: str, data: bytes) -> None:
            out.write(f"M 100644 inline {rel}\ndata {len(data)}\n".encode())
            out.write(data)
            out.write(b"\n")

        out.write(
            f"commit {branch}\ncommitter dev <dev@example.com> 1700000000 +0000\n"
            f"data {len(message)}\n".encode()
            + message
            + f"from {branch}^0\n".encode()
        )
        for rel, data in padding.padding_files(pad_files, seed):
            put(rel, data)
        if large is not None:
            put(padding.LARGE_PATH, large)
        out.write(b"\n")
        out.close()
    if proc.returncode != 0:
        raise SetupError(f"git fast-import exited with {proc.returncode}")
    return repo


def check_search_unchanged(
    recorded: Path, padded: Path, keywords: tuple[str, ...], workdir: Path
) -> None:
    """A transcript's search must render the same on the repo it was
    recorded against and on the padded repo it replays against.

    Request digests cover the rendered match tree, so any filler file
    that matched the recorded keywords would break replay. The check
    also clones and searches the padded repo once, which warms the page
    cache the measured clones read from.
    """
    query = make_query(keywords)
    rendered = []
    for name, repo in (("recorded", recorded), ("padded", padded)):
        ws = open_workspace(str(repo), "HEAD", f"search-check-{name}", work_root=workdir)
        rendered.append(render_match_tree(match_files(ws, query), ws.root.name).text)
        shutil.rmtree(ws.control_dir)
    if rendered[0] != rendered[1]:
        raise SetupError(
            "padding changed the bundled search result:\n"
            f"{rendered[0]}\n--- versus ---\n{rendered[1]}"
        )


# ---- expectations ----

def fixture_expectations() -> dict[str, Expected]:
    """Frozen outcome, events and diff of each bundled scenario."""
    diffs = {
        "resolved": GOLDEN_PATCH.read_text(),
        "unresolved": UNRESOLVED_PATCH.read_text(),
        "empty_patch": "",
        "cannot_reproduce": "",
    }
    return {
        name: Expected(
            calcfix.GOLDEN_OUTCOMES[name], tuple(calcfix.GOLDEN_EVENTS[name]), diffs[name]
        )
        for name in calcfix.SCRIPTS
    }


def failure_of(report: RunReport, expected: Expected) -> str | None:
    """Why a finished task does not count as correct, or None."""
    names = tuple(report.event_names)
    crashed = [name for name in names if name.startswith("harness-error")]
    if crashed:
        return crashed[0]
    if report.outcome.value != expected.outcome:
        return f"outcome {report.outcome.value}, expected {expected.outcome}"
    if names != expected.events:
        return f"events {list(names)}, expected {list(expected.events)}"
    if report.final_diff.text != expected.diff:
        return "final diff differs from the frozen patch"
    return None


# ---- the rollback script ----

ROLLBACK_EVENTS = (
    "workspace-opened",
    "summary-pinned",
    "reproduction-certified",
    "iteration-1",
    "edit-applied",
    "rollback:Outline",
    "edit-applied",
    "edit-applied",
    "verdict:Pass",
    "resolved",
)
# Per task: the rollback plus two file switches restore the tree, and the
# large module is parsed by two outlines and two views.
ROLLBACK_MIN_RESTORES = 3
ROLLBACK_MIN_PARSED_LINES = 4 * LARGE_MODULE_LINES


def rollback_script(edit_line: int) -> list[str]:
    """A session that edits the large module, rolls back, edits calc.py
    wrongly, switches files twice and then lands the golden fix.

    Edit is entered three times, the default stage budget.
    """
    act = calcfix.action
    big = padding.LARGE_PATH
    return [
        calcfix.SUMMARY_REPLY,
        act(
            "write a failing check for add",
            "propose_test",
            file_name="test_add.py",
            source=calcfix.TEST_SOURCE,
            command=f"{calcfix.PYTHON} .repeton_tests/test_add.py",
        ),
        act("look for the adder and the planner", "set_keywords",
            keywords=", ".join(padding.ROLLBACK_KEYWORDS)),
        act("scan the tree", "search"),
        act("the planner looks central", "open_outline", path=big),
        act("read the window logic", "view_region",
            target=f"{padding.LARGE_CLASS}.{padding.LARGE_METHOD}"),
        act("read the merge helper", "view_region",
            start=str(edit_line - 2), end=str(edit_line)),
        act("keep duplicates", "edit_region", start=str(edit_line),
            end=str(edit_line), replacement="    return sorted(merged)"),
        act("wrong module", "rollback", stage="Outline",
            reason="the planner is unrelated to the sum"),
        act("inspect the calculator module", "open_outline", path="calc.py"),
        act("read the add function", "view_region", target="add"),
        act("adjust the constant", "edit_region", start="5", end="5",
            replacement="    return a + b + 2"),
        act("compare with the planner", "switch_file", path=big),
        act("back to the calculator", "switch_file", path="calc.py"),
        act("read the add function again", "view_region", target="add"),
        act("drop the stray +1", "edit_region", start="5", end="5",
            replacement="    return a + b"),
        act("patch is in, hand over to validation", "done"),
    ]


# ---- running tasks ----

def disk_bytes(path: Path) -> int:
    """Apparent size of everything under ``path``, each inode once."""
    seen: set[tuple[int, int]] = set()
    total = 0
    for dirpath, dirnames, filenames in os.walk(path):
        for name in dirnames + filenames:
            info = os.lstat(os.path.join(dirpath, name))
            key = (info.st_dev, info.st_ino)
            if key not in seen:
                seen.add(key)
                total += info.st_size
    return total


def _task(job: Job, repo: Path, instance_id: str) -> TaskInstance:
    return TaskInstance(
        instance_id=instance_id,
        repo_location=str(repo),
        base_revision="HEAD",
        problem_statement=job.statement,
    )


def _settle(job: Job, report: RunReport, seconds: float, work_root: Path) -> TaskRecord:
    """Check a finished task, record its disk use, then delete its files."""
    control_dir = work_root / report.instance_id
    size = disk_bytes(control_dir)
    shutil.rmtree(control_dir, ignore_errors=True)
    return TaskRecord(report.instance_id, seconds, size, failure_of(report, job.expected))


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _timed(call: Callable[[], object]) -> tuple[object, float, float]:
    """``call()``, its wall seconds, and the user+sys CPU seconds of this
    process (all threads, child processes excluded) while it ran."""
    cpu = _cpu_seconds()
    start = time.perf_counter()
    result = call()
    return result, time.perf_counter() - start, _cpu_seconds() - cpu


def run_sequential(prepared: Prepared, work_root: Path, ids: Iterator[int]) -> Cycle:
    """One cycle: every job once, one after another."""
    cycle = Cycle([], 0.0, 0.0)
    for job in prepared.jobs:
        config = replace(IrvConfig(work_root=str(work_root)), **job.overrides)
        task = _task(job, prepared.repo, f"{job.name}-{next(ids):05d}")
        report, wall, cpu = _timed(lambda: run_irv(task, config, job.backend))
        cycle.busy_s += wall
        cycle.cpu_s += cpu
        cycle.records.append(_settle(job, report, wall, work_root))
    return cycle


def run_batch(prepared: Prepared, work_root: Path, ids: Iterator[int]) -> Cycle:
    """One ``run_bench`` batch over all jobs. A task's time is its own
    ``run_irv`` span as the run report gives it."""
    jobs = prepared.jobs
    tasks = [_task(job, prepared.repo, f"{job.name}-{next(ids):05d}") for job in jobs]
    config = IrvConfig(work_root=str(work_root))
    # All jobs share one backend: the bench transcript interleaves them.
    (reports, _summary), wall, cpu = _timed(
        lambda: run_bench(tasks, BATCH_PARALLELISM, config, jobs[0].backend))
    records = [
        _settle(job, report, report.duration_s, work_root)
        for job, report in zip(jobs, reports)
    ]
    return Cycle(records, wall, cpu)


# ---- workloads ----

@dataclass(frozen=True)
class Workload:
    setup: Callable[[int, Path], Prepared]
    cycle: Callable[[Prepared, Path, Iterator[int]], Cycle]


def _fixture_jobs(names: tuple[str, ...]) -> list[Job]:
    expected = fixture_expectations()
    return [
        Job(
            name=name,
            statement=calcfix.DEFAULT_STATEMENT,
            overrides=calcfix.SCENARIO_OVERRIDES[name],
            backend=ReplayBackend(calcfix.TRANSCRIPT_DIR / f"{name}.jsonl"),
            expected=expected[name],
        )
        for name in names
    ]


def setup_calc(seed: int, workdir: Path) -> Prepared:
    """The calc repo, warmed up by one checked replay of every transcript
    (the other workloads warm up through their search check or recording)."""
    repo = calcfix.build_calc_repo(workdir)
    # Three of the four transcripts search and outline; cannot_reproduce
    # stops before either.
    floors = {**COMMON_FLOORS, "codesearch.match.calls": 0.75, "codemap.outline.calls": 0.75}
    prepared = Prepared(repo, _fixture_jobs(tuple(calcfix.SCRIPTS)), floors)
    warm_up = run_sequential(prepared, workdir / "warm-up", itertools.count(1))
    failures = [f"{r.instance_id}: {r.failure}" for r in warm_up.records if r.failure]
    if failures:
        raise SetupError(f"warm-up replay failed: {failures}")
    return prepared


def setup_batch(seed: int, workdir: Path) -> Prepared:
    bare = calcfix.build_calc_repo(workdir / "bare")
    repo = build_padded_repo(workdir / "padded", seed, TREE_FILES)
    check_search_unchanged(bare, repo, padding.FIXTURE_KEYWORDS, workdir / "check")
    backend = ReplayBackend(calcfix.TRANSCRIPT_DIR / "bench4.jsonl")
    resolved = fixture_expectations()["resolved"]
    jobs = [
        Job(f"bench{index}", statement, {}, backend, resolved)
        for index, statement in enumerate(calcfix.BENCH_STATEMENTS, start=1)
    ]
    floors = {**COMMON_FLOORS, "codesearch.match.calls": 1, "codemap.outline.calls": 1}
    return Prepared(repo, jobs, floors)


def setup_rollback(seed: int, workdir: Path) -> Prepared:
    """Record the rollback script on the calc repo plus the large module;
    replay it on the same repo padded with filler files."""
    edit_line, text = padding.large_module(LARGE_MODULE_LINES, seed)
    unpadded = build_padded_repo(workdir / "unpadded", seed, 0, text)
    repo = build_padded_repo(workdir / "padded", seed, TREE_FILES, text)
    check_search_unchanged(unpadded, repo, padding.ROLLBACK_KEYWORDS, workdir / "check")

    expected = Expected("Resolved", ROLLBACK_EVENTS, GOLDEN_PATCH.read_text())
    transcript = workdir / "rollback.jsonl"
    recorder = RecordingBackend(
        calcfix.ScriptedBackend(rollback_script(edit_line)), transcript
    )
    job = Job("rollback", calcfix.DEFAULT_STATEMENT, {}, recorder, expected)
    report = run_irv(_task(job, unpadded, "rollback-recording"), IrvConfig(
        work_root=str(workdir / "recording")), recorder)
    failure = failure_of(report, expected)
    if failure:
        raise SetupError(f"rollback script did not record as frozen: {failure}")
    shutil.rmtree(workdir / "recording")
    job = replace(job, backend=ReplayBackend(transcript))
    floors = {
        **COMMON_FLOORS,
        "codesearch.match.calls": 1,
        "workspace.restore.calls": ROLLBACK_MIN_RESTORES,
        "codemap.lines_parsed": ROLLBACK_MIN_PARSED_LINES,
    }
    return Prepared(repo, [job], floors)


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "calc-replay": Workload(setup_calc, run_sequential),
    "batch-2k-p2": Workload(setup_batch, run_batch),
    "rollback-2k": Workload(setup_rollback, run_sequential),
}
