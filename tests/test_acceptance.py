"""Acceptance gate: nine end-to-end criteria with pinned tolerances.

One test per criterion. Each prints a single verdict line (visible with
-s; the -v listing mirrors it) and enforces the stated time budget where
one exists. Everything runs offline: live traffic is replayed from the
recorded transcripts under fixtures/transcripts.
"""

from __future__ import annotations

import json
import random
import socket
import time
from contextlib import contextmanager
from pathlib import Path

import calcfix
import oracles
import properties
from calcfix import GOLDEN_EVENTS, make_task, scenario_config
from repeton.agentio import (
    BackendParams,
    Conversation,
    LiveBackend,
    Message,
    ReplayBackend,
    assemble_prompt,
)
from repeton.bench import run_bench, summarize_outcomes
from repeton.codemap import parse_outline
from repeton.errors import ContextOverflow
from repeton.orchestrator import IrvConfig, RunOutcome, RunReport, run_irv
from repeton.patcher import IcsrMachine
from repeton.workspace import DiffDocument

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"
TRANSCRIPTS = FIXTURES / "transcripts"

PKG_SRC = HERE.parent / "src" / "repeton"


@contextmanager
def criterion(number: int, label: str, budget_s: float | None = None):
    started = time.perf_counter()
    yield
    elapsed = time.perf_counter() - started
    if budget_s is not None:
        assert elapsed < budget_s, (
            f"criterion {number} took {elapsed:.2f}s, budget {budget_s}s"
        )
    print(f"criterion {number} PASS: {label} ({elapsed:.2f}s)")


def replay_scenario(name: str, calc_repo, work_root, backend=None) -> RunReport:
    if backend is None:
        backend = ReplayBackend(TRANSCRIPTS / f"{name}.jsonl")
    task = make_task(f"calc-{name}", calc_repo)
    return run_irv(task, scenario_config(name, work_root), backend)


def blank_report(instance_id: str, outcome: RunOutcome) -> RunReport:
    return RunReport(
        instance_id=instance_id,
        outcome=outcome,
        final_diff=DiffDocument(text=""),
        iterations_used=0,
        llm_calls_used=0,
        duration_s=0.0,
        event_log=[],
    )


def test_criterion_1_outcome_arithmetic():
    with criterion(1, "outcome arithmetic (35/113/152/0)", budget_s=1.0):
        reports = (
            [blank_report(f"r{i}", RunOutcome.Resolved) for i in range(35)]
            + [blank_report(f"u{i}", RunOutcome.Unresolved) for i in range(113)]
            + [blank_report(f"e{i}", RunOutcome.EmptyPatch) for i in range(152)]
        )
        summary = summarize_outcomes(reports)
        assert summary.total == 300
        assert summary.resolve_rate_percent == 11.67
        assert summary.table_row() == {
            "Resolved": 35,
            "Unresolved": 113,
            "Empty Patch": 152,
            "Total": 300,
        }


def test_criterion_2_golden_end_to_end(calc_repo, work_root, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("network touched during a replay run")

    monkeypatch.setattr(socket, "socket", refuse)
    with criterion(2, "resolved replay, byte-identical patch, offline",
                   budget_s=10.0):
        report = replay_scenario("resolved", calc_repo, work_root)
        assert report.outcome is RunOutcome.Resolved
        golden = (FIXTURES / "calc_golden.patch").read_text()
        assert report.final_diff.text == golden
        assert report.event_names == GOLDEN_EVENTS["resolved"]


def test_criterion_3_failure_path_replays(calc_repo, tmp_path):
    expected = {
        "empty_patch": RunOutcome.EmptyPatch,
        "unresolved": RunOutcome.Unresolved,
        "cannot_reproduce": RunOutcome.CannotReproduce,
    }
    with criterion(3, "failure-path replays match goldens", budget_s=30.0):
        for name, outcome in expected.items():
            report = replay_scenario(name, calc_repo, tmp_path / name)
            assert report.outcome is outcome, name
            assert report.event_names == GOLDEN_EVENTS[name], name


def test_criterion_4_rollback_soundness(calc_ws):
    with criterion(4, "rollback soundness over randomized cases",
                   budget_s=60.0):
        checked = properties.run_rollback_soundness(calc_ws, cases=100, seed=401)
        assert checked >= 100


def test_criterion_5_patch_minimality(calc_repo, tmp_path, monkeypatch):
    captured: list[DiffDocument] = []
    original = IcsrMachine.apply_region_edit

    def spy(self, edit):
        diff = original(self, edit)
        captured.append(diff)
        return diff

    monkeypatch.setattr(IcsrMachine, "apply_region_edit", spy)
    with criterion(5, "per-iteration diffs touch one file in one hunk"):
        finals = []
        for name in ("resolved", "empty_patch", "unresolved", "cannot_reproduce"):
            finals.append(replay_scenario(name, calc_repo, tmp_path / name))

        assert len(captured) == 2  # resolved and unresolved each edit once
        for diff in captured:
            assert diff.files_touched == 1
            assert diff.hunk_count == 1
        for report in finals:
            if not report.final_diff.is_empty:
                assert report.final_diff.files_touched == 1
                assert report.final_diff.hunk_count == 1

        monkeypatch.setattr(IcsrMachine, "apply_region_edit", original)
        from repeton.workspace import open_workspace

        ws = open_workspace(
            str(calc_repo), "HEAD", "calc-minimality",
            work_root=str(tmp_path / "minimality"),
        )
        assert properties.run_edit_minimality(ws, scenarios=50, seed=501) == 50


def test_criterion_6_outline_oracle():
    with criterion(6, "outlines match the syntax-tree oracle"):
        corpus = sorted(PKG_SRC.glob("*.py")) + sorted(HERE.glob("*.py"))
        assert len(corpus) >= 20
        mismatches = []
        for path in corpus:
            text = path.read_text(encoding="utf-8")
            got = [
                (s.kind, s.qualified_name, s.start_line, s.end_line)
                for s in parse_outline(text, path=str(path)).symbols
            ]
            if got != oracles.ast_outline(text):
                mismatches.append(path.name)
        assert mismatches == []
        print(f"  outline corpus: {len(corpus)} files, 0 mismatches")


class SpyBackend:
    """Wraps a backend and keeps every prompt sent through it."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.prompts: list[list[Message]] = []

    def session(self):
        inner_session = self._inner.session()
        spy = self

        class _Session:
            def complete(self, messages, params):
                spy.prompts.append(list(messages))
                return inner_session.complete(messages, params)

        return _Session()


def _expected_prompt(conv: Conversation, window_k: int) -> list[Message]:
    # Independent restatement of the window rule: pinned messages first,
    # then the last window_k exchange groups, where a group starts at a
    # user message.
    pinned = [m for m in conv.messages if m.pinned]
    rest = [m for m in conv.messages if not m.pinned]
    groups: list[list[Message]] = []
    for message in rest:
        if message.role == "user" or not groups:
            groups.append([message])
        else:
            groups[-1].append(message)
    tail = [m for group in groups[-window_k:] for m in group]
    return pinned + tail


def test_criterion_7_truncation_and_pinning(calc_repo, work_root):
    with criterion(7, "window rule holds; summary pinned in every prompt"):
        rng = random.Random(701)
        for _ in range(150):
            conv = Conversation()
            for i in range(rng.randrange(0, 4)):
                conv.append("system", f"pin-{i}", pinned=True)
            for i in range(rng.randrange(0, 12)):
                conv.append("user", f"ask-{i}")
                for j in range(rng.randrange(0, 3)):
                    conv.append("assistant", f"answer-{i}.{j}")
            window_k = rng.randrange(1, 10)
            assert assemble_prompt(conv, window_k) == _expected_prompt(
                conv, window_k
            )

        spy = SpyBackend(ReplayBackend(TRANSCRIPTS / "resolved.jsonl"))
        report = replay_scenario("resolved", calc_repo, work_root, backend=spy)
        assert report.outcome is RunOutcome.Resolved
        assert len(spy.prompts) == 8
        # Prompt 1 bootstraps the summary; every prompt after it must
        # carry the pinned summary right behind the pinned charter.
        for prompt in spy.prompts[1:]:
            assert prompt[1].content.startswith("Problem summary (pinned):")
            assert prompt[1].pinned


def test_criterion_8_wire_format_golden():
    with criterion(8, "wire golden matches; overflow guard pre-transport"):
        calls = []

        def counting_post(*args, **kwargs):
            calls.append(args)
            raise AssertionError("transport must not be reached")

        backend = LiveBackend(
            base_url="https://models.example.test/v1",
            api_key="test-key-123",
            post=counting_post,
        )
        url, headers, body = backend.build_request(
            [
                Message("system", "You fix bugs."),
                Message("user", "The adder is off by one."),
            ],
            IrvConfig().backend_params(),
        )
        golden = json.loads((FIXTURES / "wire_request.json").read_text())
        assert json.loads(json.dumps(
            {"url": url, "headers": headers, "body": body}
        )) == golden

        tight = LiveBackend(
            base_url="https://models.example.test/v1",
            api_key="test-key-123",
            context_limit=100,
            post=counting_post,
        )
        try:
            tight.complete(
                [Message("user", "x" * 4000)], IrvConfig().backend_params()
            )
        except ContextOverflow:
            pass
        else:
            raise AssertionError("expected ContextOverflow")
        assert calls == []


def test_criterion_9_bench_determinism(calc_repo, tmp_path):
    with criterion(9, "bench output identical at parallelism 1 and 4"):
        tasks = [
            make_task(f"calc-{i}", calc_repo, statement)
            for i, statement in enumerate(calcfix.BENCH_STATEMENTS, start=1)
        ]

        def run_at(parallelism: int, tag: str):
            backend = ReplayBackend(TRANSCRIPTS / "bench4.jsonl")
            config = IrvConfig(work_root=str(tmp_path / tag))
            return run_bench(tasks, parallelism, config, backend)

        serial_reports, serial_summary = run_at(1, "serial")
        parallel_reports, parallel_summary = run_at(4, "parallel")

        assert serial_summary == parallel_summary
        assert serial_summary.resolve_rate_percent == 100.0
        for one, other in zip(serial_reports, parallel_reports):
            assert one.instance_id == other.instance_id
            assert one.outcome is other.outcome
            assert one.final_diff.text == other.final_diff.text
            assert one.iterations_used == other.iterations_used
            assert one.llm_calls_used == other.llm_calls_used
            assert one.event_names == other.event_names
