"""Regenerate the replay transcripts bundled under fixtures/transcripts/.

Run from anywhere:

    python3 tests/record_fixtures.py

The script records the four scripted scenarios plus the four-task bench
batch, then verifies each transcript replays to the same outcome, diff,
and event log before leaving it in place. Golden files that tests
compare against (calc_golden.patch, calc_unresolved.patch) are only
written when missing, so regenerating transcripts cannot silently move
the goalposts.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

_TESTS = Path(__file__).resolve().parent
sys.path[:0] = [str(_TESTS), str(_TESTS.parent / "src")]

import calcfix
from repeton.agentio import ReplayBackend
from repeton.bench import run_bench
from repeton.orchestrator import IrvConfig, run_irv


def main() -> int:
    out_dir = calcfix.TRANSCRIPT_DIR
    out_dir.mkdir(parents=True, exist_ok=True)
    fixtures = out_dir.parent

    with tempfile.TemporaryDirectory() as scratch_name:
        scratch = Path(scratch_name)
        repo = calcfix.build_calc_repo(scratch)

        for name in calcfix.SCRIPTS:
            transcript = out_dir / f"{name}.jsonl"
            transcript.unlink(missing_ok=True)
            recorded = calcfix.record_scenario(
                name, repo, transcript, scratch / f"rec-{name}"
            )
            replayed = calcfix.run_scenario(
                name, repo, scratch / f"rep-{name}", ReplayBackend(transcript)
            )
            assert replayed.outcome == recorded.outcome, name
            assert replayed.final_diff.text == recorded.final_diff.text, name
            assert replayed.event_names == recorded.event_names, name
            assert recorded.event_names == calcfix.GOLDEN_EVENTS[name], name
            print(f"{name}: {recorded.outcome.name}, "
                  f"{recorded.llm_calls_used} calls, {transcript.name}")
            if name == "resolved":
                _freeze(fixtures / "calc_golden.patch", recorded.final_diff.text)
            if name == "unresolved":
                _freeze(
                    fixtures / "calc_unresolved.patch", recorded.final_diff.text
                )

        bench_transcript = out_dir / "bench4.jsonl"
        bench_transcript.unlink(missing_ok=True)
        recorded_batch = calcfix.record_bench_transcript(
            repo, bench_transcript, scratch / "bench-rec"
        )
        tasks = [
            calcfix.make_task(f"calc-{i}", repo, stmt)
            for i, stmt in enumerate(calcfix.BENCH_STATEMENTS, start=1)
        ]
        replayed_batch, _ = run_bench(
            tasks,
            1,
            IrvConfig(work_root=str(scratch / "bench-rep")),
            ReplayBackend(bench_transcript),
        )
        for rec, rep in zip(recorded_batch, replayed_batch):
            assert rep.outcome == rec.outcome, rec.instance_id
            assert rep.final_diff.text == rec.final_diff.text, rec.instance_id
        print(f"bench4: {[r.outcome.name for r in recorded_batch]}, "
              f"{bench_transcript.name}")
    return 0


def _freeze(path: Path, text: str) -> None:
    if path.exists():
        if path.read_text() != text:
            raise SystemExit(
                f"{path.name} no longer matches the recorded run; "
                "delete it first if the change is intentional"
            )
        return
    path.write_text(text)
    print(f"wrote {path.name}")


if __name__ == "__main__":
    raise SystemExit(main())
