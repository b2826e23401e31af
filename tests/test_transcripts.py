"""The bundled replay transcripts are what the scripted sessions record
today, so a prompt change that was not re-recorded fails here.

Re-record them with ``python3 tests/record_fixtures.py``.
"""

from __future__ import annotations

import pytest

import calcfix


@pytest.mark.parametrize("name", [*calcfix.SCRIPTS, "bench4"])
def test_recording_reproduces_the_bundled_transcript(name, calc_repo, tmp_path):
    transcript = tmp_path / f"{name}.jsonl"
    if name == "bench4":
        calcfix.record_bench_transcript(calc_repo, transcript, tmp_path / "work")
    else:
        calcfix.record_scenario(name, calc_repo, transcript, tmp_path / "work")
    bundled = calcfix.TRANSCRIPT_DIR / transcript.name
    assert transcript.read_bytes() == bundled.read_bytes()
