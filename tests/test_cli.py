"""Command routing, config plumbing, and replay-backed end-to-end runs."""

from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path

import pytest

import calcfix
from repeton import cli
from repeton.orchestrator import IrvConfig

TRANSCRIPTS = Path(__file__).resolve().parent / "fixtures" / "transcripts"
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def write_problem(tmp_path) -> Path:
    # No trailing newline: the statement must match the recorded bytes.
    path = tmp_path / "problem.md"
    path.write_text(calcfix.DEFAULT_STATEMENT)
    return path


def run_args(tmp_path, calc_repo, transcript: str, *extra: str) -> list[str]:
    return [
        "run",
        "--repo", str(calc_repo),
        "--rev", "HEAD",
        "--problem-file", str(write_problem(tmp_path)),
        "--backend", "replay",
        "--transcript", str(TRANSCRIPTS / transcript),
        "--work-dir", str(tmp_path / "work"),
        "--out-dir", str(tmp_path / "out"),
        *extra,
    ]


# ---- parsing and exit codes ----

def test_no_command_is_a_usage_error(capsys):
    assert cli.route([]) == 2
    capsys.readouterr()


def test_help_exits_cleanly(capsys):
    assert cli.route(["--help"]) == 0
    assert "repair" in capsys.readouterr().out


def test_replay_without_transcript_is_a_usage_error(tmp_path, calc_repo, capsys):
    argv = run_args(tmp_path, calc_repo, "resolved.jsonl")
    argv.remove("--transcript")
    argv.remove(str(TRANSCRIPTS / "resolved.jsonl"))
    assert cli.route(argv) == 2
    assert "usage error" in capsys.readouterr().err


def test_live_backend_without_endpoint_is_a_usage_error(
    tmp_path, calc_repo, capsys, monkeypatch
):
    monkeypatch.delenv("REPETON_BASE_URL", raising=False)
    argv = run_args(tmp_path, calc_repo, "resolved.jsonl")
    argv[argv.index("replay")] = "live"
    assert cli.route(argv) == 2
    assert "REPETON_BASE_URL" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("flag", "field"), [("--rev", "base_revision"), ("--repo", "repo_location")]
)
def test_option_like_repo_or_revision_is_a_usage_error(
    tmp_path, calc_repo, capsys, flag, field
):
    argv = run_args(tmp_path, calc_repo, "resolved.jsonl")
    at = argv.index(flag)
    argv[at:at + 2] = [f"{flag}=-q"]
    assert cli.route(argv) == 2
    assert f"usage error: {field} must not start with '-'" in capsys.readouterr().err
    assert not (tmp_path / "work").exists()


def test_record_refuses_the_replay_backend(tmp_path, calc_repo, capsys):
    argv = run_args(tmp_path, calc_repo, "resolved.jsonl")
    argv[0] = "record"
    assert cli.route(argv) == 2
    assert "drop --backend replay" in capsys.readouterr().err


def test_record_needs_a_transcript_to_write(tmp_path, calc_repo, capsys, monkeypatch):
    monkeypatch.setenv("REPETON_BASE_URL", "http://localhost:9")
    argv = [
        "record",
        "--repo", str(calc_repo),
        "--rev", "HEAD",
        "--problem-file", str(write_problem(tmp_path)),
    ]
    assert cli.route(argv) == 2
    assert "--transcript" in capsys.readouterr().err


# ---- config plumbing ----

def test_config_file_accepts_a_json_object(tmp_path):
    path = tmp_path / "conf.json"
    path.write_text('{"max_irv_iterations": 2, "model_id": "m-1"}')
    assert cli.load_config_file(str(path)) == {
        "max_irv_iterations": 2,
        "model_id": "m-1",
    }


def test_config_file_accepts_key_value_lines(tmp_path):
    path = tmp_path / "conf.txt"
    path.write_text(
        "# tuning\n"
        "\n"
        "window_k = 4\n"
        "model_id = local-model\n"
        "test_timeout_s = 30\n"
    )
    assert cli.load_config_file(str(path)) == {
        "window_k": 4,
        "model_id": "local-model",
        "test_timeout_s": 30,
    }


def test_config_file_rejects_lines_without_equals(tmp_path):
    path = tmp_path / "conf.txt"
    path.write_text("window_k = 4\njust words\n")
    with pytest.raises(ValueError, match=":2: expected key=value"):
        cli.load_config_file(str(path))


def test_config_file_rejects_unknown_keys(tmp_path):
    path = tmp_path / "conf.json"
    path.write_text('{"max_irv_iterations": 2, "wibble": 1}')
    with pytest.raises(ValueError, match="unknown config keys: wibble"):
        cli.load_config_file(str(path))


@pytest.mark.parametrize(
    "line", ["strict_reproduction = false", "keep_first_passing = true"]
)
def test_config_naming_a_removed_field_is_a_usage_error(
    tmp_path, calc_repo, capsys, line
):
    conf = tmp_path / "conf.txt"
    conf.write_text(line + "\n")
    argv = run_args(tmp_path, calc_repo, "resolved.jsonl", "--config", str(conf))
    assert cli.route(argv) == 2
    assert "unknown config keys" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_readme_lists_every_config_field():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.search(r"naming any run\s+config field \(([^)]*)\)", readme)
    assert listed is not None
    assert re.findall(r"`(\w+)`", listed.group(1)) == [
        f.name for f in dataclasses.fields(IrvConfig)
    ]


def test_config_file_accepts_an_empty_object(tmp_path):
    path = tmp_path / "conf.json"
    path.write_text("{}")
    assert cli.load_config_file(str(path)) == {}


def test_config_file_rejects_json_arrays(tmp_path):
    path = tmp_path / "conf.json"
    path.write_text('[1, 2]')
    with pytest.raises(ValueError, match="expected key=value"):
        cli.load_config_file(str(path))


def test_flags_override_the_config_file(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text('{"max_irv_iterations": 5, "model_id": "file-model"}')
    parser = cli.build_parser()
    args = parser.parse_args([
        "run", "--repo", "r", "--rev", "HEAD", "--problem-file", "p",
        "--config", str(conf),
        "--max-iterations", "2",
        "--work-dir", str(tmp_path / "w"),
    ])
    config = cli.build_config(args)
    assert config.max_irv_iterations == 2
    assert config.model_id == "file-model"
    assert config.work_root == str(tmp_path / "w")
    assert config == IrvConfig(
        max_irv_iterations=2,
        model_id="file-model",
        work_root=str(tmp_path / "w"),
    )


# ---- end-to-end runs over recorded transcripts ----

def test_run_resolves_from_a_recorded_transcript(tmp_path, calc_repo, capsys):
    argv = run_args(
        tmp_path, calc_repo, "resolved.jsonl", "--instance-id", "calc-resolved"
    )
    assert cli.route(argv) == 0

    out = tmp_path / "out"
    golden = (FIXTURES / "calc_golden.patch").read_text()
    assert (out / "calc-resolved.patch").read_text() == golden
    report = json.loads((out / "calc-resolved.json").read_text())
    assert report["outcome"] == "Resolved"
    assert report["llm_calls"] == 8
    printed = json.loads(capsys.readouterr().out)
    assert printed["outcome"] == "Resolved"


def test_record_writes_a_transcript_that_replays(
    tmp_path, calc_repo, capsys, monkeypatch
):
    monkeypatch.setattr(
        cli,
        "LiveBackend",
        lambda base_url=None: calcfix.ScriptedBackend(calcfix.resolved_script()),
    )
    transcript = tmp_path / "recorded.jsonl"
    problem = str(write_problem(tmp_path))

    def argv(command: str, side: str, *extra: str) -> list[str]:
        return [
            command,
            "--repo", str(calc_repo),
            "--rev", "HEAD",
            "--problem-file", problem,
            "--instance-id", "calc",
            "--transcript", str(transcript),
            "--work-dir", str(tmp_path / f"{side}-work"),
            "--out-dir", str(tmp_path / f"{side}-out"),
            *extra,
        ]

    assert cli.route(argv("record", "rec")) == 0
    assert cli.route(argv("run", "rep", "--backend", "replay")) == 0
    capsys.readouterr()

    recorded, replayed = (
        json.loads((tmp_path / f"{side}-out" / "calc.json").read_text())
        for side in ("rec", "rep")
    )
    golden = (FIXTURES / "calc_golden.patch").read_text()
    for side in ("rec", "rep"):
        assert (tmp_path / f"{side}-out" / "calc.patch").read_text() == golden
    assert recorded["outcome"] == replayed["outcome"] == "Resolved"
    assert [name for _, name in recorded["events"]] == [
        name for _, name in replayed["events"]
    ]


def test_run_names_a_dot_repo_after_its_directory(
    tmp_path, calc_repo, capsys, monkeypatch
):
    monkeypatch.chdir(calc_repo)
    argv = run_args(tmp_path, calc_repo, "resolved.jsonl")
    argv[argv.index("--repo") + 1] = "."
    assert cli.route(argv) == 0
    capsys.readouterr()
    name = calc_repo.name
    golden = (FIXTURES / "calc_golden.patch").read_text()
    assert (tmp_path / "out" / f"{name}.patch").read_text() == golden
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        f"{name}.json", f"{name}.patch",
    ]
    assert (tmp_path / "work" / name / "repo").is_dir()


@pytest.mark.parametrize(
    ("directory", "expected"), [("my.project", "my.project"), ("calc.git", "calc")]
)
def test_default_instance_id_is_the_directory_name(tmp_path, directory, expected):
    (tmp_path / directory).mkdir()
    args = cli.build_parser().parse_args([
        "run", "--repo", str(tmp_path / directory), "--rev", "HEAD",
        "--problem-file", str(write_problem(tmp_path)),
    ])
    assert cli._task_from_args(args).instance_id == expected


def test_run_exits_one_on_non_resolved_outcomes(tmp_path, calc_repo, capsys):
    argv = run_args(
        tmp_path, calc_repo, "empty_patch.jsonl",
        "--instance-id", "calc-empty",
        "--max-iterations", "1",
    )
    assert cli.route(argv) == 1
    report = json.loads((tmp_path / "out" / "calc-empty.json").read_text())
    assert report["outcome"] == "EmptyPatch"
    assert report["diff"] == ""
    capsys.readouterr()


def test_bench_runs_a_task_file_against_one_transcript(
    tmp_path, calc_repo, capsys
):
    rows = []
    for index, statement in enumerate(calcfix.BENCH_STATEMENTS, start=1):
        rows.append(json.dumps({
            "instance_id": f"calc-{index}",
            "repo_location": str(calc_repo),
            "base_revision": "HEAD",
            "problem_statement": statement,
        }))
    tasks = tmp_path / "tasks.jsonl"
    tasks.write_text("\n".join(rows) + "\n")

    argv = [
        "bench",
        "--tasks", str(tasks),
        "--parallelism", "2",
        "--backend", "replay",
        "--transcript", str(TRANSCRIPTS / "bench4.jsonl"),
        "--work-dir", str(tmp_path / "work"),
        "--out-dir", str(tmp_path / "out"),
    ]
    assert cli.route(argv) == 0

    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["summary"]["resolve_rate_percent"] == 100.0
    assert payload["outcomes"] == {
        f"calc-{i}": "Resolved" for i in range(1, 5)
    }
    assert "Resolve rate: 100.0%" in captured.err
    for i in range(1, 5):
        assert (tmp_path / "out" / f"calc-{i}.patch").exists()


def test_bench_rejects_zero_parallelism(tmp_path, calc_repo, capsys):
    tasks = tmp_path / "tasks.jsonl"
    tasks.write_text(json.dumps({
        "instance_id": "calc-1",
        "repo_location": str(calc_repo),
        "base_revision": "HEAD",
        "problem_statement": "x",
    }) + "\n")
    argv = [
        "bench", "--tasks", str(tasks), "--parallelism", "0",
        "--backend", "replay",
        "--transcript", str(TRANSCRIPTS / "bench4.jsonl"),
    ]
    assert cli.route(argv) == 2
    capsys.readouterr()


def test_bench_reports_unreadable_task_files(tmp_path, capsys):
    tasks = tmp_path / "tasks.jsonl"
    tasks.write_text("{broken\n")
    argv = [
        "bench", "--tasks", str(tasks),
        "--backend", "replay",
        "--transcript", str(TRANSCRIPTS / "bench4.jsonl"),
    ]
    assert cli.route(argv) == 3
    assert "invalid JSON" in capsys.readouterr().err


# ---- inspection commands ----

def test_outline_prints_symbol_spans(tmp_path, capsys):
    src = tmp_path / "mod.py"
    src.write_text(
        "class A:\n"
        "    def f(self):\n"
        "        pass\n"
        "\n"
        "\n"
        "def g():\n"
        "    pass\n"
    )
    assert cli.route(["outline", str(src)]) == 0
    assert capsys.readouterr().out == (
        "class A [1-3]\n"
        "method A.f [2-3]\n"
        "function g [6-7]\n"
    )


def test_outline_prints_nothing_for_a_file_without_symbols(tmp_path, capsys):
    src = tmp_path / "flat.py"
    src.write_text("VALUE = 1\n")
    assert cli.route(["outline", str(src)]) == 0
    assert capsys.readouterr().out == ""


def test_outline_refuses_binary_files(tmp_path, capsys):
    blob = tmp_path / "blob.py"
    blob.write_bytes(b"\x00\x01\x02")
    assert cli.route(["outline", str(blob)]) == 3
    assert "not a text file" in capsys.readouterr().err


def test_search_renders_a_match_tree(calc_repo, capsys):
    assert cli.route(["search", "--repo", str(calc_repo), "add"]) == 0
    out = capsys.readouterr().out
    assert "calc.py" in out
    assert "[score=" in out


def test_search_rejects_missing_directories(tmp_path, capsys):
    assert cli.route(["search", "--repo", str(tmp_path / "nope"), "add"]) == 3
    capsys.readouterr()


def test_search_rejects_blank_keywords(calc_repo, capsys):
    assert cli.route(["search", "--repo", str(calc_repo), "  "]) == 3
    capsys.readouterr()


# ---- report summarization ----

def test_summarize_rolls_up_report_files(tmp_path, calc_repo, capsys):
    argv = run_args(
        tmp_path, calc_repo, "resolved.jsonl", "--instance-id", "calc-resolved"
    )
    assert cli.route(argv) == 0
    capsys.readouterr()

    assert cli.route(["summarize", "--reports", str(tmp_path / "out")]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["total"] == 1
    assert payload["resolve_rate_percent"] == 100.0
    assert "Resolved" in captured.err


def test_summarize_rejects_non_report_json(tmp_path, capsys):
    reports = tmp_path / "reports"
    reports.mkdir()
    (reports / "stray.json").write_text('{"hello": 1}')
    assert cli.route(["summarize", "--reports", str(reports)]) == 3
    assert "not a run report" in capsys.readouterr().err


def test_summarize_rejects_missing_directories(tmp_path, capsys):
    assert cli.route(["summarize", "--reports", str(tmp_path / "nope")]) == 3
    capsys.readouterr()
