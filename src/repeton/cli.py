"""Command-line front end.

Machine-readable output (JSON, diffs, trees) goes to stdout or files;
human logs go to stderr. Exit codes: 0 success, 1 a run finished with a
non-Resolved outcome, 2 usage errors, 3 environment errors.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import fields as dataclass_fields
from pathlib import Path

from .agentio import Backend, LiveBackend, RecordingBackend, ReplayBackend
from .bench import TaskInstance, load_tasks, run_bench, summarize_outcomes
from .codemap import decode_text, parse_outline, render_outline
from .codesearch import make_query, match_files, render_match_tree
from .errors import EmptyBatch, LocationUnavailable, ParseError, RepetonError
from .orchestrator import IrvConfig, RunOutcome, RunReport, run_irv
from .workspace import Workspace

logger = logging.getLogger(__name__)

_CONFIG_FIELDS = {f.name: f.type for f in dataclass_fields(IrvConfig)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repeton",
        description="Iterative repair-and-validation harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--backend", choices=("live", "replay"), default="live")
        p.add_argument("--transcript", help="transcript JSONL (replay input)")
        p.add_argument("--base-url", help="chat endpoint; env REPETON_BASE_URL")
        p.add_argument("--out-dir", default="repeton-out",
                       help="where patches and reports are written")
        p.add_argument("--config", help="config file (JSON or key=value lines)")
        p.add_argument("--work-dir", help="workspace root; env REPETON_WORK_DIR")
        p.add_argument("--model", help="model id sent to the backend")
        p.add_argument("--max-iterations", type=int)
        p.add_argument("--max-llm-calls", type=int)

    def add_repair_command(name: str, help_text: str) -> None:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--repo", required=True)
        p.add_argument("--rev", required=True)
        p.add_argument("--problem-file", required=True)
        p.add_argument("--instance-id")
        add_run_flags(p)
        p.set_defaults(func=cmd_run)

    add_repair_command("run", "repair one repository")

    bench_p = sub.add_parser("bench", help="run a JSONL task batch")
    bench_p.add_argument("--tasks", required=True)
    bench_p.add_argument("--parallelism", type=int, default=1)
    add_run_flags(bench_p)
    bench_p.set_defaults(func=cmd_bench)

    outline_p = sub.add_parser("outline", help="print a file outline")
    outline_p.add_argument("file")
    outline_p.set_defaults(func=cmd_outline)

    search_p = sub.add_parser("search", help="keyword search over a source tree")
    search_p.add_argument("--repo", required=True)
    search_p.add_argument("keywords", nargs="+")
    search_p.set_defaults(func=cmd_search)

    add_repair_command("record", "run live while capturing a replay transcript")

    summarize_p = sub.add_parser("summarize", help="summarize report JSON files")
    summarize_p.add_argument("--reports", required=True,
                             help="directory of run report .json files")
    summarize_p.set_defaults(func=cmd_summarize)

    return parser


# ---- config plumbing ----

def load_config_file(path: str) -> dict:
    """Accept a JSON object or key=value lines; values parse as JSON
    scalars where possible and fall back to plain strings."""
    text = Path(path).read_text(encoding="utf-8")
    stripped = text.strip()
    if stripped.startswith("{"):
        data = json.loads(stripped)
        if not isinstance(data, dict):
            raise ValueError(f"{path}: config JSON must be an object")
    else:
        data = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            try:
                data[key.strip()] = json.loads(value.strip())
            except json.JSONDecodeError:
                data[key.strip()] = value.strip()
    unknown = set(data) - set(_CONFIG_FIELDS)
    if unknown:
        raise ValueError(f"{path}: unknown config keys: {', '.join(sorted(unknown))}")
    return data


# Flags that override a config field: flag attribute -> field name.
_FLAG_FIELDS = {
    "work_dir": "work_root",
    "model": "model_id",
    "max_iterations": "max_irv_iterations",
    "max_llm_calls": "max_llm_calls",
}


def build_config(args: argparse.Namespace) -> IrvConfig:
    values = load_config_file(args.config) if getattr(args, "config", None) else {}
    for flag, name in _FLAG_FIELDS.items():
        if getattr(args, flag, None) not in (None, ""):
            values[name] = getattr(args, flag)
    return IrvConfig(**values)


def build_backend(args: argparse.Namespace) -> Backend:
    if args.command == "record":
        if args.backend == "replay":
            raise ValueError("record captures live traffic; drop --backend replay")
        if not args.transcript:
            raise ValueError("record needs --transcript to write")
        return RecordingBackend(LiveBackend(base_url=args.base_url), args.transcript)
    if args.backend == "replay":
        if not args.transcript:
            raise ValueError("--backend replay needs --transcript")
        return ReplayBackend(args.transcript)
    return LiveBackend(base_url=args.base_url)


def _write_outputs(report: RunReport, out_dir: str) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{report.instance_id}.patch").write_text(
        report.final_diff.text, encoding="utf-8"
    )
    (out / f"{report.instance_id}.json").write_text(
        json.dumps(report.to_json_dict(), indent=2) + "\n", encoding="utf-8"
    )


# ---- commands ----

def _task_from_args(args: argparse.Namespace) -> TaskInstance:
    statement = Path(args.problem_file).read_text(encoding="utf-8")
    instance_id = args.instance_id or Path(args.repo).resolve().name.removesuffix(".git")
    return TaskInstance(
        instance_id=instance_id,
        repo_location=args.repo,
        base_revision=args.rev,
        problem_statement=statement,
    )


def cmd_run(args: argparse.Namespace) -> int:
    task = _task_from_args(args)
    report = run_irv(task, build_config(args), build_backend(args))
    _write_outputs(report, args.out_dir)
    print(json.dumps(report.to_json_dict(), indent=2))
    return 0 if report.outcome is RunOutcome.Resolved else 1


def cmd_bench(args: argparse.Namespace) -> int:
    tasks = load_tasks(args.tasks)
    reports, summary = run_bench(
        tasks, args.parallelism, build_config(args), build_backend(args)
    )
    for report in reports:
        _write_outputs(report, args.out_dir)
    print(json.dumps(
        {
            "summary": summary.to_json_dict(),
            "outcomes": {r.instance_id: r.outcome.value for r in reports},
        },
        indent=2,
    ))
    print(summary.render_table(), file=sys.stderr)
    return 0


def cmd_outline(args: argparse.Namespace) -> int:
    text = decode_text(Path(args.file).read_bytes(), args.file)
    rendered = render_outline(parse_outline(text, path=args.file))
    if rendered:
        print(rendered)
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    root = Path(args.repo).resolve()
    if not root.is_dir():
        raise LocationUnavailable(f"no such directory: {args.repo}")
    ws = Workspace(instance_id="search", root=root, control_dir=root)
    matches = match_files(ws, make_query(args.keywords))
    print(render_match_tree(matches, root.name).text)
    return 0


def cmd_summarize(args: argparse.Namespace) -> int:
    reports_dir = Path(args.reports)
    if not reports_dir.is_dir():
        raise EmptyBatch(f"no such report directory: {args.reports}")
    reports = []
    for path in sorted(reports_dir.glob("*.json")):
        try:
            reports.append(
                RunReport.from_json_dict(
                    json.loads(path.read_text(encoding="utf-8"))
                )
            )
        except (json.JSONDecodeError, KeyError, ValueError) as exc:
            raise ParseError(f"{path}: not a run report: {exc}") from exc
    summary = summarize_outcomes(reports)
    print(json.dumps(summary.to_json_dict(), indent=2))
    print(summary.render_table(), file=sys.stderr)
    return 0


# ---- entry points ----

def route(argv: list[str] | None = None) -> int:
    """Parse and execute; always returns an exit code, never raises."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI must not panic
        if not isinstance(exc, (RepetonError, OSError)):
            logger.exception("unexpected failure")
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    sys.exit(route(sys.argv[1:]))
