"""Outside-in tracing of repeton's layers, and the per-layer metrics.

``Tracer.install`` replaces every public function of each layer module,
and every public method of the classes defined there, with a wrapper
that records a span. A function imported by name into other modules is
replaced in each of them (``take_snapshot`` is bound in ``workspace``,
``patcher``, ``orchestrator`` and the package itself), so every call
site is seen. ``uninstall`` puts the originals back. Spans stay in
memory until the benchmark writes them out.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from types import ModuleType
from typing import Callable

from repeton import (
    agentio, bench, codemap, codesearch, orchestrator, patcher, testkit, workspace,
)

LAYERS: dict[str, ModuleType] = {
    "workspace": workspace,
    "codesearch": codesearch,
    "codemap": codemap,
    "patcher": patcher,
    "testkit": testkit,
    "agentio": agentio,
    "orchestrator": orchestrator,
    "bench": bench,
}
# Private methods traced anyway because they hold a layer's work: the
# machine's constructor enters the first stage and takes a snapshot.
EXTRA_METHODS = {"patcher.IcsrMachine.__init__"}

STAGE_NAMES = frozenset(stage.name for stage in patcher.IcsrStage)


@dataclass
class Span:
    id: int
    name: str
    layer: str
    parent: int | None
    task: str | None
    thread: int
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _snapshot_key(snap) -> str:
    return f"{snap.instance_id}/{snap.snapshot_id}"


def _messages_chars(messages) -> int:
    return sum(len(m.content) for m in messages)


# Attributes recorded per span: name -> (before(args), after(args,
# result, before)). Both run outside the span's timed interval; a call
# that raises records none.
DESCRIBE: dict[str, tuple[Callable | None, Callable]] = {
    "workspace.tracked_files": (None, lambda a, r, b: {"files": len(r)}),
    "workspace.take_snapshot": (None, lambda a, r, b: {
        "files": len(r.digest_map), "label": r.taken_at_stage, "key": _snapshot_key(r)}),
    "workspace.compute_diff": (None, lambda a, r, b: {"uses": _snapshot_key(a[1])}),
    "workspace.restore_snapshot": (None, lambda a, r, b: {"uses": _snapshot_key(a[1])}),
    "codemap.parse_outline": (None, lambda a, r, b: {"lines": r.total_lines}),
    "testkit.run_test": (None, lambda a, r, b: {"timed_out": r.timed_out}),
    "testkit.certify_failure": (None, lambda a, r, b: {"certified": r[0]}),
    "agentio.ReplaySession.complete": (
        lambda a: a[0].cursor,
        lambda a, r, b: {"chars": _messages_chars(a[1]), "scanned": a[0].cursor - b},
    ),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, layer: str, fn: Callable) -> Callable:
        before, after = DESCRIBE.get(name, (None, None))
        starts_task = name == "orchestrator.run_irv"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span = Span(
                id=next(tracer._ids),
                name=name,
                layer=layer,
                parent=parent.id if parent else None,
                task=args[0].instance_id if starts_task else (parent.task if parent else None),
                thread=threading.get_ident(),
            )
            state = before(args) if before else None
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if after:
                span.attrs = after(args, result, state)
            return result

        return traced

    def _replace(self, owner: object, attr: str, new: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, root: str) -> None:
        """Wrap every layer's public functions and methods wherever a
        module loaded from under ``root`` binds them."""
        loaded = [
            m for m in list(sys.modules.values())
            if (getattr(m, "__file__", None) or "").startswith(root)
        ]
        for layer, module in LAYERS.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    traced = self.wrap(f"{layer}.{attr}", layer, obj)
                    for holder in loaded:
                        for bound, value in list(vars(holder).items()):
                            if value is obj:
                                self._replace(holder, bound, traced)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for meth, fn in list(vars(obj).items()):
                        qual = f"{layer}.{attr}.{meth}"
                        if inspect.isfunction(fn) and (
                            not meth.startswith("_") or qual in EXTRA_METHODS
                        ):
                            self._replace(obj, meth, self.wrap(qual, layer, fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in sorted(self.spans, key=lambda s: s.id):
                out.write(json.dumps(asdict(span)) + "\n")


# ---- per-layer metrics ----

def _per_task(spans: list[Span]) -> dict[str, list[Span]]:
    by_task: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        if span.task is not None:
            by_task[span.task].append(span)
    return by_task


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus what its child spans cover."""
    own = {span.id: span.seconds for span in spans}
    for span in spans:
        if span.parent is not None and span.parent in own:
            own[span.parent] -= span.seconds
    return own


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-task means of every per-layer metric.

    A span's task comes from its parent, so the self times of a task's
    spans add up to its ``run_irv`` span by construction. A layer call
    that escapes the wrappers is not lost but counted in its caller's
    self time; the call-count floors of each workload catch that.
    """
    own = self_times(spans)
    batches = [s for s in spans if s.name == "bench.run_bench"]
    per_task = []
    for task, members in _per_task(spans).items():
        by_name: dict[str, list[Span]] = defaultdict(list)
        layer_self: dict[str, float] = defaultdict(float)
        for span in members:
            by_name[span.name].append(span)
            layer_self[span.layer] += own[span.id]
        root = by_name["orchestrator.run_irv"][0]

        def total(name: str) -> float:
            return sum(s.seconds for s in by_name[name])

        def calls(name: str) -> int:
            return len(by_name[name])

        snaps = by_name["workspace.take_snapshot"]
        used = {
            s.attrs.get("uses")
            for n in ("workspace.compute_diff", "workspace.restore_snapshot")
            for s in by_name[n]
        }
        match_ids = {s.id for s in by_name["codesearch.match_files"]}
        completes = by_name["agentio.ReplaySession.complete"]
        certs = by_name["testkit.certify_failure"]
        waits = [root.start - b.start for b in batches if b.start <= root.start <= b.end]
        per_task.append({
            "workspace.open.s": total("workspace.open_workspace"),
            "workspace.open.calls": calls("workspace.open_workspace"),
            "workspace.snapshot.s": total("workspace.take_snapshot"),
            "workspace.snapshot.calls": len(snaps),
            "workspace.snapshot.files": sum(s.attrs.get("files", 0) for s in snaps),
            "workspace.snapshot.used_ratio": _ratio(
                sum(1 for s in snaps if s.attrs.get("key") in used), len(snaps)),
            "workspace.diff.s": total("workspace.compute_diff"),
            "workspace.diff.calls": calls("workspace.compute_diff"),
            "workspace.restore.s": total("workspace.restore_snapshot"),
            "workspace.restore.calls": calls("workspace.restore_snapshot"),
            "workspace.walk.s": total("workspace.tracked_files"),
            "workspace.walk.calls": calls("workspace.tracked_files"),
            "workspace.self_s": layer_self["workspace"],
            "codesearch.match.s": total("codesearch.match_files"),
            "codesearch.match.calls": len(match_ids),
            "codesearch.match.files": sum(
                s.attrs.get("files", 0) for s in by_name["workspace.tracked_files"]
                if s.parent in match_ids),
            "codesearch.self_s": layer_self["codesearch"],
            "codemap.outline.s": total("codemap.outline_file"),
            "codemap.outline.calls": calls("codemap.outline_file"),
            "codemap.view.s": total("codemap.view_region"),
            "codemap.view.calls": calls("codemap.view_region"),
            "codemap.lines_parsed": sum(
                s.attrs.get("lines", 0) for s in by_name["codemap.parse_outline"]),
            "codemap.self_s": layer_self["codemap"],
            "patcher.self_s": layer_self["patcher"],
            "patcher.stage_entries": sum(1 for s in snaps if s.attrs.get("label") in STAGE_NAMES),
            "patcher.rollbacks": calls("patcher.IcsrMachine.rollback_stage"),
            "patcher.switches": calls("patcher.IcsrMachine.switch_active_file"),
            "patcher.edits": calls("patcher.IcsrMachine.apply_region_edit"),
            "testkit.run.s": total("testkit.run_test"),
            "testkit.run.calls": calls("testkit.run_test"),
            "testkit.run.timeouts": sum(
                1 for s in by_name["testkit.run_test"] if s.attrs.get("timed_out")),
            "testkit.certify.s": total("testkit.certify_failure"),
            "testkit.certify.useful_ratio": _ratio(
                sum(1 for s in certs if s.attrs.get("certified")), len(certs)),
            "testkit.self_s": layer_self["testkit"],
            "agentio.complete.s": total("agentio.ReplaySession.complete"),
            "agentio.complete.calls": len(completes),
            "agentio.assemble.s": total("agentio.assemble_prompt"),
            "agentio.prompt_chars": sum(s.attrs.get("chars", 0) for s in completes),
            "agentio.replay.scan_ratio": _ratio(
                len(completes), sum(s.attrs.get("scanned", 0) for s in completes)),
            "agentio.self_s": layer_self["agentio"],
            "orchestrator.self_s": layer_self["orchestrator"],
            "bench.queue_wait.s": waits[0] if waits else 0.0,
        })
    return {key: statistics.fmean(row[key] for row in per_task) for key in per_task[0]}
