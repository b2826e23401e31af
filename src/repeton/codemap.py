"""File outlines and numbered region views.

The outline parser is indentation-based on purpose: it keeps working on
files a half-applied patch has broken, where a real parser would refuse
the whole file. It tracks just enough lexical state (strings, brackets,
backslash continuations, decorators) to agree with a syntax-tree dump
on conventionally formatted code.

Spans are 1-based and inclusive. A definition's span starts at its
first decorator and ends at the last code line of its body; trailing
blank and comment-only lines belong to the enclosing scope.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import FileNotFound, NotText, RangeOutOfBounds, SymbolNotFound
from .workspace import Workspace, confined_path

TAB_COLUMNS = 8

_INTRODUCER = re.compile(r"^(async\s+def|def|class)\s+([A-Za-z_]\w*)")
_STRING_PREFIX = re.compile(r"[A-Za-z]{0,3}$")


@dataclass(frozen=True)
class SymbolSpan:
    kind: str  # "class" | "function" | "method"
    qualified_name: str
    start_line: int
    end_line: int


@dataclass(frozen=True)
class FileOutline:
    path: str
    symbols: tuple[SymbolSpan, ...]
    total_lines: int


@dataclass(frozen=True)
class RegionView:
    path: str
    start_line: int
    end_line: int
    text: str
    enclosing_symbol: str | None


class _LineScanner:
    """Classify physical lines while tracking cross-line lexical state."""

    def __init__(self) -> None:
        self.string_delim: str | None = None  # open triple-quote delimiter
        self.bracket_depth = 0
        self.continuation = False

    def feed(self, line: str) -> bool:
        """Process one line; return True if it starts inside a statement
        begun on an earlier line (string body, open brackets, backslash)."""
        starts_inside = (
            self.string_delim is not None
            or self.bracket_depth > 0
            or self.continuation
        )
        self.continuation = False
        i = 0
        n = len(line)
        in_single: str | None = None  # one-line string delimiter
        raw = False
        while i < n:
            ch = line[i]
            if self.string_delim is not None:
                if not raw and ch == "\\":
                    i += 2
                    continue
                if line.startswith(self.string_delim, i):
                    i += len(self.string_delim)
                    self.string_delim = None
                    raw = False
                    continue
                i += 1
                continue
            if in_single is not None:
                if not raw and ch == "\\":
                    i += 2
                    continue
                if ch == in_single:
                    in_single = None
                    raw = False
                i += 1
                continue
            if ch == "#":
                break
            if ch in "\"'":
                prefix = _STRING_PREFIX.search(line[:i]).group(0)
                raw = "r" in prefix.lower()
                if line.startswith(ch * 3, i):
                    self.string_delim = ch * 3
                    i += 3
                else:
                    in_single = ch
                    i += 1
                continue
            if ch in "([{":
                self.bracket_depth += 1
            elif ch in ")]}":
                self.bracket_depth = max(0, self.bracket_depth - 1)
            elif ch == "\\" and i == n - 1:
                self.continuation = True
            i += 1
        # An unterminated one-line string is a syntax error; assume it
        # closed so one bad line cannot poison the rest of the file.
        return starts_inside


def _indent_of(line: str) -> int:
    expanded = line.expandtabs(TAB_COLUMNS)
    return len(expanded) - len(expanded.lstrip())


@dataclass
class _OpenDef:
    indent: int
    kind: str
    name: str
    start: int
    end: int
    order: int


def parse_outline(text: str, path: str = "<memory>") -> FileOutline:
    """Extract class/function/method spans from source text."""
    lines = text.splitlines()
    scanner = _LineScanner()
    stack: list[_OpenDef] = []
    finished: list[tuple[int, SymbolSpan]] = []
    name_counts: dict[str, int] = {}
    pending_decorator: int | None = None
    current_stmt_indent = 0
    order = 0

    def close(entry: _OpenDef) -> None:
        finished.append(
            (entry.order, SymbolSpan(entry.kind, entry.name, entry.start, entry.end))
        )

    for lineno, line in enumerate(lines, start=1):
        starts_inside = scanner.feed(line)
        stripped = line.strip()
        if not stripped:
            continue
        if starts_inside:
            # Continuation of an earlier statement: extends enclosing
            # spans at the statement's own indent, never pops or opens.
            for entry in stack:
                if current_stmt_indent > entry.indent:
                    entry.end = lineno
            continue
        if stripped.startswith("#"):
            continue

        indent = _indent_of(line)
        current_stmt_indent = indent
        while stack and indent <= stack[-1].indent:
            close(stack.pop())
        for entry in stack:
            if indent > entry.indent:
                entry.end = lineno

        match = _INTRODUCER.match(stripped)
        if match:
            keyword, name = match.groups()
            if stack and stack[-1].kind == "class":
                kind = "class" if keyword == "class" else "method"
            else:
                kind = "class" if keyword == "class" else "function"
            qualified = f"{stack[-1].name}.{name}" if stack else name
            seen = name_counts.get(qualified, 0) + 1
            name_counts[qualified] = seen
            if seen > 1:
                qualified = f"{qualified}#{seen}"
            start = pending_decorator if pending_decorator is not None else lineno
            stack.append(_OpenDef(indent, kind, qualified, start, lineno, order))
            order += 1
            pending_decorator = None
        elif stripped.startswith("@"):
            if pending_decorator is None:
                pending_decorator = lineno
        else:
            pending_decorator = None

    while stack:
        close(stack.pop())
    finished.sort(key=lambda pair: pair[0])
    return FileOutline(
        path=path,
        symbols=tuple(span for _, span in finished),
        total_lines=len(lines),
    )


def decode_text(data: bytes, path: str) -> str:
    """``data`` as UTF-8 text; ``NotText`` for NUL bytes or bad UTF-8."""
    if b"\x00" in data:
        raise NotText(f"{path} is not a text file")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise NotText(f"{path} is not valid UTF-8: {exc}") from exc


def _load_text(ws: Workspace, path: str) -> str:
    full = confined_path(ws, path)
    if not full.is_file():
        raise FileNotFound(f"no such file in workspace: {path}")
    return decode_text(full.read_bytes(), path)


def outline_file(ws: Workspace, path: str) -> FileOutline:
    """Outline a workspace file."""
    return parse_outline(_load_text(ws, path), path=path)


def render_outline(outline: FileOutline) -> str:
    """One line per symbol: ``<kind> <qualified_name> [<start>-<end>]``."""
    return "\n".join(
        f"{s.kind} {s.qualified_name} [{s.start_line}-{s.end_line}]"
        for s in outline.symbols
    )


def view_region(
    ws: Workspace,
    path: str,
    target: str | tuple[int, int],
) -> RegionView:
    """Return numbered source lines for a symbol or an explicit range."""
    text = _load_text(ws, path)
    outline = parse_outline(text, path=path)
    lines = text.splitlines()

    enclosing: str | None = None
    if isinstance(target, str):
        for span in outline.symbols:
            if span.qualified_name == target:
                start, end = span.start_line, span.end_line
                enclosing = span.qualified_name
                break
        else:
            raise SymbolNotFound(f"{target!r} not in outline of {path}")
    else:
        start, end = target
        if start < 1 or end > len(lines) or start > end:
            raise RangeOutOfBounds(
                f"range {start}-{end} outside {path} (1-{len(lines)})"
            )
        for span in outline.symbols:
            if span.start_line <= start and end <= span.end_line:
                enclosing = span.qualified_name  # innermost wins: keep last

    numbered = "\n".join(
        f"{num}: {lines[num - 1]}" for num in range(start, end + 1)
    )
    return RegionView(
        path=path,
        start_line=start,
        end_line=end,
        text=numbered,
        enclosing_symbol=enclosing,
    )
