"""Conversation state, prompt assembly and chat backends.

The conversation is an append-only message list that the repair loop
can truncate back to an earlier length, so its history rewinds in step
with workspace rollbacks; the stage machine keeps the length at each
stage entry. Prompts are assembled from all pinned messages plus a
sliding window of recent exchanges; pinned messages are kept whatever
the window size.

Three backends speak the same ``session().complete()`` shape: a live
HTTP client for OpenAI-compatible chat endpoints, a replay client that
serves recorded responses keyed by request digest, and a recording
wrapper that captures live traffic into a replayable transcript.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Protocol

import requests

from .errors import (
    ContextOverflow,
    HttpFailure,
    MalformedAction,
    ReplayMismatch,
    UnknownAction,
)

logger = logging.getLogger(__name__)

API_KEY_ENV = "REPETON_API_KEY"
BASE_URL_ENV = "REPETON_BASE_URL"

DEFAULT_WINDOW_K = 8
DEFAULT_CONTEXT_LIMIT = 128_000

_ROLES = ("system", "user", "assistant")


@dataclass(frozen=True)
class Message:
    role: str
    content: str
    pinned: bool = False

    def __post_init__(self) -> None:
        if self.role not in _ROLES:
            raise ValueError(f"unknown role {self.role!r}")


@dataclass(frozen=True)
class BackendParams:
    model_id: str
    temperature: float = 0.0
    max_tokens: int = 2048


@dataclass(frozen=True)
class ReactTurn:
    thought: str
    action: str
    args: dict[str, str]


def estimate_tokens(content: str) -> int:
    """Σ ceil(len/4) stand-in for a tokenizer; over-counts, never under."""
    return (len(content) + 3) // 4


class Conversation:
    """Append-only message history that can be cut back to a length."""

    def __init__(self) -> None:
        self.messages: list[Message] = []

    def __len__(self) -> int:
        return len(self.messages)

    def append(self, role: str, content: str, pinned: bool = False) -> Message:
        message = Message(role=role, content=content, pinned=pinned)
        self.messages.append(message)
        return message

    def truncate(self, count: int) -> None:
        """Drop every message after the first ``count``."""
        del self.messages[count:]


def assemble_prompt(conv: Conversation, window_k: int = DEFAULT_WINDOW_K) -> list[Message]:
    """All pinned messages plus the last ``window_k`` exchanges.

    An exchange is a user message and every reply up to the next user
    message; a trailing user message still waiting on its reply counts
    as an exchange of its own.
    """
    if window_k < 1:
        raise ValueError(f"window_k must be positive, got {window_k}")
    pinned = [m for m in conv.messages if m.pinned]
    rest = [m for m in conv.messages if not m.pinned]

    exchanges: list[list[Message]] = []
    for message in rest:
        if message.role == "user" or not exchanges:
            exchanges.append([message])
        else:
            exchanges[-1].append(message)

    windowed = [m for exchange in exchanges[-window_k:] for m in exchange]
    return pinned + windowed


_ACTION_BLOCK = re.compile(r"```action\s*\n(.*?)```", re.DOTALL)


def parse_react(raw_text: str, vocabulary: tuple[str, ...]) -> ReactTurn:
    """Extract the last fenced ``action`` block from model output.

    The block must hold a JSON object with ``thought``, ``action`` and
    ``args`` keys; ``action`` must come from ``vocabulary``.
    """
    blocks = _ACTION_BLOCK.findall(raw_text)
    if not blocks:
        raise MalformedAction("no ```action fenced block in output")
    try:
        payload = json.loads(blocks[-1])
    except json.JSONDecodeError as exc:
        raise MalformedAction(f"action block is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise MalformedAction("action block must hold a JSON object")
    missing = [key for key in ("thought", "action", "args") if key not in payload]
    if missing:
        raise MalformedAction(f"action object missing keys: {', '.join(missing)}")
    if not isinstance(payload["args"], dict):
        raise MalformedAction("args must be a JSON object")

    action = str(payload["action"])
    if action not in vocabulary:
        raise UnknownAction(
            f"action {action!r} not in vocabulary ({', '.join(vocabulary)})"
        )
    args = {str(k): v if isinstance(v, str) else json.dumps(v)
            for k, v in payload["args"].items()}
    return ReactTurn(thought=str(payload["thought"]), action=action, args=args)


# ---- wire helpers ----

def to_wire(messages: list[Message]) -> list[dict[str, str]]:
    return [{"role": m.role, "content": m.content} for m in messages]


def request_digest(model_id: str, wire_messages: list[dict[str, str]]) -> str:
    """Stable digest of one request: model id plus role:content pairs."""
    hasher = hashlib.sha256()
    hasher.update(model_id.encode("utf-8"))
    for message in wire_messages:
        hasher.update(b"\x00")
        hasher.update(f"{message['role']}:{message['content']}".encode("utf-8"))
    return hasher.hexdigest()


def ensure_context_fits(
    messages: list[Message], params: BackendParams, context_limit: int
) -> None:
    """Refuse a request that cannot fit before any backend work happens."""
    prompt_tokens = sum(estimate_tokens(m.content) for m in messages)
    if prompt_tokens + params.max_tokens > context_limit:
        raise ContextOverflow(
            f"prompt estimate {prompt_tokens} + max_tokens {params.max_tokens} "
            f"exceeds context limit {context_limit}"
        )


class Session(Protocol):
    def complete(self, messages: list[Message], params: BackendParams) -> str: ...


class Backend(Protocol):
    def session(self) -> Session: ...


class LiveBackend:
    """OpenAI-compatible chat client with bounded retries.

    Non-2xx responses and transport errors are retried three times with
    1/2/4 second backoff before HttpFailure is raised.
    """

    RETRIES = 3

    def __init__(
        self,
        base_url: str | None = None,
        api_key: str | None = None,
        context_limit: int = DEFAULT_CONTEXT_LIMIT,
        timeout_s: float = 120.0,
        post: Callable = requests.post,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.base_url = base_url or os.environ.get(BASE_URL_ENV)
        if not self.base_url:
            raise ValueError(f"no endpoint: pass base_url or set {BASE_URL_ENV}")
        self.api_key = api_key or os.environ.get(API_KEY_ENV, "")
        self.context_limit = context_limit
        self.timeout_s = timeout_s
        self._post = post
        self._sleep = sleep

    def session(self) -> LiveBackend:
        return self

    def build_request(
        self, messages: list[Message], params: BackendParams
    ) -> tuple[str, dict[str, str], dict]:
        url = self.base_url.rstrip("/") + "/chat/completions"
        headers = {
            "Authorization": f"Bearer {self.api_key}",
            "Content-Type": "application/json",
        }
        body = {
            "model": params.model_id,
            "messages": to_wire(messages),
            "temperature": params.temperature,
            "max_tokens": params.max_tokens,
        }
        return url, headers, body

    def complete(self, messages: list[Message], params: BackendParams) -> str:
        ensure_context_fits(messages, params, self.context_limit)
        url, headers, body = self.build_request(messages, params)
        last_error = "no attempt made"
        for attempt in range(self.RETRIES + 1):
            if attempt:
                self._sleep(2 ** (attempt - 1))
            try:
                response = self._post(url, headers=headers, json=body,
                                      timeout=self.timeout_s)
            except requests.RequestException as exc:
                last_error = f"transport error: {exc}"
                logger.warning("completion attempt %d failed: %s", attempt + 1, exc)
                continue
            if not 200 <= response.status_code < 300:
                last_error = f"HTTP {response.status_code}"
                logger.warning("completion attempt %d got %s", attempt + 1, last_error)
                continue
            try:
                data = response.json()
                return data["choices"][0]["message"]["content"]
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                raise HttpFailure(f"malformed completion response: {exc}") from exc
        raise HttpFailure(f"{url} failed after {self.RETRIES + 1} attempts: {last_error}")


@dataclass(frozen=True)
class _TranscriptRecord:
    request_digest: str
    response: str


class ReplayBackend:
    """Serves recorded responses; no network, ever.

    Each session scans forward through the shared transcript with its
    own cursor, so concurrent runs replay independently and a transcript
    may interleave records from several runs.
    """

    def __init__(
        self,
        transcript_path: str | os.PathLike,
        context_limit: int = DEFAULT_CONTEXT_LIMIT,
    ) -> None:
        self.records = _load_transcript(Path(transcript_path))
        self.context_limit = context_limit

    def session(self) -> ReplaySession:
        return ReplaySession(self.records, self.context_limit)


class ReplaySession:
    def __init__(self, records: list[_TranscriptRecord], context_limit: int) -> None:
        self._records = records
        self._context_limit = context_limit
        self.cursor = 0

    def complete(self, messages: list[Message], params: BackendParams) -> str:
        ensure_context_fits(messages, params, self._context_limit)
        digest = request_digest(params.model_id, to_wire(messages))
        for idx in range(self.cursor, len(self._records)):
            if self._records[idx].request_digest == digest:
                self.cursor = idx + 1
                return self._records[idx].response
        raise ReplayMismatch(
            f"no recorded response for digest {digest[:12]} after cursor {self.cursor}"
        )


def _load_transcript(path: Path) -> list[_TranscriptRecord]:
    records: list[_TranscriptRecord] = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
                records.append(
                    _TranscriptRecord(
                        request_digest=row["request_digest"],
                        response=row["response"],
                    )
                )
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise ReplayMismatch(
                    f"{path}:{lineno}: bad transcript record: {exc}"
                ) from exc
    return records


class RecordingBackend:
    """Wraps another backend and captures its traffic as a transcript."""

    def __init__(self, inner: Backend, transcript_path: str | os.PathLike) -> None:
        self._inner = inner
        self._path = Path(transcript_path)

    def session(self) -> RecordingSession:
        return RecordingSession(self._inner.session(), self._path)


class RecordingSession:
    def __init__(self, inner: Session, path: Path) -> None:
        self._inner = inner
        self._path = path

    def complete(self, messages: list[Message], params: BackendParams) -> str:
        digest = request_digest(params.model_id, to_wire(messages))
        response = self._inner.complete(messages, params)
        row = {"request_digest": digest, "response": response}
        with open(self._path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(row) + "\n")
        return response
