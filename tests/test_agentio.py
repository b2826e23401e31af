"""Conversation state, prompt assembly, action parsing, and backends."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repeton.agentio import (
    BackendParams,
    Conversation,
    LiveBackend,
    Message,
    RecordingBackend,
    ReplayBackend,
    assemble_prompt,
    ensure_context_fits,
    estimate_tokens,
    parse_react,
    request_digest,
    to_wire,
)
from repeton.errors import (
    ContextOverflow,
    HttpFailure,
    MalformedAction,
    ReplayMismatch,
    UnknownAction,
)

PARAMS = BackendParams(model_id="test-model", temperature=0.0, max_tokens=64)


def test_message_rejects_unknown_role():
    with pytest.raises(ValueError):
        Message("narrator", "hello")


def test_estimate_tokens_rounds_up_quarters():
    assert estimate_tokens("") == 0
    assert estimate_tokens("a") == 1
    assert estimate_tokens("abcd") == 1
    assert estimate_tokens("abcde") == 2
    assert estimate_tokens("x" * 400) == 100


def test_conversation_append_and_token_estimate():
    conv = Conversation()
    conv.append("system", "abcd")
    conv.append("user", "abcdefgh")
    assert len(conv) == 2


def test_truncate_keeps_the_first_messages():
    conv = Conversation()
    conv.append("system", "charter", pinned=True)
    conv.append("user", "one")
    conv.append("assistant", "two")
    conv.append("user", "three")

    conv.truncate(2)
    assert [m.content for m in conv.messages] == ["charter", "one"]
    conv.truncate(5)
    assert len(conv) == 2


def test_rollback_is_idempotent():
    conv = Conversation()
    conv.append("user", "one")
    mark = len(conv)
    conv.append("assistant", "two")
    conv.truncate(mark)
    conv.truncate(mark)
    assert [m.content for m in conv.messages] == ["one"]


def test_prompt_keeps_pinned_plus_last_window_of_exchanges():
    conv = Conversation()
    conv.append("system", "charter", pinned=True)
    conv.append("user", "problem summary", pinned=True)
    for idx in range(12):
        conv.append("user", f"ask-{idx}")
        conv.append("assistant", f"answer-{idx}")

    prompt = assemble_prompt(conv, window_k=8)
    assert len(prompt) == 2 + 16
    assert [m.content for m in prompt[:2]] == ["charter", "problem summary"]
    assert prompt[2].content == "ask-4"
    assert prompt[-1].content == "answer-11"


def test_prompt_includes_trailing_unanswered_user_message():
    conv = Conversation()
    conv.append("user", "q1")
    conv.append("assistant", "a1")
    conv.append("user", "q2")
    prompt = assemble_prompt(conv, window_k=1)
    assert [m.content for m in prompt] == ["q2"]


def test_prompt_rejects_non_positive_window():
    with pytest.raises(ValueError):
        assemble_prompt(Conversation(), window_k=0)


@settings(max_examples=200, deadline=None)
@given(
    plan=st.lists(
        st.tuples(
            st.sampled_from(["system", "user", "assistant"]),
            st.text(max_size=12),
            st.booleans(),
        ),
        max_size=40,
    ),
    window_k=st.integers(min_value=1, max_value=10),
)
def test_prompt_assembly_properties(plan, window_k):
    conv = Conversation()
    for role, content, pinned in plan:
        conv.append(role, content, pinned=pinned)
    prompt = assemble_prompt(conv, window_k)

    pinned = [m for m in conv.messages if m.pinned]
    assert prompt[: len(pinned)] == pinned

    rest = [m for m in conv.messages if not m.pinned]
    groups: list[list[Message]] = []
    for message in rest:
        if message.role == "user" or not groups:
            groups.append([message])
        else:
            groups[-1].append(message)
    expected_tail = [m for g in groups[-window_k:] for m in g]
    assert prompt[len(pinned):] == expected_tail

    user_count = sum(1 for m in prompt[len(pinned):] if m.role == "user")
    assert user_count <= window_k


def _block(payload) -> str:
    return "```action\n" + json.dumps(payload) + "\n```"


def test_parse_react_happy_path():
    raw = "Thinking aloud first.\n" + _block(
        {"thought": "look around", "action": "search", "args": {"q": "add"}}
    )
    turn = parse_react(raw, ("search", "done"))
    assert turn.thought == "look around"
    assert turn.action == "search"
    assert turn.args == {"q": "add"}


def test_parse_react_uses_last_block():
    raw = (
        _block({"thought": "draft", "action": "done", "args": {}})
        + "\nactually, revised:\n"
        + _block({"thought": "final", "action": "search", "args": {}})
    )
    turn = parse_react(raw, ("search", "done"))
    assert turn.action == "search"


def test_parse_react_coerces_non_string_args_to_json():
    raw = _block(
        {
            "thought": "t",
            "action": "edit",
            "args": {"start": 5, "flag": True, "meta": {"a": 1}},
        }
    )
    turn = parse_react(raw, ("edit",))
    assert turn.args == {"start": "5", "flag": "true", "meta": '{"a": 1}'}


def test_parse_react_requires_fenced_block():
    with pytest.raises(MalformedAction):
        parse_react("no block at all", ("search",))


def test_parse_react_rejects_bad_json():
    with pytest.raises(MalformedAction):
        parse_react("```action\nnot json\n```", ("search",))


def test_parse_react_requires_all_keys():
    with pytest.raises(MalformedAction):
        parse_react(_block({"thought": "t", "action": "search"}), ("search",))


def test_parse_react_requires_dict_args():
    raw = _block({"thought": "t", "action": "search", "args": [1, 2]})
    with pytest.raises(MalformedAction):
        parse_react(raw, ("search",))


def test_parse_react_rejects_out_of_vocabulary_action():
    raw = _block({"thought": "t", "action": "fly", "args": {}})
    with pytest.raises(UnknownAction):
        parse_react(raw, ("search",))


def test_request_digest_is_stable_and_sensitive():
    wire = to_wire([Message("system", "s"), Message("user", "u")])
    first = request_digest("m1", wire)
    assert first == request_digest("m1", wire)
    assert first != request_digest("m2", wire)
    assert first != request_digest("m1", to_wire([Message("user", "s u")]))
    assert len(first) == 64


def test_context_guard_blocks_oversized_prompts():
    messages = [Message("user", "x" * 4000)]
    ensure_context_fits(messages, PARAMS, context_limit=1100)
    with pytest.raises(ContextOverflow):
        ensure_context_fits(messages, PARAMS, context_limit=1000)


class _FakeResponse:
    def __init__(self, status_code: int, payload=None):
        self.status_code = status_code
        self._payload = payload

    def json(self):
        if self._payload is None:
            raise ValueError("no body")
        return self._payload


def _ok_payload(content: str) -> dict:
    return {"choices": [{"message": {"content": content}}]}


def test_live_backend_request_shape():
    backend = LiveBackend(base_url="https://api.example.test/v1", api_key="k-123")
    url, headers, body = backend.build_request(
        [Message("system", "be terse"), Message("user", "fix it")], PARAMS
    )
    assert url == "https://api.example.test/v1/chat/completions"
    assert headers["Authorization"] == "Bearer k-123"
    assert body == {
        "model": "test-model",
        "messages": [
            {"role": "system", "content": "be terse"},
            {"role": "user", "content": "fix it"},
        ],
        "temperature": 0.0,
        "max_tokens": 64,
    }


def test_live_backend_returns_completion_content():
    calls = []

    def post(url, headers=None, json=None, timeout=None):
        calls.append(url)
        return _FakeResponse(200, _ok_payload("patched"))

    backend = LiveBackend(base_url="http://x", api_key="k", post=post)
    assert backend.complete([Message("user", "go")], PARAMS) == "patched"
    assert len(calls) == 1


def test_live_backend_retries_with_backoff_then_succeeds():
    naps: list[float] = []
    responses = [_FakeResponse(500), _FakeResponse(502), _FakeResponse(200, _ok_payload("ok"))]

    def post(url, headers=None, json=None, timeout=None):
        return responses.pop(0)

    backend = LiveBackend(
        base_url="http://x", api_key="k", post=post, sleep=naps.append
    )
    assert backend.complete([Message("user", "go")], PARAMS) == "ok"
    assert naps == [1, 2]


def test_live_backend_gives_up_after_bounded_retries():
    attempts = []

    def post(url, headers=None, json=None, timeout=None):
        attempts.append(1)
        return _FakeResponse(503)

    backend = LiveBackend(
        base_url="http://x", api_key="k", post=post, sleep=lambda _s: None
    )
    with pytest.raises(HttpFailure):
        backend.complete([Message("user", "go")], PARAMS)
    assert len(attempts) == LiveBackend.RETRIES + 1


def test_live_backend_does_not_retry_malformed_success_body():
    attempts = []

    def post(url, headers=None, json=None, timeout=None):
        attempts.append(1)
        return _FakeResponse(200, {"unexpected": "shape"})

    backend = LiveBackend(
        base_url="http://x", api_key="k", post=post, sleep=lambda _s: None
    )
    with pytest.raises(HttpFailure):
        backend.complete([Message("user", "go")], PARAMS)
    assert len(attempts) == 1


def test_live_backend_overflow_guard_precedes_transport():
    def post(url, headers=None, json=None, timeout=None):
        raise AssertionError("transport must not be touched")

    backend = LiveBackend(
        base_url="http://x", api_key="k", post=post, context_limit=10
    )
    with pytest.raises(ContextOverflow):
        backend.complete([Message("user", "y" * 400)], PARAMS)


def test_live_backend_requires_an_endpoint(monkeypatch):
    monkeypatch.delenv("REPETON_BASE_URL", raising=False)
    with pytest.raises(ValueError):
        LiveBackend()


def _record_rows(path, exchanges):
    rows = []
    for messages, response in exchanges:
        digest = request_digest(PARAMS.model_id, to_wire(messages))
        rows.append({"request_digest": digest, "response": response})
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))


def test_replay_returns_recorded_responses_in_order(tmp_path):
    transcript = tmp_path / "t.jsonl"
    first = [Message("user", "one")]
    second = [Message("user", "two")]
    _record_rows(transcript, [(first, "r1"), (second, "r2")])

    session = ReplayBackend(transcript).session()
    assert session.complete(first, PARAMS) == "r1"
    assert session.complete(second, PARAMS) == "r2"


def test_replay_sessions_scan_independently(tmp_path):
    transcript = tmp_path / "t.jsonl"
    first = [Message("user", "one")]
    second = [Message("user", "two")]
    _record_rows(transcript, [(first, "r1"), (second, "r2")])

    backend = ReplayBackend(transcript)
    session_a = backend.session()
    session_b = backend.session()
    assert session_b.complete(second, PARAMS) == "r2"
    assert session_a.complete(first, PARAMS) == "r1"


def test_replay_skips_foreign_records_between_own_rows(tmp_path):
    transcript = tmp_path / "t.jsonl"
    mine_1 = [Message("user", "mine first")]
    other = [Message("user", "someone else")]
    mine_2 = [Message("user", "mine second")]
    _record_rows(
        transcript, [(mine_1, "m1"), (other, "x"), (mine_2, "m2")]
    )

    session = ReplayBackend(transcript).session()
    assert session.complete(mine_1, PARAMS) == "m1"
    assert session.complete(mine_2, PARAMS) == "m2"


def test_replay_mismatch_on_unrecorded_prompt(tmp_path):
    transcript = tmp_path / "t.jsonl"
    _record_rows(transcript, [([Message("user", "known")], "r")])
    session = ReplayBackend(transcript).session()
    with pytest.raises(ReplayMismatch):
        session.complete([Message("user", "never recorded")], PARAMS)


def test_replay_counts_calls_even_without_match(tmp_path):
    transcript = tmp_path / "t.jsonl"
    _record_rows(transcript, [([Message("user", "known")], "r")])
    session = ReplayBackend(transcript).session()
    with pytest.raises(ReplayMismatch):
        session.complete([Message("user", "other")], PARAMS)
    assert session.cursor == 0


def test_replay_rejects_corrupt_transcript(tmp_path):
    transcript = tmp_path / "t.jsonl"
    transcript.write_text('{"request_digest": "abc"}\n')
    with pytest.raises(ReplayMismatch):
        ReplayBackend(transcript)


class _EchoBackend:
    def session(self):
        return self

    def complete(self, messages, params):
        return f"echo:{messages[-1].content}"


def test_recording_then_replaying_round_trips(tmp_path):
    transcript = tmp_path / "t.jsonl"
    recorder = RecordingBackend(_EchoBackend(), transcript).session()
    prompt_a = [Message("user", "alpha")]
    prompt_b = [Message("user", "beta")]
    assert recorder.complete(prompt_a, PARAMS) == "echo:alpha"
    assert recorder.complete(prompt_b, PARAMS) == "echo:beta"

    replayer = ReplayBackend(transcript).session()
    assert replayer.complete(prompt_a, PARAMS) == "echo:alpha"
    assert replayer.complete(prompt_b, PARAMS) == "echo:beta"
