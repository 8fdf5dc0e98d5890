"""Provider-agnostic chat-completion boundary.

Three provider kinds: `http` for live runs, `scripted` for tests, and
`replay`, which re-serves a previously recorded audit log and bridges costly
live runs into CI. The gateway never mutates prompt text, retries transient
failures with exponential backoff, and appends every completed exchange to a
JSONL audit log before returning.

Audit timestamps are a deterministic call counter, not wall-clock time:
byte-identical reruns are part of the contract. A call's audit record holds
only what the call added to its conversation (one conversation per role tag
at a time). A `Transcript` encodes each message once, into JSON fragments
that feed its running request hash and that the gateway's `record_line`
reuses as the record's messages, so a call's request hash and audit line
cost what the call added rather than the whole conversation. Each reply is
escaped once too: the gateway writes it into the audit line and hands it
back as the assistant message's fragment (`ChatResponse.fragment`), which
the caller appends to its transcript. JSON-escaping a text is escaping each
of its pieces in turn, so a caller whose message is joined from texts it has
already escaped (`escape`) hands `Transcript.append` the fragment joined
from those escapes (`escaped_fragment`) instead of having the whole message
escaped again.
"""

from __future__ import annotations

import functools
import hashlib
import json
import time
from dataclasses import dataclass, field
from itertools import islice
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Iterable, Protocol

from .engine import AuditLog
from .errors import ProviderError

AUDIT_VERSION = 2  # the `v` of every gateway.jsonl record
DEFAULT_BACKOFF_S = (1.0, 4.0, 16.0)
RETRYABLE = ("TIMEOUT", "RATE_LIMITED")


class GatewayError(ProviderError):
    def __init__(self, code: str, message: str = ""):
        self.code = code
        super().__init__(f"{code}: {message}" if message else code)


@dataclass(frozen=True)
class ChatMessage:
    role: str  # "user" | "assistant"
    text: str


@dataclass(frozen=True)
class ChatRequest:
    """One call's conversation. `digest` is its `request_hash`, as a
    `Transcript` computes it, and `fragments` are the `message_fragment`s of
    its last messages, those its `Transcript` appended since its previous
    request. A request built without a digest gets both from a `Transcript`
    of its messages."""

    system_text: str
    messages: tuple[ChatMessage, ...]
    tags: tuple[tuple[str, str], ...] = ()
    digest: str = field(default="", compare=False, repr=False)
    fragments: tuple[str, ...] = field(default=(), compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.digest:
            transcript = Transcript(self.system_text, self.messages)
            object.__setattr__(self, "digest", transcript.digest())
            object.__setattr__(self, "fragments", tuple(transcript._fresh))

    def tag(self, key: str) -> str | None:
        return dict(self.tags).get(key)


@dataclass(frozen=True)
class ChatResponse:
    """A provider's reply. `Gateway.complete` sets `fragment` to the
    `message_fragment` of the assistant message of `text`."""

    text: str
    prompt_tokens: int | None = None
    completion_tokens: int | None = None
    latency_s: float = 0.0
    fragment: str = field(default="", compare=False, repr=False)


def request_payload(request: ChatRequest) -> dict:
    # The empty "model_id" and "params" keep every recorded request_hash valid.
    return {
        "system": request.system_text,
        "messages": [{"role": m.role, "text": m.text} for m in request.messages],
        "model_id": "",
        "params": {},
    }


def request_hash(request: ChatRequest) -> str:
    canonical = json.dumps(request_payload(request), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# The canonical JSON of `request_payload` puts its keys in sorted order, so
# "messages" comes first and a conversation's encoding only ever grows at the
# end of that list, before the fixed tail.
_HEAD = b'{"messages":['
_TAIL = '],"model_id":"","params":{},"system":'


def message_fragment(message: ChatMessage) -> str:
    """`message` as canonical JSON: its item in the `messages` of both
    `request_payload`'s encoding and an audit record."""
    return f'{{"role":{encode_basestring_ascii(message.role)},"text":{encode_basestring_ascii(message.text)}}}'


def escape(text: str) -> str:
    """`text` as `message_fragment` writes it, between the quotes. The escape
    maps each code point on its own (an unpaired surrogate too), so the escape
    of a concatenation is the concatenation of the escapes."""
    return encode_basestring_ascii(text)[1:-1]


def escaped_fragment(role: str, escaped_text: str) -> str:
    """The `message_fragment` of a message of `role` whose text's `escape` is
    `escaped_text`."""
    return f'{{"role":{encode_basestring_ascii(role)},"text":"{escaped_text}"}}'


class Transcript:
    """A conversation's system text and messages, each message encoded once.

    Appending a message encodes its `message_fragment` and feeds it (preceded
    by a comma after the first) to a running SHA-256 of the payload so far, so
    `request` gives each call's `request_hash` at the cost of what the call
    adds. The request also carries the fragments appended since the previous
    request, and the gateway formats the call's audit line from them; older
    fragments are not kept. A caller may hand `append` a message's fragment
    already built, as one joined from escaped pieces; it lives no longer than
    the fragments the transcript encodes itself.
    """

    def __init__(self, system_text: str = "", messages: Iterable[ChatMessage] = ()):
        self.system_text = system_text
        self.messages: list[ChatMessage] = []
        self._fresh: list[str] = []  # the fragments appended since the last request
        self._sha = hashlib.sha256(_HEAD)
        self._tail: tuple[str | None, bytes] = (None, b"")  # a system text and its encoded tail
        for message in messages:
            self.append(message)

    def append(self, message: ChatMessage, fragment: str | None = None) -> None:
        """Add `message`; `fragment`, when given, must be its `message_fragment`."""
        if fragment is None:
            fragment = message_fragment(message)
        if self.messages:
            self._sha.update(b",")
        self._sha.update(fragment.encode())
        self.messages.append(message)
        self._fresh.append(fragment)

    def digest(self) -> str:
        system_text, tail = self._tail
        if system_text != self.system_text:
            tail = f"{_TAIL}{encode_basestring_ascii(self.system_text)}}}".encode()
            self._tail = (self.system_text, tail)
        sha = self._sha.copy()
        sha.update(tail)
        return sha.hexdigest()

    def request(self, tags: tuple[tuple[str, str], ...]) -> ChatRequest:
        fresh, self._fresh = tuple(self._fresh), []
        return ChatRequest(self.system_text, tuple(self.messages), tags, self.digest(), fresh)


def record_line(
    ts: int,
    tags: Iterable[tuple[str, str]],
    digest: str,
    prior: int,
    fragments: Iterable[str],
    response_json: str,
    system_text: str | None,
) -> str:
    """The gateway.jsonl line of call `ts`: its record as compact JSON with
    sorted keys and `default=str`, whose `messages` are `fragments`, each a
    `message_fragment`, and whose response text is `response_json`, as
    `encode_basestring_ascii` writes it. A record with `prior` 0 holds
    `system_text`, any other has None."""
    esc = encode_basestring_ascii
    tag_items = ",".join(f"{esc(key)}:{esc(value)}" for key, value in sorted(dict(tags).items()))
    system = "" if system_text is None else f',"system":{esc(system_text)}'
    return (
        f'{{"messages":[{",".join(fragments)}],"prior":{prior},"request_hash":{esc(digest)},'
        f'"response":{{"text":{response_json}}}{system},"tags":{{{tag_items}}},'
        f'"ts":"{ts:06d}","v":{AUDIT_VERSION}}}'
    )


class Provider(Protocol):
    def complete(self, request: ChatRequest) -> ChatResponse: ...


@dataclass
class ScriptEntry:
    """One scripted exchange: matches by 1-based call step or substring.

    `times=None` serves unlimited calls; entries are checked in order and the
    first live match wins.
    """

    response: str
    match: str | None = None
    step: int | None = None
    times: int | None = 1
    _used: int = field(default=0, repr=False)

    @property
    def spent(self) -> bool:
        return self.times is not None and self._used >= self.times

    def matches(self, step: int, haystack: Callable[[], str]) -> bool:
        if self.spent:
            return False
        if self.step is not None:
            return self.step == step
        if self.match is not None:
            return self.match in haystack()
        return True


class ScriptedProvider:
    """Deterministic mock; strict mode errors on exhaustion or mismatch."""

    def __init__(self, script: list[ScriptEntry], strict: bool = True, default_response: str = ""):
        self.script = script
        self.strict = strict
        self.default_response = default_response
        self.calls = 0
        self._live = 0  # entries before this index are spent and never match again

    def complete(self, request: ChatRequest) -> ChatResponse:
        self.calls += 1
        while self._live < len(self.script) and self.script[self._live].spent:
            self._live += 1
        haystack = functools.cache(
            lambda: request.system_text + "\n" + "\n".join(m.text for m in request.messages)
        )
        for entry in islice(self.script, self._live, None):
            if entry.matches(self.calls, haystack):
                entry._used += 1
                return ChatResponse(text=entry.response)
        if self.strict:
            raise GatewayError("SCRIPT_EXHAUSTED", f"no scripted response for call {self.calls}")
        return ChatResponse(text=self.default_response)


class ReplayProvider:
    """Re-serves a recorded gateway audit log in call order.

    Each replayed call must hash-match the recorded request; any divergence
    (edited prompts, reordered calls, tampered log, a record of another audit
    version) fails loudly.
    """

    def __init__(self, audit_path: Path | str):
        # Only what replay needs of each record: its request hash and response text.
        self.records: list[tuple[str, str]] = []
        try:
            with open(audit_path, "r", encoding="utf-8") as fh:
                for line in fh:
                    if line.strip():
                        record = json.loads(line)
                        if (version := record.get("v", 1)) != AUDIT_VERSION:
                            raise GatewayError(
                                "PROVIDER_ERROR",
                                f"record {len(self.records) + 1} in {audit_path} is gateway audit version "
                                f"{version!r}; this build replays version {AUDIT_VERSION}",
                            )
                        pair = (record["request_hash"], record["response"]["text"])
                        if not all(isinstance(s, str) for s in pair):
                            raise TypeError(f"request_hash and response text must be strings, got {pair!r}")
                        self.records.append(pair)
        except (ValueError, KeyError, TypeError, AttributeError, RecursionError) as exc:
            raise GatewayError("PROVIDER_ERROR", f"bad record {len(self.records) + 1} in {audit_path}: {exc!r}") from None
        self.cursor = 0

    def complete(self, request: ChatRequest) -> ChatResponse:
        if self.cursor >= len(self.records):
            raise GatewayError("SCRIPT_EXHAUSTED", "replay log exhausted")
        expected, text = self.records[self.cursor]
        self.cursor += 1
        actual = request.digest
        if expected != actual:
            raise GatewayError(
                "REPLAY_MISMATCH",
                f"call {self.cursor}: request hash {actual[:12]} != recorded {expected[:12]}",
            )
        return ChatResponse(text=text)


class HttpProvider:
    """OpenAI-style chat completions endpoint; API key via environment only."""

    def __init__(
        self,
        base_url: str,
        model_id: str,
        timeout_s: float = 60.0,
        api_key_env: str = "LLM_API_KEY",
        session=None,
    ):
        self.base_url = base_url.rstrip("/")
        self.model_id = model_id
        self.timeout_s = timeout_s
        self.api_key_env = api_key_env
        self._session = session

    def complete(self, request: ChatRequest) -> ChatResponse:
        import os

        import requests

        session = self._session or requests
        messages = []
        if request.system_text:
            messages.append({"role": "system", "content": request.system_text})
        for m in request.messages:
            messages.append({"role": m.role, "content": m.text})
        payload = {"model": self.model_id, "messages": messages}
        headers = {}
        key = os.environ.get(self.api_key_env, "")
        if key:
            headers["Authorization"] = f"Bearer {key}"
        started = time.monotonic()
        try:
            resp = session.post(
                f"{self.base_url}/chat/completions",
                json=payload,
                headers=headers,
                timeout=self.timeout_s,
            )
        except requests.Timeout as exc:
            raise GatewayError("TIMEOUT", str(exc)) from exc
        except requests.RequestException as exc:
            raise GatewayError("PROVIDER_ERROR", str(exc)) from exc
        if resp.status_code == 429:
            raise GatewayError("RATE_LIMITED", "429")
        if resp.status_code >= 400:
            raise GatewayError("PROVIDER_ERROR", f"status {resp.status_code}")
        try:  # a body that is not JSON, or not of this shape, is the provider's fault
            body = resp.json()
            text = body["choices"][0]["message"]["content"]
            if not isinstance(text, str):
                raise TypeError(f"content must be a string, got {text!r}")
            usage = body.get("usage") or {}
            tokens = usage.get("prompt_tokens"), usage.get("completion_tokens")
        except (ValueError, RecursionError, LookupError, TypeError, AttributeError) as exc:
            raise GatewayError("PROVIDER_ERROR", f"unexpected response body: {exc!r}") from None
        return ChatResponse(text, *tokens, latency_s=time.monotonic() - started)


class RouterProvider:
    """Dispatch to a per-role provider by the request's `role` tag."""

    def __init__(self, providers: dict[str, Provider], default: Provider | None = None):
        self.providers = providers
        self.default = default

    def complete(self, request: ChatRequest) -> ChatResponse:
        role = request.tag("role") or ""
        provider = self.providers.get(role, self.default)
        if provider is None:
            raise GatewayError("PROVIDER_ERROR", f"no provider for role {role!r}")
        return provider.complete(request)


class Gateway:
    """Retry/timeout/audit wrapper shared by every agent in a run.

    Each audit record states what its call added to its role's conversation:
    `prior` counts the messages that earlier records hold (the last request
    of that role tag plus its reply), `messages` holds the rest, and a record
    with `prior` 0 starts a conversation and holds its `system` text.
    """

    def __init__(
        self,
        provider: Provider,
        audit_sink: Path | str | None = None,
        max_attempts: int = 3,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.provider = provider
        self.max_attempts = max_attempts
        self.sleep = sleep
        self.audit = AuditLog(audit_sink)
        self._counter = 0
        # Per role tag: the system text and messages its audit records hold.
        self._recorded: dict[str | None, tuple[str, tuple[ChatMessage, ...]]] = {}

    def close(self) -> None:
        self.audit.close()

    def complete(self, request: ChatRequest) -> ChatResponse:
        if not request.messages:
            raise GatewayError("PROVIDER_ERROR", "empty message list")
        attempt = 0
        while True:
            attempt += 1
            try:
                response = self.provider.complete(request)
                break
            except GatewayError as exc:
                if exc.code in RETRYABLE and attempt < self.max_attempts:
                    self.sleep(DEFAULT_BACKOFF_S[min(attempt - 1, len(DEFAULT_BACKOFF_S) - 1)])
                    continue
                raise
        self._audit(request, response)
        return response

    def _audit(self, request: ChatRequest, response: ChatResponse) -> None:
        """Write the call's record, and set the response's `fragment` from
        the same escape of its text. The fragment follows from the text
        alone, so a provider may hand out one response many times."""
        self._counter += 1
        role = request.tag("role")
        system, recorded = self._recorded.get(role, ("", ()))
        prior = len(recorded) if system == request.system_text and request.messages[: len(recorded)] == recorded else 0
        # The request's fragments encode its last messages. A new message
        # before them is encoded here: another conversation of this role tag
        # came between, or the request's previous call failed.
        start = len(request.messages) - len(request.fragments)
        fragments = [*map(message_fragment, request.messages[prior:start]), *request.fragments[max(prior - start, 0) :]]
        system_text = None if prior else request.system_text
        reply = encode_basestring_ascii(response.text)
        object.__setattr__(response, "fragment", f'{{"role":"assistant","text":{reply}}}')
        self.audit.append(
            record_line(self._counter, request.tags, request.digest, prior, fragments, reply, system_text)
        )
        self._recorded[role] = (request.system_text, (*request.messages, ChatMessage("assistant", response.text)))
