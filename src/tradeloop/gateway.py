"""Provider-agnostic chat-completion boundary.

Three provider kinds: `http` for live runs, `scripted` for tests, and
`replay`, which re-serves a previously recorded audit log and bridges costly
live runs into CI. The gateway never mutates prompt text, retries transient
failures with exponential backoff, and appends every completed exchange to a
JSONL audit log before returning.

Audit timestamps are a deterministic call counter, not wall-clock time:
byte-identical reruns are part of the contract.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Protocol

from .engine import AuditLog
from .errors import ProviderError

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
    system_text: str
    messages: tuple[ChatMessage, ...]
    tags: tuple[tuple[str, str], ...] = ()

    def tag(self, key: str) -> str | None:
        return dict(self.tags).get(key)


@dataclass(frozen=True)
class ChatResponse:
    text: str
    prompt_tokens: int | None = None
    completion_tokens: int | None = None
    latency_s: float = 0.0


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

    def matches(self, request: ChatRequest, step: int) -> bool:
        if self.times is not None and self._used >= self.times:
            return False
        if self.step is not None:
            return self.step == step
        if self.match is not None:
            haystack = request.system_text + "\n" + "\n".join(m.text for m in request.messages)
            return self.match in haystack
        return True


class ScriptedProvider:
    """Deterministic mock; strict mode errors on exhaustion or mismatch."""

    def __init__(self, script: list[ScriptEntry], strict: bool = True, default_response: str = ""):
        self.script = script
        self.strict = strict
        self.default_response = default_response
        self.calls = 0

    def complete(self, request: ChatRequest) -> ChatResponse:
        self.calls += 1
        for entry in self.script:
            if entry.matches(request, self.calls):
                entry._used += 1
                return ChatResponse(text=entry.response)
        if self.strict:
            raise GatewayError("SCRIPT_EXHAUSTED", f"no scripted response for call {self.calls}")
        return ChatResponse(text=self.default_response)


class ReplayProvider:
    """Re-serves a recorded gateway audit log in call order.

    Each replayed call must hash-match the recorded request; any divergence
    (edited prompts, reordered calls, tampered log) fails loudly.
    """

    def __init__(self, audit_path: Path | str):
        # Only what replay needs of each record: its request hash and response text.
        self.records: list[tuple[str, str]] = []
        try:
            with open(audit_path, "r", encoding="utf-8") as fh:
                for line in fh:
                    if line.strip():
                        record = json.loads(line)
                        pair = (record["request_hash"], record["response"]["text"])
                        if not all(isinstance(s, str) for s in pair):
                            raise TypeError(f"request_hash and response text must be strings, got {pair!r}")
                        self.records.append(pair)
        except (ValueError, KeyError, TypeError) as exc:
            raise GatewayError("PROVIDER_ERROR", f"bad record {len(self.records) + 1} in {audit_path}: {exc!r}") from None
        self.cursor = 0

    def complete(self, request: ChatRequest) -> ChatResponse:
        if self.cursor >= len(self.records):
            raise GatewayError("SCRIPT_EXHAUSTED", "replay log exhausted")
        expected, text = self.records[self.cursor]
        self.cursor += 1
        actual = request_hash(request)
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
        body = resp.json()
        try:
            text = body["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise GatewayError("PROVIDER_ERROR", f"unexpected response shape: {exc}") from exc
        usage = body.get("usage", {}) or {}
        return ChatResponse(
            text=text,
            prompt_tokens=usage.get("prompt_tokens"),
            completion_tokens=usage.get("completion_tokens"),
            latency_s=time.monotonic() - started,
        )


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
    """Retry/timeout/audit wrapper shared by every agent in a run."""

    def __init__(
        self,
        provider: Provider,
        audit_sink: Path | str | None = None,
        max_attempts: int = 3,
        backoff_s: tuple[float, ...] = DEFAULT_BACKOFF_S,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.provider = provider
        self.max_attempts = max_attempts
        self.backoff_s = backoff_s
        self.sleep = sleep
        self.audit = AuditLog(audit_sink, sort_keys=True)
        self._counter = 0

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
                    delay = self.backoff_s[min(attempt - 1, len(self.backoff_s) - 1)]
                    self.sleep(delay)
                    continue
                raise
        self._audit(request, response)
        return response

    def _audit(self, request: ChatRequest, response: ChatResponse) -> None:
        self._counter += 1
        self.audit.append(
            {
                "ts": f"{self._counter:06d}",
                "tags": dict(request.tags),
                "request_hash": request_hash(request),
                "request": request_payload(request),
                "response": {"text": response.text},
            }
        )
