"""Provider-agnostic chat-completion boundary.

Two provider kinds: `http` for live runs (OpenAI-style, over urllib) and
`scripted` for tests. `ReplayProvider` re-serves a recorded audit log, which
a replay hands its run in place of the config's providers, and bridges costly
live runs into CI. The gateway never mutates prompt text,
retries transient failures with exponential backoff, and appends every
completed exchange to the JSONL `AuditLog` it is handed, and flushes it,
before returning: a model call is paid work, so a killed process loses no
record of one that returned.

Audit timestamps are a deterministic call counter, not wall-clock time:
byte-identical reruns are part of the contract. A call's audit record holds
only what the call added to its conversation (one conversation per role tag
at a time). A `ChatMessage` holds its one encoding, which both the request
hash and the audit record reuse; `Gateway.complete` returns the reply as such
a message. `joined_message` is the one maker of a message joined from parts:
its makers hand it plain texts and `SharedText`s (a rendered prompt, whose
long static runs of its template are shared texts, and the optimizer's
meta-prompt, from the asset's pieces, the score headers and the scored
templates), and its record lists the parts: each shared text is written out
the first time the log uses it and cited by its id after that (audit version
4). `rebuilt_requests` is the one reader of a log's records, which it
streams; it and `ReplayProvider` read the log's lines through one loop, and
`same_older_calls` compares an older recording with its replay through it.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import time
from dataclasses import InitVar, dataclass, field
from itertools import islice, zip_longest
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Iterable, Iterator, Protocol, Sequence, TypeVar

from .engine import AuditLog
from .errors import ProviderError, described

AUDIT_VERSION = 4  # the `v` of every gateway.jsonl record this build writes
READ_VERSIONS = (2, 3, 4)  # the versions it reads and replays; version 2 has no parts
BACKOFF_S = (1.0, 4.0)  # the sleep before each retry of a transient failure
RETRYABLE = ("TIMEOUT", "RATE_LIMITED")

T = TypeVar("T")


class GatewayError(ProviderError):
    def __init__(self, code: str, message: str = ""):
        self.code = code
        super().__init__(f"{code}: {message}" if message else code)


def text_id(text: str) -> str:
    """SHA-256 of `text` as UTF-8; an unpaired surrogate, which model text
    may carry, encodes as its three bytes instead of failing."""
    return hashlib.sha256(text.encode("utf-8", "surrogatepass")).hexdigest()


@dataclass(frozen=True)
class SharedText:
    """A text that its maker hands `joined_message` beside its `escape`:
    one that many messages hold, such as a template, whose `id` is its
    `text_id`; or, without an id, a literal part of its own, such as an
    optimizer header."""

    text: str
    escaped: str
    id: str | None = None


# A message part: the escape of a literal piece of text, or a shared text with its id.
Part = str | SharedText


def text_part(text: str) -> SharedText:
    """`text` with its escape, and its id unless it is empty or holds a
    surrogate: JSON reads the escapes of a high surrogate and a low one back
    as the one character they pair to, so the id of such a text could not be
    checked against the text read back."""
    escaped = escape(text)
    try:
        data = text.encode("utf-8")
    except UnicodeEncodeError:  # a surrogate
        return SharedText(text, escaped)
    return SharedText(text, escaped, hashlib.sha256(data).hexdigest() if text else None)


@dataclass(frozen=True)
class ChatMessage:
    """One turn of a conversation. `fragment` is its `message_fragment`,
    made once. `joined_message` hands a message that it joined from parts
    the escape of its text and the parts (`joined`): the message keeps them
    as `parts`, its fragment holds that escape, and its audit record lists
    the parts in place of the text. `dataclasses.replace` makes a message
    that encodes itself."""

    role: str  # "user" | "assistant"
    text: str
    joined: InitVar[tuple[str, tuple[Part, ...]] | None] = None
    parts: tuple[Part, ...] | None = field(init=False, compare=False, repr=False)
    fragment: str = field(init=False, compare=False, repr=False)

    def __post_init__(self, joined: tuple[str, tuple[Part, ...]] | None) -> None:
        if joined is None:
            object.__setattr__(self, "parts", None)
            object.__setattr__(self, "fragment", message_fragment(self))
        else:
            escaped, parts = joined
            object.__setattr__(self, "parts", parts)
            object.__setattr__(self, "fragment", f'{{"role":{encode_basestring_ascii(self.role)},"text":"{escaped}"}}')


def joined_message(role: str, pieces: Sequence[str | SharedText], strip: bool = False) -> ChatMessage:
    """The message of `role` whose text is `pieces` joined, stripped of the
    newlines at its ends when `strip`. Text, parts and fragment are made in
    one pass: each run of plain texts is one literal part, escaped once; a
    `SharedText` without an id is a literal part of the escape its maker
    holds, and one with an id a part of its own; an empty literal is left
    out. The message lists its parts exactly when a `SharedText` is among
    `pieces`. The escape maps each code point on its own, so the parts'
    escapes join to the escape of the text."""
    if strip:
        pieces = _stripped(list(pieces))
    shared = [i for i, piece in enumerate(pieces) if type(piece) is SharedText]
    if not shared:
        return ChatMessage(role, "".join(pieces))
    texts: list[str] = []
    parts: list[Part] = []
    start = 0  # where the run of plain texts since the last SharedText starts
    for i in (*shared, len(pieces)):
        if start < i:
            texts.append(text := "".join(pieces[start:i]))
            if text:
                parts.append(escape(text))
        if i < len(pieces):
            piece = pieces[i]
            texts.append(piece.text)
            if piece.escaped:  # a text with an id is never empty
                parts.append(piece if piece.id else piece.escaped)
        start = i + 1
    escaped = "".join([p if type(p) is str else p.escaped for p in parts])
    return ChatMessage(role, "".join(texts), (escaped, tuple(parts)))


def _stripped(pieces: list[str | SharedText]) -> list[str | SharedText]:
    """`pieces`, whose joined text is cut of its newlines at either end: a
    piece that the cut shortens stays plain text or, if it was a
    `SharedText`, becomes a literal one of its own."""
    ends = ((range(len(pieces)), str.lstrip), (range(len(pieces) - 1, -1, -1), str.rstrip))
    for order, cut in ends:
        for i in order:
            piece = pieces[i]
            shared = type(piece) is SharedText
            text = piece.text if shared else piece
            kept = cut(text, "\n")
            if len(kept) < len(text):
                pieces[i] = SharedText(kept, escape(kept)) if shared else kept
            if kept:
                break
    return pieces


@dataclass(frozen=True)
class ChatRequest:
    """One call's conversation, as `Transcript.request` makes it. `digest`
    is its `request_hash`."""

    system_text: str
    messages: tuple[ChatMessage, ...]
    tags: tuple[tuple[str, str], ...]
    digest: str = field(compare=False, repr=False)

    def tag(self, key: str) -> str | None:
        return dict(self.tags).get(key)


@dataclass(frozen=True)
class ChatResponse:
    """A provider's reply."""

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


class Transcript:
    """A conversation's system text and messages.

    A message holds its encoding, and appending it feeds its `fragment`
    (preceded by a comma after the first) to a running SHA-256 of the payload
    so far, so `request` gives each call's `request_hash` at the cost of what
    the call adds.
    """

    def __init__(self, system_text: str = "", messages: Iterable[ChatMessage] = ()):
        self.system_text = system_text
        self.messages: list[ChatMessage] = []
        self._sha = hashlib.sha256(_HEAD)
        self._tail: tuple[str | None, bytes] = (None, b"")  # a system text and its encoded tail
        for message in messages:
            self.append(message)

    def append(self, message: ChatMessage) -> None:
        if self.messages:
            self._sha.update(b",")
        self._sha.update(message.fragment.encode())
        self.messages.append(message)

    def digest(self) -> str:
        system_text, tail = self._tail
        if system_text != self.system_text:
            tail = f"{_TAIL}{encode_basestring_ascii(self.system_text)}}}".encode()
            self._tail = (self.system_text, tail)
        sha = self._sha.copy()
        sha.update(tail)
        return sha.hexdigest()

    def request(self, tags: tuple[tuple[str, str], ...]) -> ChatRequest:
        return ChatRequest(self.system_text, tuple(self.messages), tags, self.digest())


def record_line(
    ts: int,
    tags: Iterable[tuple[str, str]],
    digest: str,
    prior: int,
    messages: Iterable[str],
    response_json: str,
    system_text: str | None,
) -> str:
    """The gateway.jsonl line of call `ts`: its record as compact JSON with
    sorted keys and `default=str`, whose `messages` are the JSON objects
    `messages` (a `message_fragment`, or a message's listed parts), and
    whose response text is `response_json`, as `encode_basestring_ascii`
    writes it. A record with `prior` 0 holds `system_text`, any other has
    None."""
    esc = encode_basestring_ascii
    tag_items = ",".join(f"{esc(key)}:{esc(value)}" for key, value in sorted(dict(tags).items()))
    system = "" if system_text is None else f',"system":{esc(system_text)}'
    return (
        f'{{"messages":[{",".join(messages)}],"prior":{prior},"request_hash":{esc(digest)},'
        f'"response":{{"text":{response_json}}}{system},"tags":{{{tag_items}}},'
        f'"ts":"{ts:06d}","v":{AUDIT_VERSION}}}'
    )


class _Unreadable(ValueError):
    """Why a line of a gateway audit log cannot be read; `_read` names the line."""


def _read(log: str | Path, read: Callable[[dict], T]) -> Iterator[T]:
    """`read(record)` of each record of a gateway audit log (its text or its path), read
    line by line. A line that is not UTF-8, or not a JSON record of a version in
    `READ_VERSIONS` (a blank line neither), or that `read` cannot take, raises a
    GatewayError, which exits 4 and names the line, as does a log that cannot be opened."""
    source = log if isinstance(log, Path) else "the log"
    try:
        lines = open(log, "rb") if isinstance(log, Path) else io.StringIO(log)
    except OSError as exc:
        raise GatewayError("PROVIDER_ERROR", f"cannot open {source}: {described(exc)}") from None
    with lines:
        for number, line in enumerate(lines, 1):
            try:
                record = json.loads(line if isinstance(line, str) else line.decode("utf-8"))
                version = record.get("v", 1)
                if version not in READ_VERSIONS:
                    raise _Unreadable(
                        f"the record is gateway audit version {version!r}; this build replays version 2, 3 or 4"
                    )
                item = read(record)
            except (ValueError, KeyError, TypeError, AttributeError, RecursionError) as exc:
                why = str(exc) if isinstance(exc, _Unreadable) else described(exc)
                raise GatewayError("PROVIDER_ERROR", f"line {number} in {source}: {why}") from None
            yield item


def rebuilt_requests(log: str | Path) -> Iterator[tuple[dict, ChatRequest]]:
    """Each record of a gateway audit log (its text or its path), read line
    by line, with the full request it stands for, rebuilt by feeding a
    `Transcript`: a record with `prior` 0 starts its role tag's conversation
    from its `system` text, a later one continues it after the last request
    and reply of that role, which must be `prior` messages. A message's text
    is its `text`, or, from version 3 on, its `parts` joined, a shared text
    cited by id being the text an earlier part defined. The request's tags
    are the record's.

    A record that cannot be read so raises a GatewayError, which exits 4,
    when the reading reaches it: among them a record of a version outside
    `READ_VERSIONS`, a shared text cited before its definition, and a
    definition whose text does not hash to its id."""
    conversations: dict[str | None, Transcript] = {}
    defined: dict[str, str] = {}  # the shared texts, by id

    def joined(parts: list) -> str:
        texts = []
        for part in parts:
            if not isinstance(part, str):
                if "text" in part:
                    if (actual := text_id(part["text"])) != part["id"]:
                        raise _Unreadable(f"the text defined as {part['id'][:12]} hashes to {actual[:12]}")
                    defined[part["id"]] = part["text"]
                elif part["id"] not in defined:
                    raise _Unreadable(f"shared text {part['id'][:12]} is cited before its definition")
                part = defined[part["id"]]
            texts.append(part)
        return "".join(texts)

    def rebuilt(record: dict) -> tuple[dict, ChatRequest]:
        role = record["tags"].get("role")
        if record["prior"]:
            transcript = conversations.get(role)
            if transcript is None or len(transcript.messages) != record["prior"] or "system" in record:
                raise _Unreadable(f"prior {record['prior']!r} continues no conversation of role tag {role!r}")
        else:
            transcript = conversations[role] = Transcript(record["system"])
        for message in record["messages"]:
            transcript.append(ChatMessage(message["role"], joined(message["parts"]) if "parts" in message else message["text"]))
        request = transcript.request(tuple(record["tags"].items()))
        transcript.append(ChatMessage("assistant", record["response"]["text"]))
        return record, request

    return _read(log, rebuilt)


def same_older_calls(recorded: Path, replayed: Path) -> bool:
    """Whether every record of the `recorded` gateway log is of an audit
    version older than AUDIT_VERSION and holds the call of the `replayed`
    log's record of the same number: the same `ts`, tags, request hash,
    rebuilt request and reply. The logs are read side by side."""

    def call(pair: tuple[dict, ChatRequest]) -> tuple:
        record, request = pair
        return record.get("ts"), record["tags"], record["request_hash"], request.digest, record["response"]["text"]

    for old, new in zip_longest(rebuilt_requests(recorded), rebuilt_requests(replayed)):
        if old is None or new is None or old[0]["v"] >= AUDIT_VERSION or call(old) != call(new):
            return False
    return True


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
        haystack = None  # the text a `match` is looked for in, built at the first one
        for entry in islice(self.script, self._live, None):
            if entry.spent:
                continue
            if entry.step is not None:
                if entry.step != self.calls:
                    continue
            elif entry.match is not None:
                if haystack is None:
                    haystack = request.system_text + "\n" + "\n".join(m.text for m in request.messages)
                if entry.match not in haystack:
                    continue
            entry._used += 1
            return ChatResponse(text=entry.response)
        if self.strict:
            raise GatewayError("SCRIPT_EXHAUSTED", f"no scripted response for call {self.calls}")
        return ChatResponse(text=self.default_response)


class ReplayProvider:
    """Re-serves a recorded gateway audit log in call order.

    Each replayed call must hash-match the recorded request; any divergence
    (edited prompts, reordered calls, tampered log, a record of an audit
    version outside `READ_VERSIONS`) fails loudly.
    """

    def __init__(self, audit_path: Path | str):
        def pair(record: dict) -> tuple[str, str]:
            """Only what replay needs of a record: its request hash and response text."""
            pair = (record["request_hash"], record["response"]["text"])
            if not all(isinstance(s, str) for s in pair):
                raise TypeError(f"request_hash and response text must be strings, got {pair!r}")
            return pair

        self.records = list(_read(Path(audit_path), pair))
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

    def __init__(self, base_url: str, model_id: str, timeout_s: float = 60.0, api_key_env: str = "LLM_API_KEY"):
        self.base_url = base_url.rstrip("/")
        self.model_id = model_id
        self.timeout_s = timeout_s
        self.api_key_env = api_key_env

    def complete(self, request: ChatRequest) -> ChatResponse:
        from http.client import HTTPException  # imported here: urllib's client costs ~20 ms no other provider needs
        from urllib.error import HTTPError
        from urllib.request import HTTPRedirectHandler, Request, build_opener

        class NoRedirect(HTTPRedirectHandler):  # a 3xx stays an HTTPError: urllib would re-send the POST as a GET, to any host
            def redirect_request(self, *args):
                return None

        messages = [{"role": "system", "content": request.system_text}] if request.system_text else []
        messages += [{"role": m.role, "content": m.text} for m in request.messages]
        payload = json.dumps({"model": self.model_id, "messages": messages}).encode()
        post = Request(f"{self.base_url}/chat/completions", payload, {"Content-Type": "application/json"})
        if key := os.environ.get(self.api_key_env, ""):
            post.add_unredirected_header("Authorization", f"Bearer {key}")  # never copied into a redirect
        started = time.monotonic()
        try:
            with build_opener(NoRedirect).open(post, timeout=self.timeout_s) as resp:
                raw = resp.read()
        except HTTPError as exc:  # any status outside 2xx
            exc.close()  # it holds the response open
            raise GatewayError("RATE_LIMITED" if exc.code == 429 else "PROVIDER_ERROR", f"status {exc.code}") from None
        except (OSError, HTTPException) as exc:
            # A read timeout is a bare TimeoutError; a connect timeout, a URLError whose reason is one.
            timed_out = isinstance(exc, TimeoutError) or isinstance(getattr(exc, "reason", None), TimeoutError)
            raise GatewayError("TIMEOUT" if timed_out else "PROVIDER_ERROR", str(exc)) from exc
        try:  # a body that is not JSON, or not of this shape, is the provider's fault
            body = json.loads(raw)
            text = body["choices"][0]["message"]["content"]
            if not isinstance(text, str):
                raise TypeError(f"content must be a string, got {text!r}")
            usage = body.get("usage") or {}
            tokens = usage.get("prompt_tokens"), usage.get("completion_tokens")
        except (ValueError, RecursionError, LookupError, TypeError, AttributeError) as exc:
            raise GatewayError("PROVIDER_ERROR", f"unexpected response body: {described(exc)}") from None
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
    """Retry/timeout/audit wrapper shared by every agent in a run; its
    records go to `audit` (memory when None), which its owner closes.

    Each audit record states what its call added to its role's conversation:
    `prior` counts the messages that earlier records hold (the last request
    of that role tag plus its reply), `messages` holds the rest, and a record
    with `prior` 0 starts a conversation and holds its `system` text. A
    message with `parts` lists them; a shared text is defined, with its
    text, only where the log first uses it, and cited by id after that.
    """

    def __init__(self, provider: Provider, audit: AuditLog | None = None, sleep: Callable[[float], None] = time.sleep):
        self.provider = provider
        self.sleep = sleep
        self.audit = audit if audit is not None else AuditLog()
        self._counter = 0
        # Per role tag: the system text and messages its audit records hold.
        self._recorded: dict[str | None, tuple[str, tuple[ChatMessage, ...]]] = {}
        self._defined: set[str] = set()  # the ids of the shared texts the log defines

    def complete(self, request: ChatRequest) -> ChatMessage:
        """The provider's reply to `request` as the assistant message, once its record is flushed."""
        if not request.messages:
            raise GatewayError("PROVIDER_ERROR", "empty message list")
        for delay in (*BACKOFF_S, None):
            try:
                response = self.provider.complete(request)
                break
            except GatewayError as exc:
                if exc.code not in RETRYABLE or delay is None:
                    raise
                self.sleep(delay)
        return self._audit(request, response)

    def _audit(self, request: ChatRequest, response: ChatResponse) -> ChatMessage:
        """Write the call's record; the reply message holds the escape of its text that the record does."""
        self._counter += 1
        role = request.tag("role")
        system, recorded = self._recorded.get(role, ("", ()))
        prior = len(recorded) if system == request.system_text and request.messages[: len(recorded)] == recorded else 0
        messages = [m.fragment if m.parts is None else self._listed(m) for m in request.messages[prior:]]
        system_text = None if prior else request.system_text
        reply = ChatMessage("assistant", response.text)
        text_json = reply.fragment[_REPLY_TEXT_AT:-1]
        self.audit.append(
            record_line(self._counter, request.tags, request.digest, prior, messages, text_json, system_text)
        )
        self.audit.flush()
        self._recorded[role] = (request.system_text, (*request.messages, reply))
        return reply

    def _listed(self, message: ChatMessage) -> str:
        """The record item of a message with parts: each literal part as a
        JSON string, each shared text as its id, with its text the first
        time the log writes it."""
        items = []
        for part in message.parts:
            if isinstance(part, str):
                items.append(f'"{part}"')
            elif part.id in self._defined:
                items.append(f'{{"id":"{part.id}"}}')
            else:
                self._defined.add(part.id)
                items.append(f'{{"id":"{part.id}","text":"{part.escaped}"}}')
        return f'{{"parts":[{",".join(items)}],"role":{encode_basestring_ascii(message.role)}}}'


_REPLY_TEXT_AT = len('{"role":"assistant","text":')  # where a reply's fragment holds its text's JSON
