"""Gateway provider semantics: scripting, replay, retry, audit."""

from __future__ import annotations

import json
from collections import Counter
from json.encoder import encode_basestring_ascii

import pytest
import requests
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tradeloop import gateway as gateway_module
from tradeloop.agents import ConversationalAgent
from tradeloop.gateway import (
    AUDIT_VERSION,
    ChatMessage,
    ChatRequest,
    ChatResponse,
    Gateway,
    GatewayError,
    HttpProvider,
    ReplayProvider,
    RouterProvider,
    ScriptEntry,
    ScriptedProvider,
    message_fragment,
    record_line,
    request_hash,
    request_payload,
)
from tradeloop.harness import run_experiment
from tradeloop.opro import AdaptiveOpro
from tradeloop.templates import PromptTemplate, asset_path, load_template

from conftest import rebuilt_requests
from test_harness import build_workspace
from test_opro import optimizer_reply


def req(text: str, system: str = "sys", tags=()) -> ChatRequest:
    return ChatRequest(system_text=system, messages=(ChatMessage(role="user", text=text),), tags=tuple(tags))


class TestScriptedProvider:
    def test_step_match_returns_exact_text(self):
        provider = ScriptedProvider([ScriptEntry(response="scripted reply", step=1)])
        assert provider.complete(req("anything")).text == "scripted reply"

    def test_strict_exhaustion_raises(self):
        provider = ScriptedProvider([ScriptEntry(response="a"), ScriptEntry(response="b"), ScriptEntry(response="c")])
        for _ in range(3):
            provider.complete(req("x"))
        with pytest.raises(GatewayError) as err:
            provider.complete(req("x"))
        assert err.value.code == "SCRIPT_EXHAUSTED"

    def test_substring_match(self):
        provider = ScriptedProvider(
            [
                ScriptEntry(response="market text", match="MARKET UPDATE", times=None),
                ScriptEntry(response="[]", match="TRADING UPDATE", times=None),
            ]
        )
        assert provider.complete(req("## MARKET UPDATE - X")).text == "market text"
        assert provider.complete(req("# TRADING UPDATE - X")).text == "[]"
        assert provider.complete(req("## MARKET UPDATE - X")).text == "market text"

    def test_builds_the_match_text_once_per_call(self):
        class CountedMessages(tuple):
            iterations = 0

            def __iter__(self):
                CountedMessages.iterations += 1
                return super().__iter__()

        request = ChatRequest("sys", CountedMessages((ChatMessage("user", "x"),)))
        CountedMessages.iterations = 0
        provider = ScriptedProvider([ScriptEntry(response=str(n), match=f"absent {n}") for n in range(3)], strict=False)
        provider.complete(request)
        assert CountedMessages.iterations == 1

    def test_non_strict_falls_back_to_default(self):
        provider = ScriptedProvider([], strict=False, default_response="[]")
        assert provider.complete(req("x")).text == "[]"

    def test_times_budget(self):
        provider = ScriptedProvider(
            [ScriptEntry(response="first", times=2), ScriptEntry(response="rest", times=None)]
        )
        assert [provider.complete(req("x")).text for _ in range(4)] == ["first", "first", "rest", "rest"]


class TestGatewayAudit:
    def test_every_request_audited_once_in_order(self):
        provider = ScriptedProvider([ScriptEntry(response=f"r{i}", step=i + 1) for i in range(3)])
        gateway = Gateway(provider)
        for i in range(3):
            gateway.complete(req(f"call {i}", tags=(("role", "cta"),)))
        lines = gateway.audit.text().splitlines()
        assert len(lines) == 3
        records = [json.loads(line) for line in lines]
        assert [r["ts"] for r in records] == ["000001", "000002", "000003"]
        assert [r["response"]["text"] for r in records] == ["r0", "r1", "r2"]

    def test_prompt_bytes_pass_through_by_hash(self):
        provider = ScriptedProvider([ScriptEntry(response="ok", times=None)])
        gateway = Gateway(provider)
        request = req("precious prompt bytes → untouched")
        before = request_hash(request)
        gateway.complete(request)
        [(record, sent)] = rebuilt_requests(gateway.audit.text())
        assert record["request_hash"] == before
        assert sent.messages[0].text == "precious prompt bytes → untouched"

    def test_record_holds_what_the_call_added_to_its_role_conversation(self):
        """A record continues its role tag's last request and reply only when
        the request extends them under the same system text; any other
        request starts a conversation. Every request rebuilds."""
        gateway = Gateway(ScriptedProvider([ScriptEntry(response=f"r{n}", step=n) for n in range(1, 7)]))
        u, a = (lambda text: ChatMessage("user", text)), (lambda text: ChatMessage("assistant", text))
        sent = [
            ChatRequest("s", (u("q1"),), (("role", "x"),)),
            ChatRequest("t", (u("p1"),), (("role", "y"),)),
            ChatRequest("s", (u("q1"), a("r1"), u("q2")), (("role", "x"),)),
            ChatRequest("s2", (u("q1"), a("r1"), u("q2"), a("r3"), u("q3")), (("role", "x"),)),
            ChatRequest("t", (u("p1"), a("other"), u("p2")), (("role", "y"),)),
            ChatRequest("s2", (u("q1"), a("r1"), u("q2"), a("r3"), u("q3"), a("r4"), u("q4")), (("role", "x"),)),
        ]
        for request in sent:
            gateway.complete(request)
        pairs = rebuilt_requests(gateway.audit.text())
        assert [rebuilt for _, rebuilt in pairs] == sent
        assert [(r["prior"], len(r["messages"]), r.get("system")) for r, _ in pairs] == [
            (0, 1, "s"), (0, 1, "t"), (2, 1, None), (0, 5, "s2"), (0, 3, "t"), (6, 1, None)
        ]

    def test_empty_messages_rejected(self):
        gateway = Gateway(ScriptedProvider([ScriptEntry(response="x")]))
        with pytest.raises(GatewayError):
            gateway.complete(ChatRequest(system_text="", messages=()))

    def test_audit_sink_receives_lines(self, tmp_path):
        sink = tmp_path / "gateway.jsonl"
        gateway = Gateway(ScriptedProvider([ScriptEntry(response="x")]), audit_sink=sink)
        gateway.complete(req("a"))
        assert sink.read_text(encoding="utf-8").count("\n") == 1
        gateway.close()


# Text that JSON escapes: non-ASCII, quotes, backslashes, braces, control
# characters, U+2028 and lone surrogates.
conversation_text = st.text(
    st.sampled_from(["é", "€", "😀", '"', "\\", "{", "}", "\n", "\x00", "\u2028", "\ud800", "\udfff"])
    | st.characters(),
    max_size=12,
)
turns = st.lists(
    st.tuples(st.just("reset"))
    | st.tuples(st.just("ask"), conversation_text, conversation_text, conversation_text)
    | st.tuples(st.just("ask_parsed"), conversation_text, st.lists(st.tuples(st.booleans(), conversation_text), min_size=3, max_size=3)),
    max_size=12,
)


class Recorder:
    """Serves queued replies and keeps every (request, reply)."""

    def __init__(self):
        self.replies: list[str] = []
        self.exchanges: list[tuple[ChatRequest, str]] = []

    def complete(self, request: ChatRequest) -> ChatResponse:
        reply = self.replies.pop(0)
        self.exchanges.append((request, reply))
        return ChatResponse(text=reply)


def logged(value):
    """`value` as the audit log gives it back. JSON reads a lone high surrogate
    followed by a lone low one as the one character they pair to, which it
    writes, and so hashes, alike."""
    return json.loads(json.dumps(value))


def _accept_ok(reply: str) -> str:
    if not reply.startswith("ok "):
        raise ValueError(f"rejected {reply!r}")
    return reply


class TestTranscript:
    @settings(max_examples=60)
    @given(turns=turns)
    def test_incremental_encoding_matches_request_hash_and_audit_record(self, turns):
        """Every request a conversation sends carries its `request_hash` and
        is rebuilt from the audit log, through resets and re-asks, although
        the log states each user message and each reply in exactly one
        record; requests built by hand from the same content give the same
        log."""
        provider = Recorder()
        gateway = Gateway(provider)
        initial = PromptTemplate.parse("initial", "<system_role>{{system}}</system_role>{{text}}")
        agent = ConversationalAgent("market", gateway, initial, PromptTemplate.parse("followup", "{{text}}"))
        for kind, *args in turns:
            if kind == "reset":
                agent.reset()
            elif kind == "ask":
                system, text, reply = args
                provider.replies.append(reply)
                assert agent.ask({"system": system, "text": text}) == reply
            else:
                text, replies = args
                provider.replies = [("ok " if ok else "no ") + reply for ok, reply in replies]
                try:
                    agent.ask_parsed(text, _accept_ok, lambda exc: f"again: {exc}")
                except ValueError:
                    pass  # three rejected replies: the conversation goes on
                provider.replies = []

        pairs = rebuilt_requests(gateway.audit.text())
        assert len(pairs) == len(provider.exchanges)
        for (record, rebuilt), (request, reply) in zip(pairs, provider.exchanges):
            assert request_payload(rebuilt) == logged(request_payload(request))
            assert rebuilt.tags == tuple(sorted(request.tags))
            assert rebuilt.digest == request.digest == request_hash(request) == record["request_hash"]
            # The one user message each call adds is its record's only message; its reply is only the response.
            assert record["messages"] == logged([{"role": "user", "text": request.messages[-1].text}])
            assert record["response"] == logged({"text": reply})

        twin = Recorder()
        twin.replies = [reply for _, reply in provider.exchanges]
        by_hand = Gateway(twin)
        for request, _ in provider.exchanges:
            by_hand.complete(ChatRequest(request.system_text, request.messages, request.tags))
        assert [rebuilt for _, rebuilt in rebuilt_requests(by_hand.audit.text())] == [rebuilt for _, rebuilt in pairs]
        assert by_hand.audit.text() == gateway.audit.text()


def record(ts: int, tags, digest: str, prior: int, messages: list[ChatMessage], reply: str, system: str) -> dict:
    """The audit record of call `ts` as the dict the generic encoder is given:
    `messages` are what the call added, and a record with `prior` 0 holds
    `system`."""
    entry = {
        "v": AUDIT_VERSION,
        "ts": f"{ts:06d}",
        "tags": dict(tags),
        "request_hash": digest,
        "prior": prior,
        "messages": [{"role": m.role, "text": m.text} for m in messages],
        "response": {"text": reply},
    }
    if not prior:
        entry["system"] = system
    return entry


def generic_line(entry: dict) -> str:
    """The reference encoding of a gateway record: compact JSON with sorted keys."""
    return json.dumps(entry, separators=(",", ":"), sort_keys=True, default=str) + "\n"


def generic_log(exchanges: list[tuple[ChatRequest, str]]) -> str:
    """The gateway log of `exchanges`, each record a dict that `generic_line`
    encodes: a record continues its role tag's last request and reply when
    the request extends them under the same system text."""
    lines = []
    held: dict[str | None, tuple[str, tuple[ChatMessage, ...]]] = {}
    for ts, (request, reply) in enumerate(exchanges, 1):
        role = request.tag("role")
        system, messages = held.get(role, ("", ()))
        prior = len(messages) if system == request.system_text and request.messages[: len(messages)] == messages else 0
        new = list(request.messages[prior:])
        lines.append(generic_line(record(ts, request.tags, request.digest, prior, new, reply, request.system_text)))
        held[role] = (request.system_text, (*request.messages, ChatMessage("assistant", reply)))
    return "".join(lines)


roles = st.sampled_from(["user", "assistant"]) | conversation_text


class TestAuditRecordLine:
    """`record_line` is the reference encoding of the record dict."""

    @settings(max_examples=100)
    @given(
        ts=st.integers(1, 10**7),
        tags=st.lists(st.tuples(conversation_text, conversation_text), max_size=4),
        digest=conversation_text,
        prior=st.integers(0, 3),
        messages=st.lists(st.tuples(roles, conversation_text), min_size=1, max_size=4),
        reply=conversation_text,
        system=conversation_text,
    )
    @example(ts=1, tags=[], digest="", prior=0, messages=[("user", "")], reply="", system="")
    @example(
        ts=12, tags=[("role", "market"), ('k"\\', "\u2028\ud800"), ("role", "cta")], digest="ab", prior=2,
        messages=[("assistant", "r"), ("user", "q\n"), ("user", "\udfff")], reply="\x00", system="ignored",
    )
    def test_line_is_the_generic_encoding(self, ts, tags, digest, prior, messages, reply, system):
        chat = [ChatMessage(role, text) for role, text in messages]
        reply_json = encode_basestring_ascii(reply)
        line = record_line(ts, tuple(tags), digest, prior, map(message_fragment, chat), reply_json, None if prior else system)
        assert line + "\n" == generic_line(record(ts, tags, digest, prior, chat, reply, system))


class TestFragmentReuse:
    """The gateway formats each record from the fragments its request
    carries, encoding a message only when the request carries none for it.
    Every log is the bytes of `generic_log`."""

    @staticmethod
    def agent(gateway: Gateway, role: str = "market") -> ConversationalAgent:
        initial = PromptTemplate.parse("initial", "<system_role>{{system}}</system_role>{{text}}")
        return ConversationalAgent(role, gateway, initial, PromptTemplate.parse("followup", "{{text}}"))

    @staticmethod
    def ask(agent: ConversationalAgent, provider: Recorder, text: str, system: str = "sys") -> None:
        provider.replies.append(f"re {text}")
        agent.ask({"system": system, "text": text})

    def test_followup_carries_only_what_came_after_the_last_request(self):
        provider = Recorder()
        agent = self.agent(Gateway(provider))
        for text in ("q1", "q2", "q3"):
            self.ask(agent, provider, text)
        assert [len(request.fragments) for request, _ in provider.exchanges] == [1, 2, 2]
        assert provider.exchanges[-1][0].fragments == tuple(map(message_fragment, agent.transcript.messages[3:5]))

    def test_two_conversations_of_one_role_tag_take_turns(self):
        provider = Recorder()
        gateway = Gateway(provider)
        first, second = self.agent(gateway), self.agent(gateway)
        for text in ("a1", "b1", "a2", "b2", "a3", "a4"):
            self.ask(first if text[0] == "a" else second, provider, text, system=text[0])
        assert gateway.audit.text() == generic_log(provider.exchanges)
        assert [r["prior"] for r, _ in rebuilt_requests(gateway.audit.text())] == [0, 0, 0, 0, 0, 6]

    def test_reset_in_the_middle_of_a_conversation(self):
        provider = Recorder()
        gateway = Gateway(provider)
        agent = self.agent(gateway)
        self.ask(agent, provider, "q1")
        self.ask(agent, provider, "q2")
        agent.reset()
        for text in ("p1", "p2", "p3"):
            self.ask(agent, provider, text, system="new")
        assert gateway.audit.text() == generic_log(provider.exchanges)
        assert [r["prior"] for r, _ in rebuilt_requests(gateway.audit.text())] == [0, 2, 0, 2, 4]

    def test_request_by_hand_after_one_by_a_transcript(self):
        provider = Recorder()
        gateway = Gateway(provider)
        agent = self.agent(gateway)
        self.ask(agent, provider, "q1")
        self.ask(agent, provider, "q2")
        messages = (*agent.transcript.messages, ChatMessage("user", "by hand"))
        provider.replies.append("re by hand")
        gateway.complete(ChatRequest("sys", messages, (("role", "market"),)))
        self.ask(agent, provider, "q3")
        assert gateway.audit.text() == generic_log(provider.exchanges)
        assert [r["prior"] for r, _ in rebuilt_requests(gateway.audit.text())] == [0, 2, 4, 0]

    def test_reask(self):
        provider = Recorder()
        gateway = Gateway(provider)
        agent = self.agent(gateway)
        self.ask(agent, provider, "q1")
        provider.replies = ["no", "no", "ok done"]
        assert agent.ask_parsed("q2", _accept_ok, lambda exc: f"again: {exc}") == ("ok done", 3)
        assert gateway.audit.text() == generic_log(provider.exchanges)
        assert [len(r["messages"]) for r, _ in rebuilt_requests(gateway.audit.text())] == [1, 1, 1, 1]

    def test_a_proposal_escapes_only_what_it_adds(self, monkeypatch):
        """Over 30 proposals no meta-prompt is escaped whole, each template is
        escaped once, when it goes live, and every proposal hands the escaper
        the same number of characters, however long the history has grown."""
        encode, encoded = gateway_module.encode_basestring_ascii, []

        def counted(text: str) -> str:
            encoded.append(text)
            return encode(text)

        monkeypatch.setattr(gateway_module, "encode_basestring_ascii", counted)
        current = load_template("cta_initial")
        provider = Recorder()
        opro = AdaptiveOpro(current, Gateway(provider), asset_path("optimizer").read_text(encoding="utf-8"))
        per_proposal = []
        for n in range(1, 31):
            provider.replies.append(optimizer_reply(current.body.replace("Trading Philosophy", f"Philosophy {n:02d}")))
            opro.close_window(5 * n, 100_000.0, 100_000.0 + 100 * n)
            before = len(encoded)
            assert opro.propose_update() is True
            per_proposal.append(sum(map(len, encoded[before:])))
        metas = {request.messages[-1].text for request, _ in provider.exchanges}
        assert len(metas) == 30 and len(max(metas, key=len)) > 30 * len(current.body)
        assert metas.isdisjoint(encoded)
        assert len(opro.history) == 31 and all(encoded.count(r.template_text) == 1 for r in opro.history)
        # Per proposal: the new template, and its reply for the audit line and the transcript.
        assert len(set(per_proposal)) == 1 and per_proposal[0] < 4 * len(current.body)

    def test_each_reply_is_escaped_once_over_a_run(self, tmp_path, monkeypatch):
        """Over a run of every agent and the optimizer, each reply is escaped
        once, for its audit line and its transcript alike."""
        encode, encoded = gateway_module.encode_basestring_ascii, Counter()

        def counted(text: str) -> str:
            encoded[text] += 1
            return encode(text)

        monkeypatch.setattr(gateway_module, "encode_basestring_ascii", counted)
        artifacts, _ = run_experiment(build_workspace(tmp_path, mode="adaptive_opro_with_reflection"))
        log = (artifacts[0].run_dir / "gateway.jsonl").read_text(encoding="utf-8")
        replies = Counter(json.loads(line)["response"]["text"] for line in log.splitlines())
        assert {json.loads(line)["tags"]["role"] for line in log.splitlines()} >= {"market", "news", "cta", "optimizer"}
        assert {text: encoded[text] for text in replies} == replies


class TestRetry:
    class Flaky:
        def __init__(self, failures: int, code: str = "RATE_LIMITED"):
            self.failures = failures
            self.code = code
            self.calls = 0

        def complete(self, request):
            self.calls += 1
            if self.calls <= self.failures:
                raise GatewayError(self.code)
            return ChatResponse(text="finally")

    def test_retries_transient_with_backoff(self):
        sleeps: list[float] = []
        provider = self.Flaky(failures=2)
        gateway = Gateway(provider, max_attempts=3, sleep=sleeps.append)
        assert gateway.complete(req("x")).text == "finally"
        assert sleeps == [1.0, 4.0]
        assert provider.calls == 3

    def test_exhausted_retries_raise(self):
        provider = self.Flaky(failures=5)
        gateway = Gateway(provider, max_attempts=3, sleep=lambda _s: None)
        with pytest.raises(GatewayError):
            gateway.complete(req("x"))
        assert provider.calls == 3
        assert gateway.audit.text() == ""  # failed exchanges are not replayable

    def test_non_retryable_raises_immediately(self):
        provider = self.Flaky(failures=5, code="PROVIDER_ERROR")
        gateway = Gateway(provider, max_attempts=3, sleep=lambda _s: None)
        with pytest.raises(GatewayError):
            gateway.complete(req("x"))
        assert provider.calls == 1


class TestReplayProvider:
    def _record_session(self, tmp_path):
        audit = tmp_path / "gateway.jsonl"
        provider = ScriptedProvider(
            [ScriptEntry(response="one", step=1), ScriptEntry(response="two", step=2)]
        )
        gateway = Gateway(provider, audit_sink=audit)
        gateway.complete(req("first"))
        gateway.complete(req("second"))
        gateway.close()
        return audit

    def test_replay_returns_identical_responses(self, tmp_path):
        audit = self._record_session(tmp_path)
        replay = ReplayProvider(audit)
        assert replay.complete(req("first")).text == "one"
        assert replay.complete(req("second")).text == "two"

    def test_reordered_requests_mismatch(self, tmp_path):
        audit = self._record_session(tmp_path)
        replay = ReplayProvider(audit)
        with pytest.raises(GatewayError) as err:
            replay.complete(req("second"))
        assert err.value.code == "REPLAY_MISMATCH"

    def test_exhausted_log_raises(self, tmp_path):
        audit = self._record_session(tmp_path)
        replay = ReplayProvider(audit)
        replay.complete(req("first"))
        replay.complete(req("second"))
        with pytest.raises(GatewayError) as err:
            replay.complete(req("third"))
        assert err.value.code == "SCRIPT_EXHAUSTED"

    def test_replayed_session_is_bit_reproducible(self, tmp_path):
        audit = self._record_session(tmp_path)
        second_audit = tmp_path / "gateway2.jsonl"
        gateway = Gateway(ReplayProvider(audit), audit_sink=second_audit)
        gateway.complete(req("first"))
        gateway.complete(req("second"))
        gateway.close()
        assert audit.read_bytes() == second_audit.read_bytes()


class TestRouter:
    def test_routes_by_role_tag(self):
        router = RouterProvider(
            {
                "market": ScriptedProvider([ScriptEntry(response="m", times=None)]),
                "cta": ScriptedProvider([ScriptEntry(response="[]", times=None)]),
            },
            default=ScriptedProvider([ScriptEntry(response="default", times=None)]),
        )
        assert router.complete(req("x", tags=(("role", "market"),))).text == "m"
        assert router.complete(req("x", tags=(("role", "cta"),))).text == "[]"
        assert router.complete(req("x", tags=(("role", "optimizer"),))).text == "default"

    def test_missing_provider_errors(self):
        router = RouterProvider({})
        with pytest.raises(GatewayError):
            router.complete(req("x"))


class TestHttpProvider:
    class FakeSession:
        def __init__(self, status=200, body=None):
            self.status = status
            self.body = body or {"choices": [{"message": {"content": "hello"}}], "usage": {}}
            self.seen = None

        def post(self, url, json=None, headers=None, timeout=None):
            self.seen = {"url": url, "json": json, "headers": headers}

            class Resp:
                status_code = self.status

                def json(inner):
                    return self.body

            return Resp()

    def test_happy_path_maps_openai_shape(self, monkeypatch):
        session = self.FakeSession()
        provider = HttpProvider("https://api.example.com/v1", "model-x", session=session)
        monkeypatch.setenv("LLM_API_KEY", "secret")
        response = provider.complete(req("hi", system="be brief"))
        assert response.text == "hello"
        assert session.seen["json"]["model"] == "model-x"
        assert session.seen["json"]["messages"][0] == {"role": "system", "content": "be brief"}
        assert session.seen["headers"]["Authorization"] == "Bearer secret"

    def test_rate_limit_maps_to_retryable(self):
        provider = HttpProvider("https://api.example.com", "m", session=self.FakeSession(status=429))
        with pytest.raises(GatewayError) as err:
            provider.complete(req("x"))
        assert err.value.code == "RATE_LIMITED"

    def test_server_error_maps_to_provider_error(self):
        provider = HttpProvider("https://api.example.com", "m", session=self.FakeSession(status=500))
        with pytest.raises(GatewayError) as err:
            provider.complete(req("x"))
        assert err.value.code == "PROVIDER_ERROR"

    @pytest.mark.parametrize(
        "content",
        [
            b"<html>bad gateway</html>",
            b"[" * 100_000 + b"]" * 100_000,
            b'{"choices": [{"message": {"content": null}}]}',
            b'{"choices": [{"message": {"content": "hi"}}], "usage": [1]}',
        ],
        ids=["not-json", "nested", "null-content", "usage-not-object"],
    )
    def test_malformed_200_body_is_provider_error(self, content):
        """A 200 response whose body is not the expected JSON is the
        provider's fault, whatever the decoder raises."""

        class RawSession:
            def post(self, url, **kwargs):
                resp = requests.Response()
                resp.status_code, resp._content = 200, content
                return resp

        provider = HttpProvider("https://api.example.com", "m", session=RawSession())
        with pytest.raises(GatewayError) as err:
            provider.complete(req("x"))
        assert err.value.code == "PROVIDER_ERROR"
