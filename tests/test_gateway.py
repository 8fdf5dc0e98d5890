"""Gateway provider semantics: scripting, replay, retry, audit."""

from __future__ import annotations

import hashlib
import json
import socket
import tracemalloc
from collections import Counter, deque
from dataclasses import replace
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tradeloop import gateway as gateway_module
from tradeloop.agents import ConversationalAgent
from tradeloop.gateway import (
    AUDIT_VERSION,
    BACKOFF_S,
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
    SharedText,
    Transcript,
    escape,
    joined_message,
    message_fragment,
    rebuilt_requests,
    record_line,
    request_hash,
    request_payload,
    same_older_calls,
    text_id,
    text_part,
)
from tradeloop.engine import AuditLog
from tradeloop.harness import run_experiment
from tradeloop.opro import AdaptiveOpro
from tradeloop.templates import SHARED_MIN, PromptTemplate, asset_path, load_template

from chat_server import PATH, ChatServer
from conftest import synthetic_daily
from test_harness import build_workspace
from test_opro import optimizer_reply
from test_templates import SHIPPED_TEMPLATES, shared_runs

# The gateway logs of one 11-session run, recorded at audit versions 2, 3 and 4.
RECORDINGS = {v: Path(__file__).parent / "fixtures" / f"gateway_v{v}" / "run-1" / "gateway.jsonl" for v in (2, 3, 4)}


def request_of(system: str, messages, tags=()) -> ChatRequest:
    """The request of a conversation of `messages`, as its `Transcript` makes it."""
    return Transcript(system, messages).request(tuple(tags))


def req(text: str, system: str = "sys", tags=()) -> ChatRequest:
    return request_of(system, (ChatMessage(role="user", text=text),), tags)


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

        request = replace(req("x"), messages=CountedMessages((ChatMessage("user", "x"),)))
        CountedMessages.iterations = 0
        provider = ScriptedProvider([ScriptEntry(response=str(n), match=f"absent {n}") for n in range(3)], strict=False)
        provider.complete(request)
        assert CountedMessages.iterations == 1

    def test_non_strict_falls_back_to_default(self):
        provider = ScriptedProvider([], strict=False, default_response="[]")
        assert provider.complete(req("x")).text == "[]"

    def test_an_entry_for_a_later_step_or_spent_is_passed_over(self):
        provider = ScriptedProvider(
            [
                ScriptEntry(response="never", match="absent"),
                ScriptEntry(response="third", step=3),
                ScriptEntry(response="once"),
                ScriptEntry(response="rest", times=None),
            ]
        )
        assert [provider.complete(req("x")).text for _ in range(4)] == ["once", "rest", "third", "rest"]

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
            request_of("s", (u("q1"),), (("role", "x"),)),
            request_of("t", (u("p1"),), (("role", "y"),)),
            request_of("s", (u("q1"), a("r1"), u("q2")), (("role", "x"),)),
            request_of("s2", (u("q1"), a("r1"), u("q2"), a("r3"), u("q3")), (("role", "x"),)),
            request_of("t", (u("p1"), a("other"), u("p2")), (("role", "y"),)),
            request_of("s2", (u("q1"), a("r1"), u("q2"), a("r3"), u("q3"), a("r4"), u("q4")), (("role", "x"),)),
        ]
        for request in sent:
            gateway.complete(request)
        pairs = list(rebuilt_requests(gateway.audit.text()))
        assert [rebuilt for _, rebuilt in pairs] == sent
        assert [(r["prior"], len(r["messages"]), r.get("system")) for r, _ in pairs] == [
            (0, 1, "s"), (0, 1, "t"), (2, 1, None), (0, 5, "s2"), (0, 3, "t"), (6, 1, None)
        ]

    def test_empty_messages_rejected(self):
        gateway = Gateway(ScriptedProvider([ScriptEntry(response="x")]))
        with pytest.raises(GatewayError):
            gateway.complete(request_of("", ()))

    def test_audit_sink_receives_lines(self, tmp_path):
        sink = tmp_path / "gateway.jsonl"
        gateway = Gateway(ScriptedProvider([ScriptEntry(response="x")]), AuditLog(sink))
        gateway.complete(req("a"))
        assert sink.read_text(encoding="utf-8").count("\n") == 1
        gateway.audit.close()


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
                    agent.ask_parsed(ChatMessage("user", text), _accept_ok, lambda exc: f"again: {exc}")
                except ValueError:
                    pass  # three rejected replies: the conversation goes on
                provider.replies = []

        pairs = list(rebuilt_requests(gateway.audit.text()))
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
            by_hand.complete(request_of(request.system_text, request.messages, request.tags))
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
    """Each message holds its `message_fragment`, made once, and the gateway
    formats each record from the fragments of the messages its call added.
    Every log is the bytes of `generic_log`."""

    @staticmethod
    def agent(gateway: Gateway, role: str = "market") -> ConversationalAgent:
        initial = PromptTemplate.parse("initial", "<system_role>{{system}}</system_role>{{text}}")
        return ConversationalAgent(role, gateway, initial, PromptTemplate.parse("followup", "{{text}}"))

    @staticmethod
    def ask(agent: ConversationalAgent, provider: Recorder, text: str, system: str = "sys") -> None:
        provider.replies.append(f"re {text}")
        agent.ask({"system": system, "text": text})

    def test_a_message_carries_the_fragment_of_its_text(self):
        """A message encodes itself unless `joined_message` joined it from
        parts, whose escapes its fragment joins unchecked and which equality
        ignores; `replace` encodes the new text and drops them."""
        message = ChatMessage("user", 'q "1"\u2028')
        assert message.fragment == r'{"role":"user","text":"q \"1\"\u2028"}' and message.parts is None
        parts = ("q ", text_part('"1"'), r"\u2028")
        handed = joined_message("user", ["q ", text_part('"1"'), "\u2028"])
        assert handed.fragment == message.fragment and handed.parts == parts and handed == message
        assert joined_message("user", [SharedText("x", "the maker's escape")]).fragment == '{"role":"user","text":"the maker\'s escape"}'
        replaced = replace(handed, text="q\ud800")
        assert replaced.fragment == r'{"role":"user","text":"q\ud800"}' and replaced.parts is None

    def test_each_user_message_is_escaped_once_over_a_run(self, tmp_path, monkeypatch):
        """Over a run of every agent and the optimizer, every message of a
        conversation holds its `message_fragment`, and each user message is
        escaped once, when it is made; one joined from parts (a meta-prompt,
        a rendered prompt with a shared run), never as a whole."""
        encode, encoded = gateway_module.encode_basestring_ascii, Counter()

        def counted(text: str) -> str:
            encoded[text] += 1
            return encode(text)

        appended, append = [], Transcript.append

        def kept(transcript: Transcript, message: ChatMessage) -> None:
            appended.append(message)
            append(transcript, message)

        monkeypatch.setattr(gateway_module, "encode_basestring_ascii", counted)
        monkeypatch.setattr(Transcript, "append", kept)
        artifacts, _ = run_experiment(build_workspace(tmp_path, mode="adaptive_opro_with_reflection"))
        monkeypatch.undo()
        pairs = rebuilt_requests(artifacts[0].run_dir / "gateway.jsonl")
        metas = {sent.messages[0].text for r, sent in pairs if r["tags"]["role"] == "optimizer" and r["tags"]["attempt"] == "1"}
        users = Counter(m.text for m in appended if m.role == "user")
        joined = {m.text for m in appended if m.role == "user" and m.parts is not None}
        assert metas and metas < joined
        assert {text: encoded[text] for text in users} == {text: 0 if text in joined else n for text, n in users.items()}
        assert all(m.fragment == message_fragment(m) for m in appended)

    def test_a_failed_call_leaves_its_message_to_the_next_record(self):
        """A call that fails writes no record, so the next call of the
        conversation records both user messages."""

        class FailsSecondCall(Recorder):
            calls = 0

            def complete(self, request: ChatRequest) -> ChatResponse:
                self.calls += 1
                if self.calls == 2:
                    raise GatewayError("PROVIDER_ERROR", "once")
                return super().complete(request)

        provider = FailsSecondCall()
        gateway = Gateway(provider)
        agent = self.agent(gateway)
        self.ask(agent, provider, "q1")
        with pytest.raises(GatewayError):
            agent.ask({"text": "q2"})
        self.ask(agent, provider, "q3")
        pairs = list(rebuilt_requests(gateway.audit.text()))
        assert [(r["prior"], [m["text"] for m in r["messages"]]) for r, _ in pairs] == [(0, ["q1"]), (2, ["q2", "q3"])]
        assert [rebuilt.digest for _, rebuilt in pairs] == [request.digest for request, _ in provider.exchanges]
        assert gateway.audit.text() == generic_log(provider.exchanges)

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
        gateway.complete(request_of("sys", messages, (("role", "market"),)))
        self.ask(agent, provider, "q3")
        assert gateway.audit.text() == generic_log(provider.exchanges)
        assert [r["prior"] for r, _ in rebuilt_requests(gateway.audit.text())] == [0, 2, 4, 0]

    def test_reask(self):
        provider = Recorder()
        gateway = Gateway(provider)
        agent = self.agent(gateway)
        self.ask(agent, provider, "q1")
        provider.replies = ["no", "no", "ok done"]
        assert agent.ask_parsed(ChatMessage("user", "q2"), _accept_ok, lambda exc: f"again: {exc}") == ("ok done", 3)
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
        opro = AdaptiveOpro(current, Gateway(provider), asset_path("optimizer").read_text(encoding="utf-8"), 5, "cumulative")
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


def written_texts(record: dict) -> list[str]:
    """Every text a gateway record writes out but its system text (a plain
    string, written at the start of each conversation): its reply, each
    message's text, and each literal part and defined text of a message that
    lists parts."""
    texts = [record["response"]["text"]]
    for message in record["messages"]:
        if "parts" not in message:
            texts.append(message["text"])
        texts += [part if isinstance(part, str) else part.get("text", "") for part in message.get("parts", ())]
    return texts


class TestSharedTexts:
    """A message joined from parts lists them in its record (audit version
    3): a shared text is defined, with its text, where the log first uses it
    and cited by id after that."""

    @staticmethod
    def run_log(tmp_path, sessions: int = 42) -> Path:
        """The gateway log of a scripted adaptive_opro_with_reflection run
        over the last `sessions` sessions, each proposal of a new template."""
        config = build_workspace(tmp_path, mode="adaptive_opro_with_reflection", history_bars=sessions + 20)
        config.window_start = synthetic_daily(sessions + 20, seed=21).dates()[-sessions]
        base = load_template("cta_initial").body
        script = [{"step": n, "response": optimizer_reply(f"{base}\nRefinement {n}.")} for n in range(1, sessions // 5 + 1)]
        config.providers["optimizer"] = {"kind": "scripted", "script": script}
        artifacts, _ = run_experiment(config)
        return artifacts[0].run_dir / "gateway.jsonl"

    def test_each_shared_text_is_defined_once_then_cited(self, tmp_path):
        """Each shared text is defined at its first use and only there; the
        shared texts are the optimizer asset's two pieces, every template
        that was live at a proposal, under the id `opro.jsonl` gives it, and
        the static runs of at least SHARED_MIN characters of the rendered
        templates, which no literal part holds. Each line is the generic
        encoding of its record, and each record rebuilds to a request of its
        `request_hash`."""
        log = self.run_log(tmp_path)
        ledger = [json.loads(line) for line in (log.parent / "opro.jsonl").read_text(encoding="utf-8").splitlines()]
        templates = [load_template(name) for name in SHIPPED_TEMPLATES] + [PromptTemplate.parse("t", r["template_text"]) for r in ledger]
        runs = {run.id: run.text for t in templates for run in shared_runs(t.nodes)}
        cited, literals = [], []
        for line in log.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            assert line == json.dumps(record, separators=(",", ":"), sort_keys=True)
            for part in (p for m in record["messages"] for p in m.get("parts", ())):
                if isinstance(part, str):
                    literals.append(part)
                    continue
                assert ("text" in part) == (part["id"] not in cited)
                cited.append(part["id"])
        pieces = {text_id(piece) for piece in asset_path("optimizer").read_text(encoding="utf-8").split("{{ history_text }}")}
        ledger_ids = [r["template_sha"] for r in ledger]
        assert set(cited) - runs.keys() == set(ledger_ids[:-1]) | pieces and len(ledger) == 9  # the last template goes live after the last proposal
        assert not any(text in literal for text in runs.values() for literal in literals)
        assert len(set(cited) & runs.keys()) > 20 and len(cited) > 4 * len(set(cited))
        assert all(record["request_hash"] == request_hash(sent) == sent.digest for record, sent in rebuilt_requests(log))

    def test_a_500_session_log_writes_each_long_text_once(self, tmp_path):
        """Over 500 sessions and 99 proposals, each of a new template, no
        text of SHARED_MIN characters or more is written twice, and the
        optimizer's records, whose meta-prompts hold every template so far,
        take fewer bytes than the other records: the log grows linearly, not
        with the square of the proposals."""
        log = self.run_log(tmp_path, 500)
        written, size = Counter(), Counter()
        for line in log.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            size[record["tags"]["role"] == "optimizer"] += len(line) + 1
            written.update(text for text in written_texts(record) if len(text) >= SHARED_MIN)
        assert len(written) > 500 and max(written.values()) == 1
        assert size[True] < size[False]

    def test_the_reader_streams_a_500_session_log(self, tmp_path):
        """Reading a 500-session log record by record peaks below half of
        what the list of its records and requests takes: the reader holds
        each role tag's conversation, not every request."""
        log = self.run_log(tmp_path, 500)

        def peak(read: Callable[[], object]) -> int:
            tracemalloc.start()
            try:
                read()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(lambda: deque(rebuilt_requests(log), maxlen=0)) < peak(lambda: list(rebuilt_requests(log))) / 2

    @staticmethod
    def two_calls() -> tuple[Gateway, list[ChatRequest]]:
        """A gateway's log of two calls, of two role tags, whose messages
        are joined from the shared texts `a` and `b`: the first defines
        both, the second cites them."""
        a, b = text_part("first shared text"), text_part('second "shared" text\n')
        gateway = Gateway(ScriptedProvider([ScriptEntry(response="ok", times=None)]))
        sent = []
        for role, pieces in (("x", (a, " and ", b)), ("y", (b, a))):
            sent.append(request_of("sys", (joined_message("user", pieces),), (("role", role),)))
            gateway.complete(sent[-1])
        return gateway, sent

    def test_a_log_rebuilds_through_its_citations(self):
        gateway, sent = self.two_calls()
        first, second = (json.loads(line)["messages"][0]["parts"] for line in gateway.audit.text().splitlines())
        assert [sorted(p) if isinstance(p, dict) else p for p in first] == [["id", "text"], " and ", ["id", "text"]]
        assert second == [{"id": first[2]["id"]}, {"id": first[0]["id"]}]
        assert [rebuilt for _, rebuilt in rebuilt_requests(gateway.audit.text())] == sent

    @pytest.mark.parametrize(
        "edit, why",
        [
            (lambda lines: lines[::-1], "is cited before its definition"),
            (lambda lines: [lines[0].replace("first shared", "first shaded"), lines[1]], "hashes to"),
            (lambda lines: [lines[0].replace('"v":4', '"v":1'), lines[1]], "is gateway audit version 1; this build replays version 2, 3 or 4"),
        ],
        ids=["citation-first", "edited-definition", "version-1"],
    )
    def test_the_reader_refuses_a_record_it_cannot_rebuild(self, edit, why):
        """A citation before its definition, a definition whose text does not
        hash to its id, and a version-1 record exit 4 and say why."""
        gateway, _ = self.two_calls()
        with pytest.raises(GatewayError) as err:
            list(rebuilt_requests("\n".join(edit(gateway.audit.text().splitlines()))))
        assert err.value.exit_code == 4 and why in str(err.value)

    @pytest.mark.parametrize("text", ["", "a\ud83d\ude00b", "a\udfff"])
    def test_a_text_whose_id_could_not_be_checked_is_literal(self, text):
        """An empty text, and one with a surrogate (a high one then a low one
        JSON reads back as one character), have no id: each is a literal part
        of its own escape, and an empty one is left out."""
        part = text_part(text)
        assert part == SharedText(text, encode_basestring_ascii(text)[1:-1])
        gateway = Gateway(ScriptedProvider([ScriptEntry(response="ok")]))
        sent = request_of("", (joined_message("user", ["<", part, ">"]),))
        gateway.complete(sent)
        [(record, rebuilt)] = rebuilt_requests(gateway.audit.text())
        assert record["messages"][0]["parts"] == logged([p for p in ("<", text, ">") if p]) and rebuilt.digest == sent.digest


# Pieces for `joined_message`: plain texts, surrogate halves on their own
# (so a pair can be split across two pieces), empty texts and newlines at
# the ends; shared texts with an id, and without one (`text_part` of an empty
# or surrogate text, or a literal of its maker's escape).
piece_text = st.sampled_from(["", "\n", "\n\n", "a", '"', "\ud83d", "\ude00", "\ud800"]) | conversation_text
pieces = st.lists(
    piece_text
    | st.builds(text_part, piece_text)
    | st.builds(lambda text: SharedText(text, escape(text)), piece_text),
    max_size=8,
)


def expected_parts(pieces: list) -> list | None:
    """The parts `joined_message` lists for `pieces`: each run of plain
    texts is one literal, a shared text without an id its escape, one with an
    id itself, and empty literals are left out. None when no piece is a
    shared text."""
    if not any(isinstance(piece, SharedText) for piece in pieces):
        return None
    parts, run = [], []
    for piece in pieces:
        if isinstance(piece, str):
            run.append(piece)
            continue
        parts += [escape("".join(run)), piece.escaped if piece.id is None else piece]
        run = []
    parts.append(escape("".join(run)))
    return [part for part in parts if part != ""]


class TestJoinedMessage:
    """`joined_message` is the one maker of a message joined from parts."""

    @settings(max_examples=300, deadline=None)
    @given(pieces=pieces)
    @example(pieces=["a\ud83d", text_part("\ude00b"), "\n"])
    @example(pieces=["\n", text_part("\nshared\n"), "\n\n"])
    @example(pieces=[text_part(""), text_part("")])
    def test_a_joined_message_is_the_plain_message_of_its_text(self, pieces):
        """The joined message has the fragment and the request hash of the
        plain message of its text, its logged record rebuilds to a request
        of that hash, and its parts are the pieces with each run of plain
        texts one literal and no literal empty."""
        message = joined_message("user", pieces)
        plain = ChatMessage("user", "".join(piece if isinstance(piece, str) else piece.text for piece in pieces))
        assert message == plain and message.fragment == plain.fragment
        request = request_of("sys", (message,), (("role", "x"),))
        assert request.digest == request_of("sys", (plain,), (("role", "x"),)).digest == request_hash(request)
        expected = expected_parts(pieces)
        assert message.parts == (None if expected is None else tuple(expected))
        assert all(part != "" for part in message.parts or ())
        gateway = Gateway(ScriptedProvider([ScriptEntry(response="ok")]))
        gateway.complete(request)
        [(record, rebuilt)] = rebuilt_requests(gateway.audit.text())
        assert rebuilt.digest == request.digest and [escape(m.text) for m in rebuilt.messages] == [escape(plain.text)]
        assert ("parts" in record["messages"][0]) == (message.parts is not None)


class TestJoinedRecordPins:
    """Audit lines of messages at the corners of `joined_message`, pinned
    by the SHA-256 of their log. The digests were computed when templates
    and the optimizer still listed their own parts, so the one maker writes
    the bytes they wrote."""

    ASSET = "Scored prompts:\n{{ history_text }}\nWrite a better one."

    @staticmethod
    def proposals(asset: str, initial: str, candidates: list[str], scored: bool = True) -> str:
        """The gateway log of an optimizer over `asset` that proposes each of
        `candidates` in turn, each accepted, after a window that scores the
        live template unless not `scored`."""
        provider = ScriptedProvider([ScriptEntry(response=optimizer_reply(c), step=n) for n, c in enumerate(candidates, 1)])
        gateway = Gateway(provider)
        opro = AdaptiveOpro(PromptTemplate.parse("cta", initial), gateway, asset, 1, "cumulative")
        for step, _ in enumerate(candidates, 1):
            if scored:
                opro.close_window(step, 100_000.0, 100_000.0 + step)
            assert opro.propose_update()
        return gateway.audit.text()

    @staticmethod
    def pinned(log: str, digest: str) -> list[dict]:
        """The records of `log`, whose SHA-256 must be `digest` and each of
        whose records must rebuild to a request of its `request_hash`."""
        assert hashlib.sha256(log.encode()).hexdigest() == digest
        assert all(r["request_hash"] == sent.digest for r, sent in rebuilt_requests(log))
        return [json.loads(line) for line in log.splitlines()]

    def test_a_surrogate_template_and_its_header_are_two_touching_literals(self):
        log = self.proposals(self.ASSET, "Trade {{ x }} with care.", ["Trade {{ x }} \ud800 boldly.", "Trade {{ x }} calmly."])
        records = self.pinned(log, "2c8ba22e4e4a6a0830b44effd6925366a3444d463619b88ac4137135f61dc995")
        parts = records[1]["messages"][0]["parts"]
        assert parts[3:5] == ["\n\n### Prompt 2 | Score: 50.0\n", logged("Trade {{ x }} \ud800 boldly.")]
        assert [isinstance(p, str) for p in parts] == [False, True, False, True, True, False]

    def test_a_history_only_asset_without_scores_lists_no_parts(self):
        log = self.proposals("{{ history_text }}", "Trade {{ x }} with care.", ["Trade {{ x }} calmly."], scored=False)
        [record] = self.pinned(log, "51207dfbac328da153b4d1e112b0827c3e646b1567e74135fe39ac600a953f60")
        assert record["messages"] == [{"parts": [], "role": "user"}]

    def test_a_history_only_asset_of_surrogate_templates_lists_literals(self):
        log = self.proposals("{{ history_text }}", "Trade {{ x }} \udfff.", ["Trade {{ x }} \ud83d!", "Trade {{ x }} \ud83d?"])
        records = self.pinned(log, "f9e79436207cc3cd40eeb7eafcc42e1809af863ffe20b67a7ae233bc9a657cc5")
        assert [len(r["messages"][0]["parts"]) for r in records] == [2, 4]
        assert all(isinstance(p, str) for r in records for p in r["messages"][0]["parts"])

    def test_a_shared_run_inside_the_system_block_leaves_a_plain_message(self):
        run = "You are a careful analyst of one instrument. " * 4
        template = PromptTemplate.parse("t", f"<system_role>\n{run}\n</system_role>\n{{{{ x }}}}\n")
        assert shared_runs(template.nodes)
        gateway = Gateway(ScriptedProvider([ScriptEntry(response="ok")]))
        ConversationalAgent("market", gateway, template, template).ask({"x": "v"})
        [record] = self.pinned(gateway.audit.text(), "2d6d6ee04b5b03b23f9a76db454adf9056e8c7ce02ad7ce73edaf7af5561f447")
        assert record["messages"] == [{"role": "user", "text": "v"}] and record["system"] == run.strip()


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
        gateway = Gateway(provider, sleep=sleeps.append)
        assert gateway.complete(req("x")).text == "finally"
        assert sleeps == [1.0, 4.0]
        assert provider.calls == 3

    def test_exhausted_retries_raise(self):
        provider = self.Flaky(failures=5)
        gateway = Gateway(provider, sleep=lambda _s: None)
        with pytest.raises(GatewayError):
            gateway.complete(req("x"))
        assert provider.calls == 3
        assert gateway.audit.text() == ""  # failed exchanges are not replayable

    def test_non_retryable_raises_immediately(self):
        provider = self.Flaky(failures=5, code="PROVIDER_ERROR")
        gateway = Gateway(provider, sleep=lambda _s: None)
        with pytest.raises(GatewayError):
            gateway.complete(req("x"))
        assert provider.calls == 1


class TestReplayProvider:
    def _record_session(self, tmp_path):
        audit = tmp_path / "gateway.jsonl"
        provider = ScriptedProvider(
            [ScriptEntry(response="one", step=1), ScriptEntry(response="two", step=2)]
        )
        gateway = Gateway(provider, AuditLog(audit))
        gateway.complete(req("first"))
        gateway.complete(req("second"))
        gateway.audit.close()
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

    def test_a_blank_line_is_refused_by_its_number(self, tmp_path):
        """A blank line between two records is refused by the replay
        provider and the reader alike, each naming it as line 2."""
        audit = self._record_session(tmp_path)
        first, second = audit.read_text(encoding="utf-8").splitlines(keepends=True)
        audit.write_text(f"{first}\n{second}", encoding="utf-8")
        for read in (ReplayProvider, lambda path: list(rebuilt_requests(path))):
            with pytest.raises(GatewayError) as err:
                read(audit)
            assert err.value.exit_code == 4 and f"line 2 in {audit}: JSONDecodeError" in str(err.value)

    def test_a_line_that_is_not_utf8_is_refused_by_its_number(self, tmp_path):
        """A byte that no UTF-8 text holds, in the second line, is refused by
        the replay provider and the reader alike, naming line 2 and the byte."""
        audit = self._record_session(tmp_path)
        first, second = audit.read_bytes().splitlines(keepends=True)
        audit.write_bytes(first + second[:20] + b"\xff" + second[20:])
        for read in (ReplayProvider, lambda path: list(rebuilt_requests(path))):
            with pytest.raises(GatewayError) as err:
                read(audit)
            message = f"PROVIDER_ERROR: line 2 in {audit}: 'utf-8' codec can't decode byte 0xff in position 20: invalid start byte"
            assert err.value.exit_code == 4 and str(err.value) == message

    def test_a_log_that_cannot_be_opened_is_refused_by_its_path(self, tmp_path):
        """A missing log, and a directory in its place, are refused by the
        replay provider and the reader alike, naming the path."""
        for audit in (tmp_path / "missing.jsonl", tmp_path):
            for read in (ReplayProvider, lambda path: list(rebuilt_requests(path))):
                with pytest.raises(GatewayError) as err:
                    read(audit)
                assert err.value.exit_code == 4 and str(err.value).startswith(f"PROVIDER_ERROR: cannot open {audit}: ")

    def test_replayed_session_is_bit_reproducible(self, tmp_path):
        audit = self._record_session(tmp_path)
        second_audit = tmp_path / "gateway2.jsonl"
        gateway = Gateway(ReplayProvider(audit), AuditLog(second_audit))
        gateway.complete(req("first"))
        gateway.complete(req("second"))
        gateway.audit.close()
        assert audit.read_bytes() == second_audit.read_bytes()


class TestSameOlderCalls:
    """The comparison of a recording of an older audit version with its
    replay, over the recordings of one run."""

    @pytest.mark.parametrize("old, new", [(2, 3), (2, 4), (3, 4)])
    def test_the_recordings_of_one_run_hold_the_same_calls(self, old, new):
        assert same_older_calls(RECORDINGS[old], RECORDINGS[new])

    def test_a_recording_of_this_version_is_compared_as_bytes(self):
        """A version-4 log is no older recording, even against itself."""
        assert AUDIT_VERSION == 4 and not same_older_calls(RECORDINGS[4], RECORDINGS[4])

    @pytest.mark.parametrize("short", ["recorded", "replayed"])
    def test_a_log_one_record_short_differs(self, tmp_path, short):
        logs = [RECORDINGS[3], RECORDINGS[4]]
        index = ["recorded", "replayed"].index(short)
        cut = tmp_path / "gateway.jsonl"
        cut.write_bytes(b"".join(logs[index].read_bytes().splitlines(keepends=True)[:-1]))
        logs[index] = cut
        assert not same_older_calls(*logs)

    @pytest.mark.parametrize("edit", ["reply", "ts"])
    def test_an_edited_record_differs(self, tmp_path, edit):
        """An older record with another reply, or without its `ts`, holds
        another call; neither raises."""
        lines = RECORDINGS[3].read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[-1])
        if edit == "reply":
            record["response"]["text"] += " edited"
        else:
            del record["ts"]
        lines[-1] = json.dumps(record, separators=(",", ":"), sort_keys=True)
        (tmp_path / "gateway.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert list(rebuilt_requests(tmp_path / "gateway.jsonl"))  # the reader takes the record
        assert not same_older_calls(tmp_path / "gateway.jsonl", RECORDINGS[4])


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
    """`HttpProvider` against the loopback chat server, over a real socket."""

    def test_happy_path_maps_openai_shape(self, chat_server, monkeypatch):
        monkeypatch.setenv("LLM_API_KEY", "secret")
        response = HttpProvider(chat_server.base_url, "model-x").complete(req("hi", system="be brief"))
        assert (response.text, response.prompt_tokens, response.completion_tokens) == ("hello", 11, 3)
        [(path, headers, payload)] = chat_server.seen
        assert path == PATH
        assert payload == {
            "model": "model-x",
            "messages": [{"role": "system", "content": "be brief"}, {"role": "user", "content": "hi"}],
        }
        assert (headers["Authorization"], headers["Content-Type"]) == ("Bearer secret", "application/json")

    def test_no_key_sends_no_authorization_header(self, chat_server, monkeypatch):
        monkeypatch.delenv("LLM_API_KEY", raising=False)
        chat_server.reset(reply=lambda payload: payload["messages"][-1]["content"].upper())
        assert HttpProvider(chat_server.base_url + "/", "m").complete(req("hi", system="")).text == "HI"
        [(path, headers, payload)] = chat_server.seen
        assert path == PATH and "Authorization" not in headers
        assert payload["messages"] == [{"role": "user", "content": "hi"}]

    def complete_with_fault(self, chat_server, fault, timeout_s=5.0):
        """The code of the error that the call with `fault` raises."""
        chat_server.reset(faults={1: fault})
        with pytest.raises(GatewayError) as err:
            HttpProvider(chat_server.base_url, "m", timeout_s=timeout_s).complete(req("x"))
        return err.value.code

    def test_rate_limit_maps_to_retryable(self, chat_server):
        assert self.complete_with_fault(chat_server, 429) == "RATE_LIMITED"

    def test_server_error_maps_to_provider_error(self, chat_server):
        assert self.complete_with_fault(chat_server, 500) == "PROVIDER_ERROR"

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
    def test_malformed_200_body_is_provider_error(self, chat_server, content):
        """A 200 response whose body is not the expected JSON is the
        provider's fault, whatever the decoder raises."""
        assert self.complete_with_fault(chat_server, content) == "PROVIDER_ERROR"

    def test_a_body_that_is_not_utf8_is_quoted_briefly(self, chat_server):
        """A 1 MB body with one byte that no UTF-8 text holds is refused by
        that byte's position, not by a repr that holds the whole body."""
        chat_server.reset(faults={1: b'{"choices": "' + b"a" * 1_000_000 + b'\xff"}'})
        with pytest.raises(GatewayError) as err:
            HttpProvider(chat_server.base_url, "m").complete(req("x"))
        message = "PROVIDER_ERROR: unexpected response body: 'utf-8' codec can't decode byte 0xff in position 1000013: invalid start byte"
        assert str(err.value) == message

    @pytest.mark.parametrize("fault", ["close", "truncate"])
    def test_a_broken_exchange_is_provider_error(self, chat_server, fault):
        """A connection closed before the status line (RemoteDisconnected),
        or a body cut short of its Content-Length (IncompleteRead, which is
        no OSError), is the provider's fault."""
        assert self.complete_with_fault(chat_server, fault) == "PROVIDER_ERROR"

    @pytest.mark.parametrize("stalls, sleeps", [(1, [1.0]), (3, [1.0, 4.0])], ids=["recovers", "gives-up"])
    def test_a_read_timeout_is_retried(self, chat_server, stalls, sleeps):
        """A reply that stalls past `timeout_s` is a TIMEOUT, which the gateway
        retries after each `BACKOFF_S` delay and raises once they are spent."""
        chat_server.reset(faults=dict.fromkeys(range(1, stalls + 1), "stall"))
        slept = []
        gateway = Gateway(HttpProvider(chat_server.base_url, "m", timeout_s=0.15), sleep=slept.append)
        if stalls > len(BACKOFF_S):
            with pytest.raises(GatewayError) as err:
                gateway.complete(req("x"))
            assert err.value.code == "TIMEOUT"
        else:
            assert gateway.complete(req("x")).text == "hello"
        assert slept == sleeps and len(chat_server.seen) == min(stalls + 1, len(BACKOFF_S) + 1)

    @pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
    def test_a_redirect_is_provider_error_and_takes_no_key_elsewhere(self, chat_server, monkeypatch, status):
        """No redirect is followed: urllib would re-send the POST as a GET,
        and the key with it, to whatever host the Location names."""
        monkeypatch.setenv("LLM_API_KEY", "secret")
        with ChatServer() as elsewhere:
            chat_server.reset(faults={1: (status, elsewhere.base_url + "/chat/completions")})
            with pytest.raises(GatewayError) as err:
                HttpProvider(chat_server.base_url, "m").complete(req("x"))
        assert (err.value.code, str(err.value)) == ("PROVIDER_ERROR", f"PROVIDER_ERROR: status {status}")
        assert chat_server.seen[0][1]["Authorization"] == "Bearer secret" and elsewhere.seen == []

    def test_a_connect_timeout_is_timeout(self):
        """A port whose accept queue is full drops the connection request, so
        the connect times out."""
        with socket.socket() as listener, socket.socket() as queued:
            listener.bind(("127.0.0.1", 0))
            listener.listen(0)
            queued.connect(listener.getsockname())  # fills the queue of one
            url = "http://%s:%d/v1" % listener.getsockname()
            with pytest.raises(GatewayError) as err:
                HttpProvider(url, "m", timeout_s=0.15).complete(req("x"))
        assert err.value.code == "TIMEOUT"

    def test_a_refused_connection_is_provider_error(self):
        with socket.socket() as bound:  # bound, never listening: a connect is refused
            bound.bind(("127.0.0.1", 0))
            with pytest.raises(GatewayError) as err:
                HttpProvider("http://%s:%d/v1" % bound.getsockname(), "m").complete(req("x"))
        assert err.value.code == "PROVIDER_ERROR"
