"""Gateway provider semantics: scripting, replay, retry, audit."""

from __future__ import annotations

import json

import pytest

from tradeloop.gateway import (
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
    request_hash,
)


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
        record = json.loads(gateway.audit.text())
        assert record["request_hash"] == before
        assert record["request"]["messages"][0]["text"] == "precious prompt bytes → untouched"

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
