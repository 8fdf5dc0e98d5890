"""Conversational agents, the decision context, fundamental ratios, order parsing."""

from __future__ import annotations

import json
import random
import re
from datetime import date
from decimal import Decimal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tradeloop.agents import (
    CentralAgent,
    ConversationalAgent,
    MAX_REASKS,
    FundamentalSnapshot,
    NewsItem,
    OrderParseError,
    compute_ratios,
    dedupe_news,
    load_news_jsonl,
    parse_orders,
    read_fence,
    recent_activity_text,
    render_fundamental_data,
    render_news_batch,
)
from tradeloop.bars import Bar
from tradeloop.engine import Action, Fill, Order, OrderType, PortfolioState
from tradeloop.gateway import ChatMessage, ChatRequest, Gateway, ScriptEntry, ScriptedProvider, rebuilt_requests
from tradeloop.harness import ExperimentConfig, session_context
from tradeloop.templates import load_template

from conftest import fence_texts


def make_gateway(script):
    return Gateway(ScriptedProvider(script), sleep=lambda _s: None)


def sent_requests(gateway: Gateway) -> list[ChatRequest]:
    return [request for _, request in rebuilt_requests(gateway.audit.text())]


def make_analyst(gateway: Gateway) -> ConversationalAgent:
    return ConversationalAgent("market", gateway, load_template("market_initial"), load_template("market_followup"))


def make_cta(gateway: Gateway) -> CentralAgent:
    return CentralAgent("cta", gateway, load_template("cta_initial"), load_template("cta_followup"))


VALID_ORDER = {
    "action": "BUY",
    "orderType": "MARKET",
    "price": None,
    "quantity": 10,
    "explanation": "x",
}


def order_json(**overrides) -> str:
    obj = dict(VALID_ORDER)
    obj.update(overrides)
    return json.dumps([obj])


SESSION = date(2025, 4, 28)


def orders_of(text: str) -> list[Order]:
    """`text` parsed as the orders of the first decision, made at SESSION."""
    return parse_orders(text, SESSION, "d1")


class TestParseOrders:
    def test_single_market_buy(self):
        orders = orders_of(order_json())
        assert len(orders) == 1
        assert orders[0].action == Action.BUY
        assert orders[0].order_type == OrderType.MARKET
        assert orders[0].price is None
        assert orders[0].quantity == 10

    def test_empty_array_means_no_action(self):
        assert orders_of("[]") == []

    def test_fenced_payload_parses_identically(self):
        raw = order_json()
        fenced = f"```json\n{raw}\n```"
        assert orders_of(fenced) == orders_of(raw)

    def test_lowercase_action_rejected(self):
        with pytest.raises(OrderParseError) as err:
            orders_of(order_json(action="buy"))
        assert err.value.path == "[0].action"

    def test_negative_limit_price_rejected(self):
        with pytest.raises(OrderParseError) as err:
            orders_of(order_json(orderType="LIMIT", price=-5))
        assert err.value.path == "[0].price"

    def test_market_with_price_rejected(self):
        with pytest.raises(OrderParseError) as err:
            orders_of(order_json(price=10.0))
        assert err.value.path == "[0].price"

    def test_extra_field_rejected(self):
        with pytest.raises(OrderParseError) as err:
            orders_of(order_json(stopLoss=95))
        assert err.value.path == "[0].stopLoss"

    def test_missing_field_rejected(self):
        obj = dict(VALID_ORDER)
        del obj["explanation"]
        with pytest.raises(OrderParseError) as err:
            orders_of(json.dumps([obj]))
        assert err.value.path == "[0].explanation"

    def test_non_integer_quantity_rejected(self):
        for qty in (10.5, 10.0, "10", True, None, 0, -3):
            with pytest.raises(OrderParseError) as err:
                orders_of(order_json(quantity=qty))
            assert err.value.path == "[0].quantity"

    def test_not_an_array(self):
        with pytest.raises(OrderParseError) as err:
            orders_of(json.dumps(VALID_ORDER))
        assert err.value.code == "NOT_JSON_ARRAY"

    def test_garbage_text(self):
        with pytest.raises(OrderParseError) as err:
            orders_of("I think we should buy some shares")
        assert err.value.code == "NOT_JSON_ARRAY"

    def test_second_element_error_path(self):
        good = dict(VALID_ORDER)
        bad = dict(VALID_ORDER, orderType="limit")
        with pytest.raises(OrderParseError) as err:
            orders_of(json.dumps([good, bad]))
        assert err.value.path == "[1].orderType"


def golden_valid_payloads() -> list[str]:
    """50 conforming payloads spanning the whole grammar (incl. fenced)."""
    payloads = []
    actions = ["BUY", "SELL", "SHORT", "SHORT_COVER"]
    kinds = ["MARKET", "LIMIT", "STOP"]
    i = 0
    for action in actions:
        for kind in kinds:
            price = None if kind == "MARKET" else 100.5 + i
            payloads.append(
                json.dumps(
                    [
                        {
                            "action": action,
                            "orderType": kind,
                            "price": price,
                            "quantity": i + 1,
                            "explanation": f"case {i}",
                        }
                    ]
                )
            )
            i += 1
    # multi-order arrays
    for n in (2, 3):
        arr = [
            {
                "action": actions[(j + n) % 4],
                "orderType": "LIMIT",
                "price": 50 + j,
                "quantity": j + 1,
                "explanation": "multi",
            }
            for j in range(n)
        ]
        payloads.append(json.dumps(arr))
    # empty array and whitespace variants
    payloads.append("[]")
    payloads.append("  [ ]  ")
    # integer prices for LIMIT/STOP
    payloads.append(order_json(orderType="LIMIT", price=100))
    payloads.append(order_json(orderType="STOP", price=250))
    # fenced variants
    base = len(payloads)
    for k in range(50 - base):
        inner = json.dumps(
            [
                {
                    "action": actions[k % 4],
                    "orderType": kinds[k % 3],
                    "price": None if kinds[k % 3] == "MARKET" else 10.25 + k,
                    "quantity": k + 1,
                    "explanation": "fenced",
                }
            ]
        )
        fence = "```json" if k % 2 == 0 else "```"
        payloads.append(f"{fence}\n{inner}\n```")
    return payloads


def golden_invalid_payloads() -> list[tuple[str, str]]:
    """100 rejected payloads with their expected error field path."""
    cases: list[tuple[str, str]] = []

    def add(payload, path):
        cases.append((payload if isinstance(payload, str) else json.dumps(payload), path))

    # case errors on both enums (spec: exact casing, no variations)
    for bad in ("buy", "Buy", "bUY", "sell", "Sell", "short", "Short", "short_cover", "SHORT-COVER", "COVER", "HOLD", "B"):
        add([dict(VALID_ORDER, action=bad)], "[0].action")
    for bad in ("market", "Market", "limit", "Limit", "stop", "Stop", "MKT", "LIMIT ", " STOP", "IOC"):
        price = None if bad.strip().upper() == "MARKET" else 10
        add([dict(VALID_ORDER, orderType=bad, price=price)], "[0].orderType")
    # wrong types for enums
    add([dict(VALID_ORDER, action=1)], "[0].action")
    add([dict(VALID_ORDER, action=None)], "[0].action")
    add([dict(VALID_ORDER, orderType=None)], "[0].orderType")
    # price violations
    for bad_price in (-5, -0.01, 0, 0.0):
        add([dict(VALID_ORDER, orderType="LIMIT", price=bad_price)], "[0].price")
        add([dict(VALID_ORDER, orderType="STOP", price=bad_price)], "[0].price")
    add([dict(VALID_ORDER, orderType="LIMIT", price=None)], "[0].price")
    # json.loads reads the first three as inf, nan and inf; 1e30 has too many
    # digits for 4 decimals, and 0.00001 rounds to 0 at 4 decimals
    for bad_price in ("Infinity", "NaN", "1e400", "1e30", "0.00001"):
        order = f'{{"action": "BUY", "orderType": "LIMIT", "price": {bad_price}, "quantity": 10, "explanation": "x"}}'
        add(f"[{order}]", "[0].price")
    add([dict(VALID_ORDER, orderType="LIMIT", price="100")], "[0].price")
    add([dict(VALID_ORDER, orderType="STOP", price=True)], "[0].price")
    add([dict(VALID_ORDER, price=100.0)], "[0].price")  # MARKET with price
    add([dict(VALID_ORDER, price=0)], "[0].price")
    # quantity violations
    for bad_qty in (0, -1, -100, 1.5, 10.0, "10", None, True, False):
        add([dict(VALID_ORDER, quantity=bad_qty)], "[0].quantity")
    # explanation violations
    add([dict(VALID_ORDER, explanation=None)], "[0].explanation")
    add([dict(VALID_ORDER, explanation=42)], "[0].explanation")
    # extra fields (spec: NO additional fields)
    for extra in ("stopLoss", "takeProfit", "timeInForce", "note", "side", "symbol", "id"):
        add([dict(VALID_ORDER, **{extra: 1})], f"[0].{extra}")
    # missing fields
    for missing in ("action", "orderType", "price", "quantity", "explanation"):
        obj = dict(VALID_ORDER)
        del obj[missing]
        add([obj], f"[0].{missing}")
    # structural violations
    add(json.dumps(VALID_ORDER), "$")  # object, not array
    add("null", "$")
    add("42", "$")
    add('"BUY 10"', "$")
    add("not json at all", "$")
    add("{broken", "$")
    add(json.dumps([None]), "[0]")
    add(json.dumps([[1, 2]]), "[0]")
    add(json.dumps(["BUY"]), "[0]")
    add(json.dumps([VALID_ORDER, None]), "[1]")
    # second-element field errors
    add(json.dumps([VALID_ORDER, dict(VALID_ORDER, action="hold")]), "[1].action")
    add(json.dumps([VALID_ORDER, dict(VALID_ORDER, quantity=0)]), "[1].quantity")
    # fenced invalid payloads still get validated
    add(f"```json\n{json.dumps([dict(VALID_ORDER, action='buy')])}\n```", "[0].action")
    add("```json\n{}\n```", "$")
    # more enum typos and padding variants
    for bad in ("BUY ", " BUY", "BUYY", "SELLL", "SHRT", "SHORTCOVER", "Short_Cover", "BUY\n", "sElL", "S"):
        add([dict(VALID_ORDER, action=bad)], "[0].action")
    for bad in ("MARKETT", "LIM", "STP", "stop ", "MARKET\t", "LIMITED", "StOp", "M"):
        price = None if bad.strip().upper() == "MARKET" else 10
        add([dict(VALID_ORDER, orderType=bad, price=price)], "[0].orderType")
    # more type confusion
    add([dict(VALID_ORDER, orderType="LIMIT", price=[100])], "[0].price")
    add([dict(VALID_ORDER, orderType="STOP", price={"value": 100})], "[0].price")
    add([dict(VALID_ORDER, orderType="LIMIT", price=False)], "[0].price")
    add([dict(VALID_ORDER, quantity=[10])], "[0].quantity")
    add([dict(VALID_ORDER, quantity={"n": 10})], "[0].quantity")
    add([dict(VALID_ORDER, explanation=["reason"])], "[0].explanation")
    add([dict(VALID_ORDER, explanation={"text": "x"})], "[0].explanation")
    # more unknown fields
    for extra in ("limit", "trailingStop", "Action", "ORDERTYPE", "qty"):
        add([dict(VALID_ORDER, **{extra: 1})], f"[0].{extra}")
    return cases


class TestParseOrdersGoldenSuite:
    def test_fifty_valid_all_accepted(self):
        payloads = golden_valid_payloads()
        assert len(payloads) == 50
        for payload in payloads:
            orders = orders_of(payload)
            for order in orders:
                assert order.quantity >= 1
                if order.order_type == OrderType.MARKET:
                    assert order.price is None
                else:
                    assert order.price > 0

    def test_hundred_invalid_all_rejected_with_path(self):
        cases = golden_invalid_payloads()
        assert len(cases) >= 100
        for payload, want_path in cases:
            with pytest.raises(OrderParseError) as err:
                orders_of(payload)
            assert err.value.path == want_path, payload

    def test_fuzzed_mutations_revalidate_constraints(self):
        # 10^4 random field mutations: every acceptance re-checks the full
        # constraint set, every rejection carries a path.
        rng = random.Random(99)
        enums = {"action": ["BUY", "SELL", "SHORT", "SHORT_COVER", "buy", "Hold", ""], "orderType": ["MARKET", "LIMIT", "STOP", "market", "", "FOK"]}
        for _ in range(10_000):
            obj = {
                "action": rng.choice(enums["action"]),
                "orderType": rng.choice(enums["orderType"]),
                "price": rng.choice([None, -5, 0, 10.5, 100, True, "10"]),
                "quantity": rng.choice([-2, 0, 1, 7, 10.5, "3", None]),
                "explanation": rng.choice(["ok", "", 7, None]),
            }
            if rng.random() < 0.2:
                obj["extra"] = 1
            try:
                orders = orders_of(json.dumps([obj]))
            except OrderParseError as err:
                assert err.path.startswith("[0]") or err.path == "$"
                continue
            order = orders[0]
            assert order.action.value in enums["action"][:4]
            assert isinstance(order.quantity, int) and order.quantity >= 1
            if order.order_type == OrderType.MARKET:
                assert order.price is None
            else:
                assert order.price is not None and order.price > 0
            assert isinstance(order.explanation, str)

    def test_ids_number_the_orders_in_reply_order(self):
        reply = json.dumps([VALID_ORDER, dict(VALID_ORDER, action="SELL", quantity=3)])
        orders = parse_orders(reply, date(2025, 5, 6), "d7")
        assert [(o.id, o.action, o.quantity) for o in orders] == [("d7-1", Action.BUY, 10), ("d7-2", Action.SELL, 3)]
        assert {o.submitted_at for o in orders} == {date(2025, 5, 6)}

    @given(
        st.lists(
            st.fixed_dictionaries(
                {
                    "action": st.sampled_from(["BUY", "SELL", "SHORT", "SHORT_COVER"]),
                    "orderType": st.sampled_from(["MARKET", "LIMIT", "STOP"]),
                    "quantity": st.integers(min_value=1, max_value=10_000),
                    "explanation": st.text(max_size=40),
                    "price": st.floats(min_value=0.01, max_value=10_000, allow_nan=False),
                }
            ),
            max_size=5,
        )
    )
    @settings(max_examples=150)
    def test_every_grammar_conforming_payload_parses(self, objs):
        for obj in objs:
            if obj["orderType"] == "MARKET":
                obj["price"] = None
            else:
                obj["price"] = round(obj["price"], 4)
        orders = orders_of(json.dumps(objs))
        assert len(orders) == len(objs)
        for order, obj in zip(orders, objs):
            assert order.action.value == obj["action"]
            assert order.quantity == obj["quantity"]


class TestStripFences:
    """`parse_orders` reads the body of a ``` fence, or the whole text without one."""

    def test_plain_passes_through(self):
        assert orders_of(order_json())[0].quantity == 10

    def test_json_fence(self):
        raw = order_json()
        assert orders_of(f"```json\n{raw}\n```") == orders_of(raw)

    def test_bare_fence(self):
        raw = order_json()
        assert orders_of(f"```\n{raw}\n```") == orders_of(raw)

    def test_an_empty_fence_body_is_the_payload(self):
        """The order JSON is the fence's empty body, not the whole text,
        which would fail on its missing comma instead."""
        with pytest.raises(OrderParseError, match="Expecting value"):
            orders_of("[1 ```\n```")

    # The regex `read_fence` replaced, kept as its oracle.
    OLD_FENCE = re.compile(r"```(?:json)?\s*\n(.*?)\n?\s*```", re.DOTALL)

    @given(fence_texts)
    @example("```json\n[1]")  # never closed
    @example("```json \u3000[1]\n```")  # whitespace after the opener, but no newline
    @example("````json\n[1]\n```")
    @example("```\n\r\n```")  # an empty body
    @example("```json\n[1] \n```\n```\n[2]\n```")  # two fenced blocks
    @settings(max_examples=500)
    def test_read_fence_is_the_old_regex(self, text):
        m = self.OLD_FENCE.search(text)
        assert read_fence(text) == (m.group(1) if m else None)


class TestComputeRatios:
    def test_nvda_style_annual_snapshot(self):
        # Revenue 130.5B with net income 72.9B is a ~55.9% net margin.
        snap = FundamentalSnapshot(
            filing_date=date(2025, 2, 26),
            period_label="Annual FY2025",
            revenue=130.5e9,
            cogs=32.6e9,
            operating_income=81.5e9,
            net_income=72.9e9,
            weighted_shares=24.8e9,
            ocf=64.1e9,
            icf=-20.4e9,
            fcf_fin=-42.4e9,
            total_debt=8.5e9,
            total_equity=79.3e9,
        )
        ratios = compute_ratios(snap)
        assert ratios["net_margin_pct"] == pytest.approx(55.86, abs=0.05)
        assert ratios["gross_margin_pct"] == pytest.approx(75.0, abs=0.1)
        assert ratios["operating_margin_pct"] == pytest.approx(62.4, abs=0.1)
        assert ratios["debt_to_equity"] == pytest.approx(0.107, abs=0.01)
        assert ratios["net_cash_flow"] == pytest.approx(1.3e9)

    def test_zero_debt_is_zero_not_undefined(self):
        snap = FundamentalSnapshot(filing_date=date(2025, 1, 1), total_debt=0.0, total_equity=10.0)
        assert compute_ratios(snap)["debt_to_equity"] == 0.0

    def test_zero_equity_undefined(self):
        snap = FundamentalSnapshot(filing_date=date(2025, 1, 1), total_debt=5.0, total_equity=0.0)
        assert compute_ratios(snap)["debt_to_equity"] is None

    def test_eps(self):
        snap = FundamentalSnapshot(filing_date=date(2025, 1, 1), net_income=100.0, weighted_shares=50.0)
        assert compute_ratios(snap)["eps"] == pytest.approx(2.0)

    def test_dividend_yield_needs_price(self):
        snap = FundamentalSnapshot(
            filing_date=date(2025, 1, 1), annual_dividends_per_share=2.0, price=50.0
        )
        assert compute_ratios(snap)["dividend_yield_pct"] == pytest.approx(4.0)
        no_price = FundamentalSnapshot(filing_date=date(2025, 1, 1), annual_dividends_per_share=2.0)
        assert compute_ratios(no_price)["dividend_yield_pct"] is None

    def test_render_includes_ratios_and_events(self):
        snap = FundamentalSnapshot(
            filing_date=date(2025, 2, 26),
            period_label="Annual FY2025",
            revenue=130.5e9,
            net_income=72.9e9,
            splits=(("2024-06-10", "1:10"),),
            dividends=(("2025-03-12", "0.01"),),
        )
        text = render_fundamental_data([snap])
        assert "Stock Splits:" in text and "1:10" in text
        assert "Dividends:" in text
        assert "Net margin 55.9%" in text

    def test_render_includes_the_dividend_yield(self):
        snap = FundamentalSnapshot(filing_date=date(2025, 1, 1), annual_dividends_per_share=2.0, price=50.0)
        assert "; Yield 4.00%" in render_fundamental_data([snap])


class TestNewsPlumbing:
    def test_blank_lines_are_skipped(self):
        lines = ['{"ts": "2025-04-28T12:45:00+00:00", "title": "a"}', "", "  \t", '{"ts": "2025-04-29", "title": "b"}']
        assert [item.title for item in load_news_jsonl("\n".join(lines) + "\n")] == ["a", "b"]

    def test_dedupe_by_title_and_ts(self):
        a = NewsItem(ts="2025-04-28T12:45:00+00:00", title="Same headline", url="u1", summary="s")
        b = NewsItem(ts="2025-04-28T12:45:00+00:00", title="Same headline", url="u2", summary="s")
        c = NewsItem(ts="2025-04-28T13:00:00+00:00", title="Same headline", url="u1", summary="s")
        assert dedupe_news([a, b, c]) == [a, c]

    def test_render_newest_first_once(self):
        a = NewsItem(ts="2025-04-28T07:15:00+00:00", title="Older", url="", summary="x", keywords=("k",))
        b = NewsItem(ts="2025-04-28T12:45:00+00:00", title="Newer", url="", summary="y")
        text = render_news_batch([a, b, a])
        assert text.index("Newer") < text.index("Older")
        assert text.count("Older") == 1


class TestAnalystCadence:
    def _market_context(self):
        return {
            "instrument": "SYNTH",
            "session_start": "2025-04-28",
            "session_end": "2025-06-27",
            "current_time": "2025-04-28",
            "action_interval": "1 day",
            "extended_intervals_analysis": "none",
            "open_price": "100.00",
            "high_price": "101.00",
            "low_price": "99.00",
            "close_price": "100.50",
            "volume": "1000",
            "vwap_str": "n/a",
            "transactions": "n/a",
            "formatted_indicators": "SMA(20): n/a",
        }

    def test_first_call_initial_then_followup(self):
        gateway = make_gateway(
            [
                ScriptEntry(response="first analysis", match="ELITE MARKET ANALYST"),
                ScriptEntry(response="second analysis", match="MARKET UPDATE"),
            ]
        )
        analyst = make_analyst(gateway)
        assert analyst.ask(self._market_context()) == "first analysis"
        assert analyst.ask(self._market_context()) == "second analysis"

    def test_next_template_is_initial_then_followup(self):
        analyst = make_analyst(make_gateway([ScriptEntry(response="ok", times=None)]))
        assert analyst.next_template is analyst.initial
        analyst.ask(self._market_context())
        assert analyst.next_template is analyst.followup

    def test_scripted_text_passes_through(self):
        gateway = make_gateway([ScriptEntry(response="TEXT", times=None)])
        assert make_analyst(gateway).ask(self._market_context()) == "TEXT"

    def test_na_rendering_reaches_prompt(self):
        gateway = make_gateway([ScriptEntry(response="ok", times=None)])
        make_analyst(gateway).ask(self._market_context())
        sent = sent_requests(gateway)[0].messages[0].text
        assert "SMA(20): n/a" in sent


class TestAskParsed:
    def test_reasks_with_reminder_then_raises_last_error(self):
        gateway = make_gateway([ScriptEntry(response=f"no {n}", step=n) for n in range(1, 4)])
        agent = make_analyst(gateway)

        def parse(reply: str) -> int:
            raise ValueError(f"cannot parse {reply!r}")

        with pytest.raises(ValueError, match="cannot parse 'no 3'"):
            agent.ask_parsed(ChatMessage("user", "question"), parse, lambda exc: f"again: {exc}", (("step", "1"),))
        records = [json.loads(line) for line in gateway.audit.text().splitlines()]
        assert len(records) == 1 + MAX_REASKS
        assert [r["tags"] for r in records] == [
            {"step": "1", "role": "market", "attempt": str(n)} for n in range(1, 4)
        ]
        assert [m.text for m in sent_requests(gateway)[-1].messages] == [
            "question", "no 1", "again: cannot parse 'no 1'", "no 2", "again: cannot parse 'no 2'"
        ]

    def test_returns_parsed_value_and_attempts(self):
        gateway = make_gateway([ScriptEntry(response="x", step=1), ScriptEntry(response="7", step=2)])
        value, attempts = make_analyst(gateway).ask_parsed(ChatMessage("user", "question"), int, lambda exc: "digits only")
        assert (value, attempts) == (7, 2)


def make_decision_context(cash: str = "100000", shares_long: int = 0) -> dict:
    config = ExperimentConfig(
        instrument="SYNTH", window_start=date(2025, 4, 28), window_end=date(2025, 6, 27), paths={"bars": "bars.csv"}
    )
    bar = Bar(date(2025, 4, 28), Decimal("100"), Decimal("101"), Decimal("99"), Decimal("100.5"), 1000)
    state = PortfolioState(cash=Decimal(cash), shares_long=shares_long, shares_short=0)
    reports = dict.fromkeys(("market_analysis", "news_analysis", "fund_analysis", "reflection_analysis"))
    return session_context(config, bar, state, []) | reports


class TestCentralAgent:
    def test_empty_array_response(self):
        gateway = make_gateway([ScriptEntry(response="[]", times=None)])
        agent = make_cta(gateway)
        outcome = agent.decide(make_decision_context(), SESSION, "d1")
        assert outcome.orders == [] and not outcome.gave_up

    def test_valid_order_parsed(self):
        gateway = make_gateway([ScriptEntry(response=order_json(), times=None)])
        agent = make_cta(gateway)
        outcome = agent.decide(make_decision_context(), SESSION, "d1")
        assert len(outcome.orders) == 1
        assert outcome.orders[0].price is None

    def test_orders_are_stamped_with_the_session_and_prefix(self):
        reply = json.dumps([VALID_ORDER, dict(VALID_ORDER, orderType="LIMIT", price=99.5)])
        gateway = make_gateway([ScriptEntry(response="garbage", step=1), ScriptEntry(response=reply, step=2)])
        outcome = make_cta(gateway).decide(make_decision_context(), date(2025, 5, 6), "d7")
        assert [(o.id, o.submitted_at, o.price) for o in outcome.orders] == [
            ("d7-1", date(2025, 5, 6), None), ("d7-2", date(2025, 5, 6), Decimal("99.5000"))
        ]

    def test_fenced_response_accepted(self):
        gateway = make_gateway([ScriptEntry(response=f"```json\n{order_json()}\n```", times=None)])
        agent = make_cta(gateway)
        outcome = agent.decide(make_decision_context(), SESSION, "d1")
        assert len(outcome.orders) == 1

    def test_retry_then_give_up_yields_empty(self):
        gateway = make_gateway([ScriptEntry(response="sorry, no JSON here", times=None)])
        agent = make_cta(gateway)
        outcome = agent.decide(make_decision_context(), SESSION, "d1")
        assert outcome.orders == []
        assert outcome.gave_up
        assert outcome.attempts == 3

    def test_retry_recovers_on_second_attempt(self):
        gateway = make_gateway(
            [ScriptEntry(response="garbage", step=1), ScriptEntry(response="[]", step=2)]
        )
        agent = make_cta(gateway)
        outcome = agent.decide(make_decision_context(), SESSION, "d1")
        assert outcome.attempts == 2 and not outcome.gave_up

    def test_deeply_nested_reply_is_reasked(self):
        """A reply nested beyond the JSON decoder's depth is a malformed
        reply like any other, not a RecursionError."""
        nested = "[" * 100_000 + "]" * 100_000
        gateway = make_gateway([ScriptEntry(response=nested, step=1), ScriptEntry(response=order_json(), step=2)])
        outcome = make_cta(gateway).decide(make_decision_context(), SESSION, "d1")
        assert (len(outcome.orders), outcome.attempts) == (1, 2)
        reminder = sent_requests(gateway)[-1].messages[-1].text
        assert reminder.endswith("(parse error: NOT_JSON_ARRAY at $: not parseable JSON: nested too deeply)")

    def test_system_role_extracted_once(self):
        gateway = make_gateway([ScriptEntry(response="[]", times=None)])
        agent = make_cta(gateway)
        agent.decide(make_decision_context(), SESSION, "d1")
        request = sent_requests(gateway)[0]
        assert "elite proprietary trader" in request.system_text
        assert "elite proprietary trader" not in request.messages[0].text

    def test_number_formatting_in_rendered_prompt(self):
        gateway = make_gateway([ScriptEntry(response="[]", times=None)])
        agent = make_cta(gateway)
        ctx = make_decision_context(cash="98989.5", shares_long=12)
        agent.decide(ctx, SESSION, "d1")
        sent = sent_requests(gateway)[0].messages[0].text
        assert "$98989.50" in sent  # cash rendered with 2 decimals
        assert "Long 12 |" in sent
        assert "C 100.50" in sent

    def test_rendered_bytes_pass_through_to_gateway_unmodified(self):
        import hashlib

        gateway = make_gateway([ScriptEntry(response="[]", times=None)])
        agent = make_cta(gateway)
        ctx = make_decision_context()
        template = load_template("cta_initial")
        rendered = template.render(ctx)
        agent.decide(ctx, SESSION, "d1")
        request = sent_requests(gateway)[0]
        sent_user = request.messages[0].text
        sent_system = request.system_text
        assert hashlib.sha256(sent_user.encode()).hexdigest() == hashlib.sha256(
            rendered.user_text.encode()
        ).hexdigest()
        assert sent_system == rendered.system_text


class TestRecentActivity:
    def test_last_five_formatted(self):
        fills = [
            Fill(f"o{d}", Action.BUY, date(2025, 5, d), Decimal("100.5"), d) for d in range(1, 8)
        ]
        text = recent_activity_text(fills)
        lines = text.splitlines()
        assert len(lines) == 5
        assert lines[-1] == "2025-05-07 BUY 7 @ 100.50"
        assert "2025-05-01" not in text
