"""Execution engine: validation, fill model, accounting invariants."""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from datetime import date, timedelta
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tradeloop import harness
from tradeloop.bars import Bar
from tradeloop.engine import (
    AUDIT_SCHEMA_VERSION,
    Action,
    AuditLog,
    EngineError,
    ExecutionEngine,
    Fill,
    Order,
    OrderType,
    PortfolioState,
    RejectReason,
    Rejection,
    SessionResult,
    fill_line,
    portfolio_value,
    summary_line,
    trades_from_audit,
)

import engine_model
from conftest import make_bar
from engine_model import units
from test_harness import GOLDEN_BARS, WINDOW_SESSIONS, build_workspace

D = Decimal


def mk_order(
    action: Action,
    qty: int,
    order_type: OrderType = OrderType.MARKET,
    price: str | None = None,
    oid: str = "o1",
    submitted: date = date(2025, 4, 28),
) -> Order:
    return Order(
        id=oid,
        action=action,
        order_type=order_type,
        price=None if price is None else D(price),
        quantity=qty,
        explanation="test",
        submitted_at=submitted,
    )


def bar_on(day: date, o, h, l, c, v: int = 10_000) -> Bar:
    return make_bar(day, o, h, l, c, v=v)


def hold(engine: ExecutionEngine, long: int = 0, short: int = 0) -> None:
    """Inject a position into the engine's one portfolio state."""
    engine._state = PortfolioState(engine.portfolio().cash, long, short)


NEXT_DAY = date(2025, 4, 29)


class TestOrderInvariants:
    def test_market_with_price_rejected(self):
        with pytest.raises(EngineError):
            mk_order(Action.BUY, 1, OrderType.MARKET, price="10")

    def test_limit_needs_positive_price(self):
        with pytest.raises(EngineError):
            mk_order(Action.BUY, 1, OrderType.LIMIT)
        with pytest.raises(EngineError):
            mk_order(Action.BUY, 1, OrderType.LIMIT, price="0")

    def test_quantity_at_least_one(self):
        with pytest.raises(EngineError):
            mk_order(Action.BUY, 0)


class TestValidateAndQueue:
    def test_insufficient_cash(self):
        engine = ExecutionEngine(initial_cash=D(1000))
        outcome = engine.validate_and_queue(mk_order(Action.BUY, 20), last_close=D(100))
        assert isinstance(outcome, Rejection)
        assert outcome.reason == RejectReason.INSUFFICIENT_CASH

    def test_buy_limit_uses_limit_price_as_reference(self):
        engine = ExecutionEngine(initial_cash=D(1000))
        order = mk_order(Action.BUY, 20, OrderType.LIMIT, price="50")
        assert isinstance(engine.validate_and_queue(order, last_close=D(100)), Order)

    def test_sell_clamps_to_long(self):
        engine = ExecutionEngine(initial_cash=D(0))
        hold(engine, long=5)  # position injected for the clamp check
        outcome = engine.validate_and_queue(mk_order(Action.SELL, 10), last_close=D(100))
        assert isinstance(outcome, Order)
        assert outcome.quantity == 5
        result = engine.step_session(bar_on(NEXT_DAY, 100, 101, 99, 100))
        assert result.fills[0].quantity == 5
        assert result.fills[0].clamped_from == 10  # original submitted quantity

    def test_cover_clamp_to_zero_drops(self):
        engine = ExecutionEngine(initial_cash=D(1000))
        outcome = engine.validate_and_queue(mk_order(Action.SHORT_COVER, 3), last_close=D(100))
        assert isinstance(outcome, Rejection)
        assert outcome.reason == RejectReason.EMPTY_AFTER_CLAMP

    def test_short_capped_at_portfolio_value(self):
        engine = ExecutionEngine(initial_cash=D(1000))
        # value 1000 at close 100 -> max 10 shares short.
        ok = engine.validate_and_queue(mk_order(Action.SHORT, 10, oid="s1"), last_close=D(100))
        assert isinstance(ok, Order)
        too_much = engine.validate_and_queue(mk_order(Action.SHORT, 11, oid="s2"), last_close=D(100))
        assert isinstance(too_much, Rejection)
        assert too_much.reason == RejectReason.SHORT_LIMIT

    def test_short_cap_includes_existing_exposure(self):
        engine = ExecutionEngine(initial_cash=D(1000))
        engine.validate_and_queue(mk_order(Action.SHORT, 6, oid="s1"), last_close=D(100))
        engine.step_session(bar_on(NEXT_DAY, 100, 100, 100, 100))
        # cash 1600, short 6 -> value 1000; existing exposure 600 + new 500 > 1000.
        outcome = engine.validate_and_queue(
            mk_order(Action.SHORT, 5, oid="s2", submitted=NEXT_DAY), last_close=D(100)
        )
        assert isinstance(outcome, Rejection)


class TestFillModel:
    def test_market_fills_at_open(self):
        engine = ExecutionEngine(initial_cash=D(10_000))
        engine.validate_and_queue(mk_order(Action.BUY, 10), last_close=D(100))
        result = engine.step_session(bar_on(NEXT_DAY, 100, 102, 99, 101))
        assert result.fills[0].fill_price == D(100)
        assert engine.portfolio().cash == D(9000)
        assert engine.portfolio().shares_long == 10

    def test_limit_buy_no_touch_cancels(self):
        engine = ExecutionEngine(initial_cash=D(10_000))
        engine.validate_and_queue(
            mk_order(Action.BUY, 10, OrderType.LIMIT, price="95"), last_close=D(100)
        )
        result = engine.step_session(bar_on(NEXT_DAY, 100, 102, 96, 101))
        assert result.fills == ()
        assert result.cancelled == ("o1",)

    def test_limit_buy_fills_at_limit_when_low_reaches(self):
        engine = ExecutionEngine(initial_cash=D(10_000))
        engine.validate_and_queue(
            mk_order(Action.BUY, 10, OrderType.LIMIT, price="95"), last_close=D(100)
        )
        result = engine.step_session(bar_on(NEXT_DAY, 100, 102, 94, 101))
        assert result.fills[0].fill_price == D(95)

    def test_limit_buy_gap_down_fills_at_open(self):
        engine = ExecutionEngine(initial_cash=D(10_000))
        engine.validate_and_queue(
            mk_order(Action.BUY, 10, OrderType.LIMIT, price="95"), last_close=D(100)
        )
        result = engine.step_session(bar_on(NEXT_DAY, 92, 96, 91, 94))
        assert result.fills[0].fill_price == D(92)

    def test_stop_sell_gap_through_fills_at_open(self):
        engine = ExecutionEngine(initial_cash=D(0))
        hold(engine, long=10)
        engine.validate_and_queue(
            mk_order(Action.SELL, 10, OrderType.STOP, price="90"), last_close=D(100)
        )
        result = engine.step_session(bar_on(NEXT_DAY, 85, 88, 84, 86))
        assert result.fills[0].fill_price == D(85)

    def test_stop_buy_triggers_at_stop_within_bar(self):
        engine = ExecutionEngine(initial_cash=D(10_000))
        engine.validate_and_queue(
            mk_order(Action.BUY, 10, OrderType.STOP, price="105"), last_close=D(100)
        )
        result = engine.step_session(bar_on(NEXT_DAY, 100, 106, 99, 104))
        assert result.fills[0].fill_price == D(105)

    def test_limit_sell_fills_at_limit_via_high(self):
        engine = ExecutionEngine(initial_cash=D(0))
        hold(engine, long=10)
        engine.validate_and_queue(
            mk_order(Action.SELL, 10, OrderType.LIMIT, price="105"), last_close=D(100)
        )
        result = engine.step_session(bar_on(NEXT_DAY, 100, 106, 99, 104))
        assert result.fills[0].fill_price == D(105)

    def test_stop_cover_is_buy_side(self):
        # SHORT_COVER with a STOP triggers on the way UP, like a stop buy.
        engine = ExecutionEngine(initial_cash=D(10_000))
        hold(engine, short=10)
        engine.validate_and_queue(
            mk_order(Action.SHORT_COVER, 10, OrderType.STOP, price="105"), last_close=D(100)
        )
        result = engine.step_session(bar_on(NEXT_DAY, 100, 106, 99, 104))
        assert result.fills[0].fill_price == D(105)
        assert engine.portfolio().shares_short == 0

    def test_limit_cover_is_buy_side(self):
        engine = ExecutionEngine(initial_cash=D(10_000))
        hold(engine, short=10)
        engine.validate_and_queue(
            mk_order(Action.SHORT_COVER, 10, OrderType.LIMIT, price="95"), last_close=D(100)
        )
        result = engine.step_session(bar_on(NEXT_DAY, 100, 102, 94, 101))
        assert result.fills[0].fill_price == D(95)

    def test_no_fill_outside_bar_range(self):
        rng = random.Random(0)
        for _ in range(200):
            engine = ExecutionEngine(initial_cash=D(1_000_000))
            kind = rng.choice(list(OrderType))
            price = f"{rng.uniform(50, 150):.2f}" if kind != OrderType.MARKET else None
            order = mk_order(Action.BUY, 1, kind, price=price)
            engine.validate_and_queue(order, last_close=D(100))
            o = round(rng.uniform(80, 120), 2)
            h = round(o + rng.uniform(0, 10), 2)
            l = round(o - rng.uniform(0, 10), 2)
            c = round(rng.uniform(l, h), 2)
            bar = bar_on(NEXT_DAY, o, h, l, c)
            result = engine.step_session(bar)
            for fill in result.fills:
                assert bar.low <= fill.fill_price <= bar.high


class TestSessionAccounting:
    def test_unfilled_orders_always_cancel(self):
        engine = ExecutionEngine(initial_cash=D(10_000))
        engine.validate_and_queue(
            mk_order(Action.BUY, 1, OrderType.LIMIT, price="1"), last_close=D(100)
        )
        result = engine.step_session(bar_on(NEXT_DAY, 100, 101, 99, 100))
        assert result.cancelled == ("o1",)
        # The cancelled order is gone: a bar that would fill it matches nothing.
        after = engine.step_session(bar_on(NEXT_DAY + timedelta(days=1), 1, 1, 1, 1))
        assert (after.fills, after.cancelled) == ((), ())

    def test_result_carries_the_orders_it_matched_as_queued(self):
        """A session's `orders` are the queue it matched, in submission order:
        a clamped SELL at its clamped quantity, and no rejected order. An
        idle session matched none."""
        engine = ExecutionEngine(initial_cash=D(1000))
        hold(engine, long=5)
        sell = engine.validate_and_queue(mk_order(Action.SELL, 10, oid="sell"), last_close=D(100))
        rejected = engine.validate_and_queue(mk_order(Action.BUY, 50, oid="big"), last_close=D(100))
        low = engine.validate_and_queue(mk_order(Action.BUY, 1, OrderType.LIMIT, price="1", oid="low"), last_close=D(100))
        assert isinstance(rejected, Rejection)
        result = engine.step_session(bar_on(NEXT_DAY, 100, 101, 99, 100))
        assert result.orders == (sell, low)
        assert [(o.id, o.quantity) for o in result.orders] == [("sell", 5), ("low", 1)]
        assert (result.fills[0].order_id, result.cancelled) == ("sell", ("low",))
        idle = engine.step_session(bar_on(NEXT_DAY + timedelta(days=1), 100, 101, 99, 100))
        assert idle.orders == ()

    def test_gap_reject_on_execution_cash_breach(self):
        engine = ExecutionEngine(initial_cash=D(1000))
        engine.validate_and_queue(mk_order(Action.BUY, 10), last_close=D(100))
        # Gap up: would cost 1200 > 1000 at execution.
        result = engine.step_session(bar_on(NEXT_DAY, 120, 125, 118, 121))
        assert result.fills == ()
        assert result.cancelled == ("o1",)
        audit_events = [json.loads(line) for line in engine.audit.text().splitlines()]
        reasons = [e.get("reason") for e in audit_events if e["type"] == "CANCEL"]
        assert reasons == [RejectReason.GAP_REJECT.value]
        assert engine.portfolio().cash == D(1000)

    def test_multiple_orders_match_in_submission_order(self):
        engine = ExecutionEngine(initial_cash=D(1500))
        engine.validate_and_queue(mk_order(Action.BUY, 10, oid="a"), last_close=D(100))
        engine.validate_and_queue(mk_order(Action.BUY, 10, oid="b"), last_close=D(100))
        result = engine.step_session(bar_on(NEXT_DAY, 100, 101, 99, 100))
        # First consumes 1000 of 1500; second gap-rejects on the per-fill re-check.
        assert [f.order_id for f in result.fills] == ["a"]
        assert result.cancelled == ("b",)

    def test_exec_time_sell_reclamp(self):
        engine = ExecutionEngine(initial_cash=D(0))
        hold(engine, long=10)
        engine.validate_and_queue(mk_order(Action.SELL, 10, oid="a"), last_close=D(100))
        engine.validate_and_queue(mk_order(Action.SELL, 10, oid="b"), last_close=D(100))
        result = engine.step_session(bar_on(NEXT_DAY, 100, 101, 99, 100))
        assert [f.order_id for f in result.fills] == ["a"]
        assert result.cancelled == ("b",)
        assert engine.portfolio().shares_long == 0

    def test_cash_delta_is_exact(self):
        engine = ExecutionEngine(initial_cash=D("100000"))
        engine.validate_and_queue(mk_order(Action.BUY, 7), last_close=D("99.99"))
        engine.step_session(bar_on(NEXT_DAY, "33.3333", "34", "33", "33.5"))
        assert engine.portfolio().cash == D("100000") - D("33.3333") * 7

    def test_portfolio_value_cases(self):
        assert portfolio_value(PortfolioState(D(100_000), 0, 0), D(50)) == D(100_000)
        assert portfolio_value(PortfolioState(D(0), 10, 0), D(50)) == D(500)
        assert portfolio_value(PortfolioState(D(1000), 0, 5), D(100)) == D(500)

    def test_bar_must_advance_clock(self):
        engine = ExecutionEngine()
        engine.step_session(bar_on(NEXT_DAY, 100, 101, 99, 100))
        with pytest.raises(EngineError):
            engine.step_session(bar_on(NEXT_DAY, 100, 101, 99, 100))

    def test_order_submitted_at_matching_bar_rejected(self):
        engine = ExecutionEngine(initial_cash=D(10_000))
        engine.validate_and_queue(mk_order(Action.BUY, 1, submitted=NEXT_DAY), last_close=D(100))
        with pytest.raises(EngineError):
            engine.step_session(bar_on(NEXT_DAY, 100, 101, 99, 100))


class TestForceCover:
    def test_covers_at_final_close(self):
        engine = ExecutionEngine(initial_cash=D(1000))
        engine.validate_and_queue(mk_order(Action.SHORT, 10), last_close=D(100))
        engine.step_session(bar_on(NEXT_DAY, 100, 100, 100, 100))
        assert engine.portfolio().shares_short == 10
        result = engine.force_cover(bar_on(NEXT_DAY + timedelta(days=1), 50, 50, 50, 50))
        assert engine.portfolio().shares_short == 0
        assert engine.portfolio().cash == D(1000) + D(1000) - D(500)
        assert result.fills[0].quantity == 10

    def test_no_shorts_is_noop(self):
        engine = ExecutionEngine(initial_cash=D(1000))
        engine.step_session(bar_on(NEXT_DAY, 100, 100, 100, 100))
        result = engine.force_cover(bar_on(NEXT_DAY + timedelta(days=1), 100, 100, 100, 100))
        assert result.fills == ()
        assert engine.portfolio().cash == D(1000)

    def test_cover_with_zero_free_cash_uses_prior_proceeds(self):
        # Short proceeds were credited; covering at a higher close still keeps
        # cash non-negative because the cap limited exposure to 100% of value.
        engine = ExecutionEngine(initial_cash=D(1000))
        engine.validate_and_queue(mk_order(Action.SHORT, 10), last_close=D(100))
        engine.step_session(bar_on(NEXT_DAY, 100, 100, 100, 100))
        engine.validate_and_queue(
            mk_order(Action.BUY, 13, oid="spend", submitted=NEXT_DAY), last_close=D(100)
        )
        engine.step_session(bar_on(NEXT_DAY + timedelta(days=1), 100, 100, 100, 100))
        assert engine.portfolio().cash == D(700)
        result = engine.force_cover(bar_on(NEXT_DAY + timedelta(days=2), 65, 70, 60, 70))
        assert engine.portfolio().shares_short == 0
        assert engine.portfolio().cash == D(0)
        assert result.portfolio_value == portfolio_value(engine.portfolio(), D(70))

    def test_cancels_leftover_queue(self):
        engine = ExecutionEngine(initial_cash=D(1000))
        engine.validate_and_queue(mk_order(Action.BUY, 1), last_close=D(100))
        result = engine.force_cover(bar_on(NEXT_DAY, 100, 100, 100, 100))
        assert result.cancelled == ("o1",)
        assert [order.id for order in result.orders] == ["o1"]

    def test_the_invariant_check_holds_under_python_O(self):
        """The booking check raises AssertionError also when `python -O`
        strips asserts: a BUY spending short-sale proceeds drives the window
        end's forced cover below zero cash."""
        script = """
from datetime import date
from decimal import Decimal
from tradeloop.bars import Bar
from tradeloop.engine import Action, ExecutionEngine, Order, OrderType

def bar(day):
    p = Decimal(100)
    return Bar(session_date=date(2024, 1, day), open=p, high=p, low=p, close=p, volume=1000)

def market(order_id, action, quantity, day):
    return Order(order_id, action, OrderType.MARKET, None, quantity, "", date(2024, 1, day))

engine = ExecutionEngine(initial_cash=100_000)
engine.step_session(bar(2))
engine.validate_and_queue(market("s", Action.SHORT, 500, 2), last_close=Decimal(100))
engine.step_session(bar(3))
engine.validate_and_queue(market("b", Action.BUY, 1400, 3), last_close=Decimal(100))
engine.step_session(bar(4))
engine.force_cover(bar(4))
"""
        src = Path(harness.__file__).parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 1
        assert "AssertionError: booking forced-cover-2024-01-04 left PortfolioState(cash=Decimal('-40000')" in done.stderr


class TestDeterminism:
    def _run(self) -> str:
        engine = ExecutionEngine(initial_cash=D(100_000))
        day = date(2025, 4, 28)
        rng = random.Random(42)
        for i in range(10):
            nxt = day + timedelta(days=1)
            for j in range(3):
                action = rng.choice(list(Action))
                kind = rng.choice(list(OrderType))
                price = f"{rng.uniform(80, 120):.2f}" if kind != OrderType.MARKET else None
                order = mk_order(action, rng.randint(1, 20), kind, price=price, oid=f"{i}-{j}", submitted=day)
                engine.validate_and_queue(order, last_close=D(100))
            o = round(rng.uniform(90, 110), 2)
            h = round(o + rng.uniform(0, 5), 2)
            l = round(o - rng.uniform(0, 5), 2)
            c = round(rng.uniform(l, h), 2)
            engine.step_session(bar_on(nxt, o, h, l, c))
            day = nxt
        return engine.audit.text()

    def test_identical_runs_byte_identical_audit(self):
        assert self._run() == self._run()


def random_session_sequence(
    seed: int,
    orders_per_session: int = 5,
    sessions: int = 10,
    fills: list | None = None,
    quiet: int = 0,
    results: list | None = None,
    engine_type: type[ExecutionEngine] = ExecutionEngine,
):
    """One randomized run of an `engine_type`; returns (engine, order_count),
    extends `fills` with every session's fills and `results` with every
    session's result. After each session that places orders, `quiet`
    sessions place none. Per-session price moves are bounded so the
    documented caps keep cash non-negative."""
    rng = random.Random(seed)
    engine = engine_type(initial_cash=D(100_000))
    day = date(2025, 1, 6)
    price = 100.0
    orders = 0
    for i in range(sessions):
        last_close = D(f"{price:.2f}")
        for j in range(0 if i % (quiet + 1) else orders_per_session):
            action = rng.choice(list(Action))
            kind = rng.choice(list(OrderType))
            ref = price * rng.uniform(0.9, 1.1)
            p = f"{ref:.2f}" if kind != OrderType.MARKET else None
            order = mk_order(
                action, rng.randint(1, 500), kind, price=p, oid=f"{i}-{j}", submitted=day
            )
            outcome = engine.validate_and_queue(order, last_close=last_close)
            if isinstance(outcome, Order):
                orders += 1
        o = price * rng.uniform(0.96, 1.04)
        c = o * rng.uniform(0.96, 1.04)
        h = max(o, c) * rng.uniform(1.0, 1.02)
        l = min(o, c) * rng.uniform(0.98, 1.0)
        day = day + timedelta(days=1)
        bar = bar_on(day, f"{o:.2f}", f"{h:.2f}", f"{l:.2f}", f"{c:.2f}")
        result = engine.step_session(bar)
        if fills is not None:
            fills.extend(result.fills)
        if results is not None:
            results.append(result)
        state = engine.portfolio()
        assert state.cash >= 0
        assert state.shares_long >= 0 and state.shares_short >= 0
        for fill in result.fills:
            assert bar.low <= fill.fill_price <= bar.high
        price = float(c)
    return engine, orders


class TestRandomizedInvariants:
    def test_thousand_sequences_smoke(self):
        # The full 1e5-case sweep lives in the acceptance suite.
        for seed in range(200):
            random_session_sequence(seed, orders_per_session=5, sessions=4)


@dataclass(frozen=True)
class CheckedState:
    """The portfolio state as the engine once built it at every session
    close: stamped with the session's date, its invariants asserted."""

    cash: Decimal
    shares_long: int
    shares_short: int
    as_of: date | None

    def __post_init__(self) -> None:
        assert self.cash >= 0, "cash must stay non-negative"
        assert self.shares_long >= 0 and self.shares_short >= 0


class OracleEngine(ExecutionEngine):
    """The engine with its earlier session close: a state built from cash and
    positions every session and marked with a close checked again, where the
    engine now keeps one state and rebuilds it when a fill is booked."""

    def _summarize(self, bar, orders, fills, cancelled) -> SessionResult:
        book = self._state
        state = CheckedState(book.cash, book.shares_long, book.shares_short, self._as_of)
        if bar.close <= 0:
            raise EngineError("close must be positive")
        value = state.cash + (state.shares_long - state.shares_short) * bar.close
        self.audit.append(summary_line(bar.session_date, state.cash, state.shares_long, state.shares_short, bar.close, value))
        return SessionResult(bar, orders, fills, cancelled, state)


def close_with_cover(engine: ExecutionEngine) -> SessionResult | None:
    """Force-cover on the day after the last session, at its close; None if
    the cover trips the cash assertion (a short squeezed past its proceeds)."""
    events = map(json.loads, reversed(engine.audit.text().splitlines()))
    summary = next(e for e in events if e["type"] == "SESSION_SUMMARY")  # the last one
    close = summary["close"]
    day = date.fromisoformat(summary["date"]) + timedelta(days=1)
    try:
        return engine.force_cover(bar_on(day, close, close, close, close))
    except AssertionError:
        return None


def session_view(result: SessionResult) -> tuple:
    state = result.portfolio
    return result.fills, result.cancelled, (state.cash, state.shares_long, state.shares_short), result.portfolio_value


# Busy runs, and runs with long stretches of sessions that place no order:
# (seeds, sessions, quiet sessions after each that places orders).
RANDOM_RUNS = [(range(300), 10, 0), (range(20), 80, 9), (range(20), 80, 39)]
RANDOM_RUN_IDS = ["busy", "quiet9", "quiet39"]


class TestSessionCloseOracle:
    """The engine's session close against the one it replaced, session by
    session: busy runs and runs with long stretches of sessions that place no
    order, each ended by a forced cover."""

    @pytest.mark.parametrize("seeds, sessions, quiet", RANDOM_RUNS, ids=RANDOM_RUN_IDS)
    def test_same_sessions_and_audit_as_the_oracle(self, seeds, sessions, quiet):
        for seed in seeds:
            got: list = []
            want: list = []
            engine, _ = random_session_sequence(seed, sessions=sessions, quiet=quiet, results=got)
            oracle, _ = random_session_sequence(seed, sessions=sessions, quiet=quiet, results=want, engine_type=OracleEngine)
            assert [session_view(r) for r in got] == [session_view(r) for r in want], seed
            got_cover, want_cover = close_with_cover(engine), close_with_cover(oracle)
            assert (got_cover is None) == (want_cover is None), seed
            if got_cover is not None:
                assert session_view(got_cover) == session_view(want_cover), seed
            assert engine.audit.text() == oracle.audit.text(), seed

    def test_quiet_sessions_carry_positions(self):
        """The quiet runs do hold positions through sessions without orders."""
        results: list = []
        random_session_sequence(1, sessions=80, quiet=39, results=results)
        idle = [r for i, r in enumerate(results) if i % 40 > 1]
        assert all(r.fills == () and r.cancelled == () for r in idle)
        assert any(r.portfolio.shares_long or r.portfolio.shares_short for r in idle)


class ModelMismatch(Exception):
    """The engine and the reference model disagree. Not an AssertionError,
    which `close_with_cover` takes for the engine's cash check."""


def expect(got, want, what) -> None:
    if got != want:
        raise ModelMismatch(f"{what}: engine {got!r}, model {want!r}")


class ModelChecked(ExecutionEngine):
    """The engine, compared after each call with `engine_model.Model`: every
    validation outcome, and every session close's fills, cancels with their
    audited reasons, book and value."""

    def __init__(self, initial_cash, audit=None):
        super().__init__(initial_cash, audit)
        self.model = engine_model.Model(initial_cash)
        self.read = 0  # audit lines already compared

    def new_events(self) -> list[dict]:
        lines = self.audit.text().splitlines()
        events, self.read = [json.loads(line) for line in lines[self.read :]], len(lines)
        return events

    def validate_and_queue(self, order, last_close):
        outcome = super().validate_and_queue(order, last_close)
        if isinstance(outcome, Rejection):
            got = ("REJECTED", outcome.reason.value)
        else:
            clamps = [(e["from"], e["to"]) for e in self.new_events() if e["type"] == "ORDER_CLAMPED"]
            got = ("QUEUED", outcome.quantity, clamps[0] if clamps else None)
        expect(got, self.model.submit(order, last_close), order.id)
        return outcome

    def step_session(self, bar):
        result = super().step_session(bar)
        expect(self.close_view(result), self.model.step(bar), bar.session_date)
        return result

    def force_cover(self, bar):
        want = self.model.force_cover(bar)
        outcome = "cash check fails" if want.book[0] < 0 else "booked"
        try:
            result = super().force_cover(bar)
        except AssertionError:
            expect("cash check fails", outcome, "force_cover")
            raise
        expect("booked", outcome, "force_cover")
        expect(self.close_view(result), want, "force_cover")
        return result

    def close_view(self, result: SessionResult) -> engine_model.Close:
        cancels = tuple((e["order_id"], e["reason"]) for e in self.new_events() if e["type"] == "CANCEL")
        expect(result.cancelled, tuple(order_id for order_id, _ in cancels), "cancelled ids")
        fills = tuple(
            (f.order_id, f.action.value, f.executed_at, units(f.fill_price), f.quantity, f.clamped_from, f.forced)
            for f in result.fills
        )
        state = result.portfolio
        book = (units(state.cash), state.shares_long, state.shares_short)
        return engine_model.Close(fills, cancels, book, units(result.portfolio_value))


def queue_late_order(engine: ExecutionEngine) -> None:
    """An order placed at the last session's close, which the window end cancels."""
    summary = json.loads(engine.audit.text().splitlines()[-1])
    day = date.fromisoformat(summary["date"])
    engine.validate_and_queue(mk_order(Action.BUY, 1, OrderType.LIMIT, "0.01", oid="late", submitted=day), D(summary["close"]))


class TestReferenceModel:
    """The engine against the reference model written from README, over the
    busy and quiet random runs, each ended by a forced cover."""

    @pytest.mark.parametrize("seeds, sessions, quiet", RANDOM_RUNS, ids=RANDOM_RUN_IDS)
    def test_every_outcome_and_close_is_the_models(self, seeds, sessions, quiet):
        for seed in seeds:
            engine, _ = random_session_sequence(seed, sessions=sessions, quiet=quiet, engine_type=ModelChecked)
            queue_late_order(engine)
            close_with_cover(engine)

    def test_the_runs_take_every_rule(self):
        """Every reject and cancel reason, clamps at validation and at
        execution, forced covers, and covers that fail the cash check."""
        outcomes: set = set()
        for seed in range(300):
            engine, _ = random_session_sequence(seed, sessions=10, engine_type=ModelChecked)
            queue_late_order(engine)
            outcomes.add("cover failed" if close_with_cover(engine) is None else "cover booked")
            for line in engine.audit.text().splitlines():
                event = json.loads(line)
                outcomes.add((event["type"], event.get("reason"), event.get("action")))
                if event["type"] == "FILL" and event["clamped_from"] is not None:
                    outcomes.add("clamped at execution")
        assert {
            "cover failed",
            "cover booked",
            "clamped at execution",
            ("ORDER_CLAMPED", None, None),
            ("FORCED_COVER", None, None),
            *(("ORDER_REJECTED", reason, None) for reason in ("EMPTY_AFTER_CLAMP", "INSUFFICIENT_CASH", "SHORT_LIMIT")),
            *(("CANCEL", reason, None) for reason in ("UNFILLED", "EMPTY_AFTER_CLAMP", "GAP_REJECT", "WINDOW_END")),
            *(("FILL", None, action.value) for action in Action),
        } <= outcomes


class TestTradesFromAudit:
    def test_reads_back_the_fills_step_session_returned(self):
        for seed in range(100):
            fills: list = []
            engine, _ = random_session_sequence(seed, fills=fills)
            assert trades_from_audit(engine.audit) == fills, seed

    def test_reads_back_the_forced_cover(self):
        engine = ExecutionEngine(initial_cash=D(1000))
        engine.validate_and_queue(mk_order(Action.SHORT, 10), last_close=D(100))
        fills = list(engine.step_session(bar_on(NEXT_DAY, 100, 100, 100, 100)).fills)
        fills += engine.force_cover(bar_on(NEXT_DAY + timedelta(days=1), 90, 90, 90, 90)).fills
        assert trades_from_audit(engine.audit) == fills
        assert [(f.action, f.forced) for f in fills] == [(Action.SHORT, False), (Action.SHORT_COVER, True)]

    def test_the_book_is_what_the_audit_records(self, tmp_path, monkeypatch):
        """`trades` is every fill the audit records, forced covers included,
        and `results` maps one to one onto its SESSION_SUMMARY lines but a
        forced cover's: over the random runs and over a golden agent run."""
        covers = 0
        for seed in range(100):
            engine, _ = random_session_sequence(seed)
            covered = close_with_cover(engine) is not None
            assert_book_is_the_audit(engine, covered)
            covers += covered and engine.trades[-1].forced
        assert covers

        engines: list = []

        class Kept(ExecutionEngine):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                engines.append(self)

        monkeypatch.setattr(harness, "ExecutionEngine", Kept)
        harness.run_experiment(build_workspace(tmp_path, mode="adaptive_opro_with_reflection", history_bars=GOLDEN_BARS))
        [engine] = engines
        assert len(engine.results) == WINDOW_SESSIONS and engine.trades
        assert_book_is_the_audit(engine, covered=True)


def assert_book_is_the_audit(engine: ExecutionEngine, covered: bool) -> None:
    """The engine's trades and session results against its audit; a completed
    forced cover wrote one summary more, last."""
    assert engine.trades == trades_from_audit(engine.audit)
    summaries = [e for e in map(json.loads, engine.audit.text().splitlines()) if e["type"] == "SESSION_SUMMARY"]
    assert len(summaries) == len(engine.results) + covered
    for result, summary in zip(engine.results, summaries):
        state = result.portfolio
        fields = (result.bar.session_date, state.cash, state.shares_long, state.shares_short, result.bar.close, result.portfolio_value)
        assert summary == json.loads(summary_line(*fields))


class TestAuditBytes:
    # Hex digest of the audit bytes below, recorded before the engine was
    # rewritten to state each trading rule once.
    DIGEST = "49c3f8da61227a79c0fb9aa85fe9c2de8ec682051113b18fcc72a3489b2cfcf5"

    def test_audit_bytes_are_pinned(self):
        """Every event type and reason: submissions, clamps, the three reject
        reasons, UNFILLED / EMPTY_AFTER_CLAMP / GAP_REJECT / WINDOW_END
        cancels, fills at every order type and forced covers. A seed whose
        forced cover trips the cash assertion hashes a fixed marker, so a fix
        of that defect changes the digest on purpose."""
        digest = hashlib.sha256()
        for seed in range(300):
            engine, _ = random_session_sequence(seed, orders_per_session=5, sessions=10)
            digest.update(f"seed {seed}\n".encode())
            if close_with_cover(engine) is None:
                digest.update(b"force_cover AssertionError\n")
            else:
                digest.update(engine.audit.text().encode())

        engine = ExecutionEngine(initial_cash=D(1000))
        engine.validate_and_queue(mk_order(Action.BUY, 2, oid="b"), last_close=D(100))
        engine.validate_and_queue(mk_order(Action.SHORT, 3, OrderType.STOP, price="95", oid="s"), last_close=D(100))
        result = engine.force_cover(bar_on(NEXT_DAY, 100, 100, 100, 100))
        assert result.cancelled == ("b", "s")
        digest.update(b"window end\n" + engine.audit.text().encode())

        assert digest.hexdigest() == self.DIGEST


# Decimals as (sign, digits, exponent): exponents either way, negative zero and
# trailing zeros, besides whatever `st.decimals` draws.
DECIMALS = st.one_of(
    st.sampled_from([D("1E+2"), D("1E-7"), D("-0"), D("-0.00"), D("100.00"), D("0E-10")]),
    st.builds(
        lambda sign, digits, exponent: Decimal((sign, digits, exponent)),
        st.integers(0, 1),
        st.lists(st.integers(0, 9), min_size=1, max_size=12).map(tuple),
        st.integers(-30, 30),
    ),
    st.decimals(),
)
ORDER_IDS = st.one_of(
    st.sampled_from(["ü-1", "日本-2", "\U0001f680", "\ud800", "\udfff-x", 'a"b', "a\\b", "\x00\x1f\n\t\x7f"]),
    st.text(st.characters(exclude_categories=())),
)
SHARES = st.one_of(st.integers(0, 10), st.integers(2**63, 2**80))


class TestAuditLines:
    ENCODE = json.JSONEncoder(separators=(",", ":"), default=str).encode

    @pytest.mark.parametrize("action", Action)
    @settings(max_examples=60)
    @given(
        order_id=ORDER_IDS,
        day=st.dates(),
        price=DECIMALS,
        quantity=st.integers(1, 2**80),
        clamped_from=st.one_of(st.none(), st.integers(1, 10), st.integers(2**63, 2**80)),
        cash=DECIMALS,
        shares=st.tuples(SHARES, SHARES),
        close=DECIMALS,
        value=DECIMALS,
    )
    @example(
        order_id="o", day=NEXT_DAY, price=D("1E+2"), quantity=1, clamped_from=None,
        cash=D("-0"), shares=(0, 0), close=D("1E-7"), value=D("-0.00"),
    )
    @example(
        order_id='q"\\\x01\ud83d', day=NEXT_DAY, price=D("-0.00"), quantity=3,
        clamped_from=2**63 + 1, cash=D("0"), shares=(2**64, 5), close=D("1"), value=D("1"),
    )
    def test_formatted_lines_are_the_encoder_bytes(
        self, order_id, action, day, price, quantity, clamped_from, cash, shares, close, value
    ):
        fill = Fill(order_id, action, day, price, quantity, clamped_from)
        assert fill_line(fill) == self.ENCODE(
            {
                "v": AUDIT_SCHEMA_VERSION,
                "type": "FILL",
                "order_id": order_id,
                "action": action,
                "date": day,
                "price": price,
                "quantity": quantity,
                "clamped_from": clamped_from,
            }
        )
        long, short = shares
        assert summary_line(day, cash, long, short, close, value) == self.ENCODE(
            {
                "v": AUDIT_SCHEMA_VERSION,
                "type": "SESSION_SUMMARY",
                "date": day,
                "cash": cash,
                "shares_long": long,
                "shares_short": short,
                "close": close,
                "portfolio_value": value,
            }
        )

    def test_every_line_is_on_disk_while_the_log_is_open(self, tmp_path):
        """A dict event and a pre-formatted line are each flushed as written."""
        path = tmp_path / "engine.jsonl"
        log = AuditLog(path)
        try:
            log.append({"v": AUDIT_SCHEMA_VERSION, "type": "CANCEL", "order_id": "o1", "reason": "UNFILLED"})
            log.append(summary_line(NEXT_DAY, D("100.5"), 1, 0, D("10"), D("110.5")))
            assert path.read_text(encoding="utf-8") == (
                '{"v":1,"type":"CANCEL","order_id":"o1","reason":"UNFILLED"}\n'
                '{"v":1,"type":"SESSION_SUMMARY","date":"2025-04-29","cash":"100.5","shares_long":1,'
                '"shares_short":0,"close":"10","portfolio_value":"110.5"}\n'
            )
        finally:
            log.close()
