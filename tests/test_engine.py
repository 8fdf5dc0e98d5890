"""Execution engine: validation, fill model, accounting invariants."""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from datetime import date, timedelta
from decimal import Decimal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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

from conftest import make_bar

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
        engine._long = 5  # position injected for the clamp check
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
        engine._long = 10
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
        engine._long = 10
        engine.validate_and_queue(
            mk_order(Action.SELL, 10, OrderType.LIMIT, price="105"), last_close=D(100)
        )
        result = engine.step_session(bar_on(NEXT_DAY, 100, 106, 99, 104))
        assert result.fills[0].fill_price == D(105)

    def test_stop_cover_is_buy_side(self):
        # SHORT_COVER with a STOP triggers on the way UP, like a stop buy.
        engine = ExecutionEngine(initial_cash=D(10_000))
        engine._short = 10
        engine.validate_and_queue(
            mk_order(Action.SHORT_COVER, 10, OrderType.STOP, price="105"), last_close=D(100)
        )
        result = engine.step_session(bar_on(NEXT_DAY, 100, 106, 99, 104))
        assert result.fills[0].fill_price == D(105)
        assert engine.portfolio().shares_short == 0

    def test_limit_cover_is_buy_side(self):
        engine = ExecutionEngine(initial_cash=D(10_000))
        engine._short = 10
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
        engine._long = 10
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

    def _summarize(self, bar, fills, cancelled) -> SessionResult:
        state = CheckedState(self._cash, self._long, self._short, self._as_of)
        if bar.close <= 0:
            raise EngineError("close must be positive")
        value = state.cash + (state.shares_long - state.shares_short) * bar.close
        self.audit.append(summary_line(bar.session_date, self._cash, self._long, self._short, bar.close, value))
        return SessionResult(fills, cancelled, state, value)


def close_with_cover(engine: ExecutionEngine) -> SessionResult | None:
    """Force-cover on the day after the last session, at its close; None if
    the cover trips the cash assertion (a short squeezed past its proceeds)."""
    summary = json.loads(engine.audit.text().splitlines()[-1])  # the last SESSION_SUMMARY
    close = summary["close"]
    day = date.fromisoformat(summary["date"]) + timedelta(days=1)
    try:
        return engine.force_cover(bar_on(day, close, close, close, close))
    except AssertionError:
        return None


def session_view(result: SessionResult) -> tuple:
    state = result.portfolio
    return result.fills, result.cancelled, (state.cash, state.shares_long, state.shares_short), result.portfolio_value


class TestSessionCloseOracle:
    """The engine's session close against the one it replaced, session by
    session: busy runs and runs with long stretches of sessions that place no
    order, each ended by a forced cover."""

    @pytest.mark.parametrize(
        "seeds, sessions, quiet", [(range(300), 10, 0), (range(20), 80, 9), (range(20), 80, 39)], ids=["busy", "quiet9", "quiet39"]
    )
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
