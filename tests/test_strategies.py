"""Baseline strategy signals and end-to-end runs through the engine."""

from __future__ import annotations

import hashlib
from datetime import date, timedelta
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tradeloop.bars import BarSeries, Resolution
from tradeloop.engine import trades_from_audit
from tradeloop.errors import ConfigError
from tradeloop.strategies import (
    Signal,
    Stance,
    StrategyConfig,
    StrategyError,
    StrategyKind,
    generate_signals,
    run_strategy,
)

from conftest import make_bar, series_from_closes, synthetic_daily

D = Decimal

# One 30-bar ramp fixture shared by SMA/SLMA/MACD: decline, rally, decline.
RAMP_CLOSES = [
    100, 99, 98, 97, 96, 95, 94, 93, 92, 91,
    90, 92, 94, 96, 98, 100, 102, 104, 106, 108,
    110, 108, 106, 104, 102, 100, 98, 96, 94, 92,
]


def sma_oracle(closes, n, i):
    if i < n - 1:
        return None
    return sum(closes[i - n + 1 : i + 1]) / n


def ema_oracle(closes, n, i):
    if i < n - 1:
        return None
    alpha = 2.0 / (n + 1)
    v = sum(closes[:n]) / n
    for t in range(n, i + 1):
        v = alpha * closes[t] + (1 - alpha) * v
    return v


def cross_dates_oracle(dates, fast, slow):
    """From-definition long-only crossover state machine."""
    out = []
    holding = False
    for i in range(1, len(dates)):
        if None in (fast[i], slow[i], fast[i - 1], slow[i - 1]):
            continue
        up = fast[i - 1] <= slow[i - 1] and fast[i] > slow[i]
        down = fast[i - 1] >= slow[i - 1] and fast[i] < slow[i]
        if not holding and up:
            out.append((dates[i], Stance.ENTER_LONG))
            holding = True
        elif holding and down:
            out.append((dates[i], Stance.EXIT_LONG))
            holding = False
    return out


class TestBuyHold:
    def test_single_enter_on_first_bar(self):
        series = synthetic_daily(30)
        signals = generate_signals(StrategyConfig(kind=StrategyKind.BUY_HOLD), series)
        assert signals == [Signal(series.bars[0].session_date, Stance.ENTER_LONG)]


class TestSMASignals:
    def test_spec_minimal_case(self):
        # closes [1,1,1,5], n=3: close 5 crosses above the 3-bar mean on day 4.
        series = series_from_closes([1.0, 1.0, 1.0, 5.0])
        signals = generate_signals(StrategyConfig(kind=StrategyKind.SMA, sma_n=3), series)
        assert signals == [Signal(series.bars[3].session_date, Stance.ENTER_LONG)]

    def test_ramp_fixture_hand_derived(self):
        # SMA(5) on RAMP_CLOSES. By hand: at i=11 close 92 > SMA5 91.6 with
        # prior close 90 <= prior SMA5 92 -> enter; at i=22 close 106 < SMA5
        # 107.6 with prior close 108 >= prior SMA5 107.2 -> exit.
        series = series_from_closes([float(c) for c in RAMP_CLOSES])
        dates = series.dates()
        signals = generate_signals(StrategyConfig(kind=StrategyKind.SMA, sma_n=5), series)
        assert signals == [
            Signal(dates[11], Stance.ENTER_LONG),
            Signal(dates[22], Stance.EXIT_LONG),
        ]
        closes = series.closes
        fast = list(closes)
        slow = [sma_oracle(closes, 5, i) for i in range(len(closes))]
        assert [(s.date, s.stance) for s in signals] == cross_dates_oracle(dates, fast, slow)

    def test_constant_series_no_signals(self):
        series = series_from_closes([50.0] * 30)
        assert generate_signals(StrategyConfig(kind=StrategyKind.SMA, sma_n=5), series) == []

    def test_insufficient_history_rejected(self):
        with pytest.raises(StrategyError):
            generate_signals(StrategyConfig(kind=StrategyKind.SMA, sma_n=10), series_from_closes([1.0] * 5))


class TestSLMASignals:
    def test_ramp_fixture_hand_derived(self):
        # SLMA(3,7): short mean crosses above long mean at i=13 (94 > 92.57,
        # prior 92 <= 93.71); crosses back below at i=23 (106 < 106.57,
        # prior 108 >= 106.28).
        series = series_from_closes([float(c) for c in RAMP_CLOSES])
        dates = series.dates()
        config = StrategyConfig(kind=StrategyKind.SLMA, slma_short=3, slma_long=7)
        signals = generate_signals(config, series)
        assert signals == [
            Signal(dates[13], Stance.ENTER_LONG),
            Signal(dates[23], Stance.EXIT_LONG),
        ]
        closes = series.closes
        fast = [sma_oracle(closes, 3, i) for i in range(len(closes))]
        slow = [sma_oracle(closes, 7, i) for i in range(len(closes))]
        assert [(s.date, s.stance) for s in signals] == cross_dates_oracle(dates, fast, slow)

    def test_constant_series_no_signals(self):
        series = series_from_closes([50.0] * 40)
        config = StrategyConfig(kind=StrategyKind.SLMA, slma_short=10, slma_long=30)
        assert generate_signals(config, series) == []

    def test_equal_windows_never_cross(self):
        # fast == slow for every bar; strict-inequality crossing never fires.
        series = synthetic_daily(60, seed=2)
        config = StrategyConfig(kind=StrategyKind.SLMA, slma_short=10, slma_long=10)
        assert generate_signals(config, series) == []


class TestMACDSignals:
    def test_ramp_fixture_matches_oracle(self):
        series = series_from_closes([float(c) for c in RAMP_CLOSES])
        dates = series.dates()
        config = StrategyConfig(
            kind=StrategyKind.MACD, macd_fast=3, macd_slow=6, macd_signal=3
        )
        signals = generate_signals(config, series)
        closes = series.closes
        macd_line = []
        for i in range(len(closes)):
            fast = ema_oracle(closes, 3, i)
            slow = ema_oracle(closes, 6, i)
            macd_line.append(None if slow is None else fast - slow)
        signal_line: list = []
        hist: list[float] = []
        for i, m in enumerate(macd_line):
            if m is None:
                signal_line.append(None)
                continue
            hist.append(m)
            if len(hist) < 3:
                signal_line.append(None)
            elif len(hist) == 3:
                signal_line.append(sum(hist) / 3)
            else:
                signal_line.append(0.5 * m + 0.5 * signal_line[-1])
        want = cross_dates_oracle(dates, macd_line, signal_line)
        assert [(s.date, s.stance) for s in signals] == want
        assert len(signals) >= 2
        assert signals[0].stance == Stance.ENTER_LONG
        # The rally begins at index 10; the MACD cross confirms during it.
        assert dates[10] <= signals[0].date <= dates[16]

    def test_constant_series_no_signals(self):
        series = series_from_closes([50.0] * 60)
        assert generate_signals(StrategyConfig(kind=StrategyKind.MACD), series) == []


class TestBollingerSignals:
    def test_flat_crash_recover_hand_derived(self):
        # Bollinger(10, 2). Ten flat bars at 100, then a drop to 95 at i=10:
        # that window (9x100, 95) has mean 99.5, sigma 1.5 -> lower 96.5, and
        # the prior all-flat window has lower 100, so close 95 crosses below
        # -> enter at i=10. After the base settles at 95, the jump to 102 at
        # i=19 clears upper 99.9 (window 9x95 + 102) with the prior close 95
        # under the prior upper 98.5 -> exit at i=19.
        closes = [100.0] * 10 + [95.0] + [95.0] * 8 + [102.0] + [102.0] * 10
        series = series_from_closes(closes)
        dates = series.dates()
        config = StrategyConfig(kind=StrategyKind.BOLLINGER, bollinger_n=10, bollinger_k=2.0)
        signals = generate_signals(config, series)
        assert signals == [
            Signal(dates[10], Stance.ENTER_LONG),
            Signal(dates[19], Stance.EXIT_LONG),
        ]

    def test_constant_series_no_signals(self):
        series = series_from_closes([50.0] * 30)
        assert generate_signals(StrategyConfig(kind=StrategyKind.BOLLINGER), series) == []


class TestSignalInvariants:
    def test_exit_only_after_enter_and_alternating(self):
        for seed in range(10):
            series = synthetic_daily(120, seed=seed)
            for config in (
                StrategyConfig(kind=StrategyKind.SMA, sma_n=10),
                StrategyConfig(kind=StrategyKind.SLMA, slma_short=10, slma_long=30),
                StrategyConfig(kind=StrategyKind.MACD),
                StrategyConfig(kind=StrategyKind.BOLLINGER),
            ):
                signals = generate_signals(config, series)
                for i, s in enumerate(signals):
                    want = Stance.ENTER_LONG if i % 2 == 0 else Stance.EXIT_LONG
                    assert s.stance == want
                seen: set = set()
                for s in signals:
                    assert s.date not in seen
                    seen.add(s.date)

    def test_signals_causal(self):
        # Truncating the future never changes past signals.
        series = synthetic_daily(120, seed=42)
        config = StrategyConfig(kind=StrategyKind.SMA, sma_n=10)
        full = generate_signals(config, series)
        cutoff = series.bars[79].session_date
        prefix = BarSeries(series.symbol, series.resolution, series.bars[:80])
        head = generate_signals(config, prefix)
        assert [s for s in full if s.date <= cutoff] == head


class TestRunStrategy:
    def test_buy_hold_roi_identity_exact(self):
        # First open 100 divides 100000 exactly: q=1000 shares, no remainder.
        bars = []
        closes = [100, 104, 98, 110, 120, 115, 111]
        d = date(2024, 1, 2)
        from conftest import next_weekday
        from datetime import timedelta

        prev_close = 100
        for c in closes:
            d = next_weekday(d)
            o = prev_close
            hi, lo = max(o, c) + 1, min(o, c) - 1
            bars.append(make_bar(d, o, hi, lo, c, v=500))
            prev_close = c
            d += timedelta(days=1)
        series = BarSeries("SYNTH", Resolution.DAILY, tuple(bars))
        assert series.bars[0].open == D(100)

        result = run_strategy(StrategyConfig(kind=StrategyKind.BUY_HOLD), series, initial_cash=D(100_000))
        # Exact accounting identity: V_T = shares * C_T with zero cash left.
        assert result.engine.results[-1].portfolio_value == D(1000) * D(closes[-1])
        c_t, o_1 = float(closes[-1]), 100.0
        assert result.report.roi_pct == pytest.approx((c_t / o_1 - 1) * 100.0, abs=1e-9)
        assert result.report.num_trades == 1
        assert result.report.win_rate_pct == 0.0  # one unclosed trade

    def test_buy_hold_fills_at_first_open(self):
        series = synthetic_daily(10, seed=1)
        result = run_strategy(StrategyConfig(kind=StrategyKind.BUY_HOLD), series)
        assert result.engine.trades[0].fill_price == series.bars[0].open
        assert result.engine.trades[0].executed_at == series.bars[0].session_date

    def test_crossover_fills_next_open(self):
        series = series_from_closes([float(c) for c in RAMP_CLOSES])
        result = run_strategy(StrategyConfig(kind=StrategyKind.SMA, sma_n=5), series)
        # enter signal at index 11 -> fill at index 12's open.
        assert result.engine.trades[0].executed_at == series.bars[12].session_date
        assert result.engine.trades[0].fill_price == series.bars[12].open
        # exit at index 22 -> fill at index 23's open.
        assert result.engine.trades[1].executed_at == series.bars[23].session_date

    def test_constant_series_zero_everything(self):
        series = series_from_closes([50.0] * 40)
        for kind in (StrategyKind.SMA, StrategyKind.SLMA, StrategyKind.MACD, StrategyKind.BOLLINGER):
            result = run_strategy(StrategyConfig(kind=kind), series)
            assert result.report.num_trades == 0
            assert result.report.roi_pct == pytest.approx(0.0)
            assert result.report.max_drawdown_pct == pytest.approx(0.0)
            assert result.report.win_rate_pct == 0.0

    def test_position_always_flat_or_fully_invested(self):
        series = synthetic_daily(150, seed=8)
        result = run_strategy(StrategyConfig(kind=StrategyKind.SMA, sma_n=10), series)
        import json

        long = 0
        cash = D(100_000)
        for line in result.engine.audit.text().splitlines():
            obj = json.loads(line)
            if obj["type"] == "FILL":
                qty, price = obj["quantity"], D(obj["price"])
                if obj["action"] == "BUY":
                    long += qty
                    cash -= price * qty
                    # full-cash sizing: leftover under one share's price
                    assert cash < price
                else:
                    long -= qty
                    cash += price * qty
                    assert long == 0

    def test_deterministic_audit_bytes(self):
        series = synthetic_daily(100, seed=13)
        config = StrategyConfig(kind=StrategyKind.SMA, sma_n=10)
        a = run_strategy(config, series).engine.audit.text()
        b = run_strategy(config, series).engine.audit.text()
        assert a == b


# SHA-256 of each baseline's engine audit text and report JSON over
# synthetic_daily(300, seed=17). Any change to fills, audit formats or metrics
# changes them.
PINNED_BASELINES = {
    StrategyKind.BUY_HOLD: (
        "64125bb22ab019173915cbec90fc1ab032b64a1bd0b134d35727e6e0a9ee08a1",
        "bcdf972da1572dee2691b03958dc21bb2c85acf68a4a8b97f8b93713428ceac5",
    ),
    StrategyKind.SMA: (
        "1fb47c215f3b82e213ed57bca13ece36b4f8c1bd0f7eba9a464dcdea10d31d07",
        "3c40fea59ac63100019b078456184bbd89feead5da0e1918169f519d83977aee",
    ),
    StrategyKind.SLMA: (
        "e4a47bb87b0f5a5b2a4d135c3048d89a8e99ca47e735ef99af4af71fad32bb8b",
        "dd69ec8a248c956d8dd80e65803f0076a675cc4612ceadfe02fb554ec4268b9e",
    ),
    StrategyKind.MACD: (
        "3e75aa886946bf2db7b5aa3c2d8a7e82147335218dbbeef079d78a9413a303a9",
        "6bdc015d5baff759f85287b16116c32daff850336e6d8ee3777d6244fac88c4e",
    ),
    StrategyKind.BOLLINGER: (
        "c578577485ab8fae48876691235e570e064e96e46d68792d95f4a161404e1c2a",
        "dd784e523bab9c29e83316de61fa78897734e5a294b4a101e31df7513e5b1c41",
    ),
}


@pytest.mark.parametrize("kind", list(StrategyKind), ids=lambda k: k.value)
def test_baseline_matches_pinned_digests(kind):
    result = run_strategy(StrategyConfig(kind=kind), synthetic_daily(300, seed=17))
    audit = hashlib.sha256(result.engine.audit.text().encode("utf-8")).hexdigest()
    report = hashlib.sha256(result.report.to_json().encode("utf-8")).hexdigest()
    assert (audit, report) == PINNED_BASELINES[kind]


@pytest.mark.parametrize("kind", list(StrategyKind), ids=lambda k: k.value)
def test_fills_are_the_fills_the_audit_records(kind):
    """The fills the metrics count are the fills the audit records."""
    result = run_strategy(StrategyConfig(kind=kind), synthetic_daily(300, seed=17))
    assert result.engine.trades == trades_from_audit(result.engine.audit)
    assert result.engine.trades


# Each window of a StrategyConfig and its least value. The indicators take a
# window as given: `ema_series`, say, reads MACD's windows unchecked.
LEAST_WINDOWS = {
    "sma_n": 1, "slma_short": 1, "slma_long": 1, "macd_fast": 1, "macd_slow": 1, "macd_signal": 1, "bollinger_n": 2,
}


@pytest.mark.parametrize("name", LEAST_WINDOWS)
def test_a_window_below_its_least_is_refused(name):
    least = LEAST_WINDOWS[name]
    with pytest.raises(ConfigError, match=f"{name} must be an integer >= {least}, got {least - 1}"):
        StrategyConfig(kind=StrategyKind.MACD, **{name: least - 1})


# A daily random walk in cents: each bar is dated 1 to 10 days after the one
# before, opens up to 50% away from its close and closes up to 10% from its open.
GAPPED_WALKS = st.lists(st.tuples(st.integers(1, 10), st.integers(-50, 50), st.integers(-10, 10)), min_size=40, max_size=120)


def gapped_walk(steps) -> BarSeries:
    day, close, bars = date(2024, 1, 1), 10_000, []
    for days, gap, move in steps:
        day += timedelta(days=days)
        open_ = max(1, close * (100 + gap) // 100)
        close = max(1, open_ * (100 + move) // 100)
        bars.append(make_bar(day, open_ / D(100), max(open_, close) / D(100), min(open_, close) / D(100), close / D(100)))
    return BarSeries("SYNTH", Resolution.DAILY, tuple(bars))


@settings(max_examples=50)
@given(GAPPED_WALKS)
def test_a_baseline_places_no_order_the_engine_refuses(steps):
    """A baseline buys what its cash pays for at the open it fills at, and
    sells what it holds, so over any walk, gaps in dates and prices included,
    the engine neither rejects nor cancels one of its orders."""
    series = gapped_walk(steps)
    for kind in StrategyKind:
        audit = run_strategy(StrategyConfig(kind=kind), series).engine.audit.text()
        assert '"ORDER_REJECTED"' not in audit and '"CANCEL"' not in audit, kind
