"""Non-LLM baseline strategies: buy & hold plus four crossover systems.

All baselines are long-only and either flat or fully invested. Crossovers are
evaluated on closes: a cross requires strict inequality on the current bar
and the opposite (or equal) relation on the prior bar, so equality runs never
double-trigger. Orders route through the execution engine; entries invest all
available cash at the execution bar's open (integer shares, remainder stays
in cash).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date, timedelta
from decimal import Decimal
from enum import Enum

from .bars import BarSeries
from .engine import Action, AuditLog, ExecutionEngine, Order, OrderType
from .engine import trades_from_audit  # not called: perfbench/spans.py wraps this module's name
from .errors import ConfigError, DataError, quoted
from .indicators import bollinger_series, macd_series, sma_series
from .metrics import MetricReport, compute_report


class StrategyError(DataError):
    pass


class Stance(str, Enum):
    ENTER_LONG = "enter_long"
    EXIT_LONG = "exit_long"


class StrategyKind(str, Enum):
    BUY_HOLD = "buy_hold"
    SMA = "sma"
    SLMA = "slma"
    MACD = "macd"
    BOLLINGER = "bollinger"


@dataclass(frozen=True)
class Signal:
    date: date
    stance: Stance


# Each window of a StrategyConfig and its least value: Bollinger's sigma needs two closes.
_LEAST_WINDOWS = dict.fromkeys(("sma_n", "slma_short", "slma_long", "macd_fast", "macd_slow", "macd_signal"), 1) | {"bollinger_n": 2}


@dataclass(frozen=True)
class StrategyConfig:
    kind: StrategyKind
    sma_n: int = 10
    slma_short: int = 10
    slma_long: int = 30
    macd_fast: int = 12
    macd_slow: int = 26
    macd_signal: int = 9
    bollinger_n: int = 20
    bollinger_k: float = 2.0

    def __post_init__(self) -> None:
        # A strategy's parameters enter here, from the CLI or from code, and are checked once.
        for name, least in _LEAST_WINDOWS.items():
            value = getattr(self, name)
            if not isinstance(value, int) or value < least:
                raise ConfigError(f"{name} must be an integer >= {least}, got {quoted(value)}")
        if not (isinstance(self.bollinger_k, (int, float)) and math.isfinite(self.bollinger_k) and self.bollinger_k > 0):
            raise ConfigError(f"bollinger_k must be finite and > 0, got {self.bollinger_k!r}")

    def longest_window(self) -> int:
        if self.kind == StrategyKind.BUY_HOLD:
            return 1
        if self.kind == StrategyKind.SMA:
            return self.sma_n
        if self.kind == StrategyKind.SLMA:
            return max(self.slma_short, self.slma_long)
        if self.kind == StrategyKind.MACD:
            return self.macd_slow + self.macd_signal
        return self.bollinger_n


Line = list[float | None]


def _cross_signals(dates: list[date], enter: tuple[Line, Line], exit: tuple[Line, Line]) -> list[Signal]:
    """Enter when the first line of `enter` crosses above the second, exit
    when the first line of `exit` crosses above the second. A cross needs
    both lines on the bar and on the bar before."""
    signals: list[Signal] = []
    in_position = False
    for i in range(1, len(dates)):
        above, below = exit if in_position else enter
        a, b, a_prev, b_prev = above[i], below[i], above[i - 1], below[i - 1]
        if a is None or b is None or a_prev is None or b_prev is None:
            continue
        if a_prev <= b_prev and a > b:
            signals.append(Signal(dates[i], Stance.EXIT_LONG if in_position else Stance.ENTER_LONG))
            in_position = not in_position
    return signals


def _line(values: list[dict | None], key: str) -> Line:
    return [None if v is None else v[key] for v in values]


def generate_signals(config: StrategyConfig, series: BarSeries) -> list[Signal]:
    """Causal stance changes for `config` over `series` (dated at detection)."""
    if len(series) < config.longest_window():
        raise StrategyError(
            f"{config.kind.value} needs at least {config.longest_window()} bars, got {len(series)}"
        )
    dates = series.dates()
    closes = series.closes

    if config.kind == StrategyKind.BUY_HOLD:
        return [Signal(dates[0], Stance.ENTER_LONG)]

    if config.kind == StrategyKind.SMA:
        sma = sma_series(series, config.sma_n)
        return _cross_signals(dates, (closes, sma), (sma, closes))

    if config.kind == StrategyKind.SLMA:
        short = sma_series(series, config.slma_short)
        long_ = sma_series(series, config.slma_long)
        return _cross_signals(dates, (short, long_), (long_, short))

    if config.kind == StrategyKind.MACD:
        vals = macd_series(series, config.macd_fast, config.macd_slow, config.macd_signal)
        macd_line, signal_line = _line(vals, "macd"), _line(vals, "signal")
        return _cross_signals(dates, (macd_line, signal_line), (signal_line, macd_line))

    # Bollinger: enter on a close crossing below the lower band (oversold),
    # exit on a close crossing above the upper band (overbought).
    bands = bollinger_series(series, config.bollinger_n, config.bollinger_k)
    return _cross_signals(dates, (_line(bands, "lower"), closes), (closes, _line(bands, "upper")))


@dataclass
class StrategyRunResult:
    """A run's report and its engine, whose results, trades and audit hold the run."""

    report: MetricReport
    engine: ExecutionEngine


def run_strategy(
    config: StrategyConfig,
    series: BarSeries,
    initial_cash: Decimal = Decimal(100_000),
    audit: AuditLog | None = None,
) -> StrategyRunResult:
    """Drive `config`'s signals through the execution engine over `series`.

    Entries size as floor(cash / execution-bar open); buy & hold enters at the
    first bar's open (its decision needs no market data), every other signal
    detected at a close executes at the next session's open.
    """
    sig_by_date = {s.date: s.stance for s in generate_signals(config, series)}
    engine = ExecutionEngine(initial_cash=initial_cash, audit=audit)

    order_seq = 0

    def submit(action: Action, qty: int, submitted: date, ref_close: Decimal) -> None:
        nonlocal order_seq
        order_seq += 1
        order = Order(
            id=f"{config.kind.value}-{order_seq}",
            action=action,
            order_type=OrderType.MARKET,
            price=None,
            quantity=qty,
            explanation=f"{config.kind.value} {action.value.lower()} signal",
            submitted_at=submitted,
        )
        engine.validate_and_queue(order, last_close=ref_close)

    if config.kind == StrategyKind.BUY_HOLD:
        first = series.bars[0]
        qty = int(initial_cash / first.open)
        if qty >= 1:
            # Sized and validated against the first open it will fill at.
            submit(Action.BUY, qty, first.session_date - timedelta(days=1), first.open)

    for i, bar in enumerate(series.bars):
        state = engine.step_session(bar).portfolio

        stance = sig_by_date.get(bar.session_date)
        if stance is None or config.kind == StrategyKind.BUY_HOLD:
            continue
        nxt = series.bars[i + 1] if i + 1 < len(series.bars) else None
        if nxt is None:
            continue
        if stance == Stance.ENTER_LONG and state.shares_long == 0:
            qty = int(state.cash / nxt.open)
            if qty >= 1:
                submit(Action.BUY, qty, bar.session_date, nxt.open)
        elif stance == Stance.EXIT_LONG and state.shares_long > 0:
            submit(Action.SELL, state.shares_long, bar.session_date, bar.close)

    report = compute_report(*engine.columns(), initial=float(initial_cash))
    return StrategyRunResult(report, engine)
