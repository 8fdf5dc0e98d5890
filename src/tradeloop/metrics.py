"""Performance analytics over equity curves and trade logs.

Each metric has one function, which `compute_report` calls on the run's
float curve, its daily `returns` or its round trips. Undefined metrics stay
None (serialized as null, rendered "n/a"); they are never coerced to 0
except win_rate, which reports 0 on an empty trip list. Sample (n-1)
standard deviation throughout.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

from .engine import Action, Fill

TRADING_DAYS_PER_YEAR = 252


class MetricsError(ValueError):
    pass


@dataclass(frozen=True)
class RoundTrip:
    direction: str  # "long" | "short"
    quantity: int
    entry_cost: object
    exit_proceeds: object

    @property
    def realized_pnl(self):
        if self.direction == "long":
            return self.exit_proceeds - self.entry_cost
        return self.entry_cost - self.exit_proceeds


@dataclass
class MetricReport:
    roi_pct: float | None = None
    sharpe_daily: float | None = None
    sharpe_annualized: float | None = None
    sortino: float | None = None
    max_drawdown_pct: float | None = None
    win_rate_pct: float | None = None
    num_trades: int | None = None
    roic_pct: float | None = None
    profit_per_trade: float | None = None

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, obj: dict) -> "MetricReport":
        return cls(**{f.name: obj.get(f.name) for f in fields(cls)})


METRIC_FIELDS = tuple(f.name for f in fields(MetricReport))
# Tables-first column order: ROI, SR, DD, win rate, trades, then extended.
REPORT_COLUMNS = (
    "roi_pct",
    "sharpe_daily",
    "max_drawdown_pct",
    "win_rate_pct",
    "num_trades",
    "sharpe_annualized",
    "sortino",
    "roic_pct",
    "profit_per_trade",
)


def _mean(xs: Sequence[float]) -> float:
    return sum(xs) / len(xs)


def _sample_std(xs: Sequence[float]) -> float | None:
    n = len(xs)
    if n < 2:
        return None
    mu = _mean(xs)
    return math.sqrt(sum([(x - mu) ** 2 for x in xs]) / (n - 1))


def returns(curve: list[float]) -> list[float]:
    """The daily returns Sharpe and Sortino share; none below three values or
    when a value at or below zero would be the base of a return, which leaves
    both metrics None."""
    if len(curve) < 3 or min(curve[:-1]) <= 0.0:
        return []
    return [b / a - 1.0 for a, b in zip(curve, curve[1:])]


def roi(values: Sequence[float]) -> float:
    """(V_T - V_0) / V_0 * 100."""
    if len(values) < 2:
        raise MetricsError("need at least 2 points")
    v0 = float(values[0])
    if v0 <= 0:
        raise MetricsError("initial value must be positive")
    return (float(values[-1]) - v0) / v0 * 100.0


def sharpe(rets: list[float]) -> tuple[float | None, float | None]:
    """(daily, annualized) Sharpe of daily returns `rets` at a risk-free rate
    of 0: their mean over their sample stdev; annualized = daily * sqrt(252).
    Fewer than two returns or zero variance -> (None, None)."""
    sd = _sample_std(rets)
    if sd is None or sd == 0.0:
        return None, None
    daily = _mean(rets) / sd
    return daily, daily * math.sqrt(TRADING_DAYS_PER_YEAR)


def sortino(rets: list[float]) -> float | None:
    """The mean of daily returns `rets` over the sample stdev of the negative
    ones only, at a risk-free rate of 0.

    Undefined when there are fewer than two negative returns or their
    dispersion is zero (e.g. identical ones).
    """
    downside = [r for r in rets if r < 0.0]
    sd = _sample_std(downside)  # None below two negative returns
    if sd is None or sd == 0.0:
        return None
    return _mean(rets) / sd


def max_drawdown(curve: list[float]) -> float:
    """Worst peak-to-trough decline of a non-empty curve: max over t of
    (peak_t - V_t)/peak_t * 100."""
    peak = curve[0]
    worst = 0.0
    for v in curve:
        if v > peak:
            peak = v
        dd = (peak - v) / peak
        if dd > worst:
            worst = dd
    return worst * 100.0


def match_round_trips(trades: Iterable[Fill]) -> list[RoundTrip]:
    """FIFO lot matching per direction; each closing fill yields one trip.
    Residual open lots are excluded."""
    long_lots: list[list] = []  # [qty, price]
    short_lots: list[list] = []
    trips: list[RoundTrip] = []
    for t in trades:
        if t.action == Action.BUY:
            long_lots.append([t.quantity, t.fill_price])
        elif t.action == Action.SHORT:
            short_lots.append([t.quantity, t.fill_price])
        elif t.action == Action.SELL:
            trips.extend(_close(long_lots, t, "long"))
        else:  # SHORT_COVER
            trips.extend(_close(short_lots, t, "short"))
    return trips


def _close(lots: list[list], t: Fill, direction: str) -> list[RoundTrip]:
    remaining = t.quantity
    entry_cost = None
    matched = 0
    while remaining > 0 and lots:
        lot = lots[0]
        take = min(remaining, lot[0])
        cost = lot[1] * take
        entry_cost = cost if entry_cost is None else entry_cost + cost
        lot[0] -= take
        remaining -= take
        matched += take
        if lot[0] == 0:
            lots.pop(0)
    if matched == 0:
        raise MetricsError(f"closing fill with no open {direction} lots at {t.executed_at}")
    if remaining > 0:
        raise MetricsError(f"closing fill exceeds open {direction} position at {t.executed_at}")
    return [
        RoundTrip(
            direction=direction,
            quantity=matched,
            entry_cost=entry_cost,
            exit_proceeds=t.fill_price * matched,
        )
    ]


def win_rate(trips: Sequence[RoundTrip]) -> float:
    """Winners / total * 100; an empty trip list reports 0."""
    if not trips:
        return 0.0
    winners = sum(1 for t in trips if t.realized_pnl > 0)
    return winners / len(trips) * 100.0


def profit_per_trade(trips: Sequence[RoundTrip]) -> float | None:
    if not trips:
        return None
    return float(sum(float(t.realized_pnl) for t in trips)) / len(trips)


def num_trades(trades: Iterable[Fill]) -> int:
    """Executed orders (orders with at least one fill); forced covers excluded."""
    return sum(1 for t in trades if not t.forced)


def roic(values: Sequence[float], exposures: Sequence[float]) -> float | None:
    """End-of-window P&L over mean gross exposure, deployed sessions only.
    `values` starts with the initial cash.

    exposures[t] = (long_t + short_t) * close_t per session; sessions with
    zero exposure are excluded from the denominator. Never deployed -> None.
    """
    deployed = [e for e in exposures if e > 0]
    if not deployed:
        return None
    profit = float(values[-1]) - float(values[0])
    return profit / _mean([float(e) for e in deployed]) * 100.0


def compute_report(values: list[float], trades: Sequence[Fill], exposures: Sequence[float], initial: float) -> MetricReport:
    """The report of `values`, one per session; ROI, drawdown and ROIC count from the cash `initial`."""
    trips = match_round_trips(trades)
    curve = [initial, *values]
    rets = returns(values)
    sr_daily, sr_ann = sharpe(rets)
    return MetricReport(
        roi_pct=roi(curve),
        sharpe_daily=sr_daily,
        sharpe_annualized=sr_ann,
        sortino=sortino(rets),
        max_drawdown_pct=max_drawdown(curve),
        win_rate_pct=win_rate(trips),
        num_trades=num_trades(trades),
        roic_pct=roic(curve, exposures),
        profit_per_trade=profit_per_trade(trips),
    )


@dataclass(frozen=True)
class AggregateField:
    mean: float
    std: float | None
    n: int


def aggregate_runs(reports: Sequence[MetricReport]) -> dict[str, AggregateField | None]:
    """Per-field mean and sample stdev across runs; None fields are excluded
    pairwise; a field undefined in every run aggregates to None."""
    if not reports:
        raise MetricsError("need at least 1 report")
    out: dict[str, AggregateField | None] = {}
    for name in METRIC_FIELDS:
        xs = [float(getattr(r, name)) for r in reports if getattr(r, name) is not None]
        if not xs:
            out[name] = None
            continue
        out[name] = AggregateField(mean=_mean(xs), std=_sample_std(xs), n=len(xs))
    return out


def format_cell(agg: AggregateField | None, decimals: int = 2) -> str:
    if agg is None:
        return "n/a"
    if agg.std is None:
        return f"{agg.mean:.{decimals}f}"
    return f"{agg.mean:.{decimals}f} ± {agg.std:.{decimals}f}"


def render_table(rows: dict[str, dict[str, AggregateField | None]]) -> str:
    """Aligned-text table, one row per configuration label."""
    headers = ["config"] + list(REPORT_COLUMNS)
    table = [headers]
    for label, aggs in rows.items():
        table.append([label] + [format_cell(aggs.get(c)) for c in REPORT_COLUMNS])
    widths = [max(len(r[i]) for r in table) for i in range(len(headers))]
    lines = []
    for r in table:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(r)))
    return "\n".join(lines) + "\n"


def render_csv(rows: dict[str, dict[str, AggregateField | None]]) -> str:
    lines = ["config," + ",".join(REPORT_COLUMNS)]
    for label, aggs in rows.items():
        cells = []
        for c in REPORT_COLUMNS:
            agg = aggs.get(c)
            if agg is None:
                cells.append("")
            elif agg.std is None:
                cells.append(f"{agg.mean:.6g}")
            else:
                cells.append(f"{agg.mean:.6g}±{agg.std:.6g}")
        lines.append(label + "," + ",".join(cells))
    return "\n".join(lines) + "\n"
