"""OHLCV bar ingestion, validation, corporate-action adjustment, and resampling.

Prices are held as :class:`decimal.Decimal` with at most 4 decimal places so
portfolio accounting downstream stays exact. Analytics convert to float.
"""

from __future__ import annotations

import csv
import io
import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from datetime import date, timedelta
from decimal import Decimal, InvalidOperation, ROUND_HALF_EVEN
from enum import Enum
from typing import IO, Iterable, Iterator

CSV_COLUMNS = ("date", "open", "high", "low", "close", "volume", "vwap", "transactions")
ACTIONS_CSV_COLUMNS = ("date", "kind", "ratio", "cash")

_FOUR_DP = Decimal("0.0001")


class Resolution(str, Enum):
    DAILY = "daily"
    WEEKLY = "weekly"
    MONTHLY = "monthly"


class BarDataError(ValueError):
    """Malformed or invariant-violating bar data. Carries the 1-based data row."""

    def __init__(self, message: str, row: int | None = None):
        self.row = row
        super().__init__(message if row is None else f"{message} at row {row}")


@dataclass(frozen=True)
class Bar:
    """One session's OHLCV observation. Immutable after construction."""

    session_date: date
    open: Decimal
    high: Decimal
    low: Decimal
    close: Decimal
    volume: int
    vwap: Decimal | None = None
    transactions: int | None = None

    def __post_init__(self) -> None:
        for name in ("open", "high", "low", "close"):
            if getattr(self, name) <= 0:
                raise BarDataError(f"non-positive {name}")
        if self.low > self.high:
            raise BarDataError("low > high")
        if not (self.low <= self.open <= self.high):
            raise BarDataError("open outside [low, high]")
        if not (self.low <= self.close <= self.high):
            raise BarDataError("close outside [low, high]")
        if self.volume < 0:
            raise BarDataError("negative volume")
        if self.vwap is not None and not (self.low <= self.vwap <= self.high):
            raise BarDataError("vwap outside [low, high]")
        if self.transactions is not None and self.transactions < 0:
            raise BarDataError("negative transactions")


@dataclass(frozen=True)
class BarSeries:
    """Ordered bar sequence for one symbol at one resolution."""

    symbol: str
    resolution: Resolution
    bars: tuple[Bar, ...]

    def __post_init__(self) -> None:
        for prev, cur in zip(self.bars, self.bars[1:]):
            if cur.session_date == prev.session_date:
                raise BarDataError(f"duplicate session {cur.session_date.isoformat()}")
            if cur.session_date < prev.session_date:
                raise BarDataError(
                    f"unordered dates: {cur.session_date.isoformat()} after {prev.session_date.isoformat()}"
                )

    def __len__(self) -> int:
        return len(self.bars)

    def __iter__(self) -> Iterator[Bar]:
        return iter(self.bars)

    def __getitem__(self, idx: int) -> Bar:
        return self.bars[idx]

    def dates(self) -> list[date]:
        return [b.session_date for b in self.bars]

    def closes(self) -> list[float]:
        return [float(b.close) for b in self.bars]

    def bar_on(self, session: date) -> Bar | None:
        i = bisect_left(self.bars, session, key=_session_date)
        if i < len(self.bars) and self.bars[i].session_date == session:
            return self.bars[i]
        return None

    def index_after(self, as_of: date) -> int:
        """Index of the first bar dated after as_of: the number of bars dated ≤ as_of."""
        return bisect_right(self.bars, as_of, key=_session_date)

    def up_to(self, as_of: date) -> "BarSeries":
        """Sub-series of bars dated ≤ as_of."""
        return replace(self, bars=self.bars[: self.index_after(as_of)])


def _session_date(bar: Bar) -> date:
    return bar.session_date


@dataclass(frozen=True)
class CorporateAction:
    effective_date: date
    kind: str  # "split" | "dividend"
    split_ratio: Decimal | None = None  # new/old, splits only
    cash_amount: Decimal | None = None  # per share, dividends only

    def __post_init__(self) -> None:
        if self.kind not in ("split", "dividend"):
            raise BarDataError(f"unknown action kind {self.kind!r}")
        if self.kind == "split" and (self.split_ratio is None or self.split_ratio <= 0):
            raise BarDataError("non-positive split_ratio")


@dataclass(frozen=True)
class SessionCalendar:
    """Strictly increasing trading dates for the evaluation window."""

    trading_dates: tuple[date, ...]

    def __post_init__(self) -> None:
        for prev, cur in zip(self.trading_dates, self.trading_dates[1:]):
            if cur <= prev:
                raise BarDataError("calendar dates not strictly increasing")

    @classmethod
    def from_series(cls, series: BarSeries) -> "SessionCalendar":
        return cls(tuple(series.dates()))

    def __contains__(self, d: date) -> bool:
        return d in set(self.trading_dates)

    def sessions_between(self, start: date, end: date) -> list[date]:
        return [d for d in self.trading_dates if start <= d <= end]


@dataclass(frozen=True)
class Lookback:
    """Calendar lookback: years/months subtract with day clamping."""

    years: int = 0
    months: int = 0
    days: int = 0

    def before(self, as_of: date) -> date:
        total_months = self.years * 12 + self.months
        year, month = as_of.year, as_of.month
        month -= total_months
        while month < 1:
            month += 12
            year -= 1
        day = min(as_of.day, _days_in_month(year, month))
        return date(year, month, day) - timedelta(days=self.days)


def _days_in_month(year: int, month: int) -> int:
    if month == 12:
        return 31
    return (date(year, month + 1, 1) - timedelta(days=1)).day


def _parse_price(raw: str, field: str, row: int) -> Decimal:
    try:
        value = Decimal(raw)
    except InvalidOperation:
        raise BarDataError(f"bad {field} {raw!r}", row) from None
    if not value.is_finite():
        raise BarDataError(f"non-finite {field}", row)
    if -value.as_tuple().exponent > 4:
        raise BarDataError(f"{field} has more than 4 decimal places", row)
    return value


def _parse_int(raw: str, field: str, row: int) -> int:
    try:
        return int(raw)
    except ValueError:
        raise BarDataError(f"bad {field} {raw!r}", row) from None


def _parse_date(raw: str, row: int | None = None) -> date:
    try:
        return date.fromisoformat(raw)
    except ValueError:
        raise BarDataError(f"bad date {raw!r}", row) from None


def _bar_from_fields(fields: dict[str, str], row: int) -> Bar:
    session = _parse_date(fields["date"], row)
    vwap_raw = fields.get("vwap", "") or ""
    tx_raw = fields.get("transactions", "") or ""
    try:
        return Bar(
            session_date=session,
            open=_parse_price(fields["open"], "open", row),
            high=_parse_price(fields["high"], "high", row),
            low=_parse_price(fields["low"], "low", row),
            close=_parse_price(fields["close"], "close", row),
            volume=_parse_int(fields["volume"], "volume", row),
            vwap=_parse_price(vwap_raw, "vwap", row) if vwap_raw else None,
            transactions=_parse_int(tx_raw, "transactions", row) if tx_raw else None,
        )
    except BarDataError as exc:
        if exc.row is None:
            raise BarDataError(str(exc), row) from None
        raise


def parse_bars(
    source: bytes | str | IO[str],
    format: str = "csv",
    symbol: str = "",
    resolution: Resolution = Resolution.DAILY,
) -> BarSeries:
    """Parse a CSV or JSONL stream into a validated BarSeries.

    Rows violating bar invariants are rejected with their 1-based data row
    index; duplicate or unordered session dates reject the whole stream.
    """
    if isinstance(source, bytes):
        text = source.decode("utf-8")
    elif isinstance(source, str):
        text = source
    else:
        text = source.read()
    if not text.strip():
        raise BarDataError("empty input")

    bars: list[Bar] = []
    if format == "csv":
        reader = csv.reader(io.StringIO(text))
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != CSV_COLUMNS:
            raise BarDataError(f"bad header: expected {','.join(CSV_COLUMNS)}")
        for row_idx, cells in enumerate(reader, start=1):
            if not cells:
                continue
            if len(cells) != len(CSV_COLUMNS):
                raise BarDataError(f"expected {len(CSV_COLUMNS)} columns, got {len(cells)}", row_idx)
            bars.append(_bar_from_fields(dict(zip(CSV_COLUMNS, cells)), row_idx))
    elif format == "jsonl":
        for row_idx, line in enumerate((ln for ln in text.splitlines() if ln.strip()), start=1):
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise BarDataError(f"bad json: {exc.msg}", row_idx) from None
            if not isinstance(obj, dict):
                raise BarDataError("expected object", row_idx)
            fields = {k: ("" if obj.get(k) is None else str(obj.get(k, ""))) for k in CSV_COLUMNS}
            bars.append(_bar_from_fields(fields, row_idx))
    else:
        raise BarDataError(f"unknown format {format!r}")

    if not bars:
        raise BarDataError("empty input")
    seen: set[date] = set()
    prev: date | None = None
    for row_idx, bar in enumerate(bars, start=1):
        if bar.session_date in seen:
            raise BarDataError(f"duplicate session {bar.session_date.isoformat()}", row_idx)
        if prev is not None and bar.session_date < prev:
            raise BarDataError(f"unordered dates at {bar.session_date.isoformat()}", row_idx)
        seen.add(bar.session_date)
        prev = bar.session_date
    return BarSeries(symbol=symbol, resolution=resolution, bars=tuple(bars))


def _fmt_opt(value) -> str:
    return "" if value is None else str(value)


def serialize_bars(series: BarSeries, format: str = "csv") -> str:
    """Canonical serialization; CSV round-trips byte-identically with parse_bars."""
    if format == "csv":
        lines = [",".join(CSV_COLUMNS)]
        for b in series.bars:
            lines.append(
                ",".join(
                    (
                        b.session_date.isoformat(),
                        str(b.open),
                        str(b.high),
                        str(b.low),
                        str(b.close),
                        str(b.volume),
                        _fmt_opt(b.vwap),
                        _fmt_opt(b.transactions),
                    )
                )
            )
        return "\n".join(lines) + "\n"
    if format == "jsonl":
        lines = []
        for b in series.bars:
            obj = {
                "date": b.session_date.isoformat(),
                "open": str(b.open),
                "high": str(b.high),
                "low": str(b.low),
                "close": str(b.close),
                "volume": b.volume,
                "vwap": None if b.vwap is None else str(b.vwap),
                "transactions": b.transactions,
            }
            lines.append(json.dumps(obj, separators=(",", ":")))
        return "\n".join(lines) + "\n"
    raise BarDataError(f"unknown format {format!r}")


def parse_actions_csv(text: str) -> list[CorporateAction]:
    """Corporate actions CSV: date,kind,ratio,cash."""
    if not text.strip():
        return []
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or tuple(h.strip() for h in header) != ACTIONS_CSV_COLUMNS:
        raise BarDataError(f"bad header: expected {','.join(ACTIONS_CSV_COLUMNS)}")
    actions: list[CorporateAction] = []
    for row_idx, cells in enumerate(reader, start=1):
        if not cells:
            continue
        fields = dict(zip(ACTIONS_CSV_COLUMNS, cells))
        kind = fields["kind"].strip()
        ratio = fields.get("ratio", "").strip()
        cash = fields.get("cash", "").strip()
        actions.append(
            CorporateAction(
                effective_date=_parse_date(fields["date"], row_idx),
                kind=kind,
                split_ratio=_parse_price(ratio, "ratio", row_idx) if ratio else None,
                cash_amount=_parse_price(cash, "cash", row_idx) if cash else None,
            )
        )
    return actions


def _divide_price(price: Decimal, ratio: Decimal) -> Decimal:
    out = price / ratio
    if -out.as_tuple().exponent > 4:
        out = out.quantize(_FOUR_DP, rounding=ROUND_HALF_EVEN)
    return out


def adjust_for_actions(series: BarSeries, actions: Iterable[CorporateAction]) -> BarSeries:
    """Split-adjust prices (divide before effective_date, volume multiplied).

    Dividends are recorded inputs for the fundamentals feed and leave prices
    untouched. Sequential splits compose multiplicatively.
    """
    splits = sorted(
        (a for a in actions if a.kind == "split"), key=lambda a: a.effective_date
    )
    for a in splits:
        if a.split_ratio is None or a.split_ratio <= 0:
            raise BarDataError("non-positive split_ratio")
    if not splits:
        return series

    adjusted: list[Bar] = []
    for bar in series.bars:
        factor = Decimal(1)
        for a in splits:
            if bar.session_date < a.effective_date:
                factor *= a.split_ratio
        if factor == 1:
            adjusted.append(bar)
            continue
        adjusted.append(
            Bar(
                session_date=bar.session_date,
                open=_divide_price(bar.open, factor),
                high=_divide_price(bar.high, factor),
                low=_divide_price(bar.low, factor),
                close=_divide_price(bar.close, factor),
                volume=int((Decimal(bar.volume) * factor).to_integral_value(ROUND_HALF_EVEN)),
                vwap=None if bar.vwap is None else _divide_price(bar.vwap, factor),
                transactions=bar.transactions,
            )
        )
    return replace(series, bars=tuple(adjusted))


def _bucket_key(d: date, target: Resolution) -> tuple:
    if target == Resolution.WEEKLY:
        iso = d.isocalendar()
        return (iso[0], iso[1])
    return (d.year, d.month)


def resample(series: BarSeries, target: Resolution) -> BarSeries:
    """Aggregate a daily series into ISO-week or calendar-month buckets.

    Per bucket: open = first open, close = last close, high = max, low = min,
    volume = sum. The bucket bar is dated at its last constituent session.
    """
    if series.resolution != Resolution.DAILY:
        raise BarDataError("resample requires daily input")
    if target not in (Resolution.WEEKLY, Resolution.MONTHLY):
        raise BarDataError(f"bad resample target {target!r}")
    if not series.bars:
        raise BarDataError("empty input")

    out: list[Bar] = []
    group: list[Bar] = []
    key = None
    for bar in series.bars:
        k = _bucket_key(bar.session_date, target)
        if key is not None and k != key:
            out.append(_aggregate(group))
            group = []
        key = k
        group.append(bar)
    out.append(_aggregate(group))
    return BarSeries(symbol=series.symbol, resolution=target, bars=tuple(out))


def _aggregate(group: list[Bar]) -> Bar:
    return Bar(
        session_date=group[-1].session_date,
        open=group[0].open,
        high=max(b.high for b in group),
        low=min(b.low for b in group),
        close=group[-1].close,
        volume=sum(b.volume for b in group),
    )


def window_slice(series: BarSeries, lookback: Lookback, as_of: date) -> BarSeries:
    """Bars with session_date in (as_of − lookback, as_of].

    Missing sessions are simply absent, never interpolated. Lookbacks longer
    than history clamp to the whole series.
    """
    if not series.bars:
        raise BarDataError("empty input")
    if as_of < series.bars[0].session_date:
        raise BarDataError(f"as_of {as_of.isoformat()} before first bar")
    start = series.index_after(lookback.before(as_of))
    return replace(series, bars=series.bars[start : series.index_after(as_of)])
