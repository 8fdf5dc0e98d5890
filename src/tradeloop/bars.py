"""OHLCV bar ingestion, validation, corporate-action adjustment, and resampling.

Prices are held as :class:`decimal.Decimal` with at most 4 decimal places so
portfolio accounting downstream stays exact. Analytics read a series' float
columns, each converted once per series.

Each check runs in one place. The parse checks field syntax: a price is any
text `Decimal` reads as a finite number with at most 4 decimal places as
written, so "1.00000" is rejected. `Bar` checks the invariants, in one
comparison chain when they hold, and `BarSeries` the date order. Prices are
below `MAX_PRICE` and volumes below `MAX_VOLUME`, so the analytics' float
math neither overflows nor rounds a volume.

A CSV text is read in one of two ways, chosen by the text itself. Plain
text, the header as `CSV_COLUMNS` spells it and then rows that each end in
a newline and hold an ISO date, four plain prices (digits with up to 4
decimals), an integer volume, and an optional plain vwap and integer
transactions, is read by one row pattern. Any other text, and plain text
with a row that breaks a bar invariant, is read whole by the csv module and
checked field by field; only that reader raises, so a bad or unreadable row
(a field over the csv module's size limit, say) raises BarDataError naming
its 1-based data row.
"""

from __future__ import annotations

import csv
import io
import json
import re
from bisect import bisect_right
from dataclasses import dataclass, replace
from datetime import date, timedelta
from decimal import Decimal, InvalidOperation, ROUND_HALF_EVEN
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator

from .errors import DataError

CSV_COLUMNS = ("date", "open", "high", "low", "close", "volume", "vwap", "transactions")
ACTIONS_CSV_COLUMNS = ("date", "kind", "ratio", "cash")

# Every price is below MAX_PRICE, so a float holds it to the cent and its
# square does not overflow; every volume is below MAX_VOLUME, so a float holds
# it exactly.
MAX_PRICE = Decimal(10**15)
MAX_VOLUME = 2**53

_FOUR_DP = Decimal("0.0001")


class Resolution(str, Enum):
    DAILY = "daily"
    WEEKLY = "weekly"
    MONTHLY = "monthly"


class BarDataError(DataError):
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
        low, high = self.low, self.high
        if (
            0 < low <= self.open <= high < MAX_PRICE
            and low <= self.close <= high
            and 0 <= self.volume < MAX_VOLUME
            and (self.vwap is None or low <= self.vwap <= high)
            and (self.transactions is None or self.transactions >= 0)
        ):
            return
        # Some invariant fails: name the first in this order.
        for name in ("open", "high", "low", "close"):
            if getattr(self, name) <= 0:
                raise BarDataError(f"non-positive {name}")
        if self.low > self.high:
            raise BarDataError("low > high")
        if self.high >= MAX_PRICE:
            raise BarDataError("high too large: prices must be below 10**15")
        if not (self.low <= self.open <= self.high):
            raise BarDataError("open outside [low, high]")
        if not (self.low <= self.close <= self.high):
            raise BarDataError("close outside [low, high]")
        if self.volume < 0:
            raise BarDataError("negative volume")
        if self.volume >= MAX_VOLUME:
            raise BarDataError("volume too large: volumes must be below 2**53")
        if self.vwap is not None and not (self.low <= self.vwap <= self.high):
            raise BarDataError("vwap outside [low, high]")
        if self.transactions is not None and self.transactions < 0:
            raise BarDataError("negative transactions")


@dataclass(frozen=True)
class BarSeries:
    """Ordered bar sequence for one symbol at one resolution.

    Its float closes, highs and lows and its volumes are immutable columns,
    each made from the bars the first time it is read and kept with the
    series: the analytics read these, the engine the bars' Decimals. A
    sub-series is a new series, with no column until one is read.
    """

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

    def dates(self) -> list[date]:
        return [b.session_date for b in self.bars]

    @cached_property
    def closes(self) -> tuple[float, ...]:
        return tuple([float(b.close) for b in self.bars])

    @cached_property
    def highs(self) -> tuple[float, ...]:
        return tuple([float(b.high) for b in self.bars])

    @cached_property
    def lows(self) -> tuple[float, ...]:
        return tuple([float(b.low) for b in self.bars])

    @cached_property
    def volumes(self) -> tuple[int, ...]:
        return tuple([b.volume for b in self.bars])

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

    def sessions_between(self, start: date, end: date) -> list[date]:
        return [d for d in self.trading_dates if start <= d <= end]


@dataclass(frozen=True)
class Lookback:
    """Calendar lookback: years/months subtract with day clamping."""

    years: int = 0
    months: int = 0

    def before(self, as_of: date) -> date:
        year, month = divmod(as_of.year * 12 + as_of.month - 1 - self.years * 12 - self.months, 12)
        return date(year, month + 1, min(as_of.day, _days_in_month(year, month + 1)))


def _days_in_month(year: int, month: int) -> int:
    if month == 12:
        return 31
    return (date(year, month + 1, 1) - timedelta(days=1)).day


# Text that Decimal reads as a finite price of at most 4 decimal places as is.
_PRICE = r"[0-9]+(?:\.[0-9]{1,4})?"
_PLAIN_PRICE = re.compile(_PRICE).fullmatch

# A plain CSV text's header line, and one of its rows, a whole line: its
# cells as the csv module reads them, and `date.fromisoformat`, `Decimal` and
# `int` read each cell as the checked parse does.
_PLAIN_HEADER = ",".join(CSV_COLUMNS) + "\n"
_PLAIN_ROW = re.compile(
    rf"^([0-9]{{4}}-[0-9]{{2}}-[0-9]{{2}}),({_PRICE}),({_PRICE}),({_PRICE}),({_PRICE}),([0-9]+),({_PRICE})?,([0-9]+)?\n",
    re.MULTILINE,
)


def _parse_price(raw: str, field: str, row: int) -> Decimal:
    if _PLAIN_PRICE(raw):
        return Decimal(raw)
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


def _bar_from_cells(
    row: int, session: str, open: str, high: str, low: str, close: str, volume: str, vwap: str, transactions: str
) -> Bar:
    """The bar of one row's eight cells, in CSV_COLUMNS order."""
    session_date = _parse_date(session, row)
    try:
        return Bar(
            session_date,
            _parse_price(open, "open", row),
            _parse_price(high, "high", row),
            _parse_price(low, "low", row),
            _parse_price(close, "close", row),
            _parse_int(volume, "volume", row),
            _parse_price(vwap, "vwap", row) if vwap else None,
            _parse_int(transactions, "transactions", row) if transactions else None,
        )
    except BarDataError as exc:
        if exc.row is None:
            raise BarDataError(str(exc), row) from None
        raise


def _csv_rows(text: str, columns: tuple[str, ...]) -> Iterator[tuple[int, list[str]]]:
    """Each non-blank data row of a CSV text under the header `columns`, with
    its 1-based row number (blank rows count too). A bad header, a row of
    another width and an unreadable row (such as one with a field over the
    csv module's size limit) raise BarDataError."""
    reader = csv.reader(io.StringIO(text))
    header = None
    row = 0
    try:
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != columns:
            raise BarDataError(f"bad header: expected {','.join(columns)}")
        for row, cells in enumerate(reader, start=1):
            if not cells:
                continue
            if len(cells) != len(columns):
                raise BarDataError(f"expected {len(columns)} columns, got {len(cells)}", row)
            yield row, cells
    except csv.Error as exc:
        # `row` is the last row read; the header is no data row.
        raise BarDataError(f"unreadable csv: {exc}", None if header is None else row + 1) from None


def _plain_bars(text: str) -> list[Bar] | None:
    """The bars of a plain CSV text (see the module docstring), or None when
    the text is not plain or one of its rows breaks a bar invariant."""
    if not (text.startswith(_PLAIN_HEADER) and text.endswith("\n")):
        return None
    try:
        bars = [
            Bar(
                date.fromisoformat(day), Decimal(open), Decimal(high), Decimal(low), Decimal(close), int(volume),
                vwap and Decimal(vwap), transactions and int(transactions),
            )
            for day, open, high, low, close, volume, vwap, transactions in map(
                re.Match.groups, _PLAIN_ROW.finditer(text, len(_PLAIN_HEADER))
            )
        ]
    except (BarDataError, ValueError):  # an invariant, a date like 2025-02-30, or an int past int()'s digit limit
        return None
    # Each match is a whole line, so the text is plain when every data line matched.
    return bars if len(bars) == text.count("\n") - 1 else None


def parse_bars(text: str, format: str = "csv", symbol: str = "") -> BarSeries:
    """Parse CSV or JSONL text into a validated daily BarSeries.

    Rows violating bar invariants are rejected with their 1-based data row
    index; duplicate or unordered session dates reject the whole stream.
    """
    if not text.strip():
        raise BarDataError("empty input")

    if format == "csv":
        bars = _plain_bars(text)
        if bars is None:
            bars = [_bar_from_cells(row_idx, *cells) for row_idx, cells in _csv_rows(text, CSV_COLUMNS)]
    elif format == "jsonl":
        bars = []
        for row_idx, line in enumerate((ln for ln in text.splitlines() if ln.strip()), start=1):
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise BarDataError(f"bad json: {exc.msg}", row_idx) from None
            except RecursionError:
                raise BarDataError("bad json: nested too deeply", row_idx) from None
            if not isinstance(obj, dict):
                raise BarDataError("expected object", row_idx)
            bars.append(_bar_from_cells(row_idx, *("" if (v := obj.get(k)) is None else str(v) for k in CSV_COLUMNS)))
    else:
        raise BarDataError(f"unknown format {format!r}")

    if not bars:
        raise BarDataError("empty input")
    return BarSeries(symbol=symbol, resolution=Resolution.DAILY, bars=tuple(bars))


def read_bars(path: Path | str, symbol: str = "") -> BarSeries:
    """The bars file at `path`: JSONL if its name ends in `.jsonl`, else CSV."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise BarDataError(f"bars file not found or unreadable: {exc}") from None
    return parse_bars(text, format="jsonl" if path.suffix == ".jsonl" else "csv", symbol=symbol)


def _fmt_opt(value) -> str:
    return "" if value is None else str(value)


def serialize_bars(series: BarSeries, format: str = "csv") -> str:
    """Canonical CSV, the one `format`; it round-trips byte-identically with parse_bars."""
    if format != "csv":
        raise BarDataError(f"unknown format {format!r}")
    lines = [",".join(CSV_COLUMNS)]
    for b in series.bars:
        lines.append(
            f"{b.session_date.isoformat()},{b.open!s},{b.high!s},{b.low!s},{b.close!s},{b.volume},"
            f"{_fmt_opt(b.vwap)},{_fmt_opt(b.transactions)}"
        )
    return "\n".join(lines) + "\n"


def parse_actions_csv(text: str) -> list[CorporateAction]:
    """Corporate actions CSV: date,kind,ratio,cash."""
    if not text.strip():
        return []
    actions: list[CorporateAction] = []
    for row_idx, cells in _csv_rows(text, ACTIONS_CSV_COLUMNS):
        day, kind, ratio, cash = cells
        ratio, cash = ratio.strip(), cash.strip()
        actions.append(
            CorporateAction(
                effective_date=_parse_date(day, row_idx),
                kind=kind.strip(),
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
