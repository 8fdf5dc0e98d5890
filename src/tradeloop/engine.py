"""Bar-granularity order matching and portfolio accounting.

All-or-nothing fills at bar granularity, Decimal cash accounting, and a
byte-stable JSONL audit trail. One engine instance per run, single-threaded.

Fill model:
  MARKET                 -> next bar's open.
  LIMIT buy, STOP sell   -> open if open <= level, else level if low reaches it.
  LIMIT sell, STOP buy   -> open if open >= level, else level if high reaches it.

Buy side = BUY, SHORT_COVER; sell side = SELL, SHORT. Unfilled orders always
cancel at session close.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, replace
from datetime import date
from decimal import Decimal
from enum import Enum
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .bars import Bar

AUDIT_SCHEMA_VERSION = 1


class Action(str, Enum):
    BUY = "BUY"
    SELL = "SELL"
    SHORT = "SHORT"
    SHORT_COVER = "SHORT_COVER"


class OrderType(str, Enum):
    MARKET = "MARKET"
    LIMIT = "LIMIT"
    STOP = "STOP"


BUY_SIDE = (Action.BUY, Action.SHORT_COVER)
# Sign of the change in (cash, long shares, short shares) per unit filled.
_BOOKING = {
    Action.BUY: (-1, 1, 0),
    Action.SELL: (1, -1, 0),
    Action.SHORT: (1, 0, 1),
    Action.SHORT_COVER: (-1, 0, -1),
}


class RejectReason(str, Enum):
    INSUFFICIENT_CASH = "INSUFFICIENT_CASH"
    SHORT_LIMIT = "SHORT_LIMIT"
    EMPTY_AFTER_CLAMP = "EMPTY_AFTER_CLAMP"
    GAP_REJECT = "GAP_REJECT"


class EngineError(ValueError):
    pass


@dataclass(frozen=True)
class Order:
    id: str
    action: Action
    order_type: OrderType
    price: Decimal | None  # absent iff MARKET
    quantity: int
    explanation: str
    submitted_at: date

    def __post_init__(self) -> None:
        if self.order_type == OrderType.MARKET:
            if self.price is not None:
                raise EngineError("MARKET order must not carry a price")
        else:
            if self.price is None or self.price <= 0:
                raise EngineError(f"{self.order_type.value} order needs a positive price")
        if self.quantity < 1:
            raise EngineError("quantity must be >= 1")


@dataclass(frozen=True)
class Fill:
    """One executed order. A window-end forced cover is `forced`: it closes a
    round trip but is not an executed order for trade counting."""

    order_id: str
    action: Action
    executed_at: date
    fill_price: Decimal
    quantity: int
    clamped_from: int | None = None
    forced: bool = False


@dataclass(frozen=True)
class PortfolioState:
    """Cash and positions as last booked. The engine checks its invariants
    (no negative cash or shares) after each booking, where they can change."""

    cash: Decimal
    shares_long: int
    shares_short: int


@dataclass(frozen=True)
class Rejection:
    order_id: str
    reason: RejectReason
    detail: str


@dataclass(frozen=True, slots=True)
class SessionResult:
    """The close of the session of `bar`: the orders placed at the session
    before it, as queued (clamped, in submission order), their fills and
    cancelled ids, and the book after them."""

    bar: Bar
    orders: tuple[Order, ...]
    fills: tuple[Fill, ...]
    cancelled: tuple[str, ...]
    portfolio: PortfolioState

    @property
    def portfolio_value(self) -> Decimal:
        """The book marked at the bar's close."""
        return portfolio_value(self.portfolio, self.bar.close)


def portfolio_value(portfolio: PortfolioState, close: Decimal) -> Decimal:
    """cash + long*close - short*close (short liability marked to market).
    `close` is a bar's close, which `Bar` holds positive."""
    return portfolio.cash + (portfolio.shares_long - portfolio.shares_short) * close


class AuditLog:
    """Append-only JSONL stream, one compact JSON object per line.

    Keys keep the dict's insertion order. Every line goes straight to the
    sink (a path opens a new file, no path means memory); nothing else is
    kept: `text()` reads back what was written. A file's lines reach the
    disk when its owner calls `flush()`, once per unit of work, or when the
    log is closed; a killed process loses at most what it appended since.
    Values JSON lacks are written as `str()`: a Decimal as its digits, a date
    in ISO form. An `OSError` of a write, flush or close names the file.

    An event arrives as a dict, which is encoded here, or as a line already
    formatted (without its newline). A pre-formatted line must be exactly the
    bytes this log's encoder gives for the event's dict.
    """

    def __init__(self, sink: Path | str | None = None):
        self.path = None if sink is None else Path(sink)
        self._fh = io.StringIO() if self.path is None else open(self.path, "w", encoding="utf-8")
        self._encode = json.JSONEncoder(separators=(",", ":"), default=str).encode

    def append(self, event: dict | str) -> None:
        if not isinstance(event, str):
            event = self._encode(event)
        event += "\n"  # in place, not a copy, when no caller keeps the line
        try:  # free until it raises
            self._fh.write(event)
        except OSError as exc:
            exc.filename = str(self.path)
            raise

    def flush(self) -> None:
        try:
            self._fh.flush()
        except OSError as exc:
            exc.filename = str(self.path)
            raise

    def close(self) -> None:
        if self.path is not None:  # a memory log keeps its lines for `text()`
            try:
                self._fh.close()
            except OSError as exc:
                exc.filename = str(self.path)
                raise

    def text(self) -> str:
        if self.path is None:
            return self._fh.getvalue()
        if not self._fh.closed:
            self._fh.flush()
        return self.path.read_text(encoding="utf-8")


class ExecutionEngine:
    """The run's one book: cash and positions, every fill booked and every
    session close. `results` holds one `SessionResult` per `step_session`, in
    order, and `trades` every fill in booking order, forced covers included."""

    def __init__(self, initial_cash: Decimal | int | str = 100_000, audit: AuditLog | None = None):
        self._state = PortfolioState(Decimal(initial_cash), 0, 0)  # replaced by `_book`, the one place it changes
        self._as_of: date | None = None
        self._queue: list[tuple[Order, int]] = []  # (validated order, submitted qty)
        self.audit = audit if audit is not None else AuditLog()
        self.results: list[SessionResult] = []
        self.trades: list[Fill] = []

    # -- state ------------------------------------------------------------

    def portfolio(self) -> PortfolioState:
        return self._state

    # -- order intake -----------------------------------------------------

    def validate_and_queue(self, order: Order, last_close: Decimal) -> Order | Rejection:
        """Validate against the current portfolio and queue for the next bar.

        BUY needs quantity*reference_price within cash (reference = limit
        price for LIMIT orders, last close otherwise). SHORT is capped at
        100% of current portfolio value including existing short exposure.
        SELL / SHORT_COVER clamp to current holdings; a clamp to zero drops
        the order.
        """
        ref = order.price if order.order_type == OrderType.LIMIT else last_close
        self._event("ORDER_SUBMITTED", order=order.__dict__)
        qty = self._held(order.action, order.quantity)
        if qty == 0:
            return self._reject(order, RejectReason.EMPTY_AFTER_CLAMP, "no position to reduce")
        if order.action == Action.BUY and ref * qty > self._state.cash:
            return self._reject(order, RejectReason.INSUFFICIENT_CASH, f"needs {ref * qty} with cash {self._state.cash}")
        if order.action == Action.SHORT and (breach := self._short_cap_breach(qty, ref, last_close)):
            return self._reject(order, RejectReason.SHORT_LIMIT, breach)
        queued = order
        if qty != order.quantity:
            # `from` is a Python keyword, so the two counts go in as a dict.
            self._event("ORDER_CLAMPED", order_id=order.id, **{"from": order.quantity, "to": qty})
            queued = replace(order, quantity=qty)
        self._queue.append((queued, order.quantity))
        return queued

    def _reject(self, order: Order, reason: RejectReason, detail: str) -> Rejection:
        self._event("ORDER_REJECTED", order_id=order.id, reason=reason, detail=detail)
        return Rejection(order.id, reason, detail)

    # -- trading rules ------------------------------------------------------

    def _held(self, action: Action, qty: int) -> int:
        """`qty` reduced to the shares held for a SELL or SHORT_COVER; 0 drops it."""
        if action == Action.SELL:
            return min(qty, self._state.shares_long)
        if action == Action.SHORT_COVER:
            return min(qty, self._state.shares_short)
        return qty

    def _short_cap_breach(self, qty: int, price: Decimal, mark: Decimal) -> str | None:
        """Why shorting `qty` more at `price` would take the short exposure past
        the portfolio value, with the shares already held marked at `mark`;
        None if it stays within."""
        exposure = self._state.shares_short * mark + price * qty
        value = portfolio_value(self._state, mark)
        if exposure > value:
            return f"short exposure {exposure} exceeds portfolio value {value}"
        return None

    def _book(self, fill: Fill, line: dict | str) -> None:
        """Book `fill` into cash and positions, keep it in `trades` and write
        its audit `line`; then check the invariants (no negative cash or
        shares), so a failed check still leaves its line in the audit."""
        cash, long, short = _BOOKING[fill.action]
        state, qty = self._state, fill.quantity
        self._state = state = PortfolioState(
            state.cash + cash * fill.fill_price * qty, state.shares_long + long * qty, state.shares_short + short * qty
        )
        self.trades.append(fill)
        self.audit.append(line)
        if state.cash < 0 or state.shares_long < 0 or state.shares_short < 0:  # not an assert: it holds under -O too
            raise AssertionError(f"booking {fill.order_id} left {state}")

    def _event(self, type: str, **fields) -> None:
        self.audit.append({"v": AUDIT_SCHEMA_VERSION, "type": type, **fields})

    # -- session matching ---------------------------------------------------

    def step_session(self, bar) -> SessionResult:
        """Match the queue against one bar, in submission order, atomically
        per fill. Unfilled or newly-infeasible orders cancel; cash can never
        go negative (execution-time breaches cancel with GAP_REJECT)."""
        if self._as_of is not None and bar.session_date <= self._as_of:
            raise EngineError("bar does not advance the session clock")
        for order, _ in self._queue:
            if order.submitted_at >= bar.session_date:
                raise EngineError("order submitted at or after the matching bar")

        orders: tuple[Order, ...] = ()
        fills: tuple[Fill, ...] = ()
        cancelled: tuple[str, ...] = ()
        for order, submitted_qty in self._queue:
            orders += (order,)
            price = fill_price(order, bar)
            qty = self._held(order.action, order.quantity)
            if price is None:
                reason = "UNFILLED"
            elif qty == 0:
                reason = RejectReason.EMPTY_AFTER_CLAMP
            elif (order.action in BUY_SIDE and price * qty > self._state.cash) or (
                order.action == Action.SHORT and self._short_cap_breach(qty, price, price)
            ):
                reason = RejectReason.GAP_REJECT
            else:
                fill = Fill(
                    order_id=order.id,
                    action=order.action,
                    executed_at=bar.session_date,
                    fill_price=price,
                    quantity=qty,
                    clamped_from=submitted_qty if qty != submitted_qty else None,
                )
                self._book(fill, fill_line(fill))
                fills += (fill,)
                continue
            cancelled += (order.id,)
            self._event("CANCEL", order_id=order.id, reason=reason)

        self._queue.clear()
        self._as_of = bar.session_date
        result = self._summarize(bar, orders, fills, cancelled)
        self.results.append(result)
        return result

    def _summarize(self, bar, orders: tuple[Order, ...], fills: tuple[Fill, ...], cancelled: tuple[str, ...]) -> SessionResult:
        """Close the session of `bar`: mark the state at its close and write
        the SESSION_SUMMARY line."""
        state = self._state
        value = portfolio_value(state, bar.close)
        self.audit.append(
            summary_line(bar.session_date, state.cash, state.shares_long, state.shares_short, bar.close, value)
        )
        return SessionResult(bar, orders, fills, cancelled, state)

    def force_cover(self, bar) -> SessionResult:
        """Cover any outstanding short at the final close; cancel leftovers,
        which the result holds as its `orders`.

        Runs at the last session of the window, after its summary. The cover
        is accounted like a MARKET buy at the close, so the marked portfolio
        value is unchanged. Its result marks that session again, so it is not
        kept in `results`; its fill is kept in `trades`.
        """
        orders = tuple(order for order, _ in self._queue)
        cancelled = tuple(order.id for order in orders)
        for order_id in cancelled:
            self._event("CANCEL", order_id=order_id, reason="WINDOW_END")
        self._queue.clear()

        fills: tuple[Fill, ...] = ()
        if self._state.shares_short > 0:
            fill = Fill(
                order_id=f"forced-cover-{bar.session_date.isoformat()}",
                action=Action.SHORT_COVER,
                executed_at=bar.session_date,
                fill_price=bar.close,
                quantity=self._state.shares_short,
                forced=True,
            )
            self._book(fill, {
                "v": AUDIT_SCHEMA_VERSION, "type": "FORCED_COVER",
                "order_id": fill.order_id, "date": fill.executed_at, "price": fill.fill_price, "quantity": fill.quantity,
            })
            fills = (fill,)
        self._as_of = bar.session_date
        return self._summarize(bar, orders, fills, cancelled)

    def columns(self) -> tuple[list[float], list[Fill], list[float]]:
        """`metrics.compute_report`'s values, trades and exposures, in that
        order; an exposure is (long + short) shares at the close, as a float."""
        held = [(r.portfolio.shares_long + r.portfolio.shares_short, r.bar.close) for r in self.results]
        # A flat book's exposure is 0.0, the float of any Decimal zero.
        return [float(r.portfolio_value) for r in self.results], self.trades, [float(n * c) if n else 0.0 for n, c in held]


# The two events written every session skip the generic encoder: each is one
# f-string with the bytes `AuditLog` would give its dict. Decimals and dates go
# through str(), as the encoder's `default=str` does; the order id gets the
# encoder's own string escaping.


def fill_line(fill: Fill) -> str:
    """The FILL audit line of an executed (not forced) fill."""
    clamped_from = "null" if fill.clamped_from is None else fill.clamped_from
    return (
        f'{{"v":{AUDIT_SCHEMA_VERSION},"type":"FILL","order_id":{encode_basestring_ascii(fill.order_id)},'
        f'"action":"{fill.action.value}","date":"{fill.executed_at!s}","price":"{fill.fill_price!s}",'
        f'"quantity":{fill.quantity},"clamped_from":{clamped_from}}}'
    )


def summary_line(
    session_date: date, cash: Decimal, shares_long: int, shares_short: int, close: Decimal, value: Decimal
) -> str:
    """The SESSION_SUMMARY audit line of a session close."""
    return (
        f'{{"v":{AUDIT_SCHEMA_VERSION},"type":"SESSION_SUMMARY","date":"{session_date!s}","cash":"{cash!s}",'
        f'"shares_long":{shares_long},"shares_short":{shares_short},"close":"{close!s}",'
        f'"portfolio_value":"{value!s}"}}'
    )


def fill_price(order: Order, bar) -> Decimal | None:
    """Price at which `order` executes within `bar`, or None if untouched.

    A LIMIT buy or a STOP sell waits for the price to fall to its level; a
    LIMIT sell or a STOP buy waits for it to rise.
    """
    if order.order_type == OrderType.MARKET:
        return bar.open
    level = order.price
    if (order.order_type == OrderType.LIMIT) == (order.action in BUY_SIDE):
        if bar.open <= level:
            return bar.open
        if bar.low <= level:
            return level
    else:
        if bar.open >= level:
            return bar.open
        if bar.high >= level:
            return level
    return None


def trades_from_audit(audit: AuditLog) -> list[Fill]:
    """The fills an engine audit records, from its FILL and FORCED_COVER events."""
    fills = []
    for line in audit.text().splitlines():
        obj = json.loads(line)
        if obj["type"] == "FILL":
            action, forced = Action(obj["action"]), False
        elif obj["type"] == "FORCED_COVER":
            action, forced = Action.SHORT_COVER, True
        else:
            continue
        fills.append(
            Fill(
                order_id=obj["order_id"],
                action=action,
                executed_at=date.fromisoformat(obj["date"]),
                fill_price=Decimal(obj["price"]),
                quantity=obj["quantity"],
                clamped_from=obj.get("clamped_from"),
                forced=forced,
            )
        )
    return fills
