"""Bar-granularity order matching and portfolio accounting.

All-or-nothing fills at bar granularity, Decimal cash accounting, and a
byte-stable JSONL audit trail. One engine instance per run, single-threaded.

Fill model:
  MARKET      -> next bar's open.
  LIMIT buy   -> open if open <= limit, else limit if low reaches it.
  LIMIT sell  -> open if open >= limit, else limit if high reaches it.
  STOP buy    -> open if open >= stop, else stop if high reaches it.
  STOP sell   -> open if open <= stop, else stop if low reaches it.

Buy side = BUY, SHORT_COVER; sell side = SELL, SHORT. Unfilled orders always
cancel at session close.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from datetime import date
from decimal import Decimal
from enum import Enum
from pathlib import Path
from typing import IO

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
SELL_SIDE = (Action.SELL, Action.SHORT)


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
    cash: Decimal
    shares_long: int
    shares_short: int
    as_of: date | None

    def __post_init__(self) -> None:
        assert self.cash >= 0, "cash must stay non-negative"
        assert self.shares_long >= 0 and self.shares_short >= 0


@dataclass(frozen=True)
class Rejection:
    order_id: str
    reason: RejectReason
    detail: str


@dataclass(frozen=True)
class SessionResult:
    date: date
    fills: tuple[Fill, ...]
    cancelled: tuple[str, ...]
    portfolio: PortfolioState
    portfolio_value: Decimal


def portfolio_value(portfolio: PortfolioState, close: Decimal) -> Decimal:
    """cash + long*close - short*close (short liability marked to market)."""
    if close <= 0:
        raise EngineError("close must be positive")
    return portfolio.cash + (portfolio.shares_long - portfolio.shares_short) * close


class AuditLog:
    """Append-only JSONL stream, one compact JSON object per line.

    Keys keep insertion order, or are sorted with `sort_keys`. Every line goes
    straight to the sink (a path opens a new file, no sink means memory) and
    nothing else is kept: `text()` reads back what was written to a path or
    to memory.
    """

    def __init__(self, sink: IO[str] | Path | str | None = None, sort_keys: bool = False):
        self.path = Path(sink) if isinstance(sink, (str, Path)) else None
        if self.path is not None:
            sink = open(self.path, "w", encoding="utf-8")
        self._fh = io.StringIO() if sink is None else sink
        self.sort_keys = sort_keys

    def append(self, event: dict) -> None:
        self._fh.write(json.dumps(event, separators=(",", ":"), sort_keys=self.sort_keys, default=str) + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()

    def text(self) -> str:
        if self.path is None:
            return self._fh.getvalue()
        return self.path.read_text(encoding="utf-8")


def _order_payload(order: Order) -> dict:
    return {
        "id": order.id,
        "action": order.action.value,
        "order_type": order.order_type.value,
        "price": None if order.price is None else str(order.price),
        "quantity": order.quantity,
        "explanation": order.explanation,
        "submitted_at": order.submitted_at.isoformat(),
    }


class ExecutionEngine:
    """Single source of truth for fills, cash, positions, and session values."""

    def __init__(self, initial_cash: Decimal | int | str = 100_000, audit: AuditLog | None = None):
        self._cash = Decimal(initial_cash)
        if self._cash < 0:
            raise EngineError("initial cash must be non-negative")
        self._long = 0
        self._short = 0
        self._as_of: date | None = None
        self._queue: list[tuple[Order, int]] = []  # (validated order, submitted qty)
        self.audit = audit if audit is not None else AuditLog()

    # -- state ------------------------------------------------------------

    def portfolio(self) -> PortfolioState:
        return PortfolioState(
            cash=self._cash, shares_long=self._long, shares_short=self._short, as_of=self._as_of
        )

    @property
    def pending(self) -> list[Order]:
        return [o for o, _ in self._queue]

    # -- order intake -----------------------------------------------------

    def validate_and_queue(self, order: Order, last_close: Decimal) -> Order | Rejection:
        """Validate against the current portfolio and queue for the next bar.

        BUY needs quantity*reference_price within cash (reference = limit
        price for LIMIT orders, last close otherwise). SHORT is capped at
        100% of current portfolio value including existing short exposure.
        SELL / SHORT_COVER clamp to current holdings; a clamp to zero drops
        the order.
        """
        if last_close <= 0:
            raise EngineError("last_close must be positive")
        ref = order.price if order.order_type == OrderType.LIMIT else last_close

        outcome: Order | Rejection
        if order.action == Action.BUY:
            cost = ref * order.quantity
            if cost > self._cash:
                outcome = Rejection(
                    order.id,
                    RejectReason.INSUFFICIENT_CASH,
                    f"needs {cost} with cash {self._cash}",
                )
            else:
                outcome = order
        elif order.action == Action.SHORT:
            value = portfolio_value(self.portfolio(), last_close)
            exposure = self._short * last_close + ref * order.quantity
            if exposure > value:
                outcome = Rejection(
                    order.id,
                    RejectReason.SHORT_LIMIT,
                    f"short exposure {exposure} exceeds portfolio value {value}",
                )
            else:
                outcome = order
        elif order.action == Action.SELL:
            outcome = self._clamp(order, self._long)
        else:  # SHORT_COVER
            outcome = self._clamp(order, self._short)

        self.audit.append(
            {
                "v": AUDIT_SCHEMA_VERSION,
                "type": "ORDER_SUBMITTED",
                "order": _order_payload(order),
            }
        )
        if isinstance(outcome, Rejection):
            self.audit.append(
                {
                    "v": AUDIT_SCHEMA_VERSION,
                    "type": "ORDER_REJECTED",
                    "order_id": outcome.order_id,
                    "reason": outcome.reason.value,
                    "detail": outcome.detail,
                }
            )
            return outcome
        if outcome.quantity != order.quantity:
            self.audit.append(
                {
                    "v": AUDIT_SCHEMA_VERSION,
                    "type": "ORDER_CLAMPED",
                    "order_id": order.id,
                    "from": order.quantity,
                    "to": outcome.quantity,
                }
            )
        self._queue.append((outcome, order.quantity))
        return outcome

    def _clamp(self, order: Order, held: int) -> Order | Rejection:
        if held <= 0:
            return Rejection(order.id, RejectReason.EMPTY_AFTER_CLAMP, "no position to reduce")
        if order.quantity <= held:
            return order
        return Order(
            id=order.id,
            action=order.action,
            order_type=order.order_type,
            price=order.price,
            quantity=held,
            explanation=order.explanation,
            submitted_at=order.submitted_at,
        )

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

        fills: list[Fill] = []
        cancelled: list[str] = []
        for order, submitted_qty in self._queue:
            price = fill_price(order, bar)
            if price is None:
                self._cancel(order.id, "UNFILLED", cancelled)
                continue
            qty = order.quantity
            if order.action == Action.SELL:
                qty = min(qty, self._long)
            elif order.action == Action.SHORT_COVER:
                qty = min(qty, self._short)
            if qty <= 0:
                self._cancel(order.id, RejectReason.EMPTY_AFTER_CLAMP.value, cancelled)
                continue
            if order.action in BUY_SIDE and price * qty > self._cash:
                self._cancel(order.id, RejectReason.GAP_REJECT.value, cancelled)
                continue
            if order.action == Action.SHORT:
                value = self._cash + (self._long - self._short) * price
                if (self._short + qty) * price > value:
                    self._cancel(order.id, RejectReason.GAP_REJECT.value, cancelled)
                    continue

            if order.action == Action.BUY:
                self._cash -= price * qty
                self._long += qty
            elif order.action == Action.SELL:
                self._cash += price * qty
                self._long -= qty
            elif order.action == Action.SHORT:
                self._cash += price * qty
                self._short += qty
            else:
                self._cash -= price * qty
                self._short -= qty

            fill = Fill(
                order_id=order.id,
                action=order.action,
                executed_at=bar.session_date,
                fill_price=price,
                quantity=qty,
                clamped_from=submitted_qty if qty != submitted_qty else None,
            )
            fills.append(fill)
            self.audit.append(
                {
                    "v": AUDIT_SCHEMA_VERSION,
                    "type": "FILL",
                    "order_id": fill.order_id,
                    "action": order.action.value,
                    "date": bar.session_date.isoformat(),
                    "price": str(price),
                    "quantity": qty,
                    "clamped_from": fill.clamped_from,
                }
            )
            assert self._cash >= 0 and self._long >= 0 and self._short >= 0

        self._queue.clear()
        self._as_of = bar.session_date
        return self._summarize(bar, fills, cancelled)

    def _cancel(self, order_id: str, reason: str, cancelled: list[str]) -> None:
        cancelled.append(order_id)
        self.audit.append(
            {
                "v": AUDIT_SCHEMA_VERSION,
                "type": "CANCEL",
                "order_id": order_id,
                "reason": reason,
            }
        )

    def _summarize(self, bar, fills: list[Fill], cancelled: list[str]) -> SessionResult:
        value = portfolio_value(self.portfolio(), bar.close)
        self.audit.append(
            {
                "v": AUDIT_SCHEMA_VERSION,
                "type": "SESSION_SUMMARY",
                "date": bar.session_date.isoformat(),
                "cash": str(self._cash),
                "shares_long": self._long,
                "shares_short": self._short,
                "close": str(bar.close),
                "portfolio_value": str(value),
            }
        )
        return SessionResult(
            date=bar.session_date,
            fills=tuple(fills),
            cancelled=tuple(cancelled),
            portfolio=self.portfolio(),
            portfolio_value=value,
        )

    def force_cover(self, bar) -> SessionResult:
        """Cover any outstanding short at the final close; cancel leftovers.

        Runs at the last session of the window, after its summary. The cover
        is accounted like a MARKET buy at the close, so the marked portfolio
        value is unchanged.
        """
        cancelled: list[str] = []
        for order, _ in self._queue:
            self._cancel(order.id, "WINDOW_END", cancelled)
        self._queue.clear()

        fills: list[Fill] = []
        if self._short > 0:
            price = bar.close
            qty = self._short
            self._cash -= price * qty
            self._short = 0
            fill = Fill(
                order_id=f"forced-cover-{bar.session_date.isoformat()}",
                action=Action.SHORT_COVER,
                executed_at=bar.session_date,
                fill_price=price,
                quantity=qty,
                forced=True,
            )
            fills.append(fill)
            self.audit.append(
                {
                    "v": AUDIT_SCHEMA_VERSION,
                    "type": "FORCED_COVER",
                    "order_id": fill.order_id,
                    "date": bar.session_date.isoformat(),
                    "price": str(price),
                    "quantity": qty,
                }
            )
            assert self._cash >= 0, "short proceeds accounting must keep cash non-negative"
        self._as_of = bar.session_date
        return self._summarize(bar, fills, cancelled)


def fill_price(order: Order, bar) -> Decimal | None:
    """Price at which `order` executes within `bar`, or None if untouched."""
    if order.order_type == OrderType.MARKET:
        return bar.open
    limit = order.price
    buying = order.action in BUY_SIDE
    if order.order_type == OrderType.LIMIT:
        if buying:
            if bar.open <= limit:
                return bar.open
            if bar.low <= limit:
                return limit
        else:
            if bar.open >= limit:
                return bar.open
            if bar.high >= limit:
                return limit
        return None
    # STOP
    if buying:
        if bar.open >= limit:
            return bar.open
        if bar.high >= limit:
            return limit
    else:
        if bar.open <= limit:
            return bar.open
        if bar.low <= limit:
            return limit
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
