"""A reference model of the trading rules, written from README's "Simulation
semantics" and not from `tradeloop.engine`.

Money and prices are integers in units of 1e-4 and share counts are integers,
so every sum and comparison is exact without Decimal. The model reads an
order's and a bar's fields and returns plain tuples; the tests run it beside
`ExecutionEngine` and compare each validation outcome and each session close.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal

UNITS = 10_000  # model units per currency unit
BUY_SIDE = ("BUY", "SHORT_COVER")


def units(value: Decimal | str | int) -> int:
    """`value` in units of 1e-4; a finer value is outside the model."""
    scaled = Decimal(value) * UNITS
    if scaled != scaled.to_integral_value():
        raise ValueError(f"{value} is finer than 1e-4")
    return int(scaled)


@dataclass
class Queued:
    order_id: str
    action: str
    kind: str
    level: int | None  # the LIMIT or STOP price; None for MARKET
    quantity: int  # as queued, after the validation clamp
    submitted: int  # as submitted


@dataclass(frozen=True)
class Close:
    """A session close: the fills booked, the cancels with their reasons, the
    book after them and its value at the close."""

    fills: tuple[tuple, ...]  # (order_id, action, date, price, quantity, clamped_from, forced)
    cancels: tuple[tuple[str, str], ...]  # (order_id, reason)
    book: tuple[int, int, int]  # (cash, long shares, short shares)
    value: int


class Model:
    """One run's book: cash, long and short shares, and the queued orders."""

    def __init__(self, initial_cash: Decimal | str | int):
        self.cash = units(initial_cash)
        self.long = 0
        self.short = 0
        self.queue: list[Queued] = []

    def held(self, action: str) -> int | None:
        """The shares a SELL or SHORT_COVER may reduce; None for the others."""
        return {"SELL": self.long, "SHORT_COVER": self.short}.get(action)

    def over_cap(self, quantity: int, price: int, mark: int) -> bool:
        """Whether shorting `quantity` more at `price` takes the short exposure
        past the portfolio value, with the shares held marked at `mark`."""
        exposure = self.short * mark + price * quantity
        return exposure > self.cash + (self.long - self.short) * mark

    def submit(self, order, last_close: Decimal) -> tuple:
        """Validate `order` after the close `last_close`: ("QUEUED", quantity,
        (from, to) or None) or ("REJECTED", reason)."""
        action, kind = order.action.value, order.order_type.value
        level = None if order.price is None else units(order.price)
        mark = units(last_close)
        reference = level if kind == "LIMIT" else mark
        quantity = order.quantity
        held = self.held(action)
        if held is not None:
            quantity = min(quantity, held)
        if quantity == 0:
            return ("REJECTED", "EMPTY_AFTER_CLAMP")
        if action == "BUY" and reference * quantity > self.cash:
            return ("REJECTED", "INSUFFICIENT_CASH")
        if action == "SHORT" and self.over_cap(quantity, reference, mark):
            return ("REJECTED", "SHORT_LIMIT")
        self.queue.append(Queued(order.id, action, kind, level, quantity, order.quantity))
        clamp = (order.quantity, quantity) if quantity != order.quantity else None
        return ("QUEUED", quantity, clamp)

    def touch(self, order: Queued, bar) -> int | None:
        """The price `order` fills at within `bar`, or None if it is untouched.
        A LIMIT buy and a STOP sell wait for the price to fall to their level,
        a LIMIT sell and a STOP buy for it to rise; a bar that opens through
        the level fills at the open."""
        opening = units(bar.open)
        if order.kind == "MARKET":
            return opening
        if (order.kind == "LIMIT") == (order.action in BUY_SIDE):
            if opening <= order.level:
                return opening
            return order.level if units(bar.low) <= order.level else None
        if opening >= order.level:
            return opening
        return order.level if units(bar.high) >= order.level else None

    def book(self, action: str, quantity: int, price: int) -> None:
        """Short proceeds are credited to cash at the fill."""
        amount = price * quantity
        if action == "BUY":
            self.cash, self.long = self.cash - amount, self.long + quantity
        elif action == "SELL":
            self.cash, self.long = self.cash + amount, self.long - quantity
        elif action == "SHORT":
            self.cash, self.short = self.cash + amount, self.short + quantity
        else:
            self.cash, self.short = self.cash - amount, self.short - quantity

    def step(self, bar) -> Close:
        """Match the queue against `bar` in submission order, each fill
        re-checked at its own price; every order not filled cancels."""
        fills, cancels = [], []
        for order in self.queue:
            price = self.touch(order, bar)
            quantity = order.quantity
            held = self.held(order.action)
            if held is not None:
                quantity = min(quantity, held)
            if price is None:
                cancels.append((order.order_id, "UNFILLED"))
            elif quantity == 0:
                cancels.append((order.order_id, "EMPTY_AFTER_CLAMP"))
            elif order.action in BUY_SIDE and price * quantity > self.cash:
                cancels.append((order.order_id, "GAP_REJECT"))
            elif order.action == "SHORT" and self.over_cap(quantity, price, price):
                cancels.append((order.order_id, "GAP_REJECT"))
            else:
                self.book(order.action, quantity, price)
                clamped_from = order.submitted if quantity != order.submitted else None
                fills.append((order.order_id, order.action, bar.session_date, price, quantity, clamped_from, False))
        self.queue.clear()
        return self.close(bar, fills, cancels)

    def force_cover(self, bar) -> Close:
        """The window end: the queue cancels, and any short is covered at the
        close. A BUY may have spent the short proceeds, so the cover may leave
        cash below zero; the engine's invariant check then fails."""
        cancels = [(order.order_id, "WINDOW_END") for order in self.queue]
        self.queue.clear()
        fills = []
        if self.short:
            quantity, price = self.short, units(bar.close)
            self.book("SHORT_COVER", quantity, price)
            fills.append((f"forced-cover-{bar.session_date.isoformat()}", "SHORT_COVER", bar.session_date, price, quantity, None, True))
        return self.close(bar, fills, cancels)

    def close(self, bar, fills: list, cancels: list) -> Close:
        """Portfolio value = cash + long*close - short*close."""
        value = self.cash + (self.long - self.short) * units(bar.close)
        return Close(tuple(fills), tuple(cancels), (self.cash, self.long, self.short), value)
