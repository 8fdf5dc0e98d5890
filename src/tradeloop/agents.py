"""Conversational agents and strict order parsing.

Every model call is a turn of one role's conversation: the first call renders
the initial asset, later calls the follow-up asset, and responses accumulate
as assistant turns. The market/news/fundamental analysts and the reflection
baseline just ask; a turn whose reply must parse (the central agent's orders,
the optimizer's candidate) is re-asked with a reminder a bounded number of
times. The central agent consumes the analysts' texts plus portfolio state and
must answer with a bare JSON array of orders — anything off-schema is
rejected field-by-field, re-asked, and finally treated as "no action".
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from datetime import date
from decimal import Decimal, InvalidOperation, ROUND_HALF_EVEN
from typing import Callable, Iterable, Sequence, TypeVar

from .engine import Action, Order, OrderType
from .gateway import ChatMessage, Gateway, Transcript
from .templates import PromptTemplate

ORDER_FIELDS = ("action", "orderType", "price", "quantity", "explanation")
ACTIONS = tuple(a.value for a in Action)
ORDER_TYPES = tuple(t.value for t in OrderType)
MAX_REASKS = 2
RECENT_FILLS = 5  # the fills a decision prompt names
T = TypeVar("T")

FORMAT_REMINDER = (
    "Your previous reply could not be parsed as an order list. "
    "Return ONLY a JSON array (possibly empty) of objects with exactly the fields "
    'action, orderType, price, quantity, explanation. action must be one of '
    "BUY|SELL|SHORT|SHORT_COVER and orderType one of MARKET|LIMIT|STOP; price must be "
    "null for MARKET orders and a positive number otherwise; quantity must be a "
    "positive integer. No extra text."
)

class OrderParseError(ValueError):
    """Raised on any deviation from the strict order grammar."""

    def __init__(self, code: str, path: str, message: str):
        self.code = code
        self.path = path
        super().__init__(f"{code} at {path}: {message}")


@dataclass(frozen=True)
class OrderSpec:
    action: Action
    order_type: OrderType
    price: Decimal | None
    quantity: int
    explanation: str


@dataclass(frozen=True)
class NewsItem:
    ts: str  # ISO-8601 timestamp
    title: str
    url: str
    summary: str
    keywords: tuple[str, ...] = ()


@dataclass(frozen=True)
class FundamentalSnapshot:
    filing_date: date
    period_label: str = ""
    revenue: float | None = None
    cogs: float | None = None
    operating_income: float | None = None
    net_income: float | None = None
    weighted_shares: float | None = None
    ocf: float | None = None
    icf: float | None = None
    fcf_fin: float | None = None
    total_debt: float | None = None
    total_equity: float | None = None
    annual_dividends_per_share: float | None = None
    price: float | None = None
    splits: tuple[tuple[str, str], ...] = ()  # (date, ratio text)
    dividends: tuple[tuple[str, str], ...] = ()  # (date, cash amount)


# -- formatting ------------------------------------------------------------


def fmt_price(value) -> str:
    return f"{float(value):.2f}"


def recent_activity_text(fills: Sequence) -> str:
    """The last RECENT_FILLS fills as "DATE ACTION QTY @ PRICE" lines."""
    lines = [
        f"{f.executed_at.isoformat()} {f.action.value} {f.quantity} @ {fmt_price(f.fill_price)}"
        for f in fills[-RECENT_FILLS:]
    ]
    return "\n".join(lines)


# -- news ------------------------------------------------------------------


def load_news_jsonl(text: str) -> list[NewsItem]:
    """One item per non-blank line; ValueError names the first line that is
    not a JSON object with a string `title`, a `ts` that starts with an ISO
    date and, if any, a string `url` and `summary` and `keywords` that are a
    list of strings."""
    items: list[NewsItem] = []
    for n, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            date.fromisoformat(obj["ts"][:10])
            url, summary, keywords = obj.get("url", ""), obj.get("summary", ""), obj.get("keywords", [])
            if not isinstance(keywords, list) or not all(isinstance(s, str) for s in [obj["title"], url, summary, *keywords]):
                raise TypeError("title, url and summary must be strings and keywords a list of strings")
            items.append(NewsItem(ts=obj["ts"], title=obj["title"], url=url, summary=summary, keywords=tuple(keywords)))
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"line {n}: {exc!r}") from None
    return items


def dedupe_news(items: Iterable[NewsItem]) -> list[NewsItem]:
    seen: set[tuple[str, str]] = set()
    out: list[NewsItem] = []
    for item in items:
        key = (item.title, item.ts)
        if key in seen:
            continue
        seen.add(key)
        out.append(item)
    return out


def render_news_batch(items: Sequence[NewsItem]) -> str:
    """Newest-first batch text; duplicates by (title, timestamp) collapse."""
    items = sorted(dedupe_news(items), key=lambda it: it.ts, reverse=True)
    blocks = []
    for it in items:
        lines = [f"[{it.ts}] {it.title}"]
        if it.url:
            lines.append(f"URL: {it.url}")
        if it.summary:
            lines.append(f"Summary: {it.summary}")
        if it.keywords:
            lines.append("Keywords: " + ", ".join(it.keywords))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


# -- fundamentals ------------------------------------------------------------


def compute_ratios(snapshot: FundamentalSnapshot) -> dict[str, float | None]:
    """Margin, per-share, cash-flow, leverage, and yield ratios.

    Each ratio is independently undefined (None) when its denominator is zero
    or an input is missing; a zero numerator is a plain 0.
    """

    def div(num, den):
        if num is None or den is None or den == 0:
            return None
        return num / den

    revenue = snapshot.revenue
    gpm = None
    if revenue and snapshot.cogs is not None:
        gpm = (revenue - snapshot.cogs) / revenue * 100.0
    ncf = None
    if None not in (snapshot.ocf, snapshot.icf, snapshot.fcf_fin):
        ncf = snapshot.ocf + snapshot.icf + snapshot.fcf_fin
    dividend_yield = None
    if snapshot.annual_dividends_per_share is not None and snapshot.price:
        dividend_yield = snapshot.annual_dividends_per_share / snapshot.price * 100.0
    debt_to_equity = div(snapshot.total_debt, snapshot.total_equity)
    return {
        "gross_margin_pct": gpm,
        "operating_margin_pct": None
        if (om := div(snapshot.operating_income, revenue)) is None
        else om * 100.0,
        "net_margin_pct": None if (nm := div(snapshot.net_income, revenue)) is None else nm * 100.0,
        "eps": div(snapshot.net_income, snapshot.weighted_shares),
        "net_cash_flow": ncf,
        "debt_to_equity": debt_to_equity,
        "dividend_yield_pct": dividend_yield,
    }


def render_fundamental_data(snapshots: Sequence[FundamentalSnapshot]) -> str:
    blocks: list[str] = []
    splits = [s for snap in snapshots for s in snap.splits]
    dividends = [d for snap in snapshots for d in snap.dividends]
    if splits:
        blocks.append("Stock Splits:\n" + "  ".join(f"{d}: {r}" for d, r in splits))
    if dividends:
        blocks.append("Dividends:\n" + "  ".join(f"{d}: ${c}" for d, c in dividends))
    for snap in snapshots:
        ratios = compute_ratios(snap)

        def r(key, suffix=""):
            v = ratios[key]
            return "n/a" if v is None else f"{v:.1f}{suffix}"

        lines = [f"{snap.period_label or 'Period'} (Filed: {snap.filing_date.isoformat()}):"]
        facts = []
        if snap.revenue is not None:
            facts.append(f"Revenue {snap.revenue:,.0f}")
        facts.append(f"GPM {r('gross_margin_pct', '%')}")
        facts.append(f"OpM {r('operating_margin_pct', '%')}")
        if snap.net_income is not None:
            facts.append(f"Net income {snap.net_income:,.0f}")
        facts.append(f"Net margin {r('net_margin_pct', '%')}")
        eps = ratios["eps"]
        facts.append("EPS n/a" if eps is None else f"EPS {eps:.2f}")
        ncf = ratios["net_cash_flow"]
        if ncf is not None:
            facts.append(f"NCF {ncf:,.0f}")
        de = ratios["debt_to_equity"]
        facts.append("D/E n/a" if de is None else f"D/E {de:.2f}")
        dy = ratios["dividend_yield_pct"]
        if dy is not None:
            facts.append(f"Yield {dy:.2f}%")
        lines.append("; ".join(facts))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) if blocks else "No fundamentals on file"


# -- conversational agents ---------------------------------------------------


class ConversationalAgent:
    """One role's conversation with a growing message history: the first call
    renders `initial`, later calls `followup`. A conversation whose text is
    built elsewhere, such as the optimizer's meta-prompt, has no templates."""

    def __init__(
        self,
        role: str,
        gateway: Gateway,
        initial: PromptTemplate | None,
        followup: PromptTemplate | None,
    ):
        self.role = role
        self.gateway = gateway
        self.initial = initial
        self.followup = followup
        self.transcript = Transcript()

    @property
    def first_call(self) -> bool:
        return not self.transcript.messages

    def reset(self) -> None:
        """Drop the conversation so the next call re-renders `initial`."""
        self.transcript = Transcript()

    def ask(self, context: dict, tags: tuple[tuple[str, str], ...] = ()) -> str:
        return self._send(self._render(context), tuple(tags) + (("role", self.role),))

    def ask_parsed(
        self,
        user_text: str,
        parse: Callable[[str], T],
        reminder: Callable[[ValueError], str],
        tags: tuple[tuple[str, str], ...] = (),
        fragment: str | None = None,
    ) -> tuple[T, int]:
        """Send `user_text` and return `parse` of the reply and the number of
        attempts. A reply that `parse` rejects with a ValueError is re-asked
        with `reminder(error)`, at most MAX_REASKS times; after that the last
        error propagates. `fragment`, when given, is the `message_fragment`
        of `user_text`'s message, as `Transcript.append` takes it."""
        tags = tuple(tags) + (("role", self.role),)
        attempt = 1
        while True:
            reply = self._send(user_text, tags + (("attempt", str(attempt)),), fragment)
            try:
                return parse(reply), attempt
            except ValueError as exc:
                if attempt > MAX_REASKS:
                    raise
                user_text, fragment = reminder(exc), None
                attempt += 1

    @property
    def next_template(self) -> PromptTemplate | None:
        """The template the next `ask` renders."""
        return self.initial if self.first_call else self.followup

    def _render(self, context: dict) -> str:
        rendered = self.next_template.render(context)
        if self.first_call and rendered.system_text:
            self.transcript.system_text = rendered.system_text
        return rendered.user_text

    def _send(self, user_text: str, tags: tuple[tuple[str, str], ...], fragment: str | None = None) -> str:
        self.transcript.append(ChatMessage(role="user", text=user_text), fragment)
        response = self.gateway.complete(self.transcript.request(tags))
        self.transcript.append(ChatMessage(role="assistant", text=response.text), response.fragment)
        return response.text


# -- order parsing -----------------------------------------------------------

_SPACES = re.compile(r"\s*")


def read_fence(text: str, require_json: bool = False) -> str | None:
    """The body of the first ``` fence in `text`, or None when it has none.

    A fence opens with ```, a `json` tag (optional unless `require_json`)
    and whitespace holding a newline. Its body runs from that whitespace's
    last newline to the next ```, less trailing whitespace. This is group 1
    of ``re.search(r"```(?:json)?\\s*\\n(.*?)\\n?\\s*```", text, re.DOTALL)``
    (`json` without the `?` when required), found in one forward scan: the
    lazy group would try the closing fence again after every character."""
    start = text.find("```")
    while start != -1:
        head = start + 3 + 4 * text.startswith("json", start + 3)
        if head > start + 3 or not require_json:
            newline = text.rfind("\n", head, _SPACES.match(text, head).end())
            if newline != -1:
                end = text.find("```", newline + 1)
                # No later opener can close either: it would open after this one's newline.
                return None if end == -1 else text[newline + 1 : end].rstrip()
        start = text.find("```", start + 1)
    return None


def parse_orders(text: str) -> list[OrderSpec]:
    """Strictly validate an order array (possibly inside a ```json fence).

    Exact enum casing; MARKET orders carry price null; LIMIT/STOP need a
    finite numeric price that is positive at 4 decimals; quantity is a
    positive JSON integer; exactly the five schema fields, nothing else.
    """
    body = read_fence(text)  # an empty fence body is the payload, not the whole text
    payload = (text if body is None else body).strip()
    try:
        data = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise OrderParseError("NOT_JSON_ARRAY", "$", f"not parseable JSON: {exc.msg}") from None
    except RecursionError:
        raise OrderParseError("NOT_JSON_ARRAY", "$", "not parseable JSON: nested too deeply") from None
    if not isinstance(data, list):
        raise OrderParseError("NOT_JSON_ARRAY", "$", f"expected array, got {type(data).__name__}")

    specs: list[OrderSpec] = []
    for i, obj in enumerate(data):
        path = f"[{i}]"
        if not isinstance(obj, dict):
            raise OrderParseError("SCHEMA_VIOLATION", path, "expected object")
        for key in ORDER_FIELDS:
            if key not in obj:
                raise OrderParseError("SCHEMA_VIOLATION", f"{path}.{key}", "missing field")
        for key in obj:
            if key not in ORDER_FIELDS:
                raise OrderParseError("SCHEMA_VIOLATION", f"{path}.{key}", "unknown field")

        action = obj["action"]
        if not isinstance(action, str) or action not in ACTIONS:
            raise OrderParseError("SCHEMA_VIOLATION", f"{path}.action", f"bad action {action!r}")
        order_type = obj["orderType"]
        if not isinstance(order_type, str) or order_type not in ORDER_TYPES:
            raise OrderParseError(
                "SCHEMA_VIOLATION", f"{path}.orderType", f"bad orderType {order_type!r}"
            )
        price = obj["price"]
        if order_type == "MARKET":
            if price is not None:
                raise OrderParseError(
                    "SCHEMA_VIOLATION", f"{path}.price", "MARKET order must carry null price"
                )
            price_dec = None
        else:
            if isinstance(price, bool) or not isinstance(price, (int, float)):
                raise OrderParseError(
                    "SCHEMA_VIOLATION", f"{path}.price", f"{order_type} needs a numeric price"
                )
            if price <= 0:
                raise OrderParseError("SCHEMA_VIOLATION", f"{path}.price", "price must be > 0")
            try:
                price_dec = Decimal(repr(price)).quantize(Decimal("0.0001"), rounding=ROUND_HALF_EVEN)
            except InvalidOperation:  # infinite, or too many digits for 4 decimals
                price_dec = Decimal("NaN")
            if not price_dec.is_finite() or price_dec <= 0:
                raise OrderParseError(
                    "SCHEMA_VIOLATION", f"{path}.price", "price must be finite and > 0 at 4 decimals"
                )
        quantity = obj["quantity"]
        if isinstance(quantity, bool) or not isinstance(quantity, int):
            raise OrderParseError(
                "SCHEMA_VIOLATION", f"{path}.quantity", "quantity must be an integer"
            )
        if quantity < 1:
            raise OrderParseError("SCHEMA_VIOLATION", f"{path}.quantity", "quantity must be >= 1")
        explanation = obj["explanation"]
        if not isinstance(explanation, str):
            raise OrderParseError(
                "SCHEMA_VIOLATION", f"{path}.explanation", "explanation must be a string"
            )
        specs.append(
            OrderSpec(
                action=Action(action),
                order_type=OrderType(order_type),
                price=price_dec,
                quantity=quantity,
                explanation=explanation,
            )
        )
    return specs


def orders_from_specs(specs: Sequence[OrderSpec], submitted_at: date, id_prefix: str) -> list[Order]:
    return [
        Order(
            id=f"{id_prefix}-{i + 1}",
            action=s.action,
            order_type=s.order_type,
            price=s.price,
            quantity=s.quantity,
            explanation=s.explanation,
            submitted_at=submitted_at,
        )
        for i, s in enumerate(specs)
    ]


@dataclass
class DecisionOutcome:
    specs: list[OrderSpec]
    attempts: int
    gave_up: bool  # parse failures exhausted the re-asks -> treated as []


class CentralAgent(ConversationalAgent):
    """The decision maker: parses orders strictly, re-asks on malformed output
    up to MAX_REASKS times, then falls back to []."""

    def decide(self, context: dict, tags=()) -> DecisionOutcome:
        try:
            specs, attempts = self.ask_parsed(self._render(context), parse_orders, _order_reminder, tags)
        except OrderParseError:
            return DecisionOutcome(specs=[], attempts=1 + MAX_REASKS, gave_up=True)
        return DecisionOutcome(specs=specs, attempts=attempts, gave_up=False)


def _order_reminder(error: ValueError) -> str:
    return f"{FORMAT_REMINDER}\n(parse error: {error})"
