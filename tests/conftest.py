"""Shared deterministic fixture builders."""

from __future__ import annotations

import builtins
import random
from datetime import date, timedelta
from decimal import Decimal

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from tradeloop.bars import Bar, BarSeries, Resolution

from chat_server import ChatServer

# Every property test draws the same examples on every run, with no example
# database carried between runs and no per-example time limit.
settings.register_profile("tradeloop", deadline=None, derandomize=True, database=None)
settings.load_profile("tradeloop")

# Model replies around a code fence, made of backticks, the `json` tag, text,
# and whitespace that `\s` and `str.rstrip` both match (`\x1c`, U+2028 and
# U+3000 among it): text, an opener, whitespace, a body, whitespace, a
# closer and text, where any piece may be empty, short or another fence.
_FENCE_SPACE = st.lists(st.sampled_from(("\n", "\r", "\x1c", "\u2028", "\u3000", " ")), max_size=4).map("".join)
_FENCE_PIECES = st.sampled_from(("```", "`", "json", "\n", "\r", " ", "\u3000", "[1]", "x"))
_FENCE_TEXT = st.lists(_FENCE_PIECES, max_size=6).map("".join)
fence_texts = st.tuples(
    _FENCE_TEXT,
    st.sampled_from(("```", "```json", "````json", "``json", "```jsonx", "")),
    _FENCE_SPACE,
    st.lists(_FENCE_PIECES, min_size=1, max_size=6).map("".join),
    _FENCE_SPACE,
    st.sampled_from(("```", "``", "")),
    _FENCE_TEXT,
).map("".join)


def sum_left_to_right(xs) -> float:
    """`xs` added left to right from 0, as `sum` adds floats up to Python
    3.11; from 3.12 on, `sum` compensates the rounding of floats. The
    bit-exact references add with this, not with the code they check."""
    total = 0
    for x in xs:
        total += x
    return total


@pytest.fixture
def float_sum_raises(monkeypatch):
    """`sum` raises on a float, whose rounding depends on the Python version."""
    int_sum = builtins.sum

    def checked(xs, start=0):
        xs = list(xs)
        if any(isinstance(x, float) for x in [start, *xs]):
            raise AssertionError("sum() of floats")
        return int_sum(xs, start)

    monkeypatch.setattr(builtins, "sum", checked)


def q2(x: float) -> Decimal:
    return Decimal(f"{x:.2f}")


def next_weekday(d: date) -> date:
    while d.weekday() >= 5:
        d += timedelta(days=1)
    return d


def make_bar(
    session: date,
    o: float | str,
    h: float | str,
    l: float | str,
    c: float | str,
    v: int = 1000,
    vwap: float | str | None = None,
    tx: int | None = None,
) -> Bar:
    return Bar(
        session_date=session,
        open=Decimal(str(o)),
        high=Decimal(str(h)),
        low=Decimal(str(l)),
        close=Decimal(str(c)),
        volume=v,
        vwap=None if vwap is None else Decimal(str(vwap)),
        transactions=tx,
    )


def series_from_closes(
    closes: list[float], start: date = date(2024, 1, 2), symbol: str = "SYNTH"
) -> BarSeries:
    """Flat-range bars whose OHLC all equal the given closes."""
    bars = []
    d = next_weekday(start)
    for c in closes:
        bars.append(make_bar(d, c, c, c, c, v=1000))
        d = next_weekday(d + timedelta(days=1))
    return BarSeries(symbol=symbol, resolution=Resolution.DAILY, bars=tuple(bars))


def synthetic_daily(
    n: int,
    seed: int = 7,
    start: date = date(2024, 1, 2),
    start_price: float = 100.0,
    symbol: str = "SYNTH",
    max_move: float = 0.04,
) -> BarSeries:
    """Deterministic random-walk daily bars on weekdays, valid by construction."""
    rng = random.Random(seed)
    bars = []
    d = next_weekday(start)
    price = start_price
    for _ in range(n):
        o = q2(price * (1 + rng.uniform(-0.01, 0.01)))
        c = q2(float(o) * (1 + rng.uniform(-max_move, max_move)))
        hi = max(o, c) + q2(float(max(o, c)) * rng.uniform(0, 0.01))
        lo = min(o, c) - q2(float(min(o, c)) * rng.uniform(0, 0.008))
        if lo <= 0:
            lo = Decimal("0.01")
        vwap = (hi + lo) / 2
        bars.append(
            Bar(
                session_date=d,
                open=o,
                high=hi,
                low=lo,
                close=c,
                volume=rng.randint(1_000, 100_000),
                vwap=vwap,
                transactions=rng.randint(10, 500),
            )
        )
        price = float(c)
        d = next_weekday(d + timedelta(days=1))
    return BarSeries(symbol=symbol, resolution=Resolution.DAILY, bars=tuple(bars))


@pytest.fixture(scope="module")
def chat_server_of_module():
    with ChatServer() as server:
        yield server


@pytest.fixture
def without_proxy(monkeypatch):
    """No proxy that urllib would honour between a loopback server and its clients."""
    for name in ("http_proxy", "HTTP_PROXY", "no_proxy", "NO_PROXY"):
        monkeypatch.delenv(name, raising=False)


@pytest.fixture
def chat_server(chat_server_of_module, without_proxy) -> ChatServer:
    """The test module's one loopback chat server, reset, with no proxy between."""
    chat_server_of_module.reset()
    return chat_server_of_module


@pytest.fixture
def random_series() -> BarSeries:
    return synthetic_daily(120, seed=11)


@pytest.fixture
def long_series() -> BarSeries:
    return synthetic_daily(1000, seed=3)
