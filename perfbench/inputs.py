"""Seeded, offline inputs for the benchmark workloads.

Everything the program under test reads is written here as plain files: a
bars CSV, a news JSONL, a fundamentals JSON and an experiment config whose
providers are scripted per role. The same seed always gives byte-identical
files. Scripts are laid out as one entry per expected call, in call order,
so a strict provider fails loudly if the harness asks more often than the
schedule implied by `opro_k` and `reflection_interval`.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from datetime import date, timedelta
from decimal import Decimal
from pathlib import Path

from tradeloop.bars import Bar, BarSeries, Resolution, serialize_bars
from tradeloop.templates import load_template

INITIAL_CASH = "100000"
START_PRICE = Decimal("100.00")  # divides INITIAL_CASH, so buy & hold ROI is exactly C_T/O_1 - 1
OPRO_K = 5
REFLECTION_INTERVAL = 5
ORDER_ACTIONS = ("BUY", "SELL", "SHORT", "SHORT_COVER")
ORDER_TYPES = ("MARKET", "LIMIT", "STOP")
MALFORMED_SHARE = 0.06

_WORDS = (
    "momentum", "support", "resistance", "volume", "breakout", "pullback", "trend",
    "range", "volatility", "consolidation", "divergence", "reversal", "liquidity",
    "sentiment", "earnings", "guidance", "margin", "demand", "supply", "rotation",
)


def _q2(x: float) -> Decimal:
    return Decimal(f"{x:.2f}")


def _next_weekday(d: date) -> date:
    while d.weekday() >= 5:
        d += timedelta(days=1)
    return d


def random_walk_bars(rng: random.Random, n: int, start: date, symbol: str = "SYNTH") -> BarSeries:
    """Weekday OHLCV bars, valid by construction (low <= open, close <= high,
    vwap inside the range, low > 0). Each bar the log price moves a tenth of
    the way back toward the start price, so the price range, and with it the
    number of support/resistance levels and the size of the prompts, varies
    little from seed to seed. The first open is exactly START_PRICE."""
    bars = []
    d = _next_weekday(start)
    price = float(START_PRICE)
    for i in range(n):
        o = START_PRICE if i == 0 else _q2(price * (1 + rng.uniform(-0.01, 0.01)))
        pull = -0.1 * math.log(float(o) / float(START_PRICE))
        c = _q2(float(o) * (1 + pull + rng.uniform(-0.03, 0.03)))
        hi = max(o, c) + _q2(float(max(o, c)) * rng.uniform(0, 0.01))
        lo = min(o, c) - _q2(float(min(o, c)) * rng.uniform(0, 0.008))
        if lo <= 0:
            lo = Decimal("0.01")
        bars.append(
            Bar(
                session_date=d,
                open=o,
                high=hi,
                low=lo,
                close=c,
                volume=rng.randint(1_000, 100_000),
                vwap=(hi + lo) / 2,
                transactions=rng.randint(10, 500),
            )
        )
        price = float(c)
        d = _next_weekday(d + timedelta(days=1))
    return BarSeries(symbol=symbol, resolution=Resolution.DAILY, bars=tuple(bars))


def _exactly(rng: random.Random, n: int, share: float) -> set[int]:
    """round(share * n) positions out of range(n), chosen at random. Exact
    counts keep a workload's size from drifting with the seed."""
    return set(rng.sample(range(n), round(share * n)))


def _sentence(rng: random.Random, words: int) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(words)).capitalize() + "."


def _paragraph(rng: random.Random, lo: int, hi: int) -> str:
    return " ".join(_sentence(rng, rng.randint(6, 14)) for _ in range(rng.randint(lo, hi)))


def _order(rng: random.Random, action: str, order_type: str, close: float) -> dict:
    price = None
    if order_type != "MARKET":
        price = round(close * (1 + rng.uniform(-0.03, 0.03)), 2)
    return {
        "action": action,
        "orderType": order_type,
        "price": price,
        "quantity": rng.randint(1, 150),
        "explanation": _sentence(rng, rng.randint(4, 9)),
    }


def _malformed_reply(rng: random.Random, close: float) -> str:
    order = _order(rng, rng.choice(ORDER_ACTIONS), "MARKET", close)
    variants = (
        "I would stay patient here and wait for confirmation.",
        json.dumps([{**order, "action": order["action"].lower()}]),
        json.dumps([{k: v for k, v in order.items() if k != "explanation"}]),
        json.dumps({"orders": [order]}),
        json.dumps([{**order, "quantity": 0}]),
    )
    return rng.choice(variants)


def cta_script(rng: random.Random, closes: list[float]) -> tuple[list[str], int]:
    """One reply per trading-agent call, in call order, and the number of
    re-asks they cause.

    Decisions alternate between long phases (BUY, SELL) and short phases
    (SHORT, SHORT_COVER) of 10-30 sessions, and each phase ends with one
    oversized MARKET order that clamps to the whole position and flattens it,
    as a trader running a concentrated book would. The stream never holds a
    long and a short at once: the engine lets a BUY spend short-sale
    proceeds, and the window-end forced cover then fails its cash assertion
    (see test_checks.test_force_cover_after_buying_with_short_proceeds).
    Every other decision is 0-3 orders; each side's first six orders cover
    its actions with every order type; MALFORMED_SHARE of the decisions, at
    random, are preceded by one unparseable reply.
    """
    sides = {"long": ("BUY", "SELL"), "short": ("SHORT", "SHORT_COVER")}
    combos = {side: [(a, t) for a in actions for t in ORDER_TYPES] for side, actions in sides.items()}
    for pending in combos.values():
        rng.shuffle(pending)
    side = rng.choice(("long", "short"))
    phase_left = rng.randint(10, 30)
    malformed = _exactly(rng, len(closes), MALFORMED_SHARE)
    replies: list[str] = []
    for i, close in enumerate(closes):
        if i in malformed:
            replies.append(_malformed_reply(rng, close))
        phase_left -= 1
        if phase_left == 0:
            flatten = {"action": sides[side][1], "orderType": "MARKET", "price": None,
                       "quantity": 1_000_000, "explanation": "Flatten the book."}
            orders = [flatten]
            side = "short" if side == "long" else "long"
            phase_left = rng.randint(10, 30)
        else:
            orders = []
            for _ in range(rng.choice((0, 1, 1, 2, 2, 3))):
                pending = combos[side]
                action, order_type = pending.pop() if pending else (rng.choice(sides[side]), rng.choice(ORDER_TYPES))
                orders.append(_order(rng, action, order_type, close))
        text = json.dumps(orders)
        replies.append(f"```json\n{text}\n```" if rng.random() < 0.3 else text)
    return replies, len(malformed)


def optimizer_script(rng: random.Random, proposals: int) -> list[str]:
    """Replies for `proposals` optimizer updates, one per call. A candidate
    that adds a placeholder is rejected and re-asked: 15% of the proposals
    are accepted at the second attempt, and 5% are rejected three times and
    keep the live template."""
    base = load_template("cta_initial").body
    failures = [3] * round(0.05 * proposals) + [1] * round(0.15 * proposals)
    failures += [0] * (proposals - len(failures))
    rng.shuffle(failures)
    replies: list[str] = []
    for p in range(proposals):
        for _ in range(failures[p]):
            replies.append(_optimizer_reply(rng, base + "\nAlso weigh {{ sector_flow }}."))
        if failures[p] < 3:
            replies.append(_optimizer_reply(rng, base + f"\nRefinement {p + 1}: {_sentence(rng, 10)}"))
    return replies


def _optimizer_reply(rng: random.Random, template_text: str) -> str:
    return "```json\n" + json.dumps(
        {
            "performance_analysis": _paragraph(rng, 1, 3),
            "optimized_prompt": template_text,
            "key_improvements": _sentence(rng, 8),
            "expected_impact": _sentence(rng, 6),
        }
    ) + "\n```"


def _scripted(replies: list[str]) -> dict:
    return {"kind": "scripted", "script": [{"response": r, "times": 1} for r in replies]}


@dataclass
class AgentInputs:
    """The files of one agent experiment and the schedule its run must follow."""

    config_path: Path
    expected_calls: dict[str, int]


def agent_inputs(seed: int, root: Path, history_bars: int, sessions: int) -> AgentInputs:
    """An `adaptive_opro_with_reflection` experiment over the last `sessions`
    of `history_bars` bars. News falls on a third of the sessions, chosen at
    random, and a fundamentals filing on each quarter of the whole history."""
    rng = random.Random(seed)
    root.mkdir(parents=True, exist_ok=True)
    series = random_walk_bars(rng, history_bars, date(2016, 1, 4))
    dates = series.dates()
    window = dates[-sessions:]
    window_bars = series.bars[-sessions:]
    (root / "bars.csv").write_text(serialize_bars(series, "csv"), encoding="utf-8")

    news = []
    news_days = _exactly(rng, sessions, 1 / 3)
    for i, d in enumerate(window):
        if i in news_days:
            for k in range(rng.randint(1, 3)):
                news.append(
                    {
                        "ts": f"{d.isoformat()}T{9 + k:02d}:30:00+00:00",
                        "title": _sentence(rng, rng.randint(5, 9)),
                        "url": f"https://news.example/{d.isoformat()}/{k}",
                        "summary": _paragraph(rng, 1, 2),
                        "keywords": rng.sample(_WORDS, 3),
                    }
                )
    (root / "news.jsonl").write_text("".join(json.dumps(n) + "\n" for n in news), encoding="utf-8")

    filings = []
    for q, i in enumerate(range(40, history_bars, 63)):
        revenue = rng.uniform(0.8e9, 1.5e9)
        filings.append(
            {
                "filing_date": dates[i].isoformat(),
                "period_label": f"Q{q % 4 + 1} {dates[i].year}",
                "revenue": revenue,
                "cogs": revenue * rng.uniform(0.3, 0.6),
                "operating_income": revenue * rng.uniform(0.1, 0.3),
                "net_income": revenue * rng.uniform(0.05, 0.25),
                "weighted_shares": 1.0e8,
                "ocf": revenue * rng.uniform(0.1, 0.3),
                "icf": -revenue * rng.uniform(0.02, 0.1),
                "fcf_fin": -revenue * rng.uniform(0.01, 0.05),
                "total_debt": rng.uniform(0.1e9, 0.5e9),
                "total_equity": rng.uniform(1.0e9, 2.0e9),
            }
        )
    (root / "fundamentals.json").write_text(json.dumps(filings), encoding="utf-8")
    window_set = set(window)
    fundamental_calls = sum(1 for f in filings if date.fromisoformat(f["filing_date"]) in window_set)

    reflection_calls = (sessions - 1) // REFLECTION_INTERVAL
    proposals = (sessions - 1) // OPRO_K
    cta, reasks = cta_script(rng, [float(b.close) for b in window_bars])
    optimizer = optimizer_script(rng, proposals)
    providers = {
        "market": _scripted([_paragraph(rng, 2, 5) for _ in range(sessions)]),
        "news": _scripted([_paragraph(rng, 1, 3) for _ in range(len(news_days))]),
        "fundamental": _scripted([_paragraph(rng, 1, 3) for _ in range(fundamental_calls)]),
        "reflection": _scripted([_paragraph(rng, 1, 2) for _ in range(reflection_calls)]),
        "cta": _scripted(cta),
        "optimizer": _scripted(optimizer),
    }
    config = {
        "experiment": "bench",
        "instrument": "SYNTH",
        "window_start": window[0].isoformat(),
        "window_end": window[-1].isoformat(),
        "prompting_mode": "adaptive_opro_with_reflection",
        "reflection_interval": REFLECTION_INTERVAL,
        "opro_k": OPRO_K,
        "runs": 1,
        "initial_cash": INITIAL_CASH,
        "providers": providers,
        "paths": {
            "bars": str(root / "bars.csv"),
            "news": str(root / "news.jsonl"),
            "fundamentals": str(root / "fundamentals.json"),
            "out_dir": str(root / "runs"),
        },
    }
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config, indent=1), encoding="utf-8")
    return AgentInputs(
        config_path=config_path,
        expected_calls={
            "market": sessions,
            "news": len(news_days),
            "fundamental": fundamental_calls,
            "reflection": reflection_calls,
            "cta": sessions + reasks,
            "optimizer": len(optimizer),
        },
    )


def baseline_inputs(seed: int, root: Path, bars: int) -> Path:
    """A `bars`-long series as CSV, the only input of the baselines."""
    rng = random.Random(seed)
    root.mkdir(parents=True, exist_ok=True)
    path = root / "bars.csv"
    series = random_walk_bars(rng, bars, date(1985, 1, 2))
    path.write_text(serialize_bars(series, "csv"), encoding="utf-8")
    return path
