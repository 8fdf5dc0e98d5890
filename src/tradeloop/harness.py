"""Experiment orchestration: config, the session loop, persistence, replay.

Wiring per session: one session context is built, analysts refresh per
cadence and ablation flags, the context and their reports render into the
live template, the central agent's orders queue, and the next session's bar
matches them. The engine keeps each session's result (its bar, the orders
it matched and their fills) and every fill; the period reviews, the equity
curve and the metrics read them there. Beside the engine the loop keeps only
the latest reports and the count of decision fallbacks. Scoring windows
close per the prompting mode; the window end force-covers shorts.
Everything an experiment produces is a file under
runs/<experiment>/<run_id>/, byte-reproducible given the same config, data
and scripts.
"""

from __future__ import annotations

import filecmp
import hashlib
import json
import math
import os
import tempfile
import threading
from bisect import bisect_left, bisect_right
from contextlib import ExitStack, closing
from dataclasses import MISSING, asdict, dataclass, field, replace
from datetime import date, timedelta
from decimal import Decimal
from pathlib import Path
from typing import Annotated, Callable, Literal, Sequence, get_args, get_origin, get_type_hints

from . import agents, indicators, opro
from .bars import Bar, BarSeries, Lookback, Resolution, SessionCalendar, parse_actions_csv, read_bars, adjust_for_actions, resample, window_slice
from .engine import AuditLog, ExecutionEngine, Fill, PortfolioState, SessionResult
from .engine import trades_from_audit  # not called: perfbench/spans.py wraps this module's name
from .errors import ConfigError, DataError, ReplayMismatch
from .gateway import Gateway, GatewayError, ReplayProvider, RouterProvider, ScriptedProvider, ScriptEntry, HttpProvider
from .metrics import METRIC_FIELDS, MetricReport, aggregate_runs, compute_report, render_csv, render_table
from .templates import asset_path, check_override_dir, load_template

PROVIDER_ROLES = ("market", "news", "fundamental", "cta", "optimizer", "reflection")
ABLATIONS = ("no_news", "no_market", "no_fundamental")

def _is_os_string(text: str) -> bool:
    """Whether `text` can name a file or an environment variable."""
    try:
        os.fsencode(text)
    except UnicodeEncodeError:  # an unpaired surrogate
        return False
    return "\0" not in text


OsString = Annotated[str, _is_os_string]


def _type_test(hint) -> Callable[[object], bool]:
    """A test for values of the annotation `hint`: a class, a union of classes,
    a `Literal[...]`, a `dict[K, V]` or an `Annotated[T, check]`. An int
    passes as a float, and a bool only as a bool."""
    if get_origin(hint) is Annotated:
        base, check = get_args(hint)
        return lambda v, test=_type_test(base): test(v) and check(v)
    if get_origin(hint) is Literal:
        return lambda v, allowed=get_args(hint): v in allowed
    if get_origin(hint) is dict:
        key, value = map(_type_test, get_args(hint))
        return lambda v: isinstance(v, dict) and all(key(k) and value(x) for k, x in v.items())
    classes = get_args(hint) or (hint,)
    if float in classes:
        classes += (int,)
    bool_ok = bool in classes
    return lambda v: isinstance(v, classes) and (bool_ok or not isinstance(v, bool))


def _type_text(hint) -> str:
    """How an error names `hint`: a `Literal` by its values, an `Annotated` type by its base."""
    args = get_args(hint)
    if get_origin(hint) is Annotated:
        return _type_text(args[0])
    if get_origin(hint) is Literal:
        return " | ".join(map(repr, args))
    if get_origin(hint) is dict:
        return f"dict[{_type_text(args[0])}, {_type_text(args[1])}]"
    return " | ".join(c.__name__ for c in args or (hint,))


_is_int = _type_test(int)


def positive_cash(value, name: str = "initial_cash") -> Decimal:
    """`value`, a number (a float read as the digits of its repr) or a numeric
    string, as a positive amount, finite also as a float."""
    try:
        cash = Decimal(repr(value) if isinstance(value, float) else value)
    except (ArithmeticError, TypeError, ValueError):
        cash = Decimal("NaN")
    if not cash.is_finite() or not 0 < float(cash) < float("inf"):
        raise ConfigError(f"{name} must be a positive number, got {value!r}")
    return cash


class _Config:
    """Base of a config dataclass read from a JSON object. Each field's type
    test is built from its annotation once, when the class is made."""

    def __init_subclass__(cls, what: str) -> None:
        hints = get_type_hints(cls, include_extras=True)
        cls.what = what
        cls.type_tests = {name: (_type_text(hint), _type_test(hint)) for name, hint in hints.items()}
        cls.date_fields = [name for name, hint in hints.items() if hint is date]

    def check_types(self) -> None:
        for name, (annotation, test) in self.type_tests.items():
            value = getattr(self, name)
            if not test(value):
                raise ConfigError(f"{name} must be {annotation}, got {value!r}")

    @classmethod
    def from_dict(cls, obj):
        """`cls` from a JSON object that names every required field and no
        unknown one. A `date` field reads an ISO date string."""
        if not isinstance(obj, dict):
            raise ConfigError(f"a {cls.what} must be an object, got {obj!r}")
        fields = cls.__dataclass_fields__
        unknown = obj.keys() - fields
        if unknown:
            raise ConfigError(f"unknown {cls.what} keys: {sorted(unknown)}")
        missing = [n for n, f in fields.items() if f.default is MISSING and f.default_factory is MISSING and n not in obj]
        if missing:
            raise ConfigError(f"missing {cls.what} keys: {missing}")
        kwargs = dict(obj)
        for name in cls.date_fields:
            try:
                kwargs[name] = date.fromisoformat(kwargs[name])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{name}: {exc}") from None
        return cls(**kwargs)


def _is_script_entry(entry) -> bool:
    """A dict with a string `response`, and optionally a string `match`, a
    positive integer `step` and a positive integer or null `times`."""
    return (
        isinstance(entry, dict)
        and entry.keys() <= {"response", "match", "step", "times"}
        and isinstance(entry.get("response"), str)
        and (entry.get("match") is None or isinstance(entry["match"], str))
        and all(entry.get(key) is None or (_is_int(entry[key]) and entry[key] >= 1) for key in ("step", "times"))
    )


@dataclass
class ProviderConfig(_Config, what="provider config"):
    kind: Literal["scripted", "http", "replay"] = "scripted"
    base_url: str = ""
    model_id: str = ""
    timeout_s: float = 60.0
    api_key_env: OsString = "LLM_API_KEY"
    strict: bool = True
    default_response: str = ""
    script: list = field(default_factory=list)
    replay_path: OsString = ""

    def __post_init__(self) -> None:
        self.check_types()
        if not 0 < self.timeout_s < math.inf:
            raise ConfigError(f"timeout_s must be finite and > 0, got {self.timeout_s!r}")
        if self.timeout_s > threading.TIMEOUT_MAX:  # the longest wait a socket or lock takes
            raise ConfigError(f"timeout_s must be at most {int(threading.TIMEOUT_MAX)} s, got {self.timeout_s!r}")
        if self.kind == "http" and not self.base_url:
            raise ConfigError("an http provider needs base_url")
        if self.kind == "replay" and not self.replay_path:
            raise ConfigError("a replay provider needs replay_path")
        for n, entry in enumerate(self.script):
            if not _is_script_entry(entry):
                raise ConfigError(f"bad script entry {n}: {entry!r}")


@dataclass
class ExperimentConfig(_Config, what="config"):
    instrument: str
    window_start: date
    window_end: date
    experiment: OsString = "experiment"
    action_interval: str = "1 day"
    prompting_mode: Literal["baseline", "reflection", "adaptive_opro", "adaptive_opro_with_reflection"] = "baseline"
    reflection_interval: int = 5
    opro_k: int = 5
    roi_mode: Literal["cumulative", "windowed"] = "cumulative"
    runs: int = 3
    initial_cash: str | float = "100000"
    ablations: dict[Literal[ABLATIONS], bool] = field(default_factory=lambda: dict.fromkeys(ABLATIONS, False))
    providers: dict[Literal[("default", *PROVIDER_ROLES)], dict] = field(default_factory=dict)
    paths: dict[Literal["bars", "actions", "news", "fundamentals", "calendar", "out_dir"], OsString] = field(default_factory=dict)
    prompt_dir: OsString = ""  # template override directory

    def __post_init__(self) -> None:
        self.check_types()
        if "bars" not in self.paths:
            raise ConfigError("paths.bars is required")
        if self.window_start >= self.window_end:
            raise ConfigError("window_start must precede window_end")
        for name in ("runs", "opro_k", "reflection_interval"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)!r}")
        positive_cash(self.initial_cash)
        for conf in self.providers.values():
            ProviderConfig.from_dict(conf)

    @classmethod
    def from_file(cls, path: Path | str) -> "ExperimentConfig":
        try:
            obj = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError, RecursionError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        return cls.from_dict(obj)

    @property
    def uses_opro(self) -> bool:
        return self.prompting_mode in ("adaptive_opro", "adaptive_opro_with_reflection")

    @property
    def uses_reflection(self) -> bool:
        return self.prompting_mode in ("reflection", "adaptive_opro_with_reflection")


FUNDAMENTAL_FIGURES = tuple(n for n, hint in get_type_hints(agents.FundamentalSnapshot).items() if hint == float | None)


@dataclass
class LoadedData:
    """The inputs of every run of an experiment, read and checked once, with
    each session's bar index, the market analyst's indicator and levels text
    and the other analysts' batches, which depend on the inputs and sessions only."""

    bars: BarSeries
    sessions: list[date]  # the sessions of the evaluation window
    session_bars: tuple[int, ...]  # each session's index in `bars.bars`
    market_texts: tuple[str, ...] | None  # one per session; None when the market analyst is ablated
    news_batches: tuple[tuple[agents.NewsItem, ...], ...] | None  # one per session; None when the news analyst is ablated
    # One per session, None off the event sessions, and None when the fundamental analyst is ablated.
    fundamental_batches: tuple[tuple[agents.FundamentalSnapshot, ...] | None, ...] | None

    @classmethod
    def of(
        cls, series: BarSeries, sessions: list[date], market: bool = True, news: Sequence[agents.NewsItem] | None = (),
        fundamentals: Sequence[agents.FundamentalSnapshot] | None = (), action_dates: Sequence[date] = (),
    ) -> "LoadedData":
        """The data of `sessions` over `series`. Each session's bar is found
        once, here; a session without a bar is a DataError that names it.
        The market texts come from one pass over the bars up to the last
        session (`indicators.market_texts`); `news` and `fundamentals` are
        None when their analyst is ablated."""
        if not sessions:
            raise DataError("no trading sessions inside the evaluation window")
        session_bars = tuple(series.index_after(d) - 1 for d in sessions)
        missing = [d.isoformat() for d, i in zip(sessions, session_bars) if i < 0 or series.bars[i].session_date != d]
        if missing:
            raise DataError(f"missing bars for sessions: {', '.join(missing)}")
        texts = tuple(indicators.market_texts(series.up_to(sessions[-1]), session_bars)) if market else None
        batches = news_batches(news, sessions) if news is not None else None
        filings = fundamental_batches(fundamentals, action_dates, sessions) if fundamentals is not None else None
        return cls(series, sessions, session_bars, texts, batches, filings)


def news_batches(items: Sequence[agents.NewsItem], sessions: Sequence[date]) -> tuple[tuple[agents.NewsItem, ...], ...]:
    """Each session's `joined_news` batch: the items dated after the previous
    session, up to and including this one; the first session looks back 3
    days. Each item goes to the first session on or after its date, found by
    bisection over the strictly increasing sessions, so a batch keeps the
    items' order."""
    batches: list[list[agents.NewsItem]] = [[] for _ in sessions]
    earliest = sessions[0] - timedelta(days=3)
    for item in items:
        day = date.fromisoformat(item.ts[:10])
        k = bisect_left(sessions, day)
        if k < len(sessions) and earliest < day:
            batches[k].append(item)
    return tuple(map(tuple, batches))


def fundamental_batches(
    filings: Sequence[agents.FundamentalSnapshot], action_dates: Sequence[date], sessions: Sequence[date]
) -> tuple[tuple[agents.FundamentalSnapshot, ...] | None, ...]:
    """Each session's `fundamental_data` batch: None at a session without an
    event. A filing or an action counts at the first session on or after its
    date, as a news item does, so one dated on a weekend or holiday gets the
    next session's turn; one dated before the first session gives no turn.
    At an event session, the batch is the filings since the last one or, if
    none, every filing so far, found by bisection over the sorted filing
    dates. An empty batch still gives the analyst a turn."""
    filed = [snap.filing_date for snap in filings]
    turns = set()
    for day in (*filed, *action_dates):
        k = bisect_left(sessions, day)
        if k < len(sessions) and (k > 0 or sessions[0] == day):
            turns.add(k)
    batches, delivered = [], 0
    for k, session in enumerate(sessions):
        if k not in turns:
            batches.append(None)
            continue
        available = bisect_right(filed, session)
        batches.append(tuple(filings[delivered:available] or filings[:available]))
        delivered = available
    return tuple(batches)


_is_number = _type_test(float)


def _figure(key: str, value) -> float | None:
    """A fundamentals figure: null, or a number that is finite as a float."""
    if value is None:
        return None
    try:
        if _is_number(value) and math.isfinite(number := float(value)):
            return number
    except OverflowError:  # an integer beyond the float range
        pass
    raise ValueError(f"{key} must be a finite number or null, got {value!r}")


def _parse_calendar(text: str) -> SessionCalendar:
    """One ISO date per non-blank line."""
    return SessionCalendar(tuple(date.fromisoformat(line.strip()) for line in text.splitlines() if line.strip()))


def _parse_fundamentals(text: str) -> list[agents.FundamentalSnapshot]:
    """A JSON list of objects, each with an ISO filing_date; period_label is
    a string, the figures are null or numbers finite as floats, read as
    floats, splits and dividends lists of [date, value] pairs, and every
    field but filing_date is optional. The snapshots come in filing_date
    order, equal dates in file order."""
    raw = json.loads(text)
    if not isinstance(raw, list) or not all(isinstance(obj, dict) for obj in raw):
        raise ValueError("expected a list of objects")
    snapshots = []
    for obj in raw:
        figures = {key: _figure(key, obj.get(key)) for key in FUNDAMENTAL_FIGURES}
        period_label = obj.get("period_label", "")
        if not isinstance(period_label, str):
            raise ValueError(f"period_label must be a string, got {period_label!r}")
        events = {key: obj.get(key, []) for key in ("splits", "dividends")}
        for key, entries in events.items():
            if not isinstance(entries, list) or not all(isinstance(e, list) and len(e) == 2 for e in entries):
                raise ValueError(f"{key} must be a list of [date, value] pairs, got {entries!r}")
        snapshots.append(
            agents.FundamentalSnapshot(
                filing_date=date.fromisoformat(obj["filing_date"]),
                period_label=period_label,
                splits=tuple(map(tuple, events["splits"])),
                dividends=tuple(map(tuple, events["dividends"])),
                **figures,
            )
        )
    return sorted(snapshots, key=lambda snap: snap.filing_date)


def _parse_input(paths: dict, key: str, parse: Callable[[str], object], empty):
    """`parse` of the text of the input file `paths[key]`, or `empty` when it
    names none. Any failure is a DataError that names the file."""
    if not paths.get(key):
        return empty
    try:
        return parse(Path(paths[key]).read_text(encoding="utf-8"))
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
        raise DataError(f"bad {key} file {paths[key]}: {exc!r}") from None


def load_data(config: ExperimentConfig) -> LoadedData:
    """The inputs of every run of `config`, read and checked once."""
    paths = config.paths
    series = read_bars(paths["bars"], symbol=config.instrument)
    actions = _parse_input(paths, "actions", parse_actions_csv, [])
    series = adjust_for_actions(series, actions)
    calendar = _parse_input(paths, "calendar", _parse_calendar, None) or SessionCalendar.from_series(series)
    news = _parse_input(paths, "news", agents.load_news_jsonl, [])
    fundamentals = _parse_input(paths, "fundamentals", _parse_fundamentals, [])

    sessions = calendar.sessions_between(config.window_start, config.window_end)
    market = not config.ablations.get("no_market")
    news = None if config.ablations.get("no_news") else news
    fundamentals = None if config.ablations.get("no_fundamental") else fundamentals
    return LoadedData.of(series, sessions, market, news, fundamentals, [a.effective_date for a in actions])


def _config_text(config_json) -> tuple[str, str]:
    """A config.lock's config object as sorted JSON indented by 2, and the
    hash the lock records: the SHA-256 of that text."""
    text = json.dumps(config_json, indent=2, sort_keys=True, default=date.isoformat)
    return text, hashlib.sha256(text.encode("utf-8")).hexdigest()


def build_provider(pconf: ProviderConfig):
    if pconf.kind == "scripted":
        entries = [ScriptEntry(**entry) for entry in pconf.script]
        return ScriptedProvider(entries, strict=pconf.strict, default_response=pconf.default_response)
    if pconf.kind == "http":
        return HttpProvider(pconf.base_url, pconf.model_id, timeout_s=pconf.timeout_s, api_key_env=pconf.api_key_env)
    return ReplayProvider(pconf.replay_path)


def build_router(config: ExperimentConfig):
    """Per-role providers with a single shared default instance.

    Roles without their own config all route to the one default provider, so
    sequential kinds (replay, step-matched scripts) keep a global call order.
    """
    providers = {
        role: build_provider(ProviderConfig.from_dict(conf))
        for role, conf in config.providers.items()
        if conf or role != "default"  # an empty default config is no default
    }
    default = providers.pop("default", None)
    if not providers and default is None:
        raise ConfigError("no providers configured")
    return RouterProvider(providers, default=default)


@dataclass
class RunArtifact:
    run_dir: Path
    metrics: MetricReport
    equity: list[tuple[date, Decimal]] = field(default_factory=list)  # (session, portfolio value)

    @property
    def run_id(self) -> str:
        return self.run_dir.name


# -- per-session context builders -------------------------------------------


def _fmt_bar_line(b) -> str:
    return (
        f"{b.session_date.isoformat()} O {agents.fmt_price(b.open)} H {agents.fmt_price(b.high)}"
        f" L {agents.fmt_price(b.low)} C {agents.fmt_price(b.close)} V {b.volume}"
    )


def multi_timeframe_text(series: BarSeries, as_of: date) -> str:
    """Monthly bars over 2y, weekly over 6m, daily over 3m, ending at as_of.
    Reads only the bars of the 2-year window."""
    two_years = window_slice(series, Lookback(years=2), as_of)
    sections = []
    monthly = resample(two_years, Resolution.MONTHLY)
    weekly = resample(window_slice(two_years, Lookback(months=6), as_of), Resolution.WEEKLY)
    daily = window_slice(two_years, Lookback(months=3), as_of)
    for label, sub, cap in (("Monthly (2y)", monthly, 24), ("Weekly (6m)", weekly, 26), ("Daily (3m)", daily, 63)):
        lines = [_fmt_bar_line(b) for b in sub.bars[-cap:]]
        sections.append(f"{label}:\n" + ("\n".join(lines) if lines else "no data"))
    return "\n\n".join(sections)


def market_context(data: LoadedData, k: int, names: frozenset[str]) -> dict:
    """What the market analyst adds to session k's context: the indicator and
    levels text, and the multi-timeframe text only when `names`, the
    placeholders of the template its turn renders, include it."""
    context = {"formatted_indicators": data.market_texts[k]}
    if "extended_intervals_analysis" in names:
        context["extended_intervals_analysis"] = multi_timeframe_text(data.bars, data.sessions[k])
    return context


def session_context(config: ExperimentConfig, bar: Bar, state: PortfolioState, fills: Sequence[Fill]) -> dict:
    """Every value a prompt of the session of `bar` may name, before any
    report: prices and cash with 2 decimals, share counts as integers, the
    last fills. The analysts' assets name the window, the session and the
    bar's prices `session_start`, `current_time`, `open_price`, ..., the
    trading agent's `window_start`, `now`, `open`, ...; both are given."""
    start, end, now = config.window_start.isoformat(), config.window_end.isoformat(), bar.session_date.isoformat()
    prices = {name: agents.fmt_price(getattr(bar, name)) for name in ("open", "high", "low", "close")}
    return {
        "instrument": config.instrument,
        "action_interval": config.action_interval,
        "session_start": start,
        "window_start": start,
        "session_end": end,
        "window_end": end,
        "current_time": now,
        "now": now,
        "has_bar": True,
        **prices,
        **{f"{name}_price": text for name, text in prices.items()},
        "volume": str(bar.volume),
        "vwap_str": agents.fmt_price(bar.vwap) if bar.vwap is not None else "n/a",
        "transactions": str(bar.transactions) if bar.transactions is not None else "n/a",
        "shares_long": str(state.shares_long),
        "shares_short": str(state.shares_short),
        "shares_net": str(state.shares_long - state.shares_short),
        "portfolio_cash": agents.fmt_price(state.cash),
        "executed_orders": agents.recent_activity_text(fills) if fills else None,
    }


def _period_review(results: list[SessionResult], first: int, last: int, inception: Decimal) -> dict:
    """The reflection's three values over sessions `first` to `last` - 1. A
    session's orders and fills are in the next session's result, which
    matched its queue. The return counts from the start value or, at or
    below zero (a short squeezed past the cash), from `inception`."""
    period, matched = results[first:last], results[first + 1 : last + 1]
    v_start, v_end = period[0].portfolio_value, period[-1].portfolio_value
    base = float(v_start) if v_start > 0 else float(inception)
    lines = []
    for number, (result, next_result) in enumerate(zip(period, matched), start=first + 1):
        decided = "; ".join(
            f"{o.action.value} {o.quantity} {o.order_type.value}"
            + (f" @ {agents.fmt_price(o.price)}" if o.price is not None else "")
            for o in next_result.orders
        ) or "no orders"
        booked = "; ".join(f"{f.action.value} {f.quantity} @ {f.fill_price}" for f in next_result.fills) or "no fills"
        lines.append(
            f"{result.bar.session_date.isoformat()} (step {number}): decided [{decided}] | filled [{booked}]"
            f" | value {agents.fmt_price(result.portfolio_value)}"
        )
    summary = (
        f"Sessions {period[0].bar.session_date.isoformat()} -> {period[-1].bar.session_date.isoformat()} | "
        f"portfolio value {agents.fmt_price(v_start)} -> {agents.fmt_price(v_end)} "
        f"({(float(v_end) - base) / base * 100.0:+.2f}%) | orders submitted {sum(len(r.orders) for r in matched)}"
        f" | fills {sum(len(r.fills) for r in matched)}"
    )
    return {"reflection_interval": str(last - first), "period_summary": summary, "complete_history": "\n".join(lines)}


def run_single(config: ExperimentConfig, data: LoadedData, run_dir: Path) -> RunArtifact:
    """One run into `run_dir`. Its config.lock is written before the first
    session, and its logs stream to disk and are closed on every exit, so an
    aborted run leaves its config and the exchanges it completed.

    Each session's context is built once, before any report: the analysts
    and the reflection read it with their own values added, and only the
    trading agent reads it with the reports."""
    sessions, series = data.sessions, data.bars
    cash = positive_cash(config.initial_cash)

    prompt_dir = config.prompt_dir or None
    if prompt_dir is not None:
        check_override_dir(prompt_dir)
    tpl = lambda name: load_template(name, override_dir=prompt_dir)
    optimizer_path = asset_path("optimizer", prompt_dir)
    optimizer_asset = optimizer_path.read_text(encoding="utf-8")
    if config.uses_opro and opro.HISTORY_MARKER not in optimizer_asset:
        raise ConfigError(f"optimizer asset {optimizer_path} has no {opro.HISTORY_MARKER}: its meta-prompt would hold no history")
    # Built before any log opens: a replay provider reads its whole recording here.
    router = build_router(config)
    run_dir.mkdir(parents=True, exist_ok=True)
    # The lock is {"config": ..., "hash": ...} as sorted JSON indented by 2:
    # the config text, indented one level more, and its hash.
    config_text, config_hash = _config_text(config.__dict__)
    lock_text = '{\n  "config": ' + config_text.replace("\n", "\n  ") + f',\n  "hash": "{config_hash}"\n}}\n'
    (run_dir / "config.lock").write_text(lock_text, encoding="utf-8")

    with ExitStack() as logs:
        audit = logs.enter_context(closing(AuditLog(run_dir / "engine.jsonl")))
        engine = ExecutionEngine(initial_cash=cash, audit=audit)
        gateway = logs.enter_context(closing(Gateway(router, audit_sink=run_dir / "gateway.jsonl")))
        optimizer = opro.AdaptiveOpro(
            initial_template=tpl("cta_initial"),
            gateway=gateway,
            optimizer_asset=optimizer_asset,
            k=config.opro_k,
            roi_mode=config.roi_mode,
            log_sink=run_dir / "opro.jsonl",
        )
        logs.enter_context(closing(optimizer.log))

        def analyst(role: str) -> agents.ConversationalAgent | None:
            if config.ablations.get(f"no_{role}"):
                return None
            return agents.ConversationalAgent(role, gateway, tpl(f"{role}_initial"), tpl(f"{role}_followup"))

        market, news, fundamental = analyst("market"), analyst("news"), analyst("fundamental")
        cta = agents.CentralAgent("cta", gateway, optimizer.live_template, tpl("cta_followup"))
        reflection_template = tpl("reflection")

        decision_fallbacks = 0  # malformed decisions that exhausted retries -> []
        reports = dict.fromkeys(("market_analysis", "news_analysis", "fund_analysis", "reflection_analysis"))

        for i, (session, bar_index) in enumerate(zip(sessions, data.session_bars)):
            bar = series.bars[bar_index]
            step = i + 1
            result = engine.step_session(bar)
            ctx = session_context(config, bar, result.portfolio, engine.trades)
            tags = (("step", str(step)), ("session", session.isoformat()))

            # Reflection happens between decisions, looking back over the period.
            if config.uses_reflection and i > 0 and i % config.reflection_interval == 0:
                context = ctx | _period_review(engine.results, i - config.reflection_interval, i, cash)
                reports["reflection_analysis"] = opro.reflect(gateway, reflection_template, context, tags=(("step", str(step)),))

            if market is not None:
                context = ctx | market_context(data, i, market.next_template.placeholders())
                reports["market_analysis"] = market.ask(context, tags)
            if news is not None and (batch := data.news_batches[i]):
                reports["news_analysis"] = news.ask(ctx | {"joined_news": agents.render_news_batch(batch)}, tags)
            if fundamental is not None and (filings := data.fundamental_batches[i]) is not None:
                context = ctx | {"fundamental_data": agents.render_fundamental_data(filings)}
                reports["fund_analysis"] = fundamental.ask(context, tags)

            outcome = cta.decide(ctx | reports, tags=tags)
            decision_fallbacks += outcome.gave_up
            for order in agents.orders_from_specs(outcome.specs, submitted_at=session, id_prefix=f"d{step}"):
                engine.validate_and_queue(order, last_close=bar.close)

            # The last window, which may be partial, closes without an update.
            if config.uses_opro and (optimizer.is_boundary(step) or step == len(sessions)):
                optimizer.close_window(step, float(cash), float(result.portfolio_value))
                if step < len(sessions):
                    optimizer.propose_update(tags=tags)
                    cta.initial = optimizer.live_template
                    cta.reset()

        # The cover is a trade of the last session, whose value the engine's results already hold.
        engine.force_cover(bar)

    equity = [(result.bar.session_date, result.portfolio_value) for result in engine.results]
    report = compute_report(*engine.columns(), initial=float(cash))

    payload = {
        "metrics": report.to_dict(),
        "windows": [asdict(w) for w in optimizer.windows],
        "equity": {"dates": [d.isoformat() for d, _ in equity], "values": [str(v) for _, v in equity]},
        "optimizer_calls": optimizer.iteration - 1,
        "decision_fallbacks": decision_fallbacks,
    }
    (run_dir / "metrics.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return RunArtifact(run_dir=run_dir, metrics=report, equity=equity)


def read_run(run_dir: Path) -> RunArtifact:
    """The run recorded in `run_dir`, read from the `metrics.json` that
    `run_single` writes. Each metric is null or a number finite as a float,
    `num_trades` an integer, and an absent metric is null; the equity curve
    pairs ISO dates one to one with finite decimal strings. Anything else is
    a DataError that names the file."""
    path = run_dir / "metrics.json"
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(payload, dict):
            raise ValueError(f"expected an object, got {type(payload).__name__}")
        metrics, equity = payload["metrics"], payload["equity"]
        if not isinstance(metrics, dict):
            raise ValueError(f"metrics must be an object, got {metrics!r}")
        for name in METRIC_FIELDS:
            _figure(f"metrics.{name}", metrics.get(name))
        if not (metrics.get("num_trades") is None or _is_int(metrics["num_trades"])):
            raise ValueError(f"metrics.num_trades must be an integer or null, got {metrics['num_trades']!r}")
        dates, values = equity["dates"], equity["values"]
        if not (isinstance(dates, list) and isinstance(values, list) and all(isinstance(v, str) for v in values)):
            raise ValueError("equity must hold a list of dates and a list of decimal strings")
        curve = [(date.fromisoformat(d), Decimal(v)) for d, v in zip(dates, values, strict=True)]
        if not all(value.is_finite() for _, value in curve):
            raise ValueError("equity values must be finite")
    except (ValueError, KeyError, TypeError, ArithmeticError, RecursionError) as exc:
        raise DataError(f"bad {path}: {exc!r}") from None
    return RunArtifact(run_dir=run_dir, metrics=MetricReport.from_dict(metrics), equity=curve)


def run_experiment(config: ExperimentConfig):
    """The multi-run protocol: `config.runs` isolated runs plus aggregation."""
    data = load_data(config)
    exp_dir = Path(config.paths.get("out_dir", "runs")) / config.experiment
    artifacts: list[RunArtifact] = []
    for idx in range(1, config.runs + 1):
        artifacts.append(run_single(config, data, exp_dir / f"run-{idx}"))
    bundle = aggregate_and_report(artifacts, label=config.prompting_mode)
    (exp_dir / "report.txt").write_text(bundle["table"], encoding="utf-8")
    (exp_dir / "report.csv").write_text(bundle["csv"], encoding="utf-8")
    for run_id, csv_text in bundle["equity_csvs"].items():
        (exp_dir / f"equity_{run_id}.csv").write_text(csv_text, encoding="utf-8")
    return artifacts, bundle


def aggregate_and_report(artifacts: list[RunArtifact], label: str = "experiment") -> dict:
    if not artifacts:
        raise ConfigError("need at least one artifact")
    aggs = aggregate_runs([a.metrics for a in artifacts])
    rows = {label: aggs}
    equity_csvs = {}
    for artifact in artifacts:
        lines = ["date,portfolio_value"]
        for d, v in artifact.equity:
            lines.append(f"{d.isoformat()},{v}")
        equity_csvs[artifact.run_id] = "\n".join(lines) + "\n"
    return {
        "aggregate": aggs,
        "table": render_table(rows),
        "csv": render_csv(rows),
        "equity_csvs": equity_csvs,
    }


def replay_run(run_dir: Path | str, scratch_dir: Path | str | None = None) -> RunArtifact:
    """Re-execute a recorded run through the replay provider and require
    byte-identical artifacts. Raises ReplayMismatch on any divergence.

    The replay writes into `scratch_dir`, or into a temporary directory that
    is removed on every exit; the returned artifact names the recorded run."""
    run_dir = Path(run_dir)
    try:
        lock = json.loads((run_dir / "config.lock").read_text(encoding="utf-8"))
        recorded = lock["config"]
        if _config_text(recorded)[1] != lock["hash"]:
            raise ReplayMismatch("config.lock hash does not match its config payload")
        if isinstance(recorded, dict):
            recorded.pop("seed", None)  # written by earlier versions; nothing read it
        config = ExperimentConfig.from_dict(recorded)
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise ReplayMismatch(f"cannot read {run_dir / 'config.lock'}: {exc!r}") from None

    config.providers = {"default": {"kind": "replay", "replay_path": str(run_dir / "gateway.jsonl")}}

    data = load_data(config)
    with ExitStack() as stack:
        # Without a scratch_dir the replay leaves nothing behind, whatever its outcome.
        scratch = Path(scratch_dir) if scratch_dir else Path(stack.enter_context(tempfile.TemporaryDirectory()))
        try:
            artifact = run_single(config, data, scratch)
        except GatewayError as exc:
            if exc.code in ("REPLAY_MISMATCH", "SCRIPT_EXHAUSTED"):
                raise ReplayMismatch(f"replay diverged: {exc}") from exc
            # A call that differs from the recording raises one of the two codes
            # above; any other is a log the replay provider refused to load.
            raise ReplayMismatch(f"cannot replay {run_dir}: {exc}") from exc
        mismatched = [
            name
            for name in ("engine.jsonl", "gateway.jsonl", "opro.jsonl", "metrics.json")
            if not filecmp.cmp(run_dir / name, scratch / name, shallow=False)
        ]
    if mismatched:
        raise ReplayMismatch(f"replay artifacts differ: {', '.join(mismatched)}")
    return replace(artifact, run_dir=run_dir)
