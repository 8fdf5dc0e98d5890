"""Experiment orchestration: config, the session loop, persistence, replay.

Wiring per session: analysts refresh per cadence and ablation flags, the
decision context renders into the live template, the central agent's orders
queue, and the next session's bar matches them. Scoring windows close per the
prompting mode; the window end force-covers shorts. Everything an experiment
produces is a file under runs/<experiment>/<run_id>/ and is byte-reproducible
given the same config, data, and scripts.
"""

from __future__ import annotations

import json
import os
import re
import shutil
from dataclasses import dataclass, field
from datetime import date, timedelta
from decimal import Decimal
from pathlib import Path

from . import agents, indicators, metrics, opro
from .bars import BarSeries, Lookback, Resolution, SessionCalendar, parse_actions_csv, parse_bars, adjust_for_actions, resample, window_slice
from .engine import Action, AuditLog, ExecutionEngine, Rejection
from .gateway import Gateway, GatewayError, ReplayProvider, RouterProvider, ScriptedProvider, ScriptEntry, HttpProvider
from .metrics import MetricReport, TradeFill, aggregate_runs, compute_report, render_csv, render_table
from .strategies import trades_from_audit
from .templates import load_asset_text, load_template

PROMPTING_MODES = ("baseline", "reflection", "adaptive_opro", "adaptive_opro_with_reflection")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_PROVIDER = 4


class ConfigError(ValueError):
    pass


class DataError(ValueError):
    pass


class ReplayMismatch(RuntimeError):
    pass


_ENV_REF = re.compile(r"^\$\{([A-Za-z_][A-Za-z0-9_]*)\}$")


def _interpolate_env(value):
    """Replace whole-string "${VAR}" values from the environment (secrets only)."""
    if isinstance(value, str):
        m = _ENV_REF.match(value)
        if m:
            name = m.group(1)
            if name not in os.environ:
                raise ConfigError(f"environment variable {name} not set")
            return os.environ[name]
        return value
    if isinstance(value, dict):
        return {k: _interpolate_env(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_interpolate_env(v) for v in value]
    return value


@dataclass
class ProviderConfig:
    kind: str = "scripted"  # scripted | http | replay
    base_url: str = ""
    model_id: str = ""
    timeout_s: float = 60.0
    max_attempts: int = 3
    api_key_env: str = "LLM_API_KEY"
    strict: bool = True
    default_response: str = ""
    script: list = field(default_factory=list)
    replay_path: str = ""
    params: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, obj: dict) -> "ProviderConfig":
        known = {f for f in cls.__dataclass_fields__}
        bad = set(obj) - known
        if bad:
            raise ConfigError(f"unknown provider config keys: {sorted(bad)}")
        return cls(**obj)


@dataclass
class ExperimentConfig:
    instrument: str
    window_start: date
    window_end: date
    experiment: str = "experiment"
    action_interval: str = "1 day"
    prompting_mode: str = "baseline"
    reflection_interval: int = 5
    opro_k: int = 5
    roi_mode: str = "cumulative"
    runs: int = 3
    seed: int = 0
    initial_cash: str = "100000"
    ablations: dict = field(default_factory=lambda: {"no_news": False, "no_market": False, "no_fundamental": False})
    providers: dict = field(default_factory=dict)
    paths: dict = field(default_factory=dict)
    prompt_dir: str = ""  # template override directory

    def __post_init__(self) -> None:
        if self.window_start >= self.window_end:
            raise ConfigError("window_start must precede window_end")
        if self.runs < 1:
            raise ConfigError("runs must be >= 1")
        if self.opro_k < 1:
            raise ConfigError("opro_k must be >= 1")
        if self.reflection_interval < 1:
            raise ConfigError("reflection_interval must be >= 1")
        if self.prompting_mode not in PROMPTING_MODES:
            raise ConfigError(f"prompting_mode must be one of {PROMPTING_MODES}")

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentConfig":
        obj = _interpolate_env(dict(obj))
        known = {f for f in cls.__dataclass_fields__}
        bad = set(obj) - known
        if bad:
            raise ConfigError(f"unknown config keys: {sorted(bad)}")
        try:
            obj["window_start"] = date.fromisoformat(obj["window_start"])
            obj["window_end"] = date.fromisoformat(obj["window_end"])
        except KeyError as exc:
            raise ConfigError(f"missing config key: {exc}") from None
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if "instrument" not in obj:
            raise ConfigError("missing config key: 'instrument'")
        return cls(**obj)

    @classmethod
    def from_file(cls, path: Path | str) -> "ExperimentConfig":
        try:
            obj = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        return cls.from_dict(obj)

    def canonical_json(self) -> str:
        obj = {
            k: (v.isoformat() if isinstance(v, date) else v)
            for k, v in self.__dict__.items()
        }
        return json.dumps(obj, indent=2, sort_keys=True)

    def config_hash(self) -> str:
        import hashlib

        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    @property
    def uses_opro(self) -> bool:
        return self.prompting_mode in ("adaptive_opro", "adaptive_opro_with_reflection")

    @property
    def uses_reflection(self) -> bool:
        return self.prompting_mode in ("reflection", "adaptive_opro_with_reflection")


@dataclass
class LoadedData:
    bars: BarSeries
    calendar: SessionCalendar
    news: list = field(default_factory=list)
    fundamentals: list = field(default_factory=list)
    actions: list = field(default_factory=list)


def load_data(config: ExperimentConfig) -> LoadedData:
    paths = config.paths
    if "bars" not in paths:
        raise DataError("config.paths.bars is required")
    bars_path = Path(paths["bars"])
    if not bars_path.exists():
        raise DataError(f"bars file not found: {bars_path}")
    fmt = "jsonl" if bars_path.suffix == ".jsonl" else "csv"
    series = parse_bars(bars_path.read_text(encoding="utf-8"), format=fmt, symbol=config.instrument)

    actions = []
    if paths.get("actions"):
        actions = parse_actions_csv(Path(paths["actions"]).read_text(encoding="utf-8"))
        series = adjust_for_actions(series, actions)

    if paths.get("calendar"):
        dates = [
            date.fromisoformat(line.strip())
            for line in Path(paths["calendar"]).read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
        calendar = SessionCalendar(tuple(dates))
    else:
        calendar = SessionCalendar.from_series(series)

    news = []
    if paths.get("news"):
        news = agents.load_news_jsonl(Path(paths["news"]).read_text(encoding="utf-8"))

    fundamentals = []
    if paths.get("fundamentals"):
        raw = json.loads(Path(paths["fundamentals"]).read_text(encoding="utf-8"))
        for obj in raw:
            fundamentals.append(
                agents.FundamentalSnapshot(
                    filing_date=date.fromisoformat(obj["filing_date"]),
                    period_label=obj.get("period_label", ""),
                    revenue=obj.get("revenue"),
                    cogs=obj.get("cogs"),
                    operating_income=obj.get("operating_income"),
                    net_income=obj.get("net_income"),
                    weighted_shares=obj.get("weighted_shares"),
                    ocf=obj.get("ocf"),
                    icf=obj.get("icf"),
                    fcf_fin=obj.get("fcf_fin"),
                    total_debt=obj.get("total_debt"),
                    total_equity=obj.get("total_equity"),
                    annual_dividends_per_share=obj.get("annual_dividends_per_share"),
                    price=obj.get("price"),
                    splits=tuple(map(tuple, obj.get("splits", ()))),
                    dividends=tuple(map(tuple, obj.get("dividends", ()))),
                )
            )

    sessions = calendar.sessions_between(config.window_start, config.window_end)
    if not sessions:
        raise DataError("no trading sessions inside the evaluation window")
    missing = [d.isoformat() for d in sessions if series.bar_on(d) is None]
    if missing:
        raise DataError(f"missing bars for sessions: {', '.join(missing)}")
    return LoadedData(bars=series, calendar=calendar, news=news, fundamentals=fundamentals, actions=actions)


def build_provider(pconf: ProviderConfig, run_dir: Path | None = None):
    if pconf.kind == "scripted":
        entries = [
            ScriptEntry(
                response=e["response"],
                match=e.get("match"),
                step=e.get("step"),
                times=e.get("times", 1),
            )
            for e in pconf.script
        ]
        return ScriptedProvider(entries, strict=pconf.strict, default_response=pconf.default_response)
    if pconf.kind == "http":
        return HttpProvider(
            base_url=pconf.base_url,
            model_id=pconf.model_id,
            timeout_s=pconf.timeout_s,
            api_key_env=pconf.api_key_env,
        )
    if pconf.kind == "replay":
        return ReplayProvider(pconf.replay_path)
    raise ConfigError(f"unknown provider kind {pconf.kind!r}")


def build_router(config: ExperimentConfig, run_dir: Path):
    """Per-role providers with a single shared default instance.

    Roles without their own config all route to the one default provider, so
    sequential kinds (replay, step-matched scripts) keep a global call order.
    """
    roles = ("market", "news", "fundamental", "cta", "optimizer", "reflection")
    raw = config.providers or {}
    default_conf = raw.get("default")
    providers = {}
    for role in roles:
        if role in raw:
            providers[role] = build_provider(ProviderConfig.from_dict(raw[role]), run_dir)
    default = build_provider(ProviderConfig.from_dict(default_conf), run_dir) if default_conf else None
    if not providers and default is None:
        raise ConfigError("no providers configured")
    return RouterProvider(providers, default=default)


@dataclass
class RunArtifact:
    run_id: str
    run_dir: Path
    engine_log: Path
    gateway_log: Path
    opro_log: Path
    metrics: MetricReport
    config_hash: str
    equity_dates: list[date] = field(default_factory=list)
    equity_values: list[Decimal] = field(default_factory=list)


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


class MarketTimeline:
    """The technical context of every session of a run, computed once.

    Each indicator series and the local extrema are computed in one pass over
    the bars up to the last session. Only the indicator values at the
    sessions' bars are kept; session k's levels cluster the extrema found up
    to its bar. Both equal what the history that ends at session k's bar
    gives, so the cost per session does not grow with the history.
    """

    def __init__(self, series: BarSeries, sessions: list[date]):
        self.series = series
        self.cursor = [series.index_after(d) - 1 for d in sessions]  # each session's bar index
        history = series.up_to(sessions[-1])
        self.snapshots = indicators.snapshots(history, self.cursor)
        self.extrema = indicators.local_extrema(history)


def market_context(config: ExperimentConfig, timeline: MarketTimeline, k: int) -> dict:
    """The market analyst's context for session k of `timeline`."""
    i = timeline.cursor[k]
    bar = timeline.series.bars[i]
    session = bar.session_date
    parts = [indicators.format_for_prompt(timeline.snapshots[k])]
    if i >= 4:  # levels need five bars of history
        parts.append(indicators.format_levels(indicators.levels_at(timeline.series, timeline.extrema, i)))
    return {
        "instrument": config.instrument,
        "session_start": config.window_start.isoformat(),
        "session_end": config.window_end.isoformat(),
        "current_time": session.isoformat(),
        "action_interval": config.action_interval,
        "extended_intervals_analysis": multi_timeframe_text(timeline.series, session),
        "open_price": agents.fmt_price(bar.open),
        "high_price": agents.fmt_price(bar.high),
        "low_price": agents.fmt_price(bar.low),
        "close_price": agents.fmt_price(bar.close),
        "volume": str(bar.volume),
        "vwap_str": agents.fmt_price(bar.vwap) if bar.vwap is not None else "n/a",
        "transactions": str(bar.transactions) if bar.transactions is not None else "n/a",
        "formatted_indicators": "\n".join(parts),
    }


@dataclass
class _StepTrace:
    session: date
    step: int
    raw_decision: str
    orders: list = field(default_factory=list)
    rejections: list = field(default_factory=list)
    fills: list = field(default_factory=list)
    value: Decimal = Decimal(0)


def _period_summary(steps: list[_StepTrace], inception: Decimal) -> str:
    if not steps:
        return "No completed decisions this period."
    v_start = steps[0].value
    v_end = steps[-1].value
    base = float(v_start) if v_start else float(inception)
    roi_pct = (float(v_end) - base) / base * 100.0 if base else 0.0
    n_orders = sum(len(s.orders) for s in steps)
    n_fills = sum(len(s.fills) for s in steps)
    return (
        f"Sessions {steps[0].session.isoformat()} -> {steps[-1].session.isoformat()} | "
        f"portfolio value {agents.fmt_price(v_start)} -> {agents.fmt_price(v_end)} "
        f"({roi_pct:+.2f}%) | orders submitted {n_orders} | fills {n_fills}"
    )


def _complete_history(steps: list[_StepTrace]) -> str:
    lines = []
    for s in steps:
        orders = "; ".join(
            f"{o.action.value} {o.quantity} {o.order_type.value}"
            + (f" @ {agents.fmt_price(o.price)}" if o.price is not None else "")
            for o in s.orders
        ) or "no orders"
        fills = "; ".join(
            f"{f['action']} {f['quantity']} @ {f['price']}" for f in s.fills
        ) or "no fills"
        lines.append(
            f"{s.session.isoformat()} (step {s.step}): decided [{orders}] | filled [{fills}]"
            f" | value {agents.fmt_price(s.value)}"
        )
    return "\n".join(lines)


def run_single(config: ExperimentConfig, data: LoadedData, run_id: str, run_dir: Path) -> RunArtifact:
    run_dir.mkdir(parents=True, exist_ok=True)
    engine_log_path = run_dir / "engine.jsonl"
    gateway_log_path = run_dir / "gateway.jsonl"
    opro_log_path = run_dir / "opro.jsonl"

    sessions = data.calendar.sessions_between(config.window_start, config.window_end)
    total_steps = len(sessions)
    series = data.bars

    audit = AuditLog(engine_log_path)
    engine = ExecutionEngine(initial_cash=Decimal(config.initial_cash), audit=audit)
    router = build_router(config, run_dir)
    default_conf = (config.providers or {}).get("default", {})
    gateway = Gateway(
        router,
        audit_sink=gateway_log_path,
        max_attempts=default_conf.get("max_attempts", 3),
    )

    prompt_dir = config.prompt_dir or None
    tpl = lambda name: load_template(name, override_dir=prompt_dir)
    cta_initial = tpl("cta_initial")
    cta_followup = tpl("cta_followup")

    optimizer = opro.AdaptiveOpro(
        initial_template=cta_initial,
        gateway=gateway if config.uses_opro else None,
        optimizer_asset=load_asset_text("optimizer", override_dir=prompt_dir),
        k=config.opro_k,
        roi_mode=config.roi_mode,
        log_sink=opro_log_path,
    )

    ab = config.ablations or {}
    market = None if ab.get("no_market") else agents.MarketAnalyst(gateway, tpl("market_initial"), tpl("market_followup"))
    news = None if ab.get("no_news") else agents.NewsAnalyst(gateway, tpl("news_initial"), tpl("news_followup"))
    fundamental = (
        None if ab.get("no_fundamental") else agents.FundamentalAnalyst(gateway, tpl("fundamental_initial"), tpl("fundamental_followup"))
    )
    cta = agents.CentralAgent(gateway)
    reflection_template = tpl("reflection")
    timeline = MarketTimeline(series, sessions) if market is not None else None
    news_dates = [date.fromisoformat(item.ts[:10]) for item in data.news] if news is not None else []

    event_dates = set()
    for snap in data.fundamentals:
        event_dates.add(snap.filing_date)
    for action in data.actions:
        event_dates.add(action.effective_date)

    inception = Decimal(config.initial_cash)
    equity_dates: list[date] = []
    equity_values: list[Decimal] = []
    exposures: list[float] = []
    decision_fallbacks = 0  # malformed decisions that exhausted retries -> []
    all_fill_lines: list = []  # TradeFill-shaped entries for recent-activity text
    order_actions: dict[str, Action] = {}
    steps: list[_StepTrace] = []
    reports: dict[str, str | None] = {"market": None, "news": None, "fundamental": None, "reflection": None}
    delivered_fundamentals = 0

    for i, session in enumerate(sessions):
        bar = series.bar_on(session)
        step = i + 1
        result = engine.step_session(bar)
        for fill in result.fills:
            action = order_actions.get(fill.order_id, Action.BUY)
            entry = TradeFill(executed_at=fill.executed_at, action=action, quantity=fill.quantity, price=fill.fill_price)
            all_fill_lines.append(entry)
            if steps:
                steps[-1].fills.append(
                    {"action": action.value, "quantity": fill.quantity, "price": str(fill.fill_price)}
                )
        equity_dates.append(session)
        equity_values.append(result.portfolio_value)
        state = result.portfolio
        exposures.append(float((state.shares_long + state.shares_short) * bar.close))

        # Reflection happens between decisions, looking back over the period.
        if config.uses_reflection and i > 0 and i % config.reflection_interval == 0:
            period = steps[-config.reflection_interval:]
            context = {
                "instrument": config.instrument,
                "reflection_interval": str(config.reflection_interval),
                "current_time": session.isoformat(),
                "action_interval": config.action_interval,
                "period_summary": _period_summary(period, inception),
                "complete_history": _complete_history(period),
            }
            report = opro.reflect(
                gateway, reflection_template, context, session, tags=(("step", str(step)),)
            )
            reports["reflection"] = report.text

        tags = (("step", str(step)), ("session", session.isoformat()))
        if market is not None:
            reports["market"] = market.report(market_context(config, timeline, i), session, tags).text
        if news is not None:
            lower = session - timedelta(days=3) if i == 0 else sessions[i - 1]
            batch = [item for item, day in zip(data.news, news_dates) if lower < day <= session]
            if batch:
                ctx = {
                    "instrument": config.instrument,
                    "session_start": config.window_start.isoformat(),
                    "session_end": config.window_end.isoformat(),
                    "current_time": session.isoformat(),
                    "joined_news": agents.render_news_batch(batch),
                }
                reports["news"] = news.report(ctx, session, tags).text
        if fundamental is not None and session in event_dates:
            available = [s for s in data.fundamentals if s.filing_date <= session]
            fresh = available[delivered_fundamentals:]
            ctx = {
                "instrument": config.instrument,
                "session_start": config.window_start.isoformat(),
                "session_end": config.window_end.isoformat(),
                "current_time": session.isoformat(),
                "action_interval": config.action_interval,
                "fundamental_data": agents.render_fundamental_data(fresh or available),
            }
            reports["fundamental"] = fundamental.report(ctx, session, tags).text
            delivered_fundamentals = len(available)

        ctx = agents.DecisionContext(
            instrument=config.instrument,
            window_start=config.window_start,
            window_end=config.window_end,
            now=session,
            action_interval=config.action_interval,
            has_bar=True,
            open=bar.open,
            high=bar.high,
            low=bar.low,
            close=bar.close,
            volume=bar.volume,
            market_analysis=reports["market"],
            news_analysis=reports["news"],
            fund_analysis=reports["fundamental"],
            reflection_analysis=reports["reflection"],
            shares_long=state.shares_long,
            shares_short=state.shares_short,
            portfolio_cash=state.cash,
            executed_orders=agents.recent_activity_text(all_fill_lines),
        )
        template = optimizer.live_template if cta.first_call else cta_followup
        outcome = cta.decide(template, ctx, tags=tags)
        if outcome.gave_up:
            decision_fallbacks += 1
        trace = _StepTrace(session=session, step=step, raw_decision=outcome.raw_text, value=result.portfolio_value)
        orders = agents.orders_from_specs(outcome.specs, submitted_at=session, id_prefix=f"d{step}")
        for order in orders:
            placed = engine.validate_and_queue(order, last_close=bar.close)
            if isinstance(placed, Rejection):
                trace.rejections.append(placed)
            else:
                order_actions[placed.id] = placed.action
                trace.orders.append(placed)
        steps.append(trace)

        if config.uses_opro and optimizer.is_boundary(step):
            optimizer.close_window(step, float(inception), float(result.portfolio_value))
            if step < total_steps:
                optimizer.propose_update(tags=tags)
                cta.reset()

    # Final partial (or boundary-coincident) window closes without an update.
    if config.uses_opro and not optimizer.is_boundary(total_steps):
        optimizer.close_window(total_steps, float(inception), float(equity_values[-1]))

    final_bar = series.bar_on(sessions[-1])
    cover_result = engine.force_cover(final_bar)
    for fill in cover_result.fills:
        all_fill_lines.append(
            TradeFill(executed_at=fill.executed_at, action=Action.SHORT_COVER, quantity=fill.quantity, price=fill.fill_price, forced=True)
        )

    trades = trades_from_audit(audit)
    report = compute_report(
        [float(v) for v in equity_values], trades, exposures=exposures
    )

    payload = {
        "metrics": report.to_dict(),
        "windows": [
            {
                "start_step": w.start_step,
                "end_step": w.end_step,
                "v_start": w.v_start,
                "v_end": w.v_end,
                "roi": w.roi,
                "score": w.score,
            }
            for w in optimizer.windows
        ],
        "equity": {
            "dates": [d.isoformat() for d in equity_dates],
            "values": [str(v) for v in equity_values],
        },
        "optimizer_calls": optimizer.optimizer_calls,
        "decision_fallbacks": decision_fallbacks,
    }
    (run_dir / "metrics.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    (run_dir / "config.lock").write_text(
        json.dumps({"config": json.loads(config.canonical_json()), "hash": config.config_hash()}, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    audit.close()
    gateway.close()
    optimizer.log.close()

    return RunArtifact(
        run_id=run_id,
        run_dir=run_dir,
        engine_log=engine_log_path,
        gateway_log=gateway_log_path,
        opro_log=opro_log_path,
        metrics=report,
        config_hash=config.config_hash(),
        equity_dates=equity_dates,
        equity_values=equity_values,
    )


def run_experiment(config: ExperimentConfig, out_root: Path | str | None = None):
    """The multi-run protocol: `config.runs` isolated runs plus aggregation."""
    data = load_data(config)
    root = Path(out_root) if out_root else Path(config.paths.get("out_dir", "runs"))
    exp_dir = root / config.experiment
    artifacts: list[RunArtifact] = []
    for idx in range(1, config.runs + 1):
        run_id = f"run-{idx}"
        artifacts.append(run_single(config, data, run_id, exp_dir / run_id))
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
        for d, v in zip(artifact.equity_dates, artifact.equity_values):
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
    byte-identical artifacts. Raises ReplayMismatch on any divergence."""
    run_dir = Path(run_dir)
    lock = json.loads((run_dir / "config.lock").read_text(encoding="utf-8"))
    config = ExperimentConfig.from_dict(lock["config"])
    if config.config_hash() != lock["hash"]:
        raise ReplayMismatch("config.lock hash does not match its config payload")

    replay_source = run_dir / "gateway.jsonl.replay-src"
    shutil.copyfile(run_dir / "gateway.jsonl", replay_source)
    config.providers = {"default": {"kind": "replay", "replay_path": str(replay_source)}}

    data = load_data(config)
    scratch = Path(scratch_dir) if scratch_dir else run_dir.parent / f"{run_dir.name}.replay"
    try:
        artifact = run_single(config, data, run_dir.name, scratch)
    except GatewayError as exc:
        raise ReplayMismatch(f"replay diverged: {exc}") from exc

    mismatched = []
    for name in ("engine.jsonl", "gateway.jsonl", "opro.jsonl", "metrics.json"):
        want = (run_dir / name).read_bytes()
        got = (scratch / name).read_bytes()
        if want != got:
            mismatched.append(name)
    replay_source.unlink(missing_ok=True)
    if mismatched:
        raise ReplayMismatch(f"replay artifacts differ: {', '.join(mismatched)}")
    return artifact
