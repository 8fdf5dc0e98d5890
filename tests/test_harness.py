"""End-to-end experiment orchestration on scripted providers."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from datetime import date, timedelta
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import tradeloop
from tradeloop import harness, indicators, metrics
from tradeloop.agents import FundamentalSnapshot, NewsItem
from tradeloop.bars import Bar, BarSeries, Lookback, Resolution, resample, serialize_bars
from tradeloop.cli import main
from tradeloop.engine import Action, ExecutionEngine, Fill, PortfolioState, SessionResult
from tradeloop.gateway import ChatRequest, request_hash
from tradeloop.harness import (
    ConfigError,
    DataError,
    ExperimentConfig,
    LoadedData,
    ReplayMismatch,
    _fmt_bar_line,
    _period_review,
    aggregate_and_report,
    fundamental_batches,
    load_data,
    market_context,
    news_batches,
    replay_run,
    run_experiment,
    session_context,
)
from tradeloop.strategies import StrategyConfig, StrategyKind, run_strategy
from tradeloop.templates import asset_path, load_template

from conftest import make_bar, rebuilt_requests, synthetic_daily

WINDOW_SESSIONS = 42
HISTORY_BARS = 160


def order_payload(action: str, qty: int) -> str:
    return json.dumps(
        [
            {
                "action": action,
                "orderType": "MARKET",
                "price": None,
                "quantity": qty,
                "explanation": "scripted",
            }
        ]
    )


def optimizer_payload(template_text: str) -> str:
    return "```json\n" + json.dumps(
        {
            "performance_analysis": "scripted analysis",
            "optimized_prompt": template_text,
            "key_improvements": "scripted improvements",
            "expected_impact": "scripted impact",
        }
    ) + "\n```"


def build_workspace(
    tmp_path: Path,
    mode: str = "adaptive_opro",
    runs: int = 1,
    ablations: dict | None = None,
    seed: int = 21,
    history_bars: int = HISTORY_BARS,
) -> ExperimentConfig:
    """Bars, news, fundamentals, and scripted providers for a 42-session run
    at the end of `history_bars` bars."""
    tmp_path.mkdir(parents=True, exist_ok=True)
    series = synthetic_daily(history_bars, seed=seed)
    dates = series.dates()
    window = dates[-WINDOW_SESSIONS:]
    bars_path = tmp_path / "bars.csv"
    bars_path.write_text(serialize_bars(series, "csv"), encoding="utf-8")

    news_path = tmp_path / "news.jsonl"
    news_items = [
        {"ts": f"{window[0].isoformat()}T12:00:00+00:00", "title": "Window opens", "url": "u", "summary": "s", "keywords": ["k"]},
        {"ts": f"{window[1].isoformat()}T09:30:00+00:00", "title": "Second day", "url": "u", "summary": "s"},
        {"ts": f"{window[5].isoformat()}T15:00:00+00:00", "title": "Mid-week item", "url": "u", "summary": "s"},
    ]
    news_path.write_text("\n".join(json.dumps(n) for n in news_items) + "\n", encoding="utf-8")

    fundamentals_path = tmp_path / "fundamentals.json"
    fundamentals = [
        {
            "filing_date": window[10].isoformat(),
            "period_label": "Q1",
            "revenue": 1.0e9,
            "cogs": 0.4e9,
            "operating_income": 0.3e9,
            "net_income": 0.25e9,
            "weighted_shares": 1.0e8,
            "ocf": 0.3e9,
            "icf": -0.1e9,
            "fcf_fin": -0.05e9,
            "total_debt": 0.2e9,
            "total_equity": 1.5e9,
        },
        {"filing_date": window[30].isoformat(), "period_label": "Q2", "revenue": 1.1e9, "net_income": 0.3e9},
    ]
    fundamentals_path.write_text(json.dumps(fundamentals), encoding="utf-8")

    improved_template = load_template("cta_initial").body + "\nScripted refinement: stay selective."
    sell_date = window[20].isoformat()

    providers = {
        "market": {
            "kind": "scripted",
            "script": [{"match": "", "response": "Scripted market analysis.", "times": None}],
        },
        "news": {
            "kind": "scripted",
            "script": [{"match": "", "response": "Scripted news analysis.", "times": None}],
        },
        "fundamental": {
            "kind": "scripted",
            "script": [{"match": "", "response": "Scripted fundamentals analysis.", "times": None}],
        },
        "reflection": {
            "kind": "scripted",
            "script": [{"match": "", "response": "Scripted reflection paragraph.", "times": None}],
        },
        "cta": {
            "kind": "scripted",
            "script": [
                {"response": order_payload("BUY", 100), "times": 1},
                {"match": f"**Current:** {sell_date}", "response": order_payload("SELL", 40), "times": 1},
                {"match": "", "response": "[]", "times": None},
            ],
        },
        "optimizer": {
            "kind": "scripted",
            "script": [{"match": "", "response": optimizer_payload(improved_template), "times": None}],
        },
    }

    config = {
        "experiment": f"exp-{mode}",
        "instrument": "SYNTH",
        "window_start": window[0].isoformat(),
        "window_end": window[-1].isoformat(),
        "prompting_mode": mode,
        "reflection_interval": 5,
        "opro_k": 5,
        "runs": runs,
        "initial_cash": "100000",
        "ablations": ablations or {},
        "providers": providers,
        "paths": {
            "bars": str(bars_path),
            "news": str(news_path),
            "fundamentals": str(fundamentals_path),
            "out_dir": str(tmp_path / "runs"),
        },
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return ExperimentConfig.from_file(config_path)


def gateway_roles(run_dir: Path) -> list[str]:
    roles = []
    for line in (run_dir / "gateway.jsonl").read_text(encoding="utf-8").splitlines():
        roles.append(json.loads(line)["tags"]["role"])
    return roles


def role_records(run_dir: Path, role: str) -> list[tuple[dict, ChatRequest]]:
    """The audit records of `role`, each with the request it rebuilds to."""
    return [pair for pair in rebuilt_requests(run_dir / "gateway.jsonl") if pair[0]["tags"]["role"] == role]


class TestRunExperiment:
    def test_baseline_mode_single_template_record(self, tmp_path):
        config = build_workspace(tmp_path, mode="baseline")
        artifacts, _ = run_experiment(config)
        opro_lines = (artifacts[0].run_dir / "opro.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(opro_lines) == 1
        record = json.loads(opro_lines[0])
        assert record["iteration"] == 1 and record["accepted"]

    def test_adaptive_opro_42_sessions_8_optimizer_calls(self, tmp_path):
        config = build_workspace(tmp_path, mode="adaptive_opro")
        artifacts, _ = run_experiment(config)
        payload = json.loads((artifacts[0].run_dir / "metrics.json").read_text(encoding="utf-8"))
        assert payload["optimizer_calls"] == 8
        roles = gateway_roles(artifacts[0].run_dir)
        assert roles.count("optimizer") == 8
        # windows close at 5,10,...,40 plus the final partial at 42
        ends = [w["end_step"] for w in payload["windows"]]
        assert ends == [5, 10, 15, 20, 25, 30, 35, 40, 42]
        # 9 opro ledger lines: inception + 8 accepted updates
        opro_lines = (artifacts[0].run_dir / "opro.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(opro_lines) == 9

    def test_equity_curve_one_value_per_session(self, tmp_path):
        config = build_workspace(tmp_path)
        artifacts, bundle = run_experiment(config)
        payload = json.loads((artifacts[0].run_dir / "metrics.json").read_text(encoding="utf-8"))
        assert len(payload["equity"]["values"]) == WINDOW_SESSIONS
        equity_csv = bundle["equity_csvs"]["run-1"]
        assert len(equity_csv.strip().splitlines()) == WINDOW_SESSIONS + 1  # header

    def test_session_zero_value_is_inception_cash(self, tmp_path):
        config = build_workspace(tmp_path)
        artifacts, _ = run_experiment(config)
        payload = json.loads((artifacts[0].run_dir / "metrics.json").read_text(encoding="utf-8"))
        assert Decimal(payload["equity"]["values"][0]) == Decimal("100000")

    def test_scripted_orders_fill_and_count(self, tmp_path):
        config = build_workspace(tmp_path)
        artifacts, _ = run_experiment(config)
        report = artifacts[0].metrics
        assert report.num_trades == 2  # scripted BUY then partial SELL
        assert report.win_rate_pct in (0.0, 100.0)

    def test_analyst_cadence_counts(self, tmp_path):
        config = build_workspace(tmp_path, mode="adaptive_opro")
        artifacts, _ = run_experiment(config)
        roles = gateway_roles(artifacts[0].run_dir)
        assert roles.count("market") == WINDOW_SESSIONS
        assert roles.count("news") == 3  # sessions with news items
        assert roles.count("fundamental") == 2  # two filing dates
        assert roles.count("cta") == WINDOW_SESSIONS
        assert roles.count("reflection") == 0
        # never more than one call per analyst per session
        records = [
            json.loads(line)
            for line in (artifacts[0].run_dir / "gateway.jsonl").read_text(encoding="utf-8").splitlines()
        ]
        for role in ("market", "news", "fundamental"):
            steps = [r["tags"]["step"] for r in records if r["tags"]["role"] == role]
            assert len(steps) == len(set(steps))

    def test_reflection_mode_cadence(self, tmp_path):
        config = build_workspace(tmp_path, mode="reflection")
        artifacts, _ = run_experiment(config)
        roles = gateway_roles(artifacts[0].run_dir)
        # i in {5,10,...,40}: 8 reviews for 42 sessions at interval 5
        assert roles.count("reflection") == 8
        assert roles.count("optimizer") == 0

    def test_reflection_text_reaches_next_prompt(self, tmp_path):
        config = build_workspace(tmp_path, mode="reflection")
        artifacts, _ = run_experiment(config)
        cta_after_reflection = [
            request for r, request in role_records(artifacts[0].run_dir, "cta") if int(r["tags"]["step"]) > 5
        ]
        assert any(
            "Scripted reflection paragraph." in request.messages[-1].text
            for request in cta_after_reflection
        )

    def test_malformed_decision_falls_back_to_no_action(self, tmp_path):
        config = build_workspace(tmp_path, mode="baseline")
        config.providers["cta"] = {
            "kind": "scripted",
            "script": [
                # three garbage replies: initial ask plus two re-asks, then give up
                {"match": "", "response": "no json today", "times": 3},
                {"match": "", "response": "[]", "times": None},
            ],
        }
        artifacts, _ = run_experiment(config)
        payload = json.loads((artifacts[0].run_dir / "metrics.json").read_text(encoding="utf-8"))
        assert payload["decision_fallbacks"] == 1
        # the run survived: every session still decided, nothing traded
        assert len(payload["equity"]["values"]) == WINDOW_SESSIONS
        assert artifacts[0].metrics.num_trades == 0
        roles = gateway_roles(artifacts[0].run_dir)
        assert roles.count("cta") == WINDOW_SESSIONS + 2  # two extra re-asks

    def test_k1_window_boundaries(self, tmp_path):
        config = build_workspace(tmp_path, mode="adaptive_opro")
        config.opro_k = 1
        artifacts, _ = run_experiment(config)
        payload = json.loads((artifacts[0].run_dir / "metrics.json").read_text(encoding="utf-8"))
        # a window closes after every decision; the last one triggers no update
        assert payload["optimizer_calls"] == WINDOW_SESSIONS - 1
        assert [w["end_step"] for w in payload["windows"]] == list(range(1, WINDOW_SESSIONS + 1))

    def test_one_day_reflection_variant(self, tmp_path):
        config = build_workspace(tmp_path, mode="reflection")
        config.reflection_interval = 1
        artifacts, _ = run_experiment(config)
        roles = gateway_roles(artifacts[0].run_dir)
        # one review between every pair of decisions: i in 1..41
        assert roles.count("reflection") == WINDOW_SESSIONS - 1

    def test_short_position_force_covered_at_window_end(self, tmp_path):
        config = build_workspace(tmp_path, mode="baseline")
        config.providers["cta"] = {
            "kind": "scripted",
            "script": [
                {"response": order_payload("SHORT", 50), "times": 1},
                {"match": "", "response": "[]", "times": None},
            ],
        }
        artifacts, _ = run_experiment(config)
        events = [
            json.loads(line)
            for line in (artifacts[0].run_dir / "engine.jsonl").read_text(encoding="utf-8").splitlines()
        ]
        forced = [e for e in events if e["type"] == "FORCED_COVER"]
        assert len(forced) == 1 and forced[0]["quantity"] == 50
        summaries = [e for e in events if e["type"] == "SESSION_SUMMARY"]
        assert summaries[-1]["shares_short"] == 0
        # the forced cover closes the short round trip but is not a trade
        assert artifacts[0].metrics.num_trades == 1
        assert artifacts[0].metrics.win_rate_pct in (0.0, 100.0)
        assert artifacts[0].metrics.profit_per_trade is not None

    def test_no_news_ablation_zero_calls_and_elided_block(self, tmp_path):
        config = build_workspace(tmp_path, ablations={"no_news": True})
        artifacts, _ = run_experiment(config)
        roles = gateway_roles(artifacts[0].run_dir)
        assert roles.count("news") == 0
        cta_prompts = [request.messages[-1].text for _, request in role_records(artifacts[0].run_dir, "cta")]
        assert all("### News Analysis" not in p for p in cta_prompts)

    def test_no_market_ablation(self, tmp_path):
        config = build_workspace(tmp_path, ablations={"no_market": True})
        artifacts, _ = run_experiment(config)
        assert gateway_roles(artifacts[0].run_dir).count("market") == 0

    def test_template_swap_renders_updated_instructions(self, tmp_path):
        config = build_workspace(tmp_path, mode="adaptive_opro")
        artifacts, _ = run_experiment(config)
        cta_first_messages = [request.messages[0].text for _, request in role_records(artifacts[0].run_dir, "cta")]
        assert any("Scripted refinement: stay selective." in m for m in cta_first_messages)

    def test_three_run_protocol_produces_isolated_dirs(self, tmp_path):
        config = build_workspace(tmp_path, runs=3)
        artifacts, bundle = run_experiment(config)
        assert [a.run_id for a in artifacts] == ["run-1", "run-2", "run-3"]
        assert len({a.run_dir for a in artifacts}) == 3
        # identical scripts -> identical metrics; the aggregate has zero std
        assert bundle["aggregate"]["roi_pct"].std == pytest.approx(0.0)

    def test_timeline_is_built_once_per_experiment(self, tmp_path, monkeypatch):
        """The three runs share one timeline, and each sends the same market
        requests: nothing a run reads from it changes it."""
        built = []
        original = indicators.market_texts
        monkeypatch.setattr(indicators, "market_texts", lambda *args: built.append(args) or original(*args))
        artifacts, _ = run_experiment(build_workspace(tmp_path, runs=3))
        assert len(built) == 1
        first, *rest = [(a.run_dir / "gateway.jsonl").read_bytes() for a in artifacts]
        assert rest == [first, first]

    def test_no_timeline_without_the_market_analyst(self, tmp_path):
        assert load_data(build_workspace(tmp_path, ablations={"no_market": True})).market_texts is None

    def test_no_news_batches_without_the_news_analyst(self, tmp_path):
        assert load_data(build_workspace(tmp_path, ablations={"no_news": True})).news_batches is None

    def test_no_fundamental_batches_without_the_fundamental_analyst(self, tmp_path):
        assert load_data(build_workspace(tmp_path, ablations={"no_fundamental": True})).fundamental_batches is None

    def test_malformed_fundamentals_fail_also_without_the_fundamental_analyst(self, tmp_path, capsys):
        """The fundamentals file is read and checked whatever the ablations, as the news file is."""
        build_workspace(tmp_path, ablations={"no_fundamental": True})
        (tmp_path / "fundamentals.json").write_text('[{"period_label": "Q1"}]', encoding="utf-8")
        assert main(["run", "--config", str(tmp_path / "config.json")]) == 3
        assert capsys.readouterr().err.startswith("data error: bad fundamentals file ")

    def test_config_lock_is_config_and_hash_as_sorted_json(self, tmp_path):
        """config.lock is encoded once and must equal the encoder's bytes,
        here over an inline script, non-ASCII text, newlines and empty
        containers."""
        config = build_workspace(tmp_path)
        config.providers = config.providers | {
            "default": {},
            "reflection": {"kind": "scripted", "script": []},
            "news": {"kind": "scripted", "script": [{"match": "", "response": "Café 🙂 \u2028 line\nbreak", "times": None}]},
        }
        config.ablations = {}
        config.experiment = "expérience"
        artifacts, _ = run_experiment(config)
        config_json = json.loads(json.dumps(config.__dict__, default=date.isoformat))
        digest = hashlib.sha256(json.dumps(config_json, indent=2, sort_keys=True).encode("utf-8")).hexdigest()
        want = json.dumps({"config": config_json, "hash": digest}, indent=2, sort_keys=True) + "\n"
        assert (artifacts[0].run_dir / "config.lock").read_text(encoding="utf-8") == want
        replay_run(artifacts[0].run_dir)

    def test_braces_in_model_text_pass_through_verbatim(self, tmp_path):
        config = build_workspace(tmp_path, mode="baseline")
        reply = "Range-bound; watch {{ resistance }}"
        config.providers["market"] = {"kind": "scripted", "script": [{"match": "", "response": reply, "times": None}]}
        artifacts, _ = run_experiment(config)
        records = [
            json.loads(line)
            for line in (artifacts[0].run_dir / "gateway.jsonl").read_text(encoding="utf-8").splitlines()
        ]
        assert all(r["response"]["text"] == reply for r in records if r["tags"]["role"] == "market")
        cta_prompts = [request.messages[-1].text for _, request in role_records(artifacts[0].run_dir, "cta")]
        assert len(cta_prompts) == WINDOW_SESSIONS and all(reply in p for p in cta_prompts)

    def test_one_session_window_scores_roi_0_and_replays(self, tmp_path):
        config = build_workspace(tmp_path, mode="adaptive_opro")
        obj = json.loads((tmp_path / "config.json").read_text(encoding="utf-8"))
        obj["window_start"] = (config.window_end - timedelta(days=1)).isoformat()
        (tmp_path / "config.json").write_text(json.dumps(obj), encoding="utf-8")
        assert main(["run", "--config", str(tmp_path / "config.json")]) == 0
        run_dir = tmp_path / "runs" / "exp-adaptive_opro" / "run-1"
        payload = json.loads((run_dir / "metrics.json").read_text(encoding="utf-8"))
        assert payload["equity"]["dates"] == [config.window_end.isoformat()]
        assert payload["metrics"]["roi_pct"] == 0.0
        assert main(["replay", "--run", str(run_dir)]) == 0

    def test_float_initial_cash_books_its_json_digits(self, tmp_path):
        build_workspace(tmp_path, mode="baseline")
        obj = json.loads((tmp_path / "config.json").read_text(encoding="utf-8"))
        obj["initial_cash"] = 100000.1
        artifacts, _ = run_experiment(ExperimentConfig.from_dict(obj))
        events = [json.loads(line) for line in (artifacts[0].run_dir / "engine.jsonl").read_text(encoding="utf-8").splitlines()]
        summary = next(event for event in events if event["type"] == "SESSION_SUMMARY")
        assert summary["cash"] == "100000.1"
        assert summary["portfolio_value"] == "100000.10"  # cash plus no shares at a 2-decimal close
        assert artifacts[0].equity[0][1] == Decimal("100000.1")

    def test_run_dir_layout(self, tmp_path):
        config = build_workspace(tmp_path)
        artifacts, _ = run_experiment(config)
        names = sorted(p.name for p in artifacts[0].run_dir.iterdir())
        assert names == ["config.lock", "engine.jsonl", "gateway.jsonl", "metrics.json", "opro.jsonl"]


def record_sessions(monkeypatch) -> tuple[list, list]:
    """Every engine session from now on as (bar, result), and every forced
    cover's result."""
    sessions: list = []
    covers: list = []
    step, cover = ExecutionEngine.step_session, ExecutionEngine.force_cover

    def stepped(engine, bar):
        sessions.append((bar, step(engine, bar)))
        return sessions[-1][1]

    def covered(engine, bar):
        covers.append(cover(engine, bar))
        return covers[-1]

    monkeypatch.setattr(ExecutionEngine, "step_session", stepped)
    monkeypatch.setattr(ExecutionEngine, "force_cover", covered)
    return sessions, covers


def report_from_sessions(sessions: list, covers: list, initial: Decimal) -> metrics.MetricReport:
    """The report of recorded sessions, read straight from their results:
    every fill, forced covers last, and each exposure as a Decimal product."""
    trades = [fill for _, result in sessions for fill in result.fills] + [fill for c in covers for fill in c.fills]
    return metrics.compute_report(
        [float(result.portfolio_value) for _, result in sessions],
        trades,
        exposures=[
            float((result.portfolio.shares_long + result.portfolio.shares_short) * bar.close) for bar, result in sessions
        ],
        initial=float(initial),
    )


class TestReportFromEngine:
    """Baselines and agent runs build their report from the engine's own
    session results and trades."""

    def test_baseline_report_is_the_sessions_report(self, monkeypatch):
        sessions, covers = record_sessions(monkeypatch)
        result = run_strategy(StrategyConfig(kind=StrategyKind.SMA), synthetic_daily(300, seed=17))
        assert covers == [] and any(r.fills for _, r in sessions)
        assert result.engine.results == [r for _, r in sessions]
        assert result.report == report_from_sessions(sessions, [], Decimal(100_000))

    def test_agent_report_counts_the_forced_cover(self, tmp_path, monkeypatch):
        config = build_workspace(tmp_path, mode="baseline")
        config.providers["cta"] = {
            "kind": "scripted",
            "script": [
                {"response": order_payload("SHORT", 50), "times": 1},
                {"match": "", "response": "[]", "times": None},
            ],
        }
        sessions, covers = record_sessions(monkeypatch)
        artifacts, _ = run_experiment(config)
        assert len(sessions) == WINDOW_SESSIONS
        assert [f.forced for c in covers for f in c.fills] == [True]
        assert artifacts[0].metrics == report_from_sessions(sessions, covers, Decimal(config.initial_cash))
        # Without the cover the short round trip stays open and no trip counts.
        assert artifacts[0].metrics.profit_per_trade is not None


class TestDeterminism:
    def test_two_executions_byte_identical(self, tmp_path):
        config_a = build_workspace(tmp_path / "a", mode="adaptive_opro")
        config_b = build_workspace(tmp_path / "b", mode="adaptive_opro")
        arts_a, _ = run_experiment(config_a)
        arts_b, _ = run_experiment(config_b)
        for name in ("engine.jsonl", "gateway.jsonl", "opro.jsonl", "metrics.json"):
            a = (arts_a[0].run_dir / name).read_bytes()
            b = (arts_b[0].run_dir / name).read_bytes()
            assert a == b, name


# SHA-256 of the compared artifacts of one scripted adaptive_opro_with_reflection
# run over the last 42 of 300 bars (2024-12-27 to 2025-02-24), where SMA 200,
# the levels and all three timeframes have values. Any change to prompt text,
# indicator values, fills or artifact formats changes them. Computed on
# CPython 3.11; from 3.12 on, sum() of floats is compensated, which can move
# the last digit of an indicator and so these digests.
GOLDEN_BARS = 300
GOLDEN_DIGESTS = {
    "engine.jsonl": "eb45b6e6e7976d9b493e80d67a7a46c410b7b805be15c3fb517248d46a01ca65",
    "gateway.jsonl": "4485a9150947f422dcd36d01a10353dfbf683ef454e133d400081d1bdbb74263",
    "opro.jsonl": "593e21fa9de4584d3c9c33e2f4e4a96a2ce92eaa07e9b3561d16c14753f006e7",
    "metrics.json": "68b85a0dec261ce07128a020752b98f8fde3aa4196a27cbbc09143e5c7470436",
}


# The same inputs in `reflection` mode, where the trading agent's conversation
# is never reset, so every decision request carries the whole run so far.
GOLDEN_REFLECTION_DIGESTS = {
    "engine.jsonl": "eb45b6e6e7976d9b493e80d67a7a46c410b7b805be15c3fb517248d46a01ca65",
    "gateway.jsonl": "3e6bca1e030d0d10acafbd2ce57ee8386102ec75a5ddd4fc6a86aec4cfd46245",
    "opro.jsonl": "b8b23e2f720bb1d494cdbd9372ee697e8166691e45be114741c067169148e663",
    "metrics.json": "bf5f121ae40ad7fedc3dc5acb9f652ce4ec0bcb652715e290fba0ad634a39445",
}


# The reflection inputs with a trading agent whose first five decisions take
# every branch of the period review: LIMIT and STOP orders with their prices,
# rejected orders (a SELL with nothing held, a BUY beyond the cash) left out,
# orders cancelled unfilled, two fills of one session, and a fill booked at
# the reviewing session itself. The first review reads REVIEW_PERIOD.
REVIEW_DECISIONS = {
    0: [("BUY", 100, "MARKET", None), ("BUY", 10, "LIMIT", 1.0), ("BUY", 10, "STOP", 1.0), ("SELL", 5, "MARKET", None)],
    1: [("BUY", 10_000_000, "MARKET", None)],
    2: [("SELL", 30, "LIMIT", 100000.0), ("SELL", 20, "STOP", 100000.0)],
    3: [("SELL", 10, "MARKET", None)],
    4: [("SELL", 10, "MARKET", None)],
}
REVIEW_PERIOD = """\
Sessions 2024-12-27 -> 2025-01-02 | portfolio value 100000.00 -> 100103.10 (+0.10%) | orders submitted 7 | fills 5

## COMPLETE DECISION HISTORY FOR PERIOD
2024-12-27 (step 1): decided [BUY 100 MARKET; BUY 10 LIMIT @ 1.00; BUY 10 STOP @ 1.00] | filled [BUY 100 @ 140.13; BUY 10 @ 140.13] | value 100000.00
2024-12-30 (step 2): decided [no orders] | filled [no fills] | value 100191.40
2024-12-31 (step 3): decided [SELL 30 LIMIT @ 100000.00; SELL 20 STOP @ 100000.00] | filled [SELL 20 @ 146.62] | value 100570.90
2025-01-01 (step 4): decided [SELL 10 MARKET] | filled [SELL 10 @ 141.30] | value 100299.00
2025-01-02 (step 5): decided [SELL 10 MARKET] | filled [SELL 10 @ 139.43] | value 100103.10
"""
GOLDEN_REVIEW_GATEWAY_DIGEST = "5628ee5eb5dbb122424fc540b3b451fdc16a10cd4c8ce50d4aaf38530b6294c8"


# The adaptive_opro_with_reflection inputs with replies that take every re-ask
# and rejection path: an unparseable optimizer reply and then a candidate
# accepted at the second attempt; a candidate that adds a placeholder, three
# times; three unparseable replies; a candidate that drops a placeholder and
# then two unparseable replies (the record keeps that candidate); and a
# trading-agent decision that gives up after three malformed replies.
GOLDEN_REJECTION_DIGESTS = {
    "engine.jsonl": "eb45b6e6e7976d9b493e80d67a7a46c410b7b805be15c3fb517248d46a01ca65",
    "gateway.jsonl": "cf7e3161a26fb45b2b06e37d81477af0193aa4df2d1569d7935bf8a07bcceb17",
    "opro.jsonl": "c6aab6da829ad18ff44d8e3145d44c371206ac4daa15dd66ba46984767050a8c",
    "metrics.json": "c768b3c56aaf7c10a922c3e26e6975c00ccd3a8ae79ab464b0f7c485563ff0a6",
}


def rejection_providers(config: ExperimentConfig, lead: tuple[str, ...] = ()) -> dict:
    """The rejection replies; the optimizer's first replies are `lead`."""
    base = load_template("cta_initial").body
    improved = base + "\nScripted refinement: stay selective."
    optimizer_replies = [
        *lead,
        "I would rather not use a fence.",
        optimizer_payload(improved),
        optimizer_payload(improved + "\nWatch {{ sneaky_new_var }}."),
        optimizer_payload(improved + "\nWatch {{ sneaky_new_var }}."),
        optimizer_payload(improved + "\nWatch {{ sneaky_new_var }}."),
        "```json\n" + json.dumps({"performance_analysis": "a", "optimized_prompt": "p"}) + "\n```",
        "```json\n[1, 2]\n```",
        "no fence at all",
        optimizer_payload(improved.replace("${{ portfolio_cash }}", "$CASH")),
        "```json\n{not json}\n```",
        "still no fence",
    ]
    sessions = load_data(config).sessions
    giveup = f"**Current:** {sessions[12].isoformat()}"
    providers = dict(config.providers)
    providers["optimizer"] = {
        "kind": "scripted",
        "script": [{"step": n, "response": reply} for n, reply in enumerate(optimizer_replies, start=1)]
        + [{"match": "", "response": optimizer_payload(base + "\nScripted refinement: be patient."), "times": None}],
    }
    cta = providers["cta"]["script"]
    malformed = ["no json today", '{"action": "BUY"}', '[{"action": "buy"}]']
    providers["cta"] = {
        "kind": "scripted",
        "script": cta[:2] + [{"match": giveup, "response": r, "times": 1} for r in malformed] + cta[2:],
    }
    return providers


# The rejection inputs with `roi_mode` "windowed", where the optimizer's first
# proposal gets three candidates that do not parse as templates, so its ledger
# line records the PARSE_ERROR of the last one and keeps that candidate.
GOLDEN_WINDOWED_PARSE_ERROR_DIGESTS = {
    "engine.jsonl": "eb45b6e6e7976d9b493e80d67a7a46c410b7b805be15c3fb517248d46a01ca65",
    "gateway.jsonl": "98310ad36858dfcb3e186321f62b53182b9725f5d4bc423ab6b6674079748147",
    "opro.jsonl": "2b378e5f475504f8d0a6af4fce34aa03ed7ddc7a7ded1215f25da0738c0f3da9",
    "metrics.json": "52faf9797cb69b039a2f76bea49aabc4a543cedd80860747037102c6ffaf1a7f",
}
UNPARSEABLE_CANDIDATE = load_template("cta_initial").body + "\n{% if broken %}"


class TestPeriodReview:
    def summary(self, values: list[str]) -> str:
        """The summary of a period over sessions marked at `values`, reviewed
        at one more session."""
        results = [
            SessionResult(make_bar(date(2025, 1, 6) + timedelta(days=n), 10, 10, 10, 10), (), (), (), PortfolioState(Decimal(value), 0, 0))
            for n, value in enumerate([*values, "0"])
        ]
        return _period_review(results, 0, len(values), Decimal(100_000))["period_summary"]

    def test_return_counts_from_a_positive_start(self):
        assert "portfolio value 100.00 -> 150.00 (+50.00%)" in self.summary(["100", "150"])

    @pytest.mark.parametrize("end, roi", [("-50", "-100.05%"), ("-150", "-100.15%")])
    def test_return_counts_from_the_inception_cash_after_a_start_below_zero(self, end, roi):
        """A short squeezed past the cash leaves a negative value; as in a
        windowed score, the return then counts from the inception cash."""
        assert f"portfolio value -100.00 -> {end}.00 ({roi})" in self.summary(["-100", end])


class TestGoldenDigests:
    def run_dir(
        self, tmp_path: Path, mode: str, rejections: bool = False, lead: tuple[str, ...] = (), roi_mode: str = "cumulative"
    ) -> Path:
        config = build_workspace(tmp_path, mode=mode, history_bars=GOLDEN_BARS)
        config.roi_mode = roi_mode
        if rejections:
            config.providers = rejection_providers(config, lead)
        artifacts, _ = run_experiment(config)
        return artifacts[0].run_dir

    def digests(self, run_dir: Path) -> dict[str, str]:
        return {name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest() for name in GOLDEN_DIGESTS}

    def test_scripted_run_matches_pinned_digests(self, tmp_path):
        assert self.digests(self.run_dir(tmp_path, "adaptive_opro_with_reflection")) == GOLDEN_DIGESTS

    def test_reflection_run_matches_pinned_digests(self, tmp_path):
        assert self.digests(self.run_dir(tmp_path, "reflection")) == GOLDEN_REFLECTION_DIGESTS

    def test_reflection_review_of_every_order_kind_matches_pinned_digest(self, tmp_path):
        config = build_workspace(tmp_path, mode="reflection", history_bars=GOLDEN_BARS)
        sessions = load_data(config).sessions

        def reply(decisions: list[tuple]) -> str:
            return json.dumps(
                [{"action": a, "orderType": t, "price": p, "quantity": q, "explanation": "scripted"} for a, q, t, p in decisions]
            )

        script = [{"match": f"**Current:** {sessions[k]}", "response": reply(d), "times": 1} for k, d in REVIEW_DECISIONS.items()]
        config.providers["cta"] = {"kind": "scripted", "script": script + [{"match": "", "response": "[]", "times": None}]}
        run_dir = run_experiment(config)[0][0].run_dir
        _, first = role_records(run_dir, "reflection")[0]
        assert "## PERIOD PERFORMANCE OVERVIEW\n" + REVIEW_PERIOD + "\n## YOUR COACHING TASK" in first.messages[-1].text
        assert hashlib.sha256((run_dir / "gateway.jsonl").read_bytes()).hexdigest() == GOLDEN_REVIEW_GATEWAY_DIGEST

    def test_rejection_paths_match_pinned_digests(self, tmp_path):
        run_dir = self.run_dir(tmp_path, "adaptive_opro_with_reflection", rejections=True)
        records = [json.loads(line) for line in (run_dir / "opro.jsonl").read_text(encoding="utf-8").splitlines()]
        assert [(r["accepted"], r["reject_reason"]) for r in records[1:5]] == [
            (True, None),
            (False, "EXTRA_PLACEHOLDER: sneaky_new_var"),
            (False, "BAD_FENCE: BAD_FENCE: no ```json fenced block found"),
            (False, "BAD_FENCE: BAD_FENCE: no ```json fenced block found"),
        ]
        assert "{{ sneaky_new_var }}" in records[2]["template_text"]
        assert records[3]["template_text"] == ""
        assert "$CASH" in records[4]["template_text"]
        payload = json.loads((run_dir / "metrics.json").read_text(encoding="utf-8"))
        assert payload["decision_fallbacks"] == 1
        assert self.digests(run_dir) == GOLDEN_REJECTION_DIGESTS

    def test_windowed_parse_error_matches_pinned_digests(self, tmp_path):
        lead = (optimizer_payload(UNPARSEABLE_CANDIDATE),) * 3
        run_dir = self.run_dir(tmp_path, "adaptive_opro_with_reflection", rejections=True, lead=lead, roi_mode="windowed")
        records = [json.loads(line) for line in (run_dir / "opro.jsonl").read_text(encoding="utf-8").splitlines()]
        assert (records[1]["accepted"], records[1]["reject_reason"]) == (
            False,
            "PARSE_ERROR: UNBALANCED_CONDITIONAL: unclosed {% if %}",
        )
        assert records[1]["template_text"] == UNPARSEABLE_CANDIDATE
        windows = json.loads((run_dir / "metrics.json").read_text(encoding="utf-8"))["windows"]
        assert all(w["v_start"] == prev["v_end"] for prev, w in zip(windows, windows[1:]))
        assert self.digests(run_dir) == GOLDEN_WINDOWED_PARSE_ERROR_DIGESTS

    def test_every_record_hashes_as_its_rebuilt_request(self, tmp_path):
        """Each record's `request_hash` is the reference hash of the whole
        request it rebuilds to, through proposals accepted and rejected and
        the optimizer's and the trading agent's re-asks."""
        run_dir = self.run_dir(tmp_path, "adaptive_opro_with_reflection", rejections=True)
        pairs = rebuilt_requests(run_dir / "gateway.jsonl")
        optimizer = [record["tags"]["attempt"] for record, _ in pairs if record["tags"]["role"] == "optimizer"]
        assert optimizer.count("1") >= 8 and "3" in optimizer
        assert all(record["request_hash"] == request_hash(rebuilt) for record, rebuilt in pairs)

    def test_two_processes_write_the_pinned_artifacts(self, tmp_path):
        """The scripted run writes the same compared artifacts in two fresh
        processes with different hash seeds and working directories."""
        build_workspace(tmp_path, mode="adaptive_opro_with_reflection", history_bars=GOLDEN_BARS)
        config = json.loads((tmp_path / "config.json").read_text(encoding="utf-8"))
        config["paths"]["out_dir"] = "runs"  # each process writes under its own working directory
        (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
        src = str(Path(tradeloop.__file__).parents[1])
        digests = []
        for hash_seed in ("0", "4242"):
            cwd = tmp_path / f"cwd-{hash_seed}"
            cwd.mkdir()
            env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
            argv = [sys.executable, "-m", "tradeloop.cli", "run", "--config", str(tmp_path / "config.json")]
            subprocess.run(argv, cwd=cwd, env=env, check=True, capture_output=True, timeout=300)
            digests.append(self.digests(cwd / "runs" / config["experiment"] / "run-1"))
        assert digests == [GOLDEN_DIGESTS, GOLDEN_DIGESTS]


def reference_multi_timeframe_text(series: BarSeries, as_of: date) -> str:
    """The multi-timeframe text from plain date filters over the history."""
    history = [b for b in series.bars if b.session_date <= as_of]

    def since(lookback: Lookback) -> BarSeries:
        start = lookback.before(as_of)
        return BarSeries(series.symbol, series.resolution, tuple(b for b in history if b.session_date > start))

    monthly = resample(since(Lookback(years=2)), Resolution.MONTHLY)
    weekly = resample(since(Lookback(months=6)), Resolution.WEEKLY)
    daily = since(Lookback(months=3))
    sections = []
    for label, sub, cap in (("Monthly (2y)", monthly, 24), ("Weekly (6m)", weekly, 26), ("Daily (3m)", daily, 63)):
        lines = [_fmt_bar_line(b) for b in sub.bars[-cap:]]
        sections.append(f"{label}:\n" + ("\n".join(lines) if lines else "no data"))
    return "\n\n".join(sections)


def reference_market_context(series: BarSeries, session: date) -> dict:
    """The market analyst's values rebuilt from scratch on the history up to `session`."""
    history = series.up_to(session)
    parts = [indicators.format_for_prompt(indicators.snapshot(history))]
    if len(history) >= 5:
        parts.append(indicators.format_levels(indicators.detect_levels(history)))
    return {
        "extended_intervals_analysis": reference_multi_timeframe_text(series, session),
        "formatted_indicators": "\n".join(parts),
    }


# SHA-256 of every session's market values, with both placeholders named,
# over the last 42 of 2000 bars of `build_workspace` (2031-07-04 to
# 2031-09-01), as JSON with sorted keys. Computed before the levels became
# incremental; CPython 3.11, as the digests above.
GOLDEN_MARKET_CONTEXT_DIGEST = "de8d03d5afcb7075f940aeb052fb765366625b4998fd01f3aa633c6a1cea3287"


class TestMarketTimeline:
    """Each session's market values from the once-per-experiment timeline
    equal the ones rebuilt from that session's history."""

    def assert_contexts_match(self, series: BarSeries, sessions: list[date]) -> None:
        data = LoadedData.of(series, sessions)
        names = frozenset({"extended_intervals_analysis", "formatted_indicators"})
        for k, session in enumerate(sessions):
            assert market_context(data, k, names) == reference_market_context(series, session), session

    def test_histories_of_one_to_six_bars(self):
        # 1-2 bars: no levels at all; 3-4 bars: extrema need 5; 5-6 bars: levels render.
        series = synthetic_daily(6, seed=4)
        self.assert_contexts_match(series, series.dates())

    def test_month_and_iso_year_boundaries_short_history(self):
        # Nov 2024 to Jan 2025: SMA 200 is n/a throughout, 2024-12-30 opens ISO
        # week 1 of 2025, and the last two sessions are the series' last bars.
        series = synthetic_daily(60, seed=5, start=date(2024, 11, 1))
        assert series.dates()[-1] == date(2025, 1, 23)
        self.assert_contexts_match(series, series.dates())

    def test_feb_29_as_of_clamps_lookbacks(self):
        # Three years of history; the sessions stop before the series does.
        series = synthetic_daily(800, seed=6, start=date(2021, 3, 1))
        sessions = [d for d in series.dates() if date(2024, 2, 26) <= d <= date(2024, 3, 5)]
        assert date(2024, 2, 29) in sessions and sessions[-1] < series.dates()[-1]
        self.assert_contexts_match(series, sessions)

    def test_last_two_bars_of_long_series(self):
        series = synthetic_daily(260, seed=8)
        self.assert_contexts_match(series, series.dates()[-2:])

    def test_long_history_matches_pinned_digest(self, tmp_path):
        data = load_data(build_workspace(tmp_path, history_bars=2000))
        names = frozenset({"extended_intervals_analysis", "formatted_indicators"})
        contexts = [market_context(data, k, names) for k in range(len(data.sessions))]
        assert (len(contexts), len(data.bars)) == (42, 2000)
        digest = hashlib.sha256(json.dumps(contexts, sort_keys=True).encode("utf-8")).hexdigest()
        assert digest == GOLDEN_MARKET_CONTEXT_DIGEST


def old_news_batches(items: list[NewsItem], sessions: list[date]) -> tuple:
    """The per-session filter over every item that `news_batches` replaced,
    kept as its oracle."""
    news_dates = [date.fromisoformat(item.ts[:10]) for item in items]
    batches = []
    for i, session in enumerate(sessions):
        lower = session - timedelta(days=3) if i == 0 else sessions[i - 1]
        batches.append(tuple(item for item, day in zip(items, news_dates) if lower < day <= session))
    return tuple(batches)


class TestNewsBatches:
    START = date(2024, 6, 3)

    @given(session_days=st.sets(st.integers(0, 20), min_size=1), item_days=st.lists(st.integers(-6, 24), max_size=12))
    @example(session_days={3, 4, 7}, item_days=[7, 0, -1, 3, 3, 5, 8, 4, 1])
    def test_batches_are_the_old_filter(self, session_days, item_days):
        """Items in any order and on equal dates, before the first session's
        3-day lookback, after the last session and on days between sessions."""
        sessions = [self.START + timedelta(days=d) for d in sorted(session_days)]
        items = [
            NewsItem(ts=f"{self.START + timedelta(days=d)}T09:{n:02d}:00Z", title=f"item {n}", url="", summary="")
            for n, d in enumerate(item_days)
        ]
        assert news_batches(items, sessions) == old_news_batches(items, sessions)


def old_fundamental_batches(filings: list[FundamentalSnapshot], action_dates: list[date], sessions: list[date]) -> tuple:
    """The per-session filter over every filing that `fundamental_batches`
    replaced, kept as its oracle: at each session with a filing or action
    dated after the session before it and on or before it (at the first
    session, on it), the filings since the last such session, or every filing
    so far if there are none."""
    event_dates = [snap.filing_date for snap in filings] + list(action_dates)
    batches = []
    delivered = 0
    previous = None
    for session in sessions:
        since = [d for d in event_dates if (d == session if previous is None else previous < d <= session)]
        previous = session
        if not since:
            batches.append(None)
            continue
        available = [snap for snap in filings if snap.filing_date <= session]
        fresh = available[delivered:]
        batches.append(tuple(fresh or available))
        delivered = len(available)
    return tuple(batches)


# SHA-256 of the JSON list of the fundamental analyst's last messages in the
# run of `test_an_action_date_gives_a_turn_on_the_filings_so_far`.
GOLDEN_ACTION_TURNS_DIGEST = "c90bb1fc37af21469c66b80629f6e37b0dd234528734fe2fa19ab808873ec21a"


class TestFundamentalBatches:
    START = date(2024, 6, 3)

    @given(
        session_days=st.sets(st.integers(0, 20), min_size=1),
        filing_days=st.lists(st.integers(-6, 24), max_size=8),
        action_days=st.lists(st.integers(-6, 24), max_size=4),
    )
    # An action before any filing and one on a filing date; then a filing
    # before the window, one off the sessions, and an action between them.
    @example(session_days={2, 3, 5, 8}, filing_days=[4, 5, 5, 8], action_days=[2, 5])
    @example(session_days={2, 3, 5, 8}, filing_days=[-3, 4, 8], action_days=[5])
    def test_batches_are_the_old_filter(self, session_days, filing_days, action_days):
        """Filings before the window, on days between sessions and on equal
        dates; actions before any filing, on a filing date and between
        filings."""
        sessions = [self.START + timedelta(days=d) for d in sorted(session_days)]
        filings = sorted(
            (FundamentalSnapshot(self.START + timedelta(days=d), f"F{n}") for n, d in enumerate(filing_days)),
            key=lambda snap: snap.filing_date,
        )
        action_dates = [self.START + timedelta(days=d) for d in action_days]
        assert fundamental_batches(filings, action_dates, sessions) == old_fundamental_batches(filings, action_dates, sessions)

    def test_an_action_date_gives_a_turn_on_the_filings_so_far(self, tmp_path):
        """A dividend before the first filing gives a turn on no filings, and
        one between the filings sends every filing so far again."""
        config = build_workspace(tmp_path, mode="baseline")
        window = load_data(config).sessions
        actions = tmp_path / "actions.csv"
        actions.write_text(f"date,kind,ratio,cash\n{window[3]},dividend,,0.25\n{window[20]},dividend,,0.5\n", encoding="utf-8")
        config.paths["actions"] = str(actions)
        records = role_records(run_experiment(config)[0][0].run_dir, "fundamental")
        assert [record["tags"]["session"] for record, _ in records] == [window[k].isoformat() for k in (3, 10, 20, 30)]
        texts = [request.messages[-1].text for _, request in records]
        assert "No fundamentals on file" in texts[0]
        assert ["Q1 (Filed" in text for text in texts] == [False, True, True, False]
        assert hashlib.sha256(json.dumps(texts).encode("utf-8")).hexdigest() == GOLDEN_ACTION_TURNS_DIGEST

    def test_a_weekend_filing_gets_the_next_sessions_turn(self, tmp_path):
        """A Q1 filing on a Saturday reaches the analyst on the Monday, in its
        own turn, and not a quarter later together with Q2."""
        config = build_workspace(tmp_path, mode="baseline")
        window = load_data(config).sessions
        friday = next(k for k in range(1, 25) if window[k].weekday() == 4)
        path = Path(config.paths["fundamentals"])
        filings = json.loads(path.read_text(encoding="utf-8"))
        filings[0]["filing_date"] = (window[friday] + timedelta(days=1)).isoformat()
        path.write_text(json.dumps(filings), encoding="utf-8")
        records = role_records(run_experiment(config)[0][0].run_dir, "fundamental")
        assert [record["tags"]["session"] for record, _ in records] == [window[k].isoformat() for k in (friday + 1, 30)]
        texts = [request.messages[-1].text for _, request in records]
        assert [("Q1 (Filed" in text, "Q2 (Filed" in text) for text in texts] == [(True, False), (False, True)]


class TestSessionContext:
    """One context per session: the values every prompt of the session may
    name, under the analysts' names and the trading agent's."""

    TWINS = {
        "session_start": "window_start",
        "session_end": "window_end",
        "current_time": "now",
        "open_price": "open",
        "high_price": "high",
        "low_price": "low",
        "close_price": "close",
    }

    def context(self, fills: list[Fill]) -> dict:
        config = ExperimentConfig(
            instrument="SYNTH", window_start=date(2025, 4, 28), window_end=date(2025, 6, 27), paths={"bars": "bars.csv"}
        )
        bar = Bar(date(2025, 5, 2), Decimal("100"), Decimal("101.5"), Decimal("99.25"), Decimal("100.5"), 1000)
        state = PortfolioState(cash=Decimal("98989.5"), shares_long=12, shares_short=3)
        return session_context(config, bar, state, fills)

    def test_analyst_names_equal_their_trading_agent_twins(self):
        ctx = self.context([])
        for analyst_name, cta_name in self.TWINS.items():
            assert ctx[analyst_name] == ctx[cta_name], analyst_name
        assert [ctx[name] for name in self.TWINS] == [
            "2025-04-28", "2025-06-27", "2025-05-02", "100.00", "101.50", "99.25", "100.50"
        ]
        assert (ctx["portfolio_cash"], ctx["shares_net"]) == ("98989.50", "9")

    def test_bar_without_vwap_or_transactions_reads_na(self):
        ctx = self.context([])
        assert ctx["vwap_str"] == ctx["transactions"] == "n/a"

    def test_executed_orders_none_without_fills(self):
        assert self.context([])["executed_orders"] is None
        fills = [Fill(f"d{d}-1", Action.BUY, date(2025, 5, d), Decimal("100.5"), d) for d in (1, 2)]
        assert self.context(fills)["executed_orders"] == "2025-05-01 BUY 1 @ 100.50\n2025-05-02 BUY 2 @ 100.50"


def with_prompt(tmp_path: Path, name: str, text: str) -> ExperimentConfig:
    """A baseline workspace whose prompt_dir replaces the asset `name` with `text`."""
    build_workspace(tmp_path, mode="baseline")
    prompt_dir = tmp_path / "prompts"
    prompt_dir.mkdir()
    (prompt_dir / f"{name}.txt").write_text(text, encoding="utf-8")
    config_path = tmp_path / "config.json"
    obj = json.loads(config_path.read_text(encoding="utf-8"))
    config_path.write_text(json.dumps(obj | {"prompt_dir": str(prompt_dir)}), encoding="utf-8")
    return ExperimentConfig.from_file(config_path)


class TestSessionPrompts:
    def test_multi_timeframe_text_only_for_the_first_market_turn(self, tmp_path, monkeypatch):
        calls = []
        original = harness.multi_timeframe_text
        monkeypatch.setattr(harness, "multi_timeframe_text", lambda *args: calls.append(args) or original(*args))
        artifacts, _ = run_experiment(build_workspace(tmp_path))
        assert len(role_records(artifacts[0].run_dir, "market")) == WINDOW_SESSIONS
        assert len(calls) == 1

    def test_followup_naming_extended_intervals_gets_it_every_session(self, tmp_path):
        text = asset_path("market_followup").read_text(encoding="utf-8") + "\n{{ extended_intervals_analysis }}\n"
        config = with_prompt(tmp_path, "market_followup", text)
        artifacts, _ = run_experiment(config)
        series = load_data(config).bars
        records = role_records(artifacts[0].run_dir, "market")
        assert len(records) == WINDOW_SESSIONS
        for record, request in records:
            session = date.fromisoformat(record["tags"]["session"])
            assert reference_multi_timeframe_text(series, session) in request.messages[-1].text

    def test_analyst_template_may_name_session_values(self, tmp_path):
        config = with_prompt(tmp_path, "market_initial", "Cash {{ portfolio_cash }} on {{ now }}")
        artifacts, _ = run_experiment(config)
        _, first = role_records(artifacts[0].run_dir, "market")[0]
        assert first.messages[0].text == f"Cash 100000.00 on {config.window_start.isoformat()}"

    def test_fundamentals_file_out_of_filing_order(self, tmp_path):
        """Each filing reaches the fundamental analyst once, at its filing
        date, in whatever order the file lists them."""
        in_order = build_workspace(tmp_path / "in_order", mode="baseline")
        reversed_ = build_workspace(tmp_path / "reversed", mode="baseline")
        path = Path(reversed_.paths["fundamentals"])
        path.write_text(json.dumps(json.loads(path.read_text(encoding="utf-8"))[::-1]), encoding="utf-8")
        sent = [
            [request for _, request in role_records(run_experiment(config)[0][0].run_dir, "fundamental")]
            for config in (in_order, reversed_)
        ]
        assert sent[1] == sent[0]
        assert ["Q2 (Filed" in request.messages[-1].text for request in sent[0]] == [False, True]

    @pytest.mark.parametrize("name, report", [("market_initial", "news_analysis"), ("news_initial", "market_analysis")])
    def test_analyst_template_naming_a_report_is_missing_key(self, tmp_path, capsys, name, report):
        """No analyst sees a report, not even one made earlier in its session."""
        with_prompt(tmp_path, name, "{{ %s }}" % report)
        assert main(["run", "--config", str(tmp_path / "config.json")]) == 2
        assert capsys.readouterr().err == f"config error: MISSING_KEY: {report}\n"


class TestReplay:
    def test_replay_byte_identical(self, tmp_path):
        config = build_workspace(tmp_path)
        artifacts, _ = run_experiment(config)
        exp_dir = artifacts[0].run_dir.parent
        listing = sorted(p.relative_to(exp_dir) for p in exp_dir.rglob("*"))
        replayed = replay_run(artifacts[0].run_dir)
        assert replayed.metrics == artifacts[0].metrics
        assert replayed.run_dir == artifacts[0].run_dir
        assert sorted(p.relative_to(exp_dir) for p in exp_dir.rglob("*")) == listing

    def test_tampered_request_hash_mismatch(self, tmp_path):
        config = build_workspace(tmp_path)
        artifacts, _ = run_experiment(config)
        run_dir = artifacts[0].run_dir
        gw = run_dir / "gateway.jsonl"
        lines = gw.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[0])
        record["request_hash"] = "0" * 64
        lines[0] = json.dumps(record, separators=(",", ":"), sort_keys=True)
        gw.write_text("\n".join(lines) + "\n", encoding="utf-8")
        exp_dir = run_dir.parent
        listing = sorted(p.relative_to(exp_dir) for p in exp_dir.rglob("*"))
        with pytest.raises(ReplayMismatch, match="^replay diverged: REPLAY_MISMATCH: call 1: "):
            replay_run(run_dir)
        assert sorted(p.relative_to(exp_dir) for p in exp_dir.rglob("*")) == listing

    def test_tampered_config_lock(self, tmp_path):
        config = build_workspace(tmp_path)
        artifacts, _ = run_experiment(config)
        lock_path = artifacts[0].run_dir / "config.lock"
        lock = json.loads(lock_path.read_text(encoding="utf-8"))
        lock["hash"] = "f" * 64
        lock_path.write_text(json.dumps(lock, indent=2, sort_keys=True), encoding="utf-8")
        with pytest.raises(ReplayMismatch, match="config.lock"):
            replay_run(artifacts[0].run_dir)

    def test_recording_with_a_seed_replays(self, tmp_path):
        """A config.lock written before `seed` was deleted carries it, hashed
        as SHA-256 of its config as sorted JSON indented by 2."""
        artifacts, _ = run_experiment(build_workspace(tmp_path))
        run_dir = artifacts[0].run_dir
        lock_path = run_dir / "config.lock"
        lock = json.loads(lock_path.read_text(encoding="utf-8"))
        assert "seed" not in lock["config"]
        lock["config"]["seed"] = 0
        lock["hash"] = hashlib.sha256(json.dumps(lock["config"], indent=2, sort_keys=True).encode("utf-8")).hexdigest()
        lock_path.write_text(json.dumps(lock, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        assert main(["replay", "--run", str(run_dir)]) == 0

        lock["config"]["seed"] = 1  # edited after hashing
        lock_path.write_text(json.dumps(lock, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        with pytest.raises(ReplayMismatch, match="hash does not match"):
            replay_run(run_dir)

    def test_tampered_response_diverges_at_the_next_call(self, tmp_path):
        config = build_workspace(tmp_path)
        artifacts, _ = run_experiment(config)
        gw = artifacts[0].run_dir / "gateway.jsonl"
        lines = gw.read_text(encoding="utf-8").splitlines()
        # rewrite the first CTA decision from BUY to an empty decision
        for i, line in enumerate(lines):
            record = json.loads(line)
            if record["tags"]["role"] == "cta":
                record["response"]["text"] = "[]"
                lines[i] = json.dumps(record, separators=(",", ":"), sort_keys=True)
                break
        gw.write_text("\n".join(lines) + "\n", encoding="utf-8")
        # The altered reply changes the trading agent's next request.
        with pytest.raises(ReplayMismatch, match="^replay diverged: REPLAY_MISMATCH: call 6: "):
            replay_run(artifacts[0].run_dir)


class TestProviderFailure:
    def test_exhausted_script_aborts_run_preserving_partial_audit(self, tmp_path):
        from tradeloop.gateway import GatewayError

        config = build_workspace(tmp_path, mode="baseline")
        # market analyst script dries up after 3 sessions
        config.providers["market"] = {
            "kind": "scripted",
            "script": [{"match": "", "response": "ok", "times": 3}],
            "strict": True,
        }
        with pytest.raises(GatewayError):
            run_experiment(config)
        run_dir = tmp_path / "runs" / "exp-baseline" / "run-1"
        partial = (run_dir / "gateway.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(partial) > 0  # completed exchanges survive the abort
        assert (run_dir / "engine.jsonl").exists()

    def test_aborted_run_leaves_its_config_lock(self, tmp_path):
        from tradeloop.gateway import GatewayError

        config = build_workspace(tmp_path, mode="baseline")
        config.providers["market"] = {"kind": "scripted", "script": [{"match": "", "response": "ok", "times": 3}]}
        with pytest.raises(GatewayError):
            run_experiment(config)
        lock = json.loads((tmp_path / "runs" / "exp-baseline" / "run-1" / "config.lock").read_text(encoding="utf-8"))
        assert lock["hash"] == hashlib.sha256(json.dumps(lock["config"], indent=2, sort_keys=True).encode("utf-8")).hexdigest()
        assert lock["config"]["providers"]["market"] == config.providers["market"]

    @pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd")
    def test_aborted_run_closes_its_logs(self, tmp_path):
        from tradeloop.gateway import GatewayError

        config = build_workspace(tmp_path, mode="adaptive_opro")
        config.providers["cta"] = {"kind": "scripted", "script": [{"match": "", "response": "[]", "times": 12}]}
        before = len(list(Path("/proc/self/fd").iterdir()))
        with pytest.raises(GatewayError) as aborted:
            run_experiment(config)
        # Counted while the traceback still holds the run's frames, so logs
        # left to the garbage collector would still be open.
        assert len(list(Path("/proc/self/fd").iterdir())) == before, aborted.value


class TestConfigValidation:
    def test_window_order_enforced(self, tmp_path):
        config = build_workspace(tmp_path)
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(
                {
                    "instrument": "X",
                    "window_start": "2025-06-27",
                    "window_end": "2025-04-28",
                }
            )

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ExperimentConfig.from_dict(
                {
                    "instrument": "X",
                    "window_start": "2025-04-28",
                    "window_end": "2025-06-27",
                    "typo_key": 1,
                }
            )

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError, match="prompting_mode"):
            ExperimentConfig.from_dict(
                {
                    "instrument": "X",
                    "window_start": "2025-04-28",
                    "window_end": "2025-06-27",
                    "prompting_mode": "yolo",
                }
            )

    def test_env_reference_reaches_config_lock_literally(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FAKE_KEY", "sk-live-not-a-secret")
        build_workspace(tmp_path, mode="baseline")
        obj = json.loads((tmp_path / "config.json").read_text(encoding="utf-8"))
        obj["providers"]["market"]["script"][0]["response"] = "${FAKE_KEY}"
        artifacts, _ = run_experiment(ExperimentConfig.from_dict(obj))
        lock = (artifacts[0].run_dir / "config.lock").read_text(encoding="utf-8")
        assert "${FAKE_KEY}" in lock and "sk-live" not in lock


class TestDataValidation:
    def test_missing_sessions_fail_fast_with_list(self, tmp_path):
        config = build_workspace(tmp_path)
        series = synthetic_daily(HISTORY_BARS, seed=21)
        dates = series.dates()
        window = dates[-WINDOW_SESSIONS:]
        gap = window[7]
        kept = [b for b in series.bars if b.session_date != gap]
        from tradeloop.bars import BarSeries

        broken = BarSeries(series.symbol, series.resolution, tuple(kept))
        (tmp_path / "bars.csv").write_text(serialize_bars(broken, "csv"), encoding="utf-8")
        calendar_path = tmp_path / "calendar.txt"
        calendar_path.write_text("\n".join(d.isoformat() for d in dates) + "\n", encoding="utf-8")
        config.paths["calendar"] = str(calendar_path)
        with pytest.raises(DataError, match=gap.isoformat()):
            load_data(config)

    def test_missing_bars_file(self, tmp_path):
        config = build_workspace(tmp_path)
        config.paths["bars"] = str(tmp_path / "nope.csv")
        with pytest.raises(DataError, match="not found"):
            load_data(config)


class TestAggregateReport:
    def test_empty_artifacts_rejected(self):
        with pytest.raises(ConfigError):
            aggregate_and_report([])
