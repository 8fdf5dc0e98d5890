"""End-to-end experiment orchestration on scripted providers."""

from __future__ import annotations

import hashlib
import json
from datetime import date
from decimal import Decimal
from pathlib import Path

import pytest

from tradeloop import agents, indicators
from tradeloop.bars import BarSeries, Lookback, Resolution, resample, serialize_bars
from tradeloop.harness import (
    ConfigError,
    DataError,
    ExperimentConfig,
    MarketTimeline,
    ReplayMismatch,
    _fmt_bar_line,
    aggregate_and_report,
    load_data,
    market_context,
    replay_run,
    run_experiment,
)
from tradeloop.templates import load_template

from conftest import synthetic_daily

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


class TestRunExperiment:
    def test_baseline_mode_single_template_record(self, tmp_path):
        config = build_workspace(tmp_path, mode="baseline")
        artifacts, _ = run_experiment(config)
        opro_lines = artifacts[0].opro_log.read_text(encoding="utf-8").splitlines()
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
        opro_lines = artifacts[0].opro_log.read_text(encoding="utf-8").splitlines()
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
        lines = (artifacts[0].run_dir / "gateway.jsonl").read_text(encoding="utf-8").splitlines()
        records = [json.loads(line) for line in lines]
        cta_after_reflection = [
            r
            for r in records
            if r["tags"]["role"] == "cta" and int(r["tags"]["step"]) > 5
        ]
        assert any(
            "Scripted reflection paragraph." in r["request"]["messages"][-1]["text"]
            for r in cta_after_reflection
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
        records = [
            json.loads(line)
            for line in (artifacts[0].run_dir / "gateway.jsonl").read_text(encoding="utf-8").splitlines()
        ]
        cta_prompts = [r["request"]["messages"][-1]["text"] for r in records if r["tags"]["role"] == "cta"]
        assert all("### News Analysis" not in p for p in cta_prompts)

    def test_no_market_ablation(self, tmp_path):
        config = build_workspace(tmp_path, ablations={"no_market": True})
        artifacts, _ = run_experiment(config)
        assert gateway_roles(artifacts[0].run_dir).count("market") == 0

    def test_template_swap_renders_updated_instructions(self, tmp_path):
        config = build_workspace(tmp_path, mode="adaptive_opro")
        artifacts, _ = run_experiment(config)
        records = [
            json.loads(line)
            for line in (artifacts[0].run_dir / "gateway.jsonl").read_text(encoding="utf-8").splitlines()
        ]
        cta_first_messages = [
            r["request"]["messages"][0]["text"] for r in records if r["tags"]["role"] == "cta"
        ]
        assert any("Scripted refinement: stay selective." in m for m in cta_first_messages)

    def test_three_run_protocol_produces_isolated_dirs(self, tmp_path):
        config = build_workspace(tmp_path, runs=3)
        artifacts, bundle = run_experiment(config)
        assert [a.run_id for a in artifacts] == ["run-1", "run-2", "run-3"]
        assert len({a.run_dir for a in artifacts}) == 3
        # identical scripts -> identical metrics; the aggregate has zero std
        assert bundle["aggregate"]["roi_pct"].std == pytest.approx(0.0)

    def test_run_dir_layout(self, tmp_path):
        config = build_workspace(tmp_path)
        artifacts, _ = run_experiment(config)
        names = sorted(p.name for p in artifacts[0].run_dir.iterdir())
        assert names == ["config.lock", "engine.jsonl", "gateway.jsonl", "metrics.json", "opro.jsonl"]


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
    "gateway.jsonl": "03a38f87b02f52a8b8dc46a7bf60ab30f79ec35ab0c1dd70063d39e4f6cda30a",
    "opro.jsonl": "593e21fa9de4584d3c9c33e2f4e4a96a2ce92eaa07e9b3561d16c14753f006e7",
    "metrics.json": "68b85a0dec261ce07128a020752b98f8fde3aa4196a27cbbc09143e5c7470436",
}


class TestGoldenDigests:
    def test_scripted_run_matches_pinned_digests(self, tmp_path):
        config = build_workspace(tmp_path, mode="adaptive_opro_with_reflection", history_bars=GOLDEN_BARS)
        artifacts, _ = run_experiment(config)
        run_dir = artifacts[0].run_dir
        got = {name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest() for name in GOLDEN_DIGESTS}
        assert got == GOLDEN_DIGESTS


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


def reference_market_context(config: ExperimentConfig, series: BarSeries, session: date) -> dict:
    """The market context rebuilt from scratch on the history up to `session`."""
    history = series.up_to(session)
    bar = history.bars[-1]
    parts = [indicators.format_for_prompt(indicators.snapshot(history))]
    if len(history) >= 5:
        parts.append(indicators.format_levels(indicators.detect_levels(history)))
    return {
        "instrument": config.instrument,
        "session_start": config.window_start.isoformat(),
        "session_end": config.window_end.isoformat(),
        "current_time": session.isoformat(),
        "action_interval": config.action_interval,
        "extended_intervals_analysis": reference_multi_timeframe_text(series, session),
        "open_price": agents.fmt_price(bar.open),
        "high_price": agents.fmt_price(bar.high),
        "low_price": agents.fmt_price(bar.low),
        "close_price": agents.fmt_price(bar.close),
        "volume": str(bar.volume),
        "vwap_str": agents.fmt_price(bar.vwap) if bar.vwap is not None else "n/a",
        "transactions": str(bar.transactions) if bar.transactions is not None else "n/a",
        "formatted_indicators": "\n".join(parts),
    }


class TestMarketTimeline:
    """Each session's context from the once-per-run timeline equals the one
    rebuilt from that session's history."""

    def assert_contexts_match(self, series: BarSeries, sessions: list[date]) -> None:
        config = ExperimentConfig(instrument="SYNTH", window_start=sessions[0], window_end=sessions[-1])
        timeline = MarketTimeline(series, sessions)
        for k, session in enumerate(sessions):
            assert market_context(config, timeline, k) == reference_market_context(config, series, session), session

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


class TestReplay:
    def test_replay_byte_identical(self, tmp_path):
        config = build_workspace(tmp_path)
        artifacts, _ = run_experiment(config)
        replayed = replay_run(artifacts[0].run_dir)
        assert replayed.metrics == artifacts[0].metrics

    def test_tampered_request_hash_mismatch(self, tmp_path):
        config = build_workspace(tmp_path)
        artifacts, _ = run_experiment(config)
        gw = artifacts[0].run_dir / "gateway.jsonl"
        lines = gw.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[0])
        record["request_hash"] = "0" * 64
        lines[0] = json.dumps(record, separators=(",", ":"), sort_keys=True)
        gw.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ReplayMismatch):
            replay_run(artifacts[0].run_dir)

    def test_tampered_config_lock(self, tmp_path):
        config = build_workspace(tmp_path)
        artifacts, _ = run_experiment(config)
        lock_path = artifacts[0].run_dir / "config.lock"
        lock = json.loads(lock_path.read_text(encoding="utf-8"))
        lock["hash"] = "f" * 64
        lock_path.write_text(json.dumps(lock, indent=2, sort_keys=True), encoding="utf-8")
        with pytest.raises(ReplayMismatch, match="config.lock"):
            replay_run(artifacts[0].run_dir)

    def test_tampered_response_surfaces_artifact_diff(self, tmp_path):
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
        with pytest.raises(ReplayMismatch):
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

    def test_env_interpolation_for_secrets(self, monkeypatch):
        monkeypatch.setenv("FAKE_KEY", "resolved-secret")
        config = ExperimentConfig.from_dict(
            {
                "instrument": "X",
                "window_start": "2025-04-28",
                "window_end": "2025-06-27",
                "providers": {"default": {"kind": "http", "api_key_env": "${FAKE_KEY}"}},
            }
        )
        assert config.providers["default"]["api_key_env"] == "resolved-secret"

    def test_missing_env_var_is_config_error(self):
        with pytest.raises(ConfigError, match="MISSING_VAR"):
            ExperimentConfig.from_dict(
                {
                    "instrument": "X",
                    "window_start": "2025-04-28",
                    "window_end": "2025-06-27",
                    "providers": {"default": {"kind": "http", "api_key_env": "${MISSING_VAR}"}},
                }
            )


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
