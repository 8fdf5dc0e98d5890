"""Command-line entry points: run, backtest, report, replay, validate-data.

Exit codes: 0 success, 2 config error (a bad config file or value, or a
malformed prompt template in `prompt_dir`), 3 data error (a missing or
malformed bars, actions, calendar, news or fundamentals file), 4 provider
error (including a replay that diverges).
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import date
from decimal import Decimal
from pathlib import Path

from .bars import BarDataError, parse_actions_csv, parse_bars, adjust_for_actions
from .gateway import GatewayError
from .harness import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_OK,
    EXIT_PROVIDER,
    ConfigError,
    DataError,
    ExperimentConfig,
    ReplayMismatch,
    RunArtifact,
    aggregate_and_report,
    replay_run,
    run_experiment,
)
from .metrics import MetricReport, aggregate_runs, render_table
from .strategies import StrategyConfig, StrategyKind, run_strategy
from .templates import TemplateError


def _cmd_run(args) -> int:
    config = ExperimentConfig.from_file(args.config)
    if args.runs:
        config.runs = args.runs
    if args.mode:
        config.prompting_mode = args.mode
    if args.instrument:
        config.instrument = args.instrument
    if args.out_dir:
        config.paths["out_dir"] = args.out_dir
    config.__post_init__()  # re-validate after overrides
    artifacts, bundle = run_experiment(config)
    print(bundle["table"], end="")
    print(f"runs: {len(artifacts)} -> {artifacts[0].run_dir.parent}")
    return EXIT_OK


def _cmd_backtest(args) -> int:
    text = Path(args.bars).read_text(encoding="utf-8")
    fmt = "jsonl" if args.bars.endswith(".jsonl") else "csv"
    series = parse_bars(text, format=fmt, symbol=args.symbol)
    if args.actions:
        series = adjust_for_actions(series, parse_actions_csv(Path(args.actions).read_text(encoding="utf-8")))
    kind = StrategyKind(args.strategy)
    kwargs = {}
    if kind == StrategyKind.SMA and args.window:
        kwargs["sma_n"] = args.window
    if kind == StrategyKind.SLMA:
        if args.window:
            kwargs["slma_short"] = args.window
        if args.long_window:
            kwargs["slma_long"] = args.long_window
    if kind == StrategyKind.BOLLINGER:
        if args.window:
            kwargs["bollinger_n"] = args.window
        if args.k:
            kwargs["bollinger_k"] = args.k
    config = StrategyConfig(kind=kind, **kwargs)
    result = run_strategy(config, series, initial_cash=Decimal(args.cash))
    print(result.report.to_json())
    aggs = aggregate_runs([result.report])
    print(render_table({args.strategy: aggs}), end="")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{args.strategy}_metrics.json").write_text(result.report.to_json() + "\n", encoding="utf-8")
        (out / f"{args.strategy}_audit.jsonl").write_text(result.audit.text(), encoding="utf-8")
    return EXIT_OK


def _cmd_report(args) -> int:
    artifacts = []
    for run_dir in sorted(Path(args.runs).iterdir()):
        metrics_path = run_dir / "metrics.json"
        if not metrics_path.exists():
            continue
        payload = json.loads(metrics_path.read_text(encoding="utf-8"))
        artifacts.append(
            RunArtifact(
                run_id=run_dir.name,
                run_dir=run_dir,
                metrics=MetricReport.from_dict(payload["metrics"]),
                equity_dates=[date.fromisoformat(d) for d in payload["equity"]["dates"]],
                equity_values=[Decimal(v) for v in payload["equity"]["values"]],
            )
        )
    if not artifacts:
        raise DataError(f"no run artifacts under {args.runs}")
    bundle = aggregate_and_report(artifacts, label=args.label)
    print(bundle["table"], end="")
    if args.csv:
        Path(args.csv).write_text(bundle["csv"], encoding="utf-8")
    return EXIT_OK


def _cmd_replay(args) -> int:
    artifact = replay_run(args.run)
    print(f"replay OK: {artifact.run_id} byte-identical")
    return EXIT_OK


def _cmd_validate_data(args) -> int:
    text = Path(args.bars).read_text(encoding="utf-8")
    fmt = "jsonl" if args.bars.endswith(".jsonl") else "csv"
    series = parse_bars(text, format=fmt)
    msg = f"{len(series)} bars, {series.bars[0].session_date} -> {series.bars[-1].session_date}"
    if args.actions:
        actions = parse_actions_csv(Path(args.actions).read_text(encoding="utf-8"))
        adjust_for_actions(series, actions)
        msg += f", {len(actions)} corporate actions"
    print(f"OK: {msg}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tradeloop")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--runs", type=int, default=0, help="override config.runs")
    p_run.add_argument("--mode", default="", help="override prompting_mode")
    p_run.add_argument("--instrument", default="", help="override instrument")
    p_run.add_argument("--out-dir", default="", dest="out_dir", help="override paths.out_dir")
    p_run.set_defaults(func=_cmd_run)

    p_bt = sub.add_parser("backtest", help="run a non-LLM baseline strategy")
    p_bt.add_argument("--strategy", required=True, choices=[k.value for k in StrategyKind])
    p_bt.add_argument("--bars", required=True)
    p_bt.add_argument("--actions", default="")
    p_bt.add_argument("--symbol", default="")
    p_bt.add_argument("--window", type=int, default=0)
    p_bt.add_argument("--long-window", type=int, default=0, dest="long_window")
    p_bt.add_argument("--k", type=float, default=0.0, help="bollinger band width multiplier")
    p_bt.add_argument("--cash", default="100000")
    p_bt.add_argument("--out", default="")
    p_bt.set_defaults(func=_cmd_backtest)

    p_rep = sub.add_parser("report", help="aggregate run artifacts into a table")
    p_rep.add_argument("--runs", required=True, help="experiment directory containing run dirs")
    p_rep.add_argument("--label", default="experiment")
    p_rep.add_argument("--csv", default="")
    p_rep.set_defaults(func=_cmd_report)

    p_replay = sub.add_parser("replay", help="re-execute a recorded run and diff artifacts")
    p_replay.add_argument("--run", required=True)
    p_replay.set_defaults(func=_cmd_replay)

    p_val = sub.add_parser("validate-data", help="parse and validate bar/action files")
    p_val.add_argument("--bars", required=True)
    p_val.add_argument("--actions", default="")
    p_val.set_defaults(func=_cmd_validate_data)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, TemplateError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, BarDataError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (GatewayError, ReplayMismatch) as exc:
        print(f"provider error: {exc}", file=sys.stderr)
        return EXIT_PROVIDER


if __name__ == "__main__":
    sys.exit(main())
