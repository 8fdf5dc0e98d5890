"""Command-line entry points: run, backtest, report, replay, validate-data.

Exit codes: 0 on success, else the `exit_code` of the error, as listed in
`tradeloop.errors`; an output file that cannot be written exits 3.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import closing
from dataclasses import replace
from pathlib import Path

from .bars import load_series
from .engine import AuditLog
from .errors import EXIT_DATA, EXIT_OK, ConfigError, DataError, TradeloopError
from .harness import ExperimentConfig, aggregate_and_report, positive_cash, read_run, replay_run, run_experiment
from .metrics import aggregate_runs, render_table
from .strategies import StrategyConfig, StrategyKind, run_strategy


def _cmd_run(args) -> int:
    config = ExperimentConfig.from_file(args.config)
    overrides = {"runs": args.runs, "prompting_mode": args.mode}
    config = replace(config, **{k: v for k, v in overrides.items() if v is not None})  # re-validates
    artifacts, bundle = run_experiment(config)
    print(bundle["table"], end="")
    print(f"runs: {len(artifacts)} -> {artifacts[0].run_dir.parent}")
    return EXIT_OK


# The StrategyConfig field that each backtest flag sets, by strategy; any
# other flag given with the strategy is a config error.
_STRATEGY_FLAGS = {
    "sma": {"window": "sma_n"},
    "slma": {"window": "slma_short", "long_window": "slma_long"},
    "bollinger": {"window": "bollinger_n", "k": "bollinger_k"},
}


def _cmd_backtest(args) -> int:
    cash = positive_cash(args.cash, "--cash")
    flags = _STRATEGY_FLAGS.get(args.strategy, {})
    for flag in ("window", "long_window", "k"):
        if getattr(args, flag) is not None and flag not in flags:
            raise ConfigError(f"--{flag.replace('_', '-')} does not apply to --strategy {args.strategy}")
    kwargs = {name: getattr(args, flag) for flag, name in flags.items() if getattr(args, flag) is not None}
    config = StrategyConfig(kind=StrategyKind(args.strategy), **kwargs)
    series = load_series(args.bars, args.actions)[0]
    out = Path(args.out) if args.out else None
    if out:
        out.mkdir(parents=True, exist_ok=True)
    # With --out the audit streams to its file; without, it stays in memory.
    with closing(AuditLog(out / f"{args.strategy}_audit.jsonl" if out else None)) as audit:
        result = run_strategy(config, series, initial_cash=cash, audit=audit)
    print(result.report.to_json())
    aggs = aggregate_runs([result.report])
    print(render_table({args.strategy: aggs}), end="")
    if out:
        (out / f"{args.strategy}_metrics.json").write_text(result.report.to_json() + "\n", encoding="utf-8")
    return EXIT_OK


def _cmd_report(args) -> int:
    run_dirs = [run_dir for run_dir in sorted(Path(args.runs).iterdir()) if (run_dir / "metrics.json").exists()]
    artifacts = [read_run(run_dir) for run_dir in run_dirs]
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
    series, actions = load_series(args.bars, args.actions)
    counted = f", {len(actions)} corporate actions" if args.actions else ""
    print(f"OK: {len(series)} bars, {series.bars[0].session_date} -> {series.bars[-1].session_date}{counted}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tradeloop")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--runs", type=int, help="override config.runs")
    p_run.add_argument("--mode", help="override prompting_mode")
    p_run.set_defaults(func=_cmd_run)

    p_bt = sub.add_parser("backtest", help="run a non-LLM baseline strategy")
    p_bt.add_argument("--strategy", required=True, choices=[k.value for k in StrategyKind])
    p_bt.add_argument("--bars", required=True)
    p_bt.add_argument("--actions", default="")
    p_bt.add_argument("--window", type=int)
    p_bt.add_argument("--long-window", type=int, dest="long_window")
    p_bt.add_argument("--k", type=float, help="bollinger band width multiplier")
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
    except TradeloopError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"{DataError.label}: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
