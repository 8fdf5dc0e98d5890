"""The four workloads: set-up, one timed iteration, and its output checks.

Each workload's `setup` makes its inputs from the seed (and, for the replay
workload, records the run to be replayed); `iterate` runs the timed call
into tradeloop; `check` inspects what the iteration left on disk. An
iteration's outputs go to a fresh directory that the caller deletes after
the checks and byte counts are taken.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field
from decimal import Decimal
from pathlib import Path

from tradeloop import harness, strategies
from tradeloop.bars import BarSeries, parse_bars
from tradeloop.engine import AuditLog
from tradeloop.strategies import StrategyConfig, StrategyKind

import checks
import inputs

ARTIFACTS = ("engine.jsonl", "gateway.jsonl", "opro.jsonl", "metrics.json")


@dataclass
class Outcome:
    """What one iteration did: its timed wall (raw, and at the reference
    speed), operations and failures, the bytes it wrote per artifact name,
    and the reasons checks failed."""

    wall_s: float = 0.0
    scaled_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    sizes: dict[str, int] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def record(self, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.problems.append(problem)


def _sizes(run_dir: Path, names=ARTIFACTS) -> dict[str, int]:
    return {name: (run_dir / name).stat().st_size for name in names if (run_dir / name).exists()}


def _read_bars(path: Path) -> BarSeries:
    return parse_bars(path.read_text(encoding="utf-8"), format="csv", symbol="SYNTH")


def _bar_ranges(series: BarSeries) -> dict[str, tuple[Decimal, Decimal]]:
    return {b.session_date.isoformat(): (b.low, b.high) for b in series.bars}


class AgentWorkload:
    """`adaptive_opro_with_reflection` over the last `sessions` of `bars` bars."""

    def __init__(self, name: str, bars: int, sessions: int):
        self.name = name
        self.bars = bars
        self.sessions = sessions

    def setup(self, seed: int, root: Path):
        self.seed = seed
        self.inputs = inputs.agent_inputs(seed, root / "inputs", self.bars, self.sessions)
        self.bar_ranges = _bar_ranges(_read_bars(root / "inputs" / "bars.csv"))
        self.config = harness.ExperimentConfig.from_file(self.inputs.config_path)

    def key(self) -> str:
        return f"{self.name}:{self.seed}:{self.bars}:{self.sessions}"

    def _run(self, out: Path) -> None:
        """The timed call."""
        self.config.paths["out_dir"] = str(out)
        harness.run_experiment(self.config)

    def _output_dir(self, out: Path) -> Path:
        return out / self.config.experiment / "run-1"

    def iterate(self, out: Path, clock) -> Outcome:
        """Time one run; the run finishing, each session it completes and
        each check of its artifacts count as operations."""
        outcome = Outcome()
        calls_before = clock.calls
        clock.start()
        try:
            self._run(out)
            problem = None
        except Exception as exc:  # a failed run is a measured outcome, not a crash
            problem = f"run aborted: {exc!r}"
        outcome.wall_s, outcome.scaled_s = clock.stop()
        outcome.record(problem)
        outcome.attempted += self.sessions
        outcome.failed += max(0, self.sessions - (clock.calls - calls_before))
        run_dir = self._output_dir(out)
        outcome.sizes = _sizes(run_dir)
        self.check(run_dir, outcome)
        return outcome

    def check(self, run_dir: Path, outcome: Outcome) -> None:
        outcome.record(checks.check_equity(run_dir / "metrics.json", self.sessions, inputs.INITIAL_CASH))
        outcome.record(self._check_engine(run_dir))
        outcome.record(checks.check_gateway_schedule(run_dir / "gateway.jsonl", self.inputs.expected_calls))
        outcome.record(self._check_digest(run_dir))

    def _check_engine(self, run_dir: Path) -> str | None:
        try:
            lines = (run_dir / "engine.jsonl").read_text(encoding="utf-8").splitlines()
        except OSError as exc:
            return f"engine.jsonl unreadable: {exc!r}"
        return checks.check_engine_audit(lines, self.bar_ranges)

    def _check_digest(self, run_dir: Path) -> str | None:
        try:
            digest = checks.sha256_file(run_dir / "metrics.json")
        except OSError as exc:
            return f"metrics.json unreadable: {exc!r}"
        return self.ledger.check(self.key(), digest)


class ReplayWorkload(AgentWorkload):
    """`harness.replay_run` over a recording of the long-window run."""

    def setup(self, seed: int, root: Path):
        super().setup(seed, root)
        self.config.paths["out_dir"] = str(root / "recording")
        harness.run_experiment(self.config)
        self.recorded = root / "recording" / self.config.experiment / "run-1"

    def _run(self, out: Path) -> None:
        """The timed call; it raises ReplayMismatch unless every artifact
        is byte-identical to the recording."""
        harness.replay_run(self.recorded, scratch_dir=out)

    def _output_dir(self, out: Path) -> Path:
        return out


BASELINES = (
    StrategyConfig(kind=StrategyKind.BUY_HOLD),
    StrategyConfig(kind=StrategyKind.SMA),
    StrategyConfig(kind=StrategyKind.SLMA),
    StrategyConfig(kind=StrategyKind.MACD),
    StrategyConfig(kind=StrategyKind.BOLLINGER),
)


class BaselineWorkload:
    """The five baselines, each over the same `bars`-bar series, with each
    engine audit written to its own file."""

    def __init__(self, name: str, bars: int):
        self.name = name
        self.bars = bars

    def setup(self, seed: int, root: Path):
        self.seed = seed
        self.series = _read_bars(inputs.baseline_inputs(seed, root / "inputs", self.bars))
        self.bar_ranges = _bar_ranges(self.series)

    def key(self, kind: str) -> str:
        return f"{self.name}:{self.seed}:{self.bars}:{kind}"

    def iterate(self, out: Path, clock) -> Outcome:
        out.mkdir(parents=True, exist_ok=True)
        outcome = Outcome()
        results = {}
        clock.start()
        for config in BASELINES:
            audit = AuditLog(out / f"{config.kind.value}.jsonl")
            try:
                results[config.kind] = strategies.run_strategy(config, self.series, audit=audit)
            except Exception as exc:  # a failed strategy is a measured outcome, not a crash
                outcome.problems.append(f"{config.kind.value} aborted: {exc!r}")
            finally:
                audit.close()
        outcome.wall_s, outcome.scaled_s = clock.stop()
        outcome.attempted += len(BASELINES)
        outcome.failed += len(BASELINES) - len(results)
        outcome.sizes = {"engine.jsonl": sum(p.stat().st_size for p in out.glob("*.jsonl"))}
        for kind, result in results.items():
            report = out / f"{kind.value}.report.json"
            report.write_text(result.report.to_json(), encoding="utf-8")
            outcome.record(self.ledger.check(self.key(kind.value), checks.sha256_file(report)))
            lines = (out / f"{kind.value}.jsonl").read_text(encoding="utf-8").splitlines()
            outcome.record(checks.check_engine_audit(lines, self.bar_ranges))
        hold = results.get(StrategyKind.BUY_HOLD)
        outcome.record(
            "buy & hold did not run"
            if hold is None
            else checks.check_buy_hold_roi(hold.report.roi_pct, self.series.bars[0].open, self.series.bars[-1].close)
        )
        return outcome


def make(name: str, scale: float = 1.0):
    """The workload called `name`; `scale` < 1 shrinks it for tests."""

    def n(x: int) -> int:
        return max(1, int(x * scale))

    if name == "deep_history":
        return AgentWorkload(name, bars=n(2000), sessions=n(42))
    if name == "long_window":
        return AgentWorkload(name, bars=n(268), sessions=n(252))
    if name == "replay_long_window":
        return ReplayWorkload(name, bars=n(268), sessions=n(252))
    if name == "baselines_10k":
        return BaselineWorkload(name, bars=n(10_000))
    raise KeyError(name)


WORKLOADS = ("deep_history", "long_window", "replay_long_window", "baselines_10k")


def remove(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
