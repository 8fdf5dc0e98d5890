"""Tests of the benchmark itself: its output checks reject corrupted
artifacts, and a tiny run of every workload emits every metric that
BENCHMARK.json names.

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tradeloop import harness  # noqa: E402
from workloads import Outcome  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = 0.05


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """A tiny deep-history run left on disk, with the workload that made it."""
    root = tmp_path_factory.mktemp("recorded")
    workload = workloads.make("deep_history", 0.25)
    workload.ledger = checks.DigestLedger(root / "digests.json", [HERE])
    workload.setup(7, root / "setup")
    workload.config.paths["out_dir"] = str(root / "out")
    harness.run_experiment(workload.config)
    run_dir = root / "out" / workload.config.experiment / "run-1"
    workload.ledger.check(workload.key(), checks.sha256_file(run_dir / "metrics.json"))
    return workload, run_dir


def _copy(run_dir: Path, dest: Path) -> Path:
    dest.mkdir()
    for name in workloads.ARTIFACTS:
        (dest / name).write_bytes((run_dir / name).read_bytes())
    return dest


def _problems(workload, run_dir: Path) -> list[str]:
    outcome = Outcome()
    workload.check(run_dir, outcome)
    assert outcome.attempted == 4
    return outcome.problems


def test_clean_run_passes_every_check(recorded, tmp_path):
    workload, run_dir = recorded
    assert _problems(workload, _copy(run_dir, tmp_path / "clean")) == []


def test_fill_outside_bar_range_fails(recorded, tmp_path):
    workload, run_dir = recorded
    bad = _copy(run_dir, tmp_path / "fill")
    lines = (bad / "engine.jsonl").read_text(encoding="utf-8").splitlines()
    fills = [i for i, line in enumerate(lines) if json.loads(line)["type"] == "FILL"]
    assert fills, "the scripted order stream must produce fills"
    event = json.loads(lines[fills[0]])
    low, high = workload.bar_ranges[event["date"]]
    event["price"] = str(high + 1)
    lines[fills[0]] = json.dumps(event, separators=(",", ":"))
    (bad / "engine.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert any("outside" in p for p in _problems(workload, bad))


def test_negative_cash_fails(recorded, tmp_path):
    workload, run_dir = recorded
    bad = _copy(run_dir, tmp_path / "cash")
    text = (bad / "engine.jsonl").read_text(encoding="utf-8")
    lines = text.splitlines()
    i = next(i for i, line in enumerate(lines) if json.loads(line)["type"] == "SESSION_SUMMARY")
    event = json.loads(lines[i])
    event["cash"] = "-0.01"
    lines[i] = json.dumps(event, separators=(",", ":"))
    (bad / "engine.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert any("negative cash" in p for p in _problems(workload, bad))


@pytest.mark.parametrize("cut", ["mid_record", "whole_record"])
def test_truncated_gateway_log_fails(recorded, tmp_path, cut):
    workload, run_dir = recorded
    bad = _copy(run_dir, tmp_path / cut)
    data = (bad / "gateway.jsonl").read_bytes()
    last = data.rstrip(b"\n").rfind(b"\n") + 1
    (bad / "gateway.jsonl").write_bytes(data[: last + 40] if cut == "mid_record" else data[:last])
    assert any("gateway" in p for p in _problems(workload, bad))


def test_short_equity_curve_fails(recorded, tmp_path):
    workload, run_dir = recorded
    bad = _copy(run_dir, tmp_path / "equity")
    payload = json.loads((bad / "metrics.json").read_text(encoding="utf-8"))
    payload["equity"]["values"].pop()
    (bad / "metrics.json").write_text(json.dumps(payload), encoding="utf-8")
    problems = _problems(workload, bad)
    assert any("equity curve" in p for p in problems)
    assert any("digest" in p for p in problems)


def test_buy_hold_identity_check():
    from decimal import Decimal

    assert checks.check_buy_hold_roi(25.0, Decimal("100.00"), Decimal("125.00")) is None
    assert checks.check_buy_hold_roi(25.1, Decimal("100.00"), Decimal("125.00")) is not None


def test_clock_scales_to_reference_speed(recorded, tmp_path, monkeypatch):
    """A machine on which the probe takes twice its reference time halves
    every time the clock reports, and the probes stay out of the sessions."""
    import spans

    monkeypatch.setattr(spans, "probe_s", lambda: 2 * spans.REFERENCE_S)
    workload, _ = recorded
    clock = spans.SessionClock()
    clock.install()
    try:
        outcome = workload.iterate(tmp_path / "out", clock)
    finally:
        clock.uninstall()
    assert outcome.failed == 0
    assert len(clock.sessions) == workload.sessions - 1
    assert outcome.scaled_s == pytest.approx(outcome.wall_s / 2, rel=1e-3)
    assert 0 < sum(clock.sessions) < outcome.scaled_s


def test_inputs_are_seeded(tmp_path):
    import inputs

    a = inputs.agent_inputs(5, tmp_path / "a", 120, 30)
    b = inputs.agent_inputs(5, tmp_path / "b", 120, 30)
    c = inputs.agent_inputs(6, tmp_path / "c", 120, 30)
    for name in ("bars.csv", "news.jsonl", "fundamentals.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert (tmp_path / "a" / "bars.csv").read_bytes() != (tmp_path / "c" / "bars.csv").read_bytes()
    assert a.expected_calls == b.expected_calls


@pytest.mark.parametrize("name", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_metric(tmp_path, name, trace):
    result = run.run(name, seed=3, seconds=0.01, trace=trace, work=tmp_path, scale=TINY)
    group = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in group}
    for m in group:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    left = {"digests.json", f"spans-{name}.jsonl"} if trace else {"digests.json"}
    assert {p.name for p in tmp_path.iterdir()} == left


@pytest.mark.xfail(
    raises=AssertionError,
    strict=True,
    reason="engine defect: a BUY may spend short-sale proceeds, so the forced cover at window end drives cash below zero",
)
def test_force_cover_after_buying_with_short_proceeds():
    """Why the scripted order stream never holds a long and a short at once."""
    from datetime import date
    from decimal import Decimal

    from tradeloop.bars import Bar
    from tradeloop.engine import Action, ExecutionEngine, Order, OrderType

    def bar(day: int) -> Bar:
        p = Decimal(100)
        return Bar(session_date=date(2024, 1, day), open=p, high=p, low=p, close=p, volume=1000)

    def market(order_id: str, action: Action, quantity: int, day: int) -> Order:
        return Order(order_id, action, OrderType.MARKET, None, quantity, "", date(2024, 1, day))

    engine = ExecutionEngine(initial_cash=100_000)
    engine.step_session(bar(2))
    engine.validate_and_queue(market("s", Action.SHORT, 500, 2), last_close=Decimal(100))
    engine.step_session(bar(3))  # cash 150000, short 500
    engine.validate_and_queue(market("b", Action.BUY, 1400, 3), last_close=Decimal(100))
    engine.step_session(bar(4))  # cash 10000, long 1400, short 500
    engine.force_cover(bar(4))
