"""The per-layer metrics that read 0 in the benchmark's traced tiny run of
each workload. The tracer wraps functions by name (`perfbench/spans.py`), so
a change that stops calling one zeroes its metric without an error; pinning
the set makes that change an edit here."""

from __future__ import annotations

import importlib
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]

INDICATORS = {"indicators.bars_scanned", "indicators.levels_s", "indicators.series_s", "indicators.snapshot_s"}
STRATEGIES = {"strategies.run_s", "strategies.signals_s", "strategies.trades_from_audit_s"}
OPRO = {"opro.accept_ratio", "opro.optimizer_calls", "opro.propose_s", "opro.reflect_s"}
# `AdaptiveOpro.propose_update` makes its meta-prompt with `opro.meta_prompt`,
# which the tracer does not wrap. It wraps `opro.build_meta_prompt`, the
# reference text that tests compare the message with and that a run does not
# call, so `opro.meta_prompt_chars` reads 0 in every workload.
UNTRACED = {"opro.meta_prompt_chars"}
AGENT_LOOP = {  # the layers of the agents' run, which the baselines do not reach
    "agents.analyst_self_s", "agents.decide_self_s", "agents.max_messages", "agents.parse_ok_ratio", "agents.reasks",
    "bars.load_s", "bars.slice_s", "gateway.audit_bytes", "gateway.audit_s", "gateway.calls", "gateway.complete_s",
    "gateway.provider_s", "gateway.request_chars", "harness.context_s", "harness.context_self_s",
    "harness.multi_timeframe_s", "harness.run_self_s", "opro.log_bytes", "templates.render_s", "templates.rendered_chars",
}
ZERO = {
    "deep_history": {
        "agents.reasks", "engine.fills", "engine.rejections", "gateway.hash_s", "gateway.replay_load_s",
        "gateway.retries", "metrics.trades",
    } | INDICATORS | STRATEGIES | OPRO | UNTRACED,
    "long_window": {"gateway.hash_s", "gateway.replay_load_s", "gateway.retries"} | INDICATORS | STRATEGIES | UNTRACED,
    "replay_long_window": {"gateway.hash_s", "gateway.retries"} | INDICATORS | STRATEGIES | UNTRACED,
    "baselines_10k": (
        {"engine.rejections", "gateway.hash_s", "gateway.replay_load_s", "gateway.retries"}
        | INDICATORS - {"indicators.series_s"} | {"strategies.trades_from_audit_s"} | OPRO | UNTRACED | AGENT_LOOP
    ),
}


def test_every_workload_is_pinned():
    assert sorted(ZERO) == sorted(WORKLOADS)


@pytest.mark.parametrize("name", WORKLOADS)
def test_the_layers_that_read_zero(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    run = importlib.import_module("run")
    result = run.run(name, seed=3, seconds=0.01, trace=True, work=tmp_path, scale=0.05)
    assert result["correct"] and result["failed"] == 0
    assert {metric for metric, m in result["metrics"].items() if m["value"] == 0} == ZERO[name]
