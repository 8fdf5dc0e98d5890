"""Spans and counters recorded from outside the program.

`Tracer.install` replaces public functions and methods of the tradeloop
modules with wrappers that record a span (name, start, end, parent) and,
for some, a count taken from their arguments or result. Spans stay in memory;
`layer_metrics` turns them into per-layer times and counts, and `write` and
`summary` put them out once, at the end of a run. `uninstall` restores every original.

`SessionClock` is the one hook an untraced run keeps: the time between
consecutive `ExecutionEngine.step_session` calls of one engine is the time
of one simulated session. It scales the times it takes to a fixed reference
speed of the machine, measured by timing a fixed probe between sessions.
"""

from __future__ import annotations

import json
import weakref
from array import array
from collections import Counter
from decimal import Decimal
from time import perf_counter

from tradeloop import agents, bars, engine, gateway, harness, indicators, opro, strategies, templates
from tradeloop.engine import Rejection


# The probe's time when the reference machine (2-vCPU Xeon VM, 2.1 GHz,
# Python 3.11.7) runs at full speed. A time t measured while the probe took
# p is reported as t * REFERENCE_S / p: seconds at the reference speed.
REFERENCE_S = 1.2e-4
CHUNK_S = 0.02  # the longest stretch of an iteration that shares one speed estimate
_PROBE_PRICES = [Decimal(f"{100 + (i * 37 % 101) / 7:.4f}") for i in range(64)]


def _probe_work() -> int:
    """Interpreter work of the kind tradeloop does: Decimal to float, a
    windowed max over a generator, string formatting."""
    values = [float(d) for d in _PROBE_PRICES]
    peaks = sum(1 for i in range(2, len(values) - 2) if values[i] >= max(v for v in values[i - 2 : i + 3]))
    return peaks + len(",".join(f"{v:.2f}" for v in values))


def probe_s() -> float:
    """The shortest of three timings of the fixed probe work: how fast the
    machine runs this process right now."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        _probe_work()
        _probe_work()
        best = min(best, perf_counter() - start)
    return best


class SessionClock:
    """Wall time of a timed call and of its sessions, at the reference speed.

    A session is the interval between consecutive `step_session` calls of
    one engine. On a shared host the speed of the machine changes by up to
    2x within seconds, so a timed call is cut into stretches of at least
    `CHUNK_S`, ending at a `step_session` call, and the fixed probe work is
    timed at each cut. Each stretch, and each session in it, is scaled by
    `REFERENCE_S` over the geometric mean of the probes at its two ends. The
    probes run between sessions and their time is left out of every
    interval. With `probing` off the clock only counts calls and keeps raw
    times, so that it adds nothing to traced iterations.
    """

    def __init__(self, probing: bool = True):
        self.calls = 0
        self.sessions = array("d")  # scaled session times of the last timed call
        self._chunk_s = CHUNK_S if probing else float("inf")
        self._probing = probing
        self._pending = array("d")
        self._last: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._original = None

    def start(self) -> None:
        """Begin a timed call."""
        self.sessions = array("d")
        self._pending = array("d")
        self._last = weakref.WeakKeyDictionary()
        self._probe = probe_s() if self._probing else REFERENCE_S
        self._scaled = self._probe_time = 0.0
        self._t0 = self._cut = perf_counter()

    def _close(self, now: float) -> float:
        """Probe, scale the stretch that ends at `now`; returns when the next begins."""
        probe = probe_s() if self._probing else REFERENCE_S
        factor = REFERENCE_S / (self._probe * probe) ** 0.5
        self._scaled += (now - self._cut) * factor
        self.sessions.extend(x * factor for x in self._pending)
        self._pending = array("d")
        self._probe = probe
        self._cut = perf_counter()
        self._probe_time += self._cut - now
        return self._cut

    def stop(self) -> tuple[float, float]:
        """End the timed call; returns its raw wall time, probes left out,
        and its time at the reference speed."""
        now = perf_counter()
        raw = now - self._t0 - self._probe_time
        self._close(now)
        return raw, self._scaled

    def install(self) -> None:
        original = self._original = engine.ExecutionEngine.step_session

        def step_session(eng, bar):
            now = perf_counter()
            prev = self._last.get(eng)
            if prev is not None:
                self._pending.append(now - prev)
            if now - self._cut >= self._chunk_s:
                now = self._close(now)
            self._last[eng] = now
            self.calls += 1
            return original(eng, bar)

        engine.ExecutionEngine.step_session = step_session

    def uninstall(self) -> None:
        if self._original is not None:
            engine.ExecutionEngine.step_session = self._original
            self._original = None


def _request_chars(request) -> int:
    return len(request.system_text) + sum(len(m.text) for m in request.messages)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # this iteration's [name, start, end, parent index or -1]
        self.last_spans: list[list] = []
        self.inclusive: Counter = Counter()
        self.self_time: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, owner, attr: str, name: str, observe=None) -> None:
        original = owner.__dict__[attr]
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        c, mx = self.counts, self.maxima

        def bars_scanned(args, _):
            c["indicators.bars_scanned"] += len(args[0])

        def rendered(_, r):
            c["templates.rendered_chars"] += len(r.system_text) + len(r.user_text)

        def decided(_, r):
            c["agents.reasks"] += r.attempts - 1
            c["agents.cta_replies"] += r.attempts
            c["agents.parsed_replies"] += 0 if r.gave_up else 1

        def completed(args, _):
            request = args[1]
            c["gateway.calls"] += 1
            c["gateway.request_chars"] += _request_chars(request)
            mx["agents.max_messages"] = max(mx["agents.max_messages"], len(request.messages))
            if request.tag("role") == "optimizer":
                c["opro.optimizer_calls"] += 1

        def provided(_, __):
            c["gateway.provider_calls"] += 1

        def proposed(_, accepted):
            c["opro.proposals"] += 1
            c["opro.accepted"] += bool(accepted)

        def meta_prompt(_, text):
            mx["opro.meta_prompt_chars"] = max(mx["opro.meta_prompt_chars"], len(text))

        def stepped(_, r):
            c["engine.fills"] += len(r.fills)

        def queued(_, r):
            c["engine.rejections"] += isinstance(r, Rejection)

        def reported(args, _):
            c["metrics.trades"] += len(args[1])

        w = self._wrap
        w(harness, "run_experiment", "harness.run_experiment")
        w(harness, "run_single", "harness.run_single")
        w(harness, "market_context", "harness.market_context")
        w(harness, "multi_timeframe_text", "harness.multi_timeframe_text")
        w(harness, "load_data", "bars.load")
        w(bars.BarSeries, "up_to", "bars.slice")
        w(harness, "window_slice", "bars.slice")
        w(harness, "resample", "bars.slice")
        w(indicators, "snapshot", "indicators.snapshot", bars_scanned)
        w(indicators, "detect_levels", "indicators.levels", bars_scanned)
        for fn in ("sma_series", "macd_series", "bollinger_series"):
            w(strategies, fn, "indicators.series")
        w(templates.PromptTemplate, "render", "templates.render", rendered)
        w(agents.ConversationalAgent, "ask", "agents.ask")
        w(agents.CentralAgent, "decide", "agents.decide", decided)
        w(gateway.Gateway, "complete", "gateway.complete", completed)
        w(gateway.RouterProvider, "complete", "gateway.provider", provided)
        w(gateway, "request_hash", "gateway.hash")
        w(gateway.ReplayProvider, "__init__", "gateway.replay_load")
        w(engine.ExecutionEngine, "step_session", "engine.step", stepped)
        w(engine.ExecutionEngine, "validate_and_queue", "engine.queue", queued)
        w(engine.AuditLog, "append", "engine.audit")
        w(opro.AdaptiveOpro, "propose_update", "opro.propose", proposed)
        w(opro, "reflect", "opro.reflect")
        w(opro, "build_meta_prompt", "opro.meta_prompt", meta_prompt)
        for module in (harness, strategies):
            w(module, "compute_report", "metrics.report", reported)
            w(module, "trades_from_audit", "strategies.trades_from_audit")
        w(strategies, "generate_signals", "strategies.signals")
        w(strategies, "run_strategy", "strategies.run")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reduction ---------------------------------------------------------

    def fold(self) -> None:
        """Add this iteration's spans to the per-name totals: inclusive time
        of the outermost spans of a name, self time (duration minus direct
        child spans) and calls. Only the last iteration's spans are kept."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            self.calls[name] += 1
            self.self_time[name] += end - start - child[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                self.inclusive[name] += end - start
        self.last_spans = list(spans)
        spans.clear()  # in place: the wrappers hold this list

    def layer_metrics(self, iterations: int, sizes: dict[str, int]) -> dict[str, float]:
        """Per-iteration layer metrics; `sizes` adds byte counts measured on disk."""
        inc, own = self.inclusive, self.self_time
        c, mx = self.counts, self.maxima
        per = 1.0 / iterations

        def ratio(num: str, den: str) -> float:
            return c[num] / c[den] if c[den] else 0.0

        out = {
            "indicators.snapshot_s": inc["indicators.snapshot"] * per,
            "indicators.levels_s": inc["indicators.levels"] * per,
            "indicators.bars_scanned": c["indicators.bars_scanned"] * per,
            "indicators.series_s": inc["indicators.series"] * per,
            "bars.load_s": inc["bars.load"] * per,
            "bars.slice_s": inc["bars.slice"] * per,
            "harness.context_s": inc["harness.market_context"] * per,
            "harness.context_self_s": own["harness.market_context"] * per,
            "harness.multi_timeframe_s": inc["harness.multi_timeframe_text"] * per,
            "harness.run_self_s": own["harness.run_single"] * per,
            "templates.render_s": inc["templates.render"] * per,
            "templates.rendered_chars": c["templates.rendered_chars"] * per,
            "agents.analyst_self_s": own["agents.ask"] * per,
            "agents.decide_self_s": own["agents.decide"] * per,
            "agents.reasks": c["agents.reasks"] * per,
            "agents.parse_ok_ratio": ratio("agents.parsed_replies", "agents.cta_replies"),
            "agents.max_messages": float(mx["agents.max_messages"]),
            "gateway.calls": c["gateway.calls"] * per,
            "gateway.complete_s": inc["gateway.complete"] * per,
            "gateway.provider_s": inc["gateway.provider"] * per,
            "gateway.hash_s": inc["gateway.hash"] * per,
            "gateway.audit_s": (inc["gateway.complete"] - inc["gateway.provider"]) * per,
            "gateway.request_chars": c["gateway.request_chars"] * per,
            "gateway.audit_bytes": sizes.get("gateway.jsonl", 0) * per,
            "gateway.replay_load_s": inc["gateway.replay_load"] * per,
            "gateway.retries": max(0, c["gateway.provider_calls"] - c["gateway.calls"]) * per,
            "engine.step_s": inc["engine.step"] * per,
            "engine.queue_s": inc["engine.queue"] * per,
            "engine.audit_s": inc["engine.audit"] * per,
            "engine.fills": c["engine.fills"] * per,
            "engine.rejections": c["engine.rejections"] * per,
            "engine.audit_bytes": sizes.get("engine.jsonl", 0) * per,
            "opro.propose_s": inc["opro.propose"] * per,
            "opro.reflect_s": inc["opro.reflect"] * per,
            "opro.optimizer_calls": c["opro.optimizer_calls"] * per,
            "opro.accept_ratio": ratio("opro.accepted", "opro.proposals"),
            "opro.meta_prompt_chars": float(mx["opro.meta_prompt_chars"]),
            "opro.log_bytes": sizes.get("opro.jsonl", 0) * per,
            "metrics.report_s": inc["metrics.report"] * per,
            "metrics.trades": c["metrics.trades"] * per,
            "strategies.run_s": inc["strategies.run"] * per,
            "strategies.signals_s": inc["strategies.signals"] * per,
            "strategies.trades_from_audit_s": inc["strategies.trades_from_audit"] * per,
        }
        return out

    def write(self, path) -> None:
        """The last iteration's spans, one JSON line each, times in seconds
        from its first start."""
        t0 = self.last_spans[0][1] if self.last_spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.last_spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start - t0, "end": end - t0, "parent": parent}) + "\n")

    def summary(self) -> str:
        """One line per span name: calls, inclusive and self seconds."""
        inc, own, calls = self.inclusive, self.self_time, self.calls
        rows = [f"{'span':32} {'calls':>9} {'incl_s':>10} {'self_s':>10}"]
        for name in sorted(calls, key=lambda n: -inc[n]):
            rows.append(f"{name:32} {calls[name]:>9} {inc[name]:>10.4f} {own[name]:>10.4f}")
        return "\n".join(rows)
