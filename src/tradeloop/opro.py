"""Windowed ROI scoring and meta-prompted instruction updates, plus the
periodic reflection baseline.

The decision prompt's static instruction block is the optimization target.
Every K decision steps the realized ROI maps onto a 0-100 score, the scored
prompt history goes into a meta-prompt, and an optimizer model proposes a
replacement template. A candidate goes live only when its placeholder set
matches the current template exactly; rejected or unparseable candidates
leave the live template untouched. Every event lands in an append-only JSONL
evolution log.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path

from .agents import ConversationalAgent
from .engine import AuditLog
from .gateway import Gateway
from .templates import PromptTemplate, TemplateError

OPTIMIZER_KEYS = ("performance_analysis", "optimized_prompt", "key_improvements", "expected_impact")

OPTIMIZER_FORMAT_REMINDER = (
    "Your previous reply was not usable. Return a single ```json fenced object with exactly "
    "the keys performance_analysis, optimized_prompt, key_improvements, expected_impact. "
    "The optimized_prompt must be the complete template text with every existing "
    "placeholder and conditional block preserved exactly."
)

_JSON_FENCE = re.compile(r"```json\s*\n(.*?)\n?\s*```", re.DOTALL)


def window_score(roi: float) -> float:
    """clip_[0,100](50 + 250*roi): -20% -> 0, 0% -> 50, +20% -> 100."""
    score = 50.0 + 250.0 * roi
    if score < 0.0:
        return 0.0
    if score > 100.0:
        return 100.0
    return score


@dataclass(frozen=True)
class ScoringWindow:
    start_step: int
    end_step: int
    v_start: float
    v_end: float
    roi: float
    score: float


@dataclass
class PromptRecord:
    iteration: int
    template_text: str
    score: float | None = None  # latest observed while live; 1 decimal place
    analysis: str | None = None
    improvements: str | None = None
    impact: str | None = None
    accepted: bool = True
    reject_reason: str | None = None


@dataclass(frozen=True)
class OptimizerOutput:
    performance_analysis: str
    optimized_prompt: str
    key_improvements: str
    expected_impact: str


class OptimizerParseError(ValueError):
    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(f"{code}: {message}")


def parse_optimizer_response(text: str) -> OptimizerOutput:
    """Parse the ```json fenced four-key object the optimizer must return."""
    m = _JSON_FENCE.search(text)
    if m is None:
        raise OptimizerParseError("BAD_FENCE", "no ```json fenced block found")
    try:
        obj = json.loads(m.group(1))
    except json.JSONDecodeError as exc:
        raise OptimizerParseError("NOT_OBJECT", f"fenced payload is not valid JSON: {exc.msg}")
    if not isinstance(obj, dict):
        raise OptimizerParseError("NOT_OBJECT", f"expected object, got {type(obj).__name__}")
    for key in OPTIMIZER_KEYS:
        if key not in obj:
            raise OptimizerParseError("MISSING_KEY", key)
        if not isinstance(obj[key], str):
            raise OptimizerParseError("MISSING_KEY", f"{key} must be a string")
    extras = [k for k in obj if k not in OPTIMIZER_KEYS]
    if extras:
        raise OptimizerParseError("NOT_OBJECT", f"unexpected keys {extras}")
    return OptimizerOutput(**{k: obj[k] for k in OPTIMIZER_KEYS})


@dataclass(frozen=True)
class CandidateVerdict:
    accepted: bool
    reason: str | None = None  # MISSING_PLACEHOLDER | EXTRA_PLACEHOLDER | PARSE_ERROR
    detail: str = ""


def validate_candidate(current: PromptTemplate, candidate_text: str) -> CandidateVerdict:
    """Accept iff the candidate parses and its placeholder set is unchanged."""
    try:
        candidate = PromptTemplate.parse("candidate", candidate_text)
    except TemplateError as exc:
        return CandidateVerdict(accepted=False, reason="PARSE_ERROR", detail=str(exc))
    want = current.placeholders()
    got = candidate.placeholders()
    missing = want - got
    if missing:
        return CandidateVerdict(
            accepted=False, reason="MISSING_PLACEHOLDER", detail=",".join(sorted(missing))
        )
    extra = got - want
    if extra:
        return CandidateVerdict(
            accepted=False, reason="EXTRA_PLACEHOLDER", detail=",".join(sorted(extra))
        )
    return CandidateVerdict(accepted=True)


def build_history_text(records: list[PromptRecord]) -> str:
    """Scored accepted templates, ascending by score (ties by iteration)."""
    scored = [r for r in records if r.accepted and r.score is not None]
    scored.sort(key=lambda r: (r.score, r.iteration))
    blocks = []
    for r in scored:
        blocks.append(f"### Prompt {r.iteration} | Score: {r.score:.1f}\n{r.template_text}")
    return "\n\n".join(blocks)


def build_meta_prompt(records: list[PromptRecord], optimizer_asset: str) -> str:
    """Substitute the history into the optimizer asset.

    Direct substitution, not the template engine: the asset's preservation
    warnings contain literal placeholder examples that must survive verbatim.
    """
    return optimizer_asset.replace("{{ history_text }}", build_history_text(records))


def template_sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


ROI_MODES = ("cumulative", "windowed")


class AdaptiveOpro:
    """One optimizer loop per run, strictly sequential with the decision loop.

    `roi_mode` picks the window signal: "cumulative" (since inception,
    default) or "windowed" (window-local).
    """

    def __init__(
        self,
        initial_template: PromptTemplate,
        gateway: Gateway | None,
        optimizer_asset: str,
        k: int = 5,
        roi_mode: str = "cumulative",
        log_sink: Path | str | None = None,
    ):
        if k < 1:
            raise ValueError("K must be >= 1")
        if roi_mode not in ROI_MODES:
            raise ValueError(f"bad roi_mode {roi_mode!r}")
        self.k = k
        self.roi_mode = roi_mode
        self.gateway = gateway
        self.optimizer_asset = optimizer_asset
        self.live_template = initial_template
        self.records: list[PromptRecord] = [
            PromptRecord(iteration=1, template_text=initial_template.body)
        ]
        self.windows: list[ScoringWindow] = []
        self.optimizer_calls = 0
        self.log = AuditLog(log_sink, sort_keys=True)
        self.log.append(self._record_line(self.records[0], score=None))

    def _record_line(self, record: PromptRecord, score: float | None) -> dict:
        return {
            "iteration": record.iteration,
            "score": score,
            "accepted": record.accepted,
            "reject_reason": record.reject_reason,
            "analysis": record.analysis,
            "improvements": record.improvements,
            "impact": record.impact,
            "template_sha": template_sha(record.template_text),
            "template_text": record.template_text,
        }

    # -- scoring -------------------------------------------------------------

    def is_boundary(self, step: int) -> bool:
        return step % self.k == 0

    def close_window(self, step: int, inception_value: float, current_value: float) -> ScoringWindow:
        """Score the window ending at decision step `step` (1-based)."""
        if self.windows:
            start_step = self.windows[-1].end_step
        else:
            start_step = 0
        if self.roi_mode == "cumulative":
            base = inception_value
        else:
            base = self.windows[-1].v_end if self.windows else inception_value
        if base <= 0:
            raise ValueError("window base value must be positive")
        roi = (current_value - base) / base
        window = ScoringWindow(
            start_step=start_step,
            end_step=step,
            v_start=base,
            v_end=current_value,
            roi=roi,
            score=window_score(roi),
        )
        self.windows.append(window)
        live = self._live_record()
        live.score = round(window.score, 1)
        return window

    def _live_record(self) -> PromptRecord:
        for record in reversed(self.records):
            if record.accepted:
                return record
        raise RuntimeError("no accepted record")

    # -- meta-prompted update --------------------------------------------------

    def propose_update(self, tags=()) -> bool:
        """One optimizer turn over the meta-prompt; the candidate goes live
        when it parses and keeps the placeholder set. A reply that does not
        is re-asked as any turn is; after the last re-ask the current template
        stays. Returns True when the live template changed."""
        if self.gateway is None:
            raise RuntimeError("optimizer gateway not configured")
        self.optimizer_calls += 1
        live_score = self._live_record().score
        iteration = self.records[-1].iteration + 1
        last_candidate = ""

        def parse(reply: str) -> OptimizerOutput:
            """The reply's valid candidate; the error's text is the reject reason."""
            nonlocal last_candidate
            try:
                output = parse_optimizer_response(reply)
            except OptimizerParseError as exc:
                raise OptimizerParseError(exc.code, str(exc)) from None  # the ledger names the code twice
            last_candidate = output.optimized_prompt
            verdict = validate_candidate(self.live_template, output.optimized_prompt)
            if not verdict.accepted:
                raise OptimizerParseError(verdict.reason, verdict.detail)
            return output

        optimizer = ConversationalAgent("optimizer", self.gateway, None, None)
        meta = build_meta_prompt(self.records, self.optimizer_asset)
        try:
            output, _ = optimizer.ask_parsed(meta, parse, lambda _: OPTIMIZER_FORMAT_REMINDER, tags)
        except OptimizerParseError as exc:
            record = PromptRecord(iteration, last_candidate, accepted=False, reject_reason=str(exc))
        else:
            record = PromptRecord(
                iteration=iteration,
                template_text=output.optimized_prompt,
                analysis=output.performance_analysis,
                improvements=output.key_improvements,
                impact=output.expected_impact,
            )
            self.live_template = PromptTemplate.parse(f"cta_initial@{iteration}", output.optimized_prompt)
        self.records.append(record)
        self.log.append(self._record_line(record, score=live_score))
        return record.accepted


def reflect(gateway: Gateway, template: PromptTemplate, context: dict, tags=()) -> str:
    """One advisory review paragraph over the period's decision history: a
    conversation of one turn.

    Reflection never touches templates; its text is injected into the next
    decision context as reflection_analysis.
    """
    return ConversationalAgent("reflection", gateway, template, template).ask(context, tags)
