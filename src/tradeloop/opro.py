"""Windowed ROI scoring and meta-prompted instruction updates, plus the
periodic reflection baseline.

The decision prompt's static instruction block is the optimization target.
Every K decision steps the realized ROI maps onto a 0-100 score, the scored
prompt history goes into a meta-prompt, and an optimizer model proposes a
replacement template. A candidate goes live only when its placeholder set
matches the current template exactly; rejected or unparseable candidates
leave the live template untouched. Every event lands in an append-only JSONL
evolution log. Each template is JSON-escaped once, when it enters the
history, and each proposal's message fragment is joined from those escapes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from .agents import ConversationalAgent, read_fence
from .engine import AuditLog
from .gateway import Gateway, escape, escaped_fragment
from .templates import PromptTemplate, TemplateError

HISTORY_MARKER = "{{ history_text }}"  # where the optimizer asset takes the scored history

OPTIMIZER_KEYS = ("performance_analysis", "optimized_prompt", "key_improvements", "expected_impact")

OPTIMIZER_FORMAT_REMINDER = (
    "Your previous reply was not usable. Return a single ```json fenced object with exactly "
    "the keys performance_analysis, optimized_prompt, key_improvements, expected_impact. "
    "The optimized_prompt must be the complete template text with every existing "
    "placeholder and conditional block preserved exactly."
)


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
    """A template that went live, and the score of the last window it was
    live for (1 decimal place). `escaped` is the text's `gateway.escape`,
    made once: the text never changes, only the score."""

    iteration: int
    template_text: str
    score: float | None = None
    escaped: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.escaped = escape(self.template_text)


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
    body = read_fence(text, require_json=True)
    if body is None:
        raise OptimizerParseError("BAD_FENCE", "no ```json fenced block found")
    try:
        obj = json.loads(body)
    except json.JSONDecodeError as exc:
        raise OptimizerParseError("NOT_OBJECT", f"fenced payload is not valid JSON: {exc.msg}")
    except RecursionError:
        raise OptimizerParseError("NOT_OBJECT", "fenced payload is nested too deeply") from None
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


def validate_candidate(current: PromptTemplate, candidate_text: str) -> PromptTemplate:
    """The candidate as a template named as `current` when it parses and keeps
    `current`'s placeholder set; otherwise raises the OptimizerParseError that
    rejects it: PARSE_ERROR, MISSING_PLACEHOLDER or EXTRA_PLACEHOLDER."""
    try:
        candidate = PromptTemplate.parse(current.name, candidate_text)
    except TemplateError as exc:
        raise OptimizerParseError("PARSE_ERROR", str(exc)) from None
    want, got = current.placeholders(), candidate.placeholders()
    for code, names in (("MISSING_PLACEHOLDER", want - got), ("EXTRA_PLACEHOLDER", got - want)):
        if names:
            raise OptimizerParseError(code, ",".join(sorted(names)))
    return candidate


def _ranked(records: list[PromptRecord]) -> list[tuple[str, PromptRecord]]:
    """The scored records, ascending by score (ties by iteration), each with
    its block's header. A header is printable ASCII with no quote or
    backslash, so it is its own escape."""
    scored = sorted((r for r in records if r.score is not None), key=lambda r: (r.score, r.iteration))
    return [(f"### Prompt {r.iteration} | Score: {r.score:.1f}", r) for r in scored]


_NL, _GAP = escape("\n"), escape("\n\n")


def build_history_text(records: list[PromptRecord]) -> str:
    """The scored templates, ascending by score (ties by iteration)."""
    return "\n\n".join(f"{header}\n{r.template_text}" for header, r in _ranked(records))


def build_meta_prompt(records: list[PromptRecord], optimizer_asset: str) -> str:
    """Substitute the history into the optimizer asset.

    Direct substitution, not the template engine: the asset's preservation
    warnings contain literal placeholder examples that must survive verbatim.
    """
    return optimizer_asset.replace(HISTORY_MARKER, build_history_text(records))


def escaped_asset(optimizer_asset: str) -> tuple[str, ...]:
    """The `gateway.escape` of each piece of the optimizer asset around its
    history markers."""
    return tuple(map(escape, optimizer_asset.split(HISTORY_MARKER)))


def meta_prompt_fragment(records: list[PromptRecord], asset_pieces: tuple[str, ...]) -> str:
    """The `message_fragment` of the user message `build_meta_prompt(records,
    asset)`, where `asset_pieces` is the `escaped_asset` of `asset`: joined
    from the records' escapes, with nothing escaped again."""
    history = _GAP.join(f"{header}{_NL}{r.escaped}" for header, r in _ranked(records))
    return escaped_fragment("user", history.join(asset_pieces))


def template_sha(text: str) -> str:
    """SHA-256 of `text` as UTF-8; an unpaired surrogate, which model text
    may carry, encodes as its three bytes instead of failing."""
    return hashlib.sha256(text.encode("utf-8", "surrogatepass")).hexdigest()


class AdaptiveOpro:
    """One optimizer loop per run, strictly sequential with the decision loop.

    `history` holds the templates that went live, the live one last;
    `iteration` numbers the proposals, the initial template being the first.
    `roi_mode` picks the window signal: "cumulative" (since inception,
    default) or "windowed" (window-local).
    """

    def __init__(
        self,
        initial_template: PromptTemplate,
        gateway: Gateway,
        optimizer_asset: str,
        k: int = 5,
        roi_mode: str = "cumulative",
        log_sink: Path | str | None = None,
    ):
        self.k = k
        self.roi_mode = roi_mode
        self.gateway = gateway
        self.optimizer_asset = optimizer_asset
        self._asset_pieces = escaped_asset(optimizer_asset)
        self.live_template = initial_template
        self.iteration = 1
        self.history = [PromptRecord(self.iteration, initial_template.body)]
        self.windows: list[ScoringWindow] = []
        self.log = AuditLog(log_sink)
        self._log(None, initial_template.body)

    def _log(
        self, score: float | None, template_text: str, output: OptimizerOutput | None = None, error: Exception | None = None
    ) -> None:
        """Append the ledger line of proposal `iteration`: the initial
        template, a reply's accepted `output`, or the `error` that rejected
        the proposal, with its last candidate as `template_text`. The keys
        are written in sorted order."""
        self.log.append(
            {
                "accepted": error is None,
                "analysis": output and output.performance_analysis,
                "impact": output and output.expected_impact,
                "improvements": output and output.key_improvements,
                "iteration": self.iteration,
                "reject_reason": error and str(error),
                "score": score,
                "template_sha": template_sha(template_text),
                "template_text": template_text,
            }
        )

    # -- scoring -------------------------------------------------------------

    def is_boundary(self, step: int) -> bool:
        return step % self.k == 0

    def close_window(self, step: int, inception_value: float, current_value: float) -> ScoringWindow:
        """Score the window ending at decision step `step` (1-based).

        A windowed score starts from the last window's end value, unless that
        value is 0 or less (a short squeeze): then, as in cumulative mode, it
        starts from `inception_value`, which is the positive initial cash."""
        last = self.windows[-1] if self.windows else None
        start_step = last.end_step if last else 0
        base = last.v_end if last and self.roi_mode == "windowed" and last.v_end > 0 else inception_value
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
        self.history[-1].score = round(window.score, 1)
        return window

    # -- meta-prompted update --------------------------------------------------

    def propose_update(self, tags=()) -> bool:
        """One optimizer turn over the meta-prompt; the candidate goes live
        when it parses and keeps the placeholder set. A reply that does not
        is re-asked as any turn is; after the last re-ask the current template
        stays and the ledger keeps the last candidate seen. Returns True when
        the live template changed."""
        live_score = self.history[-1].score
        self.iteration += 1
        last_candidate = ""

        def parse(reply: str) -> tuple[OptimizerOutput, PromptTemplate]:
            """The reply and its valid candidate; the error's text is the reject reason."""
            nonlocal last_candidate
            try:
                output = parse_optimizer_response(reply)
            except OptimizerParseError as exc:
                raise OptimizerParseError(exc.code, str(exc)) from None  # the ledger names the code twice
            last_candidate = output.optimized_prompt
            return output, validate_candidate(self.live_template, last_candidate)

        optimizer = ConversationalAgent("optimizer", self.gateway, None, None)
        meta = build_meta_prompt(self.history, self.optimizer_asset)
        fragment = meta_prompt_fragment(self.history, self._asset_pieces)
        try:
            (output, candidate), _ = optimizer.ask_parsed(meta, parse, lambda _: OPTIMIZER_FORMAT_REMINDER, tags, fragment)
        except OptimizerParseError as exc:
            self._log(live_score, last_candidate, error=exc)
            return False
        self.live_template = candidate
        self.history.append(PromptRecord(self.iteration, candidate.body))
        self._log(live_score, candidate.body, output=output)
        return True


def reflect(gateway: Gateway, template: PromptTemplate, context: dict, tags=()) -> str:
    """One advisory review paragraph over the period's decision history: a
    conversation of one turn.

    Reflection never touches templates; its text is injected into the next
    decision context as reflection_analysis.
    """
    return ConversationalAgent("reflection", gateway, template, template).ask(context, tags)
