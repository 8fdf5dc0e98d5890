"""Windowed ROI scoring and meta-prompted instruction updates, plus the
periodic reflection baseline.

The decision prompt's static instruction block is the optimization target.
Every K decision steps the realized ROI maps onto a 0-100 score, the scored
prompt history goes into a meta-prompt, and an optimizer model proposes a
replacement template. A candidate goes live only when its placeholder set
matches the current template exactly; rejected or unparseable candidates
leave the live template untouched. Every event lands in an append-only JSONL
evolution log. Each template becomes a `gateway.SharedText` (escaped and
hashed) once, when it enters the history, and the ledger takes its id from
it. Each proposal's meta-prompt message is made by one
`gateway.joined_message` call from the optimizer asset's pieces, the score
headers and those shared texts, as a rendered prompt is joined from its
template's, so its audit record cites every text that an earlier record
wrote.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .agents import ConversationalAgent, read_fence
from .engine import AuditLog
from .gateway import ChatMessage, Gateway, SharedText, joined_message, text_id, text_part
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
    live for (1 decimal place). `part` is the text's `gateway.text_part`,
    made once: the text never changes, only the score."""

    iteration: int
    template_text: str
    score: float | None = None
    part: SharedText = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.part = text_part(self.template_text)


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
    its block's header."""
    scored = sorted((r for r in records if r.score is not None), key=lambda r: (r.score, r.iteration))
    return [(f"### Prompt {r.iteration} | Score: {r.score:.1f}", r) for r in scored]


def build_history_text(records: list[PromptRecord]) -> str:
    """The scored templates, ascending by score (ties by iteration)."""
    return "\n\n".join(f"{header}\n{r.template_text}" for header, r in _ranked(records))


def build_meta_prompt(records: list[PromptRecord], optimizer_asset: str) -> str:
    """Substitute the history into the optimizer asset.

    Direct substitution, not the template engine: the asset's preservation
    warnings contain literal placeholder examples that must survive verbatim.
    """
    return optimizer_asset.replace(HISTORY_MARKER, build_history_text(records))


def meta_prompt(records: list[PromptRecord], pieces: tuple[SharedText, ...]) -> ChatMessage:
    """The user message `build_meta_prompt(records, asset)`, where `pieces`
    are the `text_part`s of the asset's pieces around its history markers,
    joined from those, the records' parts and the headers between them.
    Nothing is escaped again: a header, printable ASCII with no quote or
    backslash, is its own escape but for its newlines."""
    history: list[SharedText] = []
    for header, r in _ranked(records):
        block = f"\n\n{header}\n" if history else f"{header}\n"
        history += (SharedText(block, block.replace("\n", r"\n")), r.part)
    return joined_message("user", [pieces[0], *(p for piece in pieces[1:] for p in (*history, piece))])


class AdaptiveOpro:
    """One optimizer loop per run, strictly sequential with the decision loop.

    `history` holds the templates that went live, the live one last;
    `iteration` numbers the proposals, the initial template being the first.
    A window closes every `k` decision steps; `roi_mode` picks its signal:
    "cumulative" (since inception) or "windowed" (window-local). The ledger
    goes to `log` (memory when None), which the owner closes.
    """

    def __init__(
        self,
        initial_template: PromptTemplate,
        gateway: Gateway,
        optimizer_asset: str,
        k: int,
        roi_mode: str,
        log: AuditLog | None = None,
    ):
        self.k = k
        self.roi_mode = roi_mode
        self.gateway = gateway
        self._pieces = tuple(map(text_part, optimizer_asset.split(HISTORY_MARKER)))
        self.live_template = initial_template
        self.iteration = 1
        self.history = [PromptRecord(self.iteration, initial_template.body)]
        self.windows: list[ScoringWindow] = []
        self.log = log if log is not None else AuditLog()
        self._log(None, initial_template.body)

    def _log(
        self, score: float | None, template_text: str, output: OptimizerOutput | None = None, error: Exception | None = None
    ) -> None:
        """Append the ledger line of proposal `iteration`: the initial
        template, a reply's accepted `output`, or the `error` that rejected
        the proposal, with its last candidate as `template_text`. The keys
        are written in sorted order. Without an error, `template_text` is
        the last record's, whose part already holds its id unless it has
        none."""
        known = self.history[-1].part.id if error is None else None
        self.log.append(
            {
                "accepted": error is None,
                "analysis": output and output.performance_analysis,
                "impact": output and output.expected_impact,
                "improvements": output and output.key_improvements,
                "iteration": self.iteration,
                "reject_reason": error and str(error),
                "score": score,
                "template_sha": known or text_id(template_text),
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
        message = meta_prompt(self.history, self._pieces)
        try:
            (output, candidate), _ = optimizer.ask_parsed(message, parse, lambda _: OPTIMIZER_FORMAT_REMINDER, tags)
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
