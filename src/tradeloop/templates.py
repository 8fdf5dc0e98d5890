"""Prompt templates: `{{ name }}` placeholders and `{% if %}` conditionals.

The syntax is deliberately frozen to the constructs the shipped prompt assets
use: placeholders (with an optional `| default("literal")` filter) and
non-nested-beyond-depth-2 conditionals with an optional `{% else %}`. Anything
else is a template error — strictness is what makes candidate validation
meaningful. Bare braces are literal text (the order-schema JSON examples in
the assets depend on that).

A template is parsed in one forward scan: one match of `_TOKEN` finds and
reads each next `{{` or `{%`, text and placeholders go to the innermost open
block, and a stack holds the open conditionals.

Text inside a `<system_role>` block that the template writes renders into
the LLM system message, the rest into the user message; tags in values are text.

Each static run of at least `SHARED_MIN` characters, less its newlines at
either end, is a `gateway.SharedText` node, made when a template that holds it
is parsed. `render` cuts the newlines at the ends of a user text beside a
system block from its plain pieces, which alone can hold them, and hands the
user side, values and runs alike, to `gateway.joined_message`, so the gateway
log writes each such run once and cites it after that.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Mapping, NamedTuple

from .errors import ConfigError, read_file
from .gateway import ChatMessage, SharedText, joined_message, text_part

_PLACEHOLDER = re.compile(
    r"\{\{\s*([A-Za-z_][A-Za-z0-9_]*)\s*(?:\|\s*default\(\"([^\"]*)\"\)\s*)?\}\}"
)
_TAG = re.compile(r"\{%\s*(if\s+([A-Za-z_][A-Za-z0-9_]*)|else|endif)\s*%\}")
# The next placeholder or tag in one match: groups 1-2 are a placeholder's,
# 3-4 a tag's, and a `{{` or `{%` that is neither matches with no group.
_TOKEN = re.compile(f"{_PLACEHOLDER.pattern}|{_TAG.pattern}|\\{{[{{%]")
_SYSTEM_TAGS = ("<system_role>", "</system_role>")
_SYSTEM_TAG = re.compile(r"(</?system_role>)")

MAX_CONDITIONAL_DEPTH = 2
SHARED_MIN = 128  # the shortest static run that is a part of its own


class TemplateError(ConfigError):
    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(f"{code}: {message}")


class _Text(NamedTuple):
    text: str


class _Placeholder(NamedTuple):
    name: str
    default: str | None


class _Conditional(NamedTuple):
    name: str
    then: tuple
    otherwise: tuple


@dataclass(frozen=True)
class RenderedPrompt:
    """A rendered template: its system text and its user message."""

    system_text: str
    user: ChatMessage

    @property
    def user_text(self) -> str:
        return self.user.text


def _parse(body: str) -> tuple[tuple, frozenset[str]]:
    """The node tree of `body` and the set of every `{{ }}` and `{% if %}`
    name. Raises TemplateError outside the frozen grammar: on a malformed
    `{{` or `{%` first, wherever it is, then on the first misplaced tag."""
    matches = list(_TOKEN.finditer(body))
    bad = next((m.start() for m in matches if m.lastindex is None), None)
    if bad is not None:
        snippet = body[bad : bad + 30].splitlines()[0]
        code = "MALFORMED_PLACEHOLDER" if body[bad + 1] == "{" else "UNKNOWN_CONSTRUCT"
        raise TemplateError(code, f"at {snippet!r}")
    names: set[str] = set()
    nodes: list = []  # the innermost open block
    stack: list[tuple[str, list, tuple | None]] = []  # per open `if`: name, outer block, then-branch after `else`

    def text(chunk: str) -> None:
        for run in _SYSTEM_TAG.split(chunk) if "system_role>" in chunk else (chunk,):
            if len(run) >= SHARED_MIN:
                nodes.extend(_long_run(run))
            elif run:
                nodes.append(_Text(run))

    pos = 0
    for m in matches:
        text(body[pos : m.start()])
        pos = m.end()
        name, default, kind, condition = m.groups()
        if name is not None:
            nodes.append(_Placeholder(name, default))
            names.add(name)
        elif condition is not None:
            if len(stack) == MAX_CONDITIONAL_DEPTH:
                raise TemplateError("UNBALANCED_CONDITIONAL", f"conditionals nested beyond depth {MAX_CONDITIONAL_DEPTH}")
            names.add(condition)
            stack.append((condition, nodes, None))
            nodes = []
        elif not stack:
            where = "outside conditional" if kind == "else" else "without {% if %}"
            raise TemplateError("UNBALANCED_CONDITIONAL", f"{{% {kind} %}} {where}")
        elif kind == "else":
            condition, outer, then = stack[-1]
            if then is not None:
                raise TemplateError("UNBALANCED_CONDITIONAL", "duplicate {% else %}")
            stack[-1] = (condition, outer, tuple(nodes))
            nodes = []
        else:
            condition, outer, then = stack.pop()
            branches = (tuple(nodes), ()) if then is None else (then, tuple(nodes))
            outer.append(_Conditional(condition, *branches))
            nodes = outer
    text(body[pos:])
    if stack:
        raise TemplateError("UNBALANCED_CONDITIONAL", "unclosed {% if %}")
    return tuple(nodes), frozenset(names)


@lru_cache(maxsize=256)
def _long_run(text: str) -> tuple[_Text | SharedText, ...]:
    """The nodes of a static run of at least SHARED_MIN characters. When the
    run, less its newlines at either end, is still that long, that core is a
    `SharedText` node (unless a surrogate leaves it without an id), and
    the newlines are `_Text` nodes of their own: a shared run neither starts
    nor ends with a newline, so the strip of a rendered user text never
    shortens it. Made once per text: a run is parsed again with every
    template that holds it, such as each of a run's optimizer candidates,
    whose runs are mostly the live template's."""
    core = text.strip("\n")
    part = text_part(core) if len(core) >= SHARED_MIN else None
    if part is None or part.id is None:
        return (_Text(text),)
    lead = text.index(core[0])  # the first character that is not a newline
    nodes = (_Text(text[:lead]), part, _Text(text[lead + len(core) :]))
    return tuple(node for node in nodes if node.text)


@dataclass(frozen=True)
class PromptTemplate:
    name: str
    body: str
    nodes: tuple
    names: frozenset[str]  # every `{{ }}` and `{% if %}` name

    @classmethod
    def parse(cls, name: str, body: str) -> "PromptTemplate":
        return cls(name, body, *_parse(body))

    def placeholders(self) -> frozenset[str]:
        return self.names

    def render(self, context: Mapping[str, object]) -> RenderedPrompt:
        """Substitute and split into the system text and the user message.

        Every placeholder reached needs a context key (MISSING_KEY otherwise);
        the default filter fires on missing, None, or empty-string values.
        Conditionals test truthiness of their (required) key. Values are
        inserted verbatim: the parser already split the template text at
        every '{{', '{%' and system tag, so braces and tags in a value, such
        as model or news text, are text. The system block runs from the
        template's first `<system_role>` to its next `</system_role>`, and
        the user text beside it loses its newlines at either end, which only
        plain pieces hold: a shared run never starts or ends with one.
        """
        out: list[str | SharedText] = []
        tags: list[int] = []  # the indices in `out` of the template's tags
        self._render_nodes(self.nodes, context, out, tags)
        start = next((i for i in tags if out[i] == "<system_role>"), len(out))
        end = next((i for i in tags if i > start and out[i] == "</system_role>"), None)
        if end is None:
            return RenderedPrompt("", joined_message("user", out))
        system_text = "".join([p.text if type(p) is SharedText else p for p in out[start + 1 : end]]).strip()
        user = out[:start] + out[end + 1 :]
        for order, cut in ((range(len(user)), str.lstrip), (range(len(user) - 1, -1, -1), str.rstrip)):
            for i in order:
                if type(user[i]) is SharedText:
                    break
                user[i] = cut(user[i], "\n")
                if user[i]:
                    break
        return RenderedPrompt(system_text, joined_message("user", user))

    def _render_nodes(
        self, nodes: tuple, context: Mapping[str, object], out: list[str | SharedText], tags: list[int]
    ) -> None:
        # A node is a tuple subclass or a SharedText: an exact type test and
        # one read of each field keep a node's visit cheap.
        for node in nodes:
            kind = type(node)
            if kind is _Text:
                text = node.text
                if text in _SYSTEM_TAGS:  # `_parse` made each tag a node of its own
                    tags.append(len(out))
                out.append(text)
            elif kind is _Placeholder:
                name = node.name
                present = name in context
                value = context.get(name)
                if node.default is not None and (not present or value is None or value == ""):
                    out.append(node.default)
                    continue
                if not present:
                    raise TemplateError("MISSING_KEY", name)
                out.append(value if isinstance(value, str) else str(value))
            elif kind is SharedText:
                out.append(node)
            else:
                if node.name not in context:
                    raise TemplateError("MISSING_KEY", node.name)
                branch = node.then if context[node.name] else node.otherwise
                self._render_nodes(branch, context, out, tags)


_PROMPT_DIR = Path(__file__).parent / "prompts"


def load_template(name: str, override_dir: Path | str | None = None) -> PromptTemplate:
    return read_file(asset_path(name, override_dir), "prompt", lambda text: PromptTemplate.parse(name, text), ConfigError)


def asset_path(name: str, override_dir: Path | str | None = None) -> Path:
    """The file of prompt asset `name`: its override in `override_dir`, else the shipped one."""
    base = Path(override_dir) if override_dir else _PROMPT_DIR
    path = base / f"{name}.txt"
    if not path.exists() and override_dir:
        path = _PROMPT_DIR / f"{name}.txt"
    return path


def check_override_dir(override_dir: Path | str) -> None:
    """Raise a ConfigError unless `override_dir` is a directory whose `.txt` files all
    name shipped assets: a missing or misspelled one leaves the shipped prompts in force."""
    base = Path(override_dir)
    if not base.is_dir():
        raise ConfigError(f"prompt_dir {base} is not a directory")
    for path in sorted(base.glob("*.txt")):
        if not (_PROMPT_DIR / path.name).is_file():
            raise ConfigError(f"prompt_dir file {path} names no prompt asset")
