"""Prompt templates: `{{ name }}` placeholders and `{% if %}` conditionals.

The syntax is deliberately frozen to the constructs the shipped prompt assets
use: placeholders (with an optional `| default("literal")` filter) and
non-nested-beyond-depth-2 conditionals with an optional `{% else %}`. Anything
else is a template error — strictness is what makes candidate validation
meaningful. Bare braces are literal text (the order-schema JSON examples in
the assets depend on that).

Text inside a `<system_role>` block that the template writes renders into
the LLM system message, the rest into the user message; tags in values are text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, NamedTuple

from .errors import ConfigError

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
    system_text: str
    user_text: str


def _tokenize(body: str) -> tuple[list, set[str]]:
    """The tokens of `body` in order, text and system tags as `_Text`, and
    the set of every `{{ }}` and `{% if %}` name. A conditional tag is an
    ("if" | "else" | "endif", name) pair. One forward scan: one match finds
    and reads the next `{{` or `{%`. Raises TemplateError on a malformed one."""
    tokens: list = []
    names: set[str] = set()
    pos = 0

    def text(chunk: str) -> None:
        if "system_role>" in chunk:
            tokens.extend(map(_Text, filter(None, _SYSTEM_TAG.split(chunk))))
        elif chunk:
            tokens.append(_Text(chunk))

    for m in _TOKEN.finditer(body):
        cut = m.start()
        text(body[pos:cut])
        name, default, kind, condition = m.groups()
        if name is not None:
            tokens.append(_Placeholder(name, default))
            names.add(name)
        elif kind is None:
            snippet = body[cut : cut + 30].splitlines()[0]
            code = "MALFORMED_PLACEHOLDER" if body[cut + 1] == "{" else "UNKNOWN_CONSTRUCT"
            raise TemplateError(code, f"at {snippet!r}")
        elif condition is not None:
            tokens.append(("if", condition))
            names.add(condition)
        else:
            tokens.append((kind, None))  # "else" or "endif"
        pos = m.end()
    text(body[pos:])
    return tokens, names


def _parse(body: str) -> tuple[tuple, frozenset[str]]:
    """Tokenize and build the node tree; also the set of every `{{ }}` and
    `{% if %}` name. Raises TemplateError on anything outside the frozen
    grammar."""
    tokens, names = _tokenize(body)

    def build(idx: int, depth: int) -> tuple[tuple, int, bool]:
        """Returns (nodes, next index, saw_else). Stops at else/endif."""
        nodes: list = []
        while idx < len(tokens):
            tok = tokens[idx]
            if isinstance(tok, (_Text, _Placeholder)):
                nodes.append(tok)
                idx += 1
                continue
            kind, name = tok
            if kind == "if":
                if depth + 1 > MAX_CONDITIONAL_DEPTH:
                    raise TemplateError(
                        "UNBALANCED_CONDITIONAL", f"conditionals nested beyond depth {MAX_CONDITIONAL_DEPTH}"
                    )
                then, idx, saw_else = build(idx + 1, depth + 1)
                otherwise: tuple = ()
                if saw_else:
                    otherwise, idx, saw_else2 = build(idx, depth + 1)
                    if saw_else2:
                        raise TemplateError("UNBALANCED_CONDITIONAL", "duplicate {% else %}")
                nodes.append(_Conditional(name, then, otherwise))
                continue
            if kind == "else":
                if depth == 0:
                    raise TemplateError("UNBALANCED_CONDITIONAL", "{% else %} outside conditional")
                return tuple(nodes), idx + 1, True
            if kind == "endif":
                if depth == 0:
                    raise TemplateError("UNBALANCED_CONDITIONAL", "{% endif %} without {% if %}")
                return tuple(nodes), idx + 1, False
        if depth != 0:
            raise TemplateError("UNBALANCED_CONDITIONAL", "unclosed {% if %}")
        return tuple(nodes), idx, False

    nodes, _, _ = build(0, 0)
    return nodes, frozenset(names)


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
        """Substitute and split into (system, user) texts.

        Every placeholder reached needs a context key (MISSING_KEY otherwise);
        the default filter fires on missing, None, or empty-string values.
        Conditionals test truthiness of their (required) key. Values are
        inserted verbatim: the parser already split the template text at
        every '{{', '{%' and system tag, so braces and tags in a value, such
        as model or news text, are text. The system block runs from the
        template's first `<system_role>` to its next `</system_role>`.
        """
        out: list[str] = []
        tags: list[int] = []  # the indices in `out` of the template's tags
        self._render_nodes(self.nodes, context, out, tags)
        start = next((i for i in tags if out[i] == "<system_role>"), len(out))
        end = next((i for i in tags if i > start and out[i] == "</system_role>"), None)
        if end is None:
            return RenderedPrompt(system_text="", user_text="".join(out))
        system_text = "".join(out[start + 1 : end]).strip()
        user_text = ("".join(out[:start]) + "".join(out[end + 1 :])).strip("\n")
        return RenderedPrompt(system_text=system_text, user_text=user_text)

    def _render_nodes(self, nodes: tuple, context: Mapping[str, object], out: list[str], tags: list[int]) -> None:
        # A node is a tuple subclass: an exact type test and one read of each
        # field keep a node's visit as cheap as it was for a dataclass.
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
            else:
                if node.name not in context:
                    raise TemplateError("MISSING_KEY", node.name)
                branch = node.then if context[node.name] else node.otherwise
                self._render_nodes(branch, context, out, tags)


_PROMPT_DIR = Path(__file__).parent / "prompts"


def load_template(name: str, override_dir: Path | str | None = None) -> PromptTemplate:
    return PromptTemplate.parse(name, asset_path(name, override_dir).read_text(encoding="utf-8"))


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
