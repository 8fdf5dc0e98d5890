"""The errors that bad input can reach: one base per exit code, each named in
README's list of inputs. `cli.main` prints one as `<label>: <message>` and
exits with its `exit_code`. `AssertionError`, `EngineError` and
`MetricsError` guard internal invariants and stay outside on purpose: a
traceback from them is a bug report. `described` quotes the exception behind
such an error. `read_file` reads every file a command reads, and names one
that cannot be read, decoded or parsed. It imports no module of the package."""

import hashlib
import io
from pathlib import Path
from typing import Callable, TypeVar

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_PROVIDER = 4

T = TypeVar("T")


class TradeloopError(Exception):
    exit_code: int
    label: str


class ConfigError(TradeloopError, ValueError):
    exit_code = EXIT_CONFIG
    label = "config error"


class DataError(TradeloopError, ValueError):
    exit_code = EXIT_DATA
    label = "data error"


class ProviderError(TradeloopError):  # not a ValueError: `ask_parsed` re-asks on those
    exit_code = EXIT_PROVIDER
    label = "provider error"


class ReplayMismatch(ProviderError):
    pass


def described(exc: Exception) -> str:
    """`exc` as an error message quotes it: its repr, but a decode error by
    its position and reason, as its repr holds every byte being decoded."""
    return str(exc) if isinstance(exc, UnicodeDecodeError) else repr(exc)


def read_file(path: Path | str, what: str, parse: Callable[[str], T], error: type[TradeloopError], inputs: dict | None = None) -> T:
    """`parse` of the UTF-8 text of the `what` file at `path`, newlines as `Path.read_text`
    reads them; `inputs[what]`, if given, is set to the SHA-256 of its bytes. A failure is
    an `error`, `bad <what> file <path>: <why>`; a TradeloopError of `parse` keeps its kind."""
    try:
        data = Path(path).read_bytes()
        if inputs is not None:
            inputs[what] = hashlib.sha256(data).hexdigest()
        text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
        del data  # not held while `parse` runs: a config or its lock holds every scripted reply
        return parse(text)
    except TradeloopError as exc:
        exc.args = (f"bad {what} file {path}: {exc}",)
        raise
    except (OSError, ValueError, LookupError, TypeError, ArithmeticError, RecursionError) as exc:
        raise error(f"bad {what} file {path}: {described(exc)}") from None
