"""The errors that bad input can reach: one base per exit code, each named in
README's list of inputs. `cli.main` prints one as `<label>: <message>` and
exits with its `exit_code`. `AssertionError`, `EngineError` and
`MetricsError` guard internal invariants and stay outside on purpose: a
traceback from them is a bug report. `described` quotes the exception behind
such an error. This module imports nothing."""

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_PROVIDER = 4


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
