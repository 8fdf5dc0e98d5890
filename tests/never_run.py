"""The lines of `src/tradeloop` that no in-process test runs.

    python tests/never_run.py

Runs pytest over `tests/` in this process under
a `sys.settrace` line tracer, then lists each function-body line of the
package that never ran, as `<file>:<line>: <function> :: <stripped source
line>`. The run fails (exit 1) on any never-run line: there is no
list of exceptions, so a line no test reaches gets a test or goes. It exits 2
when the tests themselves fail.

Lines that only a child process reaches, such as a `tradeloop` command a
test starts with `subprocess`, count as never run: the tracer sees this
process and its threads only. Pytest does not collect this file.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path
from types import CodeType
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tradeloop"


def body_lines(path: Path) -> dict[int, str]:
    """Each line of a function body in the module at `path`, with the
    qualified name of the innermost function that holds it. A `def` line
    belongs to the enclosing code, so only a lambda's first line counts."""
    owner: dict[int, tuple[int, str]] = {}
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        todo += [const for const in code.co_consts if isinstance(const, CodeType)]
        if code.co_name == "<module>":
            continue
        lines = {line for _, _, line in code.co_lines() if line is not None}
        if code.co_name != "<lambda>":
            lines.discard(code.co_firstlineno)
        for line in lines:  # the innermost code is the one that starts last
            if line not in owner or owner[line][0] < code.co_firstlineno:
                owner[line] = (code.co_firstlineno, getattr(code, "co_qualname", code.co_name))
    return {line: name for line, (_, name) in owner.items()}


def line_tracer(seen: set[int]) -> Callable:
    """A local trace function that adds each line its frame runs to `seen`."""

    def on_line(frame, event, arg):
        if event == "line":
            seen.add(frame.f_lineno)
        return on_line

    return on_line


def trace_tests(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Pytest's exit code with `args`, and the lines each package file ran."""
    import pytest

    files = {os.path.realpath(path) for path in map(str, PACKAGE.glob("*.py"))}
    ran: dict[str, set[int]] = {path: set() for path in files}
    tracers: dict[CodeType, Callable | None] = {}  # a code's line tracer, or None outside the package

    def on_call(frame, event, arg):
        code = frame.f_code
        if code in tracers:
            return tracers[code]
        path = os.path.realpath(code.co_filename)
        tracer = tracers[code] = line_tracer(ran[path]) if path in files else None
        return tracer

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    code, ran = trace_tests([str(ROOT / "tests"), "-q", "-p", "no:cacheprovider"])
    if code != 0:
        print(f"never_run: the tests failed (pytest exit {code}); no lines compared")
        return 2
    never: list[str] = []
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = body_lines(path)
        total += len(lines)
        source = path.read_text(encoding="utf-8").splitlines()
        done = ran[os.path.realpath(path)]
        for line in sorted(set(lines) - done):
            never.append(f"{path.relative_to(ROOT)}:{line}: {lines[line]} :: {source[line - 1].strip()}")
    print(f"never_run: {len(never)} of {total} function-body lines never ran")
    for key in never:
        print(f"never run: {key}")
    return 1 if never else 0


if __name__ == "__main__":
    sys.exit(main())
