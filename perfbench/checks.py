"""Output checks run on every iteration of a workload.

Each check returns None when the artifact is correct and a one-line reason
when it is not. They read only the artifacts a run leaves on disk and the
expectations the input generator recorded, never the program's own state.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import Counter
from decimal import Decimal
from pathlib import Path


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_equity(metrics_path: Path, sessions: int, initial_cash: str) -> str | None:
    """One equity value per session, the first equal to inception cash."""
    try:
        values = json.loads(metrics_path.read_text(encoding="utf-8"))["equity"]["values"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"metrics.json unreadable: {exc!r}"
    if len(values) != sessions:
        return f"equity curve has {len(values)} values for {sessions} sessions"
    if Decimal(values[0]) != Decimal(initial_cash):
        return f"equity starts at {values[0]}, not inception cash {initial_cash}"
    return None


def check_engine_audit(lines, bar_ranges: dict[str, tuple[Decimal, Decimal]]) -> str | None:
    """SESSION_SUMMARY cash never below zero; every FILL inside its day's
    [low, high]. `lines` are the audit's JSONL lines."""
    summaries = 0
    for n, line in enumerate(lines, 1):
        try:
            event = json.loads(line)
        except ValueError:
            return f"engine audit line {n} is not JSON"
        kind = event.get("type")
        if kind == "SESSION_SUMMARY":
            summaries += 1
            if Decimal(event["cash"]) < 0:
                return f"negative cash {event['cash']} on {event['date']}"
        elif kind == "FILL":
            day = bar_ranges.get(event["date"])
            if day is None:
                return f"fill on {event['date']}, which has no bar"
            low, high = day
            if not low <= Decimal(event["price"]) <= high:
                return f"fill at {event['price']} outside [{low}, {high}] on {event['date']}"
    if summaries == 0:
        return "engine audit has no SESSION_SUMMARY"
    return None


def gateway_roles(path: Path) -> Counter | str:
    """Calls per role tag in a gateway audit log, or the reason it is unreadable.

    Only the tail of each record is decoded: keys are sorted, so `tags` and
    `ts` follow the (large) request and response, and a `"tags":{` inside a
    JSON string would be escaped.
    """
    roles: Counter = Counter()
    with open(path, "r", encoding="utf-8") as fh:
        for n, line in enumerate(fh, 1):
            if not line.endswith("\n"):
                return f"gateway.jsonl line {n} is truncated"
            cut = line.rfind('"tags":{')
            if cut < 0:
                return f"gateway.jsonl line {n} has no tags"
            try:
                tail = json.loads("{" + line[cut:])
            except ValueError:
                return f"gateway.jsonl line {n} is not a complete record"
            roles[tail["tags"].get("role", "")] += 1
    return roles


def check_gateway_schedule(path: Path, expected: dict[str, int]) -> str | None:
    """Calls per role equal the schedule the inputs imply."""
    roles = gateway_roles(path)
    if isinstance(roles, str):
        return roles
    got = {role: roles.get(role, 0) for role in expected}
    extra = set(roles) - set(expected)
    if got != expected or extra:
        return f"gateway calls per role {dict(roles)} != schedule {expected}"
    return None


def check_buy_hold_roi(roi_pct: float | None, first_open: Decimal, last_close: Decimal) -> str | None:
    """Buy & hold ROI equals (C_T / O_1 - 1) * 100 when O_1 divides the cash."""
    want = (float(last_close) / float(first_open) - 1) * 100.0
    if roi_pct is None or abs(roi_pct - want) > 1e-9:
        return f"buy & hold ROI {roi_pct} != (C_T/O_1 - 1)*100 = {want}"
    return None


class DigestLedger:
    """SHA-256 of each seed's result, shared by every run in one work root,
    so a run of the same seed and the same code that produces other bytes
    fails its check. Keys carry a fingerprint of the code under test and of
    the benchmark, so an intended change of output starts a new entry."""

    def __init__(self, path: Path, sources: list[Path]):
        self.path = path
        h = hashlib.sha256()
        for source in sources:
            for file in sorted(p for p in source.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
                if file.suffix in (".py", ".txt"):
                    h.update(file.read_bytes())
        self.fingerprint = h.hexdigest()[:16]

    def check(self, key: str, digest: str) -> str | None:
        key = f"{key}@{self.fingerprint}"
        try:
            known = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            known = {}
        if key in known:
            if known[key] != digest:
                return f"{key}: digest {digest[:12]} differs from earlier run's {known[key][:12]}"
            return None
        known[key] = digest
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(f"{self.path.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True), encoding="utf-8")
        tmp.replace(self.path)
        return None
