"""Optional HTTP bar-data client behind the same BarSeries contract.

Every fetched payload is cached to disk verbatim before parsing, so a run is
reproducible from its cache without network access. The API key comes from an
environment variable and is never persisted.
"""

from __future__ import annotations

import json
import math
import os
from datetime import date, datetime, timezone
from decimal import Decimal, ROUND_HALF_EVEN
from pathlib import Path
from typing import Callable

from .bars import Bar, BarDataError, BarSeries, Resolution

_FOUR_DP = Decimal("0.0001")


class FetchError(RuntimeError):
    pass


def _dec(row: dict, key: str) -> Decimal:
    """The number `row[key]` to 4 decimal places."""
    value = row[key]
    if not (isinstance(value, (int, float)) and math.isfinite(value)):
        raise ValueError(f"{key} is not a finite number: {value!r}")
    return Decimal(repr(value)).quantize(_FOUR_DP, rounding=ROUND_HALF_EVEN)


class BarFetcher:
    """Daily-aggregate fetcher for a polygon-style bars endpoint."""

    def __init__(
        self,
        base_url: str = "https://api.polygon.io",
        api_key_env: str = "MARKET_DATA_API_KEY",
        cache_dir: Path | str = "data/cache",
        http_get: Callable[[str, dict], bytes] | None = None,
    ):
        self.base_url = base_url.rstrip("/")
        self.api_key_env = api_key_env
        self.cache_dir = Path(cache_dir)
        self._http_get = http_get

    def _cache_path(self, symbol: str, start: date, end: date) -> Path:
        return self.cache_dir / f"{symbol}_{start.isoformat()}_{end.isoformat()}.json"

    def fetch_daily(self, symbol: str, start: date, end: date) -> BarSeries:
        cache = self._cache_path(symbol, start, end)
        if cache.exists():
            payload = cache.read_bytes()
        else:
            payload = self._download(symbol, start, end)
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            cache.write_bytes(payload)
        return self._parse(symbol, payload)

    def _download(self, symbol: str, start: date, end: date) -> bytes:
        url = f"{self.base_url}/v2/aggs/ticker/{symbol}/range/1/day/{start.isoformat()}/{end.isoformat()}"
        key = os.environ.get(self.api_key_env, "")
        if not key:
            raise FetchError(f"{self.api_key_env} is not set and no cached payload exists")
        params = {"adjusted": "true", "sort": "asc", "limit": "50000", "apiKey": key}
        if self._http_get is not None:
            return self._http_get(url, params)
        import requests

        resp = requests.get(url, params=params, timeout=30)
        if resp.status_code != 200:
            raise FetchError(f"provider returned status {resp.status_code}")
        return resp.content

    def _parse(self, symbol: str, payload: bytes) -> BarSeries:
        try:
            obj = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FetchError(f"unparseable provider payload: {exc}") from None
        results = obj.get("results") if isinstance(obj, dict) else None
        if not results:
            raise FetchError("provider payload has no results")
        bars = []
        for number, row in enumerate(results, start=1):
            try:
                bars.append(_bar_from_row(row))
            except BarDataError as exc:
                raise FetchError(f"provider bar at row {number} violates invariants: {exc}") from None
            except (LookupError, TypeError, ValueError, ArithmeticError, OSError) as exc:
                raise FetchError(f"unreadable provider row {number}: {exc!r}") from None
        return BarSeries(symbol=symbol, resolution=Resolution.DAILY, bars=tuple(bars))


def _bar_from_row(row: dict) -> Bar:
    # provider timestamps are epoch ms; pin UTC so the session date
    # does not depend on the host timezone
    session = datetime.fromtimestamp(row["t"] / 1000.0, tz=timezone.utc).date()
    return Bar(
        session_date=session,
        open=_dec(row, "o"),
        high=_dec(row, "h"),
        low=_dec(row, "l"),
        close=_dec(row, "c"),
        volume=int(row["v"]),
        vwap=_dec(row, "vw") if "vw" in row else None,
        transactions=int(row["n"]) if "n" in row else None,
    )
