"""HTTP bar fetcher: verbatim caching and payload parsing."""

from __future__ import annotations

import json
from datetime import date
from decimal import Decimal

import pytest

from tradeloop.datafeed import BarFetcher, FetchError


def provider_rows() -> list[dict]:
    rows = []
    for i, day in enumerate((date(2025, 4, 28), date(2025, 4, 29))):
        epoch_ms = int(__import__("datetime").datetime(day.year, day.month, day.day, 12).timestamp() * 1000)
        rows.append(
            {
                "t": epoch_ms,
                "o": 100.0 + i,
                "h": 102.5 + i,
                "l": 99.0 + i,
                "c": 101.123 + i,
                "v": 1000 + i,
                "vw": 100.7 + i,
                "n": 42 + i,
            }
        )
    return rows


def provider_payload() -> bytes:
    return json.dumps({"results": provider_rows()}).encode("utf-8")


class TestFetchDaily:
    def test_fetch_parses_and_caches_verbatim(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MARKET_DATA_API_KEY", "k")
        calls = []

        def fake_get(url, params):
            calls.append((url, dict(params)))
            return provider_payload()

        fetcher = BarFetcher(cache_dir=tmp_path, http_get=fake_get)
        series = fetcher.fetch_daily("SYNTH", date(2025, 4, 28), date(2025, 4, 29))
        assert len(series) == 2
        assert series.bars[0].close == Decimal("101.1230")
        assert series.bars[0].vwap == Decimal("100.7000")
        cache = tmp_path / "SYNTH_2025-04-28_2025-04-29.json"
        assert cache.read_bytes() == provider_payload()
        assert len(calls) == 1
        assert "apiKey" in calls[0][1]

    def test_cache_hit_skips_network(self, tmp_path):
        cache = tmp_path / "SYNTH_2025-04-28_2025-04-29.json"
        cache.write_bytes(provider_payload())

        def explode(url, params):
            raise AssertionError("network must not be touched on cache hit")

        fetcher = BarFetcher(cache_dir=tmp_path, http_get=explode)
        series = fetcher.fetch_daily("SYNTH", date(2025, 4, 28), date(2025, 4, 29))
        assert len(series) == 2

    def test_missing_key_without_cache_fails(self, tmp_path, monkeypatch):
        monkeypatch.delenv("MARKET_DATA_API_KEY", raising=False)
        fetcher = BarFetcher(cache_dir=tmp_path, http_get=lambda u, p: b"{}")
        with pytest.raises(FetchError, match="MARKET_DATA_API_KEY"):
            fetcher.fetch_daily("SYNTH", date(2025, 4, 28), date(2025, 4, 29))

    def test_empty_results_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MARKET_DATA_API_KEY", "k")
        fetcher = BarFetcher(cache_dir=tmp_path, http_get=lambda u, p: b'{"results": []}')
        with pytest.raises(FetchError, match="no results"):
            fetcher.fetch_daily("SYNTH", date(2025, 4, 28), date(2025, 4, 29))

    def test_unparseable_payload_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MARKET_DATA_API_KEY", "k")
        fetcher = BarFetcher(cache_dir=tmp_path, http_get=lambda u, p: b"<html>oops</html>")
        with pytest.raises(FetchError, match="unparseable"):
            fetcher.fetch_daily("SYNTH", date(2025, 4, 28), date(2025, 4, 29))

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda row: row.update(c=float("nan")), id="NaN close"),
            pytest.param(lambda row: row.update(h=1e400), id="1e400 high"),
            pytest.param(lambda row: row.pop("t"), id="no t"),
            pytest.param(lambda row: row.update(v=None), id="null volume"),
        ],
    )
    def test_unreadable_row_names_it(self, tmp_path, edit):
        rows = provider_rows()
        edit(rows[1])
        cache = tmp_path / "SYNTH_2025-04-28_2025-04-29.json"
        cache.write_bytes(json.dumps({"results": rows}).encode("utf-8"))
        fetcher = BarFetcher(cache_dir=tmp_path, http_get=lambda u, p: b"")
        with pytest.raises(FetchError, match="provider row 2"):
            fetcher.fetch_daily("SYNTH", date(2025, 4, 28), date(2025, 4, 29))
