"""Indicator correctness against independent from-definition oracles.

The oracles recompute every point from scratch (O(n^2) overall) and never
share rolling state with the implementations they check.
"""

from __future__ import annotations

from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tradeloop.bars import BarSeries, Resolution
from tradeloop.indicators import (
    IndicatorError,
    atr_series,
    bollinger_series,
    detect_levels,
    ema_series,
    format_for_prompt,
    levels_at,
    local_extrema,
    macd_series,
    rsi_series,
    sma_series,
    snapshot,
    snapshots,
    to_jsonl,
    true_ranges,
    volume_profile,
)

from conftest import make_bar, series_from_closes, synthetic_daily

REL_TOL = 1e-9


def rel_err(a: float, b: float) -> float:
    scale = max(abs(a), abs(b), 1e-12)
    return abs(a - b) / scale


# -- oracles -----------------------------------------------------------------


def sma_oracle(closes: list[float], n: int, i: int) -> float | None:
    if i < n - 1:
        return None
    window = closes[i - n + 1 : i + 1]
    return sum(window) / n


def ema_oracle(closes: list[float], n: int, i: int) -> float | None:
    if i < n - 1:
        return None
    alpha = 2.0 / (n + 1)
    value = sum(closes[:n]) / n
    for t in range(n, i + 1):
        value = alpha * closes[t] + (1 - alpha) * value
    return value


def rsi_oracle(closes: list[float], n: int, i: int) -> float | None:
    if i < n:
        return None
    changes = [closes[t] - closes[t - 1] for t in range(1, i + 1)]
    gains = [max(ch, 0.0) for ch in changes]
    losses = [max(-ch, 0.0) for ch in changes]
    avg_gain = sum(gains[:n]) / n
    avg_loss = sum(losses[:n]) / n
    for t in range(n, len(changes)):
        avg_gain = ((n - 1) * avg_gain + gains[t]) / n
        avg_loss = ((n - 1) * avg_loss + losses[t]) / n
    if avg_loss == 0:
        return 100.0
    if avg_gain == 0:
        return 0.0
    return 100.0 - 100.0 / (1.0 + avg_gain / avg_loss)


def macd_oracle(closes: list[float], i: int) -> tuple[float, float, float] | None:
    if i < 25:
        return None
    macd_vals = []
    for t in range(25, i + 1):
        fast = ema_oracle(closes, 12, t)
        slow = ema_oracle(closes, 26, t)
        macd_vals.append(fast - slow)
    if len(macd_vals) < 9:
        return None
    alpha = 2.0 / 10.0
    signal = sum(macd_vals[:9]) / 9
    for v in macd_vals[9:]:
        signal = alpha * v + (1 - alpha) * signal
    line = macd_vals[-1]
    return line, signal, line - signal


def atr_oracle(series: BarSeries, n: int, i: int) -> float | None:
    if i < max(n - 1, 1):
        return None
    trs = []
    bars = series.bars
    for t in range(i + 1):
        h, l = float(bars[t].high), float(bars[t].low)
        if t == 0:
            trs.append(h - l)
        else:
            prev_close = float(bars[t - 1].close)
            trs.append(max(h - l, abs(h - prev_close), abs(l - prev_close)))
    return sum(trs[i - n + 1 : i + 1]) / n


def bollinger_oracle(closes: list[float], n: int, k: float, i: int):
    if i < n - 1:
        return None
    window = closes[i - n + 1 : i + 1]
    mean = sum(window) / n
    sigma = (sum((x - mean) ** 2 for x in window) / n) ** 0.5
    return mean, mean + k * sigma, mean - k * sigma


# -- sma ----------------------------------------------------------------------


class TestSMA:
    def test_constant_series(self):
        series = series_from_closes([7.0] * 25)
        assert sma_series(series, 20)[-1].value == pytest.approx(7.0)

    def test_tiny_mean(self):
        series = series_from_closes([1.0, 2.0, 3.0])
        assert sma_series(series, 3)[-1].value == pytest.approx(2.0)

    def test_unavailable_before_window(self):
        series = series_from_closes([1.0, 2.0])
        values = sma_series(series, 3)
        assert not values[0].available and not values[1].available

    def test_zero_window_rejected(self):
        with pytest.raises(IndicatorError):
            sma_series(series_from_closes([1.0]), 0)[-1]

    def test_matches_oracle(self, random_series):
        closes = random_series.closes()
        values = sma_series(random_series, 50)
        for i, v in enumerate(values):
            want = sma_oracle(closes, 50, i)
            assert v.available == (want is not None)
            if want is not None:
                assert rel_err(v.value, want) <= REL_TOL


class TestEMA:
    def test_constant_is_fixed_point(self):
        series = series_from_closes([4.5] * 30)
        for v in ema_series(series, 10):
            if v.available:
                assert v.value == pytest.approx(4.5)

    def test_n1_equals_closes(self):
        series = series_from_closes([3.0, 5.0, 7.0])
        values = ema_series(series, 1)
        assert [v.value for v in values] == pytest.approx([3.0, 5.0, 7.0])

    def test_hand_unrolled_recursion(self):
        # closes [10,11,12,13], n=2: seed = 10.5, then 11.5, then 12.5.
        series = series_from_closes([10.0, 11.0, 12.0, 13.0])
        values = ema_series(series, 2)
        assert not values[0].available
        assert values[1].value == pytest.approx(10.5)
        assert values[2].value == pytest.approx(11.5)
        assert values[3].value == pytest.approx(12.5)

    def test_matches_oracle(self, random_series):
        closes = random_series.closes()
        values = ema_series(random_series, 12)
        for i, v in enumerate(values):
            want = ema_oracle(closes, 12, i)
            assert v.available == (want is not None)
            if want is not None:
                assert rel_err(v.value, want) <= REL_TOL


class TestRSI:
    def test_strictly_increasing_is_100(self):
        series = series_from_closes([float(i) + 1 for i in range(30)])
        assert rsi_series(series)[-1].value == pytest.approx(100.0)

    def test_strictly_decreasing_is_0(self):
        series = series_from_closes([100.0 - i for i in range(30)])
        assert rsi_series(series)[-1].value == pytest.approx(0.0)

    def test_alternating_is_50(self):
        # 14 alternating +1/-1 changes: 7 gains, 7 losses -> RS = 1 -> RSI 50.
        closes = []
        x = 100.0
        for i in range(15):
            closes.append(x)
            x += 1.0 if i % 2 == 0 else -1.0
        series = series_from_closes(closes)
        assert rsi_series(series)[-1].value == pytest.approx(50.0)

    def test_alternating_oscillates_near_50(self):
        closes = []
        x = 100.0
        for i in range(40):
            closes.append(x)
            x += 1.0 if i % 2 == 0 else -1.0
        values = [v.value for v in rsi_series(series_from_closes(closes)) if v.available]
        assert all(44.0 < v < 56.0 for v in values)

    def test_matches_oracle(self, random_series):
        closes = random_series.closes()
        values = rsi_series(random_series, 14)
        for i, v in enumerate(values):
            want = rsi_oracle(closes, 14, i)
            assert v.available == (want is not None)
            if want is not None:
                assert rel_err(v.value, want) <= REL_TOL

    def test_bounded_0_100(self, long_series):
        for v in rsi_series(long_series, 14):
            if v.available:
                assert 0.0 <= v.value <= 100.0


class TestMACD:
    def test_constant_series_is_zero(self):
        series = series_from_closes([50.0] * 60)
        value = macd_series(series)[-1].value
        assert value["macd"] == pytest.approx(0.0)
        assert value["signal"] == pytest.approx(0.0)
        assert value["histogram"] == pytest.approx(0.0)

    def test_linear_ramp_positive(self):
        series = series_from_closes([100.0 + i for i in range(60)])
        assert macd_series(series)[-1].value["macd"] > 0

    def test_histogram_identity(self, random_series):
        for v in macd_series(random_series):
            if v.available:
                assert v.value["histogram"] == pytest.approx(v.value["macd"] - v.value["signal"])

    def test_matches_oracle(self, random_series):
        closes = random_series.closes()
        values = macd_series(random_series)
        for i, v in enumerate(values):
            want = macd_oracle(closes, i)
            assert v.available == (want is not None)
            if want is not None:
                line, signal, hist = want
                assert rel_err(v.value["macd"], line) <= REL_TOL
                assert rel_err(v.value["signal"], signal) <= REL_TOL
                assert rel_err(v.value["histogram"], hist) <= REL_TOL

    def test_availability_needs_both_emas_and_signal(self):
        series = series_from_closes([float(i % 7) + 10 for i in range(33)])
        values = macd_series(series)
        assert not values[32].available
        series = series_from_closes([float(i % 7) + 10 for i in range(34)])
        assert macd_series(series)[33].available


class TestATR:
    def test_flat_bars_zero(self):
        series = series_from_closes([10.0] * 20)
        assert atr_series(series, 14)[-1].value == pytest.approx(0.0)

    def test_gap_dominates(self):
        bars = (
            make_bar(date(2024, 1, 2), 100, 100, 100, 100),
            make_bar(date(2024, 1, 3), 120, 120, 120, 120),
        )
        series = BarSeries("S", Resolution.DAILY, bars)
        assert true_ranges(series)[1] == pytest.approx(20.0)
        assert atr_series(series, 1)[-1].value == pytest.approx(20.0)

    def test_matches_oracle(self, random_series):
        values = atr_series(random_series, 14)
        for i, v in enumerate(values):
            want = atr_oracle(random_series, 14, i)
            assert v.available == (want is not None)
            if want is not None:
                assert rel_err(v.value, want) <= 1e-12

    def test_non_negative(self, long_series):
        for v in atr_series(long_series, 14):
            if v.available:
                assert v.value >= 0


class TestBollinger:
    def test_constant_collapses(self):
        series = series_from_closes([9.0] * 25)
        value = bollinger_series(series)[-1].value
        assert value["upper"] == pytest.approx(value["middle"])
        assert value["lower"] == pytest.approx(value["middle"])

    def test_two_point_by_hand(self):
        # closes [1,3], n=2, k=2: middle 2, sigma 1, bands (4, 0).
        series = series_from_closes([1.0, 3.0])
        value = bollinger_series(series, n=2, k=2.0)[-1].value
        assert value["middle"] == pytest.approx(2.0)
        assert value["upper"] == pytest.approx(4.0)
        assert value["lower"] == pytest.approx(0.0)

    def test_band_width_identity(self, random_series):
        for v in bollinger_series(random_series, 20, 2.0):
            if v.available:
                sigma = (v.value["upper"] - v.value["lower"]) / (2 * 2.0)
                assert v.value["upper"] == pytest.approx(v.value["middle"] + 2 * sigma)
                assert v.value["lower"] == pytest.approx(v.value["middle"] - 2 * sigma)

    def test_ordering(self, long_series):
        for v in bollinger_series(long_series):
            if v.available:
                assert v.value["lower"] <= v.value["middle"] <= v.value["upper"]

    def test_n_below_2_rejected(self):
        with pytest.raises(IndicatorError):
            bollinger_series(series_from_closes([1.0, 2.0]), n=1)[-1]

    def test_matches_oracle(self, random_series):
        closes = random_series.closes()
        for i, v in enumerate(bollinger_series(random_series, 20, 2.0)):
            want = bollinger_oracle(closes, 20, 2.0, i)
            assert v.available == (want is not None)
            if want is not None:
                mid, up, lo = want
                assert rel_err(v.value["middle"], mid) <= REL_TOL
                assert rel_err(v.value["upper"], up) <= REL_TOL
                assert rel_err(v.value["lower"], lo) <= REL_TOL


class TestShiftEquivariance:
    @given(st.integers(min_value=0, max_value=1_000))
    @settings(max_examples=15, deadline=None)
    def test_appending_bars_never_changes_history(self, seed):
        full = synthetic_daily(80, seed=seed)
        prefix = BarSeries(full.symbol, full.resolution, full.bars[:60])
        for fn, kwargs in (
            (sma_series, {"n": 10}),
            (ema_series, {"n": 12}),
            (rsi_series, {"n": 14}),
            (macd_series, {}),
            (atr_series, {"n": 14}),
            (bollinger_series, {}),
        ):
            head = fn(prefix, **kwargs)
            whole = fn(full, **kwargs)[:60]
            for a, b in zip(head, whole):
                assert a == b


class TestScaling:
    def test_sma_ema_scale_linearly(self, random_series):
        scaled = BarSeries(
            random_series.symbol,
            random_series.resolution,
            tuple(
                make_bar(
                    b.session_date,
                    b.open * 2,
                    b.high * 2,
                    b.low * 2,
                    b.close * 2,
                    v=b.volume,
                )
                for b in random_series.bars
            ),
        )
        for a, b in zip(sma_series(random_series, 20), sma_series(scaled, 20)):
            if a.available:
                assert rel_err(b.value, 2 * a.value) <= 1e-12
        for a, b in zip(ema_series(random_series, 12), ema_series(scaled, 12)):
            if a.available:
                assert rel_err(b.value, 2 * a.value) <= 1e-12

    def test_rsi_invariant_under_pure_scaling(self, random_series):
        scaled = BarSeries(
            random_series.symbol,
            random_series.resolution,
            tuple(
                make_bar(
                    b.session_date,
                    b.open * 4,
                    b.high * 4,
                    b.low * 4,
                    b.close * 4,
                    v=b.volume,
                )
                for b in random_series.bars
            ),
        )
        for a, b in zip(rsi_series(random_series), rsi_series(scaled)):
            assert a.available == b.available
            if a.available:
                assert b.value == a.value

    def test_rsi_scaling_exact_equality_small_fixture(self):
        closes = [100.0, 101.0, 99.5, 102.0, 103.0, 101.5] * 5
        base = series_from_closes(closes)
        scaled = series_from_closes([c * 2 for c in closes])
        for a, b in zip(rsi_series(base), rsi_series(scaled)):
            if a.available:
                assert a.value == b.value


class TestVolumeProfile:
    def test_single_bin_degenerate(self):
        series = series_from_closes([10.0] * 5)
        value = volume_profile(series, n_bins=8).value
        assert value["poc"] == pytest.approx(10.0)
        assert value["value_area_low"] == pytest.approx(10.0)
        assert value["value_area_high"] == pytest.approx(10.0)

    def test_seventy_thirty_hand_accumulation(self):
        # Two price clusters: 70% of volume at ~10, 30% at ~20; coverage 0.70
        # keeps the value area at the POC bin alone.
        bars = []
        d = date(2024, 1, 1)
        from conftest import next_weekday
        from datetime import timedelta

        for i in range(7):
            d = next_weekday(d)
            bars.append(make_bar(d, 10, 20, 10, 10.5, v=10))
            d += timedelta(days=1)
        for i in range(3):
            d = next_weekday(d)
            bars.append(make_bar(d, 10, 20, 10, 19.5, v=10))
            d += timedelta(days=1)
        series = BarSeries("S", Resolution.DAILY, tuple(bars))
        value = volume_profile(series, n_bins=2, coverage=0.70).value
        assert value["poc"] == pytest.approx(12.5)  # center of [10, 15)
        assert value["value_area_low"] == pytest.approx(10.0)
        assert value["value_area_high"] == pytest.approx(15.0)

    def test_full_coverage_spans_all_nonzero_bins(self):
        bars = []
        d = date(2024, 1, 1)
        from conftest import next_weekday
        from datetime import timedelta

        for close, vol in ((10.5, 50), (19.5, 30), (14.5, 20)):
            d = next_weekday(d)
            bars.append(make_bar(d, 10, 20, 10, close, v=vol))
            d += timedelta(days=1)
        series = BarSeries("S", Resolution.DAILY, tuple(bars))
        value = volume_profile(series, n_bins=10, coverage=1.0).value
        assert value["value_area_low"] == pytest.approx(10.0)
        assert value["value_area_high"] == pytest.approx(20.0)

    def test_zero_volume_rejected(self):
        bars = (make_bar(date(2024, 1, 2), 10, 10, 10, 10, v=0),)
        series = BarSeries("S", Resolution.DAILY, bars)
        with pytest.raises(IndicatorError, match="zero total volume"):
            volume_profile(series)

    def test_conserves_volume_across_nodes(self, random_series):
        value = volume_profile(random_series, n_bins=24).value
        total = sum(v for _, v in value["nodes"])
        assert total == pytest.approx(sum(b.volume for b in random_series.bars))


class TestDetectLevels:
    def test_monotone_series_empty(self):
        series = series_from_closes([float(i) + 1 for i in range(20)])
        levels = detect_levels(series)
        assert levels.support == () and levels.resistance == ()

    def test_triple_bottom_support(self):
        # Three V-shaped bottoms at ~100 within 0.1%, peaks at 110.
        lows = [110, 105, 100, 105, 110, 105, 100.05, 105, 110, 105, 99.95, 105, 110]
        bars = []
        d = date(2024, 1, 1)
        from conftest import next_weekday
        from datetime import timedelta

        for lo in lows:
            d = next_weekday(d)
            bars.append(make_bar(d, lo + 1, lo + 2, lo, lo + 1, v=100))
            d += timedelta(days=1)
        series = BarSeries("S", Resolution.DAILY, tuple(bars))
        levels = detect_levels(series, tolerance_pct=0.5, min_touches=3)
        assert len(levels.support) == 1
        assert levels.support[0].price == pytest.approx(100.0, abs=0.1)
        assert levels.support[0].touches == 3

    def test_strength_in_unit_interval(self, long_series):
        levels = detect_levels(long_series, tolerance_pct=1.0, min_touches=2)
        for level in levels.support + levels.resistance:
            assert 0.0 <= level.strength <= 1.0

    def test_needs_three_bars(self):
        with pytest.raises(IndicatorError):
            detect_levels(series_from_closes([1.0, 2.0]))


class TestPerBarSets:
    """Values at every bar from one pass equal those on each prefix."""

    def test_snapshots_equal_prefix_snapshots(self, random_series):
        bars = random_series.bars
        rows = snapshots(random_series, range(len(bars)))
        for i, row in enumerate(rows):
            assert row == snapshot(BarSeries("SYNTH", Resolution.DAILY, bars[: i + 1])), i

    def test_levels_at_equal_prefix_levels(self, random_series):
        bars = random_series.bars
        extrema = local_extrema(random_series)
        for i in range(2, len(bars)):
            prefix = BarSeries("SYNTH", Resolution.DAILY, bars[: i + 1])
            assert levels_at(random_series, extrema, i) == detect_levels(prefix), i

    def test_extrema_need_two_bars_after(self):
        series = series_from_closes([1.0, 2.0, 5.0, 2.0, 1.0])
        highs, lows = local_extrema(series)
        assert highs == [(2, 5.0, 1000)] and lows == []
        assert local_extrema(series_from_closes([1.0, 5.0, 1.0, 1.0])) == ([], [])


class TestSnapshotRendering:
    def test_short_history_renders_na(self):
        series = series_from_closes([10.0] * 5)
        text = format_for_prompt(snapshot(series))
        assert "SMA(200): n/a" in text
        assert "RSI(14): n/a" in text

    def test_available_values_formatted(self):
        series = synthetic_daily(250, seed=9)
        text = format_for_prompt(snapshot(series))
        assert "SMA(200):" in text and "n/a" not in text.split("SMA(200):")[1].splitlines()[0]
        assert "MACD(12,26,9): macd " in text

    def test_jsonl_schema(self):
        series = series_from_closes([10.0] * 30)
        lines = to_jsonl(snapshot(series)).strip().splitlines()
        import json

        for line in lines:
            obj = json.loads(line)
            assert set(obj) == {"date", "name", "params", "values"}
