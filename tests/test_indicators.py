"""Indicator correctness against independent from-definition oracles.

The oracles recompute every point from scratch (O(n^2) overall) and never
share rolling state with the implementations they check.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import replace
from datetime import date, timedelta
from decimal import Decimal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tradeloop.bars import MAX_VOLUME, BarSeries, Resolution
from tradeloop.indicators import (
    IndicatorError,
    LevelSet,
    atr_series,
    bollinger_at,
    bollinger_series,
    detect_levels,
    ema_series,
    format_for_prompt,
    levels_at,
    local_extrema,
    macd_series,
    market_texts,
    rsi_series,
    sma_series,
    snapshot,
    snapshots,
    true_ranges,
    volume_profile,
)

import indicators_oracle as oracle
from conftest import make_bar, next_weekday, series_from_closes, synthetic_daily

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


def levels_oracle(series: BarSeries, tolerance_pct: float = 0.5, min_touches: int = 2):
    """(support, resistance) at the last bar, each a tuple of (price,
    strength, touches): the local extrema that two later bars confirm, in
    (price, volume) order, clustered greedily from the lowest."""
    bars = series.bars
    highs = [float(b.high) for b in bars]
    lows = [float(b.low) for b in bars]
    peaks, troughs = [], []
    for j in range(2, len(bars) - 2):
        near = range(j - 2, j + 3)
        if all(highs[j] >= highs[t] for t in near) and any(highs[t] < highs[j] for t in near):
            peaks.append((highs[j], bars[j].volume))
        if all(lows[j] <= lows[t] for t in near) and any(lows[t] > lows[j] for t in near):
            troughs.append((lows[j], bars[j].volume))

    def clustered(points):
        groups = []
        for price, volume in sorted(points):
            if groups:
                prices = [p for p, _ in groups[-1]]
                mean = sum(prices) / len(prices)
                if mean > 0 and abs(price - mean) / mean * 100.0 <= tolerance_pct:
                    groups[-1].append((price, volume))
                    continue
            groups.append([(price, volume)])
        kept = [g for g in groups if len(g) >= min_touches]
        weights = [len(g) * max(sum(v for _, v in g), 1) for g in kept]
        return tuple(
            (sum(p for p, _ in g) / len(g), w / max(weights), len(g)) for g, w in zip(kept, weights)
        )

    return clustered(troughs), clustered(peaks)


# -- sma ----------------------------------------------------------------------


class TestSMA:
    def test_constant_series(self):
        series = series_from_closes([7.0] * 25)
        assert sma_series(series, 20)[-1] == pytest.approx(7.0)

    def test_tiny_mean(self):
        series = series_from_closes([1.0, 2.0, 3.0])
        assert sma_series(series, 3)[-1] == pytest.approx(2.0)

    def test_unavailable_before_window(self):
        series = series_from_closes([1.0, 2.0])
        values = sma_series(series, 3)
        assert values[0] is None and values[1] is None

    def test_zero_window_rejected(self):
        with pytest.raises(IndicatorError):
            sma_series(series_from_closes([1.0]), 0)[-1]

    def test_matches_oracle(self, random_series):
        closes = random_series.closes
        values = sma_series(random_series, 50)
        for i, v in enumerate(values):
            want = sma_oracle(closes, 50, i)
            assert (v is None) == (want is None)
            if want is not None:
                assert rel_err(v, want) <= REL_TOL


class TestEMA:
    def test_constant_is_fixed_point(self):
        series = series_from_closes([4.5] * 30)
        for v in ema_series(series, 10):
            if v is not None:
                assert v == pytest.approx(4.5)

    def test_n1_equals_closes(self):
        series = series_from_closes([3.0, 5.0, 7.0])
        values = ema_series(series, 1)
        assert values == pytest.approx([3.0, 5.0, 7.0])

    def test_hand_unrolled_recursion(self):
        # closes [10,11,12,13], n=2: seed = 10.5, then 11.5, then 12.5.
        series = series_from_closes([10.0, 11.0, 12.0, 13.0])
        values = ema_series(series, 2)
        assert values[0] is None
        assert values[1] == pytest.approx(10.5)
        assert values[2] == pytest.approx(11.5)
        assert values[3] == pytest.approx(12.5)

    def test_matches_oracle(self, random_series):
        closes = random_series.closes
        values = ema_series(random_series, 12)
        for i, v in enumerate(values):
            want = ema_oracle(closes, 12, i)
            assert (v is None) == (want is None)
            if want is not None:
                assert rel_err(v, want) <= REL_TOL


class TestRSI:
    def test_strictly_increasing_is_100(self):
        series = series_from_closes([float(i) + 1 for i in range(30)])
        assert rsi_series(series)[-1] == pytest.approx(100.0)

    def test_strictly_decreasing_is_0(self):
        series = series_from_closes([100.0 - i for i in range(30)])
        assert rsi_series(series)[-1] == pytest.approx(0.0)

    def test_alternating_is_50(self):
        # 14 alternating +1/-1 changes: 7 gains, 7 losses -> RS = 1 -> RSI 50.
        closes = []
        x = 100.0
        for i in range(15):
            closes.append(x)
            x += 1.0 if i % 2 == 0 else -1.0
        series = series_from_closes(closes)
        assert rsi_series(series)[-1] == pytest.approx(50.0)

    def test_alternating_oscillates_near_50(self):
        closes = []
        x = 100.0
        for i in range(40):
            closes.append(x)
            x += 1.0 if i % 2 == 0 else -1.0
        values = [v for v in rsi_series(series_from_closes(closes)) if v is not None]
        assert all(44.0 < v < 56.0 for v in values)

    def test_matches_oracle(self, random_series):
        closes = random_series.closes
        values = rsi_series(random_series, 14)
        for i, v in enumerate(values):
            want = rsi_oracle(closes, 14, i)
            assert (v is None) == (want is None)
            if want is not None:
                assert rel_err(v, want) <= REL_TOL

    def test_bounded_0_100(self, long_series):
        for v in rsi_series(long_series, 14):
            if v is not None:
                assert 0.0 <= v <= 100.0


class TestMACD:
    def test_constant_series_is_zero(self):
        series = series_from_closes([50.0] * 60)
        value = macd_series(series)[-1]
        assert value["macd"] == pytest.approx(0.0)
        assert value["signal"] == pytest.approx(0.0)
        assert value["histogram"] == pytest.approx(0.0)

    def test_linear_ramp_positive(self):
        series = series_from_closes([100.0 + i for i in range(60)])
        assert macd_series(series)[-1]["macd"] > 0

    def test_histogram_identity(self, random_series):
        for v in macd_series(random_series):
            if v is not None:
                assert v["histogram"] == pytest.approx(v["macd"] - v["signal"])

    def test_matches_oracle(self, random_series):
        closes = random_series.closes
        values = macd_series(random_series)
        for i, v in enumerate(values):
            want = macd_oracle(closes, i)
            assert (v is None) == (want is None)
            if want is not None:
                line, signal, hist = want
                assert rel_err(v["macd"], line) <= REL_TOL
                assert rel_err(v["signal"], signal) <= REL_TOL
                assert rel_err(v["histogram"], hist) <= REL_TOL

    def test_availability_needs_both_emas_and_signal(self):
        series = series_from_closes([float(i % 7) + 10 for i in range(33)])
        values = macd_series(series)
        assert values[32] is None
        series = series_from_closes([float(i % 7) + 10 for i in range(34)])
        assert macd_series(series)[33] is not None


class TestATR:
    def test_flat_bars_zero(self):
        series = series_from_closes([10.0] * 20)
        assert atr_series(series, 14)[-1] == pytest.approx(0.0)

    def test_gap_dominates(self):
        bars = (
            make_bar(date(2024, 1, 2), 100, 100, 100, 100),
            make_bar(date(2024, 1, 3), 120, 120, 120, 120),
        )
        series = BarSeries("S", Resolution.DAILY, bars)
        assert true_ranges(series)[1] == pytest.approx(20.0)
        assert atr_series(series, 1)[-1] == pytest.approx(20.0)

    def test_matches_oracle(self, random_series):
        values = atr_series(random_series, 14)
        for i, v in enumerate(values):
            want = atr_oracle(random_series, 14, i)
            assert (v is None) == (want is None)
            if want is not None:
                assert rel_err(v, want) <= 1e-12

    def test_non_negative(self, long_series):
        for v in atr_series(long_series, 14):
            if v is not None:
                assert v >= 0


class TestBollinger:
    def test_constant_collapses(self):
        series = series_from_closes([9.0] * 25)
        value = bollinger_series(series)[-1]
        assert value["upper"] == pytest.approx(value["middle"])
        assert value["lower"] == pytest.approx(value["middle"])

    def test_two_point_by_hand(self):
        # closes [1,3], n=2, k=2: middle 2, sigma 1, bands (4, 0).
        series = series_from_closes([1.0, 3.0])
        value = bollinger_series(series, n=2, k=2.0)[-1]
        assert value["middle"] == pytest.approx(2.0)
        assert value["upper"] == pytest.approx(4.0)
        assert value["lower"] == pytest.approx(0.0)

    def test_band_width_identity(self, random_series):
        for v in bollinger_series(random_series, 20, 2.0):
            if v is not None:
                sigma = (v["upper"] - v["lower"]) / (2 * 2.0)
                assert v["upper"] == pytest.approx(v["middle"] + 2 * sigma)
                assert v["lower"] == pytest.approx(v["middle"] - 2 * sigma)

    def test_ordering(self, long_series):
        for v in bollinger_series(long_series):
            if v is not None:
                assert v["lower"] <= v["middle"] <= v["upper"]

    def test_n_below_2_rejected(self):
        with pytest.raises(IndicatorError):
            bollinger_series(series_from_closes([1.0, 2.0]), n=1)[-1]

    def test_at_an_index_equals_the_series(self, random_series):
        closes = random_series.closes
        for n, k in ((20, 2.0), (5, 1.5), (2, 3.0)):
            full = bollinger_series(random_series, n, k)
            assert [bollinger_at(random_series, i, n, k) for i in range(len(closes))] == full
        # The snapshot reads Bollinger 20/2 at its bars only.
        indices = range(3, len(closes), 7)
        full = bollinger_series(random_series)
        assert [row[9] for row in snapshots(random_series, indices)] == [full[i] for i in indices]

    def test_matches_oracle(self, random_series):
        closes = random_series.closes
        for i, v in enumerate(bollinger_series(random_series, 20, 2.0)):
            want = bollinger_oracle(closes, 20, 2.0, i)
            assert (v is None) == (want is None)
            if want is not None:
                mid, up, lo = want
                assert rel_err(v["middle"], mid) <= REL_TOL
                assert rel_err(v["upper"], up) <= REL_TOL
                assert rel_err(v["lower"], lo) <= REL_TOL


class TestShiftEquivariance:
    @given(st.integers(min_value=0, max_value=1_000))
    @settings(max_examples=15)
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
            if a is not None:
                assert rel_err(b, 2 * a) <= 1e-12
        for a, b in zip(ema_series(random_series, 12), ema_series(scaled, 12)):
            if a is not None:
                assert rel_err(b, 2 * a) <= 1e-12

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
            assert (a is None) == (b is None)
            if a is not None:
                assert b == a

    def test_rsi_scaling_exact_equality_small_fixture(self):
        closes = [100.0, 101.0, 99.5, 102.0, 103.0, 101.5] * 5
        base = series_from_closes(closes)
        scaled = series_from_closes([c * 2 for c in closes])
        for a, b in zip(rsi_series(base), rsi_series(scaled)):
            if a is not None:
                assert a == b


class TestVolumeProfile:
    def test_single_bin_degenerate(self):
        series = series_from_closes([10.0] * 5)
        value = volume_profile(series, n_bins=8)
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
        value = volume_profile(series, n_bins=2, coverage=0.70)
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
        value = volume_profile(series, n_bins=10, coverage=1.0)
        assert value["value_area_low"] == pytest.approx(10.0)
        assert value["value_area_high"] == pytest.approx(20.0)

    def test_zero_volume_rejected(self):
        bars = (make_bar(date(2024, 1, 2), 10, 10, 10, 10, v=0),)
        series = BarSeries("S", Resolution.DAILY, bars)
        with pytest.raises(IndicatorError, match="zero total volume"):
            volume_profile(series)

    def test_conserves_volume_across_nodes(self, random_series):
        value = volume_profile(random_series, n_bins=24)
        total = sum(v for _, v in value["nodes"])
        assert total == pytest.approx(sum(b.volume for b in random_series.bars))


def _profile(series: BarSeries, **kwargs) -> dict | str:
    """`volume_profile` over 6 bins, or the message of its IndicatorError."""
    try:
        return volume_profile(series, n_bins=6, **kwargs)
    except IndicatorError as exc:
        return str(exc)


# A bar as (low, high - low, where the close lies in [low, high], volume):
# few prices and volumes, so windows often trade nothing or span one price.
_PROFILE_BARS = st.lists(
    st.tuples(
        st.sampled_from(["10", "10.5", "11"]),
        st.sampled_from(["0", "0", "0.25", "1"]),
        st.sampled_from(["0", "0.5", "1"]),
        st.sampled_from([0, 0, 1, 700]),
    ),
    min_size=1,
    max_size=12,
)


class TestVolumeProfileWindow:
    @given(_PROFILE_BARS, st.integers(0, 12), st.integers(0, 12))
    @example([("10", "0", "0", 0), ("11", "1", "1", 0), ("10.5", "0.25", "0", 0)], 0, 3)  # trades nothing
    @example([("10", "1", "0", 5), ("11", "0", "0", 7), ("11", "0", "1", 0), ("10", "1", "1", 3)], 1, 3)  # high == low
    @example([("10", "1", "0", 5), ("11", "0", "0", 7)], 2, 1)  # no bars
    @settings(max_examples=200)
    def test_window_equals_the_sliced_series(self, rows, start, stop):
        """The profile of a window of bars equals the profile of a series of
        those bars alone."""
        bars = []
        d = date(2024, 1, 1)
        for low, span, at, volume in rows:
            d = next_weekday(d + timedelta(days=1))
            low, span = Decimal(low), Decimal(span)
            bars.append(make_bar(d, low, low + span, low, low + span * Decimal(at), v=volume))
        series = BarSeries("S", Resolution.DAILY, tuple(bars))
        window = slice(start, stop)
        sliced = BarSeries("S", Resolution.DAILY, series.bars[window])
        assert _profile(series, window=window) == _profile(sliced)


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

    def test_snapshots_pass_over_each_ema_once(self, random_series):
        """MACD reads the EMA(12) and EMA(26) lines of the EMA rows, and
        its values equal `macd_series`'s own passes."""
        calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is ema_series.__code__:
                calls.append(frame.f_locals["n"])

        last = len(random_series.bars) - 1
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            row = snapshots(random_series, [last])[0]
        finally:
            sys.setprofile(previous)
        assert sorted(calls) == [12, 26]
        assert row[4:6] == [ema_series(random_series, 12)[last], ema_series(random_series, 26)[last]]
        assert row[7] == macd_series(random_series)[last]

    def test_levels_at_equal_prefix_levels(self, random_series):
        bars = random_series.bars
        indices = range(2, len(bars))
        for i, levels in zip(indices, levels_at(random_series, indices), strict=True):
            prefix = BarSeries("SYNTH", Resolution.DAILY, bars[: i + 1])
            assert levels == detect_levels(prefix), i
            assert (levels.support, levels.resistance) == levels_oracle(prefix), i

    @given(
        st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 30), *[st.sampled_from([0, 1, 500, 1000, 1001])] * 2),
            min_size=8,
            max_size=40,
        )
    )
    @settings(max_examples=100)
    def test_levels_at_every_bar_equal_prefix_levels(self, swings):
        """Each swing is three bars: a low, a high, and a bar between them,
        so every swing adds one local low and one local high. Prices come
        from a grid of 0.25 steps near 100, so they repeat with different
        volumes, which makes (price, volume) ties, and steps of 0.50 sit at
        the 0.5% tolerance."""
        grid = [Decimal("99") + Decimal("0.25") * k for k in range(64)]
        top = grid[32]
        d = date(2024, 1, 1)
        bars = []
        for low, high, volume in [(top, top, 1)] * 2 + [
            bar for a, b, v_low, v_high in swings for bar in ((grid[a], grid[a], v_low), (top, grid[32 + b], v_high), (top, top, 1))
        ]:
            d = next_weekday(d + timedelta(days=1))
            bars.append(make_bar(d, low, high, low, low, v=volume))
        series = BarSeries("SYNTH", Resolution.DAILY, tuple(bars))
        indices = range(len(bars))
        for i, levels in zip(indices, levels_at(series, indices), strict=True):
            prefix = series.up_to(bars[i].session_date)
            assert (levels.support, levels.resistance) == levels_oracle(prefix), i
            if i >= 2:
                assert levels == detect_levels(prefix), i

    def test_an_inserted_low_moves_a_chain_of_clusters(self):
        """Lows 0.3 apart cluster in threes. A lower one found last joins the
        first cluster, which then ends a point earlier; each later cluster of
        the chain takes the point its predecessor let go, up to the gap
        before 120, where the clusters are as before."""
        lows = [100.3, 100.6, 100.9, 101.2, 101.5, 101.8, 120.0, 120.1, 100.0]
        d = date(2024, 1, 1)
        bars = []
        for low in [130.0, 130.0] + [x for low in lows for x in (low, 130.0, 130.0)]:
            d = next_weekday(d + timedelta(days=1))
            bars.append(make_bar(d, low + 1, low + 1, low, low + 1, v=100))
        series = BarSeries("SYNTH", Resolution.DAILY, tuple(bars))
        indices = range(2, len(bars))
        sets = list(levels_at(series, indices))
        for i, levels in zip(indices, sets):
            assert levels == detect_levels(series.up_to(bars[i].session_date)), i
        before, after = sets[-2].support, sets[-1].support  # the last low is known at the last bar
        assert [(round(lv.price, 6), lv.touches) for lv in before] == [(100.6, 3), (101.5, 3), (120.05, 2)]
        assert [(round(lv.price, 6), lv.touches) for lv in after] == [(100.3, 3), (101.2, 3), (120.05, 2)]
        assert before[-1] == after[-1]

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

    def test_warm_up_text_matches_pinned_digest(self):
        # Each indicator's first value is at bar n-1 for SMA 20/50/100/200,
        # EMA 12/26 and Bollinger 20, bar 13 for ATR 14, bar 14 for RSI 14
        # and bar 33 for MACD 12/26/9; render the prefix that ends one bar
        # before it and the one that ends at it.
        series = synthetic_daily(201, seed=5)
        firsts = (19, 49, 99, 199, 11, 25, 19, 13, 14, 33)
        lengths = sorted({first + extra for first in firsts for extra in (0, 1)})
        prefixes = [BarSeries("SYNTH", Resolution.DAILY, series.bars[:n]) for n in lengths]
        # A volume profile over a trailing window that traded nothing is n/a.
        quiet = series.bars[:37] + tuple(replace(b, volume=0) for b in series.bars[37:100])
        prefixes.append(BarSeries("SYNTH", Resolution.DAILY, quiet))
        texts = [format_for_prompt(snapshot(prefix)) for prefix in prefixes]
        assert texts[-1].endswith("VOLUME_PROFILE: n/a")
        digest = hashlib.sha256("\n\n".join(texts).encode("utf-8")).hexdigest()
        assert digest == "7cb658279d9756c0b738f301f3323170c76c14a102f117ef9f09331d4e111e66"


def hexed(value):
    """`value` with every float spelled by `float.hex`, so that equal values
    are equal bit for bit (the sign of a zero included)."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: hexed(item) for key, item in value.items()}
    if isinstance(value, list):
        return list(map(hexed, value))
    if isinstance(value, tuple):
        return tuple(map(hexed, value))
    if isinstance(value, LevelSet):
        return (hexed(value.support), hexed(value.resistance))
    return value


def outcome(pass_, *args, **kwargs):
    """The pass's value, hexed, or the type and message of what it raised."""
    try:
        return hexed(pass_(*args, **kwargs))
    except (IndicatorError, TypeError) as exc:  # TypeError: a MACD whose fast line starts after its slow one
        return type(exc).__name__, str(exc)


@st.composite
def oracle_series(draw) -> BarSeries:
    """Bars whose prices are few multiples of a unit, so that prices, highs
    and lows often tie, from 1e-4 up to near the price bound, and whose
    volumes are zero, small, or so large that float sums of them round."""
    unit = draw(st.sampled_from([Decimal("0.0001"), Decimal("0.25"), Decimal("1.5"), Decimal(10**10)]))
    top = draw(st.sampled_from([3, 40, 10**4]))
    volumes = st.sampled_from([0, 1, 1000]) | st.integers(0, 10**6) | st.integers(2**52, MAX_VOLUME - 1)
    prices = st.integers(1, top)
    size = draw(st.integers(0, 70))
    bars = []
    d = date(2024, 1, 1)
    for *ohlc, volume in draw(st.lists(st.tuples(prices, prices, prices, prices, volumes), min_size=size, max_size=size)):
        low, open, close, high = sorted(ohlc)
        d = next_weekday(d + timedelta(days=1))
        bars.append(make_bar(d, unit * open, unit * high, unit * low, unit * close, v=volume))
    return BarSeries("SYNTH", Resolution.DAILY, tuple(bars))


class TestPassesMatchOracle:
    """Each rewritten pass gives the value of the pass it replaced
    (`indicators_oracle`), bit for bit, or the same error. Volumes near 2**53
    make sums past it, which round, so a changed order of additions shows."""

    @settings(max_examples=150)
    @given(series=oracle_series(), n=st.sampled_from([1, 2, 3, 14, 20]))
    def test_windowed_passes(self, series, n):
        for new, old in ((sma_series, oracle.sma_series), (ema_series, oracle.ema_series), (atr_series, oracle.atr_series)):
            assert outcome(new, series, n) == outcome(old, series, n), new.__name__
        assert outcome(true_ranges, series) == outcome(oracle.true_ranges, series)
        assert outcome(local_extrema, series) == outcome(oracle.local_extrema, series)
        last = len(series.bars) - 1
        if n > 1:
            assert outcome(bollinger_at, series, last, n) == outcome(oracle.bollinger_at, series, last, n)

    @settings(max_examples=100)
    @given(series=oracle_series(), lines=st.sampled_from([(12, 26, 9), (1, 1, 1), (2, 5, 3), (3, 3, 4), (5, 2, 3)]))
    def test_macd(self, series, lines):
        assert outcome(macd_series, series, *lines) == outcome(oracle.macd_series, series, *lines)

    @settings(max_examples=150)
    @given(
        series=oracle_series(),
        n_bins=st.sampled_from([1, 2, 3, 24]),
        coverage=st.sampled_from([0.0, 0.3, 0.7, 1.0, 2.0]),
        start=st.integers(0, 70),
        span=st.integers(0, 70),
    )
    def test_volume_profile(self, series, n_bins, coverage, start, span):
        window = slice(start, start + span)
        assert outcome(volume_profile, series, n_bins, coverage, window) == outcome(
            oracle.volume_profile, series, n_bins, coverage, window
        )

    @settings(max_examples=80)
    @given(series=oracle_series(), data=st.data())
    def test_levels_snapshots_and_market_texts(self, series, data):
        indices = sorted(data.draw(st.sets(st.integers(0, max(len(series.bars) - 1, 0)), max_size=30))) if series.bars else []
        assert hexed(list(levels_at(series, indices))) == hexed(list(oracle.levels_at(series, indices)))
        assert hexed(snapshots(series, indices)) == hexed(oracle.snapshots(series, indices))
        assert market_texts(series, indices) == oracle.market_texts(series, indices)

    def test_market_texts_of_long_histories(self):
        for seed in range(4):
            series = synthetic_daily(700, seed=seed)
            indices = range(len(series.bars) - 60, len(series.bars))
            assert market_texts(series, indices) == oracle.market_texts(series, indices)
