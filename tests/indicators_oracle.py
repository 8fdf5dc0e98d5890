"""The indicator passes as they were before their lean rewrite, kept as the
reference that `tests/test_indicators.py` compares the rewrite with, bit for
bit: each pass here does the same float operations in the same order, with
slices, `max`/`min` calls, index arithmetic and a MACD dict at every bar.

RSI, the level clustering (`_Clusters`) and the prompt rendering were not
rewritten, so these reference passes call the module's own. Floats are added
left to right (`sum_left_to_right`), as the passes added them on Python 3.11.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from tradeloop.bars import BarSeries
from tradeloop.indicators import (
    PROFILE_WINDOW,
    IndicatorError,
    LevelSet,
    _Clusters,
    format_for_prompt,
    format_levels,
    rsi_series,
)

from conftest import sum_left_to_right


def sma_series(series: BarSeries, n: int) -> list[float | None]:
    closes = series.closes
    out: list[float | None] = []
    window_sum = 0.0
    for i, close in enumerate(closes):
        window_sum += close
        if i >= n:
            window_sum -= closes[i - n]
        out.append(window_sum / n if i >= n - 1 else None)
    return out


def ema_series(series: BarSeries, n: int) -> list[float | None]:
    closes = series.closes
    alpha = 2.0 / (n + 1)
    out: list[float | None] = [None] * min(n - 1, len(closes))
    if len(closes) >= n:
        ema = sum_left_to_right(closes[:n]) / n
        out.append(ema)
        for close in closes[n:]:
            ema = alpha * close + (1.0 - alpha) * ema
            out.append(ema)
    return out


def macd_series(series: BarSeries, fast: int = 12, slow: int = 26, signal: int = 9) -> list[dict | None]:
    return _macd(ema_series(series, fast), ema_series(series, slow), signal)


def _macd(fast_line: list[float | None], slow_line: list[float | None], signal: int = 9) -> list[dict | None]:
    alpha = 2.0 / (signal + 1)
    out: list[dict | None] = []
    macd_history: list[float] = []
    signal_val: float | None = None
    for fast_val, slow_val in zip(fast_line, slow_line):
        if slow_val is None:
            out.append(None)
            continue
        macd_line = fast_val - slow_val
        macd_history.append(macd_line)
        if len(macd_history) < signal:
            out.append(None)
            continue
        if len(macd_history) == signal:
            signal_val = sum_left_to_right(macd_history) / signal
        else:
            signal_val = alpha * macd_line + (1.0 - alpha) * signal_val
        out.append({"macd": macd_line, "signal": signal_val, "histogram": macd_line - signal_val})
    return out


def true_ranges(series: BarSeries) -> list[float]:
    closes = series.closes
    return [
        max(h - l, abs(h - closes[i - 1]), abs(l - closes[i - 1])) if i else h - l
        for i, (h, l) in enumerate(zip(series.highs, series.lows))
    ]


def atr_series(series: BarSeries, n: int = 14) -> list[float | None]:
    trs = true_ranges(series)
    out: list[float | None] = []
    window_sum = 0.0
    min_idx = max(n - 1, 1)
    for i, tr in enumerate(trs):
        window_sum += tr
        if i >= n:
            window_sum -= trs[i - n]
        out.append(window_sum / min(n, i + 1) if i >= min_idx else None)
    return out


def bollinger_at(series: BarSeries, i: int, n: int = 20, k: float = 2.0) -> dict | None:
    if i < n - 1:
        return None
    window = series.closes[i - n + 1 : i + 1]
    mean = sum_left_to_right(window) / n
    var = sum_left_to_right((x - mean) ** 2 for x in window) / n
    sigma = var**0.5
    return {"middle": mean, "upper": mean + k * sigma, "lower": mean - k * sigma}


def volume_profile(series: BarSeries, n_bins: int = 24, coverage: float = 0.70, window: slice = slice(None)) -> dict:
    closes, bar_volumes = series.closes[window], series.volumes[window]
    if not closes:
        raise IndicatorError("empty window")
    total_volume = sum(bar_volumes)
    if total_volume == 0:
        raise IndicatorError("zero total volume")

    lo = min(series.lows[window])
    hi = max(series.highs[window])
    if hi == lo:
        return {"poc": lo, "value_area_low": lo, "value_area_high": lo, "nodes": [[lo, float(total_volume)]]}

    width = (hi - lo) / n_bins
    volumes = [0.0] * n_bins
    for close, volume in zip(closes, bar_volumes):
        idx = min(int((close - lo) / width), n_bins - 1)
        volumes[idx] += volume
    poc_idx = max(range(n_bins), key=lambda i: (volumes[i], -i))

    target = coverage * total_volume
    radius = 0
    while True:
        start = max(0, poc_idx - radius)
        end = min(n_bins - 1, poc_idx + radius)
        if sum_left_to_right(volumes[start : end + 1]) >= target or (start == 0 and end == n_bins - 1):
            break
        radius += 1
    nonzero = [i for i in range(start, end + 1) if volumes[i] > 0]
    va_start, va_end = (min(nonzero), max(nonzero)) if nonzero else (poc_idx, poc_idx)

    centers = [lo + (i + 0.5) * width for i in range(n_bins)]
    return {
        "poc": centers[poc_idx],
        "value_area_low": lo + va_start * width,
        "value_area_high": lo + (va_end + 1) * width,
        "nodes": [[centers[i], volumes[i]] for i in range(n_bins)],
    }


def local_extrema(series: BarSeries):
    highs, lows, volumes = series.highs, series.lows, series.volumes
    local_highs = []
    local_lows = []
    for j in range(2, len(highs) - 2):
        nb_high = highs[j - 2 : j + 3]
        if highs[j] >= max(nb_high) and min(nb_high) < highs[j]:
            local_highs.append((j, highs[j], volumes[j]))
        nb_low = lows[j - 2 : j + 3]
        if lows[j] <= min(nb_low) and max(nb_low) > lows[j]:
            local_lows.append((j, lows[j], volumes[j]))
    return local_highs, local_lows


def levels_at(
    series: BarSeries, indices: Sequence[int], tolerance_pct: float = 0.5, min_touches: int = 2
) -> Iterator[LevelSet]:
    highs, lows = (_Clusters(extrema, tolerance_pct) for extrema in local_extrema(series))
    for i in indices:
        highs.advance(i - 2)
        lows.advance(i - 2)
        yield LevelSet(support=lows.levels(min_touches), resistance=highs.levels(min_touches))


def _standard_values(series: BarSeries, indices: Sequence[int]) -> Iterator[list]:
    def at(full: list) -> list:
        return [full[i] for i in indices]

    for n in (20, 50, 100, 200):
        yield at(sma_series(series, n))
    fast, slow = ema_series(series, 12), ema_series(series, 26)
    yield at(fast)
    yield at(slow)
    yield at(rsi_series(series))
    yield at(_macd(fast, slow))
    yield at(atr_series(series))
    yield [bollinger_at(series, i) for i in indices]


def snapshots(series: BarSeries, indices: Sequence[int]) -> list[list[float | dict | None]]:
    rows: list[list[float | dict | None]] = [[] for _ in indices]
    for values in _standard_values(series, indices):
        for row, value in zip(rows, values):
            row.append(value)
    for row, i in zip(rows, indices):
        try:
            row.append(volume_profile(series, window=slice(max(0, i + 1 - PROFILE_WINDOW), i + 1)))
        except IndicatorError:
            row.append(None)
    return rows


def market_texts(series: BarSeries, indices: Sequence[int]) -> list[str]:
    return [
        format_for_prompt(row) + (f"\n{format_levels(level_set)}" if i >= 4 else "")
        for row, i, level_set in zip(snapshots(series, indices), indices, levels_at(series, indices))
    ]
