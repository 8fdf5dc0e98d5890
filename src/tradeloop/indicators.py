"""Technical indicators over bar series.

Each indicator returns one value per bar, flagged unavailable until enough
history exists for its parameters. Every series, and the local-extrema test
behind the support/resistance levels, reads only past bars, so its value at
bar i equals the value computed on the bars up to i. `snapshots` and
`levels_at` use this to give the indicator set and the levels at many bars
from one pass over the series: the harness computes them once per run and
reads each session's context incrementally. All of these feed the market
analyst's prompt context; unavailable values render as the literal text "n/a".
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, replace
from datetime import date
from functools import partial
from operator import itemgetter
from typing import Iterable, Sequence

from .bars import BarSeries


class IndicatorError(ValueError):
    pass


@dataclass(frozen=True)
class IndicatorValue:
    as_of: date
    name: str
    params: tuple[tuple[str, float], ...]
    value: float | dict | None
    available: bool

    def param(self, key: str) -> float:
        return dict(self.params)[key]


@dataclass(frozen=True)
class Level:
    price: float
    strength: float  # in [0, 1]
    touches: int


@dataclass(frozen=True)
class LevelSet:
    as_of: date
    support: tuple[Level, ...]
    resistance: tuple[Level, ...]


def _params(**kwargs: float) -> tuple[tuple[str, float], ...]:
    return tuple(sorted(kwargs.items()))


def _unavailable(as_of: date, name: str, params) -> IndicatorValue:
    return IndicatorValue(as_of=as_of, name=name, params=params, value=None, available=False)


def sma_series(series: BarSeries, n: int) -> list[IndicatorValue]:
    """Arithmetic mean of the last n closes."""
    if n < 1:
        raise IndicatorError("n must be >= 1")
    params = _params(n=n)
    closes = series.closes()
    out: list[IndicatorValue] = []
    window_sum = 0.0
    for i, bar in enumerate(series.bars):
        window_sum += closes[i]
        if i >= n:
            window_sum -= closes[i - n]
        if i >= n - 1:
            out.append(IndicatorValue(bar.session_date, "sma", params, window_sum / n, True))
        else:
            out.append(_unavailable(bar.session_date, "sma", params))
    return out


def ema_series(series: BarSeries, n: int) -> list[IndicatorValue]:
    """EMA_t = a*P_t + (1-a)*EMA_{t-1} with a = 2/(n+1), seeded by the SMA of
    the first n closes (value at the seed bar is the seed itself)."""
    if n < 1:
        raise IndicatorError("n must be >= 1")
    params = _params(n=n)
    closes = series.closes()
    alpha = 2.0 / (n + 1)
    out: list[IndicatorValue] = []
    ema = 0.0
    for i, bar in enumerate(series.bars):
        if i < n - 1:
            out.append(_unavailable(bar.session_date, "ema", params))
        elif i == n - 1:
            ema = sum(closes[:n]) / n
            out.append(IndicatorValue(bar.session_date, "ema", params, ema, True))
        else:
            ema = alpha * closes[i] + (1.0 - alpha) * ema
            out.append(IndicatorValue(bar.session_date, "ema", params, ema, True))
    return out


def rsi_series(series: BarSeries, n: int = 14) -> list[IndicatorValue]:
    """Wilder RSI: 100 - 100/(1+RS), first averages are simple means of the
    first n gains/losses, then G_t = ((n-1)*G_{t-1} + g_t)/n and likewise for
    losses. Zero average loss maps to 100, zero average gain to 0."""
    if n < 1:
        raise IndicatorError("n must be >= 1")
    params = _params(n=n)
    closes = series.closes()
    out: list[IndicatorValue] = []
    avg_gain = avg_loss = 0.0
    gain_sum = loss_sum = 0.0
    for i, bar in enumerate(series.bars):
        if i == 0:
            out.append(_unavailable(bar.session_date, "rsi", params))
            continue
        change = closes[i] - closes[i - 1]
        gain = change if change > 0 else 0.0
        loss = -change if change < 0 else 0.0
        if i < n:
            gain_sum += gain
            loss_sum += loss
            out.append(_unavailable(bar.session_date, "rsi", params))
            continue
        if i == n:
            gain_sum += gain
            loss_sum += loss
            avg_gain = gain_sum / n
            avg_loss = loss_sum / n
        else:
            avg_gain = ((n - 1) * avg_gain + gain) / n
            avg_loss = ((n - 1) * avg_loss + loss) / n
        if avg_loss == 0.0:
            value = 100.0
        elif avg_gain == 0.0:
            value = 0.0
        else:
            value = 100.0 - 100.0 / (1.0 + avg_gain / avg_loss)
        out.append(IndicatorValue(bar.session_date, "rsi", params, value, True))
    return out


def macd_series(
    series: BarSeries, fast: int = 12, slow: int = 26, signal: int = 9
) -> list[IndicatorValue]:
    """MACD = EMA_fast - EMA_slow; signal = EMA_signal of the MACD line;
    histogram = MACD - signal. Available once all three components exist."""
    params = _params(fast=fast, slow=slow, signal=signal)
    fast_vals = ema_series(series, fast)
    slow_vals = ema_series(series, slow)
    alpha = 2.0 / (signal + 1)
    out: list[IndicatorValue] = []
    macd_history: list[float] = []
    signal_val: float | None = None
    for i, bar in enumerate(series.bars):
        if not slow_vals[i].available:
            out.append(_unavailable(bar.session_date, "macd", params))
            continue
        macd_line = fast_vals[i].value - slow_vals[i].value
        macd_history.append(macd_line)
        if len(macd_history) < signal:
            out.append(_unavailable(bar.session_date, "macd", params))
            continue
        if len(macd_history) == signal:
            signal_val = sum(macd_history) / signal
        else:
            signal_val = alpha * macd_line + (1.0 - alpha) * signal_val
        out.append(
            IndicatorValue(
                bar.session_date,
                "macd",
                params,
                {
                    "macd": macd_line,
                    "signal": signal_val,
                    "histogram": macd_line - signal_val,
                },
                True,
            )
        )
    return out


def true_ranges(series: BarSeries) -> list[float]:
    """TR = max(H-L, |H-C_prev|, |L-C_prev|); the first bar's TR is H-L."""
    out: list[float] = []
    prev_close: float | None = None
    for bar in series.bars:
        h, l = float(bar.high), float(bar.low)
        if prev_close is None:
            out.append(h - l)
        else:
            out.append(max(h - l, abs(h - prev_close), abs(l - prev_close)))
        prev_close = float(bar.close)
    return out


def atr_series(series: BarSeries, n: int = 14) -> list[IndicatorValue]:
    """Simple n-mean of true ranges. Needs at least two bars regardless of n."""
    if n < 1:
        raise IndicatorError("n must be >= 1")
    params = _params(n=n)
    trs = true_ranges(series)
    out: list[IndicatorValue] = []
    window_sum = 0.0
    min_idx = max(n - 1, 1)
    for i, bar in enumerate(series.bars):
        window_sum += trs[i]
        if i >= n:
            window_sum -= trs[i - n]
        if i >= min_idx:
            width = min(n, i + 1)
            out.append(IndicatorValue(bar.session_date, "atr", params, window_sum / width, True))
        else:
            out.append(_unavailable(bar.session_date, "atr", params))
    return out


def bollinger_series(series: BarSeries, n: int = 20, k: float = 2.0) -> list[IndicatorValue]:
    """middle = SMA_n, upper/lower = middle ± k*sigma with population sigma
    over the last n closes."""
    if n < 2:
        raise IndicatorError("n must be >= 2")
    params = _params(n=n, k=k)
    closes = series.closes()
    out: list[IndicatorValue] = []
    for i, bar in enumerate(series.bars):
        if i < n - 1:
            out.append(_unavailable(bar.session_date, "bollinger", params))
            continue
        window = closes[i - n + 1 : i + 1]
        mean = sum(window) / n
        var = sum((x - mean) ** 2 for x in window) / n
        sigma = var**0.5
        out.append(
            IndicatorValue(
                bar.session_date,
                "bollinger",
                params,
                {"middle": mean, "upper": mean + k * sigma, "lower": mean - k * sigma},
                True,
            )
        )
    return out


def volume_profile(series: BarSeries, n_bins: int = 24, coverage: float = 0.70) -> IndicatorValue:
    """Volume histogram over [min low, max high], each bar's volume binned by
    its close. POC is the center of the heaviest bin (ties break toward the
    lower price). The value area expands symmetrically around the POC until it
    holds at least `coverage` of total volume, then trims to its outermost
    nonzero bins.
    """
    if n_bins < 1:
        raise IndicatorError("n_bins must be >= 1")
    if not series.bars:
        raise IndicatorError("empty window")
    total_volume = sum(b.volume for b in series.bars)
    if total_volume == 0:
        raise IndicatorError("zero total volume")
    as_of = series.bars[-1].session_date
    params = _params(n_bins=n_bins, coverage=coverage)

    lo = min(float(b.low) for b in series.bars)
    hi = max(float(b.high) for b in series.bars)
    if hi == lo:
        node = [lo, float(total_volume)]
        return IndicatorValue(
            as_of, "volume_profile", params,
            {"poc": lo, "value_area_low": lo, "value_area_high": lo, "nodes": [node]},
            True,
        )

    width = (hi - lo) / n_bins
    volumes = [0.0] * n_bins
    for b in series.bars:
        idx = min(int((float(b.close) - lo) / width), n_bins - 1)
        volumes[idx] += b.volume
    poc_idx = max(range(n_bins), key=lambda i: (volumes[i], -i))

    target = coverage * total_volume
    radius = 0
    while True:
        start = max(0, poc_idx - radius)
        end = min(n_bins - 1, poc_idx + radius)
        if sum(volumes[start : end + 1]) >= target or (start == 0 and end == n_bins - 1):
            break
        radius += 1
    nonzero = [i for i in range(start, end + 1) if volumes[i] > 0]
    va_start, va_end = (min(nonzero), max(nonzero)) if nonzero else (poc_idx, poc_idx)

    centers = [lo + (i + 0.5) * width for i in range(n_bins)]
    return IndicatorValue(
        as_of,
        "volume_profile",
        params,
        {
            "poc": centers[poc_idx],
            "value_area_low": lo + va_start * width,
            "value_area_high": lo + (va_end + 1) * width,
            "nodes": [[centers[i], volumes[i]] for i in range(n_bins)],
        },
        True,
    )


Extremum = tuple[int, float, int]  # (bar index, price, volume)


def local_extrema(series: BarSeries) -> tuple[list[Extremum], list[Extremum]]:
    """Local highs and lows of `series`, in bar order.

    A bar is a local high (low) when its high (low) is the max (min) of its
    ±2-bar neighborhood and some neighbor is strictly lower (higher); the two
    bars at each end are excluded. The test at bar j reads bars j-2..j+2
    only, so on the bars up to index i the extrema are those with j <= i - 2.
    """
    bars = series.bars
    highs = [float(b.high) for b in bars]
    lows = [float(b.low) for b in bars]
    local_highs: list[Extremum] = []
    local_lows: list[Extremum] = []
    for j in range(2, len(bars) - 2):
        nb_high = highs[j - 2 : j + 3]
        if highs[j] >= max(nb_high) and any(h < highs[j] for h in nb_high):
            local_highs.append((j, highs[j], bars[j].volume))
        nb_low = lows[j - 2 : j + 3]
        if lows[j] <= min(nb_low) and any(low > lows[j] for low in nb_low):
            local_lows.append((j, lows[j], bars[j].volume))
    return local_highs, local_lows


def cluster_levels(points: Iterable[tuple[float, int]], tolerance_pct: float, min_touches: int) -> tuple[Level, ...]:
    """Cluster (price, volume) extrema into horizontal bands.

    Extrema within tolerance_pct of a cluster's mean price join it; clusters
    reaching min_touches become levels with strength = touch-count x volume
    weight, normalized to (0, 1].
    """
    points = sorted(points)
    if not points:
        return ()
    prices: list[list[float]] = [[points[0][0]]]  # per cluster
    volumes: list[list[int]] = [[points[0][1]]]
    for price, vol in points[1:]:
        mean = sum(prices[-1]) / len(prices[-1])
        if mean > 0 and abs(price - mean) / mean * 100.0 <= tolerance_pct:
            prices[-1].append(price)
            volumes[-1].append(vol)
        else:
            prices.append([price])
            volumes.append([vol])
    raw = [(sum(ps) / len(ps), len(ps), sum(vs)) for ps, vs in zip(prices, volumes) if len(ps) >= min_touches]
    if not raw:
        return ()
    max_weight = max(t * max(v, 1) for _, t, v in raw)
    return tuple(
        Level(price=price, strength=(t * max(v, 1)) / max_weight, touches=t)
        for price, t, v in raw
    )


def levels_at(
    series: BarSeries,
    extrema: tuple[list[Extremum], list[Extremum]],
    i: int,
    tolerance_pct: float = 0.5,
    min_touches: int = 2,
) -> LevelSet:
    """The support/resistance levels of the bars up to index i, given the
    `local_extrema` of `series` (or of any longer series it begins)."""
    cutoff = i - 2

    def known(points: list[Extremum]) -> list[tuple[float, int]]:
        return [(price, vol) for _, price, vol in points[: bisect_right(points, cutoff, key=itemgetter(0))]]

    highs, lows = extrema
    return LevelSet(
        as_of=series.bars[i].session_date,
        support=cluster_levels(known(lows), tolerance_pct, min_touches),
        resistance=cluster_levels(known(highs), tolerance_pct, min_touches),
    )


def detect_levels(
    series: BarSeries, tolerance_pct: float = 0.5, min_touches: int = 2
) -> LevelSet:
    """Support/resistance levels at the last bar of `series`: its local
    extrema, clustered."""
    if len(series.bars) < 3:
        raise IndicatorError("need at least 3 bars")
    return levels_at(series, local_extrema(series), len(series.bars) - 1, tolerance_pct, min_touches)


DEFAULT_SMA_WINDOWS = (20, 50, 100, 200)
DEFAULT_EMA_WINDOWS = (12, 26)
_STANDARD_SERIES = (
    *(partial(sma_series, n=n) for n in DEFAULT_SMA_WINDOWS),
    *(partial(ema_series, n=n) for n in DEFAULT_EMA_WINDOWS),
    rsi_series,
    macd_series,
    atr_series,
    bollinger_series,
)


def snapshots(series: BarSeries, indices: Sequence[int], profile_window: int = 63) -> list[list[IndicatorValue]]:
    """The standard indicator set at each bar index in `indices`: SMA
    20/50/100/200, EMA 12/26, RSI 14, MACD 12/26/9, ATR 14, Bollinger 20/2,
    and a volume profile over the trailing `profile_window` bars.

    Every indicator reads only past bars, so the set at index i equals the
    set at the last bar of the bars up to i. Each full series is computed
    once and dropped as soon as its values at `indices` are taken.
    """
    rows: list[list[IndicatorValue]] = [[] for _ in indices]
    for compute in _STANDARD_SERIES:
        values = compute(series)
        for row, i in zip(rows, indices):
            row.append(values[i])
    for row, i in zip(rows, indices):
        tail = replace(series, bars=series.bars[max(0, i + 1 - profile_window) : i + 1])
        try:
            row.append(volume_profile(tail))
        except IndicatorError:
            row.append(_unavailable(series.bars[i].session_date, "volume_profile", _params(n_bins=24, coverage=0.70)))
    return rows


def snapshot(series: BarSeries, profile_window: int = 63) -> list[IndicatorValue]:
    """The standard indicator set at the last bar of `series`."""
    return snapshots(series, [len(series.bars) - 1], profile_window)[0]


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def format_for_prompt(values: Iterable[IndicatorValue]) -> str:
    """Render an indicator snapshot for the analyst prompt; unavailable -> n/a."""
    lines: list[str] = []
    for v in values:
        label = v.name.upper()
        pm = dict(v.params)
        if v.name in ("sma", "ema", "rsi", "atr"):
            label = f"{label}({int(pm['n'])})"
        elif v.name == "bollinger":
            label = f"BOLLINGER({int(pm['n'])},{pm['k']:g})"
        elif v.name == "macd":
            label = f"MACD({int(pm['fast'])},{int(pm['slow'])},{int(pm['signal'])})"
        if not v.available:
            lines.append(f"{label}: n/a")
        elif isinstance(v.value, dict):
            if v.name == "macd":
                lines.append(
                    f"{label}: macd {_fmt(v.value['macd'])} | signal {_fmt(v.value['signal'])}"
                    f" | histogram {_fmt(v.value['histogram'])}"
                )
            elif v.name == "bollinger":
                lines.append(
                    f"{label}: lower {_fmt(v.value['lower'])} | middle {_fmt(v.value['middle'])}"
                    f" | upper {_fmt(v.value['upper'])}"
                )
            elif v.name == "volume_profile":
                lines.append(
                    f"VOLUME PROFILE: poc {_fmt(v.value['poc'])} | value area"
                    f" {_fmt(v.value['value_area_low'])}-{_fmt(v.value['value_area_high'])}"
                )
            else:
                lines.append(f"{label}: {v.value}")
        else:
            lines.append(f"{label}: {_fmt(v.value)}")
    return "\n".join(lines)


def format_levels(levels: LevelSet) -> str:
    parts: list[str] = []
    if levels.support:
        sup = ", ".join(f"{lv.price:.2f} (strength {lv.strength:.2f})" for lv in levels.support)
        parts.append(f"Support: {sup}")
    if levels.resistance:
        res = ", ".join(f"{lv.price:.2f} (strength {lv.strength:.2f})" for lv in levels.resistance)
        parts.append(f"Resistance: {res}")
    return "\n".join(parts) if parts else "No clustered levels detected"


def to_jsonl(values: Sequence[IndicatorValue]) -> str:
    """Snapshot serialization: one {date, name, params, values} object per line."""
    lines = []
    for v in values:
        obj = {
            "date": v.as_of.isoformat(),
            "name": v.name,
            "params": dict(v.params),
            "values": v.value if v.available else None,
        }
        lines.append(json.dumps(obj, separators=(",", ":"), sort_keys=True))
    return "\n".join(lines) + "\n"
