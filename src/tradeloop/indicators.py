"""Technical indicators over bar series.

Every indicator takes a `BarSeries` and reads its float columns (`closes`,
`highs`, `lows`, `volumes`), which the series converts from its bars once;
no indicator converts a price itself. Each `*_series` returns one value per
bar: a float, or a dict of named lines for MACD and Bollinger, and None until
enough history exists for its parameters.

Every series, and the local-extrema test behind the support/resistance
levels, reads only past bars, so its value at bar i equals the value
computed on the bars up to i. `snapshots`, `levels_at` and `market_texts`
use this to give the indicator set and the levels at many bars from one pass
over the series: the harness computes the market analyst's text for every
session of an experiment once. None renders as the literal text "n/a".

Each pass is written for little interpreter work per bar: a windowed sum
zips each value with the one leaving its window, and the neighbour tests of
the true range and the local extrema read zipped, shifted columns. MACD's
dicts are built only at the bars asked for, and a side of the levels that
gained no extremum since the previous bar keeps its levels. Every rewrite
does the same float operations in the same order as the plain loop it
replaced, so its values are the same bits.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import count
from operator import itemgetter
from typing import Iterator, NamedTuple, Sequence

from .bars import BarSeries
from .errors import ConfigError
from .metrics import ordered_sum


class IndicatorError(ConfigError):
    pass


class Level(NamedTuple):
    price: float
    strength: float  # in [0, 1]
    touches: int


@dataclass(frozen=True)
class LevelSet:
    support: tuple[Level, ...]
    resistance: tuple[Level, ...]


def _rolling_mean(values: Sequence[float], n: int) -> list[float | None]:
    """The mean of the last n values at each index, None before the n-th: a
    running sum that adds each value, and from the (n+1)-th on subtracts the
    one leaving the window."""
    out: list[float | None] = [None] * min(n - 1, len(values))
    window_sum = 0.0
    for value in values[:n]:
        window_sum += value
    if len(values) >= n:
        out.append(window_sum / n)
        out += [(window_sum := window_sum + value - leaving) / n for value, leaving in zip(values[n:], values)]
    return out


def sma_series(series: BarSeries, n: int) -> list[float | None]:
    """Arithmetic mean of the last n closes."""
    if n < 1:
        raise IndicatorError("n must be >= 1")
    return _rolling_mean(series.closes, n)


def _ema(values: Sequence[float], n: int) -> list[float | None]:
    """EMA_t = a*v_t + (1-a)*EMA_{t-1} with a = 2/(n+1), seeded by the mean
    of the first n values (the value at the seed index is the seed itself);
    None before it."""
    alpha = 2.0 / (n + 1)
    decay = 1.0 - alpha
    out: list[float | None] = [None] * min(n - 1, len(values))
    if len(values) >= n:
        ema = ordered_sum(values[:n]) / n
        out.append(ema)
        out += [(ema := alpha * value + decay * ema) for value in values[n:]]
    return out


def ema_series(series: BarSeries, n: int) -> list[float | None]:
    """EMA_t = a*P_t + (1-a)*EMA_{t-1} with a = 2/(n+1), seeded by the SMA of
    the first n closes (value at the seed bar is the seed itself)."""
    return _ema(series.closes, n)


def rsi_series(series: BarSeries, n: int = 14) -> list[float | None]:
    """Wilder RSI: 100 - 100/(1+RS), first averages are simple means of the
    first n gains/losses, then G_t = ((n-1)*G_{t-1} + g_t)/n and likewise for
    losses. Zero average loss maps to 100, zero average gain to 0."""
    closes = series.closes
    out: list[float | None] = [None] * min(n, len(closes))
    avg_gain = avg_loss = 0.0
    gain_sum = loss_sum = 0.0
    for i in range(1, len(closes)):
        change = closes[i] - closes[i - 1]
        gain = change if change > 0 else 0.0
        loss = -change if change < 0 else 0.0
        if i <= n:
            gain_sum += gain
            loss_sum += loss
            if i < n:
                continue
            avg_gain = gain_sum / n
            avg_loss = loss_sum / n
        else:
            avg_gain = ((n - 1) * avg_gain + gain) / n
            avg_loss = ((n - 1) * avg_loss + loss) / n
        if avg_loss == 0.0:
            out.append(100.0)
        elif avg_gain == 0.0:
            out.append(0.0)
        else:
            out.append(100.0 - 100.0 / (1.0 + avg_gain / avg_loss))
    return out


def macd_series(
    series: BarSeries, fast: int = 12, slow: int = 26, signal: int = 9
) -> list[dict | None]:
    """MACD = EMA_fast - EMA_slow; signal = EMA_signal of the MACD line;
    histogram = MACD - signal. Available once all three components exist."""
    macd, signal_line = _macd_lines(ema_series(series, fast), ema_series(series, slow), signal)
    return [None if s is None else _macd_value(m, s) for m, s in zip(macd, signal_line)]


def _macd_lines(
    fast_line: list[float | None], slow_line: list[float | None], signal: int = 9
) -> tuple[list[float | None], list[float | None]]:
    """The MACD line of the given fast and slow EMA lines, None until the
    slow line starts, and its signal line, None until `signal` MACD values
    exist."""
    macd = [None if s is None else f - s for f, s in zip(fast_line, slow_line)]
    start = macd.count(None)  # the slow line's warm-up, all at the front
    return macd, [None] * start + _ema(macd[start:], signal)


def _macd_value(macd: float, signal: float) -> dict:
    return {"macd": macd, "signal": signal, "histogram": macd - signal}


def true_ranges(series: BarSeries) -> list[float]:
    """TR = max(H-L, |H-C_prev|, |L-C_prev|); the first bar's TR is H-L.

    As L <= H, that is max(H, C_prev) - min(L, C_prev), the one of the three
    differences that the previous close's place picks, computed alone."""
    highs, lows = series.highs, series.lows
    if not highs:
        return []
    return [highs[0] - lows[0]] + [
        (c if c > h else h) - (c if c < l else l) for h, l, c in zip(highs[1:], lows[1:], series.closes)
    ]


def atr_series(series: BarSeries, n: int = 14) -> list[float | None]:
    """Simple n-mean of true ranges. Needs at least two bars regardless of n."""
    out = _rolling_mean(true_ranges(series), n)
    if n == 1 and out:
        out[0] = None
    return out


def bollinger_at(series: BarSeries, i: int, n: int = 20, k: float = 2.0) -> dict | None:
    """middle = SMA_n, upper/lower = middle ± k*sigma with population sigma
    over the n closes that end at bar i. Each window is summed afresh, so
    the value at i needs only those closes."""
    if i < n - 1:
        return None
    window = series.closes[i - n + 1 : i + 1]
    mean = ordered_sum(window) / n
    var = ordered_sum([(x - mean) ** 2 for x in window]) / n
    sigma = var**0.5
    return {"middle": mean, "upper": mean + k * sigma, "lower": mean - k * sigma}


def bollinger_series(series: BarSeries, n: int = 20, k: float = 2.0) -> list[dict | None]:
    """`bollinger_at` at every bar."""
    if n < 2:
        raise IndicatorError("n must be >= 2")
    return [bollinger_at(series, i, n, k) for i in range(len(series.bars))]


def volume_profile(series: BarSeries, n_bins: int = 24, coverage: float = 0.70, window: slice = slice(None)) -> dict:
    """Volume histogram of the `window` bars (all by default) over [min low,
    max high], each bar's volume binned by its close. POC is the center of
    the heaviest bin (ties break toward the lower price). The value area
    expands symmetrically around the POC until it holds at least `coverage`
    of total volume, then trims to its outermost nonzero bins.
    """
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
    last = n_bins - 1
    volumes = [0.0] * n_bins
    for close, volume in zip(closes, bar_volumes):
        idx = int((close - lo) / width)
        volumes[idx if idx < last else last] += volume
    poc_idx = volumes.index(max(volumes))  # the first heaviest bin: ties break toward the lower price

    target = coverage * total_volume
    start = end = poc_idx
    while not ordered_sum(volumes[start : end + 1]) >= target and (start or end < last):
        start, end = max(0, start - 1), min(last, end + 1)
    # Trim to the outermost nonzero bins; the POC's bin holds volume, as the total is not zero.
    while not volumes[start]:
        start += 1
    while not volumes[end]:
        end -= 1

    centers = [lo + (i + 0.5) * width for i in range(n_bins)]
    return {
        "poc": centers[poc_idx],
        "value_area_low": lo + start * width,
        "value_area_high": lo + (end + 1) * width,
        "nodes": [[center, volume] for center, volume in zip(centers, volumes)],
    }


Extremum = tuple[int, float, int]  # (bar index, price, volume)


def local_extrema(series: BarSeries) -> tuple[list[Extremum], list[Extremum]]:
    """Local highs and lows of the bars of `series`, in bar order.

    A bar is a local high (low) when its high (low) is the max (min) of its
    ±2-bar neighborhood and some neighbor is strictly lower (higher); the two
    bars at each end are excluded. The test at bar j reads bars j-2..j+2
    only, so on the bars up to index i the extrema are those with j <= i - 2.
    """
    volumes = series.volumes

    def neighborhoods(values: Sequence[float]) -> Iterator[tuple]:
        """(j, values[j-2], values[j-1], values[j], values[j+1], values[j+2]) for each inner bar j."""
        return zip(count(2), values, values[1:], values[2:], values[3:], values[4:])

    local_highs = [
        (j, h, volumes[j])
        for j, a, b, h, d, e in neighborhoods(series.highs)
        if a <= h >= b and d <= h >= e and (a < h or b < h or d < h or e < h)
    ]
    local_lows = [
        (j, low, volumes[j])
        for j, a, b, low, d, e in neighborhoods(series.lows)
        if a >= low <= b and d >= low <= e and (a > low or b > low or d > low or e > low)
    ]
    return local_highs, local_lows


Cluster = tuple[float, int, int]  # (mean price, touches, volume)


def _sweep(
    points: Sequence[tuple[float, int]], start: int, tolerance_pct: float, resume: Sequence[int] = ()
) -> tuple[list[int], list[Cluster], int]:
    """The greedy clusters of the sorted (price, volume) `points` from index
    `start`, which opens a cluster: each point joins the open cluster when it
    lies within tolerance_pct of the cluster's mean price, and opens the next
    one otherwise. The sweep stops before a cluster would open at an index in
    `resume` (ascending). Returns the clusters' start indices, the clusters,
    and the position in `resume` where the sweep stopped (its length when
    the sweep reached the last point)."""
    starts: list[int] = []
    clusters: list[Cluster] = []
    r, k, n = 0, start, len(points)
    while k < n:
        while r < len(resume) and resume[r] < k:
            r += 1
        if r < len(resume) and resume[r] == k:
            return starts, clusters, r
        starts.append(k)
        # The mean is the running total of the prices, added left to right, over their count.
        mean, volume = points[k]
        total, touches = mean, 1
        k += 1
        while k < n and mean > 0 and abs(points[k][0] - mean) / mean * 100.0 <= tolerance_pct:
            total += points[k][0]
            touches += 1
            volume += points[k][1]
            mean = total / touches
            k += 1
        clusters.append((mean, touches, volume))
    return starts, clusters, len(resume)


class _Clusters:
    """One side's extrema, those known so far in (price, volume) order, and
    their greedy clusters."""

    def __init__(self, extrema: list[Extremum], tolerance_pct: float):
        self.extrema = extrema  # in bar order
        self.known = 0
        self.tolerance_pct = tolerance_pct
        self.points: list[tuple[float, int]] = []
        self.starts: list[int] = []
        self.clusters: list[Cluster] = []

    def advance(self, cutoff: int) -> bool:
        """Add the extrema at bars up to `cutoff`: in one full sweep while
        none is known, then one insertion each. True when any was added."""
        upto = bisect_right(self.extrema, cutoff, key=itemgetter(0))
        new = [(price, vol) for _, price, vol in self.extrema[self.known : upto]]
        self.known = upto
        if not self.points:
            self.points = sorted(new)
            self.starts, self.clusters, _ = _sweep(self.points, 0, self.tolerance_pct)
        else:
            for point in new:
                self._insert(point)
        return bool(new)

    def _insert(self, point: tuple[float, int]) -> None:
        """Re-sweep from the cluster of the point's sorted predecessor, up to
        the first cluster that opens where a later cluster opened before: from
        there on, the sweep reads the same points as it did then."""
        q = bisect_right(self.points, point)
        self.points.insert(q, point)
        c = max(bisect_right(self.starts, q - 1) - 1, 0)
        later = [s + 1 for s in self.starts[c + 1 :]]  # each moved on by the inserted point
        starts, clusters, kept = _sweep(self.points, self.starts[c], self.tolerance_pct, later)
        self.starts[c:] = starts + later[kept:]
        self.clusters[c:] = clusters + self.clusters[c + 1 + kept :]

    def levels(self, min_touches: int) -> tuple[Level, ...]:
        """The clusters of at least min_touches, with strength = touch count x
        volume weight, normalized to (0, 1]."""
        raw = [(mean, t, t * max(v, 1)) for mean, t, v in self.clusters if t >= min_touches]
        if not raw:
            return ()
        max_weight = max(weight for _, _, weight in raw)
        return tuple(Level(price=mean, strength=weight / max_weight, touches=t) for mean, t, weight in raw)


def levels_at(
    series: BarSeries, indices: Sequence[int], tolerance_pct: float = 0.5, min_touches: int = 2
) -> Iterator[LevelSet]:
    """The support/resistance levels of the bars up to each index in
    `indices`, ascending: the `local_extrema` known there, clustered within
    tolerance_pct. Each side's clusters are kept from one index to the next,
    and only the extrema that became known in between are inserted, so the
    cost per index does not grow with the history; a side that gained none
    keeps its levels."""
    highs, lows = (_Clusters(extrema, tolerance_pct) for extrema in local_extrema(series))
    support: tuple[Level, ...] = ()
    resistance: tuple[Level, ...] = ()
    for i in indices:
        if highs.advance(i - 2):
            resistance = highs.levels(min_touches)
        if lows.advance(i - 2):
            support = lows.levels(min_touches)
        yield LevelSet(support=support, resistance=resistance)


def detect_levels(
    series: BarSeries, tolerance_pct: float = 0.5, min_touches: int = 2
) -> LevelSet:
    """Support/resistance levels at the last bar of `series`: its local
    extrema, clustered in one sweep."""
    if len(series.bars) < 3:
        raise IndicatorError("need at least 3 bars")
    return next(levels_at(series, [len(series.bars) - 1], tolerance_pct, min_touches))


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _macd_text(v: dict) -> str:
    return f"macd {_fmt(v['macd'])} | signal {_fmt(v['signal'])} | histogram {_fmt(v['histogram'])}"


def _bands_text(v: dict) -> str:
    return f"lower {_fmt(v['lower'])} | middle {_fmt(v['middle'])} | upper {_fmt(v['upper'])}"


PROFILE_WINDOW = 63  # bars of the volume profile


# The standard indicator set's rows, as (prompt label, value text).
_STANDARD_SET = (
    *((f"SMA({n})", _fmt) for n in (20, 50, 100, 200)),
    *((f"EMA({n})", _fmt) for n in (12, 26)),
    ("RSI(14)", _fmt),
    ("MACD(12,26,9)", _macd_text),
    ("ATR(14)", _fmt),
    ("BOLLINGER(20,2)", _bands_text),
)


def _standard_values(series: BarSeries, indices: Sequence[int]) -> Iterator[list]:
    """Each `_STANDARD_SET` row's values at the bar indices, in row order.

    SMA, EMA, RSI, MACD and ATR carry running values from bar to bar, so
    each takes a pass over all bars, and MACD reuses the two EMA passes;
    Bollinger sums each window afresh, so it reads only the windows that
    end at the indices.
    """

    def at(full: list) -> list:
        return [full[i] for i in indices]

    for n in (20, 50, 100, 200):
        yield at(sma_series(series, n))
    fast, slow = ema_series(series, 12), ema_series(series, 26)
    yield at(fast)
    yield at(slow)
    yield at(rsi_series(series))
    macd, signal = _macd_lines(fast, slow)
    yield [None if signal[i] is None else _macd_value(macd[i], signal[i]) for i in indices]
    yield at(atr_series(series))
    yield [bollinger_at(series, i) for i in indices]


def snapshots(series: BarSeries, indices: Sequence[int]) -> list[list[float | dict | None]]:
    """The standard indicator set at each bar index in `indices`: SMA
    20/50/100/200, EMA 12/26, RSI 14, MACD 12/26/9, ATR 14, Bollinger 20/2,
    and a volume profile over the trailing PROFILE_WINDOW bars (None when
    that window traded nothing).

    Every indicator reads only past bars, so the set at index i equals the
    set at the last bar of the bars up to i. Each full series is computed
    once and dropped as soon as its values at `indices` are taken, the two
    EMAs once MACD has read them too.
    """
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
    """The market analyst's indicator text at each bar index in `indices`,
    ascending: the standard set, and the levels once five bars exist."""
    return [
        format_for_prompt(row) + (f"\n{format_levels(level_set)}" if i >= 4 else "")
        for row, i, level_set in zip(snapshots(series, indices), indices, levels_at(series, indices))
    ]


def snapshot(series: BarSeries) -> list[float | dict | None]:
    """The standard indicator set at the last bar of `series`."""
    return snapshots(series, [len(series.bars) - 1])[0]


def format_for_prompt(values: Sequence[float | dict | None]) -> str:
    """Render a `snapshot` for the analyst prompt; None -> n/a."""
    *series_values, profile = values
    lines = [
        f"{label}: n/a" if v is None else f"{label}: {text(v)}"
        for (label, text), v in zip(_STANDARD_SET, series_values)
    ]
    # Both spellings are in every recorded prompt, and so in its request hash.
    if profile is None:
        lines.append("VOLUME_PROFILE: n/a")
    else:
        lines.append(
            f"VOLUME PROFILE: poc {_fmt(profile['poc'])} | value area"
            f" {_fmt(profile['value_area_low'])}-{_fmt(profile['value_area_high'])}"
        )
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

