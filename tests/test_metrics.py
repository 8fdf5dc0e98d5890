"""Metric definitions against direct-formula oracles and hand cases."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from datetime import date
from decimal import Decimal

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tradeloop.engine import Action, Fill
from tradeloop.metrics import (
    MetricReport,
    _sample_std,
    MetricsError,
    RoundTrip,
    aggregate_runs,
    compute_report,
    format_cell,
    match_round_trips,
    max_drawdown,
    num_trades,
    profit_per_trade,
    render_csv,
    render_table,
    returns,
    roi,
    roic,
    sharpe,
    sortino,
    win_rate,
)

D = Decimal


def simple_returns(values: list[float]) -> list[float]:
    """Oracle: V_t / V_(t-1) - 1 for every t after the first."""
    return [b / a - 1.0 for a, b in zip(values, values[1:])]


def brute_force_drawdown(values: list[float]) -> float:
    """O(n^2) from-definition oracle: max over s <= t of (V_s - V_t)/V_s."""
    worst = 0.0
    for t in range(len(values)):
        for s in range(t + 1):
            frac = (values[s] - values[t]) / values[s]
            if frac > worst:
                worst = frac
    return worst * 100.0


@dataclass(frozen=True)
class OpenLot:
    direction: str
    opened_at: date
    quantity: int
    price: object


def residual_lots(trades: list[Fill]) -> list[OpenLot]:
    """Oracle: the lots still open after FIFO matching, long ones first."""
    lots: dict[str, list[OpenLot]] = {"long": [], "short": []}
    for t in trades:
        side = "long" if t.action in (Action.BUY, Action.SELL) else "short"
        if t.action in (Action.BUY, Action.SHORT):
            lots[side].append(OpenLot(side, t.executed_at, t.quantity, t.fill_price))
            continue
        remaining = t.quantity
        while remaining:
            lot = lots[side].pop(0)
            take = min(remaining, lot.quantity)
            remaining -= take
            if take < lot.quantity:
                lots[side].insert(0, replace(lot, quantity=lot.quantity - take))
    return lots["long"] + lots["short"]


def unrealized_pnl(lots: list[OpenLot], close):
    """Oracle: the residual lots marked to `close`."""
    return sum(((close - lot.price) * lot.quantity * (1 if lot.direction == "long" else -1) for lot in lots), 0)


def tf(day: int, action: Action, qty: int, price, forced: bool = False) -> Fill:
    return Fill(
        order_id=f"o{day}",
        action=action,
        executed_at=date(2025, 1, day),
        fill_price=price,
        quantity=qty,
        forced=forced,
    )


class TestROI:
    def test_flat_is_zero(self):
        assert roi([100_000, 100_000]) == pytest.approx(0.0)

    def test_lly_buy_hold_value(self):
        # 100000 -> 91410 is an 8.59% loss.
        assert roi([100_000, 91_410]) == pytest.approx(-8.59)

    def test_nvda_buy_hold_value(self):
        assert roi([100_000, 141_300]) == pytest.approx(41.30)

    def test_nonpositive_initial_rejected(self):
        with pytest.raises(MetricsError):
            roi([0.0, 1.0])

    def test_needs_two_points(self):
        with pytest.raises(MetricsError):
            roi([100.0])


class TestSharpe:
    def test_constant_curve_undefined(self):
        assert sharpe(returns([100.0, 100.0, 100.0])) == (None, None)

    def test_symmetric_returns_zero_mean(self):
        values = [100.0]
        for i in range(20):
            values.append(values[-1] * (1.01 if i % 2 == 0 else 1 / 1.01))
        daily, annual = sharpe(returns(values))
        # mean of {+1%, -0.990...%} is slightly positive; use exact returns.
        rets = simple_returns(values)
        mu = sum(rets) / len(rets)
        sd = math.sqrt(sum((r - mu) ** 2 for r in rets) / (len(rets) - 1))
        assert daily == pytest.approx(mu / sd)
        assert annual == pytest.approx(daily * math.sqrt(252))

    def test_exact_plus_minus_one_percent_of_base(self):
        # returns alternate exactly +1% / -1%: mean 0 -> SR 0.
        values = [100.0]
        for i in range(20):
            values.append(values[-1] * (1.01 if i % 2 == 0 else 0.99))
        rets = simple_returns(values)
        assert rets[0] == pytest.approx(0.01)
        assert rets[1] == pytest.approx(-0.01)
        daily, _ = sharpe(returns(values))
        assert daily == pytest.approx(0.0, abs=1e-9)

    def test_matches_oracle_on_random_curves(self):
        rng = random.Random(1)
        for _ in range(50):
            values = [100.0]
            for _ in range(rng.randint(3, 60)):
                values.append(values[-1] * (1 + rng.uniform(-0.05, 0.05)))
            daily, annual = sharpe(returns(values))
            rets = [values[i] / values[i - 1] - 1 for i in range(1, len(values))]
            mu = sum(rets) / len(rets)
            var = sum((r - mu) ** 2 for r in rets) / (len(rets) - 1)
            want = mu / math.sqrt(var)
            assert abs(daily - want) <= 1e-12 * max(1, abs(want))
            assert abs(annual - want * math.sqrt(252)) <= 1e-9

    def test_sign_matches_mean_return(self):
        rng = random.Random(5)
        for _ in range(50):
            values = [100.0]
            for _ in range(20):
                values.append(values[-1] * (1 + rng.uniform(-0.04, 0.05)))
            daily, _ = sharpe(returns(values))
            rets = simple_returns(values)
            mu = sum(rets) / len(rets)
            if daily is not None and mu != 0:
                assert (daily > 0) == (mu > 0)


class TestSortino:
    def test_all_positive_undefined(self):
        assert sortino(returns([100.0, 101.0, 102.0, 103.0])) is None

    def test_identical_downside_undefined(self):
        # returns +2%, -1%, -1%: downside sample stdev is 0 -> undefined.
        values = [100.0, 102.0, 102.0 * 0.99, 102.0 * 0.99 * 0.99]
        assert sortino(returns(values)) is None

    def test_matches_oracle(self):
        rng = random.Random(2)
        for _ in range(50):
            values = [100.0]
            for _ in range(40):
                values.append(values[-1] * (1 + rng.uniform(-0.05, 0.05)))
            got = sortino(returns(values))
            rets = simple_returns(values)
            downside = [r for r in rets if r < 0]
            if len(downside) < 2:
                assert got is None
                continue
            mu_d = sum(downside) / len(downside)
            sd = math.sqrt(sum((r - mu_d) ** 2 for r in downside) / (len(downside) - 1))
            if sd == 0:
                assert got is None
                continue
            want = (sum(rets) / len(rets)) / sd
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


class TestMaxDrawdown:
    def test_monotone_increasing_zero(self):
        assert max_drawdown([1, 2, 3, 4, 5]) == 0.0

    def test_hand_case_20pct(self):
        assert max_drawdown([100, 80, 90]) == pytest.approx(brute_force_drawdown([100, 80, 90]))
        assert max_drawdown([100, 80, 90]) == pytest.approx(20.0)

    def test_hand_case_50pct(self):
        curve = [100, 120, 60, 200]
        assert max_drawdown(curve) == pytest.approx(50.0)
        assert max_drawdown(curve) == pytest.approx(brute_force_drawdown(curve))

    def test_exhaustive_small_alphabet(self):
        # Full enumeration over {80,90,100,110} up to length 5 in pure Python;
        # the length <= 12 sweep runs vectorized in the acceptance suite.
        import itertools

        alphabet = [80.0, 90.0, 100.0, 110.0]
        for n in range(1, 6):
            for combo in itertools.product(alphabet, repeat=n):
                assert max_drawdown(list(combo)) == pytest.approx(
                    brute_force_drawdown(list(combo)), abs=1e-12
                )

    def test_random_curves_match_oracle(self):
        rng = random.Random(3)
        for _ in range(300):
            values = [rng.uniform(50, 150) for _ in range(rng.randint(1, 40))]
            assert max_drawdown(values) == pytest.approx(brute_force_drawdown(values), abs=1e-9)

    def test_bounded_0_100(self):
        rng = random.Random(4)
        for _ in range(100):
            values = [rng.uniform(1, 1000) for _ in range(20)]
            assert 0.0 <= max_drawdown(values) <= 100.0


class TestRoundTrips:
    def test_single_lot_long(self):
        trades = [tf(2, Action.BUY, 10, D(100)), tf(3, Action.SELL, 10, D(110))]
        trips = match_round_trips(trades)
        assert len(trips) == 1
        assert trips[0].realized_pnl == D(100)
        assert trips[0].direction == "long"

    def test_fifo_partial_exits(self):
        trades = [
            tf(2, Action.BUY, 10, D(100)),
            tf(3, Action.SELL, 4, D(110)),
            tf(4, Action.SELL, 6, D(90)),
        ]
        trips = match_round_trips(trades)
        assert [t.realized_pnl for t in trips] == [D(40), D(-60)]

    def test_short_round_trip(self):
        trades = [tf(2, Action.SHORT, 5, D(100)), tf(3, Action.SHORT_COVER, 5, D(80))]
        trips = match_round_trips(trades)
        assert trips[0].realized_pnl == D(100)
        assert trips[0].direction == "short"

    def test_open_residual_excluded(self):
        trades = [tf(2, Action.BUY, 10, D(100)), tf(3, Action.SELL, 4, D(110))]
        trips = match_round_trips(trades)
        assert len(trips) == 1 and trips[0].quantity == 4
        lots = residual_lots(trades)
        assert len(lots) == 1 and lots[0].quantity == 6

    def test_sell_spanning_two_lots_blends_entry(self):
        trades = [
            tf(2, Action.BUY, 5, D(100)),
            tf(3, Action.BUY, 5, D(110)),
            tf(4, Action.SELL, 8, D(120)),
        ]
        trips = match_round_trips(trades)
        assert len(trips) == 1
        # entry = 5*100 + 3*110 = 830; exit = 8*120 = 960.
        assert trips[0].realized_pnl == D(130)

    def test_close_without_open_lots_rejected(self):
        with pytest.raises(MetricsError, match="no open long"):
            match_round_trips([tf(2, Action.SELL, 5, D(100))])
        with pytest.raises(MetricsError, match="no open short"):
            match_round_trips([tf(2, Action.SHORT_COVER, 5, D(100))])

    def test_close_exceeding_position_rejected(self):
        trades = [tf(2, Action.BUY, 3, D(100)), tf(3, Action.SELL, 5, D(110))]
        with pytest.raises(MetricsError, match="exceeds open long"):
            match_round_trips(trades)

    def test_accounting_identity_decimal_exact(self):
        rng = random.Random(7)
        for _ in range(50):
            cash = D(100_000)
            long = short = 0
            trades = []
            day = 2
            for _ in range(30):
                price = D(f"{rng.uniform(50, 150):.2f}")
                action = rng.choice(list(Action))
                qty = rng.randint(1, 50)
                if action == Action.BUY and cash >= price * qty:
                    cash -= price * qty
                    long += qty
                elif action == Action.SELL and long > 0:
                    qty = min(qty, long)
                    cash += price * qty
                    long -= qty
                elif action == Action.SHORT:
                    cash += price * qty
                    short += qty
                elif action == Action.SHORT_COVER and short > 0:
                    qty = min(qty, short)
                    cash -= price * qty
                    short -= qty
                else:
                    continue
                trades.append(tf(day, action, qty, price))
                day += 1
            close = D(f"{rng.uniform(50, 150):.2f}")
            final_value = cash + (long - short) * close
            trips = match_round_trips(trades)
            realized = sum((t.realized_pnl for t in trips), D(0))
            unreal = unrealized_pnl(residual_lots(trades), close)
            assert D(100_000) + realized + unreal == final_value


class TestWinRate:
    def test_half_winners(self):
        trips = [
            RoundTrip("long", 1, D(100), D(110)),
            RoundTrip("long", 1, D(100), D(90)),
            RoundTrip("long", 1, D(100), D(120)),
            RoundTrip("long", 1, D(100), D(80)),
        ]
        assert win_rate(trips) == pytest.approx(50.0)

    def test_empty_is_zero(self):
        assert win_rate([]) == 0.0

    def test_all_winners(self):
        trips = [RoundTrip("long", 1, D(100), D(110))] * 3
        assert win_rate(trips) == pytest.approx(100.0)


class TestRoicAndPT:
    def test_never_deployed_undefined(self):
        assert roic([100_000.0, 100_000.0], [0.0, 0.0]) is None

    def test_two_session_hand_case(self):
        # Hold 10 shares bought at 100: exposure 1000 then 1100, profit 100.
        values = [100_000.0, 100_100.0]
        exposures = [1000.0, 1100.0]
        assert roic(values, exposures) == pytest.approx(100.0 / 1050.0 * 100.0)

    def test_doubling_exposure_halves_roic(self):
        values = [100_000.0, 100_100.0]
        assert roic(values, [2000.0, 2200.0]) == pytest.approx(
            roic(values, [1000.0, 1100.0]) / 2
        )

    def test_zero_exposure_sessions_excluded(self):
        values = [100_000.0, 100_100.0]
        assert roic(values, [0.0, 1000.0, 0.0, 1100.0]) == roic(values, [1000.0, 1100.0])

    def test_profit_per_trade(self):
        trips = [
            RoundTrip("long", 1, D(100), D(200)),
            RoundTrip("long", 1, D(100), D(40)),
        ]
        assert profit_per_trade(trips) == pytest.approx(20.0)
        assert profit_per_trade([trips[0]]) == pytest.approx(100.0)

    def test_no_trips_undefined(self):
        assert profit_per_trade([]) is None

    def test_matches_sum_count_oracle(self):
        rng = random.Random(9)
        trips = [
            RoundTrip("long", 1, D(100), D(str(round(rng.uniform(50, 150), 2))))
            for _ in range(37)
        ]
        want = sum(float(t.realized_pnl) for t in trips) / len(trips)
        assert profit_per_trade(trips) == pytest.approx(want)


class TestNumTrades:
    def test_buy_and_hold_is_one(self):
        assert num_trades([tf(2, Action.BUY, 10, D(100))]) == 1

    def test_empty_is_zero(self):
        assert num_trades([]) == 0

    def test_counts_filled_orders_not_trips(self):
        trades = [tf(d, Action.BUY, 1, D(100)) for d in range(2, 9)]
        assert num_trades(trades) == 7

    def test_forced_cover_excluded(self):
        trades = [tf(2, Action.SHORT, 5, D(100)), tf(3, Action.SHORT_COVER, 5, D(90), forced=True)]
        assert num_trades(trades) == 1


class TestAggregateRuns:
    def test_single_run_mean_no_std(self):
        report = MetricReport(roi_pct=5.0, num_trades=3)
        aggs = aggregate_runs([report])
        assert aggs["roi_pct"].mean == 5.0
        assert aggs["roi_pct"].std is None
        assert format_cell(aggs["roi_pct"]) == "5.00"

    def test_three_run_triple_matches_reported_style(self):
        # Any triple with mean -9.19 and sample std 1.54: {-10.73, -9.19, -7.65}.
        reports = [MetricReport(roi_pct=x) for x in (-10.73, -9.19, -7.65)]
        aggs = aggregate_runs(reports)
        assert aggs["roi_pct"].mean == pytest.approx(-9.19)
        assert aggs["roi_pct"].std == pytest.approx(1.54, abs=0.005)
        assert format_cell(aggs["roi_pct"]) == "-9.19 ± 1.54"

    def test_identical_runs_zero_std(self):
        reports = [MetricReport(roi_pct=1.0)] * 3
        assert aggregate_runs(reports)["roi_pct"].std == pytest.approx(0.0)

    def test_undefined_excluded_pairwise(self):
        reports = [MetricReport(sortino=None, roi_pct=1.0), MetricReport(sortino=2.0, roi_pct=3.0)]
        aggs = aggregate_runs(reports)
        assert aggs["sortino"].mean == 2.0 and aggs["sortino"].n == 1
        assert aggs["roi_pct"].n == 2

    def test_all_undefined_is_none(self):
        aggs = aggregate_runs([MetricReport(), MetricReport()])
        assert aggs["sortino"] is None
        assert format_cell(aggs["sortino"]) == "n/a"

    def test_empty_rejected(self):
        with pytest.raises(MetricsError):
            aggregate_runs([])


class TestReportRendering:
    def test_table_and_csv_shapes(self):
        reports = [MetricReport(roi_pct=-8.0), MetricReport(roi_pct=-9.0), MetricReport(roi_pct=-10.0)]
        aggs = aggregate_runs(reports)
        table = render_table({"baseline": aggs})
        assert "-9.00 ± 1.00" in table
        csv = render_csv({"baseline": aggs})
        header = csv.splitlines()[0]
        # Tables-first column order: ROI, SR, DD, win rate, trades.
        assert header.startswith("config,roi_pct,sharpe_daily,max_drawdown_pct,win_rate_pct,num_trades")

    def test_report_json_round_trip(self):
        report = MetricReport(roi_pct=1.5, sortino=None, num_trades=2)
        again = MetricReport.from_dict(__import__("json").loads(report.to_json()))
        assert again == report


class TestComputeReport:
    def test_wires_everything(self):
        values = [100_000.0, 100_500.0, 99_800.0, 100_900.0]
        trades = [tf(2, Action.BUY, 10, D(100)), tf(3, Action.SELL, 10, D(105))]
        report = compute_report(values, trades, exposures=[1000.0, 1050.0, 0.0, 0.0], initial=100_000.0)
        assert report.num_trades == 2
        assert report.win_rate_pct == pytest.approx(100.0)
        assert report.roi_pct == pytest.approx(roi(values))
        assert report.max_drawdown_pct == pytest.approx(max_drawdown(values))

    def test_a_base_at_or_below_zero_leaves_sharpe_and_sortino_undefined(self):
        """A return from a session value at or below zero is undefined; a
        last value at zero is no base, so its returns stay defined."""
        for values in ([100_000.0, 100_000.0, 0.0, 80_000.0, 110_000.0], [100_000.0, -5_000.0, 90_000.0, 95_000.0]):
            report = compute_report(values, [], [0.0] * len(values), initial=100_000.0)
            assert (report.sharpe_daily, report.sharpe_annualized, report.sortino) == (None, None, None)
            assert sharpe(returns(values)) == (None, None) and sortino(returns(values)) is None
            assert report.roi_pct == pytest.approx(roi(values))
        report = compute_report([100_000.0, 90_000.0, 45_000.0, 0.0], [], [0.0] * 4, initial=100_000.0)
        assert report.sharpe_daily is not None and report.sortino is not None


def previous_sample_std(xs: list[float]) -> float | None:
    """`_sample_std` as it summed before: through a generator."""
    if len(xs) < 2:
        return None
    mu = sum(xs) / len(xs)
    return math.sqrt(sum((x - mu) ** 2 for x in xs) / (len(xs) - 1))


def previous_max_drawdown(values) -> float:
    """`max_drawdown` as it was: each value converted where it is read."""
    peak = float(values[0])
    worst = 0.0
    for v in values:
        v = float(v)
        if v > peak:
            peak = v
        dd = (peak - v) / peak
        if dd > worst:
            worst = dd
    return worst * 100.0


def bits(x: float | None) -> str | None:
    return None if x is None else x.hex()


prices = st.floats(1e-3, 1e9, allow_nan=False) | st.integers(1, 10**9) | st.decimals("0.01", "1e9", places=2)


class TestSameBitsAsBefore:
    @given(xs=st.lists(st.floats(-1e6, 1e6, allow_nan=False), max_size=40))
    def test_sample_std(self, xs):
        assert bits(_sample_std(xs)) == bits(previous_sample_std(xs))

    @given(values=st.lists(prices, min_size=1, max_size=40), initial=st.floats(1.0, 1e9))
    def test_max_drawdown_and_report(self, values, initial):
        """`max_drawdown` of the float curve of ints, Decimals and floats, and
        the report's drawdown, Sharpe and Sortino of that curve."""
        floats = [float(v) for v in values]
        assert bits(max_drawdown(floats)) == bits(previous_max_drawdown(values))
        report = compute_report(floats, [], [0.0] * len(floats), initial)
        assert bits(report.max_drawdown_pct) == bits(previous_max_drawdown([initial, *floats]))
        rets = simple_returns(floats) if len(floats) >= 3 else []
        sd = previous_sample_std(rets)
        daily = None if not sd else sum(rets) / len(rets) / sd
        assert bits(report.sharpe_daily) == bits(daily)
        downside = previous_sample_std([r for r in rets if r < 0.0])
        assert bits(report.sortino) == bits(None if not downside else sum(rets) / len(rets) / downside)
