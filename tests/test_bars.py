"""Bar parsing, adjustment, resampling, and window slicing."""

from __future__ import annotations

import csv
import importlib
import io
import json
from datetime import date, timedelta
from pathlib import Path
from decimal import Decimal, InvalidOperation

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tradeloop import bars as bars_module
from tradeloop.bars import (
    CSV_COLUMNS,
    MAX_PRICE,
    MAX_VOLUME,
    Bar,
    BarDataError,
    BarSeries,
    CorporateAction,
    Lookback,
    Resolution,
    SessionCalendar,
    adjust_for_actions,
    parse_actions_csv,
    parse_bars,
    resample,
    serialize_bars,
    window_slice,
)

from conftest import make_bar, series_from_closes, synthetic_daily

CSV_HEADER = "date,open,high,low,close,volume,vwap,transactions"


class TestParseBars:
    def test_csv_row_maps_fields(self):
        text = f"{CSV_HEADER}\n2025-04-28,100,110,90,105,1000,102.5,50\n"
        series = parse_bars(text, format="csv", symbol="LLY")
        bar = series.bars[0]
        assert bar.open == Decimal("100")
        assert bar.high == Decimal("110")
        assert bar.low == Decimal("90")
        assert bar.close == Decimal("105")
        assert bar.volume == 1000
        assert bar.vwap == Decimal("102.5")
        assert bar.transactions == 50
        assert series.symbol == "LLY"

    def test_low_above_high_rejected_with_row(self):
        text = f"{CSV_HEADER}\n2025-04-28,100,90,110,105,1000,,\n"
        with pytest.raises(BarDataError, match="at row 1"):
            parse_bars(text)

    def test_duplicate_session_rejected(self):
        row = "2025-04-28,100,110,90,105,1000,,"
        with pytest.raises(BarDataError, match="duplicate session 2025-04-28"):
            parse_bars(f"{CSV_HEADER}\n{row}\n{row}\n")

    def test_unordered_dates_rejected(self):
        text = (
            f"{CSV_HEADER}\n"
            "2025-04-29,100,110,90,105,1000,,\n"
            "2025-04-28,100,110,90,105,1000,,\n"
        )
        with pytest.raises(BarDataError, match="unordered"):
            parse_bars(text)

    def test_empty_input_rejected(self):
        with pytest.raises(BarDataError, match="empty input"):
            parse_bars("")
        with pytest.raises(BarDataError, match="empty input"):
            parse_bars(f"{CSV_HEADER}\n")

    def test_bad_header_rejected(self):
        with pytest.raises(BarDataError, match="bad header"):
            parse_bars("date,open\n2025-04-28,1\n")

    def test_empty_optional_fields(self):
        text = f"{CSV_HEADER}\n2025-04-28,100,110,90,105,1000,,\n"
        bar = parse_bars(text).bars[0]
        assert bar.vwap is None and bar.transactions is None

    def test_vwap_outside_range_rejected(self):
        text = f"{CSV_HEADER}\n2025-04-28,100,110,90,105,1000,89,\n"
        with pytest.raises(BarDataError, match="vwap"):
            parse_bars(text)

    def test_more_than_4dp_rejected(self):
        text = f"{CSV_HEADER}\n2025-04-28,100.00001,110,90,105,1000,,\n"
        with pytest.raises(BarDataError, match="decimal places"):
            parse_bars(text)

    def test_jsonl_parses(self):
        line = (
            '{"date":"2025-04-28","open":"100","high":"110","low":"90",'
            '"close":"105","volume":1000,"vwap":"102.5","transactions":50}'
        )
        series = parse_bars(line, format="jsonl")
        assert series.bars[0].close == Decimal("105")

    def test_jsonl_bad_line_carries_row(self):
        good = '{"date":"2025-04-28","open":"100","high":"110","low":"90","close":"105","volume":1000}'
        with pytest.raises(BarDataError, match="at row 2"):
            parse_bars(good + "\nnot json\n", format="jsonl")

    def test_crlf_line_endings(self):
        text = f"{CSV_HEADER}\r\n2025-04-28,100,110,90,105,1000,,\r\n"
        series = parse_bars(text)
        assert series.bars[0].close == Decimal("105")
        assert series.bars[0].transactions is None

    @pytest.mark.parametrize(
        "raw, value",
        [("100", "100"), ("7.5000", "7.5000"), ("007.25", "7.25"), ("1e2", "1E+2"), ("1E-4", "0.0001"),
         (" 100", "100"), ("100\t", "100"), ("1_00", "100"), ("+3", "3"), ("100.", "100"), ("١٢٣", "123")],
    )
    def test_price_spellings_that_decimal_reads_are_accepted(self, raw, value):
        bar = parse_bars(f"{CSV_HEADER}\n2025-04-28,{raw},{raw},{raw},{raw},1000,,\n").bars[0]
        assert str(bar.open) == value and bar.open == bar.close

    @pytest.mark.parametrize(
        "raw, message",
        [("1.00000", "open has more than 4 decimal places"), ("1E-5", "open has more than 4 decimal places"),
         ("NaN", "non-finite open"), ("-Infinity", "non-finite open"), ("", "bad open ''"), ("1,5", None)],
    )
    def test_price_spellings_rejected_by_the_text(self, raw, message):
        with pytest.raises(BarDataError, match="at row 1$") as exc:
            parse_bars(f'{CSV_HEADER}\n2025-04-28,"{raw}",110,90,105,1000,,\n')
        assert message is None or str(exc.value) == f"{message} at row 1"

    def test_oversize_field_names_its_row(self):
        text = f"{CSV_HEADER}\n2025-04-28,100,110,90,105,1000,,\n\n2025-04-29,{'1' * 131073},110,90,105,1000,,\n"
        with pytest.raises(BarDataError) as exc:
            parse_bars(text)
        assert str(exc.value) == "unreadable csv: field larger than field limit (131072) at row 3"
        assert exc.value.row == 3

    def test_oversize_header_has_no_row(self):
        with pytest.raises(BarDataError) as exc:
            parse_bars("d" * 131073 + "\n2025-04-28,100,110,90,105,1000,,\n")
        assert str(exc.value) == "unreadable csv: field larger than field limit (131072)"
        assert exc.value.row is None

    def test_oversize_actions_field_names_its_row(self):
        with pytest.raises(BarDataError, match=r"^unreadable csv: field larger than field limit \(131072\) at row 1$"):
            parse_actions_csv(f"date,kind,ratio,cash\n2024-06-10,split,{'1' * 131073},\n")


# The parser as it was before its single-pass rewrite: each field parsed
# through Decimal and as_tuple, a dict per row, and the bar invariants
# checked one by one in this order, with the price and volume bounds.
def oracle_violation(open, high, low, close, volume, vwap=None, transactions=None) -> str | None:
    """The first bar invariant the fields break, in the reference order."""
    for name, value in (("open", open), ("high", high), ("low", low), ("close", close)):
        if value <= 0:
            return f"non-positive {name}"
    if low > high:
        return "low > high"
    if high >= 10**15:
        return "high too large: prices must be below 10**15"
    if not (low <= open <= high):
        return "open outside [low, high]"
    if not (low <= close <= high):
        return "close outside [low, high]"
    if volume < 0:
        return "negative volume"
    if volume >= 2**53:
        return "volume too large: volumes must be below 2**53"
    if vwap is not None and not (low <= vwap <= high):
        return "vwap outside [low, high]"
    if transactions is not None and transactions < 0:
        return "negative transactions"
    return None


def _oracle_price(raw: str, field: str, row: int) -> Decimal:
    try:
        value = Decimal(raw)
    except InvalidOperation:
        raise BarDataError(f"bad {field} {raw!r}", row) from None
    if not value.is_finite():
        raise BarDataError(f"non-finite {field}", row)
    if -value.as_tuple().exponent > 4:
        raise BarDataError(f"{field} has more than 4 decimal places", row)
    return value


def _oracle_int(raw: str, field: str, row: int) -> int:
    try:
        return int(raw)
    except ValueError:
        raise BarDataError(f"bad {field} {raw!r}", row) from None


def _oracle_bar(fields: dict[str, str], row: int) -> Bar:
    try:
        session = date.fromisoformat(fields["date"])
    except ValueError:
        raise BarDataError(f"bad date {fields['date']!r}", row) from None
    vwap_raw, tx_raw = fields["vwap"], fields["transactions"]
    values = dict(
        open=_oracle_price(fields["open"], "open", row),
        high=_oracle_price(fields["high"], "high", row),
        low=_oracle_price(fields["low"], "low", row),
        close=_oracle_price(fields["close"], "close", row),
        volume=_oracle_int(fields["volume"], "volume", row),
        vwap=_oracle_price(vwap_raw, "vwap", row) if vwap_raw else None,
        transactions=_oracle_int(tx_raw, "transactions", row) if tx_raw else None,
    )
    violation = oracle_violation(**values)
    if violation is not None:
        raise BarDataError(violation, row)
    return Bar(session, **values)


def oracle_parse_bars(text: str, format: str) -> BarSeries:
    if not text.strip():
        raise BarDataError("empty input")
    bars = []
    if format == "csv":
        reader = csv.reader(io.StringIO(text))
        header, row = None, 0
        try:
            header = next(reader, None)
            if header is None or tuple(h.strip() for h in header) != CSV_COLUMNS:
                raise BarDataError(f"bad header: expected {','.join(CSV_COLUMNS)}")
            for row, cells in enumerate(reader, start=1):
                if not cells:
                    continue
                if len(cells) != len(CSV_COLUMNS):
                    raise BarDataError(f"expected {len(CSV_COLUMNS)} columns, got {len(cells)}", row)
                bars.append(_oracle_bar(dict(zip(CSV_COLUMNS, cells)), row))
        except csv.Error as exc:  # a line the csv module cannot read, such as one with a bare "\r"
            raise BarDataError(f"unreadable csv: {exc}", None if header is None else row + 1) from None
    else:
        for row, line in enumerate((ln for ln in text.splitlines() if ln.strip()), start=1):
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise BarDataError(f"bad json: {exc.msg}", row) from None
            if not isinstance(obj, dict):
                raise BarDataError("expected object", row)
            bars.append(_oracle_bar({k: ("" if obj.get(k) is None else str(obj.get(k, ""))) for k in CSV_COLUMNS}, row))
    if not bars:
        raise BarDataError("empty input")
    return BarSeries(symbol="", resolution=Resolution.DAILY, bars=tuple(bars))


def _outcome(parse, text: str, format: str):
    """The parsed series' repr (which spells every Decimal exactly), or the
    error's message and row."""
    try:
        return repr(parse(text, format))
    except BarDataError as exc:
        return ("BarDataError", str(exc), exc.row)


# Field texts of every shape: plain numbers with 0-6 decimals (trailing zeros
# included), exponents and signs, whitespace and underscores, NaN and
# Infinity, non-ASCII digits, empty fields and junk.
FIELD_SHAPES = st.one_of(
    st.from_regex(r"[+-]?[0-9]{1,3}(\.[0-9]{0,6})?", fullmatch=True),
    st.from_regex(r"[+-]?[0-9]{1,2}(\.[0-9]{0,3})?[eE][+-]?[0-9]", fullmatch=True),
    st.sampled_from(
        ["", " ", "0", "-0", "0.0000", "1.00000", "1e2", "1E-5", " 100", "100 ", "\t5\n", "1_00", "1__0", "_1",
         "NaN", "nan", "-NaN", "sNaN", "Infinity", "-Infinity", "inf", "١٢٣", "１２.５", "٣.٥", "abc", '"', "x,y"]
    ),
    st.text(max_size=4),
)
QUARTERS = st.integers(1, 12)  # prices of 0.25 to 3 in quarters, so bounds often meet


def _spellings(value) -> st.SearchStrategy[str]:
    """Texts of `value`: as written, and in other spellings that Decimal or
    int may or may not read as it."""
    text = str(value)
    padded = text + ("00000" if "." in text else ".00000")
    return st.sampled_from([text, text, f" {text}", f"{text}\t", f"+{text}", f"-{text}", padded, f"{text}e0",
                            f"{value * 100}E-2", text.replace(".", "_"), f"{text}0"])


@st.composite
def bar_rows(draw, rows: int) -> list[list[str]]:
    """Rows of eight cells, each row a valid bar as written but for up to
    three changes: a field spelled otherwise, moved a day back (the date) or
    replaced by a text of any shape, or a ninth cell."""
    out = []
    for row in range(rows):
        low, high = sorted(draw(st.tuples(QUARTERS, QUARTERS)))
        inside = st.integers(low, high).map(lambda n: Decimal(n) / 4)
        day = date(2025, 1, 1) + timedelta(days=row)
        values = [day, draw(inside), Decimal(high) / 4, Decimal(low) / 4, draw(inside),
                  draw(st.integers(-1, 10**6)), draw(st.none() | inside), draw(st.none() | st.integers(-1, 100))]
        cells = ["" if value is None else str(value) for value in values]
        for i in draw(st.sets(st.integers(0, 8), max_size=3)):
            if i == 8:
                cells.append("extra")
            elif draw(st.booleans()):
                cells[i] = draw(FIELD_SHAPES)
            elif i == 0:
                cells[i] = (day - timedelta(days=draw(st.integers(1, 2)))).isoformat()
            elif values[i] is not None:
                cells[i] = draw(_spellings(values[i]))
        out.append(cells)
    return out


def _csv_text(rows: list[list[str]], blank_after: int | None = None) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for i, cells in enumerate(rows):
        writer.writerow(cells)
        if i == blank_after:
            buffer.write("\n")
    return buffer.getvalue()


def _json_number(cell: str):
    """The cell as a JSON number where Python reads it as one, else as is."""
    for kind in (int, float):
        try:
            return kind(cell)
        except ValueError:
            pass
    return cell


@st.composite
def jsonl_values(draw, cells: list[str]) -> dict:
    """A JSON object of a row: each cell mostly as a string, now and then as
    a number, any number, null or absent."""
    obj = {}
    for name, cell in zip(CSV_COLUMNS, cells):
        kind = draw(st.integers(0, 19))
        if kind < 14:
            obj[name] = cell
        elif kind < 17:
            obj[name] = _json_number(cell)
        elif kind < 18:
            obj[name] = draw(st.integers(-1, 10**6) | st.floats())
        elif kind < 19:
            obj[name] = None
    return obj


# Two plain rows that make valid bars.
PLAIN_ROWS = [["2025-01-01", "1.5", "2", "1", "2", "5", "1.25", "3"], ["2025-01-02", "2", "2.0001", "0.5", "1", "0", "", ""]]


class TestParseMatchesOracle:
    """`parse_bars` gives the series the reference parser gives, or the
    same error with the same row."""

    @settings(max_examples=200)
    @example(rows=[["2025-01-01", "1.00000", "2", "1", "1", "5", "", ""]], blank_after=None, layout="plain")
    @example(rows=[["2025-01-01", " 1_0", "1e1", "10.000", "+10", "5", "10", "1_0"]], blank_after=0, layout="plain")
    # The edges of the row pattern: each text below is read by the csv module.
    @example(rows=PLAIN_ROWS, blank_after=None, layout="no final newline")
    @example(rows=[*PLAIN_ROWS, ["2025-01-03", "1", "1", "2", "1", "5", "", ""]], blank_after=None, layout="plain")
    @example(rows=PLAIN_ROWS, blank_after=None, layout="crlf")
    @example(rows=PLAIN_ROWS, blank_after=0, layout="plain")
    @example(rows=PLAIN_ROWS, blank_after=None, layout="spaced header")
    @example(rows=[PLAIN_ROWS[0], ["2025-01-02", "1.5", "2.12345", "1", "2", "5", "", ""]], blank_after=None, layout="plain")
    @given(
        rows=st.integers(1, 5).flatmap(bar_rows),
        blank_after=st.none() | st.integers(0, 4),
        layout=st.sampled_from(["plain", "plain", "no final newline", "crlf", "spaced header"]),
    )
    def test_csv(self, rows, blank_after, layout):
        text = _csv_text(rows, blank_after)
        if layout == "no final newline":
            text = text[:-1]
        elif layout == "crlf":
            text = text.replace("\n", "\r\n")
        elif layout == "spaced header":
            text = text.replace(",open,", ", open,", 1)
        assert _outcome(parse_bars, text, "csv") == _outcome(oracle_parse_bars, text, "csv")

    @settings(max_examples=200)
    @given(data=st.data(), rows=st.integers(1, 5).flatmap(bar_rows), junk=st.sampled_from(["", "", "", "[]", "1", "{", '"x"']))
    def test_jsonl(self, data, rows, junk):
        lines = [json.dumps(data.draw(jsonl_values(cells))) for cells in rows]
        if junk:
            lines.insert(data.draw(st.integers(0, len(lines))), junk)
        text = "\n".join(lines) + "\n"
        assert _outcome(parse_bars, text, "jsonl") == _outcome(oracle_parse_bars, text, "jsonl")


BAR_PRICES = st.integers(-2, 8).map(lambda n: Decimal(n) / 2)
BOUNDED_PRICES = BAR_PRICES | st.sampled_from([MAX_PRICE - Decimal("0.0001"), MAX_PRICE])


class TestBarInvariants:
    @settings(max_examples=500)
    @example(open=Decimal(1), high=Decimal(2), low=Decimal(1), close=Decimal(2), volume=0, vwap=Decimal(1), transactions=0)
    @example(open=Decimal(2), high=Decimal(2), low=Decimal(1), close=Decimal(1), volume=0, vwap=Decimal(2), transactions=None)
    @example(open=Decimal(1), high=Decimal(1), low=Decimal(1), close=Decimal(1), volume=0, vwap=None, transactions=None)
    @example(open=Decimal(0), high=Decimal(0), low=Decimal(0), close=Decimal(0), volume=0, vwap=None, transactions=None)
    @example(open=Decimal(1), high=Decimal(2), low=Decimal(-1), close=Decimal(1), volume=-1, vwap=None, transactions=-1)
    @example(open=Decimal(1), high=MAX_PRICE - Decimal("0.0001"), low=Decimal(1), close=Decimal(1), volume=MAX_VOLUME - 1, vwap=None, transactions=None)
    @example(open=Decimal(1), high=MAX_PRICE, low=Decimal(1), close=Decimal(1), volume=MAX_VOLUME, vwap=None, transactions=None)
    @example(open=MAX_PRICE, high=Decimal(2), low=Decimal(1), close=Decimal(1), volume=MAX_VOLUME, vwap=None, transactions=None)
    @example(open=Decimal(1), high=Decimal(2), low=Decimal(1), close=Decimal(1), volume=MAX_VOLUME, vwap=MAX_PRICE, transactions=None)
    @given(
        open=BOUNDED_PRICES, high=BOUNDED_PRICES, low=BOUNDED_PRICES, close=BOUNDED_PRICES,
        volume=st.integers(-2, 2) | st.sampled_from([MAX_VOLUME - 1, MAX_VOLUME]),
        vwap=st.none() | BOUNDED_PRICES, transactions=st.none() | st.integers(-2, 2),
    )
    def test_constructs_or_names_the_first_broken_invariant(self, **fields):
        """Bounds that meet, zero and negative fields, prices and volumes at
        their upper bounds: a bar is built exactly when the reference checks
        pass, else it names their first failure."""
        violation = oracle_violation(**fields)
        if violation is None:
            bar = Bar(date(2025, 1, 2), **fields)
            assert {name: getattr(bar, name) for name in fields} == fields
        else:
            with pytest.raises(BarDataError) as exc:
                Bar(date(2025, 1, 2), **fields)
            assert str(exc.value) == violation


def test_benchmark_inputs_take_the_row_pattern(tmp_path, monkeypatch):
    """The bars files of the benchmark's workloads, at their sizes, are read
    by the row pattern alone: the csv-module reader is patched to raise."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    inputs = importlib.import_module("inputs")
    paths = [inputs.baseline_inputs(7, tmp_path / "baselines_10k", 10_000)]
    for name, bars, sessions in (("deep_history", 2000, 42), ("long_window", 268, 252)):
        inputs.agent_inputs(7, tmp_path / name, bars, sessions)
        paths.append(tmp_path / name / "bars.csv")
    texts = [path.read_text(encoding="utf-8") for path in paths]

    def checked(*args):
        raise AssertionError("the csv-module reader was called")

    monkeypatch.setattr(bars_module, "_csv_rows", checked)
    for text in texts:
        assert serialize_bars(parse_bars(text), "csv") == text


class TestSerializeRoundTrip:
    CANONICAL = (
        f"{CSV_HEADER}\n"
        "2025-04-28,100,110,90,105,1000,102.5,50\n"
        "2025-04-29,105.25,111.5,104,110.75,2200,,\n"
        "2025-04-30,110.75,112,108.5,109,1800,110.1234,12\n"
    )

    def test_csv_round_trip_byte_identical(self):
        series = parse_bars(self.CANONICAL)
        assert serialize_bars(series, "csv") == self.CANONICAL

    def test_csv_is_the_one_format(self):
        with pytest.raises(BarDataError, match="unknown format 'jsonl'"):
            serialize_bars(parse_bars(self.CANONICAL), "jsonl")


class TestAdjustForActions:
    def _series(self):
        return parse_bars(
            f"{CSV_HEADER}\n"
            "2025-01-06,1000,1100,900,1000,100,,\n"
            "2025-01-07,1000,1100,900,1050,100,,\n"
            "2025-01-08,100,110,90,105,1000,,\n"
        )

    def test_split_divides_prices_multiplies_volume(self):
        actions = [CorporateAction(date(2025, 1, 8), "split", split_ratio=Decimal(10))]
        adjusted = adjust_for_actions(self._series(), actions)
        assert adjusted.bars[0].close == Decimal("100")
        assert adjusted.bars[0].volume == 1000
        assert adjusted.bars[2].close == Decimal("105")  # post-split bar untouched

    def test_empty_actions_identity(self):
        series = self._series()
        assert adjust_for_actions(series, []) is series

    def test_ratio_one_is_identity(self):
        series = self._series()
        actions = [CorporateAction(date(2025, 1, 8), "split", split_ratio=Decimal(1))]
        assert adjust_for_actions(series, actions).bars == series.bars

    def test_sequential_splits_compose(self):
        # 1:2 then 1:4 -> earliest prices divided by 8, by-hand fixture.
        series = parse_bars(
            f"{CSV_HEADER}\n"
            "2025-01-06,800,880,720,800,100,,\n"
            "2025-01-07,400,440,360,400,200,,\n"
            "2025-01-08,100,110,90,100,800,,\n"
        )
        actions = [
            CorporateAction(date(2025, 1, 7), "split", split_ratio=Decimal(2)),
            CorporateAction(date(2025, 1, 8), "split", split_ratio=Decimal(4)),
        ]
        adjusted = adjust_for_actions(series, actions)
        assert adjusted.bars[0].close == Decimal("100")  # 800 / 8
        assert adjusted.bars[0].volume == 800
        assert adjusted.bars[1].close == Decimal("100")  # 400 / 4
        assert adjusted.bars[1].volume == 800
        assert adjusted.bars[2].close == Decimal("100")

    def test_dividends_leave_prices_untouched(self):
        series = self._series()
        actions = [CorporateAction(date(2025, 1, 8), "dividend", cash_amount=Decimal("0.5"))]
        assert adjust_for_actions(series, actions).bars == series.bars

    def test_non_positive_ratio_rejected(self):
        with pytest.raises(BarDataError, match="split_ratio"):
            CorporateAction(date(2025, 1, 8), "split", split_ratio=Decimal(0))

    def test_actions_csv(self):
        actions = parse_actions_csv(
            "date,kind,ratio,cash\n2024-06-10,split,10,\n2025-03-12,dividend,,0.01\n"
        )
        assert actions[0].kind == "split" and actions[0].split_ratio == Decimal(10)
        assert actions[1].kind == "dividend" and actions[1].cash_amount == Decimal("0.01")

    @pytest.mark.parametrize("row", ["2024-06-10", "2024-06-10,split,10,,extra"])
    def test_actions_row_with_wrong_column_count_rejected(self, row):
        with pytest.raises(BarDataError, match="expected 4 columns.*at row 1"):
            parse_actions_csv(f"date,kind,ratio,cash\n{row}\n")


class TestResample:
    def test_week_aggregates_ohlcv(self):
        # Mon-Fri one ISO week: open=first, close=last, high=max, low=min, vol=sum.
        rows = [
            "2024-01-08,1,5,1,2,10,,",
            "2024-01-09,2,6,1.5,3,20,,",
            "2024-01-10,3,7,2,4,30,,",
            "2024-01-11,4,8,2.5,5,40,,",
            "2024-01-12,5,9,3,9,50,,",
        ]
        series = parse_bars(CSV_HEADER + "\n" + "\n".join(rows) + "\n")
        weekly = resample(series, Resolution.WEEKLY)
        assert len(weekly) == 1
        bar = weekly.bars[0]
        assert bar.open == Decimal("1")
        assert bar.close == Decimal("9")
        assert bar.high == Decimal("9")
        assert bar.low == Decimal("1")
        assert bar.volume == 150
        assert bar.session_date == date(2024, 1, 12)

    def test_singleton_bucket(self):
        series = series_from_closes([5.0])
        weekly = resample(series, Resolution.WEEKLY)
        assert len(weekly) == 1
        assert weekly.bars[0].open == weekly.bars[0].close == Decimal("5.0")

    def test_monthly_volume_sums_by_hand(self):
        # 21 weekdays spanning Jan->Feb 2024; volumes 1..21.
        bars = []
        d = date(2024, 1, 22)
        vol = 0
        from conftest import next_weekday
        from datetime import timedelta

        january, february = 0, 0
        for i in range(21):
            d = next_weekday(d)
            vol = i + 1
            bars.append(make_bar(d, 10, 11, 9, 10, v=vol))
            if d.month == 1:
                january += vol
            else:
                february += vol
            d += timedelta(days=1)
        series = BarSeries("S", Resolution.DAILY, tuple(bars))
        monthly = resample(series, Resolution.MONTHLY)
        assert len(monthly) == 2
        assert monthly.bars[0].volume == january
        assert monthly.bars[1].volume == february

    def test_non_daily_input_rejected(self):
        weekly = resample(synthetic_daily(30), Resolution.WEEKLY)
        with pytest.raises(BarDataError, match="daily"):
            resample(weekly, Resolution.MONTHLY)

    @given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30)
    def test_resampling_conserves_volume(self, n, seed):
        series = synthetic_daily(n, seed=seed)
        for target in (Resolution.WEEKLY, Resolution.MONTHLY):
            out = resample(series, target)
            assert sum(b.volume for b in out.bars) == sum(b.volume for b in series.bars)


class TestWindowSlice:
    def test_three_month_slice_counts(self):
        series = synthetic_daily(520, seed=5)  # ~2 years of weekdays
        as_of = series.bars[-1].session_date
        sliced = window_slice(series, Lookback(months=3), as_of)
        # ~63 trading days in 3 months of weekdays; generator has no holidays.
        assert 60 <= len(sliced) <= 68
        start = Lookback(months=3).before(as_of)
        assert all(start < b.session_date <= as_of for b in sliced.bars)

    def test_lookback_longer_than_history_clamps(self):
        series = synthetic_daily(30)
        sliced = window_slice(series, Lookback(years=10), series.bars[-1].session_date)
        assert sliced.bars == series.bars

    def test_as_of_at_first_bar(self):
        series = synthetic_daily(30)
        sliced = window_slice(series, Lookback(months=3), series.bars[0].session_date)
        assert len(sliced) == 1

    def test_as_of_before_first_bar_rejected(self):
        series = synthetic_daily(30)
        with pytest.raises(BarDataError, match="before first bar"):
            window_slice(series, Lookback(months=1), date(2020, 1, 1))

    @given(st.integers(min_value=1, max_value=24), st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=30)
    def test_slice_is_suffix_contiguous(self, months, seed):
        series = synthetic_daily(100, seed=seed)
        as_of = series.bars[-1].session_date
        sliced = window_slice(series, Lookback(months=months), as_of)
        dates = series.dates()
        sub = sliced.dates()
        assert sub == dates[len(dates) - len(sub) :]

    def test_month_end_clamping(self):
        assert Lookback(months=3).before(date(2024, 5, 31)) == date(2024, 2, 29)
        assert Lookback(years=1).before(date(2024, 2, 29)) == date(2023, 2, 28)


COLUMNS = ("closes", "highs", "lows", "volumes")


class TestColumns:
    """A series' float columns: its bars' prices as floats, and its volumes,
    each made once, the first time it is read."""

    def test_columns_are_the_bars_as_floats(self):
        series = synthetic_daily(40, seed=3)
        bars = series.bars
        assert series.closes == tuple(float(b.close) for b in bars)
        assert series.highs == tuple(float(b.high) for b in bars)
        assert series.lows == tuple(float(b.low) for b in bars)
        assert series.volumes == tuple(b.volume for b in bars)

    def test_reading_a_column_twice_gives_the_same_object(self):
        series = synthetic_daily(40, seed=3)
        for name in COLUMNS:
            assert getattr(series, name) is getattr(series, name), name

    def test_a_read_column_leaves_equality_and_hash_alone(self):
        series = synthetic_daily(40, seed=3)
        twin = BarSeries(series.symbol, series.resolution, series.bars)
        for name in COLUMNS:
            getattr(series, name)
        assert series == twin and hash(series) == hash(twin)

    def test_slices_make_no_column_until_one_is_read(self):
        series = synthetic_daily(120, seed=3)
        for name in COLUMNS:
            getattr(series, name)  # the whole series' columns are not its slices'
        as_of = series.bars[80].session_date
        for sub in (
            series.up_to(as_of),
            window_slice(series, Lookback(months=1), as_of),
            resample(series, Resolution.WEEKLY),
        ):
            assert not set(COLUMNS) & vars(sub).keys()
            assert sub.highs == tuple(float(b.high) for b in sub.bars)
            assert set(COLUMNS) & vars(sub).keys() == {"highs"}


class TestSessionCalendar:
    def test_membership_and_range(self):
        series = synthetic_daily(10)
        cal = SessionCalendar.from_series(series)
        dates = series.dates()
        assert dates[3] in cal.trading_dates
        assert cal.sessions_between(dates[2], dates[5]) == dates[2:6]

    def test_non_increasing_rejected(self):
        with pytest.raises(BarDataError):
            SessionCalendar((date(2024, 1, 2), date(2024, 1, 2)))
