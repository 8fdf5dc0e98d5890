"""CLI subcommands and exit codes."""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tradeloop
from tradeloop.bars import CSV_COLUMNS, serialize_bars
from tradeloop import cli
from tradeloop.cli import main
from tradeloop.errors import EXIT_CONFIG, EXIT_DATA, EXIT_OK, EXIT_PROVIDER

from conftest import synthetic_daily
from test_harness import build_workspace, order_payload

# JSON nested beyond the decoder's depth, which raises RecursionError.
NESTED = "[" * 100_000 + "]" * 100_000


@pytest.fixture
def bars_csv(tmp_path) -> Path:
    path = tmp_path / "bars.csv"
    path.write_text(serialize_bars(synthetic_daily(120, seed=4), "csv"), encoding="utf-8")
    return path


class TestValidateData:
    def test_ok(self, bars_csv, capsys):
        assert main(["validate-data", "--bars", str(bars_csv)]) == EXIT_OK
        assert "OK: 120 bars" in capsys.readouterr().out

    def test_missing_file_is_data_error(self, tmp_path):
        assert main(["validate-data", "--bars", str(tmp_path / "nope.csv")]) == EXIT_DATA

    def test_bad_rows_are_data_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(
            "date,open,high,low,close,volume,vwap,transactions\n"
            "2025-04-28,100,90,110,105,1000,,\n",
            encoding="utf-8",
        )
        assert main(["validate-data", "--bars", str(path)]) == EXIT_DATA
        assert "row 1" in capsys.readouterr().err


class TestBacktest:
    def test_buy_hold_emits_metrics_json(self, bars_csv, capsys):
        code = main(["backtest", "--strategy", "buy_hold", "--bars", str(bars_csv)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        payload = json.loads(out[: out.index("}") + 1])
        assert payload["num_trades"] == 1

    def test_sma_with_window_flag(self, bars_csv, capsys):
        code = main(["backtest", "--strategy", "sma", "--window", "10", "--bars", str(bars_csv)])
        assert code == EXIT_OK

    def test_out_dir_artifacts(self, bars_csv, tmp_path):
        out = tmp_path / "artifacts"
        main(["backtest", "--strategy", "sma", "--bars", str(bars_csv), "--out", str(out)])
        assert (out / "sma_metrics.json").exists()
        assert (out / "sma_audit.jsonl").exists()


class TestRunReportReplay:
    def test_run_then_report_then_replay(self, tmp_path, capsys):
        config = build_workspace(tmp_path, mode="baseline")
        config_path = tmp_path / "config.json"
        assert main(["run", "--config", str(config_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "runs: 1" in out

        exp_dir = tmp_path / "runs" / "exp-baseline"
        assert main(["report", "--runs", str(exp_dir), "--label", "baseline"]) == EXIT_OK
        table = capsys.readouterr().out
        assert "baseline" in table

        assert main(["replay", "--run", str(exp_dir / "run-1")]) == EXIT_OK
        assert "byte-identical" in capsys.readouterr().out

    def test_report_after_replay_counts_recorded_runs_only(self, tmp_path, capsys, monkeypatch):
        build_workspace(tmp_path, mode="baseline", runs=2)
        assert main(["run", "--config", str(tmp_path / "config.json")]) == EXIT_OK
        exp_dir = tmp_path / "runs" / "exp-baseline"
        assert main(["replay", "--run", str(exp_dir / "run-1")]) == EXIT_OK
        reported = []
        aggregate = cli.aggregate_and_report

        def spy(artifacts, label):
            reported.append([a.run_id for a in artifacts])
            return aggregate(artifacts, label=label)

        monkeypatch.setattr(cli, "aggregate_and_report", spy)
        assert main(["report", "--runs", str(exp_dir)]) == EXIT_OK
        assert reported == [["run-1", "run-2"]]

    def test_bad_config_is_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG

    def test_run_flag_overrides(self, tmp_path, capsys):
        build_workspace(tmp_path, mode="baseline", runs=2)
        config_path = tmp_path / "config.json"
        code = main(["run", "--config", str(config_path), "--runs", "1"])
        assert code == EXIT_OK
        assert "runs: 1" in capsys.readouterr().out

    def test_run_invalid_mode_override_is_config_error(self, tmp_path):
        build_workspace(tmp_path, mode="baseline")
        config_path = tmp_path / "config.json"
        assert main(["run", "--config", str(config_path), "--mode", "nonsense"]) == EXIT_CONFIG

    def test_replay_tamper_is_provider_error(self, tmp_path):
        config = build_workspace(tmp_path, mode="baseline")
        config_path = tmp_path / "config.json"
        main(["run", "--config", str(config_path)])
        run_dir = tmp_path / "runs" / "exp-baseline" / "run-1"
        gw = run_dir / "gateway.jsonl"
        lines = gw.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[0])
        record["request_hash"] = "0" * 64
        lines[0] = json.dumps(record, separators=(",", ":"), sort_keys=True)
        gw.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["replay", "--run", str(run_dir)]) == EXIT_PROVIDER

    def test_report_empty_dir_is_data_error(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["report", "--runs", str(empty)]) == EXIT_DATA

    def test_equity_at_zero_leaves_sharpe_and_sortino_null(self, tmp_path, capsys):
        """A short of 1000 at 100 from 100k cash is marked at exactly 0 by the
        close at 200. The run still ends: Sharpe and Sortino, which would need
        a return from that session, are null, and it replays."""
        dates = ["2025-01-06", "2025-01-07", "2025-01-08", "2025-01-09", "2025-01-10"]
        rows = [f"{d},{c},{c},{c},{c},1000,," for d, c in zip(dates, (100, 100, 200, 120, 90))]
        bars = _file(tmp_path, "bars.csv", "\n".join([",".join(CSV_COLUMNS), *rows]) + "\n")
        config = {
            "experiment": "zero",
            "instrument": "SYNTH",
            "window_start": dates[0],
            "window_end": dates[-1],
            "prompting_mode": "baseline",
            "runs": 1,
            "initial_cash": "100000",
            "ablations": {"no_news": True, "no_market": True, "no_fundamental": True},
            "providers": {
                "cta": {
                    "kind": "scripted",
                    "script": [{"response": order_payload("SHORT", 1000), "times": 1}, {"match": "", "response": "[]", "times": None}],
                }
            },
            "paths": {"bars": bars, "out_dir": str(tmp_path / "runs")},
        }
        config_path = _file(tmp_path, "config.json", json.dumps(config))
        assert main(["run", "--config", config_path]) == EXIT_OK
        run_dir = tmp_path / "runs" / "zero" / "run-1"
        payload = json.loads((run_dir / "metrics.json").read_text(encoding="utf-8"))
        assert payload["equity"]["values"] == ["100000", "100000", "0", "80000", "110000"]
        report = payload["metrics"]
        assert (report["sharpe_daily"], report["sharpe_annualized"], report["sortino"]) == (None, None, None)
        assert report["roi_pct"] == pytest.approx(10.0)
        assert main(["replay", "--run", str(run_dir)]) == EXIT_OK
        assert "byte-identical" in capsys.readouterr().out


def test_the_cli_reaches_every_module_of_the_package():
    """Importing the CLI imports every module the package holds, so none is
    left that no run reaches."""
    code = (
        "import pkgutil, sys, tradeloop, tradeloop.cli\n"
        "print(sorted(m.name for m in pkgutil.iter_modules(tradeloop.__path__) if 'tradeloop.' + m.name not in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(tradeloop.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True, timeout=60)
    assert done.stdout == "[]\n"


@pytest.mark.parametrize(
    "key, text, code",
    [
        ("news", "{not json\n", EXIT_DATA),
        ("news", '{"title": "no timestamp"}\n', EXIT_DATA),
        ("news", '{"ts": "2025-01-02T09:00:00+00:00"}\n', EXIT_DATA),
        ("news", '{"ts": "yesterday", "title": "t"}\n', EXIT_DATA),
        ("news", '["ts", "title"]\n', EXIT_DATA),
        ("news", '{"ts": "WINDOW_START", "title": ["t"]}\n', EXIT_DATA),
        ("news", '{"ts": "WINDOW_START", "title": "t", "keywords": [1]}\n', EXIT_DATA),
        ("fundamentals", '{"filing_date": "2025-01-02"}', EXIT_DATA),
        ("fundamentals", "[1]", EXIT_DATA),
        ("fundamentals", '[{"period_label": "Q1"}]', EXIT_DATA),
        ("fundamentals", '[{"filing_date": "2025-13-40"}]', EXIT_DATA),
        ("fundamentals", '[{"filing_date": 20250102}]', EXIT_DATA),
        ("fundamentals", '[{"filing_date": "2025-01-02", "revenue": "1.0e9"}]', EXIT_DATA),
        ("fundamentals", '[{"filing_date": "2025-01-02", "net_income": true}]', EXIT_DATA),
        pytest.param(
            "fundamentals", '[{"filing_date": "WINDOW_START", "revenue": 1%s}]' % ("0" * 400), EXIT_DATA,
            id="fundamentals-revenue-10**400",
        ),
        pytest.param(  # each figure is finite as a float, their sum is not
            "fundamentals", '[{"filing_date": "WINDOW_START", "ocf": 1%s, "icf": 1%s, "fcf_fin": 1%s}]' % (("0" * 308,) * 3), EXIT_OK,
            id="fundamentals-cash-flows-3x10**308",
        ),
        ("fundamentals", '[{"filing_date": "WINDOW_START", "revenue": NaN}]', EXIT_DATA),
        ("fundamentals", '[{"filing_date": "WINDOW_START", "splits": ["2024-06-10 1:10"]}]', EXIT_DATA),
        ("fundamentals", '[{"filing_date": "WINDOW_START", "dividends": [["2024-01-02"]]}]', EXIT_DATA),
        ("fundamentals", '[{"filing_date": "WINDOW_START", "splits": {"2024-06-10": "1:10"}}]', EXIT_DATA),
        ("bars", None, EXIT_DATA),
        ("news", None, EXIT_DATA),
        ("bars", b"date,open,high,low,close,volume\n\xff\n", EXIT_DATA),
        ("calendar", "2025-01-02\nnot a date\n", EXIT_DATA),
        ("prompt_dir", "{{ unclosed", EXIT_CONFIG),
        ("prompt_dir", "{% for x %}", EXIT_CONFIG),
        ("news", '{"ts": "WINDOW_START", "title": "t", "url": [1]}\n', EXIT_DATA),
        ("news", '{"ts": "WINDOW_START", "title": "t", "summary": {"text": "s"}}\n', EXIT_DATA),
        ("fundamentals", '[{"filing_date": "WINDOW_START", "period_label": [1]}]', EXIT_DATA),
        pytest.param("news", '{"ts": "WINDOW_START", "title": "t", "url": %s}\n' % NESTED, EXIT_DATA, id="news-url-nested"),
        pytest.param("fundamentals", NESTED, EXIT_DATA, id="fundamentals-nested"),
    ],
)
def test_bad_input_file_exit_code(tmp_path, key, text, code):
    """`text` None makes the input path a directory; "WINDOW_START" in a
    text becomes the first session, so the run reaches it."""
    window_start = build_workspace(tmp_path, mode="baseline").window_start.isoformat()
    config_path = tmp_path / "config.json"
    config = json.loads(config_path.read_text(encoding="utf-8"))
    bad = tmp_path / "bad"
    if key == "prompt_dir":
        bad.mkdir()
        (bad / "market_initial.txt").write_text(text, encoding="utf-8")
        config["prompt_dir"] = str(bad)
    else:
        if text is None:
            bad.mkdir()
        elif isinstance(text, bytes):
            bad.write_bytes(text)
        else:
            bad.write_text(text.replace("WINDOW_START", window_start), encoding="utf-8")
        config["paths"][key] = str(bad)
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["run", "--config", str(config_path)]) == code


@pytest.mark.parametrize(
    "path, value",
    [
        (("window_start",), 20250102),
        (("roi_mode",), "bogus"),
        (("initial_cash",), "abc"),
        (("initial_cash",), "NaN"),
        (("initial_cash",), "-5"),
        (("initial_cash",), "0"),
        (("initial_cash",), True),
        (("initial_cash",), "1e400"),
        (("runs",), "2"),
        (("runs",), True),
        (("reflection_interval",), "2"),
        (("opro_k",), 1.5),
        (("ablations",), ["no_news"]),
        (("ablations",), {"no_nwes": True}),
        (("ablations",), {"no_news": 1}),
        (("providers", "cta", "script", 0), {"times": 1}),
        (("providers", "cta", "script", 0, "times"), "x"),
        (("providers", "cta", "script", 0, "match"), 5),
        (("providers", "cta", "max_attempts"), 0),
        (("providers", "cta", "kind"), "bogus"),
        (("providers", "markte"), {"kind": "scripted"}),
        (("providers",), {}),
        (("instrument",), 7),
        (("seed",), "1"),
        (("providers", "cta", "strict"), "no"),
        (("providers", "cta", "timeout_s"), "x"),
        (("providers", "cta", "base_url"), 5),
        (("providers", "cta"), {"kind": "replay"}),
    ],
    ids=repr,
)
def test_bad_config_value_exits_2_before_writing(tmp_path, path, value):
    build_workspace(tmp_path, mode="baseline")
    config_path = tmp_path / "config.json"
    config = json.loads(config_path.read_text(encoding="utf-8"))
    *parents, last = path
    target = config
    for key in parents:
        target = target[key]
    target[last] = value
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["run", "--config", str(config_path)]) == EXIT_CONFIG
    assert not Path(config["paths"]["out_dir"]).exists()


def test_misspelled_paths_key_exits_2_naming_the_keys(tmp_path, capsys):
    """A misspelled input key would otherwise drop that input silently, like an ablation."""
    build_workspace(tmp_path, mode="baseline")
    config_path = tmp_path / "config.json"
    config = json.loads(config_path.read_text(encoding="utf-8"))
    config["paths"]["fundamental"] = config["paths"].pop("fundamentals")
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["run", "--config", str(config_path)]) == EXIT_CONFIG
    assert "paths must be dict['bars' | 'actions' | 'news' | 'fundamentals' | 'calendar' | 'out_dir', str]" in capsys.readouterr().err
    assert not Path(config["paths"]["out_dir"]).exists()


@pytest.fixture(scope="module")
def recorded_run(tmp_path_factory) -> Path:
    """A baseline run recorded by `tradeloop run`; probes tamper with copies."""
    root = tmp_path_factory.mktemp("recorded")
    build_workspace(root, mode="baseline")
    assert main(["run", "--config", str(root / "config.json")]) == EXIT_OK
    return root / "runs" / "exp-baseline" / "run-1"


def _bars_file(tmp_path, n):
    path = tmp_path / "bars.csv"
    path.write_text(serialize_bars(synthetic_daily(n, seed=4), "csv"), encoding="utf-8")
    return str(path)


def _backtest(*flags):
    return lambda tmp_path, run: ["backtest", "--bars", _bars_file(tmp_path, 120), *flags]


def _run_with(key, value, *more):
    """`run` over the recorded workspace's config with the item at the dotted
    `key` set to `value` ("paths.bars" sets `config["paths"]["bars"]`), which
    a value of None removes and a callable gives from the probe's `tmp_path`;
    `more` sets further items, as alternate keys and values."""

    def argv(tmp_path, run):
        config = json.loads((run.parents[2] / "config.json").read_text(encoding="utf-8"))
        config["paths"]["out_dir"] = str(tmp_path / "out")
        for dotted, item in zip((key, *more[::2]), (value, *more[1::2])):
            *parents, last = dotted.split(".")
            target = config
            for name in parents:
                target = target[name]
            if item is None:
                del target[last]
            else:
                target[last] = item(tmp_path) if callable(item) else item
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        return ["run", "--config", str(path)]

    return argv


# Timeouts that requests refuses (0, below 0, NaN) or cannot pass to a socket (infinite).
TIMEOUTS = (0, -1.5, math.nan, math.inf)


def _http_provider(timeout_s, base_url="http://127.0.0.1:9"):
    return {"kind": "http", "base_url": base_url, "model_id": "m", "timeout_s": timeout_s}


def _file(tmp_path, name, text):
    """The path of a new file `name` in `tmp_path` holding `text`."""
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _tampered(command, name, edit):
    """`command` over a copy of the recorded run whose file `name` is
    replaced by `edit` of its text."""

    def argv(tmp_path, run):
        copy = tmp_path / "exp" / run.name
        shutil.copytree(run, copy)
        (copy / name).write_text(edit((copy / name).read_text(encoding="utf-8")), encoding="utf-8")
        return ["replay", "--run", str(copy)] if command == "replay" else ["report", "--runs", str(copy.parent)]

    return argv


def _edit_first_record(edit):
    def apply(text):
        first, rest = text.split("\n", 1)
        record = json.loads(first)
        edit(record)
        return json.dumps(record) + "\n" + rest

    return apply


def _set(path, value):
    """An edit of a JSON text that sets the item at the keys `path` to `value`."""

    def apply(text):
        payload = json.loads(text)
        *parents, last = path
        target = payload
        for key in parents:
            target = target[key]
        target[last] = value
        return json.dumps(payload)

    return apply


# A bars file whose second data row has a field over the csv module's limit.
OVERSIZE_BARS = (
    serialize_bars(synthetic_daily(1, seed=4), "csv") + "2025-04-29," + "1" * 131073 + ",110,90,105,1000,,\n"
)


def _oversize_bars(tmp_path):
    return _file(tmp_path, "bars.csv", OVERSIZE_BARS)


# Row 110 of a bars file with prices or a volume past what float math takes:
# the cells edited, their new text, and the message that names the row.
OVERSIZED = {
    "prices 1e200": (("open", "high", "close"), "1" + "0" * 200, "high too large: prices must be below 10**15 at row 110\n"),
    "400-digit prices": (("open", "high", "close"), "9" * 400, "high too large: prices must be below 10**15 at row 110\n"),
    "400-digit volume": (("volume",), "9" * 400, "volume too large: volumes must be below 2**53 at row 110\n"),
}


def _oversized(text, case):
    """The bars CSV `text` with row 110 edited as OVERSIZED[case] says."""
    names, value, _ = OVERSIZED[case]
    lines = text.split("\n")
    cells = lines[110].split(",")
    for name in names:
        cells[CSV_COLUMNS.index(name)] = value
    lines[110] = ",".join(cells)
    return "\n".join(lines)


def _run_oversized(case):
    """`run` over the recorded workspace with its bars edited."""

    def argv(tmp_path, run):
        text = (run.parents[2] / "bars.csv").read_text(encoding="utf-8")
        return _run_with("paths.bars", _file(tmp_path, "bars.csv", _oversized(text, case)))(tmp_path, run)

    return argv


def _backtest_oversized(strategy, case):
    def argv(tmp_path, run):
        text = _oversized(serialize_bars(synthetic_daily(120, seed=4), "csv"), case)
        return ["backtest", "--strategy", strategy, "--bars", _file(tmp_path, "bars.csv", text)]

    return argv


def _prompts_without_history(tmp_path):
    """A prompt_dir whose optimizer asset has no history marker."""
    (tmp_path / "prompts").mkdir(exist_ok=True)
    _file(tmp_path / "prompts", "optimizer.txt", "Improve the trading prompt.\n")
    return str(tmp_path / "prompts")


def _prompts_with_a_misspelled_asset(tmp_path):
    """A prompt_dir whose one file names no shipped asset."""
    (tmp_path / "prompts").mkdir(exist_ok=True)
    _file(tmp_path / "prompts", "market_intial.txt", "Analyse {{ instrument }}.\n")
    return str(tmp_path / "prompts")


def _bad_metrics(path, value):
    return EXIT_DATA, _tampered("report", "metrics.json", _set(path, value))


NO_TRACEBACK_PROBES = {
    "backtest --bars <dir>": (EXIT_DATA, lambda tmp_path, run: ["backtest", "--strategy", "sma", "--bars", str(tmp_path)]),
    "validate-data --bars <dir>": (EXIT_DATA, lambda tmp_path, run: ["validate-data", "--bars", str(tmp_path)]),
    "backtest sma over 5 bars": (EXIT_DATA, lambda tmp_path, run: ["backtest", "--strategy", "sma", "--bars", _bars_file(tmp_path, 5)]),
    "report metrics.json not JSON": (EXIT_DATA, _tampered("report", "metrics.json", lambda text: "{not json")),
    "report equity date x": _bad_metrics(("equity", "dates", 0), "x"),
    "report equity value NaN": _bad_metrics(("equity", "values", 0), "NaN"),
    "report metrics null": _bad_metrics(("metrics",), None),
    "report metrics []": _bad_metrics(("metrics",), []),
    "report roi_pct x": _bad_metrics(("metrics", "roi_pct"), "x"),
    "report roi_pct [1]": _bad_metrics(("metrics", "roi_pct"), [1]),
    "report roi_pct true": _bad_metrics(("metrics", "roi_pct"), True),
    "report num_trades 1.5": _bad_metrics(("metrics", "num_trades"), 1.5),
    "backtest --cash abc": (EXIT_CONFIG, _backtest("--strategy", "buy_hold", "--cash", "abc")),
    "backtest --cash -5": (EXIT_CONFIG, _backtest("--strategy", "buy_hold", "--cash", "-5")),
    "backtest --cash 0": (EXIT_CONFIG, _backtest("--strategy", "buy_hold", "--cash", "0")),
    "backtest sma --window -3": (EXIT_CONFIG, _backtest("--strategy", "sma", "--window", "-3")),
    "backtest bollinger --window 1": (EXIT_CONFIG, _backtest("--strategy", "bollinger", "--window", "1")),
    "backtest bollinger --k nan": (EXIT_CONFIG, _backtest("--strategy", "bollinger", "--k", "nan")),
    "backtest bollinger --k inf": (EXIT_CONFIG, _backtest("--strategy", "bollinger", "--k", "inf")),
    "backtest bollinger --k -1": (EXIT_CONFIG, _backtest("--strategy", "bollinger", "--k", "-1")),
    "backtest sma --k nan": (EXIT_CONFIG, _backtest("--strategy", "sma", "--k", "nan")),
    "backtest macd --long-window 3": (EXIT_CONFIG, _backtest("--strategy", "macd", "--long-window", "3")),
    "backtest buy_hold --window 5": (EXIT_CONFIG, _backtest("--strategy", "buy_hold", "--window", "5")),
    "run experiment 5": (EXIT_CONFIG, _run_with("experiment", 5)),
    "run prompt_dir 5": (EXIT_CONFIG, _run_with("prompt_dir", 5)),
    "run prompt_dir missing": (EXIT_CONFIG, _run_with("prompt_dir", lambda tmp_path: str(tmp_path / "no-such-dir"))),
    "run prompt_dir with a misspelled asset": (EXIT_CONFIG, _run_with("prompt_dir", _prompts_with_a_misspelled_asset)),
    "run paths.bars 5": (EXIT_CONFIG, _run_with("paths.bars", 5)),
    "run paths without bars": (EXIT_CONFIG, _run_with("paths.bars", None)),
    **{
        f"run http provider timeout_s {timeout!r}": (EXIT_CONFIG, _run_with("providers.market", _http_provider(timeout)))
        for timeout in TIMEOUTS
    },
    "run http provider timeout_s 1e10": (EXIT_CONFIG, _run_with("providers.market", _http_provider(1e10))),
    "run http provider without base_url": (EXIT_CONFIG, _run_with("providers.market", _http_provider(60, base_url=""))),
    **{
        f"run {mode} optimizer asset without history": (
            EXIT_CONFIG, _run_with("prompting_mode", mode, "prompt_dir", _prompts_without_history)
        )
        for mode in ("adaptive_opro", "adaptive_opro_with_reflection")
    },
    "replay config.lock not JSON": (EXIT_PROVIDER, _tampered("replay", "config.lock", lambda text: "{not json")),
    "replay gateway line not JSON": (EXIT_PROVIDER, _tampered("replay", "gateway.jsonl", lambda text: "{not json\n" + text)),
    "validate-data --bars nested.jsonl": (
        EXIT_DATA, lambda tmp_path, run: ["validate-data", "--bars", _file(tmp_path, "bars.jsonl", NESTED + "\n")]
    ),
    "validate-data oversize field": (EXIT_DATA, lambda tmp_path, run: ["validate-data", "--bars", _oversize_bars(tmp_path)]),
    "backtest oversize field": (
        EXIT_DATA, lambda tmp_path, run: ["backtest", "--strategy", "buy_hold", "--bars", _oversize_bars(tmp_path)]
    ),
    "run oversize field": (EXIT_DATA, _run_with("paths.bars", _oversize_bars)),
    **{f"run bars with {case}": (EXIT_DATA, _run_oversized(case)) for case in OVERSIZED},
    "backtest bollinger bars with prices 1e200": (EXIT_DATA, _backtest_oversized("bollinger", "prices 1e200")),
    "backtest buy_hold bars with 400-digit prices": (EXIT_DATA, _backtest_oversized("buy_hold", "400-digit prices")),
    "validate-data --actions oversize field": (
        EXIT_DATA,
        lambda tmp_path, run: [
            "validate-data", "--bars", _bars_file(tmp_path, 5),
            "--actions", _file(tmp_path, "actions.csv", "date,kind,ratio,cash\n2024-06-10,split," + "1" * 131073 + ",\n"),
        ],
    ),
    "run --config nested": (EXIT_CONFIG, lambda tmp_path, run: ["run", "--config", _file(tmp_path, "config.json", NESTED)]),
    "report metrics.json nested": (EXIT_DATA, _tampered("report", "metrics.json", lambda text: NESTED)),
    "replay config.lock nested": (EXIT_PROVIDER, _tampered("replay", "config.lock", lambda text: NESTED)),
    "replay gateway line nested": (EXIT_PROVIDER, _tampered("replay", "gateway.jsonl", lambda text: NESTED + "\n" + text)),
    "replay record without request_hash": (
        EXIT_PROVIDER,
        _tampered("replay", "gateway.jsonl", _edit_first_record(lambda record: record.pop("request_hash"))),
    ),
    "replay gateway line []": (EXIT_PROVIDER, _tampered("replay", "gateway.jsonl", lambda text: "[]\n" + text)),
    "replay gateway v1 record": (
        EXIT_PROVIDER,
        _tampered("replay", "gateway.jsonl", _edit_first_record(lambda record: record.pop("v"))),
    ),
    **{
        f"replay {name} edited": (EXIT_PROVIDER, _tampered("replay", name, lambda text: text.replace("0", "1", 1)))
        for name in ("engine.jsonl", "opro.jsonl", "metrics.json")
    },
}
# What a probe's error message must say, beyond its label.
PROBE_MESSAGES = {
    "run paths without bars": ("paths.bars is required\n",),
    "run prompt_dir missing": ("config error: prompt_dir ", "no-such-dir is not a directory\n"),
    "run prompt_dir with a misspelled asset": ("config error: prompt_dir file ", "market_intial.txt names no prompt asset\n"),
    **{
        f"run http provider timeout_s {timeout!r}": (f"timeout_s must be finite and > 0, got {timeout!r}\n",)
        for timeout in TIMEOUTS
    },
    "run http provider timeout_s 1e10": ("timeout_s must be at most 9223372036 s, got 10000000000.0\n",),
    "run http provider without base_url": ("an http provider needs base_url\n",),
    **{
        f"run {mode} optimizer asset without history": (
            "config error: optimizer asset ",
            "optimizer.txt has no {{ history_text }}: its meta-prompt would hold no history\n",
        )
        for mode in ("adaptive_opro", "adaptive_opro_with_reflection")
    },
    "backtest sma --window -3": ("sma_n must be an integer >= 1, got -3\n",),
    "backtest bollinger --window 1": ("bollinger_n must be an integer >= 2, got 1\n",),
    "backtest bollinger --k nan": ("bollinger_k must be finite and > 0, got nan\n",),
    "backtest bollinger --k -1": ("bollinger_k must be finite and > 0, got -1.0\n",),
    **{
        probe: ("unreadable csv: field larger than field limit (131072) at row 2\n",)
        for probe in ("validate-data oversize field", "backtest oversize field", "run oversize field")
    },
    "validate-data --actions oversize field": ("unreadable csv: field larger than field limit (131072) at row 1\n",),
    **{f"run bars with {case}": (message,) for case, (_, _, message) in OVERSIZED.items()},
    "backtest bollinger bars with prices 1e200": (OVERSIZED["prices 1e200"][2],),
    "backtest buy_hold bars with 400-digit prices": (OVERSIZED["400-digit prices"][2],),
    "replay gateway v1 record": ("cannot replay ", "is gateway audit version 1; this build replays version 2"),
    **{f"replay {name} edited": (f"replay artifacts differ: {name}\n",) for name in ("engine.jsonl", "opro.jsonl", "metrics.json")},
}


@pytest.mark.parametrize("mode", ["baseline", "reflection"])
def test_only_optimizing_modes_need_the_history_marker(mode, tmp_path, recorded_run):
    """A mode that never proposes runs with an optimizer asset that has no
    history marker."""
    argv = _run_with("prompting_mode", mode, "prompt_dir", _prompts_without_history)(tmp_path, recorded_run)
    assert main(argv) == EXIT_OK
    assert (tmp_path / "out" / "exp-baseline" / "run-1" / "metrics.json").exists()


@pytest.mark.parametrize("probe", NO_TRACEBACK_PROBES)
def test_bad_input_exits_with_its_code(probe, tmp_path, recorded_run, capsys):
    """Each probe returns its exit code from `main` instead of raising, names
    its error on stderr and writes no run."""
    code, argv = NO_TRACEBACK_PROBES[probe]
    assert main(argv(tmp_path, recorded_run)) == code
    err = capsys.readouterr().err
    assert err.startswith(("config error: ", "data error: ", "provider error: "))
    assert all(message in err for message in PROBE_MESSAGES.get(probe, ()))
    assert not (tmp_path / "out").exists()
