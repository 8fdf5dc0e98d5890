"""CLI subcommands and exit codes."""

from __future__ import annotations

import ast
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from datetime import date, timedelta
from itertools import count
from pathlib import Path

import pytest

import tradeloop
from tradeloop.bars import CSV_COLUMNS, load_series, serialize_bars
from tradeloop import cli
from tradeloop.cli import main
from tradeloop.engine import AuditLog
from tradeloop.errors import EXIT_CONFIG, EXIT_DATA, EXIT_INTERRUPTED, EXIT_OK, EXIT_PROVIDER
from tradeloop.gateway import ScriptedProvider
from tradeloop.harness import PROVIDER_ROLES, read_run
from tradeloop.strategies import StrategyConfig, StrategyKind, run_strategy
from tradeloop.templates import asset_path

from chat_server import ChatServer
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

    @pytest.mark.parametrize("strategy", [kind.value for kind in StrategyKind])
    def test_the_streamed_audit_is_the_in_memory_audit(self, bars_csv, tmp_path, strategy):
        """`--out` streams the audit to its file, byte for byte the audit a
        run over the same bars keeps in memory."""
        out = tmp_path / "artifacts"
        assert main(["backtest", "--strategy", strategy, "--bars", str(bars_csv), "--out", str(out)]) == EXIT_OK
        kept = run_strategy(StrategyConfig(kind=StrategyKind(strategy)), load_series(str(bars_csv), "")[0]).engine.audit.text()
        assert kept and (out / f"{strategy}_audit.jsonl").read_bytes() == kept.encode("utf-8")


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


def _fresh_python(code: str) -> str:
    """What `code` prints in a new interpreter that imports this package."""
    env = {**os.environ, "PYTHONPATH": str(Path(tradeloop.__file__).parents[1])}
    return subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True, timeout=60).stdout


def test_the_cli_reaches_every_module_of_the_package():
    """Importing the CLI imports every module the package holds, so none is
    left that no run reaches."""
    code = (
        "import pkgutil, sys, tradeloop, tradeloop.cli\n"
        "print(sorted(m.name for m in pkgutil.iter_modules(tradeloop.__path__) if 'tradeloop.' + m.name not in sys.modules))"
    )
    assert _fresh_python(code) == "[]\n"


def test_the_cli_leaves_the_http_client_unimported():
    """urllib's client, with http.client and ssl, costs about 20 ms to
    import, so only an `http` provider's first call imports it."""
    code = "import sys, tradeloop.cli\nprint(sorted({'urllib.request', 'http.client', 'ssl'} & sys.modules.keys()))"
    assert _fresh_python(code) == "[]\n"


def test_the_package_needs_only_the_standard_library():
    """Every module the package imports is in the standard library or the
    package itself, and pyproject.toml declares no runtime dependency."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    imported = set()
    for path in Path(tradeloop.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module)
    assert {name.split(".")[0] for name in imported} - {"tradeloop"} <= sys.stdlib_module_names
    pyproject = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8"))
    assert pyproject["project"].get("dependencies", []) == []


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
        ("fundamentals", '[{"filing_date": "WINDOW_START", "splits": [[{"a": 1}, null]]}]', EXIT_DATA),
        ("fundamentals", '[{"filing_date": "WINDOW_START", "splits": [["2024-06-10", [10]]]}]', EXIT_DATA),
        ("fundamentals", '[{"filing_date": "WINDOW_START", "dividends": [["2024-01-02", true]]}]', EXIT_DATA),
        ("fundamentals", '[{"filing_date": "WINDOW_START", "dividends": [["2024-01-02", NaN]]}]', EXIT_DATA),
        pytest.param(
            "fundamentals", '[{"filing_date": "WINDOW_START", "dividends": [["2024-01-02", 1%s]]}]' % ("0" * 400), EXIT_DATA,
            id="fundamentals-dividend-10**400",
        ),
        ("fundamentals", '[{"filing_date": "WINDOW_START", "splits": [[20240610, 0.5]], "dividends": [["2024-01-02", 0.24]]}]', EXIT_OK),
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


# Timeouts that a socket refuses (below 0, NaN, infinite) or takes as "never wait" (0).
TIMEOUTS = (0, -1.5, math.nan, math.inf)
# URLs that urllib would read a file from (file:), fetch over another protocol
# (ftp:), take for a relative path, or find no host in.
BAD_BASE_URLS = ("file:///tmp/x", "ftp://host/v1", "api.example.com/v1", "http:///v1", "http://a..b/v1")


def _http_provider(timeout_s, base_url="http://127.0.0.1:9"):
    return {"kind": "http", "base_url": base_url, "model_id": "m", "timeout_s": timeout_s}


def _file(tmp_path, name, text):
    """The path of a new file `name` in `tmp_path` holding `text`."""
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _tampered(command, name, edit):
    """`command` over a copy of the recorded run whose file `name` is
    replaced by `edit` of its text: a text, written as UTF-8, or bytes."""

    def argv(tmp_path, run):
        copy = tmp_path / "exp" / run.name
        shutil.copytree(run, copy)
        edited = edit((copy / name).read_text(encoding="utf-8"))
        (copy / name).write_bytes(edited if isinstance(edited, bytes) else edited.encode("utf-8"))
        return ["replay", "--run", str(copy)] if command == "replay" else ["report", "--runs", str(copy.parent)]

    return argv


def _without(name):
    """`replay` of a copy of the recorded run that lacks its file `name`."""

    def argv(tmp_path, run):
        copy = tmp_path / "exp" / run.name
        shutil.copytree(run, copy)
        (copy / name).unlink()
        return ["replay", "--run", str(copy)]

    return argv


def _edit_first_record(edit):
    def apply(text):
        first, rest = text.split("\n", 1)
        record = json.loads(first)
        edit(record)
        return json.dumps(record) + "\n" + rest

    return apply


def _with_a_bad_byte(number):
    """An edit of a text that puts the byte 0xff, which no UTF-8 text holds,
    at position 20 of its line `number` (from 1)."""

    def apply(text):
        lines = text.encode("utf-8").split(b"\n")
        lines[number - 1] = lines[number - 1][:20] + b"\xff" + lines[number - 1][20:]
        return b"\n".join(lines)

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


def _rehashed_lock(edit):
    """An edit of a lock that replaces its config by `edit` of it, hashed as a run hashes it."""

    def apply(text):
        lock = json.loads(text)
        lock["config"] = edit(lock["config"])
        lock["hash"] = hashlib.sha256(json.dumps(lock["config"], indent=2, sort_keys=True).encode("utf-8")).hexdigest()
        return json.dumps(lock)

    return apply


# A lock whose config sets `runs` to 0, which `run` refuses.
_refused_lock = _rehashed_lock(lambda config: {**config, "runs": 0})


# A bars file whose second data row has a field over the csv module's limit.
OVERSIZE_BARS = (
    serialize_bars(synthetic_daily(1, seed=4), "csv") + "2025-04-29," + "1" * 131073 + ",110,90,105,1000,,\n"
)


def _oversize_bars(tmp_path):
    return _file(tmp_path, "bars.csv", OVERSIZE_BARS)


# Row 110 of a bars file with prices or a volume past what float math takes,
# or a price that is not positive (every reference price the engine takes is
# a bar's): the cells edited, their new text, and the message that names the row.
BAD_ROWS = {
    "prices 1e200": (("open", "high", "close"), "1" + "0" * 200, "high too large: prices must be below 10**15 at row 110\n"),
    "400-digit prices": (("open", "high", "close"), "9" * 400, "high too large: prices must be below 10**15 at row 110\n"),
    "400-digit volume": (("volume",), "9" * 400, "volume too large: volumes must be below 2**53 at row 110\n"),
    "close 0": (("close",), "0", "non-positive close at row 110\n"),
}


def _with_bad_row(text, case):
    """The bars CSV `text` with row 110 edited as BAD_ROWS[case] says."""
    names, value, _ = BAD_ROWS[case]
    lines = text.split("\n")
    cells = lines[110].split(",")
    for name in names:
        cells[CSV_COLUMNS.index(name)] = value
    lines[110] = ",".join(cells)
    return "\n".join(lines)


def _run_bad_row(case):
    """`run` over the recorded workspace with its bars edited."""

    def argv(tmp_path, run):
        text = (run.parents[2] / "bars.csv").read_text(encoding="utf-8")
        return _run_with("paths.bars", _file(tmp_path, "bars.csv", _with_bad_row(text, case)))(tmp_path, run)

    return argv


def _backtest_bad_row(strategy, case):
    def argv(tmp_path, run):
        text = _with_bad_row(serialize_bars(synthetic_daily(120, seed=4), "csv"), case)
        return ["backtest", "--strategy", strategy, "--bars", _file(tmp_path, "bars.csv", text)]

    return argv


def _bars_with_no_bar(command):
    """`command` over a bars file of its header alone."""

    def argv(tmp_path, run):
        bars = _file(tmp_path, "bars.csv", ",".join(CSV_COLUMNS) + "\n")
        if command == "run":
            return _run_with("paths.bars", bars)(tmp_path, run)
        return [command, "--bars", bars, *(["--strategy", "buy_hold"] if command == "backtest" else [])]

    return argv


def _run_without_a_session_bar(tmp_path, run):
    """`run` over the recorded workspace whose calendar holds the date of
    every bar, with the last bar, a session's, taken out of the bars file."""
    lines = (run.parents[2] / "bars.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    calendar = _file(tmp_path, "calendar.txt", "".join(line.split(",")[0] + "\n" for line in lines[1:]))
    return _run_with("paths.bars", _file(tmp_path, "bars.csv", "".join(lines[:-1])), "paths.calendar", calendar)(tmp_path, run)


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


# One prompt of each role: an override of it that names an unknown value is
# refused before the first model call.
UNKNOWN_NAME_PROMPTS = {
    "market": "market_followup", "news": "news_initial", "fundamental": "fundamental_followup",
    "reflection": "reflection", "cta": "cta_initial",
}


def _prompt_naming_an_unknown_value(name):
    """A prompt_dir whose asset `name` is the shipped one plus `{{ bogus_name }}`."""

    def prompt_dir(tmp_path):
        (tmp_path / "prompts").mkdir(exist_ok=True)
        _file(tmp_path / "prompts", f"{name}.txt", asset_path(name).read_text(encoding="utf-8") + "\n{{ bogus_name }}\n")
        return str(tmp_path / "prompts")

    return prompt_dir


def _early_bars(start):
    """The path of a new file of 4 bars on the days from `start`: rows of
    `synthetic_daily` redated, as no `BarSeries` holds such dates."""

    def path(tmp_path):
        header, *rows = serialize_bars(synthetic_daily(4, seed=4), "csv").splitlines()
        days = [(start + timedelta(days=n)).isoformat() for n in range(4)]
        return _file(tmp_path, "bars.csv", "\n".join([header, *(day + row[10:] for day, row in zip(days, rows))]) + "\n")

    return path


def _run_early(start):
    """`run` over 4 bars from `start`, each a session, with a default provider
    that answers every call."""
    default = {"kind": "scripted", "strict": False, "default_response": "[]"}
    return _run_with(
        "paths.bars", _early_bars(start), "window_start", start.isoformat(), "window_end", "0009-01-01",
        "providers", {"default": default},
    )


def _bad_metrics(path, value):
    return EXIT_DATA, _tampered("report", "metrics.json", _set(path, value))


# The files of a recording that its replay reads.
RECORDED_FILES = ("config.lock", "gateway.jsonl", "engine.jsonl", "opro.jsonl", "metrics.json")

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
    **{
        f"run {name} naming an unknown value": (EXIT_CONFIG, _run_with("prompt_dir", _prompt_naming_an_unknown_value(name)))
        for name in UNKNOWN_NAME_PROMPTS.values()
    },
    "run paths.bars 5": (EXIT_CONFIG, _run_with("paths.bars", 5)),
    "run paths without bars": (EXIT_CONFIG, _run_with("paths.bars", None)),
    **{
        f"run http provider timeout_s {timeout!r}": (EXIT_CONFIG, _run_with("providers.market", _http_provider(timeout)))
        for timeout in TIMEOUTS
    },
    "run http provider timeout_s 1e10": (EXIT_CONFIG, _run_with("providers.market", _http_provider(1e10))),
    "run http provider without base_url": (EXIT_CONFIG, _run_with("providers.market", _http_provider(60, base_url=""))),
    **{
        f"run http provider base_url {url}": (EXIT_CONFIG, _run_with("providers.market", _http_provider(60, base_url=url)))
        for url in BAD_BASE_URLS
    },
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
    **{f"run bars with {case}": (EXIT_DATA, _run_bad_row(case)) for case in BAD_ROWS},
    "backtest bollinger bars with prices 1e200": (EXIT_DATA, _backtest_bad_row("bollinger", "prices 1e200")),
    "backtest buy_hold bars with 400-digit prices": (EXIT_DATA, _backtest_bad_row("buy_hold", "400-digit prices")),
    "backtest buy_hold bars with close 0": (EXIT_DATA, _backtest_bad_row("buy_hold", "close 0")),
    **{
        f"{command} bars with no bar": (EXIT_DATA, _bars_with_no_bar(command))
        for command in ("run", "backtest", "validate-data")
    },
    "run bars without a session's bar": (EXIT_DATA, _run_without_a_session_bar),
    "validate-data --actions oversize field": (
        EXIT_DATA,
        lambda tmp_path, run: [
            "validate-data", "--bars", _bars_file(tmp_path, 5),
            "--actions", _file(tmp_path, "actions.csv", "date,kind,ratio,cash\n2024-06-10,split," + "1" * 131073 + ",\n"),
        ],
    ),
    "run bars from 0001-01-01": (EXIT_DATA, _run_early(date(1, 1, 1))),
    "run bars from 0002-01-01": (EXIT_DATA, _run_early(date(2, 1, 1))),
    "backtest buy_hold bars from 0001-01-01": (
        EXIT_DATA, lambda tmp_path, run: ["backtest", "--strategy", "buy_hold", "--bars", _early_bars(date(1, 1, 1))(tmp_path)]
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
    "replay gateway line not UTF-8": (EXIT_PROVIDER, _tampered("replay", "gateway.jsonl", _with_a_bad_byte(3))),
    "replay gateway v1 record": (
        EXIT_PROVIDER,
        _tampered("replay", "gateway.jsonl", _edit_first_record(lambda record: record.pop("v"))),
    ),
    **{
        f"replay {name} edited": (EXIT_PROVIDER, _tampered("replay", name, lambda text: text.replace("0", "1", 1)))
        for name in ("engine.jsonl", "opro.jsonl", "metrics.json")
    },
    **{f"replay without {name}": (EXIT_PROVIDER, _without(name)) for name in RECORDED_FILES},
    "replay config.lock with a refused config": (EXIT_CONFIG, _tampered("replay", "config.lock", _refused_lock)),
    "replay config.lock whose config is not an object": (
        EXIT_CONFIG, _tampered("replay", "config.lock", _rehashed_lock(lambda config: [1]))
    ),
    "run without a market provider": (EXIT_CONFIG, _run_with("providers.market", None)),
    "run reflection without a reflection provider": (
        EXIT_CONFIG, _run_with("prompting_mode", "reflection", "providers.reflection", None)
    ),
    "run --runs 0": (EXIT_CONFIG, lambda tmp_path, run: [*_run_with("runs", 2)(tmp_path, run), "--runs", "0"]),
    "run window_start after window_end": (EXIT_CONFIG, _run_with("window_start", "2100-01-01")),
    "run without instrument": (EXIT_CONFIG, _run_with("instrument", None)),
    "run paths.news with an unpaired surrogate": (EXIT_CONFIG, _run_with("paths.news", "news\ud800.jsonl")),
    "validate-data --actions kind merger": (
        EXIT_DATA,
        lambda tmp_path, run: [
            "validate-data", "--bars", _bars_file(tmp_path, 5),
            "--actions", _file(tmp_path, "actions.csv", "date,kind,ratio,cash\n2024-06-10,split,2,\n2024-06-11,merger,,\n"),
        ],
    ),
    "replay config.lock inputs not a map of strings": (
        EXIT_PROVIDER, _tampered("replay", "config.lock", _set(("inputs", "bars"), 1))
    ),
    "replay record request_hash not a string": (
        EXIT_PROVIDER, _tampered("replay", "gateway.jsonl", _edit_first_record(lambda record: record.update(request_hash=1)))
    ),
    "replay record response text not a string": (
        EXIT_PROVIDER, _tampered("replay", "gateway.jsonl", _edit_first_record(lambda record: record["response"].update(text=None)))
    ),
    "replay record prior continuing no conversation": (
        EXIT_PROVIDER, _tampered("replay", "gateway.jsonl", _edit_first_record(lambda record: record.update(prior=2)))
    ),
    "report metrics.json not an object": (EXIT_DATA, _tampered("report", "metrics.json", lambda text: "[]")),
    "report --runs missing": (EXIT_DATA, lambda tmp_path, run: ["report", "--runs", str(tmp_path / "no-such-dir")]),
    # Refused before the runs are read: the CR row names no directory.
    "report --label with LF": (
        EXIT_CONFIG,
        lambda tmp_path, run: ["report", "--runs", str(run.parent), "--label", "two\nlines", "--csv", str(tmp_path / "out")],
    ),
    "report --label with CR": (
        EXIT_CONFIG, lambda tmp_path, run: ["report", "--runs", str(tmp_path / "no-such-dir"), "--label", "cr\rlf"],
    ),
}
# What a probe's error message must say, beyond its label.
PROBE_MESSAGES = {
    "run paths without bars": ("paths.bars is required\n",),
    "run prompt_dir missing": ("config error: prompt_dir ", "no-such-dir is not a directory\n"),
    "run prompt_dir with a misspelled asset": ("config error: prompt_dir file ", "market_intial.txt names no prompt asset\n"),
    **{
        f"run {name} naming an unknown value": (
            "config error: MISSING_KEY: bogus_name in ", f"{name}.txt: a {role} prompt is given no such value\n"
        )
        for role, name in UNKNOWN_NAME_PROMPTS.items()
    },
    **{
        f"run http provider timeout_s {timeout!r}": (f"timeout_s must be finite and > 0, got {timeout!r}\n",)
        for timeout in TIMEOUTS
    },
    "run http provider timeout_s 1e10": ("timeout_s must be at most 9223372036 s, got 10000000000.0\n",),
    "run http provider without base_url": ("an http provider needs base_url\n",),
    **{
        f"run http provider base_url {url}": (f"base_url must be an http:// or https:// URL with a host, got {url!r}\n",)
        for url in BAD_BASE_URLS
    },
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
    **{f"run bars with {case}": (message,) for case, (_, _, message) in BAD_ROWS.items()},
    "backtest bollinger bars with prices 1e200": (BAD_ROWS["prices 1e200"][2],),
    "backtest buy_hold bars with 400-digit prices": (BAD_ROWS["400-digit prices"][2],),
    "backtest buy_hold bars with close 0": (BAD_ROWS["close 0"][2],),
    **{f"{command} bars with no bar": ("bars.csv: empty input\n",) for command in ("run", "backtest", "validate-data")},
    "run bars without a session's bar": ("missing bars for sessions: ",),
    **{
        probe: (f"first bar dated {day}: bars must start on or after 0003-01-01, as a run looks back 2 years\n",)
        for probe, day in (
            ("run bars from 0001-01-01", "0001-01-01"),
            ("run bars from 0002-01-01", "0002-01-01"),
            ("backtest buy_hold bars from 0001-01-01", "0001-01-01"),
        )
    },
    "replay gateway v1 record": ("cannot replay ", "is gateway audit version 1; this build replays version 2"),
    "replay gateway line not UTF-8": (
        "provider error: cannot replay ",
        "gateway.jsonl: 'utf-8' codec can't decode byte 0xff in position 20: invalid start byte\n",
        ": line 3 in ",
    ),
    **{f"replay {name} edited": (f"replay artifacts differ: {name}\n",) for name in ("engine.jsonl", "opro.jsonl", "metrics.json")},
    "replay config.lock with a refused config": ("config error: bad config.lock file ", "config.lock: runs must be >= 1, got 0\n"),
    "replay config.lock whose config is not an object": (
        "config error: bad config.lock file ", "config.lock: a config must be an object, got [1]\n",
    ),
    "replay without config.lock": ("provider error: bad config.lock file ", "config.lock: FileNotFoundError(2, "),
    "replay without gateway.jsonl": (
        "provider error: cannot replay ", ": PROVIDER_ERROR: cannot open ", "gateway.jsonl: FileNotFoundError(2, "
    ),
    **{
        f"replay without {name}": ("provider error: cannot replay ", "No such file or directory: ", f"{name}'\n")
        for name in RECORDED_FILES[2:]
    },
    "run without a market provider": ("config error: no provider for market, which this run calls",),
    "run reflection without a reflection provider": ("config error: no provider for reflection, which this run calls",),
    "run --runs 0": ("config error: runs must be >= 1, got 0\n",),
    "run window_start after window_end": ("config error: window_start must precede window_end\n",),
    "run without instrument": ("config error: missing config keys: ['instrument']\n",),
    "run paths.news with an unpaired surrogate": ("config error: paths must be dict[", "got {", "'news': 'news\\ud800.jsonl'"),
    "validate-data --actions kind merger": ("data error: bad actions file ", "actions.csv: unknown action kind 'merger' at row 2\n"),
    "replay config.lock inputs not a map of strings": (
        "provider error: bad config.lock file ", "config.lock: ValueError(\"inputs must map files to SHA-256 digests, got {",
    ),
    "replay record request_hash not a string": (
        "provider error: cannot replay ", ": line 1 in ",
        "gateway.jsonl: TypeError(\"request_hash and response text must be strings, got (1, 'Scripted market analysis.')\")\n",
    ),
    "replay record response text not a string": (
        "provider error: cannot replay ", ": line 1 in ",
        "gateway.jsonl: TypeError(\"request_hash and response text must be strings, got ('", "', None)\")\n",
    ),
    "replay record prior continuing no conversation": (
        "provider error: cannot replay ", ": line 1 in ", "gateway.jsonl: prior 2 continues no conversation of role tag 'market'\n",
    ),
    "report metrics.json not an object": ("data error: bad metrics file ", "metrics.json: ValueError('expected an object, got list')\n"),
    "report --runs missing": ("data error: [Errno 2] No such file or directory: ", "no-such-dir'\n"),
    **{f"report --label with {name}": ("config error: --label must be one line\n",) for name in ("LF", "CR")},
}


# A file of 1.2 MB whose one byte that no UTF-8 text holds is at position 600000.
LARGE_NOT_UTF8 = b"x" * 600_000 + b"\xff" + b"x" * 600_000


def _large_file(name):
    def make(tmp_path):
        (tmp_path / name).write_bytes(LARGE_NOT_UTF8)
        return str(tmp_path / name)

    return make


@pytest.mark.parametrize(
    "code, argv, name",
    [
        (EXIT_DATA, _run_with("paths.news", _large_file("news.jsonl")), "news.jsonl"),
        (EXIT_DATA, _run_with("paths.bars", _large_file("bars.csv")), "bars.csv"),
        (EXIT_DATA, _tampered("report", "metrics.json", lambda text: LARGE_NOT_UTF8), "exp/run-1/metrics.json"),
        (EXIT_PROVIDER, _tampered("replay", "config.lock", lambda text: LARGE_NOT_UTF8), "exp/run-1/config.lock"),
    ],
    ids=["run news", "run bars", "report metrics", "replay lock"],
)
def test_a_large_file_that_is_not_utf8_is_named_briefly(code, argv, name, tmp_path, recorded_run, capsys):
    """A decode error names the file and the byte's position and reason in
    under 1 KB; the repr of the error would hold every byte decoded."""
    assert main(argv(tmp_path, recorded_run)) == code
    err = capsys.readouterr().err
    assert len(err.encode()) < 1024 and str(tmp_path / name) in err
    assert err.endswith(": 'utf-8' codec can't decode byte 0xff in position 600000: invalid start byte\n")


# A value from outside the program that an error message would quote whole.
BIG = "x" * 100_000


def _run_over_text(key, name, text):
    """`run` of the recorded workspace with its input `key` read from a new file `name` holding `text`."""
    return _run_with(f"paths.{key}", lambda tmp_path: _file(tmp_path, name, text))


def _fundamentals(**fields):
    """`run` over a fundamentals file of one filing with `fields`."""
    return _run_over_text("fundamentals", "fundamentals.json", json.dumps([{"filing_date": "2025-01-02", **fields}]))


def _validate_bars(cell):
    """`validate-data` of 5 bars whose second row has its `cell` set to BIG."""

    def argv(tmp_path, run):
        lines = serialize_bars(synthetic_daily(5, seed=4), "csv").split("\n")
        cells = lines[2].split(",")
        cells[CSV_COLUMNS.index(cell)] = BIG
        lines[2] = ",".join(cells)
        return ["validate-data", "--bars", _file(tmp_path, "bars.csv", "\n".join(lines))]

    return argv


def _http_reply_content(content):
    """`run` whose market analyst is an http provider at `server` that replies with `content`."""

    def argv(tmp_path, run, server):
        body = {"choices": [{"message": {"role": "assistant", "content": content}}]}
        server.reset(faults={1: json.dumps(body).encode()})
        return _run_with("providers.market", _http_provider(10, base_url=server.base_url))(tmp_path, run)

    return argv


def _recorded_first_record(edit):
    """`replay` of a copy of the recorded run whose first gateway record is `edit`ed."""
    return _tampered("replay", "gateway.jsonl", _edit_first_record(edit))


def _pair_with_a_big_response(record):
    record.update(request_hash=1)
    record["response"]["text"] = BIG


def _big_role_tag(record):
    record.update(prior=2)
    record["tags"]["role"] = BIG


# Each kind of input an error message quotes: the exit code, the command,
# and what the message must name. Every value quoted is 100,000 characters
# or more, but a `--window`, an int that argparse reads only up to 4300
# digits. The command of an "http" row also takes the loopback chat server.
LARGE_VALUES = {
    "fundamentals splits": (
        EXIT_DATA, _fundamentals(splits=[["2024-06-10", "1:10"]] * 5000 + [[None]]), ("fundamentals.json", "splits must be"),
    ),
    "fundamentals splits item": (EXIT_DATA, _fundamentals(splits=[["2024-06-10", [BIG]]]), ("fundamentals.json", "splits items")),
    "fundamentals period_label": (EXIT_DATA, _fundamentals(period_label=[BIG]), ("fundamentals.json", "period_label must be")),
    "fundamentals revenue": (EXIT_DATA, _fundamentals(revenue=[BIG]), ("fundamentals.json", "revenue must be")),
    "fundamentals filing_date": (EXIT_DATA, _fundamentals(filing_date=BIG), ("fundamentals.json", "filing_date must be")),
    "calendar line": (EXIT_DATA, _run_over_text("calendar", "calendar.txt", BIG + "\n"), ("calendar.txt", "calendar line")),
    "config script entry": (
        EXIT_CONFIG, _run_with("providers.cta.script", [{"response": BIG, "times": 0}]), ("bad script entry 0",),
    ),
    "config experiment": (EXIT_CONFIG, _run_with("experiment", [BIG]), ("experiment must be",)),
    "config initial_cash": (EXIT_CONFIG, _run_with("initial_cash", "9" * 100_000), ("initial_cash must be",)),
    "config unknown key": (EXIT_CONFIG, _run_with(BIG, 1), ("unknown config keys",)),
    "config window_start": (EXIT_CONFIG, _run_with("window_start", BIG), ("window_start must be an ISO date",)),
    "config base_url": (
        EXIT_CONFIG, _run_with("providers.market", _http_provider(60, base_url="ftp://" + BIG)), ("base_url must be",),
    ),
    "config not an object": (
        EXIT_CONFIG,
        lambda tmp_path, run: ["run", "--config", _file(tmp_path, "config.json", json.dumps([BIG]))],
        ("config.json", "a config must be an object"),
    ),
    "backtest --cash": (EXIT_CONFIG, _backtest("--strategy", "buy_hold", "--cash", "9" * 100_000), ("--cash must be",)),
    "backtest --window": (EXIT_CONFIG, _backtest("--strategy", "sma", "--window", "-" + "9" * 4300), ("sma_n must be",)),
    "report metrics": (*_bad_metrics(("metrics",), [BIG]), ("metrics.json", "metrics must be an object")),
    "report roi_pct": (*_bad_metrics(("metrics", "roi_pct"), BIG), ("metrics.json", "metrics.roi_pct must be")),
    "report equity date": (*_bad_metrics(("equity", "dates", 0), BIG), ("metrics.json", "equity dates must be")),
    "replay lock config": (
        EXIT_CONFIG, _tampered("replay", "config.lock", _rehashed_lock(lambda config: [BIG])), ("config.lock", "must be an object"),
    ),
    "replay lock inputs": (
        EXIT_PROVIDER, _tampered("replay", "config.lock", _set(("inputs", "bars"), [BIG])), ("config.lock", "inputs must map"),
    ),
    **{
        f"bars {cell}": (EXIT_DATA, _validate_bars(cell), ("bars.csv", f"bad {cell}"))
        for cell in ("date", "open", "volume")
    },
    "actions kind": (
        EXIT_DATA,
        lambda tmp_path, run: [
            "validate-data", "--bars", _bars_file(tmp_path, 5),
            "--actions", _file(tmp_path, "actions.csv", f"date,kind,ratio,cash\n2024-06-10,{BIG},,\n"),
        ],
        ("actions.csv", "unknown action kind"),
    ),
    "replay record response text": (
        EXIT_PROVIDER, _recorded_first_record(_pair_with_a_big_response), ("gateway.jsonl", "request_hash and response text"),
    ),
    "replay record role tag": (EXIT_PROVIDER, _recorded_first_record(_big_role_tag), ("gateway.jsonl", "role tag")),
    "replay record version": (
        EXIT_PROVIDER, _recorded_first_record(lambda record: record.update(v=BIG)), ("gateway.jsonl", "gateway audit version"),
    ),
    "http reply content": (EXIT_PROVIDER, _http_reply_content([BIG]), ("content must be a string",)),
}


@pytest.mark.parametrize("kind", LARGE_VALUES)
def test_a_large_value_is_quoted_briefly(kind, tmp_path, recorded_run, chat_server, capsys):
    """An error that quotes a value of 100,000 characters from outside the
    program ends the command with README's exit code and a message under
    1 KB that names the file or field."""
    code, argv, named = LARGE_VALUES[kind]
    args = argv(tmp_path, recorded_run, chat_server) if kind.startswith("http ") else argv(tmp_path, recorded_run)
    assert main(args) == code
    err = capsys.readouterr().err
    assert len(err.encode()) < 1024 and "Traceback" not in err
    assert all(name in err for name in named), err


# Each value of 100,000 characters that argparse refuses before a command
# runs: the arguments, and the start of the error line, which names the flag.
REFUSED_FLAGS = {
    "backtest --window": (["backtest", "--strategy", "sma", "--bars", "b.csv", "--window", "9" * 100_000], "argument --window:"),
    "backtest --long-window": (
        ["backtest", "--strategy", "slma", "--bars", "b.csv", "--long-window", BIG], "argument --long-window:",
    ),
    "backtest --k": (["backtest", "--strategy", "bollinger", "--bars", "b.csv", "--k", BIG], "argument --k:"),
    "backtest --strategy": (["backtest", "--strategy", BIG, "--bars", "b.csv"], "argument --strategy: invalid choice"),
    "run --runs": (["run", "--config", "c.json", "--runs", "9" * 100_000], "argument --runs:"),
    "unrecognized arguments": (["validate-data", "--bars", "b.csv", BIG], "unrecognized arguments:"),
}


@pytest.mark.parametrize("kind", REFUSED_FLAGS)
def test_a_value_argparse_refuses_is_quoted_briefly(kind, capsys):
    """argparse's refusal exits 2 with its usage and an error line under 1 KB
    in all, which names the flag; argparse itself would quote the value whole."""
    argv, named = REFUSED_FLAGS[kind]
    with pytest.raises(SystemExit) as refused:
        main(argv)
    assert refused.value.code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert len(err.encode()) < 1024 and f"error: {named}" in err, err


def _run_over(key):
    """`run` of the recorded workspace with its input `key` read from `path`."""
    return lambda tmp_path, run, path: _run_with(f"paths.{key}", str(path))(tmp_path, run)


def _in_prompt_dir(mode="baseline"):
    """`run` in `mode` with the file at `path` in its `prompt_dir`."""
    return lambda tmp_path, run, path: _run_with("prompting_mode", mode, "prompt_dir", str(path.parent))(tmp_path, run)


def _bars_command(command, flag):
    """`command` (`backtest` of buy_hold, or `validate-data`) with its `flag`
    file at `path`, and 120 bars if that is the actions file."""

    def argv(tmp_path, run, path):
        files = ["--bars", str(path)] if flag == "--bars" else ["--bars", _bars_file(tmp_path, 120), flag, str(path)]
        return [command, *(["--strategy", "buy_hold"] if command == "backtest" else []), *files]

    return argv


def _in_recording(command):
    """`command` over a copy of the recorded run without the file named as
    `path`, which the test then writes as the fault."""

    def argv(tmp_path, run, path):
        shutil.copytree(run, tmp_path / "exp" / run.name, ignore=lambda _, names: [path.name] if path.name in names else [])
        return ["replay", "--run", str(path.parent)] if command == "replay" else ["report", "--runs", str(path.parent.parent)]

    return argv


# A bars and an actions file that each hold a malformed row.
BAD_CSV = {"bars": "date,open\n2025-01-02,1\n", "actions": "date,kind,ratio,cash\nnot a date,split,2,\n"}

# Each file a command reads: its exit code when it is unreadable, where it
# goes, the command that reads it there, and a text it refuses.
READ_FILES = {
    "run config": (EXIT_CONFIG, "config.json", lambda tmp_path, run, path: ["run", "--config", str(path)], "{not json"),
    "run config not an object": (EXIT_CONFIG, "config.json", lambda tmp_path, run, path: ["run", "--config", str(path)], "[1, 2]"),
    **{f"run {key}": (EXIT_DATA, f"in/{key}.csv", _run_over(key), BAD_CSV[key]) for key in BAD_CSV},
    "run calendar": (EXIT_DATA, "in/calendar.txt", _run_over("calendar"), "not a date\n"),
    "run news": (EXIT_DATA, "in/news.jsonl", _run_over("news"), "{not json\n"),
    "run fundamentals": (EXIT_DATA, "in/fundamentals.json", _run_over("fundamentals"), "{not json"),
    **{
        f"{command} {key}": (EXIT_DATA, f"in/{key}.csv", _bars_command(command, f"--{key}"), BAD_CSV[key])
        for command in ("backtest", "validate-data")
        for key in BAD_CSV
    },
    "run prompt_dir asset": (EXIT_CONFIG, "prompts/market_initial.txt", _in_prompt_dir(), "{{ unclosed"),
    "run optimizer asset": (EXIT_CONFIG, "prompts/optimizer.txt", _in_prompt_dir("adaptive_opro"), "Improve the trading prompt.\n"),
    "report metrics.json": (EXIT_DATA, "exp/run-1/metrics.json", _in_recording("report"), "{not json"),
    "replay config.lock": (EXIT_PROVIDER, "exp/run-1/config.lock", _in_recording("replay"), "{not json"),
}
FILE_FAULTS = ("missing", "a directory", "a byte 0xff", "malformed")
# A missing prompt asset is no fault (the shipped one serves), and `report`
# reads only the run directories that hold a metrics.json. The second config
# row differs from the first only in its malformed text.
READ_FAULTS = [
    (file, fault)
    for file in READ_FILES
    for fault in FILE_FAULTS
    if not (fault == "missing" and file in ("run prompt_dir asset", "run optimizer asset", "report metrics.json"))
    and not (fault != "malformed" and file == "run config not an object")
]


@pytest.mark.parametrize("file, fault", READ_FAULTS, ids=[f"{file}, {fault}" for file, fault in READ_FAULTS])
def test_a_file_a_command_cannot_read_is_named_with_its_exit_code(file, fault, tmp_path, recorded_run, capsys):
    """Each file a command reads, missing, a directory, holding a byte that
    no UTF-8 text holds, or malformed, ends the command with README's exit
    code and a message under 1 KB that names the file, with nothing written."""
    code, name, argv, malformed = READ_FILES[file]
    path = tmp_path / name
    args = argv(tmp_path, recorded_run, path)  # a recording is copied without the file
    path.parent.mkdir(parents=True, exist_ok=True)
    if fault == "a directory":
        path.mkdir()
    elif fault == "a byte 0xff":
        path.write_bytes(b"date\n\xff\n")
    elif fault == "malformed":
        path.write_text(malformed, encoding="utf-8")
    assert main(args) == code
    err = capsys.readouterr().err
    assert str(path) in err and len(err.encode()) < 1024 and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_a_role_the_run_never_calls_needs_no_provider(tmp_path, recorded_run):
    """A baseline run calls neither the reflection nor the optimizer, and no
    run calls an ablated analyst."""
    argv = _run_with(
        "providers.reflection", None, "providers.optimizer", None, "providers.market", None, "ablations", {"no_market": True}
    )(tmp_path, recorded_run)
    assert main(argv) == EXIT_OK


@pytest.mark.parametrize("key", ["clé€", "sk-secret\n"])
def test_an_api_key_no_http_header_carries_exits_2_unprinted(key, tmp_path, recorded_run, capsys, monkeypatch):
    """A key that is not latin-1, or that holds LF, is a config error that
    names its variable, and nothing is written or sent."""
    monkeypatch.setenv("LLM_API_KEY", key)
    argv = _run_with("providers.market", _http_provider(60))(tmp_path, recorded_run)
    assert main(argv) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert err.startswith("config error: the API key in LLM_API_KEY cannot go in an HTTP header")
    assert key.strip() not in out + err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_a_live_run_over_http_replays_with_the_server_stopped(tmp_path, without_proxy, monkeypatch, capsys):
    """`tradeloop run` with every role's provider of kind `http`, pointed at
    a loopback chat server, exits 0; the API key reaches the server's
    Authorization header but no file of the experiment and no output; and
    `tradeloop replay` reproduces the run once the server is stopped."""
    key = "sk-loopback-0123456789"
    monkeypatch.setenv("LLM_API_KEY", key)
    build_workspace(tmp_path, mode="adaptive_opro_with_reflection")
    config = json.loads((tmp_path / "config.json").read_text(encoding="utf-8"))
    # The request body carries no role tag, so each role is told apart by its
    # model_id; a role replies as its scripted provider would, but the trading
    # agent's orders go by the session named in the request's last message.
    scripts = {role: provider["script"] for role, provider in config["providers"].items()}
    orders = {f"**Current:** {config['window_start']}": scripts["cta"][0]["response"], scripts["cta"][1]["match"]: scripts["cta"][1]["response"]}

    def reply(payload):
        last = payload["messages"][-1]["content"]
        mine = (text for current, text in orders.items() if payload["model"] == "cta" and current in last)
        return next(mine, scripts[payload["model"]][-1]["response"])

    experiment = tmp_path / "runs" / "exp-adaptive_opro_with_reflection"
    with ChatServer() as server:  # its own server, stopped before the replay
        server.reset(reply=reply)
        config["providers"] = {
            role: {"kind": "http", "base_url": server.base_url, "model_id": role, "timeout_s": 10} for role in PROVIDER_ROLES
        }
        (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
        assert main(["run", "--config", str(tmp_path / "config.json")]) == EXIT_OK
    assert {payload["model"] for _, _, payload in server.seen} == set(PROVIDER_ROLES)
    assert {headers["Authorization"] for _, headers, _ in server.seen} == {f"Bearer {key}"}
    assert '"type":"FILL"' in (experiment / "run-1" / "engine.jsonl").read_text(encoding="utf-8")
    assert not [path for path in experiment.rglob("*") if path.is_file() and key.encode() in path.read_bytes()]
    assert main(["replay", "--run", str(experiment / "run-1")]) == EXIT_OK
    out, err = capsys.readouterr()
    assert "replay OK" in out and key not in out + err


def test_report_writes_its_csv(tmp_path, recorded_run):
    path = tmp_path / "report.csv"
    assert main(["report", "--runs", str(recorded_run.parent), "--label", "baseline", "--csv", str(path)]) == EXIT_OK
    expected = cli.aggregate_and_report([read_run(recorded_run)], label="baseline")["csv"]
    assert "\nbaseline," in expected and path.read_text(encoding="utf-8") == expected


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


@pytest.mark.xfail(
    raises=AssertionError,
    strict=True,
    reason="engine defect (ROADMAP item 1): a short squeezed by a gap is force-covered into negative cash",
)
def test_a_squeezed_short_ends_its_run(tmp_path):
    """A short at 100, then a gap to 250: the agent's cover is cancelled as
    GAP_REJECT, and the forced cover at the window's end costs more cash
    than the run holds. The run should still exit 0 and write its metrics."""
    days = [day for day in (date(2024, 1, 1) + timedelta(days=n) for n in range(19)) if day.weekday() < 5]
    bars = "\n".join(
        f"{day.isoformat()},{price},{price},{price},{price},1000,,"
        for day, price in zip(days, [100] * 12 + [250] * 3)
    )
    _file(tmp_path, "bars.csv", ",".join(CSV_COLUMNS) + "\n" + bars + "\n")
    script = [{"response": order_payload(action, 1000), "times": 1} for action in ("SHORT", "SHORT_COVER")]
    config = {
        "experiment": "squeeze", "instrument": "SYNTH", "prompting_mode": "baseline",
        "window_start": days[-5].isoformat(), "window_end": days[-1].isoformat(),
        "ablations": {"no_market": True, "no_news": True, "no_fundamental": True},
        "providers": {"cta": {"kind": "scripted", "script": script, "strict": False, "default_response": "[]"}},
        "paths": {"bars": str(tmp_path / "bars.csv"), "out_dir": str(tmp_path / "runs")},
    }
    _file(tmp_path, "config.json", json.dumps(config))
    # Only the engine's own AssertionError may match `raises=`: any other way
    # this run fails, a config that stops validating included, fails the test.
    code = main(["run", "--config", str(tmp_path / "config.json"), "--runs", "1"])
    if code != EXIT_OK:
        pytest.fail(f"tradeloop run exited {code}, not {EXIT_OK}")
    if not read_run(tmp_path / "runs" / "squeeze" / "run-1").equity:
        pytest.fail("the run's metrics.json holds no equity curve")


def test_ctrl_c_ends_a_run_with_one_line(tmp_path, monkeypatch, capsys):
    """Ctrl-C during the fifth model call exits 130 with one line and no
    traceback. The run leaves its config.lock and its three logs, closed on
    whole lines, and no metrics.json."""
    build_workspace(tmp_path, mode="adaptive_opro")
    calls, complete = count(1), ScriptedProvider.complete
    logs, opened = [], AuditLog.__init__

    def interrupted(self, request):
        if next(calls) == 5:
            raise KeyboardInterrupt
        return complete(self, request)

    def kept(self, sink=None):
        opened(self, sink)
        logs.append(self)

    monkeypatch.setattr(ScriptedProvider, "complete", interrupted)
    monkeypatch.setattr(AuditLog, "__init__", kept)
    try:  # one that escapes would end the test session
        code = main(["run", "--config", str(tmp_path / "config.json")])
    except KeyboardInterrupt:
        pytest.fail("KeyboardInterrupt escaped cli.main")
    assert code == EXIT_INTERRUPTED
    assert capsys.readouterr().err == "interrupted\n"
    run_dir = tmp_path / "runs" / "exp-adaptive_opro" / "run-1"
    assert (run_dir / "config.lock").exists() and not (run_dir / "metrics.json").exists()
    files = [log for log in logs if log.path is not None]
    assert sorted(log.path.name for log in files) == ["engine.jsonl", "gateway.jsonl", "opro.jsonl"]
    for log in files:
        assert log._fh.closed
        assert log.path.read_text(encoding="utf-8").endswith("\n"), log.path.name


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full, a device that refuses every write")
@pytest.mark.parametrize("name", ["engine.jsonl", "gateway.jsonl", "opro.jsonl"])
def test_a_log_that_cannot_be_written_is_named(name, tmp_path, capsys):
    """A run whose log is a full device exits 3 with one line naming that log."""
    build_workspace(tmp_path, mode="adaptive_opro")
    log = tmp_path / "runs" / "exp-adaptive_opro" / "run-1" / name
    log.parent.mkdir(parents=True)
    log.symlink_to("/dev/full")
    assert main(["run", "--config", str(tmp_path / "config.json")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.endswith(f"{str(log)!r}\n") and err.count("\n") == 1, err
