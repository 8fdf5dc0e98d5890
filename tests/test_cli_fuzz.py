"""Seeded fuzzing of `cli.main`: whatever the config, input files or flags,
it returns a documented exit code and raises nothing else; whatever a model
replies, a run completes and replays.

Generated strings hold no "/" or ".", so no generated path leaves the
temporary directory each example runs in. Flags hold no NUL or unpaired
surrogate, which a shell cannot pass.
"""

from __future__ import annotations

import contextlib
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tradeloop.bars import ACTIONS_CSV_COLUMNS, CSV_COLUMNS, serialize_bars
from tradeloop.cli import main
from tradeloop.harness import PROVIDER_ROLES, ExperimentConfig, ProviderConfig
from tradeloop.metrics import METRIC_FIELDS
from tradeloop.templates import load_template

from conftest import synthetic_daily
from test_cli import NESTED
from test_harness import optimizer_payload

EXIT_CODES = {0, 2, 3, 4}
FUZZ = settings(max_examples=40)

text = st.text(st.characters(blacklist_characters="/.", blacklist_categories=()), max_size=8)
flag_text = st.text(st.characters(blacklist_characters="/.\0"), max_size=8)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | text
    | st.sampled_from(["", "\0", "\ud800", "NaN", "-1", 10**400, -(10**308)]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(text, inner, max_size=3),
    max_leaves=6,
)
config_keys = st.sampled_from(
    [(name,) for name in ExperimentConfig.__dataclass_fields__]
    + [("paths", name) for name in ("bars", "actions", "calendar", "news", "fundamentals", "out_dir")]
    + [("providers", "default")]
    + [("providers", "default", name) for name in ProviderConfig.__dataclass_fields__]
    + [("ablations", "no_news")]
)


SERIES = synthetic_daily(30, seed=5)
SESSIONS = [d.isoformat() for d in SERIES.dates()[-3:]]
# A valid start of each optional input of a run; the news item and the
# filing fall on the second session, so the run renders them.
NEWS_ITEM = {"ts": f"{SESSIONS[1]}T09:00:00+00:00", "title": "t", "url": "u", "summary": "s", "keywords": ["k"]}
FILING = {"filing_date": SESSIONS[1], "period_label": "Q1", "revenue": 1.0e9, "cogs": 4.0e8, "splits": [], "dividends": []}
RUN_INPUT_HEADERS = {
    "actions": ",".join(ACTIONS_CSV_COLUMNS) + "\n",
    "news": json.dumps(NEWS_ITEM) + "\n",
    "fundamentals": "[" + json.dumps(FILING) + ",",
    "calendar": "\n".join(SESSIONS) + "\n",
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory) -> Path:
    """A three-session baseline config on 30 bars, its bars file and a run
    recorded from it."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "bars.csv").write_text(serialize_bars(SERIES, "csv"), encoding="utf-8")
    dates = SERIES.dates()
    config = {
        "experiment": "exp",
        "instrument": "SYNTH",
        "window_start": dates[-3].isoformat(),
        "window_end": dates[-1].isoformat(),
        "runs": 1,
        "ablations": {},
        "providers": {"default": {"kind": "scripted", "strict": False, "default_response": "[]"}},
        "paths": {"bars": str(root / "bars.csv"), "out_dir": str(root / "runs")},
    }
    (root / "config.json").write_text(json.dumps(config), encoding="utf-8")
    assert main(["run", "--config", str(root / "config.json")]) == 0
    return root


def _exit_code(argv: list[str]) -> int:
    """`main(argv)`'s exit code, run in a fresh temporary directory; an
    argparse exit counts."""
    with tempfile.TemporaryDirectory() as cwd, contextlib.chdir(cwd):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


@FUZZ
@given(key=config_keys, value=json_values)
def test_config_value(workspace, key, value):
    config = json.loads((workspace / "config.json").read_text(encoding="utf-8"))
    config["paths"]["out_dir"] = "out"
    *parents, last = key
    target = config
    for name in parents:
        target = target[name]
    target[last] = value
    with tempfile.TemporaryDirectory() as cwd, contextlib.chdir(cwd):
        Path("config.json").write_text(json.dumps(config), encoding="utf-8")
        assert main(["run", "--config", "config.json"]) in EXIT_CODES


# A field over the csv module's size limit.
OVERSIZE = b"1" * 131073


@FUZZ
@example(header=",".join(CSV_COLUMNS) + "\n", body=OVERSIZE, suffix="csv", flag="--bars", command=["validate-data"])
@example(header=",".join(ACTIONS_CSV_COLUMNS) + "\n", body=OVERSIZE, suffix="csv", flag="--actions", command=["validate-data"])
@given(
    header=st.sampled_from(["", ",".join(CSV_COLUMNS) + "\n", ",".join(ACTIONS_CSV_COLUMNS) + "\n"]),
    body=st.binary(max_size=300),
    suffix=st.sampled_from(["csv", "jsonl"]),
    flag=st.sampled_from(["--bars", "--actions"]),
    command=st.sampled_from([["validate-data"], ["backtest", "--strategy", "buy_hold"]]),
)
def test_input_file_bytes(workspace, tmp_path_factory, header, body, suffix, flag, command):
    """Random bytes, after an optional header, as the bars or the actions file."""
    path = tmp_path_factory.mktemp("input") / f"input.{suffix}"
    path.write_bytes(header.encode() + body)
    files = {"--bars": str(workspace / "bars.csv"), flag: str(path)}
    assert _exit_code([*command, *(word for pair in files.items() for word in pair)]) in EXIT_CODES


def _run_with_input(workspace: Path, key: str, content: bytes) -> int:
    config = json.loads((workspace / "config.json").read_text(encoding="utf-8"))
    config["paths"].update({key: "input", "out_dir": "out"})
    with tempfile.TemporaryDirectory() as cwd, contextlib.chdir(cwd):
        Path("input").write_bytes(content)
        Path("config.json").write_text(json.dumps(config), encoding="utf-8")
        return main(["run", "--config", "config.json"])


@FUZZ
@example(key="actions", header=True, body=OVERSIZE)
@given(key=st.sampled_from(sorted(RUN_INPUT_HEADERS)), header=st.booleans(), body=st.binary(max_size=300))
def test_run_input_file_bytes(workspace, key, header, body):
    """Random bytes, after an optional valid start, as the actions, news,
    fundamentals or calendar file of a run."""
    start = RUN_INPUT_HEADERS[key] if header else ""
    assert _run_with_input(workspace, key, start.encode() + body) in EXIT_CODES


@FUZZ
@given(
    record=st.sampled_from([("news", name) for name in NEWS_ITEM] + [("fundamentals", name) for name in FILING]),
    value=json_values,
)
def test_run_input_field(workspace, record, value):
    """A random JSON value in one field of the news item or the filing of a
    run; the other fields stay valid."""
    key, name = record
    if key == "news":
        content = json.dumps({**NEWS_ITEM, name: value}) + "\n"
    else:
        content = json.dumps([{**FILING, name: value}])
    assert _run_with_input(workspace, key, content.encode()) in EXIT_CODES


def order_reply(price: str, quantity: str) -> str:
    return f'[{{"action": "BUY", "orderType": "LIMIT", "price": {price}, "quantity": {quantity}, "explanation": ""}}]'


CTA_INITIAL = load_template("cta_initial").body
HOSTILE_REPLIES = [
    NESTED,
    "```json\n" + NESTED + "\n```",
    optimizer_payload(CTA_INITIAL + "\nEdge \ud800 case."),
    optimizer_payload(CTA_INITIAL + "\n{ braces } stay literal"),
    optimizer_payload(CTA_INITIAL + "\n{{ x }}"),
    "{ braces } {{ x }} {% if y %}",
    "\0",
    "\ud800",
    order_reply("NaN", "1"),
    order_reply("1e999", "1"),
    order_reply("100", "1" + "0" * 400),
]


@FUZZ
@example(role="cta", reply=NESTED)
@example(role="optimizer", reply="```json\n" + NESTED + "\n```")
@example(role="optimizer", reply=HOSTILE_REPLIES[2])
@example(role="optimizer", reply=optimizer_payload(CTA_INITIAL).removesuffix("```"))  # the fence never closes
@example(role="cta", reply="```\u2028\n" + order_reply("100", "1") + "\n```")  # a plain fence, U+2028 before its newline
@given(
    role=st.sampled_from(PROVIDER_ROLES),
    reply=st.sampled_from(HOSTILE_REPLIES) | st.text() | st.text().map(optimizer_payload),
)
def test_model_reply(workspace, role, reply):
    """One role answers every call with `reply` in a run where every role
    speaks: the run completes and replays."""
    config = json.loads((workspace / "config.json").read_text(encoding="utf-8"))
    config.update(prompting_mode="adaptive_opro_with_reflection", opro_k=2, reflection_interval=2)
    config["paths"].update(news="news.jsonl", fundamentals="fundamentals.json", out_dir="out")
    config["providers"][role] = {"kind": "scripted", "strict": False, "default_response": reply}
    with tempfile.TemporaryDirectory() as cwd, contextlib.chdir(cwd):
        Path("news.jsonl").write_text(json.dumps(NEWS_ITEM) + "\n", encoding="utf-8")
        Path("fundamentals.json").write_text(json.dumps([FILING]), encoding="utf-8")
        Path("config.json").write_text(json.dumps(config), encoding="utf-8")
        assert main(["run", "--config", "config.json"]) == 0
        assert Path("out/exp/run-1/metrics.json").exists()
        assert main(["replay", "--run", "out/exp/run-1"]) == 0


@FUZZ
@example(key=("metrics", "num_trades"), value=10**400)
@given(
    key=st.sampled_from([("metrics", name) for name in METRIC_FIELDS] + [("equity", "dates"), ("equity", "values")]),
    value=json_values,
)
def test_report_metrics_field(workspace, key, value):
    """A random JSON value in one field of a recorded run's metrics.json."""
    payload = json.loads((workspace / "runs" / "exp" / "run-1" / "metrics.json").read_text(encoding="utf-8"))
    section, name = key
    payload[section][name] = value
    with tempfile.TemporaryDirectory() as runs:
        (Path(runs) / "run-1").mkdir()
        (Path(runs) / "run-1" / "metrics.json").write_text(json.dumps(payload), encoding="utf-8")
        assert _exit_code(["report", "--runs", runs]) in {0, 3}


WORDS = [
    "run", "backtest", "report", "replay", "validate-data", "-h",
    "--config", "--runs", "--mode", "--instrument", "--out-dir",
    "--strategy", "--bars", "--actions", "--window", "--long-window", "--k", "--cash", "--out",
    "--runs", "--label", "--csv", "--run",
    "buy_hold", "sma", "slma", "macd", "bollinger", "reflection",
    "-3", "0", "1", "2", "30", "1e400", "1e-9", "nan", "inf", "-inf", "abc",
]


@FUZZ
@given(data=st.data())
def test_flags(workspace, data):
    paths = [str(workspace / name) for name in ("config.json", "bars.csv", "runs", "runs/exp", "runs/exp/run-1")]
    argv = data.draw(st.lists(st.sampled_from(WORDS + paths) | flag_text, max_size=8))
    assert _exit_code(argv) in EXIT_CODES
