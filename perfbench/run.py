"""Offline benchmark of the tradeloop session loop.

    python3 perfbench/run.py --workload deep_history --seed 1 --seconds 25 --trace 0

Run from the repository root. Inputs are generated from `--seed` (scripted
providers, no network). The workload is set up several times and then run
for `--seconds` seconds, one iteration after another, each in a fresh output
directory that is checked and deleted. The last line of standard output is
one JSON object: `correct`, `attempted`, `failed` and `metrics`. With
`--trace 0` the metrics are the end-to-end ones, measured with no hook but
the session clock and given in seconds at a fixed reference speed of the
machine (see `spans.SessionClock`); with `--trace 1` untraced and traced
iterations alternate, and the metrics are per layer, in raw seconds, plus
the tracing overhead.
BENCHMARK.json at the repository root lists the workloads and metrics;
perfbench/README.md says what each measures and which layer it belongs to.
"""

from __future__ import annotations

from time import perf_counter

STARTED = perf_counter()  # set-up counts from here: imports, inputs, recording

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / ".work"
SETUP_REPEATS = 5
KEPT_SESSIONS = 400_000  # session times kept across iterations; bounds the memory they take
UNITS = {
    m["name"]: m["unit"]
    for spec in [json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))]
    for group in ("end_to_end", "per_layer")
    for m in spec[group]
}


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, as statistics.quantiles(n=100) gives it."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def position_medians(iterations: list) -> list[float]:
    """The median over iterations of the j-th session's time, for each j.
    Iterations replay identical inputs, so the j-th session is the same
    work in each."""
    n = max(map(len, iterations), default=0)
    return [statistics.median([a[j] for a in iterations if len(a) > j]) for j in range(n)]


def run(name: str, seed: int, seconds: float, trace: bool, work: Path = WORK, scale: float = 1.0) -> dict:
    """Set up and measure one workload; returns the result object."""
    import checks
    import spans
    import workloads

    imports_s = (perf_counter() - STARTED) * spans.REFERENCE_S / spans.probe_s()
    root = work / f"{name}-{seed}-{os.getpid()}"
    workload = workloads.make(name, scale)
    workload.ledger = checks.DigestLedger(work / "digests.json", [SRC / "tradeloop", HERE])
    clock = spans.SessionClock(probing=not trace)
    tracer = spans.Tracer() if trace else None
    try:
        clock.install()
        setup_times = []
        for _ in range(SETUP_REPEATS):
            workloads.remove(root / "setup")
            clock.start()
            workload.setup(seed, root / "setup")
            setup_times.append(clock.stop()[1])
        print(
            f"set-up: {imports_s:.4f} s of imports, then {', '.join(f'{t:.4f}' for t in setup_times)} s",
            file=sys.stderr,
        )

        untraced_walls: list[float] = []  # trace mode only
        walls: list[float] = []
        sessions: list = []  # each kept iteration's session times
        attempted = failed = 0
        sizes: dict[str, int] = {}
        begin = perf_counter()
        i = 0
        while True:
            start = perf_counter()
            traced = tracer is not None and i % 2 == 1
            out = root / f"iter-{i}"
            gc.collect()  # garbage of the previous iteration is not this one's cost
            if traced:
                tracer.install()
            try:
                outcome = workload.iterate(out, clock)
            finally:
                if traced:
                    tracer.uninstall()
                workloads.remove(out)
            if traced:
                tracer.fold()
            attempted += outcome.attempted
            failed += outcome.failed
            for problem in outcome.problems:
                print(f"check failed: {problem}", file=sys.stderr)
            print(
                f"iteration {i}: wall {outcome.wall_s:.4f} s, {outcome.scaled_s:.4f} s at reference speed"
                f"{' (traced)' if traced else ''}",
                file=sys.stderr,
            )
            if tracer is not None and not traced:
                untraced_walls.append(outcome.wall_s)
            else:
                walls.append(outcome.wall_s if tracer is not None else outcome.scaled_s)
                if tracer is None and sum(map(len, sessions)) + len(clock.sessions) <= KEPT_SESSIONS:
                    sessions.append(clock.sessions)
                for key, size in outcome.sizes.items():
                    sizes[key] = sizes.get(key, 0) + size
            i += 1
            now = perf_counter()
            if walls and now - begin + (now - start) > seconds:
                break
    finally:
        clock.uninstall()
        workloads.remove(root)

    if tracer is not None:
        # Layer times are per-iteration means, so they add up to this mean.
        metrics = tracer.layer_metrics(len(walls), sizes)
        metrics["trace.wall_s"] = statistics.mean(walls)
        metrics["trace.overhead_s"] = min(walls) - min(untraced_walls)
        metrics["trace.spans"] = sum(tracer.calls.values()) / len(walls)
        spans_path = work / f"spans-{name}.jsonl"
        tracer.write(spans_path)
        print(f"{tracer.summary()}\nspans of the last traced iteration: {spans_path}", file=sys.stderr)
    else:
        intervals_ms = [x * 1000.0 for x in position_medians(sessions)]
        metrics = {
            "setup_s": imports_s + statistics.median(setup_times),
            "wall_s": statistics.median(walls),
            "session_ms_p50": statistics.median(intervals_ms),
            "session_ms_p90": quantile(intervals_ms, 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "artifact_bytes": sum(sizes.values()) / len(walls),
        }
        print(
            f"{name}: {len(walls)} iterations; {len(intervals_ms)} sessions, each the median of "
            f"{len(sessions)} iterations; failed_ratio {failed / attempted:.4f}",
            file=sys.stderr,
        )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tradeloop" / "__init__.py").is_file():
        print(f"error: no tradeloop sources at {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
