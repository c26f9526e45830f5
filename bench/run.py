"""Cold-process benchmark: scenario spec -> verdicts, end to end and per layer.

    python3 bench/run.py --workload ssync-flood --seed 0 --seconds 55 --trace 0

A closed loop with one client: each repetition model-checks the workload's
scenario in a fresh interpreter (bench/rep.py), one after another, so no
in-process cache survives between repetitions. The run reports medians over
its repetitions and checks every repetition's outputs against the values in
bench/expected.json. The last line of stdout is the result as JSON; with
--trace 1 the metrics are the per-layer ones and the spans are written to
.bench_out/. See bench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import DEFAULT_SEED, FORMULAS, SEED_FREE, WORKLOADS, make_spec  # noqa: E402

MIN_REPS = 3
SETUPS_PER_REP = 4
DEADLINE_S = 170          # every run must end within 180 s
VALID_METRICS = {key: f"logic.valid_s.{key}" for key in FORMULAS}
SPAN_METRICS = {
    "scheduler.gen": "scheduler.gen_s",
    "runs.simulate": "runs.simulate_s",
    "runs.frame": "runs.frame_s",
    "valuation": "valuation.time_s",
    "logic.parse": "logic.parse_s",
}
COUNTERS = (
    "scheduler.schedules", "scheduler.step_edges", "runs.runs", "runs.points",
    "runs.distinct_configs", "runs.distinct_transitions", "runs.distinct_prefixes",
    "runs.classes.r1", "runs.classes.r2", "valuation.true_points",
)


class BenchError(RuntimeError):
    """A repetition failed to run; the benchmark prints no result."""


def expected_values(workload: str, seed: int) -> dict:
    """Stored outputs to compare against; at other seeds sweep-long keeps only seed-free ones."""
    stored = json.loads((BENCH / "expected.json").read_text())[workload]
    if workload in SEED_FREE or seed == DEFAULT_SEED:
        return stored
    return {"verdict.ev_sp": ["TRUE", []], "runs.open_runs": 0}


def launch(spec: dict, *, trace: bool = False, setup_only: bool = False, timeout: float) -> dict:
    job = {"spec": spec, "trace": trace, "setup_only": setup_only}
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    job["spawned_at"] = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "rep.py")], input=json.dumps(job),
                              capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"repetition did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"repetition exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def check(reps: list[dict], expected: dict) -> tuple[int, int]:
    """Each output value of each repetition is one operation; a mismatch fails it.

    A value fails when it differs from the stored one or from the first
    repetition's value (counters must repeat exactly).
    """
    attempted = failed = 0
    first = reps[0]["observed"]
    for i, rep in enumerate(reps):
        for key, value in rep["observed"].items():
            attempted += 1
            want = expected.get(key, first.get(key))
            if value != want:
                failed += 1
                print(f"check failed: repetition {i} {key} = {value!r}, expected {want!r}",
                      file=sys.stderr)
        for key in expected.keys() - rep["observed"].keys():
            attempted += 1
            failed += 1
            print(f"check failed: repetition {i} has no {key}", file=sys.stderr)
    return attempted, failed


def self_times(spans: list[dict]) -> list[float]:
    """Per span: its duration minus the part covered by its (sequential) children."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_times(spans: list[dict]) -> dict:
    """Self time per layer metric in one traced repetition; glue is the benchmark's own code."""
    out = dict.fromkeys([*SPAN_METRICS.values(), *VALID_METRICS.values(), "trace.glue_s"], 0.0)
    for span, own in zip(spans, self_times(spans)):
        name = span["name"]
        if name == "logic.valid":
            out[VALID_METRICS[span["formula"]]] += own
        elif name in SPAN_METRICS:
            out[SPAN_METRICS[name]] += own
        else:
            out["trace.glue_s"] += own
    return out


def median_of(reps: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in reps)


def end_to_end(reps: list[dict], setups: list[float]) -> dict:
    verdicts = [v[0] for k, v in reps[0]["observed"].items() if k.startswith("verdict.")]
    decided = sum(v in ("TRUE", "FALSE") for v in verdicts) / len(verdicts)
    return {
        "verdict_s": (median_of(reps, "verdict_s"), "s"),
        "build_s": (median_of(reps, "build_s"), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (median_of(reps, "peak_rss_mb"), "MB"),
        "decided_frac": (decided, "fraction"),
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    times = [layer_times(r["spans"]) for r in traced]
    out = {name: (statistics.median(t[name] for t in times), "s") for name in times[0]}
    out["query_s"] = (median_of(traced, "query_s"), "s")
    observed = traced[0]["observed"]
    for name in COUNTERS:
        out[name] = (observed[name], "count")
    out["runs.new_transition_frac"] = (
        observed["runs.distinct_transitions"] / observed["runs.step_edges"], "fraction")
    out["runs.open_frac"] = (observed["runs.open_runs"] / observed["runs.runs"], "fraction")
    out["runs.simulate_rss_mb"] = (median_of(traced, "simulate_rss_mb"), "MB")
    out["trace.overhead_s"] = (median_of(traced, "verdict_s") - median_of(untraced, "verdict_s"), "s")
    out["trace.spans"] = (len(traced[0]["spans"]), "count")
    return out


def write_trace(workload: str, seed: int, traced: list[dict], layers: dict) -> Path:
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload}-seed{seed}.json"
    spans = [dict(span, rep=i) for i, r in enumerate(traced) for span in r["spans"]]
    path.write_text(json.dumps({"workload": workload, "seed": seed, "spans": spans,
                                "per_layer": {k: v for k, (v, _) in layers.items()}}, indent=1))
    return path


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    spec = make_spec(workload, seed)
    expected = expected_values(workload, seed)

    def remaining() -> float:
        left = DEADLINE_S - (time.monotonic() - start)
        if left <= 0:
            raise BenchError(f"run exceeded {DEADLINE_S} s")
        return left

    launch(spec, setup_only=True, timeout=remaining())  # warm the bytecode and file caches
    setups: list[float] = []
    measure_start = time.monotonic()
    reps: list[dict] = []
    elapsed = 0.0
    # start another repetition only if it should end within the run's seconds
    while len(reps) < MIN_REPS or elapsed * (len(reps) + 1) / len(reps) <= seconds:
        # set-up-only processes spread over the run, so host speed swings average out
        setups += [launch(spec, setup_only=True, timeout=remaining())["setup_s"]
                   for _ in range(SETUPS_PER_REP)]
        # traced runs alternate traced and untraced repetitions to measure the overhead
        traced_rep = trace and len(reps) % 2 == 0
        reps.append(launch(spec, trace=traced_rep, timeout=remaining()))
        reps[-1]["traced"] = traced_rep
        print(f"{workload} repetition {len(reps)}: verdict_s={reps[-1]['verdict_s']:.3f}",
              file=sys.stderr)
        elapsed = time.monotonic() - measure_start
    setups += [r["setup_s"] for r in reps]
    attempted, failed = check(reps, expected)

    untraced = [r for r in reps if not r["traced"]]
    metrics = end_to_end(untraced, setups)
    if trace:
        traced = [r for r in reps if r["traced"]]
        layers = per_layer(traced, untraced)
        path = write_trace(workload, seed, traced, layers)
        for name, (value, unit) in {**metrics, **layers}.items():
            print(f"{name:32s} {value:14.6f} {unit}")
        print(f"spans written to {path.relative_to(ROOT)}")
        metrics = layers
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "epispace").is_dir():
        print(f"no epispace sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
