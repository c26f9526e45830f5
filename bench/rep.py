"""One benchmark repetition in a fresh interpreter: scenario spec -> every verdict.

Reads a job from stdin as JSON: {"spec", "spawned_at", "trace", "setup_only"}.
`spawned_at` is the parent's time.monotonic() just before it started this
process, so set-up time includes interpreter start-up. Prints one JSON object.

The timed region runs the five layers through their public functions. The
output checks (size counters, verdicts, trace hash) run after it.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # kB on Linux


class Spans:
    """Spans kept in memory: name, start, end, parent index (-1 for the root)."""

    def __init__(self):
        self.records: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {"name": name, **attrs, "parent": self._open[-1] if self._open else -1,
                  "start": time.perf_counter(), "end": None}
        self._open.append(len(self.records))
        self.records.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


def build_machines(spec: dict):
    from epispace.machine import Capabilities, make_grid_walker
    from epispace.space import Grid

    grid = Grid(*spec["grid"])
    robot, env = make_grid_walker(grid, Capabilities(**spec["caps"]), spec["protocol"],
                                  spec["n_robots"], strips=spec["strips"])
    return grid, robot, env


def sp_valuation(sys_, cells: frozenset[int]) -> dict:
    """sp(U) holds at the points whose explored set covers U."""
    return {("sp", cells): frozenset(p for p in sys_.points if cells <= sys_.explored_at(p))}


def size_counters(schedules, runs, frame) -> dict:
    """Deterministic counts that explain the layer times, computed from the outputs."""
    configs = set()
    transitions = set()
    prefix_nodes: dict[tuple, int] = {}
    edges = 0
    for run in runs:
        keys = [s.key() for s in run.states]
        configs.update(keys)
        node = prefix_nodes.setdefault(("init", run.init_cells), len(prefix_nodes))
        for t, act in enumerate(run.path.activations):
            step = (tuple(sorted(act.items())), run.adv_seq[t])
            transitions.add((keys[t], step))
            node = prefix_nodes.setdefault((node, step), len(prefix_nodes))
        edges += run.horizon
    counters = {
        "scheduler.schedules": len(schedules),
        "scheduler.step_edges": sum(p.horizon_steps for p in schedules),
        "runs.runs": len(runs),
        "runs.points": len(frame.points),
        "runs.step_edges": edges,
        "runs.distinct_configs": len(configs),
        "runs.distinct_transitions": len(transitions),
        "runs.distinct_prefixes": len(prefix_nodes),
        "runs.open_runs": sum(run.is_open for run in runs),
    }
    for r, members in enumerate(frame.classes):
        counters[f"runs.classes.r{r + 1}"] = len(members)
    return counters


def trace_sha256(runs, env) -> str:
    from epispace.runs import export_traces

    h = hashlib.sha256()
    for line in export_traces(runs, env):
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def main() -> None:
    job = json.load(sys.stdin)
    spec = job["spec"]
    import epispace

    if not Path(epispace.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"epispace imported from {epispace.__file__}, not from {SRC}")
    grid, robot, env = build_machines(spec)
    setup_s = time.monotonic() - job["spawned_at"]
    if job["setup_only"]:
        print(json.dumps({"setup_s": setup_s}))
        return

    from epispace.logic import Symbols, parse, valid
    from epispace.runs import build_interpreted_system, enumerate_runs
    from epispace.scheduler import gen_schedules

    spans = Spans() if job["trace"] else None

    def span(name, **attrs):
        return spans.span(name, **attrs) if spans else nullcontext()

    ux = frozenset(grid.all_cells())
    symbols = Symbols({f"r{i + 1}": i for i in range(spec["n_robots"])}, {"UX": ux}, grid.n_cells)
    verdicts = {}
    t0 = time.perf_counter()
    with span("repetition"):
        with span("build"):
            with span("scheduler.gen"):
                schedules = gen_schedules(spec["n_robots"], spec["horizon"], spec["synchrony"],
                                          spec["fairness_bound"])
            with span("runs.simulate"):
                runs = enumerate_runs(robot, env, spec["placements"], schedules)
            simulate_rss_mb = peak_rss_mb()
            with span("runs.frame"):
                frame = build_interpreted_system(runs, env, robot)
            with span("valuation"):
                system = frame.with_atoms(sp_valuation(frame, ux))
        t1 = time.perf_counter()
        with span("query"):
            for key, text in spec["formulas"].items():
                with span("logic.parse", formula=key):
                    formula = parse(text, symbols)
                with span("logic.valid", formula=key):
                    verdicts[key] = valid(system, formula)
    t2 = time.perf_counter()
    rss_mb = peak_rss_mb()

    observed = size_counters(schedules, runs, frame)
    observed["valuation.true_points"] = len(system.atoms[("sp", ux)])
    for key, v in verdicts.items():
        observed[f"verdict.{key}"] = [v.value, [list(p) for p in v.witnesses]]
    observed["export_sha256"] = trace_sha256(runs, env)
    print(json.dumps({
        "setup_s": setup_s,
        "build_s": t1 - t0,
        "query_s": t2 - t1,
        "verdict_s": t2 - t0,
        "peak_rss_mb": rss_mb,
        "simulate_rss_mb": simulate_rss_mb,
        "observed": observed,
        "spans": spans.records if spans else None,
    }))


if __name__ == "__main__":
    main()
