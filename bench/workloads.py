"""Scenario specs of the benchmark workloads.

A spec is plain JSON data: the repetition process turns it into machines,
schedules and formulas, so the program receives only the generated inputs.
Only `sweep-long` draws anything from the seed (its placements).
"""

from __future__ import annotations

import itertools
import random

DEFAULT_SEED = 0

FORMULAS = {
    "ev_sp": "<> sp(UX)",
    "dk_sp": "D[{r1,r2}] sp(UX)",
    "box_k1_k2": "[] (K[r1] sp(UX) -> K[r2] sp(UX))",
}

SWEEP_PLACEMENTS = 400


def s1(horizon: int) -> dict:
    """ROADMAP's S1: two flooding robots on a 1x6 line under SSYNC."""
    return {
        "grid": [1, 6],
        "protocol": "FLOOD_EXPLORE",
        "n_robots": 2,
        "strips": [[0, 1, 2], [3, 4, 5]],
        "caps": {"visibility": "full"},
        "synchrony": "SSYNC",
        "horizon": horizon,
        "fairness_bound": horizon + 1,
        "placements": [[0, 3], [1, 4]],
        "formulas": dict(FORMULAS),
    }


def _sweep_long(seed: int) -> dict:
    n_cells = 8 * 8
    pairs = list(itertools.permutations(range(n_cells), 2))
    placements = random.Random(seed).sample(pairs, SWEEP_PLACEMENTS)
    return {
        "grid": [2, 8],
        "protocol": "EXPLORE_SWEEP",
        "n_robots": 2,
        "strips": None,
        "caps": {"visibility": "myopic", "view_radius": 0.01},
        "synchrony": "FSYNC",
        "horizon": 80,
        "fairness_bound": 1,
        "placements": [list(p) for p in placements],
        "formulas": {"ev_sp": FORMULAS["ev_sp"]},
    }


WORKLOADS = ("ssync-flood", "sweep-long")

# Workloads whose inputs do not depend on the seed: every stored value holds at any seed.
SEED_FREE = ("ssync-flood",)


def make_spec(workload: str, seed: int) -> dict:
    """The scenario spec of one workload; the same seed gives the same spec."""
    if workload == "ssync-flood":
        return s1(7)
    if workload == "sweep-long":
        return _sweep_long(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
