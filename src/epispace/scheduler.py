"""Time paths: discrete activation schedules tying local phase clocks to global time.

A path is a sequence of global steps; at each step a nonempty subset of robots
fires its next phase of the cyclic M -> L -> C order. FSYNC and SSYNC families
are generated in whole rounds (three aligned steps per activation, so one
activation = one full LCM cycle), k-ASYNC families at single-phase granularity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Sequence

PHASES = ("M", "L", "C")

FSYNC = "FSYNC"
SSYNC = "SSYNC"
ASYNC_K = "k-ASYNC"


class CapExceededError(RuntimeError):
    """Raised when a combinatorial family would exceed its configured cap."""


@dataclass(frozen=True)
class TimePath:
    """One discrete activation schedule.

    activations[t] maps robot index -> the single phase it fires at step t; the
    maps are read-only, since a path hashes by them. A robot's local clock is
    the number of phases it has fired, so the activations determine it.
    """

    n_robots: int
    activations: tuple[Mapping[int, str], ...] = field(hash=False)

    def __post_init__(self):
        object.__setattr__(self, "activations",
                           tuple(MappingProxyType(dict(a)) for a in self.activations))

    @property
    def horizon_steps(self) -> int:
        return len(self.activations)

    def _key(self):
        return tuple(tuple(sorted(a.items())) for a in self.activations)

    def __eq__(self, other):
        return (
            isinstance(other, TimePath)
            and self.n_robots == other.n_robots
            and self._key() == other._key()
        )

    def __hash__(self):
        return hash((self.n_robots, self._key()))


def validate_path(p: TimePath) -> list[str]:
    """Check the time-path invariants; an empty report means valid."""
    report: list[str] = []
    counts = [0] * p.n_robots
    for t, step in enumerate(p.activations):
        if not step:
            report.append(f"step {t}: empty participating set")
        for r, phase in step.items():
            if not 0 <= r < p.n_robots:
                report.append(f"step {t}: unknown robot {r}")
                continue
            expected = PHASES[counts[r] % len(PHASES)]
            if phase != expected:
                report.append(
                    f"step {t}: robot {r} fires {phase} but its cycle position expects {expected}"
                )
            counts[r] += 1
    return report


def _window_fair(subsets: Sequence[frozenset[int]], n_robots: int, window: int) -> bool:
    if window > len(subsets):
        return True
    for start in range(len(subsets) - window + 1):
        seen: set[int] = set()
        for s in subsets[start:start + window]:
            seen |= s
        if len(seen) < n_robots:
            return False
    return True


def _rounds_to_path(n_robots: int, subsets: Sequence[frozenset[int]]) -> TimePath:
    steps = []
    for s in subsets:
        for phase in PHASES:
            steps.append({r: phase for r in sorted(s)})
    return TimePath(n_robots, tuple(steps))


def gen_schedules(
    n_robots: int,
    horizon: int,
    synchrony: str,
    fairness_bound: int,
    *,
    k: int = 1,
    cap: int = 100_000,
) -> list[TimePath]:
    """Generate the finite scheduler family for one synchrony class.

    `horizon` counts rounds (full LCM cycles of the fastest robot). Every robot
    must be activated at least once per `fairness_bound` rounds; a bound larger
    than the horizon leaves the family unconstrained.
    """
    if n_robots < 1 or horizon < 1 or fairness_bound < 1:
        raise ValueError("n_robots, horizon and fairness_bound must be positive")
    if synchrony == FSYNC:
        full = frozenset(range(n_robots))
        return [_rounds_to_path(n_robots, [full] * horizon)]
    if synchrony == SSYNC:
        subsets = [
            frozenset(c)
            for size in range(1, n_robots + 1)
            for c in itertools.combinations(range(n_robots), size)
        ]
        if len(subsets) ** horizon > cap:
            raise CapExceededError(
                f"SSYNC family size {len(subsets) ** horizon} exceeds cap {cap}"
            )
        family = []
        for choice in itertools.product(subsets, repeat=horizon):
            if _window_fair(choice, n_robots, fairness_bound):
                family.append(_rounds_to_path(n_robots, choice))
        return family
    if synchrony == ASYNC_K:
        return _gen_async(n_robots, horizon, fairness_bound, k, cap)
    raise ValueError(f"unknown synchrony class {synchrony!r}")


def _gen_async(n_robots: int, horizon: int, fairness_bound: int, k: int, cap: int) -> list[TimePath]:
    """All single-phase interleavings with cycle drift <= k and window fairness."""
    if k < 1:
        raise ValueError("k must be >= 1")
    n_steps = horizon * len(PHASES)
    window = fairness_bound * len(PHASES)
    min_cycles = horizon // fairness_bound
    robots = tuple(range(n_robots))
    nonempty = [
        frozenset(c)
        for size in range(1, n_robots + 1)
        for c in itertools.combinations(robots, size)
    ]
    family: list[TimePath] = []

    def drift_ok(counts: Sequence[int]) -> bool:
        cycles = [c // len(PHASES) for c in counts]
        return max(cycles) - min(cycles) <= k

    def recurse(steps: list[frozenset[int]], counts: list[int]):
        if len(steps) == n_steps:
            if all(c // len(PHASES) >= min_cycles for c in counts):
                if len(family) == cap:
                    raise CapExceededError(f"k-ASYNC family exceeds cap {cap}")
                family.append(_steps_to_path(n_robots, steps))
            return
        for subset in nonempty:
            new_counts = list(counts)
            for r in subset:
                new_counts[r] += 1
            if not drift_ok(new_counts):
                continue
            steps.append(subset)
            if _fair_prefix(steps, n_robots, window):
                # prune: robots so far behind they cannot reach the cycle floor
                remaining = n_steps - len(steps)
                if all(
                    (c + remaining) // len(PHASES) >= min_cycles for c in new_counts
                ):
                    recurse(steps, new_counts)
            steps.pop()

    recurse([], [0] * n_robots)
    return family


def _fair_prefix(steps: Sequence[frozenset[int]], n_robots: int, window: int) -> bool:
    # only the most recently completed window can be newly violated
    if len(steps) < window:
        return True
    seen: set[int] = set()
    for s in steps[len(steps) - window:]:
        seen |= s
    return len(seen) == n_robots


def _steps_to_path(n_robots: int, subsets: Sequence[frozenset[int]]) -> TimePath:
    counts = [0] * n_robots
    acts = []
    for s in subsets:
        step = {}
        for r in sorted(s):
            step[r] = PHASES[counts[r] % len(PHASES)]
            counts[r] += 1
        acts.append(step)
    return TimePath(n_robots, tuple(acts))
