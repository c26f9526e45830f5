"""Time paths: discrete activation schedules tying local phase clocks to global time.

A path is a sequence of global steps; at each step a nonempty subset of robots
fires its next phase of the cyclic M -> L -> C order. One depth-first walk
generates every synchrony class, extending a prefix one move at a time. Under
FSYNC and SSYNC a move is a whole round: three aligned steps of one robot set,
so each activation is one full LCM cycle, and FSYNC's only set is all robots.
Under k-ASYNC a move is a single step. The walk keeps a prefix only while
window fairness, the k-ASYNC drift bound and the cycle floor can all still
hold, and undoes a move when it backtracks.
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

    `horizon` counts rounds (full LCM cycles of the fastest robot), so every
    path has 3 * horizon steps. A path is kept when every window of
    3 * fairness_bound steps activates every robot, every robot completes
    horizon // fairness_bound cycles, and, under k-ASYNC, the robots'
    completed-cycle counts never differ by more than `k`. A bound larger than
    the horizon leaves the family unconstrained. Paths come in lexicographic
    order of their moves, robot sets ordered by size, then by their robots.

    `cap` counts generated paths for every class: generating path cap + 1
    raises CapExceededError. Reaching the cap costs up to `cap` paths of work;
    SSYNC with 16 robots at H=3 raises only after 100,000 paths, about 4 s on
    a shared 2-vCPU VM.
    """
    if n_robots < 1 or horizon < 1 or fairness_bound < 1:
        raise ValueError("n_robots, horizon and fairness_bound must be positive")
    if synchrony not in (FSYNC, SSYNC, ASYNC_K):
        raise ValueError(f"unknown synchrony class {synchrony!r}")
    sizes = [n_robots] if synchrony == FSYNC else range(1, n_robots + 1)
    moves = [frozenset(c) for size in sizes for c in itertools.combinations(range(n_robots), size)]
    if synchrony == ASYNC_K:
        if k < 1:
            raise ValueError("k must be >= 1")
        width, max_drift = 1, k
    else:
        # one move is a whole round; cycle counts never differ by more than horizon
        width, max_drift = len(PHASES), horizon
    n_steps = horizon * len(PHASES)
    window = fairness_bound * len(PHASES)
    floor = horizon // fairness_bound
    steps: list[frozenset[int]] = []
    counts = [0] * n_robots  # phases fired per robot
    family: list[TimePath] = []
    levels = [iter(moves)]
    while levels:
        move = next(levels[-1], None)
        if move is None:
            levels.pop()
        else:
            steps.extend([move] * width)
            for r in move:
                counts[r] += width
            lo, hi = min(counts), max(counts)
            # only the window ending at the move needs checking: with whole rounds,
            # a window ending inside the round covers every robot of the window
            # ending where the round starts, checked one move earlier
            if (hi // len(PHASES) - lo // len(PHASES) <= max_drift
                    and (lo + n_steps - len(steps)) // len(PHASES) >= floor
                    and (len(steps) < window
                         or len(frozenset().union(*steps[-window:])) == n_robots)):
                if len(steps) < n_steps:
                    levels.append(iter(moves))
                    continue
                if len(family) == cap:
                    raise CapExceededError(f"{synchrony} family exceeds cap {cap}")
                family.append(_steps_to_path(n_robots, steps))
        if steps:  # undo the move just tried, or the one that led to the level just left
            for r in steps[-1]:
                counts[r] -= width
            del steps[-width:]
    return family


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
