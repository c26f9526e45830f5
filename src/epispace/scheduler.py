"""Time paths: which robots each global step activates, and the scheduler families.

A path is a sequence of global steps, each a nonempty set of robots; each of
them fires its next phase of the cyclic M -> L -> C order, so the sets fix
every phase (`TimePath.phased_steps`). One depth-first walk generates every
synchrony class, extending a prefix one move at a time. Under FSYNC and SSYNC a
move is a whole round: three steps of one robot set, so each activation is one
full LCM cycle, and FSYNC's only set is all robots.
Under k-ASYNC a move is a single step. The walk keeps a prefix only while
window fairness, the k-ASYNC drift bound and the cycle floor can all still
hold, and undoes a move when it backtracks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

PHASES = ("M", "L", "C")

FSYNC = "FSYNC"
SSYNC = "SSYNC"
ASYNC_K = "k-ASYNC"


class CapExceededError(RuntimeError):
    """Raised when a combinatorial family would exceed its configured cap."""


@dataclass(frozen=True)
class TimePath:
    """One discrete activation schedule: the robots activated at each global step.

    `steps[t]` is the sorted tuple of the distinct robots activated at step t;
    the constructor takes any tuple or frozenset of robot ids and sorts it.
    Every activated robot fires the next phase of its M -> L -> C cycle, so the
    steps fix each phase (`phased_steps`) and no step can break the cycle order.
    """

    n_robots: int
    steps: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        steps = tuple(self.steps)
        try:
            distinct = dict.fromkeys(steps)
        except TypeError:  # an unhashable step is invalid: scan every step to name it
            distinct = steps
        robot_ids = {}
        for step in distinct:
            problem = _step_problem(self.n_robots, step)
            if problem:
                raise ValueError(f"invalid time path: step {steps.index(step)}: {problem}")
            robot_ids[step] = tuple(sorted(step))
        object.__setattr__(self, "steps", tuple(map(robot_ids.__getitem__, steps)))

    @property
    def horizon_steps(self) -> int:
        return len(self.steps)

    def phased_steps(self) -> list[tuple[tuple[int, str], ...]]:
        """Per step, the (robot, phase) pairs it fires, in robot order.

        A robot that is in n earlier steps fires PHASES[n % 3].
        """
        fired = [0] * self.n_robots
        out = []
        for step in self.steps:
            pairs = []
            for r in step:
                pairs.append((r, PHASES[fired[r] % len(PHASES)]))
                fired[r] += 1
            out.append(tuple(pairs))
        return out

    @property
    def activations(self) -> tuple[Mapping[int, str], ...]:
        """Per step, a read-only map robot -> the phase it fires, derived from `steps`."""
        return tuple(MappingProxyType(dict(pairs)) for pairs in self.phased_steps())


def _step_problem(n_robots: int, step) -> str | None:
    """Why `step` is not a set of robot ids of a path of `n_robots`, or None if it is one."""
    if not isinstance(step, (tuple, frozenset)):
        return f"{step!r} is not a tuple or frozenset of robot ids"
    if not step:
        return "empty participating set"
    if not all(isinstance(r, int) and 0 <= r < n_robots for r in step):
        return f"robot ids {step!r} are not all ints in 0..{n_robots - 1}"
    if len(set(step)) < len(step):
        return f"robot ids {step!r} repeat"
    return None


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
    order of their moves, robot sets ordered by size, then by their robots, and
    each is the walk's robot sets, one per step.

    `cap` counts generated paths for every class: generating path cap + 1
    raises CapExceededError. Reaching the cap costs up to `cap` paths of work;
    SSYNC with 16 robots at H=3 raises only after 100,000 paths, about 2 s on
    a shared 2-vCPU VM (CPython 3.11).
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
                family.append(TimePath(n_robots, tuple(steps)))
        if steps:  # undo the move just tried, or the one that led to the level just left
            for r in steps[-1]:
                counts[r] -= width
            del steps[-width:]
    return family

