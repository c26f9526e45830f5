"""Time paths: which robots each global step activates, and the scheduler families.

A path is a sequence of global steps, each a nonempty set of robots; each of
them fires its next phase of the cyclic M -> L -> C order, so the sets fix
every phase. `fire` states that rule once: from the phases each robot has fired,
mod 3, it splits a step's robots by the phase they fire, and both
`TimePath.activations` and the run simulation read phases only through it.
One depth-first walk generates every synchrony class, extending a prefix one
move at a time. Under FSYNC and SSYNC a move is a whole round: three steps of
one robot set, so each activation is one full LCM cycle, and FSYNC's only set
is all robots. Under k-ASYNC a move is a single step. The walk keeps a prefix
only while window fairness, the k-ASYNC drift bound and the cycle floor can all
still hold, and undoes a move when it backtracks.

The `TimePath` constructor is the check for a path built outside this module.
`gen_schedules` builds its paths from its own move alphabet, sorted tuples of
robot ids checked by construction, so every path of a family shares the
alphabet's step tuples and no path is checked again.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from .space import check_count

PHASES = ("M", "L", "C")

FSYNC = "FSYNC"
SSYNC = "SSYNC"
ASYNC_K = "k-ASYNC"


class CapExceededError(RuntimeError):
    """Raised when a combinatorial family would exceed its configured cap."""


@dataclass(frozen=True, slots=True)
class TimePath:
    """One discrete activation schedule: the robots activated at each global step.

    `n_robots` is an int >= 1, and `steps[t]` the sorted tuple of the distinct
    robots activated at step t. The constructor is the check for a path built
    outside this module: it takes any tuple or frozenset of robot ids, ints and not
    bools, and sorts it. It checks each step object once, so an ill-typed step such
    as `(1.0,)` is named even after an equal `(1,)`. `gen_schedules` builds its
    paths from its own checked moves, without this check.
    Every activated robot fires the next phase of its M -> L -> C cycle, so the
    steps fix each phase (`fire`) and no step can break the cycle order.
    """

    n_robots: int
    steps: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        check_count("invalid time path: n_robots", self.n_robots, 1)
        steps = tuple(self.steps)
        robot_ids = {}  # by step object: the same object repeated is checked once
        for index, step in enumerate(steps):
            if id(step) not in robot_ids:
                problem = _step_problem(self.n_robots, step)
                if problem:
                    raise ValueError(f"invalid time path: step {index}: {problem}")
                robot_ids[id(step)] = tuple(sorted(step))
        object.__setattr__(self, "steps", tuple(robot_ids[id(step)] for step in steps))

    @property
    def horizon_steps(self) -> int:
        return len(self.steps)

    @property
    def activations(self) -> tuple[Mapping[int, str], ...]:
        """Per step, a read-only map robot -> the phase it fires, folding `fire` over `steps`."""
        out, residues = [], (0,) * self.n_robots
        for robots in self.steps:
            plan, residues = fire(residues, robots)
            out.append(MappingProxyType({r: ph for ph, fired in zip(PHASES, plan) for r in fired}))
        return tuple(out)


def fire(residues: tuple[int, ...],
         robots: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The LCM phase rule for one step of `robots`, whose phases fired so far, mod 3, are
    `residues`: per phase of PHASES, the robots that fire it, and the residues after the
    step. A robot that has fired n phases fires PHASES[n % 3]."""
    plan = tuple(tuple(r for r in robots if residues[r] == ph) for ph in range(len(PHASES)))
    after = tuple((n + (r in robots)) % len(PHASES) for r, n in enumerate(residues))
    return plan, after


def _step_problem(n_robots: int, step) -> str | None:
    """Why `step` is not a set of robot ids of a path of `n_robots`, or None if it is one."""
    if not isinstance(step, (tuple, frozenset)):
        return f"{step!r} is not a tuple or frozenset of robot ids"
    if not step:
        return "empty participating set"
    if not all(type(r) is int and 0 <= r < n_robots for r in step):
        return f"robot ids {step!r} are not all ints in 0..{n_robots - 1}"
    if len(set(step)) < len(step):
        return f"robot ids {step!r} repeat"
    return None


def _checked_path(n_robots: int, steps: tuple[tuple[int, ...], ...]) -> TimePath:
    """The path of `n_robots` over `steps` without the constructor's check: every step
    must already be a move of `gen_schedules`, a sorted tuple of distinct robot ids in
    range. `gen_schedules` is its only caller, so a path from outside the module always
    passes the check."""
    path = object.__new__(TimePath)
    object.__setattr__(path, "n_robots", n_robots)
    object.__setattr__(path, "steps", steps)
    return path


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
    order of their moves, robot sets ordered by size, then by their robots. A
    path's steps are its moves' robot tuples, shared by every path of the family.

    `n_robots`, `horizon`, `fairness_bound` and `k` must be ints >= 1, and `cap` an
    int >= 0; ValueError names the first that is not. `cap` counts generated paths
    for every class: generating path cap + 1 raises CapExceededError. Reaching the
    cap costs up to `cap` paths of work; SSYNC with 16 robots at H=3 raises only
    after 100,000 paths, about 0.3 s on a shared 2-vCPU VM (CPython 3.11).
    """
    for name, value in (("n_robots", n_robots), ("horizon", horizon),
                        ("fairness_bound", fairness_bound), ("k", k)):
        check_count(name, value, 1)
    check_count("cap", cap, 0)
    if synchrony not in (FSYNC, SSYNC, ASYNC_K):
        raise ValueError(f"unknown synchrony class {synchrony!r}")
    sizes = [n_robots] if synchrony == FSYNC else range(1, n_robots + 1)
    # sorted tuples of distinct robot ids in range: the move alphabet is checked by construction
    moves = [c for size in sizes for c in itertools.combinations(range(n_robots), size)]
    if synchrony == ASYNC_K:
        width, max_drift = 1, k
    else:
        # one move is a whole round; cycle counts never differ by more than horizon
        width, max_drift = len(PHASES), horizon
    n_steps = horizon * len(PHASES)
    window = fairness_bound * len(PHASES)
    floor = horizon // fairness_bound
    steps: list[tuple[int, ...]] = []
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
                         or len(set().union(*steps[-window:])) == n_robots)):
                if len(steps) < n_steps:
                    levels.append(iter(moves))
                    continue
                if len(family) == cap:
                    raise CapExceededError(f"{synchrony} family exceeds cap {cap}")
                family.append(_checked_path(n_robots, tuple(steps)))
        if steps:  # undo the move just tried, or the one that led to the level just left
            for r in steps[-1]:
                counts[r] -= width
            del steps[-width:]
    return family

