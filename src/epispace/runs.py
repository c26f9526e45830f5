"""System runs and the interpreted system (epistemic frame + valuation).

A run records one semantic state per global step edge: per-robot epistemic
states and last observations, the environment state, and the cumulative
explored cell set. The runs of one `enumerate_runs` call share their state
objects: each distinct configuration is one `StepState`, and each distinct
transition is computed once. A new transition is assembled from per-component
tables that live for the same call: `control` results by epi, `step` results
by (epi, obs), `footprint` results by (robot, obs), and `emit_obs` results by
(env state, adversary choice). Indistinguishability for robot r is equality of
r's epistemic state across (run, step) points, regardless of run or step.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Callable, Hashable, Iterable, Sequence

from .machine import EnvMachine, RobotMachine
from .scheduler import PHASES, CapExceededError, TimePath, validate_path


@dataclass(frozen=True)
class StepState:
    """Semantic state at one step edge."""

    epis: tuple
    obss: tuple
    env: Hashable
    explored: frozenset[int]

    def key(self):
        return (self.epis, self.obss, self.env, self.explored)


@dataclass(frozen=True)
class Lasso:
    start: int          # loop covers steps [start, horizon)
    length: int


@dataclass(frozen=True)
class SystemRun:
    path: TimePath
    adv_seq: tuple
    init_cells: tuple[int, ...]
    # one per step edge, len = horizon_steps + 1; the StepState objects are shared
    # with the other runs of the same simulate or enumerate_runs call
    states: tuple[StepState, ...]
    lasso: Lasso | None

    @property
    def horizon(self) -> int:
        return len(self.states) - 1

    @property
    def is_open(self) -> bool:
        return self.lasso is None

    def future_times(self, t: int) -> range:
        """Times whose configurations are reachable from t in the lasso unrolling."""
        if self.lasso is None:
            return range(t, self.horizon + 1)
        # inside the loop the forward orbit wraps around and covers the whole loop
        return range(min(t, self.lasso.start), self.horizon + 1)


def simulate(
    robot: RobotMachine,
    env: EnvMachine,
    path: TimePath,
    init_cells: Sequence[int],
    *,
    pre_move_look: bool = False,
) -> SystemRun:
    """Deterministically execute one schedule with no adversary; MOVEs commit before LOOKs."""
    _check_path(env, path)
    table = _Transitions(robot, env, pre_move_look)
    init_cells = tuple(init_cells)
    return table.run(path, path._key(), init_cells, table.initial(init_cells),
                     (None,) * path.horizon_steps)


def _check_path(env: EnvMachine, path: TimePath) -> None:
    if path.n_robots != env.n_robots:
        raise ValueError("path and environment disagree on the robot count")
    report = validate_path(path)
    if report:
        raise ValueError("invalid time path: " + "; ".join(report))


def _memoized(fn: Callable) -> Callable:
    """`fn` run once per distinct argument tuple, for as long as the wrapper lives."""
    table: dict = {}
    missing = object()

    def call(*args):
        value = table.get(args, missing)
        if value is missing:
            value = table[args] = fn(*args)
        return value

    return call


class _Transitions:
    """The distinct states and transitions of one `simulate` or `enumerate_runs` call.

    Each configuration is interned: the first `StepState` with a given `key()`
    stands for all of them, so runs share state objects and compare them by
    identity. Each distinct (state, step, adversary choice) is computed once,
    from machine components that are each memoized by their own arguments:
    `control` by epi, `step` by (epi, obs), `footprint` by (robot, obs), and
    `emit_obs` by the (env state, adversary choice) that the LOOK reads, which
    is the pre-move env under `pre_move_look`. `evolve` is not memoized,
    because actions need not be hashable.
    """

    def __init__(self, robot: RobotMachine, env: EnvMachine, pre_move_look: bool):
        self.robot = robot
        self.env = env
        self.pre_move_look = pre_move_look
        self.states: dict[tuple, StepState] = {}
        # id() is stable: every state the memo names is kept alive by `states`
        self.succ: dict[tuple, StepState] = {}
        self.control = _memoized(robot.control)
        self.compute = _memoized(robot.step)
        self.footprint = _memoized(robot.footprint) if robot.footprint is not None else None
        self.emit_obs = _memoized(env.emit_obs)

    def intern(self, state: StepState) -> StepState:
        return self.states.setdefault(state.key(), state)

    def initial(self, init_cells: Sequence[int]) -> StepState:
        n = self.env.n_robots
        epis = tuple(self.robot.initial_epi(r) for r in range(n))
        return self.intern(StepState(epis, (None,) * n, self.env.make_initial_env(init_cells),
                                     frozenset()))

    def step(self, state: StepState, step: tuple, adv) -> StepState:
        """The transition function: one global step, `step` as sorted (robot, phase) pairs."""
        n = self.env.n_robots
        epis = list(state.epis)
        obss = list(state.obss)
        env_state = state.env
        explored = state.explored
        movers = [r for r, ph in step if ph == "M"]
        lookers = [r for r, ph in step if ph == "L"]
        computers = [r for r, ph in step if ph == "C"]

        if movers:
            actions: list = [None] * n
            for r in movers:
                actions[r] = self.control(epis[r])
            env_state = self.env.evolve(env_state, tuple(actions), adv)
        if lookers:
            raws = self.emit_obs(state.env if self.pre_move_look else env_state, adv)
            for r in lookers:
                obss[r] = self.robot.observe(raws[r])
        for r in computers:
            epis[r] = self.compute(epis[r], obss[r])
            if self.footprint is not None:
                explored = explored | self.footprint(r, obss[r])
        return self.intern(StepState(tuple(epis), tuple(obss), env_state, explored))

    def run(self, path: TimePath, steps: tuple, init_cells: tuple, start: StepState,
            adv_seq: tuple) -> SystemRun:
        """The run of a checked path from `start`, the interned initial state of `init_cells`.

        `steps` is `path._key()`, so a caller with many runs per path computes it once.
        """
        succ = self.succ
        state = start
        states = [state]
        for step, adv in zip(steps, adv_seq):
            key = (id(state), step, adv)
            nxt = succ.get(key)
            if nxt is None:
                nxt = succ[key] = self.step(state, step, adv)
            state = nxt
            states.append(state)
        states_t = tuple(states)
        return SystemRun(path, adv_seq, init_cells, states_t, _detect_lasso(path, states_t))


def _detect_lasso(path: TimePath, states: tuple[StepState, ...]) -> Lasso | None:
    """Tail lasso: smallest replayable window whose end state equals its start.

    The states are interned, so equal configurations are the same object.
    """
    horizon = len(states) - 1
    last = states[horizon]
    for length in range(1, horizon + 1):
        start = horizon - length
        if states[start] is not last:
            continue
        fired = [0] * path.n_robots
        for t in range(start, horizon):
            for r in path.activations[t]:
                fired[r] += 1
        if all(f % len(PHASES) == 0 for f in fired):
            return Lasso(start, length)
    return None


def enumerate_runs(
    robot: RobotMachine,
    env: EnvMachine,
    init_cells: Sequence[Sequence[int]],
    schedules: Sequence[TimePath],
    *,
    cap: int = 100_000,
    pre_move_look: bool = False,
) -> list[SystemRun]:
    """One run per (schedule, adversary sequence, initial placement), deterministic order.

    The adversary sequences draw from `env.adversary_choices`. All runs share one
    table of distinct states and transitions.
    """
    if not schedules:
        return []
    adv_choices = env.adversary_choices
    n_runs = 0
    for path in schedules:
        _check_path(env, path)
        n_runs += len(adv_choices) ** path.horizon_steps
    if n_runs * len(init_cells) > cap:
        branching = " (adversary branching)" if len(adv_choices) > 1 else ""
        raise CapExceededError(f"run enumeration exceeds cap {cap}{branching}")
    paths = [(path, path._key()) for path in schedules]
    table = _Transitions(robot, env, pre_move_look)
    runs = []
    for init in init_cells:
        init = tuple(init)
        start = table.initial(init)
        for path, steps in paths:
            if len(adv_choices) == 1:
                seqs: Iterable = [(adv_choices[0],) * path.horizon_steps]
            else:
                seqs = itertools.product(adv_choices, repeat=path.horizon_steps)
            for seq in seqs:
                runs.append(table.run(path, steps, init, start, seq))
    return runs


Point = tuple[int, int]  # (run index, step)


@dataclass
class InterpretedSystem:
    """Runs, per-robot indistinguishability partitions, and the atom valuation.

    Points are numbered by their position in `points`: run by run, t ascending.
    A partition is a list of class ids aligned with `points`; `class_of[r][i]` is
    robot r's class at `points[i]`. Ids count from 0 in order of first occurrence,
    so the class of `points[0]` is 0 and a new id is always one more than the
    largest before it.
    """

    runs: list[SystemRun]
    env_machine: EnvMachine
    robot_machine: RobotMachine
    points: list[Point]
    class_of: list[list[int]]                # per robot: class id per position in points
    atoms: dict[Hashable, frozenset[Point]] = field(default_factory=dict)

    @property
    def n_robots(self) -> int:
        return self.env_machine.n_robots

    @property
    def classes(self) -> list[list[tuple[Point, ...]]]:
        """Per robot: class id -> member points, in points order."""
        out = []
        for ids in self.class_of:
            members: list[list[Point]] = [[] for _ in range(max(ids) + 1)]
            for p, cid in zip(self.points, ids):
                members[cid].append(p)
            out.append([tuple(m) for m in members])
        return out

    def epi_at(self, point: Point, robot: int):
        run_idx, t = point
        return self.runs[run_idx].states[t].epis[robot]

    def explored_at(self, point: Point) -> frozenset[int]:
        run_idx, t = point
        return self.runs[run_idx].states[t].explored

    def with_atoms(self, atoms: dict[Hashable, frozenset[Point]]) -> "InterpretedSystem":
        """Same frame, different valuation (shares runs and partitions)."""
        return replace(self, atoms=atoms)


def _number(keys: Iterable[Hashable]) -> list[int]:
    """Class ids for a sequence of keys: equal keys share an id, numbered by first occurrence."""
    ids: dict[Hashable, int] = {}
    return [ids.setdefault(k, len(ids)) for k in keys]


def build_interpreted_system(
    runs: Sequence[SystemRun],
    env_machine: EnvMachine,
    robot_machine: RobotMachine,
    atoms: dict[Hashable, frozenset[Point]] | None = None,
) -> InterpretedSystem:
    """Group points into ~_r classes by hashing epistemic states."""
    if not runs:
        raise ValueError("cannot build an interpreted system from zero runs")
    points = [(i, t) for i, run in enumerate(runs) for t in range(run.horizon + 1)]
    states = [state for run in runs for state in run.states]
    class_of = [_number(state.epis[r] for state in states) for r in range(env_machine.n_robots)]
    return InterpretedSystem(list(runs), env_machine, robot_machine, points, class_of,
                             dict(atoms or {}))


def distributed_relation(sys: InterpretedSystem, group: Iterable[int]) -> list[int]:
    """Intersection of the group's indistinguishability relations, as class ids per point."""
    group = sorted(set(group))
    if not group:
        raise ValueError("distributed knowledge needs a nonempty group")
    for r in group:
        if not 0 <= r < sys.n_robots:
            raise ValueError(f"robot {r} outside the system")
    return _number(zip(*(sys.class_of[r] for r in group)))


def canon(value) -> str:
    """Deterministic text form for trace output (sorts set-like values)."""
    if isinstance(value, frozenset):
        return "{" + ",".join(canon(v) for v in sorted(value, key=repr)) + "}"
    if isinstance(value, tuple):
        return "(" + ",".join(canon(v) for v in value) + ")"
    if value is None:
        return "-"
    return str(value)


def export_traces(runs: Sequence[SystemRun], env_machine: EnvMachine) -> list[str]:
    """Line-oriented trace: one configuration per line.

    Fields, in order: run t, then per robot i: r<i>.e r<i>.o r<i>.light r<i>.pos.
    """
    lines = []
    for i, run in enumerate(runs):
        for t, state in enumerate(run.states):
            parts = [f"run={i}", f"t={t}"]
            lights = env_machine.lights(state.env) if env_machine.lights else None
            poss = env_machine.positions(state.env) if env_machine.positions else None
            for r in range(env_machine.n_robots):
                parts.append(f"r{r}.e={canon(state.epis[r])}")
                parts.append(f"r{r}.o={canon(state.obss[r])}")
                parts.append(f"r{r}.light={canon(lights[r]) if lights else '-'}")
                parts.append(f"r{r}.pos={poss[r] if poss else '-'}")
            lines.append(" ".join(parts))
    return lines
