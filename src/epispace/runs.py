"""System runs and the interpreted system (epistemic frame + valuation).

A configuration is one semantic state at a step edge, a `StepState` tuple:
per-robot epistemic states and last observations, the environment state, and
the cumulative explored cell set. Each `enumerate_runs` call keeps one table of
the distinct configurations it reaches, numbered 0, 1, ... in creation order,
and a run is a row of ids into that table, one per step edge. So the ids of a
call's runs, read run by run, meet each configuration first in id order. The
table stores each distinct part once as well: equal `epis`, `obss`, env states
and explored sets of its configurations are one object, the first stored. Each
distinct transition (configuration id, step, adversary choice) is computed
once. A new transition is assembled from per-component tables that live for
the same call: `control` results by epi, `step` results by (epi, obs),
`footprint` results by (robot, obs), and `emit_obs` results by (env state,
adversary choice). Indistinguishability for robot r is equality of r's
epistemic state across (run, step) points, regardless of run or step.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass, field, replace
from functools import cached_property
from operator import itemgetter
from typing import Callable, Hashable, Iterable, NamedTuple, Sequence

from .machine import EnvMachine, RobotMachine
from .scheduler import PHASES, CapExceededError, TimePath


class StepState(NamedTuple):
    """Semantic state at one step edge; the tuple is its own key in a call's table."""

    epis: tuple
    obss: tuple
    env: Hashable
    explored: frozenset[int]

    def key(self) -> StepState:
        return self


@dataclass(frozen=True)
class Lasso:
    start: int          # loop covers steps [start, horizon)
    length: int


@dataclass(frozen=True, eq=False)
class SystemRun:
    """One run: a row of configuration ids, one per step edge, into `table`.

    `table` is the configuration list of the `enumerate_runs` call that made the
    run, shared with the call's other runs. Two runs are equal when their
    schedule, adversary choices, placement, configurations and lasso are.
    """

    path: TimePath
    adv_seq: tuple
    init_cells: tuple[int, ...]
    row: array                                   # 'i' ids, len = horizon_steps + 1
    table: list[StepState] = field(repr=False)
    lasso: Lasso | None

    @property
    def states(self) -> list[StepState]:
        """The run's configurations, looked up anew on each access."""
        return list(map(self.table.__getitem__, self.row))

    @property
    def horizon(self) -> int:
        return len(self.row) - 1

    @property
    def is_open(self) -> bool:
        return self.lasso is None

    def __eq__(self, other):
        if not isinstance(other, SystemRun):
            return NotImplemented
        return ((self.path, self.adv_seq, self.init_cells, self.lasso)
                == (other.path, other.adv_seq, other.init_cells, other.lasso)
                and self.states == other.states)


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
    """The distinct configurations and transitions of one `enumerate_runs` call.

    `configs` is the call's table: configuration id -> `StepState`, ids given in
    creation order. Each configuration is one object, both the key of its id in
    `config_ids` and its entry in `configs`, and it is made of shared parts: `parts`
    holds one dict per field, value -> the first equal value stored, so a new
    configuration reuses the `epis`, `obss`, env state and explored set of earlier
    ones where they are equal. `parts` lives as long as `config_ids`. Steps are
    numbered too, and `plans` maps a step id to the step's movers, lookers and
    computers. `succ` maps each distinct (config id, step id, adversary choice) to
    the id it leads to. A new transition is computed from machine components that
    are each memoized by their own arguments: `control` by epi, `step` by (epi,
    obs), `footprint` by (robot, obs), and `emit_obs` by the (env state, adversary
    choice) that the LOOK reads, which is the pre-move env under `pre_move_look`.
    `evolve` is not memoized, because actions need not be hashable.
    """

    def __init__(self, robot: RobotMachine, env: EnvMachine, pre_move_look: bool):
        self.robot = robot
        self.env = env
        self.pre_move_look = pre_move_look
        self.config_ids: dict[StepState, int] = {}
        self.parts: tuple[dict, ...] = tuple({} for _ in StepState._fields)
        self.configs: list[StepState] = []
        self.succ: dict[tuple, int] = {}
        self.step_ids: dict[tuple, int] = {}
        self.plans: list[tuple] = []
        self.control = _memoized(robot.control)
        self.compute = _memoized(robot.step)
        self.footprint = _memoized(robot.footprint) if robot.footprint is not None else None
        self.emit_obs = _memoized(env.emit_obs)

    def intern(self, state: StepState) -> int:
        """The id of the configuration `state`, new ones last, stored from shared parts."""
        cid = self.config_ids.get(state)
        if cid is None:
            state = StepState._make(map(dict.setdefault, self.parts, state, state))
            cid = self.config_ids[state] = len(self.configs)
            self.configs.append(state)
        return cid

    def initial(self, init_cells: Sequence[int]) -> int:
        n = self.env.n_robots
        epis = tuple(self.robot.initial_epi(r) for r in range(n))
        return self.intern(StepState(epis, (None,) * n, self.env.make_initial_env(init_cells),
                                     frozenset()))

    def number_steps(self, steps: Iterable[tuple]) -> tuple[int, ...]:
        """Step ids for a path's `phased_steps()`; each new step is planned once."""
        ids = []
        for step in steps:
            sid = self.step_ids.get(step)
            if sid is None:
                sid = self.step_ids[step] = len(self.plans)
                self.plans.append(tuple(tuple(r for r, p in step if p == ph) for ph in PHASES))
            ids.append(sid)
        return tuple(ids)

    def step(self, cid: int, sid: int, adv) -> int:
        """The transition function: one global step, step id `sid`, from configuration `cid`."""
        state = self.configs[cid]
        movers, lookers, computers = self.plans[sid]
        epis = list(state.epis)
        obss = list(state.obss)
        env_state = state.env
        explored = state.explored

        if movers:
            actions: list = [None] * self.env.n_robots
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
                cells = self.footprint(r, obss[r])
                if not cells <= explored:
                    explored = explored | cells
        return self.intern(StepState(tuple(epis), tuple(obss), env_state, explored))

    def run(self, path: TimePath, steps: tuple[int, ...], init_cells: tuple, start: int,
            adv_seq: tuple) -> SystemRun:
        """The run of a checked path from `start`, the initial configuration of `init_cells`.

        `steps` is `number_steps(path.phased_steps())`, so a caller with many runs
        per path computes it once.
        """
        succ = self.succ
        cid = start
        row = array("i", [cid])
        for sid, adv in zip(steps, adv_seq):
            nxt = succ.get((cid, sid, adv))
            if nxt is None:
                nxt = succ[cid, sid, adv] = self.step(cid, sid, adv)
            cid = nxt
            row.append(cid)
        return SystemRun(path, adv_seq, init_cells, row, self.configs, _detect_lasso(path, row))


def _detect_lasso(path: TimePath, row: array) -> Lasso | None:
    """Tail lasso: smallest replayable window whose end configuration equals its start."""
    horizon = len(row) - 1
    last = row[horizon]
    for length in range(1, horizon + 1):
        start = horizon - length
        if row[start] != last:
            continue
        fired = [0] * path.n_robots
        for t in range(start, horizon):
            for r in path.steps[t]:
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
        if path.n_robots != env.n_robots:
            raise ValueError("path and environment disagree on the robot count")
        n_runs += len(adv_choices) ** path.horizon_steps
    if n_runs * len(init_cells) > cap:
        branching = " (adversary branching)" if len(adv_choices) > 1 else ""
        raise CapExceededError(f"run enumeration exceeds cap {cap}{branching}")
    table = _Transitions(robot, env, pre_move_look)
    paths = [(path, table.number_steps(path.phased_steps())) for path in schedules]
    runs = []
    for init in init_cells:
        init = tuple(init)
        start = table.initial(init)
        for path, steps in paths:
            for seq in itertools.product(adv_choices, repeat=path.horizon_steps):
                runs.append(table.run(path, steps, init, start, seq))
    return runs


Point = tuple[int, int]  # (run index, step)


@dataclass
class InterpretedSystem:
    """Runs, their points and configurations, and the atom valuation.

    Points are numbered by their position in `points`: run by run, t ascending,
    so run i's point at time t sits at `starts[i] + t`, and its configuration is
    `configs[config_of[starts[i] + t]]`. `configs` joins the tables of the runs
    into one id space. The frame stores no partition: `config_classes` numbers
    a group's classes per configuration on each call, and `distributed_relation`
    gathers them along the points.
    """

    runs: list[SystemRun]
    env_machine: EnvMachine
    robot_machine: RobotMachine
    points: list[Point]
    starts: list[int]                        # per run: position of its t=0 point in points
    configs: list[StepState]
    config_of: array                         # configuration id per position in points
    atoms: dict[Hashable, frozenset[Point]] = field(default_factory=dict)

    @property
    def n_robots(self) -> int:
        return self.env_machine.n_robots

    @cached_property
    def config_order(self) -> list[int]:
        """The configuration ids that some point has, in the order the points first meet
        them; computed on first use, once per system, since no group changes it."""
        return list(dict.fromkeys(self.config_of))

    @property
    def classes(self) -> list[list[tuple[Point, ...]]]:
        """Per robot: class id -> member points, in points order."""
        out = []
        for ids in (distributed_relation(self, [r]) for r in range(self.n_robots)):
            members: list[list[Point]] = [[] for _ in range(max(ids) + 1)]
            for p, cid in zip(self.points, ids):
                members[cid].append(p)
            out.append([tuple(m) for m in members])
        return out

    def epi_at(self, point: Point, robot: int):
        run_idx, t = point
        run = self.runs[run_idx]
        return run.table[run.row[t]].epis[robot]

    def explored_at(self, point: Point) -> frozenset[int]:
        run_idx, t = point
        run = self.runs[run_idx]
        return run.table[run.row[t]].explored

    def with_atoms(self, atoms: dict[Hashable, frozenset[Point]]) -> "InterpretedSystem":
        """Same frame, different valuation (shares runs and configurations)."""
        return replace(self, atoms=atoms)


def _number_classes(configs: list[StepState], order: list[int],
                    group: Sequence[int]) -> dict[int, int]:
    """Class id per configuration id of `order`, keyed in that order, so ids are in
    first-occurrence order: configurations share an id when they give every robot of
    the group the same epistemic state."""
    key = itemgetter(*group)
    numbering: dict[Hashable, int] = {}
    return {c: numbering.setdefault(key(configs[c].epis), len(numbering)) for c in order}


def build_interpreted_system(
    runs: Sequence[SystemRun],
    env_machine: EnvMachine,
    robot_machine: RobotMachine,
    atoms: dict[Hashable, frozenset[Point]] | None = None,
) -> InterpretedSystem:
    """The frame of the runs: their points and the configuration id of each.

    The runs may come in any order and from several calls: each table's ids are
    shifted into one id space, so equal configurations of two tables get two ids
    but always the same classes.
    """
    if not runs:
        raise ValueError("cannot build an interpreted system from zero runs")
    configs = runs[0].table
    offsets = {id(configs): 0}
    for run in runs:
        if run.path.n_robots != env_machine.n_robots:
            raise ValueError("runs and environment disagree on the robot count")
        if id(run.table) not in offsets:
            offsets[id(run.table)] = len(configs)
            configs = configs + run.table  # a new list: each table stays as its call left it
    config_of = array("i")
    starts = []
    for run in runs:
        starts.append(len(config_of))
        offset = offsets[id(run.table)]
        config_of.extend(run.row if offset == 0 else [c + offset for c in run.row])
    points = [(i, t) for i, run in enumerate(runs) for t in range(len(run.row))]
    return InterpretedSystem(list(runs), env_machine, robot_machine, points, starts, configs,
                             config_of, dict(atoms or {}))


def config_classes(sys: InterpretedSystem, group: Iterable[int]) -> dict[int, int]:
    """The group's indistinguishability classes, as a class id per configuration id that
    some point has, in first-occurrence order. Each call numbers the classes anew."""
    group = sorted(set(group))
    if not group:
        raise ValueError("distributed knowledge needs a nonempty group")
    for r in group:
        if not 0 <= r < sys.n_robots:
            raise ValueError(f"robot {r} outside the system")
    return _number_classes(sys.configs, sys.config_order, group)


def distributed_relation(sys: InterpretedSystem, group: Iterable[int]) -> list[int]:
    """Intersection of the group's indistinguishability relations, as class ids per
    point in first-occurrence order: `config_classes` gathered along the points."""
    return list(map(config_classes(sys, group).__getitem__, sys.config_of))


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
