"""System runs and the interpreted system (epistemic frame + valuation).

A run records one semantic state per global step edge: per-robot epistemic
states and last observations, the environment state, and the cumulative
explored cell set. Indistinguishability for robot r is equality of r's
epistemic state across (run, step) points, regardless of run or step.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Hashable, Iterable, Sequence

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

    @property
    def cycles(self) -> float:
        return self.length / len(PHASES)


@dataclass(frozen=True)
class SystemRun:
    path: TimePath
    adv_seq: tuple
    init_cells: tuple[int, ...]
    states: tuple[StepState, ...]           # one per step edge, len = horizon_steps + 1
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
    adv_seq: Sequence | None = None,
    *,
    pre_move_look: bool = False,
) -> SystemRun:
    """Deterministically execute one schedule; MOVEs commit before LOOKs per step."""
    n = env.n_robots
    if path.n_robots != n:
        raise ValueError("path and environment disagree on the robot count")
    report = validate_path(path)
    if report:
        raise ValueError("invalid time path: " + "; ".join(report))
    steps = path.horizon_steps
    if adv_seq is None:
        adv_seq = (None,) * steps
    adv_seq = tuple(adv_seq)
    if len(adv_seq) != steps:
        raise ValueError("adversary sequence length must match the path")

    epis = [robot.initial_epi(r) for r in range(n)]
    obss: list = [None] * n
    env_state = env.make_initial_env(init_cells)
    explored: frozenset[int] = frozenset()

    states = [StepState(tuple(epis), tuple(obss), env_state, explored)]
    for t in range(steps):
        chunk = path.activations[t]
        adv = adv_seq[t]
        movers = sorted(r for r, ph in chunk.items() if ph == "M")
        lookers = sorted(r for r, ph in chunk.items() if ph == "L")
        computers = sorted(r for r, ph in chunk.items() if ph == "C")

        pre_env = env_state
        if movers:
            actions: list = [None] * n
            for r in movers:
                actions[r] = robot.control(epis[r])
            env_state = env.evolve(env_state, tuple(actions), adv)
        if lookers:
            raws = env.emit_obs(pre_env if pre_move_look else env_state, adv)
            for r in lookers:
                obss[r] = robot.observe(raws[r])
        for r in computers:
            epis[r] = robot.step(epis[r], obss[r])
            if robot.footprint is not None:
                explored = explored | robot.footprint(r, obss[r])
        states.append(StepState(tuple(epis), tuple(obss), env_state, explored))

    lasso = _detect_lasso(path, tuple(states))
    return SystemRun(path, adv_seq, tuple(init_cells), tuple(states), lasso)


def _detect_lasso(path: TimePath, states: tuple[StepState, ...]) -> Lasso | None:
    """Tail lasso: smallest replayable window whose end state equals its start."""
    horizon = len(states) - 1
    last = states[horizon].key()
    for length in range(1, horizon + 1):
        start = horizon - length
        if states[start].key() != last:
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
    adversary: Sequence | None = None,
    cap: int = 100_000,
    pre_move_look: bool = False,
) -> list[SystemRun]:
    """One run per (schedule, adversary sequence, initial placement), deterministic order."""
    if not schedules:
        return []
    adv_choices = tuple(adversary) if adversary is not None else env.adversary_choices
    specs: list[tuple] = []
    for init in init_cells:
        for path in schedules:
            if len(adv_choices) == 1:
                seqs: Iterable = [(adv_choices[0],) * path.horizon_steps]
            else:
                n_seqs = len(adv_choices) ** path.horizon_steps
                if len(specs) + n_seqs > cap:
                    raise CapExceededError(
                        f"run enumeration exceeds cap {cap} (adversary branching)"
                    )
                seqs = itertools.product(adv_choices, repeat=path.horizon_steps)
            for seq in seqs:
                specs.append((path, tuple(init), seq))
                if len(specs) > cap:
                    raise CapExceededError(f"run enumeration exceeds cap {cap}")
    return [simulate(robot, env, path, init, seq, pre_move_look=pre_move_look)
            for path, init, seq in specs]


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
