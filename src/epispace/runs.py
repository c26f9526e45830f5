"""System runs and the interpreted system (epistemic frame + valuation).

A configuration is one semantic state at a step edge, a `StepState` tuple:
per-robot epistemic states and last observations, the environment state, and
the cumulative explored cell set. Each `enumerate_runs` call keeps one table of
the distinct configurations it reaches, numbered 0, 1, ... in creation order,
and returns its runs as `Runs`: their rows of ids into that table, one id per
step edge, laid end to end in one array, `config_of`, which the walk writes as
it finishes each run. A run is a view on that array, made when asked for. Ids
follow the walk, not the run list: the walk makes a fork's successor when it
finds the fork, before it walks on along the first successor, so where the
adversary branches, the runs read run by run may meet a configuration before
one of lower id. The walk makes a run from every successor it computes, so
every configuration of the table is at some point of some run. The table
stores each distinct part once as well: equal `epis`, `obss`, env states and
explored sets of its configurations are one object, the first stored. Each
distinct transition (configuration id, step, adversary choice) is computed
once, from machine calls memoized for the call (`_Transitions` lists their
keys), builds only the parts its phases change, and looks its configuration up
once. A step's LOOKs read the env state after its MOVEs.

A system is a set of runs, and an adversary choice is no part of a
configuration: a run is its placement, schedule entry and row, and
`enumerate_runs` makes each distinct one once. It walks depth first, and at
each step branches only on the distinct successors that the adversary choices
give, forking in `adversary_choices` order; a run's `adv_seq` names, per step,
the first choice that gives its successor. The cap counts runs as they are
made. The walk goes on from where a run leaves the run before it, in any
schedule order, and closes a run as a lasso where its configuration and phase
residues repeat: the run's `lasso` is the step where that loop starts.
`scheduler.fire` gives the phases.

An interpreted system is the frame of one call's `Runs`, taken as they are:
every run has length H + 1, the frame's `config_of` is the runs' own, so a
point (run, t) is its position run·(H + 1) + t, and `Points` reads a point
off its position and back.
Indistinguishability for robot r is equality of r's epistemic state between
any two points.
"""

from __future__ import annotations

import itertools
from array import array
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field, replace
from functools import cache, cached_property
from operator import index, itemgetter, ne
from typing import Hashable, Iterable, NamedTuple

from .machine import EnvMachine, ModelDefinitionError, RobotMachine
from .scheduler import CapExceededError, TimePath, fire


class StepState(NamedTuple):
    """Semantic state at one step edge; the tuple is its own key in a call's table."""

    epis: tuple
    obss: tuple
    env: Hashable
    explored: frozenset[int]

    def key(self) -> StepState:
        return self


@dataclass(frozen=True, eq=False, slots=True)
class SystemRun:
    """One run: a row of configuration ids, one per step edge, into `table`.

    A view that `Runs` makes on demand: `row` is a copy of the run's slice of the
    call's `config_of`, and `table` the call's configuration list. So two reads of
    `runs[i]` are equal field by field, but are not the same object. `lasso` is the
    first step of a closed run's loop, which covers steps [lasso, horizon), or None
    for an open run.
    """

    path: TimePath
    adv_seq: tuple
    init_cells: tuple[int, ...]
    row: array                                   # 'i' ids, len = horizon_steps + 1
    table: list[StepState] = field(repr=False)
    lasso: int | None

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


class _Transitions:
    """The distinct configurations and transitions of one `enumerate_runs` call.

    `configs` is the call's table: configuration id -> `StepState`, ids given in
    creation order. Each configuration is one object, both the key of its id in
    `config_ids` and its entry in `configs`, and it is made of shared parts: `parts`
    holds one dict per field, value -> the first equal value stored, so a new
    configuration reuses the `epis`, `obss`, env state and explored set of earlier
    ones where they are equal. `parts` lives as long as `config_ids`. Steps are
    numbered too: `plans` maps a step id to the plan `scheduler.fire` gives it, the
    step's movers, lookers and computers, and `phase_steps` memoizes `fire` by (phase
    residues, robot set), as the step id and the next residues. `succ` maps each
    distinct (config id, step id, adversary choice) to the id it leads to; `step`
    owns it, looking each transition up there and storing each one it computes.

    These are the per-call memo keys, the one place they are listed: a new
    transition is computed from machine calls that are each memoized by their own
    arguments, `control` by epi, `step` by (epi, obs), `footprint` by (robot, obs),
    `evolve` by (env state, actions, adversary choice), and `emit_obs` by the (env
    state, adversary choice) that the LOOK reads. So actions must be hashable;
    `control` raises `ModelDefinitionError` on one that is not.
    """

    def __init__(self, robot: RobotMachine, env: EnvMachine):
        self.robot = robot
        self.env = env
        self.config_ids: dict[StepState, int] = {}
        # sharing equal parts holds sweep-long's peak RSS at 56.2 MB; without it, 62.4 MB
        self.parts: tuple[dict, ...] = tuple({} for _ in StepState._fields)
        self.configs: list[StepState] = []
        self.succ: dict[tuple, int] = {}
        self.step_ids: dict[tuple, int] = {}
        self.plans: list[tuple] = []
        self.phase_steps: dict[tuple, tuple[int, tuple]] = {}
        self.compute = cache(robot.step)
        self.footprint = cache(robot.footprint) if robot.footprint is not None else None
        self.emit_obs = cache(env.emit_obs)
        envs = self.parts[2]

        @cache
        def control(epi):
            action = robot.control(epi)
            try:
                hash(action)
            except TypeError:
                raise ModelDefinitionError(f"control gave the unhashable action {action!r} "
                                           f"for epistemic state {epi!r}") from None
            return action

        @cache
        def evolve(env_state, actions, adv):
            moved = env.evolve(env_state, actions, adv)
            return envs.setdefault(moved, moved)

        self.control = control
        self.evolve = evolve

    def intern(self, state: StepState) -> int:
        """The id of the configuration `state`, new ones last, in one table lookup.

        `state`'s parts must already be the ones `parts` stores."""
        cid = self.config_ids.setdefault(state, len(self.configs))
        if cid == len(self.configs):
            self.configs.append(state)
        return cid

    def initial(self, init_cells: Sequence[int]) -> int:
        n = self.env.n_robots
        epis = tuple(self.robot.initial_epi(r) for r in range(n))
        state = (epis, (None,) * n, self.env.make_initial_env(init_cells), frozenset())
        return self.intern(StepState._make(map(dict.setdefault, self.parts, state, state)))

    def phase_step(self, residues: tuple, robots: tuple) -> tuple[int, tuple]:
        """The step id of `robots` firing at phase `residues`, and the residues after it:
        `fire`, memoized, with its plan numbered."""
        found = self.phase_steps.get((residues, robots))
        if found is None:
            plan, after = fire(residues, robots)
            sid = self.step_ids.setdefault(plan, len(self.plans))
            if sid == len(self.plans):
                self.plans.append(plan)
            found = self.phase_steps[residues, robots] = (sid, after)
        return found

    def step(self, cid: int, sid: int, adv) -> int:
        """The transition function: one global step, step id `sid`, from configuration `cid`.

        Builds only the parts the step changes, each stored through its `parts` dict
        where it is made: a MOVE a new env state, a LOOK new `obss`, a COMPUTE new
        `epis`, and a new explored set when a footprint adds a cell. The other parts
        are the source configuration's own objects. Each distinct (`cid`, `sid`, `adv`)
        is computed once: `step` looks it up in `succ` and stores what it computes."""
        if (nxt := self.succ.get(key := (cid, sid, adv))) is not None:
            return nxt
        epis, obss, env_state, explored = self.configs[cid]
        movers, lookers, computers = self.plans[sid]

        if movers:
            actions: list = [None] * self.env.n_robots
            for r in movers:
                actions[r] = self.control(epis[r])
            env_state = self.evolve(env_state, tuple(actions), adv)
        if lookers:
            raws = self.emit_obs(env_state, adv)
            seen = list(obss)
            for r in lookers:
                seen[r] = self.robot.observe(raws[r])
            obss = tuple(seen)
            obss = self.parts[1].setdefault(obss, obss)
        if computers:
            grown = explored
            stepped = list(epis)
            for r in computers:
                stepped[r] = self.compute(epis[r], obss[r])
                if self.footprint is not None:
                    cells = self.footprint(r, obss[r])
                    if not cells <= grown:
                        grown = grown | cells
            epis = tuple(stepped)
            epis = self.parts[0].setdefault(epis, epis)
            if grown is not explored:
                explored = self.parts[3].setdefault(grown, grown)
        return self.succ.setdefault(key, self.intern(
            tuple.__new__(StepState, (epis, obss, env_state, explored))))


def _common_prefix(a: Sequence, b: Sequence) -> int:
    """The length of the longest common prefix of `a` and `b`."""
    return next(itertools.compress(itertools.count(), map(ne, a, b)), min(len(a), len(b)))


def _tail_lasso(row: array, residues: list[tuple]) -> int | None:
    """The loop start of the shortest tail window that ends in its start's configuration
    and residues, or None if no tail window does."""
    horizon = len(row) - 1
    last = row[horizon]
    for start in range(horizon - 1, row.index(last) - 1, -1):
        if row[start] == last and residues[start] == residues[horizon]:
            return start
    return None


class Runs(Sequence):
    """The runs of one `enumerate_runs` call, in the walk's order: a read-only sequence
    whose `runs[i]` makes run i's `SystemRun` view on each read.

    `configs` is the call's table, and `config_of` the runs' rows laid end to end:
    every run has `length` = H + 1 ids, so run i's row starts at position i * length.
    Per run, `paths`, `adv_seqs`, `inits` (placements) and `lassos` are parallel
    lists, so a reader of one field, such as `logic` of the loop starts, makes no view.
    """

    __slots__ = ("configs", "config_of", "length", "paths", "adv_seqs", "inits", "lassos")

    def __init__(self, configs: list[StepState], length: int):
        self.configs = configs
        self.config_of = array("i")
        self.length = length
        self.paths, self.adv_seqs, self.inits, self.lassos = [], [], [], []

    def __len__(self) -> int:
        return len(self.lassos)

    def __getitem__(self, i: int) -> SystemRun:
        # an int index only; IndexError past either end
        start = range(0, len(self.config_of), self.length)[index(i)]
        return SystemRun(self.paths[i], self.adv_seqs[i], self.inits[i],
                         self.config_of[start:start + self.length], self.configs, self.lassos[i])


def enumerate_runs(
    robot: RobotMachine,
    env: EnvMachine,
    init_cells: Sequence[Sequence[int]],
    schedules: Iterable[TimePath],
    *,
    cap: int = 100_000,
) -> Runs:
    """One run per (placement, schedule entry, distinct row), in one depth-first walk.

    Per placement and path, each step branches on the distinct successors that
    `env.adversary_choices` give, in choice order: the walk follows the first and
    stacks the others, and walks them after the first one's runs, in that order. A
    run's `adv_seq` holds, per step, the first choice that gives its successor, so
    the runs and their `adv_seq` are the first occurrences of the adversary
    sequences' product, taken in order with equal rows dropped; a path listed
    twice gives its runs twice, and runs with equal `adv_seq` share one tuple. A
    step's LOOKs read the env state after its MOVEs. All runs share one table of
    distinct states and transitions, and each finished row is appended to the
    `Runs`' `config_of`. A run is walked on from the step where it leaves the run
    before it; a new path reuses the row up to the end of the schedule prefix it
    shares with the previous path, or to the previous run's first forked step if
    that comes first. A tail window closes a run as a lasso when its configuration
    and phase residues both repeat, and the run's `lasso` is the window's start.
    Making run `cap` + 1 raises CapExceededError, an empty `env.adversary_choices`
    ModelDefinitionError, and paths of different lengths, whose runs no position
    arithmetic could lay end to end, ValueError. `schedules` is read once, so it may
    be an iterator.
    """
    if not env.adversary_choices:
        raise ModelDefinitionError("env.adversary_choices is empty, so no step has a successor")
    schedules = list(schedules)
    for path in schedules:
        if path.n_robots != env.n_robots:
            raise ValueError("path and environment disagree on the robot count")
        if path.horizon_steps != schedules[0].horizon_steps:
            raise ValueError("paths of different lengths")
    table = _Transitions(robot, env)
    runs = Runs(table.configs, schedules[0].horizon_steps + 1 if schedules else 1)
    step = table.step
    first, *rest = env.adversary_choices
    steps: tuple = ()                            # the current path's steps
    sids: list[int] = []                         # and their step ids
    residues = [(0,) * env.n_robots]             # phase residues (phases fired per robot, mod 3)
    seqs: dict[tuple, tuple] = {}                # adv_seq -> the first equal tuple made
    for init in init_cells:
        init = tuple(init)
        row = array("i", [table.initial(init)])  # the current run's configuration ids
        seq: list = []                           # and adversary choices
        unforked = 0                             # its steps before its first forked choice
        for path in schedules:
            shared = _common_prefix(steps, path.steps)
            steps = path.steps
            del sids[shared:], residues[shared + 1:]
            for robots in steps[shared:]:
                sid, after = table.phase_step(residues[-1], robots)
                sids.append(sid)
                residues.append(after)
            start = min(shared, unforked)
            del row[start + 1:], seq[start:]
            cid = row[start]
            unforked = len(steps)
            forks: list[tuple] = []              # (step, successor, choice), next to walk on top
            while True:
                for t, sid in enumerate(sids[start:], start):
                    nxt = step(cid, sid, first)
                    if rest:
                        # each distinct successor with its first choice; all but nxt stacked
                        successors = {nxt: first}
                        for adv in rest:
                            successors.setdefault(step(cid, sid, adv), adv)
                        forks.extend((t, *fork) for fork in reversed([*successors.items()][1:]))
                    cid = nxt
                    row.append(cid)
                    seq.append(first)
                if len(runs) == cap:
                    raise CapExceededError(f"run enumeration exceeds cap {cap}")
                runs.config_of.extend(row)
                runs.paths.append(path)
                runs.adv_seqs.append(seqs.setdefault(adv_seq := tuple(seq), adv_seq))
                runs.inits.append(init)
                runs.lassos.append(_tail_lasso(row, residues))
                if not forks:
                    break
                t, cid, adv = forks.pop()
                unforked = min(unforked, t)
                del row[t + 1:], seq[t:]
                row.append(cid)
                seq.append(adv)
                start = t + 1
    return runs


Point = tuple[int, int]  # (run index, step): a name for a position, made when asked for


class Points(Sequence):
    """The points of a frame, read off their positions: run by run, t ascending. Every
    run has `length` points, so run i's point at t is at position `i * length + t`.
    Holds only the two counts, and makes each (run, t) tuple when asked for it."""

    __slots__ = ("n_runs", "length")

    def __init__(self, n_runs: int, length: int):
        self.n_runs = n_runs
        self.length = length

    def __len__(self) -> int:
        return self.n_runs * self.length

    def __getitem__(self, k: int) -> Point:
        n = len(self)
        k = index(k)
        if not -n <= k < n:
            raise IndexError(f"point position {k} out of range for {n} points")
        return divmod(k % n, self.length)

    def __iter__(self) -> Iterator[Point]:
        return itertools.product(range(self.n_runs), range(self.length))

    def __contains__(self, point) -> bool:
        """Whether `point` is a pair of integers that names a point of the frame."""
        try:
            run, t = map(index, point)
        except (TypeError, ValueError):
            return False
        return 0 <= run < self.n_runs and 0 <= t < self.length

    def index(self, point: Point) -> int:
        """The position of `point`; ValueError if it is no point of the frame."""
        if point not in self:
            raise ValueError(f"point {point!r} outside the system")
        run, t = map(index, point)
        return run * self.length + t

    def indicator(self, points: Iterable[Point]) -> bytearray:
        """Per position, one byte: 1 if its point is one of `points`, else 0. ValueError
        names the first of them that is no point of the frame: its run index is out of
        range, its t negative, or its t past the rows' end."""
        n_runs, length = self.n_runs, self.length
        marks = bytearray(len(self))
        # the bounds test inline, not through `index`: 5.4 against 10.2 ms on ssync-flood's
        # atom, 16.5 against 28.1 ms on sweep-long's (CPython 3.11, shared 2-vCPU VM)
        for run, t in points:
            if not (0 <= run < n_runs and 0 <= t < length):
                raise ValueError(f"point {(run, t)!r} outside the system")
            marks[run * length + t] = 1
        return marks


@dataclass
class InterpretedSystem:
    """Runs, their points and configurations, and the atom valuation.

    `runs` is one `enumerate_runs` call's `Runs`, and `configs` and `config_of` are
    its table and id array, the same objects. A point is its position: the runs'
    rows, all of one length H + 1, lie end to end, so run i's point at time t sits
    at `i * (H + 1) + t`, and its configuration is `configs[config_of[i * (H + 1) +
    t]]`. `config_of` is the only per-point storage; `points` names the positions as
    (run, t) when asked. Every configuration id names a configuration that some
    point has. The frame stores no partition: `config_classes` numbers a group's
    classes per configuration on each call. `atom_labels` keeps, per atom key, the
    point set `atoms` held when `logic` labelled the atom and the labels it made
    from it, so each atom is labelled once per system, however many formula nodes
    name it, parsed or built.
    """

    runs: Runs
    env_machine: EnvMachine
    robot_machine: RobotMachine
    configs: list[StepState]
    config_of: array                         # 'i': configuration id per position
    atoms: dict[Hashable, frozenset[Point]] = field(default_factory=dict)

    @property
    def n_robots(self) -> int:
        return self.env_machine.n_robots

    @property
    def points(self) -> Points:
        """The points in position order, as a read-only sequence of (run, t)."""
        return Points(len(self.runs), self.runs.length)

    @cached_property
    def atom_labels(self) -> dict[Hashable, tuple[frozenset[Point], bytes]]:
        """Per atom key: the point set its labels were made from, and the labels, one
        Kleene code per position; filled by `logic`, and empty on each new system."""
        return {}

    @property
    def classes(self) -> list[list[tuple[Point, ...]]]:
        """Per robot: class id -> member points, in position order."""
        out = []
        for r in range(self.n_robots):
            ids = config_classes(self, [r])
            members: list[list[Point]] = [[] for _ in range(max(ids) + 1)]
            for p, c in zip(self.points, self.config_of):
                members[ids[c]].append(p)
            out.append([tuple(m) for m in members])
        return out

    def explored_at(self, point: Point) -> frozenset[int]:
        """The explored set at `point`; ValueError if it is no point of the frame."""
        run_idx, t = point
        length = self.runs.length
        # the run index's upper bound is tested by the lookup's own IndexError
        if run_idx >= 0 and 0 <= t < length:
            try:
                return self.configs[self.config_of[run_idx * length + t]].explored
            except IndexError:
                pass
        raise ValueError(f"point {point!r} outside the system")

    def with_atoms(self, atoms: dict[Hashable, frozenset[Point]]) -> "InterpretedSystem":
        """Same frame, different valuation; shares runs and configurations, but not
        `atom_labels`."""
        return replace(self, atoms=atoms)


def _number_classes(configs: list[StepState], group: Sequence[int]) -> list[int]:
    """Class id per configuration id, numbered in id order: configurations share an id
    when they give every robot of the group the same epistemic state."""
    key = itemgetter(*group)
    numbering: dict[Hashable, int] = {}
    return [numbering.setdefault(key(state.epis), len(numbering)) for state in configs]


def build_interpreted_system(runs: Runs, env_machine: EnvMachine,
                             robot_machine: RobotMachine) -> InterpretedSystem:
    """The frame of one `enumerate_runs` call's runs, taken as they are: its `configs`
    and `config_of` are the runs' own, so it copies nothing. Zero runs, or runs of
    another robot count than the environment's, raise ValueError."""
    if not runs:
        raise ValueError("cannot build an interpreted system from zero runs")
    if runs.paths[0].n_robots != env_machine.n_robots:
        raise ValueError("runs and environment disagree on the robot count")
    return InterpretedSystem(runs, env_machine, robot_machine, runs.configs, runs.config_of)


def config_classes(sys: InterpretedSystem, group: Iterable[int]) -> list[int]:
    """The group's indistinguishability classes, as a list of class ids indexed by
    configuration id, numbered in id order. Each call numbers the classes anew."""
    group = sorted(set(group))
    if not group:
        raise ValueError("distributed knowledge needs a nonempty group")
    for r in group:
        if not 0 <= r < sys.n_robots:
            raise ValueError(f"robot {r} outside the system")
    return _number_classes(sys.configs, group)


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
