"""System runs and the interpreted system: the runs of one walk and a valuation.

A configuration is one semantic state at a step edge, a `StepState` tuple:
per-robot epistemic states and last observations, the environment state, and
the cumulative explored cell set. Each `enumerate_runs` call keeps one table of
the distinct configurations it reaches, numbered 0, 1, ... in creation order,
and returns its runs as an `InterpretedSystem`: their rows of ids into that
table, one id per step edge, laid end to end in one array, `config_of`, which
the walk writes as it finishes each run. A run is a view on that array, made
when asked for. Ids follow the walk, not the run list: the walk makes a fork's
successor when it finds the fork, before it walks on along the first successor,
so where the adversary branches, the runs read run by run may meet a
configuration before one of lower id. The walk makes a configuration only on a
run, and a run from every successor it computes, so every configuration of the
table is at some point of some run. A configuration is a tuple of part ids,
which `Configs` makes a `StepState` when read: one rule numbers parts and keys
alike, the first stored of equal values, and one memoizes the machine calls by
the ids of their arguments (`_Transitions` lists every table and memo). So each
distinct transition (configuration id, step, adversary choice) is computed once,
changes only the ids its phases change, and looks its configuration up once. A
step's LOOKs read the env state after its MOVEs.

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

The interpreted system is the runs themselves with a valuation, `atoms`: every
run has length H + 1, so a point (run, t) is its position run·(H + 1) + t, and
`Points` reads a point off its position and back. Indistinguishability for
robot r is equality of r's epistemic state between any two points.
"""

from __future__ import annotations

import itertools
from array import array
from collections.abc import Collection, Iterator, Sequence
from copy import copy
from dataclasses import dataclass, field
from operator import index, itemgetter, ne
from typing import Hashable, Iterable, NamedTuple

from .machine import EnvMachine, ModelDefinitionError, RobotMachine
from .scheduler import CapExceededError, TimePath, fire
from .space import check_count


class StepState(NamedTuple):
    """Semantic state at one step edge, made by `Configs` on each read; compares by value,
    and is its own `key`."""

    epis: tuple
    obss: tuple
    env: Hashable
    explored: frozenset[int]

    def key(self) -> StepState:
        return self


@dataclass(frozen=True, eq=False, slots=True)
class SystemRun:
    """One run: a row of configuration ids, one per step edge, into `table`.

    A view that `InterpretedSystem` makes on demand: `row` is a copy of the run's slice
    of the call's `config_of`, and `table` the call's `Configs` view. So two reads of
    `sys[i]` are equal field by field, but are not the same object. `lasso` is the
    first step of a closed run's loop, which covers steps [lasso, horizon), or None
    for an open run.
    """

    path: TimePath
    adv_seq: tuple
    init_cells: tuple[int, ...]
    row: array                                   # 'i' ids, len = horizon_steps + 1
    table: Sequence[StepState] = field(repr=False)
    lasso: int | None

    @property
    def states(self) -> list[StepState]:
        """The run's configurations, made anew on each access."""
        return list(map(self.table.__getitem__, self.row))

    @property
    def horizon(self) -> int:
        return len(self.row) - 1

    @property
    def is_open(self) -> bool:
        return self.lasso is None


class Configs(Sequence):
    """The configurations of one `enumerate_runs` call, read off their keys: a read-only
    sequence whose `configs[cid]` makes configuration `cid`'s `StepState` on each read.

    A configuration's key is a tuple of part ids, `(epi id per robot..., obs id per
    robot..., env id, explored id)`, into the value lists `epis`, `obss` and `envs`,
    which hold each distinct value once, the first stored. The walk keeps the explored
    sets' list, and fills `explored_of` when it ends, one explored set per
    configuration id, so `InterpretedSystem.explored_at` makes no `StepState`. The
    view holds only these lists, not the walk's dicts, so those die with the walk.
    """

    __slots__ = ("keys", "n_robots", "epis", "obss", "envs", "explored_of")

    def __init__(self, n_robots: int):
        self.keys: list[tuple[int, ...]] = []
        self.n_robots = n_robots
        self.epis: list = []
        self.obss: list = [None]                 # id 0: no LOOK yet
        self.envs: list = []
        self.explored_of: list[frozenset[int]] = []

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, cid: int) -> StepState:
        # an int index only
        key, n = self.keys[index(cid)], self.n_robots
        return StepState(tuple(map(self.epis.__getitem__, key[:n])),
                         tuple(map(self.obss.__getitem__, key[n:2 * n])),
                         self.envs[key[2 * n]], self.explored_of[cid])


def _store(ids: dict, values: list, value, *source) -> int:
    """The id of `value` in `values`, appending it if no equal value is stored: the one
    numbering rule of the walk's tables. `source` names the machine call that gave
    `value`, for the `ModelDefinitionError` that an unhashable one raises: the
    component, what the value is, then each argument's name and value. Keys, plans and
    explored sets are always hashable, so they need none."""
    try:
        vid = ids.setdefault(value, len(values))
    except TypeError:
        component, what, *args = source
        given = " and ".join(map("{} {!r}".format, args[::2], args[1::2]))
        raise ModelDefinitionError(f"{component} gave the unhashable {what} {value!r} for "
                                   f"{given}") from None
    if vid == len(values):
        values.append(value)
    return vid


class _Memo(dict):
    """A memo read by subscript: a missing key's value is `fill(key)`, computed once."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


class _Transitions:
    """The distinct configurations and transitions of one `enumerate_runs` call.

    Every table follows one of two rules: `_store` numbers values, and `_Memo`
    memoizes calls. Each numbered kind has one value list, holding each distinct value
    once, the first stored, and one dict from value to id: `config_ids` numbers the
    keys in `configs.keys` (`configs` is the call's `Configs` view, ids in creation
    order), `epi_ids`, `obs_ids` and `env_ids` the parts in `configs.epis`, `obss` and
    `envs`, `explored_ids` the explored sets in `explored`, `action_ids` the actions,
    and `plan_ids` the plans in `plans`, each step's movers, lookers and computers.
    `enumerate_runs` fills `configs.explored_of` from the keys when the walk ends.

    The memos, listed only here, are each a `_Memo`. `phase_steps` memoizes
    `scheduler.fire` by (phase residues, robot set), as its plan's step id and the next
    residues. A new transition's machine calls are memoized by their arguments' ids:
    `controls` by epi id (to an action id), `stepped` by (epi id, obs id) (to an epi
    id), `footprints` by (robot, obs id), `evolved` by (env id, action ids...,
    adversary choice) (to an env id), `emitted` by the (env id, adversary choice) that
    a LOOK reads (to the emissions as `emit_obs` gave them), and `observed` by (env id,
    adversary choice, robot) (to an obs id), so `observe` runs only on the emissions of
    robots that LOOK. A value to number that is not hashable raises
    `ModelDefinitionError`, naming its component and arguments. The memos fill from
    closures over the local tables, never over `self`, so no cycle keeps the table
    alive once the walk returns.

    `succ` maps each distinct transition to the configuration id it leads to, keyed by
    one int that `enumerate_runs` makes of (config id, step id, adversary choice
    index). It is the one plain dict, read and written inline by the walk: a `_Memo`
    would have to take the int apart again in its fill, and timed slower on both bench
    workloads.
    """

    def __init__(self, robot: RobotMachine, env: EnvMachine):
        self.robot = robot
        self.env = env
        self.n_robots = env.n_robots
        self.configs = configs = Configs(env.n_robots)
        epis, obss, envs = configs.epis, configs.obss, configs.envs
        self.explored: list[frozenset[int]] = [frozenset()]  # id 0: nothing explored yet
        self.plans = plans = []
        actions: list = [None]                   # id 0: no MOVE
        self.config_ids: dict[tuple, int] = {}
        self.epi_ids = epi_ids = {}
        self.env_ids = env_ids = {}
        self.explored_ids = {frozenset(): 0}
        obs_ids, action_ids, plan_ids = {None: 0}, {None: 0}, {}
        self.succ: dict[int, int] = {}

        def fire_step(firing: tuple) -> tuple[int, tuple]:
            plan, after = fire(*firing)
            return _store(plan_ids, plans, plan), after

        def control(epi: int) -> int:
            return _store(action_ids, actions, robot.control(epis[epi]),
                          "control", "action", "epistemic state", epis[epi])

        def evolve(move: tuple) -> int:
            state, acts, adv = envs[move[0]], tuple(map(actions.__getitem__, move[1:-1])), move[-1]
            return _store(env_ids, envs, env.evolve(state, acts, adv), "evolve", "env state",
                          "env state", state, "actions", acts, "adversary choice", adv)

        def emit(look: tuple):
            return env.emit_obs(envs[look[0]], look[1])

        def observe(look: tuple) -> int:
            raw = emitted[look[:2]][look[2]]
            return _store(obs_ids, obss, robot.observe(raw), "observe", "observation",
                          "emission", raw)

        def compute(computing: tuple) -> int:
            epi, obs = epis[computing[0]], obss[computing[1]]
            return _store(epi_ids, epis, robot.step(epi, obs), "step", "epistemic state",
                          "epistemic state", epi, "observation", obs)

        def footprint(marking: tuple) -> frozenset[int]:
            return robot.footprint(marking[0], obss[marking[1]])

        (self.phase_steps, self.controls, self.evolved, emitted, self.observed, self.stepped,
         self.footprints) = map(_Memo, (fire_step, control, evolve, emit, observe, compute,
                                        footprint))

    def initial(self, init_cells: Sequence[int]) -> int:
        """The id of the configuration that the placement `init_cells` starts in."""
        configs = self.configs
        epis = [_store(self.epi_ids, configs.epis, self.robot.initial_epi(r),
                       "initial_epi", "epistemic state", "robot", r)
                for r in range(self.n_robots)]
        env_id = _store(self.env_ids, configs.envs, self.env.make_initial_env(init_cells),
                        "make_initial_env", "env state", "cells", init_cells)
        return _store(self.config_ids, configs.keys, (*epis, *(0,) * self.n_robots, env_id, 0))

    def step(self, cid: int, sid: int, adv) -> int:
        """The transition function: one global step, step id `sid`, from configuration `cid`.

        Changes only the ids of the parts the step changes: a MOVE the env id, a LOOK
        the lookers' obs ids, a COMPUTE the computers' epi ids, and the explored id
        when a footprint adds a cell. Each distinct (`cid`, `sid`, `adv`) is computed
        once: the walk looks it up in `succ`, and calls `step` only on a miss."""
        n = self.n_robots
        key = self.configs.keys[cid]
        new = list(key)
        movers, lookers, computers = self.plans[sid]
        if movers:
            actions = [0] * n
            for r in movers:
                actions[r] = self.controls[key[r]]
            new[-2] = self.evolved[(key[-2], *actions, adv)]
        for r in lookers:
            new[n + r] = self.observed[new[-2], adv, r]
        if computers:
            explored = grown = self.explored[key[-1]]
            for r in computers:
                obs = new[n + r]
                new[r] = self.stepped[key[r], obs]
                if self.robot.footprint is not None:
                    cells = self.footprints[r, obs]
                    if not cells <= grown:
                        grown = grown | cells
            if grown is not explored:
                new[-1] = _store(self.explored_ids, self.explored, grown)
        return _store(self.config_ids, self.configs.keys, tuple(new))


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


class InterpretedSystem(Sequence):
    """The runs of one `enumerate_runs` call, in the walk's order, and a valuation: a
    read-only sequence whose `sys[i]` makes run i's `SystemRun` view on each read.

    `configs` is the call's table, and `config_of` the runs' rows laid end to end, the
    only per-point storage: every run has `length` = H + 1 ids, so run i's point at t
    is position `i * length + t`, and every configuration id is some point's. Per run,
    `paths`, `adv_seqs`, `inits` (placements) and `lassos` are parallel lists, so a
    reader of one field, such as `logic` of the loop starts, makes no view. No
    partition is stored: `config_classes` numbers a group's classes on each call.

    The valuation `atoms` maps an atom key to its point set; the walk leaves it empty,
    and `with_atoms` gives the same runs another. `atom_labels` keeps, per atom key,
    `[points, codes, projection]`: the point set `atoms` held when `logic` labelled the
    atom, one Kleene code per position, and their projection, one code per
    configuration id (the least among its points), or None until a K or D first asks
    for it. So each atom is labelled and projected once per system, however many
    formula nodes name it; an entry whose point set is no longer `atoms[key]` is made
    anew, projection and all.
    """

    __slots__ = ("configs", "config_of", "length", "paths", "adv_seqs", "inits", "lassos",
                 "atoms", "atom_labels")

    def __init__(self, configs: Configs, length: int):
        self.configs = configs
        self.config_of = array("i")              # 'i': configuration id per position
        self.length = length
        self.paths, self.adv_seqs, self.inits, self.lassos = [], [], [], []
        self.atoms: dict[Hashable, frozenset[Point]] = {}
        self.atom_labels: dict[Hashable, list] = {}

    def __len__(self) -> int:
        return len(self.lassos)

    def __getitem__(self, i: int) -> SystemRun:
        # an int index only; IndexError past either end
        start = range(0, len(self.config_of), self.length)[index(i)]
        return SystemRun(self.paths[i], self.adv_seqs[i], self.inits[i],
                         self.config_of[start:start + self.length], self.configs, self.lassos[i])

    @property
    def n_robots(self) -> int:
        return self.configs.n_robots

    @property
    def points(self) -> Points:
        """The points in position order, as a read-only sequence of (run, t)."""
        return Points(len(self), self.length)

    @property
    def classes(self) -> list[list[tuple[Point, ...]]]:
        """Per robot: class id -> member points, in position order."""
        out = []
        for r in range(self.n_robots):
            ids = config_classes(self, [r])
            members: list[list[Point]] = [[] for _ in range(max(ids, default=-1) + 1)]
            for p, c in zip(self.points, self.config_of):
                members[ids[c]].append(p)
            out.append([tuple(m) for m in members])
        return out

    def explored_at(self, point: Point) -> frozenset[int]:
        """The explored set at `point`; ValueError if it is no point of the system.

        A bool in a pair of ints is taken as the int it equals, so `(0, True)` is
        `(0, 1)`: a type test per point, 1.0 ms per 17,881 points in
        `Points.indicator`, would add about 5 ms to the ~18 ms that the bench's
        per-point valuation takes on ssync-flood's 96,228 points."""
        length = self.length
        # the run index's upper bound is tested by the lookup's own IndexError, and a
        # float or str coordinate fails a comparison or the lookup
        try:
            run_idx, t = point
            if run_idx >= 0 and 0 <= t < length:
                return self.configs.explored_of[self.config_of[run_idx * length + t]]
        except (IndexError, TypeError, ValueError):
            pass
        raise ValueError(f"point {point!r} outside the system")

    def with_atoms(self, atoms: dict[Hashable, frozenset[Point]]) -> InterpretedSystem:
        """The same runs with the valuation `atoms`: shares the table, `config_of` and
        the per-run lists, and starts an empty `atom_labels`."""
        other = copy(self)
        other.atoms, other.atom_labels = atoms, {}
        return other


def enumerate_runs(
    robot: RobotMachine,
    env: EnvMachine,
    init_cells: Sequence[Sequence[int]],
    schedules: Iterable[TimePath],
    *,
    cap: int = 100_000,
) -> InterpretedSystem:
    """The interpreted system of one run per (placement, schedule entry, distinct row),
    made in one depth-first walk, with an empty valuation.

    Per placement and path, each step branches on the distinct successors that
    `env.adversary_choices` give, in choice order: the walk follows the first and
    stacks the others, and walks them after the first one's runs, in that order. A
    run's `adv_seq` holds, per step, the first choice that gives its successor, so
    the runs and their `adv_seq` are the first occurrences of the adversary
    sequences' product, taken in order with equal rows dropped; a path listed
    twice gives its runs twice, and runs with equal `adv_seq` share one tuple. A
    step's LOOKs read the env state after its MOVEs. All runs share one table of
    distinct states and transitions, and each finished row is appended to the
    system's `config_of`. A run is walked on from the step where it leaves the run
    before it; a new path reuses the row up to the end of the schedule prefix it
    shares with the previous path, or to the previous run's first forked step if
    that comes first. A tail window closes a run as a lasso when its configuration
    and phase residues both repeat, and the run's `lasso` is the window's start.
    Making run `cap` + 1 raises CapExceededError, a machine value that the table must
    number and cannot hash ModelDefinitionError, and paths of different lengths, whose
    runs no position arithmetic could lay end to end, ValueError, as do a `cap` that is
    not an int >= 0, a schedule entry that is not a `TimePath` and a placement that is
    not a sequence. `schedules` is read once, so it may be an iterator. With no
    schedule entry or no placement the system has no run, and so no configuration;
    each placement is still checked, by `env.make_initial_env` too.
    """
    check_count("cap", cap, 0)
    schedules = list(schedules)
    for path in schedules:
        if not isinstance(path, TimePath):
            raise ValueError(f"schedule entry {path!r} is not a TimePath")
        if path.n_robots != env.n_robots:
            raise ValueError("path and environment disagree on the robot count")
        if path.horizon_steps != schedules[0].horizon_steps:
            raise ValueError("paths of different lengths")
    table = _Transitions(robot, env)
    runs = InterpretedSystem(table.configs, schedules[0].horizon_steps + 1 if schedules else 1)
    step, succ, succ_get = table.step, table.succ, table.succ.get
    first, *rest = env.adversary_choices
    steps: tuple = ()                            # the current path's steps
    sids: list[int] = []                         # and their step ids
    residues = [(0,) * env.n_robots]             # phase residues (phases fired per robot, mod 3)
    # each path's steps fired once per call, not once per placement: per path, the prefix
    # it shares with the path before it, and where its step ids and residues after that
    # prefix end in `fired_sids` and `fired_residues`
    shares, ends, fired_sids, fired_residues = array("i"), array("i"), array("i"), []
    for path in schedules:
        shared = _common_prefix(steps, path.steps)
        steps = path.steps
        del residues[shared + 1:]
        for robots in steps[shared:]:
            sid, after = table.phase_steps[residues[-1], robots]
            fired_sids.append(sid)
            fired_residues.append(after)
            residues.append(after)
        shares.append(shared)
        ends.append(len(fired_sids))
    seqs: dict[tuple, tuple] = {}                # adv_seq -> the first equal tuple made
    # a transition's key in succ: (cid * n_sids + sid) * n_adv + the choice's index
    n_sids, n_adv = len(table.plans), len(env.adversary_choices)
    for init in init_cells:
        if not isinstance(init, Sequence):
            raise ValueError(f"placement {init!r} is not a sequence of cells")
        init = tuple(init)
        if not schedules:                        # no run, so no configuration: only the check
            env.make_initial_env(init)
            continue
        row = array("i", [table.initial(init)])  # the current run's configuration ids
        seq: list = []                           # and adversary choices
        unforked = 0                             # its steps before its first forked choice
        begin = 0
        for path, shared, end in zip(schedules, shares, ends):
            del sids[shared:], residues[shared + 1:]
            sids += fired_sids[begin:end]
            residues += fired_residues[begin:end]
            begin = end
            start = min(shared, unforked)
            del row[start + 1:], seq[start:]
            cid = row[start]
            unforked = len(sids)
            forks: list[tuple] = []              # (step, successor, choice), next to walk on top
            while True:
                for t, sid in enumerate(sids[start:], start):
                    trans = (cid * n_sids + sid) * n_adv
                    if (nxt := succ_get(trans)) is None:
                        nxt = succ[trans] = step(cid, sid, first)
                    if rest:
                        # each distinct successor with its first choice; all but nxt stacked
                        successors = {nxt: first}
                        for adv in rest:
                            trans += 1
                            if (other := succ_get(trans)) is None:
                                other = succ[trans] = step(cid, sid, adv)
                            successors.setdefault(other, adv)
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
    runs.configs.explored_of = [table.explored[key[-1]] for key in runs.configs.keys]
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
        # an int index only; IndexError past either end
        return divmod(range(len(self))[index(k)], self.length)

    def __iter__(self) -> Iterator[Point]:
        return itertools.product(range(self.n_runs), range(self.length))

    def __contains__(self, point) -> bool:
        """Whether `point` is a pair of ints, not bools, that names a point of the frame."""
        try:
            run, t = point
        except (TypeError, ValueError):
            return False
        return (type(run) is int and type(t) is int
                and 0 <= run < self.n_runs and 0 <= t < self.length)

    def index(self, point: Point) -> int:
        """The position of `point`; ValueError if it is no point of the frame."""
        if point not in self:
            raise ValueError(f"point {point!r} outside the system")
        run, t = point
        return run * self.length + t

    def indicator(self, points: Collection[Point]) -> bytearray:
        """Per position, one byte: 1 if its point is one of `points`, else 0. ValueError
        names the first of them that is no point of the frame: not a pair of ints, its
        run index out of range, its t negative, or its t past the rows' end."""
        n_runs, length = self.n_runs, self.length
        marks = bytearray(len(self))
        # the test inline, not through `in`: the bounds alone took 5.4 against 10.2 ms on
        # ssync-flood's atom, 16.5 against 28.1 ms on sweep-long's, and the type test
        # adds 1.0 and 2.6 ms (CPython 3.11, shared 2-vCPU VM)
        try:
            for run, t in points:
                if not (type(run) is int and type(t) is int
                        and 0 <= run < n_runs and 0 <= t < length):
                    break
                marks[run * length + t] = 1
            else:
                return marks
        except (TypeError, ValueError):  # a value that is not a pair
            pass
        raise ValueError(f"point {next(p for p in points if p not in self)!r} outside the system")


def _number_classes(configs: Configs, group: Sequence[int]) -> list[int]:
    """Class id per configuration id, numbered in id order: configurations share an id
    when they give every robot of the group the same epistemic state, that is the same
    epi id, read off their keys."""
    key = itemgetter(*group)
    numbering: dict[Hashable, int] = {}
    return [numbering.setdefault(key(k), len(numbering)) for k in configs.keys]


def build_interpreted_system(runs: InterpretedSystem, env_machine: EnvMachine,
                             robot_machine: RobotMachine) -> InterpretedSystem:
    """A check on one `enumerate_runs` call's output, which is the interpreted system:
    `runs` itself, if it has a run and the environment's robot count, else ValueError.
    `robot_machine` is not read."""
    if not runs:
        raise ValueError("cannot build an interpreted system from zero runs")
    if runs.n_robots != env_machine.n_robots:
        raise ValueError("runs and environment disagree on the robot count")
    return runs


def config_classes(sys: InterpretedSystem, group: Iterable[int]) -> list[int]:
    """The group's indistinguishability classes, as a list of class ids indexed by
    configuration id, numbered in id order. Each call numbers the classes anew."""
    group = sorted({check_count("robot", r, 0, sys.n_robots) for r in group})
    if not group:
        raise ValueError("distributed knowledge needs a nonempty group")
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
