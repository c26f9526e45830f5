"""Finite robot and environment state machines for luminous look-compute-move systems.

The environment state is a tuple of (cell, light) per robot; robots read it
only through the environment's observation emitter. A light is the second part
of the action that `control` returns: each MOVE publishes it, each LOOK reads
it, and it carries whatever a protocol exposes. A robot's first phase is a MOVE,
which comes before any COMPUTE and so publishes the light of its initial state;
the grid environment shows that light from t = 0. Robot identity is folded into
the epistemic state so one machine serves a homogeneous fleet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .space import DIST_TOL, Grid, check_count

EXPLORE_SWEEP = "EXPLORE_SWEEP"
FLOOD_EXPLORE = "FLOOD_EXPLORE"
GATHER_MIN_REGION = "GATHER_MIN_REGION"
GATHER_OSCILLATE = "GATHER_OSCILLATE"

PROTOCOLS = (EXPLORE_SWEEP, FLOOD_EXPLORE, GATHER_MIN_REGION, GATHER_OSCILLATE)


class ModelDefinitionError(ValueError):
    """A machine table has no entry for an argument it was called with, or a machine
    component gave a value that must be hashable and is not."""


def _is_real(value) -> bool:
    """Whether `value` is an int or a float, and not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class Capabilities:
    visibility: str = "full"            # full | myopic
    view_radius: float | None = None
    movement: str = "rigid"             # rigid | non-rigid
    min_distance: float | None = None
    memory: str = "luminous"            # luminous | oblivious

    def __post_init__(self):
        if self.visibility not in ("full", "myopic"):
            raise ValueError(f"unknown visibility {self.visibility!r}")
        if self.visibility == "myopic" and not (_is_real(self.view_radius)
                                                and self.view_radius > 0):
            raise ValueError(f"myopic visibility needs view_radius > 0, got {self.view_radius!r}")
        if self.movement not in ("rigid", "non-rigid"):
            raise ValueError(f"unknown movement {self.movement!r}")
        if self.movement == "non-rigid":
            if not (_is_real(self.min_distance) and 0 < self.min_distance <= 1):
                raise ValueError(f"non-rigid movement needs min_distance in (0,1], "
                                 f"got {self.min_distance!r}")
        if self.memory not in ("luminous", "oblivious"):
            raise ValueError(f"unknown memory {self.memory!r}")


@dataclass(frozen=True)
class RobotMachine:
    """One robot's LCM program, shared by every robot of a homogeneous fleet.

    Every callable must be deterministic and free of side effects: equal
    arguments give equal results, and equal values are interchangeable, since one
    `enumerate_runs` call makes each call once per distinct arguments and keeps
    the first of equal values (`runs._Transitions` lists the memo keys).
    Epistemic states and observations must be hashable, since configurations are
    compared by equality, as the indistinguishability frame already does. Actions
    must be hashable too, since the environment's `evolve` is memoized by them.
    `enumerate_runs` raises `ModelDefinitionError` on any of these that is not.
    `step` and `footprint` only get an observation that `observe` made: each robot
    fires its phases in M -> L -> C order (`scheduler.fire`), so its COMPUTE follows
    its own LOOK, never the initial observation `None`. `observe` runs only on the
    emission of a robot that LOOKs, so a `table_fn` observe needs no entry for the
    emissions of robots that do not. A component that is not callable (`footprint`
    may be None) raises a `ValueError` that names it.
    """

    observe: Callable = field(hash=False)          # raw env emission -> observation
    step: Callable = field(hash=False)             # (epi, obs) -> epi
    control: Callable = field(hash=False)          # epi -> action
    initial_epi: Callable = field(hash=False)      # robot id -> epi
    footprint: Callable | None = field(default=None, hash=False)  # (rid, obs) -> frozenset[int]

    def __post_init__(self):
        for name in ("observe", "step", "control", "initial_epi", "footprint"):
            value = getattr(self, name)
            if not (callable(value) or name == "footprint" and value is None):
                raise ValueError(f"{name} {value!r} is not callable")


@dataclass(frozen=True)
class EnvMachine:
    """The environment: robot cells and lights, how MOVEs change them, what LOOKs see.

    As for `RobotMachine`, every callable must be deterministic and free of side
    effects: equal arguments give equal results, and equal values are
    interchangeable, and one `enumerate_runs` call makes each call once per
    distinct arguments. States must be hashable; `enumerate_runs` raises
    `ModelDefinitionError` on one that is not. The order of `adversary_choices`
    decides a run's `adv_seq`: per step, the first choice that gives the run's
    successor. Construction checks each field once: `n_robots` is an int >= 1, a
    component that is not callable (`positions` and `lights` may be None) raises a
    `ValueError` that names it, as does an `adversary_choices` that is not iterable;
    stored as a tuple, the choices must be nonempty and hashable, else
    `ModelDefinitionError`.
    """

    n_robots: int
    evolve: Callable = field(hash=False)      # (env, actions per robot, adv) -> env
    emit_obs: Callable = field(hash=False)    # (env, adv) -> tuple of per-robot raw observations
    make_initial_env: Callable = field(hash=False)  # cells -> env state
    adversary_choices: tuple = (None,)
    positions: Callable | None = field(default=None, hash=False)  # env -> tuple[int, ...]
    lights: Callable | None = field(default=None, hash=False)     # env -> tuple

    def __post_init__(self):
        check_count("n_robots", self.n_robots, 1)
        for name in ("evolve", "emit_obs", "make_initial_env", "positions", "lights"):
            value = getattr(self, name)
            if not (callable(value) or name in ("positions", "lights") and value is None):
                raise ValueError(f"{name} {value!r} is not callable")
        choices = self.adversary_choices
        try:
            choices = tuple(choices)
        except TypeError:
            raise ValueError(f"adversary_choices {choices!r} is not iterable") from None
        if not choices:
            raise ModelDefinitionError("env.adversary_choices is empty, so no step has a successor")
        for choice in choices:
            try:
                hash(choice)
            except TypeError:
                raise ModelDefinitionError(f"env.adversary_choices holds the unhashable choice "
                                           f"{choice!r}") from None
        object.__setattr__(self, "adversary_choices", choices)


def table_fn(mapping: dict, what: str) -> Callable:
    """Wrap an explicit transition table; missing entries are model errors."""

    def lookup(*key):
        k = key[0] if len(key) == 1 else key
        try:
            return mapping[k]
        except KeyError:
            raise ModelDefinitionError(f"{what} undefined for {k!r}") from None

    return lookup


# ---------------------------------------------------------------------------
# Built-in grid protocols

def _axis_step_toward(grid: Grid, src: int, dst: int):
    """One move along the axis-ordered shortest path, axis 0 first."""
    a, b = grid.cell_coords(src), grid.cell_coords(dst)
    for axis in range(grid.dim):
        if a[axis] != b[axis]:
            return (axis, 1 if b[axis] > a[axis] else -1)
    return None


def _make_env(grid: Grid, caps: Capabilities, n_robots: int, lights: tuple) -> EnvMachine:
    # index distance between cells one apart along each axis (row-major, axis 0 most significant)
    strides = [grid.cells_per_axis ** (grid.dim - 1 - axis) for axis in range(grid.dim)]

    def evolve(env, actions, adv):
        slots = list(env)
        for rid, action in enumerate(actions):
            if action is None:
                continue
            move, light = action
            cell, _ = slots[rid]
            if adv == ("freeze", rid):
                new_cell = cell  # non-rigid adversary truncates the motion
            elif move is None:
                new_cell = cell
            else:
                axis, delta = move
                c = grid.cell_coords(cell)[axis]
                moved = min(max(c + delta, 0), grid.cells_per_axis - 1)
                new_cell = cell + (moved - c) * strides[axis]
            slots[rid] = (new_cell, light)
        return tuple(slots)

    reach = caps.view_radius + DIST_TOL if caps.visibility == "myopic" else math.inf

    def emit_obs(env, adv):
        return tuple(
            tuple(slot if other == rid or grid.distance(here, slot[0]) <= reach else None
                  for other, slot in enumerate(env))
            for rid, (here, _) in enumerate(env))

    adversary: tuple = (None,)
    if caps.movement == "non-rigid":
        adversary = (None,) + tuple(("freeze", rid) for rid in range(n_robots))

    def make_initial_env(cells):
        cells = tuple(cells)
        if len(cells) != n_robots:
            raise ValueError(f"need {n_robots} initial cells, got {len(cells)}")
        for c in cells:
            check_count("initial cell", c, 0, grid.n_cells)
        return tuple(zip(cells, lights))

    return EnvMachine(
        n_robots=n_robots,
        evolve=evolve,
        emit_obs=emit_obs,
        adversary_choices=adversary,
        make_initial_env=make_initial_env,
        positions=lambda env: tuple(slot[0] for slot in env),
        lights=lambda env: tuple(slot[1] for slot in env),
    )


def _default_strips(grid: Grid, n_robots: int) -> list[tuple[int, ...]]:
    cells = list(grid.all_cells())
    chunk = (len(cells) + n_robots - 1) // n_robots
    return [tuple(cells[i * chunk:(i + 1) * chunk]) for i in range(n_robots)]


def _own_cell(rid: int, obs) -> frozenset[int]:
    return frozenset({obs[rid][0]})


def make_grid_walker(
    grid: Grid,
    caps: Capabilities,
    protocol: str,
    n_robots: int = 1,
    *,
    strips: Iterable[Iterable[int]] | None = None,
    rendezvous: Iterable[Iterable[int]] | None = None,
    broadcast_period: int = 1,
) -> tuple[RobotMachine, EnvMachine]:
    """Build one of the named grid protocols: its robot machine and its environment.

    Each protocol's builder gives only its program (`step`, `control` and
    `initial_epi`); every protocol observes its raw emission as it is, marks its own
    cell explored on each COMPUTE, and walks the same grid environment. That
    environment starts each robot with the light its first MOVE publishes, the one
    `control` gives its initial state, so it shows the initial lights of the robot it
    is returned with: a robot with another `initial_epi` or `control` needs its own.

    strips: per robot, the cells it is responsible for sweeping (exploration
    protocols); defaults to a contiguous partition of the grid.
    rendezvous: pairwise-disjoint candidate regions (gathering protocols).
    broadcast_period: FLOOD_EXPLORE publishes its known region on every
    broadcast_period-th COMPUTE; 1 is flooding proper.
    `n_robots` and `broadcast_period` are ints >= 1, and each strip or rendezvous cell
    that the protocol reads an int of the grid; ValueError names the first that is not.
    """
    check_count("n_robots", n_robots, 1)
    check_count("broadcast_period", broadcast_period, 1)
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    # flood publishes what it knows in its light; gather keeps its chosen region
    if caps.memory == "oblivious" and protocol != EXPLORE_SWEEP:
        raise ValueError(f"{protocol} carries state across cycles, so it cannot be oblivious")

    if protocol == EXPLORE_SWEEP:
        program = _build_sweep(grid, caps, n_robots, strips, flood=False, period=1)
    elif protocol == FLOOD_EXPLORE:
        program = _build_sweep(grid, caps, n_robots, strips, flood=True, period=broadcast_period)
    else:
        if rendezvous is None:
            raise ValueError(f"{protocol} needs rendezvous regions")
        regions = [frozenset(check_count(f"rendezvous region {i} cell", c, 0, grid.n_cells)
                             for c in r) for i, r in enumerate(rendezvous)]
        for i, u in enumerate(regions):
            if not u:
                raise ValueError(f"rendezvous region {i} is empty")
            for v in regions[i + 1:]:
                if u & v:
                    raise ValueError("rendezvous regions must be pairwise disjoint")
        program = _build_gather(grid, regions, oscillate=protocol == GATHER_OSCILLATE)
    lights = tuple(program["control"](program["initial_epi"](r))[1] for r in range(n_robots))
    robot = RobotMachine(observe=lambda raw: raw, footprint=_own_cell, **program)
    return robot, _make_env(grid, caps, n_robots, lights)


def _build_sweep(grid, caps, n_robots, strips, flood, period):
    strip_list = _default_strips(grid, n_robots) if strips is None else [
        tuple(sorted(check_count(f"strip {i} cell", c, 0, grid.n_cells) for c in s))
        for i, s in enumerate(strips)]
    if len(strip_list) != n_robots:
        raise ValueError("need one strip per robot")
    oblivious = caps.memory == "oblivious"

    # epi: (rid, pos | None, known region, compute counter mod period, published region)
    def initial_epi(rid):
        return (rid, None, frozenset(), 0, frozenset())

    def step(epi, obs):
        rid, _, known, ctr, published = epi
        cell = obs[rid][0]
        gained = {cell}
        if flood:
            for slot in obs:
                if slot is not None:
                    gained |= slot[1]
        known2 = frozenset(gained) if oblivious else known | gained
        ctr2 = (ctr + 1) % period
        published2 = known2 if flood and ctr2 == 0 else published
        return (rid, cell, known2, ctr2, published2)

    def control(epi):
        rid, pos, known, _, published = epi
        light = published if flood else None
        if pos is None:
            return (None, light)
        target = next((c for c in strip_list[rid] if c not in known), None)
        if target is None:
            return (None, light)
        return (_axis_step_toward(grid, pos, target), light)

    return dict(step=step, control=control, initial_epi=initial_epi)


def _build_gather(grid, regions, oscillate):
    m = len(regions)

    def region_of(cell):
        for i, reg in enumerate(regions):
            if cell in reg:
                return i
        return -1

    def target_cell(pos, reg):
        # deterministic rendezvous point: closest region cell, ties by index
        return min(reg, key=lambda c: (grid.distance(pos, c), c))

    def initial_epi(rid):
        return (rid, None, -1)

    if not oscillate:
        def step(epi, obs):
            rid, _, chosen = epi
            cell = obs[rid][0]
            candidates = [chosen] if chosen >= 0 else []
            own = region_of(cell)
            if own >= 0:
                candidates.append(own)
            for slot in obs:
                if slot is not None and slot[1] >= 0:
                    candidates.append(slot[1])
            return (rid, cell, min(candidates) if candidates else -1)
    else:
        def step(epi, obs):
            rid, _, chosen = epi
            cell = obs[rid][0]
            if chosen < 0:
                return (rid, cell, region_of(cell) if region_of(cell) >= 0 else 0)
            if cell in regions[chosen]:
                return (rid, cell, (chosen + 1) % m)  # arrived: defect to the next region
            return (rid, cell, chosen)

    def control(epi):
        _, pos, chosen = epi
        if pos is None or chosen < 0:
            return (None, chosen)
        if pos in regions[chosen]:
            return (None, chosen)
        return (_axis_step_toward(grid, pos, target_cell(pos, regions[chosen])), chosen)

    return dict(step=step, control=control, initial_epi=initial_epi)


def validate_machine(robot: RobotMachine, runs) -> list[str]:
    """Check `control` on every epistemic state of the system `runs`; empty report = valid.

    Reports each state that `control` has no entry for. `runs` is an `enumerate_runs`
    system, whose table holds each distinct state once, and each at some point, so the
    check reads the table, not the points; any other value raises a `ValueError`
    that names it. A `table_fn` miss in `step` already raises `ModelDefinitionError`
    while the runs are simulated.
    """
    from .runs import InterpretedSystem  # runs imports this module

    if not isinstance(runs, InterpretedSystem):
        raise ValueError(f"runs {runs!r} is not an enumerate_runs system")
    report: list[str] = []
    for epi in runs.configs.epis:
        try:
            robot.control(epi)
        except ModelDefinitionError as exc:
            report.append(f"control: {exc}")
    return report
