"""Finite robot and environment state machines for luminous look-compute-move systems.

The environment state is a tuple of (cell, light) per robot; robots read it
only through the environment's observation emitter. Lights are published
during MOVE, read during LOOK, and carry whatever a protocol exposes.
Robot identity is folded into the epistemic state so one machine serves a
homogeneous fleet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .space import DIST_TOL, Grid

EXPLORE_SWEEP = "EXPLORE_SWEEP"
FLOOD_EXPLORE = "FLOOD_EXPLORE"
GATHER_MIN_REGION = "GATHER_MIN_REGION"
GATHER_OSCILLATE = "GATHER_OSCILLATE"

PROTOCOLS = (EXPLORE_SWEEP, FLOOD_EXPLORE, GATHER_MIN_REGION, GATHER_OSCILLATE)


class ModelDefinitionError(ValueError):
    """A machine table has no entry for an argument it was called with."""


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
        if self.visibility == "myopic" and not (self.view_radius and self.view_radius > 0):
            raise ValueError("myopic visibility needs view_radius > 0")
        if self.movement not in ("rigid", "non-rigid"):
            raise ValueError(f"unknown movement {self.movement!r}")
        if self.movement == "non-rigid":
            if self.min_distance is None or not 0 < self.min_distance <= 1:
                raise ValueError("non-rigid movement needs min_distance in (0,1]")
        if self.memory not in ("luminous", "oblivious"):
            raise ValueError(f"unknown memory {self.memory!r}")


@dataclass(frozen=True)
class RobotMachine:
    """One robot's LCM program, shared by every robot of a homogeneous fleet.

    Every callable must be deterministic and free of side effects: equal
    arguments give equal results, and equal values are interchangeable. Runs are
    built from one table per `enumerate_runs` call, which runs `control` once per
    distinct epistemic state, `step` once per distinct (epi, obs) pair and
    `footprint` once per distinct (robot, obs) pair, and keeps the first of equal
    epistemic-state tuples, observation tuples and explored sets. Epistemic states
    and observations must be hashable, since configurations are compared by
    equality, as the indistinguishability frame already does. Actions need not be
    hashable.
    """

    observe: Callable = field(hash=False)          # raw env emission -> observation
    step: Callable = field(hash=False)             # (epi, obs) -> epi
    control: Callable = field(hash=False)          # epi -> action
    light: Callable = field(hash=False)            # epi -> light value
    initial_epi: Callable = field(hash=False)      # robot id -> epi
    caps: Capabilities = Capabilities()
    footprint: Callable | None = field(default=None, hash=False)  # (rid, obs) -> frozenset[int]


@dataclass(frozen=True)
class EnvMachine:
    """The environment: robot cells and lights, how MOVEs change them, what LOOKs see.

    As for `RobotMachine`, every callable must be deterministic and free of side
    effects: equal arguments give equal results, and equal values are
    interchangeable. States and adversary choices must be hashable. One
    `enumerate_runs` call runs `emit_obs` once per distinct (env state, adversary
    choice) pair, and `evolve` once per distinct transition with a MOVE, since the
    actions it takes need not be hashable; its table keeps the first of equal env
    states.
    """

    n_robots: int
    evolve: Callable = field(hash=False)      # (env, actions per robot, adv) -> env
    emit_obs: Callable = field(hash=False)    # (env, adv) -> tuple of per-robot raw observations
    make_initial_env: Callable = field(hash=False)  # cells -> env state
    adversary_choices: tuple = (None,)
    positions: Callable | None = field(default=None, hash=False)  # env -> tuple[int, ...]
    lights: Callable | None = field(default=None, hash=False)     # env -> tuple


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


def _make_env(grid: Grid, caps: Capabilities, n_robots: int, robot: RobotMachine) -> EnvMachine:
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
            if not 0 <= c < grid.n_cells:
                raise ValueError(f"initial cell {c} outside the grid")
        return tuple((c, robot.light(robot.initial_epi(rid))) for rid, c in enumerate(cells))

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
    if obs is None:
        return frozenset()
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
    """Build one of the named grid protocols.

    strips: per robot, the cells it is responsible for sweeping (exploration
    protocols); defaults to a contiguous partition of the grid.
    rendezvous: pairwise-disjoint candidate regions (gathering protocols).
    broadcast_period: FLOOD_EXPLORE publishes its known region on every
    broadcast_period-th COMPUTE; 1 is flooding proper.
    """
    if n_robots < 1:
        raise ValueError("n_robots must be >= 1")
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    # flood publishes what it knows in its light; gather keeps its chosen region
    if caps.memory == "oblivious" and protocol != EXPLORE_SWEEP:
        raise ValueError(f"{protocol} carries state across cycles, so it cannot be oblivious")

    if protocol == EXPLORE_SWEEP:
        return _build_sweep(grid, caps, n_robots, strips, flood=False, period=1)
    if protocol == FLOOD_EXPLORE:
        if broadcast_period < 1:
            raise ValueError("broadcast_period must be >= 1")
        return _build_sweep(grid, caps, n_robots, strips, flood=True, period=broadcast_period)

    if rendezvous is None:
        raise ValueError(f"{protocol} needs rendezvous regions")
    regions = [frozenset(r) for r in rendezvous]
    for i, u in enumerate(regions):
        if not u or not u <= set(grid.all_cells()):
            raise ValueError(f"rendezvous region {i} empty or outside the grid")
        for v in regions[i + 1:]:
            if u & v:
                raise ValueError("rendezvous regions must be pairwise disjoint")
    if protocol == GATHER_MIN_REGION:
        return _build_gather(grid, caps, n_robots, regions, oscillate=False)
    return _build_gather(grid, caps, n_robots, regions, oscillate=True)


def _build_sweep(grid, caps, n_robots, strips, flood, period):
    strip_list = (
        [tuple(sorted(s)) for s in strips] if strips is not None else _default_strips(grid, n_robots)
    )
    if len(strip_list) != n_robots:
        raise ValueError("need one strip per robot")
    for s in strip_list:
        if not set(s) <= set(grid.all_cells()):
            raise ValueError("strip contains cells outside the grid")
    oblivious = caps.memory == "oblivious"

    # epi: (rid, pos | None, known region, compute counter mod period, published region)
    def initial_epi(rid):
        return (rid, None, frozenset(), 0, frozenset())

    def step(epi, obs):
        if obs is None:
            return epi
        rid, _, known, ctr, published = epi
        cell = obs[rid][0]
        gained = {cell}
        if flood:
            for slot in obs:
                if slot is not None and isinstance(slot[1], frozenset):
                    gained |= slot[1]
        known2 = frozenset(gained) if oblivious else known | gained
        ctr2 = (ctr + 1) % period
        published2 = published
        if flood and (ctr + 1) % period == 0:
            published2 = known2
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

    def light(epi):
        return epi[4] if flood else None

    robot = RobotMachine(
        observe=lambda raw: raw,
        step=step,
        control=control,
        light=light,
        initial_epi=initial_epi,
        caps=caps,
        footprint=_own_cell,
    )
    return robot, _make_env(grid, caps, n_robots, robot)


def _build_gather(grid, caps, n_robots, regions, oscillate):
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
            if obs is None:
                return epi
            rid, _, chosen = epi
            cell = obs[rid][0]
            candidates = [chosen] if chosen >= 0 else []
            own = region_of(cell)
            if own >= 0:
                candidates.append(own)
            for slot in obs:
                if slot is not None and isinstance(slot[1], int) and slot[1] >= 0:
                    candidates.append(slot[1])
            return (rid, cell, min(candidates) if candidates else -1)
    else:
        def step(epi, obs):
            if obs is None:
                return epi
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

    def light(epi):
        return epi[2]

    robot = RobotMachine(
        observe=lambda raw: raw,
        step=step,
        control=control,
        light=light,
        initial_epi=initial_epi,
        caps=caps,
        footprint=_own_cell,
    )
    return robot, _make_env(grid, caps, n_robots, robot)


def validate_machine(robot: RobotMachine, runs: Iterable) -> list[str]:
    """Check the machine on the epistemic states that `runs` reach; empty report = valid.

    Reports each such state that `control` or `light` has no entry for, and an
    oblivious robot whose light differs across them. `runs` come from
    `enumerate_runs`; a `table_fn` miss in `step` already raises
    `ModelDefinitionError` while they are simulated.
    """
    report: list[str] = []
    lights = set()
    for epi in dict.fromkeys(e for run in runs for state in run.states for e in state.epis):
        try:
            robot.control(epi)
        except ModelDefinitionError as exc:
            report.append(f"control: {exc}")
        try:
            lights.add(robot.light(epi))
        except ModelDefinitionError as exc:
            report.append(f"light: {exc}")
    if robot.caps.memory == "oblivious" and len(lights) > 1:
        report.append("oblivious robot has a non-constant light map")
    return report
