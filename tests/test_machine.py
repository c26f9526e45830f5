import re
from dataclasses import replace

import pytest

from epispace.machine import (
    EXPLORE_SWEEP,
    FLOOD_EXPLORE,
    GATHER_MIN_REGION,
    GATHER_OSCILLATE,
    Capabilities,
    EnvMachine,
    ModelDefinitionError,
    RobotMachine,
    make_grid_walker,
    table_fn,
    validate_machine,
)
from epispace.runs import enumerate_runs
from epispace.scheduler import FSYNC, SSYNC, TimePath, gen_schedules
from epispace.space import Grid

FULL = Capabilities()
MYOPIC0 = Capabilities(visibility="myopic", view_radius=0.01)


def walk_cycles(robot, env, cells, cycles):
    """Drive every robot through full M,L,C cycles; returns (epis, env, cell history)."""
    n = env.n_robots
    epis = [robot.initial_epi(r) for r in range(n)]
    obss = [None] * n
    state = env.make_initial_env(cells)
    history = [env.positions(state)]
    for _ in range(cycles):
        actions = tuple(robot.control(epis[r]) for r in range(n))
        state = env.evolve(state, actions, None)
        raws = env.emit_obs(state, None)
        for r in range(n):
            obss[r] = robot.observe(raws[r])
        for r in range(n):
            epis[r] = robot.step(epis[r], obss[r])
        history.append(env.positions(state))
    return epis, state, history


class TestCapabilities:
    def test_myopic_needs_radius(self):
        with pytest.raises(ValueError):
            Capabilities(visibility="myopic")

    def test_non_rigid_needs_min_distance(self):
        with pytest.raises(ValueError):
            Capabilities(movement="non-rigid")
        with pytest.raises(ValueError):
            Capabilities(movement="non-rigid", min_distance=1.5)


class TestLcmPhase:
    """Each phase as applied by enumerate_runs on a hand-built path of up to one cycle."""

    def test_compute_is_table_lookup(self):
        step = table_fn({(("e0",), ("o0",)): ("e1",)}, "step")
        robot = RobotMachine(
            observe=lambda raw: raw,
            step=step,
            control=lambda e: None,
            light=lambda e: None,
            initial_epi=lambda rid: ("e0",),
        )
        env = EnvMachine(
            n_robots=1,
            evolve=lambda s, a, adv: s,
            emit_obs=lambda s, adv: (("o0",),),
            make_initial_env=lambda cells: "env0",
        )
        run = enumerate_runs(robot, env, [[0]], [TimePath(1, ((0,), (0,), (0,)))])[0]
        after = run.states[3]
        assert (after.epis, after.obss) == ((("e1",),), (("o0",),))
        assert after.env == "env0"

    def test_env_machine_needs_initial_env(self):
        with pytest.raises(TypeError, match="make_initial_env"):
            EnvMachine(n_robots=1, evolve=lambda s, a, adv: s, emit_obs=lambda s, adv: ("o0",))

    def test_move_walker_right(self):
        grid = Grid(1, 4)
        robot, env = make_grid_walker(grid, MYOPIC0, EXPLORE_SWEEP)
        # epi that has seen cells 0..2 and sits at 2: next target is 3 -> move right
        epi = (0, 2, frozenset({0, 1, 2}), 0, frozenset())
        robot = replace(robot, initial_epi=lambda rid: epi)
        run = enumerate_runs(robot, env, [[2]], [TimePath(1, ((0,),))])[0]
        assert env.positions(run.states[1].env) == (3,)

    def test_missing_table_entry_raises(self):
        step = table_fn({}, "step")
        with pytest.raises(ModelDefinitionError, match="step undefined"):
            step(("e0",), ("o0",))

    def test_look_stores_observation(self):
        grid = Grid(1, 4)
        robot, env = make_grid_walker(grid, FULL, EXPLORE_SWEEP, n_robots=2)
        # the initial epi knows no target, so robot 0's MOVE keeps it on cell 0
        run = enumerate_runs(robot, env, [[0, 3]], [TimePath(2, ((0,), (0,)))])[0]
        obs = run.states[2].obss[0]
        assert obs[0][0] == 0 and obs[1][0] == 3


class TestSweepWalker:
    def test_explores_all_cells_within_four_cycles(self):
        grid = Grid(1, 4)
        robot, env = make_grid_walker(grid, MYOPIC0, EXPLORE_SWEEP)
        epis, _, history = walk_cycles(robot, env, [0], 4)
        assert epis[0][2] == frozenset({0, 1, 2, 3})  # the epi's known region
        # position per cycle, frozen from the hand-derived sweep: stay, then right
        assert history == [(0,), (0,), (1,), (2,), (3,)]

    def test_parks_after_sweep(self):
        grid = Grid(1, 4)
        robot, env = make_grid_walker(grid, MYOPIC0, EXPLORE_SWEEP)
        epis, state, _ = walk_cycles(robot, env, [0], 6)
        epis2, state2, _ = walk_cycles(robot, env, [0], 7)
        assert epis == epis2 and state == state2

    def test_zero_cell_grid_rejected(self):
        with pytest.raises(ValueError):
            Grid(1, 0)

    def test_myopic_hides_far_robot(self):
        grid = Grid(1, 4)
        robot, env = make_grid_walker(grid, MYOPIC0, EXPLORE_SWEEP, n_robots=2)
        state = env.make_initial_env([0, 3])
        raws = env.emit_obs(state, None)
        assert raws[0][0] is not None and raws[0][1] is None


class TestFloodExplore:
    def test_3x3_flood_builds_despite_declared_env_product(self):
        # cells and lights make (9 * 2**9)**2 = 21,233,664 env states; runs reach only a few
        robot, env = make_grid_walker(Grid(2, 3), FULL, FLOOD_EXPLORE, n_robots=2)
        runs = enumerate_runs(robot, env, [[0, 8]], gen_schedules(2, 5, SSYNC, fairness_bound=6))
        assert validate_machine(robot, runs) == []
        states = [state for run in runs for state in run.states]
        assert len(runs) == 243
        assert len({state.env for state in states}) == 78
        assert len(set(states)) == 605

    def test_lights_carry_joined_region(self):
        grid = Grid(1, 4)
        robot, env = make_grid_walker(
            grid, FULL, FLOOD_EXPLORE, n_robots=2, strips=[(0, 1), (2, 3)]
        )
        # simulation oracle: within 3 full cycles of a grown region, both lights
        # carry the join of everything both robots know.
        epis, state, _ = walk_cycles(robot, env, [0, 2], 5)
        lights = env.lights(state)
        known = [e[2] for e in epis]  # each epi's known region
        assert lights[0] == lights[1] == known[0] | known[1] == frozenset({0, 1, 2, 3})

    def test_broadcast_period_delays_publication(self):
        grid = Grid(1, 4)
        robot, env = make_grid_walker(
            grid, FULL, FLOOD_EXPLORE, n_robots=2, strips=[(0, 1), (2, 3)], broadcast_period=2
        )
        epis, state, _ = walk_cycles(robot, env, [0, 2], 1)
        assert env.lights(state) == (frozenset(), frozenset())  # nothing published yet
        epis, state, _ = walk_cycles(robot, env, [0, 2], 3)
        assert env.lights(state) != (frozenset(), frozenset())


class TestGather:
    def test_lower_indexed_region_wins(self):
        grid = Grid(1, 4)
        robot, env = make_grid_walker(
            grid, FULL, GATHER_MIN_REGION, n_robots=2, rendezvous=[[0], [3]]
        )
        epis, state, _ = walk_cycles(robot, env, [0, 3], 6)
        assert env.positions(state) == (0, 0)
        assert [e[2] for e in epis] == [0, 0]

    def test_rendezvous_must_be_disjoint(self):
        grid = Grid(1, 4)
        with pytest.raises(ValueError, match="disjoint"):
            make_grid_walker(grid, FULL, GATHER_MIN_REGION, rendezvous=[[0, 1], [1, 2]])


def one_robot_table_machine(epis, light=lambda e: None, caps=Capabilities()):
    """A one-robot table machine that steps through `epis` on one observation."""
    robot = RobotMachine(
        observe=lambda raw: raw,
        step=table_fn(dict(zip(((e, "o0") for e in epis), epis[1:])), "step"),
        control=lambda e: None,
        light=light,
        initial_epi=lambda rid: epis[0],
        caps=caps,
    )
    env = EnvMachine(
        n_robots=1,
        evolve=lambda s, a, adv: s,
        emit_obs=lambda s, adv: ("o0",),
        make_initial_env=lambda cells: "env0",
    )
    return robot, env


def fsync_runs(robot, env, cycles=1):
    """The run of one robot from cell 0 through `cycles` LCM cycles."""
    return enumerate_runs(robot, env, [[0]], gen_schedules(1, cycles, FSYNC, fairness_bound=1))


class TestValidateMachine:
    def test_reference_walker_is_valid(self):
        grid = Grid(1, 4)
        robot, env = make_grid_walker(grid, MYOPIC0, EXPLORE_SWEEP)
        assert validate_machine(robot, fsync_runs(robot, env, cycles=6)) == []

    def test_missing_step_entry_named(self):
        # the table has no step for ("e1",): the second COMPUTE of the run misses it
        robot, env = one_robot_table_machine([("e0",), ("e1",)])
        assert len(fsync_runs(robot, env)) == 1
        with pytest.raises(ModelDefinitionError, match=r"step undefined for \(\('e1',\), 'o0'\)"):
            fsync_runs(robot, env, cycles=2)

    def test_missing_light_entry_of_reached_state_named(self):
        # ("e2",) is in the light table but never reached; ("e1",) is reached but missing
        light = table_fn({("e0",): None, ("e2",): None}, "light")
        robot, env = one_robot_table_machine([("e0",), ("e1",)], light=light)
        report = validate_machine(robot, fsync_runs(robot, env))
        assert report == ["light: light undefined for ('e1',)"]

    def test_missing_control_entry_of_reached_state_named(self):
        # the run's one MOVE reads ("e0",); its COMPUTE reaches ("e1",), which no MOVE reads
        robot, env = one_robot_table_machine([("e0",), ("e1",)])
        control = table_fn({("e0",): None}, "control")
        report = validate_machine(replace(robot, control=control), fsync_runs(robot, env))
        assert report == ["control: control undefined for ('e1',)"]

    def test_oblivious_nonconstant_light_flagged(self):
        # leaks memory through the light: "a" and "b" are both reached
        robot, env = one_robot_table_machine(
            ["a", "b"], light=lambda e: e, caps=Capabilities(memory="oblivious"))
        report = validate_machine(robot, fsync_runs(robot, env))
        assert report == ["oblivious robot has a non-constant light map"]

    @pytest.mark.parametrize("protocol", [FLOOD_EXPLORE, GATHER_MIN_REGION, GATHER_OSCILLATE])
    def test_protocol_with_memory_rejects_oblivious(self, protocol):
        with pytest.raises(ValueError, match=protocol):
            make_grid_walker(Grid(1, 4), Capabilities(memory="oblivious"), protocol, n_robots=2,
                             rendezvous=[[0], [3]])


GRID = Grid(1, 4)
ROBOT = make_grid_walker(GRID, FULL, EXPLORE_SWEEP)[0]


def env_machine(n_robots):
    """An environment of `n_robots` robots that never changes."""
    return EnvMachine(n_robots=n_robots, evolve=lambda s, a, adv: s,
                      emit_obs=lambda s, adv: (None,) * n_robots, make_initial_env=tuple)


# One fixed case per named error: the call, the exception type and its whole message.
@pytest.mark.parametrize("call, message", [
    (lambda: Capabilities(visibility="blind"), "unknown visibility 'blind'"),
    (lambda: Capabilities(movement="teleport"), "unknown movement 'teleport'"),
    (lambda: Capabilities(memory="amnesiac"), "unknown memory 'amnesiac'"),
    (lambda: Capabilities(visibility="myopic", view_radius="1"),
     "myopic visibility needs view_radius > 0, got '1'"),
    (lambda: Capabilities(visibility="myopic", view_radius=True),
     "myopic visibility needs view_radius > 0, got True"),
    (lambda: Capabilities(movement="non-rigid", min_distance="0.5"),
     "non-rigid movement needs min_distance in (0,1], got '0.5'"),
    (lambda: make_grid_walker(GRID, FULL, EXPLORE_SWEEP, 2)[1].make_initial_env([0]),
     "need 2 initial cells, got 1"),
    (lambda: make_grid_walker(GRID, FULL, EXPLORE_SWEEP, 2)[1].make_initial_env([0, 4]),
     "initial cell 4 is not an int in 0..3"),
    (lambda: make_grid_walker(GRID, FULL, EXPLORE_SWEEP)[1].make_initial_env([1.5]),
     "initial cell 1.5 is not an int in 0..3"),
    (lambda: make_grid_walker(GRID, FULL, EXPLORE_SWEEP)[1].make_initial_env(["1"]),
     "initial cell '1' is not an int in 0..3"),
    (lambda: make_grid_walker(GRID, FULL, EXPLORE_SWEEP)[1].make_initial_env([None]),
     "initial cell None is not an int in 0..3"),
    (lambda: make_grid_walker(GRID, FULL, EXPLORE_SWEEP, n_robots=0),
     "n_robots 0 is not an int >= 1"),
    (lambda: make_grid_walker(GRID, FULL, "DANCE"), "unknown protocol 'DANCE'"),
    (lambda: make_grid_walker(GRID, FULL, FLOOD_EXPLORE, broadcast_period=0),
     "broadcast_period 0 is not an int >= 1"),
    (lambda: make_grid_walker(GRID, FULL, GATHER_MIN_REGION),
     "GATHER_MIN_REGION needs rendezvous regions"),
    (lambda: make_grid_walker(GRID, FULL, GATHER_OSCILLATE, rendezvous=[[]]),
     "rendezvous region 0 is empty"),
    (lambda: make_grid_walker(GRID, FULL, GATHER_MIN_REGION, rendezvous=[[0], [3, 4]]),
     "rendezvous region 1 cell 4 is not an int in 0..3"),
    (lambda: make_grid_walker(GRID, FULL, EXPLORE_SWEEP, 2, strips=[[0, 1, 2, 3]]),
     "need one strip per robot"),
    (lambda: make_grid_walker(GRID, FULL, FLOOD_EXPLORE, strips=[[0, 9]]),
     "strip 0 cell 9 is not an int in 0..3"),
    (lambda: make_grid_walker(GRID, FULL, EXPLORE_SWEEP)[1].make_initial_env([True]),
     "initial cell True is not an int in 0..3"),
    (lambda: make_grid_walker(GRID, FULL, EXPLORE_SWEEP, n_robots=2.0),
     "n_robots 2.0 is not an int >= 1"),
    (lambda: make_grid_walker(GRID, FULL, FLOOD_EXPLORE, broadcast_period=1.5),
     "broadcast_period 1.5 is not an int >= 1"),
    (lambda: make_grid_walker(GRID, FULL, EXPLORE_SWEEP, strips=[[0, 1.0]]),
     "strip 0 cell 1.0 is not an int in 0..3"),
    (lambda: make_grid_walker(GRID, FULL, FLOOD_EXPLORE, 2, strips=[[0], [True]]),
     "strip 1 cell True is not an int in 0..3"),
    (lambda: make_grid_walker(GRID, FULL, GATHER_MIN_REGION, rendezvous=[[1.0]]),
     "rendezvous region 0 cell 1.0 is not an int in 0..3"),
    (lambda: make_grid_walker(GRID, FULL, GATHER_OSCILLATE, rendezvous=[[0], [True]]),
     "rendezvous region 1 cell True is not an int in 0..3"),
    (lambda: env_machine(2.0), "n_robots 2.0 is not an int >= 1"),
    (lambda: env_machine(True), "n_robots True is not an int >= 1"),
    (lambda: env_machine(0), "n_robots 0 is not an int >= 1"),
    (lambda: EnvMachine(1, evolve=None, emit_obs=None, make_initial_env=None),
     "evolve None is not callable"),
    (lambda: replace(env_machine(1), emit_obs=()), "emit_obs () is not callable"),
    (lambda: replace(env_machine(1), make_initial_env="cells"),
     "make_initial_env 'cells' is not callable"),
    (lambda: replace(env_machine(1), positions=0), "positions 0 is not callable"),
    (lambda: replace(env_machine(1), lights=[]), "lights [] is not callable"),
    (lambda: replace(env_machine(1), adversary_choices=3), "adversary_choices 3 is not iterable"),
    (lambda: RobotMachine(observe=None, step=None, control=None, light=None, initial_epi=None,
                          caps="x"), "observe None is not callable"),
    (lambda: replace(ROBOT, step="step"), "step 'step' is not callable"),
    (lambda: replace(ROBOT, control=None), "control None is not callable"),
    (lambda: replace(ROBOT, light=0), "light 0 is not callable"),
    (lambda: replace(ROBOT, initial_epi=(0,)), "initial_epi (0,) is not callable"),
    (lambda: replace(ROBOT, footprint=frozenset()), "footprint frozenset() is not callable"),
    (lambda: replace(ROBOT, caps="x"), "caps 'x' is not a Capabilities"),
    (lambda: replace(ROBOT, caps=None), "caps None is not a Capabilities"),
], ids=["visibility", "movement", "memory", "radius-str", "radius-bool", "min-distance-str",
        "initial-cell-count", "initial-cell-outside",
        "initial-cell-float", "initial-cell-str", "initial-cell-none", "no-robots",
        "unknown-protocol", "broadcast-period", "gather-without-rendezvous",
        "empty-region", "region-outside", "strip-count", "strip-outside",
        "initial-cell-bool", "float-robot-count", "float-broadcast-period", "strip-cell-float",
        "strip-cell-bool", "region-cell-float", "region-cell-bool", "env-robots-float",
        "env-robots-bool", "env-no-robots", "env-all-none", "env-emit-tuple",
        "env-initial-str", "env-positions-int", "env-lights-list", "env-choices-int",
        "robot-all-none", "robot-step-str", "robot-control-none", "robot-light-int",
        "robot-initial-epi-tuple", "robot-footprint-set", "robot-caps-str", "robot-caps-none"])
def test_named_errors(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as raised:
        call()
    assert type(raised.value) is ValueError


@pytest.mark.parametrize("choices, message", [
    ((), "env.adversary_choices is empty, so no step has a successor"),
    (iter(()), "env.adversary_choices is empty, so no step has a successor"),
    ((None, ["freeze", 0]), "env.adversary_choices holds the unhashable choice ['freeze', 0]"),
], ids=["empty", "empty-iterator", "unhashable"])
def test_adversary_choices_named(choices, message):
    with pytest.raises(ModelDefinitionError, match=f"^{re.escape(message)}$"):
        replace(env_machine(1), adversary_choices=choices)


def test_adversary_choices_held_as_a_tuple():
    env = replace(env_machine(1), adversary_choices=(c for c in (None, ("freeze", 0))))
    assert env.adversary_choices == (None, ("freeze", 0))
    assert env.positions is env.lights is None


class TestObliviousProperty:
    def test_compute_depends_only_on_observation(self):
        grid = Grid(1, 4)
        caps = Capabilities(memory="oblivious", visibility="myopic", view_radius=0.01)
        robot, env = make_grid_walker(grid, caps, EXPLORE_SWEEP)
        state = env.make_initial_env([2])
        obs = robot.observe(env.emit_obs(state, None)[0])
        e1 = (0, 0, frozenset({0}), 0, frozenset())
        e2 = (0, 1, frozenset({0, 1}), 0, frozenset())
        r1, r2 = robot.step(e1, obs), robot.step(e2, obs)
        assert r1 == r2  # same fresh observation wipes distinct histories
