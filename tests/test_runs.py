import gc
import hashlib
import itertools
import random
import re
import tracemalloc
import weakref
from array import array
from collections import Counter
from dataclasses import FrozenInstanceError, dataclass, replace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from epispace import runs as runs_module
from epispace.logic import Symbols, parse, valid
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
)
from epispace.runs import (
    StepState,
    SystemRun,
    build_interpreted_system,
    canon,
    config_classes,
    enumerate_runs,
    export_traces,
)
from epispace.scheduler import (
    ASYNC_K,
    FSYNC,
    PHASES,
    SSYNC,
    CapExceededError,
    TimePath,
    gen_schedules,
)
from epispace.space import Grid

MYOPIC = Capabilities(visibility="myopic", view_radius=0.01)
FULL = Capabilities()


def sweep_runs(n_cells=4, cycles=6):
    grid = Grid(1, n_cells)
    robot, env = make_grid_walker(grid, MYOPIC, EXPLORE_SWEEP)
    schedules = gen_schedules(1, cycles, FSYNC, fairness_bound=1)
    return grid, robot, env, enumerate_runs(robot, env, [[0]], schedules)


def count_partitions(monkeypatch):
    """The group of every class numbering computed from here on, in call order."""
    calls = []
    compute = runs_module._number_classes

    def counting(configs, group):
        calls.append(tuple(group))
        return compute(configs, group)

    monkeypatch.setattr(runs_module, "_number_classes", counting)
    return calls


def epi(runs, point, robot):
    """The robot's epistemic state at a point, read from the run's own row and table.

    `runs` is `list(sys)`, listed once by the caller: each read of `sys[i]`
    makes a new view."""
    run_idx, t = point
    run = runs[run_idx]
    return run.table[run.row[t]].epis[robot]


def point_classes(sys, group):
    """The group's class id at each position: `config_classes` gathered along the points."""
    return list(map(config_classes(sys, group).__getitem__, sys.config_of))


def brute_partition(sys, robot):
    # O(n^2) oracle: pairwise epistemic-state comparison, then closure
    points, runs = list(sys.points), list(sys)
    parent = {p: p for p in points}

    def find(p):
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    for i, p in enumerate(points):
        for q in points[i + 1:]:
            if epi(runs, p, robot) == epi(runs, q, robot):
                parent[find(p)] = find(q)
    groups = {}
    for p in points:
        groups.setdefault(find(p), set()).add(p)
    return {frozenset(g) for g in groups.values()}


# Steps a two-robot TimePath rejects at construction, since they name no set of its robots.
INVALID_STEPS = pytest.mark.parametrize("step", [(), (5,), (-1,), (0, "1"), {0: "M"}],
                                        ids=["empty-step", "unknown-robot", "negative-robot",
                                             "non-int-robot", "phase-map"])


def phase_maps(path):
    """Per step, robot -> phase fired, counted here from `path.steps`: a robot in n
    earlier steps fires PHASES[n % 3]."""
    fired = [0] * path.n_robots
    maps = []
    for step in path.steps:
        maps.append({r: PHASES[fired[r] % len(PHASES)] for r in step})
        for r in step:
            fired[r] += 1
    return maps


def move_actions(control, state, act, n_robots):
    """The actions `evolve` gets for a step with phases `act` from `state`: each mover's
    `control` of its epistemic state, None for the others."""
    return tuple(control(state.epis[r]) if act.get(r) == "M" else None for r in range(n_robots))


class TestSimulate:
    @INVALID_STEPS
    def test_invalid_path_rejected(self, step):
        with pytest.raises(ValueError, match=r"^invalid time path: step 0: "):
            TimePath(2, (step, (0, 1)))

    def test_deterministic_walker_single_run(self):
        _, _, _, runs = sweep_runs()
        assert len(runs) == 1

    def test_byte_identical_reruns(self):
        grid = Grid(1, 4)
        robot, env = make_grid_walker(grid, MYOPIC, EXPLORE_SWEEP)
        path = gen_schedules(1, 5, FSYNC, fairness_bound=1)[0]
        r1 = enumerate_runs(robot, env, [[0]], [path])
        r2 = enumerate_runs(robot, env, [[0]], [path])
        assert run_fields(r1) == run_fields(r2)
        assert export_traces(r1, env) == export_traces(r2, env)

    def test_runs_have_slots_and_compare_by_content(self):
        _, _, _, (run,) = sweep_runs()
        assert not hasattr(run, "__dict__") and run.lasso is not None
        with pytest.raises(FrozenInstanceError):
            run.lasso = None
        # runs compare by identity, their contents through run_fields: a copy with its own
        # table and row has the same fields; another lasso or state has not
        copy = replace(run, row=array("i", range(run.horizon + 1)), table=run.states)
        assert copy != run and copy.row != run.row
        fields = run_fields([run])
        assert run_fields([copy]) == fields
        assert run_fields([replace(run, lasso=None)]) != fields
        # the table is a view that makes its states on each read: list it to slice it
        assert run_fields([replace(run, table=[*list(run.table)[:-1], run.states[0]])]) != fields

    def test_frozen_robot_rule(self):
        grid = Grid(1, 4)
        robot, env = make_grid_walker(grid, MYOPIC, EXPLORE_SWEEP, n_robots=2)
        for path in gen_schedules(2, 2, SSYNC, fairness_bound=3):
            run = enumerate_runs(robot, env, [[0, 2]], [path])[0]
            states = run.states
            for t in range(run.horizon):
                active = path.steps[t]
                for r in range(2):
                    if r not in active:
                        assert states[t].epis[r] == states[t + 1].epis[r]
                        assert states[t].obss[r] == states[t + 1].obss[r]

    def test_explored_monotone(self):
        _, _, _, runs = sweep_runs()
        states = runs[0].states
        for before, after in zip(states, states[1:]):
            assert before.explored <= after.explored

    def test_compute_adding_no_cell_keeps_explored_object(self):
        # a COMPUTE on explored cells must not copy the explored set: count the unions
        unions = []

        class Cells(frozenset):
            def __ror__(self, explored):
                unions.append(self)
                return frozenset.__ror__(self, explored)

        robot, env = make_grid_walker(Grid(1, 4), MYOPIC, EXPLORE_SWEEP)
        robot = replace(robot, footprint=lambda r, obs, own=robot.footprint: Cells(own(r, obs)))
        run, = enumerate_runs(robot, env, [[0]], gen_schedules(1, 6, FSYNC, fairness_bound=1))
        states = run.states
        computes = range(len(PHASES) - 1, run.horizon, len(PHASES))
        grew = [t for t in computes if states[t + 1].explored != states[t].explored]
        assert 0 < len(unions) == len(grew) < len(computes)
        for t in set(computes) - set(grew):
            assert states[t + 1].explored is states[t].explored

    def test_parked_walker_gets_unit_cycle_lasso(self):
        _, _, _, runs = sweep_runs(cycles=6)
        lasso = runs[0].lasso
        assert lasso is not None
        assert runs[0].horizon - lasso == 3  # one full parked M,L,C cycle

    def test_open_run_when_horizon_too_short(self):
        _, _, _, runs = sweep_runs(cycles=2)  # still sweeping at the horizon
        assert runs[0].lasso is None
        assert runs[0].is_open


# Scenarios as enumerate_runs arguments: (robot, env, placements, schedules).
def s1_h5():
    """bench/workloads.py's S1 at H=5."""
    robot, env = make_grid_walker(Grid(1, 6), FULL, FLOOD_EXPLORE, n_robots=2,
                                  strips=[(0, 1, 2), (3, 4, 5)])
    return robot, env, [[0, 3], [1, 4]], gen_schedules(2, 5, SSYNC, fairness_bound=6)


def nonrigid_min_region(horizon):
    """Two non-rigid robots (3 adversary choices a step) gathering on a 1x4 grid, SSYNC."""
    caps = Capabilities(movement="non-rigid", min_distance=0.5)
    robot, env = make_grid_walker(Grid(1, 4), caps, GATHER_MIN_REGION, n_robots=2,
                                  rendezvous=[(0,), (3,)])
    return robot, env, [[0, 2]], gen_schedules(2, horizon, SSYNC, fairness_bound=horizon + 1)


def myopic_fsync_sweep():
    """A miniature of bench/workloads.py's sweep-long whose robots see each other one cell apart."""
    grid = Grid(2, 3)
    caps = Capabilities(visibility="myopic", view_radius=grid.cell_width)
    robot, env = make_grid_walker(grid, caps, EXPLORE_SWEEP, n_robots=2)
    placements = [[0, 1], [8, 5], [4, 3], [2, 6]]
    return robot, env, placements, gen_schedules(2, 8, FSYNC, fairness_bound=1)


class TestEnumerate:
    def test_ssync_run_count_matches_family(self):
        grid = Grid(1, 4)
        robot, env = make_grid_walker(grid, MYOPIC, EXPLORE_SWEEP, n_robots=2)
        schedules = gen_schedules(2, 2, SSYNC, fairness_bound=3)
        runs = enumerate_runs(robot, env, [[0, 2]], schedules)
        assert len(runs) == len(schedules) == 9

    def test_empty_schedule_list(self):
        grid = Grid(1, 4)
        robot, env = make_grid_walker(grid, MYOPIC, EXPLORE_SWEEP)
        assert len(enumerate_runs(robot, env, [[0]], [])) == 0
        # no run, so no configuration: every configuration is some point's, and each
        # formula holds at every one of the no points
        symbols = Symbols({"r1": 0}, {"U": frozenset({0})}, grid.n_cells)
        for placements in ([[0]], []):
            sys = enumerate_runs(robot, env, placements, [])
            assert (len(sys), len(sys.configs), len(sys.config_of)) == (0, 0, 0)
            assert sys.classes == [[]]
            sys = sys.with_atoms({("sp", frozenset({0})): frozenset()})
            for text in ("sp(U)", "<> sp(U)", "K[r1] sp(U)", "!K[r1] sp(U)"):
                verdict = valid(sys, parse(text, symbols))
                assert (verdict.value, verdict.witnesses) == ("TRUE", ()), text
        with pytest.raises(ValueError, match="^placement 0 is not a sequence of cells$"):
            enumerate_runs(robot, env, [0], [])
        with pytest.raises(ValueError, match="^initial cell 4 is not an int in 0..3$"):
            enumerate_runs(robot, env, [[4]], [])

    def test_empty_adversary_named(self):
        robot, env = make_grid_walker(Grid(1, 4), FULL, EXPLORE_SWEEP)
        with pytest.raises(ModelDefinitionError, match=r"^env\.adversary_choices is empty"):
            replace(env, adversary_choices=())

    def test_schedules_read_once(self):
        # a generator gives the runs of its list, on every placement, not only the first
        robot, env, placements, schedules = golden_myopic_sight()
        runs = enumerate_runs(robot, env, placements, (path for path in schedules))
        assert run_fields(runs) == run_fields(enumerate_runs(robot, env, placements, schedules))
        assert {run.init_cells for run in runs} == set(map(tuple, placements))

    @INVALID_STEPS
    def test_invalid_path_among_valid_schedules_rejected(self, step):
        # the bad step sits among the steps of a generated path, and is named by its index
        steps = gen_schedules(2, 2, SSYNC, fairness_bound=3)[4].steps
        with pytest.raises(ValueError, match=r"^invalid time path: step 4: "):
            TimePath(2, steps[:4] + (step,) + steps[4:])

    def test_robot_count_mismatch_rejected(self):
        robot, env = make_grid_walker(Grid(1, 4), FULL, EXPLORE_SWEEP, n_robots=2)
        schedules = gen_schedules(2, 2, SSYNC, fairness_bound=3)
        schedules.append(gen_schedules(1, 2, FSYNC, fairness_bound=1)[0])
        with pytest.raises(ValueError, match="robot count"):
            enumerate_runs(robot, env, [[0, 3]], schedules)

    def test_cap_is_exact(self):
        # the cap counts generated runs: a cap of the run count admits them, one less does not
        robot, env, placements, schedules = nonrigid_min_region(3)
        with pytest.raises(CapExceededError, match="^run enumeration exceeds cap 30$"):
            enumerate_runs(robot, env, placements, schedules, cap=30)
        assert len(enumerate_runs(robot, env, placements, schedules, cap=31)) == 31

    @pytest.mark.parametrize("horizon, n_runs", [(3, 31), (6, 2665)])
    def test_adversary_branches_only_where_the_run_changes(self, horizon, n_runs):
        # 27 and 729 paths; one run per adversary sequence would be 3**(3 * horizon) per path
        robot, env, placements, schedules = nonrigid_min_region(horizon)
        assert len(schedules) == 3 ** horizon
        assert len(enumerate_runs(robot, env, placements, schedules)) == n_runs

    def test_each_distinct_transition_computed_once(self):
        # S1 at H=5: 7,290 step edges, 2,430 of them with a MOVE,
        # over 1,311 distinct transitions and 1,031 distinct configurations
        robot, env, placements, schedules = s1_h5()
        calls = []

        def evolve(*args):
            calls.append(args)
            return env.evolve(*args)

        counted = replace(env, evolve=evolve)
        runs = enumerate_runs(robot, counted, placements, schedules)
        transitions = {(state, tuple(sorted(step.items())), adv) for run in runs
                       for state, step, adv in zip(run.states, phase_maps(run.path), run.adv_seq)}
        moving = {tr for tr in transitions if any(ph == "M" for _, ph in tr[1])}
        assert (len(transitions), len(moving)) == (1311, 474)
        # evolve runs once per distinct (env state, actions, adversary choice) of them
        moves = {(state.env, move_actions(robot.control, state, dict(step), env.n_robots), adv)
                 for state, step, adv in moving}
        assert len(calls) == len(set(calls)) == len(moves) < len(moving)
        assert set(calls) == moves
        # a configuration is its key of part ids: equal configurations, equal keys
        keys = {runs.configs.keys[cid] for cid in runs.config_of}
        configs = {state for run in runs for state in run.states}
        assert len(keys) == len(configs) == len(runs.configs) == 1031

    def test_observe_reads_only_the_emissions_of_robots_that_look(self):
        # robot 1 never fires, so its emission, which observe has no entry for, is never read
        robot = RobotMachine(observe=table_fn({"seen": "o"}, "observe"), step=lambda epi, obs: epi,
                             control=lambda epi: None, light=lambda epi: None,
                             initial_epi=lambda r: r)
        env = EnvMachine(n_robots=2, evolve=lambda state, actions, adv: state,
                         emit_obs=lambda state, adv: ("seen", "unseen"),
                         make_initial_env=lambda cells: 0)
        run, = enumerate_runs(robot, env, [[0, 0]], [TimePath(2, ((0,), (0,), (0,)))])
        assert [state.obss for state in run.states] == [(None, None)] * 2 + [("o", None)] * 2

    def test_unhashable_action_named(self):
        robot, env = make_grid_walker(Grid(1, 4), MYOPIC, EXPLORE_SWEEP)
        listed = replace(robot, control=lambda epi: list(robot.control(epi)))
        epi = robot.initial_epi(0)
        message = f"control gave the unhashable action [None, None] for epistemic state {epi!r}"
        with pytest.raises(ModelDefinitionError, match=re.escape(message)):
            enumerate_runs(listed, env, [[0]], gen_schedules(1, 2, FSYNC, fairness_bound=1))

    @pytest.mark.parametrize("machine, field, message", [
        ("robot", "step", "step gave the unhashable epistemic state [] for epistemic state "
                          "{epi!r} and observation {obs!r}"),
        ("robot", "observe", "observe gave the unhashable observation [] for emission {raw!r}"),
        ("robot", "initial_epi", "initial_epi gave the unhashable epistemic state [] for robot 0"),
        ("env", "make_initial_env", "make_initial_env gave the unhashable env state [] for cells "
                                    "(0,)"),
        ("env", "evolve", "evolve gave the unhashable env state [] for env state {env!r} and "
                          "actions {actions!r} and adversary choice None"),
    ])
    def test_unhashable_value_named(self, machine, field, message):
        # each value the walk numbers names the component that gave it, and its arguments
        robot, env = make_grid_walker(Grid(1, 4), MYOPIC, EXPLORE_SWEEP)
        machines = {"robot": robot, "env": env}
        machines[machine] = replace(machines[machine], **{field: lambda *args: []})
        epi, state = robot.initial_epi(0), env.make_initial_env((0,))
        raw = env.emit_obs(state, None)[0]
        message = message.format(epi=epi, obs=robot.observe(raw), raw=raw, env=state,
                                 actions=(robot.control(epi),))
        with pytest.raises(ModelDefinitionError, match=f"^{re.escape(message)}$"):
            enumerate_runs(machines["robot"], machines["env"], [[0]],
                           gen_schedules(1, 2, FSYNC, fairness_bound=1))

    def test_type_error_in_evolve_propagates(self):
        robot, env = make_grid_walker(Grid(1, 4), MYOPIC, EXPLORE_SWEEP)
        wrapped = replace(robot, control=lambda epi: robot.control(epi))

        def evolve(env_state, actions, adv):
            raise TypeError("evolve's own error")

        with pytest.raises(TypeError, match="^evolve's own error$") as raised:
            enumerate_runs(wrapped, replace(env, evolve=evolve), [[0]],
                           gen_schedules(1, 2, FSYNC, fairness_bound=1))
        assert type(raised.value) is TypeError

    def test_rows_index_one_table_and_frame_and_labels_never_read_states(self, monkeypatch):
        robot, env, placements, schedules = s1_h5()
        runs = enumerate_runs(robot, env, placements, schedules)
        table = runs[0].table
        assert len(table) == 1031
        for run in runs:
            assert run.table is table
            assert type(run.row) is array and run.row.typecode == "i"
            assert len(run.row) == 16
        assert set().union(*(run.row for run in runs)) == set(range(1031))
        ux = frozenset(range(6))
        symbols = Symbols({"r1": 0, "r2": 1}, {"UX": ux}, 6)
        formulas = ["<> sp(UX)", "D[{r1,r2}] sp(UX)", "[] (K[r1] sp(UX) -> K[r2] sp(UX))"]

        def verdicts():
            sys = build_interpreted_system(runs, env, robot)
            sys = sys.with_atoms({("sp", ux): frozenset(p for p in sys.points
                                                        if ux <= sys.explored_at(p))})
            return [valid(sys, parse(text, symbols)) for text in formulas]

        expected = verdicts()

        def refuse(run):
            raise AssertionError("a per-run StepState sequence was read")

        monkeypatch.setattr(SystemRun, "states", property(refuse))
        assert verdicts() == expected
        with pytest.raises(AssertionError, match="StepState sequence"):
            runs[0].states

    # the lambdas look the golden scenarios up when called: they are defined further down
    @pytest.mark.parametrize("scenario", [
        s1_h5, myopic_fsync_sweep,
        lambda: golden_ssync_flood(), lambda: golden_async_flood(),
    ], ids=["s1-h5", "myopic-fsync-sweep", "ssync-flood", "kasync-flood"])
    def test_each_component_runs_once_per_distinct_argument(self, scenario):
        robot, env, placements, schedules = scenario()
        control, emit_obs = robot.control, env.emit_obs
        calls = {name: [] for name in ("control", "step", "footprint", "emit_obs", "evolve",
                                       "observe")}

        def logged(name, fn):
            def call(*args):
                calls[name].append(args)
                return fn(*args)
            return call

        robot = replace(robot, control=logged("control", robot.control),
                        step=logged("step", robot.step),
                        footprint=logged("footprint", robot.footprint),
                        observe=logged("observe", robot.observe))
        env = replace(env, emit_obs=logged("emit_obs", env.emit_obs),
                      evolve=logged("evolve", env.evolve))
        runs = enumerate_runs(robot, env, placements, schedules)

        # the arguments each component needs, read off the runs
        needed = {name: set() for name in calls}
        for run in runs:
            states = run.states
            for t, act in enumerate(phase_maps(run.path)):
                before, after = states[t], states[t + 1]
                for r, ph in act.items():
                    if ph == "M":
                        needed["control"].add((before.epis[r],))
                    elif ph == "L":
                        needed["emit_obs"].add((after.env, run.adv_seq[t]))
                        needed["observe"].add((after.env, run.adv_seq[t], r))
                    else:
                        needed["step"].add((before.epis[r], after.obss[r]))
                        needed["footprint"].add((r, after.obss[r]))
                if "M" in act.values():
                    actions = move_actions(control, before, act, env.n_robots)
                    needed["evolve"].add((before.env, actions, run.adv_seq[t]))
        # observe once per distinct (env state, adversary choice, looking robot), on that
        # robot's emission: different looks may see equal emissions, so count a multiset
        assert Counter(calls.pop("observe")) == Counter(
            (emit_obs(state, adv)[r],) for state, adv, r in needed["observe"])
        for name in calls:
            assert len(calls[name]) == len(set(calls[name])), f"{name} repeated an argument"
            assert set(calls[name]) == needed[name], name
        # each robot's COMPUTE follows its own LOOK, so none reads the initial None
        assert all(obs is not None for name in ("step", "footprint") for _, obs in calls[name])


class TestFrame:
    def test_build_computes_no_partition(self, monkeypatch):
        robot, env = make_grid_walker(Grid(1, 4), FULL, FLOOD_EXPLORE, n_robots=2,
                                      strips=[(0, 1), (2, 3)])
        runs = enumerate_runs(robot, env, [[0, 2]], gen_schedules(2, 2, SSYNC, fairness_bound=3))
        calls = count_partitions(monkeypatch)
        sys = build_interpreted_system(runs, env, robot)
        assert calls == []
        assert len(sys.classes) == 2
        assert calls == [(0,), (1,)]

    def test_build_allocates_no_per_point_object(self):
        robot, env, placements, schedules = s1_h5()
        runs = enumerate_runs(robot, env, placements, schedules)
        tracemalloc.start()
        try:
            sys = build_interpreted_system(runs, env, robot)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # config_of takes 4 bytes a point; a list of (run, t) tuples would take over 60
        assert len(sys.config_of) == 7776
        assert peak <= 16 * len(sys.config_of)

    @pytest.mark.parametrize("env_robots", [1, 3])
    def test_robot_count_mismatch_rejected(self, env_robots):
        robot, env = make_grid_walker(Grid(1, 4), FULL, EXPLORE_SWEEP, n_robots=2)
        runs = enumerate_runs(robot, env, [[0, 3]], gen_schedules(2, 1, SSYNC, fairness_bound=2))
        other_robot, other_env = make_grid_walker(Grid(1, 4), FULL, EXPLORE_SWEEP,
                                                  n_robots=env_robots)
        with pytest.raises(ValueError, match="^runs and environment disagree on the robot count$"):
            build_interpreted_system(runs, other_env, other_robot)

    def test_runs_of_different_lengths_rejected(self):
        # positions are run * length + t, so one length must hold for every run of a
        # frame: enumerate_runs refuses paths of different lengths, the last one here
        robot, env, placements, schedules = golden_myopic_sight()
        schedules.append(TimePath(2, schedules[0].steps[:-1]))
        with pytest.raises(ValueError, match="^paths of different lengths$"):
            enumerate_runs(robot, env, placements, schedules)

    def test_explored_at_rejects_points_outside_the_system(self):
        sys = sweep_frame()
        n_runs, horizon = len(sys), sys[0].horizon
        assert sys.explored_at((n_runs - 1, horizon)) == sys[-1].states[horizon].explored
        for point in [(0, -1), (-1, 0), (0, horizon + 1), (n_runs, 0)]:
            message = f"^point {re.escape(repr(point))} outside the system$"
            with pytest.raises(ValueError, match=message):
                sys.explored_at(point)
            with pytest.raises(ValueError, match=message):
                sys.points.index(point)

    def test_single_constant_robot_one_class(self):
        grid = Grid(1, 2)
        robot, env = make_grid_walker(grid, MYOPIC, EXPLORE_SWEEP, strips=[()])
        # empty strip: the robot never has a target; epi still changes once
        # (it learns its position), then stays constant
        runs = enumerate_runs(robot, env, [[0]], gen_schedules(1, 4, FSYNC, fairness_bound=1))
        sys = build_interpreted_system(runs, env, robot)
        assert len(sys.classes[0]) == 2  # initial epi, then parked epi forever

    def test_production_matches_brute_force_oracle(self):
        rng = random.Random(42)
        for trial in range(10):
            n_cells = rng.choice([3, 4])
            n_robots = rng.choice([1, 2])
            grid = Grid(1, n_cells)
            cells = list(range(n_cells))
            strips = [tuple(sorted(rng.sample(cells, rng.randint(1, n_cells))))
                      for _ in range(n_robots)]
            robot, env = make_grid_walker(
                grid, FULL, rng.choice([EXPLORE_SWEEP, FLOOD_EXPLORE]),
                n_robots=n_robots, strips=strips,
            )
            synchrony, horizon = (FSYNC, 4) if n_robots == 1 else (SSYNC, 2)
            schedules = gen_schedules(n_robots, horizon, synchrony, fairness_bound=horizon + 1)
            inits = [[rng.randrange(n_cells) for _ in range(n_robots)]]
            runs = enumerate_runs(robot, env, inits, schedules)
            sys = build_interpreted_system(runs, env, robot)
            for r in range(n_robots):
                produced = {frozenset(c) for c in sys.classes[r]}
                assert produced == brute_partition(sys, r), f"trial {trial} robot {r}"

    def test_indistinguishable_across_runs(self):
        grid = Grid(1, 4)
        robot, env = make_grid_walker(grid, MYOPIC, EXPLORE_SWEEP, n_robots=2,
                                      strips=[(0, 1), (2, 3)])
        schedules = gen_schedules(2, 2, SSYNC, fairness_bound=3)
        runs = enumerate_runs(robot, env, [[0, 2]], schedules)
        sys = build_interpreted_system(runs, env, robot)
        # robot 0 idles in schedules that only activate robot 1: those points
        # collapse into robot 0's initial class together across runs
        ids = point_classes(sys, [0])
        init_class = ids[sys.points.index((0, 0))]
        sharing = {p for p, cid in zip(sys.points, ids) if cid == init_class}
        assert len({run_idx for run_idx, _ in sharing}) > 1

    def test_class_ids_aligned_with_points_by_first_occurrence(self):
        # class ids are numbered in configuration id order, which on a call with one
        # adversary choice is the order in which the points first meet them
        grid = Grid(1, 4)
        robot, env = make_grid_walker(grid, MYOPIC, EXPLORE_SWEEP, n_robots=2,
                                      strips=[(0, 1), (2, 3)])
        runs = enumerate_runs(robot, env, [[0, 2]], gen_schedules(2, 2, SSYNC, fairness_bound=3))
        sys = build_interpreted_system(runs, env, robot)
        runs = list(sys)
        for r in range(2):
            ids = point_classes(sys, [r])
            assert isinstance(ids, list) and len(ids) == len(sys.points)
            first = {}
            for p, cid in zip(sys.points, ids):
                first.setdefault(epi(runs, p, r), len(first))
                assert cid == first[epi(runs, p, r)]
            assert point_classes(sys, [r]) == ids
            assert [list(c) for c in sys.classes[r]] == [
                [p for p, cid in zip(sys.points, ids) if cid == k] for k in range(len(first))]


class TestDistributed:
    def test_singleton_group_equals_individual(self):
        _, robot, env, runs = sweep_runs()
        sys = build_interpreted_system(runs, env, robot)
        members = {}
        for p, cid in zip(sys.points, point_classes(sys, [0])):
            members.setdefault(cid, set()).add(p)
        assert {frozenset(m) for m in members.values()} == brute_partition(sys, 0)

    def test_group_refines_members(self):
        grid = Grid(1, 4)
        robot, env = make_grid_walker(grid, MYOPIC, EXPLORE_SWEEP, n_robots=2,
                                      strips=[(0, 1), (2, 3)])
        schedules = gen_schedules(2, 2, SSYNC, fairness_bound=3)
        runs = enumerate_runs(robot, env, [[0, 2]], schedules)
        sys = build_interpreted_system(runs, env, robot)
        both = point_classes(sys, [0, 1])
        n = len(sys.points)
        for r in range(2):
            ids = point_classes(sys, [r])
            for i in range(n):
                for j in range(n):
                    if both[i] == both[j]:
                        assert ids[i] == ids[j]

    def test_distributed_equals_intersection(self):
        grid = Grid(1, 4)
        robot, env = make_grid_walker(grid, MYOPIC, EXPLORE_SWEEP, n_robots=2,
                                      strips=[(0, 1), (2, 3)])
        schedules = gen_schedules(2, 2, SSYNC, fairness_bound=3)
        runs = enumerate_runs(robot, env, [[0, 2]], schedules)
        sys = build_interpreted_system(runs, env, robot)
        both = point_classes(sys, [0, 1])
        singles = [point_classes(sys, [r]) for r in range(2)]
        n = len(sys.points)
        for i in range(n):
            for j in range(n):
                same = all(ids[i] == ids[j] for ids in singles)
                assert (both[i] == both[j]) == same

    def test_empty_group_rejected(self):
        _, robot, env, runs = sweep_runs()
        sys = build_interpreted_system(runs, env, robot)
        with pytest.raises(ValueError):
            config_classes(sys, [])


def sweep_frame():
    """The frame of sweep_runs' one run."""
    _, robot, env, runs = sweep_runs()
    return build_interpreted_system(runs, env, robot)


# One fixed case per named error: the call and its whole message.
@pytest.mark.parametrize("call, message", [
    (lambda: build_interpreted_system([], None, None),
     "cannot build an interpreted system from zero runs"),
    (lambda: config_classes(sweep_frame(), [1]), "robot 1 is not an int in 0..0"),
    (lambda: config_classes(sweep_frame(), [0, "1"]), "robot '1' is not an int in 0..0"),
    (lambda: config_classes(sweep_frame(), [True]), "robot True is not an int in 0..0"),
    (lambda: enumerate_runs(*golden_sweep(), cap="5"), "cap '5' is not an int >= 0"),
    (lambda: enumerate_runs(*golden_sweep(), cap=None), "cap None is not an int >= 0"),
    (lambda: enumerate_runs(*golden_sweep()[:3], [((0,),)]),
     "schedule entry ((0,),) is not a TimePath"),
    (lambda: enumerate_runs(*golden_sweep()[:2], [0], golden_sweep()[3]),
     "placement 0 is not a sequence of cells"),
    (lambda: sweep_frame().explored_at((0.5, 0)), "point (0.5, 0) outside the system"),
    (lambda: sweep_frame().explored_at(("0", 0)), "point ('0', 0) outside the system"),
    (lambda: sweep_frame().explored_at(5), "point 5 outside the system"),
    (lambda: sweep_frame().explored_at((0, 0, 0)), "point (0, 0, 0) outside the system"),
], ids=["no-runs", "robot-outside", "robot-str", "robot-bool", "str-cap", "none-cap",
        "schedule-entry-tuple", "placement-int", "explored-at-float", "explored-at-str",
        "explored-at-int", "explored-at-triple"])
def test_named_errors(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as raised:
        call()
    assert type(raised.value) is ValueError


class TestTraces:
    def test_canon_sorts_sets(self):
        assert canon(frozenset({3, 1, 2})) == "{1,2,3}"

    def test_export_shape(self):
        _, robot, env, runs = sweep_runs(cycles=2)
        lines = export_traces(runs, env)
        assert len(lines) == 7  # 6 steps + initial edge
        assert lines[0].startswith("run=0 t=0 r0.e=")
        assert "r0.pos=0" in lines[0]


def flood_pair():
    return make_grid_walker(Grid(1, 4), FULL, FLOOD_EXPLORE, n_robots=2,
                            strips=[(0, 1), (2, 3)])


# Golden scenarios, as enumerate_runs arguments.
def golden_sweep():
    robot, env = make_grid_walker(Grid(1, 4), MYOPIC, EXPLORE_SWEEP)
    return robot, env, [[0]], gen_schedules(1, 6, FSYNC, fairness_bound=1)


def golden_ssync_flood():
    robot, env = flood_pair()
    return robot, env, [[0, 2]], gen_schedules(2, 3, SSYNC, fairness_bound=4)


def golden_async_flood():
    robot, env = flood_pair()
    return robot, env, [[0, 2]], gen_schedules(2, 2, ASYNC_K, fairness_bound=2, k=1)


def golden_nonrigid_gather():
    caps = Capabilities(movement="non-rigid", min_distance=0.5)
    robot, env = make_grid_walker(Grid(2, 2), caps, GATHER_OSCILLATE, n_robots=2,
                                  rendezvous=[(0,), (3,)])
    return robot, env, [[1, 2]], gen_schedules(2, 1, SSYNC, fairness_bound=2)


def golden_myopic_sight():
    # a view radius of one cell: robots see each other on the same or an axis-adjacent cell
    grid = Grid(2, 3)
    caps = Capabilities(visibility="myopic", view_radius=grid.cell_width)
    robot, env = make_grid_walker(grid, caps, EXPLORE_SWEEP, n_robots=2)
    return robot, env, [[0, 1], [3, 5]], gen_schedules(2, 3, SSYNC, fairness_bound=4)


# sha256 of the export_traces lines, each followed by a newline. These pin the
# simulator's output byte for byte: a refactor of enumerate_runs must keep them.
GOLDEN = {
    "fsync-sweep": (golden_sweep, 1,
                    "98946283d6f220d318226e56006f27599543f96f7d33360b74a2949fdb94e713"),
    "ssync-flood": (golden_ssync_flood, 27,
                    "20bd301897c067963b330ecc4e79ac5676e411e20c0fb509e86f250d44d36dd9"),
    "kasync-flood": (golden_async_flood, 583,
                     "e72562a2b70aebefe5a0ddcd011775a9b4f74d7260d5ff5015e5894931b1d3e9"),
    "nonrigid-gather": (golden_nonrigid_gather, 3,
                        "57708deca6f8fb70ae4df43eeadf3fcf62452d94844819ce50dfd5f23d4dd5ae"),
    "myopic-sight": (golden_myopic_sight, 54,
                     "498f5ce846259f791e59280a495e3bb96c88b8ebc71bb96d2fa8cfb6cfe856b0"),
}


def golden_runs(name):
    robot, env, placements, schedules = GOLDEN[name][0]()
    return enumerate_runs(robot, env, placements, schedules), env


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_traces(name):
    _, n_runs, digest = GOLDEN[name]
    runs, env = golden_runs(name)
    assert len(runs) == n_runs
    h = hashlib.sha256()
    for line in export_traces(runs, env):
        h.update(line.encode() + b"\n")
    assert h.hexdigest() == digest


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_tables_store_each_part_once(name):
    # a configuration is a key of part ids into value lists that hold each value once,
    # so equal parts are one id and one object; equal explored sets are one object too
    runs, _ = golden_runs(name)
    configs = runs.configs
    assert all(run.table is configs for run in runs)
    for values in (configs.keys, configs.epis, configs.obss, configs.envs):
        assert len(set(values)) == len(values)
    first = {}
    assert all(first.setdefault(cells, cells) is cells for cells in configs.explored_of)
    assert [state.explored for state in configs] == configs.explored_of


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_one_table_lookup_per_computed_transition(monkeypatch, name):
    # each placement and each distinct (configuration, step, adversary choice) looks the
    # key of the configuration it reaches up once, whether that configuration is new or
    # known; a key is a tuple of part ids
    robot, env, placements, schedules = GOLDEN[name][0]()
    lookups = []

    class CountingIds(dict):
        def setdefault(self, key, default=None):
            lookups.append(key)
            return super().setdefault(key, default)

    init = runs_module._Transitions.__init__

    def counting_init(self, *args):
        init(self, *args)
        self.config_ids = CountingIds()

    monkeypatch.setattr(runs_module._Transitions, "__init__", counting_init)
    runs = enumerate_runs(robot, env, placements, schedules)
    assert all(type(key) is tuple and all(type(i) is int for i in key) for key in lookups)
    assert len(set(lookups)) == len(runs.configs)
    # the walk tries every adversary choice at each (configuration, step) it walks
    transitions = {(run.row[t], tuple(sorted(act.items())), adv)
                   for run in runs for t, act in enumerate(phase_maps(run.path))
                   for adv in env.adversary_choices}
    assert len(lookups) == len(placements) + len(transitions)


def test_configuration_view_outlives_the_walk_alone(monkeypatch):
    # once enumerate_runs returns, its configurations are the key list and value lists:
    # the walk's dicts (configuration ids, transitions, memos) are garbage
    tables = []
    init = runs_module._Transitions.__init__

    def recording_init(self, *args):
        init(self, *args)
        tables.append(weakref.ref(self))

    monkeypatch.setattr(runs_module._Transitions, "__init__", recording_init)
    # with the collector off, only reference counts free the table: a cycle keeps it
    gc.disable()
    try:
        runs, _ = golden_runs("kasync-flood")
        assert [table() for table in tables] == [None]
    finally:
        gc.enable()
    # its slots, besides its class
    referents = [x for x in gc.get_referents(runs.configs) if x is not runs_module.Configs]
    assert referents and not any(isinstance(x, dict) for x in referents)
    assert {type(x) for x in referents} == {list, int}


def brute_lasso(run):
    """The start of the smallest tail window whose end configuration equals its start, by
    value, in which every robot fires whole LCM cycles."""
    states = run.states
    # clocks[t][r]: phases robot r has fired before step t
    clocks = list(itertools.accumulate(
        run.path.steps, lambda row, step: [c + (r in step) for r, c in enumerate(row)],
        initial=[0] * run.path.n_robots))
    horizon = run.horizon
    windows = [start for start in range(horizon)
               if states[start] == states[horizon]
               and all((b - a) % len(PHASES) == 0 for a, b in zip(clocks[start], clocks[horizon]))]
    return max(windows) if windows else None


@dataclass(frozen=True)
class NaiveRun:
    """A run as the reference simulator builds it: its own list of configurations."""

    path: TimePath
    adv_seq: tuple
    init_cells: tuple
    states: tuple
    lasso: int | None = None

    @property
    def horizon(self):
        return len(self.states) - 1


def naive_simulate(robot, env, path, init_cells, adv_seq):
    """Reference simulator: every step of the run recomputed, no table shared with other runs."""
    n = env.n_robots
    epis = [robot.initial_epi(r) for r in range(n)]
    obss: list = [None] * n
    env_state = env.make_initial_env(tuple(init_cells))
    explored: frozenset[int] = frozenset()

    states = [StepState(tuple(epis), tuple(obss), env_state, explored)]
    for chunk, adv in zip(phase_maps(path), adv_seq):
        movers = sorted(r for r, ph in chunk.items() if ph == "M")
        lookers = sorted(r for r, ph in chunk.items() if ph == "L")
        computers = sorted(r for r, ph in chunk.items() if ph == "C")

        if movers:
            actions: list = [None] * n
            for r in movers:
                actions[r] = robot.control(epis[r])
            env_state = env.evolve(env_state, tuple(actions), adv)
        if lookers:
            raws = env.emit_obs(env_state, adv)
            for r in lookers:
                obss[r] = robot.observe(raws[r])
        for r in computers:
            epis[r] = robot.step(epis[r], obss[r])
            if robot.footprint is not None:
                explored = explored | robot.footprint(r, obss[r])
        states.append(StepState(tuple(epis), tuple(obss), env_state, explored))

    run = NaiveRun(path, tuple(adv_seq), tuple(init_cells), tuple(states))
    return replace(run, lasso=brute_lasso(run))


def naive_enumerate(robot, env, placements, schedules):
    """enumerate_runs' runs, in its order: per placement and schedule entry, a
    naive_simulate call for every adversary sequence in product order, keeping the
    first run of each distinct row of configurations."""
    runs = []
    for init in placements:
        for path in schedules:
            rows = {}
            for seq in itertools.product(env.adversary_choices, repeat=path.horizon_steps):
                run = naive_simulate(robot, env, path, init, seq)
                rows.setdefault(run.states, run)
            runs.extend(rows.values())
    return runs


def run_fields(runs):
    """What a run is, field by field; export_traces prints a function of it."""
    return [(run.path, run.adv_seq, run.init_cells, tuple(run.states), run.lasso)
            for run in runs]


def assert_same_runs(runs, oracle, env):
    assert export_traces(runs, env) == export_traces(oracle, env)
    assert run_fields(runs) == run_fields(oracle)
    # and every configuration of the call's table is some point's
    assert set(runs.config_of) == set(range(len(runs.configs)))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_runs_match_naive_simulation(name):
    robot, env, placements, schedules = GOLDEN[name][0]()
    runs = enumerate_runs(robot, env, placements, schedules)
    assert_same_runs(runs, naive_enumerate(robot, env, placements, schedules), env)
    # a system is a set of runs: no two share placement, path and row
    assert len({(run.init_cells, run.path, tuple(run.row)) for run in runs}) == len(runs)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_lassos_match_brute_force_search(name):
    runs, _ = golden_runs(name)
    for run in runs:
        assert run.lasso == brute_lasso(run)


# (robots, synchrony, rounds) of the drawn schedule family
FAMILIES = [(1, SSYNC, 4), (1, SSYNC, 3), (2, SSYNC, 3), (2, SSYNC, 2), (2, ASYNC_K, 2),
            (2, ASYNC_K, 1), (3, SSYNC, 2), (3, SSYNC, 1), (3, ASYNC_K, 1)]
MAX_BRANCHING_RUNS = 600


@st.composite
def table_systems(draw):
    """A small random table_fn robot and environment, schedules and placements."""
    n, synchrony, rounds = draw(st.sampled_from(FAMILIES))
    schedules = gen_schedules(n, rounds, synchrony, fairness_bound=draw(st.integers(1, rounds + 1)))
    # adversary branching multiplies the runs of a path by 2**steps
    branching_runs = len(schedules) * 2 ** (rounds * len(PHASES))
    adversary = draw(st.sampled_from([(None,), (None, "slip")][:1 + (branching_runs
                                                                      <= MAX_BRANCHING_RUNS)]))
    n_epi, n_obs, n_act, n_env = (draw(st.integers(1, 3)) for _ in range(4))
    epis, obss, envs = range(n_epi), range(n_obs), range(n_env)

    def pick(values):
        return draw(st.sampled_from(list(values)))

    robot = RobotMachine(
        observe=table_fn({raw: pick(obss) for raw in range(3)}, "observe"),
        step=table_fn({(e, o): pick(epis) for e in epis for o in obss}, "step"),
        control=table_fn({e: pick(range(n_act)) for e in epis}, "control"),
        light=table_fn({e: None for e in epis}, "light"),
        initial_epi=table_fn({r: pick(epis) for r in range(n)}, "initial_epi"),
        footprint=draw(st.sampled_from([
            None, table_fn({(r, o): frozenset({r, o}) for r in range(n) for o in obss},
                           "footprint")])),
    )
    placements = [(0,) * n, (1,) * n][:draw(st.integers(1, 2))]
    env = EnvMachine(
        n_robots=n,
        evolve=table_fn({(v, acts, adv): pick(envs) for v in envs
                         for acts in itertools.product([None, *range(n_act)], repeat=n)
                         for adv in adversary}, "evolve"),
        emit_obs=table_fn({(v, adv): tuple(pick(range(3)) for _ in range(n))
                           for v in envs for adv in adversary}, "emit_obs"),
        adversary_choices=adversary,
        make_initial_env=table_fn({cells: pick(envs) for cells in placements}, "initial env"),
    )
    return robot, env, placements, schedules


def nonrigid_gather_second_move():
    """golden_nonrigid_gather's machines on 4-step paths whose last step is a MOVE that
    the adversary can freeze, so runs that differ in their adversary choices differ."""
    robot, env, placements, _ = golden_nonrigid_gather()
    schedules = [TimePath(2, path.steps[:4])
                 for path in gen_schedules(2, 2, SSYNC, fairness_bound=3)[6::2]]
    return robot, env, placements, schedules


@settings(max_examples=40, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(table_systems())
@example(golden_nonrigid_gather())
@example(nonrigid_gather_second_move())
def test_enumerate_runs_matches_naive_simulation(system):
    robot, env, placements, schedules = system
    runs = enumerate_runs(robot, env, placements, schedules)
    assert_same_runs(runs, naive_enumerate(robot, env, placements, schedules), env)


@pytest.mark.parametrize("scenario", [
    *(GOLDEN[name][0] for name in sorted(GOLDEN)),
    s1_h5, lambda: nonrigid_min_region(3), nonrigid_gather_second_move,
], ids=[*sorted(GOLDEN), "s1-h5", "nonrigid-min-region", "nonrigid-gather-second-move"])
def test_every_configuration_has_a_point(scenario):
    # the walk makes a run from every successor it computes, and the frame takes the
    # runs' ids as they are
    robot, env, placements, schedules = scenario()
    runs = enumerate_runs(robot, env, placements, schedules)
    assert set(runs.config_of) == set(range(len(runs.configs)))
    frame = build_interpreted_system(runs, env, robot)
    assert frame.config_of is runs.config_of and frame.configs is runs.configs


def test_the_walk_returns_the_system():
    # build_interpreted_system only checks the walk's output; with_atoms gives the same
    # runs another valuation, and labels made on one system stay with it
    robot, env, placements, schedules = golden_myopic_sight()
    sys = enumerate_runs(robot, env, placements, schedules)
    assert build_interpreted_system(sys, env, robot) is sys
    assert sys.atoms == sys.atom_labels == {}
    atoms = {("sp", frozenset({0})): frozenset(sys.points)}
    valued = sys.with_atoms(atoms)
    assert valued.atoms is atoms and valued.atom_labels == {}
    for name in ("configs", "config_of", "paths", "adv_seqs", "inits", "lassos"):
        assert getattr(valued, name) is getattr(sys, name), name
    assert (len(valued), valued.length) == (len(sys), sys.length)
    symbols = Symbols({"r1": 0, "r2": 1}, {"U": frozenset({0})}, 6)
    assert valid(valued, parse("K[r1] sp(U)", symbols)).value == "TRUE"
    assert list(valued.atom_labels) == list(atoms) and sys.atom_labels == {}
    again = valued.with_atoms(atoms)
    assert again.atom_labels == {} and again.atom_labels is not valued.atom_labels


def test_runs_are_views_made_on_each_read():
    robot, env, placements, schedules = golden_myopic_sight()
    runs = enumerate_runs(robot, env, placements, schedules)
    n = len(runs)
    assert runs[-1] is not runs[n - 1]
    assert run_fields([runs[-1]]) == run_fields([runs[n - 1]])
    assert b"".join(run.row.tobytes() for run in runs) == runs.config_of.tobytes()
    assert [run.lasso for run in runs] == runs.lassos
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            runs[i]
    with pytest.raises(TypeError, match="^'slice' object cannot be interpreted as an integer$"):
        runs[1:3]


def reordered(schedules):
    """The schedule list in orders that share prefixes less than, or differently from,
    gen_schedules' depth-first order."""
    return {
        "reversed": schedules[::-1],
        "shuffled": random.Random(15).sample(schedules, len(schedules)),
        "duplicated": [path for path in schedules for _ in range(2)],
        # the last path is the first one, so the next placement starts on the path just walked
        "palindrome": schedules + schedules[::-1],
    }


@pytest.mark.parametrize("order", ["reversed", "shuffled", "duplicated", "palindrome"])
@pytest.mark.parametrize("scenario", [golden_myopic_sight, golden_nonrigid_gather,
                                      nonrigid_gather_second_move],
                         ids=["myopic-sight", "nonrigid-gather", "nonrigid-gather-second-move"])
def test_schedule_order_changes_no_run(scenario, order):
    robot, env, placements, schedules = scenario()
    schedules = reordered(schedules)[order]
    runs = enumerate_runs(robot, env, placements, schedules)
    oracle = naive_enumerate(robot, env, placements, schedules)
    assert run_fields(runs) == run_fields(oracle)


@pytest.mark.parametrize("scenario", [s1_h5, nonrigid_gather_second_move],
                         ids=["s1-h5", "nonrigid-gather-second-move"])
def test_each_run_walked_from_where_it_leaves_the_previous_one(monkeypatch, scenario):
    robot, env, placements, schedules = scenario()
    oracle = naive_enumerate(robot, env, placements, schedules)
    lookups = []

    class CountingSucc(dict):
        def get(self, key, default=None):
            lookups.append(key)
            return super().get(key, default)

    init = runs_module._Transitions.__init__

    def counting_init(self, *args):
        init(self, *args)
        self.succ = CountingSucc()

    fired = []
    fire = runs_module.fire

    def counting_fire(residues, robots):
        fired.append((residues, robots))
        return fire(residues, robots)

    monkeypatch.setattr(runs_module._Transitions, "__init__", counting_init)
    monkeypatch.setattr(runs_module, "fire", counting_fire)
    runs = enumerate_runs(robot, env, placements, schedules)
    assert run_fields(runs) == run_fields(oracle)

    # the phase rule once per distinct (residues, robot set) that the paths meet, with the
    # residues (phases fired per robot, mod 3) counted here from phase_maps
    met = set()
    for path in schedules:
        residues = [0] * path.n_robots
        for robots, phases in zip(path.steps, phase_maps(path)):
            met.add((tuple(residues), robots))
            for r, phase in phases.items():
                residues[r] = (PHASES.index(phase) + 1) % len(PHASES)
    assert sorted(fired) == sorted(met)

    # one transition lookup per adversary choice at each step after the prefix a run
    # shares with the run before it; a run that starts at a fork walks from the step after
    # it, since the walk looked its successor up when it stacked the fork
    first = env.adversary_choices[0]
    walked = forked = 0
    for before, run in zip([None, *runs], runs):
        edges = list(zip(run.path.steps, run.adv_seq))
        shared = 0
        if before is not None and before.init_cells == run.init_cells:
            shared = len(list(itertools.takewhile(
                bool, map(tuple.__eq__, zip(before.path.steps, before.adv_seq), edges))))
        if shared < len(edges) and run.adv_seq[shared] != first:
            forked += 1
            shared += 1
        walked += len(edges) - shared
    assert len(lookups) == walked * len(env.adversary_choices)
    assert walked < sum(run.horizon for run in runs)
    # each distinct (placement, schedule prefix, adversary prefix) is made at least once, by
    # a walked step or by the fork a run starts at, and with one adversary choice exactly once
    prefixes = {(run.init_cells, run.path.steps[:t], run.adv_seq[:t])
                for run in runs for t in range(1, run.horizon + 1)}
    assert walked + forked >= len(prefixes)
    if len(env.adversary_choices) == 1:
        assert walked == len(prefixes)


@pytest.mark.parametrize("scenario, n_runs, n_seqs", [
    (s1_h5, 486, 1), (nonrigid_gather_second_move, 5, 3),
], ids=["s1-h5", "nonrigid-gather-second-move"])
def test_runs_with_equal_adversary_sequences_share_one_tuple(scenario, n_runs, n_seqs):
    runs = enumerate_runs(*scenario())
    assert len(runs) == n_runs
    assert len({run.adv_seq for run in runs}) == len({id(run.adv_seq) for run in runs}) == n_seqs
