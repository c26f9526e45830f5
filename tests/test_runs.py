import hashlib
import itertools
import random
from array import array
from dataclasses import dataclass, replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from epispace import runs as runs_module
from epispace.logic import Symbols, parse, valid
from epispace.machine import (
    EXPLORE_SWEEP,
    FLOOD_EXPLORE,
    GATHER_OSCILLATE,
    Capabilities,
    EnvMachine,
    RobotMachine,
    make_grid_walker,
    table_fn,
)
from epispace.runs import (
    Lasso,
    StepState,
    SystemRun,
    build_interpreted_system,
    canon,
    distributed_relation,
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

    def counting(configs, order, group):
        calls.append(tuple(group))
        return compute(configs, order, group)

    monkeypatch.setattr(runs_module, "_number_classes", counting)
    return calls


def brute_partition(sys, robot):
    # O(n^2) oracle: pairwise epistemic-state comparison, then closure
    points = sys.points
    parent = {p: p for p in points}

    def find(p):
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    for i, p in enumerate(points):
        for q in points[i + 1:]:
            if sys.epi_at(p, robot) == sys.epi_at(q, robot):
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
        r1 = enumerate_runs(robot, env, [[0]], [path])[0]
        r2 = enumerate_runs(robot, env, [[0]], [path])[0]
        assert r1 == r2

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
        assert lasso.length == 3  # one full parked M,L,C cycle

    def test_open_run_when_horizon_too_short(self):
        _, _, _, runs = sweep_runs(cycles=2)  # still sweeping at the horizon
        assert runs[0].lasso is None
        assert runs[0].is_open

    def test_pre_move_look_changes_observation(self):
        grid = Grid(1, 4)
        robot, env = make_grid_walker(grid, FULL, EXPLORE_SWEEP, n_robots=2)
        # at the final step robot 0 moves while robot 1 looks
        path = TimePath(2, ((0, 1), (0, 1), (0, 1), (1,), (0, 1)))
        post = enumerate_runs(robot, env, [[0, 2]], [path])[0]
        pre = enumerate_runs(robot, env, [[0, 2]], [path], pre_move_look=True)[0]
        seen_post = post.states[5].obss[1][0][0]
        seen_pre = pre.states[5].obss[1][0][0]
        assert (seen_pre, seen_post) == (0, 1)  # robot 1 sees robot 0 pre vs post move


# Scenarios as enumerate_runs arguments: (robot, env, placements, schedules, pre_move_look).
def s1_h5():
    """bench/workloads.py's S1 at H=5."""
    robot, env = make_grid_walker(Grid(1, 6), FULL, FLOOD_EXPLORE, n_robots=2,
                                  strips=[(0, 1, 2), (3, 4, 5)])
    return robot, env, [[0, 3], [1, 4]], gen_schedules(2, 5, SSYNC, fairness_bound=6), False


def myopic_fsync_sweep():
    """A miniature of bench/workloads.py's sweep-long whose robots see each other one cell apart."""
    grid = Grid(2, 3)
    caps = Capabilities(visibility="myopic", view_radius=grid.cell_width)
    robot, env = make_grid_walker(grid, caps, EXPLORE_SWEEP, n_robots=2)
    placements = [[0, 1], [8, 5], [4, 3], [2, 6]]
    return robot, env, placements, gen_schedules(2, 8, FSYNC, fairness_bound=1), False


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
        assert enumerate_runs(robot, env, [[0]], []) == []

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

    def test_adversary_branching_over_cap_rejected_before_any_step(self):
        # 27 SSYNC paths of 9 steps, each step with 3 adversary choices: 27 * 3**9 = 531,441 runs
        caps = Capabilities(movement="non-rigid", min_distance=0.5)
        robot, env = make_grid_walker(Grid(2, 2), caps, GATHER_OSCILLATE, n_robots=2,
                                      rendezvous=[(0,), (3,)])
        schedules = gen_schedules(2, 3, SSYNC, fairness_bound=4)
        assert (len(schedules), len(env.adversary_choices)) == (27, 3)
        calls = []

        def logged(fn):
            def call(*args):
                calls.append(args)
                return fn(*args)
            return call

        robot = replace(robot, **{name: logged(getattr(robot, name)) for name in
                                  ("observe", "step", "control", "light", "initial_epi",
                                   "footprint")})
        env = replace(env, **{name: logged(getattr(env, name)) for name in
                              ("evolve", "emit_obs", "make_initial_env")})
        with pytest.raises(CapExceededError, match="adversary branching"):
            enumerate_runs(robot, env, [[1, 2]], schedules)
        assert calls == []

    def test_each_distinct_transition_computed_once(self):
        # S1 at H=5: 7,290 step edges, 2,430 of them with a MOVE,
        # over 1,311 distinct transitions and 1,031 distinct configurations
        robot, env, placements, schedules, _ = s1_h5()
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
        assert len(calls) == len(moving)
        states = {id(state) for run in runs for state in run.states}
        configs = {state for run in runs for state in run.states}
        assert len(states) == len(configs) == 1031

    def test_rows_index_one_table_and_frame_and_labels_never_read_states(self, monkeypatch):
        robot, env, placements, schedules, _ = s1_h5()
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
        lambda: golden_ssync_flood(), lambda: golden_async_flood(True),
    ], ids=["s1-h5", "myopic-fsync-sweep", "ssync-flood", "kasync-pre-move-look"])
    def test_each_component_runs_once_per_distinct_argument(self, scenario):
        robot, env, placements, schedules, pre_move_look = scenario()
        calls = {name: [] for name in ("control", "step", "footprint", "emit_obs", "evolve")}

        def logged(name, fn):
            def call(*args):
                calls[name].append(args)
                return fn(*args)
            return call

        robot = replace(robot, control=logged("control", robot.control),
                        step=logged("step", robot.step),
                        footprint=logged("footprint", robot.footprint))
        env = replace(env, emit_obs=logged("emit_obs", env.emit_obs),
                      evolve=logged("evolve", env.evolve))
        runs = enumerate_runs(robot, env, placements, schedules, pre_move_look=pre_move_look)

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
                        looked = before.env if pre_move_look else after.env
                        needed["emit_obs"].add((looked, run.adv_seq[t]))
                    else:
                        needed["step"].add((before.epis[r], after.obss[r]))
                        needed["footprint"].add((r, after.obss[r]))
                if "M" in act.values():
                    needed["evolve"].add((id(before), tuple(sorted(act.items())), run.adv_seq[t]))
        for name in ("control", "step", "footprint", "emit_obs"):
            assert len(calls[name]) == len(set(calls[name])), f"{name} repeated an argument"
            assert set(calls[name]) == needed[name], name
        # evolve is memoized only through the transition table: once per distinct moving transition
        assert len(calls["evolve"]) == len(needed["evolve"])


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

    @pytest.mark.parametrize("env_robots", [1, 3])
    def test_robot_count_mismatch_rejected(self, env_robots):
        robot, env = make_grid_walker(Grid(1, 4), FULL, EXPLORE_SWEEP, n_robots=2)
        runs = enumerate_runs(robot, env, [[0, 3]], gen_schedules(2, 1, SSYNC, fairness_bound=2))
        other_robot, other_env = make_grid_walker(Grid(1, 4), FULL, EXPLORE_SWEEP,
                                                  n_robots=env_robots)
        with pytest.raises(ValueError, match="^runs and environment disagree on the robot count$"):
            build_interpreted_system(runs, other_env, other_robot)

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
        ids = distributed_relation(sys, [0])
        init_class = ids[sys.points.index((0, 0))]
        sharing = {p for p, cid in zip(sys.points, ids) if cid == init_class}
        assert len({run_idx for run_idx, _ in sharing}) > 1

    def test_class_ids_aligned_with_points_by_first_occurrence(self):
        grid = Grid(1, 4)
        robot, env = make_grid_walker(grid, MYOPIC, EXPLORE_SWEEP, n_robots=2,
                                      strips=[(0, 1), (2, 3)])
        runs = enumerate_runs(robot, env, [[0, 2]], gen_schedules(2, 2, SSYNC, fairness_bound=3))
        sys = build_interpreted_system(runs, env, robot)
        for r in range(2):
            ids = distributed_relation(sys, [r])
            assert isinstance(ids, list) and len(ids) == len(sys.points)
            first = {}
            for p, cid in zip(sys.points, ids):
                first.setdefault(sys.epi_at(p, r), len(first))
                assert cid == first[sys.epi_at(p, r)]
            assert distributed_relation(sys, [r]) == ids
            assert [list(c) for c in sys.classes[r]] == [
                [p for p, cid in zip(sys.points, ids) if cid == k] for k in range(len(first))]


class TestDistributed:
    def test_singleton_group_equals_individual(self):
        _, robot, env, runs = sweep_runs()
        sys = build_interpreted_system(runs, env, robot)
        members = {}
        for p, cid in zip(sys.points, distributed_relation(sys, [0])):
            members.setdefault(cid, set()).add(p)
        assert {frozenset(m) for m in members.values()} == brute_partition(sys, 0)

    def test_group_refines_members(self):
        grid = Grid(1, 4)
        robot, env = make_grid_walker(grid, MYOPIC, EXPLORE_SWEEP, n_robots=2,
                                      strips=[(0, 1), (2, 3)])
        schedules = gen_schedules(2, 2, SSYNC, fairness_bound=3)
        runs = enumerate_runs(robot, env, [[0, 2]], schedules)
        sys = build_interpreted_system(runs, env, robot)
        both = distributed_relation(sys, [0, 1])
        n = len(sys.points)
        for r in range(2):
            ids = distributed_relation(sys, [r])
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
        both = distributed_relation(sys, [0, 1])
        singles = [distributed_relation(sys, [r]) for r in range(2)]
        n = len(sys.points)
        for i in range(n):
            for j in range(n):
                same = all(ids[i] == ids[j] for ids in singles)
                assert (both[i] == both[j]) == same

    def test_empty_group_rejected(self):
        _, robot, env, runs = sweep_runs()
        sys = build_interpreted_system(runs, env, robot)
        with pytest.raises(ValueError):
            distributed_relation(sys, [])


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
    return robot, env, [[0]], gen_schedules(1, 6, FSYNC, fairness_bound=1), False


def golden_ssync_flood():
    robot, env = flood_pair()
    return robot, env, [[0, 2]], gen_schedules(2, 3, SSYNC, fairness_bound=4), False


def golden_async_flood(pre_move_look):
    robot, env = flood_pair()
    schedules = gen_schedules(2, 2, ASYNC_K, fairness_bound=2, k=1)
    return robot, env, [[0, 2]], schedules, pre_move_look


def golden_nonrigid_gather():
    caps = Capabilities(movement="non-rigid", min_distance=0.5)
    robot, env = make_grid_walker(Grid(2, 2), caps, GATHER_OSCILLATE, n_robots=2,
                                  rendezvous=[(0,), (3,)])
    return robot, env, [[1, 2]], gen_schedules(2, 1, SSYNC, fairness_bound=2), False


def golden_myopic_sight():
    # a view radius of one cell: robots see each other on the same or an axis-adjacent cell
    grid = Grid(2, 3)
    caps = Capabilities(visibility="myopic", view_radius=grid.cell_width)
    robot, env = make_grid_walker(grid, caps, EXPLORE_SWEEP, n_robots=2)
    return robot, env, [[0, 1], [3, 5]], gen_schedules(2, 3, SSYNC, fairness_bound=4), False


# sha256 of the export_traces lines, each followed by a newline. These pin the
# simulator's output byte for byte: a refactor of enumerate_runs must keep them.
GOLDEN = {
    "fsync-sweep": (golden_sweep, 1,
                    "98946283d6f220d318226e56006f27599543f96f7d33360b74a2949fdb94e713"),
    "ssync-flood": (golden_ssync_flood, 27,
                    "20bd301897c067963b330ecc4e79ac5676e411e20c0fb509e86f250d44d36dd9"),
    "kasync-flood-post-move-look": (lambda: golden_async_flood(False), 583,
                                    "e72562a2b70aebefe5a0ddcd011775a9b4f74d7260d5ff5015e5894931b1d3e9"),
    "kasync-flood-pre-move-look": (lambda: golden_async_flood(True), 583,
                                   "b2ec9e7bf4fe2dc3159e13b00ac9081ac86ed0cdfaaee6d251b16fb78f5e18fa"),
    "nonrigid-gather": (golden_nonrigid_gather, 81,
                        "b83e70bec80f6abd6885116757898723e1d87d5db25f3096ed2794763e762831"),
    "myopic-sight": (golden_myopic_sight, 54,
                     "498f5ce846259f791e59280a495e3bb96c88b8ebc71bb96d2fa8cfb6cfe856b0"),
}


def golden_runs(name):
    robot, env, placements, schedules, pre_move_look = GOLDEN[name][0]()
    return enumerate_runs(robot, env, placements, schedules, pre_move_look=pre_move_look), env


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
    runs, _ = golden_runs(name)
    table = runs[0].table
    assert all(run.table is table for run in runs)
    for field_name in StepState._fields:
        first = {}
        assert all(first.setdefault(part, part) is part
                   for part in (getattr(state, field_name) for state in table)), field_name


def brute_lasso(run):
    """Smallest tail window whose end configuration equals its start, by value, in which
    every robot fires whole LCM cycles."""
    states = run.states
    # clocks[t][r]: phases robot r has fired before step t
    clocks = list(itertools.accumulate(
        run.path.steps, lambda row, step: [c + (r in step) for r, c in enumerate(row)],
        initial=[0] * run.path.n_robots))
    horizon = run.horizon
    windows = [start for start in range(horizon)
               if states[start] == states[horizon]
               and all((b - a) % len(PHASES) == 0 for a, b in zip(clocks[start], clocks[horizon]))]
    return Lasso(max(windows), horizon - max(windows)) if windows else None


@dataclass(frozen=True)
class NaiveRun:
    """A run as the reference simulator builds it: its own list of configurations."""

    path: TimePath
    adv_seq: tuple
    init_cells: tuple
    states: tuple
    lasso: Lasso | None = None

    @property
    def horizon(self):
        return len(self.states) - 1


def naive_simulate(robot, env, path, init_cells, adv_seq, pre_move_look):
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

    run = NaiveRun(path, tuple(adv_seq), tuple(init_cells), tuple(states))
    return replace(run, lasso=brute_lasso(run))


def naive_enumerate(robot, env, placements, schedules, pre_move_look):
    """enumerate_runs' runs, in its order, one naive_simulate call each."""
    return [naive_simulate(robot, env, path, init, seq, pre_move_look)
            for init in placements
            for path in schedules
            for seq in itertools.product(env.adversary_choices, repeat=path.horizon_steps)]


def assert_same_runs(runs, oracle, env):
    assert len(runs) == len(oracle)
    assert export_traces(runs, env) == export_traces(oracle, env)
    for run, ref in zip(runs, oracle):
        assert (run.path, run.adv_seq, run.init_cells) == (ref.path, ref.adv_seq, ref.init_cells)
        assert run.states == list(ref.states)
        assert run.lasso == ref.lasso


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_runs_match_naive_simulation(name):
    robot, env, placements, schedules, pre_move_look = GOLDEN[name][0]()
    runs = enumerate_runs(robot, env, placements, schedules, pre_move_look=pre_move_look)
    assert_same_runs(runs, naive_enumerate(robot, env, placements, schedules, pre_move_look), env)


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
    """A small random table_fn robot and environment, schedules, placements and look mode."""
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
    return robot, env, placements, schedules, draw(st.booleans())


@settings(max_examples=40, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(table_systems())
def test_enumerate_runs_matches_naive_simulation(system):
    robot, env, placements, schedules, pre_move_look = system
    runs = enumerate_runs(robot, env, placements, schedules, pre_move_look=pre_move_look)
    assert_same_runs(runs, naive_enumerate(robot, env, placements, schedules, pre_move_look), env)
