import hashlib
import random

import pytest

from epispace.machine import (
    EXPLORE_SWEEP,
    FLOOD_EXPLORE,
    GATHER_OSCILLATE,
    Capabilities,
    make_grid_walker,
)
from epispace.runs import (
    build_interpreted_system,
    canon,
    distributed_relation,
    enumerate_runs,
    export_traces,
    simulate,
)
from epispace.scheduler import ASYNC_K, FSYNC, SSYNC, TimePath, gen_schedules
from epispace.space import Grid

MYOPIC = Capabilities(visibility="myopic", view_radius=0.01)
FULL = Capabilities()


def sweep_runs(n_cells=4, cycles=6):
    grid = Grid(1, n_cells)
    robot, env = make_grid_walker(grid, MYOPIC, EXPLORE_SWEEP)
    schedules = gen_schedules(1, cycles, FSYNC, fairness_bound=1)
    return grid, robot, env, enumerate_runs(robot, env, [[0]], schedules)


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


class TestSimulate:
    @pytest.mark.parametrize("path", [
        TimePath(2, ({0: "X"},)),
        TimePath(2, ({0: "L"}, {0: "L"})),
        TimePath(2, ({},)),
        TimePath(2, ({5: "M"},)),
        TimePath(2, ({5: "M"},), local_clocks=((0, 0), (0, 0))),
    ], ids=["unknown-phase", "out-of-cycle-order", "empty-step", "unknown-robot",
            "unknown-robot-with-clocks"])
    def test_invalid_path_rejected(self, path):
        robot, env = make_grid_walker(Grid(1, 4), FULL, EXPLORE_SWEEP, n_robots=2)
        with pytest.raises(ValueError, match="invalid time path"):
            simulate(robot, env, path, [0, 3])

    def test_deterministic_walker_single_run(self):
        _, _, _, runs = sweep_runs()
        assert len(runs) == 1

    def test_byte_identical_reruns(self):
        grid = Grid(1, 4)
        robot, env = make_grid_walker(grid, MYOPIC, EXPLORE_SWEEP)
        path = gen_schedules(1, 5, FSYNC, fairness_bound=1)[0]
        r1 = simulate(robot, env, path, [0])
        r2 = simulate(robot, env, path, [0])
        assert r1 == r2

    def test_frozen_robot_rule(self):
        grid = Grid(1, 4)
        robot, env = make_grid_walker(grid, MYOPIC, EXPLORE_SWEEP, n_robots=2)
        for path in gen_schedules(2, 2, SSYNC, fairness_bound=3):
            run = simulate(robot, env, path, [0, 2])
            for t in range(run.horizon):
                active = path.participating(t)
                for r in range(2):
                    if r not in active:
                        assert run.states[t].epis[r] == run.states[t + 1].epis[r]
                        assert run.states[t].obss[r] == run.states[t + 1].obss[r]

    def test_explored_monotone(self):
        _, _, _, runs = sweep_runs()
        run = runs[0]
        for t in range(run.horizon):
            assert run.states[t].explored <= run.states[t + 1].explored

    def test_parked_walker_gets_unit_cycle_lasso(self):
        _, _, _, runs = sweep_runs(cycles=6)
        lasso = runs[0].lasso
        assert lasso is not None
        assert lasso.length == 3  # one full parked M,L,C cycle
        assert lasso.cycles == 1.0

    def test_open_run_when_horizon_too_short(self):
        _, _, _, runs = sweep_runs(cycles=2)  # still sweeping at the horizon
        assert runs[0].lasso is None
        assert runs[0].is_open

    def test_pre_move_look_changes_observation(self):
        grid = Grid(1, 4)
        robot, env = make_grid_walker(grid, FULL, EXPLORE_SWEEP, n_robots=2)
        # at the final step robot 0 moves while robot 1 looks
        path = TimePath(2, (
            {0: "M", 1: "M"}, {0: "L", 1: "L"}, {0: "C", 1: "C"},
            {1: "M"}, {0: "M", 1: "L"},
        ))
        post = simulate(robot, env, path, [0, 2])
        pre = simulate(robot, env, path, [0, 2], pre_move_look=True)
        seen_post = post.states[5].obss[1][0][0]
        seen_pre = pre.states[5].obss[1][0][0]
        assert (seen_pre, seen_post) == (0, 1)  # robot 1 sees robot 0 pre vs post move


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


class TestFrame:
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
        init_class = sys.class_of[0][sys.points.index((0, 0))]
        sharing = {p for p, cid in zip(sys.points, sys.class_of[0]) if cid == init_class}
        assert len({run_idx for run_idx, _ in sharing}) > 1

    def test_class_ids_aligned_with_points_by_first_occurrence(self):
        grid = Grid(1, 4)
        robot, env = make_grid_walker(grid, MYOPIC, EXPLORE_SWEEP, n_robots=2,
                                      strips=[(0, 1), (2, 3)])
        runs = enumerate_runs(robot, env, [[0, 2]], gen_schedules(2, 2, SSYNC, fairness_bound=3))
        sys = build_interpreted_system(runs, env, robot)
        for r in range(2):
            ids = sys.class_of[r]
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
        assert distributed_relation(sys, [0]) == sys.class_of[0]

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
            for i in range(n):
                for j in range(n):
                    if both[i] == both[j]:
                        assert sys.class_of[r][i] == sys.class_of[r][j]

    def test_distributed_equals_intersection(self):
        grid = Grid(1, 4)
        robot, env = make_grid_walker(grid, MYOPIC, EXPLORE_SWEEP, n_robots=2,
                                      strips=[(0, 1), (2, 3)])
        schedules = gen_schedules(2, 2, SSYNC, fairness_bound=3)
        runs = enumerate_runs(robot, env, [[0, 2]], schedules)
        sys = build_interpreted_system(runs, env, robot)
        both = distributed_relation(sys, [0, 1])
        n = len(sys.points)
        for i in range(n):
            for j in range(n):
                same = all(sys.class_of[r][i] == sys.class_of[r][j] for r in range(2))
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


def golden_sweep():
    _, _, env, runs = sweep_runs(cycles=6)
    return runs, env


def golden_ssync_flood():
    robot, env = flood_pair()
    schedules = gen_schedules(2, 3, SSYNC, fairness_bound=4)
    return enumerate_runs(robot, env, [[0, 2]], schedules), env


def golden_async_flood(pre_move_look):
    robot, env = flood_pair()
    schedules = gen_schedules(2, 2, ASYNC_K, fairness_bound=2, k=1)
    return enumerate_runs(robot, env, [[0, 2]], schedules, pre_move_look=pre_move_look), env


def golden_nonrigid_gather():
    caps = Capabilities(movement="non-rigid", min_distance=0.5)
    robot, env = make_grid_walker(Grid(2, 2), caps, GATHER_OSCILLATE, n_robots=2,
                                  rendezvous=[(0,), (3,)])
    schedules = gen_schedules(2, 1, SSYNC, fairness_bound=2)
    return enumerate_runs(robot, env, [[1, 2]], schedules), env


# sha256 of the export_traces lines, each followed by a newline. These pin the
# simulator's output byte for byte: a refactor of simulate must keep them.
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
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_traces(name):
    build, n_runs, digest = GOLDEN[name]
    runs, env = build()
    assert len(runs) == n_runs
    h = hashlib.sha256()
    for line in export_traces(runs, env):
        h.update(line.encode() + b"\n")
    assert h.hexdigest() == digest
