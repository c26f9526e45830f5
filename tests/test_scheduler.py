from collections import Counter
from itertools import combinations, product

import pytest

from epispace.scheduler import (
    ASYNC_K,
    FSYNC,
    PHASES,
    SSYNC,
    CapExceededError,
    TimePath,
    gen_schedules,
)


def brute_ssync_count(n_robots, horizon):
    # enumeration oracle: nonempty subsets per round
    return (2 ** n_robots - 1) ** horizon


class TestGeneration:
    def test_single_robot_any_synchrony_single_path(self):
        for syn in (FSYNC, SSYNC, ASYNC_K):
            fam = gen_schedules(1, 3, syn, fairness_bound=4)
            assert len(fam) == 1
            assert fam[0].steps == ((0,),) * 9

    def test_fsync_diagonal(self):
        fam = gen_schedules(2, 3, FSYNC, fairness_bound=1)
        assert len(fam) == 1
        path = fam[0]
        assert path.steps == ((0, 1),) * 9
        # phases aligned across robots
        for t in range(9):
            assert path.activations[t][0] == path.activations[t][1] == PHASES[t % 3]

    def test_ssync_count_matches_oracle(self):
        fam = gen_schedules(2, 2, SSYNC, fairness_bound=3)  # bound > horizon: unconstrained
        assert len(fam) == brute_ssync_count(2, 2) == 9

    def test_ssync_fairness_filters(self):
        fam = gen_schedules(2, 2, SSYNC, fairness_bound=2)
        # window of 2 rounds must activate both robots: drop {1}{1} and {2}{2}
        assert len(fam) == 7

    def test_cap_enforced(self):
        with pytest.raises(CapExceededError):
            gen_schedules(3, 6, SSYNC, fairness_bound=7, cap=100)

    @pytest.mark.parametrize("synchrony, kwargs, size",
                             [(ASYNC_K, {"k": 1}, 583), (SSYNC, {}, 7)], ids=[ASYNC_K, SSYNC])
    def test_cap_is_exact(self, synchrony, kwargs, size):
        # the cap counts generated paths: a cap of the family's size admits it, one less does not
        with pytest.raises(CapExceededError):
            gen_schedules(2, 2, synchrony, fairness_bound=2, cap=size - 1, **kwargs)
        assert len(gen_schedules(2, 2, synchrony, fairness_bound=2, cap=size, **kwargs)) == size

    def test_long_path_needs_no_recursion(self):
        # the family is one 1,200-step path
        fam = gen_schedules(1, 400, ASYNC_K, fairness_bound=1)
        assert len(fam) == 1 and fam[0].horizon_steps == 1200

    def test_deep_family_reaches_cap(self):
        with pytest.raises(CapExceededError):
            gen_schedules(2, 400, ASYNC_K, fairness_bound=2, cap=10)

    def test_all_generated_paths_valid(self):
        # every step is a nonempty sorted tuple of distinct robots, and rebuilding keeps the path
        for syn, kwargs in ((FSYNC, {}), (SSYNC, {}), (ASYNC_K, {"k": 2})):
            for path in gen_schedules(2, 2, syn, fairness_bound=3, **kwargs):
                for step in path.steps:
                    assert type(step) is tuple and step and list(step) == sorted(set(step))
                    assert set(step) <= {0, 1}
                assert TimePath(2, path.steps) == path

    def test_families_deduplicated_and_deterministic(self):
        for syn, kwargs in ((SSYNC, {"fairness_bound": 3}),
                            (ASYNC_K, {"fairness_bound": 2, "k": 1})):
            fam1 = gen_schedules(2, 2, syn, **kwargs)
            fam2 = gen_schedules(2, 2, syn, **kwargs)
            assert fam1 == fam2
            assert len(set(fam1)) == len(fam1)


def oracle_family(n_robots, horizon, synchrony, fairness_bound, k):
    """The family straight from its definition, without pruning.

    Enumerate every sequence of nonempty robot sets, one per round (FSYNC: all
    robots) or one per step (k-ASYNC), and keep it when every window of
    3 * fairness_bound steps contains every robot, the completed-cycle counts
    differ by at most k after every step (k-ASYNC only), and every robot
    completes horizon // fairness_bound cycles. Returns the kept step sequences
    with, per step, the phase each robot fires: a robot in n earlier steps
    fires PHASES[n % 3].
    """
    robots = range(n_robots)
    if synchrony == FSYNC:
        sets = [frozenset(robots)]
    else:
        sets = [frozenset(c) for size in range(1, n_robots + 1)
                for c in combinations(robots, size)]
    if synchrony == ASYNC_K:
        sequences = product(sets, repeat=len(PHASES) * horizon)
    else:
        sequences = ([s for s in rounds for _ in PHASES]
                     for rounds in product(sets, repeat=horizon))
    window = len(PHASES) * fairness_bound
    family = []
    for steps in sequences:
        fair = all(set().union(*steps[i:i + window]) == set(robots)
                   for i in range(len(steps) - window + 1))
        counts = [0] * n_robots
        activations = []
        max_drift = 0
        for s in steps:
            activations.append({r: PHASES[counts[r] % len(PHASES)] for r in s})
            for r in s:
                counts[r] += 1
            cycles = [c // len(PHASES) for c in counts]
            max_drift = max(max_drift, max(cycles) - min(cycles))
        bounded = synchrony != ASYNC_K or max_drift <= k
        floor = all(c // len(PHASES) >= horizon // fairness_bound for c in counts)
        if fair and bounded and floor:
            family.append((tuple(tuple(sorted(s)) for s in steps), activations))
    return family


# k-ASYNC with three robots stops at H=1: H=2 has 7**6 step sequences to filter
ORACLE_GRID = [
    (n_robots, horizon, synchrony)
    for n_robots in (1, 2, 3)
    for horizon in (1, 2)
    for synchrony in (FSYNC, SSYNC, ASYNC_K)
    if not (synchrony == ASYNC_K and n_robots == 3 and horizon == 2)
] + [(2, 3, SSYNC)]


@pytest.mark.parametrize("n_robots, horizon, synchrony", ORACLE_GRID)
def test_family_matches_brute_force(n_robots, horizon, synchrony):
    for fairness_bound in (1, 2, 3):
        for k in ((1, 2) if synchrony == ASYNC_K else (1,)):
            expected = oracle_family(n_robots, horizon, synchrony, fairness_bound, k)
            family = gen_schedules(n_robots, horizon, synchrony, fairness_bound, k=k)
            assert [path.steps for path in family] == [steps for steps, _ in expected]
            # the activations view bench/rep.py counts with derives the oracle's phases
            assert [list(path.activations) for path in family] == [acts for _, acts in expected]


class TestInclusion:
    def test_fsync_subset_of_ssync(self):
        fs = gen_schedules(2, 2, FSYNC, fairness_bound=3)
        ss = gen_schedules(2, 2, SSYNC, fairness_bound=3)
        assert set(fs) <= set(ss)

    def test_ssync_subset_of_kasync_for_k_at_least_horizon(self):
        # an SSYNC path can drift up to `horizon` cycles, so take k = horizon
        horizon = 2
        ss = gen_schedules(2, horizon, SSYNC, fairness_bound=3)
        ka = gen_schedules(2, horizon, ASYNC_K, fairness_bound=3, k=horizon)
        assert set(ss) <= set(ka)

    def test_chain_at_horizon_one(self):
        fs = gen_schedules(2, 1, FSYNC, fairness_bound=2)
        ss = gen_schedules(2, 1, SSYNC, fairness_bound=2)
        ka = gen_schedules(2, 1, ASYNC_K, fairness_bound=2, k=1)
        assert set(fs) <= set(ss) <= set(ka)


class TestTimePath:
    def test_activations_are_read_only(self):
        path = gen_schedules(2, 1, FSYNC, fairness_bound=1)[0]
        before = hash(path)
        with pytest.raises(TypeError):
            path.activations[0][0] = "L"
        assert path.activations[0][0] == "M" and hash(path) == before

    def test_steps_are_sorted_sets(self):
        path = TimePath(2, ((1, 0), frozenset({1}), (0,)))
        assert path.steps == ((0, 1), (1,), (0,))
        assert path == TimePath(2, ((0, 1), (1,), (0,)))
        assert TimePath(2, ((1, 0),)) == TimePath(2, ((0, 1),))
        assert hash(TimePath(2, ((1, 0),))) == hash(TimePath(2, ((0, 1),)))
        assert TimePath(2, ((0,),)) != TimePath(3, ((0,),))

    def test_each_distinct_step_checked_once(self):
        reads = []

        class Step(frozenset):
            def __iter__(self):
                reads.append(self)
                return super().__iter__()

        def reads_for(repeats):
            reads.clear()
            TimePath(2, (Step({0, 1}), Step({1})) * repeats)
            return len(reads)

        assert reads_for(100) == reads_for(1) > 0


class TestInvariants:
    def test_fairness_cycle_floor(self):
        cases = [(SSYNC, 4, 2, {}), (ASYNC_K, 2, 2, {"k": 2})]
        for syn, horizon, bound, kwargs in cases:
            for path in gen_schedules(2, horizon, syn, fairness_bound=bound, **kwargs):
                fired = Counter(r for step in path.steps for r in step)
                for r in range(2):
                    assert fired[r] // len(PHASES) >= horizon // bound

    def test_nonempty_participation(self):
        for path in gen_schedules(2, 2, ASYNC_K, fairness_bound=3, k=2):
            for step in path.steps:
                assert step


class TestValidatePath:
    """The constructor is the path check: a step names a nonempty set of the path's robots."""

    def test_fsync_valid(self):
        path = gen_schedules(2, 2, FSYNC, fairness_bound=1)[0]
        assert TimePath(path.n_robots, path.steps) == path

    def test_empty_step_reported(self):
        with pytest.raises(ValueError, match="invalid time path: step 1: empty participating set"):
            TimePath(2, ((0,), ()))

    def test_phase_order_enforced(self):
        # a step holds robots, not phases: each robot's phases follow M -> L -> C from its count
        path = TimePath(2, ((0,), (0, 1), (1,), (0,), (0,)))
        assert [dict(step) for step in path.activations] == [
            {0: "M"}, {0: "L", 1: "M"}, {1: "L"}, {0: "C"}, {0: "M"}]
        with pytest.raises(ValueError, match="invalid time path: step 0: "):
            TimePath(1, ({0: "L"},))
