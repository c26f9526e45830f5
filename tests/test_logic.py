import itertools
import random

import pytest

from epispace import logic
from epispace.logic import (
    FALSE,
    TRUE,
    UNKNOWN,
    And,
    Atom,
    DKnow,
    Eventually,
    FormulaError,
    Know,
    Not,
    Symbols,
    UnknownAtomError,
    Verdict,
    box,
    conj,
    disj,
    dknow,
    eval_at,
    everyone,
    implies,
    parse,
    pos_atom,
    sp_atom,
    valid,
)
from epispace.machine import (
    EXPLORE_SWEEP,
    FLOOD_EXPLORE,
    GATHER_OSCILLATE,
    Capabilities,
    make_grid_walker,
)
from epispace.runs import build_interpreted_system, distributed_relation, enumerate_runs
from epispace.scheduler import ASYNC_K, FSYNC, SSYNC, gen_schedules
from epispace.space import Grid

MYOPIC = Capabilities(visibility="myopic", view_radius=0.01)
FULL = Capabilities()


def sp_valuation(sys, regions):
    """Hand-rolled valuation: sp(U) holds where U is inside the explored set."""
    atoms = {}
    for cells in regions:
        cells = frozenset(cells)
        atoms[("sp", cells)] = frozenset(
            p for p in sys.points if cells <= sys.explored_at(p)
        )
    return atoms


def sweep_system(n_cells=4, cycles=6, regions=None):
    grid = Grid(1, n_cells)
    robot, env = make_grid_walker(grid, MYOPIC, EXPLORE_SWEEP)
    runs = enumerate_runs(robot, env, [[0]], gen_schedules(1, cycles, FSYNC, fairness_bound=1))
    sys = build_interpreted_system(runs, env, robot)
    region_list = regions if regions is not None else [frozenset(range(n_cells))]
    return grid, sys.with_atoms(sp_valuation(sys, region_list))


def flood_system(cycles=8):
    grid = Grid(1, 4)
    robot, env = make_grid_walker(grid, FULL, FLOOD_EXPLORE, n_robots=2,
                                  strips=[(0, 1), (2, 3)])
    runs = enumerate_runs(robot, env, [[0, 2]],
                          gen_schedules(2, cycles, FSYNC, fairness_bound=1))
    sys = build_interpreted_system(runs, env, robot)
    regions = [frozenset(range(4)), frozenset({0, 1}), frozenset({2, 3})]
    return grid, sys.with_atoms(sp_valuation(sys, regions))


def symbols(grid, n_robots=1, regions=None):
    regs = {"UX": frozenset(grid.all_cells())}
    regs.update(regions or {})
    return Symbols(
        robots={f"r{i + 1}": i for i in range(n_robots)},
        regions=regs,
        n_cells=grid.n_cells,
    )


class TestParser:
    def setup_method(self):
        self.sym = symbols(Grid(1, 4), n_robots=2,
                           regions={"U1": frozenset({0, 1}), "U2": frozenset({2, 3})})

    def test_eventually_full_region(self):
        f = parse("<> sp(UX)", self.sym)
        assert f == Eventually(sp_atom(frozenset({0, 1, 2, 3}), "sp(UX)"))

    def test_cooperative_termination_shape(self):
        f = parse("<> E <> E sp(UX)", self.sym)
        inner = everyone([0, 1], sp_atom(frozenset({0, 1, 2, 3}), "sp(UX)"))
        assert f == Eventually(everyone([0, 1], Eventually(inner)))

    def test_nested_knowledge(self):
        f = parse("K[r1] (sp(U1) & !sp(U2))", self.sym)
        assert isinstance(f, Know) and f.robot == 0
        assert isinstance(f.sub, And)
        assert f.sub.right == Not(sp_atom(frozenset({2, 3}), "sp(U2)"))

    def test_distributed_group(self):
        f = parse("D[{r1,r2}] sp(U1)", self.sym)
        assert f == dknow([0, 1], sp_atom(frozenset({0, 1}), "sp(U1)"))

    def test_box_expands_to_not_diamond_not(self):
        f = parse("[] sp(U1)", self.sym)
        u1 = sp_atom(frozenset({0, 1}), "sp(U1)")
        assert f == Not(Eventually(Not(u1)))
        assert f == box(u1)

    def test_implication_and_disjunction(self):
        f = parse("sp(U1) -> (sp(U1) | sp(U2))", self.sym)
        u1 = sp_atom(frozenset({0, 1}), "sp(U1)")
        u2 = sp_atom(frozenset({2, 3}), "sp(U2)")
        assert f == implies(u1, disj([u1, u2]))

    def test_positional_atoms(self):
        f = parse("pos[r1](c3) & pos[r2](c0)", self.sym)
        assert repr_keys(f) == {("pos", 0, 3), ("pos", 1, 0)}
        # no valuation ever defined these two atoms
        for text in ("sp(U1) & init_pos[r2](c0)", "sp(U1) & in(c1, U1)"):
            with pytest.raises(FormulaError, match="expected a formula") as err:
                parse(text, self.sym)
            assert err.value.offset == len("sp(U1) & ")

    def test_unknown_robot_reports_offset(self):
        with pytest.raises(FormulaError, match="unknown robot name 'r9'"):
            parse("K[r9] sp(U1)", self.sym)

    def test_syntax_error_offset(self):
        with pytest.raises(FormulaError) as err:
            parse("sp(U1) &", self.sym)
        assert err.value.offset == 8

    def test_trailing_garbage(self):
        with pytest.raises(FormulaError, match="trailing input"):
            parse("sp(U1) sp(U2)", self.sym)

    def test_cell_out_of_range(self):
        with pytest.raises(FormulaError, match="outside the grid"):
            parse("pos[r1](c9)", self.sym)


def repr_keys(f):
    keys = set()
    stack = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, Atom):
            keys.add(node.key)
        elif isinstance(node, (Not, Eventually)):
            stack.append(node.sub)
        elif isinstance(node, And):
            stack.extend([node.left, node.right])
        elif isinstance(node, (Know,)):
            stack.append(node.sub)
    return keys


class TestEval:
    def test_atom_lookup(self):
        _, sys = sweep_system()
        full = sp_atom(frozenset(range(4)))
        assert eval_at(sys, (0, 0), full).value == FALSE
        assert eval_at(sys, (0, sys.runs[0].horizon), full).value == TRUE

    def test_eventually_full_with_witness(self):
        _, sys = sweep_system()
        verdict = eval_at(sys, (0, 0), Eventually(sp_atom(frozenset(range(4)))))
        assert verdict.value == TRUE
        # step 12 is the COMPUTE closing sweep cycle index 3 ("within 4 cycles")
        assert verdict.witnesses == ((0, 12),)

    def test_factivity_wherever_known(self):
        _, sys = sweep_system(regions=[frozenset({0, 1})])
        f = sp_atom(frozenset({0, 1}))
        for p in sys.points:
            if eval_at(sys, p, Know(0, f)).value == TRUE:
                assert eval_at(sys, p, f).value == TRUE

    def test_point_outside_system_rejected(self):
        _, sys = sweep_system()
        horizon = sys.runs[0].horizon
        # the point's position is its run's offset + t, so no index may wrap or spill over
        for point in ((5, 0), (1, 0), (-1, 0), (0, -1), (0, horizon + 1)):
            with pytest.raises(ValueError, match="outside the system"):
                eval_at(sys, point, sp_atom(frozenset()))

    def test_unknown_atom_kind(self):
        _, sys = sweep_system()
        with pytest.raises(UnknownAtomError):
            eval_at(sys, (0, 0), Atom(("nonsense",), "nonsense"))

    def test_temporary_formulas_do_not_collide(self):
        _, sys = sweep_system()
        a = sp_atom(frozenset(range(4)))
        # temporaries are freed and rebuilt in turn; one formula's labels must
        # never answer for another
        for _ in range(200):
            assert eval_at(sys, (0, 0), Not(a)).value == TRUE
            assert eval_at(sys, (0, 0), And(a, a)).value == FALSE

    def test_unvalued_atom_raises_under_false_conjunct(self):
        # the left conjunct is FALSE everywhere, yet the right one has no valuation
        _, sys = sweep_system(regions=[frozenset()])
        f = And(Not(sp_atom(frozenset())), pos_atom(0, 1))
        with pytest.raises(UnknownAtomError):
            valid(sys, f)
        with pytest.raises(UnknownAtomError):
            eval_at(sys, (0, 0), f)


class TestValid:
    def test_empty_region_valid_everywhere(self):
        _, sys = sweep_system(regions=[frozenset()])
        assert valid(sys, sp_atom(frozenset())).value == TRUE

    def test_factivity_validity(self):
        _, sys = sweep_system(regions=[frozenset({0, 1})])
        f = sp_atom(frozenset({0, 1}))
        assert valid(sys, implies(Know(0, f), f)).value == TRUE

    def test_flooding_distributed_knowledge(self):
        _, sys = flood_system()
        full = sp_atom(frozenset(range(4)))
        assert valid(sys, Eventually(dknow([0, 1], full))).value == TRUE

    def test_false_collects_witnesses(self):
        _, sys = sweep_system()
        verdict = valid(sys, sp_atom(frozenset(range(4))))
        assert verdict.value == FALSE
        assert (0, 0) in verdict.witnesses


class TestS5:
    def random_formulas(self, sys, grid, count=50, depth=4, seed=7, extra_atoms=()):
        rng = random.Random(seed)
        atoms = [sp_atom(frozenset(c)) for c in [(0,), (0, 1), tuple(range(grid.n_cells)), ()]]
        atoms += extra_atoms
        robots = list(range(sys.n_robots))

        def gen(d):
            if d == 0 or rng.random() < 0.25:
                return rng.choice(atoms)
            kind = rng.choice(["not", "and", "or", "K", "D", "ev", "box"])
            if kind == "not":
                return Not(gen(d - 1))
            if kind == "and":
                return And(gen(d - 1), gen(d - 1))
            if kind == "or":
                return disj([gen(d - 1), gen(d - 1)])
            if kind == "K":
                return Know(rng.choice(robots), gen(d - 1))
            if kind == "D":
                return dknow(rng.sample(robots, rng.randint(1, len(robots))), gen(d - 1))
            if kind == "ev":
                return Eventually(gen(d - 1))
            return box(gen(d - 1))

        return [gen(depth) for _ in range(count)]

    def install_all_sp(self, sys_builder):
        grid, sys = sys_builder
        regions = [frozenset(c) for c in [(0,), (0, 1), tuple(range(grid.n_cells)), ()]]
        return grid, sys.with_atoms(sp_valuation(sys, regions))

    @pytest.mark.parametrize("builder", ["sweep", "flood"])
    def test_s5_laws_on_random_battery(self, builder):
        grid, sys = self.install_all_sp(sweep_system() if builder == "sweep" else flood_system())
        for f in self.random_formulas(sys, grid):
            for r in range(sys.n_robots):
                kf = Know(r, f)
                assert valid(sys, implies(kf, f)).value == TRUE
                assert valid(sys, implies(kf, Know(r, kf))).value == TRUE
                assert valid(sys, implies(Not(kf), Know(r, Not(kf)))).value == TRUE

    def test_distributed_singleton_equals_knowledge(self):
        grid, sys = self.install_all_sp(flood_system())
        f = sp_atom(frozenset({0, 1}))
        for p in sys.points:
            assert eval_at(sys, p, Know(0, f)).value == eval_at(sys, p, dknow([0], f)).value

    def test_distributed_monotone_in_group(self):
        grid, sys = self.install_all_sp(flood_system())
        f = sp_atom(frozenset({0, 1}))
        assert valid(sys, implies(dknow([0], f), dknow([0, 1], f))).value == TRUE


class TestDeepFormulas:
    # each deep formula next to a shallow one with the same labels on the closed sweep
    CHAINS = [
        ("!" * 2000 + " sp(UX)", "sp(UX)", FALSE),
        ("! <> " * 1000 + "sp(UX)", "! <> ! <> sp(UX)", TRUE),
        ("<> " * 2000 + "sp(UX)", "<> sp(UX)", TRUE),
        ("K[r1] [] " * 1000 + "sp(UX)", "K[r1] [] sp(UX)", FALSE),
        ("D[{r1}] E " * 1000 + "sp(UX)", "K[r1] sp(UX)", FALSE),
        ("sp(UX) -> " * 2000 + "sp(UX)", "sp(UX) -> sp(UX)", TRUE),
    ]

    @pytest.mark.parametrize("deep, shallow, value", CHAINS, ids=[
        "not-2000", "not-ev-1000", "ev-2000", "k-box-1000", "d-e-1000", "implies-2000"])
    def test_chains_parse_and_label_without_recursion(self, deep, shallow, value):
        grid, sys = sweep_system()
        verdict = valid(sys, parse(deep, symbols(grid)))
        assert verdict == valid(sys, parse(shallow, symbols(grid)))
        assert verdict.value == value

    def test_parentheses_past_the_limit_raise_formula_error(self):
        sym = symbols(Grid(1, 4))
        nested = "(" * logic.MAX_NESTING + "sp(UX)" + ")" * logic.MAX_NESTING
        assert parse(nested, sym) == parse("sp(UX)", sym)
        for depth in (logic.MAX_NESTING + 1, 100_000):
            with pytest.raises(FormulaError, match="nested deeper") as err:
                parse("(" * depth + "sp(UX)" + ")" * depth, sym)
            assert err.value.offset == logic.MAX_NESTING + 1


class TestMonotoneAtoms:
    def test_sp_antitone_in_region_order(self):
        grid = Grid(1, 4)
        _, sys = sweep_system()
        regions = [frozenset(c) for k in range(grid.n_cells + 1)
                   for c in itertools.combinations(grid.all_cells(), k)]
        sys = sys.with_atoms(sp_valuation(sys, regions))
        for u, v in itertools.product(regions, repeat=2):
            if u <= v:
                f = implies(sp_atom(v), sp_atom(u))
                assert valid(sys, f).value == TRUE


class TestBoxDiamondDuality:
    def test_semantic_duality_on_closed_runs(self):
        grid, sys = sweep_system()
        rng = random.Random(3)
        battery = TestS5().random_formulas(sys, grid, count=20, depth=3, seed=11)
        sys = sys.with_atoms(sp_valuation(sys, [frozenset(c) for c in
                                                [(0,), (0, 1), tuple(range(4)), ()]]))
        for f in battery:
            for p in sys.points:
                b = eval_at(sys, p, box(f)).value
                d = eval_at(sys, p, Not(Eventually(Not(f)))).value
                assert b == d


class TestThreeValued:
    def test_open_run_eventually_unknown(self):
        _, sys = sweep_system(cycles=2)  # horizon too short to park
        assert sys.runs[0].is_open
        full = sp_atom(frozenset(range(4)))
        assert eval_at(sys, (0, 0), Eventually(full)).value == UNKNOWN
        assert eval_at(sys, (0, 0), box(Not(full))).value == UNKNOWN

    def test_decided_verdicts_stable_under_extension(self):
        decided = {}
        for cycles in (6, 9):
            _, sys = sweep_system(cycles=cycles,
                                  regions=[frozenset(range(4)), frozenset({0})])
            full = sp_atom(frozenset(range(4)))
            small = sp_atom(frozenset({0}))
            for label, f in (("ev_full", Eventually(full)), ("box_not", box(Not(small))),
                             ("ev_small", Eventually(small))):
                v = eval_at(sys, (0, 0), f).value
                if cycles == 6:
                    decided[label] = v
                elif decided[label] in (TRUE, FALSE):
                    assert v == decided[label]

    def test_conjunction_kleene(self):
        _, sys = sweep_system(cycles=2)
        full = sp_atom(frozenset(range(4)))
        seen0 = sp_atom(frozenset({0}))
        sys = sys.with_atoms(sp_valuation(sys, [frozenset(range(4)), frozenset({0})]))
        # UNKNOWN & FALSE is FALSE; UNKNOWN & TRUE is UNKNOWN
        f = And(Eventually(full), sp_atom(frozenset(range(4))))
        assert eval_at(sys, (0, 0), f).value == FALSE
        assert eval_at(sys, (0, 3), And(Eventually(full), seen0)).value == UNKNOWN


def reachable_times(run, t):
    """The times whose configurations t reaches on the run's lasso unrolling.

    An open run reaches t..H. On a closed run the loop wraps around, so a time
    inside the loop also reaches the loop from its head on.
    """
    return range(t if run.lasso is None else min(t, run.lasso.start), run.horizon + 1)


class PointwiseOracle:
    """Truth at one point straight from the definitions, memoized on (formula, point).

    K and D scan every point for those where each robot of the group has the
    same epistemic state; <> scans the run's future times. Nothing goes through
    the partitions of the frame, distributed_relation or the labelling in logic.
    """

    def __init__(self, sys):
        self.sys = sys
        self.memo = {}  # formula -> point -> value; hashing a formula walks all of it

    def values(self, f, points):
        table = self.memo.setdefault(f, {})
        for p in points:
            if p not in table:
                table[p] = self._value(f, p)
        return [table[p] for p in points]

    def _value(self, f, p):
        sys = self.sys
        if isinstance(f, Atom):
            return p in sys.atoms[f.key]
        if isinstance(f, Not):
            [v] = self.values(f.sub, [p])
            return None if v is None else not v
        if isinstance(f, And):
            vs = set(self.values(f.left, [p]) + self.values(f.right, [p]))
            return False if False in vs else None if None in vs else True
        if isinstance(f, (Know, DKnow)):
            group = (f.robot,) if isinstance(f, Know) else f.group
            same = [q for q in sys.points
                    if all(sys.epi_at(q, r) == sys.epi_at(p, r) for r in group)]
            vs = set(self.values(f.sub, same))
            v = False if False in vs else None if None in vs else True
            # every member of the class scans the same points
            self.memo[f].update(dict.fromkeys(same, v))
            return v
        if isinstance(f, Eventually):
            run_idx, t = p
            run = sys.runs[run_idx]
            vs = set(self.values(f.sub, [(run_idx, t2) for t2 in reachable_times(run, t)]))
            return True if True in vs else None if None in vs or run.is_open else False
        raise TypeError(f)

    def valid(self, f):
        values = self.values(f, self.sys.points)
        for name, value in ((FALSE, False), (UNKNOWN, None)):
            hits = tuple(p for p, v in zip(self.sys.points, values) if v is value)
            if hits:
                return Verdict(name, hits[:20])
        return Verdict(TRUE)

    def eval_at(self, p, f):
        [v] = self.values(f, [p])
        if v is True and isinstance(f, Eventually):
            run_idx, t = p
            times = reachable_times(self.sys.runs[run_idx], t)
            subs = self.values(f.sub, [(run_idx, t2) for t2 in times])
            return Verdict(TRUE, ((run_idx, times[subs.index(True)]),))
        return Verdict({True: TRUE, False: FALSE, None: UNKNOWN}[v])


def pos_valuation(sys, grid):
    """Hand-rolled valuation: pos[r](c) holds where robot r stands on cell c."""
    where = {(i, t): sys.env_machine.positions(state.env)
             for i, run in enumerate(sys.runs) for t, state in enumerate(run.states)}
    return {("pos", r, c): frozenset(p for p in sys.points if where[p][r] == c)
            for r in range(sys.n_robots) for c in grid.all_cells()}


def two_robot_system(grid, caps, protocol, schedules, init, **walker_kw):
    robot, env = make_grid_walker(grid, caps, protocol, n_robots=2, **walker_kw)
    runs = enumerate_runs(robot, env, [init], schedules)
    return grid, build_interpreted_system(runs, env, robot)


FLOOD_STRIPS = [(0, 1), (2, 3)]

# name -> (system builder, formula count, eval_at points sampled per formula,
# atoms beyond the sp ones). Only oscillate-lasso has a closed run whose loop
# changes an atom, so only it tells <> on the lasso unrolling from <> on the prefix.
DIFFERENTIAL = {
    "sweep-open": (lambda: sweep_system(cycles=2), 50, 4, ()),
    "sweep-closed": (sweep_system, 50, 4, ()),
    "ssync-flood": (lambda: two_robot_system(
        Grid(1, 4), FULL, FLOOD_EXPLORE, gen_schedules(2, 3, SSYNC, fairness_bound=4),
        [0, 2], strips=FLOOD_STRIPS), 50, 2, ()),
    "kasync-flood": (lambda: two_robot_system(
        Grid(1, 4), FULL, FLOOD_EXPLORE, gen_schedules(2, 2, ASYNC_K, fairness_bound=2, k=1),
        [0, 2], strips=FLOOD_STRIPS), 6, 1, ()),
    "nonrigid-gather": (lambda: two_robot_system(
        Grid(2, 2), Capabilities(movement="non-rigid", min_distance=0.5), GATHER_OSCILLATE,
        gen_schedules(2, 1, SSYNC, fairness_bound=2), [1, 2], rendezvous=[(0,), (3,)]), 50, 2, ()),
    "oscillate-lasso": (lambda: two_robot_system(
        Grid(1, 4), FULL, GATHER_OSCILLATE, gen_schedules(2, 5, FSYNC, fairness_bound=1),
        [0, 3], rendezvous=[(1,), (2,)]), 50, 4, [pos_atom(r, c) for r in (0, 1) for c in (1, 2)]),
}


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL))
def test_labelling_matches_pointwise_oracle(name):
    builder, count, samples, extra_atoms = DIFFERENTIAL[name]
    grid, sys = TestS5().install_all_sp(builder())
    sys = sys.with_atoms({**sys.atoms, **pos_valuation(sys, grid)})
    oracle = PointwiseOracle(sys)
    rng = random.Random(name)
    seen = set()
    for f in TestS5().random_formulas(sys, grid, count=count, extra_atoms=extra_atoms):
        assert logic._label(sys, f, {}) == oracle.values(f, sys.points), f
        verdict = valid(sys, f)
        assert verdict == oracle.valid(f), f
        seen.add(verdict.value)
        for p in [(0, 0)] + rng.sample(sys.points, samples):
            for g in (f, Eventually(f)):
                assert eval_at(sys, p, g) == oracle.eval_at(p, g), (g, p)
    if name == "sweep-open":
        assert seen == {TRUE, FALSE, UNKNOWN}
    if name == "oscillate-lasso":
        assert not sys.runs[0].is_open


def run_lists():
    """Run lists whose point order differs from the order their tables were filled in."""
    robot, env = make_grid_walker(Grid(1, 4), FULL, FLOOD_EXPLORE, n_robots=2,
                                  strips=FLOOD_STRIPS)
    schedules = gen_schedules(2, 3, SSYNC, fairness_bound=4)
    runs = enumerate_runs(robot, env, [[0, 2]], schedules)
    return robot, env, {
        "reordered": random.Random(5).sample(runs, len(runs)),
        "subset": runs[12:] + runs[1:12:3],
        # every enumerate_runs call has its own table, so equal configurations get several ids
        "two-calls": [enumerate_runs(robot, env, [[1, 3]], [schedules[9]])[0],
                      enumerate_runs(robot, env, [[0, 2]], [schedules[9]])[0]] + runs[5:10],
    }


@pytest.mark.parametrize("name", ["reordered", "subset", "two-calls"])
def test_frame_from_any_run_list_matches_pointwise_definition(name):
    robot, env, lists = run_lists()
    sys = build_interpreted_system(lists[name], env, robot)
    for group in ([0], [1], [0, 1]):
        first = {}
        expected = [first.setdefault(tuple(sys.epi_at(p, r) for r in group), len(first))
                    for p in sys.points]
        assert distributed_relation(sys, group) == expected, group
    assert sys.class_of == [distributed_relation(sys, [r]) for r in (0, 1)]
    grid, sys = TestS5().install_all_sp((Grid(1, 4), sys))
    sys = sys.with_atoms({**sys.atoms, **pos_valuation(sys, grid)})
    oracle = PointwiseOracle(sys)
    verdicts = set()
    for f in TestS5().random_formulas(sys, grid, count=20, depth=3, seed=13):
        verdict = valid(sys, f)
        assert verdict == oracle.valid(f), f
        verdicts.add(verdict.value)
    assert verdicts == {TRUE, FALSE, UNKNOWN}
