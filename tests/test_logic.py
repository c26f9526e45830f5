import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_runs import count_partitions, table_systems

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
from epispace.runs import (
    InterpretedSystem,
    build_interpreted_system,
    distributed_relation,
    enumerate_runs,
)
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


def point_labels(sys, f):
    """The labels of f in sys.points order, whether labelled per point or per configuration."""
    return list(logic._per_point(sys, *logic._label(sys, f, {})))


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
        assert isinstance(f, DKnow) and f.group == (0,)
        assert isinstance(f.sub, And)
        assert f.sub.right == Not(sp_atom(frozenset({2, 3}), "sp(U2)"))

    def test_distributed_group(self):
        f = parse("D[{r1,r2}] sp(U1)", self.sym)
        assert f == dknow([0, 1], sp_atom(frozenset({0, 1}), "sp(U1)"))

    def test_singleton_group_is_knowledge(self):
        assert parse("D[{r1}] sp(U1)", self.sym) == parse("K[r1] sp(U1)", self.sym)

    @pytest.mark.parametrize("text, printed", [
        ("K[r1] (sp(U1) & !sp(U2))", "K[r1] (sp(U1) & !sp(U2))"),
        ("D[{r1,r2}] <> sp(U1)", "D[{r1,r2}] <> sp(U1)"),
        ("<> E <> sp(UX)", "<> (K[r1] <> sp(UX) & K[r2] <> sp(UX))"),
    ], ids=["K", "D", "E"])
    def test_str_prints_parseable_text(self, text, printed):
        assert str(parse(text, self.sym)) == printed
        assert str(parse(printed, self.sym)) == printed

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

    @pytest.mark.parametrize("text, offset", [("E sp(V)", 0), ("sp(V) & E sp(V)", 8)])
    def test_everyone_without_robots_reports_offset(self, text, offset):
        with pytest.raises(FormulaError, match="E needs at least one robot") as err:
            parse(text, Symbols({}, {"V": frozenset()}, 3))
        assert err.value.offset == offset


class TestSymbols:
    @pytest.mark.parametrize("cells", [{99}, {1, 6}, {-1}])
    def test_region_cell_outside_grid_rejected(self, cells):
        with pytest.raises(ValueError, match=r"^region 'U' has a cell outside 0\.\.5$"):
            Symbols({"r1": 0}, {"U": frozenset(cells)}, 6)

    @pytest.mark.parametrize("robot_id", [-1, 1.0, "0"])
    def test_robot_id_not_an_int_from_zero_rejected(self, robot_id):
        with pytest.raises(ValueError, match=r"^robot 'r1': id .+ is not an int >= 0$"):
            Symbols({"r1": robot_id}, {}, 6)


def repr_keys(f):
    keys = set()
    stack = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, Atom):
            keys.add(node.key)
        elif isinstance(node, (Not, Eventually, DKnow)):
            stack.append(node.sub)
        elif isinstance(node, And):
            stack.extend([node.left, node.right])
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
            if eval_at(sys, p, dknow([0], f)).value == TRUE:
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
        assert valid(sys, implies(dknow([0], f), f)).value == TRUE

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
                return DKnow((rng.choice(robots),), gen(d - 1))
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
                kf = DKnow((r,), f)
                assert valid(sys, implies(kf, f)).value == TRUE
                assert valid(sys, implies(kf, DKnow((r,), kf))).value == TRUE
                assert valid(sys, implies(Not(kf), DKnow((r,), Not(kf)))).value == TRUE

    def test_distributed_singleton_equals_knowledge(self):
        grid, sys = self.install_all_sp(flood_system())
        f = sp_atom(frozenset({0, 1}))
        truth = dict(zip(sys.points, point_labels(sys, f)))
        labels = point_labels(sys, dknow([0], f))
        for p, label in zip(sys.points, labels):
            same = [q for q in sys.points if sys.epi_at(q, 0) == sys.epi_at(p, 0)]
            assert label == kleene_and(truth[q] for q in same), p

    def test_distributed_monotone_in_group(self):
        grid, sys = self.install_all_sp(flood_system())
        f = sp_atom(frozenset({0, 1}))
        assert valid(sys, implies(dknow([0], f), dknow([0, 1], f))).value == TRUE


class TestPartitionsOnDemand:
    @pytest.mark.parametrize("text, groups", [
        ("<> E <> E sp(UX)", [(0,), (1,)]),
        ("D[{r1,r2}] sp(UX) & <> D[{r2,r1}] sp(UX) & K[r2] sp(UX)", [(0, 1), (1,)]),
    ], ids=["cooperative-termination", "repeated-group"])
    def test_each_group_partitioned_once_per_call(self, monkeypatch, text, groups):
        grid, sys = flood_system()
        f = parse(text, symbols(grid, n_robots=2))
        calls = count_partitions(monkeypatch)
        valid(sys, f)
        assert sorted(calls) == groups
        calls.clear()
        eval_at(sys, (0, 0), f)
        assert sorted(calls) == groups

    def test_first_occurrence_order_computed_once_per_system(self, monkeypatch):
        grid, sys = flood_system()
        order = InterpretedSystem.__dict__["config_order"]
        calls = []

        def counting(frame, compute=order.func):
            calls.append(frame)
            return compute(frame)

        monkeypatch.setattr(order, "func", counting)
        # <> over an atom asks for no partition, so it must not pay for the order
        valid(sys, parse("<> sp(UX)", symbols(grid, n_robots=2)))
        assert calls == []
        for text in ("K[r1] sp(UX)", "K[r2] sp(UX)", "D[{r1,r2}] sp(UX)"):
            valid(sys, parse(text, symbols(grid, n_robots=2)))
        assert len(calls) == 1 and calls[0] is sys


class TestLabelShapes:
    def test_state_subformulas_hold_one_label_per_configuration(self):
        # a fall-back to labels per point would pass every oracle test, and lose the gain
        grid, sys = flood_system()
        f = parse("[] (K[r1] sp(UX) -> K[r2] sp(UX))", symbols(grid, n_robots=2))
        ev = f.sub  # [] (a -> b) is !<> !!(a & !b)
        both = ev.sub.sub.sub
        k1, not_k2 = both.left, both.right
        assert (type(both), type(k1), type(not_k2.sub)) == (And, DKnow, DKnow)
        memo = {}
        logic._label(sys, f, memo)
        assert len(sys.configs) < len(sys.points)
        for g in (ev.sub, ev.sub.sub, both, k1, not_k2, not_k2.sub):
            labels, per_config = memo[id(g)]
            assert per_config and len(labels) == len(sys.configs), str(g)
        for g in (k1.sub, ev, f):
            labels, per_config = memo[id(g)]
            assert not per_config and len(labels) == len(sys.points), str(g)


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


def kleene_and(values):
    vs = set(values)
    return False if False in vs else None if None in vs else True


class PointwiseOracle:
    """Truth at each point straight from the definitions, one formula node at a time.

    A node's values at all points are computed from its direct subformulas'
    values and memoized on the formula. K and D scan every point for those where
    each robot of the group has the same epistemic state; <> scans the run's
    future times. Nothing goes through the partitions of the frame,
    distributed_relation or the labelling in logic.
    """

    def __init__(self, sys):
        self.sys = sys
        self.memo = {}  # formula -> point -> value; hashing a formula walks all of it

    def values(self, f, points):
        table = self.table(f)
        return [table[p] for p in points]

    def table(self, f):
        if f not in self.memo:
            self.memo[f] = self._table(f)
        return self.memo[f]

    def _table(self, f):
        sys, points = self.sys, self.sys.points
        if isinstance(f, Atom):
            return {p: p in sys.atoms[f.key] for p in points}
        if isinstance(f, Not):
            return {p: None if v is None else not v for p, v in self.table(f.sub).items()}
        if isinstance(f, And):
            left, right = self.table(f.left), self.table(f.right)
            return {p: kleene_and([left[p], right[p]]) for p in points}
        if isinstance(f, DKnow):
            sub, table = self.table(f.sub), {}
            for p in points:
                if p not in table:  # every member of p's class scans the same points
                    same = [q for q in points
                            if all(sys.epi_at(q, r) == sys.epi_at(p, r) for r in f.group)]
                    table.update(dict.fromkeys(same, kleene_and(sub[q] for q in same)))
            return table
        if isinstance(f, Eventually):
            sub, table = self.table(f.sub), {}
            for run_idx, t in points:
                run = sys.runs[run_idx]
                vs = {sub[run_idx, t2] for t2 in reachable_times(run, t)}
                table[run_idx, t] = (True if True in vs
                                     else None if None in vs or run.is_open else False)
            return table
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


def assert_labels_match_oracle(sys, f, oracle):
    """Every subformula's labels, read per point, equal the oracle's, so an outer
    operator cannot mask a wrong label."""
    memo = {}
    logic._label(sys, f, memo)
    nodes = [f]
    while nodes:
        g = nodes.pop()
        assert list(logic._per_point(sys, *memo[id(g)])) == oracle.values(g, sys.points), str(g)
        nodes.extend(logic._subformulas(g))


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL))
def test_labelling_matches_pointwise_oracle(name):
    builder, count, samples, extra_atoms = DIFFERENTIAL[name]
    grid, sys = TestS5().install_all_sp(builder())
    sys = sys.with_atoms({**sys.atoms, **pos_valuation(sys, grid)})
    oracle = PointwiseOracle(sys)
    rng = random.Random(name)
    seen = set()
    for f in TestS5().random_formulas(sys, grid, count=count, extra_atoms=extra_atoms):
        assert_labels_match_oracle(sys, f, oracle)
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


SET_ATOMS = [Atom(("set", k), f"a{k}") for k in range(3)]


# Kinds of formula node: knowledge first, since hypothesis starts from the first kind,
# and an atom one time in nine above depth 0, so most formulas nest K over <>.
NODE_KINDS = [DKnow, Eventually, And, Not] * 2 + [Atom]


@st.composite
def formulas(draw, groups, depth=4):
    """A formula at most `depth` operators deep over SET_ATOMS: !, &, <>, and D of `groups`."""
    kinds, atoms, groups = (st.sampled_from(x) for x in (NODE_KINDS, SET_ATOMS, groups))

    def node(d):
        kind = draw(kinds) if d else Atom
        if kind is Atom:
            return draw(atoms)
        if kind is And:
            return And(node(d - 1), node(d - 1))
        if kind is DKnow:
            return DKnow(draw(groups), node(d - 1))
        return kind(node(d - 1))

    return node(depth)


class DrawnCase:
    """A drawn system and formula. A failing example prints its repr: the formula's
    text and the system's sizes, not the whole system."""

    def __init__(self, sys, formula):
        self.sys, self.formula = sys, formula

    def __repr__(self):
        sys = self.sys
        return (f"DrawnCase({str(self.formula)!r}, robots={sys.n_robots}, runs={len(sys.runs)}, "
                f"points={len(sys.points)}, configs={len(sys.configs)})")


@st.composite
def labelled_table_systems(draw):
    """A random table_fn system, each of SET_ATOMS true on a random point set, and a
    formula over them."""
    robot, env, placements, schedules, pre_move_look = draw(table_systems())
    runs = enumerate_runs(robot, env, placements, schedules, pre_move_look=pre_move_look)
    sys = build_interpreted_system(runs, env, robot)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    valuation = {}
    for atom in SET_ATOMS:
        # sparse and dense sets leave <> of the atom UNKNOWN at the ends of some open runs
        density = draw(st.sampled_from([0.9, 0.1, 0.5, 0.0, 1.0]))
        valuation[atom.key] = frozenset(p for p in sys.points if rng.random() < density)
    robots = range(sys.n_robots)
    groups = [(r,) for r in robots] + list(itertools.combinations(robots, 2))
    return DrawnCase(sys.with_atoms(valuation), draw(formulas(groups)))


@settings(max_examples=50, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(labelled_table_systems())
def test_random_formulas_label_as_pointwise_oracle(case):
    assert_labels_match_oracle(case.sys, case.formula, PointwiseOracle(case.sys))


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
    assert sys.classes == [
        [tuple(p for p, cid in zip(sys.points, ids) if cid == k) for k in range(max(ids) + 1)]
        for ids in (distributed_relation(sys, [r]) for r in (0, 1))]
    grid, sys = TestS5().install_all_sp((Grid(1, 4), sys))
    sys = sys.with_atoms({**sys.atoms, **pos_valuation(sys, grid)})
    oracle = PointwiseOracle(sys)
    verdicts = set()
    for f in TestS5().random_formulas(sys, grid, count=20, depth=3, seed=13):
        assert_labels_match_oracle(sys, f, oracle)
        verdict = valid(sys, f)
        assert verdict == oracle.valid(f), f
        verdicts.add(verdict.value)
        for p in (sys.points[0], sys.points[-1]):
            assert eval_at(sys, p, f) == oracle.eval_at(p, f), (f, p)
    assert verdicts == {TRUE, FALSE, UNKNOWN}


def class_values(sys, robot, values):
    """Per point, the set of the per-point `values` over the point's class for one robot."""
    members = {}
    for p, v in zip(sys.points, values):
        members.setdefault(sys.epi_at(p, robot), set()).add(v)
    return [members[sys.epi_at(p, robot)] for p in sys.points]


def sweepers():
    """Two sweepers under SSYNC from cells 0 and 2: 12 of the 17 runs are open, and
    the other 5 close on a loop."""
    return two_robot_system(Grid(1, 4), FULL, EXPLORE_SWEEP,
                            gen_schedules(2, 3, SSYNC, fairness_bound=2), [0, 2])[1]


# K[r1] over <> a (labelled per point) and over K[r2] <> a (labelled per configuration)
KNOWLEDGE_OVER_EVENTUALLY = {
    "per-point": DKnow((0,), Eventually(SET_ATOMS[0])),
    "per-configuration": DKnow((0,), DKnow((1,), Eventually(SET_ATOMS[0]))),
}


def off_first_open_run(sys):
    """a everywhere but on the first open run: <> a is UNKNOWN along that run, else TRUE."""
    first = next(i for i, run in enumerate(sys.runs) if run.is_open)
    return frozenset(p for p in sys.points if p[0] != first)


def before_loops(sys):
    """a on each closed run before its loop: <> a is FALSE inside the loops and UNKNOWN
    on the open runs."""
    return frozenset((i, t) for i, t in sys.points
                     if sys.runs[i].lasso is not None and t < sys.runs[i].lasso.start)


@pytest.mark.parametrize("kind", sorted(KNOWLEDGE_OVER_EVENTUALLY))
@pytest.mark.parametrize("valuation, mix, value", [
    (off_first_open_run, {True, None}, None),
    (before_loops, {False, None}, False),
], ids=["true-and-unknown", "false-and-unknown"])
def test_knowledge_of_a_class_with_unknown_points(kind, valuation, mix, value):
    # TRUE and UNKNOWN give UNKNOWN; FALSE and UNKNOWN give FALSE
    f = KNOWLEDGE_OVER_EVENTUALLY[kind]
    sys = sweepers()
    sys = sys.with_atoms({SET_ATOMS[0].key: valuation(sys)})
    classes = class_values(sys, 0, point_labels(sys, f.sub))
    labels = point_labels(sys, f)
    assert labels == list(map(kleene_and, classes))
    mixed = {label for label, members in zip(labels, classes) if members == mix}
    assert mixed == {value}  # the system has such a class, so the case is tested


@pytest.mark.parametrize("name", ["subset", "two-calls"])
def test_knowledge_counts_only_configurations_that_points_have(name):
    robot, env, lists = run_lists()
    sys = build_interpreted_system(lists[name], env, robot)
    assert set(sys.config_of) != set(range(len(sys.configs)))
    sys = sys.with_atoms({SET_ATOMS[0].key: off_first_open_run(sys)})
    f = KNOWLEDGE_OVER_EVENTUALLY["per-configuration"]
    classes = class_values(sys, 0, point_labels(sys, f.sub))
    assert point_labels(sys, f) == list(map(kleene_and, classes))
