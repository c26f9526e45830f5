import functools
import itertools
import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_runs import sweep_frame

from epispace.logic import Atom, Symbols, dknow, eval_at, everyone, valid
from epispace.machine import (
    EXPLORE_SWEEP,
    FLOOD_EXPLORE,
    GATHER_MIN_REGION,
    Capabilities,
    EnvMachine,
    make_grid_walker,
)
from epispace.runs import config_classes, enumerate_runs
from epispace.scheduler import ASYNC_K, FSYNC, SSYNC, CapExceededError, TimePath, gen_schedules
from epispace.space import DIST_TOL, Grid, check_count


class TestGrid:
    def test_centers_inside_unit_cube(self):
        grid = Grid(dim=2, cells_per_axis=4)
        for i in grid.all_cells():
            assert all(0.0 < x < 1.0 for x in grid.cell_center(i))

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError):
            Grid(dim=0, cells_per_axis=4)
        with pytest.raises(ValueError):
            Grid(dim=1, cells_per_axis=0)


GEOMETRY_GRIDS = [Grid(1, 6), Grid(2, 8), Grid(3, 3)]


def divmod_coords(grid, index):
    """Cell coordinates by repeated divmod, the definition the coordinate table replaces."""
    coords = []
    for _ in range(grid.dim):
        index, c = divmod(index, grid.cells_per_axis)
        coords.append(c)
    return tuple(reversed(coords))


def divmod_center(grid, index):
    return tuple((c + 0.5) * grid.cell_width for c in divmod_coords(grid, index))


class TestGeometryTables:
    @pytest.mark.parametrize("grid", GEOMETRY_GRIDS, ids=str)
    def test_coords_and_centers_match_divmod_definition(self, grid):
        for i in grid.all_cells():
            assert grid.cell_coords(i) == divmod_coords(grid, i)
            assert grid.cell_center(i) == divmod_center(grid, i)

    @pytest.mark.parametrize("grid", GEOMETRY_GRIDS, ids=str)
    def test_out_of_range_cells_rejected(self, grid):
        for bad in (-1, grid.n_cells):
            with pytest.raises(IndexError):
                grid.cell_coords(bad)
            with pytest.raises(IndexError):
                grid.cell_center(bad)
            with pytest.raises(IndexError):
                grid.distance(0, bad)

    @pytest.mark.parametrize("grid", GEOMETRY_GRIDS, ids=str)
    def test_distance_is_exact_euclidean(self, grid):
        centers = [divmod_center(grid, i) for i in grid.all_cells()]
        for a, b in itertools.product(grid.all_cells(), repeat=2):
            expected = math.sqrt(sum((x - y) ** 2 for x, y in zip(centers[a], centers[b])))
            assert grid.distance(a, b) == expected

    # on Grid(2,4), cells are 0.25 wide: the same cell only, then the boundary exactly
    # on the axis neighbours and on the diagonal neighbours (ordered cell pairs in sight)
    @pytest.mark.parametrize("radius, pairs_in_sight", [
        (0.01, 16), (0.25, 16 + 48), (0.25 * math.sqrt(2), 16 + 48 + 36)])
    def test_myopic_observation_matches_brute_force_visibility(self, radius, pairs_in_sight):
        grid = Grid(2, 4)
        _, env = make_grid_walker(grid, Capabilities(visibility="myopic", view_radius=radius),
                                  EXPLORE_SWEEP, n_robots=2)
        seen = 0
        for cells in itertools.product(grid.all_cells(), repeat=2):
            state = env.make_initial_env(cells)
            centers = [divmod_center(grid, c) for c in cells]
            sight = math.dist(*centers) <= radius + DIST_TOL
            seen += sight
            expected = tuple(tuple(state[other] if other == rid or sight else None
                                   for other in range(2)) for rid in range(2))
            assert env.emit_obs(state, None) == expected
        assert seen == pairs_in_sight



# One fixed case per named error: the call and its whole message.
@pytest.mark.parametrize("call, message", [
    (lambda: Grid(0, 4), "dim 0 is not an int >= 1"),
    (lambda: Grid(True, 4), "dim True is not an int >= 1"),
    (lambda: Grid(1, 6.0), "cells_per_axis 6.0 is not an int >= 1"),
    (lambda: Grid(1, "6"), "cells_per_axis '6' is not an int >= 1"),
    (lambda: check_count("cell", 4, 0, 4), "cell 4 is not an int in 0..3"),
    (lambda: check_count("cell", -1, 0, 4), "cell -1 is not an int in 0..3"),
    # an int out of range is an IndexError (test_out_of_range_cells_rejected); a non-int is not
    (lambda: Grid(1, 4).cell_coords(1.0), "cell 1.0 is not an int in 0..3"),
    (lambda: Grid(1, 4).cell_coords(True), "cell True is not an int in 0..3"),
    (lambda: Grid(2, 2).cell_center("1"), "cell '1' is not an int in 0..3"),
    (lambda: Grid(1, 4).distance(0, None), "cell None is not an int in 0..3"),
    (lambda: Grid(1, 4).distance(False, 1), "cell False is not an int in 0..3"),
], ids=["zero-dim", "bool-dim", "float-cells", "str-cells", "count-at-bound",
        "count-below-least", "float-cell-coords", "bool-cell-coords", "str-cell-center",
        "none-distance-cell", "bool-distance-cell"])
def test_named_errors(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as raised:
        call()
    assert type(raised.value) is ValueError


def test_check_count_returns_an_int_in_range():
    assert [check_count("n", v, 0, 4) for v in range(4)] == [0, 1, 2, 3]
    assert check_count("n", 10**30, 1) == 10**30


frame = functools.cache(sweep_frame)  # built once: the calls below only read it
GRID = Grid(1, 4)
ONE_ROUND = gen_schedules(1, 1, FSYNC, fairness_bound=1)
ATOM = Atom("a", "a0")
FULL = Capabilities()

# Per public entry point, one of its int, cell, cap or point parameters as a call on
# the drawn value, and whether the call takes a bool as the int it equals.
SCALAR_CALLS = {
    "grid-dim": (lambda x: Grid(x, 2), False),
    "grid-cells": (lambda x: Grid(1, x), False),
    "walker-robots": (lambda x: make_grid_walker(GRID, FULL, EXPLORE_SWEEP, n_robots=x), False),
    "walker-period": (lambda x: make_grid_walker(GRID, FULL, FLOOD_EXPLORE, broadcast_period=x),
                      False),
    "strip-cell": (lambda x: make_grid_walker(GRID, FULL, EXPLORE_SWEEP, strips=[[x]]), False),
    "rendezvous-cell": (lambda x: make_grid_walker(GRID, FULL, GATHER_MIN_REGION,
                                                   rendezvous=[[x]]), False),
    "env-robots": (lambda x: EnvMachine(x, evolve=lambda s, a, adv: s, emit_obs=lambda s, adv: (),
                                        make_initial_env=tuple), False),
    "initial-cell": (lambda x: make_grid_walker(GRID, FULL, EXPLORE_SWEEP)[1]
                     .make_initial_env([x]), False),
    "path-robots": (lambda x: TimePath(x, ((0,),)), False),
    "path-robot-id": (lambda x: TimePath(2, ((x,),)), False),
    "path-repeated-robot-id": (lambda x: TimePath(2, ((1,), (x,))), False),
    "family-robots": (lambda x: gen_schedules(x, 1, SSYNC, 1), False),
    "family-horizon": (lambda x: gen_schedules(2, x, SSYNC, 1), False),
    "family-fairness": (lambda x: gen_schedules(2, 2, SSYNC, x), False),
    "family-drift": (lambda x: gen_schedules(2, 1, ASYNC_K, 1, k=x), False),
    "family-cap": (lambda x: gen_schedules(1, 1, SSYNC, 1, cap=x), False),
    "runs-cap": (lambda x: enumerate_runs(*make_grid_walker(GRID, FULL, EXPLORE_SWEEP), [[0]],
                                          ONE_ROUND, cap=x), False),
    "runs-placement-cell": (lambda x: enumerate_runs(*make_grid_walker(GRID, FULL, EXPLORE_SWEEP),
                                                     [[x]], ONE_ROUND), False),
    "classes-robot": (lambda x: config_classes(frame(), [x]), False),
    "symbols-robot": (lambda x: Symbols({"r1": x}, {}, 4), False),
    "symbols-cells": (lambda x: Symbols({}, {}, x), False),
    "symbols-region-cell": (lambda x: Symbols({}, {"U": [x]}, 4), False),
    "dknow-robot": (lambda x: dknow([x], ATOM), False),
    "everyone-robot": (lambda x: everyone([x], ATOM), False),
    "explored-at-run": (lambda x: frame().explored_at((x, 0)), True),
    "explored-at-t": (lambda x: frame().explored_at((0, x)), True),
    "explored-at-point": (lambda x: frame().explored_at(x), True),
    "point-index-run": (lambda x: frame().points.index((x, 0)), False),
    "point-index-t": (lambda x: frame().points.index((0, x)), False),
    "eval-at-t": (lambda x: eval_at(frame().with_atoms({ATOM.key: frozenset()}), (0, x),
                                    ATOM), False),
    "atom-point-run": (lambda x: valid(frame().with_atoms({ATOM.key: frozenset({(x, 0)})}),
                                       ATOM), False),
    "atom-point": (lambda x: valid(frame().with_atoms({ATOM.key: frozenset({x})}), ATOM),
                   False),
}
SCALARS = st.one_of(st.integers(-3, 8), st.floats(), st.booleans(), st.text(max_size=2),
                    st.none())


@pytest.mark.parametrize("name", SCALAR_CALLS)
@settings(max_examples=10, derandomize=True, deadline=None)
@given(x=SCALARS)
@example(x=True)
@example(x=1.0)
@example(x="1")
@example(x=None)
@example(x=-1)
def test_ill_typed_scalars_give_a_result_or_a_value_error(name, x):
    call, takes_bools = SCALAR_CALLS[name]
    try:
        call(x)
    except (ValueError, CapExceededError):
        return
    assert type(x) is int or (takes_bools and type(x) is bool), f"{name} took {x!r}"
