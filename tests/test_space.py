import itertools
import math

import pytest

from epispace.machine import EXPLORE_SWEEP, Capabilities, make_grid_walker
from epispace.space import DIST_TOL, Grid


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

