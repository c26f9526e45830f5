import itertools
import math

import pytest

from epispace.machine import EXPLORE_SWEEP, Capabilities, make_grid_walker
from epispace.space import (
    DIST_TOL,
    Grid,
    GridMismatchError,
    all_regions,
    boundary,
    cover_is_full,
    region_join,
    region_leq,
)


def g1d(n=4):
    return Grid(dim=1, cells_per_axis=n)


class TestGrid:
    def test_index_coord_roundtrip_2d(self):
        grid = Grid(dim=2, cells_per_axis=3)
        for i in grid.all_cells():
            assert grid.cell_index(grid.cell_coords(i)) == i

    def test_centers_inside_unit_cube(self):
        grid = Grid(dim=2, cells_per_axis=4)
        for i in grid.all_cells():
            assert all(0.0 < x < 1.0 for x in grid.cell_center(i))

    def test_neighbors_1d(self):
        grid = g1d(4)
        assert grid.neighbors(0) == (1,)
        assert grid.neighbors(2) == (1, 3)

    def test_quantize_clamps(self):
        grid = g1d(4)
        assert grid.quantize([0.0]) == 0
        assert grid.quantize([1.0]) == 3
        assert grid.quantize([0.26]) == 1

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


class TestRegionOrder:
    def test_empty_below_everything(self):
        grid = g1d()
        for v in all_regions(grid):
            assert region_leq(grid.empty_region(), v)

    def test_reflexive(self):
        grid = g1d()
        for u in all_regions(grid):
            assert region_leq(u, u)

    def test_superset_not_leq(self):
        grid = g1d(4)
        u = grid.region({0, 1})
        v = grid.region({1})
        assert not region_leq(u, v)
        assert region_leq(v, u)

    def test_grid_mismatch_raises(self):
        with pytest.raises(GridMismatchError):
            region_leq(g1d(4).empty_region(), g1d(5).empty_region())

    def test_partial_order_laws_exhaustive(self):
        # poset laws by enumeration on a small grid
        grid = Grid(dim=1, cells_per_axis=3)
        regions = all_regions(grid)
        for u in regions:
            assert region_leq(u, u)
        for u, v in itertools.product(regions, repeat=2):
            if region_leq(u, v) and region_leq(v, u):
                assert u == v
        for u, v, w in itertools.product(regions, repeat=3):
            if region_leq(u, v) and region_leq(v, w):
                assert region_leq(u, w)


class TestRegionJoin:
    def test_identity_and_idempotence(self):
        grid = g1d()
        for u in all_regions(grid):
            assert region_join(u, grid.empty_region()) == u
            assert region_join(u, u) == u

    def test_union_example(self):
        grid = g1d(4)
        assert region_join(grid.region({0}), grid.region({2})) == grid.region({0, 2})

    def test_lattice_laws_exhaustive(self):
        grid = Grid(dim=1, cells_per_axis=3)
        regions = all_regions(grid)
        for u, v in itertools.product(regions, repeat=2):
            j = region_join(u, v)
            assert j == region_join(v, u)
            assert region_leq(u, j) and region_leq(v, j)
            # least upper bound
            for w in regions:
                if region_leq(u, w) and region_leq(v, w):
                    assert region_leq(j, w)
        for u, v, w in itertools.product(regions, repeat=3):
            assert region_join(region_join(u, v), w) == region_join(u, region_join(v, w))

    def test_join_monotone(self):
        grid = Grid(dim=1, cells_per_axis=3)
        regions = all_regions(grid)
        for u, v, w in itertools.product(regions, repeat=3):
            if region_leq(u, v):
                assert region_leq(region_join(u, w), region_join(v, w))


class TestCover:
    def test_full_region_covers(self):
        grid = g1d()
        assert cover_is_full(grid, [grid.full_region()])

    def test_empty_cover_is_not_full(self):
        assert not cover_is_full(g1d(), [])

    def test_union_enumeration_example(self):
        grid = g1d(4)
        cover = [grid.region({0, 1}), grid.region({1, 2}), grid.region({3})]
        assert cover_is_full(grid, cover)
        assert not cover_is_full(grid, cover[:2])

    def test_cover_equiv_join_fold(self):
        grid = Grid(dim=1, cells_per_axis=3)
        regions = all_regions(grid)
        for combo in itertools.combinations(regions, 2):
            folded = grid.empty_region()
            for r in combo:
                folded = region_join(folded, r)
            assert cover_is_full(grid, combo) == region_leq(grid.full_region(), folded)


class TestBoundaryBall:
    def test_full_region_has_no_boundary(self):
        grid = g1d(4)
        assert boundary(grid.full_region()) == grid.empty_region()
        assert boundary(grid.empty_region()) == grid.empty_region()

    def test_boundary_definition_1d(self):
        grid = g1d(4)
        assert boundary(grid.region({0, 1})).cells == frozenset({1, 2})

