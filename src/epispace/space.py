"""Discretized exploration space: grids, cell-set regions, and the region lattice."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

DIST_TOL = 1e-9


class GridMismatchError(ValueError):
    """Raised when two regions on different grids are combined."""


@dataclass(frozen=True)
class Grid:
    """Uniform grid over [0,1]^dim with cells_per_axis cells along each axis.

    Cell indices are row-major with axis 0 most significant; cell centers
    live strictly inside the unit hypercube.
    """

    dim: int
    cells_per_axis: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("grid dimension must be >= 1")
        if self.cells_per_axis < 1:
            raise ValueError("cells_per_axis must be >= 1")

    @property
    def n_cells(self) -> int:
        return self.cells_per_axis ** self.dim

    @property
    def cell_width(self) -> float:
        return 1.0 / self.cells_per_axis

    @cached_property
    def _coords(self) -> tuple[tuple[int, ...], ...]:
        """Coordinates of every cell by index, built on first use."""
        return tuple(itertools.product(range(self.cells_per_axis), repeat=self.dim))

    @cached_property
    def _centers(self) -> tuple[tuple[float, ...], ...]:
        width = self.cell_width
        return tuple(tuple((c + 0.5) * width for c in coords) for coords in self._coords)

    def _check_cell(self, index: int) -> None:
        # the tables would silently wrap a negative index
        if not 0 <= index < len(self._coords):
            raise IndexError(f"cell index {index} out of range for {self.n_cells} cells")

    def cell_coords(self, index: int) -> tuple[int, ...]:
        self._check_cell(index)
        return self._coords[index]

    def cell_index(self, coords: Iterable[int]) -> int:
        coords = tuple(coords)
        if len(coords) != self.dim:
            raise ValueError(f"expected {self.dim} coordinates, got {len(coords)}")
        index = 0
        for c in coords:
            if not 0 <= c < self.cells_per_axis:
                raise IndexError(f"coordinate {c} out of range")
            index = index * self.cells_per_axis + c
        return index

    def cell_center(self, index: int) -> tuple[float, ...]:
        self._check_cell(index)
        return self._centers[index]

    def distance(self, a: int, b: int) -> float:
        pa, pb = self.cell_center(a), self.cell_center(b)
        return math.sqrt(sum((x - y) ** 2 for x, y in zip(pa, pb)))

    def neighbors(self, index: int) -> tuple[int, ...]:
        """Axis neighbors (one step along a single axis)."""
        coords = self.cell_coords(index)
        out = []
        for axis in range(self.dim):
            for delta in (-1, 1):
                c = coords[axis] + delta
                if 0 <= c < self.cells_per_axis:
                    out.append(self.cell_index(coords[:axis] + (c,) + coords[axis + 1:]))
        return tuple(sorted(out))

    def all_cells(self) -> range:
        return range(self.n_cells)

    def region(self, cells: Iterable[int]) -> "Region":
        return Region(self, frozenset(cells))

    def empty_region(self) -> "Region":
        return Region(self, frozenset())

    def full_region(self) -> "Region":
        return Region(self, frozenset(self.all_cells()))

    def quantize(self, point: Iterable[float]) -> int:
        """Cell containing a point of [0,1]^dim (upper faces belong to the last cell)."""
        coords = []
        for x in point:
            c = int(math.floor(x * self.cells_per_axis))
            coords.append(min(max(c, 0), self.cells_per_axis - 1))
        return self.cell_index(coords)


@dataclass(frozen=True)
class Region:
    """A finite union of grid cells; the discrete stand-in for an open set."""

    grid: Grid
    cells: frozenset[int]

    def __post_init__(self):
        if not self.cells <= frozenset(self.grid.all_cells()):
            raise IndexError("region contains cells outside its grid")

    @property
    def is_empty(self) -> bool:
        return not self.cells

    @property
    def is_full(self) -> bool:
        return len(self.cells) == self.grid.n_cells

    def sorted_cells(self) -> list[int]:
        return sorted(self.cells)

    def __contains__(self, cell: int) -> bool:
        return cell in self.cells


def _require_same_grid(u: Region, v: Region) -> None:
    if u.grid != v.grid:
        raise GridMismatchError(f"regions live on different grids: {u.grid} vs {v.grid}")


def region_leq(u: Region, v: Region) -> bool:
    """Containment order: U <= V iff U's cells are a subset of V's.

    This is the order under which sp(V) -> sp(U) for V >= U.
    """
    _require_same_grid(u, v)
    return u.cells <= v.cells


def region_join(u: Region, v: Region) -> Region:
    """Least upper bound: cell-set union."""
    _require_same_grid(u, v)
    return Region(u.grid, u.cells | v.cells)


def cover_is_full(grid: Grid, cover: Iterable[Region]) -> bool:
    """True iff the union of the cover equals the full region of the grid."""
    covered: set[int] = set()
    for r in cover:
        if r.grid != grid:
            raise GridMismatchError("cover member on a different grid")
        covered |= r.cells
    return len(covered) == grid.n_cells


def boundary(u: Region) -> Region:
    """Cells in U with a neighbor outside, plus cells outside with a neighbor in U."""
    grid = u.grid
    cells = set()
    for c in grid.all_cells():
        inside = c in u.cells
        for nb in grid.neighbors(c):
            if (nb in u.cells) != inside:
                cells.add(c)
                break
    return Region(grid, frozenset(cells))


def all_regions(grid: Grid) -> list[Region]:
    """Every cell-set region of the grid, in a deterministic order.

    Exponential in the cell count; meant for exhaustive small-scope tests.
    """
    cells = list(grid.all_cells())
    out = []
    for k in range(len(cells) + 1):
        for combo in itertools.combinations(cells, k):
            out.append(Region(grid, frozenset(combo)))
    return out
