"""Discretized exploration space: a uniform grid of cells over the unit hypercube.

A region is a frozenset of cell indices; the runs carry the explored cells as
one, and the formula layer names regions by their cells.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

DIST_TOL = 1e-9


def check_count(name: str, value, least: int, below: int | None = None) -> int:
    """`value` if it is an int, not a bool, with least <= value (< below when given);
    else ValueError naming `name` and the value. The one rule for an int argument."""
    if type(value) is not int or value < least or (below is not None and value >= below):
        bound = f">= {least}" if below is None else f"in {least}..{below - 1}"
        raise ValueError(f"{name} {value!r} is not an int {bound}")
    return value


@dataclass(frozen=True)
class Grid:
    """Uniform grid over [0,1]^dim with cells_per_axis cells along each axis.

    Cell indices are row-major with axis 0 most significant; cell centers
    live strictly inside the unit hypercube.
    """

    dim: int
    cells_per_axis: int

    def __post_init__(self):
        check_count("dim", self.dim, 1)
        check_count("cells_per_axis", self.cells_per_axis, 1)

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
        if type(index) is not int:  # a bool included: ValueError, worded as for any int
            check_count("cell", index, 0, self.n_cells)
        # the tables would silently wrap a negative index
        if not 0 <= index < len(self._coords):
            raise IndexError(f"cell index {index} out of range for {self.n_cells} cells")

    def cell_coords(self, index: int) -> tuple[int, ...]:
        self._check_cell(index)
        return self._coords[index]

    def cell_center(self, index: int) -> tuple[float, ...]:
        self._check_cell(index)
        return self._centers[index]

    def distance(self, a: int, b: int) -> float:
        pa, pb = self.cell_center(a), self.cell_center(b)
        return math.sqrt(sum((x - y) ** 2 for x, y in zip(pa, pb)))

    def all_cells(self) -> range:
        return range(self.n_cells)
