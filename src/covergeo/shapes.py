"""Rasterized test shapes.

Every shape is produced by sampling an analytic inclusion predicate at cell
centers on a grid that leaves at least a two-cell empty rim.  Shapes are
centered on a cell center (the grid has an odd number of cells per axis), so
a round shape of radius ``k*h`` is the digital ball of radius ``k`` around
the middle cell.  This convention keeps digitizations symmetric under the
symmetries of the square lattice and plays best with the morphology
operators: sampled at cell centers, the extreme cells of a round shape sit
exactly at attainable lattice distances instead of just beyond them.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CovergeoError, check_positive_finite
from .grid import GridSet

__all__ = [
    "rasterize",
    "disk",
    "two_disks",
    "dumbbell",
    "box",
    "disk_minus_box",
    "disk_minus_disk",
    "disk_minus_cross",
    "ball3",
]


# the largest frame a shape may rasterize to; each float64 coordinate grid
# of that size takes 128 MiB
_MAX_FRAME_CELLS = 1 << 24


def _frame(half_extent: float, h: float, pad_cells: int, ndim: int):
    """Cell-center coordinates along each axis of a cubic frame, and its origin.

    The frame covers ``[-half_extent, half_extent]`` per axis plus
    ``pad_cells`` of empty rim, with the center of the middle cell at 0.
    Raises CovergeoError before allocating anything when the cell size is
    not finite and positive, the extent is negative or the frame would hold
    more than ``_MAX_FRAME_CELLS`` cells.
    """
    check_positive_finite(h, "cell size")
    if half_extent < 0:
        raise CovergeoError(f"shape parameters give a negative extent {half_extent}")
    ratio = half_extent / h
    half_cells = math.ceil(ratio) + pad_cells if math.isfinite(ratio) else math.inf
    n = 2 * half_cells + 1
    if n**ndim > _MAX_FRAME_CELLS:
        raise CovergeoError(
            f"shape frame of {' x '.join([str(n)] * ndim)} cells exceeds the limit "
            f"of {_MAX_FRAME_CELLS} cells"
        )
    idx = (np.arange(n) - half_cells) * h
    return idx, (-(half_cells + 0.5) * h,) * ndim


def _nonnegative(predicate, **sizes):
    """``predicate``, raising CovergeoError when a feature size is negative or NaN.

    A negative neck, hole or separation would silently drop the feature or
    shrink the frame.  The check runs when ``rasterize`` samples the
    predicate, after ``_frame`` has vetted the frame itself.
    """

    def checked(x, y):
        for name, value in sizes.items():
            if not value >= 0:  # NaN too
                raise CovergeoError(f"{name} must be nonnegative, got {value}")
        return predicate(x, y)

    return checked


def rasterize(predicate, half_extent: float, h: float, pad_cells: int = 2) -> GridSet:
    """Sample ``predicate(x, y)`` (vectorized) at cell centers.

    The grid covers ``[-half_extent, half_extent]^2`` plus ``pad_cells`` of
    empty rim; the shape center (0, 0) is the center of the middle cell.
    """
    idx, origin = _frame(half_extent, h, pad_cells, 2)
    yy, xx = np.meshgrid(idx, idx, indexing="ij")
    return GridSet(predicate(xx, yy), h, origin)


def disk(radius: float, h: float = 1.0, pad_cells: int = 2) -> GridSet:
    return rasterize(lambda x, y: x * x + y * y <= radius * radius, radius, h, pad_cells)


def two_disks(radius: float, separation: float, h: float = 1.0, pad_cells: int = 2) -> GridSet:
    """Union of two disks with centers ``separation`` apart on the x axis."""
    half = separation / 2

    def pred(x, y):
        return ((x - half) ** 2 + y**2 <= radius**2) | ((x + half) ** 2 + y**2 <= radius**2)

    return rasterize(_nonnegative(pred, separation=separation), radius + half, h, pad_cells)


def dumbbell(
    radius: float,
    neck_halfwidth: float,
    center_distance: float,
    h: float = 1.0,
    pad_cells: int = 2,
) -> GridSet:
    """Two bulbs joined by a thin rectangular neck along the x axis."""
    half = center_distance / 2

    def pred(x, y):
        bulbs = ((x - half) ** 2 + y**2 <= radius**2) | ((x + half) ** 2 + y**2 <= radius**2)
        neck = (np.abs(x) <= half) & (np.abs(y) <= neck_halfwidth)
        return bulbs | neck

    pred = _nonnegative(pred, neck_halfwidth=neck_halfwidth, center_distance=center_distance)
    return rasterize(pred, radius + half, h, pad_cells)


def box(side: float, h: float = 1.0, pad_cells: int = 2) -> GridSet:
    half = side / 2
    return rasterize(
        lambda x, y: (np.abs(x) <= half) & (np.abs(y) <= half), half, h, pad_cells
    )


def disk_minus_box(
    radius: float, hole_w: float, hole_h: float | None = None, h: float = 1.0, pad_cells: int = 2
) -> GridSet:
    """Disk with a centered axis-aligned rectangular hole."""
    if hole_h is None:
        hole_h = hole_w

    def pred(x, y):
        inside = x * x + y * y <= radius * radius
        hole = (np.abs(x) <= hole_w / 2) & (np.abs(y) <= hole_h / 2)
        return inside & ~hole

    return rasterize(_nonnegative(pred, hole_w=hole_w, hole_h=hole_h), radius, h, pad_cells)


def disk_minus_disk(radius: float, hole_radius: float, h: float = 1.0, pad_cells: int = 2) -> GridSet:
    def pred(x, y):
        r2 = x * x + y * y
        return (r2 <= radius * radius) & (r2 > hole_radius * hole_radius)

    return rasterize(_nonnegative(pred, hole_radius=hole_radius), radius, h, pad_cells)


def disk_minus_cross(
    radius: float, arm: float, thickness: float, h: float = 1.0, pad_cells: int = 2
) -> GridSet:
    """Disk minus a centered plus-shaped hole.

    The reentrant corners of the cross hole break opening stability of the
    set at radii beyond the arm thickness, unlike a convex hole.
    """

    def pred(x, y):
        inside = x * x + y * y <= radius * radius
        barh = (np.abs(x) <= arm) & (np.abs(y) <= thickness / 2)
        barv = (np.abs(y) <= arm) & (np.abs(x) <= thickness / 2)
        return inside & ~(barh | barv)

    return rasterize(_nonnegative(pred, arm=arm, thickness=thickness), radius, h, pad_cells)


def ball3(radius: float, h: float = 1.0, pad_cells: int = 2) -> GridSet:
    """Solid 3d ball, centered on a cell center."""
    idx, origin = _frame(radius, h, pad_cells, 3)
    zz, yy, xx = np.meshgrid(idx, idx, idx, indexing="ij")
    return GridSet(xx * xx + yy * yy + zz * zz <= radius * radius, h, origin)
