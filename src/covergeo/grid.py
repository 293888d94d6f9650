"""Binary sets on regular grids: distances, morphology, geometric measurements.

A set is a boolean mask over an axis-aligned lattice of square (or cubic)
cells with physical edge length ``h``.  Cell ``(i, j)`` occupies the box
``origin + [i*h, (i+1)*h) x [j*h, (j+1)*h)`` and is represented by its
center.  All metric operations (distance transform, erosion, dilation,
perimeter, diameter) use the exact Euclidean metric between cell centers;
squared distances are kept in integer cell units internally so that results
are reproducible bit for bit and comparable against brute force without
tolerance games.  The one distance kernel, ``_edt_sq``, takes the nearest
source cell of every cell from scipy's exact linear-time feature transform
(Maurer, Qi & Raghavan 2003) and rebuilds the integer squared distance from
those indices.  The transform is called in scipy's compiled ``_nd_image``
extension, loaded from its file on first use, so no process pays for
importing the ``scipy.ndimage`` package; if that load or a one-time check
of it fails, the same transform is reached through the package's public
``distance_transform_edt``.  The one neighbor-pair enumeration,
``_neighbors``, gives every cell its neighbors one direction class away on
either side; the Crofton perimeter, the per-region perimeters and the
min-cut graph of ``flatnorm`` are all built on it.  The one pair kernel,
``_region_diameters``, gives the exact diameter of every region of points
laid back to back, in passes of at most ``_PAIR_BUDGET`` pairs; ``diameter``
and the region records of ``partition`` both call it.

Conventions frozen here and relied on elsewhere:

* erosion is strict (keep cells with distance to the complement ``> r``),
* dilation is non-strict (keep cells with distance to the set ``<= r``),
* the true region never touches the outer one-cell rim of the array.

The strict/non-strict pairing makes ``opening(s, r) <= s`` an exact cellwise
inclusion and openings exactly idempotent, not just up to a tolerance.
"""

from __future__ import annotations

import functools
import importlib.util
import itertools
import math
import os
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader

import numpy as np

from .errors import (
    DimensionError,
    EmptySourceError,
    ErosionEmptyError,
    GridFormatError,
    check_nonnegative_finite,
)

__all__ = [
    "GridSet",
    "DistanceField",
    "distance_transform",
    "erode",
    "dilate",
    "opening",
    "closing",
    "opening_stability_radius",
    "closing_stability_radius",
    "eta_delta",
    "perimeter",
    "diameter",
    "read_mask",
    "write_mask",
]

# the schema tag of every artifact and sidecar
SCHEMA = "covergeo/v1"

# two frames are the same when h and the origin agree to this share of h
_FRAME_TOL = 1e-9

# the cell sizes a frame admits: beyond them h^3 or (r/h)^2 overflows or underflows
_H_RANGE = (1e-100, 1e100)


class GridSet:
    """A bounded subset of the plane or of space, rasterized on a grid.

    Attributes:
        mask: boolean array, True on cells belonging to the set.
        h: physical cell edge length, within ``_H_RANGE``.
        origin: physical coordinate of the corner of cell (0, ..., 0), finite.
    """

    __slots__ = ("mask", "h", "origin")

    def __init__(self, mask: np.ndarray, h: float, origin: tuple[float, ...] | None = None):
        mask = np.ascontiguousarray(np.asarray(mask, dtype=bool))
        if mask.ndim not in (2, 3):
            raise DimensionError(f"only 2d and 3d grids are supported, got ndim={mask.ndim}")
        origin = (0.0,) * mask.ndim if origin is None else tuple(float(c) for c in origin)
        if len(origin) != mask.ndim:
            raise ValueError("origin dimension does not match mask dimension")
        if not (math.isfinite(h) and h > 0 and all(map(math.isfinite, origin))):
            raise GridFormatError(f"frame needs a finite h > 0 and origin, got {h}, {origin}")
        if not _H_RANGE[0] <= h <= _H_RANGE[1]:
            raise GridFormatError(f"cell size h = {h} lies outside [{_H_RANGE[0]:g}, {_H_RANGE[1]:g}]")
        if _touches_rim(mask):
            raise GridFormatError(
                "true region touches the outer one-cell rim; pad the mask first"
            )
        self.mask = mask
        self.h = float(h)
        self.origin = origin

    # -- basic geometry -------------------------------------------------

    @property
    def ndim(self) -> int:
        return self.mask.ndim

    @property
    def dims(self) -> tuple[int, ...]:
        return self.mask.shape

    @property
    def count(self) -> int:
        """Number of true cells."""
        return int(self.mask.sum())

    @property
    def measure(self) -> float:
        """Lebesgue measure: cell count times h^n."""
        return self.count * self.h**self.ndim

    @property
    def is_empty(self) -> bool:
        return not self.mask.any()

    def with_mask(self, mask: np.ndarray) -> "GridSet":
        """Same frame, different cells."""
        return GridSet(mask, self.h, self.origin)

    def same_frame(self, other: "GridSet") -> bool:
        """Same dims, and h and origin equal to within ``_FRAME_TOL * h``."""
        pairs = zip((self.h, *self.origin), (other.h, *other.origin))
        return self.dims == other.dims and all(abs(a - b) <= _FRAME_TOL * self.h for a, b in pairs)

    def cell_centers(self, cells: np.ndarray) -> np.ndarray:
        """Physical centers for an array of integer cell indices, shape (k, n)."""
        return np.asarray(self.origin) + (np.asarray(cells, dtype=float) + 0.5) * self.h

    def true_cells(self) -> np.ndarray:
        """Integer indices of true cells, shape (count, n), row-major order."""
        return np.argwhere(self.mask)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GridSet):
            return NotImplemented
        return self.same_frame(other) and bool(np.array_equal(self.mask, other.mask))

    def __repr__(self) -> str:
        return f"GridSet(dims={self.dims}, h={self.h}, cells={self.count})"


@dataclass(frozen=True)
class DistanceField:
    """Exact Euclidean distance from every cell center to a source region.

    ``values`` is zero exactly on source cells and satisfies the discrete
    Lipschitz bound: values of axis neighbors differ by at most ``h``.
    ``squared_cells`` holds the underlying integer squared distances in cell
    units; ``values = h * sqrt(squared_cells)``.
    """

    values: np.ndarray
    squared_cells: np.ndarray
    h: float
    origin: tuple[float, ...]


# ---------------------------------------------------------------------------
# exact Euclidean distance transform


def _touches_rim(mask: np.ndarray) -> bool:
    for axis in range(mask.ndim):
        first = np.take(mask, 0, axis=axis)
        last = np.take(mask, -1, axis=axis)
        if first.any() or last.any():
            return True
    return False


def _load_extension(subpackage: str, name: str):
    """The compiled extension ``scipy.<subpackage>.<name>``, loaded from its
    file alone: the packages around it are not imported, only what the
    extension itself imports when it is initialized."""
    full = f"scipy.{subpackage}.{name}"
    scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
    path = os.path.join(scipy_dir, *subpackage.split("."), name + EXTENSION_SUFFIXES[0])
    loader = ExtensionFileLoader(full, path)
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(full, loader))
    loader.exec_module(module)
    return module


def _public_feature_transform(background: np.ndarray, nearest: np.ndarray) -> None:
    from scipy.ndimage import distance_transform_edt

    distance_transform_edt(
        background, return_distances=False, return_indices=True, indices=nearest
    )


# a frame whose every cell has exactly one nearest source cell, and the
# nearest-cell indices the feature transform must give it
_CHECK_SOURCE = np.array([[True, False, False], [False, False, True]])
_CHECK_NEAREST = np.array([[[0, 0, 1], [0, 1, 1]], [[0, 0, 2], [0, 2, 2]]])


@functools.cache
def _feature_transform():
    """The feature transform as ``fill(background, nearest)``.

    It is ``euclidean_feature_transform(background, None, nearest)`` of the
    extension that ``_load_extension`` loads: the very call scipy's
    ``distance_transform_edt`` makes, without the package import around
    it.  If the load fails, or the loaded function gets ``_CHECK_SOURCE``
    wrong, it is ``distance_transform_edt`` itself, which runs the same
    compiled transform, so either way the indices are the same.
    """
    try:
        direct = _load_extension("ndimage", "_nd_image").euclidean_feature_transform

        def fill(background: np.ndarray, nearest: np.ndarray) -> None:
            direct(background, None, nearest)

        if np.array_equal(_nearest_by(fill, _CHECK_SOURCE), _CHECK_NEAREST):
            return fill
    except (ImportError, OSError, AttributeError, TypeError, ValueError, RuntimeError):
        pass
    return _public_feature_transform


def _nearest_by(fill, source: np.ndarray) -> np.ndarray:
    # the int8 view of the bool background is the 0/1 input scipy builds
    # with np.where(input, 1, 0).astype(np.int8), without the two copies;
    # nearest is the C-contiguous int32 (ndim, *dims) array scipy checks for
    nearest = np.zeros((source.ndim,) + source.shape, dtype=np.int32)
    fill(np.ascontiguousarray(~source).view(np.int8), nearest)
    return nearest


def _nearest(source: np.ndarray) -> np.ndarray:
    """Indices of a nearest True cell of every cell, shape ``(ndim, *dims)``."""
    return _nearest_by(_feature_transform(), source)


def _edt_sq(source: np.ndarray) -> np.ndarray:
    """Integer squared Euclidean distance (cell units) to the nearest True cell.

    scipy's exact feature transform (Maurer, Qi & Raghavan 2003, linear in
    the number of cells) names a nearest source cell for every cell; the
    squared distance is rebuilt from those indices in int64, so it stays an
    exact integer.  The transform runs in scipy's compiled extension,
    loaded by itself (``_feature_transform``).  Raises EmptySourceError
    when the source has no cells.
    """
    if not source.any():
        raise EmptySourceError("empty source")
    dsq = np.zeros(source.shape, dtype=np.int64)
    for offset in _axis_offsets(_nearest(source)):
        offset *= offset
        dsq += offset
    return dsq


def _axis_offsets(nearest: np.ndarray):
    """Per axis, the int64 offset (cells) from every cell to its nearest
    source cell, each a fresh array the caller may overwrite."""
    ndim = len(nearest)
    for axis, near in enumerate(nearest):
        along = np.arange(near.shape[axis], dtype=np.int64)
        yield near - along.reshape([-1 if a == axis else 1 for a in range(ndim)])


def distance_transform(s: GridSet, from_complement: bool = False) -> DistanceField:
    """Distance from every cell center to the nearest source cell center.

    The source is the set itself, or its complement when ``from_complement``
    is set.  Exact Euclidean metric on cell centers.
    """
    source = ~s.mask if from_complement else s.mask
    dsq = _edt_sq(source)
    values = s.h * np.sqrt(dsq.astype(np.float64))
    return DistanceField(values=values, squared_cells=dsq, h=s.h, origin=s.origin)


def _threshold_sq(r: float, h: float) -> float:
    """Canonical comparison value: d <= r is tested as h^2 * dsq <= r^2."""
    return (r * r) / (h * h)


# ---------------------------------------------------------------------------
# morphology


def erode(s: GridSet, r: float) -> GridSet:
    """Cells whose distance to the complement is strictly greater than r."""
    check_nonnegative_finite(r, "radius")
    dsq = _edt_sq(~s.mask)  # rim is always false, so never empty
    return s.with_mask(s.mask & (dsq > _threshold_sq(r, s.h)))


def dilate(s: GridSet, r: float) -> GridSet:
    """Cells within distance r (non-strict) of the set.

    The array is padded so the dilation never clips; the returned grid has a
    shifted origin and larger dims.
    """
    check_nonnegative_finite(r, "radius")
    pad = int(math.ceil(r / s.h)) + 1
    origin = tuple(c - pad * s.h for c in s.origin)
    return GridSet(_dilate_mask_inframe(np.pad(s.mask, pad), r, s.h), s.h, origin)


def _dilate_mask_inframe(source: np.ndarray, r: float, h: float) -> np.ndarray:
    if not source.any():
        return source.copy()
    return _edt_sq(source) <= _threshold_sq(r, h)


def opening(s: GridSet, r: float) -> GridSet:
    """Erosion followed by dilation, in the original frame.

    The result is always a cellwise subset of the input (strict erosion plus
    non-strict dilation make this exact, see module docstring), so computing
    within the original frame loses nothing.
    """
    core = erode(s, r)
    return s.with_mask(_dilate_mask_inframe(core.mask, r, s.h))


def closing(s: GridSet, r: float) -> GridSet:
    """Dilation followed by erosion, returned in the original frame.

    The interim computation runs on a padded frame so boundary effects from
    the array edge cannot leak in; the result is a superset of the input but
    is always contained in the padded hull, and only the cells of the
    original frame are returned (the rest is reported via the paired
    stability helpers when needed).
    """
    check_nonnegative_finite(r, "radius")
    pad = int(math.ceil(r / s.h)) + 2
    dil = _dilate_mask_inframe(np.pad(s.mask, pad), r, s.h)
    # erode the dilation: strict distance to its complement, which is never
    # empty because the dilation stays a cell short of the padded frame's rim
    closed = dil & (_edt_sq(~dil) > _threshold_sq(r, s.h))
    return s.with_mask(closed[tuple(slice(pad, pad + n) for n in s.dims)])


def _refined_solid_dsq(mask: np.ndarray) -> np.ndarray:
    """Squared distance from each cell center to the solid extent of the set.

    ``mask`` marks cells; the distance is measured to the union of their full
    cell boxes, not just their centers, and is returned in integer units of
    (h/2)^2.  The computation runs on a 2x-refined lattice where the box of a
    marked cell covers a full 3x3 (3x3x3 in 3d) block of refined nodes.  The
    nearest point of an axis-aligned box to a half-grid node has half-grid
    coordinates itself (each coordinate is either the node's own or a box
    face), so the refined transform is exact.
    """
    n = mask.ndim
    ref = np.zeros(tuple(2 * d + 1 for d in mask.shape), dtype=bool)
    for off in itertools.product((0, 1, 2), repeat=n):
        view = ref[tuple(slice(o, o + 2 * d, 2) for o, d in zip(off, mask.shape))]
        view |= mask
    dsq = _edt_sq(ref)
    return dsq[tuple([slice(1, None, 2)] * n)]


def _stable_under_opening(mask: np.ndarray, comp_dsq: np.ndarray, m: int) -> bool:
    """Opening-stability probe at radius m*h/2, in pure integer arithmetic.

    Erosion is the usual strict one (cells whose center is > r from the
    complement's cell centers).  The dilation half credits every surviving
    core cell its full extent: a cell counts as recovered when its center
    lies within r of the solid core cell, not merely of the core center.
    Without that half-cell credit no digitized round set is stable — at
    almost every radius a handful of boundary cells sit a hair beyond the
    nearest core center purely by lattice accident, while the underlying
    continuum set they sample is perfectly stable.  Genuinely unstable
    features (holes, necks, sharp corners) still fail by whole-cell margins.

    Most probes are settled by ``_coarse_verdict`` from the core's nearest
    cell centers on the frame itself; only the rest pay for the exact
    distance to the solid core on the 2x-refined lattice.  Either way the
    answer is that of the refined transform.
    """
    core = mask & (4 * comp_dsq > m * m)
    if not core.any():
        return False
    verdict = _coarse_verdict(mask, core, m)
    if verdict is not None:
        return verdict
    solid = _refined_solid_dsq(core)
    return bool(np.all(solid[mask] <= m * m))


def _coarse_verdict(mask: np.ndarray, core: np.ndarray, m: int) -> bool | None:
    """The probe's answer when a nearest core center settles it, else None.

    Take for every cell the offset d (cells) to a nearest core center, from
    one feature transform of ``core``, and measure in half cells, where the
    probe radius r is m.

    * Witness: the squared distance from the cell center to the solid box
      of that core cell is Σᵢ max(2|dᵢ| − 1, 0)².  If that is <= m² for
      every cell of ``mask``, each cell has a core box within r, so the
      probe passes.
    * Certain fail: every point of a cell box lies within √n half cells of
      its center, so no core box is nearer than 2|d| − √n.  For n <= 3,
      √n < 2; a cell of ``mask`` with 4·Σᵢ dᵢ² > (m + 2)² therefore has no
      core box within r, and the probe fails.

    A cell that meets the certain-fail bound is no witness, so the two rules
    never disagree; the fail test runs first because most probes end there,
    and the box distances are summed only when it does not.  Returns None
    when neither rule applies.
    """
    offsets = list(_axis_offsets(_nearest(core)))
    dsq = np.zeros(mask.shape, dtype=np.int64)
    for offset in offsets:
        np.abs(offset, out=offset)
        dsq += offset * offset
    if 4 * np.max(dsq, where=mask, initial=0) > (m + 2) ** 2:
        return False
    box = np.zeros(mask.shape, dtype=np.int64)
    for offset in offsets:
        offset *= 2
        offset -= 1
        np.maximum(offset, 0, out=offset)
        box += offset * offset
    if np.max(box, where=mask, initial=0) <= m * m:
        return True
    return None


def _largest_stable(mask: np.ndarray, comp_dsq: np.ndarray, hi: int) -> int:
    """Largest m < hi that probes stable, by bisection from m = 2; 0 if none.

    ``hi`` must be a probe known to fail (or a cap); the answer is the
    radius m*h/2 in half-cell units, exact on the half-cell grid.
    """
    lo = 2  # r = h
    if not _stable_under_opening(mask, comp_dsq, lo):
        return 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _stable_under_opening(mask, comp_dsq, mid):
            lo = mid
        else:
            hi = mid
    return lo


def opening_stability_radius(s: GridSet) -> float:
    """Largest certified radius r with measure(s minus opening(s, r)) == 0.

    Probes the radius grid {h/2, h, 3h/2, ...} by bisection (so the answer
    is exact to h/2) and returns the largest probe that tested stable, where
    stability gives the half-cell digitization credit described in
    ``_stable_under_opening``.  Returns 0.0 when the set is already unstable
    at the smallest informative radius h.  Openings at radii below h are the
    identity on any grid set, so h is the first radius that can tell sets
    apart.
    """
    if s.is_empty:
        raise EmptySourceError("empty source")
    comp_dsq = _edt_sq(~s.mask)
    max_dsq = int(comp_dsq[s.mask].max())
    # smallest m whose erosion is empty: 4*max_dsq <= m^2
    hi = math.isqrt(4 * max_dsq - 1) + 1
    return _largest_stable(s.mask, comp_dsq, hi) * s.h / 2.0


def closing_stability_radius(s: GridSet) -> float:
    """Largest certified radius r with measure(closing(s, r) minus s) == 0.

    This equals the opening-stability radius of the complement (erosion and
    dilation are exact duals), probed on a frame padded far enough that the
    array edge cannot masquerade as structure.  The complement is unbounded,
    so probes stay below a cap of ``max(dims)`` cells: the largest radius
    probed is ``max(dims) * h - h/2``, and a result equal to it means
    "stable at every radius the frame can test" (68.5 for ``disk(32)``,
    whose frame is 69 cells wide).
    """
    if s.is_empty:
        raise EmptySourceError("empty source")
    cap_cells = max(s.dims)
    pad = cap_cells + 2
    comp = ~np.pad(s.mask, pad)
    comp_dsq = _edt_sq(~comp)  # distance to the original set
    return _largest_stable(comp, comp_dsq, 2 * cap_cells) * s.h / 2.0


def _erosion_empty(s: GridSet, delta: float, message: str) -> ErosionEmptyError:
    """The error for an empty erosion of ``s`` by ``delta``.

    The erosion is empty when no cell is farther than delta from the
    complement, that is when the inradius is at most delta; rounding can
    put the two a hair the other way, which the margin's clamp absorbs.
    """
    inradius = s.h * math.sqrt(float(_edt_sq(~s.mask)[s.mask].max())) if s.count else 0.0
    return ErosionEmptyError(message, inequality="inradius > delta", lhs=inradius, rhs=delta)


def eta_delta(s: GridSet, delta: float) -> float:
    """Largest distance from a set cell to the delta-eroded core.

    Equals delta for sets whose complement is smooth at scale delta and
    exceeds delta when erosion by delta severs thin structures (necks).
    """
    core = erode(s, delta)
    if core.is_empty:
        raise _erosion_empty(
            s, delta, f"erosion empty at delta = {delta} (inradius smaller than delta)"
        )
    dsq = _edt_sq(core.mask)
    return s.h * math.sqrt(float(dsq[s.mask].max()))


# ---------------------------------------------------------------------------
# perimeter and diameter

# 2d direction classes of the 16-neighborhood, one representative per
# antipodal pair, with the Cauchy-Crofton angular share of each class.
# The share of a direction is half the angular gap to each neighboring
# direction; per crossing the weight is h * dtheta / (2 * |e|).
_DIRS_2D: tuple[tuple[int, int], ...] = (
    (0, 1),
    (1, 0),
    (1, 1),
    (1, -1),
    (1, 2),
    (2, 1),
    (2, -1),
    (1, -2),
)


_DIRS_3D: tuple[tuple[int, int, int], ...] = (
    (0, 0, 1),
    (0, 1, 0),
    (1, 0, 0),
    (0, 1, 1),
    (0, 1, -1),
    (1, 0, 1),
    (1, 0, -1),
    (1, 1, 0),
    (1, -1, 0),
    (1, 1, 1),
    (1, 1, -1),
    (1, -1, 1),
    (1, -1, -1),
)


def _crofton_weights(ndim: int, h: float) -> dict[tuple[int, ...], float]:
    """Per-crossing weight of every direction class, in summation order."""
    if ndim != 2:
        # 3d: surface area, weight (2/13) * h^2 / |e| per crossing
        return {d: (2.0 / 13.0) * h**2 / math.sqrt(sum(c * c for c in d)) for d in _DIRS_3D}
    # direction angles in one half-turn: 0, atan(1/2), pi/4, atan(2), pi/2, ...
    # the angular share of a direction is half the gap to each angular neighbor
    a1 = math.atan(0.5)
    a3 = math.atan(2.0)
    share_axis = a1                      # ((0 + a1) - (0 - a1)) / 2
    share_knight = math.pi / 8           # (pi/4 - 0) / 2, same on both knight sides
    share_diag = (a3 - a1) / 2
    weights: dict[tuple[int, ...], float] = {}
    for d in _DIRS_2D:
        norm = math.hypot(*d)
        if abs(d[0]) + abs(d[1]) == 1:
            share = share_axis
        elif abs(d[0]) == 1 and abs(d[1]) == 1:
            share = share_diag
        else:
            share = share_knight
        weights[d] = h * share / (2.0 * norm)
    return weights


def _neighbors(a: np.ndarray, d: tuple[int, ...], fill) -> tuple[np.ndarray, np.ndarray]:
    """Values of ``a`` at p + d and at p - d for every cell p.

    A point beyond the frame reads ``fill``.  This is the one enumeration
    of neighbor pairs along a direction class: every unordered pair
    {p, p + d} inside the frame shows up once from each end, and every pair
    that leaves the frame once, from its inside end.
    """
    fwd = np.full_like(a, fill)
    bwd = np.full_like(a, fill)
    for out, sign in ((fwd, 1), (bwd, -1)):
        dst, src = [], []
        for c, n in zip(d, a.shape):
            c *= sign
            dst.append(slice(max(0, -c), min(n, n - c)))
            src.append(slice(max(0, c), min(n, n + c)))
        out[tuple(dst)] = a[tuple(src)]
    return fwd, bwd


def _region_perimeters(labels: np.ndarray, h: float) -> np.ndarray:
    """Crofton perimeter of every label value, indexed by the value.

    A pair with labels a != b is one crossing of a and one of b; a pair
    that leaves the frame is a crossing of its inside end (the world beyond
    the frame is label 0).  The weighted sum runs in ``_crofton_weights``
    order, so every entry is exactly the perimeter of that region alone.
    """
    size = int(labels.max()) + 1
    per = np.zeros(size)
    for d, w in _crofton_weights(labels.ndim, h).items():
        fwd, bwd = _neighbors(labels, d, 0)
        per += w * (
            np.bincount(labels[labels != fwd], minlength=size)
            + np.bincount(labels[labels != bwd], minlength=size)
        )
    return per


def perimeter(s: GridSet) -> float:
    """Isotropic boundary-size estimate by multi-direction line counting.

    2d: 16-neighborhood Cauchy-Crofton weights (all 8 direction classes),
    worst-case direction error about 1.5 percent, near zero after averaging
    over directions, so round shapes come out within a fraction of a percent.
    3d: 13 direction classes with equal angular shares, mean-exact over
    random orientations but coarser per direction; adequate for the slack
    terms it feeds.
    """
    per = _region_perimeters(s.mask, s.h)
    return float(per[1]) if len(per) > 1 else 0.0


def _line_ends(keys: np.ndarray) -> np.ndarray:
    """Mask of the first and last row of each run of equal leading columns.

    ``keys`` is sorted lexicographically, so a run holds the cells of one
    lattice line: every column but the last is fixed along it.
    """
    new_run = np.ones(len(keys) + 1, dtype=bool)
    new_run[1:-1] = (keys[1:, :-1] != keys[:-1, :-1]).any(axis=1)
    return new_run[:-1] | new_run[1:]


# point pairs one diameter pass may form, unless its one point has more
# partners: its int64 arrays of one entry per pair stay under a MiB however
# many regions there are
_PAIR_BUDGET = 1 << 14


def _region_diameters(points: np.ndarray, sizes: np.ndarray, h: float) -> np.ndarray:
    """``diameter`` of each region, the regions' integer ``points`` back to back.

    Region r holds the next ``sizes[r]`` points.  Point p meets every later
    point of its region, so each pair is formed once and a point's pairs are
    contiguous, and so are the pairs of a region.  A pass takes a run of
    points while their pairs fit ``_PAIR_BUDGET`` (at least one point), so
    whole small regions share a pass and a large one is taken a run of its
    points at a time; each region keeps the largest squared distance of its
    pairs over the passes.  This is the only code that forms pairs for a
    diameter.
    """
    k = len(points)
    first = np.cumsum(sizes) - sizes
    partners = np.repeat(first + sizes, sizes) - np.arange(1, k + 1)
    total = np.cumsum(partners)  # pairs of the points up to each, itself included
    before = total - partners
    several = np.flatnonzero(sizes > 1)
    opens = before[first[several]]  # the first pair of each region that has one
    best = np.zeros(len(sizes), dtype=np.int64)
    a = 0
    while a < k:
        # the run from point a ends where its pairs would pass the budget
        b = max(int(np.searchsorted(total, before[a] + _PAIR_BUDGET, side="right")), a + 1)
        lo, hi = before[a], total[b - 1]
        if hi > lo:
            part = partners[a:b]
            j = np.arange(lo, hi) - np.repeat(before[a:b] - np.arange(a + 1, b + 1), part)
            d2 = sum((np.repeat(c[a:b], part) - c[j]) ** 2 for c in points.T)
            # the regions with pairs in the run, from the one holding pair lo on
            r = several[np.searchsorted(opens, lo, side="right") - 1 : np.searchsorted(opens, hi)]
            best[r] = np.maximum(best[r], np.maximum.reduceat(d2, np.maximum(before[first[r]], lo) - lo))
        a = b
    return h * np.sqrt(best) + h * math.sqrt(points.shape[1])


def diameter(cells: np.ndarray, h: float) -> float:
    """Diameter of a finite cell family, as sets of full cells.

    Exact maximum pairwise center distance plus the h*sqrt(n) cell-extent
    padding, so the value upper-bounds the diameter of the union of the
    closed cells.  The maximum is attained at convex-hull vertices
    (Preparata & Shamos 1985), and a cell between the first and last cell
    of its lattice line is none, so keeping only the ends of every line,
    axis by axis, leaves the hull and the maximum unchanged.
    """
    cells = np.asarray(cells, dtype=np.int64)
    if cells.ndim != 2:
        raise ValueError("cells must have shape (k, n)")
    if len(cells) == 0:
        raise ValueError("empty cell family has no diameter")
    for _ in range(cells.shape[1]):
        # distances ignore column order, so rotating puts each axis last in turn
        cells = cells[np.lexsort(cells.T[::-1])]
        cells = np.roll(cells[_line_ends(cells)], 1, axis=1)
    return float(_region_diameters(cells, np.array([len(cells)]), h)[0])


# ---------------------------------------------------------------------------
# mask I/O: portable bitmap plus key=value sidecar


def _sidecar_path(path: str) -> str:
    if path.endswith(".pbm"):
        return path[: -len(".pbm")] + ".hdr"
    return path + ".hdr"


def _write_raster(path: str, raster: np.ndarray, encode, *header: str) -> None:
    """Write ``raster`` as a binary netpbm file: the magic, the size, any
    further ``header`` line, then ``encode(raster)``.  A 3d raster is
    written as its slices stacked along the image height."""
    if raster.ndim == 3:
        raster = raster.reshape(-1, raster.shape[-1])
    magic, *rest = header
    text = "\n".join([magic, f"{raster.shape[1]} {raster.shape[0]}", *rest, ""])
    with open(path, "wb") as f:
        f.write(text.encode("ascii") + encode(raster))


def write_mask(s: GridSet, path: str) -> None:
    """Write a P4 bitmap plus a text sidecar with the grid frame.

    3d masks are written as slices stacked along the image height; the
    sidecar carries the dimensions needed to undo the stacking.  Output
    bytes are a pure function of the input.
    """
    _write_raster(path, s.mask, lambda flat: np.packbits(flat, axis=1).tobytes(), "P4")
    lines = [
        f"schema={SCHEMA}",
        f"n={s.ndim}",
        "dims=" + ",".join(str(d) for d in s.dims),
        f"h={s.h!r}",
        "origin=" + ",".join(repr(c) for c in s.origin),
    ]
    with open(_sidecar_path(path), "w", encoding="ascii") as f:
        f.write("\n".join(lines) + "\n")


def _netpbm_header(data: bytes, *magics: bytes) -> tuple[bool, int, int, list[bytes], int]:
    """(binary, width, height, tokens after the size, body offset) of netpbm
    ``data`` with one of ``magics``, in Netpbm's grammar: any whitespace
    between tokens, ``#`` comments to the end of a line, a P5 maxval, and
    one whitespace byte after the header.  The size is two positive decimal
    integers that ``int`` converts."""
    magic = data[:2]
    if magic not in magics:
        raise GridFormatError(f"not a {'/'.join(m.decode() for m in magics)} netpbm file")
    pos = 2
    tokens: list[bytes] = []
    while len(tokens) < (3 if magic == b"P5" else 2):
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise GridFormatError("truncated netpbm header")
        tokens.append(data[start:pos])
    try:
        width, height = (int(t) if t.isdigit() else 0 for t in tokens[:2])
    except ValueError:
        width = height = 0
    if width < 1 or height < 1:
        raise GridFormatError(f"netpbm size {tokens[0]!r} x {tokens[1]!r} is not two positive integers")
    return magic != b"P1", width, height, tokens[2:], pos + 1


def _parse_pbm(data: bytes) -> np.ndarray:
    binary, width, height, _, pos = _netpbm_header(data, b"P1", b"P4")
    if binary:
        row_bytes = (width + 7) // 8
        if len(data) - pos < row_bytes * height:
            raise GridFormatError("truncated P4 body")
        raw = np.frombuffer(data, dtype=np.uint8, count=row_bytes * height, offset=pos)
        bits = np.unpackbits(raw.reshape(height, row_bytes), axis=1)[:, :width]
        return bits.astype(bool)
    digits = b"".join(data[pos:].split())[: width * height]
    if len(digits) < width * height:
        raise GridFormatError("truncated P1 body")
    if digits.translate(None, b"01"):
        raise GridFormatError("P1 body holds characters other than 0 and 1")
    arr = np.frombuffer(digits, dtype=np.uint8) - ord("0")
    return arr.reshape(height, width).astype(bool)


def _parse_sidecar(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="ascii") as f:
            lines = f.readlines()
    except UnicodeDecodeError as exc:
        raise GridFormatError(f"sidecar {path} is not ASCII text") from exc
    fields: dict[str, str] = {}
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise GridFormatError(f"malformed sidecar line: {line!r}")
        k, v = line.split("=", 1)
        fields[k.strip()] = v.strip()
    return fields


def read_mask(path: str) -> GridSet:
    """Read a bitmap (+ optional sidecar); pads a one-cell rim when needed."""
    with open(path, "rb") as f:
        flat = _parse_pbm(f.read())
    side = _sidecar_path(path)
    origin: tuple[float, ...] | None = None
    dims: tuple[int, ...] | None = None
    try:
        fields = _parse_sidecar(side)
    except FileNotFoundError:
        fields = {}
    if fields.get("schema", SCHEMA) != SCHEMA:
        raise GridFormatError(f"unsupported sidecar schema {fields['schema']!r}")
    # a field that is not a number, dims the bitmap cannot be reshaped to,
    # or an origin of the wrong length all surface as ValueError
    try:
        ndim = int(fields.get("n", "2"))
        if ndim not in (2, 3):
            raise GridFormatError(f"sidecar n={ndim} is not 2 or 3")
        h = float(fields.get("h", "1.0"))
        if "dims" in fields:
            dims = tuple(int(x) for x in fields["dims"].split(","))
        if "origin" in fields:
            origin = tuple(float(x) for x in fields["origin"].split(","))
        if ndim == 3:
            if dims is None or len(dims) != 3 or min(dims) < 1:
                raise GridFormatError(f"3d masks need three positive dims in the sidecar, got {dims}")
            mask = flat.reshape(dims)
        else:
            mask = flat
            if dims is not None and tuple(mask.shape) != dims:
                raise GridFormatError(f"dims {dims} do not match bitmap {mask.shape}")
        if origin is None:
            origin = (0.0,) * mask.ndim
        if _touches_rim(mask):
            mask = np.pad(mask, 1)
            origin = tuple(c - h for c in origin)
        return GridSet(mask, h, origin)
    except ValueError as exc:
        raise GridFormatError(f"sidecar {side} does not fit the bitmap: {exc}") from exc
