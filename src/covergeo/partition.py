"""Whitney-style cube partitions with measure and diameter certificates.

The construction tiles the index lattice with cubes of side ``ell`` (the
largest multiple of ``h`` not exceeding ``delta / sqrt(n)``), keeps the
cubes that meet the ``delta``-eroded core of the set, and grows each kept
cube by ``delta``.  Cells inside a kept cube always belong to that cube's
region; every other cell of the set joins the lowest-ranked kept cube (in
lexicographic cube order) whose solid box lies within ``delta`` of the
cell's center, found in one vectorized pass per cube offset from the
cell's own cube.  Earlier cubes win contested cells, as a first-come sweep
in cube order would give them, so the labeling is a genuine partition and
deterministic.

Two growth radii are offered: ``good_partition`` grows by ``delta`` itself
and therefore needs the set to be opening-stable at ``delta``, which buys
the strong certificate (diameter at most ``3 delta``, measure at least
``delta^n / n^(n/2)`` per region, up to grid slack).  ``partition_with_eta``
grows by the measured worst-case distance from the set to its eroded core,
which covers any set with a nonempty core but weakens the diameter cap to
``delta + 2 eta``.

Every region's diameter is exact: the line-end cells of all regions go
through ``grid``'s one pair kernel, ``_region_diameters``, in one call.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    CovergeoError,
    GridFormatError,
    ResolutionFloorError,
    StabilityRadiusExceeded,
    check_positive_finite,
)
from .grid import (  # noqa: F401 - callers read covergeo.partition.perimeter
    SCHEMA,
    GridSet,
    _erosion_empty,
    _line_ends,
    _neighbors,
    _netpbm_header,
    _region_diameters,
    _region_perimeters,
    _write_raster,
    erode,
    eta_delta,
    opening_stability_radius,
    perimeter,
)

__all__ = [
    "RegionRecord",
    "Partition",
    "GoodPartitionCertificate",
    "AlmostPartitionCertificate",
    "good_partition",
    "partition_with_eta",
    "restrict_partition",
    "certify_good",
    "certify_almost",
    "write_labels",
    "read_labels",
    "region_table",
    "certificate_json",
    "table_json",
]


@dataclass(frozen=True)
class RegionRecord:
    """Per-region summary: id, cell count, physical measure and diameter."""

    id: int
    cells: int
    measure: float
    diameter: float
    seed_index: int


@dataclass(frozen=True)
class Partition:
    """Labeling of a grid set into regions grown from seed cubes.

    ``labels`` assigns a positive region id to every true cell of ``base``
    and 0 everywhere else.  ``delta`` is the construction radius, ``ell``
    the snapped cube side, ``grow_radius`` the radius the regions were
    actually grown by (``delta`` for the stable construction, ``eta`` for
    the fallback).  ``floor_reduction`` is subtracted from the certificate's
    volume floor; it is 0 for freshly built partitions and the removed
    measure after a restriction.
    """

    base: GridSet
    labels: np.ndarray
    regions: tuple[RegionRecord, ...]
    delta: float
    ell: float
    grow_radius: float
    floor_reduction: float = 0.0

    @property
    def region_count(self) -> int:
        return len(self.regions)

    def __post_init__(self) -> None:
        if self.labels.shape != self.base.dims:
            raise CovergeoError("labels array does not match the base grid")


@dataclass(frozen=True)
class GoodPartitionCertificate:
    """Certificate that every region meets the measure floor and diameter cap.

    ``volume_floor`` and ``diam_cap`` are the target bounds before slack;
    the per-region entries carry the measured values together with the
    slack actually granted, so a reader can re-check every inequality.
    ``floor_positive`` records whether the (possibly reduced) volume floor
    is still positive — when it is not, the guarantee is vacuous and the
    overall verdict is False no matter what the regions measure.
    """

    delta: float
    volume_floor: float
    snapped_floor: float
    diam_cap: float
    diam_slack: float
    region_rows: tuple[dict, ...]
    floor_positive: bool
    verdict: bool


@dataclass(frozen=True)
class AlmostPartitionCertificate:
    """Certificate that a partitioned subset occupies most of a reference set.

    ``coverage_ratio`` is measure(A)/measure(E) and the verdict requires it
    to be at least ``1 - alpha`` with A contained in E cellwise.
    ``complement_fraction`` (measure(E minus A)/measure(E)) is reported next
    to it so the complementary reading of the inequality can be checked
    directly from the same certificate.
    """

    alpha: float
    measure_a: float
    measure_e: float
    coverage_ratio: float
    complement_fraction: float
    contained: bool
    verdict: bool


def _snapped_side(delta: float, n: int, h: float) -> tuple[float, int]:
    """Largest multiple of h with ell <= delta / sqrt(n); returns (ell, cells)."""
    cells = int(math.floor(delta / (math.sqrt(n) * h) + 1e-12))
    return cells * h, cells


def _region_records(labels: np.ndarray, h: float, seeds) -> tuple[RegionRecord, ...]:
    """Records of the (id, seed_index) ``seeds`` whose region has cells in ``labels``.

    One pass serves every region.  Only the cells where a run of one label
    along the last axis starts or ends are kept; stably sorted by label,
    each region's kept cells stay in row-major order, so ``_line_ends``
    keeps the first and last cell of each of its lattice lines.  As in
    ``diameter``, a dropped cell lies between two kept ones, so the hull and
    the diameter are unchanged, and ``_region_diameters`` takes every
    region's kept cells in one call.
    """
    counts = np.bincount(labels.ravel()).tolist()
    ahead, behind = _neighbors(labels, (0,) * (labels.ndim - 1) + (1,), 0)
    kept = (labels != 0) & ((labels != ahead) | (labels != behind))
    keys = np.column_stack([labels[kept], np.argwhere(kept)])
    keys = keys[np.argsort(keys[:, 0], kind="stable")]
    keys = keys[_line_ends(keys)]
    starts = np.flatnonzero(np.diff(keys[:, 0], prepend=0))
    sizes = np.diff(np.append(starts, len(keys)))
    found = dict(zip(keys[starts, 0].tolist(), _region_diameters(keys[:, 1:], sizes, h).tolist()))
    vol = h**labels.ndim
    return tuple(
        RegionRecord(rid, counts[rid], counts[rid] * vol, found[rid], sid)
        for rid, sid in seeds
        if rid in found
    )


def _build_regions(
    base: GridSet, delta: float, grow_radius: float, ell_cells: int
) -> tuple[np.ndarray, tuple[RegionRecord, ...]]:
    core = erode(base, delta)
    if core.is_empty:
        raise _erosion_empty(
            base,
            delta,
            f"erosion empty at delta = {delta} (largest admissible delta is "
            f"below the set inradius)",
        )
    # seed cubes: index-lattice blocks of ell_cells per axis, anchored at 0,
    # that contain at least one core cell.  A cube's seed index is its
    # row-major place in the cube lattice, so ascending seed indices run in
    # lexicographic cube order and a seed's rank is its region id.
    rank = np.zeros(tuple(d // ell_cells + 1 for d in base.dims), dtype=np.int32)
    rank[tuple((core.true_cells() // ell_cells).T)] = 1
    seeds = np.flatnonzero(rank)
    rank.flat[seeds] = np.arange(1, len(seeds) + 1)

    # a cell inside a seed cube belongs to that cube's region
    own, pos = np.divmod(base.true_cells(), ell_cells)
    label = rank[tuple(own.T)]

    # every other cell joins the lowest-ranked seed cube whose solid box lies
    # within grow_radius of its center, the cube a first-come sweep in rank
    # order gives it.  One pass per cube offset o from the cell's own cube:
    # in doubled coordinates the offset cube's faces along one axis lie
    # 2(o ell - pos) - 1 and 2(pos - (o + 1) ell) + 1 half-cells away, so the
    # squared distance is exact in quarter cells.  span is the farthest
    # offset whose nearest face, 2(|o| - 1) ell + 1, is in reach.  For one
    # cell, offsets in lexicographic order reach cubes in lexicographic
    # order, which is rank order, so the first seed cube in reach is the
    # lowest-ranked one and the cell leaves the passes once it has one.
    rsq_cells = (grow_radius / base.h) ** 2
    span = 0
    while (2 * span * ell_cells + 1) ** 2 / 4.0 <= rsq_cells + 1e-9:
        span += 1
    free = np.flatnonzero(label == 0)
    own, pos = own[free] + span, pos[free]
    padded = np.pad(rank, span)  # rank 0 for cubes up to span beyond the lattice
    for off in itertools.product(range(-span, span + 1), repeat=base.ndim):
        if not len(free):
            break
        near = sum(max(2 * (abs(o) - 1) * ell_cells + 1, 0) ** 2 / 4.0 for o in off)
        if near > rsq_cells + 1e-9:
            continue
        dsq = 0.0
        for p, o in zip(pos.T, off):
            d = np.maximum(2 * (o * ell_cells - p) - 1, 0)
            d += np.maximum(2 * (p - (o + 1) * ell_cells) + 1, 0)
            dsq = dsq + (d * d) / 4.0
        r = padded[tuple((own + off).T)]
        take = (r > 0) & (dsq <= rsq_cells + 1e-9)
        if take.any():
            label[free[take]] = r[take]
            free, own, pos = free[~take], own[~take], pos[~take]

    uncovered = int(np.count_nonzero(label == 0))
    StabilityRadiusExceeded.check(
        uncovered, "cells beyond the growth radius <= 0", 0.0,
        f"delta exceeds stability radius: {uncovered} cells of the set lie "
        f"farther than the growth radius {grow_radius} from every seed cube",
    )
    labels = np.zeros(base.dims, dtype=np.int32)
    labels[base.mask] = label
    return labels, _region_records(labels, base.h, enumerate(seeds.tolist(), start=1))


def _partition(e: GridSet, delta: float, grow_radius_of) -> Partition:
    """Check delta, find the growth radius with ``grow_radius_of(e, delta)``, build."""
    check_positive_finite(delta, "delta")
    ResolutionFloorError.check(
        delta, "delta >= 4h", 4 * e.h,
        f"delta below resolution floor: delta = {delta} < 4h = {4 * e.h}",
    )
    grow_radius = grow_radius_of(e, delta)
    ell, ell_cells = _snapped_side(delta, e.ndim, e.h)
    labels, records = _build_regions(e, delta, grow_radius, ell_cells)
    return Partition(
        base=e,
        labels=labels,
        regions=records,
        delta=delta,
        ell=ell,
        grow_radius=grow_radius,
    )


def _stable_delta(e: GridSet, delta: float) -> float:
    stab = opening_stability_radius(e)
    StabilityRadiusExceeded.check(
        delta, "delta <= stability radius", stab,
        f"delta exceeds stability radius: delta = {delta} > {stab}",
    )
    return delta


def good_partition(e: GridSet, delta: float) -> Partition:
    """Partition ``e`` into regions grown by ``delta`` from seed cubes.

    Requires ``delta >= 4h`` (below that the cubes degenerate to single
    cells and the certificate is meaningless) and ``delta`` within the
    opening-stability radius of the set, which is exactly what guarantees
    every cell is within ``delta`` of the eroded core and hence of a seed
    cube.  Each region contains its own seed cube, giving the measure
    floor; each region stays within ``delta`` of its cube, giving the
    diameter cap.
    """
    return _partition(e, delta, _stable_delta)


def partition_with_eta(e: GridSet, delta: float) -> Partition:
    """Partition ``e`` growing by the measured core distance ``eta``.

    ``eta`` is the worst-case distance from a set cell to the
    ``delta``-eroded core, so coverage holds for any set whose core is
    nonempty — no stability hypothesis.  The price is the weaker diameter
    cap ``delta + 2 eta`` certified by ``certify_good`` through the stored
    growth radius.  ``eta_delta`` raises ErosionEmptyError when delta
    reaches the inradius.
    """
    return _partition(e, delta, eta_delta)


def restrict_partition(p: Partition, e_sub: GridSet) -> Partition:
    """Intersect every region with a subset of the base, dropping empties.

    The removed measure is recorded on the result so certificates reduce
    their volume floor by it.  Region ids of survivors are preserved.
    """
    if not p.base.same_frame(e_sub):
        raise CovergeoError("subset lives on a different grid frame")
    extra = e_sub.mask & ~p.base.mask
    if extra.any():
        offenders = np.argwhere(extra)[:8]
        raise CovergeoError(
            "subset is not contained in the partition base; first offending "
            f"cells: {[tuple(int(c) for c in row) for row in offenders]}"
        )
    labels = np.where(e_sub.mask, p.labels, 0).astype(np.int32)
    records = _region_records(labels, p.base.h, ((r.id, r.seed_index) for r in p.regions))
    removed = p.base.measure - e_sub.measure
    return Partition(
        base=e_sub,
        labels=labels,
        regions=records,
        delta=p.delta,
        ell=p.ell,
        grow_radius=p.grow_radius,
        floor_reduction=p.floor_reduction + removed,
    )


def certify_good(p: Partition) -> GoodPartitionCertificate:
    """Check the measure floor and diameter cap for every region.

    The floor is ``delta^n / n^(n/2)`` minus any recorded reduction; the
    cap is ``delta + 2 * grow_radius`` (equal to ``3 delta`` for the
    stability-gated construction).  Grid slack: ``(sqrt(n) + 1) h`` on
    diameters, two perimeter-proportional cell rings on measures.
    """
    delta = p.delta
    n = p.base.ndim
    h = p.base.h
    volume_floor = delta**n / n ** (n / 2) - p.floor_reduction
    ell_cells = int(round(p.ell / h))
    snapped_floor = float(ell_cells * h) ** n - p.floor_reduction
    diam_cap = delta + 2.0 * p.grow_radius
    diam_slack = (math.sqrt(n) + 1.0) * h
    per = _region_perimeters(p.labels, h).tolist()
    rows = []
    all_pass = True
    for r in p.regions:
        measure_slack = 2.0 * h * per[r.id]
        measure_ok = r.measure >= volume_floor - measure_slack
        diam_ok = r.diameter <= diam_cap + diam_slack
        all_pass &= measure_ok and diam_ok
        rows.append(
            {
                "id": r.id,
                "measure": r.measure,
                "measure_floor": volume_floor,
                "measure_slack": measure_slack,
                "measure_ok": bool(measure_ok),
                "diameter": r.diameter,
                "diam_cap": diam_cap,
                "diam_slack": diam_slack,
                "diam_ok": bool(diam_ok),
            }
        )
    floor_positive = volume_floor > 0
    return GoodPartitionCertificate(
        delta=delta,
        volume_floor=volume_floor,
        snapped_floor=snapped_floor,
        diam_cap=diam_cap,
        diam_slack=diam_slack,
        region_rows=tuple(rows),
        floor_positive=floor_positive,
        verdict=bool(floor_positive and all_pass),
    )


def certify_almost(p: Partition, e: GridSet, alpha: float) -> AlmostPartitionCertificate:
    """Check that the partitioned set fills at least a 1 - alpha share of e."""
    if not p.base.same_frame(e):
        raise CovergeoError("reference set lives on a different grid frame")
    contained = bool(not (p.base.mask & ~e.mask).any())
    measure_a = p.base.measure
    measure_e = e.measure
    ratio = measure_a / measure_e if measure_e > 0 else 0.0
    complement_fraction = (
        float((e.mask & ~p.base.mask).sum()) * e.h**e.ndim / measure_e
        if measure_e > 0
        else 0.0
    )
    verdict = contained and measure_a >= (1.0 - alpha) * measure_e
    return AlmostPartitionCertificate(
        alpha=alpha,
        measure_a=measure_a,
        measure_e=measure_e,
        coverage_ratio=ratio,
        complement_fraction=complement_fraction,
        contained=contained,
        verdict=bool(verdict),
    )


# ---------------------------------------------------------------------------
# export


def write_labels(p: Partition, path: str) -> None:
    """Write the label raster as a 16-bit binary portable graymap.

    A 3d labeling is written as its slices stacked along the image height,
    as ``write_mask`` does; the raster does not carry the dimensions, the
    mask's sidecar does.  Output bytes are deterministic.  Raises
    CovergeoError when a region id does not fit in 16 bits.
    """
    labels = p.labels
    if labels.max() > 0xFFFF:
        raise CovergeoError(
            f"too many regions for a 16-bit labeling: largest id {labels.max()}"
        )
    _write_raster(path, labels, lambda flat: flat.astype(">u2").tobytes(), "P5", "65535")


def read_labels(path: str) -> np.ndarray:
    """Read a label raster written by ``write_labels`` (2d only)."""
    with open(path, "rb") as fh:
        data = fh.read()
    _, width, height, maxval, pos = _netpbm_header(data, b"P5")
    if maxval != [b"65535"]:
        raise GridFormatError(f"not a 16-bit label graymap: {path}")
    body = data[pos:]
    expected = width * height * 2
    if len(body) != expected:
        raise GridFormatError(
            f"label raster has {len(body)} payload bytes, expected {expected}"
        )
    return (
        np.frombuffer(body, dtype=">u2").reshape(height, width).astype(np.int32)
    )


def region_table(p: Partition) -> dict:
    """JSON-ready region table with ids, counts, measures and diameters."""
    return {
        "schema": SCHEMA,
        "delta": p.delta,
        "ell": p.ell,
        "grow_radius": p.grow_radius,
        "floor_reduction": p.floor_reduction,
        "region_count": p.region_count,
        "regions": [
            {
                "id": r.id,
                "cells": r.cells,
                "measure": r.measure,
                "diameter": r.diameter,
                "seed_index": r.seed_index,
            }
            for r in p.regions
        ],
    }


def certificate_json(cert: GoodPartitionCertificate | AlmostPartitionCertificate) -> str:
    """Serialize a certificate deterministically."""
    return table_json(_certificate_payload(cert))


def _certificate_payload(cert: GoodPartitionCertificate | AlmostPartitionCertificate) -> dict:
    if isinstance(cert, GoodPartitionCertificate):
        return {
            "schema": SCHEMA,
            "kind": "good-partition",
            "delta": cert.delta,
            "volume_floor": cert.volume_floor,
            "snapped_floor": cert.snapped_floor,
            "diam_cap": cert.diam_cap,
            "diam_slack": cert.diam_slack,
            "floor_positive": cert.floor_positive,
            "verdict": cert.verdict,
            "regions": list(cert.region_rows),
        }
    return {
        "schema": SCHEMA,
        "kind": "almost-partition",
        "alpha": cert.alpha,
        "measure_a": cert.measure_a,
        "measure_e": cert.measure_e,
        "coverage_ratio": cert.coverage_ratio,
        "complement_fraction": cert.complement_fraction,
        "contained": cert.contained,
        "verdict": cert.verdict,
    }


# how json spells every value of a column whose values all have this type
_SPELLING = {
    float: float.__repr__,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
}


def _spelled(column: list) -> list[str] | None:
    """The JSON text of each value of a row column, or None if a value nests.

    A column of one type in ``_SPELLING`` (floats all finite) is spelled by
    that type's function; any other column by ``json.dumps`` value by value.
    """
    kinds = set(map(type, column))
    kind = next(iter(kinds)) if len(kinds) == 1 else None
    if kind is float and not all(map(math.isfinite, column)):
        kind = None
    if kind is float and 0.0 not in (distinct := set(column)):
        # float.__repr__ is the dear one, so each distinct value is spelled
        # once; 0.0 and -0.0 are one key but two texts, hence the zero test
        spelling = dict(zip(distinct, map(float.__repr__, distinct)))
        return list(map(spelling.__getitem__, column))
    if kind in _SPELLING:
        return list(map(_SPELLING[kind], column))
    if any(issubclass(k, (dict, list, tuple)) for k in kinds):
        return None
    return list(map(json.dumps, column))


def _rows_text(table) -> str | None:
    """The JSON list ``table`` as it sits in an indented document, or None.

    Each row fills one template, column by column, with the text ``json``
    gives its values.  None when the rows are not dicts with the same
    string keys and scalar values, or there are none.
    """
    if not isinstance(table, list) or not table or set(map(type, table)) != {dict}:
        return None
    first = table[0].keys()
    if not first or any(type(k) is not str for k in first):
        return None
    if not all(map(first.__eq__, map(dict.keys, table))):
        return None
    keys = sorted(first)
    columns = [_spelled(list(map(operator.itemgetter(k), table))) for k in keys]
    if None in columns:
        return None
    fields = ",\n".join("      " + json.dumps(k).replace("%", "%%") + ": %s" for k in keys)
    template = "    {\n" + fields + "\n    }"
    return "[\n" + ",\n".join(map(template.__mod__, zip(*columns))) + "\n  ]"


def table_json(payload: dict) -> str:
    """Exactly ``json.dumps(payload, sort_keys=True, indent=2)`` plus a newline.

    ``json`` encodes an indented document in pure Python, value by value.
    Here only the envelope goes through it; the flat rows of
    ``payload["regions"]`` are written as one table (``_rows_text``), or by
    ``json.dumps`` too when they are not flat.
    """
    text = _rows_text(payload.get("regions"))
    if text is None:
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    # a raw newline and two spaces before a key occur only at the top level
    envelope = json.dumps({**payload, "regions": None}, sort_keys=True, indent=2)
    return envelope.replace('\n  "regions": null', '\n  "regions": ' + text, 1) + "\n"
