"""Cube partitions: construction, invariants, certificates, restriction, IO.

Expected counts and certificate numbers are frozen from measured runs; the
structural invariants (label conservation, measure floors, diameter caps,
seed-cube proximity) are re-derived per test from the contract itself.
"""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from covergeo import (
    GridSet,
    Partition,
    certificate_json,
    certify_almost,
    certify_good,
    diameter,
    disk,
    dumbbell,
    erode,
    good_partition,
    partition_with_eta,
    perimeter,
    read_labels,
    region_table,
    restrict_partition,
    two_disks,
    write_labels,
)
from covergeo.errors import (
    CovergeoError,
    ErosionEmptyError,
    GridFormatError,
    ResolutionFloorError,
    StabilityRadiusExceeded,
)
from covergeo.grid import _region_perimeters, eta_delta, write_mask
from covergeo import grid as grid_mod
from covergeo import partition as partition_mod
from covergeo.partition import (
    GoodPartitionCertificate,
    _build_regions,
    _region_records,
    _snapped_side,
    table_json,
)
from covergeo.shapes import ball3

from oracles import certificate_payload, diameter_brute, grow_regions_brute, perimeter_batch


def fattened_block(delta=8.0):
    """Cells within delta of a 5x5 block aligned with the seed-cube lattice."""
    n = 45
    ii, jj = np.indices((n, n))
    bi, bj = np.clip(ii, 20, 24), np.clip(jj, 20, 24)
    return GridSet((ii - bi) ** 2 + (jj - bj) ** 2 <= delta * delta, 1.0)


def check_invariants(p, e):
    """Structural contract every partition must satisfy."""
    n, h = e.ndim, e.h
    # 1. labels conserve the base set exactly
    assert p.labels.shape == e.dims
    assert ((p.labels > 0) == p.base.mask).all()
    ids = sorted(r.id for r in p.regions)
    assert ids == sorted(np.unique(p.labels[p.labels > 0]).tolist())
    # 2. region bookkeeping sums match
    assert sum(r.cells for r in p.regions) == p.base.count
    assert sum(r.measure for r in p.regions) == pytest.approx(p.base.measure)
    # 3. measure floor with the announced rim slack
    floor = p.ell**n * (1 - n * h / p.ell)
    for r in p.regions:
        assert r.measure >= floor - 1e-9, f"region {r.id}"
    # 4. diameter cap
    cap = math.sqrt(n) * p.ell + 2 * p.grow_radius + h * math.sqrt(n)
    for r in p.regions:
        assert r.diameter <= cap + 1e-9, f"region {r.id}"
    # 5. every cell lies within grow_radius + h of its region's seed cube
    ell_cells = int(round(p.ell / h))
    cube_grid = tuple(d // ell_cells + 1 for d in e.dims)
    cube_of = {
        r.id: np.array(np.unravel_index(r.seed_index, cube_grid), dtype=float) * ell_cells
        for r in p.regions
    }
    cells = np.argwhere(p.labels > 0)
    labels = p.labels[p.labels > 0]
    for rid, lo in cube_of.items():
        mine = cells[labels == rid].astype(float)
        gap = np.clip(lo - mine, 0, None) + np.clip(mine - (lo + ell_cells - 1), 0, None)
        dist = h * np.sqrt((gap**2).sum(axis=1))
        assert (dist <= p.grow_radius + h + 1e-9).all(), f"region {rid}"


class TestGoodPartition:
    @pytest.mark.parametrize(
        "delta,m_expected,ell_expected,min_measure",
        [(6.0, 152, 4.0, 16.0), (8.0, 88, 5.0, 25.0), (12.0, 31, 8.0, 64.0)],
    )
    def test_disk_frozen_counts(self, delta, m_expected, ell_expected, min_measure):
        e = disk(32.0)
        p = good_partition(e, delta)
        assert p.region_count == m_expected
        assert p.ell == ell_expected
        assert p.grow_radius == delta
        # seed cubes are provably whole, so the min region is a full cube
        assert min(r.measure for r in p.regions) == min_measure
        check_invariants(p, e)

    @pytest.mark.parametrize("delta,m_expected", [(6.0, 256), (8.0, 149), (12.0, 54)])
    def test_two_disks_frozen_counts(self, delta, m_expected):
        e = two_disks(32.0, 32.0)
        p = good_partition(e, delta)
        assert p.region_count == m_expected
        check_invariants(p, e)

    def test_single_region_when_core_is_one_cube(self):
        e = fattened_block()
        p = good_partition(e, 8.0)
        assert p.region_count == 1
        assert p.regions[0].measure == 349.0
        assert p.regions[0].diameter == pytest.approx(22.674505, abs=1e-5)
        check_invariants(p, e)

    def test_deterministic(self):
        e = disk(32.0)
        p1 = good_partition(e, 8.0)
        p2 = good_partition(e, 8.0)
        assert np.array_equal(p1.labels, p2.labels)
        assert p1.regions.tolist() == p2.regions.tolist()

    def test_snapped_cube_side(self):
        # ell = floor(delta / (sqrt(n) h)) cells, in physical units
        for delta, ell in ((6.0, 4.0), (8.0, 5.0), (12.0, 8.0), (17.0, 12.0)):
            p = good_partition(disk(32.0), delta) if delta < 32 else None
            if p is not None:
                assert p.ell == ell

    def test_resolution_floor(self):
        with pytest.raises(ResolutionFloorError):
            good_partition(disk(32.0), 3.9)

    @pytest.mark.parametrize("delta", [math.nan, math.inf])
    def test_non_finite_delta_rejected(self, delta):
        for build in (good_partition, partition_with_eta):
            with pytest.raises(CovergeoError, match="finite and positive"):
                build(disk(16.0), delta)

    def test_stability_gate(self):
        with pytest.raises(StabilityRadiusExceeded):
            good_partition(disk(32.0), 32.5)

    def test_eta_variant_reaches_farther(self):
        e = dumbbell(14.0, 2.0, 44.0)
        p6 = partition_with_eta(e, 6.0)
        p8 = partition_with_eta(e, 8.0)
        assert (p6.region_count, p8.region_count) == (41, 19)
        assert p6.grow_radius == 14.0
        assert p8.grow_radius == 16.0
        check_invariants(p6, e)
        check_invariants(p8, e)

    def test_eta_variant_single_region_near_max_delta(self):
        e = disk(32.0)
        for delta in (30.0, 31.0):
            p = partition_with_eta(e, delta)
            assert p.region_count == 1

    def test_eta_variant_empty_core(self):
        with pytest.raises(ErosionEmptyError):
            partition_with_eta(disk(32.0), 33.0)

    def test_labels_int32(self):
        p = good_partition(disk(16.0), 6.0)
        assert p.labels.dtype == np.int32


class TestCertifyGood:
    def test_disk_certificate(self):
        p = good_partition(disk(32.0), 8.0)
        c = certify_good(p)
        assert c.verdict
        assert c.floor_positive
        assert c.volume_floor == pytest.approx(32.0)  # delta^2/2
        assert c.snapped_floor == pytest.approx(25.0)  # ell^2
        assert c.diam_cap == pytest.approx(24.0)  # 3 delta
        assert c.diam_slack == pytest.approx((math.sqrt(2) + 1) * 1.0)
        assert len(c.region_rows) == p.region_count

    def test_rows_recheckable(self):
        p = good_partition(disk(32.0), 8.0)
        c = certify_good(p)
        for row in c.region_rows:
            assert row["measure"] >= c.volume_floor - row["measure_slack"] - 1e-9
            assert row["diameter"] <= c.diam_cap + c.diam_slack + 1e-9

    def test_region_on_its_measure_floor_passes(self):
        # a floor reduction that puts the region with the least measure plus
        # slack exactly at floor - slack: the floor is a >= bound, so it and
        # every other region pass
        p = good_partition(disk(32.0), 8.0)
        fresh = certify_good(p)
        rows, base = fresh.region_rows, fresh.volume_floor
        k = int(np.argmin(rows.measure + rows.measure_slack))
        measure, slack = float(rows.measure[k]), float(rows.measure_slack[k])
        reduction = base - (measure + slack)
        for _ in range(8):
            gap = (base - reduction) - slack - measure
            if gap == 0:
                break
            reduction = math.nextafter(reduction, math.inf if gap > 0 else -math.inf)
        c = certify_good(dataclasses.replace(p, floor_reduction=reduction))
        assert c.region_rows.measure[k] == c.volume_floor - c.region_rows.measure_slack[k]
        assert c.region_rows.measure_ok[k] and c.verdict

    def test_certificate_json_deterministic(self):
        p = good_partition(disk(16.0), 6.0)
        s1 = certificate_json(certify_good(p))
        s2 = certificate_json(certify_good(good_partition(disk(16.0), 6.0)))
        assert s1 == s2
        doc = json.loads(s1)
        assert doc["schema"] == "covergeo/v1"
        assert doc["kind"] == "good-partition"
        assert s1.endswith("\n")


class TestRestriction:
    def test_identity(self):
        e = disk(32.0)
        p = good_partition(e, 8.0)
        q = restrict_partition(p, e)
        assert q.region_count == p.region_count
        assert q.floor_reduction == 0.0
        assert np.array_equal(q.labels, p.labels)

    def test_small_hole_keeps_verdict(self):
        e = disk(32.0)
        p = good_partition(e, 8.0)
        m = e.mask.copy()
        m[32:36, 32:36] = False
        q = restrict_partition(p, e.with_mask(m))
        assert q.region_count == 88
        assert q.floor_reduction == 16.0
        c = certify_good(q)
        assert c.volume_floor == pytest.approx(16.0)  # 32 - removed
        assert c.verdict

    def test_removing_whole_region_breaks_floor(self):
        e = disk(32.0)
        p = good_partition(e, 8.0)
        r = p.regions[1]
        m = e.mask.copy()
        m[p.labels == r.id] = False
        q = restrict_partition(p, e.with_mask(m))
        assert q.region_count == p.region_count - 1
        assert q.floor_reduction == r.measure == 60.0
        c = certify_good(q)
        assert not c.floor_positive
        assert not c.verdict  # reported, not raised

    def test_extra_cells_rejected(self):
        e = disk(32.0)
        p = good_partition(e, 8.0)
        m = e.mask.copy()
        m[1, 1] = True
        with pytest.raises(CovergeoError, match=r"\(1, 1\)"):
            restrict_partition(p, e.with_mask(m))

    def test_frame_mismatch_rejected(self):
        p = good_partition(disk(32.0), 8.0)
        with pytest.raises(CovergeoError):
            restrict_partition(p, disk(32.0, 0.5))


class TestCertifyAlmost:
    def test_hole_within_alpha(self):
        e = disk(32.0)
        p = good_partition(e, 8.0)
        m = e.mask.copy()
        m[32:36, 32:36] = False
        q = restrict_partition(p, e.with_mask(m))
        cert = certify_almost(q, e, alpha=16.0 / e.measure)
        assert cert.contained
        assert cert.coverage_ratio == pytest.approx(0.99501402, abs=1e-8)
        assert cert.complement_fraction == pytest.approx(0.00498598, abs=1e-8)
        assert cert.coverage_ratio + cert.complement_fraction == pytest.approx(1.0)
        assert cert.verdict

    def test_alpha_too_tight(self):
        e = disk(32.0)
        p = good_partition(e, 8.0)
        m = e.mask.copy()
        m[32:36, 32:36] = False
        q = restrict_partition(p, e.with_mask(m))
        assert not certify_almost(q, e, alpha=15.0 / e.measure).verdict

    def test_json_round(self):
        e = disk(16.0)
        p = good_partition(e, 6.0)
        q = restrict_partition(p, e)
        doc = json.loads(certificate_json(certify_almost(q, e, alpha=0.01)))
        assert doc["kind"] == "almost-partition"
        assert doc["verdict"] is True


class TestLabelsIO:
    def test_round_trip(self, tmp_path):
        p = good_partition(disk(16.0), 6.0)
        path = str(tmp_path / "p.labels.pgm")
        write_labels(p, path)
        back = read_labels(path)
        assert back.dtype == np.int32
        assert np.array_equal(back, p.labels)

    def test_3d_labels_are_stacked_slices(self, tmp_path):
        # the raster stacks the slices along its height, as write_mask does,
        # and the mask's sidecar beside it gives the dims back
        p = good_partition(ball3(9.0), 4.0)
        assert p.labels.ndim == 3 and p.region_count > 1
        path = tmp_path / "b.labels.pgm"
        write_labels(p, str(path))
        stacked = p.labels.reshape(-1, p.labels.shape[-1])
        header = f"P5\n{stacked.shape[1]} {stacked.shape[0]}\n65535\n".encode()
        assert path.read_bytes() == header + stacked.astype(">u2").tobytes()
        write_mask(p.base, str(tmp_path / "b.pbm"))
        assert (tmp_path / "b.labels.pgm.hdr").read_text() == (tmp_path / "b.hdr").read_text()
        back = read_labels(str(path))
        assert back.dtype == np.int32 and np.array_equal(back, p.labels)

    def test_2d_labels_have_no_sidecar(self, tmp_path):
        path = str(tmp_path / "p.labels.pgm")
        write_labels(good_partition(ball3(9.0), 4.0), path)
        p = good_partition(disk(16.0), 6.0)
        write_labels(p, path)  # over a 3d labeling, whose sidecar goes
        assert [f.name for f in tmp_path.iterdir()] == ["p.labels.pgm"]
        assert np.array_equal(read_labels(path), p.labels)

    def test_deterministic_bytes(self, tmp_path):
        p = good_partition(disk(16.0), 6.0)
        a, b = str(tmp_path / "a.pgm"), str(tmp_path / "b.pgm")
        write_labels(p, a)
        write_labels(p, b)
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_ids_beyond_16_bits_rejected(self, tmp_path):
        mask = np.zeros((5, 5), dtype=bool)
        mask[2, 2] = True
        labels = np.where(mask, 70000, 0).astype(np.int32)
        table = _region_records(labels, 1.0, np.array([70000]), np.array([0]))
        p = Partition(GridSet(mask, 1.0), labels, table, delta=4.0, ell=2.0, grow_radius=4.0)
        path = tmp_path / "p.labels.pgm"
        with pytest.raises(CovergeoError, match="16-bit"):
            write_labels(p, str(path))
        assert not path.exists()
        # the largest 16-bit id still round-trips
        p = Partition(p.base, np.where(mask, 65535, 0).astype(np.int32), p.regions,
                      delta=4.0, ell=2.0, grow_radius=4.0)
        write_labels(p, str(path))
        assert np.array_equal(read_labels(str(path)), p.labels)

    @pytest.mark.parametrize("header", [
        "P5\n# made elsewhere\n{w} {h}\n65535\n", "P5 {w} {h} 65535\n",
        "P5\t{w}\r\n{h} # height\n65535\n", "P5 #\n#\n {w}\n\n{h}\n65535 ",
    ], ids=["comment-line", "one-line", "tab-and-trailing-comment", "empty-comments"])
    def test_header_in_the_netpbm_grammar(self, tmp_path, header):
        p = good_partition(disk(16.0), 6.0)
        path = tmp_path / "p.labels.pgm"
        write_labels(p, str(path))
        h, w = p.labels.shape
        canonical = f"P5\n{w} {h}\n65535\n".encode()
        data = path.read_bytes()
        assert data.startswith(canonical)
        path.write_bytes(header.format(w=w, h=h).encode() + data[len(canonical):])
        assert np.array_equal(read_labels(str(path)), p.labels)

    @pytest.mark.parametrize("maxval", [b"255", b"65536", b"x", b""])
    def test_maxval_other_than_65535(self, tmp_path, maxval):
        path = tmp_path / "l.pgm"
        path.write_bytes(b"P5\n1 1\n" + maxval + b"\n\x00\x01")
        with pytest.raises(GridFormatError):
            read_labels(str(path))

    @pytest.mark.parametrize(
        "data",
        [b"P5\nx 3\n65535\n", b"P5\n3\n65535\n", b"P5\n1 2 3\n65535\n",
         b"P5\n0 3\n65535\n", b"P5\n-1 -2\n65535\n\x00\x00\x00\x00",
         b"P5\n3 " + b"9" * 4301 + b"\n65535\n"],
        ids=["non-numeric", "one-number", "three-numbers", "zero-width", "negative",
             "4301-digit-height"],
    )
    def test_malformed_size_line(self, tmp_path, data):
        path = tmp_path / "bad.pgm"
        path.write_bytes(data)
        with pytest.raises(GridFormatError):
            read_labels(str(path))

    def test_region_table_contents(self):
        p = good_partition(disk(16.0), 6.0)
        t = region_table(p)
        assert t["schema"] == "covergeo/v1"
        assert t["region_count"] == p.region_count
        assert len(t["regions"]) == p.region_count
        assert sum(r["cells"] for r in t["regions"]) == p.base.count


class TestSeedCubesAreWhole:
    def test_min_region_is_full_cube(self):
        # strict erosion keeps every seed-cube cell at least sqrt(n) h
        # inside the set, so seed cubes are never clipped by the frame or
        # the set boundary: the smallest possible region is a whole cube
        for delta in (6.0, 8.0, 12.0):
            p = good_partition(disk(32.0), delta)
            assert min(r.measure for r in p.regions) == p.ell**2

    def test_core_cells_all_labeled(self):
        e = disk(32.0)
        p = good_partition(e, 8.0)
        core = erode(e, 8.0)
        assert (p.labels[core.mask] > 0).all()


def blocky_labels(rng, shape, block, n_ids, rim=1):
    """Random labels constant on blocks of side ``block``, with a zero rim.

    ``rim=0`` leaves the labels free to touch the frame edge.
    """
    coarse = rng.integers(0, n_ids + 1, size=tuple(-(-d // block) for d in shape))
    full = coarse
    for ax in range(len(shape)):
        full = np.repeat(full, block, axis=ax)
    labels = np.zeros(tuple(d + 2 * rim for d in shape), dtype=np.int32)
    labels[tuple(slice(rim, d + rim) for d in shape)] = full[tuple(slice(0, d) for d in shape)]
    return labels


def speckled_labels(rng, shape, n_ids, rim=1):
    """Random labels per cell (fragmented regions), with a zero rim."""
    labels = np.zeros(tuple(d + 2 * rim for d in shape), dtype=np.int32)
    labels[tuple(slice(rim, d + rim) for d in shape)] = rng.integers(0, n_ids + 1, size=shape)
    return labels


def assert_stats_exact(labels, h):
    """Every region's count, diameter and perimeter equal the one-region values.

    Regions may touch the frame edge: the one-region perimeter is then
    taken on a padded copy (the world beyond the frame is empty) and, in
    2d, also from ``oracles.perimeter_batch``.
    """
    present = sorted(int(i) for i in np.unique(labels) if i > 0)
    ids = np.arange(1, int(labels.max()) + 2)  # one id past the largest, never present
    records = {r.id: r for r in _region_records(labels, h, ids, ids)}
    per = _region_perimeters(labels, h)
    assert sorted(records) == present
    for rid in present:
        mine = labels == rid
        r = records[rid]
        assert r.cells == int(mine.sum())
        assert r.measure == r.cells * h**labels.ndim
        assert r.seed_index == rid
        assert r.diameter == diameter_brute(np.argwhere(mine), h)
        assert per[rid] == perimeter(GridSet(np.pad(mine, 1), h))
        if labels.ndim == 2:
            assert per[rid] == perimeter_batch(mine[None], h)[0]


class TestRegionStats:
    @pytest.mark.parametrize("h", [1.0, 0.5])
    def test_random_labelings_2d(self, h):
        rng = np.random.default_rng(400)
        for _ in range(4):
            assert_stats_exact(blocky_labels(rng, (29, 34), int(rng.integers(2, 5)), 30), h)
            assert_stats_exact(speckled_labels(rng, (17, 15), 12), h)

    def test_random_labelings_3d(self):
        rng = np.random.default_rng(401)
        for _ in range(2):
            assert_stats_exact(blocky_labels(rng, (11, 12, 13), 3, 25), 1.0)
            assert_stats_exact(speckled_labels(rng, (7, 8, 6), 9), 0.5)

    @pytest.mark.parametrize("h", [1.0, 0.5])
    def test_labelings_touching_the_frame_edge(self, h):
        # a pair that leaves the frame is a crossing of its inside end
        rng = np.random.default_rng(403)
        for _ in range(4):
            labels = blocky_labels(rng, (23, 19), int(rng.integers(2, 5)), 12, rim=0)
            assert (labels[0] > 0).any() and (labels[:, -1] > 0).any()
            assert_stats_exact(labels, h)
            assert_stats_exact(speckled_labels(rng, (13, 16), 7, rim=0), h)
        assert_stats_exact(np.ones((5, 6), dtype=np.int32), h)  # one region fills the frame
        assert_stats_exact(blocky_labels(rng, (9, 8, 7), 2, 6, rim=0), h)
        assert_stats_exact(speckled_labels(rng, (6, 5, 7), 4, rim=0), h)

    @pytest.mark.parametrize("e,delta", [(disk(32.0), 8.0), (ball3(10.0), 4.0)],
                             ids=["disk32", "ball3"])
    def test_restricted_partition_with_emptied_regions(self, e, delta):
        p = good_partition(e, delta)
        rng = np.random.default_rng(402)
        dropped = [r.id for r in p.regions[::4]]
        m = e.mask & (rng.random(e.dims) > 0.3) & ~np.isin(p.labels, dropped)
        q = restrict_partition(p, e.with_mask(m))
        assert {r.id for r in q.regions} == {r.id for r in p.regions} - set(dropped)
        assert_stats_exact(q.labels, e.h)
        for r in q.regions:
            mine = q.labels == r.id
            assert (r.cells, r.diameter) == (int(mine.sum()), diameter_brute(np.argwhere(mine), e.h))
            assert r.measure == r.cells * e.h**e.ndim

    def test_certificate_bytes_unchanged(self):
        # SHA-256 of the certificate as the per-region perimeter scan wrote it
        text = certificate_json(certify_good(good_partition(disk(32.0), 8.0)))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "f9950d0ceafb663fab5ace1ce4e216b9613cb3a105f55f2503631bc49ede4669"
        )


def ball_union(seed, dims, h):
    """Union of three seeded balls in a frame of ``dims`` cells, clear of its rim."""
    rng = np.random.default_rng(seed)
    idx = np.indices(dims)
    mask = np.zeros(dims, dtype=bool)
    for _ in range(3):
        centre = rng.uniform(0.3, 0.7, len(dims)) * np.array(dims)
        r = rng.uniform(0.2, 0.35) * min(dims)
        mask |= sum((x - c) ** 2 for x, c in zip(idx, centre)) <= r * r
    rim = np.ones(dims, dtype=bool)
    rim[tuple(slice(1, -1) for _ in dims)] = False
    return GridSet(mask & ~rim, h)


def radius_on_tolerance_edge(cells, h):
    """A growth radius g whose reach test ``dsq <= (g/h)**2 + 1e-9`` has right side k**2.

    k is the first half-integer from ``cells`` on for which a float g makes
    the right side exactly k**2.  A cell center lies a half-integer number
    of cells from each face of a cube, so a cell k cells from a cube along
    one axis sits on the edge of the test itself, where ``<`` and ``<=``
    grow different regions.
    """
    for k in np.arange(math.floor(cells), 2 * cells) + 0.5:
        g = math.sqrt(k * k - 1e-9) * h
        for _ in range(8):
            rhs = (g / h) ** 2 + 1e-9
            if rhs == k * k:
                return g
            g = math.nextafter(g, 0.0 if rhs > k * k else math.inf)
    raise AssertionError(f"no float radius lands on a tolerance edge from {cells} on")


# (set, delta): 2d and 3d, h = 1 and 0.5, frames with and without dims that
# are multiples of the cube side
GROWTH_CORPUS = [
    (ball_union(0, (40, 44), 1.0), 6.0),  # ell 4, dims multiples of it
    (ball_union(1, (37, 42), 1.0), 6.0),
    (ball_union(2, (45, 50), 1.0), 8.0),  # ell 5, dims multiples of it
    (ball_union(3, (40, 36), 0.5), 3.0),  # ell 4, dims multiples of it
    (ball_union(4, (43, 47), 0.5), 4.0),  # ell 5
    (ball_union(5, (18, 20, 22), 1.0), 3.5),  # ell 2, dims multiples of it
    (ball_union(6, (19, 21, 23), 1.0), 5.2),  # ell 3
    (ball_union(7, (21, 24, 18), 0.5), 2.6),  # ell 3, dims multiples of it
    (dumbbell(14.0, 2.0, 44.0), 6.0),
    (disk(12.0, h=0.5), 2.5),
    (ball3(7.0), 4.0),
]


def growth_radii(e, delta):
    """delta, eta and shrunk radii, one of them on the reach test's tolerance edge."""
    eta = eta_delta(e, delta)
    edge = radius_on_tolerance_edge(0.8 * delta / e.h, e.h)
    return (delta, eta, 0.7 * delta, 0.7 * eta, edge)


def grow_outcome(build, e, delta, grow_radius):
    _, ell_cells = _snapped_side(delta, e.ndim, e.h)
    try:
        labels, records = build(e, delta, grow_radius, ell_cells)
    except StabilityRadiusExceeded as err:
        return ("uncovered", err.lhs)
    return (labels.dtype, labels.tolist(), records.tolist())


class TestGrowthMatchesSweep:
    """One pass per cube offset gives what the per-seed first-come sweep gives."""

    @pytest.mark.parametrize("e,delta", GROWTH_CORPUS, ids=range(len(GROWTH_CORPUS)))
    def test_labels_records_and_uncovered_count(self, e, delta):
        for g in growth_radii(e, delta):
            assert grow_outcome(_build_regions, e, delta, g) == grow_outcome(
                grow_regions_brute, e, delta, g
            ), f"grow radius {g}"

    def test_corpus_reaches_both_outcomes(self):
        outcomes = [
            grow_outcome(_build_regions, e, delta, g)[0]
            for e, delta in GROWTH_CORPUS
            for g in growth_radii(e, delta)
        ]
        assert "uncovered" in outcomes
        assert np.dtype(np.int32) in outcomes


def dumps(payload):
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def restricted_partition():
    """disk(32) at delta = 8, restricted to a fifth of its cells dropped at
    random; the generator is its own, so every call gives the same cells."""
    e = disk(32.0)
    keep = np.random.default_rng(21).random(e.dims) > 0.2
    return restrict_partition(good_partition(e, 8.0), e.with_mask(e.mask & keep))


# name -> partition builder: good, eta and restricted partitions, h = 0.5,
# 3d and one region
WRITER_PARTS = {
    "good": lambda: good_partition(disk(32.0), 8.0),
    "eta": lambda: partition_with_eta(dumbbell(14.0, 2.0, 44.0), 6.0),
    "restricted": restricted_partition,
    "h0.5": lambda: good_partition(disk(12.0, h=0.5), 2.5),
    "3d": lambda: good_partition(ball3(10.0), 4.0),
    "one-region": lambda: good_partition(fattened_block(), 8.0),
}


def writer_corpus() -> dict:
    """name -> payload builder: the region table and the certificate of each
    of ``WRITER_PARTS``, an almost certificate, then made-up rows."""
    corpus = {}
    for name, build in WRITER_PARTS.items():
        corpus[f"{name}-table"] = lambda build=build: region_table(build())
        corpus[f"{name}-certificate"] = lambda build=build: certificate_payload(certify_good(build()))
    corpus["almost"] = lambda: certificate_payload(
        certify_almost(restricted_partition(), disk(32.0), alpha=0.3))
    row = {"a": 1.5, "b": 2, "c": True, "d": 0.1}
    made_up = {
        "empty": [],
        "one-row": [row],
        "non-finite": [{**row, "a": v} for v in (math.nan, math.inf, -math.inf, 2.5)],
        "bools": [{**row, "c": v, "e": not v} for v in (True, False, False, True)],
        "big-ints": [{**row, "b": v} for v in (2**53 + 1, -(2**63), 10**30, 0)],
        "signed-zeros": [{**row, "a": v} for v in (0.0, -0.0, 1e-320, -1e300)],
        "strings": [{**row, "b": v} for v in ("x", 'q"uo\\te\n', "\u00e9", None)],
        "mixed": [{**row, "a": v} for v in (1, 1.0, True, None, "1")],
        "numpy-scalars": [{**row, "a": np.float64(0.3)}, {**row, "a": 7.0}],
        "keys-differ": [row, {**row, "f": 1}],
        "keys-spelled-oddly": [{"%s": 1.0, "%%": 2, "\u00e9\"k": False}] * 3,
        "nested": [{**row, "d": [1.0, {"x": 2}]}, row],
        "empty-rows": [{}, {}],
        "not-dicts": [row, [1, 2]],
    }
    for name, rows in made_up.items():
        corpus[name] = lambda rows=rows: {"schema": "covergeo/v1", "regions": rows, "sub": {"regions": None}}
    corpus["no-rows"] = lambda: {"schema": "covergeo/v1", "delta": 8.0}
    return corpus


WRITER_CORPUS = writer_corpus()


class TestTableWriter:
    """``table_json`` writes exactly what ``json.dumps`` writes."""

    @pytest.mark.parametrize("name", list(WRITER_CORPUS))
    def test_equals_json_dumps(self, name):
        payload = WRITER_CORPUS[name]()
        assert table_json(payload) == dumps(payload)

    def test_certificate_json_is_the_payload_dumped(self):
        e = disk(32.0)
        p = good_partition(e, 8.0)
        for cert in (certify_good(p), certify_almost(p, e, alpha=0.1)):
            assert certificate_json(cert) == dumps(certificate_payload(cert))

    def test_rows_take_the_table_path(self, monkeypatch):
        # the corpus would pass with every document left to json.dumps, and
        # with a numpy scalar spelled by json.dumps value by value
        calls = []
        spelled = partition_mod._spelled
        monkeypatch.setattr(partition_mod, "_spelled", lambda c: calls.append(c) or spelled(c))
        p = good_partition(disk(16.0), 6.0)
        table_json(region_table(p))
        assert len(calls) == 5
        certificate_json(certify_good(p))
        assert len(calls) == 5 + 9
        # every column holds Python scalars of one type
        kinds = [set(map(type, c)) for c in calls]
        assert all(len(k) == 1 and k <= {float, int, bool} for k in kinds), kinds


# name -> partition builder for the frozen texts: the writer corpus, the
# bench's disk(128), and h = 0.3, where 51 of the 77 measures differ when
# taken as cells * h * h instead of cells * h**2
FROZEN_PARTS = {
    **WRITER_PARTS,
    "disk128": lambda: good_partition(disk(128.0), 8.0),
    "h0.3": lambda: good_partition(disk(12.0, h=0.3), 3.0),
}

# name -> SHA-256 of the regions.json and certificate.json texts, as the
# per-region records wrote them
FROZEN_TEXTS = {
    "good": ("41a6deb8d7dfdc47871c4513f1956df5f1658eeba80c2c3fe48a3c5f08e24fd8",
             "f9950d0ceafb663fab5ace1ce4e216b9613cb3a105f55f2503631bc49ede4669"),
    "eta": ("2aef889c353bf990174d26c49d9b2ea3a75bb9bad13199de90273bc1fa883c26",
            "3cfca8014a0fddd0fcfb06302a8272c3304afdae6e12268c8bfbddfcc8b9ba49"),
    "restricted": ("79d60197ddf03948adfbc035f647e747618be0f83571cec0b275e730d69f87e3",
                   "50066e8679236a5bf427f6363c4a1b6889b2a49b8d0ce63ed2459a619bd9172e"),
    "h0.5": ("0a8e3bca15a0cb57ccc5188636aee4aa8d79dccceb906006017dfcae3fd3c601",
             "dd284d02b0e835aa6b70af314835707c387b44805f82772beb757c9d26ca29c4"),
    "3d": ("f3c7b43a58cb7d41dd9f2e89dca7dd88636475b533d4af1c8e7894aeb3a27439",
           "2e2caafcb21476e6079f18573c0fee13fbf39d9ea308bb69f770348ded87e787"),
    "one-region": ("3a2d7fd0c8f9ef0768380002ddb4c3eeda9fa2c5713701338b37a92c3413d093",
                   "47ff6a7de639128a2ae584f0781a95c55689dc427eccf0366ac8b1ae043352d4"),
    "disk128": ("bb7d8062a37cfc71100916943025e4155411092899dc84eef495b11955137198",
                "b448bcab81336cc03a0d597f9c6acecaabe5510dfa107eb81cd85c48e352affc"),
    "h0.3": ("80523c28e2a5b4de4c730382cedc3e7120257bc17513dbce600dc44a481b7242",
             "f14590bdade3359393e89d88978762d1800ed2592a188175eaf1e12b197a9d22"),
}


class TestFrozenTexts:
    """Both JSON documents of a partition keep their bytes."""

    @pytest.mark.parametrize("name", list(FROZEN_TEXTS))
    def test_both_texts_unchanged(self, name):
        p = FROZEN_PARTS[name]()
        texts = table_json(region_table(p)), certificate_json(certify_good(p))
        assert tuple(hashlib.sha256(t.encode()).hexdigest() for t in texts) == FROZEN_TEXTS[name]

    def test_h03_measures_depend_on_the_float_order(self):
        # the frozen h = 0.3 texts tell cells * h**2 from cells * h * h
        cells = FROZEN_PARTS["h0.3"]().regions.cells
        assert (len(cells), int(np.count_nonzero(cells * 0.3**2 != cells * 0.3 * 0.3))) == (77, 51)


def made_up_certificate(**constants) -> GoodPartitionCertificate:
    """A good certificate of three made-up rows with signed zeros, a
    subnormal and both bools, its floor, cap and slack set by ``constants``."""
    rows = np.rec.fromarrays(
        [np.array([1, 2, 70000]), np.array([0.0, -0.0, 2.5]), np.array([-0.0, 1e-320, 0.1]),
         np.array([True, False, True]), np.array([0.0, 3.0, -0.0]), np.array([False, True, True])],
        names="id,measure,measure_slack,measure_ok,diameter,diam_ok",
    )
    return GoodPartitionCertificate(delta=8.0, snapped_floor=-0.0, region_rows=rows,
                                    floor_positive=False, verdict=False, **constants)


def zero_row_certificate() -> GoodPartitionCertificate:
    """The good certificate of a partition restricted to no cell at all."""
    e = disk(16.0)
    return certify_good(restrict_partition(good_partition(e, 6.0), e.with_mask(np.zeros_like(e.mask))))


# name -> certificate builder: the good certificate of every frozen partition,
# a 3d eta partition, an almost certificate, no rows, then made-up rows with
# floor, cap and slack as signed zeros, non-finite values, numpy scalars and
# texts with a "%"
CERTIFICATES = {
    **{name: lambda build=build: certify_good(build()) for name, build in FROZEN_PARTS.items()},
    "eta-3d": lambda: certify_good(partition_with_eta(ball3(9.0), 4.0)),
    "almost": lambda: certify_almost(restricted_partition(), disk(32.0), alpha=0.3),
    "zero-rows": zero_row_certificate,
    "signed-zeros": lambda: made_up_certificate(volume_floor=-0.0, diam_cap=0.0, diam_slack=-0.0),
    "non-finite": lambda: made_up_certificate(volume_floor=math.nan, diam_cap=math.inf,
                                              diam_slack=-math.inf),
    "numpy-scalars": lambda: made_up_certificate(volume_floor=np.float64(0.1), diam_cap=np.float64(24.5),
                                                 diam_slack=np.float64(-0.0)),
    "percent": lambda: made_up_certificate(volume_floor="%s", diam_cap="5%", diam_slack="%%d"),
}


class TestCertificateWriter:
    """``certificate_json`` writes exactly the dumped dict-row payload of
    ``oracles.certificate_payload``."""

    @pytest.mark.parametrize("name", list(CERTIFICATES))
    def test_equals_the_dict_row_payload_dumped(self, name):
        cert = CERTIFICATES[name]()
        assert certificate_json(cert) == dumps(certificate_payload(cert))

    def test_zero_rows_write_an_empty_list(self):
        cert = zero_row_certificate()
        assert len(cert.region_rows) == 0
        assert '\n  "regions": [],\n' in certificate_json(cert)


def ring_labels(radius, rim=2):
    """One-cell-thick ring labelled 1 beside a few small blocks: the ring has
    more line-end pairs than a grouped diameter pass takes."""
    size = 2 * radius + 2 * rim + 1
    y, x = np.indices((size, size)) - (radius + rim)
    d2 = x * x + y * y
    labels = ((d2 <= radius * radius) & (d2 > (radius - 1) ** 2)).astype(np.int32)
    labels[radius - 3 : radius + 3, radius - 3 : radius + 3] = 2
    labels[radius + 1, radius + 6] = 3
    return labels


class TestGroupedDiameters:
    """Every diameter of ``_region_records`` is the brute-force one, whatever
    the passes: one region per pass, many, and a region over budget taken a
    run of its points at a time."""

    @pytest.mark.parametrize("budget", [0, 1, 3, 40, None])
    def test_diameters_match_brute_force(self, monkeypatch, budget):
        if budget is not None:
            monkeypatch.setattr(grid_mod, "_PAIR_BUDGET", budget)
        rng = np.random.default_rng(404)
        for labels, h in [
            (blocky_labels(rng, (29, 34), 3, 30), 1.0),
            (speckled_labels(rng, (17, 15), 12), 0.5),
            (blocky_labels(rng, (11, 12, 13), 3, 25), 1.0),
            (speckled_labels(rng, (7, 8, 6), 9), 0.5),
            (ring_labels(120), 1.0),
        ]:
            assert_stats_exact(labels, h)

    def test_ring_is_over_budget(self):
        # the ring's line ends alone form more pairs than one pass takes
        ends = int(np.minimum((ring_labels(120) == 1).sum(axis=1), 2).sum())
        assert ends * (ends - 1) // 2 > grid_mod._PAIR_BUDGET

    def test_one_kernel_serves_both(self, monkeypatch):
        # partition's diameters and grid.diameter form their pairs in the
        # same kernel, once per call
        assert partition_mod._region_diameters is grid_mod._region_diameters
        calls = []
        kernel = grid_mod._region_diameters

        def counted(points, sizes, h):
            calls.append(len(sizes))
            return kernel(points, sizes, h)

        monkeypatch.setattr(grid_mod, "_region_diameters", counted)
        monkeypatch.setattr(partition_mod, "_region_diameters", counted)
        labels = ring_labels(120)
        records = _region_records(labels, 1.0, np.arange(1, 4), np.arange(1, 4))
        assert calls == [3]
        assert diameter(np.argwhere(labels == 1), 1.0) == records[0].diameter
        assert calls == [3, 1]

    def test_partitions_match_brute_force(self):
        for e, delta in [(disk(24.0), 6.0), (disk(12.0, h=0.5), 2.5), (ball3(9.0), 4.0)]:
            p = good_partition(e, delta)
            for r in p.regions:
                assert r.diameter == diameter_brute(np.argwhere(p.labels == r.id), e.h)
