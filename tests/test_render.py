"""SVG rendering: well-formedness, determinism, and content checks."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from covergeo import (
    GridSet,
    disk,
    flatnorm_minimize,
    good_partition,
    render_labels,
    render_mask,
    render_overlay,
    render_samples,
    sample_uniform,
)
from covergeo.errors import CovergeoError, DimensionError
from covergeo.render import _label_color, _runs
from covergeo.shapes import ball3

from oracles import row_runs_brute, svg_per_row

SVG = "{http://www.w3.org/2000/svg}"


def parse(doc):
    return ET.fromstring(doc)


class TestMask:
    def test_well_formed_and_sized(self):
        s = disk(12.0)
        root = parse(render_mask(s))
        assert root.tag == f"{SVG}svg"
        assert float(root.get("width")) == s.dims[1] * 6.0
        assert float(root.get("height")) == s.dims[0] * 6.0

    def test_deterministic(self):
        s = disk(9.0)
        assert render_mask(s) == render_mask(s)

    def test_run_length_merging(self):
        # a full row becomes one rect, not one per cell
        m = np.zeros((3, 12), dtype=bool)
        m[1, 1:11] = True
        from covergeo import GridSet

        root = parse(render_mask(GridSet(m, 1.0)))
        rects = [r for r in root.iter(f"{SVG}rect")]
        assert len(rects) == 2  # background + the single run
        assert float(rects[1].get("width")) == 10 * 6.0


class TestLabels:
    def test_each_region_gets_a_distinct_color(self):
        part = good_partition(disk(32.0), 8.0)
        doc = render_labels(part.labels)
        root = parse(doc)
        fills = {
            r.get("fill")
            for r in root.iter(f"{SVG}rect")
            if r.get("fill") != "#ffffff"
        }
        assert len(fills) == part.region_count

    def test_background_is_not_painted(self):
        labels = np.zeros((4, 4), dtype=np.int32)
        labels[1, 1] = 1
        root = parse(render_labels(labels))
        rects = list(root.iter(f"{SVG}rect"))
        assert len(rects) == 2

    def test_runs_match_cell_by_cell_scan(self):
        # adjacent runs of different labels, runs at both ends, single cells;
        # rows stacked into one raster must not run into each other
        rng = np.random.default_rng(8)
        for length in (1, 2, 5, 40):
            for height in (1, 3):
                for _ in range(50):
                    rows = [
                        rng.integers(0, 3, size=length).repeat(rng.integers(1, 4, size=length))
                        for _ in range(height)
                    ]
                    width = min(len(r) for r in rows)
                    raster = np.array([r[:width] for r in rows])
                    table = [tuple(map(int, t)) for t in zip(*_runs(raster))]
                    brute = [(i, j, n, v) for i, r in enumerate(raster) for j, n, v in row_runs_brute(r)]
                    assert table == brute

    def test_deterministic(self):
        part = good_partition(disk(24.0), 6.0)
        assert render_labels(part.labels) == render_labels(part.labels)


def random_rasters(seed):
    """Label rasters with all-background rows, one-column and one-row frames,
    runs touching both row ends, and labels up to 2**16."""
    rng = np.random.default_rng(seed)
    for shape in [(1, 1), (1, 9), (9, 1), (6, 1), (13, 17), (30, 4), (4, 30)]:
        for top in (1, 3, 40, 1 << 16):
            labels = rng.integers(0, top + 1, size=shape).astype(np.int32)
            labels = np.repeat(labels, rng.integers(1, 4), axis=1)[:, : shape[1]]
            labels[rng.random(shape[0]) < 0.3] = 0  # all-background rows
            labels[rng.random(shape[0]) < 0.3, :: max(shape[1] - 1, 1)] = top  # both ends
            yield labels


class TestMatchesPerRowRects:
    """Every renderer writes what the per-row scan with one colour call and
    one float format per rectangle wrote, byte for byte."""

    def test_labels(self):
        for labels in random_rasters(30):
            assert render_labels(labels) == svg_per_row(labels, lambda v: _label_color(int(v)))
        part = good_partition(disk(48.0), 6.0)
        assert render_labels(part.labels) == svg_per_row(part.labels, lambda v: _label_color(int(v)))

    def test_mask(self):
        for labels in random_rasters(31):
            m = np.pad(labels % 2 == 1, 1)
            assert render_mask(GridSet(m, 1.0)) == svg_per_row(m.astype(np.int32), lambda _v: "#4477aa")

    def test_overlay(self):
        palette = {1: "#99bbdd", 2: "#cc4433", 3: "#33aa55"}
        for labels in random_rasters(32):
            e = np.pad(labels % 3 != 0, 1)
            sigma = np.pad(labels % 2 == 1, 1)
            coded = np.select([e & sigma, e & ~sigma, sigma & ~e], [1, 2, 3]).astype(np.int32)
            doc = render_overlay(GridSet(e, 0.5), GridSet(sigma, 0.5))
            assert doc == svg_per_row(coded, lambda v: palette[int(v)])


class TestOverlay:
    def test_three_classes_painted(self):
        e = disk(32.0)
        res = flatnorm_minimize(e, 1.1 * 2.0 / 32.0)
        doc = render_overlay(e, res.sigma)
        assert "#99bbdd" in doc  # kept
        assert "#cc4433" in doc  # removed (knife-edge cells)
        assert "#33aa55" not in doc  # nothing added for a disk

    def test_added_cells_rendered(self):
        e = disk(20.0)
        hole = e.mask.copy()
        c = e.dims[0] // 2
        hole[c, c] = False
        res = flatnorm_minimize(e.with_mask(hole), 0.5)
        assert res.sigma.mask[c, c]  # the hole fills
        assert "#33aa55" in render_overlay(e.with_mask(hole), res.sigma)

    def test_different_frames_named(self):
        # used to end in a numpy broadcast error
        e = disk(12.0)
        sigma = disk(10.0)
        with pytest.raises(CovergeoError, match=r"\(29, 29\).*\(25, 25\)"):
            render_overlay(e, sigma)
        # same dims, shifted by one cell: used to render without complaint
        shifted = GridSet(e.mask, 1.0, (e.origin[0] + 1.0, e.origin[1]))
        with pytest.raises(CovergeoError, match=r"origin \(-14\.5, -14\.5\);.*origin \(-13\.5, -14\.5\)"):
            render_overlay(e, shifted)


class TestSamples:
    def test_circles_match_points(self):
        e = disk(16.0)
        pts = sample_uniform(e, 7, seed=3).points
        root = parse(render_samples(e, pts, 4.0))
        circles = list(root.iter(f"{SVG}circle"))
        assert len(circles) == 14  # one disk + one dot per point
        disks = [c for c in circles if c.get("r") != "1.2"]
        assert all(float(c.get("r")) == 4.0 * 6.0 for c in disks)

    def test_deterministic(self):
        e = disk(10.0)
        pts = sample_uniform(e, 5, seed=11).points
        assert render_samples(e, pts, 2.0) == render_samples(e, pts, 2.0)

    def test_radius_scales_with_h(self):
        e = disk(10.0, h=0.5)
        pts = sample_uniform(e, 1, seed=0).points
        root = parse(render_samples(e, pts, 2.0))
        disks = [c for c in root.iter(f"{SVG}circle") if c.get("r") != "1.2"]
        assert float(disks[0].get("r")) == 2.0 * 6.0 / 0.5


class TestThreeDimensional:
    def test_mask_rejected(self):
        with pytest.raises(DimensionError, match="2d-only"):
            render_mask(ball3(4.0))

    def test_samples_rejected(self):
        e = ball3(4.0)
        with pytest.raises(DimensionError, match="2d-only"):
            render_samples(e, sample_uniform(e, 3, seed=0).points, 2.0)

    def test_labels_rejected(self):
        with pytest.raises(DimensionError, match="2d-only"):
            render_labels(good_partition(ball3(10.0), 4.0).labels)
