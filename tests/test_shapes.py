"""Rasterized test shapes: counts, symmetry, framing."""

import math

import numpy as np
import pytest

from covergeo import GridSet, disk, two_disks, dumbbell, rasterize
from covergeo.errors import CovergeoError
from covergeo.shapes import (
    _MAX_FRAME_CELLS,
    _frame,
    ball3,
    box,
    disk_minus_box,
    disk_minus_cross,
    disk_minus_disk,
)


class TestRasterize:
    def test_predicate_sampling(self):
        s = rasterize(lambda x, y: (np.abs(x) <= 1.5) & (np.abs(y) <= 1.5), 2.0, 1.0)
        assert s.count == 9  # centers at {-1, 0, 1}^2

    def test_pad_is_empty_rim(self):
        s = disk(5.0, 1.0, pad_cells=3)
        assert s.dims == (17, 17)
        assert not s.mask[:3].any() and not s.mask[-3:].any()
        assert not s.mask[:, :3].any() and not s.mask[:, -3:].any()

    def test_odd_dims_center_cell(self):
        s = disk(8.0)
        assert all(d % 2 == 1 for d in s.dims)
        c = s.dims[0] // 2
        assert s.mask[c, c]


class TestDisks:
    def test_area_close_to_circle(self):
        for r in (8.0, 16.0, 32.0):
            s = disk(r)
            assert abs(s.measure - math.pi * r * r) < 2 * math.pi * r  # one-ring error

    def test_symmetry(self):
        m = disk(12.0).mask
        assert np.array_equal(m, m[::-1])
        assert np.array_equal(m, m[:, ::-1])
        assert np.array_equal(m, m.T)

    def test_resolution_refines(self):
        coarse = disk(10.0, 1.0)
        fine = disk(10.0, 0.25)
        assert abs(fine.measure - math.pi * 100) < abs(coarse.measure - math.pi * 100) + 1e-9

    def test_two_disks_overlapping_connected(self):
        s = two_disks(32.0, 32.0)
        single = disk(32.0)
        assert s.count < 2 * single.count  # overlap removed once
        assert s.count > 1.5 * single.count

    def test_two_disks_disjoint_counts(self):
        s = two_disks(24.0, 70.0)
        assert s.count == 2 * disk(24.0).count

    def test_ball3(self):
        b = ball3(6.0)
        assert b.ndim == 3
        assert abs(b.measure - 4 / 3 * math.pi * 216) < 4 * math.pi * 36


class TestFrameCap:
    def test_largest_frame_side_is_accepted(self):
        # 4095^2 and 255^3 cells fit under 2^24; the next odd sides do not
        assert _MAX_FRAME_CELLS == 1 << 24
        idx, origin = _frame(2045.0, 1.0, 2, 2)
        assert len(idx) == 4095 and origin == (-2047.5, -2047.5)
        with pytest.raises(CovergeoError, match="4097 x 4097"):
            _frame(2046.0, 1.0, 2, 2)
        assert len(_frame(125.0, 1.0, 2, 3)[0]) == 255

    def test_oversized_shapes_raise_before_allocating(self):
        with pytest.raises(CovergeoError, match="257 x 257 x 257"):
            ball3(126.0)
        with pytest.raises(CovergeoError, match="exceeds the limit"):
            disk(1.0, h=1e-9)
        with pytest.raises(CovergeoError, match="inf x inf"):
            disk(1.0, h=1e-320)  # radius / h overflows to infinity

    @pytest.mark.parametrize("h", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_bad_cell_size_is_rejected_before_the_frame(self, h):
        # h = 0 used to end in a ZeroDivisionError and h = nan in an
        # "inf x inf" frame report
        with pytest.raises(CovergeoError, match="cell size must be finite and positive"):
            disk(8.0, h)


class TestPuncturedShapes:
    def test_disk_minus_box_counts(self):
        full, holed = disk(32.0), disk_minus_box(32.0, 4.0)
        assert full.same_frame(holed)
        assert full.count - holed.count == 25  # centered box catches a 5x5 block

    def test_disk_minus_disk(self):
        full, holed = disk(32.0), disk_minus_disk(32.0, 8.0)
        assert full.count - holed.count == disk(8.0).count

    def test_disk_minus_cross_arms(self):
        s = disk_minus_cross(32.0, 8.0, 4.0)
        assert s.count < disk(32.0).count
        c = s.dims[0] // 2
        assert not s.mask[c, c]

    def test_box_and_dumbbell(self):
        assert box(20.0).count == 441  # 21x21 centers inside a side-20 square
        db = dumbbell(14.0, 2.0, 44.0)
        c = db.dims[0] // 2
        assert db.mask[c, c]  # the neck is filled
        assert db.count > 2 * disk(14.0).count  # two lobes plus the bar


class TestNegativeFeatureSizes:
    @pytest.mark.parametrize(
        "make,name",
        [
            (lambda: dumbbell(5.0, -1.0, 20.0), "neck_halfwidth"),
            (lambda: dumbbell(5.0, 1.0, -4.0), "center_distance"),
            (lambda: disk_minus_box(5.0, -3.0), "hole_w"),
            (lambda: disk_minus_box(5.0, 3.0, -2.0), "hole_h"),
            (lambda: disk_minus_disk(5.0, -2.0), "hole_radius"),
            (lambda: disk_minus_cross(9.0, -3.0, 2.0), "arm"),
            (lambda: disk_minus_cross(9.0, 3.0, -2.0), "thickness"),
            (lambda: two_disks(5.0, -4.0), "separation"),
            (lambda: dumbbell(5.0, math.nan, 20.0), "neck_halfwidth"),
        ],
    )
    def test_negative_size_raises(self, make, name):
        # each used to drop its feature (or, for two disks, clip the frame)
        with pytest.raises(CovergeoError, match=f"{name} must be nonnegative"):
            make()

    def test_zero_sizes_are_accepted(self):
        # a zero-side box hole still removes the middle cell
        assert disk_minus_box(5.0, 0.0).count == disk(5.0).count - 1
        assert disk_minus_disk(5.0, 0.0).count == disk(5.0).count - 1
        assert dumbbell(5.0, 0.0, 20.0).count > two_disks(5.0, 20.0).count
        assert two_disks(5.0, 0.0).count == disk(5.0).count

    def test_oversized_frame_is_reported_first(self):
        with pytest.raises(CovergeoError, match="exceeds the limit"):
            dumbbell(5.0, -1.0, 1e9)


def test_negative_parameters_rejected():
    with pytest.raises(Exception):
        disk(-1.0)
