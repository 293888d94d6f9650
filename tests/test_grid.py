"""Distance transform, morphology, stability radii, perimeter, diameter, IO.

The distance-transform and diameter tests compare against the brute-force
scans in oracles.py; all other numeric expectations were produced by those
oracles or by direct measurement and are frozen here as literals.
"""

import collections
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import covergeo
from covergeo import (
    GridSet,
    closing,
    closing_stability_radius,
    diameter,
    dilate,
    disk,
    disk_minus_box,
    disk_minus_cross,
    disk_minus_disk,
    distance_transform,
    dumbbell,
    erode,
    eta_delta,
    flatnorm_minimize,
    opening,
    opening_stability_radius,
    perimeter,
    read_mask,
    two_disks,
    write_mask,
)
from covergeo.errors import (
    CovergeoError,
    DimensionError,
    EmptySourceError,
    ErosionEmptyError,
    GridFormatError,
    HypothesisViolation,
)
from covergeo import grid
from covergeo.grid import _crofton_weights
from covergeo.shapes import ball3, box

from oracles import diameter_brute, edt_sq_brute, stable_under_opening_refined


@pytest.fixture(params=["direct", "fallback"])
def kernel_path(request, monkeypatch):
    """Run a test on the loaded extension and again on the public fallback.

    The fallback is forced by making the extension loader fail, the way a
    scipy without that file would.
    """
    if request.param == "fallback":
        def no_extension(subpackage, name):
            raise ImportError(f"no {name} file")

        monkeypatch.setattr(grid, "_load_extension", no_extension)
    grid._feature_transform.cache_clear()
    yield request.param
    grid._feature_transform.cache_clear()


def public_nearest(source):
    from scipy.ndimage import distance_transform_edt

    return distance_transform_edt(~source, return_distances=False, return_indices=True)


def rand_set(rng, shape, density, h=1.0):
    """Random mask with an enforced empty rim."""
    m = np.zeros(shape, dtype=bool)
    inner = tuple(slice(1, d - 1) for d in shape)
    m[inner] = rng.random(tuple(d - 2 for d in shape)) < density
    return GridSet(m, h)


# ---------------------------------------------------------------------------
# GridSet basics


class TestGridSet:
    def test_rim_rejected(self):
        m = np.zeros((5, 5), dtype=bool)
        m[0, 2] = True
        with pytest.raises(GridFormatError):
            GridSet(m, 1.0)

    def test_bad_ndim(self):
        with pytest.raises(DimensionError):
            GridSet(np.zeros(4, dtype=bool), 1.0)
        with pytest.raises(DimensionError):
            GridSet(np.zeros((2, 2, 2, 2), dtype=bool), 1.0)

    @pytest.mark.parametrize(
        "h, origin",
        [(0.0, None), (-1.0, None), (math.nan, None), (math.inf, None), (1.0, (0.0, math.nan))],
        ids=["h-zero", "h-negative", "h-nan", "h-inf", "origin-nan"],
    )
    def test_bad_h(self, h, origin):
        # h <= 0 used to raise a raw ValueError, and h = inf gave measure NaN
        with pytest.raises(GridFormatError, match="finite h > 0 and origin"):
            GridSet(np.zeros((4, 4), dtype=bool), h, origin)

    @pytest.mark.parametrize("h", [1e-320, 1e-170, 1e-101, 1.01e100, 1e160, 1e200, 1e308])
    def test_h_outside_the_range(self, h):
        with pytest.raises(GridFormatError, match=re.escape(f"cell size h = {h} lies outside")):
            GridSet(np.zeros((4, 4), dtype=bool), h)

    @pytest.mark.parametrize("h", [1e-100, 1e100])
    def test_h_at_the_ends_of_the_range(self, h):
        m = np.zeros((4, 4, 4), dtype=bool)
        m[1:3, 1:3, 1:3] = True
        assert GridSet(m, h).measure == 8 * h**3

    def test_measure_and_count(self):
        m = np.zeros((6, 6), dtype=bool)
        m[2:4, 2:5] = True
        s = GridSet(m, 0.5)
        assert s.count == 6
        assert s.measure == pytest.approx(6 * 0.25)
        assert not s.is_empty

    def test_cell_centers(self):
        s = GridSet(np.zeros((4, 4), dtype=bool), 2.0, origin=(10.0, -4.0))
        c = s.cell_centers(np.array([[0, 0], [1, 2]]))
        assert np.allclose(c, [[11.0, -3.0], [13.0, 1.0]])

    def test_equality_and_frames(self):
        m = np.zeros((5, 5), dtype=bool)
        m[2, 2] = True
        a = GridSet(m, 1.0)
        b = GridSet(m.copy(), 1.0)
        c = GridSet(m, 2.0)
        assert a == b
        assert a != c
        assert a.same_frame(b)
        assert not a.same_frame(c)


# ---------------------------------------------------------------------------
# distance transform vs brute force


class TestDistanceTransform:
    def test_matches_brute_force_2d(self):
        rng = np.random.default_rng(101)
        for _ in range(60):
            shape = tuple(rng.integers(4, 25, size=2))
            s = rand_set(rng, shape, rng.uniform(0.1, 0.9))
            if s.is_empty:
                continue
            field = distance_transform(s)
            ref = edt_sq_brute(s.mask)
            assert np.array_equal(field.squared_cells, ref)
            assert np.allclose(field.values, s.h * np.sqrt(ref))

    def test_matches_brute_force_3d(self):
        rng = np.random.default_rng(102)
        for _ in range(12):
            shape = tuple(rng.integers(4, 10, size=3))
            s = rand_set(rng, shape, rng.uniform(0.2, 0.8))
            if s.is_empty:
                continue
            field = distance_transform(s)
            assert np.array_equal(field.squared_cells, edt_sq_brute(s.mask))

    def test_from_complement(self):
        rng = np.random.default_rng(103)
        s = rand_set(rng, (15, 17), 0.5)
        field = distance_transform(s, from_complement=True)
        assert np.array_equal(field.squared_cells, edt_sq_brute(~s.mask))
        # zero exactly off the set, positive on it
        assert (field.values[~s.mask] == 0).all()
        assert (field.values[s.mask] > 0).all()

    def test_physical_scaling(self):
        rng = np.random.default_rng(104)
        m = rand_set(rng, (12, 12), 0.4).mask
        f1 = distance_transform(GridSet(m, 1.0))
        f2 = distance_transform(GridSet(m, 0.25))
        assert np.array_equal(f1.squared_cells, f2.squared_cells)
        assert np.allclose(f2.values, 0.25 * f1.values)

    def test_lipschitz_along_axes(self):
        rng = np.random.default_rng(105)
        for _ in range(20):
            s = rand_set(rng, (18, 18), rng.uniform(0.05, 0.6))
            if s.is_empty:
                continue
            v = distance_transform(s).values
            assert (np.abs(np.diff(v, axis=0)) <= s.h + 1e-12).all()
            assert (np.abs(np.diff(v, axis=1)) <= s.h + 1e-12).all()

    def test_empty_source_raises(self):
        for shape in ((5, 5), (5, 7, 4)):
            s = GridSet(np.zeros(shape, dtype=bool), 1.0)
            with pytest.raises(EmptySourceError):
                distance_transform(s)

    def test_kernel_exact_on_unequal_frame_sides(self):
        # unequal sides per axis expose any broadcast slip in the rebuild of
        # squared distances from the nearest-cell indices
        rng = np.random.default_rng(106)
        shapes = [(5, 31), (29, 6), (4, 4), (4, 9, 13), (14, 5, 8), (11, 16, 4)]
        shapes += [tuple(rng.integers(4, 33, size=2)) for _ in range(20)]
        shapes += [tuple(rng.integers(4, 12, size=3)) for _ in range(8)]
        for shape in shapes:
            for density in (0.02, 0.3, 0.8):
                s = rand_set(rng, shape, density)
                if s.is_empty:
                    continue
                for from_complement in (False, True):
                    field = distance_transform(s, from_complement=from_complement)
                    source = ~s.mask if from_complement else s.mask
                    assert field.squared_cells.dtype == np.int64
                    assert np.array_equal(field.squared_cells, edt_sq_brute(source))

    def test_kernel_equals_brute_force_on_seeded_corpus(self, kernel_path):
        rng = np.random.default_rng(108)
        shapes = [(17, 17), (24, 24), (6, 6, 6)]
        shapes += [tuple(rng.integers(2, 30, size=2)) for _ in range(40)]
        shapes += [tuple(rng.integers(2, 10, size=3)) for _ in range(15)]
        for shape in shapes:
            for density in (0.01, 0.2, 0.7):
                source = rng.random(shape) < density
                if not source.any():
                    continue
                assert np.array_equal(grid._edt_sq(source), edt_sq_brute(source))

    def test_nearest_equals_public_transform(self, kernel_path):
        rng = np.random.default_rng(109)
        sources = [rng.random(shape) < density
                   for shape, density in [((257, 190), 0.001), ((150, 301), 0.3),
                                          ((40, 57, 33), 0.01), ((31, 20, 45), 0.5)]]
        # a strided window, as the coverage verdict passes source[window]
        sources.append((rng.random((300, 300)) < 0.02)[7:290:3, 11:250])
        # the 2x-refined frame of the closing probe of disk(32): the set
        # padded by max(dims) + 2, each cell a 3x3 block of refined nodes
        e = disk(32.0)
        comp = ~np.pad(e.mask, max(e.dims) + 2)
        refined = np.zeros(tuple(2 * d + 1 for d in comp.shape), dtype=bool)
        for oi in range(3):
            for oj in range(3):
                refined[oi : oi + 2 * comp.shape[0] : 2, oj : oj + 2 * comp.shape[1] : 2] |= comp
        sources.append(refined)
        for source in sources:
            nearest = grid._nearest(source)
            assert nearest.dtype == np.int32
            assert np.array_equal(nearest, public_nearest(source))

    def test_extension_loads_without_the_package(self):
        grid._feature_transform.cache_clear()
        assert grid._feature_transform() is not grid._public_feature_transform

    def test_loaded_function_that_fails_the_check_falls_back(self, monkeypatch):
        # a transform that swaps the two index planes gets the fixed check
        # mask wrong, so the public function is used instead
        direct = grid._load_extension("ndimage", "_nd_image").euclidean_feature_transform

        class Swapped:
            @staticmethod
            def euclidean_feature_transform(background, sampling, nearest):
                direct(background, sampling, nearest)
                nearest[:] = nearest[::-1].copy()

        monkeypatch.setattr(grid, "_load_extension", lambda subpackage, name: Swapped)
        grid._feature_transform.cache_clear()
        try:
            assert grid._feature_transform() is grid._public_feature_transform
            source = np.random.default_rng(110).random((23, 31)) < 0.1
            assert np.array_equal(grid._nearest(source), public_nearest(source))
        finally:
            grid._feature_transform.cache_clear()

    @pytest.mark.parametrize("shape", [(7, 12), (13, 5), (5, 8, 11), (9, 4, 6)])
    def test_kernel_exact_on_single_cell_and_full_interior(self, shape):
        rng = np.random.default_rng(107)
        single = np.zeros(shape, dtype=bool)
        single[tuple(rng.integers(1, d - 1) for d in shape)] = True
        full = np.zeros(shape, dtype=bool)
        full[tuple(slice(1, d - 1) for d in shape)] = True
        for mask in (single, full):
            s = GridSet(mask, 1.0)
            for from_complement in (False, True):
                field = distance_transform(s, from_complement=from_complement)
                source = ~mask if from_complement else mask
                assert field.squared_cells.dtype == np.int64
                assert np.array_equal(field.squared_cells, edt_sq_brute(source))


# ---------------------------------------------------------------------------
# morphology property suite


class TestMorphology:
    def test_randomized_property_suite(self):
        # 10_000 randomized cases of containment, radius monotonicity, and
        # idempotence; any violation reports the case seed
        rng = np.random.default_rng(2024)
        radii = np.array([1.0, 1.5, 2.0, 2.5, 3.0])
        for case in range(10_000):
            shape = tuple(rng.integers(6, 15, size=2))
            s = rand_set(rng, shape, rng.uniform(0.1, 0.9))
            r1, r2 = np.sort(rng.choice(radii, size=2, replace=False))
            er1, er2 = erode(s, r1), erode(s, r2)
            assert er2.count <= er1.count <= s.count, f"case {case}"
            assert not (er1.mask & ~s.mask).any(), f"case {case}"
            assert not (er2.mask & ~er1.mask).any(), f"case {case}"
            di1, di2 = dilate(s, r1), dilate(s, r2)
            assert di2.count >= di1.count >= s.count, f"case {case}"
            op = opening(s, r1)
            assert not (op.mask & ~s.mask).any(), f"case {case}"  # anti-extensive
            cl = closing(s, r1)
            assert not (s.mask & ~cl.mask).any(), f"case {case}"  # extensive
            if case % 5 == 0:
                # idempotence at the same radius
                assert opening(op, r1) == op, f"case {case}"
                assert closing(cl, r1) == cl, f"case {case}"

    def test_set_monotonicity(self):
        rng = np.random.default_rng(77)
        for case in range(300):
            s2 = rand_set(rng, (14, 14), 0.6)
            drop = rng.random(s2.dims) < 0.3
            s1 = s2.with_mask(s2.mask & ~drop)
            for r in (1.0, 2.0):
                assert not (erode(s1, r).mask & ~erode(s2, r).mask).any(), f"case {case}"
                assert not (dilate(s1, r).mask & ~dilate(s2, r).mask).any(), f"case {case}"

    def test_erosion_strict_dilation_closed(self):
        # a lone cell survives erosion while r stays below its distance to
        # the complement (strict comparison) and clears at exactly that
        # distance; dilation by the center spacing reaches axis neighbors
        # (closed comparison)
        m = np.zeros((7, 7), dtype=bool)
        m[3, 3] = True
        s = GridSet(m, 1.0)
        assert erode(s, 0.5) == s
        assert erode(s, 1.0).is_empty
        d = dilate(s, 1.0)
        assert d.count == 5  # center plus the four axis neighbors, boundary closed

    def test_opening_not_monotone_in_radius(self):
        # known discrete artifact: the rasterized structuring element for
        # r=1 (a 5-cell cross) can remove more than the r=1.5 element (a
        # 3x3 block with corners), so opening need not shrink as r grows
        cells = [
            [0, 1], [0, 3], [0, 4], [1, 0], [1, 2], [1, 5], [1, 7], [2, 1],
            [2, 2], [3, 2], [3, 6], [3, 7], [4, 0], [4, 2], [4, 3], [4, 4],
            [5, 0], [5, 2], [5, 3], [5, 4], [5, 6], [6, 0], [6, 2], [6, 3],
            [6, 4], [6, 5], [7, 1], [7, 2], [7, 6],
        ]
        m = np.zeros((12, 12), dtype=bool)
        for i, j in cells:
            m[i + 2, j + 2] = True
        s = GridSet(m, 1.0)
        assert opening(s, 1.0).count == 5
        assert opening(s, 1.5).count == 9

    def test_dilate_grows_frame_and_preserves_geometry(self):
        m = np.zeros((5, 5), dtype=bool)
        m[2, 2] = True
        s = GridSet(m, 1.0, origin=(0.0, 0.0))
        d = dilate(s, 3.0)
        # same physical center: origin shifted back by the added margin
        c0 = s.cell_centers(np.array([[2, 2]]))[0]
        cd = d.cell_centers(d.true_cells())
        assert np.allclose(cd.mean(axis=0), c0)
        # covered region is the rasterized ball
        assert d.count == 29  # cells with center distance <= 3

    def test_opening_shaves_knife_edge_cells_only(self):
        # the plain composed opening loses the 8 cells whose centers sit at
        # exactly the disk radius (knife-edge ties); everything else stays.
        # the stability radius below uses the solid-cell semantics that
        # credits those cells, which is why it still reports 16.0
        s = disk(16.0)
        o = opening(s, 8.0)
        assert o.count == s.count - 8
        assert not (o.mask & ~s.mask).any()

    def test_closing_keeps_disk(self):
        s = disk(16.0)
        assert closing(s, 8.0) == s


# ---------------------------------------------------------------------------
# stability radii and eta

# sets with holes, necks, corners and noise, so that their probes fail as
# well as pass, on both sides of each coarse rule
STABILITY_CORPUS = {
    "dumbbell": lambda: dumbbell(7.0, 1.5, 20.0),
    "two_disks": lambda: two_disks(8.0, 12.0),
    "disk_minus_box": lambda: disk_minus_box(14.0, 6.0),
    "disk_minus_cross": lambda: disk_minus_cross(12.0, 6.0, 3.0),
    "disk_minus_disk": lambda: disk_minus_disk(12.0, 4.0),
    "disk_half_step": lambda: disk(13.0, 0.5),
    "ball3": lambda: ball3(6.0),
    "speckle_a": lambda: rand_set(np.random.default_rng(1), (20, 20), 0.7),
    "speckle_b": lambda: rand_set(np.random.default_rng(2), (24, 18), 0.85),
    # three lone cells: their closing frame holds a probe that passes only
    # through the fallback, which denser sets almost never reach
    "speckle_c": lambda: rand_set(np.random.default_rng(38), (12, 12), 0.03),
    "speckle_d": lambda: rand_set(np.random.default_rng(4), (10, 10, 10), 0.8),
}


def probe_frames(s):
    """(frame, mask, comp_dsq, cap) of the opening and the closing bisection.

    The frames are built as ``opening_stability_radius`` and
    ``closing_stability_radius`` build them; every radius index m the
    bisection can probe lies in 2..cap.
    """
    comp_dsq = grid._edt_sq(~s.mask)
    yield "opening", s.mask, comp_dsq, math.isqrt(4 * int(comp_dsq[s.mask].max()) - 1) + 1
    comp = ~np.pad(s.mask, max(s.dims) + 2)
    yield "closing", comp, grid._edt_sq(~comp), 2 * max(s.dims)


Probe = collections.namedtuple("Probe", "name frame m answer oracle verdict")


@pytest.fixture(scope="module")
def corpus_probes():
    """Every radius the corpus bisections can probe, answered three ways.

    ``answer`` is the probe's, ``oracle`` the refined transform's, and
    ``verdict`` the coarse rules': None where the probe falls back to the
    refined transform, "empty core" where no rule is asked.
    """
    probes = []
    for name, build in STABILITY_CORPUS.items():
        for frame, mask, comp_dsq, cap in probe_frames(build()):
            for m in range(2, cap + 1):
                core = mask & (4 * comp_dsq > m * m)
                probes.append(Probe(
                    name,
                    frame,
                    m,
                    grid._stable_under_opening(mask, comp_dsq, m),
                    stable_under_opening_refined(mask, comp_dsq, m),
                    grid._coarse_verdict(mask, core, m) if core.any() else "empty core",
                ))
    return probes


class TestStabilityProbe:
    def test_equals_refined_oracle_at_every_radius(self, corpus_probes):
        assert not [p[:3] for p in corpus_probes if p.answer != p.oracle]

    def test_corpus_reaches_every_outcome(self, corpus_probes):
        # (coarse verdict, oracle answer) -> probes; verdict None is the
        # fallback.  The counts are frozen: a weaker rule that stays correct
        # but settles fewer probes on the coarse frame changes them.
        outcomes = collections.Counter(
            (p.verdict, p.oracle) for p in corpus_probes if p.verdict != "empty core"
        )
        assert outcomes == {(True, True): 295, (False, False): 396, (None, True): 1, (None, False): 23}

    def test_most_closing_probes_skip_the_refined_frame(self, monkeypatch):
        # the flatnorm-reach32 bench minimizers and disk(32) itself: a change
        # that drops the coarse rules runs the refined transform on every probe
        counts = collections.Counter()

        def counted(name, f):
            def wrapper(*args):
                counts[name] += 1
                return f(*args)
            return wrapper

        monkeypatch.setattr(grid, "_stable_under_opening", counted("probes", grid._stable_under_opening))
        monkeypatch.setattr(grid, "_refined_solid_dsq", counted("refined", grid._refined_solid_dsq))
        base = disk(32.0)
        sets = [base] + [flatnorm_minimize(base, lam).sigma for lam in (0.08, 0.125, 0.25)]
        assert [closing_stability_radius(s) for s in sets] == [68.5] * 4
        assert 4 * counts["refined"] <= counts["probes"], counts


class TestStabilityRadii:
    @pytest.mark.parametrize("radius", [8.0, 10.0, 16.0, 20.0, 32.0, 40.0, 64.0])
    def test_disk_opening_stability_is_its_radius(self, radius):
        assert opening_stability_radius(disk(radius)) == radius

    def test_overlapping_disks(self):
        assert opening_stability_radius(two_disks(32.0, 32.0)) == 32.0

    def test_thin_cross_limits_stability(self):
        # arms of half-width 2h pinch the opening scale down to 2.5h
        assert opening_stability_radius(disk_minus_cross(32.0, 8.0, 4.0)) == 2.5

    def test_disk_closing_stability(self):
        assert closing_stability_radius(disk(32.0)) == 68.5

    @pytest.mark.parametrize(
        "name,opening_r,closing_r",
        [
            ("dumbbell", 1.5, 5.5),
            ("two_disks", 8.0, 4.5),
            ("disk_minus_box", 5.0, 1.5),
            ("disk_minus_cross", 2.5, 1.5),
            ("disk_minus_disk", 3.5, 4.0),
            ("disk_half_step", 13.0, 28.25),
            ("ball3", 6.0, 16.5),
            ("speckle_a", 0.0, 0.0),
            ("speckle_b", 0.0, 0.0),
            ("speckle_c", 0.0, 9.0),
            ("speckle_d", 0.0, 0.0),
        ],
    )
    def test_corpus_radii(self, name, opening_r, closing_r):
        s = STABILITY_CORPUS[name]()
        assert opening_stability_radius(s) == opening_r
        assert closing_stability_radius(s) == closing_r

    def test_two_disks_closing_stability(self):
        # the waist of the overlapping pair fills in at small radius
        assert closing_stability_radius(two_disks(32.0, 32.0)) == 5.5

    def test_resolution_independence(self):
        assert opening_stability_radius(disk(32.0, 0.5)) == 32.0

    def test_half_step_resolution(self):
        # radii are probed on the h/2 lattice
        r = opening_stability_radius(disk(8.0))
        assert r * 2 == int(r * 2)

    @pytest.mark.parametrize(
        "delta,expected",
        [(6.0, 6.0827625303), (8.0, 8.0622577483), (12.0, 12.0415945788)],
    )
    def test_eta_disk_values(self, delta, expected):
        assert eta_delta(disk(32.0), delta) == pytest.approx(expected, abs=1e-9)

    def test_eta_dumbbell_reaches_across_neck(self):
        from covergeo import dumbbell

        db = dumbbell(14.0, 2.0, 44.0)
        assert eta_delta(db, 6.0) == 14.0
        assert eta_delta(db, 8.0) == 16.0

    def test_eta_at_least_delta(self):
        rng = np.random.default_rng(55)
        d = disk(20.0)
        for delta in (4.0, 7.0, 13.0):
            assert eta_delta(d, delta) >= delta - 1e-12
        del rng

    def test_eta_empty_core_raises(self):
        with pytest.raises(ErosionEmptyError):
            eta_delta(disk(32.0), 33.0)

    @pytest.mark.parametrize("r", [math.nan, math.inf, -1.0])
    def test_bad_radius_rejected(self, r):
        # NaN erosion and opening used to return the empty set, NaN dilation
        # and closing a raw ValueError, infinite ones an OverflowError, and
        # eta_delta(s, nan) a hypothesis violation
        s = disk(6.0)
        for op in (erode, dilate, opening, closing, eta_delta):
            with pytest.raises(CovergeoError, match="radius must be finite and >= 0") as exc:
                op(s, r)
            assert not isinstance(exc.value, HypothesisViolation), op.__name__

    def test_zero_radius_is_identity(self):
        s = disk(6.0)
        for op in (erode, opening, closing):
            assert op(s, 0.0) == s
        assert np.array_equal(dilate(s, 0.0).mask[1:-1, 1:-1], s.mask)


# ---------------------------------------------------------------------------
# perimeter and diameter


class TestPerimeter:
    @pytest.mark.parametrize(
        "radius,frozen",
        [(8.0, 50.816422), (32.0, 202.136224), (64.0, 403.592609)],
    )
    def test_disk_perimeter(self, radius, frozen):
        p = perimeter(disk(radius))
        assert p == pytest.approx(frozen, abs=1e-5)
        assert abs(p - 2 * math.pi * radius) / (2 * math.pi * radius) < 0.02

    def test_box_perimeter(self):
        p = perimeter(box(20.0))
        assert p == pytest.approx(80.980553, abs=1e-5)
        assert abs(p - 80.0) / 80.0 < 0.02

    def test_ball3_surface(self):
        sp = perimeter(ball3(10.0))
        ref = 4 * math.pi * 100.0
        assert abs(sp - ref) / ref < 0.02

    def test_additive_for_distant_components(self):
        td = two_disks(24.0, 70.0)
        single = perimeter(disk(24.0))
        assert perimeter(td) == pytest.approx(2 * single, rel=1e-9)

    def test_empty_and_scaling(self):
        assert perimeter(GridSet(np.zeros((5, 5), dtype=bool), 1.0)) == 0.0
        m = disk(12.0).mask
        assert perimeter(GridSet(m, 0.5)) == pytest.approx(
            0.5 * perimeter(GridSet(m, 1.0)), rel=1e-12
        )

    def test_weight_table(self):
        wt = _crofton_weights(2, 1.0)
        assert len(wt) == 8
        assert all(w > 0 for w in wt.values())
        # an isolated cell crosses each direction class twice
        m = np.zeros((5, 5), dtype=bool)
        m[2, 2] = True
        assert perimeter(GridSet(m, 1.0)) == pytest.approx(2 * sum(wt.values()), rel=1e-12)


class TestDiameter:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(300)
        for _ in range(20):
            k = int(rng.integers(1, 200))
            cells = rng.integers(0, 40, size=(k, 2))
            assert diameter(cells, 1.0) == pytest.approx(diameter_brute(cells, 1.0), rel=1e-12)

    def test_large_family_matches_brute_force(self):
        rng = np.random.default_rng(301)
        cells = rng.integers(0, 60, size=(900, 2))
        assert diameter(cells, 1.0) == pytest.approx(diameter_brute(cells, 1.0), rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    def test_seeded_corpus_equals_brute_force(self, n):
        # line-end filtering must leave the integer maximum untouched, so
        # the two agree exactly; h is a power of two, so scaling is exact too
        rng = np.random.default_rng(310 + n)
        for trial in range(60):
            k = int(rng.integers(1, 1200))
            kind = trial % 4
            if kind == 0:  # scattered, negative coordinates included
                cells = rng.integers(-40, 40, size=(k, n))
            elif kind == 1:  # dense, so most cells repeat
                cells = rng.integers(-4, 4, size=(k, n))
            elif kind == 2:  # collinear along a random lattice direction
                step = rng.integers(-3, 4, size=n)
                cells = rng.integers(-50, 50, size=(k, 1)) * step + rng.integers(-90, 90, size=n)
            else:  # a random blob of a small frame, as regions are
                cells = np.argwhere(rng.random((14,) * n) < rng.random()) - 6
                if len(cells) == 0:
                    continue
            h = float(2.0 ** rng.integers(-2, 3))
            assert diameter(cells, h) == diameter_brute(cells, h)

    @pytest.mark.parametrize("budget", [0, 1, 3, 40, None])
    def test_equals_brute_force_at_every_pair_budget(self, monkeypatch, budget):
        # the line ends of the ring and of the ball's surface form more
        # pairs than one pass takes at the default budget, so every budget
        # splits some family into runs of points
        if budget is not None:
            monkeypatch.setattr(grid, "_PAIR_BUDGET", budget)
        rng = np.random.default_rng(320)
        d2 = (np.indices((241, 241)) - 120) ** 2
        families = [
            (np.argwhere(abs(d2.sum(axis=0) - 14400) < 240), 1.0),
            (np.argwhere(ball3(12.0).mask), 0.5),
            (rng.integers(-30, 30, size=(300, 2)), 2.0),
            (rng.integers(-9, 9, size=(250, 3)), 0.25),
            (np.array([[5, -2, 7]]), 1.0),
        ]
        for cells, h in families:
            assert diameter(cells, h) == diameter_brute(cells, h)

    def test_pair_passes_stay_within_the_budget(self):
        # one region of 2000 points forms about 2e6 pairs, some 80 MiB of
        # pair arrays at once; passes of 2^14 pairs keep the peak near 1 MiB
        points = np.random.default_rng(330).integers(0, 10**6, size=(2000, 2))
        tracemalloc.start()
        try:
            (value,) = grid._region_diameters(points, np.array([2000]), 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == diameter_brute(points, 1.0)
        assert peak < 2 * 2**20

    def test_large_family_loads_no_scipy_spatial(self):
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from covergeo.grid import diameter\n"
            "diameter(np.random.default_rng(0).integers(0, 60, size=(900, 2)), 1.0)\n"
            "print([m for m in sys.modules if m.startswith('scipy.spatial')])\n"
        )
        src = os.path.dirname(os.path.dirname(covergeo.__file__))
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "[]"

    def test_collinear_large_family(self):
        # every cell lies on one diagonal, so no lattice line holds two of
        # them and the line-end rule drops none
        cells = np.stack([np.arange(500), np.arange(500)], axis=1)
        assert diameter(cells, 1.0) == pytest.approx(499 * math.sqrt(2) + math.sqrt(2))

    def test_single_cell(self):
        assert diameter(np.array([[3, 4]]), 2.0) == pytest.approx(2.0 * math.sqrt(2))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            diameter(np.zeros((0, 2), dtype=int), 1.0)

    def test_3d(self):
        cells = np.array([[0, 0, 0], [2, 3, 6]])
        assert diameter(cells, 1.0) == pytest.approx(7.0 + math.sqrt(3))


# ---------------------------------------------------------------------------
# mask IO


class TestMaskIO:
    def test_round_trip_2d(self, tmp_path):
        s = disk(9.0, 0.5)
        path = str(tmp_path / "d.pbm")
        write_mask(s, path)
        t = read_mask(path)
        assert t == s

    def test_round_trip_3d(self, tmp_path):
        s = ball3(4.0)
        path = str(tmp_path / "b.pbm")
        write_mask(s, path)
        t = read_mask(path)
        assert t == s

    def test_deterministic_bytes(self, tmp_path):
        s = two_disks(10.0, 12.0)
        p1, p2 = str(tmp_path / "a.pbm"), str(tmp_path / "b.pbm")
        write_mask(s, p1)
        write_mask(s, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_reads_plain_text_bitmap(self, tmp_path):
        path = tmp_path / "t.pbm"
        path.write_bytes(b"P1\n# comment\n3 2\n0 1 0\n1 1 1\n")
        s = read_mask(str(path))
        assert s.count == 4
        # a rim is added for sets that touch the edge
        assert s.dims == (4, 5)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pbm"
        path.write_bytes(b"P7\n3 2\n")
        with pytest.raises(GridFormatError):
            read_mask(str(path))

    def test_truncated(self, tmp_path):
        path = tmp_path / "bad.pbm"
        path.write_bytes(b"P1\n3 2\n0 1\n")
        with pytest.raises(GridFormatError):
            read_mask(str(path))

    @pytest.mark.parametrize(
        "data",
        [
            b"P4\n16 16\n" + b"\x00" * 20,  # truncated binary body
            b"P4\nab 16\n" + b"\x00" * 32,  # non-integer width
            b"P4\n16 -2\n" + b"\x00" * 32,  # negative height
            b"P4\n0 16\n",  # zero width
            b"P1\n3 2\n0 1 0\n1 2 1\n",  # plain digit other than 0 and 1
            b"P4\n" + b"9" * 4301 + b" 16\n",  # more digits than int() converts
        ],
        ids=["truncated-p4", "non-integer-width", "negative-height", "zero-width", "p1-digit-2",
             "4301-digit-width"],
    )
    def test_malformed_bitmap(self, tmp_path, data):
        path = tmp_path / "bad.pbm"
        path.write_bytes(data)
        with pytest.raises(GridFormatError):
            read_mask(str(path))

    @pytest.mark.parametrize(
        "edit",
        [
            ("dims=11,11,11", "dims=11,10,11"),  # 3d dims disagree with the stacked bitmap
            ("dims=11,11,11", "dims=11,11"),  # 3d sidecar with two dims
            ("h=1.0", "h=one"),  # non-numeric cell size
            ("h=1.0", "h=0.0"),  # nonpositive cell size
            ("h=1.0", "h=nan"),  # non-finite cell size
            ("h=1.0", "h=inf"),  # infinite cell size
            ("origin=-5.5,-5.5,-5.5", "origin=-5.5,nan,-5.5"),  # non-finite origin
            ("origin=-5.5,-5.5,-5.5", "origin=-5.5,-5.5,1e400"),  # origin past float range
            ("dims=11,11,11", "dims=11,x,11"),  # non-integer dims
            ("origin=-5.5,-5.5,-5.5", "origin=-5.5,-5.5"),  # origin of the wrong length
        ],
        ids=["dims-mismatch", "dims-2-of-3", "h-text", "h-zero", "h-nan", "h-inf",
             "origin-nan", "origin-overflow", "dims-text", "origin-short"],
    )
    def test_malformed_sidecar(self, tmp_path, edit):
        path = str(tmp_path / "b.pbm")
        write_mask(ball3(3.0), path)
        side = tmp_path / "b.hdr"
        text = side.read_text()
        assert edit[0] in text
        side.write_text(text.replace(edit[0], edit[1]))
        with pytest.raises(GridFormatError):
            read_mask(path)

    @pytest.mark.parametrize("dims", ["121,11", "-1,11,11", "11,11,11,1"])
    def test_3d_sidecar_needs_three_positive_dims(self, tmp_path, dims):
        # with no origin to disagree, two dims used to read a 3d mask back
        # as a 2d frame, and a -1 dim let numpy infer the size
        path = str(tmp_path / "b.pbm")
        write_mask(ball3(3.0), path)
        (tmp_path / "b.hdr").write_text(f"n=3\ndims={dims}\n")
        with pytest.raises(GridFormatError, match="three positive dims"):
            read_mask(path)

    @pytest.mark.parametrize("dims", ["15,14", "14,15", "15,15,1"])
    def test_2d_sidecar_dims_must_match_the_bitmap(self, tmp_path, dims):
        path = str(tmp_path / "d.pbm")
        write_mask(disk(5.0), path)
        side = tmp_path / "d.hdr"
        text = side.read_text()
        assert "dims=15,15\n" in text
        side.write_text(text.replace("dims=15,15\n", f"dims={dims}\n"))
        with pytest.raises(GridFormatError, match="do not match bitmap"):
            read_mask(path)

    @pytest.mark.parametrize("n", ["7", "1", "0", "-3"])
    def test_sidecar_dimension_other_than_2_or_3(self, tmp_path, n):
        path = str(tmp_path / "d.pbm")
        write_mask(disk(5.0), path)
        side = tmp_path / "d.hdr"
        text = side.read_text()
        assert "n=2\n" in text
        side.write_text(text.replace("n=2\n", f"n={n}\n"))
        with pytest.raises(GridFormatError, match="not 2 or 3"):
            read_mask(path)
