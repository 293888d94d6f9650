"""Sampling determinism, coverage verdict exactness, interval statistics."""

import math
import warnings

import numpy as np
import pytest
from scipy import stats

from covergeo import (
    GridSet,
    ball3,
    disk,
    estimate_probability,
    ladder_csv,
    sample_uniform,
    two_disks,
    wilson_interval,
)
from covergeo.errors import CovergeoError, EmptySourceError
from covergeo import montecarlo
from covergeo.montecarlo import covered_fraction, covers

from oracles import covered_counts_frame, worst_sample_dsq_brute


class TestSampleUniform:
    def test_bit_exact_reproducibility(self):
        e = disk(16.0)
        a = sample_uniform(e, 500, seed=9, trial=3)
        b = sample_uniform(e, 500, seed=9, trial=3)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.cells, b.cells)

    def test_trials_decorrelated(self):
        e = disk(16.0)
        a = sample_uniform(e, 500, seed=9, trial=0)
        b = sample_uniform(e, 9, trial=1) if False else sample_uniform(e, 500, seed=9, trial=1)
        assert not np.array_equal(a.points, b.points)

    def test_seed_changes_stream(self):
        e = disk(16.0)
        a = sample_uniform(e, 100, seed=1)
        b = sample_uniform(e, 100, seed=2)
        assert not np.array_equal(a.points, b.points)

    def test_points_inside_their_cells(self):
        e = disk(12.0, 0.5)
        s = sample_uniform(e, 2000, seed=4)
        assert e.mask[tuple(s.cells[:, k] for k in range(2))].all()
        lo = np.asarray(e.origin) + s.cells * e.h
        assert (s.points >= lo).all() and (s.points <= lo + e.h).all()

    def test_prefix_property(self):
        # the first k points of a longer draw equal the k-point draw
        e = disk(10.0)
        a = sample_uniform(e, 50, seed=7, trial=2)
        b = sample_uniform(e, 200, seed=7, trial=2)
        assert np.array_equal(a.cells, b.cells[:50])

    def test_uniformity_chi_square(self):
        # ~20 samples per cell; the frozen seed keeps this deterministic
        e = disk(32.0)
        s = sample_uniform(e, 20 * e.count, seed=123, trial=0)
        flat = np.ravel_multi_index((s.cells[:, 0], s.cells[:, 1]), e.dims)
        order = np.ravel_multi_index(tuple(e.true_cells().T), e.dims)
        counts = np.bincount(np.searchsorted(order, flat), minlength=e.count)
        _, pval = stats.chisquare(counts)
        assert pval > 0.001

    def test_empty_set(self):
        with pytest.raises(EmptySourceError):
            sample_uniform(GridSet(np.zeros((5, 5), bool), 1.0), 10, seed=0)

    def test_zero_samples(self):
        with pytest.raises(CovergeoError):
            sample_uniform(disk(5.0), 0, seed=0)

    def test_sample_cap(self):
        # refused before anything is allocated: 2**24 + 1 cells would be 256 MiB
        limit = "16777216 samples per draw, got N = 16777217"
        with pytest.raises(CovergeoError, match=limit):
            sample_uniform(disk(5.0), 2**24 + 1, seed=0)
        with pytest.raises(CovergeoError, match=limit):
            estimate_probability(disk(5.0), r=3.0, n_samples=2**24 + 1, trials=1, seed=0)

    @pytest.mark.parametrize(
        "seed_a, seed_b, same",
        [
            pytest.param(2**63 + 1, 2**63 + 2, False, id="above-2^63"),
            pytest.param(-1, 2**64 - 1, True, id="negative-wraps"),
        ],
    )
    def test_seed_keys_are_exact_uint64(self, seed_a, seed_b, same):
        # a list key turns float64 from 2^63 on, merging nearby seeds
        e = disk(8.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a = sample_uniform(e, 5, seed=seed_a)
            b = sample_uniform(e, 5, seed=seed_b)
        assert np.array_equal(a.cells, b.cells) == same
        assert np.array_equal(a.points, b.points) == same


class TestCovers:
    def test_matches_brute_force_on_20_instances(self):
        rng = np.random.default_rng(500)
        checked = 0
        while checked < 20:
            shape = tuple(rng.integers(8, 20, size=2))
            m = np.zeros(shape, bool)
            m[1:-1, 1:-1] = rng.random((shape[0] - 2, shape[1] - 2)) < rng.uniform(0.3, 0.9)
            if not m.any():
                continue
            e = GridSet(m, 1.0)
            s = sample_uniform(e, int(rng.integers(1, 12)), seed=checked)
            worst = worst_sample_dsq_brute(e.true_cells(), s.cells)
            for r in (1.0, 2.5, math.sqrt(worst), math.sqrt(worst) - 1e-9, 20.0):
                if r <= 0:
                    continue
                primary, conservative = covers(e, s, r)
                assert primary == (worst <= r * r / (e.h * e.h)), (checked, r)
                r_c = r - e.h * math.sqrt(2) / 2
                expect_c = r_c > 0 and worst <= r_c * r_c / (e.h * e.h)
                assert conservative == expect_c, (checked, r)
            checked += 1

    def test_fraction_matches_brute_force(self):
        rng = np.random.default_rng(501)
        for k in range(20):
            m = np.zeros((14, 14), bool)
            m[1:-1, 1:-1] = rng.random((12, 12)) < 0.6
            if not m.any():
                continue
            e = GridSet(m, 1.0)
            s = sample_uniform(e, 5, seed=k)
            d2 = ((e.true_cells()[:, None, :] - s.cells[None, :, :]) ** 2).sum(axis=2).min(axis=1)
            for r in (1.0, 3.0):
                frac = covered_fraction(e, s, r)
                assert frac == (d2 <= r * r).sum() / e.count

    def test_full_coverage_is_fraction_one(self):
        e = disk(8.0)
        s = sample_uniform(e, 40, seed=3)
        r = 6.0
        primary, _ = covers(e, s, r)
        frac = covered_fraction(e, s, r)
        assert primary == (frac == 1.0)

    def test_radius_validation(self):
        e = disk(5.0)
        s = sample_uniform(e, 3, seed=0)
        with pytest.raises(CovergeoError):
            covers(e, s, 0.0)

    @pytest.mark.parametrize("r", [math.nan, math.inf, -1.0])
    def test_non_finite_radius_rejected(self, r):
        e = disk(5.0)
        s = sample_uniform(e, 3, seed=0)
        with pytest.raises(CovergeoError, match="finite and positive"):
            covers(e, s, r)
        with pytest.raises(CovergeoError, match="finite and positive"):
            covered_fraction(e, s, r)
        with pytest.raises(CovergeoError, match="finite and positive"):
            estimate_probability(e, r=r, n_samples=3, trials=3, seed=0)

    def test_empty_set_rejected(self):
        e = disk(5.0)
        s = sample_uniform(e, 3, seed=0)
        empty = e.with_mask(np.zeros(e.dims, dtype=bool))
        with pytest.raises(EmptySourceError):
            covers(empty, s, 2.0)
        with pytest.raises(EmptySourceError):
            covered_fraction(empty, s, 2.0)


def _kernel_case(name):
    """(set, radius, sampling domain) of one exactness case of the verdict kernel."""
    if name == "disk-h0.5":
        e = disk(6.0, 0.5)
        return e, 2.0, e.true_cells()
    if name == "ball3-h0.5":
        e = ball3(3.0, 0.5)
        return e, 1.6, e.true_cells()
    if name == "sub-cell-radius":
        e = disk(9.0, 2.0)
        return e, 1.1, e.true_cells()
    if name == "sample-from-far":
        # samples only in the left disk: a draw of all of it leaves the right
        # disk open with no drawn cell in its window
        e = two_disks(4.0, 12.0, 0.5)
        left = e.true_cells()[:, 1] < e.dims[1] // 2
        return e, 1.5, e.true_cells()[left]
    # true cells in the first interior row and column, so windows clip at the frame
    m = np.zeros((12, 15), dtype=bool)
    m[1, 1:10] = True
    m[1:9, 1] = True
    m[4:8, 5:11] = True
    e = GridSet(m, 0.75)
    if name == "rim":
        return e, 2.0, e.true_cells()
    assert name == "rim-sample-from"
    return e, 2.0, np.argwhere(m & (np.arange(15) < 7))


def _box_side(e, r):
    """Largest c with n(c-1)^2 <= the conservative squared threshold, from the definition."""
    r_cons = r - e.h * math.sqrt(e.ndim) / 2
    side = 1
    while r_cons > 0 and e.ndim * side * side <= (r_cons * r_cons) / (e.h * e.h):
        side += 1
    return side


def _open_boxes(e, drawn_cells, side):
    """Boxes that hold a true cell of e and no drawn cell."""
    boxes = {tuple(c) for c in e.true_cells() // side}
    return len(boxes - {tuple(c) for c in drawn_cells // side})


def _leave_one_box_out(domain, side, boxes):
    """Per box of ``boxes``, the rows of ``domain`` outside it: a draw with that box open."""
    rows = np.arange(len(domain))
    return [rows[(domain // side != box).any(axis=1)] for box in boxes]


def _witness_case(name):
    """(set, radius, sampling domain, draws) of one witness case of the verdict kernel."""
    if name in ("corner-cell", "between-radii"):
        # r = 6, h = 1: boxes of side 4 and a conservative squared threshold
        # of 28.01; box (1, 1) holds cells 4..7 on both axes, and boxes
        # (1, 2), (2, 1) and (2, 2) hold no true cell
        m = np.zeros((15, 15), dtype=bool)
        m[1:14, 1:14] = True
        m[4:12, 8:12] = m[8:12, 4:8] = False
        if name == "corner-cell":
            # a single true cell, at the corner (7, 7)
            m[4:8, 4:8] = False
            m[7, 7] = True
        e = GridSet(m, 1.0)
        # every other box holds one drawn cell, its true cell farthest from
        # (7, 7); then (3, 3) replaces the one of box (0, 0): 32 from (7, 7),
        # inside r and outside the conservative radius.  (8, 8), in an empty
        # box, is 2 from it
        cells = e.true_cells()
        far = {}
        for cell in cells[np.argsort(-((cells - 7) ** 2).sum(axis=1), kind="stable")]:
            far.setdefault(tuple(cell // 4), cell)
        del far[(1, 1)]
        if name == "between-radii":
            far[(0, 0)] = np.array([3, 3])
        else:
            far[(2, 2)] = np.array([8, 8])
        domain = np.array(list(far.values()))
        rows = np.arange(len(domain))
        return e, 6.0, domain, [rows, rows[::-1]]
    if name == "rim-boxes":
        # true cells on the first and last interior rows and columns of a
        # frame that is no multiple of the box side: open boxes sit on the
        # rim, next to the empty boxes around the frame
        m = np.zeros((17, 23), dtype=bool)
        m[1, 1:22] = m[15, 1:22] = True
        m[1:16, 1] = m[1:16, 21] = True
        m[6:11, 6:17] = True
        e, r = GridSet(m, 1.0), 6.0
    elif name == "ball3":
        e, r = ball3(5.0), 5.0
    elif name == "disk-h0.5":
        e, r = disk(6.0, 0.5), 4.0
    else:
        assert name == "domain-outside-e"
        e, r = disk(8.0), 6.0
    domain = e.true_cells()
    if name == "domain-outside-e":
        # samples from a wider set than the covered one, on the same frame
        domain = disk(10.0).true_cells() - 2
    side = _box_side(e, r)
    draws = _leave_one_box_out(domain, side, np.unique(e.true_cells() // side, axis=0))
    rng = np.random.default_rng(801)
    draws += [rng.integers(0, len(domain), size=len(domain) // k) for k in (1, 2, 4, 8, 16)]
    return e, r, domain, draws


class TestVerdictKernel:
    @pytest.mark.parametrize(
        "name",
        ["disk-h0.5", "ball3-h0.5", "sub-cell-radius", "sample-from-far", "rim", "rim-sample-from"],
    )
    def test_counts_match_full_frame_transform(self, name):
        # the box-bucketed counts are the full-frame transform's, draw by draw
        e, r, domain = _kernel_case(name)
        side = _box_side(e, r)
        rows = np.arange(len(domain))
        first_box = e.true_cells()[0] // side
        draws = [rows, rows[(domain // side != first_box).any(axis=1)]]
        rng = np.random.default_rng(800)
        draws += [rng.integers(0, len(domain), size=k) for k in (1, 1, 3, 12, 60)]
        got = montecarlo._covered_counts(e, domain, iter(draws), r)
        assert got == [covered_counts_frame(e, domain[d], r) for d in draws]
        opened = [_open_boxes(e, domain[d], side) for d in draws]
        if len(domain) == e.count:
            assert opened[:2] == [0, 1]
        assert max(opened) >= 2
        if name == "sub-cell-radius":
            assert side == 1 and r < e.h * math.sqrt(2) / 2
        else:
            assert side > 1

    def test_empty_draw_hits_nothing(self):
        e = disk(5.0)
        empty = np.zeros((0, 2), dtype=np.int64)
        assert montecarlo._covered_counts(e, empty, [np.arange(0)], 3.0) == [(0, 0)]

    @pytest.mark.parametrize(
        "name",
        ["corner-cell", "between-radii", "rim-boxes", "ball3", "disk-h0.5", "domain-outside-e"],
    )
    def test_witnessed_boxes_match_full_frame_transform(self, monkeypatch, name):
        # draws dense enough that the witness step runs: it settles some open
        # boxes and leaves others to the transform, and the counts stay the
        # full-frame transform's, draw by draw
        e, r, domain, draws = _witness_case(name)
        seen, transforms = [], []
        witnessed, edt_sq = montecarlo._witnessed, montecarlo._edt_sq

        def recording_witnessed(open_box, *args):
            found = witnessed(open_box, *args)
            seen.append((int(np.count_nonzero(open_box)), int(np.count_nonzero(found))))
            return found

        def recording_edt_sq(source):
            transforms.append(source.shape)
            return edt_sq(source)

        monkeypatch.setattr(montecarlo, "_witnessed", recording_witnessed)
        monkeypatch.setattr(montecarlo, "_edt_sq", recording_edt_sq)
        got = montecarlo._covered_counts(e, domain, iter(draws), r)
        monkeypatch.undo()
        assert got == [covered_counts_frame(e, domain[d], r) for d in draws]
        if name == "between-radii":
            # the one near neighbour reaches the open box at r, not at
            # r - h*sqrt(n)/2, so the transform settles it
            assert seen == [(1, 0)] * 2 and len(transforms) == 2 and got[0][0] > got[0][1]
        elif name == "corner-cell":
            assert seen == [(1, 1)] * 2 and not transforms
        else:
            assert sum(found for _, found in seen) >= 1 and transforms

    def test_no_witness_without_conservative_radius(self, monkeypatch):
        # r - h*sqrt(n)/2 <= 0: no box is settled at both radii, so the
        # witness step must not run, and the counts stay the transform's
        e = disk(9.0, 2.0)
        r, domain = 1.1, e.true_cells()
        assert r <= e.h * math.sqrt(2) / 2

        def no_witness(*args):
            raise AssertionError("witness step ran without a conservative radius")

        monkeypatch.setattr(montecarlo, "_witnessed", no_witness)
        rows = np.arange(len(domain))
        draws = [rows, rows[1:], rows[::2], rows[len(rows) // 2 :]]
        got = montecarlo._covered_counts(e, domain, draws, r)
        assert got == [covered_counts_frame(e, domain[d], r) for d in draws]
        assert all(hit_cons == 0 for _, hit_cons in got)


class TestWilson:
    def test_frozen_quantile(self):
        lo, hi = wilson_interval(95, 100)
        # z is pinned, so these digits are stable
        assert lo == pytest.approx(0.8882495307680808, abs=1e-12)
        assert hi == pytest.approx(0.9784563208456319, abs=1e-12)

    def test_contained_in_unit_interval(self):
        rng = np.random.default_rng(32)
        for _ in range(500):
            t = int(rng.integers(1, 1000))
            s = int(rng.integers(0, t + 1))
            lo, hi = wilson_interval(s, t)
            assert 0.0 <= lo <= s / t <= hi <= 1.0

    def test_edges(self):
        lo, hi = wilson_interval(0, 50)
        assert lo == 0.0 and hi > 0.0
        lo, hi = wilson_interval(50, 50)
        assert hi == 1.0 and lo < 1.0

    def test_width_shrinks_with_trials(self):
        w1 = np.subtract(*wilson_interval(80, 100)[::-1])
        w2 = np.subtract(*wilson_interval(160, 200)[::-1])
        assert w2 < w1

    def test_no_trials(self):
        with pytest.raises(CovergeoError):
            wilson_interval(0, 0)

    @pytest.mark.parametrize("successes", [5, -1])
    def test_successes_outside_the_trials(self, successes):
        # used to end in a raw "math domain error" from the square root
        with pytest.raises(CovergeoError, match=r"successes must lie in \[0, 3\]"):
            wilson_interval(successes, 3)


class TestEstimateProbability:
    def test_full_mode_report(self):
        e = disk(16.0)
        rep = estimate_probability(e, r=18.0, n_samples=30, trials=50, seed=2, bound_value=0.4)
        assert rep.trials == 50
        assert rep.successes + 0 <= 50
        assert rep.p_hat == rep.successes / 50
        assert rep.wilson_lo <= rep.p_hat <= rep.wilson_hi
        assert rep.conservative_successes <= rep.successes
        assert rep.mode == "full"
        assert rep.sound == (rep.wilson_hi >= 0.4 - 1e-9)

    def test_deterministic(self):
        e = disk(16.0)
        a = estimate_probability(e, r=12.0, n_samples=25, trials=40, seed=5)
        b = estimate_probability(e, r=12.0, n_samples=25, trials=40, seed=5)
        assert a == b

    def test_trial_splitting_matches_single_runs(self):
        # trial t of a batch equals an isolated run of that trial
        e = disk(12.0)
        batch = estimate_probability(e, r=9.0, n_samples=12, trials=6, seed=8)
        singles = 0
        for t in range(6):
            s = sample_uniform(e, 12, seed=8, trial=t)
            singles += covers(e, s, 9.0)[0]
        assert batch.successes == singles

    @pytest.mark.parametrize(
        "mode, alpha, shape, restricted",
        [
            pytest.param("full", 0.1, "disk", False, id="full"),
            pytest.param("almost", 0.1, "disk", False, id="almost"),
            pytest.param("almost", 0.0, "disk", False, id="almost-alpha0"),
            pytest.param("full", 0.1, "ball3", False, id="full-ball3"),
            pytest.param("almost", 0.02, "ball3", False, id="almost-ball3"),
            pytest.param("full", 0.1, "disk", True, id="full-sample-from"),
            pytest.param("almost", 0.02, "disk", True, id="almost-sample-from"),
        ],
    )
    def test_report_matches_per_trial_verdicts(self, monkeypatch, mode, alpha, shape, restricted):
        # the trial loop and the single-sample verdicts share one draw and one kernel
        e, r = (disk(10.0), 6.0) if shape == "disk" else (ball3(5.0), 5.0)
        source = e
        if restricted:
            c = e.dims[0] // 2
            m = e.mask.copy()
            m[c - 2 : c + 2, c - 2 : c + 2] = False
            source = e.with_mask(m)
        n, trials = 15, 12
        graded = []
        kernel = montecarlo._covered_counts

        def recording_kernel(e_, domain, draws, r_):
            draws = list(draws)
            graded.extend(domain[d] for d in draws)
            return kernel(e_, domain, draws, r_)

        monkeypatch.setattr(montecarlo, "_covered_counts", recording_kernel)
        rep = estimate_probability(
            e, r=r, n_samples=n, trials=trials, seed=4, mode=mode, alpha=alpha,
            sample_from=source if restricted else None,
        )
        monkeypatch.undo()
        samples = [sample_uniform(source, n, seed=4, trial=t) for t in range(trials)]
        assert len(graded) == trials
        assert all(np.array_equal(g, s.cells) for g, s in zip(graded, samples))
        full = estimate_probability(e, r=r, n_samples=n, trials=trials, seed=4, sample_from=source)
        if mode == "full":
            verdicts = [covers(e, s, r) for s in samples]
            assert rep.successes == sum(p for p, _ in verdicts)
            assert rep.conservative_successes == sum(c for _, c in verdicts)
            assert 0 < rep.successes < trials
            assert rep.fractions == ()
            # alpha only matters in almost mode
            assert rep == full
        else:
            fractions = [covered_fraction(e, s, r) for s in samples]
            r_cons = r - e.h * math.sqrt(e.ndim) / 2
            cons = [covered_fraction(e, s, r_cons) for s in samples]
            assert rep.fractions == tuple(fractions)
            assert rep.successes == sum(f >= 1.0 - alpha for f in fractions)
            assert rep.conservative_successes == sum(f >= 1.0 - alpha for f in cons)
            if alpha == 0.0:
                assert rep.successes == full.successes
                assert rep.conservative_successes == full.conservative_successes

    def test_almost_mode(self):
        e = disk(16.0)
        rep = estimate_probability(
            e, r=10.0, n_samples=20, trials=30, seed=3, mode="almost", alpha=0.05
        )
        assert rep.mode == "almost(0.05)"
        assert len(rep.fractions) == 30
        assert all(0.0 <= f <= 1.0 for f in rep.fractions)
        expected = sum(f >= 0.95 for f in rep.fractions)
        assert rep.successes == expected

    def test_almost_dominates_full(self):
        e = disk(16.0)
        full = estimate_probability(e, r=10.0, n_samples=20, trials=30, seed=3)
        almost = estimate_probability(
            e, r=10.0, n_samples=20, trials=30, seed=3, mode="almost", alpha=0.02
        )
        assert almost.successes >= full.successes

    def test_sample_from_restricted_domain(self):
        e = disk(16.0)
        m = e.mask.copy()
        m[16:20, 16:20] = False
        a = e.with_mask(m)
        rep = estimate_probability(
            e, r=14.0, n_samples=30, trials=10, seed=1, mode="almost", alpha=0.02, sample_from=a
        )
        assert rep.trials == 10
        # the sampling domain is checked before the sample count and the radius
        with pytest.raises(EmptySourceError):
            estimate_probability(
                e, r=math.nan, n_samples=0, trials=10, seed=1,
                sample_from=e.with_mask(np.zeros(e.dims, bool)),
            )

    def test_frame_mismatch(self):
        with pytest.raises(CovergeoError):
            estimate_probability(disk(16.0), r=5.0, n_samples=3, trials=2, seed=0, sample_from=disk(16.0, 0.5))

    @pytest.mark.parametrize("alpha", [math.nan, -0.1, 1.5])
    def test_alpha_validation(self, alpha):
        # a NaN alpha used to fail every almost-coverage trial silently
        with pytest.raises(CovergeoError, match="alpha"):
            estimate_probability(
                disk(8.0), r=6.0, n_samples=20, trials=3, seed=0, mode="almost", alpha=alpha
            )

    def test_mode_validation(self):
        with pytest.raises(CovergeoError):
            estimate_probability(disk(8.0), r=5.0, n_samples=3, trials=2, seed=0, mode="weird")

    @pytest.mark.parametrize("n_samples,successes", [(40, 6), (80, 81)])
    def test_mid_probability_rungs_match_frame_oracle(self, n_samples, successes):
        # rungs of `cover --mask disk64 --delta 8 --n-ladder 20,40,80,160
        # --trials 100 --seed 3` where coverage neither always nor never
        # happens, so a verdict that over- or under-reports coverage moves
        # p_hat; graded draw by draw against a full-frame transform
        e, r, seed, trials = disk(64.0), 24.0, 3, 100
        rep = estimate_probability(e, r=r, n_samples=n_samples, trials=trials, seed=seed)
        cells = e.true_cells()
        draws = [montecarlo._draw_rows(len(cells), n_samples, montecarlo._rng(seed, t))
                 for t in range(trials)]
        frame = [covered_counts_frame(e, cells[d], r) for d in draws]
        assert montecarlo._covered_counts(e, cells, draws, r) == frame
        assert rep.successes == sum(hit == e.count for hit, _ in frame) == successes
        assert rep.conservative_successes == sum(hc == e.count for _, hc in frame)

    def test_no_bound_no_soundness(self):
        rep = estimate_probability(disk(8.0), r=9.0, n_samples=5, trials=3, seed=0)
        assert rep.sound is None


def _recorded_draws(monkeypatch):
    """Install a kernel that records how many draws each call grades."""
    graded = []
    kernel = montecarlo._covered_counts

    def recording_kernel(e_, domain, draws, r_):
        draws = list(draws)
        graded.append(len(draws))
        return kernel(e_, domain, draws, r_)

    monkeypatch.setattr(montecarlo, "_covered_counts", recording_kernel)
    return graded


class TestEstimateLadder:
    @pytest.mark.parametrize(
        "mode, shape, h, restricted, ladder",
        [
            pytest.param("full", "disk", 1.0, False, (20, 21, 30, 31, 60), id="full"),
            pytest.param("full", "disk", 0.5, True, (30, 15, 60, 15), id="full-h0.5-sample-from"),
            pytest.param("full", "disk", 2.0, False, (4, 8, 16, 17), id="full-h2"),
            pytest.param("full", "ball3", 1.0, False, (12, 20, 21, 40), id="full-ball3"),
            pytest.param("almost", "disk", 1.0, False, (10, 11, 15, 20), id="almost"),
            pytest.param("almost", "ball3", 0.5, True, (80, 40, 160),
                         id="almost-ball3-sample-from"),
        ],
    )
    def test_reports_equal_per_rung_estimates(self, mode, shape, h, restricted, ladder):
        # rungs close together keep trials that covered at r but not at the
        # conservative radius open at the next rung, so carrying a trial
        # that did not cover at both radii would change a report
        e = disk(12.0 / h, h) if shape == "disk" else ball3(5.0 / h, h)
        r = 7.0 if shape == "disk" else 5.0
        source = None
        if restricted:
            m = e.mask.copy()
            c = e.dims[0] // 2
            m[c - 2 : c + 2, c - 2 : c + 2] = False
            source = e.with_mask(m)
        keys = dict(trials=40, seed=6, mode=mode, alpha=0.05, sample_from=source)
        got = montecarlo.estimate_ladder(e, r, ladder, bound=lambda n: 1.0 / n, **keys)
        want = [estimate_probability(e, r, n, bound_value=1.0 / n, **keys) for n in ladder]
        assert got == want
        assert any(0 < rep.successes < rep.trials for rep in got)
        assert any(rep.conservative_successes < rep.successes for rep in got)

    def test_mid_probability_ladder_carries_only_covered_trials(self, monkeypatch):
        # the `cover` ladder of TestCover::test_mid_probability_ladder,
        # unsorted and with a repeated rung: trials fail at low rungs and
        # are graded again, and only trials that covered at both radii skip
        e, r, trials, seed = disk(64.0), 24.0, 100, 3
        ladder = (160, 20, 80, 40, 80)
        graded = _recorded_draws(monkeypatch)
        got = montecarlo.estimate_ladder(e, r, ladder, trials, seed)
        monkeypatch.undo()
        want = {n: estimate_probability(e, r, n, trials, seed) for n in set(ladder)}
        assert got == [want[n] for n in ladder]
        assert [rep.successes for rep in got] == [100, 0, 81, 6, 81]
        # each distinct rung once, ascending; a trial skips a rung only when
        # it covered at both radii at the rung below
        assert graded == [100, 100, 100 - 4, 100 - 77]

    def test_almost_mode_grades_every_trial(self, monkeypatch):
        # almost mode reports each trial's fraction from its own draw
        e = disk(12.0)
        graded = _recorded_draws(monkeypatch)
        got = montecarlo.estimate_ladder(e, 7.0, (20, 40, 80), 30, 2, mode="almost", alpha=0.05)
        assert graded == [30, 30, 30]
        assert got[-1].successes == 30

    def test_failed_prefix_check_grades_every_rung(self, monkeypatch):
        e, ladder = disk(64.0), (80, 20, 40, 160)
        want = montecarlo.estimate_ladder(e, 24.0, ladder, 100, 3)
        monkeypatch.setattr(montecarlo, "_draws_nest", lambda: False)
        graded = _recorded_draws(monkeypatch)
        assert montecarlo.estimate_ladder(e, 24.0, ladder, 100, 3) == want
        assert graded == [100] * 4

    def test_prefix_check(self, monkeypatch):
        assert montecarlo._draws_nest.__wrapped__()
        # a generator whose draw depends on its length fails the check
        monkeypatch.setattr(
            montecarlo, "_draw_rows", lambda m, n, rng: rng.integers(0, m, size=n)[::-1]
        )
        assert not montecarlo._draws_nest.__wrapped__()

    def test_every_rung_checked_in_the_callers_order(self):
        # the first bad rung in the caller's order is the one refused, before any work
        e = disk(8.0)
        with pytest.raises(CovergeoError, match="N = 16777218"):
            montecarlo.estimate_ladder(e, 3.0, [5, 2**24 + 2, 2**24 + 1], 2, 0)


def test_ladder_csv_format():
    e = disk(8.0)
    rows = []
    for n in (5, 10):
        rep = estimate_probability(e, r=9.0, n_samples=n, trials=4, seed=0, bound_value=0.5)
        rows.append((n, 0.5, rep))
    text = ladder_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "N,bound,p_hat,wilson_lo,wilson_hi"
    assert len(lines) == 3
    assert text.endswith("\n")
    assert lines[1].startswith("5,0.500000000,")
