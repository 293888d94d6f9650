"""Uniform sampling from grid sets and empirical coverage probabilities.

Sampling uses a counter-based generator keyed by (seed, trial), so the i-th
point of trial t is a pure function of those integers: trials can run in any
order (or in parallel) and reproduce bit-exactly.

Coverage verdicts are exact at grid scale: a set is covered when every true
cell center lies within the probe radius of a sample's cell center.  One
verdict kernel, ``_covered_counts``, serves ``covers``, ``covered_fraction``
and ``estimate_probability``, where a trial draws only indices into the
cells of the sampling domain (the draw ``sample_uniform`` makes before its
in-cell offsets).  The kernel uses the locality the paper's coverage
argument rests on: a box of cells whose diagonal fits in the conservative
radius is covered by any sample inside it.  A box no sample reached is
covered too when one sample in a neighbouring box lies within that radius
of the farthest corner of the box's true cells (a witness).  A distance
transform runs only on a window around the boxes left without either.
Because rasterization can flatter the verdict by up to half a cell
diagonal, every report also carries the conservative verdict at the radius
shrunk by that amount.

Coverage only grows along a ladder of sample counts: trial t's draw of N
points is the start of its draw of N' > N, and a ball union covers at least
what any of its subsets covers.  So ``estimate_ladder`` solves the rungs in
ascending order and, in full mode, reports a trial that covered at both
radii at a smaller rung as covered without drawing or grading it again.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import CovergeoError, EmptySourceError, check_positive_finite
from .grid import GridSet, _edt_sq, _threshold_sq

__all__ = [
    "SampleSet",
    "TrialReport",
    "sample_uniform",
    "covers",
    "covered_fraction",
    "estimate_probability",
    "estimate_ladder",
    "wilson_interval",
    "ladder_csv",
]

_GENERATOR_ID = "philox4x64/key=(seed,trial)"

# two-sided 95% normal quantile, frozen so reports never drift with library internals
_WILSON_Z = 1.959963984540054

# one draw holds at most as many samples as the largest frame holds cells
_MAX_SAMPLES = 1 << 24


@dataclass(frozen=True)
class SampleSet:
    """Points drawn uniformly from a grid set, with the keys that reproduce them."""

    points: np.ndarray  # (N, n) physical coordinates
    cells: np.ndarray  # (N, n) integer indices of the sampled cells
    seed: int
    trial: int
    generator: str = _GENERATOR_ID


@dataclass(frozen=True)
class TrialReport:
    """Aggregate of repeated coverage experiments at one sample count."""

    trials: int
    successes: int
    p_hat: float
    wilson_lo: float
    wilson_hi: float
    n_samples: int
    radius: float
    mode: str
    seed: int
    conservative_successes: int
    fractions: tuple[float, ...] = ()
    bound_value: float | None = None

    @property
    def sound(self) -> bool | None:
        """Wilson upper bound at least the claimed lower bound (if any)."""
        if self.bound_value is None:
            return None
        return self.wilson_hi >= self.bound_value - 1e-9


def _rng(seed: int, trial: int) -> np.random.Generator:
    # an explicit uint64 key: a list would become float64 from 2^63 on
    key = np.array([seed & (2**64 - 1), trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _check_draw(source: GridSet, n_samples: int) -> None:
    if source.is_empty:
        raise EmptySourceError("cannot sample from an empty set")
    if not 1 <= n_samples <= _MAX_SAMPLES:
        raise CovergeoError(f"need 1 to {_MAX_SAMPLES} samples per draw, got N = {n_samples}")


def _draw_rows(n_rows: int, n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """Indices of rows picked i.i.d. uniformly: one draw from ``n_rows`` cells."""
    return rng.integers(0, n_rows, size=n_samples)


def sample_uniform(e: GridSet, n_samples: int, seed: int, trial: int = 0) -> SampleSet:
    """Draw points i.i.d. uniform over the set.

    A true cell is chosen uniformly (all cells share the measure h^n, so the
    uniform-cell draw is already measure-proportional), then a uniform offset
    inside the cell.  Deterministic given (seed, trial, n_samples, set).
    """
    _check_draw(e, n_samples)
    rng = _rng(seed, trial)
    cells = e.true_cells()
    cells = cells[_draw_rows(len(cells), n_samples, rng)]
    offsets = rng.random(size=(n_samples, e.ndim))
    points = np.asarray(e.origin, dtype=np.float64) + (cells + offsets) * e.h
    return SampleSet(points=points, cells=cells, seed=seed, trial=trial)


def _check_coverage(e: GridSet, r: float) -> None:
    check_positive_finite(r, "coverage radius")
    if e.is_empty:
        raise EmptySourceError("coverage of an empty set is undefined")


def _reach(thr: float, ndim: int, cap: int) -> int:
    """Largest k <= cap with ndim * k^2 <= thr, for a squared cell distance thr.

    Cells k apart along each of ndim axes are sqrt(ndim) * k cells apart, so
    this is the widest per-axis offset that still passes the threshold.
    """
    if thr >= ndim * cap * cap:
        return cap
    # ndim * k^2 is an integer, so it is <= thr exactly when it is <= floor(thr)
    return math.isqrt(int(thr) // ndim) if thr >= 0 else 0


def _window(cells: np.ndarray, reach: int) -> tuple[slice, ...]:
    """Bounding box of the true entries of ``cells``, grown by ``reach`` and clipped."""
    window = []
    for axis, size in enumerate(cells.shape):
        rest = tuple(a for a in range(cells.ndim) if a != axis)
        held = np.flatnonzero(cells.any(axis=rest))
        window.append(slice(max(held[0] - reach, 0), min(held[-1] + 1 + reach, size)))
    return tuple(window)


def _box_extents(
    mask: np.ndarray, side: int, grid: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Per box, the lowest and highest cell index of its true cells on each axis.

    Boxes are the side-c tiles of ``mask`` shifted by one tile, so that box
    (k_0, ...) of ``grid`` holds cells [(k - 1)c, kc); both arrays have shape
    (boxes, n) in the flat order of ``grid``, and rows of boxes without a
    true cell hold no meaning.
    """
    n = mask.ndim
    padded = np.pad(mask, [(side, g * side - side - size) for g, size in zip(grid, mask.shape)])
    tiles = padded.reshape([k for g in grid for k in (g, side)])
    tiles = tiles.transpose([*range(0, 2 * n, 2), *range(1, 2 * n, 2)])
    first = np.indices(grid).reshape(n, -1) * side - side
    lo = np.empty((math.prod(grid), n), dtype=np.int64)
    hi = np.empty_like(lo)
    for axis in range(n):
        held = tiles.any(axis=tuple(n + a for a in range(n) if a != axis)).reshape(-1, side)
        lo[:, axis] = first[axis] + held.argmax(axis=1)
        hi[:, axis] = first[axis] + side - 1 - held[:, ::-1].argmax(axis=1)
    return lo, hi


def _witnessed(
    open_box: np.ndarray, domain: np.ndarray, drawn: np.ndarray, drawn_box: np.ndarray,
    lo: np.ndarray, hi: np.ndarray, steps: np.ndarray, thr: float,
) -> np.ndarray:
    """Open boxes whose true cells all lie within ``thr`` (squared) of one drawn cell.

    ``drawn`` indexes rows of ``domain`` and ``drawn_box`` holds their
    boxes; a drawn cell is tried against the open boxes one of ``steps``
    (the flat offsets to the neighbouring boxes) away.  Only drawn cells
    next to an open box are gathered, so the temporaries grow with them,
    never with the open boxes times the draw.
    """
    near = np.zeros_like(open_box)
    near[(np.flatnonzero(open_box)[:, None] - steps).ravel()] = True
    pick = np.flatnonzero(near[drawn_box])
    cells = domain[drawn[pick]]
    target = drawn_box[pick][:, None] + steps
    row, col = np.nonzero(open_box[target])
    target, cells = target[row, col], cells[row]
    far = np.maximum(cells - lo[target], hi[target] - cells)
    seen = np.zeros_like(open_box)
    seen[target[(far * far).sum(axis=1) <= thr]] = True
    return seen


def _covered_counts(
    e: GridSet, domain: np.ndarray, draws: Iterable[np.ndarray], r: float
) -> list[tuple[int, int]]:
    """The coverage verdict: per draw, the true cells of e within r of the drawn cells.

    ``domain`` is an (M, n) array of cells and each draw an index array into
    its rows.  Returns, per draw, the counts at r and at the conservative
    radius r - h*sqrt(n)/2 (0 when that radius is not positive); the set is
    covered at a radius exactly when its count equals ``e.count``.

    The frame is cut into boxes of side c, the largest with n(c-1)^2 at most
    the conservative squared threshold (c = 1 when there is none): any two
    cells of a box are within that radius of each other, so every true cell
    in a box holding a drawn cell is a hit at both radii (at c = 1 the box is
    the drawn cell itself, a hit at r).  Box ids, per-box true-cell counts
    and the bounding rectangle [lo, hi] of each box's true cells are
    computed once per call; a trial marks the boxes of its draw.

    A box left open (true cells, no drawn cell) is first offered witnesses:
    a drawn cell d in a neighbouring box settles it when
    sum_a max((d_a - lo_a)^2, (hi_a - d_a)^2), the farthest squared cell
    distance from d to the rectangle, is at most the conservative
    threshold; then every true cell of the box is a hit at both radii.  The
    step runs only when that threshold is not negative and the trial has
    fewer open boxes than marked ones: with at least as many open boxes as
    marked ones, some box nearly always stays open, and the transform
    below runs anyway.

    The true cells of the boxes still open are settled by one distance
    transform of a window: their bounding box grown by the widest per-axis
    offset that passes the threshold at r.  Every drawn cell within r of an
    open cell lies in that window, so each open cell's nearest source there
    passes either threshold exactly when its nearest in the whole frame
    does, and the counts are the integers a full-frame transform gives.
    """
    _check_coverage(e, r)
    thr = _threshold_sq(r, e.h)
    r_cons = r - e.h * math.sqrt(e.ndim) / 2.0
    thr_cons = _threshold_sq(r_cons, e.h) if r_cons > 0 else -math.inf
    side = _reach(thr_cons, e.ndim, max(e.dims)) + 1
    # the farthest two cells of a box, tested like any other squared distance
    box_dsq = e.ndim * (side - 1) ** 2
    # one empty box around the frame, so a neighbour step never wraps a row
    grid = tuple(-(-size // side) + 2 for size in e.dims)
    box_of = np.ravel_multi_index(np.ix_(*(np.arange(size) // side + 1 for size in e.dims)), grid)
    per_box = np.bincount(box_of[e.mask], minlength=math.prod(grid))
    held = per_box > 0
    domain_box = box_of[tuple(domain.T)]
    witness = thr_cons >= 0
    if witness:
        lo, hi = _box_extents(e.mask, side, grid)
        # flat offsets from a box to its 3^n - 1 neighbours
        offsets = np.array(list(np.ndindex((3,) * e.ndim))) - 1
        strides = np.array([math.prod(grid[a + 1 :]) for a in range(e.ndim)])
        steps = offsets[offsets.any(axis=1)] @ strides
    reach = _reach(thr, 1, max(e.dims))
    n_true = e.count
    counts = []
    for drawn in draws:
        drawn_box = domain_box[drawn]
        marked = np.zeros(len(per_box), dtype=bool)
        marked[drawn_box] = True
        boxed = int(per_box @ marked)
        hit = boxed if box_dsq <= thr else 0
        hit_cons = boxed if box_dsq <= thr_cons else 0
        open_box = held & ~marked
        if boxed < n_true and witness and np.count_nonzero(open_box) < np.count_nonzero(marked):
            seen = _witnessed(open_box, domain, drawn, drawn_box, lo, hi, steps, thr_cons)
            settled = int(per_box @ seen)
            hit += settled
            hit_cons += settled
            boxed += settled
            open_box &= ~seen
        if boxed < n_true:
            open_cells = e.mask & open_box[box_of]
            window = _window(open_cells, reach)
            source = np.zeros(e.dims, dtype=bool)
            source[tuple(domain[drawn].T)] = True
            if source[window].any():
                dsq = _edt_sq(source[window])
                open_cells = open_cells[window]
                hit += int(np.count_nonzero(open_cells & (dsq <= thr)))
                hit_cons += int(np.count_nonzero(open_cells & (dsq <= thr_cons)))
        counts.append((hit, hit_cons))
    return counts


def covers(e: GridSet, s: SampleSet, r: float) -> tuple[bool, bool]:
    """(primary, conservative) verdicts for ball-union coverage of the set.

    Primary: every true cell center within r of a sample's cell center.
    Conservative: same with r shrunk by h*sqrt(n)/2, which dominates the
    worst case of the in-cell sample offset and the covered cell's extent.
    """
    [(hit, hit_cons)] = _covered_counts(e, s.cells, [np.arange(len(s.cells))], r)
    return hit == e.count, hit_cons == e.count


def covered_fraction(e: GridSet, s: SampleSet, r: float) -> float:
    """Fraction of the set's measure within r of the samples (primary metric)."""
    [(hit, _)] = _covered_counts(e, s.cells, [np.arange(len(s.cells))], r)
    return hit / e.count


def wilson_interval(successes: int, trials: int, z: float = _WILSON_Z) -> tuple[float, float]:
    """Two-sided score interval; well behaved at p_hat near 0 and 1."""
    if trials <= 0:
        raise CovergeoError("wilson interval needs at least one trial")
    if not 0 <= successes <= trials:
        raise CovergeoError(f"successes must lie in [0, {trials}], got {successes}")
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials))
    # the score interval always contains p; the min/max against p only
    # repairs float round-off at the endpoints (e.g. successes == trials)
    return max(0.0, min(center - half, p)), min(1.0, max(center + half, p))


def _checked_source(
    e: GridSet, r: float, n_samples: int, trials: int, mode: str, alpha: float,
    sample_from: GridSet | None,
) -> GridSet:
    """The sampling domain of an estimate, once every argument has passed its check."""
    if mode not in ("full", "almost"):
        raise CovergeoError(f"unknown mode {mode!r}")
    if trials < 1:
        raise CovergeoError("need at least one trial")
    if not 0.0 <= alpha <= 1.0:
        raise CovergeoError(f"alpha must lie in [0, 1], got {alpha}")
    source = sample_from if sample_from is not None else e
    if not source.same_frame(e):
        raise CovergeoError("sampling domain lives on a different grid frame")
    _check_draw(source, n_samples)
    _check_coverage(e, r)
    return source


def estimate_probability(
    e: GridSet,
    r: float,
    n_samples: int,
    trials: int,
    seed: int,
    mode: str = "full",
    alpha: float = 0.0,
    sample_from: GridSet | None = None,
    bound_value: float | None = None,
    *,
    settled: set[int] | None = None,
) -> TrialReport:
    """Empirical probability of the coverage event over independent trials.

    ``mode="full"``: a trial succeeds when the ball union covers the whole
    set.  ``mode="almost"``: success when the covered fraction reaches
    1 - alpha.  ``sample_from`` lets the sampling domain differ from the
    covered set (the almost-coverage experiments sample the restricted set
    but grade coverage of the full one).

    ``settled`` is the state ``estimate_ladder`` carries from rung to rung:
    the trials whose stream covered the set at both radii with fewer
    samples.  They count as covered at both radii without a draw, and on
    return the set holds every trial that covered at both radii.
    """
    source = _checked_source(e, r, n_samples, trials, mode, alpha, sample_from)
    cells, n_true = source.true_cells(), e.count
    # full coverage is a covered fraction of 1: hit / n_true >= 1 exactly
    # when hit == n_true, as both are integers below 2**53
    need = 1.0 if mode == "full" else 1.0 - alpha
    todo = [t for t in range(trials) if settled is None or t not in settled]
    draws = (_draw_rows(len(cells), n_samples, _rng(seed, t)) for t in todo)
    counts = [(n_true, n_true)] * trials
    for t, count in zip(todo, _covered_counts(e, cells, draws, r)):
        counts[t] = count
    if settled is not None:
        # the conservative count never exceeds the primary one
        settled.update(t for t in todo if counts[t][1] == n_true)
    fractions = [hit / n_true for hit, _ in counts]
    successes = sum(f >= need for f in fractions)
    conservative = sum(hit_cons / n_true >= need for _, hit_cons in counts)
    lo, hi = wilson_interval(successes, trials)
    return TrialReport(
        trials=trials,
        successes=successes,
        p_hat=successes / trials,
        wilson_lo=lo,
        wilson_hi=hi,
        n_samples=n_samples,
        radius=r,
        mode=mode if mode == "full" else f"almost({alpha:g})",
        seed=seed,
        conservative_successes=conservative,
        fractions=tuple(fractions) if mode == "almost" else (),
        bound_value=bound_value,
    )


@functools.cache
def _draws_nest() -> bool:
    """Whether a draw of N rows is the first N rows of any larger draw of its stream.

    numpy draws bounded integers one after another, so it is, but that is
    its implementation, not its contract.  Checked once per process on
    fixed draws: row counts below and above 2^32 (numpy draws those from
    32-bit and from 64-bit words) and odd sample counts.
    """
    for n_rows in (12345, 2**32 + 5):
        for n_samples in (1, 777):
            short = _draw_rows(n_rows, n_samples, _rng(20, 3))
            long = _draw_rows(n_rows, 2 * n_samples + 1, _rng(20, 3))
            if not np.array_equal(short, long[:n_samples]):
                return False
    return True


def estimate_ladder(
    e: GridSet,
    r: float,
    ladder: Sequence[int],
    trials: int,
    seed: int,
    mode: str = "full",
    alpha: float = 0.0,
    sample_from: GridSet | None = None,
    bound: Callable[[int], float] | None = None,
) -> list[TrialReport]:
    """``estimate_probability`` at every sample count of ``ladder``, in its order.

    ``bound`` maps a sample count to the bound value its report carries.
    Every rung is checked first, in the caller's order; then each distinct
    sample count is solved once, in ascending order.

    In full mode a trial that covered at both radii at a smaller rung is
    reported covered without a new draw or grade.  Trial t draws its rows
    from its own stream, so the first N rows of its draw at N' > N are its
    draw at N; the ball union of a superset covers whatever the subset
    covers.  That prefix property is numpy's implementation, not its
    contract: ``_draws_nest`` checks it once per process, and when it fails
    every rung grades every trial.  Almost mode grades every trial at every
    rung, so each reported fraction comes from the trial's own draw.
    """
    for n_samples in ladder:
        _checked_source(e, r, n_samples, trials, mode, alpha, sample_from)
    settled = set() if mode == "full" and _draws_nest() else None
    reports = {}
    for n_samples in sorted(set(ladder)):
        bound_value = None if bound is None else bound(n_samples)
        reports[n_samples] = estimate_probability(
            e, r, n_samples, trials, seed, mode, alpha, sample_from, bound_value, settled=settled
        )
    return [reports[n_samples] for n_samples in ladder]


def ladder_csv(rows: list[tuple[int, float, TrialReport]]) -> str:
    """CSV table (N, bound, p_hat, wilson_lo, wilson_hi) for plotting."""
    lines = ["N,bound,p_hat,wilson_lo,wilson_hi"]
    for n_samples, bound, rep in rows:
        lines.append(
            f"{n_samples},{bound:.9f},{rep.p_hat:.6f},"
            f"{rep.wilson_lo:.6f},{rep.wilson_hi:.6f}"
        )
    return "\n".join(lines) + "\n"
