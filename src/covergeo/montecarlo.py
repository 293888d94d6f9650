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
radius is covered by any sample inside it, so a distance transform runs only
on a window around the boxes no sample reached.  Because rasterization can flatter the verdict by
up to half a cell diagonal, every report also carries the conservative
verdict at the radius shrunk by that amount.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
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
    the drawn cell itself, a hit at r).  Box ids and per-box true-cell counts
    are computed once per call; a trial marks the boxes of its draw and
    settles the true cells of the boxes left open by one distance transform
    of a window: their bounding box grown by the widest per-axis offset that
    passes the threshold at r.  Every drawn cell within r of an open cell
    lies in that window, so each open cell's nearest source there passes
    either threshold exactly when its nearest in the whole frame does, and
    the counts are the integers a full-frame transform gives.
    """
    _check_coverage(e, r)
    thr = _threshold_sq(r, e.h)
    r_cons = r - e.h * math.sqrt(e.ndim) / 2.0
    thr_cons = _threshold_sq(r_cons, e.h) if r_cons > 0 else -math.inf
    side = _reach(thr_cons, e.ndim, max(e.dims)) + 1
    # the farthest two cells of a box, tested like any other squared distance
    box_dsq = e.ndim * (side - 1) ** 2
    boxes = tuple(-(-size // side) for size in e.dims)
    box_of = np.ravel_multi_index(np.ix_(*(np.arange(size) // side for size in e.dims)), boxes)
    per_box = np.bincount(box_of[e.mask], minlength=math.prod(boxes))
    domain_box = box_of[tuple(domain.T)]
    reach = _reach(thr, 1, max(e.dims))
    n_true = e.count
    counts = []
    for drawn in draws:
        marked = np.zeros(len(per_box), dtype=bool)
        marked[domain_box[drawn]] = True
        boxed = int(per_box @ marked)
        hit = boxed if box_dsq <= thr else 0
        hit_cons = boxed if box_dsq <= thr_cons else 0
        if boxed < n_true:
            open_cells = e.mask & ~marked[box_of]
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
) -> TrialReport:
    """Empirical probability of the coverage event over independent trials.

    ``mode="full"``: a trial succeeds when the ball union covers the whole
    set.  ``mode="almost"``: success when the covered fraction reaches
    1 - alpha.  ``sample_from`` lets the sampling domain differ from the
    covered set (the almost-coverage experiments sample the restricted set
    but grade coverage of the full one).
    """
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
    cells, n_true = source.true_cells(), e.count
    # full coverage is a covered fraction of 1: hit / n_true >= 1 exactly
    # when hit == n_true, as both are integers below 2**53
    need = 1.0 if mode == "full" else 1.0 - alpha
    draws = (_draw_rows(len(cells), n_samples, _rng(seed, t)) for t in range(trials))
    counts = _covered_counts(e, cells, draws, r)
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


def ladder_csv(rows: list[tuple[int, float, TrialReport]]) -> str:
    """CSV table (N, bound, p_hat, wilson_lo, wilson_hi) for plotting."""
    lines = ["N,bound,p_hat,wilson_lo,wilson_hi"]
    for n_samples, bound, rep in rows:
        lines.append(
            f"{n_samples},{bound:.9f},{rep.p_hat:.6f},"
            f"{rep.wilson_lo:.6f},{rep.wilson_hi:.6f}"
        )
    return "\n".join(lines) + "\n"
