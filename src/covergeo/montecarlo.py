"""Uniform sampling from grid sets and empirical coverage probabilities.

Sampling uses a counter-based generator keyed by (seed, trial), so the i-th
point of trial t is a pure function of those integers: trials can run in any
order (or in parallel) and reproduce bit-exactly.

Coverage verdicts are exact at grid scale: a set is covered when every true
cell center lies within the probe radius of a sample's cell center, computed
by one distance transform from the sampled cells.  One verdict kernel,
``_covered_counts``, reads only those cells and serves ``covers``,
``covered_fraction`` and ``estimate_probability``, where a trial draws cell
indices alone (the draw ``sample_uniform`` makes before its in-cell offsets)
and grades them with that kernel.  Because rasterization can flatter the
verdict by up to half a cell diagonal, every report also carries the
conservative verdict at the radius shrunk by that amount.
"""

from __future__ import annotations

import math
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
    return np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), trial]))


def _check_draw(source: GridSet, n_samples: int) -> None:
    if source.is_empty:
        raise EmptySourceError("cannot sample from an empty set")
    if not 1 <= n_samples <= _MAX_SAMPLES:
        raise CovergeoError(f"need 1 to {_MAX_SAMPLES} samples per draw, got N = {n_samples}")


def _draw_cells(cells: np.ndarray, n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """Rows of ``cells`` picked i.i.d. uniformly: the cells of one draw."""
    return cells[rng.integers(0, len(cells), size=n_samples)]


def sample_uniform(e: GridSet, n_samples: int, seed: int, trial: int = 0) -> SampleSet:
    """Draw points i.i.d. uniform over the set.

    A true cell is chosen uniformly (all cells share the measure h^n, so the
    uniform-cell draw is already measure-proportional), then a uniform offset
    inside the cell.  Deterministic given (seed, trial, n_samples, set).
    """
    _check_draw(e, n_samples)
    rng = _rng(seed, trial)
    cells = _draw_cells(e.true_cells(), n_samples, rng)
    offsets = rng.random(size=(n_samples, e.ndim))
    points = np.asarray(e.origin, dtype=np.float64) + (cells + offsets) * e.h
    return SampleSet(points=points, cells=cells, seed=seed, trial=trial)


def _check_coverage(e: GridSet, r: float) -> None:
    check_positive_finite(r, "coverage radius")
    if e.is_empty:
        raise EmptySourceError("coverage of an empty set is undefined")


def _covered_counts(e: GridSet, cells: np.ndarray, r: float) -> tuple[int, int]:
    """The coverage verdict: true cells of e within r of the (N, n) sampled cells.

    Returns the counts at r and at the conservative radius r - h*sqrt(n)/2
    (0 when that radius is not positive); the set is covered at a radius
    exactly when its count equals ``e.count``.  One distance transform per call.
    """
    _check_coverage(e, r)
    r_cons = r - e.h * math.sqrt(e.ndim) / 2.0
    if len(cells) == 0:
        return 0, 0
    source = np.zeros(e.dims, dtype=bool)
    source[tuple(cells.T)] = True
    dsq = _edt_sq(source)[e.mask]
    hit = int(np.count_nonzero(dsq <= _threshold_sq(r, e.h)))
    hit_cons = int(np.count_nonzero(dsq <= _threshold_sq(r_cons, e.h))) if r_cons > 0 else 0
    return hit, hit_cons


def covers(e: GridSet, s: SampleSet, r: float) -> tuple[bool, bool]:
    """(primary, conservative) verdicts for ball-union coverage of the set.

    Primary: every true cell center within r of a sample's cell center.
    Conservative: same with r shrunk by h*sqrt(n)/2, which dominates the
    worst case of the in-cell sample offset and the covered cell's extent.
    """
    hit, hit_cons = _covered_counts(e, s.cells, r)
    return hit == e.count, hit_cons == e.count


def covered_fraction(e: GridSet, s: SampleSet, r: float) -> float:
    """Fraction of the set's measure within r of the samples (primary metric)."""
    hit, _ = _covered_counts(e, s.cells, r)
    return hit / e.count


def wilson_interval(successes: int, trials: int, z: float = _WILSON_Z) -> tuple[float, float]:
    """Two-sided score interval; well behaved at p_hat near 0 and 1."""
    if trials <= 0:
        raise CovergeoError("wilson interval needs at least one trial")
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
    draws = (_draw_cells(cells, n_samples, _rng(seed, t)) for t in range(trials))
    counts = [_covered_counts(e, drawn, r) for drawn in draws]
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
