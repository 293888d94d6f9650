"""Closed-form coverage-probability lower bounds and their inversion.

Each bound has the shape ``P(cover) >= 1 - sum_i exp(-c_i * N)`` with strictly
positive rate coefficients ``c_i`` derived from region measures; the four
constructors package the standard parameter choices (uniform floor from the
partition radius, per-region measures, floor reduced by a removed set, floor
reduced by a flat-norm residual).  ``invert_for_N`` finds the smallest sample
count that pushes a bound past a target probability, and ``reach_constant``
computes the universal curvature constant used by the minimizer reach check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CovergeoError,
    RemovedSetTooLarge,
    SymDiffTooLarge,
    check_nonnegative_finite,
    check_positive_finite,
)

__all__ = [
    "CoverageBound",
    "ReachConstant",
    "bound_reach",
    "bound_regions",
    "bound_U_minus_A",
    "bound_flatnorm",
    "invert_for_N",
    "reach_constant",
]

# exp(-x) underflows to subnormal/zero around x = 745; past this every term
# is exactly 0 in 64-bit arithmetic and the bound is exactly 1
_UNDERFLOW_X = 745.0


@dataclass(frozen=True)
class CoverageBound:
    """Lower bound N -> P(coverage), of the form 1 - sum_i m_i exp(-c_i N).

    ``rates`` holds (multiplier, coefficient) pairs with every coefficient
    strictly positive, so the bound is nondecreasing in N and tends to 1.
    ``evaluate`` clamps at 0 (small N makes the bound vacuous, not negative);
    ``evaluate_raw`` is the unclamped value for diagnostics.
    """

    kind: str
    m_regions: int
    n: int
    delta: float
    measure_e: float
    rates: tuple[tuple[float, float], ...]
    measure_a: float | None = None
    measure_s_lambda: float | None = None

    def __post_init__(self) -> None:
        if not self.rates:
            raise CovergeoError("bound has no exponential terms")
        for mult, coef in self.rates:
            if not (coef > 0.0) or not (mult > 0.0):
                raise CovergeoError(
                    f"exponent coefficient must be positive, got "
                    f"multiplier {mult}, coefficient {coef}"
                )

    def evaluate_raw(self, n_samples: float) -> float:
        total = 0.0
        for mult, coef in self.rates:
            x = coef * n_samples
            total += 0.0 if x >= _UNDERFLOW_X else mult * math.exp(-x)
        return 1.0 - total

    def evaluate(self, n_samples: float) -> float:
        return max(0.0, self.evaluate_raw(n_samples))

    def underflows_at(self, n_samples: float) -> bool:
        """True when every exponential term underflows to exact zero."""
        return all(coef * n_samples >= _UNDERFLOW_X for _, coef in self.rates)

    def describe(self, n_samples: float) -> dict:
        raw = self.evaluate_raw(n_samples)
        return {
            "kind": self.kind,
            "N": n_samples,
            "value": max(0.0, raw),
            "raw": raw,
            "underflow": self.underflows_at(n_samples),
        }


@dataclass(frozen=True)
class ReachConstant:
    """Universal curvature constant of minimizer boundaries.

    ``c_hat`` is the maximum of the profile function over the open angular
    interval (3*pi/2, 2*pi) and ``theta_star`` the maximizer; minimizer
    boundaries have reach at least ``c_hat / lambda``.
    """

    c_hat: float
    theta_star: float
    profile: tuple[tuple[float, float], ...]


def _check_positive(**kwargs: float) -> None:
    for name, value in kwargs.items():
        check_positive_finite(value, name)


def _delta_power(delta: float, n: int) -> float:
    """``delta**n``, or a CovergeoError naming delta where that overflows."""
    try:
        return delta**n
    except OverflowError:
        raise CovergeoError(f"delta = {delta} is too large: delta^{n} overflows") from None


def bound_reach(m_regions: int, n: int, delta: float, measure_e: float) -> CoverageBound:
    """1 - M exp(-delta^n N / (n^(n/2) |E|)): the uniform-floor bound.

    Valid whenever a partition of E into M regions each of measure at least
    delta^n / n^(n/2) exists; coverage of every region center-ball implies
    coverage of E at radius 3 delta.
    """
    _check_positive(m_regions=m_regions, delta=delta, measure_e=measure_e)
    if n not in (2, 3):
        raise CovergeoError(f"dimension must be 2 or 3, got {n}")
    coef = _delta_power(delta, n) / (n ** (n / 2) * measure_e)
    return CoverageBound(
        kind="reach",
        m_regions=int(m_regions),
        n=n,
        delta=delta,
        measure_e=measure_e,
        rates=((float(m_regions), coef),),
    )


def bound_regions(region_measures, measure_e: float) -> CoverageBound:
    """1 - sum_i exp(-(|R_i|/|E|) N): one term per region, always at least
    as tight as the uniform-floor bound when every region meets the floor."""
    measures = [float(m) for m in region_measures]
    if not measures:
        raise CovergeoError("bound needs at least one region")
    _check_positive(measure_e=measure_e)
    for i, m in enumerate(measures):
        check_positive_finite(m, f"measure of region {i}")
    total = sum(measures)
    if total > measure_e * (1.0 + 1e-9):
        raise CovergeoError(
            f"region measures sum to {total} > measure(E) = {measure_e}"
        )
    rates = tuple((1.0, m / measure_e) for m in measures)
    return CoverageBound(
        kind="union-of-regions",
        m_regions=len(measures),
        n=0,
        delta=0.0,
        measure_e=measure_e,
        rates=rates,
    )


def bound_U_minus_A(
    m_regions: int, n: int, delta: float, measure_a: float, measure_e: float
) -> CoverageBound:
    """1 - M exp(-(delta^n n^(-n/2) - |A|) N / |E|): floor reduced by a
    removed set A, valid while the reduced floor stays positive."""
    _check_positive(m_regions=m_regions, delta=delta, measure_e=measure_e)
    if n not in (2, 3):
        raise CovergeoError(f"dimension must be 2 or 3, got {n}")
    check_nonnegative_finite(measure_a, "measure_a")
    floor = _delta_power(delta, n) / n ** (n / 2)
    RemovedSetTooLarge.check(
        measure_a, "|A| < delta^n / n^(n/2)", floor,
        f"A too large for delta: |A| = {measure_a} >= delta^n / n^(n/2) = {floor}",
    )
    coef = (floor - measure_a) / measure_e
    return CoverageBound(
        kind="U-minus-A",
        m_regions=int(m_regions),
        n=n,
        delta=delta,
        measure_e=measure_e,
        rates=((float(m_regions), coef),),
        measure_a=measure_a,
    )


def bound_flatnorm(
    m_regions: int, delta: float, measure_s_lambda: float, measure_a: float
) -> CoverageBound:
    """1 - M exp(-(delta^2/2 - |S_lambda|) N / |A|): the almost-coverage
    bound, with the floor eaten by the flat-norm residual mass."""
    _check_positive(m_regions=m_regions, delta=delta, measure_a=measure_a)
    check_nonnegative_finite(measure_s_lambda, "measure_s_lambda")
    floor = _delta_power(delta, 2) / 2.0
    SymDiffTooLarge.check(
        measure_s_lambda, "|S_lambda| < delta^2 / 2", floor,
        f"|S_lambda| = {measure_s_lambda} >= delta^2 / 2 = {floor}",
    )
    coef = (floor - measure_s_lambda) / measure_a
    return CoverageBound(
        kind="flatnorm-almost",
        m_regions=int(m_regions),
        n=2,
        delta=delta,
        measure_e=measure_a,
        rates=((float(m_regions), coef),),
        measure_a=measure_a,
        measure_s_lambda=measure_s_lambda,
    )


def invert_for_N(bound: CoverageBound, p_target: float) -> int:
    """Smallest integer N with bound.evaluate(N) >= p_target."""
    if not (0.0 < p_target < 1.0):
        raise CovergeoError(f"p_target must lie in (0, 1), got {p_target}")
    hi = 1
    while bound.evaluate(hi) < p_target:
        hi *= 2
        # positive coefficients reach any target eventually, but one below
        # about log(sum of multipliers / (1 - p_target)) / 2^62 (a tiny
        # delta against |E|) does not reach it at any N up to 2^62
        if hi > 1 << 62:
            raise CovergeoError("bound failed to reach the target probability")
    lo = hi // 2  # evaluate(lo) < p_target (or lo = 0)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if bound.evaluate(mid) >= p_target:
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# reach constant


def _c_profile(theta, cos=math.cos, sin=math.sin):
    """The profile at ``theta``; with numpy's ``cos`` and ``sin``, at every
    entry of an array of thetas."""
    num = 2.0 * cos(theta) - (1.0 + sin(theta)) * (cos(theta) + 2.0)
    return num / (2.0 * (cos(theta) + 1.0))


# points of the dense scan that brackets the peak of the profile
_SCAN_POINTS = 10_000


@functools.cache
def reach_constant() -> ReachConstant:
    """Maximize the boundary-curvature profile over (3*pi/2, 2*pi).

    A dense numpy scan locates the peak, then golden-section refinement on
    ``math`` pins it to machine precision.  The interval endpoints are
    approached from inside (the profile diverges/degenerates at the
    closure).  Computed once per process: the result is frozen and its
    profile a tuple.
    """
    lo, hi = 1.5 * math.pi, 2.0 * math.pi
    eps = (hi - lo) * 1e-9
    scan = lo + eps + (hi - lo - 2 * eps) * np.arange(_SCAN_POINTS) / (_SCAN_POINTS - 1)
    values = _c_profile(scan, np.cos, np.sin)
    k = int(np.argmax(values))
    a = float(scan[max(0, k - 1)])
    b = float(scan[min(_SCAN_POINTS - 1, k + 1)])
    # golden-section search for the maximum on [a, b]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = _c_profile(c), _c_profile(d)
    while b - a > 1e-12:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = _c_profile(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = _c_profile(d)
    theta_star = (a + b) / 2.0
    step = _SCAN_POINTS // 512
    profile = tuple(zip(scan[::step].tolist(), values[::step].tolist()))
    return ReachConstant(
        c_hat=_c_profile(theta_star), theta_star=theta_star, profile=profile
    )
