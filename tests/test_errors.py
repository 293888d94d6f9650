"""Structured hypothesis failures: every raise site fills the same four fields.

Each case triggers one raise site of a HypothesisViolation and checks the
inequality it names, its two sides, and that the margin is how far the
inequality fails.
"""

import math

import numpy as np
import pytest

from covergeo import (
    almost_cover_pipeline,
    bound_flatnorm,
    bound_U_minus_A,
    disk,
    eta_delta,
    fill_in_experiment,
    good_partition,
    lambda_threshold,
)
from covergeo.errors import (
    CovergeoError,
    DeltaLambdaIncompatible,
    ErosionEmptyError,
    HypothesisViolation,
    LambdaBelowThreshold,
    NotCompactlyContained,
    RemovedSetTooLarge,
    ResolutionFloorError,
    StabilityRadiusExceeded,
    SymDiffTooLarge,
)
from covergeo.grid import opening_stability_radius
from covergeo.partition import _build_regions


def hole(u, cells):
    m = np.zeros(u.dims, dtype=bool)
    for i, j in cells:
        m[i, j] = True
    return u.with_mask(m)


def centre_hole(u, k):
    c = u.dims[0] // 2
    return hole(u, [(i, j) for i in range(c - 1, c - 1 + k) for j in range(c - 1, c - 1 + k)])


U40 = disk(40.0)
C40 = U40.dims[0] // 2

# (name, call, error type, inequality, lhs, rhs); lhs/rhs None where the
# value is computed by the library and only checked for consistency
SITES = [
    ("flatnorm.lambda", lambda: almost_cover_pipeline(disk(32.0), 0.01, 2.0),
     LambdaBelowThreshold, "lambda > threshold", 0.01, lambda_threshold(disk(32.0))),
    ("flatnorm.residual", lambda: almost_cover_pipeline(disk(64.0), 2.5 / 64.0, 4.5),
     SymDiffTooLarge, "|S_lambda| < delta^2 / 2", 20.0, 10.125),
    ("flatnorm.delta-lambda", lambda: almost_cover_pipeline(disk(32.0), 0.08, 5.0),
     DeltaLambdaIncompatible, "delta < 1/(5 lambda)", 5.0, 1.0 / (5.0 * 0.08)),
    ("flatnorm.hole-outside", lambda: fill_in_experiment(U40, hole(U40, [(1, 1), (1, 2)]), 0.1),
     NotCompactlyContained, "|hole - ambient| <= 0", 2.0, 0.0),
    ("flatnorm.hole-margin", lambda: fill_in_experiment(U40, hole(U40, [(C40, C40 + 40)]), 0.1),
     NotCompactlyContained, "hole margin > h", 1.0, 1.0),
    ("flatnorm.fill-in-scale", lambda: fill_in_experiment(U40, centre_hole(U40, 3), 0.04),
     StabilityRadiusExceeded, "2/lambda < stability radius", 50.0, opening_stability_radius(U40)),
    ("partition.erosion", lambda: _build_regions(disk(8.0), 20.0, 1.0, 2),
     ErosionEmptyError, "inradius > delta", None, 20.0),
    ("partition.uncovered", lambda: _build_regions(disk(16.0), 4.0, 0.0, 2),
     StabilityRadiusExceeded, "cells beyond the growth radius <= 0", None, 0.0),
    ("partition.resolution", lambda: good_partition(disk(32.0), 2.0),
     ResolutionFloorError, "delta >= 4h", 2.0, 4.0),
    ("partition.stability", lambda: good_partition(disk(32.0), 32.5),
     StabilityRadiusExceeded, "delta <= stability radius", 32.5, opening_stability_radius(disk(32.0))),
    ("bounds.removed", lambda: bound_U_minus_A(10, 2, 4.0, 8.0, 100.0),
     RemovedSetTooLarge, "|A| < delta^n / n^(n/2)", 8.0, 8.0),
    ("bounds.residual", lambda: bound_flatnorm(10, 4.0, 9.0, 100.0),
     SymDiffTooLarge, "|S_lambda| < delta^2 / 2", 9.0, 8.0),
    ("grid.eta", lambda: eta_delta(disk(32.0), 33.0),
     ErosionEmptyError, "inradius > delta", None, 33.0),
]


@pytest.mark.parametrize("name,call,kind,inequality,lhs,rhs", SITES, ids=[s[0] for s in SITES])
def test_fields_at_every_raise_site(name, call, kind, inequality, lhs, rhs):
    with pytest.raises(kind) as exc:
        call()
    err = exc.value
    assert isinstance(err, HypothesisViolation)
    assert list(err.fields()) == ["inequality", "lhs", "rhs", "margin"]
    assert err.inequality == inequality
    if lhs is not None:
        assert err.lhs == lhs
    assert err.rhs == rhs
    assert all(isinstance(err.fields()[k], float) for k in ("lhs", "rhs", "margin"))
    assert math.isfinite(err.lhs) and math.isfinite(err.rhs)
    # every site compares its two sides directly, so the margin is their gap
    assert err.margin >= 0
    assert err.margin == pytest.approx(abs(err.lhs - err.rhs), abs=1e-12)


def test_overflowing_fill_in_scale_is_refused_before_the_gate():
    # 2/lambda = inf used to reach the gate and fill lhs and margin with inf,
    # which the strict JSON of the violation line cannot hold
    with pytest.raises(CovergeoError, match="2/lambda overflows") as exc:
        fill_in_experiment(U40, centre_hole(U40, 3), 5e-324)
    assert not isinstance(exc.value, HypothesisViolation)


def test_erosion_sides_are_the_inradius():
    # the centre cell of disk(32) is the farthest from the complement: its
    # nearest outside cell lies at offset (32, 1)
    err = pytest.raises(ErosionEmptyError, eta_delta, disk(32.0), 33.0).value
    assert (err.lhs, err.rhs, err.margin) == (math.sqrt(1025.0), 33.0, 33.0 - math.sqrt(1025.0))

