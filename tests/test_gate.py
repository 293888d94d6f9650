"""The one gate primitive of hypothesis violations.

A violation reads the relation token of its inequality text (``<``, ``<=``,
``>`` or ``>=``) and derives its margin from it; ``check`` raises the kind
it is called on unless ``lhs <rel> rhs`` holds.
"""

import math

import pytest

from covergeo.errors import ErosionEmptyError, HypothesisViolation, ResolutionFloorError


@pytest.mark.parametrize("inequality,lhs,rhs,margin", [
    ("x < y", 3.0, 2.0, 1.0),
    ("x <= y", 3.0, 2.0, 1.0),
    ("x > y", 2.0, 3.5, 1.5),
    ("x >= y", 2.0, 3.5, 1.5),
    ("x < y", 2.0, 2.0, 0.0),
    ("x >= y", 2.0, 2.0, 0.0),
])
def test_margin_follows_the_relation(inequality, lhs, rhs, margin):
    err = HypothesisViolation("failed", inequality=inequality, lhs=lhs, rhs=rhs)
    assert err.fields() == {"inequality": inequality, "lhs": lhs, "rhs": rhs, "margin": margin}


@pytest.mark.parametrize("inequality,lhs,rhs", [
    ("inradius > delta", 1.0 + 1e-15, 1.0),
    ("x < y", 1.0 - 1e-15, 1.0),
])
def test_margin_is_zero_where_the_sides_meet_the_relation_by_rounding(inequality, lhs, rhs):
    # an erosion can come out empty while the inradius reads a hair above
    # delta; the violation then fails by nothing, not by a negative amount
    err = ErosionEmptyError("erosion empty", inequality=inequality, lhs=lhs, rhs=rhs)
    assert err.lhs != err.rhs
    assert err.margin == 0.0 and math.copysign(1.0, err.margin) == 1.0


@pytest.mark.parametrize("inequality,lhs,rhs,holds", [
    ("x < y", 1.0, 2.0, True),
    ("x < y", 2.0, 2.0, False),
    ("x <= y", 2.0, 2.0, True),
    ("x <= y", 3.0, 2.0, False),
    ("x > y", 3.0, 2.0, True),
    ("x > y", 2.0, 2.0, False),
    ("x >= y", 2.0, 2.0, True),
    ("x >= y", 1.0, 2.0, False),
    ("x < y", math.nan, 2.0, False),
])
def test_check_raises_unless_the_relation_holds(inequality, lhs, rhs, holds):
    if holds:
        assert ResolutionFloorError.check(lhs, inequality, rhs, "failed") is None
        return
    with pytest.raises(ResolutionFloorError, match="^failed$") as exc:
        ResolutionFloorError.check(lhs, inequality, rhs, "failed")
    assert exc.value.inequality == inequality
    assert exc.value.rhs == rhs and exc.value.margin >= 0


@pytest.mark.parametrize("inequality", ["", "x = y", "0 < x < 1", "x <= y >= z"])
def test_inequality_needs_exactly_one_relation_token(inequality):
    with pytest.raises(ValueError, match="exactly one"):
        HypothesisViolation("failed", inequality=inequality, lhs=0.0, rhs=1.0)
    with pytest.raises(ValueError, match="exactly one"):
        HypothesisViolation.check(0.0, inequality, 1.0, "failed")
