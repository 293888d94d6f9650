"""Exception types, and the argument and hypothesis checks that raise them.

Two families matter downstream: plain usage errors (bad arguments, empty
sources, malformed files) and hypothesis violations, where a precondition of
one of the guarantees fails.  The CLI maps hypothesis violations to exit
code 2 and everything else unexpected to exit code 1, so keeping the split
explicit here is load-bearing.
"""

from __future__ import annotations

import math
import operator
import re


class CovergeoError(Exception):
    """Base class for all errors raised by this package."""


def _finite(value: float) -> bool:
    """``math.isfinite``, and False for an integer beyond float range."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def check_positive_finite(value: float, what: str) -> None:
    """Raise CovergeoError unless ``value`` is a finite number > 0.

    A NaN or infinite radius or lambda would otherwise pass every ``<= 0``
    guard and come out as a well-formed but meaningless report.  An integer
    too large for a float is not finite either: no float formula takes it.
    """
    if not (_finite(value) and value > 0):
        raise CovergeoError(f"{what} must be finite and positive, got {value}")


def check_nonnegative_finite(value: float, what: str) -> None:
    """Raise CovergeoError unless ``value`` is a finite number >= 0.

    A NaN passes every ``< 0`` guard, and an infinite measure or radius
    reaches a gate or a kernel as a side no finite report can hold.
    """
    if not (_finite(value) and value >= 0):
        raise CovergeoError(f"{what} must be finite and >= 0, got {value}")


# the cell sizes a frame admits: beyond them h^3 or (r/h)^2 overflows or underflows
_H_RANGE = (1e-100, 1e100)


def check_cell_size(h: float) -> None:
    """Raise GridFormatError unless the cell size ``h`` lies in ``_H_RANGE``."""
    if not _H_RANGE[0] <= h <= _H_RANGE[1]:
        raise GridFormatError(f"cell size h = {h} lies outside [{_H_RANGE[0]:g}, {_H_RANGE[1]:g}]")


class GridFormatError(CovergeoError):
    """Malformed mask file, sidecar header, or inconsistent grid frames."""


class EmptySourceError(CovergeoError):
    """A distance transform was requested from an empty source region."""


class DimensionError(CovergeoError):
    """Operation not supported in this dimension."""


_HOLDS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _relation(inequality: str) -> str:
    """The one relation token of an inequality text."""
    tokens = re.findall(r"<=|>=|<|>", inequality)
    if len(tokens) != 1:
        raise ValueError(f"inequality needs exactly one of <, <=, >, >=: {inequality!r}")
    return tokens[0]


class HypothesisViolation(CovergeoError):
    """A precondition of one of the certified constructions failed.

    The message always contains the failed inequality with the concrete
    numbers, e.g. ``"|A| = 32.0 >= delta^n / n^(n/2) = 32.0"``.  The same
    facts come as fields: ``inequality`` is the required inequality, as
    text with exactly one relation token (``<``, ``<=``, ``>`` or ``>=``),
    ``lhs`` and ``rhs`` are its two sides, and ``margin`` is how far it
    fails: ``max(0, lhs - rhs)`` for ``<`` and ``<=``, ``max(0, rhs - lhs)``
    for ``>`` and ``>=``.  The margin is 0 when the inequality fails by
    equality, or holds only by rounding.
    """

    def __init__(self, message: str, *, inequality: str, lhs: float, rhs: float):
        super().__init__(message)
        below = _relation(inequality).startswith("<")
        self.inequality = inequality
        self.lhs = float(lhs)
        self.rhs = float(rhs)
        self.margin = max(0.0, self.lhs - self.rhs if below else self.rhs - self.lhs)

    @classmethod
    def check(cls, lhs: float, inequality: str, rhs: float, message: str) -> None:
        """Raise this kind of violation unless ``lhs <rel> rhs`` holds, where
        ``<rel>`` is the relation token of ``inequality``."""
        if not _HOLDS[_relation(inequality)](lhs, rhs):
            raise cls(message, inequality=inequality, lhs=lhs, rhs=rhs)

    def fields(self) -> dict[str, str | float]:
        """The structured fields, in a fixed order."""
        return {
            "inequality": self.inequality,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
        }


class ErosionEmptyError(HypothesisViolation):
    """The eroded core is empty at the requested radius."""


class StabilityRadiusExceeded(HypothesisViolation):
    """delta exceeds the opening-stability radius of the set."""


class ResolutionFloorError(HypothesisViolation):
    """delta is below the resolution floor (delta >= 4h required)."""


class RemovedSetTooLarge(HypothesisViolation):
    """measure(A) is too large for the requested delta."""


class SymDiffTooLarge(HypothesisViolation):
    """The flat-norm symmetric difference exceeds delta^2 / 2."""


class DeltaLambdaIncompatible(HypothesisViolation):
    """delta does not satisfy 0 < delta < 1/(5 lambda)."""


class LambdaBelowThreshold(HypothesisViolation):
    """lambda is at or below the empty/nonempty transition of the minimizer."""


class NotCompactlyContained(HypothesisViolation):
    """The removed set is not strictly inside the ambient set."""
