"""Exception hierarchy shared by all parkfn modules."""

from __future__ import annotations


class ParkfnError(Exception):
    """Base class for every error raised by this package."""


class LengthMismatch(ParkfnError):
    """Preference sequence and capacity vector have different lengths."""


class DimensionMismatch(ParkfnError):
    """Two lattice paths (or a pair and a weight grid) disagree on width/height."""


class NotIncreasing(ParkfnError):
    """A sequence required to be weakly increasing is not."""


class OutOfRange(ParkfnError):
    """An entry exceeds the geometric range it must fit in."""


class NotParkingFunction(ParkfnError):
    """An operation defined only on parking functions was given a non-member."""


class InconsistentDecomposition(ParkfnError):
    """A decomposition object violates its structural invariants."""


class NonIntegralResult(ParkfnError):
    """A closed-form count evaluated to a non-integer; signals formula misuse."""


class DegenerateGrid(ParkfnError, ValueError):
    """A grid operation that needs p, q >= 1 was asked about a degenerate grid: a bad parameter, hence a ValueError."""


class NonMonotoneWeights(ParkfnError):
    """A weight grid violates componentwise monotonicity."""


class SearchSpaceTooLarge(ParkfnError):
    """An exhaustive enumeration would exceed the configured candidate cap."""
