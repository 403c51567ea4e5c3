"""Two-dimensional vector parking functions over a monotone weight grid.

The grid assigns a weight to every unit east/north edge of the (p, q) lattice
rectangle; a pair of sequences (a, b) belongs to the family when some
monotone path bounds their order statistics strictly, edge by edge.  As the
weights grow in k and in l, an admissible east edge stays admissible further
north and a north edge further east.  So the walk that steps east (north)
whenever it can is the lowest (highest) bounding path, and it exists exactly
when some bounding path does: membership is one O(p + q) walk, primeness two.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Optional, Sequence

from . import exact
from .core import LatticePath, Seq, as_seq, json_ints, shown
from .errors import DegenerateGrid, DimensionMismatch, NonMonotoneWeights


@dataclass(frozen=True)
class WeightMatrix:
    """Node weights z_{k,l} = (u_{k,l}, v_{k,l}) over (0,0) <= (k,l) <= (p,q).

    ``rows[l][k]`` holds the node at (k, l); both channels must be weakly
    increasing in k and in l, which is validated eagerly, except in the
    grids this module builds valid by construction (``_unchecked``).  An
    east edge leaving (k, l) weighs u_{k,l}; a north edge leaving (k, l)
    weighs v_{k,l}.
    """

    p: int
    q: int
    rows: tuple[tuple[tuple[int, int], ...], ...]

    def __post_init__(self) -> None:
        for name in ("p", "q"):  # the one rule for a grid's sizes, read from JSON or not
            if type(value := getattr(self, name)) is not int or value < 0:
                raise ValueError(f"the grid's {name!r} must be an integer >= 0, got {shown(value)}")
        if len(self.rows) != self.q + 1 or any(len(r) != self.p + 1 for r in self.rows):
            raise ValueError(f"weight grid must be ({shown(self.p + 1)}) x ({shown(self.q + 1)})")
        object.__setattr__(self, "rows", tuple(tuple(map(tuple, row)) for row in self.rows))  # lists do not hash
        for l in range(self.q + 1):
            for k in range(self.p + 1):
                uu, vv = self.rows[l][k]
                if type(uu) is not int or type(vv) is not int:  # the oracle kernel casts nodes to int64
                    raise ValueError(f"weights must be ints, got {shown((uu, vv))} at ({k},{l})")
                if uu < 0 or vv < 0:
                    raise ValueError("weights must be non-negative")
                if k > 0 and (uu < self.rows[l][k - 1][0] or vv < self.rows[l][k - 1][1]):
                    raise NonMonotoneWeights(f"weights decrease from ({k - 1},{l}) to ({k},{l})")
                if l > 0 and (uu < self.rows[l - 1][k][0] or vv < self.rows[l - 1][k][1]):
                    raise NonMonotoneWeights(f"weights decrease from ({k},{l - 1}) to ({k},{l})")

    def __hash__(self) -> int:
        """Hashed once: the oracle looks a grid up in its caches several times per count."""
        if (cached := self.__dict__.get("_hash")) is None:
            cached = self.__dict__["_hash"] = hash((self.p, self.q, self.rows))
        return cached

    @classmethod
    def _unchecked(cls, p: int, q: int, rows: tuple[tuple[tuple[int, int], ...], ...]) -> "WeightMatrix":
        """A grid valid by construction, built without the node-by-node check ``__init__`` runs."""
        grid = object.__new__(cls)
        grid.__dict__.update(p=p, q=q, rows=rows)
        return grid

    @property
    def max_u(self) -> int:
        return self.rows[-1][-1][0]

    @property
    def max_v(self) -> int:
        return self.rows[-1][-1][1]

    @classmethod
    def from_json_dict(cls, data: object) -> "WeightMatrix":
        """Parse ``{"p", "q", "nodes"}``; anything but JSON integers raises ValueError, p or q naming the field."""
        nodes = data.get("nodes") if isinstance(data, dict) else None
        if not isinstance(nodes, list) or not all(isinstance(row, list) for row in nodes):
            raise ValueError("a weight grid must be an object whose 'nodes' is an array of rows")
        return cls(data.get("p"), data.get("q"), tuple(tuple(json_ints(node, "a grid node", 2) for node in row) for row in nodes))


@dataclass(frozen=True)
class AffineWeightSpec:
    """Grid defined by (u, v) = (a*k + b*l + s, c*k + d*l + t) on (p, q)."""

    a: int
    b: int
    c: int
    d: int
    s: int
    t: int
    p: int
    q: int

    def __post_init__(self) -> None:
        for name in "abcdstpq":  # the one rule for an affine grid's values, read from JSON or not
            if type(value := getattr(self, name)) is not int or value < 0:
                raise ValueError(f"the affine grid's {name!r} must be an integer >= 0, got {shown(value)}")

    @classmethod
    def from_json_dict(cls, data: object) -> "AffineWeightSpec":
        """Parse ``{"a", ..., "t", "p", "q"}``; anything but JSON integers raises ValueError naming the field."""
        if not isinstance(data, dict):
            raise ValueError(f"an affine grid must be a JSON object, got {data!r}")
        return cls(*(data.get(key) for key in "abcdstpq"))


def affine_weight_matrix(spec: AffineWeightSpec) -> WeightMatrix:
    """Materialize the affine grid: the spec holds non-negative ints, so the nodes are too, weakly increasing in k and l."""
    rows = tuple(
        tuple(
            (spec.a * k + spec.b * l + spec.s, spec.c * k + spec.d * l + spec.t)
            for k in range(spec.p + 1)
        )
        for l in range(spec.q + 1)
    )
    return WeightMatrix._unchecked(spec.p, spec.q, rows)


@dataclass(frozen=True)
class BoundednessWitness:
    """A bounding path together with its east/north weight sequences."""

    path: LatticePath
    east_weights: Seq
    north_weights: Seq


def _closed_order_statistics(a: Seq, b: Seq, weights: WeightMatrix) -> tuple[list[int], list[int]]:
    """Sorted a and b, closed by the sentinels max_u and max_v: no edge admits them, so walks stay on the grid."""
    max_u, max_v = weights.rows[-1][-1]
    return [*sorted(a), max_u], [*sorted(b), max_v]


def check_prime_shape(p: int, q: int) -> None:
    """The rule for primes on a grid, for the predicates, the closed forms and the oracle: p, q >= 1.  A grid's p and
    q are ints >= 0, so the refusal (DegenerateGrid, a ValueError) names the first that is 0."""
    if p < 1 or q < 1:
        raise DegenerateGrid(f"primeness needs {'p' if p < 1 else 'q'} >= 1, got 0")


def check_pair_shape(a: Sequence[int], b: Sequence[int], p: int, q: int) -> None:
    """Raise DimensionMismatch unless the pair (a, b) fits a p x q grid."""
    if len(a) != p or len(b) != q:
        raise DimensionMismatch(f"pair has shape ({len(a)},{len(b)}), grid is ({p},{q})")


def is_u_pf(a: Sequence[int], b: Sequence[int], weights: WeightMatrix) -> tuple[bool, Optional[BoundednessWitness]]:
    """Decide membership and, when bounded, return a witness path.

    An admissible east edge stays admissible further north (u grows in l),
    so the walk that steps east whenever it can stays weakly east of every
    bounding path and gets stuck only when none exists.  Its path is the
    witness: the lexicographically first bounding path, with E < N.
    """
    aa, bb = as_seq(a), as_seq(b)
    check_pair_shape(aa, bb, weights.p, weights.q)
    sa, sb = _closed_order_statistics(aa, bb, weights)
    rows, word, east_weights, north_weights = weights.rows, [], [], []
    k = l = 0
    for _ in range(weights.p + weights.q):
        u, v = rows[l][k]
        if sa[k] < u:
            k += 1
            word.append("E")
            east_weights.append(u)
        elif sb[l] < v:
            l += 1
            word.append("N")
            north_weights.append(v)
        else:
            return False, None
    return True, BoundednessWitness(LatticePath("".join(word)), tuple(east_weights), tuple(north_weights))


def prime_weight_transform(weights: WeightMatrix) -> WeightMatrix:
    """Reindexed grid U' whose plain members are exactly the U-prime pairs.

    A node of U' takes its u from a node of U at or below it and its v from
    one at or west of it, moving with it along each axis, so U' is as
    monotone as U and needs no check.
    """
    p, q, rows = weights.p, weights.q, weights.rows
    check_prime_shape(p, q)

    def node(k: int, l: int) -> tuple[int, int]:
        """u from (k, l-1) and v from (k-1, l); on the axes, u from (k, 0) and v from (0, l)."""
        k_v, l_u = (k - 1, l - 1) if k and l else (0, 0)
        return rows[l_u][k][0], rows[l][k_v][1]

    return WeightMatrix._unchecked(p, q, tuple(tuple(node(k, l) for k in range(p + 1)) for l in range(q + 1)))


def is_u_prime(a: Sequence[int], b: Sequence[int], weights: WeightMatrix, method: str = "direct") -> bool:
    """Decide primeness: two bounding paths meeting only at the grid corners.

    ``direct`` walks in lockstep the lowest bounding path (east first) and,
    by the mirror of :func:`is_u_pf`'s argument, the highest (north first).
    Every bounding path lies between them, so two with disjoint interiors
    exist exactly when the walk from (0, 0) first meets at (p, q), the lowest
    strictly east of the highest on every interior anti-diagonal.  ``transform`` tests membership on the reindexed grid.
    """
    aa, bb = as_seq(a), as_seq(b)
    p, q = weights.p, weights.q
    check_prime_shape(p, q)
    check_pair_shape(aa, bb, p, q)
    if method == "transform":
        return is_u_pf(aa, bb, prime_weight_transform(weights))[0]
    if method != "direct":
        raise ValueError(f"unknown method {method!r}")
    return _meeting(*_closed_order_statistics(aa, bb, weights), weights.rows, 0, 0) == (p, q)


def _meeting(sa: list[int], sb: list[int], rows, k: int, l: int) -> Optional[tuple[int, int]]:
    """The first node past (k, l) where the highest bounding path from (k, l) meets the lowest, both walked one
    anti-diagonal at a time over the closed order statistics; None once the lowest is stuck, as it is at (p, q)."""
    k_low, l_low, k_high, l_high = k, l, k, l
    while True:
        u, v = rows[l_low][k_low]
        if sa[k_low] < u:
            k_low += 1
        elif sb[l_low] < v:
            l_low += 1
        else:
            return None
        # north when it can, else east: the lowest walk, never west of this one, went east from column k_high
        # at this row or below, so east is admissible here
        if sb[l_high] < rows[l_high][k_high][1]:
            l_high += 1
        else:
            k_high += 1
        if k_low == k_high:
            return k_low, l_low


# ---------------------------------------------------------------------------
# Closed-form counts for affine grids
# ---------------------------------------------------------------------------


def count_affine_pf(spec: AffineWeightSpec) -> int:
    """Number of pairs bounded by the affine grid; its values as ``AffineWeightSpec`` asks."""
    return _affine_count(spec, exact.power, 1)


def count_affine_ipf(spec: AffineWeightSpec) -> int:
    """Number of increasing pairs bounded by the affine grid; its values as ``AffineWeightSpec`` asks."""
    return _affine_count(spec, _rising, factorial(spec.p) * factorial(spec.q))


def count_affine_ppf(spec: AffineWeightSpec) -> int:
    """Number of prime pairs for the affine grid, with 0^0 = 1; p, q as ``check_prime_shape`` asks."""
    return _affine_prime_count(spec, exact.power, 1)


def count_affine_ippf(spec: AffineWeightSpec) -> int:
    """Number of increasing prime pairs for the affine grid; p, q as ``check_prime_shape`` asks."""
    return _affine_prime_count(spec, _rising, factorial(spec.p) * factorial(spec.q))


def _rising(x: int, n: int) -> int:
    """(x+1)^(n), the rising factorial that takes the place of x^n in the increasing counts."""
    return exact.rising_factorial(x + 1, n)


def _affine_count(spec: AffineWeightSpec, power, divisor: int) -> int:
    """The pf form with x^n written ``power(x, n)``, divided by ``divisor``.

    With an empty side the prefactor holds that side's factor: at q = 0 it
    is s(t + cp), which cancels (t + cp)^(-1), and at p = 0 it is t(s + bq).
    What is left is the one-dimensional form lead * x^(n-1) of the other
    side; p = q = 0 counts the single empty pair.
    """
    a, b, c, d, s, t, p, q = spec.a, spec.b, spec.c, spec.d, spec.s, spec.t, spec.p, spec.q
    if p == 0 and q == 0:
        return 1
    if q == 0 or p == 0:
        lead, x, n = (s, s + a * p, p) if q == 0 else (t, t + d * q, q)
        value = lead * power(x, n - 1)
    else:
        value = (s * t + t * b * q + s * c * p) * power(s + a * p + b * q, p - 1) * power(t + c * p + d * q, q - 1)
    return exact.as_integer(value, divisor)


def _affine_prime_count(spec: AffineWeightSpec, power, divisor: int) -> int:
    """The ppf form with x^n written ``power(x, n)``, divided by ``divisor``."""
    a, b, c, d, s, t, p, q = spec.a, spec.b, spec.c, spec.d, spec.s, spec.t, spec.p, spec.q
    check_prime_shape(p, q)
    x, y = a * p + b * (q - 1), c * (p - 1) + d * q
    sx, x0, ty, y0 = power(s + x, p - 1), power(x, p - 1), power(t + y, q - 1), power(y, q - 1)
    value = (
        (((s + b * q - b) * (t + c * p - c) - b * c * p * q) * ty + c * (b * (p + q - 1) + s - s * p) * y0) * sx
        + (b * (c * (p + q - 1) + t - t * q) * ty - b * c * (p + q - 1) * y0) * x0
    )
    return exact.as_integer(value, divisor)
