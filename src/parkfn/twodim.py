"""Two-dimensional vector parking functions over a monotone weight grid.

The grid assigns a weight to every unit east/north edge of the (p, q) lattice
rectangle; a pair of sequences (a, b) belongs to the family when some
monotone path bounds their order statistics strictly, edge by edge.  Because
edge admissibility depends only on the edge's position, boundedness reduces
to plain reachability in the DAG of admissible edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Optional, Sequence

from . import exact
from .core import LatticePath, Seq, as_seq, json_ints, order_statistics
from .errors import DegenerateGrid, DimensionMismatch, NonMonotoneWeights


@dataclass(frozen=True)
class WeightMatrix:
    """Node weights z_{k,l} = (u_{k,l}, v_{k,l}) over (0,0) <= (k,l) <= (p,q).

    ``rows[l][k]`` holds the node at (k, l); both channels must be weakly
    increasing in k and in l, which is validated eagerly.  An east edge
    leaving (k, l) weighs u_{k,l}; a north edge leaving (k, l) weighs v_{k,l}.
    """

    p: int
    q: int
    rows: tuple[tuple[tuple[int, int], ...], ...]

    def __post_init__(self) -> None:
        if self.p < 0 or self.q < 0:
            raise ValueError("grid dimensions must be non-negative")
        if len(self.rows) != self.q + 1 or any(len(r) != self.p + 1 for r in self.rows):
            raise ValueError(f"weight grid must be ({self.p + 1}) x ({self.q + 1})")
        for l in range(self.q + 1):
            for k in range(self.p + 1):
                uu, vv = self.rows[l][k]
                if uu < 0 or vv < 0:
                    raise ValueError("weights must be non-negative")
                if k > 0 and (uu < self.rows[l][k - 1][0] or vv < self.rows[l][k - 1][1]):
                    raise NonMonotoneWeights(f"weights decrease from ({k - 1},{l}) to ({k},{l})")
                if l > 0 and (uu < self.rows[l - 1][k][0] or vv < self.rows[l - 1][k][1]):
                    raise NonMonotoneWeights(f"weights decrease from ({k},{l - 1}) to ({k},{l})")

    def u(self, k: int, l: int) -> int:
        return self.rows[l][k][0]

    def v(self, k: int, l: int) -> int:
        return self.rows[l][k][1]

    @property
    def max_u(self) -> int:
        return self.rows[-1][-1][0]

    @property
    def max_v(self) -> int:
        return self.rows[-1][-1][1]

    def to_json_dict(self) -> dict:
        return {"p": self.p, "q": self.q, "nodes": [[list(node) for node in row] for row in self.rows]}

    @classmethod
    def from_json_dict(cls, data: object) -> "WeightMatrix":
        """Parse ``{"p", "q", "nodes"}``; anything but JSON integers raises ValueError."""
        nodes = data.get("nodes") if isinstance(data, dict) else None
        if not isinstance(nodes, list) or not all(isinstance(row, list) for row in nodes):
            raise ValueError("a weight grid must be an object whose 'nodes' is an array of rows")
        p, q = json_ints([data.get("p"), data.get("q")], "the grid's 'p' and 'q'")
        return cls(p, q, tuple(tuple(json_ints(node, "a grid node", 2) for node in row) for row in nodes))


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
        if min(self.a, self.b, self.c, self.d, self.s, self.t) < 0 or min(self.p, self.q) < 0:
            raise ValueError("affine weight parameters must be non-negative")

    def to_json_dict(self) -> dict:
        return {"a": self.a, "b": self.b, "c": self.c, "d": self.d, "s": self.s, "t": self.t, "p": self.p, "q": self.q}

    @classmethod
    def from_json_dict(cls, data: object) -> "AffineWeightSpec":
        """Parse ``{"a", ..., "t", "p", "q"}``; anything but JSON integers raises ValueError."""
        if not isinstance(data, dict):
            raise ValueError(f"an affine grid must be a JSON object, got {data!r}")
        return cls(*json_ints([data.get(key) for key in "abcdstpq"], "the affine grid's a, b, c, d, s, t, p, q"))


def affine_weight_matrix(spec: AffineWeightSpec) -> WeightMatrix:
    """Materialize the affine grid; monotonicity holds automatically."""
    rows = tuple(
        tuple(
            (spec.a * k + spec.b * l + spec.s, spec.c * k + spec.d * l + spec.t)
            for k in range(spec.p + 1)
        )
        for l in range(spec.q + 1)
    )
    return WeightMatrix(spec.p, spec.q, rows)


@dataclass(frozen=True)
class BoundednessWitness:
    """A bounding path together with its east/north weight sequences."""

    path: LatticePath
    east_weights: Seq
    north_weights: Seq


def _admissible(a: Sequence[int], b: Sequence[int], weights: WeightMatrix):
    """Edge admissibility tables for the sorted pair against the grid."""
    sa, sb = order_statistics(a), order_statistics(b)
    p, q = weights.p, weights.q
    east_ok = [[sa[k] < weights.u(k, l) for l in range(q + 1)] for k in range(p)]
    north_ok = [[sb[l] < weights.v(k, l) for l in range(q)] for k in range(p + 1)]
    return east_ok, north_ok


def _reach_end(east_ok, north_ok, p: int, q: int) -> list[list[bool]]:
    """reach[k][l]: an admissible-edge path exists from (k, l) to (p, q)."""
    reach = [[False] * (q + 1) for _ in range(p + 1)]
    reach[p][q] = True
    for k in range(p, -1, -1):
        for l in range(q, -1, -1):
            if k == p and l == q:
                continue
            ok = False
            if k < p and east_ok[k][l] and reach[k + 1][l]:
                ok = True
            elif l < q and north_ok[k][l] and reach[k][l + 1]:
                ok = True
            reach[k][l] = ok
    return reach


def check_pair_shape(a: Sequence[int], b: Sequence[int], p: int, q: int) -> None:
    """Raise DimensionMismatch unless the pair (a, b) fits a p x q grid."""
    if len(a) != p or len(b) != q:
        raise DimensionMismatch(f"pair has shape ({len(a)},{len(b)}), grid is ({p},{q})")


def is_u_pf(a: Sequence[int], b: Sequence[int], weights: WeightMatrix) -> tuple[bool, Optional[BoundednessWitness]]:
    """Decide membership and, when bounded, return a witness path.

    The witness is normalized to the lexicographically first bounding path in
    the alphabet order E < N, i.e. the walk takes an east step whenever an
    admissible completion still exists.
    """
    aa, bb = as_seq(a), as_seq(b)
    p, q = weights.p, weights.q
    check_pair_shape(aa, bb, p, q)
    east_ok, north_ok = _admissible(aa, bb, weights)
    reach = _reach_end(east_ok, north_ok, p, q)
    if not reach[0][0]:
        return False, None
    word = []
    east_weights = []
    north_weights = []
    k = l = 0
    while (k, l) != (p, q):
        if k < p and east_ok[k][l] and reach[k + 1][l]:
            word.append("E")
            east_weights.append(weights.u(k, l))
            k += 1
        else:
            word.append("N")
            north_weights.append(weights.v(k, l))
            l += 1
    witness = BoundednessWitness(LatticePath("".join(word)), tuple(east_weights), tuple(north_weights))
    return True, witness


def prime_weight_transform(weights: WeightMatrix) -> WeightMatrix:
    """Reindexed grid U' whose plain members are exactly the U-prime pairs."""
    p, q = weights.p, weights.q
    if p < 1 or q < 1:
        raise DegenerateGrid("the prime transform needs p, q >= 1")
    rows = []
    for l in range(q + 1):
        row = []
        for k in range(p + 1):
            if k >= 1 and l >= 1:
                row.append((weights.u(k, l - 1), weights.v(k - 1, l)))
            elif l == 0:
                row.append((weights.u(k, 0), weights.v(0, 0)))
            else:
                row.append((weights.u(0, 0), weights.v(0, l)))
        rows.append(tuple(row))
    return WeightMatrix(p, q, tuple(rows))


def is_u_prime(a: Sequence[int], b: Sequence[int], weights: WeightMatrix, method: str = "direct") -> bool:
    """Decide primeness: two bounding paths meeting only at the grid corners.

    ``direct`` searches for the path pair with a DP over anti-diagonals; two
    monotone paths with disjoint interiors keep a strict left/right order on
    every interior anti-diagonal, so the state is their column pair.
    ``transform`` tests plain membership against the reindexed grid.
    """
    aa, bb = as_seq(a), as_seq(b)
    p, q = weights.p, weights.q
    if p < 1 or q < 1:
        raise DegenerateGrid("primeness is defined for p, q >= 1 only")
    check_pair_shape(aa, bb, p, q)
    if method == "transform":
        return is_u_pf(aa, bb, prime_weight_transform(weights))[0]
    if method != "direct":
        raise ValueError(f"unknown method {method!r}")
    east_ok, north_ok = _admissible(aa, bb, weights)
    # The right path P1 must open with E and close with N, the left path P2
    # the opposite; states on anti-diagonal r are column pairs k1 > k2.
    if not (east_ok[0][0] and north_ok[0][0]):
        return False
    states = {(1, 0)}
    for r in range(1, p + q):
        nxt = set()
        last = r + 1 == p + q
        for k1, k2 in states:
            for k1_next in _moves(k1, r, east_ok, north_ok, p, q):
                for k2_next in _moves(k2, r, east_ok, north_ok, p, q):
                    if last or k1_next > k2_next:
                        nxt.add((k1_next, k2_next))
        states = nxt
        if not states:
            return False
    return (p, p) in states


def _moves(k: int, r: int, east_ok, north_ok, p: int, q: int):
    """Columns reachable on diagonal r+1 from column k on diagonal r."""
    l = r - k
    if 0 <= l <= q:
        if k < p and east_ok[k][l]:
            yield k + 1
        if l < q and north_ok[k][l]:
            yield k


# ---------------------------------------------------------------------------
# Closed-form counts for affine grids
# ---------------------------------------------------------------------------


def count_affine_pf(spec: AffineWeightSpec) -> int:
    """Number of pairs bounded by the affine grid.

    Exact rationals handle the degenerate p = 0 or q = 0 reductions, where an
    exponent of -1 appears; p = q = 0 counts the single empty pair.
    """
    a, b, c, d, s, t, p, q = spec.a, spec.b, spec.c, spec.d, spec.s, spec.t, spec.p, spec.q
    if p == 0 and q == 0:
        return 1
    lead = Fraction(s * t + t * b * q + s * c * p)
    return exact.as_integer(lead * exact.power(s + a * p + b * q, p - 1) * exact.power(t + c * p + d * q, q - 1))


def count_affine_ipf(spec: AffineWeightSpec) -> int:
    """Number of increasing pairs bounded by the affine grid."""
    a, b, c, d, s, t, p, q = spec.a, spec.b, spec.c, spec.d, spec.s, spec.t, spec.p, spec.q
    if p == 0 and q == 0:
        return 1
    lead = Fraction(s * t + t * b * q + s * c * p)
    value = (
        lead
        * exact.rising_factorial(s + a * p + b * q + 1, p - 1)
        * exact.rising_factorial(t + c * p + d * q + 1, q - 1)
    )
    return exact.as_integer(value / (factorial(p) * factorial(q)))


def count_affine_ppf(spec: AffineWeightSpec) -> int:
    """Number of prime pairs for the affine grid (p, q >= 1), with 0^0 = 1."""
    a, b, c, d, s, t, p, q = _prime_params(spec)
    x = a * p + b * (q - 1)
    y = c * (p - 1) + d * q
    return (
        ((s + b * q - b) * (t + c * p - c) - b * c * p * q) * (s + x) ** (p - 1) * (t + y) ** (q - 1)
        + b * (c * (p + q - 1) + t - t * q) * x ** (p - 1) * (t + y) ** (q - 1)
        + c * (b * (p + q - 1) + s - s * p) * (s + x) ** (p - 1) * y ** (q - 1)
        - b * c * (p + q - 1) * x ** (p - 1) * y ** (q - 1)
    )


def count_affine_ippf(spec: AffineWeightSpec) -> int:
    """Number of increasing prime pairs for the affine grid (p, q >= 1)."""
    a, b, c, d, s, t, p, q = _prime_params(spec)
    x = a * p + b * (q - 1)
    y = c * (p - 1) + d * q
    rf = exact.rising_factorial
    value = (
        ((s + b * q - b) * (t + c * p - c) - b * c * p * q) * rf(s + x + 1, p - 1) * rf(t + y + 1, q - 1)
        + b * (c * (p + q - 1) + t - t * q) * rf(x + 1, p - 1) * rf(t + y + 1, q - 1)
        + c * (b * (p + q - 1) + s - s * p) * rf(s + x + 1, p - 1) * rf(y + 1, q - 1)
        - b * c * (p + q - 1) * rf(x + 1, p - 1) * rf(y + 1, q - 1)
    )
    return exact.as_integer(value / (factorial(p) * factorial(q)))


def _prime_params(spec: AffineWeightSpec):
    if spec.p < 1 or spec.q < 1:
        raise DegenerateGrid("prime counts need p, q >= 1")
    return spec.a, spec.b, spec.c, spec.d, spec.s, spec.t, spec.p, spec.q
