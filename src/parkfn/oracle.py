"""Exhaustive brute-force enumeration of all four families.

This is the ground truth every closed-form count is checked against: it never
consults a formula, only the membership predicates.  Entry bounds are the
provably sufficient ones: an entry at or beyond the bound can never belong to
a member.

``enumerate_members`` is definitional: it walks every candidate tuple in
lexicographic order and filters by the predicate.  ``count`` exploits that
every predicate depends only on order statistics, so it sweeps weakly
increasing candidates of the same generator and weighs each member by its
number of rearrangements; for the two-dimensional family the sweep is
additionally vectorized over the candidate pair grid.  Equality of the two
routes is asserted in the tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, product
from math import comb, factorial, prod
from typing import Callable, Iterator, Optional

import numpy as np

from .core import Seq
from .errors import SearchSpaceTooLarge
from .pq import PQPair, is_pq_pf, is_pq_prime
from .twodim import WeightMatrix, is_u_pf, is_u_prime
from .vector import is_prime_vector_pf, is_vector_pf, validate_capacity

DEFAULT_SEARCH_CAP = 10**8

Instance = tuple[Seq, ...]  # (a,) for one-sequence families, (a, b) for pairs
Shapes = tuple[tuple[int, int], ...]  # (length, exclusive entry bound) per sequence


@dataclass(frozen=True)
class FamilySpec:
    """Which family to enumerate, with its parameters and variant flags."""

    family: str  # classical | vector | pq | twodim
    prime: bool = False
    increasing: bool = False
    n: Optional[int] = None
    u: Optional[Seq] = None
    p: Optional[int] = None
    q: Optional[int] = None
    weights: Optional[WeightMatrix] = None

    def __post_init__(self) -> None:
        if self.family == "classical":
            if self.n is None or self.n < 1:
                raise ValueError("classical family needs n >= 1")
            object.__setattr__(self, "u", tuple(range(1, self.n + 1)))
        elif self.family == "vector":
            if self.u is None:
                raise ValueError("vector family needs a capacity vector u")
            object.__setattr__(self, "u", validate_capacity(self.u))
        elif self.family == "pq":
            if self.p is None or self.q is None or self.p < 0 or self.q < 0:
                raise ValueError("pq family needs p, q >= 0")
        elif self.family == "twodim":
            if self.weights is None:
                raise ValueError("twodim family needs a weight matrix")
            if self.prime and (self.weights.p < 1 or self.weights.q < 1):
                raise ValueError("twodim primeness needs p, q >= 1")
        else:
            raise ValueError(f"unknown family {self.family!r}")

    def to_json_dict(self) -> dict:
        out: dict = {"family": self.family, "prime": self.prime, "increasing": self.increasing}
        if self.family == "classical":
            out["n"] = self.n
        elif self.family == "vector":
            out["u"] = list(self.u or ())
        elif self.family == "pq":
            out["p"], out["q"] = self.p, self.q
        else:
            assert self.weights is not None
            out["weights"] = self.weights.to_json_dict()
        return out


@dataclass(frozen=True)
class EnumerationReport:
    """Outcome of a counting run over the full candidate space."""

    spec: FamilySpec
    count: int
    search_space: int
    elapsed: float

    def to_json_dict(self) -> dict:
        return {
            "spec": self.spec.to_json_dict(),
            "count": self.count,
            "search_space": self.search_space,
            "elapsed": self.elapsed,
        }


def _family(spec: FamilySpec) -> tuple[Shapes, Callable[[Instance], bool]]:
    """Candidate shapes and membership test; predicates are this module's globals at call time."""
    if spec.family == "pq":
        pair_test = is_pq_prime if spec.prime else is_pq_pf
        return ((spec.p, spec.q + 1), (spec.q, spec.p + 1)), lambda c: pair_test(PQPair(*c))
    if spec.family == "twodim":
        weights = spec.weights
        shapes = ((weights.p, weights.max_u), (weights.q, weights.max_v))
        if spec.prime:
            return shapes, lambda c: is_u_prime(c[0], c[1], weights, method="direct")
        return shapes, lambda c: is_u_pf(c[0], c[1], weights)[0]
    u = spec.u
    vector_test = is_prime_vector_pf if spec.prime else is_vector_pf
    return ((len(u), u[-1]),), lambda c: vector_test(c[0], u)


def _sweep(shapes: Shapes, increasing: bool) -> Iterator[Instance]:
    """Every candidate, lazily, in lexicographic order of the flattened tuple.

    Each sequence runs over the weakly increasing tuples or over the full box.
    """
    def seqs(length: int, bound: int) -> Iterator[Seq]:
        return combinations_with_replacement(range(bound), length) if increasing else product(range(bound), repeat=length)

    if len(shapes) == 1:
        return ((a,) for a in seqs(*shapes[0]))
    return ((a, b) for a in seqs(*shapes[0]) for b in seqs(*shapes[1]))


def _checked_space(spec: FamilySpec, shapes: Shapes, cap: Optional[int]) -> int:
    """Nominal candidate count; raises when it exceeds the cap."""
    total = prod(comb(bound + length - 1, length) if spec.increasing else bound**length for length, bound in shapes)
    cap = DEFAULT_SEARCH_CAP if cap is None else cap
    if total > cap:
        raise SearchSpaceTooLarge(f"{total} candidates exceed the cap of {cap}")
    return total


def enumerate_members(spec: FamilySpec, *, cap: Optional[int] = None) -> Iterator[Instance]:
    """Exactly the members, lazily, in lexicographic order of the flattened tuple.

    Candidates are generated one at a time, so memory stays flat however
    large the space; the cap is checked at the call, before the first one.
    """
    shapes, member = _family(spec)
    _checked_space(spec, shapes, cap)
    return filter(member, _sweep(shapes, spec.increasing))


def count(spec: FamilySpec, *, cap: Optional[int] = None) -> EnumerationReport:
    """Count the members of the family over the full candidate space.

    Counting sweeps weakly increasing candidates once, weighing a member by
    the rearrangements of each of its sequences (1 in the increasing variants).
    """
    shapes, member = _family(spec)
    space = _checked_space(spec, shapes, cap)
    start = time.perf_counter()
    if spec.family == "twodim":
        total = _twodim_grid_counts(shapes, spec.weights)[(spec.prime, spec.increasing)]
    else:
        members = filter(member, _sweep(shapes, True))
        total = sum(1 for _ in members) if spec.increasing else sum(prod(map(_rearrangements, c)) for c in members)
    return EnumerationReport(spec, total, space, time.perf_counter() - start)


def _rearrangements(sorted_tuple: Seq) -> int:
    """Number of distinct sequences with these order statistics."""
    total = factorial(len(sorted_tuple))
    i = 0
    while i < len(sorted_tuple):
        j = i
        while j < len(sorted_tuple) and sorted_tuple[j] == sorted_tuple[i]:
            j += 1
        total //= factorial(j - i)
        i = j
    return total


# ---------------------------------------------------------------------------
# Vectorized sweep for the two-dimensional family
# ---------------------------------------------------------------------------


@lru_cache(maxsize=128)
def _twodim_grid_counts(shapes: Shapes, weights: WeightMatrix) -> dict[tuple[bool, bool], int]:
    """All four counts (prime x increasing) for one weight grid, in one sweep.

    Reachability of (p, q) through admissible edges is evaluated for every
    sorted candidate pair at once: boolean arrays indexed by (a-candidate,
    b-candidate) replace the per-pair walk.  The prime sweep runs the
    two-path DP over anti-diagonals with the same arrays.  Semantics match
    ``is_u_pf`` / ``is_u_prime(direct)`` exactly; the tests compare the two.

    No count exceeds the nominal space ``bu**p * bv**q``, and neither does any
    partial sum of the weighted reduction, so int64 is exact below 2**63;
    larger spaces reduce in Python ints (``dtype=object``).
    """
    (p, bu), (q, bv) = shapes
    cand_a = list(combinations_with_replacement(range(bu), p))
    cand_b = list(combinations_with_replacement(range(bv), q))
    zero = {(False, False): 0, (False, True): 0, (True, False): 0, (True, True): 0}
    if not cand_a or not cand_b:
        return zero
    na, nb = len(cand_a), len(cand_b)
    arr_a = np.array(cand_a, dtype=np.int64).reshape(na, p)
    arr_b = np.array(cand_b, dtype=np.int64).reshape(nb, q)
    dtype = np.int64 if bu**p * bv**q < 2**63 else object
    wa = np.array([_rearrangements(t) for t in cand_a], dtype=dtype)
    wb = np.array([_rearrangements(t) for t in cand_b], dtype=dtype)

    u_grid = np.array([[weights.u(k, l) for l in range(q + 1)] for k in range(p)], dtype=np.int64)
    v_grid = np.array([[weights.v(k, l) for l in range(q)] for k in range(p + 1)], dtype=np.int64)
    # east_ok[i, k, l]: sorted a-candidate i may take the east edge at (k, l)
    east_ok = arr_a[:, :, None] < u_grid[None, :, :] if p else np.zeros((na, 0, q + 1), dtype=bool)
    north_ok = arr_b[:, :, None] < v_grid.T[None, :, :] if q else np.zeros((nb, 0, p + 1), dtype=bool)
    # north_ok[j, l, k]: sorted b-candidate j may take the north edge at (k, l)

    member = _vector_reach(east_ok, north_ok, na, nb, p, q)
    member_prime = (
        _vector_two_path(east_ok, north_ok, na, nb, p, q) if p >= 1 and q >= 1 else None
    )

    out = dict(zero)
    for prime, grid in ((False, member), (True, member_prime)):
        if grid is not None:
            out[(prime, False)] = int(wa @ grid.astype(dtype) @ wb)
            out[(prime, True)] = int(grid.sum())
    return out


def _vector_reach(east_ok, north_ok, na: int, nb: int, p: int, q: int):
    """member[i, j]: some admissible path crosses the grid for the pair (i, j)."""
    reach = np.ones((na, nb), dtype=bool)
    row = [reach]
    for k in range(1, p + 1):
        row.append(row[k - 1] & east_ok[:, k - 1, 0][:, None])
    for l in range(1, q + 1):
        nxt = [row[0] & north_ok[:, l - 1, 0][None, :]]
        for k in range(1, p + 1):
            nxt.append(
                (nxt[k - 1] & east_ok[:, k - 1, l][:, None])
                | (row[k] & north_ok[:, l - 1, k][None, :])
            )
        row = nxt
    return row[p]


def _vector_two_path(east_ok, north_ok, na: int, nb: int, p: int, q: int):
    """member[i, j]: two admissible paths share only the corner vertices."""
    start = east_ok[:, 0, 0][:, None] & north_ok[:, 0, 0][None, :]
    states: dict[tuple[int, int], np.ndarray] = {(1, 0): start}
    for r in range(1, p + q):
        last = r + 1 == p + q
        nxt: dict[tuple[int, int], np.ndarray] = {}
        for (k1, k2), grid in states.items():
            for k1n, move1 in _vector_moves(k1, r, east_ok, north_ok, p, q):
                half = grid & move1
                for k2n, move2 in _vector_moves(k2, r, east_ok, north_ok, p, q):
                    if not last and k1n <= k2n:
                        continue
                    key = (k1n, k2n)
                    contrib = half & move2
                    nxt[key] = contrib if key not in nxt else nxt[key] | contrib
        states = nxt
        if not states:
            break
    final = states.get((p, p))
    return final if final is not None else np.zeros((na, nb), dtype=bool)


def _vector_moves(k: int, r: int, east_ok, north_ok, p: int, q: int):
    """(next column, admissibility grid) moves from column k on diagonal r."""
    l = r - k
    if not 0 <= l <= q:
        return
    if k < p and east_ok[:, k, l].any():
        yield k + 1, east_ok[:, k, l][:, None]
    if l < q and north_ok[:, l, k].any():
        yield k, north_ok[:, l, k][None, :]
