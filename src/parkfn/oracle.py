"""Exhaustive brute-force enumeration of all four families.

This is the ground truth every closed-form count is checked against: it never
consults a formula, only the membership predicates.  Entry bounds are the
provably sufficient ones: an entry at or beyond the bound can never belong to
a member.

``enumerate_members`` is definitional: it walks every candidate tuple in
lexicographic order and filters by the predicate.  ``count`` exploits that
every predicate depends only on order statistics, so it sweeps weakly
increasing candidates of the same generator and weighs each member by its
number of rearrangements.  For the two-dimensional family the sweep is
additionally vectorized over candidate pairs: the b-candidates are packed 64
to a word and the a-candidates run in blocks, so memory is bounded by one
block, not by the pair grid.  Its prime counts are plain reachability on the
reindexed grid ``prime_weight_transform``, which matches ``is_u_prime``; the
tests compare that predicate's two methods, and both routes here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations_with_replacement, product
from math import comb, factorial, prod
from typing import Callable, Iterator, Optional

import numpy as np

from .core import Seq
from .errors import SearchSpaceTooLarge
from .pq import PQPair, is_pq_pf, is_pq_prime
from .twodim import WeightMatrix, is_u_pf, is_u_prime, prime_weight_transform
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

_BLOCK_BITS = 2**18  # candidate pairs (a-rows x padded b-bits) per block of the packed sweep, at least one a-row
_ONES = np.uint64(2**64 - 1)


@lru_cache(maxsize=128)
def _twodim_grid_counts(shapes: Shapes, weights: WeightMatrix) -> dict[tuple[bool, bool], int]:
    """All four counts (prime x increasing) for one weight grid, in one sweep.

    Reachability of (p, q) through admissible edges is evaluated for many
    sorted candidate pairs at once.  The b-candidates are packed 64 to a
    ``uint64`` word, so a DP state is an (a-candidate x word) array: an east
    edge masks whole a-rows (a word of ones or of zeros), a north edge ANDs
    in one packed b-row.  The a-candidates run in blocks that are reduced
    before the next one starts, so memory is bounded by the block, not by
    the candidate grid.  The prime counts run the same reachability against
    the reindexed grid ``prime_weight_transform(weights)``, over the same
    candidates and weights.  Semantics match ``is_u_pf`` / ``is_u_prime``
    exactly; the tests compare them, and ``is_u_prime``'s direct two-path DP
    with its transform.

    No count exceeds the nominal space ``bu**p * bv**q``, and neither does any
    partial sum of the weighted reduction, so int64 is exact below 2**63;
    larger spaces reduce in Python ints (``dtype=object``).
    """
    (p, bu), (q, bv) = shapes
    out = {(False, False): 0, (False, True): 0, (True, False): 0, (True, True): 0}
    arr_a, arr_b = _sorted_rows(bu, p), _sorted_rows(bv, q)
    na, nb = len(arr_a), len(arr_b)
    if not na or not nb:
        return out
    dtype = np.int64 if bu**p * bv**q < 2**63 else object
    wa, wb = _rearrangement_weights(arr_a, dtype), _rearrangement_weights(arr_b, dtype)
    grids = {False: _packed_edges(arr_a, arr_b, weights)}
    if p >= 1 and q >= 1:
        grids[True] = _packed_edges(arr_a, arr_b, prime_weight_transform(weights))

    rows = max(1, _BLOCK_BITS // (64 * -(-nb // 64)))
    for lo in range(0, na, rows):
        for prime, (east, north) in grids.items():
            state = _vector_reach(east[lo : lo + rows], north, p, q)
            # the pad bits past nb in the last word are dropped here, never counted
            bits = np.unpackbits(state.view(np.uint8), axis=1, count=nb, bitorder="little")
            out[(prime, False)] += int(wa[lo : lo + rows] @ (bits.astype(dtype) @ wb))
            out[(prime, True)] += int(bits.sum())
    return out


def _packed_edges(arr_a: np.ndarray, arr_b: np.ndarray, weights: WeightMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Edge admissibility of the sorted candidates against one grid, as ``_vector_reach`` takes it.

    east[i, k, l] is all ones iff a-candidate i may take the east edge at
    (k, l); north[l, k] packs the b-candidates that may take the north edge
    at (k, l), with zero pad bits.
    """
    p, q, nb = weights.p, weights.q, len(arr_b)
    nodes = np.array(weights.rows, dtype=np.int64)  # nodes[l, k] = (u, v)
    east = (arr_a[:, :, None] < nodes[:, :p, 0].T) * _ONES
    north = np.zeros((q, p + 1, 8 * -(-nb // 64)), dtype=np.uint8)
    north[:, :, : -(-nb // 8)] = np.packbits(arr_b.T[:, None, :] < nodes[:q, :, 1, None], axis=-1, bitorder="little")
    return east, north.view(np.uint64)


def _sorted_rows(bound: int, length: int) -> np.ndarray:
    """The weakly increasing tuples over range(bound), one per row, in lexicographic order."""
    flat = np.fromiter(chain.from_iterable(combinations_with_replacement(range(bound), length)), dtype=np.int64)
    return flat.reshape(-1, length) if length else np.zeros((1, 0), dtype=np.int64)


def _rearrangement_weights(rows: np.ndarray, dtype) -> np.ndarray:
    """``_rearrangements`` of every sorted row: n! over the product of each entry's position in its run."""
    n = rows.shape[1]
    wide = np.int64 if factorial(n) < 2**63 else object
    col = np.arange(n)
    new_run = np.ones(rows.shape, dtype=bool)
    new_run[:, 1:] = rows[:, 1:] != rows[:, :-1]
    run_start = np.maximum.accumulate(col * new_run, axis=1)
    return (factorial(n) // (col + 1 - run_start).astype(wide).prod(axis=1)).astype(dtype)


def _vector_reach(east, north, p: int, q: int):
    """Packed reachability of (p, q) for a block: bit j of row i is set iff some path admits the pair (i, j)."""
    row = [np.full((len(east), north.shape[-1]), _ONES)]
    for k in range(1, p + 1):
        row.append(row[k - 1] & east[:, k - 1, 0, None])
    for l in range(1, q + 1):
        nxt = [row[0] & north[l - 1, 0]]
        for k in range(1, p + 1):
            nxt.append((nxt[k - 1] & east[:, k - 1, l, None]) | (row[k] & north[l - 1, k]))
        row = nxt
    return row[p]
