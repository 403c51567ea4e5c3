"""The prime closed forms checked against the pf closed forms through the paper's unique decomposition into primes.

Every member splits uniquely into a prime first component and a remainder.
For a vector family with arithmetic boundary u_i = s + b*i, ``decompose``
rebases every component after the first to the boundary (b, 2b, ...), so
the remainder of a length-n member whose first component has m cars is a
member of the (b, b, n - m) family; the labelled count picks the first
component's cars with C(n, m), the increasing one has a single choice.
For increasing pq pairs the first component has any shape (i, j) other
than (0, 0) and the remainder is an increasing pair of shape (p - i, q - j).

These identities relate one closed form to another and use no oracle, so
they reach sizes no sweep does, and a wrong ppf form beside a right pf form
cannot pass them.  At b = 0 the remainder is always empty: every member is
prime, so pf = ppf and ipf = ippf.

The same goes for the families the paper states apart from its
two-dimensional one: the pq forms are the affine forms on U0, the affine
grid (0,1,1,0,1,1), and a vector family with arithmetic boundary is the
affine family on the one-row grid (b,0,0,0,s,t) with q = 0, for any t, and
on a one-column grid with p = 0 and (d, t) = (b, s), whatever its other
four values: an all-zero u-channel included, whose factor the form cancels.

The decompositions themselves are pinned byte for byte: the sha256 of the
sorted-key JSON of every small member's decomposition, so component order,
positions and offsets cannot drift.
"""

import hashlib
import json
from functools import cache
from itertools import combinations_with_replacement, product
from math import comb

import pytest

from parkfn import pq, twodim, vector
from parkfn.twodim import AffineWeightSpec

_pf, _ipf = cache(vector.count_pf_arith), cache(vector.count_ipf_arith)
_ppf, _ippf = cache(vector.count_ppf_arith), cache(vector.count_ippf_arith)
_pq_ipf, _pq_ippf = cache(pq.count_pq_ipf), cache(pq.count_pq_ippf)


def _remainders(count, b: int, n: int) -> int:
    """count(b, b, n): the members a remainder of n cars can be, with one (empty) remainder when n = 0."""
    return count(b, b, n) if n else 1


@pytest.mark.parametrize("s", range(1, 6))
@pytest.mark.parametrize("b", range(1, 5))
def test_vector_pf_is_the_sum_over_prime_first_components(s, b):
    for n in range(1, 41):
        total = sum(comb(n, m) * _ppf(s, b, m) * _remainders(_pf, b, n - m) for m in range(1, n + 1))
        assert total == _pf(s, b, n), (s, b, n)


@pytest.mark.parametrize("s", range(1, 6))
@pytest.mark.parametrize("b", range(1, 5))
def test_vector_ipf_is_the_sum_over_prime_first_components(s, b):
    for n in range(1, 41):
        total = sum(_ippf(s, b, m) * _remainders(_ipf, b, n - m) for m in range(1, n + 1))
        assert total == _ipf(s, b, n), (s, b, n)


def _nonempty_shapes(p: int, q: int):
    return ((i, j) for i in range(p + 1) for j in range(q + 1) if (i, j) != (0, 0))


def test_pq_ipf_is_the_sum_over_prime_first_components():
    for p, q in _nonempty_shapes(39, 39):
        total = sum(_pq_ippf(i, j) * _pq_ipf(p - i, q - j) for i, j in _nonempty_shapes(p, q))
        assert total == _pq_ipf(p, q), (p, q)


@pytest.mark.parametrize("s", range(1, 6))
def test_vector_forms_at_b_zero_count_only_primes(s):
    for n in range(1, 41):
        assert _pf(s, 0, n) == _ppf(s, 0, n) and _ipf(s, 0, n) == _ippf(s, 0, n), (s, n)


_PQ_AND_AFFINE = [
    (pq.count_pq_pf, twodim.count_affine_pf, 0),
    (pq.count_pq_ipf, twodim.count_affine_ipf, 0),
    (pq.count_pq_ppf, twodim.count_affine_ppf, 1),
    (pq.count_pq_ippf, twodim.count_affine_ippf, 1),
]


@pytest.mark.parametrize("pq_form, affine_form, least", _PQ_AND_AFFINE, ids=["pf", "ipf", "ppf", "ippf"])
def test_pq_forms_are_the_affine_forms_on_u0(pq_form, affine_form, least):
    # least: the prime forms need p, q >= 1; pf and ipf are checked at p = 0 or q = 0 too
    for p in range(least, 41):
        for q in range(least, 41):
            assert pq_form(p, q) == affine_form(AffineWeightSpec(0, 1, 1, 0, 1, 1, p, q)), (p, q)


@pytest.mark.parametrize("t", (1, 2))
@pytest.mark.parametrize("s", range(1, 6))
def test_vector_forms_are_the_affine_forms_on_one_row(s, t):
    for b in range(5):
        for n in range(1, 41):
            row = AffineWeightSpec(b, 0, 0, 0, s, t, n, 0)
            assert _pf(s, b, n) == twodim.count_affine_pf(row), (s, b, n)
            assert _ipf(s, b, n) == twodim.count_affine_ipf(row), (s, b, n)


@pytest.mark.parametrize("other", [(0, 0), (1, 0), (2, 3)], ids=["s0b0", "s1b0", "s2b3"])
@pytest.mark.parametrize("t", range(1, 6))
def test_vector_forms_are_the_affine_forms_on_one_column(t, other):
    s, b = other  # the u-channel of the empty a-side, read by no edge
    for d in range(5):
        for q in range(1, 41):
            column = AffineWeightSpec(1, b, 1, d, s, t, 0, q)
            assert _pf(t, d, q) == twodim.count_affine_pf(column), (t, d, q, other)
            assert _ipf(t, d, q) == twodim.count_affine_ipf(column), (t, d, q, other)


def _digest(decompositions) -> str:
    return hashlib.sha256(json.dumps([d.to_json_dict() for d in decompositions], sort_keys=True).encode()).hexdigest()


def test_decompositions_of_small_members_are_pinned():
    vectors = [
        vector.decompose(a, u)
        for n in range(1, 5)
        for u in combinations_with_replacement(range(1, 5), n)
        for a in product(range(u[-1]), repeat=n)
        if vector.is_vector_pf(a, u)
    ]
    pairs = [
        pq.decompose_pq(pair)
        for p in range(4)
        for q in range(4)
        for pair in (pq.PQPair(a, b) for a in product(range(q + 1), repeat=p) for b in product(range(p + 1), repeat=q))
        if pq.is_pq_pf(pair)
    ]
    assert (len(vectors), len(pairs)) == (4234, 2335)
    assert _digest(vectors) == "a14caff6ce74e55c8ba42805b4d1df041c7b4b1780124e2376e1e938e914b77b"
    assert _digest(pairs) == "aa7250de469b1fb5d646a6b38b673ae0d31c46d3726cabd51f604f3e7bb5336e"
