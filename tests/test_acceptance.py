"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -rA`` to see the PASS/FAIL line
of every criterion.  All comparisons are exact; the only tolerances are the
wall-clock budgets, which are asserted as stated.
"""

import json
import time
from contextlib import contextmanager
from itertools import combinations_with_replacement, product

from parkfn import cli, exact, oracle, pq, twodim, vector
from parkfn.core import Point, common_points
from parkfn.oracle import FamilySpec
from parkfn.pq import PQPair, u0_matrix
from parkfn.twodim import AffineWeightSpec, affine_weight_matrix


@contextmanager
def criterion(number, title, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} FAIL: {title}")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget ({elapsed:.1f}s)"
    print(f"criterion {number} PASS: {title} ({elapsed:.1f}s)")


def catalan(n):
    return exact.binomial(2 * n, n) // (n + 1)


def oracle_count(**kwargs):
    return oracle.count(FamilySpec(**kwargs)).count


def test_criterion_1_classical_counts():
    with criterion(1, "classical counts n=1..6 match (n+1)^(n-1), (n-1)^(n-1), C_n, C_(n-1)", budget=10):
        for n in range(1, 7):
            assert oracle_count(family="classical", n=n) == (n + 1) ** (n - 1)
            assert oracle_count(family="classical", n=n, prime=True) == (n - 1) ** (n - 1)
            assert oracle_count(family="classical", n=n, increasing=True) == catalan(n)
            assert oracle_count(family="classical", n=n, prime=True, increasing=True) == catalan(n - 1)


def test_criterion_2_vector_arithmetic_counts():
    with criterion(2, "arithmetic-boundary counts for s,b in 1..3 and n=1..5 match the oracle", budget=60):
        for s in (1, 2, 3):
            for b in (1, 2, 3):
                for n in range(1, 6):
                    u = tuple(s + b * i for i in range(n))
                    assert oracle_count(family="vector", u=u) == vector.count_pf_arith(s, b, n)
                    assert oracle_count(family="vector", u=u, increasing=True) == vector.count_ipf_arith(s, b, n)
                    assert oracle_count(family="vector", u=u, prime=True) == vector.count_ppf_arith(s, b, n)
                    assert oracle_count(
                        family="vector", u=u, prime=True, increasing=True
                    ) == vector.count_ippf_arith(s, b, n)


def test_criterion_3_pq_counts():
    with criterion(3, "pq counts for 0 <= p,q <= 4 match the oracle; summation form matches closed form", budget=120):
        for p in range(5):
            for q in range(5):
                assert oracle_count(family="pq", p=p, q=q) == pq.count_pq_pf(p, q)
                assert oracle_count(family="pq", p=p, q=q, increasing=True) == pq.count_pq_ipf(p, q)
                assert oracle_count(family="pq", p=p, q=q, prime=True) == pq.count_pq_ppf(p, q)
                assert oracle_count(family="pq", p=p, q=q, prime=True, increasing=True) == pq.count_pq_ippf(p, q)
        for p in range(1, 7):
            for q in range(1, 7):
                assert pq.count_pq_ppf_sum(p, q) == pq.count_pq_ppf(p, q)


def test_criterion_4_affine_counts():
    # the full grid runs comfortably inside the 90s default budget, so no
    # reduced default grid is needed; the 15-minute cap is met a fortiori
    with criterion(
        4,
        "affine grid counts for (a,b,c,d,s,t) in {0,1,2}^6 with s,t >= 1 and p,q in 1..3 match the oracle",
        budget=90,
    ):
        for a, b, c, d in product(range(3), repeat=4):
            for s, t in product((1, 2), repeat=2):
                for p, q in product((1, 2, 3), repeat=2):
                    spec = AffineWeightSpec(a, b, c, d, s, t, p, q)
                    weights = affine_weight_matrix(spec)
                    assert oracle_count(family="twodim", weights=weights) == twodim.count_affine_pf(spec)
                    assert oracle_count(
                        family="twodim", weights=weights, increasing=True
                    ) == twodim.count_affine_ipf(spec)
                    assert oracle_count(family="twodim", weights=weights, prime=True) == twodim.count_affine_ppf(
                        spec
                    )
                    assert oracle_count(
                        family="twodim", weights=weights, prime=True, increasing=True
                    ) == twodim.count_affine_ippf(spec)


def test_criterion_5_structural_equivalences():
    with criterion(5, "structural equivalences hold with zero disagreements on the stated ranges"):
        # primeness via the doubled-head boundary, n <= 4, entries <= 4
        for n in range(1, 5):
            for u in combinations_with_replacement(range(1, 5), n):
                reduced = vector.prime_reduction(u)
                for a in product(range(u[-1]), repeat=n):
                    assert vector.is_prime_vector_pf(a, u) == vector.is_vector_pf(a, reduced)

        # pair primeness: strict test == corner-only intersection == zero-removal,
        # and the U0 / U0' weight-grid views, p,q <= 4
        for p in range(5):
            for q in range(5):
                grid = u0_matrix(p, q)
                grid_prime = twodim.prime_weight_transform(grid) if p >= 1 and q >= 1 else None
                for a in product(range(q + 1), repeat=p):
                    for b in product(range(p + 1), repeat=q):
                        pair = PQPair(a, b)
                        member = pq.is_pq_pf(pair)
                        assert member == twodim.is_u_pf(a, b, grid)[0]
                        prime = pq.is_pq_prime(pair)
                        if member:
                            corners_only = common_points(
                                pair.reflected_horizontal_path(), pair.vertical_path()
                            ) == (Point(0, 0), Point(p, q))
                            assert prime == corners_only
                        if p >= 1 and q >= 1:
                            assert prime == twodim.is_u_pf(a, b, grid_prime)[0]
                            if member and 0 in a and 0 in b:
                                ia, ib = a.index(0), b.index(0)
                                reduced_pair = PQPair(a[:ia] + a[ia + 1 :], b[:ib] + b[ib + 1 :])
                                assert prime == pq.is_pq_pf(reduced_pair)
                            elif member:
                                assert not prime

        # two-path definition == reindexed-grid membership, p,q <= 3, weights <= 4
        checked = 0
        for spec in _affine_specs_with_small_weights(top=4):
            weights = affine_weight_matrix(spec)
            for a in combinations_with_replacement(range(weights.max_u), spec.p):
                for b in combinations_with_replacement(range(weights.max_v), spec.q):
                    assert twodim.is_u_prime(a, b, weights, method="direct") == twodim.is_u_prime(
                        a, b, weights, method="transform"
                    )
                    checked += 1
        assert checked > 1000


def _affine_specs_with_small_weights(top):
    for p, q in product((1, 2, 3), repeat=2):
        for a, b, c, d in product(range(2), repeat=4):
            for s, t in product((1, 2), repeat=2):
                spec = AffineWeightSpec(a, b, c, d, s, t, p, q)
                weights = affine_weight_matrix(spec)
                if weights.max_u <= top and weights.max_v <= top:
                    yield spec


def test_criterion_6_simulation_equals_inequalities():
    with criterion(6, "parking simulation succeeds exactly on the inequality members, n <= 4, entries <= 5"):
        for n in range(1, 5):
            for u in combinations_with_replacement(range(1, 6), n):
                for a in product(range(u[-1] + 1), repeat=n):
                    assert vector.simulate_capacity_parking(a, u).success == vector.is_vector_pf(a, u)


def test_criterion_7_decomposition_round_trips():
    with criterion(7, "decompositions round-trip with prime components and match the worked examples"):
        for n in range(1, 5):
            for u in combinations_with_replacement(range(1, 5), n):
                for a in product(range(u[-1]), repeat=n):
                    if not vector.is_vector_pf(a, u):
                        continue
                    d = vector.decompose(a, u)
                    assert vector.compose(d) == (a, u)
                    for comp in d.components:
                        assert vector.is_prime_vector_pf(comp.a, comp.u)

        for p in range(4):
            for q in range(4):
                for a in product(range(q + 1), repeat=p):
                    for b in product(range(p + 1), repeat=q):
                        pair = PQPair(a, b)
                        if not pq.is_pq_pf(pair):
                            continue
                        d = pq.decompose_pq(pair)
                        assert pq.compose_pq(d) == pair
                        for comp in d.components:
                            assert pq.is_pq_prime(PQPair(comp.a, comp.b))

        # golden decompositions
        d = vector.decompose((0, 3, 1, 0), (1, 2, 3, 4))
        assert [c.a for c in d.components] == [(0, 1, 0), (0,)]
        assert [sorted(c.positions) for c in d.components] == [[0, 2, 3], [1]]
        d = vector.decompose((7, 3, 0, 4, 0, 3), (1, 2, 4, 5, 7, 8))
        assert [sorted(c.positions) for c in d.components] == [[2, 4], [1, 3, 5], [0]]
        assert [c.a for c in d.components] == [(0, 0), (1, 2, 1), (0,)]
        d = pq.decompose_pq(PQPair((3, 0, 3, 2, 3, 0), (6, 1, 0, 5, 0)))
        assert sorted(d.components[0].a_positions) == [1, 3, 5]
        assert sorted(d.components[0].b_positions) == [1, 2, 4]
        assert [(c.a, c.b) for c in d.components] == [
            ((0, 2, 0), (1, 0, 0)),
            ((0,), ()),
            ((0,), ()),
            ((0,), (0,)),
            ((), (0,)),
        ]


def test_criterion_8_golden_cli_checks(tmp_path, capsys):
    def run(argv, instance):
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(instance), encoding="utf-8")
        code = cli.main(argv + ["--file", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        return out

    with criterion(8, "worked golden examples reproduce bit-exactly through the CLI"):
        # same Catalan path, labeled: the rearranged sequence is a member
        out = run(["check", "--family", "classical"], {"a": [2, 0, 3, 0]})
        assert out == '{"member":true,"prime":false}\n'
        out = run(["check", "--family", "classical"], {"a": [0, 0, 2, 3]})
        assert out == '{"member":true,"prime":false}\n'
        # prime decomposition of the length-4 instance
        out = run(["decompose", "--family", "vector"], {"a": [0, 3, 1, 0], "u": [1, 2, 3, 4]})
        assert out == (
            '{"components":[{"B":[0,2,3],"a":[0,1,0],"offset":0,"u":[1,2,3]},'
            '{"B":[1],"a":[0],"offset":3,"u":[1]}]}\n'
        )
        # capacity process with lot (1,1,3,3,9)
        out = run(["simulate", "--family", "vector"], {"a": [6, 0, 1, 0, 0], "u": [1, 1, 3, 3, 9]})
        assert out == '{"assignment":[8,0,2,0,2]}\n'
        out = run(["check", "--family", "vector"], {"a": [6, 0, 1, 0, 0], "u": [1, 1, 3, 3, 9]})
        assert out == '{"member":true,"prime":false}\n'
        # right-boundary membership for u = (1,1,3)
        out = run(["check", "--family", "vector"], {"a": [0, 2, 0], "u": [1, 1, 3]})
        assert out == '{"member":true,"prime":false}\n'
        # six-car decomposition with boundary (1,2,4,5,7,8)
        out = run(["decompose", "--family", "vector"], {"a": [7, 3, 0, 4, 0, 3], "u": [1, 2, 4, 5, 7, 8]})
        assert out == (
            '{"components":[{"B":[2,4],"a":[0,0],"offset":0,"u":[1,2]},'
            '{"B":[1,3,5],"a":[1,2,1],"offset":2,"u":[2,3,5]},'
            '{"B":[0],"a":[0],"offset":7,"u":[1]}]}\n'
        )
        # (3,4) pair membership and non-membership
        out = run(["check", "--family", "pq"], {"a": [3, 0, 3], "b": [1, 0, 1, 0]})
        assert out == '{"member":true,"prime":false}\n'
        out = run(["check", "--family", "pq"], {"a": [0, 3, 3], "b": [0, 0, 2, 2]})
        assert out == '{"member":false,"prime":false}\n'
        # prime (3,4) pair
        out = run(["check", "--family", "pq"], {"a": [0, 0, 3], "b": [0, 0, 1, 1]})
        assert out == '{"member":true,"prime":true}\n'
        # degenerate shapes
        out = run(["check", "--family", "pq"], {"a": [], "b": [0]})
        assert out == '{"member":true,"prime":true}\n'
        out = run(["check", "--family", "pq"], {"a": [], "b": [0, 0]})
        assert out == '{"member":true,"prime":false}\n'
        # five-component pair decomposition
        out = run(["decompose", "--family", "pq"], {"a": [3, 0, 3, 2, 3, 0], "b": [6, 1, 0, 5, 0]})
        assert out == (
            '{"components":['
            '{"A":[1,3,5],"B":[1,2,4],"a":[0,2,0],"b":[1,0,0],"offset":[0,0]},'
            '{"A":[0],"B":[],"a":[0],"b":[],"offset":[3,3]},'
            '{"A":[2],"B":[],"a":[0],"b":[],"offset":[4,3]},'
            '{"A":[4],"B":[3],"a":[0],"b":[0],"offset":[5,3]},'
            '{"A":[],"B":[0],"a":[],"b":[0],"offset":[6,4]}]}\n'
        )
        # weight-grid membership with its witness path, and a non-member
        grid_flags = ["--affine", "0,1,1,0,1,1", "--p", "3", "--q", "4"]
        out = run(["check", "--family", "twodim"] + grid_flags, {"a": [2, 3, 2], "b": [3, 0, 1, 0]})
        assert out == '{"member":true,"prime":false,"witness":"NNEENEN"}\n'
        out = run(["check", "--family", "twodim"] + grid_flags, {"a": [4, 3, 3], "b": [2, 0, 2, 1]})
        assert out == '{"member":false,"prime":false}\n'
        # the prime pair is also a member of the reindexed grid's plain family
        out = run(["check", "--family", "twodim"] + grid_flags, {"a": [0, 0, 3], "b": [0, 0, 1, 1]})
        assert out == '{"member":true,"prime":true,"witness":"EENNNEN"}\n'
