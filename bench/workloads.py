"""Workload inputs, the timed operation of each workload, and its references.

Inputs are plain JSON-able data made from the seed without importing parkfn,
so the worker process receives only generated inputs.  References come from
routes independent of the code under test and are computed by ``run.py``
before any worker starts, outside every timed region.  ``prepare`` turns
inputs into call arguments in the worker, also outside the timed region.

Every function that calls the library looks names up on its module at call
time (``pk.vector.is_vector_pf``), so a traced worker sees its wrappers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from math import comb

WORKLOADS = ("recognize", "verify-suites", "oracle-scalar", "oracle-grid")

RECOGNIZE_OPS = 8000

# Explicit cap for every oracle call: above each nominal space used here, so
# no operation is refused.
ORACLE_CAP = 10**30

VARIANTS = ((False, False), (False, True), (True, False), (True, True))

# Candidate sweeps with the predicates; the numpy kernel stays idle.
SCALAR_SPECS = (
    {"family": "classical", "n": 9},
    {"family": "pq", "p": 4, "q": 5},
    {"family": "pq", "p": 3, "q": 7},
    {"family": "vector", "s": 1, "b": 2, "n": 6},
)

# Deep, thin affine grids (a, b, c, d, s, t, p, q) whose pf and ppf counts
# exceed 2**63, past the numpy kernel's int64 reduction.
OVERFLOW_GRIDS = (
    (0, 0, 0, 0, 1, 2, 1, 63),
    (0, 0, 0, 0, 1, 3, 1, 40),
)

# Affine grids for the numpy sweep.
GRID_SPECS = (
    (1, 1, 1, 1, 1, 1, 5, 5),
    (2, 1, 0, 1, 1, 1, 2, 9),
    (1, 0, 1, 1, 1, 2, 3, 7),
) + OVERFLOW_GRIDS

SUITES = ("classical", "vector-arith", "pq-small", "affine-2d")

# sha256 of `parkfn verify --suite S --format json` stdout, recorded when the
# benchmark was defined; the output is deterministic, so any change is a
# disagreement.
SUITE_DIGESTS = {
    "classical": "656ea79bc9f097f4323f621b44354b83905350282d3231db2444d040bd5bc796",
    "vector-arith": "ca9eca686312b89b910bd1cffdd7a879d6fac753f1a9a5c2bea9e328fc64233d",
    "pq-small": "2445cd0c8d8f462ccb2e5efa18ff73bf32e0b9924c09001fcc62f5397be38dc2",
    "affine-2d": "c3b1219be5b623f2b4f442306cd0232e676c7d116fc19c2eb7d7fc8ee5ff9d90",
}


# ---------------------------------------------------------------------------
# Inputs (no parkfn)
# ---------------------------------------------------------------------------


def make_inputs(workload: str, seed: int) -> list:
    rng = random.Random(seed)
    if workload == "recognize":
        return [_recognize_instance(rng, member=i % 2 == 0) for i in range(RECOGNIZE_OPS)]
    if workload == "verify-suites":
        ops = [{"suite": name} for name in SUITES]
    elif workload == "oracle-scalar":
        ops = [
            dict(spec, prime=prime, increasing=increasing)
            for spec in SCALAR_SPECS
            for prime, increasing in VARIANTS
        ]
    elif workload == "oracle-grid":
        ops = [{"family": "twodim", "grid": list(grid), "variants": rng.sample(VARIANTS, 4)} for grid in GRID_SPECS]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


def _affine_u(g, k, l):
    return g[0] * k + g[1] * l + g[4]


def _affine_v(g, k, l):
    return g[2] * k + g[3] * l + g[5]


def _recognize_instance(rng: random.Random, member: bool) -> dict:
    """One instance; members are built along a random bounding path, the rest
    are drawn uniformly from the oracle's candidate box."""
    family = rng.choice(("vector", "pq", "twodim"))
    if family == "vector":
        n = rng.randint(3, 12)
        if rng.random() < 1 / 3:
            family, u = "classical", list(range(1, n + 1))
        else:
            u = [rng.randint(1, 3)]
            for _ in range(n - 1):
                u.append(u[-1] + rng.randint(0, 2))
        a = _below(rng, u) if member else [rng.randrange(u[-1]) for _ in range(n)]
        return {"family": family, "a": a, "u": u}
    if family == "pq":
        p, q = rng.randint(1, 8), rng.randint(1, 8)
        if member:
            a, b = _path_member(rng, p, q, lambda k, l: l + 1, lambda k, l: k + 1)
        else:
            a = [rng.randrange(q + 1) for _ in range(p)]
            b = [rng.randrange(p + 1) for _ in range(q)]
        return {"family": "pq", "a": a, "b": b}
    g = [rng.randint(0, 2) for _ in range(4)] + [rng.randint(1, 2), rng.randint(1, 2)]
    g += [rng.randint(1, 6), rng.randint(1, 6)]
    p, q = g[6], g[7]
    if member:
        a, b = _path_member(rng, p, q, lambda k, l: _affine_u(g, k, l), lambda k, l: _affine_v(g, k, l))
    else:
        a = [rng.randrange(_affine_u(g, p, q)) for _ in range(p)]
        b = [rng.randrange(_affine_v(g, p, q)) for _ in range(q)]
    return {"family": "twodim", "grid": g, "a": a, "b": b}


def _below(rng: random.Random, bounds) -> list:
    """Random sequence whose order statistics lie strictly below weakly increasing bounds."""
    out, lo = [], 0
    for bound in bounds:
        lo = rng.randint(lo, bound - 1)
        out.append(lo)
    rng.shuffle(out)
    return out


def _path_member(rng: random.Random, p: int, q: int, east_bound, north_bound):
    """A pair bounded edge by edge along a random monotone path."""
    steps = ["E"] * p + ["N"] * q
    rng.shuffle(steps)
    k = l = 0
    east, north = [], []
    for step in steps:
        if step == "E":
            east.append(east_bound(k, l))
            k += 1
        else:
            north.append(north_bound(k, l))
            l += 1
    return _below(rng, east), _below(rng, north)


# ---------------------------------------------------------------------------
# References (parent process, untimed)
# ---------------------------------------------------------------------------


def references(workload: str, inputs: list, pk) -> list:
    if workload == "recognize":
        return [_recognize_reference(op, pk) for op in inputs]
    if workload == "verify-suites":
        return [SUITE_DIGESTS[op["suite"]] for op in inputs]
    if workload == "oracle-grid":
        return [
            [_closed_form(dict(op, prime=prime, increasing=increasing), pk) for prime, increasing in op["variants"]]
            for op in inputs
        ]
    return [_closed_form(op, pk) for op in inputs]


def _recognize_reference(op: dict, pk) -> list:
    """[member, prime] from routes that do not run the predicates under test."""
    if op["family"] in ("classical", "vector"):
        vector = pk.vector
        member = vector.simulate_capacity_parking(op["a"], op["u"]).success
        prime = vector.simulate_capacity_parking(op["a"], vector.prime_reduction(op["u"])).success
        return [member, prime]
    if op["family"] == "pq":
        pair = pk.pq.PQPair(tuple(op["a"]), tuple(op["b"]))
        member = pk.pq.is_pq_pf_by_paths(pair)
        corners = (pk.core.Point(0, 0), pk.core.Point(pair.p, pair.q))
        prime = member and pk.core.common_points(pair.reflected_horizontal_path(), pair.vertical_path()) == corners
        return [member, prime]
    g = op["grid"]
    weights = pk.twodim.affine_weight_matrix(pk.twodim.AffineWeightSpec(*g))
    member = _bounded_forward(sorted(op["a"]), sorted(op["b"]), g)
    prime = pk.twodim.is_u_prime(op["a"], op["b"], weights, method="transform")
    return [member, prime]


def _bounded_forward(sa, sb, g) -> bool:
    """Forward reachability of (p, q) over admissible edges, from (0, 0)."""
    p, q = g[6], g[7]
    reach = [[False] * (q + 1) for _ in range(p + 1)]
    reach[0][0] = True
    for k in range(p + 1):
        for l in range(q + 1):
            if reach[k][l]:
                if k < p and sa[k] < _affine_u(g, k, l):
                    reach[k + 1][l] = True
                if l < q and sb[l] < _affine_v(g, k, l):
                    reach[k][l + 1] = True
    return reach[p][q]


def _closed_form(op: dict, pk) -> int:
    index = VARIANTS.index((op["prime"], op["increasing"]))
    family = op["family"]
    if family in ("classical", "vector"):
        s, b, n = (1, 1, op["n"]) if family == "classical" else (op["s"], op["b"], op["n"])
        v = pk.vector
        return (v.count_pf_arith, v.count_ipf_arith, v.count_ppf_arith, v.count_ippf_arith)[index](s, b, n)
    if family == "pq":
        m = pk.pq
        return (m.count_pq_pf, m.count_pq_ipf, m.count_pq_ppf, m.count_pq_ippf)[index](op["p"], op["q"])
    t = pk.twodim
    formula = (t.count_affine_pf, t.count_affine_ipf, t.count_affine_ppf, t.count_affine_ippf)[index]
    return formula(t.AffineWeightSpec(*op["grid"]))


def describe(workload: str, inputs: list, refs: list) -> dict:
    """Measured input properties the program's behaviour depends on."""
    if workload == "recognize":
        mix: dict = {}
        for op in inputs:
            mix[op["family"]] = mix.get(op["family"], 0) + 1
        members = sum(1 for member, _ in refs if member)
        return {"ops": len(inputs), "family_mix": mix, "member_share": members / len(inputs)}
    if workload == "verify-suites":
        return {"ops": len(inputs), "suites": [op["suite"] for op in inputs]}
    # A scalar count sweeps every sorted candidate once; a grid's four counts
    # share one sweep, as three of them hit the cache.
    counts = [value for ref in refs for value in (ref if isinstance(ref, list) else [ref])]
    return {
        "ops": len(inputs),
        "swept_candidates": sum(_sorted_candidates(op) for op in inputs),
        "counts_over_int64": sum(1 for value in counts if value >= 2**63),
    }


def _sorted_candidates(op: dict) -> int:
    family = op["family"]
    if family == "classical":
        shapes = [(op["n"], op["n"])]
    elif family == "vector":
        shapes = [(op["n"], op["s"] + op["b"] * (op["n"] - 1))]
    elif family == "pq":
        shapes = [(op["p"], op["q"] + 1), (op["q"], op["p"] + 1)]
    else:
        g = op["grid"]
        shapes = [(g[6], _affine_u(g, g[6], g[7])), (g[7], _affine_v(g, g[6], g[7]))]
    total = 1
    for length, bound in shapes:
        total *= comb(bound + length - 1, length)
    return total


# ---------------------------------------------------------------------------
# Worker side: arguments, the timed operation, and its check
# ---------------------------------------------------------------------------


def prepare(workload: str, inputs: list, pk) -> list:
    """Call arguments for the timed operations; twodim grids are built here."""
    if workload != "recognize":
        return inputs
    grids: dict = {}
    out = []
    for op in inputs:
        item = dict(op, a=tuple(op["a"]))
        if op["family"] in ("classical", "vector"):
            item["u"] = tuple(op["u"])
        else:
            item["b"] = tuple(op["b"])
        if op["family"] == "twodim":
            key = tuple(op["grid"])
            if key not in grids:
                grids[key] = pk.twodim.affine_weight_matrix(pk.twodim.AffineWeightSpec(*key))
            item["weights"] = grids[key]
        out.append(item)
    return out


def run_op(workload: str, item, pk):
    if workload == "recognize":
        return _recognize(item, pk)
    if workload == "verify-suites":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = pk.cli.main(["verify", "--suite", item["suite"], "--format", "json"])
        return code, out.getvalue()
    if workload == "oracle-grid":
        return _grid_counts(item, pk)
    return _oracle_count(item, pk)


def _recognize(item: dict, pk):
    family, a = item["family"], item["a"]
    if family in ("classical", "vector"):
        vector, u = pk.vector, item["u"]
        member = vector.is_vector_pf(a, u)
        prime = vector.is_prime_vector_pf(a, u)
        back = vector.compose(vector.decompose(a, u)) if member else None
        return member, prime, back
    if family == "pq":
        pq = pk.pq
        pair = pq.PQPair(a, item["b"])
        member = pq.is_pq_pf(pair)
        prime = pq.is_pq_prime(pair)
        back = pq.compose_pq(pq.decompose_pq(pair)) if member else None
        return member, prime, back
    twodim = pk.twodim
    member, witness = twodim.is_u_pf(a, item["b"], item["weights"])
    prime = twodim.is_u_prime(a, item["b"], item["weights"])
    return member, prime, witness


def _oracle_count(item: dict, pk) -> int:
    oracle, family = pk.oracle, item["family"]
    flags = (item["prime"], item["increasing"])
    if family == "classical":
        spec = oracle.FamilySpec("classical", *flags, n=item["n"])
    elif family == "vector":
        u = tuple(item["s"] + item["b"] * i for i in range(item["n"]))
        spec = oracle.FamilySpec("vector", *flags, u=u)
    else:
        spec = oracle.FamilySpec("pq", *flags, p=item["p"], q=item["q"])
    return oracle.count(spec, cap=ORACLE_CAP).count


def _grid_counts(item: dict, pk) -> list:
    """All four counts of one grid: the first sweeps, the rest hit the cache."""
    oracle = pk.oracle
    weights = pk.twodim.affine_weight_matrix(pk.twodim.AffineWeightSpec(*item["grid"]))
    return [
        oracle.count(oracle.FamilySpec("twodim", prime, increasing, weights=weights), cap=ORACLE_CAP).count
        for prime, increasing in item["variants"]
    ]


def check(workload: str, item, result, reference) -> bool:
    if workload == "verify-suites":
        code, stdout = result
        return code == 0 and hashlib.sha256(stdout.encode()).hexdigest() == reference
    if workload != "recognize":
        return result == reference
    member, prime, extra = result
    if [member, prime] != reference:
        return False
    family = item["family"]
    if family in ("classical", "vector"):
        return extra == ((item["a"], item["u"]) if member else None)
    if family == "pq":
        return (extra.a, extra.b) == (item["a"], item["b"]) if member else extra is None
    return _witness_bounds(extra, item) if member else extra is None


def known_failure(workload: str, item, result, reference) -> bool:
    """Whether a failed operation is the int64 wrap the library had when the
    benchmark was defined, kept in ``oracle-grid`` as its baseline.

    Only the pf and ppf counts of ``OVERFLOW_GRIDS`` may be wrong, and only
    by a multiple of 2**64.  Any other failure makes the run incorrect.
    """
    if workload != "oracle-grid" or tuple(item["grid"]) not in OVERFLOW_GRIDS:
        return False
    if not isinstance(result, list) or len(result) != len(reference):
        return False
    for (prime, increasing), got, want in zip(item["variants"], result, reference):
        if got != want and (increasing or not isinstance(got, int) or (got - want) % 2**64):
            return False
    return True


def _witness_bounds(witness, item: dict) -> bool:
    """The witness path bounds the sorted pair and reports the grid's weights on it."""
    g, sa, sb = item["grid"], sorted(item["a"]), sorted(item["b"])
    p, q = g[6], g[7]
    k = l = 0
    east, north = [], []
    for step in witness.path.steps:
        if step == "E":
            if k >= p or sa[k] >= _affine_u(g, k, l):
                return False
            east.append(_affine_u(g, k, l))
            k += 1
        else:
            if l >= q or sb[l] >= _affine_v(g, k, l):
                return False
            north.append(_affine_v(g, k, l))
            l += 1
    return (k, l) == (p, q) and tuple(east) == witness.east_weights and tuple(north) == witness.north_weights


def rows_in(results: list) -> int:
    """verify-suites rows printed across the suite outputs of one pass."""
    return sum(len(json.loads(r[1])["rows"]) for r in results if isinstance(r, tuple) and r[0] == 0 and r[1])
