"""Span tracing from outside the library, and the per-layer metrics it yields.

``install`` wraps public functions at every name callers look them up by
(``parkfn.oracle.is_pq_pf`` as well as ``parkfn.pq.is_pq_pf``), so no file of
the library changes.  Each call records a span: name, start, end, parent span
and the benchmark operation it belongs to.  Spans stay in flat in-memory
arrays until the pass ends; ``save`` then writes them out.

This module must not import numpy or parkfn at import time: the worker
imports it before it times ``import parkfn``.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
from array import array

# Predicates the oracle calls once per swept candidate.
PREDICATES = (
    "vector.is_vector_pf",
    "vector.is_prime_vector_pf",
    "pq.is_pq_pf",
    "pq.is_pq_prime",
    "twodim.is_u_pf",
    "twodim.is_u_prime",
)

FORMULAS = {
    "vector.formulas": ("count_pf_arith", "count_ipf_arith", "count_ppf_arith", "count_ippf_arith"),
    "pq.formulas": ("count_pq_pf", "count_pq_ipf", "count_pq_ppf", "count_pq_ippf", "count_pq_ppf_sum"),
    "twodim.formulas": ("count_affine_pf", "count_affine_ipf", "count_affine_ppf", "count_affine_ippf"),
}

EXACT = ("binomial", "rising_factorial", "power", "as_integer")

COUNT_SCALAR = "oracle.count_scalar"
COUNT_TWODIM = "oracle.count_twodim"


class Tracer:
    """Records spans of wrapped calls in one thread."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.outcome = array("b")  # 1/0 for a predicate's answer, -1 otherwise
        self.op_id = -1
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, outcome=None):
        """``fn`` recording one span per call; ``outcome`` maps a result to 0/1."""
        nid = self.name_id(name)
        start, end, names, parents, ops, outcomes = (
            self.start, self.end, self.name, self.parent, self.op, self.outcome
        )
        stack, clock, tracer = self._stack, time.perf_counter_ns, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(tracer.op_id)
            outcomes.append(-1)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if outcome is not None:
                outcomes[idx] = outcome(result)
            return result

        return wrapper

    def save(self, path) -> None:
        import numpy as np  # loaded by parkfn already when a pass ends

        np.savez(
            path,
            names=np.array(self.names),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            outcome=np.frombuffer(self.outcome, dtype=np.int8),
        )


def install(tracer: Tracer, pk) -> None:
    """Wrap the library's public functions in every module that looks them up."""
    core, vector, pq, twodim, exact, oracle, cli = (
        pk.core, pk.vector, pk.pq, pk.twodim, pk.exact, pk.oracle, pk.cli
    )

    def patch(module, attr, modules, outcome=None):
        wrapped = tracer.wrap(f"{module.__name__.rsplit('.', 1)[1]}.{attr}", getattr(module, attr), outcome)
        for target in modules:
            setattr(target, attr, wrapped)

    patch(core, "as_seq", (core, vector, pq, twodim))
    patch(core, "common_points", (core, pq))
    patch(vector, "validate_capacity", (vector, oracle))
    for attr in ("is_vector_pf", "is_prime_vector_pf"):
        patch(vector, attr, (vector, oracle), outcome=int)
    for attr in ("is_pq_pf", "is_pq_prime"):
        patch(pq, attr, (pq, oracle), outcome=int)
    patch(twodim, "is_u_pf", (twodim, oracle), outcome=lambda result: int(result[0]))
    patch(twodim, "is_u_prime", (twodim, oracle), outcome=int)
    for attr in ("decompose", "compose"):
        patch(vector, attr, (vector,))
    for attr in ("decompose_pq", "compose_pq"):
        patch(pq, attr, (pq,))
    patch(twodim, "affine_weight_matrix", (twodim,))
    for group, attrs in FORMULAS.items():
        module = getattr(pk, group.split(".")[0])
        for attr in attrs:
            patch(module, attr, (module,))
    for attr in EXACT:
        patch(exact, attr, (exact,))
    patch(cli, "main", (cli,))
    pq.PQPair.__init__ = tracer.wrap("pq.PQPair", pq.PQPair.__init__)
    oracle.FamilySpec.__init__ = tracer.wrap("oracle.FamilySpec", oracle.FamilySpec.__init__)
    oracle.count = _traced_count(tracer, oracle.count)


def _traced_count(tracer: Tracer, count):
    """``oracle.count`` as a scalar-sweep or a twodim-sweep span."""
    scalar = tracer.wrap(COUNT_SCALAR, count)
    twodim = tracer.wrap(COUNT_TWODIM, count)

    @functools.wraps(count)
    def traced(spec, *args, **kwargs):
        return (twodim if spec.family == "twodim" else scalar)(spec, *args, **kwargs)

    return traced


def install_alloc_probe(peaks: list, pk) -> None:
    """Record the peak traced allocation of every twodim ``oracle.count`` call.

    tracemalloc slows every allocation, so it runs only around these calls
    and in a pass of its own, where no span times are taken.
    """
    count = pk.oracle.count

    @functools.wraps(count)
    def probed(spec, *args, **kwargs):
        if spec.family != "twodim":
            return count(spec, *args, **kwargs)
        tracemalloc.start()
        try:
            return count(spec, *args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    pk.oracle.count = probed


def self_times(start, end, parent) -> array:
    """Each span's duration minus the part of it that its children cover.

    Spans come in order of start time, so every parent precedes its children
    and the children of one parent arrive in start order.  ``covered_to[p]``
    is the latest end of p's children seen so far: the part of a child inside
    p and past that point is new coverage.
    """
    own = array("q", (e - s for s, e in zip(start, end)))
    covered_to = array("q", start)
    for i, p in enumerate(parent):
        if p < 0:
            continue
        lo = max(start[i], covered_to[p])
        hi = min(end[i], end[p])
        if hi > lo:
            own[p] -= hi - lo
            covered_to[p] = hi
    return own


def layer_metrics(tracer: Tracer, ops: int, rows: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass of ``ops`` operations.

    ``rows`` is the number of verify rows the pass printed (0 elsewhere).
    Times are in seconds or microseconds; a layer that did no work reports 0.
    ``oracle.count_twodim.calls`` tells the caller whether an allocation
    probe pass is worth running.
    """
    names = tracer.names
    calls = [0] * len(names)
    inclusive = [0] * len(names)
    own = [0] * len(names)
    own_times = self_times(tracer.start, tracer.end, tracer.parent)
    counts = {tracer.name_id(COUNT_SCALAR), tracer.name_id(COUNT_TWODIM)}
    predicates = {tracer.name_id(name) for name in PREDICATES}
    swept = members = 0
    for i, nid in enumerate(tracer.name):
        calls[nid] += 1
        inclusive[nid] += tracer.end[i] - tracer.start[i]
        own[nid] += own_times[i]
        if nid in predicates and tracer.parent[i] >= 0 and tracer.name[tracer.parent[i]] in counts:
            swept += 1
            members += tracer.outcome[i] == 1

    def n_calls(name):
        return calls[tracer.name_id(name)]

    def us_per_call(name):
        nid = tracer.name_id(name)
        return inclusive[nid] / calls[nid] / 1e3 if calls[nid] else 0.0

    def self_s(*group):
        return sum(own[tracer.name_id(name)] for name in group) / 1e9

    out = {
        "core.as_seq.calls_per_op": n_calls("core.as_seq") / ops,
        "vector.validate_capacity.calls_per_op": n_calls("vector.validate_capacity") / ops,
        "core.common_points.us_per_call": us_per_call("core.common_points"),
    }
    for name in (
        "vector.is_vector_pf", "vector.is_prime_vector_pf", "vector.decompose", "vector.compose",
        "pq.PQPair", "pq.is_pq_pf", "pq.is_pq_prime", "pq.decompose_pq", "pq.compose_pq",
        "twodim.is_u_pf", "twodim.is_u_prime", "twodim.affine_weight_matrix",
    ):
        out[f"{name}.calls"] = n_calls(name)
        out[f"{name}.us_per_call"] = us_per_call(name)
    for group, attrs in FORMULAS.items():
        module = group.split(".")[0]
        out[f"{group}.self_s"] = self_s(*(f"{module}.{attr}" for attr in attrs))
    out["exact.self_s"] = self_s(*(f"exact.{attr}" for attr in EXACT))
    out["oracle.FamilySpec.us_per_call"] = us_per_call("oracle.FamilySpec")
    out["oracle.count_scalar.self_s"] = self_s(COUNT_SCALAR)
    out["oracle.count.swept"] = swept
    out["oracle.count.member_ratio"] = members / swept if swept else 0.0
    out["oracle.count_twodim.self_s"] = self_s(COUNT_TWODIM)
    out["oracle.count_twodim.calls"] = n_calls(COUNT_TWODIM)
    cli_self = self_s("cli.main")
    out["cli.main.self_s"] = cli_self
    out["cli.main.us_per_row"] = cli_self / rows * 1e6 if rows else 0.0
    return out
