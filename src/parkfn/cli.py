"""Command-line front end.

Machine output (JSON or CSV) goes to stdout with sorted keys and no
timestamps, so fixed inputs produce byte-identical output; human-readable
progress and summaries go to stderr.  Exit codes: 0 success, 1 malformed
input, 2 internal disagreement from ``verify``, 3 search space over the cap.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import re
import sys
from functools import lru_cache
from importlib import resources
from itertools import product
from operator import itemgetter
from types import ModuleType
from typing import Callable, NamedTuple, Optional, Sequence

from . import oracle, pq, twodim, vector
from .core import json_ints
from .errors import DegenerateGrid, ParkfnError, SearchSpaceTooLarge
from .oracle import FamilySpec

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_DISAGREEMENT = 2
EXIT_TOO_LARGE = 3

SUITE_NAMES = ("classical", "vector-arith", "pq-small", "affine-2d")


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


_INTEGER = re.compile(r"-?[0-9]+")


def _int(text: str) -> int:
    """An integer flag: ASCII digits after an optional minus; ``1_0``, `` 2`` and ``+3`` are refused."""
    if not _INTEGER.fullmatch(text):
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    return int(text)


def _parse_int_list(text: str) -> tuple[int, ...]:
    """Comma-separated integers; an empty text is the empty list, which each flag's own rule refuses."""
    return tuple(_int(part) for part in text.split(",")) if text else ()


def _load_json(fh) -> object:
    """``json.load``; a document nested too deeply for the parser is malformed input (ValueError), not a RecursionError."""
    try:
        return json.load(fh)
    except RecursionError:
        raise ValueError("the JSON document is nested too deeply") from None


# The fields each family's instance must have; classical has u = (1, ..., n).
_INSTANCE_FIELDS = {"classical": ("a",), "vector": ("a", "u"), "pq": ("a", "b"), "twodim": ("a", "b")}


def _read_instance(args) -> dict:
    """The instance JSON object; it must have its family's fields, and its "a", "b" and "u" must be arrays of JSON integers."""
    if args.file:
        with open(args.file, "r", encoding="utf-8") as fh:
            data = _load_json(fh)
    else:
        data = _load_json(sys.stdin)
    if not isinstance(data, dict):
        raise ValueError(f"the instance must be a JSON object, got {type(data).__name__}")
    if missing := [key for key in _INSTANCE_FIELDS[args.family] if key not in data]:
        raise ValueError(f"the instance is missing field {missing[0]!r}")
    for key in ("a", "b", "u"):
        json_ints(data.get(key, []), repr(key))
    return data


def _vector_instance(family: str, data: dict) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(a, u) of a classical or vector instance; classical has u = (1, ..., n), by the classical rule on n = |a|."""
    a = tuple(data["a"])
    return a, (_arith_u(1, 1, len(a)) if family == "classical" else tuple(data["u"]))


def _resolve_cap(args) -> Optional[int]:
    if args.cap is not None:
        return args.cap
    env = os.environ.get("PARKFN_SEARCH_CAP")
    return _int(env) if env else None


# ---------------------------------------------------------------------------
# Family parameters and the closed-form table
# ---------------------------------------------------------------------------

_AFFINE_KEYS = ("a", "b", "c", "d", "s", "t", "p", "q")
_affine_values = itemgetter(*_AFFINE_KEYS)


# The flag sets each family's parameters are read from, in order of preference.
_FLAG_SETS = {"classical": (("n",),), "vector": (("s", "b", "n"), ("u",)), "pq": (("p", "q"),),
              "twodim": (("matrix_file",), ("affine", "p", "q"))}


def _params_from_args(args, sets: Sequence[tuple[str, ...]]) -> dict:
    """Family parameters from the first flag set of ``sets`` that is given in full; any other family flag given is
    refused.  With no sets, every family flag given is refused."""
    family_flags = dict.fromkeys(flag for family in _FLAG_SETS.values() for flags in family for flag in flags)
    given = {flag for flag in family_flags if getattr(args, flag, None) is not None}
    read = next((flags for flags in sets if given.issuperset(flags)), ())
    if sets and not read:
        options = (" ".join(f"--{flag}" for flag in flags) for flags in sets)
        raise ValueError(f"the {args.family} family needs {' or '.join(options).replace('_', '-')}")
    for flag in family_flags:
        if flag in given and flag not in read:
            raise ValueError(f"the {args.family} family takes no --{flag.replace('_', '-')}")
    params = {flag: getattr(args, flag) for flag in read}
    if "u" in params:
        params["u"] = _parse_int_list(params["u"])
    if "matrix_file" in params:
        with open(params.pop("matrix_file"), "r", encoding="utf-8") as fh:
            params["weights"] = twodim.WeightMatrix.from_json_dict(_load_json(fh))
    if "affine" in params:
        if len(coeffs := _parse_int_list(params.pop("affine"))) != 6:
            raise ValueError(f"--affine takes six comma-separated weights a,b,c,d,s,t, got {len(coeffs)}")
        params.update(zip(_AFFINE_KEYS, coeffs))
    return params


def _arith_u(s: int, b: int, n: int) -> tuple[int, ...]:
    """The boundary u_i = s + b*i, once the triple has passed the rule the closed forms check."""
    vector._check_arith(s, b, n)
    return tuple(s + b * i for i in range(n))


def _arith_args(params: dict) -> tuple[int, int, int]:
    """(s, b, n) of a vector boundary given by the triple or by an arithmetic u, which must be a capacity vector."""
    if "u" not in params:
        return params["s"], params["b"], params["n"]
    u = vector.validate_capacity(params["u"])
    s, b = u[0], (u[1] - u[0] if len(u) > 1 else 0)
    if _arith_u(s, b, len(u)) != u:
        raise ValueError(f"--u {u} is not an arithmetic progression; no closed form applies")
    return s, b, len(u)


def _affine(params: dict) -> twodim.AffineWeightSpec:
    if "weights" in params:
        raise ValueError("twodim closed forms need --affine a,b,c,d,s,t with --p and --q")
    return twodim.AffineWeightSpec(*_affine_values(params))


def _weights(params: dict) -> twodim.WeightMatrix:
    return params["weights"] if "weights" in params else twodim.affine_weight_matrix(_affine(params))


class _Family(NamedTuple):
    module: ModuleType
    formulas: tuple[str, str, str, str]  # closed-form names, in pf, ipf, ppf, ippf order
    formula_args: Callable[[dict], tuple]
    spec_kwargs: Callable[[dict], dict]  # FamilySpec keywords for the oracle


_ARITH_FORMULAS = ("count_pf_arith", "count_ipf_arith", "count_ppf_arith", "count_ippf_arith")

# Closed forms are named, not bound, so each call goes through the module
# attribute as it is at call time.
_FAMILIES = {
    "classical": _Family(
        vector, _ARITH_FORMULAS, lambda params: (1, 1, params["n"]), lambda params: {"n": params["n"]}
    ),
    "vector": _Family(
        vector,
        _ARITH_FORMULAS,
        _arith_args,
        lambda params: {"u": params["u"] if "u" in params else _arith_u(params["s"], params["b"], params["n"])},
    ),
    "pq": _Family(
        pq,
        ("count_pq_pf", "count_pq_ipf", "count_pq_ppf", "count_pq_ippf"),
        lambda params: (params["p"], params["q"]),
        lambda params: {"p": params["p"], "q": params["q"]},
    ),
    "twodim": _Family(
        twodim,
        ("count_affine_pf", "count_affine_ipf", "count_affine_ppf", "count_affine_ippf"),
        lambda params: (_affine(params),),
        lambda params: {"weights": _weights(params)},
    ),
}


def _formula(family: str, variant: int, formula_args: tuple) -> int:
    """Closed-form count; ``variant`` indexes (pf, ipf, ppf, ippf)."""
    entry = _FAMILIES[family]
    return getattr(entry.module, entry.formulas[variant])(*formula_args)


def _family_spec(family: str, variant: int, spec_kwargs: dict) -> FamilySpec:
    return FamilySpec(family, variant >= 2, variant % 2 == 1, **spec_kwargs)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_check(args) -> int:
    """Grid flags are read only for a twodim instance that embeds no grid; in every other case they are refused."""
    data = _read_instance(args)
    grid_from_flags = args.family == "twodim" and "U" not in data and "affine" not in data
    params = _params_from_args(args, _FLAG_SETS["twodim"] if grid_from_flags else ())
    if args.family in ("classical", "vector"):
        a, u = _vector_instance(args.family, data)
        out: dict = {"member": vector.is_vector_pf(a, u), "prime": vector.is_prime_vector_pf(a, u)}
    elif args.family == "pq":
        pair = pq.PQPair.from_json_dict(data)
        out = {"member": pq.is_pq_pf(pair), "prime": pq.is_pq_prime(pair)}
    else:
        if "U" in data:
            grid = twodim.WeightMatrix.from_json_dict(data["U"])
        elif "affine" in data:
            grid = twodim.AffineWeightSpec.from_json_dict(data["affine"])
        else:
            grid = params["weights"] if "weights" in params else _affine(params)
        a, b = tuple(data["a"]), tuple(data["b"])
        # checked before an affine grid's (p+1)(q+1) nodes are built
        twodim.check_pair_shape(a, b, grid.p, grid.q)
        weights = grid if isinstance(grid, twodim.WeightMatrix) else twodim.affine_weight_matrix(grid)
        member, witness = twodim.is_u_pf(a, b, weights)
        out = {"member": member, "prime": None}
        with contextlib.suppress(DegenerateGrid):  # a grid with an empty side has no primes
            out["prime"] = twodim.is_u_prime(a, b, weights, method="direct")
        if witness is not None:
            out["witness"] = witness.path.steps
    _emit(out)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    if args.family not in ("classical", "vector"):
        raise ValueError("simulate supports the classical and vector families")
    outcome = vector.simulate_capacity_parking(*_vector_instance(args.family, _read_instance(args)))
    _emit({"assignment": list(outcome.assignment)} if outcome.success else {"failed_car": outcome.failed_car})
    return EXIT_OK


def _cmd_decompose(args) -> int:
    data = _read_instance(args)
    if args.family in ("classical", "vector"):
        _emit(vector.decompose(*_vector_instance(args.family, data)).to_json_dict())
    elif args.family == "pq":
        _emit(pq.decompose_pq(pq.PQPair.from_json_dict(data)).to_json_dict())
    else:
        raise ValueError("decompose supports the classical, vector, and pq families")
    return EXIT_OK


def _cmd_count(args) -> int:
    family, params, variant = args.family, _params_from_args(args, _FLAG_SETS[args.family]), 2 * args.prime + args.increasing
    if args.method == "formula":
        if args.cap is not None:
            raise ValueError("count --method formula takes no --cap")
        print(_formula(family, variant, _FAMILIES[family].formula_args(params)))
    else:
        spec = _family_spec(family, variant, _FAMILIES[family].spec_kwargs(params))
        print(oracle.count(spec, cap=_resolve_cap(args)).count)
    return EXIT_OK


def _cmd_list(args) -> int:
    family, params = args.family, _params_from_args(args, _FLAG_SETS[args.family])
    spec = _family_spec(family, 2 * args.prime + args.increasing, _FAMILIES[family].spec_kwargs(params))
    for instance in oracle.enumerate_members(spec, cap=_resolve_cap(args)):
        _emit(dict(zip(("a", "b"), map(list, instance))))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------


def load_suite(name: str) -> dict:
    """The shipped manifest of a suite in ``SUITE_NAMES``; other names are refused, never joined into a path."""
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; available: {', '.join(SUITE_NAMES)}")
    return json.loads(resources.files("parkfn").joinpath(f"suites/{name}.json").read_text(encoding="utf-8"))


_QUANTITY_LABELS = ("pf", "ipf", "ppf", "ippf")
_ROW_FIELDS = ("family", "params", "quantity", "formula", "oracle", "pass")

# Suite grid family -> (its family in the closed-form table, grid keys in row order).
_GRIDS = {
    "classical": ("classical", ("n",)),
    "vector-arith": ("vector", ("s", "b", "n")),
    "pq": ("pq", ("p", "q")),
    "pq-ppf-sum": ("pq", ("p", "q")),
    "affine": ("twodim", _AFFINE_KEYS),
}


def expand_suite(manifest: dict):
    """Deterministically expand a suite manifest into its grid points.

    Each point is (family, params dict, quantities); the runner computes, for
    each quantity in order, the closed-form value and the reference value
    (oracle count, or the alternative formula for the ``ppf-sum`` points).
    """
    points = []
    for grid in manifest["grids"]:
        family = grid["family"]
        if family not in _GRIDS:
            raise ValueError(f"unknown grid family {family!r}")
        keys = _GRIDS[family][1]
        quantities = ("ppf-sum",) if family == "pq-ppf-sum" else tuple(grid["quantities"])
        points.extend((family, dict(zip(keys, values)), quantities) for values in product(*(grid[key] for key in keys)))
    return points


def _verify_rows(points, cap: Optional[int]) -> list[dict]:
    """The rows of the grid points, in order: one per quantity, formula against reference.

    A ``ppf-sum`` point's reference is the alternative formula; every other
    row's is its oracle count, and all of those are counted in one
    ``oracle.count_many`` call, so grids of one shape share a stacked sweep.
    Only the specs are held across that call; the closed forms are evaluated
    after it, in the walk that builds the rows.  A point's FamilySpec
    keywords serve all its quantities: an affine point builds one WeightMatrix.
    """
    specs = []
    for family, params, quantities in points:
        if family != "pq-ppf-sum":
            name = _GRIDS[family][0]
            spec_kwargs = _FAMILIES[name].spec_kwargs(params)
            specs += (_family_spec(name, _QUANTITY_LABELS.index(quantity), spec_kwargs) for quantity in quantities)
    counts = iter([report.count for report in oracle.count_many(specs, cap=cap)])
    del specs  # freed before the rows are built
    rows = []
    for family, params, quantities in points:
        if family == "pq-ppf-sum":
            values = [(pq.count_pq_ppf(params["p"], params["q"]), pq.count_pq_ppf_sum(params["p"], params["q"]))]
        else:
            name = _GRIDS[family][0]
            formula_args = _FAMILIES[name].formula_args(params)
            values = [(_formula(name, _QUANTITY_LABELS.index(quantity), formula_args), next(counts)) for quantity in quantities]
        text = ";".join(f"{key}={value}" for key, value in params.items())
        for quantity, (formula, reference) in zip(quantities, values):
            rows.append(dict(zip(_ROW_FIELDS, (family, text, quantity, formula, reference, formula == reference))))
    return rows


def _cmd_verify(args) -> int:
    manifest = load_suite(args.suite)
    results = _verify_rows(expand_suite(manifest), _resolve_cap(args))
    passed = sum(1 for row in results if row["pass"])
    all_pass = passed == len(results)
    if args.format == "json":
        _emit({"suite": manifest["name"], "version": manifest["version"], "rows": results, "all_pass": all_pass})
    else:
        writer = csv.DictWriter(sys.stdout, fieldnames=_ROW_FIELDS)
        writer.writeheader()
        for row in results:
            writer.writerow(row)
    print(f"suite {manifest['name']}: {passed}/{len(results)} rows pass", file=sys.stderr)
    return EXIT_OK if all_pass else EXIT_DISAGREEMENT


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """Each command registers only the options it reads, and its handler as ``run``; the groups it shares are written
    once, as parents.  Built on the first call, not at import, and kept: parsing leaves it unchanged, so every later
    ``main`` in the process reuses it."""
    family = argparse.ArgumentParser(add_help=False)
    family.add_argument("--family", required=True, choices=tuple(_FLAG_SETS))
    instance = argparse.ArgumentParser(add_help=False, parents=[family])
    instance.add_argument("--file", help="instance JSON (defaults to stdin)")
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--p", type=_int, help="pair shape p")
    grid.add_argument("--q", type=_int, help="pair shape q")
    grid.add_argument("--affine", help="six comma-separated affine weights a,b,c,d,s,t")
    grid.add_argument("--matrix-file", help="JSON weight grid {p,q,nodes}")
    counted = argparse.ArgumentParser(add_help=False, parents=[family, grid])
    counted.add_argument("--n", type=_int, help="length (classical, or arithmetic vector boundary)")
    counted.add_argument("--u", help="comma-separated capacity vector, e.g. 1,2,4")
    counted.add_argument("--s", type=_int, help="arithmetic boundary start u_i = s + b*i")
    counted.add_argument("--b", type=_int, help="arithmetic boundary step")
    counted.add_argument("--prime", action="store_true")
    counted.add_argument("--increasing", action="store_true")
    capped = argparse.ArgumentParser(add_help=False)
    capped.add_argument("--cap", type=_int, help="candidate cap (overrides PARKFN_SEARCH_CAP)")

    parser = argparse.ArgumentParser(prog="parkfn", description="Parking-function toolkit: check, simulate, decompose, count, list, verify.")
    subs = parser.add_subparsers(dest="command", required=True)
    subs.add_parser("check", parents=[instance, grid]).set_defaults(run=_cmd_check)
    subs.add_parser("simulate", parents=[instance]).set_defaults(run=_cmd_simulate)
    subs.add_parser("decompose", parents=[instance]).set_defaults(run=_cmd_decompose)
    count_p = subs.add_parser("count", parents=[counted, capped])
    count_p.add_argument("--method", choices=("formula", "oracle"), default="formula")
    count_p.set_defaults(run=_cmd_count)
    subs.add_parser("list", parents=[counted, capped]).set_defaults(run=_cmd_list)
    verify_p = subs.add_parser("verify", parents=[capped])
    verify_p.add_argument("--suite", required=True)
    verify_p.add_argument("--format", choices=("csv", "json"), default="csv")
    verify_p.set_defaults(run=_cmd_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command and return its exit code.

    Python's limit on the digits of an int<->str conversion (3.10.7 on) is
    lifted while it runs, so exact integers of any length pass through flags,
    JSON and output, and put back on return: ``main`` may run in-process.
    """
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        if any(isinstance(value, list) for value in vars(args).values()):  # argparse reads "--flag=--" as []
            parser.error("an option was given '--' as its value")
        return args.run(args)
    except SearchSpaceTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except (ParkfnError, ValueError, argparse.ArgumentTypeError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    raise SystemExit(main())
