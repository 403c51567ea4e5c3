"""Print the code lines of ``src/parkfn/*.py`` that no benchmark workload and no CLI command runs.

Under ``sys.settrace``, limited to files under ``src/parkfn`` and started
before ``parkfn`` is imported, the tool runs:

- one pass of every workload in ``bench/workloads.py`` at ``--seed``: its
  inputs, references, prepared arguments, each operation and its check, all
  through the bench's own functions, which it only calls;
- one ``parkfn.cli.main`` call for each entry of ``CLI_CALLS``: every
  subcommand with every family, and ``verify`` with every suite.

A code line is one ``tools/src_lines.py`` counts.  A statement counts as run
if any of its lines ran; one that compiles to no bytecode (``else:``,
``try:``) counts as run if the statement after it did.  Lines are the unit,
not branches: a statement holding a conditional expression counts as run if
either arm ran, so an arm that never runs is not listed (``sys.settrace``
line events cannot tell the arms apart).  For each file with
such lines the tool prints ``<file> <unrun> of <code> code lines never
ran`` and then each of those lines with its number; a last line gives the
totals.  A workload operation whose check fails is named on stderr.

Run from anywhere (about a minute on a 2-core VM)::

    python3 tools/unrun_lines.py --seed 1
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "parkfn"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "tools")]

import src_lines  # noqa: E402
import workloads  # noqa: E402  (imports no parkfn)

MODULES = ("core", "vector", "pq", "twodim", "exact", "oracle", "cli")

_PQ_INSTANCE = '{"a": [0, 1], "b": [1, 0]}'
_VECTOR_INSTANCE = '{"a": [2, 0, 1], "u": [1, 2, 3]}'
_TWODIM_INSTANCE = '{"a": [0, 1], "b": [0]}'
_TWODIM_GRID = ["--affine", "0,1,1,0,1,1", "--p", "2", "--q", "1"]

# (argv, instance JSON read as --file, or None)
CLI_CALLS = (
    (["check", "--family", "classical"], '{"a": [0, 2, 0]}'),
    (["check", "--family", "vector"], _VECTOR_INSTANCE),
    (["check", "--family", "pq"], _PQ_INSTANCE),
    (["check", "--family", "twodim", *_TWODIM_GRID], _TWODIM_INSTANCE),
    (["check", "--family", "twodim"], '{"a": [0, 1], "b": [0], "affine": {"a": 0, "b": 1, "c": 1, "d": 0, "s": 1, "t": 1, "p": 2, "q": 1}}'),
    (["simulate", "--family", "classical"], '{"a": [0, 2, 0]}'),
    (["simulate", "--family", "vector"], _VECTOR_INSTANCE),
    (["simulate", "--family", "pq"], _PQ_INSTANCE),
    (["simulate", "--family", "twodim"], _TWODIM_INSTANCE),
    (["decompose", "--family", "classical"], '{"a": [0, 2, 0]}'),
    (["decompose", "--family", "vector"], _VECTOR_INSTANCE),
    (["decompose", "--family", "pq"], _PQ_INSTANCE),
    (["decompose", "--family", "twodim"], _TWODIM_INSTANCE),
    (["count", "--family", "classical", "--n", "4"], None),
    (["count", "--family", "vector", "--s", "2", "--b", "1", "--n", "3", "--prime"], None),
    (["count", "--family", "vector", "--u", "1,3,5"], None),
    (["count", "--family", "pq", "--p", "2", "--q", "3", "--increasing", "--method", "oracle"], None),
    (["count", "--family", "twodim", *_TWODIM_GRID, "--prime", "--method", "oracle"], None),
    (["count", "--family", "twodim", "--affine", "0,0,0,0,2,0", "--p", "2", "--q", "0", "--method", "formula"], None),
    # a streamed one-entry a-side (5001 rows) in a sweep past one block of sorted pairs: the grid sweeps it whole,
    # its prime companion, apart, keeps only the row below its top, (0,)
    (["count", "--family", "twodim", "--affine", "0,5000,99,0,1,1", "--p", "1", "--q", "1", "--prime", "--method",
      "oracle"], None),
    # u(0, 1) = 0 below a corner of 5: the a-side's bound is the last east edge's weight, 0, so the space is 0 and
    # the spec is counted by predicate, with no sweep
    (["count", "--family", "twodim", "--affine", "5,0,1,1,0,1", "--p", "1", "--q", "1", "--method", "oracle"], None),
    # a kept b-side (2002 rows, 1638 live) in a sweep of more than one block of sorted pairs: masked, laid out
    # anew, and the prime companion swept apart on its own 429 live rows
    (["count", "--family", "twodim", "--affine", "1,1,1,1,1,1", "--p", "5", "--q", "5", "--method", "oracle",
      "--cap", "1000000000000"], None),
    # two refusals, each exit 1: a negative cap, and a closed form's size out of range
    (["count", "--family", "classical", "--n", "3", "--method", "oracle", "--cap", "-1"], None),
    (["count", "--family", "classical", "--n", "0"], None),
    (["list", "--family", "classical", "--n", "2"], None),
    (["list", "--family", "vector", "--u", "1,1,3", "--prime"], None),
    (["list", "--family", "pq", "--p", "1", "--q", "2", "--increasing"], None),
    (["list", "--family", "twodim", *_TWODIM_GRID], None),
    (["verify", "--suite", "classical"], None),
    (["verify", "--suite", "vector-arith", "--format", "json"], None),
    (["verify", "--suite", "pq-small"], None),
    (["verify", "--suite", "affine-2d", "--format", "json"], None),
)


def traced_lines(seed: int) -> dict[str, set[int]]:
    """Lines of each ``src/parkfn`` file that ran during the workload passes and the CLI calls."""
    hits: dict[str, set[int]] = defaultdict(set)
    prefix = str(SRC) + "/"

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(on_call)
    try:
        pk = SimpleNamespace(**{name: importlib.import_module(f"parkfn.{name}") for name in MODULES})
        if not Path(pk.core.__file__).resolve().is_relative_to(SRC):
            raise SystemExit(f"error: imported parkfn from {pk.core.__file__}, not from {SRC}")
        for name in workloads.WORKLOADS:
            inputs = workloads.make_inputs(name, seed)
            refs = workloads.references(name, inputs, pk)
            for i, (item, ref) in enumerate(zip(workloads.prepare(name, inputs, pk), refs)):
                if not workloads.check(name, item, workloads.run_op(name, item, pk), ref):
                    print(f"{name} op {i} failed its check", file=sys.stderr)
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for i, (argv, instance) in enumerate(CLI_CALLS):
                if instance is not None:
                    path = Path(tmp, f"instance{i}.json")
                    path.write_text(instance, encoding="utf-8")
                    argv = [*argv, "--file", str(path)]
                pk.cli.main(argv)
    finally:
        sys.settrace(None)
    return hits


def executable_lines(text: str, path: Path) -> set[int]:
    """Lines that carry bytecode in the module or any code object nested in it."""
    lines, codes = set(), [compile(text, str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        codes.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def unrun(text: str, path: Path, hits: set[int]) -> list[int]:
    """The code lines of the statements that never ran, in order."""
    executable, out, ran = executable_lines(text, path), [], True
    for statement in reversed(src_lines.statements(text)):
        ran = bool(statement & hits) if statement & executable else ran
        if not ran:
            out.extend(statement)
    return sorted(out)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="seed of the workload inputs (default 1)")
    hits = traced_lines(parser.parse_args().seed)
    total_unrun = total_code = 0
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        lines, code = unrun(text, path, hits.get(str(path), set())), src_lines.code_lines(text)
        total_unrun, total_code = total_unrun + len(lines), total_code + code
        if lines:
            print(f"{path.name} {len(lines)} of {code} code lines never ran")
            source = text.splitlines()
            for line in lines:
                print(f"  {line:4d}  {source[line - 1].strip()}")
    print(f"total {total_unrun} of {total_code} code lines never ran")


if __name__ == "__main__":
    main()
