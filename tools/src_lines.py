"""Print the physical and code line counts of ``src/parkfn/*.py``, then the code lines of each file.

Physical lines are what ``wc -l`` counts.  A code line is one on which some
token lies other than a comment, NL, NEWLINE, INDENT, DEDENT or ENDMARKER,
leaving out a string token that begins a logical line (a docstring or bare
string statement).  A token spanning several lines lies on each of them.

Run from anywhere: ``python3 tools/src_lines.py``.
"""

from __future__ import annotations

import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "parkfn"
_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def statements(text: str) -> list[set[int]]:
    """The code lines of ``text``, as the module docstring defines them, grouped by logical line, in order.

    A logical line is a simple statement or a compound statement's header,
    however many physical lines it spans.
    """
    groups: list[set[int]] = [set()]
    starts_logical = True
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in _SKIPPED:
            if tok.type == tokenize.NEWLINE:
                starts_logical = True
                groups.append(set())
            continue
        if not (tok.type == tokenize.STRING and starts_logical):
            groups[-1].update(range(tok.start[0], tok.end[0] + 1))
        starts_logical = False
    return [group for group in groups if group]


def code_lines(text: str) -> int:
    """Number of lines of ``text`` that carry code."""
    return sum(map(len, statements(text)))


def main() -> None:
    paths = sorted(SRC.glob("*.py"))
    texts = [path.read_text() for path in paths]
    physical = sum(text.count("\n") for text in texts)
    code = [code_lines(text) for text in texts]
    print(f"physical {physical}")
    print(f"code {sum(code)}")
    for path, lines in zip(paths, code):
        print(f"code {path.name} {lines}")


if __name__ == "__main__":
    main()
