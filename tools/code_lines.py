"""Count the lines of code in each module of src/recurgaps, and in total.

A line counts when it holds a token other than a comment, a docstring (a
string literal that is a whole statement) or layout (NL, NEWLINE, INDENT,
DEDENT, ENDMARKER).  A token spanning several lines, such as a
triple-quoted string on the right of an assignment, counts on each.

    python tools/code_lines.py [DIRECTORY]

DIRECTORY defaults to src/recurgaps of the checkout that holds this script.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The number of lines of path that hold code."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []  # the logical line so far
    with tokenize.open(path) as fh:
        for tok in tokenize.generate_tokens(fh.readline):
            if tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
                if any(t.type != tokenize.STRING for t in statement):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
            elif tok.type not in _LAYOUT:
                statement.append(tok)
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else (
        Path(__file__).resolve().parent.parent / "src" / "recurgaps")
    total = 0
    for path in sorted(root.glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
