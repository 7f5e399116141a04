#!/usr/bin/env python3
"""Count "tokenizer lines carrying code": the size ruler the PRs quote.

A line counts when it holds at least one token that is not a comment,
a newline, an indent/dedent, or a string in docstring position (a
statement that is nothing but string literals).

    python tools/code_lines.py PATH...    # per-file counts and the total
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def code_lines(path: Path) -> int:
    """Number of lines of ``path`` that carry code."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    with tokenize.open(path) as handle:
        for token in tokenize.generate_tokens(handle.readline):
            if token.type == tokenize.NEWLINE:
                if any(t.type != tokenize.STRING for t in statement):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
            elif token.type not in _LAYOUT:
                statement.append(token)
    return len(lines)


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python tools/code_lines.py PATH...", file=sys.stderr)
        return 2
    files = sorted(
        file
        for arg in map(Path, argv)
        for file in ([arg] if arg.is_file() else arg.rglob("*.py"))
    )
    counts = {file: code_lines(file) for file in files}
    for file, count in counts.items():
        print(f"{count:7d}  {file}")
    print(f"{sum(counts.values()):7d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
