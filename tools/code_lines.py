"""Count the code lines of Python files: lines that hold a token other than
a comment, a docstring or a line break.  A docstring is a string that is a
whole statement by itself; a string inside code counts on every line it
spans.

Usage: python tools/code_lines.py PATH [PATH ...]   (files or directories)
"""

import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines of one file's source."""
    lines = set()
    statement = []  # the current logical line's tokens, layout left out
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
        elif tok.type not in _LAYOUT:
            statement.append(tok)
    return len(lines)


def main(argv) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 1
    files = [f for p in map(Path, argv) for f in (sorted(p.rglob("*.py")) if p.is_dir() else [p])]
    print(sum(code_lines(f.read_text(encoding="utf-8")) for f in files))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
