"""Count the code lines of Python sources, per file and in total.

A code line holds at least one token that is not a comment or layout
token (newline, indent, dedent, end marker) and is not part of a module,
class or function docstring.  Blank lines, comment lines and docstrings
do not count; a line that continues a statement does.

Usage: ``python3 tools/code_lines.py PATH [PATH ...]``, where each PATH
is a ``.py`` file or a directory searched for them recursively.
"""

import ast
import io
import pathlib
import sys
import tokenize

LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree):
    """The line numbers that module, class and function docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path):
    """The number of code lines in the Python source file ``path``."""
    source = pathlib.Path(path).read_bytes()
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main(argv):
    if not argv:
        sys.exit("usage: python3 tools/code_lines.py PATH [PATH ...]")
    files = []
    for arg in map(pathlib.Path, argv):
        files.extend(sorted(arg.rglob("*.py")) if arg.is_dir() else [arg])
    total = 0
    for path in files:
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
