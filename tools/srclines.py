"""Line counts of the msvar sources, per module and in total.

    python3 tools/srclines.py [SRC_DIR]

SRC_DIR defaults to src/msvar of the checkout this script sits in. For each
module it prints `wc -l` (newline characters) and the code-only lines: lines
that hold a token other than a comment, a newline, an indent or a docstring.
A docstring is a string statement that opens a module, class or function
body; such lines are counted by the tokenize module, not by pattern.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(source):
    """Line numbers covered by the docstrings of a module's bodies."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """Number of lines holding a token that is not a comment, a layout token
    or part of a docstring."""
    docs = docstring_lines(source)
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            code.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in docs)
    return len(code)


def main(argv):
    src = Path(argv[0]) if argv else ROOT / "src" / "msvar"
    total_wc = total_code = 0
    for path in sorted(src.glob("*.py")):
        source = path.read_text()
        wc, code = source.count("\n"), code_lines(source)
        total_wc, total_code = total_wc + wc, total_code + code
        print(f"{path.name:<16}{wc:>7}{code:>7}")
    print(f"{'total':<16}{total_wc:>7}{total_code:>7}")


if __name__ == "__main__":
    main(sys.argv[1:])
