"""Count the code lines of the package, module by module.

A code line holds a token other than a comment, a newline, an indent or a
dedent; the lines of module, class and function docstrings do not count.

    python3 tools/code_lines.py [FILE.py ...]   # default: src/altwronsk/*.py
"""

import ast
import pathlib
import sys
import tokenize

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: pathlib.Path) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, OWNERS) and ast.get_docstring(node):
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    lines = set()
    with path.open("rb") as source:
        for token in tokenize.tokenize(source.readline):
            if token.type not in SKIPPED:
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(paths: list[str]) -> None:
    root = pathlib.Path(__file__).resolve().parent.parent
    files = [pathlib.Path(p) for p in paths] or sorted(
        (root / "src" / "altwronsk").glob("*.py"))
    counts = {path.stem: code_lines(path) for path in files}
    for name, count in sorted(counts.items(), key=lambda item: -item[1]):
        print(f"{name:<14}{count:>6}")
    print(f"{'total':<14}{sum(counts.values()):>6}")


if __name__ == "__main__":
    main(sys.argv[1:])
