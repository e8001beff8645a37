"""The README's Library example runs, and its value comments are the values."""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"

# a comment that starts with a Python value, not with prose
VALUE = re.compile(r"[\[(\d]|(True|False)\b")


def library_example() -> str:
    """The one `python` code block of the README, under "## Library"."""
    text = README.read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    assert text.index("## Library") < text.index(blocks[0])
    return blocks[0]


def test_library_example_values_begin_their_comments():
    """Each statement runs in order; an expression whose comment starts with
    a value must have a repr that begins the comment.  Assignments and
    prose comments only run."""
    code = library_example()
    comments = {
        tok.start[0]: tok.string[1:].strip()
        for tok in tokenize.generate_tokens(io.StringIO(code).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(code).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        comment = comments.get(stmt.end_lineno, "")
        if VALUE.match(comment):
            assert comment.startswith(repr(value)), (ast.unparse(stmt), value, comment)
            checked += 1
    assert checked == 5  # c.facets, the f-vector, χ, the first masks, the family check
