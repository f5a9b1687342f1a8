"""Print the code lines of each module of ``src/effham`` and their total.

A code line is non-blank, is not a comment and lies outside every module,
class and function docstring. Run from the repository root:
``python tools/code_lines.py``.
"""

import ast
import pathlib

total = 0
for path in sorted(pathlib.Path(__file__).resolve().parent.parent.glob("src/effham/*.py")):
    text = path.read_text(encoding="utf-8")
    skip = set()
    for node in ast.walk(ast.parse(text)):
        body = getattr(node, "body", None)
        if (isinstance(body, list) and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str)):
            skip.update(range(body[0].lineno, body[0].end_lineno + 1))
    count = sum(1 for number, line in enumerate(text.splitlines(), 1)
                if line.strip() and not line.strip().startswith("#") and number not in skip)
    total += count
    print(f"{path.name:16} {count:5}")
print(f"{'total':16} {total:5}")
