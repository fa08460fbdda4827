"""Line counts of the package modules, as a Markdown table.

Reports all lines and code lines (neither blank, comment nor docstring) of
each ``src/chbez/*.py`` module; this is the count the roadmap tracks.  Run
from the root of the repository: ``python3 tools/line_count.py``.  It only
reports and never fails on a count.
"""

import ast, glob

rows = []
for path in sorted(glob.glob("src/chbez/*.py")):
    text = open(path).read()
    lines = text.splitlines()
    skip = {i for i, line in enumerate(lines, 1) if line.strip()[:1] in ("", "#")}
    for node in ast.walk(ast.parse(text)):
        kinds = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        first = node.body[0] if isinstance(node, kinds) and node.body else None
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                and isinstance(first.value.value, str):
            skip.update(range(first.lineno, first.end_lineno + 1))
    rows.append((path, len(lines), len(lines) - len(skip)))
print("| module | lines | code lines |\n| --- | ---: | ---: |")
for path, total, code in rows:
    print(f"| `{path}` | {total} | {code} |")
print(f"| total | {sum(r[1] for r in rows)} | {sum(r[2] for r in rows)} |")
