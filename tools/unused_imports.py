"""Imports that a package module binds but never reads.

Parses each ``src/chbez/*.py`` module and lists every name an ``import``
binds that the module never reads, unless the name is in the module's
``__all__`` as it is at run time (a deliberate re-export).  Exits 1 if it
lists any.  Run from the root of the repository, with numpy installed:
``python3 tools/unused_imports.py``.
"""

import ast, glob, importlib, pathlib, sys

sys.path.insert(0, "src")
unused = []
for path in sorted(glob.glob("src/chbez/*.py")):
    tree = ast.parse(open(path).read())
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    stem = pathlib.Path(path).stem
    module = importlib.import_module("chbez" if stem == "__init__" else f"chbez.{stem}")
    exported = set(getattr(module, "__all__", ()))
    unused += [f"{path}:{line}: {name}" for name, line in sorted(bound.items(), key=lambda x: x[1])
               if name not in read and name not in exported]
print("\n".join(unused) or "no unused imports")
sys.exit(1 if unused else 0)
