"""Imports that a package module binds but never reads, and private names nothing reads.

Parses each ``src/chbez/*.py`` module and lists:

- every name an ``import`` binds that the module never reads, unless the
  name is in the module's ``__all__`` as it is at run time (a deliberate
  re-export);
- every module-level private function, class or constant (a ``_name``
  that is not a dunder) that no ``src/chbez`` module reads, whether by
  name, as an attribute or through ``from ... import``.

Exits 1 if it lists any.  Run from the root of the repository, with numpy
installed: ``python3 tools/unused_imports.py``.
"""

import ast, glob, importlib, pathlib, sys

sys.path.insert(0, "src")
unused, private, read_anywhere = [], [], set()
for path in sorted(glob.glob("src/chbez/*.py")):
    tree = ast.parse(open(path).read())
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            read_anywhere.update(alias.name for alias in node.names)
            if node.module == "__future__":
                continue
        if isinstance(node, ast.Attribute):
            read_anywhere.add(node.attr)
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    read_anywhere |= read
    stem = pathlib.Path(path).stem
    module = importlib.import_module("chbez" if stem == "__init__" else f"chbez.{stem}")
    exported = set(getattr(module, "__all__", ()))
    unused += [f"{path}:{line}: {name}" for name, line in sorted(bound.items(), key=lambda x: x[1])
               if name not in read and name not in exported]
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            names = []
        private += [(f"{path}:{node.lineno}: {name} (private, never read)", name) for name in names
                    if name.startswith("_") and not name.startswith("__")]
unused += [line for line, name in private if name not in read_anywhere]
print("\n".join(unused) or "no unused imports or private names")
sys.exit(1 if unused else 0)
