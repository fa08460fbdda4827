"""Compare the CLI's pure path (``chbez._pure``) with its numpy path on many seeded inputs.

A CLI process that has not loaded numpy runs ``xform``, and ``describe``,
``elevate`` and ``subdivide`` of a plain curve as csv or json, on the pure
path; this script loads numpy first and switches between the two paths
through ``chbez.cli._numpy_loaded``.  Each of ``count`` seeded draws makes
two commands and runs each through ``chbez.cli.main`` on both paths:

- ``xform`` of a random space: either kind, order 1 to 32, alpha anywhere
  in range, just below pi (trigonometric) or just within the overflow guard
  ``n * alpha <= 300`` (hyperbolic);
- ``describe`` (with ``--derivative``), ``elevate`` or ``subdivide`` of a
  random plain curve of 1 to 4 coordinates in such a space, with random
  ``--order``, ``--split-at`` and ``--format``; amplitudes up to 1e300, so
  refusals (overflow, split points too close to an end) come up too.

Exit code, stdout and stderr must be equal, so every float's bits and every
refusal's text are compared.  On the first difference the script prints the
command (and writes its spec next to it) and exits 1; otherwise it prints
how many commands matched.  Uses numpy and the standard library only.  Run
from the root of the repository:
``python3 tools/pure_sweep.py [count [seed]]`` (defaults 1000 and 0).
"""

import contextlib
import io
import json
import math
import random
import sys
import tempfile
from pathlib import Path

import numpy  # noqa: F401  (loaded first: chbez.cli then takes the numpy path by default)

sys.path.insert(0, "src")
import chbez.cli  # noqa: E402

KINDS = ("trigonometric", "hyperbolic")


def draw_space(rng: random.Random, kind: str, n: int) -> float:
    """An alpha of a space of order n: anywhere, near pi, or near the overflow guard."""
    if kind == "trigonometric":
        return rng.choice([rng.uniform(1e-3, 3.14), math.pi * (1.0 - rng.uniform(1e-15, 1e-6))])
    return rng.choice([rng.uniform(1e-3, 300.0 / n), 300.0 / n * rng.uniform(0.99, 1.0)])


def draw_doc(rng: random.Random) -> dict:
    kind, nu = rng.choice(KINDS), rng.randint(0, 12)
    names = ("cos", "sin") if kind == "trigonometric" else ("cosh", "sinh")
    coords = []
    for _ in range(rng.randint(1, 4)):
        terms = []
        for _ in range(rng.randint(1, 4)):
            amplitude = rng.choice([0.0, rng.uniform(-10.0, 10.0), rng.uniform(-1e300, 1e300)])
            term = {"family": rng.choice(names), "k": rng.randint(0, nu), "a": amplitude}
            if rng.random() < 0.5:
                term["phase"] = rng.uniform(-4.0, 4.0)
            terms.append(term)
        coords.append({"terms": terms})
    alpha = draw_space(rng, kind, max(nu, 1))
    return {"version": 1, "type": "curve", "kind": kind, "alpha": alpha, "coords": coords}


def draw_commands(rng: random.Random, spec: Path) -> list:
    """An xform command, and a describe, elevate or subdivide command on ``spec``."""
    kind, n = rng.choice(KINDS), rng.randint(1, 32)
    xform = ["xform", "--kind", kind, "--alpha", repr(draw_space(rng, kind, n)), "--order", str(n),
             "--format", rng.choice(["csv", "json"])]
    doc = draw_doc(rng)
    spec.write_text(json.dumps(doc))
    command = rng.choice(["describe", "elevate", "subdivide"])
    argv = [command, "--spec", str(spec)]
    if rng.random() < 0.6:
        argv += ["--order", str(rng.randint(0, 33))]
    if command == "describe" and rng.random() < 0.6:
        argv += ["--derivative", str(rng.choice([0, 1, 2, 3, 7, 40]))]
    if command == "subdivide":
        alpha = doc["alpha"]
        u0 = rng.choice([rng.uniform(0.0, alpha), alpha * rng.uniform(1e-17, 1e-10), 1e-310])
        argv += ["--split-at", repr(u0)]
    else:
        argv += ["--format", rng.choice(["csv", "json"])]
    return [xform, argv]


def run(argv, pure: bool) -> tuple:
    """Exit code, stdout and stderr of ``chbez.cli.main(argv)`` on one path."""
    chbez.cli._numpy_loaded = lambda: not pure
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = chbez.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def main(count: int, seed: int) -> int:
    rng = random.Random(f"pure-sweep:{seed}")
    matched = 0
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "spec.json"
        for _ in range(count):
            for argv in draw_commands(rng, spec):
                numpy_path, pure_path = run(argv, False), run(argv, True)
                if numpy_path != pure_path:
                    kept = Path("pure_sweep_spec.json")
                    kept.write_text(spec.read_text())
                    print(f"mismatch: {' '.join(argv)} (spec kept as {kept})")
                    print(f"numpy path: exit {numpy_path[0]}, stderr {numpy_path[2]!r}")
                    print(f"pure path:  exit {pure_path[0]}, stderr {pure_path[2]!r}")
                    return 1
                matched += 1
    print(f"{matched} commands gave the same exit code, stdout and stderr on both paths")
    return 0


if __name__ == "__main__":
    args = [int(a) for a in sys.argv[1:3]]
    sys.exit(main(*(args + [1000, 0][len(args):])))
